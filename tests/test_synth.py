import dataclasses

import numpy as np
import pytest

from attlab.errors import DataIntegrityError, ScenarioInfeasibleError
from attlab.passlog import PASS_SAMPLES, from_dict, read_passlog, write_passlog
from attlab.refmodels import OrbitElements
from attlab.rotations import (
    angle_between_deg,
    quat_from_axis_angle,
    quat_rotate,
    quat_to_mrp,
    rotation_angle_deg,
)
from attlab.synth import (
    Maneuver,
    Scenario,
    SensorErrors,
    default_catalog,
    eclipse_variant,
    make_attitude_profile,
    simulate_css,
    simulate_gyro,
    simulate_mag,
    synth_pass,
)

IDENT = (0.0, 0.0, 0.0, 1.0)


def basic_scenario(**kw):
    defaults = dict(
        pass_id="T1",
        orbit=OrbitElements(a_km=6771.0, inc_deg=51.6, raan_deg=100.0,
                            arglat_deg=0.0, epoch=1.6398e9),
        epoch=1.6398e9,
        q0=IDENT,
        maneuver=Maneuver(axis=(0, 0, 1), magnitude_deg=40.0, start_s=60.0,
                          rate_limit_dps=0.5),
        errors=SensorErrors(),
        seed=7,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def test_profile_zero_maneuver_constant():
    sc = basic_scenario(maneuver=Maneuver(magnitude_deg=0.0))
    q, w = make_attitude_profile(sc)
    m = quat_to_mrp(q)
    assert np.all(rotation_angle_deg(m, m[0]) == 0.0)
    assert np.allclose(w, 0.0)


def test_profile_slew_kinematics():
    # 40 deg at 0.5 deg/s from t=60: done at t = 60 + 80 = 140.
    sc = basic_scenario()
    q, w = make_attitude_profile(sc)
    m = quat_to_mrp(q)
    ang_to_initial = rotation_angle_deg(m, m[0])
    assert abs(ang_to_initial[140] - 40.0) < 0.1
    assert abs(ang_to_initial[-1] - 40.0) < 1e-9
    assert np.all(ang_to_initial[:60] == 0.0)


def test_profile_rate_limited():
    sc = basic_scenario()
    q, _ = make_attitude_profile(sc)
    m = quat_to_mrp(q)
    step = rotation_angle_deg(m[1:], m[:-1])
    assert np.max(step) <= sc.maneuver.rate_limit_dps * 1.0 + 1e-9


def test_profile_rates_consistent_with_quats():
    sc = basic_scenario()
    q, w = make_attitude_profile(sc)
    during = slice(70, 130)
    assert np.allclose(np.linalg.norm(w[during], axis=1), 0.5, atol=1e-9)


def test_profile_infeasible_maneuver():
    with pytest.raises(ScenarioInfeasibleError):
        sc = basic_scenario(
            maneuver=Maneuver(magnitude_deg=170.0, start_s=60.0, rate_limit_dps=0.5))
        make_attitude_profile(sc)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Maneuver(start_s=-1.0)
    with pytest.raises(ValueError):
        Maneuver(rate_limit_dps=6.0)
    with pytest.raises(ValueError):
        SensorErrors(css_noise=-1.0)
    # list fields: 6 or 3 numbers (an int counts, a bool does not)
    for key, value in (("css_gain", (1000.0,)), ("css_bias", (0.0,) * 7),
                       ("mag_ref", (32768.0, 32768.0)), ("mag_hard_iron", (0.0, 0.0, "0")),
                       ("mag_misalign_axis", (1.0, True, 1.0)),
                       ("gyro_bias_dps", (0.0, 0.0, None))):
        with pytest.raises(ValueError, match=repr(key)):
            SensorErrors(**{key: value})
    SensorErrors(css_bias=(0,) * 6, mag_hard_iron=(0, 0, 0))


def test_css_single_panel():
    err = SensorErrors(css_gain=(1000.0,) * 6, css_bias=(10.0,) * 6)
    rng = np.random.default_rng(0)
    counts = simulate_css(np.array(IDENT), [1.0, 0, 0], [-1.0, 0, 0], 1.0, err, rng)
    assert counts.tolist() == [1010, 10, 10, 10, 10, 10]


def test_css_eclipse_is_bias():
    err = SensorErrors(css_gain=(1000.0,) * 6, css_bias=(12.0,) * 6, albedo_coeff=0.0)
    rng = np.random.default_rng(0)
    counts = simulate_css(np.array(IDENT), [1.0, 0, 0], [-1.0, 0, 0], 0.0, err, rng)
    assert counts.tolist() == [12] * 6


def test_css_cosine_law_oracle():
    # Sun on the +x/+y diagonal: both panels read gain*cos(45) + bias.
    g, b = 1000.0, 10.0
    err = SensorErrors(css_gain=(g,) * 6, css_bias=(b,) * 6)
    rng = np.random.default_rng(0)
    s = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    counts = simulate_css(np.array(IDENT), s, -s, 1.0, err, rng)
    expected = round(g * np.cos(np.radians(45.0)) + b)
    assert counts[0] == counts[2] == expected


def test_css_albedo_lights_antisun_panels():
    err = SensorErrors(css_gain=(1000.0,) * 6, albedo_coeff=0.3)
    rng = np.random.default_rng(0)
    counts = simulate_css(np.array(IDENT), [1.0, 0, 0], [-1.0, 0, 0], 1.0, err, rng)
    assert counts.tolist() == [1000, 300, 0, 0, 0, 0]


def test_mag_zero_field_reads_reference():
    err = SensorErrors(mag_ref=(32768.0,) * 3, mag_scale=8000.0)
    rng = np.random.default_rng(0)
    counts, sat = simulate_mag(np.array(IDENT), [0.0, 0.0, 0.0], err, rng)
    assert counts.tolist() == [32768] * 3
    assert not sat


def test_mag_sign_convention():
    err = SensorErrors(mag_ref=(32768.0,) * 3, mag_scale=8000.0)
    rng = np.random.default_rng(0)
    g = 0.5
    counts, sat = simulate_mag(np.array(IDENT), [g, 0.0, -g], err, rng)
    assert counts.tolist() == [32768 + 4000, 32768, 32768 - 4000]
    assert not sat


def test_mag_saturates_at_rails():
    err = SensorErrors(mag_ref=(32768.0,) * 3, mag_scale=8000.0)
    rng = np.random.default_rng(0)
    counts, sat = simulate_mag(np.array(IDENT), [3.0, 0.0, 0.0], err, rng)
    assert counts[0] == 32768 + 16000
    assert sat


def test_mag_misalignment_oracle():
    # A 2 deg mounting rotation moves the recovered direction by 2 deg
    # when the field is perpendicular to the misalignment axis.
    err = SensorErrors(mag_scale=8000.0, mag_misalign_deg=2.0,
                       mag_misalign_axis=(0.0, 0.0, 1.0))
    rng = np.random.default_rng(0)
    B = np.array([0.4, 0.0, 0.0])
    counts, _ = simulate_mag(np.array(IDENT), B, err, rng)
    recovered = (np.asarray(counts, float) - 32768.0) / 8000.0
    ang = angle_between_deg(recovered, B)
    assert abs(ang - 2.0) < 0.05  # quantization at 8000 counts/gauss


def test_gyro_passthrough_and_bias():
    rng = np.random.default_rng(0)
    assert np.allclose(simulate_gyro([0.0, 0, 0], SensorErrors(), rng), 0.0)
    err = SensorErrors(gyro_bias_dps=(0.01, 0.0, 0.0))
    assert np.allclose(simulate_gyro([0.0, 0, 0], err, rng), [0.01, 0, 0])


def test_gyro_noise_statistics():
    err = SensorErrors(gyro_bias_dps=(0.02, -0.01, 0.0), gyro_noise_dps=0.01)
    rng = np.random.default_rng(42)
    w_true = np.zeros((PASS_SAMPLES, 3))
    w = simulate_gyro(w_true, err, rng)
    resid = np.mean(w - w_true, axis=0)
    tol = 3.0 * 0.01 / np.sqrt(PASS_SAMPLES)
    assert np.all(np.abs(resid - np.array([0.02, -0.01, 0.0])) < tol)


def test_synth_pass_deterministic(tmp_path):
    sc = default_catalog()[0]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_passlog(synth_pass(sc), a)
    write_passlog(synth_pass(sc), b)
    assert a.read_bytes() == b.read_bytes()
    am = a.with_name("a.manifest.json").read_bytes()
    bm = b.with_name("b.manifest.json").read_bytes()
    assert am == bm


def test_synth_pass_seed_changes_output(tmp_path):
    sc = default_catalog()[0]
    sc2 = from_dict(Scenario, {**dataclasses.asdict(sc), "seed": sc.seed + 100}, "scenario")
    log1 = synth_pass(sc)
    log2 = synth_pass(sc2)
    assert not np.array_equal(log1.css, log2.css)
    # structure identical, only noise differs
    assert np.array_equal(log1.q_true, log2.q_true)


def test_catalog_passes_are_similar():
    logs = [synth_pass(sc) for sc in default_catalog()]
    base = logs[0].css.astype(float)
    for other in logs[1:]:
        for c in range(6):
            x, y = base[:, c], other.css[:, c].astype(float)
            if np.std(x) == 0 or np.std(y) == 0:
                continue
            corr = np.corrcoef(x, y)[0, 1]
            assert corr > 0.9, f"channel {c} corr {corr}"


def test_eclipse_variant_css_constant_at_bias():
    sc = eclipse_variant(default_catalog()[0])
    log = synth_pass(sc)
    expected = np.round(np.asarray(sc.errors.css_bias))
    assert np.array_equal(log.css, np.tile(expected, (PASS_SAMPLES, 1)).astype(np.int64))
    assert not log.manifest.sunlit.any()


def test_zero_error_pass_sensor_truth_consistency():
    err = SensorErrors(css_gain=(1000.0,) * 6)
    sc = default_catalog(errors=err)[0]
    log = synth_pass(sc)
    # recovered field direction vs truth-rotated model: quantization only
    B_meas = (log.mag.astype(float) - 32768.0) / 8000.0
    uB_true_b = quat_rotate(log.q_true, log.uB_i)
    angs = angle_between_deg(B_meas, uB_true_b)
    assert np.max(angs) < 0.05


def test_passlog_roundtrip(tmp_path):
    log = synth_pass(default_catalog()[0])
    p = tmp_path / "p.csv"
    write_passlog(log, p)
    back = read_passlog(p)
    assert np.array_equal(back.css, log.css)
    assert np.array_equal(back.mag, log.mag)
    assert np.array_equal(back.w, log.w)
    assert np.array_equal(back.q_true, log.q_true)
    assert back.manifest.scenario_hash == log.manifest.scenario_hash
    assert back.pass_id == log.pass_id


def test_passlog_rejects_bad_data(tmp_path):
    log = synth_pass(default_catalog()[0])
    p = tmp_path / "p.csv"
    write_passlog(log, p)
    lines = p.read_text().splitlines()
    del lines[100]  # break the cadence / record count
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataIntegrityError):
        read_passlog(p)


def test_scenario_roundtrip_through_dict():
    sc = default_catalog()[2]
    back = from_dict(Scenario, dataclasses.asdict(sc), "scenario")
    assert back == sc
    assert back.hash() == sc.hash()


def test_catalog_near_noon_geometry():
    # Sun and Earth directions are nearly opposite over every catalog pass
    for sc in default_catalog():
        log = synth_pass(sc)
        uE = -log.r_km / np.linalg.norm(log.r_km, axis=1, keepdims=True)
        dots = np.sum(log.uS_i * uE, axis=1)
        assert np.max(dots) < -0.7
