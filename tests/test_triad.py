import dataclasses

import numpy as np
import pytest

from attlab.errors import DegenerateGeometryError
from attlab.features import attitude_labels, build_frames
from attlab.harness import triad_baseline_report
from attlab.passlog import write_series_csv
from attlab.rotations import (
    angle_between_deg,
    dcm_to_quat,
    quat_rotate,
    quat_to_mrp,
    random_quat,
    rotation_angle_deg,
)
from attlab.synth import CATALOG_ERRORS, default_catalog, synth_pass
from attlab.triad import triad, triad_pass_eval


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_vector_pair(rng):
    """Two unit vectors separated by at least ~6 deg."""
    while True:
        v1 = unit(rng.standard_normal(3))
        v2 = unit(rng.standard_normal(3))
        if np.linalg.norm(np.cross(v1, v2)) > 0.1:
            return v1, v2


def test_triad_identity():
    v1, v2 = unit([1, 0.2, 0]), unit([0, 1, 0.3])
    A = triad(v1, v2, v1, v2)
    assert np.allclose(A, np.eye(3), atol=1e-12)


def test_triad_recovers_known_rotation():
    # Oracle: inputs built from a known quaternion must reproduce it.
    rng = np.random.default_rng(77)
    for _ in range(200):
        q = random_quat(rng)
        v1_i, v2_i = random_vector_pair(rng)
        A = triad(quat_rotate(q, v1_i), quat_rotate(q, v2_i), v1_i, v2_i)
        err = rotation_angle_deg(quat_to_mrp(dcm_to_quat(A)), quat_to_mrp(q))
        assert err < 1e-9


def test_triad_primary_exact_with_perturbed_secondary():
    rng = np.random.default_rng(88)
    from attlab.rotations import quat_from_axis_angle
    for _ in range(50):
        q = random_quat(rng)
        v1_i, v2_i = random_vector_pair(rng)
        v1_b = quat_rotate(q, v1_i)
        v2_b = quat_rotate(q, v2_i)
        # rotate the secondary 5 deg about a random axis
        perturb = quat_from_axis_angle(rng.standard_normal(3), 5.0)
        v2_b = quat_rotate(perturb, v2_b)
        A = triad(v1_b, v2_b, v1_i, v2_i)
        assert angle_between_deg(A @ v1_i, v1_b) < 1e-9


def test_triad_always_proper_rotation():
    rng = np.random.default_rng(99)
    for _ in range(100):
        q = random_quat(rng)
        v1_i, v2_i = random_vector_pair(rng)
        A = triad(quat_rotate(q, v1_i), quat_rotate(q, v2_i), v1_i, v2_i)
        assert np.allclose(A @ A.T, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(A) - 1.0) < 1e-9


def test_triad_rejects_collinear():
    v = unit([1, 1, 0])
    with pytest.raises(DegenerateGeometryError):
        triad(v, v, v, v)
    with pytest.raises(DegenerateGeometryError):
        triad(v, 1.0000001 * v, v, -v)


def test_pass_eval_rejects_unknown_priority(biased_pass):
    log, frames = biased_pass
    for priority in ("both", "Sun", "", None):
        with pytest.raises(ValueError, match=repr(priority)):
            triad_pass_eval(frames, attitude_labels(log), priority)


@pytest.fixture(scope="module")
def biased_pass():
    log = synth_pass(default_catalog()[0])
    return log, build_frames(log)


@pytest.fixture(scope="module")
def clean_pass():
    from attlab.synth import SensorErrors
    log = synth_pass(default_catalog(errors=SensorErrors(css_gain=(1000.0,) * 6))[0])
    return log, build_frames(log)


def rms(series):
    """RMS over the solved (finite) steps of a per-step error series."""
    return float(np.sqrt(np.mean(series[np.isfinite(series)] ** 2)))


def test_pass_eval_zero_error(clean_pass):
    log, frames = clean_pass
    ev = triad_pass_eval(frames, attitude_labels(log), "mag")
    assert rms(ev.att_err_deg) < 0.5
    assert ev.solved_steps == 362


def test_pass_eval_biased_catalog(biased_pass):
    log, frames = biased_pass
    sun = triad_pass_eval(frames, attitude_labels(log), "sun").att_err_deg
    mag = triad_pass_eval(frames, attitude_labels(log), "mag").att_err_deg
    assert sun.shape == mag.shape == (362,)
    assert np.isfinite(rms(sun)) and np.isfinite(rms(mag))
    assert rms(sun) != rms(mag)


def test_pass_eval_series_csv(tmp_path, biased_pass):
    log, _ = biased_pass
    (row,) = triad_baseline_report([log], priorities=("mag",))
    p = tmp_path / "triad.csv"
    write_series_csv(p, row["series"][0])
    lines = p.read_text().splitlines()
    assert lines[0] == "t,att_err_deg,sun_err_deg,mag_err_deg"
    assert len(lines) == 363
    assert "nan" not in p.read_text().lower()


def test_pass_eval_skips_collinear_steps(tmp_path):
    log = synth_pass(default_catalog()[0])
    frames = build_frames(log)
    ok = frames.avail["uS_c"] & frames.avail["uB_m"]
    rows = np.flatnonzero(ok)[[3, 50, 51, 200, 300]]
    frames.groups["uB_m"][rows] = frames.groups["uS_c"][rows]
    ev = triad_pass_eval(frames, attitude_labels(log), "mag")
    k = len(rows)
    assert ev.skip_reasons["collinear"] == k
    unsolved = ~ok
    unsolved[rows] = True
    assert np.array_equal(np.isnan(ev.att_err_deg), unsolved)
    assert ev.solved_steps == 362 - ev.skip_reasons["unavailable"] - k
    p = tmp_path / "triad.csv"
    write_series_csv(p, {"t": log.t.astype(np.int64), "att_err_deg": ev.att_err_deg})
    lines = p.read_text().splitlines()[1:]
    for step in range(362):
        att_cell = lines[step].split(",")[1]
        assert (att_cell == "") == unsolved[step]


def test_bias_knob_monotonic_triad_rms():
    # Increasing a single structured-error knob degrades TRIAD monotonically.
    knob_sets = {
        "mag_hard_iron": [(0.0, 0.0, 0.0), (0.03, -0.02, 0.02), (0.08, -0.05, 0.06)],
        "albedo_coeff": [0.0, 0.3, 0.7],
        "mag_misalign_deg": [0.0, 3.0, 8.0],
    }
    for knob, levels in knob_sets.items():
        levels_rms = []
        for level in levels:
            overrides = dict(css_noise=0.0, mag_noise=0.0,
                             mag_hard_iron=(0.0, 0.0, 0.0), albedo_coeff=0.0,
                             mag_misalign_deg=0.0)
            overrides[knob] = level
            errors = dataclasses.replace(CATALOG_ERRORS, **overrides)
            log = synth_pass(default_catalog(errors=errors)[0])
            ev = triad_pass_eval(build_frames(log), attitude_labels(log), "mag")
            levels_rms.append(rms(ev.att_err_deg))
        assert levels_rms[0] < levels_rms[1] < levels_rms[2], f"{knob}: {levels_rms}"


def test_pass_eval_sensor_columns_follow_own_availability():
    # a step without a Sun vector has no TRIAD solution and no Sun error,
    # but its field error is still measured
    log = synth_pass(default_catalog()[0])
    rows = [10, 11, 200]
    sunlit = np.ones(362, dtype=bool)
    sunlit[rows] = False
    log = dataclasses.replace(log, manifest=dataclasses.replace(log.manifest, sunlit=sunlit))
    ev = triad_pass_eval(build_frames(log), attitude_labels(log), "mag")
    assert np.isnan(ev.att_err_deg[rows]).all()
    assert ev.skip_reasons["unavailable"] == len(rows)
    assert ev.solved_steps == 362 - len(rows)
    (row,) = triad_baseline_report([log], priorities=("mag",))
    series = row["series"][0]
    assert np.array_equal(series["att_err_deg"], ev.att_err_deg, equal_nan=True)
    assert np.flatnonzero(np.isnan(series["sun_err_deg"])).tolist() == rows
    assert np.isfinite(series["mag_err_deg"]).all()


def test_pass_eval_eclipse_solves_no_step():
    # no Sun vector anywhere: nothing is solved, and the field errors remain
    from attlab.synth import eclipse_variant

    log = synth_pass(eclipse_variant(default_catalog()[0]))
    ev = triad_pass_eval(build_frames(log), attitude_labels(log), "sun")
    assert ev.solved_steps == 0 and ev.skipped_steps == 362
    assert ev.skip_reasons == {"unavailable": 362, "collinear": 0}
    assert np.isnan(ev.att_err_deg).all()
    (row,) = triad_baseline_report([log], priorities=("sun",))
    series = row["series"][0]
    assert np.isnan(series["att_err_deg"]).all()
    assert np.isnan(series["sun_err_deg"]).all()
    assert np.isfinite(series["mag_err_deg"]).all()
