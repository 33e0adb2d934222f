import numpy as np
import pytest

from attlab.cases import DEFAULT_CASE_IDS, GROUP_ORDER, case_spec
from attlab.errors import CaseInfeasibleError, DataIntegrityError
from attlab.features import (
    attitude_labels,
    build_frames,
    build_windows,
    concat_windows,
    css_to_sun_earth,
    SENSOR_MODELS,
    gyro_scale_from_passes,
    mag_to_unit,
    select_channels,
    sensor_errors_deg,
    shuffle_windows,
)
from attlab.rotations import (
    angle_between_deg,
    quat_from_axis_angle,
    quat_multiply,
    quat_rotate,
    rotation_angle_deg,
)
from attlab.synth import default_catalog, eclipse_variant, synth_pass


@pytest.fixture(scope="module")
def catalog_logs():
    return [synth_pass(sc) for sc in default_catalog()]


def unit(*v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_css_extraction_hand_oracle():
    # Hand application of the pairwise larger/smaller extraction rule.
    uS, uE, s_ok, e_ok = css_to_sun_earth([800, 100, 300, 100, 300, 100])
    assert np.allclose(uS, unit(800, 300, 300), atol=1e-12)
    assert np.allclose(uE, unit(-100, -100, -100), atol=1e-12)
    assert s_ok and e_ok
    assert abs(uS[0] - 0.886) < 5e-3 and abs(uS[1] - 0.332) < 5e-3
    assert np.allclose(uE, [-0.577, -0.577, -0.577], atol=5e-4)


def test_css_extraction_tie_break_positive():
    uS, uE, s_ok, e_ok = css_to_sun_earth([5, 5, 5, 5, 5, 5])
    assert np.allclose(uS, unit(5, 5, 5))
    assert np.allclose(uE, unit(-5, -5, -5))


def test_css_extraction_eclipse_unavailable():
    uS, uE, s_ok, e_ok = css_to_sun_earth([0, 0, 0, 0, 0, 0])
    assert not s_ok and not e_ok
    assert np.allclose(uS, 0.0) and np.allclose(uE, 0.0)


def test_css_extraction_negative_axis_wins():
    uS, _, _, _ = css_to_sun_earth([100, 800, 300, 100, 100, 300])
    assert np.allclose(uS, unit(-800, 300, -300), atol=1e-12)


def test_css_bias_subtraction():
    bias = [10, 10, 10, 10, 10, 10]
    uS, uE, s_ok, e_ok = css_to_sun_earth([10, 10, 10, 10, 10, 10], bias)
    assert not s_ok and not e_ok


def test_mag_to_unit_examples():
    ref = np.array([32768.0] * 3)
    uB, ok = mag_to_unit(ref + [100, 0, -100], ref, 8000.0)
    assert ok
    assert np.allclose(uB, [0.70710678, 0.0, -0.70710678])
    uB, ok = mag_to_unit(ref, ref, 8000.0)
    assert not ok


def test_mag_recovery_end_to_end_zero_error(catalog_logs):
    from attlab.synth import SensorErrors
    log = synth_pass(default_catalog(errors=SensorErrors())[0])
    uB, ok = mag_to_unit(log.mag, [32768.0] * 3, 8000.0)
    assert np.all(ok)
    truth_b = quat_rotate(log.q_true, log.uB_i)
    assert np.max(angle_between_deg(uB, truth_b)) < 0.5


def test_gyro_scale_rules(catalog_logs):
    scale = gyro_scale_from_passes(catalog_logs[:4])
    assert scale == max(float(np.max(np.abs(log.w))) for log in catalog_logs[:4])
    # scaled training max is exactly 1
    scaled_max = max(float(np.max(np.abs(log.w / scale))) for log in catalog_logs[:4])
    assert scaled_max == 1.0
    w = np.array([0.5, -0.25, 0.0])
    assert np.allclose(w / 0.5, [1.0, -0.5, 0.0])


def test_gyro_scale_zero_rejected(catalog_logs):
    log = catalog_logs[0]
    silent = type(log)(**{**log.__dict__, "w": np.zeros_like(log.w)})
    with pytest.raises(ValueError):
        gyro_scale_from_passes([silent])


def test_attitude_labels(catalog_logs):
    log = catalog_logs[0]
    labels = attitude_labels(log)
    assert labels.shape == (362, 3)
    # labels roundtrip through quaternions within 1e-9 deg
    from attlab.rotations import mrp_to_quat, quat_to_mrp
    back = quat_to_mrp(mrp_to_quat(labels))
    assert np.max(rotation_angle_deg(back, labels)) < 1e-9
    # continuity: consecutive attitudes within the rate limit
    step = rotation_angle_deg(labels[1:], labels[:-1])
    assert np.max(step) <= 0.5 + 1e-9


def test_attitude_labels_reject_non_unit(catalog_logs):
    log = catalog_logs[0]
    bad_q = log.q_true.copy()
    bad_q[5] *= 1.001
    bad = type(log)(**{**log.__dict__, "q_true": bad_q})
    with pytest.raises(DataIntegrityError):
        attitude_labels(bad)


def test_case_channel_counts():
    counts = [case_spec(f"C1{v}").channel_count for v in "abcdef"]
    assert counts == [6, 9, 12, 15, 18, 21]
    for v in "abcdef":
        spec = case_spec(f"C2{v}")
        assert not (set(spec.groups) & {"uB_m", "uB_i"})
    for cid in ("C3a", "C3c", "C3d", "C3f"):
        spec = case_spec(cid)
        assert not (set(spec.groups) & {"uS_c", "uE_c", "uS_i"})
    assert case_spec("C4f").groups == ("W_g",)
    assert case_spec("C4f").channel_count == 3
    assert case_spec("C1a").groups == ("uS_c", "uB_m")


def test_case_catalog_contents():
    ids = [case_spec(cid).case_id for cid in DEFAULT_CASE_IDS]
    assert ids == list(
        ("C1a", "C1b", "C1c", "C1d", "C1e", "C1f",
         "C2a", "C2b", "C2c", "C2d", "C2e", "C2f",
         "C3a", "C3c", "C3d", "C3f", "C4f"))
    # C3b and C3e collapse onto C3a and C3d, so the catalog leaves them out
    assert case_spec("C3b").groups == case_spec("C3a").groups
    assert case_spec("C3e").groups == case_spec("C3d").groups
    with pytest.raises(ValueError):
        case_spec("C9x")


def test_channel_selection_lossless(catalog_logs):
    frames = build_frames(catalog_logs[0], gyro_scale=0.55)
    full = select_channels(frames, case_spec("C1f"))
    assert full.shape == (362, 21)
    assert np.array_equal(full, np.hstack([frames.groups[g] for g in GROUP_ORDER]))
    # group slices land at the canonical offsets
    offsets = {g: 3 * i for i, g in enumerate(GROUP_ORDER)}
    for g in GROUP_ORDER:
        sl = full[:, offsets[g]:offsets[g] + 3]
        assert np.array_equal(sl, frames.groups[g])


def test_present_vectors_unit_norm(catalog_logs):
    frames = build_frames(catalog_logs[0], gyro_scale=0.55)
    for g in ("uS_c", "uB_m", "uE_c", "uS_i", "uB_i", "uE_i"):
        norms = np.linalg.norm(frames.groups[g][frames.avail[g]], axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_window_counts(catalog_logs):
    frames = build_frames(catalog_logs[0], gyro_scale=0.55)
    labels = attitude_labels(catalog_logs[0])
    assert len(build_windows(frames, labels, 11, case_spec("C1a"))) == 352
    assert len(build_windows(frames, labels, 5, case_spec("C1a"))) == 358
    ds = build_windows(frames, labels, 5, case_spec("C1a"))
    assert ds.X.shape == (358, 5, 6)
    with pytest.raises(ValueError):
        build_windows(frames, labels, 12, case_spec("C1a"))
    with pytest.raises(ValueError):
        build_windows(frames, labels, 0, case_spec("C1a"))


def test_window_labels_align_to_final_step(catalog_logs):
    frames = build_frames(catalog_logs[0], gyro_scale=0.55)
    labels = attitude_labels(catalog_logs[0])
    n = 5
    ds = build_windows(frames, labels, n, case_spec("C1f"))
    full = np.hstack([frames.groups[g] for g in GROUP_ORDER])
    k = 100
    assert np.array_equal(ds.X[k], full[k:k + n])
    assert np.array_equal(ds.Y[k], labels[k + n - 1])


def test_eclipse_pass_infeasible_for_sun_cases(catalog_logs):
    sc = eclipse_variant(default_catalog()[0])
    log = synth_pass(sc)
    frames = build_frames(log, css_bias=sc.errors.css_bias, gyro_scale=0.55)
    labels = attitude_labels(log)
    with pytest.raises(CaseInfeasibleError) as ei:
        build_windows(frames, labels, 5, case_spec("C1a"))
    assert ei.value.group == "uS_c"
    # magnetometer-only case still feasible
    ds = build_windows(frames, labels, 5, case_spec("C3c"))
    assert len(ds) == 358


def test_gyro_case_requires_scale(catalog_logs):
    frames = build_frames(catalog_logs[0])  # no gyro scale provided
    labels = attitude_labels(catalog_logs[0])
    with pytest.raises(CaseInfeasibleError) as ei:
        build_windows(frames, labels, 5, case_spec("C4f"))
    assert ei.value.group == "W_g"


def test_shuffle_windows_properties(catalog_logs):
    frames = build_frames(catalog_logs[0], gyro_scale=0.55)
    labels = attitude_labels(catalog_logs[0])
    ds = build_windows(frames, labels, 11, case_spec("C1a"))
    s1 = shuffle_windows(ds, 42)
    s2 = shuffle_windows(ds, 42)
    assert np.array_equal(s1.X, s2.X) and np.array_equal(s1.Y, s2.Y)
    s3 = shuffle_windows(ds, 43)
    assert not np.array_equal(s1.Y, s3.Y)
    # bijection: sorted labels identical
    assert np.array_equal(np.sort(s1.Y, axis=0), np.sort(ds.Y, axis=0))
    # pairing preserved: each (X, Y) row still matches an original row
    orig = {ds.X[k].tobytes(): ds.Y[k].tobytes() for k in range(len(ds))}
    for k in range(0, len(s1), 37):
        assert orig[s1.X[k].tobytes()] == s1.Y[k].tobytes()


def test_concat_windows(catalog_logs):
    case = case_spec("C1a")
    parts = []
    for log in catalog_logs[:2]:
        frames = build_frames(log, gyro_scale=0.55)
        parts.append(build_windows(frames, attitude_labels(log), 5, case))
    ds = concat_windows(parts)
    assert len(ds) == 2 * 358
    # passes stay in order: P1's windows first, then P2's
    assert np.array_equal(ds.X, np.concatenate([parts[0].X, parts[1].X]))
    assert np.array_equal(ds.Y[358:], parts[1].Y)


def test_gyro_scale_not_refit_on_test(catalog_logs):
    # the training-pass scale applies verbatim to the test pass, so scaled
    # test rates may exceed 1
    train_scale = gyro_scale_from_passes(catalog_logs[:4])
    hot = catalog_logs[4].w.copy()
    hot[100] = (1.5 * train_scale, 0.0, 0.0)
    scaled = hot / train_scale
    assert np.max(np.abs(scaled)) > 1.0



def test_frames_follow_manifest_flags(catalog_logs):
    import dataclasses

    log = catalog_logs[0]
    plain = build_frames(log)
    assert all(plain.avail[g].all() for g in ("uS_c", "uE_c", "uB_m"))
    sunlit = np.ones(362, dtype=bool)
    saturated = np.zeros(362, dtype=bool)
    sunlit[7] = sunlit[8] = False
    saturated[100] = True
    flagged = dataclasses.replace(log, manifest=dataclasses.replace(
        log.manifest, sunlit=sunlit, mag_saturated=saturated))
    frames = build_frames(flagged)
    for g in ("uS_c", "uE_c"):
        assert np.flatnonzero(~frames.avail[g]).tolist() == [7, 8]
    assert np.flatnonzero(~frames.avail["uB_m"]).tolist() == [100]
    # the vectors themselves are untouched; only their availability moves
    for g in plain.groups:
        assert np.array_equal(frames.groups[g], plain.groups[g])


def test_eclipse_flags_without_bias_estimate():
    # without the bias subtracted the constant CSS counts read as a Sun
    # vector; the sunlit flags still mark it unavailable
    log = synth_pass(eclipse_variant(default_catalog()[0]))
    uS, _, s_ok, _ = css_to_sun_earth(log.css)
    assert s_ok.all()
    frames = build_frames(log)
    assert not frames.avail["uS_c"].any() and not frames.avail["uE_c"].any()
    assert frames.avail["uB_m"].all()
    with pytest.raises(CaseInfeasibleError):
        select_channels(frames, case_spec("C1a"))


def _sensor_errors_per_group(frames, q, steps, models):
    """``sensor_errors_deg`` one group at a time: the rotation and the angle
    over only the steps where the group measured."""
    out = {}
    for group, model, column in models:
        err = np.full(frames.length, np.nan)
        seen = frames.avail[group][steps]
        k = steps[seen]
        err[k] = angle_between_deg(frames.groups[group][k],
                                   quat_rotate(q[seen], frames.groups[model][k]))
        out[column] = err
    return out


def _sensor_error_frames(catalog_logs):
    """(label, frames, log): default passes, an eclipse pass with the bias
    subtracted (its Sun and Earth vectors are zero) and a pass with some
    ``mag_saturated`` and ``sunlit`` flags set."""
    import dataclasses

    out = [(log.pass_id, build_frames(log), log) for log in catalog_logs[:3]]
    ecl = synth_pass(eclipse_variant(default_catalog()[1]))
    bias = ecl.manifest.scenario.errors.css_bias
    out.append(("eclipse", build_frames(ecl, css_bias=bias), ecl))
    log = catalog_logs[3]
    saturated = np.zeros(362, dtype=bool)
    saturated[[0, 5, 6, 7, 200, 361]] = True
    sunlit = np.ones(362, dtype=bool)
    sunlit[40] = sunlit[41] = False
    flagged = dataclasses.replace(log, manifest=dataclasses.replace(
        log.manifest, sunlit=sunlit, mag_saturated=saturated))
    out.append(("saturated", build_frames(flagged), flagged))
    return out


@pytest.mark.parametrize("models", [SENSOR_MODELS[:2], SENSOR_MODELS],
                         ids=["2-groups", "3-groups"])
def test_sensor_errors_stacked_match_per_group_bitwise(catalog_logs, models):
    tilt = quat_from_axis_angle([0.3, -1.0, 0.5], 2.7)
    for label, frames, log in _sensor_error_frames(catalog_logs):
        L = frames.length
        # truth attitudes over every step (TRIAD), and perturbed attitudes
        # after the first window (an export's predictions)
        for q, steps in ((log.q_true, np.arange(L)),
                         (quat_multiply(log.q_true[4:], tilt), np.arange(4, L))):
            got = sensor_errors_deg(frames, q, steps, models)
            want = _sensor_errors_per_group(frames, q, steps, models)
            assert list(got) == [column for _, _, column in models]
            for column in want:
                assert got[column].tobytes() == want[column].tobytes(), (label, column)
                assert np.array_equal(np.isnan(got[column]), np.isnan(want[column]))
        if label == "eclipse":
            assert np.isnan(got["sun_err_deg"]).all()
            assert np.isfinite(got["mag_err_deg"][4:]).all()
        if label == "saturated":
            assert np.flatnonzero(np.isnan(got["mag_err_deg"])).tolist() == [
                0, 1, 2, 3, 5, 6, 7, 200, 361]
            assert np.flatnonzero(np.isnan(got["sun_err_deg"])).tolist() == [
                0, 1, 2, 3, 40, 41]
