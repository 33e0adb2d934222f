import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from attlab.cases import case_spec
from attlab import harness
from attlab.convnet import NetConfig, TrainConfig, init_params, load_model, save_model, train
from attlab.harness import (
    RunResult,
    aggregate_case,
    group_tables,
    render_baseline_csv,
    render_table_csv,
    render_tables_markdown,
    run_case,
    run_matrix,
    timeseries_rows,
    triad_baseline_report,
    write_matrix_reports,
)
from attlab.passlog import (
    CSV_COLUMNS,
    read_passlog,
    write_raw_profile_csv,
    write_series_csv,
)
from attlab.synth import SensorErrors, default_catalog, synth_pass

FAST_TC = TrainConfig(max_epochs=25)


def fake_result(case_id, seed_name, train, test, flag):
    return RunResult(case_id=case_id, seed_name=seed_name, train_rms_deg=train,
                     test_rms_deg=test, max_epoch_flag=flag, best_epoch=1,
                     stop_reason="max-epoch" if flag else "early-stop",
                     divergence_count=0, gyro_scale=0.5)


def test_aggregate_sanity_row_from_known_values():
    # 0.7 + 3.0 = 3.7 validates the combined-column formula.
    rs = [fake_result("C1e", "R1", 0.7, 3.0, False),
          fake_result("C1e", "R2", 2.8, 3.9, False),
          fake_result("C1e", "R3", 6.5, 7.3, False)]
    row = aggregate_case("C1e", rs)
    assert row.min_train_deg == 0.7
    assert row.min_test_deg == 3.0
    assert row.combined_deg == pytest.approx(3.7)


def test_aggregate_excludes_flagged_runs_from_min():
    # the flagged 3.8 is smaller than the min but must not win
    rs = [fake_result("C2a", "R1", 6.4, 8.6, False),
          fake_result("C2a", "R2", 7.0, 7.6, False),
          fake_result("C2a", "R3", 3.8, 10.0, True)]
    row = aggregate_case("C2a", rs)
    assert row.min_train_deg == 6.4
    assert row.min_test_deg == 7.6
    assert row.combined_deg == pytest.approx(14.0)


def test_aggregate_all_flagged_reports_unavailable():
    rs = [fake_result("C4f", s, 3.0 + i, 7.0 + i, True)
          for i, s in enumerate(("R1", "R2", "R3"))]
    row = aggregate_case("C4f", rs)
    assert row.min_train_deg is None and row.min_test_deg is None and row.combined_deg is None
    csv = render_table_csv(group_tables([row])[0])
    line = csv.splitlines()[1]
    assert line == "C4f,3.0*,4.0*,5.0*,,7.0*,8.0*,9.0*,,"
    md = render_tables_markdown(group_tables([row]))
    assert "| C4f | 3.0* | 4.0* | 5.0* | - |" in md


def test_aggregate_min_order_invariant():
    rs = [fake_result("C1a", "R2", 2.0, 5.0, False),
          fake_result("C1a", "R3", 1.0, 6.0, False),
          fake_result("C1a", "R1", 3.0, 4.0, False)]
    row = aggregate_case("C1a", rs)
    assert row.min_train_deg == 1.0 and row.min_test_deg == 4.0
    assert row.train_rms_deg == [3.0, 2.0, 1.0]  # presented in R1, R2, R3 order


def test_table_header_structure():
    rs = [fake_result("C1a", s, 1.0, 2.0, False) for s in ("R1", "R2", "R3")]
    (table,) = group_tables([aggregate_case("C1a", rs)])
    header = render_table_csv(table).splitlines()[0]
    assert tuple(header.split(",")) == ("case", "train_R1", "train_R2", "train_R3",
                                        "min_train(I)", "test_R1", "test_R2", "test_R3",
                                        "min_test(II)", "(I)+(II)")


GOLDEN_REPORTS = Path(__file__).parent / "data" / "ablation_golden"


def test_write_matrix_reports_golden(tmp_path):
    # fixed results pin every byte of the reports, among them the key names
    # of ablation_report.json, the rounding of the tables and the max-epoch
    # markers; C2a has every seed flagged, so its minima are missing
    def rr(case_id, seed, train, test, flag, best, div):
        return RunResult(case_id=case_id, seed_name=seed, train_rms_deg=train,
                         test_rms_deg=test, max_epoch_flag=flag, best_epoch=best,
                         stop_reason="max-epoch" if flag else "early-stop",
                         divergence_count=div, gyro_scale=0.5625,
                         model_path=f"{case_id}_{seed}/model.bin",
                         history_path=f"{case_id}_{seed}/history.csv")

    results = [rr("C1a", "R1", 1.25, 2.5, False, 108, 0),
               rr("C1a", "R2", 0.75, 3.125, True, 240, 1),
               rr("C2a", "R1", 6.375, 8.0625, True, 239, 0),
               rr("C2a", "R2", 7.5, 9.25, True, 240, 2)]
    seeds = ("R1", "R2")
    rows = [aggregate_case(cid, [r for r in results if r.case_id == cid], seeds=seeds)
            for cid in ("C1a", "C2a")]
    meta = {"cases": ["C1a", "C2a"], "seeds": list(seeds), "window": 5,
            "pass_ids": ["P1", "P2", "P3", "P4", "P5"]}
    paths = write_matrix_reports(group_tables(rows), results, tmp_path, meta)
    assert sorted(Path(p).name for p in paths.values()) == sorted(
        p.name for p in GOLDEN_REPORTS.iterdir())
    for p in map(Path, paths.values()):
        assert p.read_bytes() == (GOLDEN_REPORTS / p.name).read_bytes(), p.name


def test_run_case_deterministic(tmp_path, catalog_logs):
    a = run_case("C1a", "R1", catalog_logs, tmp_path / "a", n=5, tc=FAST_TC)
    b = run_case("C1a", "R1", catalog_logs, tmp_path / "b", n=5, tc=FAST_TC)
    assert a == b
    for name in ("model.bin", "history.csv", "result.json"):
        assert ((tmp_path / "a" / "C1a_R1" / name).read_bytes()
                == (tmp_path / "b" / "C1a_R1" / name).read_bytes())
    assert a.train_rms_deg > 0.0 and np.isfinite(a.test_rms_deg)


def test_run_case_persists_artifacts(tmp_path, catalog_logs):
    r = run_case("C1a", "R1", catalog_logs, n=5, outdir=tmp_path, tc=FAST_TC)
    assert r.model_path == "C1a_R1/model.bin"  # relative to the output dir
    params, nc, prov, _ = load_model(tmp_path / r.model_path)
    assert prov.case_id == "C1a"
    assert prov.gyro_scale == r.gyro_scale
    assert prov.train_pass_ids == ("P1", "P2", "P3", "P4")
    assert (tmp_path / "C1a_R1" / "history.csv").exists()
    saved = json.loads((tmp_path / "C1a_R1" / "result.json").read_text())
    assert saved["train_rms_deg"] == r.train_rms_deg


def test_run_case_holds_no_in_order_windows_while_training(tmp_path, catalog_logs,
                                                            monkeypatch):
    built, alive = [], []
    build_windows = harness.build_windows

    def tracked_build_windows(*args):
        windows = build_windows(*args)
        built.append(weakref.ref(windows.X))
        return windows

    def tracked_train(*args):
        gc.collect()
        alive.extend(ref() is not None for ref in built)
        return train(*args)

    monkeypatch.setattr(harness, "build_windows", tracked_build_windows)
    monkeypatch.setattr(harness, "train", tracked_train)
    run_case("C1f", "R1", catalog_logs, tmp_path, n=5, tc=FAST_TC)
    # the four training passes and the test pass were windowed before
    # training, and none of those window sets outlived the shuffled set
    assert alive == [False] * 5
    assert len(built) == 10  # each pass is windowed again to be scored


def test_run_case_rejects_wrong_pass_count(tmp_path, catalog_logs):
    with pytest.raises(ValueError):
        run_case("C1a", "R1", catalog_logs[:3], tmp_path, tc=FAST_TC)
    assert not any(tmp_path.iterdir())


@pytest.fixture(scope="module")
def catalog_read(catalog_dir):
    """The catalog's passes as read from their files, with their digests."""
    return [read_passlog(p) for p in catalog_dir[1]]


def test_run_matrix_shape_and_resume(tmp_path, catalog_read):
    out = tmp_path / "m1"
    seen = []
    tables, results = run_matrix(catalog_read, ["C1a", "C4f"], seeds=("R1",), n=5,
                                 outdir=out, tc=FAST_TC,
                                 on_cell=lambda r, e, s: seen.append((r, e, s)))
    assert len(results) == 2
    assert [r for r, _, _ in seen] == results and all(s > 0.0 for _, _, s in seen)
    # epochs is the length of each cell's history; C4f runs to the cap
    assert [e for _, e, _ in seen][1] == FAST_TC.max_epochs
    assert [t.title for t in tables][0].startswith("Case family C1")
    rep = write_matrix_reports(tables, results, out, meta={"seeds": ["R1"]})
    md1 = open(rep["markdown"]).read()
    # resume: delete nothing, rerun -> identical bytes, and the reused
    # cells report the epochs of their saved histories
    seen2 = []
    tables2, results2 = run_matrix(catalog_read, ["C1a", "C4f"], seeds=("R1",), n=5,
                                   outdir=out, resume=True, tc=FAST_TC,
                                   on_cell=lambda r, e, s: seen2.append((r, e)))
    assert seen2 == [(r, e) for r, e, _ in seen]
    rep2 = write_matrix_reports(tables2, results2, out, meta={"seeds": ["R1"]})
    assert open(rep2["markdown"]).read() == md1
    assert results2 == results


def test_run_matrix_pool_capped_at_cell_count(tmp_path, monkeypatch, catalog_read):
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("attlab.harness.ProcessPoolExecutor", InlinePool)
    tc = TrainConfig(max_epochs=2)
    run_matrix(catalog_read, ["C1a"], tmp_path, seeds=("R1",), jobs=4, tc=tc)
    assert sizes == []  # one cell runs in-process
    run_matrix(catalog_read, ["C1a"], tmp_path, seeds=("R1", "R2"), jobs=4, tc=tc)
    assert sizes == [2]


def test_run_matrix_rejects_empty_cases(tmp_path, catalog_read):
    with pytest.raises(ValueError):
        run_matrix(catalog_read, [], tmp_path, tc=FAST_TC)


def test_triad_baseline_report_biased(catalog_logs):
    rows = triad_baseline_report(catalog_logs)
    assert [r["priority"] for r in rows] == ["sun", "mag"]
    a, b = rows[0]["rms_att_deg"], rows[1]["rms_att_deg"]
    assert a > 1.0 and b > 1.0
    assert abs(a - b) / max(a, b) < 0.15
    # sensor-direction errors identical across priorities
    assert rows[0]["rms_sun_deg"] == rows[1]["rms_sun_deg"]
    csv = render_baseline_csv(rows)
    assert csv.splitlines()[0] == ("priority,rms_att_deg,rms_sun_deg,rms_mag_deg,"
                                   "solved_steps,skipped_steps,unavailable,collinear")
    for r, line in zip(rows, csv.splitlines()[1:]):
        assert line.split(",")[-2:] == [str(r["skip_reasons"]["unavailable"]),
                                        str(r["skip_reasons"]["collinear"])]
    assert rows[0]["solved_steps"] + rows[0]["skipped_steps"] == 5 * 362


def test_triad_baseline_report_no_solved_step():
    # an eclipse catalog has no Sun vector: the attitude and Sun RMS pool
    # no step, read NaN without a warning and print as empty cells
    import warnings

    from attlab.synth import eclipse_variant

    logs = [synth_pass(eclipse_variant(sc)) for sc in default_catalog()[:2]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = triad_baseline_report(logs)
    for r in rows:
        assert np.isnan(r["rms_att_deg"]) and np.isnan(r["rms_sun_deg"])
        assert np.isfinite(r["rms_mag_deg"])
        assert r["solved_steps"] == 0 and r["skipped_steps"] == 2 * 362
    lines = render_baseline_csv(rows).splitlines()
    assert lines[0] == ("priority,rms_att_deg,rms_sun_deg,rms_mag_deg,solved_steps,"
                        "skipped_steps,unavailable,collinear")
    assert lines[1] == f"sun,,,{rows[0]['rms_mag_deg']:.3f},0,724,724,0"


@pytest.mark.parametrize("eclipse", [False, True], ids=["default", "eclipse"])
def test_triad_baseline_report_matches_pass_by_pass(catalog_logs, eclipse):
    # the report solves the stacked catalog once per priority and measures
    # its sensor errors once; each pass's series is cut out of it and must
    # carry the bits of that pass evaluated alone
    from attlab.features import (
        SENSOR_MODELS,
        attitude_labels,
        build_frames,
        sensor_errors_deg,
    )
    from attlab.synth import eclipse_variant
    from attlab.triad import triad_pass_eval

    logs = ([synth_pass(eclipse_variant(sc)) for sc in default_catalog()] if eclipse
            else catalog_logs)
    rows = triad_baseline_report(logs)
    for r in rows:
        assert r["solved_steps"] + r["skipped_steps"] == 5 * 362
        assert sum(r["skip_reasons"].values()) == r["skipped_steps"]
        assert len(r["series"]) == len(logs)
        for log, series in zip(logs, r["series"]):
            frames = build_frames(log)
            ev = triad_pass_eval(frames, attitude_labels(log), r["priority"])
            alone = {"t": log.t.astype(np.int64), "att_err_deg": ev.att_err_deg,
                     **sensor_errors_deg(frames, log.q_true, np.arange(362),
                                         SENSOR_MODELS[:2])}
            assert list(series) == ["t", "att_err_deg", "sun_err_deg", "mag_err_deg"]
            assert list(series) == list(alone)
            for col, x in alone.items():
                assert series[col].dtype == x.dtype
                assert series[col].tobytes() == x.tobytes(), (log.pass_id, col)
    assert rows[0]["solved_steps"] == (0 if eclipse else 5 * 362)


def test_triad_baseline_report_measures_sensor_errors_once(catalog_logs, monkeypatch):
    # the sensor errors do not depend on the priority: one call per catalog
    from attlab import harness

    calls = []
    measure = harness.sensor_errors_deg

    def counted(*args, **kwargs):
        calls.append(1)
        return measure(*args, **kwargs)

    monkeypatch.setattr(harness, "sensor_errors_deg", counted)
    rows = triad_baseline_report(catalog_logs)
    assert len(calls) == 1
    assert rows[0]["rms_sun_deg"] == rows[1]["rms_sun_deg"]
    assert rows[0]["rms_mag_deg"] == rows[1]["rms_mag_deg"]


def test_triad_baseline_zero_error_catalog():
    logs = [synth_pass(sc) for sc in
            default_catalog(errors=SensorErrors(css_gain=(1000.0,) * 6))]
    rows = triad_baseline_report(logs)
    assert all(r["rms_att_deg"] < 0.5 for r in rows)


@pytest.mark.parametrize("css_bias", [None, [165.0, 118.0, 88.0, 135.0, 210.0, 102.0]],
                         ids=["unbiased", "css_bias"])
def test_model_file_round_trips_byte_for_byte(tmp_path, catalog_logs, css_bias):
    # the typed provenance writes back the keys it was read from, in their
    # order, and an unbiased model writes no css_bias key at all
    r = run_case("C1a", "R1", catalog_logs, tmp_path, n=5, tc=TrainConfig(max_epochs=2),
                 css_bias=css_bias)
    path = tmp_path / r.model_path
    params, nc, prov, _ = load_model(path)
    save_model(params, nc, tmp_path / "again.bin", prov)
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()
    assert (b'"css_bias"' in path.read_bytes()) == (css_bias is not None)


def test_timeseries_export(tmp_path, catalog_logs):
    r = run_case("C1e", "R1", catalog_logs, n=5, outdir=tmp_path, tc=FAST_TC)
    params, nc, prov, _ = load_model(tmp_path / r.model_path)
    case = case_spec("C1e")
    series = timeseries_rows(params, nc, case, catalog_logs[4], prov.gyro_scale)
    assert all(len(x) == 362 for x in series.values())
    att = series["att_err_deg"]
    # first n-1 steps have no prediction
    assert np.isnan(att[:4]).all()
    assert not np.isnan(att[4:]).any()
    assert (att[4:] >= 0.0).all()
    p = tmp_path / "series.csv"
    write_series_csv(p, series)
    text = p.read_text()
    lines = text.splitlines()
    assert lines[0] == "t,att_err_deg,sun_err_deg,mag_err_deg,earth_err_deg"
    assert len(lines) == 363
    assert "nan" not in text.lower()
    assert lines[1].startswith("0,,")  # gap cells are empty, not NaN


def test_timeseries_alignment():
    # no prediction exists before step n-1: 358 of 362 steps are filled, and
    # a constant-output net gives one attitude error per label
    from attlab.convnet import NetParams
    from attlab.features import attitude_labels
    from attlab.rotations import rotation_angle_deg

    log = synth_pass(default_catalog()[0])
    case = case_spec("C1a")
    nc = NetConfig(n=5, channels=case.channel_count, seed=1)
    att = timeseries_rows(init_params(nc), nc, case, log, gyro_scale=None)["att_err_deg"]
    assert np.isnan(att[:4]).all()
    assert np.isfinite(att[4:]).all() and len(att[4:]) == 358
    p0 = init_params(nc)
    params = NetParams([np.zeros_like(w) for w in p0.weights],
                       [np.zeros_like(b) for b in p0.biases])
    params.biases[3][:] = [0.1, 0.0, 0.0]
    att0 = timeseries_rows(params, nc, case, log, gyro_scale=None)["att_err_deg"]
    labels = attitude_labels(log)[4:]
    expected = rotation_angle_deg(np.tile([0.1, 0.0, 0.0], (358, 1)), labels)
    assert np.array_equal(att0[4:], expected)


def test_timeseries_perfect_model_zero_error():
    # constant-attitude zero-error pass + constant-output net that emits the
    # exact truth label: the exported attitude error is ~0 throughout
    import dataclasses

    from attlab.convnet import NetParams
    from attlab.features import attitude_labels
    from attlab.synth import Maneuver

    sc = default_catalog(errors=SensorErrors(css_gain=(1000.0,) * 6))[0]
    sc = dataclasses.replace(sc, maneuver=Maneuver(magnitude_deg=0.0))
    log = synth_pass(sc)
    label = attitude_labels(log)[0]
    case = case_spec("C1a")
    nc = NetConfig(n=5, channels=case.channel_count, seed=0)
    p0 = init_params(nc)
    params = NetParams([np.zeros_like(w) for w in p0.weights],
                       [np.zeros_like(b) for b in p0.biases])
    params.biases[3][:] = label
    att = timeseries_rows(params, nc, case, log, gyro_scale=None)["att_err_deg"]
    assert np.nanmax(att) < 1e-9


def test_raw_profile_export(tmp_path, catalog_logs):
    p = tmp_path / "raw.csv"
    write_raw_profile_csv(catalog_logs[0], p)
    lines = p.read_text().splitlines()
    assert lines[0] == "t,css0,css1,css2,css3,css4,css5,mag0,mag1,mag2"
    assert lines[0].split(",") == CSV_COLUMNS.split(",")[:10]
    assert len(lines) == 363
