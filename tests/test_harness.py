import json

import numpy as np
import pytest

from attlab.cases import case_spec
from attlab.convnet import NetConfig, TrainConfig, init_params, load_model
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
    write_raw_profile_csv,
    write_timeseries_csv,
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
    assert row.min_train == 0.7
    assert row.min_test == 3.0
    assert row.combined == pytest.approx(3.7)


def test_aggregate_excludes_flagged_runs_from_min():
    # the flagged 3.8 is smaller than the min but must not win
    rs = [fake_result("C2a", "R1", 6.4, 8.6, False),
          fake_result("C2a", "R2", 7.0, 7.6, False),
          fake_result("C2a", "R3", 3.8, 10.0, True)]
    row = aggregate_case("C2a", rs)
    assert row.min_train == 6.4
    assert row.min_test == 7.6
    assert row.combined == pytest.approx(14.0)


def test_aggregate_all_flagged_reports_unavailable():
    rs = [fake_result("C4f", s, 3.0 + i, 7.0 + i, True)
          for i, s in enumerate(("R1", "R2", "R3"))]
    row = aggregate_case("C4f", rs)
    assert row.min_train is None and row.min_test is None and row.combined is None
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
    assert row.min_train == 1.0 and row.min_test == 4.0
    assert row.train == [3.0, 2.0, 1.0]  # presented in R1, R2, R3 order


def test_table_header_structure():
    rs = [fake_result("C1a", s, 1.0, 2.0, False) for s in ("R1", "R2", "R3")]
    (table,) = group_tables([aggregate_case("C1a", rs)])
    header = render_table_csv(table).splitlines()[0]
    assert tuple(header.split(",")) == ("case", "train_R1", "train_R2", "train_R3",
                                        "min_train(I)", "test_R1", "test_R2", "test_R3",
                                        "min_test(II)", "(I)+(II)")


def test_run_case_deterministic(catalog_logs):
    a = run_case("C1a", "R1", catalog_logs, n=5, tc=FAST_TC)
    b = run_case("C1a", "R1", catalog_logs, n=5, tc=FAST_TC)
    assert a == b
    assert a.train_rms_deg > 0.0 and np.isfinite(a.test_rms_deg)


def test_run_case_persists_artifacts(tmp_path, catalog_logs):
    r = run_case("C1a", "R1", catalog_logs, n=5, outdir=tmp_path, tc=FAST_TC)
    assert r.model_path == "C1a_R1/model.bin"  # relative to the output dir
    params, nc, prov = load_model(tmp_path / r.model_path)
    assert prov["case_id"] == "C1a"
    assert prov["gyro_scale"] == r.gyro_scale
    assert prov["train_pass_ids"] == ["P1", "P2", "P3", "P4"]
    assert (tmp_path / "C1a_R1" / "history.csv").exists()
    saved = json.loads((tmp_path / "C1a_R1" / "result.json").read_text())
    assert saved["train_rms_deg"] == r.train_rms_deg


def test_run_case_rejects_wrong_pass_count(catalog_logs):
    with pytest.raises(ValueError):
        run_case("C1a", "R1", catalog_logs[:3], tc=FAST_TC)


def test_run_matrix_shape_and_resume(tmp_path, catalog_dir):
    _, paths = catalog_dir
    out = tmp_path / "m1"
    tables, results = run_matrix(paths, ["C1a", "C4f"], seeds=("R1",), n=5,
                                 outdir=out, tc=FAST_TC)
    assert len(results) == 2
    assert [t.title for t in tables][0].startswith("Case family C1")
    rep = write_matrix_reports(tables, results, out, meta={"seeds": ["R1"]})
    md1 = open(rep["markdown"]).read()
    # resume: delete nothing, rerun -> identical bytes
    tables2, results2 = run_matrix(paths, ["C1a", "C4f"], seeds=("R1",), n=5,
                                   outdir=out, resume=True, tc=FAST_TC)
    rep2 = write_matrix_reports(tables2, results2, out, meta={"seeds": ["R1"]})
    assert open(rep2["markdown"]).read() == md1
    assert results2 == results


def test_run_matrix_rejects_empty_cases(catalog_dir):
    _, paths = catalog_dir
    with pytest.raises(ValueError):
        run_matrix(paths, [], tc=FAST_TC)


def test_triad_baseline_report_biased(catalog_logs):
    rows = triad_baseline_report(catalog_logs)
    assert [r["priority"] for r in rows] == ["sun", "mag"]
    a, b = rows[0]["rms_att_deg"], rows[1]["rms_att_deg"]
    assert a > 1.0 and b > 1.0
    assert abs(a - b) / max(a, b) < 0.15
    # sensor-direction errors identical across priorities
    assert rows[0]["rms_sun_deg"] == rows[1]["rms_sun_deg"]
    csv = render_baseline_csv(rows)
    assert csv.splitlines()[0].startswith("priority,rms_att_deg")
    assert rows[0]["solved_steps"] + rows[0]["skipped_steps"] == 5 * 362


def test_triad_baseline_zero_error_catalog():
    logs = [synth_pass(sc) for sc in
            default_catalog(errors=SensorErrors(css_gain=(1000.0,) * 6))]
    rows = triad_baseline_report(logs)
    assert all(r["rms_att_deg"] < 0.5 for r in rows)


def test_timeseries_export(tmp_path, catalog_logs):
    r = run_case("C1e", "R1", catalog_logs, n=5, outdir=tmp_path, tc=FAST_TC)
    params, nc, prov = load_model(tmp_path / r.model_path)
    case = case_spec("C1e")
    rows = timeseries_rows(params, nc, case, catalog_logs[4], prov["gyro_scale"])
    assert len(rows) == 362
    # first n-1 steps have no prediction
    assert all(rows[k]["att_err_deg"] is None for k in range(4))
    assert all(rows[k]["att_err_deg"] is not None for k in range(4, 362))
    assert all(r["att_err_deg"] >= 0.0 for r in rows if r["att_err_deg"] is not None)
    p = tmp_path / "series.csv"
    write_timeseries_csv(rows, p)
    text = p.read_text()
    lines = text.splitlines()
    assert lines[0] == "t,att_err_deg,sun_err_deg,mag_err_deg,earth_err_deg"
    assert len(lines) == 363
    assert "nan" not in text.lower()
    assert lines[1].startswith("0,,")  # gap cells are empty, not NaN


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
    rows = timeseries_rows(params, nc, case, log, gyro_scale=None)
    att = [r["att_err_deg"] for r in rows if r["att_err_deg"] is not None]
    assert max(att) < 1e-9


def test_raw_profile_export(tmp_path, catalog_logs):
    p = tmp_path / "raw.csv"
    write_raw_profile_csv(catalog_logs[0], p)
    lines = p.read_text().splitlines()
    assert lines[0] == "t,css0,css1,css2,css3,css4,css5,mag0,mag1,mag2"
    assert len(lines) == 363
