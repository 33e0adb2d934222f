"""The whole-pass text writers against per-row reference formatting, and
the JSON dict reader."""

import dataclasses
import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from attlab.cases import case_spec
from attlab.convnet import NetConfig, NetParams, TrainConfig, init_params
from attlab.errors import DataIntegrityError
from attlab.features import (
    SENSOR_MODELS,
    attitude_labels,
    build_frames,
    sensor_errors_deg,
)
from attlab.harness import timeseries_rows
from attlab.passlog import (
    CSV_COLUMNS,
    from_dict,
    read_manifest,
    read_passlog,
    write_csv,
    write_json,
    write_passlog,
    write_series_csv,
)
from attlab.synth import Maneuver, Scenario, SensorErrors, default_catalog, synth_pass
from attlab.triad import triad_pass_eval


def reference_csv(header, columns):
    """Per-row formatting as the writers did it before ``write_csv``.

    ``columns`` is a list of ``(block, kind)``; an ``int`` block prints
    ``str(int(v))``, a ``float`` block ``repr(float(v))`` or an empty cell
    for NaN.
    """
    blocks = [(np.asarray(b).reshape(len(b), -1), kind) for b, kind in columns]
    lines = [header]
    for k in range(len(blocks[0][0])):
        cells = []
        for block, kind in blocks:
            for v in block[k]:
                if kind == "int":
                    cells.append(str(int(v)))
                else:
                    cells.append("" if np.isnan(v) else repr(float(v)))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def pass_columns(log):
    return ([(log.t, "int"), (log.css, "int"), (log.mag, "int")]
            + [(x, "float") for x in (log.w, log.uS_i, log.uB_i, log.r_km, log.q_true)])


def test_write_passlog_matches_per_row_reference(tmp_path):
    log = synth_pass(default_catalog()[0])
    assert log.css.dtype == np.int64 and log.mag.dtype == np.int64
    a = tmp_path / "a.csv"
    write_passlog(log, a)
    assert a.read_bytes() == reference_csv(CSV_COLUMNS, pass_columns(log))

    # read back, the counts are floats; the bytes must not change
    back = read_passlog(a)
    assert back.css.dtype == np.float64
    b = tmp_path / "b.csv"
    write_passlog(back, b)
    assert b.read_bytes() == reference_csv(CSV_COLUMNS, pass_columns(back))
    assert b.read_bytes() == a.read_bytes()
    assert (b.with_name("b.manifest.json").read_bytes()
            == a.with_name("a.manifest.json").read_bytes())


def test_write_triad_series_matches_reference_with_collinear_gaps(tmp_path):
    log = synth_pass(default_catalog()[0])
    frames = build_frames(log)
    ok = frames.avail["uS_c"] & frames.avail["uB_m"]
    rows = np.flatnonzero(ok)[[0, 1, 100, 200]]
    frames.groups["uB_m"][rows] = frames.groups["uS_c"][rows]
    ev = triad_pass_eval(frames, attitude_labels(log), "sun")
    assert ev.skip_reasons["collinear"] == len(rows)
    # the series the baseline report writes: t, TRIAD's error, then the
    # sensor errors
    series = {"t": log.t.astype(np.int64), "att_err_deg": ev.att_err_deg,
              **sensor_errors_deg(frames, log.q_true, np.arange(362), SENSOR_MODELS[:2])}
    assert list(series) == ["t", "att_err_deg", "sun_err_deg", "mag_err_deg"]
    assert np.isnan(series["att_err_deg"][rows]).all()
    p = tmp_path / "triad.csv"
    write_series_csv(p, series)
    expected = reference_csv("t,att_err_deg,sun_err_deg,mag_err_deg",
                             [(series["t"], "int")]
                             + [(series[key], "float") for key in list(series)[1:]])
    assert p.read_bytes() == expected


def test_write_timeseries_matches_reference_with_leading_gap(tmp_path):
    sc = default_catalog(errors=SensorErrors(css_gain=(1000.0,) * 6))[0]
    log = synth_pass(dataclasses.replace(sc, maneuver=Maneuver(magnitude_deg=0.0)))
    case = case_spec("C1a")
    nc = NetConfig(n=5, channels=case.channel_count, seed=0)
    p0 = init_params(nc)
    params = NetParams([np.zeros_like(w) for w in p0.weights],
                       [np.zeros_like(b) for b in p0.biases])
    params.biases[3][:] = attitude_labels(log)[0]
    series = timeseries_rows(params, nc, case, log, gyro_scale=None)
    header = "t,att_err_deg,sun_err_deg,mag_err_deg,earth_err_deg"
    assert list(series) == header.split(",")
    assert series["t"].dtype == np.int64
    for key in list(series)[1:]:
        assert np.isnan(series[key][:nc.n - 1]).all()
    p = tmp_path / "errors.csv"
    write_series_csv(p, series)
    expected = reference_csv(header, [(series["t"], "int")]
                             + [(series[key], "float") for key in list(series)[1:]])
    assert p.read_bytes() == expected


def test_write_csv_blocks_and_json(tmp_path):
    t = np.arange(3, dtype=np.int64)
    x = np.array([[0.1, -0.0], [np.nan, 1e-300], [2.5, np.inf]])
    p = write_csv(tmp_path / "x.csv", "t,a,b", [t, x])
    assert p.read_bytes() == b"t,a,b\n0,0.1,-0.0\n1,,1e-300\n2,2.5,inf\n"
    j = write_json(tmp_path / "x.json", {"b": [1, 2], "a": None})
    assert j.read_bytes() == b'{\n  "a": null,\n  "b": [\n    1,\n    2\n  ]\n}\n'


def test_from_dict_passes_scalars_through_unconverted():
    tc = from_dict(TrainConfig, {"lr": 1, "max_epochs": 3}, "cfg.json")
    assert tc == TrainConfig(lr=1, max_epochs=3)
    assert type(tc.lr) is int  # an int is a float, but is not converted
    sc = default_catalog()[0]
    assert from_dict(Scenario, dataclasses.asdict(sc), "scenario") == sc


@pytest.mark.parametrize("cls, d, named", [
    (TrainConfig, {"lr": "0.01"}, "'lr' must be float"),
    (TrainConfig, {"max_epochs": True}, "'max_epochs' must be int"),
    (TrainConfig, {"lr": False}, "'lr' must be float"),
    (TrainConfig, {"max_epochs": 3.0}, "'max_epochs' must be int"),
    (TrainConfig, {"max_epochs": None}, "'max_epochs' must be int"),
    (TrainConfig, {"max_epoch": 3}, "unknown key 'max_epoch'"),
    (SensorErrors, {"css_gain": 1.0}, "'css_gain' must be a list"),
    (Scenario, {**dataclasses.asdict(default_catalog()[0]), "force_eclipse": 1},
     "'force_eclipse' must be bool"),
    (Scenario, {**dataclasses.asdict(default_catalog()[0]), "pass_id": 7},
     "'pass_id' must be str"),
    (Scenario, {**dataclasses.asdict(default_catalog()[0]), "maneuver": {"start_s": "60"}},
     "cfg.json maneuver: key 'start_s' must be float"),
])
def test_from_dict_rejects_wrong_types_naming_the_key(cls, d, named):
    with pytest.raises(ValueError) as ei:
        from_dict(cls, d, "cfg.json")
    assert named in str(ei.value) and str(ei.value).startswith("cfg.json")


def test_pass_id_from_manifest_else_path(tmp_path):
    log = synth_pass(default_catalog()[1])
    csv, _ = write_passlog(log, tmp_path / "a.csv")
    assert read_manifest(csv)[1] == "P2" == read_passlog(csv).pass_id
    bare = tmp_path / "bare.csv"
    shutil.copy(csv, bare)
    assert read_manifest(bare) == ({}, "bare")
    assert read_passlog(bare).pass_id == "bare"


@pytest.mark.parametrize("key, flags", [
    ("sunlit", [1] * 361),
    ("sunlit", [1] * 363),
    ("sunlit", [1] * 361 + [2]),
    ("sunlit", None),
    ("mag_saturated", [0] * 361 + [True]),
    ("mag_saturated", [0] * 361 + [0.0]),
    ("mag_saturated", "0" * 362),
])
def test_read_passlog_rejects_bad_flags(tmp_path, key, flags):
    csv, manifest_path = write_passlog(synth_pass(default_catalog()[0]), tmp_path / "a.csv")
    manifest = json.loads(Path(manifest_path).read_text())
    manifest[key] = flags
    write_json(manifest_path, manifest)
    with pytest.raises(DataIntegrityError) as ei:
        read_passlog(csv)
    assert str(ei.value).startswith(f"{manifest_path}: key {key!r}")


def _set_errors(**errors):
    """An edit of a pass manifest that updates its ``scenario.errors``."""
    return lambda m: m["scenario"]["errors"].update(errors)


@pytest.mark.parametrize("edit, named", [
    pytest.param(lambda m: m["scenario"]["errors"].pop("mag_ref"),
                 "scenario.errors: missing key 'mag_ref'", id="no-mag_ref"),
    pytest.param(_set_errors(mag_ref=[32768.0, 32768.0]), "scenario.errors: key 'mag_ref'",
                 id="mag_ref-two"),
    pytest.param(_set_errors(mag_ref=[1.0, 2.0, "3"]), "scenario.errors: key 'mag_ref'",
                 id="mag_ref-text"),
    pytest.param(_set_errors(mag_ref=[1.0, 2.0, float("nan")]),
                 "scenario.errors: key 'mag_ref'", id="mag_ref-nan"),
    pytest.param(_set_errors(mag_ref=32768.0), "scenario.errors: key 'mag_ref'",
                 id="mag_ref-scalar"),
    pytest.param(_set_errors(mag_scale=0),
                 "scenario.errors: key 'mag_scale' must be positive", id="mag_scale-0"),
    pytest.param(_set_errors(mag_scale=-8000.0),
                 "scenario.errors: key 'mag_scale' must be positive", id="mag_scale-negative"),
    pytest.param(_set_errors(mag_scale=float("inf")),
                 "scenario.errors: key 'mag_scale' must be finite", id="mag_scale-inf"),
    pytest.param(_set_errors(mag_scale=True),
                 "scenario.errors: key 'mag_scale' must be float", id="mag_scale-bool"),
    # the rest of scenario.errors follows the rules of synth --config errors
    pytest.param(_set_errors(css_gain=[1000.0] * 5),
                 "scenario.errors: key 'css_gain'", id="css_gain-five"),
    pytest.param(_set_errors(css_noise=-1),
                 "scenario.errors: key 'css_noise' must be non-negative",
                 id="css_noise-negative"),
    pytest.param(_set_errors(css_gian=[1000.0] * 6),
                 "scenario.errors: unknown key 'css_gian'", id="errors-unknown-key"),
    pytest.param(lambda m: m["scenario"].update(errors=None),
                 "scenario.errors: expected an object", id="errors-null"),
    pytest.param(lambda m: m.update(scenario=[]), "'scenario'", id="scenario-list"),
    pytest.param(lambda m: m.update(pass_id=None), "'pass_id'", id="pass_id-null"),
    *(pytest.param(lambda m, v=v: m.update(pass_id=v),
                   "key 'pass_id' must be a string that names a file", id=f"pass_id-{name}")
      for name, v in (("parent", "../x"), ("slash", "a/b"), ("empty", ""),
                      ("dotdot", ".."))),
])
def test_read_passlog_rejects_bad_manifest_keys(tmp_path, edit, named):
    csv, manifest_path = write_passlog(synth_pass(default_catalog()[0]), tmp_path / "a.csv")
    manifest = json.loads(Path(manifest_path).read_text())
    edit(manifest)
    Path(manifest_path).write_text(json.dumps(manifest))
    with pytest.raises(DataIntegrityError) as ei:
        read_passlog(csv)
    assert str(ei.value).startswith(f"{manifest_path}: ") and named in str(ei.value)


def test_read_passlog_manifest_without_sensor_config(tmp_path):
    # an int mag_scale is a number; a manifest without scenario errors, or
    # none at all, reads, and build_frames then names the pass
    log = synth_pass(default_catalog()[0])
    csv, manifest_path = write_passlog(log, tmp_path / "a.csv")
    manifest = json.loads(Path(manifest_path).read_text())
    manifest["scenario"]["errors"]["mag_scale"] = 8000
    write_json(manifest_path, manifest)
    assert read_passlog(csv).manifest["scenario"]["errors"]["mag_scale"] == 8000
    write_json(manifest_path, {"pass_id": "P9"})
    with pytest.raises(ValueError, match="pass P9: manifest carries no sensor config"):
        build_frames(read_passlog(csv))
    Path(manifest_path).unlink()
    with pytest.raises(ValueError) as ei:
        build_frames(read_passlog(csv))
    assert str(ei.value).startswith("pass a: manifest carries no sensor config")


def test_read_passlog_flags_optional_and_kept(tmp_path):
    log = synth_pass(default_catalog()[0])
    csv, manifest_path = write_passlog(log, tmp_path / "a.csv")
    assert read_passlog(csv).manifest["sunlit"] == log.manifest["sunlit"]
    manifest = json.loads(Path(manifest_path).read_text())
    del manifest["sunlit"], manifest["mag_saturated"]
    write_json(manifest_path, manifest)
    assert "sunlit" not in read_passlog(csv).manifest


def _set_cell(lines, step, column, value):
    """``lines`` with the cell of ``column`` at ``step`` replaced."""
    cells = lines[step + 1].split(",")
    cells[CSV_COLUMNS.split(",").index(column)] = value
    return lines[:step + 1] + [",".join(cells)] + lines[step + 2:]


@pytest.mark.parametrize("corrupt, named", [
    (lambda lines: lines[:100], ["pass has 99 records, expected 362"]),
    (lambda lines: lines[:1], ["pass has 0 records, expected 362"]),
    (lambda lines: lines[:21] + lines[22:], ["column t", "step 20"]),
    (lambda lines: _set_cell(lines, 30, "t", "31"), ["column t", "step 30"]),
    (lambda lines: _set_cell(lines, 5, "css4", "-3"), ["column css4", "step 5"]),
    (lambda lines: _set_cell(lines, 6, "css2", "12.5"), ["column css2", "step 6"]),
    (lambda lines: _set_cell(lines, 7, "mag1", "0.5"), ["column mag1", "step 7"]),
    (lambda lines: _set_cell(lines, 8, "qw", "3.0"), ["qx,qy,qz,qw", "step 8"]),
    (lambda lines: _set_cell(lines, 9, "w1", "abc"), ["column w1", "step 9"]),
    (lambda lines: lines[:21] + [lines[21].rsplit(",", 1)[0]] + lines[22:],
     ["column qw", "step 20"]),
    (lambda lines: lines[:21] + [lines[21] + ",1"] + lines[22:], ["column qw", "step 20"]),
], ids=["99-records", "header-only", "missing-step", "repeated-time", "negative-css",
        "fractional-css", "fractional-mag", "off-unit-quaternion", "text-cell",
        "short-row", "long-row"])
def test_read_passlog_errors_name_file_column_and_step(tmp_path, corrupt, named):
    csv, _ = write_passlog(synth_pass(default_catalog()[0]), tmp_path / "a.csv")
    lines = Path(csv).read_text().splitlines()
    Path(csv).write_text("\n".join(corrupt(lines)) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        with pytest.raises(DataIntegrityError) as ei:
            read_passlog(csv)
    msg = str(ei.value)
    assert msg.startswith(f"{csv}: ")
    for part in named:
        assert part in msg
