"""The whole-pass text writers against per-row reference formatting, and
the JSON dict reader."""

import dataclasses
import hashlib
import json
import re
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
from attlab.cli import main
from attlab.passlog import (
    CSV_COLUMNS,
    RECORDS_MAGIC,
    from_dict,
    manifest_path_for,
    read_manifest,
    read_passlog,
    records_path_for,
    to_dict,
    write_csv,
    write_json,
    write_passlog,
    write_series_csv,
)
from attlab.synth import (
    Maneuver,
    Scenario,
    SensorErrors,
    default_catalog,
    eclipse_variant,
    synth_pass,
)
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
     "cfg.json: maneuver: key 'start_s' must be float"),
])
def test_from_dict_rejects_wrong_types_naming_the_key(cls, d, named):
    with pytest.raises(ValueError) as ei:
        from_dict(cls, d, "cfg.json")
    assert named in str(ei.value) and str(ei.value).startswith("cfg.json")


def test_pass_id_from_manifest_only(tmp_path):
    log = synth_pass(default_catalog()[1])
    csv, manifest_path = write_passlog(log, tmp_path / "a.csv")
    assert read_manifest(csv)[0].pass_id == "P2" == read_passlog(csv).pass_id
    assert read_passlog(csv).manifest.scenario.pass_id == "P2"
    # a CSV without its manifest has no pass id, whatever its file's name
    bare = tmp_path / "P2.csv"
    shutil.copy(csv, bare)
    for read in (read_manifest, read_passlog):
        with pytest.raises(DataIntegrityError) as ei:
            read(bare)
        assert str(ei.value) == (f"{bare}: cannot read its manifest "
                                 f"{manifest_path_for(bare)}: No such file or directory")


def test_read_passlog_keeps_the_digests_of_the_bytes_it_parsed(written_pass):
    def sha256(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    csv, bare = written_pass
    manifest = Path(manifest_path_for(csv))
    for path in (csv, bare):  # from the records file, and parsed
        log = read_passlog(path)
        assert (log.csv_path, log.csv_sha256, log.manifest_sha256) == (
            str(path), sha256(path), sha256(manifest))
        assert log.input_hashes() == {str(path): sha256(path),
                                      manifest_path_for(path): sha256(manifest)}
    Path(manifest_path_for(bare)).unlink()
    with pytest.raises(DataIntegrityError, match=re.escape(manifest_path_for(bare))):
        read_passlog(bare)


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


def _set(path, value):
    """An edit of a pass manifest that sets the key at the dotted ``path``."""
    *outer, key = path.split(".")

    def edit(manifest):
        for k in outer:
            manifest = manifest[k]
        manifest[key] = value
    return edit


_JSON_VALUES = {"null": None, "text": "x", "list": [], "object": {}}
# Each manifest key, the JSON values above that are wrong for it (but for
# the ones with cases of their own below), and the text that names the key
# in the message
_WRONG_VALUES = {
    "pass_id": ("list object", "key 'pass_id'"),
    "seed": ("null text list object", "key 'seed'"),
    "scenario": ("null text object", "scenario"),
    "scenario_hash": ("null text list object", "key 'scenario_hash'"),
    "sunlit": ("null text list object", "key 'sunlit'"),
    "mag_saturated": ("null text list object", "key 'mag_saturated'"),
    "scenario.pass_id": ("null list object", "scenario: key 'pass_id'"),
    "scenario.orbit": ("null text list object", "scenario.orbit"),
    "scenario.epoch": ("null text list object", "scenario: key 'epoch'"),
    "scenario.q0": ("null text list object", "scenario: key 'q0'"),
    "scenario.maneuver": ("null text list", "scenario.maneuver"),
    "scenario.errors": ("text list object", "scenario.errors"),
    "scenario.seed": ("null text list object", "scenario: key 'seed'"),
    "scenario.force_eclipse": ("null text list object", "scenario: key 'force_eclipse'"),
}


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
    *(pytest.param(_set(path, _JSON_VALUES[name]), named, id=f"{path}-{name}")
      for path, (names, named) in _WRONG_VALUES.items() for name in names.split()),
    pytest.param(_set("seed", -5), "key 'seed' is -5, but its scenario gives",
                 id="seed-negative"),
    pytest.param(_set("scenario.seed", -5), "scenario: key 'seed' must be >= 0",
                 id="scenario.seed-negative"),
    pytest.param(_set("scenario.orbit", "garbage"), "scenario.orbit: expected an object",
                 id="scenario.orbit-garbage"),
    pytest.param(_set("scenario.q0", [0.0, 0.0, 1.0]), "scenario: key 'q0'",
                 id="scenario.q0-three"),
    pytest.param(_set("scenario_hash", "6E3E68F9A47BF89C"), "key 'scenario_hash'",
                 id="scenario_hash-upper"),
    pytest.param(_set("extra", 1), "unknown key 'extra'", id="unknown-key"),
    pytest.param(_set("scenario.epoch", 10 ** 400), "scenario: key 'epoch' must be finite",
                 id="scenario.epoch-past-float-range"),
    # a manifest's pass id, hash and seed are those of its scenario
    pytest.param(_set("pass_id", "P9"), "key 'pass_id' is 'P9', but its scenario gives 'P1'",
                 id="pass_id-disagrees"),
    pytest.param(lambda m: m.update(scenario_hash="0" * 16) or m["scenario"].update(seed=5),
                 "key 'scenario_hash' is '0000000000000000', but its scenario gives",
                 id="scenario_hash-and-seed-disagree"),
    pytest.param(_set("seed", 5), "key 'seed' is 5, but its scenario gives 20211218",
                 id="seed-disagrees"),
    pytest.param(_set("scenario.extra", 1), "scenario: unknown key 'extra'",
                 id="scenario.unknown-key"),
    # a scenario is a whole synth --config scenario, and carries its MAG
    # reference values, or Scenario's defaults would stand in for them
    pytest.param(lambda m: m.update(scenario={"errors": m["scenario"]["errors"]}),
                 "scenario: missing key 'pass_id'", id="scenario-only-errors"),
    pytest.param(lambda m: m["scenario"].pop("errors"),
                 "scenario.errors: missing key 'mag_ref'", id="scenario-no-errors"),
    # a pass id that cannot name a file, in the manifest and its scenario
    *(pytest.param(lambda m, v=v: m.update(pass_id=v) or m["scenario"].update(pass_id=v),
                   "key 'pass_id' must be a string that names a file", id=f"pass_id-{name}")
      for name, v in (("parent", "../x"), ("slash", "a/b"), ("empty", ""),
                      ("dotdot", ".."))),
    # every key is required
    *(pytest.param(lambda m, key=key: m.pop(key), f"missing key {key!r}", id=f"no-{key}")
      for key in ("pass_id", "seed", "scenario", "scenario_hash", "sunlit",
                  "mag_saturated")),
])
def test_read_passlog_rejects_bad_manifest_keys(tmp_path, edit, named):
    csv, manifest_path = write_passlog(synth_pass(default_catalog()[0]), tmp_path / "a.csv")
    manifest = json.loads(Path(manifest_path).read_text())
    edit(manifest)
    Path(manifest_path).write_text(json.dumps(manifest))
    with pytest.raises(DataIntegrityError) as ei:
        read_passlog(csv)
    assert str(ei.value).startswith(f"{manifest_path}: ") and named in str(ei.value)


@pytest.mark.parametrize("eclipse", [False, True], ids=["default", "eclipse"])
def test_read_then_write_passlog_keeps_every_byte(tmp_path, eclipse):
    scenarios = default_catalog()
    if eclipse:
        scenarios = [eclipse_variant(sc) for sc in scenarios]
    for sc in scenarios:
        a, _ = write_passlog(synth_pass(sc), tmp_path / "a.csv")
        b, _ = write_passlog(read_passlog(a), tmp_path / "b.csv")
        for path_for in (str, manifest_path_for, records_path_for):
            assert Path(path_for(b)).read_bytes() == Path(path_for(a)).read_bytes()


def test_read_passlog_manifest_without_sensor_config(tmp_path):
    # an int mag_scale is a number (the scenario then hashes differently);
    # a manifest without a scenario, which carries the sensor config, or
    # no manifest at all, is refused where the pass is read
    log = synth_pass(default_catalog()[0])
    csv, manifest_path = write_passlog(log, tmp_path / "a.csv")
    manifest = json.loads(Path(manifest_path).read_text())
    manifest["scenario"]["errors"]["mag_scale"] = 8000
    manifest["scenario_hash"] = from_dict(Scenario, manifest["scenario"], "scenario").hash()
    write_json(manifest_path, manifest)
    assert read_passlog(csv).manifest.scenario.errors.mag_scale == 8000
    del manifest["scenario"]
    write_json(manifest_path, manifest)
    with pytest.raises(DataIntegrityError) as ei:
        read_passlog(csv)
    assert str(ei.value) == f"{manifest_path}: missing key 'scenario'"
    Path(manifest_path).unlink()
    with pytest.raises(DataIntegrityError) as ei:
        read_passlog(csv)
    assert str(ei.value).startswith(f"{csv}: cannot read its manifest {manifest_path}: ")


def test_read_passlog_flags_required_and_kept(tmp_path):
    log = synth_pass(eclipse_variant(default_catalog()[0]))
    csv, manifest_path = write_passlog(log, tmp_path / "a.csv")
    manifest = read_passlog(csv).manifest
    assert not manifest.sunlit.any()
    for key in ("sunlit", "mag_saturated"):
        assert np.array_equal(getattr(manifest, key), getattr(log.manifest, key))
    # without its flags, a pass would count every measured step as usable
    for key in ("sunlit", "mag_saturated"):
        edited = json.loads(Path(manifest_path).read_text())
        del edited[key]
        write_json(manifest_path, edited)
        with pytest.raises(DataIntegrityError) as ei:
            read_passlog(csv)
        assert str(ei.value) == f"{manifest_path}: missing key {key!r}"
        write_passlog(log, csv)


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


def _catalog_errors_config(tmp_path):
    path = tmp_path / "errors.json"
    path.write_text(json.dumps({"errors": {"css_noise": 3.0, "mag_noise": 40.0,
                                           "gyro_noise_dps": 0.02}}))
    return ["--config", str(path)]


@pytest.mark.parametrize("options", [
    lambda tmp_path: [],
    lambda tmp_path: ["--seed", "7"],
    lambda tmp_path: ["--eclipse"],
    _catalog_errors_config,
], ids=["default", "seed-7", "eclipse", "errors-config"])
def test_records_file_holds_the_bits_loadtxt_reads(tmp_path, options):
    out = tmp_path / "cat"
    assert main(["synth", *options(tmp_path), "--out", str(out)]) == 0
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == 5
    for csv in csvs:
        raw = Path(records_path_for(csv)).read_bytes()
        body = raw[len(RECORDS_MAGIC) + 32:]
        assert raw[:len(RECORDS_MAGIC)] == RECORDS_MAGIC
        assert raw[len(RECORDS_MAGIC):len(RECORDS_MAGIC) + 32] == hashlib.sha256(
            csv.read_bytes() + body).digest()
        expected = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert body == expected.astype("<f8").tobytes()
        log = read_passlog(csv)
        assert np.hstack([log.t[:, None], log.css, log.mag, log.w, log.uS_i, log.uB_i,
                          log.r_km, log.q_true]).tobytes() == expected.tobytes()


def _no_parse(*args, **kwargs):
    raise AssertionError("the pass CSV was parsed")


def _same_log(a, b):
    """Whether two pass logs hold the same bits and manifest."""
    return a.pass_id == b.pass_id and to_dict(a.manifest) == to_dict(b.manifest) and all(
        getattr(a, k).tobytes() == getattr(b, k).tobytes()
        for k in ("t", "css", "mag", "w", "uS_i", "uB_i", "r_km", "q_true"))


@pytest.fixture
def written_pass(tmp_path):
    """A written catalog pass, and a copy of its CSV and manifest without a
    records file, whose read is the parse."""
    csv, manifest_path = write_passlog(synth_pass(default_catalog()[0]), tmp_path / "a.csv")
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(csv, bare / "a.csv")
    shutil.copy(manifest_path, bare / "a.manifest.json")
    return Path(csv), bare / "a.csv"


def test_read_passlog_takes_the_records_file(written_pass, monkeypatch):
    csv, bare = written_pass
    parsed = read_passlog(bare)
    monkeypatch.setattr(np, "loadtxt", _no_parse)
    assert _same_log(read_passlog(csv), parsed)
    with pytest.raises(AssertionError, match="was parsed"):
        read_passlog(bare)


def test_read_passlog_reads_an_edited_cell_from_the_text(written_pass):
    csv, _ = written_pass
    lines = csv.read_text().splitlines()
    before = read_passlog(csv).w[3, 0]
    csv.write_text("\n".join(_set_cell(lines, 3, "w0", "0.125")) + "\n")
    assert before != 0.125 and read_passlog(csv).w[3, 0] == 0.125


def _truncate(records, csv):
    records.write_bytes(records.read_bytes()[:-100])


def _wrong_magic(records, csv):
    raw = records.read_bytes()
    records.write_bytes(b"X" + raw[1:])


def _flip_body_byte(records, csv):
    raw = bytearray(records.read_bytes())
    raw[len(RECORDS_MAGIC) + 32 + 5000] ^= 0x01
    records.write_bytes(bytes(raw))


def _other_pass(records, csv):
    other, _ = write_passlog(synth_pass(default_catalog()[1]), csv.with_name("b.csv"))
    shutil.copy(records_path_for(other), records)


@pytest.mark.parametrize("damage", [_truncate, _wrong_magic, _flip_body_byte, _other_pass],
                         ids=["truncated", "wrong-magic", "flipped-body-byte", "other-pass"])
def test_read_passlog_parses_past_a_records_file_that_does_not_match(written_pass,
                                                                    monkeypatch, damage):
    csv, bare = written_pass
    damage(Path(records_path_for(csv)), csv)
    parses = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parses.append(1) or loadtxt(*a, **k))
    assert _same_log(read_passlog(csv), read_passlog(bare))
    assert len(parses) == 2


def test_read_passlog_reads_a_crlf_copy(written_pass, tmp_path):
    csv, bare = written_pass
    crlf = tmp_path / "crlf"
    crlf.mkdir()
    (crlf / "a.csv").write_bytes(csv.read_bytes().replace(b"\n", b"\r\n"))
    for f in (csv.with_name("a.manifest.json"), Path(records_path_for(csv))):
        shutil.copy(f, crlf / f.name)
    assert _same_log(read_passlog(crlf / "a.csv"), read_passlog(bare))


@pytest.mark.parametrize("with_records", [True, False], ids=["records", "no-records"])
def test_read_passlog_not_utf8_names_the_file(written_pass, with_records):
    csv = written_pass[0] if with_records else written_pass[1]
    raw = bytearray(csv.read_bytes())
    raw[2000] = 0xFF
    csv.write_bytes(bytes(raw))
    with pytest.raises(DataIntegrityError) as ei:
        read_passlog(csv)
    assert str(ei.value).startswith(f"{csv}: not UTF-8 text")


def _nan_w0(log):
    log.w[40, 0] = np.nan


def _long_uS(log):
    log.uS_i[7] *= 2.0


@pytest.mark.parametrize("damage, named", [
    (_nan_w0, "non-finite value in column w0 at step 40"),
    (_long_uS, "columns uSx,uSy,uSz are not a unit vector at step 7 (norm 2)"),
], ids=["nan-w0", "off-unit-uS"])
def test_write_passlog_refuses_what_the_reader_rejects(tmp_path, damage, named):
    log = synth_pass(default_catalog()[0])
    damage(log)
    with pytest.raises(DataIntegrityError, match=re.escape(named)):
        write_passlog(log, tmp_path / "a.csv")
    assert list(tmp_path.iterdir()) == []


def test_read_passlog_nan_cell_names_the_same_column_and_step_either_way(written_pass,
                                                                        monkeypatch):
    # a records file that matches a CSV with a "nan" cell, as no writer
    # leaves it, and the same CSV without one: both name the cell
    csv, bare = written_pass
    lines = csv.read_text().splitlines()
    text = "\n".join(_set_cell(lines, 40, "w0", "nan")) + "\n"
    body = np.loadtxt(text.splitlines()[1:], delimiter=",").astype("<f8").tobytes()
    csv.write_text(text)
    bare.write_text(text)
    Path(records_path_for(csv)).write_bytes(
        RECORDS_MAGIC + hashlib.sha256(text.encode() + body).digest() + body)
    messages = []
    for path in (bare, csv):
        with pytest.raises(DataIntegrityError) as ei:
            read_passlog(path)
        messages.append(str(ei.value).removeprefix(f"{path}: "))
        monkeypatch.setattr(np, "loadtxt", _no_parse)  # the second read takes the records
    assert messages == ["non-finite value in column w0 at step 40"] * 2


def test_read_passlog_reads_a_cr_copy(written_pass, tmp_path):
    csv, bare = written_pass
    cr = tmp_path / "cr"
    cr.mkdir()
    (cr / "a.csv").write_bytes(csv.read_bytes().replace(b"\n", b"\r"))
    shutil.copy(csv.with_name("a.manifest.json"), cr / "a.manifest.json")
    assert _same_log(read_passlog(cr / "a.csv"), read_passlog(bare))
