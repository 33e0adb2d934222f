import builtins
import dataclasses
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from attlab import cli, harness
from attlab.cli import main
from attlab.cases import case_spec
from attlab.convnet import NetConfig, init_params, load_model, save_model
from attlab.passlog import Scenario, from_dict, read_passlog
from attlab.synth import default_catalog


@pytest.fixture(scope="module")
def synth_out(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_synth")
    assert main(["synth", "--out", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def pass_args(synth_out):
    return [str(synth_out / f"P{k}.csv") for k in range(1, 6)]


FAST_CFG = {"max_epochs": 25}


@pytest.fixture(scope="module")
def fast_cfg_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "fast.json"
    p.write_text(json.dumps(FAST_CFG))
    return str(p)


@pytest.fixture(scope="module")
def two_epoch_cfg_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "two.json"
    p.write_text(json.dumps({"max_epochs": 2}))
    return str(p)


def test_synth_default_catalog(synth_out):
    for k in range(1, 6):
        log = read_passlog(synth_out / f"P{k}.csv")
        assert len(log.t) == 362
    manifest = json.loads((synth_out / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["tool_version"]
    # each pass's CSV, records file and manifest
    assert len(manifest["outputs"]) == 15
    assert str(synth_out / "P1.records") in manifest["outputs"]


def test_synth_seed_override_changes_hashes(tmp_path, synth_out):
    d = tmp_path / "seeded"
    assert main(["synth", "--out", str(d), "--seed", "999"]) == 0
    a = (synth_out / "P1.csv").read_bytes()
    b = (d / "P1.csv").read_bytes()
    assert a != b


def test_synth_eclipse_css_constant(tmp_path):
    d = tmp_path / "ecl"
    assert main(["synth", "--out", str(d), "--eclipse"]) == 0
    log = read_passlog(d / "P1e.csv")
    assert np.all(log.css == log.css[0])


def test_synth_rejects_bad_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 2


def _scenario_config(path, value):
    """A ``scenarios`` config holding the first catalog scenario with the key
    at the dotted ``path`` set to ``value``."""
    sc = dataclasses.asdict(default_catalog()[0])
    *outer, key = path.split(".")
    inner = sc
    for k in outer:
        inner = inner[k]
    inner[key] = value
    return json.dumps({"scenarios": [sc]})


@pytest.mark.parametrize("config, named", [
    ('{"scenarios": [{"pass_id": "X"}]}', "'orbit'"),
    ('{"errors": {"css_gian": [1]}}', "'css_gian'"),
    ('{"errors": [1]}', "errors"),
    ('[1]', "JSON object"),
    ('{"errors": {"css_noise": "x"}}', "'css_noise'"),
    ('{"base_sed": 7}', "'base_sed'"),
    ('{"base_seed": "7"}', "'base_seed'"),
    ('{"errors": {"css_gain": [1000.0]}}', "'css_gain'"),
    ('{"errors": {"mag_ref": [32768, 32768, true]}}', "'mag_ref'"),
    # json reads the bare NaN and Infinity literals
    ('{"errors": {"mag_scale": NaN}}', "'mag_scale'"),
    ('{"errors": {"css_noise": NaN}}', "'css_noise'"),
    ('{"errors": {"albedo_coeff": Infinity}}', "'albedo_coeff'"),
    ('{"errors": {"mag_noise": NaN}}', "'mag_noise'"),
    ('{"errors": {"mag_misalign_deg": -Infinity}}', "'mag_misalign_deg'"),
    ('{"errors": {"gyro_noise_dps": NaN}}', "'gyro_noise_dps'"),
    ('{"errors": {"css_bias": [0, 0, 0, NaN, 0, 0]}}', "'css_bias'"),
    ('{"errors": {"mag_hard_iron": [0, Infinity, 0]}}', "'mag_hard_iron'"),
    pytest.param(_scenario_config("errors.mag_scale", float("nan")), "'mag_scale'",
                 id="scenario-mag_scale-NaN"),
    ('{"base_seed": -1}', "'base_seed'"),
    pytest.param(json.dumps({"scenarios": [{**dataclasses.asdict(default_catalog()[0]),
                                            "seed": -4}]}),
                 "'seed'", id="scenario-seed-negative"),
    pytest.param(_scenario_config("orbit.a_km", float("nan")), "'a_km'",
                 id="scenario-a_km-NaN"),
    pytest.param(_scenario_config("maneuver.axis", []), "'axis'", id="scenario-axis-empty"),
    pytest.param(_scenario_config("maneuver.axis", [0, 0, 0]), "'axis'",
                 id="scenario-axis-zero"),
    pytest.param(_scenario_config("q0", [0, 0, 0, 0]), "'q0'", id="scenario-q0-zero"),
    pytest.param(_scenario_config("q0", [0, 0, 0, 10 ** 400]), "'q0'",
                 id="scenario-q0-past-float-range"),
])
def test_synth_config_key_error_exit_2(tmp_path, capsys, config, named):
    cfg = tmp_path / "bad.json"
    cfg.write_text(config)
    assert main(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert named in err and str(cfg) in err
    assert not (tmp_path / "x").exists()


def test_synth_infeasible_scenario_exit_3_makes_no_out(tmp_path, capsys):
    # every pass is synthesized before --out is made
    cfg = tmp_path / "slew.json"
    cfg.write_text(_scenario_config("maneuver.magnitude_deg", 500))
    out = tmp_path / "x"
    assert main(["synth", "--out", str(out), "--config", str(cfg)]) == 3
    assert "does not complete within the pass" in capsys.readouterr().err
    assert not out.exists()


def test_synth_negative_seed_option_exit_2(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["synth", "--out", str(out), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, argv, named", [
    ({"base_seed": 5}, [], "'base_seed'"),
    ({"errors": {"css_noise": 50.0}}, [], "'errors'"),
    ({}, ["--seed", "7"], "--seed"),
])
def test_synth_scenarios_reject_catalog_options(tmp_path, capsys, extra, argv, named):
    # a scenarios config replaces the catalog, so its seed and errors
    # options would be ignored
    cfg = tmp_path / "scenarios.json"
    cfg.write_text(json.dumps({"scenarios": [dataclasses.asdict(default_catalog()[0])],
                               **extra}))
    out = tmp_path / "x"
    assert main(["synth", "--out", str(out), "--config", str(cfg), *argv]) == 2
    err = capsys.readouterr().err
    assert named in err and str(cfg) in err
    assert not out.exists()


def test_triad_both_priorities(tmp_path, pass_args, capsys):
    d = tmp_path / "triad"
    assert main(["triad", *pass_args, "--out", str(d)]) == 0
    lines = (d / "triad_baseline.csv").read_text().splitlines()
    assert len(lines) == 3  # header + sun + mag
    header = lines[0].split(",")
    assert header[-3:] == ["skipped_steps", "unavailable", "collinear"]
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["priority=sun", "priority=mag"]
    for line, row in zip(out, lines[1:]):
        fields = dict(f.split("=") for f in line.split())
        assert int(fields["skipped"]) == int(fields["unavailable"]) + int(fields["collinear"])
        cells = dict(zip(header, row.split(",")))
        for key in ("unavailable", "collinear"):
            assert cells[key] == fields[key]
    assert (d / "triad_P1_sun.csv").exists()
    assert (d / "triad_P5_mag.csv").exists()


def test_triad_single_pass_ok(tmp_path, pass_args):
    d = tmp_path / "triad1"
    assert main(["triad", pass_args[0], "--priority", "sun", "--out", str(d)]) == 0
    lines = (d / "triad_baseline.csv").read_text().splitlines()
    assert len(lines) == 2


def test_triad_missing_file_exit_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["triad", str(tmp_path / "nope.csv"), "--out", str(out)]) == 2
    assert "nope.csv" in capsys.readouterr().err
    assert not out.exists()


def test_train_single_case(tmp_path, pass_args, fast_cfg_path, capsys):
    d = tmp_path / "train"
    rc = main(["train", *pass_args, "--case", "C1a", "--seed", "R1",
               "--window", "5", "--out", str(d), "--config", fast_cfg_path])
    assert rc == 0
    # the same per-cell progress line as ablate
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("cell case=C1a seed=R1 stop=max-epoch epochs=25 ")
    assert (d / "C1a_R1" / "model.bin").exists()
    assert (d / "C1a_R1" / "history.csv").exists()
    # the manifest sits beside the cell's outputs, not at the output root
    assert not (d / "run_manifest.json").exists()
    manifest = json.loads((d / "C1a_R1" / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "train"
    # the five pass CSVs and their manifests
    assert len(manifest["input_hashes"]) == 10
    assert manifest["seeds"] == {"seed": "R1"}
    # every file the cell holds besides the run manifest
    assert sorted(manifest["outputs"]) == sorted(
        str(f) for f in (d / "C1a_R1").iterdir() if f.name != "run_manifest.json")


def test_train_cell_reused_by_ablate_resume(tmp_path, pass_args, fast_cfg_path,
                                            monkeypatch, capsys):
    d = tmp_path / "cell"
    assert main(["train", *pass_args, "--case", "C4f", "--seed", "R2", "--out", str(d),
                 "--config", fast_cfg_path]) == 0
    cell = d / "C4f_R2"
    saved = {f.name: f.read_bytes() for f in cell.iterdir()}
    stamp = (cell / "model.bin").stat().st_mtime_ns
    capsys.readouterr()

    def no_training(*args, **kwargs):
        raise AssertionError("the train cell was trained again")

    monkeypatch.setattr("attlab.harness.run_case", no_training)
    assert main(["ablate", *pass_args, "--cases", "C4f", "--seeds", "R2", "--jobs", "1",
                 "--out", str(d), "--config", fast_cfg_path, "--resume"]) == 0
    assert {f.name: f.read_bytes() for f in cell.iterdir()} == saved
    assert (cell / "model.bin").stat().st_mtime_ns == stamp
    # the reused cell reports the epochs of its saved history
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("cell case=C4f seed=R2 stop=max-epoch epochs=25 ")
    report = json.loads((d / "ablation_report.json").read_text())
    assert report["runs"] == [json.loads((cell / "result.json").read_text())]
    # both runs keep their records: train's in the cell, ablate's at the root
    train_manifest = json.loads((cell / "run_manifest.json").read_text())
    assert train_manifest["subcommand"] == "train"
    assert train_manifest["resolved_config"]["train_config"]["max_epochs"] == 25
    assert json.loads((d / "run_manifest.json").read_text())["subcommand"] == "ablate"


def _export_and_test_rms(tmp_path, pass_args, case, *train_options):
    """Trains ``case`` for 5 epochs and exports the held-out pass; returns the
    RMS of the exported attitude errors, the cell's ``test_rms_deg`` and the
    model's provenance."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_epochs": 5}))
    d = tmp_path / "model"
    assert main(["train", *pass_args, "--case", case, "--out", str(d),
                 "--config", str(cfg), *train_options]) == 0
    model = d / f"{case}_R1" / "model.bin"
    assert main(["export", pass_args[4], "--model", str(model),
                 "--out", str(tmp_path / "e")]) == 0
    rows = (tmp_path / "e" / "errors_P5.csv").read_text().splitlines()[1:]
    att = np.array([float(c) for c in (r.split(",")[1] for r in rows) if c])
    test_rms = json.loads((d / f"{case}_R1" / "result.json").read_text())["test_rms_deg"]
    return float(np.sqrt(np.mean(np.square(att)))), test_rms, load_model(model)[2]


def test_export_series_pools_to_test_rms(tmp_path, pass_args):
    # one truth attitude per pass: the held-out pass's exported attitude
    # errors pool to the cell's test RMS, bit for bit
    exported, test_rms, provenance = _export_and_test_rms(tmp_path, pass_args, "C1f")
    assert exported == test_rms
    # trained without a CSS bias, the model records none
    assert provenance.css_bias is None


def test_export_applies_trained_css_bias(tmp_path, pass_args):
    # the model records the CSS bias it was trained with, and export
    # subtracts it again
    bias = "165,118,88,135,210,102"
    exported, test_rms, provenance = _export_and_test_rms(
        tmp_path, pass_args, "C1a", "--css-bias", bias)
    assert exported == test_rms
    assert provenance.css_bias == tuple(float(b) for b in bias.split(","))


def test_train_window_11_gives_352_windows(tmp_path, pass_args, fast_cfg_path):
    d = tmp_path / "train11"
    rc = main(["train", *pass_args, "--case", "C1a", "--window", "11",
               "--out", str(d), "--config", fast_cfg_path])
    assert rc == 0


def test_train_window_12_rejected(tmp_path, pass_args):
    d = tmp_path / "train12"
    rc = main(["train", *pass_args, "--case", "C1a", "--window", "12",
               "--out", str(d)])
    assert rc == 2


def test_train_wrong_pass_count_exit_2(tmp_path, pass_args):
    rc = main(["train", *pass_args[:3], "--case", "C1a", "--out", str(tmp_path)])
    assert rc == 2


@pytest.fixture(scope="module")
def eclipse_args(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_eclipse")
    assert main(["synth", "--out", str(d), "--eclipse"]) == 0
    return [str(d / f"P{k}e.csv") for k in range(1, 6)]


def test_train_infeasible_case_exit_3(tmp_path, eclipse_args, fast_cfg_path, capsys):
    rc = main(["train", *eclipse_args, "--case", "C3c", "--out", str(tmp_path / "m"),
               "--config", fast_cfg_path])
    assert rc == 0  # magnetometer-only case trains fine in eclipse
    # the manifests' sunlit flags mark the Sun vector unavailable, whether
    # or not the preflight bias estimate is subtracted
    rc = main(["train", *eclipse_args, "--case", "C1a", "--out", str(tmp_path / "m1"),
               "--config", fast_cfg_path])
    assert rc == 3
    assert "group uS_c unavailable" in capsys.readouterr().err
    manifest = Path(eclipse_args[0]).with_suffix(".manifest.json")
    bias = ",".join(str(v) for v in json.loads(manifest.read_text())
                    ["scenario"]["errors"]["css_bias"])
    rc = main(["train", *eclipse_args, "--case", "C1a", "--out", str(tmp_path / "m2"),
               "--config", fast_cfg_path, "--css-bias", bias])
    assert rc == 3


def test_triad_eclipse_solves_no_step(tmp_path, eclipse_args, capsys):
    d = tmp_path / "triad"
    assert main(["triad", *eclipse_args, "--out", str(d)]) == 0
    lines = (d / "triad_baseline.csv").read_text().splitlines()
    header = lines[0].split(",")
    for row in lines[1:]:
        cells = dict(zip(header, row.split(",")))
        assert cells["solved_steps"] == "0"
        assert cells["skipped_steps"] == cells["unavailable"] == str(5 * 362)
        # no step to pool: an empty cell, not "nan"
        assert cells["rms_att_deg"] == cells["rms_sun_deg"] == ""
        assert float(cells["rms_mag_deg"]) > 0.0
    for line in capsys.readouterr().out.splitlines():
        assert "rms_att_deg=nan rms_sun_deg=nan" in line
    rows = (d / "triad_P3e_mag.csv").read_text().splitlines()[1:]
    assert len(rows) == 362
    for k, row in enumerate(rows):
        t, att, sun, mag = row.split(",")
        assert (t, att, sun) == (str(k), "", "") and float(mag) >= 0.0


@pytest.mark.parametrize("argv", [["triad"], ["train", "--case", "C1a"]],
                         ids=["triad", "train"])
def test_eclipse_catalog_without_flags_exit_2(tmp_path, eclipse_args, fast_cfg_path, capsys,
                                              argv):
    # without its flags the eclipse catalog's Sun vectors would count as
    # measured: TRIAD would solve every step, and C1a would train
    passes = _copy_catalog(tmp_path, eclipse_args)
    for p in passes:
        manifest = Path(p).with_suffix(".manifest.json")
        data = json.loads(manifest.read_text())
        del data["sunlit"], data["mag_saturated"]
        manifest.write_text(json.dumps(data))
    config = ["--config", fast_cfg_path] if argv[0] == "train" else []
    out = tmp_path / "o"
    assert main([argv[0], *passes, *argv[1:], *config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{Path(passes[0]).with_suffix('.manifest.json')}: missing key 'sunlit'" in err
    assert not out.exists()


@pytest.mark.parametrize("bias", ["nan,0,0,0,0,0", "0,0,inf,0,0,0", "0,0,0,0,0,-inf",
                                  "0,0,0,0,0", "0,0,0,0,0,x"])
@pytest.mark.parametrize("command", ["triad", "train", "ablate"])
def test_css_bias_must_be_six_finite_counts(tmp_path, pass_args, capsys, command, bias):
    argv = [command, *pass_args, "--css-bias", bias, "--out", str(tmp_path / "o")]
    if command == "train":
        argv += ["--case", "C1a"]
    assert main(argv) == 2
    assert "--css-bias" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _copy_catalog(tmp_path, pass_args):
    """The catalog's pass CSVs and manifests, copied; returns the CSV paths."""
    d = tmp_path / "corrupt"
    d.mkdir()
    paths = []
    for src in pass_args:
        src = Path(src)
        for f in (src, src.with_suffix(".manifest.json")):
            shutil.copy(f, d / f.name)
        paths.append(str(d / src.name))
    return paths


def _corrupt_catalog(tmp_path, pass_args, pass_no, column, step, value):
    """Copy the catalog and overwrite one cell of one pass CSV."""
    paths = _copy_catalog(tmp_path, pass_args)
    target = Path(paths[pass_no - 1])
    lines = target.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[step + 1].split(",")
    cells[col] = value
    lines[step + 1] = ",".join(cells)
    target.write_text("\n".join(lines) + "\n")
    return paths


def test_train_rejects_nan_gyro_exit_2(tmp_path, pass_args, capsys):
    passes = _corrupt_catalog(tmp_path, pass_args, 2, "w0", 40, "nan")
    rc = main(["train", *passes, "--case", "C1a", "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "P2.csv" in err and "column w0" in err and "step 40" in err


def test_triad_rejects_bad_sunlit_flags_exit_2(tmp_path, pass_args, capsys):
    passes = _copy_catalog(tmp_path, pass_args)
    manifest = Path(passes[1]).with_suffix(".manifest.json")
    data = json.loads(manifest.read_text())
    data["sunlit"] = data["sunlit"][:-1]
    manifest.write_text(json.dumps(data))
    assert main(["triad", *passes, "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "'sunlit'" in err


def test_triad_rejects_off_unit_model_vector_exit_2(tmp_path, pass_args, capsys):
    passes = _corrupt_catalog(tmp_path, pass_args, 3, "uSx", 7, "2.0")
    rc = main(["triad", *passes, "--out", str(tmp_path / "t")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "P3.csv" in err and "uSx,uSy,uSz" in err and "step 7" in err


def _malformed(manifest, case):
    """The text of a pass manifest made malformed as ``case`` names."""
    errors = manifest["scenario"]["errors"]
    if case == "list":
        return json.dumps([manifest])
    if case == "invalid-json":
        return json.dumps(manifest)[:-1]
    if case == "no-mag_scale":
        del errors["mag_scale"]
    elif case == "text-mag_scale":
        errors["mag_scale"] = "abc"
    elif case == "int-pass_id":
        manifest["pass_id"] = 7
    elif case == "pass_id-disagrees":
        manifest["pass_id"] = "P9"
    elif case == "null-seed":
        manifest["seed"] = None
    elif case == "unknown-key":
        manifest["sead"] = 1
    return json.dumps(manifest)


@pytest.mark.parametrize("command", ["triad", "export", "ablate"])
@pytest.mark.parametrize("case, named", [
    ("list", "must be a JSON object"),
    ("invalid-json", "not valid JSON"),
    ("no-mag_scale", "scenario.errors: missing key 'mag_scale'"),
    ("text-mag_scale", "scenario.errors: key 'mag_scale' must be float"),
    ("int-pass_id", "key 'pass_id' must be str"),
    ("pass_id-disagrees", "key 'pass_id' is 'P9', but its scenario gives 'P1'"),
    ("null-seed", "key 'seed' must be int"),
    ("unknown-key", "unknown key 'sead'"),
], ids=["list", "invalid-json", "no-mag_scale", "text-mag_scale", "int-pass_id",
        "pass_id-disagrees", "null-seed", "unknown-key"])
def test_malformed_manifest_exit_2(tmp_path, pass_args, capsys, command, case, named):
    passes = _copy_catalog(tmp_path, pass_args)
    manifest = Path(passes[0]).with_suffix(".manifest.json")
    manifest.write_text(_malformed(json.loads(manifest.read_text()), case))
    argv = {"triad": ["triad", *passes],
            "export": ["export", passes[0], "--raw"],
            "ablate": ["ablate", *passes, "--cases", "C1a", "--seeds", "R1", "--jobs", "1"]}
    out = tmp_path / "o"
    assert main([*argv[command], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "triad", "train", "ablate"])
def test_repeated_pass_id_exit_2(tmp_path, pass_args, monkeypatch, capsys, command):
    if command == "synth":
        cfg = tmp_path / "twice.json"
        sc = dataclasses.asdict(default_catalog()[0])
        cfg.write_text(json.dumps({"scenarios": [sc, {**sc, "seed": 9}]}))
        argv = ["synth", "--config", str(cfg)]
    elif command == "triad":  # a copy of P1 in another directory keeps its pass id
        argv = ["triad", *pass_args, *_copy_catalog(tmp_path, pass_args[:1])]
    else:  # P1 would test a model it also trained; no pass is read first
        def no_reading(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "read_passlog", no_reading)
        case = ["--case", "C1a"] if command == "train" else ["--cases", "C1a"]
        argv = [command, *pass_args[:4], pass_args[0], *case]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'P1' is repeated" in err
    assert not out.exists()


@pytest.mark.parametrize("command, pass_id", [("synth", "../escaped"), ("triad", "a/b")])
def test_pass_id_not_a_file_name_exit_2(tmp_path, pass_args, capsys, command, pass_id):
    if command == "synth":
        source = tmp_path / "escape.json"
        sc = {**dataclasses.asdict(default_catalog()[0]), "pass_id": pass_id}
        source.write_text(json.dumps({"scenarios": [sc]}))
        argv = ["synth", "--config", str(source)]
    else:
        passes = _copy_catalog(tmp_path, pass_args)
        source = Path(passes[0]).with_suffix(".manifest.json")
        manifest = json.loads(source.read_text())
        source.write_text(json.dumps({**manifest, "pass_id": pass_id}))
        argv = ["triad", *passes]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(source) in err and "key 'pass_id'" in err
    assert not out.exists() and not (tmp_path / "escaped.csv").exists()


def _child_env(**env):
    """This process's environment plus ``env``, with this attlab first on
    ``PYTHONPATH``, for a child process."""
    return {**os.environ, **env,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH")]))}


def _renamed(manifest, pass_id):
    """A pass manifest's dict with ``pass_id`` as its pass id and its
    scenario's, and the scenario's hash to match."""
    sc = {**manifest["scenario"], "pass_id": pass_id}
    return {**manifest, "pass_id": pass_id, "scenario": sc,
            "scenario_hash": from_dict(Scenario, sc, "scenario").hash()}


def _c_locale_attlab(*argv):
    """``attlab argv`` in a child process under the C locale with UTF-8 mode
    off, where the locale's encoding is ASCII."""
    return subprocess.run([sys.executable, "-m", "attlab.cli", *map(str, argv)],
                          env=_child_env(LC_ALL="C", PYTHONUTF8="0"),
                          capture_output=True, text=True, errors="replace")


def test_utf8_json_read_under_c_locale(tmp_path, pass_args, fast_cfg_path):
    # a pass id outside ASCII, in UTF-8: first in the scenarios of a synth
    # config, given twice, so synth names it as repeated before it writes a
    # file of that name; then in a pass manifest that train reads
    sc = {**dataclasses.asdict(default_catalog()[0]), "pass_id": "P\u00e41"}
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(json.dumps({"scenarios": [sc, sc]}, ensure_ascii=False).encode())
    assert "P\u00e41".encode() in cfg.read_bytes()
    run = _c_locale_attlab("synth", "--config", cfg, "--out", tmp_path / "o")
    assert run.returncode == 2, run.stderr
    assert "pass_id 'P\\xe41' is repeated" in run.stderr
    assert "not valid JSON" not in run.stderr and not (tmp_path / "o").exists()

    passes = _copy_catalog(tmp_path, pass_args)
    manifest = Path(passes[4]).with_suffix(".manifest.json")
    data = _renamed(json.loads(manifest.read_text()), "P\u00e45")
    manifest.write_bytes(json.dumps(data, ensure_ascii=False).encode())
    run = _c_locale_attlab("train", *passes, "--case", "C1a", "--config", fast_cfg_path,
                           "--out", tmp_path / "cell")
    assert run.returncode == 0, run.stderr
    assert load_model(tmp_path / "cell" / "C1a_R1" / "model.bin")[2].test_pass_id == "P\u00e45"


def test_pass_id_the_file_system_cannot_encode_exit_2(tmp_path, pass_args):
    # under the C locale, file names are ASCII: synth, triad and export name
    # their outputs by pass id, so they reject this one before making --out
    cfg = tmp_path / "cfg.json"
    sc = {**dataclasses.asdict(default_catalog()[0]), "pass_id": "P\u00e41"}
    cfg.write_bytes(json.dumps({"scenarios": [sc]}, ensure_ascii=False).encode())
    passes = _copy_catalog(tmp_path, pass_args)
    manifest = Path(passes[0]).with_suffix(".manifest.json")
    data = _renamed(json.loads(manifest.read_text()), "P\u00e41")
    manifest.write_bytes(json.dumps(data, ensure_ascii=False).encode())
    for argv, source in [(["synth", "--config", cfg], f"{cfg}: scenarios[0]: key 'pass_id'"),
                         (["triad", *passes], f"{manifest}: key 'pass_id'"),
                         (["export", passes[0], "--raw"], f"{manifest}: key 'pass_id'")]:
        out = tmp_path / argv[0]
        run = _c_locale_attlab(*argv, "--out", out)
        assert run.returncode == 2, run.stderr
        assert source in run.stderr and "cannot name a file" in run.stderr
        assert not out.exists()


@pytest.mark.parametrize("with_records", [True, False], ids=["records", "no-records"])
def test_pass_csv_not_utf8_exit_2(tmp_path, pass_args, capsys, with_records):
    passes = _copy_catalog(tmp_path, pass_args)
    target = Path(passes[0])
    if with_records:
        shutil.copy(Path(pass_args[0]).with_suffix(".records"), target.with_suffix(".records"))
    raw = bytearray(target.read_bytes())
    raw[2000] = 0xFF
    target.write_bytes(bytes(raw))
    out = tmp_path / "o"
    assert main(["triad", *passes, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{target}: not UTF-8 text" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["triad", "train", "ablate", "export"])
def test_run_manifest_hashes_the_pass_manifests(tmp_path, pass_args, capsys, command):
    passes = _copy_catalog(tmp_path, pass_args)
    cfg = tmp_path / "fast.json"
    cfg.write_text(json.dumps({"max_epochs": 2}))
    # C4f reads no Sun vector, so a pass with one more eclipsed step still trains
    argv = {"triad": ["triad", *passes],
            "train": ["train", *passes, "--case", "C4f", "--config", str(cfg)],
            "ablate": ["ablate", *passes, "--cases", "C4f", "--seeds", "R1", "--jobs", "1",
                       "--config", str(cfg)],
            "export": ["export", passes[0], "--raw"]}[command]
    cell = "C4f_R1" if command == "train" else ""

    def input_hashes(out):
        assert main([*argv, "--out", str(out)]) == 0
        return json.loads((out / cell / "run_manifest.json").read_text())["input_hashes"]

    before = input_hashes(tmp_path / "before")
    manifest = Path(passes[0]).with_suffix(".manifest.json")
    data = json.loads(manifest.read_text())
    data["sunlit"][100] = 1 - data["sunlit"][100]
    manifest.write_text(json.dumps(data))
    after = input_hashes(tmp_path / "after")
    read = passes if command != "export" else passes[:1]
    assert set(before) == set(after) == {
        str(p) for csv in read for p in (csv, Path(csv).with_suffix(".manifest.json"))}
    assert [p for p in before if before[p] != after[p]] == [str(manifest)]


@pytest.mark.parametrize("command", ["synth", "train", "export"])
def test_run_manifest_records_peak_rss(tmp_path, pass_args, two_epoch_cfg_path, command):
    argv = {"synth": ["synth"],
            "train": ["train", *pass_args, "--case", "C4f", "--config", two_epoch_cfg_path],
            "export": ["export", pass_args[0], "--raw"]}[command]
    cell = "C4f_R1" if command == "train" else ""
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    rss = json.loads((tmp_path / "o" / cell / "run_manifest.json").read_text())["peak_rss_mib"]
    assert set(rss) == {"self", "children"}
    assert rss["self"] > 0 and rss["children"] >= 0


def test_run_manifest_peak_rss_null_without_resource(tmp_path, pass_args, monkeypatch):
    monkeypatch.setitem(sys.modules, "resource", None)  # so importing it fails
    assert main(["export", pass_args[0], "--raw", "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "run_manifest.json").read_text())["peak_rss_mib"] is None


_POOL_SCRIPT = """
import json, sys
from attlab.cli import main
out, cfg = sys.argv[1:]
passes = [f"{out}/cat/P{k}.csv" for k in range(1, 6)]
loaded = []
for argv in (["synth", "--out", f"{out}/cat"],
             ["triad", *passes, "--out", f"{out}/triad"],
             ["train", *passes, "--case", "C1a", "--config", cfg, "--out", f"{out}/cell"],
             ["export", passes[4], "--model", f"{out}/cell/C1a_R1/model.bin", "--raw",
              "--out", f"{out}/export"],
             ["ablate", *passes, "--cases", "C1a", "--seeds", "R1,R2", "--jobs", "2",
              "--config", cfg, "--out", f"{out}/ablate"]):
    assert main(argv) == 0, argv
    loaded.append([m for m in ("multiprocessing", "concurrent.futures.process")
                   if m in sys.modules])
print(json.dumps(loaded))
"""


def test_worker_pool_loads_only_in_a_process_that_starts_one(tmp_path, two_epoch_cfg_path):
    # synth, triad, train and export run in one process and never load the
    # pool machinery; ablate over two cells on two workers does
    done = subprocess.run([sys.executable, "-c", _POOL_SCRIPT, str(tmp_path),
                           two_epoch_cfg_path], env=_child_env(),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    pool = ["multiprocessing", "concurrent.futures.process"]
    assert loaded == [[], [], [], [], pool]


def test_ablate_two_cases(tmp_path, pass_args, fast_cfg_path, capsys):
    d = tmp_path / "ablate"
    rc = main(["ablate", *pass_args, "--cases", "C1a,C4f", "--seeds", "R1",
               "--out", str(d), "--jobs", "1", "--config", fast_cfg_path])
    assert rc == 0
    # one progress line per cell on stderr, in catalog order
    err = [line for line in capsys.readouterr().err.splitlines()
           if line.startswith("cell ")]
    assert [line.split()[1:3] for line in err] == [["case=C1a", "seed=R1"],
                                                   ["case=C4f", "seed=R1"]]
    assert all(("stop=" in line and "best_epoch=" in line and "divergences=" in line
                and "seconds=" in line) for line in err)
    # epochs= is the length of the cell's history: C4f runs to the cap
    assert err[1].split()[4] == f"epochs={FAST_CFG['max_epochs']}"
    assert (d / "ablation_report.md").exists()
    assert (d / "ablation_report.json").exists()
    report = json.loads((d / "ablation_report.json").read_text())
    ids = [r["case_id"] for t in report["tables"] for r in t["rows"]]
    assert ids == ["C1a", "C4f"]


def test_ablate_resume_identical(tmp_path, pass_args, fast_cfg_path):
    d = tmp_path / "resume"
    argv = ["ablate", *pass_args, "--cases", "C1a", "--seeds", "R1",
            "--out", str(d), "--jobs", "1", "--config", fast_cfg_path]
    assert main(argv) == 0
    md1 = (d / "ablation_report.md").read_bytes()
    # drop one cell artifact, rerun with --resume: the cell retrains and
    # the report is identical
    (d / "C1a_R1" / "result.json").unlink()
    assert main(argv + ["--resume"]) == 0
    assert (d / "C1a_R1" / "result.json").exists()
    assert (d / "ablation_report.md").read_bytes() == md1


def test_ablate_resume_retrains_on_changed_inputs(tmp_path, pass_args):
    d = tmp_path / "changed"
    cell = d / "C1a_R1"
    argv = ["ablate", *pass_args, "--cases", "C1a", "--seeds", "R1",
            "--out", str(d), "--jobs", "1", "--config"]

    def config(max_epochs):
        p = tmp_path / f"cfg{max_epochs}.json"
        p.write_text(json.dumps({"max_epochs": max_epochs}))
        return str(p)

    def trained():
        history = (cell / "history.csv").read_text().splitlines()[1:]
        return load_model(cell / "model.bin")[2].window, len(history)

    assert main(argv + [config(3)]) == 0
    assert trained() == (5, 3)
    # a window-5 cell is not reused under --window 9
    assert main(argv + [config(3), "--resume", "--window", "9"]) == 0
    assert trained() == (9, 3)
    # nor under a changed max_epochs
    assert main(argv + [config(4), "--resume", "--window", "9"]) == 0
    assert trained() == (9, 4)
    assert json.loads((cell / "inputs.json").read_text())["train_config"][
        "max_epochs"] == 4
    # unchanged inputs: the cell is reused, not rewritten
    stamp = (cell / "model.bin").stat().st_mtime_ns
    assert main(argv + [config(4), "--resume", "--window", "9"]) == 0
    assert (cell / "model.bin").stat().st_mtime_ns == stamp


@pytest.mark.parametrize("damage", ["deleted", "cut"])
def test_ablate_resume_retrains_a_cell_whose_model_does_not_load(tmp_path, pass_args,
                                                                 two_epoch_cfg_path, damage):
    d = tmp_path / "m"
    argv = ["ablate", *pass_args, "--cases", "C1a", "--seeds", "R1", "--out", str(d),
            "--jobs", "1", "--config", two_epoch_cfg_path]
    assert main(argv) == 0
    model = d / "C1a_R1" / "model.bin"
    trained = model.read_bytes()
    if damage == "deleted":
        model.unlink()
    else:
        model.write_bytes(trained[:-8])
    assert main(argv + ["--resume"]) == 0
    assert model.read_bytes() == trained


def _cell_outputs(cell):
    return {name: (cell / name).read_bytes()
            for name in ("model.bin", "history.csv", "result.json")}


def test_ablate_resume_retrains_cells_whose_models_were_swapped(tmp_path, pass_args,
                                                                two_epoch_cfg_path):
    d = tmp_path / "swap"
    argv = ["ablate", *pass_args, "--cases", "C1a", "--seeds", "R1,R2", "--out", str(d),
            "--jobs", "1", "--config", two_epoch_cfg_path]
    assert main(argv) == 0
    cells = {seed: d / f"C1a_{seed}" for seed in ("R1", "R2")}
    trained = {seed: _cell_outputs(cell) for seed, cell in cells.items()}
    # each model still loads, but it is the other seed's
    (cells["R1"] / "model.bin").write_bytes(trained["R2"]["model.bin"])
    (cells["R2"] / "model.bin").write_bytes(trained["R1"]["model.bin"])
    assert main(argv + ["--resume"]) == 0
    for seed, cell in cells.items():
        assert _cell_outputs(cell) == trained[seed]
        assert load_model(cell / "model.bin")[2].seed_name == seed


@pytest.mark.parametrize("edited", ["result.json", "history.csv"])
def test_ablate_resume_retrains_a_cell_whose_output_was_edited(tmp_path, pass_args,
                                                               two_epoch_cfg_path, edited):
    d = tmp_path / "edit"
    argv = ["ablate", *pass_args, "--cases", "C1a", "--seeds", "R1", "--out", str(d),
            "--jobs", "1", "--config", two_epoch_cfg_path]
    assert main(argv) == 0
    cell = d / "C1a_R1"
    trained = _cell_outputs(cell)
    report = (d / "ablation_report.md").read_bytes()
    # one digit changed: the first of the test RMS, or of the first epoch's loss
    before = {"result.json": '"test_rms_deg": ', "history.csv": "\n1,"}[edited]
    path = cell / edited
    text = path.read_text()
    at = text.index(before) + len(before)
    path.write_text(text[:at] + ("2" if text[at] == "1" else "1") + text[at + 1:])
    assert main(argv + ["--resume"]) == 0
    assert _cell_outputs(cell) == trained
    assert (d / "ablation_report.md").read_bytes() == report


def test_ablate_resume_retrains_a_cell_without_output_digests_once(
        tmp_path, pass_args, two_epoch_cfg_path, monkeypatch):
    d = tmp_path / "old"
    argv = ["ablate", *pass_args, "--cases", "C1a", "--seeds", "R1", "--out", str(d),
            "--jobs", "1", "--config", two_epoch_cfg_path]
    assert main(argv) == 0
    cell = d / "C1a_R1"
    trained = _cell_outputs(cell)
    marker = cell / "inputs.json"
    inputs = json.loads(marker.read_text())
    assert inputs["outputs"] == {name: hashlib.sha256(data).hexdigest()
                                 for name, data in trained.items()}
    # a marker written before it held the outputs' digests
    del inputs["outputs"]
    marker.write_text(json.dumps(inputs, indent=2, sort_keys=True) + "\n")
    runs = []
    real_run_case = harness.run_case

    def counted(*args, **kwargs):
        runs.append(args[:2])
        return real_run_case(*args, **kwargs)

    monkeypatch.setattr(harness, "run_case", counted)
    assert main(argv + ["--resume"]) == 0
    assert runs == [("C1a", "R1")]
    assert _cell_outputs(cell) == trained
    stamp = (cell / "model.bin").stat().st_mtime_ns
    assert main(argv + ["--resume"]) == 0
    assert runs == [("C1a", "R1")]
    assert (cell / "model.bin").stat().st_mtime_ns == stamp


@pytest.fixture
def opened_by(tmp_path, monkeypatch):
    """Logs each ``open`` of a file by path, in this process and in the
    worker processes it forks; returns a function giving the ids of the
    processes that opened a path, one per open."""
    log_path = tmp_path / "opens.log"
    log = os.open(log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    real_open = builtins.open

    def logged_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            os.write(log, f"{os.getpid()}\t{os.fspath(file)}\n".encode())
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", logged_open)

    def opened(path):
        lines = log_path.read_text().splitlines()
        return [int(pid) for pid, p in (line.split("\t") for line in lines) if p == str(path)]

    yield opened
    os.close(log)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ablate_reads_each_pass_once(tmp_path, pass_args, two_epoch_cfg_path, opened_by,
                                     jobs):
    assert main(["ablate", *pass_args, "--cases", "C1a,C4f", "--seeds", "R1", "--jobs", jobs,
                 "--config", two_epoch_cfg_path, "--out", str(tmp_path / "o")]) == 0
    # the manifest a second time for the pass-id check; no worker reads a pass
    for csv in pass_args:
        stem = csv.removesuffix(".csv")
        assert opened_by(csv) == opened_by(f"{stem}.records") == [os.getpid()]
        assert opened_by(f"{stem}.manifest.json") == [os.getpid()] * 2


@pytest.fixture(scope="module")
def two_epoch_model(tmp_path_factory, pass_args, two_epoch_cfg_path):
    """The model file of a C1a R1 cell trained for two epochs."""
    d = tmp_path_factory.mktemp("two_epoch")
    assert main(["train", *pass_args, "--case", "C1a", "--config", two_epoch_cfg_path,
                 "--out", str(d)]) == 0
    return str(d / "C1a_R1" / "model.bin")


@pytest.mark.parametrize("command", ["triad", "export", "export --model"])
def test_triad_and_export_read_each_pass_file_once(tmp_path, pass_args, two_epoch_model,
                                                   opened_by, command):
    argv = {"triad": ["triad", *pass_args], "export": ["export", pass_args[0], "--raw"],
            "export --model": ["export", pass_args[0], "--raw", "--model", two_epoch_model]}
    assert main([*argv[command], "--out", str(tmp_path / "o")]) == 0
    for csv in pass_args if command == "triad" else pass_args[:1]:
        stem = csv.removesuffix(".csv")
        for path in (csv, f"{stem}.records", f"{stem}.manifest.json"):
            assert opened_by(path) == [os.getpid()]
    # the model too: the run manifest records the digest of the bytes parsed
    assert opened_by(two_epoch_model) == ([os.getpid()] if "--model" in argv[command] else [])


def test_export_records_the_digest_of_the_model_bytes_parsed(tmp_path, pass_args,
                                                             two_epoch_model, monkeypatch):
    model = tmp_path / "model.bin"
    shutil.copy(two_epoch_model, model)
    parsed = hashlib.sha256(model.read_bytes()).hexdigest()
    real_load_model = cli.load_model

    def load_then_rewrite(path):
        loaded = real_load_model(path)
        model.write_bytes(b"rewritten after it was parsed")
        return loaded

    monkeypatch.setattr(cli, "load_model", load_then_rewrite)
    out = tmp_path / "o"
    assert main(["export", pass_args[4], "--model", str(model), "--out", str(out)]) == 0
    assert json.loads((out / "run_manifest.json").read_text())["input_hashes"][
        str(model)] == parsed


@pytest.mark.parametrize("command", ["triad", "export", "ablate"])
def test_input_hashes_are_of_the_bytes_read(tmp_path, pass_args, two_epoch_cfg_path,
                                            monkeypatch, command):
    passes = _copy_catalog(tmp_path, pass_args)
    manifest = Path(passes[0]).with_suffix(".manifest.json")
    read = hashlib.sha256(manifest.read_bytes()).hexdigest()
    real_read_passlog = cli.read_passlog

    def read_then_edit(csv_path):
        """The pass as read; P1's manifest then gets one sunlit flag flipped."""
        log = real_read_passlog(csv_path)
        if csv_path == passes[0]:
            data = json.loads(manifest.read_text())
            data["sunlit"][100] = 1 - data["sunlit"][100]
            manifest.write_text(json.dumps(data))
        return log

    monkeypatch.setattr(cli, "read_passlog", read_then_edit)
    argv = {"triad": ["triad", *passes],
            "export": ["export", passes[0], "--raw"],
            "ablate": ["ablate", *passes, "--cases", "C4f", "--seeds", "R1", "--jobs", "1",
                       "--config", two_epoch_cfg_path]}[command]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(manifest.read_bytes()).hexdigest() != read
    assert json.loads((out / "run_manifest.json").read_text())["input_hashes"][
        str(manifest)] == read
    if command == "ablate":
        inputs = json.loads((out / "C4f_R1" / "inputs.json").read_text())
        assert inputs["passes"][0]["manifest"] == read


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("config, named", [
    ({"max_epochs": 3, "windw": 9}, "'windw'"),
    ({"seed": 99}, "'seed'"),
    ({"lr": "0.01"}, "'lr'"),
    ({"max_epochs": True}, "'max_epochs'"),
    ({"window": 0}, "'window'"),
    ({"window": 12}, "'window'"),
    ({"max_epochs": -1}, "'max_epochs'"),
    ({"max_epochs": 0}, "'max_epochs'"),
    ({"early_stop_window": 0}, "'early_stop_window'"),
    ({"batch_size": 0}, "'batch_size'"),
    ({"rollback_depth": 0}, "'rollback_depth'"),
    ({"lr": 0}, "'lr'"),
    ({"lr": float("inf")}, "'lr'"),
    ({"eps": -1e-8}, "'eps'"),
    ({"eps": float("nan")}, "'eps'"),
    ({"beta1": 1.0}, "'beta1'"),
    ({"beta1": -0.1}, "'beta1'"),
    ({"beta2": 1}, "'beta2'"),
    ({"lr_decay": 0}, "'lr_decay'"),
    ({"lr_decay": 1.5}, "'lr_decay'"),
    ({"lr": 10 ** 400}, "'lr'"),  # past float range
])
def test_train_config_bad_key_exit_2(tmp_path, capsys, command, config, named):
    # the passes do not exist: the config is rejected before any is read
    passes = [str(tmp_path / f"missing{k}.csv") for k in range(5)]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    argv = [command, *passes, "--config", str(cfg), "--out", str(tmp_path / "o")]
    argv += ["--case", "C1a"] if command == "train" else ["--cases", "C1a"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and str(cfg) in err
    assert "missing" not in err


@pytest.mark.parametrize("labels, named", [
    (["--cases", "C1a,C4f,C1a", "--seeds", "R1"], "'C1a'"),
    (["--cases", "C1a", "--seeds", "R1,R2,R1"], "'R1'"),
])
def test_ablate_repeated_label_exit_2(tmp_path, capsys, labels, named):
    passes = [str(tmp_path / f"missing{k}.csv") for k in range(5)]
    assert main(["ablate", *passes, *labels, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert named in err and "repeated" in err


class _MatrixReached(Exception):
    """Raised by a stand-in ``run_matrix`` once it has seen its arguments."""


@pytest.fixture
def ablate_jobs(tmp_path, monkeypatch, pass_args):
    """Runs ``attlab ablate`` up to its ``run_matrix`` call; returns the
    ``jobs`` that call was given."""
    def record(*args, jobs, **kwargs):
        raise _MatrixReached(jobs)

    monkeypatch.setattr(cli, "run_matrix", record)

    def run():
        with pytest.raises(_MatrixReached) as ei:
            main(["ablate", *pass_args, "--cases", "C1a", "--out", str(tmp_path / "o")])
        return ei.value.args[0]

    return run


def test_ablate_jobs_default_usable_cpus(monkeypatch, ablate_jobs):
    # under a CPU-affinity limit, os.cpu_count() would start more workers
    # than the process may use
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3}, raising=False)
    assert ablate_jobs() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert ablate_jobs() == 8


def test_ablate_jobs_follow_affinity_between_calls(monkeypatch, fresh_parser,
                                                   ablate_jobs):
    # the parser is built once, but each call reads the affinity it runs under
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3}, raising=False)
    assert ablate_jobs() == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 4, 5})
    assert ablate_jobs() == 5
    assert len(fresh_parser) == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_ablate_jobs_below_one_exit_2(tmp_path, pass_args, capsys, jobs):
    out = tmp_path / "o"
    argv = ["ablate", *pass_args, "--cases", "C1a", "--seeds", "R1", "--jobs", jobs,
            "--out", str(out)]
    assert main(argv) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--case", "C1a"],
    ["ablate", "--cases", "C1a"],
], ids=["train", "ablate"])
def test_missing_pass_leaves_no_out_dir(tmp_path, pass_args, capsys, argv):
    out = tmp_path / "o"
    passes = [*pass_args[:4], str(tmp_path / "missing.csv")]
    assert main([argv[0], *passes, *argv[1:], "--out", str(out)]) == 2
    assert "missing.csv" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_no_case_leaves_no_out_dir(tmp_path, pass_args, capsys):
    out = tmp_path / "o"
    assert main(["ablate", *pass_args, "--cases", ",", "--out", str(out)]) == 2
    assert "no cases selected" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--case", "C1a"],
    ["ablate", "--cases", "C1a", "--seeds", "R1", "--jobs", "1"],
], ids=["train", "ablate"])
def test_out_is_a_file_exit_2_before_training(tmp_path, pass_args, monkeypatch, capsys,
                                              argv):
    def no_training(*args, **kwargs):
        raise AssertionError("trained although --out is a file")

    monkeypatch.setattr("attlab.harness.run_case", no_training)
    out = tmp_path / "o"
    out.write_text("not a directory\n")
    assert main([argv[0], *pass_args, *argv[1:], "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


def test_ablate_unknown_case_exit_2(tmp_path, pass_args):
    rc = main(["ablate", *pass_args, "--cases", "C9z", "--out", str(tmp_path)])
    assert rc == 2


def test_export_model_and_raw(tmp_path, pass_args, fast_cfg_path):
    d = tmp_path / "model"
    assert main(["train", *pass_args, "--case", "C1a", "--out", str(d),
                 "--config", fast_cfg_path]) == 0
    e = tmp_path / "export"
    rc = main(["export", pass_args[4], "--model", str(d / "C1a_R1" / "model.bin"),
               "--raw", "--out", str(e)])
    assert rc == 0
    err_lines = (e / "errors_P5.csv").read_text().splitlines()
    assert err_lines[0] == "t,att_err_deg,sun_err_deg,mag_err_deg,earth_err_deg"
    assert len(err_lines) == 363
    assert "nan" not in (e / "errors_P5.csv").read_text().lower()
    prof = (e / "profile_P5.csv").read_text().splitlines()
    assert prof[0].startswith("t,css0")


def test_export_raw_only(tmp_path, pass_args, capsys):
    e = tmp_path / "raw"
    assert main(["export", pass_args[0], "--out", str(e)]) == 0
    assert (e / "profile_P1.csv").exists()
    # a pass without its manifest has no pass id, and makes no --out
    bare = tmp_path / "nomani" / "P1.csv"
    bare.parent.mkdir()
    shutil.copy(pass_args[0], bare)
    assert main(["export", str(bare), "--raw", "--out", str(tmp_path / "exp")]) == 2
    err = capsys.readouterr().err
    assert f"{bare}: cannot read its manifest {bare.with_suffix('.manifest.json')}" in err
    assert not (tmp_path / "exp").exists()


@pytest.fixture
def untrained_model(tmp_path, make_provenance):
    """Writes an untrained model file of ``case_id`` (seed label R1, window 5),
    its bytes then changed by ``damage(raw)`` when given; returns its path."""
    def write(case_id="C1a", damage=None):
        nc = NetConfig(n=5, channels=case_spec(case_id).channel_count, seed=1)
        path = tmp_path / "model.bin"
        save_model(init_params(nc), nc, path, make_provenance(case_id))
        if damage is not None:
            path.write_bytes(damage(path.read_bytes()))
        return str(path)

    return write


def test_export_model_without_case_id_exit_2(tmp_path, pass_args, untrained_model,
                                             capsys):
    model = untrained_model(damage=_with_provenance(_without("case_id")))
    out = tmp_path / "o"
    assert main(["export", pass_args[0], "--model", model, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert model in err and "'case_id'" in err
    assert not out.exists()


@pytest.mark.parametrize("channels, case_id", [(21, "C4f"), (6, "C1f"), (9, "C1a")])
def test_export_model_channels_disagree_with_case_exit_2(
        tmp_path, pass_args, untrained_model, capsys, channels, case_id):
    # a model written for a case of ``channels`` channels, relabelled ``case_id``
    written = {21: "C1f", 6: "C1a", 9: "C1b"}[channels]
    model = untrained_model(written, damage=_set_provenance("case_id", case_id))
    out = tmp_path / "o"
    assert main(["export", pass_args[0], "--model", model, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert model in err and "'channels'" in err and case_id in err
    assert not out.exists()


def test_export_model_unknown_case_id_exit_2(tmp_path, pass_args, untrained_model,
                                             capsys):
    model = untrained_model(damage=_set_provenance("case_id", "C9z"))
    out = tmp_path / "o"
    assert main(["export", pass_args[0], "--model", model, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert model in err and "'case_id'" in err and "'C9z'" in err
    assert not out.exists()


def _with_header_text(raw, edit):
    """A model file's bytes with its header's JSON text replaced by ``edit(text)``."""
    (hlen,) = struct.unpack_from("<I", raw, 8)
    blob = edit(raw[12:12 + hlen])
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:]


def _with_header(raw, edit):
    """A model file's bytes with its JSON header replaced by ``edit(header)``."""
    return _with_header_text(raw, lambda text: json.dumps(edit(json.loads(text))).encode())


def _without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def _with_provenance(edit):
    """A model file's bytes with its header's provenance replaced by ``edit(provenance)``."""
    return lambda raw: _with_header(raw, lambda h: {**h, "provenance": edit(h["provenance"])})


def _set_provenance(key, value):
    return _with_provenance(lambda prov: {**prov, key: value})


def _with_parameter(raw, index, value):
    """A model file's bytes with entry ``index`` of its parameter vector set to ``value``."""
    (hlen,) = struct.unpack_from("<I", raw, 8)
    vec = np.frombuffer(raw[12 + hlen:], dtype="<f8").copy()
    vec[index] = value
    return raw[:12 + hlen] + vec.tobytes()


@pytest.mark.parametrize("damage, named", [
    pytest.param(lambda raw: raw[:10], "truncated", id="cut-after-magic"),
    pytest.param(lambda raw: raw[:40], "not valid JSON", id="cut-in-header"),
    pytest.param(lambda raw: raw[:-8], "bytes of parameters", id="cut-in-parameters"),
    pytest.param(lambda raw: _with_header_text(
        raw, lambda text: text.replace(b'"seed": 1', b'"seed": ' + b"1" * 5000)),
                 "not valid JSON", id="seed-5000-digits"),
    pytest.param(lambda raw: _with_header(raw, lambda h: [h]), "expected an object",
                 id="header-list"),
    pytest.param(lambda raw: _with_header(raw, _without("n")), "'n'", id="no-n"),
    pytest.param(lambda raw: _with_header(raw, _without("provenance")), "'provenance'",
                 id="no-provenance"),
    pytest.param(lambda raw: _with_header(raw, lambda h: {**h, "n": "5"}), "'n'",
                 id="n-string"),
    pytest.param(lambda raw: _with_header(raw, lambda h: {**h, "widths": [64, 128, 64.5, 3]}),
                 "widths", id="widths-float"),
    pytest.param(lambda raw: _with_header(raw, lambda h: {**h, "channels": 9}), "'shapes'",
                 id="shapes-disagree"),
    pytest.param(lambda raw: _with_header(
        raw, lambda h: {**h, "shapes": [[float(d) for d in s] for s in h["shapes"]]}),
                 "'shapes'", id="shapes-float"),
    pytest.param(lambda raw: _with_header(raw, lambda h: {**h, "provenance": "C1a"}),
                 "'provenance'", id="provenance-string"),
    pytest.param(lambda raw: _with_header(raw, lambda h: {**h, "format": 2}), "'format'",
                 id="format-2"),
    pytest.param(lambda raw: _with_header(raw, lambda h: {**h, "extra": 1}), "'extra'",
                 id="extra-key"),
    *(pytest.param(_set_provenance("gyro_scale", value), "'gyro_scale'",
                   id=f"gyro_scale-{name}")
      for name, value in (("text", "x"), ("null", None), ("zero", 0), ("negative", -1.0))),
    pytest.param(_with_provenance(_without("gyro_scale")), "'gyro_scale'", id="no-gyro_scale"),
    pytest.param(_set_provenance("case_id", 5), "'case_id'", id="case_id-int"),
    pytest.param(_set_provenance("css_bias", [1, 2]), "'css_bias'", id="css_bias-two"),
    pytest.param(_set_provenance("css_bias", "abc"), "'css_bias'", id="css_bias-text"),
    pytest.param(_set_provenance("seeds", "x"), "'seeds'", id="seeds-text"),
    pytest.param(_set_provenance("seeds", {"x": "y"}), "'x'", id="seeds-unknown-key"),
    pytest.param(_set_provenance("seeds", {"net": -1, "shuffle": 1001, "dropout": 2001}),
                 "'net': -1", id="seeds-net-negative"),
    pytest.param(_set_provenance("train_pass_ids", [1, None]), "'train_pass_ids'",
                 id="train_pass_ids-null"),
    pytest.param(_set_provenance("seed_name", "R9"), "'seed_name'", id="seed_name-R9"),
    pytest.param(_with_provenance(lambda prov: {
        **prov, "seed_name": "R2", "seeds": {"net": 1, "shuffle": 1001, "dropout": 2001}}),
                 "'seeds'", id="seeds-not-seed_name's"),
    pytest.param(_set_provenance("train_pass_ids", ["P1"]), "'train_pass_ids'",
                 id="train_pass_ids-one"),
    pytest.param(_set_provenance("train_pass_ids", ["P1", "P2", "P2", "P3"]),
                 "'train_pass_ids'", id="train_pass_ids-repeated"),
    pytest.param(_with_provenance(lambda prov: {
        **prov, "train_pass_ids": ["P1", "P2", "P3", "P4"], "test_pass_id": "P1"}),
                 "'test_pass_id'", id="test_pass_id-a-train-pass"),
    pytest.param(_set_provenance("window", 7), "'window'", id="window-mismatch"),
    pytest.param(_with_provenance(lambda prov: {
        **prov, "seed_name": "R2", "seeds": {"net": 2, "shuffle": 1002, "dropout": 2002}}),
                 "'seeds.net'", id="seeds-net-mismatch"),
    pytest.param(lambda raw: _with_parameter(raw, 0, np.nan), "array W0", id="W0-nan"),
    pytest.param(lambda raw: _with_parameter(raw, -1, np.inf), "array b3", id="b3-inf"),
    # every provenance key but css_bias is required
    *(pytest.param(_with_provenance(_without(key)), f"'{key}'", id=f"no-{key}")
      for key in ("seed_name", "seeds", "train_pass_ids", "test_pass_id", "window")),
    pytest.param(_set_provenance("gyro_scale", 10 ** 400), "'gyro_scale'",
                 id="gyro_scale-past-float-range"),
])
def test_export_malformed_model_exit_2(tmp_path, pass_args, untrained_model, capsys,
                                       damage, named):
    good = untrained_model()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(damage(Path(good).read_bytes()))
    out = tmp_path / "o"
    assert main(["export", pass_args[0], "--model", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "train", "ablate"])
@pytest.mark.parametrize("text", [b'{"max_epochs": 2,', b'{"max_epochs": 2,\n}',
                                  b'{"lr": "\xe9"}'],
                         ids=["cut", "trailing-comma", "not-utf8"])
def test_config_not_json_exit_2(tmp_path, capsys, command, text):
    # the passes do not exist: the config is rejected before any is read
    passes = [str(tmp_path / f"missing{k}.csv") for k in range(5)]
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(text)
    argv = {"synth": ["synth"],
            "train": ["train", *passes, "--case", "C1a"],
            "ablate": ["ablate", *passes, "--cases", "C1a"]}[command]
    out = tmp_path / "o"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: not valid JSON" in err and "missing" not in err
    assert not out.exists()


@pytest.mark.parametrize("model, code, named", [
    ("missing", 2, "missing.bin"),
    ("pass", 2, "is not a model file"),
    ("sun-case", 3, "group uS_c unavailable"),
])
def test_export_bad_input_creates_no_out_dir(tmp_path, eclipse_args, untrained_model,
                                             capsys, model, code, named):
    path = {"missing": str(tmp_path / "missing.bin"),
            "pass": eclipse_args[0],
            "sun-case": untrained_model()}[model]
    out = tmp_path / "o"
    assert main(["export", eclipse_args[0], "--model", path, "--raw",
                 "--out", str(out)]) == code
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def fresh_parser(monkeypatch):
    """``main`` with its parser not yet built; returns the list that grows
    by one on each ``build_parser`` call."""
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    return calls


def test_main_builds_parser_once(tmp_path, pass_args, fresh_parser):
    assert main(["export", pass_args[0], "--out", str(tmp_path / "a")]) == 0
    assert main(["export", pass_args[1], "--raw", "--out", str(tmp_path / "b")]) == 0
    assert main(["triad", pass_args[2], "--priority", "mag",
                 "--out", str(tmp_path / "c")]) == 0
    assert len(fresh_parser) == 1


def test_main_after_rejected_call(tmp_path, pass_args, fresh_parser, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["triad", "--priority", "east", pass_args[0]])
    assert ei.value.code == 2
    assert "--priority" in capsys.readouterr().err
    d = tmp_path / "t"
    assert main(["triad", pass_args[0], "--out", str(d)]) == 0
    assert len((d / "triad_baseline.csv").read_text().splitlines()) == 3
    assert len(fresh_parser) == 1


def test_main_options_do_not_carry_over(tmp_path, pass_args, synth_out, fresh_parser):
    sun, both = tmp_path / "sun", tmp_path / "both"
    assert main(["triad", pass_args[0], "--priority", "sun", "--out", str(sun)]) == 0
    assert main(["triad", pass_args[0], "--out", str(both)]) == 0
    assert [line.split(",")[0] for line in
            (both / "triad_baseline.csv").read_text().splitlines()[1:]] == ["sun", "mag"]
    seeded, default = tmp_path / "seeded", tmp_path / "default"
    assert main(["synth", "--seed", "7", "--out", str(seeded)]) == 0
    assert main(["synth", "--out", str(default)]) == 0
    assert (default / "P1.csv").read_bytes() == (synth_out / "P1.csv").read_bytes()
    assert (seeded / "P1.csv").read_bytes() != (synth_out / "P1.csv").read_bytes()
    manifest = json.loads((default / "run_manifest.json").read_text())
    assert manifest["resolved_config"]["base_seed"] == 20211218
    assert len(fresh_parser) == 1


def test_main_dispatches_by_name_at_call_time(tmp_path, pass_args, monkeypatch,
                                              fresh_parser):
    # a command function replaced after the parser was built (as a tracer
    # does) is the one that runs
    assert main(["export", pass_args[0], "--out", str(tmp_path / "a")]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_export", lambda args: seen.append(args.passfile) or 0)
    assert main(["export", pass_args[1], "--out", str(tmp_path / "b")]) == 0
    assert seen == [pass_args[1]]
    assert not (tmp_path / "b").exists()
    assert len(fresh_parser) == 1


def test_version():
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0


def test_out_root_env(tmp_path, monkeypatch, pass_args):
    monkeypatch.setenv("ATTLAB_OUT", str(tmp_path / "envroot"))
    assert main(["export", pass_args[0]]) == 0
    assert (tmp_path / "envroot" / "profile_P1.csv").exists()
