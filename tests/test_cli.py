import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from attlab.cli import main
from attlab.passlog import read_passlog


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


def test_synth_default_catalog(synth_out):
    for k in range(1, 6):
        log = read_passlog(synth_out / f"P{k}.csv")
        assert len(log.t) == 362
    manifest = json.loads((synth_out / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["tool_version"]
    assert len(manifest["outputs"]) == 10


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


def test_triad_both_priorities(tmp_path, pass_args):
    d = tmp_path / "triad"
    assert main(["triad", *pass_args, "--out", str(d)]) == 0
    lines = (d / "triad_baseline.csv").read_text().splitlines()
    assert len(lines) == 3  # header + sun + mag
    assert (d / "triad_P1_sun.csv").exists()
    assert (d / "triad_P5_mag.csv").exists()


def test_triad_single_pass_ok(tmp_path, pass_args):
    d = tmp_path / "triad1"
    assert main(["triad", pass_args[0], "--priority", "sun", "--out", str(d)]) == 0
    lines = (d / "triad_baseline.csv").read_text().splitlines()
    assert len(lines) == 2


def test_triad_missing_file_exit_2(tmp_path):
    assert main(["triad", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2


def test_train_single_case(tmp_path, pass_args, fast_cfg_path):
    d = tmp_path / "train"
    rc = main(["train", *pass_args, "--case", "C1a", "--seed", "R1",
               "--window", "5", "--out", str(d), "--config", fast_cfg_path])
    assert rc == 0
    assert (d / "C1a_R1" / "model.bin").exists()
    assert (d / "C1a_R1" / "history.csv").exists()
    manifest = json.loads((d / "run_manifest.json").read_text())
    assert len(manifest["input_hashes"]) == 5
    assert manifest["seeds"] == {"seed": "R1"}


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


def test_train_infeasible_case_exit_3(tmp_path, fast_cfg_path):
    d = tmp_path / "ecl"
    assert main(["synth", "--out", str(d), "--eclipse"]) == 0
    passes = [str(d / f"P{k}e.csv") for k in range(1, 6)]
    cfgfile = d / "biased.json"
    cfgfile.write_text(json.dumps(FAST_CFG))
    rc = main(["train", *passes, "--case", "C3c", "--out", str(d / "m"),
               "--config", str(cfgfile)])
    assert rc == 0  # magnetometer-only case trains fine in eclipse
    # with the preflight bias estimate subtracted, the Sun vector is gone
    bias = ",".join(str(v) for v in json.loads((d / "P1e.manifest.json").read_text())
                    ["scenario"]["errors"]["css_bias"])
    rc = main(["train", *passes, "--case", "C1a", "--out", str(d / "m2"),
               "--config", str(cfgfile), "--css-bias", bias])
    assert rc == 3


def _corrupt_catalog(tmp_path, pass_args, pass_no, column, step, value):
    """Copy the catalog and overwrite one cell of one pass CSV."""
    d = tmp_path / "corrupt"
    d.mkdir()
    paths = []
    for src in pass_args:
        src = Path(src)
        for f in (src, src.with_suffix(".manifest.json")):
            shutil.copy(f, d / f.name)
        paths.append(str(d / src.name))
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


def test_triad_rejects_off_unit_model_vector_exit_2(tmp_path, pass_args, capsys):
    passes = _corrupt_catalog(tmp_path, pass_args, 3, "uSx", 7, "2.0")
    rc = main(["triad", *passes, "--out", str(tmp_path / "t")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "P3.csv" in err and "uSx,uSy,uSz" in err and "step 7" in err


def test_ablate_two_cases(tmp_path, pass_args, fast_cfg_path):
    d = tmp_path / "ablate"
    rc = main(["ablate", *pass_args, "--cases", "C1a,C4f", "--seeds", "R1",
               "--out", str(d), "--jobs", "1", "--config", fast_cfg_path])
    assert rc == 0
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


def test_export_raw_only(tmp_path, pass_args):
    e = tmp_path / "raw"
    assert main(["export", pass_args[0], "--out", str(e)]) == 0
    assert (e / "profile_P1.csv").exists()


def test_version():
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0


def test_out_root_env(tmp_path, monkeypatch, pass_args):
    monkeypatch.setenv("ATTLAB_OUT", str(tmp_path / "envroot"))
    assert main(["export", pass_args[0]]) == 0
    assert (tmp_path / "envroot" / "profile_P1.csv").exists()
