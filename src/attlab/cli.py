"""Command-line surface: synthesize, baseline, train, ablate, export.

Every artifact-producing invocation writes one ``run_manifest.json``
beside its outputs recording the tool version, the resolved config, the
input file hashes, and the seeds, so a run can be audited and repeated.

Exit codes: 0 success, 2 input/config error, 3 infeasible case,
4 internal numeric failure.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .cases import DEFAULT_CASE_IDS, case_spec
from .convnet import TrainConfig, load_model
from .errors import (
    CaseInfeasibleError,
    DataIntegrityError,
    DegenerateGeometryError,
    IncompatibleModelError,
    ScenarioInfeasibleError,
)
from .harness import (
    SEED_NAMES,
    render_baseline_csv,
    render_tables_markdown,
    run_case,
    run_matrix,
    timeseries_rows,
    triad_baseline_report,
    write_matrix_reports,
    write_raw_profile_csv,
    write_timeseries_csv,
)
from .passlog import read_passlog, write_passlog
from .synth import (
    CATALOG_ERRORS,
    SensorErrors,
    default_catalog,
    eclipse_variant,
    scenario_from_dict,
    synth_pass,
)
from .triad import write_triad_series_csv

OUT_ROOT_ENV = "ATTLAB_OUT"
FORMAT_VERSION = 1


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _out_dir(args):
    root = args.out or os.environ.get(OUT_ROOT_ENV, ".")
    os.makedirs(root, exist_ok=True)
    return root


def _load_config(path):
    if path is None:
        return {}
    with open(path) as f:
        return json.load(f)


def _write_manifest(outdir, subcommand, resolved_config, inputs, seeds, outputs,
                    started):
    manifest = {
        "tool_version": __version__,
        "format_version": FORMAT_VERSION,
        "subcommand": subcommand,
        "resolved_config": resolved_config,
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "seeds": seeds,
        "outputs": [str(p) for p in outputs],
        "started_utc": started,
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = os.path.join(outdir, "run_manifest.json")
    with open(path, "w", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _now():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def cmd_synth(args):
    started = _now()
    cfg = _load_config(args.config)
    outdir = _out_dir(args)
    base_seed = args.seed if args.seed is not None else cfg.get("base_seed", 20211218)
    if "scenarios" in cfg:
        scenarios = [scenario_from_dict(d) for d in cfg["scenarios"]]
    else:
        errors = CATALOG_ERRORS
        if "errors" in cfg:
            errors = SensorErrors.from_dict(
                {**dataclasses.asdict(CATALOG_ERRORS), **cfg["errors"]})
        scenarios = default_catalog(base_seed=base_seed, errors=errors)
    if args.eclipse:
        scenarios = [eclipse_variant(sc) for sc in scenarios]
    outputs = []
    for sc in scenarios:
        log = synth_pass(sc)
        csv_path, manifest_path = write_passlog(
            log, os.path.join(outdir, f"{sc.pass_id}.csv"))
        outputs += [csv_path, manifest_path]
        print(f"wrote {csv_path}")
    _write_manifest(outdir, "synth", {"base_seed": base_seed,
                                      "eclipse": bool(args.eclipse),
                                      "config_file": args.config},
                    [], {"base_seed": base_seed}, outputs, started)
    return 0


def cmd_triad(args):
    started = _now()
    outdir = _out_dir(args)
    logs = [read_passlog(p) for p in args.passes]
    css_bias = _parse_floats(args.css_bias, 6) if args.css_bias else None
    priorities = ("sun", "mag") if args.priority == "both" else (args.priority,)
    rows = triad_baseline_report(logs, css_bias=css_bias, priorities=priorities)
    outputs = []
    report = os.path.join(outdir, "triad_baseline.csv")
    with open(report, "w", newline="\n") as f:
        f.write(render_baseline_csv(rows))
    outputs.append(report)
    for k, log in enumerate(logs):
        for row in rows:
            p = os.path.join(outdir, f"triad_{log.pass_id}_{row['priority']}.csv")
            write_triad_series_csv(row["evaluations"][k], p)
            outputs.append(p)
    for r in rows:
        print(f"priority={r['priority']} rms_att_deg={r['rms_att_deg']:.3f} "
              f"rms_sun_deg={r['rms_sun_deg']:.3f} rms_mag_deg={r['rms_mag_deg']:.3f} "
              f"skipped={r['skipped_steps']}")
    _write_manifest(outdir, "triad", {"priority": args.priority},
                    args.passes, {}, outputs, started)
    return 0


def _train_config(cfg, args):
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    overrides = {k: v for k, v in cfg.items() if k in fields}
    return TrainConfig(**overrides)


def cmd_train(args):
    started = _now()
    cfg = _load_config(args.config)
    outdir = _out_dir(args)
    if len(args.passes) != 5:
        raise ValueError("train requires exactly 5 passes: four train, last tests")
    logs = [read_passlog(p) for p in args.passes]
    tc = _train_config(cfg, args)
    n = args.window if args.window is not None else cfg.get("window", 5)
    css_bias = _parse_floats(args.css_bias, 6) if args.css_bias else None
    result = run_case(args.case, args.seed, logs, n=n, outdir=outdir, tc=tc,
                      css_bias=css_bias)
    print(f"case={result.case_id} seed={result.seed_name} "
          f"train_rms_deg={result.train_rms_deg:.3f} "
          f"test_rms_deg={result.test_rms_deg:.3f} "
          f"stop={result.stop_reason} best_epoch={result.best_epoch}")
    _write_manifest(outdir, "train",
                    {"case": args.case, "window": n, "config_file": args.config,
                     "train_config": dataclasses.asdict(tc)},
                    args.passes, {"seed": args.seed},
                    [os.path.join(outdir, result.model_path),
                     os.path.join(outdir, result.history_path)], started)
    return 0


def cmd_ablate(args):
    started = _now()
    cfg = _load_config(args.config)
    outdir = _out_dir(args)
    if len(args.passes) != 5:
        raise ValueError("ablate requires exactly 5 passes: four train, last tests")
    if args.cases == "all":
        case_ids = list(DEFAULT_CASE_IDS)
    else:
        case_ids = [c.strip() for c in args.cases.split(",") if c.strip()]
        for cid in case_ids:
            case_spec(cid)  # validate early
    seeds = tuple(s.strip() for s in args.seeds.split(","))
    for s in seeds:
        if s not in SEED_NAMES:
            raise ValueError(f"unknown seed label {s!r}; choose from {SEED_NAMES}")
    tc = _train_config(cfg, args)
    n = args.window if args.window is not None else cfg.get("window", 5)
    jobs = args.jobs or 1
    css_bias = _parse_floats(args.css_bias, 6) if args.css_bias else None
    tables, results = run_matrix(args.passes, case_ids, seeds=seeds, n=n,
                                 outdir=outdir, jobs=jobs, resume=args.resume,
                                 tc=tc, css_bias=css_bias)
    meta = {"cases": case_ids, "seeds": list(seeds), "window": n,
            "train_config": dataclasses.asdict(tc),
            "pass_ids": [read_passlog(p).pass_id for p in args.passes]}
    paths = write_matrix_reports(tables, results, outdir, meta)
    print(render_tables_markdown(tables))
    _write_manifest(outdir, "ablate", meta, args.passes,
                    {"seeds": list(seeds)}, list(paths.values()), started)
    return 0


def cmd_export(args):
    started = _now()
    outdir = _out_dir(args)
    log = read_passlog(args.passfile)
    outputs = []
    if args.model:
        params, nc, prov = load_model(args.model)
        case = case_spec(prov["case_id"])
        rows = timeseries_rows(params, nc, case, log, prov.get("gyro_scale"))
        p = os.path.join(outdir, f"errors_{log.pass_id}.csv")
        write_timeseries_csv(rows, p)
        outputs.append(p)
        print(f"wrote {p}")
    if args.raw or not args.model:
        p = os.path.join(outdir, f"profile_{log.pass_id}.csv")
        write_raw_profile_csv(log, p)
        outputs.append(p)
        print(f"wrote {p}")
    inputs = [args.passfile] + ([args.model] if args.model else [])
    _write_manifest(outdir, "export", {"model": args.model, "raw": args.raw},
                    inputs, {}, outputs, started)
    return 0


def _parse_floats(text, count):
    vals = [float(x) for x in text.split(",")]
    if len(vals) != count:
        raise ValueError(f"expected {count} comma-separated values")
    return vals


def build_parser():
    parser = argparse.ArgumentParser(
        prog="attlab",
        description="Coarse-sensor attitude determination lab",
    )
    parser.add_argument("--version", action="version",
                        version=f"attlab {__version__} (format {FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic pass catalog")
    p.add_argument("--config", help="JSON config with scenario/error overrides")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="catalog base seed override")
    p.add_argument("--eclipse", action="store_true",
                   help="generate the eclipse variant of each pass")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("triad", help="TRIAD baseline over one or more passes")
    p.add_argument("passes", nargs="+")
    p.add_argument("--priority", choices=("sun", "mag", "both"), default="both")
    p.add_argument("--css-bias", help="six comma-separated bias counts")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_triad)

    p = sub.add_parser("train", help="train one case: first four passes train, last tests")
    p.add_argument("passes", nargs="+")
    p.add_argument("--case", required=True)
    p.add_argument("--seed", default="R1", choices=SEED_NAMES)
    p.add_argument("--window", type=int)
    p.add_argument("--css-bias", help="six comma-separated bias counts")
    p.add_argument("--config", help="JSON config (training overrides)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help="run the case x seed matrix and write reports")
    p.add_argument("passes", nargs="+")
    p.add_argument("--cases", default="all", help="'all' or comma-separated case ids")
    p.add_argument("--seeds", default="R1,R2,R3")
    p.add_argument("--window", type=int)
    p.add_argument("--jobs", type=int, default=os.cpu_count(),
                   help="parallel worker processes")
    p.add_argument("--resume", action="store_true",
                   help="skip (case, seed) cells whose results already exist")
    p.add_argument("--css-bias", help="six comma-separated bias counts")
    p.add_argument("--config", help="JSON config (training overrides)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("export", help="per-step error series / raw profiles")
    p.add_argument("passfile")
    p.add_argument("--model", help="trained model file")
    p.add_argument("--raw", action="store_true", help="also dump raw CSS/MAG counts")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CaseInfeasibleError, ScenarioInfeasibleError) as e:
        print(f"error: infeasible: {e}", file=sys.stderr)
        return 3
    except (DegenerateGeometryError, FloatingPointError, np.linalg.LinAlgError) as e:
        print(f"error: numeric failure: {e}", file=sys.stderr)
        return 4
    except (DataIntegrityError, IncompatibleModelError, ValueError,
            json.JSONDecodeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
