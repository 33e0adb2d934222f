"""Command-line surface: synthesize, baseline, train, ablate, export.

Every artifact-producing invocation writes one ``run_manifest.json``
beside its outputs recording the tool version, the resolved config, the
input file hashes, and the seeds, so a run can be audited and repeated.

Exit codes: 0 success, 2 input/config error, 3 infeasible case.
"""

import argparse
import dataclasses
import math
import os
import sys
import time

from . import __version__
from .cases import DEFAULT_CASE_IDS, case_spec
from .convnet import SEED_NAMES, TrainConfig, load_model
from .errors import CaseInfeasibleError, ScenarioInfeasibleError
from .harness import (
    render_baseline_csv,
    render_tables_markdown,
    run_matrix,
    timeseries_rows,
    triad_baseline_report,
    write_matrix_reports,
)
from .features import WINDOW_MAX
from .passlog import (
    Scenario,
    SensorErrors,
    check_type,
    from_dict,
    manifest_path_for,
    read_json,
    read_manifest,
    read_passlog,
    records_path_for,
    write_json,
    write_passlog,
    write_raw_profile_csv,
    write_series_csv,
    write_text,
)
from .synth import CATALOG_ERRORS, default_catalog, eclipse_variant, synth_pass

OUT_ROOT_ENV = "ATTLAB_OUT"
FORMAT_VERSION = 1


def _out_dir(args, create=True):
    """The output root: ``--out``, else ``$ATTLAB_OUT``, else the working
    directory. It must not be a file; ``create`` makes it now, else the
    first write makes it."""
    root = args.out or os.environ.get(OUT_ROOT_ENV, ".")
    if os.path.exists(root) and not os.path.isdir(root):
        raise NotADirectoryError(f"output directory {root!r} is a file")
    if create:
        os.makedirs(root, exist_ok=True)
    return root


def _load_config(path):
    if path is None:
        return {}
    cfg, _ = read_json(path)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return cfg


def _write_manifest(outdir, subcommand, resolved_config, logs, seeds, outputs,
                    started, models=()):
    """``run_manifest.json``, with the digests of the files ``logs`` were
    read from and the ``{path: digest}`` of ``models``."""
    input_hashes = dict(models)
    for log in logs:
        input_hashes.update(log.input_hashes())
    manifest = {
        "tool_version": __version__,
        "format_version": FORMAT_VERSION,
        "subcommand": subcommand,
        "resolved_config": resolved_config,
        "input_hashes": input_hashes,
        "seeds": seeds,
        "outputs": [str(p) for p in outputs],
        "started_utc": started,
        "finished_utc": _now(),
        "peak_rss_mib": _peak_rss_mib(),
    }
    return write_json(os.path.join(outdir, "run_manifest.json"), manifest)


def _peak_rss_mib():
    """Peak resident set so far of this process and of its waited-for children,
    in MiB; None where there is no ``resource`` module (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    unit = 2.0 ** (20 if sys.platform == "darwin" else 10)  # ru_maxrss: bytes, else KiB
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / unit}


def _now():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _check_file_names(named):
    """Reject a pass id that names output files but that the file-system
    encoding cannot encode; ``named`` pairs each id with the file and key
    it came from (a file name's stem always encodes)."""
    for pass_id, where in named:
        try:
            os.fsencode(pass_id)
        except UnicodeEncodeError:
            raise ValueError(f"{where} {pass_id!r} cannot name a file in the file-system "
                             f"encoding {sys.getfilesystemencoding()!r}") from None


def cmd_synth(args):
    started = _now()
    cfg = _load_config(args.config)
    where = args.config
    for key in cfg:
        if key not in ("base_seed", "errors", "scenarios"):
            raise ValueError(f"{where}: unknown key {key!r}")
    if "scenarios" in cfg:
        ignored = [f"key {key!r}" for key in ("base_seed", "errors") if key in cfg]
        ignored += ["--seed"] if args.seed is not None else []
        if ignored:
            raise ValueError(f"{where}: {' and '.join(ignored)} cannot go with key "
                             "'scenarios': each scenario carries its own seed and errors")
        if not isinstance(cfg["scenarios"], list):
            raise ValueError(f"{where}: key 'scenarios' must be a list")
        base_seed = None
        scenarios = [from_dict(Scenario, d, where, f"scenarios[{k}]")
                     for k, d in enumerate(cfg["scenarios"])]
        _reject_repeats([sc.pass_id for sc in scenarios], f"{where}: key 'scenarios': pass_id")
        _check_file_names((sc.pass_id, f"{where}: scenarios[{k}]: key 'pass_id'")
                          for k, sc in enumerate(scenarios))
    else:
        base_seed = check_type(where, "base_seed", cfg.get("base_seed", 20211218), int)
        source = f"{where}: key 'base_seed'"
        if args.seed is not None:
            base_seed, source = args.seed, "--seed"
        if base_seed < 0:
            raise ValueError(f"{source} must be >= 0, got {base_seed}")
        errors = CATALOG_ERRORS
        if "errors" in cfg:
            if not isinstance(cfg["errors"], dict):
                raise ValueError(f"{where}: key 'errors' must be an object")
            errors = from_dict(SensorErrors,
                               {**dataclasses.asdict(CATALOG_ERRORS), **cfg["errors"]},
                               where, "errors")
        scenarios = default_catalog(base_seed=base_seed, errors=errors)
    if args.eclipse:
        scenarios = [eclipse_variant(sc) for sc in scenarios]
    logs = [synth_pass(sc) for sc in scenarios]  # an infeasible one makes no --out
    outdir = _out_dir(args)
    outputs = []
    for log in logs:
        csv_path, manifest_path = write_passlog(
            log, os.path.join(outdir, f"{log.pass_id}.csv"))
        outputs += [csv_path, records_path_for(csv_path), manifest_path]
        print(f"wrote {csv_path}")
    _write_manifest(outdir, "synth", {"base_seed": base_seed,
                                      "eclipse": bool(args.eclipse),
                                      "config_file": args.config},
                    [], {"base_seed": base_seed}, outputs, started)
    return 0


def cmd_triad(args):
    started = _now()
    css_bias = _css_bias(args.css_bias)
    logs = [read_passlog(p) for p in args.passes]
    _reject_repeats([log.pass_id for log in logs], "pass id")
    _check_file_names((log.pass_id, f"{manifest_path_for(log.csv_path)}: key 'pass_id'")
                      for log in logs)
    priorities = ("sun", "mag") if args.priority == "both" else (args.priority,)
    rows = triad_baseline_report(logs, css_bias=css_bias, priorities=priorities)
    outdir = _out_dir(args)
    outputs = []
    outputs.append(write_text(os.path.join(outdir, "triad_baseline.csv"),
                              render_baseline_csv(rows)))
    for k, log in enumerate(logs):
        for row in rows:
            p = os.path.join(outdir, f"triad_{log.pass_id}_{row['priority']}.csv")
            outputs.append(write_series_csv(p, row["series"][k]))
    for r in rows:
        print(f"priority={r['priority']} rms_att_deg={r['rms_att_deg']:.3f} "
              f"rms_sun_deg={r['rms_sun_deg']:.3f} rms_mag_deg={r['rms_mag_deg']:.3f} "
              f"skipped={r['skipped_steps']} "
              + " ".join(f"{k}={v}" for k, v in r["skip_reasons"].items()))
    _write_manifest(outdir, "triad", {"priority": args.priority}, logs, {}, outputs,
                    started)
    return 0


def _train_inputs(args):
    """``(tc, window, css_bias, logs)`` for ``train`` and ``ablate``, all
    checked before each pass is read, once. ``--config`` may hold the
    ``TrainConfig`` fields and ``window``, but not ``seed``: the seed label
    sets it. The pass ids come from the manifests and must differ, so the
    test pass is not a train pass too."""
    if len(args.passes) != 5:
        raise ValueError(f"{args.command} requires exactly 5 passes: four train, last tests")
    cfg = _load_config(args.config)
    where = args.config
    if "seed" in cfg:
        raise ValueError(f"{where}: key 'seed' is not accepted; the seed label sets it")
    window = check_type(where, "window", cfg.pop("window", 5), int)
    tc = from_dict(TrainConfig, cfg, where)
    source = f"{where}: key 'window'"
    if args.window is not None:
        window, source = args.window, "--window"
    if not 1 <= window <= WINDOW_MAX:
        raise ValueError(f"{source} must be in 1..{WINDOW_MAX}, got {window}")
    css_bias = _css_bias(args.css_bias)
    _reject_repeats([read_manifest(p)[1] for p in args.passes], "pass id")
    return tc, window, css_bias, [read_passlog(p) for p in args.passes]


def _reject_repeats(labels, what):
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"{what} {label!r} is repeated")


def cmd_train(args):
    """One cell of the ablation matrix: ``ablate --resume`` into the same
    directory reuses it. The run manifest goes in the cell directory,
    where ablate's own manifest does not overwrite it."""
    started = _now()
    tc, n, css_bias, logs = _train_inputs(args)
    outdir = _out_dir(args, create=False)
    _, (result,) = run_matrix(logs, [args.case], outdir, seeds=(args.seed,),
                              n=n, tc=tc, css_bias=css_bias, on_cell=_report_cell)
    print(f"case={result.case_id} seed={result.seed_name} "
          f"train_rms_deg={result.train_rms_deg:.3f} "
          f"test_rms_deg={result.test_rms_deg:.3f} "
          f"stop={result.stop_reason} best_epoch={result.best_epoch}")
    cell = os.path.join(outdir, f"{result.case_id}_{result.seed_name}")
    _write_manifest(cell, "train",
                    {"case": args.case, "window": n, "config_file": args.config,
                     "train_config": dataclasses.asdict(tc)},
                    logs, {"seed": args.seed},
                    [os.path.join(cell, name) for name in
                     ("model.bin", "history.csv", "result.json", "inputs.json")], started)
    return 0


def _report_cell(result, epochs, seconds):
    """One stderr progress line per finished cell; ``epochs`` is the length
    of its training history."""
    print(f"cell case={result.case_id} seed={result.seed_name} "
          f"stop={result.stop_reason} epochs={epochs} best_epoch={result.best_epoch} "
          f"divergences={result.divergence_count} seconds={seconds:.1f}",
          file=sys.stderr, flush=True)


def cmd_ablate(args):
    started = _now()
    if args.cases == "all":
        case_ids = list(DEFAULT_CASE_IDS)
    else:
        case_ids = [c.strip() for c in args.cases.split(",") if c.strip()]
        for cid in case_ids:
            case_spec(cid)  # validate early
        _reject_repeats(case_ids, "--cases: label")
    seeds = tuple(s.strip() for s in args.seeds.split(","))
    for s in seeds:
        if s not in SEED_NAMES:
            raise ValueError(f"unknown seed label {s!r}; choose from {SEED_NAMES}")
    _reject_repeats(seeds, "--seeds: label")
    jobs = _usable_cpus() if args.jobs is None else args.jobs
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    tc, n, css_bias, logs = _train_inputs(args)
    outdir = _out_dir(args, create=False)
    tables, results = run_matrix(logs, case_ids, outdir, seeds=seeds, n=n,
                                 jobs=jobs, resume=args.resume, tc=tc,
                                 css_bias=css_bias, on_cell=_report_cell)
    meta = {"cases": case_ids, "seeds": list(seeds), "window": n,
            "train_config": dataclasses.asdict(tc),
            "pass_ids": [log.pass_id for log in logs]}
    paths = write_matrix_reports(tables, results, outdir, meta)
    print(render_tables_markdown(tables))
    _write_manifest(outdir, "ablate", meta, logs, {"seeds": list(seeds)},
                    list(paths.values()), started)
    return 0


def cmd_export(args):
    started = _now()
    log = read_passlog(args.passfile)
    _check_file_names([(log.pass_id, f"{manifest_path_for(log.csv_path)}: key 'pass_id'")])
    models = {}  # the model file's path and the digest of the bytes parsed
    if args.model:
        params, nc, prov, models[args.model] = load_model(args.model)
        series = timeseries_rows(params, nc, prov.case, log, prov.gyro_scale,
                                 css_bias=prov.css_bias)
    outdir = _out_dir(args)
    outputs = []
    if args.model:
        p = os.path.join(outdir, f"errors_{log.pass_id}.csv")
        outputs.append(write_series_csv(p, series))
        print(f"wrote {p}")
    if args.raw or not args.model:
        p = os.path.join(outdir, f"profile_{log.pass_id}.csv")
        outputs.append(write_raw_profile_csv(log, p))
        print(f"wrote {p}")
    _write_manifest(outdir, "export", {"model": args.model, "raw": args.raw}, [log], {},
                    outputs, started, models)
    return 0


def _css_bias(text):
    """The six ``--css-bias`` counts, or None when the option is absent;
    each must be a finite number."""
    if text is None:
        return None
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) != 6 or not all(map(math.isfinite, vals)):
        raise ValueError(f"--css-bias must be six comma-separated finite counts, "
                         f"got {text!r}")
    return vals


def _usable_cpus():
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


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

    p = sub.add_parser("triad", help="TRIAD baseline over one or more passes")
    p.add_argument("passes", nargs="+")
    p.add_argument("--priority", choices=("sun", "mag", "both"), default="both")
    p.add_argument("--css-bias", help="six comma-separated bias counts")
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("train", help="train one case: first four passes train, last tests")
    p.add_argument("passes", nargs="+")
    p.add_argument("--case", required=True)
    p.add_argument("--seed", default="R1", choices=SEED_NAMES)
    p.add_argument("--window", type=int)
    p.add_argument("--css-bias", help="six comma-separated bias counts")
    p.add_argument("--config", help="JSON config (training overrides)")
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("ablate", help="run the case x seed matrix and write reports")
    p.add_argument("passes", nargs="+")
    p.add_argument("--cases", default="all", help="'all' or comma-separated case ids")
    p.add_argument("--seeds", default="R1,R2,R3")
    p.add_argument("--window", type=int)
    # resolved when ablate runs, so a reused parser keeps no CPU count
    p.add_argument("--jobs", type=int,
                   help="parallel worker processes (default: usable CPUs)")
    p.add_argument("--resume", action="store_true",
                   help="reuse (case, seed) cells trained from the same inputs")
    p.add_argument("--css-bias", help="six comma-separated bias counts")
    p.add_argument("--config", help="JSON config (training overrides)")
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("export", help="per-step error series / raw profiles")
    p.add_argument("passfile")
    p.add_argument("--model", help="trained model file")
    p.add_argument("--raw", action="store_true", help="also dump raw CSS/MAG counts")
    p.add_argument("--out", help="output directory")
    return parser


# Built by the first ``main`` call and reused by later ones in the process;
# it holds no data, and no command function: ``main`` looks that up by name.
_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (CaseInfeasibleError, ScenarioInfeasibleError) as e:
        print(f"error: infeasible: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:  # each other type in errors is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
