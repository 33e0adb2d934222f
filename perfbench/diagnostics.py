"""One-off sizing diagnostics for the ablation workload (not a workload).

Runs, one after another and each as its own ``python3`` process so that
the BLAS thread variables take effect before numpy loads:

1. the ``ablate-slice`` matrix at ``--jobs`` = usable CPUs, BLAS threads
   as inherited;
2. the same with ``OPENBLAS_NUM_THREADS=1``;
3. the same at ``--jobs 1`` (BLAS as inherited);
4. the full 17-case x 3-seed matrix at ``--jobs 1``;
5. the full matrix at ``--jobs`` = usable CPUs.

Prints one JSON line per run (wall seconds, cells, per-cell seconds, total
epochs) and a summary relating the slice's per-cell time to the full
matrix. Results are recorded by hand in ``perfbench/NOTES.md``.

Usage, from the repository root::

    python3 perfbench/diagnostics.py --out .bench_work/diagnostics [--skip-full]
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import ABLATE_SLICE_CASES, ABLATE_SLICE_SEEDS, SEED_BASE, usable_cpus  # noqa: E402

_MAIN = "import sys; from attlab.cli import main; sys.exit(main(sys.argv[1:]))"


def _attlab(root, argv, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update(env_extra or {})
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _MAIN, *argv], env=env,
                          stdout=subprocess.DEVNULL, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"attlab {argv[0]} exited {proc.returncode}")
    return wall


def _matrix(root, passes, out, label, cases, seeds, jobs, env_extra=None):
    argv = ["ablate", *passes, "--cases", cases, "--seeds", seeds,
            "--jobs", str(jobs), "--out", out]
    wall = _attlab(root, argv, env_extra)
    with open(os.path.join(out, "ablation_report.json")) as f:
        runs = json.load(f)["runs"]
    epochs = 0
    for r in runs:
        with open(os.path.join(out, r["history_path"])) as f:
            epochs += sum(1 for _ in f) - 1
    row = {"run": label, "jobs": jobs, "blas_env": env_extra or "inherited",
           "wall_s": round(wall, 2), "cells": len(runs),
           "wall_per_cell_s": round(wall / len(runs), 3), "epochs": epochs,
           "ms_per_epoch_wall": round(1000 * wall / epochs, 2)}
    print(json.dumps(row), flush=True)
    return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--skip-full", action="store_true",
                    help="only the slice runs (the full matrix takes ~12 min)")
    args = ap.parse_args(argv)
    root = os.getcwd()
    out = os.path.abspath(args.out)
    cat = os.path.join(out, "catalog")
    _attlab(root, ["synth", "--seed", str(SEED_BASE + args.seed), "--out", cat])
    passes = [os.path.join(cat, f"P{k}.csv") for k in range(1, 6)]
    jobs = usable_cpus()
    cases, seeds = ",".join(ABLATE_SLICE_CASES), ",".join(ABLATE_SLICE_SEEDS)
    rows = [
        _matrix(root, passes, os.path.join(out, "slice_jobsN"), "slice", cases,
                seeds, jobs),
        _matrix(root, passes, os.path.join(out, "slice_jobsN_blas1"), "slice",
                cases, seeds, jobs, {"OPENBLAS_NUM_THREADS": "1"}),
        _matrix(root, passes, os.path.join(out, "slice_jobs1"), "slice", cases,
                seeds, 1),
    ]
    if not args.skip_full:
        rows.append(_matrix(root, passes, os.path.join(out, "full_jobs1"), "full",
                            "all", "R1,R2,R3", 1))
        rows.append(_matrix(root, passes, os.path.join(out, "full_jobsN"), "full",
                            "all", "R1,R2,R3", jobs))
    print(json.dumps({"summary": {
        "blas_pinning_speedup": round(rows[0]["wall_s"] / rows[1]["wall_s"], 3),
        "slice_ms_per_epoch_jobs1": rows[2]["ms_per_epoch_wall"],
        **({"full_ms_per_epoch_jobs1": rows[3]["ms_per_epoch_wall"],
            "full_jobsN_speedup": round(rows[3]["wall_s"] / rows[4]["wall_s"], 3)}
           if not args.skip_full else {}),
    }}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
