"""Run one workload under several seeds and report each end-to-end
metric's spread: the inter-quartile distance as a share of the median.

Usage, from the repository root::

    python3 perfbench/spread.py --workload baseline-triad --seeds 1-10 [--seconds 30]

Reads ``run_seconds`` from ``BENCHMARK.json`` unless ``--seconds`` is
given; prints each run's metrics as a JSON line, then one summary line
per metric with its median, spread and bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import median, quartile_spread  # noqa: E402


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False, timeout=180)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(json.dumps({"seed": seed, "correct": result["correct"], **row}), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or spread < bound / 3 else "  <-- over bound/3"
        print(f"{args.workload} {name}: median={median(vals):.6g} spread={spread:.4f} "
              f"bound={bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
