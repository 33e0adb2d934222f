"""attlab benchmark: one workload per process, closed-loop CLI invocations.

Run from the repository root::

    python3 perfbench/run.py --workload ablate-slice --seed 0 --seconds 30 --trace 0

Workloads: ``ablate-slice``, ``baseline-triad``, ``export-series`` (see
``workloads.py`` and ``NOTES.md``). Each run builds the workload's inputs
from ``--seed`` (set-up, repeated and timed), then repeats rounds of
``attlab.cli.main`` invocations, one at a time, for about ``--seconds``
and checks every invocation's outputs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics: it runs untraced rounds, then the same rounds with
every public attlab function wrapped in a span (``ablate-slice`` at
``--jobs 1`` so all spans stay in this process), and a convnet micro-run.

A human-readable report goes to stderr; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files go to ``.bench_work/`` under the current directory; the
run's result, environment record and (traced) spans stay in
``.bench_work/results/``.

The benchmark never sets BLAS thread variables: a measured run sees the
inherited environment, so a program-side fix can show.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time

import speed
from layers import PER_LAYER, convnet_micro, span_metrics
from spans import Tracer
from stats import median, summary
from workloads import WORKLOADS, digests, invoke, usable_cpus

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIGESTS = os.path.join(HERE, "reference_digests.json")
WORKDIR = ".bench_work"
SETUP_REPEATS = 3
# ``wall_s``, ``setup_s`` and the other end-to-end metrics, in print order.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"),
              ("success_rate", "ratio"), ("result_rms_deg", "deg"))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="attlab benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="run one round at seed 0 and store its artifact digests "
                         "as the reference")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def git_commit(root):
    """HEAD commit read from .git without running git, or 'unknown'."""
    gitdir = os.path.join(root, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(gitdir, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(gitdir, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root, jobs):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        blas = "see numpy.show_config()"
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": usable_cpus(),
        "os_cpu_count": os.cpu_count(),
        "jobs": jobs,
        "platform": platform.platform(),
    }


class Tally:
    """Invocations attempted and failed, round walls and artifact digests."""

    def __init__(self, reference=None):
        self.attempted = 0
        self.failed = 0
        self.round_walls = []  # at reference speed if the workload is scaled
        self.raw_walls = []  # as measured
        self.calls = {}  # command -> invocation seconds, as round_walls
        self.reference = reference  # recorded digests, if any
        self.first = {}  # artifact -> digest when first written in this run
        self.digests = {}  # artifact -> digest when last written
        self.results = []

    def add_digests(self, digests_now):
        for key, value in digests_now.items():
            self.first.setdefault(key, value)
        self.digests.update(digests_now)

    def identical_artifacts(self):
        """Artifacts whose last digest matches the recorded one, or without
        recorded digests, the one first written in this run."""
        ref = self.reference or self.first
        return sum(1 for k, v in self.digests.items() if ref.get(k) == v)


def run_round(wl, jobs, tally, tracer=None, index=None):
    if index is None:
        index = len(tally.round_walls)
    rdir = os.path.join(wl.workdir, f"round{index}")
    shutil.rmtree(rdir, ignore_errors=True)
    os.makedirs(rdir)
    wall = raw = 0.0
    round_failed = 0
    cal = speed.calibrate() if wl.scaled else None
    for step in wl.steps(rdir, jobs, index):
        if tracer is not None:
            tracer.current_invocation += 1
        code, secs = invoke(step.argv)
        scaled = secs
        if wl.scaled:
            cal_after = speed.calibrate()
            scaled = speed.scale(secs, cal, cal_after)
            cal = cal_after
        wall += scaled
        raw += secs
        tally.attempted += 1
        tally.calls.setdefault(step.argv[0], []).append(scaled)
        problems = [f"exit code {code}"] if code != 0 else step.check()
        if problems:
            round_failed += 1
            log(f"FAILED attlab {step.argv[0]}: {'; '.join(problems[:3])}")
    tally.failed += round_failed
    tally.round_walls.append(wall)
    tally.raw_walls.append(raw)
    if round_failed == 0:
        tally.add_digests(digests(wl.artifacts(rdir, index)))
        tally.results.append(wl.result_rms_deg(rdir))
    shutil.rmtree(rdir)
    return wall


def run_for(wl, jobs, seconds, tally, rounds=None, tracer=None):
    """Rounds until the next one would overrun ``seconds`` (at least the
    workload's ``min_rounds``), or exactly ``rounds`` when given."""
    t0 = time.perf_counter()
    done = 0
    while True:
        run_round(wl, jobs, tally, tracer)
        done += 1
        elapsed = time.perf_counter() - t0
        if rounds is not None:
            if done >= rounds:
                return done
        elif done >= wl.min_rounds and elapsed * (done + 1) / done > seconds:
            return done


def load_reference(wl):
    if wl.seed != 0 or wl.small:
        return None
    try:
        with open(REFERENCE_DIGESTS) as f:
            return json.load(f).get(wl.name)
    except FileNotFoundError:
        return None


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure(wl, seconds):
    """End-to-end run: timed set-ups, then rounds at --jobs = usable CPUs."""
    setups = []
    cal = speed.calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        secs = time.perf_counter() - t0
        cal_after = speed.calibrate()
        setups.append(speed.scale(secs, cal, cal_after))
        cal = cal_after
    tally = Tally(load_reference(wl))
    run_for(wl, usable_cpus(), seconds, tally)
    log(f"setup_s: {summary(setups)}")
    log(f"wall_s per round: {summary(tally.round_walls)}; "
        f"as measured: {summary(tally.raw_walls)}")
    for cmd, secs in tally.calls.items():
        log(f"attlab {cmd} seconds per invocation: {summary(secs)}")
    metrics = {
        "wall_s": median(tally.round_walls),
        "setup_s": median(setups),
        "peak_rss_mib": peak_rss_mib(),
        "success_rate": 1.0 - tally.failed / tally.attempted,
        # Rounds of one workload give the same value unless they cycle
        # catalogs (ablate-slice), so this is the mean over its catalogs;
        # 0 when no round succeeded (the result is then not correct).
        "result_rms_deg": (sum(tally.results) / len(tally.results)
                           if tally.results else 0.0),
    }
    return tally, metrics, END_TO_END


def measure_traced(wl, seconds, spans_path):
    """Per-layer run: untraced rounds at --jobs = usable CPUs, then untraced
    and traced rounds alternating at --jobs 1, so that drift in the
    machine's speed hits both alike."""
    wl.setup()
    jobs = usable_cpus()
    tally = Tally(load_reference(wl))
    cpu0 = children_cpu_s()
    n = run_for(wl, jobs, seconds / 3, tally)
    walls_jobs = list(tally.raw_walls)
    cpu_s = (children_cpu_s() - cpu0) / n
    # An ablate-slice round takes ~15 s at --jobs 1; one traced round is enough.
    pairs = 1 if wl.uses_jobs else n
    tracer = Tracer()
    baseline, traced = [], []
    for i in range(pairs):
        baseline.append(run_round(wl, 1, tally, index=i))
        tracer.install()
        try:
            traced.append(run_round(wl, 1, tally, tracer, index=i))
        finally:
            tracer.uninstall()
    m = span_metrics(tracer, pairs)
    cell_s_sum = m.pop("_cell_s_sum")
    m.update(convnet_micro(wl.micro_passes()))
    m["harness.cpu_s"] = cpu_s
    m["harness.parallel_efficiency"] = (cell_s_sum / (median(walls_jobs) * jobs)
                                        if wl.uses_jobs else 0.0)
    m["trace.overhead_s"] = median(traced) - median(baseline)
    m["check.identical_artifacts"] = tally.identical_artifacts()
    m["check.artifacts"] = len(tally.digests)
    log(f"seconds per round at --jobs {jobs}, as measured: {summary(walls_jobs)}")
    log(f"at --jobs 1, untraced: {summary(baseline)}; traced: {summary(traced)}")
    log(f"{len(tracer)} spans written to {tracer.write(spans_path)}")
    return tally, m, PER_LAYER


def record_digests(wl):
    wl.setup()
    tally = Tally()
    run_for(wl, usable_cpus(), 0, tally, rounds=wl.min_rounds)
    if tally.failed:
        raise RuntimeError("round failed; digests not recorded")
    try:
        with open(REFERENCE_DIGESTS) as f:
            table = json.load(f)
    except FileNotFoundError:
        table = {}
    table[wl.name] = tally.digests
    with open(REFERENCE_DIGESTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"recorded {len(tally.digests)} digests for {wl.name}")


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "attlab", "cli.py")):
        print("perfbench: no ./src/attlab here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workroot = os.path.join(root, WORKDIR)
    wdir = os.path.join(workroot, f"{args.workload}-{os.getpid()}")
    wl = WORKLOADS[args.workload](wdir, args.seed)
    if args.record_digests:
        if args.seed != 0:
            print("perfbench: digests are recorded at seed 0", file=sys.stderr)
            return 2
        try:
            record_digests(wl)
        finally:
            shutil.rmtree(wdir, ignore_errors=True)
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = os.path.join(workroot, "results")
    env = environment(root, usable_cpus())
    log(f"environment: {json.dumps(env, sort_keys=True)}")
    try:
        if args.trace:
            tally, values, table = measure_traced(
                wl, args.seconds, os.path.join(results, f"{tag}.spans.jsonl"))
        else:
            tally, values, table = measure(wl, args.seconds)
    finally:
        shutil.rmtree(wdir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    for name, unit in table:
        log(f"{name:32s} {values[name]:14.6g} {unit}")
    ident = f"{tally.identical_artifacts()}/{len(tally.digests)}"
    ref = "recorded seed-0 digests" if load_reference(wl) else "the run's first round"
    log(f"artifacts identical to {ref}: {ident}; failed {tally.failed} of "
        f"{tally.attempted} invocations (error_rate {tally.failed / tally.attempted:g})")
    out = {"correct": tally.failed == 0 and bool(tally.results),
           "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{tag}.json"), "w") as f:
        json.dump({"environment": env, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "result": out}, f, indent=1)
        f.write("\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
