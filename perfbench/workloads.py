"""The benchmark's workloads: how each builds its inputs, what one round
invokes through ``attlab.cli.main``, and how each invocation's outputs are
checked.

A round is the unit a workload's ``wall_s`` times:

* ``ablate-slice``: one ``attlab ablate``; rounds alternate between the
  catalogs of seeds s and s+1.
* ``baseline-triad``: ``attlab synth`` then ``attlab triad`` for each of
  three catalogs.
* ``export-series``: ``attlab export --raw`` for every pass x model.

The workload seed reaches the program only as ``attlab synth --seed``.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass
from typing import Callable

# Workload seed 0 is the paper's catalog (the CLI's default base seed).
SEED_BASE = 20211218
PASS_ROWS = 362
PASS_IDS = ("P1", "P2", "P3", "P4", "P5")

# C1f has the widest input (21 channels) and stops early; C4f has the
# narrowest (3 channels) and runs to the 240-epoch cap, so it sets the tail.
ABLATE_SLICE_CASES = ("C1f", "C4f")
ABLATE_SLICE_SEEDS = ("R1",)
EXPORT_MODEL_CASES = ("C1a", "C1f", "C4f")
# Inference cost does not depend on how long a model trained.
EXPORT_TRAIN_CONFIG = {"max_epochs": 5}
# Smallest size, for the smoke tests: a few epochs per cell.
SMALL_TRAIN_CONFIG = {"max_epochs": 3}


def usable_cpus():
    """CPUs this process may run on (the CLI's --jobs default is os.cpu_count())."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def invoke(argv):
    """One closed-loop call of ``attlab.cli.main``; returns (exit code, seconds).

    ``main`` is looked up at call time so that a traced wrapper is used
    when one is installed. The command's stdout is discarded.
    """
    from attlab import cli

    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except SystemExit as e:  # argparse rejects bad arguments this way
        code = e.code if isinstance(e.code, int) else 2
    except Exception:  # an uncaught error is a failed invocation, not a crash
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - t0


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _rows(path):
    """CSV rows after the header; raises OSError when the file is missing."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_series(path, header, first_filled=0, optional=()):
    """A per-step CSV: PASS_ROWS rows, t = 0.., finite cells.

    Cells before row ``first_filled`` must be empty; cells in ``optional``
    columns may be empty anywhere (a gap where no measurement exists).
    """
    try:
        head, rows = _rows(path)
    except OSError as e:
        return [f"{path}: {e}"]
    if ",".join(head) != header:
        return [f"{path}: header {head}"]
    if len(rows) != PASS_ROWS:
        return [f"{path}: {len(rows)} rows, expected {PASS_ROWS}"]
    for k, row in enumerate(rows):
        if len(row) != len(head) or row[0] != str(k):
            return [f"{path}: malformed row {k}"]
        for name, cell in zip(head[1:], row[1:]):
            if k < first_filled:
                ok = cell == ""
            else:
                ok = _finite(cell) or (cell == "" and name in optional)
            if not ok:
                return [f"{path}: row {k} column {name} = {cell!r}"]
    return []


PASS_HEADER = ("t,css0,css1,css2,css3,css4,css5,mag0,mag1,mag2,w0,w1,w2,"
               "uSx,uSy,uSz,uBx,uBy,uBz,rx,ry,rz,qx,qy,qz,qw")
TRIAD_SERIES_HEADER = "t,att_err_deg,sun_err_deg,mag_err_deg"
EXPORT_HEADER = "t,att_err_deg,sun_err_deg,mag_err_deg,earth_err_deg"
PROFILE_HEADER = "t,css0,css1,css2,css3,css4,css5,mag0,mag1,mag2"


def check_catalog(catdir):
    problems = []
    for pid in PASS_IDS:
        problems += check_series(os.path.join(catdir, f"{pid}.csv"), PASS_HEADER)
    return problems


def catalog_passes(catdir):
    return [os.path.join(catdir, f"{pid}.csv") for pid in PASS_IDS]


def rms(values):
    return math.sqrt(sum(v * v for v in values) / len(values))


def column(path, name):
    """Finite values of one CSV column."""
    head, rows = _rows(path)
    j = head.index(name)
    return [float(r[j]) for r in rows if r[j] != ""]


@dataclass
class Step:
    """One invocation of the CLI and the check of what it wrote."""

    argv: list
    check: Callable[[], list]  # returns the problems found, empty when none


class Workload:
    """Inputs, rounds and checks of one workload.

    ``small`` selects the smallest size, used by the smoke tests; its
    artifacts are never compared with the recorded digests.
    """

    name = ""
    uses_jobs = False  # whether --jobs changes how a round runs
    min_rounds = 1
    scaled = True  # whether round times are scaled to reference speed

    def __init__(self, workdir, seed, small=False):
        self.workdir = workdir
        self.seed = seed
        self.small = small
        self.setup_dir = os.path.join(workdir, "setup")

    def synth_seed(self, offset=0):
        return str(SEED_BASE + self.seed + offset)

    def setup(self):
        """Build the workload's inputs from scratch; raises on failure."""
        shutil.rmtree(self.setup_dir, ignore_errors=True)
        os.makedirs(self.setup_dir)
        for step in self.setup_steps():
            code, _ = invoke(step.argv)
            problems = [f"exit code {code}"] if code != 0 else step.check()
            if problems:
                raise RuntimeError(f"set-up step {step.argv[0]} failed: {problems}")

    def setup_steps(self):
        raise NotImplementedError

    def steps(self, rdir, jobs, index):
        """Invocations of round number ``index``, writing under ``rdir``."""
        raise NotImplementedError

    def artifacts(self, rdir, index):
        """{key: path} of byte-stable outputs of round ``index``, compared
        by digest; a key names the same artifact in every round."""
        raise NotImplementedError

    def result_rms_deg(self, rdir):
        raise NotImplementedError

    def micro_passes(self):
        """Five pass CSVs made in set-up, for the convnet micro-run."""
        return catalog_passes(os.path.join(self.setup_dir, "cat0"))


class AblateSlice(Workload):
    """Training and the process pool: C1f and C4f at --jobs = usable CPUs,
    with BLAS threads as inherited (the oversubscription users get)."""

    name = "ablate-slice"
    uses_jobs = True
    # The one-CPU calibration does not track this multi-process round: on
    # identical inputs its readings swung 44% where the raw time swung 21%.
    scaled = False
    # One invocation takes ~20 s and its time depends on the catalog (C1f's
    # stop epoch), so a run always covers two catalogs, one per round.
    catalogs = 2
    min_rounds = 2

    def setup_steps(self):
        steps = []
        for i in range(self.catalogs):
            cat = os.path.join(self.setup_dir, f"cat{i}")
            steps.append(Step(["synth", "--seed", self.synth_seed(i), "--out", cat],
                              lambda cat=cat: check_catalog(cat)))
        if self.small:
            with open(os.path.join(self.setup_dir, "train.json"), "w") as f:
                json.dump(SMALL_TRAIN_CONFIG, f)
        return steps

    def _catalog(self, index):
        return os.path.join(self.setup_dir, f"cat{index % self.catalogs}")

    def steps(self, rdir, jobs, index):
        argv = ["ablate", *catalog_passes(self._catalog(index)),
                "--cases", ",".join(ABLATE_SLICE_CASES),
                "--seeds", ",".join(ABLATE_SLICE_SEEDS), "--jobs", str(jobs),
                "--out", rdir]
        if self.small:
            argv += ["--config", os.path.join(self.setup_dir, "train.json")]
        return [Step(argv, lambda: self._check(rdir))]

    def _check(self, rdir):
        path = os.path.join(rdir, "ablation_report.json")
        try:
            with open(path) as f:
                runs = json.load(f)["runs"]
        except (OSError, ValueError, KeyError) as e:
            return [f"{path}: {e}"]
        cells = len(ABLATE_SLICE_CASES) * len(ABLATE_SLICE_SEEDS)
        problems = [] if len(runs) == cells else [f"{len(runs)} cells, expected {cells}"]
        for r in runs:
            if not (math.isfinite(r["train_rms_deg"]) and math.isfinite(r["test_rms_deg"])):
                problems.append(f"cell {r['case_id']}_{r['seed_name']}: non-finite RMS")
            if not os.path.isfile(os.path.join(rdir, r["model_path"])):
                problems.append(f"cell {r['case_id']}_{r['seed_name']}: no model")
        for name in ("ablation_report.md", "ablation_table1.csv"):
            if not os.path.isfile(os.path.join(rdir, name)):
                problems.append(f"missing {name}")
        return problems

    def artifacts(self, rdir, index):
        cat = self._catalog(index)
        tag = os.path.basename(cat)
        out = {f"{tag}/{pid}.csv": os.path.join(cat, f"{pid}.csv") for pid in PASS_IDS}
        for name in sorted(os.listdir(rdir)):
            if name.startswith("ablation_"):
                out[f"{tag}/{name}"] = os.path.join(rdir, name)
        return out

    def result_rms_deg(self, rdir):
        with open(os.path.join(rdir, "ablation_report.json")) as f:
            runs = json.load(f)["runs"]
        return sum(r["test_rms_deg"] for r in runs) / len(runs)


class BaselineTriad(Workload):
    """synth/refmodels per-step generation, passlog writes, per-step TRIAD
    and scalar rotations; never trains, so it is the bypass for every
    training change."""

    name = "baseline-triad"

    @property
    def catalogs(self):
        return 1 if self.small else 3

    def _synth_steps(self, root):
        steps = []
        for i in range(self.catalogs):
            cat = os.path.join(root, f"cat{i}")
            steps.append(Step(["synth", "--seed", self.synth_seed(i), "--out", cat],
                              lambda cat=cat: check_catalog(cat)))
        return steps

    def setup_steps(self):
        # The rounds re-synthesize their catalogs, since synth is part of
        # the timed work; set-up makes them once, which also warms the
        # imports and code paths before timing starts.
        return self._synth_steps(self.setup_dir)

    def steps(self, rdir, jobs, index):
        steps = []
        for i, synth in enumerate(self._synth_steps(rdir)):
            out = os.path.join(rdir, f"triad{i}")
            passes = catalog_passes(os.path.join(rdir, f"cat{i}"))
            steps += [synth, Step(["triad", *passes, "--out", out],
                                  lambda out=out: self._check(out))]
        return steps

    @staticmethod
    def _check(out):
        path = os.path.join(out, "triad_baseline.csv")
        try:
            _, rows = _rows(path)
        except OSError as e:
            return [f"{path}: {e}"]
        problems = []
        if [r[0] for r in rows] != ["sun", "mag"]:
            problems.append(f"{path}: priorities {[r[0] for r in rows]}")
        if not all(_finite(c) for r in rows for c in r[1:]):
            problems.append(f"{path}: non-finite cell")
        for pid in PASS_IDS:
            for pr in ("sun", "mag"):
                problems += check_series(os.path.join(out, f"triad_{pid}_{pr}.csv"),
                                         TRIAD_SERIES_HEADER,
                                         optional=("att_err_deg", "sun_err_deg",
                                                   "mag_err_deg"))
        return problems

    def artifacts(self, rdir, index):
        out = {}
        for i in range(self.catalogs):
            for pid in PASS_IDS:
                out[f"cat{i}/{pid}.csv"] = os.path.join(rdir, f"cat{i}", f"{pid}.csv")
            tri = os.path.join(rdir, f"triad{i}")
            for name in sorted(os.listdir(tri)):
                if name.endswith(".csv"):
                    out[f"triad{i}/{name}"] = os.path.join(tri, name)
        return out

    def result_rms_deg(self, rdir):
        """Pooled TRIAD attitude RMS at the mag priority over all passes."""
        vals = []
        for i in range(self.catalogs):
            for pid in PASS_IDS:
                vals += column(os.path.join(rdir, f"triad{i}", f"triad_{pid}_mag.csv"),
                               "att_err_deg")
        return rms(vals)


class ExportSeries(Workload):
    """convnet forward on whole passes, per-step scalar rotations in
    harness.timeseries_rows, read-heavy passlog."""

    name = "export-series"

    @property
    def catalogs(self):
        return 1 if self.small else 2

    @property
    def cases(self):
        return EXPORT_MODEL_CASES[1:2] if self.small else EXPORT_MODEL_CASES

    @property
    def pass_ids(self):
        return PASS_IDS[:1] if self.small else PASS_IDS

    def model_path(self, case):
        return os.path.join(self.setup_dir, "models", case, f"{case}_R1", "model.bin")

    def setup_steps(self):
        cfg = os.path.join(self.setup_dir, "train.json")
        with open(cfg, "w") as f:
            json.dump(EXPORT_TRAIN_CONFIG, f)
        steps = []
        for i in range(self.catalogs):
            cat = os.path.join(self.setup_dir, f"cat{i}")
            steps.append(Step(["synth", "--seed", self.synth_seed(i), "--out", cat],
                              lambda cat=cat: check_catalog(cat)))
        for case in self.cases:
            out = os.path.join(self.setup_dir, "models", case)
            model = self.model_path(case)
            steps.append(Step(["train", *self.micro_passes(), "--case", case,
                               "--seed", "R1", "--config", cfg, "--out", out],
                              lambda model=model: [] if os.path.isfile(model)
                              else [f"missing {model}"]))
        return steps

    def steps(self, rdir, jobs, index):
        steps = []
        for i in range(self.catalogs):
            for pid in self.pass_ids:
                passfile = os.path.join(self.setup_dir, f"cat{i}", f"{pid}.csv")
                for case in self.cases:
                    out = os.path.join(rdir, case, f"cat{i}")
                    steps.append(Step(
                        ["export", passfile, "--model", self.model_path(case),
                         "--raw", "--out", out],
                        lambda out=out, pid=pid: self._check(out, pid)))
        return steps

    @staticmethod
    def _check(out, pid):
        # No prediction exists before step n-1 (window 5).
        return (check_series(os.path.join(out, f"errors_{pid}.csv"), EXPORT_HEADER,
                             first_filled=4,
                             optional=("sun_err_deg", "mag_err_deg", "earth_err_deg"))
                + check_series(os.path.join(out, f"profile_{pid}.csv"), PROFILE_HEADER))

    def _exports(self, rdir):
        for case in self.cases:
            for i in range(self.catalogs):
                for pid in self.pass_ids:
                    for kind in ("errors", "profile"):
                        key = f"{case}/cat{i}/{kind}_{pid}.csv"
                        yield key, os.path.join(rdir, key)

    def artifacts(self, rdir, index):
        return dict(self._exports(rdir))

    def result_rms_deg(self, rdir):
        """RMS of att_err_deg over every exported row."""
        vals = []
        for key, path in self._exports(rdir):
            if "/errors_" in key:
                vals += column(path, "att_err_deg")
        return rms(vals)


WORKLOADS = {w.name: w for w in (AblateSlice, BaselineTriad, ExportSeries)}


def digests(paths):
    return {key: sha256(p) for key, p in sorted(paths.items())}
