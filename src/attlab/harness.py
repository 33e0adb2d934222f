"""Experiment harness: case x seed training runs and report tables.

Runs the channel-ablation matrix under the fixed protocol (four passes
train, the fifth tests), aggregates per-case minima over seeds with
max-epoch runs excluded, and renders the results as markdown, CSV, and
JSON. Also produces the TRIAD baseline report and per-step time-series
exports for a trained model.
"""

import contextlib
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .cases import case_spec
from .convnet import (SEED_NAMES, NetConfig, Provenance, Seeds, TrainConfig, forward,
                      save_model, train)
from .features import (
    SENSOR_MODELS,
    FeatureFrames,
    attitude_labels,
    build_frames,
    build_windows,
    concat_windows,
    gyro_scale_from_passes,
    sensor_errors_deg,
    shuffle_windows,
)
from .passlog import from_dict, read_json, write_json, write_text
from .rotations import mrp_to_quat, rotation_angle_deg
from .triad import triad_pass_eval


@dataclass
class RunResult:
    case_id: str
    seed_name: str
    train_rms_deg: float
    test_rms_deg: float
    max_epoch_flag: bool
    best_epoch: int
    stop_reason: str
    divergence_count: int
    gyro_scale: float
    model_path: str = ""
    history_path: str = ""


def _score(params, nc, windows):
    """Predicted MRPs of an in-order window set and their attitude errors
    in degrees against its labels."""
    pred = forward(params, windows.X, nc)
    return pred, rotation_angle_deg(pred, windows.Y)


def _pooled_rms(chunks):
    """RMS over all values of ``chunks``; NaN when there are none."""
    sq = np.concatenate([np.square(c) for c in chunks])
    return float(np.sqrt(np.mean(sq))) if len(sq) else float("nan")


def run_case(case_id, seed_name, logs, outdir, n=5, tc=None, css_bias=None):
    """Train one (case, seed) cell on logs[0:4], test on logs[4], and write
    its model, history and result under ``outdir``."""
    if len(logs) != 5:
        raise ValueError(f"expected 5 passes (4 train + 1 test), got {len(logs)}")
    case = case_spec(case_id)
    seeds = Seeds.of(seed_name)
    gyro_scale = gyro_scale_from_passes(logs[:4])
    frames = [build_frames(log, css_bias=css_bias, gyro_scale=gyro_scale)
              for log in logs]
    labels = [attitude_labels(log) for log in logs]

    # the first four passes' windows, shuffled together, are the only copy
    # training holds; each pass's in-order windows are built for scoring
    # after it, and the test pass's once before it too, so a pass that
    # cannot be windowed fails before training, in pass order
    ds = shuffle_windows(concat_windows([build_windows(f, lab, n, case) for f, lab
                                         in zip(frames[:4], labels[:4])]), seed=seeds.shuffle)
    build_windows(frames[4], labels[4], n, case)

    nc = NetConfig(n=n, channels=case.channel_count, seed=seeds.net)
    tc = replace(tc or TrainConfig(), seed=seeds.dropout)
    params, history = train(ds, nc, tc)

    errors = [_score(params, nc, build_windows(f, lab, n, case))[1]
              for f, lab in zip(frames, labels)]

    cell_name = f"{case_id}_{seed_name}"
    cell = os.path.join(str(outdir), cell_name)
    os.makedirs(cell, exist_ok=True)
    save_model(params, nc, os.path.join(cell, "model.bin"), provenance=Provenance(
        case_id=case_id, gyro_scale=gyro_scale, seed_name=seed_name, seeds=seeds,
        train_pass_ids=tuple(log.pass_id for log in logs[:4]),
        test_pass_id=logs[4].pass_id, window=nc.n, css_bias=css_bias))
    history.to_csv(os.path.join(cell, "history.csv"))
    result = RunResult(
        case_id=case_id,
        seed_name=seed_name,
        train_rms_deg=_pooled_rms(errors[:4]),
        test_rms_deg=_pooled_rms(errors[4:]),
        max_epoch_flag=history.max_epoch_flag,
        best_epoch=history.best_epoch,
        stop_reason=history.stop_reason,
        divergence_count=history.divergence_count,
        gyro_scale=gyro_scale,
        # relative to outdir, so reports stay byte-stable
        model_path=os.path.join(cell_name, "model.bin"),
        history_path=os.path.join(cell_name, "history.csv"),
    )
    write_json(os.path.join(cell, "result.json"), asdict(result))
    return result


def _cell_outputs(cell):
    """The bytes of the cell's outputs and their hex SHA-256s, by file name."""
    data = {name: Path(cell, name).read_bytes()
            for name in ("model.bin", "history.csv", "result.json")}
    return data, {name: hashlib.sha256(b).hexdigest() for name, b in data.items()}


def _cell_worker(args):
    """One cell, reused under ``resume`` or trained; returns (result,
    epochs run: the rows of its ``history.csv``, wall s). ``inputs.json``
    is removed before training and written after it, with the outputs'
    digests under ``outputs``, so it never vouches for a half-written cell."""
    started = time.perf_counter()
    logs, outdir, resume, tc, inputs = args
    cell = os.path.join(str(outdir), f"{inputs['case']}_{inputs['seed']}")
    marker = os.path.join(cell, "inputs.json")
    result = None
    with contextlib.suppress(OSError, ValueError):
        if resume:
            data, digests = _cell_outputs(cell)
            if read_json(marker)[0] == {**inputs, "outputs": digests}:
                result = from_dict(RunResult, json.loads(data["result.json"]),
                                   os.path.join(cell, "result.json"))
    if result is None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(marker)
        result = run_case(inputs["case"], inputs["seed"], logs, outdir,
                          n=inputs["window"], tc=tc, css_bias=inputs["css_bias"])
        data, digests = _cell_outputs(cell)
        write_json(marker, {**inputs, "outputs": digests})
    return result, data["history.csv"].count(b"\n") - 1, time.perf_counter() - started


@dataclass
class CaseRow:
    """One case's row of a report table; its fields are the row's keys in
    ``ablation_report.json``."""

    case_id: str
    seeds: tuple  # seed labels, presentation order
    train_rms_deg: list  # per seed
    test_rms_deg: list
    max_epoch_flags: list
    min_train_deg: float | None
    min_test_deg: float | None
    combined_deg: float | None


def aggregate_case(case_id, results, seeds=SEED_NAMES):
    """Fold per-seed results into one table row.

    Max-epoch-flagged runs keep their values (marked) but are excluded
    from the minima; a row with every seed flagged reports no minima.
    """
    by_seed = {r.seed_name: r for r in results}
    train, test, flags = [], [], []
    for name in seeds:
        r = by_seed[name]
        train.append(r.train_rms_deg)
        test.append(r.test_rms_deg)
        flags.append(r.max_epoch_flag)
    ok = [i for i, f in enumerate(flags) if not f]
    min_train = min((train[i] for i in ok), default=None)
    min_test = min((test[i] for i in ok), default=None)
    combined = None if min_train is None else min_train + min_test
    return CaseRow(case_id=case_id, seeds=tuple(seeds), train_rms_deg=train,
                   test_rms_deg=test, max_epoch_flags=flags, min_train_deg=min_train,
                   min_test_deg=min_test, combined_deg=combined)


@dataclass
class ReportTable:
    title: str
    rows: list


def group_tables(rows):
    """Rows into family tables: C1, C2, and C3/C4 together."""
    tables = []
    fams = {"C1": "Case family C1 (Sun + magnetic inputs)",
            "C2": "Case family C2 (no magnetic inputs)",
            "C3": "Case families C3 and C4 (no Sun inputs; gyro only)"}
    for fam in ("C1", "C2", "C3"):
        members = [r for r in rows if r.case_id.startswith(fam)]
        if fam == "C3":
            members += [r for r in rows if r.case_id.startswith("C4")]
        if members:
            tables.append(ReportTable(title=fams[fam], rows=members))
    return tables


def _row_cells(r, blank):
    """A table row's cells: ``*`` marks a max-epoch run and ``blank`` stands
    in for a missing minimum."""
    def cell(value, flag=False):
        return blank if value is None else f"{value:.1f}{'*' if flag else ''}"

    return [r.case_id, *map(cell, r.train_rms_deg, r.max_epoch_flags),
            cell(r.min_train_deg), *map(cell, r.test_rms_deg, r.max_epoch_flags),
            cell(r.min_test_deg), cell(r.combined_deg)]


def _header_for(table):
    seeds = table.rows[0].seeds
    return ("case", *(f"train_{s}" for s in seeds), "min_train(I)",
            *(f"test_{s}" for s in seeds), "min_test(II)", "(I)+(II)")


def render_table_csv(table):
    lines = [",".join(_header_for(table))]
    lines += [",".join(_row_cells(r, "")) for r in table.rows]
    return "\n".join(lines) + "\n"


def render_tables_markdown(tables):
    out = []
    for table in tables:
        header = _header_for(table)
        out.append(f"## {table.title}\n")
        out.append("| " + " | ".join(header) + " |")
        out.append("|" + "---|" * len(header))
        out += ["| " + " | ".join(_row_cells(r, "-")) + " |" for r in table.rows]
        out.append("")
    out.append("`*` = stopped at the max-epoch cap; excluded from the minima.\n")
    return "\n".join(out)


def report_json(tables, results, meta):
    return {"meta": meta, "tables": [asdict(t) for t in tables],
            "runs": [asdict(r) for r in results]}


def run_matrix(logs, case_ids, outdir, seeds=SEED_NAMES, n=5, jobs=1,
               resume=False, tc=None, css_bias=None, on_cell=None):
    """All (case, seed) cells on the five pass ``logs``, each cell in its
    directory under ``outdir``; returns (tables, results) in catalog order.

    ``on_cell(result, epochs, seconds)`` observes each cell, in catalog
    order, as soon as its result arrives; ``epochs`` is the length of the
    cell's training history and ``seconds`` the cell's wall time.
    ``resume`` reuses a cell only when its ``inputs.json`` holds this run's
    inputs (case, seed, window, training config, CSS bias, version, the
    logs' digests; no paths or times) and its outputs' current digests.
    """
    if not case_ids:
        raise ValueError("no cases selected")
    tc = tc or TrainConfig()
    shared = {
        "window": n,
        "train_config": asdict(tc),
        "css_bias": list(css_bias) if css_bias is not None else None,
        "version": __version__,
        "passes": [{"csv": log.csv_sha256, "manifest": log.manifest_sha256}
                   for log in logs],
    }
    tasks = [(logs, outdir, resume, tc, {"case": cid, "seed": sn, **shared})
             for cid in case_ids for sn in seeds]
    workers = min(jobs, len(tasks))
    results = []
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for result, epochs, seconds in mapper(_cell_worker, tasks):
            if on_cell is not None:
                on_cell(result, epochs, seconds)
            results.append(result)
    by_case = {}
    for r in results:
        by_case.setdefault(r.case_id, []).append(r)
    rows = [aggregate_case(cid, by_case[cid], seeds=seeds) for cid in case_ids]
    return group_tables(rows), results


def write_matrix_reports(tables, results, outdir, meta):
    """Markdown + per-table CSV + JSON; byte-stable for fixed inputs."""
    outdir = str(outdir)
    os.makedirs(outdir, exist_ok=True)
    paths = {"markdown": write_text(os.path.join(outdir, "ablation_report.md"),
                                    render_tables_markdown(tables))}
    for i, table in enumerate(tables, start=1):
        paths[f"csv_table{i}"] = write_text(
            os.path.join(outdir, f"ablation_table{i}.csv"), render_table_csv(table))
    paths["json"] = write_json(os.path.join(outdir, "ablation_report.json"),
                               report_json(tables, results, meta))
    return paths


# ---------------------------------------------------------------------------
# TRIAD baseline report
# ---------------------------------------------------------------------------

def triad_baseline_report(logs, css_bias=None, priorities=("sun", "mag")):
    """Pooled attitude/sensor RMS per priority choice over the passes.

    The passes' frames and truth labels are stacked into one catalog, and
    TRIAD is solved once per priority over all of its steps; the Sun and
    field sensor errors, which compare each measurement with the
    truth-rotated model vector, are measured once. Every operation is
    row-wise, so each step gets the bits a pass-by-pass evaluation gives
    it. Each row keeps the catalog's solved and skipped counts, its
    ``skip_reasons`` and, in pass order, each pass's ``series``: its own
    ``t`` and its cut of the catalog's error columns, so they can be
    written without solving again.
    """
    frames = _stack_frames([build_frames(log, css_bias=css_bias) for log in logs])
    labels = np.concatenate([attitude_labels(log) for log in logs])
    q_true = np.concatenate([log.q_true for log in logs])
    sensors = sensor_errors_deg(frames, q_true, np.arange(frames.length),
                                SENSOR_MODELS[:2])
    bounds = np.cumsum([0] + [len(log.t) for log in logs])
    rows = []
    for priority in priorities:
        ev = triad_pass_eval(frames, labels, priority)
        errors = {"att_err_deg": ev.att_err_deg, **sensors}
        rms = {}
        for key in ("att", "sun", "mag"):
            # a skipped or unmeasured step is NaN in the series
            x = errors[f"{key}_err_deg"]
            rms[f"rms_{key}_deg"] = _pooled_rms([x[np.isfinite(x)]])
        rows.append({
            "priority": priority,
            **rms,
            "solved_steps": ev.solved_steps,
            "skipped_steps": ev.skipped_steps,
            "skip_reasons": ev.skip_reasons,
            "series": [{"t": log.t.astype(np.int64),
                        **{col: x[lo:hi] for col, x in errors.items()}}
                       for log, lo, hi in zip(logs, bounds, bounds[1:])],
        })
    return rows


def _stack_frames(frames):
    """One FeatureFrames over the steps of ``frames``, in order."""
    return FeatureFrames(
        pass_id="+".join(f.pass_id for f in frames),
        groups={g: np.concatenate([f.groups[g] for f in frames]) for g in frames[0].groups},
        avail={g: np.concatenate([f.avail[g] for f in frames]) for g in frames[0].avail})


def render_baseline_csv(rows):
    """One line per priority; an RMS over no steps is an empty cell."""
    reasons = list(rows[0]["skip_reasons"])
    lines = [",".join(["priority", "rms_att_deg", "rms_sun_deg", "rms_mag_deg",
                       "solved_steps", "skipped_steps", *reasons])]
    for r in rows:
        rms = ("" if r[key] != r[key] else f"{r[key]:.3f}"
               for key in ("rms_att_deg", "rms_sun_deg", "rms_mag_deg"))
        counts = (r["solved_steps"], r["skipped_steps"], *r["skip_reasons"].values())
        lines.append(",".join([r["priority"], *rms, *map(str, counts)]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Time-series exports
# ---------------------------------------------------------------------------

def timeseries_rows(params, nc, case, log, gyro_scale, css_bias=None):
    """Per-step error series for a trained model on one pass.

    Returns ``t`` and the attitude, Sun, field and Earth error columns as
    ``(L,)`` arrays, keyed by column. Sensor errors compare the measured
    body-frame unit vectors with the model vectors rotated by the
    *predicted* attitude. Steps without a prediction (the first n-1) or
    without a measurement are NaN.
    """
    frames = build_frames(log, css_bias=css_bias, gyro_scale=gyro_scale)
    pred, errors = _score(params, nc, build_windows(frames, attitude_labels(log),
                                                    nc.n, case))
    steps = np.arange(nc.n - 1, frames.length)
    att = np.full(frames.length, np.nan)
    att[steps] = errors
    return {"t": log.t.astype(np.int64), "att_err_deg": att,
            **sensor_errors_deg(frames, mrp_to_quat(pred), steps)}
