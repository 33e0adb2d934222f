"""Experiment harness: case x seed training runs and report tables.

Runs the channel-ablation matrix under the fixed protocol (four passes
train, the fifth tests), aggregates per-case minima over seeds with
max-epoch runs excluded, and renders the results as markdown, CSV, and
JSON. Also produces the TRIAD baseline report and per-step time-series
exports for a trained model.
"""

import contextlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .cases import case_spec
from .convnet import NetConfig, TrainConfig, predict_pass, save_model, train
from .features import (
    attitude_labels,
    build_frames,
    build_windows,
    concat_windows,
    gyro_scale_from_passes,
    shuffle_windows,
)
from .passlog import read_passlog
from .rotations import (
    angle_between_deg,
    mrp_to_quat,
    quat_rotate,
    quat_to_mrp,
    rotation_angle_deg,
)
from .triad import TriadConfig, triad_pass_eval

SEED_NAMES = ("R1", "R2", "R3")
_SEED_VALUES = {"R1": 1, "R2": 2, "R3": 3}


def seed_streams(seed_name):
    """Per-run RNG seeds derived from the run label: (net, shuffle, dropout)."""
    base = _SEED_VALUES[seed_name]
    return base, 1000 + base, 2000 + base


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

    def to_dict(self):
        return asdict(self)


def _pooled_rms(chunks):
    sq = np.concatenate([np.square(c) for c in chunks])
    return float(np.sqrt(np.mean(sq)))


def run_case(case_id, seed_name, logs, n=5, outdir=None, tc=None, css_bias=None):
    """Train one (case, seed) cell on logs[0:4], test on logs[4]."""
    if len(logs) != 5:
        raise ValueError(f"expected 5 passes (4 train + 1 test), got {len(logs)}")
    case = case_spec(case_id)
    net_seed, shuffle_seed, train_seed = seed_streams(seed_name)
    gyro_scale = gyro_scale_from_passes(logs[:4])
    frames = [build_frames(log, css_bias=css_bias, gyro_scale=gyro_scale)
              for log in logs]
    labels = [attitude_labels(log) for log in logs]

    parts = [build_windows(f, lab, n, case) for f, lab in zip(frames[:4], labels[:4])]
    ds = shuffle_windows(concat_windows(parts), seed=shuffle_seed)
    if ds.channels != case.channel_count:
        raise ValueError(
            f"dataset carries {ds.channels} channels, case {case_id} "
            f"defines {case.channel_count}")

    nc = NetConfig(n=n, channels=case.channel_count, seed=net_seed)
    tc = tc or TrainConfig()
    tc = TrainConfig(**{**asdict(tc), "seed": train_seed})
    params, history = train(ds, nc, tc)

    train_chunks = []
    for f, lab in zip(frames[:4], labels[:4]):
        _, pred = predict_pass(params, f, lab, n, case, nc)
        train_chunks.append(rotation_angle_deg(pred, lab[n - 1:]))
    _, pred_test = predict_pass(params, frames[4], labels[4], n, case, nc)
    test_chunk = rotation_angle_deg(pred_test, labels[4][n - 1:])

    result = RunResult(
        case_id=case_id,
        seed_name=seed_name,
        train_rms_deg=_pooled_rms(train_chunks),
        test_rms_deg=_pooled_rms([test_chunk]),
        max_epoch_flag=history.max_epoch_flag,
        best_epoch=history.best_epoch,
        stop_reason=history.stop_reason,
        divergence_count=history.divergence_count,
        gyro_scale=gyro_scale,
    )
    if outdir is not None:
        cell_name = f"{case_id}_{seed_name}"
        cell = os.path.join(str(outdir), cell_name)
        os.makedirs(cell, exist_ok=True)
        provenance = {
            "case_id": case_id,
            "seed_name": seed_name,
            "seeds": {"net": net_seed, "shuffle": shuffle_seed, "dropout": train_seed},
            "gyro_scale": gyro_scale,
            "train_pass_ids": [log.pass_id for log in logs[:4]],
            "test_pass_id": logs[4].pass_id,
            "window": n,
        }
        save_model(params, nc, os.path.join(cell, "model.bin"),
                   provenance=provenance)
        history.to_csv(os.path.join(cell, "history.csv"))
        # paths are stored relative to outdir so reports stay byte-stable
        result.model_path = os.path.join(cell_name, "model.bin")
        result.history_path = os.path.join(cell_name, "history.csv")
        with open(os.path.join(cell, "result.json"), "w", newline="\n") as f:
            json.dump(result.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
    return result


def _cell_worker(args):
    """One cell, reused under ``resume`` or trained; returns (result, wall s)."""
    started = time.perf_counter()
    case_id, seed_name, pass_paths, n, outdir, resume, tc_dict, css_bias = args
    if resume and outdir is not None:
        marker = os.path.join(str(outdir), f"{case_id}_{seed_name}", "result.json")
        if os.path.exists(marker):
            with open(marker) as f:
                return RunResult(**json.load(f)), time.perf_counter() - started
    logs = [read_passlog(p) for p in pass_paths]
    tc = TrainConfig(**tc_dict) if tc_dict else None
    result = run_case(case_id, seed_name, logs, n=n, outdir=outdir, tc=tc,
                      css_bias=css_bias)
    return result, time.perf_counter() - started


@dataclass
class CaseRow:
    case_id: str
    seeds: tuple  # seed labels, presentation order
    train: list  # per seed
    test: list
    flags: list  # max-epoch markers
    min_train: float | None
    min_test: float | None
    combined: float | None


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
    return CaseRow(case_id=case_id, seeds=tuple(seeds), train=train, test=test,
                   flags=flags, min_train=min_train, min_test=min_test,
                   combined=combined)


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


def _cell(value, flag):
    return f"{value:.1f}*" if flag else f"{value:.1f}"


def _min_cell(value):
    return "-" if value is None else f"{value:.1f}"


def _header_for(table):
    seeds = table.rows[0].seeds
    return ("case", *(f"train_{s}" for s in seeds), "min_train(I)",
            *(f"test_{s}" for s in seeds), "min_test(II)", "(I)+(II)")


def render_table_csv(table):
    lines = [",".join(_header_for(table))]
    for r in table.rows:
        cells = [r.case_id]
        cells += [_cell(v, f) for v, f in zip(r.train, r.flags)]
        cells.append("" if r.min_train is None else f"{r.min_train:.1f}")
        cells += [_cell(v, f) for v, f in zip(r.test, r.flags)]
        cells.append("" if r.min_test is None else f"{r.min_test:.1f}")
        cells.append("" if r.combined is None else f"{r.combined:.1f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_tables_markdown(tables):
    out = []
    for table in tables:
        header = _header_for(table)
        out.append(f"## {table.title}\n")
        out.append("| " + " | ".join(header) + " |")
        out.append("|" + "---|" * len(header))
        for r in table.rows:
            cells = [r.case_id]
            cells += [_cell(v, f) for v, f in zip(r.train, r.flags)]
            cells.append(_min_cell(r.min_train))
            cells += [_cell(v, f) for v, f in zip(r.test, r.flags)]
            cells.append(_min_cell(r.min_test))
            cells.append(_min_cell(r.combined))
            out.append("| " + " | ".join(cells) + " |")
        out.append("")
    out.append("`*` = stopped at the max-epoch cap; excluded from the minima.\n")
    return "\n".join(out)


def report_json(tables, results, meta):
    return {
        "meta": meta,
        "tables": [
            {
                "title": t.title,
                "rows": [
                    {
                        "case_id": r.case_id,
                        "seeds": list(r.seeds),
                        "train_rms_deg": r.train,
                        "test_rms_deg": r.test,
                        "max_epoch_flags": r.flags,
                        "min_train_deg": r.min_train,
                        "min_test_deg": r.min_test,
                        "combined_deg": r.combined,
                    }
                    for r in t.rows
                ],
            }
            for t in tables
        ],
        "runs": [r.to_dict() for r in results],
    }


def run_matrix(pass_paths, case_ids, seeds=SEED_NAMES, n=5, outdir=None,
               jobs=1, resume=False, tc=None, css_bias=None, on_cell=None):
    """All (case, seed) cells; returns (tables, results) in catalog order.

    ``on_cell(result, seconds)`` observes each cell, in catalog order, as
    soon as its result arrives; ``seconds`` is the cell's wall time.
    """
    if not case_ids:
        raise ValueError("no cases selected")
    tc_dict = asdict(tc) if tc is not None else None
    css_bias = list(css_bias) if css_bias is not None else None
    tasks = [(cid, sn, list(map(str, pass_paths)), n, outdir, resume, tc_dict,
              css_bias)
             for cid in case_ids for sn in seeds]
    workers = min(jobs, len(tasks))
    results = []
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for result, seconds in mapper(_cell_worker, tasks):
            if on_cell is not None:
                on_cell(result, seconds)
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
    paths = {}
    md = os.path.join(outdir, "ablation_report.md")
    with open(md, "w", newline="\n") as f:
        f.write(render_tables_markdown(tables))
    paths["markdown"] = md
    for i, table in enumerate(tables, start=1):
        p = os.path.join(outdir, f"ablation_table{i}.csv")
        with open(p, "w", newline="\n") as f:
            f.write(render_table_csv(table))
        paths[f"csv_table{i}"] = p
    js = os.path.join(outdir, "ablation_report.json")
    with open(js, "w", newline="\n") as f:
        json.dump(report_json(tables, results, meta), f, indent=2, sort_keys=True)
        f.write("\n")
    paths["json"] = js
    return paths


# ---------------------------------------------------------------------------
# TRIAD baseline report
# ---------------------------------------------------------------------------

def _pooled_finite_rms(series):
    """Pooled RMS over the finite entries; skipped steps are NaN."""
    return _pooled_rms([x[np.isfinite(x)] for x in series])


def triad_baseline_report(logs, css_bias=None, priorities=("sun", "mag")):
    """Pooled attitude/sensor RMS per priority choice over the passes.

    Each row also keeps the per-pass ``evaluations`` it pooled, in pass
    order, so their series can be written without solving again, and
    their ``skip_reasons`` summed over the passes.
    """
    frames = [build_frames(log, css_bias=css_bias) for log in logs]
    rows = []
    for priority in priorities:
        evs = [triad_pass_eval(log, f, TriadConfig(priority=priority))
               for log, f in zip(logs, frames)]
        rows.append({
            "priority": priority,
            "rms_att_deg": _pooled_finite_rms(ev.att_err_deg for ev in evs),
            "rms_sun_deg": _pooled_finite_rms(ev.sun_err_deg for ev in evs),
            "rms_mag_deg": _pooled_finite_rms(ev.mag_err_deg for ev in evs),
            "solved_steps": sum(ev.solved_steps for ev in evs),
            "skipped_steps": sum(ev.skipped_steps for ev in evs),
            "skip_reasons": {reason: sum(ev.skip_reasons[reason] for ev in evs)
                             for reason in evs[0].skip_reasons},
            "evaluations": evs,
        })
    return rows


def render_baseline_csv(rows):
    header = "priority,rms_att_deg,rms_sun_deg,rms_mag_deg,solved_steps,skipped_steps"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['priority']},{r['rms_att_deg']:.3f},{r['rms_sun_deg']:.3f},"
            f"{r['rms_mag_deg']:.3f},{r['solved_steps']},{r['skipped_steps']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Time-series exports
# ---------------------------------------------------------------------------

_SERIES_KEYS = ("att_err_deg", "sun_err_deg", "mag_err_deg", "earth_err_deg")


def timeseries_rows(params, nc, case, log, gyro_scale, css_bias=None):
    """Per-step error series for a trained model on one pass.

    Sensor errors compare the measured body-frame unit vectors with the
    model vectors rotated by the *predicted* attitude. Steps without a
    prediction (the first n-1) or without a measurement yield gaps.
    """
    frames = build_frames(log, css_bias=css_bias, gyro_scale=gyro_scale)
    labels = attitude_labels(log)
    steps, pred = predict_pass(params, frames, labels, nc.n, case, nc)
    q_pred = mrp_to_quat(pred)
    L = len(log.t)
    att = np.full(L, np.nan)
    att[steps] = rotation_angle_deg(pred, quat_to_mrp(log.q_true)[steps])
    series = [att]
    for group, model in (("uS_c", log.uS_i), ("uB_m", log.uB_i),
                         ("uE_c", frames.groups["uE_i"])):
        err = np.full(L, np.nan)
        seen = frames.avail[group][steps]
        k = steps[seen]
        err[k] = angle_between_deg(frames.groups[group][k],
                                   quat_rotate(q_pred[seen], model[k]))
        series.append(err)
    cells = [np.where(np.isnan(x), None, x).tolist() for x in series]
    return [{"t": t, **dict(zip(_SERIES_KEYS, row))}
            for t, *row in zip(log.t.astype(int).tolist(), *cells)]


TIMESERIES_HEADER = "t,att_err_deg,sun_err_deg,mag_err_deg,earth_err_deg"


def write_timeseries_csv(rows, path):
    lines = [TIMESERIES_HEADER]
    for r in rows:
        cells = [str(r["t"])]
        for key in _SERIES_KEYS:
            cells.append("" if r[key] is None else repr(r[key]))
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    return path


def write_raw_profile_csv(log, path):
    """Raw CSS/MAG counts per step, for profile-shape comparisons."""
    lines = ["t,css0,css1,css2,css3,css4,css5,mag0,mag1,mag2"]
    for k in range(len(log.t)):
        cells = [str(int(log.t[k]))]
        cells += [str(int(v)) for v in log.css[k]]
        cells += [str(int(v)) for v in log.mag[k]]
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    return path

