"""Acceptance suite: one test per criterion, one printed verdict line each.

The ablation matrix (17 cases x 3 seeds) is executed twice by a
module-scoped fixture, at the same time: in-process, and on two worker
processes of a child process. The in-process run feeds the
result-quality criteria and the pair feeds the byte-level determinism
criterion. Run with
``pytest -s tests/test_acceptance.py`` to watch the verdict lines.
"""

import dataclasses
import filecmp
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from attlab.cases import DEFAULT_CASE_IDS, case_spec
from attlab.convnet import NetConfig, TrainConfig, init_params, loss, loss_and_gradient, train
from attlab.features import WindowDataset, attitude_labels, build_frames, build_windows
from attlab.harness import (
    aggregate_case,
    group_tables,
    render_table_csv,
    run_matrix,
    triad_baseline_report,
    write_matrix_reports,
)
from attlab.passlog import read_passlog
from attlab.rotations import (
    angle_between_deg,
    dcm_to_quat,
    mrp_to_quat,
    quat_canonical,
    quat_from_axis_angle,
    quat_rotate,
    quat_to_mrp,
    random_quat,
    rotation_angle_deg,
)
from attlab.triad import triad


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _matrix(logs, out, jobs):
    """The full matrix on ``jobs`` workers, its reports written under
    ``out``; returns (tables, results)."""
    tables, results = run_matrix(logs, list(DEFAULT_CASE_IDS), outdir=out, jobs=jobs)
    meta = {"cases": list(DEFAULT_CASE_IDS), "seeds": ["R1", "R2", "R3"], "window": 5}
    write_matrix_reports(tables, results, out, meta)
    return tables, results


@pytest.fixture(scope="module")
def matrix_env(tmp_path_factory, catalog_dir, catalog_logs):
    """Full ablation matrix, run twice with identical seeds and at the same
    time: at jobs=1 in this process while a child process runs jobs=2, so
    the determinism criterion also spans the worker pool and CPU
    contention. The child is spawned, not forked, because this process
    runs the executor's thread; the jobs=2 pool forks from the child. The
    child runs at niceness +10, so on a 2-core host the serial matrix, the
    longer of the two, keeps a whole core."""
    logs = [read_passlog(p) for p in catalog_dir[1]]
    first, second = (tmp_path_factory.mktemp(f"matrix_{label}")
                     for label in ("first", "second"))
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn,
                             initializer=os.nice, initargs=(10,)) as child:
        pending = child.submit(_matrix, logs, second, 2)
        tables, results = _matrix(logs, first, 1)
        pending.result()
    return {"first": {"out": first, "tables": tables, "results": results},
            "second": {"out": second},
            "triad": triad_baseline_report(catalog_logs),
            "catalog_logs": catalog_logs}


def test_criterion_1_windowing(catalog_logs):
    log = catalog_logs[0]
    frames = build_frames(log)
    labels = attitude_labels(log)
    case = case_spec("C1a")
    n11 = len(build_windows(frames, labels, 11, case))
    n5 = len(build_windows(frames, labels, 5, case))
    _verdict(1, n11 == 352 and n5 == 358,
             f"362 samples: n=11 -> {n11} windows, n=5 -> {n5} windows")


def test_criterion_2_case_catalog():
    c1_counts = [case_spec(f"C1{v}").channel_count for v in "abcdef"]
    ok = c1_counts == [6, 9, 12, 15, 18, 21]
    for spec in map(case_spec, DEFAULT_CASE_IDS):
        if spec.case_id.startswith("C2"):
            ok &= not (set(spec.groups) & {"uB_m", "uB_i"})
        if spec.case_id.startswith("C3"):
            ok &= not (set(spec.groups) & {"uS_c", "uE_c", "uS_i"})
    ok &= case_spec("C4f").channel_count == 3
    _verdict(2, ok, f"C1 channel counts {c1_counts}; C2/C3 exclusions; C4f=3ch")


def test_criterion_3_rotation_math():
    rng = np.random.default_rng(2024)
    q = quat_canonical(random_quat(rng, 1000))
    m = quat_to_mrp(q)
    roundtrip = float(np.max(np.abs(mrp_to_quat(m) - q)))
    back = float(np.max(np.abs(quat_to_mrp(mrp_to_quat(m)) - m)))

    # 0.414214 is tan(22.5 deg) printed to six digits; the sub-1e-6
    # tolerance applies to the exact value, the literal gets 1e-3
    exact = rotation_angle_deg(np.zeros(3), [0.0, 0.0, np.tan(np.radians(22.5))])
    literal = rotation_angle_deg(np.zeros(3), [0.0, 0.0, 0.414214])

    flips = 0.0
    for qq in random_quat(rng, 100):
        flips = max(flips, rotation_angle_deg(quat_to_mrp(qq), quat_to_mrp(-qq)))

    ok = (roundtrip < 1e-12 and back < 1e-12
          and abs(exact - 90.0) < 1e-6 and abs(literal - 90.0) < 1e-3
          and flips == 0.0)
    _verdict(3, ok,
             f"roundtrip {roundtrip:.2e}/{back:.2e}; angle(0,0,tan22.5)="
             f"{exact:.9f}; sign-flip max {flips}")


def test_criterion_4_triad_exactness():
    rng = np.random.default_rng(4242)
    worst_rec = 0.0
    worst_primary = 0.0
    trials = 0
    while trials < 1000:
        q = random_quat(rng)
        v1 = rng.standard_normal(3)
        v2 = rng.standard_normal(3)
        v1 /= np.linalg.norm(v1)
        v2 /= np.linalg.norm(v2)
        if np.linalg.norm(np.cross(v1, v2)) < 0.1:
            continue
        trials += 1
        b1, b2 = quat_rotate(q, v1), quat_rotate(q, v2)
        A = triad(b1, b2, v1, v2)
        err = rotation_angle_deg(quat_to_mrp(dcm_to_quat(A)), quat_to_mrp(q))
        worst_rec = max(worst_rec, err)
        # perturb the secondary 5 degrees; the primary must stay exact
        p = quat_from_axis_angle(rng.standard_normal(3), 5.0)
        A2 = triad(b1, quat_rotate(p, b2), v1, v2)
        worst_primary = max(worst_primary, angle_between_deg(A2 @ v1, b1))
    ok = worst_rec < 1e-9 and worst_primary < 1e-9
    _verdict(4, ok, f"1000 trials: recovery worst {worst_rec:.2e} deg, "
                    f"perturbed-secondary primary residual worst {worst_primary:.2e} deg")


def test_criterion_5_gradient_correctness():
    nc = NetConfig(n=3, channels=6, widths=(4, 8, 4, 3), dropout=0.0, seed=7)
    rng = np.random.default_rng(555)
    params = init_params(nc)
    X = rng.normal(size=(8, nc.n, nc.channels))
    Y = rng.normal(scale=0.2, size=(8, 3))
    _, grads = loss_and_gradient(params, X, Y, nc)
    arrays = params.weights + params.biases
    garrays = grads.weights + grads.biases
    sizes = np.array([a.size for a in arrays])
    cum = np.cumsum(sizes)
    h = 1e-5
    worst = 0.0
    for flat_idx in rng.choice(int(cum[-1]), size=200, replace=True):
        ai = int(np.searchsorted(cum, flat_idx, side="right"))
        idx = np.unravel_index(flat_idx - (cum[ai] - sizes[ai]), arrays[ai].shape)
        orig = arrays[ai][idx]
        arrays[ai][idx] = orig + h
        lp = loss(params, X, Y, nc)
        arrays[ai][idx] = orig - h
        lm = loss(params, X, Y, nc)
        arrays[ai][idx] = orig
        fd = (lp - lm) / (2.0 * h)
        g = garrays[ai][idx]
        worst = max(worst, abs(g - fd) / max(abs(g), abs(fd), 1e-10))
    _verdict(5, worst < 1e-4,
             f"analytic vs central differences over 200 coords: worst rel err {worst:.2e}")


def _toy_ds():
    rng = np.random.default_rng(5)
    return WindowDataset(X=rng.normal(scale=0.05, size=(10, 3, 6)),
                         Y=rng.normal(scale=0.01, size=(10, 3)))


def test_criterion_6_schedule_mechanics():
    ds = _toy_ds()
    nc = NetConfig(n=3, channels=6, seed=1, dropout=0.0)

    # (a) strictly worsening loss stops at the first legal epoch: 80
    _, h_rise = train(ds, nc, TrainConfig(batch_size=5, seed=2),
                      loss_fault=lambda e, lo: 100.0 + 0.1 * e)
    stop_at_80 = h_rise.stop_reason == "early-stop" and h_rise.rows[-1][0] == 80

    # (b) injected divergence: rollback-2, lr x 0.9, optimizer reinit
    snaps = {}
    _, h_div = train(ds, nc, TrainConfig(batch_size=5, seed=2, max_epochs=12),
                     loss_fault=lambda e, lo: float("inf") if e == 9 else lo,
                     on_epoch=lambda e, lo, lr, ev, p: snaps.update({e: (p.copy(), lr, ev)}))
    events = [r for r in h_div.rows if r[3] == "divergence"]
    div_ok = (len(events) == 1 and events[0][0] == 9
              and snaps[9][1] == pytest.approx(TrainConfig().lr * 0.9)
              and all(np.array_equal(a, b) for a, b in
                      zip(snaps[9][0].weights, snaps[7][0].weights)))

    # (c) best-epoch selection equals the argmin of recorded losses
    _, h_nat = train(ds, nc, TrainConfig(batch_size=5, seed=2, max_epochs=60))
    best_ok = h_nat.best_epoch == int(np.argmin([r[1] for r in h_nat.rows])) + 1

    # (d) max-epoch runs are flagged and excluded from the minima
    from attlab.harness import RunResult

    def rr(seed, tr, te, flag):
        return RunResult(case_id="C1a", seed_name=seed, train_rms_deg=tr,
                         test_rms_deg=te, max_epoch_flag=flag, best_epoch=1,
                         stop_reason="max-epoch" if flag else "early-stop",
                         divergence_count=0, gyro_scale=0.5)

    row = aggregate_case("C1a", [rr("R1", 5.0, 9.0, False),
                                 rr("R2", 1.0, 2.0, True),
                                 rr("R3", 6.0, 8.0, False)])
    excl_ok = row.min_train_deg == 5.0 and row.min_test_deg == 8.0

    ok = stop_at_80 and div_ok and best_ok and excl_ok
    _verdict(6, ok, f"early-stop@80={stop_at_80}, divergence mechanics={div_ok}, "
                    f"best-epoch argmin={best_ok}, flag exclusion={excl_ok}")


def test_criterion_7_central_claim(matrix_env):
    triad_rms = min(r["rms_att_deg"] for r in matrix_env["triad"])
    c1 = [r for t in matrix_env["first"]["tables"] for r in t.rows
          if r.case_id.startswith("C1")]
    best_train = min(r.min_train_deg for r in c1 if r.min_train_deg is not None)
    best_test = min(r.min_test_deg for r in c1 if r.min_test_deg is not None)
    ok = triad_rms >= 4.0 and best_train <= 1.5 and best_test <= 0.5 * triad_rms
    _verdict(7, ok,
             f"TRIAD pooled {triad_rms:.2f} deg (>=4); best C1 train "
             f"{best_train:.2f} (<=1.5); best C1 test {best_test:.2f} "
             f"(<= {0.5 * triad_rms:.2f})")


def test_criterion_8_single_sensor_ordering(matrix_env):
    rows = {r.case_id: r for t in matrix_env["first"]["tables"] for r in t.rows}
    details = []
    ok = True
    for single, counterparts in (("C2a", ("C2c", "C2d", "C2e", "C2f")),
                                 ("C3a", ("C3c", "C3d", "C3f"))):
        s = rows[single].combined_deg
        for cid in counterparts:
            v = rows[cid].combined_deg
            good = s is not None and v is not None and s > v
            ok &= good
            details.append(f"{single}({s and round(s, 2)}) > {cid}({v and round(v, 2)}): {good}")
    _verdict(8, ok, "; ".join(details))


def _tree_files(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            p = os.path.join(dirpath, name)
            out[os.path.relpath(p, root)] = p
    return out


def test_criterion_9_determinism(matrix_env):
    a = _tree_files(matrix_env["first"]["out"])
    b = _tree_files(matrix_env["second"]["out"])
    same_names = sorted(a) == sorted(b)
    mismatched = [rel for rel in a
                  if rel in b and not filecmp.cmp(a[rel], b[rel], shallow=False)]
    ok = same_names and not mismatched
    _verdict(9, ok,
             f"{len(a)} artifacts (models, histories, reports) byte-identical "
             f"across --jobs 1 and --jobs 2; mismatches: {mismatched[:5]}")


def test_criterion_10_toy_overfit():
    ds = _toy_ds()
    nc = NetConfig(n=3, channels=6, seed=1, dropout=0.0)
    _, hist = train(ds, nc, TrainConfig(batch_size=10, lr=1e-4, seed=2))
    ok = hist.best_loss < 0.1 and hist.best_epoch <= 240
    _verdict(10, ok, f"10-window set reached {hist.best_loss:.4f} deg "
                     f"at epoch {hist.best_epoch}")


def test_gyro_only_worse_than_best_sun_mag_case(matrix_env):
    # gyro-only attitude regression ranks far behind the full sensor suite
    rows = {r.case_id: r for t in matrix_env["first"]["tables"] for r in t.rows}
    best_c1_test = min(r.min_test_deg for cid, r in rows.items()
                       if cid.startswith("C1") and r.min_test_deg is not None)
    c4f_tests = [r.test_rms_deg for r in matrix_env["first"]["results"]
                 if r.case_id == "C4f"]
    assert min(c4f_tests) > best_c1_test


def test_test_error_peaks_near_sequence_edges(matrix_env):
    # for at least one catalog run the held-out pass's largest attitude
    # error falls in the outer quarter of the sequence
    from attlab.convnet import load_model
    from attlab.harness import timeseries_rows

    out = matrix_env["first"]["out"]
    locs = []
    for sn in ("R1", "R2", "R3"):
        params, nc, prov, _ = load_model(os.path.join(out, f"C1e_{sn}", "model.bin"))
        att = timeseries_rows(params, nc, case_spec("C1e"),
                              matrix_env["catalog_logs"][4],
                              prov.gyro_scale)["att_err_deg"]
        att = att[~np.isnan(att)]
        locs.append(int(np.argmax(att)) / len(att))
    assert any(loc < 0.25 or loc > 0.75 for loc in locs), locs


def test_criterion_11_report_shape(matrix_env):
    out = matrix_env["first"]["out"]
    csv1 = open(os.path.join(out, "ablation_table1.csv")).read()
    header_ok = csv1.splitlines()[0] == (
        "case,train_R1,train_R2,train_R3,min_train(I),"
        "test_R1,test_R2,test_R3,min_test(II),(I)+(II)")
    star_ok = any("*" in line for line in
                  open(os.path.join(out, "ablation_report.md")).read().splitlines())

    # sanity row on known values: 0.7 + 3.0 = 3.7
    from attlab.harness import RunResult

    def rr(seed, tr, te):
        return RunResult(case_id="C1e", seed_name=seed, train_rms_deg=tr,
                         test_rms_deg=te, max_epoch_flag=False, best_epoch=1,
                         stop_reason="early-stop", divergence_count=0,
                         gyro_scale=0.5)

    row = aggregate_case("C1e", [rr("R1", 0.7, 3.0), rr("R2", 2.8, 3.9),
                                 rr("R3", 6.5, 7.3)])
    combined_ok = (row.min_train_deg == 0.7 and row.min_test_deg == 3.0
                   and row.combined_deg == pytest.approx(3.7))
    rendered = render_table_csv(group_tables([row])[0])
    rendered_ok = rendered.splitlines()[1] == "C1e,0.7,2.8,6.5,0.7,3.0,3.9,7.3,3.0,3.7"

    ok = header_ok and star_ok and combined_ok and rendered_ok
    _verdict(11, ok, f"header={header_ok}, star marker={star_ok}, "
                     f"sanity row 0.7+3.0=3.7={combined_ok}, render={rendered_ok}")
