import hashlib
import tracemalloc

import numpy as np
import pytest

from attlab.cases import case_spec
from attlab.convnet import (
    FLUSH_BELOW,
    FLUSH_EVERY,
    GEMM_ROWS,
    LOSS_ROWS,
    NetConfig,
    NetParams,
    TrainConfig,
    _Adam,
    _loss_grad_y,
    forward,
    init_params,
    load_model,
    loss,
    loss_and_gradient,
    save_model,
    train,
)
from attlab.errors import IncompatibleModelError
from attlab.features import (
    WindowDataset,
    attitude_labels,
    build_frames,
    build_windows,
    concat_windows,
    gyro_scale_from_passes,
    shuffle_windows,
)
from attlab.rotations import mrp_to_quat, quat_from_axis_angle, quat_to_mrp

TINY = NetConfig(n=3, channels=6, widths=(4, 8, 4, 3), dropout=0.0, seed=11)


def zero_params(nc):
    p = init_params(nc)
    return NetParams([np.zeros_like(w) for w in p.weights],
                     [np.zeros_like(b) for b in p.biases])


def toy_dataset(x_scale=0.05, y_scale=0.01, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=x_scale, size=(10, 3, 6))
    Y = rng.normal(scale=y_scale, size=(10, 3))
    return WindowDataset(X=X, Y=Y)


def test_forward_zero_params_returns_output_bias():
    nc = TINY
    p = zero_params(nc)
    p.biases[3][:] = [0.1, -0.2, 0.3]
    rng = np.random.default_rng(0)
    for rows in (1, 5):
        out = forward(p, rng.normal(size=(rows, nc.n, nc.channels)), nc)
        assert np.array_equal(out, [[0.1, -0.2, 0.3]] * rows)


def test_forward_relu_saturation_returns_output_bias():
    # huge negative first-layer bias kills every hidden path
    nc = TINY
    p = init_params(nc)
    p.biases[0][:] = -1e6
    p.biases[1][:] = -1e6
    p.biases[2][:] = -1e6
    p.biases[3][:] = [1.0, 2.0, 3.0]
    out = forward(p, np.random.default_rng(1).normal(size=(1, nc.n, nc.channels)), nc)
    assert np.array_equal(out, [[1.0, 2.0, 3.0]])


def test_forward_deterministic_and_shape_checked():
    nc = TINY
    p = init_params(nc)
    x = np.random.default_rng(2).normal(size=(4, nc.n, nc.channels))
    a = forward(p, x, nc)
    b = forward(p, x, nc)
    assert a.shape == (4, 3) and np.array_equal(a, b)
    with pytest.raises(ValueError):
        forward(p, np.zeros((4, nc.n + 1, nc.channels)), nc)
    with pytest.raises(ValueError):  # one window is a stack of one
        forward(p, x[0], nc)


def test_loss_examples():
    nc = TINY
    p = zero_params(nc)
    X = np.zeros((4, nc.n, nc.channels))
    # predictions equal labels -> 0
    assert loss(p, X, np.zeros((4, 3)), nc) == 0.0
    # identity predictions vs 90-deg-about-z labels -> 90
    z90 = quat_to_mrp(quat_from_axis_angle([0, 0, 1], 90.0))
    Y = np.tile(z90, (4, 1))
    assert abs(loss(p, X, Y, nc) - 90.0) < 1e-9
    # two samples at {0, 2} deg -> sqrt(2)
    two = quat_to_mrp(quat_from_axis_angle([0, 0, 1], 2.0))
    Y2 = np.vstack([np.zeros(3), two])
    assert abs(loss(p, X[:2], Y2, nc) - np.sqrt(2.0)) < 1e-9


def test_gradient_matches_finite_differences():
    # Central-difference oracle over 200 seeded coordinates, h = 1e-5.
    nc = TINY
    rng = np.random.default_rng(123)
    params = init_params(nc)
    X = rng.normal(size=(8, nc.n, nc.channels))
    Y = rng.normal(scale=0.2, size=(8, 3))
    _, grads = loss_and_gradient(params, X, Y, nc)

    arrays = params.weights + params.biases
    garrays = grads.weights + grads.biases
    sizes = np.array([a.size for a in arrays])
    total = sizes.sum()
    h = 1e-5
    worst = 0.0
    # the reduced net has 167 parameters, so 200 draws must repeat some
    coords = rng.choice(total, size=200, replace=True)
    for flat_idx in coords:
        ai = int(np.searchsorted(np.cumsum(sizes), flat_idx, side="right"))
        offset = flat_idx - (np.cumsum(sizes)[ai] - sizes[ai])
        idx = np.unravel_index(offset, arrays[ai].shape)
        orig = arrays[ai][idx]
        arrays[ai][idx] = orig + h
        lp = loss(params, X, Y, nc)
        arrays[ai][idx] = orig - h
        lm = loss(params, X, Y, nc)
        arrays[ai][idx] = orig
        fd = (lp - lm) / (2.0 * h)
        g = garrays[ai][idx]
        rel = abs(g - fd) / max(abs(g), abs(fd), 1e-10)
        worst = max(worst, rel)
    assert worst < 1e-4, f"worst relative error {worst}"


def test_gradient_with_fixed_dropout_mask_matches_fd():
    nc = TINY
    rng = np.random.default_rng(321)
    params = init_params(nc)
    X = rng.normal(size=(6, nc.n, nc.channels))
    Y = rng.normal(scale=0.2, size=(6, 3))
    keep = 0.99
    mask = (rng.random((6, nc.widths[2])) < keep) / keep

    def masked_loss():
        return loss_and_gradient(params, X, Y, nc, dropout_mask=mask)[0]

    _, grads = loss_and_gradient(params, X, Y, nc, dropout_mask=mask)
    h = 1e-5
    W1 = params.weights[1]
    g = grads.weights[1]
    rng2 = np.random.default_rng(7)
    for _ in range(20):
        i, j = rng2.integers(W1.shape[0]), rng2.integers(W1.shape[1])
        orig = W1[i, j]
        W1[i, j] = orig + h
        lp = masked_loss()
        W1[i, j] = orig - h
        lm = masked_loss()
        W1[i, j] = orig
        fd = (lp - lm) / (2.0 * h)
        assert abs(g[i, j] - fd) / max(abs(g[i, j]), abs(fd), 1e-10) < 1e-4


def test_gradient_zero_at_perfect_fit():
    nc = TINY
    p = zero_params(nc)
    p.biases[3][:] = [0.05, -0.02, 0.01]
    X = np.random.default_rng(3).normal(size=(5, nc.n, nc.channels))
    Y = np.tile(p.biases[3], (5, 1))
    L, grads = loss_and_gradient(p, X, Y, nc)
    assert L == 0.0
    for a in grads.weights + grads.biases:
        assert np.all(a == 0.0)


def test_gradient_dead_relu_path_is_zero():
    nc = TINY
    p = init_params(nc)
    p.biases[0][:] = -1e6  # first layer permanently dead
    rng = np.random.default_rng(4)
    X = rng.normal(size=(5, nc.n, nc.channels))
    Y = rng.normal(scale=0.1, size=(5, 3))
    _, grads = loss_and_gradient(p, X, Y, nc)
    assert np.all(grads.weights[0] == 0.0)
    assert np.all(grads.biases[0] == 0.0)
    # output bias still learns
    assert np.any(grads.biases[3] != 0.0)


def test_toy_overfit_under_240_epochs():
    # Sanity fit: close-to-init toy problem, small constant lr, full batch.
    ds = toy_dataset()
    nc = NetConfig(n=3, channels=6, seed=1, dropout=0.0)
    tc = TrainConfig(batch_size=10, lr=1e-4, seed=2)
    _, hist = train(ds, nc, tc)
    assert hist.best_loss < 0.1
    assert hist.best_epoch <= 240


def test_train_rejects_dataset_smaller_than_batch():
    ds = toy_dataset()
    nc = NetConfig(n=3, channels=6, seed=1)
    with pytest.raises(ValueError):
        train(ds, nc, TrainConfig(batch_size=32))


def test_train_deterministic():
    ds = toy_dataset()
    nc = NetConfig(n=3, channels=6, seed=3, dropout=0.01)
    tc = TrainConfig(batch_size=5, lr=1e-3, seed=9, max_epochs=30)
    p1, h1 = train(ds, nc, tc)
    p2, h2 = train(ds, nc, tc)
    assert h1.rows == h2.rows
    assert all(np.array_equal(a, b) for a, b in zip(p1.weights, p2.weights))
    assert all(np.array_equal(a, b) for a, b in zip(p1.biases, p2.biases))


@pytest.mark.parametrize("fault_epoch", [1, 2, 10])
def test_divergence_rollback_mechanism(fault_epoch):
    ds = toy_dataset()
    nc = NetConfig(n=3, channels=6, seed=1, dropout=0.0)
    tc = TrainConfig(batch_size=5, lr=1e-3, seed=2, max_epochs=12)
    snapshots = {}

    def capture(epoch, lo, lr, event, params):
        snapshots[epoch] = (params.copy(), lr, event)

    def fault(epoch, lo):
        return float("nan") if epoch == fault_epoch else lo

    _, hist = train(ds, nc, tc, loss_fault=fault, on_epoch=capture)
    events = [r for r in hist.rows if r[3] == "divergence"]
    assert len(events) == 1 and events[0][0] == fault_epoch
    assert hist.divergence_count == 1
    # learning rate decayed exactly once
    assert snapshots[fault_epoch][1] == pytest.approx(1e-3 * 0.9)
    # parameters rolled back to the checkpoint two accepted epochs earlier;
    # before two epochs were accepted, that is the initial parameters
    rolled, _, ev = snapshots[fault_epoch]
    ref = init_params(nc) if fault_epoch <= 2 else snapshots[fault_epoch - 2][0]
    assert ev == "divergence"
    assert all(np.array_equal(a, b) for a, b in zip(rolled.weights, ref.weights))
    assert all(np.array_equal(a, b) for a, b in zip(rolled.biases, ref.biases))
    # training continued within the same epoch budget
    assert hist.rows[-1][0] == 12


def test_real_fault_takes_rollback():
    # lr=1e300 sends the parameters to inf/NaN within one batch; the epoch
    # loss goes non-finite and the rollback keeps training alive
    ds = toy_dataset()
    nc = NetConfig(n=3, channels=6, seed=1, dropout=0.0)
    best, hist = train(ds, nc, TrainConfig(batch_size=5, lr=1e300, seed=2, max_epochs=10))
    assert hist.divergence_count > 0
    assert not np.isfinite(hist.rows[0][1])
    assert np.all(np.isfinite(best.vec))


def test_divergence_on_loss_blowup():
    ds = toy_dataset()
    nc = NetConfig(n=3, channels=6, seed=1, dropout=0.0)
    tc = TrainConfig(batch_size=5, lr=1e-3, seed=2, max_epochs=12)

    def fault(epoch, lo):
        return lo * 100.0 if epoch == 6 else lo

    _, hist = train(ds, nc, tc, loss_fault=fault)
    assert hist.divergence_count == 1
    assert hist.rows[5][3] == "divergence"


def test_early_stop_never_before_epoch_80():
    # strictly worsening loss trips the rule at the earliest legal epoch
    ds = toy_dataset()
    nc = NetConfig(n=3, channels=6, seed=1, dropout=0.0)
    tc = TrainConfig(batch_size=5, lr=1e-3, seed=2)

    def fault(epoch, lo):
        return 100.0 + 0.1 * epoch

    _, hist = train(ds, nc, tc, loss_fault=fault)
    assert hist.stop_reason == "early-stop"
    assert hist.rows[-1][0] == 80
    assert not hist.max_epoch_flag
    # best = argmin of the recorded series
    losses = [r[1] for r in hist.rows]
    assert hist.best_epoch == int(np.argmin(losses)) + 1


def test_max_epoch_flagged():
    ds = toy_dataset()
    nc = NetConfig(n=3, channels=6, seed=1, dropout=0.0)
    tc = TrainConfig(batch_size=5, lr=1e-3, seed=2, max_epochs=20)
    _, hist = train(ds, nc, tc)
    assert hist.stop_reason == "max-epoch"
    assert hist.max_epoch_flag


def test_best_epoch_loss_not_worse_than_first():
    ds = toy_dataset()
    nc = NetConfig(n=3, channels=6, seed=2, dropout=0.01)
    _, hist = train(ds, nc, TrainConfig(batch_size=5, lr=1e-3, seed=3, max_epochs=60))
    assert hist.best_loss <= hist.rows[0][1]


def _best_at_epoch_3(epoch, lo):
    # a loss that is least at epoch 3, far older than the rollback window,
    # and never 10x the best, so no epoch diverges
    return 1.0 + 0.01 * abs(epoch - 3)


def test_returned_params_are_best_checkpoint():
    ds = toy_dataset()
    nc = NetConfig(n=3, channels=6, seed=1, dropout=0.0)
    tc = TrainConfig(batch_size=5, lr=1e-3, seed=2, max_epochs=50)
    for loss_fault in (None, _best_at_epoch_3):
        snapshots = {}

        def capture(epoch, lo, lr, event, params):
            snapshots[epoch] = params.copy()

        best, hist = train(ds, nc, tc, loss_fault=loss_fault, on_epoch=capture)
        if loss_fault is not None:
            assert hist.best_epoch == 3 and hist.divergence_count == 0
        ref = snapshots[hist.best_epoch]
        assert all(np.array_equal(a, b) for a, b in
                   zip(best.weights + best.biases, ref.weights + ref.biases)), loss_fault


def reference_forward(p, X):
    """The plain inference forward of the windows ``X``: as in
    ``reference_gradient``, the rows are zero-padded to whole ``GEMM_ROWS``
    blocks, then each block goes through one ``x @ W + b`` per layer."""
    Xf = X.reshape(len(X), -1)
    out = []
    for start in range(0, len(Xf), GEMM_ROWS):
        block = Xf[start:start + GEMM_ROWS]
        a = np.zeros((GEMM_ROWS, Xf.shape[1]))
        a[:len(block)] = block
        for k, (W, b) in enumerate(zip(p.weights, p.biases)):
            a = a @ W + b
            if k < len(p.weights) - 1:
                a = np.maximum(a, 0.0)
        out.append(a[:len(block)])
    return np.concatenate(out)


def reference_train(ds, nc, tc):
    """The per-array training loop: Adam over each weight and bias array
    in turn, a dropout draw per batch, and the epoch loss from
    ``reference_forward`` over the whole set. No divergence handling or
    early stop, so keep runs short."""
    rng = np.random.default_rng(tc.seed)
    keep = 1.0 - nc.dropout
    p = init_params(nc)
    m = [np.zeros_like(a) for a in p.weights + p.biases]
    v = [np.zeros_like(a) for a in p.weights + p.biases]
    ql = mrp_to_quat(ds.Y)
    t, rows, best, best_loss = 0, [], None, np.inf
    for epoch in range(1, tc.max_epochs + 1):
        for start in range(0, len(ds), tc.batch_size):
            Xb = ds.X[start:start + tc.batch_size]
            Yb = ds.Y[start:start + tc.batch_size]
            mask = (rng.random((len(Xb), nc.widths[2])) < keep) / keep
            _, g = loss_and_gradient(p, Xb, Yb, nc, dropout_mask=mask)
            t += 1
            c1 = 1.0 - tc.beta1 ** t
            c2 = 1.0 - tc.beta2 ** t
            for i, (a, gi) in enumerate(zip(p.weights + p.biases, g.weights + g.biases)):
                m[i] = tc.beta1 * m[i] + (1.0 - tc.beta1) * gi
                v[i] = tc.beta2 * v[i] + (1.0 - tc.beta2) * gi * gi
                a -= tc.lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + tc.eps)
        d = np.sum(mrp_to_quat(reference_forward(p, ds.X)) * ql, axis=-1)
        ang = np.degrees(2.0 * np.arctan2(np.sqrt(np.maximum(0.0, 1.0 - d * d)), np.abs(d)))
        L = float(np.sqrt(np.mean(ang * ang)))
        rows.append((epoch, L, tc.lr, ""))
        if L < best_loss:
            best, best_loss = p.copy(), L
    return best, rows


def test_train_matches_per_array_reference_bitwise():
    # 100 windows in batches of 32 (the last one short, padded by the
    # forward); the reference's epoch loss pads them to four 32-row blocks.
    # Batches of 5 over 20 epochs take 400 Adam steps, past step 356, from
    # which Adam's c1 = 1 - 0.9**t is exactly 1.0 and the step skips m / c1
    rng = np.random.default_rng(12)
    ds = WindowDataset(X=rng.normal(scale=0.3, size=(100, 3, 6)),
                       Y=rng.normal(scale=0.2, size=(100, 3)))
    nc = NetConfig(n=3, channels=6, seed=4, dropout=0.01)
    for batch_size, max_epochs in ((32, 5), (5, 20)):
        tc = TrainConfig(max_epochs=max_epochs, batch_size=batch_size, seed=6)
        ref_params, ref_rows = reference_train(ds, nc, tc)
        params, hist = train(ds, nc, tc)
        assert hist.rows == ref_rows, batch_size
        assert all(np.array_equal(a, b) for a, b in
                   zip(params.weights + params.biases,
                       ref_params.weights + ref_params.biases)), batch_size
        # each row's prediction, not only their RMS, has the reference's bits
        assert np.array_equal(forward(params, ds.X, nc), reference_forward(params, ds.X))


def test_adam_flushes_small_moments_without_changing_the_update():
    tiny, floor = np.finfo(float).tiny, FLUSH_BELOW
    tc = TrainConfig()
    b1 = tc.beta1
    # after m *= b1 with a zero gradient: subnormal, below, at and just
    # above the flush floor, and just above tiny
    edge = np.array([5e-324, tiny * 0.5, floor * 0.5, floor / b1,
                     floor / b1 * (1 + 1e-15), floor * 1.2, tiny / b1 * 1.01,
                     -floor / b1, -floor * 0.5, -tiny * 0.5, 0.0])
    rng = np.random.default_rng(3)
    size = 2 * len(edge)
    m0 = np.concatenate([edge, rng.normal(scale=1e-3, size=len(edge))])
    v0 = np.concatenate([np.zeros(3), rng.uniform(1e-12, 1e-6, size - 3)])
    p0 = rng.normal(size=size)
    adam = _Adam(tc, size)
    adam.m[:], adam.v[:], adam.t = m0, v0, FLUSH_EVERY - 1
    vec = p0.copy()
    m, v, p = m0.copy(), v0.copy(), p0.copy()
    subnormal_seen = False
    # zero gradients on the edge entries through the flush step and up to
    # the next one, then a gradient on every entry
    dead = np.concatenate([np.zeros(len(edge)), np.ones(len(edge))])
    grads = [rng.normal(scale=1e-4, size=size) * dead for _ in range(FLUSH_EVERY + 1)]
    grads.append(rng.normal(scale=1e-4, size=size))
    for t, g in enumerate(grads, start=FLUSH_EVERY):
        adam.step(vec, g, tc.lr)
        c1 = 1.0 - tc.beta1 ** t
        c2 = 1.0 - tc.beta2 ** t
        m = tc.beta1 * m + (1.0 - tc.beta1) * g
        v = tc.beta2 * v + (1.0 - tc.beta2) * g * g
        p -= tc.lr * (m / c1) / (np.sqrt(v / c2) + tc.eps)
        subnormal_seen |= np.any((m != 0.0) & (np.abs(m) < tiny))
        assert np.all((adam.m == 0.0) | (np.abs(adam.m) >= tiny)), t
        assert np.array_equal(vec, p), t
        if t == FLUSH_EVERY:
            kept = np.abs(m) >= floor
            assert np.array_equal(adam.m[kept], m[kept])
            assert np.all(adam.m[~kept] == 0.0) and not kept[:3].any() and kept[3:5].all()
    assert subnormal_seen  # the unflushed moments went subnormal


@pytest.fixture(scope="module")
def stacked_predictions():
    """Per (channels, window): params, 1472 random windows, and their
    predictions by ``reference_forward`` over the whole set."""
    out = {}
    for channels in (3, 6, 15, 21):
        for n in (1, 5, 11):
            nc = NetConfig(n=n, channels=channels, seed=channels + n)
            p = init_params(nc)
            X = np.random.default_rng(n * channels).normal(size=(1472, n, channels))
            ref = reference_forward(p, X)
            out[channels, n] = nc, p, X, ref
    return out


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 24, 31, 32, 33, 353, 358, 1432])
def test_forward_rows_match_whole_set_forward_bitwise(stacked_predictions, rows):
    # a window's prediction has the same bits in a stack of any length and
    # at any offset: rows pad to whole GEMM_ROWS blocks, so every row is
    # predicted in a GEMM of the same shape, never a matrix-vector product
    for (channels, n), (nc, p, X, ref) in stacked_predictions.items():
        assert np.array_equal(forward(p, X, nc), ref), (channels, n)
        for offset in (0, 7, 40):
            out = forward(p, X[offset:offset + rows], nc)
            assert np.array_equal(out, ref[offset:offset + rows]), (channels, n, offset)


@pytest.mark.parametrize("rows", [LOSS_ROWS - 1, LOSS_ROWS, LOSS_ROWS + 1, 1432])
def test_chunked_loss_matches_whole_set_loss_bitwise(stacked_predictions, rows):
    # the loss forwards LOSS_ROWS rows at a time; its value has the bits of
    # the angles of one whole-set forward, reduced once
    nc, p, X, ref = stacked_predictions[21, 5]
    Y = np.random.default_rng(rows).normal(scale=0.2, size=(rows, 3))
    d = np.sum(mrp_to_quat(ref[:rows]) * mrp_to_quat(Y), axis=-1)
    ang = np.degrees(2.0 * np.arctan2(np.sqrt(np.maximum(0.0, 1.0 - d * d)), np.abs(d)))
    assert loss(p, X[:rows], Y, nc) == float(np.sqrt(np.mean(ang * ang)))


def test_one_window_gets_its_row_of_the_pass_prediction(catalog_logs):
    log = catalog_logs[4]
    case = case_spec("C1f")
    frames = build_frames(log, gyro_scale=gyro_scale_from_passes(catalog_logs[:4]))
    windows = build_windows(frames, attitude_labels(log), 5, case)
    nc = NetConfig(n=5, channels=case.channel_count, seed=3)
    p = init_params(nc)
    pred = forward(p, windows.X, nc)
    assert len(pred) == 358
    for k in range(len(pred)):
        assert np.array_equal(forward(p, windows.X[k:k + 1], nc), pred[k:k + 1]), k


def test_train_holds_no_copy_of_its_windows(catalog_logs):
    # C1f, the widest case, on the catalog's four training passes as a
    # cell trains them: 1,432 windows of 105 values, 1.2 MB
    case = case_spec("C1f")
    gyro_scale = gyro_scale_from_passes(catalog_logs[:4])
    ds = shuffle_windows(concat_windows([
        build_windows(build_frames(log, gyro_scale=gyro_scale), attitude_labels(log), 5, case)
        for log in catalog_logs[:4]]), seed=1001)
    nc = NetConfig(n=5, channels=case.channel_count, seed=1)
    tracemalloc.start()
    try:
        train(ds, nc, TrainConfig(max_epochs=2, seed=2001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # what train must hold: an epoch's dropout masks; parameter-sized
    # vectors (params, grads, initial, best, three checkpoints, Adam's m, v
    # and two scratch vectors, and one spare); one loss chunk's activations
    param_bytes = init_params(nc).vec.nbytes
    bound = (len(ds) * nc.widths[2] * 8 + 12 * param_bytes
             + LOSS_ROWS * sum(nc.layer_dims) * 8)
    assert peak < bound, (peak, bound)


def reference_gradient(p, X, Y, dropout_mask=None):
    """The plain backprop of at most ``GEMM_ROWS`` rows: one ``x @ W + b``
    per layer, keeping the pre-activations ``z`` for the ReLU gates, and
    the chain back through the four affine maps. As in the network's
    forward, the rows are zero-padded to one ``GEMM_ROWS``-row GEMM, so a
    row's bits do not depend on how many rows are stacked with it; dropout
    and the chain back read only the real rows. The output-side gradient
    comes from ``_loss_grad_y``, which the finite-difference tests pin.
    Returns the loss and the gradient in ``NetParams.vec`` order."""
    rows = len(X)
    Xf = np.zeros((GEMM_ROWS, X[0].size))
    Xf[:rows] = X.reshape(rows, -1)
    z0 = Xf @ p.weights[0] + p.biases[0]
    a0 = np.maximum(z0, 0.0)
    z1 = a0 @ p.weights[1] + p.biases[1]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ p.weights[2] + p.biases[2]
    a2 = np.maximum(z2, 0.0)
    if dropout_mask is not None:
        a2[:rows] *= dropout_mask
    y = (a2 @ p.weights[3] + p.biases[3])[:rows]
    L, g = _loss_grad_y(y, mrp_to_quat(Y))
    inputs = (Xf[:rows], a0[:rows], a1[:rows], a2[:rows])
    pre = (z0[:rows], z1[:rows], z2[:rows])
    gw, gb = [None] * 4, [None] * 4
    for k in (3, 2, 1, 0):
        gw[k] = inputs[k].T @ g
        gb[k] = g.sum(axis=0)
        if k == 0:
            break
        g = g @ p.weights[k].T
        if k == 3 and dropout_mask is not None:
            g = g * dropout_mask
        g = g * (pre[k - 1] > 0.0)
    return L, np.concatenate([a.ravel() for a in gw + gb])


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("rows", [1, 5, 31, 32])
def test_gradient_matches_plain_backprop_bitwise(rows, masked):
    nc = NetConfig(n=5, channels=21, seed=7)
    p = init_params(nc)
    rng = np.random.default_rng(rows)
    X = rng.normal(size=(rows, nc.n, nc.channels))
    Y = rng.normal(scale=0.2, size=(rows, 3))
    mask = (rng.random((rows, nc.widths[2])) < 0.8) / 0.8 if masked else None
    L, grads = loss_and_gradient(p, X, Y, nc, dropout_mask=mask)
    ref_L, ref_g = reference_gradient(p, X, Y, dropout_mask=mask)
    assert L == ref_L
    assert np.array_equal(grads.vec, ref_g)
    assert np.any(grads.weights[0] != 0.0)


def test_netparams_views_share_one_vector():
    p = init_params(TINY)
    assert p.vec.size == sum(a.size for a in p.weights + p.biases)
    p.weights[1][2, 3] = 7.0
    p.biases[3][:] = -1.0
    offset = p.weights[0].size + 2 * p.weights[1].shape[1] + 3
    assert p.vec[offset] == 7.0
    assert np.all(p.vec[-3:] == -1.0)
    q = p.copy()
    q.vec[:] = 0.0
    assert p.vec[offset] == 7.0 and np.all(q.weights[1] == 0.0)
    rebuilt = NetParams(p.weights, p.biases)
    assert np.array_equal(rebuilt.vec, p.vec) and rebuilt.vec is not p.vec


def test_dropout_inference_invariance():
    # same params, dropout on or off in config: inference identical
    nc_drop = NetConfig(n=3, channels=6, seed=5, dropout=0.01)
    nc_plain = NetConfig(n=3, channels=6, seed=5, dropout=0.0)
    p = init_params(nc_drop)
    x = np.random.default_rng(6).normal(size=(7, 3, 6))
    assert np.array_equal(forward(p, x, nc_drop), forward(p, x, nc_plain))


def test_history_csv(tmp_path):
    ds = toy_dataset()
    nc = NetConfig(n=3, channels=6, seed=1, dropout=0.0)
    _, hist = train(ds, nc, TrainConfig(batch_size=5, max_epochs=10, seed=2))
    p = tmp_path / "hist.csv"
    hist.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "epoch,loss_deg,lr,event"
    assert len(lines) == 11


def test_save_load_roundtrip(tmp_path, make_provenance):
    nc = NetConfig(n=5, channels=12, seed=2)
    p = init_params(nc)
    path = tmp_path / "model.bin"
    provenance = make_provenance("C1c", gyro_scale=0.5, seed_name="R2")
    save_model(p, nc, path, provenance)
    p2, nc2, prov, digest = load_model(path)
    assert nc2 == nc
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert prov == provenance
    assert prov.case_id == "C1c"
    assert prov.gyro_scale == 0.5
    assert all(np.array_equal(a, b) for a, b in zip(p.weights, p2.weights))
    assert all(np.array_equal(a, b) for a, b in zip(p.biases, p2.biases))
    # the loaded arrays are writable views into the loaded vector
    p2.weights[0][0, 0] = 5.0
    assert p2.vec[0] == 5.0
    p2.weights[0][0, 0] = p.weights[0][0, 0]
    # forward bit-identical on 100 seeded windows
    x = np.random.default_rng(9).normal(size=(100, nc.n, nc.channels))
    assert np.array_equal(forward(p, x, nc), forward(p2, x, nc2))
    # file-level determinism
    path2 = tmp_path / "model2.bin"
    save_model(p, nc, path2, provenance)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_tampered_header(tmp_path, make_provenance):
    nc = NetConfig(n=5, channels=12, seed=1)
    p = init_params(nc)
    path = tmp_path / "model.bin"
    save_model(p, nc, path, make_provenance("C1c"))
    raw = path.read_bytes()
    # shape header says channels=12; lie about it
    tampered = raw.replace(b'"channels": 12', b'"channels": 15')
    bad = tmp_path / "bad.bin"
    bad.write_bytes(tampered)
    with pytest.raises(IncompatibleModelError):
        load_model(bad)
    with pytest.raises(IncompatibleModelError):
        notmodel = tmp_path / "x.bin"
        notmodel.write_bytes(b"garbagegarbage")
        load_model(notmodel)
