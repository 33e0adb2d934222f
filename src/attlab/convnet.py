"""From-scratch 1-D convolutional attitude regressor.

The network maps an n-step window of C sensor channels to a 3-element
MRP. The convolution kernel spans the whole window and emits a single
step, so the first layer is the window-contracting stage and the model
reduces to an MLP on the flattened window:

    (n*C) -> 64 -> 128 -> 64 -> 3

with ReLU after each hidden transform, a linear output, and 1% dropout
between the last hidden layer and the output during training only.

The loss is the RMS rotation angle (degrees) between predicted and true
MRPs. Backpropagation is derived by hand, including the chain through
the MRP-to-quaternion map and the angle; a finite-difference suite pins
it. Training follows a fixed schedule: Adam, early stopping on trailing
40-epoch mean loss under a 240-epoch cap, and divergence recovery that
rolls parameters back two epochs, decays the learning rate by 0.9, and
reinitializes the optimizer.
"""

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import IncompatibleModelError
from .features import build_windows
from .rotations import mrp_to_quat

DIVERGENCE_FACTOR = 10.0
ANGLE_GUARD_RAD = 1e-7  # gradient-path floor; the loss value is untouched

_MAGIC = b"ATTNET01"


@dataclass(frozen=True)
class NetConfig:
    n: int = 5
    channels: int = 21
    widths: tuple = (64, 128, 64, 3)
    dropout: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n <= 11:
            raise ValueError("window length must be in 1..11")
        if len(self.widths) != 4 or self.widths[-1] != 3:
            raise ValueError("widths must be four layer sizes ending in 3")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")

    @property
    def layer_dims(self):
        return (self.n * self.channels, *self.widths)


@dataclass
class NetParams:
    """Weight/bias pairs for the four affine maps, input to output."""

    weights: list  # [W0 (n*C, 64), W1 (64, 128), W2 (128, 64), W3 (64, 3)]
    biases: list

    def copy(self):
        return NetParams([w.copy() for w in self.weights],
                         [b.copy() for b in self.biases])


def init_params(nc):
    """He-style scaled normal weights, zero biases, seeded."""
    rng = np.random.default_rng(nc.seed)
    dims = nc.layer_dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return NetParams(weights, biases)


def _flatten_windows(X, nc):
    X = np.asarray(X, dtype=float)
    single = X.ndim == 2
    if single:
        X = X[None]
    if X.shape[1:] != (nc.n, nc.channels):
        raise ValueError(
            f"window shape {X.shape[1:]} does not match config ({nc.n}, {nc.channels})")
    return X.reshape(X.shape[0], -1), single


def _forward_cached(params, Xf, dropout_mask=None):
    """Forward pass keeping intermediates for backprop."""
    z0 = Xf @ params.weights[0] + params.biases[0]
    a0 = np.maximum(z0, 0.0)
    z1 = a0 @ params.weights[1] + params.biases[1]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.weights[2] + params.biases[2]
    a2 = np.maximum(z2, 0.0)
    a2d = a2 if dropout_mask is None else a2 * dropout_mask
    y = a2d @ params.weights[3] + params.biases[3]
    return y, (Xf, z0, a0, z1, a1, z2, a2, a2d)


def forward(params, X, nc):
    """Predicted MRP(s) for one window or a stack; inference, no dropout."""
    Xf, single = _flatten_windows(X, nc)
    y, _ = _forward_cached(params, Xf)
    return y[0] if single else y


def _angles_deg(pred, labels):
    """Per-sample rotation angle and the pieces reused by the gradient."""
    qp = mrp_to_quat(pred)
    ql = mrp_to_quat(labels)
    d = np.sum(qp * ql, axis=-1)  # cos(theta/2), signed
    sin_half = np.sqrt(np.maximum(0.0, 1.0 - d * d))
    theta = 2.0 * np.arctan2(sin_half, np.abs(d))
    return np.degrees(theta), d, sin_half


def loss(params, X, Y, nc):
    """RMS rotation angle in degrees over the batch."""
    pred = forward(params, np.asarray(X), nc)
    ang, _, _ = _angles_deg(np.atleast_2d(pred), np.atleast_2d(Y))
    return float(np.sqrt(np.mean(ang * ang)))


def _loss_grad_y(pred, labels):
    """Loss value and its gradient with respect to the predicted MRPs."""
    ang_deg, d, sin_half = _angles_deg(pred, labels)
    N = len(ang_deg)
    L = float(np.sqrt(np.mean(ang_deg * ang_deg)))
    if L == 0.0:
        return L, np.zeros_like(pred)
    # dL/dtheta_deg, with theta floored inside the gradient path only
    dL_dtheta = ang_deg / (N * L)
    denom = np.maximum(sin_half, np.sin(ANGLE_GUARD_RAD / 2.0))
    dtheta_dd = np.degrees(-2.0 * np.sign(d) / denom)
    # d = <q(pred), q(label)>; through the MRP->quaternion map:
    # dd/dsigma = 2 f v_l - 4 f^2 sigma ((sigma . v_l) + w_l),  f = 1/(1+|sigma|^2)
    ql = mrp_to_quat(labels)
    v_l, w_l = ql[:, :3], ql[:, 3]
    s = np.sum(pred * pred, axis=1)
    f = 1.0 / (1.0 + s)
    sv = np.sum(pred * v_l, axis=1)
    dd_dy = 2.0 * f[:, None] * v_l - (4.0 * f * f * (sv + w_l))[:, None] * pred
    return L, (dL_dtheta * dtheta_dd)[:, None] * dd_dy


def _backprop(params, Xf, Y, dropout_mask=None):
    """Loss and hand-derived gradients for a flattened batch."""
    y, cache = _forward_cached(params, Xf, dropout_mask)
    L, g_y = _loss_grad_y(y, Y)
    Xf, z0, a0, z1, a1, z2, a2, a2d = cache

    gW3 = a2d.T @ g_y
    gb3 = g_y.sum(axis=0)
    g = g_y @ params.weights[3].T
    if dropout_mask is not None:
        g = g * dropout_mask
    g = g * (z2 > 0.0)
    gW2 = a1.T @ g
    gb2 = g.sum(axis=0)
    g = (g @ params.weights[2].T) * (z1 > 0.0)
    gW1 = a0.T @ g
    gb1 = g.sum(axis=0)
    g = (g @ params.weights[1].T) * (z0 > 0.0)
    gW0 = Xf.T @ g
    gb0 = g.sum(axis=0)
    return L, NetParams([gW0, gW1, gW2, gW3], [gb0, gb1, gb2, gb3])


def loss_and_gradient(params, X, Y, nc, dropout_mask=None):
    """Hand-derived gradients of the RMS-angle loss for one batch.

    The dropout mask, when given, must already include the 1/keep
    scaling; a fixed mask makes the gradient deterministic for checks.
    """
    Xf, _ = _flatten_windows(X, nc)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    return _backprop(params, Xf, Y, dropout_mask)


@dataclass
class TrainConfig:
    max_epochs: int = 240
    early_stop_window: int = 40
    batch_size: int = 32
    lr: float = 5e-3  # at 1e-3 runs rarely settle inside the epoch cap
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    rollback_depth: int = 2
    lr_decay: float = 0.9
    seed: int = 0  # dropout-mask stream


@dataclass
class TrainHistory:
    rows: list = field(default_factory=list)  # (epoch, loss_deg, lr, event)
    best_epoch: int = -1
    best_loss: float = np.inf
    stop_reason: str = ""
    max_epoch_flag: bool = False
    divergence_count: int = 0

    def losses(self):
        return [r[1] for r in self.rows]

    def to_csv(self, path):
        lines = ["epoch,loss_deg,lr,event"]
        for epoch, lo, lr, event in self.rows:
            lines.append(f"{epoch},{repr(float(lo))},{repr(float(lr))},{event}")
        with open(path, "w", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
        return path


class _Adam:
    def __init__(self, tc):
        self.tc = tc
        self.reset()

    def reset(self):
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params, grads, lr):
        tc = self.tc
        if self.m is None:
            self.m = [np.zeros_like(a) for a in params.weights + params.biases]
            self.v = [np.zeros_like(a) for a in params.weights + params.biases]
        self.t += 1
        c1 = 1.0 - tc.beta1 ** self.t
        c2 = 1.0 - tc.beta2 ** self.t
        arrays = params.weights + params.biases
        gs = grads.weights + grads.biases
        for i, (a, g) in enumerate(zip(arrays, gs)):
            self.m[i] = tc.beta1 * self.m[i] + (1.0 - tc.beta1) * g
            self.v[i] = tc.beta2 * self.v[i] + (1.0 - tc.beta2) * g * g
            a -= lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + tc.eps)


def train(ds, nc, tc, loss_fault=None, on_epoch=None):
    """Train on a window dataset; returns (best params, history).

    Epoch loss is evaluated over the full training set with dropout off.
    Early stop fires when the trailing 40-epoch mean exceeds the previous
    40-epoch mean (so never before epoch 80). A non-finite epoch loss, or
    one above 10x the running best, rolls parameters back two accepted
    epochs, multiplies the learning rate by 0.9, and reinitializes the
    optimizer; such epochs still consume budget but are excluded from
    best-model selection and the early-stop statistic.

    ``loss_fault(epoch, loss) -> loss`` lets tests inject divergence;
    ``on_epoch(epoch, loss, lr, event, params)`` observes each epoch.
    """
    N = len(ds)
    if N < tc.batch_size:
        raise ValueError(
            f"dataset of {N} windows is smaller than one batch ({tc.batch_size})")
    if ds.X.shape[1:] != (nc.n, nc.channels):
        raise ValueError("dataset window shape does not match the net config")

    Xf_all = np.asarray(ds.X, dtype=float).reshape(N, -1)
    Y_all = np.asarray(ds.Y, dtype=float)
    keep = 1.0 - nc.dropout
    rng = np.random.default_rng(tc.seed)

    params = init_params(nc)
    initial = params.copy()
    adam = _Adam(tc)
    lr = tc.lr
    history = TrainHistory()
    checkpoints = []  # params after each accepted epoch, newest last
    accepted_losses = []
    best_params = params.copy()
    n_batches = (N + tc.batch_size - 1) // tc.batch_size
    win = tc.early_stop_window

    for epoch in range(1, tc.max_epochs + 1):
        for b in range(n_batches):
            sl = slice(b * tc.batch_size, min((b + 1) * tc.batch_size, N))
            Xb, Yb = Xf_all[sl], Y_all[sl]
            mask = None
            if nc.dropout > 0.0:
                mask = (rng.random((len(Xb), nc.widths[2])) < keep) / keep
            _, grads = _backprop(params, Xb, Yb, mask)
            adam.step(params, grads, lr)

        y_full, _ = _forward_cached(params, Xf_all)
        ang, _, _ = _angles_deg(y_full, Y_all)
        epoch_loss = float(np.sqrt(np.mean(ang * ang)))
        if loss_fault is not None:
            epoch_loss = float(loss_fault(epoch, epoch_loss))

        diverged = not np.isfinite(epoch_loss) or (
            np.isfinite(history.best_loss)
            and epoch_loss > DIVERGENCE_FACTOR * history.best_loss)
        if diverged:
            history.divergence_count += 1
            target = checkpoints[-tc.rollback_depth] if len(checkpoints) >= tc.rollback_depth else initial
            params = target.copy()
            lr *= tc.lr_decay
            adam.reset()
            history.rows.append((epoch, epoch_loss, lr, "divergence"))
            if on_epoch is not None:
                on_epoch(epoch, epoch_loss, lr, "divergence", params)
            continue

        checkpoints.append(params.copy())
        if len(checkpoints) > max(tc.rollback_depth, 1) + 1:
            checkpoints.pop(0)
        accepted_losses.append(epoch_loss)
        if epoch_loss < history.best_loss:
            history.best_loss = epoch_loss
            history.best_epoch = epoch
            best_params = params.copy()
        history.rows.append((epoch, epoch_loss, lr, ""))
        if on_epoch is not None:
            on_epoch(epoch, epoch_loss, lr, "", params)

        if len(accepted_losses) >= 2 * win:
            recent = np.mean(accepted_losses[-win:])
            previous = np.mean(accepted_losses[-2 * win:-win])
            if recent > previous:
                history.stop_reason = "early-stop"
                break

    if not history.stop_reason:
        history.stop_reason = "max-epoch"
        history.max_epoch_flag = True
    return best_params, history


def predict_pass(params, frames, labels, n, case, nc):
    """Predictions over one pass; no prediction exists before step n-1.

    Returns (steps, predicted MRPs): len(pass) - n + 1 rows aligned to
    the window end times.
    """
    ds = build_windows(frames, labels, n, case)
    pred = forward(params, ds.X, nc)
    steps = np.arange(n - 1, frames.length)
    return steps, pred


# ---------------------------------------------------------------------------
# Model file format: magic, header length, JSON header, raw float64 blocks.
# ---------------------------------------------------------------------------

def save_model(params, nc, path, provenance=None):
    header = {
        "format": 1,
        "n": nc.n,
        "channels": nc.channels,
        "widths": list(nc.widths),
        "dropout": nc.dropout,
        "seed": nc.seed,
        "shapes": [list(a.shape) for a in params.weights + params.biases],
        "provenance": provenance or {},
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for a in params.weights + params.biases:
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return path


def load_model(path):
    """Returns (params, config, provenance); rejects mismatched headers."""
    with open(path, "rb") as f:
        if f.read(len(_MAGIC)) != _MAGIC:
            raise IncompatibleModelError(f"{path} is not a model file")
        (hlen,) = struct.unpack("<I", f.read(4))
        header = json.loads(f.read(hlen).decode())
        nc = NetConfig(n=header["n"], channels=header["channels"],
                       widths=tuple(header["widths"]), dropout=header["dropout"],
                       seed=header["seed"])
        dims = nc.layer_dims
        expect = [[d_in, d_out] for d_in, d_out in zip(dims[:-1], dims[1:])]
        expect += [[d] for d in dims[1:]]
        if header["shapes"] != expect:
            raise IncompatibleModelError(
                f"shape header {header['shapes']} does not match config {expect}")
        arrays = []
        for shape in header["shapes"]:
            count = int(np.prod(shape))
            buf = f.read(count * 8)
            if len(buf) != count * 8:
                raise IncompatibleModelError("model file truncated")
            arrays.append(np.frombuffer(buf, dtype="<f8").reshape(shape).copy())
    k = len(arrays) // 2
    return NetParams(arrays[:k], arrays[k:]), nc, header["provenance"]
