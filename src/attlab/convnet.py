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

Cost is kept flat and on the calling thread. Training batches,
inference (``forward``) and the RMS-angle loss
(``loss`` and the per-epoch full-set loss) share one forward that pads
the rows to whole 32-row blocks, GEMMs small enough that OpenBLAS never
wakes its helper threads, so a window's prediction has the same bits in
any stack; backprop reads the input of each affine map that this
forward keeps, without the padding. The RMS-angle loss forwards its
rows in 256-row chunks, so training holds no padded copy of its windows
and no full-set activations. Each epoch draws its
dropout masks in one call. Adam flushes tiny first moments to zero,
since the moments of dead-ReLU weights otherwise decay into subnormals
and slow every later step; the flush does not change the parameters'
bits.
"""

import hashlib
import json
import math
import struct
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .cases import case_spec
from .errors import IncompatibleModelError
from .features import WINDOW_MAX
from .passlog import check_numbers, check_pass_id, from_dict, to_dict, write_text
from .rotations import _mrp_to_quat, mrp_to_quat

DIVERGENCE_FACTOR = 10.0
# Rows per GEMM. OpenBLAS runs a GEMM on the calling thread while
# M*N*K <= 4*65536, which 32 rows keep for every layer while n*C <= 128.
GEMM_ROWS = 32
LOSS_ROWS = 8 * GEMM_ROWS  # rows per forward of the RMS-angle loss
ANGLE_GUARD_RAD = 1e-7  # gradient-path floor; the loss value is untouched
# _Adam zeroes first moments below FLUSH_BELOW every FLUSH_EVERY steps;
# 2**-960 is 2**62 times the smallest normal double.
FLUSH_EVERY = 16
FLUSH_BELOW = 2.0 ** -960

_MAGIC = b"ATTNET01"


@dataclass(frozen=True)
class NetConfig:
    n: int = 5
    channels: int = 21
    widths: tuple = (64, 128, 64, 3)
    dropout: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n <= WINDOW_MAX:
            raise ValueError(f"window length must be in 1..{WINDOW_MAX}")
        if self.channels < 1:
            raise ValueError("channel count must be >= 1")
        if (len(self.widths) != 4 or self.widths[-1] != 3
                or not all(type(w) is int and w >= 1 for w in self.widths)):
            raise ValueError("widths must be four positive int layer sizes ending in 3")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")

    @property
    def layer_dims(self):
        return (self.n * self.channels, *self.widths)


SEED_NAMES = ("R1", "R2", "R3")


@dataclass
class Seeds:
    """A cell's RNG seeds; seed label Rk gives net k, shuffle 1000 + k, dropout 2000 + k."""

    net: int
    shuffle: int
    dropout: int

    @classmethod
    def of(cls, seed_name):
        k = SEED_NAMES.index(seed_name) + 1
        return cls(net=k, shuffle=1000 + k, dropout=2000 + k)


@dataclass
class Provenance:
    """A model file's ``provenance``, as ``run_case`` writes it; ``case`` is its case's spec.
    Every key is required except ``css_bias``."""

    case_id: str
    gyro_scale: float  # the training passes' gyro scale, > 0
    seed_name: str
    seeds: Seeds
    train_pass_ids: tuple
    test_pass_id: str
    window: int
    css_bias: tuple = None  # the six counts subtracted from the CSS readings

    def __post_init__(self):
        try:
            self.case = case_spec(self.case_id)
        except ValueError as e:
            raise ValueError(f"key 'case_id': {e}") from None
        if not self.gyro_scale > 0:
            raise ValueError(f"key 'gyro_scale' must be > 0, got {self.gyro_scale!r}")
        if self.css_bias is not None:
            check_numbers("css_bias", self.css_bias, 6)
        if self.seed_name not in SEED_NAMES:
            raise ValueError(f"key 'seed_name' must be one of {SEED_NAMES}, "
                             f"got {self.seed_name!r}")
        if self.seeds != Seeds.of(self.seed_name):
            raise ValueError(f"key 'seeds' {asdict(self.seeds)} are not those of key "
                             f"'seed_name' {self.seed_name!r}")
        ids = self.train_pass_ids
        for pass_id in ids:
            check_pass_id("an item of key 'train_pass_ids'", pass_id)
        if not len(ids) == len(set(ids)) == 4:
            raise ValueError(f"key 'train_pass_ids' must be four distinct pass ids, got {ids}")
        check_pass_id("key 'test_pass_id'", self.test_pass_id)
        if self.test_pass_id in ids:
            raise ValueError(f"key 'test_pass_id' {self.test_pass_id!r} is in 'train_pass_ids'")


@dataclass
class ModelHeader:
    """A model file's JSON header, every key required; ``config`` is its ``NetConfig``.
    Its ``channels``, ``n`` and ``seed`` must be its provenance's case's channel count,
    window and ``seeds.net``."""

    format: int
    n: int
    channels: int
    widths: tuple
    dropout: float
    seed: int
    shapes: tuple
    provenance: Provenance

    def __post_init__(self):
        if self.format != 1:
            raise ValueError(f"key 'format' must be 1, got {self.format!r}")
        self.config = NetConfig(self.n, self.channels, self.widths, self.dropout, self.seed)
        d = self.config.layer_dims  # shapes W0..W3, then b0..b3, each of ints
        need = [[i, o] for i, o in zip(d, d[1:])] + [[o] for o in d[1:]]
        if list(self.shapes) != need or {type(v) for s in self.shapes for v in s} != {int}:
            raise ValueError(f"key 'shapes' must be {need}, got {self.shapes}")
        prov = self.provenance
        for what, value, key in (
                (f"case {prov.case_id}'s channel count", prov.case.channel_count, "channels"),
                ("provenance key 'window'", prov.window, "n"),
                ("provenance key 'seeds.net'", prov.seeds.net, "seed")):
            if value != getattr(self, key):
                raise ValueError(f"{what} is {value}, but key {key!r} is {getattr(self, key)}")


class NetParams:
    """Weight/bias pairs for the four affine maps, input to output.

    ``weights`` and ``biases`` are views into one contiguous float64
    vector ``vec``, laid out W0, W1, W2, W3, b0, b1, b2, b3 (the model
    file's block order), so writing through a view changes ``vec`` and
    a whole-model copy or update is one vector operation.
    """

    def __init__(self, weights, biases):
        arrays = [np.asarray(a, dtype=float) for a in (*weights, *biases)]
        self._bind(np.concatenate([a.ravel() for a in arrays]),
                   [a.shape for a in arrays])

    @classmethod
    def from_vector(cls, vec, shapes):
        """Views over ``vec`` (not copied) for arrays of the given shapes."""
        p = cls.__new__(cls)
        p._bind(vec, shapes)
        return p

    def _bind(self, vec, shapes):
        self.vec = vec
        views, start = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(vec[start:start + size].reshape(shape))
            start += size
        k = len(views) // 2
        self.weights, self.biases = views[:k], views[k:]

    @property
    def shapes(self):
        return [a.shape for a in self.weights + self.biases]

    def copy(self):
        return NetParams.from_vector(self.vec.copy(), self.shapes)


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
    """A stack of windows, ``(N, n, channels)``, as ``(N, n*channels)`` rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[1:] != (nc.n, nc.channels):
        raise ValueError(f"windows of shape {X.shape} are not a stack of "
                         f"({nc.n}, {nc.channels}) windows")
    return X.reshape(len(X), -1)


def _blocked_forward(params, a, dropout_mask=None, acts=None):
    """Forward pass of the flattened rows ``a``; returns the output rows.

    ``dropout_mask``, when given, scales the last hidden layer's output
    (training). ``acts``, when given, receives each affine map's input,
    first to last, for backprop: views of the real rows.

    The rows are zero-padded once to whole ``GEMM_ROWS``-row blocks, and
    each affine map is one stacked ``matmul`` of ``GEMM_ROWS``-row GEMMs,
    each small enough to stay on the calling thread. Every row is thus
    predicted in a GEMM of the same shape, so its bits do not depend on
    the stack it is predicted in: a window gets the same bits in a stack
    of any length, alone included.
    """
    rows = len(a)
    if rows % GEMM_ROWS:
        a = np.concatenate([a, np.zeros((-rows % GEMM_ROWS, a.shape[1]))])
    last = len(params.weights) - 1
    for k, (W, b) in enumerate(zip(params.weights, params.biases)):
        if k == last and dropout_mask is not None:
            a[:rows] *= dropout_mask
        if acts is not None:
            acts.append(a[:rows])
        a = np.matmul(a.reshape(-1, GEMM_ROWS, a.shape[1]), W).reshape(len(a), -1)
        a += b
        if k < last:
            np.maximum(a, 0.0, out=a)
    return a[:rows]


def forward(params, X, nc):
    """Predicted MRPs, ``(N, 3)``, for a stack of windows ``(N, n,
    channels)``; inference, no dropout."""
    return _blocked_forward(params, _flatten_windows(X, nc))


def _angles_deg(qp, ql):
    """Per-sample rotation angle between predicted and label quaternions,
    and the pieces reused by the gradient."""
    d = np.add.reduce(qp * ql, axis=-1)  # cos(theta/2), signed
    sin_half = np.sqrt(np.maximum(0.0, 1.0 - d * d))
    theta = 2.0 * np.arctan2(sin_half, np.abs(d))
    return np.degrees(theta), d, sin_half


def _rms_angle_deg(params, Xf, ql):
    """RMS rotation angle in degrees of the flattened rows ``Xf`` against the
    label quaternions ``ql``; inference forward, no dropout. The rows are
    forwarded in ``LOSS_ROWS``-row chunks, so only one chunk's activations
    are held, and their angles are reduced once."""
    ang = np.empty(len(ql))
    for start in range(0, len(ql), LOSS_ROWS):
        sl = slice(start, start + LOSS_ROWS)
        ang[sl] = _angles_deg(_mrp_to_quat(_blocked_forward(params, Xf[sl])), ql[sl])[0]
    return float(np.sqrt(np.add.reduce(ang * ang) / len(ang)))


def loss(params, X, Y, nc):
    """RMS rotation angle in degrees over the batch."""
    Xf = _flatten_windows(X, nc)
    return _rms_angle_deg(params, Xf, mrp_to_quat(np.atleast_2d(Y)))


def _loss_grad_y(pred, ql):
    """Loss value and its gradient with respect to the predicted MRPs.

    ``ql`` holds the label quaternions. Predictions are not checked for
    finiteness: a non-finite one gives a non-finite loss.
    """
    ang_deg, d, sin_half = _angles_deg(_mrp_to_quat(pred), ql)
    N = len(ang_deg)
    L = float(np.sqrt(np.add.reduce(ang_deg * ang_deg) / N))
    if L == 0.0:
        return L, np.zeros_like(pred)
    # dL/dtheta_deg, with theta floored inside the gradient path only
    dL_dtheta = ang_deg / (N * L)
    denom = np.maximum(sin_half, np.sin(ANGLE_GUARD_RAD / 2.0))
    dtheta_dd = np.degrees(-2.0 * np.sign(d) / denom)
    # d = <q(pred), q(label)>; through the MRP->quaternion map:
    # dd/dsigma = 2 f v_l - 4 f^2 sigma ((sigma . v_l) + w_l),  f = 1/(1+|sigma|^2)
    v_l, w_l = ql[:, :3], ql[:, 3]
    s = np.add.reduce(pred * pred, axis=1)
    f = 1.0 / (1.0 + s)
    sv = np.add.reduce(pred * v_l, axis=1)
    dd_dy = 2.0 * f[:, None] * v_l - (4.0 * f * f * (sv + w_l))[:, None] * pred
    return L, (dL_dtheta * dtheta_dd)[:, None] * dd_dy


def _backprop(params, Xf, ql, dropout_mask, grads):
    """Loss of a flattened batch; hand-derived gradients go into ``grads``."""
    acts = []  # input of each affine map
    y = _blocked_forward(params, Xf, dropout_mask, acts)
    L, g = _loss_grad_y(y, ql)
    for k in (3, 2, 1, 0):
        np.matmul(acts[k].T, g, out=grads.weights[k])
        np.add.reduce(g, axis=0, out=grads.biases[k])
        if k == 0:
            break
        g = g @ params.weights[k].T
        if k == 3 and dropout_mask is not None:
            g *= dropout_mask
        # ReLU gate: a post-activation is > 0 exactly where its input was;
        # a unit that dropout zeroed has its g zeroed already
        g *= acts[k] > 0.0
    return L


def loss_and_gradient(params, X, Y, nc, dropout_mask=None):
    """Hand-derived gradients of the RMS-angle loss for one batch.

    The dropout mask, when given, must already include the 1/keep
    scaling; a fixed mask makes the gradient deterministic for checks.
    """
    Xf = _flatten_windows(X, nc)
    ql = mrp_to_quat(np.atleast_2d(np.asarray(Y, dtype=float)))
    grads = NetParams.from_vector(np.empty_like(params.vec), params.shapes)
    L = _backprop(params, Xf, ql, dropout_mask, grads)
    return L, grads


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

    def __post_init__(self):
        for keys, ok, rule in (
                (("max_epochs", "early_stop_window", "batch_size", "rollback_depth"),
                 lambda v: v >= 1, ">= 1"),
                (("lr", "eps"), lambda v: 0 < v < np.inf, "finite and > 0"),
                (("beta1", "beta2"), lambda v: 0 <= v < 1, "in [0, 1)"),
                (("lr_decay",), lambda v: 0 < v <= 1, "in (0, 1]")):
            for key in keys:
                if not ok(getattr(self, key)):
                    raise ValueError(
                        f"key {key!r} must be {rule}, got {getattr(self, key)!r}")


@dataclass
class TrainHistory:
    rows: list = field(default_factory=list)  # (epoch, loss_deg, lr, event)
    best_epoch: int = -1
    best_loss: float = np.inf
    stop_reason: str = ""
    divergence_count: int = 0

    @property
    def max_epoch_flag(self):
        return self.stop_reason == "max-epoch"

    def to_csv(self, path):
        lines = ["epoch,loss_deg,lr,event"]
        for epoch, lo, lr, event in self.rows:
            lines.append(f"{epoch},{repr(float(lo))},{repr(float(lr))},{event}")
        return write_text(path, "\n".join(lines) + "\n")


class _Adam:
    """Adam on a flat parameter vector, updated in place.

    Each operation keeps the association order of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``p -= lr*(m/c1) / (sqrt(v/c2) + eps)``, so the result matches a
    per-array update bit for bit.

    Every ``FLUSH_EVERY`` steps, after its update, each ``m`` entry with
    ``|m| < FLUSH_BELOW`` is set to zero. A weight whose gradient stays
    zero, behind a dead ReLU, has its ``m`` scaled by ``b1`` every step
    and would otherwise decay into subnormal doubles, on which each
    whole-vector pass runs about 20x slower. An entry kept at a flush is
    at least ``FLUSH_BELOW`` and decays by at most ``b1**FLUSH_EVERY``
    before the next one, so it stays normal while ``b1 >= 0.07``. A
    flush every step would cost three more passes per step.

    The flush leaves the parameters' bits unchanged. The update a
    flushed entry would still have made, ``lr*(m/c1)/(sqrt(v/c2)+eps)``,
    is below ``lr*FLUSH_BELOW/(c1*eps)``, about 1e-283 at the default
    ``lr`` (``c1 >= 1 - b1**FLUSH_EVERY``). That is under half an ulp of
    any parameter with ``|p| > ~1e-267``. A later gradient above
    ~1e-271 swamps the flushed remainder in the next ``m`` update.
    """

    def __init__(self, tc, size):
        self.tc = tc
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._num = np.empty(size)
        self._den = np.empty(size)
        self._small = np.empty(size, dtype=bool)
        self.t = 0

    def reset(self):
        self.t = 0
        self.m.fill(0.0)
        self.v.fill(0.0)

    def step(self, vec, g, lr):
        tc, m, v, num, den = self.tc, self.m, self.v, self._num, self._den
        self.t += 1
        c1 = 1.0 - tc.beta1 ** self.t
        c2 = 1.0 - tc.beta2 ** self.t
        m *= tc.beta1
        m += np.multiply(g, 1.0 - tc.beta1, out=num)
        if self.t % FLUSH_EVERY == 0:
            np.less(np.abs(m, out=num), FLUSH_BELOW, out=self._small)
            np.copyto(m, 0.0, where=self._small)
        v *= tc.beta2
        np.multiply(g, 1.0 - tc.beta2, out=num)
        v += np.multiply(num, g, out=num)
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += tc.eps
        # c1 is 1.0 from step 356 at beta1 = 0.9, and m / 1.0 is m
        np.multiply(m if c1 == 1.0 else np.divide(m, c1, out=num), lr, out=num)
        vec -= np.divide(num, den, out=num)


def train(ds, nc, tc, loss_fault=None, on_epoch=None):
    """Train on a window dataset; returns (best params, history).

    Each epoch draws its dropout masks in one call and slices them per
    batch. The batches and the epoch loss (the RMS angle over the full
    training set, dropout off, in ``LOSS_ROWS``-row chunks) run through
    one blocked forward on views of ``ds.X``, so no GEMM wakes the BLAS
    threads and the windows are not copied. Adam flushes tiny first
    moments to zero before they turn subnormal (see ``_Adam``), so every
    epoch costs the same. Early stop fires when the trailing 40-epoch mean exceeds the
    previous 40-epoch mean (so never before epoch 80).
    A non-finite epoch loss, or one above 10x the running best, rolls
    parameters back two accepted epochs, multiplies the learning rate by
    0.9, and reinitializes the optimizer; such epochs still consume
    budget but are excluded from best-model selection and the early-stop
    statistic. A non-finite prediction or gradient inside an epoch is
    not raised: it makes that epoch's loss non-finite. Training holds the
    last ``rollback_depth`` accepted parameter vectors, one copy of the
    initial vector standing in for epochs not yet accepted, and a rollback
    restores the oldest; the best vector is one of these, or the one vector
    kept past them once the best epoch is older.

    ``loss_fault(epoch, loss) -> loss`` lets tests inject divergence;
    ``on_epoch(epoch, loss, lr, event, params)`` observes each epoch;
    ``params`` is updated in place, so an observer that keeps it copies.
    """
    N = len(ds)
    if N < tc.batch_size:
        raise ValueError(
            f"dataset of {N} windows is smaller than one batch ({tc.batch_size})")
    Xf_all = _flatten_windows(ds.X, nc)
    ql_all = mrp_to_quat(np.asarray(ds.Y, dtype=float))
    keep = 1.0 - nc.dropout
    rng = np.random.default_rng(tc.seed)
    # one dropout draw per epoch, sliced per batch: the generator fills
    # it in the order that per-batch draws would, so the bits are the same
    masks = np.empty((N, nc.widths[2])) if nc.dropout > 0.0 else None

    batches = [slice(start, min(start + tc.batch_size, N))
               for start in range(0, N, tc.batch_size)]
    params = init_params(nc)
    grads = NetParams.from_vector(np.empty_like(params.vec), params.shapes)
    adam = _Adam(tc, params.vec.size)
    lr = tc.lr
    history = TrainHistory()
    # accepted parameter vectors, newest last (see the docstring)
    checkpoints = deque([params.vec.copy()] * tc.rollback_depth, maxlen=tc.rollback_depth)
    accepted_losses = []
    best = checkpoints[-1]
    win = tc.early_stop_window

    for epoch in range(1, tc.max_epochs + 1):
        # a NaN or inf from here on shows as a non-finite epoch loss
        with np.errstate(all="ignore"):
            if masks is not None:
                rng.random(out=masks)
                np.divide(masks < keep, keep, out=masks)
            for sl in batches:
                mask = None if masks is None else masks[sl]
                _backprop(params, Xf_all[sl], ql_all[sl], mask, grads)
                adam.step(params.vec, grads.vec, lr)
            epoch_loss = _rms_angle_deg(params, Xf_all, ql_all)
        if loss_fault is not None:
            epoch_loss = float(loss_fault(epoch, epoch_loss))

        diverged = not np.isfinite(epoch_loss) or (
            np.isfinite(history.best_loss)
            and epoch_loss > DIVERGENCE_FACTOR * history.best_loss)
        if diverged:
            history.divergence_count += 1
            np.copyto(params.vec, checkpoints[0])
            lr *= tc.lr_decay
            adam.reset()
            history.rows.append((epoch, epoch_loss, lr, "divergence"))
            if on_epoch is not None:
                on_epoch(epoch, epoch_loss, lr, "divergence", params)
            continue

        checkpoints.append(params.vec.copy())
        accepted_losses.append(epoch_loss)
        if epoch_loss < history.best_loss:
            history.best_loss = epoch_loss
            history.best_epoch = epoch
            best = checkpoints[-1]
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
    return NetParams.from_vector(best, params.shapes), history


# ---------------------------------------------------------------------------
# Model file format: magic, header length, JSON header, raw float64 blocks.
# ---------------------------------------------------------------------------

def save_model(params, nc, path, provenance):
    header = ModelHeader(format=1, **asdict(nc), provenance=provenance,
                         shapes=[list(a.shape) for a in params.weights + params.biases])
    blob = json.dumps(to_dict(header), sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(params.vec.astype("<f8", copy=False).tobytes())
    return path


def load_model(path):
    """Returns (params, config, ``Provenance``, hex SHA-256 of the bytes parsed).
    A file that is not a whole model with a ``ModelHeader`` and finite parameters
    raises IncompatibleModelError naming ``path`` and the key or array at fault."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(_MAGIC):
        raise IncompatibleModelError(f"{path} is not a model file")
    start = len(_MAGIC) + 4
    if len(data) < start:
        raise IncompatibleModelError(f"{path}: model file truncated in its header length")
    (hlen,) = struct.unpack_from("<I", data, len(_MAGIC))
    try:
        header = json.loads(data[start:start + hlen])
    except ValueError as e:  # not JSON, not UTF-8, or an int past Python's digit limit
        raise IncompatibleModelError(f"{path}: header is not valid JSON: {e}") from None
    try:
        header = from_dict(ModelHeader, header, path, "header")
    except ValueError as e:
        raise IncompatibleModelError(str(e)) from None
    body = data[start + hlen:]
    count = sum(math.prod(shape) for shape in header.shapes)
    if len(body) != count * 8:
        raise IncompatibleModelError(f"{path}: model file holds {len(body)} bytes of "
                                     f"parameters, its header's shapes need {count * 8}")
    params = NetParams.from_vector(np.frombuffer(body, "<f8").astype(float), header.shapes)
    for k, a in enumerate(params.weights + params.biases):  # W0..W3, b0..b3
        if not np.isfinite(a).all():
            raise IncompatibleModelError(f"{path}: array {'Wb'[k // 4]}{k % 4} is not finite")
    return params, header.config, header.provenance, hashlib.sha256(data).hexdigest()
