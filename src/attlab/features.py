"""Raw pass logs to network inputs and labels.

Converts ADC counts into sensor-frame unit vectors, pairs them with the
inertial model vectors, applies a case's channel selection, and builds
shuffled sliding-window datasets. Nothing here is ever fitted on test
data: the gyro scale comes from the training passes and the CSS bias /
MAG reference values come from preflight configuration.
"""

from dataclasses import dataclass, field

import numpy as np

from .cases import GROUP_ORDER
from .errors import CaseInfeasibleError, DataIntegrityError
from .rotations import quat_to_mrp

WINDOW_MAX = 11


def _normalize_rows(v):
    """Unit-normalize rows; zero rows stay zero and are flagged unavailable."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    avail = n[..., 0] > 0.0
    out = np.divide(v, n, out=np.zeros_like(v), where=n > 0.0)
    return out, avail


def css_to_sun_earth(css, bias=None):
    """Split six panel counts into Sun and Earth unit vectors.

    Per axis pair, the larger bias-subtracted count (signed by its panel
    axis, positive side winning ties) becomes the Sun component and the
    smaller one the Earth component. Returns
    ``(uS_c, uE_c, sun_avail, earth_avail)``; an all-zero extraction is
    returned as zeros with its flag cleared.
    """
    css = np.asarray(css, dtype=float)
    if bias is None:
        bias = np.zeros(6)
    v = css - np.asarray(bias, dtype=float)
    pos, neg = v[..., 0::2], v[..., 1::2]
    pos_wins = pos >= neg  # tie goes to the positive panel
    sun = np.where(pos_wins, pos, -neg)
    earth = np.where(pos_wins, -neg, pos)
    uS, sun_avail = _normalize_rows(sun)
    uE, earth_avail = _normalize_rows(earth)
    return uS, uE, sun_avail, earth_avail


def mag_to_unit(mag, ref, scale):
    """Field unit vector from magnetometer counts; (uB_m, avail)."""
    if scale <= 0:
        raise ValueError("mag scale must be positive")
    v = (np.asarray(mag, dtype=float) - np.asarray(ref, dtype=float)) / scale
    return _normalize_rows(v)


def gyro_scale_from_passes(logs):
    """Largest |rate| component over the given (training) passes."""
    scale = max(float(np.max(np.abs(log.w))) for log in logs)
    if scale == 0.0:
        raise ValueError("gyro data is identically zero; scale undefined")
    return scale


def attitude_labels(log):
    """Truth MRPs for every record of a pass."""
    qn = np.linalg.norm(log.q_true, axis=1)
    if np.any(np.abs(qn - 1.0) > 1e-6):
        raise DataIntegrityError("truth quaternion drifted off unit norm")
    return quat_to_mrp(log.q_true / qn[:, None])


@dataclass
class FeatureFrames:
    """Per-step channel groups for one pass, plus availability masks."""

    pass_id: str
    groups: dict  # name -> (L, 3) float array
    avail: dict  # name -> (L,) bool array
    gyro_scale: float | None = None

    @property
    def length(self):
        return len(next(iter(self.groups.values())))

    def full_matrix(self):
        """All 21 channels in canonical group order."""
        return np.hstack([self.groups[g] for g in GROUP_ORDER])


def build_frames(log, css_bias=None, mag_ref=None, mag_scale=None, gyro_scale=None):
    """FeatureFrames from a pass log.

    MAG reference/scale default to the preflight values recorded in the
    pass manifest. ``gyro_scale`` must come from the training passes; if
    omitted, the raw rates are stored and W_g is marked unavailable so a
    gyro-using case cannot silently train on unscaled data.
    """
    if mag_ref is None or mag_scale is None:
        err = log.manifest.get("scenario", {}).get("errors")
        if not err:
            raise ValueError(
                "pass manifest carries no sensor config; pass mag_ref/mag_scale explicitly")
        mag_ref = err["mag_ref"] if mag_ref is None else mag_ref
        mag_scale = err["mag_scale"] if mag_scale is None else mag_scale

    uS_c, uE_c, sun_avail, earth_avail = css_to_sun_earth(log.css, css_bias)
    uB_m, mag_avail = mag_to_unit(log.mag, mag_ref, mag_scale)
    uE_i = -log.r_km / np.linalg.norm(log.r_km, axis=1, keepdims=True)
    L = len(log.t)
    ones = np.ones(L, dtype=bool)

    w_g = log.w / gyro_scale if gyro_scale else log.w.copy()
    groups = {
        "uS_c": uS_c,
        "uB_m": uB_m,
        "uE_c": uE_c,
        "uS_i": log.uS_i.copy(),
        "uB_i": log.uB_i.copy(),
        "uE_i": uE_i,
        "W_g": w_g,
    }
    avail = {
        "uS_c": sun_avail,
        "uB_m": mag_avail,
        "uE_c": earth_avail,
        "uS_i": ones.copy(),
        "uB_i": ones.copy(),
        "uE_i": ones.copy(),
        "W_g": ones.copy() if gyro_scale else np.zeros(L, dtype=bool),
    }
    return FeatureFrames(pass_id=log.pass_id, groups=groups, avail=avail,
                         gyro_scale=gyro_scale)


def select_channels(frames, case):
    """(L, C) input matrix for a case; fails naming the missing group."""
    for g in case.groups:
        if not np.all(frames.avail[g]):
            raise CaseInfeasibleError(
                g, f"group {g} unavailable in pass {frames.pass_id} "
                   f"({int(np.sum(~frames.avail[g]))} of {frames.length} steps)")
    return np.hstack([frames.groups[g] for g in case.groups])


@dataclass
class WindowDataset:
    """Shuffled or in-order sliding windows with their MRP labels."""

    X: np.ndarray  # (N, n, C)
    Y: np.ndarray  # (N, 3)
    n: int
    case_id: str
    provenance: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.X)

    @property
    def channels(self):
        return self.X.shape[2]


def build_windows(frames, labels, n, case):
    """Sliding windows over one pass: window k ends at step k+n-1 and is
    labeled with the attitude there; a pass of length L yields L-n+1."""
    if not 1 <= n <= WINDOW_MAX:
        raise ValueError(f"window length must be in 1..{WINDOW_MAX}, got {n}")
    mat = select_channels(frames, case)
    labels = np.asarray(labels, dtype=float)
    L = len(mat)
    if len(labels) != L:
        raise ValueError("labels and frames disagree on pass length")
    count = L - n + 1
    if count < 1:
        raise ValueError(f"pass of length {L} too short for n={n}")
    idx = np.arange(count)[:, None] + np.arange(n)[None, :]
    X = mat[idx]  # (count, n, C)
    Y = labels[n - 1:]
    return WindowDataset(
        X=X, Y=Y.copy(), n=n, case_id=case.case_id,
        provenance={"pass_ids": [frames.pass_id], "windows_per_pass": [count],
                    "shuffle_seed": None},
    )


def concat_windows(datasets):
    if not datasets:
        raise ValueError("no datasets to concatenate")
    first = datasets[0]
    for ds in datasets[1:]:
        if ds.n != first.n or ds.case_id != first.case_id:
            raise ValueError("datasets disagree on window length or case")
    prov = {
        "pass_ids": sum((ds.provenance["pass_ids"] for ds in datasets), []),
        "windows_per_pass": sum((ds.provenance["windows_per_pass"] for ds in datasets), []),
        "shuffle_seed": None,
    }
    return WindowDataset(
        X=np.concatenate([ds.X for ds in datasets]),
        Y=np.concatenate([ds.Y for ds in datasets]),
        n=first.n, case_id=first.case_id, provenance=prov,
    )


def shuffle_windows(ds, seed):
    """Deterministic permutation of the window set; X-Y pairing preserved."""
    perm = np.random.default_rng(seed).permutation(len(ds))
    prov = dict(ds.provenance)
    prov["shuffle_seed"] = int(seed)
    return WindowDataset(X=ds.X[perm], Y=ds.Y[perm], n=ds.n,
                         case_id=ds.case_id, provenance=prov)

