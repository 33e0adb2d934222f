"""Two-vector TRIAD attitude solution and its pass-level evaluation.

The classical construction: build an orthonormal triad from the primary
and secondary observation vectors in each frame and compose the frame
map. The primary vector is reproduced exactly; all measurement
inconsistency lands on the secondary. Steps with near-collinear geometry
are skipped and counted, not solved.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError
from .features import attitude_labels
from .passlog import write_csv
from .rotations import (
    _dot,
    angle_between_deg,
    dcm_to_quat,
    quat_rotate,
    quat_to_mrp,
    rotation_angle_deg,
)

COLLINEAR_EPS = 1e-6


@dataclass(frozen=True)
class TriadConfig:
    priority: str = "mag"  # which measurement the solution preserves exactly

    def __post_init__(self):
        if self.priority not in ("sun", "mag"):
            raise ValueError("priority must be 'sun' or 'mag'")


def _triad_basis(v1, v2):
    """Orthonormal triads (columns t1, t2, t3) and the collinear mask."""
    t1 = v1 / np.sqrt(_dot(v1, v1))[..., None]
    c = np.cross(v1, v2)
    cn = np.sqrt(_dot(c, c))
    collinear = cn <= COLLINEAR_EPS
    t2 = c / np.where(collinear, 1.0, cn)[..., None]
    return np.stack([t1, t2, np.cross(t1, t2)], axis=-1), collinear


def _triad_solve(v1_b, v2_b, v1_i, v2_i):
    """DCMs mapping inertial to body, and where either pair is collinear.

    Broadcasts over leading axes; collinear rows hold no solution.
    """
    Mb, collinear_b = _triad_basis(np.asarray(v1_b, float), np.asarray(v2_b, float))
    Mi, collinear_i = _triad_basis(np.asarray(v1_i, float), np.asarray(v2_i, float))
    return Mb @ np.swapaxes(Mi, -1, -2), collinear_b | collinear_i


def triad(v1_b, v2_b, v1_i, v2_i):
    """DCM mapping inertial to body from one vector pair per frame."""
    A, collinear = _triad_solve(v1_b, v2_b, v1_i, v2_i)
    if np.any(collinear):
        raise DegenerateGeometryError(f"vectors are collinear within {COLLINEAR_EPS}")
    return A


@dataclass
class TriadEvaluation:
    pass_id: str
    priority: str
    t: np.ndarray
    att_err_deg: np.ndarray  # NaN where the step was skipped
    sun_err_deg: np.ndarray
    mag_err_deg: np.ndarray
    solved_steps: int = 0
    skipped_steps: int = 0
    skip_reasons: dict = field(default_factory=dict)


def triad_pass_eval(log, frames, cfg):
    """Evaluate TRIAD over a pass against the truth attitude.

    Sensor-direction errors compare each measured body vector with the
    truth-rotated model vector, so they do not depend on the priority
    choice or on the TRIAD solution itself.
    """
    uS_c, uB_m = frames.groups["uS_c"], frames.groups["uB_m"]
    ok = frames.avail["uS_c"] & frames.avail["uB_m"]
    L = frames.length
    truth_mrp = attitude_labels(log)
    sun_true_b = quat_rotate(log.q_true, log.uS_i)
    mag_true_b = quat_rotate(log.q_true, log.uB_i)

    att = np.full(L, np.nan)
    sun = np.full(L, np.nan)
    mag = np.full(L, np.nan)
    sun[ok] = angle_between_deg(uS_c[ok], sun_true_b[ok])
    mag[ok] = angle_between_deg(uB_m[ok], mag_true_b[ok])
    if cfg.priority == "sun":
        pair = (uS_c[ok], uB_m[ok], log.uS_i[ok], log.uB_i[ok])
    else:
        pair = (uB_m[ok], uS_c[ok], log.uB_i[ok], log.uS_i[ok])
    A, collinear = _triad_solve(*pair)
    steps = np.flatnonzero(ok)[~collinear]
    est = quat_to_mrp(dcm_to_quat(A[~collinear]))
    att[steps] = rotation_angle_deg(est, truth_mrp[steps])
    skipped = {"unavailable": int(np.sum(~ok)), "collinear": int(np.sum(collinear))}

    solved = np.isfinite(att)
    if not np.any(solved):
        raise DegenerateGeometryError(
            f"no valid TRIAD steps in pass {log.pass_id}")

    return TriadEvaluation(
        pass_id=log.pass_id,
        priority=cfg.priority,
        t=np.asarray(log.t, float),
        att_err_deg=att,
        sun_err_deg=sun,
        mag_err_deg=mag,
        solved_steps=int(np.sum(solved)),
        skipped_steps=int(L - np.sum(solved)),
        skip_reasons=skipped,
    )


def write_triad_series_csv(ev, path):
    """Per-step error series; skipped steps are empty cells, never NaN."""
    return write_csv(path, "t,att_err_deg,sun_err_deg,mag_err_deg",
                     [ev.t.astype(np.int64), ev.att_err_deg, ev.sun_err_deg,
                      ev.mag_err_deg])
