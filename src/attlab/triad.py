"""Two-vector TRIAD attitude solution and its pass-level evaluation.

The classical construction: build an orthonormal triad from the primary
and secondary observation vectors in each frame and compose the frame
map. The primary vector is reproduced exactly; all measurement
inconsistency lands on the secondary. Steps with near-collinear geometry
or a missing measurement are skipped and counted, not solved.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError
from .rotations import _cross, _dot, dcm_to_quat, quat_to_mrp, rotation_angle_deg

COLLINEAR_EPS = 1e-6


def _triad_basis(v1, v2):
    """Orthonormal triads (columns t1, t2, t3) and the collinear mask."""
    t1 = v1 / np.sqrt(_dot(v1, v1))[..., None]
    c = _cross(v1, v2)
    cn = np.sqrt(_dot(c, c))
    collinear = cn <= COLLINEAR_EPS
    t2 = c / np.where(collinear, 1.0, cn)[..., None]
    return np.stack([t1, t2, _cross(t1, t2)], axis=-1), collinear


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
    att_err_deg: np.ndarray  # (L,), NaN where unsolved
    skip_reasons: dict = field(default_factory=dict)

    @property
    def solved_steps(self):
        return int(np.sum(np.isfinite(self.att_err_deg)))

    @property
    def skipped_steps(self):
        return len(self.att_err_deg) - self.solved_steps


def triad_pass_eval(frames, labels, priority="mag"):
    """Evaluate TRIAD over a pass's frames against its truth MRP ``labels``.

    ``priority`` (``"sun"`` or ``"mag"``) names the measurement the
    solution reproduces exactly. A step is solved where both sensors
    measured and their vectors are not collinear; a pass may have none.

    Every step is evaluated on its own rows, so steps stacked from several
    passes (their frames and labels concatenated) get the bits each pass
    alone gives them.
    """
    if priority not in ("sun", "mag"):
        raise ValueError(f"priority must be 'sun' or 'mag', got {priority!r}")
    g = frames.groups
    ok = frames.avail["uS_c"] & frames.avail["uB_m"]
    if priority == "sun":
        pair = (g["uS_c"][ok], g["uB_m"][ok], g["uS_i"][ok], g["uB_i"][ok])
    else:
        pair = (g["uB_m"][ok], g["uS_c"][ok], g["uB_i"][ok], g["uS_i"][ok])
    A, collinear = _triad_solve(*pair)
    steps = np.flatnonzero(ok)[~collinear]
    att = np.full(frames.length, np.nan)
    att[steps] = rotation_angle_deg(quat_to_mrp(dcm_to_quat(A[~collinear])),
                                    labels[steps])
    return TriadEvaluation(
        att_err_deg=att,
        skip_reasons={"unavailable": int(np.sum(~ok)),
                      "collinear": int(np.sum(collinear))},
    )
