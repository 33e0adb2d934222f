"""Attitude algebra: quaternions, Modified Rodrigues Parameters, DCMs.

Conventions used throughout the package:

* Quaternions are ndarrays ``[x, y, z, w]`` (vector part first, scalar
  last).  ``q`` and ``-q`` encode the same rotation; the canonical form
  has ``w >= 0``.
* A quaternion is a frame rotation: ``quat_rotate(q, v)`` expresses the
  inertial-frame vector ``v`` in the body frame, and equals
  ``quat_to_dcm(q) @ v``.  Pinned by test: a 90 deg rotation about +z
  maps (1, 0, 0) to (0, -1, 0).
* MRPs are ndarrays ``[s1, s2, s3]`` with ``sigma = e * tan(theta / 4)``;
  conversion from a canonical quaternion keeps ``|sigma| <= 1``.
* Angles at API boundaries are degrees.

Every function except ``quat_to_dcm`` and ``random_quat`` broadcasts over
leading axes, so a whole pass is converted in one call: a ``(L, 4)``
quaternion stack, a ``(L, 3, 3)`` DCM stack, or an ``(L,)`` angle array
for ``quat_from_axis_angle`` about one fixed axis.  A whole-pass call gives
the same bits, row by row, as the single-step calls.
"""

import numpy as np

from .errors import DegenerateGeometryError


def _dot(a, b):
    """Row-wise dot product over the last axis.

    The stacked matmul runs BLAS ``ddot`` on each row, so every row gets
    the bits a 1-D ``a @ b`` would; ``np.sum(a * b, -1)`` and ``einsum``
    differ from it in the last ulp on some rows.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _cross(a, b):
    """Row-wise cross product of float 3-vectors over the last axis.

    numpy's own cross-product arithmetic in its order (each product
    rounded before its subtraction), so every row gets numpy's bits,
    without the axis-moving and broadcasting wrapper around it, which
    costs more than the arithmetic on a pass. Broadcasts over leading axes.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _check_finite(x, name):
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")


def quat_normalize(q):
    """Scale q to unit norm. Raises on zero or non-finite input."""
    q = np.asarray(q, dtype=float)
    _check_finite(q, "quaternion")
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize a zero quaternion")
    return q / n


def quat_canonical(q):
    """Flip sign so the scalar part is non-negative."""
    q = np.asarray(q, dtype=float)
    sign = np.where(q[..., 3:4] < 0.0, -1.0, 1.0)
    return q * sign


def quat_conjugate(q):
    q = np.asarray(q, dtype=float)
    return q * np.array([-1.0, -1.0, -1.0, 1.0])


def quat_multiply(a, b):
    """Hamilton product a*b (scalar-last).

    Composing frame rotations "a then b" gives ``quat_multiply(a, b)``:
    ``quat_to_dcm(quat_multiply(a, b)) == quat_to_dcm(b) @ quat_to_dcm(a)``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    av, aw = a[..., :3], a[..., 3:4]
    bv, bw = b[..., :3], b[..., 3:4]
    v = aw * bv + bw * av + _cross(av, bv)
    w = aw * bw - np.sum(av * bv, axis=-1, keepdims=True)
    return np.concatenate([v, w], axis=-1)


def quat_from_axis_angle(axis, angle_deg):
    """Frame rotation(s) of angle_deg about one (not necessarily unit) axis."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * np.radians(angle_deg)
    return np.concatenate([axis / n * np.sin(half)[..., None],
                           np.cos(half)[..., None]], axis=-1)


def quat_to_axis_angle(q):
    """Return (unit axis, angle in degrees), angle in [0, 180]."""
    q = quat_canonical(quat_normalize(q))
    vn = np.sqrt(_dot(q[..., :3], q[..., :3]))
    # a copy: arctan2 of a strided view takes a code path one ulp apart
    angle = 2.0 * np.arctan2(vn, q[..., 3].copy())
    has_axis = (vn > 0.0)[..., None]
    axis = np.where(has_axis, q[..., :3] / np.where(has_axis, vn[..., None], 1.0),
                    [1.0, 0.0, 0.0])
    return axis, np.degrees(angle)


def quat_to_dcm(q):
    """Direction cosine matrix mapping inertial vectors into the body frame."""
    q = np.asarray(q, dtype=float)
    x, y, z, w = q
    v = q[:3]
    vx = np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])
    return (w * w - v @ v) * np.eye(3) + 2.0 * np.outer(v, v) - 2.0 * w * vx


# Shepperd's branches, one row per largest component (w, x, y, z): where
# each of [x, y, z, w] comes from in the term list of dcm_to_quat, over
# 4 * largest.  The largest component itself is set, not divided.
_SHEPPERD_TERMS = np.array([[0, 1, 2, 0], [0, 3, 4, 0], [3, 0, 5, 1], [4, 5, 0, 2]])
_SHEPPERD_LARGEST = np.array([3, 0, 1, 2])


def dcm_to_quat(C):
    """Quaternion (canonical, w >= 0) from a proper rotation matrix.

    Shepperd's method: pick the largest of the four squared components
    to avoid dividing by a small number; the branch is chosen per matrix.
    """
    C = np.asarray(C, dtype=float)
    tr = np.trace(C, axis1=-2, axis2=-1)
    diag = np.diagonal(C, axis1=-2, axis2=-1)
    b2 = np.concatenate([((1.0 + tr) / 4.0)[..., None],
                         (1.0 + 2.0 * diag - tr[..., None]) / 4.0], axis=-1)
    case = np.argmax(b2, axis=-1)
    largest = np.sqrt(np.take_along_axis(b2, case[..., None], axis=-1))
    terms = np.stack([
        C[..., 1, 2] - C[..., 2, 1],
        C[..., 2, 0] - C[..., 0, 2],
        C[..., 0, 1] - C[..., 1, 0],
        C[..., 0, 1] + C[..., 1, 0],
        C[..., 2, 0] + C[..., 0, 2],
        C[..., 1, 2] + C[..., 2, 1],
    ], axis=-1)
    q = np.take_along_axis(terms, _SHEPPERD_TERMS[case], axis=-1) / (4.0 * largest)
    np.put_along_axis(q, _SHEPPERD_LARGEST[case][..., None], largest, axis=-1)
    return quat_canonical(quat_normalize(q))


def quat_rotate(q, v):
    """Express the inertial vector v in the body frame defined by q.

    Equivalent to ``quat_to_dcm(q) @ v`` but works on broadcast stacks of
    quaternions and vectors.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    qv, qw = q[..., :3], q[..., 3:4]
    # v_b = (w^2 - |qv|^2) v + 2 (qv . v) qv - 2 w (qv x v)
    dot = np.sum(qv * v, axis=-1, keepdims=True)
    w2 = qw * qw - np.sum(qv * qv, axis=-1, keepdims=True)
    return w2 * v + 2.0 * dot * qv - 2.0 * qw * _cross(qv, v)


def quat_to_mrp(q):
    """MRP from a unit quaternion, canonicalized (w >= 0) first."""
    q = np.asarray(q, dtype=float)
    _check_finite(q, "quaternion")
    q = quat_canonical(q)
    return q[..., :3] / (1.0 + q[..., 3:4])


def mrp_to_quat(m):
    """Unit quaternion from an MRP; inverse of quat_to_mrp for |sigma| <= 1."""
    m = np.asarray(m, dtype=float)
    _check_finite(m, "mrp")
    return _mrp_to_quat(m)


def _mrp_to_quat(m):
    """``mrp_to_quat`` without the finiteness check, for training's inner
    loop: a non-finite MRP gives a non-finite quaternion."""
    s2 = np.add.reduce(m * m, axis=-1, keepdims=True)
    f = 1.0 / (1.0 + s2)
    return np.concatenate([2.0 * m * f, (1.0 - s2) * f], axis=-1)


def rotation_angle_deg(a, b):
    """Rotation angle in degrees between two attitudes given as MRPs.

    Symmetric, sign-flip invariant (quaternion double cover), in [0, 180].
    Defined as ``2 * acos(clamp(|<qa, qb>|, 0, 1))`` and evaluated through
    the relative quaternion with atan2, which computes the same angle but
    stays exact for identical attitudes. Broadcasts over leading axes.
    """
    qa = mrp_to_quat(a)
    qb = mrp_to_quat(b)
    rel = quat_multiply(quat_conjugate(qa), qb)
    vn = np.linalg.norm(rel[..., :3], axis=-1)
    return np.degrees(2.0 * np.arctan2(vn, np.abs(rel[..., 3])))


def angle_between_deg(u, v):
    """Angle in degrees between two 3-vectors (broadcasts over leading axes).

    Uses atan2(|u x v|, u . v), which keeps full precision for nearly
    parallel vectors where acos of the dot product bottoms out.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(np.linalg.norm(u, axis=-1) == 0.0) or np.any(np.linalg.norm(v, axis=-1) == 0.0):
        raise DegenerateGeometryError("zero-length vector has no direction")
    cross = np.linalg.norm(_cross(u, v), axis=-1)
    dot = np.sum(u * v, axis=-1)
    return np.degrees(np.arctan2(cross, dot))


def random_quat(rng, n=None):
    """Uniformly distributed unit quaternion(s) from a numpy Generator."""
    shape = (4,) if n is None else (n, 4)
    q = rng.standard_normal(shape)
    return quat_normalize(q)
