import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attlab.rotations import (
    _cross,
    angle_between_deg,
    dcm_to_quat,
    mrp_to_quat,
    quat_canonical,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quat_to_axis_angle,
    quat_to_dcm,
    quat_to_mrp,
    random_quat,
    rotation_angle_deg,
)

RNG = np.random.default_rng


def test_quat_to_mrp_identity():
    assert np.allclose(quat_to_mrp([0, 0, 0, 1]), [0, 0, 0])


def test_quat_to_mrp_symmetric_120deg():
    m = quat_to_mrp([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(m, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_quat_to_mrp_90deg_about_z():
    s = np.sin(np.radians(45.0))
    c = np.cos(np.radians(45.0))
    m = quat_to_mrp([0, 0, s, c])
    assert np.allclose(m, [0, 0, np.tan(np.radians(22.5))], atol=1e-15)
    assert abs(m[2] - 0.414214) < 1e-6


def test_quat_to_mrp_rejects_nonfinite():
    with pytest.raises(ValueError):
        quat_to_mrp([np.nan, 0, 0, 1])
    with pytest.raises(ValueError):
        mrp_to_quat([np.inf, 0, 0])


def test_mrp_to_quat_examples():
    assert np.allclose(mrp_to_quat([0, 0, 0]), [0, 0, 0, 1])
    assert np.allclose(mrp_to_quat([1 / 3, 1 / 3, 1 / 3]), [0.5, 0.5, 0.5, 0.5])


def test_mrp_quat_roundtrip_1000_seeded():
    # Oracle: roundtrip through the inverse map must reproduce the input.
    q = random_quat(RNG(1234), 1000)
    q = quat_canonical(q)
    m = quat_to_mrp(q)
    assert np.max(np.linalg.norm(m, axis=1)) <= 1.0 + 1e-12
    q2 = mrp_to_quat(m)
    assert np.max(np.abs(q2 - q)) < 1e-12
    m2 = quat_to_mrp(q2)
    assert np.max(np.abs(m2 - m)) < 1e-12


def test_rotation_angle_identical_is_zero():
    a = np.array([0.1, -0.2, 0.3])
    assert rotation_angle_deg(a, a) == 0.0


def test_rotation_angle_90deg_about_z():
    b = np.array([0.0, 0.0, np.tan(np.radians(22.5))])
    assert abs(rotation_angle_deg(np.zeros(3), b) - 90.0) < 1e-9


def test_rotation_angle_sign_flip_invariant():
    rng = RNG(99)
    for q in random_quat(rng, 50):
        a = quat_to_mrp(q)
        b = quat_to_mrp(-q)  # canonicalized internally: same rotation
        assert rotation_angle_deg(a, b) == 0.0


def test_rotation_angle_symmetry_seeded():
    rng = RNG(7)
    a = quat_to_mrp(random_quat(rng, 200))
    b = quat_to_mrp(random_quat(rng, 200))
    assert np.array_equal(rotation_angle_deg(a, b), rotation_angle_deg(b, a))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rotation_angle_range_property(seed):
    rng = RNG(seed)
    a = quat_to_mrp(random_quat(rng))
    b = quat_to_mrp(random_quat(rng))
    ang = rotation_angle_deg(a, b)
    assert 0.0 <= ang <= 180.0
    assert rotation_angle_deg(a, b) == rotation_angle_deg(b, a)


def test_rotation_angle_sequence_examples():
    rng = RNG(5)
    m = quat_to_mrp(random_quat(rng, 10))
    assert np.array_equal(rotation_angle_deg(m, m), np.zeros(10))

    # every pair offset by the same fixed 2 deg rotation
    dq = quat_from_axis_angle([1, 2, 3], 2.0)
    q = random_quat(rng, 20)
    q_off = quat_multiply(q, dq)
    ang = rotation_angle_deg(quat_to_mrp(q), quat_to_mrp(q_off))
    assert ang.shape == (20,) and np.max(np.abs(ang - 2.0)) < 1e-9

    # an identity pair and a 2 deg pair, row by row
    a = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 0.0], quat_to_mrp(quat_from_axis_angle([0, 0, 1], 2.0))])
    assert np.allclose(rotation_angle_deg(a, b), [0.0, 2.0], rtol=0, atol=1e-9)


def test_quat_rotate_identity():
    assert np.allclose(quat_rotate([0, 0, 0, 1], [1.0, 2.0, 3.0]), [1, 2, 3])


def test_quat_rotate_golden_convention():
    # Frame rotation: 90 deg about +z expresses inertial +x as body -y.
    q = quat_from_axis_angle([0, 0, 1], 90.0)
    v = quat_rotate(q, [1.0, 0.0, 0.0])
    assert np.allclose(v, [0.0, -1.0, 0.0], atol=1e-15)


def test_quat_rotate_preserves_norm():
    rng = RNG(11)
    q = random_quat(rng, 100)
    v = rng.standard_normal((100, 3))
    out = quat_rotate(q, v)
    assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(v, axis=1), atol=1e-9)


def test_quat_rotate_composition_oracle():
    # Oracle: sequential application must equal rotation by the product.
    rng = RNG(21)
    for _ in range(100):
        q1 = random_quat(rng)
        q2 = random_quat(rng)
        v = rng.standard_normal(3)
        seq = quat_rotate(q2, quat_rotate(q1, v))
        comp = quat_rotate(quat_multiply(q1, q2), v)
        assert np.allclose(seq, comp, atol=1e-12)


def test_dcm_matches_quat_rotate():
    rng = RNG(31)
    for _ in range(100):
        q = random_quat(rng)
        v = rng.standard_normal(3)
        assert np.allclose(quat_to_dcm(q) @ v, quat_rotate(q, v), atol=1e-12)


def test_dcm_orthonormal_and_proper():
    rng = RNG(41)
    for q in random_quat(rng, 50):
        C = quat_to_dcm(q)
        assert np.allclose(C @ C.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(C) - 1.0) < 1e-12


def test_dcm_to_quat_roundtrip():
    rng = RNG(51)
    for q in quat_canonical(random_quat(rng, 200)):
        q2 = dcm_to_quat(quat_to_dcm(q))
        assert np.allclose(q2, q, atol=1e-12)


def test_dcm_to_quat_stack_matches_rows_bitwise():
    # identity and 180 deg about x, y, z take each of Shepperd's branches
    special = [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
               np.diag([-1.0, -1.0, 1.0])]
    C = np.concatenate([special, [quat_to_dcm(q) for q in random_quat(RNG(52), 100)]])
    Q = dcm_to_quat(C)
    rows = np.array([dcm_to_quat(c) for c in C])
    assert np.array_equal(Q, rows)
    assert np.array_equal(Q[:4], [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])


def test_axis_angle_stack_matches_rows_bitwise():
    angles = np.linspace(-30.0, 200.0, 362)
    q = quat_from_axis_angle([0.12, 0.1, 1.0], angles)
    assert np.array_equal(q, [quat_from_axis_angle([0.12, 0.1, 1.0], a) for a in angles])
    axis, ang = quat_to_axis_angle(q)
    rows = [quat_to_axis_angle(qk) for qk in q]
    assert np.array_equal(axis, [a for a, _ in rows])
    assert np.array_equal(ang, [a for _, a in rows])
    # zero rotation: the angle is zero and the axis falls back to +x
    axis0, ang0 = quat_to_axis_angle([0.0, 0.0, 0.0, 1.0])
    assert ang0 == 0.0 and np.array_equal(axis0, [1.0, 0.0, 0.0])


def test_quat_normalize_rejects_zero_and_nonfinite():
    with pytest.raises(ValueError):
        quat_normalize([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        quat_normalize([np.inf, 0.0, 0.0, 1.0])


def test_angle_between_deg():
    assert abs(angle_between_deg([1, 0, 0], [0, 1, 0]) - 90.0) < 1e-12
    assert angle_between_deg([1, 0, 0], [2, 0, 0]) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-0.577, max_value=0.577), min_size=3, max_size=3),
)
def test_mrp_roundtrip_property(sigma):
    # |sigma| <= 1 is the roundtrip domain; beyond it lies the shadow set.
    m = np.array(sigma)
    q = mrp_to_quat(m)
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12
    assert np.allclose(quat_to_mrp(q), m, atol=1e-12)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_cross_matches_numpy_bitwise():
    rng = RNG(11)
    # wide exponents: products that round, overflow and underflow
    scale = 10.0 ** rng.integers(-300, 300, size=(500, 3))
    a = rng.standard_normal((500, 3)) * scale
    b = rng.standard_normal((500, 3)) * scale[::-1]
    # signed zeros and exact cancellations
    a[:40] = rng.choice([0.0, -0.0, 1.0, -1.0], size=(40, 3))
    b[:40] = rng.choice([0.0, -0.0, 1.0, -1.0], size=(40, 3))
    b[40:60] = a[40:60]
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bits(_cross(a, b), np.cross(a, b))
        for k in range(len(a)):  # 1-D inputs
            assert _same_bits(_cross(a[k], b[k]), np.cross(a[k], b[k]))
    # a stack against one vector, either way round
    v = np.array([0.3, -0.0, 2.5e-8])
    assert _same_bits(_cross(a[60:], v), np.cross(a[60:], v))
    assert _same_bits(_cross(v, a[60:]), np.cross(v, a[60:]))
    # leading axes
    c = a[100:160].reshape(3, 20, 3)
    assert _same_bits(_cross(c, b[:20]), np.cross(c, b[:20]))
