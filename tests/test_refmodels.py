import numpy as np
import pytest

from attlab.refmodels import (
    MU_EARTH_KM3_S2,
    R_EARTH_KM,
    OrbitElements,
    dipole_field_eci,
    earth_direction,
    is_sunlit,
    propagate_orbit,
    sun_direction_eci,
)

# POSIX seconds for the frozen ephemeris cross-check epochs.
EQUINOX_2024 = 1710903960.0  # 2024-03-20 03:06 UTC
SOLSTICE_2024 = 1718916660.0  # 2024-06-20 20:51 UTC


def test_orbit_rejects_subsurface_axis():
    with pytest.raises(ValueError):
        OrbitElements(a_km=6000.0, inc_deg=0.0, raan_deg=0.0, arglat_deg=0.0, epoch=0.0)


def test_orbit_phase_zero_on_node_axis():
    el = OrbitElements(a_km=6771.0, inc_deg=0.0, raan_deg=0.0, arglat_deg=0.0, epoch=0.0)
    r = propagate_orbit(el, 0.0)
    assert np.allclose(r, [6771.0, 0.0, 0.0])


def test_orbit_quarter_period():
    el = OrbitElements(a_km=6771.0, inc_deg=0.0, raan_deg=0.0, arglat_deg=0.0, epoch=0.0)
    r = propagate_orbit(el, el.period_s / 4.0)
    assert abs(np.linalg.norm(r) - 6771.0) < 1e-6
    assert abs(np.degrees(np.arctan2(r[1], r[0])) - 90.0) < 1e-9


def test_orbit_period_kepler_oracle():
    # Independent evaluation of Kepler's third law.
    a = 6771.0
    expected = 2.0 * np.pi * np.sqrt(a**3 / MU_EARTH_KM3_S2)
    el = OrbitElements(a_km=a, inc_deg=51.6, raan_deg=30.0, arglat_deg=10.0, epoch=0.0)
    assert abs(el.period_s - expected) < 1e-9
    assert abs(expected - 5544.0) < 2.0
    # one full period returns to the starting position
    assert np.allclose(propagate_orbit(el, expected), propagate_orbit(el, 0.0), atol=1e-6)


def test_orbit_radius_constant():
    el = OrbitElements(a_km=6771.0, inc_deg=51.6, raan_deg=80.0, arglat_deg=45.0, epoch=100.0)
    for t in np.linspace(100.0, 100.0 + 2 * el.period_s, 17):
        assert abs(np.linalg.norm(propagate_orbit(el, t)) - 6771.0) < 1e-6


def test_orbit_rejects_time_before_epoch():
    el = OrbitElements(a_km=6771.0, inc_deg=0.0, raan_deg=0.0, arglat_deg=0.0, epoch=50.0)
    with pytest.raises(ValueError):
        propagate_orbit(el, 0.0)


def test_sun_unit_norm_seeded_epochs():
    rng = np.random.default_rng(3)
    # anywhere in 2000..2050
    ts = rng.uniform(946684800.0, 2524608000.0, size=10000)
    for t in ts[:200]:
        u = sun_direction_eci(t)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    norms = np.array([np.linalg.norm(sun_direction_eci(t)) for t in ts[::50]])
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_sun_march_equinox_near_vernal_axis():
    u = sun_direction_eci(EQUINOX_2024)
    ang = np.degrees(np.arccos(np.clip(u @ np.array([1.0, 0.0, 0.0]), -1, 1)))
    assert ang < 1.0


def test_sun_june_solstice_declination():
    u = sun_direction_eci(SOLSTICE_2024)
    dec = np.degrees(np.arcsin(u[2]))
    assert abs(dec - 23.44) < 0.1


def test_dipole_equator_and_pole_magnitudes():
    # aligned dipole: tilt zero puts the axis on +z
    b_eq = dipole_field_eci([R_EARTH_KM, 0.0, 0.0], 0.0, b0_gauss=0.306, tilt_deg=0.0)
    assert abs(np.linalg.norm(b_eq) - 0.306) < 1e-12
    b_pole = dipole_field_eci([0.0, 0.0, R_EARTH_KM], 0.0, b0_gauss=0.306, tilt_deg=0.0)
    assert abs(np.linalg.norm(b_pole) - 2 * 0.306) < 1e-12


def test_dipole_radial_falloff_oracle():
    # Independent evaluation of the (Re/r)^3 scaling along one radial.
    r1, r2 = 6378.137, 6778.137
    expected = (r1 / r2) ** 3
    b1 = dipole_field_eci([r1, 0.0, 0.0], 123.0)
    b2 = dipole_field_eci([r2, 0.0, 0.0], 123.0)
    assert abs(np.linalg.norm(b2) / np.linalg.norm(b1) - expected) < 1e-12
    assert abs(expected - 0.833) < 5e-4


def test_dipole_rejects_subsurface_point():
    with pytest.raises(ValueError):
        dipole_field_eci([1000.0, 0.0, 0.0], 0.0)


def test_earth_direction_examples():
    assert np.allclose(earth_direction([7000.0, 0.0, 0.0]), [-1.0, 0.0, 0.0])
    assert np.allclose(earth_direction([0.0, -6771.0, 0.0]), [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        earth_direction([0.0, 0.0, 0.0])


def test_earth_direction_antiparallel_property():
    rng = np.random.default_rng(17)
    for _ in range(100):
        r = rng.normal(scale=7000.0, size=3)
        if np.linalg.norm(r) < 1.0:
            continue
        u = earth_direction(r)
        assert abs(u @ (r / np.linalg.norm(r)) + 1.0) < 1e-12


def test_sunlit_flag():
    u_sun = np.array([1.0, 0.0, 0.0])
    assert is_sunlit([7000.0, 0.0, 0.0], u_sun)  # dayside
    assert not is_sunlit([-7000.0, 0.0, 0.0], u_sun)  # in shadow cylinder
    assert is_sunlit([-7000.0, 7000.0, 0.0], u_sun)  # nightside but off-axis


def test_models_deterministic():
    el = OrbitElements(a_km=6771.0, inc_deg=51.6, raan_deg=12.0, arglat_deg=3.0, epoch=1e9)
    a = propagate_orbit(el, 1e9 + 100.0)
    b = propagate_orbit(el, 1e9 + 100.0)
    assert np.array_equal(a, b)
    assert np.array_equal(sun_direction_eci(1.7e9), sun_direction_eci(1.7e9))
    assert np.array_equal(
        dipole_field_eci([6771.0, 0.0, 0.0], 1.7e9),
        dipole_field_eci([6771.0, 0.0, 0.0], 1.7e9),
    )


def test_whole_pass_calls_match_single_steps():
    # this pass enters the Earth's shadow, so both is_sunlit branches run
    el = OrbitElements(a_km=6771.0, inc_deg=51.6, raan_deg=40.0, arglat_deg=110.0,
                       epoch=1639800000.0)
    t = el.epoch + np.arange(362, dtype=float)
    r = propagate_orbit(el, t)
    u = sun_direction_eci(t)
    assert np.array_equal(r, np.array([propagate_orbit(el, tk) for tk in t]))
    assert np.array_equal(u, np.array([sun_direction_eci(tk) for tk in t]))
    assert np.array_equal(dipole_field_eci(r, t),
                          np.array([dipole_field_eci(rk, tk) for rk, tk in zip(r, t)]))
    assert np.array_equal(earth_direction(r), np.array([earth_direction(rk) for rk in r]))
    lit = is_sunlit(r, u)
    assert lit.shape == (362,) and lit.any() and not lit.all()
    assert np.array_equal(lit, np.array([is_sunlit(rk, uk) for rk, uk in zip(r, u)]))
