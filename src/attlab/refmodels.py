"""Deterministic physics models for the inertial reference vectors.

Supplies what a flight log would have carried: orbit position (circular
Kepler propagation in place of GPS fixes), an analytic low-precision Sun
ephemeris, a tilted centered-dipole geomagnetic field, and the Earth
direction. The ECI frame is a fixed mean-equator frame; Earth rotation
enters only through the dipole tilt phase.

Time is UTC expressed as POSIX seconds (seconds since 1970-01-01T00:00Z).
``propagate_orbit``, ``sun_direction_eci`` and ``dipole_field_eci`` take a
time array as well as one time, and the position-based functions take an
``(L, 3)`` position stack, so a whole pass is modelled in one call per
model; each row has the bits of the single-step call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rotations import _dot

MU_EARTH_KM3_S2 = 398600.4418
R_EARTH_KM = 6378.137

# Centered-dipole defaults: surface equatorial field and axis tilt.
DIPOLE_B0_GAUSS = 0.306
DIPOLE_TILT_DEG = 11.5

_JD_UNIX_EPOCH = 2440587.5
_JD_J2000 = 2451545.0


@dataclass(frozen=True)
class OrbitElements:
    """Circular orbit: size, orientation, and along-track phase at epoch."""

    a_km: float
    inc_deg: float
    raan_deg: float
    arglat_deg: float
    epoch: float  # UTC seconds

    def __post_init__(self):
        if self.a_km <= R_EARTH_KM:
            raise ValueError(
                f"semimajor axis {self.a_km} km is at or below the Earth surface"
            )

    @property
    def period_s(self):
        return 2.0 * np.pi * np.sqrt(self.a_km**3 / MU_EARTH_KM3_S2)


def _plane_basis(el):
    """In-plane unit vectors (ascending node, 90 deg downstream) in ECI."""
    raan = np.radians(el.raan_deg)
    inc = np.radians(el.inc_deg)
    cO, sO = np.cos(raan), np.sin(raan)
    ci, si = np.cos(inc), np.sin(inc)
    p = np.array([cO, sO, 0.0])
    q = np.array([-sO * ci, cO * ci, si])
    return p, q


def propagate_orbit(el, t):
    """ECI position (km) of the circular orbit at UTC time(s) t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < el.epoch):
        raise ValueError("propagation time precedes the element epoch")
    n = np.sqrt(MU_EARTH_KM3_S2 / el.a_km**3)
    u = (np.radians(el.arglat_deg) + n * (t - el.epoch))[..., None]
    p, q = _plane_basis(el)
    return el.a_km * (np.cos(u) * p + np.sin(u) * q)


def _julian_centuries(t):
    jd = t / 86400.0 + _JD_UNIX_EPOCH
    return (jd - _JD_J2000) / 36525.0


def sun_direction_eci(t):
    """Unit Sun direction in ECI from a mean-elements solar ephemeris.

    Accuracy is on the order of 0.01 deg over 2000-2050, well inside the
    coarse-sensor error budget.
    """
    T = _julian_centuries(t)
    mean_lon = np.radians((280.460 + 36000.771 * T) % 360.0)
    mean_anom = np.radians((357.5291092 + 35999.05034 * T) % 360.0)
    ecl_lon = mean_lon + np.radians(
        1.914666471 * np.sin(mean_anom) + 0.019994643 * np.sin(2.0 * mean_anom)
    )
    obliq = np.radians(23.439291 - 0.0130042 * T)
    u = np.stack([
        np.cos(ecl_lon),
        np.cos(obliq) * np.sin(ecl_lon),
        np.sin(obliq) * np.sin(ecl_lon),
    ], axis=-1)
    return u / np.sqrt(_dot(u, u))[..., None]


def _dipole_axis(t, tilt_deg):
    """Dipole axis unit vector; the tilt phase rotates at the sidereal rate."""
    # GMST-like phase; only the dipole longitude depends on it.
    days = t / 86400.0 + _JD_UNIX_EPOCH - _JD_J2000
    alpha = 4.894961212823058 + 6.300388098984891 * days
    tilt = np.radians(tilt_deg)
    return np.stack([
        np.sin(tilt) * np.cos(alpha),
        np.sin(tilt) * np.sin(alpha),
        np.full_like(alpha, np.cos(tilt)),
    ], axis=-1)


def dipole_field_eci(r_km, t, b0_gauss=DIPOLE_B0_GAUSS, tilt_deg=DIPOLE_TILT_DEG):
    """Geomagnetic field vector (gauss) of a tilted centered dipole at r_km."""
    r_km = np.asarray(r_km, dtype=float)
    rn = np.sqrt(_dot(r_km, r_km))
    if np.any(rn < R_EARTH_KM):
        raise ValueError("field point is below the Earth surface")
    rhat = r_km / rn[..., None]
    m = _dipole_axis(np.asarray(t, dtype=float), tilt_deg)
    # libm pow per point: an array ``** 3`` runs numpy's SIMD power, which
    # is one ulp off libm on some inputs, so a pass would lose the bits of
    # the single-step call.
    cube = np.vectorize(math.pow, otypes=[float])(R_EARTH_KM / rn, 3.0)
    return (b0_gauss * cube)[..., None] * (3.0 * _dot(m, rhat)[..., None] * rhat - m)


def earth_direction(r_km):
    """Unit vector from the satellite toward the Earth center: -r/|r|."""
    r_km = np.asarray(r_km, dtype=float)
    rn = np.sqrt(_dot(r_km, r_km))
    if np.any(rn == 0.0):
        raise ValueError("zero position vector has no Earth direction")
    return -r_km / rn[..., None]


def is_sunlit(r_km, u_sun):
    """Cylindrical-shadow test: False only inside the Earth's shadow."""
    r_km = np.asarray(r_km, dtype=float)
    u_sun = np.asarray(u_sun, dtype=float)
    along = _dot(r_km, u_sun)
    perp = r_km - along[..., None] * u_sun
    return (along >= 0.0) | (np.sqrt(_dot(perp, perp)) > R_EARTH_KM)
