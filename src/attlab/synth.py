"""Synthetic pass generator.

Fabricates 6-minute microsatellite pass logs: a hold/slew/hold maneuver
profile, coarse Sun-sensor and magnetometer ADC counts with structured
errors (per-panel gains and biases, Earth-albedo crosstalk, hard-iron
offset, mounting misalignment), gyro rates with bias, and the truth
attitude standing in for the star-tracker/gyro solution.

Structured errors dominate white noise on purpose: constant offsets and
geometry-dependent crosstalk are what separate a learned estimator from
the TRIAD baseline, while a white-noise-only simulator would make the
two indistinguishable.
"""

from dataclasses import replace

import numpy as np

from . import refmodels
from .errors import ScenarioInfeasibleError
from .passlog import PASS_SAMPLES, Maneuver, PassLog, PassManifest, Scenario, SensorErrors
from .refmodels import OrbitElements
from .rotations import (
    _cross,
    quat_canonical,
    quat_conjugate,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quat_to_axis_angle,
    quat_to_dcm,
)

# Body-frame panel normals for css[0..5]; ordering pinned by golden tests.
PANEL_NORMALS = np.array([
    [1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, -1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0],
])

MAG_RAIL_GAUSS = 2.0  # sensor saturates at +/- 2 gauss


def make_attitude_profile(sc):
    """Truth attitude and body rate over the pass.

    Holds the initial attitude until the maneuver starts, slews about the
    commanded body axis at the rate limit, then holds the target. Rates
    are the finite-difference rotation between consecutive attitudes, so
    integrating them reproduces the quaternion sequence.
    """
    man = sc.maneuver
    t = np.arange(PASS_SAMPLES, dtype=float)
    if man.magnitude_deg > 0:
        slew_time = man.magnitude_deg / man.rate_limit_dps
        if man.start_s + slew_time > t[-1]:
            raise ScenarioInfeasibleError(
                f"maneuver of {man.magnitude_deg} deg at {man.rate_limit_dps} deg/s "
                f"starting t={man.start_s} s does not complete within the pass"
            )
    theta = np.clip(man.rate_limit_dps * (t - man.start_s), 0.0, man.magnitude_deg)
    q0 = quat_canonical(quat_normalize(np.asarray(sc.q0, dtype=float)))
    q = quat_multiply(q0, quat_from_axis_angle(man.axis, theta))
    axis, ang = quat_to_axis_angle(quat_multiply(quat_conjugate(q[:-1]), q[1:]))
    w = axis * ang[:, None]  # deg/s at 1 s cadence
    return q, np.concatenate([w, w[-1:]])


def simulate_css(q_true, uS_i, uE_i, sunlit, err, rng):
    """Six-panel Sun-sensor ADC counts for one step or a stack of steps.

    count_p = round(gain_p * max(0, n_p . uS_b) * sunlit
                    + albedo_coeff * gain_p * max(0, n_p . uE_b)
                    + bias_p + noise), clamped at zero.
    """
    uS_b = quat_rotate(q_true, uS_i)
    uE_b = quat_rotate(q_true, uE_i)
    gain = np.asarray(err.css_gain, dtype=float)
    bias = np.asarray(err.css_bias, dtype=float)
    lit = np.asarray(sunlit, dtype=float)[..., None]
    direct = gain * np.maximum(0.0, uS_b @ PANEL_NORMALS.T) * lit
    albedo = err.albedo_coeff * gain * np.maximum(0.0, uE_b @ PANEL_NORMALS.T)
    counts = direct + albedo + bias
    if err.css_noise > 0:
        counts = counts + rng.normal(0.0, err.css_noise, size=counts.shape)
    return np.maximum(0, np.round(counts)).astype(np.int64)


def _misalignment_dcm(err):
    if err.mag_misalign_deg == 0.0:
        return np.eye(3)
    return quat_to_dcm(quat_from_axis_angle(err.mag_misalign_axis, err.mag_misalign_deg))


def simulate_mag(q_true, B_i_gauss, err, rng):
    """Magnetometer ADC counts; returns (counts, saturated flag).

    The misaligned, hard-iron-offset body field saturates at the +/- 2
    gauss rails before digitization; saturation is flagged, not an error.
    """
    B_b = quat_rotate(q_true, B_i_gauss)
    M = _misalignment_dcm(err)
    f = B_b @ M.T + np.asarray(err.mag_hard_iron, dtype=float)
    saturated = np.any(np.abs(f) > MAG_RAIL_GAUSS, axis=-1)
    f = np.clip(f, -MAG_RAIL_GAUSS, MAG_RAIL_GAUSS)
    counts = np.asarray(err.mag_ref, dtype=float) + err.mag_scale * f
    if err.mag_noise > 0:
        counts = counts + rng.normal(0.0, err.mag_noise, size=counts.shape)
    return np.round(counts).astype(np.int64), saturated


def simulate_gyro(w_true, err, rng):
    """Measured body rates: truth plus constant bias plus white noise."""
    w = np.asarray(w_true, dtype=float) + np.asarray(err.gyro_bias_dps, dtype=float)
    if err.gyro_noise_dps > 0:
        w = w + rng.normal(0.0, err.gyro_noise_dps, size=w.shape)
    return w


def synth_pass(sc):
    """Generate one PassLog; deterministic for a fixed scenario and seed."""
    rng = np.random.default_rng(sc.seed)
    q_true, w_true = make_attitude_profile(sc)

    t_abs = sc.epoch + np.arange(PASS_SAMPLES, dtype=float)
    r = refmodels.propagate_orbit(sc.orbit, t_abs)
    uS = refmodels.sun_direction_eci(t_abs)
    B = refmodels.dipole_field_eci(r, t_abs)
    uE = refmodels.earth_direction(r)
    if sc.force_eclipse:
        sunlit = np.zeros(PASS_SAMPLES, dtype=bool)
    else:
        sunlit = refmodels.is_sunlit(r, uS)
    uB = B / np.linalg.norm(B, axis=1, keepdims=True)

    css = simulate_css(q_true, uS, uE, sunlit, sc.errors, rng)
    mag, saturated = simulate_mag(q_true, B, sc.errors, rng)
    w_meas = simulate_gyro(w_true, sc.errors, rng)

    log = PassLog(
        pass_id=sc.pass_id,
        t=np.arange(PASS_SAMPLES, dtype=float),
        css=css,
        mag=mag,
        w=w_meas,
        uS_i=uS,
        uB_i=uB,
        r_km=r,
        q_true=q_true,
        manifest=PassManifest(pass_id=sc.pass_id, seed=sc.seed, scenario=sc,
                              scenario_hash=sc.hash(), sunlit=sunlit, mag_saturated=saturated),
    )
    return log.validate()


# ---------------------------------------------------------------------------
# Default scenario catalog
# ---------------------------------------------------------------------------

# 2021-12-18 04:00 UTC; passes repeat at near-daily whole-orbit spacing so
# the Sun/field geometry drifts only ~1 deg between passes.
CATALOG_BASE_EPOCH = 1639800000.0
CATALOG_ORBIT_A_KM = 6771.0
CATALOG_ORBIT_INC_DEG = 51.6

# Shared sensor hardware across all catalog passes: the structured errors
# are properties of the spacecraft, not of an individual pass. Magnitudes
# are calibrated so the TRIAD baseline lands in the several-degree regime.
CATALOG_ERRORS = SensorErrors(
    css_gain=(1450.0, 820.0, 1020.0, 800.0, 1280.0, 770.0),
    css_bias=(165.0, 118.0, 88.0, 135.0, 210.0, 102.0),
    css_noise=1.5,
    albedo_coeff=0.45,
    mag_ref=(32768.0, 32768.0, 32768.0),
    mag_scale=8000.0,
    mag_noise=12.0,
    mag_hard_iron=(0.015, -0.0115, 0.013),
    mag_misalign_deg=1.05,
    mag_misalign_axis=(1.0, 1.0, 1.0),
    gyro_bias_dps=(0.018, -0.022, 0.011),
    gyro_noise_dps=0.008,
)

_SUN_BODY_TARGET = np.array([0.75, 0.45, 0.49])  # keeps three panels lit

# Small per-pass variations: attitude trim (axis, deg) and slew size. The
# maneuver template is shared; geometry drifts mainly through the epochs.
_PASS_TRIMS = [
    ((0.0, 1.0, 0.0), 0.0),
    ((1.0, 0.0, 0.0), 0.6),
    ((0.0, 1.0, 0.0), -0.5),
    ((0.0, 0.0, 1.0), 0.8),
    ((1.0, 1.0, 0.0), -0.7),
]
_PASS_SLEW_DEG = [40.0, 38.5, 41.5, 39.5, 40.5]
_PASS_MAN_AXES = [(0.12, 0.10, 1.0)] * 5


def _noon_orbit(epoch, t_mid):
    """Orbit elements placing the satellite near the subsolar point at t_mid."""
    s = refmodels.sun_direction_eci(t_mid)
    inc = np.radians(CATALOG_ORBIT_INC_DEG)
    # Solve for the RAAN that puts the Sun in the orbit plane:
    # A sin(raan) + B cos(raan) = C
    A = np.sin(inc) * s[0]
    B = -np.sin(inc) * s[1]
    C = -np.cos(inc) * s[2]
    R = np.hypot(A, B)
    raan = np.arcsin(np.clip(C / R, -1.0, 1.0)) - np.arctan2(B, A)
    el = OrbitElements(
        a_km=CATALOG_ORBIT_A_KM,
        inc_deg=CATALOG_ORBIT_INC_DEG,
        raan_deg=float(np.degrees(raan) % 360.0),
        arglat_deg=0.0,
        epoch=epoch,
    )
    # Argument of latitude pointing closest to the Sun at mid-pass.
    p, q = refmodels._plane_basis(el)
    u_mid = np.arctan2(q @ s, p @ s)
    n = np.sqrt(refmodels.MU_EARTH_KM3_S2 / el.a_km**3)
    arglat0 = float(np.degrees(u_mid - n * (t_mid - epoch)) % 360.0)
    return OrbitElements(
        a_km=el.a_km,
        inc_deg=el.inc_deg,
        raan_deg=el.raan_deg,
        arglat_deg=arglat0,
        epoch=epoch,
    )


def _attitude_pointing_sun_at(u_sun, body_target):
    """Frame quaternion whose DCM maps u_sun onto the given body direction."""
    u = u_sun / np.linalg.norm(u_sun)
    d = body_target / np.linalg.norm(body_target)
    axis = _cross(u, d)
    an = np.linalg.norm(axis)
    if an < 1e-12:
        return np.array([0.0, 0.0, 0.0, 1.0])
    phi = np.degrees(np.arctan2(an, u @ d))
    # quat_from_axis_angle builds a frame rotation; the active map u -> d
    # is its inverse, hence the negative angle.
    return quat_from_axis_angle(axis / an, -phi)


def default_catalog(base_seed=20211218, errors=CATALOG_ERRORS):
    """Five similar passes: same maneuver template, slowly drifting geometry."""
    period = OrbitElements(
        a_km=CATALOG_ORBIT_A_KM, inc_deg=CATALOG_ORBIT_INC_DEG,
        raan_deg=0.0, arglat_deg=0.0, epoch=0.0,
    ).period_s
    spacing = round(86400.0 / period) * period
    scenarios = []
    for k in range(5):
        epoch = CATALOG_BASE_EPOCH + k * spacing
        t_mid = epoch + 180.0
        orbit = _noon_orbit(epoch, t_mid)
        u_sun = refmodels.sun_direction_eci(epoch)
        q0 = _attitude_pointing_sun_at(u_sun, _SUN_BODY_TARGET)
        trim_axis, trim_deg = _PASS_TRIMS[k]
        if trim_deg != 0.0:
            q0 = quat_multiply(q0, quat_from_axis_angle(trim_axis, trim_deg))
        scenarios.append(Scenario(
            pass_id=f"P{k + 1}",
            orbit=orbit,
            epoch=epoch,
            q0=tuple(np.asarray(q0, dtype=float)),
            maneuver=Maneuver(
                axis=_PASS_MAN_AXES[k],
                magnitude_deg=_PASS_SLEW_DEG[k],
                start_s=60.0,
                rate_limit_dps=0.5,
            ),
            errors=errors,
            seed=base_seed + k,
        ))
    return scenarios


def eclipse_variant(sc):
    """Same pass with the Sun switched off: no direct light, no albedo."""
    return replace(
        sc,
        pass_id=sc.pass_id + "e",
        errors=replace(sc.errors, albedo_coeff=0.0, css_noise=0.0),
        force_eclipse=True,
    )
