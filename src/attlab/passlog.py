"""Pass log container and its on-disk format.

A pass is one 6-minute observation log: 362 records at a strict 1 s
cadence. Each record carries the raw coarse-sensor counts, the gyro
rates, the inertial model vectors, the orbit position, and the truth
attitude. On disk a pass is a CSV plus a JSON sidecar manifest
(``<name>.manifest.json``) holding the scenario, seed, and per-step
sunlit/saturation flags.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataIntegrityError

PASS_SAMPLES = 362
PASS_DT_S = 1.0
UNIT_NORM_TOL = 1e-6

CSV_COLUMNS = (
    "t,css0,css1,css2,css3,css4,css5,mag0,mag1,mag2,w0,w1,w2,"
    "uSx,uSy,uSz,uBx,uBy,uBz,rx,ry,rz,qx,qy,qz,qw"
)


@dataclass
class PassLog:
    pass_id: str
    t: np.ndarray  # (362,) seconds from pass start
    css: np.ndarray  # (362, 6) ADC counts, non-negative integers
    mag: np.ndarray  # (362, 3) ADC counts, integers
    w: np.ndarray  # (362, 3) gyro rates, deg/s
    uS_i: np.ndarray  # (362, 3) model Sun direction, ECI unit vectors
    uB_i: np.ndarray  # (362, 3) model field direction, ECI unit vectors
    r_km: np.ndarray  # (362, 3) orbit position, km ECI
    q_true: np.ndarray  # (362, 4) truth attitude [x, y, z, w]
    manifest: dict = field(default_factory=dict)

    def validate(self):
        n = len(self.t)
        if n != PASS_SAMPLES:
            raise DataIntegrityError(f"pass has {n} records, expected {PASS_SAMPLES}")
        if not np.array_equal(np.diff(self.t), np.full(n - 1, PASS_DT_S)):
            raise DataIntegrityError("samples are not on a strict 1 s cadence")
        if np.any(self.css < 0):
            raise DataIntegrityError("negative CSS counts")
        if np.any(self.css != np.round(self.css)) or np.any(self.mag != np.round(self.mag)):
            raise DataIntegrityError("ADC counts must be integer-valued")
        qn = np.linalg.norm(self.q_true, axis=1)
        if np.any(np.abs(qn - 1.0) > UNIT_NORM_TOL):
            raise DataIntegrityError("truth quaternion is not unit norm")
        return self


def _fmt(x):
    return repr(float(x))


def write_passlog(log, csv_path):
    """Write the pass CSV and its sidecar manifest; returns both paths."""
    log.validate()
    lines = [CSV_COLUMNS]
    for k in range(PASS_SAMPLES):
        cells = [str(int(log.t[k]))]
        cells += [str(int(v)) for v in log.css[k]]
        cells += [str(int(v)) for v in log.mag[k]]
        cells += [_fmt(v) for v in log.w[k]]
        cells += [_fmt(v) for v in log.uS_i[k]]
        cells += [_fmt(v) for v in log.uB_i[k]]
        cells += [_fmt(v) for v in log.r_km[k]]
        cells += [_fmt(v) for v in log.q_true[k]]
        lines.append(",".join(cells))
    csv_path = str(csv_path)
    with open(csv_path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    manifest_path = manifest_path_for(csv_path)
    with open(manifest_path, "w", newline="\n") as f:
        json.dump(log.manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return csv_path, manifest_path


def manifest_path_for(csv_path):
    csv_path = str(csv_path)
    stem = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
    return stem + ".manifest.json"


def _check_cells(data, csv_path):
    """Reject non-finite cells and model vectors off unit norm, naming the
    file, the column and the step of the first offending record."""
    columns = CSV_COLUMNS.split(",")
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        k, col = bad[0]
        raise DataIntegrityError(
            f"{csv_path}: non-finite value in column {columns[col]} at step {k}")
    for first in (13, 16):  # uS_i, uB_i
        norm = np.linalg.norm(data[:, first:first + 3], axis=1)
        off = np.flatnonzero(np.abs(norm - 1.0) > UNIT_NORM_TOL)
        if len(off):
            k = off[0]
            raise DataIntegrityError(
                f"{csv_path}: columns {','.join(columns[first:first + 3])} are not "
                f"a unit vector at step {k} (norm {norm[k]:.9g})")


def read_passlog(csv_path):
    """Load and validate a pass CSV; the manifest sidecar is loaded if present."""
    with open(csv_path) as f:
        header = f.readline().strip()
        if header != CSV_COLUMNS:
            raise DataIntegrityError(f"unexpected pass CSV header in {csv_path}")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    if data.shape[1] != 26:
        raise DataIntegrityError(f"expected 26 columns, found {data.shape[1]}")
    _check_cells(data, csv_path)
    manifest = {}
    try:
        with open(manifest_path_for(csv_path)) as f:
            manifest = json.load(f)
    except FileNotFoundError:
        pass
    pass_id = manifest.get("pass_id", str(csv_path))
    log = PassLog(
        pass_id=pass_id,
        t=data[:, 0],
        css=data[:, 1:7],
        mag=data[:, 7:10],
        w=data[:, 10:13],
        uS_i=data[:, 13:16],
        uB_i=data[:, 16:19],
        r_km=data[:, 19:22],
        q_true=data[:, 22:26],
        manifest=manifest,
    )
    return log.validate()
