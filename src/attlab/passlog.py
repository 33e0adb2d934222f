"""Pass log container and its on-disk format.

A pass is one 6-minute observation log: 362 records at a strict 1 s
cadence. Each record carries the raw coarse-sensor counts, the gyro
rates, the inertial model vectors, the orbit position, and the truth
attitude. On disk a pass is a CSV plus a JSON sidecar manifest
(``<name>.manifest.json``), read as a ``PassManifest``: the ``Scenario``
the pass was made from, its seed, and per-step sunlit/saturation flags.
The writer also leaves ``<name>.records``, the CSV's numbers in binary
under a digest of the CSV's bytes; the reader takes them from there only
while the digest matches, and otherwise parses the CSV. Both apply the
one column layout, ``PASS_LAYOUT``, and the one set of record rules,
``PassLog.validate``. ``from_dict`` is the one path from a JSON-style
dict to a dataclass, and ``to_dict`` the way back.
"""

import hashlib
import json
import os
import re
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .errors import DataIntegrityError
from .refmodels import OrbitElements

PASS_SAMPLES = 362
PASS_DT_S = 1.0
UNIT_NORM_TOL = 1e-6

CSV_COLUMNS = (
    "t,css0,css1,css2,css3,css4,css5,mag0,mag1,mag2,w0,w1,w2,"
    "uSx,uSy,uSz,uBx,uBy,uBz,rx,ry,rz,qx,qy,qz,qw"
)
_COLUMNS = CSV_COLUMNS.split(",")


def _layout(widths):
    """``{field: (index, names)}`` of a record's columns, fields in file
    order; a one-column field's index is its position, so it reads as (L,)."""
    layout, start = {}, 0
    for name, width in widths.items():
        index = start if width == 1 else slice(start, start + width)
        layout[name] = index, _COLUMNS[start:start + width]
        start += width
    return layout


# The PassLog arrays in file order, by width; the counts (seconds and ADC
# counts) come first and are written as integers.
PASS_LAYOUT = _layout({"t": 1, "css": 6, "mag": 3, "w": 3, "uS_i": 3, "uB_i": 3,
                       "r_km": 3, "q_true": 4})
COUNT_FIELDS = ("t", "css", "mag")
# A records file: this magic, SHA-256 of the CSV's bytes followed by the
# body, then the body, each record's 26 columns as little-endian float64.
RECORDS_MAGIC = b"ATTLAB-RECORDS1\n"
_BODY_START = len(RECORDS_MAGIC) + hashlib.sha256().digest_size
# The header line and its line end, any of "\n", "\r\n" and "\r"
_HEADER_LINE = re.compile(rb"[^\r\n]*(\r\n?|\n)?")


# Types a scalar field accepts; a bool (a Python int) is never a number.
_JSON_TYPES = {int: int, float: (int, float), bool: bool, str: str}


def check_type(where, key, value, kind):
    """``value`` when it has the scalar type ``kind`` (int, float, bool or
    str), else a ValueError, prefixed with ``where``, naming ``key``."""
    if (not isinstance(value, _JSON_TYPES[kind])
            or isinstance(value, bool) != (kind is bool)):
        raise ValueError(f"{where}: key {key!r} must be {kind.__name__}, got {value!r}")
    return value


def from_dict(cls, d, where, path=""):
    """A ``cls`` dataclass from a JSON-style dict. A dataclass field is read
    from its nested dict the same way, a tuple field from a list and a dict
    field from an object; an int, float, bool or str field must get a value
    of that type, kept unconverted, and a float field a finite one. Raises
    ValueError, prefixed with ``where`` and the dotted key ``path`` to
    ``d``, naming an unknown, missing or wrongly typed key; a ValueError
    from ``cls`` itself gets the same prefix."""
    prefix = f"{where}: {path}" if path else where
    if not isinstance(d, dict):
        named = f" for key {path.rpartition('.')[2]!r}" if path else ""
        raise ValueError(f"{prefix}: expected an object{named}, got {type(d).__name__}")
    known = {f.name: f for f in fields(cls)}
    for key in d:
        if key not in known:
            raise ValueError(f"{prefix}: unknown key {key!r}")
    for name, f in known.items():
        if name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{prefix}: missing key {name!r}")
    values = {}
    for key, v in d.items():
        kind = known[key].type
        if is_dataclass(kind):
            v = from_dict(kind, v, where, f"{path}.{key}" if path else key)
        elif kind is tuple:
            if not isinstance(v, (list, tuple)):
                raise ValueError(f"{prefix}: key {key!r} must be a list")
            v = tuple(v)
        elif kind is dict and not isinstance(v, dict):
            raise ValueError(f"{prefix}: key {key!r} must be an object, got {v!r}")
        elif kind in _JSON_TYPES:
            check_type(prefix, key, v, kind)
            if kind is float and not _finite_number(v):
                raise ValueError(f"{prefix}: key {key!r} must be finite, got {v!r}")
        values[key] = v
    try:
        return cls(**values)
    except ValueError as e:  # the dataclass's own range checks
        raise ValueError(f"{prefix}: {e}") from None


def _finite_number(x):
    """True for a finite int or float, an int within float range; a bool is not a number."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)  # False for NaN; exact for any int


def check_numbers(key, value, n, nonzero=False):
    """Raise a ValueError naming ``key`` unless ``value`` holds ``n`` finite
    numbers, not all zero when ``nonzero``."""
    if (len(value) != n or not all(map(_finite_number, value))
            or nonzero and not any(value)):
        raise ValueError(f"key {key!r} must be a list of {n} finite numbers"
                         f"{', not all zero' if nonzero else ''}, got {value!r}")


def to_dict(obj):
    """The dataclass ``obj`` as ``from_dict`` reads it: no None field at any depth, a flag
    array as 0/1."""
    return asdict(obj, dict_factory=lambda items: {
        key: value.astype(int).tolist() if isinstance(value, np.ndarray) else value
        for key, value in items if value is not None})


@dataclass
class SensorErrors:
    """Error knobs for the coarse-sensor suite; all counts are ADC counts. A
    tuple field holds as many finite numbers as its default, one per panel
    or axis; ``from_dict`` sees that a float field is finite."""

    css_gain: tuple = (1000.0,) * 6
    css_bias: tuple = (0.0,) * 6
    css_noise: float = 0.0
    albedo_coeff: float = 0.0  # per-panel albedo gain = albedo_coeff * css_gain
    mag_ref: tuple = (32768.0,) * 3
    mag_scale: float = 8000.0  # counts per gauss
    mag_noise: float = 0.0  # counts
    mag_hard_iron: tuple = (0.0, 0.0, 0.0)  # gauss, body frame
    mag_misalign_deg: float = 0.0
    mag_misalign_axis: tuple = (1.0, 1.0, 1.0)
    gyro_bias_dps: tuple = (0.0, 0.0, 0.0)
    gyro_noise_dps: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if f.type is tuple:
                check_numbers(f.name, getattr(self, f.name), len(f.default))
        for key in ("css_noise", "mag_noise", "gyro_noise_dps"):
            value = getattr(self, key)
            if value < 0:
                raise ValueError(f"key {key!r} must be non-negative, got {value!r}")
        if self.mag_scale <= 0:
            raise ValueError(f"key 'mag_scale' must be positive, got {self.mag_scale!r}")


def check_pass_id(where, value):
    """Raise a ValueError naming ``where``, the file and key a pass id came
    from, unless the id ``value`` can name a file: a string that is not
    empty, ``.`` or ``..`` and holds no path separator or NUL."""
    if (not isinstance(value, str) or value in ("", ".", "..")
            or any(c and c in value for c in ("/", "\0", os.sep, os.altsep))):
        raise ValueError(f"{where} must be a string that names a file (not empty, "
                         f"'.' or '..', and without '/' or NUL), got {value!r}")


@dataclass
class Maneuver:
    axis: tuple = (0.0, 0.0, 1.0)  # body frame
    magnitude_deg: float = 0.0
    start_s: float = 60.0
    rate_limit_dps: float = 0.5

    def __post_init__(self):
        check_numbers("axis", self.axis, 3, nonzero=True)
        if self.start_s < 0:
            raise ValueError("maneuver start must be >= 0")
        if not 0.0 < self.rate_limit_dps <= 5.0:
            raise ValueError("rate limit must be in (0, 5] deg/s")


@dataclass
class Scenario:
    pass_id: str
    orbit: OrbitElements
    epoch: float  # pass start, UTC seconds
    q0: tuple  # initial attitude [x, y, z, w]
    maneuver: Maneuver = field(default_factory=Maneuver)
    errors: SensorErrors = field(default_factory=SensorErrors)
    seed: int = 0
    force_eclipse: bool = False

    def __post_init__(self):
        check_pass_id("key 'pass_id'", self.pass_id)
        check_numbers("q0", self.q0, 4, nonzero=True)
        if self.seed < 0:
            raise ValueError(f"key 'seed' must be >= 0, got {self.seed!r}")

    def hash(self):
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class PassManifest:
    """A pass's sidecar manifest; an absent key reads as None, a flag list as a bool array."""

    pass_id: str = None
    seed: int = None
    scenario: Scenario = None
    scenario_hash: str = None  # the first 16 hex digits of Scenario.hash
    sunlit: tuple = None
    mag_saturated: tuple = None

    def __post_init__(self):
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"key 'seed' must be >= 0, got {self.seed!r}")
        if self.scenario_hash is not None and not re.fullmatch("[0-9a-f]{16}",
                                                               self.scenario_hash):
            raise ValueError("key 'scenario_hash' must be 16 lowercase hex digits, "
                             f"got {self.scenario_hash!r}")
        for key in ("sunlit", "mag_saturated"):
            flags = getattr(self, key)
            if isinstance(flags, tuple):  # as read from a list
                if [type(v) for v in flags] != [int] * PASS_SAMPLES or set(flags) - {0, 1}:
                    raise ValueError(f"key {key!r} must be a list of {PASS_SAMPLES} "
                                     "entries, each 0 or 1")
                setattr(self, key, np.array(flags, dtype=bool))


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
    manifest: PassManifest = field(default_factory=PassManifest)
    # set by read_passlog: the CSV's path and the hex SHA-256 of the CSV and
    # manifest bytes it parsed (None without a manifest)
    csv_path: str | None = None
    csv_sha256: str | None = None
    manifest_sha256: str | None = None

    def input_hashes(self):
        """``{path: hex SHA-256}`` of the CSV and manifest read_passlog parsed."""
        paths = self.csv_path, manifest_path_for(self.csv_path)
        return {p: h for p, h in zip(paths, (self.csv_sha256, self.manifest_sha256)) if h}

    def validate(self):
        """The log itself; a violated invariant raises DataIntegrityError
        naming the column and the step (record index) of the first
        offending record."""
        arrays = [getattr(self, name) for name in PASS_LAYOUT]
        if not all(np.isfinite(a).all() for a in arrays):
            _reject_first(~np.isfinite(np.column_stack(arrays)), _COLUMNS, "non-finite value")
        gaps = np.diff(self.t) != PASS_DT_S
        if gaps.any():
            k = gaps.argmax() + 1
            raise DataIntegrityError(
                f"column t is not on a strict 1 s cadence at step {k} "
                f"({self.t[k - 1]:g} s, then {self.t[k]:g} s)")
        n = len(self.t)
        if n != PASS_SAMPLES:
            raise DataIntegrityError(f"pass has {n} records, expected {PASS_SAMPLES}")
        css, mag = PASS_LAYOUT["css"][1], PASS_LAYOUT["mag"][1]
        _reject_first(self.css < 0, css, "negative ADC count")
        _reject_first(self.css != np.round(self.css), css, "ADC count is not an integer")
        _reject_first(self.mag != np.round(self.mag), mag, "ADC count is not an integer")
        for name, kind in (("uS_i", "vector"), ("uB_i", "vector"), ("q_true", "quaternion")):
            norm = np.linalg.norm(getattr(self, name), axis=1)
            off = np.abs(norm - 1.0) > UNIT_NORM_TOL
            if off.any():
                k = off.argmax()
                raise DataIntegrityError(
                    f"columns {','.join(PASS_LAYOUT[name][1])} are not a unit {kind} "
                    f"at step {k} (norm {norm[k]:.9g})")
        return self


def _reject_first(bad, columns, problem):
    """Raise naming column ``columns[j]`` and step ``k`` of the first True
    entry ``[k, j]`` of the ``(L, m)`` mask ``bad``."""
    if bad.any():
        k, j = np.argwhere(bad)[0]
        raise DataIntegrityError(f"{problem} in column {columns[j]} at step {k}")


def write_text(path, text):
    """Write ``text`` with LF line endings; every text artifact goes through here."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    return path


def write_json(path, obj):
    """Indented, key-sorted JSON with a trailing newline."""
    return write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, blocks):
    """A CSV of whole-pass ``(L,)`` or ``(L, k)`` blocks, in column order.

    Integer blocks print with ``str``, float blocks with ``repr`` (the
    shortest text that reads back to the same double) and NaN as an empty
    cell.
    """
    return write_text(path, _csv_text(header, blocks))


def _csv_text(header, blocks):
    """The text ``write_csv`` writes."""
    columns = []
    for block in map(np.asarray, blocks):
        cols = block.reshape(len(block), -1).T.tolist()
        if block.dtype.kind in "iu":
            columns += [list(map(str, col)) for col in cols]
        else:
            columns += [[repr(v) if v == v else "" for v in col] for col in cols]
    rows = map(",".join, zip(*columns))
    return "\n".join([header, *rows]) + "\n"


def write_series_csv(path, series):
    """A per-pass series: a dict of ``(L,)`` arrays keyed by column, in
    column order, written as ``write_csv`` writes blocks."""
    return write_csv(path, ",".join(series), series.values())


def _blocks(log, names):
    """The ``names`` arrays of ``log`` in order, the counts as int64."""
    return [np.asarray(getattr(log, name)).astype(np.int64) if name in COUNT_FIELDS
            else getattr(log, name) for name in names]


def write_passlog(log, csv_path):
    """Write the pass CSV, its records file and its sidecar manifest;
    returns the paths of the CSV and the manifest. A log that
    ``PassLog.validate`` rejects writes nothing."""
    log.validate()
    blocks = _blocks(log, PASS_LAYOUT)
    text = _csv_text(CSV_COLUMNS, blocks)
    csv_path = write_text(str(csv_path), text)
    # the blocks as float64 are the numbers the text reads back as: an
    # integer is exact, and a float's repr reads back to the same double
    body = np.column_stack(blocks).astype("<f8").tobytes()
    digest = hashlib.sha256(text.encode("utf-8"))
    digest.update(body)
    with open(records_path_for(csv_path), "wb") as f:
        f.write(RECORDS_MAGIC + digest.digest() + body)
    return csv_path, write_json(manifest_path_for(csv_path), to_dict(log.manifest))


def write_raw_profile_csv(log, path):
    """The pass's raw counts per step, its first columns, for profile-shape
    comparisons."""
    header = ",".join(c for name in COUNT_FIELDS for c in PASS_LAYOUT[name][1])
    return write_csv(path, header, _blocks(log, COUNT_FIELDS))


def manifest_path_for(csv_path):
    return str(csv_path).removesuffix(".csv") + ".manifest.json"


def records_path_for(csv_path):
    return str(csv_path).removesuffix(".csv") + ".records"


def read_manifest(csv_path):
    """The pass's sidecar ``PassManifest`` (all None when it has none), its
    pass id and the hex SHA-256 of the manifest's bytes (None when it has
    none). The pass id is the manifest's ``pass_id``, else the stem of the
    CSV file's name (``P1`` for ``dir/P1.csv``). A manifest with a scenario
    must carry that scenario's hash and seed. A malformed manifest or pass
    id raises DataIntegrityError naming the file and the key."""
    path = manifest_path_for(csv_path)
    try:
        d, digest = read_json(path) if os.path.exists(path) else ({}, None)
        if not isinstance(d, dict):
            raise ValueError(f"{path}: manifest must be a JSON object, got {type(d).__name__}")
        if "pass_id" in d:
            where, pass_id = f"{path}: key 'pass_id'", d["pass_id"]
        else:
            where = f"{csv_path}: pass id (the file name's stem)"
            pass_id = os.path.basename(str(csv_path)).removesuffix(".csv")
        check_pass_id(where, pass_id)
        manifest = from_dict(PassManifest, d, path)
        if manifest.scenario is not None:  # else Scenario's defaults stand in for these
            errors = d["scenario"]["errors"] if "errors" in d["scenario"] else {}
            for key in ("mag_ref", "mag_scale"):
                if key not in errors:
                    raise ValueError(f"{path}: scenario.errors: missing key {key!r}")
            for key, made in (("scenario_hash", manifest.scenario.hash()),
                              ("seed", manifest.scenario.seed)):
                if getattr(manifest, key) != made:
                    raise ValueError(f"{path}: key {key!r} is {getattr(manifest, key)!r}, "
                                     f"but its scenario gives {made!r}")
    except ValueError as e:
        raise DataIntegrityError(str(e)) from None
    return manifest, pass_id, digest


def read_json(path):
    """The JSON file's value, its bytes decoded as UTF-8 whatever the locale,
    and the hex SHA-256 of those bytes; a file that is not JSON raises
    ValueError naming it."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except ValueError as e:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: not valid JSON: {e}") from None


def _malformed_row(lines, csv_path):
    """The DataIntegrityError for pass records that do not read as one
    number per column, naming the file and the column and step of the
    first record that is not."""
    for k, line in enumerate(line for line in lines if line.strip()):
        cells = line.split(",")
        if len(cells) < len(_COLUMNS):
            return DataIntegrityError(
                f"{csv_path}: no value in column {_COLUMNS[len(cells)]} at step {k} "
                f"(the record has {len(cells)} of {len(_COLUMNS)} cells)")
        if len(cells) > len(_COLUMNS):
            return DataIntegrityError(
                f"{csv_path}: a cell after column {_COLUMNS[-1]} at step {k} "
                f"(the record has {len(cells)} of {len(_COLUMNS)} cells)")
        for name, cell in zip(_COLUMNS, cells):
            try:
                float(cell)
            except ValueError:
                return DataIntegrityError(
                    f"{csv_path}: {cell!r} in column {name} at step {k} is not a number")
    return DataIntegrityError(f"{csv_path}: records are not {len(_COLUMNS)} numbers each")


def _stored_records(csv_digest, csv_path):
    """The ``(L, 26)`` records that the pass's records file holds for its
    CSV's bytes, whose SHA-256 state is ``csv_digest``: a view of the
    file's body, or None when there is no such file or its magic, its
    whole-record length or its digest does not match."""
    try:
        records_file = np.fromfile(records_path_for(csv_path), dtype=np.uint8)
    except OSError:
        return None
    body = records_file[_BODY_START:]
    if (records_file[:len(RECORDS_MAGIC)].tobytes() != RECORDS_MAGIC
            or len(body) % (8 * len(_COLUMNS))):
        return None
    digest = csv_digest.copy()
    digest.update(body)
    if digest.digest() != records_file[len(RECORDS_MAGIC):_BODY_START].tobytes():
        return None
    return body.view("<f8").reshape(-1, len(_COLUMNS))


def _parsed_records(body, csv_path):
    """The ``(L, 26)`` records of the CSV text ``body``, the bytes after
    the header line."""
    try:
        lines = body.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise DataIntegrityError(f"{csv_path}: not UTF-8 text: {e}") from None
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(_COLUMNS):
        raise _malformed_row(lines, csv_path)
    return data


def read_passlog(csv_path):
    """Load and validate a pass CSV; the manifest sidecar is loaded if present.

    The records come from the pass's records file when its digest matches
    the CSV's bytes, else from the CSV's text; either way
    ``PassLog.validate`` checks them. The log keeps the SHA-256 of the
    CSV's and the manifest's bytes it parsed. Every DataIntegrityError
    names the file, and the column and step of the first offending record
    where there is one.
    """
    with open(csv_path, "rb") as f:
        csv_bytes = f.read()
    header = _HEADER_LINE.match(csv_bytes)
    if header[0].strip() != CSV_COLUMNS.encode():
        raise DataIntegrityError(f"unexpected pass CSV header in {csv_path}")
    if header.end() == len(csv_bytes):  # numpy would warn and read one empty column
        raise DataIntegrityError(f"{csv_path}: pass has 0 records, expected {PASS_SAMPLES}")
    csv_digest = hashlib.sha256(csv_bytes)
    data = _stored_records(csv_digest, csv_path)
    if data is None:
        data = _parsed_records(csv_bytes[header.end():], csv_path)
    manifest, pass_id, manifest_sha256 = read_manifest(csv_path)
    log = PassLog(pass_id=pass_id, manifest=manifest, csv_path=str(csv_path),
                  csv_sha256=csv_digest.hexdigest(), manifest_sha256=manifest_sha256,
                  **{name: data[:, index] for name, (index, _) in PASS_LAYOUT.items()})
    try:
        return log.validate()
    except DataIntegrityError as e:
        raise DataIntegrityError(f"{csv_path}: {e}") from None
