"""Gridded wind/temperature fields with bilinear sampling.

Fields are 2D (lat/lon); the guide's features drop altitude and the
fuel model consumes only wind and temperature at the flown position.
No extrapolation: sampling outside the grid raises OutOfDomain.
`sample` finds a position's cell and its four bilinear weights once for
all three grids; `sample_at` is `sample` on plain floats. `sample_many`,
the array form, does the same and reads each grid with flat-index gathers.
Fields are read-only, so their extremes (the search heuristic's bounds)
are computed once, at construction.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, ParseError, SchemaError
from .files import replacing
from .geo import GeoPoint

ISA_TEMPERATURE_K = 288.15
MIN_TEMPERATURE_K, MAX_TEMPERATURE_K = 180.0, 330.0   # a field's range

CSV_COLUMNS = ["lat_deg", "lon_deg", "wind_east_ms", "wind_north_ms", "temperature_k"]


@dataclass(frozen=True)
class WeatherSample:
    """Interpolated field values at one position."""

    wind_east: float
    wind_north: float
    temperature: float


@dataclass
class WeatherField:
    """Wind (m/s) and temperature (K) on a regular lat/lon grid.

    Grids are shaped (len(lat_axis), len(lon_axis)). Construction copies
    the five arrays and makes the copies read-only, so a field can be
    shared and sampled concurrently, and no write can make `sample` and
    `sample_many` disagree.
    """

    lat_axis: np.ndarray
    lon_axis: np.ndarray
    wind_east: np.ndarray
    wind_north: np.ndarray
    temperature: np.ndarray

    def __post_init__(self):
        for name in ("lat_axis", "lon_axis", "wind_east", "wind_north",
                     "temperature"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            setattr(self, name, values)
        if self.lat_axis.ndim != 1 or self.lat_axis.size < 2:
            raise ValueError("lat_axis must be 1D with at least 2 points")
        if self.lon_axis.ndim != 1 or self.lon_axis.size < 2:
            raise ValueError("lon_axis must be 1D with at least 2 points")
        if np.any(np.diff(self.lat_axis) <= 0) or np.any(np.diff(self.lon_axis) <= 0):
            raise ValueError("axes must be strictly ascending")
        shape = (self.lat_axis.size, self.lon_axis.size)
        for name in ("wind_east", "wind_north", "temperature"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} grid must have shape {shape}")
            # The range checks below pass NaN, and sample_many marks
            # off-grid positions with it.
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} grid must be finite")
        if not (MIN_TEMPERATURE_K <= self.temperature.min()
                and self.temperature.max() <= MAX_TEMPERATURE_K):
            raise ValueError("temperature outside [180, 330] K")
        speed = np.hypot(self.wind_east, self.wind_north)
        if np.any(speed > 150.0):
            raise ValueError("wind magnitude exceeds 150 m/s")
        # Fields are read-only, so their extremes are computed once.
        self._max_wind_speed = float(np.max(speed))
        self._max_temp_deviation = float(
            np.max(np.abs(self.temperature - ISA_TEMPERATURE_K)))
        # Plain copies for the scalar `sample`, which would spend most of
        # its time on numpy scalars otherwise: axes as lists, grids as flat
        # row-major double arrays (8 bytes a value, a third of a list's).
        self._lat = self.lat_axis.tolist()
        self._lon = self.lon_axis.tolist()
        self._grids = tuple(array("d", getattr(self, name).tobytes())
                            for name in ("wind_east", "wind_north",
                                         "temperature"))

    def max_wind_speed(self) -> float:
        """Largest wind magnitude anywhere on the grid."""
        return self._max_wind_speed

    def max_temp_deviation(self) -> float:
        """Largest |T - ISA| anywhere on the grid."""
        return self._max_temp_deviation

    def bbox(self) -> tuple[float, float, float, float]:
        """(lat_min, lat_max, lon_min, lon_max)."""
        return (float(self.lat_axis[0]), float(self.lat_axis[-1]),
                float(self.lon_axis[0]), float(self.lon_axis[-1]))


def sample(fld: WeatherField, p: GeoPoint) -> WeatherSample:
    """Bilinear interpolation at p; exact at grid nodes."""
    return WeatherSample(*sample_at(fld, p.lat_deg, p.lon_deg))


def sample_at(fld: WeatherField, lat: float,
              lon: float) -> tuple[float, float, float]:
    """`sample` at (lat, lon) on plain floats: (wind_east, wind_north,
    temperature)."""
    lats, lons = fld._lat, fld._lon
    if not (lats[0] <= lat <= lats[-1] and lons[0] <= lon <= lons[-1]):
        raise OutOfDomain(f"({lat:.4f}, {lon:.4f}) outside weather grid "
                          f"[{lats[0]}, {lats[-1]}] x [{lons[0]}, {lons[-1]}]")

    i = min(max(bisect_right(lats, lat) - 1, 0), len(lats) - 2)
    j = min(max(bisect_right(lons, lon) - 1, 0), len(lons) - 2)
    t = (lat - lats[i]) / (lats[i + 1] - lats[i])
    u = (lon - lons[j]) / (lons[j + 1] - lons[j])
    k = i * len(lons) + j           # flat index of corner (i, j)
    m = k + len(lons)               # and of (i + 1, j)
    # The weights of corners k, k + 1, m and m + 1, shared by the grids.
    w00, w01, w10, w11 = (1 - t) * (1 - u), (1 - t) * u, t * (1 - u), t * u
    we, wn, tk = fld._grids
    return (w00 * we[k] + w01 * we[k + 1] + w10 * we[m] + w11 * we[m + 1],
            w00 * wn[k] + w01 * wn[k + 1] + w10 * wn[m] + w11 * wn[m + 1],
            w00 * tk[k] + w01 * tk[k + 1] + w10 * tk[m] + w11 * tk[m + 1])


def sample_many(fld: WeatherField, lat: np.ndarray,
                lon: np.ndarray) -> WeatherSample:
    """Array form of sample: a WeatherSample of arrays shaped like `lat`.

    Same arithmetic as `sample`, so the values are bit-identical to it.
    Instead of raising, positions off the grid get NaN in all three fields.
    """
    lat_axis, lon_axis = fld.lat_axis, fld.lon_axis
    inside = ((lat_axis[0] <= lat) & (lat <= lat_axis[-1])
              & (lon_axis[0] <= lon) & (lon <= lon_axis[-1]))
    i = np.clip(np.searchsorted(lat_axis, lat, side="right") - 1,
                0, lat_axis.size - 2)
    j = np.clip(np.searchsorted(lon_axis, lon, side="right") - 1,
                0, lon_axis.size - 2)

    t = (lat - lat_axis[i]) / (lat_axis[i + 1] - lat_axis[i])
    u = (lon - lon_axis[j]) / (lon_axis[j + 1] - lon_axis[j])
    # `sample_at`'s weights, with NaN in the first weight off the grid.
    w00 = np.where(inside, (1 - t) * (1 - u), np.nan)
    w01, w10, w11 = (1 - t) * u, t * (1 - u), t * u
    k = i * lon_axis.size + j       # flat index of corner (i, j)
    m = k + lon_axis.size           # and of (i + 1, j)
    values = []
    for grid in (fld.wind_east, fld.wind_north, fld.temperature):
        flat = grid.ravel()
        values.append(w00 * flat.take(k) + w01 * flat.take(k + 1)
                      + w10 * flat.take(m) + w11 * flat.take(m + 1))
    return WeatherSample(*values)


def make_uniform(wind_east: float, wind_north: float, temperature: float,
                 bbox: tuple[float, float, float, float]) -> WeatherField:
    """Constant field over bbox = (lat_min, lat_max, lon_min, lon_max)."""
    lat_min, lat_max, lon_min, lon_max = bbox
    lat_axis = np.array([lat_min, lat_max])
    lon_axis = np.array([lon_min, lon_max])
    shape = (2, 2)
    return WeatherField(lat_axis, lon_axis,
                        np.full(shape, float(wind_east)),
                        np.full(shape, float(wind_north)),
                        np.full(shape, float(temperature)))


def make_jet_stream(bbox: tuple[float, float, float, float],
                    core_lat: float, core_speed: float, half_width: float,
                    seed: int, perturbation: float = 0.1,
                    resolution: int = 61) -> WeatherField:
    """Synthetic eastward jet with a Gaussian latitude profile.

    Adds a seeded smooth perturbation (sum of <= 5 sinusoids) of total
    amplitude <= `perturbation` * core_speed. Deterministic per seed.
    """
    if not (0.0 <= core_speed <= 120.0):
        raise ValueError("core_speed must lie in [0, 120] m/s")
    if not (0.0 <= perturbation <= 0.1):
        raise ValueError("perturbation fraction must lie in [0, 0.1]")
    lat_min, lat_max, lon_min, lon_max = bbox
    lat_axis = np.linspace(lat_min, lat_max, resolution)
    lon_axis = np.linspace(lon_min, lon_max, resolution)
    # Every term depends on one axis, so it is computed on a latitude
    # column or a longitude row and broadcast to the grid.
    lat_c = lat_axis[:, None]
    lon_r = lon_axis[None, :]
    shape = (resolution, resolution)

    jet = core_speed * np.exp(-(((lat_c - core_lat) / half_width) ** 2))

    rng = np.random.default_rng(seed)
    n_modes = 5
    amp_budget = perturbation * core_speed
    perturb_e = np.zeros(shape)
    perturb_n = np.zeros(shape)
    if amp_budget > 0.0:
        amps = rng.dirichlet(np.ones(n_modes)) * amp_budget
        for a in amps:
            k_lat = rng.uniform(0.1, 0.8)
            k_lon = rng.uniform(0.1, 0.8)
            ph1, ph2 = rng.uniform(0, 2 * math.pi, size=2)
            perturb_e += a * np.sin(k_lat * lat_c + ph1) * np.cos(k_lon * lon_r + ph2)
            perturb_n += 0.5 * a * np.cos(k_lat * lat_c + ph2) * np.sin(k_lon * lon_r + ph1)

    # Mild temperature gradient toward each pole around ISA, inside
    # [180, 330] K at every latitude (about 266 to 311 K).
    temp = np.broadcast_to(ISA_TEMPERATURE_K - 0.5 * (np.abs(lat_c) - 45.0), shape)

    return WeatherField(lat_axis, lon_axis, jet + perturb_e, perturb_n, temp)


def save_csv(fld: WeatherField, path: str) -> None:
    """Write one row per grid node, lat-major, with the fixed header;
    `path` is replaced whole (files.replacing)."""
    with replacing(path) as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for i, lat in enumerate(fld.lat_axis):
            for j, lon in enumerate(fld.lon_axis):
                writer.writerow([
                    f"{lat:.9g}", f"{lon:.9g}",
                    f"{fld.wind_east[i, j]:.9g}",
                    f"{fld.wind_north[i, j]:.9g}",
                    f"{fld.temperature[i, j]:.9g}",
                ])


def load_csv(path: str) -> WeatherField:
    """Read the documented CSV grid format from a file; see parse_csv."""
    with open(path, "rb") as f:
        return parse_csv(f.read())


def parse_csv(raw: bytes) -> WeatherField:
    """Parse the documented CSV grid format from a file's bytes; see save_csv.

    The bytes must be UTF-8 text. Rows may come in any order, but every
    lat/lon node of the grid must appear exactly once, and the grid must
    make a valid WeatherField; ParseError says what it does not.
    """
    # A whole-file decode finds a bad byte's line. The reader then decodes
    # again in chunks: reading an io.StringIO of the decoded text instead
    # raised peak memory by 0.6 MB on a 140 kB file.
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"line {line}: not UTF-8 text "
                         f"(byte 0x{raw[exc.start]:02x})") from None
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                                         newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file: missing header") from None
    header = [h.strip() for h in header]
    if header != CSV_COLUMNS:
        missing = [c for c in CSV_COLUMNS if c not in header]
        raise SchemaError(
            f"bad header {header}; missing columns: {missing or 'none (wrong order)'}")
    values = array("d")        # row-major, len(CSV_COLUMNS) per row
    lines: list[int] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ParseError(f"line {lineno}: expected {len(CSV_COLUMNS)} fields, "
                             f"got {len(row)}")
        try:
            values.extend([float(x) for x in row])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        lines.append(lineno)

    if not lines:
        raise SchemaError("header-only file: no grid rows")
    data = np.frombuffer(values).reshape(-1, len(CSV_COLUMNS))
    bad = np.flatnonzero(~np.isfinite(data[:, :2]).all(axis=1))
    if bad.size:
        raise ParseError(f"line {lines[bad[0]]}: non-finite lat/lon")
    # Sorted sets rather than np.unique(return_inverse=True): on the 61 x 61
    # plan-corridor grid np.unique raised peak RSS by 0.3 MB for no speed.
    lat_axis = np.array(sorted(set(data[:, 0].tolist())))
    lon_axis = np.array(sorted(set(data[:, 1].tolist())))
    i = np.searchsorted(lat_axis, data[:, 0])
    j = np.searchsorted(lon_axis, data[:, 1])
    seen: set[int] = set()
    for n, node in enumerate((i * lon_axis.size + j).tolist()):
        if node in seen:
            raise ParseError(f"line {lines[n]}: duplicate grid node "
                             f"({data[n, 0]}, {data[n, 1]})")
        seen.add(node)
    if lat_axis.size * lon_axis.size != len(seen):
        raise ParseError("grid is incomplete: not every lat/lon combination present")
    grids = np.empty((3, lat_axis.size, lon_axis.size))
    grids[:, i, j] = data[:, 2:].T
    try:
        return WeatherField(lat_axis, lon_axis, *grids)
    except ValueError as exc:
        raise ParseError(f"invalid grid: {exc}") from None
