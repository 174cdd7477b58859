"""Gridded wind/temperature fields with bilinear sampling.

Fields are 2D (lat/lon); the guide's features drop altitude and the
fuel model consumes only wind and temperature at the flown position.
No extrapolation: sampling outside the grid raises OutOfDomain.
`sample` finds a position's cell and its four bilinear weights once for
all three grids; `sample_at` is `sample` on plain floats. `sample_many`,
the array form, does the same and reads each grid with flat-index gathers.
Both find a cell by one rule: the index of x on an axis of n nodes is
`bisect_right(axis, x, 1, n - 1) - 1`, which is
`axis[1:-1].searchsorted(x, "right")` for every x, NaN included, so every
point, on the grid or not, lands in a cell 0 .. n - 2 and the last node
falls in the last cell. `sample_many` is written one ufunc or ndarray
method per array operation, with no Python-level numpy wrapper and no
array formed twice: on the few points of a small plan a wrapper costs
more than the arithmetic.
Fields are read-only, so their extremes (the search heuristic's bounds),
each axis's cell widths (`sample_many`'s divisors), its inner nodes and
its ends are computed once, at construction, by the validation that needs
them anyway.
`make_jet_stream`'s random modes depend on the seed alone, so they are
drawn once per seed and shared by every field built from it.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

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
    `sample_many` disagree. Axes lie on the globe: latitudes within
    [-90, 90], longitudes within [-180, 180].
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
        for name in ("lat_axis", "lon_axis"):
            axis = getattr(self, name)
            if axis.ndim != 1 or axis.size < 2:
                raise ValueError(f"{name} must be 1D with at least 2 points")
            # NaN passes the order check below, and a NaN or infinite node
            # spoils the bilinear weights of its cells.
            if not np.logical_and.reduce(np.isfinite(axis)):
                raise ValueError(f"{name} must be finite")
        # Each axis's cell widths, the divisors of `sample_many`'s weights.
        lat, lon = self.lat_axis, self.lon_axis
        self._lat_widths = np.subtract(lat[1:], lat[:-1])
        self._lon_widths = np.subtract(lon[1:], lon[:-1])
        if (np.logical_or.reduce(self._lat_widths <= 0.0)
                or np.logical_or.reduce(self._lon_widths <= 0.0)):
            raise ValueError("axes must be strictly ascending")
        # An ascending axis lies on the globe when its ends do.
        self._bounds = (float(lat[0]), float(lat[-1]), float(lon[0]),
                        float(lon[-1]))
        for name, lo, hi, limit in (("lat_axis", *self._bounds[:2], 90.0),
                                    ("lon_axis", *self._bounds[2:], 180.0)):
            if lo < -limit or hi > limit:
                raise ValueError(f"{name} must lie within "
                                 f"[{-limit:g}, {limit:g}] degrees")
        self._lat_widths.flags.writeable = False
        self._lon_widths.flags.writeable = False
        # `sample_many` searches the inner nodes only (see there).
        self._lat_inner, self._lon_inner = lat[1:-1], lon[1:-1]
        shape = (lat.size, lon.size)
        for name in ("wind_east", "wind_north", "temperature"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} grid must have shape {shape}")
            # The range checks below pass NaN, and sample_many marks
            # off-grid positions with it.
            if not np.logical_and.reduce(np.isfinite(getattr(self, name)),
                                         axis=None):
                raise ValueError(f"{name} grid must be finite")
        # Fields are read-only, so their extremes are computed once and
        # serve both the checks and the accessors.
        self._temperature_range = (
            float(np.minimum.reduce(self.temperature, axis=None)),
            float(np.maximum.reduce(self.temperature, axis=None)))
        if not (MIN_TEMPERATURE_K <= self._temperature_range[0]
                and self._temperature_range[1] <= MAX_TEMPERATURE_K):
            raise ValueError("temperature outside [180, 330] K")
        self._max_wind_speed = _max_hypot(self.wind_east, self.wind_north)
        if self._max_wind_speed > 150.0:
            raise ValueError("wind magnitude exceeds 150 m/s")
        # Plain copies for the scalar `sample`, which would spend most of
        # its time on numpy scalars otherwise: axes as lists, grids as flat
        # row-major double arrays (8 bytes a value, a third of a list's).
        # `sample_many` gathers from flat views of the grids.
        self._lat = lat.tolist()
        self._lon = lon.tolist()
        self._flat = tuple(getattr(self, name).ravel()
                           for name in ("wind_east", "wind_north",
                                        "temperature"))
        self._grids = tuple(array("d", grid.tobytes()) for grid in self._flat)

    def max_wind_speed(self) -> float:
        """Largest wind magnitude anywhere on the grid."""
        return self._max_wind_speed

    def temperature_range(self) -> tuple[float, float]:
        """Coldest and warmest temperature anywhere on the grid (K)."""
        return self._temperature_range

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

    # The search runs on nodes 1 .. len - 1 only, which clamps the cell to
    # 0 .. len - 2: the last node falls in the last cell.
    i = bisect_right(lats, lat, 1, len(lats) - 1) - 1
    j = bisect_right(lons, lon, 1, len(lons) - 1) - 1
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
    lat_lo, lat_hi, lon_lo, lon_hi = fld._bounds
    # NaN compares false, so it is off the grid.
    off = ~((lat >= lat_lo) & (lat <= lat_hi) & (lon >= lon_lo)
            & (lon <= lon_hi))
    # `sample_at`'s bisect over nodes 1 .. len - 2, minus 1: every x, NaN
    # included, lands in cell 0 .. len - 2.
    i = fld._lat_inner.searchsorted(lat, "right")
    j = fld._lon_inner.searchsorted(lon, "right")
    # The widths are `sample_at`'s subtractions, made once per field.
    t = (lat - fld.lat_axis.take(i)) / fld._lat_widths.take(i)
    u = (lon - fld.lon_axis.take(j)) / fld._lon_widths.take(j)
    # Every weight has a factor t or 1 - t, so a NaN t off the grid makes
    # all four NaN. A NaN operand raises no floating-point flag, where an
    # infinite position's t would take 0 * inf and inf - inf.
    t[off] = np.nan
    t_rest, u_rest = 1.0 - t, 1.0 - u
    # `sample_at`'s weights.
    w00 = t_rest * u_rest
    weights = (w00, t_rest * u, t * u_rest, t * u)
    k = i * fld.lon_axis.size + j   # flat index of corner (i, j)
    m = k + fld.lon_axis.size       # and of (i + 1, j)
    corners = (k, k + 1, m, m + 1)
    term = np.empty(w00.shape)
    values = []
    for flat in fld._flat:
        # w00 * c00 + w01 * c01 + w10 * c10 + w11 * c11, left to right.
        value = w00 * flat.take(k)
        for w, c in zip(weights[1:], corners[1:]):
            value += np.multiply(w, flat.take(c), out=term)
        values.append(value)
    return WeatherSample(*values)


def _max_hypot(x: np.ndarray, y: np.ndarray) -> float:
    """`np.hypot(x, y).max()`, taking hypot only where it can be largest.

    x^2 + y^2 in floats is within 3 ulp of its exact value plus 3 times
    the smallest subnormal, and hypot within 1 ulp of its own, so the
    element with the largest hypot has a sum of squares within about
    1e-15 relative (plus 1e-323) of the largest. Every element within
    1e-12 relative plus 1e-300 of it is a candidate; overflow to inf
    keeps the largest among them."""
    squares = x * x + y * y
    largest = np.maximum.reduce(squares, axis=None)
    near = squares >= largest * (1.0 - 1e-12) - 1e-300
    return float(np.maximum.reduce(np.hypot(x[near], y[near])))


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


@lru_cache(maxsize=16)
def _jet_modes(seed: int) -> tuple[np.ndarray, ...]:
    """The random part of `make_jet_stream`, which depends on the seed
    alone: the five modes' amplitude shares, k_lat, k_lon, ph1 and ph2, as
    read-only arrays of five values.

    One draw of 5 x 4 doubles u, scaled by numpy's own uniform formula
    low + (high - low) * u, gives the bits that one `uniform` call per
    value, mode by mode, gave in the same order.
    """
    rng = np.random.default_rng(seed)
    shares = rng.dirichlet(np.ones(5))
    u = rng.random((5, 4)).T
    k_lat, k_lon = 0.1 + (0.8 - 0.1) * u[:2]
    ph1, ph2 = 0.0 + (2 * math.pi - 0.0) * u[2:]
    modes = (shares, k_lat, k_lon, ph1, ph2)
    for values in modes:
        values.flags.writeable = False
    return modes


def _linspace(start: float, stop: float, num: int) -> np.ndarray:
    """`np.linspace(start, stop, num)` for num >= 2, operation for
    operation: arange(num) times the step (or over num - 1, then times the
    span, when the step underflows to 0), plus start, and stop last."""
    y = np.arange(num, dtype=float)
    span = float(stop) - float(start)
    step = span / (num - 1)
    if step == 0.0:
        y /= num - 1
        y *= span
    else:
        y *= step
    y += start
    y[-1] = stop
    return y


def make_jet_stream(bbox: tuple[float, float, float, float],
                    core_lat: float, core_speed: float, half_width: float,
                    seed: int, perturbation: float = 0.1,
                    resolution: int = 61) -> WeatherField:
    """Synthetic eastward jet with a Gaussian latitude profile.

    Adds a seeded smooth perturbation (sum of <= 5 sinusoids) of total
    amplitude <= `perturbation` * core_speed. Deterministic per seed: the
    modes are drawn once per seed (`_jet_modes`).
    """
    if not (0.0 <= core_speed <= 120.0):
        raise ValueError("core_speed must lie in [0, 120] m/s")
    if not (0.0 <= perturbation <= 0.1):
        raise ValueError("perturbation fraction must lie in [0, 0.1]")
    if not math.isfinite(core_lat):
        raise ValueError("core_lat must be finite")
    if not (0.0 < half_width < math.inf):
        raise ValueError("half_width must be finite and positive")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    lat_min, lat_max, lon_min, lon_max = bbox
    lat_axis = _linspace(lat_min, lat_max, resolution)
    lon_axis = _linspace(lon_min, lon_max, resolution)
    # Every term depends on one axis, so it is computed on a latitude
    # column or a longitude row and broadcast to the grid.
    lat_c = lat_axis[:, None]
    shape = (resolution, resolution)

    jet = core_speed * np.exp(-(((lat_c - core_lat) / half_width) ** 2))

    shares, k_lat, k_lon, ph1, ph2 = _jet_modes(seed)
    amp_budget = perturbation * core_speed
    perturb_e = np.zeros(shape)
    perturb_n = np.zeros(shape)
    if amp_budget > 0.0:
        amps = shares * amp_budget
        # Each mode's factors, a row per mode, in one pass over all modes.
        lat_k = k_lat[:, None] * lat_axis
        lon_k = k_lon[:, None] * lon_axis
        east_lat = amps[:, None] * np.sin(lat_k + ph1[:, None])
        east_lon = np.cos(lon_k + ph2[:, None])
        north_lat = (0.5 * amps)[:, None] * np.cos(lat_k + ph2[:, None])
        north_lon = np.sin(lon_k + ph1[:, None])
        # Every mode's term in one product, then summed mode by mode: a
        # single sum over modes would add in another order and change the
        # last bits.
        terms = np.empty((amps.size, *shape))
        for by_lat, by_lon, total in ((east_lat, east_lon, perturb_e),
                                      (north_lat, north_lon, perturb_n)):
            np.multiply(by_lat[:, :, None], by_lon[:, None, :], out=terms)
            for term in terms:
                total += term

    # Mild temperature gradient toward each pole around ISA, inside
    # [180, 330] K at every latitude (about 266 to 311 K).
    temp = (ISA_TEMPERATURE_K - 0.5 * (np.abs(lat_c) - 45.0)).repeat(
        resolution, axis=1)

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
