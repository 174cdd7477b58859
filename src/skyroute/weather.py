"""Gridded wind/temperature fields with bilinear sampling.

Fields are 2D (lat/lon); the guide's features drop altitude and the
fuel model consumes only wind and temperature at the flown position.
No extrapolation: sampling outside the grid raises OutOfDomain.
"""

from __future__ import annotations

import csv
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, ParseError, SchemaError
from .geo import GeoPoint

ISA_TEMPERATURE_K = 288.15

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

    Grids are shaped (len(lat_axis), len(lon_axis)). Treated as
    immutable after construction; concurrent sampling is safe.
    """

    lat_axis: np.ndarray
    lon_axis: np.ndarray
    wind_east: np.ndarray
    wind_north: np.ndarray
    temperature: np.ndarray

    def __post_init__(self):
        self.lat_axis = np.asarray(self.lat_axis, dtype=float)
        self.lon_axis = np.asarray(self.lon_axis, dtype=float)
        for name in ("wind_east", "wind_north", "temperature"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
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
        if np.any(self.temperature < 180.0) or np.any(self.temperature > 330.0):
            raise ValueError("temperature outside [180, 330] K")
        if np.any(np.hypot(self.wind_east, self.wind_north) > 150.0):
            raise ValueError("wind magnitude exceeds 150 m/s")
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
        return float(np.max(np.hypot(self.wind_east, self.wind_north)))

    def max_temp_deviation(self) -> float:
        """Largest |T - ISA| anywhere on the grid."""
        return float(np.max(np.abs(self.temperature - ISA_TEMPERATURE_K)))

    def bbox(self) -> tuple[float, float, float, float]:
        """(lat_min, lat_max, lon_min, lon_max)."""
        return (float(self.lat_axis[0]), float(self.lat_axis[-1]),
                float(self.lon_axis[0]), float(self.lon_axis[-1]))


def sample(fld: WeatherField, p: GeoPoint) -> WeatherSample:
    """Bilinear interpolation at p; exact at grid nodes."""
    lat, lon = p.lat_deg, p.lon_deg
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
    we, wn, tk = fld._grids
    return WeatherSample(_bilinear(we[k], we[k + 1], we[m], we[m + 1], t, u),
                         _bilinear(wn[k], wn[k + 1], wn[m], wn[m + 1], t, u),
                         _bilinear(tk[k], tk[k + 1], tk[m], tk[m + 1], t, u))


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
    return WeatherSample(*(
        np.where(inside, _bilinear(grid[i, j], grid[i, j + 1], grid[i + 1, j],
                                   grid[i + 1, j + 1], t, u), np.nan)
        for grid in (fld.wind_east, fld.wind_north, fld.temperature)))


def _bilinear(c00, c01, c10, c11, t, u):
    """Value at fractions (t, u) of a cell with corners c00 at (i, j), c01 at
    (i, j + 1), c10 at (i + 1, j) and c11; scalars or arrays."""
    return ((1 - t) * (1 - u) * c00
            + (1 - t) * u * c01
            + t * (1 - u) * c10
            + t * u * c11)


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
    lat_g, lon_g = np.meshgrid(lat_axis, lon_axis, indexing="ij")

    jet = core_speed * np.exp(-(((lat_g - core_lat) / half_width) ** 2))

    rng = np.random.default_rng(seed)
    n_modes = 5
    amp_budget = perturbation * core_speed
    perturb_e = np.zeros_like(jet)
    perturb_n = np.zeros_like(jet)
    if amp_budget > 0.0:
        amps = rng.dirichlet(np.ones(n_modes)) * amp_budget
        for a in amps:
            k_lat = rng.uniform(0.1, 0.8)
            k_lon = rng.uniform(0.1, 0.8)
            ph1, ph2 = rng.uniform(0, 2 * math.pi, size=2)
            perturb_e += a * np.sin(k_lat * lat_g + ph1) * np.cos(k_lon * lon_g + ph2)
            perturb_n += 0.5 * a * np.cos(k_lat * lat_g + ph2) * np.sin(k_lon * lon_g + ph1)

    # Mild temperature gradient toward each pole around ISA, inside
    # [180, 330] K at every latitude (about 266 to 311 K).
    temp = ISA_TEMPERATURE_K - 0.5 * (np.abs(lat_g) - 45.0)

    return WeatherField(lat_axis, lon_axis, jet + perturb_e, perturb_n, temp)


def save_csv(fld: WeatherField, path: str) -> None:
    """Write one row per grid node, lat-major, with the fixed header."""
    with open(path, "w", newline="", encoding="utf-8") as f:
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
    """Read the documented CSV grid format; see save_csv.

    Rows may come in any order, but every lat/lon node of the grid must
    appear exactly once.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
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
    return WeatherField(lat_axis, lon_axis, *grids)
