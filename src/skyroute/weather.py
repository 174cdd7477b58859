"""Gridded wind/temperature fields with bilinear sampling.

Fields are 2D (lat/lon); the guide's features drop altitude and the
fuel model consumes only wind and temperature at the flown position.
No extrapolation: sampling outside the grid raises OutOfDomain.
"""

from __future__ import annotations

import csv
import math
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


def outside_grid(fld: WeatherField, lat: float, lon: float) -> OutOfDomain:
    """The error for sampling `fld` at a position off its grid."""
    return OutOfDomain(
        f"({lat:.4f}, {lon:.4f}) outside weather grid "
        f"[{fld.lat_axis[0]}, {fld.lat_axis[-1]}] x "
        f"[{fld.lon_axis[0]}, {fld.lon_axis[-1]}]")


def sample(fld: WeatherField, p: GeoPoint) -> WeatherSample:
    """Bilinear interpolation at p; exact at grid nodes."""
    lat, lon = p.lat_deg, p.lon_deg
    lat_lo, lat_hi = fld.lat_axis[0], fld.lat_axis[-1]
    lon_lo, lon_hi = fld.lon_axis[0], fld.lon_axis[-1]
    if not (lat_lo <= lat <= lat_hi and lon_lo <= lon <= lon_hi):
        raise outside_grid(fld, lat, lon)

    i = int(np.searchsorted(fld.lat_axis, lat, side="right")) - 1
    j = int(np.searchsorted(fld.lon_axis, lon, side="right")) - 1
    i = min(max(i, 0), fld.lat_axis.size - 2)
    j = min(max(j, 0), fld.lon_axis.size - 2)

    t = (lat - fld.lat_axis[i]) / (fld.lat_axis[i + 1] - fld.lat_axis[i])
    u = (lon - fld.lon_axis[j]) / (fld.lon_axis[j + 1] - fld.lon_axis[j])
    return WeatherSample(float(_bilinear(fld.wind_east, i, j, t, u)),
                         float(_bilinear(fld.wind_north, i, j, t, u)),
                         float(_bilinear(fld.temperature, i, j, t, u)))


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
    return WeatherSample(*(np.where(inside, _bilinear(grid, i, j, t, u), np.nan)
                           for grid in (fld.wind_east, fld.wind_north,
                                        fld.temperature)))


def _bilinear(grid: np.ndarray, i, j, t, u):
    """Value of `grid` at fractions (t, u) of cell (i, j); scalars or arrays."""
    return ((1 - t) * (1 - u) * grid[i, j]
            + (1 - t) * u * grid[i, j + 1]
            + t * (1 - u) * grid[i + 1, j]
            + t * u * grid[i + 1, j + 1])


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

    # Mild meridional temperature gradient around ISA, bounded well inside [180, 330].
    temp = ISA_TEMPERATURE_K - 0.5 * (lat_g - 45.0)

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
    """Read the documented CSV grid format; see save_csv."""
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
        values: dict[tuple[float, float], tuple[float, float, float]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise ParseError(f"line {lineno}: expected {len(CSV_COLUMNS)} fields, "
                                 f"got {len(row)}")
            try:
                lat, lon, we, wn, tk = (float(x) for x in row)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            values[(lat, lon)] = (we, wn, tk)

    if not values:
        raise SchemaError("header-only file: no grid rows")
    lat_axis = np.array(sorted({k[0] for k in values}))
    lon_axis = np.array(sorted({k[1] for k in values}))
    if lat_axis.size * lon_axis.size != len(values):
        raise ParseError("grid is incomplete: not every lat/lon combination present")
    shape = (lat_axis.size, lon_axis.size)
    we = np.empty(shape)
    wn = np.empty(shape)
    tk = np.empty(shape)
    for i, lat in enumerate(lat_axis):
        for j, lon in enumerate(lon_axis):
            we[i, j], wn[i, j], tk[i, j] = values[(lat, lon)]
    return WeatherField(lat_axis, lon_axis, we, wn, tk)
