"""Coarse-route guides: feature extraction, policy network, step update.

A guide turns (origin, destination, weather) into an n-waypoint coarse
route. Two kinds exist: a learned actor-critic policy and a no-learning
great-circle baseline. Instances are rotated so every trip appears as a
straight trip upwards before the policy sees it. The policy's weather
features are scaled by fixed constants that every checkpoint records.

`roll_out` and the trainer's episodes share one policy path on (lat, lon)
floats: `trip_frame` once per trip, then per step `geo.displacement`,
`extract_features`, a (B, 5) `forward` batch and the step rule
`safe_step`. So a plan rolls out the policy it was trained on through one
code path. Only the waypoints `roll_out` returns are GeoPoints; the
great-circle guide takes its interior waypoints from one
`geo.track_points` call, the float body of `intermediate_point`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DistanceOutOfRange
from .files import replacing
# great_circle_distance, intermediate_point and sample are unused here; they
# stay because perfbench/tracing.py wraps them by name.
from .geo import (GeoPoint, displace_at, displacement, great_circle_distance,
                  haversine, intermediate_point, rotate_by, track_points,
                  trip_rotation)
from .lattice import CoarseRoute
from .weather import ISA_TEMPERATURE_K, WeatherField, sample, sample_at

FEATURE_DIM = 5
ACTION_DIM = 2

CHECKPOINT_SCHEMA = 1

#: Feature normalization constants. Every checkpoint records them, and
#: parse_checkpoint refuses one that records others.
WIND_SCALE_MS = 50.0
TEMP_SCALE_K = 30.0
_NORMALIZATION = {"wind_scale_ms": WIND_SCALE_MS, "temp_scale_k": TEMP_SCALE_K}

#: Initial log-std of both action dimensions.
LOG_STD_INIT = -0.7

GUIDE_KINDS = ("great_circle", "policy")


def param_shapes(hidden: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every weight array, in the order of the flat vector."""
    return {"w1": (hidden, FEATURE_DIM), "b1": (hidden,),
            "w2": (hidden, hidden), "b2": (hidden,),
            "w_mean": (ACTION_DIM, hidden), "b_mean": (ACTION_DIM,),
            "log_std": (ACTION_DIM,), "w_val": (1, hidden), "b_val": (1,)}


@dataclass
class PolicyParams:
    """Weights of the shared-trunk actor-critic network.

    Trunk: input 5 -> hidden -> hidden, tanh activations. Heads: 2 action
    means (squashed to [-1, 1] by tanh at sampling time), 2 state-independent
    log-stds, and 1 value output.

    Every weight lives in one float64 vector, `flat`, laid out in the order
    of param_shapes(hidden). The arrays w1 ... b_val are reshaped views into
    it, so an in-place update of `flat` updates all of them, and an
    optimizer or a gradient works on one vector instead of nine arrays.
    copy() copies that vector; the copy shares no memory with the original.
    """

    hidden: int
    flat: np.ndarray
    w1: np.ndarray = dc_field(init=False)
    b1: np.ndarray = dc_field(init=False)
    w2: np.ndarray = dc_field(init=False)
    b2: np.ndarray = dc_field(init=False)
    w_mean: np.ndarray = dc_field(init=False)
    b_mean: np.ndarray = dc_field(init=False)
    log_std: np.ndarray = dc_field(init=False)
    w_val: np.ndarray = dc_field(init=False)
    b_val: np.ndarray = dc_field(init=False)

    def __post_init__(self):
        shapes = param_shapes(self.hidden)
        size = sum(math.prod(shape) for shape in shapes.values())
        if self.flat.dtype != np.float64 or self.flat.shape != (size,):
            raise ValueError(f"flat must be a float64 vector of {size} values "
                             f"for hidden {self.hidden}")
        offset = 0
        for name, shape in shapes.items():
            n = math.prod(shape)
            setattr(self, name, self.flat[offset:offset + n].reshape(shape))
            offset += n

    @classmethod
    def from_arrays(cls, hidden: int,
                    arrays: dict[str, np.ndarray]) -> "PolicyParams":
        """Pack one array per name of param_shapes(hidden) into a new vector."""
        parts = []
        for name, shape in param_shapes(hidden).items():
            a = np.asarray(arrays[name], dtype=float)
            if a.shape != shape:
                raise ValueError(f"{name}: shape {list(a.shape)}, expected "
                                 f"{list(shape)}")
            parts.append(a.ravel())
        return cls(hidden, np.concatenate(parts))

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in param_shapes(self.hidden)}

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.hidden, self.flat.copy())


@dataclass
class GuideConfig:
    """Which guide to use and how many waypoints it proposes."""

    n: int = 5
    guide_kind: str = "great_circle"   # one of GUIDE_KINDS

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.guide_kind not in GUIDE_KINDS:
            raise ValueError(f"unknown guide_kind: {self.guide_kind}")


def init_params(rng: np.random.Generator, hidden: int = 64) -> PolicyParams:
    """Scaled-normal init; head weights small so initial actions sit near 0."""
    def layer(n_in, n_out, scale):
        return rng.normal(0.0, scale / np.sqrt(n_in), size=(n_out, n_in))

    return PolicyParams.from_arrays(hidden, {
        "w1": layer(FEATURE_DIM, hidden, 1.0),
        "b1": np.zeros(hidden),
        "w2": layer(hidden, hidden, 1.0),
        "b2": np.zeros(hidden),
        "w_mean": layer(hidden, ACTION_DIM, 0.01),
        "b_mean": np.zeros(ACTION_DIM),
        "log_std": np.full(ACTION_DIM, LOG_STD_INIT),
        "w_val": layer(hidden, 1, 0.01),
        "b_val": np.zeros(1),
    })


def forward(params: PolicyParams, features: np.ndarray):
    """Forward pass of a (B, 5) feature batch: mean (B, 2), value (B,).

    Each row goes through its own one-row matrix products (a (B, 1, 5)
    stack), so a row's outputs are bit-identical whatever B is: a plan's
    one-row batch gives what the trainer's batch gives that row. One
    (B, 5) product would round some rows differently. Each bias and tanh
    is applied in place, on its product's own array.
    """
    f = np.asarray(features, dtype=float)[:, None, :]
    h1 = f @ params.w1.T
    h1 += params.b1
    np.tanh(h1, out=h1)
    h2 = h1 @ params.w2.T
    h2 += params.b2
    np.tanh(h2, out=h2)
    mean = (h2 @ params.w_mean.T)[:, 0]
    mean += params.b_mean
    value = (h2 @ params.w_val.T)[:, 0, 0]
    value += params.b_val
    return mean, value


def save_checkpoint(params: PolicyParams, cfg: GuideConfig, path: str) -> None:
    """JSON checkpoint: architecture, normalization constants, flat weights.

    `path` is replaced whole (files.replacing), so a reader never sees a
    part of it."""
    payload = {
        "schema_version": CHECKPOINT_SCHEMA,
        "architecture": {
            "input_dim": FEATURE_DIM,
            "hidden": params.hidden,
            "action_dim": ACTION_DIM,
            "activation": "tanh",
        },
        "normalization": _NORMALIZATION,
        "n_waypoints": cfg.n,
        "weights": {k: v.ravel().tolist() for k, v in params.arrays().items()},
        "shapes": {k: list(v.shape) for k, v in params.arrays().items()},
    }
    # json.dumps runs the C encoder. json.dump gives the same bytes through
    # the Python one: 10 ms against 5 ms for a 64-unit payload.
    with replacing(path) as f:
        f.write(json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path: str) -> tuple[PolicyParams, GuideConfig]:
    """Read a save_checkpoint file; see parse_checkpoint."""
    with open(path, encoding="utf-8") as f:
        return parse_checkpoint(f.read())


def parse_checkpoint(text: str | bytes) -> tuple[PolicyParams, GuideConfig]:
    """The weights and guide config of a save_checkpoint file's text or
    bytes; ValueError (or KeyError, for a missing key) names what is
    malformed."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("checkpoint is not a JSON object")
    if payload.get("schema_version") != CHECKPOINT_SCHEMA:
        raise ValueError(f"unsupported checkpoint schema: "
                         f"{payload.get('schema_version')}")
    params = _checkpoint_params(payload)
    n = payload.get("n_waypoints", 5)
    if type(n) is not int or n < 2:
        raise ValueError(f"n_waypoints must be an integer >= 2, got {n!r}")
    norm = _json_object(payload, "normalization")
    for key, value in _NORMALIZATION.items():
        if norm[key] != value:
            raise ValueError(f"normalization.{key} must be {value}, "
                             f"got {norm[key]!r}")
    return params, GuideConfig(n=n, guide_kind="policy")


def _json_object(payload: dict, key: str) -> dict:
    value = payload[key]
    if not isinstance(value, dict):
        raise ValueError(f"{key} is not a JSON object")
    return value


def _checkpoint_params(payload: dict) -> PolicyParams:
    """The weights of a checkpoint, checked against its architecture before
    they are packed: exactly the nine names, each with its shape, and every
    value a finite number."""
    hidden = _json_object(payload, "architecture")["hidden"]
    if type(hidden) is not int or hidden < 1:
        raise ValueError(f"architecture.hidden must be an integer >= 1, "
                         f"got {hidden!r}")
    expected = param_shapes(hidden)
    weights = _json_object(payload, "weights")
    shapes = _json_object(payload, "shapes")
    if set(weights) != set(expected):
        raise ValueError(f"weights must be exactly {sorted(expected)}, "
                         f"got {sorted(weights)}")
    parts = []
    for name, shape in expected.items():
        values = np.array(weights[name])
        if shapes.get(name) != list(shape) or values.shape != (math.prod(shape),):
            raise ValueError(f"weight {name}: expected shape {list(shape)} "
                             f"for hidden {hidden}")
        if values.dtype.kind not in "if":
            raise ValueError(f"weight {name}: values must be numbers")
        parts.append(values)
    flat = np.concatenate(parts).astype(float, copy=False)
    if not np.all(np.isfinite(flat)):
        raise ValueError("weights must be finite")
    return PolicyParams(hidden, flat)


def extract_features(lat: float, lon: float, east_m: float, north_m: float,
                     c: float, s: float, field: WeatherField,
                     trip_length_m: float) -> list[float]:
    """Feature vector at (lat, lon): the displacement (east_m, north_m) to
    the destination rotated by phi (given c, s = cos(phi), sin(phi)), then
    the weather.

    Displacement components are normalized by the total trip length, wind
    by WIND_SCALE_MS, temperature by its ISA deviation over TEMP_SCALE_K.
    """
    de, dn = rotate_by(east_m, north_m, c, s)
    return [de / trip_length_m, dn / trip_length_m,
            *_weather_features(field, lat, lon)]


def _weather_features(field: WeatherField, lat: float,
                     lon: float) -> tuple[float, float, float]:
    """The last three features: wind and ISA deviation at (lat, lon),
    scaled."""
    wind_east, wind_north, temperature = sample_at(field, lat, lon)
    return (wind_east / WIND_SCALE_MS, wind_north / WIND_SCALE_MS,
            (temperature - ISA_TEMPERATURE_K) / TEMP_SCALE_K)


def trip_frame(x: tuple[float, float], dest: tuple[float, float], n: int):
    """(rot, rot_inv, length, step_scale) of the trip from (lat, lon) x to
    dest: cos and sin of its rotation phi (for features) and of -phi (for
    actions), its haversine length, and length / n, a step's longest move.
    """
    phi = trip_rotation(*x, *dest)
    length = haversine(*x, *dest)
    return ((math.cos(phi), math.sin(phi)), (math.cos(-phi), math.sin(-phi)),
            length, length / n)


def step_at(lat: float, lon: float, act_east: float, act_north: float,
            c: float, s: float, step_scale: float) -> tuple[float, float]:
    """One attempt of safe_step: un-rotate the action, given
    c, s = cos(-phi), sin(-phi), scale, cap, displace. Returns the
    (lat, lon) it reaches.

    step_scale is trip_frame's; movements longer than one step scale are
    rescaled down to it. A non-finite action raises ValueError, and a step
    that would pass a pole DistanceOutOfRange (both from displace_at).
    """
    east, north = rotate_by(act_east * step_scale, act_north * step_scale,
                            c, s)
    norm = math.hypot(east, north)
    if norm > step_scale:
        f = step_scale / norm
        east, north = east * f, north * f
    return displace_at(lat, lon, east, north)


def safe_step(lat: float, lon: float, act_east: float, act_north: float,
              c: float, s: float, step_scale: float) -> tuple[float, float]:
    """The step rule of every rollout: step_at, with the action halved and
    the step tried again while it would pass a pole (possible for extreme
    northward actions). After eight refusals the position stays put."""
    for _ in range(8):
        try:
            return step_at(lat, lon, act_east, act_north, c, s, step_scale)
        except DistanceOutOfRange:
            act_east, act_north = act_east * 0.5, act_north * 0.5
    return lat, lon


def roll_out(cfg: GuideConfig, params: PolicyParams | None, origin: GeoPoint,
             destination: GeoPoint, field: WeatherField) -> CoarseRoute:
    """Produce the n-waypoint coarse route; deterministic for both kinds.

    Every waypoint is at the origin's altitude, and the final one is always
    forced to the destination. Consecutive duplicate positions (e.g. a zero
    action) are collapsed so the result is a valid CoarseRoute.
    """
    n = cfg.n
    alt = origin.alt_m
    if cfg.guide_kind == "great_circle":
        inner = track_points(origin.lat_deg, origin.lon_deg,
                             destination.lat_deg, destination.lon_deg,
                             [k / (n - 1) for k in range(1, n - 1)])
        pts = [GeoPoint(origin.lat_deg, origin.lon_deg, alt),
               *(GeoPoint(lat, lon, alt) for lat, lon in inner),
               GeoPoint(destination.lat_deg, destination.lon_deg, alt)]
        return CoarseRoute(tuple(_dedupe(pts)))

    if params is None:
        raise ValueError("policy guide requires PolicyParams")
    dest = destination.lat_deg, destination.lon_deg
    x = origin.lat_deg, origin.lon_deg
    rot, rot_inv, trip_len, step_scale = trip_frame(x, dest, n)
    pts = [origin]
    for _ in range(n - 2):
        disp = displacement(*x, *dest, haversine(*x, *dest))
        feats = extract_features(*x, *disp, *rot, field, trip_len)
        mean, _value = forward(params, np.array([feats]))
        x = safe_step(*x, *np.tanh(mean[0]).tolist(), *rot_inv, step_scale)
        pts.append(GeoPoint(*x, alt))
    pts.append(GeoPoint(*dest, alt))
    return CoarseRoute(tuple(_dedupe(pts)))


def _dedupe(pts: list[GeoPoint]) -> list[GeoPoint]:
    out = [pts[0]]
    for p in pts[1:]:
        if not p.same_position(out[-1]):
            out.append(p)
    return out
