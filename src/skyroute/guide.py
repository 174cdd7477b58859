"""Coarse-route guides: feature extraction, policy network, step update.

A guide turns (origin, destination, weather) into an n-waypoint coarse
route. Two kinds exist: a learned actor-critic policy and a no-learning
great-circle baseline. Instances are rotated so every trip appears as a
straight trip upwards before the policy sees it. The policy's weather
features are scaled by fixed constants that every checkpoint records.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .geo import (GeoPoint, PlaneVector, great_circle_distance,
                  intermediate_point, local_displacement, displace, rotate,
                  rotate_inverse, trip_rotation)
from .lattice import CoarseRoute
from .weather import ISA_TEMPERATURE_K, WeatherField, sample

FEATURE_DIM = 5
ACTION_DIM = 2

CHECKPOINT_SCHEMA = 1

#: Feature normalization constants. Every checkpoint records them, and
#: load_checkpoint refuses one that records others.
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
    """Network forward pass: (mean, value). features may be (5,) or (B, 5).

    Each row goes through its own one-row matrix products (a (B, 1, 5)
    stack), so a row's outputs are bit-identical whatever B is: a batch
    gives what B single calls give. One (B, 5) product would round some
    rows differently.
    """
    f = np.atleast_2d(np.asarray(features, dtype=float))[:, None, :]
    h1 = np.tanh(f @ params.w1.T + params.b1)
    h2 = np.tanh(h1 @ params.w2.T + params.b2)
    mean = (h2 @ params.w_mean.T + params.b_mean)[:, 0]
    value = (h2 @ params.w_val.T + params.b_val)[:, 0, 0]
    if np.asarray(features).ndim == 1:
        return mean[0], float(value[0])
    return mean, value


def save_checkpoint(params: PolicyParams, cfg: GuideConfig, path: str) -> None:
    """JSON checkpoint: architecture, normalization constants, flat weights."""
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
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")


def load_checkpoint(path: str) -> tuple[PolicyParams, GuideConfig]:
    """Read a save_checkpoint file; ValueError names what is malformed."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
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


def extract_features(x: GeoPoint, x_n: GeoPoint, phi: float,
                     field: WeatherField, trip_length_m: float) -> np.ndarray:
    """Feature vector: rotated displacement to destination plus weather.

    Displacement components are normalized by the total trip length, wind
    by WIND_SCALE_MS, temperature by its ISA deviation over TEMP_SCALE_K.
    """
    disp = None if x.same_position(x_n) else local_displacement(x, x_n)
    return np.array(feature_row(x, disp, phi, field, trip_length_m))


def feature_row(x: GeoPoint, disp: PlaneVector | None, phi: float,
                field: WeatherField, trip_length_m: float) -> list[float]:
    """The five values of extract_features, given disp =
    local_displacement(x, x_n), or None at x_n itself; for a caller that
    needs disp as well."""
    if disp is None:
        de, dn = 0.0, 0.0
    else:
        d = rotate(disp, phi)
        de, dn = d.east_m / trip_length_m, d.north_m / trip_length_m
    wx = sample(field, x)
    return [de, dn,
            wx.wind_east / WIND_SCALE_MS,
            wx.wind_north / WIND_SCALE_MS,
            (wx.temperature - ISA_TEMPERATURE_K) / TEMP_SCALE_K]


def policy_action(params: PolicyParams, features: np.ndarray) -> np.ndarray:
    """Inference action in (-1, 1)^2: tanh of the policy mean.

    The trainer samples its own exploratory actions around the mean.
    """
    mean, _value = forward(params, features)
    return np.tanh(mean)


def step(x_k: GeoPoint, action: np.ndarray, phi: float,
         step_scale: float) -> GeoPoint:
    """Apply one movement: un-rotate the action, scale, cap, displace.

    step_scale is the trip length divided by n; movements longer than one
    step scale are rescaled down to it. The altitude stays x_k's. A step
    that would pass a pole raises DistanceOutOfRange.
    """
    mv = rotate_inverse(PlaneVector(float(action[0]) * step_scale,
                                    float(action[1]) * step_scale), phi)
    norm = mv.norm()
    if norm > step_scale:
        mv = mv.scaled(step_scale / norm)
    return displace(x_k, mv)


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
        pts = []
        for k in range(n):
            p = intermediate_point(origin, destination, k / (n - 1))
            pts.append(GeoPoint(p.lat_deg, p.lon_deg, alt))
        return CoarseRoute(tuple(_dedupe(pts)))

    if params is None:
        raise ValueError("policy guide requires PolicyParams")
    phi = trip_rotation(origin, destination)
    trip_len = great_circle_distance(origin, destination)
    x = origin
    pts = [x]
    for _ in range(n - 2):
        feats = extract_features(x, destination, phi, field, trip_len)
        x = step(x, policy_action(params, feats), phi, trip_len / n)
        pts.append(x)
    pts.append(GeoPoint(destination.lat_deg, destination.lon_deg, alt))
    return CoarseRoute(tuple(_dedupe(pts)))


def _dedupe(pts: list[GeoPoint]) -> list[GeoPoint]:
    out = [pts[0]]
    for p in pts[1:]:
        if not p.same_position(out[-1]):
            out.append(p)
    return out
