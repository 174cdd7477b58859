"""Coarse-route guides: feature extraction, policy network, step update.

A guide turns (origin, destination, weather) into an n-waypoint coarse
route. Two kinds exist: a learned actor-critic policy and a no-learning
great-circle baseline. Instances are rotated so every trip appears as a
straight trip upwards before the policy sees it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import math

from .geo import (GeoPoint, MAX_PLANAR_DISTANCE_M, PlaneVector,
                  great_circle_distance, initial_bearing, intermediate_point,
                  local_displacement, displace, rotate, rotate_inverse,
                  trip_rotation)
from .lattice import CoarseRoute
from .weather import ISA_TEMPERATURE_K, WeatherField, sample

FEATURE_DIM = 5
ACTION_DIM = 2

CHECKPOINT_SCHEMA = 1

#: Feature normalization constants (documented so checkpoints are portable).
WIND_SCALE_MS = 50.0
TEMP_SCALE_K = 30.0


@dataclass
class PolicyParams:
    """Weights of the shared-trunk actor-critic network.

    Trunk: input 5 -> hidden -> hidden, tanh activations. Heads: 2 action
    means (squashed to [-1, 1] by tanh at sampling time), 2 state-independent
    log-stds, and 1 value output.
    """

    hidden: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w_mean: np.ndarray
    b_mean: np.ndarray
    log_std: np.ndarray
    w_val: np.ndarray
    b_val: np.ndarray

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2,
                "w_mean": self.w_mean, "b_mean": self.b_mean,
                "log_std": self.log_std, "w_val": self.w_val, "b_val": self.b_val}

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.hidden, *(a.copy() for a in self.arrays().values()))


@dataclass
class GuideConfig:
    """Which guide to use and how it normalizes features."""

    n: int = 5
    guide_kind: str = "great_circle"   # "policy" | "great_circle"
    wind_scale_ms: float = WIND_SCALE_MS
    temp_scale_k: float = TEMP_SCALE_K

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.guide_kind not in ("policy", "great_circle"):
            raise ValueError(f"unknown guide_kind: {self.guide_kind}")


def init_params(rng: np.random.Generator, hidden: int = 64,
                log_std_init: float = -0.7) -> PolicyParams:
    """Scaled-normal init; head weights small so initial actions sit near 0."""
    def layer(n_in, n_out, scale):
        return rng.normal(0.0, scale / np.sqrt(n_in), size=(n_out, n_in))

    return PolicyParams(
        hidden=hidden,
        w1=layer(FEATURE_DIM, hidden, 1.0),
        b1=np.zeros(hidden),
        w2=layer(hidden, hidden, 1.0),
        b2=np.zeros(hidden),
        w_mean=layer(hidden, ACTION_DIM, 0.01),
        b_mean=np.zeros(ACTION_DIM),
        log_std=np.full(ACTION_DIM, log_std_init),
        w_val=layer(hidden, 1, 0.01),
        b_val=np.zeros(1),
    )


def forward(params: PolicyParams, features: np.ndarray):
    """Network forward pass: (mean, value). features may be (5,) or (B, 5)."""
    f = np.atleast_2d(np.asarray(features, dtype=float))
    h1 = np.tanh(f @ params.w1.T + params.b1)
    h2 = np.tanh(h1 @ params.w2.T + params.b2)
    mean = h2 @ params.w_mean.T + params.b_mean
    value = (h2 @ params.w_val.T + params.b_val)[:, 0]
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
        "normalization": {
            "wind_scale_ms": cfg.wind_scale_ms,
            "temp_scale_k": cfg.temp_scale_k,
        },
        "n_waypoints": cfg.n,
        "weights": {k: v.ravel().tolist() for k, v in params.arrays().items()},
        "shapes": {k: list(v.shape) for k, v in params.arrays().items()},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")


def load_checkpoint(path: str) -> tuple[PolicyParams, GuideConfig]:
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    if payload.get("schema_version") != CHECKPOINT_SCHEMA:
        raise ValueError(f"unsupported checkpoint schema: "
                         f"{payload.get('schema_version')}")
    shapes = payload["shapes"]
    weights = {k: np.array(v, dtype=float).reshape(shapes[k])
               for k, v in payload["weights"].items()}
    params = PolicyParams(hidden=payload["architecture"]["hidden"], **weights)
    norm = payload["normalization"]
    cfg = GuideConfig(n=payload.get("n_waypoints", 5), guide_kind="policy",
                      wind_scale_ms=norm["wind_scale_ms"],
                      temp_scale_k=norm["temp_scale_k"])
    return params, cfg


def displacement_to(x: GeoPoint, target: GeoPoint) -> PlaneVector:
    """Planar displacement toward target; falls back to a bearing-based
    vector beyond the equirectangular validity bound (rollouts can drift
    far from the destination during training)."""
    d = great_circle_distance(x, target)
    if d <= MAX_PLANAR_DISTANCE_M:
        return local_displacement(x, target)
    theta = initial_bearing(x, target)
    return PlaneVector(d * math.sin(theta), d * math.cos(theta))


def extract_features(x: GeoPoint, x_n: GeoPoint, phi: float,
                     field: WeatherField, trip_length_m: float,
                     cfg: GuideConfig | None = None) -> np.ndarray:
    """Feature vector: rotated displacement to destination plus weather.

    Displacement components are normalized by the total trip length, wind
    by wind_scale_ms, temperature by its ISA deviation over temp_scale_k.
    """
    cfg = cfg or GuideConfig()
    if x.same_position(x_n):
        de, dn = 0.0, 0.0
    else:
        d = rotate(displacement_to(x, x_n), phi)
        de, dn = d.east_m / trip_length_m, d.north_m / trip_length_m
    wx = sample(field, x)
    return np.array([de, dn,
                     wx.wind_east / cfg.wind_scale_ms,
                     wx.wind_north / cfg.wind_scale_ms,
                     (wx.temperature - ISA_TEMPERATURE_K) / cfg.temp_scale_k])


def policy_action(params: PolicyParams, features: np.ndarray) -> np.ndarray:
    """Inference action in (-1, 1)^2: tanh of the policy mean.

    The trainer samples its own exploratory actions around the mean.
    """
    mean, _value = forward(params, features)
    return np.tanh(mean)


def step(x_k: GeoPoint, x_1: GeoPoint, x_n: GeoPoint, action: np.ndarray,
         phi: float, n: int) -> GeoPoint:
    """Apply one movement: un-rotate the action, scale, cap, displace.

    The step scale is the trip length divided by n; movements longer than
    one step scale are rescaled down to it. The altitude stays x_k's.
    """
    step_scale = great_circle_distance(x_1, x_n) / n
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
        feats = extract_features(x, destination, phi, field, trip_len, cfg)
        x = step(x, origin, destination, policy_action(params, feats), phi, n)
        pts.append(x)
    pts.append(GeoPoint(destination.lat_deg, destination.lon_deg, alt))
    return CoarseRoute(tuple(_dedupe(pts)))


def _dedupe(pts: list[GeoPoint]) -> list[GeoPoint]:
    out = [pts[0]]
    for p in pts[1:]:
        if not p.same_position(out[-1]):
            out.append(p)
    return out
