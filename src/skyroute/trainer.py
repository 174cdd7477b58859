"""PPO-clip training of the guide policy on randomly sampled trips.

Episodes are fixed-length (n-1 stochastic steps), rewarded by a shaped
combination of movement alignment and fuel burn, with an optional
terminal bonus/penalty on the final distance to the destination.
Updates use generalized advantage estimation and the clipped surrogate
objective, optimized with Adam on a hand-rolled backprop of the
shared-trunk network.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (ConfigError, DegenerateDistance, NonFiniteGradient,
                     SamplingExhausted)
from .geo import (GeoPoint, PlaneVector, great_circle_distance,
                  local_displacement, trip_rotation)
from .guide import (ACTION_DIM, GuideConfig, PolicyParams, displacement_to,
                    extract_features, forward, init_params, save_checkpoint,
                    step)
from .perfmodel import AircraftSpec, AircraftState, default_spec, fly_segment
from .weather import WeatherField, make_uniform, ISA_TEMPERATURE_K

LOG_COLUMNS = ["update_index", "mean_reward", "mean_final_dist",
               "actor_loss", "critic_loss", "clip_fraction", "approx_kl"]

_LOG2PI = math.log(2.0 * math.pi)
_TANH_EPS = 1e-6


@dataclass
class TrainConfig:
    """Hyperparameters and sampling setup for one training run."""

    clip_range: float = 0.2
    learning_rate: float = 5e-6
    reward_exponent: float = 2.0
    extra_end_reward: bool = True
    rho1: float = 5.0
    rho2: float = 2.0
    lambda_v: float = 0.01
    end_threshold: float = 0.5          # in step-scale units
    discount: float = 0.99
    gae_lambda: float = 0.95
    epochs_per_update: int = 10
    minibatch_size: int = 64
    instances: int = 16_000
    sample_bbox: tuple[float, float, float, float] = (34.0, 71.0, -10.0, 35.0)
    min_trip_m: float = 500_000.0
    seed: int = 0
    # Artifact knobs not pinned by the hyperparameter table.
    n_waypoints: int = 5
    hidden: int = 64
    rollout_episodes: int = 16
    substeps: int = 1
    vf_coef: float = 0.5
    log_std_init: float = -0.7
    checkpoint_every: int = 25
    signed_progress: bool = False
    aircraft: AircraftSpec = dc_field(default_factory=default_spec)

    def __post_init__(self):
        if not (0.05 <= self.clip_range <= 0.5):
            raise ConfigError("clip_range must lie in [0.05, 0.5]")
        for name in ("learning_rate", "min_trip_m", "rho1", "rho2"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        lat_min, lat_max, lon_min, lon_max = self.sample_bbox
        if lat_min >= lat_max or lon_min >= lon_max:
            raise ConfigError("sample_bbox must be (lat_min, lat_max, lon_min, lon_max)")
        if self.n_waypoints < 2:
            raise ConfigError("n_waypoints must be >= 2")

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        for required in ("seed", "instances"):
            if required not in raw:
                raise ConfigError(f"missing config field: {required}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = [k for k in raw if k not in known and k != "aircraft_path"]
        if unknown:
            raise ConfigError(f"unknown config fields: {unknown}")
        kwargs = dict(raw)
        path = kwargs.pop("aircraft_path", None)
        if path is not None:
            kwargs["aircraft"] = AircraftSpec.from_json(path)
        if "sample_bbox" in kwargs:
            kwargs["sample_bbox"] = tuple(kwargs["sample_bbox"])
        return cls(**kwargs)


@dataclass
class EpisodeRecord:
    """Per-step tensors for one rollout, all of length n-1."""

    features: np.ndarray      # (T, 5)
    pre_squash: np.ndarray    # (T, 2) Gaussian samples before tanh
    actions: np.ndarray       # (T, 2)
    log_probs: np.ndarray     # (T,)
    rewards: np.ndarray       # (T,)
    value_estimates: np.ndarray  # (T,)
    final_dist_m: float


def sample_instance(cfg: TrainConfig,
                    rng: np.random.Generator) -> tuple[GeoPoint, GeoPoint]:
    """Uniform origin/destination pair at least min_trip_m apart."""
    lat_min, lat_max, lon_min, lon_max = cfg.sample_bbox
    for _ in range(1000):
        lats = rng.uniform(lat_min, lat_max, size=2)
        lons = rng.uniform(lon_min, lon_max, size=2)
        a = GeoPoint(float(lats[0]), float(lons[0]))
        b = GeoPoint(float(lats[1]), float(lons[1]))
        if great_circle_distance(a, b) >= cfg.min_trip_m:
            return a, b
    raise SamplingExhausted("1,000 rejections while sampling a trip")


def progress_value(dx: PlaneVector, D: PlaneVector, lambda_v: float,
                   signed: bool = False) -> float:
    """Alignment of a movement with the direction to the destination.

    Norm of the projection of dx onto D over the norm of dx, minus the
    regularizer; this is |cos theta| - lambda (or signed cos theta with
    signed=True). A zero movement returns -lambda by convention.
    """
    d_norm = D.norm()
    if d_norm == 0.0:
        raise DegenerateDistance("distance vector has zero norm")
    dx_norm = dx.norm()
    if dx_norm == 0.0:
        return -lambda_v
    cos = (dx.east_m * D.east_m + dx.north_m * D.north_m) / (dx_norm * d_norm)
    return (cos if signed else abs(cos)) - lambda_v


def step_reward(v_k: float, fuel_kg: float, gamma_r: float) -> float:
    """-(1 - V_k)^gamma * F_k; never positive for non-negative fuel."""
    return -((1.0 - v_k) ** gamma_r) * fuel_kg


def end_reward(final_dist_normalized: float, threshold: float,
               rho1: float = 5.0, rho2: float = 2.0) -> float:
    """Terminal bonus (success branch includes the boundary) or penalty."""
    d = final_dist_normalized
    if d > threshold:
        return -rho1 * d
    return rho2 * (1.0 - d)


def _log_prob_of(params: PolicyParams, mean: np.ndarray,
                 z: np.ndarray) -> np.ndarray:
    """Log density of tanh-squashed Gaussian actions, given the pre-squash z.

    Sums over the last (action) axis: a (2,) z gives a scalar, (B, 2) a (B,).
    """
    std = np.exp(params.log_std)
    gauss = -0.5 * (((z - mean) / std) ** 2) - params.log_std - 0.5 * _LOG2PI
    squash = np.log(1.0 - np.tanh(z) ** 2 + _TANH_EPS)
    return np.sum(gauss, axis=-1) - np.sum(squash, axis=-1)


def _safe_step(x, origin, destination, action, phi, n):
    """Guide step with a retry that halves the action if the result would
    leave valid latitudes (possible for extreme northward rollouts)."""
    act = np.asarray(action, dtype=float)
    for _ in range(8):
        try:
            return step(x, origin, destination, act, phi, n)
        except ValueError:
            act = act * 0.5
    return x


def run_episode(params: PolicyParams, cfg: TrainConfig,
                instance: tuple[GeoPoint, GeoPoint], field: WeatherField,
                rng: np.random.Generator) -> EpisodeRecord:
    """Roll out n-1 stochastic steps; destination is not forced."""
    origin, destination = instance
    n = cfg.n_waypoints
    steps = n - 1
    phi = trip_rotation(origin, destination)
    trip_len = great_circle_distance(origin, destination)
    step_scale = trip_len / n
    gcfg = GuideConfig(n=n, guide_kind="policy")

    features = np.empty((steps, 5))
    pre_squash = np.empty((steps, ACTION_DIM))
    actions = np.empty((steps, ACTION_DIM))
    log_probs = np.empty(steps)
    rewards = np.empty(steps)
    values = np.empty(steps)

    x = origin
    mass = cfg.aircraft.ref_mass_kg
    for k in range(steps):
        feats = extract_features(x, destination, phi, field, trip_len, gcfg)
        mean, value = forward(params, feats)
        z = mean + np.exp(params.log_std) * rng.standard_normal(ACTION_DIM)
        action = np.tanh(z)
        nxt = _safe_step(x, origin, destination, action, phi, n)

        dx = local_displacement(x, nxt)
        d_vec = displacement_to(x, destination)
        v_k = progress_value(dx, d_vec, cfg.lambda_v, cfg.signed_progress)
        seg = fly_segment(cfg.aircraft, AircraftState(x, mass), nxt, field,
                          cfg.substeps)
        mass = seg.end_state.mass_kg

        features[k] = feats
        pre_squash[k] = z
        actions[k] = action
        log_probs[k] = _log_prob_of(params, mean, z)
        values[k] = value
        rewards[k] = step_reward(v_k, seg.fuel_kg, cfg.reward_exponent)
        x = nxt

    final_dist = great_circle_distance(x, destination)
    if cfg.extra_end_reward:
        rewards[-1] += end_reward(final_dist / step_scale, cfg.end_threshold,
                                  cfg.rho1, cfg.rho2)
    return EpisodeRecord(features, pre_squash, actions, log_probs, rewards,
                         values, final_dist)


def compute_gae(rewards: np.ndarray, values: np.ndarray, discount: float,
                gae_lambda: float) -> tuple[np.ndarray, np.ndarray]:
    """(advantages, returns) for one fixed-length terminal episode."""
    T = rewards.shape[0]
    adv = np.empty(T)
    last = 0.0
    for t in range(T - 1, -1, -1):
        next_v = values[t + 1] if t + 1 < T else 0.0
        delta = rewards[t] + discount * next_v - values[t]
        last = delta + discount * gae_lambda * last
        adv[t] = last
    return adv, adv + values


class AdamOptimizer:
    """Plain Adam over the parameter dict of a PolicyParams."""

    def __init__(self, params: PolicyParams, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.arrays().items()}
        self.v = {k: np.zeros_like(v) for k, v in params.arrays().items()}

    def apply(self, params: PolicyParams, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        arrays = params.arrays()
        for k, g in grads.items():
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            m_hat = self.m[k] / (1 - self.beta1 ** self.t)
            v_hat = self.v[k] / (1 - self.beta2 ** self.t)
            arrays[k] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def policy_value_losses(params: PolicyParams, features: np.ndarray,
                        pre_squash: np.ndarray, old_log_probs: np.ndarray,
                        advantages: np.ndarray, returns: np.ndarray,
                        clip_range: float):
    """Clipped surrogate + value losses and diagnostics (no gradients)."""
    pl, vl, _grads, cf, kl = _loss_grads(params, features, pre_squash,
                                         old_log_probs, advantages, returns,
                                         clip_range, vf_coef=0.0)
    return pl, vl, cf, kl


def _loss_grads(params: PolicyParams, f: np.ndarray, z: np.ndarray,
                old_logp: np.ndarray, adv: np.ndarray, ret: np.ndarray,
                clip_range: float, vf_coef: float):
    """Forward + manual backprop of the combined PPO loss on one minibatch."""
    M = f.shape[0]
    a1 = f @ params.w1.T + params.b1
    h1 = np.tanh(a1)
    a2 = h1 @ params.w2.T + params.b2
    h2 = np.tanh(a2)
    mean = h2 @ params.w_mean.T + params.b_mean
    value = (h2 @ params.w_val.T + params.b_val)[:, 0]
    std = np.exp(params.log_std)
    new_logp = _log_prob_of(params, mean, z)
    ratio = np.exp(new_logp - old_logp)
    surr1 = ratio * adv
    surr2 = np.clip(ratio, 1.0 - clip_range, 1.0 + clip_range) * adv
    use_unclipped = surr1 <= surr2
    policy_loss = -float(np.mean(np.minimum(surr1, surr2)))
    value_loss = float(np.mean((value - ret) ** 2))

    # d(policy loss)/d(new_logp): only where the unclipped branch is active.
    g_logp = np.where(use_unclipped, -adv * ratio, 0.0) / M
    g_mean = g_logp[:, None] * (z - mean) / (std ** 2)
    g_log_std = np.sum(g_logp[:, None] * (((z - mean) / std) ** 2 - 1.0), axis=0)
    g_value = vf_coef * 2.0 * (value - ret) / M

    g_h2 = g_mean @ params.w_mean + g_value[:, None] * params.w_val
    grads = {
        "w_mean": g_mean.T @ h2,
        "b_mean": g_mean.sum(axis=0),
        "log_std": g_log_std,
        "w_val": (g_value[:, None] * h2).sum(axis=0)[None, :],
        "b_val": np.array([g_value.sum()]),
    }
    g_a2 = g_h2 * (1.0 - h2 ** 2)
    grads["w2"] = g_a2.T @ h1
    grads["b2"] = g_a2.sum(axis=0)
    g_h1 = g_a2 @ params.w2
    g_a1 = g_h1 * (1.0 - h1 ** 2)
    grads["w1"] = g_a1.T @ f
    grads["b1"] = g_a1.sum(axis=0)

    clip_fraction = float(np.mean(np.abs(ratio - 1.0) > clip_range))
    approx_kl = float(np.mean(old_logp - new_logp))
    return policy_loss, value_loss, grads, clip_fraction, approx_kl


def ppo_update(params: PolicyParams, batch: list[EpisodeRecord],
               cfg: TrainConfig, rng: np.random.Generator,
               optimizer: AdamOptimizer | None = None
               ) -> tuple[PolicyParams, dict]:
    """One PPO update over a batch of episodes; returns new params + stats.

    Non-finite gradients abort the update and leave params unchanged.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    feats = np.concatenate([e.features for e in batch])
    zs = np.concatenate([e.pre_squash for e in batch])
    old_logp = np.concatenate([e.log_probs for e in batch])
    advs = []
    rets = []
    for e in batch:
        a, r = compute_gae(e.rewards, e.value_estimates, cfg.discount,
                           cfg.gae_lambda)
        advs.append(a)
        rets.append(r)
    adv = np.concatenate(advs)
    ret = np.concatenate(rets)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    new_params = params.copy()
    opt = optimizer if optimizer is not None else AdamOptimizer(
        new_params, cfg.learning_rate)

    n_samples = feats.shape[0]
    stats = {"actor_loss": 0.0, "critic_loss": 0.0,
             "clip_fraction": 0.0, "approx_kl": 0.0}
    n_mb = 0
    for _epoch in range(cfg.epochs_per_update):
        order = rng.permutation(n_samples)
        for lo in range(0, n_samples, cfg.minibatch_size):
            idx = order[lo:lo + cfg.minibatch_size]
            pl, vl, grads, cf, kl = _loss_grads(
                new_params, feats[idx], zs[idx], old_logp[idx], adv[idx],
                ret[idx], cfg.clip_range, cfg.vf_coef)
            for g in grads.values():
                if not np.all(np.isfinite(g)):
                    raise NonFiniteGradient("non-finite gradient; update aborted")
            opt.apply(new_params, grads)
            stats["actor_loss"] += pl
            stats["critic_loss"] += vl
            stats["clip_fraction"] += cf
            stats["approx_kl"] += kl
            n_mb += 1
    for k in stats:
        stats[k] /= max(n_mb, 1)
    return new_params, stats


@dataclass
class TrainingLog:
    """Per-update CSV rows plus per-episode series for trend analysis."""

    rows: list[dict]
    episode_rewards: list[float]
    episode_final_dist: list[float]


def train(cfg: TrainConfig, progress_sink=None,
          checkpoint_path: str | None = None
          ) -> tuple[PolicyParams, TrainingLog]:
    """Sample -> rollout -> update until the instance budget is spent.

    Deterministic per cfg.seed. Every episode flies in one zero-wind ISA
    field covering the whole globe, since rollouts of an untrained policy
    can drift far outside the sample box. progress_sink receives one
    formatted line per update.
    """
    field = make_uniform(0.0, 0.0, ISA_TEMPERATURE_K,
                         (-90.0, 90.0, -180.0, 180.0))
    rng = np.random.default_rng(cfg.seed)
    params = init_params(rng, cfg.hidden, cfg.log_std_init)
    optimizer = AdamOptimizer(params, cfg.learning_rate)

    log = TrainingLog([], [], [])
    episodes_done = 0
    update_index = 0
    while episodes_done < cfg.instances:
        batch_n = min(cfg.rollout_episodes, cfg.instances - episodes_done)
        batch = []
        for _ in range(batch_n):
            instance = sample_instance(cfg, rng)
            episode = run_episode(params, cfg, instance, field, rng)
            batch.append(episode)
            log.episode_rewards.append(float(np.sum(episode.rewards)))
            log.episode_final_dist.append(episode.final_dist_m)
        params, stats = ppo_update(params, batch, cfg, rng, optimizer)
        episodes_done += batch_n
        update_index += 1

        row = {
            "update_index": update_index,
            "mean_reward": float(np.mean(log.episode_rewards[-batch_n:])),
            "mean_final_dist": float(np.mean(log.episode_final_dist[-batch_n:])),
            "actor_loss": stats["actor_loss"],
            "critic_loss": stats["critic_loss"],
            "clip_fraction": stats["clip_fraction"],
            "approx_kl": stats["approx_kl"],
        }
        log.rows.append(row)
        if progress_sink is not None:
            progress_sink(
                f"update {update_index}: reward {row['mean_reward']:.2f} "
                f"final_dist {row['mean_final_dist'] / 1000.0:.1f} km "
                f"kl {row['approx_kl']:.2e}")
        if checkpoint_path and update_index % cfg.checkpoint_every == 0:
            _write_checkpoint(params, cfg, checkpoint_path)

    if checkpoint_path:
        _write_checkpoint(params, cfg, checkpoint_path)
    return params, log


def _write_checkpoint(params: PolicyParams, cfg: TrainConfig, path: str) -> None:
    try:
        save_checkpoint(params, GuideConfig(n=cfg.n_waypoints,
                                            guide_kind="policy"), path)
    except OSError as exc:
        raise OSError(f"checkpoint write failed at {path}: {exc}") from exc


def write_training_log(rows: list[dict], path: str) -> None:
    """CSV with the fixed schema in LOG_COLUMNS."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=LOG_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in LOG_COLUMNS})
