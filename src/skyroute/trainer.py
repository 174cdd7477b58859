"""PPO-clip training of the guide policy on randomly sampled trips.

Episodes are fixed-length (n-1 stochastic steps), rewarded by a shaped
combination of movement alignment and fuel burn, with an optional
terminal bonus/penalty on the final distance to the destination.
Updates use generalized advantage estimation and the clipped surrogate
objective, optimized with Adam on a hand-rolled backprop of the
shared-trunk network.

The numpy work runs once per step and once per minibatch, not once per
episode and once per weight array, because numpy's fixed cost per call
dominates arrays this small:

- All episodes of an update advance in lockstep (run_episodes): one
  (B, 5) feature array, one forward pass, one tanh and one log-density
  call per step. run_episode is its one-episode case.
- The guide step, displacements and flight of each episode stay scalar.
  Measured at B = 16, one batched fly_segments call costs 116 us where
  16 scalar fly_segment calls cost 85 us; sample_many is at parity with
  16 scalar samples.
- The weights are one flat vector (PolicyParams.flat), so the gradient
  is one vector, checked for finite values once per minibatch, and Adam
  is a few whole-vector operations.

train() draws its RNG in the order documented there, which reproduces
the stream of rolling out one episode at a time. Since forward gives each
row what a one-row call gives, and Adam updates each weight as a
per-array Adam would, the training log and checkpoint are bit-identical
to those of that one-episode-at-a-time loop.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .errors import (ConfigError, DegenerateDistance, DistanceOutOfRange,
                     NonFiniteGradient, SamplingExhausted)
from .geo import (GeoPoint, PlaneVector, great_circle_distance,
                  local_displacement, trip_rotation)
# extract_features is not called here: perfbench's tracer wraps the name.
from .guide import (ACTION_DIM, FEATURE_DIM, GuideConfig, PolicyParams,
                    displacement_to, extract_features, feature_row, forward,
                    init_params, save_checkpoint, step)
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
        types = {"float": (int, float), "int": (int,), "bool": (bool,)}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in types and type(value) not in types[f.type]:
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if not (0.05 <= self.clip_range <= 0.5):
            raise ConfigError("clip_range must lie in [0.05, 0.5]")
        for name in ("learning_rate", "min_trip_m", "rho1", "rho2"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        bbox = self.sample_bbox
        if not (type(bbox) is tuple and len(bbox) == 4
                and all(type(v) in (int, float) for v in bbox)
                and bbox[0] < bbox[1] and bbox[2] < bbox[3]):
            raise ConfigError("sample_bbox must be (lat_min, lat_max, lon_min, lon_max)")
        if self.n_waypoints < 2:
            raise ConfigError("n_waypoints must be >= 2")
        for name in ("rollout_episodes", "minibatch_size", "epochs_per_update",
                     "hidden", "substeps"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, "
                                  f"got {value!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        for required in ("seed", "instances"):
            if required not in raw:
                raise ConfigError(f"missing config field: {required}")
        # A JSON config names its aircraft by file, never inline.
        known = set(cls.__dataclass_fields__) - {"aircraft"} | {"aircraft_path"}
        unknown = [k for k in raw if k not in known]
        if unknown:
            raise ConfigError(f"unknown config fields: {unknown}")
        kwargs = dict(raw)
        if "aircraft_path" in kwargs:
            path = kwargs.pop("aircraft_path")
            # open() would take an integer as a file descriptor.
            if not isinstance(path, str):
                raise ConfigError(f"aircraft_path must be a file path, "
                                  f"got {path!r}")
            kwargs["aircraft"] = AircraftSpec.from_json(path)
        if isinstance(kwargs.get("sample_bbox"), list):
            kwargs["sample_bbox"] = tuple(kwargs["sample_bbox"])
        return cls(**kwargs)


@dataclass
class EpisodeRecord:
    """Per-step tensors of one rollout, T = n-1 steps.

    A lockstep rollout of B episodes puts a leading episode axis on every
    field: features (B, T, 5), rewards (B, T), final_dist_m (B,), and so on.
    """

    features: np.ndarray      # (T, 5)
    pre_squash: np.ndarray    # (T, 2) Gaussian samples before tanh
    actions: np.ndarray       # (T, 2)
    log_probs: np.ndarray     # (T,)
    rewards: np.ndarray       # (T,)
    value_estimates: np.ndarray  # (T,)
    final_dist_m: float | np.ndarray


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


def _safe_step(x, action, phi, step_scale):
    """Guide step with a retry that halves the action if the step would
    pass a pole (possible for extreme northward rollouts)."""
    act = np.asarray(action, dtype=float)
    for _ in range(8):
        try:
            return step(x, act, phi, step_scale)
        except DistanceOutOfRange:
            act = act * 0.5
    return x


def run_episode(params: PolicyParams, cfg: TrainConfig,
                instance: tuple[GeoPoint, GeoPoint], field: WeatherField,
                rng: np.random.Generator) -> EpisodeRecord:
    """Roll out n-1 stochastic steps; destination is not forced.

    The one-episode case of run_episodes, with its noise drawn from rng.
    """
    noise = rng.standard_normal((1, cfg.n_waypoints - 1, ACTION_DIM))
    rec = run_episodes(params, cfg, [instance], noise, field)
    return EpisodeRecord(rec.features[0], rec.pre_squash[0], rec.actions[0],
                         rec.log_probs[0], rec.rewards[0],
                         rec.value_estimates[0], float(rec.final_dist_m[0]))


def run_episodes(params: PolicyParams, cfg: TrainConfig,
                 instances: list[tuple[GeoPoint, GeoPoint]],
                 noise: np.ndarray, field: WeatherField) -> EpisodeRecord:
    """Roll out one episode per instance, all B of them in lockstep.

    noise[b, k] is the standard-normal draw of episode b at step k, shape
    (B, n-1, 2). Each step makes one forward pass, one tanh and one
    log-density call for the whole batch; the guide step, displacements
    and flight stay per episode and scalar. Returns one record with a
    leading episode axis.
    """
    n = cfg.n_waypoints
    B, T = noise.shape[0], n - 1
    gcfg = GuideConfig(n=n, guide_kind="policy")
    dests = [d for _o, d in instances]
    phis = [trip_rotation(o, d) for o, d in instances]
    trip_lens = [great_circle_distance(o, d) for o, d in instances]

    features = np.empty((B, T, FEATURE_DIM))
    pre_squash = np.empty((B, T, ACTION_DIM))
    actions = np.empty((B, T, ACTION_DIM))
    log_probs = np.empty((B, T))
    rewards = np.empty((B, T))
    values = np.empty((B, T))

    xs = [o for o, _d in instances]
    masses = [cfg.aircraft.ref_mass_kg] * B
    std = np.exp(params.log_std)
    for k in range(T):
        # One displacement per episode serves the features and the reward.
        disps = [displacement_to(x, d) for x, d in zip(xs, dests)]
        features[:, k] = [feature_row(x, disp, phi, field, trip_len, gcfg)
                          for x, disp, phi, trip_len
                          in zip(xs, disps, phis, trip_lens)]
        mean, value = forward(params, features[:, k])
        z = mean + std * noise[:, k]
        action = np.tanh(z)
        pre_squash[:, k] = z
        actions[:, k] = action
        log_probs[:, k] = _log_prob_of(params, mean, z)
        values[:, k] = value
        for b in range(B):
            x = xs[b]
            nxt = _safe_step(x, action[b], phis[b], trip_lens[b] / n)
            v_k = progress_value(local_displacement(x, nxt), disps[b],
                                 cfg.lambda_v, cfg.signed_progress)
            seg = fly_segment(cfg.aircraft, AircraftState(x, masses[b]), nxt,
                              field, cfg.substeps)
            masses[b] = seg.end_state.mass_kg
            rewards[b, k] = step_reward(v_k, seg.fuel_kg, cfg.reward_exponent)
            xs[b] = nxt

    final_dist = np.array([great_circle_distance(x, d)
                           for x, d in zip(xs, dests)])
    if cfg.extra_end_reward:
        for b in range(B):
            step_scale = trip_lens[b] / n
            rewards[b, -1] += end_reward(final_dist[b] / step_scale,
                                         cfg.end_threshold, cfg.rho1, cfg.rho2)
    return EpisodeRecord(features, pre_squash, actions, log_probs, rewards,
                         values, final_dist)


def compute_gae(rewards: np.ndarray, values: np.ndarray, discount: float,
                gae_lambda: float) -> tuple[np.ndarray, np.ndarray]:
    """(advantages, returns) of fixed-length terminal episodes.

    Steps run along the last axis, so rewards may be one episode (T,) or a
    lockstep batch (B, T); each episode gets the same arithmetic either way.
    """
    T = rewards.shape[-1]
    adv = np.empty_like(rewards)
    last = 0.0
    for t in range(T - 1, -1, -1):
        next_v = values[..., t + 1] if t + 1 < T else 0.0
        delta = rewards[..., t] + discount * next_v - values[..., t]
        last = delta + discount * gae_lambda * last
        adv[..., t] = last
    return adv, adv + values


class AdamOptimizer:
    """Plain Adam over the flat parameter vector of a PolicyParams.

    One step is a handful of whole-vector operations, and each element is
    updated exactly as a per-array Adam would update it.
    """

    def __init__(self, params: PolicyParams, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)

    def apply(self, params: PolicyParams, grad: np.ndarray) -> None:
        """Step params.flat in place along grad, a vector shaped like it."""
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        params.flat -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def policy_value_losses(params: PolicyParams, features: np.ndarray,
                        pre_squash: np.ndarray, old_log_probs: np.ndarray,
                        advantages: np.ndarray, returns: np.ndarray,
                        clip_range: float):
    """Clipped surrogate + value losses and diagnostics (no gradients)."""
    pl, vl, _grad, cf, kl = _loss_grads(params, features, pre_squash,
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

    # The gradient has the flat layout of the parameters; g's arrays are
    # views into it.
    g = PolicyParams(params.hidden, np.empty_like(params.flat))
    g_h2 = g_mean @ params.w_mean + g_value[:, None] * params.w_val
    g.w_mean[:] = g_mean.T @ h2
    g.b_mean[:] = g_mean.sum(axis=0)
    g.log_std[:] = g_log_std
    g.w_val[:] = (g_value[:, None] * h2).sum(axis=0)[None, :]
    g.b_val[:] = g_value.sum()
    g_a2 = g_h2 * (1.0 - h2 ** 2)
    g.w2[:] = g_a2.T @ h1
    g.b2[:] = g_a2.sum(axis=0)
    g_h1 = g_a2 @ params.w2
    g_a1 = g_h1 * (1.0 - h1 ** 2)
    g.w1[:] = g_a1.T @ f
    g.b1[:] = g_a1.sum(axis=0)

    clip_fraction = float(np.mean(np.abs(ratio - 1.0) > clip_range))
    approx_kl = float(np.mean(old_logp - new_logp))
    return policy_loss, value_loss, g.flat, clip_fraction, approx_kl


def ppo_update(params: PolicyParams, batch: list[EpisodeRecord],
               cfg: TrainConfig, rng: np.random.Generator,
               optimizer: AdamOptimizer | None = None
               ) -> tuple[PolicyParams, dict]:
    """One PPO update over a batch of episodes; returns new params + stats.

    Each record of batch holds one episode or a lockstep batch of them.
    Non-finite gradients abort the update and leave params unchanged.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    feats = np.concatenate([e.features.reshape(-1, FEATURE_DIM) for e in batch])
    zs = np.concatenate([e.pre_squash.reshape(-1, ACTION_DIM) for e in batch])
    old_logp = np.concatenate([e.log_probs.ravel() for e in batch])
    gae = [compute_gae(e.rewards, e.value_estimates, cfg.discount,
                       cfg.gae_lambda) for e in batch]
    adv = np.concatenate([a.ravel() for a, _r in gae])
    ret = np.concatenate([r.ravel() for _a, r in gae])
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
            pl, vl, grad, cf, kl = _loss_grads(
                new_params, feats[idx], zs[idx], old_logp[idx], adv[idx],
                ret[idx], cfg.clip_range, cfg.vf_coef)
            if not np.all(np.isfinite(grad)):
                raise NonFiniteGradient("non-finite gradient; update aborted")
            opt.apply(new_params, grad)
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
    """Per-update CSV rows plus per-episode series for trend analysis.

    rollout_s and update_s are the wall seconds spent sampling and rolling
    out episodes and in PPO updates. They stay out of rows, which are a
    deterministic function of the config.
    """

    rows: list[dict]
    episode_rewards: list[float]
    episode_final_dist: list[float]
    rollout_s: float = 0.0
    update_s: float = 0.0


def train(cfg: TrainConfig, progress_sink=None,
          checkpoint_path: str | None = None
          ) -> tuple[PolicyParams, TrainingLog]:
    """Sample -> rollout -> update until the instance budget is spent.

    Deterministic per cfg.seed. Every episode flies in one zero-wind ISA
    field covering the whole globe, since rollouts of an untrained policy
    can drift far outside the sample box. progress_sink receives one
    formatted line per update, ending in the update's episodes/s.

    The RNG is drawn in this order: the initial weights (init_params); then
    per update, for each episode in turn, its instance (sample_instance)
    and its (n-1, 2) action noise in one standard_normal call; then the
    minibatch permutations of ppo_update. This is the stream of a loop that
    samples an instance and runs run_episode, episode by episode.
    """
    field = make_uniform(0.0, 0.0, ISA_TEMPERATURE_K,
                         (-90.0, 90.0, -180.0, 180.0))
    rng = np.random.default_rng(cfg.seed)
    params = init_params(rng, cfg.hidden, cfg.log_std_init)
    optimizer = AdamOptimizer(params, cfg.learning_rate)
    steps = cfg.n_waypoints - 1

    log = TrainingLog([], [], [])
    episodes_done = 0
    update_index = 0
    while episodes_done < cfg.instances:
        t0 = time.perf_counter()
        batch_n = min(cfg.rollout_episodes, cfg.instances - episodes_done)
        instances = []
        noise = np.empty((batch_n, steps, ACTION_DIM))
        for b in range(batch_n):
            instances.append(sample_instance(cfg, rng))
            noise[b] = rng.standard_normal((steps, ACTION_DIM))
        batch = run_episodes(params, cfg, instances, noise, field)
        episode_rewards = [float(np.sum(r)) for r in batch.rewards]
        log.episode_rewards += episode_rewards
        log.episode_final_dist += batch.final_dist_m.tolist()
        t1 = time.perf_counter()
        params, stats = ppo_update(params, [batch], cfg, rng, optimizer)
        t2 = time.perf_counter()
        log.rollout_s += t1 - t0
        log.update_s += t2 - t1
        episodes_done += batch_n
        update_index += 1

        row = {
            "update_index": update_index,
            "mean_reward": float(np.mean(episode_rewards)),
            "mean_final_dist": float(np.mean(batch.final_dist_m)),
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
                f"kl {row['approx_kl']:.2e} "
                f"{batch_n / (t2 - t0):.1f} episodes/s")
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
