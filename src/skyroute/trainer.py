"""PPO-clip training of the guide policy on randomly sampled trips.

Episodes are fixed-length (n-1 stochastic steps), rewarded by a shaped
combination of movement alignment and fuel burn, plus a terminal
bonus/penalty on the final distance to the destination. Updates use
generalized advantage estimation and the clipped surrogate objective,
optimized with Adam on a hand-rolled backprop of the shared-trunk
network, at the paper's fixed hyperparameters (the constants below).

The numpy work runs once per step and once per minibatch, not once per
episode and once per weight array, because numpy's fixed cost per call
dominates arrays this small:

- All episodes of an update advance in lockstep (run_episodes): one
  (B, 5) feature array, one forward pass, one tanh and one log-density
  call per step. run_episode is its one-episode case.
- Each episode's step runs on plain floats: its position is a (lat, lon)
  pair, and the step calls the one function of each formula
  (geo.trip_rotation, geo.displacement, guide.extract_features,
  guide.step_at, progress_value_at, perfmodel.fly_leg); guide.roll_out
  calls the first four at plan time. Cos and sin of the trip's rotation
  are taken once per episode, one haversine per step is shared by the
  movement's displacement and its flight, and one carries the distance
  to the destination into the next step. A GeoPoint is built only for
  an accepted trip, and no object form of a formula runs in an episode
  (fly_segment and great_circle_distance stay for the tracer and the
  plan path). On a 2-vCPU Xeon (best of 15 rounds of 50),
  run_episodes at B = 16, n = 5 takes 1.4 ms where the same steps on
  GeoPoint objects took 2.0 ms; fly_leg costs 5.7 us where fly_segment
  costs 8.5 us.
- The weights are one flat vector (PolicyParams.flat), so the gradient
  is one vector, checked for finite values once per minibatch, and Adam
  updates its moments and the weights in place.
- A PPO update computes once what no weight changes: each sample's
  squash term of the log density, and the gradient buffer that every
  minibatch writes into.

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
from .files import replacing
# fly_segment and great_circle_distance are not called here: perfbench's
# tracer wraps the names.
from .geo import (GeoPoint, displacement, great_circle_distance, haversine,
                  normalize_lon, trip_rotation)
from .guide import (ACTION_DIM, FEATURE_DIM, GuideConfig, PolicyParams,
                    extract_features, forward, init_params, save_checkpoint,
                    step_at)
from .perfmodel import AircraftSpec, default_spec, fly_leg, fly_segment
from .weather import WeatherField, make_uniform, ISA_TEMPERATURE_K

LOG_COLUMNS = ["update_index", "mean_reward", "mean_final_dist",
               "actor_loss", "critic_loss", "clip_fraction", "approx_kl"]

_LOG2PI = math.log(2.0 * math.pi)
_TANH_EPS = 1e-6

# The paper's hyperparameter table. Every training run uses these values.
CLIP_RANGE = 0.2            # epsilon of the clipped surrogate
LEARNING_RATE = 5e-6        # Adam step size
VF_COEF = 0.5               # weight of the value loss in the combined loss
REWARD_EXPONENT = 2.0       # gamma of step_reward
LAMBDA_V = 0.01             # regularizer of progress_value_at
END_THRESHOLD = 0.5         # end_reward's success radius, in step-scale units
RHO1, RHO2 = 5.0, 2.0       # end_reward's penalty and bonus weights
DISCOUNT = 0.99
GAE_LAMBDA = 0.95
EPOCHS_PER_UPDATE = 10
MINIBATCH_SIZE = 64
# Where trips are sampled, and how each episode step is flown.
SAMPLE_BBOX = (34.0, 71.0, -10.0, 35.0)   # lat_min, lat_max, lon_min, lon_max
MIN_TRIP_M = 500_000.0      # shortest sampled trip
SUBSTEPS = 1                # fly_segment substeps per episode step
CHECKPOINT_EVERY = 25       # updates between checkpoint writes


@dataclass
class TrainConfig:
    """What one training run may set; the hyperparameters are constants."""

    seed: int = 0
    instances: int = 16_000
    n_waypoints: int = 5
    hidden: int = 64
    rollout_episodes: int = 16
    signed_progress: bool = False
    aircraft: AircraftSpec = dc_field(default_factory=default_spec)

    def __post_init__(self):
        types = {"int": (int,), "bool": (bool,)}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in types and type(value) not in types[f.type]:
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.n_waypoints < 2:
            raise ConfigError("n_waypoints must be >= 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        for name in ("rollout_episodes", "hidden", "instances"):
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


def sample_instance(rng: np.random.Generator) -> tuple[GeoPoint, GeoPoint]:
    """Uniform origin/destination pair in SAMPLE_BBOX, MIN_TRIP_M apart."""
    lat_min, lat_max, lon_min, lon_max = SAMPLE_BBOX
    for _ in range(1000):
        lat_a, lat_b = rng.uniform(lat_min, lat_max, size=2).tolist()
        lon_a, lon_b = rng.uniform(lon_min, lon_max, size=2).tolist()
        # The longitudes a GeoPoint keeps; only the accepted trip builds any.
        lon_a, lon_b = normalize_lon(lon_a), normalize_lon(lon_b)
        if haversine(lat_a, lon_a, lat_b, lon_b) >= MIN_TRIP_M:
            return GeoPoint(lat_a, lon_a), GeoPoint(lat_b, lon_b)
    raise SamplingExhausted("1,000 rejections while sampling a trip")


def progress_value_at(dx_east: float, dx_north: float, d_east: float,
                      d_north: float, lambda_v: float,
                      signed: bool = False) -> float:
    """Alignment of a movement (dx_east, dx_north) with the distance
    vector (d_east, d_north) to the destination.

    Norm of the projection of the movement onto the distance vector over
    the norm of the movement, minus the regularizer; this is
    |cos theta| - lambda (or signed cos theta with signed=True). A zero
    movement returns -lambda by convention.
    """
    d_norm = math.hypot(d_east, d_north)
    if d_norm == 0.0:
        raise DegenerateDistance("distance vector has zero norm")
    dx_norm = math.hypot(dx_east, dx_north)
    if dx_norm == 0.0:
        return -lambda_v
    cos = (dx_east * d_east + dx_north * d_north) / (dx_norm * d_norm)
    return (cos if signed else abs(cos)) - lambda_v


def step_reward(v_k: float, fuel_kg: float, gamma_r: float) -> float:
    """-(1 - V_k)^gamma * F_k; never positive for non-negative fuel."""
    return -((1.0 - v_k) ** gamma_r) * fuel_kg


def end_reward(final_dist_normalized: float, threshold: float,
               rho1: float, rho2: float) -> float:
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
    return np.sum(gauss, axis=-1) - _squash(z)


def _squash(z: np.ndarray) -> np.ndarray:
    """The tanh term of _log_prob_of, which depends on z alone."""
    return np.sum(np.log(1.0 - np.tanh(z) ** 2 + _TANH_EPS), axis=-1)


def _safe_step(lat, lon, act_east, act_north, c, s, step_scale):
    """`guide.step_at` with a retry that halves the action if the step
    would pass a pole (possible for extreme northward rollouts)."""
    for _ in range(8):
        try:
            return step_at(lat, lon, act_east, act_north, c, s, step_scale)
        except DistanceOutOfRange:
            act_east, act_north = act_east * 0.5, act_north * 0.5
    return lat, lon


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
    log-density call for the whole batch. Each episode's step runs on
    plain floats: its position is a (lat, lon) pair. Returns one record
    with a leading episode axis.
    """
    n = cfg.n_waypoints
    B, T = noise.shape[0], n - 1
    spec, signed = cfg.aircraft, cfg.signed_progress
    xs = [(o.lat_deg, o.lon_deg) for o, _d in instances]
    dests = [(d.lat_deg, d.lon_deg) for _o, d in instances]
    phis = [trip_rotation(*x, *d) for x, d in zip(xs, dests)]
    # cos and sin of phi rotate the features; those of -phi, the actions.
    rot = [(math.cos(phi), math.sin(phi)) for phi in phis]
    rot_inv = [(math.cos(-phi), math.sin(-phi)) for phi in phis]
    trip_lens = [haversine(*x, *d) for x, d in zip(xs, dests)]
    step_scales = [trip_len / n for trip_len in trip_lens]

    features = np.empty((B, T, FEATURE_DIM))
    pre_squash = np.empty((B, T, ACTION_DIM))
    actions = np.empty((B, T, ACTION_DIM))
    log_probs = np.empty((B, T))
    rewards = np.empty((B, T))
    values = np.empty((B, T))

    masses = [spec.ref_mass_kg] * B
    to_dest = trip_lens[:]      # haversine(x, destination) per episode
    std = np.exp(params.log_std)
    for k in range(T):
        # One displacement per episode serves the features and the reward.
        disps = [displacement(*x, *d, dist)
                 for x, d, dist in zip(xs, dests, to_dest)]
        features[:, k] = [extract_features(*x, *disp, *cs, field, trip_len)
                          for x, disp, cs, trip_len
                          in zip(xs, disps, rot, trip_lens)]
        mean, value = forward(params, features[:, k])
        z = mean + std * noise[:, k]
        action = np.tanh(z)
        pre_squash[:, k] = z
        actions[:, k] = action
        log_probs[:, k] = _log_prob_of(params, mean, z)
        values[:, k] = value
        for b, act in enumerate(action.tolist()):
            x = xs[b]
            nxt = _safe_step(*x, *act, *rot_inv[b], step_scales[b])
            # One haversine serves the movement and its flight.
            moved = haversine(*x, *nxt)
            v_k = progress_value_at(*displacement(*x, *nxt, moved),
                                    *disps[b], LAMBDA_V, signed)
            fuel, _time, _floor = fly_leg(spec, *x, *nxt, moved, masses[b],
                                          field, SUBSTEPS)
            masses[b] -= fuel
            rewards[b, k] = step_reward(v_k, fuel, REWARD_EXPONENT)
            xs[b] = nxt
            to_dest[b] = haversine(*nxt, *dests[b])

    final_dist = np.array(to_dest)
    for b in range(B):
        rewards[b, -1] += end_reward(final_dist[b] / step_scales[b],
                                     END_THRESHOLD, RHO1, RHO2)
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

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: PolicyParams, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)

    def apply(self, params: PolicyParams, grad: np.ndarray) -> None:
        """Step params.flat in place along grad, a vector shaped like it."""
        self.t += 1
        m, v = self.m, self.v
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        # lr * m_hat / (sqrt(v_hat) + eps), each operation as written.
        m_hat = m / (1 - self.beta1 ** self.t)
        m_hat *= self.lr
        v_hat = v / (1 - self.beta2 ** self.t)
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        m_hat /= v_hat
        params.flat -= m_hat


def _loss_grads(params: PolicyParams, f: np.ndarray, z: np.ndarray,
                squash: np.ndarray, old_logp: np.ndarray, adv: np.ndarray,
                ret: np.ndarray, clip_range: float, g: PolicyParams):
    """Forward + manual backprop of the combined PPO loss on one minibatch.

    squash is _squash(z), which no weight changes. The gradient is written
    into g, whose flat vector is returned.
    """
    M = f.shape[0]
    a1 = f @ params.w1.T + params.b1
    h1 = np.tanh(a1)
    a2 = h1 @ params.w2.T + params.b2
    h2 = np.tanh(a2)
    mean = h2 @ params.w_mean.T + params.b_mean
    value = (h2 @ params.w_val.T + params.b_val)[:, 0]
    std = np.exp(params.log_std)
    # _log_prob_of's terms, keeping z - mean and its scaled square for the
    # gradient.
    dz = z - mean
    dz2 = (dz / std) ** 2
    new_logp = (np.sum(-0.5 * dz2 - params.log_std - 0.5 * _LOG2PI, axis=-1)
                - squash)
    ratio = np.exp(new_logp - old_logp)
    surr1 = ratio * adv
    surr2 = np.minimum(np.maximum(ratio, 1.0 - clip_range),
                       1.0 + clip_range) * adv
    use_unclipped = surr1 <= surr2
    # x.sum() / M is the arithmetic of np.mean(x).
    policy_loss = -float(np.minimum(surr1, surr2).sum() / M)
    value_loss = float(((value - ret) ** 2).sum() / M)

    # d(policy loss)/d(new_logp): only where the unclipped branch is active.
    g_logp = np.where(use_unclipped, -adv * ratio, 0.0) / M
    g_mean = g_logp[:, None] * dz / (std ** 2)
    g_log_std = np.sum(g_logp[:, None] * (dz2 - 1.0), axis=0)
    g_value = VF_COEF * 2.0 * (value - ret) / M

    # g's arrays are views into its flat vector.
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

    clip_fraction = float((np.abs(ratio - 1.0) > clip_range).sum() / M)
    approx_kl = float((old_logp - new_logp).sum() / M)
    return policy_loss, value_loss, g.flat, clip_fraction, approx_kl


def ppo_update(params: PolicyParams, batch: list[EpisodeRecord],
               rng: np.random.Generator,
               optimizer: AdamOptimizer | None = None
               ) -> tuple[PolicyParams, dict]:
    """One PPO update over a batch of episodes; returns new params + stats.

    Each record of batch holds one episode or a lockstep batch of them.
    Without an optimizer, a fresh Adam at LEARNING_RATE takes the steps.
    Non-finite gradients abort the update and leave params unchanged.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    feats = np.concatenate([e.features.reshape(-1, FEATURE_DIM) for e in batch])
    zs = np.concatenate([e.pre_squash.reshape(-1, ACTION_DIM) for e in batch])
    old_logp = np.concatenate([e.log_probs.ravel() for e in batch])
    gae = [compute_gae(e.rewards, e.value_estimates, DISCOUNT, GAE_LAMBDA)
           for e in batch]
    adv = np.concatenate([a.ravel() for a, _r in gae])
    ret = np.concatenate([r.ravel() for _a, r in gae])
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    squash = _squash(zs)

    new_params = params.copy()
    opt = optimizer if optimizer is not None else AdamOptimizer(
        new_params, LEARNING_RATE)
    grad = PolicyParams(params.hidden, np.empty_like(params.flat))

    n_samples = feats.shape[0]
    stats = {"actor_loss": 0.0, "critic_loss": 0.0,
             "clip_fraction": 0.0, "approx_kl": 0.0}
    n_mb = 0
    for _epoch in range(EPOCHS_PER_UPDATE):
        order = rng.permutation(n_samples)
        for lo in range(0, n_samples, MINIBATCH_SIZE):
            idx = order[lo:lo + MINIBATCH_SIZE]
            pl, vl, g, cf, kl = _loss_grads(
                new_params, feats[idx], zs[idx], squash[idx], old_logp[idx],
                adv[idx], ret[idx], CLIP_RANGE, grad)
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient("non-finite gradient; update aborted")
            opt.apply(new_params, g)
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
    params = init_params(rng, cfg.hidden)
    optimizer = AdamOptimizer(params, LEARNING_RATE)
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
            instances.append(sample_instance(rng))
            noise[b] = rng.standard_normal((steps, ACTION_DIM))
        batch = run_episodes(params, cfg, instances, noise, field)
        episode_rewards = [float(np.sum(r)) for r in batch.rewards]
        log.episode_rewards += episode_rewards
        log.episode_final_dist += batch.final_dist_m.tolist()
        t1 = time.perf_counter()
        params, stats = ppo_update(params, [batch], rng, optimizer)
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
        if checkpoint_path and update_index % CHECKPOINT_EVERY == 0:
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
    """CSV with the fixed schema in LOG_COLUMNS; `path` is replaced whole
    (files.replacing)."""
    with replacing(path) as f:
        writer = csv.DictWriter(f, fieldnames=LOG_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in LOG_COLUMNS})
