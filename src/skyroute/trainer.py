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
  call per step. Its record, shaped (B, T, ...), is the one input form
  of ppo_update; run_episode is its B = 1 case.
- Each episode steps on the policy's one data path in guide, which
  guide.roll_out follows at plan time: guide.trip_frame once per
  episode, then per step geo.displacement, guide.extract_features, the
  batch's guide.forward and the step rule guide.safe_step. Its position
  is a (lat, lon) pair of floats; progress_value_at and perfmodel.fly_leg
  score the step. One haversine per step is shared by the movement's
  displacement and its flight, and one carries the distance to the
  destination into the next step. A GeoPoint is built only for an
  accepted trip, and no object form of a formula runs in an episode
  (fly_segment and great_circle_distance stay for the tracer and the
  plan path).
- The weights are one flat vector (PolicyParams.flat), so the gradient
  is one vector, checked for finite values once per minibatch, and Adam
  updates its moments and the weights in place, through two work
  vectors it makes once.
- A PPO update computes once what no weight changes: each sample's
  squash term of the log density, and the gradient buffer that every
  minibatch writes into.
- In a minibatch, an Adam step and a rollout step, each array operation
  is one ufunc or matmul call, most of them writing into a buffer an
  earlier one made (out=, in-place operators), and a rollout step takes
  its log density from its own exp(log_std) and tanh(z). Every element
  goes through the operations of the textbook expressions in their
  order, so no bit moves.

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

from .errors import (ConfigError, DegenerateDistance, NonFiniteGradient,
                     SamplingExhausted)
from .files import replacing
# fly_segment and great_circle_distance are not called here: perfbench's
# tracer wraps the names.
from .geo import (GeoPoint, displacement, great_circle_distance, haversine,
                  normalize_lon)
from .guide import (ACTION_DIM, FEATURE_DIM, GuideConfig, PolicyParams,
                    extract_features, forward, init_params, safe_step,
                    save_checkpoint, trip_frame)
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
    """Per-step tensors of a lockstep rollout of B episodes, T = n-1 steps
    each; a one-episode rollout has B = 1."""

    features: np.ndarray      # (B, T, 5)
    pre_squash: np.ndarray    # (B, T, 2) Gaussian samples before tanh
    actions: np.ndarray       # (B, T, 2)
    log_probs: np.ndarray     # (B, T)
    rewards: np.ndarray       # (B, T)
    value_estimates: np.ndarray  # (B, T)
    final_dist_m: np.ndarray  # (B,)


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


def _log_density(log_std: np.ndarray, std: np.ndarray, dz: np.ndarray,
                 squash: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log density of tanh-squashed Gaussian actions, summed over the last
    (action) axis, from std = exp(log_std), dz = z - mean and squash =
    _squash(tanh(z)), which the rollout and _loss_grads have at hand; and
    (dz / std)^2, which the gradient reuses."""
    dz2 = np.divide(dz, std)
    np.square(dz2, out=dz2)
    gauss = np.multiply(dz2, -0.5)
    gauss -= log_std
    gauss -= 0.5 * _LOG2PI
    logp = np.add.reduce(gauss, axis=-1)
    logp -= squash
    return logp, dz2


def _squash(action: np.ndarray) -> np.ndarray:
    """The tanh term of the log density, from the squashed action
    tanh(z): the sum of log(1 - action^2 + eps) over the last axis."""
    term = np.square(action)
    np.subtract(1.0, term, out=term)
    term += _TANH_EPS
    np.log(term, out=term)
    return np.add.reduce(term, axis=-1)


def run_episode(params: PolicyParams, cfg: TrainConfig,
                instance: tuple[GeoPoint, GeoPoint], field: WeatherField,
                rng: np.random.Generator) -> EpisodeRecord:
    """Roll out n-1 stochastic steps; destination is not forced.

    run_episodes' B = 1 record, with its noise drawn from rng.
    """
    noise = rng.standard_normal((1, cfg.n_waypoints - 1, ACTION_DIM))
    return run_episodes(params, cfg, [instance], noise, field)


def run_episodes(params: PolicyParams, cfg: TrainConfig,
                 instances: list[tuple[GeoPoint, GeoPoint]],
                 noise: np.ndarray, field: WeatherField) -> EpisodeRecord:
    """Roll out one episode per instance, all B of them in lockstep.

    noise[b, k] is the standard-normal draw of episode b at step k, shape
    (B, n-1, 2). Each step makes one forward pass, one tanh and one
    log-density call for the whole batch. Each episode's step runs on
    plain floats: its position is a (lat, lon) pair. Returns one record
    with a leading episode axis.

    An empty instance list, or noise of another shape, raises ValueError.
    """
    n = cfg.n_waypoints
    B, T = len(instances), n - 1
    if B == 0:
        raise ValueError(f"instances must hold at least one trip, got 0 "
                         f"with noise shaped {noise.shape}")
    if noise.shape != (B, T, ACTION_DIM):
        raise ValueError(f"noise must have shape {(B, T, ACTION_DIM)} for "
                         f"{B} instances and n_waypoints {n}, got "
                         f"{noise.shape}")
    spec, signed = cfg.aircraft, cfg.signed_progress
    xs = [(o.lat_deg, o.lon_deg) for o, _d in instances]
    dests = [(d.lat_deg, d.lon_deg) for _o, d in instances]
    # A list: a generator unpacked here made train()'s peak RSS creep.
    frames = [trip_frame(x, d, n) for x, d in zip(xs, dests)]
    rot, rot_inv, trip_lens, step_scales = zip(*frames)

    features = np.empty((B, T, FEATURE_DIM))
    pre_squash = np.empty((B, T, ACTION_DIM))
    actions = np.empty((B, T, ACTION_DIM))
    log_probs = np.empty((B, T))
    rewards = np.empty((B, T))
    values = np.empty((B, T))

    masses = [spec.ref_mass_kg] * B
    to_dest = list(trip_lens)   # haversine(x, destination) per episode
    std = np.exp(params.log_std)
    for k in range(T):
        # One displacement per episode serves the features and the reward.
        disps = [displacement(*x, *d, dist)
                 for x, d, dist in zip(xs, dests, to_dest)]
        features[:, k] = [extract_features(*x, *disp, *cs, field, trip_len)
                          for x, disp, cs, trip_len
                          in zip(xs, disps, rot, trip_lens)]
        mean, value = forward(params, features[:, k])
        z = std * noise[:, k]
        z += mean
        action = np.tanh(z)
        pre_squash[:, k] = z
        actions[:, k] = action
        # The rollout's std is exp(log_std), and the step's action tanh(z).
        log_probs[:, k] = _log_density(params.log_std, std, z - mean,
                                       _squash(action))[0]
        values[:, k] = value
        for b, act in enumerate(action.tolist()):
            x = xs[b]
            nxt = safe_step(*x, *act, *rot_inv[b], step_scales[b])
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

    One step is a handful of whole-vector operations, each writing into
    the moments or one of two work vectors made once, and each element is
    updated exactly as a per-array Adam would update it.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: PolicyParams, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self._step = np.empty_like(params.flat)
        self._denom = np.empty_like(params.flat)

    def apply(self, params: PolicyParams, grad: np.ndarray) -> None:
        """Step params.flat in place along grad, a vector shaped like it."""
        self.t += 1
        m, v, step, denom = self.m, self.v, self._step, self._denom
        m *= self.beta1
        m += np.multiply(grad, 1 - self.beta1, out=step)
        v *= self.beta2
        np.multiply(grad, 1 - self.beta2, out=step)
        step *= grad
        v += step
        # lr * m_hat / (sqrt(v_hat) + eps), each operation as written.
        np.divide(m, 1 - self.beta1 ** self.t, out=step)
        step *= self.lr
        np.divide(v, 1 - self.beta2 ** self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        params.flat -= step


def _through_tanh(g_h: np.ndarray, h: np.ndarray,
                  work: np.ndarray) -> np.ndarray:
    """g_h * (1 - h^2), the gradient at the input of a tanh whose output
    is h, formed in g_h; work is a buffer shaped like h."""
    np.square(h, out=work)
    np.subtract(1.0, work, out=work)
    g_h *= work
    return g_h


def _loss_grads(params: PolicyParams, f: np.ndarray, z: np.ndarray,
                squash: np.ndarray, old_logp: np.ndarray, adv: np.ndarray,
                ret: np.ndarray, clip_range: float, g: PolicyParams):
    """Forward + manual backprop of the combined PPO loss on one minibatch.

    squash is _squash(tanh(z)), which no weight changes. The gradient is
    written into g, every element of it, and g's flat vector is returned.
    """
    M = f.shape[0]
    h1 = f @ params.w1.T
    h1 += params.b1
    np.tanh(h1, out=h1)
    h2 = h1 @ params.w2.T
    h2 += params.b2
    np.tanh(h2, out=h2)
    dz = h2 @ params.w_mean.T           # the action mean, then z - mean
    dz += params.b_mean
    np.subtract(z, dz, out=dz)
    err = (h2 @ params.w_val.T)[:, 0]   # the value, then value - ret
    err += params.b_val
    err -= ret
    std = np.exp(params.log_std)
    new_logp, dz2 = _log_density(params.log_std, std, dz, squash)
    ratio = np.subtract(new_logp, old_logp)
    np.exp(ratio, out=ratio)
    surr1 = np.multiply(ratio, adv)
    surr2 = np.maximum(ratio, 1.0 - clip_range)
    np.minimum(surr2, 1.0 + clip_range, out=surr2)
    surr2 *= adv
    unclipped = np.less_equal(surr1, surr2)
    # x.sum() / M is the arithmetic of np.mean(x).
    policy_loss = -float(
        np.add.reduce(np.minimum(surr1, surr2, out=surr2)) / M)
    value_loss = float(np.add.reduce(np.square(err)) / M)

    # d(policy loss)/d(new_logp) is -adv * ratio = -surr1 where the
    # unclipped branch is active, else 0.
    g_logp = np.zeros(M)
    np.negative(surr1, out=g_logp, where=unclipped)
    g_logp /= M
    g_mean = np.multiply(dz, g_logp[:, None], out=dz)
    g_mean /= np.square(std)
    dz2 -= 1.0
    dz2 *= g_logp[:, None]
    g_value = np.multiply(err, VF_COEF * 2.0, out=err)
    g_value /= M

    # g's arrays are views into its flat vector.
    g_h2 = g_mean @ params.w_mean
    work = np.multiply(g_value[:, None], params.w_val)
    g_h2 += work
    np.matmul(g_mean.T, h2, out=g.w_mean)
    np.add.reduce(g_mean, axis=0, out=g.b_mean)
    np.add.reduce(dz2, axis=0, out=g.log_std)
    np.multiply(h2, g_value[:, None], out=work)
    np.add.reduce(work, axis=0, out=g.w_val[0])
    np.add.reduce(g_value, axis=0, keepdims=True, out=g.b_val)
    g_a2 = _through_tanh(g_h2, h2, work)
    np.matmul(g_a2.T, h1, out=g.w2)
    np.add.reduce(g_a2, axis=0, out=g.b2)
    g_a1 = _through_tanh(g_a2 @ params.w2, h1, work)
    np.matmul(g_a1.T, f, out=g.w1)
    np.add.reduce(g_a1, axis=0, out=g.b1)

    np.subtract(ratio, 1.0, out=ratio)
    np.abs(ratio, out=ratio)
    clip_fraction = float(np.count_nonzero(ratio > clip_range) / M)
    approx_kl = float(
        np.add.reduce(np.subtract(old_logp, new_logp, out=new_logp)) / M)
    return policy_loss, value_loss, g.flat, clip_fraction, approx_kl


def ppo_update(params: PolicyParams, batch: EpisodeRecord,
               rng: np.random.Generator, opt: AdamOptimizer
               ) -> tuple[PolicyParams, dict]:
    """One PPO update over a lockstep batch of episodes, stepped by opt;
    returns new params + stats.

    A non-finite gradient aborts the update with NonFiniteGradient: params
    is left unchanged, but opt's moments stay as the last finite minibatch
    left them.
    """
    if batch.rewards.shape[0] == 0:
        raise ValueError("batch must hold at least one episode")
    feats = batch.features.reshape(-1, FEATURE_DIM)
    zs = batch.pre_squash.reshape(-1, ACTION_DIM)
    old_logp = batch.log_probs.ravel()
    adv, ret = (a.ravel() for a in compute_gae(
        batch.rewards, batch.value_estimates, DISCOUNT, GAE_LAMBDA))
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    squash = _squash(np.tanh(zs))

    new_params = params.copy()
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
            if not np.logical_and.reduce(np.isfinite(g)):
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
        episode_rewards = np.add.reduce(batch.rewards, axis=1).tolist()
        log.episode_rewards += episode_rewards
        log.episode_final_dist += batch.final_dist_m.tolist()
        t1 = time.perf_counter()
        params, stats = ppo_update(params, batch, rng, optimizer)
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
