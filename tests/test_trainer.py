import copy
import math
import os
import re
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skyroute import trainer
from skyroute.errors import (ConfigError, DegenerateDistance,
                             DistanceOutOfRange, Infeasible,
                             NonFiniteGradient, SkyrouteError)
from skyroute.geo import (GeoPoint, displacement, great_circle_distance,
                          haversine, trip_rotation)
from skyroute.guide import (PolicyParams, extract_features, forward,
                            init_params, step_at)
from skyroute.perfmodel import AircraftSpec, default_spec, fly_leg
from skyroute.trainer import (LOG_COLUMNS, AdamOptimizer, TrainConfig,
                              _loss_grads, _squash, compute_gae, end_reward, ppo_update,
                              progress_value_at, run_episode, run_episodes,
                              sample_instance, step_reward, train,
                              write_training_log)
from skyroute.weather import ISA_TEMPERATURE_K, make_jet_stream, make_uniform


def grad_buffer(params):
    """A gradient for _loss_grads to write into."""
    return PolicyParams(params.hidden, np.empty_like(params.flat))


def lockstep_batch(params, cfg, rng, field, episodes):
    """run_episodes over `episodes` trips, drawn in train()'s order: each
    episode's instance, then its (n-1, 2) action noise."""
    instances, noise = [], []
    for _ in range(episodes):
        instances.append(sample_instance(rng))
        noise.append(rng.standard_normal((cfg.n_waypoints - 1, 2)))
    return run_episodes(params, cfg, instances, np.array(noise), field)


def small_cfg(**overrides):
    base = dict(seed=0, instances=4, rollout_episodes=2)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_match_documented_table(self):
        assert trainer.CLIP_RANGE == 0.2
        assert trainer.LEARNING_RATE == 5e-6
        assert trainer.REWARD_EXPONENT == 2.0
        assert (trainer.RHO1, trainer.RHO2) == (5.0, 2.0)
        assert trainer.LAMBDA_V == 0.01
        assert trainer.END_THRESHOLD == 0.5
        assert (trainer.DISCOUNT, trainer.GAE_LAMBDA) == (0.99, 0.95)
        assert trainer.EPOCHS_PER_UPDATE == 10
        assert trainer.MINIBATCH_SIZE == 64
        assert TrainConfig(seed=0).instances == 16_000
        assert trainer.SAMPLE_BBOX == (34.0, 71.0, -10.0, 35.0)
        assert trainer.MIN_TRIP_M == 500_000.0
        assert trainer.SUBSTEPS == 1
        assert trainer.CHECKPOINT_EVERY == 25

    def test_config_fields(self):
        assert [f.name for f in fields(TrainConfig)] == [
            "seed", "instances", "n_waypoints", "hidden", "rollout_episodes",
            "signed_progress", "aircraft"]

    @pytest.mark.parametrize("name, value", [
        ("clip_range", 0.2), ("learning_rate", 5e-6), ("reward_exponent", 2.0),
        ("extra_end_reward", True), ("rho1", 5.0), ("rho2", 2.0),
        ("lambda_v", 0.01), ("end_threshold", 0.5), ("discount", 0.99),
        ("gae_lambda", 0.95), ("epochs_per_update", 10),
        ("minibatch_size", 64), ("sample_bbox", [34.0, 71.0, -10.0, 35.0]),
        ("min_trip_m", 500_000.0), ("substeps", 1), ("checkpoint_every", 25)])
    def test_from_dict_rejects_a_table_constant(self, name, value):
        # The values are the constants themselves: no config may name one.
        with pytest.raises(ConfigError, match=name):
            TrainConfig.from_dict({"seed": 0, "instances": 4, name: value})

    def test_negative_seed_rejected(self):
        # numpy's generators take no negative seed.
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig.from_dict({"seed": -1, "instances": 4})

    def test_from_dict_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig.from_dict({"instances": 100})

    def test_from_dict_missing_instances(self):
        with pytest.raises(ConfigError, match="instances"):
            TrainConfig.from_dict({"seed": 1})

    def test_from_dict_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"seed": 1, "instances": 10, "warp": 9})

    @pytest.mark.parametrize("name", ["rollout_episodes", "hidden",
                                      "instances"])
    def test_counts_below_one_rejected(self, name):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(seed=0, **{name: 0})

    def test_from_dict_bad_aircraft_file(self, tmp_path):
        path = tmp_path / "ac.json"
        path.write_text('{"tas_ms": 230.0}')
        with pytest.raises(ConfigError, match="ac.json"):
            TrainConfig.from_dict({"seed": 1, "instances": 10,
                                   "aircraft_path": str(path)})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            TrainConfig.from_dict([1])


class TestRewards:
    def test_progress_aligned(self):
        v = progress_value_at(0, 1, 0, 10, 0.01)
        assert v == pytest.approx(1.0 - 0.01, abs=1e-12)

    def test_progress_perpendicular(self):
        v = progress_value_at(1, 0, 0, 10, 0.01)
        assert v == pytest.approx(-0.01, abs=1e-12)

    def test_progress_antiparallel_unsigned_vs_signed(self):
        dx, D = (0, -1), (0, 10)
        assert progress_value_at(*dx, *D, 0.01) == pytest.approx(0.99,
                                                                 abs=1e-12)
        assert progress_value_at(*dx, *D, 0.01, signed=True) == pytest.approx(
            -1.01, abs=1e-12)

    def test_progress_zero_movement(self):
        assert progress_value_at(0, 0, 0, 10, 0.01) == -0.01

    def test_progress_degenerate_distance(self):
        with pytest.raises(DegenerateDistance):
            progress_value_at(0, 1, 0, 0, 0.01)

    def test_step_reward_identities(self):
        assert step_reward(1.0, 5.0, 2.0) == 0.0
        assert step_reward(0.0, 5.0, 2.0) == -5.0
        assert step_reward(-1.0, 5.0, 2.0) == -20.0
        assert step_reward(0.5, 8.0, 2.0) == pytest.approx(-2.0, abs=1e-12)

    def test_end_reward_branches(self):
        assert end_reward(0.0, 0.5, 5.0, 2.0) == pytest.approx(2.0, abs=1e-12)
        # Boundary belongs to the success branch.
        assert end_reward(0.5, 0.5, 5.0, 2.0) == pytest.approx(1.0, abs=1e-12)
        assert end_reward(1.0, 0.5, 5.0, 2.0) == pytest.approx(-5.0, abs=1e-12)
        assert end_reward(0.6, 0.5, 5.0, 2.0) == pytest.approx(-3.0, abs=1e-12)


class TestSampleInstance:
    def test_within_bbox_and_min_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = sample_instance(rng)
            for p in (a, b):
                assert 34.0 <= p.lat_deg <= 71.0
                assert -10.0 <= p.lon_deg <= 35.0
            assert great_circle_distance(a, b) >= 500_000.0

    def test_deterministic_per_seed(self):
        a1 = sample_instance(np.random.default_rng(5))
        a2 = sample_instance(np.random.default_rng(5))
        assert a1[0].same_position(a2[0]) and a1[1].same_position(a2[1])


class TestComputeGae:
    def test_single_step(self):
        # T=1, terminal: advantage = r - V, return = r.
        adv, ret = compute_gae(np.array([3.0]), np.array([1.0]), 0.99, 0.95)
        assert adv[0] == pytest.approx(2.0)
        assert ret[0] == pytest.approx(3.0)

    def test_hand_computed_two_steps(self):
        r = np.array([1.0, 2.0])
        v = np.array([0.5, 0.25])
        g, lam = 0.9, 0.8
        d1 = r[1] - v[1]                       # terminal
        d0 = r[0] + g * v[1] - v[0]
        adv1 = d1
        adv0 = d0 + g * lam * adv1
        adv, ret = compute_gae(r, v, g, lam)
        assert adv[1] == pytest.approx(adv1)
        assert adv[0] == pytest.approx(adv0)
        assert np.allclose(ret, adv + v)

    def test_zero_values_give_discounted_sums(self):
        r = np.array([1.0, 1.0, 1.0])
        adv, ret = compute_gae(r, np.zeros(3), 0.5, 1.0)
        # With lambda = 1 and V = 0 the advantage is the discounted return.
        assert ret[0] == pytest.approx(1 + 0.5 + 0.25)
        assert ret[2] == pytest.approx(1.0)

    def test_batch_rows_equal_single_episodes(self):
        rng = np.random.default_rng(6)
        r, v = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        adv, ret = compute_gae(r, v, 0.99, 0.95)
        for b in range(5):
            a1, r1 = compute_gae(r[b], v[b], 0.99, 0.95)
            assert np.array_equal(adv[b], a1) and np.array_equal(ret[b], r1)


class TestRunEpisode:
    def test_shapes_and_finiteness(self):
        cfg = small_cfg()
        rng = np.random.default_rng(2)
        params = init_params(rng, cfg.hidden)
        field = make_uniform(0, 0, ISA_TEMPERATURE_K, (-90, 90, -180, 180))
        inst = sample_instance(rng)
        ep = run_episode(params, cfg, inst, field, rng)
        T = cfg.n_waypoints - 1
        assert ep.features.shape == (1, T, 5)
        assert ep.actions.shape == (1, T, 2)
        assert np.all(np.abs(ep.actions) <= 1.0)
        assert np.all(np.isfinite(ep.rewards))
        assert np.all(np.isfinite(ep.log_probs))
        assert ep.final_dist_m.shape == (1,) and ep.final_dist_m[0] >= 0.0

    def test_deterministic_per_rng_state(self):
        cfg = small_cfg()
        field = make_uniform(0, 0, ISA_TEMPERATURE_K, (-90, 90, -180, 180))
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(7)
            params = init_params(rng, cfg.hidden)
            inst = sample_instance(rng)
            outs.append(run_episode(params, cfg, inst, field, rng))
        assert np.array_equal(outs[0].rewards, outs[1].rewards)
        assert np.array_equal(outs[0].final_dist_m, outs[1].final_dist_m)

    def test_lockstep_matches_one_episode_rollouts(self):
        # Episode b of a lockstep batch, given its noise, is the episode
        # run_episode flies from a generator that draws that noise.
        cfg = small_cfg()
        field = make_uniform(0, 0, ISA_TEMPERATURE_K, (-90, 90, -180, 180))
        params = init_params(np.random.default_rng(4), cfg.hidden)
        rng = np.random.default_rng(5)
        instances = [sample_instance(rng) for _ in range(6)]
        seeds = range(100, 106)
        T = cfg.n_waypoints - 1
        noise = np.stack([np.random.default_rng(s).standard_normal((T, 2))
                          for s in seeds])
        batch = run_episodes(params, cfg, instances, noise, field)
        assert batch.rewards.shape == (6, T)
        for b, (inst, seed) in enumerate(zip(instances, seeds)):
            one = run_episode(params, cfg, inst, field,
                              np.random.default_rng(seed))
            for name in ("features", "pre_squash", "actions", "log_probs",
                         "rewards", "value_estimates", "final_dist_m"):
                assert np.array_equal(getattr(batch, name)[b],
                                      getattr(one, name)[0]), name

    def test_empty_instance_list_refused(self):
        cfg = small_cfg()
        params = init_params(np.random.default_rng(0), cfg.hidden)
        with pytest.raises(ValueError, match=r"at least one trip, got 0 "
                           r"with noise shaped \(0, 4, 2\)"):
            run_episodes(params, cfg, [], np.empty((0, 4, 2)), STILL_AIR)

    @pytest.mark.parametrize("shape", [(2, 4, 2), (1, 3, 2), (1, 4), (4, 2)])
    def test_noise_of_another_shape_refused(self, shape):
        cfg = small_cfg()
        rng = np.random.default_rng(0)
        params = init_params(rng, cfg.hidden)
        with pytest.raises(ValueError, match=re.escape(
                f"noise must have shape (1, 4, 2) for 1 instances and "
                f"n_waypoints 5, got {shape}")):
            run_episodes(params, cfg, [sample_instance(rng)],
                         rng.standard_normal(shape), STILL_AIR)


def log_prob_as_written(params, mean, z):
    """Log density of tanh-squashed Gaussian actions given the pre-squash
    z, as the textbook expression gives it, summed over the action axis."""
    std = np.exp(params.log_std)
    gauss = -0.5 * ((z - mean) / std) ** 2 - params.log_std \
        - 0.5 * math.log(2.0 * math.pi)
    squash = np.log(1.0 - np.tanh(z) ** 2 + trainer._TANH_EPS)
    return np.sum(gauss, axis=-1) - np.sum(squash, axis=-1)


def reference_safe_step(x, action, rot_inv, step_scale, halvings):
    """The pole retry from (lat, lon) x: guide.step_at, the action halved
    on each refusal. Appends the number of halvings to `halvings`."""
    east, north = action
    for k in range(8):
        try:
            nxt = step_at(*x, east, north, *rot_inv, step_scale)
            halvings.append(k)
            return nxt
        except DistanceOutOfRange:
            east, north = east * 0.5, north * 0.5
    halvings.append(8)
    return x


def reference_episode(params, cfg, instance, noise, field, halvings):
    """One episode stepped on its own, its position a (lat, lon) pair: each
    step computes its distances afresh from the positions, and makes one
    forward pass of one row. Returns the EpisodeRecord fields by name; an
    error gets the index of the step that raised it as `step`."""
    origin, dest = ((p.lat_deg, p.lon_deg) for p in instance)
    n = cfg.n_waypoints
    phi = trip_rotation(*origin, *dest)
    rot = math.cos(phi), math.sin(phi)
    rot_inv = math.cos(-phi), math.sin(-phi)
    trip_len = haversine(*origin, *dest)
    std = np.exp(params.log_std)
    x, mass = origin, cfg.aircraft.ref_mass_kg
    rows = []
    k = 0
    try:
        for k in range(n - 1):
            disp = displacement(*x, *dest, haversine(*x, *dest))
            f = np.array([extract_features(*x, *disp, *rot, field, trip_len)])
            mean, value = forward(params, f)
            z = mean + std * noise[k]
            action = np.tanh(z)
            nxt = reference_safe_step(x, action[0].tolist(), rot_inv,
                                      trip_len / n, halvings)
            v_k = progress_value_at(
                *displacement(*x, *nxt, haversine(*x, *nxt)), *disp,
                trainer.LAMBDA_V, cfg.signed_progress)
            fuel, _time, _floor = fly_leg(cfg.aircraft, *x, *nxt,
                                          haversine(*x, *nxt), mass, field,
                                          trainer.SUBSTEPS)
            mass -= fuel
            reward = step_reward(v_k, fuel, trainer.REWARD_EXPONENT)
            rows.append((f[0], z[0], action[0],
                         log_prob_as_written(params, mean, z)[0], reward,
                         value[0]))
            x = nxt
    except SkyrouteError as exc:
        exc.step = k        # the lockstep order of failures needs it
        raise
    final = haversine(*x, *dest)
    names = ("features", "pre_squash", "actions", "log_probs", "rewards",
             "value_estimates")
    record = {name: np.array(col) for name, col in zip(names, zip(*rows))}
    record["rewards"][-1] += end_reward(final / (trip_len / n),
                                        trainer.END_THRESHOLD, trainer.RHO1,
                                        trainer.RHO2)
    record["final_dist_m"] = np.array(final)
    return record


def assert_matches_reference(params, cfg, instances, noise, field):
    """run_episodes equals reference_episode bit for bit, on every field
    of every episode, or raises what the episode that fails first in
    lockstep order raises; returns the reference's halvings per step."""
    halvings, refs, failures = [], [], []
    for b, instance in enumerate(instances):
        try:
            refs.append(reference_episode(params, cfg, instance, noise[b],
                                          field, halvings))
        except SkyrouteError as exc:
            failures.append((exc.step, b, exc))
    if failures:
        expected = min(failures, key=lambda f: f[:2])[2]
        with pytest.raises(type(expected)) as got:
            run_episodes(params, cfg, instances, noise, field)
        assert str(got.value) == str(expected)
        return halvings
    batch = run_episodes(params, cfg, instances, noise, field)
    for b, ref in enumerate(refs):
        for name, expected in ref.items():
            got = np.asarray(getattr(batch, name)[b])
            assert got.tobytes() == expected.tobytes(), (b, name)
    return halvings


def trip_points(lat_lo, lat_hi, lon_lo=-180.0, lon_hi=180.0):
    return st.builds(GeoPoint, st.floats(lat_lo, lat_hi),
                     st.floats(lon_lo, lon_hi))


def trips(origins, destinations):
    return st.tuples(origins, destinations).filter(
        lambda t: great_circle_distance(*t) > 1_000.0)


GLOBE = (-90.0, 90.0, -180.0, 180.0)
STILL_AIR = make_uniform(0.0, 0.0, ISA_TEMPERATURE_K, GLOBE)
# A global jet, so the wind features read non-zero along any rollout.
JET = make_jet_stream(GLOBE, core_lat=55.0, core_speed=90.0, half_width=10.0,
                      seed=4)
SAMPLED_TRIPS = trips(trip_points(*trainer.SAMPLE_BBOX),
                      trip_points(*trainer.SAMPLE_BBOX))
# Steps from near 85 N pass the pole for some actions, so the retry halves.
POLAR_TRIPS = trips(trip_points(83.0, 89.9), trip_points(78.0, 89.9))
# Beyond 6,000 km the displacement follows the initial bearing. Some of
# these trips run out of fuel (Infeasible).
LONG_TRIPS = st.builds(
    lambda a, lat, dlon: (a, GeoPoint(lat, a.lon_deg + dlon)),
    trip_points(-30.0, 30.0), st.floats(-30.0, 30.0),
    st.floats(55.0, 75.0)).filter(
        lambda t: great_circle_distance(*t) > 6_100_000.0)


class TestReferenceRollout:
    @given(st.lists(st.one_of(SAMPLED_TRIPS, POLAR_TRIPS, LONG_TRIPS),
                    min_size=1, max_size=3),
           st.sampled_from([2, 5, 9]), st.booleans(),
           st.sampled_from([STILL_AIR, JET]), st.integers(0, 2**32 - 1),
           st.sampled_from([1.0, 4.0]))
    @settings(max_examples=120, deadline=None)
    def test_run_episodes_is_the_object_rollout(self, instances, n, signed,
                                                field, seed, noise_scale):
        cfg = TrainConfig(seed=0, instances=1, n_waypoints=n, hidden=8,
                          signed_progress=signed)
        rng = np.random.default_rng(seed)
        params = init_params(rng, cfg.hidden)
        noise = noise_scale * rng.standard_normal((len(instances), n - 1, 2))
        assert_matches_reference(params, cfg, instances, noise, field)

    @pytest.mark.parametrize("field", [STILL_AIR, JET], ids=["still", "jet"])
    def test_run_episodes_is_the_object_rollout_past_a_pole(self, field):
        # 500 km due south from 89.5 N at n = 2: a step of 250 km north
        # reaches 91.75 N, so the retry halves it three times.
        cfg = TrainConfig(seed=0, instances=1, n_waypoints=2, hidden=8)
        params = init_params(np.random.default_rng(0), cfg.hidden)
        trip = (GeoPoint(89.5, 0.0), GeoPoint(85.0, 0.0))
        noise = np.array([[[0.0, -10.0]]])
        assert assert_matches_reference(params, cfg, [trip], noise,
                                        field) == [3]


    def test_run_episodes_raises_what_the_object_rollout_raises(self):
        # An aircraft with 100 kg of fuel flies the first trip (3.6 km) but
        # not the first 380 km step of the second.
        spec = AircraftSpec.from_dict({**asdict(default_spec()),
                                       "empty_mass_kg": 59_900.0})
        cfg = TrainConfig(seed=0, instances=1, hidden=8, aircraft=spec)
        params = init_params(np.random.default_rng(0), cfg.hidden)
        trips = [(GeoPoint(50.0, 0.0), GeoPoint(50.0, 0.05)),
                 (GeoPoint(40.0, 0.0), GeoPoint(55.0, 20.0))]
        noise = np.full((2, cfg.n_waypoints - 1, 2), 3.0)
        with pytest.raises(Infeasible):
            run_episodes(params, cfg, trips, noise, STILL_AIR)
        assert_matches_reference(params, cfg, trips, noise, STILL_AIR)


def reference_sample_instance(rng):
    """sample_instance on GeoPoints: two points per attempt, kept once
    they are MIN_TRIP_M apart."""
    lat_min, lat_max, lon_min, lon_max = trainer.SAMPLE_BBOX
    for _ in range(1000):
        lats = rng.uniform(lat_min, lat_max, size=2)
        lons = rng.uniform(lon_min, lon_max, size=2)
        a = GeoPoint(float(lats[0]), float(lons[0]))
        b = GeoPoint(float(lats[1]), float(lons[1]))
        if great_circle_distance(a, b) >= trainer.MIN_TRIP_M:
            return a, b
    raise AssertionError("no trip")


def test_sample_instance_is_the_object_sampler():
    for seed in range(1000):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample_instance(rng) == reference_sample_instance(ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestPpoUpdate:
    def _batch(self, cfg, seed=3):
        rng = np.random.default_rng(seed)
        params = init_params(rng, cfg.hidden)
        field = make_uniform(0, 0, ISA_TEMPERATURE_K, (-90, 90, -180, 180))
        return params, lockstep_batch(params, cfg, rng, field, 4), rng

    def test_params_change_and_original_untouched(self):
        cfg = small_cfg()
        params, batch, rng = self._batch(cfg)
        before = {k: v.copy() for k, v in params.arrays().items()}
        new_params, stats = ppo_update(params, batch, rng,
                                       AdamOptimizer(params, 1e-3))
        assert any(not np.array_equal(new_params.arrays()[k], before[k])
                   for k in before)
        for k, v in params.arrays().items():
            assert np.array_equal(v, before[k])
        for key in ("actor_loss", "critic_loss", "clip_fraction", "approx_kl"):
            assert math.isfinite(stats[key])

    def test_wide_clip_range_leaves_nothing_clipped_initially(self):
        # With fresh data (ratio = 1) nothing is clipped regardless of range.
        cfg = small_cfg()
        params, batch, rng = self._batch(cfg)
        feats = batch.features.reshape(-1, 5)
        zs = batch.pre_squash.reshape(-1, 2)
        logp = batch.log_probs.ravel()
        adv = np.ones(feats.shape[0])
        ret = np.zeros(feats.shape[0])
        pl, vl, _grad, cf, kl = _loss_grads(params, feats, zs,
                                            _squash(np.tanh(zs)), logp, adv,
                                            ret, trainer.CLIP_RANGE,
                                            grad_buffer(params))
        assert cf == 0.0
        assert kl == pytest.approx(0.0, abs=1e-10)
        assert pl == pytest.approx(-1.0, abs=1e-10)   # -mean(ratio * adv)

    def test_clipping_engages_for_shifted_policy(self):
        cfg = small_cfg()
        params, batch, rng = self._batch(cfg)
        feats = batch.features.reshape(-1, 5)
        zs = batch.pre_squash.reshape(-1, 2)
        # Lie about the old log probs to force large ratios.
        logp = batch.log_probs.ravel() - 2.0
        adv = np.ones(feats.shape[0])
        ret = np.zeros(feats.shape[0])
        _pl, _vl, _grad, cf, _kl = _loss_grads(
            params, feats, zs, _squash(np.tanh(zs)), logp, adv, ret,
            trainer.CLIP_RANGE, grad_buffer(params))
        assert cf == 1.0

    def test_gradient_ascends_advantage_on_bandit(self):
        # One-feature bandit: positive-advantage actions become more likely.
        cfg = small_cfg()
        rng = np.random.default_rng(11)
        params = init_params(rng, cfg.hidden)
        field = make_uniform(0, 0, ISA_TEMPERATURE_K, (-90, 90, -180, 180))
        batch = lockstep_batch(params, cfg, rng, field, 8)
        feats = batch.features.reshape(-1, 5)
        zs = batch.pre_squash.reshape(-1, 2)
        logp = batch.log_probs.ravel()
        # Advantage = +1 where the first action coordinate is positive.
        adv = np.where(zs[:, 0] > 0, 1.0, -1.0)
        ret = np.zeros(feats.shape[0])
        # Wrap into a single synthetic episode record.
        record = type(batch)(feats[None], zs[None], np.tanh(zs)[None],
                             logp[None], adv.astype(float)[None],
                             np.zeros((1, len(adv))), np.zeros(1))
        # 20 epochs at lr 1e-2: two 10-epoch updates on one optimizer.
        opt = AdamOptimizer(params, 1e-2)
        new_params = params
        for _ in range(2):
            new_params, _ = ppo_update(new_params, record, rng, opt)
        squash = _squash(np.tanh(zs))
        before_lp = _loss_grads(params, feats, zs, squash, logp, adv, ret,
                                0.5, grad_buffer(params))[0]
        after_lp = _loss_grads(new_params, feats, zs, squash, logp, adv,
                               ret, 0.5, grad_buffer(params))[0]
        # The surrogate objective (negated loss) must improve.
        assert after_lp < before_lp

    def test_non_finite_gradient_aborts(self):
        cfg = small_cfg()
        params, batch, rng = self._batch(cfg)
        batch.log_probs[0, 0] = -1e308   # forces ratio overflow to inf
        before = {k: v.copy() for k, v in params.arrays().items()}
        with pytest.raises(NonFiniteGradient), \
                np.errstate(over="ignore", invalid="ignore"):
            ppo_update(params, batch, rng,
                       AdamOptimizer(params, trainer.LEARNING_RATE))
        for k, v in params.arrays().items():
            assert np.array_equal(v, before[k])

    def test_empty_batch_rejected(self):
        params = init_params(np.random.default_rng(0))
        T = small_cfg().n_waypoints - 1
        empty = trainer.EpisodeRecord(
            np.empty((0, T, 5)), np.empty((0, T, 2)), np.empty((0, T, 2)),
            np.empty((0, T)), np.empty((0, T)), np.empty((0, T)), np.empty(0))
        with pytest.raises(ValueError):
            ppo_update(params, empty, np.random.default_rng(0),
                       AdamOptimizer(params, trainer.LEARNING_RATE))

    def test_consecutive_updates_equal_fresh_ones(self):
        # Each update of a sequence gives what a fresh call gives from a
        # copy of its params, optimizer and generator: nothing an update
        # allocates (the gradient buffer among them) carries into the next.
        cfg = small_cfg()
        field = make_uniform(0, 0, ISA_TEMPERATURE_K, (-90, 90, -180, 180))
        rng = np.random.default_rng(21)
        params = init_params(rng, cfg.hidden)
        # 100 and 52 samples: two minibatches of an epoch, then one.
        batches = [run_episodes(params, cfg,
                                [sample_instance(rng) for _ in range(b)],
                                rng.standard_normal((b, 4, 2)), field)
                   for b in (25, 13)]
        opt = AdamOptimizer(params, 1e-3)
        before, after = [], []
        for batch in batches:
            before.append((params.copy(), copy.deepcopy(opt),
                           copy.deepcopy(rng)))
            params, stats = ppo_update(params, batch, rng, opt)
            after.append((params.flat.tobytes(), stats))
        for batch, (p0, opt0, rng0), want in zip(batches, before, after):
            got, stats = ppo_update(p0, batch, rng0, opt0)
            assert (got.flat.tobytes(), stats) == want


def _loss_grads_as_written(params, f, z, old_logp, adv, ret, clip_range):
    """_loss_grads as the textbook expressions give it: log densities from
    log_prob_as_written, np.mean and np.clip, a new gradient array per
    call."""
    M = f.shape[0]
    h1 = np.tanh(f @ params.w1.T + params.b1)
    h2 = np.tanh(h1 @ params.w2.T + params.b2)
    mean = h2 @ params.w_mean.T + params.b_mean
    value = (h2 @ params.w_val.T + params.b_val)[:, 0]
    std = np.exp(params.log_std)
    new_logp = log_prob_as_written(params, mean, z)
    ratio = np.exp(new_logp - old_logp)
    surr1 = ratio * adv
    surr2 = np.clip(ratio, 1.0 - clip_range, 1.0 + clip_range) * adv
    policy_loss = -float(np.mean(np.minimum(surr1, surr2)))
    value_loss = float(np.mean((value - ret) ** 2))
    g_logp = np.where(surr1 <= surr2, -adv * ratio, 0.0) / M
    g_mean = g_logp[:, None] * (z - mean) / (std ** 2)
    g_log_std = np.sum(g_logp[:, None] * (((z - mean) / std) ** 2 - 1.0),
                       axis=0)
    g_value = trainer.VF_COEF * 2.0 * (value - ret) / M
    g = PolicyParams(params.hidden, np.zeros_like(params.flat))
    g_h2 = g_mean @ params.w_mean + g_value[:, None] * params.w_val
    g.w_mean[:] = g_mean.T @ h2
    g.b_mean[:] = g_mean.sum(axis=0)
    g.log_std[:] = g_log_std
    g.w_val[:] = (g_value[:, None] * h2).sum(axis=0)[None, :]
    g.b_val[:] = g_value.sum()
    g_a2 = g_h2 * (1.0 - h2 ** 2)
    g.w2[:] = g_a2.T @ h1
    g.b2[:] = g_a2.sum(axis=0)
    g_a1 = (g_a2 @ params.w2) * (1.0 - h1 ** 2)
    g.w1[:] = g_a1.T @ f
    g.b1[:] = g_a1.sum(axis=0)
    return (policy_loss, value_loss, g.flat,
            float(np.mean(np.abs(ratio - 1.0) > clip_range)),
            float(np.mean(old_logp - new_logp)))


class TestLossGrads:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_written_out_expressions(self, seed):
        # Random minibatches of a rollout, with old log-probs moved so that
        # some ratios are clipped, through one reused gradient buffer.
        cfg = small_cfg()
        field = make_uniform(0, 0, ISA_TEMPERATURE_K, (-90, 90, -180, 180))
        rng = np.random.default_rng(seed)
        params = init_params(rng, cfg.hidden)
        rec = run_episodes(params, cfg, [sample_instance(rng) for _ in range(30)],
                           rng.standard_normal((30, 4, 2)), field)
        feats = rec.features.reshape(-1, 5)
        zs = rec.pre_squash.reshape(-1, 2)
        logp = rec.log_probs.ravel() + rng.normal(0.0, 0.3, feats.shape[0])
        adv = rng.normal(size=feats.shape[0])
        ret = rng.normal(size=feats.shape[0])
        squash = _squash(np.tanh(zs))
        g = grad_buffer(params)
        clipped = []
        for _ in range(3):
            idx = rng.permutation(feats.shape[0])[:64]
            args = feats[idx], zs[idx], logp[idx], adv[idx], ret[idx]
            pl, vl, grad, cf, kl = _loss_grads(
                params, *args[:2], squash[idx], *args[2:], trainer.CLIP_RANGE,
                g)
            want = _loss_grads_as_written(params, *args, trainer.CLIP_RANGE)
            assert (pl, vl, cf, kl) == (want[0], want[1], want[3], want[4])
            assert grad.tobytes() == want[2].tobytes()
            clipped.append(cf)
            params.flat += 1e-3 * rng.normal(size=params.flat.size)
        assert 0.0 < max(clipped) < 1.0

    def test_every_gradient_element_is_written(self):
        # A buffer of NaNs returns the bits a zeroed one returns: no
        # element of g keeps what it held before the call.
        cfg = small_cfg()
        rng = np.random.default_rng(6)
        params = init_params(rng, cfg.hidden)
        rec = run_episodes(params, cfg,
                           [sample_instance(rng) for _ in range(8)],
                           rng.standard_normal((8, 4, 2)), STILL_AIR)
        zs = rec.pre_squash.reshape(-1, 2)
        args = (rec.features.reshape(-1, 5), zs, _squash(np.tanh(zs)),
                rec.log_probs.ravel() + rng.normal(0.0, 0.3, zs.shape[0]),
                rng.normal(size=zs.shape[0]), rng.normal(size=zs.shape[0]),
                trainer.CLIP_RANGE)
        grads = []
        for fill in (0.0, np.nan):
            g = PolicyParams(params.hidden, np.full_like(params.flat, fill))
            grads.append(_loss_grads(params, *args, g)[2].tobytes())
        assert grads[0] == grads[1]


class TestAdam:
    def test_first_step_is_lr_sized(self):
        # Adam's bias correction makes the very first step approx lr * sign(g).
        params = init_params(np.random.default_rng(0), hidden=4)
        opt = AdamOptimizer(params, lr=0.1)
        g = np.ones_like(params.flat)
        before = {k: v.copy() for k, v in params.arrays().items()}
        opt.apply(params, g)
        for k, v in params.arrays().items():
            assert np.allclose(before[k] - v, 0.1, atol=1e-6)

    def test_flat_step_equals_per_array_adam(self):
        params = init_params(np.random.default_rng(0), hidden=4)
        opt = AdamOptimizer(params, lr=0.01)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        ref = {k: v.copy() for k, v in params.arrays().items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v2 = {k: np.zeros_like(v) for k, v in ref.items()}
        rng = np.random.default_rng(1)
        for t in range(1, 6):
            grad = rng.normal(size=params.flat.shape)
            opt.apply(params, grad)
            g = PolicyParams(params.hidden, grad)
            for k, gk in g.arrays().items():
                m[k] = b1 * m[k] + (1 - b1) * gk
                v2[k] = b2 * v2[k] + (1 - b2) * gk * gk
                m_hat = m[k] / (1 - b1 ** t)
                v_hat = v2[k] / (1 - b2 ** t)
                ref[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for k, a in params.arrays().items():
                assert np.array_equal(a, ref[k]), (t, k)


class RecordingGenerator:
    """Forwards to a Generator and records each call's name and size."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            self.calls.append((name, kwargs.get("size", args[-1] if args
                                                else None)))
            return method(*args, **kwargs)
        return record


class TestTrain:
    def test_rng_draw_order(self, monkeypatch):
        cfg = small_cfg(instances=5)   # updates of 2, 2 and 1 episodes
        recorders = []

        def default_rng(seed):
            recorders.append(RecordingGenerator(seed))
            return recorders[-1]

        monkeypatch.setattr(trainer.np.random, "default_rng", default_rng)
        _params, log = train(cfg)
        monkeypatch.undo()
        [rec] = recorders
        # A rejected trip repeats its uniform draws; count the run once.
        names = [name for i, (name, _size) in enumerate(rec.calls)
                 if not (name == "uniform" and rec.calls[i - 1][0] == name)]
        update = lambda eps: ["uniform", "standard_normal"] * eps + [
            "permutation"] * trainer.EPOCHS_PER_UPDATE
        assert names == ["normal"] * 4 + update(2) + update(2) + update(1)
        T = cfg.n_waypoints - 1
        assert {size for name, size in rec.calls
                if name == "standard_normal"} == {(T, 2)}
        # The same stream drives one-episode-at-a-time rollouts.
        rng = np.random.default_rng(cfg.seed)
        params = init_params(rng, cfg.hidden)
        field = make_uniform(0, 0, ISA_TEMPERATURE_K, (-90, 90, -180, 180))
        first = [run_episode(params, cfg, sample_instance(rng), field, rng)
                 for _ in range(2)]
        assert [float(np.sum(e.rewards)) for e in first] == \
            log.episode_rewards[:2]
        assert [e.final_dist_m for e in first] == log.episode_final_dist[:2]

    def test_throughput_kept_out_of_rows(self):
        lines = []
        _params, log = train(small_cfg(instances=4), progress_sink=lines.append)
        assert log.rollout_s > 0.0 and log.update_s > 0.0
        assert all(set(row) == set(LOG_COLUMNS) for row in log.rows)
        assert all(line.endswith(" episodes/s") for line in lines)

    def test_runs_and_logs(self):
        cfg = small_cfg(instances=4)
        params, log = train(cfg)
        assert len(log.episode_rewards) == 4
        assert len(log.rows) == 2
        assert set(log.rows[0]) == set(LOG_COLUMNS)

    def test_deterministic_per_seed(self, tmp_path):
        cfg = small_cfg(instances=4, seed=9)
        p1, log1 = train(cfg, checkpoint_path=str(tmp_path / "a.json"))
        p2, log2 = train(cfg, checkpoint_path=str(tmp_path / "b.json"))
        for k, v in p1.arrays().items():
            assert np.array_equal(v, p2.arrays()[k])
        assert log1.rows == log2.rows
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_different_seeds_differ(self):
        p1, _ = train(small_cfg(instances=4, seed=1))
        p2, _ = train(small_cfg(instances=4, seed=2))
        assert any(not np.array_equal(p1.arrays()[k], p2.arrays()[k])
                   for k in p1.arrays())

    def test_progress_sink_called(self):
        lines = []
        train(small_cfg(instances=4), progress_sink=lines.append)
        assert len(lines) == 2
        assert "update 1" in lines[0]


def test_write_training_log(tmp_path):
    rows = [{"update_index": 1, "mean_reward": -3.5, "mean_final_dist": 9e5,
             "actor_loss": 0.1, "critic_loss": 2.0, "clip_fraction": 0.0,
             "approx_kl": 1e-4}]
    path = tmp_path / "log.csv"
    write_training_log(rows, str(path))
    text = path.read_text().splitlines()
    assert text[0] == ",".join(LOG_COLUMNS)
    assert len(text) == 2


def test_failed_training_log_write_keeps_the_old_file(tmp_path):
    class Unreadable(dict):
        def __getitem__(self, key):
            raise OSError("no space left on device")

    row = {"update_index": 1, "mean_reward": -3.5, "mean_final_dist": 9e5,
           "actor_loss": 0.1, "critic_loss": 2.0, "clip_fraction": 0.0,
           "approx_kl": 1e-4}
    path = tmp_path / "log.csv"
    write_training_log([row], str(path))
    old = path.read_bytes()
    # Fails after about 180 kB of rows, well past a write buffer.
    with pytest.raises(OSError, match="no space left"):
        write_training_log([row] * 5000 + [Unreadable()], str(path))
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["log.csv"]
