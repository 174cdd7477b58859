import math
from dataclasses import fields

import numpy as np
import pytest

from skyroute import trainer
from skyroute.errors import (ConfigError, DegenerateDistance,
                             DistanceOutOfRange, NonFiniteGradient)
from skyroute.geo import GeoPoint, PlaneVector, great_circle_distance
from skyroute.guide import PolicyParams, init_params, step
from skyroute.trainer import (LOG_COLUMNS, AdamOptimizer, TrainConfig,
                              _loss_grads, compute_gae, end_reward, ppo_update,
                              progress_value, run_episode, run_episodes,
                              sample_instance, step_reward, train,
                              write_training_log)
from skyroute.weather import ISA_TEMPERATURE_K, make_uniform


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
        v = progress_value(PlaneVector(0, 1), PlaneVector(0, 10), 0.01)
        assert v == pytest.approx(1.0 - 0.01, abs=1e-12)

    def test_progress_perpendicular(self):
        v = progress_value(PlaneVector(1, 0), PlaneVector(0, 10), 0.01)
        assert v == pytest.approx(-0.01, abs=1e-12)

    def test_progress_antiparallel_unsigned_vs_signed(self):
        dx, D = PlaneVector(0, -1), PlaneVector(0, 10)
        assert progress_value(dx, D, 0.01) == pytest.approx(0.99, abs=1e-12)
        assert progress_value(dx, D, 0.01, signed=True) == pytest.approx(
            -1.01, abs=1e-12)

    def test_progress_zero_movement(self):
        assert progress_value(PlaneVector(0, 0), PlaneVector(0, 10), 0.01) == -0.01

    def test_progress_degenerate_distance(self):
        with pytest.raises(DegenerateDistance):
            progress_value(PlaneVector(0, 1), PlaneVector(0, 0), 0.01)

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
        assert ep.features.shape == (T, 5)
        assert ep.actions.shape == (T, 2)
        assert np.all(np.abs(ep.actions) <= 1.0)
        assert np.all(np.isfinite(ep.rewards))
        assert np.all(np.isfinite(ep.log_probs))
        assert ep.final_dist_m >= 0.0

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
        assert outs[0].final_dist_m == outs[1].final_dist_m

    def test_safe_step_halves_a_step_past_a_pole(self):
        # 500 km north of 88 N reaches 92.5, and 250 km 90.25: both pass the
        # pole, so the retry halves twice and flies a quarter of the action.
        x = GeoPoint(88.0, 0.0, 10_000)
        action = np.array([0.0, 1.0])
        for a in (action, action / 2):
            with pytest.raises(DistanceOutOfRange, match="passes a pole"):
                step(x, a, 0.0, 500_000.0)
        assert trainer._safe_step(x, action, 0.0, 500_000.0) == \
            step(x, action / 4, 0.0, 500_000.0)

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
                         "rewards", "value_estimates"):
                assert np.array_equal(getattr(batch, name)[b],
                                      getattr(one, name)), name
            assert batch.final_dist_m[b] == one.final_dist_m


class TestPpoUpdate:
    def _batch(self, cfg, seed=3):
        rng = np.random.default_rng(seed)
        params = init_params(rng, cfg.hidden)
        field = make_uniform(0, 0, ISA_TEMPERATURE_K, (-90, 90, -180, 180))
        batch = [run_episode(params, cfg, sample_instance(rng), field, rng)
                 for _ in range(4)]
        return params, batch, rng

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
        feats = np.concatenate([e.features for e in batch])
        zs = np.concatenate([e.pre_squash for e in batch])
        logp = np.concatenate([e.log_probs for e in batch])
        adv = np.ones(feats.shape[0])
        ret = np.zeros(feats.shape[0])
        pl, vl, _grad, cf, kl = _loss_grads(params, feats, zs, logp, adv, ret,
                                            trainer.CLIP_RANGE)
        assert cf == 0.0
        assert kl == pytest.approx(0.0, abs=1e-10)
        assert pl == pytest.approx(-1.0, abs=1e-10)   # -mean(ratio * adv)

    def test_clipping_engages_for_shifted_policy(self):
        cfg = small_cfg()
        params, batch, rng = self._batch(cfg)
        feats = np.concatenate([e.features for e in batch])
        zs = np.concatenate([e.pre_squash for e in batch])
        # Lie about the old log probs to force large ratios.
        logp = np.concatenate([e.log_probs for e in batch]) - 2.0
        adv = np.ones(feats.shape[0])
        ret = np.zeros(feats.shape[0])
        _pl, _vl, _grad, cf, _kl = _loss_grads(params, feats, zs, logp, adv,
                                               ret, trainer.CLIP_RANGE)
        assert cf == 1.0

    def test_gradient_ascends_advantage_on_bandit(self):
        # One-feature bandit: positive-advantage actions become more likely.
        cfg = small_cfg()
        rng = np.random.default_rng(11)
        params = init_params(rng, cfg.hidden)
        field = make_uniform(0, 0, ISA_TEMPERATURE_K, (-90, 90, -180, 180))
        batch = [run_episode(params, cfg, sample_instance(rng), field, rng)
                 for _ in range(8)]
        feats = np.concatenate([e.features for e in batch])
        zs = np.concatenate([e.pre_squash for e in batch])
        logp = np.concatenate([e.log_probs for e in batch])
        # Advantage = +1 where the first action coordinate is positive.
        adv = np.where(zs[:, 0] > 0, 1.0, -1.0)
        ret = np.zeros(feats.shape[0])
        # Wrap into a single synthetic episode record.
        record = type(batch[0])(feats, zs, np.tanh(zs), logp,
                                adv.astype(float), np.zeros(len(adv)), 0.0)
        # 20 epochs at lr 1e-2: two 10-epoch updates on one optimizer.
        opt = AdamOptimizer(params, 1e-2)
        new_params = params
        for _ in range(2):
            new_params, _ = ppo_update(new_params, [record], rng, opt)
        before_lp = _loss_grads(params, feats, zs, logp, adv, ret, 0.5)[0]
        after_lp = _loss_grads(new_params, feats, zs, logp, adv, ret, 0.5)[0]
        # The surrogate objective (negated loss) must improve.
        assert after_lp < before_lp

    def test_non_finite_gradient_aborts(self):
        cfg = small_cfg()
        params, batch, rng = self._batch(cfg)
        bad = batch[0]
        bad.log_probs[0] = -1e308   # forces ratio overflow to inf
        before = {k: v.copy() for k, v in params.arrays().items()}
        with pytest.raises(NonFiniteGradient), \
                np.errstate(over="ignore", invalid="ignore"):
            ppo_update(params, batch, rng)
        for k, v in params.arrays().items():
            assert np.array_equal(v, before[k])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ppo_update(init_params(np.random.default_rng(0)), [],
                       np.random.default_rng(0))


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
