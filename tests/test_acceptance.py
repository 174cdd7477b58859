"""End-to-end acceptance suite.

Each criterion is one test named test_criterion_N_*, so `pytest -v`
shows exactly one pass/fail line per criterion; every test also prints
a [acceptance] summary line (visible with -s or on failure).
"""

import contextlib
import statistics
import time

import numpy as np
import pytest

from skyroute.geo import GeoPoint, great_circle_distance
from skyroute.guide import (GuideConfig, load_checkpoint, roll_out,
                            save_checkpoint)
from skyroute.harness import PlanRequest, plan, route_json_without_timings
from skyroute.lattice import build_corridor, build_lattice
from skyroute.perfmodel import AircraftState, default_spec
from skyroute.search import astar, row_dp
from skyroute.trainer import (TrainConfig, end_reward, progress_value_at,
                              step_reward, train, write_training_log)
from skyroute.weather import make_jet_stream, make_uniform

SPEC = default_spec()
BBOX = (30.0, 70.0, -20.0, 40.0)


@contextlib.contextmanager
def report(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS")


def jet(seed):
    return make_jet_stream(BBOX, 50.0, 40.0, 4.0, seed=seed)


def random_instance(rng, min_km=450.0, max_km=2000.0):
    while True:
        a = GeoPoint(float(rng.uniform(42, 55)), float(rng.uniform(-5, 20)),
                     10_000)
        b = GeoPoint(float(rng.uniform(42, 55)), float(rng.uniform(-5, 20)),
                     10_000)
        d = great_circle_distance(a, b)
        if min_km * 1000 <= d <= max_km * 1000:
            return a, b


def gc_guide(origin, destination, field, n=5):
    cfg = GuideConfig(n=n, guide_kind="great_circle")
    return roll_out(cfg, None, origin, destination, field)


def run_pair(origin, destination, field, dims, w, coarse=None, substeps=1):
    """(unconstrained, hybrid) A* results on one shared lattice."""
    I, J, H = dims
    trip = great_circle_distance(origin, destination)
    lattice = build_lattice(origin, destination, I, J, H, 0.15 * trip)
    state = AircraftState(origin, SPEC.ref_mass_kg)
    free = astar(lattice, None, SPEC, state, field, substeps)
    if coarse is None:
        coarse = gc_guide(origin, destination, field)
    corridor = build_corridor(lattice, coarse, w)
    hybrid = astar(lattice, corridor, SPEC, state, field, substeps)
    return free, hybrid


# Desk-scale training shared by criteria 7 and 8. Table-1 values are the
# trainer's constants (clip 0.2, lr 5e-6, exponent 2.0, end reward always
# on) and the TrainConfig default hidden 64; signed progress and the
# 2-episode rollout are the artifact's documented resolution of the
# shrink/retreat attractor.
TRAIN_CFG = dict(seed=7, instances=2_000, rollout_episodes=2,
                 signed_progress=True)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    cfg = TrainConfig(**TRAIN_CFG)
    t0 = time.monotonic()
    params, log = train(cfg)
    elapsed = time.monotonic() - t0
    path = tmp_path_factory.mktemp("ckpt") / "policy.json"
    save_checkpoint(params, GuideConfig(n=cfg.n_waypoints,
                                        guide_kind="policy"), str(path))
    return params, log, str(path), elapsed


def test_criterion_1_full_width_equivalence():
    with report(1, "full-width equivalence, w = J"):
        t0 = time.monotonic()
        rng = np.random.default_rng(101)
        for k in range(10):
            o, d = random_instance(rng)
            field = jet(k)
            free, hybrid = run_pair(o, d, field, (41, 11, 3), 11)
            assert hybrid.node_path == free.node_path
            assert hybrid.total_fuel_kg == free.total_fuel_kg
        assert time.monotonic() - t0 < 120.0


def test_criterion_2_oracle_optimality():
    with report(2, "astar equals the row DP on 50 instances"):
        t0 = time.monotonic()
        rng = np.random.default_rng(202)
        for k in range(50):
            o, d = random_instance(rng)
            dims = (int(rng.integers(7, 14)), int(rng.choice([5, 7])),
                    int(rng.choice([1, 3])))
            trip = great_circle_distance(o, d)
            lattice = build_lattice(o, d, *dims, 0.15 * trip)
            field = jet(k)
            state = AircraftState(o, SPEC.ref_mass_kg)
            a = astar(lattice, None, SPEC, state, field, substeps=1)
            rd = row_dp(lattice, None, SPEC, state, field, substeps=1)
            assert rd.node_path == a.node_path
            assert rd.search_cost_kg == a.search_cost_kg
            assert rd.total_fuel_kg == a.total_fuel_kg
            assert rd.expanded_nodes == a.expanded_nodes
            assert rd.generated_nodes == a.generated_nodes
        assert time.monotonic() - t0 < 300.0


def _parity_ratios(guide_factory, n_instances=20, seed=303):
    rng = np.random.default_rng(seed)
    ratios = []
    for k in range(n_instances):
        o, d = random_instance(rng)
        field = jet(1000 + k)
        coarse = guide_factory(o, d, field)
        free, hybrid = run_pair(o, d, field, (41, 11, 3), 5, coarse=coarse)
        ratios.append(hybrid.total_fuel_kg / free.total_fuel_kg)
    return ratios


def test_criterion_3_fuel_parity_great_circle():
    with report(3, "fuel parity, great-circle guide, w = 5"):
        ratios = _parity_ratios(gc_guide)
        within = sum(r <= 1.01 for r in ratios)
        assert within >= 18, f"only {within}/20 within 1.01x: {ratios}"
        assert statistics.median(ratios) <= 1.005


def test_criterion_4_search_effort_reduction():
    with report(4, "expansion-count reduction and trend"):
        rng = np.random.default_rng(404)
        instances = [random_instance(rng) for _ in range(10)]
        ratios_by_I = {}
        for I in (21, 41, 51):
            ratios = []
            for k, (o, d) in enumerate(instances):
                field = jet(2000 + k)
                free, hybrid = run_pair(o, d, field, (I, 11, 3), 5)
                ratios.append(hybrid.expanded_nodes / free.expanded_nodes)
            ratios_by_I[I] = sum(ratios) / len(ratios)
        assert ratios_by_I[41] <= 0.60, ratios_by_I
        assert ratios_by_I[51] <= ratios_by_I[21], ratios_by_I


def test_criterion_5_width_plateau():
    with report(5, "corridor-width plateau"):
        short = (GeoPoint(48.35, 11.79, 10_000), GeoPoint(52.37, 13.52, 10_000))
        long_ = (GeoPoint(41.30, 2.08, 10_000), GeoPoint(50.90, 4.48, 10_000))
        for route_k, (o, d) in enumerate((short, long_)):
            field = jet(50 + route_k)
            trip = great_circle_distance(o, d)
            lattice = build_lattice(o, d, 41, 11, 3, 0.15 * trip)
            coarse = gc_guide(o, d, field)
            state = AircraftState(o, SPEC.ref_mass_kg)
            fuels, expanded = [], []
            for w in range(1, 12):
                corridor = build_corridor(lattice, coarse, w)
                res = astar(lattice, corridor, SPEC, state, field, substeps=1)
                fuels.append(res.total_fuel_kg)
                expanded.append(res.expanded_nodes)
            for a, b in zip(fuels, fuels[1:]):
                assert b <= a * (1 + 1e-6), fuels
            assert abs(fuels[4] - fuels[10]) <= 1e-3 * fuels[10], fuels
            for a, b in zip(expanded, expanded[1:]):
                assert b >= a, expanded
            assert expanded[10] > expanded[0], expanded


def test_criterion_6_reward_identities():
    with report(6, "reward-function identities"):
        lam = 0.01
        assert abs(progress_value_at(0, 1, 0, 10, lam) - (1.0 - lam)) <= 1e-9
        assert abs(progress_value_at(1, 0, 0, 10, lam) - (-lam)) <= 1e-9
        assert abs(progress_value_at(0, -1, 0, 10, lam) - (1.0 - lam)) <= 1e-9
        assert abs(step_reward(1.0, 7.0, 2.0)) <= 1e-9
        assert abs(step_reward(0.0, 7.0, 2.0) + 7.0) <= 1e-9
        assert abs(step_reward(0.5, 8.0, 2.0) + 2.0) <= 1e-9
        # end_reward at D in {0, T, 1} with rho1 = 5, rho2 = 2, T = 0.5.
        assert abs(end_reward(0.0, 0.5, 5.0, 2.0) - 2.0) <= 1e-9
        assert abs(end_reward(0.5, 0.5, 5.0, 2.0) - 1.0) <= 1e-9
        assert abs(end_reward(1.0, 0.5, 5.0, 2.0) + 5.0) <= 1e-9


def _decile_means(series):
    n = len(series)
    k = max(n // 10, 1)
    return (sum(series[:k]) / k, sum(series[-k:]) / k)


def test_criterion_7_ppo_learning_signal(trained):
    with report(7, "desk-scale PPO learning signal"):
        _params, log, _path, elapsed = trained
        assert elapsed <= 1800.0
        first_r, last_r = _decile_means(log.episode_rewards)
        assert last_r > first_r, (first_r, last_r)
        first_d, last_d = _decile_means(log.episode_final_dist)
        assert last_d < 0.7 * first_d, (first_d, last_d,
                                        last_d / first_d)


def test_criterion_8_policy_guide_pipeline(trained):
    with report(8, "policy-guide pipeline"):
        _params, _log, ckpt, _elapsed = trained
        params, gcfg = load_checkpoint(ckpt)

        # Guide inference time on one representative route.
        o, d = GeoPoint(48.35, 11.79, 10_000), GeoPoint(41.30, 2.08, 10_000)
        field = jet(77)
        t0 = time.monotonic()
        roll_out(gcfg, params, o, d, field)
        assert time.monotonic() - t0 <= 2.0

        # End-to-end plan through the harness.
        doc = plan(PlanRequest(origin=o, destination=d, dims=(41, 11, 3),
                               width=5, guide_kind="policy", checkpoint=ckpt,
                               weather="jet", substeps=1))
        assert doc["totals"]["fuel_kg"] > 0

        def policy_guide(origin, destination, fld):
            return roll_out(gcfg, params, origin, destination, fld)

        # Criterion 1 re-passes with the policy guide at w = J.
        rng = np.random.default_rng(808)
        for k in range(10):
            oo, dd = random_instance(rng)
            fld = jet(3000 + k)
            coarse = policy_guide(oo, dd, fld)
            free, hybrid = run_pair(oo, dd, fld, (41, 11, 3), 11,
                                    coarse=coarse)
            assert hybrid.node_path == free.node_path
            assert hybrid.total_fuel_kg == free.total_fuel_kg

        # Criterion 3, relaxed to 1.02x on >= 16/20, with the policy guide.
        ratios = _parity_ratios(policy_guide, seed=809)
        within = sum(r <= 1.02 for r in ratios)
        assert within >= 16, f"only {within}/20 within 1.02x: {ratios}"


def test_criterion_9_determinism(tmp_path):
    with report(9, "byte-level determinism"):
        req = PlanRequest(origin=GeoPoint(48.35, 11.79, 10_000),
                          destination=GeoPoint(52.37, 13.52, 10_000),
                          dims=(21, 11, 3), width=5, weather="jet",
                          substeps=1, seed=4)
        docs = [route_json_without_timings(plan(req)) for _ in range(2)]
        assert docs[0] == docs[1]

        cfg = TrainConfig(seed=5, instances=8, rollout_episodes=2)
        paths = []
        for tag in ("a", "b"):
            ckpt = tmp_path / f"policy_{tag}.json"
            _params, log = train(cfg, checkpoint_path=str(ckpt))
            log_path = tmp_path / f"log_{tag}.csv"
            write_training_log(log.rows, str(log_path))
            paths.append((ckpt, log_path))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
