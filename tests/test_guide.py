import contextlib
import io
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from skyroute import guide
from skyroute.errors import DistanceOutOfRange
from skyroute.geo import (GeoPoint, displacement, great_circle_distance,
                          intermediate_point, rotate_by, trip_rotation)
from skyroute.guide import (ACTION_DIM, FEATURE_DIM, TEMP_SCALE_K,
                            WIND_SCALE_MS, GuideConfig, PolicyParams,
                            extract_features, forward, init_params,
                            load_checkpoint, param_shapes, roll_out,
                            safe_step, save_checkpoint, step_at, trip_frame)
from skyroute.weather import make_uniform

ORIGIN = GeoPoint(48.35, 11.79, 10_000)
DEST = GeoPoint(52.37, 13.52, 10_000)
BBOX = (30.0, 70.0, -20.0, 40.0)


def still_air():
    return make_uniform(0.0, 0.0, 288.15, BBOX)


def latlon(p):
    return p.lat_deg, p.lon_deg


#: The rotation of the ORIGIN -> DEST trip.
PHI = trip_rotation(*latlon(ORIGIN), *latlon(DEST))


def features(x, field):
    """extract_features at GeoPoint x on the ORIGIN -> DEST trip."""
    disp = displacement(*latlon(x), *latlon(DEST),
                        great_circle_distance(x, DEST))
    return np.array(extract_features(
        *latlon(x), *disp, math.cos(PHI), math.sin(PHI), field,
        great_circle_distance(ORIGIN, DEST)))


def step(x, action, step_scale):
    """The GeoPoint step_at reaches from GeoPoint x on the ORIGIN -> DEST
    trip."""
    return GeoPoint(*step_at(*latlon(x), *action, math.cos(-PHI),
                             math.sin(-PHI), step_scale))


def inference_action(params, f):
    """The action roll_out takes at feature vector f: tanh of the mean of
    a one-row forward batch."""
    mean, _value = forward(params, f[None])
    return np.tanh(mean[0])


def zero_params(hidden=8):
    arrays = {k: np.zeros(s) for k, s in param_shapes(hidden).items()}
    arrays["log_std"] = np.full(ACTION_DIM, -0.7)
    return PolicyParams.from_arrays(hidden, arrays)


class TestForward:
    def test_shapes(self):
        params = init_params(np.random.default_rng(0), hidden=16)
        mean, value = forward(params, np.zeros((1, FEATURE_DIM)))
        assert mean.shape == (1, ACTION_DIM)
        assert value.shape == (1,)
        mean_b, value_b = forward(params, np.zeros((7, FEATURE_DIM)))
        assert mean_b.shape == (7, ACTION_DIM)
        assert value_b.shape == (7,)

    def test_batch_matches_single(self):
        params = init_params(np.random.default_rng(1))
        feats = np.random.default_rng(2).normal(size=(4, FEATURE_DIM))
        mean_b, value_b = forward(params, feats)
        for i in range(4):
            m, v = forward(params, feats[i:i + 1])
            assert np.array_equal(m[0], mean_b[i])
            assert v[0] == value_b[i]

    def test_zero_weights_give_zero_outputs(self):
        mean, value = forward(zero_params(), np.ones((1, FEATURE_DIM)))
        assert np.all(mean == 0.0)
        assert np.all(value == 0.0)


class TestPolicyParams:
    def test_arrays_are_views_of_flat(self):
        params = init_params(np.random.default_rng(3), hidden=6)
        shapes = param_shapes(6)
        assert params.flat.shape == (sum(math.prod(s) for s in shapes.values()),)
        for name, a in params.arrays().items():
            assert a.shape == shapes[name]
            assert np.shares_memory(a, params.flat), name
        params.flat[:] = 1.5
        assert all(np.all(a == 1.5) for a in params.arrays().values())

    def test_copy_shares_no_memory(self):
        params = init_params(np.random.default_rng(3), hidden=6)
        dup = params.copy()
        assert np.array_equal(dup.flat, params.flat)
        for a in dup.arrays().values():
            assert not np.shares_memory(a, params.flat)
        dup.flat[:] = 0.0
        assert not np.all(params.flat == 0.0)

    def test_from_arrays_checks_shapes(self):
        arrays = init_params(np.random.default_rng(3), hidden=6).arrays()
        arrays["w2"] = np.zeros((6, 5))
        with pytest.raises(ValueError, match="w2"):
            PolicyParams.from_arrays(6, arrays)


class TestExtractFeatures:
    def test_at_origin_points_up(self):
        # After rotation the displacement to the destination is straight
        # "north" in the rotated frame, with unit length at the origin.
        f = features(ORIGIN, still_air())
        assert f.shape == (FEATURE_DIM,)
        assert f[0] == pytest.approx(0.0, abs=1e-9)
        assert f[1] == pytest.approx(1.0, rel=1e-3)
        assert f[2] == 0.0 and f[3] == 0.0 and f[4] == 0.0

    def test_at_destination_zero_displacement(self):
        f = features(DEST, still_air())
        assert f[0] == 0.0 and f[1] == 0.0

    def test_weather_normalization(self):
        fld = make_uniform(25.0, -10.0, 303.15, BBOX)
        f = features(ORIGIN, fld)
        assert f[2] == pytest.approx(25.0 / 50.0)
        assert f[3] == pytest.approx(-10.0 / 50.0)
        assert f[4] == pytest.approx(15.0 / 30.0)


class TestPolicyAction:
    def test_deterministic_bounded(self):
        params = init_params(np.random.default_rng(3))
        a = inference_action(params, np.ones(FEATURE_DIM))
        assert a.shape == (ACTION_DIM,)
        assert np.all(np.abs(a) < 1.0)

    def test_deterministic_is_repeatable(self):
        params = init_params(np.random.default_rng(3))
        f = np.ones(FEATURE_DIM)
        assert np.array_equal(inference_action(params, f),
                              inference_action(params, f))


class TestStep:
    def test_step_scale_cap(self):
        scale = great_circle_distance(ORIGIN, DEST) / 5
        # Full diagonal action has norm sqrt(2) * scale; capped to scale.
        moved = step(ORIGIN, (1.0, 1.0), scale)
        assert great_circle_distance(ORIGIN, moved) == pytest.approx(
            scale, rel=2e-3)

    def test_unit_up_action_moves_toward_destination(self):
        scale = great_circle_distance(ORIGIN, DEST) / 5
        moved = step(ORIGIN, (0.0, 1.0), scale)
        assert great_circle_distance(ORIGIN, moved) == pytest.approx(
            scale, rel=2e-3)
        assert great_circle_distance(moved, DEST) < great_circle_distance(
            ORIGIN, DEST)

    @pytest.mark.parametrize("action", [[math.nan, 0.0], [0.0, math.inf],
                                        [-math.inf, 1.0]])
    def test_non_finite_action_refused(self, action):
        with pytest.raises(ValueError, match="finite"):
            step(ORIGIN, action, great_circle_distance(ORIGIN, DEST) / 5)

    def test_zero_action_stays(self):
        moved = step(ORIGIN, (0.0, 0.0),
                     great_circle_distance(ORIGIN, DEST) / 5)
        assert moved.same_position(ORIGIN)

    def test_safe_step_halves_a_step_past_a_pole(self):
        # 500 km north of 88 N reaches 92.5, and 250 km 90.25: both pass the
        # pole, so the retry halves twice and flies a quarter of the action.
        x = (88.0, 0.0)
        rot_inv = math.cos(-0.0), math.sin(-0.0)
        for north in (1.0, 0.5):
            with pytest.raises(DistanceOutOfRange, match="passes a pole"):
                step_at(*x, 0.0, north, *rot_inv, 500_000.0)
        quarter = step_at(*x, 0.0, 0.25, *rot_inv, 500_000.0)
        assert safe_step(*x, 0.0, 1.0, *rot_inv, 500_000.0) == quarter


class TestRollOut:
    def test_great_circle_guide(self):
        cfg = GuideConfig(n=5, guide_kind="great_circle")
        route = roll_out(cfg, None, ORIGIN, DEST, still_air())
        assert route.n == 5
        assert route.waypoints[0].same_position(ORIGIN)
        assert route.waypoints[-1].same_position(DEST)
        for k in range(5):
            expected = intermediate_point(ORIGIN, DEST, k / 4)
            assert great_circle_distance(route.waypoints[k], expected) < 1.0

    def test_policy_guide_ends_at_destination(self):
        cfg = GuideConfig(n=5, guide_kind="policy")
        params = init_params(np.random.default_rng(5))
        route = roll_out(cfg, params, ORIGIN, DEST, still_air())
        assert route.waypoints[0].same_position(ORIGIN)
        assert route.waypoints[-1].same_position(DEST)
        assert 2 <= route.n <= 5

    def test_zero_policy_collapses_to_two_points(self):
        # A zero-weight policy never moves; duplicates collapse and the
        # result is the valid 2-point route [origin, destination].
        cfg = GuideConfig(n=5, guide_kind="policy")
        route = roll_out(cfg, zero_params(), ORIGIN, DEST, still_air())
        assert route.n == 2
        assert route.waypoints[0].same_position(ORIGIN)
        assert route.waypoints[-1].same_position(DEST)

    def test_policy_steps_by_the_step_rule_past_a_pole(self):
        # A zero-weight policy whose bias points the action due north, from
        # 89 N: the first 223 km step would pass the pole, so the step rule
        # halves it, as it does in training.
        origin = GeoPoint(89.0, 0.0, 10_000)
        dest = GeoPoint(80.0, 90.0, 10_000)
        rot, rot_inv, _length, step_scale = trip_frame(
            latlon(origin), latlon(dest), 5)
        params = zero_params()
        params.b_mean[:] = np.arctanh(rotate_by(0.0, 1.0, *rot))
        action = np.tanh(params.b_mean).tolist()
        with pytest.raises(DistanceOutOfRange, match="passes a pole"):
            step_at(*latlon(origin), *action, *rot_inv, step_scale)
        route = roll_out(GuideConfig(n=5, guide_kind="policy"), params,
                         origin, dest,
                         make_uniform(0.0, 0.0, 288.15, (-90, 90, -180, 180)))
        first = safe_step(*latlon(origin), *action, *rot_inv, step_scale)
        assert latlon(route.waypoints[1]) == first
        assert first == (pytest.approx(89.502, abs=1e-3), 0.0)

    def test_policy_guide_requires_params(self):
        cfg = GuideConfig(n=5, guide_kind="policy")
        with pytest.raises(ValueError):
            roll_out(cfg, None, ORIGIN, DEST, still_air())

    def test_waypoints_at_origin_altitude(self):
        origin = GeoPoint(ORIGIN.lat_deg, ORIGIN.lon_deg, 9_000)
        dest = GeoPoint(DEST.lat_deg, DEST.lon_deg, 11_000)
        params = init_params(np.random.default_rng(5))
        for kind in ("great_circle", "policy"):
            route = roll_out(GuideConfig(n=5, guide_kind=kind), params,
                             origin, dest, still_air())
            assert route.n > 2
            assert [p.alt_m for p in route.waypoints] == [9_000] * route.n


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(np.random.default_rng(6), hidden=16)
        cfg = GuideConfig(n=5, guide_kind="policy")
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, cfg, str(path))
        back, back_cfg = load_checkpoint(str(path))
        for k, v in params.arrays().items():
            assert np.array_equal(back.arrays()[k], v), k
        assert back_cfg == cfg
        assert json.loads(path.read_text())["normalization"] == {
            "wind_scale_ms": WIND_SCALE_MS, "temp_scale_k": TEMP_SCALE_K}

    def test_round_trip_preserves_inference(self, tmp_path):
        params = init_params(np.random.default_rng(7))
        cfg = GuideConfig(n=5, guide_kind="policy")
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, cfg, str(path))
        back, _ = load_checkpoint(str(path))
        f = np.random.default_rng(8).normal(size=FEATURE_DIM)
        assert np.array_equal(inference_action(params, f),
                              inference_action(back, f))

    def test_schema_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 99}')
        with pytest.raises(ValueError, match="schema"):
            load_checkpoint(str(path))

    def test_byte_identical_saves(self, tmp_path):
        params = init_params(np.random.default_rng(9))
        cfg = GuideConfig(n=5, guide_kind="policy")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(params, cfg, str(p1))
        save_checkpoint(params, cfg, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_is_json_dump_of_its_payload(self, tmp_path):
        # The bytes json.dump streams for the payload, newline included.
        params = init_params(np.random.default_rng(10))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, GuideConfig(n=9, guide_kind="policy"),
                        str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["weights"]["w1"] == params.w1.ravel().tolist()
        dumped = io.StringIO()
        json.dump(payload, dumped, sort_keys=True)
        dumped.write("\n")
        assert path.read_bytes() == dumped.getvalue().encode("utf-8")

    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path,
                                                   monkeypatch):
        cfg = GuideConfig(n=5, guide_kind="policy")
        path = tmp_path / "ckpt.json"
        save_checkpoint(init_params(np.random.default_rng(1)), cfg, str(path))
        old = path.read_bytes()

        real_replacing = guide.replacing

        @contextlib.contextmanager
        def replacing_half(path):
            # The file takes half of what is written, then the disk is full.
            with real_replacing(path) as f:
                def write_half(text):
                    # About 50 kB: past a buffer.
                    f.write(text[:len(text) // 2])
                    raise OSError("no space left on device")
                yield SimpleNamespace(write=write_half)

        monkeypatch.setattr(guide, "replacing", replacing_half)
        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(init_params(np.random.default_rng(2)), cfg,
                            str(path))
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["ckpt.json"]


def test_guide_config_validation():
    with pytest.raises(ValueError):
        GuideConfig(n=1)
    with pytest.raises(ValueError):
        GuideConfig(guide_kind="magic")
