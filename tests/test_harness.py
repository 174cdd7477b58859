import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import skyroute
from skyroute import harness
from skyroute.cli import main
from skyroute.errors import (ConfigError, Infeasible, NoPath, ParseError,
                             SchemaError, SkyrouteError, WidthOutOfRange)
from skyroute.geo import GeoPoint, azimuth, great_circle_distance
from skyroute.guide import (GuideConfig, init_params, parse_checkpoint,
                            save_checkpoint)
from skyroute.harness import (BENCH_COLUMNS, PlanRequest, bench_fwd,
                              bench_width, default_requests, load_airports,
                              make_weather, plan, read_bench_csv,
                              resolve_point, route_json_without_timings,
                              write_bench_csv)
from skyroute.lattice import Corridor, build_lattice
from skyroute.perfmodel import (GROUND_SPEED_FLOOR_MS, AircraftState,
                                default_spec, fly_route, fly_segment,
                                route_cost)
from skyroute.search import nominal_mass_profile, row_dp
from skyroute.trainer import LOG_COLUMNS, TrainConfig, train
from skyroute.weather import (CSV_COLUMNS, ISA_TEMPERATURE_K, load_csv,
                              make_jet_stream, make_uniform, parse_csv,
                              save_csv)

MUC = GeoPoint(48.35, 11.79, 10_000)
BER = GeoPoint(52.37, 13.52, 10_000)

#: The benchmark's frozen policy, trained on many episodes.
FROZEN_POLICY = (Path(__file__).resolve().parents[1] / "perfbench"
                 / "policy.json")

SMALL_DIMS = (9, 5, 3)


def small_request(**overrides):
    base = dict(origin=MUC, destination=BER, dims=SMALL_DIMS, width=3,
                substeps=1)
    base.update(overrides)
    return PlanRequest(**base)


class TestResolvePoint:
    def test_coordinates(self):
        p = resolve_point("48.35,11.79")
        assert p.lat_deg == 48.35 and p.lon_deg == 11.79
        assert p.alt_m == 10_000.0

    def test_coordinates_with_altitude(self):
        assert resolve_point("48.35,11.79,9000").alt_m == 9_000.0

    def test_airport_code(self):
        p = resolve_point("fra")
        airports = load_airports()
        assert (p.lat_deg, p.lon_deg) == airports["FRA"]

    def test_unknown_code(self):
        with pytest.raises(ConfigError):
            resolve_point("XXX")

    def test_garbage_coordinates(self):
        with pytest.raises(ConfigError):
            resolve_point("abc,def")


class TestMakeWeather:
    def test_uniform_covers_route(self):
        fld = make_weather("uniform", MUC, BER)
        lat_min, lat_max, lon_min, lon_max = fld.bbox()
        assert lat_min < MUC.lat_deg and lat_max > BER.lat_deg
        assert lon_min < MUC.lon_deg and lon_max > BER.lon_deg

    def test_jet_deterministic(self):
        a = make_weather("jet", MUC, BER, seed=4)
        b = make_weather("jet", MUC, BER, seed=4)
        assert a.max_wind_speed() == b.max_wind_speed()

    def test_csv_source(self, tmp_path):
        fld = make_weather("uniform", MUC, BER)
        path = tmp_path / "wx.csv"
        save_csv(fld, str(path))
        back = make_weather(f"csv:{path}", MUC, BER)
        assert back.bbox() == pytest.approx(fld.bbox())

    def test_unknown_source(self):
        with pytest.raises(ConfigError):
            make_weather("storm", MUC, BER)


class TestCsvWeatherCache:
    """A `csv:` file is read on every call and parsed once per content."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """Start from an empty cache and count the parses."""
        monkeypatch.setattr(harness, "_parsed", {})
        calls = []

        def counted(raw):
            calls.append(raw)
            return parse_csv(raw)
        monkeypatch.setattr(harness, "parse_csv", counted)
        return calls

    def test_same_content_parses_once(self, tmp_path, parses):
        path = tmp_path / "wx.csv"
        save_csv(make_weather("jet", MUC, BER, seed=1), str(path))
        first = make_weather(f"csv:{path}", MUC, BER)
        # Another file with the same bytes is the same content.
        copy = tmp_path / "copy.csv"
        copy.write_bytes(path.read_bytes())
        assert make_weather(f"csv:{path}", MUC, BER) is first
        assert make_weather(f"csv:{copy}", BER, MUC, seed=3) is first
        assert len(parses) == 1

    def test_rewritten_file_gives_the_new_field(self, tmp_path, parses):
        path = tmp_path / "wx.csv"
        save_csv(make_uniform(1.0, 2.0, 250.0, (40, 55, 5, 20)), str(path))
        old = make_weather(f"csv:{path}", MUC, BER)
        size = path.stat().st_size
        save_csv(make_uniform(3.0, 4.0, 260.0, (40, 55, 5, 20)), str(path))
        assert path.stat().st_size == size
        new = make_weather(f"csv:{path}", MUC, BER)
        assert (old.wind_east[0, 0], new.wind_east[0, 0]) == (1.0, 3.0)
        assert new.temperature[0, 0] == 260.0 and len(parses) == 2

    def test_bad_file_raises_on_every_call(self, tmp_path, parses):
        good = tmp_path / "good.csv"
        save_csv(make_weather("uniform", MUC, BER), str(good))
        field = make_weather(f"csv:{good}", MUC, BER)
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(CSV_COLUMNS) + "\n40,0,oops,1,288.15\n")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        for _ in range(2):
            with pytest.raises(ParseError, match="line 2"):
                make_weather(f"csv:{bad}", MUC, BER)
            with pytest.raises(SchemaError):
                make_weather(f"csv:{empty}", MUC, BER)
        assert len(parses) == 5
        # A failed parse keeps nothing, so the last good field stays.
        assert make_weather(f"csv:{good}", MUC, BER) is field
        assert len(parses) == 5

    def test_non_utf8_file_raises_and_is_not_kept(self, tmp_path, parses):
        good = tmp_path / "good.csv"
        save_csv(make_weather("uniform", MUC, BER), str(good))
        field = make_weather(f"csv:{good}", MUC, BER)
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(good.read_bytes() + b"\xff\n")
        lines = good.read_text().count("\n")
        for _ in range(2):
            with pytest.raises(ParseError,
                               match=f"line {lines + 1}: not UTF-8 text"):
                make_weather(f"csv:{latin1}", MUC, BER)
        assert make_weather(f"csv:{good}", MUC, BER) is field
        assert len(parses) == 3

    def test_plan_on_csv_equals_plan_on_the_parsed_field(self, tmp_path):
        path = tmp_path / "wx.csv"
        save_csv(make_weather("jet", MUC, BER, seed=2), str(path))
        req = small_request(weather=f"csv:{path}")
        with_csv = plan(req)
        given = plan(req, load_csv(str(path)))
        assert route_json_without_timings(with_csv) \
            == route_json_without_timings(given)


def policy_checkpoint(path, seed=0):
    """Write a small policy checkpoint of seeded weights; return its weights."""
    params = init_params(np.random.default_rng(seed), hidden=4)
    save_checkpoint(params, GuideConfig(guide_kind="policy"), str(path))
    return params


class TestCheckpointCache:
    """A policy checkpoint is read on every plan and parsed once per content."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """Start from an empty cache and count the parses."""
        monkeypatch.setattr(harness, "_parsed", {})
        calls = []

        def counted(text):
            calls.append(text)
            return parse_checkpoint(text)
        monkeypatch.setattr(harness, "parse_checkpoint", counted)
        return calls

    def test_same_content_parses_once(self, tmp_path, parses):
        path = tmp_path / "policy.json"
        policy_checkpoint(path)
        # Another file with the same bytes is the same content.
        copy = tmp_path / "copy.json"
        copy.write_bytes(path.read_bytes())
        docs = [route_json_without_timings(plan(small_request(
            guide_kind="policy", checkpoint=str(ck)))) for ck in (path, copy)]
        assert docs[0] == docs[1] and len(parses) == 1

    def test_rewritten_file_gives_the_new_weights(self, tmp_path, parses):
        path = tmp_path / "policy.json"
        old = policy_checkpoint(path, seed=0)
        got_old, cfg = harness._parse_once(str(path),
                                           harness.parse_checkpoint)
        new = policy_checkpoint(path, seed=1)
        got_new, _cfg = harness._parse_once(str(path),
                                            harness.parse_checkpoint)
        assert np.array_equal(got_old.flat, old.flat)
        assert np.array_equal(got_new.flat, new.flat)
        assert not np.array_equal(old.flat, new.flat)
        assert cfg.guide_kind == "policy" and len(parses) == 2

    def test_bad_file_raises_on_every_call(self, tmp_path, parses):
        good = tmp_path / "good.json"
        policy_checkpoint(good)
        want = route_json_without_timings(plan(small_request(
            guide_kind="policy", checkpoint=str(good))))
        schema = tmp_path / "schema.json"
        schema.write_text('{"schema_version": 99}')
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        for _ in range(2):
            for path, match in ((schema, "unsupported checkpoint schema"),
                                (broken, "broken.json")):
                with pytest.raises(ConfigError, match=match):
                    plan(small_request(guide_kind="policy",
                                       checkpoint=str(path)))
        assert len(parses) == 5
        # A failed parse keeps nothing, so the last good checkpoint stays.
        assert route_json_without_timings(plan(small_request(
            guide_kind="policy", checkpoint=str(good)))) == want
        assert len(parses) == 5

    def test_second_plan_reuses_the_parse_and_the_route(self, parses):
        req = PlanRequest(origin=resolve_point("MUC"),
                          destination=resolve_point("BER"),
                          guide_kind="policy", checkpoint=str(FROZEN_POLICY),
                          weather="jet")
        first, second = (route_json_without_timings(plan(req))
                         for _ in range(2))
        assert first == second and len(parses) == 1


class TestPlan:
    def test_document_structure(self):
        doc = plan(small_request())
        for key in ("request", "waypoints", "segments", "totals", "search",
                    "timings"):
            assert key in doc
        assert doc["totals"]["fuel_kg"] > 0
        assert len(doc["waypoints"]) == SMALL_DIMS[0]
        assert len(doc["segments"]) == SMALL_DIMS[0] - 1
        assert doc["search"]["expanded_nodes"] > 0

    def test_segment_fuel_sums_to_total(self):
        req = small_request(weather="jet", seed=2)
        doc = plan(req)
        total = sum(s["fuel_kg"] for s in doc["segments"])
        assert total == doc["totals"]["fuel_kg"]
        # The reported legs are the flight route_cost makes of the waypoints.
        wps = [GeoPoint(w["lat_deg"], w["lon_deg"], w["alt_m"])
               for w in doc["waypoints"]]
        fuel, _end = route_cost(req.aircraft,
                                AircraftState(wps[0], req.aircraft.ref_mass_kg),
                                wps, make_weather("jet", MUC, BER, seed=2),
                                req.substeps)
        assert fuel == doc["totals"]["fuel_kg"]

    def test_reports_ground_speed_floor_hits(self):
        # A 140 m/s headwind against TAS 150 m/s floors the ground speed on
        # every leg of a one-column lattice, whose legs lie on the track.
        slow = replace(default_spec(), tas_ms=150.0)
        bearing = azimuth(MUC.lat_deg, MUC.lon_deg, BER.lat_deg, BER.lon_deg)
        headwind = make_uniform(-140.0 * math.sin(bearing),
                                -140.0 * math.cos(bearing), ISA_TEMPERATURE_K,
                                make_weather("uniform", MUC, BER).bbox())
        req = small_request(aircraft=slow, dims=(9, 1, 3), width=1)
        doc = plan(req, headwind)
        wps = [GeoPoint(w["lat_deg"], w["lon_deg"]) for w in doc["waypoints"]]
        for seg, a, b in zip(doc["segments"], wps, wps[1:]):
            assert seg["gs_floor_hit"] is True
            assert seg["time_s"] == pytest.approx(
                great_circle_distance(a, b) / GROUND_SPEED_FLOOR_MS, rel=1e-12)
        calm = plan(req)
        assert not any(s["gs_floor_hit"] for s in calm["segments"])

    @pytest.mark.parametrize("unconstrained", [False, True])
    def test_stage_timings_add_up(self, unconstrained):
        timings = plan(small_request(unconstrained=unconstrained))["timings"]
        stages = ("weather_s", "lattice_s", "guide_s", "corridor_s", "search_s")
        assert set(timings) == {*stages, "total_s", "search"}
        assert timings["total_s"] == sum(timings[k] for k in stages)
        assert timings["weather_s"] > 0.0 and timings["lattice_s"] > 0.0
        search = timings["search"]
        assert list(search) == ["geometry_s", "masses_s", "table_s",
                                "solve_s", "path_s"]
        assert timings["search_s"] == sum(search.values())

    def test_unconstrained_skips_guide(self):
        doc = plan(small_request(unconstrained=True))
        assert doc["request"]["width"] is None
        assert doc["timings"]["guide_s"] == 0.0

    def test_full_width_matches_unconstrained(self):
        field = make_weather("jet", MUC, BER, seed=1)
        free = plan(small_request(unconstrained=True, weather="jet", seed=1),
                    field)
        full = plan(small_request(width=5, weather="jet", seed=1), field)
        assert full["totals"]["fuel_kg"] == free["totals"]["fuel_kg"]
        assert full["waypoints"] == free["waypoints"]

    def test_policy_guide_requires_checkpoint(self):
        with pytest.raises(ConfigError):
            plan(small_request(guide_kind="policy"))

    @pytest.mark.parametrize("field, value", [("guide_kind", "magic"),
                                              ("seed", -1)])
    def test_request_refuses_unusable_values(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_request(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("dims", (41.0, 11, 3)), ("dims", (41, 11)), ("dims", (41, 11, True)),
        ("dims", (41, 11, 3, 1)), ("dims", 41), ("width", True),
        ("width", 2.0), ("substeps", 2.0), ("substeps", True),
        ("seed", 1.5), ("seed", False)],
        ids=["float-I", "two-dims", "bool-H", "four-dims", "int-dims",
             "bool-width", "float-width", "float-substeps", "bool-substeps",
             "float-seed", "bool-seed"])
    def test_request_refuses_what_is_not_an_integer(self, field, value):
        # Each raised deep in the lattice, range() or numpy, or planned.
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            small_request(**{field: value})

    def test_policy_guide_plans_long_haul(self, tmp_path):
        # Madrid -> Kazakhstan is beyond the 6,000 km planar bound.
        ck = tmp_path / "policy.json"
        save_checkpoint(init_params(np.random.default_rng(0), hidden=4),
                        GuideConfig(guide_kind="policy"), str(ck))
        origin, dest = GeoPoint(40, -3, 10_000), GeoPoint(45, 80, 10_000)
        assert great_circle_distance(origin, dest) > 6_000_000
        doc = plan(small_request(origin=origin, destination=dest,
                                 dims=(9, 5, 1), guide_kind="policy",
                                 checkpoint=str(ck), weather="jet"))
        assert doc["request"]["guide_kind"] == "policy"
        assert len(doc["waypoints"]) == 9
        assert doc["totals"]["fuel_kg"] > 0.0

    def test_southern_hemisphere_jet(self):
        # Sydney -> Auckland: the jet field's bbox reaches about -49 deg.
        syd, akl = resolve_point("-33.9,151.2"), resolve_point("-37.0,174.8")
        field = make_weather("jet", syd, akl)
        for unconstrained in (True, False):
            doc = plan(PlanRequest(origin=syd, destination=akl, weather="jet",
                                   unconstrained=unconstrained), field)
            assert doc["totals"]["fuel_kg"] == pytest.approx(5202.37, abs=0.01)

    @given(st.floats(-90, 90), st.floats(-180, 180), st.floats(-90, 90),
           st.floats(-180, 180), st.sampled_from(["uniform", "jet"]),
           st.booleans())
    # Lattice columns that would pass the pole.
    @example(88.0, 0.0, 88.0, 170.0, "uniform", False)
    @settings(max_examples=80, deadline=None)
    def test_any_pair_plans_or_raises_a_skyroute_error(
            self, lat0, lon0, lat1, lon1, weather, unconstrained):
        req = small_request(origin=GeoPoint(lat0, lon0, 10_000),
                            destination=GeoPoint(lat1, lon1, 10_000),
                            dims=(7, 5, 1), weather=weather,
                            unconstrained=unconstrained)
        try:
            doc = plan(req)
        except SkyrouteError:
            return
        assert len(doc["waypoints"]) == 7

    def test_deterministic_json(self):
        d1 = route_json_without_timings(plan(small_request(weather="jet")))
        d2 = route_json_without_timings(plan(small_request(weather="jet")))
        assert d1 == d2
        assert "timings" not in json.loads(d1)


class TestRouteDocument:
    """The waypoints, legs and fuel of a route document are the object
    flight of its waypoints: `fly_route` over `GeoPoint`s, from the
    reference mass."""

    @pytest.mark.parametrize("guide", [None, "great_circle", "policy"])
    @pytest.mark.parametrize("weather", ["jet", "strong-jet"])
    def test_is_fly_route_of_its_waypoints(self, tmp_path, guide, weather):
        origin, dest = resolve_point("LHR"), resolve_point("WAW")
        if weather == "strong-jet":
            # As perfbench's plan-corridor weather: 100-120 m/s, 1.5-2 deg
            # half-width, here across the track.
            path = tmp_path / "strong-jet.csv"
            save_csv(make_jet_stream((20.0, 80.0, -50.0, 70.0), 52.0, 115.0,
                                     1.75, seed=3), str(path))
            weather = f"csv:{path}"
        req = PlanRequest(
            origin=origin, destination=dest, dims=(21, 7, 3), width=3,
            guide_kind=guide or "great_circle", weather=weather, seed=3,
            unconstrained=guide is None,
            checkpoint=str(FROZEN_POLICY) if guide == "policy" else None)
        doc = plan(req)
        points = [GeoPoint(w["lat_deg"], w["lon_deg"], w["alt_m"])
                  for w in doc["waypoints"]]
        assert [{"lat_deg": p.lat_deg, "lon_deg": p.lon_deg,
                 "alt_m": p.alt_m} for p in points] == doc["waypoints"]
        assert points[0] == origin and points[-1] == dest
        legs = fly_route(req.aircraft,
                         AircraftState(origin, req.aircraft.ref_mass_kg),
                         points, make_weather(weather, origin, dest, seed=3),
                         req.substeps)
        assert [{"fuel_kg": leg.fuel_kg, "time_s": leg.time_s,
                 "gs_floor_hit": leg.gs_floor_hit}
                for leg in legs] == doc["segments"]
        assert doc["totals"]["fuel_kg"] == sum(leg.fuel_kg for leg in legs)


class TestRefusedLeg:
    """A winning path that falls below the empty mass where the centreline
    does not: the path's flight re-flies the leg with `fly_segment`, which
    raises the leg's error."""

    DIMS = (9, 5, 1)

    def off_centre(self):
        """A w=1 corridor one column off the centre, from row 1 on."""
        c = (self.DIMS[1] - 1) // 2
        return Corridor((c,) + (c + 1,) * (self.DIMS[0] - 2) + (c,), 1)

    @staticmethod
    def first_refusal(spec, state, points, field, substeps):
        """The error `fly_segment` raises flying `points` leg by leg: the
        path runs below the empty mass."""
        with pytest.raises(Infeasible) as refused:
            for to in points[1:]:
                state = fly_segment(spec, state, to, field, substeps).end_state
        return refused.value

    @staticmethod
    def between(path_fuel, centre_fuel, spec):
        """`spec` with its empty mass a quarter of the way from the path's
        end mass to the centreline's."""
        assert path_fuel > centre_fuel
        return replace(spec, empty_mass_kg=spec.ref_mass_kg - path_fuel
                       + 0.25 * (path_fuel - centre_fuel))

    def test_row_dp(self):
        spec, field = default_spec(), make_weather("uniform", MUC, BER)
        lattice = build_lattice(MUC, BER, *self.DIMS, 60_000)
        state = AircraftState(MUC, spec.ref_mass_kg)
        corridor = self.off_centre()
        flown = row_dp(lattice, corridor, spec, state, field, 2)
        centre = nominal_mass_profile(lattice, spec, state, field, 2)
        heavy = self.between(flown.total_fuel_kg, state.mass_kg - centre[-1],
                             spec)
        nominal_mass_profile(lattice, heavy, state, field, 2)   # flies
        want = self.first_refusal(
            heavy, state, [lattice.node(n) for n in flown.node_path], field,
            2)
        with pytest.raises(type(want)) as got:
            row_dp(lattice, corridor, heavy, state, field, 2)
        assert str(got.value) == str(want)

    def test_plan(self, monkeypatch):
        req = small_request(dims=self.DIMS, width=1, substeps=2)
        centre = plan(req)
        monkeypatch.setattr(harness, "build_corridor",
                            lambda lattice, coarse, w: self.off_centre())
        flown = plan(req)
        assert flown["waypoints"] != centre["waypoints"]
        heavy = replace(req, aircraft=self.between(
            flown["totals"]["fuel_kg"], centre["totals"]["fuel_kg"],
            req.aircraft))
        field = make_weather(req.weather, MUC, BER)
        want = self.first_refusal(
            heavy.aircraft, AircraftState(MUC, heavy.aircraft.ref_mass_kg),
            [GeoPoint(w["lat_deg"], w["lon_deg"], w["alt_m"])
             for w in flown["waypoints"]], field, req.substeps)
        with pytest.raises(type(want)) as got:
            plan(heavy)
        assert str(got.value) == str(want)


class TestBenchFwd:
    def test_rows_and_schema(self):
        reqs = [small_request(weather="jet")]
        rows = bench_fwd(reqs, fwd_list=[7, 9])
        assert [r["param_value"] for r in rows] == [7, 9]
        for row in rows:
            for col in BENCH_COLUMNS:
                assert col in row
            assert row["expanded_hybrid"] <= row["expanded_solver"]
            assert row["fuel_hybrid_kg"] >= row["fuel_solver_kg"] - 1e-9


class TestBenchWidth:
    def test_full_width_row_is_exact_zero(self):
        reqs = [small_request(weather="jet")]
        rows = bench_width(reqs, w_list=[1, 3, 5])
        by_w = {r["param_value"]: r for r in rows}
        assert by_w[5]["pct_diff"] == 0.0
        assert by_w[5]["fuel_hybrid_kg"] == by_w[5]["fuel_solver_kg"]

    def test_fuel_non_increasing_in_width(self):
        reqs = [small_request(weather="jet")]
        rows = bench_width(reqs, w_list=[1, 3, 5])
        fuels = [r["fuel_hybrid_kg"] for r in rows]
        for a, b in zip(fuels, fuels[1:]):
            assert b <= a * (1 + 1e-6)

    def test_full_width_row_is_exact_zero_with_repetitions(self):
        reqs = [small_request(weather="jet")]
        rows = bench_width(reqs, w_list=[3, 5], repetitions=2)
        by_w = {r["param_value"]: r for r in rows}
        assert by_w[5]["pct_diff"] == 0.0
        assert by_w[5]["solver_time_std"] == by_w[5]["hybrid_time_std"]

    def test_width_beyond_columns_is_a_failure(self):
        req = small_request(weather="jet", width=6)
        with pytest.raises(WidthOutOfRange):
            plan(req)
        rows = bench_width([small_request(weather="jet")], w_list=[5, 6])
        assert "failures" not in rows[0]
        assert rows[1] == {"param_value": 6, "failures": 1}

    def test_failed_baseline_is_a_failure(self, monkeypatch):
        real_plan = harness.plan

        def plan_without_full_width(req, field=None):
            if req.width == req.dims[1]:
                raise NoPath("baseline fails")
            return real_plan(req, field)

        monkeypatch.setattr(harness, "plan", plan_without_full_width)
        rows = bench_width([small_request(weather="jet")], w_list=[3, 5],
                           repetitions=2)
        assert rows == [{"param_value": 3, "failures": 2},
                        {"param_value": 5, "failures": 2}]


class TestSweeps:
    SWEEPS = [(bench_fwd, [9]), (bench_width, [3])]

    @pytest.mark.parametrize("sweep, values", SWEEPS,
                             ids=["bench_fwd", "bench_width"])
    def test_two_routes_get_per_route_columns(self, sweep, values):
        reqs = [small_request(weather="jet"),
                small_request(origin=resolve_point("FRA"),
                              destination=resolve_point("CDG"), weather="jet")]
        rows = sweep(reqs, values)
        assert "fuel_route1_kg" in rows[0]
        assert "fuel_route2_kg" in rows[0]
        assert rows[0]["fuel_hybrid_kg"] == pytest.approx(
            (rows[0]["fuel_route1_kg"] + rows[0]["fuel_route2_kg"]) / 2,
            rel=1e-12)

    @pytest.mark.parametrize("sweep, values", SWEEPS,
                             ids=["bench_fwd", "bench_width"])
    def test_no_repetitions_refused(self, sweep, values):
        # Zero repetitions would plan nothing and still write a row.
        with pytest.raises(ConfigError, match="repetitions"):
            sweep([small_request(weather="jet")], values, repetitions=0)

    @pytest.mark.parametrize("sweep, values", SWEEPS,
                             ids=["bench_fwd", "bench_width"])
    def test_programming_errors_propagate(self, sweep, values, monkeypatch):
        def broken_plan(req, field=None):
            raise RuntimeError("bug")

        monkeypatch.setattr(harness, "plan", broken_plan)
        with pytest.raises(RuntimeError, match="bug"):
            sweep([small_request(weather="jet")], values)


class TestBenchCsv:
    def test_round_trip(self, tmp_path):
        rows = bench_width([small_request(weather="jet")], w_list=[1, 5])
        path = tmp_path / "bench.csv"
        write_bench_csv(rows, str(path))
        back = read_bench_csv(str(path))
        assert len(back) == 2
        assert back[0]["param_value"] == 1
        assert back[0]["fuel_hybrid_kg"] == pytest.approx(
            rows[0]["fuel_hybrid_kg"], rel=1e-12)
        header = path.read_text().splitlines()[0]
        assert header.startswith(",".join(BENCH_COLUMNS))

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        class Unreadable(dict):
            def get(self, key, default=None):
                raise OSError("no space left on device")

        row = {k: 1.5 for k in BENCH_COLUMNS} | {"param_value": 3}
        path = tmp_path / "bench.csv"
        write_bench_csv([row], str(path))
        old = path.read_bytes()
        # Fails after about 360 kB of rows, well past a write buffer.
        with pytest.raises(OSError, match="no space left"):
            write_bench_csv([row] * 10_000 + [Unreadable()], str(path))
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["bench.csv"]


def test_default_requests():
    reqs = default_requests(weather="uniform", seed=3)
    assert len(reqs) == 5
    assert all(r.weather == "uniform" for r in reqs)
    assert all(r.dims == (41, 11, 3) for r in reqs)


def bad_checkpoints(tmp_path) -> dict[str, str]:
    """File name -> text of a checkpoint with one malformed part."""
    good = tmp_path / "ck-good.json"
    save_checkpoint(init_params(np.random.default_rng(0), hidden=4),
                    GuideConfig(guide_kind="policy"), str(good))
    (extra, missing, shape, text, n_text, n_frac, wind_zero, wind_text,
     wind_40) = (json.loads(good.read_text()) for _ in range(9))
    extra["weights"]["w3"], extra["shapes"]["w3"] = [0.0], [1]
    del missing["weights"]["b_val"], missing["shapes"]["b_val"]
    shape["shapes"]["w1"] = [5, 4]
    text["weights"]["b1"][0] = "x"
    n_text["n_waypoints"], n_frac["n_waypoints"] = "x", 2.5
    wind_zero["normalization"]["wind_scale_ms"] = 0
    wind_text["normalization"]["wind_scale_ms"] = "a"
    # Positive and finite, but not the scale the features use.
    wind_40["normalization"]["wind_scale_ms"] = 40.0
    return {"ck-list.json": json.dumps([1, 2]),
            "ck-extra.json": json.dumps(extra),
            "ck-missing.json": json.dumps(missing),
            "ck-shape.json": json.dumps(shape),
            "ck-text.json": json.dumps(text),
            "ck-n-text.json": json.dumps(n_text),
            "ck-n-frac.json": json.dumps(n_frac),
            "ck-wind-zero.json": json.dumps(wind_zero),
            "ck-wind-text.json": json.dumps(wind_text),
            "ck-wind-40.json": json.dumps(wind_40)}


def bad_aircraft_files() -> dict[str, str]:
    """File name -> text of an aircraft spec with one bad value. json.dumps
    writes a float NaN or inf as NaN or Infinity, which json.load reads,
    and 10 ** 400 as an integer no float can hold."""
    good = asdict(default_spec())
    return {f"ac-{name}.json": json.dumps({**good, key: value})
            for name, key, value in (
                ("nan-flow", "base_fuel_flow_kgps", math.nan),
                ("nan-temp", "temp_sensitivity", math.nan),
                ("inf-flow", "base_fuel_flow_kgps", math.inf),
                ("inf-max-mass", "max_mass_kg", math.inf),
                ("bool-flow", "base_fuel_flow_kgps", True),
                ("text-tas", "tas_ms", "230"),
                ("huge-max-mass", "max_mass_kg", 10 ** 400),
                # Flow turns negative below 238 K, inside a field's range.
                ("negative-flow", "temp_sensitivity", 0.02))}


def bad_weather_files() -> dict[str, str]:
    """File name -> text of a weather CSV that no field can be made of."""
    def grid(*rows):
        return "\n".join([",".join(CSV_COLUMNS), *rows]) + "\n"
    return {"wx-bad-line.csv": grid("48,11,x,1,288.15"),
            "wx-one-node.csv": grid("48,11,1,1,288.15"),
            "wx-400K.csv": grid("40,0,1,1,288.15", "40,20,1,1,400",
                                "60,0,1,1,288.15", "60,20,1,1,288.15"),
            "wx-nan-wind.csv": grid("40,0,1,1,288.15", "40,20,nan,1,288.15",
                                    "60,0,1,1,288.15", "60,20,1,1,288.15")}


class TestCli:
    def test_plan_writes_route_json(self, tmp_path, capsys):
        rc = main(["plan", "--origin", "MUC", "--destination", "BER",
                   "--fwd", "9", "--cols", "5", "--levels", "1",
                   "--width", "3", "--substeps", "1",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "route.json").read_text())
        assert doc["totals"]["fuel_kg"] > 0
        assert "fuel" in capsys.readouterr().out

    def test_plan_bad_airport_exit_code(self, tmp_path, capsys):
        rc = main(["plan", "--origin", "XXX", "--destination", "BER",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["plan", "--origin", "95,10", "--destination", "BER"], "latitude"),
        (["plan", "--origin", "48,11,-5", "--destination", "BER"], "altitude"),
        (["plan", "--origin", "MUC", "--destination", "BER", "--fwd", "1"],
         "forward rows I"),
        (["plan", "--origin", "MUC", "--destination", "BER", "--cols", "4"],
         "lateral columns J"),
        (["plan", "--origin", "MUC", "--destination", "BER",
          "--substeps", "0"], "substeps"),
        (["bench-fwd", "--levels", "0"], "altitude levels H"),
        (["bench-width", "--routes", "MUC-BER"], "--routes"),
        (["bench-width", "--routes", "MUC:BER:FRA"], "--routes"),
        (["plan", "--origin", "MUC", "--destination", "BER", "--guide",
          "policy", "--checkpoint", "{tmp}/ck-schema.json"], "ck-schema.json"),
        (["plan", "--origin", "MUC", "--destination", "BER", "--guide",
          "policy", "--checkpoint", "{tmp}/ck-nokey.json"], "ck-nokey.json"),
        *[(["plan", "--origin", "MUC", "--destination", "BER", "--guide",
            "policy", "--checkpoint", f"{{tmp}}/{name}"], name)
          for name in ("ck-list.json", "ck-extra.json", "ck-missing.json",
                       "ck-shape.json", "ck-text.json")],
        *[(["plan", "--origin", "MUC", "--destination", "BER", "--guide",
            "policy", "--checkpoint", f"{{tmp}}/ck-{name}.json"], field)
          for name, field in (("n-text", "n_waypoints"), ("n-frac", "n_waypoints"),
                              ("wind-zero", "wind_scale_ms"),
                              ("wind-text", "wind_scale_ms"),
                              ("wind-40", "wind_scale_ms"))],
        (["plan", "--origin", "MUC", "--destination", "BER",
          "--aircraft", "{tmp}/ac-missing.json"], "ac-missing.json"),
        (["plan", "--origin", "MUC", "--destination", "BER",
          "--aircraft", "{tmp}/ac-value.json"], "ac-value.json"),
        (["plan", "--origin", "MUC", "--destination", "BER",
          "--aircraft", "{tmp}/ac-json.json"], "ac-json.json"),
        (["plan", "--origin", "MUC", "--destination", "BER",
          "--aircraft", "{tmp}/ac-unknown.json"], "mass_exponent"),
        # The file and the field it names.
        *[(["plan", "--origin", "MUC", "--destination", "BER",
            "--aircraft", f"{{tmp}}/ac-{name}.json"], f"ac-{name}.json: {key}")
          for name, key in (("nan-flow", "base_fuel_flow_kgps"),
                            ("nan-temp", "temp_sensitivity"),
                            ("inf-flow", "base_fuel_flow_kgps"),
                            ("inf-max-mass", "max_mass_kg"),
                            ("bool-flow", "base_fuel_flow_kgps"),
                            ("text-tas", "tas_ms"),
                            ("huge-max-mass", "max_mass_kg"),
                            ("negative-flow", "temp_sensitivity"))],
        # Valid points whose lattice columns would pass the pole.
        (["plan", "--origin", "88,0", "--destination", "88,170"],
         "passes a pole"),
        (["plan", "--origin", "MUC", "--destination", "BER", "--weather",
          "jet", "--seed", "-1"], "seed"),
        (["bench-width", "--routes", "MUC:BER", "--repetitions", "0",
          "--w-list", "3"], "repetitions"),
        (["plan", "--origin", "MUC", "--destination", "BER", "--weather",
          "csv:{tmp}/wx-latin1.csv"], "not UTF-8"),
        *[(["plan", "--origin", "MUC", "--destination", "BER", "--weather",
            f"csv:{{tmp}}/wx-{name}.csv"], f"{{tmp}}/wx-{name}.csv")
          for name in ("bad-line", "one-node", "400K", "nan-wind")],
    ], ids=["lat", "alt", "fwd", "cols", "substeps", "levels", "route-dash",
            "route-three-codes", "checkpoint-schema", "checkpoint-key",
            "checkpoint-list", "checkpoint-extra-weight",
            "checkpoint-missing-weight", "checkpoint-shape",
            "checkpoint-text-value", "checkpoint-n-text", "checkpoint-n-frac",
            "checkpoint-wind-zero", "checkpoint-wind-text",
            "checkpoint-wind-40", "aircraft-missing", "aircraft-value",
            "aircraft-json", "aircraft-unknown", "aircraft-nan-flow",
            "aircraft-nan-temp", "aircraft-inf-flow", "aircraft-inf-max-mass",
            "aircraft-bool-flow", "aircraft-text-tas",
            "aircraft-huge-max-mass", "aircraft-negative-flow", "pole",
            "negative-seed",
            "no-repetitions", "csv-not-utf8", "csv-bad-line", "csv-one-node",
            "csv-400K", "csv-nan-wind"])
    def test_bad_input_exit_code(self, tmp_path, capsys, argv, field):
        bad_files = {
            "ck-schema.json": json.dumps({"schema_version": 99}),
            "ck-nokey.json": json.dumps({"schema_version": 1}),
            "ac-missing.json": json.dumps({"tas_ms": 1}),
            "ac-value.json": json.dumps(
                {**asdict(default_spec()), "tas_ms": 100.0}),
            "ac-json.json": "{not json",
            "ac-unknown.json": json.dumps(
                {**asdict(default_spec()), "mass_exponent": 1.0}),
            **bad_aircraft_files(),
            **bad_checkpoints(tmp_path),
            **bad_weather_files(),
        }
        for name, text in bad_files.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "wx-latin1.csv").write_bytes(
            ",".join(CSV_COLUMNS).encode() + b"\n48,11,1,1,288.15\xff\n")
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field.format(tmp=tmp_path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("config, field", [
        ({"seed": 0, "instances": 4, "rollout_episodes": 0},
         "rollout_episodes"),
        ({"seed": 0, "instances": 4, "minibatch_size": 0}, "minibatch_size"),
        ({"seed": 0, "instances": 4, "substeps": 0}, "substeps"),
        ({"seed": 0, "instances": 4, "hidden": 0}, "hidden"),
        ({"seed": 0, "instances": 4, "epochs_per_update": 0},
         "epochs_per_update"),
        ([1], "JSON object"),
        ("{not json", "cfg.json"),
        ({"seed": 0, "instances": 4, "sample_bbox": [1, 2]}, "sample_bbox"),
        ({"seed": 0, "instances": 4, "learning_rate": "x"}, "learning_rate"),
        ({"seed": 0, "instances": 4, "aircraft": {"tas_ms": 230}}, "aircraft"),
        # An integer would open that file descriptor.
        ({"seed": 0, "instances": 4, "aircraft_path": 7}, "aircraft_path"),
        ({"seed": 0, "instances": 4, "aircraft_path": ["x"]}, "aircraft_path"),
        ({"seed": -1, "instances": 4}, "seed"),
        # A PPO hyperparameter is one of the trainer's constants.
        ({"seed": 0, "instances": 4, "clip_range": 0.2}, "clip_range"),
    ], ids=["rollout-episodes", "minibatch", "substeps", "hidden", "epochs",
            "list", "not-json", "bbox-length", "text-value", "inline-aircraft",
            "aircraft-path-int", "aircraft-path-list", "negative-seed",
            "clip-range"])
    def test_train_rejected_config_exit_code(self, tmp_path, capsys, config,
                                             field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config if isinstance(config, str)
                            else json.dumps(config))
        rc = main(["train", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and field in err

    def test_bench_width_cli(self, tmp_path, capsys):
        rc = main(["bench-width", "--routes", "MUC:BER",
                   "--fwd", "9", "--cols", "5", "--levels", "1",
                   "--substeps", "1", "--w-list", "1", "5",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "bench_width.csv").exists()

    def test_bench_fwd_cli(self, tmp_path):
        rc = main(["bench-fwd", "--routes", "MUC:BER",
                   "--fwd", "9", "--cols", "5", "--levels", "1",
                   "--substeps", "1", "--fwd-list", "7", "9",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "bench_fwd.csv").exists()

    def test_train_cli(self, tmp_path):
        config = {"seed": 0, "instances": 4, "rollout_episodes": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["train", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "policy.json").exists()
        assert (tmp_path / "training_log.csv").exists()

    def test_train_cli_log_header_is_log_columns(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 0, "instances": 4,
                                        "rollout_episodes": 2}))
        assert main(["train", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "training_log.csv", encoding="utf-8") as f:
            assert f.readline().rstrip() == ",".join(LOG_COLUMNS)

    def test_train_cli_twice_writes_equal_bytes(self, tmp_path):
        # Nine waypoints and signed progress, off the default path.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 1, "instances": 8, "rollout_episodes": 2,
            "n_waypoints": 9, "signed_progress": True}))
        for run in ("a", "b"):
            assert main(["train", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / run)]) == 0
        for name in ("policy.json", "training_log.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_train_cli_reports_throughput(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 0, "instances": 3,
                                        "rollout_episodes": 2}))
        assert main(["train", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:2]] == ["update 1",
                                                             "update 2"]
        assert re.fullmatch(r"trained 3 episodes in \d+\.\d\d s, "
                            r"\d+\.\d episodes/s \(rollout \d+\.\d\d s, "
                            r"update \d+\.\d\d s\)", lines[2])
        assert lines[3].startswith("wrote ")

    def test_train_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instances": 4}))
        rc = main(["train", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path)])
        assert rc == 2


class TestPlanProcess:
    """`python -m skyroute plan` in a fresh process, on the edge cases of
    the plan path, with numpy's floating-point warnings as errors."""

    @staticmethod
    def bent_policy(path):
        """A tiny training run's policy with w_mean scaled 300-fold: it bends
        the guide faster than a path can follow."""
        params, _log = train(TrainConfig(seed=0, instances=4,
                                         rollout_episodes=2))
        save_checkpoint(params, GuideConfig(guide_kind="policy"), str(path))
        ck = json.loads(path.read_text())
        ck["weights"]["w_mean"] = [300 * x for x in ck["weights"]["w_mean"]]
        path.write_text(json.dumps(ck))

    @pytest.mark.parametrize("argv", [
        # A 161x41x1 unconstrained lattice flies its geometry in several
        # blocks of BLOCK_POINTS substep points.
        ["--fwd", "161", "--cols", "41", "--levels", "1", "--unconstrained"],
        # Two rows: the row DP's min-plus loop runs no row.
        ["--fwd", "2"],
        # One column: the row DP's strided view of g has J = 1.
        ["--cols", "1", "--unconstrained"],
        # The full-width lattice's outer columns leave this grid: their
        # edges are refused, and the plan is the optimum over the rest.
        ["--width", "11", "--weather", "csv:{tmp}/narrow.csv"],
        # The corridor lags behind the bent guide and still plans.
        ["--origin", "50.627,21.027", "--destination", "57.430,-0.992",
         "--fwd", "161", "--cols", "41", "--levels", "1", "--width", "3",
         "--guide", "policy", "--checkpoint", "{tmp}/bent-policy.json",
         "--weather", "jet"],
        # Beyond the 6,000 km planar bound the guide's displacement follows
        # the initial bearing.
        ["--origin", "40,-3", "--destination", "45,80", "--guide", "policy",
         "--checkpoint", str(FROZEN_POLICY), "--weather", "jet"],
    ], ids=["161x41x1", "fwd-2", "cols-1", "narrow-csv", "bent-policy",
            "long-haul"])
    def test_plans(self, tmp_path, argv):
        save_csv(make_uniform(5, 0, 288.15, (47, 54, 11.5, 13.8)),
                 str(tmp_path / "narrow.csv"))
        self.bent_policy(tmp_path / "bent-policy.json")
        argv = [a.format(tmp=tmp_path) for a in argv]
        if "--origin" not in argv:
            argv = ["--origin", "MUC", "--destination", "BER", *argv]
        env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
               "PYTHONPATH": str(Path(skyroute.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-m", "skyroute", "plan", *argv,
             "--out-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        doc = json.loads((tmp_path / "out" / "route.json").read_text())
        assert doc["totals"]["fuel_kg"] > 0
