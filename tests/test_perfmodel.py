import math

import pytest
from hypothesis import given, settings, strategies as st

from skyroute.errors import Infeasible, OutOfDomain, SkyrouteError
from skyroute.geo import GeoPoint, great_circle_distance
from skyroute.perfmodel import (GROUND_SPEED_FLOOR_MS, AircraftSpec,
                                AircraftState, default_spec, fly_segment,
                                fly_segments, fuel_flow_kgps, route_cost)
from skyroute.weather import ISA_TEMPERATURE_K, make_jet_stream, make_uniform


BBOX = (30.0, 70.0, -20.0, 40.0)


def still_air(temp=ISA_TEMPERATURE_K):
    return make_uniform(0.0, 0.0, temp, BBOX)


class TestFuelFlow:
    def test_reference_conditions(self):
        spec = default_spec()
        assert fuel_flow_kgps(spec, spec.ref_mass_kg, ISA_TEMPERATURE_K) == \
            pytest.approx(spec.base_fuel_flow_kgps, rel=1e-15)

    def test_closed_form(self):
        spec = AircraftSpec(60_000, 40_000, 77_000, 230.0, 0.65, 1.0, 0.002)
        flow = fuel_flow_kgps(spec, 66_000, 298.15)
        assert flow == pytest.approx(0.65 * (66_000 / 60_000) * (1 + 0.002 * 10),
                                     rel=1e-15)

    @given(st.floats(42_000, 77_000), st.floats(220, 320))
    @settings(max_examples=100)
    def test_monotone_in_mass_and_temperature(self, mass, temp):
        spec = default_spec()
        assert fuel_flow_kgps(spec, mass + 100, temp) > fuel_flow_kgps(spec, mass, temp)
        assert fuel_flow_kgps(spec, mass, temp + 1) > fuel_flow_kgps(spec, mass, temp)


class TestFlySegment:
    def test_zero_length(self):
        spec = default_spec()
        p = GeoPoint(48.0, 11.0, 10_000)
        res = fly_segment(spec, AircraftState(p, 60_000), p, still_air())
        assert res.fuel_kg == 0.0 and res.time_s == 0.0
        assert res.end_state.mass_kg == 60_000

    def test_single_substep_closed_form(self):
        # One substep, still air, ISA: fuel = flow(m0) * d / tas exactly.
        spec = default_spec()
        a = GeoPoint(48.0, 11.0, 10_000)
        b = GeoPoint(50.0, 11.0, 10_000)
        d = great_circle_distance(a, b)
        res = fly_segment(spec, AircraftState(a, 60_000), b, still_air(), substeps=1)
        expected = fuel_flow_kgps(spec, 60_000, ISA_TEMPERATURE_K) * d / spec.tas_ms
        assert res.fuel_kg == pytest.approx(expected, rel=1e-12)
        assert res.time_s == pytest.approx(d / spec.tas_ms, rel=1e-12)

    def test_product_form_mass_threading(self):
        # mass_exponent = 1 makes each piece multiply mass by (1 - c), so
        # total fuel has the closed form m0 * (1 - (1 - c)^substeps).
        spec = default_spec()
        assert spec.mass_exponent == 1.0
        a = GeoPoint(48.0, 11.0, 10_000)
        b = GeoPoint(52.0, 11.0, 10_000)
        d = great_circle_distance(a, b)
        for substeps in (1, 2, 4, 8):
            c = spec.base_fuel_flow_kgps / spec.ref_mass_kg * \
                (d / substeps) / spec.tas_ms
            expected = 60_000 * (1 - (1 - c) ** substeps)
            res = fly_segment(spec, AircraftState(a, 60_000), b, still_air(),
                              substeps=substeps)
            assert res.fuel_kg == pytest.approx(expected, rel=1e-12)

    def test_head_tail_wind_ratio(self):
        # Time ratio between headwind and tailwind legs is (tas+w)/(tas-w);
        # with mass_exponent handled by short legs the fuel ratio is close.
        spec = default_spec()
        # Equator leg: the great-circle track is exactly due east there.
        a = GeoPoint(0.0, 10.0, 10_000)
        b = GeoPoint(0.0, 12.0, 10_000)
        eq_bbox = (-10.0, 10.0, -20.0, 40.0)
        tail = fly_segment(spec, AircraftState(a, 60_000), b,
                           make_uniform(30.0, 0.0, ISA_TEMPERATURE_K, eq_bbox),
                           substeps=1)
        head = fly_segment(spec, AircraftState(a, 60_000), b,
                           make_uniform(-30.0, 0.0, ISA_TEMPERATURE_K, eq_bbox),
                           substeps=1)
        ratio = (spec.tas_ms + 30.0) / (spec.tas_ms - 30.0)
        assert head.time_s / tail.time_s == pytest.approx(ratio, rel=1e-6)
        assert head.fuel_kg > tail.fuel_kg

    def test_crosswind_does_not_change_time(self):
        # Pure crosswind has zero along-track component on an east-west leg.
        spec = default_spec()
        a = GeoPoint(0.0, 10.0, 10_000)
        b = GeoPoint(0.0, 12.0, 10_000)
        eq_bbox = (-10.0, 10.0, -20.0, 40.0)
        calm = fly_segment(spec, AircraftState(a, 60_000), b,
                           make_uniform(0.0, 0.0, ISA_TEMPERATURE_K, eq_bbox),
                           substeps=1)
        cross = fly_segment(spec, AircraftState(a, 60_000), b,
                            make_uniform(0.0, 25.0, ISA_TEMPERATURE_K, eq_bbox),
                            substeps=1)
        assert cross.time_s == pytest.approx(calm.time_s, rel=1e-9)

    def test_ground_speed_floor(self):
        spec = AircraftSpec(60_000, 40_000, 77_000, 150.0, 0.65, 1.0, 0.002)
        a = GeoPoint(48.0, 10.0, 10_000)
        b = GeoPoint(48.0, 11.0, 10_000)
        res = fly_segment(spec, AircraftState(a, 60_000), b,
                          make_uniform(-140.0, 0.0, ISA_TEMPERATURE_K, BBOX),
                          substeps=1)
        assert res.gs_floor_hit
        d = great_circle_distance(a, b)
        assert res.time_s == pytest.approx(d / GROUND_SPEED_FLOOR_MS, rel=1e-9)

    def test_warm_air_burns_more(self):
        spec = default_spec()
        a = GeoPoint(48.0, 10.0, 10_000)
        b = GeoPoint(50.0, 10.0, 10_000)
        cold = fly_segment(spec, AircraftState(a, 60_000), b, still_air(278.15))
        warm = fly_segment(spec, AircraftState(a, 60_000), b, still_air(298.15))
        assert warm.fuel_kg > cold.fuel_kg

    def test_infeasible_below_empty_mass(self):
        spec = default_spec()
        a = GeoPoint(40.0, -5.0, 10_000)
        b = GeoPoint(65.0, 30.0, 10_000)
        with pytest.raises(Infeasible):
            fly_segment(spec, AircraftState(a, spec.empty_mass_kg + 5.0), b,
                        still_air())


#: TAS 150 m/s: a 130 m/s headwind puts ground speed at the floor, 140 below it.
SLOW_SPEC = AircraftSpec(60_000, 40_000, 77_000, 150.0, 0.65, 1.0, 0.002)

FIELDS = [
    still_air(),
    make_jet_stream(BBOX, 50.0, 60.0, 4.0, seed=3),
    make_uniform(-(SLOW_SPEC.tas_ms - GROUND_SPEED_FLOOR_MS), 0.0, 300.0, BBOX),
    make_uniform(-140.0, 0.0, 280.0, BBOX),
]

segments = st.lists(
    st.tuples(st.floats(25, 75), st.floats(-25, 45),        # start, partly off grid
              st.floats(-3, 3), st.floats(-3, 3),           # end offset
              st.booleans(),                                # zero length
              st.floats(40_000, 77_000)),                   # start mass
    min_size=1, max_size=8)


def assert_matches_scalar(spec, segs, field, substeps):
    """fly_segments agrees with fly_segment on every segment, errors included."""
    starts = [GeoPoint(lat, lon) for lat, lon, *_ in segs]
    ends = [a if zero else GeoPoint(max(-90.0, min(90.0, a.lat_deg + dlat)),
                                    a.lon_deg + dlon)
            for a, (_lat, _lon, dlat, dlon, zero, _m) in zip(starts, segs)]
    masses = [m for *_, m in segs]
    fuel, errors = fly_segments(
        spec, [a.lat_deg for a in starts], [a.lon_deg for a in starts], masses,
        [b.lat_deg for b in ends], [b.lon_deg for b in ends], field, substeps)
    for n, (a, b, m) in enumerate(zip(starts, ends, masses)):
        try:
            want = fly_segment(spec, AircraftState(a, m), b, field, substeps).fuel_kg
        except SkyrouteError as exc:
            assert type(errors[n]) is type(exc) and str(errors[n]) == str(exc)
            assert math.isnan(fuel[n])
            continue
        assert n not in errors
        assert abs(fuel[n] - want) <= 1e-12 * want


class TestFlySegments:
    @given(st.sampled_from([default_spec(), SLOW_SPEC]), segments,
           st.sampled_from(FIELDS), st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar(self, spec, segs, field, substeps):
        assert_matches_scalar(spec, segs, field, substeps)

    def test_edge_cases_match_scalar(self):
        segs = [(48.0, 11.0, 0.5, 1.0, False, 60_000.0),   # ordinary
                (48.0, 11.0, 0.0, 0.0, True, 60_000.0),    # zero length
                (75.0, 11.0, 0.0, 0.0, True, 60_000.0),    # zero length off grid
                (69.5, 11.0, 2.0, 0.0, False, 60_000.0),   # leaves the grid
                (48.0, 11.0, 2.0, 2.0, False, 40_100.0),   # falls below empty
                (48.0, 11.0, 0.0, 1.0, False, 60_000.0)]   # due east
        for field in FIELDS:
            for substeps in (1, 4):
                assert_matches_scalar(SLOW_SPEC, segs, field, substeps)
        _fuel, errors = fly_segments(
            default_spec(), [69.5, 48.0], [11.0, 11.0], [60_000.0, 40_100.0],
            [71.5, 50.0], [11.0, 13.0], still_air(), 4)
        assert isinstance(errors[0], OutOfDomain)
        assert isinstance(errors[1], Infeasible)

    def test_floor_is_hit(self):
        # Due west at TAS 150 m/s into a 140 m/s wind: ground speed floored.
        a, b = GeoPoint(48.0, 11.0), GeoPoint(48.0, 10.0)
        fld = make_uniform(140.0, 0.0, ISA_TEMPERATURE_K, BBOX)
        res = fly_segment(SLOW_SPEC, AircraftState(a, 60_000), b, fld, 1)
        assert res.gs_floor_hit
        fuel, _ = fly_segments(SLOW_SPEC, [a.lat_deg], [a.lon_deg], [60_000],
                               [b.lat_deg], [b.lon_deg], fld, 1)
        assert fuel[0] == pytest.approx(res.fuel_kg, rel=1e-12)

    def test_rejects_zero_substeps(self):
        with pytest.raises(ValueError):
            fly_segments(default_spec(), [48.0], [11.0], [60_000], [49.0],
                         [11.0], still_air(), 0)


class TestRouteCost:
    def test_matches_segment_sum(self):
        spec = default_spec()
        pts = [GeoPoint(46.0, 5.0, 10_000), GeoPoint(48.0, 8.0, 10_000),
               GeoPoint(50.0, 11.0, 10_000)]
        fld = make_uniform(10.0, 5.0, 290.0, BBOX)
        state = AircraftState(pts[0], 62_000)
        r1 = fly_segment(spec, state, pts[1], fld)
        r2 = fly_segment(spec, r1.end_state, pts[2], fld)
        total, end = route_cost(spec, state, pts, fld)
        assert total == pytest.approx(r1.fuel_kg + r2.fuel_kg, rel=1e-15)
        assert end.mass_kg == pytest.approx(r2.end_state.mass_kg, rel=1e-15)

    def test_requires_two_waypoints(self):
        spec = default_spec()
        p = GeoPoint(46.0, 5.0, 10_000)
        with pytest.raises(ValueError):
            route_cost(spec, AircraftState(p, 60_000), [p], still_air())

    def test_detour_costs_more_in_still_air(self):
        spec = default_spec()
        a = GeoPoint(46.0, 5.0, 10_000)
        b = GeoPoint(50.0, 11.0, 10_000)
        dog = GeoPoint(49.5, 6.0, 10_000)
        direct, _ = route_cost(spec, AircraftState(a, 62_000), [a, b], still_air())
        detour, _ = route_cost(spec, AircraftState(a, 62_000), [a, dog, b],
                               still_air())
        assert detour > direct


class TestAircraftSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AircraftSpec(60_000, 65_000, 77_000, 230.0, 0.65, 1.0, 0.002)
        with pytest.raises(ValueError):
            AircraftSpec(60_000, 40_000, 77_000, 120.0, 0.65, 1.0, 0.002)
        with pytest.raises(ValueError):
            AircraftSpec(60_000, 40_000, 77_000, 230.0, -0.1, 1.0, 0.002)

    def test_json_round_trip(self, tmp_path):
        spec = default_spec()
        path = tmp_path / "ac.json"
        spec.to_json(str(path))
        assert AircraftSpec.from_json(str(path)) == spec

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            AircraftSpec.from_dict({"ref_mass_kg": 60_000})
