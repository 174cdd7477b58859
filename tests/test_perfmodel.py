import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from skyroute import perfmodel
from skyroute.errors import Infeasible, OutOfDomain, SkyrouteError
from skyroute.geo import (EARTH_RADIUS_M, GeoPoint, great_circle_distance,
                          haversine, intermediate_point, normalize_lon)
from skyroute.harness import (PlanRequest, make_weather, plan,
                              route_json_without_timings)
from skyroute.lattice import build_lattice
from skyroute.perfmodel import (GROUND_SPEED_FLOOR_MS, AircraftSpec,
                                AircraftState, default_spec, fly_leg,
                                fly_route, fly_segment, fuel_flow_kgps,
                                route_cost, segments_fuel, substep_geometry)
from skyroute.search import _edge_table, _fly_lattice, nominal_mass_profile
from skyroute.weather import (ISA_TEMPERATURE_K, make_jet_stream,
                              make_uniform, sample, sample_at)


BBOX = (30.0, 70.0, -20.0, 40.0)

#: A jet over the whole globe, so a segment may cross any meridian.
GLOBE = make_jet_stream((-90.0, 90.0, -180.0, 180.0), 45.0, 80.0, 8.0, seed=3)


def still_air(temp=ISA_TEMPERATURE_K):
    return make_uniform(0.0, 0.0, temp, BBOX)


class TestFuelFlow:
    def test_reference_conditions(self):
        spec = default_spec()
        assert fuel_flow_kgps(spec, spec.ref_mass_kg, ISA_TEMPERATURE_K) == \
            pytest.approx(spec.base_fuel_flow_kgps, rel=1e-15)

    def test_closed_form(self):
        spec = AircraftSpec(60_000, 40_000, 77_000, 230.0, 0.65, 0.002)
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
        # Fuel flow proportional to mass makes each piece multiply mass by
        # (1 - c), so total fuel has the closed form m0 * (1 - (1 - c)^substeps).
        spec = default_spec()
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
        # Time ratio between headwind and tailwind legs is (tas+w)/(tas-w),
        # and the headwind leg burns more.
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
        spec = AircraftSpec(60_000, 40_000, 77_000, 150.0, 0.65, 0.002)
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

    @given(st.floats(-80, 80), st.floats(-180, 180), st.floats(-15, 15),
           st.floats(-15, 15), st.integers(1, 4))
    @example(40.0, 10.0, 20.0, 0.0, 3)          # a meridian
    @example(50.0, 179.5, 2.0, 1.0, 2)          # across the antimeridian
    @example(48.0, 11.0, 0.0, 0.0, 4)           # zero length
    @example(-60.0, -179.0, 10.0, -3.0, 1)
    @settings(max_examples=200, deadline=None)
    def test_pieces_sample_the_intermediate_points(self, lat, lon, dlat,
                                                   dlon, substeps):
        # Piece k reads the weather that sample gives at the GeoPoint
        # intermediate_point gives for its mid fraction, bit for bit.
        a = GeoPoint(lat, lon, 10_000)
        b = GeoPoint(min(max(lat + dlat, -90.0), 90.0), lon + dlon, 10_000)
        seen = []

        def recording(fld, lat, lon):
            seen.append(sample_at(fld, lat, lon))
            return seen[-1]

        with mock.patch.object(perfmodel, "sample_at", recording):
            fly_segment(default_spec(), AircraftState(a, 70_000), b, GLOBE,
                        substeps)
        pieces = substeps if great_circle_distance(a, b) > 0.0 else 0
        want = [sample(GLOBE, intermediate_point(
                    a, b, (k / substeps + (k + 1) / substeps) / 2.0))
                for k in range(pieces)]
        assert seen == [(w.wind_east, w.wind_north, w.temperature)
                        for w in want]


#: TAS 150 m/s: a 130 m/s headwind puts ground speed at the floor, 140 below it.
SLOW_SPEC = AircraftSpec(60_000, 40_000, 77_000, 150.0, 0.65, 0.002)

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


def batch_fuel(spec, starts, ends, masses, field, substeps):
    """Fuel of the segments starts[n] -> ends[n] from masses[n], in one
    `substep_geometry` pass."""
    lat0, lon0 = np.array([(p.lat_deg, p.lon_deg) for p in starts]).T
    lat1, lon1 = np.array([(p.lat_deg, p.lon_deg) for p in ends]).T
    return segments_fuel(spec, np.array(masses, dtype=float), substep_geometry(
        spec, lat0, lon0, lat1, lon1, field, substeps))


def assert_matches_scalar(spec, segs, field, substeps):
    """The batch is NaN exactly where fly_segment raises, and agrees elsewhere."""
    starts = [GeoPoint(lat, lon) for lat, lon, *_ in segs]
    ends = [a if zero else GeoPoint(max(-90.0, min(90.0, a.lat_deg + dlat)),
                                    a.lon_deg + dlon)
            for a, (_lat, _lon, dlat, dlon, zero, _m) in zip(starts, segs)]
    masses = [m for *_, m in segs]
    fuel = batch_fuel(spec, starts, ends, masses, field, substeps)
    for n, (a, b, m) in enumerate(zip(starts, ends, masses)):
        try:
            want = fly_segment(spec, AircraftState(a, m), b, field, substeps).fuel_kg
        except SkyrouteError:
            assert math.isnan(fuel[n])
            continue
        assert abs(fuel[n] - want) <= 1e-12 * want


class TestFlySegments:
    @given(st.sampled_from([default_spec(), SLOW_SPEC]), segments,
           st.sampled_from(FIELDS), st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    # North along the grid's east edge (lon 40): the midpoints must stay on it.
    @example(default_spec(), [(30.5625, 40.0, 0.75, 0.0, False, 40158.0)],
             FIELDS[0], 4)
    # Tracks far shorter than the rounding of their own coordinates.
    @example(SLOW_SPEC, [(48.58782853301575, 0.0, 0.0, -1.778547935572993e-118,
                          False, 60_000.0)], FIELDS[2], 6)
    @example(SLOW_SPEC, [(35.5, 0.0, 0.0, 1.4e-45, False, 60_000.0)],
             FIELDS[3], 2)
    def test_matches_scalar(self, spec, segs, field, substeps):
        assert_matches_scalar(spec, segs, field, substeps)

    def test_edge_cases_match_scalar(self):
        segs = [(48.0, 11.0, 0.5, 1.0, False, 60_000.0),   # ordinary
                (48.0, 11.0, 0.0, 0.0, True, 60_000.0),    # zero length
                (75.0, 11.0, 0.0, 0.0, True, 60_000.0),    # zero length off grid
                (48.0, 11.0, 0.0, 0.0, True, 30_000.0),    # zero length, below empty
                (69.5, 11.0, 2.0, 0.0, False, 60_000.0),   # leaves the grid
                (48.0, 11.0, 2.0, 2.0, False, 40_100.0),   # falls below empty
                (48.0, 11.0, 0.0, 1.0, False, 60_000.0),   # due east
                # 1.3e-10 m east: both ends have one unit vector, a x b = 0.
                (48.0, 13.0, 0.0, 1.7763568394002505e-15, False, 60_000.0)]
        for field in FIELDS:
            for substeps in (1, 4):
                assert_matches_scalar(SLOW_SPEC, segs, field, substeps)
        # Off the grid, then below empty: NaN in the batch, raised by the reference.
        fuel = batch_fuel(
            default_spec(), [GeoPoint(69.5, 11.0), GeoPoint(48.0, 11.0)],
            [GeoPoint(71.5, 11.0), GeoPoint(50.0, 13.0)], [60_000.0, 40_100.0],
            still_air(), 4)
        assert math.isnan(fuel[0]) and math.isnan(fuel[1])
        with pytest.raises(OutOfDomain):
            fly_segment(default_spec(), AircraftState(GeoPoint(69.5, 11.0), 60_000.0),
                        GeoPoint(71.5, 11.0), still_air(), 4)
        with pytest.raises(Infeasible):
            fly_segment(default_spec(), AircraftState(GeoPoint(48.0, 11.0), 40_100.0),
                        GeoPoint(50.0, 13.0), still_air(), 4)
        # 7,383 km due west at the ground-speed floor: each of two pieces
        # has c = flow(1 kg) dt of about 2, so the share is about 2 after the
        # first; unmarked, the second would take it back to about 0.0007.
        floor_field = make_uniform(150.0, 0.0, ISA_TEMPERATURE_K,
                                   (-10.0, 10.0, -40.0, 40.0))
        floor_leg = [(0.0, 33.2, 0.0, -66.4, False, 60_000.0)]
        assert_matches_scalar(SLOW_SPEC, floor_leg, floor_field, 2)
        fuel = batch_fuel(SLOW_SPEC, [GeoPoint(0.0, 33.2)],
                          [GeoPoint(0.0, -33.2)], [60_000.0], floor_field, 2)
        assert math.isnan(fuel[0])
        with pytest.raises(Infeasible):
            fly_segment(SLOW_SPEC, AircraftState(GeoPoint(0.0, 33.2), 60_000.0),
                        GeoPoint(0.0, -33.2), floor_field, 2)

    def test_fuel_is_mass_times_burned_share(self):
        # Flow proportional to mass: a segment burns a share of its start
        # mass that its geometry fixes, at every mass.
        lat0, lon0 = np.array([46.0, 48.0, 50.0]), np.array([5.0, 11.0, 20.0])
        geometry = substep_geometry(default_spec(), lat0, lon0, lat0 + 1.5,
                                    lon0 - 2.0, FIELDS[1], 4)
        assert np.all((geometry.burned > 0.0) & (geometry.burned < 1.0))
        m = 41_000.0
        for mass in (m, 2 * m):
            assert np.array_equal(segments_fuel(default_spec(), mass, geometry),
                                  mass * geometry.burned)

    def test_floor_is_hit(self):
        # Due west at TAS 150 m/s into a 140 m/s wind: ground speed floored.
        a, b = GeoPoint(48.0, 11.0), GeoPoint(48.0, 10.0)
        fld = make_uniform(140.0, 0.0, ISA_TEMPERATURE_K, BBOX)
        res = fly_segment(SLOW_SPEC, AircraftState(a, 60_000), b, fld, 1)
        assert res.gs_floor_hit
        fuel = batch_fuel(SLOW_SPEC, [a], [b], [60_000], fld, 1)
        assert fuel[0] == pytest.approx(res.fuel_kg, rel=1e-12)

    def test_rejects_zero_substeps(self):
        with pytest.raises(ValueError):
            substep_geometry(default_spec(), np.array([48.0]), np.array([11.0]),
                             np.array([49.0]), np.array([11.0]), still_air(), 0)


def lat_lon_leg(spec, lat0, lon0, lat1, lon1, mass, field, substeps):
    """(fuel, time) of `fly_leg` as it was written on latitude and longitude
    before unit vectors: the track's initial azimuth, its direction along
    the track by Clairaut's relation, and each piece's midpoint slerped
    from the endpoints' trig."""
    total = haversine(lat0, lon0, lat1, lon1)
    if total == 0.0:
        return 0.0, 0.0
    phi0, phi1 = math.radians(lat0), math.radians(lat1)
    lam0, lam1 = math.radians(lon0), math.radians(lon1)
    dphi = math.radians(lat1 - lat0)
    dlam = math.radians(normalize_lon(lon1 - lon0))
    bearing = math.atan2(math.sin(dlam) * math.cos(phi1),
                         math.sin(dphi) + 2.0 * math.sin(phi0)
                         * math.cos(phi1) * math.sin(dlam / 2.0) ** 2)
    east = math.sin(bearing) * math.cos(phi0)
    north0 = math.cos(bearing) * math.cos(phi0)
    delta = total / EARTH_RADIUS_M
    burned = time = 0.0
    for k in range(substeps):
        mid = (k / substeps + (k + 1) / substeps) / 2.0
        fa = math.sin((1.0 - mid) * delta) / math.sin(delta)
        fb = math.sin(mid * delta) / math.sin(delta)
        x = (fa * math.cos(phi0) * math.cos(lam0)
             + fb * math.cos(phi1) * math.cos(lam1))
        y = (fa * math.cos(phi0) * math.sin(lam0)
             + fb * math.cos(phi1) * math.sin(lam1))
        z = fa * math.sin(phi0) + fb * math.sin(phi1)
        lon = lon0 if lon0 == lon1 else math.degrees(math.atan2(y, x))
        wind_east, wind_north, temperature = sample_at(
            field, math.degrees(math.atan2(z, math.hypot(x, y))),
            normalize_lon(lon))
        sigma = k / substeps * delta
        north = math.cos(sigma) * north0 - math.sin(phi0) * math.sin(sigma)
        gs = spec.tas_ms + ((wind_east * east + wind_north * north)
                            / math.hypot(east, north))
        dt = total / substeps / max(gs, GROUND_SPEED_FLOOR_MS)
        burned += fuel_flow_kgps(spec, 1.0, temperature) * dt * (1.0 - burned)
        time += dt
    return mass * burned, time


#: A 140 m/s west wind over the globe: flying west at TAS 150 m/s, ground
#: speed sits at the floor.
WEST_GALE = make_uniform(140.0, 0.0, ISA_TEMPERATURE_K,
                         (-90.0, 90.0, -180.0, 180.0))


class TestUnitVectorFlight:
    @given(st.sampled_from([default_spec(), SLOW_SPEC]), st.floats(-80, 80),
           st.floats(-180, 180), st.floats(-40, 40), st.floats(-60, 60),
           st.integers(1, 6), st.just(GLOBE))
    @example(default_spec(), 40.0, 10.0, 20.0, 0.0, 4, GLOBE)    # a meridian
    @example(default_spec(), 50.0, 179.5, 2.0, 3.0, 3, GLOBE)    # antimeridian
    @example(default_spec(), 48.0, 11.0, 0.0, 0.0, 4, GLOBE)     # zero length
    # Along 88.9N, passing the pole at 89.2 degrees.
    @example(default_spec(), 88.9, 0.0, 0.0, 90.0, 4, GLOBE)
    @example(default_spec(), 40.0, -5.0, -5.0, 80.0, 4, GLOBE)   # 6,835 km
    @example(SLOW_SPEC, 10.0, 20.0, 0.0, -5.0, 2, WEST_GALE)     # the floor
    @settings(max_examples=150, deadline=None)
    def test_matches_the_lat_lon_formulas(self, spec, lat0, lon0, dlat, dlon,
                                          substeps, field):
        # Scalar fly_leg and array substep_geometry fly a leg on its ends'
        # unit vectors as the formulas on latitude and longitude fly it.
        lat1 = min(max(lat0 + dlat, -89.9), 89.9)
        lon1 = normalize_lon(lon0 + dlon)
        total = haversine(lat0, lon0, lat1, lon1)
        # The direction comes from a x b, to about 1e-16 / delta radians;
        # from 1 km on, that moves ground speed by under 1e-12.
        assume(total == 0.0 or total >= 1_000.0)
        mass = spec.max_mass_kg
        want_fuel, want_time = lat_lon_leg(spec, lat0, lon0, lat1, lon1, mass,
                                           field, substeps)
        assume(mass - want_fuel >= spec.empty_mass_kg)
        fuel, time, _floor = fly_leg(spec, lat0, lon0, lat1, lon1, total,
                                     mass, field, substeps)
        geometry = substep_geometry(spec, np.array([lat0]), np.array([lon0]),
                                    np.array([lat1]), np.array([lon1]), field,
                                    substeps)
        for got_fuel, got_time in ((fuel, time), (mass * geometry.burned[0],
                                                  geometry.time[0])):
            assert got_fuel == pytest.approx(want_fuel, rel=1e-12)
            assert got_time == pytest.approx(want_time, rel=1e-12)


#: Random walks inside the jet field's grid: (dlat, dlon, repeat the
#: waypoint, which makes a zero-length leg).
walks = st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.booleans()),
                 min_size=1, max_size=10)


class TestFlyRoute:
    PTS = [GeoPoint(46.0, 5.0, 10_000), GeoPoint(48.0, 8.0, 10_000),
           GeoPoint(48.0, 8.0, 10_000), GeoPoint(50.0, 11.0, 10_000)]

    def test_threads_mass_leg_by_leg(self):
        spec = default_spec()
        fld = make_uniform(10.0, 5.0, 290.0, BBOX)
        # The start position comes from the route, the mass from the state.
        legs = fly_route(spec, AircraftState(GeoPoint(0.0, 0.0), 62_000),
                         self.PTS, fld)
        state = AircraftState(self.PTS[0], 62_000)
        for leg, wp in zip(legs, self.PTS[1:]):
            assert leg == fly_segment(spec, state, wp, fld)
            state = leg.end_state
        assert len(legs) == 3 and legs[1].fuel_kg == 0.0

    @given(st.sampled_from([default_spec(), SLOW_SPEC]), walks,
           st.floats(55_000, 77_000), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_each_leg_matches_segments_fuel(self, spec, walk, mass, substeps):
        route = [GeoPoint(50.0, 10.0, 10_000)]
        for dlat, dlon, repeat in walk:
            a = route[-1]
            route.append(a if repeat else GeoPoint(
                min(60.0, max(40.0, a.lat_deg + dlat)),
                min(30.0, max(-10.0, a.lon_deg + dlon)), 10_000))
        fld = FIELDS[1]
        legs = fly_route(spec, AircraftState(route[0], mass), route, fld, substeps)
        for a, b, leg in zip(route, route[1:], legs):
            fuel = batch_fuel(spec, [a], [b], [mass], fld, substeps)
            assert leg.fuel_kg == fuel[0]
            assert leg.end_state.position == b
            mass = leg.end_state.mass_kg

    @pytest.mark.parametrize("case", ["leaves-grid", "below-empty"])
    def test_errors_match_chained_fly_segment(self, monkeypatch, case):
        spec = default_spec()
        fld = still_air()
        route = [GeoPoint(lat, 10.0 + k, 10_000)
                 for k, lat in enumerate((60.0, 64.0, 68.0, 72.0, 74.0))]
        mass = 62_000.0
        if case == "below-empty":
            route = route[:3]
            # Near empty, leg 0 burns about two thirds of this; leg 1 then
            # runs out.
            mass = spec.empty_mass_kg + fly_segment(
                spec, AircraftState(route[0], 62_000.0), route[1], fld).fuel_kg
        state = AircraftState(route[0], mass)
        for k, wp in enumerate(route[1:]):
            try:
                state = fly_segment(spec, state, wp, fld).end_state
            except SkyrouteError as exc:
                want = exc
                break
        else:
            pytest.fail("the chained loop flew every leg")
        assert k == {"leaves-grid": 2, "below-empty": 1}[case]
        calls = []

        def counted(spec, lat0, lon0, lat1, lon1, *args):
            calls.append((lat0, lon0, lat1, lon1))
            return fly_leg(spec, lat0, lon0, lat1, lon1, *args)

        monkeypatch.setattr("skyroute.perfmodel.fly_leg", counted)
        with pytest.raises(type(want)) as raised:
            fly_route(spec, AircraftState(route[0], mass), route, fld)
        assert str(raised.value) == str(want)
        # Only the refused leg is flown again, and it is leg k. (The re-fly
        # is given the leg's positions; a flight ignores altitude.)
        a, b = route[k], route[k + 1]
        assert calls == [(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg)]

    def test_blocks_change_no_leg(self, monkeypatch):
        # A leg's geometry does not depend on its batch, which a plan
        # relies on: its nominal masses, edge table and path all read one
        # geometry pass over the lattice.
        spec = default_spec()
        route = [GeoPoint(46.0 + k % 3, 5.0 + k, 10_000) for k in range(7)]
        state = AircraftState(route[0], 62_000)
        requests = [PlanRequest(GeoPoint(48.35, 11.79, 10_000),
                                GeoPoint(52.37, 13.52, 10_000), (9, 5, 3),
                                weather="jet", unconstrained=unconstrained)
                    for unconstrained in (False, True)]
        lattice = build_lattice(requests[0].origin, requests[0].destination,
                                9, 5, 3, 60_000)
        fld = make_weather("jet", requests[0].origin, requests[0].destination)

        def outputs():
            masses = nominal_mass_profile(lattice, spec, state, fld, 3)
            return (fly_route(spec, state, route, FIELDS[1], 3),
                    [route_json_without_timings(plan(req)) for req in requests],
                    _edge_table(_fly_lattice(lattice, None, spec, fld, 3),
                                masses).tolist())

        whole = outputs()
        for points in (1, 3, 7):      # 1, 1 and 2 legs per block
            monkeypatch.setattr("skyroute.perfmodel.BLOCK_POINTS", points)
            assert outputs() == whole

    def test_route_cost_sums_the_legs(self):
        spec = default_spec()
        fld = make_jet_stream(BBOX, 50.0, 60.0, 4.0, seed=3)
        state = AircraftState(self.PTS[0], 62_000)
        legs = fly_route(spec, state, self.PTS, fld, 3)
        total, end = route_cost(spec, state, self.PTS, fld, 3)
        assert total == sum(leg.fuel_kg for leg in legs)
        assert end == legs[-1].end_state

    def test_requires_two_waypoints(self):
        p = GeoPoint(46.0, 5.0, 10_000)
        with pytest.raises(ValueError):
            fly_route(default_spec(), AircraftState(p, 60_000), [p], still_air())


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
        # Comparisons with NaN are false and inf passes the upper bounds.
        with pytest.raises(ValueError, match="max_mass_kg must be finite"):
            AircraftSpec(60_000, 40_000, math.inf, 230.0, 0.65, 0.002)
        with pytest.raises(ValueError, match="base_fuel_flow_kgps"):
            AircraftSpec(60_000, 40_000, 77_000, 230.0, math.nan, 0.002)
        with pytest.raises(ValueError):
            AircraftSpec(60_000, 65_000, 77_000, 230.0, 0.65, 0.002)
        with pytest.raises(ValueError):
            AircraftSpec(60_000, 0.0, 77_000, 230.0, 0.65, 0.002)
        with pytest.raises(ValueError):
            AircraftSpec(60_000, 40_000, 77_000, 120.0, 0.65, 0.002)
        with pytest.raises(ValueError):
            AircraftSpec(60_000, 40_000, 77_000, 230.0, -0.1, 0.002)
        # Fuel flow must stay positive from 180 K (the largest positive
        # temp_sensitivity, 1/108.15) to 330 K (the most negative, -1/41.85).
        for inside in (0.999 / 108.15, -0.999 / 41.85):
            AircraftSpec(60_000, 40_000, 77_000, 230.0, 0.65, inside)
        for outside in (1.001 / 108.15, -1.001 / 41.85, 0.02):
            with pytest.raises(ValueError, match="temp_sensitivity"):
                AircraftSpec(60_000, 40_000, 77_000, 230.0, 0.65, outside)

    def test_json_round_trip(self, tmp_path):
        spec = default_spec()
        path = tmp_path / "ac.json"
        spec.to_json(str(path))
        assert AircraftSpec.from_json(str(path)) == spec

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            AircraftSpec.from_dict({"ref_mass_kg": 60_000})

    def test_from_dict_unknown_field(self):
        raw = {**asdict(default_spec()), "mass_exponent": 1.0}
        with pytest.raises(ValueError, match="unknown fields: .'mass_exponent'"):
            AircraftSpec.from_dict(raw)
