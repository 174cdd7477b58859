import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from skyroute.errors import Infeasible, NoPath, OutOfDomain, SkyrouteError
from skyroute.geo import (GeoPoint, azimuth, great_circle_distance,
                          great_circle_distances, intermediate_point)
from skyroute.lattice import (CoarseRoute, Corridor, build_corridor,
                              build_lattice, is_reachable, successors)
from skyroute.perfmodel import (AircraftState, SegmentResult, default_spec,
                                fly_route, fly_segment, route_cost,
                                segments_fuel, substep_geometry)
from skyroute.search import (_column_windows, _edge_table, _fly_lattice,
                             _nominal_masses, astar, min_specific_burn,
                             nominal_mass_profile, row_dp)
from skyroute.weather import make_jet_stream, make_uniform

SPEC = default_spec()
ORIGIN = GeoPoint(48.35, 11.79, 10_000)
DEST = GeoPoint(52.37, 13.52, 10_000)
BBOX = (30.0, 70.0, -20.0, 40.0)
#: A grid that Munich -> Berlin lattices cross on both sides.
NARROW_BBOX = (47, 54, 11.5, 13.8)


def still_air():
    return make_uniform(0.0, 0.0, 288.15, BBOX)


def jet(seed=5):
    return make_jet_stream(BBOX, 50.0, 45.0, 4.0, seed=seed)


def gc_route(o, d, n=5):
    return CoarseRoute(tuple(intermediate_point(o, d, k / (n - 1))
                             for k in range(n)))


def cold_burner():
    """A spec whose flow rises as it cools (temp_sensitivity -0.02), in a
    uniform 200 K field: 2.76 times the ISA flow."""
    return (replace(SPEC, temp_sensitivity=-0.02),
            make_uniform(0.0, 0.0, 200.0, BBOX))


def start_state(mass=62_000.0):
    return AircraftState(ORIGIN, mass)


def waypoints(res):
    """A search result's waypoints as `GeoPoint`s."""
    return [GeoPoint(*p) for p in zip(res.lat_deg, res.lon_deg, res.alt_m)]


class TestNominalMassProfile:
    def test_decreasing_and_bounded(self):
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        masses = nominal_mass_profile(lat, SPEC, start_state(), still_air(), 2)
        assert masses[0] == 62_000.0
        assert all(a > b for a, b in zip(masses, masses[1:]))
        assert masses[-1] > SPEC.empty_mass_kg

    @pytest.mark.parametrize("width", [None, 1, 3])
    def test_read_off_the_lattice_flight(self, width):
        # The searches thread mass along the centerline legs of their one
        # geometry pass, which a corridor may leave out of its windows.
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        cor = None if width is None else build_corridor(
            lat, gc_route(ORIGIN, DEST), width)
        for spec, fld in ((SPEC, still_air()), (SPEC, jet())):
            flight = _fly_lattice(lat, cor, spec, fld, 3)
            assert _nominal_masses(flight, start_state()) \
                == nominal_mass_profile(lat, spec, start_state(), fld, 3)
        # A centerline that leaves the grid, and one that falls below the
        # empty mass halfway (about 1,800 kg burned from 62,000 kg): both
        # raise the error `fly_segment` raises for the leg.
        heavy = replace(SPEC, ref_mass_kg=62_000.0, empty_mass_kg=61_000.0)
        for spec, fld, error in (
                (SPEC, make_uniform(0.0, 0.0, 288.15, (40, 50, 0, 20)),
                 OutOfDomain),
                (heavy, still_air(), Infeasible)):
            flight = _fly_lattice(lat, cor, spec, fld, 3)
            with pytest.raises(error) as got:
                _nominal_masses(flight, start_state())
            with pytest.raises(error) as want:
                nominal_mass_profile(lat, spec, start_state(), fld, 3)
            assert str(got.value) == str(want.value)


class TestLatticeFlight:
    @pytest.mark.parametrize("origin, dest, width", [
        (ORIGIN, DEST, None), (ORIGIN, DEST, 3),
        (GeoPoint(50.0, 170.0), GeoPoint(56.0, -172.0), None)],
        ids=["muc-ber", "muc-ber-w3", "antimeridian"])
    def test_node_vectors_give_the_lat_lon_geometry(self, origin, dest,
                                                     width):
        # Each node's unit vector, gathered per edge, flies every edge as
        # substep_geometry flies the edges' lat/lon, bit for bit: the
        # re-fly of a plan's waypoints sees the search's own legs.
        lat = build_lattice(origin, dest, 11, 7, 3, 150_000)
        cor = None if width is None else build_corridor(
            lat, gc_route(origin, dest), width)
        fld = make_jet_stream((30.0, 70.0, -180.0, 180.0), 52.0, 60.0, 3.0,
                              seed=2)
        flight = _fly_lattice(lat, cor, SPEC, fld, 4)
        rows, cols, slots = np.nonzero(flight.index >= 0)
        to_cols = np.where(rows == lat.dims[0] - 2, lat.center_column,
                           cols + slots - 1)
        want = substep_geometry(
            SPEC, lat.lat_deg[rows, cols], lat.lon_deg[rows, cols],
            lat.lat_deg[rows + 1, to_cols], lat.lon_deg[rows + 1, to_cols],
            fld, 4)
        got = flight.geometry.take(flight.index[rows, cols, slots])
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestMinSpecificBurn:
    def test_lower_bounds_every_edge(self):
        # Every finite table entry costs strictly more than the bound times
        # its edge's great-circle length. This strict consistency is what
        # makes the searches' equal-g parent rule independent of pop order.
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        # 140 m/s against TAS 150 m/s: ground speed hits the floor.
        slow = replace(SPEC, tas_ms=150.0)
        bearing = azimuth(ORIGIN.lat_deg, ORIGIN.lon_deg, DEST.lat_deg,
                          DEST.lon_deg)
        headwind = make_uniform(-140.0 * np.sin(bearing),
                                -140.0 * np.cos(bearing), 288.15, BBOX)
        assert fly_segment(slow, start_state(), lat.node((1, 2, 1)), headwind,
                           2).gs_floor_hit
        for spec, fld in ((SPEC, still_air()), (SPEC, jet()), (slow, headwind),
                          cold_burner()):
            assert min_specific_burn(spec, fld) > 0.0
            for width in (None, 3):
                cor = None if width is None else build_corridor(
                    lat, gc_route(ORIGIN, DEST), width)
                masses = nominal_mass_profile(lat, spec, start_state(), fld, 2)
                table = _edge_table(_fly_lattice(lat, cor, spec, fld, 2), masses)
                rows, cols, slots = np.nonzero(np.isfinite(table))
                to_cols = np.where(rows == lat.dims[0] - 2,
                                   lat.center_column, cols + slots - 1)
                length = great_circle_distances(
                    lat.lat_deg[rows, cols], lat.lon_deg[rows, cols],
                    lat.lat_deg[rows + 1, to_cols],
                    lat.lon_deg[rows + 1, to_cols])
                assert rows.size > 0
                assert np.all(table[rows, cols, slots]
                              > min_specific_burn(spec, fld) * length)

    def test_closed_form(self):
        fld = make_uniform(20.0, 0.0, 298.15, BBOX)
        msb = min_specific_burn(SPEC, fld)
        flow_min = SPEC.base_fuel_flow_kgps * (SPEC.empty_mass_kg / SPEC.ref_mass_kg) \
            * (1 + 0.002 * 10.0)
        assert msb == pytest.approx(flow_min / (SPEC.tas_ms + 20.0), rel=1e-12)


def reachable_edges(lat, cor):
    """Every edge the search may relax: from reachable nodes to reachable ones."""
    I, J, H = lat.dims
    frontier = [(0, lat.center_column, lat.center_level)]
    for i in range(I - 1):
        nxt = set()
        for u in frontier:
            for v in successors(lat, u):
                if cor is None or is_reachable(cor, v, I):
                    yield u, v
                    nxt.add(v)
        frontier = sorted(nxt)


def draw_corridor(data, I, J):
    """A random corridor: windows of a random width whose first columns
    walk by -1, 0 or +1 per row, row 0's holding the centre column."""
    w = data.draw(st.integers(1, J))
    c = (J - 1) // 2
    j_min = [data.draw(st.integers(max(0, c - w + 1), min(c, J - w)))]
    for step in data.draw(st.lists(st.sampled_from([-1, 0, 1]),
                                   min_size=I - 1, max_size=I - 1)):
        j_min.append(min(max(j_min[-1] + step, 0), J - w))
    return Corridor(tuple(j_min), w)


class TestColumnWindows:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_window_rule_is_is_reachable(self, data):
        # is_reachable within the start's cone: c ± i columns in row i, c
        # the centre column. Any corridor, not only the ones build_corridor
        # makes.
        I = data.draw(st.integers(3, 10))
        J = data.draw(st.sampled_from([1, 3, 5, 7]))
        cor = draw_corridor(data, I, J)
        c = (J - 1) // 2
        lo, hi = _column_windows(build_lattice(ORIGIN, DEST, I, J, 1, 60_000),
                                 cor)
        for i in range(1, I - 1):
            for j in range(J):
                assert (lo[i] <= j <= hi[i]) == (is_reachable(cor, (i, j, 0), I)
                                                 and abs(j - c) <= i)


class TestEdgeCostTable:
    @pytest.mark.parametrize("width", [None, 1, 3])
    @pytest.mark.parametrize("substeps", [1, 3])
    def test_every_entry_is_the_scalar_cost(self, width, substeps):
        # On every edge the search may relax, +inf exactly where fly_segment
        # raises: in the jet, on a grid the outer columns leave, and with
        # row 4's nominal mass 1 kg above empty.
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        cor = None if width is None else build_corridor(
            lat, gc_route(ORIGIN, DEST), width)
        edges = list(reachable_edges(lat, cor))
        assert edges
        last = lat.dims[0] - 1
        narrow = make_uniform(5.0, 0.0, 288.15, NARROW_BBOX)
        for fld, light_row in ((jet(), None), (narrow, None), (jet(), 4)):
            masses = nominal_mass_profile(lat, SPEC, start_state(), fld,
                                          substeps)
            if light_row is not None:
                masses[light_row] = SPEC.empty_mass_kg + 1.0
            table = _edge_table(_fly_lattice(lat, cor, SPEC, fld, substeps),
                                masses)
            refused = 0
            for u, v in edges:
                got = table[u[0], u[1], 1 if v[0] == last else v[1] - u[1] + 1]
                try:
                    want = fly_segment(SPEC, AircraftState(lat.node(u),
                                                           masses[u[0]]),
                                       lat.node(v), fld, substeps).fuel_kg
                except (OutOfDomain, Infeasible):
                    refused += 1
                    assert got == np.inf
                else:
                    assert got == pytest.approx(want, rel=1e-12)
            if light_row is not None or (fld is narrow and width is None):
                assert refused > 0

    @pytest.mark.parametrize("width", [None, 1, 3, 5])
    def test_finite_entries_leave_columns_the_start_reaches(self, width):
        # The windows lie inside the start's cone, so the table flies no
        # edge that no path can use. Includes a corridor that runs from
        # row 0's window, which holds the centre column 3, down to hug
        # column 0; the cone cuts its wider windows short in rows 1 and 2.
        lat = build_lattice(ORIGIN, DEST, 9, 7, 1, 60_000)
        cors = [None] if width is None else [
            build_corridor(lat, gc_route(ORIGIN, DEST), width),
            Corridor(tuple(max(4 - width - i, 0) for i in range(9)), width)]
        for cor in cors:
            reachable = {u[:2] for u, _v in reachable_edges(lat, cor)}
            table = _edge_table(_fly_lattice(lat, cor, SPEC, jet(), 2),
                                nominal_mass_profile(lat, SPEC, start_state(),
                                                     jet(), 2))
            rows, cols, _slots = np.nonzero(np.isfinite(table))
            assert rows.size > 0
            assert set(zip(rows.tolist(), cols.tolist())) <= reachable

    def test_cost_ignores_altitude(self):
        # The invariance behind one table entry per column pair: the
        # scalar cost of (i, j, h) -> (i+1, j', h') is the same for all h, h'.
        lat = build_lattice(ORIGIN, DEST, 7, 3, 5, 60_000)
        fld = jet()
        I, J, H = lat.dims
        for i in range(I - 1):
            for j in range(J):
                for jj in range(J) if i + 1 < I - 1 else [lat.center_column]:
                    fuels = {fly_segment(SPEC, AircraftState(lat.node((i, j, h)),
                                                             62_000.0),
                                         lat.node((i + 1, jj, hh)), fld, 2).fuel_kg
                             for h in range(H) for hh in range(H)}
                    assert len(fuels) == 1


class TestLazyEdgeFailures:
    """An edge whose midpoint leaves the weather grid is absent, not fatal.

    Munich -> Berlin on a 41x11x3 lattice whose outer columns cross the
    grid's east edge (lon 14.2) or, on the narrower grid, both edges.
    """

    def setup_method(self):
        self.lat = build_lattice(ORIGIN, DEST, 41, 11, 3,
                                 0.15 * great_circle_distance(ORIGIN, DEST))
        self.state = AircraftState(ORIGIN, SPEC.ref_mass_kg)

    def run(self, search, bbox, width):
        fld = make_uniform(5.0, 0.0, 288.15, bbox)
        cor = None if width is None else build_corridor(
            self.lat, gc_route(ORIGIN, DEST), width)
        return search(self.lat, cor, SPEC, self.state, fld, 4)

    def test_astar_plans_past_off_grid_edges(self):
        for search in (astar, row_dp):
            res = self.run(search, (47, 54, 11.0, 14.2), None)
            assert res.expanded_nodes == 1037

    def test_corridor_keeps_search_on_grid(self):
        for search in (astar, row_dp):
            assert self.run(search, NARROW_BBOX, 5).expanded_nodes == 545
        # At full width the outer columns leave the grid on both sides; the
        # plan is the optimum over the edges left.
        want = self.run(astar, NARROW_BBOX, 11)
        assert_same_result(self.run(row_dp, NARROW_BBOX, 11), want)
        assert want.expanded_nodes > 545


@pytest.mark.parametrize("search", [astar, row_dp])
@pytest.mark.parametrize("width", [None, 3])
def test_nan_entries_fly_through_the_reference(monkeypatch, search, width):
    # The batch refuses every edge, so no edge is left, and the error names
    # the refused edges.
    lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
    cor = None if width is None else build_corridor(
        lat, gc_route(ORIGIN, DEST), width)
    calls = []

    def refuse_all(spec, mass, geometry):
        calls.append(mass.size)
        return np.full(mass.shape, np.nan)

    monkeypatch.setattr("skyroute.search.segments_fuel", refuse_all)
    with pytest.raises(NoPath, match="^refused edges "):
        search(lat, cor, SPEC, start_state(), jet(), substeps=2)
    assert len(calls) == 1 and calls[0] > 0


class TestAstarAgainstOracle:
    """A* equals the row DP, the dynamic program over the same graph."""

    def test_exact_match_still_air(self):
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        a = astar(lat, None, SPEC, start_state(), still_air(), substeps=2)
        d = row_dp(lat, None, SPEC, start_state(), still_air(), substeps=2)
        assert_same_result(d, a)

    def test_exact_match_jet_random_instances(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            o = GeoPoint(rng.uniform(42, 56), rng.uniform(-5, 20), 10_000)
            dest = GeoPoint(rng.uniform(42, 56), rng.uniform(-5, 20), 10_000)
            if great_circle_distance(o, dest) < 300_000:
                continue
            lat = build_lattice(o, dest, 9, 5, 3,
                                0.15 * great_circle_distance(o, dest))
            fld = jet(seed=trial)
            s = AircraftState(o, 62_000)
            a = astar(lat, None, SPEC, s, fld, substeps=1)
            d = row_dp(lat, None, SPEC, s, fld, substeps=1)
            assert_same_result(d, a)

    def test_corridor_match(self):
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        cor = build_corridor(lat, gc_route(ORIGIN, DEST), 3)
        fld = jet()
        a = astar(lat, cor, SPEC, start_state(), fld, substeps=2)
        d = row_dp(lat, cor, SPEC, start_state(), fld, substeps=2)
        assert_same_result(d, a)


def assert_same_result(got, want):
    assert got.node_path == want.node_path
    assert got.search_cost_kg == want.search_cost_kg
    assert got.total_fuel_kg == want.total_fuel_kg
    assert got.expanded_nodes == want.expanded_nodes
    assert got.generated_nodes == want.generated_nodes


def solve(search, *args):
    """The search's result, or the class and message of its SkyrouteError."""
    try:
        return search(*args)
    except SkyrouteError as exc:
        return type(exc), str(exc)


def draw_trip(data):
    """A random origin and destination more than 50 km apart, whose
    lattices stay inside BBOX, and their distance."""
    lat0 = st.floats(42.0, 56.0)
    lon0 = st.floats(-5.0, 20.0)
    o = GeoPoint(data.draw(lat0), data.draw(lon0), 10_000)
    d = GeoPoint(data.draw(lat0), data.draw(lon0), 10_000)
    trip = great_circle_distance(o, d)
    assume(trip > 50_000)
    return o, d, trip


def draw_search_args(data, min_rows):
    """A random trip, lattice, field and corridor, and a seeded random share
    of refused edges.

    Returns the search arguments and `refusing(fly)`: `fly`, a stand-in for
    `segments_fuel`, with that share of its segments refused (NaN), which
    counts its calls in `fly_refused.calls`. Both searches call it once, on
    the same segments, so they see one mask.
    """
    o, d, trip = draw_trip(data)
    I = data.draw(st.integers(min_rows, 14))
    J = data.draw(st.sampled_from([1, 3, 5, 11]))
    H = data.draw(st.sampled_from([1, 2, 3, 5]))
    lat = build_lattice(o, d, I, J, H, 0.15 * trip)
    kind = data.draw(st.sampled_from(["still", "uniform", "jet"]))
    if kind == "still":
        fld = still_air()
    elif kind == "uniform":
        wind = st.floats(-40.0, 40.0)
        fld = make_uniform(data.draw(wind), data.draw(wind), 288.15, BBOX)
    else:
        fld = jet(seed=data.draw(st.integers(0, 50)))
    cor = None
    if data.draw(st.booleans()):
        cor = draw_corridor(data, I, J)
    share = data.draw(st.sampled_from([0.0, 0.05, 0.15, 1.0]))
    seed = data.draw(st.integers(0, 2**32 - 1))

    def refusing(fly):
        def fly_refused(*args):
            fly_refused.calls += 1
            fuel = fly(*args)
            refused = np.random.default_rng(seed).random(fuel.shape) < share
            return np.where(refused, np.nan, fuel)
        fly_refused.calls = 0
        return fly_refused

    return (lat, cor, SPEC, AircraftState(o, 62_000.0), fld,
            data.draw(st.integers(1, 3))), refusing


class TestRowDp:
    """row_dp reproduces astar: path, cost, fuel and both effort counts."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_equals_astar(self, data):
        args, refusing = draw_search_args(data, min_rows=2)
        fly = refusing(segments_fuel)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("skyroute.search.segments_fuel", fly)
            want = solve(astar, *args)
            got = solve(row_dp, *args)
        assert fly.calls == 2
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_result(got, want)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_astar_on_tied_costs(self, data):
        # Costs rounded up to a whole kg keep the heuristic consistent and
        # give many exact g ties between columns, where the (j, h) parent
        # rule decides the path.
        def whole_kg(*args):
            return np.ceil(segments_fuel(*args))

        args, refusing = draw_search_args(data, min_rows=3)
        fly = refusing(whole_kg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("skyroute.search.segments_fuel", fly)
            want = solve(astar, *args)
            got = solve(row_dp, *args)
        assert fly.calls == 2
        if isinstance(want, tuple):
            assert got == want
        else:
            assert want.search_cost_kg == int(want.search_cost_kg)
            assert_same_result(got, want)

    def test_equals_astar_near_the_flow_bound(self):
        # Just inside the largest temp_sensitivity AircraftSpec accepts, a
        # 180 K field leaves 0.1% of the reference fuel flow: costs stay
        # positive, so the heuristic stays a lower bound. A negative
        # temp_sensitivity in a cold field raises the flow, and the
        # heuristic with it.
        near = (replace(SPEC, temp_sensitivity=0.999 / 108.15),
                make_uniform(20.0, -10.0, 180.0, BBOX))
        lat = build_lattice(ORIGIN, DEST, 9, 5, 1, 60_000)
        for spec, fld in (near, cold_burner()):
            assert min_specific_burn(spec, fld) > 0.0
            want = astar(lat, None, spec, start_state(), fld)
            assert want.total_fuel_kg > 0.0
            assert_same_result(row_dp(lat, None, spec, start_state(), fld),
                               want)

    @pytest.mark.parametrize("H", [1, 2, 3, 5])
    def test_levels_follow_the_smaller_h_tie_break(self, H):
        lat = build_lattice(ORIGIN, DEST, 9, 5, H, 60_000)
        res = row_dp(lat, None, SPEC, start_state(), jet(), substeps=2)
        ch = lat.center_level
        assert [h for _i, _j, h in res.node_path] == \
            [ch] + [max(0, ch - i) for i in range(1, 8)] + [ch]
        assert_same_result(res, astar(lat, None, SPEC, start_state(), jet(),
                                      substeps=2))


class TestWildGuides:
    """Corridors of guides that weave across the lattice, outer columns
    included, as a guide bent by weather may."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_window_column_is_on_a_path(self, data):
        o, d, trip = draw_trip(data)
        I = data.draw(st.integers(3, 24))
        J = data.draw(st.sampled_from([3, 5, 7, 11]))
        H = data.draw(st.sampled_from([1, 3]))
        lat = build_lattice(o, d, I, J, H, 0.15 * trip)
        rows = sorted(data.draw(st.sets(st.integers(1, I - 2), min_size=1)))
        column = st.sampled_from([0, J - 1]) | st.integers(0, J - 1)
        cols = data.draw(st.lists(column, min_size=len(rows),
                                  max_size=len(rows)))
        guide = CoarseRoute((o, *(lat.node((i, j, 0))
                                  for i, j in zip(rows, cols)), d))
        cors = [build_corridor(lat, guide, w) for w in range(1, J + 1)]
        for narrow, wide in zip(cors, cors[1:]):
            for i in range(I):
                assert wide.j_min[i] <= narrow.j_min[i]
                assert wide.j_max(i) >= narrow.j_max(i)
        for cor in cors:
            start = lat.center_column
            reached = {v[:2] for _u, v in reachable_edges(lat, cor)}
            for i in range(1, I - 1):
                for j in range(cor.j_min[i], cor.j_max(i) + 1):
                    if abs(j - start) <= i:
                        assert (i, j) in reached
        # The jet's grid covers the lattice, so no edge is refused.
        fld = jet(seed=data.draw(st.integers(0, 50)))
        args = (lat, data.draw(st.sampled_from(cors)), SPEC,
                AircraftState(o, 62_000.0), fld, 1)
        assert_same_result(row_dp(*args), astar(*args))


class TestCorridorBehavior:
    def test_full_width_equals_unconstrained(self):
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        cor = build_corridor(lat, gc_route(ORIGIN, DEST), 5)
        fld = jet()
        free = astar(lat, None, SPEC, start_state(), fld, substeps=2)
        full = astar(lat, cor, SPEC, start_state(), fld, substeps=2)
        assert full.node_path == free.node_path
        assert full.total_fuel_kg == free.total_fuel_kg

    def test_narrow_corridor_expands_fewer_nodes(self):
        lat = build_lattice(ORIGIN, DEST, 21, 11, 3, 120_000)
        cor = build_corridor(lat, gc_route(ORIGIN, DEST), 3)
        fld = jet()
        free = astar(lat, None, SPEC, start_state(), fld, substeps=1)
        narrow = astar(lat, cor, SPEC, start_state(), fld, substeps=1)
        assert narrow.expanded_nodes < free.expanded_nodes
        assert narrow.total_fuel_kg >= free.total_fuel_kg - 1e-9

    def test_path_respects_corridor(self):
        lat = build_lattice(ORIGIN, DEST, 21, 11, 3, 120_000)
        cor = build_corridor(lat, gc_route(ORIGIN, DEST), 3)
        res = astar(lat, cor, SPEC, start_state(), jet(), substeps=1)
        for i, j, _h in res.node_path[1:-1]:
            assert cor.j_min[i] <= j <= cor.j_max(i)


class TestPathStructure:
    def test_path_spans_all_rows(self):
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        res = astar(lat, None, SPEC, start_state(), still_air(), substeps=2)
        assert [idx[0] for idx in res.node_path] == list(range(9))
        assert waypoints(res)[0].same_position(ORIGIN)
        assert waypoints(res)[-1].same_position(DEST)

    def test_adjacency_steps(self):
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        res = astar(lat, None, SPEC, start_state(), jet(), substeps=2)
        for (i0, j0, h0), (i1, j1, h1) in zip(res.node_path[:-2],
                                              res.node_path[1:-1]):
            assert i1 == i0 + 1 and abs(j1 - j0) <= 1 and abs(h1 - h0) <= 1

    def test_still_air_prefers_centerline(self):
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        res = astar(lat, None, SPEC, start_state(), still_air(), substeps=2)
        assert all(j == lat.center_column for _i, j, _h in res.node_path)

    def test_jet_riding_pays_off(self):
        # Eastbound trip under a jet north of the direct track: the optimal
        # path should burn no more than the forced centerline.
        o = GeoPoint(48.0, -3.0, 10_000)
        d = GeoPoint(49.0, 18.0, 10_000)
        lat = build_lattice(o, d, 21, 11, 1, 250_000)
        fld = make_jet_stream(BBOX, 51.0, 55.0, 2.5, seed=2, perturbation=0.0)
        s = AircraftState(o, 64_000)
        free = astar(lat, None, SPEC, s, fld, substeps=1)
        cor1 = build_corridor(lat, gc_route(o, d), 1)
        pinned = astar(lat, cor1, SPEC, s, fld, substeps=1)
        assert free.total_fuel_kg <= pinned.total_fuel_kg + 1e-9

    def test_segments_are_the_flown_path(self):
        # The path is flown from the search's one geometry pass: its legs
        # equal fly_route's, in the jet, on a grid the outer columns leave,
        # and from a start mass light enough that the nominal masses differ
        # most from the flown ones.
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        narrow = make_uniform(5.0, 0.0, 288.15, NARROW_BBOX)
        light = start_state(SPEC.empty_mass_kg + 1_500.0)
        for cor, fld, state, search in itertools.product(
                (None, build_corridor(lat, gc_route(ORIGIN, DEST), 3)),
                (jet(), narrow), (start_state(), light), (astar, row_dp)):
            res = search(lat, cor, SPEC, state, fld, substeps=2)
            points, legs = waypoints(res), res.legs
            assert legs.mass[0] == state.mass_kg
            assert [SegmentResult(fuel, time, AircraftState(to, mass), hit)
                    for to, fuel, time, hit, mass in zip(
                        points[1:], legs.fuel, legs.time, legs.floor,
                        legs.mass[1:])] \
                == fly_route(SPEC, state, points, fld, 2)
            fuel, end = route_cost(SPEC, state, points, fld, 2)
            assert res.total_fuel_kg == fuel
            assert AircraftState(points[-1], legs.mass[-1]) == end

    def test_refly_consistency(self):
        # total_fuel_kg is the flown path; search_cost_kg the nominal
        # objective. They agree closely but need not match exactly.
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        res = astar(lat, None, SPEC, start_state(), jet(), substeps=2)
        assert res.total_fuel_kg == pytest.approx(res.search_cost_kg, rel=1e-3)
        assert res.legs.mass[-1] == pytest.approx(
            62_000 - res.total_fuel_kg, rel=1e-12)


def test_counters_positive_and_time_recorded():
    lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
    for search in (astar, row_dp):
        res = search(lat, None, SPEC, start_state(), still_air(), substeps=1)
        assert res.expanded_nodes > 0
        assert res.generated_nodes >= res.expanded_nodes
        assert list(res.stages) == ["geometry_s", "masses_s", "table_s",
                                    "solve_s", "path_s"]
        assert all(t > 0.0 for t in res.stages.values())
        assert res.wall_time_s == sum(res.stages.values())
