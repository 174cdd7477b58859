import numpy as np
import pytest

from skyroute.errors import NoPath, OutOfDomain
from skyroute.geo import GeoPoint, great_circle_distance, intermediate_point
from skyroute.lattice import (CoarseRoute, build_corridor, build_lattice,
                              is_reachable, successors)
from skyroute.perfmodel import AircraftState, default_spec, fly_segment
from skyroute.search import (_column_windows, _edge_costs, _start_and_goal,
                             astar, dp_oracle, min_specific_burn,
                             nominal_mass_profile)
from skyroute.weather import make_jet_stream, make_uniform

SPEC = default_spec()
ORIGIN = GeoPoint(48.35, 11.79, 10_000)
DEST = GeoPoint(52.37, 13.52, 10_000)
BBOX = (30.0, 70.0, -20.0, 40.0)


def still_air():
    return make_uniform(0.0, 0.0, 288.15, BBOX)


def jet(seed=5):
    return make_jet_stream(BBOX, 50.0, 45.0, 4.0, seed=seed)


def gc_route(o, d, n=5):
    return CoarseRoute(tuple(intermediate_point(o, d, k / (n - 1))
                             for k in range(n)))


def start_state(mass=62_000.0):
    return AircraftState(ORIGIN, mass)


class TestNominalMassProfile:
    def test_decreasing_and_bounded(self):
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        masses = nominal_mass_profile(lat, SPEC, start_state(), still_air(), 2)
        assert masses[0] == 62_000.0
        assert all(a > b for a, b in zip(masses, masses[1:]))
        assert masses[-1] > SPEC.empty_mass_kg


class TestMinSpecificBurn:
    def test_lower_bounds_every_edge(self):
        # Nominal edge fuel per meter must never drop below the bound.
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        fld = jet()
        msb = min_specific_burn(SPEC, fld)
        res = astar(lat, None, SPEC, start_state(), fld, substeps=2)
        for a, b in zip(res.geo_path, res.geo_path[1:]):
            d = great_circle_distance(a, b)
            if d > 0:
                assert msb <= SPEC.base_fuel_flow_kgps / (SPEC.tas_ms - 150)

    def test_closed_form(self):
        fld = make_uniform(20.0, 0.0, 298.15, BBOX)
        msb = min_specific_burn(SPEC, fld)
        flow_min = SPEC.base_fuel_flow_kgps * (SPEC.empty_mass_kg / SPEC.ref_mass_kg) \
            * (1 - 0.002 * 10.0)
        assert msb == pytest.approx(flow_min / (SPEC.tas_ms + 20.0), rel=1e-12)


def reachable_edges(lat, cor):
    """Every edge the search may relax: from reachable nodes to reachable ones."""
    I, J, H = lat.dims
    start, _goal = _start_and_goal(lat, cor)
    frontier = [start]
    for i in range(I - 1):
        nxt = set()
        for u in frontier:
            for v in successors(lat, u):
                if cor is None or is_reachable(cor, v, I):
                    yield u, v
                    nxt.add(v)
        frontier = sorted(nxt)


class TestEdgeCostTable:
    @pytest.mark.parametrize("width", [None, 1, 3])
    @pytest.mark.parametrize("substeps", [1, 3])
    def test_every_entry_is_the_scalar_cost(self, width, substeps):
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        cor = None if width is None else build_corridor(
            lat, gc_route(ORIGIN, DEST), width)
        fld = jet()
        masses = nominal_mass_profile(lat, SPEC, start_state(), fld, substeps)
        start, _goal = _start_and_goal(lat, cor)
        lo, hi = _column_windows(lat, cor, start)
        cost = _edge_costs(lat, lo, hi, SPEC, masses, fld, substeps)
        edges = list(reachable_edges(lat, cor))
        assert edges
        for u, v in edges:
            want = fly_segment(SPEC, AircraftState(lat.node(u), masses[u[0]]),
                               lat.node(v), fld, substeps).fuel_kg
            assert cost(u, v) == pytest.approx(want, rel=1e-12)

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
    """An edge whose midpoint leaves the weather grid fails only when relaxed.

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
        res = self.run(astar, (47, 54, 11.0, 14.2), None)
        assert res.expanded_nodes == 1037
        with pytest.raises(OutOfDomain):
            self.run(dp_oracle, (47, 54, 11.0, 14.2), None)

    def test_corridor_keeps_search_on_grid(self):
        assert self.run(astar, (47, 54, 11.5, 13.8), 5).expanded_nodes == 545
        with pytest.raises(OutOfDomain):
            self.run(astar, (47, 54, 11.5, 13.8), 11)


class TestAstarAgainstOracle:
    def test_exact_match_still_air(self):
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        a = astar(lat, None, SPEC, start_state(), still_air(), substeps=2)
        d = dp_oracle(lat, None, SPEC, start_state(), still_air(), substeps=2)
        assert a.search_cost_kg == d.search_cost_kg
        assert a.total_fuel_kg == d.total_fuel_kg

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
            d = dp_oracle(lat, None, SPEC, s, fld, substeps=1)
            assert a.search_cost_kg == d.search_cost_kg
            assert a.node_path == d.node_path

    def test_corridor_match(self):
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        cor = build_corridor(lat, gc_route(ORIGIN, DEST), 3)
        fld = jet()
        a = astar(lat, cor, SPEC, start_state(), fld, substeps=2)
        d = dp_oracle(lat, cor, SPEC, start_state(), fld, substeps=2)
        assert a.search_cost_kg == d.search_cost_kg


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
        assert res.geo_path[0].same_position(ORIGIN)
        assert res.geo_path[-1].same_position(DEST)

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

    def test_refly_consistency(self):
        # total_fuel_kg is the re-flown path; search_cost_kg the nominal
        # objective. They agree closely but need not match exactly.
        lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
        res = astar(lat, None, SPEC, start_state(), jet(), substeps=2)
        assert res.total_fuel_kg == pytest.approx(res.search_cost_kg, rel=1e-3)
        assert res.final_state.mass_kg == pytest.approx(
            62_000 - res.total_fuel_kg, rel=1e-12)


def test_dp_oracle_size_guard():
    lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
    big = build_lattice(ORIGIN, DEST, 2_000, 11, 3, 60_000)
    with pytest.raises(ValueError):
        dp_oracle(big, None, SPEC, start_state(), still_air())
    # The small one works fine.
    dp_oracle(lat, None, SPEC, start_state(), still_air(), substeps=1)


def test_counters_positive_and_time_recorded():
    lat = build_lattice(ORIGIN, DEST, 9, 5, 3, 60_000)
    res = astar(lat, None, SPEC, start_state(), still_air(), substeps=1)
    assert res.expanded_nodes > 0
    assert res.generated_nodes >= res.expanded_nodes
    assert res.wall_time_s > 0.0
