"""Plans checked against every path of lattices small enough to enumerate.

The oracle shares no code with the search: it walks the lattice's columns
itself and flies each path leg by leg with `fly_segment` from the
reference mass, so it reads neither the edge table nor the lattice's
geometry pass. The paths are those the search may take: from the centre
column of row 0, at most one column per row, within the lattice, and into
the goal from any column of row I-2.

Fuel *equality* with the least flown fuel is not asserted: the searches
minimise fuel at per-row nominal masses, a proxy that picks a dearer path
on some trips.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from skyroute.geo import GeoPoint, great_circle_distance
from skyroute.lattice import Corridor, build_lattice
from skyroute.perfmodel import AircraftState, default_spec, fly_segment
from skyroute.search import _heuristics, row_dp
from skyroute.weather import ISA_TEMPERATURE_K, make_jet_stream, make_uniform

SPEC = default_spec()
SUBSTEPS = 2
#: Covers every trip drawn below with its lateral columns and the bulge of
#: its great circles, so no leg leaves the grid.
BBOX = (25.0, 75.0, -30.0, 50.0)


@st.composite
def fields(draw):
    """Still air, a moderate jet as `make_weather("jet")` builds it, or a
    strong narrow one as perfbench's strong-jet workloads draw it."""
    kind = draw(st.sampled_from(["uniform", "jet", "strong-jet"]))
    if kind == "uniform":
        return make_uniform(0.0, 0.0, ISA_TEMPERATURE_K, BBOX)
    seed = draw(st.integers(0, 2**16))
    core_lat = draw(st.floats(44.0, 56.0))
    if kind == "jet":
        return make_jet_stream(BBOX, core_lat, 40.0, 4.0, seed=seed)
    return make_jet_stream(BBOX, core_lat, draw(st.floats(100.0, 120.0)),
                           draw(st.floats(1.5, 2.0)), seed=seed)


@st.composite
def trips(draw):
    """A lattice of I <= 7 rows and J <= 7 columns at one level between two
    points 300-2,500 km apart, and a weather field."""
    def point():
        return GeoPoint(draw(st.floats(38.0, 58.0)),
                        draw(st.floats(-8.0, 28.0)), 10_000.0)

    origin, destination = point(), point()
    assume(300e3 <= great_circle_distance(origin, destination) <= 2_500e3)
    lattice = build_lattice(origin, destination, draw(st.integers(2, 7)),
                            draw(st.sampled_from([1, 3, 5, 7])), 1,
                            draw(st.floats(10e3, 150e3)))
    return lattice, draw(fields())


@st.composite
def corridors(draw, lattice):
    """Windows of a random width, row 0's holding the centre column, each
    at most one column from the previous row's."""
    I, J, _H = lattice.dims
    c = lattice.center_column
    w = draw(st.integers(1, J))
    j_min = [draw(st.integers(max(0, c - w + 1), min(c, J - w)))]
    for _ in range(I - 1):
        j_min.append(min(max(j_min[-1] + draw(st.sampled_from([-1, 0, 1])),
                             0), J - w))
    return Corridor(tuple(j_min), w)


def start(lattice):
    return AircraftState(lattice.origin, SPEC.ref_mass_kg)


def flown_paths(lattice, field, i, j):
    """(columns, end state) of every path from node (i, j) to the goal,
    flown leg by leg with `fly_segment` from the reference mass. Paths
    that share their first legs share those legs' flights."""
    I, J, _H = lattice.dims

    def walk(i, j, state, cols):
        if i == I - 2:
            yield cols, fly_segment(SPEC, state, lattice.destination, field,
                                    SUBSTEPS).end_state
            return
        for k in (j - 1, j, j + 1):
            if 0 <= k < J:
                yield from walk(i + 1, k, fly_segment(
                    SPEC, state, lattice.node((i + 1, k, 0)), field,
                    SUBSTEPS).end_state, cols + (k,))

    return walk(i, j, AircraftState(lattice.node((i, j, 0)),
                                    SPEC.ref_mass_kg), (j,))


def flown_fuel(lattice, field):
    """{columns: fuel} of every path from the start."""
    return {cols: SPEC.ref_mass_kg - state.mass_kg for cols, state in
            flown_paths(lattice, field, 0, lattice.center_column)}


def inside(corridor, cols):
    return all(corridor.j_min[i] <= j <= corridor.j_max(i)
               for i, j in enumerate(cols) if i > 0)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_plan_fuel_never_below_the_least_flown(data):
    lattice, field = data.draw(trips())
    corridor = data.draw(corridors(lattice))
    fuel = flown_fuel(lattice, field)
    full = row_dp(lattice, None, SPEC, start(lattice), field, SUBSTEPS)
    assert full.total_fuel_kg >= min(fuel.values()) * (1 - 1e-12)
    hybrid = row_dp(lattice, corridor, SPEC, start(lattice), field, SUBSTEPS)
    assert hybrid.total_fuel_kg >= min(
        f for cols, f in fuel.items() if inside(corridor, cols)) * (1 - 1e-12)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_segments_are_the_waypoints_flown(data):
    lattice, field = data.draw(trips())
    corridor = data.draw(st.one_of(st.none(), corridors(lattice)))
    res = row_dp(lattice, corridor, SPEC, start(lattice), field, SUBSTEPS)
    route = [GeoPoint(*p) for p in zip(res.lat_deg, res.lon_deg, res.alt_m)]
    state = start(lattice)
    for n, to in enumerate(route[1:]):
        leg = fly_segment(SPEC, state, to, field, SUBSTEPS)
        assert res.legs.fuel[n] == pytest.approx(leg.fuel_kg, rel=1e-9)
        assert res.legs.time[n] == pytest.approx(leg.time_s, rel=1e-9)
        state = leg.end_state


@given(trips())
@settings(max_examples=50, deadline=None)
def test_heuristic_bounds_every_path_to_the_goal(trip):
    # A path from a node that burns the share S of any start mass burns
    # at least empty * S / (1 - S): from less, it would land below empty.
    lattice, field = trip
    I, J, _H = lattice.dims
    h = _heuristics(lattice, SPEC, field, lattice.lat_deg, lattice.lon_deg)
    for i in range(I - 1):
        for j in range(J):
            for _cols, state in flown_paths(lattice, field, i, j):
                share = 1.0 - state.mass_kg / SPEC.ref_mass_kg
                assert h[i, j] <= SPEC.empty_mass_kg * share / (1.0 - share)
