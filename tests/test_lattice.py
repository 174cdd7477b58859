import itertools
import math

import pytest
import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from skyroute.errors import (DegenerateTrip, DistanceOutOfRange, NoSuccessors,
                             WidthOutOfRange)
from skyroute.geo import (GeoPoint, azimuth, displace_at,
                          great_circle_distance, intermediate_point)
from skyroute.lattice import (CoarseRoute, Corridor, EdgeSet, Shape,
                              _guide_points, _track,
                              build_corridor, build_lattice, is_reachable,
                              shape, successors, window_edges)
from skyroute.search import _column_windows

ORIGIN = GeoPoint(48.35, 11.79, 10_000)
DEST = GeoPoint(52.37, 13.52, 10_000)


def small_lattice(I=9, J=5, H=3, halfwidth=60_000.0):
    return build_lattice(ORIGIN, DEST, I, J, H, halfwidth)


def gc_route(n=5):
    pts = [intermediate_point(ORIGIN, DEST, k / (n - 1)) for k in range(n)]
    return CoarseRoute(tuple(pts))


def scalar_columns(origin, destination, I, J, halfwidth):
    """Reference: the (lat, lon) column arrays built node by node with
    scalar `displace_at`, the centre column on the track itself."""
    center = (J - 1) // 2
    half = max(center, 1)
    lat = np.empty((I, J))
    lon = np.empty((I, J))
    lat[0], lon[0] = origin.lat_deg, origin.lon_deg
    lat[I - 1], lon[I - 1] = destination.lat_deg, destination.lon_deg
    for i in range(1, I - 1):
        track = intermediate_point(origin, destination, i / (I - 1))
        bearing = azimuth(track.lat_deg, track.lon_deg, destination.lat_deg,
                          destination.lon_deg)
        for j in range(J):
            offset = (j - center) / half * halfwidth
            lat[i, j], lon[i, j] = (
                (track.lat_deg, track.lon_deg) if offset == 0.0
                else displace_at(track.lat_deg, track.lon_deg,
                                 math.cos(bearing) * offset,
                                 -math.sin(bearing) * offset))
    return lat, lon


# Anywhere, and often close to a pole, where the projection degenerates.
trip_latitudes = st.one_of(st.floats(-90, 90), st.floats(80, 90),
                           st.floats(-90, -80))
trip_points = st.builds(GeoPoint, trip_latitudes, st.floats(-180, 180),
                        st.just(10_000.0))


class TestBuildLattice:
    @given(trip_points, trip_points, st.integers(2, 81),
           st.integers(0, 10).map(lambda k: 2 * k + 1),
           st.one_of(st.just(0.0), st.floats(1.0, 300_000),
                     st.floats(300_000, 12_000_000)))
    # Column 0 refused for: its midpoint latitude is the pole; its latitude
    # passes the pole; its offset exceeds 6,000 km.
    @example(GeoPoint(80, 0, 10_000), GeoPoint(80, 10, 10_000), 3, 3,
             2_215_605.8)
    @example(GeoPoint(80, 0, 10_000), GeoPoint(80, 10, 10_000), 3, 3,
             3_000_000.0)
    @example(ORIGIN, DEST, 81, 21, 6_000_001.0)
    @settings(max_examples=150, deadline=None)
    def test_columns_match_scalar_displace(self, origin, destination, I, J,
                                           halfwidth):
        assume(not origin.same_position(destination))
        try:
            want_lat, want_lon = scalar_columns(origin, destination, I, J,
                                                halfwidth)
        except DistanceOutOfRange as exc:
            # The first node in row-major order that displace_at refuses.
            with pytest.raises(type(exc)) as got:
                build_lattice(origin, destination, I, J, 1, halfwidth)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            return
        lattice = build_lattice(origin, destination, I, J, 1, halfwidth)
        assert np.array_equal(lattice.lat_deg, want_lat)
        # Longitudes go through cos, which numpy may round an ulp apart
        # from the C library (they agree on the machines seen so far).
        np.testing.assert_array_max_ulp(lattice.lon_deg, want_lon, maxulp=2)

    @given(trip_points, trip_points, st.integers(2, 161))
    @example(GeoPoint(40, 7.5, 10_000), GeoPoint(55, 7.5, 10_000), 41)
    @example(GeoPoint(10, 180, 10_000), GeoPoint(20, -180, 10_000), 11)
    @example(GeoPoint(10, 179.5, 10_000), GeoPoint(12, -179.5, 10_000), 11)
    @example(ORIGIN, DEST, 2)
    @example(ORIGIN, DEST, 3)
    # Distinct points too close for the haversine: their distance is 0.
    @example(GeoPoint(0, 0, 10_000), GeoPoint(0, 1e-200, 10_000), 5)
    @settings(max_examples=200, deadline=None)
    def test_track_is_the_scalar_track(self, origin, destination, I):
        # The centre column and the bearings the columns are displaced
        # across are, bit for bit, what intermediate_point and
        # azimuth give row by row.
        assume(not origin.same_position(destination))
        track = [intermediate_point(origin, destination, i / (I - 1))
                 for i in range(1, I - 1)]
        lattice = build_lattice(origin, destination, I, 1, 1, 0.0)
        _lats, _lons, bearings = _track(origin, destination, I)

        def bits(values):
            return np.asarray(values, dtype=float).reshape(-1).view(np.int64)

        assert np.array_equal(bits(lattice.lat_deg[1:-1, 0]),
                              bits([p.lat_deg for p in track]))
        assert np.array_equal(bits(lattice.lon_deg[1:-1, 0]),
                              bits([p.lon_deg for p in track]))
        assert np.array_equal(bits(bearings), bits(
            [azimuth(p.lat_deg, p.lon_deg, destination.lat_deg,
                     destination.lon_deg) for p in track]))

    def test_endpoint_rows_identical(self):
        lat = small_lattice()
        I, J, H = lat.dims
        for j in range(J):
            for h in range(H):
                assert lat.node((0, j, h)).same_position(ORIGIN)
                assert lat.node((I - 1, j, h)).same_position(DEST)

    def test_center_column_on_track(self):
        lat = small_lattice(I=9, J=5, H=1)
        for i in range(1, 8):
            expected = intermediate_point(ORIGIN, DEST, i / 8)
            got = lat.node((i, lat.center_column, 0))
            assert great_circle_distance(expected, got) < 1.0

    def test_lateral_spread_symmetric(self):
        lat = small_lattice(I=9, J=5, H=1, halfwidth=50_000.0)
        i = 4
        center = lat.node((i, 2, 0))
        left = lat.node((i, 0, 0))
        right = lat.node((i, 4, 0))
        dl = great_circle_distance(center, left)
        dr = great_circle_distance(center, right)
        assert dl == pytest.approx(50_000.0, rel=2e-3)
        assert dr == pytest.approx(50_000.0, rel=2e-3)
        # The two edge columns sit on opposite sides of the track.
        assert great_circle_distance(left, right) == pytest.approx(
            dl + dr, rel=2e-3)

    def test_column_offsets_evenly_spaced(self):
        lat = small_lattice(I=9, J=5, H=1, halfwidth=60_000.0)
        c = lat.node((4, 2, 0))
        assert great_circle_distance(c, lat.node((4, 1, 0))) == pytest.approx(
            30_000.0, rel=2e-3)
        assert great_circle_distance(c, lat.node((4, 3, 0))) == pytest.approx(
            30_000.0, rel=2e-3)

    def test_altitude_levels(self):
        lat = small_lattice(H=3)
        alts = [lat.node((4, 2, h)).alt_m for h in range(3)]
        assert alts == [9_000.0, 10_000.0, 11_000.0]
        lat1 = small_lattice(H=1)
        assert lat1.node((4, 2, 0)).alt_m == 10_000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_lattice(ORIGIN, DEST, 1, 5, 3, 50_000)
        with pytest.raises(ValueError):
            build_lattice(ORIGIN, DEST, 9, 4, 3, 50_000)   # even J
        with pytest.raises(DegenerateTrip):
            build_lattice(ORIGIN, ORIGIN, 9, 5, 3, 50_000)

    @pytest.mark.parametrize("halfwidth", [math.nan, math.inf, -math.inf,
                                           -50_000.0, -1e-300])
    def test_rejects_bad_halfwidth(self, halfwidth):
        # Non-finite would fail deep in displace; negative would silently
        # mirror the columns.
        with pytest.raises(ValueError, match="lateral_halfwidth_m"):
            build_lattice(ORIGIN, DEST, 9, 5, 3, halfwidth)

    def test_levels_share_column_positions(self):
        lat = small_lattice(H=3)
        assert lat.lat_deg.shape == lat.lon_deg.shape == (9, 5)
        for h in range(3):
            p = lat.node((4, 1, h))
            assert (p.lat_deg, p.lon_deg) == (lat.lat_deg[4, 1], lat.lon_deg[4, 1])
        assert lat.node((0, 3, 2)) is ORIGIN and lat.node((8, 0, 0)) is DEST


def reference_cone(I, J):
    """The start's cone edge set, edge by edge: the window edges (both
    nodes within c ± i of row i, only slot 1 into the goal) and the centre
    legs, numbered in (row, column, slot) order."""
    c = (J - 1) // 2

    def in_cone(i, j):
        return j == c if i == I - 1 else abs(j - c) <= i

    window = np.zeros((I - 1, J, 3), dtype=bool)
    flown = []                          # (row, column, slot, target)
    for i, j, s in itertools.product(range(I - 1), range(J), range(3)):
        to = c if i == I - 2 else j + s - 1
        if i == I - 2 and s != 1:
            continue
        window[i, j, s] = (0 <= to < J and in_cone(i, j)
                           and in_cone(i + 1, to))
        if window[i, j, s] or (j == c and s == 1):
            flown.append((i, j, s, to))
    index = np.full((I - 1, J, 3), -1)
    for n, (i, j, s, _to) in enumerate(flown):
        index[i, j, s] = n
    src = np.array([i * J + j for i, j, _s, _to in flown])
    dst = np.array([(i + 1) * J + to for i, _j, _s, to in flown])
    touched = np.array(sorted(set(src.tolist()) | set(dst.tolist())))
    place = {node: k for k, node in enumerate(touched.tolist())}
    in_window = [(i, j, s) for i, j, s, _to in flown if window[i, j, s]]
    return EdgeSet(window, index, touched,
                   np.array([place[n] for n in src.tolist()]),
                   np.array([place[n] for n in dst.tolist()]),
                   np.array([i for i, _j, _s in in_window]),
                   np.array([index[e] for e in in_window]),
                   np.array([index[i, c, 1] for i in range(I - 1)]))


class TestShape:
    @given(st.integers(2, 60), st.integers(0, 20).map(lambda k: 2 * k + 1),
           st.integers(1, 5))
    @example(2, 1, 1)
    @example(2, 41, 5)
    @settings(max_examples=60, deadline=None)
    def test_cached_arrays_are_the_builders_and_read_only(self, I, J, H):
        # The cached Shape holds what its builders give afresh, the cone's
        # edges are the edge-by-edge rule, and no array can be written.
        got = shape(I, J, H)
        assert shape(I, J, H) is got
        fresh = shape.__wrapped__(I, J, H)
        c = (J - 1) // 2
        assert (got.dims, got.center_column, got.center_level, got.alts_m) \
            == ((I, J, H), c, H // 2, fresh.alts_m)
        assert got.alts_m == ((10_000.0,) if H == 1 else tuple(
            9_000.0 + h * 2_000.0 / (H - 1) for h in range(H)))
        lo = np.maximum(c - np.arange(I), 0)
        hi = np.minimum(c + np.arange(I), J - 1)
        lo[-1] = hi[-1] = c
        want = {
            "offsets": (np.arange(J) - c) / max(c, 1), "lo": lo, "hi": hi,
            "dp_src": np.arange(2, J + 2)[:, None] - np.arange(3),
            "dp_levels": np.minimum(np.arange(1, 2 * I - 2, 2), H),
            "dp_parent_base": np.arange(-1, J - 1)}
        target = np.arange(J)[:, None] + np.arange(-1, 2) + np.zeros(
            (I - 1, 1, 1), dtype=int)
        target[-1] = c
        want["target"] = target
        arrays = []
        for name, value in want.items():
            a = getattr(got, name)
            assert a.tobytes() == getattr(fresh, name).tobytes() \
                == np.asarray(value, dtype=a.dtype).tobytes(), name
            assert a.shape == np.shape(value), name
            arrays.append(a)
        ref = reference_cone(I, J)
        rebuilt = window_edges(fresh.target, fresh.lo, fresh.hi)
        for name, a, b, r in zip(EdgeSet._fields, got.cone, rebuilt, ref):
            assert a.dtype == b.dtype and a.shape == b.shape == r.shape, name
            assert np.array_equal(a, b) and np.array_equal(a, r), name
            arrays.append(a)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_dims_are_checked(self):
        for dims in ((1, 5, 3), (9, 4, 3), (9, 0, 3), (9, 5, 0)):
            with pytest.raises(ValueError, match="require I >= 2"):
                shape(*dims)
        assert build_lattice(ORIGIN, DEST, 9, 5, 3, 50_000).shape \
            is shape(9, 5, 3)


class TestSuccessors:
    def test_interior_count(self):
        lat = small_lattice(I=9, J=5, H=3)
        succ = successors(lat, (3, 2, 1))
        assert len(succ) == 9
        assert all(s[0] == 4 for s in succ)
        assert all(abs(s[1] - 2) <= 1 and abs(s[2] - 1) <= 1 for s in succ)

    def test_boundary_clipping(self):
        lat = small_lattice(I=9, J=5, H=3)
        succ = successors(lat, (3, 0, 0))
        assert len(succ) == 4
        assert all(s[1] in (0, 1) and s[2] in (0, 1) for s in succ)

    def test_collapse_into_final_row(self):
        lat = small_lattice(I=9, J=5, H=3)
        assert successors(lat, (7, 4, 0)) == [(8, 2, 1)]
        assert successors(lat, (7, 0, 2)) == [(8, 2, 1)]

    def test_final_row_has_none(self):
        lat = small_lattice(I=9, J=5, H=3)
        with pytest.raises(NoSuccessors):
            successors(lat, (8, 2, 1))


class TestCoarseRoute:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            CoarseRoute((ORIGIN,))

    def test_rejects_duplicate_consecutive(self):
        with pytest.raises(ValueError):
            CoarseRoute((ORIGIN, GeoPoint(ORIGIN.lat_deg, ORIGIN.lon_deg, 9_000),
                         DEST))

    def test_guide_point_endpoints(self):
        # Rows 0 and I-1 are the origin and the destination.
        route = gc_route(5)
        I = 9
        lat, lon = _guide_points(route, np.array([0, I - 1]), I)
        for k, want in ((0, route.waypoints[0]), (1, route.waypoints[-1])):
            assert GeoPoint(lat[k], lon[k]).same_position(want)

    def test_guide_point_oracle(self):
        # Brute-force oracle: row i at fraction i/(I-1) of the m segments
        # corresponds to segment floor(i*m/(I-1)) at in-segment fraction
        # (i*m mod (I-1))/(I-1). Check i=3, I=9, m=4 by hand:
        # 3*4/8 = 1.5 so segment 1, fraction 0.5.
        route = gc_route(5)
        lat, lon = _guide_points(route, np.array([3]), 9)
        expected = intermediate_point(route.waypoints[1], route.waypoints[2], 0.5)
        assert great_circle_distance(GeoPoint(lat[0], lon[0]), expected) < 1e-6

    @pytest.mark.parametrize("I,n", [(9, 5), (41, 5), (10, 4), (2, 3)])
    def test_great_circle_guide_points_are_the_centre_column(self, I, n):
        # A great-circle guide lies on the track, and so does each row's
        # centre column: every row's guide point is that column.
        lattice = build_lattice(ORIGIN, DEST, I, 5, 1, 50_000.0)
        lat, lon = _guide_points(gc_route(n), np.arange(I), I)
        c = lattice.center_column
        for i in range(I):
            assert great_circle_distance(
                GeoPoint(lat[i], lon[i]),
                GeoPoint(lattice.lat_deg[i, c], lattice.lon_deg[i, c])) < 1e-3


class TestCorridor:
    def test_refuses_windows_no_path_can_follow(self):
        Corridor((0, 0, 1, 2, 1), 2)
        # Rows 2 and 3 are two columns apart; a path moves at most one.
        with pytest.raises(ValueError, match="more than one column apart"):
            Corridor((0, 0, 1, 3, 2), 2)
        # Every search starts at the centre column 2 of a J = 5 lattice;
        # row 0's window [0, 1] leaves it out.
        lat = small_lattice(I=5, J=5, H=1)
        _column_windows(lat, Corridor((1, 0, 1, 2, 1), 2))
        with pytest.raises(ValueError, match="leaves out the start column 2"):
            _column_windows(lat, Corridor((0, 0, 1, 2, 1), 2))


class TestBuildCorridor:
    def test_width_bounds(self):
        lat = small_lattice(J=5)
        route = gc_route()
        with pytest.raises(WidthOutOfRange):
            build_corridor(lat, route, 0)
        with pytest.raises(WidthOutOfRange):
            build_corridor(lat, route, 6)

    def test_full_width_covers_everything(self):
        lat = small_lattice(I=9, J=5, H=3)
        cor = build_corridor(lat, gc_route(), 5)
        assert all(lo == 0 for lo in cor.j_min)
        for idx in itertools.product(*map(range, lat.dims)):
            assert is_reachable(cor, idx, 9)

    def test_centerline_guide_centers_windows(self):
        lat = small_lattice(I=9, J=5, H=3)
        cor = build_corridor(lat, gc_route(), 3)
        # A great-circle guide tracks the center column (j=2); window [1, 3].
        for i in range(1, 8):
            assert cor.j_min[i] == 1
            assert cor.j_max(i) == 3

    def test_width_one_is_centerline(self):
        lat = small_lattice(I=9, J=5, H=3)
        cor = build_corridor(lat, gc_route(), 1)
        for i in range(1, 8):
            assert cor.j_min[i] == 2

    def test_nested_in_width(self):
        lat = small_lattice(I=13, J=7, H=1)
        route = gc_route(4)
        prev = build_corridor(lat, route, 1)
        for w in range(2, 8):
            cur = build_corridor(lat, route, w)
            for i in range(13):
                assert cur.j_min[i] <= prev.j_min[i]
                assert cur.j_max(i) >= prev.j_max(i)
            prev = cur

    def test_offset_guide_shifts_window(self):
        # A guide hugging one side should pull windows off center.
        lat = small_lattice(I=9, J=5, H=1, halfwidth=60_000.0)
        side = [lat.node((0, 2, 0))]
        for i in (2, 4, 6):
            side.append(lat.node((i, 4, 0)))
        side.append(lat.node((8, 2, 0)))
        cor = build_corridor(lat, CoarseRoute(tuple(side)), 3)
        assert any(cor.j_min[i] == 2 for i in range(3, 6))

    def test_connectivity_invariant(self):
        # A window moves at most one column from the previous row's, as a
        # path does, even where the guide zigzags across the lattice.
        lat = small_lattice(I=21, J=7, H=1, halfwidth=80_000.0)
        zig = [lat.node((0, 3, 0)), lat.node((5, 0, 0)), lat.node((10, 6, 0)),
               lat.node((15, 0, 0)), lat.node((20, 3, 0))]
        for w in (1, 2, 3):
            cor = build_corridor(lat, CoarseRoute(tuple(zig)), w)
            for i in range(1, 21):
                assert abs(cor.j_min[i] - cor.j_min[i - 1]) <= 1

    def test_start_node_in_window(self):
        # Every search starts at row 0's centre column, whatever the guide:
        # here the great-circle guide and one hugging column 0.
        for J in (1, 3, 5, 9):
            lat = small_lattice(I=9, J=J, H=3)
            side = CoarseRoute((ORIGIN, *(lat.node((i, 0, 0))
                                          for i in (2, 4, 6)), DEST))
            for route in (gc_route(), side):
                for w in range(1, J + 1):
                    cor = build_corridor(lat, route, w)
                    assert cor.j_min[0] <= lat.center_column <= cor.j_max(0)

    @given(st.integers(1, 7))
    @settings(max_examples=7, deadline=None)
    def test_windows_always_inside_grid(self, w):
        lat = small_lattice(I=13, J=7, H=1)
        cor = build_corridor(lat, gc_route(3), w)
        for i in range(13):
            assert 0 <= cor.j_min[i]
            assert cor.j_max(i) <= 6


def test_is_reachable_endpoint_rows():
    lat = small_lattice(I=9, J=5, H=3)
    cor = build_corridor(lat, gc_route(), 1)
    assert is_reachable(cor, (0, 4, 0), 9)
    assert is_reachable(cor, (8, 0, 2), 9)
    assert not is_reachable(cor, (4, 0, 0), 9)
