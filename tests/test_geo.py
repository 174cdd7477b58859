import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from skyroute import geo
from skyroute.errors import DegenerateTrip, DistanceOutOfRange
from skyroute.geo import (EARTH_RADIUS_M, GeoPoint, along_track,
                          along_tracks, azimuth, displace_at, displace_many,
                          displacement, great_circle_distance,
                          great_circle_distances, heading, headings,
                          initial_bearings, intermediate_point,
                          intermediate_points, rotate_by, trip_rotation,
                          unit_vector, unit_vectors)


MUC = GeoPoint(48.35, 11.79)
BER = GeoPoint(52.37, 13.52)


def independent_haversine(lat1, lon1, lat2, lon2):
    # Deliberately separate formulation (atan2 form) from the library's asin form.
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return EARTH_RADIUS_M * 2 * math.atan2(math.sqrt(a), math.sqrt(1 - a))


latitudes = st.floats(-80, 80)
longitudes = st.floats(-179, 179)


def geo_points(lat=latitudes, lon=longitudes):
    return st.builds(GeoPoint, lat, lon, st.just(0.0))


def latlon(p):
    return p.lat_deg, p.lon_deg


def local_displacement(a, b):
    """(east, north) of GeoPoint b from a: geo.displacement given their
    haversine distance."""
    return displacement(*latlon(a), *latlon(b), great_circle_distance(a, b))


def displace(a, east, north):
    """GeoPoint a moved by (east, north) with geo.displace_at."""
    return GeoPoint(*displace_at(*latlon(a), east, north))


def rotate(east, north, phi):
    return rotate_by(east, north, math.cos(phi), math.sin(phi))


class TestGreatCircleDistance:
    def test_identity(self):
        p = GeoPoint(48.35, 11.79)
        assert great_circle_distance(p, p) == 0.0

    def test_quarter_circumference(self):
        d = great_circle_distance(GeoPoint(0, 0), GeoPoint(0, 90))
        assert d == pytest.approx(2 * math.pi * EARTH_RADIUS_M / 4, abs=1.0)

    def test_against_independent_haversine(self):
        munich = GeoPoint(48.35, 11.79)
        berlin = GeoPoint(52.37, 13.52)
        expected = independent_haversine(48.35, 11.79, 52.37, 13.52)
        assert great_circle_distance(munich, berlin) == pytest.approx(
            expected, rel=1e-12)

    @given(geo_points(), geo_points())
    def test_symmetry(self, a, b):
        assert great_circle_distance(a, b) == pytest.approx(
            great_circle_distance(b, a), rel=1e-6, abs=1e-6)

    @given(geo_points(), geo_points(), geo_points())
    def test_triangle_inequality(self, a, b, c):
        ab = great_circle_distance(a, b)
        bc = great_circle_distance(b, c)
        ac = great_circle_distance(a, c)
        assert ac <= ab + bc + 1e-6 * (ab + bc + 1.0)


class TestLocalDisplacement:
    def test_identity(self):
        p = GeoPoint(10, 20)
        east, north = local_displacement(p, p)
        assert east == 0.0 and north == 0.0

    def test_one_degree_latitude(self):
        east, north = local_displacement(GeoPoint(0, 0), GeoPoint(1, 0))
        assert east == 0.0
        assert north == pytest.approx(math.pi * EARTH_RADIUS_M / 180, rel=1e-12)

    @staticmethod
    def equirectangular(x, target):
        dlat = target.lat_deg - x.lat_deg
        mid = math.radians(x.lat_deg + 0.5 * dlat)
        return (math.radians(target.lon_deg - x.lon_deg) * math.cos(mid)
                * EARTH_RADIUS_M, math.radians(dlat) * EARTH_RADIUS_M)

    @staticmethod
    def bearing_vector(x, target):
        d = great_circle_distance(x, target)
        theta = azimuth(*latlon(x), *latlon(target))
        return d * math.sin(theta), d * math.cos(theta)

    def test_planar_within_bound(self):
        assert local_displacement(MUC, BER) == self.equirectangular(MUC, BER)
        assert local_displacement(MUC, BER) != self.bearing_vector(MUC, BER)

    def test_out_of_range(self):
        # A quarter of the equator is beyond the bound: it points due east,
        # and displace refuses to map that vector back.
        east, north = local_displacement(GeoPoint(0, 0), GeoPoint(0, 90))
        assert east == pytest.approx(0.5 * math.pi * EARTH_RADIUS_M,
                                     rel=1e-12)
        assert north == pytest.approx(0.0, abs=1e-6)
        with pytest.raises(DistanceOutOfRange):
            displace_at(0.0, 0.0, east, north)

    def test_bearing_vector_beyond_bound(self):
        far = GeoPoint(-33.9, 151.2)
        assert great_circle_distance(MUC, far) > geo.MAX_PLANAR_DISTANCE_M
        assert local_displacement(MUC, far) == self.bearing_vector(MUC, far)

    def test_bound_itself_is_planar(self, monkeypatch):
        # Move the bound onto this pair's distance, then one ulp below it.
        d = great_circle_distance(MUC, BER)
        monkeypatch.setattr(geo, "MAX_PLANAR_DISTANCE_M", d)
        assert local_displacement(MUC, BER) == self.equirectangular(MUC, BER)
        monkeypatch.setattr(geo, "MAX_PLANAR_DISTANCE_M",
                            math.nextafter(d, 0.0))
        assert local_displacement(MUC, BER) == self.bearing_vector(MUC, BER)

    @given(geo_points(st.floats(-60, 60)),
           st.floats(-800_000, 800_000), st.floats(-600_000, 600_000))
    @settings(max_examples=100)
    def test_round_trip_against_great_circle(self, origin, east, north):
        target = displace(origin, east, north)
        back_east, back_north = local_displacement(origin, target)
        assert back_east == pytest.approx(east, rel=1e-9, abs=1e-6)
        assert back_north == pytest.approx(north, rel=1e-9, abs=1e-6)
        # Projection error vs the true geodesic stays below 0.5% at <= 1,000 km.
        planar = math.hypot(east, north)
        geo = great_circle_distance(origin, target)
        if planar > 1_000.0:
            assert abs(planar - geo) <= 0.005 * planar


class TestDisplace:
    def test_identity(self):
        p = GeoPoint(45, 9, 10_000)
        q = displace(p, 0.0, 0.0)
        assert q.same_position(p)

    def test_out_of_range(self):
        with pytest.raises(DistanceOutOfRange):
            displace_at(0.0, 0.0, 7e6, 0.0)

    @pytest.mark.parametrize("lat", [88.0, -88.0])
    def test_passing_a_pole_is_out_of_range(self, lat):
        # 5 degrees poleward: the mid-latitude, 90.5, is no degenerate case.
        north = math.copysign(EARTH_RADIUS_M * math.radians(5.0), lat)
        with pytest.raises(DistanceOutOfRange, match="passes a pole"):
            displace_at(lat, 0.0, 0.0, north)


class TestTripRotation:
    def test_due_north_is_zero(self):
        assert trip_rotation(10.0, 20.0, 15.0, 20.0) == pytest.approx(0.0)

    def test_due_east_is_quarter_turn(self):
        phi = trip_rotation(0.0, 10.0, 0.0, 12.0)
        assert phi == pytest.approx(math.pi / 2)
        d = local_displacement(GeoPoint(0, 10), GeoPoint(0, 12))
        east, north = rotate(*d, phi)
        assert east == pytest.approx(0.0, abs=1e-6)
        assert north == pytest.approx(math.hypot(*d), rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateTrip):
            trip_rotation(10.0, 10.0, 10.0, 10.0)

    @given(geo_points(st.floats(-60, 60)), geo_points(st.floats(-60, 60)))
    @example(GeoPoint(0.0, 0.0), GeoPoint(0.0, 5e-324))  # displacement underflows
    @example(GeoPoint(40.0, -3.0), GeoPoint(45.0, 80.0))  # beyond 6,000 km
    @settings(max_examples=100)
    def test_straightens_any_trip(self, a, b):
        d = local_displacement(a, b)
        norm = math.hypot(*d)
        if norm == 0.0:
            with pytest.raises(DegenerateTrip):
                trip_rotation(*latlon(a), *latlon(b))
            return
        phi = trip_rotation(*latlon(a), *latlon(b))
        east, north = rotate(*d, phi)
        assert abs(east) <= 1e-9 * max(norm, 1.0)
        assert north == pytest.approx(norm, rel=1e-9)


class TestRotate:
    def test_identity_rotation(self):
        assert rotate(1.0, 0.0, 0.0) == (1.0, 0.0)

    def test_quarter_turn(self):
        east, north = rotate(1.0, 0.0, math.pi / 2)
        assert east == pytest.approx(0.0, abs=1e-15)
        assert north == pytest.approx(1.0)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
           st.floats(-2 * math.pi, 2 * math.pi))
    @settings(max_examples=100)
    def test_norm_preserved_and_inverse(self, e, n, phi):
        r = rotate(e, n, phi)
        assert math.hypot(*r) == pytest.approx(math.hypot(e, n), rel=1e-12,
                                               abs=1e-12)
        back_e, back_n = rotate(*r, -phi)
        assert back_e == pytest.approx(e, rel=1e-12, abs=1e-9)
        assert back_n == pytest.approx(n, rel=1e-12, abs=1e-9)


class TestGeoPoint:
    def test_longitude_normalized(self):
        assert GeoPoint(0, 190).lon_deg == -170.0
        assert GeoPoint(0, -180).lon_deg == 180.0

    def test_invalid_latitude(self):
        with pytest.raises(ValueError):
            GeoPoint(91, 0)

    def test_negative_altitude(self):
        with pytest.raises(ValueError):
            GeoPoint(0, 0, -1)


def test_intermediate_point_midpoint_on_track():
    a = GeoPoint(40, -5, 8_000)
    b = GeoPoint(50, 15, 12_000)
    mid = intermediate_point(a, b, 0.5)
    assert great_circle_distance(a, mid) == pytest.approx(
        great_circle_distance(mid, b), rel=1e-9)
    assert great_circle_distance(a, mid) + great_circle_distance(mid, b) == \
        pytest.approx(great_circle_distance(a, b), rel=1e-9)
    assert mid.alt_m == pytest.approx(10_000)


class TestInitialBearing:
    @given(geo_points(), st.floats(-math.pi, math.pi), st.floats(-6, -3))
    @settings(max_examples=200)
    def test_short_tracks_match_local_displacement(self, a, theta, log_d):
        # On tracks of 1 um to 1 mm the planar direction is the azimuth to
        # within d / R; a formula that cancels loses it to rounding.
        d = 10.0 ** log_d
        b = displace(a, d * math.sin(theta), d * math.cos(theta))
        east, north = local_displacement(a, b)
        want = math.atan2(east, north)
        got = [azimuth(*latlon(a), *latlon(b)),
               float(initial_bearings(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg))]
        for bearing in got:
            assert abs(math.remainder(bearing - want, 2 * math.pi)) <= 1e-9


def along_and_norm(a, b, sigma, wind_east, wind_north):
    """geo.along_track on the great circle from GeoPoint a through b,
    sigma radians from a: at sin(delta - sigma) a + sin(sigma) b."""
    va, vb = unit_vector(*latlon(a)), unit_vector(*latlon(b))
    delta = great_circle_distance(a, b) / EARTH_RADIUS_M
    return along_track(*heading(va, vb), math.sin(delta - sigma),
                       math.sin(sigma), wind_east, wind_north)


def wind_along(*piece):
    """The wind along the track there: along_and_norm's ratio."""
    along, norm = along_and_norm(*piece)
    return along / norm


class TestAlongTrack:
    def test_equator_eastbound_is_east_wind(self):
        for sigma in (0.0, 0.3, 2.0):
            assert wind_along(GeoPoint(0, 0), GeoPoint(0, 10), sigma, 12.0,
                              -7.0) == pytest.approx(12.0, abs=1e-12)

    def test_meridian_turns_south_past_the_pole(self):
        # Northbound from 60N: north wind is a tailwind until the pole at
        # 30 degrees along, a headwind after it.
        north = GeoPoint(60, 0), GeoPoint(70, 0)
        assert wind_along(*north, math.radians(20), 3.0, 9.0) == \
            pytest.approx(9.0)
        assert wind_along(*north, math.radians(40), 3.0, 9.0) == \
            pytest.approx(-9.0)


class TestArrayForms:
    """The array functions repeat the scalar ones element by element."""

    @given(st.lists(st.tuples(geo_points(), geo_points(), st.booleans()),
                    min_size=1, max_size=6),
           st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1)))
    @settings(max_examples=100)
    def test_match_scalar(self, pairs, fraction):
        pairs = [(a, a if same else b) for a, b, same in pairs]
        cols = [np.array([p.lat_deg for p, _ in pairs]),
                np.array([p.lon_deg for p, _ in pairs]),
                np.array([q.lat_deg for _, q in pairs]),
                np.array([q.lon_deg for _, q in pairs])]
        dist = great_circle_distances(*cols)
        bearing = initial_bearings(*cols)
        lat, lon = intermediate_points(*cols, fraction)
        for n, (a, b) in enumerate(pairs):
            assert dist[n] == pytest.approx(great_circle_distance(a, b),
                                            rel=1e-12, abs=1e-6)
            if dist[n] > 1.0:
                assert bearing[n] == pytest.approx(
                    azimuth(*latlon(a), *latlon(b)), abs=1e-9)
            p = intermediate_point(a, b, fraction)
            assert lat[n] == pytest.approx(p.lat_deg, abs=1e-9)
            assert abs((lon[n] - p.lon_deg + 180.0) % 360.0 - 180.0) <= 1e-9

    def test_endpoints_and_zero_length_exact(self):
        lat0, lon0 = np.array([48.0, 10.0]), np.array([11.0, 179.5])
        lat1, lon1 = np.array([48.0, 10.0]), np.array([11.0, -179.5])
        assert great_circle_distances(lat0, lon0, lat1, lon1)[0] == 0.0
        for f, want in ((0.0, (lat0, lon0)), (1.0, (lat1, lon1))):
            got = intermediate_points(lat0, lon0, lat1, lon1, f)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        lat, lon = intermediate_points(lat0, lon0, lat1, lon1, 0.5)
        assert (lat[0], lon[0]) == (48.0, 11.0)
        # Across the antimeridian the midpoint sits on it, not at lon 0.
        assert abs(lon[1]) == pytest.approx(180.0, abs=1e-9)

    @given(st.lists(st.tuples(geo_points(), geo_points(), st.booleans()),
                    min_size=1, max_size=6),
           st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(-0.5, 1.5)),
                    min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_fraction_array_matches_per_fraction_calls(self, pairs, fractions):
        pairs = [(a, a if same else b) for a, b, same in pairs]
        cols = [np.array([p.lat_deg for p, _ in pairs]),
                np.array([p.lon_deg for p, _ in pairs]),
                np.array([q.lat_deg for _, q in pairs]),
                np.array([q.lon_deg for _, q in pairs])]
        lat, lon = intermediate_points(*cols, np.array(fractions)[:, None])
        for k, fraction in enumerate(fractions):
            want_lat, want_lon = intermediate_points(*cols, fraction)
            assert lat[k].tobytes() == want_lat.tobytes()
            assert lon[k].tobytes() == want_lon.tobytes()

    # sigma up to 0.15 rad keeps the track 1.4 degrees off the poles, where
    # its direction (the denominator) would vanish.
    @given(st.lists(st.tuples(geo_points(), geo_points(), st.floats(0, 0.15),
                              st.floats(-150, 150), st.floats(-150, 150)),
                    min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_along_tracks_match_along_track(self, pieces):
        # A pair whose a x b is 0 has no direction to take the wind along.
        assume(all(along_and_norm(*piece)[1] > 0.0 for piece in pieces))
        a, b, sigma, wind_east, wind_north = zip(*pieces)
        lat0, lon0, lat1, lon1 = (np.array(c) for c in zip(
            *(latlon(p) + latlon(q) for p, q in zip(a, b))))
        delta = great_circle_distances(lat0, lon0, lat1, lon1) / EARTH_RADIUS_M
        along, norm = along_tracks(
            *headings(unit_vectors(lat0, lon0), unit_vectors(lat1, lon1)),
            np.sin(delta - sigma), np.sin(sigma), np.array(wind_east),
            np.array(wind_north))
        got = along / norm
        for n, piece in enumerate(pieces):
            assert got[n] == pytest.approx(wind_along(*piece), rel=1e-12,
                                           abs=1e-12)

    @given(st.lists(st.tuples(geo_points(st.floats(-90, 90)),
                              st.floats(-7e6, 7e6), st.floats(-7e6, 7e6)),
                    min_size=1, max_size=8))
    # The second element meets the pole halfway, the third leaves 6,000 km.
    @example([(GeoPoint(10, 0), 1_000.0, 1_000.0),
              (GeoPoint(89, 0), 0.0, EARTH_RADIUS_M * math.radians(2.0)),
              (GeoPoint(0, 0), 7e6, 0.0)])
    @settings(max_examples=100)
    def test_displace_many_matches_displace(self, moves):
        lat0, lon0, east, north = (np.array(c) for c in zip(
            *((p.lat_deg, p.lon_deg, e, n) for p, e, n in moves)))
        want = []
        for p, e, n in moves:
            try:
                want.append(displace(p, e, n))
            except DistanceOutOfRange as exc:
                # The first refused element decides the error.
                with pytest.raises(type(exc)) as got:
                    displace_many(lat0, lon0, east, north)
                assert type(got.value) is type(exc)
                assert str(got.value) == str(exc)
                return
        lat, lon = displace_many(lat0, lon0, east, north)
        assert lat.tolist() == [q.lat_deg for q in want]
        # Longitudes go through cos, which numpy may round an ulp apart
        # from the C library (they agree on the machines seen so far).
        np.testing.assert_array_max_ulp(lon, [q.lon_deg for q in want],
                                        maxulp=2)

    @pytest.mark.parametrize("move, error, message", [
        ((10.0, 0.0, math.nan, 0.0), ValueError,
         "PlaneVector components must be finite"),
        ((10.0, 0.0, 0.0, math.inf), ValueError,
         "PlaneVector components must be finite"),
        ((10.0, 0.0, math.nan, math.inf), ValueError,
         "PlaneVector components must be finite"),
        ((math.nan, 0.0, 0.0, 0.0), ValueError, "latitude out of range: nan"),
        ((95.0, 0.0, 0.0, 0.0), ValueError, "latitude out of range: 95.0"),
        ((10.0, math.inf, 0.0, 0.0), ValueError, "longitude not finite: inf"),
        ((10.0, 0.0, 7e6, 0.0), DistanceOutOfRange,
         "displacement exceeds 6,000 km projection validity bound"),
    ], ids=["nan-east", "inf-north", "nan-east-inf-north", "nan-lat",
            "lat-95", "inf-lon", "beyond-6000-km"])
    def test_displace_many_refuses_by_name(self, move, error, message):
        # After a valid first element: the bad one decides the error.
        lat0, lon0, east, north = (np.array([0.0, v]) for v in move)
        with pytest.raises(error) as got:
            displace_many(lat0, lon0, east, north)
        assert type(got.value) is error and str(got.value) == message

    @given(st.floats(-80, 80), st.floats(-80, 80), longitudes,
           st.floats(0, 1))
    @settings(max_examples=100)
    def test_meridian_keeps_its_longitude(self, lat0, lat1, lon, fraction):
        # atan2 would land a few ulp off the meridian, and numpy's differs
        # from math's: at a grid's edge meridian that decides OutOfDomain.
        a, b = GeoPoint(lat0, lon), GeoPoint(lat1, lon)
        assert intermediate_point(a, b, fraction).lon_deg == lon
        _lat, got = intermediate_points(lat0, lon, lat1, lon, fraction)
        assert got == lon
