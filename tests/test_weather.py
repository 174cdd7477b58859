import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from skyroute.errors import OutOfDomain, ParseError, SchemaError
from skyroute.geo import GeoPoint
from skyroute.harness import make_weather
from skyroute.weather import (CSV_COLUMNS, ISA_TEMPERATURE_K, WeatherField,
                              _jet_modes, _max_hypot, load_csv,
                              make_jet_stream, make_uniform, parse_csv, sample,
                              sample_at, sample_many, save_csv)


def affine_field():
    """Field whose values are affine in (lat, lon); bilinear interpolation
    reproduces an affine function exactly, which gives an independent oracle."""
    lat_axis = np.array([40.0, 45.0, 50.0, 55.0])
    lon_axis = np.array([0.0, 5.0, 10.0])
    lat_g, lon_g = np.meshgrid(lat_axis, lon_axis, indexing="ij")
    we = 2.0 * lat_g - 1.0 * lon_g + 3.0
    wn = -0.5 * lat_g + 0.25 * lon_g
    tk = 288.15 + 0.3 * lat_g - 0.2 * lon_g
    return WeatherField(lat_axis, lon_axis, we, wn, tk)


class TestSample:
    def test_exact_at_grid_nodes(self):
        fld = affine_field()
        s = sample(fld, GeoPoint(45.0, 5.0))
        assert s.wind_east == pytest.approx(2 * 45 - 5 + 3, rel=1e-12)
        assert s.wind_north == pytest.approx(-0.5 * 45 + 0.25 * 5, rel=1e-12)
        assert s.temperature == pytest.approx(288.15 + 0.3 * 45 - 0.2 * 5, rel=1e-12)

    @given(st.floats(40, 55), st.floats(0, 10))
    @settings(max_examples=100)
    def test_affine_oracle(self, lat, lon):
        s = sample(affine_field(), GeoPoint(lat, lon))
        assert s.wind_east == pytest.approx(2 * lat - lon + 3, rel=1e-9, abs=1e-9)
        assert s.wind_north == pytest.approx(-0.5 * lat + 0.25 * lon,
                                             rel=1e-9, abs=1e-9)
        assert s.temperature == pytest.approx(288.15 + 0.3 * lat - 0.2 * lon,
                                              rel=1e-9)

    def test_out_of_domain(self):
        fld = affine_field()
        with pytest.raises(OutOfDomain):
            sample(fld, GeoPoint(39.9, 5.0))
        with pytest.raises(OutOfDomain):
            sample(fld, GeoPoint(45.0, 10.1))

    def test_boundary_inclusive(self):
        fld = affine_field()
        sample(fld, GeoPoint(40.0, 0.0))
        sample(fld, GeoPoint(55.0, 10.0))

    @given(st.lists(st.tuples(st.floats(38, 57), st.floats(-2, 12)),
                    min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_many_is_bit_identical_and_nan_off_grid(self, points):
        fld = make_jet_stream((40.0, 55.0, 0.0, 10.0), 48.0, 60.0, 3.0, seed=1,
                              resolution=7)
        many = sample_many(fld, np.array([p[0] for p in points]),
                           np.array([p[1] for p in points]))
        for n, (lat, lon) in enumerate(points):
            try:
                one = sample(fld, GeoPoint(lat, lon))
            except OutOfDomain:
                assert np.isnan(many.wind_east[n]) and np.isnan(
                    many.wind_north[n]) and np.isnan(many.temperature[n])
                continue
            assert (many.wind_east[n], many.wind_north[n], many.temperature[n]) \
                == (one.wind_east, one.wind_north, one.temperature)

    @given(st.floats(40, 55), st.floats(0, 10))
    @settings(max_examples=50)
    def test_values_within_grid_extremes(self, lat, lon):
        fld = affine_field()
        s = sample(fld, GeoPoint(lat, lon))
        assert fld.wind_east.min() - 1e-9 <= s.wind_east <= fld.wind_east.max() + 1e-9
        assert fld.temperature.min() - 1e-9 <= s.temperature <= fld.temperature.max() + 1e-9


def uneven_field():
    """A CSV grid whose axes are not evenly spaced, with seeded values."""
    lat_axis = [40.0, 41.5, 45.0, 45.25, 52.0, 55.0]
    lon_axis = [-3.0, 0.0, 0.7, 6.0, 10.0]
    rng = np.random.default_rng(8)
    rows = [",".join(CSV_COLUMNS)]
    for lat in lat_axis:
        for lon in lon_axis:
            we, wn = rng.uniform(-60.0, 60.0, size=2).tolist()
            rows.append(f"{lat},{lon},{we!r},{wn!r},{rng.uniform(200, 320)!r}")
    return parse_csv("\n".join(rows).encode())


def assert_sample_many_is_sample_at(fld):
    """sample_many gives sample_at's bits at every node (so each axis's
    last node and the top-right corner), the floats next to each node
    inside the grid, every cell's centre, and points at uneven fractions
    of each cell. sample_at clamps the cell of a last node, and of no
    other point, to the last cell."""
    def points(axis):
        near = [math.nextafter(a, math.inf) for a in axis[:-1]] \
            + [math.nextafter(a, -math.inf) for a in axis[1:]]
        return axis + near \
            + [(a + b) / 2 for a, b in zip(axis, axis[1:])] \
            + [a + 0.13 * (b - a) for a, b in zip(axis, axis[1:])] \
            + [a + 0.91 * (b - a) for a, b in zip(axis, axis[1:])]
    lat_axis, lon_axis = fld.lat_axis.tolist(), fld.lon_axis.tolist()
    lat_g, lon_g = np.meshgrid(points(lat_axis), points(lon_axis),
                               indexing="ij")
    many = sample_many(fld, lat_g, lon_g)
    assert many.wind_east.shape == lat_g.shape
    for n in np.ndindex(lat_g.shape):
        one = sample_at(fld, float(lat_g[n]), float(lon_g[n]))
        got = (many.wind_east[n], many.wind_north[n], many.temperature[n])
        assert np.array(got).tobytes() == np.array(one).tobytes()
    assert sample_at(fld, lat_axis[-1], lon_axis[-1]) == (
        fld.wind_east[-1, -1], fld.wind_north[-1, -1],
        fld.temperature[-1, -1])


class TestSampleManyUnevenGrid:
    def test_cell_widths_are_the_axis_differences(self):
        fld = uneven_field()
        for axis, widths in ((fld.lat_axis, fld._lat_widths),
                             (fld.lon_axis, fld._lon_widths)):
            assert widths.tobytes() == np.diff(axis).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                widths[0] = 1.0

    def test_bit_identical_to_sample_at(self):
        assert_sample_many_is_sample_at(uneven_field())

    def test_bit_identical_to_sample_at_on_one_cell(self):
        assert_sample_many_is_sample_at(
            make_uniform(12.5, -3.0, 250.0, (40.0, 55.0, -3.0, 10.0)))

    def test_nodes_read_the_grid(self):
        fld = uneven_field()
        lat_g, lon_g = np.meshgrid(fld.lat_axis, fld.lon_axis, indexing="ij")
        many = sample_many(fld, lat_g, lon_g)
        assert np.array_equal(many.wind_east, fld.wind_east)
        assert np.array_equal(many.wind_north, fld.wind_north)
        assert np.array_equal(many.temperature, fld.temperature)

    def test_off_grid_and_nan_give_nan(self):
        fld = uneven_field()
        lat = np.array([39.99, 55.01, 45.0, 45.0, np.nan, 45.0, np.nan])
        lon = np.array([0.0, 0.0, -3.01, 10.01, 0.0, np.nan, np.nan])
        many = sample_many(fld, lat, lon)
        for values in (many.wind_east, many.wind_north, many.temperature):
            assert np.isnan(values).all()
        for la, lo in zip(lat, lon):
            with pytest.raises(OutOfDomain):
                sample_at(fld, float(la), float(lo))


def probe_field(n_lat, n_lon):
    """A field on axes of n_lat and n_lon nodes (2 nodes: one cell and no
    inner node; 3: one inner node), with seeded winds in which some nodes
    hold 0.0 and some -0.0, so that signed zeros reach the sums."""
    lat_axis = np.linspace(40.0, 55.0, n_lat)
    lon_axis = np.linspace(-3.0, 10.0, n_lon)
    rng = np.random.default_rng(n_lat * 100 + n_lon)
    winds = rng.uniform(-60.0, 60.0, size=(2, n_lat, n_lon))
    winds[0, ::2, ::2] = -0.0
    winds[1, 1::2, ::3] = 0.0
    winds[1, ::3, 1::2] = -0.0
    temperature = rng.uniform(200.0, 320.0, size=(n_lat, n_lon))
    return WeatherField(lat_axis, lon_axis, *winds, temperature)


def axis_probes(axis):
    """Every node, the floats next to each node on both sides, points below
    and above both ends, NaN and both infinities."""
    span = axis[-1] - axis[0]
    near = [math.nextafter(a, d) for a in axis for d in (-math.inf, math.inf)]
    return (axis + near
            + [axis[0] - span, axis[0] - 1e-3, axis[-1] + 1e-3, axis[-1] + span]
            + [math.nan, math.inf, -math.inf])


class TestSampleManyProbes:
    """`sample_many` is `sample_at` bit for bit, sign of zero included, and
    NaN in all three fields wherever `sample_at` refuses the point."""

    @pytest.mark.parametrize("n_lat, n_lon", [(2, 2), (3, 3), (61, 61),
                                              (2, 61), (61, 3)])
    def test_equals_sample_at_at_every_probe(self, n_lat, n_lon):
        fld = probe_field(n_lat, n_lon)
        lat_g, lon_g = np.meshgrid(axis_probes(fld.lat_axis.tolist()),
                                   axis_probes(fld.lon_axis.tolist()),
                                   indexing="ij")
        lat, lon = lat_g.ravel(), lon_g.ravel()
        many = sample_many(fld, lat, lon)
        got = np.stack([many.wind_east, many.wind_north, many.temperature])
        off = 0
        for n, (la, lo) in enumerate(zip(lat.tolist(), lon.tolist())):
            try:
                one = sample_at(fld, la, lo)
            except OutOfDomain:
                assert np.isnan(got[:, n]).all(), (la, lo)
                off += 1
                continue
            assert got[:, n].tobytes() == np.array(one).tobytes(), (la, lo)
        assert 0 < off < lat.size
        # The same points as a (4, N) batch give the 1-D result's values,
        # and NaN where it has NaN (a NaN's sign bit is no contract).
        pad = -lat.size % 4
        lat4 = np.concatenate([lat, lat[:pad]]).reshape(4, -1)
        lon4 = np.concatenate([lon, lon[:pad]]).reshape(4, -1)
        many4 = sample_many(fld, lat4, lon4)
        for name in ("wind_east", "wind_north", "temperature"):
            values = getattr(many4, name)
            assert values.shape == lat4.shape
            flat = np.concatenate([getattr(many, name),
                                   getattr(many, name)[:pad]])
            nan = np.isnan(flat)
            assert np.array_equal(np.isnan(values.ravel()), nan)
            assert values.ravel()[~nan].tobytes() == flat[~nan].tobytes()

    def test_signed_zero_reaches_the_result(self):
        # The probes above would pass a sum that dropped the sign of zero
        # only if no probe's exact sum were -0.0; this field makes sure.
        fld = make_uniform(-0.0, 0.0, 250.0, (40.0, 55.0, -3.0, 10.0))
        many = sample_many(fld, np.array([40.0, 47.1]), np.array([-3.0, 2.2]))
        assert np.signbit(many.wind_east).all()
        assert not np.signbit(many.wind_north).any()
        for la, lo in ((40.0, -3.0), (47.1, 2.2)):
            assert math.copysign(1.0, sample_at(fld, la, lo)[0]) == -1.0


class TestValidation:
    def test_descending_axis_rejected(self):
        with pytest.raises(ValueError):
            WeatherField(np.array([50.0, 40.0]), np.array([0.0, 5.0]),
                         np.zeros((2, 2)), np.zeros((2, 2)),
                         np.full((2, 2), 288.15))

    def test_temperature_bounds(self):
        with pytest.raises(ValueError):
            make_uniform(0, 0, 179.0, (40, 50, 0, 10))
        with pytest.raises(ValueError):
            make_uniform(0, 0, 331.0, (40, 50, 0, 10))

    def test_wind_magnitude_bound(self):
        with pytest.raises(ValueError):
            make_uniform(120.0, 120.0, 288.15, (40, 50, 0, 10))

    @pytest.mark.parametrize("wind", [(150.0, 0.0), (0.0, -150.0),
                                      (90.0, 120.0)])
    def test_wind_of_exactly_150_is_accepted(self, wind):
        fld = make_uniform(*wind, 288.15, (40, 50, 0, 10))
        assert fld.max_wind_speed() == 150.0

    def test_wind_just_over_150_is_refused(self):
        with pytest.raises(ValueError, match="^wind magnitude exceeds 150 m/s$"):
            make_uniform(np.nextafter(150.0, np.inf), 0.0, 288.15,
                         (40, 50, 0, 10))

    @pytest.mark.parametrize("lat, lon", [([40.0, 45.0, 45.0, 50.0], [0.0, 5.0]),
                                          ([40.0, 45.0], [0.0, 0.0])],
                             ids=["lat", "lon"])
    def test_repeated_axis_value_is_refused(self, lat, lon):
        shape = (len(lat), len(lon))
        with pytest.raises(ValueError, match="^axes must be strictly ascending$"):
            WeatherField(np.array(lat), np.array(lon), np.zeros(shape),
                         np.zeros(shape), np.full(shape, 288.15))

    @pytest.mark.parametrize("kelvin", [180.0, 330.0])
    def test_temperature_bounds_are_inclusive(self, kelvin):
        fld = make_uniform(0, 0, kelvin, (40, 50, 0, 10))
        assert fld.temperature_range() == (kelvin, kelvin)

    @pytest.mark.parametrize("kelvin", [np.nextafter(180.0, -np.inf),
                                        np.nextafter(330.0, np.inf)],
                             ids=["below-180", "above-330"])
    def test_temperature_just_outside_is_refused(self, kelvin):
        with pytest.raises(ValueError,
                           match=r"^temperature outside \[180, 330\] K$"):
            make_uniform(0, 0, kelvin, (40, 50, 0, 10))

    @pytest.mark.parametrize("grid", [0, 1, 2])
    def test_non_finite_values_rejected(self, grid):
        grids = [np.zeros((2, 2)), np.zeros((2, 2)), np.full((2, 2), 288.15)]
        grids[grid][1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            WeatherField(np.array([40.0, 50.0]), np.array([0.0, 5.0]), *grids)

    @pytest.mark.parametrize("name", ["lat_axis", "lon_axis"])
    @pytest.mark.parametrize("axis", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf],
                                      [-np.inf, 0.0, 1.0]],
                             ids=["nan", "inf", "minus-inf"])
    def test_non_finite_axis_rejected(self, name, axis):
        axes = {"lat_axis": np.array([0.0, 1.0]),
                "lon_axis": np.array([0.0, 1.0]), name: np.array(axis)}
        shape = (axes["lat_axis"].size, axes["lon_axis"].size)
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            WeatherField(axes["lat_axis"], axes["lon_axis"], np.zeros(shape),
                         np.zeros(shape), np.full(shape, 288.15))

    def test_axis_beyond_the_globe_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^lat_axis must lie within \[-90, 90\] "
                                 "degrees$"):
            make_jet_stream((60, 120, 170, 250), 100, 40, 4, seed=1)
        with pytest.raises(ValueError,
                           match=r"^lon_axis must lie within \[-180, 180\] "
                                 "degrees$"):
            make_uniform(0.0, 0.0, ISA_TEMPERATURE_K, (0, 10, -190, -170))

    def test_globe_and_request_fields_build(self):
        # The trainer's whole-globe field, and make_weather's boxes, which
        # it clamps to 89 N/S and 179 E/W, for trips at the globe's edges.
        make_uniform(0.0, 0.0, ISA_TEMPERATURE_K, (-90, 90, -180, 180))
        corners = [GeoPoint(lat, lon) for lat in (-89.9, 0.0, 89.9)
                   for lon in (-179.9, 0.0, 179.9)]
        for a in corners:
            for b in corners:
                for spec in ("uniform", "jet"):
                    fld = make_weather(spec, a, b)
                    lat_lo, lat_hi, lon_lo, lon_hi = fld.bbox()
                    assert -90 <= lat_lo < lat_hi <= 90
                    assert -180 <= lon_lo < lon_hi <= 180

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            WeatherField(np.array([40.0, 50.0]), np.array([0.0, 5.0, 10.0]),
                         np.zeros((2, 2)), np.zeros((2, 2)),
                         np.full((2, 2), 288.15))


def hypot_max(x, y):
    """The largest wind magnitude as every hypot, then the max."""
    return float(np.hypot(x, y).max())


#: Finite doubles of every scale, subnormals and signed zeros included;
#: squares of the largest overflow to inf.
any_double = st.floats(allow_nan=False, allow_infinity=False)
grid_shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                               max_side=9)


@st.composite
def tied_grids(draw):
    """Grids whose magnitudes tie or sit one ulp apart: sign flips and
    swaps of one pair, and the pair with one component moved by an ulp."""
    x, y = draw(any_double), draw(any_double)
    near = math.nextafter(x, math.inf if draw(st.booleans()) else -math.inf)
    pairs = [(x, y), (-x, y), (x, -y), (y, x), (-y, -x), (near, y)]
    picks = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=30))
    rows = draw(st.integers(1, len(picks)))
    picks = picks[:len(picks) - len(picks) % rows]
    grid = np.array(picks).T.reshape(2, rows, -1)
    return grid[0], grid[1]


class TestMaxWindSpeed:
    """`max_wind_speed` takes hypot only where the squares come near the
    largest; it equals the max over every hypot, bit for bit."""

    @given(grid_shapes.flatmap(lambda shape: st.tuples(
        hnp.arrays(float, shape, elements=any_double),
        hnp.arrays(float, shape, elements=any_double))))
    @settings(max_examples=200)
    def test_random_grids(self, grids):
        x, y = grids
        with np.errstate(over="ignore"):
            assert _max_hypot(x, y) == hypot_max(x, y)

    @given(tied_grids())
    @settings(max_examples=200)
    def test_tied_grids(self, grids):
        with np.errstate(over="ignore"):
            assert _max_hypot(*grids) == hypot_max(*grids)

    # In each pair, the first sum of squares is the larger and its hypot
    # the smaller: a rule that kept only the largest square would miss the
    # second. In subnormal squares the gap is 20% (4 against 5 units of
    # 2**-1074), which only the absolute margin covers.
    @pytest.mark.parametrize("x, y", [
        ((78.63587471725242, 78.63587471725243),
         (68.05724917442751, 68.0572491744275)),
        ((4.720419539346076e-162, 3.5074541453092496e-162),
         (0.0, 3.5074541453092496e-162))], ids=["ulp", "subnormal"])
    def test_largest_square_is_not_the_largest_hypot(self, x, y):
        x, y = np.array([x]), np.array([y])
        squares = x * x + y * y
        assert squares[0, 0] > squares[0, 1]
        assert np.hypot(x[0, 0], y[0, 0]) < np.hypot(x[0, 1], y[0, 1])
        assert _max_hypot(x, y) == hypot_max(x, y) == np.hypot(x[0, 1], y[0, 1])

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_grid(self, zero):
        x = np.full((3, 4), zero)
        assert _max_hypot(x, x) == 0.0
        fld = make_uniform(zero, zero, 288.15, (40, 50, 0, 10))
        assert fld.max_wind_speed() == 0.0

    # Components within 106 m/s keep every magnitude under the 150 m/s
    # that a field accepts.
    @given(hnp.array_shapes(min_dims=2, max_dims=2, min_side=2,
                            max_side=9).flatmap(lambda shape: st.tuples(
        hnp.arrays(float, shape, elements=st.floats(-106.0, 106.0)),
        hnp.arrays(float, shape, elements=st.floats(-106.0, 106.0)))))
    @settings(max_examples=100)
    def test_field_reports_the_largest_hypot(self, grids):
        we, wn = grids
        fld = WeatherField(np.linspace(40.0, 50.0, we.shape[0]),
                           np.linspace(0.0, 10.0, we.shape[1]), we, wn,
                           np.full(we.shape, 288.15))
        assert fld.max_wind_speed() == hypot_max(we, wn)


class TestImmutable:
    def test_arrays_are_read_only_copies(self):
        lat_axis = np.array([40.0, 45.0, 50.0])
        lon_axis = np.array([0.0, 5.0])
        grids = [np.zeros((3, 2)), np.ones((3, 2)), np.full((3, 2), 288.15)]
        fld = WeatherField(lat_axis, lon_axis, *grids)
        for name in ("lat_axis", "lon_axis", "wind_east", "wind_north",
                     "temperature"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(fld, name)[0] = 1.0
        # The caller's arrays stay writable, and writing them leaves the
        # field as it was built.
        lat_axis[0] = 41.0
        grids[1][0, 0] = 7.0
        assert fld.lat_axis[0] == 40.0 and fld.wind_north[0, 0] == 1.0
        assert sample(fld, GeoPoint(40.0, 0.0)).wind_north == 1.0

    def test_extremes_are_the_grids(self):
        # Computed once at construction, which only read-only grids allow.
        fld = make_jet_stream((30.0, 70.0, -20.0, 40.0), 50.0, 60.0, 4.0,
                              seed=3)
        assert fld.max_wind_speed() == float(
            np.max(np.hypot(fld.wind_east, fld.wind_north)))
        assert fld.temperature_range() == (float(np.min(fld.temperature)),
                                           float(np.max(fld.temperature)))


class TestMakeUniform:
    def test_constant_everywhere(self):
        fld = make_uniform(12.0, -3.0, 290.0, (40, 50, 0, 10))
        for lat, lon in [(40, 0), (45, 5), (50, 10), (42.3, 7.7)]:
            s = sample(fld, GeoPoint(lat, lon))
            assert s.wind_east == pytest.approx(12.0)
            assert s.wind_north == pytest.approx(-3.0)
            assert s.temperature == pytest.approx(290.0)


class TestMakeJetStream:
    def test_deterministic_per_seed(self):
        a = make_jet_stream((34, 60, -10, 20), 48.0, 40.0, 4.0, seed=3)
        b = make_jet_stream((34, 60, -10, 20), 48.0, 40.0, 4.0, seed=3)
        assert np.array_equal(a.wind_east, b.wind_east)
        assert np.array_equal(a.wind_north, b.wind_north)
        assert np.array_equal(a.temperature, b.temperature)

    def test_different_seeds_differ(self):
        a = make_jet_stream((34, 60, -10, 20), 48.0, 40.0, 4.0, seed=3)
        b = make_jet_stream((34, 60, -10, 20), 48.0, 40.0, 4.0, seed=4)
        assert not np.array_equal(a.wind_east, b.wind_east)

    def test_core_stronger_than_flanks(self):
        fld = make_jet_stream((34, 60, -10, 20), 48.0, 40.0, 4.0, seed=3)
        core = sample(fld, GeoPoint(48.0, 5.0)).wind_east
        flank = sample(fld, GeoPoint(36.0, 5.0)).wind_east
        assert core > flank
        assert core > 0.8 * 40.0

    def test_perturbation_budget(self):
        base = make_jet_stream((34, 60, -10, 20), 48.0, 40.0, 4.0,
                               seed=3, perturbation=0.0)
        pert = make_jet_stream((34, 60, -10, 20), 48.0, 40.0, 4.0,
                               seed=3, perturbation=0.1)
        assert np.max(np.abs(pert.wind_east - base.wind_east)) <= 0.1 * 40.0 + 1e-9
        assert np.max(np.abs(pert.wind_north)) <= 0.1 * 40.0 + 1e-9

    def test_core_speed_range(self):
        with pytest.raises(ValueError):
            make_jet_stream((34, 60, -10, 20), 48.0, 130.0, 4.0, seed=1)

    def test_temperature_is_symmetric_about_the_equator(self):
        # A gradient in signed latitude would exceed 330 K south of about
        # -38.7 deg, and no southern jet field could be built.
        fld = make_jet_stream((-60, 60, -10, 20), 0.0, 40.0, 4.0, seed=3)
        assert np.array_equal(fld.lat_axis, -fld.lat_axis[::-1])
        assert np.array_equal(fld.temperature, fld.temperature[::-1])
        north = fld.lat_axis >= 0
        lat_g = np.broadcast_to(fld.lat_axis[:, None], fld.temperature.shape)
        assert np.array_equal(fld.temperature[north],
                              (ISA_TEMPERATURE_K - 0.5 * (lat_g - 45.0))[north])

    @given(st.floats(-80.0, 70.0), st.floats(2.0, 20.0), st.floats(-179.0, 150.0),
           st.floats(2.0, 29.0), st.floats(0.0, 120.0), st.floats(0.5, 6.0),
           st.floats(0.0, 0.1), st.integers(0, 2**32 - 1), st.integers(2, 61))
    @settings(max_examples=60, deadline=None)
    def test_matches_meshgrid_reference(self, lat_min, lat_span, lon_min,
                                        lon_span, core_speed, half_width,
                                        perturbation, seed, resolution):
        bbox = (lat_min, lat_min + lat_span, lon_min, lon_min + lon_span)
        core_lat = lat_min + lat_span / 2.0
        fld = make_jet_stream(bbox, core_lat, core_speed, half_width, seed,
                              perturbation, resolution)
        # The field evaluated on the full meshgrid, term by term.
        lat_g, lon_g = np.meshgrid(fld.lat_axis, fld.lon_axis, indexing="ij")
        jet = core_speed * np.exp(-(((lat_g - core_lat) / half_width) ** 2))
        rng = np.random.default_rng(seed)
        we, wn = np.zeros_like(jet), np.zeros_like(jet)
        budget = perturbation * core_speed
        if budget > 0.0:
            for a in rng.dirichlet(np.ones(5)) * budget:
                k_lat, k_lon = rng.uniform(0.1, 0.8), rng.uniform(0.1, 0.8)
                ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
                we += a * np.sin(k_lat * lat_g + ph1) * np.cos(k_lon * lon_g + ph2)
                wn += 0.5 * a * np.cos(k_lat * lat_g + ph2) * np.sin(k_lon * lon_g + ph1)
        assert np.array_equal(fld.wind_east, jet + we)
        assert np.array_equal(fld.wind_north, wn)
        assert np.array_equal(fld.temperature,
                              ISA_TEMPERATURE_K - 0.5 * (np.abs(lat_g) - 45.0))


    @pytest.mark.parametrize("core_lat", [math.inf, -math.inf, math.nan])
    def test_non_finite_core_lat_is_refused(self, core_lat):
        with pytest.raises(ValueError, match="^core_lat must be finite$"):
            make_jet_stream((34, 60, -10, 20), core_lat, 40.0, 4.0, seed=1)

    @pytest.mark.parametrize("half_width", [0.0, -4.0, math.inf, math.nan])
    def test_bad_half_width_is_refused(self, half_width):
        with pytest.raises(ValueError,
                           match="^half_width must be finite and positive$"):
            make_jet_stream((34, 60, -10, 20), 48.0, 40.0, half_width, seed=1)

    def test_cached_modes_are_read_only(self):
        for values in _jet_modes(5):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.5

    @given(st.floats(-80.0, 70.0), st.floats(2.0, 20.0),
           st.floats(-179.0, 150.0), st.floats(2.0, 29.0),
           st.floats(-0.5, 1.5), st.just(0.0) | st.floats(0.0, 120.0),
           st.floats(0.5, 20.0), st.just(0.0) | st.floats(0.0, 0.1),
           st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
           st.integers(2, 61))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_the_per_mode_loop(
            self, lat_min, lat_span, lon_min, lon_span, core_at, core_speed,
            half_width, perturbation, seed, other_seed, resolution):
        # A new seed, the same one again and another new one: the mode
        # memo misses, hits and misses.
        if other_seed == seed:
            other_seed = (seed + 1) % 2**32
        bbox = (lat_min, lat_min + lat_span, lon_min, lon_min + lon_span)
        core_lat = lat_min + core_at * lat_span
        _jet_modes.cache_clear()
        for s in (seed, seed, other_seed):
            fld = make_jet_stream(bbox, core_lat, core_speed, half_width, s,
                                  perturbation, resolution)
            want = per_mode_jet_stream(bbox, core_lat, core_speed, half_width,
                                       s, perturbation, resolution)
            for name, values in zip(("lat_axis", "lon_axis", "wind_east",
                                     "wind_north", "temperature"), want):
                assert getattr(fld, name).tobytes() == values.tobytes(), name
        info = _jet_modes.cache_info()
        assert (info.hits, info.misses) == (1, 2)


def per_mode_jet_stream(bbox, core_lat, core_speed, half_width, seed,
                        perturbation, resolution):
    """The jet field's five arrays as one `uniform` draw per value and one
    pass per mode computed them: the reference `make_jet_stream` keeps."""
    lat_min, lat_max, lon_min, lon_max = bbox
    lat_axis = np.linspace(lat_min, lat_max, resolution)
    lon_axis = np.linspace(lon_min, lon_max, resolution)
    lat_c = lat_axis[:, None]
    lon_r = lon_axis[None, :]
    shape = (resolution, resolution)
    jet = core_speed * np.exp(-(((lat_c - core_lat) / half_width) ** 2))
    rng = np.random.default_rng(seed)
    amp_budget = perturbation * core_speed
    perturb_e = np.zeros(shape)
    perturb_n = np.zeros(shape)
    if amp_budget > 0.0:
        amps = rng.dirichlet(np.ones(5)) * amp_budget
        for a in amps:
            k_lat = rng.uniform(0.1, 0.8)
            k_lon = rng.uniform(0.1, 0.8)
            ph1, ph2 = rng.uniform(0, 2 * math.pi, size=2)
            perturb_e += a * np.sin(k_lat * lat_c + ph1) * np.cos(k_lon * lon_r + ph2)
            perturb_n += 0.5 * a * np.cos(k_lat * lat_c + ph2) * np.sin(k_lon * lon_r + ph1)
    temp = np.broadcast_to(ISA_TEMPERATURE_K - 0.5 * (np.abs(lat_c) - 45.0), shape)
    return (lat_axis, lon_axis, jet + perturb_e, perturb_n,
            np.array(temp, dtype=float))


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        fld = make_jet_stream((40, 55, 0, 15), 48.0, 35.0, 4.0, seed=9,
                              resolution=13)
        path = tmp_path / "field.csv"
        save_csv(fld, str(path))
        back = load_csv(str(path))
        # %.9g gives float round-trip to relative 1e-9 at worst.
        assert np.allclose(back.lat_axis, fld.lat_axis, rtol=1e-8, atol=0)
        assert np.allclose(back.wind_east, fld.wind_east, rtol=1e-8, atol=1e-8)
        assert np.allclose(back.wind_north, fld.wind_north, rtol=1e-8, atol=1e-8)
        assert np.allclose(back.temperature, fld.temperature, rtol=1e-8)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lat,lon,u,v,t\n40,0,1,1,288\n")
        with pytest.raises(SchemaError):
            load_csv(str(path))

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n"
                        "40,0,1,1,288.15\n"
                        "40,5,oops,1,288.15\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(str(path))

    def test_incomplete_grid(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n"
                        "40,0,1,1,288.15\n"
                        "40,5,1,1,288.15\n"
                        "45,0,1,1,288.15\n")
        with pytest.raises(ParseError):
            load_csv(str(path))

    def test_duplicate_node_reports_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n"
                        "40,0,1,1,288.15\n"
                        "40,5,1,1,288.15\n"
                        "45,0,1,1,288.15\n"
                        "\n"
                        "40,5,2,2,288.15\n"
                        "45,5,1,1,288.15\n")
        with pytest.raises(ParseError, match=r"line 6: duplicate grid node \(40.0, 5.0\)"):
            load_csv(str(path))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_coordinate_reports_line(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n"
                        "40,0,1,1,288.15\n"
                        "40,5,1,1,288.15\n"
                        f"{bad},0,1,1,288.15\n"
                        f"{bad},5,1,1,288.15\n")
        with pytest.raises(ParseError, match="line 4: non-finite"):
            load_csv(str(path))

    def test_row_order_does_not_matter(self, tmp_path):
        fld = make_jet_stream((40, 55, 0, 15), 48.0, 35.0, 4.0, seed=9,
                              resolution=7)
        path = tmp_path / "field.csv"
        save_csv(fld, str(path))
        header, *rows = path.read_text().splitlines()
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([header, *reversed(rows)]) + "\n")
        a, b = load_csv(str(path)), load_csv(str(shuffled))
        for name in ("lat_axis", "lon_axis", "wind_east", "wind_north",
                     "temperature"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_csv(str(path))

    def test_non_utf8_byte_reports_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes((",".join(CSV_COLUMNS) + "\n"
                          "40,0,1,1,288.15\n").encode()
                         + b"40,5,1,1,288.15\xff\n")
        with pytest.raises(ParseError, match="line 3: not UTF-8 text "
                           r"\(byte 0xff\)"):
            load_csv(str(path))

    @pytest.mark.parametrize("rows, match", [
        (["40,0,1,1,288.15"], "lat_axis must be 1D with at least 2 points"),
        (["40,0,1,1,288.15", "40,5,1,1,400", "45,0,1,1,288.15",
          "45,5,1,1,288.15"], r"temperature outside \[180, 330\] K"),
        (["40,0,1,1,288.15", "40,5,nan,1,288.15", "45,0,1,1,288.15",
          "45,5,1,1,288.15"], "wind_east grid must be finite"),
        (["40,0,1,1,288.15", "40,5,1,1,288.15", "95,0,1,1,288.15",
          "95,5,1,1,288.15"], r"lat_axis must lie within \[-90, 90\]"),
    ], ids=["one-node", "400K", "nan-wind", "lat-95"])
    def test_invalid_grid_is_a_parse_error(self, rows, match):
        raw = "\n".join([",".join(CSV_COLUMNS), *rows]).encode()
        with pytest.raises(ParseError, match="invalid grid: " + match):
            parse_csv(raw)


class TestSaveCsv:
    class FailsAt:
        """A grid whose node (i, j) cannot be read."""

        def __init__(self, i, j):
            self.node = (i, j)

        def __getitem__(self, node):
            if node == self.node:
                raise OSError("no space left on device")
            return ISA_TEMPERATURE_K

    def test_failed_write_keeps_the_old_file_and_leaves_nothing(self,
                                                                tmp_path):
        path = tmp_path / "field.csv"
        save_csv(make_uniform(1.0, 2.0, 250.0, (40, 55, 5, 20)), str(path))
        old = path.read_bytes()
        # Fails after about 200 kB of rows, well past a write buffer.
        lat, lon = np.linspace(40, 55, 200), np.linspace(5, 20, 50)
        broken = SimpleNamespace(lat_axis=lat, lon_axis=lon,
                                 wind_east=np.zeros((200, 50)),
                                 wind_north=np.zeros((200, 50)),
                                 temperature=self.FailsAt(180, 0))
        with pytest.raises(OSError, match="no space left"):
            save_csv(broken, str(path))
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["field.csv"]

    def test_success_leaves_only_the_target(self, tmp_path):
        path = tmp_path / "field.csv"
        for wind in (1.0, 3.0):
            save_csv(make_uniform(wind, 2.0, 250.0, (40, 55, 5, 20)),
                     str(path))
            assert os.listdir(tmp_path) == ["field.csv"]
        assert load_csv(str(path)).wind_east[0, 0] == 3.0

    def test_mode_is_what_open_gives(self, tmp_path):
        fld = make_uniform(1.0, 2.0, 250.0, (40, 55, 5, 20))
        old_umask = os.umask(0o027)
        try:
            save_csv(fld, str(tmp_path / "new.csv"))
            with open(tmp_path / "plain.csv", "w"):
                pass
        finally:
            os.umask(old_umask)
        assert (os.stat(tmp_path / "new.csv").st_mode
                == os.stat(tmp_path / "plain.csv").st_mode)
        # Rewriting a file keeps its mode, as open() does.
        path = tmp_path / "private.csv"
        save_csv(fld, str(path))
        os.chmod(path, 0o600)
        save_csv(fld, str(path))
        assert os.stat(path).st_mode & 0o777 == 0o600


def test_helpers():
    fld = make_uniform(30.0, -40.0, 298.15, (40, 50, 0, 10))
    assert fld.max_wind_speed() == pytest.approx(50.0)
    assert fld.temperature_range() == (298.15, 298.15)
    assert fld.bbox() == (40.0, 50.0, 0.0, 10.0)
    assert ISA_TEMPERATURE_K == 288.15
