import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skyroute.errors import OutOfDomain, ParseError, SchemaError
from skyroute.geo import GeoPoint
from skyroute.weather import (CSV_COLUMNS, ISA_TEMPERATURE_K, WeatherField,
                              load_csv, make_jet_stream, make_uniform,
                              parse_csv, sample, sample_many, save_csv)


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

    @pytest.mark.parametrize("grid", [0, 1, 2])
    def test_non_finite_values_rejected(self, grid):
        grids = [np.zeros((2, 2)), np.zeros((2, 2)), np.full((2, 2), 288.15)]
        grids[grid][1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            WeatherField(np.array([40.0, 50.0]), np.array([0.0, 5.0]), *grids)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            WeatherField(np.array([40.0, 50.0]), np.array([0.0, 5.0, 10.0]),
                         np.zeros((2, 2)), np.zeros((2, 2)),
                         np.full((2, 2), 288.15))


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
        assert fld.max_temp_deviation() == float(
            np.max(np.abs(fld.temperature - ISA_TEMPERATURE_K)))


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
    ], ids=["one-node", "400K", "nan-wind"])
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
    assert fld.max_temp_deviation() == pytest.approx(10.0)
    assert fld.bbox() == (40.0, 50.0, 0.0, 10.0)
    assert ISA_TEMPERATURE_K == 288.15
