import numpy as np
import pytest
from hypothesis import given, strategies as st

from fringescale import contours, field_from_array
from fringescale.render import (
    COLORMAP_NAME,
    MASK_RGB,
    colormap,
    heatmap_rgb,
    write_contour_csv,
    write_heatmap,
)
from oracles import contour_csv_text


class TestColormap:
    def test_stop_values(self):
        np.testing.assert_array_equal(colormap(0.0), [0, 0, 128])
        np.testing.assert_array_equal(colormap(0.25), [0, 128, 255])
        np.testing.assert_array_equal(colormap(0.5), [255, 255, 255])
        np.testing.assert_array_equal(colormap(0.75), [255, 128, 0])
        np.testing.assert_array_equal(colormap(1.0), [128, 0, 0])

    def test_linear_between_stops(self):
        np.testing.assert_array_equal(colormap(0.125), [0, 64, 192])

    def test_clips_outside(self):
        np.testing.assert_array_equal(colormap(-3.0), colormap(0.0))
        np.testing.assert_array_equal(colormap(7.0), colormap(1.0))


class TestHeatmap:
    def test_extremes_map_to_end_stops(self):
        vals = np.zeros((8, 8))
        vals[0, 0] = -1.0
        vals[7, 7] = 1.0
        rgb, lo, hi = heatmap_rgb(field_from_array(vals))
        assert (lo, hi) == (-1.0, 1.0)
        np.testing.assert_array_equal(rgb[0, 0], [0, 0, 128])
        np.testing.assert_array_equal(rgb[7, 7], [128, 0, 0])
        np.testing.assert_array_equal(rgb[3, 3], [255, 255, 255])  # midpoint

    def test_masked_pixels_gray(self):
        vals = np.ones((8, 8))
        mask = np.ones((8, 8), dtype=bool)
        mask[2, 2] = False
        vals[2, 2] = 0.0
        rgb, _, _ = heatmap_rgb(field_from_array(vals, mask))
        np.testing.assert_array_equal(rgb[2, 2], MASK_RGB)

    def test_constant_field_midpoint(self):
        rgb, lo, hi = heatmap_rgb(field_from_array(np.full((8, 8), 3.0)))
        assert lo == hi == 3.0
        assert (rgb == 255).all()

    def test_all_masked(self):
        f = field_from_array(np.zeros((8, 8)), np.zeros((8, 8), dtype=bool))
        rgb, lo, hi = heatmap_rgb(f)
        assert lo is None and hi is None
        assert (rgb == 96).all()

    def test_write_heatmap_and_sidecar(self, tmp_path):
        vals = np.arange(64, dtype=float).reshape(8, 8)
        p = tmp_path / "h.ppm"
        write_heatmap(p, field_from_array(vals))
        data = p.read_bytes()
        assert data.startswith(b"P6\n8 8\n255\n")
        side = (tmp_path / "h.ppm.txt").read_text()
        assert f"colormap = {COLORMAP_NAME}" in side
        assert "min = 0.0" in side
        assert "max = 63.0" in side

    def test_all_masked_sidecar(self, tmp_path):
        f = field_from_array(np.zeros((8, 8)), np.zeros((8, 8), dtype=bool))
        p = tmp_path / "m.ppm"
        write_heatmap(p, f)
        assert "all_masked = true" in (tmp_path / "m.ppm.txt").read_text()


class TestContourCsv:
    def test_header_and_rows(self, tmp_path):
        x = np.arange(16, dtype=float)
        f = field_from_array(np.broadcast_to(x, (8, 16)).copy())
        p = tmp_path / "c.csv"
        write_contour_csv(p, f, levels=3)
        lines = p.read_text().splitlines()
        assert lines[0] == "level,segment,x,y"
        rows = [ln.split(",") for ln in lines[1:]]
        assert rows, "ramp must produce contour rows"
        # 3 interior levels of the 0..15 ramp: 3.75, 7.5, 11.25
        levels = sorted({float(r[0]) for r in rows})
        assert levels == pytest.approx([3.75, 7.5, 11.25])
        # x column reproduces the level exactly for a unit ramp
        for lv, _, xs, _ in rows:
            assert float(xs) == pytest.approx(float(lv), abs=1e-12)

    def test_segments_numbered_across_levels(self, tmp_path):
        vals = np.zeros((9, 9))
        vals[2, 2] = 2.0
        vals[6, 6] = 2.0
        p = tmp_path / "c.csv"
        write_contour_csv(p, field_from_array(vals), levels=1)
        rows = [ln.split(",") for ln in p.read_text().splitlines()[1:]]
        segs = sorted({int(r[1]) for r in rows})
        assert segs == [0, 1]  # two bumps, two polylines, ids increment

    def test_constant_header_only(self, tmp_path):
        p = tmp_path / "c.csv"
        write_contour_csv(p, field_from_array(np.ones((8, 8))))
        assert p.read_text() == "level,segment,x,y\n"

    def test_all_masked_header_only(self, tmp_path):
        f = field_from_array(np.zeros((8, 8)), np.zeros((8, 8), dtype=bool))
        p = tmp_path / "c.csv"
        write_contour_csv(p, f)
        assert p.read_text() == "level,segment,x,y\n"

    def test_17_digit_round_trip(self, tmp_path):
        # a value with no short decimal form survives the CSV round trip
        vals = np.broadcast_to(np.arange(16) * np.pi, (8, 16)).copy()
        p = tmp_path / "c.csv"
        write_contour_csv(p, field_from_array(vals), levels=5)
        for ln in p.read_text().splitlines()[1:]:
            lv, _, xs, ys = ln.split(",")
            x = float(xs)
            # reparse equals the exact interpolated coordinate: x * pi == level
            assert x * np.pi == pytest.approx(float(lv), rel=1e-15)

    def test_matches_row_by_row_text(self, tmp_path, rng):
        # bumps of both signs, noise and a masked hole give many open and
        # closed polylines per level, at negative and positive levels with
        # no short decimal form
        y, x = np.mgrid[0:40, 0:48].astype(float)
        vals = (np.sin(x / 3.1) * np.cos(y / 4.7) * np.pi
                + 0.05 * rng.normal(size=x.shape))
        mask = np.ones(vals.shape, dtype=bool)
        mask[12:20, 30:41] = False
        f = field_from_array(np.where(mask, vals, 0.0), mask)
        p = tmp_path / "c.csv"
        write_contour_csv(p, f, levels=7)
        text = p.read_text()
        assert len({ln.split(",")[1] for ln in text.splitlines()[1:]}) > 20
        assert text == contour_csv_text(f, 7)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(8, 12), st.integers(8, 12),
           st.sampled_from([0.5, 0.25, 0.3]), st.floats(0.0, 0.5),
           st.integers(1, 4))
    def test_random_fields_match_the_cell_oracle(self, tmp_path_factory, seed,
                                                 h, w, unit, mask_share, levels):
        # small integer multiples of a unit make saddles common, and one or
        # three levels between -2 and 2 units put corners exactly on a
        # level; the noise half breaks the ties
        rng = np.random.default_rng(seed)
        vals = rng.integers(-2, 3, size=(h, w)) * unit
        if seed % 2:
            vals = vals + 0.3 * rng.standard_normal((h, w))
        mask = rng.random((h, w)) >= mask_share
        vals[~mask] = 0.0
        f = field_from_array(vals, mask)
        p = tmp_path_factory.mktemp("csv") / "c.csv"
        write_contour_csv(p, f, levels=levels)
        assert p.read_text() == contour_csv_text(f, levels)

    @pytest.mark.parametrize("center, walks", [(0.0, True), (0.25, False)])
    def test_walk_and_pointer_jumping_match_the_cell_oracle(
            self, tmp_path, monkeypatch, center, walks):
        # the one level is 0: a center pixel on it, between two pixels
        # above it in its row and below it elsewhere, is a corner four
        # segments meet at, so the level is chained by the walk; lifted
        # off the level, every point has degree 2 and pointer jumping
        # chains it
        walked, walk = [], contours._walk
        monkeypatch.setattr(contours, "_walk",
                            lambda *args: walked.append(args) or walk(*args))
        vals = -np.ones((8, 8))
        vals[4, 3:6] = 1.0, center, 1.0
        f = field_from_array(vals)
        p = tmp_path / "c.csv"
        write_contour_csv(p, f, levels=1)
        text = p.read_text()
        assert text == contour_csv_text(f, 1)
        assert bool(walked) == walks
        assert text.count(",4,4\n") == (2 if walks else 0)  # the figure eight's waist
