import numpy as np
import pytest
from hypothesis import given, strategies as st

from fringescale import field_from_array
from fringescale.contours import contour_levels, marching_squares
from oracles import cell_marching_squares, cell_segments


def interp_field(vals, x, y):
    """Bilinear sample used to verify points lie on the iso-line."""
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    tx, ty = x - x0, y - y0
    x1 = min(x0 + 1, vals.shape[1] - 1)
    y1 = min(y0 + 1, vals.shape[0] - 1)
    return ((1 - tx) * (1 - ty) * vals[y0, x0] + tx * (1 - ty) * vals[y0, x1]
            + (1 - tx) * ty * vals[y1, x0] + tx * ty * vals[y1, x1])


class TestRamp:
    def test_single_straight_polyline(self):
        x = np.arange(16, dtype=float)
        vals = np.broadcast_to(x, (12, 16)).copy()
        f = field_from_array(vals)
        lines = marching_squares(f, 6.25)
        assert len(lines) == 1
        pts = lines[0]
        # one crossing per cell row: 11 rows of cells -> 12 points
        assert len(pts) == 12
        for px, py in pts:
            assert px == pytest.approx(6.25, abs=1e-12)
        ys = [py for _, py in pts]
        assert sorted(ys) == list(np.arange(12.0))

    def test_points_reproduce_level(self, rng):
        vals = rng.normal(size=(10, 10)).cumsum(axis=1)  # monotone-ish in x
        f = field_from_array(vals)
        level = float(np.median(vals))
        for line in marching_squares(f, level):
            for x, y in line:
                # every vertex lies on a cell edge; the field linearly
                # interpolated there equals the level
                assert interp_field(vals, x, y) == pytest.approx(level, abs=1e-9)


class TestBasicShapes:
    def test_constant_field_empty(self):
        f = field_from_array(np.ones((8, 8)))
        assert marching_squares(f, 1.0) == []
        assert marching_squares(f, 0.5) == []

    def test_single_bump_closed_loop(self):
        vals = np.zeros((9, 9))
        vals[4, 4] = 2.0
        f = field_from_array(vals)
        lines = marching_squares(f, 1.0)
        assert len(lines) == 1
        pts = lines[0]
        assert pts[0] == pts[-1]  # closed
        # the bump iso-crossings sit half way to the 4-neighbors
        assert set(pts) == {(3.5, 4.0), (4.0, 3.5), (4.5, 4.0), (4.0, 4.5)}

    def test_circle_radius(self):
        n = 33
        y, x = np.mgrid[0:n, 0:n].astype(float)
        r = np.hypot(x - 16, y - 16)
        f = field_from_array(-r)  # inside = close to center
        lines = marching_squares(f, -8.0)
        assert len(lines) == 1
        pts = np.array(lines[0])
        assert pts.shape[0] > 20
        rad = np.hypot(pts[:, 0] - 16, pts[:, 1] - 16)
        # linear interpolation of a circle: within half a pixel
        assert np.abs(rad - 8.0).max() < 0.5

    def test_open_line_hits_border(self):
        x = np.arange(12, dtype=float)
        vals = np.broadcast_to(x, (8, 12)).copy()
        lines = marching_squares(field_from_array(vals), 3.5)
        (line,) = lines
        assert line[0] != line[-1]  # open polyline
        ys = {p[1] for p in line}
        assert 0.0 in ys and 7.0 in ys


class TestSaddles:
    """The cell-center rule, on the one-cell oracle and through
    marching_squares on a field whose only valid cell is that one."""

    def _segments(self, a, b, d, e, level):
        """Segments of the cell (TL, TR, BR, BL) = (a, b, d, e), both ways."""
        cell = np.array([[a, b], [e, d]], dtype=float)
        oracle = {frozenset(s) for s in cell_segments(cell, level, 0, 0)}
        vals = np.zeros((8, 8))
        vals[:2, :2] = cell
        mask = np.zeros((8, 8), dtype=bool)
        mask[:2, :2] = True
        lines = marching_squares(field_from_array(vals, mask), level)
        assert all(len(line) == 2 for line in lines)
        assert {frozenset(line) for line in lines} == oracle
        return oracle

    def test_saddle_code5_center_decides(self):
        # corners: TL=1, BR=1 inside; TR=0, BL=0 outside; level 0.5
        endpoints = self._segments(1.0, 0.0, 1.0, 0.0, 0.5)
        # center mean = 0.5 >= level, so the inside regions connect:
        # segments pair top-right and bottom-left
        assert endpoints == {
            frozenset({(0.5, 0.0), (1.0, 0.5)}),
            frozenset({(0.5, 1.0), (0.0, 0.5)}),
        }

    def test_saddle_code5_low_center(self):
        endpoints = self._segments(1.0, -1.0, 1.0, -1.0, 0.5)
        # center mean 0 < level: inside corners stay separated
        assert endpoints == {
            frozenset({(0.25, 0.0), (0.0, 0.25)}),
            frozenset({(1.0, 0.75), (0.75, 1.0)}),
        }

    def test_saddle_deterministic(self):
        vals = np.array([[1.0, 0.0], [0.0, 1.0]])
        runs = [cell_segments(vals, 0.5, 0, 0) for _ in range(5)]
        assert all(r == runs[0] for r in runs)
        f = field_from_array(np.kron(np.ones((4, 4)), vals))
        lines = [marching_squares(f, 0.5) for _ in range(5)]
        assert all(r == lines[0] for r in lines)


class TestMatchesCellOracle:
    """marching_squares returns exactly the cell-by-cell oracle's
    polylines, in the same order, point by point."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(8, 14), st.integers(8, 14),
           st.sampled_from([0.5, 0.25, 0.3]), st.floats(0.0, 0.5))
    def test_random_fields(self, seed, h, w, unit, mask_share):
        # small integer multiples of a unit put many corners exactly on a
        # level and make saddles common; the noise half breaks the ties
        rng = np.random.default_rng(seed)
        vals = rng.integers(-2, 3, size=(h, w)) * unit
        if seed % 2:
            vals = vals + 0.3 * rng.standard_normal((h, w))
        mask = rng.random((h, w)) >= mask_share
        vals[~mask] = 0.0
        f = field_from_array(vals, mask)
        for level in (0.0, unit, -unit, 0.3, float(vals[0, 0])):
            assert marching_squares(f, level) == cell_marching_squares(f, level)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_values_past_float32(self, scale):
        # the cells' float32 ranges overflow to inf or underflow to 0, so
        # many cells are candidates at each level; the exact case codes
        # still pick the crossing ones, and the casts raise nothing
        rng = np.random.default_rng(5)
        vals = (rng.integers(-2, 3, size=(10, 12))
                + 0.3 * rng.standard_normal((10, 12))) * scale
        f = field_from_array(vals)
        with np.errstate(all="raise"):
            for level in (0.0, scale, -0.5 * scale, float(vals[0, 0])):
                assert marching_squares(f, level) == cell_marching_squares(f, level)

    def test_exact_level_corners_merge(self):
        # corners exactly at the level: zero-length segments drop, and the
        # crossings of neighboring cells meet on the same point
        vals = np.zeros((8, 8))
        vals[2:6, 2:6] = 1.0
        vals[3:5, 3:5] = 2.0
        f = field_from_array(vals)
        for level in (0.0, 1.0, 2.0, 0.5):
            assert marching_squares(f, level) == cell_marching_squares(f, level)


class TestMasking:
    def test_masked_cells_skipped(self):
        x = np.arange(12, dtype=float)
        vals = np.broadcast_to(x, (8, 12)).copy()
        mask = np.ones((8, 8 + 4), dtype=bool)
        mask[3:5, :] = False
        vals[~mask] = 0.0
        f = field_from_array(vals, mask)
        lines = marching_squares(f, 6.5)
        ys = [p[1] for line in lines for p in line]
        # cells with rows 2..5 touch masked pixels, so no points there
        assert all(y <= 2.0 or y >= 5.0 for y in ys)

    def test_fully_masked_empty(self):
        f = field_from_array(np.zeros((8, 8)), np.zeros((8, 8), dtype=bool))
        assert marching_squares(f, 0.0) == []


class TestChaining:
    def test_adjacent_cells_share_bitwise_endpoint(self):
        vals = np.array([
            [0.0, 0.1, 0.0, 0.0],
            [0.9, 1.0, 0.8, 0.1],
            [0.0, 0.2, 0.1, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ])
        lines = marching_squares(field_from_array(np.kron(vals, np.ones((3, 3)))), 0.5)
        # all segments chain: every polyline has > 1 point and shared interior
        # vertices appear exactly once per adjacent pair
        assert lines
        for line in lines:
            assert len(line) >= 2


class TestContourLevels:
    def test_strictly_interior(self):
        levels = contour_levels(0.0, 1.0, 3)
        assert levels == pytest.approx([0.25, 0.5, 0.75])

    def test_counts(self):
        assert len(contour_levels(-2.0, 5.0, 10)) == 10

    def test_excludes_bounds(self):
        for n in (1, 2, 7):
            levels = contour_levels(3.0, 4.0, n)
            assert all(3.0 < lv < 4.0 for lv in levels)

    def test_degenerate_span_empty(self):
        assert contour_levels(1.0, 1.0, 5) == []
        assert contour_levels(2.0, 1.0, 5) == []
        assert contour_levels(0.0, 1.0, 0) == []
