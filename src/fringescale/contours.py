"""Marching-squares iso-contours with subpixel edge interpolation.

Pixel centers sit at integer coordinates (x = column, y = row). Each
2x2 block of pixels forms a cell; a corner is inside when value >= level.
Crossing points are linearly interpolated along cell edges, so every
emitted point lies on a horizontal or vertical edge and interpolating
the field along that edge at the point reproduces the level exactly.
The two ambiguous saddle cases are resolved by the cell-center average:
the mean of the four corners decides which diagonal pairing is used.
Cells touching a masked pixel are skipped, and a segment whose two ends
coincide (a corner exactly at the level) is dropped.

Case codes, crossings and segments are computed for all cells of a level
at once; segments come out in row-major cell order. They are chained into
polylines by matching shared endpoints: adjacent cells interpolate the
shared edge from identical inputs, so the coordinates match bitwise, and
equal coordinates get one integer point id. Chains start at odd-degree
points (open polylines), then at any point with unused segments (closed
loops), each in ascending (x, y) order; a walk always leaves a point by
its earliest-emitted unused segment.
"""

from __future__ import annotations

import numpy as np

from .core import ScalarField

Point = tuple[float, float]
Polyline = list[Point]

# Cell edges: 0 top, 1 right, 2 bottom, 3 left. _EDGE_START is the edge's
# first corner as (row, col) offsets in the cell; it runs along the row
# for top and bottom, down the column for left and right.
_EDGE_START = np.array([[0, 0], [0, 1], [1, 0], [0, 0]])
_EDGE_ALONG_ROW = np.array([True, False, True, False])

# Segments per case code as (edge, edge) pairs, -1 for none. The saddle
# codes 5 and 10 take row _JOIN (top-right, bottom-left) or _SPLIT
# (top-left, right-bottom) from the cell-center mean.
_JOIN, _SPLIT = 16, 17
_PAIRS = np.full((18, 2, 2), -1)
for _code, _pairs in {1: [(0, 3)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
                      6: [(0, 2)], 7: [(3, 2)], 8: [(3, 2)], 9: [(0, 2)],
                      11: [(1, 2)], 12: [(3, 1)], 13: [(0, 1)], 14: [(0, 3)],
                      _JOIN: [(0, 1), (2, 3)], _SPLIT: [(0, 3), (1, 2)]}.items():
    _PAIRS[_code, :len(_pairs)] = _pairs


def _segments(vals: np.ndarray, valid: np.ndarray, level: float):
    """End coordinates x, y, each (segment, end), in row-major cell order."""
    inside = (vals >= level).view(np.uint8)
    code = (inside[:-1, :-1] | (inside[:-1, 1:] << 1)
            | (inside[1:, 1:] << 2) | (inside[1:, :-1] << 3))
    cell_ok = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, 1:] & valid[1:, :-1]
    cells = np.flatnonzero(cell_ok & (code != 0) & (code != 15))
    r, c = np.divmod(cells, code.shape[1])
    code = code.ravel()[cells].astype(np.intp)
    saddle = np.flatnonzero((code == 5) | (code == 10))
    rs, cs = r[saddle], c[saddle]
    center_inside = (vals[rs, cs] + vals[rs, cs + 1] + vals[rs + 1, cs + 1]
                     + vals[rs + 1, cs]) / 4.0 >= level
    code[saddle] = np.where((code[saddle] == 5) == center_inside, _JOIN, _SPLIT)
    edges = _PAIRS[code]  # (cell, slot, end)
    cell, slot = np.nonzero(edges[:, :, 0] >= 0)
    edge = edges[cell, slot]  # (segment, end)
    r0 = r[cell, None] + _EDGE_START[edge, 0]
    c0 = c[cell, None] + _EDGE_START[edge, 1]
    along_row = _EDGE_ALONG_ROW[edge]
    v0 = vals[r0, c0]
    v1 = vals[r0 + ~along_row, c0 + along_row]  # != v0: the level lies between
    t = (level - v0) / (v1 - v0)
    x = np.where(along_row, c0 + t, c0)
    y = np.where(along_row, r0, r0 + t)
    keep = (x[:, 0] != x[:, 1]) | (y[:, 0] != y[:, 1])
    return x[keep], y[keep]


def _chain(x: np.ndarray, y: np.ndarray) -> list[Polyline]:
    """Join segments (rows of x, y end pairs) into polylines."""
    if not len(x):
        return []
    # complex numbers sort by real part, then imaginary: (x, y) order
    z = x.astype(np.complex128)
    z.imag = y
    pts, end_id = np.unique(z, return_inverse=True)
    end_id = end_id.reshape(-1, 2)
    # parallel segments share one count: a walk consumes point pairs
    lo, hi = end_id.min(axis=1), end_id.max(axis=1)
    _, pair, count = np.unique(lo * len(pts) + hi, return_inverse=True,
                               return_counts=True)
    # each point's neighbors in emission order: segment s adds p1 to p0's
    # list, then p0 to p1's
    src = end_id.ravel()
    order = np.argsort(src, kind="stable")
    start = np.searchsorted(src[order], np.arange(len(pts) + 1))
    nbr = end_id[:, ::-1].ravel()[order].tolist()
    via = np.repeat(pair, 2)[order].tolist()
    pair_left = count.tolist()
    degree = np.diff(start)
    point_left = degree.tolist()  # unused segment ends at each point
    start = start.tolist()

    def walk(p: int) -> list[int]:
        line = [p]
        while point_left[p]:
            j = start[p]
            while not pair_left[via[j]]:
                j += 1
            pair_left[via[j]] -= 1
            point_left[p] -= 1
            p = nbr[j]
            point_left[p] -= 1
            line.append(p)
        return line

    lines = []
    for anchors in (np.flatnonzero(degree % 2).tolist(), range(len(pts))):
        for p in anchors:
            while point_left[p]:
                lines.append(walk(p))
    coords = list(zip(pts.real.tolist(), pts.imag.tolist()))
    return [[coords[i] for i in line] for line in lines]


def marching_squares(field: ScalarField, level: float) -> list[Polyline]:
    """All iso-polylines of the field at one level."""
    return _chain(*_segments(field.values, field.valid(), level))


def contour_levels(lo: float, hi: float, n: int) -> list[float]:
    """n levels evenly spaced strictly between lo and hi."""
    if n < 1 or hi <= lo:
        return []
    step = (hi - lo) / (n + 1)
    return [lo + step * (i + 1) for i in range(n)]
