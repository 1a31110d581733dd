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

Cells are classified once per field (CellRanges): each cell's corner
min and max, rounded to float32, with cells touching a masked pixel
excluded. A level can cross only the cells whose rounded range holds the
rounded level; case codes, saddles, crossings and segments are computed
for those cells only, in row-major order, and the exact case codes drop
the few the level does not cross, so segments come out in row-major cell
order. They are chained into polylines by matching shared endpoints:
adjacent cells interpolate the shared edge from identical inputs, so the
coordinates match bitwise, and equal coordinates get one integer point
id. Chains start at odd-degree points (open polylines), then at any
point with unused segments (closed loops), each in ascending (x, y)
order; a walk always leaves a point by its earliest-emitted unused
segment. When no point has more than two segment ends, every chain is a
path or a cycle and is traced by pointer jumping in numpy; a level with
a corner exactly on it can give a point of degree 4, and only then does
a walk in Python run.
"""

from __future__ import annotations

from collections.abc import Sequence

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


class CellRanges:
    """The corner min and max of every cell of one field, in float32, laid
    out by the cell's top-left pixel: lo and hi are (rows - 1, cols), NaN
    in the last column, which starts no cell, and at cells touching a
    masked pixel.

    Rounding to float32 keeps order (x <= y gives f(x) <= f(y)), so every
    cell a level crosses (min < level <= max) has f(min) <= f(level) <=
    f(max): the candidates hold all crossing cells, and the exact case
    codes, which are 0 or 15 on the few others, drop the rest. Values past
    float32's range or below its precision round to +-inf or 0, which
    keeps that order, so the casts may overflow and underflow.
    """

    @np.errstate(over="ignore", under="ignore")
    def __init__(self, field: ScalarField):
        self.vals = field.values
        vals = field.values.astype(np.float32)
        if field.mask is not None:
            vals[~field.mask] = np.nan
        self.lo = self._corners(np.minimum, vals)
        self.hi = self._corners(np.maximum, vals)

    @staticmethod
    def _corners(pick, vals: np.ndarray) -> np.ndarray:
        # pairs along each row, then pairs of rows in place
        out = np.empty_like(vals)
        pick(vals[:, :-1], vals[:, 1:], out=out[:, :-1])
        out[:, -1] = np.nan
        pick(out[:-1], out[1:], out=out[:-1])
        return out[:-1]

    @np.errstate(over="ignore", under="ignore")
    def candidates(self, level: float) -> np.ndarray:
        """Flat top-left pixels of the cells the level may cross, in
        row-major order: all it crosses, and a few more."""
        level = np.float32(level)
        return np.flatnonzero((self.lo <= level) & (level <= self.hi))


class Polylines(Sequence):
    """The polylines of one level, stored flat: (x[i], y[i]) is point i in
    emission order, and polyline k holds points ends[k - 1] to ends[k]
    (from 0 for k = 0). Each item reads as a list of (x, y) tuples, and
    a Polylines equals any sequence of equal items."""

    def __init__(self, x: np.ndarray, y: np.ndarray, ends: np.ndarray):
        self.x, self.y, self.ends = x, y, ends

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, k: int) -> Polyline:
        k = range(len(self.ends))[k]
        start, stop = self.ends[k - 1] if k else 0, self.ends[k]
        return list(zip(self.x[start:stop].tolist(), self.y[start:stop].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"Polylines({list(self)!r})"


def _segments(cells: CellRanges, level: float):
    """End coordinates x, y, each (segment, end), in row-major cell order."""
    vals, w = cells.vals, cells.vals.shape[1]
    top_left = cells.candidates(level)
    flat = vals.ravel()
    a, b = flat[top_left], flat[top_left + 1]
    d, e = flat[top_left + w + 1], flat[top_left + w]
    code = ((a >= level) + 2 * (b >= level) + 4 * (d >= level)
            + 8 * (e >= level))
    saddle = np.flatnonzero((code == 5) | (code == 10))
    center_inside = (a[saddle] + b[saddle] + d[saddle] + e[saddle]) / 4.0 >= level
    code[saddle] = np.where((code[saddle] == 5) == center_inside, _JOIN, _SPLIT)
    edges = _PAIRS[code]  # (cell, slot, end)
    cell, slot = np.nonzero(edges[:, :, 0] >= 0)
    edge = edges[cell, slot]  # (segment, end)
    r, c = np.divmod(top_left, w)
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


def _walk(tail: np.ndarray, order: np.ndarray, first: np.ndarray,
          degree: np.ndarray) -> list[list[int]]:
    """Point ids of each polyline, by walking segments one at a time."""
    n = len(degree)
    end_id = tail.reshape(-1, 2)
    # parallel segments share one count: a walk consumes point pairs
    lo, hi = end_id.min(axis=1), end_id.max(axis=1)
    _, pair, count = np.unique(lo * n + hi, return_inverse=True,
                               return_counts=True)
    # each point's neighbors in emission order: segment s adds p1 to p0's
    # list, then p0 to p1's
    start = np.append(first, len(tail)).tolist()
    nbr = tail[order ^ 1].tolist()
    via = pair[order // 2].tolist()
    pair_left = count.tolist()
    point_left = degree.tolist()  # unused segment ends at each point

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
    for anchors in (np.flatnonzero(degree % 2).tolist(), range(n)):
        for p in anchors:
            while point_left[p]:
                lines.append(walk(p))
    return lines


def _trace(tail: np.ndarray, order: np.ndarray, first: np.ndarray,
           degree: np.ndarray):
    """Point ids of all polylines, flat, and each polyline's end index,
    when no point has more than two segment ends.

    The walk along half-edge h that reaches its head q leaves by q's other
    half-edge, or stops when q has degree 1. Pointer jumping finds, for
    each half-edge, the smallest key on the half-edges after it and how
    many steps ahead it lies: a half-edge's key is its place in order, and
    stopping at an end point q counts as key q - n, below every other key.
    A path segment is walked towards the path's larger end, and its
    polyline is placed by the smaller end; a cycle segment is walked in
    the direction whose half-edges include the one leaving the cycle's
    smallest point by its earliest segment, and the cycle is placed by
    that half-edge's key. So every open polyline sorts before any closed
    loop, each group in ascending (x, y) of its first point, and the steps
    ahead order the points within one.
    """
    n, half = len(degree), len(tail)
    key = np.empty(half, dtype=np.intp)
    key[order] = np.arange(half)
    h = np.arange(half)
    back = h ^ 1  # leaves the head of h
    head = tail[back]
    stop = degree[head] == 1
    # a head of degree 2 has two places in order, first and first + 1:
    # back takes one, the next half-edge the other
    other = np.where(stop, key[back], 2 * first[head] + 1 - key[back])
    nxt = np.where(stop, h, order[other])
    # (smallest key in h's window) * wide + (steps from h to it), where no
    # window counts 2 * len(segments) = half steps: the minimum of two
    # windows is the earlier one unless the later one holds a smaller key.
    # After the last round each window is longer than any walk, so it holds
    # its whole orbit.
    wide = half + 1
    best = np.where(stop, head - n, key[nxt]) * wide + 1
    span = 1  # the windows' length
    while span <= half // 2:
        best = np.minimum(best, best[nxt] + span)
        nxt, span = nxt[nxt], 2 * span
    low, ahead = np.divmod(best, wide)
    fwd, rev = low[0::2], low[1::2]
    # paths (low < 0) go towards the larger end, cycles by the smaller key
    walked = 2 * np.arange(half // 2) + ((fwd < rev) == (fwd < 0))
    place = np.minimum(fwd, rev)
    sequence = np.lexsort((-ahead[walked], place))
    walked, place = walked[sequence], place[sequence]
    ends = np.append(np.flatnonzero(np.diff(place)) + 1, len(walked))
    ids = np.insert(tail[walked], ends, head[walked[ends - 1]])
    return ids, ends + np.arange(1, len(ends) + 1)


def _chain(x: np.ndarray, y: np.ndarray) -> Polylines:
    """Join segments (rows of x, y end pairs) into polylines."""
    if not len(x):
        return Polylines(x.ravel(), y.ravel(), np.zeros(0, dtype=np.intp))
    # half-edge h = 2 s + k runs along segment s from its end k; complex
    # numbers sort by real part, then imaginary: (x, y) order, and a
    # stable sort keeps each point's half-edges in emission order
    z = x.astype(np.complex128)
    z.imag = y
    z = z.ravel()
    order = np.argsort(z, kind="stable")
    z = z[order]
    new = np.empty(len(z), dtype=bool)
    new[0] = True
    np.not_equal(z[1:], z[:-1], out=new[1:])
    first = np.flatnonzero(new)  # each point's first place in order
    tail = np.empty(len(z), dtype=np.intp)  # point id of each half-edge
    tail[order] = np.cumsum(new) - 1
    degree = np.diff(first, append=len(z))
    if degree.max() > 2:
        lines = _walk(tail, order, first, degree)
        ids = np.concatenate(lines)
        ends = np.cumsum([len(line) for line in lines])
    else:
        ids, ends = _trace(tail, order, first, degree)
    pts = z[first[ids]]
    return Polylines(pts.real, pts.imag, ends)


def marching_squares(field: ScalarField | CellRanges, level: float) -> Polylines:
    """All iso-polylines of the field at one level. Pass the field's
    CellRanges instead to contour many levels on one classification."""
    if not isinstance(field, CellRanges):
        field = CellRanges(field)
    return _chain(*_segments(field, level))


def contour_levels(lo: float, hi: float, n: int) -> list[float]:
    """n levels evenly spaced strictly between lo and hi."""
    if n < 1 or hi <= lo:
        return []
    step = (hi - lo) / (n + 1)
    return [lo + step * (i + 1) for i in range(n)]
