"""Field rendering: PPM heatmaps and contour CSV exports.

The heatmap colormap is a fixed piecewise-linear diverging map with
stops (position, R, G, B):

    0.00 -> (  0,   0, 128)
    0.25 -> (  0, 128, 255)
    0.50 -> (255, 255, 255)
    0.75 -> (255, 128,   0)
    1.00 -> (128,   0,   0)

Values map to [0, 1] by the valid min/max (a constant field maps to the
midpoint); masked pixels get the mask color (96, 96, 96). The min/max
used, and the colormap name, land in a sidecar text file next to the
image. Contours export as CSV rows level,segment,x,y with 17 significant
digits, one row per polyline vertex in order.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .contours import CellRanges, Polylines, contour_levels, marching_squares
from .core import ScalarField, masked_extrema
from .errors import AllMaskedError
from .fieldio import atomic_write_text, write_ppm

COLORMAP_NAME = "diverging-5stop"
_STOPS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_STOP_RGB = np.array([
    [0, 0, 128],
    [0, 128, 255],
    [255, 255, 255],
    [255, 128, 0],
    [128, 0, 0],
], dtype=np.float64)
MASK_RGB = (96, 96, 96)

DEFAULT_CONTOUR_LEVELS = 10


def colormap(t: np.ndarray) -> np.ndarray:
    """Map values in [0, 1] to (..., 3) uint8 through the fixed stops."""
    t = np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0)
    out = np.empty(t.shape + (3,), dtype=np.uint8)
    for ch in range(3):
        out[..., ch] = np.rint(np.interp(t, _STOPS, _STOP_RGB[:, ch])).astype(np.uint8)
    return out


def heatmap_rgb(f: ScalarField) -> tuple[np.ndarray, float | None, float | None]:
    """RGB image plus the (min, max) used; (None, None) when fully masked."""
    valid = f.valid()
    try:
        lo, hi = masked_extrema(f)
    except AllMaskedError:
        rgb = np.empty(f.grid.shape + (3,), dtype=np.uint8)
        rgb[...] = MASK_RGB
        return rgb, None, None
    if hi > lo:
        t = (f.values - lo) / (hi - lo)
    else:
        t = np.full(f.grid.shape, 0.5)
    rgb = colormap(t)
    rgb[~valid] = MASK_RGB
    return rgb, lo, hi


def write_heatmap(path: str | Path, f: ScalarField) -> None:
    """PPM heatmap plus a <path>.txt sidecar recording the value range."""
    path = Path(path)
    rgb, lo, hi = heatmap_rgb(f)
    write_ppm(path, rgb)
    lines = [f"colormap = {COLORMAP_NAME}", f"mask_rgb = {MASK_RGB}"]
    if lo is None:
        lines.append("all_masked = true")
    else:
        lines.append(f"min = {lo!r}")
        lines.append(f"max = {hi!r}")
    atomic_write_text(path.with_suffix(path.suffix + ".txt"),
                      "\n".join(lines) + "\n")


def write_contour_csv(path: str | Path, f: ScalarField,
                      levels: int = DEFAULT_CONTOUR_LEVELS) -> None:
    """CSV of marching-squares polylines at evenly spaced interior levels.

    A fully masked or constant field yields a header-only file.
    """
    try:
        lo, hi = masked_extrema(f)
    except AllMaskedError:
        lo = hi = 0.0
    cells = CellRanges(f)
    rows, first = ["level,segment,x,y\n"], 0
    for level in contour_levels(lo, hi, levels):
        lines = marching_squares(cells, level)
        rows.append(_csv_rows(level, first, lines))
        first += len(lines)
    atomic_write_text(path, "".join(rows))


def _csv_rows(level: float, first: int, lines: Polylines) -> str:
    """The CSV rows of one level's polylines, numbered from first: the
    level,segment, prefix is formatted once per polyline, and every
    coordinate with %.17g in one pass over the flat x, y arrays."""
    head = "%.17g," % level
    counts = np.diff(lines.ends, prepend=0).tolist()
    template = "".join(f"{head}{first + k},%.17g,%.17g\n" * n
                       for k, n in enumerate(counts))
    xy = np.empty(2 * len(lines.x))
    xy[0::2], xy[1::2] = lines.x, lines.y
    return template % tuple(xy.tolist())
