"""Time the contour CSV stage by its parts, by grid size, and check its
text against the cell-by-cell reference.

The input is plume_coarse512's 8-turn plume phase (peak 16 pi, width
100 px at 512^2) scaled to n x n, plus Gaussian noise of 0.05 rad from a
generator seeded by --seed, contoured at the default 10 levels. For each
size the script prints the median wall time over --repeat runs of each
part, summed over the levels: classifying the cells once
(contours.CellRanges), the segments of each level (contours._segments),
chaining them into polylines (contours._chain) and formatting the CSV
rows (render._csv_rows); then of the whole render.write_contour_csv
call. It also prints the row and polyline counts and whether the file
equals tests/oracles.py::contour_csv_text, which contours one cell at a
time in Python and takes about a minute at 1024^2.

    python3 scripts/contour_scaling.py --sizes 256 512 1024 --repeat 5
"""

import argparse
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from fringescale import GridSpec, PhantomSpec, field_from_array, make_phase
from fringescale.contours import CellRanges, _chain, _segments, contour_levels
from fringescale.core import masked_extrema
from fringescale.render import DEFAULT_CONTOUR_LEVELS, _csv_rows, write_contour_csv

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import contour_csv_text  # noqa: E402


def plume_field(n: int, seed: int):
    """The seeded n x n plume phase."""
    s = n / 512
    truth = make_phase(GridSpec(n, n), PhantomSpec(
        kind="gaussian_plume", peak=16 * math.pi, widths=(100 * s, 100 * s))).field
    rng = np.random.default_rng(seed)
    return field_from_array(truth.values + 0.05 * rng.normal(size=(n, n)))


def parts(field, levels):
    """Seconds spent classifying, finding segments, chaining and
    formatting, and the row and polyline counts."""
    seconds = [0.0] * 4
    start = time.perf_counter()
    cells = CellRanges(field)
    seconds[0] = time.perf_counter() - start
    first = rows = 0
    for level in levels:
        start = time.perf_counter()
        x, y = _segments(cells, level)
        mid = time.perf_counter()
        lines = _chain(x, y)
        end = time.perf_counter()
        _csv_rows(level, first, lines)
        seconds[1] += mid - start
        seconds[2] += end - mid
        seconds[3] += time.perf_counter() - end
        first += len(lines)
        rows += len(lines.x)
    return seconds, rows, first


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[256, 512, 1024])
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print("size   rows  polylines  classify_s  segments_s   chain_s  format_s"
          "     csv_s  same_text")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "contours.csv"
        for n in args.sizes:
            field = plume_field(n, args.seed)
            levels = contour_levels(*masked_extrema(field), DEFAULT_CONTOUR_LEVELS)
            runs, csv_s = [], []
            for _ in range(args.repeat):
                runs.append(parts(field, levels))
                start = time.perf_counter()
                write_contour_csv(path, field)
                csv_s.append(time.perf_counter() - start)
            times = [statistics.median(run[0][i] for run in runs) for i in range(4)]
            _, rows, polylines = runs[0]
            same = path.read_text() == contour_csv_text(field, DEFAULT_CONTOUR_LEVELS)
            print(f"{n:4d}  {rows:5d}  {polylines:9d}  "
                  + "  ".join(f"{t:10.4f}" for t in times)
                  + f"  {statistics.median(csv_s):8.4f}  {'yes' if same else 'NO'}")


if __name__ == "__main__":
    main()
