"""Time the unwrap's reliability forest alone, and measure its allocation
peak, by grid size, for the 64-bit oracle and the production forest.

The input is the wrapped phase of plume_coarse512's 8-turn plume (peak
16 pi, width 100 px at 512^2) scaled to n x n, plus Gaussian noise of
0.05 rad, with the README quick-start's rib rectangle masked out; the
quality map is uniform in [0, 1). Both come from a generator seeded by
--seed. For each size the script prints the median wall time of --repeat
forest calls and the tracemalloc peak of one more call, first for
tests/oracles.py::int64_forest_turns, then for wft._forest_turns, and
whether the two return the same turns.

    python3 scripts/unwrap_scaling.py --sizes 256 512 1024 --repeat 5
"""

import argparse
import math
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from fringescale import GridSpec, PhantomSpec, make_phase, wft, wrap_phase

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import int64_forest_turns  # noqa: E402


def plume_phase(n: int, seed: int):
    """Wrapped values, quality and validity of the seeded n x n plume."""
    s = n / 512
    truth = make_phase(GridSpec(n, n), PhantomSpec(
        kind="rib_step", peak=16 * math.pi, widths=(100 * s, 100 * s),
        rib_rect=(int(64 * s), int(384 * s), int(128 * s), int(96 * s)))).field
    rng = np.random.default_rng(seed)
    vals = wrap_phase(truth.values + 0.05 * rng.normal(size=(n, n)))
    return np.where(truth.mask, vals, 0.0), rng.random((n, n)), truth.mask


def measure(forest, args, repeat: int):
    """Median seconds over repeat calls, the tracemalloc peak in MB of
    one more call, and that call's turns."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        forest(*args)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        turns = forest(*args)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    return statistics.median(times), peak, turns


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[256, 512, 1024])
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print("size    old_s    new_s  old_peak_mb  new_peak_mb  same_turns")
    for n in args.sizes:
        inputs = plume_phase(n, args.seed)
        old_s, old_mb, old = measure(int64_forest_turns, inputs, args.repeat)
        new_s, new_mb, new = measure(wft._forest_turns, inputs, args.repeat)
        print(f"{n:4d}  {old_s:7.4f}  {new_s:7.4f}  {old_mb:11.2f}  {new_mb:11.2f}"
              f"  {'yes' if np.array_equal(old, new) else 'NO'}")


if __name__ == "__main__":
    main()
