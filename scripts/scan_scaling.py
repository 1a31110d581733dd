"""Time the ridge scan alone, the share of its work it does and its gap
to the double-precision scan, by grid and band size.

The input is the deformed image of the README quick-start rib step
(noise 0.02), scaled to n x n, scanned with a carrier 0.125 band of
B x B frequencies at step 0.005 and a 10-px window. For each size and
band the script prints the median wall time of `wft.demodulate` over
--repeat calls (image synthesis excluded), the share of (u, column)
pairs whose v loop the scan ran, out of len(us) * n, the padded FFT
lengths nx x ny of the row and column transforms, the tracemalloc peak
of one more call in bytes per pixel, and, against
tests/oracles.py::float64_demodulate, the valid pixels whose winning
(u, v) moved and the largest wrapped phase gap where it did not. The
double-precision scan runs every (u, v) on every column, so it takes
far longer than the timed scans.

    python3 scripts/scan_scaling.py --sizes 256 512 1024 --bands 7 21 41
"""

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from fringescale import (CarrierSpec, DemodParams, GridSpec, NoiseSpec,
                         PhantomSpec, make_fringes, make_phase, wft, wrap_phase)
from fringescale.core import _usable_cpus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import float64_demodulate  # noqa: E402


def rib_step_image(n: int):
    s = n / 512
    truth = make_phase(GridSpec(n, n), PhantomSpec(
        kind="rib_step", peak=6.0, widths=(60 * s, 60 * s),
        rib_rect=(int(64 * s), int(384 * s), int(128 * s), int(96 * s))))
    return make_fringes(truth, CarrierSpec(fx=0.125),
                        NoiseSpec(sigma=0.02, seed=12345)).deformed


def scan_once(img, params) -> tuple[float, int, str, wft.RidgeResult]:
    """Wall time of one scan, the (u, column) pairs its chunks scanned
    and its padded FFT lengths nx x ny, read from the chunks it makes,
    and its result."""
    chunks, init = [], wft._ChunkScan.__init__

    def record(chunk, *args):
        init(chunk, *args)
        chunks.append(chunk)

    wft._ChunkScan.__init__ = record
    try:
        start = time.perf_counter()
        ridge = wft.demodulate(img, params)
        elapsed = time.perf_counter() - start
    finally:
        wft._ChunkScan.__init__ = init
    padded = f"{chunks[0].rows.shape[1]}x{chunks[0].col_kernels.shape[1]}"
    return elapsed, sum(c.scanned for c in chunks), padded, ridge


def alloc_peak(img, params) -> float:
    """The tracemalloc peak of one scan, in bytes per pixel."""
    tracemalloc.start()
    try:
        wft.demodulate(img, params)
        return tracemalloc.get_traced_memory()[1] / img.grid.npixels
    finally:
        tracemalloc.stop()


def oracle_gap(img, params, ridge) -> tuple[int, float]:
    """Valid pixels whose winner differs from float64_demodulate's, and
    the largest wrapped phase gap at the others."""
    want = float64_demodulate(img, params)
    valid = img.valid()
    same = ((ridge.freq_x.values == want.freq_x.values)
            & (ridge.freq_y.values == want.freq_y.values) & valid)
    gap = np.abs(wrap_phase(ridge.phase.field.values - want.phase.field.values))
    return int((valid & ~same).sum()), float(gap[same].max(initial=0.0))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[256, 512, 1024])
    ap.add_argument("--bands", type=int, nargs="+", default=[7, 21, 41],
                    help="frequencies per band axis (odd)")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    step = 0.005
    print(f"usable CPUs {_usable_cpus()}")
    print("size   band     padded  scan_s  peak_B/px  scanned_share  moved"
          "  phase_gap_rad")
    for n in args.sizes:
        img = rib_step_image(n)
        for b in args.bands:
            half = step * (b - 1) / 2
            params = DemodParams(band_x=(0.125 - half, 0.125 + half),
                                 band_y=(-half, half), step=step,
                                 window_sigma=10.0)
            n_u = len(wft.frequency_grid(params.band_x, step))
            runs = [scan_once(img, params) for _ in range(args.repeat)]
            share = runs[0][1] / (n_u * n)
            peak = alloc_peak(img, params)
            moved, gap = oracle_gap(img, params, runs[0][3])
            print(f"{n:4d}  {b:2d}x{b:<2d}  {runs[0][2]:>9s}"
                  f"  {statistics.median(r[0] for r in runs):6.3f}  {peak:9.1f}"
                  f"  {share:13.3f}  {moved:5d}  {gap:13.2e}")


if __name__ == "__main__":
    main()
