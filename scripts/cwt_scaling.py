"""Time the wavelet sweep alone by grid size, measure how far its
band-limited planes are from the full-spectrum ones, and measure the
edges of the planes that wrap.

The input is the README quick-start's rib-step plume (peak 6, width
60 px and the rib rectangle at 512^2, masked), scaled to n x n, plus
Gaussian noise of 0.05 rad from a seeded generator. For each size the
script prints the median wall time of --repeat sweeps over the 32
default scales, normalized and thresholded as the pipeline does and
written nowhere. Next it prints the largest gap of any plane to the
plane from the whole spectrum (tests/oracles.py::full_spectrum_sweep),
relative to that plane's peak, with neither normalization nor threshold,
and the number of pixels that are zero after the pipeline's threshold
in one sweep and not in the other. Then, for each plane whose hat reach
10 alpha is not below 2 alpha_max, so that its edge values depend on how
its padded grid wraps, it prints the max and RMS error over the valid
pixels within 3 alpha of the edge against tests/oracles.py::wide_pad_plane
(a grid on which nothing wraps): first for the n + 2 ceil(2 alpha_max)
grid (tests/oracles.py::uniform_pad_sweep), then for the sweep's own grid.

    python3 scripts/cwt_scaling.py --sizes 256 512 768 1024
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from fringescale import (CwtParams, GridSpec, PhantomSpec, cwt_sweep, default_scale_grid,
                         field_from_array, make_phase)
from fringescale.cwt import HAT_REACH

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import (edge_band_errors, full_spectrum_sweep, uniform_pad_sweep,  # noqa: E402
                     wide_pad_plane)


def rib_plume(n: int, seed: int = 1):
    s = n / 512
    truth = make_phase(GridSpec(n, n), PhantomSpec(
        kind="rib_step", peak=6.0, widths=(60 * s, 60 * s),
        rib_rect=(int(64 * s), int(384 * s), int(128 * s), int(96 * s)))).field
    noise = 0.05 * np.random.default_rng(seed).normal(size=(n, n))
    return field_from_array(np.where(truth.mask, truth.values + noise, 0.0), truth.mask)


def sweep_seconds(f, params) -> float:
    start = time.perf_counter()
    for _ in cwt_sweep(f, params):
        pass
    return time.perf_counter() - start


def band_gap(f, params) -> tuple[float, int]:
    """The largest |plane - full-spectrum plane| over the sweep, relative
    to the full-spectrum plane's peak, and the pixels zero in one and
    not in the other."""
    gap, crossed = 0.0, 0
    for (_, got, _), (_, want, _) in zip(cwt_sweep(f, params),
                                         full_spectrum_sweep(f, params)):
        gap = max(gap, float(np.abs(got.values - want).max() / np.abs(want).max()))
        crossed += int(np.count_nonzero((got.values == 0.0) != (want == 0.0)))
    return gap, crossed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[256, 512, 768, 1024])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    scales = default_scale_grid()
    for n in args.sizes:
        f = rib_plume(n)
        seconds = statistics.median(sweep_seconds(f, CwtParams(scales=scales))
                                    for _ in range(args.repeat))
        raw = CwtParams(scales=scales, normalize=False, threshold_fraction=0.0)
        sweep = cwt_sweep(f, raw)
        old_grid = n + 2 * int(np.ceil(2.0 * scales[-1]))
        print(f"size {n}  sweep_s {seconds:.3f}  wrapping planes on "
              f"{old_grid}^2 before, {sweep._grid(scales[-1])[0][0]}^2 now")
        gap = band_gap(f, raw)[0]
        crossed = band_gap(f, CwtParams(scales=scales))[1]
        print(f"band gap to the full spectrum {gap:.2e} of the peak, "
              f"{crossed} threshold crossings")
        print("   alpha   old_max   new_max   old_rms   new_rms")
        for (alpha, new, _), (_, old, _) in zip(sweep, uniform_pad_sweep(f, raw)):
            if HAT_REACH * alpha < 2.0 * scales[-1]:
                continue
            ref = wide_pad_plane(f, alpha)
            (old_max, old_rms), (new_max, new_rms) = (
                edge_band_errors(plane.values, ref, alpha, f.valid())
                for plane in (old, new))
            print(f"{alpha:8.3f}  {old_max:.2e}  {new_max:.2e}  {old_rms:.2e}  "
                  f"{new_rms:.2e}")


if __name__ == "__main__":
    main()
