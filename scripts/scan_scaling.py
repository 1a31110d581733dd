"""Time the ridge scan alone, and the share of its work it does, by grid
and band size.

The input is the deformed image of the README quick-start rib step
(noise 0.02), scaled to n x n, scanned with a carrier 0.125 band of
B x B frequencies at step 0.005 and a 10-px window. For each size and
band the script prints the median wall time of `wft.demodulate` over
--repeat calls (image synthesis excluded) and the share of (u, column)
pairs whose v loop the scan ran, out of len(us) * n.

    python3 scripts/scan_scaling.py --sizes 256 512 1024 --bands 7 21 41
"""

import argparse
import statistics
import time

from fringescale import (CarrierSpec, DemodParams, GridSpec, NoiseSpec,
                         PhantomSpec, make_fringes, make_phase, wft)


def rib_step_image(n: int):
    s = n / 512
    truth = make_phase(GridSpec(n, n), PhantomSpec(
        kind="rib_step", peak=6.0, widths=(60 * s, 60 * s),
        rib_rect=(int(64 * s), int(384 * s), int(128 * s), int(96 * s))))
    return make_fringes(truth, CarrierSpec(fx=0.125),
                        NoiseSpec(sigma=0.02, seed=12345)).deformed


def scan_once(img, params) -> tuple[float, int]:
    """Wall time of one scan and the (u, column) pairs its chunks scanned,
    read from the chunks it makes."""
    chunks, init = [], wft._ChunkScan.__init__

    def record(chunk, *args):
        init(chunk, *args)
        chunks.append(chunk)

    wft._ChunkScan.__init__ = record
    try:
        start = time.perf_counter()
        wft.demodulate(img, params)
        elapsed = time.perf_counter() - start
    finally:
        wft._ChunkScan.__init__ = init
    return elapsed, sum(c.scanned for c in chunks)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[256, 512, 1024])
    ap.add_argument("--bands", type=int, nargs="+", default=[7, 21, 41],
                    help="frequencies per band axis (odd)")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    step = 0.005
    print(f"usable CPUs {wft._usable_cpus()}")
    print("size   band   scan_s  scanned_share")
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
            print(f"{n:4d}  {b:2d}x{b:<2d}  {statistics.median(r[0] for r in runs):7.3f}"
                  f"  {share:.3f}")


if __name__ == "__main__":
    main()
