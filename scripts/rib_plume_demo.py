"""End-to-end demo on the rib-plus-plume phantom.

Synthesizes a fringe pair over a rib-step phase, recovers the phase by
windowed Fourier ridge demodulation, sweeps the wavelet transform at the
display scales, and writes heatmaps plus contour CSVs. The small scale
draws the rib outline; the large one highlights the smooth plume.

    python3 scripts/rib_plume_demo.py --out out/rib_demo
"""

import argparse
from pathlib import Path

import numpy as np

from fringescale import (
    CarrierSpec,
    CwtParams,
    DemodParams,
    GridSpec,
    NoiseSpec,
    PhantomSpec,
    anchor_far_field,
    cwt_sweep,
    demodulate,
    interior_mask,
    make_fringes,
    make_phase,
    relative_phase,
    unwrap,
    write_field,
)
from fringescale.render import write_contour_csv, write_heatmap


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("out/rib_demo"))
    ap.add_argument("--size", type=int, default=256)
    ap.add_argument("--noise", type=float, default=0.02)
    ap.add_argument("--seed", type=int, default=12345)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    n = args.size
    grid = GridSpec(n, n)
    rib = (n // 4, 3 * n // 4, n // 2, n // 6)
    truth = make_phase(grid, PhantomSpec(
        kind="rib_step", peak=6.0, center=(n / 2, 0.59 * n),
        widths=(0.27 * n, 0.27 * n), rib_rect=rib))
    carrier = CarrierSpec(fx=0.125, amplitude=1.0)
    pair = make_fringes(truth, carrier,
                        NoiseSpec(sigma=args.noise, seed=args.seed))
    write_heatmap(args.out / "fringes_deformed.ppm", pair.deformed)

    params = DemodParams.for_carrier(carrier.fx)
    ridge_d = demodulate(pair.deformed, params)
    ridge_r = demodulate(pair.reference, params)
    rec = unwrap(relative_phase(ridge_d, ridge_r),
                 quality=ridge_d.ridge_amplitude)
    rec = anchor_far_field(rec, (0, 0, n // 8, n // 8))
    write_field(args.out / "phase.fgrid", rec.field)
    write_heatmap(args.out / "phase.ppm", rec.field)
    err = rec.field.values - truth.field.values
    core = rec.field.valid()
    # the window smears the step and truncates at the frame, so also report
    # the error over the interior pixels more than 3 sigma_w from the rib
    margin = int(np.ceil(3 * params.window_sigma))
    x0, y0, rw, rh = rib
    ys, xs = np.mgrid[0:n, 0:n].astype(float)
    rib_dist = np.hypot(np.maximum(np.maximum(x0 - xs, xs - (x0 + rw - 1)), 0),
                        np.maximum(np.maximum(y0 - ys, ys - (y0 + rh - 1)), 0))
    smooth = core & (rib_dist > margin) & interior_mask(grid, margin)
    print(f"phase RMS error {np.sqrt(np.mean(err[core] ** 2)):.4f} rad overall, "
          f"{np.sqrt(np.mean(err[smooth] ** 2)):.4f} rad on the smooth interior")

    sweep = cwt_sweep(rec, CwtParams(scales=(3.0, 10.0, 50.0, 100.0)))
    for alpha, plane, _ in sweep:
        stem = args.out / f"plane_alpha{alpha:g}"
        write_heatmap(stem.with_suffix(".ppm"), plane)
        write_contour_csv(stem.with_suffix(".csv"), plane, levels=8)
        print(f"alpha={alpha:g}: wrote {stem}.ppm / .csv")


if __name__ == "__main__":
    main()
