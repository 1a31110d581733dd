"""End-to-end demo on the rib-plus-plume phantom.

Runs ``fringescale pipeline`` on a rib-step phantom under a Gaussian
plume, with the wavelet sweep at the display scales only, then reports
how far the recovered phase lies from the truth. The pipeline writes the
fringe pair, the recovered phase and a heatmap plus contour CSV per
scale; the small scale draws the rib outline, the large one highlights
the smooth plume.

    python3 scripts/rib_plume_demo.py --out out/rib_demo
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from fringescale import GridSpec, interior_mask, read_field
from fringescale.cli import main as fringescale_main
from fringescale.render import write_heatmap

WINDOW_SIGMA = 10.0


def pipeline_args(n: int, noise: float, seed: int,
                  out: Path) -> tuple[list[str], tuple[int, int, int, int]]:
    """The pipeline command line for an n x n demo, and its rib rectangle."""
    rib = (n // 4, 3 * n // 4, n // 2, n // 6)
    settings = {
        "grid.width": n, "grid.height": n,
        "phantom.kind": "rib_step", "phantom.peak": 6.0,
        "phantom.center_x": n / 2, "phantom.center_y": 0.59 * n,
        "phantom.sigma_x": 0.27 * n, "phantom.sigma_y": 0.27 * n,
        "phantom.rib_x0": rib[0], "phantom.rib_y0": rib[1],
        "phantom.rib_w": rib[2], "phantom.rib_h": rib[3],
        "carrier.fx": 0.125, "noise.sigma": noise, "noise.seed": seed,
        "demod.window_sigma": WINDOW_SIGMA,
        "demod.anchor_x0": 0, "demod.anchor_y0": 0,
        "demod.anchor_w": n // 8, "demod.anchor_h": n // 8,
        "cwt.scales": "3,10,50,100", "render.contour_levels": 8,
    }
    argv = ["pipeline", "--out", str(out)]
    for key, value in settings.items():
        argv += ["--set", f"{key}={value!r}" if isinstance(value, float)
                 else f"{key}={value}"]
    return argv, rib


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("out/rib_demo"))
    ap.add_argument("--size", type=int, default=256)
    ap.add_argument("--noise", type=float, default=0.02)
    ap.add_argument("--seed", type=int, default=12345)
    args = ap.parse_args()

    n = args.size
    argv, rib = pipeline_args(n, args.noise, args.seed, args.out)
    code = fringescale_main(argv)
    if code:
        sys.exit(code)
    write_heatmap(args.out / "fringes_deformed.ppm",
                  read_field(args.out / "deformed.fgrid"))

    rec = read_field(args.out / "phase.fgrid")
    truth = read_field(args.out / "phase_true.fgrid")
    err = rec.values - truth.values
    core = rec.valid()
    # the window smears the step and truncates at the frame, so also report
    # the error over the interior pixels more than 3 sigma_w from the rib
    margin = int(np.ceil(3 * WINDOW_SIGMA))
    x0, y0, rw, rh = rib
    ys, xs = np.mgrid[0:n, 0:n].astype(float)
    rib_dist = np.hypot(np.maximum(np.maximum(x0 - xs, xs - (x0 + rw - 1)), 0),
                        np.maximum(np.maximum(y0 - ys, ys - (y0 + rh - 1)), 0))
    smooth = core & (rib_dist > margin) & interior_mask(GridSpec(n, n), margin)
    print(f"phase RMS error {np.sqrt(np.mean(err[core] ** 2)):.4f} rad overall, "
          f"{np.sqrt(np.mean(err[smooth] ** 2)):.4f} rad on the smooth interior")


if __name__ == "__main__":
    main()
