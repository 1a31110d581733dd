"""The benchmark's workloads: a ``fringescale.cli.main`` command line each,
plus the inputs the set-up writes for it from the workload seed.

Why these three (numbers from runs on a 2-core x86 box):

* ridge_rib192 is the README quick-start scaled to 192^2 (the grid, the
  rib and the plume width at 3/8; the default 41 x 41 = 1681-probe ridge
  band, 10-px window and 32 scales kept). The windowed-Fourier ridge scan
  (two images) is about 65% of its wall time; the masked rib makes many
  distinct ridge frequencies win, the worst case for a coarse-to-fine
  scan. At 512^2 one call takes 45-60 s, too long to repeat within a
  run, so a run could not take the median of several calls.
* plume_coarse512 shrinks the ridge band to 7 x 7 = 49 probes, so the
  8-turn unwrap, the CWT sweep and the contour CSVs dominate instead. Its
  wrapped phase holds no residues, and its largest local frequency
  (0.049 cycles/px) sits inside the band.
* cwt_stack768 feeds a stored 768^2 phase straight to ``cwt``: no
  demodulation and no unwrap, only the 32-plane sweep and FGRID I/O,
  which hold two whole plane stacks (about 590 MB peak RSS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fgrid import write_fgrid

RIB_ARGS = ["--set", "grid.width=192", "--set", "grid.height=192",
            "--set", "phantom.kind=rib_step",
            "--set", "phantom.rib_x0=24", "--set", "phantom.rib_y0=144",
            "--set", "phantom.rib_w=48", "--set", "phantom.rib_h=36",
            "--set", "phantom.sigma_x=22.5", "--set", "phantom.sigma_y=22.5",
            "--set", "phantom.peak=6", "--set", "noise.sigma=0.02"]

PLUME_ARGS = ["--set", "phantom.kind=gaussian_plume",
              "--set", f"phantom.peak={16 * math.pi!r}",
              "--set", "phantom.sigma_x=100", "--set", "phantom.sigma_y=100",
              "--set", "noise.sigma=0.05",
              "--set", "demod.band_x_lo=0.065", "--set", "demod.band_x_hi=0.185",
              "--set", "demod.band_y_lo=-0.06", "--set", "demod.band_y_hi=0.06",
              "--set", "demod.step=0.02",
              "--set", "demod.anchor_x0=0", "--set", "demod.anchor_y0=0",
              "--set", "demod.anchor_w=32", "--set", "demod.anchor_h=32"]

CWT_INPUT = "phase_in.fgrid"
CWT_SIZE = 768


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A pipeline workload (args starting with ``pipeline``) synthesizes its
    fringes inside the timed call, with the seed passed on as
    ``noise.seed``, and writes ``phase_true.fgrid``; rms_limit bounds the
    interior phase error the output check accepts. Any other workload
    runs ``cwt`` on a phase of cwt_size^2 pixels that make_inputs writes
    from the seed during set-up.
    """

    name: str
    why: str
    args: tuple[str, ...]
    rms_limit: float = 0.0
    cwt_size: int = CWT_SIZE

    @property
    def pipeline(self) -> bool:
        return self.args[0] == "pipeline"

    def make_inputs(self, seed: int, in_dir: Path) -> None:
        if not self.pipeline:
            phase, mask = cwt_phase(seed, self.cwt_size)
            write_fgrid(in_dir / CWT_INPUT, phase, mask)

    def argv(self, seed: int, in_dir: Path, out_dir: Path) -> list[str]:
        if self.pipeline:
            return [*self.args, "--set", f"noise.seed={seed}",
                    "--out", str(out_dir)]
        return [*self.args, "--phase", str(in_dir / CWT_INPUT),
                "--out", str(out_dir)]


WORKLOADS = {w.name: w for w in (
    Workload("ridge_rib192",
             "README quick-start at 192^2: masked rib, 41x41 ridge band; the "
             "ridge scan is ~65% of wall time",
             ("pipeline", *RIB_ARGS), rms_limit=0.3),
    Workload("plume_coarse512",
             "512^2 8-turn plume, 7x7 ridge band: unwrap, CWT and contour "
             "CSVs dominate; no phase residues",
             ("pipeline", *PLUME_ARGS), rms_limit=0.25),
    Workload("cwt_stack768",
             "cwt on a stored 768^2 phase: demod and unwrap bypassed; the "
             "32-plane sweep and FGRID writes dominate time and memory",
             ("cwt",)),
)}


def cwt_phase(seed: int, size: int = CWT_SIZE) -> tuple[np.ndarray, np.ndarray]:
    """Rib-step plume phase with seeded noise; masked pixels hold 0."""
    rng = np.random.Generator(np.random.Philox(key=seed % 2 ** 64))
    s = size / 512.0
    x = np.arange(size, dtype=np.float64)[None, :]
    y = np.arange(size, dtype=np.float64)[:, None]
    c = size / 2.0
    sigma = 60.0 * s
    phase = 6.0 * np.exp(-((x - c) ** 2 + (y - c) ** 2) / (2.0 * sigma * sigma))
    phase = phase + 0.05 * rng.standard_normal((size, size))
    mask = np.ones((size, size), dtype=bool)
    x0, y0, w, h = (int(v * s) for v in (64, 384, 128, 96))
    mask[y0:y0 + h, x0:x0 + w] = False
    phase[~mask] = 0.0
    return phase, mask

