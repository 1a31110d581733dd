"""Output checks for one benchmark call.

The checks test properties that hold for any correct implementation, so
that they keep passing when the ridge scan, the CWT or the unwrap is
replaced by a faster equivalent; they freeze no output bytes:

* every plane listed in ``manifest.txt`` exists and is finite, and each
  plane that is not identically zero has a valid-pixel peak of exactly 1;
* at two display scales of at least 3 px, the interior of the plane
  matches the transform defined in ``fringescale.cwt`` (spatial sum of the
  sampled Mexican hat over the edge-padded phase, scaled by 1/alpha, then
  masked, normalized and thresholded at 1% of the peak), computed here by
  an FFT convolution independent of the program's code;
* pipeline workloads recover the phase to within a fixed interior RMS.

check_outputs returns the list of problems found; empty means correct.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from fgrid import read_fgrid
from workloads import CWT_INPUT

CHECK_SCALES = (3.0, 10.0)
PLANE_COUNT = 32
THRESHOLD_FRACTION = 0.01
PLANE_TOLERANCE = 1e-9
WINDOW_SIGMA = 10.0
INTERIOR_SIGMAS = 3


def parse_manifest(path: Path) -> list[tuple[float, str]]:
    """(scale, file name) of each plane line ``<index> <scale> <name> ...``."""
    planes = []
    for line in path.read_text().splitlines():
        tokens = line.split()
        if len(tokens) >= 3 and tokens[0].isdigit() and tokens[2].endswith(".fgrid"):
            planes.append((float(tokens[1]), tokens[2]))
    return planes


def fft_convolve_same(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Linear 2-D convolution of image with an odd-sized kernel, cropped to
    image's shape (the ``same`` mode), by a zero-padded real FFT."""
    (h, w), (kh, kw) = image.shape, kernel.shape
    shape = (h + kh - 1, w + kw - 1)
    full = np.fft.irfft2(np.fft.rfft2(image, shape) * np.fft.rfft2(kernel, shape), shape)
    return full[kh // 2:kh // 2 + h, kw // 2:kw // 2 + w]


def hat_reference(phase: np.ndarray, valid: np.ndarray, alpha: float,
                  pad: int) -> np.ndarray:
    """Normalized, thresholded plane at one scale, from the spatial sum."""
    r = int(math.ceil(10.0 * alpha))
    t = np.arange(-r, r + 1, dtype=np.float64) / alpha
    r2 = t[:, None] ** 2 + t[None, :] ** 2
    kernel = (2.0 - r2) * np.exp(-0.5 * r2) / alpha
    padded = np.pad(phase, pad, mode="edge")
    h, w = phase.shape
    plane = fft_convolve_same(padded, kernel)[pad:pad + h, pad:pad + w]
    plane = np.where(valid, plane, 0.0)
    peak = np.abs(plane[valid]).max()
    plane = plane / peak
    return np.where(np.abs(plane) >= THRESHOLD_FRACTION, plane, 0.0)


def check_planes(out_dir: Path, phase: np.ndarray, valid: np.ndarray) -> list[str]:
    problems = []
    manifest = out_dir / "manifest.txt"
    if not manifest.is_file():
        return ["manifest.txt missing"]
    planes = parse_manifest(manifest)
    if len(planes) != PLANE_COUNT:
        problems.append(f"manifest lists {len(planes)} planes, want {PLANE_COUNT}")
    for alpha, name in planes:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        values, pvalid = read_fgrid(path)
        if not np.isfinite(values).all():
            problems.append(f"{name} holds non-finite values")
            continue
        peak = float(np.abs(values[pvalid]).max(initial=0.0))
        if peak != 0.0 and peak != 1.0:
            problems.append(f"{name} valid-pixel peak {peak!r} is not 1")
    if not planes:
        return problems
    pad = int(math.ceil(2.0 * max(a for a, _ in planes)))
    for want in CHECK_SCALES:
        names = [n for a, n in planes if a == want]
        if not names:
            problems.append(f"no plane at display scale {want}")
            continue
        values, _ = read_fgrid(out_dir / names[0])
        ref = hat_reference(phase, valid, want, pad)
        m = int(math.ceil(3.0 * want))
        inner = np.zeros_like(valid)
        inner[m:-m, m:-m] = True
        # pixels whose magnitude sits on the threshold may land either side
        sel = inner & valid & (np.abs(np.abs(ref) - THRESHOLD_FRACTION) > PLANE_TOLERANCE)
        err = float(np.abs(values[sel] - ref[sel]).max())
        if not err <= PLANE_TOLERANCE:
            problems.append(f"{names[0]} differs from the sampled-hat "
                            f"reference by {err:.3e}")
    return problems


def phase_rms(out_dir: Path) -> float:
    """Interior RMS of phase - phase_true over valid pixels.

    Interior means at least 3 window sigmas from the border. The global
    2 pi multiple that unwrapping leaves free is removed first.
    """
    phase, pvalid = read_fgrid(out_dir / "phase.fgrid")
    truth, tvalid = read_fgrid(out_dir / "phase_true.fgrid")
    m = int(math.ceil(INTERIOR_SIGMAS * WINDOW_SIGMA))
    sel = np.zeros_like(pvalid)
    sel[m:-m, m:-m] = True
    sel &= pvalid & tvalid
    diff = phase[sel] - truth[sel]
    diff -= 2.0 * math.pi * round(float(np.median(diff)) / (2.0 * math.pi))
    return float(np.sqrt(np.mean(diff * diff)))


def check_outputs(out_dir: Path, workload, in_dir: Path) -> tuple[list[str], float]:
    """(problems, phase_rms_rad) for one call's output directory.

    phase_rms_rad is 0.0 for workloads without a ground-truth phase.
    """
    if workload.pipeline:
        for name in ("phase.fgrid", "phase_true.fgrid"):
            if not (out_dir / name).is_file():
                return [f"{name} missing"], 0.0
        rms = phase_rms(out_dir)
        problems = []
        if not rms <= workload.rms_limit:
            problems.append(f"phase RMS {rms:.4f} rad exceeds {workload.rms_limit}")
        phase, valid = read_fgrid(out_dir / "phase.fgrid")
    else:
        rms, problems = 0.0, []
        phase, valid = read_fgrid(in_dir / CWT_INPUT)
    return problems + check_planes(out_dir, phase, valid), rms
