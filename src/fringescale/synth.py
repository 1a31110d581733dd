"""Analytic phase phantoms and carrier fringe synthesis.

A phantom supplies the ground-truth (unwrapped) phase. make_fringes then
renders a reference image with zero phase and a deformed image carrying
the phantom phase on top of the same horizontal carrier:

    I(x, y) = 1 + cos(2 pi fx x + phi(x, y))

Noise-free intensities therefore lie in [0, 2]. Optional additive
Gaussian noise uses the counter-based Philox generator (numpy's
``np.random.Philox``) so identical seeds reproduce identical images
bit for bit; the reference draws from ``seed`` and the deformed image
from ``seed + 1`` so the two noise fields are independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CarrierSpec, GridSpec, PhaseMap, ScalarField, TWO_PI
from .errors import BadSpecError

PHANTOM_KINDS = ("constant", "gaussian_plume", "rib_step", "ramp")

RNG_NAME = "philox4x64"


@dataclass(frozen=True)
class PhantomSpec:
    """Parameters for one analytic phase phantom.

    kind selects the shape; the other fields are read per kind:

    * constant: phi = peak everywhere
    * ramp: phi rises linearly along x from 0 to peak
    * gaussian_plume: peak * exp(-((x-cx)^2/(2 sx^2) + (y-cy)^2/(2 sy^2)))
      with widths (sx, sy) and center (cx, cy), the latter defaulting
      to the grid center
    * rib_step: gaussian_plume with rib_rect (x0, y0, w, h) zeroed and
      masked out, producing a sharp step at the rectangle boundary
    """

    kind: str
    peak: float = 2.0
    center: tuple[float, float] | None = None
    widths: tuple[float, float] = (60.0, 60.0)
    rib_rect: tuple[int, int, int, int] | None = None

    def __post_init__(self):
        if self.kind not in PHANTOM_KINDS:
            raise BadSpecError(
                f"unknown phantom kind {self.kind!r}; expected one of {PHANTOM_KINDS}")
        if not np.isfinite(self.peak):
            raise BadSpecError("phantom peak must be finite")
        if any(w <= 0 for w in self.widths):
            raise BadSpecError(f"phantom widths must be positive, got {self.widths}")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive zero-mean Gaussian intensity noise.

    sigma is the intensity standard deviation (the fringes have amplitude
    1). seed is any integer; it is reduced modulo 2**64 for the Philox key.
    """

    sigma: float = 0.0
    seed: int = 12345

    def __post_init__(self):
        if self.sigma < 0 or not np.isfinite(self.sigma):
            raise BadSpecError(f"noise sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class FringePair:
    """Reference and deformed fringe images sharing one grid."""

    reference: ScalarField
    deformed: ScalarField

    def __post_init__(self):
        if self.reference.grid != self.deformed.grid:
            raise BadSpecError("fringe pair images must share one grid")


def default_center(grid: GridSpec) -> tuple[float, float]:
    """The plume centre (cx, cy) used where PhantomSpec.center is None:
    the grid centre."""
    return grid.width / 2.0, grid.height / 2.0


def _plume(grid: GridSpec, spec: PhantomSpec) -> np.ndarray:
    sx, sy = spec.widths
    cx, cy = spec.center if spec.center is not None else default_center(grid)
    x = np.arange(grid.width, dtype=np.float64)[None, :]
    y = np.arange(grid.height, dtype=np.float64)[:, None]
    return spec.peak * np.exp(-((x - cx) ** 2 / (2.0 * sx * sx)
                                + (y - cy) ** 2 / (2.0 * sy * sy)))


def make_phase(grid: GridSpec, spec: PhantomSpec) -> PhaseMap:
    """Evaluate a phantom on the grid, returning unwrapped ground truth."""
    mask = None
    if spec.kind == "constant":
        values = np.full(grid.shape, float(spec.peak))
    elif spec.kind == "ramp":
        x = np.arange(grid.width, dtype=np.float64)[None, :]
        values = np.broadcast_to(spec.peak * x / (grid.width - 1),
                                 grid.shape).copy()
    elif spec.kind == "gaussian_plume":
        values = _plume(grid, spec)
    else:  # rib_step; PhantomSpec refuses any other kind
        values = _plume(grid, spec)
        if spec.rib_rect is None:
            raise BadSpecError("rib_step phantom needs rib_rect (x0, y0, w, h)")
        if not grid.fits(spec.rib_rect):
            raise BadSpecError(f"rib_rect {spec.rib_rect} does not fit grid "
                               f"{grid.width}x{grid.height}")
        x0, y0, w, h = spec.rib_rect
        mask = np.ones(grid.shape, dtype=bool)
        mask[y0:y0 + h, x0:x0 + w] = False
        values[~mask] = 0.0
    return PhaseMap(ScalarField(grid, values, mask), wrapped=False)


def make_fringes(phase: PhaseMap, carrier: CarrierSpec,
                 noise: NoiseSpec | None = None) -> FringePair:
    """Render the reference/deformed carrier fringe pair for a phase map.

    The phase mask carries over to both images and masked pixels are
    stored as 0 (no fringes there).
    """
    if phase.wrapped:
        raise BadSpecError("make_fringes needs the unwrapped ground-truth phase")
    grid = phase.grid
    x = np.arange(grid.width, dtype=np.float64)[None, :]
    carg = TWO_PI * carrier.fx * x
    ref = 1.0 + np.cos(np.broadcast_to(carg, grid.shape))
    dfm = 1.0 + np.cos(carg + phase.field.values)
    if noise is not None and noise.sigma > 0.0:
        key = noise.seed % (2 ** 64)
        ref = ref + noise.sigma * np.random.Generator(
            np.random.Philox(key=key)).standard_normal(grid.shape)
        dfm = dfm + noise.sigma * np.random.Generator(
            np.random.Philox(key=(key + 1) % (2 ** 64))).standard_normal(grid.shape)
    if phase.field.mask is not None:
        valid = phase.field.mask
        reference = ScalarField(grid, np.where(valid, ref, 0.0), valid)
        deformed = ScalarField(grid, np.where(valid, dfm, 0.0), valid)
    else:
        reference = ScalarField(grid, ref)
        deformed = ScalarField(grid, dfm)
    return FringePair(reference, deformed)
