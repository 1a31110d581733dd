"""FFT-accelerated 2D continuous wavelet transform with a Mexican hat.

The transform of a phase map phi at scale alpha is

    W(x1, y1, alpha) = (1/alpha) * sum_{x,y} phi(x, y)
                       * psi((x - x1)/alpha, (y - y1)/alpha)

with the isotropic (angle-free) Mexican hat

    psi(x, y) = (2 - x^2 - y^2) * exp(-(x^2 + y^2) / 2).

psi is the negative Laplacian of the unit Gaussian, so its Fourier
transform is closed-form, real and isotropic:

    psi_hat(wx, wy) = 2 pi * (wx^2 + wy^2) * exp(-(wx^2 + wy^2) / 2)

(angular frequency convention, integral kernel exp(-i w . x)). It is
zero at the origin and peaks on the ring |w| = sqrt(2).

The plane is the sum above taken over the pixel grid with periodic
wraparound, so it is a circular correlation of phi with the sampled,
periodized kernel K(d) = (1/alpha) sum_m psi((d + N m) / alpha). With
g(t) = exp(-t^2 / 2) the hat splits into separable terms,

    psi(x, y) = 2 g(x) g(y) - x^2 g(x) g(y) - g(x) y^2 g(y),

so the DFT of K is the real, even multiplier

    K_hat = (2 Gx Gy - Hx Gy - Gx Hy) / alpha

where G and H are the 1D DFTs along each axis of the periodized
samples of g(d/alpha) and (d/alpha)^2 g(d/alpha). The plane is then

    W = irfft2( rfft2(phi) * K_hat )

which equals the spatial sum to rounding at every scale. The continuous
alpha * psi_hat(alpha w) is not this multiplier: it leaves out the part
of the spectrum that sampling folds back from beyond Nyquist, ~10% of
it at alpha = 1.

Each plane multiplies and inverts only the box of the half spectrum
with alpha |w| <= HAT_BAND = 9.5 along both axes, plus one bin: beyond
it the multiplier is below 1e-17 of its peak, and the inverse FFT
zero-fills it (a pruned FFT; Markel, IEEE Trans. Audio Electroacoust. 19,
305, 1971). Planes whose box is the whole half spectrum, alpha below ~3,
equal np.fft.irfft2 then crop bit for bit; the others differ from it by
rounding only.

Every transform is numpy.fft's pocketfft, run on the calling thread as
a batch of 1-D transforms. The padded spectrum is an rfft along the
rows, then an fft in place down the columns (out=), which is
np.fft.rfft2 bit for bit without its second array. A plane is the
product with the multiplier over the kept box, an ifft in place down its
columns, an irfft along the kept rows, the crop and mask, then the
divide by the plane's peak and the threshold (finish_plane).

For production runs on real phase maps the input is edge-padded and
the plane cropped after the transform to suppress wraparound, while
oracle and covariance tests run unpadded so the periodic convention is
exact. Each padded axis of n pixels takes the 5-smooth length at or
above n + 2 * min(ceil(HAT_REACH * alpha), ceil(2 * alpha_max)), the
usual fast-length padding (Torrence & Compo, BAMS 79, 61, 1998, on
padding and edge effects). A plane whose hat reach is the smaller keeps
no pixel that reads past the padding, so it equals the plane on any
larger edge-padded grid to rounding; the edge values of the others
depend on how the grid wraps, and the tests bound them against a grid
wide enough that none does.

The input sits centred, (L - n) // 2 pixels from the start of a length
L, so planes of equal padded shape share one forward transform. A sweep
makes its planes one scale at a time; scales increase, so equal shapes
come in a row and memory holds one padded spectrum. Each plane is
cropped and masked, then finish_plane optionally divides it by its own
peak and thresholds it, before the next one exists, never the whole
stack. cwt_plane is the one-scale sweep with neither step.

Scales below 1 px leave psi_hat with significant energy beyond the
Nyquist frequency and trigger AliasingWarning; scales <= 0 are refused.
So does an unpadded scale whose hat is below 1e-12 of its peak at every
nonzero grid frequency, where the plane is rounding noise; a padded axis
is over 4 alpha long, which keeps its lowest alpha |w| below pi/2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import PhaseMap, ScalarField, next_fast_len
from .errors import AliasingWarning, AllMaskedError, BadScaleError, NumericError

DISPLAY_SCALES = (3.0, 10.0, 50.0, 100.0)
DEFAULT_SCALE_COUNT = 32
DEFAULT_SCALE_RANGE = (1.0, 100.0)

# Half-width, in units of alpha, over which the hat is summed when it is
# periodized; (2 - t^2) exp(-t^2 / 2) is below 2e-20 beyond it.
HAT_REACH = 10.0

# alpha |w| past which a plane drops the spectrum: the multiplier's shape
# |w|^2 exp(-|w|^2 / 2) is 3.1e-18 of its peak 2/e at 9.5, below 1e-17.
HAT_BAND = 9.5

def default_scale_grid() -> tuple[float, ...]:
    """DEFAULT_SCALE_COUNT log-spaced scales on DEFAULT_SCALE_RANGE with
    the display scales snapped onto it.

    Each display scale replaces its nearest log-grid neighbor, so the
    total count stays fixed and the display scales are always present
    exactly.
    """
    grid = np.geomspace(*DEFAULT_SCALE_RANGE, DEFAULT_SCALE_COUNT)
    for d in DISPLAY_SCALES:
        grid[np.argmin(np.abs(grid - d))] = d
    return tuple(float(a) for a in grid)


@dataclass(frozen=True)
class CwtParams:
    """Sweep parameters: scale grid plus the per-plane steps.

    normalize divides each plane by its own peak magnitude over valid
    pixels; the sweep reports that divisor with the plane.
    threshold_fraction zeroes values smaller than that fraction of each
    plane's own peak magnitude (0 disables), after normalization. pad
    turns the production edge-replication padding on; equivalence tests
    turn it off to keep the periodic convention exact.
    """

    scales: tuple[float, ...]
    threshold_fraction: float = 0.01
    normalize: bool = True
    pad: bool = True

    def __post_init__(self):
        scales = tuple(float(a) for a in self.scales)
        if not scales:
            raise BadScaleError("scale grid is empty")
        for a in scales:
            if not np.isfinite(a) or a <= 0.0:
                raise BadScaleError(f"scale must be positive, got {a}")
        if any(b <= a for a, b in zip(scales, scales[1:])):
            raise ValueError("scales must be strictly increasing")
        if not (0.0 <= self.threshold_fraction < 1.0):
            raise ValueError(
                f"threshold_fraction must lie in [0, 1), got {self.threshold_fraction}")
        object.__setattr__(self, "scales", scales)


def _as_field(phase) -> ScalarField:
    return phase.field if isinstance(phase, PhaseMap) else phase


def _axis_samples(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The periodized samples (g, h) of g(d/alpha) and (d/alpha)^2
    g(d/alpha) on an axis of n pixels."""
    copies = int(np.ceil(HAT_REACH * alpha / n))
    d = np.arange(n, dtype=np.float64)
    d = np.where(d > n / 2, d - n, d)
    t = (d[None, :] + n * np.arange(-copies, copies + 1)[:, None]) / alpha
    g = np.exp(-0.5 * t * t)
    return g.sum(axis=0), (t * t * g).sum(axis=0)


def _axis_dfts(samples: tuple[np.ndarray, np.ndarray],
               half: bool) -> tuple[np.ndarray, np.ndarray]:
    """DFTs (G, H) of the samples (g, h) of _axis_samples; half=True keeps
    only the non-negative frequencies, as rfft does."""
    fft = np.fft.rfft if half else np.fft.fft
    return fft(samples[0]).real, fft(samples[1]).real


def _band(n: int, alpha: float) -> int:
    """Bins kept along an axis of n: |k| < ceil(HAT_BAND n / (2 pi alpha))
    + 1, at most the half spectrum; past them the multiplier is below
    1e-17 of its peak."""
    return min(n // 2 + 1, int(np.ceil(HAT_BAND * n / (2.0 * np.pi * alpha))) + 1)


def finish_plane(values: np.ndarray, normalize: bool, fraction: float) -> float:
    """Normalize and threshold one plane in place; returns the divisor.

    Masked pixels must already hold 0, so the peak magnitude over all
    pixels is the peak over valid ones. normalize divides the plane by
    that peak (divisor 1.0 when it is not normalized or is identically
    zero), so a plane with any signal ends up with peak exactly 1.
    Values whose magnitude is strictly below fraction * peak are then
    zeroed, keeping the boundary value itself; fraction 0 zeroes none.
    A plane that is not finite raises NumericError.
    """
    # max |v| is max(max v, -min v) exactly; both are NaN if any v is
    peak = float(max(values.max(), -values.min()))
    if not np.isfinite(peak):
        raise NumericError("wavelet plane is not finite; the phase overflows")
    divisor = peak if normalize and peak > 0.0 else 1.0
    if divisor != 1.0:
        values /= divisor
    cut = fraction * (peak / divisor)
    if cut > 0.0:
        np.copyto(values, 0.0, where=np.abs(values) < cut)
    return divisor


class CwtSweep:
    """The planes of a multi-scale sweep, made one scale at a time.

    Construction checks the input (AllMaskedError, AliasingWarning;
    CwtParams has already refused bad scales). Each step of the iteration
    then yields (alpha, plane, divisor) for the next scale: the plane is
    cropped and masked, then normalized and thresholded as params say
    (finish_plane), and divisor is the peak it was divided by (1.0 when
    it was not normalized). No plane is kept once it has been handed
    out. The padding rule, the transforms of each plane, and why one
    padded spectrum is held at a time, are in the module docstring. The
    padded spectrum goes with the last plane, so a dropped sweep holds
    nothing, and a plane that raises leaves the sweep at the next scale.
    """

    def __init__(self, phase, params: CwtParams):
        f = _as_field(phase)
        if not f.valid().any():
            raise AllMaskedError("cannot sweep a fully masked phase map")
        for a in params.scales:
            # stacklevel 3 names the caller of cwt_sweep or cwt_plane
            if a < 1.0:
                warnings.warn(
                    f"scale {a} is below 1 px; the sampled wavelet keeps "
                    f"significant energy beyond Nyquist and the plane may alias",
                    AliasingWarning, stacklevel=3)
            # z = (alpha |w|)^2 / 2 at the lowest grid frequency; past the
            # hat's peak at z = 1 every bin is at most z e^(1 - z) of the peak
            z = (2.0 * np.pi * a / max(f.grid.shape)) ** 2 / 2.0
            if not params.pad and z > 1.0 and z * np.exp(1.0 - z) < 1e-12:
                warnings.warn(f"unpadded, scale {a} is below 1e-12 of the hat's peak "
                              f"at every nonzero grid frequency: the plane is rounding "
                              f"noise", AliasingWarning, stacklevel=3)
        self._field = f
        self._params = params
        self._max_margin = int(np.ceil(2.0 * max(params.scales))) if params.pad else 0
        self._valid = f.valid()
        self._shape = self._spectrum = None
        self.scales = params.scales
        self._alphas = iter(params.scales)

    def __iter__(self) -> "CwtSweep":
        return self

    def __next__(self) -> tuple[float, ScalarField, float]:
        plane = self._plane(next(self._alphas))
        if plane[0] == self.scales[-1]:
            self._shape = self._spectrum = None  # no later plane reads it
        return plane

    def __len__(self) -> int:
        return len(self.scales)

    @property
    def planes(self) -> "CwtSweep":
        """The sweep itself; perfbench/spans.py counts len(sweep.planes)."""
        return self

    def _grid(self, alpha: float) -> tuple[tuple[int, int], tuple[int, int]]:
        """The padded shape for alpha and the pad before each axis.

        The margin is the hat reach ceil(HAT_REACH * alpha), capped at
        ceil(2 * max(scales)); without padding it is 0 and the shape is
        the input's own. The input is centred, so the pads follow from
        the shape alone.
        """
        h, w = self._field.grid.shape
        margin = min(int(np.ceil(HAT_REACH * alpha)), self._max_margin)
        shape = tuple(next_fast_len(n + 2 * margin) if margin else n for n in (h, w))
        return shape, ((shape[0] - h) // 2, (shape[1] - w) // 2)

    def _forward(self, shape: tuple[int, int], top: int, left: int) -> np.ndarray:
        """np.fft.rfft2 of the input edge-padded to shape, bit for bit: an
        rfft along the rows, then an fft in place down the columns."""
        (h, w), (ly, lx) = self._field.grid.shape, shape
        padded = np.pad(self._field.values, ((top, ly - h - top), (left, lx - w - left)),
                        mode="edge")
        spectrum = np.fft.rfft(padded, axis=1)
        return np.fft.fft(spectrum, axis=0, out=spectrum)

    def _columns(self, alpha: float) -> np.ndarray:
        """The kept box of the spectrum times the multiplier, transformed
        down its columns, in an (Ly, kx) array that is 0 outside the box."""
        (ly, lx), spectrum = self._shape, self._spectrum
        ky, kx = _band(ly, alpha), _band(lx, alpha)
        samples = _axis_samples(ly, alpha)
        gy, hy = _axis_dfts(samples, half=False)
        if lx != ly:  # a square grid's axes share their samples
            samples = _axis_samples(lx, alpha)
        gx, hx = (v[:kx] for v in _axis_dfts(samples, half=True))
        ax = 2.0 * gx - hx
        product = np.zeros((ly, kx), dtype=complex)
        for part in (slice(0, ky), slice(ly - ky + 1, ly)):
            # (gy ax - hy gx) / alpha, built in the box's real and
            # imaginary parts, then the spectrum times it
            box = product[part]
            np.multiply(gy[part, None], ax, out=box.real)
            np.multiply(hy[part, None], gx, out=box.imag)
            np.subtract(box.real, box.imag, out=box.real)
            np.divide(box.real, alpha, out=box.real)
            box.imag = 0.0
            np.multiply(spectrum[part, :kx], box, out=box)
        return np.fft.ifft(product, axis=0, out=product)

    def _rows(self, product: np.ndarray, top: int, left: int) -> np.ndarray:
        """The plane from the column-transformed box: the irfft with n = Lx
        along the kept rows, cropped and masked."""
        (h, w), lx = self._field.grid.shape, self._shape[1]
        full, plane = np.fft.irfft(product[top:top + h], n=lx, axis=1), np.zeros((h, w))
        np.copyto(plane, full[:, left:left + w], where=self._valid)
        return plane

    @np.errstate(over="ignore", invalid="ignore")  # finish_plane refuses the result
    def _plane(self, alpha: float) -> tuple[float, ScalarField, float]:
        f, params = self._field, self._params
        shape, (top, left) = self._grid(alpha)
        if shape != self._shape:
            self._spectrum = None  # drop the old one before making the next
            self._spectrum, self._shape = self._forward(shape, top, left), shape
        plane = self._rows(self._columns(alpha), top, left)
        divisor = finish_plane(plane, params.normalize, params.threshold_fraction)
        # plane is C-contiguous, 0 at masked pixels and finite (finish_plane
        # refuses it otherwise), so the field adopts it
        return alpha, ScalarField._adopt(f.grid, plane, f.mask), divisor


def cwt_sweep(phase, params: CwtParams, /) -> CwtSweep:
    """Multi-scale sweep: check the input now, then make the planes one
    at a time as the returned CwtSweep is iterated.

    Raises AllMaskedError when the phase has no valid pixels.
    """
    return CwtSweep(phase, params)


def cwt_plane(phase, alpha: float, *, pad: bool = False) -> ScalarField:
    """Single-scale wavelet response plane of a phase map: the plane of a
    one-scale sweep with no normalization and no threshold.

    pad=False (default) keeps the exact periodic convention. pad=True
    pads by the sweep's rule for one scale (module docstring) and crops
    the result, for production use on non-periodic data.
    """
    params = CwtParams((alpha,), threshold_fraction=0.0, normalize=False, pad=pad)
    return next(CwtSweep(phase, params))[1]
