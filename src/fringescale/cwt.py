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

Every transform is numpy.fft's pocketfft. The padded spectrum is an
rfft along the rows, then an fft down the columns in place (out=),
which is np.fft.rfft2 bit for bit without its second array; a plane is
an ifft down the kept columns in place, then an irfft along the kept
rows.

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


def mexican_hat(x, y):
    """Isotropic Mexican hat psi(x, y) = (2 - r^2) exp(-r^2 / 2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r2 = x * x + y * y
    return (2.0 - r2) * np.exp(-0.5 * r2)


def mexican_hat_spectrum(wx, wy):
    """Closed-form transform 2 pi |w|^2 exp(-|w|^2 / 2), angular frequency."""
    wx = np.asarray(wx, dtype=np.float64)
    wy = np.asarray(wy, dtype=np.float64)
    w2 = wx * wx + wy * wy
    return 2.0 * np.pi * w2 * np.exp(-0.5 * w2)


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


def _axis_dfts(n: int, alpha: float, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """DFTs (G, H) of the periodized samples of g(d/alpha) and
    (d/alpha)^2 g(d/alpha) on an axis of n pixels; half=True keeps only
    the non-negative frequencies, as rfft does."""
    copies = int(np.ceil(HAT_REACH * alpha / n))
    d = np.arange(n, dtype=np.float64)
    d = np.where(d > n / 2, d - n, d)
    t = (d[None, :] + n * np.arange(-copies, copies + 1)[:, None]) / alpha
    g = np.exp(-0.5 * t * t)
    g, h = g.sum(axis=0), (t * t * g).sum(axis=0)
    fft = np.fft.rfft if half else np.fft.fft
    return fft(g).real, fft(h).real


def _plane_values(spectrum: np.ndarray, shape: tuple[int, int], alpha: float,
                  rows: slice, cols: slice) -> np.ndarray:
    """Plane at scale alpha from the real 2-D spectrum (np.fft.rfft2's
    layout) of the (padded) input of shape, cropped to rows and cols.

    Only the bins |k| < ceil(HAT_BAND L / (2 pi alpha)) + 1 along each
    axis of L are multiplied; past them the multiplier is below 1e-17 of
    its peak. That box sits in an (Ly, kx) buffer, 0 in its other rows;
    an ifft runs down its kx columns, then an irfft with n = Lx along the
    rows kept zero-fills the rest. When the box is the whole half
    spectrum, the plane equals np.fft.irfft2 then crop bit for bit.
    """
    ly, lx = shape
    ky, kx = (min(n // 2 + 1, int(np.ceil(HAT_BAND * n / (2.0 * np.pi * alpha))) + 1)
              for n in shape)
    gy, hy = _axis_dfts(ly, alpha, half=False)
    gx, hx = (v[:kx] for v in _axis_dfts(lx, alpha, half=True))
    product = np.zeros((ly, kx), dtype=spectrum.dtype)
    for part in (slice(0, ky), slice(ly - ky + 1, ly)):
        product[part] = spectrum[part, :kx] * ((gy[part, None] * (2.0 * gx - hx)[None, :]
                                                - hy[part, None] * gx[None, :]) / alpha)
    product = np.fft.ifft(product, axis=0, out=product)[rows]
    return np.fft.irfft(product, n=lx, axis=1)[:, cols]


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
    # |v / p| is |v| / p exactly, so one magnitude array serves the peak
    # and the threshold
    magnitude = np.abs(values)
    peak, divisor = float(magnitude.max()), 1.0
    if not np.isfinite(peak):
        raise NumericError("wavelet plane is not finite; the phase overflows")
    if normalize and peak > 0.0:
        values /= peak
        magnitude /= peak
        peak, divisor = 1.0, peak
    if fraction > 0.0:
        np.copyto(values, 0.0, where=magnitude < fraction * peak)
    return divisor


class CwtSweep:
    """The planes of a multi-scale sweep, made one scale at a time.

    Construction checks the input (AllMaskedError, AliasingWarning;
    CwtParams has already refused bad scales). Each step of the iteration
    then yields (alpha, plane, divisor) for the next scale: the plane is
    cropped and masked, then finish_plane normalizes and thresholds it
    as params say, and divisor is the peak it was divided by (1.0 when
    it was not normalized). No plane is kept once it has been handed
    out. The padding rule, and why one padded spectrum is held at a
    time, are in the module docstring.
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
        self._planes = map(self._plane, params.scales)

    def __iter__(self) -> "CwtSweep":
        return self

    def __next__(self) -> tuple[float, ScalarField, float]:
        return next(self._planes)

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

    @np.errstate(over="ignore", invalid="ignore")  # finish_plane refuses the result
    def _plane(self, alpha: float) -> tuple[float, ScalarField, float]:
        f, params = self._field, self._params
        (h, w), (shape, (top, left)) = f.grid.shape, self._grid(alpha)
        if shape != self._shape:
            self._spectrum = None  # drop the old one before making the next
            self._spectrum = np.fft.rfft(np.pad(
                f.values, ((top, shape[0] - h - top), (left, shape[1] - w - left)),
                mode="edge"), axis=1)
            np.fft.fft(self._spectrum, axis=0, out=self._spectrum)
            self._shape = shape
        # np.where makes a fresh C-contiguous plane, 0 at masked pixels, and
        # finish_plane refuses any that is not finite, so the field adopts it
        out = np.where(self._valid, _plane_values(
            self._spectrum, shape, alpha, slice(top, top + h),
            slice(left, left + w)), 0.0)
        divisor = finish_plane(out, params.normalize, params.threshold_fraction)
        return alpha, ScalarField._adopt(f.grid, out, f.mask), divisor


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
