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

Every transform is numpy.fft's pocketfft, run as a batch of independent
1-D transforms, and the sweep splits each batch and each elementwise
pass into contiguous slices of rows or columns, one per CPU the process
may run on: worker threads take the first slices and the calling thread
the last. The padded spectrum is an rfft over row slices, then an fft in
place down column slices (out=), which is np.fft.rfft2 bit for bit
without its second array. A plane takes three passes, each ended by
waiting for the workers: over column slices of the kept box, the product
with the multiplier, then an ifft in place down the columns; over row
slices, an irfft along the kept rows, the crop and mask, and the slice's
peak magnitude; over row slices again, the divide by the plane's peak
and the threshold (finish_plane). A 1-D transform or an elementwise op
gives the same bits on any slice, so the planes are the one-thread
planes bit for bit at every CPU count. The calling thread makes every
array a worker writes, and the workers write only through out=, copyto
and in-place ops, for the reason the ridge scan's docstring in wft.py
gives: glibc keeps what a thread allocates resident in its per-thread
arena. A stage runs on the calling thread alone unless each slice gets
SPLIT_MIN elements, and the worker threads start with the first stage
that splits and end with the sweep.

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

import contextvars
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import PhaseMap, ScalarField, _usable_cpus, next_fast_len
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

# Fewest elements a slice of a split stage takes. Handing a slice to a
# worker thread and waiting for it took 20-140 us on a 2-vCPU x86 VM,
# about what a slice this size costs, and splitting every stage made a
# 192^2 sweep slower than one thread.
SPLIT_MIN = 1 << 16


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


def _band(n: int, alpha: float) -> int:
    """Bins kept along an axis of n: |k| < ceil(HAT_BAND n / (2 pi alpha))
    + 1, at most the half spectrum; past them the multiplier is below
    1e-17 of its peak."""
    return min(n // 2 + 1, int(np.ceil(HAT_BAND * n / (2.0 * np.pi * alpha))) + 1)


def _plane_scale(peak: float, normalize: bool, fraction: float) -> tuple[float, float]:
    """The divisor of a plane whose peak magnitude is peak, and the cut on
    the magnitude of the divided plane (finish_plane). NumericError when
    peak is not finite."""
    if not np.isfinite(peak):
        raise NumericError("wavelet plane is not finite; the phase overflows")
    divisor = peak if normalize and peak > 0.0 else 1.0
    return divisor, fraction * (peak / divisor)


def _finish_rows(values: np.ndarray, below: np.ndarray, above: np.ndarray,
                 divisor: float, cut: float) -> None:
    """Divide values by divisor, then zero those whose magnitude is below
    cut, in place; below and above are scratch masks."""
    if divisor != 1.0:
        values /= divisor
    if cut > 0.0:
        # |v| < cut exactly when -cut < v < cut: negation is exact, and
        # neither holds for NaN
        np.less(values, cut, out=below)
        np.greater(values, -cut, out=above)
        np.logical_and(below, above, out=below)
        np.copyto(values, 0.0, where=below)


def finish_plane(values: np.ndarray, normalize: bool, fraction: float) -> float:
    """Normalize and threshold one plane in place; returns the divisor.

    Masked pixels must already hold 0, so the peak magnitude over all
    pixels is the peak over valid ones. normalize divides the plane by
    that peak (divisor 1.0 when it is not normalized or is identically
    zero), so a plane with any signal ends up with peak exactly 1.
    Values whose magnitude is strictly below fraction * peak are then
    zeroed, keeping the boundary value itself; fraction 0 zeroes none.
    A plane that is not finite raises NumericError. The sweep does the
    same by row slices.
    """
    divisor, cut = _plane_scale(float(np.abs(values).max()), normalize, fraction)
    _finish_rows(values, np.empty(values.shape, dtype=bool),
                 np.empty(values.shape, dtype=bool), divisor, cut)
    return divisor


class CwtSweep:
    """The planes of a multi-scale sweep, made one scale at a time.

    Construction checks the input (AllMaskedError, AliasingWarning;
    CwtParams has already refused bad scales). Each step of the iteration
    then yields (alpha, plane, divisor) for the next scale: the plane is
    cropped and masked, then normalized and thresholded as params say
    (finish_plane), and divisor is the peak it was divided by (1.0 when
    it was not normalized). No plane is kept once it has been handed
    out. The padding rule, the split of each plane across the CPUs, and
    why one padded spectrum is held at a time, are in the module
    docstring. Worker threads start at the first stage that splits and
    end with the last plane; close() ends a sweep early.
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
        self._shape = self._spectrum = self._pool = None
        self._workers = _usable_cpus()
        self.scales = params.scales
        self._made = 0

    def __iter__(self) -> "CwtSweep":
        return self

    def __next__(self) -> tuple[float, ScalarField, float]:
        if self._made == len(self.scales):
            raise StopIteration
        try:
            plane = self._plane(self.scales[self._made])
        except BaseException:
            self.close()
            raise
        self._made += 1
        if self._made == len(self.scales):
            self.close()
        return plane

    def __len__(self) -> int:
        return len(self.scales)

    @property
    def planes(self) -> "CwtSweep":
        """The sweep itself; perfbench/spans.py counts len(sweep.planes)."""
        return self

    def close(self) -> None:
        """End the sweep: no further plane is made, and the worker threads
        and the padded spectrum are released. The last plane, and a plane
        that raises, close the sweep."""
        self._made = len(self.scales)
        if self._pool is not None:
            self._pool.shutdown()
        self._shape = self._spectrum = self._pool = None

    def _split(self, n: int, length: int, work) -> list:
        """work(s) for contiguous slices s of range(n), n lines of length
        elements each: one slice per worker but none under SPLIT_MIN
        elements, the last on the calling thread. Returns their results
        in order. Each worker runs in a copy of the caller's context, so
        under its np.errstate."""
        k = max(1, min(self._workers, n, n * length // SPLIT_MIN))
        if k > 1 and self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self._workers - 1)
        cuts = [n * i // k for i in range(k + 1)]
        parts = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        futures = [self._pool.submit(contextvars.copy_context().run, work, s)
                   for s in parts[:-1]]
        last = work(parts[-1])
        return [future.result() for future in futures] + [last]

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
        rfft along row slices, then an fft in place down column slices."""
        (h, w), (ly, lx) = self._field.grid.shape, shape
        padded = np.pad(self._field.values, ((top, ly - h - top), (left, lx - w - left)),
                        mode="edge")
        spectrum = np.empty((ly, lx // 2 + 1), dtype=complex)
        self._split(ly, lx, lambda r: np.fft.rfft(padded[r], axis=1, out=spectrum[r]))
        self._split(lx // 2 + 1, ly,
                    lambda c: np.fft.fft(spectrum[:, c], axis=0, out=spectrum[:, c]))
        return spectrum

    def _columns(self, alpha: float) -> np.ndarray:
        """The kept box of the spectrum times the multiplier, transformed
        down its columns, in an (Ly, kx) array that is 0 outside the box:
        by column slices."""
        (ly, lx), spectrum = self._shape, self._spectrum
        ky, kx = _band(ly, alpha), _band(lx, alpha)
        gy, hy = _axis_dfts(ly, alpha, half=False)
        gx, hx = (v[:kx] for v in _axis_dfts(lx, alpha, half=True))
        ax = 2.0 * gx - hx
        product = np.zeros((ly, kx), dtype=complex)

        def work(c):
            for part in (slice(0, ky), slice(ly - ky + 1, ly)):
                # (gy ax - hy gx) / alpha, built in the box's real and
                # imaginary parts, then the spectrum times it
                box = product[part, c]
                np.multiply(gy[part, None], ax[None, c], out=box.real)
                np.multiply(hy[part, None], gx[None, c], out=box.imag)
                np.subtract(box.real, box.imag, out=box.real)
                np.divide(box.real, alpha, out=box.real)
                box.imag = 0.0
                np.multiply(spectrum[part, c], box, out=box)
            np.fft.ifft(product[:, c], axis=0, out=product[:, c])
        self._split(kx, ly, work)
        return product

    def _rows(self, product: np.ndarray, top: int, left: int) -> tuple[np.ndarray, float]:
        """The plane from the column-transformed box, the irfft with n = Lx
        along the kept rows, cropped and masked, and its peak magnitude:
        by row slices."""
        (h, w), lx = self._field.grid.shape, self._shape[1]
        full, plane = np.empty((h, lx)), np.zeros((h, w))

        def work(r):
            np.fft.irfft(product[top + r.start:top + r.stop], n=lx, axis=1, out=full[r])
            np.copyto(plane[r], full[r, left:left + w], where=self._valid[r])
            # max |v| is max(max v, -min v) exactly, NaN included
            return plane[r].max(), -plane[r].min()
        return plane, float(np.max(self._split(h, lx, work)))

    @np.errstate(over="ignore", invalid="ignore")  # _plane_scale refuses the result
    def _plane(self, alpha: float) -> tuple[float, ScalarField, float]:
        f, params = self._field, self._params
        (h, w), (shape, (top, left)) = f.grid.shape, self._grid(alpha)
        if shape != self._shape:
            self._spectrum = None  # drop the old one before making the next
            self._spectrum, self._shape = self._forward(shape, top, left), shape
        plane, peak = self._rows(self._columns(alpha), top, left)
        divisor, cut = _plane_scale(peak, params.normalize, params.threshold_fraction)
        if divisor != 1.0 or cut > 0.0:
            below, above = np.empty((h, w), dtype=bool), np.empty((h, w), dtype=bool)
            self._split(h, w, lambda r: _finish_rows(plane[r], below[r], above[r],
                                                  divisor, cut))
        # plane is C-contiguous, 0 at masked pixels and finite (the peak
        # is), so the field adopts it
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
