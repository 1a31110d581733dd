"""Windowed Fourier ridge demodulation and reliability-guided unwrapping.

The windowed response of an image at pixel (x1, y1) and probe frequency
(u, v) cycles/px is the inner product with a Gaussian-windowed complex
exponential centered on that pixel:

    R(x1, y1) = sum_{s} img(x1 + sx, y1 + sy)
                * exp(-(sx^2 + sy^2) / (2 sigma^2))
                * exp(-i 2 pi (u sx + v sy))

The window is truncated at radius r = ceil(4 sigma) and pixels beyond
the image edge contribute zero, which is exactly a zero-padded linear
convolution; it is evaluated with separable FFT convolutions along rows
then columns. Each axis of n pixels is padded to next_fast_len(max(n + r,
2r + 1)) bins: the circular wrap then reaches back only into zero
padding, so the first n outputs equal the linear convolution, and the
2r + 1 taps each keep their own bin. The scan runs in single precision
(complex64); the winning response and its squared magnitude are widened
to float64 before the phase and the ridge amplitude are taken. Because
the exponential is re-referenced to the window center, the argument of
the response at the ridge equals the total local fringe phase regardless
of which frequency grid point the ridge search picked, so subtracting
reference from deformed cancels the carrier term identically.

demodulate scans an inclusive frequency grid over [band_x] x [band_y]
and keeps, per pixel, the response with the largest magnitude (ties break
toward the smallest u, then v). Pixels closer than 3 sigma to the border
see a clipped window and are conventionally excluded from interior
statistics; interior_mask builds that selector.

The scan splits the u grid into k = min(len(us), usable CPUs) contiguous
chunks and runs each in a thread; numpy's ufuncs and scipy.fft release
the interpreter lock, so the chunks run in parallel. Each chunk scans
its u, then v, in ascending order with strict improvement and keeps its
own best arrays; the chunks are then merged in ascending u, again with a
strict >, so a tie keeps the earlier chunk and every winner equals the
one-thread scan's bit for bit. Every array a thread writes is made by
the calling thread, and the thread writes into it through out= and
in-place transforms: when the threads made their own temporaries, glibc
kept about 27 MB of them resident in its per-thread arenas after a 512^2
scan, which raised the peak RSS of the later unwrap step by as much.

unwrap integrates the wrapped phase along a maximum-reliability spanning
forest (Herraez et al., Appl. Opt. 41, 7437, 2002): the 4-neighbor edges
between valid pixels are ranked by descending q(a) + q(b), ties by edge
index (all horizontal edges in row-major order, then all vertical ones),
and linked in Boruvka rounds, each component taking its best-ranked edge
to another component. Every pixel receives the value of its tree
neighbor plus the wrapped difference. The 2 pi multiple is tracked as an
exact integer per pixel, so the output differs from the input by exact
multiples of 2 pi (up to one rounding of 2*pi*k) and equals the input at
the best pixel of each connected region (highest quality, first in
row-major order on ties). Where the wrapped differences sum to zero
around every loop of valid pixels (no residues, and no net turn around a
masked hole), every spanning tree gives the same result.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .core import GridSpec, PhaseMap, ScalarField, TWO_PI, wrap_phase
from .errors import (BadFrequencyError, BadSpecError, EmptyBandError,
                     GridMismatchError, NoValidSeedError, NumericError)

WINDOW_TRUNCATION_SIGMAS = 4


@dataclass(frozen=True)
class DemodParams:
    """Ridge search parameters.

    band_x and band_y are inclusive frequency intervals in cycles/px,
    scanned with the given step; both must sit inside the open Nyquist
    interval (-0.5, 0.5). window_sigma is the Gaussian window width in
    pixels. for_carrier builds the defaults for a given carrier
    frequency: band_x = fx +- 0.1, band_y = +-0.1, step 0.005,
    window_sigma 10.
    """

    band_x: tuple[float, float]
    band_y: tuple[float, float] = (-0.1, 0.1)
    step: float = 0.005
    window_sigma: float = 10.0

    def __post_init__(self):
        for name, band in (("band_x", self.band_x), ("band_y", self.band_y)):
            lo, hi = band
            if not (lo < hi):
                raise BadSpecError(f"{name} must satisfy lo < hi, got {band}")
            if lo <= -0.5 or hi >= 0.5:
                raise BadFrequencyError(
                    f"{name} must lie inside (-0.5, 0.5) cycles/px, got {band}")
            object.__setattr__(self, name, (float(lo), float(hi)))
        if not (0.0 < self.step <= min(self.band_x[1] - self.band_x[0],
                                       self.band_y[1] - self.band_y[0])):
            raise BadSpecError(
                f"step must be positive and no wider than the bands, got {self.step}")
        if not (self.window_sigma > 0.0 and np.isfinite(self.window_sigma)):
            raise BadSpecError(f"window_sigma must be positive, got {self.window_sigma}")

    @classmethod
    def for_carrier(cls, fx: float, **kw) -> "DemodParams":
        return cls(band_x=(fx - 0.1, fx + 0.1), **kw)


@dataclass(frozen=True)
class RidgeResult:
    """Per-pixel ridge of the windowed frequency scan.

    phase is wrapped to (-pi, pi] and zero at masked pixels; freq_x,
    freq_y hold the winning grid frequencies and ridge_amplitude the
    response magnitude (the quality map for unwrapping).
    """

    phase: PhaseMap
    freq_x: ScalarField
    freq_y: ScalarField
    ridge_amplitude: ScalarField


def frequency_grid(band: tuple[float, float], step: float) -> np.ndarray:
    """Inclusive frequency samples lo, lo+step, ..., hi (fp-tolerant)."""
    lo, hi = band
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    if n < 1:
        raise EmptyBandError(f"band {band} with step {step} holds no frequencies")
    return lo + step * np.arange(n)


def interior_mask(grid: GridSpec, margin_px: float) -> np.ndarray:
    """True where a pixel is at least margin_px from every image border."""
    m = int(np.ceil(margin_px))
    out = np.zeros(grid.shape, dtype=bool)
    if grid.height > 2 * m and grid.width > 2 * m:
        out[m:grid.height - m, m:grid.width - m] = True
    return out


def _window_taps(sigma: float) -> tuple[np.ndarray, np.ndarray]:
    r = int(np.ceil(WINDOW_TRUNCATION_SIGMAS * sigma))
    t = np.arange(-r, r + 1, dtype=np.float64)
    return t, np.exp(-t * t / (2.0 * sigma * sigma))


def _kernel_ffts(t: np.ndarray, w: np.ndarray, freqs: np.ndarray,
                 n: int) -> np.ndarray:
    """FFTs of the complex window tap vectors, one row per frequency, laid
    out circularly in n bins; built in float64, then cast to complex64."""
    buf = np.zeros((len(freqs), n), dtype=np.complex128)
    buf[:, t.astype(int) % n] = w * np.exp(2j * np.pi * np.outer(freqs, t))
    return sfft.fft(buf, axis=1).astype(np.complex64)


class _ChunkScan:
    """One thread's share of the scan: a contiguous run of the u grid.

    Every array scan writes is made here, in the calling thread; the
    thread that runs scan only writes into them, products through out=
    and transforms in place with overwrite_x.
    """

    def __init__(self, shape: tuple[int, int], nx: int, ny: int):
        h, w = shape
        self.best_mag2 = np.full(shape, -1.0, dtype=np.float32)
        self.best_resp = np.zeros(shape, dtype=np.complex64)
        self.best_idx = np.zeros(shape, dtype=np.int32)  # flat (u, v) grid index
        self.rows = np.empty((h, nx), dtype=np.complex64)
        self.cols = np.empty((ny, w), dtype=np.complex64)
        self.product = np.empty((ny, w), dtype=np.complex64)
        self.mag2 = np.empty(shape, dtype=np.float32)
        self.square = np.empty(shape, dtype=np.float32)
        self.better = np.empty(shape, dtype=bool)

    def scan(self, row_fft: np.ndarray, row_kernels: np.ndarray,
             col_kernels: np.ndarray, first: int) -> None:
        """Scan the u kernels row_kernels, the first at grid index first,
        against every v kernel, in ascending order with strict improvement."""
        h, w = self.best_mag2.shape
        for i, gx in enumerate(row_kernels, first):
            rows = sfft.ifft(np.multiply(row_fft, gx, out=self.rows),
                             axis=1, overwrite_x=True)
            self.cols[:h] = rows[:, :w]
            self.cols[h:] = 0.0
            col_fft = sfft.fft(self.cols, axis=0, overwrite_x=True)
            for j, gy in enumerate(col_kernels):
                resp = sfft.ifft(np.multiply(col_fft, gy, out=self.product),
                                 axis=0, overwrite_x=True)[:h]
                # rounds as np.square(re) + np.square(im) does
                np.square(resp.real, out=self.mag2)
                self.mag2 += np.square(resp.imag, out=self.square)
                self.keep(self.mag2, resp, i * len(col_kernels) + j)

    def keep(self, mag2: np.ndarray, resp: np.ndarray,
             idx: int | np.ndarray) -> None:
        """Take mag2, resp and idx wherever mag2 strictly beats the best."""
        np.greater(mag2, self.best_mag2, out=self.better)
        np.copyto(self.best_mag2, mag2, where=self.better)
        np.copyto(self.best_resp, resp, where=self.better)
        np.copyto(self.best_idx, idx, where=self.better)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def demodulate(img: ScalarField, params: DemodParams) -> RidgeResult:
    """Exhaustive ridge scan over the frequency grid.

    Per pixel, keeps the (u, v) grid point maximizing the response
    magnitude; ties resolve to the smallest u, then v. Masked pixels get
    phase 0; their ridge values are computed but carry no meaning. The
    row stage runs once per u, hoisted out of the loop over v, where
    nearly all the time goes.

    The u grid is split into k = min(len(us), usable CPUs) contiguous
    chunks, each scanned in its own thread in ascending order with
    strict improvement. The chunks' bests are then merged in ascending u
    with a strict >, so a tie keeps the earlier chunk and the result
    equals the one-thread scan bit for bit. Every buffer a thread writes
    is made here, in the calling thread: at 512^2, thread-made
    temporaries stayed resident in glibc's per-thread arenas (about
    27 MB) and raised the peak RSS of the later unwrap step by as much.
    """
    us = frequency_grid(params.band_x, params.step)
    vs = frequency_grid(params.band_y, params.step)
    for f in (us[0], us[-1], vs[0], vs[-1]):
        if abs(f) >= 0.5:
            raise BadFrequencyError(f"band frequency {f} reaches Nyquist")
    h, w = shape = img.grid.shape
    t, taps = _window_taps(params.window_sigma)
    r = len(t) // 2
    nx, ny = (sfft.next_fast_len(max(n + r, 2 * r + 1)) for n in (w, h))
    row_fft = sfft.fft(img.values, n=nx, axis=1).astype(np.complex64)
    row_kernels = _kernel_ffts(t, taps, us, nx)
    col_kernels = _kernel_ffts(t, taps, vs, ny)[:, :, None]
    k = min(len(us), _usable_cpus())
    bounds = [len(us) * c // k for c in range(k + 1)]
    chunks = [_ChunkScan(shape, nx, ny) for _ in range(k)]
    with ThreadPoolExecutor(max_workers=k) as pool:
        futures = [pool.submit(chunk.scan, row_fft, row_kernels[lo:hi],
                               col_kernels, lo)
                   for chunk, lo, hi in zip(chunks, bounds, bounds[1:])]
        for future in futures:
            future.result()
    best = chunks[0]
    for chunk in chunks[1:]:
        best.keep(chunk.best_mag2, chunk.best_resp, chunk.best_idx)
    best_u, best_v = np.divmod(best.best_idx, len(vs))
    valid = img.valid()
    phase_vals = np.where(
        valid, wrap_phase(np.angle(best.best_resp.astype(np.complex128))), 0.0)
    return RidgeResult(
        phase=PhaseMap(ScalarField(img.grid, phase_vals, img.mask), wrapped=True),
        freq_x=ScalarField(img.grid, us[best_u]),
        freq_y=ScalarField(img.grid, vs[best_v]),
        ridge_amplitude=ScalarField(img.grid,
                                    np.sqrt(best.best_mag2.astype(np.float64))),
    )


def _phase_of(x) -> PhaseMap:
    return x.phase if isinstance(x, RidgeResult) else x


def relative_phase(deformed, reference) -> PhaseMap:
    """Wrapped per-pixel difference deformed - reference in (-pi, pi].

    Because both arguments carry the carrier identically, the difference
    is the wrapped deformation phase alone. Masks AND together and newly
    invalid pixels are zeroed.
    """
    d = _phase_of(deformed)
    r = _phase_of(reference)
    if d.grid != r.grid:
        raise GridMismatchError("relative_phase needs matching grids")
    valid = d.field.valid() & r.field.valid()
    diff = np.where(valid, wrap_phase(d.field.values - r.field.values), 0.0)
    mask = None if (d.field.mask is None and r.field.mask is None) else valid
    return PhaseMap(ScalarField(d.grid, diff, mask), wrapped=True)


_NONE = np.iinfo(np.intp).max


def _best_per_label(n: int, labels: np.ndarray, keys: np.ndarray,
                    index: np.ndarray) -> np.ndarray:
    """For each label in [0, n), the index with the largest key (the
    smallest index on ties), or _NONE where the label does not occur."""
    top = np.full(n, -np.inf)
    np.maximum.at(top, labels, keys)
    at_top = keys == top[labels]
    best = np.full(n, _NONE)
    np.minimum.at(best, labels[at_top], index[at_top])
    return best


def _forest_turns(vals: np.ndarray, q: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Integer 2 pi turns per pixel along the maximum-reliability forest.

    Each component has a root pixel, and each pixel its offset
    k(pixel) - k(root). A Boruvka round hooks every component onto the
    component across its best edge; pointer jumping then carries the
    offsets to the new roots. Each edge's turn is taken in the direction
    it was hooked, which agrees with the other direction unless the
    wrapped difference lies within rounding of +-pi. Finally each
    component is re-referenced to its best pixel, which gets k = 0.
    """
    h, w = vals.shape
    n = h * w
    ids = np.arange(n).reshape(h, w)
    across = valid[:, :-1] & valid[:, 1:]
    down = valid[:-1] & valid[1:]
    a = np.concatenate((ids[:, :-1][across], ids[:-1][down]))
    b = np.concatenate((ids[:, 1:][across], ids[1:][down]))
    qf, vf = q.ravel(), vals.ravel()
    rel = qf[a] + qf[b]
    root = np.arange(n)
    off = np.zeros(n, dtype=np.int64)
    live = np.arange(a.size)
    while True:
        ra, rb = root[a[live]], root[b[live]]
        cross = ra != rb
        live, ra, rb = live[cross], ra[cross], rb[cross]
        if not live.size:
            break
        best = _best_per_label(n, np.concatenate((ra, rb)),
                               np.tile(rel[live], 2), np.tile(live, 2))
        comps = np.flatnonzero(best != _NONE)
        e = best[comps]
        from_a = root[a[e]] == comps
        inner = np.where(from_a, a[e], b[e])
        outer = np.where(from_a, b[e], a[e])
        parent = np.arange(n)
        parent[comps] = root[outer]
        # the hooked edge's turn k(inner) - k(outer): wrap(d) = d - 2 pi m
        # with m = ceil((d - pi) / 2 pi), the (-pi, pi] representative
        turn = -np.ceil((vf[inner] - vf[outer] - math.pi) / TWO_PI).astype(np.int64)
        hook = np.zeros(n, dtype=np.int64)  # k(comp root) - k(parent root)
        hook[comps] = off[outer] + turn - off[inner]
        # two components that picked the same edge: the lower label stays root
        mutual = (parent[parent[comps]] == comps) & (comps < parent[comps])
        parent[comps[mutual]] = comps[mutual]
        hook[comps[mutual]] = 0
        while True:
            up = parent[comps]
            up2 = parent[up]
            if np.array_equal(up, up2):
                break
            hook[comps] += hook[up]
            parent[comps] = up2
        off += hook[root]
        root = parent[root]
    pix = np.flatnonzero(valid)
    seed = _best_per_label(n, root[pix], qf[pix], pix)
    k = np.zeros(n, dtype=np.int64)
    k[pix] = off[pix] - off[seed[root[pix]]]
    return k.reshape(h, w)


def unwrap(p: PhaseMap, quality: ScalarField | np.ndarray | None = None) -> PhaseMap:
    """Unwrap a wrapped phase map along its maximum-reliability forest.

    quality defaults to uniform (edges then rank by index alone); pass
    the ridge amplitude for noise-robust paths. Edges rank by descending
    q(a) + q(b), ties by edge index, and each connected region keeps its
    input value at its best pixel (first in row-major order on quality
    ties). Masked pixels are left untouched. Deterministic. Raises
    NumericError when quality is not finite at a valid pixel.
    """
    if not p.wrapped:
        raise ValueError("unwrap expects a wrapped phase map")
    valid = p.field.valid()
    if not valid.any():
        raise NoValidSeedError("cannot unwrap a fully masked phase map")
    if quality is None:
        q = np.zeros(p.grid.shape)
    else:
        q = quality.values if isinstance(quality, ScalarField) else \
            np.asarray(quality, dtype=np.float64)
        if q.shape != p.grid.shape:
            raise GridMismatchError("quality map shape does not match the grid")
        if not np.isfinite(q[valid]).all():
            raise NumericError("unwrap quality is not finite at a valid pixel")
    vals = p.field.values
    out = vals + TWO_PI * _forest_turns(vals, q, valid).astype(np.float64)
    return PhaseMap(ScalarField(p.grid, out, p.field.mask), wrapped=False)


def anchor_far_field(p: PhaseMap, rect: tuple[int, int, int, int]) -> PhaseMap:
    """Shift an unwrapped phase by the 2 pi multiple that brings the median
    over a far-field rectangle (x0, y0, w, h) nearest zero.

    Unwrapping fixes phase only up to a global 2 pi k; when the scene has
    a quiet region of known near-zero phase this pins k.
    """
    if p.wrapped:
        raise ValueError("anchor_far_field expects an unwrapped phase map")
    if not p.grid.fits(rect):
        raise BadSpecError(f"far-field rect {rect} does not fit grid "
                           f"{p.grid.width}x{p.grid.height}")
    x0, y0, w, h = rect
    sel = np.zeros(p.grid.shape, dtype=bool)
    sel[y0:y0 + h, x0:x0 + w] = True
    sel &= p.field.valid()
    if not sel.any():
        raise NoValidSeedError("far-field rect holds no valid pixels")
    k = round(float(np.median(p.field.values[sel])) / TWO_PI)
    if k == 0:
        return p
    valid = p.field.valid()
    out = np.where(valid, p.field.values - TWO_PI * k, p.field.values)
    return PhaseMap(ScalarField(p.grid, out, p.field.mask), wrapped=False)
