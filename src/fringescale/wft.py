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
2r + 1)) bins, 5-smooth as the CWT's: the circular wrap then reaches
back only into zero padding, so the first n outputs equal the linear
convolution, and the 2r + 1 taps each keep their own bin. The scan runs
in single precision (complex64); the winning response and its squared
magnitude are widened to float64 before the phase and the ridge
amplitude are taken. Because the exponential is re-referenced to the
window center, the argument of the response at the ridge equals the
total local fringe phase regardless of which frequency grid point the
ridge search picked, so subtracting reference from deformed cancels the
carrier term identically.

Every transform is numpy.fft's pocketfft, through out= buffers. A
complex64 transform stays single precision and in place only with a
float32 scale: ifft's 1/n, or fft's with norm="forward" (the default
norm runs the complex128 loop on copies). So the column forward
transforms take norm="forward", one more rounding well inside eps_x
below, and the column kernels and the window's transform carry the
factor n back, scaled before their float64 FFT.

demodulate scans an inclusive frequency grid over [band_x] x [band_y]
and keeps, per pixel, the response with the largest magnitude (ties break
toward the smallest flat grid index i * len(vs) + j, so the smallest u,
then v). Pixels closer than 3 sigma to the border see a clipped window
and are conventionally excluded from interior statistics; interior_mask
builds that selector.

The scan is exhaustive in effect but skips the work that cannot change a
winner. For one u the row stage gives c_u, the image convolved along its
rows. Each column tap has modulus w(s), so for every v the triangle
inequality gives |R(u, v)(x, y)| <= B_u(x, y) = sum_s w(s) |c_u(x, y + s)|.
B_u is one real column convolution, run two columns per single-precision
complex transform (the window is real, so the real and imaginary parts
convolve apart). The column FFT and the v loop of u then run only on the
columns x holding a pixel where (B_u + eps_x)^2 (1 + delta) reaches the
running best mag2; at every other pixel each computed mag2 lies strictly
below the best, so it can neither beat nor tie it. eps_x bounds the
round-off of the four transforms behind R and B_u: the Cooley-Tukey
bound (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
Thm 24.2) of about 6 * 2^-24 per radix-2 level and transform (2^-24 is
the float32 unit round-off) gives eps_x = 32 log2(ny) 2^-24 sum(w) times
the 2-norm of the column pair transformed together. The largest error
measured against float64, on random columns, was under 1/250 of eps_x.
delta = 2^-16 covers the relative rounding of |c_u|, of mag2 and of the
test itself.

The u grid is sorted by distance from the band centre (the smaller u
first on ties) and dealt round-robin to k = min(len(us), usable CPUs)
threads, thread t taking order[t::k], so every thread starts near the
ridge; numpy's ufuncs and numpy.fft release the interpreter lock, so the
threads run in parallel (two threads scan 512^2 about 1.5x faster than
one). A thread's first u passes the bound at every column, as its best
mag2 starts at -1 and the bound is never negative. No thread scans in
ascending order, so a candidate is taken when mag2 > best, or when
mag2 == best and its flat grid index is smaller, both within a thread
and in the merge of the threads' bests. The winner is then the maximum
of a total order, whatever the order of the scan, and equals the
one-thread ascending scan's bit for bit. Each u gathers its surviving
columns of the best arrays into contiguous buffers once, runs its v loop
on them in place and scatters them back. Every array a thread
writes is made by the calling thread, sized for all columns, and the
thread writes into contiguous views of it through out= and in-place
transforms: when the threads made their own temporaries, glibc kept
about 27 MB of them resident in its per-thread arenas after a 512^2
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (GridSpec, PhaseMap, ScalarField, TWO_PI, _usable_cpus, next_fast_len,
                   wrap_phase)
from .errors import (BadFrequencyError, BadSpecError, EmptyBandError,
                     GridMismatchError, NoValidSeedError, NumericError)

WINDOW_TRUNCATION_SIGMAS = 4
# The scan's pruning test, (B_u + eps_x)^2 (1 + BOUND_SLACK) >= best mag2,
# with eps_x = FFT_ROUNDOFF * log2(ny) * sum(w) * (2-norm of the column
# pair): see the module docstring.
FFT_ROUNDOFF = 32 * 2.0 ** -24
BOUND_SLACK = 2.0 ** -16


@dataclass(frozen=True)
class DemodParams:
    """Ridge search parameters.

    band_x and band_y are inclusive frequency intervals in cycles/px,
    scanned with the given step; both, and each frequency_grid point,
    must sit inside the open Nyquist interval (-0.5, 0.5). window_sigma
    is the Gaussian window width in pixels. for_carrier builds the
    defaults for a given carrier frequency: band_x = fx +- 0.1,
    band_y = +-0.1, step 0.005, window_sigma 10.
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
        for name in ("band_x", "band_y"):
            # the grid's tolerance can land its last point past hi
            last = float(frequency_grid(getattr(self, name), self.step)[-1])
            if last >= 0.5:
                raise BadFrequencyError(f"{name} grid frequency {last!r} reaches Nyquist")
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
    return np.fft.fft(buf, axis=1).astype(np.complex64)


class _ChunkScan:
    """One thread's share of the scan: the u grid indices dealt to it.

    Every array scan writes is made here, in the calling thread, sized for
    all w columns; the thread that runs scan only writes into contiguous
    views of them, products and transforms through out=. scanned counts
    the (u, column) pairs the v loop ran on.
    """

    def __init__(self, shape: tuple[int, int], row_fft: np.ndarray,
                 row_kernels: np.ndarray, col_kernels: np.ndarray,
                 window_fft: np.ndarray, eps_per_norm: float):
        h, w = shape
        ny = col_kernels.shape[1]
        self.row_fft, self.row_kernels = row_fft, row_kernels
        self.col_kernels, self.window_fft = col_kernels, window_fft
        self.eps_per_norm = eps_per_norm
        self.scanned = 0
        self.best_mag2 = np.full(shape, -1.0, dtype=np.float32)
        self.best_resp = np.zeros(shape, dtype=np.complex64)
        self.best_idx = np.zeros(shape, dtype=np.int32)  # flat (u, v) grid index
        self.rows = np.empty((h, row_fft.shape[1]), dtype=np.complex64)
        # flat scratch, viewed as (rows, m) for the m columns a u scans
        self.cols = np.empty(ny * w, dtype=np.complex64)
        self.product = np.empty(ny * w, dtype=np.complex64)
        self.part = (np.empty(h * w, dtype=np.float32),
                     np.empty(h * w, dtype=np.complex64),
                     np.empty(h * w, dtype=np.int32))
        self.mag2 = np.empty(h * w, dtype=np.float32)
        self.square = np.empty(h * w, dtype=np.float32)
        self.take = np.empty(h * w, dtype=bool)
        self.tie = np.empty(h * w, dtype=bool)
        self.eps = np.empty(w + w % 2, dtype=np.float32)  # eps_x, per column
        self.reach = np.empty(w, dtype=bool)

    def scan(self, u_index: np.ndarray) -> None:
        """Scan the u grid indices u_index, in that order, against every v,
        each on the columns _reachable leaves."""
        h = self.best_mag2.shape[0]
        ny = self.col_kernels.shape[1]
        best = (self.best_mag2, self.best_resp, self.best_idx)
        for i in u_index:
            rows = np.multiply(self.row_fft, self.row_kernels[i], out=self.rows)
            rows = np.fft.ifft(rows, axis=1, out=rows)
            x = self._reachable(rows)
            m = len(x)
            if not m:
                continue
            self.scanned += m
            cols = _view(self.cols, (ny, m))
            # mode="clip" writes straight into out; "raise" buffers a copy
            np.take(rows, x, axis=1, out=cols[:h], mode="clip")
            cols[h:] = 0.0
            col_fft = np.fft.fft(cols, axis=0, norm="forward", out=cols)
            part = [np.take(b, x, axis=1, out=_view(p, (h, m)), mode="clip")
                    for b, p in zip(best, self.part)]
            product = _view(self.product, (ny, m))
            mag2, square = _view(self.mag2, (h, m)), _view(self.square, (h, m))
            for j, gy in enumerate(self.col_kernels):
                resp = np.fft.ifft(np.multiply(col_fft, gy, out=product),
                                   axis=0, out=product)[:h]
                # rounds as np.square(re) + np.square(im) does
                np.square(resp.real, out=mag2)
                mag2 += np.square(resp.imag, out=square)
                self.keep(part, mag2, resp, i * len(self.col_kernels) + j)
            for b, p in zip(best, part):
                b[:, x] = p

    def _reachable(self, rows: np.ndarray) -> np.ndarray:
        """Columns holding a pixel where (B + eps_x)^2 (1 + delta) reaches
        the running best mag2, B being the window-weighted column sum of
        |c_u| = |rows|, which bounds |R(u, v)| for every v."""
        h, w = self.best_mag2.shape
        ny = self.col_kernels.shape[1]
        # two columns per complex transform: the window is real, so the
        # real and imaginary parts convolve apart
        packed = _view(self.product, (ny, (w + 1) // 2))
        mags = packed.view(np.float32)
        np.abs(rows[:, :w], out=mags[:h, :w])
        mags[:h, w:] = 0.0
        mags[h:] = 0.0
        # eps_x scales with the 2-norm of the pair of columns transformed together
        eps = self.eps
        np.sum(np.square(mags[:h, :w], out=_view(self.square, (h, w))), axis=0,
               out=eps[:w])
        eps[w:] = 0.0
        pairs = eps.reshape(-1, 2)
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = pairs[:, 0]
        np.sqrt(eps, out=eps)
        eps *= self.eps_per_norm
        z = np.fft.fft(packed, axis=0, norm="forward", out=packed)
        z = np.fft.ifft(np.multiply(z, self.window_fft, out=z), axis=0, out=z)
        reach = _view(self.mag2, (h, w))
        np.add(z.view(np.float32)[:h, :w], eps[:w], out=reach)
        np.square(reach, out=reach)
        reach *= 1.0 + BOUND_SLACK
        take = _view(self.take, (h, w))
        np.greater_equal(reach, self.best_mag2, out=take)
        return np.flatnonzero(np.any(take, axis=0, out=self.reach))

    def keep(self, best: tuple[np.ndarray, np.ndarray, np.ndarray],
             mag2: np.ndarray, resp: np.ndarray, idx: int | np.ndarray) -> None:
        """Take mag2, resp and the flat grid index idx into the arrays
        best = (mag2, resp, idx) wherever mag2 beats the best, or equals it
        and idx is smaller."""
        best_mag2, best_resp, best_idx = best
        take, tie = _view(self.take, mag2.shape), _view(self.tie, mag2.shape)
        np.equal(mag2, best_mag2, out=tie)
        tie &= np.greater(best_idx, idx, out=take)
        np.greater(mag2, best_mag2, out=take)
        take |= tie
        np.copyto(best_mag2, mag2, where=take)
        np.copyto(best_resp, resp, where=take)
        np.copyto(best_idx, idx, where=take)


def _view(buf: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The leading elements of the flat buffer buf as a C-contiguous shape."""
    return buf[:shape[0] * shape[1]].reshape(shape)


def demodulate(img: ScalarField, params: DemodParams) -> RidgeResult:
    """Ridge scan over the frequency grid, with the winners of an
    exhaustive scan, as a RidgeResult.

    Per pixel, keeps the (u, v) grid point maximizing the response
    magnitude; ties resolve to the smallest u, then v, whatever the
    thread count. Masked pixels get phase 0; their ridge values are
    computed but carry no meaning. The module docstring gives the
    pruning bound, the thread split and why every buffer is made in the
    calling thread.

    Raises NumericError for an image large enough to overflow the
    single-precision scan. DemodParams already refuses a band whose grid
    reaches Nyquist.
    """
    us = frequency_grid(params.band_x, params.step)
    vs = frequency_grid(params.band_y, params.step)
    h, w = shape = img.grid.shape
    t, taps = _window_taps(params.window_sigma)
    # mag2 <= (max|img| (sum w)^2)^2 must stay finite in float32, 4x to spare
    peak = float(np.abs(img.values).max())
    if peak * float(taps.sum()) ** 2 >= math.sqrt(np.finfo(np.float32).max) / 2:
        raise NumericError(
            f"image magnitude {peak:.3g} overflows the single-precision ridge scan")
    r = len(t) // 2
    nx, ny = (next_fast_len(max(n + r, 2 * r + 1)) for n in (w, h))
    row_fft = np.fft.fft(img.values, n=nx, axis=1).astype(np.complex64)
    row_kernels = _kernel_ffts(t, taps, us, nx)
    # ny undoes the column transforms' norm="forward" (module docstring)
    col_kernels = _kernel_ffts(t, ny * taps, vs, ny)[:, :, None]
    window_fft = _kernel_ffts(t, ny * taps, np.zeros(1), ny)[0, :, None]
    eps_per_norm = FFT_ROUNDOFF * math.log2(ny) * float(taps.sum())
    k = min(len(us), _usable_cpus())
    order = np.argsort(np.abs(np.arange(len(us)) - (len(us) - 1) / 2), kind="stable")
    chunks = [_ChunkScan(shape, row_fft, row_kernels, col_kernels, window_fft,
                         eps_per_norm) for _ in range(k)]
    with ThreadPoolExecutor(max_workers=k) as pool:
        futures = [pool.submit(chunk.scan, order[c::k]) for c, chunk in enumerate(chunks)]
        for future in futures:
            future.result()
    best = chunks[0]
    for chunk in chunks[1:]:
        best.keep((best.best_mag2, best.best_resp, best.best_idx),
                  chunk.best_mag2, chunk.best_resp, chunk.best_idx)
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


def relative_phase(deformed: PhaseMap, reference: PhaseMap) -> PhaseMap:
    """Wrapped per-pixel difference deformed - reference in (-pi, pi].

    Because both phase maps carry the carrier identically, the difference
    is the wrapped deformation phase alone. Masks AND together and newly
    invalid pixels are zeroed.
    """
    d, r = deformed.field, reference.field
    if d.grid != r.grid:
        raise GridMismatchError("relative_phase needs matching grids")
    valid = d.valid() & r.valid()
    diff = np.where(valid, wrap_phase(d.values - r.values), 0.0)
    mask = None if (d.mask is None and r.mask is None) else valid
    return PhaseMap(ScalarField(d.grid, diff, mask), wrapped=True)


def _index_dtype(n: int) -> type:
    """The integer type of the forest's pixel ids, edge indices and
    offsets on an n-pixel grid: int32 while every one fits, which holds
    for n < 2^30 (at most 2n edges; offsets sum turns in {-1, 0, 1} along
    paths shorter than n), intp beyond."""
    return np.int32 if n < 2 ** 30 else np.intp


def _best_per_label(top: np.ndarray, best: np.ndarray, labels: tuple,
                    keys: np.ndarray, index: np.ndarray) -> None:
    """Fill best[label] with the index of the largest key among the
    entries of that label in any array of labels (the smallest index on
    ties), or the dtype's max where the label does not occur. Every
    array of labels is aligned with keys and index; top is scratch."""
    top.fill(-np.inf)
    for lab in labels:
        np.maximum.at(top, lab, keys)
    best.fill(np.iinfo(best.dtype).max)
    for lab in labels:
        at_top = keys == top[lab]
        np.minimum.at(best, lab[at_top], index[at_top])


def _forest_turns(vals: np.ndarray, q: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Integer 2 pi turns per pixel along the maximum-reliability forest.

    Each component has a root pixel, and each pixel its offset
    k(pixel) - k(root). A Boruvka round hooks every component onto the
    component across its best edge; pointer jumping then carries the
    offsets to the new roots. Each edge's turn is taken in the direction
    it was hooked, which agrees with the other direction unless the
    wrapped difference lies within rounding of +-pi. Finally each
    component is re-referenced to its best pixel, which gets k = 0.
    Indices and offsets take _index_dtype(n); the per-pixel buffers are
    made once and refilled every round.
    """
    h, w = vals.shape
    n = h * w
    idx = _index_dtype(n)
    none = np.iinfo(idx).max
    ids = np.arange(n, dtype=idx)
    grid = ids.reshape(h, w)
    across = valid[:, :-1] & valid[:, 1:]
    down = valid[:-1] & valid[1:]
    a = np.concatenate((grid[:, :-1][across], grid[:-1][down]))
    b = np.concatenate((grid[:, 1:][across], grid[1:][down]))
    qf, vf = q.ravel(), vals.ravel()
    rel = qf[a] + qf[b]
    root = ids.copy()
    off = np.zeros(n, dtype=idx)
    live = np.arange(a.size, dtype=idx)
    parent = np.empty(n, dtype=idx)
    hook = np.empty(n, dtype=idx)  # k(comp root) - k(parent root)
    top = np.empty(n)
    best = np.empty(n, dtype=idx)
    while True:
        live = live[root[a[live]] != root[b[live]]]
        if not live.size:
            break
        _best_per_label(top, best, (root[a[live]], root[b[live]]), rel[live], live)
        comps = np.flatnonzero(best != none)
        e = best[comps]
        from_a = root[a[e]] == comps
        inner = np.where(from_a, a[e], b[e])
        outer = np.where(from_a, b[e], a[e])
        parent[:] = ids
        parent[comps] = root[outer]
        # the hooked edge's turn k(inner) - k(outer): wrap(d) = d - 2 pi m
        # with m = ceil((d - pi) / 2 pi), the (-pi, pi] representative
        turn = -np.ceil((vf[inner] - vf[outer] - math.pi) / TWO_PI).astype(idx)
        hook.fill(0)
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
    pix = ids[valid.ravel()]
    _best_per_label(top, best, (root[pix],), qf[pix], pix)
    k = np.zeros(n, dtype=idx)
    k[pix] = off[pix] - off[best[root[pix]]]
    return k.reshape(h, w)


def unwrap(p: PhaseMap, quality: ScalarField | np.ndarray | None = None) -> PhaseMap:
    """Unwrap a wrapped phase map along its maximum-reliability forest.

    quality defaults to uniform (edges then rank by index alone); pass
    the ridge amplitude for noise-robust paths. Edges rank by descending
    q(a) + q(b), ties by edge index, and each connected region keeps its
    input value at its best pixel (first in row-major order on quality
    ties). Masked pixels are left untouched. Deterministic. Raises
    NumericError when quality is not finite at a valid pixel.

    Pixel ids, edge indices and turn offsets are int32 below 2^30
    pixels (intp beyond). The forest's allocation peak is then about
    128 bytes per pixel, 33 MB at 512^2 (tracemalloc), on top of the
    input, the quality map and the output.
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
