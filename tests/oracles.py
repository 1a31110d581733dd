"""Independent brute-force references shared by the unit and acceptance tests.

Everything here is deliberately slow and literal: direct spatial sums
with no FFTs, a pixel-by-pixel flood-fill unwrap and a cell-by-cell
marching squares, so agreement with the production code is meaningful.
Three FFT references keep earlier production code as it ran: the
windowed-Fourier ridge scan before it moved to single precision and a
shorter padding (a double-precision scan padded by the full window width
on both sides), the single-precision scan before its u grid was split
across threads (one loop over u, then v, in the calling thread, on the
transforms the threaded scan runs), and the wavelet sweep before each
plane got a pad sized to its own hat reach and a 5-smooth length
(every plane on one grid edge-padded by 2 * max(scales), inverted by
irfft2, then normalized and thresholded over its valid pixels by
normalize_plane and threshold_plane).
wide_pad_plane is the reference for the edges of the planes whose hat
reaches past their padding: a grid so wide that no kept pixel's hat
wraps. full_spectrum_plane is the plane as it was made before it
multiplied and inverted only the band its hat does not zero: the whole
half spectrum times the whole multiplier, and full_spectrum_sweep is
the sweep on the same padded grids with every plane made that way.
int64_forest_turns is the reliability-forest unwrap as it ran with
64-bit indices and per-round copies, the byte-for-byte reference for
the forest that replaced it.
mexican_hat and mexican_hat_spectrum are the closed forms of the hat and
its transform that the cwt module docstring states, which the spatial
sums here and the kernel-identity tests evaluate.
"""

import heapq
import math
from collections import Counter, defaultdict

import numpy as np

from fringescale import (AllMaskedError, PhaseMap, RidgeResult, ScalarField,
                         masked_extrema, wrap_phase)
from fringescale.contours import contour_levels
from fringescale.cwt import HAT_REACH, CwtSweep, _axis_dfts, _axis_samples, finish_plane
from fringescale.core import TWO_PI, next_fast_len
from fringescale.wft import WINDOW_TRUNCATION_SIGMAS, frequency_grid


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


def periodized_kernel(n_rows, n_cols, alpha, copies=None):
    """Circular convolution kernel K(d) = sum_m (1/a) psi((d + N m) / a).

    The spatial sum wraps displacements around the grid, so the wavelet
    is replicated over the displacement lattice until its 4.5-sigma
    footprint (the hat is negligible beyond ~9 alpha total width) is
    covered.
    """
    if copies is None:
        copies = int(np.ceil(9.0 * alpha / min(n_rows, n_cols)))
    dy = np.arange(n_rows, dtype=np.float64)
    dx = np.arange(n_cols, dtype=np.float64)
    dy = np.where(dy > n_rows / 2, dy - n_rows, dy)
    dx = np.where(dx > n_cols / 2, dx - n_cols, dx)
    k = np.zeros((n_rows, n_cols))
    for my in range(-copies, copies + 1):
        for mx in range(-copies, copies + 1):
            k += mexican_hat((dx[None, :] + mx * n_cols) / alpha,
                             (dy[:, None] + my * n_rows) / alpha)
    return k / alpha


def brute_cwt_plane(phi, alpha):
    """Literal periodic spatial sum W(p) = sum_d phi(p + d) K(d)."""
    h, w = phi.shape
    k = periodized_kernel(h, w, alpha)
    out = np.zeros_like(phi)
    for dy in range(h):
        for dx in range(w):
            kv = k[dy, dx]
            if kv != 0.0:
                out += kv * np.roll(phi, shift=(-dy, -dx), axis=(0, 1))
    return out


def flood_fill_unwrap(vals, quality, valid):
    """Quality-guided flood-fill unwrap; returns the unwrapped values.

    Starting from the highest-quality valid pixel (first in row-major
    order on ties), the frontier pixel of highest quality is integrated
    next, from the neighbor that pushed it, as vals + 2 pi k with the
    integer turn count k(child) = k(parent) - ceil((d - pi) / 2 pi),
    d = vals(child) - vals(parent). Disconnected regions restart at their
    own best pixel. Heap ties break on (row, col) of the pixel, then of
    its parent.
    """
    h, w = vals.shape
    pi = math.pi
    vrow = vals.tolist()
    qrow = np.asarray(quality, dtype=np.float64).tolist()
    krow = [[0] * w for _ in range(h)]
    done = (~valid).tolist()
    seed_q = np.where(valid, quality, -np.inf)
    heap = []
    n_left = int(valid.sum())
    while n_left:
        sy, sx = divmod(int(np.argmax(seed_q)), w)
        done[sy][sx] = True
        seed_q[sy, sx] = -np.inf
        n_left -= 1
        stack = [(sy, sx)]
        while stack or heap:
            if stack:
                cy, cx = stack.pop()
            else:
                _, cy, cx, py, px = heapq.heappop(heap)
                if done[cy][cx]:
                    continue
                d = vrow[cy][cx] - vrow[py][px]
                krow[cy][cx] = krow[py][px] - math.ceil((d - pi) / TWO_PI)
                done[cy][cx] = True
                seed_q[cy, cx] = -np.inf
                n_left -= 1
            for ny, nx in ((cy - 1, cx), (cy + 1, cx), (cy, cx - 1), (cy, cx + 1)):
                if 0 <= ny < h and 0 <= nx < w and not done[ny][nx]:
                    heapq.heappush(heap, (-qrow[ny][nx], ny, nx, cy, cx))
    out = vals + TWO_PI * np.array(krow, dtype=np.float64)
    return np.where(valid, out, vals)


# The forest unwrap as it ran before its index arrays moved to 32 bits
# and its Boruvka rounds stopped tiling keys and reallocating buffers:
# int64 ids, one _best_per_label pass over the concatenated labels of
# both edge ends, fresh parent and hook arrays in every round.
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


def int64_forest_turns(vals: np.ndarray, q: np.ndarray, valid: np.ndarray) -> np.ndarray:
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


def _interp(c0, c1, level):
    return (level - c0) / (c1 - c0)


def cell_segments(vals, level, r, c):
    """Marching-squares segments of the one cell with top-left pixel (r, c).

    A corner is inside when value >= level; the saddle codes 5 and 10 take
    the pairing the cell-center mean picks; zero-length segments are
    dropped.
    """
    a = vals[r, c]        # top-left
    b = vals[r, c + 1]    # top-right
    d = vals[r + 1, c + 1]  # bottom-right
    e = vals[r + 1, c]    # bottom-left
    code = (a >= level) | ((b >= level) << 1) | ((d >= level) << 2) | ((e >= level) << 3)
    if code in (0, 15):
        return []

    def top():
        return (c + _interp(a, b, level), float(r))

    def bottom():
        return (c + _interp(e, d, level), float(r + 1))

    def left():
        return (float(c), r + _interp(a, e, level))

    def right():
        return (float(c + 1), r + _interp(b, d, level))

    table = {
        1: [(top, left)],
        2: [(top, right)],
        3: [(left, right)],
        4: [(right, bottom)],
        6: [(top, bottom)],
        7: [(left, bottom)],
        8: [(left, bottom)],
        9: [(top, bottom)],
        11: [(right, bottom)],
        12: [(left, right)],
        13: [(top, right)],
        14: [(top, left)],
    }
    if code == 5:  # top-left and bottom-right inside
        center_inside = (a + b + d + e) / 4.0 >= level
        pairs = [(top, right), (bottom, left)] if center_inside \
            else [(top, left), (right, bottom)]
    elif code == 10:  # top-right and bottom-left inside
        center_inside = (a + b + d + e) / 4.0 >= level
        pairs = [(top, left), (right, bottom)] if center_inside \
            else [(top, right), (bottom, left)]
    else:
        pairs = table[code]
    out = []
    for p0f, p1f in pairs:
        p0, p1 = p0f(), p1f()
        if p0 != p1:
            out.append((p0, p1))
    return out


def chain(segments):
    """Join segments sharing endpoints into polylines, open chains first."""
    adj = defaultdict(list)
    remaining = Counter()
    for p0, p1 in segments:
        adj[p0].append(p1)
        adj[p1].append(p0)
        remaining[frozenset((p0, p1))] += 1

    def walk(start):
        line = [start]
        cur = start
        while True:
            nxt = None
            for cand in adj[cur]:
                edge = frozenset((cur, cand))
                if remaining[edge]:
                    remaining[edge] -= 1
                    nxt = cand
                    break
            if nxt is None:
                return line
            line.append(nxt)
            cur = nxt

    def has_unused(p):
        return any(remaining[frozenset((p, n))] for n in adj[p])

    polylines = []
    for p in sorted(adj):  # open trails anchor at odd-degree points
        if len(adj[p]) % 2 == 1:
            while has_unused(p):
                line = walk(p)
                if len(line) > 1:
                    polylines.append(line)
    for p in sorted(adj):  # whatever is left forms closed loops
        while has_unused(p):
            line = walk(p)
            if len(line) > 1:
                polylines.append(line)
    return polylines


def cell_marching_squares(field, level):
    """Marching squares one cell at a time, in row-major cell order."""
    vals = field.values
    valid = field.valid()
    segments = []
    for r in range(vals.shape[0] - 1):
        for c in range(vals.shape[1] - 1):
            if valid[r:r + 2, c:c + 2].all():
                segments.extend(cell_segments(vals, level, r, c))
    return chain(segments)


def contour_csv_text(field, levels):
    """Contour CSV text built one f-string row at a time from the
    cell-by-cell marching squares."""
    try:
        lo, hi = masked_extrema(field)
    except AllMaskedError:
        lo = hi = 0.0
    rows = ["level,segment,x,y"]
    seg = 0
    for level in contour_levels(lo, hi, levels):
        for line in cell_marching_squares(field, level):
            for x, y in line:
                rows.append(f"{level:.17g},{seg},{x:.17g},{y:.17g}")
            seg += 1
    return "\n".join(rows) + "\n"


def _window_taps(sigma):
    r = int(np.ceil(WINDOW_TRUNCATION_SIGMAS * sigma))
    t = np.arange(-r, r + 1, dtype=np.float64)
    return t, np.exp(-t * t / (2.0 * sigma * sigma))


def _kernel_fft(t, w, freq, n):
    """FFT of the complex window tap vector laid out circularly in n bins."""
    buf = np.zeros(n, dtype=np.complex128)
    buf[t.astype(int) % n] = w * np.exp(2j * np.pi * freq * t)
    return np.fft.fft(buf)


class _SeparableScan:
    """Double-precision row-then-column convolutions, each axis padded to
    next_fast_len(n + 2r) with r = ceil(4 sigma)."""

    def __init__(self, values, sigma):
        self.h, self.w = values.shape
        self.t, self.w1d = _window_taps(sigma)
        r = len(self.t) // 2
        self.nx = next_fast_len(self.w + 2 * r)
        self.ny = next_fast_len(self.h + 2 * r)
        self.row_fft = np.fft.fft(values, n=self.nx, axis=1)

    def rows(self, u):
        """Row-convolved image for probe frequency u, padded along columns."""
        gx = _kernel_fft(self.t, self.w1d, u, self.nx)
        rows = np.fft.ifft(self.row_fft * gx[None, :], axis=1)[:, :self.w]
        buf = np.zeros((self.ny, self.w), dtype=np.complex128)
        buf[:self.h] = rows
        return np.fft.fft(buf, axis=0)

    def column_kernel(self, v):
        """FFT of the column window for probe frequency v."""
        return _kernel_fft(self.t, self.w1d, v, self.ny)

    def response(self, col_fft, gy):
        # the product is a fresh temporary, so the inverse FFT may reuse it
        product = col_fft * gy[:, None]
        return np.fft.ifft(product, axis=0, out=product)[:self.h]


def windowed_response(img, u, v, sigma):
    """Complex windowed response at every pixel for one probe frequency,
    in double precision."""
    scan = _SeparableScan(img.values, sigma)
    return scan.response(scan.rows(u), scan.column_kernel(v))


def float64_demodulate(img, params):
    """Exhaustive double-precision ridge scan; the reference for
    wft.demodulate, with the same tie rule (ascending u, then v, strict
    improvement)."""
    us = frequency_grid(params.band_x, params.step)
    vs = frequency_grid(params.band_y, params.step)
    scan = _SeparableScan(img.values, params.window_sigma)
    col_kernels = [scan.column_kernel(v) for v in vs]
    shape = img.grid.shape
    best_mag2 = np.full(shape, -1.0)
    best_resp = np.zeros(shape, dtype=np.complex128)
    best_idx = np.zeros(shape, dtype=np.int32)  # flat (u, v) grid index
    for i, u in enumerate(us):
        col_fft = scan.rows(u)
        for j, gy in enumerate(col_kernels):
            resp = scan.response(col_fft, gy)
            mag2 = resp.real * resp.real + resp.imag * resp.imag
            better = mag2 > best_mag2
            np.copyto(best_mag2, mag2, where=better)
            np.copyto(best_resp, resp, where=better)
            np.copyto(best_idx, i * len(vs) + j, where=better)
    best_u, best_v = np.divmod(best_idx, len(vs))
    valid = img.valid()
    phase_vals = np.where(valid, wrap_phase(np.angle(best_resp)), 0.0)
    return RidgeResult(
        phase=PhaseMap(ScalarField(img.grid, phase_vals, img.mask), wrapped=True),
        freq_x=ScalarField(img.grid, us[best_u]),
        freq_y=ScalarField(img.grid, vs[best_v]),
        ridge_amplitude=ScalarField(img.grid, np.sqrt(best_mag2)),
    )


def _single_kernel_ffts(t, w, freqs, n):
    """FFTs of the complex window tap vectors, one row per frequency, laid
    out circularly in n bins; built in float64, then cast to complex64."""
    buf = np.zeros((len(freqs), n), dtype=np.complex128)
    buf[:, t.astype(int) % n] = w * np.exp(2j * np.pi * np.outer(freqs, t))
    return np.fft.fft(buf, axis=1).astype(np.complex64)


def sequential_demodulate(img, params):
    """The single-precision ridge scan in one thread, with nothing
    skipped: every (u, v) over every column, ascending u, then v, strict
    improvement, so a tie keeps the smallest flat grid index.
    wft.demodulate skips the columns its bound rules out, deals the u
    grid across threads from the band centre outwards and breaks ties by
    the flat index; it must equal this scan bit for bit. Both run the
    same transforms: column spectra by fft with norm="forward", and
    column kernels scaled by ny (see the wft module docstring)."""
    us = frequency_grid(params.band_x, params.step)
    vs = frequency_grid(params.band_y, params.step)
    h, w = shape = img.grid.shape
    t, taps = _window_taps(params.window_sigma)
    r = len(t) // 2
    nx, ny = (next_fast_len(max(n + r, 2 * r + 1)) for n in (w, h))
    row_fft = np.fft.fft(img.values, n=nx, axis=1).astype(np.complex64)
    col_kernels = _single_kernel_ffts(t, ny * taps, vs, ny)[:, :, None]
    best_mag2 = np.full(shape, -1.0, dtype=np.float32)
    best_resp = np.zeros(shape, dtype=np.complex64)
    best_idx = np.zeros(shape, dtype=np.int32)  # flat (u, v) grid index
    for i, gx in enumerate(_single_kernel_ffts(t, taps, us, nx)):
        rows = np.fft.ifft(row_fft * gx, axis=1)[:, :w]
        col_fft = np.fft.fft(rows, n=ny, axis=0, norm="forward")
        for j, gy in enumerate(col_kernels):
            resp = np.fft.ifft(col_fft * gy, axis=0)[:h]
            mag2 = np.square(resp.real) + np.square(resp.imag)
            better = mag2 > best_mag2
            np.copyto(best_mag2, mag2, where=better)
            np.copyto(best_resp, resp, where=better)
            np.copyto(best_idx, i * len(vs) + j, where=better)
    best_u, best_v = np.divmod(best_idx, len(vs))
    valid = img.valid()
    phase_vals = np.where(
        valid, wrap_phase(np.angle(best_resp.astype(np.complex128))), 0.0)
    return RidgeResult(
        phase=PhaseMap(ScalarField(img.grid, phase_vals, img.mask), wrapped=True),
        freq_x=ScalarField(img.grid, us[best_u]),
        freq_y=ScalarField(img.grid, vs[best_v]),
        ridge_amplitude=ScalarField(img.grid,
                                    np.sqrt(best_mag2.astype(np.float64))),
    )


def _hat_axis_dfts(n, alpha, half):
    """DFTs (G, H) of the periodized samples of g(d/alpha) and
    (d/alpha)^2 g(d/alpha) on an axis of n pixels."""
    copies = int(np.ceil(HAT_REACH * alpha / n))
    d = np.arange(n, dtype=np.float64)
    d = np.where(d > n / 2, d - n, d)
    t = (d[None, :] + n * np.arange(-copies, copies + 1)[:, None]) / alpha
    g = np.exp(-0.5 * t * t)
    g, h = g.sum(axis=0), (t * t * g).sum(axis=0)
    fft = np.fft.rfft if half else np.fft.fft
    return fft(g).real, fft(h).real


def _plane_peak(values, valid):
    return float(np.abs(values[valid]).max()) if valid.any() else 0.0


def normalize_plane(values, valid):
    """Divide a plane in place by its peak magnitude over valid pixels.

    Returns the divisor. An identically zero plane is left unchanged and
    its divisor is 1.0, so a plane with any signal ends up with peak
    magnitude exactly 1.
    """
    m = _plane_peak(values, valid)
    if m > 0.0:
        values /= m
        return m
    return 1.0


def threshold_plane(values, valid, fraction):
    """Zero plane values in place whose magnitude is strictly below
    fraction * max|v| over valid pixels, keeping the boundary value
    itself. fraction 0 leaves the plane as it is.
    """
    if not (0.0 <= fraction < 1.0):
        raise ValueError(f"threshold fraction must lie in [0, 1), got {fraction}")
    if fraction == 0.0 or not valid.any():
        return
    cut = fraction * _plane_peak(values, valid)
    np.copyto(values, 0.0, where=np.abs(values) < cut)


def uniform_pad_sweep(field, params):
    """The wavelet sweep on one grid for every plane: (alpha, plane,
    divisor) per scale, with the input edge-padded by ceil(2 * max(scales))
    pixels when params.pad is on, each plane from irfft2 and cropped,
    masked, normalized and thresholded over its valid pixels."""
    padw = int(np.ceil(2.0 * max(params.scales))) if params.pad else 0
    arr = np.pad(field.values, padw, mode="edge") if padw else field.values
    spectrum = np.fft.rfft2(arr)
    valid = field.valid()
    h, w = field.grid.shape
    for alpha in params.scales:
        gy, hy = _hat_axis_dfts(arr.shape[0], alpha, half=False)
        gx, hx = _hat_axis_dfts(arr.shape[1], alpha, half=True)
        mult = (gy[:, None] * (2.0 * gx - hx)[None, :]
                - hy[:, None] * gx[None, :]) / alpha
        out = np.fft.irfft2(spectrum * mult, s=arr.shape)
        out = out[padw:padw + h, padw:padw + w]
        if field.mask is not None:
            out = np.where(field.mask, out, 0.0)
        divisor = normalize_plane(out, valid) if params.normalize else 1.0
        threshold_plane(out, valid, params.threshold_fraction)
        yield alpha, ScalarField(field.grid, out, field.mask), divisor


def wide_pad_plane(field, alpha):
    """The plane at scale alpha on a grid edge-padded by ceil(HAT_REACH *
    alpha) pixels on every side, so that no kept pixel's hat reaches
    past the padding and wraps: from irfft2, cropped and masked, neither
    normalized nor thresholded. The reference for the edge values of the
    planes whose padding is narrower than their hat reach."""
    padw = int(np.ceil(HAT_REACH * alpha))
    arr = np.pad(field.values, padw, mode="edge")
    gy, hy = _hat_axis_dfts(arr.shape[0], alpha, half=False)
    gx, hx = _hat_axis_dfts(arr.shape[1], alpha, half=True)
    mult = (gy[:, None] * (2.0 * gx - hx)[None, :]
            - hy[:, None] * gx[None, :]) / alpha
    out = np.fft.irfft2(np.fft.rfft2(arr) * mult, s=arr.shape)
    h, w = field.grid.shape
    return np.where(field.valid(), out[padw:padw + h, padw:padw + w], 0.0)


def edge_band_errors(values, ref, alpha, valid):
    """Max and RMS of |values - ref| over the valid pixels within 3 alpha
    of the edge of the grid, where a plane's edge values feel the wrap."""
    h, w = ref.shape
    i, j = np.ogrid[:h, :w]
    depth = np.minimum(np.minimum(i, h - 1 - i), np.minimum(j, w - 1 - j))
    err = np.abs(values - ref)[valid & (depth < 3.0 * alpha)]
    return float(err.max()), float(np.sqrt(np.mean(err * err)))


def full_spectrum_plane(spectrum, shape, alpha, rows, cols):
    """Plane at scale alpha from rfft2 of the (padded) input of shape,
    cropped to rows and cols: the whole half spectrum times the whole
    multiplier, a complex ifft down every column and a real irfft along
    the rows kept, which equals irfft2 then crop bit for bit."""
    gy, hy = _axis_dfts(_axis_samples(shape[0], alpha), half=False)
    gx, hx = _axis_dfts(_axis_samples(shape[1], alpha), half=True)
    product = spectrum * ((gy[:, None] * (2.0 * gx - hx)[None, :]
                           - hy[:, None] * gx[None, :]) / alpha)
    product = np.fft.ifft(product, axis=0, out=product)[rows]
    return np.fft.irfft(product, n=shape[1], axis=1)[:, cols]


def full_spectrum_sweep(field, params):
    """The sweep on the padded grids CwtSweep picks, with every plane from
    full_spectrum_plane, then masked and finished by finish_plane:
    (alpha, plane values, divisor) per scale."""
    grid_of = CwtSweep(field, params)._grid
    (h, w), valid = field.grid.shape, field.valid()
    for alpha in params.scales:
        shape, (top, left) = grid_of(alpha)
        spectrum = np.fft.rfft2(np.pad(
            field.values, ((top, shape[0] - h - top), (left, shape[1] - w - left)),
            mode="edge"))
        out = np.where(valid, full_spectrum_plane(
            spectrum, shape, alpha, slice(top, top + h), slice(left, left + w)), 0.0)
        divisor = finish_plane(out, params.normalize, params.threshold_fraction)
        yield alpha, out, divisor
