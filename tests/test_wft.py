import functools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fringescale import (
    BadFrequencyError,
    BadSpecError,
    CarrierSpec,
    DemodParams,
    EmptyBandError,
    GridSpec,
    NoValidSeedError,
    NumericError,
    PhantomSpec,
    PhaseMap,
    ScalarField,
    anchor_far_field,
    demodulate,
    field_from_array,
    interior_mask,
    make_fringes,
    make_phase,
    relative_phase,
    unwrap,
    wrap_phase,
)
from fringescale import wft
from fringescale.core import TWO_PI, next_fast_len
from fringescale.synth import NoiseSpec
from fringescale.wft import frequency_grid
from oracles import (float64_demodulate, flood_fill_unwrap, int64_forest_turns,
                     sequential_demodulate, windowed_response)


def brute_response(img, u, v, sigma, x1, y1):
    """Literal windowed sum centered at (x1, y1); the FFT-path oracle."""
    h, w = img.shape
    r = int(math.ceil(4 * sigma))
    acc = 0.0 + 0.0j
    for sy in range(-r, r + 1):
        for sx in range(-r, r + 1):
            x, y = x1 + sx, y1 + sy
            if 0 <= x < w and 0 <= y < h:
                acc += (img[y, x]
                        * math.exp(-(sx * sx + sy * sy) / (2.0 * sigma * sigma))
                        * np.exp(-2j * math.pi * (u * sx + v * sy)))
    return acc


class TestWindowedResponse:
    """The double-precision single-probe oracle against literal sums; the
    production scan is held to this oracle by TestDemodulateMatchesOracle."""

    @pytest.mark.parametrize("x1,y1", [(0, 0), (3, 5), (32, 32), (63, 63),
                                       (0, 40), (63, 2)])
    def test_matches_brute_force(self, rng, x1, y1):
        img = rng.normal(size=(64, 64))
        f = field_from_array(img)
        u, v, sigma = 0.11, -0.04, 2.0
        resp = windowed_response(f, u, v, sigma)
        want = brute_response(img, u, v, sigma, x1, y1)
        assert resp[y1, x1] == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_constant_image_gives_window_mass(self):
        f = field_from_array(np.full((64, 64), 3.0))
        sigma = 2.5
        resp = windowed_response(f, 0.0, 0.0, sigma)
        r = int(math.ceil(4 * sigma))
        t = np.arange(-r, r + 1)
        w1d = np.exp(-t * t / (2 * sigma * sigma))
        # interior pixel sees the full separable window mass
        want = 3.0 * w1d.sum() ** 2
        assert resp[32, 32].real == pytest.approx(want, rel=1e-12)
        assert resp[32, 32].imag == pytest.approx(0.0, abs=1e-9)
        # corner pixel sees only the in-image quadrant
        want_corner = 3.0 * w1d[r:].sum() ** 2
        assert resp[0, 0].real == pytest.approx(want_corner, rel=1e-12)

    def test_pure_tone_phase_readout(self):
        h = w = 64
        x = np.arange(w)[None, :].astype(float)
        phi0 = 1.2
        f = field_from_array(np.broadcast_to(
            np.cos(2 * np.pi * 0.125 * x + phi0), (h, w)).copy())
        resp = windowed_response(f, 0.125, 0.0, 6.0)
        x1 = 30
        want = wrap_phase(2 * np.pi * 0.125 * x1 + phi0)
        # truncating the window at 4 sigma leaves ~1e-5 sidelobes that let a
        # sliver of the conjugate tone through; that bounds the readout
        assert np.angle(resp[20, x1]) == pytest.approx(want, abs=1e-4)


class TestFrequencyGrid:
    def test_inclusive_endpoints(self):
        g = frequency_grid((0.025, 0.225), 0.005)
        assert len(g) == 41
        assert g[0] == pytest.approx(0.025)
        assert g[-1] == pytest.approx(0.225)

    def test_default_band_is_41x41(self):
        p = DemodParams.for_carrier(0.125)
        assert len(frequency_grid(p.band_x, p.step)) == 41
        assert len(frequency_grid(p.band_y, p.step)) == 41

    def test_step_not_dividing_span(self):
        g = frequency_grid((0.0, 0.1), 0.03)
        np.testing.assert_allclose(g, [0.0, 0.03, 0.06, 0.09])

    def test_empty_band(self):
        with pytest.raises(EmptyBandError):
            frequency_grid((0.2, 0.1), 0.05)


class TestDemodParams:
    def test_for_carrier_band(self):
        p = DemodParams.for_carrier(0.125)
        assert p.band_x == pytest.approx((0.025, 0.225))
        assert p.band_y == pytest.approx((-0.1, 0.1))
        assert p.step == 0.005
        assert p.window_sigma == 10.0

    def test_band_outside_nyquist(self):
        with pytest.raises(BadFrequencyError):
            DemodParams(band_x=(0.3, 0.6))

    def test_band_grid_reaching_nyquist(self):
        # hi sits inside Nyquist, but the grid's tolerance lands its last
        # point, 0.3 + 2 * 0.1, on 0.5
        with pytest.raises(BadFrequencyError, match="reaches Nyquist"):
            DemodParams(band_x=(0.3, 0.499999999999), step=0.1)
        with pytest.raises(BadFrequencyError, match="band_y"):
            DemodParams(band_x=(0.1, 0.3), band_y=(0.3, 0.499999999999), step=0.1)

    def test_band_reversed(self):
        with pytest.raises(BadSpecError):
            DemodParams(band_x=(0.2, 0.1))

    def test_bad_step(self):
        with pytest.raises(BadSpecError):
            DemodParams(band_x=(0.1, 0.2), step=0.0)

    def test_bad_sigma(self):
        with pytest.raises(BadSpecError):
            DemodParams(band_x=(0.1, 0.2), window_sigma=-1.0)


SMALL_PARAMS = DemodParams(band_x=(0.05, 0.2), band_y=(-0.05, 0.05),
                           step=0.0125, window_sigma=5.0)


class TestDemodulate:
    def test_pure_carrier_ridge_and_phase(self):
        grid = GridSpec(64, 64)
        phase = make_phase(grid, PhantomSpec(kind="constant", peak=0.0))
        pair = make_fringes(phase, CarrierSpec(fx=0.125))
        rr = demodulate(pair.reference, SMALL_PARAMS)
        interior = interior_mask(grid, 15)
        assert (rr.freq_x.values[interior] == 0.125).all()
        assert (rr.freq_y.values[interior] == 0.0).all()
        x = np.arange(64)[None, :]
        want = wrap_phase(2 * np.pi * 0.125 * np.broadcast_to(x, (64, 64)))
        err = wrap_phase(rr.phase.field.values - want)
        assert np.abs(err[interior]).max() < 5e-3

    def test_zero_image_tiebreak_smallest_uv(self):
        f = field_from_array(np.zeros((32, 32)))
        rr = demodulate(f, SMALL_PARAMS)
        # every probe responds 0; the scan keeps the first (smallest) u, v
        assert (rr.freq_x.values == 0.05).all()
        assert (rr.freq_y.values == -0.05).all()
        assert (rr.ridge_amplitude.values == 0.0).all()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_zero_image_tiebreak_across_threads(self, scan_workers, workers):
        scan_workers(workers)
        self.test_zero_image_tiebreak_smallest_uv()

    def test_band_touching_nyquist_rejected(self):
        f = field_from_array(np.zeros((32, 32)))
        params = DemodParams(band_x=(0.4, 0.49999), band_y=(-0.1, 0.1),
                             step=0.025, window_sigma=3.0)
        rr = demodulate(f, params)  # inside Nyquist: fine
        assert rr.phase.wrapped

    def test_mask_propagates(self):
        vals = np.ones((32, 32))
        mask = np.ones((32, 32), dtype=bool)
        mask[:4] = False
        vals[:4] = 0.0
        rr = demodulate(field_from_array(vals, mask), SMALL_PARAMS)
        assert (rr.phase.field.values[:4] == 0.0).all()
        assert np.array_equal(rr.phase.field.mask, mask)


def rib_step_pair(n, noise):
    """The README quick-start rib step, scaled to an n x n grid."""
    s = n / 512
    truth = make_phase(GridSpec(n, n), PhantomSpec(
        kind="rib_step", peak=6.0, widths=(60 * s, 60 * s),
        rib_rect=(int(64 * s), int(384 * s), int(128 * s), int(96 * s))))
    return truth, make_fringes(truth, CarrierSpec(fx=0.125),
                               NoiseSpec(sigma=noise, seed=12345))


class TestDemodulateMatchesOracle:
    """The single-precision scan on its shorter padding against the
    double-precision, fully padded scan in tests/oracles.py.

    Measured, with no winner moved anywhere: on both images of the 96^2
    rib step at noise 0.02 and 0.1 (both hold residues), phase gaps up
    to 4.2e-7 rad and amplitude gaps up to 5.7e-7 relative; on the 8x8
    and 30x50 grids up to 2.0e-7 rad and 2.1e-7 relative.
    """

    def compare(self, img, params):
        """Moved winners at valid pixels; the phase and amplitude gaps
        where the winner is the same."""
        got = demodulate(img, params)
        want = float64_demodulate(img, params)
        valid = img.valid()
        same = ((got.freq_x.values == want.freq_x.values)
                & (got.freq_y.values == want.freq_y.values) & valid)
        moved = int((valid & ~same).sum())
        phase_gap = np.abs(wrap_phase(got.phase.field.values
                                      - want.phase.field.values))[same]
        amp = want.ridge_amplitude.values[same]
        amp_gap = np.abs(got.ridge_amplitude.values[same] - amp) / amp
        print(f"{img.grid.width}x{img.grid.height}: {moved} of {int(valid.sum())} "
              f"winners moved; phase gap {phase_gap.max():.2g} rad, amplitude "
              f"gap {amp_gap.max():.2g} relative")
        assert moved <= 1e-4 * valid.sum()
        assert phase_gap.max() <= 1e-6
        assert amp_gap.max() <= 1e-5
        for field in (got.phase.field.values, got.ridge_amplitude.values):
            assert field.dtype == np.float64
        return got, want

    @pytest.mark.parametrize("noise", [0.02, 0.1])
    def test_rib_step_pair_unwraps_the_same(self, noise):
        truth, pair = rib_step_pair(96, noise)
        params = DemodParams.for_carrier(0.125)
        unwrapped = []
        for dfm, ref in zip(self.compare(pair.deformed, params),
                            self.compare(pair.reference, params)):
            wrapped = relative_phase(dfm.phase, ref.phase)
            unwrapped.append(unwrap(wrapped, quality=dfm.ridge_amplitude))
        turns = np.round((unwrapped[0].field.values
                          - unwrapped[1].field.values) / TWO_PI)
        core = interior_mask(truth.grid, 30) & pair.deformed.valid()
        assert not turns[core].any()

    @pytest.mark.parametrize("width,height", [(8, 8), (30, 50)])
    def test_grids_narrower_than_the_window(self, width, height):
        # r = 40 at sigma 10: 8 < r + 1 on both axes, 30 on one, so the
        # padded length there is set by the 2r + 1 taps, not by n + r
        grid = GridSpec(width, height)
        truth = make_phase(grid, PhantomSpec(kind="gaussian_plume", peak=2.0,
                                             widths=(20.0, 20.0)))
        pair = make_fringes(truth, CarrierSpec(fx=0.125),
                            NoiseSpec(sigma=0.05, seed=7))
        self.compare(pair.deformed, DemodParams.for_carrier(0.125))


def masked_tone(n):
    """A tilted 0.125 cycles/px tone with a masked rectangle holding 0."""
    y, x = np.mgrid[0:n, 0:n]
    vals = 1.0 + np.cos(2 * np.pi * (0.125 * x + 0.03 * y))
    mask = np.ones((n, n), dtype=bool)
    mask[n // 4:n // 2, n // 3:2 * n // 3] = False
    return field_from_array(np.where(mask, vals, 0.0), mask)


def steep_plume(n):
    """An 8-turn plume whose fringe frequency shifts by up to 0.097
    cycles/px, near the edge of the default +-0.1 band."""
    truth = make_phase(GridSpec(n, n), PhantomSpec(
        kind="gaussian_plume", peak=16 * math.pi, widths=(n / 5.12, n / 5.12)))
    return make_fringes(truth, CarrierSpec(fx=0.125),
                        NoiseSpec(sigma=0.05, seed=3)).deformed


SCAN_IMAGES = {
    "rib_step": lambda: rib_step_pair(96, 0.1)[1].deformed,
    "narrow_30x50": lambda: make_fringes(
        make_phase(GridSpec(30, 50), PhantomSpec(
            kind="gaussian_plume", peak=2.0, widths=(20.0, 20.0))),
        CarrierSpec(fx=0.125), NoiseSpec(sigma=0.05, seed=7)).deformed,
    "noise_96": lambda: field_from_array(np.random.default_rng(5).normal(size=(96, 96))),
    "zero_64": lambda: field_from_array(np.zeros((64, 64))),
    "constant_64": lambda: field_from_array(np.ones((64, 64))),
    "masked_tone_96": lambda: masked_tone(96),
    "steep_plume_256": lambda: steep_plume(256),
}


@functools.cache
def sequential_scan(name):
    """The image named in SCAN_IMAGES and its one-thread reference scan
    at the default band, made once per pytest process."""
    img = SCAN_IMAGES[name]()
    return img, sequential_demodulate(img, DemodParams.for_carrier(0.125))


def record_scans(monkeypatch):
    """List (chunk, u indices) for every chunk scan demodulate runs."""
    scans, scan = [], wft._ChunkScan.scan

    def record(chunk, u_index):
        scans.append((chunk, list(u_index)))
        scan(chunk, u_index)

    monkeypatch.setattr(wft._ChunkScan, "scan", record)
    return scans


def scanned_share(monkeypatch, img, params):
    """The share of (u, column) pairs the v loop ran on, seed pass
    included, out of len(us) * width, in one demodulate call."""
    with monkeypatch.context() as m:
        scans = record_scans(m)
        demodulate(img, params)
    n_u = len(frequency_grid(params.band_x, params.step))
    return sum(chunk.scanned for chunk, _ in scans) / (n_u * img.grid.width)


class TestThreadedScanMatchesSequential:
    """The pruned scan split across threads against the full scan in one
    loop (tests/oracles.py), bit for bit on all four arrays, at forced
    worker counts: one chunk, two and three chunks, and one chunk per u
    (len(us) + 1 CPUs, more threads than cores, where every u is a
    thread's first and nothing is pruned), with the interpreter switching
    threads often. The zero image ties everywhere, so only the flat-index
    tie rule picks its winners; pure noise prunes little."""

    @staticmethod
    def assert_identical(img, params, scan_workers, workers, want=None):
        n_u = len(frequency_grid(params.band_x, params.step))
        scan_workers(n_u + 1 if workers is None else workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = demodulate(img, params)
        finally:
            sys.setswitchinterval(interval)
        if want is None:
            want = sequential_demodulate(img, params)
        for g, w in ((got.phase.field, want.phase.field), (got.freq_x, want.freq_x),
                     (got.freq_y, want.freq_y),
                     (got.ridge_amplitude, want.ridge_amplitude)):
            assert g.values.tobytes() == w.values.tobytes()
        assert np.array_equal(got.phase.field.valid(), want.phase.field.valid())

    def assert_named_identical(self, name, scan_workers, workers):
        img, want = sequential_scan(name)
        self.assert_identical(img, DemodParams.for_carrier(0.125), scan_workers,
                              workers, want)

    @pytest.mark.parametrize("workers", [1, 2, 3, None])
    def test_rib_step(self, scan_workers, workers):
        self.assert_named_identical("rib_step", scan_workers, workers)

    @pytest.mark.parametrize("workers", [1, 2, 3, None])
    def test_grid_narrower_than_the_window(self, scan_workers, workers):
        self.assert_named_identical("narrow_30x50", scan_workers, workers)

    @pytest.mark.parametrize("workers", [1, 2, 3, None])
    @pytest.mark.parametrize("name", ["noise_96", "zero_64", "constant_64",
                                      "masked_tone_96", "steep_plume_256"])
    def test_image(self, scan_workers, name, workers):
        self.assert_named_identical(name, scan_workers, workers)

    def test_scans_share_no_state(self, scan_workers):
        # a best left over from a brighter image would prune the dim
        # image's first u wrongly
        img, _ = sequential_scan("masked_tone_96")
        dim = field_from_array(img.values / 64, img.mask)
        demodulate(img, DemodParams.for_carrier(0.125))
        self.assert_identical(dim, DemodParams.for_carrier(0.125), scan_workers, 2)

    @pytest.mark.parametrize("workers", [1, 2, 3, None])
    def test_chunks_partition_the_u_grid(self, scan_workers, monkeypatch, workers):
        # a u scanned twice leaves every winner as it is, only slower, so
        # the identity tests cannot see it
        n_u = len(frequency_grid(SMALL_PARAMS.band_x, SMALL_PARAMS.step))
        scan_workers(n_u + 1 if workers is None else workers)
        scans = record_scans(monkeypatch)
        stages, row_stage = [], wft._ChunkScan.row_stage

        def record(chunk, i):
            stages.append(i)
            return row_stage(chunk, i)

        monkeypatch.setattr(wft._ChunkScan, "row_stage", record)
        demodulate(field_from_array(np.zeros((16, 16))), SMALL_PARAMS)
        assert len(scans) == min(n_u, workers or n_u)
        # the calling thread runs the seed's row stage first: the centre u
        seed = stages[0]
        assert seed == (n_u - 1) // 2
        dealt = [u for _, u_index in scans for u in u_index]
        assert sorted([seed] + dealt) == list(range(n_u))
        assert sorted(stages) == list(range(n_u))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pruning_skips_most_columns(self, scan_workers, monkeypatch, workers):
        # the scan would be just as exact without pruning, so only the
        # count of scanned (u, column) pairs shows it happens
        scan_workers(workers)
        _, pair = rib_step_pair(192, 0.02)
        share = scanned_share(monkeypatch, pair.deformed, DemodParams.for_carrier(0.125))
        assert 0 < share < 0.2

    def test_two_threads_scan_about_what_one_does(self, scan_workers, monkeypatch):
        # a thread that started from a fresh best would run its first u on
        # every column (1.24x the one-thread share here); the seed pass
        # hands every thread the centre u's best instead
        _, pair = rib_step_pair(192, 0.02)
        params = DemodParams.for_carrier(0.125)
        shares = []
        for workers in (1, 2):
            scan_workers(workers)
            shares.append(scanned_share(monkeypatch, pair.deformed, params))
        assert shares[1] <= 1.05 * shares[0]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_calling_thread_takes_the_last_share(self, scan_workers, monkeypatch,
                                                 thread_starts, workers):
        # each hand-off starts len(parts) - 1 worker threads at most and
        # joins them before it returns, so one CPU starts none and none
        # outlives demodulate
        scan_workers(workers)
        calls, share = [], wft._share

        def record(work, parts):
            before = len(thread_starts)
            out = share(work, parts)
            calls.append((len(parts), len(thread_starts) - before))
            return out

        monkeypatch.setattr(wft, "_share", record)
        alive = threading.active_count()
        demodulate(rib_step_pair(64, 0.05)[1].deformed, SMALL_PARAMS)
        assert threading.active_count() == alive
        assert [parts for parts, _ in calls] == [workers, workers]
        assert all(started <= parts - 1 for parts, started in calls)
        assert bool(thread_starts) == (workers > 1)

    def test_scan_makes_no_temporaries(self, scan_workers, monkeypatch):
        # every product and transform writes through out=: a complex128
        # copy of the 256^2 plume's column block alone would take ny * 256
        # * 16 bytes, 1.2 MB; measured 74 KB. The seed pass is traced too.
        scan_workers(1)
        peaks, scan = [], wft._scan

        def traced(chunks, order):
            tracemalloc.start()
            try:
                scan(chunks, order)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(wft, "_scan", traced)
        demodulate(steep_plume(256), DemodParams.for_carrier(0.125))
        assert len(peaks) == 1 and peaks[0] <= 256 * 1024

    @pytest.mark.parametrize("workers", [2, 3])
    def test_one_u_band(self, scan_workers, workers):
        # DemodParams holds at least two u per band (step <= band width);
        # narrowing band_x past its check leaves one u, so k = 1 whatever
        # the CPU count
        params = DemodParams(band_x=(0.1, 0.15), band_y=(-0.05, 0.05),
                             step=0.0125, window_sigma=5.0)
        object.__setattr__(params, "band_x", (0.1, 0.105))
        assert len(frequency_grid(params.band_x, params.step)) == 1
        _, pair = rib_step_pair(64, 0.05)
        self.assert_identical(pair.deformed, params, scan_workers, workers)

    def test_bound_is_the_window_weighted_column_sum(self, scan_workers, monkeypatch):
        # B_u is made through norm="forward" column transforms, the factor
        # ny folded into the window's transform; it must be the direct sum
        # over the rows, to within eps_x
        scan_workers(1)
        seen, reachable = [], wft._ChunkScan._reachable

        def record(chunk, rows):
            columns = reachable(chunk, rows)
            h, w = chunk.best_mag2.shape
            seen.append((np.abs(rows[:, :w].astype(np.complex128)),
                         wft._view(chunk.mag2, (h, w)).astype(np.float64),
                         chunk.eps[:w].astype(np.float64)))
            return columns

        monkeypatch.setattr(wft._ChunkScan, "_reachable", record)
        params = DemodParams.for_carrier(0.125)
        demodulate(rib_step_pair(96, 0.1)[1].deformed, params)
        t, taps = wft._window_taps(params.window_sigma)
        # every u runs the bound, the seed included
        assert len(seen) == len(frequency_grid(params.band_x, params.step))
        for mags, reach, eps in seen:
            h = len(mags)
            direct = np.zeros_like(mags)
            for s, tap in zip(t.astype(int), taps):
                lo, hi = max(0, -s), min(h, h - s)
                direct[lo:hi] += tap * mags[lo + s:hi + s]
            bound = np.sqrt(reach / (1.0 + wft.BOUND_SLACK)) - eps
            assert (np.abs(bound - direct) <= eps).all()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("image", ["rib_step", "zero"])
    def test_first_u_reaches_every_column(self, scan_workers, monkeypatch,
                                          workers, image):
        # the first u is the seed, the centre u: its best mag2 is -1 and
        # the bound is never negative, not even on the zero image, where it
        # is exactly 0; the chunks split its columns into contiguous
        # slices, one each
        scan_workers(workers)
        reached, seeded = [], []
        reachable, columns = wft._ChunkScan._reachable, wft._ChunkScan.columns

        def record_reach(chunk, rows):
            reached.append(reachable(chunk, rows))
            return reached[-1]

        def record_columns(chunk, i, rows, x, best):
            if i == seed:
                seeded.append((chunk, x.copy()))
            columns(chunk, i, rows, x, best)

        monkeypatch.setattr(wft._ChunkScan, "_reachable", record_reach)
        monkeypatch.setattr(wft._ChunkScan, "columns", record_columns)
        params = DemodParams.for_carrier(0.125)
        seed = (len(frequency_grid(params.band_x, params.step)) - 1) // 2
        img = (rib_step_pair(96, 0.1)[1].deformed if image == "rib_step"
               else field_from_array(np.zeros((96, 96))))
        demodulate(img, params)
        assert np.array_equal(reached[0], np.arange(96))
        assert len({id(chunk) for chunk, _ in seeded}) == len(seeded) == workers
        for _, x in seeded:
            assert (np.diff(x) == 1).all()
        assert np.array_equal(np.sort(np.concatenate([x for _, x in seeded])),
                              np.arange(96))

    @staticmethod
    def count_blocks(monkeypatch):
        """Count the calls of columns and _reachable, and of the per-block
        steps they run, in one dict."""
        calls = dict.fromkeys(("columns", "_column_block", "_reachable",
                               "_reach_block"), 0)
        for name in calls:
            def counted(chunk, *args, _name=name, _step=getattr(wft._ChunkScan, name)):
                calls[_name] += 1
                return _step(chunk, *args)
            monkeypatch.setattr(wft._ChunkScan, name, counted)
        return calls

    @pytest.mark.parametrize("workers", [1, 2])
    def test_wide_grid_in_column_blocks(self, scan_workers, monkeypatch, workers):
        # an odd width over three blocks: the bound packs columns in pairs
        # within each even-width block, and the last block holds 35
        grid = GridSpec(615, 200)
        truth = make_phase(grid, PhantomSpec(kind="rib_step", peak=6.0,
                                             widths=(80.0, 60.0),
                                             rib_rect=(60, 120, 200, 50)))
        img = make_fringes(truth, CarrierSpec(fx=0.125),
                           NoiseSpec(sigma=0.05, seed=11)).deformed
        ny = next_fast_len(grid.height + 20)  # r = 20 at sigma 5
        block = wft._block_width(ny)
        assert block % 2 == 0 and grid.width == 2 * block + 35
        calls = self.count_blocks(monkeypatch)
        self.assert_identical(img, SMALL_PARAMS, scan_workers, workers)
        # the seed u reaches every column, so the bound runs 3 blocks per
        # call and the v loop more blocks than calls
        assert calls["_reach_block"] >= 3 * calls["_reachable"]
        assert calls["_column_block"] > calls["columns"]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_two_column_blocks(self, scan_workers, monkeypatch, workers):
        # the narrowest blocks, every one a single pair of columns but
        # the odd width's last
        monkeypatch.setattr(wft, "BLOCK_BYTES", 1)
        assert wft._block_width(1000) == 2
        truth = make_phase(GridSpec(45, 40), PhantomSpec(
            kind="gaussian_plume", peak=3.0, widths=(12.0, 12.0)))
        img = make_fringes(truth, CarrierSpec(fx=0.125),
                           NoiseSpec(sigma=0.05, seed=5)).deformed
        self.assert_identical(img, SMALL_PARAMS, scan_workers, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_192_grid_is_one_block(self, scan_workers, monkeypatch, workers):
        # a 192^2 scan is bound by the interpreter, not by memory: more
        # blocks would only add numpy calls per (u, v)
        scan_workers(workers)
        calls = self.count_blocks(monkeypatch)
        demodulate(rib_step_pair(192, 0.02)[1].deformed, DemodParams.for_carrier(0.125))
        # a u no column reaches runs no block at all
        assert 0 < calls["_column_block"] <= calls["columns"]
        assert calls["_reach_block"] == calls["_reachable"]


class TestRelativePhase:
    def _pm(self, vals):
        return PhaseMap(field_from_array(wrap_phase(vals)), wrapped=True)

    def test_matches_per_pixel_oracle(self, rng):
        a = rng.uniform(-10, 10, size=(8, 8))
        b = rng.uniform(-10, 10, size=(8, 8))
        rel = relative_phase(self._pm(a), self._pm(b))
        for y in range(8):
            for x in range(8):
                d = wrap_phase(a[y, x]) - wrap_phase(b[y, x])
                want = d - TWO_PI * math.floor((d + math.pi) / TWO_PI)
                if want > math.pi:
                    want -= TWO_PI
                if want <= -math.pi:
                    want += TWO_PI
                assert rel.field.values[y, x] == pytest.approx(want, abs=1e-12)

    def test_carrier_cancels(self):
        x = np.broadcast_to(np.arange(16)[None, :] * 0.7, (8, 16))
        rel = relative_phase(self._pm(x + 0.5), self._pm(x))
        np.testing.assert_allclose(rel.field.values, 0.5, atol=1e-12)

    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_constant_shift_covariance(self, c):
        base = np.linspace(-2, 2, 64).reshape(8, 8)
        rel = relative_phase(self._pm(base + c), self._pm(base))
        np.testing.assert_allclose(rel.field.values, wrap_phase(c), atol=1e-9)

    def test_masks_and_together(self):
        a = np.zeros((8, 8))
        ma = np.ones((8, 8), dtype=bool)
        ma[0] = False
        mb = np.ones((8, 8), dtype=bool)
        mb[:, 0] = False
        pa = PhaseMap(field_from_array(a, ma), wrapped=True)
        pb = PhaseMap(field_from_array(a, mb), wrapped=True)
        rel = relative_phase(pa, pb)
        assert np.array_equal(rel.field.mask, ma & mb)

    def test_full_demod_cancels_carrier(self):
        # end to end on fringes with a constant deformation phase
        grid = GridSpec(48, 48)
        truth = make_phase(grid, PhantomSpec(kind="constant", peak=0.8))
        pair = make_fringes(truth, CarrierSpec(fx=0.125))
        rr = demodulate(pair.reference, SMALL_PARAMS)
        rd = demodulate(pair.deformed, SMALL_PARAMS)
        rel = relative_phase(rd.phase, rr.phase)
        interior = interior_mask(grid, 15)
        assert np.abs(rel.field.values[interior] - 0.8).max() < 5e-3


def plume_phase(grid, peak, sigma):
    spec = PhantomSpec(kind="gaussian_plume", peak=peak,
                       widths=(sigma, sigma))
    return make_phase(grid, spec)


class TestUnwrap:
    def test_identity_wrap_of_difference(self, rng):
        vals = rng.uniform(-np.pi, np.pi, size=(16, 16))
        p = PhaseMap(field_from_array(wrap_phase(vals)), wrapped=True)
        out = unwrap(p)
        d = wrap_phase(out.field.values - p.field.values)
        assert np.abs(d).max() < 1e-9

    def test_recovers_smooth_field_through_many_turns(self):
        grid = GridSpec(64, 64)
        truth = plume_phase(grid, 8.0, 12.0).field.values
        wrapped = PhaseMap(field_from_array(wrap_phase(truth)), wrapped=True)
        out = unwrap(wrapped).field.values
        # equal up to one global 2 pi multiple
        delta = out - truth
        assert np.ptp(delta) < 1e-9
        k = delta.flat[0] / TWO_PI
        assert k == pytest.approx(round(k), abs=1e-9)
        assert np.ptp(out) == pytest.approx(np.ptp(truth), abs=1e-9)

    def test_range_of_peak8_plume(self):
        grid = GridSpec(64, 64)
        truth = plume_phase(grid, 8.0, 12.0).field.values
        out = unwrap(PhaseMap(field_from_array(wrap_phase(truth)),
                              wrapped=True)).field.values
        assert out.max() - out.min() == pytest.approx(
            truth.max() - truth.min(), abs=1e-9)

    def test_seed_keeps_its_value(self, rng):
        vals = wrap_phase(rng.uniform(-10, 10, size=(12, 12)))
        q = rng.random((12, 12))
        p = PhaseMap(field_from_array(vals), wrapped=True)
        out = unwrap(p, quality=field_from_array(q))
        sy, sx = np.unravel_index(np.argmax(q), q.shape)
        assert out.field.values[sy, sx] == vals[sy, sx]

    def test_deterministic(self, rng):
        vals = wrap_phase(rng.uniform(-10, 10, size=(16, 16)))
        q = rng.random((16, 16))
        p = PhaseMap(field_from_array(vals), wrapped=True)
        a = unwrap(p, quality=q).field.values
        b = unwrap(p, quality=q).field.values
        assert np.array_equal(a, b)

    def test_disconnected_components(self):
        grid = GridSpec(16, 16)
        truth = plume_phase(grid, 7.0, 4.0).field.values.copy()
        mask = np.ones((16, 16), dtype=bool)
        mask[:, 8] = False          # split into left and right islands
        vals = wrap_phase(truth)
        vals[:, 8] = 0.0
        p = PhaseMap(ScalarField(grid, vals, mask), wrapped=True)
        out = unwrap(p).field.values
        d = wrap_phase(out - vals)
        assert np.abs(d[mask]).max() < 1e-9
        # each island is internally consistent up to its own 2 pi offset
        for sl in (np.s_[:, :8], np.s_[:, 9:]):
            delta = (out - truth)[sl]
            assert np.ptp(delta) < 1e-9

    def test_masked_pixels_untouched(self):
        vals = np.zeros((8, 8))
        mask = np.ones((8, 8), dtype=bool)
        mask[4, 4] = False
        p = PhaseMap(field_from_array(vals, mask), wrapped=True)
        out = unwrap(p)
        assert out.field.values[4, 4] == 0.0
        assert np.array_equal(out.field.mask, mask)

    def test_all_masked_raises(self):
        f = field_from_array(np.zeros((8, 8)), np.zeros((8, 8), dtype=bool))
        with pytest.raises(NoValidSeedError):
            unwrap(PhaseMap(f, wrapped=True))

    def test_rejects_unwrapped_input(self):
        p = PhaseMap(field_from_array(np.zeros((8, 8))), wrapped=False)
        with pytest.raises(ValueError):
            unwrap(p)

    def test_output_flagged_unwrapped(self):
        p = PhaseMap(field_from_array(np.zeros((8, 8))), wrapped=True)
        assert not unwrap(p).wrapped

    def test_non_finite_quality_raises(self):
        p = PhaseMap(field_from_array(np.zeros((8, 8))), wrapped=True)
        for bad in (np.nan, np.inf, -np.inf):
            q = np.ones((8, 8))
            q[3, 5] = bad
            with pytest.raises(NumericError):
                unwrap(p, quality=q)

    def test_non_finite_quality_at_masked_pixel_ignored(self):
        mask = np.ones((8, 8), dtype=bool)
        mask[3, 5] = False
        p = PhaseMap(field_from_array(np.zeros((8, 8)), mask), wrapped=True)
        q = np.ones((8, 8))
        q[3, 5] = np.nan
        assert np.array_equal(unwrap(p, quality=q).field.values, np.zeros((8, 8)))

    def test_exact_pi_tie_takes_each_turn_in_its_hook_direction(self):
        """Across a step of exactly pi both directions wrap to +pi, the
        (-pi, pi] representative, so their turns disagree by one and the
        result depends on the direction each edge is hooked in. Pinned to
        a recorded output: taking the turns the other way moves four
        pixels by 2 pi."""
        vals = np.zeros((8, 8))
        vals[3, 4] = math.pi
        out = unwrap(PhaseMap(field_from_array(vals), wrapped=True)).field.values
        expected = np.zeros((8, 8))
        expected[3, 4] = math.pi
        expected[3, 5:] = TWO_PI
        assert np.array_equal(out, expected)


def smooth_field(rng, h, w, max_step=3.0):
    """Sum of random plane waves scaled so no 4-neighbor step exceeds
    max_step (< pi): its wrap has no residues around any loop."""
    y, x = np.mgrid[0:h, 0:w]
    f = sum(rng.uniform(-20, 20) * np.sin(rng.uniform(0, 0.8) * x
                                          + rng.uniform(0, 0.8) * y
                                          + rng.uniform(0, TWO_PI))
            for _ in range(3))
    step = max(np.abs(np.diff(f, axis=0)).max(), np.abs(np.diff(f, axis=1)).max())
    return f * min(1.0, max_step / step) if step > 0 else f


class TestUnwrapMatchesFloodFill:
    """The spanning-forest unwrap against the flood-fill oracle."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(8, 20), st.integers(8, 20),
           st.floats(0.0, 0.4), st.booleans(), st.booleans())
    def test_equal_on_smooth_fields(self, seed, h, w, hole_share, split,
                                    tied_quality):
        rng = np.random.default_rng(seed)
        mask = rng.random((h, w)) >= hole_share
        if split:  # a masked column cuts the map into islands
            mask[:, rng.integers(w)] = False
        if not mask.any():
            mask[0, 0] = True
        vals = np.where(mask, wrap_phase(smooth_field(rng, h, w)), 0.0)
        q = rng.integers(0, 3, (h, w)).astype(float) if tied_quality \
            else rng.random((h, w))
        p = PhaseMap(field_from_array(vals, mask), wrapped=True)
        out = unwrap(p, quality=q).field.values
        assert np.array_equal(out, flood_fill_unwrap(vals, q, mask))
        if not tied_quality:
            assert np.array_equal(unwrap(p).field.values,
                                  flood_fill_unwrap(vals, np.zeros((h, w)), mask))

    def test_disagreement_on_map_with_residues(self):
        """A 192^2 rib step at noise 0.1: its wrapped relative phase holds
        residues, where the choice of integration path shows.

        Measured: 2 residues; the two unwraps differ by one 2 pi turn on
        17 of 35,136 valid pixels (0.05%); interior RMS against the truth
        0.2594 rad for both.
        """
        truth, pair = rib_step_pair(192, 0.1)
        grid = truth.grid
        params = DemodParams.for_carrier(0.125)
        ridge = demodulate(pair.deformed, params)
        wrapped = relative_phase(ridge.phase, demodulate(pair.reference, params).phase)
        valid = wrapped.field.valid()
        v = wrapped.field.values
        loops = (wrap_phase(v[:-1, 1:] - v[:-1, :-1]) + wrap_phase(v[1:, 1:] - v[:-1, 1:])
                 + wrap_phase(v[1:, :-1] - v[1:, 1:]) + wrap_phase(v[:-1, :-1] - v[1:, :-1]))
        cells = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, 1:] & valid[1:, :-1]
        residues = int((np.abs(loops[cells]) > 1.0).sum())
        q = ridge.ridge_amplitude.values
        forest = unwrap(wrapped, quality=q).field.values
        flood = flood_fill_unwrap(v, q, valid)
        turns = np.round((forest - flood) / TWO_PI)
        core = interior_mask(grid, 30) & valid

        def rms(out):
            err = out - truth.field.values
            err -= TWO_PI * round(float(np.median(err[core])) / TWO_PI)
            return float(np.sqrt(np.mean(err[core] ** 2)))

        differ = int((turns != 0).sum())
        print(f"residues {residues}; forest vs flood fill differ on {differ} of "
              f"{int(valid.sum())} valid px (max {np.abs(turns).max():.0f} turns); "
              f"interior RMS forest {rms(forest):.4f}, flood fill {rms(flood):.4f} rad")
        assert residues > 0
        np.testing.assert_allclose(forest - flood, TWO_PI * turns, atol=1e-9)
        assert differ <= 17
        assert abs(rms(forest) - rms(flood)) < 1e-3


def forest_inputs(name, n=64):
    """Wrapped values (0 at masked pixels) and validity of one named
    forest input on an n x n grid, from a generator seeded by its name."""
    rng = np.random.default_rng(sum(map(ord, name)))
    valid = np.ones((n, n), dtype=bool)
    if name == "masked_noisy":  # an 8-turn plume, noise enough for residues
        truth = plume_phase(GridSpec(n, n), 16 * math.pi, n / 5).field.values
        vals = wrap_phase(truth + rng.normal(scale=0.6, size=(n, n)))
        valid = rng.random((n, n)) >= 0.2
    elif name == "disconnected":  # four islands and lone pixels
        vals = wrap_phase(smooth_field(rng, n, n))
        valid[n // 3] = valid[:, n // 2] = False
        lone = np.zeros((n, n), dtype=bool)
        lone[3::7, 3::7] = True
        valid &= ~(np.roll(lone, 1, 0) | np.roll(lone, -1, 0)
                   | np.roll(lone, 1, 1) | np.roll(lone, -1, 1))
    elif name == "pi_ties":  # quarter turns: many steps of exactly +-pi
        vals = wrap_phase(rng.integers(-4, 5, (n, n)) * (math.pi / 2))
    else:  # the rib step's relative phase, as the pipeline unwraps it
        _, pair = rib_step_pair(n, 0.1)
        params = DemodParams.for_carrier(0.125)
        wrapped = relative_phase(demodulate(pair.deformed, params).phase,
                                 demodulate(pair.reference, params).phase)
        return wrapped.field.values, wrapped.field.valid()
    return np.where(valid, vals, 0.0), valid


@functools.cache
def ridge_quality(n=64):
    """The ridge amplitude of the n x n rib step's deformed image."""
    _, pair = rib_step_pair(n, 0.1)
    return demodulate(pair.deformed, DemodParams.for_carrier(0.125)).ridge_amplitude.values


class TestForestMatchesInt64Oracle:
    """The forest on 32-bit indices and buffers made once against the
    int64 forest it replaced (tests/oracles.py): the same turns, and so
    the same unwrapped bytes, ties included."""

    def check(self, vals, q, valid):
        want = int64_forest_turns(vals, q, valid)
        got = wft._forest_turns(vals, q, valid)
        assert got.dtype == np.int32
        assert np.array_equal(got, want)
        p = PhaseMap(field_from_array(vals, valid), wrapped=True)
        out = unwrap(p, quality=q).field.values
        assert out.tobytes() == (vals + TWO_PI * want.astype(np.float64)).tobytes()

    @pytest.mark.parametrize("quality", ["uniform", "ridge", "tied"])
    @pytest.mark.parametrize("name", ["masked_noisy", "disconnected", "pi_ties",
                                      "rib_relative"])
    def test_equal_turns(self, name, quality):
        vals, valid = forest_inputs(name)
        q = {"uniform": lambda: np.zeros(vals.shape),
             "ridge": ridge_quality,
             "tied": lambda: np.random.default_rng(7).integers(0, 3, vals.shape)
             .astype(float)}[quality]()
        self.check(vals, q, valid)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(8, 24), st.integers(8, 24),
           st.floats(0.0, 0.6), st.booleans())
    def test_equal_turns_on_random_maps(self, seed, h, w, hole_share, tied):
        rng = np.random.default_rng(seed)
        valid = rng.random((h, w)) >= hole_share
        valid.flat[rng.integers(h * w)] = True
        vals = np.where(valid, wrap_phase(rng.uniform(-10, 10, (h, w))), 0.0)
        q = rng.integers(0, 3, (h, w)).astype(float) if tied else rng.random((h, w))
        self.check(vals, q, valid)

    @pytest.mark.parametrize("quality", ["uniform", "random", "tied"])
    @pytest.mark.parametrize("name", ["row", "column", "isolated", "islands"])
    def test_equal_turns_on_thin_and_split_grids(self, name, quality):
        # 1 x n and n x 1 grids (one edge direction is empty), valid pixels
        # with no valid neighbour (no edge at all), and masked lines that
        # cut the grid into nine islands; thin grids are below GridSpec's
        # minimum, so only the turns are compared
        rng = np.random.default_rng(sum(map(ord, name + quality)))
        shape = {"row": (1, 40), "column": (40, 1)}.get(name, (32, 32))
        valid = np.ones(shape, dtype=bool)
        if name in ("row", "column"):
            valid.flat[17] = False
        elif name == "isolated":
            valid[:] = False
            valid[::2, ::2] = True
        else:
            valid[10] = valid[21] = valid[:, 10] = valid[:, 21] = False
        vals = np.where(valid, wrap_phase(rng.uniform(-10, 10, shape)), 0.0)
        q = {"uniform": lambda: np.zeros(shape),
             "random": lambda: rng.random(shape),
             "tied": lambda: rng.integers(0, 3, shape).astype(float)}[quality]()
        got = wft._forest_turns(vals, q, valid)
        assert got.dtype == np.int32
        assert np.array_equal(got, int64_forest_turns(vals, q, valid))

    @staticmethod
    def alloc_peak(forest, n):
        """The tracemalloc peak of forest on the n x n masked_noisy input."""
        vals, valid = forest_inputs("masked_noisy", n)
        q = np.random.default_rng(3).random(vals.shape)
        tracemalloc.start()
        try:
            forest(vals, q, valid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_alloc_peak_under_four_tenths_of_the_oracle(self):
        # measured at 256^2: 4.0 MB against 12.4 MB (0.32x); 0.54x while
        # the first round still ran on arrays over every edge
        assert (self.alloc_peak(wft._forest_turns, 256)
                <= 0.4 * self.alloc_peak(int64_forest_turns, 256))

    def test_alloc_peak_per_pixel(self):
        # measured at 256^2: 61.4 bytes per pixel, 102.8 while the first
        # round still ran on arrays over every edge; a 10% margin
        assert self.alloc_peak(wft._forest_turns, 256) <= 68 * 256 ** 2

    def test_index_dtype_is_int32_below_two_to_the_30_pixels(self):
        limit = 2 ** 30
        assert wft._index_dtype(1) is np.int32
        assert wft._index_dtype(limit - 1) is np.int32
        assert wft._index_dtype(limit) is np.intp
        assert wft._index_dtype(4 * limit) is np.intp


class TestAnchorFarField:
    def _unwrapped(self, vals):
        return PhaseMap(field_from_array(vals), wrapped=False)

    def test_shifts_by_whole_turns(self):
        vals = np.full((16, 16), 3 * TWO_PI + 0.2)
        out = anchor_far_field(self._unwrapped(vals), (0, 0, 4, 4))
        np.testing.assert_allclose(out.field.values, 0.2, atol=1e-12)

    def test_no_shift_when_already_near_zero(self):
        vals = np.full((16, 16), 0.3)
        out = anchor_far_field(self._unwrapped(vals), (0, 0, 4, 4))
        assert out.field.values[0, 0] == 0.3

    def test_median_over_rect_only(self):
        vals = np.zeros((16, 16))
        vals[8:, :] = 5 * TWO_PI       # far from the anchor rect
        out = anchor_far_field(self._unwrapped(vals), (0, 0, 16, 4))
        np.testing.assert_allclose(out.field.values[:4], 0.0)

    def test_rect_must_fit(self):
        p = self._unwrapped(np.zeros((16, 16)))
        with pytest.raises(BadSpecError):
            anchor_far_field(p, (10, 10, 10, 10))

    def test_rect_with_no_valid_pixels(self):
        vals = np.zeros((16, 16))
        mask = np.ones((16, 16), dtype=bool)
        mask[:4, :4] = False
        p = PhaseMap(field_from_array(vals, mask), wrapped=False)
        with pytest.raises(NoValidSeedError):
            anchor_far_field(p, (0, 0, 4, 4))

    def test_rejects_wrapped(self):
        p = PhaseMap(field_from_array(np.zeros((16, 16))), wrapped=True)
        with pytest.raises(ValueError):
            anchor_far_field(p, (0, 0, 4, 4))


class TestInteriorMask:
    def test_margin_geometry(self):
        m = interior_mask(GridSpec(10, 8), 3)
        assert m.sum() == 4 * 2
        assert m[3, 3] and m[4, 6]
        assert not m[2, 5] and not m[5, 7]

    def test_margin_swallows_grid(self):
        assert not interior_mask(GridSpec(8, 8), 4).any()

    def test_fractional_margin_rounds_up(self):
        a = interior_mask(GridSpec(12, 12), 2.2)
        b = interior_mask(GridSpec(12, 12), 3)
        assert np.array_equal(a, b)
