import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fringescale import (
    AliasingWarning,
    AllMaskedError,
    BadScaleError,
    CwtParams,
    NumericError,
    cwt_plane,
    cwt_sweep,
    default_scale_grid,
    field_from_array,
)
from fringescale.core import next_fast_len
from fringescale.cwt import HAT_BAND, HAT_REACH, _axis_dfts, _axis_samples, finish_plane
from oracles import (brute_cwt_plane, edge_band_errors, full_spectrum_sweep,
                     mexican_hat, mexican_hat_spectrum, uniform_pad_sweep,
                     wide_pad_plane)

# A plane that keeps only the band its hat does not zero is within this
# fraction of its peak of the plane from the whole spectrum: 4.5x the
# largest gap measured, 8.9e-16 on the README quick-start's 512^2 planes
# (7.8e-16 on the 768^2 rib plume of scripts/cwt_scaling.py, 6.7e-16 at
# 192^2 and 256^2, 4.4e-16 on the 70 x 53 ramp unpadded). It also bounds
# the relative gap of the divisors (2.8e-16 measured).
BAND_GAP = 4e-15


class TestWaveletIdentities:
    def test_value_at_origin(self):
        assert mexican_hat(0.0, 0.0) == 2.0

    def test_zero_on_radius_sqrt2(self):
        assert mexican_hat(math.sqrt(2.0), 0.0) == pytest.approx(0.0, abs=1e-15)
        assert mexican_hat(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_isotropy(self, rng):
        for _ in range(20):
            r = rng.uniform(0, 4)
            th1, th2 = rng.uniform(0, 2 * np.pi, 2)
            a = mexican_hat(r * np.cos(th1), r * np.sin(th1))
            b = mexican_hat(r * np.cos(th2), r * np.sin(th2))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_zero_mean(self):
        # admissibility: the hat integrates to zero over the plane
        h = 0.05
        g = np.arange(-10.0, 10.0, h)
        total = mexican_hat(g[None, :], g[:, None]).sum() * h * h
        assert abs(total) < 1e-10 * mexican_hat(0.0, 0.0)

    def test_negative_annulus(self):
        # beyond r = sqrt(2) the hat dips negative before decaying
        assert mexican_hat(2.0, 0.0) < 0.0
        assert mexican_hat(4.0, 0.0) < 0.0


class TestSpectrumIdentities:
    def test_zero_at_dc(self):
        assert mexican_hat_spectrum(0.0, 0.0) == 0.0

    def test_peak_on_radius_sqrt2(self):
        w = np.linspace(0.5, 3.0, 2001)
        vals = mexican_hat_spectrum(w, 0.0)
        assert w[np.argmax(vals)] == pytest.approx(math.sqrt(2.0), abs=2e-3)
        peak = mexican_hat_spectrum(math.sqrt(2.0), 0.0)
        assert peak == pytest.approx(4.0 * math.pi * math.exp(-1.0), rel=1e-12)

    def test_isotropy_and_positivity(self, rng):
        wx, wy = rng.normal(size=(2, 50)) * 3
        vals = mexican_hat_spectrum(wx, wy)
        r = np.hypot(wx, wy)
        np.testing.assert_allclose(vals, mexican_hat_spectrum(r, 0.0), rtol=1e-12)
        assert (vals >= 0).all()

    def test_matches_dft_of_samples(self):
        # independent check that the closed form is the actual transform:
        # sample psi finely, take the DFT, compare below half-Nyquist
        h, n = 0.25, 128
        g = (np.arange(n) - n // 2) * h
        samples = mexican_hat(g[None, :], g[:, None])
        spec = np.fft.fft2(np.fft.ifftshift(samples)) * h * h
        assert np.abs(spec.imag).max() < 1e-12
        w = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        want = mexican_hat_spectrum(w[None, :], w[:, None])
        sel = (np.abs(w)[None, :] <= np.pi / (2 * h)) \
            & (np.abs(w)[:, None] <= np.pi / (2 * h))
        peak = 4.0 * math.pi * math.exp(-1.0)
        assert np.abs(spec.real - want)[sel].max() < 1e-6 * peak


class TestCwtPlane:
    def test_impulse_sifts_scaled_wavelet(self):
        n, alpha = 128, 5.0
        phi = np.zeros((n, n))
        phi[64, 64] = 1.0
        plane = cwt_plane(field_from_array(phi), alpha).values
        y, x = np.mgrid[0:n, 0:n].astype(float)
        want = mexican_hat((x - 64) / alpha, (y - 64) / alpha) / alpha
        np.testing.assert_allclose(plane, want, atol=1e-9 * want.max())

    def test_matches_brute_force_periodic_sum(self, rng):
        phi = rng.normal(size=(64, 64))
        alpha = 5.0
        got = cwt_plane(field_from_array(phi), alpha).values
        want = brute_cwt_plane(phi, alpha)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() < 1e-10 * scale

    def test_linearity(self, rng):
        a, b = 2.5, -1.3
        p1 = rng.normal(size=(32, 32))
        p2 = rng.normal(size=(32, 32))
        combo = cwt_plane(field_from_array(a * p1 + b * p2), 3.0).values
        sep = (a * cwt_plane(field_from_array(p1), 3.0).values
               + b * cwt_plane(field_from_array(p2), 3.0).values)
        np.testing.assert_allclose(combo, sep, atol=1e-12 * np.abs(sep).max())

    def test_translation_covariance(self, rng):
        phi = rng.normal(size=(32, 32))
        base = cwt_plane(field_from_array(phi), 4.0).values
        shifted = cwt_plane(field_from_array(
            np.roll(phi, (5, -3), axis=(0, 1))), 4.0).values
        np.testing.assert_allclose(shifted, np.roll(base, (5, -3), axis=(0, 1)),
                                   atol=1e-10 * np.abs(base).max())

    def test_dc_rejection(self):
        plane = cwt_plane(field_from_array(np.full((32, 32), 7.0)), 3.0).values
        assert np.abs(plane).max() < 1e-12

    def test_pad_changes_edges_only_mildly(self, rng):
        # padding suppresses wraparound; interior should stay close
        y, x = np.mgrid[0:64, 0:64].astype(float)
        phi = x * 0.1  # strong non-periodic trend
        f = field_from_array(phi)
        unpadded = cwt_plane(f, 4.0).values
        padded = cwt_plane(f, 4.0, pad=True).values
        # the ramp midline is far from both edges; both conventions agree
        assert abs(unpadded[32, 32] - padded[32, 32]) < 1e-6
        # but the periodic wraparound corrupts the unpadded columns near x=0
        assert abs(unpadded[32, 0] - padded[32, 0]) > 0.1

    def test_bad_scale(self):
        f = field_from_array(np.zeros((8, 8)))
        with pytest.raises(BadScaleError):
            cwt_plane(f, 0.0)
        with pytest.raises(BadScaleError):
            cwt_plane(f, -2.0)

    def test_subpixel_scale_warns(self):
        f = field_from_array(np.zeros((8, 8)))
        with pytest.warns(AliasingWarning):
            cwt_plane(f, 0.5)

    def test_unpadded_noise_scale_warns(self, rng):
        # on 53 x 70 the alpha = 100 hat is 3.5e-16 of its peak at the
        # lowest grid frequency, so its unpadded plane is rounding noise
        # that a normalized sweep would scale up to peak 1; at alpha = 50
        # it is 1.2e-3, and padding keeps the hat near its peak
        f = field_from_array(np.cumsum(rng.normal(size=(53, 70)), axis=1))
        with pytest.warns(AliasingWarning, match="rounding noise") as caught:
            noise = cwt_plane(f, 100.0)
        assert len(caught) == 1 and caught[0].filename == __file__
        assert np.abs(noise.values).max() < 1e-10 * np.abs(f.values).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            signal = cwt_plane(f, 50.0)
            cwt_plane(f, 100.0, pad=True)
            list(cwt_sweep(f, CwtParams(scales=(50.0, 100.0))))
        assert np.abs(signal.values).max() > 1e-3 * np.abs(f.values).max()

    def test_mask_zeroed_and_carried(self):
        vals = np.ones((16, 16))
        mask = np.ones((16, 16), dtype=bool)
        mask[4:8, 4:8] = False
        vals[4:8, 4:8] = 0.0
        f = field_from_array(vals, mask)
        for plane in (cwt_plane(f, 2.0), cwt_plane(f, 2.0, pad=True)):
            assert (plane.values[4:8, 4:8] == 0.0).all()
            assert np.array_equal(plane.mask, mask)
            # the sweep hands its plane over without the field's own copy
            assert plane.values.dtype == np.float64
            assert plane.values.flags.c_contiguous
            assert not plane.values.flags.writeable


class TestScaleGrid:
    def test_default_count_and_range(self):
        g = default_scale_grid()
        assert len(g) == 32
        assert g[0] == 1.0
        assert g[-1] == 100.0

    def test_display_scales_present_exactly(self):
        g = default_scale_grid()
        for d in (3.0, 10.0, 50.0, 100.0):
            assert d in g

    def test_strictly_increasing(self):
        g = default_scale_grid()
        assert all(b > a for a, b in zip(g, g[1:]))


class TestCwtParams:
    def test_default(self):
        p = CwtParams(scales=default_scale_grid())
        assert p.scales == default_scale_grid()
        assert p.threshold_fraction == 0.01
        assert p.normalize and p.pad

    def test_empty_scales(self):
        with pytest.raises(BadScaleError):
            CwtParams(scales=())

    def test_non_increasing(self):
        with pytest.raises(ValueError):
            CwtParams(scales=(2.0, 2.0, 3.0))

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            CwtParams(scales=(1.0,), threshold_fraction=1.0)

    def test_nonpositive_scale(self):
        with pytest.raises(BadScaleError):
            CwtParams(scales=(-1.0, 2.0))


class TestSweep:
    def test_single_scale_matches_plane(self, rng):
        phi = rng.normal(size=(48, 48))
        f = field_from_array(phi)
        params = CwtParams(scales=(6.0,), threshold_fraction=0.0,
                           normalize=False, pad=True)
        _, swept, _ = next(cwt_sweep(f, params))
        plane = cwt_plane(f, 6.0, pad=True)
        np.testing.assert_array_equal(swept.values, plane.values)

    def test_unpadded_single_scale_matches_plane(self, rng):
        phi = rng.normal(size=(48, 48))
        f = field_from_array(phi)
        params = CwtParams(scales=(6.0,), threshold_fraction=0.0,
                           normalize=False, pad=False)
        _, swept, _ = next(cwt_sweep(f, params))
        np.testing.assert_array_equal(swept.values,
                                      cwt_plane(f, 6.0).values)

    def test_one_plane_per_scale(self, rng):
        f = field_from_array(rng.normal(size=(32, 32)))
        params = CwtParams(scales=(2.0, 4.0, 8.0), threshold_fraction=0.0,
                           normalize=False, pad=False)
        stack = list(cwt_sweep(f, params))
        assert len(stack) == 3
        assert tuple(alpha for alpha, _, _ in stack) == (2.0, 4.0, 8.0)

    def test_normalize_applied(self, rng):
        # before masking, the transform of the masked ramp peaks inside
        # its hole, so a peak taken before the hole is zeroed would show
        for f in (field_from_array(rng.normal(size=(32, 32))),
                  _masked_ramp(48, 64, rng)):
            valid = f.valid()
            for pad in (False, True):
                kw = dict(scales=(2.0, 4.0), threshold_fraction=0.0, pad=pad)
                raw = cwt_sweep(f, CwtParams(normalize=False, **kw))
                for (_, plane, divisor), (_, raw_plane, _) in zip(
                        cwt_sweep(f, CwtParams(normalize=True, **kw)), raw):
                    assert np.abs(plane.values[valid]).max() == 1.0
                    assert (plane.values[~valid] == 0.0).all()
                    assert divisor == np.abs(raw_plane.values[valid]).max()

    def test_unnormalized_divisor_is_one(self, rng):
        f = field_from_array(rng.normal(size=(32, 32)))
        params = CwtParams(scales=(2.0, 4.0), normalize=False, pad=False)
        assert [d for _, _, d in cwt_sweep(f, params)] == [1.0, 1.0]

    def test_all_masked_raises(self):
        f = field_from_array(np.zeros((16, 16)), np.zeros((16, 16), dtype=bool))
        with pytest.raises(AllMaskedError):
            cwt_sweep(f, CwtParams(scales=(2.0,)))

    def test_checks_run_at_the_call(self):
        # the warning fires before any plane is made, and names this file
        # as its source
        f = field_from_array(np.zeros((16, 16)))
        with pytest.warns(AliasingWarning) as caught:
            sweep = cwt_sweep(f, CwtParams(scales=(0.5, 2.0)))
        assert caught[0].filename == __file__
        assert len(sweep) == 2
        with pytest.warns(AliasingWarning) as caught:
            cwt_plane(f, 0.5)
        assert caught[0].filename == __file__

    def test_planes_are_made_one_at_a_time(self, rng):
        f = field_from_array(rng.normal(size=(32, 32)))
        sweep = cwt_sweep(f, CwtParams(scales=(2.0, 4.0), pad=False))
        assert next(sweep)[0] == 2.0
        assert next(sweep)[0] == 4.0
        with pytest.raises(StopIteration):
            next(sweep)


def _masked_ramp(h, w, rng):
    """A non-periodic, non-square phase with a masked hole, zero inside."""
    y, x = np.mgrid[0:h, 0:w].astype(float)
    vals = 0.05 * x + np.sin(y / 7.0) + 0.1 * rng.normal(size=(h, w))
    mask = np.ones((h, w), dtype=bool)
    mask[10:20, 30:45] = False
    return field_from_array(np.where(mask, vals, 0.0), mask)


def _masked_rib_plume(n, rng):
    """A noisy Gaussian plume on n x n with a masked rib rectangle, zero
    inside, laid out like the README quick-start scaled to n."""
    s = n / 512.0
    y, x = np.mgrid[0:n, 0:n].astype(float)
    r2 = (x - n / 2.0) ** 2 + (y - n / 2.0) ** 2
    vals = 6.0 * np.exp(-r2 / (2.0 * (60.0 * s) ** 2)) + 0.05 * rng.normal(size=(n, n))
    x0, y0, w, h = (int(v * s) for v in (64, 384, 128, 96))
    mask = np.ones((n, n), dtype=bool)
    mask[y0:y0 + h, x0:x0 + w] = False
    return field_from_array(np.where(mask, vals, 0.0), mask)


def _band(n, alpha):
    """A plane at alpha keeps the bins |k| < _band(n, alpha) on an axis of
    n bins: those with alpha |w| <= HAT_BAND, plus one; n // 2 + 1 keeps
    them all."""
    return min(n // 2 + 1, math.ceil(HAT_BAND * n / (2.0 * math.pi * alpha)) + 1)


def _keeps_all(shape, alpha):
    """Whether the plane at alpha on a grid of shape keeps its whole half
    spectrum, and so equals the full-spectrum plane bit for bit."""
    return all(_band(n, alpha) == n // 2 + 1 for n in shape)


def _is_full_spectrum_plane(shape, alpha, got, want, fraction):
    """Check the plane got at alpha on a padded grid of shape against want
    from the whole spectrum, each a (values, divisor) pair, and return
    whether got's plane was cut to a band. An uncut plane matches bit for
    bit. A cut one, and its divisor, stay within BAND_GAP of want's, and
    no pixel is below fraction of its plane's peak in one and not the
    other."""
    (g, divisor), (w, want_divisor) = got, want
    if _keeps_all(shape, alpha):
        assert divisor == want_divisor, alpha
        np.testing.assert_array_equal(g, w)
        return False
    assert abs(divisor - want_divisor) <= BAND_GAP * want_divisor, alpha
    peaks = np.abs(g).max(), np.abs(w).max()
    assert np.abs(g - w).max() <= BAND_GAP * peaks[1], alpha
    below = [np.abs(v) < fraction * m for v, m in zip((g, w), peaks)]
    assert np.array_equal(*below), np.argwhere(below[0] != below[1])
    return True


def _wraps(alpha, scales):
    """Whether the hat reach at alpha is not below the capped margin, so
    the plane's edge values depend on how its padded grid wraps."""
    return HAT_REACH * alpha >= 2.0 * max(scales)


def _assert_edges_no_worse(got, old, ref, alpha, valid, slack):
    """got's edge errors against ref, in max and in RMS, are no larger
    than old's, give or take slack for rounding."""
    errors = zip(edge_band_errors(got, ref, alpha, valid),
                 edge_band_errors(old, ref, alpha, valid))
    for what, (e_got, e_old) in zip(("max", "rms"), errors):
        assert e_got <= e_old + slack, (alpha, what, e_got, e_old)


class TestSweepMatchesUniformPadOracle:
    # max(scales) = 10, so planes with HAT_REACH * alpha < 20 get a pad
    # sized to their own reach, except 1.99, whose reach rounds up to the
    # capped margin itself; 2.0 sits exactly on the boundary, and it and
    # the larger scales wrap. Planes that do not wrap match the oracle's
    # n + 2 ceil(2 max(scales)) grid to 1e-12; those that wrap must be no
    # further than it from a grid on which nothing wraps, at the edges
    SCALES = (1.0, 1.3, 1.7, 1.99, 2.0, 3.0, 5.5, 10.0)

    def test_planes_and_divisors(self, rng):
        f = _masked_ramp(70, 53, rng)
        params = CwtParams(scales=self.SCALES)
        crossed = []
        for (alpha, got, divisor), (_, want, want_divisor) in zip(
                cwt_sweep(f, params), uniform_pad_sweep(f, params)):
            g, w = got.values, want.values
            assert np.array_equal(got.mask, want.mask)
            if _wraps(alpha, self.SCALES):
                ref = wide_pad_plane(f, alpha)
                finish_plane(ref, True, params.threshold_fraction)
                _assert_edges_no_worse(g, w, ref, alpha, f.valid(), 1e-12)
                continue
            assert abs(divisor - want_divisor) <= 1e-12 * want_divisor, alpha
            cross = (g == 0.0) != (w == 0.0)
            crossed += [(alpha, tuple(ij)) for ij in np.argwhere(cross)]
            assert np.abs(g - w)[~cross].max() <= 1e-12, alpha
            assert (g[~f.mask] == 0.0).all()
        assert not crossed, f"pixels that crossed the threshold: {crossed}"

    def test_unnormalized_planes_close(self, rng):
        # the threshold then cuts at a fraction of the plane's own peak
        f = _masked_ramp(70, 53, rng)
        params = CwtParams(scales=self.SCALES, normalize=False)
        for (alpha, got, _), (_, want, _) in zip(cwt_sweep(f, params),
                                                 uniform_pad_sweep(f, params)):
            if _wraps(alpha, self.SCALES):
                continue  # test_wrapping_planes_edges_no_worse
            scale = np.abs(want.values).max()
            assert np.abs(got.values - want.values).max() <= 1e-12 * scale, alpha

    def test_unpadded_sweep_is_the_oracle(self, rng):
        # the planes at 5.5 and 10 keep only the band their hat does not
        # zero; the others keep the whole half spectrum
        f = _masked_ramp(70, 53, rng)
        params = CwtParams(scales=self.SCALES, pad=False)
        cut = [alpha for (alpha, got, divisor), (_, want, want_divisor) in zip(
                   cwt_sweep(f, params), uniform_pad_sweep(f, params))
               if _is_full_spectrum_plane(f.grid.shape, alpha, (got.values, divisor),
                                          (want.values, want_divisor),
                                          params.threshold_fraction)]
        assert cut == [5.5, 10.0]

    @pytest.mark.parametrize("pad", [True, False])
    def test_single_plane_is_the_oracle(self, rng, pad):
        # one scale always reaches 10 alpha >= 2 alpha, the capped margin,
        # so its padded plane wraps
        f = _masked_ramp(70, 53, rng)
        for alpha in (1.0, 4.5):
            params = CwtParams(scales=(alpha,), threshold_fraction=0.0,
                               normalize=False, pad=pad)
            (_, want, _), = uniform_pad_sweep(f, params)
            got = cwt_plane(f, alpha, pad=pad).values
            if not pad:
                # 4.5 keeps only the band its hat does not zero
                cut = _is_full_spectrum_plane(f.grid.shape, alpha, (got, 1.0),
                                              (want.values, 1.0),
                                              CwtParams((alpha,)).threshold_fraction)
                assert cut == (alpha == 4.5)
                continue
            ref = wide_pad_plane(f, alpha)
            _assert_edges_no_worse(got, want.values, ref, alpha, f.valid(),
                                   1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("shape", ["ramp70x53", "rib_plume192"])
    def test_wrapping_planes_edges_no_worse(self, rng, shape):
        # every plane that wraps, against a grid edge-padded by its own
        # hat reach, on which none of its kept pixels does
        if shape == "ramp70x53":
            f, scales = _masked_ramp(70, 53, rng), self.SCALES
        else:
            f, scales = _masked_rib_plume(192, rng), default_scale_grid()
        params = CwtParams(scales=scales, normalize=False, threshold_fraction=0.0)
        checked = []
        for (alpha, got, _), (_, old, _) in zip(cwt_sweep(f, params),
                                                uniform_pad_sweep(f, params)):
            if _wraps(alpha, scales):
                ref = wide_pad_plane(f, alpha)
                _assert_edges_no_worse(got.values, old.values, ref, alpha, f.valid(),
                                       1e-12 * np.abs(ref).max())
                checked.append(alpha)
        assert len(checked) == {"ramp70x53": 4, "rib_plume192": 11}[shape]

    def test_alloc_peak_not_above_the_oracle(self, rng):
        # one padded spectrum at a time: the reach-sized pads must not
        # hold more than the single shared grid did
        f = field_from_array(rng.normal(size=(256, 256)).cumsum(axis=0))
        params = CwtParams(scales=default_scale_grid())

        def alloc_peak(sweep):
            tracemalloc.start()
            try:
                for _ in sweep(f, params):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert alloc_peak(cwt_sweep) <= alloc_peak(uniform_pad_sweep)


def _exact_axis_dfts(n, alpha):
    """The DFTs (G, H) that _axis_dfts computes, on the full axis, from
    their Poisson sums: G_k = sum_j alpha sqrt(2 pi) exp(-(alpha w)^2 / 2)
    and H_k = sum_j alpha sqrt(2 pi) (1 - (alpha w)^2) exp(-(alpha w)^2 / 2)
    at w = 2 pi (k / n + j). Every bin carries its own relative rounding
    only, so the tails are exact where the FFT's are rounding noise."""
    w = 2.0 * np.pi * (np.fft.fftfreq(n)[:, None] + np.arange(-3, 4)[None, :])
    aw2 = (alpha * w) ** 2
    g = alpha * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * aw2)
    return g.sum(axis=1), ((1.0 - aw2) * g).sum(axis=1)


def _multiplier(gy, hy, gx, hx, alpha):
    return (gy[:, None] * (2.0 * gx - hx)[None, :] - hy[:, None] * gx[None, :]) / alpha


class TestBandLimit:
    @pytest.mark.parametrize("n", [53, 70, 450, 1200])
    def test_cut_bins_are_below_1e_17_of_the_peak(self, n):
        # every default scale, plus the one whose box fills the axis with
        # no room to spare: ceil(HAT_BAND n / (2 pi alpha)) = n // 2
        fill = HAT_BAND * n / (2.0 * math.pi * (n // 2 - 0.5))
        assert math.ceil(HAT_BAND * n / (2.0 * math.pi * fill)) + 1 == n // 2 + 1
        alphas = sorted(default_scale_grid() + (fill,))
        cut = 0
        for alpha in alphas:
            k = _band(n, alpha)
            keep = np.abs(np.fft.fftfreq(n) * n) < k
            outside = ~(keep[:, None] & keep[None, :])
            exact = _multiplier(*_exact_axis_dfts(n, alpha), *_exact_axis_dfts(n, alpha),
                                alpha)
            dfts = _axis_dfts(_axis_samples(n, alpha), half=False)
            got = _multiplier(*dfts, *dfts, alpha)
            # the multiplier is alpha psi_hat(alpha w) up to aliasing, whose
            # peak is 4 pi alpha / e; the FFTs reach the exact multiplier to
            # their rounding (2.2e-15 of the peak at most, measured), and
            # the bins the cut drops hold that rounding only (3.7e-16)
            peak = 4.0 * math.pi * alpha / math.e
            assert np.abs(got - exact).max() <= 1e-14 * peak, alpha
            if alpha == fill or alpha <= 3.0:
                assert k == n // 2 + 1 and not outside.any(), alpha
                continue
            assert np.abs(exact[outside]).max() <= 1e-17 * np.abs(exact).max(), alpha
            assert np.abs(got[outside]).max() <= 1e-15 * peak, alpha
            cut += outside.any()
        assert cut == sum(a > 3.0 for a in alphas) - (fill > 3.0)

    def test_padded_rib_plume_sweep_is_the_full_spectrum_sweep(self, rng):
        # the 8 scales up to 3 keep their whole half spectrum
        f = _masked_rib_plume(192, rng)
        params = CwtParams(scales=default_scale_grid())
        sweep = cwt_sweep(f, params)
        cut = [alpha for (alpha, got, divisor), (_, want, want_divisor) in zip(
                   sweep, full_spectrum_sweep(f, params))
               if _is_full_spectrum_plane(sweep._grid(alpha)[0], alpha,
                                          (got.values, divisor), (want, want_divisor),
                                          params.threshold_fraction)]
        assert len(cut) == 24


class TestPaddedGrid:
    # every padded plane takes its shape and pads from CwtSweep._grid
    @pytest.mark.parametrize("shape", [(70, 53), (193, 250), (96, 96)])
    @pytest.mark.parametrize("scales", [default_scale_grid(),
                                        TestSweepMatchesUniformPadOracle.SCALES])
    def test_pads_cover_the_hat_reach(self, shape, scales):
        sweep = cwt_sweep(field_from_array(np.zeros(shape)), CwtParams(scales=scales))
        for alpha in scales:
            padded, before = sweep._grid(alpha)
            after = tuple(p - n - b for p, n, b in zip(padded, shape, before))
            margin = min(math.ceil(HAT_REACH * alpha), math.ceil(2.0 * max(scales)))
            assert padded == tuple(next_fast_len(n + 2 * margin) for n in shape), alpha
            assert min(before + after) >= margin, alpha
            # centred, so the pads follow from the padded shape alone
            assert before == tuple((p - n) // 2 for p, n in zip(padded, shape)), alpha

    @pytest.mark.parametrize("n, fast", [(70, 480), (192, 600), (512, 960),
                                         (768, 1200), (1024, 1440)])
    def test_largest_scale_takes_a_5_smooth_length(self, n, fast):
        # n + 2 ceil(2 alpha_max) is 470, 592, 912, 1168 and 1424 here,
        # none of them 5-smooth; unpadded, every plane keeps n
        f = field_from_array(np.zeros((n, n)))
        scales = default_scale_grid()
        padded = cwt_sweep(f, CwtParams(scales=scales))._grid(scales[-1])[0]
        assert padded == (fast, fast)
        assert fast >= n + 2 * math.ceil(2.0 * scales[-1])
        for p in (2, 3, 5):
            while fast % p == 0:
                fast //= p
        assert fast == 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            unpadded = cwt_sweep(f, CwtParams(scales=scales, pad=False))
        # unpadded at 70^2, the largest planes can only be rounding noise
        assert {w.category for w in caught} == ({AliasingWarning} if n == 70 else set())
        assert {unpadded._grid(a) for a in scales} == {((n, n), (0, 0))}

    def test_one_forward_transform_per_padded_shape(self, rng, monkeypatch):
        # the padded spectrum starts with an rfft along the h input rows,
        # edge-padded to Lx, one 2-D call per padded shape; the pad rows
        # copy the edge rows' spectra, and _axis_dfts' 1-D rffts are not
        # counted
        shapes = []

        def counting(x, *args, _rfft=np.fft.rfft, **kwargs):
            if np.ndim(x) == 2:
                shapes.append(np.shape(x))
            return _rfft(x, *args, **kwargs)
        monkeypatch.setattr(np.fft, "rfft", counting)
        scales = default_scale_grid()
        sweep = cwt_sweep(field_from_array(rng.normal(size=(192, 192))),
                          CwtParams(scales=scales))
        distinct = {sweep._grid(a)[0] for a in scales}
        assert len(list(sweep)) == 32
        # the plane at 19.5 shares the 600 x 600 grid of the 11 that wrap
        assert len(distinct) == 16
        assert sorted(shapes) == sorted((192, lx) for _, lx in distinct)

    @pytest.mark.parametrize("top, bottom, left, right",
                             [(0, 0, 0, 0), (3, 4, 5, 6), (4, 4, 7, 7),
                              (25, 26, 0, 1), (0, 9, 12, 0)])
    def test_forward_is_rfft2_of_the_edge_padded_input(self, rng, top, bottom, left,
                                                       right):
        # odd and even pads, uneven ones too, on a masked input whose
        # edge rows and columns hold masked zeros and valid values
        f = _masked_ramp(70, 53, rng)
        mask = f.mask.copy()
        mask[0, :10] = mask[30:40, -1] = False
        f = field_from_array(np.where(mask, f.values, 0.0), mask)
        sweep = cwt_sweep(f, CwtParams(scales=(2.0,)))
        want = np.fft.rfft2(np.pad(f.values, ((top, bottom), (left, right)), mode="edge"))
        got = sweep._forward((70 + top + bottom, 53 + left + right), top, left)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_forward_matches_on_every_sweep_grid(self, rng):
        f = _masked_ramp(70, 53, rng)
        sweep = cwt_sweep(f, CwtParams(scales=default_scale_grid()))
        for shape, (top, left) in {sweep._grid(a) for a in sweep.scales}:
            pads = ((top, shape[0] - 70 - top), (left, shape[1] - 53 - left))
            want = np.fft.rfft2(np.pad(f.values, pads, mode="edge"))
            assert sweep._forward(shape, top, left).tobytes() == want.tobytes(), shape

    def test_shared_spectra_match_the_oracle(self, rng):
        # at 64x64 the default scales put planes of reach 10 and 12, 14
        # and 16, and 19 and 22 on one padded shape each; every plane that
        # does not wrap must still match the plane on the 2 alpha_max grid
        f = _masked_ramp(64, 64, rng)
        params = CwtParams(scales=default_scale_grid(), normalize=False,
                           threshold_fraction=0.0)
        sweep = cwt_sweep(f, params)
        reaches = {}
        for a in params.scales:
            if not _wraps(a, params.scales):
                reaches.setdefault(sweep._grid(a)[0], set()).add(math.ceil(HAT_REACH * a))
        assert max(map(len, reaches.values())) > 1
        for (alpha, got, _), (_, want, _) in zip(sweep, uniform_pad_sweep(f, params)):
            if _wraps(alpha, params.scales):
                continue
            scale = np.abs(want.values).max()
            assert np.abs(got.values - want.values).max() <= 1e-12 * scale, alpha


def _normalized(vals):
    out = np.array(vals, dtype=np.float64)
    return out, finish_plane(out, True, 0.0)


def _thresholded(vals, fraction):
    out = np.array(vals, dtype=np.float64)
    finish_plane(out, False, fraction)
    return out


class TestOneThreadSweep:
    def test_starts_no_thread(self, rng, thread_starts):
        f = _masked_ramp(64, 48, rng)
        assert len(list(cwt_sweep(f, CwtParams(scales=default_scale_grid())))) == 32
        cwt_plane(f, 3.0, pad=True)
        assert not thread_starts

    def test_overflowing_plane_warns_nothing(self, rng):
        # the plane overflows to inf and NaN under the sweep's own
        # np.errstate; finish_plane refuses it
        f = field_from_array(1e306 * (1.0 + rng.random((64, 48))))
        sweep = cwt_sweep(f, CwtParams(scales=(2.0, 4.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                next(sweep)


class TestNormalize:
    def test_peak_becomes_one(self, rng):
        for vals in (rng.normal(size=(8, 8)) * 7, rng.normal(size=(8, 8)) * 0.01):
            out, _ = _normalized(vals)
            assert np.abs(out).max() == pytest.approx(1.0)

    def test_shape_preserved_per_plane(self, rng):
        vals = rng.normal(size=(8, 8))
        out, divisor = _normalized(vals)
        m = np.abs(vals).max()
        np.testing.assert_allclose(out, vals / m)
        assert divisor == m

    def test_zero_plane_passes_through(self):
        out, divisor = _normalized(np.zeros((8, 8)))
        assert (out == 0.0).all()
        assert divisor == 1.0


class TestThreshold:
    def test_small_values_zeroed_boundary_kept(self):
        vals = np.zeros((8, 8))
        vals[0, 0] = 1.0
        vals[0, 1] = 0.01          # exactly fraction * max: kept
        vals[0, 2] = 0.0099999     # strictly below: zeroed
        vals[0, 3] = -0.5
        out = _thresholded(vals, 0.01)
        assert out[0, 0] == 1.0
        assert out[0, 1] == 0.01
        assert out[0, 2] == 0.0
        assert out[0, 3] == -0.5

    def test_magnitude_based_sign_preserved(self):
        vals = np.zeros((8, 8))
        vals[0, 0] = -1.0
        vals[0, 1] = 0.5
        out = _thresholded(vals, 0.2)
        assert out[0, 0] == -1.0
        assert out[0, 1] == 0.5

    def test_fraction_zero_is_identity(self, rng):
        vals = rng.normal(size=(8, 8))
        out = _thresholded(vals, 0.0)
        np.testing.assert_array_equal(out, vals)

    def test_zero_plane_unchanged(self):
        out = _thresholded(np.zeros((8, 8)), 0.5)
        assert (out == 0.0).all()
