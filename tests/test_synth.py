import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fringescale import (
    BadSpecError,
    CarrierSpec,
    GridSpec,
    NoiseSpec,
    PhantomSpec,
    make_fringes,
    make_phase,
)


GRID = GridSpec(32, 24)


def fringe_oracle(x, fx, phi):
    """Direct evaluation of the intensity model at one pixel."""
    return 1.0 + math.cos(2.0 * math.pi * fx * x + phi)


class TestPhantoms:
    def test_constant(self):
        p = make_phase(GRID, PhantomSpec(kind="constant", peak=2.5))
        assert (p.field.values == 2.5).all()
        assert not p.wrapped

    def test_ramp_endpoints_and_midpoint(self):
        p = make_phase(GRID, PhantomSpec(kind="ramp", peak=3.0))
        v = p.field.values
        assert v[0, 0] == 0.0
        assert v[5, GRID.width - 1] == 3.0
        # column x holds peak * x / (width - 1) in every row
        assert v[7, 10] == pytest.approx(3.0 * 10 / 31)
        assert (v == v[0]).all()

    def test_plume_center_and_sigma_points(self):
        spec = PhantomSpec(kind="gaussian_plume", peak=2.0,
                           center=(16.0, 12.0), widths=(4.0, 3.0))
        v = make_phase(GRID, spec).field.values
        assert v[12, 16] == pytest.approx(2.0)
        # one sigma along each axis falls to peak * exp(-1/2)
        assert v[12, 20] == pytest.approx(2.0 * math.exp(-0.5))
        assert v[15, 16] == pytest.approx(2.0 * math.exp(-0.5))
        # separable product at a diagonal point
        assert v[15, 20] == pytest.approx(2.0 * math.exp(-1.0))

    def test_plume_center_defaults_to_grid_center(self):
        spec = PhantomSpec(kind="gaussian_plume", peak=1.0, widths=(5.0, 5.0))
        v = make_phase(GRID, spec).field.values
        x = np.arange(GRID.width) - GRID.width / 2.0
        y = np.arange(GRID.height) - GRID.height / 2.0
        expect = np.exp(-(x[None, :] ** 2 + y[:, None] ** 2) / 50.0)
        np.testing.assert_allclose(v, expect, rtol=1e-12)

    def test_rib_step_masks_rectangle(self):
        spec = PhantomSpec(kind="rib_step", peak=2.0, widths=(6.0, 6.0),
                           rib_rect=(4, 10, 8, 6))
        p = make_phase(GRID, spec)
        m = p.field.mask
        assert m is not None
        assert not m[10:16, 4:12].any()
        assert m.sum() == GRID.npixels - 48
        assert (p.field.values[10:16, 4:12] == 0.0).all()
        # outside the rib the plume is untouched
        plume = make_phase(GRID, PhantomSpec(kind="gaussian_plume", peak=2.0,
                                             widths=(6.0, 6.0)))
        np.testing.assert_array_equal(p.field.values[m], plume.field.values[m])

    def test_rib_rect_must_fit(self):
        spec = PhantomSpec(kind="rib_step", peak=1.0, widths=(5.0, 5.0),
                           rib_rect=(28, 0, 8, 4))
        with pytest.raises(BadSpecError):
            make_phase(GRID, spec)

    def test_rib_needs_rect(self):
        spec = PhantomSpec(kind="rib_step", peak=1.0, widths=(5.0, 5.0))
        with pytest.raises(BadSpecError):
            make_phase(GRID, spec)

    def test_unknown_kind_rejected(self):
        for kind in ("weird", "from_file"):
            with pytest.raises(BadSpecError):
                PhantomSpec(kind=kind)

    def test_negative_width_rejected(self):
        with pytest.raises(BadSpecError):
            PhantomSpec(kind="gaussian_plume", widths=(-1.0, 2.0))


class TestMakeFringes:
    CARRIER = CarrierSpec(fx=0.125)

    def test_reference_matches_pointwise_oracle(self):
        phase = make_phase(GRID, PhantomSpec(kind="constant", peak=0.0))
        pair = make_fringes(phase, self.CARRIER)
        for x in (0, 1, 4, 17, 31):
            want = fringe_oracle(x, 0.125, 0.0)
            assert pair.reference.values[3, x] == pytest.approx(want, abs=1e-12)

    def test_deformed_matches_pointwise_oracle(self):
        phase = make_phase(GRID, PhantomSpec(kind="gaussian_plume", peak=1.5,
                                             widths=(5.0, 5.0)))
        pair = make_fringes(phase, self.CARRIER)
        for (y, x) in ((0, 0), (12, 16), (23, 31), (7, 9)):
            want = fringe_oracle(x, 0.125, phase.field.values[y, x])
            assert pair.deformed.values[y, x] == pytest.approx(want, abs=1e-12)

    def test_zero_phase_gives_identical_images(self):
        phase = make_phase(GRID, PhantomSpec(kind="constant", peak=0.0))
        pair = make_fringes(phase, self.CARRIER)
        np.testing.assert_array_equal(pair.reference.values, pair.deformed.values)

    def test_pi_phase_at_x0_darkens(self):
        # at x = 0 the carrier argument is 0; adding pi lands on the dark
        # fringe so intensity is exactly 0
        phase = make_phase(GRID, PhantomSpec(kind="constant", peak=math.pi))
        pair = make_fringes(phase, self.CARRIER)
        assert pair.reference.values[0, 0] == pytest.approx(2.0)
        assert pair.deformed.values[0, 0] == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(min_value=0.01, max_value=0.49))
    def test_noise_free_range(self, fx):
        phase = make_phase(GRID, PhantomSpec(kind="gaussian_plume", peak=2.0,
                                             widths=(5.0, 4.0)))
        pair = make_fringes(phase, CarrierSpec(fx=fx))
        for img in (pair.reference.values, pair.deformed.values):
            assert img.min() >= 0.0
            assert img.max() <= 2.0 + 1e-12

    def test_noise_is_deterministic(self):
        phase = make_phase(GRID, PhantomSpec(kind="constant", peak=1.0))
        noise = NoiseSpec(sigma=0.05, seed=777)
        p1 = make_fringes(phase, self.CARRIER, noise)
        p2 = make_fringes(phase, self.CARRIER, noise)
        assert np.array_equal(p1.reference.values, p2.reference.values)
        assert np.array_equal(p1.deformed.values, p2.deformed.values)

    def test_noise_seed_changes_field(self):
        phase = make_phase(GRID, PhantomSpec(kind="constant", peak=1.0))
        p1 = make_fringes(phase, self.CARRIER, NoiseSpec(sigma=0.05, seed=1))
        p2 = make_fringes(phase, self.CARRIER, NoiseSpec(sigma=0.05, seed=2))
        assert not np.array_equal(p1.reference.values, p2.reference.values)

    def test_reference_and_deformed_noise_independent(self):
        phase = make_phase(GRID, PhantomSpec(kind="constant", peak=0.0))
        pair = make_fringes(phase, self.CARRIER, NoiseSpec(sigma=0.05, seed=9))
        # same clean image, different noise streams
        assert not np.array_equal(pair.reference.values, pair.deformed.values)

    def test_noise_matches_philox_streams(self):
        phase = make_phase(GRID, PhantomSpec(kind="constant", peak=0.0))
        sigma, seed = 0.1, 4242
        pair = make_fringes(phase, self.CARRIER, NoiseSpec(sigma=sigma, seed=seed))
        clean = make_fringes(phase, self.CARRIER)
        want_ref = np.random.Generator(
            np.random.Philox(key=seed)).standard_normal(GRID.shape)
        want_dfm = np.random.Generator(
            np.random.Philox(key=seed + 1)).standard_normal(GRID.shape)
        np.testing.assert_array_equal(
            pair.reference.values, clean.reference.values + sigma * want_ref)
        np.testing.assert_array_equal(
            pair.deformed.values, clean.deformed.values + sigma * want_dfm)

    def test_sigma_zero_equals_no_noise(self):
        phase = make_phase(GRID, PhantomSpec(kind="constant", peak=0.5))
        with_spec = make_fringes(phase, self.CARRIER, NoiseSpec(sigma=0.0))
        without = make_fringes(phase, self.CARRIER)
        np.testing.assert_array_equal(with_spec.reference.values,
                                      without.reference.values)

    def test_mask_carries_over_and_zeroes(self):
        spec = PhantomSpec(kind="rib_step", peak=1.0, widths=(6.0, 6.0),
                           rib_rect=(4, 10, 8, 6))
        phase = make_phase(GRID, spec)
        pair = make_fringes(phase, self.CARRIER, NoiseSpec(sigma=0.1, seed=5))
        for img in (pair.reference, pair.deformed):
            assert np.array_equal(img.mask, phase.field.mask)
            assert (img.values[~img.mask] == 0.0).all()

    def test_rejects_wrapped_phase(self):
        from fringescale import PhaseMap
        from fringescale.core import ScalarField
        wrapped = PhaseMap(ScalarField(GRID, np.zeros(GRID.shape)), wrapped=True)
        with pytest.raises(BadSpecError):
            make_fringes(wrapped, self.CARRIER)

    def test_negative_sigma_rejected(self):
        with pytest.raises(BadSpecError):
            NoiseSpec(sigma=-0.1)
