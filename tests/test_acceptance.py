"""Acceptance scorecard: one test and one printed verdict per guarantee.

Each test prints "[acceptance] <name>: PASS|FAIL (<measurements>)" and
then asserts, so `pytest tests/test_acceptance.py -v -s` yields a
one-page numeric summary of the package's contracts: transform
precision against a brute-force oracle, kernel identities, the
scale-frequency law, end-to-end demodulation accuracy, multi-scale edge
localization, normalization and threshold behavior, byte-level
determinism, and degenerate-input handling.

Two checks fail by the mathematics of the adopted transform
normalization and are kept at their stated tolerances rather than
loosened; the measured values are frozen in comments next to each.
"""

import time
import warnings

import numpy as np
import pytest

from fringescale import (
    AliasingWarning,
    AllMaskedError,
    BadScaleError,
    CarrierSpec,
    CwtParams,
    DemodParams,
    GridSpec,
    NoiseSpec,
    PhantomSpec,
    ScalarField,
    anchor_far_field,
    cwt_plane,
    cwt_sweep,
    demodulate,
    field_from_array,
    interior_mask,
    make_fringes,
    make_phase,
    read_field,
    relative_phase,
    unwrap,
    write_field,
)
from fringescale import cli
from oracles import brute_cwt_plane, mexican_hat, mexican_hat_spectrum


def report(name: str, ok: bool, detail: str) -> str:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_transform_matches_brute_force_oracle():
    """FFT planes vs the literal periodic spatial sum, max relative
    error <= 1e-8 per scale, 64x64 pseudo-random phase, < 10 s total.

    Measured: alpha=1 agrees to ~1e-15 and alpha 3/10/50 to <= 1.1e-12.
    The FFT multiplier is the DFT of the sampled, periodized hat, so the
    two sides are the same operator at every scale, unit scale included,
    where the continuous spectrum would differ by ~3e-2 (a one-pixel hat
    keeps ~10% of its spectrum beyond the Nyquist frequency).
    """
    rng = np.random.default_rng(7)
    phi = rng.standard_normal((64, 64))
    fld = field_from_array(phi)
    parts = []
    ok = True
    t_fft = 0.0
    for alpha in (1.0, 3.0, 10.0, 50.0):
        t0 = time.perf_counter()
        w = cwt_plane(fld, alpha).values
        t_fft += time.perf_counter() - t0
        b = brute_cwt_plane(phi, alpha)
        rel = float(np.abs(w - b).max() / np.abs(b).max())
        ok &= rel <= 1e-8
        parts.append(f"alpha={alpha:g}: {rel:.2e}")
    ok &= t_fft < 10.0
    parts.append(f"fft total {t_fft:.2f}s")
    line = report("oracle equivalence", ok, "; ".join(parts))
    assert ok, line


def test_wavelet_identities():
    """Closed-form hat values, zero mean, and the sampled-kernel DFT
    against the analytic spectrum below half-Nyquist."""
    peak = float(mexican_hat(0.0, 0.0))
    v_root = abs(float(mexican_hat(np.sqrt(2.0), 0.0)))

    # Riemann sum over a 20-unit square; smooth decay makes it
    # exponentially accurate, so the zero mean shows up directly
    h = 0.05
    g = np.arange(-10.0, 10.0, h)
    mean = abs(float(mexican_hat(g[None, :], g[:, None]).sum() * h * h))

    # DFT of hat samples (span 32 units, step 0.25) vs the closed form
    n, hh = 128, 0.25
    x = np.fft.ifftshift((np.arange(n) - n // 2) * hh)
    samples = mexican_hat(x[None, :], x[:, None])
    dft = np.fft.fft2(samples).real * hh * hh
    w = 2.0 * np.pi * np.fft.fftfreq(n, d=hh)
    closed = mexican_hat_spectrum(w[None, :], w[:, None])
    band = (np.abs(w[None, :]) < np.pi / (2 * hh)) & (np.abs(w[:, None]) < np.pi / (2 * hh))
    spec_peak = 4.0 * np.pi * np.exp(-1.0)
    dft_rel = float(np.abs(dft - closed)[band].max() / spec_peak)

    origin = float(mexican_hat_spectrum(0.0, 0.0))
    ok = (peak == 2.0 and v_root <= 1e-12 and mean < 1e-10 * peak
          and dft_rel <= 1e-6 and origin == 0.0)
    line = report(
        "wavelet identities", ok,
        f"psi(0,0)={peak:g}; |psi(sqrt2,0)|={v_root:.1e}; |mean|={mean:.1e}; "
        f"dft rel {dft_rel:.1e}; psi_hat(0,0)={origin:g}")
    assert ok, line


def test_scale_frequency_law():
    """Peak-response scale for a pure tone: 2*pi*f*alpha* within 10% of
    sqrt(2), f = 1/32 cycles/px on 256x256.

    Measured: alpha* = 8.825, 2*pi*f*alpha* = 1.7328, off by 22.5% and
    failing. The plane amplitude for a tone is alpha * psi_hat(alpha w0),
    proportional to alpha^3 exp(-(alpha w0)^2 / 2), whose maximum sits at
    alpha w0 = sqrt(3) exactly. sqrt(2) is the peak of psi_hat alone;
    the adopted 1/alpha sum normalization (the same one the oracle
    equivalence check pins down) shifts the ridge to sqrt(3).
    """
    n = 256
    f = 1.0 / 32.0
    x = np.arange(n, dtype=float)
    fld = field_from_array(np.cos(2 * np.pi * f * x)[None, :].repeat(n, axis=0))
    alphas = np.geomspace(4.0, 20.0, 241)
    resp = np.array([np.abs(cwt_plane(fld, a).values).max() for a in alphas])
    astar = float(alphas[int(np.argmax(resp))])
    omega = 2 * np.pi * f * astar
    rel = abs(omega - np.sqrt(2.0)) / np.sqrt(2.0)
    ok = rel <= 0.10
    line = report(
        "scale-frequency law", ok,
        f"alpha*={astar:.3f}; 2*pi*f*alpha*={omega:.4f}; "
        f"vs sqrt(2) rel {rel:.3f} (<= 0.10)")
    assert ok, line


def test_demodulation_accuracy():
    """Full recovery chain on plume fringes at 512x512: interior RMS
    phase error < 0.05 rad noise-free and < 0.1 rad at noise 0.05a,
    each ridge scan under 60 s.

    Measured: RMS 0.0090 and 0.0092, scans ~7 s each.
    """
    grid = GridSpec(512, 512)
    truth = make_phase(grid, PhantomSpec(kind="gaussian_plume", peak=2.0,
                                         widths=(60.0, 60.0)))
    carrier = CarrierSpec(fx=0.125)
    params = DemodParams.for_carrier(carrier.fx)
    core = interior_mask(grid, int(np.ceil(3 * params.window_sigma)))
    parts = []
    ok = True
    worst = 0.0
    for sigma, bound in ((0.0, 0.05), (0.05, 0.1)):
        pair = make_fringes(truth, carrier, NoiseSpec(sigma=sigma, seed=12345))
        t0 = time.perf_counter()
        ridge_d = demodulate(pair.deformed, params)
        t1 = time.perf_counter()
        ridge_r = demodulate(pair.reference, params)
        t2 = time.perf_counter()
        worst = max(worst, t1 - t0, t2 - t1)
        rec = unwrap(relative_phase(ridge_d.phase, ridge_r.phase),
                     quality=ridge_d.ridge_amplitude)
        rec = anchor_far_field(rec, (0, 0, 64, 64))
        err = rec.field.values - truth.field.values
        rms = float(np.sqrt(np.mean(err[core] ** 2)))
        ok &= rms < bound
        parts.append(f"noise {sigma:g}a: RMS {rms:.4f} (< {bound:g})")
    ok &= worst < 60.0
    parts.append(f"slowest scan {worst:.1f}s (< 60s)")
    line = report("demodulation accuracy", ok, "; ".join(parts))
    assert ok, line


def _rib_boundary_distance(n: int, rect: tuple[int, int, int, int]) -> np.ndarray:
    """Distance from each pixel center to the geometric outline of the
    masked rectangle (edges run at half-integer coordinates)."""
    x0, y0, w, h = rect
    xe0, xe1 = x0 - 0.5, x0 + w - 0.5
    ye0, ye1 = y0 - 0.5, y0 + h - 0.5
    ys, xs = np.mgrid[0:n, 0:n].astype(float)
    d_out = np.hypot(np.maximum(np.maximum(xe0 - xs, xs - xe1), 0.0),
                     np.maximum(np.maximum(ye0 - ys, ys - ye1), 0.0))
    inside = (xs > xe0) & (xs < xe1) & (ys > ye0) & (ys < ye1)
    d_in = np.minimum(np.minimum(xs - xe0, xe1 - xs),
                      np.minimum(ys - ye0, ye1 - ys))
    return np.where(inside, d_in, d_out)


def test_multi_scale_localization():
    """Rib-step phantom: at alpha=3 at least 80% of the top-1%-|W|
    pixels lie within 3 px of the rib outline; at alpha=100 the global
    |W| peak sits inside the smooth plume, > 10 px from the rib.

    Measured: the alpha=100 half holds (peak 59.5 px from the rib, at
    97% of the plume's phase maximum) but the alpha=3 fraction is 0.47
    and fails. A straight step edge drives the response crest to
    exactly +-alpha px from the edge (the x-marginal of the hat is
    proportional to (1 - x^2) exp(-x^2 / 2), so the step response is
    extremal at |x| = alpha), which at alpha=3 puts the crest astride
    the 3 px cut: the pixel rings at distance 2.5 and 3.5 px carry
    equal magnitude and split the selection about 50/50 before the
    4.5 px ring (82% of crest) even enters. No rib geometry clears 80%;
    0.47 is the best of the layouts tried.
    """
    n = 256
    rect = (64, 192, 128, 48)
    grid = GridSpec(n, n)
    truth = make_phase(grid, PhantomSpec(kind="rib_step", peak=6.0,
                                         center=(128.0, 150.0),
                                         widths=(70.0, 70.0), rib_rect=rect))
    bdist = _rib_boundary_distance(n, rect)

    plane3 = cwt_plane(truth.field, 3.0, pad=True)
    w3 = np.abs(plane3.values)
    valid = plane3.valid()
    vals = w3[valid]
    k = max(1, int(round(0.01 * vals.size)))
    cut = np.partition(vals, vals.size - k)[vals.size - k]
    sel = valid & (w3 >= cut)
    frac = float((bdist[sel] <= 3.0).sum() / sel.sum())
    ok3 = frac >= 0.80

    plane100 = cwt_plane(truth.field, 100.0, pad=True)
    w100 = np.where(plane100.valid(), np.abs(plane100.values), -np.inf)
    iy, ix = np.unravel_index(int(np.argmax(w100)), w100.shape)
    d100 = float(bdist[iy, ix])
    ok100 = d100 > 10.0 and truth.field.values[iy, ix] > 3.0

    ok = ok3 and ok100
    line = report(
        "multi-scale localization", ok,
        f"alpha=3: top-1% within 3px = {frac:.3f} (>= 0.80); "
        f"alpha=100: peak at ({ix},{iy}), {d100:.1f}px from rib, "
        f"phase {truth.field.values[iy, ix]:.2f}")
    assert ok, line


def test_normalization_and_threshold_contracts():
    """The sweep's own planes, normalized and cut at 1%: every non-zero
    plane peaks at exactly 1 and no surviving value is below 0.01; an
    all-zero field gives all-zero planes with divisor 1.0."""
    grid = GridSpec(64, 64)
    truth = make_phase(grid, PhantomSpec(kind="rib_step", peak=4.0,
                                         widths=(12.0, 12.0),
                                         rib_rect=(24, 40, 16, 12)))
    params = CwtParams(scales=(2.0, 5.0, 10.0), threshold_fraction=0.01,
                       normalize=True)
    peaks = []
    floor = 1.0
    for _, plane, _ in cwt_sweep(truth, params):
        v = np.abs(plane.values[plane.valid()])
        peaks.append(float(v.max()))
        floor = min(floor, float(v[v > 0.0].min()))
    ok = all(abs(m - 1.0) <= 1e-12 for m in peaks)
    ok &= floor >= 0.01

    zero = ScalarField(grid, np.zeros(grid.shape))
    zero_ok = all(not plane.values.any() and divisor == 1.0
                  for _, plane, divisor in cwt_sweep(zero, params))
    ok &= zero_ok

    line = report(
        "normalization/threshold", ok,
        f"peaks {', '.join(f'{m:.15f}' for m in peaks)}; "
        f"surviving floor {floor:.4f} (>= 0.01); "
        f"zero field: zero planes, divisor 1.0: {zero_ok}")
    assert ok, line


def test_determinism_and_raster_round_trip(tmp_path, scan_workers):
    """Same config and seed twice gives byte-identical FGRID outputs;
    the format round-trips signed zeros, denormals, and the extreme
    finite exponents bit-exactly."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "grid.width = 64\n"
        "grid.height = 64\n"
        "phantom.sigma_x = 10\n"
        "phantom.sigma_y = 10\n"
        "phantom.peak = 1.0\n"
        "noise.sigma = 0.03\n"
        "demod.window_sigma = 5\n"
        "demod.step = 0.025\n"
        "demod.band_x_lo = 0.05\n"
        "demod.band_x_hi = 0.2\n"
        "demod.band_y_lo = -0.05\n"
        "demod.band_y_hi = 0.05\n"
        "cwt.scales = 2, 5\n"
        "render.enabled = false\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(["pipeline", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    grids = sorted(p.name for p in outs[0].glob("*.fgrid"))
    identical = bool(grids) and all(
        (outs[0] / g).read_bytes() == (outs[1] / g).read_bytes()
        for g in grids)

    tiny = np.finfo(np.float64).tiny
    big = np.finfo(np.float64).max
    specials = [0.0, -0.0, 5e-324, -5e-324, big, -big, tiny, -1.0 / 3.0]
    vals = np.array(specials * 8).reshape(8, 8)
    mask = np.ones((8, 8), dtype=bool)
    mask[3, 5] = False
    f = ScalarField(GridSpec(8, 8), np.where(mask, vals, 0.0), mask)
    path = tmp_path / "extreme.fgrid"
    write_field(path, f)
    back = read_field(path)
    bits_equal = np.array_equal(f.values.view(np.uint64),
                                back.values.view(np.uint64))
    bits_equal &= np.array_equal(back.mask, mask)

    ok = identical and bits_equal
    line = report(
        "determinism/raster io", ok,
        f"{len(grids)} fgrid files bit-identical across runs: {identical}; "
        f"extreme-value round trip exact: {bits_equal}")
    assert ok, line


def test_degenerate_inputs():
    """Constant phase yields zero planes, fully masked input raises,
    a sweep with a zero threshold fraction keeps the transform itself,
    and out-of-range scales are refused or warned about."""
    grid = GridSpec(32, 32)
    const = field_from_array(np.full(grid.shape, 1.3))
    worst = max(float(np.abs(cwt_plane(const, a, pad=True).values).max())
                for a in (2.0, 10.0))
    ok = worst <= 1e-10

    masked = ScalarField(grid, np.zeros(grid.shape),
                         np.zeros(grid.shape, dtype=bool))
    try:
        cwt_sweep(masked, CwtParams(scales=(3.0,)))
        raised = False
    except AllMaskedError:
        raised = True
    ok &= raised

    bumpy = field_from_array(np.sin(np.add.outer(np.arange(32.0),
                                                 np.arange(32.0) * 0.7)))
    stack = cwt_sweep(bumpy, CwtParams(scales=(2.0, 4.0),
                                       threshold_fraction=0.0,
                                       normalize=False, pad=False))
    identity = True
    for alpha, plane, _ in stack:
        # the smallest |W| is under 1e-3 of the peak, so a 1% cut would show
        want = brute_cwt_plane(bumpy.values, alpha)
        identity &= np.abs(plane.values - want).max() <= 1e-12 * np.abs(want).max()
    ok &= identity

    rejected = 0
    for bad in (0.0, -2.0):
        with pytest.raises(BadScaleError):
            cwt_plane(bumpy, bad)
        rejected += 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cwt_plane(bumpy, 0.5)
    warned = any(issubclass(c.category, AliasingWarning) for c in caught)
    ok &= rejected == 2 and warned

    line = report(
        "degenerate inputs", ok,
        f"constant-phase max |W| {worst:.1e}; all-masked raised: {raised}; "
        f"zero-fraction identity: {identity}; scales <= 0 rejected: "
        f"{rejected}/2; sub-pixel scale warned: {warned}")
    assert ok, line
