import ast
import bisect
import math
import pathlib
import threading
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fringescale
from fringescale import (
    AllMaskedError,
    GridMismatchError,
    GridSpec,
    PhaseMap,
    ScalarField,
    field_from_array,
    masked_extrema,
    wrap_phase,
)
from fringescale.core import TWO_PI, _share, next_fast_len


def wrap_oracle(x: float) -> float:
    """Independent reference: subtract whole turns until in (-pi, pi]."""
    k = math.floor((x + math.pi) / TWO_PI)
    out = x - TWO_PI * k
    if out > math.pi:
        out -= TWO_PI
    if out <= -math.pi:
        out += TWO_PI
    return out


class TestWrapPhase:
    # frozen from wrap_oracle
    CASES = [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3 * math.pi, math.pi),
        (-3 * math.pi, math.pi),
        (math.pi + 0.1, -math.pi + 0.1),
        (7.0, 7.0 - TWO_PI),
        (-7.0, TWO_PI - 7.0),
        (100.0, 100.0 - 16 * TWO_PI),
    ]

    @pytest.mark.parametrize("x,expected", CASES)
    def test_frozen_cases(self, x, expected):
        assert wrap_phase(x) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_matches_oracle(self, x):
        got = wrap_phase(x)
        want = wrap_oracle(x)
        # both sit in (-pi, pi]; compare on the circle
        assert abs(wrap_oracle(got - want)) < 1e-6

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_range(self, x):
        out = wrap_phase(x)
        assert -math.pi < out <= math.pi

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_idempotent(self, x):
        once = wrap_phase(x)
        assert wrap_phase(once) == once

    @given(st.floats(min_value=-100.0, max_value=100.0),
           st.integers(min_value=-5, max_value=5))
    def test_periodic(self, x, k):
        assert wrap_phase(x + k * TWO_PI) == pytest.approx(wrap_phase(x), abs=1e-9)

    def test_array_input(self):
        x = np.array([[0.0, 4.0], [-4.0, 10.0]])
        out = wrap_phase(x)
        assert out.shape == x.shape
        assert out[0, 1] == pytest.approx(4.0 - TWO_PI)

    def test_scalar_returns_float(self):
        assert isinstance(wrap_phase(1.0), float)


class TestGridSpec:
    def test_shape_is_rows_cols(self):
        g = GridSpec(width=12, height=8)
        assert g.shape == (8, 12)
        assert g.npixels == 96

    @pytest.mark.parametrize("w,h", [(7, 8), (8, 7), (0, 8), (-1, 8)])
    def test_too_small(self, w, h):
        with pytest.raises(ValueError):
            GridSpec(width=w, height=h)

    def test_non_integer(self):
        with pytest.raises(ValueError):
            GridSpec(width=8.5, height=8)


class TestScalarField:
    def test_values_copied_and_frozen(self):
        a = np.zeros((8, 8))
        f = field_from_array(a)
        a[0, 0] = 99.0
        assert f.values[0, 0] == 0.0
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_shape_mismatch(self):
        with pytest.raises(GridMismatchError):
            ScalarField(GridSpec(8, 8), np.zeros((8, 9)))

    def test_rejects_nan(self):
        a = np.zeros((8, 8))
        a[3, 3] = np.nan
        with pytest.raises(ValueError):
            field_from_array(a)

    def test_rejects_nonzero_masked_pixel(self):
        a = np.ones((8, 8))
        m = np.ones((8, 8), dtype=bool)
        m[2, 2] = False
        with pytest.raises(ValueError, match="hold the value 0"):
            field_from_array(a, m)

    def test_masked_zero_ok(self):
        a = np.ones((8, 8))
        m = np.ones((8, 8), dtype=bool)
        m[2, 2] = False
        a[2, 2] = 0.0
        f = field_from_array(a, m)
        assert int(f.valid().sum()) == 63

    def test_valid_without_mask(self):
        f = field_from_array(np.zeros((8, 8)))
        assert f.valid().all()
        assert int(f.valid().sum()) == 64


class TestMaskedExtrema:
    def test_brute_force_agreement(self, rng):
        a = rng.normal(size=(10, 10))
        m = rng.random((10, 10)) > 0.4
        a[~m] = 0.0
        for mask in (m, None):  # None: no mask, every pixel valid
            f = field_from_array(a, mask)
            lo, hi = masked_extrema(f)
            vals = [a[y, x] for y in range(f.grid.height)
                    for x in range(f.grid.width) if mask is None or mask[y, x]]
            assert lo == min(vals)
            assert hi == max(vals)

    def test_all_masked_raises(self):
        f = field_from_array(np.zeros((8, 8)), np.zeros((8, 8), dtype=bool))
        with pytest.raises(AllMaskedError):
            masked_extrema(f)


class TestPhaseMap:
    def test_wrapped_range_enforced(self):
        with pytest.raises(ValueError):
            PhaseMap(field_from_array(np.full((8, 8), 4.0)), wrapped=True)

    def test_wrapped_boundary_pi_allowed(self):
        PhaseMap(field_from_array(np.full((8, 8), np.pi)), wrapped=True)

    def test_unwrapped_unrestricted(self):
        PhaseMap(field_from_array(np.full((8, 8), 40.0)), wrapped=False)

    def test_masked_values_ignored_by_range_check(self):
        a = np.zeros((8, 8))
        m = np.zeros((8, 8), dtype=bool)
        m[0, 0] = True
        PhaseMap(field_from_array(a, m), wrapped=True)


class TestNextFastLen:
    @staticmethod
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    def test_smallest_smooth_length_at_least_n(self):
        lengths = [m for m in range(1, 8192) if self.smooth(m)]
        for n in range(1, 4097):
            got = next_fast_len(n)
            assert got >= n and self.smooth(got), n
            assert got == lengths[bisect.bisect_left(lengths, n)], n

    def test_matches_scipy(self):
        sfft = pytest.importorskip("scipy.fft")
        for n in range(1, 4097):
            assert next_fast_len(n) == sfft.next_fast_len(n, real=True), n


class TestShare:
    def test_results_in_part_order(self):
        # the first parts finish last, so completion order is reversed
        def work(p):
            time.sleep(0.01 * (4 - p))
            return p * p
        assert _share(work, range(5)) == [0, 1, 4, 9, 16]
        assert _share(lambda s: s.stop, [slice(0, 2), slice(2, 7)]) == [2, 7]

    def test_worker_exception_reaches_the_caller(self, thread_starts):
        before = threading.active_count()

        def work(p):
            if p == 0:  # a worker's part; the calling thread takes the last
                raise ValueError("part 0")
            return p
        with pytest.raises(ValueError, match="part 0"):
            _share(work, range(3))
        assert thread_starts and threading.active_count() == before

    def test_workers_run_under_the_callers_errstate(self, thread_starts):
        with np.errstate(all="raise"):
            want = np.geterr()
            got = _share(lambda p: np.geterr(), range(3))
        assert thread_starts
        assert want != np.geterr() and got == [want] * 3

    @pytest.mark.parametrize("parts", [[0], range(1)])
    def test_one_part_starts_no_thread(self, thread_starts, parts):
        assert _share(lambda p: threading.current_thread(), parts) == \
            [threading.current_thread()]
        assert not thread_starts

    def test_no_thread_alive_on_return(self, thread_starts):
        before = threading.active_count()
        assert _share(lambda p: time.sleep(0.01), range(4)) == [None] * 4
        assert 1 <= len(thread_starts) <= 3
        assert not any(t.is_alive() for t in thread_starts)
        assert threading.active_count() == before


def test_every_exported_name_resolves():
    namespace = {}
    exec("from fringescale import *", namespace)
    assert set(fringescale.__all__) <= namespace.keys()


def test_only_core_imports_threads():
    # every worker thread lives for one core._share call; a module that
    # imported a thread or executor API could hold one past it
    modules = {}
    for path in sorted(pathlib.Path(fringescale.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] in ("concurrent", "threading"):
                    modules.setdefault(path.name, set()).add(name)
    assert modules == {"core.py": {"concurrent.futures"}}
