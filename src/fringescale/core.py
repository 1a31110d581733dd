"""Grid, field, and phase primitives shared by every pipeline stage.

Conventions used throughout the package:

* rasters are row-major with the origin at the top-left corner, x growing
  rightward along columns and y growing downward along rows, so pixel
  (x, y) is ``values[y, x]``;
* invalid pixels always hold the value 0 exactly, which lets FFT stages
  run on the raw array, while the boolean mask travels alongside for any
  statistic that must ignore them;
* fields are immutable once constructed (arrays are copied and marked
  read-only), so every operation returns a new object.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass

import numpy as np

from .errors import AllMaskedError, GridMismatchError

MIN_GRID = 8
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """Raster dimensions in pixels."""

    width: int
    height: int

    def __post_init__(self):
        if not (isinstance(self.width, (int, np.integer))
                and isinstance(self.height, (int, np.integer))):
            raise ValueError("grid dimensions must be integers")
        if self.width < MIN_GRID or self.height < MIN_GRID:
            raise ValueError(
                f"grid must be at least {MIN_GRID}x{MIN_GRID}, "
                f"got {self.width}x{self.height}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def npixels(self) -> int:
        return self.width * self.height

    def fits(self, rect: tuple[int, int, int, int]) -> bool:
        """True when the rectangle (x0, y0, w, h) is non-empty and inside."""
        x0, y0, w, h = rect
        return (w > 0 and h > 0 and x0 >= 0 and y0 >= 0
                and x0 + w <= self.width and y0 + h <= self.height)


def _frozen_array(a: np.ndarray, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScalarField:
    """One float64 value per pixel plus an optional validity mask.

    The mask is True where the pixel is valid. Masked-out pixels must
    hold 0 exactly; the constructor rejects anything else rather than
    silently rewriting data.
    """

    grid: GridSpec
    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        vals = _frozen_array(self.values, np.float64)
        if vals.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {vals.shape} does not match grid {self.grid.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)
        if self.mask is not None:
            m = _frozen_array(self.mask, bool)
            if m.shape != self.grid.shape:
                raise GridMismatchError(
                    f"mask shape {m.shape} does not match grid {self.grid.shape}")
            if np.any(vals[~m] != 0.0):
                raise ValueError("masked-out pixels must hold the value 0")
            object.__setattr__(self, "mask", m)

    @classmethod
    def _adopt(cls, grid: GridSpec, values: np.ndarray,
               mask: np.ndarray | None) -> "ScalarField":
        """Wrap values without a copy or a check, for a stage that has
        just made them: a C-contiguous float64 array of grid's shape that
        nothing else holds, finite, and 0 wherever mask (a read-only
        array or None) is False. values is made read-only here."""
        values.setflags(write=False)
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "values", values)
        object.__setattr__(field, "mask", mask)
        return field

    def valid(self) -> np.ndarray:
        """Boolean validity array (all True when there is no mask)."""
        if self.mask is None:
            return np.ones(self.grid.shape, dtype=bool)
        return self.mask


def field_from_array(values: np.ndarray,
                     mask: np.ndarray | None = None) -> ScalarField:
    """Build a ScalarField deriving the grid from the array shape."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError("field arrays must be 2D")
    h, w = values.shape
    return ScalarField(GridSpec(width=w, height=h), values, mask)


@dataclass(frozen=True)
class CarrierSpec:
    """Horizontal cosine carrier: I(x, y) = 1 + cos(2 pi fx x + phi)."""

    fx: float

    def __post_init__(self):
        if not (0.0 < self.fx < 0.5):
            raise ValueError(f"carrier fx must lie in (0, 0.5), got {self.fx}")


@dataclass(frozen=True)
class PhaseMap:
    """A phase field in radians, wrapped to (-pi, pi] or unwrapped.

    It holds no run parameters: a run's config_echo.txt records every
    one of them.
    """

    field: ScalarField
    wrapped: bool

    def __post_init__(self):
        if self.wrapped:
            v = self.field.values[self.field.valid()]
            if v.size and (v.min() <= -np.pi or v.max() > np.pi):
                raise ValueError("wrapped phase values must lie in (-pi, pi]")

    @property
    def grid(self) -> GridSpec:
        return self.field.grid


def wrap_phase(x):
    """Wrap angles to the half-open interval (-pi, pi].

    Accepts scalars or arrays. The formula pi - mod(pi - x, 2 pi) lands
    exactly in (-pi, pi]; a final guard repairs the one floating-point
    corner where mod returns 2 pi and the result would touch -pi.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.pi - np.mod(np.pi - x, TWO_PI)
    out = np.where(out <= -np.pi, out + TWO_PI, out)
    if out.ndim == 0:
        return float(out)
    return out


def next_fast_len(n: int) -> int:
    """The smallest length >= n with no prime factor above 5, the one rule
    for every padded FFT here; scipy.fft.next_fast_len's for real input."""
    m = max(n, 1)
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _usable_cpus() -> int:
    """CPUs this process may run on: the threads of the ridge scan, and
    whether _overlap runs its jobs on a second thread."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _share(work, parts) -> list:
    """work(p) for each p in parts, the last on the calling thread and the
    others on worker threads that start here and are joined before it
    returns, so one part starts no thread. Returns their results in order.
    Each worker runs in a copy of the caller's context, so under its
    np.errstate."""
    with ThreadPoolExecutor(max(1, len(parts) - 1)) as pool:
        futures = [pool.submit(copy_context().run, work, p) for p in parts[:-1]]
        last = work(parts[-1])
        return [future.result() for future in futures] + [last]


def _overlap(jobs, depth: int) -> None:
    """Run each job, a callable of no arguments, that the iterator jobs
    yields, in order. With two or more usable CPUs the calling thread
    advances jobs while one worker thread from _share runs the jobs made
    so far, at most depth of them waiting; with one, each job runs on
    the calling thread as soon as it is made. A job that raises stops
    the run either way: no later job runs, and its error is raised here
    in place of any that advancing jobs raised later, so which jobs ran
    and what is raised do not depend on the CPU count."""
    if _usable_cpus() < 2:
        for job in jobs:
            job()
        return
    waiting, failed = queue.Queue(depth), []

    def make():
        try:
            for job in jobs:
                waiting.put(job)
                if failed:
                    break
        finally:
            waiting.put(None)  # the worker stops at it

    def use():
        while (job := waiting.get()) is not None:
            if not failed:  # after a failure, drain so that put never blocks
                try:
                    job()
                except BaseException as e:
                    failed.append(e)

    try:
        _share(lambda side: side(), (use, make))
    except BaseException:
        if not failed:
            raise
    if failed:
        raise failed[0]


def masked_extrema(f: ScalarField) -> tuple[float, float]:
    """(min, max) over valid pixels. Raises AllMaskedError when none exist."""
    if f.mask is None:
        v = f.values
    elif f.mask.any():
        v = f.values[f.mask]
    else:
        raise AllMaskedError("field has no valid pixels")
    return float(v.min()), float(v.max())

