"""Span recorder for the traced benchmark run.

install() wraps each public layer function listed in LAYERS and puts
the wrapper into every ``fringescale.*`` module namespace that binds the
original object, so calls through the CLI (``cli.demodulate``), across
modules (``render.marching_squares``) and within a module all pass
through it. Nothing under ``src/`` is edited, and the CLI's stage chain
is not spelled out here: whichever module ends up calling a layer
function, the call is recorded.

Each call records one span: name, start, end and parent. Spans stay in
memory and are turned into metrics only when the run ends. What a
counter needs from a call's arguments or return value is captured after
the span's end time is taken, so it is not part of the span; captures
that would cost more than a few attribute reads keep references and are
evaluated at the end.

Each wrapper also times its own work outside the span it records (making
the span, starting and stopping tracemalloc, the capture); the sum over
all spans is trace.overhead_s. That time lies inside the parent's span.
Not in it: the extra Python call frame of each wrapper, and what
tracemalloc adds inside the ``cwt.sweep`` span while it tracks
allocations.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import pkgutil
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    capture: Any = None
    alloc_peak: int = 0
    # the wrapper's own time outside [start, end]: set-up, tracemalloc
    # start and stop, capture
    overhead: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _field(x):
    """The ScalarField of a PhaseMap or RidgeResult, or x itself."""
    x = getattr(x, "phase", x)
    return getattr(x, "field", x)


def _cwt_sizes(args, kwargs, ret):
    shape = _field(_arg(args, kwargs, 0, "phase")).values.shape
    params = _arg(args, kwargs, 1, "params")
    pad = math.ceil(2.0 * max(params.scales)) if params.pad else 0
    return len(ret.planes), (shape[0] + 2 * pad) * (shape[1] + 2 * pad)


# (module, function, span name, capture(args, kwargs, ret), trace allocations)
LAYERS: tuple[tuple[str, str, str, Callable | None, bool], ...] = (
    ("cli", "main", "cli.main", None, False),
    ("synth", "make_phase", "synth.make_phase", None, False),
    ("synth", "make_fringes", "synth.make_fringes", None, False),
    ("wft", "demodulate", "wft.demodulate",
     lambda a, k, r: (_arg(a, k, 0, "img"), _arg(a, k, 1, "params"), r), False),
    ("wft", "relative_phase", "wft.relative_phase", lambda a, k, r: r, False),
    ("wft", "unwrap", "wft.unwrap", lambda a, k, r: (_arg(a, k, 0, "p"), r), False),
    ("wft", "anchor_far_field", "wft.anchor", None, False),
    ("cwt", "cwt_sweep", "cwt.sweep", _cwt_sizes, True),
    ("contours", "marching_squares", "contours.marching_squares",
     lambda a, k, r: (len(r), sum(map(len, r))), False),
    ("render", "write_contour_csv", "render.contour_csv", None, False),
    ("render", "write_heatmap", "render.heatmap", None, False),
    ("fieldio", "write_field", "fieldio.write",
     lambda a, k, r: os.stat(_arg(a, k, 0, "path")).st_size, False),
    ("fieldio", "read_field", "fieldio.read", None, False),
)


class Tracer:
    """Records spans for the layer functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn, name: str, capture, trace_alloc: bool):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            if trace_alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if trace_alloc:
                    span.alloc_peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if capture is not None:
                try:
                    span.capture = capture(args, kwargs, ret)
                except Exception as e:  # a changed signature must not fail the run
                    print(f"trace: cannot capture {name}: {e!r}", file=sys.stderr)
            span.overhead = span.start - entered + time.perf_counter() - span.end
            return ret

        return wrapper

    def install(self) -> None:
        import fringescale
        for info in pkgutil.iter_modules(fringescale.__path__):
            if not info.name.startswith("_"):
                importlib.import_module(f"fringescale.{info.name}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fringescale"
                                         or n.startswith("fringescale."))]
        for mod, fname, name, capture, trace_alloc in LAYERS:
            orig = getattr(sys.modules.get(f"fringescale.{mod}"), fname, None)
            if orig is None:
                self.missing.append(f"fringescale.{mod}.{fname}")
                continue
            wrapper = self._wrap(orig, name, capture, trace_alloc)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()


def _edge_share(img, params, ridge) -> float:
    """Share of interior valid pixels whose ridge sits on the band edge."""
    valid = _field(img).valid()
    m = math.ceil(3 * params.window_sigma)
    inner = np.zeros_like(valid)
    inner[m:-m, m:-m] = True
    sel = inner & valid
    if not sel.any():
        return 0.0
    from fringescale.wft import frequency_grid
    tol = 1e-6 * params.step
    edge = np.zeros_like(sel)
    for freq, band in ((ridge.freq_x.values, params.band_x),
                       (ridge.freq_y.values, params.band_y)):
        for f in frequency_grid(band, params.step)[[0, -1]]:
            edge |= np.abs(freq - f) < tol
    return float((edge & sel).sum() / sel.sum())


def residue_count(wrapped) -> int:
    """2x2 loops of valid pixels whose wrapped differences sum to +-2 pi."""
    f = _field(wrapped)
    v, ok = f.values, f.valid()

    def wrap(d):
        return d - 2.0 * np.pi * np.round(d / (2.0 * np.pi))

    a, b, c, d = v[:-1, :-1], v[:-1, 1:], v[1:, 1:], v[1:, :-1]
    cell = ok[:-1, :-1] & ok[:-1, 1:] & ok[1:, 1:] & ok[1:, :-1]
    loop = wrap(b - a) + wrap(c - b) + wrap(d - c) + wrap(a - d)
    return int((cell & (np.abs(loop) > np.pi)).sum())


def _unwrap_turns(p_in, p_out) -> int:
    f_in, f_out = _field(p_in), _field(p_out)
    ok = f_in.valid()
    if not ok.any():
        return 0
    k = np.rint((f_out.values[ok] - f_in.values[ok]) / (2.0 * np.pi))
    return int(np.abs(k).max())


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from recorded spans."""
    from fringescale.wft import frequency_grid
    out: dict[str, float] = {}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    for _, _, name, _, _ in LAYERS:
        out[f"{name}_s"] = sum(s.duration for s in by_name.get(name, ()))

    tops = [i for i, s in enumerate(spans) if s.parent == -1]
    child_time = sum(s.duration for s in spans if s.parent in tops)
    out["cli.self_s"] = sum(spans[i].duration for i in tops) - child_time
    out["trace.overhead_s"] = sum(s.overhead for s in spans)

    captures = {name: [s.capture for s in by_name.get(name, ()) if s.capture is not None]
                for _, _, name, _, _ in LAYERS}
    demods = captures["wft.demodulate"]
    out["wft.band_points"] = max((len(frequency_grid(p.band_x, p.step))
                                  * len(frequency_grid(p.band_y, p.step))
                                  for _, p, _ in demods), default=0)
    out["wft.ridge_edge_share"] = max((_edge_share(*c) for c in demods), default=0.0)
    out["wft.residue_count"] = sum(residue_count(r) for r in captures["wft.relative_phase"])
    out["wft.unwrap_turns"] = max((_unwrap_turns(*c) for c in captures["wft.unwrap"]),
                                  default=0)
    sweeps = captures["cwt.sweep"]
    out["cwt.planes"] = sum(n for n, _ in sweeps)
    out["cwt.padded_px"] = sum(px for _, px in sweeps)
    out["cwt.alloc_peak_mb"] = max((s.alloc_peak for s in by_name.get("cwt.sweep", ())),
                                   default=0) / 2 ** 20
    contours = captures["contours.marching_squares"]
    out["contours.polylines"] = sum(n for n, _ in contours)
    out["render.csv_rows"] = sum(rows for _, rows in contours)
    out["fieldio.bytes_written"] = sum(captures["fieldio.write"])
    return out
