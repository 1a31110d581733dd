"""Command-line front end.

Subcommands map onto the pipeline stages:

  synth      render carrier fringe pairs from an analytic phantom
  demod      recover the unwrapped phase difference from two fringe images
  cwt        sweep the multi-scale transform over a recovered phase map
  render     rasterize any stored field as a heatmap or contour CSV
  pipeline   synth -> demod -> cwt -> render in one deterministic run

Exit codes: 0 success, 2 configuration error (bad keys, bad values,
malformed overrides), 3 I/O error (missing or corrupt files), 4 numeric
failure (degenerate inputs, empty masks, non-finite unwrap quality).

Configuration comes from an optional ``--config FILE``, repeatable
``--set key=value`` overrides, then ``--out``, ``demod``'s
``--reference``/``--deformed`` and ``cwt``'s ``--phase``, which set
out.dir and input.*. Every run but ``render`` echoes the fully resolved
configuration next to its outputs, so it re-runs from that echo.

``cwt`` and ``pipeline`` make the wavelet planes on the calling thread
while one worker thread writes each finished plane and renders the
phase and the display planes, at most OUTPUTS_WAITING outputs behind.
With one usable CPU no thread starts and each output is written as soon
as it is made. Either way the files, and the first error in order, are
the same.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .core import ScalarField, _overlap
from .cwt import DISPLAY_SCALES, cwt_sweep
from .errors import (
    ConfigError,
    CorruptHeaderError,
    FringescaleError,
    GridMismatchError,
    TruncatedPayloadError,
    UnsupportedFormatError,
)
from .fieldio import atomic_write_text, read_image, write_field
from .render import DEFAULT_CONTOUR_LEVELS, write_contour_csv, write_heatmap
from .synth import make_fringes, make_phase
from .wft import anchor_far_field, demodulate, relative_phase, unwrap

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# Finished outputs (a plane's write or a render) that may wait for the
# output thread while the sweep makes the next plane. On a 2-CPU x86 VM,
# plume_coarse512 calls left the sweep blocked behind the renders for a
# median 0.089 s at a bound of 1, 0.040 s at 2 and 0.010 s at 4; 8 saves
# 0.009 s more but holds up to twice the planes.
OUTPUTS_WAITING = 4

_IO_ERRORS = (OSError, UnsupportedFormatError, CorruptHeaderError,
              TruncatedPayloadError)


def _load_config(args: argparse.Namespace) -> cfgmod.ResolvedConfig:
    values: dict[str, object] = {}
    if args.config:
        try:
            values.update(cfgmod.parse_config_file(args.config))
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}")
    values.update(cfgmod.parse_override(item) for item in args.set or ())
    for key, value in vars(args).items():
        if key in cfgmod.SCHEMA and value is not None:
            values[key] = value
    return cfgmod.resolve(values)


def _ensure_out(rc: cfgmod.ResolvedConfig) -> Path:
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    return rc.out_dir


def _write_pair(rc: cfgmod.ResolvedConfig) -> tuple[ScalarField, ScalarField]:
    """Make the phantom's fringe pair, then write it and the true phase."""
    if rc.phantom is None:
        raise ConfigError("synth needs a phantom; input.* files were given")
    truth = make_phase(rc.grid, rc.phantom)
    pair = make_fringes(truth, rc.carrier, rc.noise)
    out = _ensure_out(rc)
    write_field(out / "reference.fgrid", pair.reference)
    write_field(out / "deformed.fgrid", pair.deformed)
    write_field(out / "phase_true.fgrid", truth.field)
    return pair.reference, pair.deformed


def cmd_synth(rc: cfgmod.ResolvedConfig) -> str:
    _write_pair(rc)
    return "wrote reference/deformed/phase_true"


def _read_pair(rc: cfgmod.ResolvedConfig) -> tuple[ScalarField, ScalarField]:
    """Read the measured fringe pair, check that both images share a grid
    and check the anchor rectangle against it, which is known only now."""
    if rc.input_reference is None:
        raise ConfigError("demod needs --reference and --deformed images")
    reference, deformed = read_image(rc.input_reference), read_image(rc.input_deformed)
    grid = reference.grid
    if deformed.grid != grid:
        raise GridMismatchError(
            f"reference grid {grid.width}x{grid.height} and deformed grid "
            f"{deformed.grid.width}x{deformed.grid.height} differ")
    if rc.anchor is not None and not grid.fits(rc.anchor):
        raise ConfigError(f"anchor rectangle {rc.anchor} does not fit grid "
                          f"{grid.width}x{grid.height}")
    return reference, deformed


def _write_phase(rc: cfgmod.ResolvedConfig, reference: ScalarField,
                 deformed: ScalarField) -> ScalarField:
    """The phase-recovery chain: ridge demod of both images, the wrapped
    relative phase, its quality-guided unwrap and the optional anchor.
    Writes phase.fgrid; the output directory is made only once the
    phase exists."""
    ref_phase = demodulate(reference, rc.demod).phase
    dfm_ridge = demodulate(deformed, rc.demod)
    phase = unwrap(relative_phase(dfm_ridge.phase, ref_phase),
                   quality=dfm_ridge.ridge_amplitude)
    if rc.anchor is not None:
        phase = anchor_far_field(phase, rc.anchor)
    write_field(_ensure_out(rc) / "phase.fgrid", phase.field)
    return phase.field


def cmd_demod(rc: cfgmod.ResolvedConfig) -> str:
    _write_phase(rc, *_read_pair(rc))
    return "wrote phase.fgrid"


def _render(out: Path, stem: str, field: ScalarField, levels: int) -> None:
    """Write stem.ppm (with its sidecar) and stem_contours.csv under out."""
    write_heatmap(out / f"{stem}.ppm", field)
    write_contour_csv(out / f"{stem}_contours.csv", field, levels)


def _write_planes(rc: cfgmod.ResolvedConfig, phase: ScalarField,
                  render: bool = False) -> int:
    """Sweep the phase and write each plane as the sweep makes it, then
    the manifest; return the plane count. With render, the phase and the
    display planes are rendered too, the phase first. The calling thread
    makes the planes while core._overlap writes and renders the finished
    ones, on a second thread when there is a second CPU. The output
    directory is made once the first plane exists, so a sweep refused at
    its first plane leaves none."""
    sweep = cwt_sweep(phase, rc.cwt)
    shown = _display_planes(rc.cwt.scales) if render else frozenset()
    lines = [f"planes {len(sweep)}", "normalized true",
             f"thresholded {'true' if rc.cwt.threshold_fraction > 0.0 else 'false'}"]

    def jobs():
        # each job binds its plane and names now, not when it runs
        if render:
            yield partial(_render, rc.out_dir, "phase", phase, rc.contour_levels)
        for i, (alpha, plane, divisor) in enumerate(sweep):
            if i == 0:
                out = _ensure_out(rc)
            stem = f"plane_{i:03d}_alpha{alpha:g}"
            lines.append(f"{i} {alpha:.17g} {stem}.fgrid {divisor:.17g}")
            yield partial(write_field, out / f"{stem}.fgrid", plane)
            if i in shown:
                yield partial(_render, out, stem, plane, rc.contour_levels)

    _overlap(jobs(), OUTPUTS_WAITING)
    atomic_write_text(rc.out_dir / "manifest.txt", "\n".join(lines) + "\n")
    return len(sweep)


def cmd_cwt(rc: cfgmod.ResolvedConfig) -> str:
    if rc.input_phase is None:
        raise ConfigError("cwt needs a --phase field")
    return f"wrote {_write_planes(rc, read_image(rc.input_phase))} planes + manifest.txt"


def cmd_render(args: argparse.Namespace) -> str:
    if args.levels < 1:
        raise ConfigError(f"contour level count must be >= 1, got {args.levels}")
    field = read_image(args.field)
    if args.style == "heatmap":
        write_heatmap(args.out_file, field)
    else:
        write_contour_csv(args.out_file, field, args.levels)
    return f"wrote {args.out_file}"


def _display_planes(scales: tuple[float, ...]) -> frozenset[int]:
    """The index of the grid scale nearest each display scale."""
    scales = np.asarray(scales)
    return frozenset(int(np.argmin(np.abs(scales - want)))
                     for want in DISPLAY_SCALES)


def cmd_pipeline(rc: cfgmod.ResolvedConfig) -> str:
    phase = _write_phase(rc, *(_write_pair(rc) if rc.phantom else _read_pair(rc)))
    return f"wrote phase.fgrid + {_write_planes(rc, phase, rc.render_enabled)} planes"


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--out", dest="out.dir", metavar="DIR", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fringescale",
        description="Carrier fringe synthesis, phase demodulation, and "
                    "multi-scale wavelet analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a fringe pair from a phantom")
    _add_config_args(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("demod", help="recover phase from a fringe pair")
    _add_config_args(p)
    p.add_argument("--reference", dest="input.reference", metavar="FILE",
                   help="reference fringe image")
    p.add_argument("--deformed", dest="input.deformed", metavar="FILE",
                   help="deformed fringe image")
    p.set_defaults(fn=cmd_demod)

    p = sub.add_parser("cwt", help="multi-scale sweep over a phase map")
    _add_config_args(p)
    p.add_argument("--phase", dest="input.phase", metavar="FILE",
                   help="input field (.fgrid)")
    p.set_defaults(fn=cmd_cwt)

    p = sub.add_parser("render", help="rasterize a stored field")
    p.add_argument("--field", metavar="FILE", required=True,
                   help="input field (.fgrid or .pgm)")
    p.add_argument("--style", choices=("heatmap", "contours"),
                   default="heatmap")
    p.add_argument("--levels", type=int, default=DEFAULT_CONTOUR_LEVELS,
                   help="contour level count")
    p.add_argument("out_file", metavar="OUTPUT")

    p = sub.add_parser("pipeline", help="synth + demod + cwt + render")
    _add_config_args(p)
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. A config subcommand is a function of its
    resolved config that returns its message; its echo is written here."""
    args = build_parser().parse_args(argv)
    stage = args.command
    try:
        if stage == "render":
            print(f"render: {cmd_render(args)}")
            return EXIT_OK
        rc = _load_config(args)
        msg = args.fn(rc)
        atomic_write_text(rc.out_dir / "config_echo.txt", cfgmod.echo_text(rc))
        print(f"{stage}: {msg} to {rc.out_dir}")
        return EXIT_OK
    except ConfigError as e:
        print(f"fringescale {stage}: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except _IO_ERRORS as e:
        print(f"fringescale {stage}: i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except FringescaleError as e:
        print(f"fringescale {stage}: numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
