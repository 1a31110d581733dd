"""Run configuration: key=value text with full-default materialization.

A config file holds one ``key = value`` pair per line; a ``#`` at the
start of a line or after whitespace starts a comment (``run#1`` is a
value) and blank lines are ignored. Unknown keys are errors, so typos
fail loudly. Every run writes back a fully resolved echo in the same
format with every default materialized (including values derived from
others, like the ridge band around the carrier frequency, and paths made
absolute), so any output directory re-runs from its echo alone, from any
directory; a value whose echo line would not read back as itself is refused.

The noise generator is pinned: ``noise.rng`` only accepts philox4x64
(numpy's counter-based Philox bit generator) and is echoed so output
provenance records the algorithm.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

from .core import CarrierSpec, GridSpec
from .cwt import CwtParams, default_scale_grid
from .errors import ConfigError, FringescaleError
from .render import DEFAULT_CONTOUR_LEVELS
from .synth import NoiseSpec, PhantomSpec, RNG_NAME, default_center
from .wft import DemodParams


def _parse_bool(s: str) -> bool:
    t = s.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in s.split(",")) if s.strip() else ()


_PARSERS = {
    "str": lambda s: s.strip(),
    "int": lambda s: int(s.strip(), 0),
    "float": lambda s: float(s.strip()),
    "bool": _parse_bool,
    "floats": _parse_floats,
}

# key -> (type name, default). None defaults are derived during resolve;
# a default the library already defines is read from it.
SCHEMA: dict[str, tuple[str, object]] = {
    "run.label": ("str", ""),
    "out.dir": ("str", "out"),
    "grid.width": ("int", 512),
    "grid.height": ("int", 512),
    "phantom.kind": ("str", "gaussian_plume"),
    "phantom.peak": ("float", PhantomSpec.peak),
    "phantom.center_x": ("float", None),
    "phantom.center_y": ("float", None),
    "phantom.sigma_x": ("float", PhantomSpec.widths[0]),
    "phantom.sigma_y": ("float", PhantomSpec.widths[1]),
    "phantom.rib_x0": ("int", 0),
    "phantom.rib_y0": ("int", 0),
    "phantom.rib_w": ("int", 0),
    "phantom.rib_h": ("int", 0),
    "input.reference": ("str", ""),
    "input.deformed": ("str", ""),
    "input.phase": ("str", ""),
    "carrier.fx": ("float", 0.125),
    "noise.sigma": ("float", NoiseSpec.sigma),
    "noise.seed": ("int", NoiseSpec.seed),
    "noise.rng": ("str", RNG_NAME),
    "demod.window_sigma": ("float", DemodParams.window_sigma),
    "demod.band_x_lo": ("float", None),
    "demod.band_x_hi": ("float", None),
    "demod.band_y_lo": ("float", DemodParams.band_y[0]),
    "demod.band_y_hi": ("float", DemodParams.band_y[1]),
    "demod.step": ("float", DemodParams.step),
    "demod.anchor_x0": ("int", -1),
    "demod.anchor_y0": ("int", -1),
    "demod.anchor_w": ("int", 0),
    "demod.anchor_h": ("int", 0),
    "cwt.scales": ("floats", ()),
    "cwt.threshold_fraction": ("float", CwtParams.threshold_fraction),
    "render.enabled": ("bool", True),
    "render.contour_levels": ("int", DEFAULT_CONTOUR_LEVELS),
}


def _typed(key: str, value: str) -> tuple[str, object]:
    """Type one key's text by the schema; unknown keys are errors."""
    key = key.strip()
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return key, _PARSERS[SCHEMA[key][0]](value)
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {e}")


_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse key=value lines into a typed dict; unknown keys are errors."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        try:
            key, typed = _typed(key, value)
        except ConfigError as e:
            raise ConfigError(f"{source}:{lineno}: {e}")
        out[key] = typed
    return out


def parse_config_file(path: str | Path) -> dict[str, object]:
    return parse_config_text(Path(path).read_text(), source=str(path))


def parse_override(item: str) -> tuple[str, object]:
    """Parse one command-line ``key=value`` override."""
    if "=" not in item:
        raise ConfigError(f"override must look like key=value, got {item!r}")
    key, _, value = item.partition("=")
    return _typed(key, value)


@dataclass(frozen=True)
class ResolvedConfig:
    """Fully materialized run parameters ready for the pipeline stages."""

    out_dir: Path
    grid: GridSpec
    phantom: PhantomSpec | None
    input_reference: Path | None
    input_deformed: Path | None
    input_phase: Path | None
    carrier: CarrierSpec
    noise: NoiseSpec
    demod: DemodParams
    anchor: tuple[int, int, int, int] | None
    cwt: CwtParams
    render_enabled: bool
    contour_levels: int
    raw: dict[str, object]


def resolve(values: dict[str, object]) -> ResolvedConfig:
    """Merge user values over defaults and build the parameter bundles."""
    for key in values:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = {key: default for key, (_, default) in SCHEMA.items()}
    cfg.update(values)
    for key in ("out.dir", "input.reference", "input.deformed", "input.phase"):
        if cfg[key]:  # against the working directory; empty means unset
            cfg[key] = os.path.abspath(cfg[key])
    if cfg["noise.rng"] != RNG_NAME:
        raise ConfigError(
            f"noise.rng is pinned to {RNG_NAME!r}, got {cfg['noise.rng']!r}")
    try:
        grid = GridSpec(width=cfg["grid.width"], height=cfg["grid.height"])
        carrier = CarrierSpec(fx=cfg["carrier.fx"])
        noise = NoiseSpec(sigma=cfg["noise.sigma"], seed=cfg["noise.seed"])

        for key, center in zip(("phantom.center_x", "phantom.center_y"),
                               default_center(grid)):
            if cfg[key] is None:
                cfg[key] = center
        kind = cfg["phantom.kind"]
        ref_in = cfg["input.reference"]
        def_in = cfg["input.deformed"]
        if bool(ref_in) != bool(def_in):
            raise ConfigError(
                "input.reference and input.deformed must be given together")
        phantom = None
        if not ref_in:
            phantom = PhantomSpec(
                kind=kind,
                peak=cfg["phantom.peak"],
                center=(cfg["phantom.center_x"], cfg["phantom.center_y"]),
                widths=(cfg["phantom.sigma_x"], cfg["phantom.sigma_y"]),
                rib_rect=(cfg["phantom.rib_x0"], cfg["phantom.rib_y0"],
                          cfg["phantom.rib_w"], cfg["phantom.rib_h"])
                if kind == "rib_step" else None,
            )
            if phantom.rib_rect is not None and not grid.fits(phantom.rib_rect):
                raise ConfigError(f"rib_rect {phantom.rib_rect} does not fit "
                                  f"grid {grid.width}x{grid.height}")

        if None in (cfg["demod.band_x_lo"], cfg["demod.band_x_hi"]):
            lo, hi = DemodParams.for_carrier(carrier.fx).band_x
            if cfg["demod.band_x_lo"] is None:
                cfg["demod.band_x_lo"] = lo
            if cfg["demod.band_x_hi"] is None:
                cfg["demod.band_x_hi"] = hi
        demod = DemodParams(
            band_x=(cfg["demod.band_x_lo"], cfg["demod.band_x_hi"]),
            band_y=(cfg["demod.band_y_lo"], cfg["demod.band_y_hi"]),
            step=cfg["demod.step"],
            window_sigma=cfg["demod.window_sigma"],
        )
        anchor = (cfg["demod.anchor_x0"], cfg["demod.anchor_y0"],
                  cfg["demod.anchor_w"], cfg["demod.anchor_h"])
        x0, y0, w, h = anchor
        if (x0 >= 0) != (y0 >= 0):
            raise ConfigError(
                "demod.anchor_x0 and demod.anchor_y0 must be given together")
        if x0 < 0:
            anchor = None
        elif w < 1 or h < 1:
            raise ConfigError(
                f"demod.anchor_w and demod.anchor_h must be >= 1, got {w}x{h}")
        elif phantom is not None and not grid.fits(anchor):
            # measured inputs are checked by the CLI once they are read
            raise ConfigError(f"anchor rectangle {anchor} does not fit grid "
                              f"{grid.width}x{grid.height}")

        scales = tuple(cfg["cwt.scales"]) or default_scale_grid()
        cfg["cwt.scales"] = scales
        cwt = CwtParams(scales=scales,
                        threshold_fraction=cfg["cwt.threshold_fraction"])
        if cfg["render.contour_levels"] < 1:
            raise ConfigError("render.contour_levels must be >= 1")
        for key, (type_name, _) in SCHEMA.items():
            given = values.get(key, cfg[key])  # a path: as given and made absolute
            if type_name == "str" and not (_reads_back(key, given)
                                           and _reads_back(key, cfg[key])):
                raise ConfigError(f"{key} value {given!r} would not read "
                                  "back from the config echo")
    except ConfigError:
        raise
    except (FringescaleError, ValueError) as e:
        raise ConfigError(str(e))

    return ResolvedConfig(
        out_dir=Path(cfg["out.dir"]),
        grid=grid,
        phantom=phantom,
        input_reference=Path(ref_in) if ref_in else None,
        input_deformed=Path(def_in) if def_in else None,
        input_phase=Path(cfg["input.phase"]) if cfg["input.phase"] else None,
        carrier=carrier,
        noise=noise,
        demod=demod,
        anchor=anchor,
        cwt=cwt,
        render_enabled=cfg["render.enabled"],
        contour_levels=cfg["render.contour_levels"],
        raw=cfg,
    )


def _format_value(type_name: str, value: object) -> str:
    if type_name == "bool":
        return "true" if value else "false"
    if type_name == "floats":
        return ",".join(repr(float(v)) for v in value)
    if type_name == "float":
        return repr(float(value))
    return str(value)


def _echo_line(key: str, value: object) -> str:
    return f"{key} = {_format_value(SCHEMA[key][0], value)}"


def _reads_back(key: str, value: object) -> bool:
    """Whether key's echo line parses back to value: a newline, a
    whitespace-led ``#`` or an outer space in a text value would not."""
    try:
        return parse_config_text(_echo_line(key, value)) == {key: value}
    except ConfigError:
        return False


def echo_text(rc: ResolvedConfig) -> str:
    """Render the fully resolved configuration back to key=value lines."""
    lines = ["# resolved configuration (all defaults materialized)"]
    lines += [_echo_line(key, rc.raw[key]) for key in SCHEMA]
    return "\n".join(lines) + "\n"
