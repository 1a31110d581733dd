"""Carrier fringe synthesis, phase demodulation, and multi-scale analysis.

The package covers one workflow end to end: render a synthetic fringe
pair from an analytic phase phantom, recover the phase difference with a
windowed Fourier ridge demodulator plus reliability-guided unwrapping, sweep
an FFT-accelerated Mexican hat wavelet transform over the result, and
write everything out as portable grids, heatmaps, and contour CSVs. The
``fringescale`` command line drives the same stages; see the README.
"""

from .core import (
    CarrierSpec,
    GridSpec,
    PhaseMap,
    ScalarField,
    field_from_array,
    masked_extrema,
    wrap_phase,
)
from .cwt import (
    CwtParams,
    cwt_plane,
    cwt_sweep,
    default_scale_grid,
)
from .errors import (
    AliasingWarning,
    AllMaskedError,
    BadFrequencyError,
    BadScaleError,
    BadSpecError,
    ConfigError,
    CorruptHeaderError,
    EmptyBandError,
    FringescaleError,
    GridMismatchError,
    NoValidSeedError,
    NumericError,
    TruncatedPayloadError,
    UnsupportedFormatError,
)
from .fieldio import read_field, read_image, read_pgm, write_field, write_ppm
from .synth import (
    FringePair,
    NoiseSpec,
    PhantomSpec,
    make_fringes,
    make_phase,
)
from .wft import (
    DemodParams,
    RidgeResult,
    anchor_far_field,
    demodulate,
    interior_mask,
    relative_phase,
    unwrap,
)

__version__ = "0.1.0"

__all__ = [
    "AliasingWarning",
    "AllMaskedError",
    "BadFrequencyError",
    "BadScaleError",
    "BadSpecError",
    "CarrierSpec",
    "ConfigError",
    "CorruptHeaderError",
    "CwtParams",
    "DemodParams",
    "EmptyBandError",
    "FringePair",
    "FringescaleError",
    "GridMismatchError",
    "GridSpec",
    "NoValidSeedError",
    "NoiseSpec",
    "NumericError",
    "PhantomSpec",
    "PhaseMap",
    "RidgeResult",
    "ScalarField",
    "TruncatedPayloadError",
    "UnsupportedFormatError",
    "anchor_far_field",
    "cwt_plane",
    "cwt_sweep",
    "default_scale_grid",
    "demodulate",
    "field_from_array",
    "interior_mask",
    "make_fringes",
    "make_phase",
    "masked_extrema",
    "read_field",
    "read_image",
    "read_pgm",
    "relative_phase",
    "unwrap",
    "wrap_phase",
    "write_field",
    "write_ppm",
    "__version__",
]
