"""Exception types shared across the package."""


class FringescaleError(Exception):
    """Base class for all package errors."""


class AllMaskedError(FringescaleError):
    """An operation needed at least one valid pixel and found none."""


class GridMismatchError(FringescaleError):
    """Two rasters that must share a grid do not."""


class BadSpecError(FringescaleError):
    """A phantom or parameter bundle is internally inconsistent."""


class BadFrequencyError(FringescaleError):
    """A probe frequency lies outside the representable band."""


class EmptyBandError(FringescaleError):
    """A ridge search band contains no frequency grid points."""


class NoValidSeedError(FringescaleError):
    """Unwrapping could not find a valid starting pixel."""


class BadScaleError(FringescaleError):
    """A wavelet scale is zero or negative."""


class NumericError(FringescaleError):
    """A numeric stage produced a result outside its validity bounds."""


class ConfigError(FringescaleError):
    """A run configuration failed to parse or validate."""


class _FormatError(FringescaleError):
    """File format error carrying the byte offset where it was detected."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedFormatError(_FormatError):
    """The file is not one of the recognized raster formats."""


class CorruptHeaderError(_FormatError):
    """A raster header could not be parsed."""


class TruncatedPayloadError(_FormatError):
    """A raster payload ended before the header-declared size."""


class AliasingWarning(UserWarning):
    """Wavelet scale below 1 px, where sampling error becomes significant,
    or so large against an unpadded grid that its plane is rounding noise."""
