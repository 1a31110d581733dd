"""Raster file formats: FGRID interchange, PGM input, PPM output.

FGRID is the package's lossless float interchange format:

    FGRID 1 <width> <height> <has_mask>\n

as a single ASCII header line, then width*height float64 values, row
major, little endian (8 bytes each), then, when has_mask is 1, one byte
per pixel (0 invalid, 1 valid) in the same order. Payload bytes are the
IEEE-754 bit patterns verbatim, so round trips preserve signed zeros and
subnormals bit for bit.

PGM (P5, binary, 8- or 16-bit big-endian) is accepted as input and
scaled to [0, 1] by its maxval. PPM (P6, 8-bit) is written for renders.
All writes go through a temp file in the target directory followed by
an atomic rename.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from .core import GridSpec, ScalarField
from .errors import (CorruptHeaderError, TruncatedPayloadError,
                     UnsupportedFormatError)

FGRID_MAGIC = b"FGRID"
FGRID_VERSION = 1
_HEADER_SCAN_LIMIT = 64


def atomic_write_bytes(path: str | Path, *chunks) -> None:
    """Write the chunks, bytes or C-contiguous arrays, to path in turn via
    a same-directory temp file and rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                               dir=path.parent or Path("."))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_field(path: str | Path, f: ScalarField) -> None:
    """Serialize a field to FGRID, with the mask section iff one exists.
    The arrays are written from their own buffers: a bool is a 0/1 byte."""
    has_mask = 1 if f.mask is not None else 0
    header = f"FGRID {FGRID_VERSION} {f.grid.width} {f.grid.height} {has_mask}\n"
    chunks = [header.encode("ascii"),
              np.ascontiguousarray(f.values, dtype="<f8")]
    if has_mask:
        chunks.append(f.mask.view(np.uint8))
    atomic_write_bytes(path, *chunks)


def _parse_fgrid_header(data: bytes) -> tuple[GridSpec, bool, int]:
    nl = data.find(b"\n", 0, _HEADER_SCAN_LIMIT)
    if nl < 0:
        raise CorruptHeaderError("no newline terminating the FGRID header",
                                 min(len(data), _HEADER_SCAN_LIMIT))
    tokens = data[:nl].split()
    if len(tokens) != 5 or tokens[0] != FGRID_MAGIC:
        raise CorruptHeaderError(
            f"malformed FGRID header {data[:nl]!r}", 0)
    try:
        version, w, h, hm = (int(t) for t in tokens[1:])
    except ValueError:
        raise CorruptHeaderError(
            f"non-integer FGRID header fields {data[:nl]!r}", len(tokens[0]) + 1)
    if version != FGRID_VERSION:
        raise CorruptHeaderError(f"unsupported FGRID version {version}", 6)
    if hm not in (0, 1):
        raise CorruptHeaderError(f"FGRID mask flag must be 0 or 1, got {hm}", nl - 1)
    try:
        grid = GridSpec(width=w, height=h)
    except ValueError as e:
        raise CorruptHeaderError(str(e), 8)
    return grid, bool(hm), nl + 1


def read_field(path: str | Path) -> ScalarField:
    """Read an FGRID file back into a ScalarField, bit-exactly."""
    data = Path(path).read_bytes()
    grid, has_mask, off = _parse_fgrid_header(data)
    n = grid.npixels
    need = off + 8 * n + (n if has_mask else 0)
    if len(data) < need:
        raise TruncatedPayloadError(
            f"FGRID payload needs {need} bytes, file holds {len(data)}",
            len(data))
    values = np.frombuffer(data, dtype="<f8", count=n, offset=off)
    values = values.reshape(grid.shape)
    mask = None
    if has_mask:
        raw = np.frombuffer(data, dtype=np.uint8, count=n, offset=off + 8 * n)
        bad = (raw > 1)
        if bad.any():
            raise UnsupportedFormatError(
                f"FGRID mask byte {int(raw[bad.argmax()])} is not 0 or 1",
                off + 8 * n + int(bad.argmax()))
        mask = raw.astype(bool).reshape(grid.shape)
    if not np.isfinite(values).all():
        bad_at = int(np.argmin(np.isfinite(values).ravel()))
        raise UnsupportedFormatError(
            "FGRID payload holds a non-finite value", off + 8 * bad_at)
    if mask is not None and np.any(values[~mask] != 0.0):
        raise UnsupportedFormatError(
            "FGRID masked-out pixel holds a nonzero value", off)
    return ScalarField(grid, values, mask)


def _pgm_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace/comment separated integers after the magic."""
    tokens: list[int] = []
    i = 2  # past the two magic bytes
    while len(tokens) < count:
        if i >= len(data):
            raise CorruptHeaderError("PGM header ended early", i)
        c = data[i:i + 1]
        if c == b"#":
            nl = data.find(b"\n", i)
            if nl < 0:
                raise CorruptHeaderError("unterminated PGM comment", i)
            i = nl + 1
        elif c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(data) and data[j:j + 1].isdigit():
                j += 1
            tokens.append(int(data[i:j]))
            i = j
        else:
            raise CorruptHeaderError(f"unexpected byte {c!r} in PGM header", i)
    # exactly one whitespace byte separates the header from the raster
    if i >= len(data) or not data[i:i + 1].isspace():
        raise CorruptHeaderError("missing whitespace before PGM raster", i)
    return tokens, i + 1


def read_pgm(path: str | Path) -> ScalarField:
    """Read a binary PGM (P5) and scale intensities to [0, 1] by maxval."""
    data = Path(path).read_bytes()
    if data[:2] != b"P5":
        if data[:2] in (b"P2", b"P3", b"P6"):
            raise UnsupportedFormatError(
                f"only binary P5 PGM is supported, got {data[:2].decode('ascii')}", 0)
        raise UnsupportedFormatError("not a PGM file", 0)
    (w, h, maxval), off = _pgm_tokens(data, 3)
    if maxval < 1 or maxval > 65535:
        raise CorruptHeaderError(f"PGM maxval {maxval} out of range", 2)
    try:
        grid = GridSpec(width=w, height=h)
    except ValueError as e:
        raise CorruptHeaderError(str(e), 2)
    n = grid.npixels
    dtype = np.dtype("u1" if maxval < 256 else ">u2")
    need = off + dtype.itemsize * n
    if len(data) < need:
        raise TruncatedPayloadError(
            f"PGM raster needs {need} bytes, file holds {len(data)}", len(data))
    raw = np.frombuffer(data, dtype=dtype, count=n, offset=off)
    values = raw.reshape(grid.shape).astype(np.float64) / float(maxval)
    return ScalarField(grid, values)


def read_image(path: str | Path) -> ScalarField:
    """Read either raster input format, sniffing the magic bytes."""
    with Path(path).open("rb") as fh:
        head = fh.read(6)
    if head.startswith(FGRID_MAGIC):
        return read_field(path)
    if head[:2] == b"P5":
        return read_pgm(path)
    raise UnsupportedFormatError(
        f"unrecognized raster magic {head[:6]!r} in {path}", 0)


def write_ppm(path: str | Path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM (P6, maxval 255)."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("PPM data must be (H, W, 3) uint8")
    h, w = rgb.shape[:2]
    atomic_write_bytes(path, f"P6\n{w} {h}\n255\n".encode("ascii") + rgb.tobytes())


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
