"""The benchmark's own FGRID reader and writer.

The format is the one the README documents: an ASCII header line
``FGRID 1 <width> <height> <has_mask>``, width*height little-endian
float64 values, then one validity byte per pixel when has_mask is 1. The
benchmark keeps its own copy so that set-up and the output checks do
not run the program's I/O layer, which is one of the layers measured.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# Outputs that must repeat byte for byte for a given seed. Other files
# (config_echo.txt holds the output path; a run report may hold timings)
# are left out.
DETERMINISTIC_GLOBS = ("*.fgrid", "manifest.txt", "*.csv")


def write_fgrid(path: Path, values: np.ndarray, mask: np.ndarray | None) -> None:
    h, w = values.shape
    header = f"FGRID 1 {w} {h} {0 if mask is None else 1}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())
        if mask is not None:
            fh.write(mask.astype(np.uint8).tobytes())


def read_fgrid(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(values, valid) of an FGRID file; valid is all True without a mask."""
    data = Path(path).read_bytes()
    nl = data.index(b"\n")
    magic, version, w, h, has_mask = data[:nl].split()
    if magic != b"FGRID" or version != b"1":
        raise ValueError(f"{path}: not an FGRID 1 file")
    w, h = int(w), int(h)
    n = w * h
    values = np.frombuffer(data, dtype="<f8", count=n, offset=nl + 1)
    if has_mask == b"1":
        valid = np.frombuffer(data, dtype=np.uint8, count=n,
                              offset=nl + 1 + 8 * n).astype(bool)
    else:
        valid = np.ones(n, dtype=bool)
    return values.reshape(h, w), valid.reshape(h, w)


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every deterministic output file, by file name."""
    digests = {}
    for pattern in DETERMINISTIC_GLOBS:
        for path in sorted(out_dir.glob(pattern)):
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            digests[path.name] = h.hexdigest()
    return digests
