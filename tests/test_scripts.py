"""Smoke tests for the runnable demos under scripts/ and the README's
library example.

Each script runs in a fresh interpreter, as a user runs it, at a small
size, and must exit 0 and write its files; the README example runs as
printed.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(*argv):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
    return subprocess.run([sys.executable, *argv],
                          env=env, capture_output=True, text=True, timeout=300)


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_readme_library_example_runs_as_printed():
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", block)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["3.0", "10.0", "50.0", "100.0"]
    assert all(line.endswith("(512, 512)") for line in lines)


def test_rib_plume_demo(tmp_path):
    out = tmp_path / "rib_demo"
    proc = run_script("rib_plume_demo.py", "--size", "128", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "phase RMS error" in proc.stdout
    for name in ("reference.fgrid", "deformed.fgrid", "phase_true.fgrid",
                 "phase.fgrid", "phase.ppm", "phase_contours.csv",
                 "fringes_deformed.ppm", "manifest.txt", "config_echo.txt"):
        assert (out / name).is_file(), name
    assert len(list(out.glob("plane_*_alpha*.fgrid"))) == 4
    assert len(list(out.glob("plane_*_alpha*_contours.csv"))) == 4


def test_scale_response_curve(tmp_path):
    out = tmp_path / "scale_curve"
    proc = run_script("scale_response_curve.py", "--size", "64", "--points", "5",
                      "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    curves = sorted(out.glob("curve_f*.csv"))
    assert len(curves) == 3
    for path in curves:
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,response"
        assert len(lines) == 6


def test_scan_scaling():
    proc = run_script("scan_scaling.py", "--sizes", "48", "--bands", "3", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    head, row = proc.stdout.splitlines()[-2:]
    assert head.split() == ["size", "band", "padded", "scan_s", "peak_B/px",
                            "scanned_share", "moved", "phase_gap_rad"]
    size, band, padded, seconds, peak, share, moved, gap = row.split()
    # r = 40: next_fast_len(max(48 + 40, 81)) is the 5-smooth 90
    assert (size, band, padded) == ("48", "3x3", "90x90")
    assert float(seconds) > 0 and float(peak) > 0 and 0 < float(share) <= 1
    assert moved == "0" and 0 < float(gap) <= 1e-6


def test_unwrap_scaling():
    proc = run_script("unwrap_scaling.py", "--sizes", "48", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    head, row = proc.stdout.splitlines()
    assert head.split() == ["size", "old_s", "new_s", "old_peak_mb", "new_peak_mb",
                            "same_turns"]
    size, old_s, new_s, old_mb, new_mb, same = row.split()
    assert size == "48" and same == "yes"
    assert float(old_s) >= 0 and float(new_s) >= 0
    assert 0 < float(new_mb) < float(old_mb)


def test_contour_scaling():
    proc = run_script("contour_scaling.py", "--sizes", "48", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    head, row = proc.stdout.splitlines()
    assert head.split() == ["size", "rows", "polylines", "classify_s", "segments_s",
                            "chain_s", "format_s", "csv_s", "same_text"]
    size, rows, polylines, *seconds, same = row.split()
    assert size == "48" and same == "yes"
    assert int(rows) > int(polylines) >= 10  # a closed loop per level at least
    assert all(float(t) >= 0 for t in seconds)


def test_cwt_scaling():
    proc = run_script("cwt_scaling.py", "--sizes", "48", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    head, band, columns, *rows = proc.stdout.splitlines()
    assert head.startswith("size 48  sweep_s ")
    assert head.endswith("wrapping planes on 448^2 before, 450^2 now")
    words = band.split()
    assert words[:5] == ["band", "gap", "to", "the", "full"]
    assert 0.0 < float(words[6]) <= 4e-15  # tests/test_cwt.py BAND_GAP
    assert " 0 threshold crossings" in band
    assert columns.split() == ["alpha", "old_max", "new_max", "old_rms", "new_rms"]
    assert len(rows) == 11
    assert all(math.isfinite(float(v)) for row in rows for v in row.split())


def test_startup_cost():
    proc = run_script("startup_cost.py", "--runs", "2")
    assert proc.returncode == 0, proc.stderr
    head, *rows = proc.stdout.splitlines()
    assert head.split() == ["module", "import_s", "peak_rss_mb", "scipy_modules"]
    assert [row.split()[0] for row in rows] == ["numpy", "fringescale.cli"]
    for row in rows:
        seconds, peak, scipy = row.split()[1:]
        assert float(seconds) > 0 and float(peak) > 0
        assert scipy == "0"
