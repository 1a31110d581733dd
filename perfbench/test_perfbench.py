"""Tests of the benchmark itself, on small variants of its workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import report
import run
from check import check_outputs, parse_manifest
from fgrid import output_digests, read_fgrid, write_fgrid
from spans import LAYERS, Tracer, layer_metrics, residue_count
from workloads import WORKLOADS, Workload

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

from fringescale import cli, core, wft  # noqa: E402

TINY_PIPELINE = Workload(
    "tiny_pipeline", "", (
        "pipeline", "--set", "grid.width=96", "--set", "grid.height=96",
        "--set", "phantom.peak=4", "--set", "phantom.sigma_x=20",
        "--set", "phantom.sigma_y=20", "--set", "noise.sigma=0.05",
        "--set", "demod.step=0.05",
        "--set", "demod.anchor_x0=0", "--set", "demod.anchor_y0=0",
        "--set", "demod.anchor_w=8", "--set", "demod.anchor_h=8"),
    rms_limit=0.5)
TINY_CWT = Workload("tiny_cwt", "", ("cwt",), cwt_size=96)


def run_cli_process(workload: Workload, seed: int, in_dir: Path, out_dir: Path):
    """One cli.main call in a fresh interpreter, as a user runs the tool."""
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    argv = workload.argv(seed, in_dir, out_dir)
    subprocess.run([sys.executable, "-m", "fringescale.cli", *argv], env=env,
                   check=True, capture_output=True, timeout=120)


@pytest.mark.parametrize("workload", [TINY_PIPELINE, TINY_CWT], ids=lambda w: w.name)
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    digests = []
    for i, seed in enumerate((7, 7, 8)):
        in_dir = tmp_path / f"in{i}"
        in_dir.mkdir()
        workload.make_inputs(seed, in_dir)
        run_cli_process(workload, seed, in_dir, tmp_path / f"out{i}")
        digests.append(output_digests(tmp_path / f"out{i}"))
    names = set(digests[0])
    assert "manifest.txt" in names
    assert any(n.endswith(".csv") for n in names) == workload.pipeline
    assert digests[0] == digests[1]
    if workload.pipeline:
        assert digests[2]["deformed.fgrid"] != digests[0]["deformed.fgrid"]
    else:
        assert digests[2]["plane_000_alpha1.fgrid"] != digests[0]["plane_000_alpha1.fgrid"]


def test_traced_call_matches_untraced_and_nests_spans(tmp_path):
    argv = TINY_PIPELINE.argv(3, tmp_path, tmp_path / "plain")
    assert cli.main(argv) == 0
    originals = {(m, f): getattr(sys.modules[f"fringescale.{m}"], f)
                 for m, f, *_ in LAYERS}
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.demodulate is not originals[("wft", "demodulate")]
        t0 = time.perf_counter()
        assert cli.main(TINY_PIPELINE.argv(3, tmp_path, tmp_path / "traced")) == 0
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert cli.demodulate is originals[("wft", "demodulate")]
    assert wft.demodulate is originals[("wft", "demodulate")]
    assert not tracer.missing
    assert output_digests(tmp_path / "plain") == output_digests(tmp_path / "traced")

    spans = tracer.spans
    assert spans[0].name == "cli.main" and spans[0].parent == -1
    assert all(s.parent != -1 for s in spans[1:])
    names = {s.name for s in spans}
    assert names == {name for _, _, name, _, _ in LAYERS} - {"fieldio.read"}
    for s in spans:
        parent = spans[s.parent] if s.parent >= 0 else None
        if s.name == "contours.marching_squares":
            assert parent.name == "render.contour_csv"
        if parent is not None:
            assert parent.start <= s.start <= s.end <= parent.end

    metrics = layer_metrics(spans)
    assert set(metrics) == set(run.PER_LAYER) - {"wft.phase_rms_rad"}
    assert metrics["wft.band_points"] == 25
    assert metrics["cwt.planes"] == 32
    assert metrics["cwt.padded_px"] == (96 + 400) ** 2
    assert metrics["wft.unwrap_turns"] == 1
    child = sum(s.duration for s in spans if s.parent == 0)
    assert metrics["cli.self_s"] == pytest.approx(spans[0].duration - child)
    # each wrapper's own time lies inside its parent's span
    for i, parent in enumerate(spans):
        inner = [s for s in spans if s.parent == i]
        assert sum(s.duration + s.overhead for s in inner) <= parent.duration
    assert metrics["trace.overhead_s"] == sum(s.overhead for s in spans) > 0
    # the spans account for the call's wall time to within the overhead
    # (plus the wrapper's own call frame)
    assert 0 <= wall - spans[0].duration <= metrics["trace.overhead_s"] + 1e-3
    written = sum(p.stat().st_size for p in (tmp_path / "traced").glob("*.fgrid"))
    assert metrics["fieldio.bytes_written"] == written


def test_check_accepts_program_output_and_rejects_damage(tmp_path):
    in_dir, out = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    TINY_CWT.make_inputs(11, in_dir)
    assert cli.main(TINY_CWT.argv(11, in_dir, out)) == 0
    assert check_outputs(out, TINY_CWT, in_dir) == ([], 0.0)

    planes = dict((a, n) for a, n in parse_manifest(out / "manifest.txt"))
    values, valid = read_fgrid(out / planes[3.0])
    damaged = values.copy()
    i = np.argwhere(valid & (np.abs(values) > 0.1) & (np.abs(values) < 0.9))[0]
    damaged[tuple(i)] *= 1.0 + 1e-6
    write_fgrid(out / planes[3.0], damaged, valid)
    problems, _ = check_outputs(out, TINY_CWT, in_dir)
    assert len(problems) == 1 and "sampled-hat reference" in problems[0]

    values, valid = read_fgrid(out / planes[50.0])
    write_fgrid(out / planes[50.0], values * 0.5, valid)
    problems, _ = check_outputs(out, TINY_CWT, in_dir)
    assert any("peak 0.5 is not 1" in p for p in problems)


def test_check_bounds_phase_rms(tmp_path):
    out = tmp_path / "out"
    assert cli.main(TINY_PIPELINE.argv(5, tmp_path, out)) == 0
    problems, rms = check_outputs(out, TINY_PIPELINE, tmp_path)
    assert problems == [] and 0.0 < rms < TINY_PIPELINE.rms_limit
    truth, valid = read_fgrid(out / "phase_true.fgrid")
    stripes = 2.0 * (np.arange(96) % 2)
    write_fgrid(out / "phase.fgrid", np.where(valid, truth + stripes, 0.0), valid)
    problems, rms = check_outputs(out, TINY_PIPELINE, tmp_path)
    assert any("phase RMS" in p for p in problems)


def test_residue_count_finds_a_vortex_pair():
    y, x = np.mgrid[0:32, 0:32].astype(float)
    vortex = np.arctan2(y - 10.5, x - 10.5) - np.arctan2(y - 20.5, x - 20.5)
    wrapped = core.PhaseMap(core.field_from_array(core.wrap_phase(vortex)), wrapped=True)
    assert residue_count(wrapped) == 2
    smooth = core.PhaseMap(core.field_from_array(core.wrap_phase(0.4 * x)), wrapped=True)
    assert residue_count(smooth) == 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_paired_verdicts():
    metric = {"name": "wall_s", "better": "lower", "bound": 0.1}

    def runs(values):
        return [{"metrics": {"wall_s": {"value": v}}} for v in values]

    parent = runs([10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0])

    def word(values):
        return report.verdict(metric, runs(values), parent)["verdict"]

    assert word([v * 1.03 for v in [10.0, 10.1, 9.9, 10.2, 9.8] * 2]) == "within bound"
    assert word([v * 1.2 for v in [10.0, 10.1, 9.9, 10.2, 9.8] * 2]) == "WORSE than bound"
    assert word([8.0, 8.1, 7.9, 8.0, 8.2, 8.0, 7.8, 8.0, 8.1, 10.5]) == "gain"
    assert word([6.0, 14.0] * 5) == "unresolved"
    assert report.verdict(metric, runs([5.0] * 9), parent)["verdict"] == "unresolved"
    # a spread wider than the bound still resolves when every run is better
    assert word([5.0, 9.0] * 5) != "unresolved"
    higher = dict(metric, better="higher")
    assert report.verdict(higher, runs([12.0] * 10), parent)["verdict"] == "gain"
    assert report.verdict(higher, runs([8.0] * 10), parent)["verdict"] == "WORSE than bound"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plume_coarse512",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
