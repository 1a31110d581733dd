"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports fringescale from ``src/``
there, and writes scratch files under ``.perfbench_work/``, removed on exit.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

Every call of the program runs in a fresh child process, one at a time,
as a user runs the tool: the child imports fringescale, writes the
workload's inputs from the seed (set-up), then calls
``fringescale.cli.main`` once (the timed section) and reports.

--trace 0 (end-to-end metrics): calls repeat while, at their mean pace,
  a further call would end within --seconds of the run's start (at least
  one call), so a run on a slow machine makes fewer calls, not a longer
  run. wall_s is the median call time, peak_rss_mb the median of the
  calls' peak RSS, and setup_s the median set-up time, from spawning a
  child until it is ready to call ``cli.main``, over the calls plus
  set-up-only children (PRE_SETUPS before the calls, the rest after)
  up to SETUP_SAMPLES samples.
--trace 1 (per-layer metrics): one untraced call, then one call with spans
  recorded around the layer functions (see spans.py); the untraced call's
  outputs are the reference the traced call's must match byte for byte.

Outputs are checked as each call ends, then deleted: every call exits 0,
the first call's outputs pass check.check_outputs, and each later call's
deterministic outputs (the traced call's too) are byte-identical to the
first's, since the seed is the same.
"""

from __future__ import annotations

import os

# One thread for the math libraries, so a call is one busy thread on any
# machine; the program's FFTs are single-threaded anyway.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 11
PRE_SETUPS = 3
CALL_TIMEOUT_S = 170.0
# No further call starts once the run could pass this many seconds.
TIME_BUDGET_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.main_s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
    "synth.make_phase_s": "s", "synth.make_fringes_s": "s",
    "wft.demodulate_s": "s", "wft.band_points": "count",
    "wft.ridge_edge_share": "share", "wft.phase_rms_rad": "rad",
    "wft.relative_phase_s": "s", "wft.residue_count": "count",
    "wft.unwrap_s": "s", "wft.unwrap_turns": "count", "wft.anchor_s": "s",
    "cwt.sweep_s": "s", "cwt.alloc_peak_mb": "MB", "cwt.planes": "count",
    "cwt.padded_px": "count",
    "contours.marching_squares_s": "s", "contours.polylines": "count",
    "render.contour_csv_s": "s", "render.heatmap_s": "s", "render.csv_rows": "count",
    "fieldio.write_s": "s", "fieldio.read_s": "s", "fieldio.bytes_written": "bytes",
}


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run as the child that sets up and makes one call in --dir
    p.add_argument("--child", choices=("setup", "call", "traced"),
                   help=argparse.SUPPRESS)
    p.add_argument("--dir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child(workload, args) -> int:
    """Set up in args.dir, call cli.main once unless set-up only, report."""
    sys.path.insert(0, str(SRC))
    from fringescale import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"run.py: imported fringescale from {cli.__file__}, "
                         f"not from {SRC}")
    call_dir = Path(args.dir)
    (call_dir / "in").mkdir(parents=True)
    workload.make_inputs(args.seed, call_dir / "in")
    report = {"ready": time.monotonic()}
    if args.child != "setup":
        tracer = None
        if args.child == "traced":
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        argv = workload.argv(args.seed, call_dir / "in", call_dir / "out")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        report["wall_s"] = time.perf_counter() - t0
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["exit_code"] = code
        if tracer is not None:
            from spans import layer_metrics
            tracer.uninstall()
            report["layers"] = layer_metrics(tracer.spans)
            report["missing"] = tracer.missing
    print(json.dumps(report))
    return 0


def spawn(args, call_dir: Path, mode: str) -> dict | None:
    """Run one child; its report plus setup_s, or None if it failed.

    A set-up-only child's directory is removed at once.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--child", mode, "--dir", str(call_dir)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {mode} child timed out", file=sys.stderr)
        return None
    finally:
        if mode == "setup":
            shutil.rmtree(call_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"run.py: {mode} child exited {proc.returncode}", file=sys.stderr)
        return None
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["ready"] - t0
    return report


class Verifier:
    """Checks each call's outputs as it ends, then deletes them.

    Deleting right away keeps earlier calls' output files from being
    written back to disk while a later call runs.
    """

    def __init__(self, workload):
        self.workload = workload
        self.problems: list[str] = []
        self.ok: list[bool] = []
        self.digests: dict[str, str] | None = None
        self.checked_ok = False
        self.phase_rms_rad = 0.0

    def add(self, call_dir: Path, report: dict | None) -> None:
        # imported here so that children, which import this module, load
        # only what their set-up needs
        from check import check_outputs
        from fgrid import output_digests
        n = len(self.ok) + 1
        if report is None or report["exit_code"] != 0:
            code = "none" if report is None else report["exit_code"]
            self.problems.append(f"call {n}: exit code {code}")
            self.ok.append(False)
        elif self.digests is None:
            self.digests = output_digests(call_dir / "out")
            found, self.phase_rms_rad = check_outputs(
                call_dir / "out", self.workload, call_dir / "in")
            self.problems += found
            self.checked_ok = not found
            self.ok.append(self.checked_ok)
        else:
            same = output_digests(call_dir / "out") == self.digests
            if not same:
                self.problems.append(f"call {n}: outputs differ from the first "
                                     f"checked call's, with the same seed")
            # the same bytes as the checked call pass or fail as it did
            self.ok.append(same and self.checked_ok)
        shutil.rmtree(call_dir, ignore_errors=True)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def timed_run(workload, args, work: Path):
    # set-up samples come from before and after the calls as well as from
    # the calls themselves, so that they span the whole run: the machine's
    # speed drifts within a run
    start = time.monotonic()
    setups = [spawn(args, work / f"setup{i}", "setup") for i in range(PRE_SETUPS)]
    verifier = Verifier(workload)
    reports = []
    first_call = time.monotonic()
    while True:
        call_dir = work / f"call{len(verifier.ok)}"
        report = spawn(args, call_dir, "call")
        verifier.add(call_dir, report)
        if report is None:
            break
        reports.append(report)
        # no further call if, at the calls' mean pace so far, it would end
        # past --seconds from the start of the run
        now = time.monotonic()
        pace = (now - first_call) / len(reports)
        if now + pace - start > min(args.seconds, TIME_BUDGET_S):
            break
    while len(setups) + len(reports) < SETUP_SAMPLES and setups[-1] is not None:
        setups.append(spawn(args, work / f"setup{len(setups)}", "setup"))
    metrics = {}
    if reports:
        walls = " ".join(f"{r['wall_s']:.3f}" for r in reports)
        samples = sum(r is not None for r in setups) + len(reports)
        print(f"{workload.name} calls: wall_s {walls}; set-up samples {samples}")
        metrics = {"wall_s": statistics.median(r["wall_s"] for r in reports),
                   "setup_s": statistics.median(r["setup_s"] for r in setups + reports
                                                if r is not None),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports)}
    return metrics, len(verifier.ok), verifier.failed, verifier.problems


def traced_run(workload, args, work: Path):
    verifier = Verifier(workload)
    plain = spawn(args, work / "untraced", "call")
    verifier.add(work / "untraced", plain)
    traced = spawn(args, work / "traced", "traced")
    verifier.add(work / "traced", traced)
    metrics = {}
    if plain is not None and traced is not None:
        for name in traced["missing"]:
            print(f"run.py: layer function {name} not found; its metrics read 0",
                  file=sys.stderr)
        metrics = dict(traced["layers"])
        metrics["wft.phase_rms_rad"] = verifier.phase_rms_rad
        print(f"{workload.name} traced call: wall_s {traced['wall_s']!r} s, "
              f"cli.main span {metrics['cli.main_s']!r} s, outside the spans "
              f"{traced['wall_s'] - metrics['cli.main_s']!r} s "
              f"(trace.overhead_s {metrics['trace.overhead_s']!r} s)")
    return metrics, len(verifier.ok), verifier.failed, verifier.problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fringescale" / "__init__.py").is_file():
        print(f"run.py: no fringescale sources under {SRC}; run from the "
              f"root of a fringescale checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    if args.child:
        return child(workload, args)

    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        metrics, attempted, failed, problems = run(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for problem in problems:
        print(f"run.py: {workload.name}: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        print(f"run.py: {workload.name}: no call completed", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{workload.name} {name} = {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
