"""Run the benchmark over several seeds and print a summary per workload.

    python3 perfbench/report.py [--runs 10] [--first-seed 1] [--trace]
        [--record FILE] [--compare PARENT]

Each run is a fresh ``run.py`` process with the run length from
BENCHMARK.json, over every workload there. For every workload the summary
prints each end-to-end metric by name with its unit: median, first and
third quartile (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound. fail_share is failed calls
over attempted calls, counting a run that printed no result as one failed
call. --trace adds one traced run per workload (at the first seed) and
prints its per-layer metrics. --record writes everything, raw results
included, as JSON.

--compare PARENT compares this checkout with the one at PARENT, the root
of another checkout (the parent commit) that holds the same benchmark.
The two run in alternating pairs, one pair per seed, taking turns which
side runs first, so that both see the same drift of the machine's speed.
Per workload and end-to-end metric it prints both sides' medians and
quartiles, the change of the median, the pairs this side won, and one of:

  gain          this side won at least 9/10 of the pairs and the medians
                differ by more than the parent's q3 - q1;
  unresolved    fewer than MIN_PAIRS pairs completed, or a side's spread is
                wider than the bound and not every run here reads better
                than every run of the parent;
  WORSE than bound   the median is worse than the parent's by more than
                the bound (the exit code is then 1);
  within bound  otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# fewer pairs than this give no verdict; "gain" needs 9 in 10 pairs won
MIN_PAIRS = 10


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_once(root: Path, workload: str, seed: int, trace: int) -> dict | None:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed {seed} in {root}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and spread (q3 - q1) / |median| of values."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def summarize(results: list[dict], metrics: list[dict]) -> dict:
    """Median, quartiles, spread and raw values of each metric."""
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        out[m["name"]] = {"unit": m["unit"], **quartiles(values), "values": values}
    return out


def side(runs: list[dict | None]) -> dict:
    """Summary of one side's runs of a workload."""
    ok = [r for r in runs if r is not None]
    attempted = sum(r["attempted"] for r in ok) + (len(runs) - len(ok))
    failed = sum(r["failed"] for r in ok) + (len(runs) - len(ok))
    entry = {"runs": runs, "fail_share": failed / attempted,
             "all_correct": len(ok) == len(runs) and all(r["correct"] for r in ok)}
    if ok:
        entry["summary"] = summarize(ok, SPEC["end_to_end"])
    print(f"  {len(runs)} runs, fail_share = {entry['fail_share']:.4g} "
          f"({failed}/{attempted} calls), all correct: {entry['all_correct']}")
    for m in SPEC["end_to_end"] if ok else ():
        s = entry["summary"][m["name"]]
        print(f"  {m['name']} [{s['unit']}]: median {s['median']:.6g}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.2%} (bound {m['bound']:.0%})")
    return entry


def verdict(m: dict, here: list[dict | None], parent: list[dict | None]) -> dict:
    """Compare this side's runs with the parent's, pair by pair."""
    sign = 1.0 if m["better"] == "lower" else -1.0
    pairs = [(sign * a["metrics"][m["name"]]["value"], sign * b["metrics"][m["name"]]["value"])
             for a, b in zip(here, parent) if a is not None and b is not None]
    if len(pairs) < MIN_PAIRS:
        return {"verdict": "unresolved", "pairs": len(pairs)}
    # values carry the sign that makes lower better
    mine, theirs = quartiles([a for a, _ in pairs]), quartiles([b for _, b in pairs])
    wins = sum(a < b for a, b in pairs)
    worse = (mine["median"] - theirs["median"]) / abs(theirs["median"])
    spread = max(mine["spread"], theirs["spread"])
    if wins >= 0.9 * len(pairs) and \
            theirs["median"] - mine["median"] > theirs["q3"] - theirs["q1"]:
        word = "gain"
    elif spread > m["bound"] and max(a for a, _ in pairs) >= min(b for _, b in pairs):
        word = "unresolved"
    elif worse > m["bound"]:
        word = "WORSE than bound"
    else:
        word = "within bound"
    return {"verdict": word, "pairs": len(pairs), "wins": wins,
            "change": sign * worse, "spread": spread}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--record", metavar="FILE")
    p.add_argument("--compare", metavar="PARENT", type=Path)
    args = p.parse_args(argv)

    record = {"machine": {"platform": platform.platform(),
                          "processor": cpu_model(),
                          "cpus": os.cpu_count(),
                          "python": platform.python_version()},
              "run_seconds": SPEC["run_seconds"], "workloads": {}}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    worse = False
    for w in SPEC["workloads"]:
        name = w["name"]
        here, parent = [], []
        for i, seed in enumerate(seeds):
            if args.compare is not None and i % 2 == 0:
                parent.append(run_once(args.compare, name, seed, 0))
            here.append(run_once(ROOT, name, seed, 0))
            if args.compare is not None and i % 2 == 1:
                parent.append(run_once(args.compare, name, seed, 0))
        print(f"{name}:")
        entry = {"seeds": list(seeds), **side(here)}
        if args.compare is not None:
            print("  parent:")
            entry["parent"] = side(parent)
            entry["verdicts"] = {}
            for m in SPEC["end_to_end"]:
                v = verdict(m, here, parent)
                entry["verdicts"][m["name"]] = v
                worse |= v["verdict"] == "WORSE than bound"
                detail = "" if "wins" not in v else (
                    f"median change {v['change']:+.2%}, won {v['wins']}/{v['pairs']} "
                    f"pairs, spread {v['spread']:.2%}, bound {m['bound']:.0%}: ")
                print(f"  {m['name']}: {detail}{v['verdict']}")
        if args.trace:
            traced = run_once(ROOT, name, args.first_seed, 1)
            entry["traced"] = traced
            if traced is not None:
                print(f"  traced (seed {args.first_seed}, correct: {traced['correct']}):")
                for metric, v in traced["metrics"].items():
                    print(f"    {metric} = {v['value']:.6g} {v['unit']}")
        record["workloads"][name] = entry
        sys.stdout.flush()
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
