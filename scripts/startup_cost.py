"""Time the import of the fringescale command line, and measure the
memory it costs, in fresh interpreters.

For numpy alone, then fringescale.cli, the script starts --runs fresh
interpreters, one after the other, each importing that module, and
prints the median import time (time.perf_counter around the import),
the median peak RSS of the process after it (resource.getrusage
ru_maxrss, which Linux reports in KiB) and how many scipy modules the
import loaded. The children find fringescale in --root's src/ first
(this checkout by default), so two checkouts can be compared.

    python3 scripts/startup_cost.py --runs 11
    python3 scripts/startup_cost.py --runs 11 --root ../other-checkout
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """
import resource, sys, time
start = time.perf_counter()
__import__(sys.argv[1])
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(seconds, peak, sum(m.split(".")[0] == "scipy" for m in sys.modules))
"""


def import_cost(module: str, root: Path) -> tuple[float, float, int]:
    """Import seconds, peak RSS in MB and scipy modules loaded, in one
    fresh interpreter that imports module with root/src first on its path."""
    src, path = str(root / "src"), os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
    proc = subprocess.run([sys.executable, "-c", CHILD, module], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    seconds, peak, scipy = proc.stdout.split()
    return float(seconds), float(peak), int(scipy)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=11)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    args = ap.parse_args()

    print("module            import_s  peak_rss_mb  scipy_modules")
    for module in ("numpy", "fringescale.cli"):
        runs = [import_cost(module, args.root) for _ in range(args.runs)]
        seconds, peak, scipy = (statistics.median(v) for v in zip(*runs))
        print(f"{module:16s}  {seconds:8.4f}  {peak:11.1f}  {scipy:13g}")


if __name__ == "__main__":
    main()
