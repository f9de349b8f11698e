"""Compare the CPU time of the default ``check`` at a revision and in the working tree.

    python3 scripts/check_cpu.py [REV]     (REV defaults to HEAD)

REV's ``src/`` is exported with ``git archive`` into a temporary
directory; nothing is written under ``.git``. Each of five rounds runs
REV and the working tree once each, in a fresh interpreter, and swaps
which goes first from one round to the next. A run sums, over seeds 1
to 6, the least of 15 ``time.process_time`` readings of
``cli(["check", "--seed", s])``. Prints every round with its ratio
(working tree over REV), the medians of the times and of the ratios,
and how many rounds the working tree won. A slow spell of the host can
outlast a run, but both runs of a round share most of it, so the
per-round ratio is steadier than either median.

After the rounds, three more fresh interpreters per tree, swapping
which tree goes first as the rounds do, time each check function of
``veinprune.suite`` where ``run_suite`` runs it. Each interpreter draws
a fresh corpus for seeds 1 to 6, five times each, and sums over the
seeds each check's least CPU time of the five; the table lists the
least of the three sums at REV and in the working tree, and their
ratio, so it shows which checks moved. A check that REV lacks shows a
dash. Standard library only.
"""

from __future__ import annotations

import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ROUNDS = 5

# prints the summed CPU seconds; stdout is the one number
_CHILD = """
import contextlib, io, sys, time
import veinprune
from veinprune.cli import cli
if not veinprune.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported veinprune from {veinprune.__file__}")
total = 0.0
for seed in range(1, 7):
    best = float("inf")
    for _ in range(15):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.process_time()
            rc = cli(["check", "--seed", str(seed)])
            best = min(best, time.process_time() - start)
        if rc != 0:
            sys.exit(f"check --seed {seed} exited {rc}")
    total += best
print(total)
"""

# prints a JSON object: check name -> CPU seconds summed over the seeds
_BREAKDOWN = """
import json, sys, time
import veinprune
from veinprune import suite
if not veinprune.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported veinprune from {veinprune.__file__}")
names = [o.name for o in suite.run_suite(seed=1).outcomes]
took = {}

def timed(name, check):
    def run(*args):
        start = time.process_time()
        try:
            return check(*args)
        finally:
            took[name] = time.process_time() - start
    return run

for name in names:  # run_suite finds each check by its module name
    setattr(suite, "_" + name, timed(name, getattr(suite, "_" + name)))
total = dict.fromkeys(names, 0.0)
for seed in range(1, 7):
    best = dict.fromkeys(names, float("inf"))
    for _ in range(5):
        suite.run_suite(seed=seed)
        for name in names:
            best[name] = min(best[name], took[name])
    for name in names:
        total[name] += best[name]
print(json.dumps(total))
"""


def _child(code: str, src: Path) -> str:
    """The stdout of ``code`` run in a fresh interpreter on ``src``."""
    return subprocess.run(
        [sys.executable, "-c", code, str(src)], check=True,
        capture_output=True, text=True,
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}).stdout


def _run(src: Path) -> float:
    """Seconds of CPU summed over the seeds, in a fresh interpreter on ``src``."""
    return float(_child(_CHILD, src))


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        trees = {rev: Path(tmp, "src"), "working tree": REPO / "src"}
        times: dict[str, list[float]] = {name: [] for name in trees}
        ratios = []
        for r in range(ROUNDS):
            names = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for name in names:
                times[name].append(_run(trees[name]))
            ratios.append(times["working tree"][-1] / times[rev][-1])
            print(f"round {r + 1}: " + "  ".join(
                f"{name} {times[name][-1] * 1e3:.1f} ms" for name in trees)
                + f"  ratio {ratios[-1]:.3f}", flush=True)
        per_check: dict[str, dict[str, float]] = {name: {} for name in trees}
        for r in range(3):
            for name in list(trees) if r % 2 == 0 else list(trees)[::-1]:
                for check, took in json.loads(
                        _child(_BREAKDOWN, trees[name])).items():
                    per_check[name][check] = min(
                        took, per_check[name].get(check, took))
    base, new = (statistics.median(t) for t in times.values())
    print(f"median: {rev} {base * 1e3:.1f} ms  working tree "
          f"{new * 1e3:.1f} ms ({(new - base) / base:+.1%})")
    print(f"median ratio {statistics.median(ratios):.3f}; the working tree "
          f"won {sum(q < 1 for q in ratios)} of {ROUNDS} rounds")
    print(f"\nCPU per check, summed over seeds 1-6 (ms):\n"
          f"{'check':<34}{rev:>12}{'working tree':>14}{'ratio':>8}")
    old, cur = per_check[rev], per_check["working tree"]
    for name, took in cur.items():
        was = old.get(name)
        print(f"{name:<34}" + (f"{'-':>12}{took * 1e3:>14.2f}{'-':>8}"
                               if was is None else
                               f"{was * 1e3:>12.2f}{took * 1e3:>14.2f}"
                               f"{took / was:>8.3f}"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
