"""Every end-to-end metric of every workload, by name, with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py --trace 0`` once per workload listed in ``BENCHMARK.json``
(seconds default to its ``run_seconds``) and prints one table. It adds
``failed_ratio``, the complement of ``completed_ratio``, and the
percentile and sample count behind ``op_tail_ms``.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    rows: dict[str, dict[str, str]] = {}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["failed_ratio"] = "ratio"
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
            timeout=180)
        if proc.returncode != 0:
            print(f"{w['name']}: failed\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        col = {name: f"{m['value']:.4g}" for name, m in result["metrics"].items()}
        col["failed_ratio"] = re.search(r"^failed_ratio (\S+)", proc.stdout,
                                        re.M).group(1)
        tail = re.search(r"op_tail_ms is (p\S+) of (\d+) samples", proc.stdout)
        col["op_tail_ms"] += f" ({tail.group(1)} of {tail.group(2)})"
        col["correct"] = str(result["correct"]).lower()
        rows[w["name"]] = col
    names = list(units) + ["correct"]
    units["correct"] = "-"
    width = max(len(n) for n in names) + 2
    print(f"{'metric':<{width}}{'unit':<8}" + "".join(f"{w:<26}" for w in rows))
    for name in names:
        print(f"{name:<{width}}{units[name]:<8}"
              + "".join(f"{rows[w].get(name, '-'):<26}" for w in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
