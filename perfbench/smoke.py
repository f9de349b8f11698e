"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload at tiny scale, untraced and traced, and checks the
   result line against ``BENCHMARK.json``: exact keys, every metric named
   there and no other, correct outputs, no unexpected failures, and the
   known-failing ops counted.
2. Feeds the output checks real outputs of every command (each must pass)
   and tampered copies (each must fail), and holds the reference's closed
   forms equal to its definition route on a small corpus.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   ``perfbench/``: it must exit non-zero without printing a result.

Exits 0 when every check holds; prints one line per failure otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from veinprune import families, formats  # noqa: E402
from veinprune.cli import cli  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        FAILURES.append(what)
        print(f"FAIL {what}")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workloads() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run_bench(ROOT, "--workload", w["name"], "--seed", "7",
                             "--seconds", "1", "--trace", str(trace),
                             "--scale", "tiny")
            what = f"{w['name']} trace {trace}"
            expect(proc.returncode == 0, f"{what}: exit {proc.returncode} {proc.stderr[-300:]}")
            if proc.returncode:
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{what}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{what}: outputs not correct")
            expect(result["attempted"] >= 1, f"{what}: nothing attempted")
            expect(list(result["metrics"]) == names[trace],
                   f"{what}: metric names differ from BENCHMARK.json")
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()),
                   f"{what}: a metric value is not a number")
            if trace == 0:
                for m in ("elements_per_s", "op_p50_ms", "op_tail_ms", "setup_s"):
                    expect(result["metrics"][m]["value"] > 0, f"{what}: {m} is 0")
            known = "known failures 0" not in proc.stdout
            expect(known == (w["name"] != "sparse_large"),
                   f"{what}: known-failing ops not counted as expected")


def _run(argv: list[str]) -> tuple[int, str, str | None]:
    out = io.StringIO()
    raised = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli(argv)
    except Exception as exc:
        rc, raised = -1, f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), raised


def _witness(doc: formats.PosetDocument) -> str:
    from veinprune.pruning import pruning_witness
    p = doc.to_poset()
    lines = []
    for x, y in p.relations():
        w = pruning_witness(p, x, y)
        lines.append(f"{x} {y} {' '.join(w.chain) if w else '-'}")
    return "".join(line + "\n" for line in lines)


def _flip(text: str, a: str, b: str) -> str:
    """Swap the first a for b (or b for a when a is absent)."""
    if a in text:
        return text.replace(a, b, 1)
    return text.replace(b, a, 1)


# tamperings that must each be caught: command -> list of (label, fn)
TAMPER = {
    "info": [("height", lambda t: t.replace("height: ", "height: 1", 1)),
             ("complete", lambda t: _flip(t, "complete: yes", "complete: no"))],
    "veins": [("drop vein", lambda t: "\n".join(
        line for k, line in enumerate(t.splitlines()) if k != 1) + "\n")],
    "prune": [("drop cover", lambda t: "".join(t.splitlines(True)[:-1])),
              ("add cover", lambda t: t + "ZZ < ZY\n")],
    "prune_json": [("rename", lambda t: t.replace('"elements"', '"name": "x", "elements"', 1))],
    "iterate": [("count", lambda t: _flip(t, "after 1 iteration\n", "after 0 iterations\n"))],
    "irr": [("flag", lambda t: _flip(t, "  yes  ", "  no   "))],
    "dot": [("attributes", lambda t: "".join(
        line for line in t.splitlines(True) if "[style" not in line)),
            ("edges", lambda t: "".join(
                line for line in t.splitlines(True) if " -> " not in line))],
    "witness": [("chain", lambda t: t.replace(" -\n", " x\n", 1) if " -\n" in t
                 else t.replace("\n", " extra\n", 1))],
}


def check_checks() -> None:
    from workloads import ladder
    cases = [("random", {}, p) for p in families.random_corpus(40, 8, 3)]
    cases += [("downset", {}, p) for p in families.downset_corpus(5, 4, 3)]
    cases += [("chain", {"n": 9}, families.chain_poset(9)),
              ("boolean", {"k": 3}, families.boolean_poset(3)),
              ("ladder", {"k": 3}, ladder(3))]
    tried = {key: 0 for key in TAMPER}
    for kind, params, p in cases:
        doc = formats.PosetDocument.from_poset(p)
        text = formats.emit_text(doc)
        facts = checks.Facts({"kind": kind, "params": params}, text)
        expect(facts.closed_form_problem() is None, f"closed form of {kind} {params}")
        expect(facts.definition_problem() is None, f"definition route on {text!r}")
        path = HERE.parent / ".perfbench" / "smoke.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        for command in TAMPER:
            op = {"kind": kind, "params": params, "command": command,
                  "cmd": command.split("_")[0], "known_failure": None}
            if command == "witness":
                rc, out, raised = 0, _witness(doc), None
            else:
                argv = {"prune_json": ["prune", "--format", "json"]}.get(
                    command, [command])
                rc, out, raised = _run(argv + [str(path)])
            state, detail = checks.check_op(op, facts, rc, raised, out, "")
            expect(state == "ok", f"{command} on {kind} {text!r}: {detail}")
            for label, fn in TAMPER[command]:
                bad = fn(out)
                if bad == out:
                    continue
                tried[command] += 1
                state, _ = checks.check_op(op, facts, rc, raised, bad, "")
                expect(state == "bad", f"tampered {command} ({label}) passed on {kind}")
    for command in TAMPER:
        expect(tried[command] > 0, f"no tampering of {command} was tried")
    # a known failure is classified as one, an unknown exception is not
    op = {"kind": "empty", "params": {}, "command": "info", "cmd": "info",
          "known_failure": "ValueError"}
    empty = checks.Facts(op, "")
    expect(checks.check_op(op, empty, -1, "ValueError: max()", "", "")[0] == "known",
           "known failure not classified as known")
    expect(checks.check_op(op, empty, -1, "TypeError: x", "", "")[0] == "bad",
           "unexpected exception not classified as bad")
    (ROOT / ".perfbench" / "smoke.txt").unlink(missing_ok=True)


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench(bare, "--workload", "small_corpus", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        expect(proc.returncode != 0, "bare directory: exit code 0")
        expect('"correct"' not in proc.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_checks()
    check_bare_directory()
    check_workloads()
    print("smoke: ok" if not FAILURES else f"smoke: {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
