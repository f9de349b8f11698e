"""The veinprune benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds nothing: the package is
imported from ``src/`` by worker processes. One client, closed loop: each
op starts after the previous one ends, and each worker process is waited
for before the next starts.

1. Set-up: a worker generates and serializes the workload's documents
   (timed as ``setup_s``; with ``--trace 0`` three to five times, the
   fourth and fifth only within the run's first 6 s; median kept).
2. Measured passes: each pass runs one slice of ops in a fresh
   interpreter. A run makes round(``--seconds`` / the workload's nominal
   cycle duration) whole cycles over the slices, at least one, so it
   measures about ``--seconds`` on the seed and the same ops on every
   commit. A run that would pass 150 s stops starting passes. Between
   ops, outside their timing, about every 0.1 s, the worker times a fixed
   probe loop; each op time (and each set-up time) is divided by the
   host's slowdown the probes show around it, so it reads as on the
   reference host at full speed. The report lines give the unscaled values.
3. ``--trace 1`` adds a traced replay of every slice, which gives the
   per-layer metrics and the tracing overhead against the first untraced
   pass of each slice.
4. Every op's output is checked against ``reference.py``, outside any
   timed region. Repeated ops must repeat their output exactly.

The last line of standard output is the JSON result; the lines before it
are a readable report. See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

WORKLOADS = ("sparse_large", "deep_shapes", "small_corpus")
COMMANDS = ("info", "veins", "prune", "iterate", "irr", "dot", "check", "witness")
LAYERS = ("cli", "formats", "poset", "veins", "pruning", "irreducibles", "suite")
SETUP_REPEATS = (3, 5)  # set-ups per untraced run: at least, at most
SETUP_BUDGET_S = 6.0   # no set-up past the least count beyond this
RUN_LIMIT_S = 150.0  # stop starting passes past this, to end within 180 s
DEADLINE_S = 175.0   # no worker may run past this point of the run
# The host-speed probe (worker.probe) takes this long on the reference host,
# a 2-vCPU Xeon, at its fastest. Reported times are at that speed.
PROBE_REFERENCE_S = 0.0015
PROBE_WINDOW_S = 0.25  # probes this close to an op measure its host speed


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker(args: list[str], result: Path, started: float) -> dict:
    """Run one worker process to completion; it is killed at the deadline."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "worker.py"), *args,
         "--result", str(result)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, started + DEADLINE_S - time.perf_counter()))
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def slowdowns(res: dict) -> list[float]:
    """Host slowdown during each op of a pass, against the reference.

    The median of the probes within PROBE_WINDOW_S of the op (the nearest
    probe when none is), over PROBE_REFERENCE_S.
    """
    at = [offset for offset, _ in res["probes"]]
    out = []
    for start, secs in zip(res["starts"], res["seconds"]):
        lo = bisect.bisect_left(at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(at, start + secs + PROBE_WINDOW_S)
        window = [q for _, q in res["probes"][lo:hi]]
        if not window:
            window = [min(res["probes"], key=lambda pr: abs(pr[0] - start))[1]]
        out.append(statistics.median(window) / PROBE_REFERENCE_S)
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond."""
    ordered = sorted(values)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def self_times(spans: list) -> dict[str, list[float]]:
    """Self time per span name: duration minus the time of its children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _err in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[float]] = {}
    for k, (name, start, end, _parent, _op, _err) in enumerate(spans):
        out.setdefault(name, []).append(end - start - child[k])
    return out


def layer_metrics(trace: dict, untraced_s: float,
                  samples: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    spans = trace["spans"]
    counts = trace["counts"]
    by_name = self_times(spans)
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        named = [s for s in spans if s[0].split(".")[0] == layer]
        m[f"{layer}.calls"] = (len(named), "count")
        m[f"{layer}.errors"] = (sum(s[5] is not None for s in named), "count")
        m[f"{layer}.self_s"] = (sum(sum(v) for k, v in by_name.items()
                                    if k.split(".")[0] == layer), "s")

    def total(*names: str) -> float:
        return sum(sum(by_name.get(n, [])) for n in names)

    for cmd in COMMANDS:
        got = samples.get(cmd)
        m[f"cli.{cmd}_ms"] = (statistics.median(got) * 1e3 if got else 0.0, "ms")
    m["formats.load_s"] = (total("formats.load_document"), "s")
    m["formats.emit_text_s"] = (total("formats.emit_text"), "s")
    m["formats.emit_json_s"] = (total("formats.emit_json"), "s")
    m["formats.emit_dot_s"] = (total("formats.emit_dot"), "s")
    m["formats.bytes_in"] = (counts["formats.bytes_in"], "bytes")
    m["formats.bytes_out"] = (counts["formats.bytes_out"], "bytes")
    m["poset.build_s"] = (total("poset.build"), "s")
    m["poset.cond_complete_s"] = (total("poset.cond_complete"), "s")
    m["poset.heights_s"] = (total("poset.heights"), "s")
    for key in ("elements", "covers", "relations"):
        m[f"poset.{key}"] = (counts[f"poset.{key}"], "count")
    m["veins.strict_veins_s"] = (total("veins.strict_veins"), "s")
    m["veins.maximal_veins_s"] = (total("veins.maximal_veins"), "s")
    m["veins.bridge_edges"] = (counts["veins.bridge_edges"], "count")
    m["veins.strict_veins"] = (counts["veins.strict_veins"], "count")
    m["pruning.prune_s"] = (total("pruning.prune"), "s")
    m["pruning.iterate_s"] = (total("pruning.iterate_prune"), "s")
    m["pruning.witness_s"] = (total("pruning.pruning_witness"), "s")
    m["pruning.removed_relations"] = (counts["pruning.removed_relations"], "count")
    queries = counts["pruning.witness_queries"]
    m["pruning.witness_queries"] = (queries, "count")
    m["pruning.witness_hit_ratio"] = (
        counts["pruning.witness_hits"] / queries if queries else 0.0, "ratio")
    m["irreducibles.profiles_s"] = (total("irreducibles.profiles"), "s")
    m["irreducibles.preservation_s"] = (
        total("irreducibles.preservation_report"), "s")
    m["suite.run_suite_s"] = (total("suite.run_suite"), "s")
    m["suite.posets_checked"] = (counts["suite.posets_checked"], "count")
    traced_s = sum(end - start for name, start, end, parent, _o, _e in spans
                   if parent < 0)
    m["trace.spans"] = (len(spans), "count")
    m["trace.replay_s"] = (traced_s, "s")
    m["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    return m


def check_outputs(work: Path, slices: list[list[dict]], passes: list[dict]) -> list[list[tuple[str, str]]]:
    """Status of every op of every pass: ('ok' | 'known' | 'bad', detail)."""
    verdict: dict[int, list[tuple[str, str]]] = {}
    reference: dict[int, list[str]] = {}
    facts: dict[str, checks.Facts] = {}  # one per document
    statuses = []
    for res in passes:
        j = res["slice"]
        if j not in verdict:
            keep = work / f"out{j}"
            verdicts = []
            for k, op in enumerate(slices[j]):
                doc = op["doc"]
                if doc is not None and doc not in facts:
                    facts[doc] = checks.Facts(
                        op, (work / doc).read_text(encoding="utf-8"))
                verdicts.append(checks.check_op(
                    op, facts.get(doc), res["codes"][k], res["raised"].get(str(k)),
                    (keep / f"{k}.out").read_text(encoding="utf-8"),
                    (keep / f"{k}.err").read_text(encoding="utf-8")))
            verdict[j] = verdicts
            reference[j] = res["digests"]
        statuses.append([
            verdict[j][k] if res["digests"][k] == reference[j][k]
            else ("bad", "output differs from the same op in an earlier pass")
            for k in range(len(slices[j]))])
    return statuses


def main() -> int:
    parser = argparse.ArgumentParser(description="veinprune benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: every shape at toy size (smoke check)")
    args = parser.parse_args()
    if not (ROOT / "src" / "veinprune" / "__init__.py").is_file():
        print(f"perfbench: no veinprune sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work, started)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, started: float) -> int:
    setup_args = ["setup", "--workload", args.workload, "--seed",
                  str(args.seed), "--scale", args.scale, "--work", str(work)]
    least, most = SETUP_REPEATS if args.trace == 0 else (1, 1)
    setups = []
    while len(setups) < most and (
            len(setups) < least
            or time.perf_counter() - started < SETUP_BUDGET_S):
        setups.append(worker(setup_args, work / f"setup{len(setups)}.json",
                             started))
    if len({s["inputs_sha256"] for s in setups}) != 1:
        raise BenchError("set-up is not deterministic in the seed")
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    slices = manifest["slices"]

    # A fixed number of whole cycles, sized to --seconds on the seed: every
    # run, on any commit, times the same op sequence, so percentiles are
    # taken over the same number of samples.
    cycles = max(1, round(args.seconds / manifest["cycle_s"]))
    passes: list[dict] = []
    measure_start = time.perf_counter()
    while len(passes) < cycles * len(slices):
        j = len(passes) % len(slices)
        pass_args = ["pass", "--work", str(work), "--slice", str(j)]
        if j == len(passes):  # first pass over this slice keeps its outputs
            (work / f"out{j}").mkdir()
            pass_args += ["--keep", str(work / f"out{j}")]
        res = worker(pass_args, work / f"pass{len(passes)}.json", started)
        res["slice"] = j
        passes.append(res)
        now = time.perf_counter()
        if now - started + (now - measure_start) / len(passes) > RUN_LIMIT_S:
            break
    measured_s = time.perf_counter() - measure_start

    trace = None
    if args.trace == 1:  # one traced replay per slice, each in a fresh process
        trace = {"spans": [], "counts": {}}
        for j in range(min(len(slices), len(passes))):
            part = worker(["trace", "--work", str(work), "--slice", str(j)],
                          work / f"trace{j}.json", started)
            base = len(trace["spans"])
            trace["spans"] += [(name, start, end, parent + base if parent >= 0 else -1, op, err)
                               for name, start, end, parent, op, err in part["spans"]]
            for key, value in part["counts"].items():
                trace["counts"][key] = trace["counts"].get(key, 0) + value
        spans = work.parent / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps(trace["spans"]), encoding="utf-8")

    check_start = time.perf_counter()
    statuses = check_outputs(work, slices, passes)
    check_s = time.perf_counter() - check_start
    # Every time is divided by the host's slowdown while it was measured,
    # so that it reads as on the reference host at full speed: a shared
    # host's speed can change by 2x from one second to the next and by a
    # quarter between runs (it did on the reference host), which would
    # otherwise swamp the program's own changes.
    times, raw, elements, samples = [], [], 0, {}
    status_count = {"ok": 0, "known": 0, "bad": 0}
    bad = []
    for res, status in zip(passes, statuses):
        slow = slowdowns(res)
        for k, op in enumerate(slices[res["slice"]]):
            t = res["seconds"][k] / slow[k]
            times.append(t)
            raw.append(res["seconds"][k])
            samples.setdefault(op["cmd"], []).append(t)
            state, detail = status[k]
            status_count[state] += 1
            if state == "ok":
                elements += op["n"]
            elif state == "bad" and len(bad) < 5:
                bad.append(f"op {k} ({op['command']} on {op['kind']} "
                           f"{op['doc']}): {detail}")
    attempted = len(times)
    failed = status_count["known"] + status_count["bad"]
    tail_value, tail_pct = tail(times)
    setup_slow = [statistics.median(s["probes"]) / PROBE_REFERENCE_S
                  for s in setups]
    e2e = {
        "setup_s": (statistics.median(s["setup_s"] / f for s, f
                                      in zip(setups, setup_slow)), "s"),
        "elements_per_s": (elements / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "completed_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
        "retained_mb": (statistics.median(r["retained_bytes"] for r in passes) / 1e6, "MB"),
    }

    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: "
          f"{len(passes)} passes over {len(slices)} slices in {measured_s:.2f} s; "
          f"checks {check_s:.2f} s; run {time.perf_counter() - started:.2f} s")
    print(f"ops attempted {attempted}, completed {status_count['ok']}, "
          f"known failures {status_count['known']}, unexpected failures "
          f"{status_count['bad']}")
    print(f"failed_ratio {failed / attempted:.6f} ratio "
          f"({failed} of {attempted} ops)")
    print(f"op_tail_ms is p{tail_pct:.2f} of {attempted} samples "
          f"({attempted - round(attempted * tail_pct / 100)} beyond)")
    all_slow = [f for res in passes for f in slowdowns(res)]
    print(f"host slowdown against the reference: median "
          f"{statistics.median(all_slow):.3f} over the passes, "
          f"{statistics.median(setup_slow):.3f} over the set-ups")
    print(f"unscaled, as timed on this host: setup_s "
          f"{statistics.median(s['setup_s'] for s in setups):.6g} s, "
          f"elements_per_s {elements / sum(raw):.6g} 1/s, op_p50_ms "
          f"{statistics.median(raw) * 1e3:.6g} ms, op_tail_ms "
          f"{tail(raw)[0] * 1e3:.6g} ms")
    for line in bad:
        print(f"WRONG {line}")
    if trace is None:
        metrics = e2e
    else:
        untraced_s = sum(sum(res["seconds"]) for res in passes[:len(slices)])
        metrics = layer_metrics(trace, untraced_s, samples)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": status_count["bad"] == 0,
        "attempted": attempted,
        "failed": status_count["bad"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
