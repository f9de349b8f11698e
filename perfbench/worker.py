"""One benchmark process: set-up, a measured pass, or a traced replay.

    python3 perfbench/worker.py setup --workload W --seed N --scale S --work DIR --result FILE
    python3 perfbench/worker.py pass  --work DIR --slice K --result FILE [--keep]
    python3 perfbench/worker.py trace --work DIR --slice K --result FILE

``run.py`` starts each of these in a fresh interpreter and waits for it;
no two run at once. The package is imported from ``src/`` of the checkout
that holds this file, never from anywhere else on the path.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import random
import re
import resource
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import veinprune  # noqa: E402

if Path(veinprune.__file__).resolve().parent != ROOT / "src" / "veinprune":
    sys.exit(f"perfbench: imported veinprune from {veinprune.__file__}, "
             f"not from {ROOT / 'src'}")

# Layer functions come through their modules: the package attribute
# ``veinprune.irreducibles`` is the irreducibles() function, not the module.
from veinprune import cli as cli_mod  # noqa: E402
from veinprune import formats  # noqa: E402
from veinprune.cli import cli  # noqa: E402
from veinprune.formats import load_document  # noqa: E402
from veinprune.irreducibles import preservation_report, profiles  # noqa: E402
from veinprune.pruning import iterate_prune, prune, pruning_witness  # noqa: E402
from veinprune.suite import run_suite  # noqa: E402
from veinprune.veins import maximal_veins, strict_veins  # noqa: E402


# ----------------------------------------------------------------------
# allocator accounting


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


_libc = ctypes.CDLL(None)
_libc.mallinfo2.restype = _MallInfo2
_PYMALLOC_RE = re.compile(rb"# bytes in allocated blocks\s*=\s*([\d,]+)")


def allocated_bytes() -> int:
    """Bytes in live allocations: pymalloc blocks plus glibc malloc in use.

    Tracks what tracemalloc would report as traced memory, without
    tracing each allocation: tracemalloc slows a sparse_large pass about
    eightfold, so it cannot run on every pass. CPython on glibc only.
    """
    read_fd, write_fd = os.pipe()
    saved = os.dup(2)
    sys.stderr.flush()
    try:
        os.dup2(write_fd, 2)
        sys._debugmallocstats()
    finally:
        os.dup2(saved, 2)
        os.close(saved)
        os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        stats = fh.read()
    match = _PYMALLOC_RE.search(stats)
    if match is None:
        raise RuntimeError("no pymalloc statistics from sys._debugmallocstats")
    info = _libc.mallinfo2()
    return int(match.group(1).replace(b",", b"")) + info.uordblks + info.hblkhd


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# host-speed probe


PROBE_EVERY_S = 0.1  # a probe after the first op to end this long after the last
_PROBE_INTS = list(range(3000))
random.Random(0).shuffle(_PROBE_INTS)


def _probe_round() -> int:
    ordered = sorted(_PROBE_INTS)
    return sum(x * x for x in ordered if x & 1)


def probe() -> float:
    """Seconds of a fixed interpreter workload that does not use veinprune.

    Sorting a shuffled list of ints and summing over it: allocation and
    interpretation, like the ops, whose times it tracks one to one as the
    host slows down (measured on the reference host, where a pure lookup
    loop overstated the ops' slowdown). Every object it makes dies before
    it returns, so it leaves the collector's counts as it found them.
    run.py divides op times by its slowdown.
    """
    _probe_round()  # warm-up, untimed: the op before may have evicted it
    started = time.perf_counter()
    for _ in range(3):
        _probe_round()
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# ops


def witness_op(path: str) -> int:
    """The library witness op: pruning_witness for every strict pair."""
    with open(path, encoding="utf-8") as fh:
        p = load_document(fh.read()).to_poset()
    write = sys.stdout.write
    for x, y in p.relations():
        w = pruning_witness(p, x, y)
        write(f"{x} {y} {' '.join(w.chain) if w else '-'}\n")
    return 0


def execute(op: dict) -> int:
    if op["cmd"] == "witness":
        return witness_op(op["doc"])
    return cli(op["argv"])


def run_pass(ops: list[dict], keep: Path | None) -> dict:
    """Run every op once, closed loop, timing each; outputs are hashed.

    With ``keep`` set, each op's output is also written there (outside the
    timed region) for the correctness checks.
    """
    n = len(ops)
    seconds = array("d", bytes(8 * n))
    starts = array("d", bytes(8 * n))
    probes: list[tuple[float, float]] = []  # (offset in the pass, seconds)
    codes = array("i", bytes(4 * n))
    digests = bytearray(32 * n)
    raised: dict[int, str] = {}
    gc.collect()
    baseline = allocated_bytes()
    wall = time.perf_counter()
    probes.append((0.0, probe()))
    last_probe = time.perf_counter()
    for k, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        exc_name = None
        started = time.perf_counter()
        starts[k] = started - wall
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = execute(op)
        except Exception as exc:  # a failed op never aborts the pass
            rc = -1
            exc_name = f"{type(exc).__name__}: {str(exc)[:200]}"
        seconds[k] = time.perf_counter() - started
        codes[k] = rc
        if exc_name is not None:
            raised[k] = exc_name
        stdout, stderr = out.getvalue(), err.getvalue()
        digests[32 * k:32 * k + 32] = hashlib.sha256(
            f"{rc}\0{exc_name}\0{stdout}\0{stderr}".encode()).digest()
        if keep is not None:
            (keep / f"{k}.out").write_text(stdout, encoding="utf-8")
            (keep / f"{k}.err").write_text(stderr, encoding="utf-8")
        del out, err, stdout, stderr
        now = time.perf_counter()
        if now - last_probe >= PROBE_EVERY_S or k == n - 1:
            probes.append((now - wall, probe()))
            last_probe = time.perf_counter()
    wall = time.perf_counter() - wall
    gc.collect()
    retained = allocated_bytes() - baseline
    return {"seconds": list(seconds), "starts": list(starts),
            "probes": probes, "codes": list(codes),
            "digests": [digests[32 * k:32 * k + 32].hex() for k in range(n)],
            "raised": {str(k): v for k, v in raised.items()},
            "retained_bytes": retained, "peak_rss_mb": peak_rss_mb(),
            "wall_s": wall}


# ----------------------------------------------------------------------
# traced replay


class Tracer:
    """Spans kept in memory: (name, start, end, parent, op id, error)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op_id = -1

    def __call__(self, span_name: str, fn, /, *args, **kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        error = None
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (span_name, start, end, parent, self.op_id, error)


def replay(op: dict, span: Tracer, counts: dict, posets: list) -> None:
    """Run one op as the layer calls its command makes, in the same order.

    Mirrors ``veinprune.cli`` (and ``witness_op``) call for call, printing
    the same output, so the op's own span is the ``cli`` layer: argument
    parsing, file reading and output formatting are its self time. The
    poset it builds goes to ``posets``, to be counted outside the span.
    """
    cmd = op["cmd"]
    out = sys.stdout.write
    if cmd != "witness":
        args = span("cli.parse_args", cli_mod._build_parser().parse_args,
                    op["argv"])
    if cmd == "check":
        result = span("suite.run_suite", run_suite, seed=args.seed,
                      count=args.count, max_size=args.max_size)
        counts["suite.posets_checked"] += sum(o.checked for o in result.outcomes)
        for o in result.outcomes:
            out(f"ok   {o.name} ({o.checked} checked)\n" if o.ok else
                f"FAIL {o.name} ({o.checked} checked, {len(o.violations)} violations)\n")
        out(f"{len(result.outcomes)} checks passed (seed {args.seed})\n")
        return
    with open(op["doc"], encoding="utf-8") as fh:
        text = fh.read()
    counts["formats.bytes_in"] += len(text.encode())
    doc = span("formats.load_document", load_document, text)
    p = span("poset.build", doc.to_poset)
    posets.append(p)
    if cmd == "info":
        if doc.name:
            out(f"name: {doc.name}\n")
        out(f"elements: {len(p)}\n")
        out(f"cover pairs: {len(span('poset.covers', lambda: p.covers))}\n")
        out(f"strict relations: {len(span('poset.relations', p.relations))}\n")
        out(f"minimal elements: {' '.join(span('poset.minimal_elements', p.minimal_elements))}\n")
        out(f"maximal elements: {' '.join(span('poset.maximal_elements', p.maximal_elements))}\n")
        out(f"height: {max(span('poset.heights', p.heights).values())}\n")
        chains = span("cli.count_maximal_chains", cli_mod._count_maximal_chains, p)
        out(f"maximal chains: {chains}\n")
        if chains <= 20:
            for chain in span("poset.maximal_chains", p.maximal_chains):
                out("  " + " ".join(chain) + "\n")
        complete = span("poset.cond_complete", p.is_conditionally_complete)
        out(f"conditionally complete: {'yes' if complete else 'no'}\n")
    elif cmd == "veins":
        found = span("veins.strict_veins", strict_veins, p, mode=args.mode)
        counts["veins.strict_veins"] += len(found)
        counts["veins.bridge_edges"] += sum(len(v) == 2 for v in found)
        out(f"strict veins ({len(found)}):\n" if found else "strict veins: none\n")
        for v in found:
            out("  " + " ".join(v) + "\n")
        maximal = span("veins.maximal_veins", maximal_veins, p)
        out(f"maximal veins ({len(maximal)}):\n")
        for v in maximal:
            out("  " + " ".join(v) + "\n")
    elif cmd == "prune":
        rep = span("pruning.prune", prune, p, mode=args.mode)
        counts["pruning.removed_relations"] += rep.removed_relations
        pruned = span("formats.from_poset", formats.PosetDocument.from_poset,
                      rep.pruned, name=doc.name)
        emit = formats.emit_json if args.format == "json" else formats.emit_text
        payload = span(f"formats.{emit.__name__}", emit, pruned)
        counts["formats.bytes_out"] += len(payload.encode())
        out(payload)
    elif cmd == "iterate":
        run = span("pruning.iterate_prune", iterate_prune, p,
                   max_iters=args.max, mode=args.mode)
        idx = run.fixpoint_index
        out(f"fixpoint after {idx} iteration{'s' if idx != 1 else ''}\n")
    elif cmd == "irr":
        prof = span("irreducibles.profiles", profiles, p)
        width = max(len("element"), max(len(x) for x in p.labels))
        out(f"{'element':<{width}}  irreducible  coirreducible  doubly\n")
        yn = {True: "yes", False: "no"}
        for x in p.labels:
            e = prof[x]
            out(f"{x:<{width}}  {yn[e.irreducible]:<11}  "
                f"{yn[e.coirreducible]:<13}  {yn[e.doubly]}\n")
        if not span("poset.cond_complete", p.is_conditionally_complete):
            out("conditionally complete: no (preservation not evaluated)\n")
        elif span("irreducibles.preservation_report", preservation_report, p).preserved:
            out("preserved under pruning: yes\n")
    elif cmd == "dot":
        prof = span("irreducibles.profiles", profiles, p)
        payload = span("formats.emit_dot", formats.emit_dot, p, prof)
        counts["formats.bytes_out"] += len(payload.encode())
        out(payload)
    elif cmd == "witness":
        for x, y in span("poset.relations", p.relations):
            w = span("pruning.pruning_witness", pruning_witness, p, x, y)
            counts["pruning.witness_queries"] += 1
            counts["pruning.witness_hits"] += w is not None
            out(f"{x} {y} {' '.join(w.chain) if w else '-'}\n")
    else:
        raise ValueError(f"unknown command {cmd!r}")


def run_trace(ops: list[dict], slice_no: int) -> dict:
    tracer = Tracer()
    counts = {key: 0 for key in (
        "suite.posets_checked", "formats.bytes_in", "formats.bytes_out",
        "poset.elements", "poset.covers", "poset.relations",
        "veins.strict_veins", "veins.bridge_edges",
        "pruning.removed_relations", "pruning.witness_queries",
        "pruning.witness_hits")}
    for op in ops:
        tracer.op_id = f"{slice_no}:{op['id']}"
        posets: list = []
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                tracer(f"cli.{op['cmd']}", replay, op, tracer, counts, posets)
        except Exception:  # recorded on the span; the replay goes on
            pass
        for p in posets:  # outside the op's span
            counts["poset.elements"] += len(p)
            counts["poset.covers"] += len(p.covers)
            counts["poset.relations"] += len(p.relations())
    return {"spans": tracer.spans, "counts": counts}


# ----------------------------------------------------------------------
# set-up


def run_setup(workload: str, seed: int, scale: str, work: Path) -> dict:
    import workloads

    # Probes before, during (between documents, outside the timing) and
    # after the set-up, as in a pass.
    probes = [probe() for _ in range(3)]
    paused = 0.0
    last = time.perf_counter()

    def tick() -> None:
        nonlocal paused, last
        now = time.perf_counter()
        if now - last >= PROBE_EVERY_S:
            probes.append(probe())
            last = time.perf_counter()
            paused += last - now

    started = time.perf_counter()
    files, slices, cycle_s = workloads.build(workload, seed, scale, tick)
    for rel, text in files.items():
        (work / rel).write_text(text, encoding="utf-8")
    setup_s = time.perf_counter() - started - paused
    probes += [probe() for _ in range(3)]
    manifest = json.dumps({"workload": workload, "seed": seed, "scale": scale,
                           "cycle_s": cycle_s, "slices": slices}, sort_keys=True)
    (work / "manifest.json").write_text(manifest, encoding="utf-8")
    digest = hashlib.sha256(manifest.encode())
    for rel in sorted(files):
        digest.update(files[rel].encode())
    return {"setup_s": setup_s, "probes": probes,
            "inputs_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass", "trace"))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--slice", type=int, default=0)
    parser.add_argument("--keep", type=Path)
    args = parser.parse_args()
    work = args.work.resolve()
    result_path = args.result.resolve()
    if args.mode == "setup":
        result = run_setup(args.workload, args.seed, args.scale, work)
    else:
        manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        ops = manifest["slices"][args.slice]
        keep = args.keep.resolve() if args.keep else None
        os.chdir(work)  # op argv name documents relative to the work dir
        if args.mode == "pass":
            result = run_pass(ops, keep)
        else:
            result = run_trace(ops, args.slice)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
