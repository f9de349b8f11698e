"""Correctness checks for every op a benchmark pass ran.

Each check parses the op's output and compares it with facts that
``reference.RefPoset`` computes from the op's input document: by the
definitions on small posets, by closed forms everywhere else, and against
the generator's own closed forms for chains, Boolean lattices, ladders and
the deep poset. Nothing here imports ``veinprune``.
"""

from __future__ import annotations

import json
import math
import re

from reference import RefPoset, bits, parse_document

# Posets up to this size are checked by the definition route.
DEFINITION_LIMIT = 12

# Shapes whose conditional completeness is known in closed form: chains,
# Boolean and down-set lattices, and diamond ladders are lattices; the deep
# poset's bowtie has two minimal upper bounds for a and b.
_COMPLETE = {"chain": True, "boolean": True, "downset": True, "ladder": True,
             "deep": False, "empty": True}


class Facts:
    """What the reference says about one input document, computed lazily."""

    def __init__(self, op: dict, text: str):
        self.kind = op["kind"]
        self.params = op["params"]
        self.name, elements, pairs = parse_document(text)
        self.p = RefPoset(elements, pairs)
        self.by_definition = (self.p.n <= DEFINITION_LIMIT
                              and self.kind in ("random", "downset", "empty"))
        self._cache: dict = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def closed_form_problem(self) -> str | None:
        """The generator's shape facts, held against the reference."""
        p, q = self.p, self.params
        if self.kind == "chain":
            n = q["n"]
            want = (n, n - 1, n * (n - 1) // 2, n - 1, 1)
        elif self.kind == "boolean":
            k = q["k"]
            want = (2 ** k, k * 2 ** (k - 1), 3 ** k - 2 ** k, 0,
                    math.factorial(k))
        elif self.kind == "ladder":
            k = q["k"]
            want = (3 * k + 2, 4 * k + 1, None, 1, 2 ** k)
        elif self.kind == "deep":
            d = q["depth"]
            want = (d + 4, d + 5, None, d - 1, 4)
        else:
            return None
        got = (p.n, len(p.cover_pairs()), p.relation_count(),
               len(p.bridges()), p.chain_count())
        for label, w, g in zip(("elements", "covers", "relations", "bridges",
                                "maximal chains"), want, got):
            if w is not None and w != g:
                return f"closed form for {self.kind} {q}: {label} {g} != {w}"
        return None

    def complete(self) -> bool:
        if self.kind in _COMPLETE:
            return _COMPLETE[self.kind]
        return self._memo("complete", self.p.conditionally_complete)

    def strict_veins(self) -> list[tuple[str, ...]]:
        return self._memo("veins", self.p.strict_veins_closed)

    def definition_problem(self) -> str | None:
        """On small posets, the closed forms must match the definitions."""
        if not self.by_definition:
            return None
        return self._memo("definition", self._definition_problem)

    def _definition_problem(self) -> str | None:
        p = self.p
        veins = p.strict_vein_masks_def()
        if sorted(p.chain_names(v) for v in veins) != self.strict_veins():
            return "reference: bridge-run veins differ from the definition"
        reach = self.pruned_above()
        for i in range(p.n):
            for j in bits(p.above[i]):
                if (p.witness_def(i, j, veins) is not None) != bool(reach[i] >> j & 1):
                    return "reference: bridge-free reachability differs from the definition"
            if (p.irreducible_def(i) != p.irreducible_closed(i)
                    or p.coirreducible_def(i) != p.coirreducible_closed(i)):
                return "reference: cover-count irreducibility differs from the definition"
        return None

    def pruned_above(self) -> list[int]:
        return self._memo("pruned", self.p.pruned_above_closed)

    def pruned_covers(self) -> set[tuple[str, str]]:
        return self._memo("pruned_covers",
                          lambda: self.p.pruned_covers_closed(self.pruned_above()))


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# ----------------------------------------------------------------------
# per-command checks: each returns None or a description of the mismatch


def check_info(f: Facts, out: str) -> str | None:
    p = f.p
    fields: dict[str, str] = {}
    chains = []
    for line in out.splitlines():
        if line.startswith("  "):
            chains.append(tuple(line.split()))
        else:
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
    want = {"elements": str(p.n), "cover pairs": str(len(p.cover_pairs())),
            "strict relations": str(p.relation_count()),
            "minimal elements": " ".join(p.minimal()),
            "maximal elements": " ".join(p.maximal()),
            "conditionally complete": _yn(f.complete())}
    if f.name:
        want["name"] = f.name
    if p.n:
        count = p.chain_count()
        want["height"] = str(max(p.heights()))
        want["maximal chains"] = str(count)
        listed = [tuple(p.labels[k] for k in c) for c in p.chain_masks()] \
            if count <= 20 else []
        if chains != listed:
            return "listed maximal chains differ"
    for key, value in want.items():
        if fields.get(key) != value:
            return f"info {key!r}: got {fields.get(key)!r}, want {value!r}"
    return None


def check_veins(f: Facts, out: str) -> str | None:
    strict: list[tuple[str, ...]] = []
    maximal: list[tuple[str, ...]] = []
    section = None
    declared = {}
    for line in out.splitlines():
        if line.startswith("strict veins"):
            section = strict
            m = re.search(r"\((\d+)\)", line)
            declared["strict"] = int(m.group(1)) if m else 0
        elif line.startswith("maximal veins"):
            section = maximal
            m = re.search(r"\((\d+)\)", line)
            declared["maximal"] = int(m.group(1)) if m else -1
        elif line.startswith("  ") and section is not None:
            section.append(tuple(line.split()))
        else:
            return f"unexpected line {line[:60]!r}"
    if strict != f.strict_veins():
        return f"strict veins differ ({len(strict)} listed, {len(f.strict_veins())} expected)"
    if maximal != f.p.maximal_veins():
        return "maximal veins differ"
    if declared.get("strict") != len(strict) or declared.get("maximal") != len(maximal):
        return "declared vein counts differ from the listed veins"
    members = [x for v in maximal for x in v]
    if sorted(members) != f.p.labels:
        return "maximal veins do not partition the elements"
    return None


def check_prune(f: Facts, out: str, fmt: str) -> str | None:
    if fmt == "json":
        obj = json.loads(out)
        name, elements, pairs = (obj.get("name"), obj["elements"],
                                 [tuple(c) for c in obj["covers"]])
    else:
        name, elements, pairs = parse_document(out)
        first = out.splitlines()[0] if out.strip() else ""
        name = first[2:] if first.startswith("# ") else None
    if name != f.name:
        return f"pruned document name {name!r}, want {f.name!r}"
    if sorted(elements) != f.p.labels:
        return "pruning changed the element set"
    # covers inside the original order keep their closure inside it
    p = f.p
    if any(not p.above[p.index[a]] >> p.index[b] & 1 for a, b in pairs):
        return "pruning added a relation"
    if set(pairs) != f.pruned_covers():
        return "pruned covers differ"
    return None


def check_iterate(f: Facts, out: str) -> str | None:
    k = 0 if f.pruned_above() == f.p.above else 1
    want = f"fixpoint after {k} iteration{'s' if k != 1 else ''}\n"
    return None if out == want else f"iterate printed {out.strip()!r}, want {want.strip()!r}"


def check_irr(f: Facts, out: str) -> str | None:
    p = f.p
    lines = out.splitlines()
    if not lines or lines[0].split() != ["element", "irreducible",
                                         "coirreducible", "doubly"]:
        return "missing irr header"
    rows = [line.split() for line in lines[1:-1]]
    want = []
    for i, lab in enumerate(p.labels):
        irr, co = p.irreducible_closed(i), p.coirreducible_closed(i)
        want.append([lab, _yn(irr), _yn(co), _yn(irr and co)])
    if rows != want:
        return "irreducibility table differs"
    last = ("preserved under pruning: yes" if f.complete()
            else "conditionally complete: no (preservation not evaluated)")
    return None if lines[-1] == last else f"irr verdict {lines[-1]!r}, want {last!r}"


_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')


def check_dot(f: Facts, out: str) -> str | None:
    p = f.p
    ranks, attrs, edges = [], {}, set()
    for line in out.splitlines()[3:-1]:
        line = line.strip()
        if line.startswith("{ rank=same;"):
            ranks.append(sorted(_QUOTED.findall(line)))
        elif " -> " in line:
            a, b = _QUOTED.findall(line)
            edges.add((a, b))
        else:
            m = re.match(r'"((?:[^"\\]|\\.)*)" \[(.*)\];$', line)
            if not m:
                return f"unexpected DOT line {line[:60]!r}"
            attrs[m.group(1)] = m.group(2)
    heights = p.heights()
    levels: dict[int, list[str]] = {}
    for i, lab in enumerate(p.labels):
        levels.setdefault(heights[i], []).append(lab)
    if ranks != [sorted(levels[h]) for h in sorted(levels)]:
        return "DOT ranks differ from the heights"
    if edges != p.cover_pairs():
        return "DOT edges differ from the covers"
    for i, lab in enumerate(p.labels):
        a = attrs.get(lab, "")
        if ("style=filled" in a) != p.irreducible_closed(i):
            return f"DOT fill of {lab!r} disagrees with irreducibility"
        if ("peripheries=2" in a) != p.coirreducible_closed(i):
            return f"DOT ring of {lab!r} disagrees with coirreducibility"
    return None


def check_witness(f: Facts, out: str) -> str | None:
    """Each witness is the least bridge-free cover path from x to y.

    That path is x followed by the witness of its first step, so each line
    is checked against its first step and the line of that step's pair.
    """
    p = f.p
    lines = out.splitlines()
    pairs = p.relation_pairs()
    if len(lines) != len(pairs):
        return f"{len(lines)} witness lines for {len(pairs)} strict pairs"
    chains = {}
    for line, (x, y) in zip(lines, pairs):
        parts = tuple(line.split())
        if parts[:2] != (x, y):
            return f"witness line {line[:60]!r} is not for ({x}, {y})"
        chains[x, y] = parts[2:]
    reach = f.pruned_above()
    up = [list(bits(m)) for m in p.nonbridge_covers()]
    for x, y in pairs:
        ix, iy = p.index[x], p.index[y]
        step = p.first_step(ix, iy, reach, up)
        got = chains[x, y]
        if step is None:
            ok = got == ("-",)
        else:
            nxt = p.labels[step]
            ok = got[:2] == (x, nxt) and (
                len(got) == 2 if step == iy else got[1:] == chains[nxt, y])
        if not ok:
            return f"witness for ({x}, {y}) differs"
        if f.kind == "ladder" and (step is None) != (not p.above[iy]):
            return "ladder closed form: only pairs ending at the top lack a witness"
    if f.by_definition:
        veins = p.strict_vein_masks_def()
        for x, y in pairs:
            want = p.witness_def(p.index[x], p.index[y], veins)
            if chains[x, y] != (("-",) if want is None
                                else tuple(p.labels[k] for k in want)):
                return f"witness for ({x}, {y}) differs from the definition"
    return None


def check_suite(op: dict, out: str) -> str | None:
    lines = out.splitlines()
    if not lines:
        return "check printed nothing"
    names = []
    for line in lines[:-1]:
        m = re.fullmatch(r"ok   (\w+) \((\d+) checked\)", line)
        if not m:
            return f"check line {line[:60]!r} is not a pass"
        names.append(m.group(1))
    want = f"{len(names)} checks passed (seed {op['params']['seed']})"
    if lines[-1] != want or len(set(names)) != len(names):
        return f"check summary {lines[-1]!r}, want {want!r}"
    return None


def check_op(op: dict, facts: Facts | None, rc: int, raised: str | None,
             out: str, err: str) -> tuple[str, str]:
    """Classify one op: ('ok' | 'known' | 'bad', detail).

    'known' is a failure the workload keeps on purpose (a seed defect
    listed in ``workloads.KNOWN_FAILURES``); it counts as failed, but a
    later fix that makes the op succeed with correct output is 'ok'.
    """
    known = op.get("known_failure")
    if raised is not None:
        if known and raised.startswith(known + ":"):
            return "known", raised
        return "bad", f"raised {raised}"
    if rc != 0:
        return "bad", f"exit code {rc}: {err.strip()[:200]}"
    cmd = op["cmd"]
    if cmd == "check":
        problem = check_suite(op, out)
        return ("bad", problem) if problem else ("ok", "")
    f = facts
    problem = f.closed_form_problem() or f.definition_problem()
    if problem is None:
        try:
            if op["kind"] == "empty":
                problem = _check_empty(cmd, out)
            elif cmd == "prune":
                problem = check_prune(
                    f, out, "json" if op["command"] == "prune_json" else "text")
            else:
                problem = _CHECKS[cmd](f, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unparsable {cmd} output: {type(exc).__name__}: {exc}"
    return ("bad", problem) if problem else ("ok", "")


def _check_empty(cmd: str, out: str) -> str | None:
    """The empty document: only facts a fixed command must still print."""
    if cmd == "info":
        ok = all(line in out.splitlines() for line in
                 ("elements: 0", "cover pairs: 0", "strict relations: 0"))
    elif cmd == "irr":
        ok = out.splitlines()[1:-1] == []
    elif cmd == "veins":
        ok = out == "strict veins: none\nmaximal veins (0):\n"
    elif cmd == "prune":
        ok = not out.strip()
    elif cmd == "iterate":
        ok = out == "fixpoint after 0 iterations\n"
    else:
        ok = True
    return None if ok else f"{cmd} on the empty document printed {out[:80]!r}"


_CHECKS = {"info": check_info, "veins": check_veins, "iterate": check_iterate,
           "irr": check_irr, "dot": check_dot, "witness": check_witness}
