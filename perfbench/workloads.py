"""Workload definitions: the documents each workload generates and the ops run on them.

A workload is built from its seed alone. Every document is generated with
``veinprune.families`` (ladders and the deep poset, which the package has
no generator for, are built from relation pairs with ``Poset``) and
serialized with ``veinprune.formats``. Each document gets its own label
prefix, so no two documents, and no two posets derived from them, are
value-equal: the package's module-level caches are keyed by poset value,
and a user running separate ``veinprune`` processes never hits them.

An op is one in-process ``veinprune.cli.cli(argv)`` call or one witness
op (``pruning_witness`` for every strict pair of one poset). Ops are
grouped into slices; one measured pass runs one slice in a fresh
interpreter, and every op of a slice has its own document.

This module is imported only by the set-up worker, which has
``veinprune`` on its path.
"""

from __future__ import annotations

import random
import string

from veinprune import families, formats
from veinprune.poset import Poset

# The command mix every document-taking slice draws from. "prune_json",
# "veins_oracle" and "prune_oracle" are variants of "prune" and "veins".
DOC_COMMANDS = ("info", "veins", "prune", "prune_json", "iterate", "irr", "dot")

_ARGV = {
    "info": ["info"],
    "veins": ["veins"],
    "veins_oracle": ["veins", "--mode", "oracle"],
    "prune": ["prune"],
    "prune_json": ["prune", "--format", "json"],
    "prune_oracle": ["prune", "--mode", "oracle"],
    "iterate": ["iterate"],
    "irr": ["irr"],
    "dot": ["dot"],
}

# Seed defects kept in the workloads on purpose and counted as failed ops:
# (command, document kind) -> exception the seed raises.
KNOWN_FAILURES = {
    ("info", "empty"): "ValueError",      # max() of an empty height table
    ("irr", "empty"): "ValueError",       # max() of an empty label list
    ("info", "deep"): "RecursionError",   # recursive maximal_chains walk
}

# Sizes per scale. "tiny" keeps every shape and every op kind, so the smoke
# check exercises the same code paths in a few seconds. "cycle_s" is the
# nominal duration of one cycle over the slices on the seed, measured on a
# 2-vCPU Xeon host; a run makes round(--seconds / cycle_s) cycles.
SCALES = {
    "full": {
        "sparse": {"size": 4000, "edge_prob": 0.001, "docs": 5,
                   "lattice_base": 6, "check": (30, 10), "cycle_s": 20.0},
        "deep": {"chains": (150, 200), "booleans": (8, 9),
                 "ladders": (12, 13, 14, 15, 16), "copies": 3,
                 "single": ("info", "irr", "dot"), "witness_once": (15, 16),
                 "depth": 1100, "check": (10, 6), "cycle_s": 12.5},
        "small": {"random": 3600, "max_size": 12, "downsets": 400,
                  "max_base": 6, "slices": 12, "check": (100, 10),
                  "cycle_s": 9.5},
    },
    "tiny": {
        "sparse": {"size": 300, "edge_prob": 0.01, "docs": 4,
                   "lattice_base": 4, "check": (5, 5), "cycle_s": 2.0},
        "deep": {"chains": (20, 30), "booleans": (3, 4), "ladders": (3, 4),
                 "copies": 2, "single": ("info", "irr", "dot"),
                 "witness_once": (4,),
                 "depth": 1100, "check": (5, 5), "cycle_s": 1.5},
        "small": {"random": 60, "max_size": 8, "downsets": 10,
                  "max_base": 4, "slices": 2, "check": (5, 5), "cycle_s": 0.4},
    },
}

# Commands on the empty document, one per slice: the two known failures
# plus two commands that handle it.
_EMPTY_COMMANDS = ("info", "irr", "veins", "prune")
# Rotation of commands over small-corpus documents.
_SMALL_ROTATION = DOC_COMMANDS + ("witness", "veins_oracle", "prune_oracle")


class _Corpus:
    """Accumulates documents (as file texts) and ops for one workload."""

    def __init__(self, workload: str, seed: int, tick=None):
        self.rng = random.Random(f"perfbench:{workload}:{seed}")
        self.tick = tick or (lambda: None)
        self.token = "".join(self.rng.choice(string.ascii_lowercase)
                             for _ in range(3))
        self.files: dict[str, str] = {}
        self.docs = 0

    def document(self, p: Poset | None, kind: str, params: dict,
                 fmt: str = "text", name: str | None = None) -> dict:
        """Serialize p under a fresh label prefix; return its manifest entry."""
        self.docs += 1
        path = f"d{self.docs:05d}.{'json' if fmt == 'json' else 'txt'}"
        if p is None:
            doc = formats.PosetDocument(elements=[], covers=[], name=name)
            n = 0
        else:
            pre = f"{self.token}{self.docs}_"
            doc = formats.PosetDocument(
                elements=[pre + e for e in p.labels],
                covers=[(pre + a, pre + b) for a, b in p.covers], name=name)
            n = len(p)
        text = formats.emit_json(doc) if fmt == "json" else formats.emit_text(doc)
        self.files[path] = text
        self.tick()
        return {"doc": path, "n": n, "kind": kind, "params": params,
                "format": fmt, "name": name if fmt == "json" else None}

    @staticmethod
    def op(command: str, entry: dict) -> dict:
        op = dict(entry)
        op["command"] = command
        op["cmd"] = command.split("_")[0]
        op["known_failure"] = KNOWN_FAILURES.get((op["cmd"], entry["kind"]))
        if command != "witness":
            op["argv"] = _ARGV[command] + [entry["doc"]]
        return op

    def check_op(self, count: int, max_size: int) -> dict:
        """A ``check`` op; at most one per slice, as every corpus shares
        the named fixtures."""
        seed = self.rng.randrange(1 << 16)
        return {"command": "check", "cmd": "check", "doc": None, "n": 0,
                "kind": "suite", "params": {"seed": seed, "count": count,
                                            "max_size": max_size},
                "known_failure": None,
                "argv": ["check", "--seed", str(seed), "--count", str(count),
                         "--max-size", str(max_size)]}


def ladder(k: int) -> Poset:
    """k diamonds stacked bottom to top, ending in one bridge edge to 't'."""
    pairs = []
    for i in range(1, k + 1):
        for side in "lr":
            pairs.append((f"b{i - 1:02d}", f"{side}{i:02d}"))
            pairs.append((f"{side}{i:02d}", f"b{i:02d}"))
    pairs.append((f"b{k:02d}", "t"))
    labels = sorted({x for pair in pairs for x in pair})
    return Poset.from_relations(labels, pairs)


def deep(depth: int) -> Poset:
    """A bowtie (a, b < c, d) under a chain of ``depth`` elements.

    Its height exceeds the default recursion limit, and the bowtie makes
    it not conditionally complete: a and b have two minimal upper bounds.
    """
    chain = [f"e{i:04d}" for i in range(depth)]
    pairs = [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", chain[0]), ("d", chain[0])]
    pairs += list(zip(chain, chain[1:]))
    return Poset.from_relations(["a", "b", "c", "d"] + chain, pairs)


def _sparse(b: _Corpus, cfg: dict) -> list[list[dict]]:
    commands = DOC_COMMANDS + ("witness",)
    docs = []
    for i in range(cfg["docs"]):
        s = b.rng.randrange(1 << 32)
        p = families.random_poset(cfg["size"], s, cfg["edge_prob"])
        docs.append(b.document(p, "sparse", {"size": cfg["size"], "seed": s,
                                            "edge_prob": cfg["edge_prob"]},
                               "json" if i % 2 else "text",
                               name=f"sparse{i}"))
    # one down-set lattice keeps irr's preservation branch exercised: the
    # random sparse posets are never conditionally complete
    s = b.rng.randrange(1 << 32)
    lattice = b.document(families.downset_lattice(cfg["lattice_base"], s),
                         "downset", {"base": cfg["lattice_base"], "seed": s})
    slices = []
    # a Latin rectangle: over one cycle of slices every document goes
    # through every command, and no slice shows a document twice
    for j in range(len(commands)):
        ops = [b.op(commands[(i + j) % len(commands)], entry)
               for i, entry in enumerate(docs)]
        # each check op draws its own corpus seed: how long a check takes
        # depends on its corpus, and several seeds average that out
        ops.append(b.op("irr", lattice) if j % 2
                   else b.check_op(*cfg["check"]))
        b.rng.shuffle(ops)
        slices.append(ops)
    return slices


def _deep(b: _Corpus, cfg: dict) -> list[list[dict]]:
    shapes = ([("chain", n, families.chain_poset(n)) for n in cfg["chains"]]
              + [("boolean", k, families.boolean_poset(k))
                 for k in cfg["booleans"]]
              + [("ladder", k, ladder(k)) for k in cfg["ladders"]])
    ops = []
    # Cheap ops run on ``copies`` relabelled copies of their shape: the
    # many similar samples make the middle of the op-time distribution
    # dense, so that op_p50_ms does not fall in a gap between unequal ops.
    # The costly ones (the ``single`` commands on chains and Boolean
    # lattices, the witness op on the ``witness_once`` ladders) run on one
    # copy, so that two passes fit in a run.
    for kind, size, p in shapes:
        commands = DOC_COMMANDS + (("witness",) if kind == "ladder" else ())
        params = {"n": size} if kind == "chain" else {"k": size}
        for i, command in enumerate(commands):
            single = (command in cfg["single"] if kind != "ladder"
                      else command == "witness" and size in cfg["witness_once"])
            for _ in range(1 if single else cfg["copies"]):
                entry = b.document(p, kind, params, "json" if i % 2 else "text")
                ops.append(b.op(command, entry))
    ops.append(b.op("info", b.document(deep(cfg["depth"]), "deep",
                                       {"depth": cfg["depth"]})))
    ops.append(b.check_op(*cfg["check"]))
    # A fixed interleaved order, the same for every seed. Fixed, because
    # with few, very unequal ops the order sets the peak resident set
    # (module caches grow through the pass). Interleaved, because the
    # host's speed changes from one second to the next: the copies of an
    # op must be spread over the pass, not run back to back, or one slow
    # second slows all of them.
    random.Random("perfbench:deep_shapes:order").shuffle(ops)
    return [ops]


def _small(b: _Corpus, cfg: dict) -> list[list[dict]]:
    pool = []
    seen = set()
    s1, s2 = b.rng.randrange(1 << 32), b.rng.randrange(1 << 32)
    tagged = ([("random", p) for p in families.random_corpus(
        cfg["random"], cfg["max_size"], s1)]
        + [("downset", p) for p in families.downset_corpus(
            cfg["downsets"], cfg["max_base"], s2)])
    for kind, p in tagged:
        if p not in seen:  # distinct posets only, before relabelling
            seen.add(p)
            pool.append((kind, p))
    b.rng.shuffle(pool)
    params = {"random": {"count": cfg["random"], "max_size": cfg["max_size"],
                         "seed": s1},
              "downset": {"count": cfg["downsets"],
                          "max_base": cfg["max_base"], "seed": s2}}
    slices = []
    per = len(pool) // cfg["slices"]
    for j in range(cfg["slices"]):
        ops = []
        for i, (kind, p) in enumerate(pool[j * per:(j + 1) * per]):
            entry = b.document(p, kind, params[kind],
                               "json" if i % 2 else "text",
                               name=f"s{j}n{i}" if i % 4 == 1 else None)
            ops.append(b.op(_SMALL_ROTATION[i % len(_SMALL_ROTATION)], entry))
        empty = b.document(None, "empty", {}, "json" if j % 2 else "text")
        ops.append(b.op(_EMPTY_COMMANDS[j % len(_EMPTY_COMMANDS)], empty))
        b.rng.shuffle(ops)
        # the check op goes first, with empty module caches, as in a fresh
        # `veinprune check` process; its place would otherwise set how much
        # cache its garbage collections walk. Each slice's check draws its
        # own corpus seed, as in _sparse.
        slices.append([b.check_op(*cfg["check"])] + ops)
    return slices


_MAKERS = {"sparse_large": ("sparse", _sparse),
             "deep_shapes": ("deep", _deep),
             "small_corpus": ("small", _small)}


def build(workload: str, seed: int, scale: str,
          tick=None) -> tuple[dict[str, str], list[list[dict]], float]:
    """Generate and serialize every document; return (files, slices, cycle_s).

    ``files`` maps a relative path to the document text; ``slices`` is the
    op list of each measured pass; ``cycle_s`` is the nominal duration of
    one cycle over the slices. Deterministic in (workload, seed, scale).
    ``tick``, if given, is called after each document is serialized.
    """
    key, make = _MAKERS[workload]
    cfg = SCALES[scale][key]
    b = _Corpus(workload, seed, tick)
    slices = make(b, cfg)
    for ops in slices:
        for k, op in enumerate(ops):
            op["id"] = k
    return b.files, slices, cfg["cycle_s"]
