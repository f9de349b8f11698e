"""Scale tier: shapes that once made the fast route slow or crash.

Long chains, a wide antichain, a long fence, a complete bipartite poset,
many minimal elements under common upper bounds, a deep poset, a Boolean
lattice, a ladder of diamonds ending in a bridge, short chains on
scattered labels, a sparse random poset with long edges, and the empty
document. Each test
asserts its output and a wall-time bound several times the measured cost,
so that a return to a super-linear (or exponential) layer fails here.
Bounds may only be tightened.
"""

from __future__ import annotations

import json
import math
import random
import time
import tracemalloc

import pytest

import veinprune.poset
from veinprune import (
    Poset,
    PosetDocument,
    antichain_poset,
    boolean_poset,
    bridge_edges,
    chain_poset,
    emit_text,
    fence_poset,
    is_vein,
    prune,
    pruning_witness,
    random_poset,
)
from veinprune.cli import cli
from veinprune.formats import load_document
from veinprune.oracle import is_irreducible_via_meet


def _write(tmp_path, p: Poset | None, name: str) -> str:
    doc = (PosetDocument(elements=[], covers=[]) if p is None
           else PosetDocument.from_poset(p))
    path = tmp_path / name
    path.write_text(emit_text(doc))
    return str(path)


def _timed_cli(argv: list[str], capsys) -> tuple[int, str, float]:
    started = time.perf_counter()
    code = cli(argv)
    elapsed = time.perf_counter() - started
    return code, capsys.readouterr().out, elapsed


def ladder(k: int) -> Poset:
    """k diamonds stacked bottom to top, ending in one bridge edge to 't'."""
    pairs = []
    for i in range(1, k + 1):
        for side in "lr":
            pairs.append((f"b{i - 1:02d}", f"{side}{i:02d}"))
            pairs.append((f"{side}{i:02d}", f"b{i:02d}"))
    pairs.append((f"b{k:02d}", "t"))
    return Poset.from_relations({x for pair in pairs for x in pair}, pairs)


def deep(depth: int) -> Poset:
    """A bowtie (a, b < c, d) under a chain of ``depth`` elements."""
    chain = [f"e{i:04d}" for i in range(depth)]
    pairs = [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", chain[0]), ("d", chain[0])]
    pairs += list(zip(chain, chain[1:]))
    return Poset.from_relations(["a", "b", "c", "d"] + chain, pairs)


@pytest.fixture(scope="module")
def chain1500_file(tmp_path_factory):
    return _write(tmp_path_factory.mktemp("scale"), chain_poset(1500),
                  "chain1500.txt")


def test_irr_on_long_chain(chain1500_file, capsys):
    code, out, elapsed = _timed_cli(["irr", chain1500_file], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 1500 + 1
    # every element of a chain is doubly irreducible
    assert all(line.split()[1:] == ["yes", "yes", "yes"]
               for line in lines[1:-1])
    assert lines[-1] == "preserved under pruning: yes"
    assert elapsed < 10.0


def test_dot_on_long_chain(chain1500_file, capsys):
    code, out, elapsed = _timed_cli(["dot", chain1500_file], capsys)
    assert code == 0
    assert out.count(" -> ") == 1499
    assert elapsed < 8.0


def test_info_on_long_chain(chain1500_file, capsys):
    code, out, elapsed = _timed_cli(["info", chain1500_file], capsys)
    assert code == 0
    assert f"strict relations: {1500 * 1499 // 2}" in out
    assert "height: 1499" in out
    assert "maximal chains: 1" in out
    assert "conditionally complete: yes" in out
    assert elapsed < 8.0


def test_veins_on_chain(tmp_path, capsys):
    # 19,900 strict veins in 6.5 MB of output: every sub-run of one run
    path = _write(tmp_path, chain_poset(200), "chain200.txt")
    code, out, elapsed = _timed_cli(["veins", path], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "strict veins (19900):"
    assert lines[1] == "  e000 e001"
    assert lines[19900] == "  e198 e199"
    assert lines[19901:] == ["maximal veins (1):",
                             "  " + " ".join(f"e{i:03d}" for i in range(200))]
    # measured at most 14 ms, and 125 ms while every vein was a sorted
    # tuple; the floor of 0.25 s holds as elsewhere in this file
    assert elapsed < 0.25
    tracemalloc.start()
    try:
        assert cli(["veins", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    # measured 7.5 MB, most of it the captured output; 17.7 MB while
    # every vein was a sorted tuple
    assert peak < 10 * 2**20


@pytest.fixture(scope="module")
def wide_files(tmp_path_factory):
    """chain(5000) and antichain(5000): n(n-1)/2 relations, or none at all."""
    folder = tmp_path_factory.mktemp("wide")
    return {"chain": _write(folder, chain_poset(5000), "chain5000.txt"),
            "antichain": _write(folder, antichain_poset(5000),
                                "antichain5000.txt")}


def _expect_wide(command: str, shape: str, out: str) -> None:
    lines = out.splitlines()
    labels = [f"e{i:04d}" for i in range(5000)]
    chain = shape == "chain"
    if command == "info":
        relations = 5000 * 4999 // 2 if chain else 0
        assert f"strict relations: {relations}" in lines
        assert f"height: {4999 if chain else 0}" in lines
        assert f"maximal chains: {1 if chain else 5000}" in lines
        assert "conditionally complete: yes" in lines
    elif command == "irr":
        # every element of a chain or an antichain is doubly irreducible
        assert len(lines) == 1 + 5000 + 1
        assert all(line.split()[1:] == ["yes", "yes", "yes"]
                   for line in lines[1:-1])
        assert lines[-1] == "preserved under pruning: yes"
    elif command == "dot":
        assert out.count(" -> ") == (4999 if chain else 0)
    elif command == "prune":
        # every cover of a chain is a bridge, so pruning leaves an antichain
        assert lines == labels
    else:
        assert lines == ["fixpoint after 1 iteration" if chain
                         else "fixpoint after 0 iterations"]


# about 5x the slowest of three runs on a 2-vCPU Xeon host (Python 3.11),
# at least 0.25 s. Every command on the chain, and info and irr on the
# antichain, took 10 s or more while parsing and pruning stepped through
# every strict relation and the completeness test through every
# incomparable pair.
WIDE_BOUNDS = {
    ("info", "chain"): 0.6, ("info", "antichain"): 0.25,
    ("irr", "chain"): 0.9, ("irr", "antichain"): 0.35,
    ("dot", "chain"): 0.5, ("dot", "antichain"): 0.25,
    ("prune", "chain"): 0.5, ("prune", "antichain"): 0.25,
    ("iterate", "chain"): 0.5, ("iterate", "antichain"): 0.25,
}


@pytest.mark.parametrize("command, shape", sorted(WIDE_BOUNDS))
def test_wide_and_long_shapes(wide_files, capsys, command, shape):
    code, out, elapsed = _timed_cli([command, wide_files[shape]], capsys)
    assert code == 0
    _expect_wide(command, shape, out)
    assert elapsed < WIDE_BOUNDS[command, shape]


def test_info_on_boolean_lattice(tmp_path, capsys):
    path = _write(tmp_path, boolean_poset(9), "b9.txt")
    code, out, elapsed = _timed_cli(["info", path], capsys)
    assert code == 0
    assert "elements: 512" in out
    assert "maximal chains: 362880" in out
    assert "conditionally complete: yes" in out
    assert elapsed < 2.0


@pytest.fixture(scope="module")
def b10_file(tmp_path_factory):
    return _write(tmp_path_factory.mktemp("boolean"), boolean_poset(10),
                  "b10.txt")


# about 5x the slowest of three runs on a 2-vCPU Xeon host (Python 3.11),
# parsing included: info 32 ms and irr 19 ms. Scanning every incomparable
# pair with a common lower bound for completeness took 282 and 239 ms.
@pytest.mark.parametrize("command, bound", [("info", 0.15), ("irr", 0.1)])
def test_completeness_on_boolean_lattice(b10_file, capsys, command, bound):
    code, out, elapsed = _timed_cli([command, b10_file], capsys)
    assert code == 0
    assert out.splitlines()[-1] == {
        "info": "conditionally complete: yes",
        "irr": "preserved under pruning: yes"}[command]
    assert elapsed < bound


def _poset_of(pairs) -> Poset:
    return Poset.from_relations({x for pair in pairs for x in pair}, pairs)


def parallel(k: int):
    """The pairs of k chains a < mi < ci < z side by side."""
    return [pair for i in range(k) for pair in
            [("a", f"m{i:04d}"), (f"m{i:04d}", f"c{i:04d}"),
             (f"c{i:04d}", "z")]]


def branch(k: int):
    """The pairs of k forks a < mi < ci, di < z side by side."""
    return [pair for i in range(k) for pair in
            [("a", f"m{i:04d}"), (f"m{i:04d}", f"c{i:04d}"),
             (f"m{i:04d}", f"d{i:04d}"), (f"c{i:04d}", "z"),
             (f"d{i:04d}", "z")]]


def topped_fence(k: int):
    """The pairs of a fence ai, ai+1 < bi < ci (i < k), with tops w0 > b0
    and w1 > b1, so that its maximal elements outnumber its minimal ones
    and the poset's own side is tested."""
    return [pair for i in range(k) for pair in
            [(f"a{i:04d}", f"b{i:04d}"), (f"a{i + 1:04d}", f"b{i:04d}"),
             (f"b{i:04d}", f"c{i:04d}")]] + [("b0000", "w0"), ("b0001", "w1")]


@pytest.fixture(scope="module")
def hub_files(tmp_path_factory):
    """Many elements under common upper bounds.

    A star: 2000 elements under one top. An in-tree: the binary tree with
    4000 leaves and its root on top. A fan: one top over 2000 two-element
    chains. An hourglass: 2000 elements under one middle element under
    2000 more. The lattice M2000: 2000 elements between a bottom and a top.
    The parallel, branch and topped-fence shapes of 2000 (see their
    builders), each tested on its own side.
    """
    folder = tmp_path_factory.mktemp("hubs")
    tree = [f"t{i:04d}" for i in range(7999)]
    shapes = {
        "star": _poset_of([(f"m{i:04d}", "z") for i in range(2000)]),
        "in-tree": _poset_of([(tree[c], tree[(c - 1) // 2])
                              for c in range(1, 7999)]),
        "fan": _poset_of([(f"c{i:04d}", "z") for i in range(2000)]
                         + [(f"l{i:04d}", f"c{i:04d}") for i in range(2000)]),
        "hourglass": _poset_of([(f"a{i:04d}", "mid") for i in range(2000)]
                               + [("mid", f"z{i:04d}") for i in range(2000)]),
        "M2000": _poset_of([("a", f"m{i:04d}") for i in range(2000)]
                           + [(f"m{i:04d}", "z") for i in range(2000)]),
        "parallel": _poset_of(parallel(2000)),
        "branch": _poset_of(branch(2000)),
        "topped-fence": _poset_of(topped_fence(2000)),
    }
    return {name: (len(p), _write(folder, p, f"{name}.txt"))
            for name, p in shapes.items()}


# about 5x the slowest of three runs on a 2-vCPU Xeon host (Python 3.11),
# parsing included, at least 0.25 s: info and irr took 16 and 19 ms on the
# star, 75 and 92 ms on the in-tree, 33 and 29 ms on the fan, 35 and 47 ms
# on the hourglass, 36 and 24 ms on M2000. Testing every pair of minimal
# elements with a common upper bound took 1.5 s on the star and 6 s or
# more on the in-tree and the hourglass; every pair of covers of one
# element, about 0.5 s on the fan and 0.8 s on M2000. info and irr took
# 16-24 ms on parallel, 31-45 ms on branch and 37-54 ms on the topped
# fence; pairing each cover with the covers before it whenever they share
# an upper bound took 0.85-0.91 s on parallel and 1.2-1.35 s on branch,
# and pairing the minimal elements in the covers' loop, as the covers of
# an added bottom, took 0.54-0.59 s on the topped fence.
HUB_BOUNDS = {
    ("info", "star"): 0.25, ("irr", "star"): 0.25,
    ("info", "in-tree"): 0.4, ("irr", "in-tree"): 0.5,
    ("info", "fan"): 0.25, ("irr", "fan"): 0.25,
    ("info", "M2000"): 0.25, ("irr", "M2000"): 0.25,
    ("info", "hourglass"): 0.25, ("irr", "hourglass"): 0.25,
    ("info", "parallel"): 0.25, ("irr", "parallel"): 0.25,
    ("info", "branch"): 0.25, ("irr", "branch"): 0.25,
    ("info", "topped-fence"): 0.25, ("irr", "topped-fence"): 0.25,
}


@pytest.mark.parametrize("command, shape", sorted(HUB_BOUNDS))
def test_completeness_on_common_upper_bounds(hub_files, capsys, command,
                                             shape):
    size, path = hub_files[shape]
    code, out, elapsed = _timed_cli([command, path], capsys)
    assert code == 0
    lines = out.splitlines()
    if command == "info":
        assert f"elements: {size}" in lines
        assert lines[-1] == "conditionally complete: yes"
    else:
        assert len(lines) == 1 + size + 1
        assert lines[-1] == "preserved under pruning: yes"
    assert elapsed < HUB_BOUNDS[command, shape]


@pytest.mark.parametrize("shape", [parallel, branch])
def test_completeness_reads_the_order_tables_once_per_cover(shape):
    # a count, unlike a time, fails on any host: each cover of a is read
    # once (2,002 and 6,002 reads), where pairing every two covers that
    # share z made about 2,000,000
    p = _poset_of(shape(2000))
    reads = [0]

    class Counted(tuple):
        def __getitem__(self, i):
            reads[0] += 1
            return tuple.__getitem__(self, i)

    p._above_masks, p._below_masks = Counted(p._above), Counted(p._below)
    assert p.is_conditionally_complete()
    assert reads[0] <= 10_000, reads


# the tables each command builds on any document: the calls of
# poset._lower_covers (a cover table built from the other) and of
# poset._reach (an order table filled on first read). The load builds the
# lower covers once; the opposite and the pruned poset are assembled from
# tables already built, and only the completeness test of info and irr
# fills the downward masks
ORDER_TABLE_FILLS = {
    ("info",): 1,
    ("irr",): 1,
    ("veins",): 0,
    ("prune",): 0,
    ("prune", "--format", "json"): 0,
    ("prune", "--format", "dot"): 0,
    ("iterate",): 0,
    ("iterate", "--max", "1"): 0,
    ("dot",): 0,
}


@pytest.mark.parametrize("name", ["yp", "bowtie", "empty", "sparse"])
def test_table_builds_per_command(name, tmp_path, monkeypatch, capsys):
    # a count, unlike a time, fails on any host: a command that builds a
    # cover table twice, or fills an order table it does not read, fails
    # here
    if name == "sparse":
        path = _write(tmp_path, random_poset(4000, 7, 0.001), "sparse.txt")
    else:
        path = tmp_path / f"{name}.txt"
        path.write_text({"yp": "a < b\nb < c\nb < d\n",
                         "bowtie": "a < c\na < d\nb < c\nb < d\n",
                         "empty": ""}[name])
    calls = {"_lower_covers": 0, "_reach": 0}

    def counted(fname):
        real = getattr(veinprune.poset, fname)

        def wrapper(*args):
            calls[fname] += 1
            return real(*args)
        return wrapper

    for fname in calls:
        monkeypatch.setattr(veinprune.poset, fname, counted(fname))
    for argv, fills in ORDER_TABLE_FILLS.items():
        calls.update(_lower_covers=0, _reach=0)
        assert cli([*argv, str(path)]) in (0, 1), argv
        capsys.readouterr()
        assert calls == {"_lower_covers": 1, "_reach": fills}, argv


def test_info_on_deep_poset(tmp_path, capsys):
    path = _write(tmp_path, deep(1104), "deep.txt")
    code, out, elapsed = _timed_cli(["info", path], capsys)
    assert code == 0
    assert "height: 1105" in out
    assert "maximal chains: 4" in out
    # the four chains are listed in full, without a RecursionError
    assert sum(len(line.split()) == 1106 for line in out.splitlines()) == 4
    assert "conditionally complete: no" in out
    assert elapsed < 6.0


def test_witnesses_on_diamond_ladder():
    p = ladder(40)
    started = time.perf_counter()
    found = {(x, y): pruning_witness(p, x, y) for x, y in p.relations()}
    elapsed = time.perf_counter() - started
    # only the pairs ending at the top must cross the closing bridge
    assert {pair for pair, w in found.items() if w is None} == \
        {(x, "t") for x in p.labels if x != "t"}
    w = found[("b00", "b40")]
    assert w.chain == ("b00",) + sum(((f"l{i:02d}", f"b{i:02d}")
                                       for i in range(1, 41)), ())
    assert elapsed < 3.0


def test_witnesses_on_sparse_random_poset():
    p = random_poset(4000, 7, 0.001)
    started = time.perf_counter()
    found = {(x, y): pruning_witness(p, x, y) for x, y in p.relations()}
    elapsed = time.perf_counter() - started
    pruned = set(prune(p).pruned.relations())
    steps = set(p.covers) - bridge_edges(p)
    assert len(found) == 46779
    for (x, y), w in found.items():
        if w is None:
            assert (x, y) not in pruned
            continue
        assert (x, y) in pruned
        assert w.chain[0] == x and w.chain[-1] == y
        assert all(step in steps for step in zip(w.chain, w.chain[1:]))
    # about 5x the slowest of three runs (0.48 s) on a 2-vCPU Xeon host
    # (Python 3.11), building the pruned poset included
    assert elapsed < 2.5


def test_is_vein_on_ladder_and_boolean_lattice():
    lad, cube = ladder(40), boolean_poset(10)
    started = time.perf_counter()
    assert all(is_vein(lad, {x}) for x in lad.labels)
    assert all(is_vein(cube, {x}) for x in cube.labels)
    assert is_vein(lad, {"b40", "t"})  # the closing bridge
    assert not is_vein(lad, {"b00", "l01"})  # a cover, not a bridge
    elapsed = time.perf_counter() - started
    # measured 9 ms; walking every maximal chain took 3.8 s for one
    # singleton of ladder(18)
    assert elapsed < 0.25


def test_meet_irreducibility_on_wide_antichain():
    p = antichain_poset(4000)
    started = time.perf_counter()
    assert is_irreducible_via_meet(p, "e0000")
    assert is_irreducible_via_meet(p, "e3999")
    elapsed = time.perf_counter() - started
    # measured 8 ms; walking every incomparable pair took 10 s or more
    assert elapsed < 0.25


@pytest.fixture(scope="module")
def fence20000_file(tmp_path_factory):
    return _write(tmp_path_factory.mktemp("fence"), fence_poset(20000),
                  "fence20000.txt")


# about 5x the slowest of three runs on a 2-vCPU Xeon host (Python 3.11),
# parsing included. Each element of a fence shares a bound with at most
# two others; scanning every incomparable pair took about 500 s.
@pytest.mark.parametrize("command, bound", [("info", 4.0), ("irr", 4.6)])
def test_long_fence(fence20000_file, capsys, command, bound):
    code, out, elapsed = _timed_cli([command, fence20000_file], capsys)
    assert code == 0
    lines = out.splitlines()
    if command == "info":
        assert "cover pairs: 19999" in lines
        assert "conditionally complete: yes" in lines
    else:
        # the first element and every peak have at most one upper cover
        assert sum(line.split()[1] == "yes" for line in lines[1:-1]) == 10001
        assert lines[-1] == "preserved under pruning: yes"
    assert elapsed < bound


def test_meet_irreducibility_on_fence():
    p = fence_poset(5000)
    started = time.perf_counter()
    irreducible = [x for x in p.labels if is_irreducible_via_meet(p, x)]
    elapsed = time.perf_counter() - started
    # the first element and the 2500 peaks are no proper meet
    assert len(irreducible) == 2501
    # measured 27 ms; walking every incomparable pair took 13 s
    assert elapsed < 0.25


def test_bounds_on_long_diamond_ladder():
    p = ladder(1000)
    started = time.perf_counter()
    assert p.is_conditionally_complete()
    assert p.meet("l1000", "r1000") == "b999"
    assert p.join("l01", "r01") == "b01"
    elapsed = time.perf_counter() - started
    # measured 7-12 ms on a 2-vCPU host; scanning every set of common lower
    # bounds for its maximal elements took about 1 s
    assert elapsed < 0.25


def test_completeness_fails_fast_on_complete_bipartite():
    lower = [f"l{i:04d}" for i in range(1000)]
    upper = [f"u{i:04d}" for i in range(1000)]
    p = Poset.from_relations(lower + upper,
                             [(a, b) for a in lower for b in upper])
    started = time.perf_counter()
    # any two upper elements share all 1000 lower ones, with no maximum
    assert not p.is_conditionally_complete()
    elapsed = time.perf_counter() - started
    # measured 1 ms: the first pair decides
    assert elapsed < 0.25


def scattered_chains(n: int, seed: int) -> str:
    """Text of n // 4 disjoint 4-chains on a shuffle of n labels, in O(n).

    Each chain takes four consecutive labels of a seeded permutation, so
    its covers join indices far apart and every mask spans the whole
    index range.
    """
    labels = [f"e{k:05d}" for k in range(n)]
    random.Random(seed).shuffle(labels)
    lines = []
    for s in range(0, n, 4):
        a, b, c, d = labels[s:s + 4]
        lines += [f"{a} < {b}", f"{b} < {c}", f"{c} < {d}"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def chains_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("chains") / "chains10000.txt"
    path.write_text(scattered_chains(10000, 12))
    return str(path)


# about 5x the slowest of three runs on a 2-vCPU Xeon host (Python 3.11),
# at least 0.25 s; parsing included
CHAINS_BOUNDS = {"info": 0.55, "veins": 0.4, "prune": 0.35, "iterate": 0.35}


@pytest.mark.parametrize("command", sorted(CHAINS_BOUNDS))
def test_scattered_chains(chains_file, capsys, command):
    code, out, elapsed = _timed_cli([command, chains_file], capsys)
    assert code == 0
    lines = out.splitlines()
    if command == "info":
        for line in ("cover pairs: 7500", "strict relations: 15000",
                     "height: 3", "maximal chains: 2500",
                     "conditionally complete: yes"):
            assert line in lines
    elif command == "veins":
        assert "strict veins (15000):" in lines
        assert "maximal veins (2500):" in lines
    elif command == "prune":
        # every cover is a bridge, so pruning leaves an antichain
        assert lines == [f"e{k:05d}" for k in range(10000)]
    else:
        assert lines == ["fixpoint after 1 iteration"]
    assert elapsed < CHAINS_BOUNDS[command]


def test_scattered_chains_prune_memory(chains_file, capsys):
    # measured 12.7 MB; 19.2 MB while the pruned poset was closed again,
    # and 31.8 MB with the covers kept as masks. p's closure masks still
    # span every index though each element has at most three above it
    tracemalloc.start()
    try:
        assert cli(["prune", chains_file]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 16 * 2**20


def sparse_pairs(n: int, seed: int, mean_degree: float = 3.0):
    """Index pairs i < j of a random graph G(n, p), p = mean_degree / n.

    Each of the n(n-1)/2 pairs, taken in order of j and then i, is an edge
    with probability p. The gap to the next edge is drawn from the
    geometric distribution, so the cost is O(n + edges), not one coin per
    pair as in ``random_poset``. Edges join indices n/3 apart on average,
    and an element has about e^3 / 3 - 1 (5.4) elements above it.
    """
    rng = random.Random(seed)
    log_q = math.log(1 - mean_degree / n)
    pairs = []
    i, j = -1, 1
    while True:
        i += 1 + int(math.log(1 - rng.random()) / log_q)
        while i >= j and j < n:
            i -= j
            j += 1
        if j >= n:
            return pairs
        pairs.append((i, j))


def _closure_counts(n: int, pairs) -> tuple[int, set, set]:
    """Strict relation count, covers and bridge edges, from Python sets."""
    succ: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        succ[i].add(j)
    above: list[set[int]] = [set() for _ in range(n)]
    ucov: list[set[int]] = [set() for _ in range(n)]
    dcount = [0] * n
    for i in reversed(range(n)):  # every edge points to a larger index
        redundant = set().union(*(above[j] for j in succ[i]))
        above[i] = redundant | succ[i]
        ucov[i] = succ[i] - redundant
        for j in ucov[i]:
            dcount[j] += 1
    covers = {(i, j) for i in range(n) for j in ucov[i]}
    bridges = {(i, j) for i, j in covers
               if len(ucov[i]) == 1 and dcount[j] == 1}
    return sum(map(len, above)), covers, bridges


@pytest.fixture(scope="module")
def sparse_case(tmp_path_factory):
    n = 10000
    pairs = sparse_pairs(n, 1)
    labels = [f"v{k:05d}" for k in range(n)]
    text = "".join(f"{labels[i]} < {labels[j]}\n" for i, j in pairs)
    path = tmp_path_factory.mktemp("sparse") / "sparse10000.txt"
    path.write_text(text + "".join(f"{lab}\n" for lab in labels))
    # its JSON twin: the same elements, and the same pairs as covers
    twin = path.with_suffix(".json")
    twin.write_text(json.dumps({
        "elements": labels,
        "covers": [[labels[i], labels[j]] for i, j in pairs]}, indent=2))
    relations, covers, bridges = _closure_counts(n, pairs)
    named = [{(labels[i], labels[j]) for i, j in edges}
             for edges in (covers, bridges)]
    return {"path": str(path), "json_path": str(twin), "n": n,
            "labels": labels, "relations": relations, "covers": named[0],
            "bridges": named[1]}


def test_sparse_pairs_is_seeded_and_sparse():
    pairs = sparse_pairs(10000, 1)
    assert pairs == sparse_pairs(10000, 1)
    assert all(0 <= i < j < 10000 for i, j in pairs)
    assert len(set(pairs)) == len(pairs)
    # n(n-1)/2 pairs at p = 3/n: about 15,000 edges
    assert 14000 < len(pairs) < 16000


# about 5x the slowest of three runs on a 2-vCPU Xeon host (Python 3.11),
# parsing included (0.18, 0.26 and 0.24 s; 0.34, 0.47 and 0.39 s with the
# covers kept as masks)
SPARSE_BOUNDS = {"info": 0.9, "prune": 1.3, "iterate": 1.2}


@pytest.mark.parametrize("command", sorted(SPARSE_BOUNDS))
def test_sparse_random_poset(sparse_case, capsys, command):
    code, out, elapsed = _timed_cli([command, sparse_case["path"]], capsys)
    assert code == 0
    lines = out.splitlines()
    labels = sparse_case["labels"]
    if command == "info":
        for line in (f"elements: {sparse_case['n']}",
                     f"cover pairs: {len(sparse_case['covers'])}",
                     f"strict relations: {sparse_case['relations']}"):
            assert line in lines
    elif command == "prune":
        # the pruned covers are the covers minus the bridge edges
        q = load_document(out).to_poset()
        assert q.labels == tuple(labels)
        assert sparse_case["bridges"]
        assert set(q.covers) == sparse_case["covers"] - sparse_case["bridges"]
        assert not bridge_edges(q)
    else:
        assert lines == ["fixpoint after 1 iteration"]
    assert elapsed < SPARSE_BOUNDS[command]


# about 5x the slowest of three loads on a 2-vCPU Xeon host (Python 3.11):
# 0.087 s for the text and 0.126 s for the JSON twin, whose pairs are
# sorted on loading
LOAD_BOUNDS = {"path": 0.45, "json_path": 0.6}


@pytest.mark.parametrize("key", sorted(LOAD_BOUNDS))
def test_sparse_random_poset_load(sparse_case, key):
    with open(sparse_case[key], encoding="utf-8") as fh:
        text = fh.read()
    started = time.perf_counter()
    doc = load_document(text)
    elapsed = time.perf_counter() - started
    assert doc.elements == sparse_case["labels"]
    assert set(doc.covers) == sparse_case["covers"]
    assert elapsed < LOAD_BOUNDS[key]


def test_sparse_random_poset_prune_memory(sparse_case, capsys):
    # measured 15.8 MB; 30.8 MB while the pruned poset was closed again,
    # and 51.1 MB with the covers kept as masks. p's closure masks still
    # span most of the index range
    tracemalloc.start()
    try:
        assert cli(["prune", sparse_case["path"]]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 20 * 2**20


@pytest.mark.parametrize("command", ["info", "irr"])
def test_empty_document(tmp_path, capsys, command):
    path = _write(tmp_path, None, "empty.txt")
    code, out, elapsed = _timed_cli([command, path], capsys)
    assert code == 0
    if command == "info":
        assert "elements: 0" in out.splitlines()
        assert "height: 0" in out.splitlines()
        assert "maximal chains: 0" in out.splitlines()
    else:
        assert out.splitlines() == [
            "element  irreducible  coirreducible  doubly",
            "preserved under pruning: yes"]
    assert elapsed < 1.0


def test_completeness_picks_a_side_per_component():
    # a binary in-tree (root on top) beside a binary out-tree (root at the
    # bottom), 2000 leaves each: the in-tree has 2000 minimal elements and
    # the out-tree 2000 maximal ones, so no one side suits both trees.
    # About 13 ms on a 2-vCPU Xeon host (Python 3.11), against 0.4-0.9 s
    # with one side for the whole poset and 3-5 ms for either tree alone
    nodes = 2 * 2000 - 1
    p = _poset_of([(f"i{c:04d}", f"i{(c - 1) // 2:04d}")
                   for c in range(1, nodes)]
                  + [(f"o{(c - 1) // 2:04d}", f"o{c:04d}")
                     for c in range(1, nodes)])
    assert len(p.minimal_elements()) == len(p.maximal_elements()) == 2001
    started = time.perf_counter()
    complete = p.is_conditionally_complete()
    elapsed = time.perf_counter() - started
    assert complete
    assert elapsed < 0.25
