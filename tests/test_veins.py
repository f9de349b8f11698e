from __future__ import annotations

import ast
import contextlib
import importlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from veinprune import (
    EmptySet,
    NotAChain,
    Poset,
    PosetDocument,
    SetFamily,
    TooLarge,
    UnknownLabel,
    bridge_edges,
    is_vein,
    maximal_veins,
    oracle,
    prune,
    strict_veins,
    suite,
)
from veinprune.cli import cli
from veinprune.formats import emit_json
from veinprune.oracle import (
    all_chains,
    check_covering_characterization,
    irreducible_chain_family,
    is_irreducible_chain,
    maximal_irreducible_chains,
)
from veinprune.suite import vein_family
from veinprune.veins import _bridge_runs


def test_is_irreducible_chain(yp, b3):
    assert is_irreducible_chain(yp, {"a", "b"})
    assert not is_irreducible_chain(b3, {"{}", "{1}"})
    for x in b3.elements:
        assert is_irreducible_chain(b3, {x})
    with pytest.raises(NotAChain):
        is_irreducible_chain(yp, {"c", "d"})
    with pytest.raises(UnknownLabel):
        is_irreducible_chain(yp, {"zz"})


def test_subchains_of_irreducible_chains(c3, yp):
    # every nonempty subset of an irreducible chain is one too
    assert is_irreducible_chain(c3, {"a", "b", "c"})
    assert is_irreducible_chain(c3, {"a", "c"})
    assert is_irreducible_chain(yp, {"a", "b"})
    assert is_irreducible_chain(yp, {"a"})


def test_covering_characterization_fixtures(yp, b3):
    assert check_covering_characterization(yp, {"a", "b"})
    assert not check_covering_characterization(b3, {"{}", "{1}"})
    assert check_covering_characterization(b3, {"{1}"})


def test_covering_characterization_matches_direct(fx):
    for p in fx.values():
        for chain in all_chains(p):
            assert check_covering_characterization(p, chain) == \
                is_irreducible_chain(p, chain)


def test_covering_characterization_guard():
    wide = Poset.from_relations([f"x{i}" for i in range(17)], [])
    with pytest.raises(TooLarge):
        check_covering_characterization(wide, {"x0"})
    assert check_covering_characterization(wide, {"x0"}, max_maximal_chains=17)


def test_is_vein(yp, b3, c3):
    # the fast test and the definition give the same verdicts and errors
    for vein in (is_vein, oracle.is_vein):
        assert vein(yp, {"a", "b"})
        assert not vein(yp, {"a", "b", "c"})   # (a, b, d) meets it without containing it
        assert vein(yp, {"c"})
        assert not vein(b3, {"{}", "{1}"})
        # non-chains and non-convex sets are simply not veins, no error
        assert not vein(yp, {"c", "d"})
        assert not vein(c3, {"a", "c"})
        with pytest.raises(EmptySet):
            vein(yp, set())
        with pytest.raises(UnknownLabel):
            vein(yp, {"a", "zz"})


def test_is_vein_leaves_the_lower_masks_unfilled():
    # as_chain sorts by the upper masks the constructor keeps, and a vein
    # query reads only covers, so neither builds the downward closure
    p = Poset.from_relations(
        "abcdef", [("a", "b"), ("b", "c"), ("c", "d"), ("c", "e")])
    assert p._below_masks is None
    assert p.as_chain({"d", "a", "c"}) == ("a", "c", "d")
    assert is_vein(p, {"c", "a", "b"})
    assert not is_vein(p, {"c", "d"})  # c has two upper covers
    assert not is_vein(p, {"d", "e"})  # not a chain
    assert not p.is_chain({"f", "a"})
    assert p._below_masks is None


def test_singleton_vein_query_reads_no_mask():
    # a pruned poset is built from its covers with both order masks unset;
    # a one-element subset is a chain without reading either of them
    p = Poset.from_relations(
        "abcdef", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
                   ("d", "e"), ("e", "f")])
    q = prune(p).pruned
    assert q != p
    assert q._above_masks is None and q._below_masks is None
    for x in q.labels:
        assert is_vein(q, [x])
        assert q.as_chain([x]) == (x,)
    assert q._above_masks is None and q._below_masks is None


def test_vein_query_reads_no_mask():
    # a larger subset is decided from the bridge edges alone, so neither
    # the pruned poset nor the opposite, both built from covers, fills a
    # mask: not for a cover run of two or three elements, nor for a subset
    # that is no run
    p = Poset.from_relations(
        "abcdef", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
                   ("d", "e"), ("e", "f")])
    q = prune(p).pruned
    assert q.covers == (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))
    assert not is_vein(q, {"a", "b"})
    assert not is_vein(q, {"a", "b", "d"})
    assert not is_vein(q, {"b", "c"})
    assert q._above_masks is None and q._below_masks is None
    r = p.opposite()
    assert is_vein(r, {"f", "e"})
    assert is_vein(r, {"f", "d", "e"})
    assert not is_vein(r, {"d", "f"})
    assert not is_vein(r, {"b", "d", "e"})
    assert r._above_masks is None and r._below_masks is None


def test_bridge_edges(yp, c3, b3, vee):
    assert bridge_edges(yp) == {("a", "b")}
    assert bridge_edges(c3) == {("a", "b"), ("b", "c")}
    assert bridge_edges(b3) == frozenset()
    assert bridge_edges(vee) == frozenset()


def test_bridge_edges_are_two_element_veins(fx):
    for p in fx.values():
        twos = {v for v in strict_veins(p) if len(v) == 2}
        assert {tuple(v) for v in twos} == set(bridge_edges(p))


def test_strict_veins_frozen(c3, yp, b3, vee):
    assert strict_veins(c3) == [("a", "b"), ("a", "b", "c"), ("b", "c")]
    assert strict_veins(yp) == [("a", "b")]
    assert strict_veins(b3) == []
    assert strict_veins(vee) == []


def test_strict_veins_modes_agree(fx):
    for p in fx.values():
        assert strict_veins(p, mode="fast") == strict_veins(p, mode="oracle")
    with pytest.raises(ValueError):
        strict_veins(fx["C3"], mode="quick")


@st.composite
def interleaved_runs(draw, max_size=12):
    """Chains interleaved along a random topological order, plus extra
    edges that may cut them into shorter bridge runs.

    The order is a permutation of the labels, so chain order and label
    order disagree, and the labels may contain spaces (JSON writes them).
    """
    labels = draw(st.lists(st.text(alphabet="ab z", min_size=1, max_size=3),
                           min_size=1, max_size=max_size, unique=True))
    order = draw(st.permutations(labels))
    chain_of = draw(st.lists(st.integers(min_value=0, max_value=3),
                             min_size=len(order), max_size=len(order)))
    last: dict[int, str] = {}
    pairs = []
    for x, c in zip(order, chain_of):
        if c in last:
            pairs.append((last[c], x))
        last[c] = x
    forward = [(order[i], order[j]) for i in range(len(order))
               for j in range(i + 1, len(order))]
    if forward:
        pairs += draw(st.lists(st.sampled_from(forward), max_size=3))
    return Poset.from_relations(labels, pairs)


def _sub_runs(p: Poset) -> list[tuple[str, ...]]:
    out = []
    for run in _bridge_runs(p):
        chain = [p.labels[k] for k in run]
        out += [tuple(chain[lo:hi]) for lo in range(len(chain))
                for hi in range(lo + 2, len(chain) + 1)]
    return sorted(out)


@given(interleaved_runs())
def test_strict_veins_are_the_sorted_sub_runs(p):
    veins = strict_veins(p)
    assert veins == _sub_runs(p)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "p.json"
        path.write_text(emit_json(PosetDocument.from_poset(p)),
                        encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli(["veins", str(path)]) == 0
    lines = out.getvalue().splitlines()
    header = f"strict veins ({len(veins)}):" if veins else "strict veins: none"
    assert lines[0] == header
    end = lines.index(f"maximal veins ({len(maximal_veins(p))}):")
    assert lines[1:end] == ["  " + " ".join(v) for v in veins]


def test_interleaved_runs_list_in_label_order():
    # two bridge runs z m a and b y c whose labels do not sort in chain order
    p = Poset.from_relations("zmabyc", [("z", "m"), ("m", "a"),
                                         ("b", "y"), ("y", "c")])
    assert strict_veins(p) == [("b", "y"), ("b", "y", "c"), ("m", "a"),
                               ("y", "c"), ("z", "m"), ("z", "m", "a")]
    assert strict_veins(p) == strict_veins(p, mode="oracle")


def test_maximal_veins_frozen(c3, yp, a2, vee):
    assert maximal_veins(c3) == [("a", "b", "c")]
    assert maximal_veins(yp) == [("a", "b"), ("c",), ("d",)]
    assert maximal_veins(a2) == [("a",), ("b",)]
    assert maximal_veins(vee) == [("a",), ("b",), ("c",)]


def test_maximal_veins_partition(fx):
    for p in fx.values():
        seen = set()
        for v in maximal_veins(p):
            assert not (seen & set(v))
            seen |= set(v)
        assert seen == set(p.elements)


def test_vein_family(yp, b3):
    f = vein_family(yp)
    assert set(f.members) == {
        frozenset({"a"}), frozenset({"b"}), frozenset({"c"}), frozenset({"d"}),
        frozenset({"a", "b"}),
    }
    assert f.is_connectivity()
    assert f.is_point_connected()
    # B3 has no strict veins, so the family is just the singletons
    assert all(len(m) == 1 for m in vein_family(b3).members)


def test_all_chains(c3):
    chains = all_chains(c3)
    assert len(chains) == 7  # every nonempty subset of a 3-chain
    assert ("a", "c") in chains
    wide = Poset.from_relations([f"x{i}" for i in range(17)], [])
    with pytest.raises(TooLarge):
        all_chains(wide)
    assert len(all_chains(wide, max_elements=17)) == 17


def test_irreducible_chain_family(c3, yp):
    f = irreducible_chain_family(c3)
    assert f.is_connectivity()
    assert f.is_point_connected()
    assert frozenset({"a", "c"}) in f.members
    g = irreducible_chain_family(yp)
    assert frozenset({"a", "b"}) in g.members
    assert frozenset({"a", "b", "c"}) not in g.members


def test_maximal_irreducible_chains(c3, yp):
    assert maximal_irreducible_chains(c3) == [("a", "b", "c")]
    assert maximal_irreducible_chains(yp) == [("a", "b"), ("c",), ("d",)]


def test_components_equal_maximal_veins(fx):
    for p in fx.values():
        comps = set(vein_family(p).components())
        assert comps == {frozenset(v) for v in maximal_veins(p)}


def test_vein_restriction_fails_a_mutant_that_rejects_longer_veins(
        fx, monkeypatch):
    monkeypatch.setattr(oracle, "is_vein",
                        lambda p, subset: len(set(subset)) < 2)
    assert not suite._vein_restriction(list(fx.values()), 1).ok


def test_vein_restriction_tests_only_longer_meets(fx, monkeypatch):
    # a one-element meet is a vein by definition, so none is sent to the
    # oracle, and the draws still test some longer one
    real, sizes = oracle.is_vein, []

    def spy(p, subset):
        sizes.append(len(set(subset)))
        return real(p, subset)

    monkeypatch.setattr(oracle, "is_vein", spy)
    assert suite._vein_restriction(list(fx.values()), 1).ok
    assert sizes and min(sizes) >= 2


def test_package_root_exports_neither_oracle_nor_suite_names():
    root = importlib.import_module("veinprune")
    for name in ("all_chains", "check_covering_characterization",
                 "irreducible_chain_family", "is_irreducible_chain",
                 "is_irreducible_via_meet", "maximal_irreducible_chains",
                 "CheckOutcome", "SuiteResult", "Violation",
                 "cover_inheritance_check", "run_suite", "star_chain_check",
                 "vein_family"):
        assert not hasattr(root, name), name


def test_cross_checks_live_in_the_oracle():
    # the oracle must not depend on the fast route it checks, the fast
    # modules hold no exhaustive cross-check, and reading or writing a
    # document needs only the poset. Two edges stay while the benchmark's
    # replay uses them: veins and pruning import the oracle for their
    # mode= keyword, and irreducibles imports pruning for
    # preservation_report.
    def relative_imports(module: str) -> set[str]:
        path = Path(importlib.import_module(module).__file__)
        relative = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                relative.update([node.module] if node.module
                                else [alias.name for alias in node.names])
        return relative

    assert relative_imports("veinprune.oracle") <= {"poset", "connectivity",
                                                    "errors"}
    assert relative_imports("veinprune.veins") <= {"poset", "errors", "oracle"}
    assert relative_imports("veinprune.irreducibles") <= {"poset", "pruning"}
    assert relative_imports("veinprune.formats") <= {"poset", "errors"}
    moved = ("check_covering_characterization", "all_chains",
             "irreducible_chain_family", "maximal_irreducible_chains",
             "star_chain_check", "cover_inheritance_check",
             "is_filtered_upset", "is_connectivity_exhaustive",
             "vein_family", "is_irreducible_via_meet",
             "maximal_chains_in_interval", "induced_subposet")
    owners = (importlib.import_module("veinprune.veins"),
              importlib.import_module("veinprune.pruning"),
              importlib.import_module("veinprune.irreducibles"),
              Poset, SetFamily)
    for owner in owners:
        for name in moved:
            assert not hasattr(owner, name), (owner, name)
    # the poset walks its maximal chains once, as index paths
    assert not hasattr(Poset, "_maximal_chains")
