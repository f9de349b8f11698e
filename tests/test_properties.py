"""Randomized properties, cross-checked against tests/_reference.py.

The reference module recomputes everything from the definitions with
subset enumeration, so agreement here is meaningful: the two sides share
no code. Sizes stay small because the reference is exponential.
"""

from __future__ import annotations

import string
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import _reference as ref
from veinprune import (
    EmptySet,
    NotAChain,
    Poset,
    SetFamily,
    TooLarge,
    UnknownLabel,
    bridge_edges,
    coirreducibles,
    doubly_irreducibles,
    downset_lattice,
    is_coirreducible,
    is_irreducible,
    is_vein,
    iterate_prune,
    maximal_veins,
    oracle,
    profiles,
    prune,
    pruning_leq,
    pruning_witness,
    strict_veins,
)
from veinprune.irreducibles import irreducibles
from veinprune.oracle import irreducible_chain_family, is_irreducible_via_meet
from veinprune.poset import _bits
from veinprune.suite import vein_family


@st.composite
def posets(draw, max_size=6):
    n = draw(st.integers(min_value=1, max_value=max_size))
    labels = list(string.ascii_lowercase[:n])
    pairs = [(labels[i], labels[j])
             for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=len(pairs)))
    else:
        edges = []
    return Poset.from_relations(labels, edges)


@st.composite
def lattices(draw):
    """Small down-set lattices: conditionally complete, unlike most draws
    of :func:`posets`."""
    return downset_lattice(draw(st.integers(min_value=1, max_value=3)),
                           draw(st.integers(min_value=0, max_value=2**16)))


@st.composite
def ladders(draw, max_size=9):
    """Small diamond ladders with dead-branch gadgets and a bridge tail.

    Rung r runs from spine element s_r to s_(r+1) through one or two
    middle elements and, optionally, a gadget s_r < g < h < s_(r+1) whose
    cover g < h is a bridge, so a witness that steps into g is dead. A
    tail of bridge edges sits on the top spine element. The labels are a
    random permutation, so a dead branch often has the lowest index:
    shapes that :func:`posets` almost never draws.
    """
    rungs = draw(st.lists(st.tuples(st.integers(min_value=1, max_value=2),
                                    st.booleans()), min_size=1, max_size=3))

    def size():
        return len(rungs) + 1 + sum(m + 2 * g for m, g in rungs)

    while len(rungs) > 1 and size() > max_size:
        rungs.pop()
    tail = draw(st.integers(min_value=0,
                            max_value=max(0, min(2, max_size - size()))))
    labels = draw(st.permutations(string.ascii_lowercase[:size() + tail]))
    fresh = iter(labels[len(rungs) + 1:])
    spine = labels[:len(rungs) + 1]
    pairs = []
    for r, (middles, gadget) in enumerate(rungs):
        lo, hi = spine[r], spine[r + 1]
        for _ in range(middles):
            m = next(fresh)
            pairs += [(lo, m), (m, hi)]
        if gadget:
            g, h = next(fresh), next(fresh)
            pairs += [(lo, g), (g, h), (h, hi)]
    top = spine[-1]
    for t in fresh:
        pairs.append((top, t))
        top = t
    return Poset.from_relations(labels, pairs)


@st.composite
def fences(draw, max_size=9):
    """Small fences (zigzags) on randomly permuted labels.

    Each element shares a bound with at most two others, and a peak sits
    above two minimal elements, either of which may have the lower index.
    """
    n = draw(st.integers(min_value=1, max_value=max_size))
    labels = draw(st.permutations(string.ascii_lowercase[:n]))
    first_up = draw(st.booleans())
    pairs = [(x, y) if (i % 2 == 0) == first_up else (y, x)
             for i, (x, y) in enumerate(zip(labels, labels[1:]))]
    return Poset.from_relations(labels, pairs)


@st.composite
def crowns(draw, max_n=4):
    """Crowns on randomly permuted labels: l_i < u_j for every j != i.

    Crowns of 2 or 3 pairs are conditionally complete; from 4 pairs on,
    two upper elements share two maximal lower bounds.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    labels = draw(st.permutations(string.ascii_lowercase[:2 * n]))
    lower, upper = labels[:n], labels[n:]
    return Poset.from_relations(labels, [(lower[i], upper[j])
                                         for i in range(n)
                                         for j in range(n) if i != j])


@given(posets())
def test_opposite_involution(p):
    q = p.opposite()
    assert q.opposite() == p
    # the opposite built from the covers equals the one built from scratch
    rebuilt = Poset.from_relations(p.labels, [(b, a) for a, b in p.covers])
    assert q == rebuilt
    assert q.relations() == rebuilt.relations()
    assert set(q.relations()) == {(b, a) for (a, b) in p.relations()}
    assert sorted(q.maximal_chains()) == \
        sorted(tuple(reversed(m)) for m in p.maximal_chains())


@given(posets())
def test_relations_rebuild_the_poset(p):
    assert Poset.from_relations(p.labels, p.relations()) == p
    assert Poset.from_relations(p.labels, p.covers) == p
    assert p.relations() == tuple(sorted(p.relations()))
    assert p.covers == tuple(sorted(p.covers))


def _tables(q):
    return q._above, q._below, q._ucov, q._dcov


def _successors(masks):
    return [tuple(_bits(m)) for m in masks]


def _pairs(q, rows):
    return {(q.labels[i], q.labels[j])
            for i, row in enumerate(rows) for j in range(len(q)) if row >> j & 1}


def _cover_pairs(q, rows):
    return {(q.labels[i], q.labels[j]) for i, row in enumerate(rows)
            for j in row}


@given(st.one_of(posets(), ladders()))
def test_construction_from_any_generating_edges(p):
    # covers, the whole strict order, and the non-bridge covers behind the
    # pruned poset all generate the same tables as a rebuild from the order
    assert _tables(Poset.from_relations(p.labels, p.covers)) == _tables(p)
    assert _tables(Poset(p.labels, _successors(p._above))) == _tables(p)
    pruned = prune(p).pruned
    assert _tables(Poset(p.labels, _successors(pruned._above))) == \
        _tables(pruned)
    for q in (p, pruned):
        r = ref.P(q.labels, q.covers)  # reference closure of the covers
        assert _pairs(q, q._above) == r.R
        assert _pairs(q, q._below) == {(b, a) for a, b in r.R}
        assert _cover_pairs(q, q._ucov) == r.covers()
        assert _cover_pairs(q, q._dcov) == {(b, a) for a, b in r.covers()}
        assert all(list(row) == sorted(set(row))
                   for row in q._ucov + q._dcov)


@given(posets())
def test_meet_join_duality(p):
    q = p.opposite()
    for a in p.labels:
        for b in p.labels:
            assert p.meet(a, b) == q.join(a, b)
            assert p.join(a, b) == q.meet(a, b)


@given(posets())
def test_intervals_are_convex(p):
    for x in p.labels:
        for y in p.labels:
            if p.leq(x, y):
                assert p.is_convex(p.interval(x, y))


@given(posets())
def test_maximal_chains_cover_and_are_maximal(p):
    chains = p.maximal_chains()
    assert {x for m in chains for x in m} == p.elements
    for m in chains:
        members = set(m)
        assert p.is_chain(members)
        for extra in p.elements - members:
            assert not p.is_chain(members | {extra})


@given(posets())
def test_maximal_chains_restrict_to_intervals(p):
    for m in p.maximal_chains():
        for i in range(len(m)):
            for j in range(i, len(m)):
                assert m[i:j + 1] in \
                    oracle.maximal_chains_in_interval(p, m[i], m[j])


@given(posets(max_size=5))
def test_convex_chains_are_saturated(p):
    for r in range(2, len(p) + 1):
        for subset in combinations(p.labels, r):
            if not p.is_chain(subset) or not p.is_convex(subset):
                continue
            seq = p.as_chain(subset)
            for a, b in zip(seq, seq[1:]):
                assert b in p.upper_covers(a)


@given(st.one_of(posets(), ladders()))
def test_vein_modes_agree(p):
    assert strict_veins(p, mode="fast") == strict_veins(p, mode="oracle")


@given(posets())
def test_bridges_are_the_two_element_veins(p):
    twos = {v for v in strict_veins(p) if len(v) == 2}
    assert twos == set(bridge_edges(p))


@given(st.one_of(posets(max_size=5), ladders()), st.data())
def test_is_vein_matches_the_definition(p, data):
    twin = ref.mirror(p)
    subset = data.draw(st.sets(st.sampled_from(p.labels), min_size=1),
                       label="subset")
    assert is_vein(p, subset) == twin.is_vein(subset)
    for chain in twin.all_chains():
        assert is_vein(p, chain) == twin.is_vein(chain)


@given(posets())
def test_maximal_veins_partition(p):
    seen: set[str] = set()
    for v in maximal_veins(p):
        assert is_vein(p, v)
        assert not (seen & set(v))
        seen |= set(v)
    assert seen == p.elements


@given(st.one_of(posets(), ladders()))
def test_pruning_modes_agree(p):
    for x in p.labels:
        for y in p.labels:
            assert pruning_leq(p, x, y) == \
                oracle.pruning_leq(p, x, y)


@given(st.one_of(posets(), ladders()))
def test_prune_shrinks_and_stabilizes(p):
    report = prune(p)
    assert set(report.pruned.relations()) <= set(p.relations())
    again = prune(report.pruned)
    assert again.pruned == report.pruned
    assert iterate_prune(p).fixpoint_index == (0 if report.pruned == p else 1)
    slow = prune(p, mode="oracle")
    assert slow.pruned == report.pruned
    assert slow.removed_relations == report.removed_relations


@given(posets())
def test_prune_commutes_with_opposite(p):
    assert prune(p.opposite()).pruned == prune(p).pruned.opposite()


@given(posets(max_size=5), st.data())
def test_veins_restrict_to_subposets(p, data):
    subset = data.draw(st.sets(st.sampled_from(p.labels), min_size=1),
                       label="subset")
    q = oracle.induced_subposet(p, subset)
    for v in vein_family(p).members:
        common = v & subset
        if common:
            assert is_vein(q, common)


@settings(max_examples=30)
@given(posets(max_size=5))
def test_vein_family_connectivity_axiom_forms_agree(p):
    fam = vein_family(p)
    assert fam.is_connectivity()
    assert fam.is_connectivity() == oracle.is_connectivity_exhaustive(
        fam, max_members=len(fam))
    assert fam.is_point_connected()
    assert set(fam.components()) == {frozenset(v) for v in maximal_veins(p)}


@settings(max_examples=50)
@given(posets(max_size=5))
def test_irreducible_chain_family_is_point_connected(p):
    fam = irreducible_chain_family(p)
    assert fam.is_connectivity()
    assert fam.is_point_connected()


# ----------------------------------------------------------------------
# agreement with the definition-level reference


@given(posets(max_size=5))
def test_reference_veins_agree(p):
    twin = ref.mirror(p)
    assert {frozenset(v) for v in strict_veins(p)} == set(twin.strict_veins())
    assert {frozenset(v) for v in maximal_veins(p)} == set(twin.maximal_veins())
    assert set(bridge_edges(p)) == ref.bridge_edges_by_degree(twin)


@given(posets(max_size=5))
def test_reference_pruning_agrees(p):
    twin = ref.mirror(p)
    for x in p.labels:
        for y in p.labels:
            assert pruning_leq(p, x, y) == twin.pruning_leq(x, y)
    assert set(prune(p).pruned.relations()) == twin.prune().R


@given(posets(max_size=5))
def test_reference_irreducibles_agree(p):
    twin = ref.mirror(p)
    for x in p.labels:
        assert is_irreducible(p, x) == twin.is_irreducible(x)
        assert is_coirreducible(p, x) == twin.is_coirreducible(x)


@given(posets(max_size=5))
def test_reference_core_agrees(p):
    twin = ref.mirror(p)
    assert {tuple(sorted(c)) for c in map(frozenset, p.maximal_chains())} == \
        {tuple(sorted(c)) for c in twin.maximal_chains()}
    assert p.is_conditionally_complete() == twin.conditionally_complete()


@settings(max_examples=30)
@given(posets(max_size=4))
def test_reference_connectivity_of_vein_family_agrees(p):
    twin = ref.mirror(p)
    members = [set(v) for v in vein_family(p).members]
    assert ref.fam_is_connectivity_exhaustive(set(p.elements), members) == \
        vein_family(p).is_connectivity()


@given(st.lists(st.sets(st.sampled_from("abcde"), min_size=1), max_size=9))
def test_point_by_point_subfamilies_are_the_subfamily_definition(members):
    ground = set().union(*members)
    fam = SetFamily(ground, members)
    assert oracle.is_connectivity_exhaustive(fam) == \
        ref.fam_is_connectivity_exhaustive(ground, members) == \
        fam.is_connectivity()


# ----------------------------------------------------------------------
# the definition-level oracle against the reference's definitions


def _listed_ascending(p, chains):
    """True iff the label tuples are sorted, distinct, and each lists a
    chain of p from bottom to top."""
    return list(chains) == sorted(set(chains)) and all(
        p.lt(a, b) for c in chains for a, b in zip(c, c[1:]))


@given(st.one_of(posets(), ladders()), st.data())
def test_oracle_chain_facts_are_the_reference(p, data):
    twin = ref.mirror(p)
    chains = twin.all_chains()
    listed = oracle.all_chains(p)
    assert _listed_ascending(p, listed)
    assert {frozenset(c) for c in listed} == set(chains)
    irreducible = set()
    for c in chains:
        assert oracle.is_irreducible_chain(p, c) == twin.is_irreducible_chain(c)
        assert oracle.is_vein(p, c) == twin.is_vein(c)
        if twin.is_irreducible_chain(c):
            irreducible.add(c)
    assert set(oracle.irreducible_chain_family(p).members) == irreducible
    maximal = oracle.maximal_irreducible_chains(p)
    assert _listed_ascending(p, maximal)
    assert {frozenset(c) for c in maximal} == {
        c for c in irreducible if not any(c < d for d in irreducible)}
    veins = oracle.strict_veins(p)
    assert _listed_ascending(p, veins)
    assert {frozenset(v) for v in veins} == set(twin.strict_veins())
    # any nonempty subset: chains or not, convex or not
    subset = data.draw(st.sets(st.sampled_from(p.labels), min_size=1),
                       label="subset")
    assert oracle.is_vein(p, subset) == twin.is_vein(subset)
    if twin.is_chain(subset):
        assert oracle.is_irreducible_chain(p, subset) == \
            twin.is_irreducible_chain(subset)
    else:
        with pytest.raises(NotAChain):
            oracle.is_irreducible_chain(p, subset)


@given(st.one_of(posets(), ladders()), st.data())
def test_oracle_rejects_what_is_not_a_chain(p, data):
    twin = ref.mirror(p)
    pairs = [(x, y) for x in p.labels for y in p.labels
             if x < y and not twin.leq(x, y) and not twin.leq(y, x)]
    if pairs:
        x, y = data.draw(st.sampled_from(pairs), label="incomparable")
        extra = data.draw(st.sets(st.sampled_from(p.labels)), label="extra")
        subset = {x, y} | extra
        assert not oracle.is_vein(p, subset)
        with pytest.raises(NotAChain):
            oracle.is_irreducible_chain(p, subset)
        with pytest.raises(NotAChain):
            oracle.check_covering_characterization(p, subset)
    gaps = [(x, y) for x, y in p.relations()
            if len(twin.interval(x, y)) > 2]
    if gaps:
        # a chain that skips an element between its ends is not convex
        x, y = data.draw(st.sampled_from(gaps), label="gap")
        assert not oracle.is_vein(p, {x, y})
        assert oracle.is_irreducible_chain(p, {x, y}) == \
            twin.is_irreducible_chain({x, y})
    for f in (oracle.is_vein, oracle.is_irreducible_chain,
              oracle.check_covering_characterization):
        with pytest.raises(UnknownLabel, match="unknown label 'zz'"):
            f(p, {p.labels[0], "zz"})
        with pytest.raises(EmptySet):
            f(p, set())
    with pytest.raises(UnknownLabel):
        oracle.clean_chain(p, p.labels[0], "zz")
    with pytest.raises(UnknownLabel):
        oracle.pruning_leq(p, "zz", p.labels[0])


def test_oracle_errors_and_the_empty_poset(fx):
    yp, c3 = fx["Yp"], fx["C3"]
    with pytest.raises(EmptySet, match="^a vein is a nonempty chain$"):
        oracle.is_vein(yp, [])
    with pytest.raises(EmptySet,
                       match="^a chain must contain at least one element$"):
        oracle.is_irreducible_chain(yp, [])
    with pytest.raises(NotAChain, match="^'c' and 'd' are incomparable$"):
        oracle.is_irreducible_chain(yp, ["d", "a", "c"])
    assert not oracle.is_vein(yp, ["d", "a", "c"])
    assert not oracle.is_vein(c3, {"a", "c"})  # a chain, but not convex
    assert oracle.is_irreducible_chain(c3, {"a", "c"})
    assert not oracle.is_irreducible_chain(yp, {"a", "c"})
    assert oracle.clean_chain(yp, "c", "d") is None
    assert oracle.clean_chain(yp, "d", "a") is None
    empty = Poset.from_relations([], [])
    assert oracle.strict_veins(empty) == []
    assert oracle.all_chains(empty) == []
    assert oracle.irreducible_chain_family(empty).members == ()
    assert oracle.maximal_irreducible_chains(empty) == []
    wide = Poset.from_relations([f"x{i}" for i in range(17)], [])
    for f in (oracle.all_chains, oracle.irreducible_chain_family,
              oracle.maximal_irreducible_chains):
        with pytest.raises(
                TooLarge,
                match="^17 elements exceed the chain-enumeration bound 16$"):
            f(wide)
    assert oracle.maximal_irreducible_chains(wide, max_elements=17) == [
        (x,) for x in wide.labels]


# ----------------------------------------------------------------------
# the cover-count, principal-set, cover-walk and greedy-ascent shortcuts
# against the definitions they replace


@given(posets(max_size=6))
def test_cover_count_irreducibility_is_the_filter_definition(p):
    twin = ref.mirror(p)
    q = p.opposite()
    prof = profiles(p)
    for x in p.labels:
        by_filter = oracle.is_filtered_upset(p, p.strict_upset(x))
        by_co_filter = oracle.is_filtered_upset(q, q.strict_upset(x))
        assert prof[x].irreducible == by_filter == twin.is_irreducible(x)
        assert prof[x].coirreducible == by_co_filter == \
            twin.is_coirreducible(x)
    assert irreducibles(p) == tuple(x for x in p.labels
                                    if twin.is_irreducible(x))
    assert coirreducibles(p) == tuple(x for x in p.labels
                                      if twin.is_coirreducible(x))
    assert doubly_irreducibles(p) == frozenset(
        x for x in p.labels
        if twin.is_irreducible(x) and twin.is_coirreducible(x))


@given(st.one_of(posets(max_size=7), ladders(), lattices(), fences(),
                 crowns()))
def test_principal_set_completeness_is_the_pairwise_definition(p):
    twin = ref.mirror(p)
    assert p.is_conditionally_complete() == twin.conditionally_complete()
    if p.is_conditionally_complete():
        for x in p.labels:
            expressible = any(twin.meet(a, b) == x
                              for a in p.labels for b in p.labels
                              if x not in (a, b))
            assert is_irreducible_via_meet(p, x) == (not expressible)
            assert is_irreducible_via_meet(p, x) == twin.is_irreducible(x)


def test_completeness_routes_agree_on_every_small_order():
    # the closure of every set of pairs i < j (by index) on at most 5
    # elements: 1,100 edge sets. Numbered along a linear extension, every
    # order has its relations going up in index, so every order of that
    # size is here up to isomorphism
    seen = 0
    for n in range(6):
        labels = string.ascii_lowercase[:n]
        pairs = list(combinations(labels, 2))
        for chosen in range(1 << len(pairs)):
            p = Poset.from_relations(labels, [
                pair for k, pair in enumerate(pairs) if chosen >> k & 1])
            complete = p.is_conditionally_complete()
            assert complete == ref.mirror(p).conditionally_complete(), p.covers
            assert complete == (oracle._proper_meets(p) is not None), p.covers
            # the opposite order, tested from its own minimal elements
            assert p.opposite().is_conditionally_complete() == complete
            seen += 1
    assert seen == 1 + 1 + 2 + 8 + 64 + 1024


@given(st.one_of(posets(), ladders(), lattices()))
def test_pruning_keeps_proper_meets_where_both_are_complete(p):
    # pruning keeps every irreducibility flag but may lose completeness;
    # where it does not, the meet route reads the same flags on both sides
    q = prune(p).pruned
    if p.is_conditionally_complete() and q.is_conditionally_complete():
        assert oracle._proper_meets(p) == oracle._proper_meets(q)


@given(st.one_of(posets(max_size=7), ladders(), lattices(), fences(),
                 crowns()))
def test_cover_walk_bounds_are_the_reference_bounds(p):
    twin = ref.mirror(p)
    for a in p.labels:
        for b in p.labels:
            assert p.meet(a, b) == twin.meet(a, b)
            assert p.join(a, b) == twin.join(a, b)


@given(st.one_of(posets(max_size=6), ladders(max_size=7)))
# the lower cover q of p leads only into the bridge q < s: a dead branch
@example(Poset.from_relations(
    "pqrst", [("p", "q"), ("p", "r"), ("q", "s"), ("s", "t"), ("r", "t")]))
def test_greedy_witness_is_the_oracle_witness(p):
    twin = ref.mirror(p)
    veins = twin.strict_veins()
    height = {x: sum(twin.lt(z, x) for z in p.labels) for x in p.labels}
    for x, y in p.relations():
        fast = pruning_witness(p, x, y)
        assert (fast.chain if fast else None) == oracle.clean_chain(p, x, y)
        # the least clean maximal chain of [x, y], from the definitions
        clean = [tuple(sorted(m, key=height.__getitem__))
                 for m in twin.maximal_chains_in_interval(x, y)
                 if not any(v <= m for v in veins)]
        assert (fast.chain if fast else None) == min(clean, default=None)


@given(st.one_of(
    st.just(0),
    # sparse: a few bits anywhere in a mask thousands of bits wide
    st.sets(st.integers(min_value=0, max_value=6000), max_size=12).map(
        lambda bits: sum(1 << i for i in bits)),
    # dense: every bit drawn
    st.binary(max_size=64).map(lambda raw: int.from_bytes(raw, "little"))))
def test_bits_lists_the_set_bits_ascending(mask):
    assert _bits(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


@given(st.lists(st.one_of(posets(max_size=5), crowns(), fences(max_size=6),
                          lattices()), min_size=2, max_size=3))
def test_completeness_of_a_disjoint_union(parts):
    # each component is tested from the side with fewer minimal elements
    # in it, so the parts of one union may be tested from different sides
    labels, pairs = [], []
    for k, part in enumerate(parts):
        labels += [f"{k}{x}" for x in part.labels]
        pairs += [(f"{k}{a}", f"{k}{b}") for a, b in part.covers]
    p = Poset.from_relations(labels, pairs)
    complete = p.is_conditionally_complete()
    assert complete == all(ref.mirror(part).conditionally_complete()
                           for part in parts)
    assert complete == ref.mirror(p).conditionally_complete()
