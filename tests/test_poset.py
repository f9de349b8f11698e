from __future__ import annotations

import string
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import _reference as ref
import veinprune
from veinprune import (
    CycleDetected,
    DuplicateLabel,
    EmptySet,
    NotAChain,
    NotComparable,
    Poset,
    UnknownLabel,
    oracle,
)
from veinprune.errors import VeinpruneError


def test_from_relations_closure_and_reduction():
    # redundant pair (a, c) must disappear from the cover graph
    p = Poset.from_relations("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert p.covers == (("a", "b"), ("b", "c"))
    assert set(p.relations()) == {("a", "b"), ("a", "c"), ("b", "c")}


@settings(max_examples=300)
@given(st.lists(st.sampled_from("abc"), max_size=5),
       st.lists(st.tuples(st.sampled_from("abcz"), st.sampled_from("abcz")),
                max_size=5))
@example(["a", "b", "a", "b"], [("z", "a")])  # a duplicate first
@example(["a", "b"], [("a", "a"), ("z", "b")])  # a self-loop first
@example(["a", "b"], [("z", "a"), ("a", "a")])  # an unknown label first
@example(["a", "b"], [("a", "z"), ("y", "b")])  # unknown upper label first
@example(["a", "b"], [("y", "z")])  # both unknown: the lower one
@example(["a", "b", "c"], [("a", "b"), ("b", "a"), ("c", "c")])
def test_from_relations_raises_the_first_fault(labels, pairs):
    # duplicate labels, unknown labels on either side, self-loops and
    # cycles, in every order, against the reference's one pair at a time
    try:
        ref.relation_fault(labels, pairs)
    except ref.Fault as fault:
        with pytest.raises(VeinpruneError) as exc:
            Poset.from_relations(labels, pairs)
        assert fault.agrees(exc.value, pairs), (exc.value, fault)
        return
    p = Poset.from_relations(labels, pairs)
    want = ref.P(labels, pairs)
    assert set(p.labels) == want.E and set(p.relations()) == want.R


@given(st.data())
def test_from_relations_normalises_any_generating_pairs(data):
    # pairs in any order, repeated, and with implied pairs build the same
    # poset, with every cover listing ascending
    n = data.draw(st.integers(min_value=1, max_value=8))
    labels = data.draw(st.permutations(string.ascii_lowercase[:n]))
    order = [(labels[i], labels[j])
             for i in range(n) for j in range(i + 1, n)]
    pairs = data.draw(st.lists(st.sampled_from(order), max_size=20)
                      if order else st.just([]))
    p = Poset.from_relations(labels, pairs)
    assert Poset.from_relations(labels, sorted(set(pairs))) == p
    stated = data.draw(st.lists(st.sampled_from(p.relations()), max_size=10)
                       if p.relations() else st.just([]))
    mixed = data.draw(st.permutations(list(p.covers) * 2 + stated))
    q = Poset.from_relations(labels, mixed)
    assert q == p
    assert q.covers == p.covers == tuple(sorted(p.covers))
    for x in p.labels:
        assert p.upper_covers(x) == tuple(sorted(p.upper_covers(x)))
        assert p.lower_covers(x) == tuple(sorted(p.lower_covers(x)))
    assert p.opposite().opposite() == p
    assert p.opposite().opposite().covers == p.covers


def test_from_relations_accepts_isolated_elements():
    p = Poset.from_relations(["x", "y", "z"], [("x", "y")])
    assert p.labels == ("x", "y", "z")
    assert p.elements == frozenset({"x", "y", "z"})
    assert p.relations() == (("x", "y"),)


def test_from_relations_rejects_duplicates_and_unknowns():
    with pytest.raises(DuplicateLabel):
        Poset.from_relations(["a", "a"], [])
    with pytest.raises(UnknownLabel):
        Poset.from_relations("ab", [("a", "q")])


def test_from_relations_rejects_cycles():
    with pytest.raises(CycleDetected) as exc:
        Poset.from_relations("ab", [("a", "b"), ("b", "a")])
    assert exc.value.cycle == ("a", "b", "a")
    with pytest.raises(CycleDetected):
        Poset.from_relations("a", [("a", "a")])
    with pytest.raises(CycleDetected) as exc:
        Poset.from_relations("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert exc.value.cycle == ("a", "b", "c", "a")
    # the walk starts at a, enters the cycle at b and reports it from there
    with pytest.raises(CycleDetected) as exc:
        Poset.from_relations("abcd", [("d", "c"), ("c", "b"), ("b", "d"),
                                      ("a", "b")])
    assert exc.value.cycle == ("b", "d", "c", "b")


@given(st.data())
def test_cycle_witness_is_a_cycle_of_input_pairs(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    labels = data.draw(st.permutations(string.ascii_lowercase[:n]))
    # position order is a topological order, so these pairs form a DAG
    forward = [(labels[i], labels[j])
               for i in range(n) for j in range(i + 1, n)]
    pairs = data.draw(st.lists(st.sampled_from(forward), unique=True))
    lo, hi = data.draw(st.sampled_from(forward))
    pairs = pairs + [(lo, hi), (hi, lo)]  # one back edge closes a cycle
    with pytest.raises(CycleDetected) as exc:
        Poset.from_relations(labels, pairs)
    cycle = exc.value.cycle
    assert len(cycle) >= 3 and cycle[0] == cycle[-1]
    assert set(zip(cycle, cycle[1:])) <= set(pairs)


def test_labels_sorted_and_value_equality():
    p = Poset.from_relations(["b", "a"], [("b", "a")])
    q = Poset.from_relations(["a", "b"], [("b", "a")])
    assert p.labels == ("a", "b")
    assert p == q
    assert hash(p) == hash(q)
    assert p != Poset.from_relations("ab", [("a", "b")])
    # another type gets NotImplemented, and == falls back to identity
    assert p.__eq__(1) is NotImplemented
    assert (p == 1) is False


def test_leq_lt_comparable(c3, yp, a2):
    assert c3.leq("a", "c")
    assert c3.leq("a", "a")
    assert not c3.lt("a", "a")
    assert c3.lt("a", "c")
    assert not a2.comparable("a", "b")
    assert not yp.comparable("c", "d")
    assert yp.comparable("a", "d")
    with pytest.raises(UnknownLabel):
        c3.leq("a", "nope")


def test_cover_accessors(yp):
    assert yp.covers == (("a", "b"), ("b", "c"), ("b", "d"))
    assert yp.upper_covers("b") == ("c", "d")
    assert yp.lower_covers("b") == ("a",)
    assert yp.upper_covers("c") == ()


def test_relations_frozen(yp, b3):
    assert set(yp.relations()) == {
        ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")
    }
    assert len(b3.relations()) == 19
    assert len(b3.covers) == 12
    assert len(b3) == 8


def test_minimal_maximal(yp, vee, a2):
    assert yp.minimal_elements() == ("a",)
    assert yp.maximal_elements() == ("c", "d")
    assert vee.maximal_elements() == ("c",)
    assert a2.minimal_elements() == ("a", "b")


def test_strict_upset_downset(yp):
    assert yp.strict_upset("b") == frozenset({"c", "d"})
    assert yp.strict_downset("b") == frozenset({"a"})
    assert yp.strict_upset("c") == frozenset()


def test_interval(c3, b3, a2):
    assert c3.interval("a", "c") == frozenset("abc")
    assert b3.interval("{}", "{1,2}") == frozenset({"{}", "{1}", "{2}", "{1,2}"})
    assert b3.interval("{1}", "{1}") == frozenset({"{1}"})
    # incomparable endpoints give an empty interval
    assert a2.interval("a", "b") == frozenset()


def test_is_chain(yp, b3):
    assert yp.is_chain({"a", "b", "c"})
    assert yp.is_chain({"c"})
    assert not yp.is_chain({"c", "d"})
    assert b3.is_chain({"{}", "{1}", "{1,3}", "{1,2,3}"})
    assert not b3.is_chain({"{1}", "{2}"})
    with pytest.raises(EmptySet):
        yp.is_chain(set())


def test_as_chain(b3, yp):
    assert b3.as_chain({"{1,3}", "{}", "{1}"}) == ("{}", "{1}", "{1,3}")
    with pytest.raises(NotAChain):
        yp.as_chain({"c", "d"})
    with pytest.raises(EmptySet):
        yp.as_chain([])


def test_is_convex(c3, yp, b3):
    assert not c3.is_convex({"a", "c"})
    assert c3.is_convex({"a", "b"})
    assert yp.is_convex({"b", "c", "d"})
    assert not b3.is_convex({"{}", "{1}", "{1,2,3}"})
    with pytest.raises(EmptySet):
        c3.is_convex(set())


def test_maximal_chains(c3, yp, vee, a2):
    assert c3.maximal_chains() == [("a", "b", "c")]
    assert yp.maximal_chains() == [("a", "b", "c"), ("a", "b", "d")]
    assert vee.maximal_chains() == [("a", "c"), ("b", "c")]
    assert a2.maximal_chains() == [("a",), ("b",)]


def test_maximal_chains_are_maximal(fx):
    for p in fx.values():
        for chain in p.maximal_chains():
            members = set(chain)
            for extra in p.elements - members:
                assert not p.is_chain(members | {extra})


def test_maximal_chains_in_interval(b3, c3, yp):
    assert oracle.maximal_chains_in_interval(b3, "{}", "{1,2}") == [
        ("{}", "{1}", "{1,2}"),
        ("{}", "{2}", "{1,2}"),
    ]
    assert oracle.maximal_chains_in_interval(c3, "a", "c") == [("a", "b", "c")]
    assert oracle.maximal_chains_in_interval(c3, "b", "b") == [("b",)]
    with pytest.raises(NotComparable):
        oracle.maximal_chains_in_interval(yp, "c", "d")


def test_induced_subposet(b3, yp):
    q = oracle.induced_subposet(b3, ["{}", "{1}", "{1,2}"])
    assert q.covers == (("{1}", "{1,2}"), ("{}", "{1}"))
    r = oracle.induced_subposet(yp, {"c", "d"})
    assert r.relations() == ()
    assert oracle.induced_subposet(yp, yp.elements) == yp
    with pytest.raises(EmptySet):
        oracle.induced_subposet(yp, [])
    with pytest.raises(UnknownLabel):
        oracle.induced_subposet(yp, {"a", "zz"})


def test_opposite(c3, yp, a2):
    assert c3.opposite().covers == (("b", "a"), ("c", "b"))
    assert yp.opposite().covers == (("b", "a"), ("c", "b"), ("d", "b"))
    assert a2.opposite() == a2
    assert yp.opposite().opposite() == yp


def test_opposite_is_built_from_the_covers(b3, monkeypatch):
    # the covers and the order of the opposite are known, so building it
    # runs no closure, and its order masks wait for their first reader
    expected = Poset.from_relations(b3.labels,
                                    [(y, x) for x, y in b3.relations()])

    def closure(*args):
        raise AssertionError("opposite() closed the order again")

    monkeypatch.setattr(Poset, "__init__", closure)
    q = b3.opposite()
    assert q._above_masks is None and q._below_masks is None
    assert q == expected
    assert q.relations() == expected.relations()
    assert q.heights() == expected.heights()


def test_opposite_shares_the_cover_tables(fx, bowtie):
    # the two cover tables of the opposite are the two here, swapped
    for p in (*fx.values(), bowtie):
        q = p.opposite()
        assert q._ucov is p._dcov and q._dcov is p._ucov
        assert q.opposite()._ucov is p._ucov


def test_order_masks_are_read_through_their_properties():
    # one way to read a mask table: the property fills it on first read
    package = Path(veinprune.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert "_masks or" not in path.read_text(encoding="utf-8"), path.name


def test_meet_join(b3, vee, a2, c3):
    assert b3.meet("{1,2}", "{1,3}") == "{1}"
    assert b3.join("{1}", "{2}") == "{1,2}"
    assert b3.meet("{1}", "{1,2}") == "{1}"
    assert vee.meet("a", "b") is None
    assert vee.join("a", "b") == "c"
    assert a2.meet("a", "b") is None
    assert a2.join("a", "b") is None
    assert c3.meet("b", "b") == "b"


def test_meet_join_duality(fx):
    for p in fx.values():
        q = p.opposite()
        for a in p.elements:
            for b in p.elements:
                assert p.meet(a, b) == q.join(a, b)


def test_is_conditionally_complete(fx, bowtie):
    for p in fx.values():
        assert p.is_conditionally_complete()
    assert not bowtie.is_conditionally_complete()


def test_is_filtered_upset(yp, c3):
    assert oracle.is_filtered_upset(yp, {"b", "c", "d"})
    assert not oracle.is_filtered_upset(yp, {"c", "d"})
    assert not oracle.is_filtered_upset(yp, {"a"})  # not up-closed
    assert oracle.is_filtered_upset(c3, {"b", "c"})
    assert oracle.is_filtered_upset(yp, frozenset())


def test_heights(c3, b3):
    assert c3.heights() == {"a": 0, "b": 1, "c": 2}
    hb = b3.heights()
    assert hb["{}"] == 0 and hb["{1,2,3}"] == 3
    assert all(hb[x] == len(x.strip("{}").split(",")) if x != "{}" else hb[x] == 0
               for x in b3.elements)


def test_membership_and_iteration(yp):
    assert "b" in yp
    assert "zz" not in yp
    assert list(yp) == ["a", "b", "c", "d"]
