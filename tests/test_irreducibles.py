from __future__ import annotations

import pytest

import veinprune.irreducibles
import veinprune.pruning
from veinprune import (
    NotConditionallyComplete,
    Poset,
    coirreducibles,
    doubly_irreducibles,
    is_coirreducible,
    is_irreducible,
    preservation_report,
    profiles,
    prune,
)
from veinprune.cli import cli
from veinprune.irreducibles import irreducibles
from veinprune.oracle import is_irreducible_via_meet


def test_is_irreducible(c3, b3, yp):
    assert all(is_irreducible(c3, x) for x in c3.elements)
    assert is_irreducible(b3, "{1,2}")
    assert not is_irreducible(b3, "{}")
    assert not is_irreducible(b3, "{1}")  # upset {1,2},{1,3},{1,2,3} is not down-directed inside itself
    assert not is_irreducible(yp, "b")
    assert is_irreducible(yp, "a")


def test_maximal_elements_are_irreducible(fx):
    for p in fx.values():
        for x in p.maximal_elements():
            assert is_irreducible(p, x)
        for x in p.minimal_elements():
            assert is_coirreducible(p, x)


def test_is_coirreducible(b3, c3, vee):
    assert is_coirreducible(b3, "{1}")
    assert not is_coirreducible(b3, "{1,2}")
    assert all(is_coirreducible(c3, x) for x in c3.elements)
    assert not is_coirreducible(vee, "c")


def test_coirreducible_is_dual(fx):
    for p in fx.values():
        q = p.opposite()
        for x in p.elements:
            assert is_coirreducible(p, x) == is_irreducible(q, x)


def test_irreducibles_frozen(b3, yp, vee):
    assert irreducibles(b3) == ("{1,2,3}", "{1,2}", "{1,3}", "{2,3}")
    assert coirreducibles(b3) == ("{1}", "{2}", "{3}", "{}")
    assert irreducibles(yp) == ("a", "c", "d")
    assert coirreducibles(yp) == ("a", "b", "c", "d")
    assert irreducibles(vee) == ("a", "b", "c")
    assert coirreducibles(vee) == ("a", "b")


def test_doubly_irreducibles(b3, c3, a2):
    assert doubly_irreducibles(b3) == frozenset()
    assert doubly_irreducibles(c3) == frozenset("abc")
    assert doubly_irreducibles(a2) == frozenset("ab")


def test_profiles(yp):
    table = profiles(yp)
    assert set(table) == yp.elements
    assert table["b"].element == "b"
    assert table["b"].coirreducible and not table["b"].irreducible
    assert not table["b"].doubly
    assert table["a"].doubly


def test_is_irreducible_via_meet(b3, c3, bowtie):
    assert is_irreducible_via_meet(b3, "{1,2}")
    assert not is_irreducible_via_meet(b3, "{1}")  # {1} = {1,2} meet {1,3}
    assert is_irreducible_via_meet(c3, "b")
    with pytest.raises(NotConditionallyComplete):
        is_irreducible_via_meet(bowtie, "a")


def test_meet_characterization_on_fixtures(fx):
    # both routes must agree wherever the meet route applies
    for p in fx.values():
        assert p.is_conditionally_complete()
        for x in p.elements:
            assert is_irreducible_via_meet(p, x) == is_irreducible(p, x)


def test_preservation_report(c3, b3, yp):
    for p in (c3, b3, yp):
        rep = preservation_report(p)
        assert rep.preserved
        assert rep.original == p
        assert rep.pruned == prune(p).pruned


def test_preservation_needs_no_completeness(bowtie):
    assert not bowtie.is_conditionally_complete()
    assert preservation_report(bowtie).preserved


def test_pruning_can_lose_completeness():
    # e2 < e3 is the one strict vein. Pruned, e3 is minimal, so e4 and e6
    # have the incomparable lower bounds e0 and e3 and no meet.
    p = Poset.from_relations(
        [f"e{i}" for i in range(7)],
        [("e0", "e1"), ("e0", "e2"), ("e0", "e5"), ("e1", "e4"),
         ("e2", "e3"), ("e3", "e4"), ("e3", "e6"), ("e5", "e6")])
    pruned = prune(p).pruned
    assert p.is_conditionally_complete()
    assert not pruned.is_conditionally_complete()
    assert profiles(pruned) == profiles(p)
    assert not is_irreducible_via_meet(p, "e3")  # e3 = meet(e4, e6)
    with pytest.raises(NotConditionallyComplete):
        is_irreducible_via_meet(pruned, "e3")


def test_irr_states_preservation_without_pruning(tmp_path, monkeypatch,
                                                 capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("irr pruned the poset")
    monkeypatch.setattr(veinprune.irreducibles, "prune", boom)
    # every fast pruning, from any module, builds its poset here
    monkeypatch.setattr(veinprune.pruning, "_built_pruned", boom)
    path = tmp_path / "yp.txt"
    path.write_text("a < b\nb < c\nb < d\n")
    assert cli(["irr", str(path)]) == 0
    assert "preserved under pruning: yes" in capsys.readouterr().out


def test_profiles_stable_under_pruning(fx):
    for p in fx.values():
        assert profiles(prune(p).pruned) == profiles(p)


def test_profile_is_an_immutable_tuple_record(yp):
    entry = profiles(yp)["b"]
    assert entry._fields == ("element", "irreducible", "coirreducible")
    assert entry == ("b", False, True)
    element, *flags = entry
    assert element == "b" and flags == [False, True]
    assert not entry.doubly and profiles(yp)["c"].doubly
    assert repr(entry) == ("IrreducibilityProfile(element='b', "
                           "irreducible=False, coirreducible=True)")
    with pytest.raises(AttributeError):
        entry.irreducible = True
