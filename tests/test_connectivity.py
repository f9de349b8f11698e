from __future__ import annotations

import pytest

import veinprune.connectivity
from veinprune import (
    EmptySet,
    MemberNotSubset,
    NotAConnectivity,
    SetFamily,
    TooLarge,
    UnknownLabel,
    oracle,
)
from veinprune.suite import vein_family


def fam(ground, members):
    return SetFamily(ground, members)


def test_members_canonical_and_deduped():
    f = fam("ab", [{"b"}, {"a"}, {"a", "b"}, {"a"}])
    assert f.members == (frozenset({"a"}), frozenset({"a", "b"}), frozenset({"b"}))
    assert len(f) == 3
    assert frozenset({"a"}) in f


def test_bad_members_rejected():
    with pytest.raises(EmptySet):
        fam("ab", [{"a"}, set()])
    with pytest.raises(MemberNotSubset):
        fam("ab", [{"a", "c"}])


def test_is_connectivity_basic():
    # singletons plus the whole ground set: overlapping unions stay inside
    f = fam("abc", [{"a"}, {"b"}, {"c"}, {"a", "b", "c"}])
    assert f.is_connectivity()
    # missing the union of two overlapping members
    g = fam("abc", [{"a", "b"}, {"b", "c"}])
    assert not g.is_connectivity()
    # fails to cover the ground set
    h = fam("abc", [{"a"}, {"b"}])
    assert not h.is_connectivity()


def test_is_connectivity_empty_family():
    # a connectivity needs at least one member, even over an empty ground set
    assert not fam("", []).is_connectivity()
    assert not fam("ab", []).is_connectivity()


def test_exhaustive_matches_binary():
    cases = [
        fam("abc", [{"a"}, {"b"}, {"c"}, {"a", "b", "c"}]),
        fam("abc", [{"a", "b"}, {"b", "c"}]),
        fam("ab", [{"a"}, {"b"}]),
        fam("abcd", [{"a"}, {"b"}, {"c"}, {"d"}, {"a", "b"}, {"c", "d"}]),
        fam("abcd", [{"a", "b"}, {"b", "c"}, {"c", "d"}]),
        fam("abc", [{"a"}, {"b"}, {"a", "b"}]),  # c lies in no member
    ]
    for f in cases:
        assert f.is_connectivity() == oracle.is_connectivity_exhaustive(f)


def test_exhaustive_guard():
    members = [{c} for c in "abcdefghijklmnopqrstu"]  # 21 members
    f = fam("abcdefghijklmnopqrstu", members)
    with pytest.raises(TooLarge):
        oracle.is_connectivity_exhaustive(f)
    assert oracle.is_connectivity_exhaustive(f, max_members=21)


def test_point_connected():
    f = fam("abc", [{"a"}, {"b"}, {"c"}, {"a", "b", "c"}])
    assert f.is_point_connected()
    g = fam("ab", [{"a", "b"}])  # connectivity, but {b} alone is missing
    assert g.is_connectivity()
    assert not g.is_point_connected()
    with pytest.raises(NotAConnectivity, match="not point connected"):
        g.components()
    assert repr(g) == "<SetFamily 2 points, 1 members>"
    bad = fam("abc", [{"a", "b"}, {"b", "c"}])
    with pytest.raises(NotAConnectivity):
        bad.is_point_connected()


def test_components_and_component_of(yp):
    f = vein_family(yp)
    assert f.is_point_connected()
    assert f.components() == [
        frozenset({"a", "b"}),
        frozenset({"c"}),
        frozenset({"d"}),
    ]
    assert f.component_of("a") == frozenset({"a", "b"})
    assert f.component_of("c") == frozenset({"c"})
    with pytest.raises(UnknownLabel):
        f.component_of("zz")


def test_components_partition(fx):
    for p in fx.values():
        f = vein_family(p)
        comps = f.components()
        seen = set()
        for comp in comps:
            assert not (seen & comp)
            seen |= comp
        assert seen == set(p.elements)


def test_connectivity_is_decided_once_per_family(monkeypatch):
    # is_point_connected and components both need a connectivity; the
    # quadratic pair scan behind that verdict runs for the first ask only
    scans = []
    real = veinprune.connectivity.combinations

    def counting(members, r):
        scans.append(r)
        return real(members, r)

    monkeypatch.setattr(veinprune.connectivity, "combinations", counting)
    f = fam("abc", [{"a"}, {"b"}, {"c"}, {"a", "b"}])
    assert f.is_connectivity()
    assert f.is_point_connected()
    assert f.components() == [frozenset("ab"), frozenset("c")]
    assert f.is_connectivity()
    assert scans == [2]
    # a failed verdict is kept too, and each method keeps its error
    h = fam("abc", [{"a", "b"}, {"b", "c"}])
    scans.clear()
    assert not h.is_connectivity()
    with pytest.raises(NotAConnectivity):
        h.is_point_connected()
    with pytest.raises(NotAConnectivity):
        h.components()
    assert scans == [2]
