from __future__ import annotations

import pytest

from veinprune import (
    InvalidSpec,
    Poset,
    antichain_poset,
    boolean_poset,
    chain_poset,
    downset_corpus,
    downset_lattice,
    fence_poset,
    fixtures,
    random_corpus,
    random_poset,
)


def test_chain_poset():
    p = chain_poset(4)
    assert p.labels == ("a", "b", "c", "d")
    assert p.covers == (("a", "b"), ("b", "c"), ("c", "d"))
    assert chain_poset(1).covers == ()
    # the builders allow the empty poset; `veinprune gen` asks for size 1
    assert len(chain_poset(0)) == 0


def test_antichain_poset():
    p = antichain_poset(3)
    assert p.labels == ("a", "b", "c")
    assert p.relations() == ()


def test_fence_poset():
    assert fence_poset(4).covers == (("a", "b"), ("c", "b"), ("c", "d"))
    assert fence_poset(5).covers == (
        ("a", "b"), ("c", "b"), ("c", "d"), ("e", "d")
    )
    assert fence_poset(1) == antichain_poset(1)


def test_boolean_poset(b3):
    assert boolean_poset(3) == b3
    p2 = boolean_poset(2)
    assert len(p2) == 4
    assert len(p2.covers) == 4
    assert boolean_poset(0).labels == ("{}",)
    with pytest.raises(InvalidSpec):
        boolean_poset(11)  # capped to keep sizes sane


def test_random_poset_deterministic():
    a = random_poset(8, seed=7)
    b = random_poset(8, seed=7)
    assert a == b
    assert len(a) == 8
    assert a != random_poset(8, seed=8) or a.relations() == ()
    assert random_poset(8) == random_poset(8, seed=0, edge_prob=0.3)
    with pytest.raises(InvalidSpec):
        random_poset(0, seed=1)
    with pytest.raises(InvalidSpec):
        random_poset(3, seed=1, edge_prob=1.5)


def test_random_poset_is_valid():
    for seed in range(20):
        p = random_poset(6, seed=seed)
        # rebuilding from the closure must reproduce the poset exactly
        assert Poset.from_relations(p.labels, p.relations()) == p


def test_downset_lattice():
    p = downset_lattice(3, seed=5)
    assert p.is_conditionally_complete()
    assert downset_lattice(3, seed=5) == p
    assert downset_lattice(3) == downset_lattice(3, seed=0)
    # downsets are closed under union and intersection, so extremes exist
    assert len(p.minimal_elements()) == 1
    assert len(p.maximal_elements()) == 1
    with pytest.raises(InvalidSpec):
        downset_lattice(11, seed=0)


def test_builders_reject_negative_sizes():
    # unchecked, a negative size would slice the alphabet from its end
    # (chain_poset(-1) would have 25 elements, boolean_poset(-1) none)
    for build in (chain_poset, antichain_poset, fence_poset, boolean_poset,
                  random_poset, downset_lattice):
        for size in (-1, -5):
            with pytest.raises(InvalidSpec, match=f"got {size}$"):
                build(size)
    for build in (chain_poset, antichain_poset, fence_poset):
        assert len(build(0)) == 0


def test_fixtures(c3, yp):
    fx = fixtures()
    assert set(fx) == {"C3", "Yp", "Vee", "B3", "A2"}
    assert fx["C3"] == chain_poset(3)
    assert fx["Yp"] == yp and fx["C3"] == c3
    assert fx["A2"] == antichain_poset(2)


def test_random_corpus():
    corpus = random_corpus(30, 10, seed=4)
    assert len(corpus) == 30
    assert all(1 <= len(p) <= 10 for p in corpus)
    assert corpus == random_corpus(30, 10, seed=4)
    assert corpus != random_corpus(30, 10, seed=5)


def test_downset_corpus():
    corpus = downset_corpus(10, 5, seed=4)
    assert len(corpus) == 10
    assert corpus == downset_corpus(10, 5, seed=4)
    assert all(p.is_conditionally_complete() for p in corpus)


def test_corpora_reject_an_empty_size_range():
    for build in (random_corpus, downset_corpus):
        for largest in (0, -2):
            with pytest.raises(InvalidSpec, match=f"at least 1, got {largest}"):
                build(3, largest, 1)
