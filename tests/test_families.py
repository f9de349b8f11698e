from __future__ import annotations

import math
import random
from itertools import combinations

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
from veinprune import families


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

    def label(s):
        return "{" + ",".join(map(str, sorted(s))) + "}"
    for k in range(9):  # the subsets of {1, ..., k} by inclusion
        subsets = [frozenset(c) for size in range(k + 1)
                   for c in combinations(range(1, k + 1), size)]
        covers = [(label(s), label(s | {i})) for s in subsets
                  for i in range(1, k + 1) if i not in s]
        p = boolean_poset(k)
        assert p.labels == tuple(sorted(map(label, subsets)))
        assert p.covers == tuple(sorted(covers))


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


def _coin_poset(size, seed, edge_prob):
    """The reference: one ``random()`` coin per pair (i, j), i < j, by row."""
    rng = random.Random(seed)
    labels = antichain_poset(size).labels
    pairs = [(labels[i], labels[j])
             for i in range(size) for j in range(i + 1, size)
             if rng.random() < edge_prob]
    return Poset.from_relations(labels, pairs)


# the sparse side draws in blocks, the dense side coin by coin
SPARSE_PROBS = (0.0, 1e-300, 2**-9, 0.001, 2**-8)
DENSE_PROBS = (math.nextafter(2**-8, 1), 0.3, 1.0)


def test_random_poset_equals_the_coin_loop():
    def same(size, seed, prob):
        p, q = random_poset(size, seed, prob), _coin_poset(size, seed, prob)
        assert p == q and p.labels == q.labels, (size, seed, prob)

    for prob in SPARSE_PROBS + DENSE_PROBS:
        for size in range(1, 41):
            for seed in range(3):
                same(size, seed, prob)
    # 65,341 and 65,703 pairs: within one 65,536-draw block and past it
    for size in (362, 363):
        for seed in range(3):
            same(size, seed, 0.001)
    same(1500, 4, 0.001)  # 18 blocks
    # edge probabilities equal to a draw, where the draw is no edge, and
    # just above it, where it is one: the decode must be exact
    rng = random.Random(5)
    for draw in sorted(rng.random() for _ in range(40 * 39 // 2))[:8]:
        for prob in (draw, math.nextafter(draw, 1)):
            same(40, 5, prob)


def test_random_poset_draw_counts(monkeypatch):
    made = []

    class Counting(random.Random):
        def __init__(self, seed):
            self.calls = self.bits = 0
            super().__init__(seed)
            made.append(self)

        def random(self):
            self.calls += 1
            return super().random()

        def getrandbits(self, k):
            self.bits += k
            return super().getrandbits(k)

    monkeypatch.setattr(families.random, "Random", Counting)
    for size in (1, 2, 40, 363):
        pairs = size * (size - 1) // 2
        for prob in SPARSE_PROBS + DENSE_PROBS:
            made.clear()
            random_poset(size, 1, prob)
            (rng,) = made
            if prob in SPARSE_PROBS:
                assert (rng.calls, rng.bits) == (0, 64 * pairs), (size, prob)
            else:
                assert rng.calls == pairs, (size, prob)


def _all_pairs_lattice(base_size, seed):
    """The down-set lattice handed every inclusion pair: the reference."""
    base = random_poset(base_size, seed, edge_prob=0.5)
    below = base.relations()
    downs = []
    for mask in range(1 << base_size):
        members = {x for i, x in enumerate(base.labels) if mask >> i & 1}
        if all(x in members for x, y in below if y in members):
            downs.append(members)
    labels = ["{" + ",".join(x for x in base.labels if x in d) + "}"
              for d in downs]
    pairs = [(labels[a], labels[b])
             for a, da in enumerate(downs) for b, db in enumerate(downs)
             if da < db]
    return Poset.from_relations(labels, pairs)


def test_downset_lattice_equals_the_all_pairs_build():
    # every subset of the base is tested here; the builder grows only the
    # down-sets, from smaller ones
    for base_size in range(9):
        for seed in range(10):
            if base_size == 0:  # no base poset is drawn, by either build
                for build in (downset_lattice, _all_pairs_lattice):
                    with pytest.raises(InvalidSpec, match="got 0$"):
                        build(0, seed)
                continue
            p = downset_lattice(base_size, seed)
            q = _all_pairs_lattice(base_size, seed)
            assert p == q and p.labels == q.labels, (base_size, seed)


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
