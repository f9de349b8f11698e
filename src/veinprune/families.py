"""Poset generators, named fixtures, and seeded corpora.

Randomness is driven by ``random.Random`` (the Mersenne Twister), which is
portable and stable across platforms and Python versions, so a builder
called with the same size and seed always yields a bit-for-bit identical
poset. Random posets draw each pair (i, j) with i < j in a fixed element
order as a Bernoulli edge and take the transitive closure; the result is
acyclic by construction.

A sparse random poset (edge probability at most 2**-8) reads the same
generator outputs in 512 KB blocks instead of one ``random()`` call per
pair, and gets the same edges: ``random_poset`` says why the two draws
agree.

Each builder checks its own input and raises InvalidSpec: no size may be
negative, a random poset needs at least one element and an edge
probability in [0, 1], a corpus a largest size of at least one, and the
Boolean and down-set lattices are capped.
"""

from __future__ import annotations

import math
import random
import string

from .errors import InvalidSpec
from .poset import Poset, _bits

FIXTURE_NAMES = ("C3", "Yp", "Vee", "B3", "A2")

_MAX_BOOLEAN = 10
_MAX_DOWNSET_BASE = 10

# draws per getrandbits call: 2**16 draws of 64 bits, 512 KB
_BLOCK = 1 << 16
# the largest limit drawn in blocks, that of edge probability 2**-8
_SPARSE_LIMIT = 1 << 45


def _check_size(n: int) -> None:
    if n < 0:
        raise InvalidSpec(f"size must not be negative, got {n}")


def _labels_for(n: int) -> list[str]:
    _check_size(n)
    if n <= 26:
        return list(string.ascii_lowercase[:n])
    width = len(str(n - 1))
    return [f"e{i:0{width}d}" for i in range(n)]


def chain_poset(n: int) -> Poset:
    labels = _labels_for(n)
    return Poset.from_relations(labels, list(zip(labels, labels[1:])))


def antichain_poset(n: int) -> Poset:
    return Poset.from_relations(_labels_for(n), [])


def fence_poset(n: int) -> Poset:
    """Zigzag: a < b > c < d > ..."""
    labels = _labels_for(n)
    pairs = []
    for i in range(n - 1):
        if i % 2 == 0:
            pairs.append((labels[i], labels[i + 1]))
        else:
            pairs.append((labels[i + 1], labels[i]))
    return Poset.from_relations(labels, pairs)


def boolean_poset(k: int) -> Poset:
    """The power set of {1, ..., k} ordered by inclusion.

    Subset m, a mask below 2**k, holds i + 1 for each set bit i, and is
    covered by m with one more bit set.
    """
    _check_size(k)
    if k > _MAX_BOOLEAN:
        raise InvalidSpec(f"boolean size {k} exceeds the cap {_MAX_BOOLEAN}")
    labels = ["{" + ",".join(str(i + 1) for i in _bits(m)) + "}"
              for m in range(1 << k)]
    return Poset.from_relations(labels, [
        (labels[m], labels[m | 1 << i])
        for m in range(1 << k) for i in range(k) if not m >> i & 1])


def random_poset(size: int, seed: int = 0, edge_prob: float = 0.3) -> Poset:
    """Bernoulli upper-triangular random poset, deterministic in the seed.

    Pair (i, j), i < j, taken row by row, is an edge when its
    ``rng.random()`` draw falls below ``edge_prob``. CPython builds that
    draw from two 32-bit Mersenne Twister outputs a, b as the 53-bit
    numerator ``(a >> 5) << 26 | b >> 6`` over 2**53, so it falls below
    ``edge_prob`` exactly when the numerator falls below ``limit =
    ceil(edge_prob * 2**53)`` (the product is exact). ``getrandbits(64 *
    m)`` returns the same 2m outputs, first output in the lowest word, so
    for ``limit <= 2**45`` (edge_prob at most 2**-8) ``_sparse_pairs``
    draws whole blocks and decodes only the draws whose a is below 2**24,
    about one in 256. Denser posets keep one ``random()`` call per pair,
    which is faster there. Either way the poset is the one the per-pair
    loop gives.
    """
    if size < 1:
        raise InvalidSpec(f"size must be at least 1, got {size}")
    if not 0.0 <= edge_prob <= 1.0:
        raise InvalidSpec(f"edge_prob must lie in [0, 1], got {edge_prob}")
    rng = random.Random(seed)
    labels = _labels_for(size)
    limit = math.ceil(edge_prob * 2**53)
    if limit <= _SPARSE_LIMIT:
        return Poset.from_relations(labels, _sparse_pairs(rng, labels, limit))
    pairs = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < edge_prob:
                pairs.append((labels[i], labels[j]))
    return Poset.from_relations(labels, pairs)


def _sparse_pairs(rng: random.Random, labels: list[str],
                  limit: int) -> list[tuple[str, str]]:
    """The pairs whose 53-bit draw numerator is below ``limit`` <= 2**45.

    Draw t of a block is bytes 8t..8t+7 of its little-endian bytes: a in
    the low four, b in the high four. A numerator below 2**45 needs
    a < 2**24, a zero byte 8t+3, so only those draws are decoded.
    """
    size = len(labels)
    total = size * (size - 1) // 2
    pairs = []
    i, row_start, row_len = 0, 0, size - 1
    for start in range(0, total, _BLOCK):
        m = min(_BLOCK, total - start)
        raw = rng.getrandbits(m << 6).to_bytes(m << 3, "little")
        tops = raw[3::8]
        t = tops.find(0)
        while t >= 0:
            word = int.from_bytes(raw[8 * t:8 * t + 8], "little")
            if ((word & 0xFFFFFFFF) >> 5 << 26 | word >> 38) < limit:
                k = start + t
                while k >= row_start + row_len:
                    row_start += row_len
                    row_len -= 1
                    i += 1
                pairs.append((labels[i], labels[i + 1 + k - row_start]))
            t = tops.find(0, t + 1)
    return pairs


def downset_lattice(base_size: int, seed: int = 0) -> Poset:
    """The lattice of down-sets of a random base poset, by inclusion.

    The base poset is drawn with edge probability 0.5. Down-set lattices
    are conditionally complete (they are lattices), which makes this the
    corpus of choice for the preservation facts.
    """
    if base_size > _MAX_DOWNSET_BASE:
        raise InvalidSpec(
            f"base size {base_size} exceeds the cap {_MAX_DOWNSET_BASE}")
    base = random_poset(base_size, seed, edge_prob=0.5)
    n = len(base)
    below = base._below

    def label(mask: int) -> str:
        return "{" + ",".join(base.labels[i] for i in _bits(mask)) + "}"

    # grown from the empty down-set along the covers: D < D with x added,
    # for x outside D whose down-set D holds. Every nonempty down-set is
    # reached, from itself less one of its maximal elements.
    names = {0: label(0)}
    grown = [0]
    pairs = []
    for mask in grown:  # grown gets longer as the loop runs
        for x in range(n):
            if not mask >> x & 1 and not below[x] & ~mask:
                up = mask | 1 << x
                if up not in names:
                    names[up] = label(up)
                    grown.append(up)
                pairs.append((names[mask], names[up]))
    return Poset.from_relations(list(names.values()), pairs)


def fixtures() -> dict[str, Poset]:
    """The five named reference posets used throughout the test corpus."""
    return {
        "C3": chain_poset(3),
        "Yp": Poset.from_relations(
            ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("b", "d")]),
        "Vee": Poset.from_relations(
            ["a", "b", "c"], [("a", "c"), ("b", "c")]),
        "B3": boolean_poset(3),
        "A2": antichain_poset(2),
    }


def _corpus(build, count: int, top: int, seed: int, *args) -> list[Poset]:
    """``count`` posets ``build(size, s, *args)``: one generator, seeded
    by ``seed``, draws each size in [1, top] and then each 32-bit seed s."""
    rng = random.Random(seed)
    return [build(rng.randint(1, top), rng.getrandbits(32), *args)
            for _ in range(count)]


def random_corpus(count: int, max_size: int, seed: int,
                  edge_prob: float = 0.3) -> list[Poset]:
    """A reproducible list of random posets with sizes up to ``max_size``."""
    if max_size < 1:
        raise InvalidSpec(f"max_size must be at least 1, got {max_size}")
    return _corpus(random_poset, count, max_size, seed, edge_prob)


def downset_corpus(count: int, max_base_size: int, seed: int) -> list[Poset]:
    """A reproducible list of down-set lattices with small bases."""
    if max_base_size < 1:
        raise InvalidSpec(
            f"max_base_size must be at least 1, got {max_base_size}")
    return _corpus(downset_lattice, count, max_base_size, seed)
