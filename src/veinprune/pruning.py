"""The pruning order and its fixpoint iteration.

Write x <=* y when x = y, or when x < y and some maximal chain of the
interval [x, y] contains no strict vein of the ambient poset. This
relation is again a partial order (the pruning order), pruning is
monotone (it only removes relations), and on finite posets it reaches a
fixpoint after at most one step.

The fast route deletes the bridge edges from the cover digraph and takes
reachability: a maximal chain of [x, y] is a cover path from x to y, and
it contains a strict vein exactly when two consecutive entries form a
bridge edge. The pruned poset is closed once from the non-bridge covers,
and a poset without bridge edges is its own pruning. The definition-level
route lives in :mod:`veinprune.oracle`; ``prune`` and ``iterate_prune``
reach it with ``mode="oracle"``. Either route yields the same pruned
poset, and a pass reports only that poset and the number of relations it
removed. Witness chains come from one place, :func:`pruning_witness`: a
mask walk on the pruned poset's covers, guided by its reachability.

Every pass validates its relation in O(n + edges) mask operations: it
must lie inside the order of the poset and be generated by its edges (the
non-bridge covers, or the relation itself for the oracle), which makes it
a strict partial order; see :func:`_validate_strict_order`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from . import oracle
from .errors import InternalOrderViolation
from .poset import Poset, _bits, _memoized
from .veins import _bridge_pairs_ix


@dataclass(frozen=True)
class PruneWitness:
    """A maximal chain of [x, y] containing no strict vein."""

    x: str
    y: str
    chain: tuple[str, ...]


@dataclass
class PruneReport:
    """What a single pruning pass produced.

    ``removed_relations`` counts the strict pairs of ``original`` missing
    from ``pruned``. The witness chain of a pruned pair comes from
    :func:`pruning_witness`.
    """

    original: Poset
    pruned: Poset
    removed_relations: int


@dataclass
class PruneIteration:
    """The sequence p, p*, p**, ... and where it stabilized."""

    posets: list[Poset]
    fixpoint_index: int | None


def _non_bridge_covers(p: Poset) -> list[int]:
    """The cover masks with every bridge edge deleted."""
    adj = list(p._ucov)
    for i, j in _bridge_pairs_ix(p):
        adj[i] &= ~(1 << j)
    return adj


@_memoized
def _built_pruned(p: Poset) -> Poset | None:
    """The pruned poset when p has bridge edges, None when it has none.

    None marks a poset that prunes to itself. Storing p in its own memo
    instead would make a reference cycle, which keeps the poset alive until
    the collector's next full pass.
    """
    if _bridge_pairs_ix(p):
        return Poset(p._labels, _non_bridge_covers(p))
    return None


def _pruned(p: Poset) -> Poset:
    """The pruned poset of the fast route, closed from the non-bridge covers.

    Built once per poset. A poset without bridge edges is its own pruning,
    since its non-bridge covers are all its covers; it is returned as is.
    """
    q = _built_pruned(p)
    return p if q is None else q


def _star_above(p: Poset) -> tuple[int, ...]:
    """Strict pruning-order reachability masks (the fast route)."""
    return _pruned(p)._above


def pruning_leq(p: Poset, x: str, y: str) -> bool:
    """True iff x <=* y in the pruning order."""
    ix, iy = p._i(x), p._i(y)
    return ix == iy or bool(_star_above(p)[ix] >> iy & 1)


def pruning_witness(p: Poset, x: str, y: str) -> PruneWitness | None:
    """The least witness chain for x <* y, or None when x = y or x <* y fails.

    The witness is the lexicographically least maximal chain of [x, y]
    with no strict vein, found by a mask walk on the pruned poset q. Two
    facts about q make the walk exact:

    1. ``q._ucov`` holds exactly the non-bridge covers of p. A cover of p
       stays a cover in the smaller order of q, and every cover of q is
       one of the edges q was built from.
    2. ``q._below[iy]`` is the set of elements from which y is reachable
       along non-bridge covers.

    From x the walk steps to the lowest-index non-bridge upper cover from
    which y is still reachable, until it reaches y. Any such cover lies
    in [x, y], so no interval mask and no bridge set is needed. The
    oracle's depth-first search returns the same chain, because the
    reachability mask rejects exactly the branches on which that search
    would fail. The walk costs O(length) mask operations.
    """
    q = _pruned(p)
    ix, iy = p._i(x), p._i(y)
    if not q._above[ix] >> iy & 1:
        return None  # x <* x never holds
    reach = q._below[iy] | 1 << iy
    chain = [x]
    i = ix
    while i != iy:
        c = q._ucov[i] & reach
        # nonempty: i = x, or i was picked because y is reachable from it
        assert c, "the witness walk lost its way"
        i = (c & -c).bit_length() - 1
        chain.append(q._labels[i])
    return PruneWitness(x=x, y=y, chain=tuple(chain))


def _validate_strict_order(p: Poset, star: tuple[int, ...],
                           gen: Sequence[int]) -> None:
    """Fail loudly unless ``star`` is a strict partial order.

    ``star[i]`` is the mask of elements pruning-above element i, and
    ``gen`` is a set of edges that should generate it. Two checks, in
    O(n + edges) mask operations, raise InternalOrderViolation:

    1. ``star[i]`` is a subset of ``p._above[i]``. The order of p is
       irreflexive and acyclic, so star is too.
    2. ``star[i]`` equals the union of {g} and ``star[g]`` over g in
       ``gen[i]``. Given 1, star is then transitive: star[j] lies within
       star[i] for every j in star[i]. By induction on i from the top of
       p (a maximal i has empty star[i]): j lies in {g} or star[g] for
       some g in gen[i], and star[g] is within star[i] by 2. If j = g
       that is the claim. Otherwise g, which lies in star[i] by 2, is
       above i in p by 1, so star[j] is within star[g] by induction.

    The oracle route passes ``gen = star``, which makes 2 the plain
    transitivity test.
    """
    labels = p._labels
    for i, (row, above) in enumerate(zip(star, p._above)):
        if row & ~above:
            j = next(_bits(row & ~above))
            if j == i:
                raise InternalOrderViolation(
                    f"pruning produced a reflexive strict pair at {labels[i]!r}")
            raise InternalOrderViolation(
                f"pruning produced {labels[i]!r} <* {labels[j]!r}, "
                "which the poset lacks")
    for i, row in enumerate(star):
        acc = gen[i]
        for g in _bits(gen[i]):
            acc |= star[g]
        if acc == row:
            continue
        for g in _bits(gen[i]):
            k = next(_bits(((1 << g) | star[g]) & ~row), None)
            if k == g:
                raise InternalOrderViolation(
                    "pruning dropped its generating pair "
                    f"{labels[i]!r} <* {labels[g]!r}")
            if k is not None:
                raise InternalOrderViolation(
                    "pruning broke transitivity: "
                    f"{labels[i]!r} <* {labels[g]!r} <* {labels[k]!r} "
                    f"but not {labels[i]!r} <* {labels[k]!r}")
        k = next(_bits(row & ~acc))
        raise InternalOrderViolation(
            f"pruning produced {labels[i]!r} <* {labels[k]!r}, "
            "which its generating pairs do not imply")




def prune(p: Poset, mode: str = "fast") -> PruneReport:
    """One pruning pass: the poset whose strict order is x <* y.

    ``fast`` deletes the bridge edges and takes reachability; its pruned
    poset is built once per poset, from the non-bridge covers, and a
    poset without bridge edges is returned as its own pruning. ``oracle``
    tests every strict pair through :mod:`veinprune.oracle`. Either way
    the computed relation is validated as a strict partial order, and
    InternalOrderViolation is raised on any breach. Witness chains come
    from :func:`pruning_witness`.
    """
    if mode == "fast":
        star = _star_above(p)
        _validate_strict_order(p, star, _non_bridge_covers(p))
        pruned = _pruned(p)
    elif mode == "oracle":
        star = oracle._star_above(p)
        _validate_strict_order(p, star, star)
        pruned = Poset(p._labels, star)
    else:
        raise ValueError(f"mode must be 'fast' or 'oracle', got {mode!r}")
    removed = (sum(m.bit_count() for m in p._above)
               - sum(m.bit_count() for m in star))
    return PruneReport(original=p, pruned=pruned, removed_relations=removed)


def iterate_prune(p: Poset, max_iters: int = 4, mode: str = "fast") -> PruneIteration:
    """Prune repeatedly until two consecutive posets agree.

    Returns the whole sequence including the repeated entry, plus the
    index of the first poset equal to its successor (None when the cap
    ``max_iters`` was hit first). Finite posets stabilize at index 0 or 1.
    An unknown ``mode`` raises ValueError even when ``max_iters`` is 0.
    """
    if mode not in ("fast", "oracle"):
        raise ValueError(f"mode must be 'fast' or 'oracle', got {mode!r}")
    seq = [p]
    for _ in range(max_iters):
        nxt = prune(seq[-1], mode).pruned
        seq.append(nxt)
        if nxt == seq[-2]:
            return PruneIteration(posets=seq, fixpoint_index=len(seq) - 2)
    return PruneIteration(posets=seq, fixpoint_index=None)
