"""The pruning order and its fixpoint iteration.

Write x <=* y when x = y, or when x < y and some maximal chain of the
interval [x, y] contains no strict vein of the ambient poset. This
relation is again a partial order (the pruning order), and pruning is
monotone (it only removes relations).

Pruning is idempotent, so :func:`iterate_prune` prunes once. The covers
of q = prune(p) are exactly the non-bridge covers of p
(:func:`pruning_witness`, fact 1). For a cover (a, b) of q, a bridge of p
leaving a or entering b would be (a, b) itself, so deleting the bridges
kept the upper covers of a and the lower covers of b, and (a, b) is no
bridge of q either. So q has no bridge edges, and prune(q) = q.

The fast route deletes the bridge edges from the cover digraph and takes
reachability: a maximal chain of [x, y] is a cover path from x to y, and
it contains a strict vein exactly when two consecutive entries form a
bridge edge. The pruned poset is assembled from p's two cover tables
with the bridge edges deleted, which are its covers, so it builds no
cover table of its own, and its order is filled only when a caller reads
it (a witness walk, ``removed_relations``); a poset without bridge edges
is its own pruning. The definition-level route lives in
:mod:`veinprune.oracle`; ``prune`` and ``iterate_prune`` reach it with
``mode="oracle"``. Either route yields the same pruned poset, and a pass
reports only that poset and the number of relations it removed. Witness
chains come from one place, :func:`pruning_witness`: a walk on the pruned
poset's covers, guided by its reachability.

This module holds only the fast route and the ``mode`` dispatch. The fast
pruned poset is an order by construction and is not checked again; the
oracle's relation, tested pair by pair, is checked where it is built, in
:func:`veinprune.oracle.pruned`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import oracle
from .errors import UnknownLabel
from .poset import Poset, _memoized
from .veins import _bridge_runs


class PruneWitness(NamedTuple):
    """A maximal chain of [x, y] containing no strict vein.

    A tuple record: immutable, it unpacks as ``x, y, chain`` and compares
    equal to the plain tuple of its fields.
    """

    x: str
    y: str
    chain: tuple[str, ...]


@dataclass
class PruneReport:
    """What a single pruning pass produced: the poset and its pruning.

    The witness chain of a pruned pair comes from :func:`pruning_witness`.
    """

    original: Poset
    pruned: Poset

    @property
    def removed_relations(self) -> int:
        """The number of strict pairs of ``original`` missing from ``pruned``.

        Computed on each read, from the order masks of both posets: a pass
        whose count nobody reads never fills the pruned poset's order.
        """
        return (sum(m.bit_count() for m in self.original._above)
                - sum(m.bit_count() for m in self.pruned._above))


@dataclass
class PruneIteration:
    """The sequence p, p*, p**, ... and where it stabilized."""

    posets: list[Poset]
    fixpoint_index: int | None


def _non_bridge_covers(p: Poset) -> tuple[list[tuple[int, ...]], ...]:
    """The upper and the lower cover tuples with every bridge edge deleted.

    In a bridge (i, j), j is the only upper cover of i and i the only
    lower cover of j, so deleting it leaves i with no upper cover and j
    with no lower one.
    """
    ups, downs = list(p._ucov), list(p._dcov)
    for run in _bridge_runs(p):
        for i, j in zip(run, run[1:]):
            ups[i] = downs[j] = ()
    return ups, downs


@_memoized
def _built_pruned(p: Poset) -> Poset | None:
    """The pruned poset, assembled from the non-bridge covers without a
    closure.

    They are its covers (:func:`pruning_witness`, fact 1), and deleting
    edges keeps p's successors-first order valid, so p's labels, index and
    order are shared. None when p has no bridge edge, so is its own
    pruning: storing p in its own memo would make a reference cycle, which
    keeps the poset alive until the collector's next full pass.
    """
    if not _bridge_runs(p):
        return None
    return Poset._from_covers(p._labels, p._index, *_non_bridge_covers(p),
                              p._order)


def _pruned(p: Poset) -> Poset:
    """The pruned poset of the fast route, built once per poset.

    An empty poset is falsy (``Poset.__len__``), hence the ``is None``.
    """
    q = _built_pruned(p)
    return p if q is None else q


def pruning_leq(p: Poset, x: str, y: str) -> bool:
    """True iff x <=* y in the pruning order.

    One memo read for the pruned poset (:func:`_pruned`, inlined), two
    index reads and one read of its order table.
    """
    q = _built_pruned(p)
    if q is None:
        q = p
    index = p._index
    try:
        ix, iy = index[x], index[y]
    except KeyError as missing:
        raise UnknownLabel(f"unknown label {missing.args[0]!r}") from None
    return ix == iy or q._above[ix] >> iy & 1 == 1


def pruning_witness(p: Poset, x: str, y: str) -> PruneWitness | None:
    """The least witness chain for x <* y, or None when x = y or x <* y fails.

    The witness is the lexicographically least maximal chain of [x, y]
    with no strict vein, found by a walk on the pruned poset q. Two
    facts about q make the walk exact:

    1. ``q._ucov`` holds exactly the non-bridge covers of p. A cover of p
       stays a cover in the smaller order of q, and every cover of q is
       one of the edges q was built from.
    2. ``q._below[iy]`` is the set of elements from which y is reachable
       along non-bridge covers, so x <* y exactly when it holds x.

    From x the walk steps to the lowest-index non-bridge upper cover from
    which y is still reachable (y itself, or a member of that mask), until
    it reaches y. Any such cover lies in [x, y], so no interval mask and
    no bridge set is needed. The oracle's depth-first search returns the
    same chain, because the reachability mask rejects exactly the branches
    on which that search would fail. The walk tests each upper cover of
    the chain's elements once; everything else a query does is constant:
    one memo read for q and two index reads, as in :func:`pruning_leq`.

    The witness is a :class:`PruneWitness` tuple record: it unpacks as
    ``x, y, chain`` and equals ``(x, y, chain)``; ``dataclasses.asdict``
    and ``dataclasses.replace`` do not apply to it.
    """
    q = _built_pruned(p)
    if q is None:
        q = p
    index = p._index
    try:
        ix, iy = index[x], index[y]
    except KeyError as missing:
        raise UnknownLabel(f"unknown label {missing.args[0]!r}") from None
    below = q._below[iy]
    if not below >> ix & 1:
        return None  # x <* x never holds
    ucov, labels = q._ucov, q._labels
    chain = [x]
    i = ix
    while i != iy:
        for j in ucov[i]:
            if j == iy or below >> j & 1:
                break
        else:  # cannot happen: y is reachable from x and from every pick
            raise AssertionError("the witness walk lost its way")
        i = j
        chain.append(labels[j])
    return PruneWitness(x, y, tuple(chain))


def prune(p: Poset, mode: str = "fast") -> PruneReport:
    """One pruning pass: the poset whose strict order is x <* y.

    ``fast`` deletes the bridge edges and keeps the remaining covers, once
    per poset (:func:`_pruned`). ``oracle`` builds the poset in
    :func:`veinprune.oracle.pruned`, which tests every strict pair and
    raises InternalOrderViolation unless they form a strict order inside p.
    """
    if mode == "fast":
        pruned = _pruned(p)
    elif mode == "oracle":
        pruned = oracle.pruned(p)
    else:
        raise ValueError(f"mode must be 'fast' or 'oracle', got {mode!r}")
    return PruneReport(original=p, pruned=pruned)


def iterate_prune(p: Poset, max_iters: int = 4, mode: str = "fast") -> PruneIteration:
    """Prune until two consecutive posets agree, which takes one pass.

    Returns the whole sequence including the repeated entry, plus the
    index of the first poset equal to its successor: [p, p] and 0 when p
    is its own pruning, else [p, q, q] and 1, cut to ``max_iters`` passes
    (index None when the cap is hit first). An unknown ``mode`` raises
    ValueError even when ``max_iters`` is 0.

    Pruning deletes exactly the bridge edges, so p is its own pruning iff
    it has none; both routes build the same q, so the bridge runs decide
    the fixpoint without comparing q with p.
    """
    if mode not in ("fast", "oracle"):
        raise ValueError(f"mode must be 'fast' or 'oracle', got {mode!r}")
    if max_iters < 1:
        return PruneIteration(posets=[p], fixpoint_index=None)
    q = prune(p, mode).pruned
    if not _bridge_runs(p):
        return PruneIteration(posets=[p, q], fixpoint_index=0)
    if max_iters == 1:
        return PruneIteration(posets=[p, q], fixpoint_index=None)
    return PruneIteration(posets=[p, q, q], fixpoint_index=1)
