"""The pruning order and its fixpoint iteration.

Write x <=* y when x = y, or when x < y and some maximal chain of the
interval [x, y] contains no strict vein of the ambient poset. This
relation is again a partial order (the pruning order), pruning is
monotone (it only removes relations), and on finite posets it reaches a
fixpoint after at most one step.

The fast route deletes the bridge edges from the cover digraph and takes
reachability: a maximal chain of [x, y] is a cover path from x to y, and
it contains a strict vein exactly when two consecutive entries form a
bridge edge. Witness chains come from a greedy ascent guided by that
reachability. The definition-level route lives in :mod:`veinprune.oracle`;
``prune`` and ``iterate_prune`` reach it with ``mode="oracle"``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from . import oracle
from .errors import InternalOrderViolation, PreconditionViolated
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
    """Everything a single pruning pass produced.

    ``witnesses`` maps each strict pruned pair (x, y) to a witness chain,
    computed on demand. ``fixpoint_reached_after`` is 0 when the poset was
    already a fixpoint and None otherwise (a single pass cannot tell more;
    see :func:`iterate_prune`).
    """

    original: Poset
    pruned: Poset
    witnesses: Mapping[tuple[str, str], PruneWitness]
    removed_relations: int
    fixpoint_reached_after: int | None


@dataclass
class PruneIteration:
    """The sequence p, p*, p**, ... and where it stabilized."""

    posets: list[Poset]
    fixpoint_index: int | None


@_memoized
def _star_above(p: Poset) -> tuple[int, ...]:
    """Strict pruning-order reachability masks (the fast route)."""
    adj = list(p._ucov)
    for i, j in _bridge_pairs_ix(p):
        adj[i] &= ~(1 << j)
    above = [0] * len(p)
    # maximal elements first, so successors are finished before their sources
    for i in sorted(range(len(p)), key=lambda k: p._above[k].bit_count()):
        acc = 0
        for j in _bits(adj[i]):
            acc |= (1 << j) | above[j]
        above[i] = acc
    return tuple(above)


def _greedy_clean_chain(p: Poset, ix: int, iy: int) -> tuple[int, ...] | None:
    """Lexicographically least maximal chain of [x, y] with no strict vein.

    A clean chain exists iff y is reachable from x along non-bridge
    covers, which ``_star_above`` records. From each element the ascent
    steps to the lowest-index non-bridge upper cover j from which y is
    still reachable (j = y, or y in ``_star_above[j]``). The oracle's
    depth-first search returns the same chain, because this reachability
    test rejects exactly the branches on which that search would fail.
    The ascent costs O(length x degree) and needs no recursion.
    """
    star = _star_above(p)
    if not star[ix] >> iy & 1:
        return None
    bridges = _bridge_pairs_ix(p)
    mask = p._interval_mask(ix, iy)
    chain = [ix]
    i = ix
    while i != iy:
        # some cover qualifies: i = x, or i was picked because y is
        # reachable from it along non-bridge covers
        i = next(j for j in _bits(p._ucov[i] & mask)
                 if (i, j) not in bridges and (j == iy or star[j] >> iy & 1))
        chain.append(i)
    return tuple(chain)


def pruning_leq(p: Poset, x: str, y: str) -> bool:
    """True iff x <=* y in the pruning order."""
    ix, iy = p._i(x), p._i(y)
    return ix == iy or bool(_star_above(p)[ix] >> iy & 1)


def pruning_witness(p: Poset, x: str, y: str) -> PruneWitness | None:
    """A witness chain for x <* y, or None when x = y or x <* y fails."""
    # x <* x never holds, so the ascent finds no chain for x = y
    seq = _greedy_clean_chain(p, p._i(x), p._i(y))
    if seq is None:
        return None
    return PruneWitness(x=x, y=y, chain=tuple(p._labels[k] for k in seq))


class _WitnessMap(Mapping):
    """Lazy map from strict pruned pairs to their witness chains."""

    def __init__(self, poset: Poset, pairs: Iterable[tuple[str, str]]):
        self._poset = poset
        self._witnesses = dict.fromkeys(pairs)  # filled in on first lookup

    def __getitem__(self, key: tuple[str, str]) -> PruneWitness:
        witness = self._witnesses[key]
        if witness is None:
            witness = pruning_witness(self._poset, key[0], key[1])
            assert witness is not None  # key is a pruned strict pair
            self._witnesses[key] = witness
        return witness

    def __iter__(self):
        return iter(self._witnesses)

    def __len__(self) -> int:
        return len(self._witnesses)


def _validate_strict_order(p: Poset, above: tuple[int, ...]) -> None:
    """Fail loudly unless the masks describe a strict partial order."""
    for i in range(len(above)):
        if above[i] >> i & 1:
            raise InternalOrderViolation(
                f"pruning produced a reflexive strict pair at {p._labels[i]!r}")
        for j in _bits(above[i]):
            if above[j] >> i & 1:
                raise InternalOrderViolation(
                    "pruning broke antisymmetry between "
                    f"{p._labels[i]!r} and {p._labels[j]!r}")
            if above[j] & ~above[i]:
                k = next(_bits(above[j] & ~above[i]))
                raise InternalOrderViolation(
                    "pruning broke transitivity: "
                    f"{p._labels[i]!r} <* {p._labels[j]!r} <* {p._labels[k]!r} "
                    f"but not {p._labels[i]!r} <* {p._labels[k]!r}")


def prune(p: Poset, mode: str = "fast") -> PruneReport:
    """One pruning pass: the poset whose strict order is x <* y.

    ``fast`` deletes the bridge edges and takes reachability; ``oracle``
    tests every strict pair through :mod:`veinprune.oracle`. Either way
    the witnesses come from the greedy ascent, which finds the oracle's
    chains. The computed relation is validated against the partial-order
    axioms and InternalOrderViolation is raised on any breach.
    """
    if mode == "fast":
        star = _star_above(p)
    elif mode == "oracle":
        star = oracle._star_above(p)
    else:
        raise ValueError(f"mode must be 'fast' or 'oracle', got {mode!r}")
    n = len(p)
    _validate_strict_order(p, star)
    pruned = Poset(p._labels, star)
    removed = (sum(m.bit_count() for m in p._above)
               - sum(m.bit_count() for m in star))
    pairs = sorted((p._labels[i], p._labels[j])
                   for i in range(n) for j in _bits(star[i]))
    return PruneReport(
        original=p,
        pruned=pruned,
        witnesses=_WitnessMap(p, pairs),
        removed_relations=removed,
        fixpoint_reached_after=0 if pruned == p else None,
    )


def iterate_prune(p: Poset, max_iters: int = 4, mode: str = "fast") -> PruneIteration:
    """Prune repeatedly until two consecutive posets agree.

    Returns the whole sequence including the repeated entry, plus the
    index of the first poset equal to its successor (None when the cap
    ``max_iters`` was hit first). Finite posets stabilize at index 0 or 1.
    """
    seq = [p]
    for _ in range(max_iters):
        nxt = prune(seq[-1], mode).pruned
        seq.append(nxt)
        if nxt == seq[-2]:
            return PruneIteration(posets=seq, fixpoint_index=len(seq) - 2)
    return PruneIteration(posets=seq, fixpoint_index=None)


# ----------------------------------------------------------------------
# lemma-level checks, used for regression testing the theory


def star_chain_check(p: Poset, x: str, y: str, chain: Iterable[str]) -> bool:
    """A witness chain is itself a chain for the pruning order.

    Precondition: ``chain`` is a maximal chain of [x, y] containing no
    strict vein of the ambient poset (PreconditionViolated otherwise).
    Returns True iff every pair of its elements is pruning-comparable.
    """
    seq = p.as_chain(chain)
    ix, iy = p._i(x), p._i(y)
    if seq[0] != x or seq[-1] != y:
        raise PreconditionViolated(
            f"the chain must run from {x!r} to {y!r}")
    for a, b in zip(seq, seq[1:]):
        if not p._ucov[p._i(a)] >> p._i(b) & 1:
            raise PreconditionViolated(
                f"{a!r} < {b!r} is not a cover, so the chain is not "
                "maximal in the interval")
    # a cover path contains a strict vein iff it crosses a bridge edge
    bridges = _bridge_pairs_ix(p)
    if any((p._i(a), p._i(b)) in bridges for a, b in zip(seq, seq[1:])):
        raise PreconditionViolated(
            "the chain contains a strict vein of the ambient poset")
    return all(pruning_leq(p, seq[i], seq[j])
               for i in range(len(seq)) for j in range(i + 1, len(seq)))


def cover_inheritance_check(p: Poset, x: str, y: str) -> bool:
    """Covers inside [x, y] inherit the pruning relation from x <* y.

    Precondition: x <* y with x != y (PreconditionViolated otherwise).
    Returns True iff x <* c for every cover c of x inside [x, y], and
    c <* y for every c covered by y inside [x, y].
    """
    ix, iy = p._i(x), p._i(y)
    if ix == iy or not pruning_leq(p, x, y):
        raise PreconditionViolated(
            f"{x!r} <* {y!r} with distinct endpoints is required")
    mask = p._interval_mask(ix, iy)
    for c in _bits(p._ucov[ix] & mask):
        if not pruning_leq(p, x, p._labels[c]):
            return False
    for c in _bits(p._dcov[iy] & mask):
        if not pruning_leq(p, p._labels[c], y):
            return False
    return True
