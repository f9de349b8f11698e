"""The definition-level route: veins and the pruning order from chains.

Chain irreducibility, veins, strict veins and the pruning order are
computed literally, by walking cover paths and testing each against the
maximal chains or the strict veins. Exponential by design, and
independent of the fast bridge-edge route in :mod:`veinprune.veins` and
:mod:`veinprune.pruning`, which is checked against it. Nothing makes a
relation tested pair by pair an order, so :func:`pruned` checks that the
pruning relation is a strict order inside the poset before building it;
``prune(p, mode="oracle")`` calls it.

Labels are mapped to indices once, where a public function takes its
arguments, and back once, where it returns its result. In between, a
chain is an index mask, tested against the index masks of the maximal
chains, which come from the poset's one memoized walk of its cover paths
(:meth:`Poset.maximal_chains` labels the same walk):

- irreducible: every maximal chain mask that meets the chain mask
  contains it (:func:`_irreducible`);
- convex, for a chain: the chain is the whole interval between its least
  and its greatest element, since any z with x <= z <= y for members x
  and y lies in that interval (:func:`_is_vein_path`).

The tables are read once per batch of tests, not once per test: a walk
over many paths (the strict veins, every chain) or one witness search
reads ``_above``, ``_below`` and the memoized maximal chain or strict
vein masks once, and hands them to :func:`_irreducible`,
:func:`_is_vein_path` and :func:`_covering_form`, which read nothing
themselves. A public function reads them once per call. The suite's
checks call these index-level pieces directly, one poset at a time.

The exhaustive cross-checks live here too: every chain and the
irreducible-chain family, the covering form of chain irreducibility, the
subfamily form of the connectivity axiom, and the filter definition and
meet characterization of irreducibility. The meet characterization scans
every pair with a common lower bound, so it also decides conditional
completeness by a route of its own. The module imports only
:mod:`veinprune.poset`, :mod:`veinprune.connectivity` and
:mod:`veinprune.errors`, so it never depends on the route it checks.

The maximal chains of an interval are the cover paths from its least
element, inside its mask, that end at its greatest.
:func:`_interval_paths` lists them for :func:`maximal_chains_in_interval`,
the suite and the witness search, :func:`_clean_chain_ix`, which stops at
the first one without a strict vein. :func:`maximal_chains_in_interval`
and :func:`induced_subposet` have no reader in the fast route, so they
live here rather than on :class:`Poset`.

Each walk below starts from the elements in index order and follows
ascending successor lists, in preorder, so it lists its index paths in
lexicographic order; labels are sorted, so that is the order of the
label tuples too, and no result needs a sort of its own.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .connectivity import SetFamily
from .errors import (EmptySet, InternalOrderViolation, NotAChain,
                     NotComparable, NotConditionallyComplete, TooLarge)
from .poset import Poset, _bits, _dfs_paths, _greatest, _interval, _memoized


def _mask_of(path: Iterable[int]) -> int:
    mask = 0
    for k in path:
        mask |= 1 << k
    return mask


def _labelled(p: Poset, paths: Iterable[Iterable[int]]) -> list[tuple[str, ...]]:
    labels = p._labels
    return [tuple(labels[k] for k in path) for path in paths]


@_memoized
def _maximal_chain_masks(p: Poset) -> tuple[int, ...]:
    """The maximal chains as masks, from the poset's one walk of them."""
    return tuple(map(_mask_of, p._maximal_chain_paths()))


def _irreducible(masks: Sequence[int], cm: int) -> bool:
    """True iff every maximal chain mask in ``masks`` that meets the chain
    mask ``cm`` contains it."""
    for m in masks:
        if cm & m and cm & ~m:
            return False
    return True


def _is_vein_path(above: Sequence[int], below: Sequence[int],
                  masks: Sequence[int], path: Sequence[int]) -> bool:
    """True iff the chain ``path``, ascending indices, is a convex
    irreducible chain of the poset with the order tables ``above`` and
    ``below`` and the maximal chain masks ``masks``."""
    cm = _mask_of(path)
    return (_interval(above, below, path[0], path[-1]) == cm
            and _irreducible(masks, cm))


def is_irreducible_chain(p: Poset, subset: Iterable[str]) -> bool:
    """True iff every maximal chain meeting the chain contains it.

    The subset must be a nonempty chain (NotAChain / EmptySet otherwise).
    """
    return _irreducible(_maximal_chain_masks(p), _mask_of(p._chain_ix(subset)))


def is_vein(p: Poset, subset: Iterable[str]) -> bool:
    """True iff the nonempty subset is a convex irreducible chain."""
    members = set(subset)
    if not members:
        raise EmptySet("a vein is a nonempty chain")
    try:
        path = p._chain_ix(members)
    except NotAChain:
        return False
    return _is_vein_path(p._above, p._below, _maximal_chain_masks(p), path)


@_memoized
def _strict_vein_paths(p: Poset) -> tuple[tuple[int, ...], ...]:
    ucov, above, below = p._ucov, p._above, p._below
    masks = _maximal_chain_masks(p)
    return tuple(tuple(path) for i in range(len(p))
                 for path in _dfs_paths(i, ucov)
                 if len(path) > 1
                 and _is_vein_path(above, below, masks, path))


def strict_veins(p: Poset) -> list[tuple[str, ...]]:
    """All veins with at least two elements, ascending, sorted.

    Convex chains are saturated, so these are the convex irreducible
    cover paths.
    """
    return _labelled(p, _strict_vein_paths(p))


@_memoized
def _strict_vein_masks(p: Poset) -> tuple[int, ...]:
    return tuple(map(_mask_of, _strict_vein_paths(p)))


def _interval_paths(ucov: Sequence[Sequence[int]], ix: int, iy: int,
                    within: int) -> Iterator[list[int]]:
    """The maximal chains of [x, y] as index paths, in lexicographic order.

    Intervals are convex, so these are the cover paths ``ucov`` from x to
    y inside the interval mask ``within`` (none unless x <= y). The
    caller reads the tables, once per batch of intervals. The same list
    is yielded every time; copy what you keep.
    """
    for path in _dfs_paths(ix, ucov, within):
        if path[-1] == iy:
            yield path


def maximal_chains_in_interval(p: Poset, x: str,
                               y: str) -> list[tuple[str, ...]]:
    """All maximal chains of [x, y], ascending, lexicographic order.

    Each is saturated in the whole poset. Raises NotComparable unless
    x <= y.
    """
    ix, iy = p._i(x), p._i(y)
    if ix != iy and not p._above[ix] >> iy & 1:
        raise NotComparable(f"{x!r} <= {y!r} does not hold")
    return _labelled(p, _interval_paths(p._ucov, ix, iy,
                                        p._interval_mask(ix, iy)))


def _clean_chain_ix(p: Poset, ix: int, iy: int) -> tuple[int, ...] | None:
    """Lexicographically least maximal chain of [x, y] with no strict vein.

    None unless x < y. The maximal chains of [x, y] are walked, by
    :func:`_interval_paths`, up to the first one that contains no strict
    vein. Each table, and the vein masks, is read once per call.
    """
    above = p._above
    if not above[ix] >> iy & 1:
        return None
    veins = _strict_vein_masks(p)
    within = _interval(above, p._below, ix, iy)
    for path in _interval_paths(p._ucov, ix, iy, within):
        cm = _mask_of(path)
        for v in veins:
            if not v & ~cm:
                break
        else:
            return tuple(path)
    return None


def clean_chain(p: Poset, x: str, y: str) -> tuple[str, ...] | None:
    """The least witness chain for x <* y; None if x = y or x <* y fails."""
    seq = _clean_chain_ix(p, p._i(x), p._i(y))
    return None if seq is None else tuple(p._labels[k] for k in seq)


def pruning_leq(p: Poset, x: str, y: str) -> bool:
    """True iff x <=* y in the pruning order."""
    ix, iy = p._i(x), p._i(y)
    return ix == iy or _clean_chain_ix(p, ix, iy) is not None


def _star_above(p: Poset) -> tuple[int, ...]:
    """Strict pruning-order masks: bit j of entry i is set iff i <* j."""
    return tuple(sum(1 << j for j in _bits(up)
                     if _clean_chain_ix(p, i, j) is not None)
                 for i, up in enumerate(p._above))


def pruned(p: Poset) -> Poset:
    """The pruned poset of the oracle route, built once its relation is checked.

    Two checks, in O(n + relations) mask operations, raise
    InternalOrderViolation:

    1. ``star[i]`` is a subset of ``p._above[i]``. The order of p is
       irreflexive and acyclic, so star is too, and a cyclic relation
       never reaches the Poset constructor as a CycleDetected.
    2. ``star[g]`` is a subset of ``star[i]`` for every g in ``star[i]``:
       star is transitive, so closing it adds nothing.
    """
    star = _star_above(p)
    labels = p._labels
    for i, (row, above) in enumerate(zip(star, p._above)):
        if row & ~above:
            j = _bits(row & ~above)[0]
            if j == i:
                raise InternalOrderViolation(
                    f"pruning produced a reflexive strict pair at {labels[i]!r}")
            raise InternalOrderViolation(
                f"pruning produced {labels[i]!r} <* {labels[j]!r}, "
                "which the poset lacks")
    for i, row in enumerate(star):
        for g in _bits(row):
            if star[g] & ~row:
                k = _bits(star[g] & ~row)[0]
                raise InternalOrderViolation(
                    "pruning broke transitivity: "
                    f"{labels[i]!r} <* {labels[g]!r} <* {labels[k]!r} "
                    f"but not {labels[i]!r} <* {labels[k]!r}")
    return Poset(labels, [_bits(row) for row in star])


# ----------------------------------------------------------------------
# exhaustive cross-checks


def check_covering_characterization(p: Poset, subset: Iterable[str],
                                    max_maximal_chains: int = 16) -> bool:
    """Family form of chain irreducibility, checked exhaustively.

    Runs through every nonempty family of maximal chains in which each
    member meets the given chain, and demands that some member contain
    the chain. Agrees with :func:`is_irreducible_chain`; kept as a slow
    cross-check. TooLarge is raised when the poset has more maximal
    chains than ``max_maximal_chains``.
    """
    return _covering_form(_maximal_chain_masks(p),
                          _mask_of(p._chain_ix(subset)), max_maximal_chains)


def _covering_form(masks: Sequence[int], cm: int,
                   max_maximal_chains: int = 16) -> bool:
    """:func:`check_covering_characterization` on the chain mask ``cm``,
    against the maximal chain masks ``masks``."""
    if len(masks) > max_maximal_chains:
        raise TooLarge(
            f"{len(masks)} maximal chains exceed the exhaustive bound "
            f"{max_maximal_chains}")
    skip = 0       # families with a member disjoint from the chain
    containing = 0  # members that contain the chain outright
    for i, m in enumerate(masks):
        if not cm & m:
            skip |= 1 << i
        elif not cm & ~m:
            containing |= 1 << i
    for family in range(1, 1 << len(masks)):
        if family & skip:
            continue
        if not family & containing:
            return False
    return True


def _chain_paths(p: Poset, max_elements: int) -> list[tuple[int, ...]]:
    """Every nonempty chain as ascending indices, in lexicographic order."""
    if len(p) > max_elements:
        raise TooLarge(
            f"{len(p)} elements exceed the chain-enumeration bound "
            f"{max_elements}")
    above = [_bits(m) for m in p._above]
    return [tuple(path) for start in range(len(p))
            for path in _dfs_paths(start, above)]


def all_chains(p: Poset, max_elements: int = 16) -> list[tuple[str, ...]]:
    """Every nonempty chain, ascending, sorted; exhaustive by design."""
    return _labelled(p, _chain_paths(p, max_elements))


@_memoized
def _irreducible_chain_paths(p: Poset, max_elements: int
                             ) -> tuple[tuple[int, ...], ...]:
    masks = _maximal_chain_masks(p)
    return tuple(c for c in _chain_paths(p, max_elements)
                 if _irreducible(masks, _mask_of(c)))


def irreducible_chain_family(p: Poset, max_elements: int = 16) -> SetFamily:
    """Every irreducible chain of the poset, as a set family."""
    return SetFamily(p.labels,
                     _labelled(p, _irreducible_chain_paths(p, max_elements)))


def maximal_irreducible_chains(p: Poset, max_elements: int = 16) -> list[tuple[str, ...]]:
    """The inclusion-maximal irreducible chains, sorted.

    Taken longest first, a chain is maximal unless it lies inside one
    already kept: a chain strictly containing it is longer, and lies in a
    maximal one itself.
    """
    kept: list[tuple[int, tuple[int, ...]]] = []
    for c in sorted(_irreducible_chain_paths(p, max_elements), key=len,
                    reverse=True):
        cm = _mask_of(c)
        if all(cm & ~m for m, _ in kept):
            kept.append((cm, c))
    return sorted(_labelled(p, (c for _, c in kept)))


def is_connectivity_exhaustive(fam: SetFamily, max_members: int = 20) -> bool:
    """:meth:`SetFamily.is_connectivity`, checked over every subfamily.

    Demands that every subfamily with a common point have its union among
    the members. A subfamily has the common point x exactly when all its
    members contain x, so the subfamilies of the members through each
    point are walked in turn: the cost is the sum over points x of
    2^(members containing x). TooLarge is raised beyond ``max_members``.
    Kept as an oracle for the binary check.
    """
    members = fam.members
    if len(members) > max_members:
        raise TooLarge(
            f"{len(members)} members exceed the exhaustive "
            f"bound {max_members}")
    if not members:
        return False
    covered: set[str] = set()
    for member in members:
        covered.update(member)
    if covered != set(fam.ground):
        return False
    for x in sorted(fam.ground):
        through = [m for m in members if x in m]
        for picks in range(1, 1 << len(through)):
            chosen = [through[i] for i in range(len(through)) if picks >> i & 1]
            if frozenset().union(*chosen) not in fam:
                return False
    return True


def induced_subposet(p: Poset, subset: Iterable[str]) -> Poset:
    """The poset induced on a nonempty subset, order restricted."""
    idxs = sorted({p._i(x) for x in subset})
    if not idxs:
        raise EmptySet("an induced subposet needs at least one element")
    smask = _mask_of(idxs)
    # renumbering keeps the order of the indices, so rows stay ascending
    pos = {old: new for new, old in enumerate(idxs)}
    above = p._above
    return Poset(tuple(p._labels[i] for i in idxs),
                 [tuple(pos[j] for j in _bits(above[old] & smask))
                  for old in idxs])


def is_filtered_upset(p: Poset, subset: Iterable[str]) -> bool:
    """True iff ``subset`` is up-closed and down-directed (a filter).

    Down-directed means any two members have a lower bound inside the
    subset. The empty set counts as a filter.
    """
    idxs = sorted({p._i(x) for x in subset})
    smask = _mask_of(idxs)
    above = p._above
    for i in idxs:
        if above[i] & ~smask:
            return False
    below = p._below
    for pos, a in enumerate(idxs):
        beq_a = below[a] | 1 << a
        for b in idxs[pos + 1:]:
            if not beq_a & (below[b] | 1 << b) & smask:
                return False
    return True


def _pairs_sharing_a_lower_bound(p: Poset) -> Iterator[tuple[int, int]]:
    """Incomparable pairs a < b (by index) with a common lower bound.

    Every lower bound lies above a minimal element, so the partners of a
    lie above the minimal elements below a. Pairs come a ascending, then b
    ascending; in a fence, a has at most two partners.
    """
    below, above = p._below, p._above
    top = 1 << len(below)
    minimal = 0
    for i, down in enumerate(below):
        if not down:
            minimal |= 1 << i
    for a, down in enumerate(below):
        if not down:
            continue
        partners = 0
        for m in _bits(down & minimal):
            partners |= above[m]
        # the elements with a larger index than a, incomparable to a
        later = (top - (2 << a)) & ~(above[a] | down)
        for b in _bits(partners & later):
            yield a, b


@_memoized
def _proper_meets(p: Poset) -> frozenset[int] | None:
    """Indices of the meets of incomparable pairs, all of them proper.

    None when a pair with a common lower bound has no meet, which happens
    iff p is not conditionally complete: in a finite poset the meets give
    the joins, as any two common upper bounds of a and b have a and b as
    common lower bounds, so folding meets over them finds the least one.
    The scan stops at the first pair without a meet. The common lower
    bounds ↓a ∩ ↓b are searched for a maximum once per distinct set, by a
    walk down the covers (:func:`veinprune.poset._greatest`); a set with a
    maximum m is ↓m, so there are at most n + 1 searches.
    """
    below, dcov = p._below, p._dcov
    maxima: dict[int, int] = {}
    for a, b in _pairs_sharing_a_lower_bound(p):
        lower = below[a] & below[b]
        if lower not in maxima:
            top = _greatest(a, lower, below, dcov)
            if top is None:
                return None
            maxima[lower] = top
    return frozenset(maxima.values())


def is_irreducible_via_meet(p: Poset, x: str) -> bool:
    """Meet-based irreducibility test, valid in conditionally complete posets.

    True iff x = meet(a, b) implies x in {a, b} for all pairs. Raises
    NotConditionallyComplete when the hypothesis fails, since the
    equivalence with :func:`veinprune.irreducibles.is_irreducible` is only
    guaranteed there. The proper meets come from a scan of every
    incomparable pair with a common lower bound (:func:`_proper_meets`),
    which decides the hypothesis on its own, apart from
    :meth:`Poset.is_conditionally_complete` and its cover test.
    """
    ix = p._i(x)
    meets = _proper_meets(p)
    if meets is None:
        raise NotConditionallyComplete(
            "the meet characterization needs a conditionally complete poset")
    return ix not in meets
