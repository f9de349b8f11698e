"""Irreducible and coirreducible elements, and their behaviour under pruning.

An element is irreducible when it is maximal or its strict upper set is a
filter (up-closed and down-directed; the empty set counts as a filter).
Coirreducible is the same notion in the opposite poset. In a conditionally
complete poset, irreducibility is equivalent to never being a proper meet:
x = meet(a, b) forces x in {a, b}. Pruning a finite conditionally complete
poset leaves both classes of elements unchanged.

In a finite poset, x is irreducible iff it has at most one upper cover.
The strict upper set of x is always up-closed. If c is the only upper
cover of x, every y > x lies above c (a cover path from x to y starts at
c), so c is a lower bound of the whole set inside it. If c and d are two
upper covers, a common lower bound z > x of both satisfies x < z <= c, so
z = c, and likewise z = d: there is none. Dually, x is coirreducible iff
it has at most one lower cover. The tests below are therefore bit counts
on the cover masks; :meth:`Poset.is_filtered_upset` stays the definition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotConditionallyComplete
from .poset import Poset, _bits, _memoized
from .pruning import prune


@dataclass(frozen=True)
class IrreducibilityProfile:
    """Irreducibility flags for a single element."""

    element: str
    irreducible: bool
    coirreducible: bool

    @property
    def doubly(self) -> bool:
        return self.irreducible and self.coirreducible


def _at_most_one(mask: int) -> bool:
    return not mask & (mask - 1)


def is_irreducible(p: Poset, x: str) -> bool:
    """True iff x is maximal or its strict upper set is a filter.

    Computed as: x has at most one upper cover.
    """
    return _at_most_one(p._ucov[p._i(x)])


def is_coirreducible(p: Poset, x: str) -> bool:
    """True iff x is irreducible in the opposite poset.

    Computed as: x has at most one lower cover.
    """
    return _at_most_one(p._dcov[p._i(x)])


def profiles(p: Poset) -> dict[str, IrreducibilityProfile]:
    """Profile every element from its cover counts."""
    return {x: IrreducibilityProfile(x, _at_most_one(up), _at_most_one(down))
            for x, up, down in zip(p.labels, p._ucov, p._dcov)}


def irreducibles(p: Poset) -> tuple[str, ...]:
    return tuple(x for x, up in zip(p.labels, p._ucov) if _at_most_one(up))


def coirreducibles(p: Poset) -> tuple[str, ...]:
    return tuple(x for x, down in zip(p.labels, p._dcov)
                 if _at_most_one(down))


def doubly_irreducibles(p: Poset) -> frozenset[str]:
    """Elements that are both irreducible and coirreducible."""
    prof = profiles(p)
    return frozenset(x for x, entry in prof.items() if entry.doubly)


@_memoized
def _proper_meets(p: Poset) -> frozenset[str]:
    """Elements expressible as meet(a, b) with the element outside {a, b}.

    The meet of comparable elements is one of them, so only incomparable
    pairs count; their meet m exists iff ↓a ∩ ↓b is the principal
    down-set ↓m, found by one lookup among the n principal down-sets.
    A pair has a meet only if both elements have something below them,
    so the others are skipped; a wide antichain costs O(n).
    """
    downs = {mask | 1 << m: m for m, mask in enumerate(p._below)}
    has_below = 0
    for i, down in enumerate(p._below):
        if down:
            has_below |= 1 << i
    out: set[str] = set()
    for a in _bits(has_below):
        for b in _bits(p._incomparable_above(a) & has_below):
            m = downs.get(p._below[a] & p._below[b])
            if m is not None:
                out.add(p._labels[m])
    return frozenset(out)


def is_irreducible_via_meet(p: Poset, x: str) -> bool:
    """Meet-based irreducibility test, valid in conditionally complete posets.

    True iff x = meet(a, b) implies x in {a, b} for all pairs. Raises
    NotConditionallyComplete when the hypothesis fails, since the
    equivalence with :func:`is_irreducible` is only guaranteed there.
    """
    p._i(x)
    if not p.is_conditionally_complete():
        raise NotConditionallyComplete(
            "the meet characterization needs a conditionally complete poset")
    return x not in _proper_meets(p)


@dataclass
class PreservationReport:
    """Irreducibility before and after one pruning pass."""

    original: Poset
    pruned: Poset
    original_profiles: dict[str, IrreducibilityProfile]
    pruned_profiles: dict[str, IrreducibilityProfile]
    hypothesis_met: bool
    preserved: bool


def preservation_report(p: Poset,
                        allow_incomplete: bool = False) -> PreservationReport:
    """Compare irreducibility in p and in its pruning.

    For finite conditionally complete posets the irreducible and
    coirreducible elements are the same before and after pruning. When the
    poset is not conditionally complete, NotConditionallyComplete is
    raised unless ``allow_incomplete`` is set, in which case the report is
    still computed for exploration with ``hypothesis_met`` False.
    """
    met = p.is_conditionally_complete()
    if not met and not allow_incomplete:
        raise NotConditionallyComplete(
            "preservation is only asserted for conditionally complete posets")
    pruned = prune(p).pruned
    before = profiles(p)
    after = profiles(pruned)
    preserved = all(
        before[x].irreducible == after[x].irreducible
        and before[x].coirreducible == after[x].coirreducible
        for x in p.labels)
    return PreservationReport(
        original=p,
        pruned=pruned,
        original_profiles=before,
        pruned_profiles=after,
        hypothesis_met=met,
        preserved=preserved,
    )
