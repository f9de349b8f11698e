"""Irreducible and coirreducible elements, and their behaviour under pruning.

An element is irreducible when it is maximal or its strict upper set is a
filter (up-closed and down-directed; the empty set counts as a filter).
Coirreducible is the same notion in the opposite poset. In a conditionally
complete poset, irreducibility is equivalent to never being a proper meet:
x = meet(a, b) forces x in {a, b}. That characterization is
:func:`veinprune.oracle.is_irreducible_via_meet`, and the suite holds the
two tests equal.

In a finite poset, x is irreducible iff it has at most one upper cover.
The strict upper set of x is always up-closed. If c is the only upper
cover of x, every y > x lies above c (a cover path from x to y starts at
c), so c is a lower bound of the whole set inside it. If c and d are two
upper covers, a common lower bound z > x of both satisfies x < z <= c, so
z = c, and likewise z = d: there is none. Dually, x is coirreducible iff
it has at most one lower cover. The tests below therefore read the lengths
of the cover tuples; :func:`veinprune.oracle.is_filtered_upset` stays the
definition.

Pruning keeps every element's irreducible and coirreducible flag, in every
finite poset. The pruned poset's covers are exactly the non-bridge covers
of p (:func:`veinprune.pruning.pruning_witness`, fact 1). For a bridge
(i, j), j is the only upper cover of i and i the only lower cover of j, so
deleting it takes both counts from 1 to 0; it changes no other count, so
by the cover counts above no flag moves. Completeness is not needed, and
pruning can lose it, so the meet test does not carry over to the pruned
poset. :func:`preservation_report` checks the theorem, for the suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .poset import Poset
from .pruning import prune


class IrreducibilityProfile(NamedTuple):
    """Irreducibility flags for a single element.

    A tuple record: immutable, it unpacks as ``element, irreducible,
    coirreducible`` and compares equal to the plain tuple of its fields.
    """

    element: str
    irreducible: bool
    coirreducible: bool

    @property
    def doubly(self) -> bool:
        return self.irreducible and self.coirreducible


def is_irreducible(p: Poset, x: str) -> bool:
    """True iff x is maximal or its strict upper set is a filter.

    Computed as: x has at most one upper cover.
    """
    return len(p._ucov[p._i(x)]) <= 1


def is_coirreducible(p: Poset, x: str) -> bool:
    """True iff x is irreducible in the opposite poset.

    Computed as: x has at most one lower cover.
    """
    return len(p._dcov[p._i(x)]) <= 1


def profiles(p: Poset) -> dict[str, IrreducibilityProfile]:
    """Profile every element from its cover counts."""
    return {x: IrreducibilityProfile(x, len(up) <= 1, len(down) <= 1)
            for x, up, down in zip(p.labels, p._ucov, p._dcov)}


def irreducibles(p: Poset) -> tuple[str, ...]:
    return tuple(x for x, up in zip(p.labels, p._ucov) if len(up) <= 1)


def coirreducibles(p: Poset) -> tuple[str, ...]:
    return tuple(x for x, down in zip(p.labels, p._dcov) if len(down) <= 1)


def doubly_irreducibles(p: Poset) -> frozenset[str]:
    """Elements that are both irreducible and coirreducible."""
    prof = profiles(p)
    return frozenset(x for x, entry in prof.items() if entry.doubly)


@dataclass
class PreservationReport:
    """One pruning pass and whether it kept every irreducibility flag."""

    original: Poset
    pruned: Poset
    preserved: bool


def preservation_report(p: Poset) -> PreservationReport:
    """Prune p once and compare the irreducibility profiles.

    By the theorem in the module docstring, ``preserved`` is True for
    every finite poset; this is the run-time check of that claim.
    """
    pruned = prune(p).pruned
    return PreservationReport(original=p, pruned=pruned,
                              preserved=profiles(p) == profiles(pruned))
