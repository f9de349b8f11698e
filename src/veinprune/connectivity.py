"""Abstract connectivity structures on finite ground sets.

A family of subsets is a connectivity when it is nonempty, covers the
ground set, and is closed under unions of subfamilies with a common
point. For finite families, closure under binary overlapping unions is
equivalent and is what :meth:`SetFamily.is_connectivity` tests.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from .errors import EmptySet, MemberNotSubset, NotAConnectivity, UnknownLabel


class SetFamily:
    """A finite ground set with a collection of nonempty subsets.

    Members are deduplicated and kept in a canonical order (sorted label
    tuples), so iteration and reports are deterministic.
    """

    __slots__ = ("_ground", "_members", "_member_set", "_connectivity")

    def __init__(self, ground: Iterable[str], members: Iterable[Iterable[str]]):
        self._ground = frozenset(ground)
        canon: dict[tuple[str, ...], frozenset[str]] = {}
        for raw in members:
            member = frozenset(raw)
            if not member:
                raise EmptySet("family members must be nonempty")
            if not member <= self._ground:
                stray = sorted(member - self._ground)
                raise MemberNotSubset(
                    f"member contains labels outside the ground set: {stray}")
            canon[tuple(sorted(member))] = member
        self._members = tuple(canon[key] for key in sorted(canon))
        self._member_set = frozenset(self._members)
        self._connectivity: bool | None = None  # decided on first ask

    @property
    def ground(self) -> frozenset[str]:
        return self._ground

    @property
    def members(self) -> tuple[frozenset[str], ...]:
        return self._members

    def __contains__(self, subset) -> bool:
        return frozenset(subset) in self._member_set

    def __len__(self) -> int:
        return len(self._members)

    def __repr__(self) -> str:
        return f"<SetFamily {len(self._ground)} points, {len(self._members)} members>"

    # ------------------------------------------------------------------

    def is_connectivity(self) -> bool:
        """True iff the members are nonempty, cover the ground set, and the
        union of any two overlapping members is again a member.

        Decided once per family: the pair scan is quadratic in the members,
        and :meth:`is_point_connected` and :meth:`components` ask again.
        """
        if self._connectivity is None:
            self._connectivity = self._decide_connectivity()
        return self._connectivity

    def _decide_connectivity(self) -> bool:
        if not self._members:
            return False
        covered: set[str] = set()
        for member in self._members:
            covered.update(member)
        if covered != set(self._ground):
            return False
        for a, b in combinations(self._members, 2):
            if a & b and a | b not in self._member_set:
                return False
        return True

    def is_point_connected(self) -> bool:
        """True iff every singleton of the ground set is a member.

        Raises NotAConnectivity when the family is not a connectivity.
        """
        if not self.is_connectivity():
            raise NotAConnectivity("the family is not a connectivity")
        return all(frozenset((x,)) in self._member_set for x in self._ground)

    def components(self) -> list[frozenset[str]]:
        """The inclusion-maximal members, sorted canonically.

        Requires a point-connected connectivity; for those the components
        partition the ground set.
        """
        if not self.is_point_connected():
            raise NotAConnectivity("the family is not point connected")
        out = [m for m in self._members
               if not any(m < other for other in self._members)]
        return sorted(out, key=lambda m: tuple(sorted(m)))

    def component_of(self, point: str) -> frozenset[str]:
        """Union of all members containing ``point``.

        For a point-connected finite connectivity this union is itself a
        member and equals the component of the point.
        """
        if point not in self._ground:
            raise UnknownLabel(f"unknown label {point!r}")
        acc: set[str] = set()
        for member in self._members:
            if point in member:
                acc.update(member)
        return frozenset(acc)
