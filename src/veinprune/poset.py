"""Finite partially ordered sets on string labels.

A poset is stored as its cover digraph, over the indices of the sorted
label list. The covers are tuples of ascending indices, so they take
O(n + covers) space and a cover step costs O(degree) whatever the
indices. The strict order is read as bitmasks, so comparability,
interval, and bound queries come down to word operations. The
constructor orders the elements by a walk that touches no mask, then
closes and reduces in one pass along that order. It keeps the upward
masks that pass builds, and fills the downward masks from the covers
when first read. A poset derived from another (the opposite, the pruned
poset) is assembled from the other's two cover tables, shared or
edited, so no cover table is built twice; both its order tables are
filled when first read. Elements are identified by their labels and
nothing else.

Instances are immutable after construction and hashable. Derived tables
(maximal chains, completeness, bridge edges, pruning reachability, ...)
are computed on first use and kept in a per-instance memo, so they are
freed with the poset. A poset can be shared between threads: two threads
filling the same entry at once compute the same value twice.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Sequence

from .errors import (
    CycleDetected,
    DuplicateLabel,
    EmptySet,
    NotAChain,
    UnknownLabel,
)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending.

    Read from the top: clearing the highest bit shortens the mask to its
    next set bit, where isolating the lowest (``mask & -mask``) copies all
    of it for each bit.
    """
    out = []
    while mask:
        j = mask.bit_length() - 1
        out.append(j)
        mask ^= 1 << j
    out.reverse()
    return out


def _dfs_paths(start: int, succ: Sequence[Iterable[int]],
               within: int = -1) -> Iterator[list[int]]:
    """Every path from ``start`` along the successors ``succ[i]``.

    Only successors in the mask ``within`` (by default all) are followed.
    Depth first, in the order ``succ`` lists them (ascending indices give
    lowest index first), each path yielded on arrival at its last vertex
    (preorder), without recursion. The same list is yielded every time;
    copy what you keep.
    """
    path = [start]
    pending = [iter(succ[start])]
    yield path
    while pending:
        j = next(pending[-1], None)
        if j is None:
            pending.pop()
            path.pop()
            continue
        if within >> j & 1:
            path.append(j)
            yield path
            pending.append(iter(succ[j]))


def _interval(above: Sequence[int], below: Sequence[int], ix: int,
              iy: int) -> int:
    """The mask of the interval [ix, iy], from the order tables ``above``
    and ``below``: a caller that asks for many intervals reads each table
    once."""
    return (above[ix] | 1 << ix) & (below[iy] | 1 << iy)


def _lower_covers(ucov: Sequence[Sequence[int]]
                  ) -> tuple[tuple[int, ...], ...]:
    """The ascending lower cover tuples of the upper cover tuples ``ucov``."""
    dcov: list[list[int]] = [[] for _ in ucov]
    for i, ups in enumerate(ucov):
        for j in ups:
            dcov[j].append(i)
    return tuple(map(tuple, dcov))


def _reach(order: Iterable[int], cov: Sequence[Sequence[int]]
           ) -> tuple[int, ...]:
    """For each element, the mask of the elements with a path to it along
    the cover table ``cov``.

    ``order`` lists every element after each element with a step into it,
    so an element's mask is finished when the walk reaches it, and is then
    pushed, with the element itself, along its own steps. The lower covers
    in successors-first order give the up-sets, and the upper covers in
    the reverse order give the down-sets.
    """
    masks = [0] * len(cov)
    for i in order:
        done = masks[i] | 1 << i
        for j in cov[i]:
            masks[j] |= done
    return tuple(masks)


def _greatest(a: int, bound: int, below: Sequence[int],
              dcov: Sequence[Sequence[int]]) -> int | None:
    """Index of the greatest member of ``bound``, or None if it has none.

    ``bound`` is a mask of lower bounds of a, ``below`` and ``dcov`` are
    the strict down-set masks and the lower covers, and ↓x is the closed
    down-set of x. The walk goes down the covers from x = a, stepping to a
    lower cover c of x with ``bound`` inside ↓c. So ``bound`` stays inside
    ↓x, and once x lies in ``bound`` it is the greatest member. If the
    greatest member m exists and x is not in ``bound``, then m < x, so m
    lies below some lower cover c of x, and ↓c holds ↓m, which holds
    ``bound``: the walk stops without an answer only when there is none.
    Given the up-set masks and the upper covers, the same walk finds the
    least member of a set of upper bounds.
    """
    if not bound & (bound - 1):  # empty, or its own answer
        return bound.bit_length() - 1 if bound else None
    x = a
    while not bound >> x & 1:
        for c in dcov[x]:
            rest = bound & ~below[c]
            if not rest or rest == 1 << c:
                x = c
                break
        else:
            return None
    return x


def _complete_on(above: Sequence[int], below: Sequence[int],
                 ucov: Sequence[Sequence[int]], minimal: int,
                 maximal: int) -> bool:
    """The test of :meth:`Poset.is_conditionally_complete` on one side, for
    the components whose minimal and maximal elements on that side are
    ``minimal`` and ``maximal``.

    ``above``, ``below`` and ``ucov`` are the side's up-set masks, down-set
    masks and upper covers: a poset's own, or its ``_below``, ``_above``
    and ``_dcov`` for the test on its opposite. Only the pairs of minimal
    elements are kept to those components. Two covers of one element are
    paired everywhere, which needs no component mask: every such pair with
    a common upper bound has a join in a conditionally complete poset, so
    the extra tests cannot change the answer.
    """
    if not minimal:  # no component with a cover on this side
        return True
    searched: set[int] = set()

    def lacks_join(x: int, upper: int) -> bool:
        """True iff x and a partner, with the common upper bounds
        ``upper``, have no least one."""
        if not upper & (upper - 1) or upper in searched:
            return False
        searched.add(upper)
        return _greatest(x, upper, above, ucov) is None

    seen: set[tuple[int, ...]] = set()  # upper covers tested before
    for a in _bits(minimal):
        if ucov[a] in seen:  # the earlier one's partner loop tested a
            continue
        seen.add(ucov[a])
        upper = above[a]
        partners = 0
        for m in _bits(upper & maximal):
            partners |= below[m]
        # the partners b > a, as offsets from a + 1
        for b in _bits((partners & minimal) >> (a + 1)):
            if lacks_join(a, upper & above[a + 1 + b]):
                return False
    for ups in ucov:
        if len(ups) < 2:
            continue
        union = 0  # the upper bounds of the covers kept before x
        kept: dict[tuple[int, ...], int] = {}  # by their upper covers
        for x in ups:
            upper = above[x]
            shared = upper & union
            if shared & (shared - 1):  # else no pair shares two upper bounds
                twin = kept.get(ucov[x])
                for y in kept.values() if twin is None else (twin,):
                    if lacks_join(x, upper & above[y]):
                        return False
            union |= upper
            kept.setdefault(ucov[x], x)
    return True


def _memoized(fn):
    """Cache ``fn(p, *args)`` in the memo of the poset ``p``.

    The package's one caching mechanism: entries live and die with the
    poset they describe. Cached values are shared, so they must be
    immutable (tuples, frozensets) or copied by the caller.
    """
    @functools.wraps(fn)
    def wrapper(p: Poset, *args):
        key = (fn, *args) if args else fn  # no tuple on the hot path
        try:
            return p._memo[key]
        except KeyError:
            value = p._memo[key] = fn(p, *args)
            return value
    return wrapper


class Poset:
    """An immutable finite poset.

    The constructor takes sorted ``labels`` and an acyclic adjacency:
    ``adj[i]`` lists the indices of elements above element i, ascending and
    without repeats, and the order is the transitive closure of these
    edges. Any generating set works: the cover pairs, the full strict
    order, or anything in between. Cycles raise CycleDetected. Use
    :meth:`from_relations` to build a poset from labelled relation pairs
    with full validation.

    ``_ucov[i]`` and ``_dcov[i]`` are the upper and lower covers of i as
    ascending index tuples. ``_above[i]`` and ``_below[i]`` are the
    elements strictly above and below i as bitmasks: on dense shapes, such
    as a long chain, those are the compact form of the order. Each table
    is filled once, when first read, unless the constructor already has
    it.
    """

    __slots__ = ("_labels", "_index", "_above_masks", "_below_masks",
                 "_ucov", "_dcov", "_order", "_memo")

    def __init__(self, labels: tuple[str, ...], adj: Sequence[Sequence[int]]):
        self._labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self._labels)}
        self._close(adj)

    def _close(self, adj: Sequence[Sequence[int]]) -> None:
        """Close ``adj`` into the order in two passes: a walk that orders,
        then one pass of O(n + edges) mask ops that closes and reduces.

        The walk is depth first and non-recursive, successors in ascending
        order. It closes element i only after every successor j of i has
        closed, and an element without successors on arrival; ``_order``
        keeps that closing order, successors first. Reaching an element
        still on the walk's path raises CycleDetected with that cycle.
        The second pass goes along ``_order``, so ``above[j]`` is finished
        for every successor j of i when i is reached: ``redundant`` is the
        union of those, and ``above[i]`` is ``redundant`` plus the edges of
        i. A cover is an input edge (a longer path puts an element between
        its ends), and an edge i -> j is a cover unless j lies above
        another successor of i: the upper covers are the edges outside
        ``redundant``, and an element's only edge is always one. A last
        pass, in index order, lists the lower covers ascending. ``_below``
        is left to its first reader. ``_labels`` and ``_index`` are set
        before the call.
        """
        n = len(self._labels)
        color = [0] * n  # 0 new, 1 on the walk's path, 2 closed
        order: list[int] = []  # successors first
        for root in range(n):
            if color[root]:
                continue
            color[root] = 1
            stack = [(root, iter(adj[root]))]  # (i, unvisited successors)
            while stack:
                i, unvisited = stack[-1]
                for j in unvisited:
                    if not color[j]:
                        color[j] = 1
                        stack.append((j, iter(adj[j])))
                        break
                    if color[j] == 1:
                        path = [f[0] for f in stack]
                        cycle = path[path.index(j):] + [j]
                        raise CycleDetected(
                            tuple(self._labels[k] for k in cycle))
                else:  # every successor of i has closed
                    stack.pop()
                    color[i] = 2
                    order.append(i)
        above = [0] * n
        ucov: list[tuple[int, ...]] = [()] * n
        for i in order:
            succ = adj[i]
            if len(succ) == 1:
                j = succ[0]
                above[i] = above[j] | 1 << j
                ucov[i] = (j,)
                continue
            redundant = edges = 0
            for j in succ:
                redundant |= above[j]
                edges |= 1 << j
            above[i] = redundant | edges
            ucov[i] = (tuple(j for j in succ if not redundant >> j & 1)
                       if edges & redundant else tuple(succ))
        self._above_masks = tuple(above)
        self._below_masks = None
        self._ucov = tuple(ucov)
        self._dcov = _lower_covers(ucov)
        self._order = tuple(order)
        self._memo: dict = {}

    @classmethod
    def _from_covers(cls, labels: tuple[str, ...], index: dict[str, int],
                     ucov: Sequence[tuple[int, ...]],
                     dcov: Sequence[tuple[int, ...]],
                     order: tuple[int, ...]) -> Poset:
        """The poset whose upper and lower covers are ``ucov`` and
        ``dcov``, without a closure.

        Trusted input, not checked: ``index`` maps ``labels`` to their
        positions, ``ucov[i]`` and ``dcov[i]`` list the upper and lower
        covers of i as ascending indices (no edge is implied by others, and
        each table is the other read the other way), and ``order`` lists
        every index after all its upper covers. Nothing is derived here: a
        tuple table is shared as given, and the order masks are filled
        when first read.
        """
        p = cls.__new__(cls)
        p._labels = labels
        p._index = index
        p._above_masks = p._below_masks = None
        p._ucov = tuple(ucov)
        p._dcov = tuple(dcov)
        p._order = order
        p._memo = {}
        return p

    @property
    def _above(self) -> tuple[int, ...]:
        """Masks of the elements strictly above each element, pushed down
        the lower covers in successors-first order."""
        above = self._above_masks
        if above is None:
            above = self._above_masks = _reach(self._order, self._dcov)
        return above

    @property
    def _below(self) -> tuple[int, ...]:
        """Masks of the elements strictly below each element, pushed up
        the upper covers in reverse successors-first order."""
        below = self._below_masks
        if below is None:
            below = self._below_masks = _reach(reversed(self._order),
                                               self._ucov)
        return below

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_relations(cls, labels: Iterable[str],
                       pairs: Iterable[tuple[str, str]]) -> Poset:
        """Poset whose strict order is the transitive closure of ``pairs``.

        The pairs may be covers or any strict relations, in any order and
        with repeats; the cover digraph is recomputed as the transitive
        reduction. Raises DuplicateLabel, UnknownLabel, or CycleDetected
        (with a witness cycle).
        """
        ordered = list(labels)
        if len(set(ordered)) != len(ordered):
            seen: set[str] = set()
            for lab in ordered:
                if lab in seen:
                    raise DuplicateLabel(f"duplicate label {lab!r}")
                seen.add(lab)
        sorted_labels = tuple(sorted(ordered))
        index = {lab: i for i, lab in enumerate(sorted_labels)}
        adj: list[list[int]] = [[] for _ in sorted_labels]
        ascending = True  # pairs sorted by label need no sort here
        try:
            for a, b in pairs:
                ia = index[a]
                ib = index[b]
                if ia == ib:
                    raise CycleDetected((a, a))
                row = adj[ia]
                if row and row[-1] >= ib:
                    ascending = False
                row.append(ib)
        except KeyError:  # the first unknown label of the failing pair
            raise UnknownLabel(
                f"unknown label {a if a not in index else b!r}") from None
        if not ascending:
            adj = [sorted(set(row)) for row in adj]
        # the index is built once, here, and handed to the closure walk
        p = cls.__new__(cls)
        p._labels, p._index = sorted_labels, index
        p._close(adj)
        return p

    # ------------------------------------------------------------------
    # basic views

    @property
    def labels(self) -> tuple[str, ...]:
        """All element labels in sorted order."""
        return self._labels

    @property
    def elements(self) -> frozenset[str]:
        return frozenset(self._labels)

    @property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """Cover pairs (x, y) with x covered by y, sorted lexicographically."""
        labels = self._labels
        return tuple((labels[i], labels[j])
                     for i, ups in enumerate(self._ucov) for j in ups)

    def relations(self) -> tuple[tuple[str, str], ...]:
        """All strict pairs (x, y) with x < y, sorted lexicographically."""
        labels = self._labels
        return tuple((labels[i], labels[j])
                     for i, up in enumerate(self._above) for j in _bits(up))

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __contains__(self, label) -> bool:
        return label in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self._labels == other._labels and self._ucov == other._ucov

    @_memoized
    def __hash__(self) -> int:
        return hash((self._labels, self._ucov))

    def __repr__(self) -> str:
        n = len(self._labels)
        m = sum(map(len, self._ucov))
        return f"<Poset {n} elements, {m} covers>"

    # ------------------------------------------------------------------
    # index helpers (package internal)

    def _i(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"unknown label {label!r}") from None

    def _labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self._labels[i] for i in _bits(mask))

    # ------------------------------------------------------------------
    # order queries

    def leq(self, x: str, y: str) -> bool:
        """True iff x <= y."""
        ix, iy = self._i(x), self._i(y)
        return ix == iy or self._above[ix] >> iy & 1 == 1

    def lt(self, x: str, y: str) -> bool:
        """True iff x < y strictly."""
        return self._above[self._i(x)] >> self._i(y) & 1 == 1

    def comparable(self, x: str, y: str) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def upper_covers(self, x: str) -> tuple[str, ...]:
        return tuple(self._labels[j] for j in self._ucov[self._i(x)])

    def lower_covers(self, x: str) -> tuple[str, ...]:
        return tuple(self._labels[j] for j in self._dcov[self._i(x)])

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(lab for lab, down in zip(self._labels, self._dcov)
                     if not down)

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(lab for lab, up in zip(self._labels, self._ucov)
                     if not up)

    def strict_upset(self, x: str) -> frozenset[str]:
        """All elements strictly greater than x."""
        return frozenset(self._labels_of(self._above[self._i(x)]))

    def strict_downset(self, x: str) -> frozenset[str]:
        """All elements strictly less than x."""
        return frozenset(self._labels_of(self._below[self._i(x)]))

    def interval(self, x: str, y: str) -> frozenset[str]:
        """The interval [x, y] = {z : x <= z <= y}; empty unless x <= y."""
        ix, iy = self._i(x), self._i(y)
        return frozenset(self._labels_of(self._interval_mask(ix, iy)))

    def _interval_mask(self, ix: int, iy: int) -> int:
        return _interval(self._above, self._below, ix, iy)

    # ------------------------------------------------------------------
    # chains and convexity

    def as_chain(self, subset: Iterable[str]) -> tuple[str, ...]:
        """The elements of ``subset`` sorted ascending, if they form a chain.

        Raises EmptySet for the empty set, UnknownLabel for foreign labels,
        and NotAChain when two members are incomparable.
        """
        return tuple(self._labels[i] for i in self._chain_ix(subset))

    def _chain_ix(self, subset: Iterable[str]) -> list[int]:
        """The indices of :meth:`as_chain`, ascending in the order."""
        idxs = sorted({self._i(x) for x in subset})
        if not idxs:
            raise EmptySet("a chain must contain at least one element")
        if len(idxs) == 1:
            # a singleton is a chain: no mask is read, and none is filled
            return idxs
        # x < y forces strictly more elements above x, so this sort is
        # ascending whenever the set really is a chain; it reads only the
        # masks the constructor keeps
        above = self._above
        idxs.sort(key=lambda i: above[i].bit_count(), reverse=True)
        for a, b in zip(idxs, idxs[1:]):
            if not above[a] >> b & 1:
                raise NotAChain(
                    f"{self._labels[a]!r} and {self._labels[b]!r} "
                    "are incomparable")
        return idxs

    def is_chain(self, subset: Iterable[str]) -> bool:
        """True iff the nonempty subset is totally ordered."""
        try:
            self.as_chain(subset)
        except NotAChain:
            return False
        return True

    def is_convex(self, subset: Iterable[str]) -> bool:
        """True iff the nonempty subset is order convex.

        Convex means: x, y in the set and x <= z <= y imply z is in it.
        """
        idxs = {self._i(x) for x in subset}
        if not idxs:
            raise EmptySet("convexity is defined for nonempty subsets")
        above, below = self._above, self._below
        smask = up = down = 0
        for i in idxs:
            smask |= 1 << i
            up |= above[i]
            down |= below[i]
        # up & down holds exactly the z with x < z < y for some members x
        # and y (z above one member, below one); convexity asks each such z
        # to be a member, and z = x or z = y always is
        return not up & down & ~smask

    def maximal_chains(self) -> list[tuple[str, ...]]:
        """All maximal chains, each ascending, in lexicographic order.

        Maximal chains of a finite poset are exactly the saturated cover
        paths from a minimal to a maximal element.
        """
        labels = self._labels
        return [tuple(labels[k] for k in path)
                for path in self._maximal_chain_paths()]

    @_memoized
    def _maximal_chain_paths(self) -> tuple[tuple[int, ...], ...]:
        """The maximal chains as ascending index tuples, in lexicographic
        order: :meth:`maximal_chains` labels them, the oracle masks them."""
        ucov = self._ucov
        return tuple(tuple(path) for i, down in enumerate(self._dcov)
                     if not down
                     for path in _dfs_paths(i, ucov) if not ucov[path[-1]])

    # ------------------------------------------------------------------
    # derived posets

    def opposite(self) -> Poset:
        """The dual poset: same elements, order reversed.

        Its two cover tables are the two here, swapped and shared, and the
        reverse of the successors-first order lists each element after its
        upper covers, so nothing is built, closed or checked again.
        """
        return Poset._from_covers(self._labels, self._index, self._dcov,
                                  self._ucov, self._order[::-1])

    # ------------------------------------------------------------------
    # bounds

    def meet(self, a: str, b: str) -> str | None:
        """Greatest lower bound of a and b, or None when it does not exist."""
        return self._bound(a, b, self._below, self._dcov)

    def join(self, a: str, b: str) -> str | None:
        """Least upper bound of a and b, or None when it does not exist."""
        return self._bound(a, b, self._above, self._ucov)

    def _bound(self, a: str, b: str, below: Sequence[int],
               dcov: Sequence[Sequence[int]]) -> str | None:
        """The greatest common lower bound of a and b, given the down-set
        masks and the lower covers; the least common upper bound, given
        the up-set masks and the upper covers."""
        ia, ib = self._i(a), self._i(b)
        bound = (below[ia] | 1 << ia) & (below[ib] | 1 << ib)
        top = _greatest(ia, bound, below, dcov)
        return None if top is None else self._labels[top]

    @_memoized
    def is_conditionally_complete(self) -> bool:
        """True iff bounded pairs have meets and joins.

        Every pair with a common lower bound must have a meet, and every
        pair with a common upper bound must have a join. Decided from the
        covers, by two facts about P̂, which is P with a new least element
        0̂ and a new greatest element 1̂:

        1. P is conditionally complete iff P̂ is a lattice. A pair of P
           without a common upper bound in P has the join 1̂ in P̂; one
           with common upper bounds in P has the same join in P and in P̂,
           or none in either. Pairs with 0̂ or 1̂ are comparable, and meets
           are dual.
        2. A finite bounded poset L is a lattice iff any two elements that
           cover a common element have a join. Suppose they do, but some
           pair has no join, and choose such a pair a, b with a common
           lower bound z that is as high as possible. As a and b are
           incomparable, z has covers x <= a and y <= b, and x != y, or x
           would be a higher choice of z. So w = x ∨ y exists. The pair a,
           w has the common lower bound x > z, so v = a ∨ w exists, and so
           does u = v ∨ b, as y > z lies below both. Any upper bound t of
           a and b lies above x and y, so above w, v and u: u is a ∨ b,
           against the choice. Meets follow, since the common lower bounds
           of a pair include 0̂ and have a join.

        The pairs of P̂ that cover a common element and may lack a join are
        two minimal elements of P (covers of 0̂), or two upper covers of
        one element, that share an upper bound in P; each needs a least
        common upper bound, which :func:`_greatest` finds by a walk up the
        covers. Two elements with a common bound lie in one connected
        component, and the definition is self-dual, so each component is
        tested on P or on its opposite, whichever gives it fewer minimal
        elements: the minimal elements of a tree with its root on top make
        quadratically many pairs, and those of its opposite none, and one
        poset may hold trees of both kinds. The minimal elements go
        first, as sparse posets often fail there: the partners of a
        minimal element a are the minimal elements below the maximal
        elements above a. Two upper covers of one element are
        incomparable, and one is paired with the covers before it only
        when it shares two or more upper bounds with them: otherwise each
        such pair has one common upper bound, its own least, or none (a
        maximal cover, say, shares none). In either kind, an element with
        the same upper covers as one before it has the same joins, so it is
        tested only against that one; for a minimal element, that pair was
        tested in the earlier one's partner loop. Each distinct set of
        common upper bounds is searched once.
        """
        ucov, dcov = self._ucov, self._dcov
        minimal = maximal = 0  # leaving out isolated elements
        for i, ups in enumerate(ucov):
            if not ups:
                if dcov[i]:
                    maximal |= 1 << i
            elif not dcov[i]:
                minimal |= 1 << i
        above, below = self._above, self._below
        # a component is the union of the up-sets of its minimal elements
        # and the down-sets of its maximal ones, so it is grown from those
        flipped = 0  # the components with more minimal than maximal ones
        rest = minimal | maximal
        if not (minimal & (minimal - 1) and maximal & (maximal - 1)):
            # one minimal or one maximal element: at most one component
            if minimal.bit_count() > maximal.bit_count():
                flipped = -1
            rest = 0
        while rest:
            part = frontier = rest & -rest
            while frontier:
                grown = 0
                for i in _bits(frontier & minimal):
                    grown |= above[i]
                for i in _bits(frontier & maximal):
                    grown |= below[i]
                frontier = grown & rest & ~part
                part |= grown
            rest &= ~part
            if (part & minimal).bit_count() > (part & maximal).bit_count():
                flipped |= part
        return (_complete_on(above, below, ucov, minimal & ~flipped,
                             maximal & ~flipped)
                and _complete_on(below, above, dcov, maximal & flipped,
                                 minimal & flipped))

    # ------------------------------------------------------------------
    # layout support

    def heights(self) -> dict[str, int]:
        """Longest-path height of every element above the minimal level."""
        n = len(self._labels)
        h = [0] * n
        for i in reversed(self._order):  # lower covers first
            for j in self._dcov[i]:
                if h[j] + 1 > h[i]:
                    h[i] = h[j] + 1
        return {self._labels[i]: h[i] for i in range(n)}
