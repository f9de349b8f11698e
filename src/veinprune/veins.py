"""Veins: convex chains contained in every maximal chain they meet.

A chain C is irreducible when every maximal chain meeting C contains C;
a vein is an irreducible convex chain. Two-element veins coincide with
bridge edges of the cover digraph (cover pairs (x, y) where y is the only
upper cover of x and x the only lower cover of y), and longer veins are
exactly the saturated runs of consecutive bridge edges. That gives the
fast enumeration and the fast vein test here. The definition-level route
lives in :mod:`veinprune.oracle`; ``strict_veins(p, mode="oracle")``
reaches it.

Listing the strict veins in sorted order costs time proportional to the
listing, because blocks fix its order (:func:`_vein_blocks`). A block is
a maximal bridge run read from one of its elements onward, for every
element but the run's last. Sorted by first label, the blocks are the
sorted vein list already: each block in turn lists its prefixes of two
or more elements, shortest first. Proof:

- The runs are disjoint, so no two blocks share a first label, and every
  vein starting at a smaller label comes first.
- A strict vein is a sub-run of two or more elements of one maximal run.
  The sub-runs starting at an element x are the prefixes of x's block,
  and a prefix sorts before its extensions.

So no vein tuple is compared; the only sort is of the blocks.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import itemgetter

from . import oracle
from .errors import EmptySet
from .poset import Poset, _memoized


def is_vein(p: Poset, subset: Iterable[str]) -> bool:
    """True iff the nonempty subset is a convex irreducible chain.

    The strict veins are the runs of consecutive bridge edges, and every
    singleton is a vein. Inside any subset the bridge edges form disjoint
    paths, so the subset is a vein exactly when it holds one bridge edge
    fewer than it has members. That costs one step per upper cover of a
    member, and reads no order mask; :func:`veinprune.oracle.is_vein`
    decides from the definition.
    """
    members = set(map(p._i, set(subset)))
    if not members:
        raise EmptySet("a vein is a nonempty chain")
    return sum(_is_bridge(p, i, j) for i in members for j in p._ucov[i]
               if j in members) == len(members) - 1


# ----------------------------------------------------------------------
# bridge edges and the fast enumeration


def _is_bridge(p: Poset, i: int, j: int) -> bool:
    """True iff (i, j) is a bridge edge: j is the only upper cover of i,
    and i the only lower cover of j."""
    return p._ucov[i] == (j,) and p._dcov[j] == (i,)


@_memoized
def _bridge_runs(p: Poset) -> tuple[tuple[int, ...], ...]:
    """Maximal runs of consecutive bridge edges, as ascending index tuples.

    Ordered by first index. A bridge is the only cover leaving its lower
    end and the only one entering its upper end, so the runs are disjoint
    paths. One scan finds the elements a bridge enters. A run starts at
    the lower end of a bridge that no bridge enters, and each step up
    from k goes to k's only upper cover while a bridge enters it: that
    bridge can only come from k.
    """
    ucov, dcov = p._ucov, p._dcov
    entered = {j for j, down in enumerate(dcov)
               if len(down) == 1 and _is_bridge(p, down[0], j)}
    runs = []
    for i in sorted(dcov[j][0] for j in entered if dcov[j][0] not in entered):
        run = [i]
        up = ucov[i]
        while len(up) == 1 and up[0] in entered:
            run.append(up[0])
            up = ucov[up[0]]
        runs.append(tuple(run))
    return tuple(runs)


def bridge_edges(p: Poset) -> frozenset[tuple[str, str]]:
    """Cover pairs (x, y) where y is the unique upper cover of x and x the
    unique lower cover of y. These are exactly the two-element veins."""
    labels = p._labels
    return frozenset((labels[i], labels[j]) for run in _bridge_runs(p)
                     for i, j in zip(run, run[1:]))


def _vein_blocks(p: Poset) -> list[tuple[str, ...]]:
    """Every bridge run from each of its elements but the last onward, as
    label tuples sorted by first label.

    The strict veins, in sorted order, are the prefixes of two or more
    elements of each block in turn (the proof is in the module
    docstring).
    """
    labels = p._labels
    blocks = []
    for run in _bridge_runs(p):
        chain = tuple(labels[k] for k in run)
        blocks.extend(chain[s:] for s in range(len(chain) - 1))
    blocks.sort(key=itemgetter(0))
    return blocks


def strict_veins(p: Poset, mode: str = "fast") -> list[tuple[str, ...]]:
    """All veins with at least two elements, ascending, sorted.

    ``fast`` reads them off the blocks of :func:`_vein_blocks`, already in
    order, with no sort of vein tuples; ``oracle`` returns
    :func:`veinprune.oracle.strict_veins`, which filters cover paths
    through the definitions. The two agree on every finite poset.
    """
    if mode == "oracle":
        return oracle.strict_veins(p)
    if mode != "fast":
        raise ValueError(f"mode must be 'fast' or 'oracle', got {mode!r}")
    return [block[:hi] for block in _vein_blocks(p)
            for hi in range(2, len(block) + 1)]


def maximal_veins(p: Poset) -> list[tuple[str, ...]]:
    """The inclusion-maximal veins; they partition the ground set.

    Maximal bridge-edge runs, plus a singleton for every element that lies
    on no bridge edge.
    """
    labels, runs = p._labels, _bridge_runs(p)
    out = [tuple(labels[k] for k in run) for run in runs]
    on_run = {k for run in runs for k in run}
    out.extend((x,) for i, x in enumerate(labels) if i not in on_run)
    return sorted(out)
