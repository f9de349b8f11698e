"""Veins: convex chains contained in every maximal chain they meet.

A chain C is irreducible when every maximal chain meeting C contains C;
a vein is an irreducible convex chain. Two-element veins coincide with
bridge edges of the cover digraph (cover pairs (x, y) where y is the only
upper cover of x and x the only lower cover of y), and longer veins are
exactly the saturated runs of consecutive bridge edges. That gives the
fast enumeration and the fast vein test here. The definition-level route
lives in :mod:`veinprune.oracle`; ``strict_veins(p, mode="oracle")``
reaches it.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import oracle
from .connectivity import SetFamily
from .errors import EmptySet, NotAChain
from .poset import Poset, _memoized


def is_vein(p: Poset, subset: Iterable[str]) -> bool:
    """True iff the nonempty subset is a convex irreducible chain.

    Every singleton is a vein. A larger subset is one exactly when it is a
    chain whose consecutive members, ascending, form bridge edges: the
    strict veins are the runs of consecutive bridge edges. That costs
    O(|subset|) once the bridge edges are known;
    :func:`veinprune.oracle.is_vein` decides from the definition.
    """
    members = set(subset)
    if not members:
        raise EmptySet("a vein is a nonempty chain")
    try:
        seq = [p._i(x) for x in p.as_chain(members)]
    except NotAChain:
        return False
    bridges = _bridge_pairs_ix(p)
    return all(pair in bridges for pair in zip(seq, seq[1:]))


# ----------------------------------------------------------------------
# bridge edges and the fast enumeration


@_memoized
def _bridge_pairs_ix(p: Poset) -> frozenset[tuple[int, int]]:
    dcov = p._dcov
    return frozenset((i, up[0]) for i, up in enumerate(p._ucov)
                     if len(up) == 1 and len(dcov[up[0]]) == 1)


def bridge_edges(p: Poset) -> frozenset[tuple[str, str]]:
    """Cover pairs (x, y) where y is the unique upper cover of x and x the
    unique lower cover of y. These are exactly the two-element veins."""
    return frozenset((p._labels[i], p._labels[j])
                     for i, j in _bridge_pairs_ix(p))


@_memoized
def _bridge_paths_ix(p: Poset) -> tuple[tuple[int, ...], ...]:
    """Maximal runs of consecutive bridge edges, as index tuples."""
    nxt = dict(_bridge_pairs_ix(p))
    starts = set(nxt) - set(nxt.values())
    paths = []
    for start in sorted(starts):
        path = [start]
        while path[-1] in nxt:
            path.append(nxt[path[-1]])
        paths.append(tuple(path))
    return tuple(paths)


def strict_veins(p: Poset, mode: str = "fast") -> list[tuple[str, ...]]:
    """All veins with at least two elements, ascending, sorted.

    ``fast`` reads them off the bridge-edge paths; ``oracle`` returns
    :func:`veinprune.oracle.strict_veins`, which filters cover paths
    through the definitions. The two agree on every finite poset.
    """
    if mode == "oracle":
        return oracle.strict_veins(p)
    if mode != "fast":
        raise ValueError(f"mode must be 'fast' or 'oracle', got {mode!r}")
    out = []
    for path in _bridge_paths_ix(p):
        run = [p._labels[k] for k in path]
        for lo in range(len(run)):
            for hi in range(lo + 2, len(run) + 1):
                out.append(tuple(run[lo:hi]))
    return sorted(out)


def maximal_veins(p: Poset) -> list[tuple[str, ...]]:
    """The inclusion-maximal veins; they partition the ground set.

    Maximal bridge-edge runs, plus a singleton for every element that lies
    on no bridge edge.
    """
    paths = _bridge_paths_ix(p)
    on_path = 0
    out = []
    for path in paths:
        for k in path:
            on_path |= 1 << k
        out.append(tuple(p._labels[k] for k in path))
    for i in range(len(p)):
        if not on_path >> i & 1:
            out.append((p._labels[i],))
    return sorted(out)


# ----------------------------------------------------------------------
# families, for the connectivity facts


def vein_family(p: Poset) -> SetFamily:
    """Every vein of the poset: all singletons plus the strict veins."""
    members: list[tuple[str, ...]] = [(x,) for x in p.labels]
    members.extend(strict_veins(p))
    return SetFamily(p.labels, members)
