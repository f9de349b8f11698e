"""The definition-level route: veins and the pruning order from chains.

Chain irreducibility, strict veins and the pruning order are computed
literally, by walking cover paths and testing each against the maximal
chains or the strict veins. Exponential by design, and independent of
the fast bridge-edge route in :mod:`veinprune.veins` and
:mod:`veinprune.pruning`, which is checked against it.
"""

from __future__ import annotations

from collections.abc import Iterable

from .poset import Poset, _bits, _dfs_paths, _memoized


@_memoized
def _maximal_chain_masks(p: Poset) -> tuple[int, ...]:
    return tuple(p._mask(chain) for chain in p.maximal_chains())


def is_irreducible_chain(p: Poset, subset: Iterable[str]) -> bool:
    """True iff every maximal chain meeting the chain contains it.

    The subset must be a nonempty chain (NotAChain / EmptySet otherwise).
    """
    cm = p._mask(p.as_chain(subset))
    for m in _maximal_chain_masks(p):
        if cm & m and cm & ~m:
            return False
    return True


def strict_veins(p: Poset) -> list[tuple[str, ...]]:
    """All veins with at least two elements, ascending, sorted.

    Convex chains are saturated, so these are the convex irreducible
    cover paths.
    """
    paths = (tuple(p._labels[k] for k in path) for i in range(len(p))
             for path in _dfs_paths(i, p._ucov.__getitem__) if len(path) > 1)
    return sorted(c for c in paths
                  if p.is_convex(c) and is_irreducible_chain(p, c))


@_memoized
def _strict_vein_masks(p: Poset) -> tuple[int, ...]:
    return tuple(p._mask(v) for v in strict_veins(p))


def _clean_chain_ix(p: Poset, ix: int, iy: int) -> tuple[int, ...] | None:
    """Lexicographically least maximal chain of [x, y] with no strict vein.

    The cover paths from x to y are walked depth first, lowest index
    first, up to the first one that contains no strict vein.
    """
    mask = p._interval_mask(ix, iy)
    veins = _strict_vein_masks(p)
    for path in _dfs_paths(ix, lambda i: p._ucov[i] & mask):
        if path[-1] == iy:
            cm = sum(1 << k for k in path)
            if all(v & ~cm for v in veins):
                return tuple(path)
    return None


def clean_chain(p: Poset, x: str, y: str) -> tuple[str, ...] | None:
    """The least witness chain for x <* y; None if x = y or x <* y fails."""
    ix, iy = p._i(x), p._i(y)
    seq = None if ix == iy else _clean_chain_ix(p, ix, iy)
    return None if seq is None else tuple(p._labels[k] for k in seq)


def pruning_leq(p: Poset, x: str, y: str) -> bool:
    """True iff x <=* y in the pruning order."""
    return p._i(x) == p._i(y) or clean_chain(p, x, y) is not None


def _star_above(p: Poset) -> tuple[int, ...]:
    """Strict pruning-order masks: bit j of entry i is set iff i <* j."""
    return tuple(sum(1 << j for j in _bits(p._above[i])
                     if _clean_chain_ix(p, i, j) is not None)
                 for i in range(len(p)))
