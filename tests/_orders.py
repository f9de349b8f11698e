"""Every naturally labelled order on a few elements, each built once.

An order on 0..n−1 is naturally labelled when i < j in the order implies
i < j as integers. Such an order on 0..k is the order on 0..k−1 with k
added as a new maximal element above one of its down-sets, so adding k
above each down-set in turn builds every one exactly once: 1, 1, 2, 7,
40, 357 and 4,824 orders for n = 0..6 (OEIS A006455), 5,231 nonempty
ones up to n = 6. Every order on at most 6 elements is among them, up to
isomorphism.

Each order is given as the strict down-set masks of its elements, and
:func:`as_poset` labels it in either direction: witness chains and
listings follow label order, so a fact is worth checking under both.
"""

from __future__ import annotations

import string
from collections.abc import Iterator

from veinprune import Poset


def natural_orders(max_size: int) -> Iterator[tuple[int, ...]]:
    """The nonempty naturally labelled orders on at most ``max_size``
    elements, smallest first, each as the tuple whose entry i is the mask
    of the elements strictly below i."""
    level: list[tuple[int, ...]] = [()]
    for k in range(max_size):
        grown = []
        for below in level:
            for down in range(1 << k):
                # a down-set holds the strict down-set of each member
                if all(below[i] & ~down == 0
                       for i in range(k) if down >> i & 1):
                    grown.append(below + (down,))
        yield from grown
        level = grown


def as_poset(below: tuple[int, ...], reverse: bool = False) -> Poset:
    """The order ``below`` as a poset, element i labelled by the i-th of
    the first ``len(below)`` letters, or, with ``reverse``, by the i-th
    of them from the end, so that label order reverses index order."""
    letters = string.ascii_lowercase[:len(below)]
    if reverse:
        letters = letters[::-1]
    return Poset.from_relations(letters, [
        (letters[i], letters[j])
        for j, down in enumerate(below) for i in range(j) if down >> i & 1])
