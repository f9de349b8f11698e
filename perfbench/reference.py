"""An independent model of a finite poset, for checking benchmark outputs.

Nothing here imports ``veinprune``. Documents are parsed by this module's
own reader, and every fact is computed by this module's own code, by one
of two routes that do not depend on the package's fast route:

* definition level (small posets): veins are the convex chains that every
  maximal chain meeting them contains; x <* y holds when some maximal
  chain of [x, y] contains no strict vein; x is irreducible when it is
  maximal or its strict upper set is down-directed.
* closed forms derived from those definitions, for posets too large to
  enumerate: the two-element veins are the cover pairs (x, y) where y is
  the only upper cover of x and x the only lower cover of y (bridges);
  strict veins are the runs of consecutive bridges; x <* y iff y is
  reachable from x by covers that are not bridges; x is irreducible iff
  it has at most one upper cover.

The checker uses the definition route wherever enumeration is cheap and
holds the two routes equal there (see ``perfbench/smoke.py``).
"""

from __future__ import annotations

import json


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse_document(text: str) -> tuple[str | None, list[str], list[tuple[str, str]]]:
    """(name, elements, pairs) of a text or JSON poset document."""
    if text.lstrip().startswith("{"):
        try:  # labels such as "{1,2}" make text documents start with a brace
            obj = json.loads(text)
        except ValueError:
            obj = None
        if obj is not None:
            return (obj.get("name"), list(obj["elements"]),
                    [tuple(pair) for pair in obj["covers"]])
    elements: dict[str, None] = {}
    pairs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "<" in line:
            a, b = (side.strip() for side in line.split("<"))
            elements.setdefault(a)
            elements.setdefault(b)
            pairs.append((a, b))
        else:
            elements.setdefault(line)
    return None, list(elements), pairs


class RefPoset:
    """Strict order as bitmasks over the sorted labels."""

    def __init__(self, elements, pairs):
        self.labels = sorted(elements)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        n = self.n = len(self.labels)
        adj = [0] * n
        indeg = [0] * n
        for a, b in pairs:
            ia, ib = self.index[a], self.index[b]
            if not adj[ia] >> ib & 1:
                adj[ia] |= 1 << ib
                indeg[ib] += 1
        # Kahn's algorithm: a topological order, minimal elements first
        order = [i for i in range(n) if not indeg[i]]
        for i in order:
            for j in bits(adj[i]):
                indeg[j] -= 1
                if not indeg[j]:
                    order.append(j)
        if len(order) != n:
            raise ValueError("the document's relation has a cycle")
        self.order = order
        above = [0] * n
        for i in reversed(order):
            acc = 0
            for j in bits(adj[i]):
                acc |= (1 << j) | above[j]
            above[i] = acc
        self.above = above
        below = [0] * n
        ucov = [0] * n
        for i in range(n):
            reach_via = 0
            for j in bits(above[i]):
                below[j] |= 1 << i
                reach_via |= above[j]
            ucov[i] = above[i] & ~reach_via
        self.below = below
        self.ucov = ucov
        dcov = [0] * n
        for i in range(n):
            for j in bits(ucov[i]):
                dcov[j] |= 1 << i
        self.dcov = dcov

    # ------------------------------------------------------------------
    # plain facts

    def chain_names(self, mask: int) -> tuple[str, ...]:
        """The labels of a chain, ascending."""
        return tuple(self.labels[i] for i in
                     sorted(bits(mask), key=lambda i: self.below[i].bit_count()))

    def relation_count(self) -> int:
        return sum(m.bit_count() for m in self.above)

    def cover_pairs(self) -> set[tuple[str, str]]:
        return {(self.labels[i], self.labels[j])
                for i in range(self.n) for j in bits(self.ucov[i])}

    def relation_pairs(self) -> list[tuple[str, str]]:
        return sorted((self.labels[i], self.labels[j])
                      for i in range(self.n) for j in bits(self.above[i]))

    def minimal(self) -> list[str]:
        return [self.labels[i] for i in range(self.n) if not self.below[i]]

    def maximal(self) -> list[str]:
        return [self.labels[i] for i in range(self.n) if not self.above[i]]

    def heights(self) -> list[int]:
        h = [0] * self.n
        for j in self.order:
            for i in bits(self.dcov[j]):
                h[j] = max(h[j], h[i] + 1)
        return h

    def chain_count(self) -> int:
        """Number of maximal chains: cover paths from minimal to maximal."""
        count = [0] * self.n
        for i in reversed(self.order):
            count[i] = sum(count[j] for j in bits(self.ucov[i])) or 1
        return sum(count[i] for i in range(self.n) if not self.below[i])

    def chain_masks(self) -> list[tuple[int, ...]]:
        """Maximal chains as index tuples, lexicographic order (iterative)."""
        out = []
        for start in range(self.n):
            if self.below[start]:
                continue
            stack = [(start, (start,))]
            while stack:
                i, path = stack.pop()
                if not self.ucov[i]:
                    out.append(path)
                    continue
                for j in sorted(bits(self.ucov[i]), reverse=True):
                    stack.append((j, path + (j,)))
        return out

    def conditionally_complete(self) -> bool:
        """Every pair with a common lower (upper) bound has a meet (join)."""
        n = self.n
        for a in range(n):
            low_a = self.below[a] | 1 << a
            up_a = self.above[a] | 1 << a
            for b in range(a + 1, n):
                lower = low_a & (self.below[b] | 1 << b)
                if lower and sum(1 for i in bits(lower)
                                 if not self.above[i] & lower) != 1:
                    return False
                upper = up_a & (self.above[b] | 1 << b)
                if upper and sum(1 for i in bits(upper)
                                 if not self.below[i] & upper) != 1:
                    return False
        return True

    # ------------------------------------------------------------------
    # closed-form route

    def bridges(self) -> set[tuple[int, int]]:
        return {(i, j) for i in range(self.n) for j in bits(self.ucov[i])
                if self.ucov[i].bit_count() == 1
                and self.dcov[j].bit_count() == 1}

    def bridge_runs(self) -> list[tuple[int, ...]]:
        nxt = dict(self.bridges())
        runs = []
        for start in sorted(set(nxt) - set(nxt.values())):
            run = [start]
            while run[-1] in nxt:
                run.append(nxt[run[-1]])
            runs.append(tuple(run))
        return runs

    def strict_veins_closed(self) -> list[tuple[str, ...]]:
        out = []
        for run in self.bridge_runs():
            for lo in range(len(run)):
                for hi in range(lo + 2, len(run) + 1):
                    out.append(tuple(self.labels[k] for k in run[lo:hi]))
        return sorted(out)

    def maximal_veins(self) -> list[tuple[str, ...]]:
        runs = self.bridge_runs()
        covered = {k for run in runs for k in run}
        out = [tuple(self.labels[k] for k in run) for run in runs]
        out += [(self.labels[i],) for i in range(self.n) if i not in covered]
        return sorted(out)

    def nonbridge_covers(self) -> list[int]:
        bridges = self.bridges()
        return [self.ucov[i] & ~sum(1 << j for j in bits(self.ucov[i])
                                   if (i, j) in bridges)
                for i in range(self.n)]

    def pruned_above_closed(self) -> list[int]:
        """Reachability along covers that are not bridges."""
        adj = self.nonbridge_covers()
        reach = [0] * self.n
        for i in reversed(self.order):
            acc = 0
            for j in bits(adj[i]):
                acc |= (1 << j) | reach[j]
            reach[i] = acc
        return reach

    def pruned_covers_closed(self, reach: list[int]) -> set[tuple[str, str]]:
        """Covers of the pruned order: non-bridge covers not implied by others."""
        out = set()
        for i, adj in enumerate(self.nonbridge_covers()):
            implied = 0
            for j in bits(adj):
                implied |= reach[j]
            out.update((self.labels[i], self.labels[j]) for j in bits(adj & ~implied))
        return out

    def first_step(self, ix: int, iy: int, reach: list[int],
                   up: list[list[int]]) -> int | None:
        """First element of the least bridge-free cover path from x to y."""
        if not reach[ix] >> iy & 1:
            return None
        for j in up[ix]:
            if j == iy or reach[j] >> iy & 1:
                return j
        raise AssertionError("reachable but no step")

    def irreducible_closed(self, i: int) -> bool:
        return self.ucov[i].bit_count() <= 1

    def coirreducible_closed(self, i: int) -> bool:
        return self.dcov[i].bit_count() <= 1

    # ------------------------------------------------------------------
    # definition route (enumerates chains; small posets only)

    def all_chains(self) -> list[int]:
        out = []
        stack = [(1 << i, i) for i in range(self.n)]
        while stack:
            mask, top = stack.pop()
            out.append(mask)
            for j in bits(self.above[top]):
                stack.append((mask | 1 << j, j))
        return out

    def is_convex(self, mask: int) -> bool:
        for i in bits(mask):
            for j in bits(self.above[i] & mask):
                if self.above[i] & self.below[j] & ~mask:
                    return False
        return True

    def strict_vein_masks_def(self) -> list[int]:
        maximal = [sum(1 << k for k in c) for c in self.chain_masks()]
        return [c for c in self.all_chains()
                if c.bit_count() >= 2 and self.is_convex(c)
                and all(not (c & m) or not (c & ~m) for m in maximal)]

    def interval_paths(self, ix: int, iy: int):
        """Cover paths from x to y (the maximal chains of [x, y]), in order."""
        inside = (self.above[ix] | 1 << ix) & (self.below[iy] | 1 << iy)
        stack = [(ix, (ix,))]
        while stack:
            i, path = stack.pop()
            if i == iy:
                yield path
                continue
            for j in sorted(bits(self.ucov[i] & inside), reverse=True):
                stack.append((j, path + (j,)))

    def witness_def(self, ix: int, iy: int,
                    veins: list[int]) -> tuple[int, ...] | None:
        if not self.above[ix] >> iy & 1:
            return None
        for path in self.interval_paths(ix, iy):
            mask = sum(1 << k for k in path)
            if all(v & ~mask for v in veins):
                return path
        return None

    def irreducible_def(self, i: int) -> bool:
        up = self.above[i]
        for a in bits(up):
            low_a = self.below[a] | 1 << a
            for b in bits(up):
                if not low_a & (self.below[b] | 1 << b) & up:
                    return False
        return True

    def coirreducible_def(self, i: int) -> bool:
        down = self.below[i]
        for a in bits(down):
            up_a = self.above[a] | 1 << a
            for b in bits(down):
                if not up_a & (self.above[b] | 1 << b) & down:
                    return False
        return True
