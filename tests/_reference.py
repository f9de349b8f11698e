"""Definition-level reference used to cross-check the package.

Everything here is computed straight from the definitions by brute force
over explicit relation sets, with no shared code: posets are (elements,
strict relation) pairs, chains are enumerated as subsets, and the pruning
order quantifies over maximal chains of interval subposets literally.
Exponential and proud of it; keep inputs small.
"""

from __future__ import annotations

from itertools import combinations


def close(elements, pairs):
    """Transitive closure; raises on cycles and self-pairs."""
    rel = set(pairs)
    for a, b in pairs:
        if a == b:
            raise ValueError("self pair")
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    for a, b in rel:
        if (b, a) in rel:
            raise ValueError("cycle")
    return frozenset(rel)


class P:
    def __init__(self, elements, pairs):
        self.E = frozenset(elements)
        self.R = close(elements, pairs)
        self._maximal = None  # maximal_chains(), enumerated once
        self._strict = None  # strict_veins(), enumerated once

    def leq(self, x, y):
        return x == y or (x, y) in self.R

    def lt(self, x, y):
        return (x, y) in self.R

    def covers(self):
        out = set()
        for (x, y) in self.R:
            if not any((x, z) in self.R and (z, y) in self.R for z in self.E):
                out.add((x, y))
        return out

    def interval(self, x, y):
        return frozenset(z for z in self.E if self.leq(x, z) and self.leq(z, y))

    def is_chain(self, s):
        s = frozenset(s)
        return bool(s) and all(self.leq(a, b) or self.leq(b, a)
                               for a in s for b in s)

    def is_convex(self, s):
        s = frozenset(s)
        return all(self.interval(a, b) <= s for a in s for b in s
                   if self.leq(a, b))

    def all_chains(self):
        out = []
        elems = sorted(self.E)
        for r in range(1, len(elems) + 1):
            for c in combinations(elems, r):
                if self.is_chain(c):
                    out.append(frozenset(c))
        return out

    def maximal_chains(self):
        if self._maximal is None:
            chains = self.all_chains()
            self._maximal = [c for c in chains
                             if not any(c < d for d in chains)]
        return self._maximal

    def is_irreducible_chain(self, c):
        c = frozenset(c)
        assert self.is_chain(c)
        return all(c <= m for m in self.maximal_chains() if c & m)

    def is_vein(self, c):
        c = frozenset(c)
        return self.is_chain(c) and self.is_convex(c) and self.is_irreducible_chain(c)

    def veins(self):
        return [c for c in self.all_chains() if self.is_vein(c)]

    def strict_veins(self):
        if self._strict is None:
            self._strict = [v for v in self.veins() if len(v) >= 2]
        return self._strict

    def maximal_veins(self):
        vs = self.veins()
        return [v for v in vs if not any(v < w for w in vs)]

    def sub(self, s):
        s = frozenset(s)
        return P(s, [(a, b) for (a, b) in self.R if a in s and b in s])

    def maximal_chains_in_interval(self, x, y):
        assert self.leq(x, y)
        return self.sub(self.interval(x, y)).maximal_chains()

    def pruning_leq(self, x, y):
        if x == y:
            return True
        if not self.lt(x, y):
            return False
        sv = self.strict_veins()
        for m in self.maximal_chains_in_interval(x, y):
            if not any(v <= m for v in sv):
                return True
        return False

    def prune(self):
        return P(self.E, [(x, y) for x in self.E for y in self.E
                          if x != y and self.pruning_leq(x, y)])

    def meet(self, a, b):
        lower = [z for z in self.E if self.leq(z, a) and self.leq(z, b)]
        tops = [z for z in lower if not any(self.lt(z, w) for w in lower)]
        return tops[0] if len(tops) == 1 else None

    def join(self, a, b):
        upper = [z for z in self.E if self.leq(a, z) and self.leq(b, z)]
        bots = [z for z in upper if not any(self.lt(w, z) for w in upper)]
        return bots[0] if len(bots) == 1 else None

    def conditionally_complete(self):
        for a in self.E:
            for b in self.E:
                if any(self.leq(z, a) and self.leq(z, b) for z in self.E) \
                        and self.meet(a, b) is None:
                    return False
                if any(self.leq(a, z) and self.leq(b, z) for z in self.E) \
                        and self.join(a, b) is None:
                    return False
        return True

    def is_filter(self, s):
        s = frozenset(s)
        if not s:
            return True
        for x in s:  # up-closed
            for y in self.E:
                if self.lt(x, y) and y not in s:
                    return False
        for a in s:  # down-directed within s
            for b in s:
                if not any(self.leq(c, a) and self.leq(c, b) for c in s):
                    return False
        return True

    def is_irreducible(self, x):
        if not any(self.lt(x, y) for y in self.E):
            return True
        return self.is_filter(frozenset(y for y in self.E if self.lt(x, y)))

    def is_coirreducible(self, x):
        return P(self.E, [(b, a) for (a, b) in self.R]).is_irreducible(x)

    def __eq__(self, other):
        return self.E == other.E and self.R == other.R


def mirror(p):
    """Reference twin of a package poset."""
    return P(p.labels, p.relations())


def fam_is_connectivity_exhaustive(ground, members):
    members = sorted({frozenset(m) for m in members}, key=sorted)
    if not members:
        return False
    if frozenset().union(*members) != frozenset(ground):
        return False
    for picks in range(1, 1 << len(members)):
        chosen = [members[i] for i in range(len(members)) if picks >> i & 1]
        if frozenset.intersection(*chosen):
            if frozenset().union(*chosen) not in members:
                return False
    return True


def bridge_edges_by_degree(p):
    """Covers whose lower end covers nothing else and upper end is covered
    by nothing else.  Degree counting only; no chain machinery."""
    cov = p.covers()
    out = set()
    for (x, y) in cov:
        if sum(1 for (a, b) in cov if a == x) == 1 \
                and sum(1 for (a, b) in cov if b == y) == 1:
            out.add((x, y))
    return out


class Fault(Exception):
    """The first fault the reference finds in an input: the name of the
    package's exception for it, its message and its line (or None)."""

    def __init__(self, kind, message, line=None):
        super().__init__(kind, message, line)
        self.kind, self.message, self.line = kind, message, line

    def agrees(self, exc, pairs):
        """Whether the package's exception ``exc`` reports this fault: the
        same type, message and line, or, for a cycle found by a walk, some
        cycle of the declared ``pairs``."""
        if (type(exc).__name__ != self.kind
                or getattr(exc, "line", None) != self.line):
            return False
        if self.message is None:
            cycle = exc.cycle
            return (cycle[0] == cycle[-1]
                    and set(zip(cycle, cycle[1:])) <= set(pairs))
        prefix = "" if self.line is None else f"line {self.line}: "
        return str(exc) == prefix + self.message


def parse_relation_text(text):
    """Labels and pairs of the relation text format, one line at a time.

    The rules of the ``veinprune.formats`` docstring read literally: a
    comment runs from '#' to the end of its line, a statement is one label
    or two labels around one '<', and a label is a nonempty run of
    characters none of which is whitespace, '<' or '#'. The first bad line
    raises Fault("ParseError", ...) with the package's wording.
    """
    labels, pairs = [], []

    def token(s):
        return s != "" and not any(c.isspace() or c in "<#" for c in s)

    for number, raw in enumerate(text.splitlines(), 1):
        statement = raw.split("#", 1)[0].strip()
        if statement == "":
            continue
        sides = statement.split("<")
        if len(sides) > 2:
            raise Fault("ParseError", "expected a single relation 'A < B'",
                        number)
        if len(sides) == 2:
            a, b = (side.strip() for side in sides)
            if not (token(a) and token(b)):
                raise Fault("ParseError",
                            f"bad label in relation {statement!r}", number)
            labels += [a, b]
            pairs.append((a, b))
        elif token(statement):
            labels.append(statement)
        else:
            raise Fault("ParseError", "an element declaration must be a "
                        f"single token, got {statement!r}", number)
    return labels, pairs


def relation_fault(labels, pairs):
    """Raise the first fault of a labelled relation, as it is read: a label
    declared twice, then each pair in turn (an unknown lower label, an
    unknown upper label, a label related to itself), then a cycle, whose
    message names the cycle the package found and is not checked here."""
    for k, x in enumerate(labels):
        if x in labels[:k]:
            raise Fault("DuplicateLabel", f"duplicate label {x!r}")
    for a, b in pairs:
        for x in (a, b):
            if x not in labels:
                raise Fault("UnknownLabel", f"unknown label {x!r}")
        if a == b:
            raise Fault("CycleDetected",
                        f"relation contains a cycle: {a} < {a}")
    try:
        close(labels, pairs)
    except ValueError:
        raise Fault("CycleDetected", None) from None
