"""Seeded property suite: the library's structural facts as corpus checks.

run_suite draws a deterministic corpus (the named fixtures plus seeded
random posets, plus a down-set-lattice corpus for the conditionally
complete facts) and runs every order-theoretic claim the library makes
against it. Each failure carries a canonical JSON serialization of the
offending poset so it can be replayed by hand.

A check states its fact about one poset (and any further arguments,
such as the suite seed); :func:`_check` runs it over a corpus and names the CheckOutcome after the function, less its
underscore. ``checked`` counts instances, and each detail string is a
violation:

- a check that returns a detail or None is one instance per poset;
- a check that yields is one instance per entry, detail or None, and
  stops early only where it returns after a detail;
- TooLarge ends a poset's count there, so a returning check skips it.

The lemma checks that test the fast route, :func:`star_chain_check` and
:func:`cover_inheritance_check`, live here rather than in the oracle,
which must not depend on the route it checks; so does
:func:`vein_family`, the fast route's veins as a set family for the
connectivity facts. The acceptance tests run these same check bodies on
their own corpora.

The checks that ask one question per pair or per chain work on indices.
Each reads the tables it needs once per poset: ``_above`` (whose rows
give the pairs x < y), ``_below``, ``_ucov``, the fast route's pruned
poset and the oracle's memoized masks. Labels are built only for the
public functions these checks test (:func:`pruning.pruning_leq`,
:func:`pruning.pruning_witness` and the two lemma checks) and for the
detail strings. Each lemma check maps its labels to indices once and
reads the pruned poset's order table once per call.
``pruning_modes_agree`` compares the fast route's public queries, asked
once per ordered pair, with the oracle's witness search
(:func:`oracle._clean_chain_ix`), asked by index for each pair x < y.
"""

from __future__ import annotations

import functools
import inspect
import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import combinations

from . import families, formats, oracle, pruning, veins
from .connectivity import SetFamily
from .errors import PreconditionViolated, TooLarge
from .irreducibles import is_irreducible, preservation_report
from .poset import Poset, _bits, _interval


@dataclass(frozen=True)
class Violation:
    check: str
    poset: str
    detail: str
    size: int


@dataclass
class CheckOutcome:
    name: str
    checked: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def smallest(self) -> Violation | None:
        """The violation on the fewest elements, for counterexample reports."""
        if not self.violations:
            return None
        return min(self.violations, key=lambda v: (v.size, v.poset))


@dataclass
class SuiteResult:
    seed: int
    outcomes: list[CheckOutcome]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)


def _serialize(p: Poset) -> str:
    return formats.emit_json(formats.PosetDocument.from_poset(p))


def _check(fact):
    """Run the one-poset check ``fact`` over a corpus (module docstring)."""
    many = inspect.isgeneratorfunction(fact)

    @functools.wraps(fact)
    def run(posets: list[Poset], *args) -> CheckOutcome:
        out = CheckOutcome(fact.__name__.lstrip("_"))
        for p in posets:
            try:
                for detail in fact(p, *args) if many else [fact(p, *args)]:
                    out.checked += 1
                    if detail is not None:
                        out.violations.append(Violation(
                            out.name, _serialize(p), detail, len(p)))
            except TooLarge:
                continue
        return out
    return run


def _at_most(p: Poset, limit: int) -> None:
    if len(p) > limit:
        raise TooLarge(f"{len(p)} elements exceed the check's bound {limit}")


@_check
def _closure_roundtrip(p: Poset) -> str | None:
    if Poset.from_relations(list(p.labels), p.relations()) != p:
        return "rebuilding from the full relation changed the poset"
    if Poset.from_relations(list(p.labels), p.covers) != p:
        return "rebuilding from the cover pairs changed the poset"
    return None


@_check
def _serialization_roundtrip(p: Poset) -> str | None:
    doc = formats.PosetDocument.from_poset(p)
    if formats.parse_text(formats.emit_text(doc)).to_poset() != p:
        return "text round-trip changed the poset"
    if formats.parse_json(formats.emit_json(doc)).to_poset() != p:
        return "JSON round-trip changed the poset"
    return None


@_check
def _pruned_partial_order(p: Poset) -> str | None:
    rep = pruning.prune(p)
    q = rep.pruned
    if q.elements != p.elements:
        return "pruning changed the element set"
    # a cover of p stays a cover in the smaller order, and every cover
    # of the pruned poset is one of the non-bridge covers; so the
    # pruned order lies inside the order of p
    expected = set(p.covers) - veins.bridge_edges(p)
    got = set(q.covers)
    if got != expected:
        return (f"pruned covers {sorted(got)} are not the non-bridge "
                f"covers {sorted(expected)}")
    if rep.removed_relations != len(p.relations()) - len(q.relations()):
        return "removed_relations does not match the relation sets"
    return None


@_check
def _prune_opposite_commutes(p: Poset) -> str | None:
    if pruning.prune(p.opposite()).pruned != pruning.prune(p).pruned.opposite():
        return "pruning does not commute with opposite"
    return None


@_check
def _iterate_reaches_fixpoint(p: Poset) -> str | None:
    q = pruning.prune(p).pruned
    if pruning.prune(q).pruned != q:
        return "prune(prune(P)) differs from prune(P)"
    return None


@_check
def _vein_modes_agree(p: Poset) -> str | None:
    fast, slow = veins.strict_veins(p), oracle.strict_veins(p)
    if fast != slow:
        return f"fast strict veins {fast} != oracle {slow}"
    return None


@_check
def _pruning_modes_agree(p: Poset):
    # one instance per ordered pair, up to the poset's first disagreement;
    # the fast side is asked by label through its public queries, the
    # oracle only for the pairs x < y, as any other has no witness
    labels = p._labels
    leq, witness = pruning.pruning_leq, pruning.pruning_witness
    for ix, up in enumerate(p._above):
        x = labels[ix]
        for iy, y in enumerate(labels):
            fast = leq(p, x, y)
            wo = None
            if up >> iy & 1:
                seq = oracle._clean_chain_ix(p, ix, iy)
                if seq is not None:
                    wo = tuple(map(labels.__getitem__, seq))
            slow = ix == iy or wo is not None
            if fast != slow:
                yield (f"modes disagree on ({x!r}, {y!r}): "
                       f"fast={fast} oracle={slow}")
                return
            w = witness(p, x, y)
            wf = w.chain if w else None
            if wf != wo:
                yield (f"witnesses disagree on ({x!r}, {y!r}): "
                       f"fast={wf} oracle={wo}")
                return
            yield None


def star_chain_check(p: Poset, x: str, y: str, chain: Iterable[str]) -> bool:
    """A witness chain is itself a chain for the pruning order.

    Precondition: ``chain`` is a maximal chain of [x, y] containing no
    strict vein of the ambient poset (PreconditionViolated otherwise).
    Returns True iff every pair of its elements is pruning-comparable.
    """
    seq = p._chain_ix(chain)
    ix, iy = p._i(x), p._i(y)
    if seq[0] != ix or seq[-1] != iy:
        raise PreconditionViolated(
            f"the chain must run from {x!r} to {y!r}")
    ucov, labels = p._ucov, p._labels
    bridged = False
    for a, b in zip(seq, seq[1:]):
        if b not in ucov[a]:
            raise PreconditionViolated(
                f"{labels[a]!r} < {labels[b]!r} is not a cover, so the "
                "chain is not maximal in the interval")
        # a cover path contains a strict vein iff it crosses a bridge edge
        bridged = bridged or veins._is_bridge(p, a, b)
    if bridged:
        raise PreconditionViolated(
            "the chain contains a strict vein of the ambient poset")
    # every pair is pruning-comparable iff each element lies below, in the
    # pruned order, all those after it; the suffix masks go top down
    star = pruning._pruned(p)._above
    later = 0
    for a in reversed(seq):
        if star[a] & later != later:
            return False
        later |= 1 << a
    return True


def cover_inheritance_check(p: Poset, x: str, y: str) -> bool:
    """Covers inside [x, y] inherit the pruning relation from x <* y.

    Precondition: x <* y with x != y (PreconditionViolated otherwise).
    Returns True iff x <* c for every cover c of x inside [x, y], and
    c <* y for every c covered by y inside [x, y].
    """
    ix, iy = p._i(x), p._i(y)
    star = pruning._pruned(p)._above
    up = star[ix]
    if ix == iy or not up >> iy & 1:
        raise PreconditionViolated(
            f"{x!r} <* {y!r} with distinct endpoints is required")
    mask = p._interval_mask(ix, iy)
    for c in p._ucov[ix]:
        if mask >> c & 1 and not up >> c & 1:
            return False
    for c in p._dcov[iy]:
        if mask >> c & 1 and not star[c] >> iy & 1:
            return False
    return True


@_check
def _star_chain_lemma(p: Poset):
    # one instance per maximal chain of an interval meeting the precondition
    labels, above, below, ucov = p._labels, p._above, p._below, p._ucov
    for ix, up in enumerate(above):
        x = labels[ix]
        for iy in _bits(up):
            y = labels[iy]
            within = _interval(above, below, ix, iy)
            for path in oracle._interval_paths(ucov, ix, iy, within):
                m = tuple(map(labels.__getitem__, path))
                try:
                    ok = star_chain_check(p, x, y, m)
                except PreconditionViolated:
                    continue
                yield (None if ok else
                       f"star-chain fails on ({x!r}, {y!r}) via {m}")


@_check
def _cover_inheritance_lemma(p: Poset):
    # one instance per strict pair of the pruning order
    labels, star = p._labels, pruning._pruned(p)._above
    for ix, up in enumerate(p._above):
        for iy in _bits(up & star[ix]):
            x, y = labels[ix], labels[iy]
            yield (None if cover_inheritance_check(p, x, y)
                   else f"cover inheritance fails on ({x!r}, {y!r})")


def vein_family(p: Poset) -> SetFamily:
    """Every vein of the poset: all singletons plus the strict veins."""
    members: list[tuple[str, ...]] = [(x,) for x in p.labels]
    members.extend(veins.strict_veins(p))
    return SetFamily(p.labels, members)


@_check
def _vein_connectivity(p: Poset) -> str | None:
    _at_most(p, 8)
    fam = vein_family(p)
    if not fam.is_connectivity():
        return "vein family fails the connectivity axioms"
    if not fam.is_point_connected():
        return "vein family is missing a singleton"
    comps = {frozenset(c) for c in fam.components()}
    if comps != {frozenset(v) for v in veins.maximal_veins(p)}:
        return "components differ from maximal veins"
    for x in p.labels:
        if fam.component_of(x) not in fam:
            return f"component of {x!r} is not itself a member"
    # small grounds (at most 15 veins): the binary union closure must
    # match the exhaustive subfamily axiom it stands in for
    if len(p) <= 5 and not oracle.is_connectivity_exhaustive(fam):
        return "binary and exhaustive connectivity disagree"
    return None


@_check
def _irreducible_chain_connectivity(p: Poset) -> str | None:
    _at_most(p, 8)
    fam = oracle.irreducible_chain_family(p)
    maximal = oracle.maximal_irreducible_chains(p)
    if not fam.is_connectivity() or not fam.is_point_connected():
        return "irreducible chains fail the connectivity axioms"
    comps = {frozenset(c) for c in fam.components()}
    if comps != {frozenset(c) for c in maximal}:
        return "components differ from maximal irreducible chains"
    if len(p) <= 6:
        members = set(fam.members)
        for chain in maximal:
            for size in range(1, len(chain) + 1):
                for sub in combinations(chain, size):
                    if frozenset(sub) not in members:
                        return (f"subset {sub} of an irreducible chain "
                                f"is not irreducible")
    return None


@_check
def _covering_characterization(p: Poset) -> str | None:
    _at_most(p, 7)
    masks = oracle._maximal_chain_masks(p)
    for path in oracle._chain_paths(p, 16):
        cm = oracle._mask_of(path)
        direct = oracle._irreducible(masks, cm)
        covered = oracle._covering_form(masks, cm)
        if direct != covered:
            c = tuple(p._labels[k] for k in path)
            return f"chain {c}: direct={direct} covering={covered}"
    return None


@_check
def _vein_restriction(p: Poset, seed: int):
    # one instance per draw of three, seeded by the suite seed and the
    # poset; a meet of at most one element is a vein by definition, so
    # only the strict veins' longer meets are tested, each once, as veins
    # often meet the subset alike
    rng = random.Random(f"{seed}:restrict:{p.labels}:{p.covers}")
    strict = [frozenset(v) for v in veins.strict_veins(p)]
    for _ in range(3):
        subset = (frozenset(x for x in p.labels if rng.random() < 0.5)
                  or frozenset([rng.choice(p.labels)]))
        # each longer meet, to the first vein that gives it
        meets: dict[frozenset[str], frozenset[str]] = {}
        for v in strict:
            if len(v & subset) > 1:
                meets.setdefault(v & subset, v)
        sub = oracle.induced_subposet(p, subset) if meets else None
        bad = next((v for meet, v in meets.items()
                    if not oracle.is_vein(sub, meet)), None)
        yield None if bad is None else (
            f"vein {sorted(bad)} restricted to {sorted(subset)} "
            f"is not a vein of the subposet")


@_check
def _irreducible_preservation(p: Poset) -> str | None:
    if not preservation_report(p).preserved:
        return "irreducibility flags changed under pruning"
    return None


@_check
def _meet_equivalence(p: Poset) -> str | None:
    # the cover test and the meet scan decide completeness apart; where
    # both call the poset complete, the two irreducibility tests must agree
    complete = p.is_conditionally_complete()
    if complete != (oracle._proper_meets(p) is not None):
        return ("the cover test calls the poset conditionally complete, "
                "the meet scan does not" if complete else
                "the meet scan calls the poset conditionally complete, "
                "the cover test does not")
    if not complete:
        return None
    for x in p.labels:
        if is_irreducible(p, x) != oracle.is_irreducible_via_meet(p, x):
            return f"filter and meet irreducibility disagree on {x!r}"
    return None


def run_suite(seed: int = 42, count: int = 100,
              max_size: int = 10) -> SuiteResult:
    """Run every check against a seeded corpus; deterministic per seed."""
    fixed = list(families.fixtures().values())
    main = fixed + families.random_corpus(count, max_size, seed)
    lattices = families.downset_corpus(max(5, count // 10),
                                       min(5, max_size), seed + 1)
    every = list(dict.fromkeys(main + lattices))
    outcomes = [
        _closure_roundtrip(main),
        _serialization_roundtrip(main),
        _pruned_partial_order(main),
        _prune_opposite_commutes(main),
        _iterate_reaches_fixpoint(main),
        _vein_modes_agree(main),
        _pruning_modes_agree(main),
        _star_chain_lemma(main),
        _cover_inheritance_lemma(main),
        _vein_connectivity(main),
        _irreducible_chain_connectivity(main),
        _covering_characterization(main),
        _vein_restriction(main, seed),
        _irreducible_preservation(every),
        _meet_equivalence(every),
    ]
    return SuiteResult(seed, outcomes)
