"""Seeded property suite: the library's structural facts as corpus checks.

run_suite draws a deterministic corpus (the named fixtures plus seeded
random posets, plus a down-set-lattice corpus for the conditionally
complete facts) and runs every order-theoretic claim the library makes
against it. Each failure carries a canonical JSON serialization of the
offending poset so it can be replayed by hand.

The lemma checks that test the fast route, :func:`star_chain_check` and
:func:`cover_inheritance_check`, live here rather than in the oracle,
which must not depend on the route it checks. The acceptance tests run
these same check bodies on their own corpora.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import combinations, product

from . import families, formats, oracle, pruning, veins
from .errors import PreconditionViolated, TooLarge
from .irreducibles import is_irreducible, is_irreducible_via_meet, preservation_report
from .poset import Poset, _bits


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


def _offend(out: CheckOutcome, p: Poset, detail: str) -> None:
    out.violations.append(Violation(out.name, _serialize(p), detail, len(p)))


def _closure_roundtrip(posets: list[Poset]) -> CheckOutcome:
    out = CheckOutcome("closure_roundtrip")
    for p in posets:
        out.checked += 1
        if Poset.from_relations(list(p.labels), p.relations()) != p:
            _offend(out, p, "rebuilding from the full relation changed the poset")
        elif Poset.from_relations(list(p.labels), p.covers) != p:
            _offend(out, p, "rebuilding from the cover pairs changed the poset")
    return out


def _serialization_roundtrip(posets: list[Poset]) -> CheckOutcome:
    out = CheckOutcome("serialization_roundtrip")
    for p in posets:
        out.checked += 1
        doc = formats.PosetDocument.from_poset(p)
        if formats.parse_text(formats.emit_text(doc)).to_poset() != p:
            _offend(out, p, "text round-trip changed the poset")
        elif formats.parse_json(formats.emit_json(doc)).to_poset() != p:
            _offend(out, p, "JSON round-trip changed the poset")
        elif formats.emit_dot(p) != formats.emit_dot(p):
            _offend(out, p, "DOT emission is not deterministic")
    return out


def _pruned_partial_order(posets: list[Poset]) -> CheckOutcome:
    out = CheckOutcome("pruned_partial_order")
    for p in posets:
        out.checked += 1
        rep = pruning.prune(p)
        q = rep.pruned
        if q.elements != p.elements:
            _offend(out, p, "pruning changed the element set")
            continue
        # a cover of p stays a cover in the smaller order, and every cover
        # of the pruned poset is one of the non-bridge covers; so the
        # pruned order lies inside the order of p
        expected = set(p.covers) - veins.bridge_edges(p)
        got = set(q.covers)
        if got != expected:
            _offend(out, p,
                    f"pruned covers {sorted(got)} are not the non-bridge "
                    f"covers {sorted(expected)}")
        elif rep.removed_relations != len(p.relations()) - len(q.relations()):
            _offend(out, p, "removed_relations does not match the relation sets")
    return out


def _prune_opposite_commutes(posets: list[Poset]) -> CheckOutcome:
    out = CheckOutcome("prune_opposite_commutes")
    for p in posets:
        out.checked += 1
        if pruning.prune(p.opposite()).pruned != pruning.prune(p).pruned.opposite():
            _offend(out, p, "pruning does not commute with opposite")
    return out


def _iterate_reaches_fixpoint(posets: list[Poset]) -> CheckOutcome:
    out = CheckOutcome("iterate_reaches_fixpoint")
    for p in posets:
        out.checked += 1
        q = pruning.prune(p).pruned
        if pruning.prune(q).pruned != q:
            _offend(out, p, "prune(prune(P)) differs from prune(P)")
    return out


def _vein_modes_agree(posets: list[Poset]) -> CheckOutcome:
    out = CheckOutcome("vein_modes_agree")
    for p in posets:
        out.checked += 1
        fast = veins.strict_veins(p)
        slow = oracle.strict_veins(p)
        if fast != slow:
            _offend(out, p, f"fast strict veins {fast} != oracle {slow}")
    return out


def _pruning_modes_agree(posets: list[Poset]) -> CheckOutcome:
    out = CheckOutcome("pruning_modes_agree")
    for p in posets:
        for x, y in product(p.labels, repeat=2):
            out.checked += 1
            fast = pruning.pruning_leq(p, x, y)
            wo = oracle.clean_chain(p, x, y)
            slow = x == y or wo is not None
            if fast != slow:
                _offend(out, p,
                        f"modes disagree on ({x!r}, {y!r}): "
                        f"fast={fast} oracle={slow}")
                break
            w = pruning.pruning_witness(p, x, y)
            wf = w.chain if w else None
            if wf != wo:
                _offend(out, p,
                        f"witnesses disagree on ({x!r}, {y!r}): "
                        f"fast={wf} oracle={wo}")
                break
    return out


def star_chain_check(p: Poset, x: str, y: str, chain: Iterable[str]) -> bool:
    """A witness chain is itself a chain for the pruning order.

    Precondition: ``chain`` is a maximal chain of [x, y] containing no
    strict vein of the ambient poset (PreconditionViolated otherwise).
    Returns True iff every pair of its elements is pruning-comparable.
    """
    seq = p.as_chain(chain)
    ix, iy = p._i(x), p._i(y)
    if seq[0] != x or seq[-1] != y:
        raise PreconditionViolated(
            f"the chain must run from {x!r} to {y!r}")
    for a, b in zip(seq, seq[1:]):
        if not p._ucov[p._i(a)] >> p._i(b) & 1:
            raise PreconditionViolated(
                f"{a!r} < {b!r} is not a cover, so the chain is not "
                "maximal in the interval")
    # a cover path contains a strict vein iff it crosses a bridge edge
    bridges = veins._bridge_pairs_ix(p)
    if any((p._i(a), p._i(b)) in bridges for a, b in zip(seq, seq[1:])):
        raise PreconditionViolated(
            "the chain contains a strict vein of the ambient poset")
    return all(pruning.pruning_leq(p, seq[i], seq[j])
               for i in range(len(seq)) for j in range(i + 1, len(seq)))


def cover_inheritance_check(p: Poset, x: str, y: str) -> bool:
    """Covers inside [x, y] inherit the pruning relation from x <* y.

    Precondition: x <* y with x != y (PreconditionViolated otherwise).
    Returns True iff x <* c for every cover c of x inside [x, y], and
    c <* y for every c covered by y inside [x, y].
    """
    ix, iy = p._i(x), p._i(y)
    if ix == iy or not pruning.pruning_leq(p, x, y):
        raise PreconditionViolated(
            f"{x!r} <* {y!r} with distinct endpoints is required")
    mask = p._interval_mask(ix, iy)
    for c in _bits(p._ucov[ix] & mask):
        if not pruning.pruning_leq(p, x, p._labels[c]):
            return False
    for c in _bits(p._dcov[iy] & mask):
        if not pruning.pruning_leq(p, p._labels[c], y):
            return False
    return True


def _star_chain_lemma(posets: list[Poset]) -> CheckOutcome:
    out = CheckOutcome("star_chain_lemma")
    for p in posets:
        for x, y in p.relations():
            for m in p.maximal_chains_in_interval(x, y):
                try:
                    ok = star_chain_check(p, x, y, m)
                except PreconditionViolated:
                    continue
                out.checked += 1
                if not ok:
                    _offend(out, p, f"star-chain fails on ({x!r}, {y!r}) via {m}")
    return out


def _cover_inheritance_lemma(posets: list[Poset]) -> CheckOutcome:
    out = CheckOutcome("cover_inheritance_lemma")
    for p in posets:
        for x, y in p.relations():
            if not pruning.pruning_leq(p, x, y):
                continue
            out.checked += 1
            if not cover_inheritance_check(p, x, y):
                _offend(out, p, f"cover inheritance fails on ({x!r}, {y!r})")
    return out


def _vein_connectivity(posets: list[Poset], limit: int = 8) -> CheckOutcome:
    out = CheckOutcome("vein_connectivity")
    for p in posets:
        if len(p) > limit:
            continue
        out.checked += 1
        fam = veins.vein_family(p)
        if not fam.is_connectivity():
            _offend(out, p, "vein family fails the connectivity axioms")
            continue
        if not fam.is_point_connected():
            _offend(out, p, "vein family is missing a singleton")
            continue
        comps = {frozenset(c) for c in fam.components()}
        if comps != {frozenset(v) for v in veins.maximal_veins(p)}:
            _offend(out, p, "components differ from maximal veins")
            continue
        for x in p.labels:
            if fam.component_of(x) not in fam:
                _offend(out, p, f"component of {x!r} is not itself a member")
                break
        else:
            # small grounds: the binary union closure must match the
            # exhaustive subfamily axiom it stands in for
            if len(p) <= 5 and not oracle.is_connectivity_exhaustive(fam):
                _offend(out, p, "binary and exhaustive connectivity disagree")
    return out


def _irreducible_chain_connectivity(posets: list[Poset],
                                    limit: int = 8) -> CheckOutcome:
    out = CheckOutcome("irreducible_chain_connectivity")
    for p in posets:
        if len(p) > limit:
            continue
        try:
            fam = oracle.irreducible_chain_family(p)
            maximal = oracle.maximal_irreducible_chains(p)
        except TooLarge:
            continue
        out.checked += 1
        if not fam.is_connectivity() or not fam.is_point_connected():
            _offend(out, p, "irreducible chains fail the connectivity axioms")
            continue
        comps = {frozenset(c) for c in fam.components()}
        if comps != {frozenset(c) for c in maximal}:
            _offend(out, p, "components differ from maximal irreducible chains")
            continue
        if len(p) <= 6:
            members = set(fam.members)
            for chain in maximal:
                for size in range(1, len(chain) + 1):
                    for sub in combinations(chain, size):
                        if frozenset(sub) not in members:
                            _offend(out, p,
                                    f"subset {sub} of an irreducible chain "
                                    f"is not irreducible")
                            break
                    else:
                        continue
                    break
                else:
                    continue
                break
    return out


def _covering_characterization(posets: list[Poset],
                               limit: int = 7) -> CheckOutcome:
    out = CheckOutcome("covering_characterization")
    for p in posets:
        if len(p) > limit:
            continue
        try:
            chains = oracle.all_chains(p)
        except TooLarge:
            continue
        counted = True
        for c in chains:
            direct = oracle.is_irreducible_chain(p, c)
            try:
                covered = oracle.check_covering_characterization(p, c)
            except TooLarge:
                counted = False
                break
            if direct != covered:
                _offend(out, p,
                        f"chain {c}: direct={direct} covering={covered}")
                break
        if counted:
            out.checked += 1
    return out


def _vein_restriction(posets: list[Poset], seed: int,
                      draws: int = 3) -> CheckOutcome:
    out = CheckOutcome("vein_restriction")
    for i, p in enumerate(posets):
        rng = random.Random(f"{seed}:restrict:{i}")
        all_veins = veins.vein_family(p).members
        for _ in range(draws):
            subset = frozenset(x for x in p.labels if rng.random() < 0.5)
            if not subset:
                subset = frozenset([rng.choice(p.labels)])
            sub = p.induced_subposet(subset)
            out.checked += 1
            for v in all_veins:
                meet = v & subset
                if meet and not oracle.is_vein(sub, meet):
                    _offend(out, p,
                            f"vein {sorted(v)} restricted to {sorted(subset)} "
                            f"is not a vein of the subposet")
                    break
    return out


def _irreducible_preservation(posets: list[Poset]) -> CheckOutcome:
    out = CheckOutcome("irreducible_preservation")
    for p in posets:
        out.checked += 1
        rep = preservation_report(p)
        if not rep.preserved:
            _offend(out, p, "irreducibility flags changed under pruning")
    return out


def _meet_equivalence(posets: list[Poset]) -> CheckOutcome:
    out = CheckOutcome("meet_equivalence")
    for p in posets:
        out.checked += 1
        for x in p.labels:
            via_filter = is_irreducible(p, x)
            via_meet = is_irreducible_via_meet(p, x)
            if via_filter != via_meet:
                _offend(out, p,
                        f"filter and meet irreducibility disagree on {x!r}")
                break
    return out


def run_suite(seed: int = 42, count: int = 100,
              max_size: int = 10) -> SuiteResult:
    """Run every check against a seeded corpus; deterministic per seed."""
    fixed = list(families.fixtures().values())
    main = fixed + families.random_corpus(count, max_size, seed)
    lattices = families.downset_corpus(max(5, count // 10),
                                       min(5, max_size), seed + 1)
    every = list(dict.fromkeys(main + lattices))
    complete = [p for p in every if p.is_conditionally_complete()]
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
        _meet_equivalence(complete),
    ]
    return SuiteResult(seed, outcomes)
