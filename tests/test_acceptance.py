"""End-to-end acceptance checks over large seeded corpora.

Each test covers one numbered acceptance item and prints a single
summary line once every assertion in it has held. Corpora are seeded,
so repeated runs exercise bit-for-bit identical posets. Time budgets
are asserted where the item pins one.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

import pytest

import veinprune
from veinprune import (
    all_chains,
    check_covering_characterization,
    cover_inheritance_check,
    doubly_irreducibles,
    downset_corpus,
    emit_dot,
    emit_json,
    emit_text,
    fixtures,
    irreducible_chain_family,
    is_irreducible,
    is_irreducible_chain,
    is_irreducible_via_meet,
    is_vein,
    iterate_prune,
    maximal_irreducible_chains,
    maximal_veins,
    parse_json,
    parse_text,
    preservation_report,
    prune,
    pruning_leq,
    star_chain_check,
    strict_veins,
    vein_family,
    PosetDocument,
    PreconditionViolated,
)


def _report(capsys, num: int, text: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} PASS {text}")


@pytest.fixture(scope="module")
def big_corpus():
    # 500 random posets up to 12 elements, plus the five fixtures
    return list(fixtures().values()) + veinprune.random_corpus(500, 12, seed=9127)


@pytest.fixture(scope="module")
def star_relations(big_corpus):
    # strict pruning-order pairs per poset, shared by several items
    out = []
    for p in big_corpus:
        rel = {x: {y for y in p.labels if x != y and pruning_leq(p, x, y)}
               for x in p.labels}
        out.append((p, rel))
    return out


def test_acceptance_01_pruning_is_a_partial_order(big_corpus, capsys):
    started = time.perf_counter()
    for p in big_corpus:
        rel = {x: {y for y in p.labels if x != y and pruning_leq(p, x, y)}
               for x in p.labels}
        for x in p.labels:
            assert pruning_leq(p, x, x)                      # reflexive
            for y in rel[x]:
                assert x not in rel[y]                       # antisymmetric
                assert rel[y] <= rel[x]                      # transitive
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0
    _report(capsys, 1,
            f"partial order on {len(big_corpus)} posets in {elapsed:.2f}s")


def test_acceptance_02_prune_is_idempotent(big_corpus, capsys):
    for p in big_corpus:
        once = prune(p).pruned
        twice = prune(once).pruned
        assert set(twice.relations()) == set(once.relations())
        assert twice == once
    _report(capsys, 2, f"idempotent on {len(big_corpus)} posets")


def test_acceptance_03_families_are_connectivities(capsys):
    corpus = veinprune.random_corpus(200, 8, seed=57)
    assert all(len(p) <= 8 for p in corpus)
    for p in corpus:
        veins = vein_family(p)
        chains = irreducible_chain_family(p)
        for fam in (veins, chains):
            assert fam.is_connectivity()
            assert fam.is_point_connected()
        assert set(veins.components()) == \
            {frozenset(v) for v in maximal_veins(p)}
        assert set(chains.components()) == \
            {frozenset(c) for c in maximal_irreducible_chains(p)}
    _report(capsys, 3, f"both families pass on {len(corpus)} posets")


def test_acceptance_04_covering_characterization(capsys):
    corpus = veinprune.random_corpus(200, 7, seed=58)
    corpus += [p for p in fixtures().values() if len(p) <= 7]
    checked = 0
    for p in corpus:
        for chain in all_chains(p):
            assert check_covering_characterization(p, chain) == \
                is_irreducible_chain(p, chain)
            checked += 1
    _report(capsys, 4,
            f"{checked} chains across {len(corpus)} posets agree")


def test_acceptance_05_veins_restrict_to_subposets(capsys):
    corpus = veinprune.random_corpus(1000, 10, seed=59)
    for i, p in enumerate(corpus):
        rng = random.Random(f"59:subset:{i}")
        subset = {x for x in p.labels if rng.random() < 0.5}
        if not subset:
            subset = {rng.choice(p.labels)}
        q = p.induced_subposet(subset)
        for v in vein_family(p).members:
            common = v & subset
            if common:
                assert is_vein(q, common)
    _report(capsys, 5, f"{len(corpus)} (P, Q) pairs verified")


def test_acceptance_06_modes_agree_and_fast_is_fast(big_corpus, capsys):
    for p in big_corpus:
        assert strict_veins(p, mode="fast") == strict_veins(p, mode="oracle")
        for x in p.labels:
            for y in p.labels:
                assert pruning_leq(p, x, y) == \
                    veinprune.oracle.pruning_leq(p, x, y)

    # cold-cache timing at the largest size; reported, not gated
    twelve = [p for p in big_corpus if len(p) == 12][:15]

    def workload(mode: str) -> float:
        leq = pruning_leq if mode == "fast" else veinprune.oracle.pruning_leq
        total = 0.0
        for _ in range(20):
            posets = [veinprune.Poset.from_relations(p.labels, p.relations())
                      for p in twelve]
            veinprune.clear_caches()
            started = time.perf_counter()
            for p in posets:
                strict_veins(p, mode=mode)
                for x in p.labels:
                    for y in p.labels:
                        leq(p, x, y)
            total += time.perf_counter() - started
        return total

    fast = workload("fast")
    oracle = workload("oracle")
    ratio = oracle / fast if fast > 0 else float("inf")
    _report(capsys, 6,
            f"zero disagreements on {len(big_corpus)} posets; "
            f"fast {ratio:.0f}x faster at n=12 "
            f"({len(twelve)} posets: {oracle:.3f}s vs {fast:.3f}s)")


def test_acceptance_07_lemma_checks_hold(star_relations, capsys):
    chain_instances = 0
    cover_instances = 0
    for p, rel in star_relations:
        for x in p.labels:
            for y in rel[x]:
                assert cover_inheritance_check(p, x, y)
                cover_instances += 1
            for y in p.labels:
                if x == y or not p.lt(x, y):
                    continue
                for chain in p.maximal_chains_in_interval(x, y):
                    try:
                        ok = star_chain_check(p, x, y, chain)
                    except PreconditionViolated:
                        continue
                    assert ok
                    chain_instances += 1
    _report(capsys, 7,
            f"{chain_instances} chain instances and "
            f"{cover_instances} cover instances hold")


def test_acceptance_08_irreducibles_survive_pruning(capsys):
    corpus = downset_corpus(300, 6, seed=61)
    for p in corpus:
        rep = preservation_report(p)
        assert rep.hypothesis_met
        assert rep.preserved
        for x in p.labels:
            assert is_irreducible_via_meet(p, x) == is_irreducible(p, x)
    _report(capsys, 8,
            f"preservation and meet route agree on {len(corpus)} lattices")


def test_acceptance_09_fixture_facts(big_corpus, capsys):
    fx = fixtures()
    assert doubly_irreducibles(fx["B3"]) == frozenset()
    assert prune(fx["B3"]).pruned == fx["B3"]
    assert prune(fx["C3"]).pruned == veinprune.antichain_poset(3)
    assert prune(fx["Yp"]).pruned.relations() == (("b", "c"), ("b", "d"))
    for p in big_corpus:
        assert iterate_prune(p).fixpoint_index in (0, 1)
    _report(capsys, 9,
            f"fixture facts hold; fixpoint index <= 1 on "
            f"{len(big_corpus)} posets")


def test_acceptance_10_cli_contract(tmp_path, capsys):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "veinprune.cli", "check",
         "--seed", "42", "--count", "100", "--max-size", "10"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed <= 120.0
    assert "checks passed (seed 42)" in proc.stdout

    for name, p in fixtures().items():
        doc = PosetDocument.from_poset(p, name=name)
        assert parse_text(emit_text(doc)).to_poset() == p
        assert parse_json(emit_json(doc)).to_poset() == p

    sample = tmp_path / "b3.json"
    sample.write_text(emit_json(PosetDocument.from_poset(fixtures()["B3"])))
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "veinprune.cli", "dot", str(sample)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert emit_dot(fixtures()["B3"]) == emit_dot(fixtures()["B3"])
    _report(capsys, 10,
            f"check ran in {elapsed:.2f}s; round trips and dot determinism hold")
