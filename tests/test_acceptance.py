"""End-to-end acceptance checks over large seeded corpora.

Each test covers one numbered acceptance item and prints a single
summary line once every assertion in it has held. Items 01 to 09 run
the check bodies of :mod:`veinprune.suite`, the ones ``veinprune check``
runs, on their own corpora, and keep only the assertions the suite has
no counterpart for. Corpora are seeded, so repeated runs exercise
bit-for-bit identical posets. Time budgets are asserted where the item
pins one.
"""

from __future__ import annotations

import subprocess
import sys
import time

import pytest

import veinprune
from veinprune import (
    doubly_irreducibles,
    downset_corpus,
    emit_dot,
    emit_json,
    emit_text,
    fixtures,
    parse_json,
    parse_text,
    profiles,
    prune,
    pruning_leq,
    strict_veins,
    suite,
    PosetDocument,
)


def _report(capsys, num: int, text: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} PASS {text}")


def _holds(outcome: suite.CheckOutcome, checked: int | None = None) -> int:
    """Assert that a suite check found no violation; return its count.

    ``checked``, when given, is the number of instances it must have run.
    """
    assert outcome.ok, outcome.smallest()
    if checked is not None:
        assert outcome.checked == checked
    return outcome.checked


@pytest.fixture(scope="module")
def big_corpus():
    # 500 random posets up to 12 elements, plus the five fixtures
    return list(fixtures().values()) + veinprune.random_corpus(500, 12, seed=9127)


def test_acceptance_01_pruning_is_a_partial_order(big_corpus, capsys):
    started = time.perf_counter()
    # antisymmetry and transitivity of the pruned order
    _holds(suite._pruned_partial_order(big_corpus), len(big_corpus))
    for p in big_corpus:
        for x in p.labels:
            assert pruning_leq(p, x, x)                      # reflexive
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0
    _report(capsys, 1,
            f"partial order on {len(big_corpus)} posets in {elapsed:.2f}s")


def test_acceptance_02_prune_is_idempotent(big_corpus, capsys):
    # a fixpoint index of at most 1 is prune(prune(P)) == prune(P)
    _holds(suite._iterate_reaches_fixpoint(big_corpus), len(big_corpus))
    _report(capsys, 2, f"idempotent, fixpoint index <= 1 on "
                       f"{len(big_corpus)} posets")


def test_acceptance_03_families_are_connectivities(capsys):
    corpus = veinprune.random_corpus(200, 8, seed=57)
    # the suite skips posets above 8 elements, so every poset is counted
    _holds(suite._vein_connectivity(corpus), len(corpus))
    _holds(suite._irreducible_chain_connectivity(corpus), len(corpus))
    _report(capsys, 3, f"both families pass on {len(corpus)} posets")


def test_acceptance_04_covering_characterization(capsys):
    corpus = veinprune.random_corpus(200, 7, seed=58)
    corpus += [p for p in fixtures().values() if len(p) <= 7]
    # the suite skips posets with more than 16 maximal chains; none may be
    _holds(suite._covering_characterization(corpus), len(corpus))
    _report(capsys, 4,
            f"every chain agrees across {len(corpus)} posets")


def test_acceptance_05_veins_restrict_to_subposets(capsys):
    corpus = veinprune.random_corpus(1000, 10, seed=59)
    pairs = _holds(suite._vein_restriction(corpus, 59), 3 * len(corpus))
    _report(capsys, 5, f"{pairs} (P, Q) pairs verified")


def test_acceptance_06_modes_agree_and_fast_is_fast(big_corpus, capsys):
    _holds(suite._vein_modes_agree(big_corpus), len(big_corpus))
    _holds(suite._pruning_modes_agree(big_corpus),
           sum(len(p) ** 2 for p in big_corpus))

    # cold-cache timing at the largest size; reported, not gated
    twelve = [p for p in big_corpus if len(p) == 12][:15]

    def workload(mode: str) -> float:
        leq = pruning_leq if mode == "fast" else veinprune.oracle.pruning_leq
        total = 0.0
        for _ in range(20):
            # fresh posets: every memo lives on its poset, so this is cold
            posets = [veinprune.Poset.from_relations(p.labels, p.relations())
                      for p in twelve]
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


def test_acceptance_07_lemma_checks_hold(big_corpus, capsys):
    # one cover instance per strict pruned pair, and each such pair has at
    # least one witness chain, which is a chain instance
    cover_instances = _holds(
        suite._cover_inheritance_lemma(big_corpus),
        sum(len(prune(p).pruned.relations()) for p in big_corpus))
    chain_instances = _holds(suite._star_chain_lemma(big_corpus))
    assert chain_instances >= cover_instances
    _report(capsys, 7,
            f"{chain_instances} chain instances and "
            f"{cover_instances} cover instances hold")


def test_acceptance_08_irreducibles_survive_pruning(capsys):
    corpus = downset_corpus(300, 6, seed=61)
    # down-set lattices are conditionally complete, as the meet route needs
    _holds(suite._irreducible_preservation(corpus), len(corpus))
    _holds(suite._meet_equivalence(corpus), len(corpus))
    _report(capsys, 8,
            f"preservation and meet route agree on {len(corpus)} lattices")


def test_acceptance_09_fixture_facts(capsys):
    fx = fixtures()
    assert doubly_irreducibles(fx["B3"]) == frozenset()
    assert prune(fx["B3"]).pruned == fx["B3"]
    assert prune(fx["C3"]).pruned == veinprune.antichain_poset(3)
    assert prune(fx["Yp"]).pruned.relations() == (("b", "c"), ("b", "d"))
    _report(capsys, 9, "fixture facts hold")


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
    b3 = fixtures()["B3"]
    assert emit_dot(b3, profiles(b3)) == emit_dot(b3, profiles(b3))
    _report(capsys, 10,
            f"check ran in {elapsed:.2f}s; round trips and dot determinism hold")
