from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import veinprune
import veinprune.cli
from veinprune import PosetDocument, emit_text, fixtures, random_poset
from veinprune.cli import cli

YP_TEXT = "a < b\nb < c\nb < d\n"
C3_TEXT = "a < b\nb < c\n"


@pytest.fixture
def yp_file(tmp_path):
    path = tmp_path / "yp.txt"
    path.write_text(YP_TEXT)
    return str(path)


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text(C3_TEXT)
    return str(path)


def test_info(yp_file, capsys):
    assert cli(["info", yp_file]) == 0
    out = capsys.readouterr().out
    assert "elements: 4" in out
    assert "cover pairs: 3" in out
    assert "maximal chains: 2" in out
    assert "conditionally complete: yes" in out


def test_info_prints_a_documents_name_first(yp_file, tmp_path, capsys):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"name": "Yp", "elements": list("abcd"),
                                "covers": [["a", "b"], ["b", "c"],
                                           ["b", "d"]]}))
    assert cli(["info", str(path)]) == 0
    named = capsys.readouterr().out.splitlines()
    assert named[:2] == ["name: Yp", "elements: 4"]
    assert cli(["info", yp_file]) == 0  # a relation text carries no name
    assert capsys.readouterr().out.splitlines() == named[1:]


def test_info_reads_stdin(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(C3_TEXT))
    assert cli(["info", "-"]) == 0
    assert "elements: 3" in capsys.readouterr().out


def test_veins(yp_file, capsys):
    assert cli(["veins", yp_file]) == 0
    out = capsys.readouterr().out
    assert "strict veins (1):" in out
    assert "a b" in out
    assert "maximal veins (3):" in out


def test_veins_oracle_mode(yp_file, capsys):
    assert cli(["veins", "--mode", "oracle", yp_file]) == 0
    assert "a b" in capsys.readouterr().out


@pytest.fixture
def route_files(tmp_path, capsys):
    """The fixtures and three random 9-element posets, as text files."""
    texts = {name: emit_text(PosetDocument.from_poset(p))
             for name, p in fixtures().items()}
    for seed in range(3):
        assert cli(["gen", "random", "--size", "9", "--seed", str(seed)]) == 0
        texts[f"random{seed}"] = capsys.readouterr().out
    paths = []
    for name, text in texts.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths.append(str(path))
    return paths


def _run(argv, capsys) -> str:
    assert cli(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [["veins"], ["prune"],
                                  ["prune", "--format", "json"], ["iterate"]])
def test_oracle_mode_prints_what_fast_prints(argv, route_files, capsys):
    for path in route_files:
        fast = _run(argv + [path], capsys)
        assert _run(argv + ["--mode", "oracle", path], capsys) == fast


def test_unknown_mode_is_input_error(yp_file, capsys):
    assert cli(["prune", "--mode", "quick", yp_file]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_prune_text(yp_file, capsys):
    assert cli(["prune", yp_file]) == 0
    out = capsys.readouterr().out
    assert out == "a\nb < c\nb < d\n"


def test_prune_json(yp_file, capsys):
    assert cli(["prune", "--format", "json", yp_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["elements"] == ["a", "b", "c", "d"]
    assert data["covers"] == [["b", "c"], ["b", "d"]]


def test_prune_to_file(yp_file, tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert cli(["prune", "--out", str(target), yp_file]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "a\nb < c\nb < d\n"


def test_prune_dot(c3_file, capsys):
    assert cli(["prune", "--format", "dot", c3_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph poset {")
    assert "->" not in out  # C3 prunes to an antichain


def test_iterate(yp_file, c3_file, capsys):
    assert cli(["iterate", yp_file]) == 0
    assert "fixpoint after 1 iteration\n" in capsys.readouterr().out
    assert cli(["iterate", c3_file]) == 0
    assert "fixpoint after 1 iteration" in capsys.readouterr().out


def test_iterate_already_fixed(tmp_path, capsys):
    path = tmp_path / "anti.txt"
    path.write_text("a\nb\n")
    assert cli(["iterate", str(path)]) == 0
    assert "fixpoint after 0 iterations" in capsys.readouterr().out


def test_iterate_cap_validation(yp_file, capsys):
    assert cli(["iterate", "--max", "0", yp_file]) == 2
    assert "error:" in capsys.readouterr().err


def test_irr(yp_file, capsys):
    assert cli(["irr", yp_file]) == 0
    out = capsys.readouterr().out
    assert "element" in out.splitlines()[0]
    assert "preserved under pruning: yes" in out
    # b is coirreducible only
    b_line = next(line for line in out.splitlines() if line.startswith("b"))
    assert "no" in b_line and "yes" in b_line


def test_irr_incomplete_poset(tmp_path, capsys):
    path = tmp_path / "bowtie.txt"
    path.write_text("a < c\na < d\nb < c\nb < d\n")
    assert cli(["irr", str(path)]) == 0
    out = capsys.readouterr().out
    assert "conditionally complete: no (preservation not evaluated)" in out


def test_check_passes(capsys):
    assert cli(["check", "--seed", "42", "--count", "5", "--max-size", "6"]) == 0
    out = capsys.readouterr().out
    assert "checks passed (seed 42)" in out
    assert out.count("ok   ") >= 10


def test_check_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("VEINPRUNE_SEED", "7")
    assert cli(["check", "--count", "3", "--max-size", "5"]) == 0
    assert "(seed 7)" in capsys.readouterr().out


def test_check_default_seed(monkeypatch, capsys):
    monkeypatch.delenv("VEINPRUNE_SEED", raising=False)
    assert cli(["check", "--count", "3", "--max-size", "5"]) == 0
    assert "(seed 42)" in capsys.readouterr().out


def test_check_env_seed_invalid(monkeypatch, capsys):
    monkeypatch.setenv("VEINPRUNE_SEED", "not-a-number")
    assert cli(["check", "--count", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_reports_failures(monkeypatch, capsys):
    # a pruning that keeps its bridges fails one verdict per poset and stops
    # each poset's pair scan at its first disagreement; an inverted
    # star-chain check fails every instance and keeps counting
    monkeypatch.setattr(veinprune.pruning, "_non_bridge_covers",
                        lambda p: (list(p._ucov), list(p._dcov)))
    real = veinprune.suite.star_chain_check
    monkeypatch.setattr(veinprune.suite, "star_chain_check",
                        lambda *args: not real(*args))
    assert cli(["check", "--seed", "3", "--count", "20", "--max-size", "6"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "ok   closure_roundtrip (25 checked)",
        "ok   serialization_roundtrip (25 checked)",
        "FAIL pruned_partial_order (25 checked, 13 violations)",
        "ok   prune_opposite_commutes (25 checked)",
        "ok   iterate_reaches_fixpoint (25 checked)",
        "ok   vein_modes_agree (25 checked)",
        "FAIL pruning_modes_agree (294 checked, 13 violations)",
        "FAIL star_chain_lemma (64 checked, 64 violations)",
        "ok   cover_inheritance_lemma (85 checked)",
        "ok   vein_connectivity (25 checked)",
        "ok   irreducible_chain_connectivity (25 checked)",
        "ok   covering_characterization (24 checked)",
        "ok   vein_restriction (75 checked)",
        "ok   irreducible_preservation (25 checked)",
        "ok   meet_equivalence (25 checked)",
    ]

    def block(detail: str, elements: list[str], covers: list[list[str]]) -> str:
        poset = json.dumps({"elements": elements, "covers": covers}, indent=2)
        return f"\n{detail}\ncounterexample:\n{poset}\n"

    assert err == (
        block("pruned_partial_order: pruned covers [('a', 'b')] are not "
              "the non-bridge covers []", ["a", "b"], [["a", "b"]])
        + block("pruning_modes_agree: modes disagree on ('a', 'b'): "
                "fast=True oracle=False", ["a", "b"], [["a", "b"]])
        + block("star_chain_lemma: star-chain fails on ('a', 'c') via "
                "('a', 'c')", ["a", "b", "c"], [["a", "c"], ["b", "c"]]))


def test_check_fails_when_the_completeness_routes_disagree(monkeypatch,
                                                          capsys):
    # the cover test calling every poset complete disagrees with the meet
    # scan, which finds the missing meet of each incomplete one: a failed
    # check (exit 1), not an input error
    monkeypatch.setattr(veinprune.Poset, "is_conditionally_complete",
                        lambda p: True)
    assert cli(["check", "--count", "30", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert [line for line in out.splitlines() if line.startswith("FAIL")] \
        == ["FAIL meet_equivalence (34 checked, 5 violations)"]
    assert "meet_equivalence: the cover test calls the poset " \
        "conditionally complete, the meet scan does not" in err


def test_check_fails_when_the_cover_test_calls_nothing_complete(monkeypatch,
                                                              capsys):
    # the mirror: every poset reaches the meet check, which compares both
    # completeness routes before it compares the irreducibility tests
    monkeypatch.setattr(veinprune.Poset, "is_conditionally_complete",
                        lambda p: False)
    assert cli(["check", "--count", "30", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert [line for line in out.splitlines() if line.startswith("FAIL")] \
        == ["FAIL meet_equivalence (34 checked, 29 violations)"]
    assert "meet_equivalence: the meet scan calls the poset " \
        "conditionally complete, the cover test does not" in err


# ``check --seed 3 --count 20 --max-size 6`` on the real code
CHECK_SEED_3 = [
    "ok   closure_roundtrip (25 checked)",
    "ok   serialization_roundtrip (25 checked)",
    "ok   pruned_partial_order (25 checked)",
    "ok   prune_opposite_commutes (25 checked)",
    "ok   iterate_reaches_fixpoint (25 checked)",
    "ok   vein_modes_agree (25 checked)",
    "ok   pruning_modes_agree (488 checked)",
    "ok   star_chain_lemma (64 checked)",
    "ok   cover_inheritance_lemma (53 checked)",
    "ok   vein_connectivity (25 checked)",
    "ok   irreducible_chain_connectivity (25 checked)",
    "ok   covering_characterization (24 checked)",
    "ok   vein_restriction (75 checked)",
    "ok   irreducible_preservation (25 checked)",
    "ok   meet_equivalence (25 checked)",
]


def _keep_bridges(monkeypatch):
    monkeypatch.setattr(veinprune.pruning, "_non_bridge_covers",
                        lambda p: (list(p._ucov), list(p._dcov)))


def _highest_witness(monkeypatch):
    # the witness walk, stepping to the highest reachable cover
    def witness(p, x, y):
        q = veinprune.pruning._pruned(p)
        ix, iy = p._index[x], p._index[y]
        below = q._below[iy]
        if not below >> ix & 1:
            return None
        chain, i = [x], ix
        while i != iy:
            i = max(j for j in q._ucov[i] if j == iy or below >> j & 1)
            chain.append(q._labels[i])
        return veinprune.pruning.PruneWitness(x, y, tuple(chain))

    monkeypatch.setattr(veinprune.pruning, "pruning_witness", witness)


def _swapped_leq(monkeypatch):
    real = veinprune.pruning.pruning_leq
    monkeypatch.setattr(veinprune.pruning, "pruning_leq",
                        lambda p, x, y: real(p, y, x))


def _no_veins(monkeypatch):
    monkeypatch.setattr(veinprune.oracle, "_strict_vein_masks", lambda p: ())


def _always_irreducible(monkeypatch):
    monkeypatch.setattr(veinprune.oracle, "_irreducible", lambda *args: True)


def _inverted_star_chain(monkeypatch):
    real = veinprune.suite.star_chain_check
    monkeypatch.setattr(veinprune.suite, "star_chain_check",
                        lambda *args: not real(*args))


# the lines of CHECK_SEED_3 that each mutant changes
MUTANT_LINES = {
    _keep_bridges: [
        "FAIL pruned_partial_order (25 checked, 13 violations)",
        "FAIL pruning_modes_agree (294 checked, 13 violations)",
        "ok   cover_inheritance_lemma (85 checked)"],
    _highest_witness: [
        "FAIL pruning_modes_agree (449 checked, 1 violations)"],
    # the lemma checks read the pruned order table, not pruning_leq
    _swapped_leq: [
        "FAIL pruning_modes_agree (186 checked, 13 violations)"],
    _no_veins: [
        "FAIL pruning_modes_agree (294 checked, 13 violations)"],
    _always_irreducible: [
        "FAIL vein_modes_agree (25 checked, 13 violations)",
        "FAIL pruning_modes_agree (193 checked, 13 violations)",
        "FAIL irreducible_chain_connectivity (25 checked, 13 violations)",
        "FAIL covering_characterization (24 checked, 12 violations)"],
    _inverted_star_chain: [
        "FAIL star_chain_lemma (64 checked, 64 violations)"],
}


@pytest.mark.parametrize("mutant", MUTANT_LINES,
                         ids=lambda mutant: mutant.__name__.lstrip("_"))
def test_check_catches_each_mutant(mutant, monkeypatch, capsys):
    # each mutant fails check, and every line it does not change is the
    # real code's
    mutant(monkeypatch)
    assert cli(["check", "--seed", "3", "--count", "20",
                "--max-size", "6"]) == 1
    by_check = {line.split()[1]: line for line in MUTANT_LINES[mutant]}
    assert capsys.readouterr().out.splitlines() == [
        by_check.get(line.split()[1], line) for line in CHECK_SEED_3]


def test_check_reads_each_order_table_once_per_batch(monkeypatch):
    # the pair and chain checks read the order tables once per poset, and
    # the fast route's public queries once per call; a count, unlike a
    # time, moves on any host when a check goes back to per-query reads
    reads = {"_above": 0, "_below": 0}

    def counting(name):
        table = getattr(veinprune.Poset, name).fget

        def read(p):
            reads[name] += 1
            return table(p)
        return property(read)

    for name in reads:
        monkeypatch.setattr(veinprune.Poset, name, counting(name))
    assert veinprune.suite.run_suite(seed=7).ok
    assert reads["_above"] <= 8633 and reads["_below"] <= 6217, reads


@pytest.mark.parametrize("argv", [["--max-size", "0"], ["--count", "-1"]])
def test_check_rejects_bad_sizes(argv, capsys):
    assert cli(["check"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --") and err.count("\n") == 1


def test_gen_fixture(capsys):
    assert cli(["gen", "Yp"]) == 0
    assert capsys.readouterr().out == "# Yp\na < b\nb < c\nb < d\n"


def test_gen_random_deterministic(capsys):
    assert cli(["gen", "random", "--size", "6", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert cli(["gen", "random", "--size", "6", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


def test_gen_random_at_scale_is_pinned(capsys):
    # the benchmark's sparse shape, drawn in blocks: a change to the draw
    # that alters any seeded poset changes this digest
    assert cli(["gen", "random", "--size", "4000", "--seed", "7",
                "--edge-prob", "0.001"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c17378ac3f0628d9781247003ee403399796304996f61868c62b53f29de8a9d8")


def test_gen_rejects_edge_prob_elsewhere(capsys):
    for argv in (["gen", "chain", "--size", "3", "--edge-prob", "0.5"],
                 ["gen", "C3", "--edge-prob", "0.5"],
                 ["gen", "C3", "--size", "7", "--seed", "3"],
                 ["gen", "C3", "--size", "1"],
                 ["gen", "Yp", "--seed", "0"],
                 ["gen", "chain", "--size", "3", "--seed", "99"],
                 ["gen", "antichain", "--seed", "0"],
                 ["gen", "boolean", "--size", "2", "--seed", "1"],
                 ["gen", "fence", "--size", "4", "--seed", "1"]):
        assert cli(argv) == 2
        assert "error:" in capsys.readouterr().err


def test_gen_rejections_name_their_rule(capsys):
    for argv, message in (
            (["chain", "--size", "3", "--edge-prob", "0.5"],
             "--edge-prob does not apply to kind 'chain'"),
            # the first rejected option is named, in the order size, seed,
            # edge probability
            (["chain", "--edge-prob", "0.5", "--seed", "1"],
             "--seed does not apply to kind 'chain'"),
            (["downset_lattice", "--edge-prob", "0.5"],
             "--edge-prob does not apply to kind 'downset_lattice'"),
            (["B3", "--edge-prob", "0.5", "--size", "3"],
             "--size does not apply to kind 'B3'"),
            (["chain", "--size", "0"], "size must be at least 1, got 0"),
            (["fence", "--size", "-1"], "size must be at least 1, got -1"),
            (["random", "--size", "0", "--edge-prob", "1.5"],
             "size must be at least 1, got 0"),
            (["random", "--edge-prob", "1.5"],
             "edge_prob must lie in [0, 1], got 1.5"),
            (["random", "--edge-prob", "nan"],
             "edge_prob must lie in [0, 1], got nan"),
            (["boolean", "--size", "11"],
             "boolean size 11 exceeds the cap 10"),
            (["downset_lattice", "--size", "11"],
             "base size 11 exceeds the cap 10")):
        assert cli(["gen"] + argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    for kind in ("mystery", "named"):  # not a kind, and not a fixture
        assert cli(["gen", kind]) == 2
        assert f"invalid choice: '{kind}'" in capsys.readouterr().err


def test_gen_kinds_equal_their_builders(capsys, b3):
    def text(poset, name=None):
        return emit_text(PosetDocument.from_poset(poset, name=name))

    for argv, expected in (
            (["chain"], text(veinprune.chain_poset(1))),
            (["chain", "--size", "3"], text(veinprune.chain_poset(3))),
            (["antichain", "--size", "4"], text(veinprune.antichain_poset(4))),
            (["fence", "--size", "5"], text(veinprune.fence_poset(5))),
            (["boolean", "--size", "3"], text(b3)),
            (["B3"], text(b3, "B3")),
            (["random", "--size", "5", "--seed", "2", "--edge-prob", "0.7"],
             text(veinprune.random_poset(5, seed=2, edge_prob=0.7))),
            # the seed defaults to 0 and the edge probability to 0.3
            (["random", "--size", "9"],
             text(veinprune.random_poset(9, seed=0, edge_prob=0.3))),
            (["downset_lattice", "--size", "3", "--seed", "5"],
             text(veinprune.downset_lattice(3, seed=5))),
            (["downset_lattice", "--size", "3"],
             text(veinprune.downset_lattice(3, seed=0)))):
        assert cli(["gen"] + argv) == 0
        assert capsys.readouterr().out == expected


def test_parser_is_built_once(monkeypatch, capsys):
    def boom():
        raise RuntimeError("the parser was rebuilt")
    monkeypatch.setattr(veinprune.cli, "_build_parser", boom)
    assert cli(["gen", "C3"]) == 0
    assert capsys.readouterr().out == "# C3\na < b\nb < c\n"


def test_multiline_name_is_input_error(tmp_path, capsys):
    # written verbatim after '# ', the name would add a relation a < b
    path = tmp_path / "named.json"
    path.write_text(json.dumps(
        {"name": "x\na < b", "elements": ["c"], "covers": []}))
    assert cli(["prune", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not representable in the text format" in captured.err


def test_gen_pipes_into_info(capsys, tmp_path):
    assert cli(["gen", "boolean", "--size", "2"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "b2.txt"
    path.write_text(text)
    assert cli(["info", str(path)]) == 0
    assert "elements: 4" in capsys.readouterr().out


def test_dot_deterministic(c3_file, capsys):
    assert cli(["dot", c3_file]) == 0
    first = capsys.readouterr().out
    assert cli(["dot", c3_file]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("digraph poset {")


def test_cycle_is_input_error(tmp_path, capsys):
    path = tmp_path / "cyc.txt"
    path.write_text("a < b\nb < a\n")
    assert cli(["info", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file(capsys):
    assert cli(["info", "/no/such/file.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes("a < \u00e9\n".encode("latin-1"))
    assert cli(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'utf-8' codec can't decode" in err and err.count("\n") == 1


def test_repeated_commands_retain_no_memory(tmp_path):
    # memory that grows across calls in one process: after 20 warm-up
    # calls, 100 more of each command must keep at most a few blocks of
    # live Python allocations (tracemalloc counts blocks, so allocator
    # caches do not move it); a text-mode file object kept a 67-byte block
    # on about one opened path in five, and a cache of loaded posets would
    # keep far more
    path = tmp_path / "doc.txt"
    path.write_text(emit_text(PosetDocument.from_poset(
        random_poset(12, 7, 0.3))))
    growth = {}
    tracemalloc.start()
    try:
        for command in (["info"], ["veins"], ["prune"],
                        ["prune", "--format", "json"],
                        ["prune", "--format", "dot"], ["iterate"], ["irr"],
                        ["dot"]):
            argv = [*command, str(path)]
            for call in range(120):
                if call == 20:
                    gc.collect()
                    before = tracemalloc.get_traced_memory()[0]
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli(argv) == 0
            gc.collect()
            growth[" ".join(command)] = (tracemalloc.get_traced_memory()[0]
                                         - before)
    finally:
        tracemalloc.stop()
    # the test's own variables move a reading by a few dozen bytes either
    # way, so a command that frees some does not offset one that keeps some
    kept = {command: size for command, size in growth.items() if size > 0}
    assert sum(kept.values()) <= 256, \
        f"bytes kept by 100 calls of each command: {kept}"


def test_unexpected_fault_exits_3(yp_file, monkeypatch, capsys):
    def boom(p):
        raise RuntimeError("boom")
    # the parser is built at import, so it holds the original _cmd_info;
    # the fault goes into a helper that _cmd_info looks up when it runs
    monkeypatch.setattr(veinprune.cli, "_count_maximal_chains", boom)
    assert cli(["info", yp_file]) == 3
    assert capsys.readouterr().err == "error: unexpected fault: RuntimeError('boom')\n"


def test_invalid_pruning_order_is_a_property_violation(tmp_path, monkeypatch,
                                                      capsys):
    path = tmp_path / "diamond.txt"
    path.write_text("a < b\na < c\nb < d\nc < d\n")
    # a <* b <* d and a <* c <* d, but not a <* d
    monkeypatch.setattr(veinprune.oracle, "_star_above",
                        lambda p: (0b0110, 0b1000, 0b1000, 0b0000))
    assert cli(["prune", "--mode", "oracle", str(path)]) == 1
    err = capsys.readouterr().err
    assert "broke transitivity" in err and err.count("\n") == 1


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_ends_quietly(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert cli(["gen", "chain", "--size", "20"]) == 0
    assert capsys.readouterr().err == ""


def _gen_chain(size: int, unbuffered: bool = False) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(Path(veinprune.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "veinprune.cli", "gen", "chain", "--size",
         str(size)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


def _finish(proc: subprocess.Popen) -> tuple[int, bytes]:
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


@pytest.mark.parametrize("unbuffered", [False, True])
def test_reader_stopping_early_is_not_an_error(unbuffered):
    proc = _gen_chain(20000, unbuffered)
    assert proc.stdout.readline() == b"e00000 < e00001\n"
    proc.stdout.close()  # the reader stops; the writer has far more to say
    assert _finish(proc) == (0, b"")


def test_reader_gone_before_the_exit_flush_is_not_an_error():
    # the output fits the buffer, so the write fails only in the flush at
    # interpreter exit, which must find nothing to complain about
    proc = _gen_chain(5)
    proc.stdout.close()
    assert _finish(proc) == (0, b"")


# a run a b c d from a join of two covers to a fork, and a run p q r that
# is a whole component
BROOM_TEXT = ("x < a\ny < a\na < b\nb < c\nc < d\nd < e\nd < f\n"
              "p < q\nq < r\n")


@pytest.mark.parametrize("args", [
    [command, *fmt, name]
    for name in ("b3.txt", "broom.txt")
    for command, *fmt in (["dot"], ["veins"], ["irr"],
                          ["prune", "--format", "json"])
] + [["check", "--seed", "3", "--count", "20"]], ids=" ".join)
def test_output_does_not_depend_on_the_hash_seed(tmp_path, args):
    # one process cannot see set-order dependence: its hash seed is fixed
    (tmp_path / "b3.txt").write_text(
        emit_text(PosetDocument.from_poset(fixtures()["B3"])))
    (tmp_path / "broom.txt").write_text(BROOM_TEXT)
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(veinprune.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "veinprune.cli", *args], cwd=tmp_path,
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_unknown_command(capsys):
    assert cli(["frobnicate"]) == 2


def test_main_entry_point(yp_file, monkeypatch, capsys):
    import veinprune.cli as mod
    monkeypatch.setattr("sys.argv", ["veinprune", "info", yp_file])
    assert mod.main() == 0
    assert "elements: 4" in capsys.readouterr().out
