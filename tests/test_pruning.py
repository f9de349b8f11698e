from __future__ import annotations

import gc
import weakref
from dataclasses import fields

import pytest

import veinprune.pruning
from veinprune import (
    InternalOrderViolation,
    Poset,
    PreconditionViolated,
    PruneReport,
    UnknownLabel,
    antichain_poset,
    iterate_prune,
    oracle,
    prune,
    pruning_leq,
    pruning_witness,
    random_poset,
    strict_veins,
    suite,
)
from veinprune.cli import cli
from veinprune.poset import _lower_covers
from veinprune.suite import cover_inheritance_check, star_chain_check
from veinprune.veins import _bridge_runs

from _orders import as_poset, natural_orders
from test_scale import ladder


def test_pruning_leq_fixtures(c3, yp, b3):
    for leq in (pruning_leq, oracle.pruning_leq):
        assert leq(yp, "b", "c")
        assert leq(yp, "b", "d")
        assert not leq(yp, "a", "b")
        assert not leq(yp, "a", "c")
        assert not leq(c3, "a", "c")
        assert not leq(c3, "a", "b")
        assert leq(b3, "{}", "{1,2}")
        assert leq(b3, "{}", "{1,2,3}")


def test_pruning_leq_reflexive_and_bounded(fx):
    for p in fx.values():
        for x in p.elements:
            assert pruning_leq(p, x, x)
            for y in p.elements:
                if pruning_leq(p, x, y) and x != y:
                    assert p.lt(x, y)


def test_pruning_leq_unknown_label(yp):
    with pytest.raises(UnknownLabel):
        pruning_leq(yp, "b", "zz")


@pytest.mark.parametrize("x, y, unknown", [("zz", "yy", "zz"),
                                            ("zz", "a", "zz"),
                                            ("a", "yy", "yy")])
def test_pruning_witness_names_the_first_unknown_label(yp, x, y, unknown):
    with pytest.raises(UnknownLabel) as info:
        pruning_witness(yp, x, y)
    assert str(info.value) == f"unknown label {unknown!r}"


def test_pruning_witness(yp, c3, b3):
    w = pruning_witness(yp, "b", "c")
    assert (w.x, w.y, w.chain) == ("b", "c", ("b", "c"))
    assert pruning_witness(c3, "a", "c") is None
    assert pruning_witness(yp, "b", "b") is None  # reflexive pairs carry no chain
    assert pruning_witness(b3, "{}", "{1,2}").chain == ("{}", "{1}", "{1,2}")


def test_witness_is_clean_maximal_interval_chain(fx):
    # a witness must run from x to y, be maximal in the interval, and
    # contain no strict vein of the ambient poset
    for p in fx.values():
        veins = {frozenset(v) for v in strict_veins(p)}
        for x in p.elements:
            for y in p.elements:
                if x == y or not p.lt(x, y):
                    continue
                w = pruning_witness(p, x, y)
                if w is None:
                    assert not pruning_leq(p, x, y)
                    continue
                assert pruning_leq(p, x, y)
                assert (w.x, w.y) == (x, y)
                assert w.chain[0] == x and w.chain[-1] == y
                assert w.chain in oracle.maximal_chains_in_interval(p, x, y)
                assert not any(v <= frozenset(w.chain) for v in veins)


def test_witness_agrees_across_modes(fx):
    for p in fx.values():
        for x in p.elements:
            for y in p.elements:
                w = pruning_witness(p, x, y)
                assert (w.chain if w else None) == oracle.clean_chain(p, x, y)


def test_prune_c3(c3):
    report = prune(c3)
    assert report.original == c3
    assert report.pruned == antichain_poset(3)
    assert report.pruned.relations() == ()
    assert report.removed_relations == 3
    assert all(pruning_witness(c3, x, y) is None for x, y in c3.relations())


def test_prune_yp(yp):
    report = prune(yp)
    assert report.pruned.relations() == (("b", "c"), ("b", "d"))
    assert report.removed_relations == 3
    assert {(x, y) for x, y in yp.relations()
            if pruning_witness(yp, x, y)} == {("b", "c"), ("b", "d")}
    assert pruning_witness(yp, "b", "c").chain == ("b", "c")
    assert pruning_witness(yp, "b", "d").chain == ("b", "d")


def test_prune_b3_fixed(b3):
    report = prune(b3)
    assert report.pruned == b3
    assert report.removed_relations == 0
    assert all(pruning_witness(b3, x, y) for x, y in b3.relations())


def test_a_bridge_free_poset_prunes_to_itself(b3):
    it = iterate_prune(ladder(3))
    once = it.posets[1]
    assert it.fixpoint_index == 1
    assert it.posets[2] is once  # the second pass builds nothing
    for q in (b3, once):
        report = prune(q)
        assert report.pruned is q
        assert report.removed_relations == 0


class _WeakPoset(Poset):
    """A Poset that admits weak references, which Poset's slots leave out."""

    __slots__ = ("__weakref__",)


def test_a_bridge_free_poset_is_freed_without_the_collector(b3):
    # a poset that is its own pruning must not sit in its own memo: that
    # cycle would keep it alive until the collector's next full pass
    q = _WeakPoset(b3._labels, b3._ucov)
    alive = weakref.ref(q)
    gc.disable()
    try:
        assert prune(q).pruned is q
        assert pruning_witness(q, "{}", "{1,2,3}").chain == \
            ("{}", "{1}", "{1,2}", "{1,2,3}")
        assert iterate_prune(q).fixpoint_index == 0
        del q
        assert alive() is None
    finally:
        gc.enable()


def test_prune_preserves_elements(fx):
    for p in fx.values():
        assert prune(p).pruned.elements == p.elements


def test_prune_modes_agree(fx):
    for p in fx.values():
        assert prune(p, mode="fast").pruned == prune(p, mode="oracle").pruned


def test_prune_idempotent_on_fixtures(fx):
    for p in fx.values():
        once = prune(p).pruned
        assert prune(once).pruned == once


def test_prune_commutes_with_opposite(fx):
    for p in fx.values():
        assert prune(p.opposite()).pruned == prune(p).pruned.opposite()


def test_derived_posets_carry_matching_cover_tables_on_every_small_order():
    # the opposite and the pruned poset are assembled from their parent's
    # two cover tables, not rebuilt: on every order on at most 6 elements,
    # under both label directions, each derived poset's lower covers must
    # be the ones its upper covers give, and its covers those a closure
    # and reduction of them give
    orders = list(natural_orders(6))
    assert len(orders) == 5231
    for below in orders:
        for reverse in (False, True):
            p = as_poset(below, reverse)
            q, r = prune(p).pruned, p.opposite()
            for derived in (r, q, prune(r).pruned, q.opposite()):
                assert derived._dcov == _lower_covers(derived._ucov)
                rebuilt = Poset.from_relations(derived.labels,
                                               derived.covers)
                assert derived == rebuilt
                assert derived.relations() == rebuilt.relations()


def test_the_closure_gives_the_order_on_every_small_order():
    # the constructor's walk and closing pass against tables computed from
    # the strict down-sets alone, on every order on at most 6 elements
    # under both label directions: the up-set masks, the upper covers
    # (the pairs with nothing strictly between) and an order listing each
    # element after its upper covers; a rebuild from the covers alone
    # gives the same tables
    orders = list(natural_orders(6))
    assert len(orders) == 5231
    for below in orders:
        n = len(below)
        for reverse in (False, True):
            # the poset index of element i: labels sort in index order, or
            # in its reverse
            at = [n - 1 - i if reverse else i for i in range(n)]
            above = [0] * n
            ucov: list[list[int]] = [[] for _ in range(n)]
            for j, down in enumerate(below):
                for i in range(n):
                    if down >> i & 1:
                        above[at[i]] |= 1 << at[j]
                        if not any(below[m] >> i & 1
                                   for m in range(n) if down >> m & 1):
                            ucov[at[i]].append(at[j])
            p = as_poset(below, reverse)
            assert p._above_masks == tuple(above)
            assert p._ucov == tuple(tuple(sorted(ups)) for ups in ucov)
            assert sorted(p._order) == list(range(n))
            place = {k: pos for pos, k in enumerate(p._order)}
            assert all(place[k] > place[j]
                       for k in range(n) for j in ucov[k])
            rebuilt = Poset.from_relations(p.labels, p.covers)
            assert (rebuilt._above_masks, rebuilt._ucov, rebuilt._dcov) \
                == (p._above_masks, p._ucov, p._dcov)


def test_iterate_prune(c3, yp, b3):
    it = iterate_prune(c3)
    assert len(it.posets) == 3
    assert it.fixpoint_index == 1
    assert it.posets[0] == c3
    assert it.posets[1] == antichain_poset(3)
    assert it.posets[1] == it.posets[2]

    assert iterate_prune(b3).fixpoint_index == 0
    assert iterate_prune(yp).fixpoint_index == 1


def test_iterate_prune_cap(c3):
    # one round is not enough to witness the C3 fixpoint
    it = iterate_prune(c3, max_iters=1)
    assert it.fixpoint_index is None
    assert len(it.posets) == 2
    # zero rounds yields just the input and no verdict
    trivial = iterate_prune(c3, max_iters=0)
    assert trivial.posets == [c3]
    assert trivial.fixpoint_index is None


def test_iterate_prune_prunes_once(yp, b3, monkeypatch):
    # pruning is idempotent, so one pass decides the fixpoint
    calls = []
    real = veinprune.pruning.prune

    def counting(p, mode="fast"):
        calls.append(p)
        return real(p, mode)

    monkeypatch.setattr(veinprune.pruning, "prune", counting)
    it = iterate_prune(yp)
    assert calls == [yp]
    assert it.fixpoint_index == 1
    assert it.posets == [yp, real(yp).pruned, real(yp).pruned]
    calls.clear()
    it = iterate_prune(b3)
    assert calls == [b3]
    assert (it.posets, it.fixpoint_index) == ([b3, b3], 0)


def test_the_bridge_runs_decide_the_fixpoint(fx):
    # p is its own pruning exactly when it has no bridge edge, on either
    # route: iterate_prune reads _bridge_runs instead of comparing posets
    corpus = list(fx.values()) + [random_poset(n, seed, prob)
                                  for n in range(1, 9) for seed in range(8)
                                  for prob in (0.2, 0.5)]
    for p in corpus:
        fixed = not _bridge_runs(p)
        assert (prune(p).pruned == p) == fixed
        for mode in ("fast", "oracle"):
            it = iterate_prune(p, mode=mode)
            assert it.fixpoint_index == (0 if fixed else 1)
            assert it.posets[-1] == it.posets[-2] == prune(p).pruned
            assert len(it.posets) == (2 if fixed else 3)


def test_iterate_prune_rejects_unknown_mode_without_iterating(c3):
    with pytest.raises(ValueError):
        iterate_prune(c3, max_iters=0, mode="quick")
    with pytest.raises(ValueError, match="got 'quick'"):
        prune(c3, mode="quick")


def test_a_pass_reports_only_its_poset_and_removed_count(yp):
    # the count is a property, so a pass whose count nobody reads never
    # fills the pruned poset's order
    assert [f.name for f in fields(PruneReport)] == ["original", "pruned"]
    assert isinstance(PruneReport.removed_relations, property)
    report = prune(yp)
    assert {name for name in dir(report) if not name.startswith("_")} == \
        {"original", "pruned", "removed_relations"}


def test_prune_and_iterate_never_fill_the_pruned_order(tmp_path, monkeypatch,
                                                        capsys):
    # closures built per command: the CLI reads only the pruned poset's
    # covers, so neither of its order mask tables may be filled
    path = tmp_path / "broom.txt"
    path.write_text("x < a\ny < a\na < b\nb < c\nc < d\nd < e\nd < f\n"
                    "p < q\nq < r\n")
    built = []
    real = veinprune.pruning._built_pruned

    def recording(p):
        built.append(real(p))
        return built[-1]

    monkeypatch.setattr(veinprune.pruning, "_built_pruned", recording)
    for argv, code in ((["prune"], 0), (["prune", "--format", "json"], 0),
                       (["iterate"], 0), (["iterate", "--max", "1"], 1)):
        built.clear()
        assert cli(argv + [str(path)]) == code
        [q] = built
        assert len(q.covers) == 4  # x < a, y < a, d < e and d < f
        assert q._above_masks is None and q._below_masks is None
    capsys.readouterr()
    # reading the count is what fills them
    report = prune(Poset.from_relations("abc", [("a", "b"), ("b", "c")]))
    assert report.pruned._above_masks is None
    assert report.removed_relations == 3
    assert report.pruned._above_masks is not None


def test_pruned_partial_order_fails_a_pruning_that_keeps_its_bridges(
        monkeypatch):
    # every pruned poset is an order by construction; only its covers can
    # tell that the bridge edges were not deleted
    monkeypatch.setattr(veinprune.pruning, "_non_bridge_covers",
                        lambda p: (list(p._ucov), list(p._dcov)))
    fresh_yp = Poset.from_relations(
        "abcd", [("a", "b"), ("b", "c"), ("b", "d")])  # nothing memoized
    outcome = suite._pruned_partial_order([fresh_yp])
    assert outcome.checked == 1
    assert not outcome.ok
    assert "non-bridge covers" in outcome.smallest().detail


# a < b < c, so element a has index 0, b index 1 and c index 2
CHAIN3 = Poset.from_relations("abc", [("a", "b"), ("b", "c")])


@pytest.mark.parametrize("star", [
    (0b001, 0b000, 0b000),  # a <* a
    (0b010, 0b001, 0b000),  # a <* b <* a, a 2-cycle
    (0b010, 0b100, 0b000),  # a <* b <* c, not a <* c
])
def test_validation_rejects_a_relation_that_is_no_strict_order(star,
                                                               monkeypatch):
    monkeypatch.setattr(oracle, "_star_above", lambda p: star)
    with pytest.raises(InternalOrderViolation):
        prune(CHAIN3, mode="oracle")


def test_validation_rejects_a_relation_the_poset_lacks(monkeypatch):
    # b <* a is a strict order on its own, but not inside a < b < c
    monkeypatch.setattr(oracle, "_star_above", lambda p: (0, 0b001, 0))
    with pytest.raises(InternalOrderViolation, match="lacks"):
        prune(CHAIN3, mode="oracle")


def test_validation_accepts_the_orders_it_should(fx, monkeypatch):
    for p in fx.values():
        pruned = prune(p).pruned
        for star, want in ((p._above, p), (pruned._above, pruned)):
            monkeypatch.setattr(oracle, "_star_above", lambda q: star)
            assert prune(p, mode="oracle").pruned == want


def test_star_chain_check(yp, b3, c3):
    assert star_chain_check(yp, "b", "c", ("b", "c"))
    assert star_chain_check(b3, "{}", "{1,2}", ("{}", "{1}", "{1,2}"))
    assert star_chain_check(b3, "{}", "{1,2}", ("{}", "{2}", "{1,2}"))
    # chain endpoints must match the pair
    with pytest.raises(PreconditionViolated):
        star_chain_check(yp, "b", "c", ("b", "d"))
    # consecutive entries must be covers
    diamond_top = Poset.from_relations(
        "abcd", [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]
    )
    with pytest.raises(PreconditionViolated):
        star_chain_check(diamond_top, "a", "d", ("a", "d"))
    # chains through a strict vein are outside the lemma's hypothesis
    with pytest.raises(PreconditionViolated):
        star_chain_check(c3, "a", "b", ("a", "b"))


def test_star_chain_check_everywhere(fx):
    # whenever x <* y, every maximal chain of [x, y] is saturated and clean,
    # so the check must accept it; chains touching a strict vein are skipped
    outcome = suite._star_chain_lemma(list(fx.values()))
    assert outcome.ok, outcome.smallest()


def test_cover_inheritance_check(yp, b3, c3):
    assert cover_inheritance_check(yp, "b", "c")
    assert cover_inheritance_check(b3, "{}", "{1,2,3}")
    with pytest.raises(PreconditionViolated):
        cover_inheritance_check(c3, "a", "c")  # a <* c fails
    with pytest.raises(PreconditionViolated):
        cover_inheritance_check(yp, "b", "b")


def test_cover_inheritance_everywhere(fx):
    outcome = suite._cover_inheritance_lemma(list(fx.values()))
    assert outcome.ok, outcome.smallest()


def test_witness_is_an_immutable_tuple_record(yp):
    w = pruning_witness(yp, "b", "c")
    assert w._fields == ("x", "y", "chain")
    assert w == ("b", "c", ("b", "c"))
    x, y, chain = w
    assert (x, y, chain) == (w.x, w.y, w.chain)
    assert repr(w) == "PruneWitness(x='b', y='c', chain=('b', 'c'))"
    with pytest.raises(AttributeError):
        w.chain = ("b",)
