from __future__ import annotations

import json

import pytest

from veinprune import (
    CycleDetected,
    ParseError,
    Poset,
    PosetDocument,
    emit_dot,
    emit_json,
    emit_text,
    load_document,
    parse_json,
    parse_text,
    profiles,
)

YP_TEXT = """\
# Yp
a < b
b < c
b < d
"""


def test_parse_text_yp(yp):
    doc = parse_text(YP_TEXT)
    assert doc.to_poset() == yp
    assert doc.elements == ["a", "b", "c", "d"]
    assert doc.covers == [("a", "b"), ("b", "c"), ("b", "d")]


def test_parse_text_isolated_elements():
    doc = parse_text("a\nb\n")
    assert doc.elements == ["a", "b"]
    assert doc.covers == []


def test_parse_text_reduces_to_covers():
    doc = parse_text("a < b\nb < c\na < c\n")
    assert doc.covers == [("a", "b"), ("b", "c")]


def test_repeated_relation_lines_load_as_the_covers(yp):
    # out of order, a line stated twice, and a < c implied by a < b < c
    doc = parse_text("b < d\na < c\nb < c\na < b\nb < d\n")
    assert doc.to_poset() == yp
    assert doc.covers == [("a", "b"), ("b", "c"), ("b", "d")]
    assert doc.to_poset() == Poset.from_relations(yp.labels, yp.covers)


def test_repeated_json_cover_pair_loads_as_the_covers(yp):
    doc = parse_json(json.dumps({
        "elements": ["a", "b", "c", "d"],
        "covers": [["b", "d"], ["a", "b"], ["b", "c"], ["b", "d"],
                   ["a", "d"]]}))
    assert doc.to_poset() == yp
    assert doc.covers == [("a", "b"), ("b", "c"), ("b", "d")]


def test_parse_text_comments_and_blanks():
    doc = parse_text("\n# heading\n  a < b  # trailing note\n\nlonely\n")
    assert doc.elements == ["a", "b", "lonely"]
    assert doc.covers == [("a", "b")]


def test_parse_text_errors():
    with pytest.raises(ParseError) as exc:
        parse_text("a < b < c\n")
    assert "line 1" in str(exc.value)
    with pytest.raises(ParseError):
        parse_text("a <\n")
    with pytest.raises(CycleDetected):
        parse_text("a < a\n")
    with pytest.raises(CycleDetected):
        parse_text("a < b\nb < a\n")


def test_emit_text_round_trip(fx):
    # text carries the name as a comment only; the poset itself round-trips
    for name, p in fx.items():
        doc = PosetDocument.from_poset(p, name=name)
        out = emit_text(doc)
        assert out.startswith(f"# {name}\n")
        assert parse_text(out).to_poset() == p


def test_emit_text_canonical(vee, a2):
    assert emit_text(PosetDocument.from_poset(vee)) == "a < c\nb < c\n"
    assert emit_text(PosetDocument.from_poset(a2)) == "a\nb\n"


def test_emit_text_unrepresentable_label():
    p = Poset.from_relations(["x y", "z"], [("x y", "z")])
    with pytest.raises(ParseError):
        emit_text(PosetDocument.from_poset(p))
    # nor may the name end its comment line early
    named = PosetDocument.from_poset(Poset.from_relations(["c"], []),
                                     name="x\na < b")
    with pytest.raises(ParseError, match="not representable"):
        emit_text(named)
    # JSON handles arbitrary labels fine
    doc = parse_json(emit_json(PosetDocument.from_poset(p)))
    assert doc.to_poset() == p



@pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u3000"])
def test_non_ascii_whitespace_is_not_a_label(space):
    label = f"x{space}y"
    with pytest.raises(ParseError, match="bad label in relation"):
        parse_text(f"{label} < z\n")
    with pytest.raises(ParseError, match="single token"):
        parse_text(f"{label}\n")
    with pytest.raises(ParseError, match="not representable"):
        emit_text(PosetDocument(elements=[label], covers=[]))

def test_parse_json(a2):
    doc = parse_json('{"elements": ["a", "b"], "covers": []}')
    assert doc.to_poset() == a2
    named = parse_json('{"name": "pair", "elements": ["a"], "covers": []}')
    assert named.name == "pair"


def test_parse_json_errors():
    for bad in [
        "[]",                                        # top level must be an object
        '{"elements": ["a"]}',                       # covers missing
        '{"elements": ["a"], "covers": [], "x": 1}', # unknown key
        '{"elements": [1], "covers": []}',           # non-string element
        '{"elements": ["a", "a"], "covers": []}',    # duplicate
        '{"elements": ["a"], "covers": [["a"]]}',    # malformed pair
        '{"elements": ["a"], "covers": [["a", "b"]]}',  # unknown label
        "not json at all",
    ]:
        with pytest.raises(ParseError):
            parse_json(bad)


def test_emit_json_canonical(yp):
    out = emit_json(PosetDocument.from_poset(yp, name="Yp"))
    data = json.loads(out)
    assert list(data) == ["name", "elements", "covers"]
    assert data["covers"] == [["a", "b"], ["b", "c"], ["b", "d"]]
    assert out == emit_json(PosetDocument.from_poset(yp, name="Yp"))
    assert out.endswith("\n")


def test_json_round_trip(fx):
    for p in fx.values():
        doc = PosetDocument.from_poset(p)
        assert parse_json(emit_json(doc)).to_poset() == p


def test_load_document_sniffs_format(yp):
    assert load_document(YP_TEXT).to_poset() == yp
    as_json = emit_json(PosetDocument.from_poset(yp))
    assert load_document(as_json).to_poset() == yp
    assert load_document("  \n" + as_json).to_poset() == yp


def test_load_document_braces_are_not_always_json(b3):
    # set-style labels start with '{'; the sniffer must not mistake them
    text = emit_text(PosetDocument.from_poset(b3))
    assert text.startswith("{")
    assert load_document(text).to_poset() == b3
    # genuinely malformed JSON keeps failing as JSON
    with pytest.raises(ParseError) as exc:
        load_document('{"elements": ["a"], "covers": 3}')
    assert "cover" in str(exc.value)


def test_emit_dot_c3(c3):
    out = emit_dot(c3, profiles(c3))
    assert out.startswith("digraph poset {")
    assert out.count("->") == 2
    # every element of a chain is doubly irreducible: filled and ringed
    assert out.count("fillcolor=black") == 3
    assert out.count("peripheries=2") == 3


def test_emit_dot_b3(b3):
    out = emit_dot(b3, profiles(b3))
    assert out.count("->") == 12
    assert out.count("fillcolor=black") == 4
    assert out.count("peripheries=2") == 4


def test_emit_dot_deterministic(fx):
    for p in fx.values():
        assert emit_dot(p, profiles(p)) == emit_dot(p, profiles(p))


def test_emit_dot_quoting():
    p = Poset.from_relations(['say "hi"', "b"], [('say "hi"', "b")])
    out = emit_dot(p, profiles(p))
    assert '\\"hi\\"' in out
