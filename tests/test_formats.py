from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

import _reference as ref
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
from veinprune.errors import UnknownLabel, VeinpruneError
from veinprune.formats import _load

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


def test_document_built_field_by_field_is_validated(yp):
    doc = PosetDocument(elements=list("abcd"),
                        covers=[("a", "b"), ("b", "c"), ("b", "d")])
    assert doc.to_poset() == yp
    doc.covers.append(("d", "a"))
    with pytest.raises(CycleDetected) as info:
        doc.to_poset()
    assert info.value.cycle == ("a", "b", "d", "a")
    unknown = PosetDocument(elements=["a"], covers=[("a", "zz")])
    with pytest.raises(UnknownLabel, match="'zz'"):
        unknown.to_poset()


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


@pytest.mark.parametrize("text, line, message", [
    # two '<' on one line
    ("a < b\nb < c < d\n", 2,
     "expected a single relation 'A < B'"),
    ("<<\n", 1, "expected a single relation 'A < B'"),
    # an empty side, before or after the comment is cut
    ("a < b\n\nc <\n", 3, "bad label in relation 'c <'"),
    ("  < d  # note\n", 1, "bad label in relation '< d'"),
    ("a <   # b\n", 1, "bad label in relation 'a <'"),
    # inner whitespace in a relation side
    ("a b < c\n", 1, "bad label in relation 'a b < c'"),
    ("a < b\tc\n", 1, "bad label in relation 'a < b\\tc'"),
    # inner whitespace in an element
    ("# x\nok\na b\n", 3,
     "an element declaration must be a single token, got 'a b'"),
    # NBSP is whitespace inside a label, and stripped around one
    ("x\u00a0y < z\n", 1, "bad label in relation 'x\\xa0y < z'"),
    ("\u00a0a < b\u00a0\nx\u00a0y\n", 2,
     "an element declaration must be a single token, got 'x\\xa0y'"),
    # U+2028 ends a line for splitlines, so it shifts the line count
    ("a < b\u2028c d\n", 2,
     "an element declaration must be a single token, got 'c d'"),
    ("a\u2028< b\n", 2, "bad label in relation '< b'"),
])
def test_parse_text_error_messages(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_text(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


_LETTER = st.sampled_from("abc")
_PAD = st.sampled_from(["", " ", "\t", "\u00a0"])  # stripped around labels
_GOOD_LINE = st.one_of(
    st.builds("{}{}{}<{}{}{}".format, _PAD, _LETTER, _PAD, _PAD, _LETTER,
              _PAD),
    st.builds("{}{}{}".format, _PAD, _LETTER, _PAD),
    st.sampled_from(["", " ", "\u00a0", "# a b < c <", "#"]))
_BAD_LINE = st.one_of(
    st.builds("{} < {} < {}".format, _LETTER, _LETTER, _LETTER),  # two '<'
    st.sampled_from([
        "a << b", "<<", "a <", "< b", "<", " < # b",  # an empty side
        "a b < c", "a < b\tc", "a b", "a\u00a0b", "a\u00a0b < c",
    ]))


@st.composite
def relation_texts(draw):
    """Relation texts line by line: relations (cycles and self-loops among
    them), lone labels, blanks, comments and bad lines, with LF, CRLF, CR
    and U+2028 line ends."""
    lines = draw(st.lists(st.one_of(
        _GOOD_LINE, _GOOD_LINE, _BAD_LINE,
        st.builds("{}  # {}".format, _GOOD_LINE | _BAD_LINE, _BAD_LINE)),
        max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r", "\u2028"]),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=300)
@given(relation_texts())
@example("a < b\nb < a\nc d\n")  # a cycle before a bad line
@example("c d\na < b\nb < a\n")  # and after it
@example("a < b\nb < a\nc < c\n")  # a self-loop after a cycle
def test_parse_text_agrees_with_the_line_by_line_reference(text):
    loaders = (lambda t: parse_text(t).to_poset(),
               lambda t: load_document(t).to_poset(), lambda t: _load(t)[0])
    pairs = []  # no cycle is checked on a text that fails to parse
    try:
        labels, pairs = ref.parse_relation_text(text)
        ref.relation_fault(sorted(set(labels)), pairs)
    except ref.Fault as fault:
        for load in loaders:
            with pytest.raises(VeinpruneError) as exc:
                load(text)
            assert fault.agrees(exc.value, pairs), (exc.value, fault)
        return
    want = ref.P(labels, pairs)
    for load in loaders:
        p = load(text)
        assert set(p.labels) == want.E and set(p.relations()) == want.R


@pytest.mark.parametrize("text, message", [
    ("[]", "the top level must be an object"),
    ('{"elements": [], "covers": [], "x": 1, "a": 2}',
     "unknown keys: ['a', 'x']"),
    ('{"elements": ["a"]}', "both 'elements' and 'covers' are required"),
    ('{"covers": []}', "both 'elements' and 'covers' are required"),
    ('{"elements": {}, "covers": []}',
     "'elements' must be an array of nonempty strings"),
    ('{"elements": [1], "covers": []}',
     "'elements' must be an array of nonempty strings"),
    ('{"elements": ["a", ""], "covers": []}',
     "'elements' must be an array of nonempty strings"),
    ('{"elements": ["a", "b", "a"], "covers": []}',
     "'elements' contains duplicates"),
    ('{"elements": ["a"], "covers": {}}',
     "'covers' must be an array of pairs"),
    ('{"elements": ["a"], "covers": [["a"]]}',
     "every cover must be a two-element string array"),
    ('{"elements": ["a", "b"], "covers": [["a", "b", "a"]]}',
     "every cover must be a two-element string array"),
    ('{"elements": ["a", "b"], "covers": ["ab"]}',
     "every cover must be a two-element string array"),
    ('{"elements": ["a", "b"], "covers": [["a", 1]]}',
     "every cover must be a two-element string array"),
    # a pair with a non-string entry is malformed, not an unknown label
    ('{"elements": ["a"], "covers": [[null, "z"]]}',
     "every cover must be a two-element string array"),
    ('{"elements": ["a", "b"], "covers": [["a", "b"], ["z", "y"]]}',
     "unknown label 'z' in covers"),
    ('{"elements": ["a", "b"], "covers": [["a", "y"]]}',
     "unknown label 'y' in covers"),
    ('{"elements": ["a"], "covers": [], "name": 3}',
     "'name' must be a string"),
])
def test_parse_json_error_messages(text, message):
    # a document that opens with a brace fails as JSON in load_document too
    for parse in (parse_json, load_document)[:1 + text.startswith("{")]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line is None
        assert str(exc.value) == message


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


# characters that JSON must escape, beside any other code point: a quote, a
# backslash, control characters, non-ASCII text and lone surrogates
_LABEL_CHARS = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\t", "\n", "\x1f", "\x7f", "\u00e9",
                     "\u2028", "\ud800", "\udfff", "\U0001f600", "a"]),
    st.characters(exclude_categories=()))
_LABELS = st.text(_LABEL_CHARS, min_size=1, max_size=6)


@st.composite
def documents(draw):
    """Documents built field by field, so no poset checks the covers."""
    elements = draw(st.lists(_LABELS, unique=True, max_size=6))
    covers = []
    if elements:
        covers = draw(st.lists(st.tuples(st.sampled_from(elements),
                                         st.sampled_from(elements)),
                               max_size=6))
    name = draw(st.none() | st.text(_LABEL_CHARS, max_size=6))
    return PosetDocument(elements=elements, covers=covers, name=name)


@given(documents())
@example(PosetDocument(elements=[], covers=[]))
@example(PosetDocument(elements=[], covers=[], name="empty"))
@example(PosetDocument(elements=["b", "a"], covers=[], name=None))
@example(PosetDocument(elements=["\u00e9", '"', "\\", "\t"],
                       covers=[("\\", "\u00e9"), ('"', "\t")], name="x\ud800"))
def test_emit_json_is_the_indented_json_dump(doc):
    payload: dict = {}
    if doc.name is not None:
        payload["name"] = doc.name
    payload["elements"] = sorted(doc.elements)
    payload["covers"] = [list(pair) for pair in sorted(doc.covers)]
    assert emit_json(doc) == json.dumps(payload, indent=2) + "\n"


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
