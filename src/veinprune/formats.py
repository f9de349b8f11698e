"""Reading and writing posets: relation text, canonical JSON, and DOT.

Text format, one statement per line:

    # comment, runs to end of line
    a < b      declares the relation a < b (covers or not)
    c          declares c as an element with no stated relations

Whitespace around tokens is ignored. Labels are single tokens without
whitespace, '<', or '#'. Relations may be non-cover; loading takes the
transitive closure and emission always writes the cover pairs only.
Loading reads each line once and validates the distinct labels together;
only a text that fails is scanned again, line by line, so that the error
names the first bad line.

JSON format: an object with keys "elements" (array of strings), "covers"
(array of two-element arrays), and an optional "name". Emission is
canonical: fixed key order and sorted arrays, so equal posets serialize
to equal bytes.

The command line loads through ``_load``, which returns the poset and the
name and builds no document: none of its commands reads the label lists
of the document it loads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .errors import ParseError
from .poset import Poset


@dataclass
class PosetDocument:
    """A poset in transit: sorted elements, sorted cover pairs, metadata.

    :meth:`from_poset`, and so every parser, keeps the poset for
    :meth:`to_poset`; edit such a document and that poset is stale. A
    document built field by field is validated on each :meth:`to_poset`.
    """

    elements: list[str]
    covers: list[tuple[str, str]]
    name: str | None = None
    _poset: Poset | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def to_poset(self) -> Poset:
        if self._poset is not None:
            return self._poset
        return Poset.from_relations(self.elements, self.covers)

    @classmethod
    def from_poset(cls, p: Poset, name: str | None = None) -> PosetDocument:
        doc = cls(elements=list(p.labels), covers=list(p.covers), name=name)
        doc._poset = p
        return doc


_BAD = re.compile(r"[\s<#]")  # \s is exactly str.isspace() on str patterns


def _token_ok(label: str) -> bool:
    return bool(label) and _BAD.search(label) is None


def _text_poset(text: str) -> Poset:
    """The poset of a relation text; see :func:`parse_text`.

    One pass splits each line at '#' and '<' and strips the sides; the
    distinct labels are then validated at once. A line is malformed
    exactly when it leaves an empty or non-token label, so only then is
    the text scanned again, line by line, for the first bad line's error.
    """
    pairs: list[tuple[str, str]] = []
    singles: list[str] = []
    for line in text.splitlines():
        if "#" in line:
            line = line.partition("#")[0]
        a, lt, b = line.partition("<")
        if lt:
            pairs.append((a.strip(), b.strip()))
        elif a := a.strip():
            singles.append(a)
    labels = set(singles)
    labels.update(*pairs)  # each pair is an iterable of its two labels
    if "" in labels or _BAD.search("".join(labels)):
        _raise_first_fault(text)
    # building the poset validates the relation and reduces to covers
    return Poset.from_relations(labels, pairs)


def _raise_first_fault(text: str) -> None:
    """Raise the ParseError of the first malformed line of ``text``."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        a, lt, b = line.partition("<")
        if "<" in b:
            raise ParseError("expected a single relation 'A < B'", lineno)
        if lt and not (_token_ok(a.strip()) and _token_ok(b.strip())):
            raise ParseError(f"bad label in relation {line!r}", lineno)
        if line and not lt and not _token_ok(line):
            raise ParseError(
                f"an element declaration must be a single token, "
                f"got {line!r}", lineno)


def parse_text(text: str) -> PosetDocument:
    """Parse the relation text format; see the module docstring.

    Raises ParseError with a line number on malformed lines and
    CycleDetected when the declared relation is cyclic.
    """
    return PosetDocument.from_poset(_text_poset(text))


def emit_text(doc: PosetDocument) -> str:
    """Canonical text form: isolated elements, then sorted cover lines."""
    for label in doc.elements:
        if not _token_ok(label):
            raise ParseError(
                f"label {label!r} is not representable in the text format")
    lines = []
    if doc.name:
        if doc.name.splitlines() != [doc.name]:
            # the comment line would end early and the rest parse as statements
            raise ParseError(
                f"name {doc.name!r} is not representable in the text format")
        lines.append(f"# {doc.name}")
    touched = {lab for pair in doc.covers for lab in pair}
    for label in sorted(doc.elements):
        if label not in touched:
            lines.append(label)
    for a, b in sorted(doc.covers):
        lines.append(f"{a} < {b}")
    return "\n".join(lines) + "\n"


def parse_json(text: str) -> PosetDocument:
    """Parse the JSON poset format; schema failures raise ParseError."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return PosetDocument.from_poset(*_json_poset(obj))


def _json_poset(obj: object) -> tuple[Poset, str | None]:
    """Validate a decoded JSON value against the schema: (poset, name)."""
    if not isinstance(obj, dict):
        raise ParseError("the top level must be an object")
    extra = set(obj) - {"elements", "covers", "name"}
    if extra:
        raise ParseError(f"unknown keys: {sorted(extra)}")
    if "elements" not in obj or "covers" not in obj:
        raise ParseError("both 'elements' and 'covers' are required")
    elements = obj["elements"]
    if (not isinstance(elements, list)
            or any(not isinstance(e, str) or not e for e in elements)):
        raise ParseError("'elements' must be an array of nonempty strings")
    if len(set(elements)) != len(elements):
        raise ParseError("'elements' contains duplicates")
    known = set(elements)
    if not isinstance(obj["covers"], list):
        raise ParseError("'covers' must be an array of pairs")
    covers: list[tuple[str, str]] = []
    for entry in obj["covers"]:
        if (not isinstance(entry, list) or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], str)):
            raise ParseError("every cover must be a two-element string array")
        a, b = entry
        if a not in known:
            raise ParseError(f"unknown label {a!r} in covers")
        if b not in known:
            raise ParseError(f"unknown label {b!r} in covers")
        covers.append((a, b))
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("'name' must be a string")
    return Poset.from_relations(elements, covers), name


def emit_json(doc: PosetDocument) -> str:
    """Canonical JSON: fixed key order, sorted arrays, trailing newline.

    The text is ``json.dumps(payload, indent=2) + "\\n"`` for the payload
    of name (if set), sorted elements and sorted cover pairs, written
    directly: with an indent, ``json.dumps`` takes its pure-Python
    encoder, so only its C string escaper is used here.
    """
    enc = encode_basestring_ascii
    parts = ["{\n"]
    if doc.name is not None:
        parts.append(f'  "name": {enc(doc.name)},\n')
    if doc.elements:
        parts.append('  "elements": [\n    ')
        parts.append(",\n    ".join([enc(e) for e in sorted(doc.elements)]))
        parts.append("\n  ],\n")
    else:
        parts.append('  "elements": [],\n')
    if doc.covers:
        parts.append('  "covers": [\n    ')
        parts.append(",\n    ".join(
            [f"[\n      {enc(a)},\n      {enc(b)}\n    ]"
             for a, b in sorted(doc.covers)]))
        parts.append("\n  ]\n")
    else:
        parts.append('  "covers": []\n')
    parts.append("}\n")
    return "".join(parts)


def load_document(text: str) -> PosetDocument:
    """Parse either format.

    A leading brace suggests JSON, but labels like "{}" are legal in the
    text format too, so the brace alone is not decisive: only a document
    that actually parses as JSON is treated as one. Valid JSON with a bad
    schema still fails as JSON.
    """
    return PosetDocument.from_poset(*_load(text))


def _load(text: str) -> tuple[Poset, str | None]:
    """The poset and the name of a document in either format.

    Read as :func:`load_document` reads it, but with no document and so no
    label lists built; the command line loads through this.
    """
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except ValueError:
            pass
        else:
            return _json_poset(obj)
    return _text_poset(text), None


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(p: Poset, highlight: dict) -> str:
    """DOT digraph of the cover relation, drawn bottom to top.

    Elements are ranked by longest-path height. ``highlight`` maps labels
    to irreducibility profiles, as :func:`veinprune.irreducibles.profiles`
    returns them: irreducible elements are filled black, coirreducible
    elements get a double ring, and doubly irreducible elements get both.
    Output is byte deterministic.
    """
    heights = p.heights()
    quoted = [_dot_quote(label) for label in p.labels]
    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=circle];"]
    by_level: dict[int, list[str]] = {}
    for label, name in zip(p.labels, quoted):  # labels ascending
        by_level.setdefault(heights[label], []).append(name)
    for level in sorted(by_level):
        row = " ".join(f"{name};" for name in by_level[level])
        lines.append(f"  {{ rank=same; {row} }}")
    for label, name in zip(p.labels, quoted):
        entry = highlight.get(label)
        attrs = []
        if entry is not None and entry.irreducible:
            attrs.append("style=filled, fillcolor=black, fontcolor=white")
        if entry is not None and entry.coirreducible:
            attrs.append("peripheries=2")
        if attrs:
            lines.append(f"  {name} [{', '.join(attrs)}];")
    for i, ups in enumerate(p._ucov):  # the covers, sorted
        for j in ups:
            lines.append(f"  {quoted[i]} -> {quoted[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
