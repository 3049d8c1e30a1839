"""Serialization of diagrams to DOT and JSON documents.

Outputs are deterministic byte for byte: vertices appear in canonical order,
JSON objects are written with sorted keys, and every document carries the same
header block (schema version, polynomial, the fixed mode "coefficients" and,
where a command takes one, the ordering, whose description holds a random
one's seed).

`to_stable_json` writes the same bytes as
`json.dumps(obj, sort_keys=True, indent=2)`, plus a final newline, and the
stdlib stays the one definition of those bytes.  The emitter is a fast path
in front of it for the values documents hold: exact ints, strs, bools, None,
lists, tuples, and dicts whose keys are all strs.  Each container's members
join at once, strings are quoted with the stdlib's C
`encode_basestring_ascii`, an all-int list is written in one join, and an
exact float is `json.dumps(o)`, the C encoder for a scalar.  Every other
value (a dict with a non-str key, a subclass, a numpy integer, a set) goes
to `json.dumps(o, sort_keys=True, indent=2)`, re-indented for its depth, so
the stdlib converts it or raises its own TypeError.  The stdlib is not used
for the whole document because it uses its C encoder only when `indent` is
None: with an indent every value passes through nested Python generators,
which for a probe's survivor list costs more than the probe itself (the
towers benchmark's `vershik` documents take 18.5 ms per pass that way, 7.2
ms here).  orjson is not used either: it rejects ints beyond 64 bits (tower
dimensions pass 2**64 near level 70), and its float text differs from
`repr`.  An object's keys, values and separators join in one step, and the
final newline is part of the top-level container's own join, so a large
member is not copied again on its way up.

A value may write itself, as an `Encoded` holding a writer: the emitter
calls it once with the `nl` (newline plus indent) that the value's last
line follows where it lands, and embeds the text it returns as it is, so
no copy of a large value is made to re-indent it.  An `Encoded` value
embeds only in exact lists, tuples and str-keyed dicts, since the stdlib
rejects it anywhere else.  The probe writes its survivor rows this way,
straight from its columns: on a 2-vCPU Xeon (Python 3.11) the Pascal i=0
L=6 random:5 document takes about 3 ms, where writing the rows at top
level and re-indenting them took 7-9 ms, and the Pascal i=1 L=16
document (30 MB) about 0.18 s instead of 0.25-0.28 s.  A generic route was
measured and not taken: `json.dumps(obj, sort_keys=True)` (the C encoder)
re-indented with numpy wrote the same bytes, but the compact C dump of
that L=6 report tree alone takes 20-24 ms.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

from .core import Diagram
from .vershik import Ordering
from .version import __version__

if TYPE_CHECKING:
    from collections.abc import Callable

SCHEMA_VERSION = 1


def document_header(diagram: Diagram, ordering: Ordering | None = None) -> dict:
    header = {
        "schema_version": SCHEMA_VERSION,
        "generator": f"polyadic {__version__}",
        "polynomial": diagram.spec.to_json(),
        "mode": "coefficients",  # kept so every document stays byte-identical
    }
    if ordering is not None:
        header["ordering"] = ordering.describe()
    return header


class Encoded:
    """A value that writes its own stable JSON: `write(nl)` returns the text
    `to_stable_json` gives the value where it lands, its last line
    following `nl` (newline plus indent), without a final newline.

    A plain class, not a `str` subclass, so `json.dumps` rejects it instead
    of writing it as a quoted string.
    """

    __slots__ = ("write",)

    def __init__(self, write: Callable[[str], str]):
        self.write = write


def to_stable_json(obj: dict) -> str:
    t = type(obj)
    if t is dict:
        return _dict(obj, "\n", "\n")
    if t is list or t is tuple:
        return _list(obj, "\n", "\n")
    return _value(obj, "\n") + "\n"


_int_repr = int.__repr__


def _stdlib(o, nl: str) -> str:
    """The stdlib's text of `o`, re-indented to follow `nl`."""
    return json.dumps(o, sort_keys=True, indent=2).replace("\n", nl)


def _dict(o: dict, nl: str, tail: str = "") -> str:
    """`o` as an object whose closing brace follows `nl` (newline plus indent)."""
    if not o:
        return "{}" + tail
    inner = nl + "  "
    sep = "," + inner
    parts = ["{" + inner]
    for k, v in sorted(o.items()):
        if type(k) is not str:
            return _stdlib(o, nl) + tail
        parts += (
            _quote(k),
            ": ",
            _int_repr(v) if type(v) is int else _value(v, inner),
            sep,
        )
    parts[-1] = nl + "}" + tail
    return "".join(parts)


def _list(o: list | tuple, nl: str, tail: str = "") -> str:
    if not o:
        return "[]" + tail
    inner = nl + "  "
    for v in o:
        if type(v) is not int:
            items = [_value(v, inner) for v in o]
            break
    else:
        items = map(_int_repr, o)
    return f"[{inner}{(',' + inner).join(items)}{nl}]{tail}"


def _value(o, nl: str) -> str:
    t = type(o)
    if t is int:
        return _int_repr(o)
    if t is dict:
        return _dict(o, nl)
    if t is list or t is tuple:
        return _list(o, nl)
    if t is str:
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is Encoded:
        return o.write(nl)
    if t is float:
        return json.dumps(o)
    return _stdlib(o, nl)


def _node_name(v) -> str:
    return f"n{v.level}_" + "_".join(map(str, v.coords))


def export_dot(diagram: Diagram, max_level: int, parallel_edges: bool = False) -> str:
    """DOT text of the diagram up to max_level.

    Multiplicities appear as edge labels by default, or as that many parallel
    edge lines when `parallel_edges` is set.
    """
    lines = [
        "digraph diagram {",
        "  rankdir=TB;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for level in range(max_level + 1):
        names = []
        for v in diagram.vertices(level):
            lines.append(f'  {_node_name(v)} [label="{v}"];')
            names.append(_node_name(v))
        lines.append("  { rank=same; " + "; ".join(names) + "; }")
    for level in range(1, max_level + 1):
        for w in diagram.vertices(level):
            for u in diagram.source_set(w):
                count = diagram.multiplicity(u, w)
                if parallel_edges:
                    lines.extend(f"  {_node_name(u)} -> {_node_name(w)};" for _ in range(count))
                else:
                    lines.append(f'  {_node_name(u)} -> {_node_name(w)} [label="{count}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(diagram: Diagram, max_level: int) -> dict:
    """A complete JSON document for the diagram up to max_level."""
    levels = []
    for level in range(max_level + 1):
        vertices = []
        for v in diagram.vertices(level):
            entry = {
                "coords": list(v.coords),
                "dimension": diagram.dimension(v),
            }
            if level > 0:
                entry["sources"] = [
                    {"coords": list(u.coords), "multiplicity": diagram.multiplicity(u, v)}
                    for u in diagram.source_set(v)
                ]
            vertices.append(entry)
        levels.append({"level": level, "vertex_count": diagram.vertex_count(level), "vertices": vertices})
    doc = document_header(diagram)
    doc["levels"] = levels
    return doc
