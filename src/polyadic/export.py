"""Serialization of diagrams to DOT and JSON documents.

Outputs are deterministic byte for byte: vertices appear in canonical order,
JSON objects are written with sorted keys, and every document carries the same
header block (schema version, polynomial, multiplicity mode, ordering, seed).

`to_stable_json` writes the same bytes as
`json.dumps(obj, sort_keys=True, indent=2)`, plus a final newline: two-space
indent, `","` between items and `": "` after keys, ASCII-only strings, ints
and floats as their `repr` (`NaN`/`Infinity`/`-Infinity` when not finite),
and the stdlib's conversion of int, float, bool and None keys.  A type that
json.dumps rejects (a numpy integer, a set) or keys it cannot sort raise
TypeError here too.  The stdlib is not called because it uses its C encoder
only when `indent` is None: with an indent every value passes through nested
Python generators, which for a probe's survivor list costs more than the
probe itself.  This emitter joins each container's members at once, quotes
strings with the stdlib's C `encode_basestring_ascii` and writes an all-int
list in one join.  orjson is not used either: it rejects ints beyond 64 bits
(tower dimensions pass 2**64 near level 70), and its float text differs from
`repr`.  An object's keys, values and separators join in one step, and the
final newline is part of the top-level container's own join, so a large
member is not copied again on its way up.

A value may arrive already written, as an `Encoded` holding the text that
`to_stable_json` gives it at top level without the final newline.  The
emitter re-indents it for its depth with one `replace` of "\n": the text's
only raw newlines are its line breaks, since `encode_basestring_ascii`
escapes every newline inside a string.  The probe writes its survivor rows
this way, straight from its columns.  A generic route was measured and not
taken: `json.dumps(obj, sort_keys=True)` (the C encoder) re-indented with
numpy wrote the same bytes, but on the Pascal i=0 L=6 probe document it only
went from 58 to 46 ms, since the compact C dump of the report tree alone
takes 20-24 ms.  Writing that report's rows and embedding them takes about
14 ms (Python 3.11, 2-vCPU Xeon).
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .core import Diagram
from .vershik import Ordering
from .version import __version__

SCHEMA_VERSION = 1


def document_header(
    diagram: Diagram, ordering: Ordering | None = None, seed: int | None = None
) -> dict:
    header = {
        "schema_version": SCHEMA_VERSION,
        "generator": f"polyadic {__version__}",
        "polynomial": diagram.spec.to_json(),
        "mode": diagram.mode,
    }
    if ordering is not None:
        header["ordering"] = ordering.describe()
    if seed is not None:
        header["seed"] = seed
    return header


class Encoded:
    """A value's stable JSON written in advance: `to_stable_json`'s text
    without the final newline.

    A plain class, not a `str` subclass, so `json.dumps` rejects it instead
    of writing it as a quoted string.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def to_stable_json(obj: dict) -> str:
    t = type(obj)
    if t is dict:
        return _dict(obj, "\n", "\n")
    if t is list or t is tuple:
        return _list(obj, "\n", "\n")
    return _value(obj, "\n") + "\n"


_int_repr = int.__repr__
_INF = float("inf")


def _float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


def _key(k) -> str:
    """An object key as text, converted in the stdlib's order of tests."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return _int_repr(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _dict(o: dict, nl: str, tail: str = "") -> str:
    """`o` as an object whose closing brace follows `nl` (newline plus indent)."""
    if not o:
        return "{}" + tail
    inner = nl + "  "
    sep = "," + inner
    parts = ["{" + inner]
    for k, v in sorted(o.items()):
        parts += (
            _quote(k if type(k) is str else _key(k)),
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
        return o.text.replace("\n", nl)
    # floats and subclasses, tested in the stdlib's order
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, int):
        return _int_repr(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        return _list(o, nl)
    if isinstance(o, dict):
        return _dict(o, nl)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


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
