"""Edge orderings and the adic successor machine on finite paths.

An ordering labels the incoming edges of every vertex bijectively with
1..indegree.  Root-to-v paths then carry the usual odometer structure: the
successor finds the lowest non-maximal edge, bumps it to the next label, and
restarts everything below it at the minimal path into the new source.  Paths
to the same terminal vertex form a tower, ordered by deepest-differing-edge
comparison; rank and unrank convert between a path and its tower position.

An ordering keeps one integer table per level, built a whole level at a
time from the diagram's shifted runs and dimension rows: per vertex in
label order, each incoming edge's source rank and copy, and the prefix
sums of the source dimensions.  A vertex is a rank there: one lookup in
the diagram's vertex index gives a vertex's rank, and the diagram's level
tuple turns a rank back into its vertex.  The edge views behind
`edges_in`, labels, successor, predecessor and `path_rank` are built from
the tables per vertex on first use; a label index gives each view edge its
label, its target's edges between two Nones (so the edge at label + 1 or
label - 1 is None past either end) and its rank offset.  One descent builds
every path an ordering hands out: it walks the tables on integers and takes
each edge from its target's view, so a path is made of the label index's
own keys.
`path_unrank` is that descent, and the extreme paths are its two ends,
rank 0 and dim - 1, kept in a pair of caches, `_minimal` and `_maximal`.
Every cache keys on the vertex or edge value and stores only valid ones, so
a hit needs no check.  Successor and predecessor are one step, a carry or a
borrow of one label: it joins the cached minimal or maximal path, one view
edge and a suffix of x, checking only the two seams.  The descent and the
step make their paths with the named tuple's `_make`, which skips the
checks of `FinitePath.__new__`.
A vertex coding word is built per call, one level at a time, and not kept.

All of this is finite-horizon: a path maximal up to its terminal vertex has
no successor here, because the infinite-diagram successor would depend on
edges below the horizon.  Callers that simulate orbits must treat those
boundaries as censoring (see the probe module).
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from itertools import chain, count, repeat
from typing import Iterator, Mapping, NamedTuple

from .core import Diagram, EdgeRef, Vertex, _count, _integers
from .errors import (
    MaximalAtHorizon,
    MinimalAtHorizon,
    NonBijectiveLabeling,
    RankOutOfRange,
    TowerTooLarge,
)

DEFAULT_TOWER_BUDGET = 10**6
_LAST = object()  # the last rank of a tower, for `_descent`


class _PathFields(NamedTuple):
    terminal: Vertex
    edges: tuple[EdgeRef, ...]


class FinitePath(_PathFields):
    """A root-to-`terminal` edge path; empty exactly at the root itself.

    An ordering makes its paths with `_make`, which skips these checks.
    """

    __slots__ = ()

    def __new__(cls, terminal: Vertex, edges: tuple[EdgeRef, ...]) -> FinitePath:
        if edges:
            if edges[0].source.level != 0:
                raise ValueError("path must start at the root")
            if edges[-1].target != terminal:
                raise ValueError("path does not end at its terminal vertex")
            for a, b in zip(edges, edges[1:]):
                if a.target != b.source:
                    raise ValueError("path edges are not contiguous")
        elif terminal.level != 0:
            raise ValueError("empty path must sit at the root")
        return super().__new__(cls, terminal, edges)

    def _replace(self, **changes) -> FinitePath:  # checked, unlike `_make`
        return type(self)(**{**self._asdict(), **changes})

    @property
    def level(self) -> int:
        return len(self.edges)

    def vertices(self) -> tuple[Vertex, ...]:
        """Root through terminal, one vertex per level."""
        if not self.edges:
            return (self.terminal,)
        return (self.edges[0].source,) + tuple(e.target for e in self.edges)

    def to_json(self) -> list:
        return [e.to_json() for e in self.edges]


def _mix(seed: int, v: Vertex) -> int:
    """Stable per-vertex RNG seed, independent of traversal order."""
    key = (seed or 0) & 0xFFFFFFFFFFFFFFFF
    for part in (v.level, *v.coords):
        key = (key * 1000003 + part + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF
    return key


def _explicit_labels(diagram: Diagram, table: Mapping[str, list[int]]) -> tuple[dict, dict]:
    """An explicit table's label lists, each checked and read as ints, keyed as given and by vertex."""
    read: dict[str, list[int]] = {}
    labels_at: dict[Vertex, list[int]] = {}
    for key, given in table.items():
        try:
            level, _, coords = key.partition(":")
            w = diagram.vertex(map(int, coords.split(",")), int(level))
        except (AttributeError, ValueError) as exc:
            raise ValueError(f"explicit key {key!r} is not a vertex 'level:c1,...' ({exc})") from None
        n = diagram.indegree(w)
        labels = _integers(given) if isinstance(given, (list, tuple)) else None
        if labels is None or sorted(labels) != list(range(1, n + 1)):
            raise NonBijectiveLabeling(f"labels for {key} are {given!r}, not a permutation of 1..{n}")
        if w in labels_at:
            raise ValueError(f"two explicit keys name {w}")
        read[key] = labels_at[w] = list(labels)
    return read, labels_at


class _LevelTable(NamedTuple):
    """One level's incoming edges, vertex after vertex by rank, each vertex's
    in label order: vertex r's edges are entries start[r] to start[r + 1] - 1."""

    start: list[int]
    source: list[int]  # the source's rank, one level down
    copy: list[int]
    sums: list[int]  # dimensions of the sources with lower labels at the same vertex


class Ordering:
    """A labeling of every vertex's incoming edges with 1..indegree.

    Presets: "source-lex" (sources in ascending lexicographic order, then
    copy), "source-revlex" (sources in canonical descending order), and
    "random" (a shuffle seeded by the integer `seed`, 0 by default, derived
    per vertex so labels do not depend on evaluation order; any other preset
    refuses a seed).  The "explicit" preset takes a table that overrides
    chosen vertices of source-lex: it maps "level:c1,c2,..." to the list of
    labels given to the source-lex enumeration of incoming edges.  The whole
    spec is checked here: each key must name a vertex of the diagram and
    each list must be a permutation of 1..indegree.
    """

    def __init__(
        self,
        diagram: Diagram,
        preset: str = "source-lex",
        seed: int | None = None,
        table: Mapping[str, list[int]] | None = None,
    ) -> None:
        if preset not in ("source-lex", "source-revlex", "random", "explicit"):
            raise ValueError(f"unknown ordering preset {preset!r}")
        if seed is not None and preset != "random":
            raise ValueError(f"a seed is for the random preset only, not {seed!r} for {preset!r}")
        if (preset == "explicit") != (table is not None):
            raise ValueError("an explicit table goes with the explicit preset, which needs one")
        self.diagram = diagram
        self.preset = preset
        self.seed = _count(0 if seed is None else seed, what="a seed") if preset == "random" else None
        self.table, self._labels = _explicit_labels(diagram, table or {})  # as read, for `describe`
        self._tables: list[_LevelTable | None] = [_LevelTable([0, 0], [], [], [])]
        self._views: dict[Vertex, tuple[EdgeRef, ...]] = {}
        # view edge -> (label, its target's edges between two Nones, its sums entry)
        self._slots: dict[EdgeRef, tuple[int, tuple[EdgeRef | None, ...], int]] = {}
        self._minimal: dict[Vertex, FinitePath] = {}
        self._maximal: dict[Vertex, FinitePath] = {}

    def describe(self) -> dict:
        if self.preset == "explicit":
            return {"explicit": self.table}
        return {"preset": self.preset} | ({"seed": self.seed} if self.preset == "random" else {})

    def _permuted(self, w: Vertex, edges: list) -> list:
        """w's incoming edges, given in source-lex order, put in label order.

        Source-lex order lists the sources ascending, which is the source
        vectors descending (canonical order), then copies; the preset or the
        explicit table permutes it.
        """
        labels = self._labels.get(w)
        if labels is not None:
            return [edge for _, edge in sorted(zip(labels, edges))]  # labels are distinct
        if self.preset == "source-revlex":
            edges.reverse()
        elif self.preset == "random":
            random.Random(_mix(self.seed, w)).shuffle(edges)
        return edges

    def _level(self, level: int) -> _LevelTable:
        """The table of `level`, built on first use from the diagram's runs and
        the dimension row one level down."""
        tables = self._tables
        if level >= len(tables):
            tables.extend([None] * (level + 1 - len(tables)))
        table = tables[level]
        if table is None:
            d = self.diagram
            vertices = d.vertices(level)
            dims = d._row(level - 1)
            columns = []  # per source vector: the source rank at each vertex, or -1
            for mult, shifts in d._shifts(level):
                column = [-1] * len(vertices)
                for src, dst, size in shifts:
                    column[dst : dst + size] = range(src, src + size)
                columns.append((column, range(1, mult + 1)))
            start, source, copy, sums = [0], [], [], []
            for r, w in enumerate(vertices):
                edges = [(col[r], c) for col, copies in columns if col[r] >= 0 for c in copies]
                total = 0
                for u, c in self._permuted(w, edges):
                    source.append(u)
                    copy.append(c)
                    sums.append(total)
                    total += dims[u]
                start.append(len(source))
            table = tables[level] = _LevelTable(start, source, copy, sums)
        return table

    def _tables_to(self, level: int) -> list[_LevelTable]:
        """The tables of levels 1 to `level`, the missing ones built bottom-up,
        so each dimension row is stepped from the row just below it."""
        tables = self._tables[1 : level + 1]
        if len(tables) < level or None in tables:
            tables = [self._level(n) for n in range(1, level + 1)]
        return tables

    def _view(self, w: Vertex) -> tuple[EdgeRef, ...]:
        """The incoming edges of w in label order, built from its level's
        table on first use; building them fills their slots."""
        try:
            return self._views[w]
        except (KeyError, TypeError):  # a miss, or an unhashable pair `_entry` reads
            d = self.diagram
            w, rank = d._entry(w)
            start, source, copy, sums = self._level(w.level)
            a, b = start[rank], start[rank + 1]
            sources = map(d.vertices(w.level - 1).__getitem__, source[a:b])
            edges = self._views[w] = tuple(map(EdgeRef._make, zip(sources, repeat(w), copy[a:b])))
            self._slots.update(zip(edges, zip(count(1), repeat((None, *edges, None)), sums[a:b])))
            return edges

    def _slot(self, edge: EdgeRef) -> tuple[int, tuple[EdgeRef | None, ...], int]:
        """(label, the target's edges in label order between two Nones, rank
        offset): the padded edges hold label k at position k.

        On a miss the target's edges are built and looked up again; an edge
        of no vertex's edges raises ValueError.
        """
        try:
            return self._slots[edge]
        except (KeyError, TypeError):  # as in `_view`
            try:
                self._view(edge.target)
                return self._slots[edge]
            except (ValueError, KeyError, TypeError):
                raise ValueError(f"{edge} is not an edge of this ordering") from None

    def edges_in(self, w: Vertex) -> tuple[EdgeRef, ...]:
        """Incoming edges of w in label order (position k holds label k + 1)."""
        return self._view(w)

    def label_of(self, edge: EdgeRef) -> int:
        return self._slot(edge)[0]

    def indegree(self, w: Vertex) -> int:
        return len(self._view(w))

    def minimal_path(self, v: Vertex) -> FinitePath:
        """The all-label-1 path into v: rank 0 of its tower."""
        return self._extreme(v, self._minimal)

    def maximal_path(self, v: Vertex) -> FinitePath:
        """The all-maximal-label path into v: rank dim - 1 of its tower."""
        return self._extreme(v, self._maximal)

    def _extreme(self, v: Vertex, cache: dict) -> FinitePath:
        """The path of rank 0 in v's tower, or of its last rank when `cache`
        is `_maximal`, kept in `cache`."""
        try:
            return cache[v]
        except (KeyError, TypeError):  # as in `_view`
            found = self._descent(v, 0 if cache is self._minimal else _LAST)
            return cache.setdefault(found.terminal, found)

    def successor(self, x: FinitePath) -> FinitePath:
        """Next path in the tower of x's terminal vertex.

        Finds the lowest edge with a higher-labeled sibling, advances it, and
        prepends the minimal path into the advanced edge's source.
        """
        return self._step(x, 1, self._minimal)

    def predecessor(self, x: FinitePath) -> FinitePath:
        """Inverse of successor; the advanced edge's source gets a maximal prefix."""
        return self._step(x, -1, self._maximal)

    def _step(self, x: FinitePath, step: int, heads: dict) -> FinitePath:
        """Carry (step 1) or borrow (step -1): x's lowest label that can move
        by `step` moves, and the extreme path from `heads` into the moved
        edge's source, minimal after a carry and maximal after a borrow,
        replaces the edges below it.  A label cannot move past either end of
        its padded edges, which hold None there.  The head and x are valid
        paths, so only the seams at either end of the moved edge are checked.
        """
        slots = self._slots
        for k, edge in enumerate(x.edges):
            label, padded, _ = slots.get(edge) or self._slot(edge)
            moved = padded[label + step]
            if moved is not None:
                head = heads.get(moved.source) or self._extreme(moved.source, heads)
                if head.terminal != moved.source:
                    raise ValueError(f"{head.terminal} does not meet {moved}")
                if moved.target != edge.target:
                    raise ValueError(f"{moved} does not meet {edge.target}")
                return FinitePath._make((x.terminal, head.edges + (moved,) + x.edges[k + 1 :]))
        if step > 0:
            raise MaximalAtHorizon(f"no successor within the tower of {x.terminal}")
        raise MinimalAtHorizon(f"no predecessor within the tower of {x.terminal}")

    def path_rank(self, x: FinitePath) -> int:
        """Tower position of x: 0 for the minimal path, dim - 1 for the maximal."""
        slots = self._slots
        return sum([(slots.get(e) or self._slot(e))[2] for e in x.edges])

    def path_unrank(self, v: Vertex, rank: int) -> FinitePath:
        """The rank-th path of v's tower; inverse of path_rank."""
        return self._descent(v, rank)

    def _descent(self, v: Vertex, rank) -> FinitePath:
        """The rank-th path of v's tower, or its last for `_LAST`.

        Descends the level tables on integers and takes each edge from its
        target's view, so the path is made of the views' own edges, the keys
        of their slots.  The tables are built before the dimension row is
        read: then the row steps from the level below, not from the root.
        """
        d = self.diagram
        v, r = d._entry(v)
        tables = self._tables_to(v.level)
        dim = d._row(v.level)[r]
        rank = dim - 1 if rank is _LAST else _count(rank, 0, dim - 1, "rank", RankOutOfRange)
        views = self._views
        w = v
        edges = []  # top down
        for start, source, _, sums in reversed(tables):
            a = start[r]
            j = bisect_right(sums, rank, a, start[r + 1]) - 1
            rank -= sums[j]
            edge = (views.get(w) or self._view(w))[j - a]
            edges.append(edge)
            r = source[j]
            w = edge.source
        edges.reverse()
        return FinitePath._make((v, tuple(edges)))

    def iter_tower(self, v: Vertex) -> Iterator[FinitePath]:
        """Yield the tower of v in successor order without materializing it."""
        x = self.minimal_path(v)
        yield x
        for _ in range(self.diagram.dimension(v) - 1):
            x = self.successor(x)
            yield x

    def tower(self, v: Vertex, budget: int = DEFAULT_TOWER_BUDGET) -> tuple[FinitePath, ...]:
        """All dim(v) root-to-v paths in successor order (rank 0 is minimal)."""
        dim = self.diagram.dimension(v)
        if dim > budget:
            raise TowerTooLarge(f"dimension {dim} of {v} exceeds budget {budget}")
        return tuple(self.iter_tower(v))

    def vertex_coding(self, w: Vertex, j: int) -> tuple[Vertex, ...]:
        """The level-j sources of all level-j-to-w segments, in segment order.

        Segments are ordered by their deepest differing edge, which makes the
        word the label-order concatenation of the codings of w's sources.  At
        j = level - 1 this is just the incoming sources in label order, each
        repeated by multiplicity.  Each call builds the words of w's down-set
        bottom-up from level j + 1, one level at a time, and keeps none.  It
        orders each vertex's sources itself, without the level tables, so a
        thin down-set such as that of Pascal (3000, 1) stays thin.
        """
        d = self.diagram
        w = d._checked(w)
        j = _count(j, 0, w.level - 1, f"j for {w}")

        def sources(v: Vertex) -> list[Vertex]:  # in label order, one per edge
            edges = [u for u, mult in d._lower(v.coords) for _ in range(mult)]
            return list(map(d._vertex, self._permuted(v, edges)))

        layers = [{w}]
        for _ in range(w.level - j - 1):
            layers.append({u for v in layers[-1] for u in sources(v)})
        words: dict[Vertex, tuple[Vertex, ...]] = {}  # a level-j source is its own word
        for layer in reversed(layers):
            words = {
                v: tuple(chain.from_iterable(words.get(u, (u,)) for u in sources(v)))
                for v in layer
            }
        return words[w]


def make_ordering(
    diagram: Diagram, spec: str | Mapping | None = None, seed: int | None = None
) -> Ordering:
    """Build an ordering from its spec: a preset name, or JSON text or a
    mapping with the keys "preset", "seed" and "explicit" (a table alone
    means the explicit preset).  `seed`, when given, replaces the spec's.
    `Ordering` checks the rest before it builds any table.
    """
    if isinstance(spec, str):
        text = spec.strip()
        spec = json.loads(text) if text.startswith("{") else {"preset": text}
    spec = {} if spec is None else spec
    if not isinstance(spec, Mapping) or set(spec) - {"preset", "seed", "explicit"}:
        raise ValueError(f"an ordering spec takes only 'preset', 'seed' and 'explicit': {spec!r}")
    preset = spec.get("preset", "explicit" if "explicit" in spec else "source-lex")
    seed = spec.get("seed") if seed is None else seed
    return Ordering(diagram, preset, seed, spec.get("explicit"))
