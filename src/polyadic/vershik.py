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
sums of the source dimensions.  `path_unrank` descends these tables on
integers and builds only the edges of the path it returns.  The edge views
behind `edges_in`, labels, successor, predecessor and `path_rank` are built
from the tables per vertex on first use; a label index gives each view edge
its label, its target's edges and its rank offset.  Every cache keys on the
vertex or edge value and stores only valid ones, so a hit needs no check.
Successor and predecessor splice a cached extreme path, one view edge and
a suffix of x, checking only the seams.  A vertex coding word is built per
call, one level at a time, and not kept.

All of this is finite-horizon: a path maximal up to its terminal vertex has
no successor here, because the infinite-diagram successor would depend on
edges below the horizon.  Callers that simulate orbits must treat those
boundaries as censoring (see the probe module).
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import le, sub
from typing import Iterator, Mapping, NamedTuple

from .core import Coords, Diagram, EdgeRef, Vertex
from .errors import (
    MaximalAtHorizon,
    MinimalAtHorizon,
    NonBijectiveLabeling,
    RankOutOfRange,
    TowerTooLarge,
)

DEFAULT_TOWER_BUDGET = 10**6


@dataclass(frozen=True)
class FinitePath:
    """A root-to-`terminal` edge path; empty exactly at the root itself."""

    terminal: Vertex
    edges: tuple[EdgeRef, ...]

    def __post_init__(self) -> None:
        if self.edges:
            if self.edges[0].source.level != 0:
                raise ValueError("path must start at the root")
            if self.edges[-1].target != self.terminal:
                raise ValueError("path does not end at its terminal vertex")
            for a, b in zip(self.edges, self.edges[1:]):
                if a.target != b.source:
                    raise ValueError("path edges are not contiguous")
        elif self.terminal.level != 0:
            raise ValueError("empty path must sit at the root")

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


def _contiguous(terminal: Vertex, edges: tuple[EdgeRef, ...]) -> FinitePath:
    """A path its maker knows to be contiguous, built without the checks."""
    path = object.__new__(FinitePath)
    vars(path).update(terminal=terminal, edges=edges)
    return path


def _splice(head: FinitePath, edge: EdgeRef, x: FinitePath, k: int) -> FinitePath:
    """head, `edge`, then x after its edge k; head and x are validated paths,
    so only the seams at either end of `edge` need checking."""
    if head.terminal != edge.source:
        raise ValueError(f"{head.terminal} does not meet {edge}")
    if edge.target != (end := x.edges[k].target):
        raise ValueError(f"{edge} does not meet {end}")
    return _contiguous(x.terminal, head.edges + (edge,) + x.edges[k + 1 :])


def _mix(seed: int, v: Vertex) -> int:
    """Stable per-vertex RNG seed, independent of traversal order."""
    key = (seed or 0) & 0xFFFFFFFFFFFFFFFF
    for part in (v.level, *v.coords):
        key = (key * 1000003 + part + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF
    return key


def _explicit_labels(diagram: Diagram, table: Mapping[str, list[int]]) -> dict[Vertex, list[int]]:
    """An explicit table keyed on its vertices, each key and label list checked."""
    labels_at: dict[Vertex, list[int]] = {}
    for key, labels in table.items():
        try:
            level, _, coords = key.partition(":")
            w = diagram.vertex(coords.split(","), int(level))
        except (AttributeError, ValueError) as exc:
            raise ValueError(f"explicit key {key!r} is not a vertex 'level:c1,...' ({exc})") from None
        n = diagram.indegree(w)
        if not (
            isinstance(labels, (list, tuple))
            and all(type(x) is int for x in labels)
            and sorted(labels) == list(range(1, n + 1))
        ):
            raise NonBijectiveLabeling(
                f"labels for {key} are {labels!r}, not a permutation of 1..{n}"
            )
        if w in labels_at:
            raise ValueError(f"two explicit keys name {w}")
        labels_at[w] = labels
    return labels_at


class _LevelTable(NamedTuple):
    """One level's incoming edges, vertex after vertex by rank, each vertex's
    in label order: vertex r's edges are entries start[r] to start[r + 1] - 1."""

    start: list[int]
    source: list[int]  # the source's rank, one level down
    copy: list[int]
    sums: list[int]  # dimensions of the sources with lower labels at the same vertex
    below: tuple[Vertex, ...]  # the vertices one level down, by rank


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
        if seed is not None and (preset != "random" or type(seed) is not int):
            raise ValueError(
                f"a seed is an integer for the random preset only, not {seed!r} for {preset!r}"
            )
        if (preset == "explicit") != (table is not None):
            raise ValueError("an explicit table goes with the explicit preset, which needs one")
        self.diagram = diagram
        self.preset = preset
        self.seed = 0 if preset == "random" and seed is None else seed
        self.table = dict(table or {})  # as given, for `describe`
        self._labels = _explicit_labels(diagram, self.table)
        self._vectors = [(s, diagram._mult[s]) for s in diagram.spec.source_vectors]
        self._tables: list[_LevelTable | None] = [_LevelTable([0, 0], [], [], [], ())]
        self._views: dict[Vertex, tuple[EdgeRef, ...]] = {}
        # view edge -> (0-based label, its target's edges, its sums entry)
        self._slots: dict[EdgeRef, tuple[int, tuple[EdgeRef, ...], int]] = {}
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
            below = d.vertices(level - 1)
            table = tables[level] = _LevelTable(start, source, copy, sums, below)
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
        edges = self._views.get(w)
        if edges is None:
            d = self.diagram
            rank = d._index(w)
            w = d._issued[w[0], rank]
            start, source, copy, sums, below = self._level(w.level)
            a, b = start[rank], start[rank + 1]
            sources = [below[u] for u in source[a:b]]
            edges = self._views[w] = tuple(map(EdgeRef._make, zip(sources, repeat(w), copy[a:b])))
            self._slots.update(zip(edges, zip(count(), repeat(edges), sums[a:b])))
        return edges

    def _slot(self, edge: EdgeRef) -> tuple[int, tuple[EdgeRef, ...], int]:
        """(0-based label, the target's edges in label order, rank offset).

        On a miss the target's edges are built and looked up again; an edge
        of no vertex's edges raises ValueError.
        """
        slot = self._slots.get(edge)
        if slot is None:
            try:
                self._view(edge.target)
                slot = self._slots[edge]
            except (ValueError, KeyError):
                raise ValueError(f"{edge} is not an edge of this ordering") from None
        return slot

    def edges_in(self, w: Vertex) -> tuple[EdgeRef, ...]:
        """Incoming edges of w in label order (position k holds label k + 1)."""
        return self._view(w)

    def label_of(self, edge: EdgeRef) -> int:
        return self._slot(edge)[0] + 1

    def indegree(self, w: Vertex) -> int:
        return len(self._view(w))

    def _extreme_path(self, v: Vertex, end: int) -> FinitePath:
        """The path into v through the edge at `end` of each vertex's label
        order, 0 or -1.  Its edges are the views' own, the keys of their
        slots, so the successor machine finds them by identity.  The tables
        below v are built first, bottom-up: a view built cold, top-down,
        would step its level's dimension row up from the root again."""
        self._tables_to(v.level)
        edges = []
        w = v
        while w.level:
            edge = (self._views.get(w) or self._view(w))[end]
            edges.append(edge)
            w = edge.source
        edges.reverse()
        return _contiguous(v, tuple(edges))

    def minimal_path(self, v: Vertex) -> FinitePath:
        """The all-label-1 path into v: rank 0 of its tower."""
        found = self._minimal.get(v)
        if found is None:
            v = self.diagram._checked(v)
            found = self._minimal.setdefault(v, self._extreme_path(v, 0))
        return found

    def maximal_path(self, v: Vertex) -> FinitePath:
        """The all-maximal-label path into v: rank dim - 1 of its tower."""
        found = self._maximal.get(v)
        if found is None:
            v = self.diagram._checked(v)
            found = self._maximal.setdefault(v, self._extreme_path(v, -1))
        return found

    def successor(self, x: FinitePath) -> FinitePath:
        """Next path in the tower of x's terminal vertex.

        Finds the lowest edge with a higher-labeled sibling, advances it, and
        prepends the minimal path into the advanced edge's source.
        """
        slots = self._slots
        for k, edge in enumerate(x.edges):
            label, edges, _ = slots.get(edge) or self._slot(edge)
            if label + 1 < len(edges):
                nxt = edges[label + 1]
                head = self._minimal.get(nxt.source) or self.minimal_path(nxt.source)
                return _splice(head, nxt, x, k)
        raise MaximalAtHorizon(f"no successor within the tower of {x.terminal}")

    def predecessor(self, x: FinitePath) -> FinitePath:
        """Inverse of successor; the advanced edge's source gets a maximal prefix."""
        slots = self._slots
        for k, edge in enumerate(x.edges):
            label, edges, _ = slots.get(edge) or self._slot(edge)
            if label > 0:
                prv = edges[label - 1]
                head = self._maximal.get(prv.source) or self.maximal_path(prv.source)
                return _splice(head, prv, x, k)
        raise MinimalAtHorizon(f"no predecessor within the tower of {x.terminal}")

    def path_rank(self, x: FinitePath) -> int:
        """Tower position of x: 0 for the minimal path, dim - 1 for the maximal."""
        slots = self._slots
        return sum([(slots.get(e) or self._slot(e))[2] for e in x.edges])

    def path_unrank(self, v: Vertex, rank: int) -> FinitePath:
        """The rank-th path of v's tower; inverse of path_rank.

        Descends the level tables on integers, then builds the path's edges.
        """
        d = self.diagram
        r = d._index(v)
        level = v[0]
        tables = self._tables_to(level)  # first: then the row steps from level - 1, not the root
        dim = d._row(level)[r]
        if not 0 <= rank < dim:
            raise RankOutOfRange(f"rank {rank} outside 0..{dim - 1} for {v}")
        path, copies = [d._issued[level, r]], []  # top down
        for start, source, copy, sums, below in reversed(tables):
            j = bisect_right(sums, rank, start[r], start[r + 1]) - 1
            rank -= sums[j]
            r = source[j]
            path.append(below[r])
            copies.append(copy[j])
        path.reverse()
        copies.reverse()
        # EdgeRef's own constructor, minus a Python frame per edge
        edges = tuple(map(tuple.__new__, repeat(EdgeRef), zip(path, path[1:], copies)))
        return _contiguous(path[-1], edges)

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
        if not 0 <= j < w.level:
            raise ValueError(f"need 0 <= j < level {w.level}, got {j}")

        def sources(v: Vertex) -> list[Vertex]:  # in label order, one per edge
            edges = [
                s for s, mult in self._vectors if all(map(le, s, v.coords)) for _ in range(mult)
            ]
            return [d._vertex(tuple(map(sub, v.coords, s))) for s in self._permuted(v, edges)]

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

    def basic_block(self, v: Vertex, k: int) -> tuple[tuple[Coords, int], ...]:
        """k-symbols of the tower of v, rank by rank.

        A path's first k edges end at a level-k vertex u and are its rank-r
        path; the symbol is (u.coords, r).  The tower runs through the
        level-k word of v, one block of dim(u) ranks per letter u.
        """
        v = self.diagram._checked(v)
        dim = self.diagram.dimension(v)
        if dim > DEFAULT_TOWER_BUDGET:
            raise TowerTooLarge(f"dimension {dim} of {v} exceeds budget {DEFAULT_TOWER_BUDGET}")
        word = (v,) if k == v.level else self.vertex_coding(v, k)
        return tuple((u.coords, r) for u in word for r in range(self.diagram.dimension(u)))


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
