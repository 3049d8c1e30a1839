"""Edge orderings and the adic successor machine on finite paths.

An ordering labels the incoming edges of every vertex bijectively with
1..indegree.  Root-to-v paths then carry the usual odometer structure: the
successor finds the lowest non-maximal edge, bumps it to the next label, and
restarts everything below it at the minimal path into the new source.  Paths
to the same terminal vertex form a tower, ordered by deepest-differing-edge
comparison; rank and unrank convert between a path and its tower position.

An ordering keeps one table per vertex, keyed by its coordinates: incoming
edges in label order and prefix sums of source dimensions.  One label index,
keyed by `id` of each table edge (the tables keep them alive), gives an
edge's label, its target's edges and its rank offset; an equal edge built
elsewhere is looked up by value.  Successor and predecessor splice a cached
extreme path, one table edge and a suffix of x, checking only the seams.  A
vertex coding word is built per call, one level at a time, and not kept.

All of this is finite-horizon: a path maximal up to its terminal vertex has
no successor here, because the infinite-diagram successor would depend on
edges below the horizon.  Callers that simulate orbits must treat those
boundaries as censoring (see the probe module).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterator, Mapping

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
                if a.target is not b.source and a.target != b.source:
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


def _splice(head: FinitePath, edge: EdgeRef, x: FinitePath, k: int) -> FinitePath:
    """head, `edge`, then x after its edge k; head and x are validated paths,
    so only the seams at either end of `edge` need checking."""
    if head.terminal is not edge.source and head.terminal != edge.source:
        raise ValueError(f"{head.terminal} does not meet {edge}")
    end = x.edges[k].target
    if edge.target is not end and edge.target != end:
        raise ValueError(f"{edge} does not meet {end}")
    path = object.__new__(FinitePath)  # contiguous by the seam checks
    vars(path).update(terminal=x.terminal, edges=head.edges + (edge,) + x.edges[k + 1 :])
    return path


def _mix(seed: int, v: Vertex) -> int:
    """Stable per-vertex RNG seed, independent of traversal order."""
    key = (seed or 0) & 0xFFFFFFFFFFFFFFFF
    for part in (v.level, *v.coords):
        key = (key * 1000003 + part + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF
    return key


class Ordering:
    """A labeling of every vertex's incoming edges with 1..indegree.

    Presets: "source-lex" (sources in ascending lexicographic order, then
    copy), "source-revlex" (sources in canonical descending order), and
    "random" (a seeded shuffle, derived per vertex so labels do not depend
    on evaluation order).  An explicit table overrides chosen vertices: it
    maps "level:c1,c2,..." to the list of labels given to the source-lex
    enumeration of incoming edges.
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
        if preset == "random" and seed is None:
            seed = 0
        if preset == "explicit" and table is None:
            raise ValueError("explicit ordering needs a table")
        self.diagram = diagram
        self.preset = preset
        self.seed = seed
        self.table = dict(table) if table else {}
        self._tables: dict[Coords, tuple[tuple[EdgeRef, ...], tuple[int, ...]]] = {}
        # id of a table edge -> (0-based label, its target's edges, sums[label])
        self._slots: dict[int, tuple[int, tuple[EdgeRef, ...], int]] = {}
        self._minimal: dict[Coords, FinitePath] = {}
        self._maximal: dict[Coords, FinitePath] = {}

    def describe(self) -> dict:
        if self.preset == "explicit":
            return {"explicit": self.table}
        out: dict = {"preset": self.preset}
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def _table(self, w: Vertex) -> tuple[tuple[EdgeRef, ...], tuple[int, ...]]:
        """(edges in label order, prefix sums of source dimensions in label
        order, length indegree + 1); building it fills its edges' slots."""
        d = self.diagram
        w = d._checked(w)
        table = self._tables.get(w.coords)
        if table is None:
            base = [
                EdgeRef(d._vertex(u), w, c)
                for u, count in sorted(d._lower(w.coords))
                for c in range(1, count + 1)
            ]
            key = f"{w.level}:{','.join(map(str, w.coords))}"
            if key in self.table:
                perm = self.table[key]
                if sorted(perm) != list(range(1, len(base) + 1)):
                    raise NonBijectiveLabeling(
                        f"labels for {key} are {perm}, not a permutation of 1..{len(base)}"
                    )
                base = [edge for _, edge in sorted(zip(perm, base))]  # labels are distinct
            elif self.preset == "source-revlex":
                base.reverse()
            elif self.preset == "random":
                random.Random(_mix(self.seed, w)).shuffle(base)
            edges = tuple(base)
            sums = (0, *accumulate(d.dimension(e.source) for e in edges))
            self._slots.update((id(e), (i, edges, sums[i])) for i, e in enumerate(edges))
            table = self._tables[w.coords] = (edges, sums)
        return table

    def _slot(self, edge: EdgeRef) -> tuple[int, tuple[EdgeRef, ...], int]:
        """(0-based label, the target's edges in label order, rank offset).

        A table edge is found by identity, any other by value in its target's
        table; an edge of no table raises ValueError.
        """
        slot = self._slots.get(id(edge))
        if slot is None:
            try:
                target = self.diagram.vertex(edge.target.coords, edge.target.level)
                edges = self._table(target)[0]
                slot = self._slots[id(edges[edges.index(edge)])]
            except ValueError:
                raise ValueError(f"{edge} is not an edge of this ordering") from None
        return slot

    def edges_in(self, w: Vertex) -> tuple[EdgeRef, ...]:
        """Incoming edges of w in label order (position k holds label k + 1)."""
        return self._table(w)[0]

    def label_of(self, edge: EdgeRef) -> int:
        return self._slot(edge)[0] + 1

    def indegree(self, w: Vertex) -> int:
        return len(self._table(w)[0])

    def minimal_path(self, v: Vertex) -> FinitePath:
        """The all-label-1 path into v: rank 0 of its tower."""
        v = self.diagram._checked(v)
        found = self._minimal.get(v.coords)
        return found or self._minimal.setdefault(v.coords, self.path_unrank(v, 0))

    def maximal_path(self, v: Vertex) -> FinitePath:
        """The all-maximal-label path into v: rank dim - 1 of its tower."""
        v = self.diagram._checked(v)
        found = self._maximal.get(v.coords)
        return found or self._maximal.setdefault(
            v.coords, self.path_unrank(v, self.diagram.dimension(v) - 1)
        )

    def successor(self, x: FinitePath) -> FinitePath:
        """Next path in the tower of x's terminal vertex.

        Finds the lowest edge with a higher-labeled sibling, advances it, and
        prepends the minimal path into the advanced edge's source.
        """
        slots = self._slots
        for k, edge in enumerate(x.edges):
            label, edges, _ = slots.get(id(edge)) or self._slot(edge)
            if label + 1 < len(edges):
                nxt = edges[label + 1]
                head = self._minimal.get(nxt.source.coords) or self.minimal_path(nxt.source)
                return _splice(head, nxt, x, k)
        raise MaximalAtHorizon(f"no successor within the tower of {x.terminal}")

    def predecessor(self, x: FinitePath) -> FinitePath:
        """Inverse of successor; the advanced edge's source gets a maximal prefix."""
        slots = self._slots
        for k, edge in enumerate(x.edges):
            label, edges, _ = slots.get(id(edge)) or self._slot(edge)
            if label > 0:
                prv = edges[label - 1]
                head = self._maximal.get(prv.source.coords) or self.maximal_path(prv.source)
                return _splice(head, prv, x, k)
        raise MinimalAtHorizon(f"no predecessor within the tower of {x.terminal}")

    def path_rank(self, x: FinitePath) -> int:
        """Tower position of x: 0 for the minimal path, dim - 1 for the maximal."""
        slots = self._slots
        return sum([(slots.get(id(e)) or self._slot(e))[2] for e in x.edges])

    def path_unrank(self, v: Vertex, rank: int) -> FinitePath:
        """The rank-th path of v's tower; inverse of path_rank."""
        if not 0 <= rank < self.diagram.dimension(v):
            raise RankOutOfRange(
                f"rank {rank} outside 0..{self.diagram.dimension(v) - 1} for {v}"
            )
        edges = []
        current = v
        tables = self._tables
        while current.level > 0:
            table, sums = tables.get(current.coords) or self._table(current)
            idx = bisect_right(sums, rank) - 1
            edge = table[idx]
            rank -= sums[idx]
            edges.append(edge)
            current = edge.source
        return FinitePath(v, tuple(reversed(edges)))

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
        bottom-up from level j + 1, one level at a time, and keeps none.
        """
        if not 0 <= j < w.level:
            raise ValueError(f"need 0 <= j < level {w.level}, got {j}")
        layers = [{w}]
        for _ in range(w.level - j - 1):
            layers.append({e.source for v in layers[-1] for e in self.edges_in(v)})
        words: dict[Coords, tuple[Vertex, ...]] = {}  # a level-j source is its own word
        for layer in reversed(layers):
            words = {
                v.coords: tuple(chain.from_iterable(
                    words.get(e.source.coords, (e.source,)) for e in self.edges_in(v)
                ))
                for v in layer
            }
        return words[w.coords]

    def basic_block(self, v: Vertex, k: int) -> tuple[tuple[Coords, int], ...]:
        """k-symbols of the tower of v, rank by rank.

        A path's first k edges end at a level-k vertex u and are its rank-r
        path; the symbol is (u.coords, r).  The tower runs through the
        level-k word of v, one block of dim(u) ranks per letter u.
        """
        dim = self.diagram.dimension(v)
        if dim > DEFAULT_TOWER_BUDGET:
            raise TowerTooLarge(f"dimension {dim} of {v} exceeds budget {DEFAULT_TOWER_BUDGET}")
        word = (v,) if k == v.level else self.vertex_coding(v, k)
        return tuple((u.coords, r) for u in word for r in range(self.diagram.dimension(u)))


def make_ordering(diagram: Diagram, spec: str | Mapping | None = None) -> Ordering:
    """Build an ordering from a preset name or its JSON description."""
    if spec is None:
        return Ordering(diagram)
    if isinstance(spec, str):
        return Ordering(diagram, preset=spec)
    if "explicit" in spec:
        return Ordering(diagram, preset="explicit", table=spec["explicit"])
    return Ordering(diagram, preset=spec.get("preset", "source-lex"), seed=spec.get("seed"))
