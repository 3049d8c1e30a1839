"""Covered vertices and source-set containment.

A vertex w is covered when some other vertex w' on the same level satisfies
S(w) subset-of S(w').  Covered vertices admit a closed form once the level
exceeds the number of variables: w is covered iff some coordinate exceeds
(level - 1) * d.  The oracle here recomputes coverage from the source sets
themselves, so the closed form can be checked level by level: a vertex
covering w is fed by every source of w, so w is compared only with the
vertices one of its sources feeds.  Its brute-force oracle is the level-scan
test in tests/test_coverage.py, which compares every pair of vertices on a
level.  Everything downstream (chains, probes) consumes the oracle, not the
formula.  Each level's cover map is computed once and kept on the Diagram,
beside its vertex levels and neighbour caches.

Coverage depends only on the diagram shape, never on edge multiplicities.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Diagram, Vertex, _count, _greedy_fill, compositions_desc
from .errors import LadderPreconditionViolated, PreconditionNotMet


def _feeds(diagram: Diagram, vertices: tuple[Vertex, ...]) -> dict[Vertex, list[int]]:
    """Each source of `vertices` -> the positions of the vertices it feeds, ascending.

    Read from `source_set`, so it is the relation every suite checks; built
    per call and not kept.
    """
    fed: dict[Vertex, list[int]] = {}
    for k, w in enumerate(vertices):
        for u in diagram.source_set(w):
            fed.setdefault(u, []).append(k)
    return fed


def _covering_map(diagram: Diagram, level: int) -> dict[Vertex, tuple[Vertex, ...]]:
    """For each level-`level` vertex, the tuple of vertices covering it.

    A vertex covering w is fed by each source of w, so by its first; a w
    with no source is compared with the whole level.
    """
    covers = diagram._covers
    if level not in covers:
        vertices = diagram.vertices(level)
        sources = {w: frozenset(diagram.source_set(w)) for w in vertices}
        fed = _feeds(diagram, vertices)
        found = {}
        for w in vertices:
            first = next(iter(diagram.source_set(w)), None)
            candidates = vertices if first is None else map(vertices.__getitem__, fed[first])
            found[w] = tuple(v for v in candidates if v != w and sources[w] <= sources[v])
        covers[level] = found
    return covers[level]


def covering_vertices(diagram: Diagram, w: Vertex) -> tuple[Vertex, ...]:
    """All same-level vertices whose source set contains S(w), canonical order.

    A vertex missing from its level's kept map is validated, so one off the
    lattice raises ValueError before any map is built for it.
    """
    try:
        return diagram._covers[w[0]][w]
    except (KeyError, TypeError):  # a miss, or an unhashable pair `_checked` reads
        w = diagram._checked(w)
        return _covering_map(diagram, w.level)[w]


def is_covered_oracle(diagram: Diagram, w: Vertex) -> bool:
    """Covered test by direct source-set comparison: the oracle for the closed form."""
    return bool(covering_vertices(diagram, w))


def is_covered_formula(diagram: Diagram, w: Vertex) -> bool | None:
    """Closed-form covered test; None when the level is too low to apply.

    Valid for level > q: covered iff some coordinate exceeds (level - 1) * d.
    """
    w = diagram._checked(w)
    if w.level <= diagram.arity:
        return None
    return _excess_direction(diagram, w) is not None


class VertexCoverage(NamedTuple):
    vertex: Vertex
    formula: bool | None
    oracle: bool
    covered_by: tuple[Vertex, ...]


class CoverageReport(NamedTuple):
    """Per-vertex coverage at one level, with formula-vs-oracle discrepancies."""

    level: int
    entries: tuple[VertexCoverage, ...]
    discrepancies: tuple[Vertex, ...]

    @property
    def covered_count(self) -> int:
        return sum(1 for e in self.entries if e.oracle)

    @property
    def uncovered_count(self) -> int:
        return len(self.entries) - self.covered_count

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "vertices": [
                {
                    "v": list(e.vertex.coords),
                    "formula": e.formula,
                    "oracle": e.oracle,
                    "covered_by": [list(c.coords) for c in e.covered_by],
                }
                for e in self.entries
            ],
            "discrepancies": [list(v.coords) for v in self.discrepancies],
        }


def coverage_report(diagram: Diagram, level: int) -> CoverageReport:
    entries = []
    bad = []
    for w in diagram.vertices(level):
        formula = is_covered_formula(diagram, w)
        oracle = is_covered_oracle(diagram, w)
        entries.append(VertexCoverage(w, formula, oracle, covering_vertices(diagram, w)))
        if formula is not None and formula != oracle:
            bad.append(w)
    return CoverageReport(level, tuple(entries), tuple(bad))


def _excess_direction(diagram: Diagram, w: Vertex) -> int | None:
    """The unique direction with w(j) > (level - 1) * d, if one exists; w is
    a vertex the diagram issued."""
    bound = (w.level - 1) * diagram.degree
    for j in range(1, diagram.arity + 1):
        if w.coord(j) > bound:
            return j
    return None


def slack(diagram: Diagram, w: Vertex, j: int) -> int:
    """d minus the off-j coordinate sum; in 1..d when w(j) > (level - 1) * d."""
    w, j = diagram._checked(w), _count(j, 1, diagram.arity, "direction")
    return diagram.degree - (sum(w.coords) - w.coord(j))


def _predicted_cover(diagram: Diagram, w: Vertex, j: int, sign: int, most: int) -> set[Vertex]:
    """The vertices w + sign * sigma, where sigma drains 1..most from coordinate j.

    sigma takes b from coordinate j and spreads b over the others, for each
    b = 1..most; shifts leaving the lattice are dropped.  sign = +1 reads
    sigma as w' - w, sign = -1 as w - w'.
    """
    out = set()
    for b in range(1, most + 1):
        for spread in compositions_desc(b, diagram.arity - 1):
            sigma = spread[: j - 1] + (-b,) + spread[j - 1 :]
            coords = tuple(c + sign * s for c, s in zip(w.coords, sigma))
            if min(coords) >= 0:
                out.add(diagram._vertex(coords))
    return out


class Cov2Report(NamedTuple):
    """Both sign conventions of the covering-set description against the oracle.

    The description fixes the direction j with w(j) > (level - 1) * d and
    claims the covering vertices are exactly w shifted by a vector sigma that
    drains 1..slack from coordinate j into the others.  Whether sigma means
    w' - w or w - w' changes the prediction; this report scores each reading
    over every covered vertex of the level.
    """

    level: int
    checked: int
    mismatches_forward: tuple[tuple[Vertex, tuple[Vertex, ...], tuple[Vertex, ...]], ...]
    mismatches_reverse: tuple[tuple[Vertex, tuple[Vertex, ...], tuple[Vertex, ...]], ...]

    @property
    def matching_convention(self) -> str | None:
        if not self.mismatches_forward:
            return "sigma = w' - w"
        if not self.mismatches_reverse:
            return "sigma = w - w'"
        return None


def check_cov2(diagram: Diagram, level: int) -> Cov2Report:
    """Score both sigma orientations of the covering-set formula at one level."""
    if level <= diagram.arity:
        raise PreconditionNotMet(f"need level > q = {diagram.arity}, got {level}")
    checked = 0
    fwd_rows = []
    rev_rows = []
    for w in diagram.vertices(level):
        j = _excess_direction(diagram, w)
        if j is None:
            continue
        checked += 1
        truth = set(covering_vertices(diagram, w))
        readings = ((fwd_rows, 1, slack(diagram, w, j)), (rev_rows, -1, diagram.degree))
        for rows, sign, most in readings:  # sigma = w' - w up to the slack, w - w' up to d
            predicted = _predicted_cover(diagram, w, j, sign, most)
            if predicted != truth:
                missing = tuple(sorted(truth - predicted, reverse=True))
                spurious = tuple(sorted(predicted - truth, reverse=True))
                rows.append((w, missing, spurious))
    return Cov2Report(level, checked, tuple(fwd_rows), tuple(rev_rows))


class SourceUncoveredReport(NamedTuple):
    """Whether every source of one vertex is uncovered, with the witnesses."""

    vertex: Vertex
    all_uncovered: bool
    covered_sources: tuple[Vertex, ...]
    # sufficient condition: every coordinate at most (level - 2) * d
    bound_condition: bool
    # sufficient condition: some direction j with 2d <= w(j) <= (level - 2) * d
    direction_condition: bool


def source_all_uncovered(diagram: Diagram, w: Vertex) -> SourceUncoveredReport:
    """Check each source of w against the coverage oracle, plus both sufficient conditions."""
    w = diagram._checked(w)
    if w.level <= diagram.arity:
        raise PreconditionNotMet(f"need level > q = {diagram.arity}, got {w.level}")
    d = diagram.degree
    bound = (w.level - 2) * d
    covered = tuple(u for u in diagram.source_set(w) if is_covered_oracle(diagram, u))
    return SourceUncoveredReport(
        vertex=w,
        all_uncovered=not covered,
        covered_sources=covered,
        bound_condition=all(c <= bound for c in w.coords),
        direction_condition=any(2 * d <= c <= bound for c in w.coords),
    )


def target_uncovered_check(diagram: Diagram, level: int) -> tuple[tuple[Vertex, Vertex], ...]:
    """Counterexamples to: an uncovered source forces the target uncovered.

    Scans every level-`level` vertex with at least one uncovered source and
    returns (target, uncovered source) pairs where the target is nevertheless
    covered.  Expected empty whenever level - 1 > q.
    """
    if level - 1 <= diagram.arity:
        raise PreconditionNotMet(f"need level - 1 > q = {diagram.arity}, got level {level}")
    bad = []
    for w in diagram.vertices(level):
        witness = next(
            (u for u in diagram.source_set(w) if not is_covered_oracle(diagram, u)), None
        )
        if witness is not None and is_covered_oracle(diagram, w):
            bad.append((w, witness))
    return tuple(bad)


def source_ladder(diagram: Diagram, z: Vertex, j: int) -> tuple[Vertex, ...]:
    """Sources w_0..w_d of z with j-th coordinates z(j), z(j) - 1, ..., z(j) - d.

    Requires d <= z(j) <= (level - 1) * d.  Built by starting from a source
    vector with nothing in direction j and shuffling one unit at a time into
    direction j; the intermediate subtrahends stay within z, so every rung is
    a genuine source of z.
    """
    z, j = diagram._checked(z), _count(j, 1, diagram.arity, "direction")
    d = diagram.degree
    if not d <= z.coord(j) <= (z.level - 1) * d:
        raise LadderPreconditionViolated(
            f"need {d} <= z({j}) <= {(z.level - 1) * d}, got {z.coord(j)}"
        )
    # fill a degree-d subtrahend from the coordinates other than j, left to right
    take = _greedy_fill([*z.coords[: j - 1], 0, *z.coords[j:]], d)
    assert sum(take) == d, "off-j coordinates sum to at least d under the precondition"
    rungs = [diagram._vertex(tuple(a - t for a, t in zip(z.coords, take)))]
    for _ in range(d):
        donor = next(idx for idx in range(diagram.arity) if idx != j - 1 and take[idx] > 0)
        take[donor] -= 1
        take[j - 1] += 1
        rungs.append(diagram._vertex(tuple(a - t for a, t in zip(z.coords, take))))
    return tuple(rungs)
