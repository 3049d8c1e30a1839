"""Exhaustive invariant suites: closed forms against brute force, level by level.

Each suite returns a list of human-readable discrepancy strings, empty when
everything checks out.  verify_all runs the lot and is the backing for the
CLI's verify-all command: any finding flips the exit code.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from . import coverage
from .chains import check_link_consequences
from .core import Diagram
from .errors import InvalidWeight, PreconditionNotMet
from .measure import (
    MASS_TOLERANCE,
    dim_lower_bound_check,
    level_mass,
    minimal_mass_bound,
    solve_symmetric_weight,
)


def _sharing_pairs(diagram: Diagram, vertices) -> list[tuple]:
    """Pairs (w, w') of distinct vertices, w first in canonical order, with a common source.

    Each source's fed vertices taken two at a time, once per pair, in the
    order of the vertices' positions; tests/test_coverage.py checks them
    against a scan of every vertex pair.
    """
    fed = coverage._feeds(diagram, vertices).values()
    pairs = sorted({pair for positions in fed for pair in combinations(positions, 2)})
    return [(vertices[a], vertices[b]) for a, b in pairs]


def check_vertex_enumeration(diagram: Diagram, max_level: int) -> list[str]:
    """Counts match the closed form; order is strictly descending lex; sums match."""
    out = []
    for level in range(max_level + 1):
        vertices = diagram.vertices(level)
        if len(vertices) != diagram.vertex_count(level):
            out.append(
                f"level {level}: {len(vertices)} vertices, formula {diagram.vertex_count(level)}"
            )
        total = level * diagram.degree
        for v in vertices:
            if sum(v.coords) != total:
                out.append(f"level {level}: {v} sums to {sum(v.coords)}, not {total}")
        for a, b in zip(vertices, vertices[1:]):
            if not a.coords > b.coords:
                out.append(f"level {level}: {a} !> {b} in canonical order")
    return out


def check_edge_duality(diagram: Diagram, max_level: int) -> list[str]:
    """Sources, targets, and multiplicities agree; displacement bounds hold."""
    out = []
    d = diagram.degree
    q = diagram.arity
    for level in range(1, max_level + 1):
        below = diagram.vertices(level - 1)
        vertices = diagram.vertices(level)
        ups = [set(diagram.targets(u)) for u in below]
        for w in vertices:
            srcs = diagram.source_set(w)
            members = set(srcs)
            for u, up in zip(below, ups):
                in_sources = u in members
                positive = diagram.multiplicity(u, w) >= 1
                if in_sources != positive:
                    out.append(f"{u} vs {w}: source-set and multiplicity disagree")
                if in_sources != (w in up):
                    out.append(f"{u} vs {w}: source-set and targets disagree")
            for u in srcs:
                if not all(uc <= wc <= uc + d for uc, wc in zip(u.coords, w.coords)):
                    out.append(f"{u} in S({w}) violates the coordinate sandwich")
            for u, up in combinations(srcs, 2):
                if max(abs(a - b) for a, b in zip(u.coords, up.coords)) > d:
                    out.append(f"sources {u}, {up} of {w} differ by more than {d}")
            if max(w.coords) * q < level * d:
                out.append(f"{w}: all coordinates below level*d/q")
        for w, wp in _sharing_pairs(diagram, vertices):
            if max(abs(a - b) for a, b in zip(w.coords, wp.coords)) > d:
                out.append(f"{w} and {wp} share a source but sit more than {d} apart")
    return out


def check_dimension_oracle(diagram: Diagram, max_level: int) -> list[str]:
    """Path-count recursion equals iterated polynomial multiplication."""
    out = []
    for level in range(max_level + 1):
        expansion = diagram.expansion_coefficients(level)
        recursion = {v.coords: diagram.dimension(v) for v in diagram.vertices(level)}
        if expansion != recursion:
            bad = {k for k in set(expansion) | set(recursion) if expansion.get(k) != recursion.get(k)}
            out.append(f"level {level}: dimension mismatch at {sorted(bad)}")
    return out


def check_dsv_rules(diagram: Diagram, max_level: int) -> list[str]:
    """Existence threshold, bounded movement, and the two-direction rigidity."""
    out = []
    d = diagram.degree
    for level in range(1, max_level + 1):
        vertices = diagram.vertices(level)
        for w in vertices:
            sources = diagram.source_set(w)
            for j in range(1, diagram.arity + 1):
                u = diagram.dsv(w, j)
                if (u is not None) != (w.coord(j) >= d):
                    out.append(f"dsv({w},{j}) existence disagrees with the threshold")
                if u is not None:
                    if u not in sources or u.coord(j) != w.coord(j) - d:
                        out.append(f"dsv({w},{j}) = {u} is not the j-drop source")
                    others = [v for v in sources if v.coord(j) == u.coord(j) and v != u]
                    if others:
                        out.append(f"dsv({w},{j}) is not unique: {others}")
        # only a vertex fed by one of w0's drop sources can hold one
        fed = coverage._feeds(diagram, vertices)
        for w0 in vertices:
            drops = [diagram.dsv(w0, j) for j in range(1, diagram.arity + 1)]
            linked = {k for u in drops if u is not None for k in fed.get(u, ())}
            for w1 in map(vertices.__getitem__, sorted(linked)):
                if w1 == w0:
                    continue
                sources = diagram.source_set(w1)
                present = [
                    j for j, u in enumerate(drops, start=1) if u is not None and u in sources
                ]
                for j in present:
                    gap = w0.coord(j) - w1.coord(j)
                    if not 1 <= gap <= d:
                        out.append(
                            f"dsv({w0},{j}) in S({w1}) but coordinate gap {gap} outside 1..{d}"
                        )
                if len(present) >= 2:
                    out.append(f"dsv of {w0} in two directions {present} lands in S({w1})")
    return out


def check_coverage_agreement(diagram: Diagram, max_level: int) -> list[str]:
    """Closed-form covered test equals the source-set oracle wherever it applies."""
    out = []
    for level in range(diagram.arity + 1, max_level + 1):
        report = coverage.coverage_report(diagram, level)
        for e in report.entries:
            if e.vertex in report.discrepancies:
                out.append(f"level {level}: {e.vertex} formula {e.formula} != oracle {e.oracle}")
    return out


def check_cov2_convention(diagram: Diagram, max_level: int) -> list[str]:
    """The sigma = w' - w reading of the covering-set formula is exact."""
    out = []
    for level in range(diagram.arity + 1, max_level + 1):
        report = coverage.check_cov2(diagram, level)
        for w, missing, spurious in report.mismatches_forward:
            out.append(
                f"level {level}: covering set of {w} missing {list(map(str, missing))}, "
                f"spurious {list(map(str, spurious))}"
            )
    return out


def check_source_uncovered(diagram: Diagram, max_level: int) -> list[str]:
    """Both sufficient conditions really force an all-uncovered source set."""
    out = []
    for level in range(diagram.arity + 1, max_level + 1):
        for w in diagram.vertices(level):
            report = coverage.source_all_uncovered(diagram, w)
            if (report.bound_condition or report.direction_condition) and not report.all_uncovered:
                out.append(
                    f"level {level}: {w} meets a sufficient condition but source "
                    f"{report.covered_sources[0]} is covered"
                )
    return out


def check_target_uncovered(diagram: Diagram, max_level: int) -> list[str]:
    """An uncovered source forces an uncovered target once level - 1 > q."""
    out = []
    for level in range(diagram.arity + 2, max_level + 1):
        for w, witness in coverage.target_uncovered_check(diagram, level):
            out.append(f"level {level}: {w} covered despite uncovered source {witness}")
    return out


def check_ladder(diagram: Diagram, max_level: int) -> list[str]:
    """Every admissible (z, j) yields d+1 sources with stepwise j coordinates."""
    out = []
    d = diagram.degree
    for level in range(1, max_level + 1):
        for z in diagram.vertices(level):
            sources = diagram.source_set(z)
            for j in range(1, diagram.arity + 1):
                if not d <= z.coord(j) <= (level - 1) * d:
                    continue
                rungs = coverage.source_ladder(diagram, z, j)
                if len(rungs) != d + 1 or len(set(rungs)) != d + 1:
                    out.append(f"ladder at ({z}, {j}) has wrong size")
                    continue
                for step, w in enumerate(rungs):
                    if w not in sources:
                        out.append(f"ladder rung {w} at ({z}, {j}) is not a source")
                    if w.coord(j) != z.coord(j) - step:
                        out.append(f"ladder rung {w} at ({z}, {j}) has wrong j coordinate")
    return out


def check_link_consequences_suite(diagram: Diagram, max_level: int) -> list[str]:
    """No link with satisfied hypotheses fails any of its static consequences."""
    out = []
    for level in range(diagram.arity + 2, max_level + 1):
        for w0, w1 in _sharing_pairs(diagram, diagram.vertices(level)):
            for a, b in ((w0, w1), (w1, w0)):
                for j in range(1, diagram.arity + 1):
                    report = check_link_consequences(diagram, a, b, j)
                    for name, status in (
                        ("drop-source-absent", report.drop_source_absent_status),
                        ("sources-uncovered", report.sources_uncovered_status),
                        ("targets-uncovered", report.targets_uncovered_status),
                        ("extension-candidates", report.candidates_status),
                    ):
                        if status == "fail":
                            out.append(f"link ({a}, {b}, j={j}) fails {name}")
    return out


def check_measure_bounds(diagram: Diagram, max_level: int) -> list[str]:
    """Weight solve, per-level normalization, minimal mass, dimension bound."""
    try:
        weight = solve_symmetric_weight(diagram)
    except InvalidWeight as exc:  # no weight to measure the levels with
        return [f"weight solve: {exc}"]
    out = []
    for level in range(1, max_level + 1):
        mass = level_mass(diagram, level, weight)
        if abs(mass - 1) > MASS_TOLERANCE:
            out.append(f"level {level}: total mass {mass} is not 1")
        bound = minimal_mass_bound(diagram, level, weight)
        if not bound.ok:
            out.append(f"level {level}: minimal mass {bound.mass} exceeds {bound.bound}")
        for v, dim in dim_lower_bound_check(diagram, level):
            out.append(f"level {level}: non-corner {v} has dimension {dim} < {level}")
    return out


_SUITES = (
    ("vertex_enumeration", check_vertex_enumeration),
    ("edge_duality", check_edge_duality),
    ("dimension_oracle", check_dimension_oracle),
    ("dsv_rules", check_dsv_rules),
    ("coverage_agreement", check_coverage_agreement),
    ("cov2_convention", check_cov2_convention),
    ("source_uncovered", check_source_uncovered),
    ("target_uncovered", check_target_uncovered),
    ("ladder", check_ladder),
    ("link_consequences", check_link_consequences_suite),
    ("measure_bounds", check_measure_bounds),
)


class VerifyResult(NamedTuple):
    max_level: int
    findings: dict[str, tuple[str, ...]]

    @property
    def passed(self) -> bool:
        return not any(self.findings.values())

    def to_json(self) -> dict:
        return {
            "max_level": self.max_level,
            "passed": self.passed,
            "findings": {name: list(rows) for name, rows in self.findings.items()},
        }


def verify_all(diagram: Diagram, max_level: int) -> VerifyResult:
    """Run every suite up to max_level and collect the discrepancies.

    Five suites start above level q, so below q + 2 some would check nothing:
    that raises PreconditionNotMet, not a pass.
    """
    q = diagram.arity
    if max_level < q + 2:
        raise PreconditionNotMet(
            f"--levels {max_level} leaves suites with no level to check: coverage_agreement, "
            f"cov2_convention and source_uncovered start at q + 1 = {q + 1}, target_uncovered "
            f"and link_consequences at q + 2 = {q + 2}; verify-all needs --levels {q + 2} or more"
        )
    findings = {name: tuple(fn(diagram, max_level)) for name, fn in _SUITES}
    return VerifyResult(max_level, findings)
