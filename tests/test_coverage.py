"""Covered vertices: oracle, closed form, and the surrounding structure facts."""

import gc
import weakref
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyadic import Diagram, PolynomialSpec, compositions_desc, parse_polynomial
from polyadic.coverage import (
    _sharing_pairs,
    check_cov2,
    coverage_report,
    covering_vertices,
    is_covered_formula,
    is_covered_oracle,
    slack,
    source_all_uncovered,
    source_ladder,
    target_uncovered_check,
)
from polyadic.errors import LadderPreconditionViolated, PreconditionNotMet

from conftest import all_ones, polynomial_specs


def scan_sources(diagram, w):
    """Source set recomputed by scanning the whole previous level."""
    return {
        u for u in diagram.vertices(w.level - 1) if diagram.multiplicity(u, w) > 0
    }


def test_cover_map_does_not_keep_its_diagram_alive():
    # the cover map lives on the diagram, so nothing outside it holds a reference
    diagram = Diagram(parse_polynomial("x1 + x2"))
    assert covering_vertices(diagram, diagram.vertex((4, 0))) == (diagram.vertex((3, 1)),)
    ref = weakref.ref(diagram)
    del diagram
    gc.collect()
    assert ref() is None


def test_a_vertex_without_sources_is_compared_with_its_whole_level(monkeypatch):
    # only the root has no source, alone on its level; should the source sets
    # give another vertex none, the empty set lies in every vertex's sources
    diagram = Diagram(parse_polynomial("x1 + x2"))
    v, source_set = diagram.vertex((1, 1)), diagram.source_set
    monkeypatch.setattr(diagram, "source_set", lambda w: () if w == v else source_set(w))
    assert covering_vertices(diagram, v) == (diagram.vertex((2, 0)), diagram.vertex((0, 2)))


def test_oracle_against_level_scan(all_diagrams):
    # cross-check the subtraction-based oracle with an adjacency scan
    for diagram in all_diagrams.values():
        for level in range(1, 6):
            sources = {w: scan_sources(diagram, w) for w in diagram.vertices(level)}
            for w in diagram.vertices(level):
                expected = sorted(
                    (
                        v
                        for v in diagram.vertices(level)
                        if v != w and sources[w] <= sources[v]
                    ),
                    key=lambda v: v.coords,
                    reverse=True,
                )
                assert list(covering_vertices(diagram, w)) == expected
                assert is_covered_oracle(diagram, w) == bool(expected)


def scan_cover(diagram, w, sources):
    """Vertices covering w, found by comparing w with every vertex on its level."""
    return tuple(v for v in diagram.vertices(w.level) if v != w and sources[w] <= sources[v])


def scan_sharing_pairs(diagram, vertices):
    """Pairs of vertices with a common source, found by testing every pair."""
    return [
        (w, wp)
        for i, w in enumerate(vertices)
        for wp in vertices[i + 1 :]
        if not set(diagram.source_set(w)).isdisjoint(diagram.source_set(wp))
    ]


def scan_dsv(diagram, w, j):
    """The j-drop source of w, looked up among its sources."""
    drop = w.coord(j) - diagram.degree
    return next((u for u in diagram.source_set(w) if u.coord(j) == drop), None)


@given(spec=polynomial_specs(max_degree=3, max_arity=3), level=st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_source_index_matches_the_pair_scans(spec, level):
    # the cover map, verify's sharing pairs and dsv follow the source
    # adjacency; each equals the scan over every vertex pair, or every source,
    # that it replaced
    diagram = Diagram(spec)
    vertices = diagram.vertices(level)
    sources = {w: scan_sources(diagram, w) for w in vertices}
    for w in vertices:
        assert covering_vertices(diagram, w) == scan_cover(diagram, w, sources)
        for j in range(1, diagram.arity + 1):
            assert diagram.dsv(w, j) == scan_dsv(diagram, w, j)
    assert _sharing_pairs(diagram, vertices) == scan_sharing_pairs(diagram, vertices)


class TestFormula:
    def test_examples(self, pascal, quartic):
        assert is_covered_formula(quartic, quartic.vertex((6, 6))) is False  # 6 <= 8
        assert is_covered_formula(quartic, quartic.vertex((9, 3))) is True  # 9 > 8
        for n in range(3, 9):
            assert is_covered_formula(pascal, pascal.vertex((n, 0))) is True
        assert is_covered_formula(pascal, pascal.vertex((2, 1))) is False

    def test_low_levels_unanswered(self, pascal, quartic, q3):
        assert is_covered_formula(pascal, pascal.vertex((2, 0))) is None
        assert is_covered_formula(quartic, quartic.vertex((8, 0))) is None
        assert is_covered_formula(q3, q3.vertex((6, 0, 0))) is None

    def test_agrees_with_oracle(self, all_diagrams):
        for diagram in all_diagrams.values():
            for level in range(diagram.arity + 1, 8):
                for w in diagram.vertices(level):
                    assert is_covered_formula(diagram, w) == is_covered_oracle(
                        diagram, w
                    )


# every shape with q <= 4 variables and degree d <= 4, one and two levels
# above q, where a level has at most 300 vertices
SMALL_SHAPES = [
    (q, d, level)
    for q in (2, 3, 4)
    for d in (1, 2, 3, 4)
    for level in (q + 1, q + 2)
    if comb(level * d + q - 1, q - 1) <= 300
]


@pytest.mark.parametrize("q, d, level", SMALL_SHAPES)
def test_formula_matches_oracle_on_every_small_shape(q, d, level):
    vectors = compositions_desc(d, q)
    spec = PolynomialSpec.from_coefficients(q, {s: 1 + i % 3 for i, s in enumerate(vectors)})
    diagram = Diagram(spec)
    plain = Diagram(all_ones(spec))
    for w in diagram.vertices(level):
        assert is_covered_formula(diagram, w) == is_covered_oracle(diagram, w), w
        assert covering_vertices(diagram, w) == covering_vertices(plain, plain.vertex(w.coords))


class TestCoverageReport:
    def test_quartic_level_three(self, quartic):
        report = coverage_report(quartic, 3)
        assert report.covered_count == 8
        assert report.uncovered_count == 5
        assert not report.discrepancies
        covered = [e.vertex.coords for e in report.entries if e.oracle]
        assert covered == [
            (12, 0),
            (11, 1),
            (10, 2),
            (9, 3),
            (3, 9),
            (2, 10),
            (1, 11),
            (0, 12),
        ]

    def test_covering_sets(self, quartic, pascal):
        w = quartic.vertex((12, 0))
        assert [v.coords for v in covering_vertices(quartic, w)] == [
            (11, 1),
            (10, 2),
            (9, 3),
            (8, 4),
        ]
        assert covering_vertices(quartic, quartic.vertex((6, 6))) == ()
        for n in range(3, 8):
            assert [v.coords for v in covering_vertices(pascal, pascal.vertex((n, 0)))] == [
                (n - 1, 1)
            ]

    def test_pascal_covers_only_corners(self, pascal):
        for n in range(3, 9):
            covered = {
                w.coords for w in pascal.vertices(n) if is_covered_oracle(pascal, w)
            }
            assert covered == {(n, 0), (0, n)}

    def test_q3_near_corner_uncovered(self, q3):
        # level 2 sits at the arity, so only the oracle answers here
        assert not is_covered_oracle(q3, q3.vertex((2, 1, 1)))
        assert is_covered_formula(q3, q3.vertex((2, 1, 1))) is None

    def test_multiplicities_do_not_matter(self, quartic):
        from polyadic import Diagram

        plain = Diagram(all_ones(quartic.spec))
        for level in range(1, 6):
            for w, w_plain in zip(quartic.vertices(level), plain.vertices(level)):
                assert is_covered_oracle(quartic, w) == is_covered_oracle(
                    plain, w_plain
                )


class TestCov2:
    def test_forward_reading_is_exact(self, pascal, quartic):
        for level in range(3, 9):
            report = check_cov2(pascal, level)
            assert report.mismatches_forward == ()
            assert report.matching_convention == "sigma = w' - w"
        report = check_cov2(quartic, 3)
        assert report.checked == 8
        assert report.mismatches_forward == ()

    def test_reverse_reading_fails(self, pascal):
        # the opposite sign convention misplaces covering sets already at level 3
        report = check_cov2(pascal, 3)
        assert len(report.mismatches_reverse) == 2

    def test_checked_counts_covered_only(self, quartic):
        report = check_cov2(quartic, 4)
        assert report.checked == coverage_report(quartic, 4).covered_count

    def test_slack_range(self, quartic):
        for level in range(3, 7):
            for w in quartic.vertices(level):
                if not is_covered_formula(quartic, w):
                    continue
                j = 1 if w.coords[0] > w.coords[1] else 2
                assert 1 <= slack(quartic, w, j) <= quartic.degree

    def test_level_guard(self, pascal, q3):
        with pytest.raises(PreconditionNotMet):
            check_cov2(pascal, 2)
        with pytest.raises(PreconditionNotMet):
            check_cov2(q3, 3)


class TestSourceAllUncovered:
    def test_first_level_with_clean_sources(self, quartic):
        hits = [
            w.coords
            for w in quartic.vertices(4)
            if source_all_uncovered(quartic, w).all_uncovered
        ]
        assert hits == [(8, 8)]
        report = source_all_uncovered(quartic, quartic.vertex((8, 8)))
        assert report.bound_condition and report.direction_condition
        assert not any(
            source_all_uncovered(quartic, w).all_uncovered
            for w in quartic.vertices(3)
        )

    def test_corner_has_covered_source(self, quartic):
        report = source_all_uncovered(quartic, quartic.vertex((12, 0)))
        assert not report.all_uncovered
        assert quartic.vertex((8, 0)) in report.covered_sources

    def test_pascal_direction_condition(self, pascal):
        report = source_all_uncovered(pascal, pascal.vertex((3, 2)))
        assert report.all_uncovered
        assert report.direction_condition  # 2 <= 3 <= 3

    def test_sufficient_conditions_hold(self, all_diagrams):
        for diagram in all_diagrams.values():
            for level in range(diagram.arity + 1, 8):
                for w in diagram.vertices(level):
                    report = source_all_uncovered(diagram, w)
                    if report.bound_condition or report.direction_condition:
                        assert report.all_uncovered, w

    def test_level_guard(self, pascal):
        with pytest.raises(PreconditionNotMet):
            source_all_uncovered(pascal, pascal.vertex((1, 1)))


class TestTargetUncovered:
    def test_pascal_clean(self, pascal):
        for level in range(4, 11):
            assert target_uncovered_check(pascal, level) == ()

    def test_quartic_and_q3_clean(self, quartic, q3):
        for level in range(4, 7):
            assert target_uncovered_check(quartic, level) == ()
        for level in range(5, 8):
            assert target_uncovered_check(q3, level) == ()

    def test_center_targets_stay_uncovered(self, quartic):
        # the uncovered level-2 center propagates: every target is uncovered
        center = quartic.vertex((4, 4))
        assert not is_covered_oracle(quartic, center)
        assert all(
            not is_covered_oracle(quartic, t) for t in quartic.targets(center)
        )

    def test_level_guard(self, pascal, quartic):
        with pytest.raises(PreconditionNotMet):
            target_uncovered_check(pascal, 3)
        with pytest.raises(PreconditionNotMet):
            target_uncovered_check(quartic, 3)


class TestSourceLadder:
    def test_pascal_example(self, pascal):
        rungs = source_ladder(pascal, pascal.vertex((3, 2)), 1)
        assert [r.coords for r in rungs] == [(3, 1), (2, 2)]

    def test_quartic_example(self, quartic):
        z = quartic.vertex((6, 6))
        rungs = source_ladder(quartic, z, 1)
        assert [r.coord(1) for r in rungs] == [6, 5, 4, 3, 2]
        assert all(r in quartic.source_set(z) for r in rungs)

    def test_rung_structure_everywhere(self, all_diagrams):
        for diagram in all_diagrams.values():
            d = diagram.degree
            for level in range(1, 7):
                for z in diagram.vertices(level):
                    for j in range(1, diagram.arity + 1):
                        if not d <= z.coord(j) <= (level - 1) * d:
                            continue
                        rungs = source_ladder(diagram, z, j)
                        assert len(rungs) == d + 1
                        sources = set(diagram.source_set(z))
                        for step, r in enumerate(rungs):
                            assert r.coord(j) == z.coord(j) - step
                            assert r in sources

    def test_preconditions(self, quartic):
        with pytest.raises(LadderPreconditionViolated):
            source_ladder(quartic, quartic.vertex((3, 9)), 1)  # 3 < d
        with pytest.raises(LadderPreconditionViolated):
            source_ladder(quartic, quartic.vertex((12, 0)), 1)  # 12 > (3-1)*4
        with pytest.raises(ValueError):
            source_ladder(quartic, quartic.vertex((6, 6)), 3)
