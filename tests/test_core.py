"""Parser, vertex lattice, edge structure, and the two path-count routes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyadic import Diagram, PolynomialSpec, Vertex, coverage, parse_polynomial
from polyadic.core import compositions_desc
from polyadic.export import document_header, to_stable_json
from polyadic.errors import (
    AritySmallerThanTwo,
    MissingMonomial,
    NonPositiveCoefficient,
    NotHomogeneous,
    PolynomialSyntaxError,
)

from conftest import OFF_LATTICE, peak_rss_mb, raised_within

QUARTIC = "x1^4 + 2 x1^3 x2 + x1^2 x2^2 + 3 x1 x2^3 + x2^4"


class TestParser:
    def test_quartic_terms(self):
        spec = parse_polynomial(QUARTIC)
        assert spec.arity == 2
        assert spec.degree == 4
        assert spec.terms == (
            ((4, 0), 1),
            ((3, 1), 2),
            ((2, 2), 1),
            ((1, 3), 3),
            ((0, 4), 1),
        )
        assert spec.coefficient_sum == 8

    def test_pascal(self):
        spec = parse_polynomial("x1 + x2")
        assert (spec.arity, spec.degree) == (2, 1)
        assert all(coef == 1 for _, coef in spec.terms)

    def test_star_and_defaults(self):
        # explicit '*' and implicit coefficient/exponent spell the same thing
        spec = parse_polynomial("2*x1^2 + x1 x2 + x2^2")
        assert spec.coefficient((2, 0)) == 2
        assert spec.coefficient((1, 1)) == 1
        assert spec.coefficient((0, 2)) == 1
        assert spec == parse_polynomial("2 x1^2 + x1x2 + x2^2")

    def test_duplicate_terms_accumulate(self):
        spec = parse_polynomial("x1 x2 + x1 x2 + x1^2 + x2^2")
        assert spec.coefficient((1, 1)) == 2

    def test_json_and_text_round_trips(self):
        spec = parse_polynomial(QUARTIC)
        assert PolynomialSpec.from_json(spec.to_json()) == spec
        assert parse_polynomial(spec.to_text()) == spec
        import json

        assert PolynomialSpec.parse(json.dumps(spec.to_json())) == spec

    def test_terms_stored_in_canonical_order(self):
        reversed_spec = PolynomialSpec(arity=2, degree=1, terms=(((0, 1), 1), ((1, 0), 1)))
        parsed = parse_polynomial("x1 + x2")
        assert reversed_spec == parsed
        assert reversed_spec.source_vectors == parsed.source_vectors == ((1, 0), (0, 1))
        assert to_stable_json(document_header(Diagram(reversed_spec))) == to_stable_json(
            document_header(Diagram(parsed))
        )

    def test_single_variable_rejected(self):
        with pytest.raises(AritySmallerThanTwo):
            parse_polynomial("x1^3")

    def test_mixed_degrees_rejected(self):
        with pytest.raises(NotHomogeneous):
            parse_polynomial("x1 + x2^2")

    def test_missing_monomial_rejected(self):
        with pytest.raises(MissingMonomial):
            parse_polynomial("x1^2 + x2^2")

    def test_zero_coefficient_rejected(self):
        with pytest.raises(NonPositiveCoefficient):
            parse_polynomial("0 x1 + x2")

    def test_syntax_errors(self):
        for bad in ("x1 + ", "3 + x1 x2", "x0 + x1", "x1 & x2", "{not json"):
            with pytest.raises(PolynomialSyntaxError):
                parse_polynomial(bad)

    def test_trailing_integer_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x1 2 + x2")


@given(
    total=st.integers(min_value=0, max_value=9),
    parts=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_compositions_complete_and_descending(total, parts):
    rows = list(compositions_desc(total, parts))
    assert len(rows) == math.comb(total + parts - 1, parts - 1)
    assert len(set(rows)) == len(rows)
    assert all(len(r) == parts and min(r) >= 0 and sum(r) == total for r in rows)
    assert rows == sorted(rows, reverse=True)


@given(
    arity=st.integers(min_value=2, max_value=4),
    degree=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_spec_round_trip(arity, degree, data):
    coeffs = {
        exp: data.draw(st.integers(min_value=1, max_value=5))
        for exp in compositions_desc(degree, arity)
    }
    spec = PolynomialSpec.from_coefficients(arity, coeffs)
    assert parse_polynomial(spec.to_text()) == spec
    assert PolynomialSpec.from_json(spec.to_json()) == spec


class TestVertices:
    def test_counts_match_enumeration(self, all_diagrams):
        for diagram in all_diagrams.values():
            for level in range(7):
                vertices = diagram.vertices(level)
                assert len(vertices) == diagram.vertex_count(level)
                assert len(vertices) == math.comb(
                    level * diagram.degree + diagram.arity - 1, diagram.arity - 1
                )

    def test_canonical_order(self, all_diagrams):
        for diagram in all_diagrams.values():
            for level in range(7):
                coords = [v.coords for v in diagram.vertices(level)]
                assert coords == sorted(coords, reverse=True)
                assert all(sum(c) == level * diagram.degree for c in coords)

    def test_pascal_counts(self, pascal):
        assert [pascal.vertex_count(n) for n in range(1, 9)] == list(range(2, 10))

    def test_q3_level_two_count(self, q3):
        assert q3.vertex_count(2) == 15

    def test_level_zero_is_root(self, q3):
        assert q3.vertices(0) == (q3.root,)
        assert q3.root.coords == (0, 0, 0)

    def test_level_one_labels(self, quartic):
        assert [v.coords for v in quartic.vertices(1)] == [
            (4, 0),
            (3, 1),
            (2, 2),
            (1, 3),
            (0, 4),
        ]

    def test_unit_vectors_at_level_one(self):
        diagram = Diagram(parse_polynomial("x1 + x2 + x3"))
        assert [v.coords for v in diagram.vertices(1)] == [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        ]

    def test_vertex_helpers(self, quartic):
        v = quartic.vertex((9, 3))
        assert v.level == 3
        assert (v.coord(1), v.coord(2)) == (9, 3)
        assert v.min_coord == 3
        assert not v.is_corner
        assert quartic.vertex((12, 0)).is_corner
        assert quartic.root.is_corner
        assert str(v) == "(9,3)"

    def test_vertex_validation(self, quartic):
        with pytest.raises(ValueError):
            quartic.vertex((3, 3))  # sum not a multiple of the degree
        with pytest.raises(ValueError):
            quartic.vertex((8, 4), level=2)
        with pytest.raises(ValueError):
            quartic.vertex((-4, 8))
        with pytest.raises(ValueError):
            quartic.vertex((4, 4, 4))


class TestEdges:
    def test_source_set_examples(self, pascal, quartic):
        assert [u.coords for u in pascal.source_set(pascal.vertex((2, 1)))] == [
            (2, 0),
            (1, 1),
        ]
        assert [u.coords for u in pascal.source_set(pascal.vertex((0, 4)))] == [(0, 3)]
        assert [u.coords for u in quartic.source_set(quartic.vertex((8, 4)))] == [
            (8, 0),
            (7, 1),
            (6, 2),
            (5, 3),
            (4, 4),
        ]

    def test_source_target_duality(self, all_diagrams):
        for diagram in all_diagrams.values():
            for level in range(1, 5):
                for w in diagram.vertices(level):
                    for u in diagram.source_set(w):
                        assert w in diagram.targets(u)
                        assert diagram.multiplicity(u, w) >= 1

    def test_multiplicity_from_coefficients(self, quartic):
        u = quartic.vertex((3, 5))
        w = quartic.vertex((6, 6))
        assert quartic.multiplicity(u, w) == 2  # displacement (3,1)
        assert quartic.multiplicity(quartic.vertex((5, 3)), w) == 3  # (1,3)
        assert quartic.multiplicity(quartic.vertex((8, 0)), w) == 0
        assert quartic.multiplicity(w, u) == 0
        assert quartic.multiplicity(quartic.root, w) == 0

    def test_all_ones_override(self):
        diagram = Diagram(
            parse_polynomial(QUARTIC), multiplicity="all-ones"
        )
        w = diagram.vertex((6, 6))
        assert all(diagram.multiplicity(u, w) == 1 for u in diagram.source_set(w))
        assert diagram.mode == "all-ones"

    def test_custom_table_validation(self):
        spec = parse_polynomial("x1 + x2")
        assert Diagram(spec, multiplicity={(1, 0): 2, (0, 1): 5}).indegree(
            Vertex(1, (1, 0))
        ) == 2
        with pytest.raises(MissingMonomial):
            Diagram(spec, multiplicity={(1, 0): 2})
        with pytest.raises(NonPositiveCoefficient):
            Diagram(spec, multiplicity={(1, 0): 2, (0, 1): 0})
        with pytest.raises(ValueError, match="unknown multiplicity"):
            Diagram(spec, multiplicity="shape")

    def test_edges_between_copies(self, quartic):
        u = quartic.vertex((5, 3))
        w = quartic.vertex((6, 6))
        edges = quartic.edges_between(u, w)
        assert [e.copy for e in edges] == [1, 2, 3]
        assert all(e.source == u and e.target == w for e in edges)

    def test_indegree(self, quartic, pascal):
        assert quartic.indegree(quartic.vertex((6, 6))) == 1 + 2 + 1 + 3 + 1
        assert pascal.indegree(pascal.vertex((3, 4))) == 2
        assert pascal.indegree(pascal.vertex((0, 5))) == 1


class TestDimension:
    def test_pascal_binomials(self, pascal):
        for n in range(9):
            for k, v in enumerate(pascal.vertices(n)):
                assert pascal.dimension(v) == math.comb(n, n - k)
        assert pascal.dimension(pascal.vertex((2, 1))) == 3

    def test_quartic_center(self, quartic):
        assert quartic.dimension(quartic.vertex((4, 4))) == 15

    def test_corners_have_one_path(self, all_diagrams):
        for diagram in all_diagrams.values():
            for n in range(7):
                nd = n * diagram.degree
                corner = diagram.vertex((nd,) + (0,) * (diagram.arity - 1))
                assert diagram.dimension(corner) == 1
        assert all(d.dimension(d.root) == 1 for d in all_diagrams.values())

    def test_recursion_matches_expansion(self, all_diagrams):
        # two independent routes: level recursion vs iterated multiplication
        for diagram in all_diagrams.values():
            for level in range(7):
                expansion = diagram.expansion_coefficients(level)
                recursion = {
                    v.coords: diagram.dimension(v) for v in diagram.vertices(level)
                }
                assert expansion == recursion

    def test_deep_level_on_a_cold_diagram(self):
        # two thousand rows stepped up from the root, no recursion, and only
        # the rows asked for are kept
        diagram = Diagram(parse_polynomial("x1 + x2"))
        assert diagram.dimension(diagram.vertex((1000, 1000))) == math.comb(2000, 1000)
        assert sum(diagram.dimension(v) for v in diagram.vertices(1000)) == 2**1000
        assert sorted(diagram._rows) == [0, 1000, 2000]

    def test_deep_level_holds_rows_not_the_down_set(self):
        # the down-set of (1000, 1000) has about a million vertices; holding
        # each one's dimension took about 350 MB
        peak = peak_rss_mb(
            """
            import math
            from polyadic import Diagram, parse_polynomial

            pascal = Diagram(parse_polynomial("x1 + x2"))
            assert pascal.dimension(pascal.vertex((1000, 1000))) == math.comb(2000, 1000)
            """
        )
        assert peak < 60, peak

    def test_shape_mode_counts_differ(self):
        spec = parse_polynomial(QUARTIC)
        plain = Diagram(spec, multiplicity="all-ones")
        # one edge per source pair instead of the coefficient-weighted 15
        assert plain.dimension(plain.vertex((4, 4))) == 5


class TestDsv:
    def test_quartic_center_drops(self, quartic):
        w = quartic.vertex((6, 6))
        assert quartic.dsv(w, 1).coords == (2, 6)
        assert quartic.dsv(w, 2).coords == (6, 2)

    def test_absent_below_degree(self, quartic, pascal):
        assert quartic.dsv(quartic.vertex((3, 9)), 1) is None  # 3 = d - 1
        assert pascal.dsv(pascal.vertex((4, 0)), 2) is None

    def test_direction_validation(self, quartic):
        with pytest.raises(ValueError):
            quartic.dsv(quartic.vertex((6, 6)), 0)
        with pytest.raises(ValueError):
            quartic.dsv(quartic.vertex((6, 6)), 3)

    def test_drop_is_a_source(self, all_diagrams):
        for diagram in all_diagrams.values():
            for level in range(1, 6):
                for w in diagram.vertices(level):
                    for j in range(1, diagram.arity + 1):
                        u = diagram.dsv(w, j)
                        if w.coord(j) >= diagram.degree:
                            assert u in diagram.source_set(w)
                            assert u.coord(j) == w.coord(j) - diagram.degree
                        else:
                            assert u is None


class TestConnect:
    def test_unit_step(self, pascal):
        w, p1, p2 = pascal.connect(pascal.vertex((1, 0)), pascal.vertex((0, 1)))
        assert w.coords == (1, 1) and w.level == 2
        assert len(p1) == 1 and len(p2) == 1

    def test_opposite_corners(self, pascal):
        w, p1, p2 = pascal.connect(pascal.vertex((3, 0)), pascal.vertex((0, 3)))
        assert w.coords == (3, 3) and w.level == 6
        assert len(p1) == len(p2) == 3

    def test_identical_inputs(self, quartic):
        v = quartic.vertex((8, 4))
        assert quartic.connect(v, v) == (v, (), ())

    def test_level_mismatch(self, pascal):
        with pytest.raises(ValueError):
            pascal.connect(pascal.vertex((1, 0)), pascal.vertex((1, 1)))

    def test_witness_paths_are_valid(self, all_diagrams):
        for diagram in all_diagrams.values():
            vertices = diagram.vertices(2)
            for v1 in vertices:
                for v2 in vertices:
                    w, p1, p2 = diagram.connect(v1, v2)
                    for start, path in ((v1, p1), (v2, p2)):
                        current = start
                        for e in path:
                            assert e.source == current
                            assert diagram.multiplicity(e.source, e.target) >= 1
                            current = e.target
                        assert current == w


class TestCallerVertices:
    """A vertex the diagram did not issue is validated before it is used."""

    @pytest.mark.parametrize("kind", sorted(OFF_LATTICE))
    @pytest.mark.parametrize(
        "call",
        [
            lambda d, v: d.dimension(v),
            lambda d, v: d.source_set(v),
            lambda d, v: d.targets(v),
            lambda d, v: d.dsv(v, 1),
            lambda d, v: d.indegree(v),
            lambda d, v: d.multiplicity(v, d.vertex((1, 1))),
            lambda d, v: d.multiplicity(d.vertex((0, 1)), v),
            lambda d, v: d.edges_between(v, d.vertex((1, 1))),
            lambda d, v: d.connect(v, v),
        ],
        ids=["dimension", "source_set", "targets", "dsv", "indegree", "multiplicity_source",
             "multiplicity_target", "edges_between", "connect"],
    )
    def test_off_the_lattice_raises(self, call, kind):
        diagram = Diagram(parse_polynomial("x1 + x2"))
        diagram.dimension(diagram.vertex((1, 1)))  # (1, 1) is issued, at index (2, 1)
        error = raised_within(lambda: call(diagram, OFF_LATTICE[kind]))
        assert isinstance(error, ValueError), error
        # nothing off the lattice was issued, and each index names its vertex
        assert diagram._rank == {v: rank for (_, rank), v in diagram._issued.items()}
        assert all(
            sum(v.coords) == v.level == level and len(v.coords) == 2 and v.coords[1] == rank
            for (level, rank), v in diagram._issued.items()
        )

    def test_source_all_uncovered_takes_a_plain_pair(self, pascal):
        # it needs a level above q, which the plain-pair tests of
        # tests/test_vershik.py (at level 2) do not reach
        expected = coverage.source_all_uncovered(pascal, pascal.vertex((2, 1)))
        assert coverage.source_all_uncovered(pascal, (3, (2, 1))) == expected

    def test_equal_vertex_is_the_interned_one(self, pascal):
        v = Vertex(2, (1, 1))
        assert pascal.dimension(v) == 2
        assert pascal.source_set(v) == pascal.source_set(pascal.vertex((1, 1)))
        assert pascal.dsv(v, 1) is pascal.vertex((0, 1))


def test_every_exported_name_resolves():
    import polyadic

    assert [name for name in polyadic.__all__ if not hasattr(polyadic, name)] == []
