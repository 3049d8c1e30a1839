"""Parser, vertex lattice, edge structure, and the two path-count routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyadic import Diagram, Ordering, PolynomialSpec, Vertex, coverage, parse_polynomial
from polyadic.chains import build_distinguished_chain, find_chain_start, link_reports
from polyadic.core import compositions_desc
from polyadic.export import document_header, export_dot, export_json, to_stable_json
from polyadic.errors import (
    AritySmallerThanTwo,
    MissingMonomial,
    NonBijectiveLabeling,
    NonPositiveCoefficient,
    NotHomogeneous,
    PolyadicError,
    PolynomialSyntaxError,
    PreconditionNotMet,
    RankOutOfRange,
)
from polyadic.measure import minimal_mass_bound, solve_symmetric_weight
from polyadic.probe import probe_depth_pairs
from polyadic.verify import verify_all

from conftest import OFF_LATTICE, all_ones, peak_rss_mb, raised_within

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
        # in every form: given to the constructor or as JSON, repeats add too
        expected = parse_polynomial("3 x1 + x2")
        assert PolynomialSpec(2, 1, (((1, 0), 1), ((0, 1), 1), ((1, 0), 2))) == expected
        text = '{"q": 2, "terms": [{"exp": [1, 0], "coef": 1}, {"exp": [0, 1], "coef": 1}, ' \
            '{"exp": [1, 0], "coef": 2}]}'
        assert parse_polynomial(text) == expected

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
        # each term's coefficient must be positive, though a repeat of its
        # vector makes the sum positive
        for text in ("0 x1 + x2", "0 x1 + 2 x1 + x2"):
            with pytest.raises(NonPositiveCoefficient):
                parse_polynomial(text)

    def test_syntax_errors(self):
        # the last two hold numbers past int()'s 4,300 digits, once a plain ValueError
        long_numbers = ("x1^" + "9" * 5000 + " + x2", "x" + "9" * 5000 + " + x2")
        for bad in ("x1 + ", "3 + x1 x2", "x0 + x1", "x1 & x2", "{not json", *long_numbers):
            with pytest.raises(PolynomialSyntaxError):
                parse_polynomial(bad)

    def test_trailing_integer_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x1 2 + x2")


MALFORMED = {
    "json_of_non_integers": '{"q":2.9,"terms":[{"exp":[1.9,0],"coef":1.5},{"exp":[0,true],"coef":"2"}]}',
    "fractional_arity": '{"q":2.5,"terms":[{"exp":[1,0],"coef":1},{"exp":[0,1],"coef":1}]}',
    "string_coefficient": '{"q":2,"terms":[{"exp":[1,0],"coef":"2"},{"exp":[0,1],"coef":1}]}',
    "fractional_coefficient": '{"q":2,"terms":[{"exp":[1,0],"coef":1.5},{"exp":[0,1],"coef":1}]}',
    "boolean_exponent": '{"q":2,"terms":[{"exp":[1,0],"coef":1},{"exp":[0,true],"coef":1}]}',
    "exponent_not_a_list": '{"q":2,"terms":[{"exp":"10","coef":1},{"exp":[0,1],"coef":1}]}',
    "no_terms": '{"q":2,"terms":[]}',
    "degree_zero": lambda: PolynomialSpec(2, 0, (((0, 0), 1),)),
    "degree_zero_text": "x1^0 + x2^0",
    "degree_negative": lambda: PolynomialSpec(2, -1, ()),
    "float_coefficient": lambda: PolynomialSpec(2, 1, (((1, 0), 1.5), ((0, 1), 1))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_polynomial_is_refused(case):
    given = MALFORMED[case]
    with pytest.raises(PolyadicError):
        given() if callable(given) else parse_polynomial(given)


def test_numbers_equal_to_integers_are_stored_as_ints():
    # numpy counts once stayed int64 and overflowed; 2.0 names the integer 2
    spec = PolynomialSpec.from_coefficients(2, {(1, 0): np.int64(2), (0, 1): np.int64(1)})
    assert spec == PolynomialSpec(np.int64(2), 1.0, (((1.0, 0), 2.0), ((0, 1), 1)))
    assert all(type(n) is int for exp, coef in spec.terms for n in (*exp, coef))
    diagram = Diagram(spec)
    assert diagram.dimension(diagram.vertex((40, 40))) == math.comb(80, 40) * 2**40
    assert to_stable_json(document_header(diagram))


def test_missing_monomials_are_counted_not_listed():
    # the message once listed every absent vector, 57 MB for the first; the
    # others once built or named vectors of a billion entries, too few terms
    # to hold each x_j^d
    for text, absent in [
        ("x1^3000000 + x2^3000000", "2999999 degree-3000000"),
        ("x1 + x999999999", "999999997 degree-1"),
        ('{"q": 999999999, "terms": []}', "999999999 degree-1"),
    ]:
        error = raised_within(lambda: parse_polynomial(text), seconds=1.0)
        assert isinstance(error, MissingMonomial), error
        assert f"{absent} exponent vectors absent" in str(error)
        assert len(str(error)) < 1024


def test_degree_zero_text_is_refused_before_any_vector_is_built():
    # two million-entry exponent vectors were once built before degree 0 was refused
    error = raised_within(lambda: parse_polynomial("x1^0 + x2000000^0"), seconds=0.5)
    assert isinstance(error, PolynomialSyntaxError), error
    assert "degree must be at least 1, got 0" in str(error)


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


def compositions_recursive(total, parts):
    """The order oracle: each head from `total` down, then its tails."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions_recursive(total - head, parts - 1):
            yield (head,) + tail


@given(
    total=st.integers(min_value=0, max_value=12),
    parts=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=80, deadline=None)
def test_compositions_match_the_recursive_order(total, parts):
    assert list(compositions_desc(total, parts)) == list(compositions_recursive(total, parts))


def test_negative_total_has_no_compositions(pascal):
    # the level below 0, which the lower-level lookups reach
    assert [list(compositions_desc(-1, parts)) for parts in (1, 2, 3)] == [[], [], []]
    assert pascal.vertices(-1) == ()


class TestManyVariables:
    # past the interpreter's recursion limit, which one frame per part once hit
    def test_compositions(self):
        rows = list(compositions_desc(1, 2000))
        assert len(rows) == 2000
        assert rows[0][:2] == (1, 0) and rows[1][:3] == (0, 1, 0) and rows[-1][-1] == 1

    def test_vertices(self):
        arity = 1100
        spec = PolynomialSpec.from_coefficients(arity, dict.fromkeys(compositions_desc(1, arity), 1))
        vertices = Diagram(spec).vertices(1)
        assert [v.coords for v in vertices] == list(compositions_desc(1, arity))


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
        # level -1 once raised for the quartic and answered 0 for the others
        for diagram in all_diagrams.values():
            assert diagram.vertex_count(-1) == diagram.spec.vertex_count(-1) == 0
            assert diagram.vertices(-1) == ()
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
        for coords in [(6.5, 1.5), ("4", "4")]:  # not truncated or parsed
            with pytest.raises(ValueError, match="bad coordinates"):
                quartic.vertex(coords)
        # a coordinate equal to an integer names that integer's vertex
        assert quartic.vertex((4.0, 4.0)) is quartic.vertex(np.array([4, 4])) is quartic.vertex((4, 4))
        # the vertex is validated before its level's row is read
        with pytest.raises(ValueError, match="coordinate sum 0 != level -1"):
            quartic.dimension((-1, (0, 0)))


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
        diagram = Diagram(all_ones(parse_polynomial(QUARTIC)))
        w = diagram.vertex((6, 6))
        assert all(diagram.multiplicity(u, w) == 1 for u in diagram.source_set(w))

    def test_custom_table_validation(self):
        # a diagram is named by its polynomial alone: the counts are checked
        # as coefficients, and there is no second table to give
        assert Diagram(parse_polynomial("2 x1 + 5 x2")).indegree(Vertex(1, (1, 0))) == 2
        with pytest.raises(MissingMonomial):
            PolynomialSpec.from_coefficients(2, {(1, 0): 2})
        with pytest.raises(NonPositiveCoefficient):
            PolynomialSpec.from_coefficients(2, {(1, 0): 2, (0, 1): 0})
        with pytest.raises(TypeError):
            Diagram(parse_polynomial("x1 + x2"), "all-ones")

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

    def test_expansion_needs_a_level_of_at_least_zero(self, pascal):
        with pytest.raises(ValueError):
            pascal.expansion_coefficients(-1)
        assert Diagram(pascal.spec).expansion_coefficients(0) == {(0, 0): 1}

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
        plain = Diagram(all_ones(parse_polynomial(QUARTIC)))
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
        diagram.dimension(diagram.vertex((1, 1)))  # (1, 1) is interned, with rank 1
        error = raised_within(lambda: call(diagram, OFF_LATTICE[kind]))
        assert isinstance(error, ValueError), error
        # nothing off the lattice was interned, and each entry is its key's
        # own vertex with that vertex's rank
        assert all(
            v is key and type(v) is Vertex and sum(v.coords) == v.level
            and len(v.coords) == 2 and v.coords[1] == rank
            and all(type(c) is int for c in v.coords)
            for key, (v, rank) in diagram._issued.items()
        )

    def test_source_all_uncovered_takes_a_plain_pair(self, pascal):
        # it needs a level above q, which the plain-pair tests of
        # tests/test_vershik.py (at level 2) do not reach
        expected = coverage.source_all_uncovered(pascal, pascal.vertex((2, 1)))
        assert coverage.source_all_uncovered(pascal, (3, (2, 1))) == expected

    def test_equal_vertex_is_the_interned_one(self, all_diagrams):
        pascal = Diagram(parse_polynomial("x1 + x2"))
        v = Vertex(2, (1, 1))
        assert pascal.dimension(v) == 2
        assert pascal.source_set(v) == pascal.source_set(pascal.vertex((1, 1)))
        assert pascal.dsv(v, 1) is pascal.vertex((0, 1))
        # connect's descendant and witness paths, and the ladder's rungs,
        # are the diagram's own vertices, on a cold diagram and a warm one
        for diagram in (pascal, *all_diagrams.values()):
            q, d = diagram.arity, diagram.degree
            a = diagram.vertex((3 * d,) + (0,) * (q - 1))
            b = diagram.vertex((0,) * (q - 1) + (3 * d,))
            w, left, right = diagram.connect(a, b)
            assert w is diagram.vertex(w.coords)
            for e in left + right:
                assert e.source is diagram.vertex(e.source.coords)
                assert e.target is diagram.vertex(e.target.coords)
            z = diagram.vertex((2 * d,) + (d,) * (q - 1))
            for u in coverage.source_ladder(diagram, z, 1):
                assert u is diagram.vertex(u.coords)
        # so are the vertices of check_cov2's mismatch rows, whose predicted
        # covers were once built afresh
        diagram = Diagram(parse_polynomial("x1^2 + x1 x2 + x2^2"))
        report = coverage.check_cov2(diagram, 4)
        rows = report.mismatches_forward + report.mismatches_reverse
        found = [u for w, missing, spurious in rows for u in (w, *missing, *spurious)]
        assert len(found) == 12
        assert all(u is diagram.vertex(u.coords) for u in found)

    def test_unhashable_pair_is_read_as_its_vertex(self, pascal):
        assert pascal.dimension((2, [1, 1])) == 2
        assert pascal.source_set((2, [1, 1])) == pascal.source_set(pascal.vertex((1, 1)))


def test_every_exported_name_resolves():
    import polyadic

    assert [name for name in polyadic.__all__ if not hasattr(polyadic, name)] == []


# every count a caller passes, each read by one integer rule: the call with
# the count `n` in place, and the error a bad count raises
COUNTS = {
    "compositions_total": (lambda d, n: list(compositions_desc(n, 2)), ValueError),
    "compositions_parts": (lambda d, n: list(compositions_desc(2, n)), ValueError),
    "vertices": (lambda d, n: d.vertices(n), ValueError),
    "vertex_level": (lambda d, n: d.vertex((1, 0), n), ValueError),
    "expansion_coefficients": (lambda d, n: d.expansion_coefficients(n), ValueError),
    "dsv": (lambda d, n: d.dsv(d.vertex((1, 1)), n), ValueError),
    "slack": (lambda d, n: coverage.slack(d, d.vertex((3, 0)), n), ValueError),
    "source_ladder": (lambda d, n: coverage.source_ladder(d, d.vertex((2, 2)), n), ValueError),
    "minimal_mass_bound": (
        lambda d, n: minimal_mass_bound(d, n, solve_symmetric_weight(d)), ValueError
    ),
    "vertex_coding": (lambda d, n: Ordering(d).vertex_coding(d.vertex((2, 1)), n), ValueError),
    "path_unrank": (lambda d, n: Ordering(d).path_unrank(d.vertex((2, 1)), n), RankOutOfRange),
    "probe_i": (lambda d, n: probe_depth_pairs(Ordering(d), n, 4), ValueError),
    "probe_horizon": (lambda d, n: probe_depth_pairs(Ordering(d), 0, n), ValueError),
    "probe_floor": (lambda d, n: probe_depth_pairs(Ordering(d), 1, 4, min_coord_floor=n), ValueError),
    "probe_budget": (lambda d, n: probe_depth_pairs(Ordering(d), 1, 4, budget=n), ValueError),
    "vertex_count": (lambda d, n: d.vertex_count(n), ValueError),
    "spec_vertex_count": (lambda d, n: d.spec.vertex_count(n), ValueError),
    "target_len": (
        lambda d, n: build_distinguished_chain(
            d, d.vertex((10, 10)), d.vertex((11, 9)), d.vertex((10, 9)), 1, n
        ),
        ValueError,
    ),
    "seed": (lambda d, n: Ordering(d, "random", seed=n), ValueError),
    "tower_budget": (lambda d, n: Ordering(d).tower(d.vertex((2, 0)), n), ValueError),
    "export_json": (lambda d, n: export_json(d, n), ValueError),
    "export_dot": (lambda d, n: export_dot(d, n), ValueError),
    "coverage_report": (lambda d, n: coverage.coverage_report(d, n), ValueError),
    "link_reports": (lambda d, n: list(link_reports(d, n)), ValueError),
    # these four need a level above 2, so their integer cases have a test of their own
    "verify_all": (lambda d, n: verify_all(d, n), ValueError),
    "chain_start_level": (lambda d, n: find_chain_start(d, n), ValueError),
    "check_cov2": (lambda d, n: coverage.check_cov2(d, n), ValueError),
    "target_uncovered_check": (lambda d, n: coverage.target_uncovered_check(d, n), ValueError),
    "explicit_label": (
        lambda d, n: Ordering(d, "explicit", table={"2:1,1": [n, 1]}), NonBijectiveLabeling
    ),
}


# each place with each bad count; no seed is the random preset's seed 0, and a
# vertex given no level takes the one its coordinates sum to
BAD_COUNTS = [
    (p, n) for p in sorted(COUNTS) for n in (2.5, True, "2", None)
    if (p, n) not in {("seed", None), ("vertex_level", None)}
]


class TestCounts:
    @pytest.mark.parametrize("place, given", BAD_COUNTS, ids=[f"{p}-{n!r}" for p, n in BAD_COUNTS])
    def test_a_count_that_is_no_integer_raises(self, pascal, place, given):
        # vertices(1.5) once never returned, path_unrank took rank 2.5 as 2,
        # dsv and the probe took True as 1, the probe ran on a budget of 2.5,
        # vertex_count(True) answered 2, and vertex((1, 0), True) returned (1,0)
        call, expected = COUNTS[place]
        error = raised_within(lambda: call(pascal, given))
        assert isinstance(error, expected), error

    @pytest.mark.parametrize(
        "place, given",
        [("compositions_parts", 0), ("vertices", -2), ("expansion_coefficients", -1),
         ("dsv", 0), ("dsv", 3), ("slack", 0), ("source_ladder", 3), ("minimal_mass_bound", 0),
         ("vertex_coding", 3), ("path_unrank", 3), ("probe_i", 4), ("probe_horizon", 0),
         ("probe_floor", -1), ("probe_budget", 0), ("vertex_count", -2),
         ("target_len", 1), ("explicit_label", 3), ("vertex_level", -1), ("tower_budget", 0), ("export_json", -1),
         ("export_dot", -1), ("verify_all", -1), ("check_cov2", -1),
         ("target_uncovered_check", -1), ("coverage_report", -1), ("link_reports", -1)],
    )
    def test_a_count_out_of_its_range_raises(self, pascal, place, given):
        # slack(w, 0) once answered for the last direction, a probe floor of
        # -1 admitted every terminal, export_json(-1) wrote no level,
        # coverage_report(-1) returned an empty report, and check_cov2(-1)
        # raised PreconditionNotMet
        call, expected = COUNTS[place]
        assert isinstance(raised_within(lambda: call(pascal, given)), expected)

    def test_a_count_equal_to_an_integer_is_that_integer(self):
        # level 2.0 once interned float vertices: (1.0,1), whose dimension raised
        diagram = Diagram(parse_polynomial("x1 + x2"))
        assert [v.coords for v in diagram.vertices(2.0)] == [(2, 0), (1, 1), (0, 2)]
        v = diagram.vertex((1, 1))
        assert diagram.dimension(v) == 2
        assert all(type(n) is int for n in (v.level, *v.coords))
        assert diagram.vertices(-1) == ()
        # 2.0 and numpy's 2 are 2 wherever a count is read
        probes = {"probe_i", "probe_horizon", "probe_floor", "probe_budget"}
        others = {
            "seed", "explicit_label", "verify_all", "chain_start_level", "check_cov2",
            "target_uncovered_check", "vertex_level",
        }
        for place in sorted(set(COUNTS) - probes - others):
            call = COUNTS[place][0]
            assert call(diagram, 2.0) == call(diagram, np.int64(2)) == call(diagram, 2), place
        # (1, 0) sits on level 1, not 2
        assert diagram.vertex((1, 0), 1.0) is diagram.vertex((1, 0), np.int64(1)) is diagram.vertices(1)[0]
        # a seed or a label is stored as the int it equals, so a document can hold it
        random = Ordering(diagram, "random", seed=np.int64(3))
        explicit = Ordering(diagram, "explicit", table={"2:1,1": [2.0, np.int64(1)]})
        assert to_stable_json(random.describe()) == to_stable_json({"preset": "random", "seed": 3})
        assert to_stable_json(explicit.describe()) == to_stable_json({"explicit": {"2:1,1": [2, 1]}})

    def test_a_whole_level_count_of_zero_is_too_few_levels(self, pascal):
        # 0 is a count, so not the integer rule's ValueError: only too low a bound
        with pytest.raises(PreconditionNotMet, match="verify-all needs --levels 4 or more"):
            verify_all(pascal, 0)

    def test_a_whole_level_count_equal_to_an_integer_is_that_integer(self, pascal):
        # verify_all(6.0) once raised TypeError, and numpy's 6 gave a result
        # that to_stable_json could not write
        results = [verify_all(pascal, n) for n in (6, 6.0, np.int64(6))]
        assert len({to_stable_json(r.to_json()) for r in results}) == 1
        assert all(type(r.max_level) is int for r in results)
        starts = [find_chain_start(pascal, n) for n in (9, 9.0, np.int64(9))]
        assert starts[0] == starts[1] == starts[2] and starts[0]
        # coverage_report(4.0) once wrote "level": 4.0, and numpy's 4 gave a
        # report that to_stable_json could not write
        covered = [coverage.coverage_report(pascal, n) for n in (4, 4.0, np.int64(4))]
        assert len({to_stable_json(r.to_json()) for r in covered}) == 1
        cov2 = [coverage.check_cov2(pascal, n) for n in (4, 4.0, np.int64(4))]
        assert cov2[0] == cov2[1] == cov2[2] and cov2[0].checked
        assert all(type(r.level) is int for r in covered + cov2)
        targets = [coverage.target_uncovered_check(pascal, n) for n in (4, 4.0, np.int64(4))]
        assert targets[0] == targets[1] == targets[2] == ()
