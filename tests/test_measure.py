"""Weights, cylinder masses, and the per-level mass identities."""

import math
from fractions import Fraction

import pytest

from polyadic import (
    Diagram,
    EdgeRef,
    FinitePath,
    Ordering,
    Vertex,
    cylinder_measure,
    dense_orbit_trace,
    dim_lower_bound_check,
    evaluate_polynomial,
    level_mass,
    minimal_mass_bound,
    parse_polynomial,
    solve_symmetric_weight,
    vertex_measure,
    weight_from_theta,
)
from polyadic.errors import InvalidWeight

from conftest import all_ones

HALF = Fraction(1, 2)


class TestSolve:
    def test_pascal_half(self, pascal):
        w = solve_symmetric_weight(pascal)
        assert len(w.theta) == 2
        assert w.theta[0] == w.theta[1]
        assert abs(w.theta[0] - 0.5) < 1e-12
        assert abs(w.residual) <= 1e-12
        assert not w.exact  # bisection output is a float

    def test_quartic_eighth_root(self, quartic):
        w = solve_symmetric_weight(quartic)
        assert abs(w.theta[0] - 8 ** (-1 / 4)) < 1e-12
        assert abs(w.theta[0] - 0.5946035575013605) < 1e-12

    def test_q3_inverse_root_six(self, q3):
        w = solve_symmetric_weight(q3)
        assert abs(w.theta[0] - 6 ** (-1 / 2)) < 1e-12

    def test_linear_three_variables(self):
        diagram = Diagram(parse_polynomial("x1 + x2 + x3"))
        w = solve_symmetric_weight(diagram)
        assert abs(w.theta[0] - 1 / 3) < 1e-12

    def test_solution_satisfies_polynomial(self, all_diagrams):
        for diagram in all_diagrams.values():
            w = solve_symmetric_weight(diagram)
            assert abs(evaluate_polynomial(diagram, w.theta) - 1) <= 1e-12


class TestFromTheta:
    def test_exact_pascal(self, pascal):
        w = weight_from_theta(pascal, (HALF, HALF))
        assert w.exact
        assert w.residual == 0
        assert w.theta == (HALF, HALF)
        assert w.to_json() == {"theta": ["1/2", "1/2"], "residual": 0.0, "exact": True}

    def test_float_within_tolerance(self, pascal):
        w = weight_from_theta(pascal, (0.5 + 4e-13, 0.5))
        assert not w.exact

    def test_rational_must_be_exact(self, quartic):
        # coefficient sum 8 puts p(1/2, 1/2) at 1/2, so the exact check rejects
        with pytest.raises(InvalidWeight):
            weight_from_theta(quartic, (HALF, HALF))

    def test_float_residual_rejected(self, pascal):
        with pytest.raises(InvalidWeight):
            weight_from_theta(pascal, (0.6, 0.6))

    def test_arity_and_positivity(self, pascal):
        with pytest.raises(InvalidWeight):
            weight_from_theta(pascal, (HALF,))
        with pytest.raises(InvalidWeight):
            weight_from_theta(pascal, (HALF, Fraction(0)))
        with pytest.raises(InvalidWeight):
            weight_from_theta(pascal, (HALF, Fraction(-1, 2)))

    @pytest.mark.parametrize(
        "theta",
        [(math.nan, math.nan), (math.nan, 0.5), (math.inf, 0.5), ("1/2", "1/2")],
        ids=["nan", "nan-and-half", "inf-and-half", "strings"],
    )
    def test_an_entry_that_is_no_finite_real_is_refused(self, pascal, theta):
        # (nan, nan) once passed with a nan residual, so level_mass read nan,
        # and a string entry raised a bare TypeError
        with pytest.raises(InvalidWeight, match="finite real numbers"):
            weight_from_theta(pascal, theta)

    @pytest.mark.parametrize("theta", [(0, 1), (Fraction(1), Fraction(0)), (0.0, 1.0)])
    def test_a_zero_entry_on_the_curve_is_refused(self, pascal, theta):
        # m(theta) = 1 holds, so only the positivity test refuses it
        with pytest.raises(InvalidWeight, match="positive"):
            weight_from_theta(pascal, theta)


class TestCylinders:
    def test_pascal_cylinder(self, pascal, pascal_lex):
        w = weight_from_theta(pascal, (HALF, HALF))
        path = pascal_lex.minimal_path(pascal.vertex((2, 1)))
        assert cylinder_measure(pascal, path, w) == Fraction(1, 8)

    def test_quartic_center_cylinder(self, quartic):
        w = solve_symmetric_weight(quartic)
        path = Ordering(quartic).minimal_path(quartic.vertex((4, 4)))
        assert abs(cylinder_measure(quartic, path, w) - 1 / 64) < 1e-12

    def test_empty_path_has_mass_one(self, pascal):
        w = weight_from_theta(pascal, (HALF, HALF))
        assert cylinder_measure(pascal, FinitePath(pascal.root, ()), w) == 1

    def test_mass_depends_only_on_terminal(self, pascal, pascal_lex):
        w = weight_from_theta(pascal, (HALF, HALF))
        for v in pascal.vertices(4):
            masses = {
                cylinder_measure(pascal, path, w) for path in pascal_lex.tower(v)
            }
            assert masses == {Fraction(1, 16)}
            assert vertex_measure(pascal, v, w) == pascal.dimension(v) * Fraction(1, 16)

    def test_vertex_measures(self, pascal, quartic):
        wp = weight_from_theta(pascal, (HALF, HALF))
        assert vertex_measure(pascal, pascal.vertex((2, 1)), wp) == Fraction(3, 8)
        wq = solve_symmetric_weight(quartic)
        assert abs(vertex_measure(quartic, quartic.vertex((4, 4)), wq) - 15 / 64) < 1e-9


class TestLevelMass:
    def test_pascal_exact_one(self, pascal):
        w = weight_from_theta(pascal, (HALF, HALF))
        for level in range(1, 7):
            assert level_mass(pascal, level, w) == 1

    def test_float_systems_near_one(self, all_diagrams):
        for diagram in all_diagrams.values():
            w = solve_symmetric_weight(diagram)
            for level in range(1, 7):
                assert abs(level_mass(diagram, level, w) - 1) < 1e-9

    def test_float_weight_past_float_dimensions(self):
        # central Pascal dimensions at level 1100 exceed the float range
        diagram = Diagram(parse_polynomial("x1 + x2"))
        w = solve_symmetric_weight(diagram)
        assert abs(level_mass(diagram, 1100, w) - 1) < 1e-9
        center = diagram.vertex((550, 550))
        exact = vertex_measure(diagram, center, weight_from_theta(diagram, (HALF, HALF)))
        assert math.isclose(vertex_measure(diagram, center, w), float(exact), rel_tol=1e-9)


class TestMinimalMass:
    def test_pascal_level_four(self, pascal):
        w = weight_from_theta(pascal, (HALF, HALF))
        bound = minimal_mass_bound(pascal, 4, w)
        assert bound.mass == Fraction(3, 16)
        assert bound.bound == Fraction(1, 4)
        assert bound.ok

    def test_quartic_level_three(self, quartic):
        w = solve_symmetric_weight(quartic)
        bound = minimal_mass_bound(quartic, 3, w)
        assert abs(bound.mass - 11 / 512) < 1e-9
        assert bound.ok

    def test_holds_through_level_eight(self, all_diagrams):
        for diagram in all_diagrams.values():
            w = solve_symmetric_weight(diagram)
            for level in range(1, 9):
                assert minimal_mass_bound(diagram, level, w).ok

    def test_level_validation(self, pascal):
        w = weight_from_theta(pascal, (HALF, HALF))
        with pytest.raises(ValueError):
            minimal_mass_bound(pascal, 0, w)


class TestDimBound:
    def test_no_thin_interior_vertices(self, all_diagrams):
        horizons = {"pascal": 10, "quartic": 6, "q3": 6}
        for name, diagram in all_diagrams.items():
            for level in range(2, horizons[name] + 1):
                assert dim_lower_bound_check(diagram, level) == ()


class TestTrace:
    @staticmethod
    def staircase(diagram, length):
        # alternate the two unit steps, staying as central as possible
        edges = []
        coords = (0, 0)
        for step in range(length):
            j = step % 2
            nxt = tuple(c + (1 if idx == j else 0) for idx, c in enumerate(coords))
            edges.append(
                EdgeRef(
                    Vertex(step, coords), Vertex(step + 1, nxt), copy=1
                )
            )
            coords = nxt
        return FinitePath(Vertex(length, coords), tuple(edges))

    def test_corner_path_never_lifts(self, pascal, pascal_lex):
        path = pascal_lex.maximal_path(pascal.vertex((5, 0)))
        assert dense_orbit_trace(path) == (0, 0, 0, 0, 0, 0)

    def test_staircase_lifts_at_half_speed(self, pascal):
        path = self.staircase(pascal, 8)
        assert dense_orbit_trace(path) == tuple(n // 2 for n in range(9))

    def test_trace_steps_bounded_by_degree(self, quartic):
        ordering = Ordering(quartic)
        for v in quartic.vertices(3):
            for path in ordering.tower(v):
                trace = dense_orbit_trace(path)
                assert trace[0] == 0
                assert all(0 <= b - a <= 4 for a, b in zip(trace, trace[1:]))


class TestEdgeCounts:
    """Weights solve the diagram's own polynomial, whose coefficients are
    its edge counts."""

    def test_all_ones_quartic_is_measured(self, quartic):
        flat = Diagram(all_ones(quartic.spec))
        w = solve_symmetric_weight(flat)  # five unit counts: 5 t^4 = 1
        assert all(abs(t - 5 ** -0.25) < 1e-12 for t in w.theta)
        for level in range(1, 7):
            assert abs(level_mass(flat, level, w) - 1) < 1e-9
            assert minimal_mass_bound(flat, level, w).ok
            assert dim_lower_bound_check(flat, level) == ()

    def test_weight_solves_the_counts_not_p(self, pascal):
        doubled = Diagram(parse_polynomial("2 x1 + x2"))
        w = weight_from_theta(doubled, (Fraction(1, 3), Fraction(1, 3)))
        assert w.exact and w.residual == 0
        assert level_mass(doubled, 5, w) == 1
        with pytest.raises(InvalidWeight, match="^m\\(theta\\) - 1 = 1/2 is not exactly zero$"):
            weight_from_theta(doubled, (HALF, HALF))  # solves p, not 2 x1 + x2
