"""Product measures on the path space from weights with m(theta) = 1.

m is the diagram's own polynomial, whose coefficients m_s are the edge
counts of the displacements s.  A positive weight theta solving
m(theta) = 1 assigns every cylinder (finite path) the product of its edge
displacements' weights, which collapses to theta raised to the terminal
vertex.  The measure of a whole vertex is its dimension times that power;
each level then carries total mass one.

Weights are floats by default; Fractions keep every computation exact (the
symmetric Pascal weight 1/2 is the standard example).
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational, Real
from typing import NamedTuple

from .core import Diagram, Vertex, _count
from .errors import InvalidWeight
from .vershik import FinitePath

Number = float | Fraction

RESIDUAL_TOLERANCE = 1e-12  # largest |m(theta) - 1| a float weight may leave
MASS_TOLERANCE = 1e-9  # largest |level mass - 1| a float weight may leave


class WeightVector(NamedTuple):
    """Per-variable weights theta with the achieved residual of m(theta) - 1."""

    theta: tuple[Number, ...]
    residual: Number

    @property
    def exact(self) -> bool:
        return all(isinstance(t, Rational) for t in self.theta) and self.residual == 0

    def to_json(self) -> dict:
        return {
            "theta": [str(t) if isinstance(t, Fraction) else t for t in self.theta],
            "residual": float(self.residual),
            "exact": self.exact,
        }


def evaluate_polynomial(diagram: Diagram, theta: tuple[Number, ...]) -> Number:
    """m(theta): the diagram's polynomial, summed in canonical order."""
    total: Number = 0
    for exp, coef in diagram.spec.terms:
        term: Number = coef
        for t, e in zip(theta, exp):
            term *= t**e
        total += term
    return total


def solve_symmetric_weight(diagram: Diagram) -> WeightVector:
    """The equal-coordinate weight: t with (sum of edge counts) * t^d = 1.

    Found by bisection on [0, 1], then checked by `weight_from_theta`: the
    residual of m there is at most RESIDUAL_TOLERANCE, else InvalidWeight.
    """
    total = sum(coef for _, coef in diagram.spec.terms)
    d = diagram.degree
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if total * mid**d < 1:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-17:
            break
    return weight_from_theta(diagram, ((lo + hi) / 2,) * diagram.arity)


def weight_from_theta(diagram: Diagram, theta) -> WeightVector:
    """Validate a user-supplied weight against m(theta) = 1; exact when all entries are rational."""
    theta = tuple(theta)
    if len(theta) != diagram.arity:
        raise InvalidWeight(f"need {diagram.arity} weights, got {len(theta)}")
    if not all(isinstance(t, Real) and abs(t) < math.inf for t in theta):  # nan would pass the residual
        raise InvalidWeight(f"weights must be finite real numbers, got {theta!r}")
    if any(t <= 0 for t in theta):
        raise InvalidWeight("weights must be positive")
    if all(isinstance(t, Rational) for t in theta):
        theta = tuple(Fraction(t) for t in theta)
        residual = evaluate_polynomial(diagram, theta) - 1
        if residual != 0:
            raise InvalidWeight(f"m(theta) - 1 = {residual} is not exactly zero")
        return WeightVector(theta, Fraction(0))
    theta = tuple(float(t) for t in theta)
    residual = evaluate_polynomial(diagram, theta) - 1
    if abs(residual) > RESIDUAL_TOLERANCE:
        raise InvalidWeight(f"residual m(theta) - 1 = {residual} exceeds {RESIDUAL_TOLERANCE}")
    return WeightVector(theta, residual)


def _power(theta: tuple[Number, ...], exponents) -> Number:
    out: Number = theta[0] ** 0
    for t, e in zip(theta, exponents):
        out *= t**e
    return out


def cylinder_measure(diagram: Diagram, path: FinitePath, weight: WeightVector) -> Number:
    """Product of theta over the path's edge displacements.

    Equals theta raised to the terminal vertex, so any two paths into the
    same vertex get the same mass; computed edge by edge regardless.
    """
    out: Number = weight.theta[0] ** 0
    for e in path.edges:
        diff = tuple(b - a for a, b in zip(e.source.coords, e.target.coords))
        out *= _power(weight.theta, diff)
    return out


def vertex_measure(diagram: Diagram, v: Vertex, weight: WeightVector) -> Number:
    """Total mass of all paths into v: dim(v) * theta^v."""
    dim = diagram.dimension(v)
    try:
        return dim * _power(weight.theta, v.coords)
    except OverflowError:  # a float weight and a dimension past the float range
        return math.exp(math.log(dim) + sum(e * math.log(t) for t, e in zip(weight.theta, v.coords)))


def level_mass(diagram: Diagram, level: int, weight: WeightVector) -> Number:
    """Sum of vertex measures across a level; exactly 1 for a valid weight."""
    total: Number = 0
    for v in diagram.vertices(level):
        total += vertex_measure(diagram, v, weight)
    return total


class MassBound(NamedTuple):
    level: int
    mass: Number
    bound: Number
    ok: bool

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "mass": float(self.mass),
            "bound": float(self.bound),
            "ok": self.ok,
        }


def minimal_mass_bound(diagram: Diagram, level: int, weight: WeightVector) -> MassBound:
    """Mass of one cylinder per non-corner vertex, against the 1/level bound.

    Non-corner vertices at a level have dimension at least the level, so the
    minimal path of each carries at most 1/level of its vertex's mass; summed
    over the level this stays at or below 1/level.
    """
    level = _count(level, 1, what="level")
    mass: Number = 0
    for v in diagram.vertices(level):
        if not v.is_corner:
            mass += _power(weight.theta, v.coords)
    bound = Fraction(1, level) if weight.exact else 1.0 / level
    return MassBound(level, mass, bound, mass <= bound)


def dim_lower_bound_check(diagram: Diagram, level: int) -> tuple[tuple[Vertex, int], ...]:
    """Non-corner vertices whose dimension falls below the level; expected none."""
    out = []
    for v in diagram.vertices(level):
        if not v.is_corner and diagram.dimension(v) < level:
            out.append((v, diagram.dimension(v)))
    return tuple(out)


def dense_orbit_trace(path: FinitePath) -> tuple[int, ...]:
    """Minimum coordinate at each level along the path, root included.

    In the infinite system an orbit is dense exactly when this sequence tends
    to infinity; finite prefixes only indicate how central the path stays.
    """
    return tuple(v.min_coord for v in path.vertices())
