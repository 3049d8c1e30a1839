"""Polynomial-shape graded diagrams: vertex lattice, edges, and path counts.

A homogeneous integer polynomial p with positive coefficients in q >= 2
variables of degree d determines a graded diagram.  Level n holds one vertex
per exponent vector of p**n (a length-q tuple of nonnegative integers summing
to n*d); a vertex u at level n is joined to w at level n + 1 exactly when
w - u is itself a degree-d exponent vector.  In coefficient mode the number
of parallel edges from u to w is the coefficient of the monomial w - u; other
multiplicity tables keep the same shape with different edge counts.

Every degree-d exponent vector must carry a positive coefficient, so the
level-1 vertex set coincides with the set of edge displacement vectors.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from operator import add, sub
from typing import Iterator, Mapping

from .errors import (
    AritySmallerThanTwo,
    MissingMonomial,
    NonPositiveCoefficient,
    NotHomogeneous,
    PolynomialSyntaxError,
)

Coords = tuple[int, ...]


def compositions_desc(total: int, parts: int) -> Iterator[Coords]:
    """Yield all `parts`-tuples of nonnegative integers with the given sum.

    Order is descending lexicographic, which is the canonical vertex order
    used throughout: (total, 0, ..., 0) first, (0, ..., 0, total) last.
    """
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions_desc(total - head, parts - 1):
            yield (head,) + tail


@dataclass(frozen=True)
class Vertex:
    """A lattice point: q nonnegative coordinates summing to level * degree."""

    level: int
    coords: Coords

    def coord(self, j: int) -> int:
        """Coordinate in direction j, 1-based to match the variable x<j>."""
        return self.coords[j - 1]

    @property
    def arity(self) -> int:
        return len(self.coords)

    @property
    def min_coord(self) -> int:
        return min(self.coords)

    @property
    def is_corner(self) -> bool:
        """True when all weight sits on at most one coordinate."""
        return sum(1 for c in self.coords if c) <= 1

    def to_json(self) -> dict:
        return {"level": self.level, "coords": list(self.coords)}

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.coords)) + ")"


@dataclass(frozen=True)
class EdgeRef:
    """One of the parallel edges from `source` up to `target`.

    `copy` is 1-based and runs up to the multiplicity of the pair.
    """

    source: Vertex
    target: Vertex
    copy: int = 1

    def to_json(self) -> dict:
        return {
            "source": list(self.source.coords),
            "target": list(self.target.coords),
            "copy": self.copy,
        }


_TOKEN = re.compile(r"\s*(?:(?P<plus>\+)|(?P<star>\*)|(?P<var>x(?P<idx>\d+)(?:\^(?P<exp>\d+))?)|(?P<int>\d+))")


def _parse_text_terms(text: str) -> list[tuple[dict[int, int], int]]:
    """Tokenize polynomial text into (variable -> exponent, coefficient) terms."""
    terms: list[tuple[dict[int, int], int]] = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise PolynomialSyntaxError(f"empty term in {text!r}")
        pos = 0
        coef = None
        powers: dict[int, int] = {}
        while pos < len(chunk):
            m = _TOKEN.match(chunk, pos)
            if m is None or m.end() == pos:
                raise PolynomialSyntaxError(f"unexpected input at {chunk[pos:]!r}")
            pos = m.end()
            if m.group("star"):
                continue
            if m.group("int"):
                if coef is not None or powers:
                    raise PolynomialSyntaxError(
                        f"integer {m.group('int')} must lead its term in {chunk!r}"
                    )
                coef = int(m.group("int"))
            elif m.group("var"):
                idx = int(m.group("idx"))
                if idx < 1:
                    raise PolynomialSyntaxError(f"variable index must be >= 1 in {chunk!r}")
                powers[idx] = powers.get(idx, 0) + int(m.group("exp") or 1)
        if not powers:
            raise PolynomialSyntaxError(f"term {chunk!r} has no variables")
        terms.append((powers, 1 if coef is None else coef))
    return terms


@dataclass(frozen=True)
class PolynomialSpec:
    """A homogeneous positive integer polynomial with full monomial support.

    `terms` pairs each exponent vector with its coefficient, in canonical
    (descending lexicographic) order.  Construction validates arity >= 2,
    homogeneity, positivity, and that every degree-d exponent vector appears.
    """

    arity: int
    degree: int
    terms: tuple[tuple[Coords, int], ...]

    def __post_init__(self) -> None:
        if self.arity < 2:
            raise AritySmallerThanTwo(f"need at least two variables, got {self.arity}")
        seen: dict[Coords, int] = {}
        for exp, coef in self.terms:
            if len(exp) != self.arity or any(e < 0 for e in exp):
                raise PolynomialSyntaxError(f"bad exponent vector {exp}")
            if sum(exp) != self.degree:
                raise NotHomogeneous(
                    f"term {exp} has degree {sum(exp)}, expected {self.degree}"
                )
            if coef <= 0:
                raise NonPositiveCoefficient(f"coefficient {coef} for {exp}")
            if exp in seen:
                raise PolynomialSyntaxError(f"duplicate exponent vector {exp}")
            seen[exp] = coef
        expected = math.comb(self.degree + self.arity - 1, self.arity - 1)
        if len(self.terms) != expected:
            missing = [s for s in compositions_desc(self.degree, self.arity) if s not in seen]
            raise MissingMonomial(f"absent degree-{self.degree} exponent vectors: {missing}")
        object.__setattr__(self, "terms", tuple(sorted(self.terms, reverse=True)))

    @classmethod
    def from_coefficients(cls, arity: int, coeffs: Mapping[Coords, int]) -> "PolynomialSpec":
        if arity < 2:
            raise AritySmallerThanTwo(f"need at least two variables, got {arity}")
        if not coeffs:
            raise PolynomialSyntaxError("polynomial has no terms")
        degrees = {sum(exp) for exp in coeffs}
        if len(degrees) != 1:
            raise NotHomogeneous(f"mixed total degrees {sorted(degrees)}")
        degree = degrees.pop()
        if degree < 1:
            raise PolynomialSyntaxError("degree must be at least 1")
        return cls(arity=arity, degree=degree, terms=tuple(coeffs.items()))

    @classmethod
    def from_text(cls, text: str) -> "PolynomialSpec":
        raw = _parse_text_terms(text)
        arity = max(idx for powers, _ in raw for idx in powers)
        coeffs: dict[Coords, int] = {}
        for powers, coef in raw:
            exp = tuple(powers.get(j, 0) for j in range(1, arity + 1))
            coeffs[exp] = coeffs.get(exp, 0) + coef
        return cls.from_coefficients(arity, coeffs)

    @classmethod
    def from_json(cls, data: str | Mapping) -> "PolynomialSpec":
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as exc:
                raise PolynomialSyntaxError(f"bad polynomial JSON: {exc}") from exc
        try:
            arity = int(data["q"])
            items = [(tuple(int(e) for e in t["exp"]), int(t["coef"])) for t in data["terms"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise PolynomialSyntaxError(f"bad polynomial JSON structure: {exc}") from exc
        coeffs: dict[Coords, int] = {}
        for exp, coef in items:
            if len(exp) != arity:
                raise PolynomialSyntaxError(f"exponent vector {exp} does not have length {arity}")
            coeffs[exp] = coeffs.get(exp, 0) + coef
        return cls.from_coefficients(arity, coeffs)

    @classmethod
    def parse(cls, text: str) -> "PolynomialSpec":
        """Parse either the expression syntax or the JSON form."""
        stripped = text.strip()
        if stripped.startswith("{"):
            return cls.from_json(stripped)
        return cls.from_text(stripped)

    def coefficient(self, exp: Coords) -> int:
        return dict(self.terms).get(tuple(exp), 0)

    @property
    def source_vectors(self) -> tuple[Coords, ...]:
        """All degree-d exponent vectors, canonical order (equals level-1 labels)."""
        return tuple(exp for exp, _ in self.terms)

    @property
    def coefficient_sum(self) -> int:
        return sum(coef for _, coef in self.terms)

    def vertex_count(self, level: int) -> int:
        """Number of level-`level` vertices: C(level*d + q - 1, q - 1)."""
        return math.comb(level * self.degree + self.arity - 1, self.arity - 1)

    def to_json(self) -> dict:
        return {
            "q": self.arity,
            "terms": [{"exp": list(exp), "coef": coef} for exp, coef in self.terms],
        }

    def to_text(self) -> str:
        parts = []
        for exp, coef in self.terms:
            factors = [
                f"x{j + 1}" + (f"^{e}" if e > 1 else "")
                for j, e in enumerate(exp)
                if e > 0
            ]
            lead = [str(coef)] if coef != 1 else []
            parts.append(" ".join(lead + factors))
        return " + ".join(parts)


def parse_polynomial(text: str) -> PolynomialSpec:
    """Parse polynomial text such as "x1^4 + 2 x1^3 x2 + ..." or its JSON form."""
    return PolynomialSpec.parse(text)


def _multiply(poly: dict[Coords, int], base: dict[Coords, int]) -> dict[Coords, int]:
    out: dict[Coords, int] = {}
    for e1, c1 in poly.items():
        for e2, c2 in base.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


class Diagram:
    """A polynomial-shape diagram with a chosen edge multiplicity table.

    `multiplicity` is "coefficients" (the polynomial diagram), "all-ones",
    or a mapping from each degree-d source vector to a positive edge count.
    Vertices the diagram hands out are interned: one `Vertex` object per
    lattice point, so equal vertices from it are also identical.  Any other
    vertex is validated by `vertex` first, so one off the lattice raises.

    Neighbours are cached per vertex: `source_set` and `targets` return one
    tuple per interned vertex, keyed by its `id` (the diagram keeps interned
    vertices alive), so a hit needs no validation.  `coverage` keeps each
    level's cover map in `_covers`.  `dimension` works on bare coordinate
    tuples and the `Ordering` tables read the uncached `_lower`, so a cold
    deep-level down-set is not kept alive vertex by vertex.
    """

    def __init__(
        self,
        spec: PolynomialSpec,
        multiplicity: str | Mapping[Coords, int] = "coefficients",
    ) -> None:
        self.spec = spec
        if multiplicity == "coefficients":
            table = {exp: coef for exp, coef in spec.terms}
            self.mode = "coefficients"
        elif multiplicity == "all-ones":
            table = {exp: 1 for exp, _ in spec.terms}
            self.mode = "all-ones"
        else:
            table = {tuple(exp): int(count) for exp, count in multiplicity.items()}
            if set(table) != set(spec.source_vectors):
                raise MissingMonomial("multiplicity table must cover every source vector")
            if any(count <= 0 for count in table.values()):
                raise NonPositiveCoefficient("multiplicity table entries must be positive")
            self.mode = "custom"
        self._mult = table
        self._levels: dict[int, tuple[Vertex, ...]] = {}
        self._interned: dict[Coords, Vertex] = {}
        self._dim: dict[Coords, int] = {(0,) * spec.arity: 1}
        self._expansion: dict[int, dict[Coords, int]] = {}
        self._covers: dict[int, dict[Vertex, tuple[Vertex, ...]]] = {}
        self._sources: dict[int, tuple[Vertex, ...]] = {}
        self._targets: dict[int, tuple[Vertex, ...]] = {}

    @property
    def arity(self) -> int:
        return self.spec.arity

    @property
    def degree(self) -> int:
        return self.spec.degree

    @property
    def root(self) -> Vertex:
        return self._vertex((0,) * self.arity)

    def _vertex(self, coords: Coords) -> Vertex:
        """The interned vertex at `coords` (a valid lattice point)."""
        v = self._interned.get(coords)
        return v or self._interned.setdefault(coords, Vertex(sum(coords) // self.degree, coords))

    def _checked(self, v: Vertex) -> Vertex:
        """v if this diagram issued it, else `vertex(v.coords, v.level)`, which validates."""
        return v if self._interned.get(v.coords) is v else self.vertex(v.coords, v.level)

    def _lower(self, coords: Coords) -> list[tuple[Coords, int]]:
        """(u, edge count) for each source vector s with u = coords - s >= 0."""
        return [(u, n) for s, n in self._mult.items() if min(u := tuple(map(sub, coords, s))) >= 0]

    def vertex_count(self, level: int) -> int:
        return self.spec.vertex_count(level)

    def vertices(self, level: int) -> tuple[Vertex, ...]:
        """All level-`level` vertices in canonical (descending lex) order."""
        if level not in self._levels:
            self._levels[level] = tuple(
                map(self._vertex, compositions_desc(level * self.degree, self.arity))
            )
        return self._levels[level]

    def vertex(self, coords, level: int | None = None) -> Vertex:
        """Validated vertex constructor; the level defaults to sum/degree."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.arity or any(c < 0 for c in coords):
            raise ValueError(f"bad coordinates {coords} for arity {self.arity}")
        total = sum(coords)
        if level is None:
            level, rem = divmod(total, self.degree)
            if rem:
                raise ValueError(f"coordinate sum {total} is not a multiple of degree {self.degree}")
        elif total != level * self.degree:
            raise ValueError(f"coordinate sum {total} != level {level} * degree {self.degree}")
        return self._vertex(coords)

    def multiplicity(self, u: Vertex, w: Vertex) -> int:
        """Edge count from u to w; zero unless w sits one level up at offset in S."""
        u, w = self._checked(u), self._checked(w)
        if w.level != u.level + 1:
            return 0
        return self._mult.get(tuple(map(sub, w.coords, u.coords)), 0)

    def source_set(self, w: Vertex) -> tuple[Vertex, ...]:
        """Vertices one level down joined to w, in canonical order."""
        found = self._sources.get(id(w))
        if found is None:
            w = self._checked(w)
            lower = sorted((u for u, _ in self._lower(w.coords)), reverse=True)
            found = self._sources.setdefault(id(w), tuple(map(self._vertex, lower)))
        return found

    def targets(self, u: Vertex) -> tuple[Vertex, ...]:
        """Vertices one level up joined to u, in canonical order."""
        found = self._targets.get(id(u))
        if found is None:
            u = self._checked(u)
            upper = sorted((tuple(map(add, u.coords, s)) for s in self._mult), reverse=True)
            found = self._targets.setdefault(id(u), tuple(map(self._vertex, upper)))
        return found

    def edges_between(self, u: Vertex, w: Vertex) -> tuple[EdgeRef, ...]:
        u, w = self._checked(u), self._checked(w)
        return tuple(EdgeRef(u, w, k) for k in range(1, self.multiplicity(u, w) + 1))

    def indegree(self, w: Vertex) -> int:
        return sum(count for _, count in self._lower(self._checked(w).coords))

    def dimension(self, v: Vertex) -> int:
        """Number of root-to-v paths, via the level recursion (exact integer).

        Fills in the uncached part of v's down-set bottom-up, with no recursion.
        """
        v = self._checked(v)
        dims = self._dim
        if v.coords not in dims:
            # `_lower` inlined in both passes; w - s off the lattice is never in dims
            layers = [{v.coords}]
            while layers[-1]:
                layers.append({
                    u for w in layers[-1] for s in self._mult
                    if min(u := tuple(map(sub, w, s))) >= 0 and u not in dims
                })
            mult = self._mult.items()
            for layer in reversed(layers):
                for w in layer:
                    dims[w] = sum([n * dims.get(tuple(map(sub, w, s)), 0) for s, n in mult])
        return dims[v.coords]

    def expansion_coefficients(self, level: int) -> dict[Coords, int]:
        """Coefficient table of (sum_s m_s x^s)**level, by iterated multiplication.

        Independent of the dimension recursion; the two must agree on every
        vertex, which the test suite checks level by level.
        """
        if level not in self._expansion:
            base = dict(self._mult)
            poly = {(0,) * self.arity: 1}
            n = 0
            # reuse the largest cached power below the request
            for k in sorted(self._expansion):
                if k <= level:
                    n, poly = k, self._expansion[k]
            while n < level:
                poly = _multiply(poly, base)
                n += 1
                self._expansion[n] = poly
            self._expansion[level] = poly
        return self._expansion[level]

    def dsv(self, w: Vertex, j: int) -> Vertex | None:
        """The source of w obtained by removing d from coordinate j, if any.

        Exists if and only if w(j) >= d; it is then the unique source of w
        whose j-th coordinate is w(j) - d.
        """
        if not 1 <= j <= self.arity:
            raise ValueError(f"direction {j} out of range 1..{self.arity}")
        w = self._checked(w)
        if w.coord(j) < self.degree:
            return None
        coords = list(w.coords)
        coords[j - 1] -= self.degree
        return self._vertex(tuple(coords))

    def _greedy_source_steps(self, frm: Vertex, to: Vertex) -> tuple[EdgeRef, ...]:
        """A concrete descending path from `frm` to `to >= frm`, greedy per step."""
        steps = []
        current = frm
        for _ in range(to.level - frm.level):
            remaining = [b - a for a, b in zip(current.coords, to.coords)]
            take = [0] * self.arity
            need = self.degree
            for idx in range(self.arity):
                grab = min(remaining[idx], need)
                take[idx] = grab
                need -= grab
                if need == 0:
                    break
            nxt = Vertex(current.level + 1, tuple(a + t for a, t in zip(current.coords, take)))
            steps.append(EdgeRef(current, nxt, 1))
            current = nxt
        return tuple(steps)

    def connect(self, v1: Vertex, v2: Vertex) -> tuple[Vertex, tuple[EdgeRef, ...], tuple[EdgeRef, ...]]:
        """A common descendant of v1 and v2 with witness paths down to it.

        Takes the coordinatewise maximum, pads the first coordinate up to a
        multiple-of-d total strictly below the two inputs, and decomposes each
        difference greedily into degree-d steps.  Identical inputs come back
        unchanged with empty paths.
        """
        v1, v2 = self._checked(v1), self._checked(v2)
        if v1.level != v2.level:
            raise ValueError("connect expects two vertices at the same level")
        if v1 == v2:
            return v1, (), ()
        upper = [max(a, b) for a, b in zip(v1.coords, v2.coords)]
        total = sum(upper)
        level = max(v1.level + 1, -(-total // self.degree))
        upper[0] += level * self.degree - total
        w = Vertex(level, tuple(upper))
        return w, self._greedy_source_steps(v1, w), self._greedy_source_steps(v2, w)
