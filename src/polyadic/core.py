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
from operator import add, sub
from typing import Iterable, Iterator, Mapping, NamedTuple

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


def _rank_desc(coords: Coords, total: int) -> int:
    """Position of `coords` in `compositions_desc(total, len(coords))`, in O(q).

    The combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3): ahead of c
    come the C(rest + p - 2, p - 1) compositions into p parts whose first
    part is larger, rest = total - c[0], and then those ahead of c's tail.
    """
    rank = coords[-1]  # the place of the last two parts among theirs
    parts = len(coords)
    for c in coords[:-2]:
        total -= c
        rank += math.comb(total + parts - 2, parts - 1)
        parts -= 1
    return rank


def _greedy_fill(room: Iterable[int], degree: int) -> list[int]:
    """`degree` units filled into the entries of `room` from the left, each up to
    its value; the fill falls short of `degree` only when `room` sums to less."""
    take = []
    for r in room:
        take.append(min(r, degree))
        degree -= take[-1]
    return take


class Vertex(NamedTuple):
    """A lattice point: q nonnegative coordinates summing to level * degree.

    A named tuple, so it compares, hashes and sorts as (level, coords), in C:
    `Vertex(1, (1, 0)) == (1, (1, 0))`, and JSON writes it as a list.
    """

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

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.coords)) + ")"


class EdgeRef(NamedTuple):
    """One of the parallel edges from `source` up to `target`.

    `copy` is 1-based and runs up to the multiplicity of the pair.  A named
    tuple like `Vertex`: it compares, hashes and sorts as its three fields.
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


_TOKEN = re.compile(r"\s*(?:(?P<star>\*)|(?P<var>x(?P<idx>\d+)(?:\^(?P<exp>\d+))?)|(?P<int>\d+))")


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


class _PolynomialFields(NamedTuple):
    arity: int
    degree: int
    terms: tuple[tuple[Coords, int], ...]


class PolynomialSpec(_PolynomialFields):
    """A homogeneous positive integer polynomial with full monomial support.

    `terms` pairs each exponent vector with its coefficient, in canonical
    (descending lexicographic) order.  Construction validates arity >= 2,
    homogeneity, positivity, and that every degree-d exponent vector appears.
    """

    __slots__ = ()

    def __new__(cls, arity: int, degree: int, terms: tuple[tuple[Coords, int], ...]) -> PolynomialSpec:
        if arity < 2:
            raise AritySmallerThanTwo(f"need at least two variables, got {arity}")
        seen: dict[Coords, int] = {}
        for exp, coef in terms:
            if len(exp) != arity or any(e < 0 for e in exp):
                raise PolynomialSyntaxError(f"bad exponent vector {exp}")
            if sum(exp) != degree:
                raise NotHomogeneous(
                    f"term {exp} has degree {sum(exp)}, expected {degree}"
                )
            if coef <= 0:
                raise NonPositiveCoefficient(f"coefficient {coef} for {exp}")
            if exp in seen:
                raise PolynomialSyntaxError(f"duplicate exponent vector {exp}")
            seen[exp] = coef
        expected = math.comb(degree + arity - 1, arity - 1)
        if len(terms) != expected:
            missing = [s for s in compositions_desc(degree, arity) if s not in seen]
            raise MissingMonomial(f"absent degree-{degree} exponent vectors: {missing}")
        return super().__new__(cls, arity, degree, tuple(sorted(terms, reverse=True)))

    def _replace(self, **changes) -> PolynomialSpec:  # checked, unlike `_make`
        return type(self)(**{**self._asdict(), **changes})

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
    `mode` names the diagram: a mapping equal to the coefficients, or else to
    all ones, takes that name, and any other is "custom".  Vertices the
    diagram hands out are interned: one `Vertex` object per lattice point,
    so equal vertices from it are also identical.  Any other vertex is
    validated by `vertex` first, so one off the lattice raises.

    A vertex's index is (level, rank), its rank the position in canonical
    order, found in O(q) without listing the level.  `_issued` maps each
    index handed out to its vertex and `_rank` each such vertex back to its
    rank; a hit in `_rank` needs no validation.  Dimensions are kept as
    whole rows, one per level a caller touched (`_rows`), each stepped up
    from the nearest kept row below, so a deep cold `dimension` holds two
    rows, not its down-set.  The `Ordering` tables read the same rows and
    the shifted runs of `_shifts`.

    `_mult` holds each source vector's edge count in canonical order, the
    order a custom table came in notwithstanding, so `_lower` lists a
    vertex's sources ascending, `source_set` is that list reversed, and
    `targets` (adding each vector in turn) needs no sort.

    Neighbours are cached per vertex value: `source_set` and `targets` store
    only valid vertices, so a hit needs no validation, and `coverage` keeps
    each level's cover map in `_covers`, beside which `chains` keeps each
    vertex's link facts in `_uncovered_around`.
    """

    def __init__(
        self,
        spec: PolynomialSpec,
        multiplicity: str | Mapping[Coords, int] = "coefficients",
    ) -> None:
        self.spec = spec
        named = {
            "coefficients": {exp: coef for exp, coef in spec.terms},
            "all-ones": {exp: 1 for exp, _ in spec.terms},
        }
        if isinstance(multiplicity, str):
            if multiplicity not in named:
                raise ValueError(f"unknown multiplicity {multiplicity!r}")
            table, self.mode = named[multiplicity], multiplicity
        else:
            table = {tuple(exp): int(count) for exp, count in multiplicity.items()}
            if set(table) != set(spec.source_vectors):
                raise MissingMonomial("multiplicity table must cover every source vector")
            if any(count <= 0 for count in table.values()):
                raise NonPositiveCoefficient("multiplicity table entries must be positive")
            self.mode = next((name for name, known in named.items() if table == known), "custom")
        self._mult = {s: table[s] for s in spec.source_vectors}  # in canonical order
        self._levels: dict[int, tuple[Vertex, ...]] = {}
        self._issued: dict[tuple[int, int], Vertex] = {}
        self._rank: dict[Vertex, int] = {}
        self._rows: dict[int, list[int]] = {0: [1]}
        self._intern(0, 0, (0,) * spec.arity)
        self._expansion: dict[int, dict[Coords, int]] = {}
        self._covers: dict[int, dict[Vertex, tuple[Vertex, ...]]] = {}
        self._uncovered_around: dict[Vertex, tuple[bool, bool]] = {}
        self._sources: dict[Vertex, tuple[Vertex, ...]] = {}
        self._targets: dict[Vertex, tuple[Vertex, ...]] = {}

    @property
    def arity(self) -> int:
        return self.spec.arity

    @property
    def degree(self) -> int:
        return self.spec.degree

    @property
    def root(self) -> Vertex:
        return self._issued[0, 0]

    def _intern(self, level: int, rank: int, coords: Coords) -> Vertex:
        """The issued vertex at index (level, rank), whose coordinates are `coords`."""
        v = self._issued.get((level, rank))
        if v is None:
            v = self._issued[level, rank] = Vertex(level, coords)
            self._rank[v] = rank
        return v

    def _vertex(self, coords: Coords) -> Vertex:
        """The issued vertex at `coords` (a valid lattice point)."""
        total = sum(coords)
        index = total // self.degree, _rank_desc(coords, total)
        return self._issued.get(index) or self._intern(*index, coords)

    def _index(self, v: tuple[int, Coords]) -> int:
        """The rank of the pair (level, coords) v, a `Vertex` or a plain tuple;
        one the diagram did not issue goes through `vertex`, which validates."""
        rank = self._rank.get(v)
        return self._rank[self.vertex(v[1], v[0])] if rank is None else rank

    def _checked(self, v: tuple[int, Coords]) -> Vertex:
        """The issued vertex equal to the pair (level, coords) v, validated as by `_index`."""
        rank = self._rank.get(v)
        return self.vertex(v[1], v[0]) if rank is None else self._issued[v[0], rank]

    def _lower(self, coords: Coords) -> list[tuple[Coords, int]]:
        """(u, edge count) for each source vector s with u = coords - s >= 0,
        the u ascending, as the source vectors run in canonical order."""
        return [(u, n) for s, n in self._mult.items() if min(u := tuple(map(sub, coords, s))) >= 0]

    def vertex_count(self, level: int) -> int:
        return self.spec.vertex_count(level)

    def vertices(self, level: int) -> tuple[Vertex, ...]:
        """All level-`level` vertices in canonical (descending lex) order."""
        if level not in self._levels:
            self._levels[level] = tuple(
                self._intern(level, rank, coords)
                for rank, coords in enumerate(compositions_desc(level * self.degree, self.arity))
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
        found = self._sources.get(w)
        if found is None:
            w = self._checked(w)
            lower = [u for u, _ in reversed(self._lower(w.coords))]
            found = self._sources.setdefault(w, tuple(map(self._vertex, lower)))
        return found

    def targets(self, u: Vertex) -> tuple[Vertex, ...]:
        """Vertices one level up joined to u, in canonical order."""
        found = self._targets.get(u)
        if found is None:
            u = self._checked(u)
            upper = (tuple(map(add, u.coords, s)) for s in self._mult)
            found = self._targets.setdefault(u, tuple(map(self._vertex, upper)))
        return found

    def edges_between(self, u: Vertex, w: Vertex) -> tuple[EdgeRef, ...]:
        u, w = self._checked(u), self._checked(w)
        return tuple(EdgeRef(u, w, k) for k in range(1, self.multiplicity(u, w) + 1))

    def indegree(self, w: Vertex) -> int:
        return sum(count for _, count in self._lower(self._checked(w).coords))

    def dimension(self, v: Vertex) -> int:
        """Number of root-to-v paths: v's entry in its level's row (exact integer)."""
        return self._row(v[0])[self._index(v)]

    def _row(self, level: int) -> list[int]:
        """The dimensions of the level's vertices by rank, kept once asked for.

        A new row is stepped up from the nearest kept row below it, level by
        level, with no recursion; the rows in between are not kept.
        """
        row = self._rows.get(level)
        if row is None:
            start = max(n for n in self._rows if n < level)
            row = self._rows[start]
            for n in range(start + 1, level + 1):
                nxt = [0] * self.vertex_count(n)
                for count, shifts in self._shifts(n):
                    for src, dst, size in shifts:
                        part = row[src : src + size]
                        if count != 1:
                            part = [count * x for x in part]
                        nxt[dst : dst + size] = map(add, nxt[dst : dst + size], part)
                row = nxt
            self._rows[level] = row
        return row

    def _shifts(self, level: int) -> Iterator[tuple[int, list[tuple[int, int, int]]]]:
        """The edges from level - 1 into `level`, one source vector s at a time
        in canonical order: s's multiplicity and its runs, (source rank,
        target rank, length).

        A run is the vertices that share their first q - 2 coordinates; they
        hold consecutive ranks, the last coordinate counting up.  Adding s
        moves a whole run one level up, onto the run of the heads' sum,
        starting at its place s[-1].
        """
        runs = []
        for total in ((level - 1) * self.degree, level * self.degree):
            starts, rank = {}, 0
            for *head, rest in compositions_desc(total, self.arity - 1):
                starts[tuple(head)] = rank, rest + 1
                rank += rest + 1
            runs.append(starts)
        below, above = runs
        for s, mult in self._mult.items():
            head = s[:-2]
            yield mult, [
                (src, above[tuple(map(add, h, head))][0] + s[-1], size)
                for h, (src, size) in below.items()
            ]

    def expansion_coefficients(self, level: int) -> dict[Coords, int]:
        """Coefficient table of (sum_s m_s x^s)**level, by iterated multiplication.

        Independent of the dimension recursion; the two must agree on every
        vertex, which the test suite checks level by level.
        """
        if level not in self._expansion:
            poly = {(0,) * self.arity: 1}
            n = 0
            # reuse the largest cached power below the request
            for k in sorted(self._expansion):
                if k <= level:
                    n, poly = k, self._expansion[k]
            while n < level:
                poly = _multiply(poly, self._mult)
                n += 1
                self._expansion[n] = poly
            self._expansion[level] = poly
        return self._expansion[level]

    def dsv(self, w: Vertex, j: int) -> Vertex | None:
        """The source of w obtained by removing d from coordinate j, if any.

        Exists if and only if w(j) >= d; it is then the unique source of w
        whose j-th coordinate is w(j) - d, read off the cached `source_set`.
        """
        if not 1 <= j <= self.arity:
            raise ValueError(f"direction {j} out of range 1..{self.arity}")
        sources = self.source_set(w)  # validates a vertex the diagram did not issue
        drop = w[1][j - 1] - self.degree
        for u in sources:
            if u.coords[j - 1] == drop:
                return u
        return None

    def _greedy_source_steps(self, frm: Vertex, to: Vertex) -> tuple[EdgeRef, ...]:
        """A concrete descending path from `frm` to `to >= frm`, greedy per step."""
        steps = []
        current = frm
        for _ in range(to.level - frm.level):
            take = _greedy_fill(map(sub, to.coords, current.coords), self.degree)
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
