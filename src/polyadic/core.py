"""Polynomial-shape graded diagrams: vertex lattice, edges, and path counts.

A homogeneous integer polynomial p with positive coefficients in q >= 2
variables of degree d determines a graded diagram.  Level n holds one vertex
per exponent vector of p**n (a length-q tuple of nonnegative integers summing
to n*d); a vertex u at level n is joined to w at level n + 1 exactly when
w - u is itself a degree-d exponent vector.  The number of parallel edges
from u to w is the coefficient of the monomial w - u, so other edge counts
on the same shape are the diagram of another polynomial of that q and d.

Every degree-d exponent vector must carry a positive coefficient, so the
level-1 vertex set coincides with the set of edge displacement vectors.
"""

from __future__ import annotations

import json
import math
import re
from itertools import islice
from operator import add, sub
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple

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
    used throughout: (total, 0, ..., 0) first, (0, ..., 0, total) last.  The
    next tuple takes one unit off the rightmost nonzero part before the last
    and puts it, with the last part's value, on the part to its right: a loop,
    so any number of parts costs no recursion.  A negative total has none; a
    total that is no integer, or parts < 1, raises ValueError.
    """
    total, parts = _count(total, what="total"), _count(parts, 1, what="parts")
    if total < 0:
        return  # a negative level: no vertex
    c = [total] + [0] * (parts - 1)
    last = parts - 1
    while True:
        yield tuple(c)
        j = last - 1
        while j >= 0 and not c[j]:
            j -= 1
        if j < 0:
            return
        rest = c[last]  # the parts between j and the last are 0
        c[j] -= 1
        c[last] = 0
        c[j + 1] = rest + 1


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


_TERM = re.compile(r"[\s*]*(?:(\d+)[\s*]*)?((?:x0*[1-9]\d*(?:\^\d+)?[\s*]*)+)")
_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?")


def _parse_text_terms(text: str) -> list[tuple[dict[int, int], int]]:
    """Tokenize polynomial text into (variable -> exponent, coefficient) terms.

    A term between '+' signs is an optional leading integer and one or more
    factors x<j> or x<j>^<e>, j >= 1, spaces or '*' between any two of them.
    A number too long for `int` (Python's digit limit) is a bad term too.
    """
    terms = []
    for chunk in text.split("+"):
        term = _TERM.fullmatch(chunk)
        try:
            if term is None:
                raise ValueError
            powers: dict[int, int] = {}
            for idx, exp in _FACTOR.findall(term[2]):
                powers[int(idx)] = powers.get(int(idx), 0) + int(exp or 1)
            terms.append((powers, int(term[1] or 1)))
        except ValueError:
            raise PolynomialSyntaxError(f"bad term {chunk.strip()!r} in {text!r}") from None
    return terms


def _integers(values: Iterable) -> tuple[int, ...] | None:
    """The values as Python ints when each equals an integer, else None: the one
    rule for a given number, a vertex coordinate or a polynomial's.  1.0 and
    numpy integers pass; 1.5, "1", True, None, inf and nan do not."""
    try:
        values = tuple(values)
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        return None
    return ints if ints == values and bool not in map(type, values) else None


def _count(value, low=None, high=None, what="count", error=ValueError) -> int:
    """`value` as a Python int when it equals an integer, by `_integers`' rule,
    and lies in low..high, an end left open by None; else `error`: the one
    check of a level, direction, rank, length or seed a caller passes."""
    n = value if type(value) is int else (_integers((value,)) or (None,))[0]
    if n is None or (low is not None and n < low) or (high is not None and n > high):
        span = f" in {low}..{high}" if high is not None else f" >= {low}" if low is not None else ""
        raise error(f"{what} must be an integer{span}, got {value!r}")
    return n


def _first_degree(terms: Iterable[tuple[Coords, int]]) -> int:
    """The first term's degree, or 1 if it has none: `PolynomialSpec` then
    names the bad term, or reports every vector absent."""
    exp = _integers(next(iter(terms), ((),))[0])
    return sum(exp) if exp else 1


def _check_shape(arity: int, degree: int) -> None:
    """AritySmallerThanTwo below two variables, PolynomialSyntaxError below degree 1."""
    if arity < 2:
        raise AritySmallerThanTwo(f"need at least two variables, got {arity}")
    if degree < 1:
        raise PolynomialSyntaxError(f"degree must be at least 1, got {degree}")


def _check_support(degree: int, arity: int, present: Collection) -> None:
    """MissingMonomial unless `present`, the distinct degree-d monomials, holds all
    C(d + q - 1, q - 1); from q on, as exponent vectors, three absent are named."""
    absent = math.comb(degree + arity - 1, arity - 1) - len(present)
    if absent:
        among = (s for s in compositions_desc(degree, arity) if s not in present)
        named = f", among them {list(islice(among, 3))}" if len(present) >= arity else ""
        raise MissingMonomial(f"{absent} degree-{degree} exponent vectors absent{named}")


class _PolynomialFields(NamedTuple):
    arity: int
    degree: int
    terms: tuple[tuple[Coords, int], ...]


class PolynomialSpec(_PolynomialFields):
    """A homogeneous positive integer polynomial with full monomial support.

    `terms` pairs each exponent vector with its coefficient; a repeated one
    adds.  Construction is the one check of a polynomial in any form: arity
    >= 2, degree >= 1, each term's q exponents >= 0 summing to the degree and
    its coefficient > 0, full support; every number equal to an integer, as
    in `Diagram.vertex`.  The fields hold ints, terms in canonical order.
    """

    __slots__ = ()

    def __new__(cls, arity: int, degree: int, terms: Iterable[tuple[Coords, int]]) -> PolynomialSpec:
        size = _integers((arity, degree))
        if size is None:
            raise PolynomialSyntaxError(f"arity {arity!r} and degree {degree!r} must be integers")
        arity, degree = size
        _check_shape(arity, degree)
        coeffs: dict[Coords, int] = {}
        for given, coef in terms:
            exp, count = _integers(given), _integers((coef,))
            if exp is None or len(exp) != arity or min(exp) < 0:
                raise PolynomialSyntaxError(f"bad exponent vector {given!r} for {arity} variables")
            if sum(exp) != degree:
                raise NotHomogeneous(f"term {exp} has degree {sum(exp)}, expected {degree}")
            if count is None:
                raise PolynomialSyntaxError(f"coefficient {coef!r} for {exp} is not an integer")
            if count[0] <= 0:
                raise NonPositiveCoefficient(f"coefficient {coef} for {exp}")
            coeffs[exp] = coeffs.get(exp, 0) + count[0]
        _check_support(degree, arity, coeffs)
        return super().__new__(cls, arity, degree, tuple(sorted(coeffs.items(), reverse=True)))

    def _replace(self, **changes) -> PolynomialSpec:  # checked, unlike `_make`
        return type(self)(**{**self._asdict(), **changes})

    @classmethod
    def from_coefficients(cls, arity: int, coeffs: Mapping[Coords, int]) -> "PolynomialSpec":
        return cls(arity, _first_degree(coeffs.items()), coeffs.items())

    @classmethod
    def from_text(cls, text: str) -> "PolynomialSpec":
        raw = _parse_text_terms(text)
        arity = max(idx for powers, _ in raw for idx in powers)
        degree = sum(raw[0][0].values())
        _check_shape(arity, degree)  # these, too, are refused before any vector is built
        if len(raw) < arity:  # too few terms to hold each x_j^d
            _check_support(degree, arity, {frozenset((j, e) for j, e in p.items() if e)
                                           for p, _ in raw if sum(p.values()) == degree})
        terms = [(tuple(powers.get(j, 0) for j in range(1, arity + 1)), coef) for powers, coef in raw]
        return cls(arity, degree, terms)

    @classmethod
    def from_json(cls, data: str | Mapping) -> "PolynomialSpec":
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as exc:
                raise PolynomialSyntaxError(f"bad polynomial JSON: {exc}") from exc
        try:
            arity = data["q"]
            terms = [(t["exp"], t["coef"]) for t in data["terms"]]
        except (KeyError, TypeError) as exc:
            raise PolynomialSyntaxError(f"bad polynomial JSON structure: {exc}") from exc
        return cls(arity, _first_degree(terms), terms)

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

    def vertex_count(self, level: int) -> int:
        """Number of level-`level` vertices: C(level*d + q - 1, q - 1); none at -1."""
        level = _count(level, -1, what="level")
        return math.comb(level * self.degree + self.arity - 1, self.arity - 1) if level >= 0 else 0

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
    """The diagram of a polynomial, whose coefficients are its edge counts.

    A diagram is named by its polynomial alone: edge counts m_s on the
    shape of p are the diagram of m = sum_s m_s x^s.  Vertices the diagram
    hands out are interned: one `Vertex` object per lattice point, so equal
    vertices from it are also identical.  Any other vertex is validated by
    `vertex` first, so one off the lattice raises.

    One map, `_issued`, indexes the vertices: it is keyed on the vertex
    value, so a plain (level, coords) pair finds the same entry, and holds
    the interned vertex and its rank, the position in canonical order,
    found in O(q) without listing the level.  A hit needs no validation.
    Dimensions are kept as whole rows, one per level a caller touched
    (`_rows`), each stepped up from the nearest kept row below, so a deep
    cold `dimension` holds two rows, not its down-set.  The `Ordering`
    tables read the same rows and the shifted runs of `_shifts`.

    `_mult` holds each source vector's edge count in canonical order, the
    order of `spec.terms`, so `_lower` lists a vertex's sources ascending,
    `source_set` is that list reversed, and `targets` (adding each vector
    in turn) needs no sort.

    Neighbours are cached per vertex value: `source_set` and `targets` store
    only valid vertices, so a hit needs no validation, and `coverage` keeps
    each level's source index in `_covers`: the level's source sets, the
    vertices each source feeds, and the cover map.
    """

    def __init__(self, spec: PolynomialSpec) -> None:
        self.spec = spec
        self._mult = dict(spec.terms)  # in canonical order
        self._levels: dict[int, tuple[Vertex, ...]] = {}
        self._issued: dict[Vertex, tuple[Vertex, int]] = {}  # value -> (vertex, rank)
        self._rows: dict[int, list[int]] = {0: [1]}
        self._intern(Vertex(0, (0,) * spec.arity), 0)
        self._powers: list[dict[Coords, int]] = [{(0,) * spec.arity: 1}]  # by level
        self._covers: dict[int, tuple] = {}  # level -> coverage's source index
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
        return self._issued[0, (0,) * self.arity][0]

    def _intern(self, v: Vertex, rank: int) -> Vertex:
        """The interned vertex equal to v, whose rank is `rank`: v itself if new."""
        return self._issued.setdefault(v, (v, rank))[0]

    def _vertex(self, coords: Coords) -> Vertex:
        """The interned vertex at `coords` (a valid lattice point)."""
        total = sum(coords)
        entry = self._issued.get((level := total // self.degree, coords))
        return entry[0] if entry else self._intern(Vertex(level, coords), _rank_desc(coords, total))

    def _entry(self, v: tuple[int, Coords]) -> tuple[Vertex, int]:
        """(interned vertex, rank) for the pair (level, coords) v, a `Vertex` or a plain
        tuple; one not interned, or unhashable, goes through `vertex`, which validates."""
        try:
            return self._issued[v]
        except (KeyError, TypeError):
            return self._issued[self.vertex(v[1], v[0])]

    def _checked(self, v: tuple[int, Coords]) -> Vertex:
        """The interned vertex equal to the pair (level, coords) v, validated as by `_entry`."""
        return self._entry(v)[0]

    def _lower(self, coords: Coords) -> list[tuple[Coords, int]]:
        """(u, edge count) for each source vector s with u = coords - s >= 0,
        the u ascending, as the source vectors run in canonical order."""
        return [(u, n) for s, n in self._mult.items() if min(u := tuple(map(sub, coords, s))) >= 0]

    def vertex_count(self, level: int) -> int:
        return self.spec.vertex_count(level)

    def vertices(self, level: int) -> tuple[Vertex, ...]:
        """All level-`level` vertices in canonical (descending lex) order; none at -1."""
        if type(level) is not int or level not in self._levels:
            level = _count(level, -1, what="level")
            coords = compositions_desc(level * self.degree, self.arity)
            self._levels[level] = tuple(
                self._intern(Vertex(level, c), rank) for rank, c in enumerate(coords)
            )
        return self._levels[level]

    def vertex(self, coords, level: int | None = None) -> Vertex:
        """Validated vertex constructor; the level defaults to sum/degree.  A
        coordinate or a given level must equal an integer, by `PolynomialSpec`'s
        rule: 1.0 is 1, but 1.5, "1", True, None and inf raise ValueError."""
        given, coords = coords, _integers(coords)
        if coords is None or len(coords) != self.arity or min(coords) < 0:
            raise ValueError(f"bad coordinates {given!r} for arity {self.arity}")
        total = sum(coords)
        if level is None:
            level, rem = divmod(total, self.degree)
            if rem:
                raise ValueError(f"coordinate sum {total} is not a multiple of degree {self.degree}")
        elif total != _count(level, what="level") * self.degree:  # a negative level fails here
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
        try:
            return self._sources[w]
        except (KeyError, TypeError):  # a miss, or an unhashable pair `_checked` reads
            w = self._checked(w)
            lower = [u for u, _ in reversed(self._lower(w.coords))]
            return self._sources.setdefault(w, tuple(map(self._vertex, lower)))

    def targets(self, u: Vertex) -> tuple[Vertex, ...]:
        """Vertices one level up joined to u, in canonical order."""
        try:
            return self._targets[u]
        except (KeyError, TypeError):  # as in `source_set`
            u = self._checked(u)
            upper = (tuple(map(add, u.coords, s)) for s in self._mult)
            return self._targets.setdefault(u, tuple(map(self._vertex, upper)))

    def edges_between(self, u: Vertex, w: Vertex) -> tuple[EdgeRef, ...]:
        u, w = self._checked(u), self._checked(w)
        return tuple(EdgeRef(u, w, k) for k in range(1, self.multiplicity(u, w) + 1))

    def indegree(self, w: Vertex) -> int:
        return sum(count for _, count in self._lower(self._checked(w).coords))

    def dimension(self, v: Vertex) -> int:
        """Number of root-to-v paths: v's entry in its level's row (exact integer)."""
        v, rank = self._entry(v)
        return self._row(v.level)[rank]

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
        level = _count(level, 0, what="level")
        powers = self._powers
        while len(powers) <= level:
            powers.append(_multiply(powers[-1], self._mult))
        return powers[level]

    def dsv(self, w: Vertex, j: int) -> Vertex | None:
        """The source of w obtained by removing d from coordinate j, if any.

        Exists if and only if w(j) >= d: w - d*e_j is then a lattice point
        one level down, and a source of w because every degree-d vector,
        d*e_j among them, is one.  Computed from w's coordinates, not read
        off `source_set`, so the verify suites can check the two against
        each other.
        """
        j = _count(j, 1, self.arity, "direction")
        coords = self._checked(w).coords
        if coords[j - 1] < self.degree:
            return None
        return self._vertex((*coords[: j - 1], coords[j - 1] - self.degree, *coords[j:]))

    def _greedy_source_steps(self, frm: Vertex, to: Vertex) -> tuple[EdgeRef, ...]:
        """A concrete descending path from `frm` to `to >= frm`, greedy per step."""
        steps = []
        current = frm
        for _ in range(to.level - frm.level):
            take = _greedy_fill(map(sub, to.coords, current.coords), self.degree)
            nxt = self._vertex(tuple(a + t for a, t in zip(current.coords, take)))
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
        w = self._vertex(tuple(upper))
        return w, self._greedy_source_steps(v1, w), self._greedy_source_steps(v2, w)
