"""Chains of splitting vertices linked through shared sources.

A chain alternates vertices w_0..w_k on one level with vertices u_0..u_{k-1}
one level down, where each u_l is a source of both w_l and w_{l+1}.  It is
straight when no vertex repeats, and distinguished in direction j when every
u_l with l >= 1 is the j-drop source of w_l (coordinate j reduced by d).
Distinguished chains can be grown mechanically: drop w_l by d in direction j,
then move to the other target of that source with the largest j coordinate.
The j coordinates then fall by 1..d per step, so straightness comes free
until the chain collides with its own start.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable, Collection, Iterator, NamedTuple

from .core import Diagram, Vertex, _count
from .coverage import _sharing_pairs, _source_index, is_covered_oracle
from .errors import DsvAbsent, HypothesisNotMet, LengthMismatch, NoExtension, PreconditionNotMet


class _ChainFields(NamedTuple):
    level: int
    splitting: tuple[Vertex, ...]
    shared: tuple[Vertex, ...]
    direction: int | None = None


class Chain(_ChainFields):
    """Splitting vertices with the shared sources between consecutive ones."""

    __slots__ = ()

    def __new__(
        cls, level: int, splitting: tuple[Vertex, ...], shared: tuple[Vertex, ...],
        direction: int | None = None,
    ) -> Chain:
        if not splitting or len(shared) != len(splitting) - 1:
            raise LengthMismatch(
                f"{len(splitting)} splitting vertices need "
                f"{max(len(splitting) - 1, 0)} shared, got {len(shared)}"
            )
        return super().__new__(cls, level, splitting, shared, direction)

    def _replace(self, **changes) -> Chain:  # checked, unlike `_make`
        return type(self)(**{**self._asdict(), **changes})

    @property
    def length(self) -> int:
        """Number of links, one less than the splitting count."""
        return len(self.splitting) - 1

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "splitting": [list(v.coords) for v in self.splitting],
            "shared": [list(u.coords) for u in self.shared],
            "direction": self.direction,
        }


class ChainCheck(NamedTuple):
    is_chain: bool
    is_straight: bool
    is_link: bool
    distinguished_direction: int | None


def validate_chain(diagram: Diagram, chain: Chain) -> ChainCheck:
    """Check the chain conditions and find the distinguished direction, if any.

    Every vertex of the chain is validated first, so one off the lattice
    raises ValueError.
    """
    splitting = tuple(map(diagram._checked, chain.splitting))
    shared = tuple(map(diagram._checked, chain.shared))
    ok = all(v.level == chain.level for v in splitting) and all(
        u.level == chain.level - 1 for u in shared
    )
    if ok:
        for l, u in enumerate(shared):
            srcs = diagram.source_set(splitting[l])
            nxt = diagram.source_set(splitting[l + 1])
            if u not in srcs or u not in nxt:
                ok = False
                break
    straight = ok and (
        len(set(splitting)) == len(splitting)
        and len(set(shared)) == len(shared)
    )
    direction = None
    if straight and chain.length >= 2:
        for j in range(1, diagram.arity + 1):
            if all(
                diagram.dsv(splitting[l], j) == shared[l]
                for l in range(1, chain.length)
            ):
                direction = j
                break
    return ChainCheck(
        is_chain=ok,
        is_straight=straight,
        is_link=ok and chain.length == 1,
        distinguished_direction=direction,
    )


def build_distinguished_chain(
    diagram: Diagram,
    w0: Vertex,
    w1: Vertex,
    u0: Vertex,
    j: int,
    target_len: int,
) -> Chain:
    """Grow a distinguished chain from the link (w0, u0, w1) in direction j.

    `target_len` counts splitting vertices in the finished chain.  Each step
    takes u_l as the j-drop source of w_l and moves to the target of u_l,
    other than w_l, with the largest j coordinate: u_l has a target for each
    of the q >= 2 source vectors, so one besides w_l.  Raises DsvAbsent when a
    j-drop source is missing and NoExtension when a vertex would repeat.
    """
    target_len = _count(target_len, 2, what="target_len")
    w0, w1, u0 = map(diagram._checked, (w0, w1, u0))
    if w0.level != w1.level or w0 == w1:
        raise HypothesisNotMet("w0 and w1 must be distinct vertices on one level")
    if u0 not in diagram.source_set(w0) or u0 not in diagram.source_set(w1):
        raise HypothesisNotMet(f"{u0} is not a shared source of {w0} and {w1}")
    splitting = [w0, w1]
    shared = [u0]
    while len(splitting) < target_len:
        w = splitting[-1]
        u = diagram.dsv(w, j)
        if u is None:
            raise DsvAbsent(
                f"{w} has no j-drop source in direction {j} "
                f"(chain reached {len(splitting)} splitting vertices)"
            )
        nxt = max((t for t in diagram.targets(u) if t != w), key=lambda t: (t.coord(j), t.coords))
        if nxt in splitting or u in shared:
            raise NoExtension(
                f"straightness breaks at {nxt} "
                f"(chain reached {len(splitting)} splitting vertices)"
            )
        shared.append(u)
        splitting.append(nxt)
    return Chain(w0.level, tuple(splitting), tuple(shared), direction=j)


class ChainStart(NamedTuple):
    v: Vertex
    v_prime: Vertex
    direction: int
    shared: Vertex


def find_chain_start(diagram: Diagram, level: int) -> tuple[ChainStart, ...]:
    """All uncovered pairs with a shared source and well-separated j coordinates.

    Returns (v, v', j, u) for every ordered pair of distinct uncovered
    vertices at `level`, in canonical order of v and then of v', with u their
    greatest common source and j a direction satisfying
    2d^2 + 4d <= v'(j) < v(j) <= (level - 2) * d.  These are the seeds from
    which long distinguished chains grow.  Below level 2d + 7 the window is
    empty, which raises `PreconditionNotMet`.
    """
    level = _count(level, what="level")
    d = diagram.degree
    lo, hi = 2 * d * d + 4 * d, (level - 2) * d
    if lo >= hi:
        raise PreconditionNotMet(f"need level >= 2d + 7 = {2 * d + 7}, got {level}")
    vertices, sources, _, _ = _source_index(diagram, level)
    uncovered = {v for v in vertices if not is_covered_oracle(diagram, v)}
    links = [(v, vp, max(sources[v] & sources[vp])) for v, vp in _sharing_pairs(diagram, level)
             if v in uncovered and vp in uncovered]  # each witness once per pair
    out = []
    # canonical order is descending, so the pairs, each both ways, sort in reverse
    for v, vp, witness in sorted(links + [(vp, v, u) for v, vp, u in links], reverse=True):
        for j in range(1, diagram.arity + 1):
            if lo <= vp.coord(j) < v.coord(j) <= hi:
                out.append(ChainStart(v, vp, j, witness))
    return tuple(out)


class LinkReport(NamedTuple):
    """Static consequences of one link (w0, w1) in direction j.

    Each status is "pass", "fail", or "not applicable" when its hypothesis
    does not hold.  `candidates` lists the targets of w1's j-drop source
    other than w0 and w1 (the possible next splitting vertices).
    """

    w0: Vertex
    w1: Vertex
    direction: int
    drop_source_absent_status: str
    sources_uncovered_status: str
    targets_uncovered_status: str
    candidates: tuple[Vertex, ...]
    candidates_status: str


def _uncovered_around(diagram: Diagram, w: Vertex) -> tuple[bool, bool]:
    """Whether every source of w is uncovered, and every target of those sources:
    claim (b) of a link, which depends on its w1 alone."""
    srcs = diagram.source_set(w)
    return (
        not any(is_covered_oracle(diagram, u) for u in srcs),
        not any(is_covered_oracle(diagram, t) for u in srcs for t in diagram.targets(u)),
    )


def check_link_consequences(diagram: Diagram, w0: Vertex, w1: Vertex, j: int) -> LinkReport:
    """Check what a single shared-source link forces, piece by piece.

    (a) if w1(j) <= w0(j), the j-drop source of w1 cannot be a source of w0;
    (b) if 2d <= w1(j) <= (level - 2) * d, every source of w1 is uncovered and
        so is every target of such a source;
    (c) inside the window 2d <= w1(j) <= w0(j) <= (level - 1) * d, the j-drop
        source of w1 has some target besides w0 and w1.

    Claim (c) needs its window: at a corner pair such as (5,0), (4,1) with
    d = 1 the drop source (4,0) feeds only those two vertices.  This is one
    link of `link_reports`, evaluated by the same code once the hypotheses
    are checked.
    """
    w0, w1 = diagram._checked(w0), diagram._checked(w1)
    if w0.level != w1.level or w0 == w1:
        raise HypothesisNotMet("w0 and w1 must be distinct vertices on one level")
    # a shared source is a lattice point one level down and below both, so
    # below their coordinatewise minimum, and every such point is a source:
    # one exists iff the minimum holds a level's worth, (level - 1) * d
    if sum(map(min, w0.coords, w1.coords)) < (w0.level - 1) * diagram.degree:
        raise HypothesisNotMet(f"{w0} and {w1} share no source")
    u1 = diagram.dsv(w1, j)  # validates j
    return _link(diagram, w0, w1, j, u1, diagram.source_set(w0), partial(_uncovered_around, diagram))


def link_reports(diagram: Diagram, level: int) -> Iterator[LinkReport]:
    """The report of every link on `level`, as `check_link_consequences` gives it.

    The links are the pairs of `_sharing_pairs`, in its order, each as
    (w0, w1) and then (w1, w0), with j = 1..q.  Each vertex's drops are read
    once for the level and its sources from the level's source index, not
    once per link, and claim (b)'s facts once per w1 that needs them.
    """
    level = _count(level, 0, what="level")
    vertices, sources, _, _ = _source_index(diagram, level)
    drops = {w: [diagram.dsv(w, j) for j in range(1, diagram.arity + 1)] for w in vertices}
    around = cache(partial(_uncovered_around, diagram))
    for pair in _sharing_pairs(diagram, level):
        for w0, w1 in (pair, pair[::-1]):
            for j, u1 in enumerate(drops[w1], start=1):
                yield _link(diagram, w0, w1, j, u1, sources[w0], around)


def _link(
    diagram: Diagram, w0: Vertex, w1: Vertex, j: int, u1: Vertex | None,
    w0_sources: Collection[Vertex], around: Callable[[Vertex], tuple[bool, bool]],
) -> LinkReport:
    """Claims (a)-(c) of the link (w0, w1) in direction j, which shares a
    source; u1 is w1's j-drop source, `w0_sources` holds w0's sources and
    `around` gives `_uncovered_around` of a vertex."""
    d, level = diagram.degree, w1.level
    a, b = w0.coords[j - 1], w1.coords[j - 1]

    if b <= a:
        a_status = "fail" if u1 is not None and u1 in w0_sources else "pass"
    else:
        a_status = "not applicable"

    if 2 * d <= b <= (level - 2) * d:
        sources_ok, targets_ok = around(w1)
        b_sources = "pass" if sources_ok else "fail"
        b_targets = "pass" if targets_ok else "fail"
    else:
        b_sources = b_targets = "not applicable"

    in_window = 2 * d <= b <= a <= (level - 1) * d
    if u1 is None:
        candidates: tuple[Vertex, ...] = ()
        c_status = "not applicable"
    else:
        candidates = tuple(t for t in diagram.targets(u1) if t not in (w0, w1))
        if not in_window:
            c_status = "not applicable"
        else:
            c_status = "pass" if candidates else "fail"

    return LinkReport(w0, w1, j, a_status, b_sources, b_targets, candidates, c_status)
