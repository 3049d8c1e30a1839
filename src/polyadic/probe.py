"""Exhaustive finite-horizon search for depth-i coding conflicts.

A depth-i pair is two points on distinct orbits whose i-codings (the sequence
of first-i-edge symbols along the orbit) agree everywhere while their
(i+1)-codings differ.  At a finite horizon L we can only approximate this:
every pair of level-L paths sharing their first i edges is simulated forward
with the successor and backward with the predecessor, simultaneously on both
paths, within their terminal vertices' towers.

The first simulated time whose i-symbols differ kills the pair: no infinite
extensions of these two paths can form a depth-i pair, which is the evidence
the search accumulates.  A pair that reaches a tower boundary in both
directions without a mismatch is censored: the horizon ran out before the
pair was resolved.  Censored survivors whose (i+1)-symbols differ somewhere
in the observed window are reported as genuine conflicts - they look exactly
like depth-i pairs as far as this horizon can see.  An uncensored genuine
conflict would need an infinite window, so any entry in that bucket is a
soundness bug; reports keep the bucket so the claim is checkable.

The simulation never builds paths.  One bottom-up pass gives each admitted
tower per-level arrays: row k, column m holds an id of the rank-m path's
first k edges and the min-coordinate of its level-k vertex.  Pairs, grouped
by i-symbol id, step together in fixed-size chunks, one array comparison per
time step, until each mismatches or reaches its tower boundary.  The test
suite replays pairs with the raw successor machine to pin the equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import Vertex
from .vershik import Ordering


@dataclass(frozen=True)
class PathRef:
    """A level-L path named by its terminal vertex and tower rank."""

    terminal: Vertex
    rank: int

    def to_json(self) -> dict:
        return {"terminal": list(self.terminal.coords), "rank": self.rank}


@dataclass(frozen=True)
class ProbeCandidate:
    """One surviving pair with everything observed about it."""

    x: PathRef
    x_prime: PathRef
    divergence_level: int
    forward_steps: int
    backward_steps: int
    censored_forward: bool
    censored_backward: bool
    conflict_times: tuple[int, ...]
    min_coord_trace: tuple[tuple[int, ...], tuple[int, ...]]

    @property
    def same_terminal(self) -> bool:
        return self.x.terminal == self.x_prime.terminal

    @property
    def censored(self) -> bool:
        return self.censored_forward or self.censored_backward

    def to_json(self) -> dict:
        return {
            "x": self.x.to_json(),
            "x_prime": self.x_prime.to_json(),
            "divergence_level": self.divergence_level,
            "window": [-self.backward_steps, self.forward_steps],
            "censored": {
                "forward": self.censored_forward,
                "backward": self.censored_backward,
            },
            "conflict_times": list(self.conflict_times),
            "min_coord_trace": [list(t) for t in self.min_coord_trace],
        }


@dataclass(frozen=True)
class ProbeReport:
    """Outcome counts plus every surviving pair, for one (i, L, floor) run."""

    i: int
    horizon: int
    floor: int
    budget: int
    candidates: int
    coding_killed: int
    censored: int
    skipped_towers: int
    survivors: tuple[ProbeCandidate, ...]
    max_killed_window: int

    @property
    def genuine_conflicts(self) -> tuple[ProbeCandidate, ...]:
        return tuple(c for c in self.survivors if c.conflict_times)

    @property
    def uncensored_genuine_conflicts(self) -> tuple[ProbeCandidate, ...]:
        return tuple(c for c in self.genuine_conflicts if not c.censored)

    @property
    def same_terminal_survivors(self) -> tuple[ProbeCandidate, ...]:
        return tuple(c for c in self.survivors if c.same_terminal)

    def to_json(self) -> dict:
        genuine = self.genuine_conflicts
        return {
            "i": self.i,
            "L": self.horizon,
            "floor": self.floor,
            "budget": self.budget,
            "candidates": self.candidates,
            "coding_killed": self.coding_killed,
            "censored": self.censored,
            "skipped_towers": self.skipped_towers,
            "max_killed_window": self.max_killed_window,
            "genuine_conflicts": [c.to_json() for c in genuine],
            "uncensored_genuine_conflicts": [c.to_json() for c in genuine if not c.censored],
            "survivors_without_conflict": len(self.survivors) - len(genuine),
            "same_terminal_survivors": len(self.same_terminal_survivors),
        }


_PAIR_CHUNK = 4096  # pairs stepped together; bounds the kernel's working arrays
_WINDOW_CHUNK = 1 << 16  # window positions compared together for conflict times


def _prefix_blocks(
    ordering: Ordering, horizon: int, admitted: list[Vertex], budget: int
) -> list[np.ndarray]:
    """Per admitted tower, a 2 x (horizon + 1) x dim array of per-level data.

    Column m describes the rank-m tower path and row k its level-k prefix:
    plane 0 holds the prefix's symbol id (one id per distinct level-k path,
    increasing in canonical vertex order, then tower rank), plane 1 the
    minimum coordinate of its level-k vertex.  Built level by level: a block
    is the label-order concatenation of its sources' blocks plus its own row.
    """
    diagram = ordering.diagram
    blocks = {diagram.vertices(0)[0]: np.zeros((2, horizon + 1, 1), dtype=np.int64)}
    for level in range(1, horizon + 1):
        nxt: dict[Vertex, np.ndarray] = {}
        offset = 0
        for v in diagram.vertices(level):
            dim = diagram.dimension(v)
            if dim > budget:
                continue
            block = np.concatenate([blocks[e.source] for e in ordering.edges_in(v)], axis=2)
            block[0, level] = np.arange(offset, offset + dim)
            block[1, level] = v.min_coord
            nxt[v] = block
            offset += dim
        blocks = nxt
    return [blocks[v] for v in admitted]


def _lived(
    sym: np.ndarray, a: np.ndarray, b: np.ndarray, room: np.ndarray, step: int
) -> np.ndarray:
    """Per pair, the steps t = 1..room survived before sym[a + step*t] != sym[b + step*t].

    A pair that never mismatches lives its whole room.  All undecided pairs
    advance together, one comparison per t, and a pair drops out once it
    mismatches or runs out of room, so the work is the total steps lived.
    """
    lived = room.copy()
    live = np.flatnonzero(room > 0)
    t = 1
    while live.size:
        miss = sym[a[live] + step * t] != sym[b[live] + step * t]
        lived[live[miss]] = t - 1
        live = live[~miss & (room[live] > t)]
        t += 1
    return lived


def _conflict_times(
    sym: np.ndarray, a: np.ndarray, b: np.ndarray, fwd: np.ndarray, back: np.ndarray
) -> list[tuple[int, ...]]:
    """Per pair, the times t in -back..fwd at which sym[a + t] != sym[b + t].

    The windows are laid end to end on one flat axis and compared at once,
    in batches of about `_WINDOW_CHUNK` positions (a longer window is a batch
    of its own); each pair's hits are then a slice of the batch's hit list.
    """
    n = fwd + back + 1
    ends = np.cumsum(n)
    out: list[tuple[int, ...]] = []
    lo = 0
    while lo < len(n):
        base = int(ends[lo] - n[lo])
        hi = max(lo + 1, int(np.searchsorted(ends, base + _WINDOW_CHUNK, side="right")))
        seg = n[lo:hi]
        t = np.arange(base, int(ends[hi - 1])) - np.repeat(ends[lo:hi] - seg + back[lo:hi], seg)
        hit = np.flatnonzero(sym[np.repeat(a[lo:hi], seg) + t] != sym[np.repeat(b[lo:hi], seg) + t])
        times = t[hit].tolist()
        cuts = np.searchsorted(hit, ends[lo:hi] - base).tolist()
        out += (tuple(times[s:e]) for s, e in zip([0, *cuts], cuts))
        lo = hi
    return out


def probe_depth_pairs(
    ordering: Ordering,
    i: int,
    horizon: int,
    min_coord_floor: int = 0,
    budget: int = 10**6,
) -> ProbeReport:
    """Simulate every admissible pair of level-`horizon` paths sharing i edges.

    Pairs are enumerated over terminal vertices whose minimum coordinate is
    at least `min_coord_floor` (a finite stand-in for restricting to dense
    orbits) and whose towers fit the `budget`; oversized towers are counted
    as skipped, not errors.  See the module docstring for kill and censor
    semantics.
    """
    if i < 0 or horizon < 1:
        raise ValueError("need i >= 0 and horizon >= 1")
    diagram = ordering.diagram
    all_terminals = diagram.vertices(horizon)
    skipped = sum(1 for v in all_terminals if diagram.dimension(v) > budget)
    admitted = [
        v
        for v in all_terminals
        if v.min_coord >= min_coord_floor and diagram.dimension(v) <= budget
    ]
    if i >= horizon or not admitted:
        return ProbeReport(i, horizon, min_coord_floor, budget, 0, 0, 0, skipped, (), 0)

    # one global position axis: every admitted tower's paths, tower after tower
    blocks = _prefix_blocks(ordering, horizon, admitted, budget)
    ids, mins = np.concatenate(blocks, axis=2)
    sizes = np.array([block.shape[2] for block in blocks])
    tower = np.repeat(np.arange(len(blocks)), sizes)
    first = (np.cumsum(sizes) - sizes)[tower]
    last = first + sizes[tower] - 1
    sym, sym1 = ids[i], ids[i + 1]

    # pairs live inside i-symbol groups; sorted position p pairs with every
    # later member of its group, so pair indices run group by group, row-major
    order = np.argsort(sym, kind="stable")
    group_end = np.searchsorted(sym[order], sym[order], side="right")
    row_len = group_end - np.arange(len(order)) - 1
    row_start = np.cumsum(row_len) - row_len
    candidates = int(row_len.sum())

    killed = 0
    max_killed_window = 0
    survivors: list[ProbeCandidate] = []
    for lo in range(0, candidates, _PAIR_CHUNK):
        idx = np.arange(lo, min(lo + _PAIR_CHUNK, candidates))
        p = np.searchsorted(row_start, idx, side="right") - 1
        a, b = order[p], order[p + 1 + idx - row_start[p]]
        fwd = np.minimum(last[a] - a, last[b] - b)
        back = np.minimum(a - first[a], b - first[b])
        lived_fwd = _lived(sym, a, b, fwd, 1)
        lived_back = _lived(sym, a, b, back, -1)
        dead = (lived_fwd < fwd) | (lived_back < back)
        killed += int(dead.sum())
        window = lived_fwd[dead] + lived_back[dead] + 1
        max_killed_window = max(max_killed_window, int(window.max(initial=0)))

        # survivors read every field off the per-level arrays; no path is built
        a, b, fwd, back = a[~dead], b[~dead], fwd[~dead], back[~dead]
        divergence = np.argmax(ids[:, a] != ids[:, b], axis=0)
        refs = [
            [PathRef(admitted[t], r) for t, r in zip(tower[x].tolist(), (x - first[x]).tolist())]
            for x in (a, b)
        ]
        fields = zip(
            fwd.tolist(), back.tolist(), divergence.tolist(), *refs,
            _conflict_times(sym1, a, b, fwd, back), mins[:, a].T.tolist(), mins[:, b].T.tolist(),
        )
        for f, bk, div, ref_a, ref_b, conflicts, trace_a, trace_b in fields:
            survivors.append(
                ProbeCandidate(
                    x=ref_a,
                    x_prime=ref_b,
                    divergence_level=div,
                    forward_steps=f,
                    backward_steps=bk,
                    censored_forward=True,
                    censored_backward=True,
                    conflict_times=conflicts,
                    min_coord_trace=(tuple(trace_a), tuple(trace_b)),
                )
            )

    return ProbeReport(
        i=i,
        horizon=horizon,
        floor=min_coord_floor,
        budget=budget,
        candidates=candidates,
        coding_killed=killed,
        censored=len(survivors),
        skipped_towers=skipped,
        survivors=tuple(survivors),
        max_killed_window=max_killed_window,
    )


def survival_profile(
    ordering: Ordering,
    i: int,
    horizons: Iterable[int],
    min_coord_floor: int = 0,
    budget: int = 10**6,
) -> list[dict]:
    """Probe a range of horizons and tabulate how fast pairs get killed."""
    rows = []
    for horizon in horizons:
        report = probe_depth_pairs(ordering, i, horizon, min_coord_floor, budget)
        max_censored = max(
            (c.forward_steps + c.backward_steps + 1 for c in report.survivors),
            default=0,
        )
        rows.append(
            {
                "L": horizon,
                "candidates": report.candidates,
                "coding_killed": report.coding_killed,
                "censored": report.censored,
                "genuine_conflicts": len(report.genuine_conflicts),
                "uncensored_genuine_conflicts": len(report.uncensored_genuine_conflicts),
                "same_terminal_survivors": len(report.same_terminal_survivors),
                "max_killed_window": report.max_killed_window,
                "max_censored_window": max_censored,
            }
        )
    return rows
