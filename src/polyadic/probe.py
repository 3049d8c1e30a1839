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
first k edges and the min-coordinate of its level-k vertex.  A pair's window
is the run of equal i-symbols around it on its diagonal (rank p of one tower
against rank p + s of another), so only a run's first pair steps, forward,
one array comparison per step; a run spanning its whole diagonal survives,
with its (i+1)-symbol mismatches shifted to each pair as conflict times.
The test suite replays pairs with the raw successor machine to pin the
equivalence.

Survivors are kept as columns, as the run expansion leaves them: the
positions of x and x', divergence level, window, and conflict times as one
flat array with cuts, beside per-position tower, rank and min-coordinate
rows.  A survivor's censor flags are read off its window, which is censored
in a direction when it reaches a tower end there.  `_conflict_rows` writes
selected survivors as the JSON rows of the CLI document, and the report's
survivor views are those rows read back, so a survivor has one writer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .core import Vertex
from .export import Encoded, _list, to_stable_json
from .vershik import DEFAULT_TOWER_BUDGET, Ordering


class _Columns(NamedTuple):
    """Surviving pairs as columns, one entry per pair in enumeration order.

    Pairs name their paths by position on the scan's axis of admitted tower
    paths (tower after tower); `tower`, `rank` and `mins` are indexed by
    position, `sizes` by tower.
    """

    terminals: tuple[Vertex, ...] = ()  # admitted towers
    sizes: np.ndarray = np.zeros(0, dtype=np.int64)  # per tower: its dimension
    tower: np.ndarray = np.zeros(0, dtype=np.int64)  # per position: its tower
    rank: np.ndarray = np.zeros(0, dtype=np.int64)  # per position: its tower rank
    mins: np.ndarray = np.zeros((1, 0), dtype=np.int64)  # level x position: min coordinate
    x: np.ndarray = np.zeros(0, dtype=np.int64)  # per pair: position of x
    x_prime: np.ndarray = np.zeros(0, dtype=np.int64)  # per pair: position of x'
    divergence: np.ndarray = np.zeros(0, dtype=np.int64)
    backward: np.ndarray = np.zeros(0, dtype=np.int64)
    forward: np.ndarray = np.zeros(0, dtype=np.int64)
    times: np.ndarray = np.zeros(0, dtype=np.int64)  # conflict times, pair after pair
    cuts: np.ndarray = np.zeros(0, dtype=np.int64)  # per pair: end of its times


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Outcome counts plus every surviving pair, for one (i, L, floor) run.

    Survivors stay in the scan's columns.  `to_document` writes the conflict
    lists straight from them, and `survivors` and the other views return
    lists of the same row dicts, written and read back on each access.
    """

    i: int
    horizon: int
    floor: int
    budget: int
    candidates: int
    coding_killed: int
    censored: int
    skipped_towers: int
    max_killed_window: int
    _columns: _Columns = _Columns()

    def _censored(self) -> tuple[np.ndarray, np.ndarray]:
        """Per survivor, whether its window reaches a tower end forward, and backward."""
        c = self._columns
        room = c.sizes[c.tower] - 1 - c.rank
        forward = np.minimum(room[c.x], room[c.x_prime]) == c.forward
        backward = np.minimum(c.rank[c.x], c.rank[c.x_prime]) == c.backward
        return forward, backward

    def _genuine(self) -> np.ndarray:
        return np.diff(self._columns.cuts, prepend=0) > 0

    def _uncensored_genuine(self) -> np.ndarray:
        forward, backward = self._censored()
        return self._genuine() & ~forward & ~backward

    def _same_terminal(self) -> np.ndarray:
        c = self._columns
        return c.tower[c.x] == c.tower[c.x_prime]

    def _rows(self, selected: np.ndarray) -> list[dict]:
        return json.loads(_conflict_rows(self, selected))

    @property
    def survivors(self) -> list[dict]:
        """Every surviving pair's row, in enumeration order."""
        return self._rows(np.ones(len(self._columns.x), dtype=bool))

    @property
    def genuine_conflicts(self) -> list[dict]:
        return self._rows(self._genuine())

    @property
    def uncensored_genuine_conflicts(self) -> list[dict]:
        return self._rows(self._uncensored_genuine())

    @property
    def same_terminal_survivors(self) -> list[dict]:
        return self._rows(self._same_terminal())

    def to_document(self) -> dict:
        """The report as the CLI writes it, its conflict lists pre-written from the columns."""
        genuine = self._genuine()
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
            "genuine_conflicts": Encoded(_conflict_rows(self, genuine)),
            "uncensored_genuine_conflicts": Encoded(
                _conflict_rows(self, self._uncensored_genuine())
            ),
            "survivors_without_conflict": len(genuine) - int(genuine.sum()),
            "same_terminal_survivors": int(self._same_terminal().sum()),
        }

    def to_json(self) -> dict:
        """The report as a plain JSON tree: the CLI document's report, read back."""
        return json.loads(to_stable_json(self.to_document()))


def _conflict_rows(report: ProbeReport, selected: np.ndarray) -> str:
    """The `selected` survivors as the stable JSON list of their rows.

    Written as `to_stable_json` writes the list at top level, without the
    final newline: one template per row in sorted key order.  A path's
    reference and min-coordinate trace are written once per position, and a
    terminal once per tower, since survivors share them.
    """
    rows = np.flatnonzero(selected)
    if not rows.size:
        return "[]"
    c = report._columns
    x, x_prime = c.x[rows], c.x_prime[rows]
    used = np.zeros(len(c.tower), dtype=bool)
    used[x] = used[x_prime] = True
    used = np.flatnonzero(used)
    field_nl, item_nl = "\n    ", "\n      "  # a row's fields, a field's items
    terminals: dict[int, str] = {}
    refs, traces = {}, {}
    for p, k, r, trace in zip(
        used.tolist(), c.tower[used].tolist(), c.rank[used].tolist(), c.mins[:, used].T.tolist()
    ):
        if k not in terminals:
            terminals[k] = _list(c.terminals[k].coords, item_nl)
        refs[p] = f'{{\n      "rank": {r},\n      "terminal": {terminals[k]}\n    }}'
        traces[p] = _list(trace, item_nl)
    censored = [
        f'{{{item_nl}"backward": {backward},{item_nl}"forward": {forward}{field_nl}}}'
        for backward in ("false", "true")
        for forward in ("false", "true")
    ]
    forward, backward = report._censored()
    times = c.times.tolist()
    ends = c.cuts.tolist()
    starts = [0, *ends]
    out = [
        f'{{\n    "censored": {censored[cen]},'
        f'\n    "conflict_times": {_list(times[starts[k]:ends[k]], field_nl)},'
        f'\n    "divergence_level": {div},'
        f'\n    "min_coord_trace": [\n      {traces[a]},\n      {traces[b]}\n    ],'
        f'\n    "window": [\n      {-bk},\n      {f}\n    ],'
        f'\n    "x": {refs[a]},\n    "x_prime": {refs[b]}\n  }}'
        for k, a, b, div, f, bk, cen in zip(
            rows.tolist(), x.tolist(), x_prime.tolist(), c.divergence[rows].tolist(),
            c.forward[rows].tolist(), c.backward[rows].tolist(),
            (2 * backward[rows] + forward[rows]).tolist(),
        )
    ]
    return "[\n  " + ",\n  ".join(out) + "\n]"


_PAIR_CHUNK = 4096  # pairs enumerated together; bounds the kernel's working arrays


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


def _lived(sym: np.ndarray, a: np.ndarray, b: np.ndarray, room: np.ndarray) -> np.ndarray:
    """Per pair, the steps t = 1..room survived before sym[a + t] != sym[b + t].

    A pair that never mismatches lives its whole room.  All undecided pairs
    advance together, one comparison per t, and a pair drops out once it
    mismatches or runs out of room, so the work is the total steps lived.
    """
    lived = room.copy()
    live = np.flatnonzero(room > 0)
    t = 1
    while live.size:
        miss = sym[a[live] + t] != sym[b[live] + t]
        lived[live[miss]] = t - 1
        live = live[~miss & (room[live] > t)]
        t += 1
    return lived


def probe_depth_pairs(
    ordering: Ordering,
    i: int,
    horizon: int,
    min_coord_floor: int = 0,
    budget: int = DEFAULT_TOWER_BUDGET,
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
        return ProbeReport(i, horizon, min_coord_floor, budget, 0, 0, 0, skipped, 0)

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

    # only the first pair of each run of equal i-symbols on a diagonal steps
    max_killed_window = 0
    runs = [np.zeros((3, 0), dtype=np.int64)]
    for lo in range(0, candidates, _PAIR_CHUNK):
        idx = np.arange(lo, min(lo + _PAIR_CHUNK, candidates))
        p = np.searchsorted(row_start, idx, side="right") - 1
        a, b = order[p], order[p + 1 + idx - row_start[p]]
        back = np.minimum(a - first[a], b - first[b])
        start = (back == 0) | (sym[a - 1] != sym[b - 1])
        a, b, back = a[start], b[start], back[start]
        fwd = np.minimum(last[a] - a, last[b] - b)
        lived = _lived(sym, a, b, fwd)
        whole = (back == 0) & (lived == fwd)
        max_killed_window = max(max_killed_window, int((lived[~whole] + 1).max(initial=0)))
        runs.append(np.stack((a[whole], b[whole], lived[whole] + 1)))

    # every pair of a surviving run survives; expand runs to pairs, offset t
    a0, b0, length = np.concatenate(runs, axis=1)
    run = np.repeat(np.arange(len(length)), length)
    t = np.arange(len(run)) - (np.cumsum(length) - length)[run]
    a, b = a0[run] + t, b0[run] + t
    # a run's (i+1)-symbol mismatches, read once, are each of its pairs'
    # conflict times shifted by the pair's offset
    hit = np.flatnonzero(sym1[a] != sym1[b])
    hit_t = t[hit]
    run_hits = np.bincount(run[hit], minlength=len(length))
    # survivors go back to enumeration order: i-symbol, then x, then x'
    keep = np.lexsort((b, a, sym[a]))
    a, b, run, t = a[keep], b[keep], run[keep], t[keep]
    n = run_hits[run]
    ends = np.cumsum(n)
    flat = np.repeat(np.cumsum(run_hits)[run] - ends, n) + np.arange(n.sum())
    survivors = _Columns(
        terminals=tuple(admitted),
        sizes=sizes,
        tower=tower,
        rank=np.arange(len(tower)) - first,
        mins=mins.copy(),  # not a view, which would keep the symbol ids alive
        x=a,
        x_prime=b,
        # survivors read every field off the per-level arrays; no path is built
        divergence=np.argmax(ids[:, a] != ids[:, b], axis=0),
        backward=t,
        forward=length[run] - 1 - t,
        times=hit_t[flat] - np.repeat(t, n),
        cuts=ends,
    )

    return ProbeReport(
        i=i,
        horizon=horizon,
        floor=min_coord_floor,
        budget=budget,
        candidates=candidates,
        coding_killed=candidates - len(a),
        censored=len(a),
        skipped_towers=skipped,
        max_killed_window=max_killed_window,
        _columns=survivors,
    )


def survival_profile(
    ordering: Ordering,
    i: int,
    horizons: Iterable[int],
    min_coord_floor: int = 0,
    budget: int = DEFAULT_TOWER_BUDGET,
) -> list[dict]:
    """Probe a range of horizons and tabulate how fast pairs get killed."""
    rows = []
    for horizon in horizons:
        report = probe_depth_pairs(ordering, i, horizon, min_coord_floor, budget)
        c = report._columns
        rows.append(
            {
                "L": horizon,
                "candidates": report.candidates,
                "coding_killed": report.coding_killed,
                "censored": report.censored,
                "genuine_conflicts": int(report._genuine().sum()),
                "uncensored_genuine_conflicts": int(report._uncensored_genuine().sum()),
                "same_terminal_survivors": int(report._same_terminal().sum()),
                "max_killed_window": report.max_killed_window,
                "max_censored_window": int((c.forward + c.backward + 1).max(initial=0)),
            }
        )
    return rows
