"""The probe's numpy kernel: prefix blocks, window ranks, diagonal runs, survivor columns.

`polyadic.probe` holds the design (its module docstring) and the public
`ProbeReport` and `probe_depth_pairs`; this module holds all of the probe's
numpy code.  `probe_depth_pairs` imports it in its body, so numpy loads
with the first probe and never with `import polyadic`: every other
subcommand runs in pure Python.  Every name here is private, the entry
point `_search` included, so the kernel's time is `probe_depth_pairs`'s own.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import Vertex
from .errors import ReportTooLarge
from .export import _list
from .vershik import Ordering

_DIAGONAL_BATCH = 4096  # diagonals tested together; bounds the kernel's working arrays
# survivors, and conflict times, one report may hold; past it a report needs gigabytes
_REPORT_CAP = 1 << 24


class _Columns(NamedTuple):
    """Surviving pairs as columns, one entry per pair in enumeration order.

    Pairs name their paths by position on the scan's axis of admitted tower
    paths (tower after tower); `tower`, `rank` and `mins` are indexed by
    position.  The masks select survivors for `write_rows`.
    """

    terminals: tuple[Vertex, ...] = ()  # admitted towers
    tower: np.ndarray = np.zeros(0, dtype=np.int64)  # per position: its tower
    rank: np.ndarray = np.zeros(0, dtype=np.int64)  # per position: its tower rank
    mins: np.ndarray = np.zeros((1, 0), dtype=np.int64)  # level x position: min coordinate
    x: np.ndarray = np.zeros(0, dtype=np.int64)  # per pair: position of x
    x_prime: np.ndarray = np.zeros(0, dtype=np.int64)  # per pair: position of x'
    divergence: np.ndarray = np.zeros(0, dtype=np.int64)
    times: np.ndarray = np.zeros(0, dtype=np.int64)  # conflict times, pair after pair
    cuts: np.ndarray = np.zeros(0, dtype=np.int64)  # per pair: end of its times

    def every_row(self) -> np.ndarray:
        return np.ones(len(self.x), dtype=bool)

    def genuine(self) -> np.ndarray:
        return np.diff(self.cuts, prepend=0) > 0

    def same_terminal(self) -> np.ndarray:
        return self.tower[self.x] == self.tower[self.x_prime]

    def write_rows(self, selected: np.ndarray) -> str:
        return _conflict_rows(self, selected)


def _conflict_rows(c: _Columns, selected: np.ndarray) -> str:
    """The `selected` survivors as the stable JSON list of their rows.

    Written as `to_stable_json` writes the list at top level, without the
    final newline: one template per row in sorted key order.  A path's
    reference and min-coordinate trace are written once per position, and a
    terminal once per tower, since survivors share them.
    """
    rows = np.flatnonzero(selected)
    if not rows.size:
        return "[]"
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
    times = c.times.tolist()
    ends = c.cuts.tolist()
    starts = [0, *ends]
    out = [
        f'{{\n    "conflict_times": {_list(times[starts[k]:ends[k]], field_nl)},'
        f'\n    "divergence_level": {div},'
        f'\n    "min_coord_trace": [\n      {traces[a]},\n      {traces[b]}\n    ],'
        f'\n    "x": {refs[a]},\n    "x_prime": {refs[b]}\n  }}'
        for k, a, b, div in zip(
            rows.tolist(), x.tolist(), x_prime.tolist(), c.divergence[rows].tolist()
        )
    ]
    return "[\n  " + ",\n  ".join(out) + "\n]"


def _prefix_blocks(
    ordering: Ordering, horizon: int, admitted: list[Vertex], budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """The admitted towers' 2 x (horizon + 1) x dim blocks side by side, and their dims.

    In a tower's block, column m describes the rank-m path and row k its level-k prefix:
    plane 0 holds the prefix's symbol id (one id per distinct level-k path,
    increasing in canonical vertex order, then tower rank), plane 1 the
    minimum coordinate of its level-k vertex.  Built level by level from the
    ordering's level tables: a block is the label-order concatenation of its
    sources' blocks plus its own row.  A tower over the budget has no block,
    and no block needs it: dimensions only grow going up, so every tower it
    feeds is over the budget too.
    """
    diagram = ordering.diagram
    blocks = [np.zeros((2, horizon + 1, 1), dtype=np.int64)]  # by rank within the level
    for level in range(1, horizon + 1):
        start, source, *_ = ordering._level(level)
        nxt: list[np.ndarray | None] = []
        offset = 0
        for r, (v, dim) in enumerate(zip(diagram.vertices(level), diagram._row(level))):
            if dim > budget:
                nxt.append(None)
                continue
            block = np.concatenate([blocks[u] for u in source[start[r] : start[r + 1]]], axis=2)
            block[0, level] = np.arange(offset, offset + dim)
            block[1, level] = v.min_coord
            nxt.append(block)
            offset += dim
        blocks = nxt
    admitted_blocks = [blocks[diagram._index(v)] for v in admitted]
    return (
        np.concatenate(admitted_blocks, axis=2),
        np.array([block.shape[2] for block in admitted_blocks]),
    )


def _dense_ranks(key: np.ndarray) -> np.ndarray:
    """Each entry's rank among the distinct values of `key`, counted from 0."""
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    step = np.zeros(len(key), dtype=np.int64)
    np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
    rank = np.empty_like(step)
    rank[order] = np.cumsum(step, out=step)
    return rank


def _window_ranks(axis: np.ndarray, rows: int) -> np.ndarray:
    """Row j, column p: the dense rank of the length-2^j window of `axis` at p.

    Prefix doubling (Karp, Miller & Rosenberg): a window of length 2^(j+1) is
    the pair of its halves' ranks.  `axis` ends in a sentinel and no sentinel
    repeats, so a window running off the end is already told apart by its
    first half.  Rows stop once every window is distinct (at the latest after
    `rows` rows); a longer window's rank is then the last row's.
    """
    n = len(axis)
    ranks = np.empty((rows, n), dtype=np.int64)
    ranks[0] = _dense_ranks(axis)
    j = 0
    while ranks[j].max() < n - 1:
        half = 1 << j
        key = ranks[j] * (n + 1)
        key[: n - half] += ranks[j, half:] + 1  # 0 past the end
        ranks[j + 1] = _dense_ranks(key)
        j += 1
    return ranks[: j + 1]


def _diagonal_runs(sym: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, int]:
    """Every diagonal whose symbols agree on its whole overlap, and the longest killed run.

    `sym` holds the symbols of the towers, tower after tower, and `sizes`
    their lengths.  A diagonal (A, B, s), towers A <= B and s > 0 when A = B,
    sets rank r of A against rank r + s of B over their overlap.  Returns
    the surviving diagonals as (a0, b0, length) columns, a0 < b0 the
    positions of the overlap's first pair, and the longest maximal run of
    equal symbols on a diagonal that is not the whole diagonal.
    """
    towers = len(sizes)
    tower = np.arange(towers)
    # the joint axis: every tower forward, each followed by a sentinel, then
    # all of that but the last sentinel read backwards, so that each reversed
    # tower is followed by a sentinel too; every slot without a symbol holds
    # a sentinel of its own, above every symbol
    top = int(sym.max()) + 1
    n = 2 * (len(sym) + towers)
    at = np.arange(len(sym)) + np.repeat(tower, sizes)  # a symbol's forward position
    axis = top + np.arange(n)
    axis[at] = sym
    axis[n - 2 - at] = sym
    ranks = _window_ranks(axis, int(sizes.max()).bit_length() + 1)
    levels = len(ranks)
    flat = ranks.ravel()
    width = 1 << np.arange(levels)  # the window lengths ranked
    start = np.cumsum(sizes) - sizes + tower  # a tower's first position on the axis
    stop = start + sizes  # and its sentinel's

    # a diagonal survives iff its overlap [a0, a0 + length) equals
    # [b0, b0 + length): two overlapping power-of-two windows agree at both ends
    a_of, b_of = np.nonzero(tower[:, None] <= tower)
    same = a_of == b_of
    count = sizes[a_of] + sizes[b_of] - 1 - sizes[a_of] * same
    s_first = np.where(same, 1, 1 - sizes[a_of])
    offset = np.cumsum(count) - count
    total = int(count.sum())
    runs = [np.zeros((3, 0), dtype=np.int64)]
    for lo in range(0, total, _DIAGONAL_BATCH):
        d = np.arange(lo, min(lo + _DIAGONAL_BATCH, total))
        k = np.searchsorted(offset, d, side="right") - 1
        s = s_first[k] + d - offset[k]
        a, b = a_of[k], b_of[k]
        a0, b0 = start[a] - np.minimum(s, 0), start[b] + np.maximum(s, 0)
        length = np.minimum(stop[a] - a0, stop[b] - b0)
        j = np.searchsorted(width, length, side="right") - 1  # the widest that fits
        head = j * n + a0
        tail = head + length - width[j]
        shift = b0 - a0
        whole = (flat[head] == flat[head + shift]) & (flat[tail] == flat[tail + shift])
        runs.append(np.stack((a0 - a, b0 - b, length))[:, whole])

    # a killed run ends at a real mismatch forward (or backward, on the
    # reversed half); the longest such extension is between two neighbours
    # in the suffix order of one half, so each half is ordered on its own
    order = np.empty(n, dtype=np.int64)
    order[ranks[-1]] = np.arange(n)
    forward = order < n // 2
    order = np.concatenate((order[forward], order[~forward]))
    p, q = order[:-1], order[1:]
    lce = np.zeros(n - 1, dtype=np.int64)
    for j in range(levels - 1, -1, -1):
        lce += (ranks[j, p + lce] == ranks[j, q + lce]) * width[j]
    real = (axis[p + lce] < top) & (axis[q + lce] < top)
    real[n // 2 - 1] = False  # the last forward suffix against the first reversed one
    return np.concatenate(runs, axis=1), int(lce[real].max(initial=0))


def _search(
    ordering: Ordering, i: int, horizon: int, admitted: list[Vertex], budget: int
) -> tuple[int, int, _Columns]:
    """Candidates, the longest killed run and the survivors' columns of one probe."""
    if i >= horizon or not admitted:
        return 0, 0, _Columns()

    # one global position axis: every admitted tower's paths, tower after tower
    (ids, mins), sizes = _prefix_blocks(ordering, horizon, admitted, budget)
    tower = np.repeat(np.arange(len(sizes)), sizes)
    first = (np.cumsum(sizes) - sizes)[tower]
    sym, sym1 = ids[i], ids[i + 1]
    # pairs live inside i-symbol groups, so a group of g paths holds C(g, 2)
    group = np.bincount(sym)
    candidates = int((group * (group - 1) // 2).sum())
    # a pair survives iff its whole diagonal has equal i-symbols
    (a0, b0, length), max_killed_window = _diagonal_runs(sym, sizes)
    survivors = int(length.sum())
    if survivors > _REPORT_CAP:
        raise ReportTooLarge(f"{survivors} surviving pairs; the cap is {_REPORT_CAP}")
    # a run's (i+1)-symbol mismatches, read once, are each of its pairs'
    # conflict times shifted by the pair's offset; they are counted, a
    # bounded batch of pairs at a time, before any column is laid out
    firsts = np.cumsum(length) - length
    run_hits = np.zeros(len(length), dtype=np.int64)
    for lo in range(0, survivors, _DIAGONAL_BATCH):
        pair = np.arange(lo, min(lo + _DIAGONAL_BATCH, survivors))
        run = np.searchsorted(firsts, pair, side="right") - 1
        t = pair - firsts[run]
        low, high = run[0], run[-1] + 1
        hits = run[sym1[a0[run] + t] != sym1[b0[run] + t]] - low
        run_hits[low:high] += np.bincount(hits, minlength=high - low)
    times = int(run_hits @ length)
    if times > _REPORT_CAP:
        raise ReportTooLarge(
            f"{survivors} surviving pairs with {times} conflict times; the cap is {_REPORT_CAP}"
        )

    # every pair of a surviving run survives; expand runs to pairs, offset t
    run = np.repeat(np.arange(len(length)), length)
    t = np.arange(survivors) - firsts[run]
    a, b = a0[run] + t, b0[run] + t
    hit_t = t[sym1[a] != sym1[b]]
    # survivors go back to enumeration order: i-symbol, then x, then x'
    keep = np.lexsort((b, a, sym[a]))
    a, b, run, t = a[keep], b[keep], run[keep], t[keep]
    n = run_hits[run]
    ends = np.cumsum(n)
    flat = np.repeat(np.cumsum(run_hits)[run] - ends, n) + np.arange(times)
    # paths share their level-k prefix for each k below their divergence level
    divergence = np.zeros(len(a), dtype=np.int64)
    for row in ids:
        divergence += row[a] == row[b]
    return candidates, max_killed_window, _Columns(
        terminals=tuple(admitted),
        tower=tower,
        rank=np.arange(len(tower)) - first,
        mins=mins.copy(),  # not a view, which would keep the symbol ids alive
        x=a,
        x_prime=b,
        # survivors read every field off the per-level arrays; no path is built
        divergence=divergence,
        times=hit_t[flat] - np.repeat(t, n),
        cuts=ends,
    )
