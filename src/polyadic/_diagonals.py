"""The probe's numpy kernel: place maps, window ranks, diagonal runs, survivor columns.

`polyadic.probe` holds the design (its module docstring) and the public
`ProbeReport` and `probe_depth_pairs`; this module holds all of the probe's
numpy code.  `probe_depth_pairs` imports it in its body, so numpy loads
with the first probe and never with `import polyadic`: every other
subcommand runs in pure Python.  Every name here is private, the entry
point `_search` included, so the kernel's time is `probe_depth_pairs`'s own.
`_conflict_rows`, the survivors' one writer, runs when its caller asks for
the rows: for the CLI document that is `export.to_stable_json`, which
calls it once at the depth where the rows land.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import Vertex
from .errors import ReportTooLarge
from .export import _int_repr, _list
from .vershik import Ordering

_DIAGONAL_BATCH = 4096  # diagonals tested together; bounds the kernel's working arrays
# survivors, and conflict times, one report may hold; past it a report needs gigabytes
_REPORT_CAP = 1 << 24


class _Columns(NamedTuple):
    """Surviving pairs as columns, one entry per pair in enumeration order.

    Pairs name their paths by column, the survivors' paths in axis order (tower
    after tower); `tower`, `rank` and `mins` are indexed by column.  The masks
    select survivors for `write_rows`.
    """

    terminals: tuple[Vertex, ...] = ()  # admitted towers
    tower: np.ndarray = np.zeros(0, dtype=np.int64)  # per column: its tower
    rank: np.ndarray = np.zeros(0, dtype=np.int64)  # per column: its tower rank
    mins: np.ndarray = np.zeros((1, 0), dtype=np.int64)  # level x column: min coordinate
    x: np.ndarray = np.zeros(0, dtype=np.int64)  # per pair: column of x
    x_prime: np.ndarray = np.zeros(0, dtype=np.int64)  # per pair: column of x'
    divergence: np.ndarray = np.zeros(0, dtype=np.int64)
    times: np.ndarray = np.zeros(0, dtype=np.int64)  # conflict times, pair after pair
    cuts: np.ndarray = np.zeros(0, dtype=np.int64)  # per pair: end of its times

    def every_row(self) -> np.ndarray:
        return np.ones(len(self.x), dtype=bool)

    def genuine(self) -> np.ndarray:
        return np.diff(self.cuts, prepend=0) > 0

    def same_terminal(self) -> np.ndarray:
        return self.tower[self.x] == self.tower[self.x_prime]

    def write_rows(self, selected: np.ndarray, nl: str) -> str:
        return _conflict_rows(self, selected, nl)


def _conflict_rows(c: _Columns, selected: np.ndarray, nl: str) -> str:
    """The `selected` survivors as the stable JSON list of their rows.

    Written as `to_stable_json` writes the list where its closing bracket
    follows `nl` (newline plus indent), so the text lands in a document as
    it is, and joined once from one list of pieces, 13 to a row: extended
    slices fill in the constant ones, and C-level maps look up the rest.
    Every conflict time is written in one join, each distinct value's text
    made once, and a row's times are a slice of that text.  A path's
    reference and min-coordinate trace are written once per column, and a
    terminal once per admitted tower.
    """
    rows = np.flatnonzero(selected)
    if not rows.size:
        return "[]"
    x, x_prime = c.x[rows], c.x_prime[rows]
    used = np.zeros(len(c.tower), dtype=bool)
    used[x] = used[x_prime] = True
    used = np.flatnonzero(used)
    # a row's braces, its fields, a field's items, an item's items
    row_nl, field_nl, item_nl = nl + "  ", nl + "    ", nl + "      "
    terminals = [_list(v.coords, item_nl) for v in c.terminals]
    refs, traces = {}, {}
    for p, k, r, trace in zip(
        used.tolist(), c.tower[used].tolist(), c.rank[used].tolist(), c.mins[:, used].T.tolist()
    ):
        refs[p] = f'{{{item_nl}"rank": {r},{item_nl}"terminal": {terminals[k]}{field_nl}}}'
        traces[p] = _list(trace, item_nl)

    # a time lies within its diagonal, so the values between the least and
    # the greatest time are fewer than twice the longest tower
    sep = "," + item_nl
    low = int(c.times.min(initial=0))
    values = list(map(_int_repr, range(low, int(c.times.max(initial=0)) + 1)))
    value = (c.times - low).tolist()
    text = sep.join(map(values.__getitem__, value))
    at = np.zeros(len(value) + 1, dtype=np.int64)  # each time's offset in the text
    widths = np.fromiter(map(len, values), np.int64, len(values)) + len(sep)
    np.cumsum(widths[value], out=at[1:])
    count = np.diff(c.cuts, prepend=0)[rows]
    lo = at[c.cuts[rows] - count]
    # a row without times at offset 0 would end below 0 and slice from the back
    hi = np.maximum(lo, at[c.cuts[rows]] - len(sep))
    has_times = (count > 0).tolist()

    out = [""] * (13 * len(rows) + 1)
    out[0] = "[" + row_nl
    opening = f'{{{field_nl}"conflict_times": ['
    out[1::13] = map((opening, opening + item_nl).__getitem__, has_times)
    out[2::13] = map(text.__getitem__, map(slice, lo.tolist(), hi.tolist()))
    closing = f'],{field_nl}"divergence_level": '
    out[3::13] = map((closing, field_nl + closing).__getitem__, has_times)
    out[4::13] = map(_int_repr, c.divergence[rows].tolist())
    out[5::13] = [f',{field_nl}"min_coord_trace": [{item_nl}'] * len(rows)
    x, x_prime = x.tolist(), x_prime.tolist()
    out[6::13] = map(traces.__getitem__, x)
    out[7::13] = [sep] * len(rows)
    out[8::13] = map(traces.__getitem__, x_prime)
    out[9::13] = [f'{field_nl}],{field_nl}"x": '] * len(rows)
    out[10::13] = map(refs.__getitem__, x)
    out[11::13] = [f',{field_nl}"x_prime": '] * len(rows)
    out[12::13] = map(refs.__getitem__, x_prime)
    out[13::13] = [f"{row_nl}}},{row_nl}"] * len(rows)
    out[-1] = f"{row_nl}}}{nl}]"
    return "".join(out)


def _place_maps(
    ordering: Ordering, horizon: int, budget: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per level n up to the horizon, each place's parent and each vertex's first place.

    A path's place is its index on its level, where towers lie in canonical
    vertex order, each in rank order; a tower over the budget, and so every
    tower it feeds, gets none.  `parent[n]` maps a place to its level-(n - 1)
    prefix's: a tower is its sources' towers in label order.  `first[n]`
    holds each vertex's first place by rank, then the level's count.
    """
    diagram = ordering.diagram
    parent, first = [np.zeros(1, dtype=np.int64)], [np.array([0, 1])]
    for level in range(1, horizon + 1):
        start, source, *_ = ordering._level(level)
        size = np.array([dim if dim <= budget else 0 for dim in diagram._row(level)])
        source = np.array(source, dtype=np.int64)
        # per edge, its source's run of places; none into a tower without places
        length = np.diff(first[-1])[source] * np.repeat(size > 0, np.diff(start))
        runs = np.repeat(first[-1][source] + length - np.cumsum(length), length)
        parent.append(runs + np.arange(len(runs)))
        first.append(np.concatenate(([0], np.cumsum(size))))
    return parent, first


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
    ranks[0] = np.unique(axis, return_inverse=True)[1]
    j = 0
    while ranks[j].max() < n - 1:
        half = 1 << j
        key = ranks[j] * (n + 1)
        key[: n - half] += ranks[j, half:] + 1  # 0 past the end
        ranks[j + 1] = np.unique(key, return_inverse=True)[1]
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
    ordering: Ordering, i: int, horizon: int, terminal_ranks: list[int], budget: int
) -> tuple[int, int, _Columns]:
    """Candidates, the longest killed run and the survivors' columns of one probe."""
    if not terminal_ranks:
        return 0, 0, _Columns()

    parent, first = _place_maps(ordering, horizon, budget)
    # one global position axis: every admitted tower's paths, tower after tower
    index = np.array(terminal_ranks)
    sizes = np.diff(first[horizon])[index]
    tower = np.repeat(np.arange(len(sizes)), sizes)
    rank = np.arange(len(tower)) - (np.cumsum(sizes) - sizes)[tower]
    place = first[horizon][index][tower] + rank  # each path's place on the horizon
    sym1 = place  # a path's k-symbol is its level-k prefix's place
    for level in range(horizon, i + 1, -1):
        sym1 = parent[level][sym1]
    sym = parent[i + 1][sym1]
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
    # the survivors' paths become the columns; one descent reads their traces and divergences
    used = np.zeros(len(tower), dtype=bool)
    used[a] = used[b] = True
    column = np.cumsum(used) - 1
    a, b, place = column[a], column[b], place[used]
    mins = np.empty((horizon + 1, len(place)), dtype=np.int64)
    divergence = np.zeros(len(a), dtype=np.int64)
    for level in range(horizon, -1, -1):
        vertex_mins = np.array([v.min_coord for v in ordering.diagram.vertices(level)])
        mins[level] = vertex_mins[np.searchsorted(first[level], place, side="right") - 1]
        divergence += place[a] == place[b]
        place = parent[level][place]
    return candidates, max_killed_window, _Columns(
        terminals=tuple(map(ordering.diagram.vertices(horizon).__getitem__, terminal_ranks)),
        tower=tower[used],
        rank=rank[used],
        mins=mins,
        x=a,
        x_prime=b,
        # survivors read every field off the per-level arrays; no path is built
        divergence=divergence,
        times=hit_t[flat] - np.repeat(t, n),
        cuts=ends,
    )
