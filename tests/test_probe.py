"""Depth-i conflict search: the diagonal kernel vs the pair scan and odometer replay."""

import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PASCAL_TEXT,
    basic_block,
    k_coding_symbol,
    parallel_edge_specs,
    peak_rss_mb,
    polynomial_specs,
)
from polyadic import Diagram, Ordering, _diagonals, parse_polynomial
from polyadic.cli import main
from polyadic.errors import MaximalAtHorizon, MinimalAtHorizon, ReportTooLarge
from polyadic.export import _list, to_stable_json
from polyadic.measure import dense_orbit_trace
from polyadic.probe import probe_depth_pairs
from polyadic.vershik import DEFAULT_TOWER_BUDGET


def document(report):
    """The report as the CLI document holds it, read back."""
    return json.loads(to_stable_json(report.to_document()))


def replay_pair(ordering, i, xa, xb):
    """Re-simulate one pair with the raw successor and predecessor machines.

    Returns (killed, window, conflict_times) with the window as
    (backward_steps, forward_steps) of the survived range.
    """

    def scan(step, boundary):
        ya, yb = xa, xb
        lived = 0
        conflicts = []
        while True:
            try:
                ya, yb = step(ya), step(yb)
            except boundary:
                return lived, False, conflicts
            if k_coding_symbol(ya, i) != k_coding_symbol(yb, i):
                return lived, True, conflicts
            lived += 1
            if k_coding_symbol(ya, i + 1) != k_coding_symbol(yb, i + 1):
                conflicts.append(lived)
        # not reached

    fwd_lived, fwd_killed, fwd_conflicts = scan(ordering.successor, MaximalAtHorizon)
    back_lived, back_killed, back_conflicts = scan(
        ordering.predecessor, MinimalAtHorizon
    )
    killed = fwd_killed or back_killed
    conflicts = sorted(
        [-t for t in back_conflicts]
        + ([0] if k_coding_symbol(xa, i + 1) != k_coding_symbol(xb, i + 1) else [])
        + fwd_conflicts
    )
    return killed, (back_lived, fwd_lived), conflicts


def replay_report(ordering, i, horizon, floor=0):
    """Full from-scratch rerun of the probe semantics by path enumeration.

    Returns (candidates, killed, survivors, max_killed_window), the last the
    largest back_lived + fwd_lived + 1 over killed pairs.
    """
    diagram = ordering.diagram
    entries = []
    for v in diagram.vertices(horizon):
        if v.min_coord < floor:
            continue
        for rank, x in enumerate(ordering.tower(v)):
            entries.append((v, rank, x))
    candidates = 0
    killed = 0
    max_killed_window = 0
    survivors = {}
    for a in range(len(entries)):
        va, ra, xa = entries[a]
        for b in range(a + 1, len(entries)):
            vb, rb, xb = entries[b]
            if k_coding_symbol(xa, i) != k_coding_symbol(xb, i):
                continue
            candidates += 1
            was_killed, window, conflicts = replay_pair(ordering, i, xa, xb)
            if was_killed:
                killed += 1
                max_killed_window = max(max_killed_window, window[0] + window[1] + 1)
            else:
                key = frozenset({(va.coords, ra), (vb.coords, rb)})
                survivors[key] = (window, tuple(conflicts))
    return candidates, killed, survivors, max_killed_window


_PAIR_CHUNK = 4096  # pairs the scan enumerates together; bounds its working arrays


def _lived(sym, a, b, room):
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


def scan_runs(sym, sizes, chunk=_PAIR_CHUNK):
    """The pair scan that the diagonal kernel replaced, as its oracle.

    Enumerates every pair of positions with equal symbols, `chunk` pairs at
    a time, and steps the first pair of each run of equal symbols on a
    diagonal forward.  Returns the candidate count, the runs spanning their
    whole diagonal as a set of (a0, b0, length), and the longest other run.
    """
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    last = first + np.repeat(sizes, sizes) - 1
    # sorted position p pairs with every later member of its symbol group
    order = np.argsort(sym, kind="stable")
    group_end = np.searchsorted(sym[order], sym[order], side="right")
    row_len = group_end - np.arange(len(order)) - 1
    row_start = np.cumsum(row_len) - row_len
    candidates = int(row_len.sum())
    max_killed_window = 0
    runs = set()
    for lo in range(0, candidates, chunk):
        idx = np.arange(lo, min(lo + chunk, candidates))
        p = np.searchsorted(row_start, idx, side="right") - 1
        a, b = order[p], order[p + 1 + idx - row_start[p]]
        back = np.minimum(a - first[a], b - first[b])
        start = (back == 0) | (sym[a - 1] != sym[b - 1])
        a, b, back = a[start], b[start], back[start]
        fwd = np.minimum(last[a] - a, last[b] - b)
        lived = _lived(sym, a, b, fwd)
        whole = (back == 0) & (lived == fwd)
        max_killed_window = max(max_killed_window, int((lived[~whole] + 1).max(initial=0)))
        runs.update(zip(a[whole].tolist(), b[whole].tolist(), (lived[whole] + 1).tolist()))
    return candidates, runs, max_killed_window


def prefix_blocks(ordering, horizon, admitted, budget):
    """The admitted towers' 2 x (horizon + 1) x dim blocks side by side, and their dims,
    as the oracle of the kernel's place maps.

    In a tower's block, column m describes the rank-m path and row k its
    level-k prefix: plane 0 holds the prefix's place on level k, plane 1 the
    minimum coordinate of its level-k vertex.  A block is the label-order
    concatenation of its sources' blocks plus its own row, and a tower over
    the budget has none.
    """
    diagram = ordering.diagram
    blocks = [np.zeros((2, horizon + 1, 1), dtype=np.int64)]  # by rank within the level
    for level in range(1, horizon + 1):
        start, source, *_ = ordering._level(level)
        nxt = []
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


def kernel_and_scan(ordering, i, horizon, floor=0, chunk=_PAIR_CHUNK):
    """The kernel's runs and longest killed run on one probe's axis, then the scan's result."""
    admitted = [v for v in ordering.diagram.vertices(horizon) if v.min_coord >= floor]
    if not admitted:
        return (set(), 0), (0, set(), 0)
    (ids, _), sizes = prefix_blocks(ordering, horizon, admitted, DEFAULT_TOWER_BUDGET)
    runs, max_killed_window = _diagonals._diagonal_runs(ids[i], sizes)
    return (set(zip(*runs.tolist())), max_killed_window), scan_runs(ids[i], sizes, chunk)


def row_window(diagram, row):
    """The steps from the row's pair to its towers' nearer ends, backward and forward."""
    (ra, da), (rb, db) = (
        (ref["rank"], diagram.dimension(diagram.vertex(ref["terminal"])))
        for ref in (row["x"], row["x_prime"])
    )
    return min(ra, rb), min(da - 1 - ra, db - 1 - rb)


def report_survivors(ordering, report):
    """The report's survivors as `replay_report` keys them, each window
    worked out from the row's two path references."""
    return {
        frozenset(
            {
                (tuple(row["x"]["terminal"]), row["x"]["rank"]),
                (tuple(row["x_prime"]["terminal"]), row["x_prime"]["rank"]),
            }
        ): (row_window(ordering.diagram, row), tuple(row["conflict_times"]))
        for row in report.survivors
    }


def path_fields(ordering, row):
    """Divergence level and min-coordinate trace from the row's two unranked paths."""
    xa, xb = (
        ordering.path_unrank(ordering.diagram.vertex(ref["terminal"]), ref["rank"])
        for ref in (row["x"], row["x_prime"])
    )
    first_differing_edge = next(
        k for k, (ea, eb) in enumerate(zip(xa.edges, xb.edges)) if ea != eb
    )
    return first_differing_edge + 1, [list(dense_orbit_trace(xa)), list(dense_orbit_trace(xb))]


REPLAY_CASES = [
    ("pascal", 1, 4, "source-lex", None),
    ("pascal", 2, 5, "source-revlex", None),
    ("quartic", 1, 2, "source-lex", None),
    ("q3", 1, 3, "random", 5),
]


@pytest.mark.parametrize("system,i,horizon,preset,seed", REPLAY_CASES)
def test_array_simulation_matches_replay(all_diagrams, system, i, horizon, preset, seed):
    ordering = Ordering(all_diagrams[system], preset=preset, seed=seed)
    report = probe_depth_pairs(ordering, i, horizon)
    candidates, killed, survivors, max_killed_window = replay_report(ordering, i, horizon)
    assert report.candidates == candidates
    assert report.coding_killed == killed
    assert report.censored == len(survivors)
    assert report_survivors(ordering, report) == survivors
    assert report.max_killed_window == max_killed_window


@pytest.mark.parametrize(
    "system,i,horizon,preset,seed,sample",
    [case + (None,) for case in REPLAY_CASES] + [("pascal", 1, 10, "source-lex", None, 150)],
)
def test_survivor_fields_match_paths(all_diagrams, system, i, horizon, preset, seed, sample):
    ordering = Ordering(all_diagrams[system], preset=preset, seed=seed)
    survivors = probe_depth_pairs(ordering, i, horizon).survivors
    assert survivors
    if sample is not None:
        survivors = random.Random(0).sample(survivors, sample)
    for row in survivors:
        assert (row["divergence_level"], row["min_coord_trace"]) == path_fields(ordering, row)


@pytest.mark.parametrize(
    "system,i,horizon,preset,seed", REPLAY_CASES + [("pascal", 1, 8, "source-lex", None)]
)
def test_pair_chunking_leaves_report_unchanged(
    all_diagrams, monkeypatch, system, i, horizon, preset, seed
):
    # the chunked pair scan, at its own chunk size and at a tiny one, finds
    # the kernel's runs and longest killed run, and so does the kernel when
    # it tests a few diagonals at a time
    ordering = Ordering(all_diagrams[system], preset=preset, seed=seed)
    report = probe_depth_pairs(ordering, i, horizon)
    monkeypatch.setattr(_diagonals, "_DIAGONAL_BATCH", 7)
    batched = probe_depth_pairs(ordering, i, horizon)
    assert to_stable_json(batched.to_document()) == to_stable_json(report.to_document())
    for chunk in (_PAIR_CHUNK, 5):
        (runs, max_killed_window), (candidates, scanned, scanned_max) = kernel_and_scan(
            ordering, i, horizon, chunk=chunk
        )
        assert runs == scanned and max_killed_window == scanned_max
        assert (report.candidates, report.max_killed_window) == (candidates, scanned_max)
        assert report.censored == sum(length for _, _, length in scanned)


# Regression: each half's suffixes must be ordered on their own.  A kernel
# that ordered forward and reversed suffixes together passed every golden
# digest and the deep Pascal ladder, and failed only the two floor-filtered
# cases below (max killed window 6 against 4).


def test_floor_filter_matches_replay(pascal_lex):
    report = probe_depth_pairs(pascal_lex, 1, 5, min_coord_floor=1)
    candidates, killed, survivors, max_killed_window = replay_report(pascal_lex, 1, 5, floor=1)
    assert (report.candidates, report.coding_killed) == (candidates, killed)
    assert report_survivors(pascal_lex, report) == survivors
    assert report.max_killed_window == max_killed_window


@pytest.mark.parametrize(
    "horizon,floor,counts",
    [
        (2, 1, (0, 0, 0, 0)),  # towers admitted, no pair shares a 1-symbol
        (4, 2, (6, 6, 0, 2)),  # pairs, every one killed; see the regression note above
    ],
)
def test_scans_without_survivors(pascal_lex, horizon, floor, counts):
    report = probe_depth_pairs(pascal_lex, 1, horizon, min_coord_floor=floor)
    assert report.survivors == []
    got = (report.candidates, report.coding_killed, report.censored, report.max_killed_window)
    assert got == counts
    candidates, killed, survivors, max_killed_window = replay_report(pascal_lex, 1, horizon, floor)
    assert got == (candidates, killed, len(survivors), max_killed_window)


def random_ordering(draw):
    """A random diagram's random ordering, and its number of level-1 paths."""
    spec = draw(polynomial_specs(max_degree=4) | parallel_edge_specs())
    diagram = Diagram(spec)
    preset = draw(st.sampled_from(["source-lex", "source-revlex", "random", "explicit"]))
    seed = draw(st.integers(0, 2**32)) if preset == "random" else None
    table = None
    if preset == "explicit":  # one vertex of the first three levels relabelled
        w = draw(st.sampled_from([w for n in (1, 2, 3) for w in diagram.vertices(n)]))
        labels = draw(st.permutations(range(1, diagram.indegree(w) + 1)))
        table = {f"{w.level}:{','.join(map(str, w.coords))}": list(labels)}
    return Ordering(diagram, preset, seed, table), sum(n for _, n in spec.terms)


def floors(diagram, horizon):
    """The floors that admit some level-`horizon` vertex: 0 to floor(L*d/q),
    the largest minimum coordinate there; a higher one raises ValueError."""
    return st.integers(0, horizon * diagram.degree // diagram.arity)


@st.composite
def probe_cases(draw):
    """A random small diagram, ordering, horizon (at most 60 paths), depth and floor."""
    ordering, level_one = random_ordering(draw)  # level-L paths: level_one**L
    # a quartic in four variables has up to 105 level-1 paths
    horizon = draw(st.integers(1, max((h for h in (1, 2, 3) if level_one**h <= 60), default=1)))
    i = draw(st.integers(0, horizon - 1))
    return ordering, i, horizon, draw(floors(ordering.diagram, horizon))


@given(case=probe_cases())
@settings(max_examples=40, deadline=None)
def test_report_matches_replay_on_random_diagrams(case):
    ordering, i, horizon, floor = case
    report = probe_depth_pairs(ordering, i, horizon, min_coord_floor=floor)
    candidates, killed, survivors, max_killed_window = replay_report(ordering, i, horizon, floor)
    assert (report.candidates, report.coding_killed) == (candidates, killed)
    assert report_survivors(ordering, report) == survivors
    assert report.max_killed_window == max_killed_window
    (runs, max_killed_window), (_, scanned, scanned_max) = kernel_and_scan(
        ordering, i, horizon, floor, chunk=5
    )
    assert (runs, max_killed_window) == (scanned, scanned_max)


@st.composite
def larger_probe_cases(draw):
    """As `probe_cases`, at one of the two deepest horizons with at most 4,096 paths."""
    ordering, level_one = random_ordering(draw)
    deepest = max(h for h in range(1, 13) if level_one**h <= 4096)
    horizon = draw(st.integers(max(deepest - 1, 1), deepest))  # past the replay's 60 paths
    i = draw(st.integers(0, horizon - 1))
    return ordering, i, horizon, draw(floors(ordering.diagram, horizon))


@given(case=larger_probe_cases())
@settings(max_examples=30, deadline=None)
def test_kernel_matches_pair_scan_past_the_replay(case):
    # the report itself is out of reach here: an i=0 probe of 4,096 paths
    # has millions of survivors, each with hundreds of conflict times
    (runs, max_killed_window), (_, scanned, scanned_max) = kernel_and_scan(*case, chunk=1 << 16)
    assert (runs, max_killed_window) == (scanned, scanned_max)


@st.composite
def place_cases(draw):
    """As `probe_cases`, up to 100 paths, with a budget that may skip towers."""
    ordering, level_one = random_ordering(draw)
    horizon = draw(st.integers(1, max((h for h in (1, 2, 3, 4) if level_one**h <= 100), default=1)))
    diagram = ordering.diagram
    budget = draw(st.integers(1, max(map(diagram.dimension, diagram.vertices(horizon)))))
    floor = draw(floors(diagram, horizon))
    return ordering, draw(st.integers(0, horizon - 1)), horizon, floor, budget


@given(case=place_cases())
@settings(max_examples=60, deadline=None)
def test_place_maps_match_the_prefix_blocks(case):
    # the kernel's rows are the blocks' ids exactly, not just in the same
    # order, and its columns hold the blocks' min coordinates and shared
    # prefixes of the survivors' paths
    ordering, i, horizon, floor, budget = case
    diagram = ordering.diagram
    report = probe_depth_pairs(ordering, i, horizon, floor, budget)
    admitted = [
        v
        for v in diagram.vertices(horizon)
        if v.min_coord >= floor and diagram.dimension(v) <= budget
    ]
    if not admitted:
        assert report.censored == 0
        return
    (ids, mins), sizes = prefix_blocks(ordering, horizon, admitted, budget)
    parent, first = _diagonals._place_maps(ordering, horizon, budget)
    top = first[horizon]
    places = [np.arange(top[r], top[r + 1]) for r in map(diagram._index, admitted)]
    assert np.array_equal(np.concatenate(places), ids[horizon])
    row = ids[horizon]
    for k in range(horizon, 0, -1):  # composed down the parent maps
        row = parent[k][row]
        assert np.array_equal(row, ids[k - 1])
    c = report._columns
    position = (np.cumsum(sizes) - sizes)[c.tower] + c.rank
    x, y = position[c.x], position[c.x_prime]
    assert position.tolist() == sorted({*x.tolist(), *y.tolist()})
    assert np.array_equal(c.mins, mins[:, position])
    assert np.array_equal(c.divergence, (ids[:, x] == ids[:, y]).sum(axis=0))


@given(case=place_cases())
@settings(max_examples=60, deadline=None)
def test_place_maps_name_the_basic_block_symbols(case):
    # a level-k place is a path's first k edges: its vertex found by
    # searchsorted on first[k], its rank the offset from that vertex's first
    # place; read down the parent maps, they spell each admitted tower's
    # block, and a tower over the budget has no places to read
    ordering, _, horizon, _, budget = case
    diagram = ordering.diagram
    parent, first = _diagonals._place_maps(ordering, horizon, budget)
    for r, v in enumerate(diagram.vertices(horizon)):
        if diagram.dimension(v) > budget:
            assert first[horizon][r] == first[horizon][r + 1]
            continue
        places = np.arange(first[horizon][r], first[horizon][r + 1])
        for k in range(horizon, -1, -1):
            u = np.searchsorted(first[k], places, side="right") - 1
            below = diagram.vertices(k)
            block = [(below[a].coords, p - first[k][a]) for a, p in zip(u.tolist(), places.tolist())]
            assert block == list(basic_block(ordering, v, k)), (v, k)
            places = parent[k][places]


@given(case=probe_cases())
@settings(max_examples=40, deadline=None)
def test_rows_match_candidate_views_on_random_diagrams(case):
    ordering, i, horizon, floor = case
    report = probe_depth_pairs(ordering, i, horizon, min_coord_floor=floor)
    doc = document(report)  # the rows the CLI writes, read back
    assert doc["genuine_conflicts"] == report.genuine_conflicts
    rows = report.survivors
    assert doc["survivors_without_conflict"] == sum(not row["conflict_times"] for row in rows)
    assert doc["same_terminal_survivors"] == len(report.same_terminal_survivors) == sum(
        row["x"]["terminal"] == row["x_prime"]["terminal"] for row in rows
    )
    # the survivor rows are the replay's survivors
    _, _, survivors, _ = replay_report(ordering, i, horizon, floor)
    assert report_survivors(ordering, report) == survivors
    for row in rows:
        assert (row["divergence_level"], row["min_coord_trace"]) == path_fields(ordering, row)


def oracle_rows(c, selected):
    """The per-row writer the bulk `_diagonals._conflict_rows` replaced: one
    template per row, the list written at top level."""
    rows = np.flatnonzero(selected)
    if not rows.size:
        return "[]"
    x, x_prime = c.x[rows], c.x_prime[rows]
    used = np.zeros(len(c.tower), dtype=bool)
    used[x] = used[x_prime] = True
    used = np.flatnonzero(used)
    field_nl, item_nl = "\n    ", "\n      "  # a row's fields, a field's items
    terminals = [_list(v.coords, item_nl) for v in c.terminals]
    refs, traces = {}, {}
    for p, k, r, trace in zip(
        used.tolist(), c.tower[used].tolist(), c.rank[used].tolist(), c.mins[:, used].T.tolist()
    ):
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


SELECTIONS = {
    "every_row": lambda c: c.every_row(),
    "genuine": lambda c: c.genuine(),
    "~genuine": lambda c: ~c.genuine(),
    "none": lambda c: np.zeros(len(c.x), dtype=bool),
}


def assert_writer_matches_oracle(c, selection, depth):
    selected = SELECTIONS[selection](c)
    nl = "\n" + "  " * depth
    assert c.write_rows(selected, nl) == oracle_rows(c, selected).replace("\n", nl)


@st.composite
def writer_cases(draw):
    """A random probe of at most 2,048 paths and a few thousand survivors, a
    selection of its rows and the depth they land at."""
    ordering, level_one = random_ordering(draw)
    horizon = draw(st.integers(1, max(h for h in range(1, 12) if level_one**h <= 2048)))
    diagram = ordering.diagram
    i, floor = draw(st.integers(0, horizon - 1)), draw(floors(diagram, horizon))
    # an i=0 probe pairs every path with every other: step back until the
    # kernel's own cap, lowered, admits the report (at horizon 1 it always does)
    with mock.patch.object(_diagonals, "_REPORT_CAP", 20_000):
        while True:
            try:
                report = probe_depth_pairs(ordering, i, horizon, min_coord_floor=floor)
                break
            except ReportTooLarge:
                horizon -= 1
                i = min(i, horizon - 1)
                floor = min(floor, horizon * diagram.degree // diagram.arity)
    return report._columns, draw(st.sampled_from(sorted(SELECTIONS))), draw(st.integers(0, 3))


@given(case=writer_cases())
@settings(max_examples=100, deadline=None)
def test_bulk_writer_matches_the_per_row_oracle(case):
    assert_writer_matches_oracle(*case)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("selection", sorted(SELECTIONS))
def test_bulk_writer_matches_the_per_row_oracle_on_pascal_depth_zero(selection, depth):
    # the first survivor here has no conflict time and its times start at
    # offset 0, so under ~genuine the first row's slice of the times would
    # end below 0 unless its end is clamped to its start
    ordering = Ordering(Diagram(parse_polynomial(PASCAL_TEXT)), "random", 5)
    c = probe_depth_pairs(ordering, 0, 6)._columns
    assert c.cuts[0] == 0 and not c.genuine()[0]
    assert_writer_matches_oracle(c, selection, depth)


def test_survivor_rows_are_parsed_once(pascal_lex, monkeypatch, capsys):
    calls = {"_conflict_rows": 0, "loads": 0}
    depths = []
    write, loads = _diagonals._conflict_rows, json.loads

    def counted_write(c, selected, nl):
        calls["_conflict_rows"] += 1
        depths.append(nl)
        return write(c, selected, nl)

    def counted_loads(*args, **kwargs):
        calls["loads"] += 1
        return loads(*args, **kwargs)

    monkeypatch.setattr(_diagonals, "_conflict_rows", counted_write)
    monkeypatch.setattr(json, "loads", counted_loads)
    report = probe_depth_pairs(pascal_lex, 1, 6)
    assert report.same_terminal_survivors == []  # an empty selection parses nothing
    assert calls == {"_conflict_rows": 0, "loads": 0}
    rows = report.survivors
    assert calls == {"_conflict_rows": 1, "loads": 1}
    assert report.genuine_conflicts == [row for row in rows if row["conflict_times"]]
    assert report.same_terminal_survivors == []
    assert report.survivors == rows and report.survivors is not rows
    assert calls == {"_conflict_rows": 1, "loads": 1}
    # the CLI writes the document's one list of rows, at the depth of
    # report.genuine_conflicts, and reads no row back
    calls.update({"_conflict_rows": 0, "loads": 0})
    depths.clear()
    assert main(["probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "6"]) == 0
    assert calls == {"_conflict_rows": 1, "loads": 0}
    assert depths == ["\n    "]
    capsys.readouterr()


class TestDepthZero:
    def test_every_same_terminal_pair_conflicts(self, all_diagrams):
        expected = {"pascal": (6, 2016, 430), "quartic": (3, 130816, 16204), "q3": (3, 23220, 1119)}
        for name, (horizon, candidates, same_terminal) in expected.items():
            diagram = all_diagrams[name]
            report = probe_depth_pairs(Ordering(diagram), 0, horizon)
            assert report.candidates == candidates
            assert report.coding_killed == 0  # 0-symbols are all empty
            pairs = report.same_terminal_survivors
            assert len(pairs) == same_terminal
            assert all(row["conflict_times"] for row in pairs)
            # one tower of size m contributes m-choose-2 pairs
            assert same_terminal == sum(
                math.comb(diagram.dimension(v), 2)
                for v in diagram.vertices(horizon)
            )


class TestPascalDepthOne:
    def test_horizon_ten_counts(self, pascal_lex):
        report = probe_depth_pairs(pascal_lex, 1, 10)
        assert report.candidates == 261632
        assert report.coding_killed == 259606
        assert report.censored == 2026
        assert len(report.genuine_conflicts) == 512
        assert report.same_terminal_survivors == []
        assert report.max_killed_window == 76

    @pytest.mark.parametrize(
        "horizon,survivors,max_killed_window", [(14, 32738, 934), (15, 65504, 1727)]
    )
    def test_deep_horizon_counts(self, pascal_lex, horizon, survivors, max_killed_window):
        # the pair scan's counts, which took it 7 s and 31 s
        report = probe_depth_pairs(pascal_lex, 1, horizon)
        assert report.candidates == 2 * math.comb(2 ** (horizon - 1), 2)
        assert report.censored == survivors
        assert report.max_killed_window == max_killed_window

    def test_deep_horizon_memory(self):
        # the place maps hold a parent per path and level; the dense prefix
        # blocks they replaced held L + 1 ids and min coordinates per path,
        # and peaked at 208 MB here
        peak = peak_rss_mb(
            """
            from polyadic import Diagram, Ordering, parse_polynomial
            from polyadic.probe import probe_depth_pairs

            report = probe_depth_pairs(Ordering(Diagram(parse_polynomial("x1 + x2"))), 1, 18)
            counts = (report.candidates, report.censored, report.max_killed_window)
            assert counts == (17_179_738_112, 524_250, 12_884), counts
            """
        )
        assert peak < 180, peak

    def test_cli_document_memory(self):
        # the survivor rows are written once, at the depth they land in the
        # document; written at top level and then re-indented for it, a copy
        # of the rows stood beside them, and the run peaked at 269 MB on a
        # 2-vCPU Xeon (now about 208 MB)
        peak = peak_rss_mb(
            """
            import contextlib, os
            from polyadic.cli import main

            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = main(["probe", "--poly", "x1 + x2", "--i", "1", "--horizon", "17"])
            assert code == 0, code
            """
        )
        assert peak < 240, peak

    def test_conflicts_cling_to_corners(self, pascal_lex):
        # raising the floor by one removes every genuine conflict
        report = probe_depth_pairs(pascal_lex, 1, 10, min_coord_floor=1)
        assert report.candidates == 260610
        assert report.censored == 1004
        assert report.genuine_conflicts == []

    def test_all_survivors_censored_both_ways(self, pascal_lex):
        # the raw machines carry every survivor to both tower ends unkilled,
        # over the window its two references give
        report = probe_depth_pairs(pascal_lex, 1, 6)
        assert report.survivors
        for row in report.survivors:
            xa, xb = (
                pascal_lex.path_unrank(pascal_lex.diagram.vertex(ref["terminal"]), ref["rank"])
                for ref in (row["x"], row["x_prime"])
            )
            killed, window, conflicts = replay_pair(pascal_lex, 1, xa, xb)
            assert not killed
            assert window == row_window(pascal_lex.diagram, row)
            assert conflicts == row["conflict_times"]
            assert row["divergence_level"] > 1
            assert len(row["min_coord_trace"][0]) == 7

    def test_floor_monotone(self, pascal_lex):
        counts = [
            probe_depth_pairs(pascal_lex, 1, 8, min_coord_floor=f).candidates
            for f in (0, 1, 2)
        ]
        assert counts == sorted(counts, reverse=True)
        assert len(set(counts)) == 3


class TestRandomDepthThree:
    def test_seeded_runs(self, pascal):
        expected = {3: (64059, 965, 149), 7: (64205, 819, 168), 11: (64331, 693, 225)}
        for seed, (killed, censored, genuine) in expected.items():
            ordering = Ordering(pascal, preset="random", seed=seed)
            report = probe_depth_pairs(ordering, 3, 10)
            assert report.candidates == 65024
            assert report.coding_killed == killed
            assert report.censored == censored
            assert len(report.genuine_conflicts) == genuine


class TestEdges:
    @staticmethod
    def assert_empty(report):
        assert (report.candidates, report.censored, report.max_killed_window) == (0, 0, 0)
        assert report.survivors == report.genuine_conflicts == report.same_terminal_survivors == []
        doc = document(report)
        assert doc["genuine_conflicts"] == []
        assert (doc["survivors_without_conflict"], doc["same_terminal_survivors"]) == (0, 0)

    def test_depth_at_horizon_is_empty(self, pascal_lex):
        self.assert_empty(probe_depth_pairs(pascal_lex, 6, 6))

    def test_floor_above_every_terminal_raises(self, all_diagrams, pascal_lex, capsys):
        # floor(L*d/q) is the largest minimum coordinate at level L, so one
        # more admits no terminal: an error, not an all-zero report
        for diagram in all_diagrams.values():
            ordering = Ordering(diagram)
            for horizon in (1, 2, 3):
                top = horizon * diagram.degree // diagram.arity
                assert max(v.min_coord for v in diagram.vertices(horizon)) == top
                with pytest.raises(ValueError, match=f"floor\\(L\\*d/q\\) = {top}$"):
                    probe_depth_pairs(ordering, 0, horizon, min_coord_floor=top + 1)
        with pytest.raises(ValueError, match="^floor 100 admits no level-4 vertex"):
            probe_depth_pairs(pascal_lex, 1, 4, min_coord_floor=100)
        argv = ["probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "5", "--floor", "9"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "floor 9 admits no level-5 vertex" in err

    def test_budget_skips_towers(self, pascal, pascal_lex):
        report = probe_depth_pairs(pascal_lex, 1, 4, budget=5)
        assert report.skipped_towers == 1  # only (2,2) has dimension 6
        full = probe_depth_pairs(pascal_lex, 1, 4)
        assert full.skipped_towers == 0
        assert report.candidates < full.candidates
        expected_skips = sum(
            1 for v in pascal.vertices(10) if pascal.dimension(v) > 100
        )
        assert (
            probe_depth_pairs(pascal_lex, 1, 10, budget=100).skipped_towers
            == expected_skips
        )

    def test_oversized_report_is_refused(self):
        # 4,096 paths, 8,386,560 surviving pairs and 4,061,012,650 conflict
        # times, which would take 30 GiB: refused before the times are laid out
        ordering = Ordering(Diagram(parse_polynomial("x1 + 3 x2")))
        with pytest.raises(ReportTooLarge, match="8386560 surviving pairs with 4061012650 "):
            probe_depth_pairs(ordering, 0, 6)

    def test_oversized_report_is_refused_before_it_is_expanded(self):
        # the conflict times are counted a bounded batch of pairs at a time,
        # so the refusal costs megabytes; expanding the survivors first
        # peaked at about 430 MB
        peak = peak_rss_mb(
            """
            import pytest
            from polyadic import Diagram, Ordering, parse_polynomial
            from polyadic.errors import ReportTooLarge
            from polyadic.probe import probe_depth_pairs

            ordering = Ordering(Diagram(parse_polynomial("x1 + 3 x2")))
            with pytest.raises(ReportTooLarge, match="8386560 surviving pairs with 4061012650 "):
                probe_depth_pairs(ordering, 0, 6)
            """
        )
        assert peak < 150, peak

    def test_report_cap_counts_survivors_and_times(self, pascal_lex, monkeypatch, capsys):
        report = probe_depth_pairs(pascal_lex, 0, 6)
        assert (report.censored, len(report._columns.times)) == (2016, 8300)
        monkeypatch.setattr(_diagonals, "_REPORT_CAP", 2015)
        with pytest.raises(ReportTooLarge, match="^2016 surviving pairs; the cap is 2015$"):
            probe_depth_pairs(pascal_lex, 0, 6)
        monkeypatch.setattr(_diagonals, "_REPORT_CAP", 8299)
        with pytest.raises(ReportTooLarge, match="2016 surviving pairs with 8300 conflict times"):
            probe_depth_pairs(pascal_lex, 0, 6)
        assert main(["probe", "--poly", PASCAL_TEXT, "--i", "0", "--horizon", "6"]) == 2
        assert "8300 conflict times" in capsys.readouterr().err
        monkeypatch.setattr(_diagonals, "_REPORT_CAP", 8300)
        at_cap = probe_depth_pairs(pascal_lex, 0, 6)
        assert to_stable_json(at_cap.to_document()) == to_stable_json(report.to_document())

    def test_argument_validation(self, pascal_lex):
        with pytest.raises(ValueError):
            probe_depth_pairs(pascal_lex, -1, 4)
        with pytest.raises(ValueError):
            probe_depth_pairs(pascal_lex, 1, 0)

    def test_report_schema(self, pascal_lex):
        doc = document(probe_depth_pairs(pascal_lex, 1, 4))
        assert set(doc) == {
            "i",
            "L",
            "floor",
            "budget",
            "candidates",
            "coding_killed",
            "censored",
            "skipped_towers",
            "max_killed_window",
            "genuine_conflicts",
            "uncensored_genuine_conflicts",
            "survivors_without_conflict",
            "same_terminal_survivors",
        }
        assert doc["candidates"] == doc["coding_killed"] + doc["censored"]

    def test_row_schema(self, all_diagrams):
        # a row names its two paths and what the scan found between them; its
        # window follows from the two references, so no row repeats it
        for name, i, horizon in (("pascal", 1, 6), ("quartic", 0, 2), ("q3", 1, 3)):
            rows = probe_depth_pairs(Ordering(all_diagrams[name]), i, horizon).survivors
            assert rows
            for row in rows:
                assert set(row) == {
                    "conflict_times", "divergence_level", "min_coord_trace", "x", "x_prime"
                }
                assert set(row["x"]) == set(row["x_prime"]) == {"rank", "terminal"}

