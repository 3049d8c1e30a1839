"""Depth-i conflict search: array simulation vs direct odometer replay."""

import dataclasses
import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PASCAL_TEXT, k_coding_symbol, polynomial_specs
from polyadic import Diagram, Ordering, probe
from polyadic.cli import main
from polyadic.errors import MaximalAtHorizon, MinimalAtHorizon
from polyadic.export import to_stable_json
from polyadic.measure import dense_orbit_trace
from polyadic.probe import probe_depth_pairs


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


def report_survivors(report):
    return {
        frozenset(
            {
                (tuple(row["x"]["terminal"]), row["x"]["rank"]),
                (tuple(row["x_prime"]["terminal"]), row["x_prime"]["rank"]),
            }
        ): ((-row["window"][0], row["window"][1]), tuple(row["conflict_times"]))
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


def censored_both_ways(row):
    return row["censored"] == {"forward": True, "backward": True}


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
    assert report_survivors(report) == survivors
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
    ordering = Ordering(all_diagrams[system], preset=preset, seed=seed)
    expected = probe_depth_pairs(ordering, i, horizon)
    monkeypatch.setattr(probe, "_PAIR_CHUNK", 5)
    chunked = probe_depth_pairs(ordering, i, horizon)
    assert to_stable_json(chunked.to_document()) == to_stable_json(expected.to_document())
    assert chunked.survivors == expected.survivors  # includes conflict-free survivors


def test_floor_filter_matches_replay(pascal_lex):
    report = probe_depth_pairs(pascal_lex, 1, 5, min_coord_floor=1)
    candidates, killed, survivors, max_killed_window = replay_report(pascal_lex, 1, 5, floor=1)
    assert (report.candidates, report.coding_killed) == (candidates, killed)
    assert report_survivors(report) == survivors
    assert report.max_killed_window == max_killed_window


@pytest.mark.parametrize(
    "horizon,floor,counts",
    [
        (2, 1, (0, 0, 0, 0)),  # towers admitted, no pair shares a 1-symbol
        (4, 2, (6, 6, 0, 2)),  # pairs, every one killed
    ],
)
def test_scans_without_survivors(pascal_lex, horizon, floor, counts):
    report = probe_depth_pairs(pascal_lex, 1, horizon, min_coord_floor=floor)
    assert report.survivors == []
    got = (report.candidates, report.coding_killed, report.censored, report.max_killed_window)
    assert got == counts
    candidates, killed, survivors, max_killed_window = replay_report(pascal_lex, 1, horizon, floor)
    assert got == (candidates, killed, len(survivors), max_killed_window)


@st.composite
def probe_cases(draw):
    """A random small diagram, ordering, horizon (at most 60 paths), depth and floor."""
    spec = draw(polynomial_specs(max_degree=2))
    preset = draw(st.sampled_from(["source-lex", "source-revlex", "random"]))
    seed = draw(st.integers(0, 2**32)) if preset == "random" else None
    ordering = Ordering(Diagram(spec), preset=preset, seed=seed)
    level_one = sum(count for _, count in spec.terms)  # level-L paths: level_one**L
    horizon = draw(st.integers(1, max(h for h in (1, 2, 3) if level_one**h <= 60)))
    return ordering, draw(st.integers(0, horizon - 1)), horizon, draw(st.integers(0, 1))


@given(case=probe_cases())
@settings(max_examples=40, deadline=None)
def test_report_matches_replay_on_random_diagrams(case):
    ordering, i, horizon, floor = case
    report = probe_depth_pairs(ordering, i, horizon, min_coord_floor=floor)
    candidates, killed, survivors, max_killed_window = replay_report(ordering, i, horizon, floor)
    assert (report.candidates, report.coding_killed) == (candidates, killed)
    assert report_survivors(report) == survivors
    assert report.max_killed_window == max_killed_window
    with mock.patch.object(probe, "_PAIR_CHUNK", 5):
        chunked = probe_depth_pairs(ordering, i, horizon, min_coord_floor=floor)
    assert to_stable_json(chunked.to_document()) == to_stable_json(report.to_document())


@given(case=probe_cases())
@settings(max_examples=40, deadline=None)
def test_rows_match_candidate_views_on_random_diagrams(case):
    ordering, i, horizon, floor = case
    report = probe_depth_pairs(ordering, i, horizon, min_coord_floor=floor)
    doc = document(report)  # the rows the CLI writes, read back
    assert doc["genuine_conflicts"] == report.genuine_conflicts
    assert doc["uncensored_genuine_conflicts"] == report.uncensored_genuine_conflicts
    rows = report.survivors
    assert doc["survivors_without_conflict"] == sum(not row["conflict_times"] for row in rows)
    assert doc["same_terminal_survivors"] == len(report.same_terminal_survivors) == sum(
        row["x"]["terminal"] == row["x_prime"]["terminal"] for row in rows
    )
    # the survivor rows are the replay's survivors
    _, _, survivors, _ = replay_report(ordering, i, horizon, floor)
    assert report_survivors(report) == survivors
    for row in rows:
        assert censored_both_ways(row)
        assert (row["divergence_level"], row["min_coord_trace"]) == path_fields(ordering, row)


def test_censor_flags_are_read_off_the_window(pascal_lex):
    # shrink every window by one step each way: no window then reaches a
    # tower end, so every genuine conflict lands in the uncensored bucket
    report = probe_depth_pairs(pascal_lex, 1, 6)
    columns = report._columns
    shrunk = dataclasses.replace(
        report,
        _columns=columns._replace(forward=columns.forward - 1, backward=columns.backward - 1),
    )
    assert report.genuine_conflicts and report.uncensored_genuine_conflicts == []
    assert not any(row["censored"]["forward"] or row["censored"]["backward"] for row in shrunk.survivors)
    assert len(shrunk.uncensored_genuine_conflicts) == len(report.genuine_conflicts)
    doc = document(shrunk)
    assert doc["uncensored_genuine_conflicts"] == doc["genuine_conflicts"]


def test_survivor_rows_are_parsed_once(pascal_lex, monkeypatch, capsys):
    calls = {"_conflict_rows": 0, "loads": 0}
    write, loads = probe._conflict_rows, json.loads

    def counted_write(*args):
        calls["_conflict_rows"] += 1
        return write(*args)

    def counted_loads(*args, **kwargs):
        calls["loads"] += 1
        return loads(*args, **kwargs)

    monkeypatch.setattr(probe, "_conflict_rows", counted_write)
    monkeypatch.setattr(json, "loads", counted_loads)
    report = probe_depth_pairs(pascal_lex, 1, 6)
    assert report.uncensored_genuine_conflicts == []  # an empty selection parses nothing
    assert calls == {"_conflict_rows": 0, "loads": 0}
    rows = report.survivors
    assert calls == {"_conflict_rows": 1, "loads": 1}
    assert report.genuine_conflicts == [row for row in rows if row["conflict_times"]]
    assert report.uncensored_genuine_conflicts == []
    assert report.same_terminal_survivors == []
    assert report.survivors == rows and report.survivors is not rows
    assert calls == {"_conflict_rows": 1, "loads": 1}
    # the CLI writes the document's two lists and reads no row back
    calls.update({"_conflict_rows": 0, "loads": 0})
    assert main(["probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "6"]) == 0
    assert calls == {"_conflict_rows": 2, "loads": 0}
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
        assert report.uncensored_genuine_conflicts == []
        assert report.same_terminal_survivors == []
        assert report.max_killed_window == 76

    def test_conflicts_cling_to_corners(self, pascal_lex):
        # raising the floor by one removes every genuine conflict
        report = probe_depth_pairs(pascal_lex, 1, 10, min_coord_floor=1)
        assert report.candidates == 260610
        assert report.censored == 1004
        assert report.genuine_conflicts == []

    def test_all_survivors_censored_both_ways(self, pascal_lex):
        report = probe_depth_pairs(pascal_lex, 1, 6)
        assert report.survivors
        for row in report.survivors:
            assert censored_both_ways(row)
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
            assert report.uncensored_genuine_conflicts == []


class TestEdges:
    def test_depth_at_horizon_is_empty(self, pascal_lex):
        report = probe_depth_pairs(pascal_lex, 6, 6)
        assert report.candidates == 0
        assert report.survivors == []

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

