"""Chain validation, the mechanical extension loop, and start-pair search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyadic import Diagram, Vertex, parse_polynomial
from polyadic.chains import (
    Chain,
    ChainStart,
    build_distinguished_chain,
    check_link_consequences,
    find_chain_start,
    validate_chain,
)
from polyadic.coverage import is_covered_oracle
from polyadic.errors import (
    DsvAbsent,
    HypothesisNotMet,
    LengthMismatch,
    NoExtension,
    PreconditionNotMet,
)

from conftest import polynomial_specs


def chain_of(diagram, splitting, shared, direction=None):
    return Chain(
        level=sum(splitting[0]) // diagram.degree,
        splitting=tuple(diagram.vertex(c) for c in splitting),
        shared=tuple(diagram.vertex(c) for c in shared),
        direction=direction,
    )


class TestValidate:
    def test_link(self, pascal):
        chain = chain_of(pascal, [(5, 5), (4, 6)], [(4, 5)])
        check = validate_chain(pascal, chain)
        assert check.is_chain and check.is_straight and check.is_link
        assert check.distinguished_direction is None  # too short to tell

    def test_not_a_chain(self, pascal):
        # (5,4) feeds (5,5) but not (4,6)
        chain = chain_of(pascal, [(5, 5), (4, 6)], [(5, 4)])
        check = validate_chain(pascal, chain)
        assert not check.is_chain and not check.is_link

    def test_repeated_vertex_not_straight(self, pascal):
        chain = chain_of(pascal, [(5, 5), (4, 6), (5, 5)], [(4, 5), (4, 5)])
        check = validate_chain(pascal, chain)
        assert check.is_chain and not check.is_straight

    def test_distinguished_direction_found(self, pascal):
        chain = chain_of(pascal, [(7, 3), (6, 4), (5, 5)], [(6, 3), (5, 4)])
        check = validate_chain(pascal, chain)
        assert check.is_chain and check.is_straight
        assert check.distinguished_direction == 1  # (5,4) = (6,4) dropped in x1

    def test_straight_chain_without_a_direction(self, quartic):
        # (6,6) feeds (8,8) but is neither of its drop sources, (4,8) and (8,4)
        chain = chain_of(quartic, [(9, 7), (8, 8), (7, 9)], [(7, 5), (6, 6)])
        check = validate_chain(quartic, chain)
        assert check.is_straight and chain.length == 2
        assert check.distinguished_direction is None

    def test_shape_mismatch(self, pascal):
        with pytest.raises(LengthMismatch):
            chain_of(pascal, [(5, 5), (4, 6)], [(4, 5), (3, 5)])
        with pytest.raises(LengthMismatch):
            Chain(level=5, splitting=(), shared=())


class TestBuild:
    def test_pascal_example(self, pascal):
        chain = build_distinguished_chain(
            pascal,
            pascal.vertex((7, 3)),
            pascal.vertex((6, 4)),
            pascal.vertex((6, 3)),
            j=1,
            target_len=4,
        )
        assert [v.coords for v in chain.splitting] == [(7, 3), (6, 4), (5, 5), (4, 6)]
        assert [u.coords for u in chain.shared] == [(6, 3), (5, 4), (4, 5)]
        check = validate_chain(pascal, chain)
        assert check.is_chain and check.is_straight
        assert check.distinguished_direction == 1

    def test_quartic_extension_step(self, quartic):
        chain = build_distinguished_chain(
            quartic,
            quartic.vertex((13, 7)),
            quartic.vertex((12, 8)),
            quartic.vertex((12, 4)),
            j=1,
            target_len=3,
        )
        assert [v.coords for v in chain.splitting] == [(13, 7), (12, 8), (11, 9)]
        assert [u.coords for u in chain.shared] == [(12, 4), (8, 8)]

    def test_direction_coordinate_descends(self, pascal):
        chain = build_distinguished_chain(
            pascal,
            pascal.vertex((12, 8)),
            pascal.vertex((11, 9)),
            pascal.vertex((11, 8)),
            j=1,
            target_len=8,
        )
        drops = [v.coord(1) for v in chain.splitting]
        assert drops == sorted(drops, reverse=True)
        assert len(set(drops)) == len(drops)

    def test_dsv_runs_out(self, pascal):
        with pytest.raises(DsvAbsent):
            build_distinguished_chain(
                pascal,
                pascal.vertex((2, 8)),
                pascal.vertex((1, 9)),
                pascal.vertex((1, 8)),
                j=1,
                target_len=4,
            )

    def test_a_repeated_vertex_stops_the_chain(self, pascal):
        # w1(j) > w0(j): the j-drop source of w1 is u0, whose other target is w0
        with pytest.raises(NoExtension, match="^straightness breaks at \\(10,10\\) "):
            build_distinguished_chain(
                pascal,
                pascal.vertex((10, 10)),
                pascal.vertex((11, 9)),
                pascal.vertex((10, 9)),
                j=1,
                target_len=6,
            )

    def test_bad_start_rejected(self, pascal):
        v = pascal.vertex((7, 3))
        with pytest.raises(HypothesisNotMet):
            build_distinguished_chain(pascal, v, v, pascal.vertex((6, 3)), 1, 3)
        with pytest.raises(HypothesisNotMet):
            build_distinguished_chain(
                pascal, v, pascal.vertex((5, 5)), pascal.vertex((6, 3)), 1, 3
            )
        with pytest.raises(ValueError):
            build_distinguished_chain(
                pascal, v, pascal.vertex((6, 4)), pascal.vertex((6, 3)), 1, 1
            )


def scan_chain_starts(diagram, level):
    """Chain starts found by testing every ordered pair of uncovered vertices."""
    d = diagram.degree
    lo, hi = 2 * d * d + 4 * d, (level - 2) * d
    uncovered = [v for v in diagram.vertices(level) if not is_covered_oracle(diagram, v)]
    sources = {v: frozenset(diagram.source_set(v)) for v in uncovered}
    out = []
    for v in uncovered:
        for vp in uncovered:
            common = sources[v] & sources[vp]
            if vp == v or not common:
                continue
            for j in range(1, diagram.arity + 1):
                if lo <= vp.coord(j) < v.coord(j) <= hi:
                    out.append(ChainStart(v, vp, j, max(common)))
    return tuple(out)


@given(spec=polynomial_specs(max_degree=2, max_arity=3), offset=st.integers(7, 10))
@settings(max_examples=30, deadline=None)
def test_chain_starts_match_the_pair_scan_on_random_shapes(spec, offset):
    diagram, level = Diagram(spec), 2 * spec.degree + offset
    assert find_chain_start(diagram, level) == scan_chain_starts(diagram, level)


class TestStarts:
    @pytest.mark.parametrize(
        "name, levels", [("pascal", (9, 14)), ("quartic", (15, 17)), ("q3", (11, 14))]
    )
    def test_starts_match_the_pair_scan(self, all_diagrams, name, levels):
        # same starts, same order, same witnesses; with d = 2 a pair shares
        # several sources, so the greatest is the one asked for
        diagram = all_diagrams[name]
        for level in levels:
            starts = find_chain_start(diagram, level)
            assert starts and starts == scan_chain_starts(diagram, level)

    def test_smallest_pascal_level(self, pascal):
        # below level 2d + 7 = 9 the window 2d^2 + 4d <= v'(j) < v(j) <= (L - 2)d is empty
        with pytest.raises(PreconditionNotMet, match="2d \\+ 7 = 9, got 8"):
            find_chain_start(pascal, 8)
        starts = find_chain_start(pascal, 9)
        assert [
            (s.v.coords, s.v_prime.coords, s.direction, s.shared.coords)
            for s in starts
        ] == [
            ((7, 2), (6, 3), 1, (6, 2)),
            ((2, 7), (3, 6), 2, (2, 6)),
        ]

    def test_level_ten(self, pascal):
        starts = find_chain_start(pascal, 10)
        rows = [
            (s.v.coords, s.v_prime.coords, s.direction, s.shared.coords)
            for s in starts
        ]
        assert ((8, 2), (7, 3), 1, (7, 2)) in rows
        assert len(rows) == 4

    def test_quartic_vacuous_inequality(self, quartic):
        # 2d^2 + 4d = 48 exceeds (8 - 2) * 4 = 24, so no pair could qualify
        with pytest.raises(PreconditionNotMet, match="2d \\+ 7 = 15, got 8"):
            find_chain_start(quartic, 8)
        # at 2d + 7 = 15 the window 48 <= v'(j) < v(j) <= 52 holds pairs
        assert find_chain_start(quartic, 15)

    def test_starts_extend(self, pascal):
        for s in find_chain_start(pascal, 10):
            chain = build_distinguished_chain(
                pascal, s.v, s.v_prime, s.shared, s.direction, 4
            )
            assert validate_chain(pascal, chain).is_straight
            assert all(
                not is_covered_oracle(pascal, v) for v in chain.splitting
            )


class TestLinkConsequences:
    def test_pascal_example(self, pascal):
        report = check_link_consequences(
            pascal, pascal.vertex((7, 3)), pascal.vertex((6, 4)), 1
        )
        assert report.drop_source_absent_status == "pass"
        assert report.sources_uncovered_status == "pass"
        assert report.targets_uncovered_status == "pass"
        assert report.candidates_status == "pass"
        assert [v.coords for v in report.candidates] == [(5, 5)]

    def test_rising_direction_not_applicable(self, pascal):
        report = check_link_consequences(
            pascal, pascal.vertex((5, 5)), pascal.vertex((6, 4)), 1
        )
        assert report.drop_source_absent_status == "not applicable"

    def test_quartic_link(self, quartic):
        report = check_link_consequences(
            quartic, quartic.vertex((13, 7)), quartic.vertex((12, 8)), 1
        )
        assert report.sources_uncovered_status == "pass"  # 8 <= 12 <= 12
        assert report.targets_uncovered_status == "pass"
        assert report.candidates_status == "pass"

    def test_window_outside_not_applicable(self, pascal):
        report = check_link_consequences(
            pascal, pascal.vertex((9, 1), level=10), pascal.vertex((10, 0), level=10), 1
        )
        assert report.sources_uncovered_status == "not applicable"  # 10 > (10-2)*1
        assert report.candidates_status == "not applicable"
        assert report.candidates == ()  # (9,0) feeds only this pair

    @pytest.mark.parametrize(
        "name, w0, w1, sources_window, candidates_window",
        [
            # (b) 2d <= w1(j) <= (level - 2) * d and (c) 2d <= w1(j) <= w0(j) <= (level - 1) * d,
            # each bound met exactly, then missed by one
            ("pascal", (3, 5), (2, 6), True, True),  # w1(j) = 2d
            ("pascal", (2, 6), (1, 7), False, False),
            ("quartic", (9, 11), (8, 12), True, True),
            ("quartic", (8, 12), (7, 13), False, False),
            ("pascal", (7, 1), (6, 2), True, True),  # w1(j) = (level - 2) * d, w0(j) = (level - 1) * d
            ("pascal", (8, 0), (7, 1), False, False),
            ("q3", (10, 1, 1), (9, 1, 2), False, True),  # w0(j) = (level - 1) * d
            ("q3", (11, 1, 0), (10, 1, 1), False, False),
            ("q3", (4, 4, 4), (4, 3, 5), True, True),  # w1(j) = w0(j)
            ("q3", (4, 4, 4), (5, 3, 4), True, False),
        ],
    )
    def test_window_bounds(self, all_diagrams, name, w0, w1, sources_window, candidates_window):
        diagram = all_diagrams[name]
        report = check_link_consequences(diagram, diagram.vertex(w0), diagram.vertex(w1), 1)
        statuses = {report.sources_uncovered_status, report.targets_uncovered_status}
        assert {status != "not applicable" for status in statuses} == {sources_window}
        assert (report.candidates_status != "not applicable") == candidates_window
        assert report.candidates  # w1's drop source feeds a third vertex

    def test_hypotheses_enforced(self, pascal):
        v = pascal.vertex((7, 3))
        with pytest.raises(HypothesisNotMet):
            check_link_consequences(pascal, v, v, 1)
        with pytest.raises(HypothesisNotMet):
            check_link_consequences(pascal, v, pascal.vertex((3, 7)), 1)
        with pytest.raises(ValueError):
            check_link_consequences(pascal, v, Vertex(10, (3, 6)), 1)  # off the lattice

    def test_shared_source_hypothesis_matches_the_source_sets(self, all_diagrams):
        # the hypothesis is read off the two vertices' coordinates; the oracle
        # intersects their source sets
        custom = Diagram(parse_polynomial("3 x1^2 + x1 x2 + 2 x2^2"))
        for diagram in (*all_diagrams.values(), custom):
            for level in range(1, 5):
                vertices = diagram.vertices(level)
                for w0 in vertices:
                    for w1 in vertices:
                        if w0 == w1:
                            continue
                        share = not set(diagram.source_set(w0)).isdisjoint(diagram.source_set(w1))
                        try:
                            check_link_consequences(diagram, w0, w1, 1)
                            met = True
                        except HypothesisNotMet as exc:
                            assert str(exc) == f"{w0} and {w1} share no source"
                            met = False
                        assert met == share, (w0, w1)
