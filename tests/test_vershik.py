"""Edge labelings, successor dynamics, towers, ranks, and coding words."""

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basic_block, k_coding_symbol, polynomial_specs
from conftest import OFF_LATTICE, raised_within
from polyadic import Diagram, EdgeRef, Ordering, Vertex, chains, coverage, parse_polynomial
from polyadic.errors import (
    MaximalAtHorizon,
    MinimalAtHorizon,
    NonBijectiveLabeling,
    RankOutOfRange,
    TowerTooLarge,
)
from polyadic.vershik import FinitePath, _mix, make_ordering


def visited(path):
    return [v.coords for v in path.vertices()]


def labels_of(ordering, path):
    return [ordering.label_of(e) for e in path.edges]


def rank_oracle(ordering, path):
    """Tower position from the labels alone: each edge adds the dimensions of
    the sources below it in its target's label order."""
    dimension = ordering.diagram.dimension
    return sum(
        dimension(f.source)
        for e in path.edges
        for f in ordering.edges_in(e.target)[: ordering.label_of(e) - 1]
    )


def label_order_oracle(ordering, w):
    """w's incoming edges in label order, built for w alone: a sorted scan of
    its sources, then the explicit table's permutation or the preset's."""
    d = ordering.diagram
    edges = [
        EdgeRef(d.vertex(u), w, c) for u, count in sorted(d._lower(w.coords)) for c in range(1, count + 1)
    ]
    explicit = {}
    for key, labels in ordering.table.items():
        level, _, coords = key.partition(":")
        explicit[d.vertex(map(int, coords.split(",")), int(level))] = labels
    if w in explicit:
        return tuple(edge for _, edge in sorted(zip(explicit[w], edges)))
    if ordering.preset == "source-revlex":
        edges.reverse()
    elif ordering.preset == "random":
        random.Random(_mix(ordering.seed, w)).shuffle(edges)
    return tuple(edges)


def random_table(diagram, rng, max_level):
    """An explicit table that permutes the labels at about half the vertices up to a level."""
    table = {}
    for level in range(1, max_level + 1):
        for w in diagram.vertices(level):
            if rng.random() < 0.5:
                labels = list(range(1, diagram.indegree(w) + 1))
                rng.shuffle(labels)
                table[f"{level}:{','.join(map(str, w.coords))}"] = labels
    return table


# every preset, and an explicit table from a seeded generator
PRESETS = [("source-lex", None), ("source-revlex", None), ("random", 0), ("random", 5), ("explicit", 3)]


def preset_ordering(diagram, preset, seed):
    """The ordering of a `PRESETS` entry; the explicit one relabels up to level 3."""
    if preset == "explicit":
        return Ordering(diagram, preset, table=random_table(diagram, random.Random(seed), 3))
    return Ordering(diagram, preset, seed)


def advanced_edge(x, y):
    """Position of the edge that successor(x) == y advanced: the last that differs."""
    return max(k for k, (a, b) in enumerate(zip(x.edges, y.edges)) if a != b)


class TestOrderings:
    def test_source_lex_labels(self, pascal, pascal_lex):
        edges = pascal_lex.edges_in(pascal.vertex((2, 1)))
        assert [e.source.coords for e in edges] == [(1, 1), (2, 0)]
        assert [pascal_lex.label_of(e) for e in edges] == [1, 2]

    def test_revlex_reverses(self, pascal):
        lex = Ordering(pascal)
        rev = Ordering(pascal, preset="source-revlex")
        for level in range(1, 6):
            for w in pascal.vertices(level):
                assert rev.edges_in(w) == tuple(reversed(lex.edges_in(w)))

    def test_copies_stay_adjacent(self, quartic):
        ordering = Ordering(quartic)
        edges = ordering.edges_in(quartic.vertex((6, 6)))
        assert [(e.source.coords, e.copy) for e in edges] == [
            ((2, 6), 1),
            ((3, 5), 1),
            ((3, 5), 2),
            ((4, 4), 1),
            ((5, 3), 1),
            ((5, 3), 2),
            ((5, 3), 3),
            ((6, 2), 1),
        ]

    def test_random_is_seed_deterministic(self, pascal):
        a = Ordering(pascal, preset="random", seed=7)
        b = Ordering(pascal, preset="random", seed=7)
        c = Ordering(pascal, preset="random", seed=8)
        same = True
        for level in range(1, 6):
            for w in pascal.vertices(level):
                assert a.edges_in(w) == b.edges_in(w)
                same = same and a.edges_in(w) == c.edges_in(w)
        assert not same

    def test_seed_needs_the_random_preset(self, pascal):
        with pytest.raises(ValueError, match="random"):
            Ordering(pascal, "source-revlex", seed=1)
        with pytest.raises(ValueError, match="random"):
            make_ordering(pascal, {"preset": "source-lex", "seed": 3})
        with pytest.raises(ValueError, match="random"):
            make_ordering(pascal, {"explicit": {"1:1,0": [1]}, "seed": 3})
        assert Ordering(pascal, "random").describe() == {"preset": "random", "seed": 0}

    def test_random_labels_independent_of_query_order(self, quartic):
        a = Ordering(quartic, preset="random", seed=11)
        b = Ordering(quartic, preset="random", seed=11)
        w = quartic.vertex((8, 4))
        # touch b's cache in a scrambled order first
        for v in reversed(quartic.vertices(2)):
            b.edges_in(v)
        assert a.edges_in(w) == b.edges_in(w)

    def test_every_labeling_is_bijective(self, all_diagrams):
        for diagram in all_diagrams.values():
            for preset in ("source-lex", "source-revlex", "random"):
                ordering = Ordering(diagram, preset=preset, seed=5 if preset == "random" else None)
                for level in range(1, 5):
                    for w in diagram.vertices(level):
                        edges = ordering.edges_in(w)
                        assert sorted(ordering.label_of(e) for e in edges) == list(
                            range(1, len(edges) + 1)
                        )
                        assert len(edges) == diagram.indegree(w)

    @pytest.mark.parametrize("preset, seed", PRESETS)
    def test_labels_match_the_per_vertex_oracle(self, all_diagrams, preset, seed):
        # in order, not only as a set, at every vertex of the first levels
        for name, max_level in (("pascal", 6), ("quartic", 3), ("q3", 4)):
            diagram = all_diagrams[name]
            ordering = preset_ordering(diagram, preset, seed)
            for level in range(max_level + 1):
                for w in diagram.vertices(level):
                    assert ordering.edges_in(w) == label_order_oracle(ordering, w), (name, w)

    def test_explicit_table_relabels(self, pascal):
        ordering = Ordering(pascal, preset="explicit", table={"2:1,1": [2, 1]})
        w = pascal.vertex((1, 1))
        assert [e.source.coords for e in ordering.edges_in(w)] == [(1, 0), (0, 1)]
        # untouched vertices keep the source-lex base
        assert [e.source.coords for e in ordering.edges_in(pascal.vertex((2, 1)))] == [
            (1, 1),
            (2, 0),
        ]

    def test_explicit_table_must_be_bijective(self, pascal):
        with pytest.raises(NonBijectiveLabeling):  # at construction, before any table
            Ordering(pascal, preset="explicit", table={"2:1,1": [1, 1]})

    @pytest.mark.parametrize(
        "spec, error",
        [
            ({"presett": "random"}, ValueError),
            ({"preset": "random", "explicit": {}}, ValueError),
            ({"preset": "explicit"}, ValueError),
            ({"preset": "random", "seed": "5"}, ValueError),
            ({"preset": "random", "seed": True}, ValueError),
            ({"explicit": {"9:1,2": [1]}}, ValueError),
            ({"explicit": {"2:1,1,0": [1, 2]}}, ValueError),
            ({"explicit": {"2-1,1": [1, 2]}}, ValueError),
            ({"explicit": {"2:1,1": [2, 1], "2:01,1": [1, 2]}}, ValueError),
            ({"explicit": {"40:20,20": [1, 1]}}, NonBijectiveLabeling),
            ({"explicit": {"2:1,1": [1]}}, NonBijectiveLabeling),
            ({"explicit": {"2:1,1": ["1", "2"]}}, NonBijectiveLabeling),
            ({"explicit": {"2:1,1": 12}}, NonBijectiveLabeling),
            ('{"preset": "random", "seed": 1.5}', ValueError),
            ("{not json", ValueError),
        ],
    )
    def test_the_whole_spec_is_checked_at_construction(self, pascal, spec, error):
        with pytest.raises(error):
            make_ordering(pascal, spec)

    def test_make_ordering_forms(self, pascal):
        assert make_ordering(pascal).preset == "source-lex"
        assert make_ordering(pascal, "source-revlex").preset == "source-revlex"
        random_spec = make_ordering(pascal, {"preset": "random", "seed": 3})
        assert (random_spec.preset, random_spec.seed) == ("random", 3)
        explicit = make_ordering(pascal, {"explicit": {"2:1,1": [2, 1]}})
        assert explicit.preset == "explicit"
        with pytest.raises(ValueError):
            Ordering(pascal, preset="alphabetical")


class TestExtremePaths:
    def test_minimal_visits(self, pascal, pascal_lex):
        assert visited(pascal_lex.minimal_path(pascal.vertex((2, 1)))) == [
            (0, 0),
            (0, 1),
            (1, 1),
            (2, 1),
        ]

    def test_maximal_visits(self, pascal, pascal_lex):
        assert visited(pascal_lex.maximal_path(pascal.vertex((2, 1)))) == [
            (0, 0),
            (1, 0),
            (2, 0),
            (2, 1),
        ]

    def test_root_paths_are_empty(self, pascal, pascal_lex):
        assert pascal_lex.minimal_path(pascal.root).edges == ()
        assert pascal_lex.maximal_path(pascal.root).edges == ()

    def test_extremes_bound_the_tower(self, quartic):
        ordering = Ordering(quartic)
        v = quartic.vertex((8, 4))
        tower = ordering.tower(v)  # a successor walk from minimal_path
        with pytest.raises(MinimalAtHorizon):
            ordering.predecessor(tower[0])
        assert tower[len(tower) - 1] == ordering.maximal_path(v)

    @pytest.mark.parametrize("preset, seed", PRESETS)
    def test_extremes_are_all_first_and_all_last_labels(self, all_diagrams, preset, seed):
        # read off the labels, not compared with the ranks the same descent unranks
        for name, max_level in (("pascal", 6), ("quartic", 3), ("q3", 4)):
            diagram = all_diagrams[name]
            ordering = preset_ordering(diagram, preset, seed)
            for level in range(max_level + 1):
                for v in diagram.vertices(level):
                    low, high = ordering.minimal_path(v), ordering.maximal_path(v)
                    assert FinitePath(v, low.edges) == low and FinitePath(v, high.edges) == high
                    assert labels_of(ordering, low) == [1] * level
                    assert labels_of(ordering, high) == [diagram.indegree(e.target) for e in high.edges]

    @pytest.mark.parametrize("preset, seed", PRESETS)
    def test_every_path_is_made_of_view_edges(self, all_diagrams, preset, seed):
        # the successor machine and path_rank find an edge's slot by identity
        # first; a path of equal but new edges pays a hash and a compare per lookup
        for name, max_level in (("pascal", 5), ("quartic", 2), ("q3", 3)):
            diagram = all_diagrams[name]
            ordering = preset_ordering(diagram, preset, seed)  # cold: unranks come first
            for level in range(max_level + 1):
                for v in diagram.vertices(level):
                    dim = diagram.dimension(v)
                    unranked = [ordering.path_unrank(v, rank) for rank in range(dim)]
                    paths = unranked + list(ordering.iter_tower(v))  # successors from minimal_path
                    x = ordering.maximal_path(v)
                    paths.append(x)
                    for _ in range(dim - 1):
                        paths.append(x := ordering.predecessor(x))
                    paths += map(ordering.successor, unranked[:-1])
                    paths += map(ordering.predecessor, unranked[1:])
                    for x in paths:
                        for e in x.edges:
                            assert e is ordering.edges_in(e.target)[ordering.label_of(e) - 1]

    def test_deep_extremes_step_each_level_once(self, monkeypatch):
        # top-down, every level's table would step its dimension row up from
        # row 0 again: 45,451 `_shifts` calls at this vertex, not 2 per level
        pascal = Diagram(parse_polynomial("x1 + x2"))
        calls = []
        shifts = Diagram._shifts

        def counted(diagram, level):
            calls.append(level)
            return shifts(diagram, level)

        monkeypatch.setattr(Diagram, "_shifts", counted)
        ordering = Ordering(pascal)
        v = pascal.vertex((300, 1))
        assert visited(ordering.minimal_path(v))[-2:] == [(299, 1), (300, 1)]
        assert visited(ordering.maximal_path(v))[-3:] == [(299, 0), (300, 0), (300, 1)]
        assert len(calls) <= 2 * 301 + 4

    def test_cold_unrank_steps_each_level_once(self, monkeypatch):
        # reading the row before the tables stepped it up from the root on its
        # own, then every row below it again: 902 `_shifts` calls here
        pascal = Diagram(parse_polynomial("x1 + x2"))
        calls = []
        shifts = Diagram._shifts

        def counted(diagram, level):
            calls.append(level)
            return shifts(diagram, level)

        monkeypatch.setattr(Diagram, "_shifts", counted)
        ordering = Ordering(pascal)
        v = pascal.vertex((300, 1))
        assert visited(ordering.path_unrank(v, 5))[-2:] == [(299, 1), (300, 1)]
        assert len(calls) <= 2 * 301 + 4
        with pytest.raises(RankOutOfRange):
            ordering.path_unrank(v, 301)


class TestSuccessor:
    def test_two_path_tower(self, pascal, pascal_lex):
        v = pascal.vertex((1, 1))
        low = pascal_lex.minimal_path(v)
        assert visited(low) == [(0, 0), (0, 1), (1, 1)]
        high = pascal_lex.successor(low)
        assert visited(high) == [(0, 0), (1, 0), (1, 1)]
        with pytest.raises(MaximalAtHorizon):
            pascal_lex.successor(high)

    def test_predecessor_inverts(self, pascal, pascal_lex):
        v = pascal.vertex((2, 2))
        for x in pascal_lex.tower(v):
            if x != pascal_lex.maximal_path(v):
                assert pascal_lex.predecessor(pascal_lex.successor(x)) == x
        with pytest.raises(MinimalAtHorizon):
            pascal_lex.predecessor(pascal_lex.minimal_path(v))

    def test_tower_enumerates_every_path(self, all_diagrams):
        for diagram in all_diagrams.values():
            ordering = Ordering(diagram)
            for level in range(1, 4):
                for v in diagram.vertices(level):
                    tower = ordering.tower(v)
                    assert len(tower) == diagram.dimension(v)
                    assert len({x.edges for x in tower}) == len(tower)

    def test_tower_with_parallel_edges(self, quartic):
        ordering = Ordering(quartic)
        tower = ordering.tower(quartic.vertex((4, 4)))
        assert len(tower) == 15
        copies = {tuple(e.copy for e in x.edges) for x in tower}
        assert len(copies) > 1  # copy indices distinguish parallel paths

    def test_deepest_differing_edge_order(self, pascal, quartic):
        # rank order is lexicographic on label words read deepest edge first
        for diagram, coords in ((pascal, (2, 2)), (quartic, (8, 4))):
            ordering = Ordering(diagram)
            tower = ordering.tower(diagram.vertex(coords))
            words = [labels_of(ordering, x)[::-1] for x in tower]
            assert words == sorted(words)

    @pytest.mark.parametrize(
        "step, cache, extreme",
        [("successor", "_minimal", "minimal_path"), ("predecessor", "_maximal", "maximal_path")],
    )
    def test_seam_check_trips_on_a_wrong_cached_head(self, pascal, step, cache, extreme):
        # the cached extreme path into the moved edge's source is spliced in on
        # trust; one into another vertex must raise, not join a broken path
        ordering = Ordering(pascal)
        x = getattr(ordering, extreme)(pascal.vertex((2, 2)))
        y = getattr(ordering, step)(x)
        head = y.edges[advanced_edge(x, y)].source
        other = next(u for u in pascal.vertices(head.level) if u != head)
        getattr(ordering, cache)[head] = getattr(ordering, extreme)(other)
        with pytest.raises(ValueError, match="does not meet"):
            getattr(ordering, step)(x)

    def test_seam_check_trips_on_a_wrong_slot(self, pascal):
        # a slot pointing at another vertex's edges would move x's first edge
        # to an edge that does not end where it did
        ordering = Ordering(pascal)
        x = ordering.minimal_path(pascal.vertex((2, 2)))
        label, _, offset = ordering._slots[x.edges[0]]
        other = ordering.edges_in(pascal.vertex((1, 1)))
        ordering._slots[x.edges[0]] = (label, (None, *other, None), offset)
        with pytest.raises(ValueError, match="does not meet"):
            ordering.successor(x)

    def test_edges_of_no_table_raise_value_error(self, pascal):
        ordering = Ordering(pascal)
        root = pascal.root
        for edge in (
            EdgeRef(root, pascal.vertex((1, 0)), 2),  # copy above the multiplicity
            EdgeRef(root, pascal.vertex((2, 0))),  # target two levels up
            EdgeRef(root, Vertex(1, (1, 0, 0))),  # not a vertex of the diagram
        ):
            x = FinitePath(edge.target, (edge,))
            named = re.escape(repr(edge))
            with pytest.raises(ValueError, match=named):
                ordering.label_of(edge)
            with pytest.raises(ValueError, match=named):
                ordering.path_rank(x)
            with pytest.raises(ValueError, match=named):
                ordering.successor(x)
            with pytest.raises(ValueError, match=named):
                ordering.predecessor(x)

    def test_budget_guard(self, pascal, pascal_lex):
        with pytest.raises(TowerTooLarge):
            pascal_lex.tower(pascal.vertex((2, 2)), budget=5)

    def test_iter_tower_matches(self, pascal, pascal_lex):
        v = pascal.vertex((3, 1))
        assert tuple(pascal_lex.iter_tower(v)) == pascal_lex.tower(v)


class TestRanks:
    def test_round_trip_small(self, pascal, pascal_lex):
        v = pascal.vertex((2, 2))
        for rank, x in enumerate(pascal_lex.tower(v)):
            assert pascal_lex.path_rank(x) == rank
            assert pascal_lex.path_unrank(v, rank) == x

    def test_round_trip_everywhere(self, all_diagrams):
        for diagram in all_diagrams.values():
            ordering = Ordering(diagram, preset="random", seed=2)
            for level in range(1, 4):
                for v in diagram.vertices(level):
                    for rank, x in enumerate(ordering.iter_tower(v)):
                        assert ordering.path_rank(x) == rank
                        assert ordering.path_unrank(v, rank) == x

    def test_extreme_ranks(self, pascal, pascal_lex):
        v = pascal.vertex((3, 2))
        assert pascal_lex.path_rank(pascal_lex.minimal_path(v)) == 0
        assert (
            pascal_lex.path_rank(pascal_lex.maximal_path(v))
            == pascal.dimension(v) - 1
        )

    def test_rank_bounds(self, pascal, pascal_lex):
        v = pascal.vertex((2, 1))
        with pytest.raises(RankOutOfRange):
            pascal_lex.path_unrank(v, 3)
        with pytest.raises(RankOutOfRange):
            pascal_lex.path_unrank(v, -1)


class TestCallerVertices:
    @pytest.mark.parametrize("kind", sorted(OFF_LATTICE))
    @pytest.mark.parametrize(
        "call",
        [
            lambda o, v: o.edges_in(v),
            lambda o, v: o.indegree(v),
            lambda o, v: o.minimal_path(v),
            lambda o, v: o.maximal_path(v),
            lambda o, v: o.path_unrank(v, 0),
            lambda o, v: o.label_of(EdgeRef(o.diagram.root, v)),
            lambda o, v: o.vertex_coding(v, 0),
            lambda o, v: o.diagram.source_set(v),
            lambda o, v: o.diagram.targets(v),
            lambda o, v: o.diagram.dimension(v),
            lambda o, v: o.diagram.dsv(v, 1),
            lambda o, v: o.diagram.indegree(v),
            lambda o, v: o.diagram.multiplicity(v, o.diagram.vertex((1, 1))),
            lambda o, v: o.diagram.edges_between(o.diagram.vertex((0, 1)), v),
            lambda o, v: o.diagram.connect(v, v),
            lambda o, v: coverage.covering_vertices(o.diagram, v),
            lambda o, v: coverage.is_covered_oracle(o.diagram, v),
            lambda o, v: coverage.is_covered_formula(o.diagram, v),
            lambda o, v: coverage.slack(o.diagram, v, 1),
            lambda o, v: coverage.source_ladder(o.diagram, v, 1),
            lambda o, v: chains.validate_chain(o.diagram, chains.Chain(v[0], (v,), ())),
            lambda o, v: chains.build_distinguished_chain(
                o.diagram, v, o.diagram.vertex((1, 1)), o.diagram.vertex((0, 1)), 1, 3
            ),
        ],
        ids=["edges_in", "indegree", "minimal_path", "maximal_path", "path_unrank", "label_of",
             "vertex_coding", "source_set", "targets", "dimension", "dsv", "diagram_indegree",
             "multiplicity", "edges_between", "connect", "covering_vertices", "is_covered_oracle",
             "is_covered_formula", "slack", "source_ladder", "validate_chain",
             "build_distinguished_chain"],
    )
    def test_off_the_lattice_raises(self, call, kind):
        # the caches key on vertex values and are warm through level 2, which
        # holds (1, 1): Vertex(7, (1, 1)) of the level kind must still miss,
        # and Vertex(0, (-1, 1)) of the negative kind must miss level 0's cover map
        ordering = Ordering(Diagram(parse_polynomial("x1 + x2")))
        d = ordering.diagram
        for u in (u for level in range(3) for u in d.vertices(level)):
            d.source_set(u), d.targets(u), coverage.covering_vertices(d, u)
            ordering.edges_in(u), ordering.minimal_path(u), ordering.maximal_path(u)
        assert Vertex(2, OFF_LATTICE["level"].coords) in ordering._minimal
        error = raised_within(lambda: call(ordering, OFF_LATTICE[kind]))
        assert isinstance(error, ValueError), error

    @pytest.mark.parametrize(
        "call",
        [
            lambda o, v: o.diagram.source_set(v),
            lambda o, v: o.diagram.targets(v),
            lambda o, v: o.edges_in(v),
            lambda o, v: o.minimal_path(v),
            lambda o, v: o.maximal_path(v),
            lambda o, v: o.path_unrank(v, 1),
            lambda o, v: o.vertex_coding(v, 1),
            lambda o, v: coverage.covering_vertices(o.diagram, v),
            lambda o, v: coverage.is_covered_oracle(o.diagram, v),
            lambda o, v: coverage.is_covered_formula(o.diagram, v),
            lambda o, v: coverage.slack(o.diagram, v, 1),
            lambda o, v: coverage.source_ladder(o.diagram, v, 1),
            lambda o, v: chains.validate_chain(
                o.diagram,
                chains.Chain(2, (v, o.diagram.vertex((2, 0))), (o.diagram.vertex((1, 0)),)),
            ),
            lambda o, v: chains.build_distinguished_chain(
                o.diagram, v, o.diagram.vertex((2, 0)), o.diagram.vertex((1, 0)), 1, 2
            ),
            lambda o, v: chains.check_link_consequences(o.diagram, v, o.diagram.vertex((2, 0)), 1),
        ],
        ids=["source_set", "targets", "edges_in", "minimal_path", "maximal_path", "path_unrank",
             "vertex_coding", "covering_vertices", "is_covered_oracle", "is_covered_formula",
             "slack", "source_ladder", "validate_chain", "build_distinguished_chain",
             "check_link_consequences"],
    )
    def test_a_plain_pair_gets_one_answer_cold_or_warm(self, call):
        cold, warm = (Ordering(Diagram(parse_polynomial("x1 + x2"))) for _ in range(2))
        expected = call(warm, warm.diagram.vertex((1, 1)))  # warms the caches
        assert call(cold, (2, (1, 1))) == expected
        assert call(warm, (2, (1, 1))) == expected

    def test_equal_vertex_is_the_interned_one(self, pascal, pascal_lex):
        v, same = pascal.vertex((2, 1)), Vertex(3, (2, 1))
        assert pascal_lex.edges_in(same) is pascal_lex.edges_in(v)
        assert pascal_lex.minimal_path(same) is pascal_lex.minimal_path(v)
        assert pascal_lex.maximal_path(same) is pascal_lex.maximal_path(v)
        assert pascal_lex.vertex_coding(same, 1) == pascal_lex.vertex_coding(v, 1)


class TestCoding:
    def test_symbol_prefix_equivalence(self, pascal, pascal_lex):
        v = pascal.vertex((2, 2))
        tower = pascal_lex.tower(v)
        for k in range(v.level + 1):
            for a in tower:
                for b in tower:
                    assert (k_coding_symbol(a, k) == k_coding_symbol(b, k)) == (
                        a.edges[:k] == b.edges[:k]
                    )

    def test_level_one_divergence(self, pascal, pascal_lex):
        v = pascal.vertex((1, 1))
        low, high = pascal_lex.tower(v)
        assert k_coding_symbol(low, 0) == k_coding_symbol(high, 0) == ()
        assert k_coding_symbol(low, 1) != k_coding_symbol(high, 1)

    def test_symbol_depth_validation(self, pascal, pascal_lex):
        x = pascal_lex.minimal_path(pascal.vertex((2, 1)))
        with pytest.raises(ValueError):
            k_coding_symbol(x, 4)

    def test_vertex_coding_words(self, pascal, pascal_lex):
        w = pascal.vertex((2, 1))
        assert [v.coords for v in pascal_lex.vertex_coding(w, 2)] == [(1, 1), (2, 0)]
        assert [v.coords for v in pascal_lex.vertex_coding(w, 1)] == [
            (0, 1),
            (1, 0),
            (1, 0),
        ]

    def test_level_one_word_repeats_root(self, quartic):
        ordering = Ordering(quartic)
        w = quartic.vertex((3, 1))
        word = ordering.vertex_coding(w, 0)
        assert word == (quartic.root,) * quartic.indegree(w)
        assert len(word) == 2

    def test_deep_word_on_a_cold_diagram(self):
        # one level per recursion frame would pass the interpreter's limit
        pascal = Diagram(parse_polynomial("x1 + x2"))
        ordering = Ordering(pascal)
        assert ordering.vertex_coding(pascal.vertex((1500, 0)), 0) == (pascal.root,)
        assert ordering.vertex_coding(pascal.vertex((1500, 1)), 0) == (pascal.root,) * 1501

    def test_words_are_not_kept(self):
        # a memo of every down-set vertex's word would hold O(level^2) letters
        pascal = Diagram(parse_polynomial("x1 + x2"))
        w = pascal.vertex((3000, 1))
        Ordering(pascal).vertex_coding(w, 0)  # the diagram's own caches are warm
        tracemalloc.start()
        try:
            ordering = Ordering(pascal)
            assert ordering.vertex_coding(w, 0) == (pascal.root,) * 3001
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 5_000_000

    def test_coding_matches_tower_visits(self, pascal, quartic):
        # paths sharing a level-j-to-w segment sit in one contiguous tower
        # block of dim(u) paths, so expanding the word by dim recovers the
        # level-j visit sequence of the whole tower
        for diagram, max_level in ((pascal, 4), (quartic, 3)):
            ordering = Ordering(diagram, preset="random", seed=9)
            for level in range(1, max_level + 1):
                for w in diagram.vertices(level):
                    tower = ordering.tower(w)
                    for j in range(level):
                        word = ordering.vertex_coding(w, j)
                        visits = [x.vertices()[j] for x in tower]
                        expanded = [
                            u for u in word for _ in range(diagram.dimension(u))
                        ]
                        assert visits == expanded

    def test_basic_block_examples(self, pascal, pascal_lex):
        a = ((0, 1), 0)
        b = ((1, 0), 0)
        assert basic_block(pascal_lex, pascal.vertex((1, 1)), 1) == (a, b)
        assert basic_block(pascal_lex, pascal.vertex((2, 2)), 1) == (a, a, b, a, b, b)

    def test_basic_block_lengths(self, pascal, pascal_lex):
        for level in range(1, 7):
            for v in pascal.vertices(level):
                for k in (0, 1, level):
                    block = basic_block(pascal_lex, v, k)
                    assert len(block) == pascal.dimension(v)
                    if k == level:
                        assert len(set(block)) == len(block)

    @pytest.mark.parametrize("preset, seed", [("source-lex", None), ("source-revlex", None), ("random", 5)])
    def test_basic_block_matches_the_symbol_oracle(self, all_diagrams, preset, seed):
        # rank by rank, the block's symbols and the oracle's are in bijection
        for name, max_level in (("pascal", 4), ("quartic", 2), ("q3", 3)):
            diagram = all_diagrams[name]
            ordering = Ordering(diagram, preset=preset, seed=seed)
            for level in range(max_level + 1):
                for v in diagram.vertices(level):
                    tower = ordering.tower(v)
                    for k in range(level + 1):
                        symbols = (k_coding_symbol(x, k) for x in tower)
                        pairs = set(zip(basic_block(ordering, v, k), symbols))
                        assert len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)


class TestFinitePaths:
    def test_contiguity_enforced(self, pascal, pascal_lex):
        v = pascal.vertex((2, 1))
        good = pascal_lex.minimal_path(v)
        with pytest.raises(ValueError):
            FinitePath(v, good.edges[:1])  # does not reach the terminal
        with pytest.raises(ValueError):
            FinitePath(v, (good.edges[0], good.edges[0], good.edges[2]))
        with pytest.raises(ValueError):
            FinitePath(v, ())

    def test_vertices_walk(self, quartic):
        ordering = Ordering(quartic)
        x = ordering.maximal_path(quartic.vertex((8, 4)))
        walk = x.vertices()
        assert walk[0] == quartic.root
        assert walk[-1] == quartic.vertex((8, 4))
        assert [v.level for v in walk] == [0, 1, 2, 3]


@st.composite
def diagram_orderings(draw):
    """A random valid polynomial, 2-4 variables of degree 1-4 with parallel
    edges, under a preset ordering (source-lex, source-revlex or seeded
    random) or an explicit table."""
    diagram = Diagram(draw(polynomial_specs(max_degree=4, max_arity=4)))
    preset = draw(st.sampled_from(["source-lex", "source-revlex", "random", "explicit"]))
    seed = draw(st.integers(0, 2**32)) if preset == "random" else None
    table = None
    if preset == "explicit":
        table = random_table(diagram, random.Random(draw(st.integers(0, 99))), 2)
    ordering = Ordering(diagram, preset, seed, table)
    level = draw(st.integers(min_value=1, max_value=4))
    v = draw(st.sampled_from(diagram.vertices(level)))
    while diagram.dimension(v) > 200:
        v = diagram.source_set(v)[0]
    return diagram, ordering, v


class TestTableProperties:
    @given(case=diagram_orderings())
    @settings(max_examples=60, deadline=None)
    def test_machine_paths_pass_full_validation(self, case):
        # successor and predecessor check only their seams, so every path they
        # return must still pass the validating constructor
        _, ordering, v = case
        tower = list(ordering.iter_tower(v))
        made = tower + [ordering.predecessor(x) for x in tower[1:]]
        made += [ordering.path_unrank(v, rank) for rank in range(len(tower))]
        for x in made:
            assert FinitePath(x.terminal, x.edges) == x
            assert ordering.path_rank(x) == rank_oracle(ordering, x)
        assert [ordering.path_rank(x) for x in tower] == list(range(len(tower)))

    @given(case=diagram_orderings())
    @settings(max_examples=60, deadline=None)
    def test_tower_machine(self, case):
        diagram, ordering, v = case
        for w in {v, *diagram.source_set(v)}:
            # the labeled edges are exactly the edges of the multiplicity
            # table, in the order the per-vertex oracle gives them
            expected = sorted(
                (u.coords, c)
                for u in diagram.source_set(w)
                for c in range(1, diagram.multiplicity(u, w) + 1)
            )
            assert sorted((e.source.coords, e.copy) for e in ordering.edges_in(w)) == expected
            assert ordering.edges_in(w) == label_order_oracle(ordering, w)
        # each kept dimension row is its level's polynomial coefficients
        for level in range(v.level + 1):
            expansion = diagram.expansion_coefficients(level)
            assert diagram._row(level) == [expansion[u.coords] for u in diagram.vertices(level)]
        tower = list(ordering.iter_tower(v))
        dim = diagram.dimension(v)
        assert len(tower) == dim == diagram.expansion_coefficients(v.level)[v.coords]
        assert tower[-1] == ordering.maximal_path(v)
        for rank, x in enumerate(tower):
            assert ordering.path_rank(x) == rank
            assert ordering.path_rank(ordering.path_unrank(v, rank)) == rank
            if rank + 1 < dim:
                assert ordering.predecessor(ordering.successor(x)) == x

    @given(case=diagram_orderings())
    @settings(max_examples=40, deadline=None)
    def test_neighbour_caches(self, case):
        diagram, _, v = case
        level = max(v.level, 1)
        below = diagram.vertices(level - 1)
        vertices = diagram.vertices(level)
        for w in vertices:
            sources = diagram.source_set(w)
            # a scan of the level below by multiplicity, in canonical order
            assert sources == tuple(u for u in below if diagram.multiplicity(u, w) > 0)
            assert all(u is diagram.vertex(u.coords) for u in sources)
            assert diagram.source_set(Vertex(w.level, w.coords)) is sources
        for u in below:
            targets = diagram.targets(u)
            assert targets == tuple(w for w in vertices if diagram.multiplicity(u, w) > 0)
            assert diagram.targets(Vertex(u.level, u.coords)) is targets
            for w in vertices:
                assert (u in diagram.source_set(w)) == (w in targets)

    def test_equal_but_not_identical_paths(self, quartic):
        ordering = Ordering(quartic, preset="random", seed=3)
        v = quartic.vertex((8, 4))
        for x in list(ordering.iter_tower(v))[1:-1]:
            twin = {u: Vertex(u.level, u.coords) for u in x.vertices()}
            edges = tuple(EdgeRef(twin[e.source], twin[e.target], e.copy) for e in x.edges)
            fresh = FinitePath(twin[v], edges)
            assert fresh == x
            assert fresh.terminal is not x.terminal
            assert all(a.source is not b.source for a, b in zip(fresh.edges, x.edges))
            assert ordering.path_rank(fresh) == ordering.path_rank(x)
            assert ordering.successor(fresh) == ordering.successor(x)
            assert ordering.predecessor(fresh) == ordering.predecessor(x)
            assert [ordering.label_of(e) for e in fresh.edges] == labels_of(ordering, x)
            # a value hashes as the tuple of its fields, like the diagram's own
            assert [hash(e) for e in fresh.edges] == [hash(e) for e in x.edges]
            assert [hash(u) for u in fresh.vertices()] == [hash(u) for u in x.vertices()]
            assert hash(fresh.terminal) == hash((v.level, v.coords))

    def test_equal_coords_at_different_levels_rejected(self, pascal):
        # equal coordinates at another level are another vertex
        first = EdgeRef(pascal.root, pascal.vertex((1, 0)))
        lifted = Vertex(2, (1, 0))
        second = EdgeRef(lifted, Vertex(3, (2, 0)))
        with pytest.raises(ValueError):
            FinitePath(second.target, (first, second))
        assert first.target.coords == lifted.coords
