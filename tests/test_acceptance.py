"""Package acceptance gate: eleven criteria, one summary line each.

Every criterion is self-contained and pins its own tolerances.  The terminal
summary hook in conftest prints the collected pass/fail lines after the run.
"""

import math

import pytest

from polyadic import (
    Diagram,
    Ordering,
    build_distinguished_chain,
    coverage_report,
    find_chain_start,
    is_covered_oracle,
    level_mass,
    minimal_mass_bound,
    parse_polynomial,
    probe_depth_pairs,
    solve_symmetric_weight,
    source_all_uncovered,
    verify_all,
    weight_from_theta,
)
from polyadic import _diagonals, coverage
from polyadic.cli import main as cli_main
from polyadic.errors import MaximalAtHorizon, MinimalAtHorizon

from conftest import PASCAL_TEXT, Q3_TEXT, QUARTIC_TEXT, all_ones, k_coding_symbol

ALL_TEXTS = (PASCAL_TEXT, QUARTIC_TEXT, Q3_TEXT)

ACCEPTANCE_LOG: list[str] = []


def check(num: int, title: str, problems: list) -> None:
    status = "pass" if not problems else "FAIL"
    ACCEPTANCE_LOG.append(f"criterion {num:02d} {status}  {title}")
    assert not problems, f"criterion {num}: {problems[:5]}"


@pytest.fixture(scope="module")
def verified(all_diagrams):
    return {name: verify_all(diagram, 8) for name, diagram in all_diagrams.items()}


def test_criterion_01_vertex_counts(quartic, q3):
    problems = []
    labels = tuple(v.coords for v in quartic.vertices(3))
    if labels != tuple((12 - k, k) for k in range(13)):
        problems.append(("level 3 labels", labels))
    for n in range(1, 9):
        expected = math.comb(2 * n + 2, 2)
        if q3.vertex_count(n) != expected or len(q3.vertices(n)) != expected:
            problems.append(("three-variable count", n))
    check(1, "vertex counts and canonical labels", problems)


def test_criterion_02_coverage_formula():
    problems = []
    for text in ALL_TEXTS:
        for spec in (parse_polynomial(text), all_ones(parse_polynomial(text))):
            diagram = Diagram(spec)
            for level in range(diagram.arity + 1, 9):
                report = coverage_report(diagram, level)
                problems.extend(
                    (spec.to_text(), level, d) for d in report.discrepancies
                )
    check(2, "covered formula matches the scan oracle", problems)


def test_criterion_03_distinguished_sources(quartic, verified):
    problems = []
    center = quartic.vertex((6, 6))
    if quartic.dsv(center, 1) != quartic.vertex((2, 6)):
        problems.append(("dsv direction 1", quartic.dsv(center, 1)))
    if quartic.dsv(center, 2) != quartic.vertex((6, 2)):
        problems.append(("dsv direction 2", quartic.dsv(center, 2)))
    for name, result in verified.items():
        problems.extend((name, row) for row in result.findings["dsv_rules"])
    check(3, "distinguished source vertex facts", problems)


def test_criterion_04_uncovered_sources(quartic, verified):
    problems = []
    report = source_all_uncovered(quartic, quartic.vertex((8, 8)))
    if not report.all_uncovered:
        problems.append(("(8,8) covered sources", report.covered_sources))
    for name, result in verified.items():
        for suite in ("source_uncovered", "target_uncovered"):
            problems.extend((name, suite, row) for row in result.findings[suite])
    check(4, "uncovered source and target suites", problems)


def test_criterion_05_ladder(verified):
    problems = []
    for name, result in verified.items():
        problems.extend((name, row) for row in result.findings["ladder"])
    check(5, "source ladder structure", problems)


def test_criterion_06_dimensions(all_diagrams, quartic):
    problems = []
    if quartic.dimension(quartic.vertex((4, 4))) != 15:
        problems.append(("dim (4,4)", quartic.dimension(quartic.vertex((4, 4)))))
    for name, diagram in all_diagrams.items():
        for level in range(1, 9):
            expansion = diagram.expansion_coefficients(level)
            for v in diagram.vertices(level):
                if diagram.dimension(v) != expansion[v.coords]:
                    problems.append((name, v.coords, "expansion"))
                if not v.is_corner and diagram.dimension(v) < level:
                    problems.append((name, v.coords, "below level"))
    check(6, "dimension recursion matches expansion coefficients", problems)


def test_criterion_07_successor_machine(all_diagrams):
    problems = []
    towers = 0
    for name, diagram in all_diagrams.items():
        ordering = Ordering(diagram)
        for level in range(1, 9):
            for v in diagram.vertices(level):
                dim = diagram.dimension(v)
                if dim > 10**4:
                    continue
                towers += 1
                path = ordering.minimal_path(v)
                seen = {path.edges}
                count = 1
                while True:
                    try:
                        nxt = ordering.successor(path)
                    except MaximalAtHorizon:
                        break
                    if ordering.predecessor(nxt) != path:
                        problems.append((name, v.coords, "predecessor"))
                    seen.add(nxt.edges)
                    count += 1
                    path = nxt
                if count != dim or len(seen) != dim:
                    problems.append((name, v.coords, "count", count))
                if path != ordering.maximal_path(v):
                    problems.append((name, v.coords, "maximal"))
                for rank in range(dim):
                    if ordering.path_rank(ordering.path_unrank(v, rank)) != rank:
                        problems.append((name, v.coords, "rank", rank))
    if not towers:
        problems.append(("no towers inspected",))
    check(7, "successor machine enumerates every tower exactly", problems)


def test_criterion_08_measure_bounds(all_diagrams, pascal, quartic):
    problems = []
    for name, diagram in all_diagrams.items():
        weight = solve_symmetric_weight(diagram)
        if abs(weight.residual) > 1e-12:
            problems.append((name, "residual", weight.residual))
        for level in range(1, 9):
            if abs(level_mass(diagram, level, weight) - 1) > 1e-9:
                problems.append((name, level, "level mass"))
        for level in range(2, 9):
            if not minimal_mass_bound(diagram, level, weight).ok:
                problems.append((name, level, "minimal mass"))
    exact = weight_from_theta(pascal, (0.5, 0.5))
    b4 = minimal_mass_bound(pascal, 4, exact)
    if not (abs(float(b4.mass) - 0.1875) < 1e-12 and float(b4.bound) == 0.25):
        problems.append(("pascal level 4", b4))
    b3 = minimal_mass_bound(quartic, 3, solve_symmetric_weight(quartic))
    if not (abs(b3.mass - 11 / 512) < 1e-9 and b3.mass <= 1 / 3):
        problems.append(("quartic level 3", b3))
    check(8, "invariant weights and mass bounds", problems)


# Pascal i=1 L=10 source-lex, then random seeds 3, 7 and 11 at i=3 L=10:
# (random seed, None for source-lex; i; candidates; survivors; genuine conflicts)
PROBE_PINS = [(None, 1, 261632, 2026, 512)] + [
    (seed, 3, 65024, survivors, genuine)
    for seed, survivors, genuine in ((3, 965, 149), (7, 819, 168), (11, 693, 225))
]
REPLAY_STEP = 5  # every fifth survivor row, in enumeration order, is replayed


def replay_problems(ordering, i, row):
    """Walk the row's pair back and forth with the raw machines: it must reach
    both tower ends with equal i-symbols, and its (i+1)-symbols must differ at
    exactly its conflict times."""
    x, y = (
        ordering.path_unrank(ordering.diagram.vertex(ref["terminal"]), ref["rank"])
        for ref in (row["x"], row["x_prime"])
    )
    times = []
    for step, end, sign in (
        (ordering.predecessor, MinimalAtHorizon, -1),
        (ordering.successor, MaximalAtHorizon, 1),
    ):
        a, b, t = x, y, 0
        while True:
            if k_coding_symbol(a, i) != k_coding_symbol(b, i):
                return [("killed", sign * t, row["x"], row["x_prime"])]
            if (t or sign > 0) and k_coding_symbol(a, i + 1) != k_coding_symbol(b, i + 1):
                times.append(sign * t)
            try:
                a, b = step(a), step(b)
            except end:
                break
            t += 1
    if sorted(times) != row["conflict_times"]:
        return [("conflict times", sorted(times), row["x"], row["x_prime"])]
    return []


def probe_problems(pascal):
    problems = []
    for seed, i, candidates, survivors, genuine in PROBE_PINS:
        ordering = Ordering(pascal) if seed is None else Ordering(pascal, "random", seed)
        report = probe_depth_pairs(ordering, i, 10)
        got = (report.candidates, report.censored, len(report.genuine_conflicts))
        if got != (candidates, survivors, genuine):
            problems.append((seed, "candidates, survivors, genuine", got))
        for row in report.survivors[::REPLAY_STEP]:
            problems.extend((seed, *p) for p in replay_problems(ordering, i, row))
    return problems


def test_criterion_09_probe(pascal, monkeypatch):
    problems = probe_problems(pascal)
    place_maps = _diagonals._place_maps

    def one_symbol_off(ordering, horizon, budget):
        parent, first = place_maps(ordering, horizon, budget)
        parent[2][0] = parent[2][-1]  # the first level-2 place gets the last one's 1-symbol
        return parent, first

    monkeypatch.setattr(_diagonals, "_place_maps", one_symbol_off)
    if not probe_problems(pascal):
        problems.append(("a changed 1-symbol still passes",))
    check(9, "pinned probe counts and replayed survivors", problems)


def test_criterion_10_chain_builder(pascal):
    problems = []
    starts = find_chain_start(pascal, 21)
    if not starts:
        problems.append(("no starts at level 21",))
        check(10, "distinguished chain construction", problems)
        return
    s = starts[0]
    chain = build_distinguished_chain(pascal, s.v, s.v_prime, s.shared, s.direction, 5)
    if len(chain.splitting) != 5:
        problems.append(("splitting count", len(chain.splitting)))
    drops = [v.coord(chain.direction) for v in chain.splitting]
    if drops != sorted(drops, reverse=True) or len(set(drops)) != len(drops):
        problems.append(("direction coordinates", drops))
    for v in chain.splitting:
        if is_covered_oracle(pascal, v):
            problems.append(("covered splitting vertex", v.coords))
    check(10, "distinguished chain construction", problems)


def test_criterion_11_verify_all(monkeypatch, capsys):
    problems = []
    for text in ALL_TEXTS:
        code = cli_main(["verify-all", "--poly", text, "--levels", "8"])
        if code != 0:
            problems.append((text, code))
    capsys.readouterr()

    def shifted_threshold(diagram, w):
        if w.level <= diagram.arity:
            return None
        limit = (w.level - 2) * diagram.degree
        return any(c > limit for c in w.coords)

    monkeypatch.setattr(coverage, "is_covered_formula", shifted_threshold)
    code = cli_main(["verify-all", "--poly", PASCAL_TEXT, "--levels", "6"])
    capsys.readouterr()
    if code != 1:
        problems.append(("mutated formula still exits", code))
    check(11, "verify-all gate trips on an induced fault", problems)
