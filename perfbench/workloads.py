"""Request lists for the four workloads, and the check of every output.

A workload is a fixed list of requests made from the workload seed.  Each
request builds its own `Diagram`/`Ordering` (through the CLI or the library),
so caches start cold per request, as they do for a CLI invocation.  The
program only ever sees the generated arguments; the seed stays here.

A request's `call` is the timed part.  Its `check` runs untimed afterwards
and returns a list of problems, empty when the output is right.  Checks rest
on closed forms and on facts recomputed here, not on the program's own
claims: pair counts c^i * C(c^(L-i), 2), path totals c^L, vertex counts, and
chain links recomputed from coordinates.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from math import comb
from typing import Callable

import polyadic
import polyadic.cli
import polyadic.verify

# the three standing diagrams of the test suite: text and coefficient sum c
PASCAL = ("x1 + x2", 2)
QUARTIC = ("x1^4 + 2 x1^3 x2 + x1^2 x2^2 + 3 x1 x2^3 + x2^4", 8)
Q3 = ("x1^2 + x1 x2 + x1 x3 + x2^2 + x2 x3 + x3^2", 6)
DIAGRAMS = {"pascal": PASCAL, "quartic": QUARTIC, "q3": Q3}

# shape of each diagram: (arity q, degree d)
SHAPE = {"pascal": (2, 1), "quartic": (2, 4), "q3": (3, 2)}

# Pascal i=1 L=9 under source-lex: the seed program's counts, which pass the
# test suite's replay oracle; a change of algorithm must reproduce them
PASCAL_L9 = {"candidates": 65280, "coding_killed": 64276, "censored": 1004}


@dataclass
class Request:
    label: str
    call: Callable[[bool], "Outcome"]  # traced flag -> outcome
    check: Callable[["Outcome"], list[str]]
    pairs: int = 0  # probe candidates this request scans
    kind: str = "cli"  # "probe", "paths" or "cli"


@dataclass
class Outcome:
    """What one request left behind, for the checks and the counters."""

    rc: int | None = None
    text: str = ""
    stderr: str = ""
    paths: int = 0
    doc_bytes: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def vertex_count(name: str, level: int) -> int:
    q, d = SHAPE[name]
    return comb(level * d + q - 1, q - 1)


def run_cli(argv: list[str]) -> Outcome:
    """polyadic.cli.main in-process, its document sent to an in-memory sink."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = polyadic.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue()
    return Outcome(rc=rc, text=text, stderr=err.getvalue(), doc_bytes=len(text.encode()))


def _document(o: Outcome) -> tuple[dict | None, list[str]]:
    if o.rc != 0:
        return None, [f"exit code {o.rc}: {o.stderr.strip()[:200]}"]
    try:
        return json.loads(o.text), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def cli_request(label: str, argv: list[str], check: Callable[[dict, Outcome], list[str]]) -> Request:
    def checked(o: Outcome) -> list[str]:
        doc, problems = _document(o)
        return problems if doc is None else check(doc, o)

    return Request(label, lambda traced: run_cli(argv), checked)


# ---------------------------------------------------------------- probe


def probe_request(name: str, i: int, horizon: int, ordering_seed: int | None,
                  pinned: dict | None = None, expect_killed: int | None = None) -> Request:
    text, c = DIAGRAMS[name]
    argv = ["probe", "--poly", text, "--i", str(i), "--horizon", str(horizon), "--floor", "0"]
    if ordering_seed is not None:
        argv += ["--ordering", "random", "--seed", str(ordering_seed)]
    expected = c**i * comb(c ** (horizon - i), 2)

    def check(doc: dict, o: Outcome) -> list[str]:
        rep = doc["report"]
        o.counts = {k: rep[k] for k in ("candidates", "coding_killed", "censored")}
        bad = []
        if rep["candidates"] != expected:
            bad.append(f"candidates {rep['candidates']} != c^i*C(c^(L-i),2) = {expected}")
        if rep["skipped_towers"] != 0:
            bad.append(f"{rep['skipped_towers']} towers skipped, all fit the budget")
        if rep["coding_killed"] + rep["censored"] != rep["candidates"]:
            bad.append("coding_killed + censored != candidates")
        if rep["uncensored_genuine_conflicts"]:
            bad.append(f"{len(rep['uncensored_genuine_conflicts'])} uncensored genuine conflicts")
        if len(rep["genuine_conflicts"]) + rep["survivors_without_conflict"] != rep["censored"]:
            bad.append("survivor buckets do not add up to censored")
        if expect_killed is not None and rep["coding_killed"] != expect_killed:
            bad.append(f"coding_killed {rep['coding_killed']} != {expect_killed}")
        for key, want in (pinned or {}).items():
            got = len(rep[key]) if isinstance(rep[key], list) else rep[key]
            if got != want:
                bad.append(f"{key} {got} != pinned {want}")
        return bad

    label = f"probe {name} i={i} L={horizon}" + (
        f" random:{ordering_seed}" if ordering_seed is not None else " source-lex")
    req = cli_request(label, argv, check)
    req.pairs, req.kind = expected, "probe"
    return req


def probe_kill(rng: random.Random) -> list[Request]:
    return [
        probe_request("pascal", 1, 9, None, pinned=PASCAL_L9),
        probe_request("pascal", 3, 9, rng.randrange(1, 2**31)),
        probe_request("pascal", 3, 9, rng.randrange(1, 2**31)),
    ]


def probe_survive(rng: random.Random) -> list[Request]:
    # i = 0: every path has the same 0-symbol, so no pair is ever killed
    return [
        probe_request("q3", 0, 2, rng.randrange(1, 2**31), expect_killed=0),
        probe_request("quartic", 0, 2, rng.randrange(1, 2**31), expect_killed=0),
        probe_request("pascal", 0, 6, rng.randrange(1, 2**31), expect_killed=0),
    ]


# ---------------------------------------------------------------- towers


def _walk_towers(name: str, max_level: int, cap: int) -> Request:
    """Walk every tower of dimension <= cap on levels 1..max_level."""
    text, _ = DIAGRAMS[name]

    def call(traced: bool) -> Outcome:
        diagram = polyadic.Diagram(polyadic.parse_polynomial(text))
        ordering = polyadic.Ordering(diagram)
        o = Outcome()
        for level in range(1, max_level + 1):
            for v in diagram.vertices(level):
                dim = diagram.dimension(v)
                if dim > cap:
                    continue
                prev = None
                count = 0
                for x in ordering.iter_tower(v):
                    if ordering.path_rank(x) != count:
                        o.problems.append(f"{v}: rank of path {count} is {ordering.path_rank(x)}")
                    if prev is not None and ordering.predecessor(x) != prev:
                        o.problems.append(f"{v}: predecessor(successor(x)) != x at {count - 1}")
                    prev = x
                    count += 1
                o.paths += count
                if count != dim:
                    o.problems.append(f"{v}: tower has {count} paths, dimension {dim}")
                if prev != ordering.maximal_path(v):
                    o.problems.append(f"{v}: last tower path is not maximal_path")
        return o

    return Request(f"towers {name} levels<={max_level} dim<={cap}", call,
                   lambda o: o.problems[:5], kind="paths")


def _unranks(name: str, level: int, count: int, rng: random.Random) -> Request:
    """path_rank(path_unrank(v, r)) == r at seeded (vertex, rank) samples."""
    text, c = DIAGRAMS[name]
    q, d = SHAPE[name]
    vertices = list(_compositions(level * d, q))
    # the rank is drawn as a fraction of the dimension, which only the call knows
    picks = [(rng.choice(vertices), rng.random()) for _ in range(count)]

    def call(traced: bool) -> Outcome:
        diagram = polyadic.Diagram(polyadic.parse_polynomial(text))
        ordering = polyadic.Ordering(diagram)
        o = Outcome()
        for coords, frac in picks:
            v = diagram.vertex(coords)
            r = int(frac * diagram.dimension(v))
            x = ordering.path_unrank(v, r)
            if x.level != level or ordering.path_rank(x) != r:
                o.problems.append(f"{v}: path_rank(path_unrank({r})) != {r}")
        o.paths = count
        if sum(diagram.dimension(v) for v in diagram.vertices(level)) != c**level:
            o.problems.append(f"level {level} dimensions do not sum to c^L = {c**level}")
        return o

    return Request(f"unrank {name} level {level} x{count}", call,
                   lambda o: o.problems[:5], kind="paths")


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def vershik_request(name: str, level: int, ordering_seed: int) -> Request:
    text, c = DIAGRAMS[name]
    argv = ["vershik", "--poly", text, "--level", str(level),
            "--ordering", "random", "--seed", str(ordering_seed)]

    def check(doc: dict, o: Outcome) -> list[str]:
        rows = doc["vertices"]
        bad = []
        if len(rows) != vertex_count(name, level):
            bad.append(f"{len(rows)} vertices, expected {vertex_count(name, level)}")
        if sum(r["dimension"] for r in rows) != c**level:
            bad.append(f"dimensions do not sum to c^L = {c**level}")
        for r in rows:
            if len(r["minimal_path"]) != level or len(r["maximal_path"]) != level:
                bad.append(f"{r['coords']}: extreme path length is not {level}")
            elif (r["dimension"] == 1) != (r["minimal_path"] == r["maximal_path"]):
                bad.append(f"{r['coords']}: minimal == maximal disagrees with dimension")
        return bad[:5]

    return cli_request(f"vershik {name} level {level} random:{ordering_seed}", argv, check)


def towers(rng: random.Random) -> list[Request]:
    return [
        _walk_towers("pascal", 12, 1000),
        _walk_towers("quartic", 4, 1000),
        _walk_towers("q3", 4, 1000),
        _unranks("pascal", 40, 500, rng),
        _unranks("quartic", 12, 500, rng),
        _unranks("q3", 12, 500, rng),
        vershik_request("q3", 6, rng.randrange(1, 2**31)),
    ]


# ---------------------------------------------------------------- verify-gate

SUITE_PREFIX = "check_"


def suite_functions() -> dict[str, Callable]:
    """The verify suites, by the names verify-all reports them under.

    Looked up on the module at call time, so a traced run reaches the
    wrapped functions; `verify_all` itself would reach the originals it
    captured at import.
    """
    out = {}
    for attr, fn in vars(polyadic.verify).items():
        original = getattr(fn, "__wrapped__", fn)
        if attr.startswith(SUITE_PREFIX) and getattr(original, "__module__", "") == polyadic.verify.__name__:
            out[attr[len(SUITE_PREFIX):].removesuffix("_suite")] = fn
    return out


def verify_request(name: str, levels: int) -> Request:
    text, _ = DIAGRAMS[name]
    argv = ["verify-all", "--poly", text, "--levels", str(levels)]

    def call(traced: bool) -> Outcome:
        if not traced:
            return run_cli(argv)
        # traced: the same suites, each called through its wrapped binding
        diagram = polyadic.Diagram(polyadic.parse_polynomial(text))
        findings = {n: list(fn(diagram, levels)) for n, fn in suite_functions().items()}
        doc = {"result": {"passed": not any(findings.values()), "findings": findings}}
        return Outcome(rc=0, text=json.dumps(doc))

    def check(doc: dict, o: Outcome) -> list[str]:
        result = doc["result"]
        bad = [f"suite {n}: {rows[0]}" for n, rows in result["findings"].items() if rows]
        if len(result["findings"]) != 11:
            bad.append(f"{len(result['findings'])} suites ran, expected 11")
        if not result["passed"] and not bad:
            bad.append("verify-all did not pass")
        return bad[:5]

    def checked(o: Outcome) -> list[str]:
        doc, problems = _document(o)
        return problems if doc is None else check(doc, o)

    return Request(f"verify-all {name} levels {levels}", call, checked)


def measure_request(name: str, levels: int) -> Request:
    text, _ = DIAGRAMS[name]

    def check(doc: dict, o: Outcome) -> list[str]:
        rows = doc["levels"]
        bad = [f"level {r['level']} not ok" for r in rows if not r["ok"]]
        if [r["level"] for r in rows] != list(range(1, levels + 1)):
            bad.append("measure rows do not cover levels 1..n")
        return bad[:5]

    return cli_request(f"measure {name} levels {levels}", ["measure", "--poly", text, "--levels", str(levels)], check)


def covered_request(name: str, level: int) -> Request:
    text, _ = DIAGRAMS[name]

    def check(doc: dict, o: Outcome) -> list[str]:
        bad = []
        if doc["report"]["discrepancies"]:
            bad.append(f"formula and oracle disagree at {doc['report']['discrepancies'][:3]}")
        if doc["covered_count"] + doc["uncovered_count"] != vertex_count(name, level):
            bad.append("covered + uncovered != vertex count")
        if doc["covered_count"] == 0:
            bad.append("no covered vertex found")
        return bad

    return cli_request(f"covered {name} level {level}", ["covered", "--poly", text, "--level", str(level)], check)


def chain_request(name: str, level: int) -> Request:
    text, _ = DIAGRAMS[name]
    q, d = SHAPE[name]

    def check(doc: dict, o: Outcome) -> list[str]:
        chain = doc.get("chain")
        if chain is None:
            return [f"no chain built: {doc.get('chain_error', 'no start found')}"]
        split, shared = chain["splitting"], chain["shared"]
        bad = []
        if len(split) != 2 * d + 3:
            bad.append(f"chain has {len(split)} splitting vertices, target {2 * d + 3}")
        if len({tuple(v) for v in split}) != len(split) or len({tuple(u) for u in shared}) != len(shared):
            bad.append("chain is not straight")
        for w in split:
            if sum(w) != level * d:
                bad.append(f"{w} is not on level {level}")
        for l, u in enumerate(shared):
            for w in (split[l], split[l + 1]):
                diff = [a - b for a, b in zip(w, u)]
                if min(diff) < 0 or sum(diff) != d:
                    bad.append(f"{u} is not a source of {w}")
        return bad[:5]

    return cli_request(f"chain {name} level {level}", ["chain", "--poly", text, "--level", str(level)], check)


def verify_gate(rng: random.Random) -> list[Request]:
    return [
        verify_request("q3", 5),
        verify_request("pascal", 12),
        verify_request("quartic", 7),
        measure_request("q3", 8),
        measure_request("pascal", 12),
        measure_request("quartic", 7),
        covered_request("q3", 8),
        # the seed moves only the cheap chain request: covered levels differ
        # in cost by 3x, which would show as spread between seeds
        chain_request("pascal", rng.randrange(16, 31)),
    ]


WORKLOADS: dict[str, Callable[[random.Random], list[Request]]] = {
    "probe-kill": probe_kill,
    "probe-survive": probe_survive,
    "towers": towers,
    "verify-gate": verify_gate,
}

# the polynomials each workload parses, for the set-up measurement
POLYNOMIALS = {
    "probe-kill": ["pascal"],
    "probe-survive": ["q3"],
    "towers": ["pascal", "quartic", "q3"],
    "verify-gate": ["pascal", "quartic", "q3"],
}


def build(workload: str, seed: int) -> list[Request]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
