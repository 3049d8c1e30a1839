"""End-to-end runs of every subcommand through cli.main."""

import json
import re

import pytest

from polyadic import Diagram, coverage, measure, parse_polynomial, verify
from polyadic.cli import main

from conftest import PASCAL_TEXT, Q3_TEXT, QUARTIC_TEXT, run_child


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def first_call(*argv, **env):
    """Standard output of `main(argv)`, which must exit 0, as the first call
    of a fresh process."""
    return run_child("import sys; from polyadic.cli import main; sys.exit(main(sys.argv[1:]))", *argv, **env)


class TestDescribe:
    def test_pascal(self, capsys):
        code, doc, _ = run_json(capsys, "describe", "--poly", PASCAL_TEXT, "--levels", "5")
        assert code == 0
        assert doc["schema_version"] == 1
        assert doc["generator"] == "polyadic 0.1.0"
        assert doc["mode"] == "coefficients"
        assert doc["arity"] == 2 and doc["degree"] == 1
        assert doc["vertex_counts"] == {"1": 2, "2": 3, "3": 4, "4": 5, "5": 6}
        assert doc["source_vectors"] == [[1, 0], [0, 1]]

    def test_polynomial_file(self, capsys, tmp_path):
        poly = tmp_path / "poly.txt"
        poly.write_text(QUARTIC_TEXT, encoding="utf-8")
        code, doc, _ = run_json(capsys, "describe", "--poly", f"@{poly}")
        assert code == 0
        assert doc["degree"] == 4
        assert len(doc["source_vectors"]) == 5


class TestCovered:
    def test_quartic_level_three(self, capsys):
        code, doc, _ = run_json(
            capsys, "covered", "--poly", QUARTIC_TEXT, "--level", "3"
        )
        assert code == 0
        assert doc["covered_count"] == 8
        assert doc["uncovered_count"] == 5
        assert doc["report"]["discrepancies"] == []


class TestChain:
    def test_pascal_past_threshold(self, capsys):
        code, doc, _ = run_json(capsys, "chain", "--poly", PASCAL_TEXT, "--level", "21")
        assert code == 0
        assert doc["start_count"] > 0
        assert "chain" in doc
        assert len(doc["chain"]["splitting"]) == 5  # default target is 2d + 3
        direction = doc["chain"]["direction"]
        drops = [v[direction - 1] for v in doc["chain"]["splitting"]]
        assert drops == sorted(drops, reverse=True)

    def test_quartic_level_without_starts(self, capsys):
        # below level 2d + 7 no pair fits the start window: an input error,
        # not a document with "start_count": 0
        code, out, err = run(capsys, "chain", "--poly", QUARTIC_TEXT, "--level", "14")
        assert (code, out) == (2, "")
        assert "need level >= 2d + 7 = 15, got 14" in err


class TestProbe:
    def test_pascal_depth_one(self, capsys):
        code, doc, _ = run_json(
            capsys, "probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "6"
        )
        assert code == 0
        report = doc["report"]
        assert report["candidates"] == report["coding_killed"] + report["censored"]
        assert doc["ordering"] == {"preset": "source-lex"}

    def test_random_defaults_to_seed_zero(self, capsys):
        code, doc, _ = run_json(
            capsys, "probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "4",
            "--ordering", "random",
        )
        assert code == 0
        assert doc["ordering"] == {"preset": "random", "seed": 0}

    def test_seeded_random_is_recorded(self, capsys):
        # the ordering's description is the one record of its seed, so the
        # two spellings of one ordering write the same document
        probe = ("probe", "--poly", PASCAL_TEXT, "--i", "2", "--horizon", "5", "--ordering")
        flag = run(capsys, *probe, "random", "--seed", "7")
        spec = run(capsys, *probe, '{"preset": "random", "seed": 7}')
        assert flag == spec
        code, out, _ = flag
        assert code == 0
        doc = json.loads(out)
        assert "seed" not in doc
        assert doc["ordering"] == {"preset": "random", "seed": 7}


class TestMeasure:
    def test_pascal(self, capsys):
        code, doc, _ = run_json(capsys, "measure", "--poly", PASCAL_TEXT)
        assert code == 0
        assert abs(doc["weight"]["theta"][0] - 0.5) < 1e-9
        assert len(doc["levels"]) == 6
        assert all(row["ok"] for row in doc["levels"])
        assert all(abs(row["total_mass"] - 1) < 1e-9 for row in doc["levels"])

    def test_all_ones_quartic_is_measured(self, capsys):
        # the weight solves the diagram's own edge counts: five unit counts
        # at degree four give 5 t^4 = 1
        code, doc, _ = run_json(
            capsys, "measure", "--poly", "x1^4 + x1^3 x2 + x1^2 x2^2 + x1 x2^3 + x2^4"
        )
        assert code == 0
        assert all(abs(t - 5 ** -0.25) < 1e-12 for t in doc["weight"]["theta"])
        assert len(doc["levels"]) == 6
        assert all(row["ok"] for row in doc["levels"])

    def test_table_equal_to_the_coefficients_is_measured(self, capsys):
        code, doc, _ = run_json(capsys, "measure", "--poly", PASCAL_TEXT, "--levels", "1")
        assert code == 0 and doc["mode"] == "coefficients"
        assert all(row["ok"] for row in doc["levels"])


class TestVershik:
    def test_pascal_level_three(self, capsys):
        code, doc, _ = run_json(
            capsys, "vershik", "--poly", PASCAL_TEXT, "--level", "3"
        )
        assert code == 0
        assert [v["coords"] for v in doc["vertices"]] == [[3, 0], [2, 1], [1, 2], [0, 3]]
        assert [v["dimension"] for v in doc["vertices"]] == [1, 3, 3, 1]
        for v in doc["vertices"]:
            assert len(v["minimal_path"]) == 3
            assert len(v["maximal_path"]) == 3

    @pytest.mark.parametrize(
        "ordering",
        ["source-lex", {"preset": "source-revlex"}, {"explicit": {"1:1,0": [1]}}],
        ids=["preset", "preset-file", "explicit-file"],
    )
    def test_seed_without_the_random_preset_is_a_usage_error(self, capsys, tmp_path, ordering):
        if isinstance(ordering, dict):
            (tmp_path / "ordering.json").write_text(json.dumps(ordering), encoding="utf-8")
            ordering = f"@{tmp_path / 'ordering.json'}"
        code, out, err = run(
            capsys, "vershik", "--poly", PASCAL_TEXT, "--level", "1",
            "--ordering", ordering, "--seed", "5",
        )
        assert (code, out) == (2, "")
        assert "for the random preset only" in err

    def test_ordering_file_and_inline_json_agree(self, capsys, tmp_path):
        spec = '{"preset": "random", "seed": 7}'
        (tmp_path / "ordering.json").write_text(spec, encoding="utf-8")
        argv = ("vershik", "--poly", PASCAL_TEXT, "--level", "3", "--ordering")
        code, inline, _ = run(capsys, *argv, spec)
        file_code, from_file, _ = run(capsys, *argv, f"@{tmp_path / 'ordering.json'}")
        assert code == file_code == 0 and inline == from_file
        assert json.loads(inline)["ordering"] == {"preset": "random", "seed": 7}

    def test_a_file_named_like_a_preset_is_not_read(self, capsys, tmp_path, monkeypatch):
        argv = ("vershik", "--poly", PASCAL_TEXT, "--level", "3", "--ordering", "source-lex")
        _, expected, _ = run(capsys, *argv)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "source-lex").write_text('{"preset": "source-revlex"}', encoding="utf-8")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == expected


class TestExport:
    def test_pascal_dot_counts(self, capsys):
        code, out, _ = run(
            capsys, "export", "--poly", PASCAL_TEXT, "--levels", "3", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph diagram {")
        assert len(re.findall(r'\[label="\(', out)) == 10  # 1+2+3+4 vertices
        assert out.count(" -> ") == 12

    def test_quartic_dot_edge_labels(self, capsys):
        code, out, _ = run(
            capsys, "export", "--poly", QUARTIC_TEXT, "--levels", "1", "--format", "dot"
        )
        assert code == 0
        assert len(re.findall(r'\[label="\(', out)) == 6
        assert re.findall(r'-> \S+ \[label="(\d+)"\]', out) == ["1", "2", "1", "3", "1"]

    def test_parallel_edges(self, capsys):
        code, out, _ = run(
            capsys, "export", "--poly", QUARTIC_TEXT, "--levels", "1",
            "--format", "dot", "--parallel-edges",
        )
        assert code == 0
        assert out.count(" -> ") == 8  # one line per edge copy

    def test_json_roundtrips_and_is_deterministic(self, capsys):
        args = ("export", "--poly", Q3_TEXT, "--levels", "3")
        code, first, _ = run(capsys, *args)
        code2, second, _ = run(capsys, *args)
        assert code == code2 == 0
        assert first == second
        doc = json.loads(first)
        assert doc["levels"][0]["vertices"][0]["coords"] == [0, 0, 0]
        assert doc["levels"][3]["vertex_count"] == 28


class TestVerifyAll:
    def test_quartic(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify-all", "--poly", QUARTIC_TEXT, "--levels", "6"
        )
        assert code == 0
        assert doc["result"]["passed"] is True
        assert all(rows == [] for rows in doc["result"]["findings"].values())

    def test_q3(self, capsys):
        code, doc, _ = run_json(capsys, "verify-all", "--poly", Q3_TEXT, "--levels", "5")
        assert code == 0
        assert doc["result"]["passed"] is True

    def test_weight_residual_is_a_finding(self, capsys, monkeypatch):
        # a weight that misses p(theta) = 1 is a failed check, not bad input
        monkeypatch.setattr(measure, "evaluate_polynomial", lambda diagram, theta: 1 + 1e-9)
        code, doc, _ = run_json(capsys, "verify-all", "--poly", PASCAL_TEXT, "--levels", "4")
        assert code == 1
        findings = doc["result"]["findings"]
        assert len(findings["measure_bounds"]) == 1
        assert "residual" in findings["measure_bounds"][0]
        assert not any(rows for name, rows in findings.items() if name != "measure_bounds")


def _one_coefficient_off(expansion):
    def faulty(diagram, level):
        table = dict(expansion(diagram, level))  # a copy: the diagram keeps the original
        table[next(iter(table))] += 1
        return table

    return faulty


def _stray_vertex(vertices):
    # level 5, the top one checked, gains the middle vertex of level 4: a
    # vertex of the wrong sum, out of order, with every coordinate small
    def faulty(diagram, level):
        found = vertices(diagram, level)
        below = vertices(diagram, level - 1)
        return found + (below[len(below) // 2],) if level == 5 else found

    return faulty


def _root_as_source(source_set):
    # level-3 vertices gain the root as a source: sources far apart, outside
    # the coordinate sandwich, not unique in a direction, shared by every pair
    return lambda d, w: source_set(d, w) + (d.root,) if w[0] == 3 else source_set(d, w)


def _first_source(dsv):
    # dsv answers with w's first source wherever a drop exists
    return lambda d, w, j: dsv(d, w, j) and d.source_set(w)[0]


def _without_first_drop(source_set):
    # level-3 vertices lose their 1-drop source: dsv, computed from w's
    # coordinates, still names it, so it is no longer among w's sources
    def faulty(d, w):
        found = source_set(d, w)
        return tuple(u for u in found if u[1][0] != w[1][0] - d.degree) if w[0] == 3 else found

    return faulty


def _root_as_first_rung(source_ladder):
    # the root, no source of z and at j coordinate 0, replaces the first rung
    return lambda d, z, j: (d.root, *source_ladder(d, z, j)[1:])


# suite -> [(owner, name, fault, finding)]: a library call the suite checks, a
# wrong version of it made from the original, and text of the finding that
# fault must raise; one entry for each finding a suite can report
FAULTS = {
    "vertex_enumeration": [
        (Diagram, "vertex_count", lambda f: lambda d, level: f(d, level) + 1, "vertices, formula"),
        (Diagram, "vertices", _stray_vertex, "sums to"),
        (Diagram, "vertices", _stray_vertex, "in canonical order"),
    ],
    "edge_duality": [
        (Diagram, "multiplicity", lambda f: lambda d, u, w: f(d, u, w) + 1, "and multiplicity disagree"),
        (Diagram, "targets", lambda f: lambda d, u: f(d, u)[1:], "and targets disagree"),
        (Diagram, "source_set", _root_as_source, "violates the coordinate sandwich"),
        (Diagram, "source_set", _root_as_source, "differ by more than"),
        (Diagram, "vertices", _stray_vertex, "all coordinates below"),
        (Diagram, "source_set", _root_as_source, "share a source but sit more than"),
    ],
    "dimension_oracle": [
        (Diagram, "expansion_coefficients", _one_coefficient_off, "dimension mismatch"),
    ],
    "dsv_rules": [
        (Diagram, "dsv", lambda f: lambda d, w, j: None, "existence disagrees"),
        (Diagram, "dsv", _first_source, "is not the j-drop source"),
        (Diagram, "source_set", _without_first_drop, "is not the j-drop source"),
        (Diagram, "source_set", _root_as_source, "is not unique"),
        (Diagram, "dsv", _first_source, "coordinate gap"),
        (Diagram, "dsv", _first_source, "in two directions"),
    ],
    "coverage_agreement": [
        (
            coverage,
            "is_covered_formula",
            lambda f: lambda d, w: None if f(d, w) is None else not f(d, w),
            "!= oracle",
        ),
    ],
    "cov2_convention": [
        (coverage, "slack", lambda f: lambda d, w, j: f(d, w, j) + 1, "covering set of"),
    ],
    "source_uncovered": [
        (
            coverage,
            "source_all_uncovered",
            lambda f: lambda d, w: f(d, w)._replace(all_uncovered=False, covered_sources=(w,)),
            "meets a sufficient condition",
        ),
    ],
    "target_uncovered": [
        (
            coverage,
            "target_uncovered_check",
            lambda f: lambda d, level: f(d, level) + ((d.vertices(level)[0], d.root),),
            "covered despite",
        ),
        # the check's own counterexample: (4,1) covered, its source (3,1) not
        (coverage, "is_covered_oracle", lambda f: lambda d, w: not f(d, w), "covered despite"),
    ],
    "ladder": [
        (coverage, "source_ladder", lambda f: lambda d, z, j: f(d, z, j)[1:], "wrong size"),
        (coverage, "source_ladder", _root_as_first_rung, "is not a source"),
        (coverage, "source_ladder", _root_as_first_rung, "wrong j coordinate"),
    ],
    "link_consequences": [
        (
            verify,
            "check_link_consequences",
            lambda f: lambda d, a, b, j: f(d, a, b, j)._replace(candidates_status="fail"),
            "fails extension-candidates",
        ),
    ],
    "measure_bounds": [
        (verify, "level_mass", lambda f: lambda d, level, w: f(d, level, w) + 1e-6, "total mass"),
        (
            verify,
            "minimal_mass_bound",
            lambda f: lambda d, level, w: f(d, level, w)._replace(ok=False),
            "minimal mass",
        ),
        (Diagram, "dimension", lambda f: lambda d, v: min(f(d, v), 1), "has dimension"),
    ],
}


@pytest.mark.parametrize(
    "suite, poly",
    [(suite, PASCAL_TEXT) for suite in FAULTS] + [("measure_bounds", "2 x1 + x2")],
    ids=[*FAULTS, "measure_bounds-on-a-table"],
)
def test_every_verify_suite_can_fail(suite, poly, capsys, monkeypatch):
    # each finding a suite reports fires under a fault in a library call it
    # checks, so no suite passes by construction; measure_bounds measures
    # parallel edges too
    assert [name for name, _ in verify._SUITES] == list(FAULTS)
    for owner, name, fault, finding in FAULTS[suite]:
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, fault(getattr(owner, name)))
            code, doc, _ = run_json(capsys, "verify-all", "--poly", poly, "--levels", "5")
        assert code == 1
        assert any(finding in row for row in doc["result"]["findings"][suite]), (name, finding)


class TestFailures:
    def test_unparseable_polynomial(self, capsys):
        code, _, err = run(capsys, "describe", "--poly", "x1 +")
        assert code == 2
        assert err.startswith("error:")

    def test_inhomogeneous_polynomial(self, capsys):
        code, _, err = run(capsys, "describe", "--poly", "x1 + x2^2")
        assert code == 2

    @pytest.mark.parametrize(
        "poly",
        [
            '{"q":2.9,"terms":[{"exp":[1.9,0],"coef":1.5},{"exp":[0,true],"coef":"2"}]}',
            '{"q":2,"terms":[{"exp":[1,0],"coef":1.5},{"exp":[0,1],"coef":1}]}',
            "x1^300000 + x2^300000",
        ],
        ids=["non-integers", "fractional-coefficient", "huge-degree"],
    )
    def test_polynomial_of_no_integers_or_missing_monomials(self, capsys, poly):
        # once a document for x1 + 2 x2, a truncated coefficient, a 500 MB message
        code, out, err = run(capsys, "describe", "--poly", poly)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err) < 1024

    @pytest.mark.parametrize(
        "poly, fragment",
        [
            ("x1 + x2000", "1998 degree-1 exponent vectors absent"),
            ("x1^" + "9" * 5000 + " + x2", "bad term 'x1^999"),
            ("x" + "9" * 5000 + " + x2", "bad term 'x999"),
        ],
        ids=["many-variables", "long-exponent", "long-index"],
    )
    def test_polynomial_past_an_interpreter_limit(self, capsys, poly, fragment):
        # once a RecursionError traceback (exit 1), and a plain ValueError
        # past int()'s 4,300 digits
        code, out, err = run(capsys, "describe", "--poly", poly)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and fragment in err

    def test_unknown_ordering_preset(self, capsys):
        code, _, err = run(
            capsys, "vershik", "--poly", PASCAL_TEXT, "--level", "2",
            "--ordering", "zigzag",
        )
        assert code == 2
        assert "zigzag" in err

    @pytest.mark.parametrize("via", ["inline", "file"])
    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ('{"explicit": {"9:1,2": [1]}}', "explicit key '9:1,2'"),
            ('{"explicit": {"2-1,1": [2, 1]}}', "explicit key '2-1,1'"),
            ('{"presett": "random"}', "takes only"),
            ('{"explicit": {"5:3,2": [1, 1]}}', "not a permutation"),  # above --horizon 3
            ('{"preset": "random", "seed": "5"}', "integer"),
        ],
        ids=["off-lattice-key", "malformed-key", "unknown-key", "non-permutation", "string-seed"],
    )
    def test_bad_ordering_spec_is_an_input_error(self, capsys, tmp_path, spec, fragment, via):
        if via == "file":
            (tmp_path / "ordering.json").write_text(spec, encoding="utf-8")
            spec = f"@{tmp_path / 'ordering.json'}"
        code, out, err = run(
            capsys, "probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "3", "--ordering", spec
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and fragment in err
        assert via == "inline" or str(tmp_path / "ordering.json") in err

    def test_missing_required_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["describe"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--poly", PASCAL_TEXT])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ("describe", "--poly", PASCAL_TEXT, "--levels", "-3"),
            # no level to describe: an empty vertex_counts looked valid
            ("describe", "--poly", PASCAL_TEXT, "--levels", "0"),
            ("probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "0"),
            ("probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "4", "--budget", "0"),
            # no level to check: measure wrote no rows and verify-all passed
            # with most of its suites over an empty level range
            ("measure", "--poly", PASCAL_TEXT, "--levels", "0"),
            ("verify-all", "--poly", PASCAL_TEXT, "--levels", "0"),
            # a chain has at least two splitting vertices: 0 built the default
            # chain and exited 0, and 1 failed only inside the library
            ("chain", "--poly", PASCAL_TEXT, "--level", "4", "--target-len", "0"),
            ("chain", "--poly", PASCAL_TEXT, "--level", "4", "--target-len", "1"),
        ],
    )
    def test_out_of_range_integer_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        assert f"argument {argv[-2]}:" in captured.err

    @pytest.mark.parametrize(
        "poly, levels, smallest",
        [(Q3_TEXT, "3", 5), (Q3_TEXT, "4", 5), (PASCAL_TEXT, "3", 4)],
        ids=["q3-3", "q3-4", "pascal-3"],
    )
    def test_verify_all_below_the_coverage_suites_is_an_input_error(
        self, capsys, poly, levels, smallest
    ):
        # below level q + 2 the uncovered and link suites ran over no level and
        # verify-all passed with nothing checked
        code, out, err = run(capsys, "verify-all", "--poly", poly, "--levels", levels)
        assert code == 2
        assert out == ""
        assert "target_uncovered and link_consequences" in err
        assert f"verify-all needs --levels {smallest} or more" in err

    @pytest.mark.parametrize("i, horizon", [("5", "3"), ("3", "3")])
    def test_depth_not_below_horizon_is_an_input_error(self, capsys, i, horizon):
        code, out, err = run(capsys, "probe", "--poly", PASCAL_TEXT, "--i", i, "--horizon", horizon)
        assert code == 2
        assert out == ""
        top = int(horizon) - 1
        assert err == f"error: i at horizon {horizon} must be an integer in 0..{top}, got {i}\n"

    def test_polynomial_file_missing(self, capsys):
        code, _, err = run(capsys, "describe", "--poly", "@/no/such/poly.json")
        assert code == 2
        assert err.startswith("error:") and "/no/such/poly.json" in err

    @pytest.mark.parametrize("poly", ["x1^2 + x2^2", "x1 + 0 x2"], ids=["missing", "zero"])
    def test_edge_counts_cover_every_monomial_positively(self, capsys, poly):
        # a diagram's edge counts are its coefficients, so they are checked
        # as the polynomial is read
        code, out, err = run(capsys, "describe", "--poly", poly)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "command, option, content",
        [
            ("describe", "--poly", [{"exp": [1, 0]}]),
            ("describe", "--poly", {"exp": [1, 0], "count": 1}),
            ("vershik", "--ordering", ["source-lex"]),
        ],
    )
    def test_malformed_input_file_is_an_input_error(self, capsys, tmp_path, command, option, content):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        inputs = {"--poly": PASCAL_TEXT} | {option: f"@{path}"}
        argv = [command, *(arg for pair in inputs.items() for arg in pair)]
        code, out, err = run(capsys, *argv, *REQUIRED[command])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(path) in err


class TestRepeatedCalls:
    """`main` builds its argparse tree once per process; no call leaves
    anything in it for the next."""

    def test_seed_is_not_carried_over(self, capsys):
        argv = ("vershik", "--poly", PASCAL_TEXT, "--level", "3", "--ordering", "random")
        run(capsys, *argv, "--seed", "5")
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0 and doc["ordering"] == {"preset": "random", "seed": 0}

    def test_floor_is_not_carried_over(self, capsys):
        argv = ("probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "4")
        _, floored, _ = run_json(capsys, *argv, "--floor", "1")
        code, doc, _ = run_json(capsys, *argv)
        assert floored["report"]["floor"] == 1
        assert code == 0 and doc["report"]["floor"] == 0

    def test_usage_error_between_calls_changes_nothing(self, capsys):
        argv = ("probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "5", "--ordering", "random")
        expected = first_call(*argv)
        before = run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *argv) == before == (0, expected, "")

    @pytest.mark.parametrize("argv", [["--help"], ["probe", "--help"]], ids=["top", "probe"])
    def test_help_after_a_call_equals_a_first_help(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "100")
        expected = first_call(*argv, COLUMNS="100")
        run(capsys, "describe", "--poly", PASCAL_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert (exc.value.code, capsys.readouterr().out) == (0, expected)

    def test_the_tree_is_built_by_the_first_call_only(self):
        run_child(
            """
            import argparse, io, contextlib
            built = []
            init = argparse.ArgumentParser.__init__
            argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
            import polyadic.cli
            assert not built, "import polyadic.cli built a parser"
            counts = []
            for _ in range(3):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert polyadic.cli.main(["describe", "--poly", "x1 + x2"]) == 0
                counts.append(len(built))
            assert counts[0] > 0 and counts == counts[:1] * 3, counts
            """
        )


# the options each subcommand needs, so that argparse reaches the one under test
REQUIRED = {
    "describe": (),
    "covered": ("--level", "2"),
    "chain": ("--level", "9"),
    "probe": ("--i", "1", "--horizon", "3"),
    "measure": (),
    "vershik": ("--level", "2"),
    "export": (),
    "verify-all": (),
}
SHAPE_ONLY = ("describe", "covered", "chain", "measure", "export", "verify-all")


@pytest.mark.parametrize(
    "command, extra, name",
    [
        ("describe", (), "describe.json"),
        ("covered", (), "covered.json"),
        ("chain", (), "chain.json"),
        ("probe", (), "probe.json"),
        ("measure", ("--levels", "3"), "measure.json"),
        ("vershik", (), "vershik.json"),
        ("verify-all", ("--levels", "4"), "verify.json"),
        ("export", (), "diagram.json"),
        ("export", ("--format", "dot"), "diagram.dot"),
    ],
)
def test_out_directory_holds_the_stdout_bytes(capsys, tmp_path, command, extra, name):
    argv = [command, "--poly", PASCAL_TEXT, *REQUIRED[command], *extra]
    code, stdout_text, _ = run(capsys, *argv)
    out_code, printed, _ = run(capsys, *argv, "--out", str(tmp_path / "docs"))
    target = tmp_path / "docs" / name
    assert code == out_code == 0
    assert printed == f"{target}\n"
    assert target.read_bytes() == stdout_text.encode()


class TestOptions:
    @pytest.mark.parametrize(
        "command, option, value",
        [(c, "--ordering", "random") for c in SHAPE_ONLY]
        + [(c, "--budget", "40") for c in REQUIRED if c != "probe"]
        + [(c, "--seed", "1") for c in SHAPE_ONLY]
        + [(c, "--mode", "shape") for c in REQUIRED]
        + [(c, "--multiplicity", "x1 + x2") for c in REQUIRED],
    )
    def test_option_the_handler_does_not_read_is_a_usage_error(self, capsys, command, option, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--poly", PASCAL_TEXT, *REQUIRED[command], option, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {option} {value}" in captured.err
        assert captured.err.startswith(f"usage: polyadic {command} ")


# (p, m): a shape and edge counts on it other than p's coefficients
EDGE_TABLES = {
    "pascal": (PASCAL_TEXT, "2 x1 + x2"),
    "quadratic": ("x1^2 + x1 x2 + x2^2", "3 x1^2 + x1 x2 + 2 x2^2"),
    "q3": (Q3_TEXT, "3 x1^2 + x1 x2 + 2 x1 x3 + x2^2 + x2 x3 + x3^2"),
}
DOCUMENTS = {
    "describe": ("describe", "--levels", "4"),
    "covered": ("covered", "--level", "3"),
    "chain": ("chain", "--level", "11"),
    "probe": ("probe", "--i", "1", "--horizon", "3", "--ordering", "random", "--seed", "3"),
    "measure": ("measure", "--levels", "4"),
    "vershik": ("vershik", "--level", "3", "--ordering", "random", "--seed", "3"),
    "export-json": ("export", "--levels", "3"),
    "export-dot": ("export", "--levels", "3", "--format", "dot"),
    "verify-all": ("verify-all", "--levels", "5"),
}


@pytest.mark.parametrize("kind", list(DOCUMENTS))
@pytest.mark.parametrize("table", list(EDGE_TABLES))
def test_edge_table_is_only_a_label(capsys, table, kind):
    # edge counts on p's shape name the polynomial m: given as a table over
    # p's source vectors in reverse order, they write the document of
    # --poly m byte for byte, since the diagram reads the counts in
    # canonical order whatever order they came in
    p, m = EDGE_TABLES[table]
    shape, counts = parse_polynomial(p), dict(parse_polynomial(m).terms)
    terms = [{"exp": list(s), "coef": counts[s]} for s in reversed(shape.source_vectors)]
    table_json = json.dumps({"q": shape.arity, "terms": terms})
    command, *options = DOCUMENTS[kind]
    given = run(capsys, command, "--poly", table_json, *options)
    assert given == run(capsys, command, "--poly", m, *options)
    assert given[1]
