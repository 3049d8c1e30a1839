"""End-to-end runs of every subcommand through cli.main."""

import json
import re

import pytest

from polyadic import Diagram, coverage, measure, verify
from polyadic.cli import main

from conftest import PASCAL_TEXT, Q3_TEXT, QUARTIC_TEXT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


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
        code, doc, _ = run_json(capsys, "chain", "--poly", QUARTIC_TEXT, "--level", "8")
        assert code == 0
        assert doc["start_count"] == 0
        assert "chain" not in doc


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

    def test_shape_mode_rejected(self, capsys):
        code, _, err = run(
            capsys, "measure", "--poly", PASCAL_TEXT, "--multiplicity", "all-ones"
        )
        assert code == 2
        assert "coefficient" in err

    def test_table_equal_to_the_coefficients_is_measured(self, capsys):
        code, doc, _ = run_json(
            capsys, "measure", "--poly", PASCAL_TEXT, "--levels", "1", "--multiplicity", "x1 + x2"
        )
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


# suite -> (owner, name, fault): the library call a suite checks, and a wrong
# version of it made from the original
FAULTS = {
    "vertex_enumeration": (Diagram, "vertex_count", lambda f: lambda d, level: f(d, level) + 1),
    "edge_duality": (Diagram, "targets", lambda f: lambda d, u: f(d, u)[1:]),
    "dimension_oracle": (Diagram, "expansion_coefficients", _one_coefficient_off),
    "dsv_rules": (Diagram, "dsv", lambda f: lambda d, w, j: None),
    "coverage_agreement": (
        coverage,
        "is_covered_formula",
        lambda f: lambda d, w: None if f(d, w) is None else not f(d, w),
    ),
    "cov2_convention": (coverage, "slack", lambda f: lambda d, w, j: f(d, w, j) + 1),
    "source_uncovered": (
        coverage,
        "source_all_uncovered",
        lambda f: lambda d, w: f(d, w)._replace(all_uncovered=False, covered_sources=(w,)),
    ),
    "target_uncovered": (
        coverage,
        "target_uncovered_check",
        lambda f: lambda d, level: f(d, level) + ((d.vertices(level)[0], d.root),),
    ),
    "ladder": (coverage, "source_ladder", lambda f: lambda d, z, j: f(d, z, j)[1:]),
    "link_consequences": (
        verify,
        "check_link_consequences",
        lambda f: lambda d, a, b, j: f(d, a, b, j)._replace(candidates_status="fail"),
    ),
    "measure_bounds": (verify, "level_mass", lambda f: lambda d, level, w: f(d, level, w) + 1e-6),
}


@pytest.mark.parametrize("suite", list(FAULTS))
def test_every_verify_suite_can_fail(suite, capsys, monkeypatch):
    # each suite reports the fault in the library call it checks, so no
    # suite passes by construction
    assert [name for name, _ in verify._SUITES] == list(FAULTS)
    owner, name, fault = FAULTS[suite]
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    code, doc, _ = run_json(capsys, "verify-all", "--poly", PASCAL_TEXT, "--levels", "5")
    assert code == 1
    assert doc["result"]["findings"][suite]


class TestFailures:
    def test_unparseable_polynomial(self, capsys):
        code, _, err = run(capsys, "describe", "--poly", "x1 +")
        assert code == 2
        assert err.startswith("error:")

    def test_inhomogeneous_polynomial(self, capsys):
        code, _, err = run(capsys, "describe", "--poly", "x1 + x2^2")
        assert code == 2

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
        assert err.startswith("error:") and "--horizon" in err

    def test_multiplicity_file_missing(self, capsys):
        code, _, err = run(
            capsys, "describe", "--poly", PASCAL_TEXT, "--multiplicity", "@/no/such/table.json"
        )
        assert code == 2
        assert err.startswith("error:") and "/no/such/table.json" in err

    @pytest.mark.parametrize(
        "command, option, content",
        [
            ("describe", "--multiplicity", [{"exp": [1, 0]}]),
            ("describe", "--multiplicity", {"exp": [1, 0], "count": 1}),
            ("vershik", "--ordering", ["source-lex"]),
        ],
    )
    def test_malformed_input_file_is_an_input_error(self, capsys, tmp_path, command, option, content):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        argv = [command, "--poly", PASCAL_TEXT, option, f"@{path}"]
        code, out, err = run(capsys, *argv, *REQUIRED[command])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(path) in err


# the options each subcommand needs, so that argparse reaches the one under test
REQUIRED = {
    "describe": (),
    "covered": ("--level", "2"),
    "chain": ("--level", "2"),
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
        + [(c, "--mode", "shape") for c in REQUIRED],
    )
    def test_option_the_handler_does_not_read_is_a_usage_error(self, capsys, command, option, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--poly", PASCAL_TEXT, *REQUIRED[command], option, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {option} {value}" in captured.err
        assert captured.err.startswith(f"usage: polyadic {command} ")

    @pytest.mark.parametrize(
        "multiplicity, mode, indegrees",
        [
            ("all-ones", "all-ones", [1, 1]),
            ("coefficients", "coefficients", [1, 1]),
            ("2 x1 + x2", "custom", [2, 1]),
            ("@table.txt", "custom", [1, 3]),
            ("x1 + x2", "coefficients", [1, 1]),
        ],
        ids=[
            "all-ones", "coefficients", "inline-polynomial", "polynomial-file",
            "polynomial-equal-to-the-coefficients",
        ],
    )
    def test_multiplicity_takes_a_name_or_a_polynomial(
        self, capsys, tmp_path, monkeypatch, multiplicity, mode, indegrees
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "table.txt").write_text("x1 + 3 x2\n", encoding="utf-8")
        code, doc, _ = run_json(
            capsys, "vershik", "--poly", PASCAL_TEXT, "--level", "1", "--multiplicity", multiplicity
        )
        assert code == 0 and doc["mode"] == mode
        assert [v["indegree"] for v in doc["vertices"]] == indegrees

    @pytest.mark.parametrize("multiplicity", ["x1 + x2 + x3", "x1^2 + x1 x2 + x2^2", "2 x1"])
    def test_multiplicity_needs_the_monomials_of_poly(self, capsys, multiplicity):
        code, out, err = run(capsys, "describe", "--poly", PASCAL_TEXT, "--multiplicity", multiplicity)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
