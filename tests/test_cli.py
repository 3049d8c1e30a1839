"""End-to-end runs of every subcommand through cli.main."""

import json
import re

import pytest

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
        code, doc, _ = run_json(capsys, "describe", "--poly", str(poly))
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
        assert report["uncensored_genuine_conflicts"] == []
        assert doc["ordering"] == {"preset": "source-lex"}

    def test_random_defaults_to_seed_zero(self, capsys):
        code, doc, _ = run_json(
            capsys, "probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "4",
            "--ordering", "random",
        )
        assert code == 0
        assert doc["ordering"] == {"preset": "random", "seed": 0}

    def test_seeded_random_is_recorded(self, capsys):
        code, doc, _ = run_json(
            capsys, "probe", "--poly", PASCAL_TEXT, "--i", "2", "--horizon", "5",
            "--ordering", "random", "--seed", "7",
        )
        assert code == 0
        assert doc["seed"] == 7
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
            capsys, "measure", "--poly", PASCAL_TEXT, "--mode", "shape"
        )
        assert code == 2
        assert "coefficient" in err


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

    def test_out_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "exports"
        code, printed, _ = run(
            capsys, "export", "--poly", PASCAL_TEXT, "--levels", "2",
            "--out", str(out_dir),
        )
        assert code == 0
        target = out_dir / "diagram.json"
        assert printed.strip() == str(target)
        code2, stdout_doc, _ = run(capsys, "export", "--poly", PASCAL_TEXT, "--levels", "2")
        assert target.read_text(encoding="utf-8") == stdout_doc


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

    @pytest.mark.parametrize("i, horizon", [("5", "3"), ("3", "3")])
    def test_depth_not_below_horizon_is_an_input_error(self, capsys, i, horizon):
        code, out, err = run(capsys, "probe", "--poly", PASCAL_TEXT, "--i", i, "--horizon", horizon)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--horizon" in err

    def test_multiplicity_file_missing(self, capsys):
        code, _, err = run(
            capsys, "describe", "--poly", PASCAL_TEXT, "--mode", "shape",
            "--multiplicity", "/no/such/table.json",
        )
        assert code == 2

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
        argv = [command, "--poly", PASCAL_TEXT, option, str(path)]
        argv += ["--mode", "shape"] if command == "describe" else ["--level", "2"]
        code, out, err = run(capsys, *argv)
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


class TestOptions:
    @pytest.mark.parametrize(
        "command, option, value",
        [(c, "--ordering", "random") for c in SHAPE_ONLY]
        + [(c, "--budget", "40") for c in REQUIRED if c != "probe"]
        + [("export", "--seed", "1")],
    )
    def test_option_the_handler_does_not_read_is_a_usage_error(self, capsys, command, option, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--poly", PASCAL_TEXT, *REQUIRED[command], option, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {option} {value}" in captured.err
        assert captured.err.startswith(f"usage: polyadic {command} ")

    @pytest.mark.parametrize("mode", [(), ("--mode", "polynomial")])
    def test_multiplicity_without_shape_mode_is_an_input_error(self, capsys, tmp_path, mode):
        path = tmp_path / "table.json"
        path.write_text(json.dumps([{"exp": [1, 0], "count": 2}, {"exp": [0, 1], "count": 1}]))
        code, out, err = run(capsys, "describe", "--poly", PASCAL_TEXT, *mode, "--multiplicity", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--multiplicity" in err and "--mode" in err

    def test_shape_mode_defaults_to_all_ones(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps([{"exp": [1, 0], "count": 2}, {"exp": [0, 1], "count": 1}]))
        code, doc, _ = run_json(capsys, "describe", "--poly", PASCAL_TEXT, "--mode", "shape")
        assert code == 0 and doc["mode"] == "all-ones"
        code, doc, _ = run_json(
            capsys, "describe", "--poly", PASCAL_TEXT, "--mode", "shape", "--multiplicity", str(path)
        )
        assert code == 0 and doc["mode"] == "custom"
