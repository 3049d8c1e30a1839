"""Golden CLI documents: the SHA-256 of stdout for fixed commands.

The deterministic JSON/DOT documents are the package's contract, so a
refactor must leave every byte of them unchanged.  The digests pin the nine
README examples plus thirteen other documents, among them two i=0 probes whose
every pair survives, probes with every pair killed, with skipped towers and
with a floor, a binomial tower whose dimensions pass 2**64, a `vershik`
document under an explicit ordering table, chains on q3 and the quartic,
whose pairs share several sources, and a chain whose extension stops
(`chain_error`); the documents themselves are not stored (the probe
examples run to hundreds of kilobytes, the quartic i=0 probe to 1.4 MB).
After an intended output change, run this file as a script with `src` and
`tests` on PYTHONPATH and copy each printed exit code and digest into
GOLDEN.

Every `polyadic ...` line of the README's CLI section must be the argv of
exactly one `readme-*` entry, so the README cannot drift from the pins, and
the `python` block of its Library section must run.
"""

import hashlib
import shlex
from pathlib import Path

import pytest

import polyadic.cli
from polyadic.cli import main
from polyadic.export import Encoded

from conftest import PASCAL_TEXT, Q3_TEXT, QUARTIC_TEXT

GOLDEN = {
    "readme-describe": (
        ("describe", "--poly", PASCAL_TEXT, "--levels", "5"),
        0,
        "dfee40017f8cfda6f5878102746a76e49993c95588827f5e49059345bb7f6f50",
    ),
    "readme-covered": (
        ("covered", "--poly", QUARTIC_TEXT, "--level", "3"),
        0,
        "33dfaac7ca48aa786e551ed58114c953afa705c627b6ab68942059fb104940a8",
    ),
    "readme-chain": (
        ("chain", "--poly", PASCAL_TEXT, "--level", "21"),
        0,
        "0c50eece60dbe3b424bc5eada57cdbf40517faf91d630c86fa73e526f01c41d3",
    ),
    "readme-probe-floor": (
        ("probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "10", "--floor", "0"),
        0,
        "9f6d9011fe147efc7673e39f2feda55644d3e867203787537033a0c1b632ed66",
    ),
    "readme-probe-random": (
        ("probe", "--poly", PASCAL_TEXT, "--i", "3", "--horizon", "10",
         "--ordering", "random", "--seed", "7"),
        0,
        "87fb3ba5da51af79bc4ea75b8d27eda86ec37753cb80cacf3950599b92679578",
    ),
    "readme-measure": (
        ("measure", "--poly", Q3_TEXT, "--levels", "6"),
        0,
        "1bb36f2fb4b8f8f9b407936123f9d5ffbd68c1378ae59d16db1aa070bba2f623",
    ),
    "readme-vershik": (
        ("vershik", "--poly", PASCAL_TEXT, "--level", "4"),
        0,
        "5ff02758bf522af8ae39991f73a9b5fdfcbb266b6d148decb10dd53c2eb4db4e",
    ),
    "readme-export-dot": (
        ("export", "--poly", PASCAL_TEXT, "--levels", "3", "--format", "dot"),
        0,
        "cbf2cbb884ed607f0940c6306f27b51885cdedd405a709a10684c79d27cb8789",
    ),
    "readme-verify-all": (
        ("verify-all", "--poly", PASCAL_TEXT, "--levels", "8"),
        0,
        "900685cb8b66fd3a2e7f096604d7a4e48d042aac7931b688aab85106a0924557",
    ),
    "covered-q3-8": (
        ("covered", "--poly", Q3_TEXT, "--level", "8"),
        0,
        "d65727f727f8f40aa6d63c9df20d50020820046d1146bd4563ca8c946629934a",
    ),
    "verify-all-q3-5": (
        ("verify-all", "--poly", Q3_TEXT, "--levels", "5"),
        0,
        "9b78bc254cce87a95e2c021e1926c8d4b08dd818e9aaf63cdec8786dc5597418",
    ),
    "export-quartic-json-3": (
        ("export", "--poly", QUARTIC_TEXT, "--levels", "3", "--format", "json"),
        0,
        "088ae3fb01012c2272e83ba221af650c4f73fdb699a5502d25613688ce6f7968",
    ),
    "probe-q3-survive": (
        ("probe", "--poly", Q3_TEXT, "--i", "0", "--horizon", "2", "--floor", "0",
         "--ordering", "random", "--seed", "5"),
        0,
        "c31f73ac5197c6838f0d0e64c6e41f6884b28e03eb6adcfd59e2ef876b9931dd",
    ),
    "probe-quartic-survive": (
        ("probe", "--poly", QUARTIC_TEXT, "--i", "0", "--horizon", "2", "--floor", "0",
         "--ordering", "random", "--seed", "5"),
        0,
        "ff219bfb00e5705049fffd6923115b4d1d1cedada13f163c82d794f196ecc36b",
    ),
    "probe-pascal-all-killed": (
        ("probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "4", "--floor", "2"),
        0,
        "942dc582c8eecd224253230f556049840dbd584ed5cd67d9d13b43db6ee7fcf3",
    ),
    "probe-pascal-skipped-towers": (
        ("probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "10", "--budget", "40"),
        0,
        "3f04d1588057863fe6781f27c16d85c1ece2fa31ad8d2661f6c8d9b131d1fd6a",
    ),
    "probe-pascal-random-floor": (
        ("probe", "--poly", PASCAL_TEXT, "--i", "2", "--horizon", "9", "--floor", "1",
         "--ordering", "random", "--seed", "3"),
        0,
        "5f18265831eccb172d34f3135f30b5ebdd5fb4a0c7423b629af5196dbb4739df",
    ),
    "vershik-binomial-70": (
        ("vershik", "--poly", "x1 + x2", "--level", "70"),
        0,
        "4555cbb4f3f84fba6086b34eb13b2119bf3ddd258947101dae5dcc77ea28150b",
    ),
    "vershik-pascal-explicit": (
        ("vershik", "--poly", PASCAL_TEXT, "--level", "3",
         "--ordering", '{"explicit": {"2:1,1": [2, 1]}}'),
        0,
        "9962861f91d1db3384e1513c6a31f370829efa648496c23cb14522cf04718f34",
    ),
    # pairs sharing several sources: a wrong witness or pair order shows here
    "chain-q3-12": (
        ("chain", "--poly", Q3_TEXT, "--level", "12"),
        0,
        "a0c5f2d45c8f35dec104ad655d490f6d2ed55c4a65d4c8cc6a4ee41a46879695",
    ),
    "chain-quartic-15": (
        ("chain", "--poly", QUARTIC_TEXT, "--level", "15"),
        0,
        "71295721bd5be7a3c6ba7301fcc3c11d83f959e1593383a6d757ed2b20a857de",
    ),
    "chain-pascal-error": (
        ("chain", "--poly", PASCAL_TEXT, "--level", "18", "--target-len", "60"),
        0,
        "051adf1ad283672556697e9b72aeeb06b830b18901db67f6360f1639ec006927",
    ),
}


def run_digest(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_document_is_byte_identical(capsys, name):
    argv, code, digest = GOLDEN[name]
    assert run_digest(capsys, argv) == (code, digest)


# the exact types a document may hold: the emitter's fast paths, never its indented json.dumps
DOCUMENT_TYPES = {int, str, bool, type(None), float, list, dict, Encoded}


@pytest.mark.parametrize(
    "name", sorted(name for name, (argv, _, _) in GOLDEN.items() if "dot" not in argv)
)
def test_documents_hold_only_the_emitters_fast_path_types(capsys, monkeypatch, name):
    handed = []
    emit = polyadic.cli.to_stable_json

    def capture(obj):
        handed.append(obj)
        return emit(obj)

    monkeypatch.setattr(polyadic.cli, "to_stable_json", capture)
    argv, code, _ = GOLDEN[name]
    assert main(list(argv)) == code
    capsys.readouterr()
    values, stack = 0, list(handed)
    while stack:
        value = stack.pop()
        values += 1
        assert type(value) in DOCUMENT_TYPES, type(value)
        if type(value) is dict:
            assert all(type(key) is str for key in value), list(value)
            stack += value.values()
        elif type(value) is list:
            stack += value
    assert len(handed) == 1 and values > 1


def readme_section(title):
    """The text of the README section headed `## title`, up to the next one."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def readme_cli_lines():
    """The `polyadic ...` lines of the README's CLI section."""
    return [line for line in readme_section("CLI").splitlines() if line.startswith("polyadic ")]


def test_readme_examples_are_pinned():
    # each README command is exactly one readme-* digest, and each of those is in the README
    readme = {name: argv for name, (argv, _, _) in GOLDEN.items() if name.startswith("readme-")}
    matched = []
    for line in readme_cli_lines():
        names = [name for name, argv in readme.items() if tuple(shlex.split(line)[1:]) == argv]
        assert len(names) == 1, line
        matched += names
    assert sorted(matched) == sorted(readme)


def test_readme_library_example_runs(capsys):
    block = readme_section("Library").split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["210", "261632", "512"]


if __name__ == "__main__":
    import contextlib
    import io

    for name, (argv, _, _) in GOLDEN.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        print(f"{name}: {code} {hashlib.sha256(buf.getvalue().encode('utf-8')).hexdigest()}")
