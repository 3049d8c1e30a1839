"""Golden CLI documents: the SHA-256 of stdout for fixed commands.

The deterministic JSON/DOT documents are the package's contract, so a
refactor must leave every byte of them unchanged.  The digests pin the nine
README examples plus nine larger documents, among them two i=0 probes whose
every pair survives, probes with every pair killed, with skipped towers and
with a floor, and a binomial tower whose dimensions pass 2**64; the
documents themselves are not stored (the probe examples run to hundreds of
kilobytes, the quartic i=0 probe to 1.4 MB).  Each probe document is
written a second time with `ProbeCandidate` and `PathRef` replaced by stubs
that raise, so the CLI must write survivors straight from the columns.
After an intended output change, run this file as a script with `src` and
`tests` on PYTHONPATH and copy each printed exit code and digest into
GOLDEN.

Every `polyadic ...` line of the README's CLI section must be the argv of
exactly one `readme-*` entry, so the README cannot drift from the pins.
"""

import hashlib
import shlex
from pathlib import Path

import pytest

from polyadic import probe
from polyadic.cli import main

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
        "1a45c9d3272992c1f7d30ca83f99386b5437d565eb12dc300f5e41eebe304b7c",
    ),
    "readme-probe-random": (
        ("probe", "--poly", PASCAL_TEXT, "--i", "3", "--horizon", "10",
         "--ordering", "random", "--seed", "7"),
        0,
        "a313b48cab6aed0fa27d1f5bfaaa708c8c1df810c02b17e26123bf551184c1aa",
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
        "16079b631c6b1c540b0e73f19dd5514a8a680f6c8adb8fff908813a95729edcb",
    ),
    "probe-quartic-survive": (
        ("probe", "--poly", QUARTIC_TEXT, "--i", "0", "--horizon", "2", "--floor", "0",
         "--ordering", "random", "--seed", "5"),
        0,
        "324575f49e3d15e35ac103c4bac97fc8ad7bada191dcd2356fdebdfaa9d88fe7",
    ),
    "probe-pascal-all-killed": (
        ("probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "4", "--floor", "2"),
        0,
        "942dc582c8eecd224253230f556049840dbd584ed5cd67d9d13b43db6ee7fcf3",
    ),
    "probe-pascal-skipped-towers": (
        ("probe", "--poly", PASCAL_TEXT, "--i", "1", "--horizon", "10", "--budget", "40"),
        0,
        "bb708fc336e11d51ea591ba1006c67872346f8ecb0df1390d0075a1757edfdf3",
    ),
    "probe-pascal-random-floor": (
        ("probe", "--poly", PASCAL_TEXT, "--i", "2", "--horizon", "9", "--floor", "1",
         "--ordering", "random", "--seed", "3"),
        0,
        "323f7c13b087b4c0c05c4d95446d8fe291e05927a2ceac1c6aff0ea6649085fe",
    ),
    "vershik-binomial-70": (
        ("vershik", "--poly", "x1 + x2", "--level", "70"),
        0,
        "4555cbb4f3f84fba6086b34eb13b2119bf3ddd258947101dae5dcc77ea28150b",
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


def readme_cli_lines():
    """The `polyadic ...` lines of the README's CLI section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("polyadic ")]


def test_readme_examples_are_pinned():
    # each README command is exactly one readme-* digest, and each of those is in the README
    readme = {name: argv for name, (argv, _, _) in GOLDEN.items() if name.startswith("readme-")}
    matched = []
    for line in readme_cli_lines():
        names = [name for name, argv in readme.items() if tuple(shlex.split(line)[1:]) == argv]
        assert len(names) == 1, line
        matched += names
    assert sorted(matched) == sorted(readme)


def refuse(*args, **kwargs):
    raise AssertionError("the CLI probe path built a survivor object")


@pytest.mark.parametrize("name", sorted(n for n, (argv, _, _) in GOLDEN.items() if argv[0] == "probe"))
def test_probe_document_is_written_from_columns(capsys, monkeypatch, name):
    monkeypatch.setattr(probe, "ProbeCandidate", refuse)
    monkeypatch.setattr(probe, "PathRef", refuse)
    argv, code, digest = GOLDEN[name]
    assert run_digest(capsys, argv) == (code, digest)


if __name__ == "__main__":
    import contextlib
    import io

    for name, (argv, _, _) in GOLDEN.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        print(f"{name}: {code} {hashlib.sha256(buf.getvalue().encode('utf-8')).hexdigest()}")
