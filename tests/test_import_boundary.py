"""numpy loads with the first probe: every other subcommand runs without it."""

import os
import subprocess
import sys
import textwrap

import polyadic

CHILD = textwrap.dedent(
    """
    import contextlib, io, sys

    import polyadic
    import polyadic.cli
    from polyadic import Diagram, Ordering, parse_polynomial
    from polyadic.cli import main

    Ordering(Diagram(parse_polynomial("x1 + x2")))
    pascal = ["--poly", "x1 + x2"]
    runs = [
        ["describe", *pascal, "--levels", "3"],
        ["covered", *pascal, "--level", "3"],
        ["chain", *pascal, "--level", "6"],
        ["measure", *pascal, "--levels", "3"],
        ["vershik", *pascal, "--level", "3"],
        ["vershik", *pascal, "--level", "3", "--ordering", "random", "--seed", "1"],
        ["export", *pascal, "--levels", "2"],
        ["export", *pascal, "--levels", "2", "--format", "dot"],
        ["verify-all", *pascal, "--levels", "4"],
    ]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    assert "numpy" not in sys.modules, "numpy was loaded without a probe"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["probe", *pascal, "--i", "1", "--horizon", "4"]) == 0
    assert "numpy" in sys.modules, "the probe ran without its kernel"
    for name in polyadic.__all__:
        getattr(polyadic, name)
    """
)


def test_numpy_loads_with_the_first_probe():
    src = os.path.dirname(os.path.dirname(polyadic.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
