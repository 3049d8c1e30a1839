"""What `import polyadic` and its CLI load, and what loads on first use.

numpy loads with the first probe: every other subcommand runs without it.
`chains`, `coverage`, `measure` and `verify` load with the first command, or
the first package name, that needs them.
"""

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

import polyadic
import polyadic.verify

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

DEFERRED_CHILD = textwrap.dedent(
    """
    import contextlib, io, sys

    import polyadic
    import polyadic.cli
    from polyadic.cli import main

    DEFERRED = ["polyadic.chains", "polyadic.coverage", "polyadic.measure", "polyadic.verify"]

    def loaded():
        return [name for name in [*DEFERRED, "fractions"] if name in sys.modules]

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv

    package = sorted(name for name in sys.modules if name.split(".")[0] == "polyadic")
    assert package == [
        "polyadic",
        "polyadic.cli",
        "polyadic.core",
        "polyadic.errors",
        "polyadic.export",
        "polyadic.probe",
        "polyadic.vershik",
        "polyadic.version",
    ], package
    pascal = ["--poly", "x1 + x2"]
    run(["describe", *pascal, "--levels", "3"])
    run(["vershik", *pascal, "--level", "3"])
    run(["export", *pascal, "--levels", "2"])
    run(["export", *pascal, "--levels", "2", "--format", "dot"])
    assert loaded() == [], loaded()
    for argv, module in [
        (["covered", *pascal, "--level", "3"], "polyadic.coverage"),
        (["chain", *pascal, "--level", "6"], "polyadic.chains"),
        (["measure", *pascal, "--levels", "3"], "polyadic.measure"),
        (["verify-all", *pascal, "--levels", "4"], "polyadic.verify"),
    ]:
        assert module not in sys.modules, (argv, loaded())
        run(argv)
        assert module in sys.modules, (argv, loaded())
    """
)

# public names bound to values that carry no `__module__` of their own
VALUE_MODULES = {"Coords": "core", "DEFAULT_TOWER_BUDGET": "vershik", "__version__": "version"}


def run_child(code: str) -> None:
    src = os.path.dirname(os.path.dirname(polyadic.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr


def test_numpy_loads_with_the_first_probe():
    run_child(CHILD)


def test_deferred_modules_load_with_their_commands():
    run_child(DEFERRED_CHILD)


def test_package_names_are_the_defining_modules_bindings():
    for name in polyadic.__all__:
        value = getattr(polyadic, name)
        module = VALUE_MODULES.get(name) or value.__module__.removeprefix("polyadic.")
        assert value is getattr(importlib.import_module(f"polyadic.{module}"), name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from polyadic import *", namespace)
    for name in polyadic.__all__:
        assert namespace[name] is getattr(polyadic, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        polyadic.no_such_name


def test_package_name_follows_a_rebound_module_attribute(monkeypatch):
    def f(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(polyadic.verify, "verify_all", f)
    assert polyadic.verify_all is f
