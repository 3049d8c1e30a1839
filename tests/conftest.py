"""Shared diagrams for the whole suite.

Three standing systems exercise every code path: the Pascal diagram (two
variables, degree one), a degree-four polynomial with mixed coefficients,
and a three-variable all-ones quadratic.  `polynomial_specs` draws random
polynomials for the hypothesis properties of several modules,
`parallel_edge_specs` linear ones with parallel edges, `k_coding_symbol`
is the oracle for the library's integer k-symbols, `basic_block` the oracle
for the probe's place ids, and `all_ones` gives a polynomial's shape with
one edge per joined pair.
"""

import os
import subprocess
import sys
import textwrap
import threading

import pytest
from hypothesis import strategies as st

from polyadic import Diagram, Ordering, PolynomialSpec, parse_polynomial
from polyadic.core import compositions_desc
from polyadic.core import Vertex

PASCAL_TEXT = "x1 + x2"
QUARTIC_TEXT = "x1^4 + 2 x1^3 x2 + x1^2 x2^2 + 3 x1 x2^3 + x2^4"
Q3_TEXT = "x1^2 + x1 x2 + x1 x3 + x2^2 + x2 x3 + x3^2"


COEFFICIENTS = st.integers(min_value=1, max_value=3)


def all_ones(spec):
    """The polynomial of spec's shape with every coefficient 1: one edge per
    joined pair of vertices."""
    return PolynomialSpec.from_coefficients(spec.arity, {s: 1 for s in spec.source_vectors})


def k_coding_symbol(x, k):
    """The first k edges of the path x as a hashable, comparable symbol.

    Two paths get equal symbols exactly when their first k edges coincide.
    """
    if not 0 <= k <= x.level:
        raise ValueError(f"k must lie in 0..{x.level}, got {k}")
    return tuple((e.target.coords, e.copy) for e in x.edges[:k])


def basic_block(ordering, v, k):
    """The k-symbols of the tower of v, rank by rank, as (coords, rank) pairs.

    A path's first k edges end at a level-k vertex u and are its rank-r
    path; the symbol is (u.coords, r).  The tower runs through the level-k
    word of v, one block of dim(u) ranks per letter u.  The word comes from
    `vertex_coding`, which orders each vertex's sources without the level
    tables the probe's place maps are read from.
    """
    word = (v,) if k == v.level else ordering.vertex_coding(v, k)
    return tuple((u.coords, r) for u in word for r in range(ordering.diagram.dimension(u)))


@st.composite
def polynomial_specs(draw, max_degree, max_arity=4):
    """A random valid polynomial: 2 to `max_arity` variables, every monomial of one degree."""
    arity = draw(st.integers(min_value=2, max_value=max_arity))
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    vectors = list(compositions_desc(degree, arity))
    return PolynomialSpec.from_coefficients(arity, {s: draw(COEFFICIENTS) for s in vectors})


@st.composite
def parallel_edge_specs(draw, max_arity=4):
    """A linear polynomial like `2 x1 + x2`: 2 to `max_arity` variables, at
    least one coefficient above 1, so some vertex has parallel edges."""
    arity = draw(st.integers(min_value=2, max_value=max_arity))
    coefficients = draw(st.lists(COEFFICIENTS, min_size=arity, max_size=arity))
    coefficients[draw(st.integers(0, arity - 1))] = draw(st.integers(min_value=2, max_value=3))
    vectors = compositions_desc(1, arity)
    return PolynomialSpec.from_coefficients(arity, dict(zip(vectors, coefficients)))


# a Pascal vertex of the wrong arity, whose down-set search once never ended,
# one off the lattice, the coordinates of (1, 1) at the wrong level, numbers
# that are no integers, and an unhashable plain pair that no cache can look up
OFF_LATTICE = {
    "arity": Vertex(5, (5,)),
    "negative": Vertex(0, (-1, 1)),
    "level": Vertex(7, (1, 1)),
    "fraction": Vertex(2, (1.5, 1.5)),
    "inf": Vertex(1, (float("inf"), 0)),
    "none": Vertex(2, (None, 1)),
    "list": (7, [1, 1]),
}


def raised_within(call, seconds=5.0):
    """The exception call() raises, or None if it returns.

    The call runs in a daemon thread; one still running after `seconds`
    fails the test, and a trace hook makes it raise at its next line so it
    does not run on beside the rest of the suite.
    """
    outcome = {}
    timed_out = threading.Event()

    def stop_when_timed_out(frame, event, arg):
        if timed_out.is_set():
            raise TimeoutError("stopped by the test")
        return stop_when_timed_out

    def run():
        sys.settrace(stop_when_timed_out)
        try:
            call()
        except BaseException as exc:  # handed to the test, whatever it is
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        timed_out.set()
        pytest.fail(f"still running after {seconds} s")
    return outcome.get("error")


def run_child(code, *args, **env):
    """Run `code` with `args` in a fresh interpreter that imports this
    checkout's package, `env` added to the environment, and return its
    standard output; the run must succeed."""
    import polyadic

    src = os.path.dirname(os.path.dirname(polyadic.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def peak_rss_mb(code):
    """Run `code` as `run_child` does and return its peak resident set size
    in MB.

    The peak is the kernel's high-water mark of the new program's own
    memory (Linux's VmHWM): `ru_maxrss` would also count the memory of the
    test process, which the child is forked from.
    """
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux's /proc/self/status")
    out = run_child(
        textwrap.dedent(code)
        + textwrap.dedent(
            """
            with open("/proc/self/status") as status:
                print(next(line for line in status if line.startswith("VmHWM:")).split()[1])
            """
        )
    )
    return int(out.split()[-1]) / 1024  # in kB


@pytest.fixture(scope="session")
def pascal():
    return Diagram(parse_polynomial(PASCAL_TEXT))


@pytest.fixture(scope="session")
def quartic():
    return Diagram(parse_polynomial(QUARTIC_TEXT))


@pytest.fixture(scope="session")
def q3():
    return Diagram(parse_polynomial(Q3_TEXT))


@pytest.fixture(scope="session")
def all_diagrams(pascal, quartic, q3):
    return {"pascal": pascal, "quartic": quartic, "q3": q3}


@pytest.fixture(scope="session")
def pascal_lex(pascal):
    # the left-right ordering: sources ascending lexicographic, then copy
    return Ordering(pascal)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LOG", ()) if mod else ()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
