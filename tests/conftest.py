"""Shared diagrams for the whole suite.

Three standing systems exercise every code path: the Pascal diagram (two
variables, degree one), a degree-four polynomial with mixed coefficients,
and a three-variable all-ones quadratic.  `polynomial_specs` draws random
polynomials for the hypothesis properties of several modules.
"""

import sys
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


@st.composite
def polynomial_specs(draw, max_degree):
    """A random valid polynomial: 2-3 variables, every monomial of one degree."""
    arity = draw(st.integers(min_value=2, max_value=3))
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    vectors = list(compositions_desc(degree, arity))
    return PolynomialSpec.from_coefficients(arity, {s: draw(COEFFICIENTS) for s in vectors})


# a Pascal vertex of the wrong arity, whose down-set search once never ended,
# one off the lattice, and the coordinates of (1, 1) at the wrong level
OFF_LATTICE = {"arity": Vertex(5, (5,)), "negative": Vertex(0, (-1, 1)), "level": Vertex(7, (1, 1))}


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
