"""The package's value types are named tuples; `ProbeReport` alone is a class.

A value is immutable, carries no `__dict__`, and `_replace` copies it.  The
three validated types, `PolynomialSpec`, `FinitePath` and `Chain`, check a
`_replace` as they check a constructor call; only the ordering's `_make`
skips the checks, and every path it hands out is still a `FinitePath`.
"""

import pytest

from polyadic import Ordering, ProbeReport, Vertex, parse_polynomial
from polyadic.chains import (
    Chain,
    ChainStart,
    build_distinguished_chain,
    check_link_consequences,
    validate_chain,
)
from polyadic.coverage import check_cov2, coverage_report, source_all_uncovered
from polyadic.errors import LengthMismatch, NotHomogeneous
from polyadic.measure import minimal_mass_bound, solve_symmetric_weight
from polyadic.probe import probe_depth_pairs
from polyadic.verify import verify_all
from polyadic.vershik import FinitePath

from conftest import Q3_TEXT


def _chain(pascal):
    return build_distinguished_chain(
        pascal, pascal.vertex((7, 3)), pascal.vertex((6, 4)), pascal.vertex((6, 3)), 1, 3
    )


VALUES = {
    "PolynomialSpec": lambda pascal: parse_polynomial(Q3_TEXT),
    "FinitePath": lambda pascal: Ordering(pascal).path_unrank(pascal.vertex((2, 2)), 3),
    "Chain": _chain,
    "ChainCheck": lambda pascal: validate_chain(pascal, _chain(pascal)),
    "ChainStart": lambda pascal: ChainStart(
        pascal.vertex((5, 5)), pascal.vertex((4, 6)), 1, pascal.vertex((4, 5))
    ),
    "LinkReport": lambda pascal: check_link_consequences(
        pascal, pascal.vertex((5, 5)), pascal.vertex((4, 6)), 1
    ),
    "VertexCoverage": lambda pascal: coverage_report(pascal, 3).entries[0],
    "CoverageReport": lambda pascal: coverage_report(pascal, 3),
    "Cov2Report": lambda pascal: check_cov2(pascal, 3),
    "SourceUncoveredReport": lambda pascal: source_all_uncovered(pascal, pascal.vertex((2, 1))),
    "WeightVector": lambda pascal: solve_symmetric_weight(pascal),
    "MassBound": lambda pascal: minimal_mass_bound(pascal, 3, solve_symmetric_weight(pascal)),
    "VerifyResult": lambda pascal: verify_all(pascal, 4),
}

# a field value each validated type refuses, in place of its first instance's
BAD_FIELD = {
    "PolynomialSpec": ("degree", 3, NotHomogeneous),
    "FinitePath": ("terminal", Vertex(2, (1, 1)), ValueError),
    "Chain": ("shared", (), LengthMismatch),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_type_is_an_immutable_named_tuple(pascal, name):
    value = VALUES[name](pascal)
    assert type(value).__name__ == name
    assert isinstance(value, tuple) and value == tuple(value)
    assert not hasattr(value, "__dict__")
    first = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, first, getattr(value, first))
    copy = value._replace(**{first: getattr(value, first)})
    assert type(copy) is type(value) and copy == value
    assert type(value)(**value._asdict()) == value
    if name in BAD_FIELD:
        field, bad, error = BAD_FIELD[name]
        with pytest.raises(error):
            value._replace(**{field: bad})


def test_every_path_the_ordering_hands_out_is_a_finite_path(pascal, q3):
    for diagram, v in [(pascal, pascal.vertex((3, 2))), (q3, q3.vertex((2, 1, 1)))]:
        ordering = Ordering(diagram, "random", seed=5)
        x = ordering.minimal_path(v)
        paths = [
            x,
            ordering.maximal_path(v),
            ordering.path_unrank(v, 1),
            ordering.successor(x),
            ordering.predecessor(ordering.successor(x)),
            *ordering.tower(v),
        ]
        assert {type(p) for p in paths} == {FinitePath}


def test_probe_reports_compare_by_identity(pascal_lex):
    first = probe_depth_pairs(pascal_lex, 1, 5)
    second = probe_depth_pairs(pascal_lex, 1, 5)
    assert type(first) is ProbeReport and first.censored > 0
    assert first == first
    assert first != second
