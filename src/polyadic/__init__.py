"""Polynomial-shape graded diagrams and their adic dynamics.

A homogeneous positive integer polynomial determines a graded diagram whose
level-n vertices are the exponent vectors of p**n.  This package builds the
lattice, orders its edges, runs the successor machine on finite paths, checks
the covered-vertex and chain combinatorics against brute force, carries the
natural product measures, and exhaustively probes finite horizons for
depth-i coding conflicts.

`import polyadic` loads `core`, `errors`, `export`, `probe`, `vershik` and
`version`: what building a diagram, its orderings and paths, and the
`describe`, `vershik`, `export` and `probe` documents need.  The public
names of `chains`, `coverage`, `measure` and `verify` are resolved by the
module `__getattr__` (PEP 562) through `_DEFERRED`, which imports their
module on first access; `fractions` and `decimal` come in with `measure`.
`__all__` is the eager names, one per line, and then `_DEFERRED`'s keys,
so each deferred name is written once.
The value types are named tuples and `ProbeReport` a plain class, so
`inspect` stays unloaded until numpy loads it.
`probe` stays eager although only the probe uses it: it is small (numpy
loads with the first probe, from `_diagonals`), and perfbench's tracer wraps
only the package modules loaded before it starts, so a deferred `probe`
would drop its spans.
"""

import importlib

from .core import (
    Coords,
    Diagram,
    EdgeRef,
    PolynomialSpec,
    Vertex,
    compositions_desc,
    parse_polynomial,
)
from .errors import PolyadicError
from .export import document_header, export_dot, export_json, to_stable_json
from .probe import ProbeReport, probe_depth_pairs
from .vershik import DEFAULT_TOWER_BUDGET, FinitePath, Ordering, make_ordering
from .version import __version__

# public name -> the module that defines it, for the modules loaded on first use
_DEFERRED = {
    name: module
    for module, names in {
        "chains": (
            "Chain",
            "ChainCheck",
            "ChainStart",
            "LinkReport",
            "build_distinguished_chain",
            "check_link_consequences",
            "find_chain_start",
            "validate_chain",
        ),
        "coverage": (
            "CoverageReport",
            "Cov2Report",
            "SourceUncoveredReport",
            "check_cov2",
            "coverage_report",
            "covering_vertices",
            "is_covered_formula",
            "is_covered_oracle",
            "source_all_uncovered",
            "source_ladder",
            "target_uncovered_check",
        ),
        "measure": (
            "MassBound",
            "WeightVector",
            "cylinder_measure",
            "dense_orbit_trace",
            "dim_lower_bound_check",
            "evaluate_polynomial",
            "level_mass",
            "minimal_mass_bound",
            "solve_symmetric_weight",
            "vertex_measure",
            "weight_from_theta",
        ),
        "verify": ("VerifyResult", "verify_all"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    """A deferred module's public name, read from that module each time, so
    its own binding stays the only one."""
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)

__all__ = [
    "Coords",
    "DEFAULT_TOWER_BUDGET",
    "Diagram",
    "EdgeRef",
    "FinitePath",
    "Ordering",
    "PolyadicError",
    "PolynomialSpec",
    "ProbeReport",
    "Vertex",
    "__version__",
    "compositions_desc",
    "document_header",
    "export_dot",
    "export_json",
    "make_ordering",
    "parse_polynomial",
    "probe_depth_pairs",
    "to_stable_json",
    *_DEFERRED,
]
