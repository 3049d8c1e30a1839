"""Polynomial-shape graded diagrams and their adic dynamics.

A homogeneous positive integer polynomial determines a graded diagram whose
level-n vertices are the exponent vectors of p**n.  This package builds the
lattice, orders its edges, runs the successor machine on finite paths, checks
the covered-vertex and chain combinatorics against brute force, carries the
natural product measures, and exhaustively probes finite horizons for
depth-i coding conflicts.
"""

from .chains import (
    Chain,
    ChainCheck,
    ChainStart,
    LinkReport,
    build_distinguished_chain,
    check_link_consequences,
    find_chain_start,
    validate_chain,
)
from .core import (
    Coords,
    Diagram,
    EdgeRef,
    PolynomialSpec,
    Vertex,
    compositions_desc,
    parse_polynomial,
)
from .coverage import (
    CoverageReport,
    Cov2Report,
    SourceUncoveredReport,
    check_cov2,
    coverage_report,
    covering_vertices,
    is_covered_formula,
    is_covered_oracle,
    source_all_uncovered,
    source_ladder,
    target_uncovered_check,
)
from .errors import PolyadicError
from .export import document_header, export_dot, export_json, to_stable_json
from .measure import (
    MassBound,
    WeightVector,
    cylinder_measure,
    dense_orbit_trace,
    dim_lower_bound_check,
    evaluate_polynomial,
    level_mass,
    minimal_mass_bound,
    solve_symmetric_weight,
    vertex_measure,
    weight_from_theta,
)
from .probe import ProbeReport, probe_depth_pairs, survival_profile
from .verify import VerifyResult, verify_all
from .vershik import DEFAULT_TOWER_BUDGET, FinitePath, Ordering, make_ordering
from .version import __version__

__all__ = [
    "Chain",
    "ChainCheck",
    "ChainStart",
    "Coords",
    "CoverageReport",
    "Cov2Report",
    "DEFAULT_TOWER_BUDGET",
    "Diagram",
    "EdgeRef",
    "FinitePath",
    "LinkReport",
    "MassBound",
    "Ordering",
    "PolyadicError",
    "PolynomialSpec",
    "ProbeReport",
    "SourceUncoveredReport",
    "VerifyResult",
    "Vertex",
    "WeightVector",
    "__version__",
    "build_distinguished_chain",
    "check_cov2",
    "check_link_consequences",
    "compositions_desc",
    "coverage_report",
    "covering_vertices",
    "cylinder_measure",
    "dense_orbit_trace",
    "dim_lower_bound_check",
    "document_header",
    "evaluate_polynomial",
    "export_dot",
    "export_json",
    "find_chain_start",
    "is_covered_formula",
    "is_covered_oracle",
    "level_mass",
    "make_ordering",
    "minimal_mass_bound",
    "parse_polynomial",
    "probe_depth_pairs",
    "solve_symmetric_weight",
    "source_all_uncovered",
    "source_ladder",
    "survival_profile",
    "target_uncovered_check",
    "to_stable_json",
    "validate_chain",
    "vertex_measure",
    "verify_all",
    "weight_from_theta",
]
