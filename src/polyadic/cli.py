"""Command-line interface.

Every command reads the polynomial (inline text, expression file, or JSON),
builds the diagram and, for `probe` and `vershik`, the ordering, and emits
one deterministic JSON document (DOT for the exporter).  Exit codes: 0
success, 1 completed but a discrepancy was found, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chains import build_distinguished_chain, find_chain_start
from .core import Diagram, parse_polynomial
from .coverage import coverage_report
from .errors import PolyadicError
from .export import document_header, export_dot, export_json, to_stable_json
from .measure import (
    dim_lower_bound_check,
    level_mass,
    minimal_mass_bound,
    solve_symmetric_weight,
)
from .probe import probe_depth_pairs
from .verify import verify_all
from .vershik import DEFAULT_TOWER_BUDGET, make_ordering


def _load_polynomial(arg: str):
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            arg = fh.read()
    return parse_polynomial(arg)


def _load_multiplicity(arg: str):
    if arg == "all-ones":
        return "all-ones"
    with open(arg, encoding="utf-8") as fh:
        rows = json.load(fh)
    try:
        return {tuple(row["exp"]): int(row["count"]) for row in rows}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"bad multiplicity table {arg}: expected a list of {{exp, count}} objects ({exc!r})"
        ) from exc


def _ordering_spec(args) -> dict:
    arg = args.ordering
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            spec = json.load(fh)
        table = spec.get("explicit", {}) if isinstance(spec, dict) else None
        if not (
            isinstance(table, dict)
            and isinstance(spec.get("seed"), (int, type(None)))
            and all(isinstance(labels, list) for labels in table.values())
            and all(isinstance(x, int) for labels in table.values() for x in labels)
        ):
            raise ValueError(
                f"bad ordering file {arg}: expected an object with a 'preset' and an integer "
                "'seed', or 'explicit' mapping 'level:coords' keys to label lists"
            )
    else:
        spec = {"preset": arg}
    if args.seed is not None and "explicit" not in spec:
        spec["seed"] = args.seed
    return spec


def _build(args) -> Diagram:
    spec = _load_polynomial(args.poly)
    if args.mode == "shape":
        multiplicity = _load_multiplicity(args.multiplicity or "all-ones")
    elif args.multiplicity is not None:
        raise ValueError("--multiplicity needs --mode shape, not --mode polynomial")
    else:
        multiplicity = "coefficients"
    return Diagram(spec, multiplicity=multiplicity)


def _emit(args, name: str, text: str) -> None:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


def _emit_json(args, name: str, payload: dict) -> None:
    _emit(args, name, to_stable_json(payload))


def _cmd_describe(args) -> int:
    diagram = _build(args)
    doc = document_header(diagram, seed=args.seed)
    doc["arity"] = diagram.arity
    doc["degree"] = diagram.degree
    doc["vertex_counts"] = {
        str(level): diagram.vertex_count(level) for level in range(1, args.levels + 1)
    }
    doc["source_vectors"] = [list(s) for s in diagram.spec.source_vectors]
    _emit_json(args, "describe.json", doc)
    return 0


def _cmd_covered(args) -> int:
    diagram = _build(args)
    report = coverage_report(diagram, args.level)
    doc = document_header(diagram, seed=args.seed)
    doc["report"] = report.to_json()
    doc["covered_count"] = report.covered_count
    doc["uncovered_count"] = report.uncovered_count
    _emit_json(args, "covered.json", doc)
    return 1 if report.discrepancies else 0


def _cmd_chain(args) -> int:
    diagram = _build(args)
    starts = find_chain_start(diagram, args.level)
    target = args.target_len or 2 * diagram.degree + 3
    doc = document_header(diagram, seed=args.seed)
    doc["level"] = args.level
    doc["start_count"] = len(starts)
    doc["starts"] = [
        {
            "v": list(s.v.coords),
            "v_prime": list(s.v_prime.coords),
            "direction": s.direction,
            "shared": list(s.shared.coords),
        }
        for s in starts[:20]
    ]
    if starts:
        s = starts[0]
        try:
            chain = build_distinguished_chain(
                diagram, s.v, s.v_prime, s.shared, s.direction, target
            )
            doc["chain"] = chain.to_json()
        except PolyadicError as exc:
            doc["chain_error"] = str(exc)
    _emit_json(args, "chain.json", doc)
    return 0


def _cmd_probe(args) -> int:
    if args.i >= args.horizon:
        raise ValueError(f"--i {args.i} must be below --horizon {args.horizon}")
    diagram = _build(args)
    ordering = make_ordering(diagram, _ordering_spec(args))
    report = probe_depth_pairs(
        ordering, args.i, args.horizon, min_coord_floor=args.floor, budget=args.budget
    )
    doc = document_header(diagram, ordering=ordering, seed=args.seed)
    doc["report"] = report.to_document()
    _emit_json(args, "probe.json", doc)
    return 1 if report.uncensored_genuine_conflicts else 0


def _cmd_measure(args) -> int:
    diagram = _build(args)
    weight = solve_symmetric_weight(diagram)
    doc = document_header(diagram, seed=args.seed)
    doc["weight"] = weight.to_json()
    rows = []
    bad = False
    for level in range(1, args.levels + 1):
        mass = level_mass(diagram, level, weight)
        bound = minimal_mass_bound(diagram, level, weight)
        low_dims = dim_lower_bound_check(diagram, level)
        ok = bound.ok and abs(mass - 1) <= 1e-9 and not low_dims
        bad = bad or not ok
        rows.append(
            {
                "level": level,
                "total_mass": float(mass),
                "minimal_mass": bound.to_json(),
                "dimension_counterexamples": [list(v.coords) for v, _ in low_dims],
                "ok": ok,
            }
        )
    doc["levels"] = rows
    _emit_json(args, "measure.json", doc)
    return 1 if bad else 0


def _cmd_vershik(args) -> int:
    diagram = _build(args)
    ordering = make_ordering(diagram, _ordering_spec(args))
    doc = document_header(diagram, ordering=ordering, seed=args.seed)
    doc["level"] = args.level
    doc["vertices"] = [
        {
            "coords": list(v.coords),
            "dimension": diagram.dimension(v),
            "indegree": ordering.indegree(v),
            "minimal_path": ordering.minimal_path(v).to_json(),
            "maximal_path": ordering.maximal_path(v).to_json(),
        }
        for v in diagram.vertices(args.level)
    ]
    _emit_json(args, "vershik.json", doc)
    return 0


def _cmd_export(args) -> int:
    diagram = _build(args)
    if args.format == "dot":
        _emit(args, "diagram.dot", export_dot(diagram, args.levels, args.parallel_edges))
    else:
        _emit_json(args, "diagram.json", export_json(diagram, args.levels))
    return 0


def _cmd_verify_all(args) -> int:
    diagram = _build(args)
    result = verify_all(diagram, args.levels)
    doc = document_header(diagram, seed=args.seed)
    doc["result"] = result.to_json()
    _emit_json(args, "verify.json", doc)
    return 0 if result.passed else 1


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_NON_NEGATIVE = _int_at_least(0)
_POSITIVE = _int_at_least(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyadic",
        description="Polynomial-shape diagrams: lattices, orderings, probes, measures.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--poly", required=True, help="polynomial text, file, or JSON")
    common.add_argument("--mode", choices=("polynomial", "shape"), default="polynomial")
    common.add_argument(
        "--multiplicity",
        default=None,
        help="shape mode only: 'all-ones' (the default) or a JSON table file",
    )
    common.add_argument("--out", default=None, help="directory for output files")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", parents=[seeded], help="polynomial and vertex counts")
    p.add_argument("--levels", type=_NON_NEGATIVE, default=5)
    p.set_defaults(fn=_cmd_describe)

    p = sub.add_parser("covered", parents=[seeded], help="coverage report for one level")
    p.add_argument("--level", type=_NON_NEGATIVE, required=True)
    p.set_defaults(fn=_cmd_covered)

    p = sub.add_parser("chain", parents=[seeded], help="chain starts and one extension")
    p.add_argument("--level", type=_NON_NEGATIVE, required=True)
    p.add_argument(
        "--target-len", type=_NON_NEGATIVE, default=None, help="splitting vertices to reach"
    )
    p.set_defaults(fn=_cmd_chain)

    p = sub.add_parser("probe", parents=[seeded], help="depth-i conflict search")
    p.add_argument("--ordering", default="source-lex", help="preset name or JSON file")
    p.add_argument("--i", type=_NON_NEGATIVE, required=True)
    p.add_argument("--horizon", type=_POSITIVE, required=True)
    p.add_argument("--floor", type=_NON_NEGATIVE, default=0, help="minimum terminal min-coordinate")
    p.add_argument("--budget", type=_POSITIVE, default=DEFAULT_TOWER_BUDGET, help="max tower size")
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("measure", parents=[seeded], help="weights and mass bounds")
    p.add_argument("--levels", type=_NON_NEGATIVE, default=6)
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("vershik", parents=[seeded], help="towers at one level")
    p.add_argument("--ordering", default="source-lex", help="preset name or JSON file")
    p.add_argument("--level", type=_NON_NEGATIVE, required=True)
    p.set_defaults(fn=_cmd_vershik)

    p = sub.add_parser("export", parents=[common], help="diagram as JSON or DOT")
    p.add_argument("--levels", type=_NON_NEGATIVE, default=4)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--parallel-edges", action="store_true")
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("verify-all", parents=[seeded], help="run every invariant suite")
    p.add_argument("--levels", type=_NON_NEGATIVE, default=6)
    p.set_defaults(fn=_cmd_verify_all)

    for p in sub.choices.values():
        p.set_defaults(parser=p)  # so an unknown option is reported with the subcommand's usage
    return parser


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.fn(args)
    except (PolyadicError, OSError, ValueError) as exc:
        # ValueError covers bad preset names and malformed JSON inputs
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
