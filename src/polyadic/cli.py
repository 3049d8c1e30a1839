"""Command-line interface.

`main` reads the polynomial and, for `probe` and `vershik`, the ordering,
each given inline or as `@path` and read by `_read`; it builds the diagram
of the polynomial (whose coefficients are its edge counts) and the
ordering and hands them to the subcommand's handler.  A handler returns
its exit code and the body of its document; `main` puts the common header
on the body and writes one deterministic JSON document (DOT for the
exporter) to stdout or to a fixed file name under `--out`.  Exit codes: 0
success, 1 completed but a discrepancy was found (`covered`, `measure`,
`verify-all`), 2 usage or input errors.

`describe`, `vershik`, `export` and `probe` need only the modules
`import polyadic` loads.  The handlers of `covered`, `chain`, `measure` and
`verify-all` import `coverage`, `chains`, `measure` and `verify` in their own
bodies, so those modules (and `fractions`, which `measure` needs) load only
with the first such command.  `probe` is imported at the top although only
one command uses it: it costs about 1.7 ms, numpy loads later with the first
probe, and perfbench's tracer wraps only the package modules loaded before it
starts, so a deferred `probe` would lose its per-layer spans.

The argparse tree is built once per process, by the first `main` call, and
`main` may be called any number of times in one process: each call parses
into a fresh namespace, and the tree holds nothing a call changes.  The tree
holds the handlers (`fn=_cmd_*`) it was built with, so patching a `_cmd_*`
function after the first call has no effect on `main`.  Only a caller that
runs `main` more than once in a process saves the build (about 1 ms a call);
a `polyadic` console-script run calls `main` once and builds the tree once.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .core import Diagram, _count, parse_polynomial
from .errors import PolyadicError
from .export import document_header, export_dot, export_json, to_stable_json
from .probe import probe_depth_pairs
from .vershik import DEFAULT_TOWER_BUDGET, make_ordering


def _read(arg: str, parse):
    """parse(arg), or, for "@path", parse of that file's text; an error in
    the file names it."""
    if not arg.startswith("@"):
        return parse(arg)
    with open(arg[1:], encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(text)
    except (PolyadicError, ValueError) as exc:
        raise ValueError(f"{arg[1:]}: {exc}") from exc


def _cmd_describe(args, diagram, ordering):
    return 0, {
        "arity": diagram.arity,
        "degree": diagram.degree,
        "vertex_counts": {
            str(level): diagram.vertex_count(level) for level in range(1, args.levels + 1)
        },
        "source_vectors": [list(s) for s in diagram.spec.source_vectors],
    }


def _cmd_covered(args, diagram, ordering):
    from .coverage import coverage_report

    report = coverage_report(diagram, args.level)
    return 1 if report.discrepancies else 0, {
        "report": report.to_json(),
        "covered_count": report.covered_count,
        "uncovered_count": report.uncovered_count,
    }


def _cmd_chain(args, diagram, ordering):
    from .chains import build_distinguished_chain, find_chain_start

    starts = find_chain_start(diagram, args.level)
    body = {
        "level": args.level,
        "start_count": len(starts),
        "starts": [
            {
                "v": list(s.v.coords),
                "v_prime": list(s.v_prime.coords),
                "direction": s.direction,
                "shared": list(s.shared.coords),
            }
            for s in starts[:20]
        ],
    }
    if starts:
        s = starts[0]
        target = 2 * diagram.degree + 3 if args.target_len is None else args.target_len
        try:
            chain = build_distinguished_chain(diagram, s.v, s.v_prime, s.shared, s.direction, target)
            body["chain"] = chain.to_json()
        except PolyadicError as exc:
            body["chain_error"] = str(exc)
    return 0, body


def _cmd_probe(args, diagram, ordering):
    report = probe_depth_pairs(
        ordering, args.i, args.horizon, min_coord_floor=args.floor, budget=args.budget
    )
    return 0, {"report": report.to_document()}


def _cmd_measure(args, diagram, ordering):
    from .measure import (
        MASS_TOLERANCE,
        dim_lower_bound_check,
        level_mass,
        minimal_mass_bound,
        solve_symmetric_weight,
    )

    weight = solve_symmetric_weight(diagram)
    rows = []
    for level in range(1, args.levels + 1):
        mass = level_mass(diagram, level, weight)
        bound = minimal_mass_bound(diagram, level, weight)
        low_dims = dim_lower_bound_check(diagram, level)
        rows.append(
            {
                "level": level,
                "total_mass": float(mass),
                "minimal_mass": bound.to_json(),
                "dimension_counterexamples": [list(v.coords) for v, _ in low_dims],
                "ok": bound.ok and abs(mass - 1) <= MASS_TOLERANCE and not low_dims,
            }
        )
    return 0 if all(row["ok"] for row in rows) else 1, {"weight": weight.to_json(), "levels": rows}


def _cmd_vershik(args, diagram, ordering):
    return 0, {
        "level": args.level,
        "vertices": [
            {
                "coords": list(v.coords),
                "dimension": diagram.dimension(v),
                "indegree": ordering.indegree(v),
                "minimal_path": ordering.minimal_path(v).to_json(),
                "maximal_path": ordering.maximal_path(v).to_json(),
            }
            for v in diagram.vertices(args.level)
        ],
    }


def _cmd_export(args, diagram, ordering):
    if args.format == "dot":
        return 0, export_dot(diagram, args.levels, args.parallel_edges)
    return 0, export_json(diagram, args.levels)


def _cmd_verify_all(args, diagram, ordering):
    from .verify import verify_all

    result = verify_all(diagram, args.levels)
    return 0 if result.passed else 1, {"result": result.to_json()}


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        return _count(value, low, what="value", error=argparse.ArgumentTypeError)

    return parse


_NON_NEGATIVE = _int_at_least(0)
_POSITIVE = _int_at_least(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse tree, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="polyadic",
        description="Polynomial-shape diagrams: lattices, orderings, probes, measures.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--poly", required=True, help="polynomial text or JSON, or @file")
    common.add_argument("--out", default=None, help="directory for output files")
    ordered = argparse.ArgumentParser(add_help=False, parents=[common])
    ordered.add_argument("--ordering", default="source-lex", help="preset name or JSON, or @file")
    ordered.add_argument("--seed", type=int, default=None, help="seed of the random preset")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", parents=[common], help="polynomial and vertex counts")
    p.add_argument("--levels", type=_POSITIVE, default=5)
    p.set_defaults(fn=_cmd_describe, file="describe")

    p = sub.add_parser("covered", parents=[common], help="coverage report for one level")
    p.add_argument("--level", type=_NON_NEGATIVE, required=True)
    p.set_defaults(fn=_cmd_covered, file="covered")

    p = sub.add_parser("chain", parents=[common], help="chain starts and one extension")
    p.add_argument("--level", type=_NON_NEGATIVE, required=True)
    p.add_argument(
        "--target-len", type=_int_at_least(2), default=None, help="splitting vertices to reach"
    )
    p.set_defaults(fn=_cmd_chain, file="chain")

    p = sub.add_parser("probe", parents=[ordered], help="depth-i conflict search")
    p.add_argument("--i", type=_NON_NEGATIVE, required=True)
    p.add_argument("--horizon", type=_POSITIVE, required=True)
    p.add_argument("--floor", type=_NON_NEGATIVE, default=0, help="minimum terminal min-coordinate")
    p.add_argument("--budget", type=_POSITIVE, default=DEFAULT_TOWER_BUDGET, help="max tower size")
    p.set_defaults(fn=_cmd_probe, file="probe")

    p = sub.add_parser("measure", parents=[common], help="weights and mass bounds")
    p.add_argument("--levels", type=_POSITIVE, default=6)
    p.set_defaults(fn=_cmd_measure, file="measure")

    p = sub.add_parser("vershik", parents=[ordered], help="towers at one level")
    p.add_argument("--level", type=_NON_NEGATIVE, required=True)
    p.set_defaults(fn=_cmd_vershik, file="vershik")

    p = sub.add_parser("export", parents=[common], help="diagram as JSON or DOT")
    p.add_argument("--levels", type=_NON_NEGATIVE, default=4)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--parallel-edges", action="store_true")
    p.set_defaults(fn=_cmd_export, file="diagram")

    p = sub.add_parser("verify-all", parents=[common], help="run every invariant suite")
    p.add_argument("--levels", type=_POSITIVE, default=6)
    p.set_defaults(fn=_cmd_verify_all, file="verify")

    for p in sub.choices.values():
        p.set_defaults(parser=p)  # so an unknown option is reported with the subcommand's usage
    return parser


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        diagram = Diagram(_read(args.poly, parse_polynomial))
        ordering = None
        if "ordering" in args:
            ordering = _read(args.ordering, lambda text: make_ordering(diagram, text, args.seed))
        code, body = args.fn(args, diagram, ordering)
        if isinstance(body, str):  # export's DOT text
            name, text = f"{args.file}.dot", body
        else:  # export's JSON already holds this header, without the ordering
            header = document_header(diagram, ordering=ordering)
            name, text = f"{args.file}.json", to_stable_json(header | body)
        if not args.out:
            sys.stdout.write(text)
        else:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(path)
        return code
    except (PolyadicError, OSError, ValueError) as exc:
        # ValueError covers bad preset names and malformed JSON inputs
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
