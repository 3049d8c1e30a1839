"""Benchmark of the polyadic CLI and library, one workload per run.

    python3 perfbench/run.py --workload probe-kill --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run repeats the workload's request list, one request at a time in this
one process, until --seconds have passed, and times set-up in fresh
interpreters spread over the same span.  Every timed sample is paired with a fixed reference kernel
timed around it (reference.py), and times are reported at the reference
machine's speed, which keeps them steady on a host whose speed drifts.
--trace 0 reports the end-to-end metrics with tracing off; --trace 1
alternates untraced passes with passes in which every public function of
the package is wrapped in a span, and reports the per-layer metrics.  The
metric names and units come from BENCHMARK.json at the root of the
checkout.  The last line of standard output is the result as one JSON
object; the full record of the run goes to .bench_out/ in the checkout.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# one request at a time on one thread: keep numpy's BLAS pool from starting
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("probe-kill", "probe-survive", "towers", "verify-gate")
SETUP_SAMPLES = 9
SPAN_SUM_TOLERANCE = 1e-6  # relative; self times must add up to the root span


class HarnessError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


def load_package():
    if not (SRC / "polyadic" / "__init__.py").is_file():
        raise HarnessError(f"no polyadic package under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyadic

    if Path(polyadic.__file__).resolve().parent != (SRC / "polyadic").resolve():
        raise HarnessError(f"imported polyadic from {polyadic.__file__}, not {SRC}")
    return polyadic


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read BENCHMARK.json: {exc}") from exc


# ------------------------------------------------------------------ set-up


def measure_setup(texts: list[str]) -> float:
    """Set-up seconds in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), str(SRC), *texts],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise HarnessError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(sample["package"]).resolve().parent != (SRC / "polyadic").resolve():
        raise HarnessError(f"set-up child imported {sample['package']}")
    return sample["setup_s"]


# ------------------------------------------------------------------ requests


@dataclass
class Rep:
    """One pass over the request list."""

    traced: bool
    wall: float = 0.0
    durations: list[float] = field(default_factory=list)
    # reference-kernel time around each request: mean of the runs before and after
    refs: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    paths: int = 0
    doc_bytes: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    spans: dict[str, tuple] = field(default_factory=dict)


def run_request(req, rep: Rep, tracer) -> None:
    outcome = None
    problems: list[str] = []
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outcome = req.call(False)
        else:
            outcome = tracer.request("request", lambda: req.call(True))
    except Exception as exc:  # any raise is a failed request, never a stopped run
        problems.append(f"raised {type(exc).__name__}: {str(exc)[:200]}")
    dur = time.perf_counter() - t0
    if tracer is not None:
        root = tracer.roots[-1]
        dur = root.duration
        if abs(root.self_sum - root.duration) > SPAN_SUM_TOLERANCE * root.duration + 1e-9:
            problems.append(
                f"span self times sum to {root.self_sum!r}, request took {root.duration!r}"
            )
    if outcome is not None:
        try:
            problems += req.check(outcome)
        except Exception as exc:
            problems.append(f"output check raised {type(exc).__name__}: {exc}")
        rep.doc_bytes += outcome.doc_bytes
        rep.paths += outcome.paths
        for key, value in outcome.counts.items():
            rep.counts[key] = rep.counts.get(key, 0) + value
    rep.attempted += 1
    rep.wall += dur
    rep.durations.append(dur)
    if problems:
        rep.failed += 1
        rep.failures.append(f"{req.label}: {'; '.join(problems)}")


def run_requests(requests, rep: Rep, tracer) -> None:
    gc.collect()
    ref = reference.timed()
    for req in requests:
        run_request(req, rep, tracer)
        gc.collect()
        ref_after = reference.timed()
        rep.refs.append((ref + ref_after) / 2)
        ref = ref_after


def run_pass(requests, tracer=None) -> Rep:
    rep = Rep(traced=tracer is not None)
    if tracer is None:
        run_requests(requests, rep, None)
        return rep
    before = tracer.snapshot()
    tracer.install()
    try:
        run_requests(requests, rep, tracer)
    finally:
        tracer.uninstall()
    after = tracer.snapshot()
    rep.spans = {
        name: tuple(a - b for a, b in zip(after[name], before.get(name, (0, 0.0, 0.0, 0))))
        for name in after
    }
    return rep


@dataclass
class Run:
    untraced: list[Rep] = field(default_factory=list)
    traced: list[Rep] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)


def run_reps(requests, seconds: float, tracer=None, setup_texts=None) -> Run:
    """Passes over the request list that fit in `seconds`, at least one.

    With a tracer, untraced and traced passes alternate, so both see the
    same spells of a fast or slow machine.  With `setup_texts`, the
    SETUP_SAMPLES set-up samples are spread evenly over the run for the same
    reason.  A round starts only if one more round of the last one's length
    still ends within the budget, so a run measures for --seconds and not a
    round longer.
    """
    run = Run()
    want_setup = SETUP_SAMPLES if setup_texts is not None else 0
    start = time.perf_counter()
    last = 0.0
    while not run.untraced or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        if len(run.setup) < want_setup and t0 - start >= len(run.setup) * seconds / want_setup:
            run.setup.append(measure_setup(setup_texts))
        run.untraced.append(run_pass(requests))
        if tracer is not None:
            run.traced.append(run_pass(requests, tracer))
        last = time.perf_counter() - t0
    while len(run.setup) < want_setup:
        run.setup.append(measure_setup(setup_texts))
    return run


# ------------------------------------------------------------------ metrics


def rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def at_reference_speed(pairs) -> float:
    """Median over samples of (time / reference-kernel time around it), in
    seconds of a machine where the kernel takes reference.NOMINAL_S.

    A shared host switches between speeds up to 2x apart for seconds to
    minutes, and CPU time slows with wall time.  The kernel run just before
    and after a sample slows with it, so the ratio holds whenever the host
    kept one speed across the three; the median drops the samples that a
    switch fell inside.
    """
    return median(t / ref for t, ref in pairs) * reference.NOMINAL_S


def request_times(reps: list[Rep]) -> list[float]:
    """Each request's time at reference speed, over the passes."""
    return [
        at_reference_speed(zip(ds, refs))
        for ds, refs in zip(zip(*(r.durations for r in reps)), zip(*(r.refs for r in reps)))
    ]


def rates(requests, times: list[float], paths: int) -> dict[str, float]:
    """Probe pairs and tower paths per second of their requests' times."""
    probe_s = sum(t for req, t in zip(requests, times) if req.kind == "probe")
    paths_s = sum(t for req, t in zip(requests, times) if req.kind == "paths")
    return {
        "pairs_per_s": rate(sum(req.pairs for req in requests), probe_s),
        "paths_per_s": rate(paths, paths_s),
    }


def end_to_end(requests, reps: list[Rep], setup: list[float]) -> dict[str, float]:
    times = request_times(reps)
    return {
        # set-up is mostly imports, which slow less than the kernel does on a
        # loaded host, so it stays in measured seconds
        "setup_s": median(setup),
        "wall_ref_s": sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # reported alongside, not bounded: see README
        **rates(requests, times, reps[-1].paths),
        "failed_frac": sum(r.failed for r in reps) / sum(r.attempted for r in reps),
        "wall_s": sum(median(ds) for ds in zip(*(r.durations for r in reps))),
        "reference_kernel_s": median(k for r in reps for k in r.refs),
    }


def per_layer(requests, untraced: list[Rep], traced: list[Rep], suites: dict[str, str]) -> dict[str, float]:
    times = request_times(untraced)
    speed = rates(requests, times, untraced[-1].paths)
    out: dict[str, float] = {
        "trace.overhead_frac": sum(request_times(traced)) / sum(times) - 1,
        "probe.pairs_per_s": speed["pairs_per_s"],
        "vershik.paths_per_s": speed["paths_per_s"],
        "export.doc_bytes": untraced[-1].doc_bytes,
    }
    counts = traced[-1].counts
    for key in ("candidates", "coding_killed", "censored"):
        out[f"probe.{key}"] = counts.get(key, 0)
    out["probe.kill_ratio"] = rate(counts.get("coding_killed", 0), counts.get("candidates", 0))
    # a pass's self times, scaled by that pass's reference-kernel time
    pass_refs = [median(r.refs) for r in traced]
    for name in traced[-1].spans:
        calls, self_s, total_s, errors = zip(*(r.spans[name] for r in traced))
        out[f"{name}.calls"] = median(calls)
        out[f"{name}.self_s"] = at_reference_speed(zip(self_s, pass_refs))
        out[f"{name}.errors"] = median(errors)
        if name in suites:
            out[f"verify.{suites[name]}.s"] = at_reference_speed(zip(total_s, pass_refs))
            out[f"verify.{suites[name]}.errors"] = median(errors)
    return out


def select(values: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise HarnessError(f"BENCHMARK.json names metrics this run does not compute: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


# ------------------------------------------------------------------ entry points


def run_workload(args, spec: dict) -> int:
    polyadic = load_package()
    import sysinfo
    import tracer as tracing
    import workloads

    requests = workloads.build(args.workload, args.seed)

    if args.trace:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "polyadic" or n.startswith("polyadic.")]
        tracer = tracing.Tracer(modules, {"core": polyadic.Diagram, "vershik": polyadic.Ordering})
        run = run_reps(requests, args.seconds, tracer)
        untraced, traced = run.untraced, run.traced
        suites = {f"verify.{fn.__name__}": n for n, fn in workloads.suite_functions().items()}
        values = per_layer(requests, untraced, traced, suites)
        declared = spec["per_layer"]
        reps = untraced + traced
    else:
        texts = [workloads.DIAGRAMS[n][0] for n in workloads.POLYNOMIALS[args.workload]]
        run = run_reps(requests, args.seconds, setup_texts=texts)
        reps = run.untraced
        values = end_to_end(requests, reps, run.setup)
        declared = spec["end_to_end"]

    metrics = select(values, declared)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "system": sysinfo.describe(ROOT, args.seed),
        "setup_samples_s": run.setup,
        "requests": [r.label for r in requests],
        "reps": [
            {"traced": r.traced, "wall_s": r.wall, "request_s": r.durations, "ref_s": r.refs,
             "attempted": r.attempted, "failed": r.failed}
            for r in reps
        ],
        "failures": sorted({f for r in reps for f in r.failures})[:50],
        "all_values": values,
        "waiting_s": "not measured: one thread, no layer waits on another",
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(reps)} passes, "
          f"{attempted} requests, {failed} failed; record in {out_file.relative_to(ROOT)}")
    for line in record["failures"][:10]:
        print(f"  FAILED {line}")
    shown = values if not args.trace else {
        k: v for k, v in sorted(values.items(), key=lambda kv: -kv[1])
        if k.endswith(".self_s") and v > 0
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in list(shown.items())[:25]:
        print(f"  {name:<44} {value:.6g} {units.get(name, '')}")
    print(json.dumps(record["result"]))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, as one table."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, end="")
            return proc.returncode
        record = json.loads((OUT_DIR / f"{name}-seed{args.seed}-trace0.json").read_text())
        rows.append((name, record["all_values"], record["result"]["correct"]))
    cols = [("setup_s", "s"), ("wall_ref_s", "s"), ("wall_s", "s"), ("pairs_per_s", "1/s"),
            ("paths_per_s", "1/s"), ("peak_rss_mb", "MB"), ("failed_frac", "1")]
    print(f"{'workload':<14}" + "".join(f"{f'{c} [{u}]':>20}" for c, u in cols) + "  correct")
    for name, values, correct in rows:
        print(f"{name:<14}" + "".join(f"{values[c]:>20.6g}" for c, _ in cols) + f"  {correct}")
    return 0 if all(correct for *_, correct in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload == "all":
            return run_all(args)
        return run_workload(args, spec)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
