"""Verification benchmark: time from a plan to an exhaustive verdict.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; nofmux is imported from its
``src/`` and from nowhere else.  Workloads (see ``workloads.py``):

* ``t2-equality``  symmetric-function pipeline, 2^15 inputs;
* ``t3-myopic``    myopic combiner with a seeded second chain, 2^14 inputs;
* ``legality``     pattern conformance and bit-flip legality on three
                   uncompiled built-ins, 6144 inputs.

An untraced run verifies the whole domain, each time from a fresh build,
as many times as fit in ``--seconds`` (at least once).  Before each
verdict, and in the time left at the end, it times back-to-back builds.
It reports:

* ``us_per_input``  wall time of a whole sweep over the domain size,
                    median over sweeps;
* ``setup_s``       one build: compile, certificate checks, bound, naive
                    baseline (the specs alone on ``legality``), median
                    over the back-to-back builds;
* ``verdict_s``     wall time of one verdict, from plan through set-up,
                    sweep and correctness checks, median over verdicts;
* ``peak_rss_mb``   peak resident memory of this process.

The sample counts and sweep times go to stderr.  Failed inputs are
counted in ``failed`` against ``attempted``.  A traced run
(``--trace 1``) verifies once untraced and once traced, and reports
per-layer self time and call counts, the tracing overhead, a transcript
digest (pinned for the default seed) and projections of the slow sweeps.
The last line of stdout is one JSON object; the exit status is 1 when
the run failed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Builds are timed back to back for this long before each verdict and in
# the time left at the end, so that set-up is sampled at several points of
# a run, not in one stretch that load from other processes may slow
# throughout.  A batch also stops at BATCH_BUILDS builds, because a list of
# hundreds of thousands of build times would itself move ``peak_rss_mb``.
SETUP_BATCH_S = 0.5
BATCH_BUILDS = 500

END_TO_END = {
    "us_per_input": "us",
    "setup_s": "s",
    "verdict_s": "s",
    "peak_rss_mb": "MB",
}

# name -> (unit, layer whose patch points it needs, or None)
PER_LAYER = {
    "compiler.mux.us_per_input": ("us", None),
    "compiler.mux.calls_per_input": ("count", None),
    "compiler.mux.recompute_ratio": ("ratio", None),
    "compiler.permute.us_per_input": ("us", "compiler.permute"),
    "protocols.base.us_per_input": ("us", None),
    "protocols.base.calls_per_input": ("count", None),
    "core.runner.us_per_input": ("us", "core.runner"),
    "core.runner.calls_per_input": ("count", "core.runner"),
    "core.views.us_per_input": ("us", "core.views"),
    "core.views.calls_per_input": ("count", "core.views"),
    "core.decode.us_per_input": ("us", "core.decode"),
    "core.pattern.us_per_input": ("us", "core.pattern"),
    "verifier.oracle.us_per_input": ("us", "verifier.oracle"),
    "verifier.sweep.us_per_input": ("us", "verifier.sweep"),
    "verifier.sweep.cpu_util": ("ratio", None),
    "verifier.legality.us_per_input": ("us", "verifier.legality"),
    "verifier.legality.runs_per_input": ("count", "verifier.legality"),
    "core.measure.us_per_input": ("us", "core.measure"),
    "compiler.compile.ms": ("ms", "compiler.compile"),
    "combinatorics.certificate.ms": ("ms", "combinatorics.certificate"),
    "core.symmetry.ms": ("ms", "core.symmetry"),
    "verifier.prefix.ms": ("ms", "verifier.prefix"),
    "compiler.bound.ms": ("ms", "compiler.bound"),
    "core.measure.ms": ("ms", "core.measure"),
    "setup.runner.calls": ("count", "core.runner"),
    "trace.overhead": ("ratio", None),
    "trace.missing_spans": ("count", None),
    "projection.t1_fwd_n2_s": ("s", None),
    "projection.t2_eq7_s": ("s", None),
}

MISSING = -1.0  # value of a metric whose span could not be installed


def load_nofmux() -> None:
    """Import nofmux from this checkout's src/; exit if it is not there."""
    if not (SRC / "nofmux" / "__init__.py").is_file():
        raise SystemExit(f"bench: no nofmux sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nofmux
    if Path(nofmux.__file__).resolve().parent != (SRC / "nofmux").resolve():
        raise SystemExit(f"bench: imported nofmux from {nofmux.__file__}, "
                         f"not from {SRC}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _report_misses(name, misses):
    for miss in misses[:5]:
        print(f"bench: {name}: {miss}", file=sys.stderr)


def _ratio(num, den):
    return num / den if den else 0.0


def _result(attempted, failed, metrics, correct=True):
    return {"correct": correct and failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def time_builds(workload, plan, seconds: float) -> list[float]:
    """Times of back-to-back builds for about ``seconds``: at least three,
    at most ``BATCH_BUILDS``."""
    clock, builds = time.perf_counter, []
    start = clock()
    while len(builds) < 3 or (clock() - start < seconds
                              and len(builds) < BATCH_BUILDS):
        t0 = clock()
        workload.build(plan)
        builds.append(clock() - t0)
    return builds


def timed_run(workload, seed: int, seconds: float, fault=None) -> dict:
    """End-to-end metrics of untraced verdicts, from one seed's plan."""
    import workloads
    plan = workload.plan(seed)
    clock = time.perf_counter
    builds, verdicts, took = [], [], 0.0
    start = clock()
    while not verdicts or clock() - start + took <= seconds:
        t0 = clock()
        builds += time_builds(workload, plan, SETUP_BATCH_S)
        verdicts.append(workloads.verdict(workload, plan, fault=fault))
        took = clock() - t0
        _report_misses(workload.name, verdicts[-1].misses)
    builds += time_builds(workload, plan, seconds - (clock() - start))
    sweeps = sorted(v.sweep_s for v in verdicts)
    print(f"bench: {workload.name}: {len(builds)} builds, {len(sweeps)} "
          f"sweeps of {', '.join(f'{s:.3f}' for s in sweeps)} s",
          file=sys.stderr)
    median = statistics.median
    metrics = {
        "us_per_input": (median(sweeps) / workload.domain * 1e6, "us"),
        "setup_s": (median(builds), "s"),
        "verdict_s": (median(v.total_s for v in verdicts), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return _result(sum(v.attempted for v in verdicts),
                   sum(v.failed for v in verdicts), metrics)


def traced_run(workload, seed: int) -> dict:
    """Per-layer metrics from one traced verdict, next to an untraced one."""
    import workloads
    from tracing import Snapshot, Tracer
    plan = workload.plan(seed)
    plain = workloads.verdict(workload, plan)
    tracer = Tracer()
    with tracer.installed():
        traced = workloads.verdict(workload, plan, probe=tracer)
    for name, missing in (("untraced", plain.misses),
                          ("traced", traced.misses)):
        _report_misses(f"{workload.name} ({name})", missing)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed

    art = workload.build(plan)
    digest = workloads.transcript_digest(workload.digest_specs(art))
    pinned = None
    if seed == workloads.DEFAULT_SEED or not workload.seeded:
        pinned = workloads.PINNED_DIGESTS[workload.name]
    status = "unpinned" if pinned is None else (
        "match" if digest == pinned else "MISMATCH")
    print(f"transcript-digest {workload.name} seed={seed} sha256={digest} "
          f"pinned={status}")
    digest_ok = status != "MISMATCH"

    projections = {}
    for name in workloads.PROJECTIONS:
        proj = workloads.project(name, seed)
        _report_misses(name, proj.misses)
        projections[name] = proj.seconds
        attempted += proj.attempted
        failed += proj.attempted if proj.misses else 0

    empty = Snapshot({}, {}, {})
    setup = tracer.marks.get("setup", empty)
    sweep = tracer.marks.get("sweep", setup) - setup
    n = workload.domain

    def us(layer):
        return sweep.self_s.get(layer, 0.0) / n * 1e6

    def per_input(layer):
        return sweep.calls.get(layer, 0) / n

    def ms(layer):
        return setup.self_s.get(layer, 0.0) * 1e3

    values = {
        "compiler.mux.us_per_input": us("compiler.mux"),
        "compiler.mux.calls_per_input": per_input("compiler.mux"),
        "compiler.mux.recompute_ratio":
            sweep.calls.get("protocols.base", 0) / workload.plain_calls(art),
        "compiler.permute.us_per_input": us("compiler.permute"),
        "protocols.base.us_per_input": us("protocols.base"),
        "protocols.base.calls_per_input": per_input("protocols.base"),
        "core.runner.us_per_input": us("core.runner"),
        "core.runner.calls_per_input": per_input("core.runner"),
        "core.views.us_per_input": us("core.views"),
        "core.views.calls_per_input": per_input("core.views"),
        "core.decode.us_per_input": us("core.decode"),
        "core.pattern.us_per_input": us("core.pattern"),
        "verifier.oracle.us_per_input": us("verifier.oracle"),
        "verifier.sweep.us_per_input": us("verifier.sweep"),
        "verifier.sweep.cpu_util": _ratio(plain.sweep_cpu_s, plain.sweep_s),
        "verifier.legality.us_per_input": us("verifier.legality"),
        "verifier.legality.runs_per_input":
            sweep.edges.get(("verifier.legality", "core.runner"), 0) / n,
        "core.measure.us_per_input": us("core.measure"),
        "compiler.compile.ms": ms("compiler.compile"),
        "combinatorics.certificate.ms": ms("combinatorics.certificate"),
        "core.symmetry.ms": ms("core.symmetry"),
        "verifier.prefix.ms": ms("verifier.prefix"),
        "compiler.bound.ms": ms("compiler.bound"),
        "core.measure.ms": ms("core.measure"),
        "setup.runner.calls": setup.calls.get("core.runner", 0),
        "trace.overhead": _ratio(traced.sweep_s, plain.sweep_s),
        "trace.missing_spans": len(tracer.missing),
        **projections,
    }
    gone = tracer.missing_layers()
    for point in tracer.missing:
        print(f"bench: span point {point} is missing", file=sys.stderr)
    metrics = {name: (MISSING if layer in gone else values[name], unit)
               for name, (unit, layer) in PER_LAYER.items()}
    if not digest_ok:
        failed = attempted
    return _result(attempted, failed, metrics, correct=digest_ok)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("t2-equality", "t3-myopic", "legality"))
    parser.add_argument("--seed", type=int, default=None,
                        help="default: workloads.DEFAULT_SEED")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_nofmux()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.trace:
        result = traced_run(workload, seed)
    else:
        result = timed_run(workload, seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
