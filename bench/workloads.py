"""Workloads of the verification benchmark.

Each workload turns a seed into a plan, builds the verified artifact from
names that ``nofmux`` exports, verifies it over its whole input domain and
checks the verdict against pinned values.  Import this module only after
``nofmux`` is importable (see ``run.load_nofmux``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import time
from typing import NamedTuple

import nofmux

DEFAULT_SEED = 0


class NoProbe:
    """Stand-in for ``tracing.Tracer`` in untraced runs."""

    def spec(self, layer, spec):
        return spec

    def mark(self, phase):
        pass


NO_PROBE = NoProbe()


@dataclasses.dataclass(frozen=True)
class Compiled:
    """A compiled protocol with everything its verdict is checked against."""
    spec: nofmux.ProtocolSpec
    f: nofmux.TruthTable
    plan: nofmux.CompilationPlan
    bound: nofmux.Bound
    naive: int


def naive_baseline(plan) -> int:
    """ell independent runs: single-instance cost plus one output bit each."""
    single = nofmux.measure_cost(plan.protocols[0]).worst_case_bits
    return plan.ell * (single + 1)


class CompiledWorkload:
    """A compiled plan verified by one exhaustive sweep.

    The gate: the oracle verdict is correct on every input, the measured
    worst case equals the predicted bound and the pinned cost, and the
    naive baseline equals its pinned value.
    """

    seeded = True

    def __init__(self, name, ell, k, cost, payload, naive):
        self.name = name
        self.domain = 1 << (ell * k)  # n = 1
        self.want_bound = nofmux.Bound(cost, payload)
        self.want_naive = naive

    def sweep(self, art: Compiled):
        return nofmux.exhaustive_verify(art.spec, art.f, art.bound.total,
                                        art.naive)

    def check(self, art: Compiled, report) -> tuple[int, list[str]]:
        """Inputs failed and what missed; any miss fails the whole run."""
        misses = []
        if not report.correct:
            ce = report.counterexample
            misses.append(f"counterexample at input {ce.input_index} "
                          f"instance {ce.instance}")
        if report.checked != self.domain and report.correct:
            misses.append(f"checked {report.checked} of {self.domain} inputs")
        if art.bound != self.want_bound:
            misses.append(f"bound {tuple(art.bound)}, want "
                          f"{tuple(self.want_bound)}")
        if report.measured_worst_case != self.want_bound.total:
            misses.append(f"measured cost {report.measured_worst_case}, want "
                          f"{self.want_bound.total}")
        if art.naive != self.want_naive:
            misses.append(f"naive baseline {art.naive}, want "
                          f"{self.want_naive}")
        return (self.domain if misses else 0), misses

    def digest_specs(self, art: Compiled):
        return (art.spec,)

    def plain_calls(self, art: Compiled) -> int:
        """Base-protocol calls that one plain run per instance would make."""
        base = art.plan.protocols[0]
        return self.domain * art.plan.ell * (base.k * base.rounds + 1)


class SymmetricEquality(CompiledWorkload):
    """t2: equality on example3's graph, k=5, n=1, ell=3.  Equality is the
    only symmetric function example3 computes, so the seed changes nothing."""

    seeded = False

    def __init__(self):
        super().__init__("t2-equality", ell=3, k=5, cost=5, payload=2,
                         naive=6)

    def plan(self, seed):
        return (5, 1, 3)

    def build(self, plan, probe=NO_PROBE) -> Compiled:
        k, n, ell = plan
        f = nofmux.TruthTable.eq(k, n)
        base = probe.spec("protocols.base", nofmux.example3_protocol(k, n))
        spec, cplan, _ = nofmux.compile_symmetric(
            base, f, nofmux.example3_graph(k),
            nofmux.example3_filtering_triplets(k), ell=ell)
        return Compiled(probe.spec("compiler.mux", spec), f, cplan,
                        nofmux.predicted_bound(cplan), naive_baseline(cplan))


T3_CERTIFICATE = (nofmux.BindingTriplet(2, 2, frozenset({1, 2})),)
T3_DEFAULT_CHAIN = (4, 2, 5, 1, 3, 6, 7)


def t3_chains() -> list[tuple[int, ...]]:
    """Second chains that keep the t3 triplet binding next to the identity."""
    ident = nofmux.Permutation.identity(7)
    return [img for img in itertools.permutations(range(1, 8))
            if nofmux.is_repetitive_set(
                T3_CERTIFICATE, (ident, nofmux.Permutation(img)))]


class MyopicEquality(CompiledWorkload):
    """t3: two k=7 equality chains, the identity and a seeded second chain,
    combined under the binding triplet (2, 2, {1, 2})."""

    def __init__(self):
        super().__init__("t3-myopic", ell=2, k=7, cost=11, payload=9,
                         naive=12)

    def plan(self, seed):
        if seed == DEFAULT_SEED:
            return T3_DEFAULT_CHAIN
        return random.Random(seed).choice(t3_chains())

    def build(self, plan, probe=NO_PROBE) -> Compiled:
        perms = (nofmux.Permutation.identity(7), nofmux.Permutation(plan))
        chains = tuple(probe.spec("protocols.base",
                                  nofmux.myopic_eq_chain(7, 1, pi))
                       for pi in perms)
        spec = nofmux.myopic_combine(chains, perms, T3_CERTIFICATE)
        cplan = nofmux.CompilationPlan("t3", 2, perms, chains,
                                       T3_CERTIFICATE)
        return Compiled(probe.spec("compiler.mux", spec),
                        nofmux.TruthTable.eq(7, 1), cplan,
                        nofmux.predicted_bound(cplan), naive_baseline(cplan))


class Legality:
    """Pattern conformance and bit-flip view legality on every input of
    three uncompiled built-ins, one per model.  Each input that raises
    counts as failed; a worst-case cost off its pinned value fails the
    whole protocol's domain."""

    name = "legality"
    seeded = True
    # lemma1 k=4 n=1 (n + k - 1), example3 k=5 n=2 (1 bit), chain k=5 (k - 2)
    want_costs = (4, 1, 3)
    domain = (1 << 12) + (1 << 10) + (1 << 10)

    def plan(self, seed):
        return nofmux.random_truth_table(4, 1, seed).values

    def build(self, plan, probe=NO_PROBE):
        specs = (
            nofmux.lemma1_protocol(nofmux.TruthTable(4, 1, plan)),
            nofmux.example3_protocol(5, 2),
            nofmux.myopic_eq_chain(5, 2, nofmux.Permutation.identity(5)),
        )
        return tuple(probe.spec("protocols.base", s) for s in specs)

    def sweep(self, specs):
        """Each protocol's cost over its domain, then every legality check."""
        costs = tuple(nofmux.measure_cost(spec).worst_case_bits
                      for spec in specs)
        failed, misses = 0, []
        for spec in specs:
            for idx in range(nofmux.domain_size(spec.k, spec.n, spec.ell)):
                x = nofmux.InputMatrix.from_index(idx, spec.k, spec.n,
                                                  spec.ell)
                try:
                    nofmux.check_view_legality(spec, x)
                except nofmux.NofmuxError as exc:
                    failed += 1
                    misses.append(f"{spec.name} input {idx}: {exc}")
        return costs, failed, misses

    def check(self, specs, outcome) -> tuple[int, list[str]]:
        costs, failed, misses = outcome
        misses = misses[:3]
        for spec, got, want in zip(specs, costs, self.want_costs):
            if got != want:
                failed += nofmux.domain_size(spec.k, spec.n, spec.ell)
                misses.append(f"{spec.name}: cost {got}, want {want}")
        return min(failed, self.domain), misses

    def digest_specs(self, specs):
        return specs

    def plain_calls(self, specs) -> int:
        return sum(nofmux.domain_size(s.k, s.n, s.ell) * (s.k * s.rounds + 1)
                   for s in specs)


WORKLOADS = {w.name: w for w in (SymmetricEquality(), MyopicEquality(),
                                 Legality())}


class Verdict(NamedTuple):
    """One plan-to-verdict pass: inputs attempted and failed, what missed,
    and the times of its phases."""
    attempted: int
    failed: int
    misses: tuple[str, ...]
    setup_s: float
    sweep_s: float
    sweep_cpu_s: float
    check_s: float

    @property
    def total_s(self) -> float:
        """Wall time from plan to checked verdict."""
        return self.setup_s + self.sweep_s + self.check_s


def verdict(workload, plan, probe=NO_PROBE, fault=None) -> Verdict:
    """Build, sweep the whole domain and check.  ``fault`` maps the built
    artifact to a deliberately broken one, so tests can show the gate is
    not vacuous.  A miss on a check of the whole run fails every input."""
    clock = time.perf_counter
    setup_s = sweep_s = sweep_cpu_s = 0.0
    start = clock()
    try:
        art = workload.build(plan, probe)
        setup_s = clock() - start
        probe.mark("setup")
        if fault is not None:
            art = fault(art)
        cpu, start = time.process_time(), clock()
        outcome = workload.sweep(art)
        sweep_s = clock() - start
        sweep_cpu_s = time.process_time() - cpu
        probe.mark("sweep")
        start = clock()
        failed, misses = workload.check(art, outcome)
    except nofmux.NofmuxError as exc:
        misses, failed = [f"{type(exc).__name__}: {exc}"], workload.domain
    return Verdict(workload.domain, failed, tuple(misses), setup_s, sweep_s,
                   sweep_cpu_s, clock() - start)


def transcript_digest(specs, limit: int | None = None) -> str:
    """SHA-256 over full-domain transcripts, run directly with
    ``run_protocol``.  Hashes (round, sender, recipient, payload) of each
    record and the outputs; framing tags and protocol indices are left out,
    so a change of framing that keeps the bits keeps the digest.  ``limit``
    caps the inputs per protocol."""
    h = hashlib.sha256()
    for spec in specs:
        size = nofmux.domain_size(spec.k, spec.n, spec.ell)
        for idx in range(size if limit is None else min(limit, size)):
            x = nofmux.InputMatrix.from_index(idx, spec.k, spec.n, spec.ell)
            t = nofmux.run_protocol(spec, x)
            line = ";".join(f"{r.round},{r.sender},{r.recipient},{r.payload}"
                            for r in t.records)
            outs = ",".join(f"{i}={b}" for i, b in sorted(t.outputs.items()))
            h.update(f"{line}|{outs}\n".encode())
    return h.hexdigest()


# Full-domain digests for DEFAULT_SEED (t2 has no seed, so its digest holds
# for every seed).  A change that alters any transcript bit moves these.
PINNED_DIGESTS = {
    "t2-equality":
        "eff258d966c664fd7f449e5f1fdb4c4ba23fcce651b0d07829552c00e10a145f",
    "t3-myopic":
        "dd392a541fccecec70cf5af1d9a4e759bc85028c0f94e969f97f3f470b003660",
    "legality":
        "bf3098d113dd72944a6f84004734422b23d2a7c8a4d78888ce751c146fb6b837",
}


# ---------------------------------------------------------------------------
# projection of the slow sweeps
# ---------------------------------------------------------------------------

def forwarding_pipeline(n: int):
    """t1 with user-supplied variants: k=4, ell=3, forwarding protocols
    Q^1..Q^3 and the triplet (4, 1, {2, 3})."""
    k, ell = 4, 3
    f = nofmux.random_truth_table(k, n, seed=5)
    protos = tuple(nofmux.example1_variant(f, i) for i in range(1, ell + 1))
    perms = tuple(nofmux.example1_permutation(k, i)
                  for i in range(1, ell + 1))
    cert = (nofmux.MultiplexTriplet(4, 1, frozenset({2, 3})),)
    plan = nofmux.CompilationPlan("t1", ell, perms, protos, cert,
                                  nofmux.example1_graph(k))
    return nofmux.multiplex_combine(plan), f, nofmux.predicted_bound(plan)


def equality_pipeline(k: int):
    f = nofmux.TruthTable.eq(k, 1)
    spec, plan, _ = nofmux.compile_symmetric(
        nofmux.example3_protocol(k, 1), f, nofmux.example3_graph(k),
        nofmux.example3_filtering_triplets(k), ell=3)
    return spec, f, nofmux.predicted_bound(plan)


# name -> (pipeline constructor, its argument, pinned cost, samples)
PROJECTIONS = {
    "projection.t1_fwd_n2_s": (forwarding_pipeline, 2, 5, 2000),
    "projection.t2_eq7_s": (equality_pipeline, 7, 4, 600),
}


class Projection(NamedTuple):
    seconds: float
    attempted: int
    misses: tuple[str, ...]


def project(name: str, seed: int) -> Projection:
    """Projected wall time of a slow full-domain sweep, from the time of a
    seeded ``sampled_verify`` sample.  The sample is gated like a sweep."""
    build, arg, cost, samples = PROJECTIONS[name]
    spec, f, bound = build(arg)
    t0 = time.perf_counter()
    report = nofmux.sampled_verify(spec, f, samples, seed, bound.total)
    took = time.perf_counter() - t0
    misses = []
    if not report.correct:
        misses.append(f"{name}: counterexample at input "
                      f"{report.counterexample.input_index}")
    if not (report.measured_worst_case == bound.total == cost):
        misses.append(f"{name}: cost {report.measured_worst_case}, bound "
                      f"{bound.total}, want {cost}")
    size = nofmux.domain_size(spec.k, spec.n, spec.ell)
    return Projection(took / samples * size, samples, tuple(misses))
