"""The acceptance suite: one check per acceptance criterion, with the plans
and instances the checks are built on.

``CRITERIA`` is the one table of criteria; ``nofmux demo`` and the
acceptance tests both run it.  Each check takes a sweep budget and returns
``(ok, detail)``.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, NamedTuple

from .combinatorics import (
    BindingTriplet, FilteringTriplet, MultiplexTriplet, Permutation,
    build_matrix_a, filtering_to_multiplexing, is_filtering_set,
    is_multiplexing_set, is_repetitive_set,
)
from .compiler import (
    CompilationPlan, compile_symmetric, multiplex_combine, predicted_bound,
)
from .core import (
    DEFAULT_BUDGET, NofmuxError, ProtocolSpec, RestrictionGraph, TruthTable,
    domain_size, enumerate_inputs,
)
from .protocols import (
    corollary1_protocol, eq_multi_protocol, eq_two_bit_protocol,
    example1_graph, example1_permutation, example1_protocol,
    example1_variant, example3_filtering_triplets, example3_graph,
    example3_protocol, lemma1_protocol, myopic_eq_chain,
)
from .verifier import (
    check_view_legality, exhaustive_verify, measure_cost, random_truth_table,
)

Check = Callable[[int], tuple[bool, str]]


class Criterion(NamedTuple):
    """An acceptance criterion: its name, its check and, if it has one, the
    large-domain variant of the check that ``nofmux demo --full`` runs."""
    name: str
    check: Check
    full: Check | None = None


def naive_baseline(plan: CompilationPlan, budget: int) -> int:
    """ell independent runs: single-instance cost plus one output bit each."""
    single = measure_cost(plan.protocols[0], budget).worst_case_bits
    return plan.ell * (single + 1)


def forwarding_pipeline_plan(n: int):
    """The user-supplied-variants combining plan: k=4, ell=3, forwarding
    protocols Q^1..Q^3 with the cyclic relabelings and one certificate
    triplet (4, 1, {2, 3})."""
    k, ell = 4, 3
    f = random_truth_table(k, n, seed=5)
    protos = tuple(example1_variant(f, i) for i in range(1, ell + 1))
    perms = tuple(example1_permutation(k, i) for i in range(1, ell + 1))
    cert = (MultiplexTriplet(4, 1, frozenset({2, 3})),)
    plan = CompilationPlan("t1", ell, perms, protos, cert, example1_graph(k))
    return plan, f


def nine_party_filtering_instance():
    """The published 9-party worked example: sparse graph, three triplets,
    ell=4."""
    graph = RestrictionGraph(9, frozenset({(1, 2), (1, 5), (7, 8)}))
    triplets = (FilteringTriplet(1, 2, (3, 4)), FilteringTriplet(1, 5, (6,)),
                FilteringTriplet(7, 8, (9,)))
    return graph, 4, triplets


def chained_equality_plan(n: int = 1):
    """The myopic combining demo: k=5, two equality chains, one binding
    triplet (2, 2, {1, 2})."""
    perms = (Permutation((1, 2, 3, 4, 5)), Permutation((4, 2, 5, 1, 3)))
    protos = tuple(myopic_eq_chain(5, n, pi) for pi in perms)
    cert = (BindingTriplet(2, 2, frozenset({1, 2})),)
    return CompilationPlan("t3", 2, perms, protos, cert)


def random_filtering_instance(rng: random.Random):
    """A seeded random (graph, ell, ordered filtering set) with R(S) <=
    ell - 1, for property testing the matrix pipeline."""
    k = rng.randint(3, 9)
    ell = rng.randint(2, 5)
    parties = list(range(1, k + 1))
    rng.shuffle(parties)
    num_senders = rng.randint(1, max(1, k // 3))
    senders = parties[:num_senders]
    pool = parties[num_senders:]
    budget = {a: ell - 1 for a in senders}
    triplets = []
    while len(pool) >= 2:
        open_senders = [a for a in senders if budget[a] >= 1]
        if not open_senders or rng.random() < 0.2:
            break
        a = rng.choice(open_senders)
        size = rng.randint(1, min(budget[a], len(pool) - 1))
        b = pool.pop()
        alternatives = tuple(pool.pop() for _ in range(size))
        budget[a] -= size
        triplets.append(FilteringTriplet(a, b, alternatives))
    forbidden = {(t.a, x) for t in triplets for x in t.B}
    edges = set()
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i != j and (i, j) not in forbidden and rng.random() < 0.25:
                edges.add((i, j))
    return RestrictionGraph(k, frozenset(edges)), ell, tuple(triplets)


def _exact_cost(spec: ProtocolSpec, f: TruthTable, want: int, size: int,
                budget: int):
    """Correct on every one of ``size`` inputs at worst-case cost ``want``."""
    report = exhaustive_verify(spec, f, predicted_bound=want, budget=budget)
    ok = (report.correct and report.domain_size == size
          and report.measured_worst_case == want)
    return ok, (f"cost {report.measured_worst_case} (want {want}) over "
                f"{report.checked}/{report.domain_size} inputs, "
                f"correct={report.correct}")


def _check_direct_sum_broadcast(budget):
    f = random_truth_table(3, 2, seed=1)
    return _exact_cost(lemma1_protocol(f), f, 4, 4096, budget)


def _check_blockwise_direct_sum(budget):
    f = random_truth_table(3, 1, seed=2)
    return _exact_cost(corollary1_protocol(f, ell=4), f, 6, 4096, budget)


def _check_two_bit_equality(budget):
    return _exact_cost(eq_two_bit_protocol(5, 2), TruthTable.eq(5, 2), 2,
                       1024, budget)


def _check_equality_pipeline(budget):
    f = TruthTable.eq(5, 1)
    hand = eq_multi_protocol(5, 1)
    hand_report = exhaustive_verify(hand, f, predicted_bound=3, budget=budget)
    compiled, plan, _ = compile_symmetric(
        example3_protocol(5, 1), f, example3_graph(5),
        example3_filtering_triplets(5), ell=2, budget=budget)
    naive = naive_baseline(plan, budget)
    comp_report = exhaustive_verify(compiled, f, predicted_bound=3,
                                    naive_baseline=naive, budget=budget)
    ok = (hand_report.correct and hand_report.measured_worst_case == 3
          and comp_report.correct and comp_report.measured_worst_case == 3
          and naive == 4 and comp_report.savings_realized
          and hand_report.domain_size == comp_report.domain_size == 1024)
    return ok, (f"hand-built cost {hand_report.measured_worst_case}, "
                f"pipeline cost {comp_report.measured_worst_case} "
                f"(want 3 < naive {naive}), correct="
                f"{hand_report.correct and comp_report.correct}")


def _check_forwarding_pipeline(budget, n):
    plan, f = forwarding_pipeline_plan(n)
    want = n + plan.ell
    ok, detail = _exact_cost(multiplex_combine(plan), f, want,
                             domain_size(4, n, 3), budget)
    return ok and predicted_bound(plan).total == want, f"n={n}: {detail}"


def _check_matrix_construction(budget):
    graph, ell, triplets = nine_party_filtering_instance()
    matrix = build_matrix_a(graph, ell, triplets)
    row_map_ok = matrix.row_map == {(1, 1): 2, (1, 2): 3, (2, 1): 4,
                                    (3, 1): 2}
    fixed_ok = (matrix.entry(2, 2) == 3 and matrix.entry(3, 2) == 4
                and matrix.entry(4, 5) == 6 and matrix.entry(2, 8) == 9
                and all(matrix.entry(r, 1) == 1 for r in range(1, ell + 1)))
    cert = filtering_to_multiplexing(triplets, matrix)
    cert_ok = (tuple((t.a, t.b, tuple(sorted(t.R))) for t in cert)
               == ((1, 2, (2, 3)), (1, 5, (4,)), (7, 8, (2,)))
               and bool(is_multiplexing_set(cert, matrix.rows, graph)))
    ok = row_map_ok and fixed_ok and cert_ok
    return ok, (f"row_map ok={row_map_ok}, fixed entries ok={fixed_ok}, "
                f"derived multiplexing set ok={cert_ok}")


def _check_myopic_combining(budget):
    plan = chained_equality_plan(n=1)
    cert_ok = bool(is_repetitive_set(plan.certificate, plan.perms))
    compiled = multiplex_combine(plan, budget)
    f = TruthTable.eq(5, 1)
    report = exhaustive_verify(compiled, f, predicted_bound=7, budget=budget)
    bound = predicted_bound(plan, budget)
    ok = (cert_ok and report.correct and report.domain_size == 1024
          and report.measured_worst_payload == 5
          and report.measured_worst_case == 7
          and bound == (7, 5))
    return ok, (f"payload {report.measured_worst_payload} (want 5), total "
                f"{report.measured_worst_case} (want 7), bound={tuple(bound)}, "
                f"certificate ok={cert_ok}, correct={report.correct}")


def _check_matrix_properties(budget):
    trials = 1000
    rng = random.Random(20240817)
    failures = 0
    first = None
    for trial in range(trials):
        graph, ell, triplets = random_filtering_instance(rng)
        try:
            check = is_filtering_set(triplets, graph, ell)
            if not check:
                raise NofmuxError(f"generator broke: {check.reason}")
            matrix = build_matrix_a(graph, ell, triplets)
            cert = filtering_to_multiplexing(triplets, matrix)
            res = is_multiplexing_set(cert, matrix.rows, graph)
            if not res:
                raise NofmuxError(res.reason)
        except NofmuxError as exc:
            failures += 1
            first = first or f"trial {trial}: {exc}"
    return failures == 0, (f"{trials} random filtering sets, {failures} "
                           f"failures" + (f" (first: {first})" if first
                                          else ""))


def _legality_configs():
    yield lemma1_protocol(random_truth_table(3, 2, seed=9))
    yield lemma1_protocol(random_truth_table(4, 1, seed=9))
    yield corollary1_protocol(random_truth_table(3, 1, seed=10), ell=4)
    yield eq_two_bit_protocol(4, 1)
    yield eq_two_bit_protocol(5, 2)
    yield eq_multi_protocol(5, 1)
    yield example1_protocol(random_truth_table(4, 2, seed=11))
    yield example1_variant(random_truth_table(4, 2, seed=11), 2)
    yield example3_protocol(5, 2)
    yield myopic_eq_chain(5, 2, Permutation((1, 2, 3, 4, 5)))
    yield myopic_eq_chain(5, 1, Permutation((4, 2, 5, 1, 3)))


def _check_obliviousness_legality(budget):
    tried = 0
    for spec in _legality_configs():
        measure_cost(spec, budget)  # checks the pattern on every input
        for x in enumerate_inputs(spec.k, spec.n, spec.ell):
            check_view_legality(spec, x)  # reruns none of those inputs
        tried += 1
    return True, (f"{tried} built-in configurations pass pattern "
                  f"conformance and bit-flip legality")


CRITERIA = (
    Criterion("direct-sum broadcast cost n+k-1", _check_direct_sum_broadcast),
    Criterion("blockwise direct sum cost ell*n/(k-1)+ell",
              _check_blockwise_direct_sum),
    Criterion("two-bit equality", _check_two_bit_equality),
    Criterion("equality pipeline cost 1+(k-1)/2", _check_equality_pipeline),
    Criterion("forwarding pipeline cost n+ell",
              partial(_check_forwarding_pipeline, n=1),
              full=partial(_check_forwarding_pipeline, n=2)),
    Criterion("permutation matrix construction", _check_matrix_construction),
    Criterion("myopic chain combining", _check_myopic_combining),
    Criterion("random filtering-set property suite",
              _check_matrix_properties),
    Criterion("obliviousness and view legality",
              _check_obliviousness_legality),
)


def run_demo(budget: int = DEFAULT_BUDGET, full: bool = False):
    """Run every criterion, the large-domain variant where ``full`` asks
    for it and one exists; returns a list of (name, ok, detail)."""
    return [(c.name, *(c.full if full and c.full else c.check)(budget))
            for c in CRITERIA]
