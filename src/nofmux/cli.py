"""Command-line driver: validate certificates, build permutation matrices,
compile plans, verify protocols exhaustively, and run the demo suite.

Exit status: 0 on success, 1 on a failed assertion (invalid certificate,
incorrect protocol, missed bound), 2 on usage errors.  All artifacts are
deterministic: seeds are explicit and no timestamps are emitted.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import contextmanager
from typing import Mapping, Sequence

from .combinatorics import (
    BindingTriplet, FilteringTriplet, MatrixA, MultiplexTriplet, Permutation,
    build_matrix_a, certificate_from_json, filtering_to_multiplexing,
    is_filtering_set, is_multiplexing_set, is_repetitive_set,
)
from .compiler import (
    CompilationPlan, compile_symmetric, multiplex_combine, myopic_combine,
    predicted_bound,
)
from .core import (
    DEFAULT_BUDGET, DomainError, NofmuxError, ProtocolSpec, RestrictionGraph,
    TruthTable, domain_size,
)
from .protocols import (
    corollary1_protocol, eq_multi_protocol, eq_two_bit_protocol,
    example1_graph, example1_permutation, example1_protocol,
    example1_variant, example3_filtering_triplets, example3_graph,
    example3_protocol, lemma1_protocol, myopic_eq_chain,
)
from .verifier import (
    check_view_legality, exhaustive_verify, measure_cost, random_truth_table,
    sweep,
)

USAGE_ERROR = 2


# ---------------------------------------------------------------------------
# file plumbing
# ---------------------------------------------------------------------------

def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SystemExit(f"error: file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: malformed JSON in {path}: {exc}") from None


@contextmanager
def _fields_of(what: str):
    """Report a missing, ill-typed or out-of-range field of an input file
    as a usage error instead of a traceback or a failed assertion."""
    try:
        yield
    except KeyError as exc:
        raise SystemExit(f"error: {what} has no field {exc}") from None
    except (TypeError, ValueError, DomainError) as exc:
        raise SystemExit(f"error: malformed {what}: {exc}") from None


def _resolve_graph(source, k: int | None = None) -> RestrictionGraph:
    if isinstance(source, str):
        source = _load_json(source)
    with _fields_of("graph"):
        if isinstance(source, Mapping) and "builtin" in source:
            name = source["builtin"]
            kk = int(source.get("k", k or 0))
            if name == "complete":
                return RestrictionGraph.complete(kk)
            if name == "example1":
                return example1_graph(kk)
            if name == "example3":
                return example3_graph(kk)
            raise DomainError(f"unknown builtin graph {name!r}")
        return RestrictionGraph.from_json(source)


def _resolve_function(desc: Mapping, k: int, n: int) -> TruthTable:
    kind = desc.get("kind", "eq")
    if kind == "eq":
        return TruthTable.eq(k, n)
    if kind == "constant":
        return TruthTable.constant(k, n, int(desc["bit"]))
    if kind == "random":
        return random_truth_table(k, n, int(desc["seed"]))
    if kind == "file":
        return TruthTable.from_json(_load_json(desc["path"]))
    raise DomainError(f"unknown function kind {kind!r}")


def _build_protocol(desc: Mapping, k: int, n: int,
                    f: TruthTable | None, ell: int) -> ProtocolSpec:
    family = desc["family"]
    if family == "lemma1":
        return lemma1_protocol(f)
    if family == "corollary1":
        return corollary1_protocol(f, ell)
    if family == "eq2":
        return eq_two_bit_protocol(k, n)
    if family == "eq-multi":
        return eq_multi_protocol(k, n)
    if family == "example1":
        return example1_protocol(f)
    if family == "example1-variant":
        return example1_variant(f, int(desc["i"]))
    if family == "example3":
        return example3_protocol(k, n)
    if family == "myopic-eq":
        return myopic_eq_chain(k, n, Permutation(tuple(desc["pi"])))
    raise DomainError(f"unknown protocol family {family!r}")


def _resolve_certificate(source):
    """Accept an inline certificate object or a path to one."""
    if isinstance(source, str):
        source = _load_json(source)
    with _fields_of("certificate"):
        return certificate_from_json(source)


def _load_plan(path: str, budget: int):
    """Materialize a plan file: returns (compiled spec, plan, f)."""
    data = _load_json(path)
    with _fields_of("plan"):
        theorem_path = data["path"]
        k, n, ell = int(data["k"]), int(data["n"]), int(data["ell"])
        f = _resolve_function(data.get("function", {}), k, n)
        _, cert_k, cert_ell, triplets, cert_perms = _resolve_certificate(
            data["certificate"])
        if (cert_k, cert_ell) != (k, ell):
            raise DomainError(f"certificate declares k={cert_k}, "
                              f"ell={cert_ell}; the plan has k={k}, "
                              f"ell={ell}")
        if theorem_path == "t2":
            graph = _resolve_graph(data["graph"], k)
            base = _build_protocol(data["protocol"], k, n, f, ell)
        else:
            if "permutations" in data:
                perms = tuple(Permutation(tuple(img))
                              for img in data["permutations"])
            elif cert_perms is not None:
                perms = cert_perms
            else:
                raise DomainError("plan needs permutations, inline or in "
                                  "the certificate file")
            protos = tuple(_build_protocol(d, k, n, f, ell)
                           for d in data["protocols"])
            if theorem_path == "t1":
                graph = _resolve_graph(data["graph"], k)
    if theorem_path == "t2":
        compiled, plan, _ = compile_symmetric(base, f, graph, triplets, ell,
                                              budget)
        return compiled, plan, f
    if theorem_path == "t1":
        plan = CompilationPlan("t1", ell, perms, protos, tuple(triplets),
                               graph)
        return multiplex_combine(plan), plan, f
    if theorem_path in ("t3", "c2"):
        plan = CompilationPlan(theorem_path, ell, perms, protos,
                               tuple(triplets))
        return myopic_combine(protos, perms, triplets, budget), plan, f
    raise DomainError(f"unknown theorem path {theorem_path!r}")


def _write_json(path: str | None, data) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    kind, k, ell, triplets, perms = _resolve_certificate(args.certificate)
    if kind == "filtering":
        if args.graph is None:
            print("error: filtering certificates need --graph",
                  file=sys.stderr)
            return USAGE_ERROR
        graph = _resolve_graph(args.graph, k)
        check = is_filtering_set(triplets, graph, ell)
        verdict = bool(check) and check.is_ell_filtering
        print(f"kind=filtering k={k} ell={ell} "
              f"triplets={len(triplets)} verdict={str(verdict).lower()}")
        for sender in sorted(check.r_values):
            print(f"R({sender})={check.r_values[sender]}")
        if not check:
            print(f"violated: {check.reason}")
        elif not check.is_ell_filtering:
            print(f"violated: R(S) exceeds ell - 1 = {ell - 1}")
        return 0 if verdict else 1
    if kind == "multiplexing":
        if args.graph is None or perms is None:
            print("error: multiplexing certificates need --graph and "
                  "permutations in the file", file=sys.stderr)
            return USAGE_ERROR
        graph = _resolve_graph(args.graph, k)
        res = is_multiplexing_set(triplets, perms, graph)
    elif kind == "repetitive":
        if perms is None:
            print("error: repetitive certificates need permutations in "
                  "the file", file=sys.stderr)
            return USAGE_ERROR
        res = is_repetitive_set(triplets, perms)
    else:  # pragma: no cover - certificate_from_json already rejects
        return USAGE_ERROR
    print(f"kind={kind} k={k} ell={ell} triplets={len(triplets)} "
          f"verdict={str(bool(res)).lower()}")
    if not res:
        print(f"violated: {res.reason}")
    return 0 if res else 1


def _matrix_json(matrix: MatrixA) -> dict:
    return {
        "rows": [list(p.image) for p in matrix.rows],
        "fixed": sorted([r, c] for r, c in matrix.fixed),
        "row_map": {f"{i},{j}": row
                    for (i, j), row in sorted(matrix.row_map.items())},
        "last": {str(i): v for i, v in sorted(matrix.last.items())},
    }


def _cmd_matrix(args) -> int:
    kind, k, ell, triplets, _ = _resolve_certificate(args.certificate)
    if kind != "filtering":
        print("error: matrix construction needs a filtering certificate",
              file=sys.stderr)
        return USAGE_ERROR
    if args.graph is None:
        print("error: matrix construction needs --graph", file=sys.stderr)
        return USAGE_ERROR
    graph = _resolve_graph(args.graph, k)
    matrix = build_matrix_a(graph, ell, triplets)
    for (i, j), row in sorted(matrix.row_map.items()):
        print(f"row({i},{j})={row}")
    for r in range(1, matrix.ell + 1):
        cells = []
        for c in range(1, k + 1):
            v = matrix.entry(r, c)
            cells.append(f"{v}*" if (r, c) in matrix.fixed or r == 1 else
                         f"{v} ")
        print(" ".join(f"{cell:>3}" for cell in cells))
    print("legend: * = entry pinned by the construction (row 1 is the "
          "identity)")
    _write_json(args.out, _matrix_json(matrix))
    return 0


def _cmd_compile(args) -> int:
    compiled, plan, _ = _load_plan(args.plan, args.budget)
    bound = predicted_bound(plan, args.budget)
    descriptor = {
        "name": compiled.name,
        "model": compiled.model.value,
        "k": compiled.k,
        "n": compiled.n,
        "ell": compiled.ell,
        "rounds": compiled.rounds,
        "path": plan.path,
        "permutations": [list(p.image) for p in plan.perms],
        "predicted_bound_total": bound.total,
        "predicted_bound_payload": bound.payload,
    }
    print(f"compiled {compiled.name}: ell={compiled.ell} "
          f"rounds={compiled.rounds} predicted_bound={bound.total} "
          f"(payload {bound.payload})")
    _write_json(args.out, descriptor)
    return 0


def _naive_baseline(plan: CompilationPlan, budget: int) -> int:
    """ell independent runs: single-instance cost plus one output bit each."""
    single = measure_cost(plan.protocols[0], budget).worst_case_bits
    return plan.ell * (single + 1)


def _cmd_verify(args) -> int:
    compiled, plan, f = _load_plan(args.plan, args.budget)
    bound = predicted_bound(plan, args.budget)
    naive = _naive_baseline(plan, args.budget)
    report = exhaustive_verify(compiled, f, bound.total, naive, args.budget)
    print(f"{report.protocol_name}: checked {report.checked} of "
          f"{report.domain_size} inputs, correct={report.correct}, "
          f"worst_case={report.measured_worst_case} bits "
          f"(payload {report.measured_worst_payload}), "
          f"bound={bound.total}, naive={naive}")
    if report.counterexample is not None:
        ce = report.counterexample
        print(f"counterexample: input {ce.input_index} instance "
              f"{ce.instance}: got {ce.protocol_output}, expected "
              f"{ce.expected}")
    _write_json(args.out, report.to_json())
    ok = report.correct and report.measured_worst_case <= bound.total
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# demo suite (one check per acceptance criterion)
# ---------------------------------------------------------------------------

def _check_direct_sum_broadcast(budget):
    f = random_truth_table(3, 2, seed=1)
    spec = lemma1_protocol(f)
    report = exhaustive_verify(spec, f, predicted_bound=4, budget=budget)
    ok = (report.correct and report.domain_size == 4096
          and report.measured_worst_case == 4)
    return ok, (f"cost {report.measured_worst_case} (want 4) over "
                f"{report.checked}/{report.domain_size} inputs, "
                f"correct={report.correct}")


def _check_blockwise_direct_sum(budget):
    f = random_truth_table(3, 1, seed=2)
    spec = corollary1_protocol(f, ell=4)
    report = exhaustive_verify(spec, f, predicted_bound=6, budget=budget)
    ok = (report.correct and report.domain_size == 4096
          and report.measured_worst_case == 6)
    return ok, (f"cost {report.measured_worst_case} (want 6) over "
                f"{report.checked}/{report.domain_size} inputs, "
                f"correct={report.correct}")


def _check_two_bit_equality(budget):
    spec = eq_two_bit_protocol(5, 2)
    report = exhaustive_verify(spec, TruthTable.eq(5, 2), predicted_bound=2,
                               budget=budget)
    ok = (report.correct and report.domain_size == 1024
          and report.measured_worst_case == 2)
    return ok, (f"cost {report.measured_worst_case} (want 2) over "
                f"{report.checked}/{report.domain_size} inputs, "
                f"correct={report.correct}")


def _check_equality_pipeline(budget):
    f = TruthTable.eq(5, 1)
    hand = eq_multi_protocol(5, 1)
    hand_report = exhaustive_verify(hand, f, predicted_bound=3, budget=budget)
    compiled, plan, _ = compile_symmetric(
        example3_protocol(5, 1), f, example3_graph(5),
        example3_filtering_triplets(5), ell=2, budget=budget)
    naive = _naive_baseline(plan, budget)
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


def forwarding_pipeline_plan(n: int, seed: int = 5):
    """The user-supplied-variants combining plan: k=4, ell=3, forwarding
    protocols Q^1..Q^3 with the cyclic relabelings and one certificate
    triplet (4, 1, {2, 3})."""
    k, ell = 4, 3
    f = random_truth_table(k, n, seed=seed)
    protos = tuple(example1_variant(f, i) for i in range(1, ell + 1))
    perms = tuple(example1_permutation(k, i) for i in range(1, ell + 1))
    cert = (MultiplexTriplet(4, 1, frozenset({2, 3})),)
    plan = CompilationPlan("t1", ell, perms, protos, cert, example1_graph(k))
    return plan, f


def _check_forwarding_pipeline(budget, full=False):
    n = 2 if full else 1
    plan, f = forwarding_pipeline_plan(n)
    compiled = multiplex_combine(plan)
    bound = predicted_bound(plan)
    want = n + plan.ell
    report = exhaustive_verify(compiled, f, bound.total, budget=budget)
    ok = (report.correct and report.measured_worst_case == want
          and bound.total == want
          and report.domain_size == domain_size(4, n, 3))
    return ok, (f"n={n}: cost {report.measured_worst_case} (want {want}) "
                f"over {report.checked}/{report.domain_size} inputs, "
                f"correct={report.correct}")


def nine_party_filtering_instance():
    """The published 9-party worked example: sparse graph, three triplets,
    ell=4."""
    graph = RestrictionGraph(9, frozenset({(1, 2), (1, 5), (7, 8)}))
    triplets = (FilteringTriplet(1, 2, (3, 4)), FilteringTriplet(1, 5, (6,)),
                FilteringTriplet(7, 8, (9,)))
    return graph, 4, triplets


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


def chained_equality_plan(n: int = 1):
    """The myopic combining demo: k=5, two equality chains, one binding
    triplet (2, 2, {1, 2})."""
    perms = (Permutation((1, 2, 3, 4, 5)), Permutation((4, 2, 5, 1, 3)))
    protos = tuple(myopic_eq_chain(5, n, pi) for pi in perms)
    cert = (BindingTriplet(2, 2, frozenset({1, 2})),)
    plan = CompilationPlan("t3", 2, perms, protos, cert)
    return plan


def _check_myopic_combining(budget):
    plan = chained_equality_plan(n=1)
    cert_ok = bool(is_repetitive_set(plan.certificate, plan.perms))
    compiled = myopic_combine(plan.protocols, plan.perms, plan.certificate,
                              budget)
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


def _check_matrix_properties(budget, trials=1000, seed=20240817):
    rng = random.Random(seed)
    failures = 0
    first = None
    for trial in range(trials):
        graph, ell, triplets = random_filtering_instance(rng)
        try:
            check = is_filtering_set(triplets, graph, ell)
            if not (check and check.is_ell_filtering):
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
        for x, _ in sweep(spec, budget=budget):  # checks the pattern
            check_view_legality(spec, x)
        tried += 1
    return True, (f"{tried} built-in configurations pass pattern "
                  f"conformance and bit-flip legality")


DEMO_CHECKS = (
    ("direct-sum broadcast cost n+k-1", _check_direct_sum_broadcast),
    ("blockwise direct sum cost ell*n/(k-1)+ell", _check_blockwise_direct_sum),
    ("two-bit equality", _check_two_bit_equality),
    ("equality pipeline cost 1+(k-1)/2", _check_equality_pipeline),
    ("forwarding pipeline cost n+ell", _check_forwarding_pipeline),
    ("permutation matrix construction", _check_matrix_construction),
    ("myopic chain combining", _check_myopic_combining),
    ("random filtering-set property suite", _check_matrix_properties),
    ("obliviousness and view legality", _check_obliviousness_legality),
)


def run_demo(budget: int = DEFAULT_BUDGET, full: bool = False):
    """Run every demo check; returns a list of (name, ok, detail)."""
    results = []
    for name, fn in DEMO_CHECKS:
        if fn is _check_forwarding_pipeline:
            ok, detail = fn(budget, full=full)
        else:
            ok, detail = fn(budget)
        results.append((name, ok, detail))
    return results


def _cmd_demo(args) -> int:
    results = run_demo(args.budget, args.full)
    worst = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        worst = max(worst, 0 if ok else 1)
    return worst


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nofmux",
        description="Deterministic multiparty protocol workbench: validate "
                    "certificates, build matrices, compile plans, verify "
                    "exhaustively.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check a certificate file")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--graph", help="restriction graph JSON file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("matrix", help="build the permutation matrix from a "
                                      "filtering certificate")
    p.add_argument("certificate", help="filtering certificate JSON file")
    p.add_argument("--graph", help="restriction graph JSON file")
    p.add_argument("--out", help="write the matrix as JSON")
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("compile", help="compile a plan file")
    p.add_argument("plan", help="plan JSON file")
    p.add_argument("--out", help="write the compiled descriptor as JSON")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("verify", help="compile a plan and verify it "
                                      "exhaustively against the oracle")
    p.add_argument("plan", help="plan JSON file")
    p.add_argument("--out", help="write the verification report as JSON")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("demo", help="run the demo suite")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--full", action="store_true",
                   help="run the large-domain variants (minutes)")
    p.set_defaults(fn=_cmd_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return USAGE_ERROR
    except NofmuxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
