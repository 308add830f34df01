"""Command-line driver: validate certificates, build permutation matrices,
compile plans, verify protocols exhaustively, and run the acceptance suite
(``nofmux.acceptance``) as a demo.

Exit status: 0 on success, 1 on a failed assertion (invalid certificate,
incorrect protocol, missed bound), 2 on usage errors, among them every
DomainError the library raises on input that does not fit.  All artifacts are
deterministic: seeds are explicit and no timestamps are emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Mapping, Sequence

from .acceptance import naive_baseline, run_demo
from .combinatorics import (
    MatrixA, Permutation, build_matrix_a, certificate_from_json,
    is_filtering_set, is_multiplexing_set, is_repetitive_set,
)
from .compiler import (
    CompilationPlan, compile_symmetric, multiplex_combine, predicted_bound,
)
from .core import (
    BudgetError, DEFAULT_BUDGET, DomainError, NofmuxError, ProtocolSpec,
    RestrictionGraph, TruthTable, _json_int,
)
from .protocols import FAMILIES, example1_graph, example3_graph
from .verifier import exhaustive_verify, random_truth_table

USAGE_ERROR = 2
_BUILTIN_GRAPHS = {"complete": RestrictionGraph.complete,
                   "example1": example1_graph, "example3": example3_graph}


# ---------------------------------------------------------------------------
# file plumbing
# ---------------------------------------------------------------------------

def _load_json(path: str):
    if not isinstance(path, str):  # open() would take an int as an fd
        raise DomainError(f"file path must be a string, not {path!r}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DomainError(f"file not found: {path}") from None
    except OSError as exc:  # a directory, or a file without read access
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DomainError(f"malformed JSON in {path}: {exc}") from None


@contextmanager
def _fields_of(what: str):
    """Report a missing or ill-typed field of an input file as a usage
    error instead of a traceback."""
    try:
        yield
    except KeyError as exc:
        raise DomainError(f"{what} has no field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed {what}: {exc}") from None


def _resolve_graph(source, k: int) -> RestrictionGraph:
    """The graph a file or a builtin entry names; it must be on k parties."""
    if isinstance(source, str):
        source = _load_json(source)
    with _fields_of("graph"):
        if isinstance(source, Mapping) and "builtin" in source:
            name = source["builtin"]
            if name not in _BUILTIN_GRAPHS:
                raise DomainError(f"unknown builtin graph {name!r}")
            graph = _BUILTIN_GRAPHS[name](_json_int(source.get("k", k), "k"))
        else:
            graph = RestrictionGraph.from_json(source)
    if graph.k != k:
        raise DomainError(f"graph has k={graph.k}, not k={k}")
    return graph


def _resolve_function(desc: Mapping, k: int, n: int) -> TruthTable:
    if not isinstance(desc, Mapping):
        raise DomainError("the plan's function must be a JSON object")
    kind = desc.get("kind", "eq")
    if kind == "eq":
        return TruthTable.eq(k, n)
    if kind == "constant":
        return TruthTable.constant(k, n, _json_int(desc["bit"], "bit"))
    if kind == "random":
        return random_truth_table(k, n, _json_int(desc["seed"], "seed"))
    if kind == "file":
        f = TruthTable.from_json(_load_json(desc["path"]))
        if (f.k, f.n) != (k, n):
            raise DomainError(f"function file has k={f.k}, n={f.n}; the "
                              f"plan has k={k}, n={n}")
        return f
    raise DomainError(f"unknown function kind {kind!r}")


def _build_protocol(entry: Mapping, f: TruthTable, ell: int) -> ProtocolSpec:
    family = entry["family"]
    if family not in FAMILIES:
        raise DomainError(f"unknown protocol family {family!r}")
    return FAMILIES[family](f, ell, entry)


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
        if theorem_path not in CompilationPlan.PATHS:
            raise DomainError(f"unknown theorem path {theorem_path!r}")
        k, n, ell = (_json_int(data[name], name) for name in ("k", "n", "ell"))
        if n < 1 or ell < 1:
            raise DomainError(f"the plan needs n >= 1 and ell >= 1, not "
                              f"n={n}, ell={ell}")
        try:
            f = _resolve_function(data.get("function", {}), k, n)
        except BudgetError as exc:  # the plan's k*n is past the guard
            raise DomainError(f"the plan's function: {exc}") from None
        _, cert_k, cert_ell, triplets, cert_perms = _resolve_certificate(
            data["certificate"])
        if (cert_k, cert_ell) != (k, ell):
            raise DomainError(f"certificate declares k={cert_k}, "
                              f"ell={cert_ell}; the plan has k={k}, "
                              f"ell={ell}")
        graph = perms = None
        if theorem_path in ("t1", "t2"):
            graph = _resolve_graph(data["graph"], k)
        if theorem_path != "t2":
            perms = cert_perms
            if "permutations" in data:
                perms = tuple(map(Permutation.from_json,
                                  data["permutations"]))
            if perms is None:
                raise DomainError("plan needs permutations, inline or in "
                                  "the certificate file")
        if theorem_path == "t2":
            base = _build_protocol(data["protocol"], f, ell)
        else:
            protos = tuple(_build_protocol(d, f, ell)
                           for d in data["protocols"])
            plan = CompilationPlan(theorem_path, ell, perms, protos,
                                   tuple(triplets), graph)
    if theorem_path == "t2":
        compiled, plan, _ = compile_symmetric(base, f, graph, triplets, ell,
                                              budget)
    else:
        compiled = multiplex_combine(plan, budget)
    return compiled, plan, f


def _write_json(path: str | None, data) -> None:
    if path:
        try:
            with open(path, "w") as fh:
                json.dump(data, fh, indent=2, sort_keys=True)
        except OSError as exc:
            raise DomainError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    kind, k, ell, triplets, perms = _resolve_certificate(args.certificate)
    wants_graph, wants_perms = kind != "repetitive", kind != "filtering"
    if (wants_graph and args.graph is None
            or wants_perms and perms is None):
        needs = (["--graph"] * wants_graph
                 + ["permutations in the file"] * wants_perms)
        raise DomainError(f"{kind} certificates need {' and '.join(needs)}")
    graph = _resolve_graph(args.graph, k) if wants_graph else None
    notes = []
    if kind == "filtering":
        res = is_filtering_set(triplets, graph, ell)
        notes = [f"R({a})={res.r_values[a]}" for a in sorted(res.r_values)]
    elif kind == "multiplexing":
        res = is_multiplexing_set(triplets, perms, graph)
    else:
        res = is_repetitive_set(triplets, perms)
    print(f"kind={kind} k={k} ell={ell} triplets={len(triplets)} "
          f"verdict={str(bool(res)).lower()}")
    for note in notes:
        print(note)
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
    _, k, ell, triplets, _ = _resolve_certificate(args.certificate)
    if args.graph is None:
        raise DomainError("matrix construction needs --graph")
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


def _cmd_verify(args) -> int:
    compiled, plan, f = _load_plan(args.plan, args.budget)
    bound = predicted_bound(plan, args.budget)
    naive = naive_baseline(plan, args.budget)
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


def _cmd_demo(args) -> int:
    results = run_demo(args.budget, args.full)
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    """An argparse type: a positive integer, else a usage error."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive "
                                         f"integer")
    return int(text)


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
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("verify", help="compile a plan and verify it "
                                      "exhaustively against the oracle")
    p.add_argument("plan", help="plan JSON file")
    p.add_argument("--out", help="write the verification report as JSON")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("demo", help="run the demo suite")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
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
    except NofmuxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR if isinstance(exc, DomainError) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
