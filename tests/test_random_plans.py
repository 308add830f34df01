"""Random plans, compiled and verified end to end.

Each seeded draw builds a t3 or a t2 plan with a greedy certificate,
compiles it, runs it on every input and checks every output against the
oracle, the declared pattern on every run, and the measured worst case
against ``predicted_bound``, which it must equal.  A failing draw is a
compiler or bound bug: report it, do not filter it out.
"""

import itertools
import random

import pytest

from nofmux import (
    BindingTriplet, CommPattern, CompilationPlan, FilteringTriplet, Model,
    Outgoing, Permutation, ProtocolSpec, RestrictionGraph, TruthTable,
    compile_symmetric, exhaustive_verify, is_filtering_set,
    is_repetitive_set, myopic_combine, myopic_eq_chain, predicted_bound,
)

T3_SHAPES = ((4, 2, 1), (5, 2, 1), (6, 2, 1), (4, 3, 1))  # (k, ell, n)
T2_SHAPES = ((4, 2), (5, 2), (6, 2), (4, 3))              # (k, ell), n = 1


def _assert_exact(compiled, f, plan):
    bound = predicted_bound(plan)
    assert compiled.pattern is not None  # so every run is checked against it
    report = exhaustive_verify(compiled, f, bound.total)
    assert report.correct, report.counterexample
    assert report.measured_worst_case == bound.total


# ---------------------------------------------------------------------------
# t3: myopic equality chains
# ---------------------------------------------------------------------------

def _t3_draw(shape, seed):
    """Chains whose first is the identity.  Each other chain is either
    shuffled or, with even odds, keeps the identity's first ``pos``
    parties, for a random position ``pos`` that sends bits, and shuffles
    the rest with a successor other than the identity's.  So a sender
    repeats at a position, and most draws have a binding triplet.  The
    repetitive set is greedy, largest groups of chains first."""
    k, ell, n = shape
    rng = random.Random(seed)
    perms = [Permutation.identity(k)]
    for _ in range(1, ell):
        pos = rng.choice((0, rng.randrange(2, k - 1)))
        rest = rng.sample(range(pos + 1, k + 1), k - pos)
        if pos and rest[0] == pos + 1:
            at = rng.randrange(1, len(rest))
            rest[0], rest[at] = rest[at], rest[0]
        perms.append(Permutation((*range(1, pos + 1), *rest)))
    cert = []
    for pos in range(1, k):
        for s in range(1, k + 1):
            group = [u for u, p in enumerate(perms, start=1) if p(pos) == s]
            for size in range(len(group), 1, -1):
                for chains in itertools.combinations(group, size):
                    candidate = cert + [BindingTriplet(pos, s, chains)]
                    if is_repetitive_set(candidate, perms):
                        cert = candidate
    protos = tuple(myopic_eq_chain(k, n, p) for p in perms)
    return CompilationPlan("t3", ell, tuple(perms), protos, tuple(cert))


def _check_t3(shape, seed):
    plan = _t3_draw(shape, seed)
    compiled = myopic_combine(plan.protocols, plan.perms, plan.certificate)
    _assert_exact(compiled, TruthTable.eq(plan.protocols[0].k,
                                          plan.protocols[0].n), plan)
    return plan


# ---------------------------------------------------------------------------
# t2: a generic forwarding base for a random symmetric function
# ---------------------------------------------------------------------------

def _forwarding_base(f, graph, out, rng):
    """One round: each input the output party ``out`` cannot see is sent
    to it by a random other party that sees it, a party's inputs in one
    message, and ``out`` evaluates f."""
    k = graph.k
    forwards = {}
    for j in sorted(set(range(1, k + 1)) - graph.neighbors(out)):
        p = rng.choice([q for q in range(1, k + 1)
                        if q != out and j in graph.neighbors(q)])
        forwards.setdefault(p, []).append(j)

    def next_message(p, t, views, inbox, board):
        if p not in forwards:
            return []
        return [Outgoing(out, "".join(views[1][j] for j in forwards[p]))]

    def output_rule(views, inbox, board):
        x = {j: views[1][j] for j in graph.neighbors(out)}
        for r in inbox:
            x.update(zip(forwards[r.sender], r.payload))
        return {1: f.evaluate([x[j] for j in range(1, k + 1)])}

    return ProtocolSpec(
        name=f"forward-to-{out}", model=Model.NOF_GRAPH, k=k, n=1, ell=1,
        rounds=1, next_message=next_message, output_party=out,
        output_rule=output_rule, graph=graph,
        pattern=CommPattern({(1, p, out): len(js)
                             for p, js in forwards.items()}, 1))


def _t2_draw(shape, seed):
    """A graph with edge probability 0.45, plus an edge wherever no party
    but the output party's could see an input it needs; a random function
    of the Hamming weight; a greedy filtering set with R(S) <= ell - 1
    that tries the channels into the output party first."""
    k, ell = shape
    rng = random.Random(seed)
    out = rng.randint(1, k)
    edges = {(i, j) for i in range(1, k + 1) for j in range(1, k + 1)
             if i != j and rng.random() < 0.45}
    for j in range(1, k + 1):
        if (out, j) not in edges and not any(
                (q, j) in edges for q in range(1, k + 1) if q != out):
            edges.add((rng.choice([q for q in range(1, k + 1)
                                   if q not in (j, out)]), j))
    graph = RestrictionGraph(k, frozenset(edges))
    by_weight = [rng.randrange(2) for _ in range(k + 1)]
    f = TruthTable.from_function(
        k, 1, lambda args: by_weight["".join(args).count("1")])
    base = _forwarding_base(f, graph, out, rng)
    pairs = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1)
             if a != b]
    rng.shuffle(pairs)
    pairs.sort(key=lambda pair: pair[1] != out)
    triplets = []
    for a, b in pairs:
        spare = ell - 1 - sum(len(t.B) for t in triplets if t.a == a)
        alternatives = sorted(graph.non_neighbors(a) - {a, b})
        rng.shuffle(alternatives)
        for size in range(min(spare, len(alternatives)), 0, -1):
            candidate = triplets + [
                FilteringTriplet(a, b, tuple(alternatives[:size]))]
            if is_filtering_set(candidate, graph, ell):
                triplets = candidate
                break
    return base, f, graph, tuple(triplets), ell


def _check_t2(shape, seed):
    base, f, graph, triplets, ell = _t2_draw(shape, seed)
    compiled, plan, _ = compile_symmetric(base, f, graph, triplets, ell)
    _assert_exact(compiled, f, plan)
    return plan


# ---------------------------------------------------------------------------
# the draws
# ---------------------------------------------------------------------------

# tier-1 draws only shapes of at most 1024 inputs; the slow test draws all
@pytest.mark.parametrize("k,ell,n,seed", [(4, 2, 1, 0), (4, 2, 1, 1),
                                          (5, 2, 1, 0)])
def test_random_t3_plan(k, ell, n, seed):
    _check_t3((k, ell, n), seed)


@pytest.mark.parametrize("k,ell,seed", [(4, 2, 0), (4, 2, 1), (5, 2, 0)])
def test_random_t2_plan(k, ell, seed):
    _check_t2((k, ell), seed)


@pytest.mark.slow
def test_random_plans_many_draws():
    """25 draws of each shape on each path; most carry a certificate."""
    t3 = [_check_t3(shape, seed) for shape in T3_SHAPES
          for seed in range(100, 125)]
    t2 = [_check_t2(shape, seed) for shape in T2_SHAPES
          for seed in range(100, 125)]
    assert sum(bool(plan.certificate) for plan in t3) > len(t3) // 2
    assert sum(bool(plan.certificate) for plan in t2) > len(t2) // 2
