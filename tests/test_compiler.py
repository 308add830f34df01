"""Compiler tests: protocol permutation, pattern robustness, the board
combiner, the symmetric pipeline, the myopic combiner, and bounds."""

import dataclasses
import random
import re
import sys
import types

import pytest

import nofmux.compiler
import nofmux.core
from nofmux import (
    BindingTriplet, BudgetError, CertificateError, CommPattern,
    CompilationPlan, DEFAULT_BUDGET, DomainError, FilteringTriplet,
    InputMatrix, LegalityError, Model, MultiplexTriplet, NofmuxError,
    ObliviousnessError, Outgoing, Permutation, ProtocolSpec, RestrictionGraph,
    RobustnessError, SoundnessError, TruthTable,
    check_pattern_robust, compile_symmetric, domain_size, enumerate_inputs,
    eq_multi_protocol,
    example3_filtering_triplets, example3_graph, example3_protocol,
    exhaustive_verify, measure_cost, multiplex_combine, myopic_combine,
    myopic_eq_chain, permute_protocol, predicted_bound, run_protocol,
)
from nofmux.acceptance import chained_equality_plan, forwarding_pipeline_plan
from nofmux.verifier import _position_sweep, messages_at_position

from test_compiled_transcripts import _ragged, flip_block_bit


# ---------------------------------------------------------------------------
# permuted protocols
# ---------------------------------------------------------------------------

def test_permute_identity_is_behaviorally_identical():
    spec = example3_protocol(5, 1)
    permuted = permute_protocol(spec, Permutation.identity(5))
    for x in enumerate_inputs(5, 1):
        assert run_protocol(permuted, x).records == run_protocol(spec,
                                                                 x).records
        assert run_protocol(permuted, x).outputs == run_protocol(spec,
                                                                 x).outputs


def test_permute_relabels_channel_and_output_party():
    spec = example3_protocol(5, 1)
    pi = Permutation((1, 4, 3, 2, 5))
    permuted = permute_protocol(spec, pi)
    assert permuted.output_party == 4
    assert permuted.pattern.lengths == {(1, 5, 4): 1}
    # correct for equality (a symmetric function), checked exhaustively
    report = exhaustive_verify(permuted, TruthTable.eq(5, 1))
    assert report.correct


def test_permuted_messages_match_definition():
    """m^{pi(Q)}_{i->j,t}(x) = m^Q_{pi^-1(i)->pi^-1(j),t}(pi^-1(x))."""
    spec = example3_protocol(5, 1)
    pi = Permutation((2, 3, 1, 4, 5))
    permuted = permute_protocol(spec, pi)
    for x in enumerate_inputs(5, 1):
        pre = InputMatrix.single(*[x.x(1, pi(j)) for j in range(1, 6)])
        got = {(r.sender, r.recipient): r.payload
               for r in run_protocol(permuted, x).records}
        want = {(pi(r.sender), pi(r.recipient)): r.payload
                for r in run_protocol(spec, pre).records}
        assert got == want


def test_permute_requires_point_to_point():
    with pytest.raises(DomainError):
        permute_protocol(eq_multi_protocol(5, 1), Permutation.identity(5))


def test_permute_rejects_permutation_of_other_arity():
    """``permute_graph`` rejects it, as the protocol's graph has k parties."""
    with pytest.raises(DomainError, match="permutation arity"):
        permute_protocol(example3_protocol(5, 1), Permutation.identity(4))


def test_check_pattern_robust():
    spec = example3_protocol(5, 1)
    pi = Permutation((1, 4, 3, 2, 5))
    assert check_pattern_robust(spec, permute_protocol(spec, pi), pi)
    fatter = ProtocolSpec(
        name="fatter", model=spec.model, k=5, n=1, ell=1, rounds=1,
        next_message=spec.next_message, output_party=spec.output_party,
        output_rule=spec.output_rule, graph=spec.graph,
        pattern=CommPattern({(1, 5, 2): 2}, 1))
    assert not check_pattern_robust(spec, fatter,
                                    Permutation.identity(5))
    bare = ProtocolSpec(
        name="bare", model=spec.model, k=5, n=1, ell=1, rounds=1,
        next_message=spec.next_message, output_party=spec.output_party,
        output_rule=spec.output_rule, graph=spec.graph)
    with pytest.raises(ObliviousnessError):
        check_pattern_robust(spec, bare, Permutation.identity(5))


# ---------------------------------------------------------------------------
# permuted instances in the mux engine
# ---------------------------------------------------------------------------

def _equality_plan(ell, base=None):
    """The equality pipeline's plan (k=5, n=1)."""
    return compile_symmetric(
        base or example3_protocol(5, 1), TruthTable.eq(5, 1),
        example3_graph(5), example3_filtering_triplets(5), ell=ell)[1]


def _plain_plan(base):
    """A t1 plan of ``base`` and of its relabeling by a row that moves
    both ends of its message P_5 -> P_2, with no groups: each message is
    a plain record."""
    pi = Permutation((1, 4, 3, 5, 2))
    return CompilationPlan("t1", 2, (Permutation.identity(5), pi),
                           (base, permute_protocol(base, pi)), (),
                           example3_graph(5))


def _folded_and_opaque(plan):
    """The plan compiled as built, with its permuted instances run under
    the engine's relabeling tables, and compiled opaque, with each swapped
    for a ``dataclasses.replace`` copy that keeps no record of its base
    and runs permute_protocol's rules."""
    opaque = tuple(dataclasses.replace(q) if "permuted" in q._memo else q
                   for q in plan.protocols)
    assert any(a is not b for a, b in zip(opaque, plan.protocols))
    return multiplex_combine(plan), multiplex_combine(
        dataclasses.replace(plan, protocols=opaque))


def _permute_frames(spec, indices):
    """Frames of permute_protocol's closures that runs of ``spec`` on
    ``indices`` open."""
    codes, todo = set(), [permute_protocol.__code__]
    while todo:
        for const in todo.pop().co_consts:
            if isinstance(const, types.CodeType):
                codes.add(const)
                todo.append(const)
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        frames += event == "call" and frame.f_code in codes

    sys.setprofile(profile)
    try:
        for idx in indices:
            run_protocol(spec, InputMatrix.from_index(idx, spec.k, spec.n,
                                                      spec.ell))
    finally:
        sys.setprofile(None)
    return frames


def test_permute_records_its_base_for_the_engine():
    spec, pi = example3_protocol(5, 1), Permutation((1, 4, 3, 2, 5))
    permuted = permute_protocol(spec, pi)
    base, row = permuted._memo["permuted"]
    assert base is spec and row == pi
    assert "permuted" not in dataclasses.replace(permuted)._memo


def _logged(spec, log):
    """``spec`` with rules that append to ``log`` all they are handed."""
    def next_message(p, t, views, inbox, board):
        log.append((p, t, views[1].owner, tuple(views[1].items()), inbox))
        return spec.next_message(p, t, views, inbox, board)

    def output_rule(views, inbox, board):
        log.append((views[1].owner, tuple(views[1].items()), inbox))
        return spec.output_rule(views, inbox, board)

    return dataclasses.replace(spec, next_message=next_message,
                               output_rule=output_rule)


@pytest.mark.parametrize("plan, sample", [
    (lambda base: _equality_plan(2, base), None),
    (lambda base: _equality_plan(3, base), 1 << 12),
    (_plain_plan, None),
], ids=["t2-ell2", "t2-ell3-sampled", "t1-plain"])
def test_relabeling_tables_keep_every_transcript(plan, sample):
    """Records, framing included, and outputs match those of the opaque
    compilation, and so does every base rule call's party, round, view
    and inbox: on every input, or on a seeded sample of the ell=3 one."""
    log = []
    folded, opaque = _folded_and_opaque(
        plan(_logged(example3_protocol(5, 1), log)))
    indices = range(domain_size(5, 1, folded.ell))
    if sample is not None:
        indices = random.Random(0).sample(indices, sample)
    for idx in indices:
        x = InputMatrix.from_index(idx, 5, 1, folded.ell)
        log.clear()
        want, asked = run_protocol(opaque, x), log[:]
        log.clear()
        got = run_protocol(folded, x)
        assert got.records == want.records, idx
        assert got.outputs == want.outputs, idx
        assert log == asked, idx


def test_permuted_instances_run_no_relabeling_wrapper():
    folded, opaque = _folded_and_opaque(_equality_plan(2))
    indices = range(domain_size(5, 1, 2))
    assert _permute_frames(folded, indices) == 0
    assert _permute_frames(opaque, indices) > 0


def test_relabeling_tables_ask_the_base_as_often_as_the_wrappers():
    """20 base rule calls per ell=3 input, the traced benchmark's bound,
    whether the engine relabels or permute_protocol's rules do."""
    log = []
    plan = _equality_plan(3, _logged(example3_protocol(5, 1), log))
    for spec in _folded_and_opaque(plan):
        log.clear()
        for idx in range(1024):
            run_protocol(spec, InputMatrix.from_index(idx, 5, 1, 3))
        assert len(log) == 20 * 1024


def test_a_compiled_run_checks_its_outputs_once(monkeypatch):
    """One check per instance output, and the runner's one check of the
    board's out: records: ell + 1 in all."""
    spec = multiplex_combine(_equality_plan(3))
    checked = []
    for module in (nofmux.core, nofmux.compiler):
        def counted(result, ell, check=module._outputs):
            checked.append(ell)
            return check(result, ell)
        monkeypatch.setattr(module, "_outputs", counted)
    run_protocol(spec, InputMatrix.from_index(0, 5, 1, 3))
    assert sorted(checked) == [1, 1, 1, 3]


# ---------------------------------------------------------------------------
# board combiner (general path)
# ---------------------------------------------------------------------------

def test_forwarding_pipeline_exact_cost_and_outputs():
    plan, f = forwarding_pipeline_plan(n=1)
    compiled = multiplex_combine(plan)
    bound = predicted_bound(plan)
    assert bound.total == 1 + plan.ell
    report = exhaustive_verify(compiled, f, bound.total)
    assert report.correct, report.counterexample
    assert report.measured_worst_case == bound.total
    assert report.measured_worst_payload == bound.payload


def _forwarding_with_extra(sender, outgoing):
    """Runs of the n=1 forwarding pipeline, compiled, and of its first
    instance protocol Q^1, whose party ``sender`` sends ``outgoing`` in
    round 1 in place of any message of its own to the same recipient."""
    plan, _ = forwarding_pipeline_plan(n=1)
    base = plan.protocols[0]

    def next_message(p, t, views, inbox, board):
        outs = list(base.next_message(p, t, views, inbox, board))
        if t == 1 and p == sender:
            outs = [o for o in outs if o.recipient != outgoing.recipient]
            outs.append(outgoing)
        return outs

    leaky = dataclasses.replace(base, next_message=next_message)
    return (multiplex_combine(dataclasses.replace(
        plan, protocols=(leaky,) + plan.protocols[1:])), leaky)


def _equality_with_extra(sender, outgoing):
    """Runs of example3 (k=5, n=1) whose party ``sender`` sends only
    ``outgoing`` in round 1, of its relabeling by the ell=2 equality
    pipeline's second row, and of that pipeline with the relabeled
    protocol as its second instance."""
    plan = _equality_plan(2)
    honest = plan.protocols[0]

    def next_message(p, t, views, inbox, board):
        outs = honest.next_message(p, t, views, inbox, board)
        return [outgoing] if t == 1 and p == sender else outs

    bad = dataclasses.replace(honest, next_message=next_message)
    permuted = permute_protocol(bad, plan.perms[1])
    return (multiplex_combine(dataclasses.replace(
        plan, protocols=(honest, permuted))), permuted, bad)


@pytest.mark.parametrize("runs, sender, outgoing, exc, error", [
    (_forwarding_with_extra, 1, Outgoing(1, "1"), LegalityError,
     "party cannot send to itself"),
    (_forwarding_with_extra, 1, Outgoing(2, "2"), DomainError,
     "payload '2' is not a bit string"),
    (_forwarding_with_extra, 1, Outgoing(1, "2"), DomainError,
     "payload '2' is not a bit string"),
    (_forwarding_with_extra, 1, Outgoing(9, "1"), LegalityError,
     "recipient 9 out of range"),
    # no inbox of the compiled run reads P_4's instance-1 messages
    (_forwarding_with_extra, 4, Outgoing(4, "1"), LegalityError,
     "party cannot send to itself"),
    # P_4's message to P_1 lies in the XOR group (4, 1, {2, 3})
    (_forwarding_with_extra, 4, Outgoing(1, "2"), DomainError,
     "payload '2' is not a bit string"),
    # the second row fixes P_5, so each of these is P_5's in all three runs
    (_equality_with_extra, 5, Outgoing(9, "1"), LegalityError,
     "recipient 9 out of range"),
    (_equality_with_extra, 5, Outgoing(0, "1"), LegalityError,
     "recipient 0 out of range"),
    (_equality_with_extra, 5, Outgoing(-1, "1"), LegalityError,
     "recipient -1 out of range"),
    (_equality_with_extra, 5, Outgoing(5, "1"), LegalityError,
     "party cannot send to itself"),
], ids=["self-addressed", "non-bit", "non-bit-and-self-addressed",
        "recipient-out-of-range", "unread-self-send", "non-bit-in-block",
        "permuted-recipient-out-of-range", "permuted-recipient-board",
        "permuted-recipient-negative", "permuted-self-send"])
def test_combiner_rejects_malformed_instance_message(runs, sender, outgoing,
                                                     exc, error):
    """A compiled run checks every instance message when it is sent, with
    the runner's own check under the instance protocol's model: the same
    exception, with the same message, as an uncompiled run of the faulty
    instance protocol, and of the base protocol it relabels, if any."""
    for run in runs(sender, outgoing):
        with pytest.raises(NofmuxError) as err:
            run_protocol(run, InputMatrix.from_index(0, run.k, 1, run.ell))
        assert type(err.value) is exc
        assert str(err.value) == error


def test_combiner_requires_identity_first_permutation():
    plan, _ = forwarding_pipeline_plan(n=1)
    with pytest.raises(DomainError):
        CompilationPlan(
            plan.path, plan.ell,
            (plan.perms[1], plan.perms[0], plan.perms[2]), plan.protocols,
            plan.certificate, plan.graph)


def test_combiner_rejects_pattern_mismatch():
    plan, f = forwarding_pipeline_plan(n=1)
    base = plan.protocols[0]
    fat = ProtocolSpec(
        name="fat", model=base.model, k=base.k, n=base.n, ell=1,
        rounds=base.rounds, next_message=base.next_message,
        output_party=plan.protocols[2].output_party,
        output_rule=plan.protocols[2].output_rule,
        graph=plan.protocols[2].graph,
        pattern=CommPattern({(1, 4, 3): 2}, 1))
    with pytest.raises(RobustnessError):
        CompilationPlan(plan.path, plan.ell, plan.perms,
                        plan.protocols[:2] + (fat,), plan.certificate,
                        plan.graph)


def test_combiner_rejects_invalid_certificate():
    plan, _ = forwarding_pipeline_plan(n=1)
    with pytest.raises(CertificateError):
        CompilationPlan(
            plan.path, plan.ell, plan.perms, plan.protocols,
            (MultiplexTriplet(1, 4, frozenset({2})),), plan.graph)


def test_combiner_rejects_protocols_off_the_plan_graph():
    """The certificate is checked against plan.graph, so protocol u must run
    on plan.graph relabeled by pi_u; else a valid certificate could fail at
    run time."""
    plan, _ = forwarding_pipeline_plan(n=1)
    with pytest.raises(DomainError, match=r"^protocol 1 does not run on the "
                                          r"plan's graph relabeled by"):
        CompilationPlan(plan.path, plan.ell, plan.perms, plan.protocols,
                        plan.certificate, RestrictionGraph(4, frozenset()))
    second = dataclasses.replace(plan.protocols[1],
                                 graph=plan.protocols[0].graph)
    assert second.graph != plan.protocols[1].graph
    with pytest.raises(DomainError, match=r"^protocol 2 does not run on"):
        CompilationPlan(plan.path, plan.ell, plan.perms,
                        (plan.protocols[0], second) + plan.protocols[2:],
                        plan.certificate, plan.graph)
    # three copies of Q^1: no plan, so no bound priced for it either
    with pytest.raises(DomainError, match=r"^protocol 2 does not run on the "
                                          r"plan's graph relabeled by "
                                          r"\(2, 3, 1, 4\)$"):
        CompilationPlan(plan.path, plan.ell, plan.perms,
                        (plan.protocols[0],) * 3, plan.certificate,
                        plan.graph)


@pytest.mark.parametrize("path", ["t3", "c2"])
def test_a_myopic_plan_without_a_repetitive_set_is_not_made(path):
    """(2, 2, {1, 2}) breaks condition 3 for these chains: party 3 comes
    before position 2 in chain 2 and succeeds it in chain 1.  Neither the
    plan nor the combiner is made."""
    perms = (Permutation.identity(5), Permutation((3, 2, 4, 1, 5)))
    protos = tuple(myopic_eq_chain(5, 1, pi) for pi in perms)
    cert = (BindingTriplet(2, 2, frozenset({1, 2})),)
    with pytest.raises(CertificateError, match="condition 3"):
        CompilationPlan(path, 2, perms, protos, cert)
    with pytest.raises(CertificateError, match="condition 3"):
        myopic_combine(protos, perms, cert)


def test_empty_certificate_costs_ell_copies_plus_outputs():
    plan, f = forwarding_pipeline_plan(n=1)
    plain = CompilationPlan(plan.path, plan.ell, plan.perms, plan.protocols,
                            (), plan.graph)
    compiled = multiplex_combine(plain)
    bound = predicted_bound(plain)
    assert bound.total == plan.ell * 1 + plan.ell
    report = exhaustive_verify(compiled, f, bound.total)
    assert report.correct
    assert report.measured_worst_case == bound.total


def test_savings_monotonicity():
    """Adding the certificate triplet strictly lowers the measured cost."""
    plan, f = forwarding_pipeline_plan(n=1)
    plain = CompilationPlan(plan.path, plan.ell, plan.perms, plan.protocols,
                            (), plan.graph)
    with_cert = measure_cost(multiplex_combine(plan)).worst_case_bits
    without = measure_cost(multiplex_combine(plain)).worst_case_bits
    assert with_cert < without


# ---------------------------------------------------------------------------
# symmetric pipeline
# ---------------------------------------------------------------------------

def test_symmetric_pipeline_equality_five_parties():
    f = TruthTable.eq(5, 1)
    compiled, plan, matrix = compile_symmetric(
        example3_protocol(5, 1), f, example3_graph(5),
        example3_filtering_triplets(5), ell=2)
    assert matrix.rows[1](5) == 5 and matrix.rows[1](2) == 4
    bound = predicted_bound(plan)
    assert bound.total == 3
    report = exhaustive_verify(compiled, f, bound.total, naive_baseline=4)
    assert report.correct, report.counterexample
    assert report.measured_worst_case == 3
    assert report.savings_realized


def test_symmetric_pipeline_rejects_asymmetric_function():
    f = TruthTable.from_function(5, 1, lambda a: int(a[0]))
    with pytest.raises(DomainError):
        compile_symmetric(example3_protocol(5, 1), f, example3_graph(5),
                          example3_filtering_triplets(5), ell=2)


def test_symmetric_pipeline_rejects_wrong_base_protocol():
    f = TruthTable.constant(5, 1, 0)  # symmetric but not what Q computes
    with pytest.raises(DomainError, match=r"^base protocol disagrees with f "
                                          r"at input index 0$"):
        compile_symmetric(example3_protocol(5, 1), f, example3_graph(5),
                          example3_filtering_triplets(5), ell=2)


def test_symmetric_pipeline_empty_filtering_set():
    f = TruthTable.eq(5, 1)
    compiled, plan, _ = compile_symmetric(
        example3_protocol(5, 1), f, example3_graph(5), (), ell=2)
    assert predicted_bound(plan).total == 2 * 1 + 2
    assert exhaustive_verify(compiled, f).correct


def test_symmetric_pipeline_rejects_graph_the_base_does_not_run_on():
    """Caught at compile time, before any run raises SoundnessError."""
    with pytest.raises(DomainError, match=r"^protocol 1 does not run on"):
        compile_symmetric(example3_protocol(5, 1), TruthTable.eq(5, 1),
                          RestrictionGraph(5, frozenset()),
                          (FilteringTriplet(5, 2, (1, 3, 4)),), ell=4)


@pytest.mark.slow
def test_symmetric_pipeline_equality_seven_parties():
    """k=7, ell=3: bound 1 + (k-1)/2 = 4, checked on all 2^21 inputs."""
    f = TruthTable.eq(7, 1)
    compiled, plan, _ = compile_symmetric(
        example3_protocol(7, 1), f, example3_graph(7),
        example3_filtering_triplets(7), ell=3)
    bound = predicted_bound(plan)
    assert bound.total == 4
    report = exhaustive_verify(compiled, f, bound.total)
    assert report.correct and report.measured_worst_case == 4


# ---------------------------------------------------------------------------
# myopic combiner
# ---------------------------------------------------------------------------

def test_myopic_combiner_demo_cost_and_outputs():
    plan = chained_equality_plan(n=1)
    compiled = myopic_combine(plan.protocols, plan.perms, plan.certificate)
    f = TruthTable.eq(5, 1)
    report = exhaustive_verify(compiled, f)
    assert report.correct, report.counterexample
    assert report.measured_worst_payload == 5
    assert report.measured_worst_case == 7


def test_myopic_bound_paths_agree_for_oblivious_chains():
    plan = chained_equality_plan(n=1)
    t3 = predicted_bound(plan)
    c2 = predicted_bound(CompilationPlan("c2", plan.ell, plan.perms,
                                         plan.protocols, plan.certificate))
    assert t3 == c2 == (7, 5)


def test_myopic_combiner_single_chain_no_certificate():
    pi = Permutation((1, 2, 3, 4))
    chain = myopic_eq_chain(4, 1, pi)
    compiled = myopic_combine((chain,), (pi,), ())
    report = exhaustive_verify(compiled, TruthTable.eq(4, 1))
    assert report.correct
    assert report.measured_worst_payload == 2  # the chain's own cost
    assert report.measured_worst_case == 3


def test_each_chain_runs_only_in_its_own_rounds():
    """A chain that stops before round k - 1 is asked in no later round:
    its output party, which outputs whether it heard anything, hears
    nothing alone, and so nothing compiled.  On every input each instance
    outputs what its chain outputs alone."""
    plan = chained_equality_plan(n=1)
    short = dataclasses.replace(
        plan.protocols[0], rounds=2, pattern=None,
        output_rule=lambda views, inbox, board: {1: int(len(inbox) > 0)})
    plan = dataclasses.replace(plan, protocols=(short,) + plan.protocols[1:])
    compiled = multiplex_combine(plan)
    for x in enumerate_inputs(5, 1, 2):
        outputs = run_protocol(compiled, x).outputs
        for u, q in enumerate(plan.protocols, start=1):
            alone = run_protocol(q, InputMatrix.single(*x.rows[u - 1]))
            assert outputs[u] == alone.outputs[1], (x.rows, u)


def _out_of_turn(pi):
    """The equality chain along ``pi`` whose position-3 party also sends
    its successor a bit in round 1, when only position 1 may speak."""
    chain = myopic_eq_chain(pi.k, 1, pi)

    def next_message(p, t, views, inbox, board):
        outs = list(chain.next_message(p, t, views, inbox, board))
        if t == 1 and p == pi(3):
            outs.append(Outgoing(pi(4), "1"))
        return outs

    return dataclasses.replace(chain, next_message=next_message)


def _out_of_turn_plan(name):
    """(chains, perms, certificate) whose last chain is an
    ``_out_of_turn`` chain in no triplet."""
    if name == "beside-a-triplet":
        plan = chained_equality_plan(n=1)
        pi = Permutation((2, 1, 3, 4, 5))
        return (plan.protocols + (_out_of_turn(pi),), plan.perms + (pi,),
                plan.certificate)
    pi = Permutation((1, 2, 3, 4))
    if name == "one-chain":
        return (_out_of_turn(pi),), (pi,), ()
    other = Permutation((4, 3, 2, 1))
    return (myopic_eq_chain(4, 1, other), _out_of_turn(pi)), (other, pi), ()


@pytest.mark.parametrize("name",
                         ["one-chain", "two-chains", "beside-a-triplet"])
def test_myopic_combiner_sweeps_every_chain_for_legality(name):
    """A chain bit sent out of turn raises the uncompiled run's
    LegalityError at compile time, though no triplet covers that chain and
    the compiled engine never asks an out-of-turn party to speak."""
    protos, perms, cert = _out_of_turn_plan(name)
    faulty = protos[-1]
    with pytest.raises(LegalityError) as uncompiled:
        run_protocol(faulty, InputMatrix.from_index(0, faulty.k, 1, 1))
    with pytest.raises(LegalityError) as compiled:
        myopic_combine(protos, perms, cert)
    assert str(compiled.value) == str(uncompiled.value)


def test_block_rejects_two_messages_for_one_component():
    """A chain without a pattern that starts to send its block message
    twice only once it is compiled, past the compile-time sweep that would
    reject it, raises the uncompiled run's LegalityError: no run may keep
    just one copy in the block."""
    plan = chained_equality_plan(n=1)
    chain = plan.protocols[0]
    live = []

    def next_message(p, t, views, inbox, board):
        outs = list(chain.next_message(p, t, views, inbox, board))
        return outs * 2 if live and t == 2 else outs

    twice = dataclasses.replace(chain, next_message=next_message,
                                pattern=None)
    compiled = myopic_combine((twice,) + plan.protocols[1:], plan.perms,
                              plan.certificate)
    live.append(True)
    with pytest.raises(LegalityError) as uncompiled:
        run_protocol(twice, InputMatrix.from_index(0, 5, 1, 1))
    with pytest.raises(LegalityError, match="party 2 sends two messages to "
                       "party 3 in round 2") as exc:
        exhaustive_verify(compiled, TruthTable.eq(5, 1))
    assert str(exc.value) == str(uncompiled.value)


def _with_extra(chain, rnd, sender, extra, rounds=None):
    """The equality ``chain`` whose ``sender`` also writes ``extra``, before
    its own message, in round ``rnd``.  Its output flips unless the output
    party's inbox holds its one chain record and the extra ones addressed
    to it, so a compiled run that drops one of those is wrong."""
    want = 1 + sum(o.recipient == chain.output_party for o in extra)

    def next_message(p, t, views, inbox, board):
        outs = list(chain.next_message(p, t, views, inbox, board))
        return list(extra) + outs if (p, t) == (sender, rnd) else outs

    def output_rule(views, inbox, board):
        bit = chain.output_rule(views, inbox, board)[1]
        return {1: bit if len(inbox) == want else 1 - bit}

    return dataclasses.replace(chain, next_message=next_message,
                               output_rule=output_rule,
                               rounds=rounds or chain.rounds, pattern=None)


# name -> (round, sender, extra messages, the chain's rounds or None for
# its own, whether the chain is still correct once its empty records are
# dropped)
_EMPTY_RECORDS = {
    # the output party's inbox is one record short of what the chain wants
    "empty-from-a-silent-party": (1, 2, [Outgoing(5, "")], None, False),
    "empty-to-a-non-successor": (2, 2, [Outgoing(4, "")], None, True),
    "empty-after-the-last-position": (5, 1, [Outgoing(2, "")], 5, True),
    "two-records-at-the-block": (2, 2, [Outgoing(3, "")], None, True),
}


@pytest.mark.parametrize("name", sorted(_EMPTY_RECORDS))
def test_myopic_combiner_agrees_on_empty_records(name):
    """An empty message is no message, compiled or not.  A chain that
    writes an empty record off its path, or one beside its message at a
    block position, compiles, and the compiled run gives the chain's own
    verdict and first counterexample."""
    rnd, sender, extra, rounds, correct = _EMPTY_RECORDS[name]
    plan = chained_equality_plan(n=1)
    chain = _with_extra(plan.protocols[0], rnd, sender, extra, rounds)
    f = TruthTable.eq(5, 1)
    alone = exhaustive_verify(chain, f)
    compiled = exhaustive_verify(
        myopic_combine((chain,) + plan.protocols[1:], plan.perms,
                       plan.certificate), f)
    assert alone.correct == compiled.correct == correct
    if not correct:
        want, got = alone.counterexample, compiled.counterexample
        assert got.instance == 1 and got.rows[0] == want.rows[0]
        assert (got.protocol_output, got.expected) == (want.protocol_output,
                                                       want.expected)


def test_two_records_outside_a_block_raise_the_runs_legality_error():
    """Two messages on one channel split a message into records, which
    would carry information for free, so a chain that sends them at a
    position in no block fails to compile with its run's LegalityError."""
    plan = chained_equality_plan(n=1)
    chain = plan.protocols[0]

    def next_message(p, t, views, inbox, board):
        outs = list(chain.next_message(p, t, views, inbox, board))
        return outs * 2 if t == 3 else outs

    twice = dataclasses.replace(chain, next_message=next_message,
                                pattern=None)
    with pytest.raises(LegalityError) as uncompiled:
        run_protocol(twice, InputMatrix.from_index(0, 5, 1, 1))
    with pytest.raises(LegalityError) as compiled:
        myopic_combine((twice,) + plan.protocols[1:], plan.perms,
                       plan.certificate)
    assert str(compiled.value) == str(uncompiled.value)


def test_myopic_combiner_rejects_bad_certificate():
    plan = chained_equality_plan(n=1)
    bad = (BindingTriplet(1, 1, frozenset({1, 2})),)
    with pytest.raises(CertificateError):
        myopic_combine(plan.protocols, plan.perms, bad)


def _sloppy_plan():
    """(chains, perms, certificate): a chain emitting {"0", "01"} at the
    block's position 2, beside an equality chain."""
    pi = Permutation((1, 2, 3, 4, 5))

    def next_message(p, t, views, inbox, board):
        if t == 2 and p == 2:
            return [Outgoing(3, "0" if views[1][1] == "0" else "01")]
        if 3 <= t <= 4 and p == pi(t):
            return [Outgoing(pi(t + 1), inbox[-1].payload[:1])]
        return []

    sloppy = ProtocolSpec(
        name="sloppy", model=Model.MYOPIC, k=5, n=1, ell=1, rounds=4,
        next_message=next_message, output_party=5, chain=pi.image,
        output_rule=lambda views, inbox, board: {1: 0})
    other = Permutation((4, 2, 5, 1, 3))
    return ((sloppy, myopic_eq_chain(5, 1, other)), (pi, other),
            (BindingTriplet(2, 2, frozenset({1, 2})),))


def test_myopic_combiner_rejects_prefix_violation():
    """A chain emitting {"0", "01"} at one position cannot be multiplexed."""
    with pytest.raises(DomainError, match=re.escape(
            "protocol 1 is not prefix-free at position 2")):
        myopic_combine(*_sloppy_plan())


def test_a_plan_that_does_not_compile_is_not_priced():
    """The t3 bound runs the combiner's checks first, so it refuses the
    plan the combiner refuses, with the combiner's error."""
    protos, perms, cert = _sloppy_plan()
    plan = CompilationPlan("t3", 2, perms, protos, cert)
    with pytest.raises(DomainError, match=re.escape(
            "protocol 1 is not prefix-free at position 2")):
        predicted_bound(plan)


def test_myopic_ragged_lengths_are_padded_and_decoded():
    """Multiplex chains whose combined messages have unequal lengths; the
    recipients must zero-pad, XOR, and self-delimit by prefix-freeness."""
    report = exhaustive_verify(_ragged(), TruthTable.eq(5, 1))
    assert report.correct, report.counterexample
    # block is max(2, 1) = 2 bits; chains otherwise cost 2 + 2 bits
    assert report.measured_worst_payload == 6


def test_t3_flipped_block_bit_leaves_no_code_word():
    """Flipping the first bit of the ragged block turns the wide chain's
    "00" or "11" into a word none of whose prefixes lies in its code."""
    faulty = flip_block_bit(_ragged(), [])
    with pytest.raises(SoundnessError,
                       match="prefix decoding found 0 candidates"):
        exhaustive_verify(faulty, TruthTable.eq(5, 1))


def _coded_chain(pi):
    """An equality chain that sends its bit as "1" or "00": a prefix-free
    code whose length varies with the input, so each position's cost does
    too."""
    def next_message(p, t, views, inbox, board):
        if 2 <= t <= 4 and p == pi(t):
            bit = int(views[1][pi(t - 1)] == views[1][pi(t + 1)])
            if t > 2:
                bit &= int(inbox[-1].payload[0])
            return [Outgoing(pi(t + 1), "1" if bit else "00")]
        return []

    def output_rule(views, inbox, board):
        mine = len({views[1][pi(j)] for j in range(1, 5)}) == 1
        return {1: int(inbox[-1].payload[0]) & mine}

    return ProtocolSpec(
        name="coded", model=Model.MYOPIC, k=5, n=1, ell=1, rounds=4,
        next_message=next_message, output_party=pi(5), chain=pi.image,
        output_rule=output_rule)


def _three_word_chain(pi):
    """A coded equality chain whose position 2 sends "1" on equality and
    otherwise "0" followed by x_pi(1): a prefix-free code of three words,
    more than the 2^n = 2 values of its recipient's own input."""
    coded = _coded_chain(pi)

    def next_message(p, t, views, inbox, board):
        if t == 2 and p == pi(2):
            first = views[1][pi(1)]
            word = "1" if first == views[1][pi(3)] else "0" + first
            return [Outgoing(pi(3), word)]
        return coded.next_message(p, t, views, inbox, board)

    return dataclasses.replace(coded, name="three-word",
                               next_message=next_message)


def test_t3_decodes_a_code_larger_than_the_own_input_domain():
    """Each block recipient reads its message by the chain's code at the
    block's position, whatever the code's size: the plan is correct and
    its bound is its measured worst case."""
    perms = (Permutation((1, 2, 3, 4, 5)), Permutation((4, 2, 5, 1, 3)))
    protos = (_three_word_chain(perms[0]), _coded_chain(perms[1]))
    cert = (BindingTriplet(2, 2, frozenset({1, 2})),)
    assert messages_at_position(protos[0], 2) == {"1", "00", "01"}
    report = exhaustive_verify(myopic_combine(protos, perms, cert),
                               TruthTable.eq(5, 1))
    assert report.correct, report.counterexample
    bound = predicted_bound(CompilationPlan("t3", 2, perms, protos, cert))
    assert (report.measured_worst_case, report.measured_worst_payload) \
        == tuple(bound)


def test_t3_bound_of_input_dependent_lengths():
    """Chains with several distinct per-position cost rows: the bound
    (pinned to the value of a sweep over all 128^2 input pairs) is the
    compiled protocol's measured worst case."""
    perms = (Permutation((1, 2, 3, 4, 5)), Permutation((4, 2, 5, 1, 3)))
    protos = tuple(_coded_chain(pi) for pi in perms)
    cert = (BindingTriplet(2, 2, frozenset({1, 2})),)
    assert all(len(_position_sweep(q, DEFAULT_BUDGET).costs) >= 2
               for q in protos)
    bound = predicted_bound(CompilationPlan("t3", 2, perms, protos, cert))
    assert bound == (12, 10)
    report = exhaustive_verify(myopic_combine(protos, perms, cert),
                               TruthTable.eq(5, 1))
    assert report.correct, report.counterexample
    assert (report.measured_worst_case, report.measured_worst_payload) \
        == tuple(bound)


def test_t3_bound_guards_the_cost_rows_it_enumerates():
    """The bound enumerates combinations of the chains' distinct cost rows,
    4^3 = 64 for three coded chains, and its budget guards that count,
    while each chain's sweep of 32 inputs fits."""
    perms = (Permutation((1, 2, 3, 4, 5)), Permutation((4, 2, 5, 1, 3)),
             Permutation((2, 1, 3, 4, 5)))
    protos = tuple(_coded_chain(pi) for pi in perms)
    plan = CompilationPlan("t3", 3, perms, protos, ())
    assert predicted_bound(plan, 64) == (21, 18)
    with pytest.raises(BudgetError, match="enumerates 64 combinations"):
        predicted_bound(plan, 63)


def test_myopic_combiner_declares_pattern_of_oblivious_chains():
    """Oblivious chains give a compiled pattern, checked on every input."""
    plan = chained_equality_plan(n=1)
    compiled = myopic_combine(plan.protocols, plan.perms, plan.certificate)
    assert compiled.pattern is not None
    assert compiled.pattern.total_bits() == 7
    assert measure_cost(compiled).worst_case_bits == 7


def test_myopic_combiner_rejects_chain_mismatch():
    plan = chained_equality_plan(n=1)
    with pytest.raises(DomainError):
        myopic_combine(plan.protocols, (plan.perms[1], plan.perms[0]),
                       plan.certificate)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_predicted_bound_t1_formula():
    plan, _ = forwarding_pipeline_plan(n=2)
    # ell*n + ell - (k-2)*n with k=4, n=2, ell=3
    assert predicted_bound(plan) == (5, 2)


def test_predicted_bound_t2_matches_theorem():
    f = TruthTable.eq(5, 1)
    _, plan, _ = compile_symmetric(
        example3_protocol(5, 1), f, example3_graph(5),
        example3_filtering_triplets(5), ell=2)
    assert predicted_bound(plan) == (3, 1)


def test_predicted_bound_rejects_unknown_path():
    with pytest.raises(DomainError):
        CompilationPlan("t9", 1, (Permutation.identity(2),),
                        (example3_protocol(5, 1),), ())


@pytest.mark.parametrize("path", ["t1", "t2", "t3", "c2"])
def test_plan_rejects_another_certificate_kind(path):
    """t1 and t2 plans hold multiplexing triplets (a t2 plan the set
    converted from its filtering set), t3 and c2 plans binding triplets;
    any other kind is a DomainError before a combiner or a bound reads it."""
    fwd, _ = forwarding_pipeline_plan(n=1)
    chain = chained_equality_plan()
    plan = fwd if path in ("t1", "t2") else chain
    wrong = chain.certificate if plan is fwd else fwd.certificate
    with pytest.raises(DomainError, match="certificate holds"):
        CompilationPlan(path, plan.ell, plan.perms, plan.protocols, wrong,
                        plan.graph)
    with pytest.raises(DomainError, match="certificate holds"):
        CompilationPlan(path, plan.ell, plan.perms, plan.protocols,
                        (FilteringTriplet(1, 2, (3,)),), plan.graph)
