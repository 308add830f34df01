"""Kill table: seeded faults in compiled protocols that the verifier must
catch.

Each mutation is applied to every compiled plan it fits, once with the
plan's declared pattern and once with ``pattern=None``.  A mutation of an
instance protocol goes live only after compilation, so the compiler's own
sweeps of the instance protocols see the honest rules and the verdict
comes from the verifier.  A mutation of the engine is a monkeypatch of a
name it looks up at module level, or a wrapper around the compiled spec.

Caught means that, input by input, the run or the pattern check raises a
NofmuxError, an output disagrees with the oracle, or bit-flip legality
fuzzing raises.  A surviving mutation is a verifier bug.
"""

import dataclasses
import sys
from functools import cache
from typing import Callable, NamedTuple

import pytest

import nofmux.compiler
from nofmux import (
    BindingTriplet, InputMatrix, NofmuxError, Outgoing, Permutation,
    TruthTable, check_view_legality, compile_symmetric, domain_size,
    example3_filtering_triplets, example3_graph, example3_protocol,
    exhaustive_verify, multiplex_combine, myopic_combine, myopic_eq_chain,
    oracle_evaluate, run_protocol, xor_bits,
)
from nofmux.acceptance import chained_equality_plan, forwarding_pipeline_plan
from nofmux.core import _record
from nofmux.verifier import sweep

from test_compiled_transcripts import _wide_chain, flip_block_bit


class _Plan(NamedTuple):
    protocols: tuple                 # the honest instance protocols
    compile: Callable                # instance protocols -> compiled spec
    f: TruthTable
    block: tuple[int, int, int]      # (round, sender, recipient) of an
                                     # instance-1 message in an XOR block


@cache
def _plan(name):
    if name == "t1-forwarding":
        plan, f = forwarding_pipeline_plan(n=1)
        return _Plan(plan.protocols, lambda protos: multiplex_combine(
            dataclasses.replace(plan, protocols=protos)), f, (1, 4, 1))
    if name == "t2-equality":
        f = TruthTable.eq(5, 1)
        _, plan, _ = compile_symmetric(
            example3_protocol(5, 1), f, example3_graph(5),
            example3_filtering_triplets(5), ell=2)
        return _Plan(plan.protocols, lambda protos: multiplex_combine(
            dataclasses.replace(plan, protocols=protos)), f, (1, 5, 2))
    if name == "t3-chained":
        plan = chained_equality_plan(n=1)
        perms, cert = plan.perms, plan.certificate
        protos = plan.protocols
    else:  # t3-ragged: the wide chain declares no pattern, nor does the plan
        perms = (Permutation((1, 2, 3, 4, 5)), Permutation((4, 2, 5, 1, 3)))
        cert = (BindingTriplet(2, 2, frozenset({1, 2})),)
        protos = (_wide_chain(perms[0]), myopic_eq_chain(5, 1, perms[1]))
    return _Plan(protos, lambda protos: myopic_combine(protos, perms, cert),
                 TruthTable.eq(5, 1), (2, 2, 3))


ALL = ("t1-forwarding", "t2-equality", "t3-chained", "t3-ragged")
T3 = ("t3-chained", "t3-ragged")


# ---------------------------------------------------------------------------
# mutations of an instance protocol: (protocol, plan) -> its faulty rules
# ---------------------------------------------------------------------------

def _edit_messages(q, edit):
    """Rules of q whose messages pass through ``edit(p, t, outs)``."""
    def next_message(p, t, views, inbox, board):
        return edit(p, t, list(q.next_message(p, t, views, inbox, board)))
    return next_message, q.output_rule


def _self_send(q, plan):
    """Every party that sends also sends a bit to itself."""
    return _edit_messages(q, lambda p, t, outs: outs + [Outgoing(p, "1")]
                          if outs else outs)


def _non_bit_in_block(q, plan):
    """The message that lies in an XOR block carries '2'."""
    rnd, sender, recipient = plan.block
    return _edit_messages(q, lambda p, t, outs: [
        o._replace(payload="2")
        if (t, p, o.recipient) == (rnd, sender, recipient) else o
        for o in outs])


def _duplicate_in_block(q, plan):
    """The message that lies in an XOR block is sent twice."""
    block = plan.block
    return _edit_messages(q, lambda p, t, outs: outs + [
        o for o in outs if (t, p, o.recipient) == block])


def _non_successor(q, plan):
    """Position 3 of the chain sends its bit to position 5, not 4."""
    return _edit_messages(q, lambda p, t, outs: [
        o._replace(recipient=q.chain[4]) if t == 3 else o
        for o in outs])


def _swap(q, plan):
    """Instance 1's rules, run under q's graph or chain: the wrong row of
    the permutation matrix on t2, a chain swap on t3."""
    first = plan.protocols[0]
    return first.next_message, first.output_rule


def _mask(payload, word):
    """``payload`` with its first bit XORed with the first bit of word."""
    if not payload or word[0] == "0":
        return payload
    return ("1" if payload[0] == "0" else "0") + payload[1:]


def _closure_leak(q, plan):
    """Each sender masks its message with its own input, which it learns
    from a closure that every party's rule fills with what it sees; each
    recipient, which sees the sender's input, unmasks it.  Outputs stay
    right while the input is fresh, but senders read their own forehead."""
    known = {}

    def unmask(views, inbox):
        return tuple(r._replace(payload=_mask(r.payload, views[1][r.sender]))
                     for r in inbox)

    def next_message(p, t, views, inbox, board):
        known.update(views[1].items())
        outs = q.next_message(p, t, views, unmask(views, inbox), board)
        return [o._replace(payload=_mask(o.payload, known.get(p, "0")))
                for o in outs]

    def output_rule(views, inbox, board):
        return q.output_rule(views, unmask(views, inbox), board)

    return next_message, output_rule


def _zero_bit_signal(q, plan):
    """Each one-bit message to the output party is sent for free: an empty
    message when the bit is 1 and none when it is 0.  The output party
    reads an empty record as 1 and no record as 0."""
    out = q.output_party

    def next_message(p, t, views, inbox, board):
        outs = q.next_message(p, t, views, inbox, board)
        return [o._replace(payload="") if o.recipient == out else o
                for o in outs if o.recipient != out or o.payload == "1"]

    def output_rule(views, inbox, board):
        heard = tuple(r._replace(payload="1") if not r.payload else r
                      for r in inbox)
        return q.output_rule(views, heard or (_record(0, 0, out, "0"),),
                             board)

    return next_message, output_rule


def _edit_output(q, edit):
    """Rules of q whose output passes through ``edit(outputs)``."""
    def output_rule(views, inbox, board):
        return edit(q.output_rule(views, inbox, board))
    return q.next_message, output_rule


def _output_drops_an_instance(q, plan):
    """The output rule answers for no instance."""
    return _edit_output(q, lambda outputs: {})


def _output_extra_instance(q, plan):
    """The output rule answers for an instance 2 that q does not run."""
    return _edit_output(q, lambda outputs: {1: outputs[1], 2: 0})


def _output_not_a_bit(q, plan):
    """The output rule answers True, which equals 1 but is no int bit."""
    return _edit_output(q, lambda outputs: {1: True})


def _in_instance(u, mutate):
    """Build the plan with instance u's protocol mutated, live only once
    the compiled spec is built."""
    def build(plan, monkeypatch):
        live = []
        q = plan.protocols[u - 1]
        bad_next, bad_output = mutate(q, plan)

        def next_message(*args):
            return (bad_next if live else q.next_message)(*args)

        def output_rule(*args):
            return (bad_output if live else q.output_rule)(*args)

        protos = list(plan.protocols)
        protos[u - 1] = dataclasses.replace(q, next_message=next_message,
                                            output_rule=output_rule)
        spec = plan.compile(tuple(protos))
        live.append(True)
        return spec
    return build


# ---------------------------------------------------------------------------
# mutations of the engine
# ---------------------------------------------------------------------------

def _skip_one_strip(plan, monkeypatch):
    """A block recipient of another instance leaves the last instance's
    component in the block instead of stripping it."""
    spec = plan.compile(plan.protocols)

    def skipping_xor(a, b):
        caller = sys._getframe(1)
        if (caller.f_code.co_name == "strip"
                and caller.f_locals["u2"] == spec.ell):
            return a
        return xor_bits(a, b)

    monkeypatch.setattr(nofmux.compiler, "xor_bits", skipping_xor)
    return spec


def _read_too_early(plan, monkeypatch):
    """Each inbox record is dated one round late, so every party reads
    its plain messages a round before they are delivered to it."""
    spec = plan.compile(plan.protocols)
    monkeypatch.setattr(nofmux.compiler, "_record",
                        lambda rnd, *rest: _record(rnd + 1, *rest))
    return spec


def _flip_block_bit(plan, monkeypatch):
    """The first bit of every XOR block is flipped as it is written."""
    return flip_block_bit(plan.compile(plan.protocols), [])


def _drop_a_speaker(plan, monkeypatch):
    """The engine's speaker schedule leaves out the sender of the XOR
    block in the block's round, so the runner never asks it there."""
    spec = plan.compile(plan.protocols)
    rnd, sender, _ = plan.block
    speakers = list(spec._speakers)
    assert sender in speakers[rnd - 1]
    speakers[rnd - 1] = tuple(p for p in speakers[rnd - 1] if p != sender)
    return dataclasses.replace(spec, _speakers=tuple(speakers))


class _Mutation(NamedTuple):
    build: Callable        # (plan, monkeypatch) -> compiled spec
    plans: tuple[str, ...]
    starves: bool = False  # an honest rule may then read an empty inbox


MUTATIONS = {
    "self-send": _Mutation(_in_instance(1, _self_send), ALL),
    "non-bit-in-block": _Mutation(_in_instance(1, _non_bit_in_block), ALL),
    "duplicate-in-block": _Mutation(_in_instance(1, _duplicate_in_block),
                                    ALL),
    "chain-to-non-successor": _Mutation(_in_instance(1, _non_successor), T3),
    "skip-one-strip": _Mutation(_skip_one_strip, ALL),
    "read-a-round-too-early": _Mutation(_read_too_early, T3, starves=True),
    "wrong-row-or-chain-swap": _Mutation(_in_instance(2, _swap), ALL),
    "closure-leak": _Mutation(_in_instance(1, _closure_leak), ALL),
    "zero-bit-signal": _Mutation(_in_instance(1, _zero_bit_signal), ALL),
    "xor-block-bit-flip": _Mutation(_flip_block_bit, ALL),
    "schedule-drops-a-speaker": _Mutation(_drop_a_speaker, ALL,
                                          starves=True),
    "output-drops-an-instance": _Mutation(
        _in_instance(1, _output_drops_an_instance), ALL),
    "output-extra-instance": _Mutation(
        _in_instance(1, _output_extra_instance), ALL),
    "output-not-a-bit": _Mutation(_in_instance(1, _output_not_a_bit), ALL),
}

CASES = [(m, p) for m, mutation in MUTATIONS.items() for p in mutation.plans]


def _first_catch(spec, f, indices, starves=False):
    """The first of ``indices`` at which the run or the pattern check
    raises a NofmuxError, an output disagrees with the oracle, or legality
    fuzzing raises, and what caught it; None if every input passes.  A
    starved honest rule fails on its empty inbox with an IndexError."""
    caught = (NofmuxError, IndexError) if starves else NofmuxError
    for idx in indices:
        try:
            (_, t, _), = sweep(spec, [idx])
            x = InputMatrix.from_index(idx, spec.k, spec.n, spec.ell)
            outputs = tuple(t.outputs[u] for u in range(1, spec.ell + 1))
            if outputs != oracle_evaluate(f, x):
                return idx, "oracle"
            check_view_legality(spec, x)
        except caught as exc:
            return idx, type(exc).__name__
    return None


@pytest.mark.parametrize("declared", [True, False],
                         ids=["pattern", "no-pattern"])
@pytest.mark.parametrize("mutation, plan", CASES)
def test_mutation_is_caught(mutation, plan, declared, monkeypatch):
    """The faulty spec is caught, at an input where the honest one passes
    every check."""
    m, p = MUTATIONS[mutation], _plan(plan)
    spec = m.build(p, monkeypatch)
    if not declared:
        spec = dataclasses.replace(spec, pattern=None)
    domain = range(domain_size(spec.k, spec.n, spec.ell))
    catch = _first_catch(spec, p.f, domain, m.starves)
    assert catch is not None, f"{mutation} survives on {plan}"
    monkeypatch.undo()
    honest = p.compile(p.protocols)
    assert _first_catch(honest, p.f, domain[:catch[0] + 1]) is None


def test_instance_rule_results_are_never_reused():
    """A fault switched on in instance 2's rule after one passing
    ``exhaustive_verify`` of the compiled spec fails the next one: the
    engine asks the instance rules afresh on every input of every call."""
    p = _plan("t2-equality")
    q, live = p.protocols[1], []

    def next_message(party, t, views, inbox, board):
        outs = q.next_message(party, t, views, inbox, board)
        return [o._replace(payload=_mask(o.payload, "1")) for o in outs] \
            if live else outs

    protos = (p.protocols[0],
              dataclasses.replace(q, next_message=next_message))
    spec = p.compile(protos)
    assert exhaustive_verify(spec, p.f).correct
    live.append(True)
    try:
        report = exhaustive_verify(spec, p.f)
    except NofmuxError:
        return
    assert not report.correct


OUTPUT_FAULTS = {"output-drops-an-instance": _output_drops_an_instance,
                 "output-extra-instance": _output_extra_instance,
                 "output-not-a-bit": _output_not_a_bit}


@pytest.mark.parametrize("plan", ALL)
@pytest.mark.parametrize("fault", OUTPUT_FAULTS)
def test_output_faults_fail_as_they_do_uncompiled(fault, plan, monkeypatch):
    """A compiled run refuses a faulty instance output with the error, and
    the text, of a run of that instance protocol alone."""
    p = _plan(plan)
    spec = MUTATIONS[fault].build(p, monkeypatch)
    x = InputMatrix.from_index(0, spec.k, spec.n, spec.ell)
    with pytest.raises(NofmuxError) as compiled:
        run_protocol(spec, x)
    q = p.protocols[0]
    bad_next, bad_output = OUTPUT_FAULTS[fault](q, p)
    alone = dataclasses.replace(q, next_message=bad_next,
                                output_rule=bad_output)
    with pytest.raises(NofmuxError) as uncompiled:
        run_protocol(alone, InputMatrix.single(*x.rows[0]))
    assert type(compiled.value) is type(uncompiled.value)
    assert str(compiled.value) == str(uncompiled.value)
