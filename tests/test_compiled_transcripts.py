"""Compiled transcripts: bit-for-bit pins, and a seeded fault that the
verifier must catch.

Each pinned digest is a SHA-256 over the full-domain transcripts of one
compiled acceptance configuration: (round, sender, recipient, payload) of
every record plus the outputs.  Framing tags and protocol indices are left
out, so a change of framing that keeps the bits keeps the digest.  A
refactor of the compilers must leave every digest unchanged.  The same
digests of three uncompiled built-ins, one per model, pin the runner.
"""

import dataclasses
import hashlib
import random

import pytest

from nofmux import (
    BindingTriplet, InputMatrix, LegalityError, Model, NofmuxError, Outgoing,
    Permutation, ProtocolSpec, TruthTable, View, check_replay_determinism,
    compile_symmetric, corollary1_protocol, domain_size, example1_protocol,
    example3_filtering_triplets, example3_graph, example3_protocol,
    exhaustive_verify, lemma1_protocol, multiplex_combine, myopic_combine,
    myopic_eq_chain, permute_protocol, random_truth_table, run_protocol,
)
from nofmux.acceptance import chained_equality_plan, forwarding_pipeline_plan


def transcript_digest(spec) -> str:
    h = hashlib.sha256()
    for idx in range(domain_size(spec.k, spec.n, spec.ell)):
        x = InputMatrix.from_index(idx, spec.k, spec.n, spec.ell)
        t = run_protocol(spec, x)
        line = ";".join(f"{r.round},{r.sender},{r.recipient},{r.payload}"
                        for r in t.records)
        outs = ",".join(f"{i}={b}" for i, b in sorted(t.outputs.items()))
        h.update(f"{line}|{outs}\n".encode())
    return h.hexdigest()


def _wide_chain(pi):
    """An equality chain whose position 2 sends its bit twice, so the block
    it shares with a one-bit message is ragged."""
    base = myopic_eq_chain(5, 1, pi)

    def next_message(p, t, views, inbox, board):
        outs = base.next_message(p, t, views, inbox, board)
        if t == 2 and outs:
            return [Outgoing(outs[0].recipient, outs[0].payload * 2)]
        if t == 3 and p == pi(3):
            step = int(views[1][pi(2)] == views[1][pi(4)])
            bit = int(inbox[-1].payload[:1]) & step
            return [Outgoing(pi(4), str(bit))]
        return outs

    return ProtocolSpec(
        name="wide", model=Model.MYOPIC, k=5, n=1, ell=1, rounds=4,
        next_message=next_message, output_party=pi(5), chain=pi.image,
        output_rule=base.output_rule)


def _forwarding():
    plan, _ = forwarding_pipeline_plan(n=1)
    return multiplex_combine(plan)


def _equality():
    spec, _, _ = compile_symmetric(
        example3_protocol(5, 1), TruthTable.eq(5, 1), example3_graph(5),
        example3_filtering_triplets(5), ell=2)
    return spec


def _chained():
    plan = chained_equality_plan(n=1)
    return myopic_combine(plan.protocols, plan.perms, plan.certificate)


def _ragged():
    perms = (Permutation((1, 2, 3, 4, 5)), Permutation((4, 2, 5, 1, 3)))
    protos = (_wide_chain(perms[0]), myopic_eq_chain(5, 1, perms[1]))
    return myopic_combine(protos, perms,
                          (BindingTriplet(2, 2, frozenset({1, 2})),))


def _single_chain():
    pi = Permutation((1, 2, 3, 4))
    return myopic_combine((myopic_eq_chain(4, 1, pi),), (pi,), ())


# Computed with the two separate combiners that the shared engine replaced.
PINNED = {
    "t1-forwarding-n1": (
        _forwarding,
        "050fd0a981a541a86e399ff32fa781ab3f74c22a6504cd53f12f60d07a589d8d"),
    "t2-equality-k5-ell2": (
        _equality,
        "2b891854e91009a32b852b36b44c8d104ac58b8ca1065ba863aebd3a22a1a971"),
    "t3-chained-equality": (
        _chained,
        "d40f65c19326589f967bb3704067af9a613d04f74bae7a5527e45b20ee4102cc"),
    "t3-ragged-lengths": (
        _ragged,
        "18f2e3e5938fe1069660c25cf7d1eac3b7f03d40f49bb9ba0dd4483e92ac4868"),
    "t3-single-chain": (
        _single_chain,
        "ebce0d81562e6dbfd1ca5a7cab193f9c36d28ec993fea9667101a7386fe95a85"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_compiled_transcripts_match_pins(name):
    build, want = PINNED[name]
    assert transcript_digest(build()) == want


@pytest.mark.parametrize("path", ["t3", "c2"])
def test_chained_pin_holds_for_the_plan_compiled_directly(path):
    """``myopic_combine`` is shorthand for ``multiplex_combine`` of a t3
    plan, so the plan itself, or its c2 copy, compiles to the pinned
    transcripts under the t3 name."""
    plan = dataclasses.replace(chained_equality_plan(n=1), path=path)
    spec = multiplex_combine(plan)
    assert spec.name.startswith("mux-t3[")
    assert transcript_digest(spec) == PINNED["t3-chained-equality"][1]



# Computed with the runner that rebuilt the visibility graph on every run;
# example1 and corollary1 with their own constructors, before they became
# special cases of the forwarding and blockwise builders.
PINNED_UNCOMPILED = {
    "lemma1-k4-n1": (
        lambda: lemma1_protocol(random_truth_table(4, 1, seed=0)),
        "63202ecb184ade1edc57777c7c6927ca061943c3a0ae6ca8f18449647c15b77f"),
    # two-bit words, so the broadcast XOR keeps its zero padding; computed
    # with the blockwise rules that XORed bit strings, before integers
    "lemma1-k3-n2": (
        lambda: lemma1_protocol(random_truth_table(3, 2, seed=1)),
        "eaf12d03c28b3e42e3f57c34d87aa7d06b353dec8a432890b0f4ea33a82d5e83"),
    "corollary1-k3-n1-ell4": (
        lambda: corollary1_protocol(random_truth_table(3, 1, seed=10), ell=4),
        "676a22aa1dc1b99134fa5f16c8b1b0a5d78a6e6465659cf21eeadf7ad94791dc"),
    "example1-k4-n2": (
        lambda: example1_protocol(random_truth_table(4, 2, seed=11)),
        "19f7cf9ae5d9746c9977761a77f0bfeafc1c99353c1ee7bab9e6d1915cf7d81c"),
    "example3-k5-n2": (
        lambda: example3_protocol(5, 2),
        "ed41abdbe6132bb32b80fef1a219dafcb242a81113473bb683a754408a1f5b38"),
    "myopic-eq-k5-n2": (
        lambda: myopic_eq_chain(5, 2, Permutation((2, 4, 1, 5, 3))),
        "e104d3a9ea3d8ec8ee767a3e3d6e68c54fd174540dbb76594048fabb84ceaa3f"),
}


@pytest.mark.parametrize("name", sorted(PINNED_UNCOMPILED))
def test_uncompiled_transcripts_match_pins(name):
    build, want = PINNED_UNCOMPILED[name]
    assert transcript_digest(build()) == want


def assert_schedule_keeps_transcripts(spec):
    """On every input, the compiled spec gives the transcript it gives
    with its speaker schedule set to None, while the runner asks only the
    scheduled parties, not every party in every round."""
    calls = []

    def counted(rule):
        def next_message(*args):
            calls.append(args[:2])
            return rule(*args)
        return next_message

    assert spec._speakers is not None
    scheduled = dataclasses.replace(
        spec, next_message=counted(spec.next_message))
    free = dataclasses.replace(scheduled, _speakers=None)
    assert scheduled._speakers == spec._speakers  # replace keeps it
    asked = [(p, t) for t, parties in enumerate(spec._speakers, start=1)
             for p in parties]
    for idx in range(domain_size(spec.k, spec.n, spec.ell)):
        x = InputMatrix.from_index(idx, spec.k, spec.n, spec.ell)
        calls.clear()
        got = run_protocol(scheduled, x)
        assert sorted(calls) == sorted(asked)
        assert got == run_protocol(free, x)
        # without a schedule the runner asked every (party, round) slot
        assert len(calls) == len(asked) + spec.k * spec.rounds


@pytest.mark.parametrize("name", sorted(PINNED))
def test_speaker_schedule_keeps_every_transcript(name):
    assert_schedule_keeps_transcripts(PINNED[name][0]())

def flip_block_bit(spec, flips):
    """``spec`` with the first bit of each XOR block flipped.  Blocks are
    the board writes that carry no instance index; ``flips`` records the
    (round, sender) of each."""
    def next_message(p, t, views, inbox, board):
        outs = list(spec.next_message(p, t, views, inbox, board))
        for i, o in enumerate(outs):
            if o.protocol is None and o.payload:
                flipped = "1" if o.payload[0] == "0" else "0"
                outs[i] = o._replace(payload=flipped + o.payload[1:])
                flips.append((t, p))
        return outs

    return dataclasses.replace(spec, next_message=next_message)


@pytest.mark.parametrize("build", [_equality, _chained],
                         ids=["t2-equality", "t3-chained-equality"])
def test_flipped_block_bit_is_caught(build):
    """The verifier is not vacuous: one flipped bit in the one XOR block
    of each run must give a counterexample or a NofmuxError."""
    flips = []
    faulty = flip_block_bit(build(), flips)
    try:
        report = exhaustive_verify(faulty, TruthTable.eq(5, 1))
    except NofmuxError:
        caught = True
    else:
        caught = not report.correct
    assert flips, "the compiled protocol wrote no XOR block"
    assert len(set(flips)) == 1, "expected one block per run"
    assert caught


def test_warm_view_table_replays_every_cold_transcript():
    """Runs that share the spec's interned views and their projections
    give the transcripts of runs on a fresh spec, on every t2 input of
    the k=5, ell=2 pipeline."""
    spec = _equality()
    inputs = [InputMatrix.from_index(idx, spec.k, spec.n, spec.ell)
              for idx in range(domain_size(spec.k, spec.n, spec.ell))]
    cold = [run_protocol(dataclasses.replace(spec), x) for x in inputs]
    for x in inputs:
        run_protocol(spec, x)
    table, pool = spec._memo["views"]
    # one entry per row; each party sees the k - 1 inputs off its forehead
    assert (len(table), len(pool)) == (2 ** spec.k, spec.k * 2 ** (spec.k - 1))
    for x, want in zip(inputs, cold):
        assert check_replay_determinism(spec, x) == want


@pytest.mark.parametrize("build", [_chained, _ragged],
                         ids=["t3-chained-equality", "t3-ragged-lengths"])
def test_t3_runs_in_any_order_replay_every_cold_transcript(build):
    """On every input of a t3 pipeline, runs that share the spec's views
    and its demux index, in a shuffled order, give the transcripts of
    runs on a fresh spec, and replay them."""
    fresh, spec = build(), build()
    inputs = [InputMatrix.from_index(idx, spec.k, spec.n, spec.ell)
              for idx in range(domain_size(spec.k, spec.n, spec.ell))]
    cold = {x.index: run_protocol(dataclasses.replace(fresh), x)
            for x in inputs}
    random.Random(0).shuffle(inputs)
    for x in inputs:
        assert run_protocol(spec, x) == cold[x.index]
    assert "views" in spec._memo
    for x in inputs:
        assert check_replay_determinism(spec, x) == cold[x.index]


def _wrong_row_plan(u, v):
    """The k=5, ell=3 equality pipeline whose instance u runs the base
    protocol permuted by matrix row v, under instance u's name, graph and
    declared pattern.  Rows 1 and 3 are both the identity, so the pairs
    with different rows are (1, 2), (2, 1), (2, 3) and (3, 2)."""
    base, f = example3_protocol(5, 1), TruthTable.eq(5, 1)
    _, plan, matrix = compile_symmetric(
        base, f, example3_graph(5), example3_filtering_triplets(5), ell=3)
    row = matrix.rows[v - 1]
    assert row != matrix.rows[u - 1]
    wrong = base if row.is_identity() else permute_protocol(base, row)
    protos = list(plan.protocols)
    protos[u - 1] = dataclasses.replace(
        protos[u - 1], next_message=wrong.next_message,
        output_rule=wrong.output_rule)
    return dataclasses.replace(plan, protocols=tuple(protos)), f


@pytest.mark.parametrize("u, v", [(1, 2), (2, 1), (2, 3), (3, 2)])
def test_wrong_row_permutation_is_caught(u, v):
    """The verifier is not vacuous: an instance protocol permuted by
    another row of the matrix must fail compilation, the pattern check or
    the oracle."""
    plan, f = _wrong_row_plan(u, v)
    try:
        report = exhaustive_verify(multiplex_combine(plan), f)
    except NofmuxError:
        caught = True
    else:
        caught = not report.correct
    assert caught


def test_instance_protocol_cannot_read_past_its_graph():
    """An instance protocol gets only what its own graph shows, even when
    the compiled board shows its party more: example3's graph hides x_4
    from P_5."""
    base = example3_protocol(5, 1)

    def next_message(p, t, views, inbox, board):
        if p == 5:
            views[1][4]
        return base.next_message(p, t, views, inbox, board)

    _, plan, _ = compile_symmetric(
        base, TruthTable.eq(5, 1), example3_graph(5),
        example3_filtering_triplets(5), ell=2)
    leaky = dataclasses.replace(base, next_message=next_message)
    spec = multiplex_combine(dataclasses.replace(
        plan, protocols=(leaky,) + plan.protocols[1:]))
    # P_5 computing its own message, on the board view that shows x_4
    board_view = {u: View(5, {1: "0", 2: "0", 3: "0", 4: "0"}) for u in (1, 2)}
    with pytest.raises(LegalityError, match="party 5 cannot see x_4"):
        spec.next_message(5, 1, board_view, (), ())
    # P_2 recomputing P_5's message to strip their shared block
    with pytest.raises(LegalityError, match="party 5 cannot see x_4"):
        run_protocol(spec, InputMatrix.from_index(0, 5, 1, 2))
