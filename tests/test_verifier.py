"""Oracle and verification-harness tests."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nofmux import (
    BOARD, DEFAULT_BUDGET, BudgetError, CommPattern, CompilationPlan,
    DomainError, InputMatrix, LegalityError, Model, NofmuxError,
    ObliviousnessError, Outgoing, Permutation, ProtocolSpec,
    RestrictionGraph, TruthTable, bits_to_int, board_outputs,
    check_prefix_free, check_view_legality, compile_symmetric, domain_size,
    enumerate_inputs, eq_two_bit_protocol, example3_filtering_triplets,
    example3_graph, example3_protocol, exhaustive_verify, is_prefix_free,
    lemma1_protocol, measure_cost, messages_at_position, multiplex_combine,
    myopic_eq_chain, oracle_evaluate,
    random_truth_table, run_protocol, sampled_verify,
)
from nofmux import acceptance
from nofmux.verifier import _rounds_of
from test_protocols import _small_builtins


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_equality_instances():
    f = TruthTable.eq(3, 1)
    x = InputMatrix(2, 3, 1, (("0", "0", "0"), ("0", "1", "0")))
    assert oracle_evaluate(f, x) == (1, 0)


def test_oracle_constant_table():
    f = TruthTable.constant(3, 2, 1)
    for idx in range(0, domain_size(3, 2, 2), 97):
        x = InputMatrix.from_index(idx, 3, 2, 2)
        assert oracle_evaluate(f, x) == (1, 1)


def test_oracle_shape_mismatch():
    with pytest.raises(DomainError):
        oracle_evaluate(TruthTable.eq(3, 1), InputMatrix.single("0", "1"))


@given(st.integers(min_value=0, max_value=2 ** 12 - 1),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=100)
def test_oracle_matches_independent_lookup(idx, seed):
    """Cross-check against a second, separately written lookup path."""
    f = random_truth_table(3, 2, seed % 1000)
    x = InputMatrix.from_index(idx, 3, 2, 2)
    independent = tuple(
        f.values[int("".join(x.x(i, j) for j in range(1, 4)), 2)]
        for i in range(1, 3))
    assert oracle_evaluate(f, x) == independent


def _scripted(f, ell, wrong=None):
    """A protocol of no rounds whose output party answers, input after
    input in index order, with ``oracle_evaluate``'s bits, except that
    the (input index, instance) pair ``wrong`` gets the other bit."""
    script = [oracle_evaluate(f, x) for x in enumerate_inputs(f.k, f.n, ell)]
    step = itertools.count()

    def output_rule(views, inbox, board):
        idx = next(step)
        return {u: bit ^ ((idx, u) == wrong)
                for u, bit in enumerate(script[idx], start=1)}

    return script, ProtocolSpec(
        name="scripted", model=Model.NOF_BOARD, k=f.k, n=f.n, ell=ell,
        rounds=0, next_message=None, output_party=1,
        output_rule=output_rule)


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_oracle_by_index_fields_equals_oracle_evaluate(n, ell):
    """The oracle loop reads the table by the index's instance fields; it
    agrees with ``oracle_evaluate`` on every input, and a wrong bit of any
    instance is caught at its input, with that input's rows."""
    f = random_truth_table(2, n, seed=10 * n + ell)
    script, spec = _scripted(f, ell)
    report = exhaustive_verify(spec, f)
    assert report.correct and report.checked == len(script)
    for u in range(1, ell + 1):
        idx = 37 * u % len(script)
        _, spec = _scripted(f, ell, wrong=(idx, u))
        ce = exhaustive_verify(spec, f).counterexample
        assert (ce.input_index, ce.instance) == (idx, u)
        assert ce.expected == script[idx][u - 1] != ce.protocol_output
        assert ce.rows == InputMatrix.from_index(idx, 2, n, ell).rows


def test_random_truth_table_is_seed_deterministic():
    assert random_truth_table(3, 1, 1) == random_truth_table(3, 1, 1)
    assert random_truth_table(3, 1, 1) != random_truth_table(3, 1, 2)
    assert len(random_truth_table(3, 1, 5).values) == 8  # 2^(k*n)
    assert len(random_truth_table(3, 2, 5).values) == 64


def test_random_truth_table_size_guard():
    with pytest.raises(BudgetError):
        random_truth_table(5, 6, seed=0)


# ---------------------------------------------------------------------------
# exhaustive verification
# ---------------------------------------------------------------------------

def test_exhaustive_verify_counts_whole_domain():
    f = TruthTable.eq(4, 1)
    report = exhaustive_verify(eq_two_bit_protocol(4, 1), f,
                               predicted_bound=2, naive_baseline=None)
    assert report.exhaustive
    assert report.domain_size == report.checked == 16
    assert report.correct and report.counterexample is None
    assert report.measured_worst_case == 2


def test_exhaustive_verify_reports_first_counterexample():
    """Fault injection: flip one output and the report pinpoints it."""
    base = eq_two_bit_protocol(4, 1)

    def lying_output(views, inbox, board):
        out = board_outputs(board, 1)
        return {1: out[1] ^ 1}

    corrupted = ProtocolSpec(
        name="corrupted", model=base.model, k=4, n=1, ell=1, rounds=2,
        next_message=base.next_message, output_party=base.output_party,
        output_rule=lying_output, pattern=base.pattern)
    report = exhaustive_verify(corrupted, TruthTable.eq(4, 1))
    assert not report.correct
    assert report.counterexample.input_index == 0
    assert report.checked == 1  # stopped at the first failure
    assert report.counterexample.expected == 1


def test_fault_in_runner_does_not_move_the_oracle():
    """The oracle is a pure table lookup, untouched by protocol behavior."""
    f = TruthTable.eq(3, 1)
    x = InputMatrix.single("1", "1", "1")
    before = oracle_evaluate(f, x)
    exhaustive_verify(eq_two_bit_protocol(3, 1), f)
    assert oracle_evaluate(f, x) == before == (1,)


def test_exhaustive_verify_budget():
    f = random_truth_table(3, 2, 1)
    with pytest.raises(BudgetError):
        exhaustive_verify(lemma1_protocol(f), f, budget=100)


def test_exhaustive_verify_checks_shape_before_budget():
    with pytest.raises(DomainError, match=r"^truth table shape does not "
                                          r"match the protocol$"):
        exhaustive_verify(eq_two_bit_protocol(4, 1), TruthTable.eq(3, 1),
                          budget=1)


@pytest.mark.parametrize("samples", [0, 8])
def test_sampled_verify_checks_shape(samples):
    """Even a sample of no inputs rejects a table of another shape."""
    with pytest.raises(DomainError, match=r"^truth table shape does not "
                                          r"match the protocol$"):
        sampled_verify(eq_two_bit_protocol(4, 1), TruthTable.eq(3, 1),
                       samples=samples, seed=0)


@pytest.mark.parametrize("samples", [0, -1])
def test_sampled_verify_refuses_an_empty_sample(samples):
    """A sample of no inputs would report correct=True with checked=0."""
    with pytest.raises(DomainError, match=r"^a sample needs at least 1 "
                                          rf"input, not {samples}$"):
        sampled_verify(eq_two_bit_protocol(4, 1), TruthTable.eq(4, 1),
                       samples=samples, seed=0)


def test_sampled_verify_is_labeled():
    f = TruthTable.eq(4, 1)
    report = sampled_verify(eq_two_bit_protocol(4, 1), f, samples=10, seed=3)
    assert not report.exhaustive
    assert report.checked == 10


def test_report_json_roundtrip(tmp_path):
    f = TruthTable.eq(4, 1)
    report = exhaustive_verify(eq_two_bit_protocol(4, 1), f,
                               predicted_bound=2, naive_baseline=3)
    path = tmp_path / "report.json"
    report.save(str(path))
    import json
    data = json.loads(path.read_text())
    assert data["correct"] and data["measured_worst_case"] == 2
    assert data["naive_baseline"] == 3
    assert report.savings_realized


# ---------------------------------------------------------------------------
# information only in bits
# ---------------------------------------------------------------------------

_X3 = TruthTable.from_function(3, 1, lambda args: int(args[2]))


def _signal_x3(model, send, output_rule):
    """A one-round protocol for f = x_3 on k=3, n=1: party 1, which sees
    x_3, sends ``send(x_3)``, and the output party, which does not see x_3,
    outputs ``output_rule``.  On graphs party 2 sees only x_1 and outputs;
    on the board party 3 outputs."""
    graph = (RestrictionGraph(3, frozenset({(1, 3), (2, 1)}))
             if model is Model.NOF_GRAPH else None)

    def next_message(p, t, views, inbox, board):
        return send(views[1][3]) if p == 1 else []

    return ProtocolSpec(
        name="x3-signal", model=model, k=3, n=1, ell=1, rounds=1,
        next_message=next_message, output_party=2 if graph else 3,
        output_rule=output_rule, graph=graph)


@pytest.mark.parametrize("model, send, heard", [
    (Model.NOF_GRAPH, Outgoing(2, ""), lambda views, inbox, board: inbox),
    (Model.NOF_BOARD, Outgoing(BOARD, ""), lambda views, inbox, board: board),
], ids=["graph", "board"])
def test_an_empty_message_carries_no_information(model, send, heard):
    """Party 1 sends an empty message only when x_3 = 1, and the output
    party outputs how many records it heard, in its inbox or on the board.
    An empty message is no message, so this is a counterexample, not a
    correct protocol at 0 bits."""
    spec = _signal_x3(model, lambda x3: [send] if x3 == "1" else [],
                      lambda *seen: {1: len(heard(*seen))})
    report = exhaustive_verify(spec, _X3)
    assert not report.correct
    assert report.counterexample.input_index == 1
    assert report.measured_worst_case == 0


@pytest.mark.parametrize("model, to, heard, channel", [
    (Model.NOF_GRAPH, 2, lambda views, inbox, board: inbox, "to party 2"),
    (Model.NOF_BOARD, BOARD, lambda views, inbox, board: board,
     r"on board channel \(None, None\)"),
], ids=["graph", "board"])
def test_splitting_a_message_into_records_is_illegal(model, to, heard,
                                                     channel):
    """Party 1 sends the constant payload 11 as two records when x_3 = 1
    and as one otherwise, and the output party outputs the record count
    less one.  A second message on one channel raises LegalityError."""
    spec = _signal_x3(
        model,
        lambda x3: ([Outgoing(to, "1")] * 2 if x3 == "1"
                    else [Outgoing(to, "11")]),
        lambda *seen: {1: len(heard(*seen)) - 1})
    with pytest.raises(LegalityError, match=f"^party 1 sends two messages "
                       f"{channel} in round 1$"):
        exhaustive_verify(spec, _X3)


_X2_OR_X3 = TruthTable.from_function(
    3, 1, lambda args: int(args[1] if args[0] == "1" else args[2]))


def _framed(frame):
    """f = x_2 if x_1 = 1 else x_3 on k=3, n=1: party 1 sees x_2 and x_3
    but not x_1, so party 3, which sees only x_1, needs both bits.  Party 1
    sends one bit and ``frame(x_2 x_3)`` as the message's framing, which
    party 3 decodes; counted by its bits alone it would be correct at 1."""
    graph = RestrictionGraph(3, frozenset({(1, 2), (1, 3), (3, 1)}))

    def next_message(p, t, views, inbox, board):
        return ([Outgoing(3, "0", **frame(views[1][2] + views[1][3]))]
                if p == 1 else [])

    def output_rule(views, inbox, board):
        (r,) = inbox
        pair = r.tag if r.tag is not None else format(r.protocol, "02b")
        return {1: int(pair[0] if views[1][1] == "1" else pair[1])}

    return ProtocolSpec(
        name="framed", model=Model.NOF_GRAPH, k=3, n=1, ell=1, rounds=1,
        next_message=next_message, output_party=3, output_rule=output_rule,
        graph=graph, pattern=CommPattern({(1, 1, 3): 1}, 1))


@pytest.mark.parametrize("frame", [
    lambda pair: {"tag": pair}, lambda pair: {"protocol": int(pair, 2)},
], ids=["tag", "protocol"])
@pytest.mark.parametrize("compiled", [False, True],
                         ids=["uncompiled", "t1-instance"])
def test_a_point_to_point_message_carries_no_framing(frame, compiled):
    """A point-to-point message framed by a tag or a protocol index raises
    LegalityError, alone and as the instance protocol of a t1 plan."""
    spec = _framed(frame)
    if compiled:
        spec = multiplex_combine(CompilationPlan(
            "t1", 1, (Permutation.identity(3),), (spec,), (), spec.graph))
    with pytest.raises(LegalityError, match="^a point-to-point message "
                                            "carries no protocol or tag$"):
        exhaustive_verify(spec, _X2_OR_X3)


# ---------------------------------------------------------------------------
# prefix-freeness
# ---------------------------------------------------------------------------

def test_is_prefix_free_cases():
    assert is_prefix_free(frozenset())
    assert is_prefix_free(frozenset({"01"}))
    assert is_prefix_free(frozenset({"0", "1"}))
    assert not is_prefix_free(frozenset({"0", "01"}))
    assert not is_prefix_free(frozenset({"", "1"}))


def test_chain_messages_and_prefix_freeness():
    spec = myopic_eq_chain(5, 1, Permutation((1, 2, 3, 4, 5)))
    assert messages_at_position(spec, 2) == {"0", "1"}
    assert messages_at_position(spec, 1) == {""}
    assert check_prefix_free(spec, 2)
    with pytest.raises(DomainError):
        messages_at_position(spec, 5)
    with pytest.raises(DomainError):
        messages_at_position(eq_two_bit_protocol(3, 1), 1)


def test_position_messages_survive_a_later_empty_record():
    """Party 5 writes an empty record to party 1 in every round; it sorts
    after the position-2 message and must not replace it."""
    chain = myopic_eq_chain(5, 1, Permutation.identity(5))

    def next_message(p, t, views, inbox, board):
        extra = [Outgoing(1, "")] if p == 5 else []
        return list(chain.next_message(p, t, views, inbox, board)) + extra

    spec = dataclasses.replace(chain, next_message=next_message)
    assert messages_at_position(spec, 2) == {"0", "1"}


# ---------------------------------------------------------------------------
# the one sweep guard
# ---------------------------------------------------------------------------

_EQ5 = TruthTable.eq(5, 1)

# each public sweep, called on a k=5 myopic chain; sampled_verify has no
# budget, because its sample count is the caller's own request
SWEEPS = {
    "measure_cost": lambda spec, budget=DEFAULT_BUDGET: measure_cost(
        spec, budget),
    "exhaustive_verify": lambda spec, budget=DEFAULT_BUDGET: exhaustive_verify(
        spec, _EQ5, budget=budget),
    "sampled_verify": lambda spec: sampled_verify(spec, _EQ5, samples=8,
                                                  seed=0),
    "messages_at_position": lambda spec, budget=DEFAULT_BUDGET:
        messages_at_position(spec, 2, budget),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_every_sweep_guards_its_budget_and_checks_the_pattern(name):
    chain = myopic_eq_chain(5, 1, Permutation.identity(5))
    SWEEPS[name](chain)
    if name != "sampled_verify":
        with pytest.raises(BudgetError):
            SWEEPS[name](chain, 31)
    # the chain sends one bit at positions 2-4, not two at position 2
    wrong = dataclasses.replace(chain,
                                pattern=CommPattern({(2, 2, 3): 2}, 4))
    # legality stores runs without checking the pattern; stored or not,
    # every run is checked
    for x in enumerate_inputs(5, 1, 1):
        check_view_legality(wrong, x)
    with pytest.raises(ObliviousnessError):
        SWEEPS[name](wrong)


@pytest.mark.parametrize("spec", list(acceptance._legality_configs()),
                         ids=lambda spec: spec.name)
def test_measure_cost_per_round_is_the_fold_of_every_transcript(spec):
    """``measure_cost`` folds a pattern's lengths once, not once per input:
    its per-round maxima are those of a fold over every run's costs."""
    want: dict[int, int] = {}
    for x in enumerate_inputs(spec.k, spec.n, spec.ell):
        rounds: dict[int, int] = {}
        for (rnd, _, _), bits in run_protocol(spec, x).costs()[0].items():
            rounds[rnd] = rounds.get(rnd, 0) + bits
        for rnd, bits in rounds.items():
            want[rnd] = max(want.get(rnd, 0), bits)
    assert measure_cost(spec).per_round == want


# ---------------------------------------------------------------------------
# view legality fuzzing
# ---------------------------------------------------------------------------

def test_bit_flip_fuzzing_passes_honest_protocols():
    honest = eq_two_bit_protocol(3, 1)
    for x in (InputMatrix.from_index(i, 3, 1, 1) for i in range(8)):
        check_view_legality(honest, x)
    chain = myopic_eq_chain(4, 1, Permutation((2, 1, 4, 3)))
    for x in (InputMatrix.from_index(i, 4, 1, 1) for i in range(16)):
        check_view_legality(chain, x)


def test_bit_flip_fuzzing_rejects_input_of_other_shape():
    with pytest.raises(DomainError, match="does not match protocol"):
        check_view_legality(eq_two_bit_protocol(3, 1),
                            InputMatrix.from_index(0, 4, 1, 1))


def test_bit_flip_fuzzing_flags_extra_view_dependence():
    """A rule that reacts to anything beyond its legal view -- here, hidden
    mutable state distinguishing the fuzzer's replays -- is flagged."""
    calls = itertools.count()

    def next_message(p, t, views, inbox, board):
        if t == 1 and p == 1:
            return [Outgoing(BOARD, str(next(calls) % 2))]
        return []

    sneaky = ProtocolSpec(
        name="sneaky", model=Model.NOF_BOARD, k=2, n=1, ell=1, rounds=1,
        next_message=next_message, output_party=1,
        output_rule=lambda views, inbox, board: {1: 0})
    with pytest.raises(DomainError):
        check_view_legality(sneaky, InputMatrix.single("0", "1"))


def _leaky():
    """x_1 is hidden from parties 1, 3 and 4.  Party 2 sees it and leaks
    it, before they speak, to parties 3 and 4, which both send it on."""
    leak = {}

    def next_message(p, t, views, inbox, board):
        if p == 2:
            leak["x1"] = views[1][1]
            return []
        return [Outgoing(2, leak["x1"])] if p in (3, 4) else []

    graph = RestrictionGraph(4, frozenset({
        (1, 2), (1, 3), (1, 4), (2, 1), (2, 3), (2, 4), (3, 2), (3, 4),
        (4, 2), (4, 3)}))
    return ProtocolSpec(
        name="leaky", model=Model.NOF_GRAPH, k=4, n=1, ell=1, rounds=1,
        next_message=next_message, output_party=2, graph=graph,
        output_rule=lambda views, inbox, board: {1: 0})


def test_bit_flip_fuzzing_reports_the_first_party_of_a_shared_flip():
    """The flipped run of x_1 is shared by parties 1, 3 and 4; party 1
    does not react, so the first party reported is party 3."""
    leaky = _leaky()
    for idx in range(domain_size(4, 1, 1)):
        with pytest.raises(DomainError) as err:
            check_view_legality(leaky, InputMatrix.from_index(idx, 4, 1, 1))
        assert str(err.value) == ("leaky: party 3 reacted to invisible bit "
                                  "(1,1,0) in round 1")


def _reference_view_legality(spec, x):
    """The per-call algorithm: run the input, then each distinct flip of
    the input once, rebuilt as a matrix, and compare transcripts split per
    party.  Kept as the reference that the table must agree with."""
    base = run_protocol(spec, x)
    on_board = spec.model is Model.NOF_BOARD
    runs = {}
    for p in range(1, spec.k + 1):
        seen = spec.visibility().neighbors(p)
        invisible = [(i, j) for i in range(1, x.ell + 1)
                     for j in range(1, spec.k + 1)
                     if j != p and j not in seen] + \
                    [(i, p) for i in range(1, x.ell + 1)]
        heard_base, sent_base = _rounds_of(base.records, p, spec.rounds,
                                           on_board)
        for (i, j) in invisible:
            for bit in range(spec.n):
                other = runs.get((i, j, bit))
                if other is None:
                    rows = [list(r) for r in x.rows]
                    word = rows[i - 1][j - 1]
                    rows[i - 1][j - 1] = (word[:bit]
                                          + ("1" if word[bit] == "0" else "0")
                                          + word[bit + 1:])
                    flipped = InputMatrix(x.ell, x.k, x.n,
                                          tuple(tuple(r) for r in rows))
                    other = runs[i, j, bit] = run_protocol(spec, flipped)
                heard, sent = _rounds_of(other.records, p, spec.rounds,
                                         on_board)
                for t in range(1, spec.rounds + 1):
                    if heard_base[t - 1] != heard[t - 1]:
                        break
                    if sent_base[t] != sent[t]:
                        raise DomainError(
                            f"{spec.name}: party {p} reacted to invisible "
                            f"bit ({i},{j},{bit}) in round {t}")


def _outcome(check, spec, x):
    try:
        check(spec, x)
    except NofmuxError as exc:
        return type(exc).__name__, str(exc)
    return None


def _forehead_forwarding_lemma1():
    """Seeded fault in lemma1: in round 1 party 2 saves x_{1,3}, which it
    sees, in a closure dict, and party 3 then writes that bit of its own
    forehead on the board after its real message, under its own tag."""
    spec = lemma1_protocol(random_truth_table(3, 1, 24))
    saved = {}

    def next_message(p, t, views, inbox, board):
        out = list(spec.next_message(p, t, views, inbox, board))
        if t == 1 and p == 2:
            saved["x13"] = views[1][3]
        if t == 1 and p == 3:
            out.append(Outgoing(BOARD, saved["x13"], tag="leak"))
        return out

    return dataclasses.replace(spec, name="forwarding",
                               next_message=next_message)


def _table_specs():
    return [*_small_builtins(), _leaky(), _forehead_forwarding_lemma1()]


_REFERENCE: dict[str, list] = {}


def _reference_outcomes(spec):
    """Per input index, the outcome of the per-call reference.  The specs
    of ``_table_specs`` are built the same way on every call, so their
    outcomes are computed once per session, keyed by name."""
    if spec.name not in _REFERENCE:
        _REFERENCE[spec.name] = [
            _outcome(_reference_view_legality, spec,
                     InputMatrix.from_index(idx, spec.k, spec.n, spec.ell))
            for idx in range(domain_size(spec.k, spec.n, spec.ell))]
    return _REFERENCE[spec.name]


def _assert_table_agrees(spec, note=None):
    for idx, want in enumerate(_reference_outcomes(spec)):
        x = InputMatrix.from_index(idx, spec.k, spec.n, spec.ell)
        assert _outcome(check_view_legality, spec, x) == want, (
            spec.name, idx, note)


def test_legality_table_agrees_with_per_call_reruns():
    """Every input of each spec gets the same outcome from the table as
    from the per-call reference: a pass, or the same first error."""
    for spec in _table_specs():
        _assert_table_agrees(spec)
        if spec.name == "forwarding":
            assert set(_reference_outcomes(spec)) == {
                ("DomainError", "forwarding: party 3 reacted to invisible "
                 "bit (1,3,0) in round 1")}


def test_legality_table_is_kept_only_for_small_domains():
    small, large = eq_two_bit_protocol(4, 1), eq_two_bit_protocol(9, 2)
    assert domain_size(9, 2, 1) > 2 ** 16
    for spec in (small, large):
        check_view_legality(spec, InputMatrix.from_index(0, spec.k, spec.n,
                                                         spec.ell))
    # the table of runs that legality shares with measure_cost
    assert "runs" in small._memo
    assert "runs" not in large._memo


def test_hidden_read_on_a_flipped_input_raises_on_every_call():
    """Party 2 reads its own forehead only when x_1 is 1, so input
    (0, 1) runs cleanly and its flip (1, 1) raises: on every call."""
    def next_message(p, t, views, inbox, board):
        if p == 2 and views[1][1] == "1":
            return [Outgoing(BOARD, views[1][2])]
        return []

    spec = ProtocolSpec(
        name="peeks", model=Model.NOF_BOARD, k=2, n=1, ell=1, rounds=1,
        next_message=next_message, output_party=1,
        output_rule=lambda views, inbox, board: {1: 0})
    run_protocol(spec, InputMatrix.single("0", "1"))
    for _ in range(3):
        with pytest.raises(LegalityError):
            check_view_legality(spec, InputMatrix.single("0", "1"))


# ---------------------------------------------------------------------------
# runs shared between the cost sweep, the prefix sweep and legality
# ---------------------------------------------------------------------------

def _breaks_pattern_when(word):
    """Party 1 writes x_2, which it sees, on the board, plus one more bit
    when x_2 is ``word``; the declared pattern is two bits."""
    def next_message(p, t, views, inbox, board):
        if p == 1:
            seen = views[1][2]
            return [Outgoing(BOARD, seen + ("0" if seen == word else ""))]
        return []

    return ProtocolSpec(
        name="breaks", model=Model.NOF_BOARD, k=2, n=2, ell=1, rounds=1,
        next_message=next_message, output_party=2,
        output_rule=lambda views, inbox, board: {1: 0},
        pattern=CommPattern({(1, 1, BOARD): 2}, 1))


def test_pattern_break_is_caught_after_legality_ran_every_index(
        monkeypatch):
    """Legality stores runs without checking the pattern; measure_cost
    still checks every index, stored or not, and names a stored run's
    index, which it decodes for that alone."""
    spec = _breaks_pattern_when("11")
    for idx in range(domain_size(2, 2, 1)):
        check_view_legality(spec, InputMatrix.from_index(idx, 2, 2, 1))
    decoded = []
    from_index = InputMatrix.from_index
    monkeypatch.setattr(InputMatrix, "from_index", classmethod(
        lambda cls, idx, *shape: decoded.append(idx) or from_index(
            idx, *shape)))
    for _ in range(2):
        with pytest.raises(ObliviousnessError, match="input index 3:"):
            measure_cost(spec)
    assert decoded == [3, 3]


@pytest.mark.parametrize("order", ["cost-first", "legality-first"])
def test_legality_table_agrees_with_per_call_reruns_next_to_measure_cost(
        order):
    """The comparison above, with measure_cost sharing the spec's runs:
    run before every legality check, or between two rounds of them."""
    for spec in _table_specs():
        if order == "cost-first":
            _measure_pattern_break(spec)
            _assert_table_agrees(spec, order)
        else:
            _assert_table_agrees(spec, "before measure_cost")
            _measure_pattern_break(spec)
            _assert_table_agrees(spec, "after measure_cost")


def _measure_pattern_break(spec):
    """measure_cost on ``spec``; only the seeded forehead leak, which
    writes a bit lemma1 does not declare, breaks its pattern."""
    if spec.name == "forwarding":
        with pytest.raises(ObliviousnessError, match="input index 0:"):
            measure_cost(spec)
    else:
        measure_cost(spec)


def test_outputs_never_come_from_the_run_table():
    """example3's output rule reads views, so equal records can carry
    different outputs; a fault switched on after measure_cost is still
    caught by exhaustive_verify."""
    faulty = {"on": False}
    spec = example3_protocol(5, 2)

    def output_rule(views, inbox, board):
        out = spec.output_rule(views, inbox, board)
        return {1: out[1] ^ 1} if faulty["on"] else out

    flipped = dataclasses.replace(spec, output_rule=output_rule)
    f = TruthTable.eq(5, 2)
    assert measure_cost(flipped).worst_case_bits == 1
    assert exhaustive_verify(flipped, f).correct
    faulty["on"] = True
    report = exhaustive_verify(flipped, f)
    assert not report.correct
    assert report.counterexample.input_index == 0


@pytest.fixture
def verifier_runs(monkeypatch):
    """The input indices of every protocol run the verifier makes."""
    import nofmux.verifier
    indices = []

    def counted(spec, x):
        indices.append(x.index)
        return run_protocol(spec, x)

    monkeypatch.setattr(nofmux.verifier, "run_protocol", counted)
    return indices


@pytest.mark.parametrize("cost_first", [True, False])
def test_cost_sweep_and_legality_run_each_input_once(verifier_runs,
                                                     cost_first):
    spec = lemma1_protocol(random_truth_table(4, 1, seed=9))
    size = domain_size(4, 1, 3)
    assert size == 2 ** 12

    def legality():
        for idx in range(size):
            check_view_legality(spec, InputMatrix.from_index(idx, 4, 1, 3))

    passes = (lambda: measure_cost(spec), legality)
    for check in passes if cost_first else reversed(passes):
        check()
    assert len(verifier_runs) == size
    assert sorted(verifier_runs) == list(range(size))


@pytest.mark.parametrize("positions_first", [True, False])
def test_position_sweep_and_cost_sweep_run_each_input_once(verifier_runs,
                                                           positions_first):
    chain = myopic_eq_chain(5, 1, Permutation((4, 2, 5, 1, 3)))
    passes = (lambda: messages_at_position(chain, 2),
              lambda: measure_cost(chain))
    for check in passes if positions_first else reversed(passes):
        check()
    assert sorted(verifier_runs) == list(range(2 ** 5))


def test_verification_sweeps_keep_no_run_table(verifier_runs):
    """exhaustive_verify and sampled_verify run every input they are given
    and keep nothing on the spec."""
    f = TruthTable.eq(5, 1)
    spec, _, _ = compile_symmetric(
        example3_protocol(5, 1), f, example3_graph(5),
        example3_filtering_triplets(5), ell=2)
    del verifier_runs[:]  # the base protocol's check inside the compile
    for _ in range(2):
        assert exhaustive_verify(spec, f).correct
    sampled_verify(spec, f, samples=8, seed=0)
    assert len(verifier_runs) == 2 * domain_size(5, 1, 2) + 8
    assert "runs" not in spec._memo


def test_symmetric_compile_and_naive_baseline_run_each_base_input_once(
        verifier_runs):
    """compile_symmetric checks its base protocol on every input and keeps
    the runs; the naive baseline's cost sweep of the same base reads them
    instead of running the inputs again."""
    base = example3_protocol(5, 1)
    spec, plan, _ = compile_symmetric(
        base, TruthTable.eq(5, 1), example3_graph(5),
        example3_filtering_triplets(5), ell=2)
    assert plan.protocols[0] is base
    assert acceptance.naive_baseline(plan, DEFAULT_BUDGET) == 2 * (1 + 1)
    assert sorted(verifier_runs) == list(range(2 ** 5))
    assert "runs" not in spec._memo


def test_symmetric_compile_checks_every_base_input_fresh(verifier_runs):
    """A base protocol whose runs are already kept is still run and checked
    on every input: a fault switched on after one compile fails the next."""
    faulty = {"on": False}
    honest = example3_protocol(5, 1)

    def output_rule(views, inbox, board):
        out = honest.output_rule(views, inbox, board)
        return {1: out[1] ^ 1} if faulty["on"] else out

    base = dataclasses.replace(honest, output_rule=output_rule)
    args = (TruthTable.eq(5, 1), example3_graph(5),
            example3_filtering_triplets(5), 2)
    compile_symmetric(base, *args)
    faulty["on"] = True
    with pytest.raises(DomainError, match=r"^base protocol disagrees with f "
                                          r"at input index 0$"):
        compile_symmetric(base, *args)
    assert len(verifier_runs) == 2 ** 5 + 1
