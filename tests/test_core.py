"""Core model tests: bits, inputs, graphs, views, execution, cost."""

import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from nofmux import (
    BOARD, BudgetError, CommPattern, DomainError, InputMatrix, LegalityError,
    Model, NofmuxError, ObliviousnessError, Outgoing, ProtocolSpec,
    RestrictionGraph, TruthTable, View, bits_to_int, board_outputs,
    check_replay_determinism, check_symmetry, compute_view, domain_size,
    enumerate_inputs, eq_two_bit_protocol, int_to_bits, measure_cost,
    random_truth_table, run_protocol, xor_bits,
)
from nofmux import core
from nofmux.core import MessageRecord, _record


# ---------------------------------------------------------------------------
# bits
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2 ** 20 - 1),
       st.integers(min_value=20, max_value=32))
def test_bits_roundtrip(value, width):
    assert bits_to_int(int_to_bits(value, width)) == value


def test_int_to_bits_rejects_overflow():
    with pytest.raises(DomainError):
        int_to_bits(4, 2)


@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
def test_xor_bits_matches_integer_xor(a, b):
    assert bits_to_int(xor_bits(int_to_bits(a, 8), int_to_bits(b, 8))) == a ^ b


def test_xor_bits_rejects_unequal_lengths():
    with pytest.raises(DomainError) as err:
        xor_bits("01", "011")
    assert str(err.value) == "xor of unequal lengths 2 and 3"


@given(st.integers(min_value=0, max_value=40).flatmap(
    lambda width: st.tuples(*[st.text("01", min_size=width,
                                      max_size=width)] * 2)))
def test_xor_bits_matches_per_character_reference(pair):
    """Leading zeros and the empty string keep their width."""
    a, b = pair
    reference = "".join("1" if x != y else "0" for x, y in zip(a, b))
    assert xor_bits(a, b) == reference
    assert xor_bits("", "") == ""


# ---------------------------------------------------------------------------
# input matrices
# ---------------------------------------------------------------------------

@given(st.integers(min_value=2, max_value=4),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3),
       st.data())
def test_input_matrix_index_roundtrip(k, n, ell, data):
    idx = data.draw(st.integers(min_value=0,
                                max_value=domain_size(k, n, ell) - 1))
    x = InputMatrix.from_index(idx, k, n, ell)
    assert x.index == idx
    assert InputMatrix.from_index(x.index, k, n, ell) == x


def test_from_index_equals_public_constructor():
    """from_index skips the constructor's checks, so it must build what
    the checked constructor builds, on every index."""
    k, n, ell = 3, 2, 2
    for idx in range(domain_size(k, n, ell)):
        x = InputMatrix.from_index(idx, k, n, ell)
        assert x == InputMatrix(ell, k, n, x.rows)
        assert x.index == idx


def _sliced(idx, k, n, ell):
    """The decoder that ``from_index`` had before its table of rows: one
    bit string for the whole matrix, cut into entries."""
    flat = int_to_bits(idx, k * n * ell)
    return tuple(
        tuple(flat[(i * k + j) * n:(i * k + j + 1) * n] for j in range(k))
        for i in range(ell))


# (7, 2, 1) has 14-bit rows, above the table's cap: it keeps the slicing
@pytest.mark.parametrize("k, n, ell", [(2, 1, 1), (5, 1, 3), (3, 2, 2),
                                       (4, 3, 1), (2, 0, 3), (7, 2, 1)])
def test_from_index_matches_the_slicing_decoder(k, n, ell):
    for idx in range(domain_size(k, n, ell)):
        x = InputMatrix.from_index(idx, k, n, ell)
        assert x.rows == _sliced(idx, k, n, ell)
        assert (x.ell, x.k, x.n, x.index) == (ell, k, n, idx)


def test_a_shape_above_the_row_table_cap_is_tested():
    assert 7 * 2 > core._ROW_TABLE_BITS >= 5 * 2


@pytest.mark.parametrize("k, n, ell", [(5, 1, 3), (3, 2, 2), (7, 2, 1)])
def test_from_index_rejects_an_out_of_range_index(k, n, ell):
    """An index outside [0, 2^(k n ell)) raises the slicing decoder's
    DomainError, with its message."""
    width = k * n * ell
    for idx in (-1, -(1 << width), 1 << width, (1 << width) + 5):
        with pytest.raises(DomainError) as want:
            _sliced(idx, k, n, ell)
        with pytest.raises(DomainError) as got:
            InputMatrix.from_index(idx, k, n, ell)
        assert str(got.value) == str(want.value) \
            == f"value {idx} does not fit in {width} bits"


def test_input_matrix_entry_addressing():
    x = InputMatrix(2, 3, 2, (("00", "01", "10"), ("11", "00", "01")))
    assert x.x(1, 2) == "01"
    assert x.x(2, 1) == "11"
    with pytest.raises(DomainError):
        x.x(3, 1)
    with pytest.raises(DomainError):
        x.x(0, 1)


def test_input_matrix_single():
    x = InputMatrix.single("01", "10", "11")
    assert (x.ell, x.k, x.n) == (1, 3, 2)
    assert x.x(1, 3) == "11"


def test_enumerate_inputs_is_exhaustive_and_ordered():
    seen = [x.index for x in enumerate_inputs(2, 1, 2)]
    assert seen == list(range(16))


# ---------------------------------------------------------------------------
# graphs and views
# ---------------------------------------------------------------------------

def test_restriction_graph_neighbors():
    g = RestrictionGraph(4, frozenset({(1, 2), (1, 3), (4, 1)}))
    assert g.neighbors(1) == {2, 3}
    assert g.non_neighbors(1) == {1, 4}
    assert g.neighbors(2) == frozenset()


def test_complete_graph_misses_only_self():
    g = RestrictionGraph.complete(4)
    for i in range(1, 5):
        assert g.non_neighbors(i) == {i}


def test_myopic_graph_visibility():
    g = RestrictionGraph.myopic((3, 1, 2, 4))
    # position 2 is party 1: sees position 1 (party 3) and position 3 (party 2)
    assert g.neighbors(1) == {3, 2}
    # the last position sees all predecessors
    assert g.neighbors(4) == {3, 1, 2}


def test_graph_rejects_self_loops_and_range():
    with pytest.raises(DomainError):
        RestrictionGraph(3, frozenset({(2, 2)}))
    with pytest.raises(DomainError):
        RestrictionGraph(3, frozenset({(1, 4)}))


def test_graph_json_roundtrip():
    g = RestrictionGraph(9, frozenset({(1, 2), (1, 5), (7, 8)}))
    assert RestrictionGraph.from_json(g.to_json()) == g


@pytest.mark.parametrize("data,error", [
    ({"k": 3.9, "edges": []}, "k must be an integer, not 3.9"),
    ({"k": True, "edges": []}, "k must be an integer, not True"),
    ({"k": 3, "edges": [[1, 2.7]]}, "edge endpoint must be an integer, "
                                    "not 2.7"),
    ({"k": 3, "edges": [["1", 2]]}, "edge endpoint must be an integer, "
                                    "not '1'"),
], ids=["float-k", "boolean-k", "float-endpoint", "string-endpoint"])
def test_graph_json_refuses_non_integers(data, error):
    """A graph file's numbers are JSON integers: 3.9 is not read as 3."""
    with pytest.raises(DomainError, match=f"^{re.escape(error)}$"):
        RestrictionGraph.from_json(data)


@pytest.mark.parametrize("data,error", [
    ({"k": 2, "n": 1, "values": [0.5, 1, 1, 0]},
     "truth table entry must be an integer, not 0.5"),
    ({"k": 2, "n": 1, "values": [1.0, 1, 1, 0]},
     "truth table entry must be an integer, not 1.0"),
    ({"k": 2, "n": 1, "values": [True, 1, 1, 0]},
     "truth table entry must be an integer, not True"),
    ({"k": True, "n": 2, "values": [0, 1, 1, 0]},
     "k must be an integer, not True"),
    ({"k": 2, "n": 1.0, "values": [0, 1, 1, 0]},
     "n must be an integer, not 1.0"),
], ids=["half-entry", "float-entry", "boolean-entry", "boolean-k",
        "float-n"])
def test_truth_table_json_refuses_non_integers(data, error):
    """0.5 is not read as 0, nor true as 1."""
    with pytest.raises(DomainError, match=f"^{re.escape(error)}$"):
        TruthTable.from_json(data)
    assert TruthTable.from_json({"k": 2, "n": 1, "values": [0, 1, 1, 0]}) \
        == TruthTable(2, 1, (0, 1, 1, 0))


def test_view_denies_invisible_parties():
    v = View(2, {1: "01", 3: "10"})
    assert v[1] == "01"
    with pytest.raises(LegalityError):
        v[2]
    with pytest.raises(LegalityError):
        View(1, {1: "00"})


def test_view_reads_are_dict_reads():
    """A visible read is a C-level dict lookup, not a Python method; only a
    miss reaches ``__missing__``."""
    assert View.__getitem__ is dict.__getitem__
    assert View.__contains__ is dict.__contains__
    assert View.items is dict.items


VIEW_WRITES = {
    "setitem": lambda v: v.__setitem__(2, "11"),
    "setitem-visible": lambda v: v.__setitem__(1, "11"),
    "delitem": lambda v: v.__delitem__(1),
    "ior": lambda v: v.__ior__({2: "11"}),
    "clear": lambda v: v.clear(),
    "pop": lambda v: v.pop(1),
    "popitem": lambda v: v.popitem(),
    "setdefault": lambda v: v.setdefault(2, "11"),
    "update": lambda v: v.update({2: "11"}),
    "update-kwargs": lambda v: v.update(x="11"),
}


@pytest.mark.parametrize("write", VIEW_WRITES.values(), ids=list(VIEW_WRITES))
def test_view_is_read_only(write):
    v = View(2, {1: "01", 3: "10"})
    with pytest.raises(TypeError, match="^a View is read-only$"):
        write(v)
    assert v == View(2, {1: "01", 3: "10"}) and list(v) == [1, 3]
    assert v.owner == 2 and v.parties() == frozenset({1, 3})


def test_view_equality_names_the_owner():
    v = View(2, {1: "01"})
    assert v == View(2, {1: "01"}) and not v != View(2, {1: "01"})
    assert v != View(3, {1: "01"}) and not v == View(3, {1: "01"})
    assert v != {1: "01"} and {1: "01"} != v
    assert repr(v) == "View(owner=2, visible={1: '01'})"


def test_a_rule_cannot_write_the_kept_views():
    """Views are pooled per spec and shared by every run; a rule that tries
    each write on its view is refused every time, so each run, and each
    pooled view, is what it would be without the attempts."""
    spec = eq_two_bit_protocol(3, 2)

    def next_message(p, t, views, inbox, board):
        for write in VIEW_WRITES.values():
            with pytest.raises(TypeError):
                write(views[1])
        return spec.next_message(p, t, views, inbox, board)

    writing = dataclasses.replace(spec, next_message=next_message)
    for idx in range(domain_size(spec.k, spec.n, spec.ell)):
        x = InputMatrix.from_index(idx, spec.k, spec.n)
        assert run_protocol(writing, x) == run_protocol(spec, x)
    table, pool = writing._memo["views"]
    assert (len(table), len(pool)) == (64, 3 * 2 ** 4)
    for (p, seen), view in pool.items():
        assert view == View(p, zip(writing._seen[p - 1], seen))


def test_projection_is_kept_and_a_hidden_one_raises_every_time():
    """A projection is kept by the identity of its reads tuple: a hit is
    the same view, an equal but distinct tuple or another owner gets a
    correct projection, and a hidden read is never kept."""
    v = View(2, {1: "01", 3: "10"})
    reads = ((1, 1), (2, 3))
    seen = v._project(3, reads)
    assert seen == View(3, {1: "01", 2: "10"})
    assert v._project(3, reads) is seen
    equal = tuple(list(reads))
    assert equal is not reads and v._project(3, equal) == seen
    assert v._project(4, reads) == View(4, {1: "01", 2: "10"})
    with pytest.raises(LegalityError, match="party 1 cannot see its own"):
        v._project(1, reads)
    assert v._project(3, reads) == seen
    hidden = ((3, 3), (2, 2))
    for _ in range(3):
        with pytest.raises(LegalityError, match="party 2 cannot see x_2"):
            v._project(1, hidden)
    with pytest.raises(LegalityError, match="cannot see its own forehead"):
        v._project(1, ((1, 1),))


def _ring(k, n):
    """A silent point-to-point protocol on which each party sees only its
    successor's input."""
    graph = RestrictionGraph(k, frozenset((p, p % k + 1)
                                          for p in range(1, k + 1)))
    return ProtocolSpec(
        name="ring", model=Model.NOF_GRAPH, k=k, n=n, ell=1, rounds=1,
        next_message=lambda p, t, views, inbox, board: [], output_party=1,
        graph=graph, output_rule=lambda views, inbox, board: {1: 0})


def test_view_table_is_kept_only_for_small_specs():
    """A spec keeps its views while both its rows, 2^(k*n), and its
    distinct views, the sum over parties p of 2^(n * |seen_p|), are at
    most 512; any other spec builds them on every run."""
    cases = [  # (spec, rows, distinct views)
        (eq_two_bit_protocol(3, 3), 512, 3 * 2 ** 6),
        (eq_two_bit_protocol(7, 1), 128, 7 * 2 ** 6),
        (eq_two_bit_protocol(9, 1), 512, 9 * 2 ** 8),
        (_ring(5, 2), 1024, 5 * 2 ** 2),
    ]
    for spec, rows, views in cases:
        for idx in range(domain_size(spec.k, spec.n, spec.ell)):
            run_protocol(spec, InputMatrix.from_index(idx, spec.k, spec.n))
        if max(rows, views) > 512:
            assert "views" not in spec._memo, spec.name
            continue
        table, pool = spec._memo["views"]
        assert (len(table), len(pool)) == (rows, views), spec.name
        assert {id(v) for row_views in table.values()
                for v in row_views} == set(map(id, pool.values()))


def test_views_are_interned_by_what_their_party_sees():
    """Rows that show a party the same inputs give it the same View
    object; a row that differs in an input it sees gives it another."""
    spec = eq_two_bit_protocol(3, 2)
    seen = {}

    def next_message(p, t, views, inbox, board):
        seen.setdefault(p, []).append(views[1])
        return spec.next_message(p, t, views, inbox, board)

    recording = dataclasses.replace(spec, next_message=next_message)
    for inputs in (("00", "01", "10"), ("11", "01", "10")):
        run_protocol(recording, InputMatrix.single(*inputs))
    # P_1 does not see x_1; P_2 and P_3 do
    assert seen[1][0] is seen[1][-1]
    for p in (2, 3):
        assert seen[p][0] is not seen[p][-1]
        assert seen[p][0] != seen[p][-1]


def test_compute_view_follows_graph():
    g = RestrictionGraph(3, frozenset({(1, 2), (1, 3)}))
    x = InputMatrix.single("0", "1", "0")
    v = compute_view(g, x, 1, 1)
    assert v[2] == "1" and v[3] == "0"
    assert compute_view(g, x, 1, 2).parties() == frozenset()


# ---------------------------------------------------------------------------
# truth tables
# ---------------------------------------------------------------------------

def test_truth_table_eq():
    f = TruthTable.eq(3, 1)
    assert f.evaluate(("0", "0", "0")) == 1
    assert f.evaluate(("0", "1", "0")) == 0
    assert sum(f.values) == 2  # all-zeros and all-ones


def test_truth_table_json_roundtrip(tmp_path):
    f = TruthTable.eq(2, 2)
    path = tmp_path / "f.json"
    f.save(str(path))
    assert TruthTable.load(str(path)) == f


def test_truth_table_totality_enforced():
    with pytest.raises(DomainError):
        TruthTable(2, 1, (0, 1, 1))


@pytest.mark.parametrize("entry", [True, 1.0, 2])
def test_truth_table_entries_are_int_bits(entry):
    """An entry is the int 0 or 1, so ``evaluate`` never hands back a
    bool that an output rule would pass on."""
    with pytest.raises(DomainError, match="truth table entries must be bits"):
        TruthTable(2, 1, (0, 1, entry, 0))


@pytest.mark.parametrize("build", [
    lambda: TruthTable.eq(5, 5),
    lambda: TruthTable.constant(5, 5, 1),
    lambda: TruthTable.from_function(5, 5, lambda a: 0),
    lambda: random_truth_table(5, 5, seed=0),
], ids=["eq", "constant", "from_function", "random"])
def test_truth_table_builders_share_the_materialization_guard(build):
    """2^25 entries are refused before any is built."""
    with pytest.raises(BudgetError, match=re.escape(
            "2^25 entries exceed the materialization guard")):
        build()


def test_check_symmetry():
    assert check_symmetry(TruthTable.eq(3, 1))
    assert check_symmetry(TruthTable.constant(3, 2, 1))
    # f = x_1 (ignore the rest) is not symmetric
    f = TruthTable.from_function(2, 1, lambda a: int(a[0]))
    assert not check_symmetry(f)
    assert check_symmetry(f, [1, 2])
    assert not check_symmetry(f, [2, 1])


def _symmetric_by_brute_force(f, pi):
    """The reference: f on every argument tuple, as given and permuted by
    pi; ``None`` tries every permutation of [k]."""
    if pi is None:
        return all(_symmetric_by_brute_force(f, sigma) for sigma in
                   itertools.permutations(range(1, f.k + 1)))
    words = ["".join(b) for b in itertools.product("01", repeat=f.n)]
    for args in itertools.product(words, repeat=f.k):
        permuted = tuple(args[pi[i] - 1] for i in range(f.k))
        if f.evaluate(args) != f.evaluate(permuted):
            return False
    return True


def _symmetry_tables(k, n):
    """eq, both constants, a threshold function, seeded random tables, and
    seeded tables symmetric in a random block of parties only."""
    yield TruthTable.eq(k, n)
    yield TruthTable.constant(k, n, 0)
    yield TruthTable.constant(k, n, 1)
    yield TruthTable.from_function(
        k, n, lambda a: int(sum(w.count("1") for w in a) >= k))
    for seed in range(3):
        yield random_truth_table(k, n, seed)
        rng = random.Random(seed)
        block = sorted(rng.sample(range(k), rng.randint(min(k, 2), k)))
        chosen = {}

        def fn(args):
            args = list(args)
            for i, w in zip(block, sorted(args[i] for i in block)):
                args[i] = w
            return chosen.setdefault(tuple(args), rng.randrange(2))
        yield TruthTable.from_function(k, n, fn)


@pytest.mark.parametrize("k, n", [(k, n) for k in range(1, 5)
                                  for n in (1, 2)])
def test_check_symmetry_agrees_with_brute_force(k, n):
    perms = [None] + [list(p) for p in
                      itertools.permutations(range(1, k + 1))]
    for f in _symmetry_tables(k, n):
        for pi in perms:
            assert check_symmetry(f, pi) == _symmetric_by_brute_force(f, pi)


@pytest.mark.parametrize("pi", [[1, 1, 3], [1, 2], [0, 1, 2], [1, 2, 3, 4]])
def test_check_symmetry_rejects_non_permutation(pi):
    with pytest.raises(DomainError, match=r"is not a permutation of \[1,3\]"):
        check_symmetry(TruthTable.eq(3, 1), pi)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _xor_board_protocol(k=3, n=1):
    """Round 1: P_1 writes x_2 xor x_3; round 2: P_2 outputs that bit."""
    def next_message(p, t, views, inbox, board):
        if t == 1 and p == 1:
            return [Outgoing(BOARD, xor_bits(views[1][2], views[1][3]))]
        if t == 2 and p == 2:
            return [Outgoing(BOARD, board[0].payload, tag="out:1")]
        return []

    return ProtocolSpec(
        name="xor-demo", model=Model.NOF_BOARD, k=k, n=n, ell=1, rounds=2,
        next_message=next_message, output_party=1,
        output_rule=lambda views, inbox, board: board_outputs(board, 1),
        pattern=CommPattern({(1, 1, BOARD): n, (2, 2, BOARD): n}, 2))


def test_run_protocol_transcript_and_outputs():
    spec = _xor_board_protocol()
    t = run_protocol(spec, InputMatrix.single("0", "1", "0"))
    assert t.outputs == {1: 1}
    assert t.total_bits == 2
    assert t.payload_bits() == 1  # the out-tagged write is not payload
    assert [r.round for r in t.records] == [1, 2]


@pytest.mark.parametrize("speakers, error", [
    (((1,),), "speaker schedule has 1 rounds, the protocol 2"),
    (((1,), (2,), (1,)), "speaker schedule has 3 rounds, the protocol 2"),
    (((1,), (4,)), "speaker schedule of round 2 is not a set of parties "
                   "in [1,3]: (4,)"),
    (((0, 1), (2,)), "speaker schedule of round 1 is not a set of parties "
                     "in [1,3]: (0, 1)"),
    (((1, 1), (2,)), "speaker schedule of round 1 is not a set of parties "
                     "in [1,3]: (1, 1)"),
])
def test_malformed_speaker_schedule_is_rejected(speakers, error):
    spec = _xor_board_protocol()
    with pytest.raises(DomainError, match=re.escape(error)):
        dataclasses.replace(spec, _speakers=speakers)


def test_runner_asks_only_the_scheduled_parties():
    """The runner asks the scheduled slots alone: a schedule of the real
    speakers keeps the transcript, and one that leaves out the round-1
    writer leaves the board empty for P_2."""
    spec, asked = _xor_board_protocol(), []

    def next_message(p, t, views, inbox, board):
        asked.append((p, t))
        return spec.next_message(p, t, views, inbox, board)

    x = InputMatrix.single("0", "1", "0")
    traced = dataclasses.replace(spec, next_message=next_message)
    scheduled = dataclasses.replace(traced, _speakers=((1,), (2,)))
    assert run_protocol(scheduled, x) == run_protocol(spec, x)
    assert asked == [(1, 1), (2, 2)]
    asked.clear()
    with pytest.raises(IndexError):  # P_2 reads board[0]
        run_protocol(dataclasses.replace(traced, _speakers=((), (2,))), x)
    assert asked == [(2, 2)]


def test_run_protocol_checks_input_shape():
    with pytest.raises(DomainError):
        run_protocol(_xor_board_protocol(), InputMatrix.single("0", "1"))


def test_round_t_messages_cannot_see_round_t():
    """The board passed to a round-t rule holds only earlier rounds."""
    seen = {}

    def next_message(p, t, views, inbox, board):
        if t == 1:
            seen.setdefault(1, len(board))
            return [Outgoing(BOARD, "0")] if p == 1 else []
        seen.setdefault(2, len(board))
        return []

    spec = ProtocolSpec(
        name="probe", model=Model.NOF_BOARD, k=2, n=1, ell=1, rounds=2,
        next_message=next_message, output_party=1,
        output_rule=lambda views, inbox, board: {1: 0})
    run_protocol(spec, InputMatrix.single("0", "1"))
    assert seen == {1: 0, 2: 1}


def test_board_model_rejects_point_to_point():
    def next_message(p, t, views, inbox, board):
        return [Outgoing(2, "0")] if p == 1 else []

    spec = ProtocolSpec(
        name="bad", model=Model.NOF_BOARD, k=2, n=1, ell=1, rounds=1,
        next_message=next_message, output_party=1,
        output_rule=lambda views, inbox, board: {1: 0})
    with pytest.raises(LegalityError):
        run_protocol(spec, InputMatrix.single("0", "1"))


def test_myopic_model_rejects_off_chain_messages():
    def next_message(p, t, views, inbox, board):
        if t == 1 and p == 3:  # party 3 is not position 1
            return [Outgoing(1, "0")]
        return []

    spec = ProtocolSpec(
        name="bad-chain", model=Model.MYOPIC, k=3, n=1, ell=1, rounds=2,
        next_message=next_message, output_party=2, chain=(1, 3, 2),
        output_rule=lambda views, inbox, board: {1: 0})
    with pytest.raises(LegalityError):
        run_protocol(spec, InputMatrix.single("0", "0", "0"))


@pytest.mark.parametrize("rnd, error", [
    (2, "myopic round 2: only 2->3 may carry bits"),
    (4, "myopic round 4: only 4->? may carry bits"),
    (5, "myopic round 5: no bits after round 3"),
])
def test_myopic_model_names_the_round_of_an_illegal_bit(rnd, error):
    """A bit from P_4 to P_1 is illegal in every round, also after round k
    (at ``rnd`` = 5 the chain has no position to look up)."""
    def next_message(p, t, views, inbox, board):
        return [Outgoing(1, "1")] if (p, t) == (4, rnd) else []

    spec = ProtocolSpec(
        name="late-bit", model=Model.MYOPIC, k=4, n=1, ell=1, rounds=5,
        next_message=next_message, output_party=4, chain=(1, 2, 3, 4),
        output_rule=lambda views, inbox, board: {1: 0})
    with pytest.raises(LegalityError) as err:
        run_protocol(spec, InputMatrix.from_index(0, 4, 1))
    assert str(err.value) == error


def _one_round(model, next_message, graph=None):
    return ProtocolSpec(
        name="probe", model=model, k=3, n=2, ell=1, rounds=1,
        next_message=next_message, output_party=1, graph=graph,
        output_rule=lambda views, inbox, board: {1: 0})


@pytest.mark.parametrize("shape, error", [
    (dict(k=1, output_party=1), "k=1, n=2, ell=1, rounds=1"),
    (dict(n=0), "k=3, n=0, ell=1, rounds=1"),
    (dict(ell=0), "k=3, n=2, ell=0, rounds=1"),
    (dict(rounds=-1), "k=3, n=2, ell=1, rounds=-1"),
], ids=["k-1", "n-0", "ell-0", "rounds-negative"])
def test_degenerate_spec_shapes_are_refused(shape, error):
    spec = _one_round(Model.NOF_BOARD, lambda p, t, views, inbox, board: [])
    with pytest.raises(DomainError, match=re.escape(
            "protocol needs k >= 2, n >= 1, ell >= 1 and rounds >= 0, not "
            + error)):
        dataclasses.replace(spec, **shape)
    assert dataclasses.replace(spec, rounds=0).rounds == 0  # still legal


def test_domain_size_refuses_a_negative_shape():
    with pytest.raises(DomainError, match=re.escape(
            "no input domain of shape (2,-1,1)")):
        domain_size(2, -1, 1)
    assert domain_size(2, 0, 1) == 1


@pytest.mark.parametrize("result, error", [
    ([1], "output rule must produce one bit per instance"),
    (None, "output rule must produce one bit per instance"),
    (1, "output rule must produce one bit per instance"),
    ({}, "output rule must produce one bit per instance"),
    ({1: 0, 2: 1}, "output rule must produce one bit per instance"),
    ({1: 2}, "output 2 is not a bit"),
    ({1: True}, "output True is not a bit"),
    ({1: 1.0}, "output 1.0 is not a bit"),
    ({True: 1}, "output rule must produce one bit per instance"),
    ({1.0: 0}, "output rule must produce one bit per instance"),
], ids=["list", "none", "int", "empty", "extra-instance", "two", "bool",
        "float", "bool-key", "float-key"])
def test_runner_refuses_a_malformed_output(result, error):
    spec = dataclasses.replace(
        _one_round(Model.NOF_BOARD, lambda p, t, views, inbox, board: []),
        output_rule=lambda views, inbox, board: result)
    with pytest.raises(DomainError, match=re.escape(error)):
        run_protocol(spec, InputMatrix.single("00", "01", "10"))


def test_runner_rule_reading_own_forehead_is_illegal():
    def next_message(p, t, views, inbox, board):
        return [Outgoing(BOARD, views[1][p])] if p == 2 else []

    spec = _one_round(Model.NOF_BOARD, next_message)
    with pytest.raises(LegalityError, match="party 2 cannot see x_2"):
        run_protocol(spec, InputMatrix.single("00", "01", "10"))


def test_runner_graph_rule_reading_non_neighbor_is_illegal():
    """Party 1 sees only x_2, so its rule may not read x_3."""
    graph = RestrictionGraph(3, frozenset({(1, 2), (2, 1), (3, 1)}))

    def next_message(p, t, views, inbox, board):
        return [Outgoing(2, views[1][3])] if p == 1 else []

    spec = _one_round(Model.NOF_GRAPH, next_message, graph)
    with pytest.raises(LegalityError, match="party 1 cannot see x_3"):
        run_protocol(spec, InputMatrix.single("00", "01", "10"))


def test_runner_rejects_graph_of_other_party_count():
    """A restriction graph over fewer parties than the protocol is rejected
    when the spec is built, before anything runs."""
    graph = RestrictionGraph(2, frozenset({(1, 2), (2, 1)}))
    with pytest.raises(DomainError,
                       match="graph is on 2 parties, the protocol on 3"):
        _one_round(Model.NOF_GRAPH, lambda p, t, views, inbox, board: [],
                   graph)


def test_runner_rejects_non_bit_payload():
    def next_message(p, t, views, inbox, board):
        return [Outgoing(BOARD, "01x")] if p == 1 else []

    spec = _one_round(Model.NOF_BOARD, next_message)
    with pytest.raises(DomainError, match="'01x' is not a bit string"):
        run_protocol(spec, InputMatrix.single("00", "01", "10"))


_ON_BOARD_ONLY = "board protocols may only write on the board"


@pytest.mark.parametrize("model, recipient, payload, exc, error", [
    (Model.NOF_BOARD, BOARD, 1, DomainError, "payload 1 is not a bit string"),
    (Model.NOF_BOARD, BOARD, None, DomainError,
     "payload None is not a bit string"),
    (Model.NOF_BOARD, False, "1", LegalityError, _ON_BOARD_ONLY),
    (Model.NOF_BOARD, 0.0, "1", LegalityError, _ON_BOARD_ONLY),
    (Model.NOF_BOARD, "0", "1", LegalityError, _ON_BOARD_ONLY),
    (Model.NOF_BOARD, None, "1", LegalityError, _ON_BOARD_ONLY),
    (Model.NOF_GRAPH, 2, 1, DomainError, "payload 1 is not a bit string"),
    (Model.NOF_GRAPH, True, "1", LegalityError, "recipient True out of range"),
    (Model.NOF_GRAPH, 2.0, "1", LegalityError, "recipient 2.0 out of range"),
    (Model.NOF_GRAPH, "2", "1", LegalityError, "recipient 2 out of range"),
    (Model.NOF_GRAPH, None, "1", LegalityError, "recipient None out of range"),
    (Model.MYOPIC, 2, b"1", DomainError, "payload b'1' is not a bit string"),
    (Model.MYOPIC, True, "1", LegalityError, "recipient True out of range"),
    (Model.MYOPIC, 2.0, "1", LegalityError, "recipient 2.0 out of range"),
], ids=["board-int-payload", "board-none-payload", "board-false",
        "board-float", "board-str", "board-none", "graph-int-payload",
        "graph-true", "graph-float", "graph-str", "graph-none",
        "myopic-bytes-payload", "myopic-true", "myopic-float"])
def test_runner_refuses_an_ill_typed_message(model, recipient, payload, exc,
                                             error):
    """A payload that is not a str, or a recipient that is not an int,
    fails as a NofmuxError, never as a TypeError or AttributeError, and a
    recipient equal to a party without being an int names none.  Party 1
    may send a bit to party 2 in round 1 in every model here."""
    def next_message(p, t, views, inbox, board):
        return [Outgoing(recipient, payload)] if p == 1 else []

    spec = dataclasses.replace(
        _one_round(Model.NOF_BOARD, next_message), model=model,
        graph=RestrictionGraph.complete(3) if model is Model.NOF_GRAPH
        else None, chain=(1, 2, 3) if model is Model.MYOPIC else None)
    with pytest.raises(NofmuxError) as err:
        run_protocol(spec, InputMatrix.single("00", "01", "10"))
    assert type(err.value) is exc
    assert str(err.value) == error


def test_message_record_checks_its_fields():
    with pytest.raises(DomainError, match="'1x' is not a bit string"):
        MessageRecord(1, 1, BOARD, "1x")
    with pytest.raises(DomainError, match="sender equals recipient"):
        MessageRecord(1, 2, 2, "1")
    with pytest.raises(DomainError, match="'x' is not a bit string"):
        MessageRecord(1, 2, 2, "x")


def test_records_are_tuples_whose_constructor_checks():
    """Records and messages are tuples: equal to plain tuples of their
    fields.  The public constructor checks the payload and the endpoints,
    by position or by keyword (see also the test above); ``_record`` and
    ``_replace`` do not."""
    record = MessageRecord(1, 2, 3, "01", tag="to:3")
    assert record == (1, 2, 3, "01", None, "to:3")
    assert record == _record(1, 2, 3, "01", None, "to:3")
    assert hash(record) == hash(_record(1, 2, 3, "01", None, "to:3"))
    assert type(_record(1, 2, 3, "01")) is MessageRecord
    assert MessageRecord(round=2, sender=1, recipient=BOARD, payload="",
                         protocol=4) == (2, 1, BOARD, "", 4, None)
    assert repr(record) == ("MessageRecord(round=1, sender=2, recipient=3, "
                            "payload='01', protocol=None, tag='to:3')")
    with pytest.raises(DomainError, match="sender equals recipient"):
        MessageRecord(round=1, sender=2, recipient=2, payload="1")
    edited = record._replace(payload="1", recipient=4)
    assert type(edited) is MessageRecord
    assert edited == MessageRecord(1, 2, 4, "1", tag="to:3")
    assert record._replace(recipient=2).recipient == 2  # unchecked
    out = Outgoing(3, "01")
    assert out == (3, "01", None, None)
    assert out._replace(tag="to:3") == Outgoing(3, "01", tag="to:3")
    assert (1, 2, *out) == MessageRecord(1, 2, 3, "01")


def test_input_matrix_rejects_non_bit_entry():
    with pytest.raises(DomainError, match="'0a' is not a bit string"):
        InputMatrix(1, 3, 2, (("00", "0a", "10"),))
    with pytest.raises(DomainError, match="'x' is not a bit string"):
        InputMatrix(1, 2, 1, (("0", "x"),))


@pytest.mark.parametrize("build, error", [
    (lambda: InputMatrix(1, 2, 1, ((1, "0"),)), "entry 1 is not a bit string"),
    (lambda: InputMatrix.single("0", 1), "entry 1 is not a bit string"),
    (lambda: InputMatrix.single(1, "0"), "entry 1 is not a bit string"),
    (lambda: InputMatrix(1, 2, 1, None), "rows None are not a sequence"),
    (lambda: InputMatrix(1, 2, 1, (5,)), "row 5 is not a sequence"),
    (lambda: TruthTable.eq(2, 1).evaluate(("0", 1)),
     "argument 1 is not a bit string"),
    (lambda: TruthTable.eq(2, 1).evaluate(None), "argument shape mismatch"),
])
def test_ill_typed_inputs_fail_as_domain_errors(build, error):
    """An ill-typed entry, row or argument is refused before any len(),
    as a DomainError, never a TypeError."""
    with pytest.raises(DomainError, match=re.escape(error)):
        build()


def test_replay_determinism():
    spec = _xor_board_protocol()
    t = check_replay_determinism(spec, InputMatrix.single("1", "0", "1"))
    assert t.outputs == {1: 1}


def test_pattern_violation_detected():
    """A protocol whose length depends on the input fails its declared LEN."""
    def next_message(p, t, views, inbox, board):
        if t == 1 and p == 1:
            return [Outgoing(BOARD, "1" if views[1][2] == "1" else "11")]
        return []

    spec = ProtocolSpec(
        name="lying", model=Model.NOF_BOARD, k=2, n=1, ell=1, rounds=1,
        next_message=next_message, output_party=1,
        output_rule=lambda views, inbox, board: {1: 0},
        pattern=CommPattern({(1, 1, BOARD): 1}, 1))
    with pytest.raises(ObliviousnessError):
        measure_cost(spec)


def test_measure_cost_worst_case_and_channels():
    report = measure_cost(_xor_board_protocol())
    assert report.worst_case_bits == 2
    assert report.domain_size == 8
    assert report.channel_matrix[(1, BOARD)] == 1
    assert report.per_round == {1: 1, 2: 1}


def test_measure_cost_budget_guard():
    with pytest.raises(BudgetError):
        measure_cost(_xor_board_protocol(), budget=4)


def test_pattern_permuted_relabels_endpoints():
    pat = CommPattern({(1, 3, 1): 2, (2, 1, BOARD): 1}, 2)

    class Swap:
        def __call__(self, i):
            return {1: 2, 2: 1, 3: 3}[i]

    out = pat.permuted(Swap())
    assert out.lengths == {(1, 3, 2): 2, (2, 2, BOARD): 1}


def test_board_outputs_requires_all_instances():
    records = (MessageRecord(2, 1, BOARD, "1", tag="out:1"),)
    assert board_outputs(records, 1) == {1: 1}
    with pytest.raises(DomainError,
                       match="output rule must produce one bit per instance"):
        board_outputs(records, 2)


@pytest.mark.parametrize("records, error", [
    ((MessageRecord(2, 1, BOARD, "1", tag="out:x"),),
     "malformed output record: tag 'out:x', payload '1'"),
    ((MessageRecord(2, 1, BOARD, "10", tag="out:1"),),
     "malformed output record: tag 'out:1', payload '10'"),
    ((MessageRecord(2, 1, BOARD, "1", tag="out:1"),
      MessageRecord(2, 2, BOARD, "0", tag="out:1")),
     "two output records for instance 1"),
], ids=["tag-not-decimal", "two-bit-payload", "second-record"])
def test_board_outputs_refuses_a_malformed_record(records, error):
    with pytest.raises(DomainError, match=re.escape(error)):
        board_outputs(records, 1)
