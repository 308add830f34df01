"""Independent oracles and the exhaustive verification harness.

Nothing here executes protocol machinery to produce an expected value: the
oracle is a direct table lookup.  The harness runs a protocol over its whole
input domain, compares outputs to the oracle, and reports measured costs
against a predicted bound.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .core import (
    BudgetError, DEFAULT_BUDGET, DomainError, InputMatrix, Model,
    ProtocolSpec, Transcript, TruthTable, assert_pattern, bits_to_int,
    domain_size, run_protocol,
)


def oracle_evaluate(f: TruthTable, x: InputMatrix) -> tuple[int, ...]:
    """Per-instance outputs by direct table lookup; no protocol code."""
    if x.k != f.k or x.n != f.n:
        raise DomainError("input shape does not match the truth table")
    results = []
    for row in x.rows:
        results.append(f.values[bits_to_int("".join(row))])
    return tuple(results)


def random_truth_table(k: int, n: int, seed: int) -> TruthTable:
    """Deterministic pseudorandom table; same seed, same table."""
    if k * n > 24:
        raise BudgetError(f"2^{k * n} entries exceed the materialization guard")
    rng = random.Random(seed)
    return TruthTable(k, n, tuple(rng.randrange(2)
                                  for _ in range(1 << (k * n))))


@dataclass(frozen=True)
class Counterexample:
    input_index: int
    instance: int
    protocol_output: int
    expected: int
    rows: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class VerificationReport:
    protocol_name: str
    domain_size: int
    checked: int
    correct: bool
    counterexample: Counterexample | None
    measured_worst_case: int
    measured_worst_payload: int
    predicted_bound: int | None
    per_channel: Mapping[tuple[int, int], int]
    naive_baseline: int | None
    exhaustive: bool = True

    @property
    def savings_realized(self) -> bool:
        return (self.naive_baseline is not None
                and self.measured_worst_case < self.naive_baseline)

    def to_json(self) -> dict:
        data = {
            "protocol": self.protocol_name,
            "domain_size": self.domain_size,
            "checked": self.checked,
            "correct": self.correct,
            "measured_worst_case": self.measured_worst_case,
            "measured_worst_payload": self.measured_worst_payload,
            "predicted_bound": self.predicted_bound,
            "per_channel": {f"{a}->{b}": v
                            for (a, b), v in sorted(self.per_channel.items())},
            "naive_baseline": self.naive_baseline,
            "exhaustive": self.exhaustive,
        }
        if self.counterexample is not None:
            data["counterexample"] = {
                "input_index": self.counterexample.input_index,
                "instance": self.counterexample.instance,
                "protocol_output": self.counterexample.protocol_output,
                "expected": self.counterexample.expected,
                "rows": [list(r) for r in self.counterexample.rows],
            }
        return data

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)


@dataclass(frozen=True)
class CostReport:
    worst_case_bits: int
    channel_matrix: Mapping[tuple[int, int], int]
    per_round: Mapping[int, int]
    domain_size: int


def _domain(spec: ProtocolSpec, budget: int) -> range:
    """The whole input domain; more than ``budget`` inputs raise
    BudgetError.  This is the budget guard of every protocol sweep."""
    size = domain_size(spec.k, spec.n, spec.ell)
    if size > budget:
        raise BudgetError(f"sweeping {spec.name} needs {size} runs, "
                          f"budget is {budget}; pass a larger budget "
                          f"explicitly to proceed")
    return range(size)


def sweep(spec: ProtocolSpec, indices: Iterable[int],
          runs: _Runs | None = None
          ) -> Iterator[tuple[InputMatrix, Transcript]]:
    """Run the protocol on each input index and yield ``(x, transcript)``;
    every run is checked against the declared pattern, if any.  Without a
    table of runs nothing is kept.  With one, an index already in it is not
    run again, and its transcript comes without outputs; a fresh run is
    stored.  Callers guard the size of ``indices``: every full domain comes
    from ``_domain``."""
    for idx in indices:
        x = InputMatrix.from_index(idx, spec.k, spec.n, spec.ell)
        records = None if runs is None else runs.get(idx)
        if records is None:
            t = run_protocol(spec, x)
            if runs is not None:
                runs.keep(idx, t.records)
        else:
            t = Transcript(records, {}, sum(len(r.payload) for r in records))
        if spec.pattern is not None:
            assert_pattern(spec, x, t)
        yield x, t


# a larger domain is spot-checked, not swept: a table would cost it more
_TABLE_CAP = 1 << 16


class _Runs:
    """One protocol's runs by input index, shared by ``measure_cost``, the
    position sweep and ``check_view_legality``, so that an input runs once
    across them, whichever asks first; ``compile_symmetric``'s check of its
    base protocol fills it too.

    ``get(idx)`` is the records of input ``idx``'s transcript, interned by
    value, or None until it runs.  Outputs are not kept: equal records can
    carry different outputs, and no reader of the table needs them.  A run
    that raises is never stored.  For legality, ``parties`` maps an interned
    records tuple, by id, to its per-party rows of per-round (heard, sent)
    ids, split on first use, and ``flips`` holds each party's flip masks.
    """

    def __init__(self, spec: ProtocolSpec, store: list | dict):
        self.store = store
        self.get = store.get if isinstance(store, dict) else store.__getitem__
        self.distinct: dict[tuple, tuple] = {}
        self.parties: dict[int, tuple] = {}
        self.ids: dict[tuple, int] = {}
        self.shared: dict[tuple, tuple] = {}
        self.flips = _flip_masks(spec)

    def keep(self, idx: int, records: tuple) -> tuple:
        """Store input ``idx``'s records, interned; return the stored ones."""
        records = self.store[idx] = self.distinct.setdefault(records, records)
        return records

    def split(self, spec: ProtocolSpec, idx: int,
              x: InputMatrix | None = None) -> tuple:
        """Input ``idx``'s per-party (heard, sent) id rows, running it
        first if it is not stored.  Each party's row is interned, so two
        inputs that look the same to party p give p the same row."""
        records = self.get(idx)
        if records is None:
            y = x or InputMatrix.from_index(idx, spec.k, spec.n, spec.ell)
            records = self.keep(idx, run_protocol(spec, y).records)
        rows = self.parties.get(id(records))
        if rows is None:
            on_board = spec.model is Model.NOF_BOARD
            ids, shared = self.ids, self.shared
            parties = []
            for p in range(1, spec.k + 1):
                heard, sent = _rounds_of(records, p, spec.rounds, on_board)
                pairs = tuple((ids.setdefault(tuple(heard[t - 1]), len(ids)),
                               ids.setdefault(tuple(sent[t]), len(ids)))
                              for t in range(1, spec.rounds + 1))
                parties.append(shared.setdefault(pairs, pairs))
            rows = self.parties[id(records)] = tuple(parties)
        return rows


def _runs(spec: ProtocolSpec) -> _Runs | None:
    """The spec's table of runs, made on first use; a domain of more than
    ``_TABLE_CAP`` inputs keeps none."""
    runs = spec._memo.get("runs")
    if runs is None:
        size = domain_size(spec.k, spec.n, spec.ell)
        if size <= _TABLE_CAP:
            runs = spec._memo["runs"] = _Runs(spec, [None] * size)
    return runs


@dataclass
class _Partial:
    """Costs and first counterexample accumulated over one sweep."""
    checked: int = 0
    worst: int = 0
    worst_payload: int = 0
    channels: dict = field(default_factory=dict)
    counterexample: Counterexample | None = None

    def tally(self, t: Transcript) -> None:
        """Worst-case and per-channel cost accounting of one run."""
        self.checked += 1
        self.worst = max(self.worst, t.total_bits)
        totals, payload = t.costs()
        self.worst_payload = max(self.worst_payload, payload)
        for key, bits in totals.items():
            self.channels[key] = max(self.channels.get(key, 0), bits)

    def report(self, spec: ProtocolSpec, predicted_bound: int | None,
               naive_baseline: int | None, exhaustive: bool
               ) -> VerificationReport:
        return VerificationReport(
            protocol_name=spec.name,
            domain_size=domain_size(spec.k, spec.n, spec.ell),
            checked=self.checked, correct=self.counterexample is None,
            counterexample=self.counterexample,
            measured_worst_case=self.worst,
            measured_worst_payload=self.worst_payload,
            predicted_bound=predicted_bound, per_channel=dict(self.channels),
            naive_baseline=naive_baseline, exhaustive=exhaustive)


def measure_cost(spec: ProtocolSpec, budget: int = DEFAULT_BUDGET) -> CostReport:
    """Worst-case bit cost and per-channel matrix over the full input domain.

    If the protocol declares a pattern, every input is checked against it.
    Runs come from, and go to, the spec's table of runs.
    """
    part, per_round = _Partial(), {}
    for _, t in sweep(spec, _domain(spec, budget), _runs(spec)):
        part.tally(t)
        rounds: dict[int, int] = {}
        for r in t.records:
            rounds[r.round] = rounds.get(r.round, 0) + len(r.payload)
        for rnd, bits in rounds.items():
            per_round[rnd] = max(per_round.get(rnd, 0), bits)
    return CostReport(part.worst, part.channels, per_round,
                      domain_size(spec.k, spec.n, spec.ell))


def exhaustive_verify(spec: ProtocolSpec, f: TruthTable,
                      predicted_bound: int | None = None,
                      naive_baseline: int | None = None,
                      budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Run the protocol on every input and compare against the oracle."""
    return _oracle_sweep(spec, f, lambda: _domain(spec, budget)).report(
        spec, predicted_bound, naive_baseline, exhaustive=True)


def sampled_verify(spec: ProtocolSpec, f: TruthTable, samples: int, seed: int,
                   predicted_bound: int | None = None,
                   naive_baseline: int | None = None) -> VerificationReport:
    """Seeded random sampling; the report is labeled non-exhaustive."""
    rng = random.Random(seed)
    size = domain_size(spec.k, spec.n, spec.ell)
    part = _oracle_sweep(
        spec, f, lambda: [rng.randrange(size) for _ in range(samples)])
    return part.report(spec, predicted_bound, naive_baseline, exhaustive=False)


def _oracle_sweep(spec: ProtocolSpec, f: TruthTable,
                  indices: Callable[[], Iterable[int]],
                  runs: _Runs | None = None) -> _Partial:
    """The one oracle loop: after the shape check, so before ``_domain``'s
    BudgetError, run each index of ``indices()`` fresh, storing its records
    in ``runs`` if given, and compare it with the oracle up to the first
    counterexample."""
    if f.k != spec.k or f.n != spec.n:
        raise DomainError("truth table shape does not match the protocol")
    part = _Partial()
    for x, t in sweep(spec, indices()):
        if runs is not None:
            runs.keep(x.index, t.records)
        part.tally(t)
        for inst, want in enumerate(oracle_evaluate(f, x), start=1):
            if t.outputs[inst] != want:
                part.counterexample = Counterexample(
                    x.index, inst, t.outputs[inst], want, x.rows)
                return part
    return part


class _Positions(NamedTuple):
    """One sweep of a myopic chain, reduced to what its callers keep."""
    messages: tuple[frozenset[str], ...]  # per position, distinct messages
    costs: tuple[tuple[int, ...], ...]    # per input index, per position bits


def _position_sweep(spec: ProtocolSpec, budget: int) -> _Positions:
    """Sweep a myopic chain once and keep, per position, its distinct
    messages, and per input, each position's message length: a legal run
    has one record at most in round t, position t's message.  The result is
    kept on the spec, so ``myopic_combine``, which sweeps every chain for
    legality and reads its prefix checks and block codes here, and the t3
    bound share one sweep per chain; its runs go to the spec's table of
    runs, which ``measure_cost`` reads.  The budget guard runs always."""
    domain = _domain(spec, budget)
    memo = spec._memo
    if "positions" not in memo:
        messages = [set() for _ in range(spec.k - 1)]
        rows: dict[tuple[int, ...], tuple[int, ...]] = {}
        costs = []
        for _, t in sweep(spec, domain, _runs(spec)):
            words = [""] * (spec.k - 1)
            for r in t.records:
                words[r.round - 1] = r.payload
            for found, word in zip(messages, words):
                found.add(word)
            row = tuple(len(w) for w in words)
            costs.append(rows.setdefault(row, row))
        memo["positions"] = _Positions(tuple(map(frozenset, messages)),
                                       tuple(costs))
    return memo["positions"]


def messages_at_position(spec: ProtocolSpec, pos: int,
                         budget: int = DEFAULT_BUDGET) -> frozenset[str]:
    """All distinct payloads a myopic chain emits at one position."""
    if spec.model is not Model.MYOPIC:
        raise DomainError("position messages are defined for myopic chains")
    if not (1 <= pos <= spec.k - 1):
        raise DomainError(f"position {pos} outside [1,{spec.k - 1}]")
    return _position_sweep(spec, budget).messages[pos - 1]


def is_prefix_free(messages: frozenset[str]) -> bool:
    """No message a proper prefix of another; singleton and empty sets pass."""
    msgs = sorted(messages, key=len)
    for i, short in enumerate(msgs):
        for long in msgs[i + 1:]:
            if len(long) > len(short) and long.startswith(short):
                return False
    return True


def check_prefix_free(spec: ProtocolSpec, pos: int,
                      budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the chain's position-``pos`` message set is prefix-free."""
    return is_prefix_free(messages_at_position(spec, pos, budget))


def _rounds_of(records: tuple, p: int, rounds: int, on_board: bool
               ) -> tuple[list[list], list[list]]:
    """Per round (entry t, 1-based), the records party p perceives arriving
    in it -- all of them on the board -- and the records p sends in it."""
    heard = [[] for _ in range(rounds + 1)]
    sent = [[] for _ in range(rounds + 1)]
    for r in records:
        if on_board or r.recipient == p:
            heard[r.round].append(r)
        if r.sender == p:
            sent[r.round].append(r)
    return heard, sent


def _flip_masks(spec: ProtocolSpec) -> tuple[tuple[tuple, ...], ...]:
    """Entry p - 1: ``(mask, i, j, bit)`` for each input bit party p cannot
    see, in the order legality checks them; a flipped input's index is the
    input's index XOR ``mask``."""
    k, n, ell = spec.k, spec.n, spec.ell
    width = k * n * ell
    flips = []
    for p, seen in enumerate(spec._seen, start=1):
        invisible = [(i, j) for i in range(1, ell + 1)
                     for j in range(1, k + 1)
                     if j != p and j not in seen] + \
                    [(i, p) for i in range(1, ell + 1)]
        flips.append(tuple(
            (1 << (width - 1 - ((i - 1) * k + j - 1) * n - bit), i, j, bit)
            for (i, j) in invisible for bit in range(n)))
    return tuple(flips)


def check_view_legality(spec: ProtocolSpec, x: InputMatrix) -> None:
    """Bit-flip fuzzing: flipping a bit invisible to party p must not change
    what p sends, as long as p's perceived state is unchanged.

    For every party p and every input bit p cannot see, compares p's
    outgoing messages on the input and on the flipped input round by round,
    stopping at the first round where p's inbox or the board (p's perceived
    state) diverges -- after that point changes are legitimate reactions.

    Runs come from the spec's table of runs, which ``measure_cost`` and the
    position sweep share.  An index runs the first time any of them needs
    it, here as base or as flip (its index XOR one bit), so each input of a
    full domain runs once.  Its records are split once per party into
    per-round (heard, sent) record lists interned to ids.  A domain of more
    than ``_TABLE_CAP`` inputs keeps no table: each call runs its base and
    each distinct flip once.
    """
    if (x.k, x.n, x.ell) != (spec.k, spec.n, spec.ell):
        run_protocol(spec, x)  # raises the runner's shape DomainError
    runs = _runs(spec) or _Runs(spec, {})
    get, parties, split = runs.get, runs.parties, runs.split
    idx = x.index
    base = split(spec, idx, x)
    for p, flips in enumerate(runs.flips, start=1):
        mine = base[p - 1]
        for mask, i, j, bit in flips:
            flip = idx ^ mask
            # an input not yet run is None, whose id is never a key
            theirs = (parties.get(id(get(flip))) or split(spec, flip))[p - 1]
            if theirs is mine:
                continue
            for t, ((heard, sent), (heard2, sent2)) in enumerate(
                    zip(mine, theirs), start=1):
                # p's perceived state before round t: rounds < t - 1
                # already matched, so only round t - 1 is compared
                if heard != heard2:
                    break
                if sent != sent2:
                    raise DomainError(
                        f"{spec.name}: party {p} reacted to invisible "
                        f"bit ({i},{j},{bit}) in round {t}")
