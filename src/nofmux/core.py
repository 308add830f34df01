"""Protocol models, deterministic execution and communication patterns.

Three models are supported:

* ``NOF_BOARD``  -- k parties, each missing its own forehead input, writing
  bits on a shared board.
* ``NOF_GRAPH``  -- point-to-point channels; a restriction graph says which
  inputs each party sees.
* ``MYOPIC``     -- one-way chain ordered by a permutation; position i sees
  the predecessors' inputs and its successor's input.

Bit strings are plain ``str`` of '0'/'1', most-significant bit first.
Party and instance indices are 1-based.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property
from enum import Enum
from typing import NamedTuple

BOARD = 0  # recipient id for shared-board writes

DEFAULT_BUDGET = 2 ** 24

_TABLE_BITS = 24  # a truth table has at most 2^24 entries


class NofmuxError(Exception):
    """Base class for all workbench errors."""


class DomainError(NofmuxError):
    """Out-of-range index, shape mismatch, or violated precondition."""


class LegalityError(NofmuxError):
    """A rule tried to read an input its party cannot see, or sent an
    illegal message for its model."""


class DeterminismError(NofmuxError):
    """Two replays of the same protocol on the same input diverged."""


class ObliviousnessError(NofmuxError):
    """Realized message lengths do not match the declared pattern."""


class BudgetError(NofmuxError):
    """An exhaustive sweep would exceed the configured budget."""


class CertificateError(NofmuxError):
    """A combinatorial certificate failed validation."""


class RobustnessError(NofmuxError):
    """Protocols offered for combining do not share a communication pattern
    up to the claimed permutation."""


class SoundnessError(NofmuxError):
    """A compiled protocol's reconstruction step read an unavailable value
    or failed to decode; must never fire on a valid certificate."""


# ---------------------------------------------------------------------------
# bits
# ---------------------------------------------------------------------------

def int_to_bits(value: int, width: int) -> str:
    if value < 0 or value >= 1 << width:
        raise DomainError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b") if width else ""


def bits_to_int(bits: str) -> int:
    return int(bits, 2) if bits else 0


def xor_bits(a: str, b: str) -> str:
    if len(a) != len(b):
        raise DomainError(f"xor of unequal lengths {len(a)} and {len(b)}")
    return format(int(a, 2) ^ int(b, 2), "b").zfill(len(a)) if a else ""


def _check_bits(payload: str) -> None:
    if payload.strip("01"):
        raise DomainError(f"payload {payload!r} is not a bit string")


def _json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer, an int that is not a bool; else
    DomainError naming the field.  Every integer read from a file passes
    here, so 2.5 or true is refused, not truncated."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, not {value!r}")
    return value


def _check_table_size(k: int, n: int) -> None:
    """The materialization guard of every built truth table: more than
    2^24 entries raise BudgetError before any is built."""
    if k * n > _TABLE_BITS:
        raise BudgetError(f"2^{k * n} entries exceed the materialization "
                          f"guard")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictionGraph:
    """Directed simple graph over [k]; edge (i, j) means P_i sees x_j."""

    k: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise DomainError("party count must be at least 2")
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        for i, j in self.edges:
            if i == j:
                raise DomainError(f"self-loop ({i},{i}) not allowed")
            if not (1 <= i <= self.k and 1 <= j <= self.k):
                raise DomainError(f"edge ({i},{j}) outside [1,{self.k}]")

    def neighbors(self, i: int) -> frozenset[int]:
        return frozenset(j for a, j in self.edges if a == i)

    def non_neighbors(self, i: int) -> frozenset[int]:
        return frozenset(range(1, self.k + 1)) - self.neighbors(i)

    @classmethod
    def complete(cls, k: int) -> "RestrictionGraph":
        return cls(k, frozenset((i, j) for i in range(1, k + 1)
                                for j in range(1, k + 1) if i != j))

    @classmethod
    def myopic(cls, order: Sequence[int]) -> "RestrictionGraph":
        """Visibility of a myopic chain: position i sees positions < i and i+1."""
        k = len(order)
        edges = set()
        for pos in range(1, k + 1):
            p = order[pos - 1]
            for prev in range(1, pos):
                edges.add((p, order[prev - 1]))
            if pos < k:
                edges.add((p, order[pos]))
        return cls(k, frozenset(edges))

    def to_json(self) -> dict:
        return {"k": self.k, "edges": sorted([i, j] for i, j in self.edges)}

    @classmethod
    def from_json(cls, data: Mapping) -> "RestrictionGraph":
        return cls(_json_int(data["k"], "k"), frozenset(
            (_json_int(i, "edge endpoint"), _json_int(j, "edge endpoint"))
            for i, j in data["edges"]))


@dataclass(frozen=True)
class InputMatrix:
    """ell x k matrix of n-bit inputs; entry (i, j) sits on P_j's forehead
    in instance i."""

    ell: int
    k: int
    n: int
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.ell:
            raise DomainError("row count does not match instance count")
        for row in self.rows:
            if len(row) != self.k:
                raise DomainError("row width does not match party count")
            for entry in row:
                if len(entry) != self.n:
                    raise DomainError(f"entry {entry!r} is not {self.n} bits")
                _check_bits(entry)

    def x(self, instance: int, party: int) -> str:
        if not (1 <= instance <= self.ell and 1 <= party <= self.k):
            raise DomainError(f"index ({instance},{party}) out of range")
        return self.rows[instance - 1][party - 1]

    @property
    def index(self) -> int:
        """Concatenation x_{1,1}||...||x_{ell,k}, MSB first, as an integer."""
        return bits_to_int("".join(itertools.chain.from_iterable(self.rows)))

    @classmethod
    def from_index(cls, idx: int, k: int, n: int, ell: int = 1) -> "InputMatrix":
        width = k * n
        if width > _ROW_TABLE_BITS or not 0 <= idx < 1 << width * ell:
            flat = int_to_bits(idx, width * ell)  # raises when out of range
            rows = tuple(
                tuple(flat[(i * k + j) * n:(i * k + j + 1) * n]
                      for j in range(k)) for i in range(ell))
        else:
            table, mask = _row_table(k, n), (1 << width) - 1
            rows = tuple([table[idx >> width * i & mask]
                          for i in range(ell - 1, -1, -1)])
        # the shape and the bits hold by construction: skip __post_init__
        x = object.__new__(cls)
        vars(x).update(ell=ell, k=k, n=n, rows=rows)
        return x

    @classmethod
    def single(cls, *inputs: str) -> "InputMatrix":
        """Single-instance matrix from the inputs x_1, ..., x_k."""
        if not inputs:
            raise DomainError("need at least one input")
        return cls(1, len(inputs), len(inputs[0]), (tuple(inputs),))


_ROW_TABLE_BITS = 12  # narrower rows are read from a table of all rows


@cache
def _row_table(k: int, n: int) -> tuple[tuple[str, ...], ...]:
    """Entry v: the row of k n-bit inputs whose concatenation is v (the
    product's order), made of 2^n shared strings."""
    return tuple(itertools.product([int_to_bits(v, n) for v in range(1 << n)],
                                   repeat=k))


def domain_size(k: int, n: int, ell: int) -> int:
    if min(k, n, ell) < 0:
        raise DomainError(f"no input domain of shape ({k},{n},{ell})")
    return 1 << (k * n * ell)


def enumerate_inputs(k: int, n: int, ell: int = 1) -> Iterator[InputMatrix]:
    for idx in range(domain_size(k, n, ell)):
        yield InputMatrix.from_index(idx, k, n, ell)


@dataclass(frozen=True)
class TruthTable:
    """Explicit k-argument boolean function over n-bit inputs.

    ``values[v]`` is f at the argument tuple whose concatenation
    x_1||...||x_k, read MSB first, equals v.
    """

    k: int
    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != 1 << (self.k * self.n):
            raise DomainError("truth table is not total")
        if any(type(v) is not int or v not in (0, 1) for v in self.values):
            raise DomainError("truth table entries must be bits")

    def evaluate(self, args: Sequence[str]) -> int:
        if len(args) != self.k or any(len(a) != self.n for a in args):
            raise DomainError("argument shape mismatch")
        return self.values[bits_to_int("".join(args))]

    @classmethod
    def from_function(cls, k: int, n: int,
                      fn: Callable[[tuple[str, ...]], int]) -> "TruthTable":
        _check_table_size(k, n)
        args_iter = itertools.product(
            ["".join(bits) for bits in itertools.product("01", repeat=n)],
            repeat=k)
        return cls(k, n, tuple(int(fn(tuple(a))) for a in args_iter))

    @classmethod
    def eq(cls, k: int, n: int) -> "TruthTable":
        return cls.from_function(k, n, lambda a: int(len(set(a)) == 1))

    @classmethod
    def constant(cls, k: int, n: int, bit: int) -> "TruthTable":
        _check_table_size(k, n)
        return cls(k, n, (int(bit),) * (1 << (k * n)))

    def to_json(self) -> dict:
        return {"k": self.k, "n": self.n, "values": list(self.values)}

    @classmethod
    def from_json(cls, data: Mapping) -> "TruthTable":
        return cls(_json_int(data["k"], "k"), _json_int(data["n"], "n"),
                   tuple(_json_int(v, "truth table entry")
                         for v in data["values"]))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path: str) -> "TruthTable":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


class View:
    """The inputs one party sees in one instance.

    Reading a party that is not visible raises LegalityError, so a
    next-message rule physically cannot peek at its own forehead.  A view
    is immutable, so it keeps the projections made from it.
    """

    __slots__ = ("owner", "_visible", "_projections")

    def __init__(self, owner: int, visible: Mapping[int, str]):
        if owner in visible:
            raise LegalityError(f"party {owner} cannot see its own forehead")
        self.owner = owner
        self._visible = dict(visible)
        self._projections = {}

    @classmethod
    def _of(cls, owner: int, visible: dict[int, str]) -> "View":
        """A view that takes ``visible``, a fresh dict without ``owner``,
        as it is."""
        view = cls.__new__(cls)
        view.owner, view._visible, view._projections = owner, visible, {}
        return view

    def __getitem__(self, party: int) -> str:
        try:
            return self._visible[party]
        except KeyError:
            raise LegalityError(
                f"party {self.owner} cannot see x_{party}") from None

    def __contains__(self, party: int) -> bool:
        return party in self._visible

    def _project(self, owner: int,
                 reads: Sequence[tuple[int, int]]) -> "View":
        """``owner``'s view with x_q read from this view's x_src for each
        (q, src) in ``reads``; a hidden src raises the LegalityError that
        reading it would, on every call.  The result is kept per (owner,
        reads)."""
        key = (owner, reads)
        view = self._projections.get(key)
        if view is not None:
            return view
        visible = self._visible
        try:
            projected = {q: visible[src] for q, src in reads}
        except KeyError as exc:
            raise LegalityError(f"party {self.owner} cannot see "
                                f"x_{exc.args[0]}") from None
        if owner in projected:
            raise LegalityError(f"party {owner} cannot see its own forehead")
        view = self._projections[key] = View._of(owner, projected)
        return view

    def parties(self) -> frozenset[int]:
        return frozenset(self._visible)

    def items(self):
        return self._visible.items()

    def __eq__(self, other) -> bool:
        return (isinstance(other, View) and other.owner == self.owner
                and other._visible == self._visible)

    def __repr__(self) -> str:
        return f"View(owner={self.owner}, visible={self._visible!r})"


Views = Mapping[int, View]  # instance -> View, keyed 1..ell


class _RecordFields(NamedTuple):
    round: int
    sender: int
    recipient: int  # party id, or BOARD
    payload: str
    protocol: int | None = None  # source protocol index in compiled runs
    tag: str | None = None       # free framing metadata, never costed


class MessageRecord(_RecordFields):
    """A tuple, so that records are built, hashed and compared in C.  The
    constructor checks the payload and the endpoints; ``_replace`` does not."""

    __slots__ = ()

    def __new__(cls, round: int, sender: int, recipient: int, payload: str,
                protocol: int | None = None, tag: str | None = None):
        _check_bits(payload)
        if recipient != BOARD and sender == recipient:
            raise DomainError("sender equals recipient")
        return tuple.__new__(cls, (round, sender, recipient, payload,
                                   protocol, tag))


def _record(rnd: int, sender: int, recipient: int, payload: str,
            protocol: int | None = None,
            tag: str | None = None) -> MessageRecord:
    """A MessageRecord whose fields the caller has already checked: it
    skips the constructor's checks."""
    return tuple.__new__(MessageRecord,
                         (rnd, sender, recipient, payload, protocol, tag))


class Outgoing(NamedTuple):
    """A message a rule wants to send this round."""
    recipient: int
    payload: str
    protocol: int | None = None
    tag: str | None = None


@dataclass
class CommPattern:
    """Input-independent message lengths: (round, sender, recipient) -> bits."""

    lengths: dict[tuple[int, int, int], int]
    rounds: int

    def __post_init__(self) -> None:
        self.lengths = {key: int(v) for key, v in self.lengths.items() if v}
        for (t, i, j), v in self.lengths.items():
            if t < 1 or t > self.rounds or v < 0:
                raise DomainError(f"bad pattern entry {(t, i, j)}: {v}")

    def total_bits(self) -> int:
        return sum(self.lengths.values())

    def channel_bits(self, i: int, j: int) -> int:
        return sum(v for (t, a, b), v in self.lengths.items()
                   if a == i and b == j)

    def permuted(self, pi: Callable[[int], int]) -> "CommPattern":
        """LEN_pi(t, i, j) = LEN(t, pi^-1(i), pi^-1(j)); board stays board."""
        def relabel(p: int) -> int:
            return BOARD if p == BOARD else pi(p)
        return CommPattern(
            {(t, relabel(i), relabel(j)): v
             for (t, i, j), v in self.lengths.items()},
            self.rounds)


class Model(Enum):
    NOF_BOARD = "nof-board"
    NOF_GRAPH = "nof-graph"
    MYOPIC = "myopic"


# the runner's checks read these: Model.X goes through a descriptor each time
_ON_BOARD, _MYOPIC = Model.NOF_BOARD, Model.MYOPIC


NextMessageRule = Callable[
    [int, int, Views, tuple[MessageRecord, ...], tuple[MessageRecord, ...] | None],
    Sequence[Outgoing]]
OutputRule = Callable[
    [Views, tuple[MessageRecord, ...], tuple[MessageRecord, ...] | None],
    Mapping[int, int]]


@dataclass(frozen=True)
class ProtocolSpec:
    """An executable deterministic protocol.

    ``next_message(party, round, views, inbox, board)`` returns the party's
    outgoing messages for that round; it is handed exactly the data the model
    lets the party read, so legality holds by construction.  ``output_rule``
    runs for ``output_party`` after the last round and yields one bit per
    instance.
    """

    name: str
    model: Model
    k: int
    n: int
    ell: int
    rounds: int
    next_message: NextMessageRule
    output_party: int
    output_rule: OutputRule
    graph: RestrictionGraph | None = None     # NOF_GRAPH only
    chain: tuple[int, ...] | None = None      # MYOPIC only: (pi(1),...,pi(k))
    pattern: CommPattern | None = None
    # set by the mux engine only: entry t - 1 lists the parties the runner
    # asks in round t, the others being silent by construction; None asks
    # every party.  A field, so that ``dataclasses.replace`` keeps it.
    _speakers: tuple[tuple[int, ...], ...] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 2 or self.n < 1 or self.ell < 1 or self.rounds < 0:
            raise DomainError(f"protocol needs k >= 2, n >= 1, ell >= 1 and "
                              f"rounds >= 0, not k={self.k}, n={self.n}, "
                              f"ell={self.ell}, rounds={self.rounds}")
        if not (1 <= self.output_party <= self.k):
            raise DomainError("output party out of range")
        if self._speakers is not None:
            if len(self._speakers) != self.rounds:
                raise DomainError(f"speaker schedule has "
                                  f"{len(self._speakers)} rounds, the "
                                  f"protocol {self.rounds}")
            for t, parties in enumerate(self._speakers, start=1):
                if (any(not 1 <= p <= self.k for p in parties)
                        or len(set(parties)) != len(parties)):
                    raise DomainError(f"speaker schedule of round {t} is "
                                      f"not a set of parties in "
                                      f"[1,{self.k}]: {parties}")
        if self.model is Model.NOF_GRAPH and self.graph is None:
            raise DomainError("NOF_GRAPH protocol needs a restriction graph")
        if self.graph is not None and self.graph.k != self.k:
            raise DomainError(f"restriction graph is on {self.graph.k} "
                              f"parties, the protocol on {self.k}")
        if self.model is Model.MYOPIC:
            if self.chain is None or sorted(self.chain) != list(range(1, self.k + 1)):
                raise DomainError("MYOPIC protocol needs a chain permutation")

    def visibility(self) -> RestrictionGraph:
        """The effective who-sees-whom graph of this protocol's model."""
        if self.model is Model.NOF_BOARD:
            return RestrictionGraph.complete(self.k)
        if self.model is Model.MYOPIC:
            return RestrictionGraph.myopic(self.chain)
        return self.graph

    @cached_property
    def _seen(self) -> tuple[tuple[int, ...], ...]:
        """Entry p - 1: the parties whose inputs party p sees, in the order
        ``compute_view`` reads them.  This is the one who-sees-whom table
        that the runner, the compilers and legality fuzzing read."""
        graph = self.visibility()
        return tuple(tuple(graph.neighbors(p)) for p in range(1, self.k + 1))

    @cached_property
    def _memo(self) -> dict:
        """Input-independent results derived from this protocol once and
        shared between callers, and ``permute_protocol``'s record of it."""
        return {}


@dataclass(frozen=True)
class Transcript:
    records: tuple[MessageRecord, ...]
    outputs: Mapping[int, int]
    total_bits: int

    def payload_bits(self) -> int:
        """Bits excluding output-distribution writes (records tagged out:*)."""
        return self.costs()[1]

    def costs(self) -> tuple[dict[tuple[int, int, int], int], int]:
        """Bits per (round, sender, recipient), the realized lengths that a
        pattern declares, and ``payload_bits()``, in one pass."""
        lengths: dict[tuple[int, int, int], int] = {}
        payload = 0
        for rnd, sender, recipient, word, _, tag in self.records:
            key = (rnd, sender, recipient)
            lengths[key] = lengths.get(key, 0) + len(word)
            if not (tag and tag.startswith("out:")):
                payload += len(word)
        return lengths, payload


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def compute_view(graph: RestrictionGraph, x: InputMatrix,
                 instance: int, party: int) -> View:
    """What ``party`` sees of ``instance`` under the restriction graph."""
    if not (1 <= party <= graph.k):
        raise DomainError(f"party {party} out of range")
    if not (1 <= instance <= x.ell):
        raise DomainError(f"instance {instance} out of range")
    return View(party, {j: x.x(instance, j) for j in graph.neighbors(party)})


def _messages(spec: ProtocolSpec, sender: int, rnd: int,
              outs: Sequence[Outgoing]) -> Sequence[Outgoing]:
    """The messages that ``sender``'s rule result ``outs`` sends in round
    ``rnd``, the one legality rule: each is checked in order for the spec's
    model, an empty one is dropped, and a second one on a channel (the
    recipient, or the board's (protocol, tag) pair) or a point-to-point one
    with a protocol or a tag raises LegalityError: only bits, and a board
    channel, carry information.  One message is returned as it is."""
    on_board, myopic = spec.model is _ON_BOARD, spec.model is _MYOPIC
    for recipient, payload, protocol, tag in outs:
        if payload.strip("01"):
            _check_bits(payload)  # raises the bit-string DomainError
        if on_board:
            if recipient == BOARD:
                continue
            raise LegalityError("board protocols may only write on the board")
        if not (1 <= recipient <= spec.k):
            raise LegalityError(f"recipient {recipient} out of range")
        if recipient == sender:
            raise LegalityError("party cannot send to itself")
        if protocol is not None or tag is not None:
            raise LegalityError("a point-to-point message carries no "
                                "protocol or tag")
        if myopic and payload:
            if rnd > spec.k:
                raise LegalityError(f"myopic round {rnd}: no bits after "
                                    f"round {spec.k - 1}")
            if (rnd == spec.k or spec.chain[rnd - 1] != sender
                    or spec.chain[rnd] != recipient):
                raise LegalityError(
                    f"myopic round {rnd}: only {spec.chain[rnd - 1]}->"
                    f"{spec.chain[rnd] if rnd < spec.k else '?'} may carry "
                    f"bits")
    if len(outs) == 1:
        return outs if outs[0][1] else ()
    kept, channels = [], set()
    for out in outs:
        recipient, payload, protocol, tag = out
        if payload:
            channel = (protocol, tag) if on_board else recipient
            if channel in channels:
                where = "on board channel" if on_board else "to party"
                raise LegalityError(f"party {sender} sends two messages "
                                    f"{where} {channel} in round {rnd}")
            channels.add(channel)
            kept.append(out)
    return kept


def _outputs(result, ell: int) -> dict[int, int]:
    """The one output check: ``result`` as {instance: bit} if its keys are
    the ints 1..ell and its values the int 0 or 1, else DomainError."""
    if (type(result) is not dict and not isinstance(result, Mapping)
            or result.keys() != set(range(1, ell + 1))):
        raise DomainError("output rule must produce one bit per instance")
    for u, bit in result.items():
        if type(u) is not int:  # True or 1.0 equals an instance
            raise DomainError("output rule must produce one bit per instance")
        if type(bit) is not int or bit not in (0, 1):
            raise DomainError(f"output {bit!r} is not a bit")
    return dict(result)


def _round_order(r: MessageRecord) -> tuple[int, int, int]:
    return (r.sender, r.protocol or 0, r.recipient)


# a spec with at most this many input rows and this many distinct views
# keeps them all
_VIEW_TABLE_CAP = 512


def run_protocol(spec: ProtocolSpec, x: InputMatrix) -> Transcript:
    """Execute all rounds synchronously and collect the declared outputs.

    Messages sent in round t may depend only on rounds 1..t-1, and pass
    ``_messages``.  Within a round, records are ordered by (sender,
    protocol index, recipient).  Each round asks every party, or only the
    parties of the round's entry in the spec's speaker schedule, if it has
    one.
    Views are those of ``compute_view``, built from the spec's visibility
    table and interned by what their party sees: rows that show a party
    the same inputs give it the same view, along with the projections
    made from it.  A spec whose rows, 2^(k*n), and distinct views, the
    sum over parties p of 2^(n * |seen_p|), are both at most
    ``_VIEW_TABLE_CAP`` keeps them in ``spec._memo`` between runs.  On the
    board every record goes to BOARD, so inboxes are empty; otherwise each
    party's inbox grows by its records of each round.
    """
    if (x.k, x.n, x.ell) != (spec.k, spec.n, spec.ell):
        raise DomainError(
            f"input shape ({x.k},{x.n},{x.ell}) does not match protocol "
            f"({spec.k},{spec.n},{spec.ell})")
    kept = spec._memo.get("views")
    if kept is None:
        kept = ({}, {})  # row -> views by party, (party, seen) -> view
        distinct = sum(1 << (spec.n * len(seen)) for seen in spec._seen)
        if max(1 << (spec.k * spec.n), distinct) <= _VIEW_TABLE_CAP:
            spec._memo["views"] = kept
    table, pool = kept
    by_row = []
    for row in x.rows:
        row_views = table.get(row)
        if row_views is None:
            row_views = []
            for p, seen in enumerate(spec._seen, start=1):
                key = (p, tuple([row[j - 1] for j in seen]))
                view = pool.get(key)
                if view is None:
                    view = pool[key] = View._of(p, dict(zip(seen, key[1])))
                row_views.append(view)
            row_views = table[row] = tuple(row_views)
        by_row.append(row_views)
    # party -> instance -> view: the rows' views transposed
    instances = range(1, spec.ell + 1)
    views = {p: dict(zip(instances, by_party)) for p, by_party
             in enumerate(zip(*by_row) if by_row else [()] * spec.k, 1)}
    on_board = spec.model is _ON_BOARD
    inboxes: dict[int, tuple[MessageRecord, ...]] = dict.fromkeys(views, ())
    records: list[MessageRecord] = []
    next_message, new = spec.next_message, tuple.__new__
    asked = spec._speakers or (tuple(views),) * spec.rounds
    for t in range(1, spec.rounds + 1):
        board = tuple(records) if on_board else None
        round_records: list[MessageRecord] = []
        for p in asked[t - 1]:
            outs = next_message(p, t, views[p], inboxes[p], board)
            if not outs:
                continue
            for out in _messages(spec, p, t, outs):
                # an Outgoing's fields are a record's after round and sender
                round_records.append(new(MessageRecord, (t, p, *out)))
        if len(round_records) > 1:
            round_records.sort(key=_round_order)
        records.extend(round_records)
        if not on_board:
            for r in round_records:
                inboxes[r.recipient] += (r,)
    final = tuple(records)
    outputs = _outputs(spec.output_rule(views[spec.output_party],
                                        inboxes[spec.output_party],
                                        final if on_board else None), spec.ell)
    return Transcript(final, outputs, sum(len(r.payload) for r in final))


def check_replay_determinism(spec: ProtocolSpec, x: InputMatrix) -> Transcript:
    """Run twice; raise DeterminismError if the transcripts differ."""
    first = run_protocol(spec, x)
    second = run_protocol(spec, x)
    if first != second:
        raise DeterminismError(
            f"protocol {spec.name} diverged on replay at input {x.index}")
    return first


def assert_pattern(spec: ProtocolSpec, x: InputMatrix,
                   transcript: Transcript) -> None:
    if spec.pattern is None:
        raise ObliviousnessError(f"protocol {spec.name} declares no pattern")
    realized = transcript.costs()[0]
    if realized != spec.pattern.lengths:
        raise ObliviousnessError(
            f"protocol {spec.name} violates its pattern on input "
            f"index {x.index}: realized {realized}")


def check_symmetry(f: TruthTable, pi: Sequence[int] | None = None) -> bool:
    """True iff f(x) = f(x_pi(1), ..., x_pi(k)) for all inputs.

    ``pi`` is an image array over [k]; ``None`` quantifies over every
    permutation (full symmetry), which holds iff f is invariant under the
    k - 1 adjacent transpositions, since they generate the symmetric group.
    """
    if pi is None:
        ident = list(range(1, f.k + 1))
        return all(
            check_symmetry(f, ident[:i] + [i + 2, i + 1] + ident[i + 2:])
            for i in range(f.k - 1))
    if sorted(pi) != list(range(1, f.k + 1)):
        raise DomainError(f"{pi} is not a permutation of [1,{f.k}]")
    # moved[v]: the index of v's argument tuple permuted by pi, built one
    # n-bit field of v at a time, MSB first; v's field j becomes field i
    # where pi[i] = j (fields counted from 1)
    to_field = {j: i for i, j in enumerate(pi, start=1)}
    moved = [0]
    for j in range(1, f.k + 1):
        shift = f.n * (f.k - to_field[j])
        moved = [w | (b << shift) for w in moved for b in range(1 << f.n)]
    values = f.values
    return all(values[w] == bit for w, bit in zip(moved, values))


def board_outputs(board: Sequence[MessageRecord], ell: int) -> dict[int, int]:
    """Per-instance bits of the ``out:<i>`` records, else DomainError."""
    return _outputs(_board_bits(board), ell)


def _board_bits(board: Sequence[MessageRecord]) -> dict[int, int]:
    """{instance: bit} of the ``out:<i>`` records, for ``_outputs`` to
    check; a malformed or second record raises DomainError."""
    outputs: dict[int, int] = {}
    for r in board:
        if r.tag and r.tag.startswith("out:"):
            u = r.tag[4:]
            if not u.isdecimal() or r.payload not in ("0", "1"):
                raise DomainError(f"malformed output record: tag {r.tag!r}, "
                                  f"payload {r.payload!r}")
            if int(u) in outputs:
                raise DomainError(f"two output records for instance {u}")
            outputs[int(u)] = int(r.payload)
    return outputs
