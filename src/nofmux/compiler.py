"""Multiplexing transformations: permuted protocols, the general combiner,
the symmetric-function pipeline, and the myopic one-way combiner, all
built on one XOR-multiplexing engine.

A compiled protocol is an ordinary NOF board protocol.  Each party honestly
reconstructs any message that was XOR-combined for it: it recomputes the
other combined messages from inputs it sees plus plainly-boarded history,
and strips them off the block.  A failed reconstruction raises
SoundnessError; it cannot happen when the certificate validates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .combinatorics import (
    BindingTriplet, FilteringTriplet, MatrixA, Permutation, _check_shape,
    build_matrix_a, filtering_to_multiplexing, is_multiplexing_set,
    is_repetitive_set, permute_graph,
)
from .core import (
    BOARD, BudgetError, CertificateError, CommPattern, DEFAULT_BUDGET,
    DomainError, LegalityError, Model, ObliviousnessError,
    Outgoing, ProtocolSpec, RestrictionGraph, RobustnessError,
    SoundnessError, TruthTable, _messages, _record,
    board_outputs, check_symmetry, xor_bits,
    run_protocol,  # not called here: bench/tracing.py patches it as a span
)
from .verifier import (_domain, _oracle_sweep, _position_sweep, _runs,
                       check_prefix_free, messages_at_position)


class Bound(NamedTuple):
    """Predicted worst-case bits: payload plus output distribution."""
    total: int
    payload: int


@dataclass(frozen=True)
class CompilationPlan:
    """Everything the combiners need, plus enough to predict the bound.

    ``path`` is one of t1 (general multiplexing), t2 (symmetric-function
    pipeline), t3 (myopic, possibly non-oblivious), c2 (the same as t3).
    """

    path: str
    ell: int
    perms: tuple[Permutation, ...]
    protocols: tuple[ProtocolSpec, ...]
    certificate: tuple
    graph: RestrictionGraph | None = None
    PATHS = ("t1", "t2", "t3", "c2")  # a class attribute, not a field

    def __post_init__(self) -> None:
        if self.path not in self.PATHS:
            raise DomainError(f"unknown theorem path {self.path!r}")
        if not (len(self.perms) == len(self.protocols) == self.ell > 0):
            raise DomainError("plan needs one permutation and one protocol "
                              "per instance")
        # a t2 plan holds the multiplexing set converted from its filtering set
        kind = "multiplexing" if self.path in ("t1", "t2") else "repetitive"
        _check_shape(kind, self.protocols[0].k, self.certificate, self.perms,
                     self.ell)


# ---------------------------------------------------------------------------
# permuted protocols and pattern robustness
# ---------------------------------------------------------------------------

def permute_protocol(spec: ProtocolSpec, pi: Permutation) -> ProtocolSpec:
    """pi(Q): party i plays pi^-1(i)'s role, so the message i -> j on x
    equals Q's message pi^-1(i) -> pi^-1(j) on pi^-1(x)."""
    if spec.model is not Model.NOF_GRAPH or spec.ell != 1:
        raise DomainError("only single-instance point-to-point protocols "
                          "can be permuted")
    graph = permute_graph(spec.graph, pi)  # rejects pi of another arity
    to_orig = (0,) + pi.inverse().image
    # original party -> (q, pi(q)) for each q it sees
    sees = {orig: tuple((q, pi(q)) for q in seen)
            for orig, seen in enumerate(spec._seen, start=1)}

    def original_inbox(orig, inbox):
        # relabelled checked records: to_orig is a bijection, so the
        # sender still differs from the recipient
        return tuple(_record(r.round, to_orig[r.sender], orig, r.payload,
                             r.protocol, r.tag) for r in inbox)

    def next_message(p, t, views, inbox, board):
        orig = to_orig[p]
        outs = spec.next_message(
            orig, t, {1: views[1]._project(orig, sees[orig])},
            original_inbox(orig, inbox) if inbox else (), None)
        return [Outgoing(pi(o.recipient), o.payload, o.protocol, o.tag)
                for o in outs] if outs else []

    def output_rule(views, inbox, board):
        orig = spec.output_party
        return spec.output_rule({1: views[1]._project(orig, sees[orig])},
                                original_inbox(orig, inbox), None)

    return ProtocolSpec(
        name=f"{spec.name}@{pi.image}", model=Model.NOF_GRAPH, k=spec.k,
        n=spec.n, ell=1, rounds=spec.rounds, next_message=next_message,
        output_party=pi(spec.output_party), output_rule=output_rule,
        graph=graph,
        pattern=None if spec.pattern is None else spec.pattern.permuted(pi))


def check_pattern_robust(base: ProtocolSpec, other: ProtocolSpec,
                         pi: Permutation) -> bool:
    """True iff the two declared patterns agree up to relabeling by pi."""
    if base.pattern is None or other.pattern is None:
        raise ObliviousnessError("pattern robustness needs declared patterns "
                                 "on both protocols")
    return other.pattern == base.pattern.permuted(pi)


# ---------------------------------------------------------------------------
# the XOR-multiplexing engine shared by every theorem path
# ---------------------------------------------------------------------------

class _Group(NamedTuple):
    """Same-sender messages written as one XOR block; ``codes`` holds each
    instance's public prefix-free code (t3/c2), or None for exact blocks."""
    sender: int
    components: tuple[tuple[int, int], ...]  # (instance, recipient)
    codes: dict[int, frozenset[str]] | None = None


def _mux_engine(name: str, protos: tuple[ProtocolSpec, ...],
                groups: Sequence[_Group], rounds: int) -> ProtocolSpec:
    """Run the single-instance protocols round-synchronously on the board.

    A message that a group lists is XORed, zero-padded to the longest in
    its round, into the group's block; every other message is written
    plainly.  A recipient of a block recomputes the other components from
    the sender's view and plainly-boarded history and strips them off.  A
    group without codes (t1/t2) needs all components to fill the block; a
    group with codes (t3/c2) leaves the recipient the unique prefix of the
    zero-padded rest that lies in its instance's code.  Every instance
    rule's result passes the runner's legality rule, ``_messages``, under
    its own protocol's model before it is boarded or staged.

    The demux schedule is fixed here, once: which board records feed each
    (instance, party) inbox, which instances each party runs in each round,
    which components each block recipient recomputes, and every framing
    tag.
    """
    k, n, ell = protos[0].k, protos[0].n, len(protos)
    # (j, j) for each j whose input party p sees in instance u
    reads = {(u, p): tuple((j, j) for j in seen)
             for u, q in enumerate(protos, start=1)
             for p, seen in enumerate(q._seen, start=1)}
    # (instance, party) pairs whose base graph hides nothing more from the
    # party than the board does: its own view passes through unchanged
    whole = {key for key, pairs_read in reads.items()
             if len(pairs_read) == k - 1}
    # framing tags: to:<recipient>, mux:<group> and out:<instance>
    to_tags = {p: f"to:{p}" for p in range(1, k + 1)}
    mux_tags = [f"mux:{gi}" for gi in range(len(groups))]
    out_tags = {u: f"out:{u}" for u in range(1, ell + 1)}
    consumed = {(u, g.sender, rcpt): gi for gi, g in enumerate(groups)
                for (u, rcpt) in g.components}
    # (protocol, tag) of a board record -> the (instance, party, group)
    # inboxes it feeds; a plain record has no group
    feeds = {(u, to_tags[p]): ((u, p, None),)
             for u in range(1, ell + 1) for p in range(1, k + 1)}
    for gi, g in enumerate(groups):
        feeds[None, mux_tags[gi]] = tuple(
            (u, p, gi) for u, p in dict.fromkeys(g.components))
    # the components recipient ``p`` recomputes to strip block gi
    others = {(gi, c): tuple(d for d in g.components if d != c)
              for gi, g in enumerate(groups) for c in g.components}
    # (u, protocol u, whether (u, p) is whole) for each instance u that
    # party p runs in round t: all, but a myopic chain only at position t;
    # no record hides elsewhere, as myopic_combine sweeps every chain
    active = {(t, p): tuple((u, q, (u, p) in whole)
                            for u, q in enumerate(protos, start=1)
                            if q.model is not Model.MYOPIC
                            or q.chain[t - 1] == p)
              for t in range(1, rounds + 1) for p in range(1, k + 1)}
    answers = {p: tuple((u, q, (u, p) in whole)
                        for u, q in enumerate(protos, start=1)
                        if q.output_party == p) for p in range(1, k + 1)}
    last = ((), {})  # the last board indexed, and its index

    def index(board):
        """(instance, party) -> [(record, group)] in board order: a plain
        record is the inbox record it becomes, a block the board record.
        A board is immutable, and the runner's next board begins with it,
        so the index of a board that begins with the last one indexed is
        that index extended by the new records."""
        nonlocal last
        known, fed = last
        if board is known:
            return fed
        start = len(known)
        if board[:start] != known:
            fed, start = {}, 0
        for r in board[start:]:
            for u, p, gi in feeds.get((r.protocol, r.tag), ()):
                fed.setdefault((u, p), []).append(
                    (r, gi) if gi is not None
                    else (_record(r.round, r.sender, p, r.payload), None))
        last = (board, fed)
        return fed

    def sub_view(party, u, views):
        """``party``'s view of instance u, from the working party's views."""
        try:
            return views[u]._project(party, reads[u, party])
        except LegalityError as exc:
            raise SoundnessError(
                f"reconstruction needs an input hidden from the "
                f"demultiplexing party: {exc}") from exc

    def recompute(u, sender, recipient, rnd, fed, views):
        """Instance u's round-``rnd`` message sender -> recipient, as the
        demultiplexing party recomputes it; as in ``_messages``, which
        checked this result when it was sent, an empty message is none."""
        history = inbox(sender, u, rnd, fed, views)
        for o in protos[u - 1].next_message(
                sender, rnd, {1: sub_view(sender, u, views)}, history, None):
            if o.recipient == recipient and o.payload:
                return o.payload
        return ""

    def strip(party, u, block, gi, fed, views):
        """``party``'s own instance-u message out of a block."""
        g, width = groups[gi], len(block.payload)
        rest = block.payload
        for (u2, rcpt2) in others[gi, (u, party)]:
            other = recompute(u2, g.sender, rcpt2, block.round, fed, views)
            if len(other) > width or (g.codes is None
                                      and len(other) != width):
                raise SoundnessError("combined messages have unequal "
                                     "lengths")
            rest = xor_bits(rest, other.ljust(width, "0"))
        if g.codes is None:
            return rest
        code = g.codes[u]
        matches = [rest[:i] for i in range(width + 1) if rest[:i] in code]
        if len(matches) != 1:
            raise SoundnessError(
                f"prefix decoding found {len(matches)} candidates")
        if rest[len(matches[0]):].strip("0"):
            raise SoundnessError("nonzero bits past the decoded message")
        return matches[0]

    def inbox(party, u, upto, fed, views, demux=None):
        """Messages ``party`` received in instance u before round
        ``upto``; XOR blocks are stripped only when ``demux`` (``strip``)
        is given.  It is passed, not called by name, so the closures hold
        no reference cycle and a dropped compiled spec is freed at once."""
        entries = fed.get((u, party))
        if not entries:
            return ()
        msgs = []
        for r, gi in entries:
            if r.round >= upto:
                break
            if gi is None:
                record = r
            elif not demux:
                raise SoundnessError(
                    f"history of party {party} in instance {u} was "
                    f"multiplexed; certificate should forbid this")
            else:
                record = _record(r.round, groups[gi].sender, party,
                                 demux(party, u, r, gi, fed, views))
            msgs.append(record)
        return tuple(msgs)

    def next_message(p, t, views, board_inbox, board):
        instances = answers[p] if t > rounds else active[t, p]
        if not instances:
            return ()
        fed = index(board) if board else {}
        if t > rounds:
            outs = []
            for u, q, own in instances:
                bits = q.output_rule(
                    {1: views[u] if own else sub_view(p, u, views)},
                    inbox(p, u, t, fed, views, strip), None)
                outs.append(Outgoing(BOARD, str(bits[1]), u, out_tags[u]))
            return outs
        staged: dict[int, dict[tuple[int, int], str]] = {}
        results = []
        for u, q, own in instances:
            history = inbox(p, u, t, fed, views, strip) if fed else ()
            outs = q.next_message(
                p, t, {1: views[u] if own else sub_view(p, u, views)},
                history, None)
            if not outs:
                continue
            for o in _messages(q, p, t, outs):
                gi = consumed.get((u, p, o.recipient))
                if gi is None:
                    results.append(Outgoing(BOARD, o.payload, u,
                                            to_tags[o.recipient]))
                else:
                    staged.setdefault(gi, {})[u, o.recipient] = o.payload
        for gi, parts in sorted(staged.items()):
            payloads = [parts.get(c, "") for c in groups[gi].components]
            width = max(len(w) for w in payloads)
            if groups[gi].codes is None and any(w and len(w) != width
                                                for w in payloads):
                raise SoundnessError("combined messages have unequal lengths")
            acc = "0" * width
            for w in payloads:
                acc = xor_bits(acc, w.ljust(width, "0"))
            results.append(Outgoing(BOARD, acc, None, mux_tags[gi]))
        return results

    def output_rule(views, board_inbox, board):
        return board_outputs(board, ell)

    pattern = None
    if all(q.pattern is not None for q in protos):
        lengths: dict[tuple[int, int, int], int] = {}
        blocks: dict[tuple[int, int], int] = {}
        for u, q in enumerate(protos, start=1):
            for (t, i, j), v in q.pattern.lengths.items():
                gi = consumed.get((u, i, j))
                if gi is None:
                    lengths[t, i, BOARD] = lengths.get((t, i, BOARD), 0) + v
                else:
                    blocks[t, gi] = max(blocks.get((t, gi), 0), v)
            key = (rounds + 1, q.output_party, BOARD)
            lengths[key] = lengths.get(key, 0) + 1
        for (t, gi), v in blocks.items():
            key = (t, groups[gi].sender, BOARD)
            lengths[key] = lengths.get(key, 0) + v
        pattern = CommPattern(lengths, rounds + 1)

    return ProtocolSpec(
        name=name, model=Model.NOF_BOARD, k=k, n=n, ell=ell,
        rounds=rounds + 1, next_message=next_message, output_party=1,
        output_rule=output_rule, pattern=pattern)


# ---------------------------------------------------------------------------
# Theorem 1 path: combine point-to-point protocols on the board
# ---------------------------------------------------------------------------

def multiplex_combine(plan: CompilationPlan) -> ProtocolSpec:
    """Run all instance protocols round-synchronously on the board, writing
    each certified message group as a single XOR word."""
    if plan.path not in ("t1", "t2"):
        raise DomainError("multiplex_combine handles the t1/t2 paths")
    if plan.graph is None:
        raise DomainError("plan needs the base restriction graph")
    protos, perms = plan.protocols, plan.perms
    if not perms[0].is_identity():
        raise DomainError("the first permutation must be the identity")
    k, n, rounds = protos[0].k, protos[0].n, protos[0].rounds
    for u, q in enumerate(protos, start=1):
        if q.model is not Model.NOF_GRAPH or q.ell != 1:
            raise DomainError(f"protocol {u} is not a single-instance "
                              "point-to-point protocol")
        if (q.k, q.n, q.rounds) != (k, n, rounds):
            raise DomainError(f"protocol {u} disagrees on shape")
        # the certificate below is checked against plan.graph only
        if q.graph != permute_graph(plan.graph, perms[u - 1]):
            raise DomainError(f"protocol {u} does not run on the plan's "
                              f"graph relabeled by {perms[u - 1].image}")
        if not check_pattern_robust(protos[0], q, perms[u - 1]):
            raise RobustnessError(
                f"protocol {u} does not match the base pattern under "
                f"{perms[u - 1].image}")
    cert = tuple(plan.certificate)
    verdict = is_multiplexing_set(cert, perms, plan.graph)
    if not verdict:
        raise CertificateError(verdict.reason)
    groups = [_Group(t.a, ((1, t.b),) + tuple((r, perms[r - 1](t.b))
                                              for r in sorted(t.R)))
              for t in cert]
    return _mux_engine(f"mux-{plan.path}[{protos[0].name} x{plan.ell}]",
                       protos, groups, rounds)


def compile_symmetric(spec: ProtocolSpec, f: TruthTable,
                      graph: RestrictionGraph,
                      triplets: Sequence[FilteringTriplet], ell: int,
                      budget: int = DEFAULT_BUDGET,
                      ) -> tuple[ProtocolSpec, CompilationPlan, MatrixA]:
    """Symmetric-function pipeline: build the permutation matrix from the
    filtering set, permute the one base protocol, and combine."""
    if not check_symmetry(f):
        raise DomainError("the symmetric pipeline needs a fully symmetric "
                          "function; relabeled protocols would be incorrect")
    if spec.model is not Model.NOF_GRAPH or spec.ell != 1:
        raise DomainError("base protocol must be single-instance "
                          "point-to-point")
    # every input runs fresh against the oracle; the runs are kept for
    # the naive baseline's cost sweep of the same base protocol
    wrong = _oracle_sweep(spec, f, lambda: _domain(spec, budget),
                          _runs(spec)).counterexample
    if wrong is not None:
        raise DomainError(f"base protocol disagrees with f at input index "
                          f"{wrong.input_index}")
    matrix = build_matrix_a(graph, ell, triplets)
    protos = tuple(
        spec if row.is_identity() else permute_protocol(spec, row)
        for row in matrix.rows)
    cert = filtering_to_multiplexing(triplets, matrix)
    plan = CompilationPlan(path="t2", ell=ell, perms=matrix.rows,
                           protocols=protos, certificate=cert, graph=graph)
    return multiplex_combine(plan), plan, matrix


# ---------------------------------------------------------------------------
# Theorem 3 path: combine myopic chains
# ---------------------------------------------------------------------------

def myopic_combine(protocols: Sequence[ProtocolSpec],
                   perms: Sequence[Permutation],
                   triplets: Sequence[BindingTriplet],
                   budget: int = DEFAULT_BUDGET) -> ProtocolSpec:
    """Combine one-way chains on the board, XOR-writing the certified
    position messages zero-padded to the longest of their group.

    Every chain is swept uncompiled, so one that breaks the runner's
    legality rule fails here with its run's LegalityError, even in no
    triplet.  A legal chain writes at most one record a round, from the
    round's speaker, the one party the engine runs it for.
    Chains need not be oblivious: a recipient self-delimits its message by
    its chain's prefix-free code at the block's position.  The compiled
    protocol declares a pattern when every chain does.
    """
    protos = tuple(protocols)
    perms = tuple(perms)
    ell = len(protos)
    if len(perms) != ell or ell == 0:
        raise DomainError("need one chain permutation per protocol")
    k, n = protos[0].k, protos[0].n
    for u, q in enumerate(protos, start=1):
        if q.model is not Model.MYOPIC or q.ell != 1:
            raise DomainError(f"protocol {u} is not a single-instance "
                              "myopic chain")
        if (q.k, q.n) != (k, n):
            raise DomainError(f"protocol {u} disagrees on shape")
        if q.chain != perms[u - 1].image:
            raise DomainError(f"protocol {u} does not follow permutation "
                              f"{perms[u - 1].image}")
    cert = tuple(triplets)
    verdict = is_repetitive_set(cert, perms)
    if not verdict:
        raise CertificateError(verdict.reason)
    for q in protos:
        _position_sweep(q, budget)
    for t in cert:
        for u in sorted(t.U):
            if not check_prefix_free(protos[u - 1], t.pos, budget):
                raise DomainError(
                    f"protocol {u} is not prefix-free at position {t.pos}")
    groups = [_Group(t.s, tuple((u, perms[u - 1](t.pos + 1))
                                for u in sorted(t.U)),
                     {u: messages_at_position(protos[u - 1], t.pos, budget)
                      for u in t.U})
              for t in cert]
    return _mux_engine(f"mux-t3[{protos[0].name} x{ell}]", protos, groups,
                       k - 1)


# ---------------------------------------------------------------------------
# predicted bounds
# ---------------------------------------------------------------------------

def predicted_bound(plan: CompilationPlan,
                    budget: int = DEFAULT_BUDGET) -> Bound:
    """Closed-form worst-case bound for the plan's theorem path."""
    if plan.path in ("t1", "t2"):
        base = plan.protocols[0].pattern
        if base is None:
            raise ObliviousnessError("t1/t2 bounds need an oblivious base")
        savings = sum(len(t.R) * base.channel_bits(t.a, t.b)
                      for t in plan.certificate)
        payload = plan.ell * base.total_bits() - savings
        return Bound(payload + plan.ell, payload)
    return _theorem3_bound(plan, budget)


def _theorem3_bound(plan: CompilationPlan, budget: int) -> Bound:
    """Worst case over all inputs of total chain cost minus the per-group
    (total - max) savings.  The cost depends on an input only through each
    chain's per-position cost row, so it is evaluated over the product of
    each chain's distinct rows."""
    # rows[u-1] holds chain u's distinct per-position costs, from the sweep
    # the prefix checks share, which guards its own budget
    rows = [set(_position_sweep(q, budget).costs) for q in plan.protocols]
    combos = math.prod(map(len, rows))
    if combos > budget:
        raise BudgetError(f"the t3 bound enumerates {combos} combinations "
                          f"of chain cost rows, budget is {budget}")
    worst = 0
    for combo in itertools.product(*rows):
        total = sum(map(sum, combo))
        for t in plan.certificate:
            lens = [combo[u - 1][t.pos - 1] for u in t.U]
            total -= sum(lens) - max(lens)
        worst = max(worst, total)
    return Bound(worst + plan.ell, worst)
