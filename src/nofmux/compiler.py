"""Multiplexing transformations: permuted protocols, the one combiner for
every theorem path and the symmetric-function pipeline, all built on one
XOR-multiplexing engine.

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
    SoundnessError, TruthTable, _board_bits, _messages, _outputs, _record,
    check_symmetry, xor_bits,
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
    """Everything the combiner needs, plus enough to predict the bound.

    ``path`` is one of t1 (general multiplexing), t2 (symmetric-function
    pipeline), t3 (myopic, possibly non-oblivious), c2 (the same as t3).
    A plan is valid or it is not made: its protocols run their path's model
    under its permutations, and its certificate is a multiplexing set
    (t1/t2) or a repetitive set (t3/c2).  The checks that need a sweep
    budget, of t3/c2 chains, run in the combiner, and the bound runs them.
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
        base, perms = self.protocols[0], self.perms
        on_board = self.path in ("t1", "t2")
        # a t2 plan holds the multiplexing set converted from its filtering set
        _check_shape("multiplexing" if on_board else "repetitive", base.k,
                     self.certificate, perms, self.ell)
        if on_board and self.graph is None:
            raise DomainError("plan needs the base restriction graph")
        if on_board and not perms[0].is_identity():
            raise DomainError("the first permutation must be the identity")
        model, kind = ((Model.NOF_GRAPH, "point-to-point protocol")
                       if on_board else (Model.MYOPIC, "myopic chain"))
        for u, (q, pi) in enumerate(zip(self.protocols, perms), start=1):
            if q.model is not model or q.ell != 1:
                raise DomainError(f"protocol {u} is not a single-instance "
                                  f"{kind}")
            if ((q.k, q.n) != (base.k, base.n)
                    or on_board and q.rounds != base.rounds):
                raise DomainError(f"protocol {u} disagrees on shape")
            if not on_board:
                if q.chain != pi.image:
                    raise DomainError(f"protocol {u} does not follow "
                                      f"permutation {pi.image}")
            # the certificate below is checked against the graph only
            elif q.graph != permute_graph(self.graph, pi):
                raise DomainError(f"protocol {u} does not run on the plan's "
                                  f"graph relabeled by {pi.image}")
            elif not check_pattern_robust(base, q, pi):
                raise RobustnessError(f"protocol {u} does not match the base "
                                      f"pattern under {pi.image}")
        verdict = (is_multiplexing_set(self.certificate, perms, self.graph)
                   if on_board else is_repetitive_set(self.certificate, perms))
        if not verdict:
            raise CertificateError(verdict.reason)


# ---------------------------------------------------------------------------
# permuted protocols and pattern robustness
# ---------------------------------------------------------------------------

def permute_protocol(spec: ProtocolSpec, pi: Permutation) -> ProtocolSpec:
    """pi(Q): party i plays pi^-1(i)'s role, so the message i -> j on x
    equals Q's message pi^-1(i) -> pi^-1(j) on pi^-1(x).  Only int
    recipients in 1..k are relabeled; any other is left for the runner to
    refuse, as in a run of Q.  The result records (Q, pi) in its
    ``_memo``, so the mux engine runs Q's rules under its own relabeling
    tables; a ``dataclasses.replace`` copy has no record and runs these
    rules."""
    if spec.model is not Model.NOF_GRAPH or spec.ell != 1:
        raise DomainError("only single-instance point-to-point protocols "
                          "can be permuted")
    graph = permute_graph(spec.graph, pi)  # rejects pi of another arity
    to_orig = (0,) + pi.inverse().image
    to_new = {j: pi(j) for j in range(1, spec.k + 1)}
    # original party -> (q, pi(q)) for each q it sees
    sees = {orig: tuple((q, pi(q)) for q in seen)
            for orig, seen in enumerate(spec._seen, start=1)}

    def original(orig, views, inbox):
        # orig's view and inbox in spec's labels; to_orig is a bijection,
        # so a checked record's sender still differs from its recipient
        return {1: views[1]._project(orig, sees[orig])}, tuple(
            _record(r.round, to_orig[r.sender], orig, r.payload)
            for r in inbox) if inbox else ()

    def next_message(p, t, views, inbox, board):
        outs = spec.next_message(to_orig[p], t,
                                 *original(to_orig[p], views, inbox), None)
        return [Outgoing(to_new.get(j, j) if type(j) is int else j, w, pr,
                         tag) for j, w, pr, tag in outs] if outs else []

    def output_rule(views, inbox, board):
        return spec.output_rule(*original(spec.output_party, views, inbox),
                                None)

    permuted = ProtocolSpec(
        name=f"{spec.name}@{pi.image}", model=Model.NOF_GRAPH, k=spec.k,
        n=spec.n, ell=1, rounds=spec.rounds, next_message=next_message,
        output_party=pi(spec.output_party), output_rule=output_rule,
        graph=graph,
        pattern=None if spec.pattern is None else spec.pattern.permuted(pi))
    permuted._memo["permuted"] = (spec, pi)
    return permuted


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


def _hidden(exc: LegalityError) -> SoundnessError:
    return SoundnessError(f"reconstruction needs an input hidden from the "
                          f"demultiplexing party: {exc}")


# the most plain writes one compiled spec keeps for reuse
_WRITE_CAP = 4096


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
    rule's result passes the runner's check, ``_messages`` or ``_outputs``,
    under its own protocol's model before it is boarded or staged.

    The demux schedule is fixed here, once: which board records feed each
    (instance, party) inbox, which instances each party runs in each round,
    which components each block recipient recomputes, every framing tag,
    and how an instance that ``permute_protocol`` made runs its base's
    rules: roles, views, inbox records and recipients relabeled by its pi.
    The compiled spec carries the speaker schedule, the parties that run
    an instance in each round, so the runner asks no silent party.

    Within a run, each (instance, party) history is kept as a tuple of
    records in the base's labels and extended as each round's board
    records arrive, so a speaker's history is one lookup.  It is walked,
    its blocks stripped and its records from round t on dropped, only
    when a block feeds it or its last record is dated round t or later.
    Each plain ``to:`` write and each ``out:`` write is built once per
    (instance, recipient, payload).  A board that does not extend the last
    one indexed, a new run's, is indexed afresh, and every rule is asked,
    and its result checked, afresh on every input.
    """
    k, n, ell = protos[0].k, protos[0].n, len(protos)
    # instance u runs base[u]'s rules: permute_protocol's base, relabeled
    # by its pi, for a spec it made, else itself under identity tables.
    # plays[u, p]: p's role in them, (j, src) for each x_j that it sees
    # there, read from the board's x_src, and those pairs for its own
    # view, None if the board view passes unchanged
    base, to_base, to_new, plays = {}, {}, {}, {}
    for u, q in enumerate(protos, start=1):
        base[u], pi = q._memo.get("permuted", (q, None))
        same, pi = pi is None, pi or Permutation.identity(k)
        to_new[u] = None if same else {j: pi(j) for j in range(1, k + 1)}
        to_base[u] = (0,) + pi.inverse().image
        for p, role in enumerate(to_base[u][1:], start=1):
            pairs = tuple((j, pi(j)) for j in base[u]._seen[role - 1])
            plays[u, p] = (role, pairs,
                           None if same and len(pairs) == k - 1 else pairs)
    # framing tags: to:<recipient>, mux:<group> and out:<instance>
    to_tags = {p: f"to:{p}" for p in range(1, k + 1)}
    mux_tags = [f"mux:{gi}" for gi in range(len(groups))]
    out_tags = {u: f"out:{u}" for u in range(1, ell + 1)}
    consumed = {(u, g.sender, rcpt): gi for gi, g in enumerate(groups)
                for (u, rcpt) in g.components}
    # (protocol, tag) of a board record -> ((instance, party), base labels,
    # recipient label) of each inbox it feeds: a plain record becomes an
    # inbox record in the base's labels, a block (labels None) stays as it
    # is, and its mux: tag names its group
    feeds = {(u, to_tags[p]): (((u, p), to_base[u], to_base[u][p]),)
             for u in range(1, ell + 1) for p in range(1, k + 1)}
    for gi, g in enumerate(groups):
        feeds[None, mux_tags[gi]] = tuple(
            ((u, p), None, None) for u, p in dict.fromkeys(g.components))
    block_of = {tag: gi for gi, tag in enumerate(mux_tags)}
    # the components, each (instance, recipient in its base's labels),
    # that recipient ``c`` recomputes to strip block gi.  A block's sender
    # keeps its label: a good triplet's permutations all fix it
    others = {(gi, c): tuple((u, to_base[u][rcpt]) for u, rcpt
                             in g.components if (u, rcpt) != c)
              for gi, g in enumerate(groups) for c in g.components}
    # (u, (u, p), protocol u, base rule, role, own pairs, recipient
    # labels) for each instance u that party p runs in round t <= its own
    # rounds: all, but a myopic chain only at position t; no record hides
    # elsewhere, as _groups sweeps every chain.  In the output round, round
    # rounds + 1, the rule is the output rule of each instance that p
    # answers for
    active = {(t, p): tuple(
        (u, (u, p), q,
         base[u].next_message if t <= rounds else base[u].output_rule,
         plays[u, p][0], plays[u, p][2], to_new[u])
        for u, q in enumerate(protos, start=1)
        if (q.output_party == p if t > rounds else t <= q.rounds
            and (q.model is not Model.MYOPIC or q.chain[t - 1] == p)))
        for t in range(1, rounds + 2) for p in range(1, k + 1)}
    new = tuple.__new__
    # each plain to: write, built once per (instance, recipient, payload)
    # while fewer than _WRITE_CAP are kept, and each out: write, per bit
    writes: dict[tuple[int, int, str], Outgoing] = {}
    out_writes = {u: tuple(new(Outgoing, (BOARD, str(b), u, out_tags[u]))
                           for b in (0, 1)) for u in range(1, ell + 1)}
    last = ((), {}, set())  # the last board indexed and its index
    unindexed = ({}, frozenset())  # an empty board's, which nothing extends

    def index(board):
        """(instance, party) -> the records that feed its inbox, in board
        order, and the set of the keys that a block feeds: a plain record
        is the inbox record it becomes, with no tag, and a block the board
        record with its mux: tag.  A board is immutable, and the runner's
        next board begins with it, so the index of a board that begins
        with the last one indexed, ``last``, is that index extended by the
        new records; any other board, a new run's, is indexed afresh.  The
        caller reads ``last`` itself when it holds the board."""
        nonlocal last
        known, fed, blocked = last
        start = len(known)
        if board[:start] != known:
            fed, blocked, start = {}, set(), 0
        for r in board[start:]:
            rnd, sender, _, payload, protocol, tag = r
            for key, labels, rcpt in feeds.get((protocol, tag), ()):
                if labels is None:
                    record = r
                    blocked.add(key)
                else:
                    record = _record(rnd, labels[sender], rcpt, payload)
                fed[key] = fed.get(key, ()) + (record,)
        last = (board, fed, blocked)
        return fed, blocked

    def recompute(u, sender, to, rnd, fed, views):
        """Instance u's round-``rnd`` message from ``sender`` to ``to``, a
        party of its base rules, as the demultiplexing party recomputes
        it; as in ``_messages``, which checked this result when it was
        sent, an empty message is none."""
        owner, pairs, _ = plays[u, sender]
        history = inbox(sender, u, owner, rnd, fed, views)
        try:
            view = views[u]._project(owner, pairs)
        except LegalityError as exc:
            raise _hidden(exc) from exc
        for o in base[u].next_message(owner, rnd, {1: view}, history, None):
            if o.recipient == to and o.payload:
                return o.payload
        return ""

    def strip(party, u, block, gi, fed, views):
        """``party``'s own instance-u message out of a block."""
        g, width = groups[gi], len(block.payload)
        rest = block.payload
        for (u2, to2) in others[gi, (u, party)]:
            other = recompute(u2, g.sender, to2, block.round, fed, views)
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

    def inbox(party, u, owner, upto, fed, views, demux=None):
        """Messages ``party`` (``owner`` in instance u's base rules) got in
        instance u before round ``upto``, in those rules' labels; blocks are
        stripped only when ``demux`` (``strip``) is given.  It is passed,
        not called by name, so the closures hold no reference cycle and a
        dropped compiled spec is freed at once."""
        msgs = []
        for r in fed.get((u, party), ()):
            if r.round >= upto:
                break
            if r.tag is None:
                msgs.append(r)
            elif not demux:
                raise SoundnessError(
                    f"history of party {party} in instance {u} was "
                    f"multiplexed; certificate should forbid this")
            else:
                gi = block_of[r.tag]
                msgs.append(_record(r.round, groups[gi].sender, owner,
                                    demux(party, u, r, gi, fed, views)))
        return tuple(msgs)

    def next_message(p, t, views, board_inbox, board):
        if not board:
            fed, blocked = unindexed
        elif board is last[0]:
            _, fed, blocked = last
        else:
            fed, blocked = index(board)
        staged: dict[int, dict[tuple[int, int], str]] = {}
        results = []
        for u, key, q, rule, owner, pairs, relabel in active[t, p]:
            # p's history is the records that feed it, unless a block does
            # or the last ([0]: its round) is dated at or after round t;
            # then inbox strips the blocks and its round filter decides
            history = fed.get(key, ())
            if history and (key in blocked or history[-1][0] >= t):
                history = inbox(p, u, owner, t, fed, views, strip)
            view = views[u]
            if pairs is not None:
                try:
                    view = view._project(owner, pairs)
                except LegalityError as exc:
                    raise _hidden(exc) from exc
            if t > rounds:
                bits = _outputs(rule({1: view}, history, None), 1)
                results.append(out_writes[u][bits[1]])
                continue
            outs = rule(owner, t, {1: view}, history, None)
            if not outs:
                continue
            if relabel is not None:
                # only an int recipient in 1..k is relabeled: _messages
                # refuses any other, as in a run of the instance alone
                outs = [new(Outgoing, (relabel.get(j, j) if type(j) is int
                                       else j, w, pr, tag))
                        for j, w, pr, tag in outs]
            for j, w, _, _ in _messages(q, p, t, outs):
                gi = consumed.get((u, p, j))
                if gi is None:
                    out = writes.get((u, j, w))
                    if out is None:
                        out = new(Outgoing, (BOARD, w, u, to_tags[j]))
                        if len(writes) < _WRITE_CAP:
                            writes[u, j, w] = out
                    results.append(out)
                else:
                    staged.setdefault(gi, {})[u, j] = w
        for gi, parts in sorted(staged.items()) if staged else ():
            payloads = [parts.get(c, "") for c in groups[gi].components]
            width = max(map(len, payloads))
            if groups[gi].codes is None and any(w and len(w) != width
                                                for w in payloads):
                raise SoundnessError("combined messages have unequal lengths")
            acc = 0  # _messages staged no empty payload, so width >= 1
            for w in payloads:
                acc ^= int(w.ljust(width, "0"), 2)
            results.append(new(Outgoing, (BOARD, f"{acc:0{width}b}", None,
                                          mux_tags[gi])))
        return results

    def output_rule(views, board_inbox, board):
        # the runner's _outputs is the one check of these bits
        return _board_bits(board)

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

    # the runner asks only the parties that run an instance in a round,
    # and in the output round those that answer for one
    speakers = tuple(tuple(p for p in range(1, k + 1) if active[t, p])
                     for t in range(1, rounds + 2))
    return ProtocolSpec(
        name=name, model=Model.NOF_BOARD, k=k, n=n, ell=ell,
        rounds=rounds + 1, next_message=next_message, output_party=1,
        output_rule=output_rule, pattern=pattern, _speakers=speakers)


# ---------------------------------------------------------------------------
# the one combiner: t1/t2 point-to-point protocols and t3/c2 myopic chains
# ---------------------------------------------------------------------------

def multiplex_combine(plan: CompilationPlan,
                      budget: int = DEFAULT_BUDGET) -> ProtocolSpec:
    """Run all instance protocols round-synchronously on the board, writing
    each certified message group as a single XOR word; on t3/c2 it is
    zero-padded to its longest message, and a recipient self-delimits its
    own by its chain's prefix-free code, so chains need not be oblivious."""
    protos = plan.protocols
    if plan.path in ("t1", "t2"):
        name, rounds = plan.path, protos[0].rounds
    else:  # a c2 plan compiles as the t3 plan it is
        name, rounds = "t3", protos[0].k - 1
    return _mux_engine(f"mux-{name}[{protos[0].name} x{plan.ell}]", protos,
                       _groups(plan, budget), rounds)


def _groups(plan: CompilationPlan, budget: int) -> list[_Group]:
    """The plan's certified message groups.  On t3/c2 every chain is first
    swept uncompiled, so one that breaks the runner's legality rule raises
    its run's LegalityError, even in no triplet, and a chain in a block
    must be prefix-free at its position, else DomainError."""
    protos, perms = plan.protocols, plan.perms
    if plan.path in ("t1", "t2"):
        return [_Group(t.a, ((1, t.b),) + tuple((r, perms[r - 1](t.b))
                                                for r in sorted(t.R)))
                for t in plan.certificate]
    for q in protos:
        _position_sweep(q, budget)
    for t in plan.certificate:
        for u in sorted(t.U):
            if not check_prefix_free(protos[u - 1], t.pos, budget):
                raise DomainError(
                    f"protocol {u} is not prefix-free at position {t.pos}")
    return [_Group(t.s, tuple((u, perms[u - 1](t.pos + 1))
                              for u in sorted(t.U)),
                   {u: messages_at_position(protos[u - 1], t.pos, budget)
                    for u in t.U})
            for t in plan.certificate]


def myopic_combine(protocols: Sequence[ProtocolSpec],
                   perms: Sequence[Permutation],
                   triplets: Sequence[BindingTriplet],
                   budget: int = DEFAULT_BUDGET) -> ProtocolSpec:
    """``multiplex_combine`` of the t3 plan of these chains, permutations
    and triplets."""
    protos = tuple(protocols)
    return multiplex_combine(CompilationPlan(
        "t3", len(protos), tuple(perms), protos, tuple(triplets)), budget)


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
# predicted bounds
# ---------------------------------------------------------------------------

def predicted_bound(plan: CompilationPlan,
                    budget: int = DEFAULT_BUDGET) -> Bound:
    """Closed-form worst-case bound for the plan's theorem path."""
    if plan.path in ("t1", "t2"):
        base = plan.protocols[0].pattern  # declared: the plan checked it
        savings = sum(len(t.R) * base.channel_bits(t.a, t.b)
                      for t in plan.certificate)
        payload = plan.ell * base.total_bits() - savings
        return Bound(payload + plan.ell, payload)
    return _theorem3_bound(plan, budget)


def _theorem3_bound(plan: CompilationPlan, budget: int) -> Bound:
    """Worst case over all inputs of total chain cost minus the per-group
    (total - max) savings.  The cost depends on an input only through each
    chain's per-position cost row, so it is evaluated over the product of
    each chain's distinct rows.  The combiner's checks run first, so a
    plan that does not compile is not priced."""
    _groups(plan, budget)
    # rows[u-1] holds chain u's distinct per-position costs, from the sweep
    # the prefix checks share, which guards its own budget
    rows = [_position_sweep(q, budget).costs for q in plan.protocols]
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
