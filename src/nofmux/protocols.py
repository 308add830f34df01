"""Built-in protocol constructors.

Each constructor returns an immutable ProtocolSpec that passes the core
legality and (where a pattern is declared) obliviousness checks.  All of
them are oblivious, so every one declares its communication pattern.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from .combinatorics import Permutation, permute_graph
from .core import (
    BOARD, CommPattern, DomainError, Model, Outgoing, ProtocolSpec,
    RestrictionGraph, TruthTable, _board_bits, _json_int,
)


def _all_equal(values: Iterable[str]) -> int:
    return int(len(set(values)) <= 1)


def _board_round_payload(board, rnd: int, sender: int) -> str:
    for r in board:
        if r.round == rnd and r.sender == sender:
            return r.payload
    raise DomainError(f"no board record from {sender} in round {rnd}")


# ---------------------------------------------------------------------------
# board-model direct-sum protocols: the runner checks their out:<i> bits
# ---------------------------------------------------------------------------

def _blockwise(f: TruthTable, ell: int, name: str) -> ProtocolSpec:
    """ell instances in blocks of k - 1.  Block b takes rounds 2b+1 and
    2b+2: the last party broadcasts the xor of the block's diagonal inputs,
    then each P_i (i < k) strips the k-2 diagonal words it sees, recovers
    its own forehead word for its instance of the block, evaluates f there
    and writes the answer bit."""
    k, n = f.k, f.n
    if k < 2 or ell % (k - 1) != 0:
        raise DomainError(f"k - 1 = {k - 1} must divide ell = {ell}")
    blocks = ell // (k - 1)

    # the diagonal cells (instance, party) of each round's block
    diagonal, lengths = {}, {}
    for b in range(blocks):
        diagonal[2 * b + 1] = diagonal[2 * b + 2] = cells = []
        lengths[(2 * b + 1, k, BOARD)] = n
        for i in range(1, k):
            cells.append((b * (k - 1) + i, i))
            lengths[(2 * b + 2, i, BOARD)] = 1

    values, width = f.values, f"0{n}b"
    out_tags = {u: f"out:{u}" for u in range(1, ell + 1)}

    def next_message(p, t, views, inbox, board):
        # words as integers: one XOR per cell, f's index built MSB first
        if t % 2:
            if p == k:
                acc = 0
                for i, j in diagonal[t]:
                    acc ^= int(views[i][j], 2)
                return [Outgoing(BOARD, format(acc, width))]
        elif p < k:
            cells = diagonal[t]
            inst = cells[p - 1][0]
            own = int(_board_round_payload(board, t - 1, k), 2)
            for i, j in cells:
                if j != p:
                    own ^= int(views[i][j], 2)
            row, idx = views[inst], 0
            for j in range(1, k + 1):
                idx = idx << n | (own if j == p else int(row[j], 2))
            return [Outgoing(BOARD, str(values[idx]), tag=out_tags[inst])]
        return []

    return ProtocolSpec(
        name=name, model=Model.NOF_BOARD, k=k, n=n, ell=ell,
        rounds=2 * blocks, next_message=next_message, output_party=k,
        output_rule=lambda views, inbox, board: _board_bits(board),
        pattern=CommPattern(lengths, 2 * blocks))


def lemma1_protocol(f: TruthTable) -> ProtocolSpec:
    """k-1 instances of f at cost n + k - 1: one block of
    corollary1_protocol."""
    return _blockwise(f, f.k - 1, f"lemma1[k={f.k},n={f.n}]")


def corollary1_protocol(f: TruthTable, ell: int) -> ProtocolSpec:
    """ell instances in blocks of k - 1, each run as in lemma1_protocol."""
    return _blockwise(f, ell, f"corollary1[k={f.k},n={f.n},ell={ell}]")


def eq_two_bit_protocol(k: int, n: int) -> ProtocolSpec:
    """Two-bit equality: P_{k-1} writes [x_{k-2} = x_k], P_k writes the
    conjunction with its own all-equal check."""
    if k < 3:
        raise DomainError("equality protocol needs k >= 3")

    def next_message(p, t, views, inbox, board):
        if t == 1 and p == k - 1:
            return [Outgoing(BOARD, str(int(views[1][k - 2] == views[1][k])))]
        if t == 2 and p == k:
            prev = int(_board_round_payload(board, 1, k - 1))
            mine = _all_equal(views[1][j] for j in range(1, k))
            return [Outgoing(BOARD, str(prev & mine), tag="out:1")]
        return []

    return ProtocolSpec(
        name=f"eq2[k={k},n={n}]", model=Model.NOF_BOARD, k=k, n=n, ell=1,
        rounds=2, next_message=next_message, output_party=k,
        output_rule=lambda views, inbox, board: _board_bits(board),
        pattern=CommPattern({(1, k - 1, BOARD): 1, (2, k, BOARD): 1}, 2))


def eq_multi_protocol(k: int, n: int) -> ProtocolSpec:
    """(k-1)/2 equality instances at cost 1 + (k-1)/2, for odd k.

    Instance r is answered by P_{2r}.  The last party broadcasts the xor of
    the bits b_r = [x_{r,2r-1} = x_{r,2r}]; P_{2r} recomputes every other
    b and conjoins the recovered b_r with its own all-equal check on
    instance r.
    """
    if k % 2 == 0 or k < 3:
        raise DomainError("eq_multi_protocol needs odd k >= 3")
    ell = (k - 1) // 2

    def pair_bit(views, r):
        return int(views[r][2 * r - 1] == views[r][2 * r])

    def next_message(p, t, views, inbox, board):
        if t == 1 and p == k:
            bits = [pair_bit(views, r) for r in range(1, ell + 1)]
            acc = 0
            for b in bits:
                acc ^= b
            return [Outgoing(BOARD, str(acc))]
        if t == 2 and p % 2 == 0 and p < k:
            r = p // 2
            acc = int(_board_round_payload(board, 1, k))
            for other in range(1, ell + 1):
                if other != r:
                    acc ^= pair_bit(views, other)
            mine = _all_equal(views[r][j] for j in range(1, k + 1) if j != p)
            return [Outgoing(BOARD, str(acc & mine), tag=f"out:{r}")]
        return []

    lengths = {(1, k, BOARD): 1}
    for r in range(1, ell + 1):
        lengths[(2, 2 * r, BOARD)] = 1
    return ProtocolSpec(
        name=f"eq-multi[k={k},n={n}]", model=Model.NOF_BOARD, k=k, n=n,
        ell=ell, rounds=2, next_message=next_message, output_party=k,
        output_rule=lambda views, inbox, board: _board_bits(board),
        pattern=CommPattern(lengths, 2))


# ---------------------------------------------------------------------------
# restricted-model protocols
# ---------------------------------------------------------------------------

def example1_graph(k: int) -> RestrictionGraph:
    """Only P_k sees x_1 and P_1 sees everyone else."""
    edges = {(k, 1)} | {(1, i) for i in range(2, k + 1)}
    return RestrictionGraph(k, frozenset(edges))


def _forwarding(f: TruthTable, i: int, name: str) -> ProtocolSpec:
    """P_k forwards x_i to P_i, who evaluates f, on example1's graph
    relabelled by the i-th cyclic permutation."""
    k, n = f.k, f.n
    graph = permute_graph(example1_graph(k), example1_permutation(k, i))

    def next_message(p, t, views, inbox, board):
        if t == 1 and p == k:
            return [Outgoing(i, views[1][i])]
        return []

    def output_rule(views, inbox, board):
        xi = inbox[-1].payload
        args = [xi if j == i else views[1][j] for j in range(1, k + 1)]
        return {1: f.evaluate(args)}

    return ProtocolSpec(
        name=name, model=Model.NOF_GRAPH, k=k, n=n, ell=1, rounds=1,
        next_message=next_message, output_party=i, output_rule=output_rule,
        graph=graph, pattern=CommPattern({(1, k, i): n}, 1))


def example1_protocol(f: TruthTable) -> ProtocolSpec:
    """P_k forwards x_1 to P_1, who then evaluates f: the variant Q^1."""
    return _forwarding(f, 1, f"example1[k={f.k},n={f.n}]")


def example1_permutation(k: int, i: int) -> Permutation:
    """The i-th cyclic relabeling used alongside example1: 1 -> i within
    [k-1], the last party stays put."""
    if not (1 <= i <= k - 1):
        raise DomainError(f"variant index {i} outside [1,{k - 1}]")
    image = [((i - 1 + j) % (k - 1)) + 1 for j in range(k - 1)] + [k]
    return Permutation(tuple(image))


def example1_variant(f: TruthTable, i: int) -> ProtocolSpec:
    """Q^i: P_k forwards x_i to P_i, who evaluates f.  Correct for arbitrary
    f, unlike a mere relabeling of example1_protocol."""
    return _forwarding(f, i, f"example1-variant[k={f.k},n={f.n},i={i}]")


def example3_graph(k: int) -> RestrictionGraph:
    """Complete digraph minus the edges from the last party to [4, k-1]."""
    removed = {(k, j) for j in range(4, k)}
    return RestrictionGraph(
        k, RestrictionGraph.complete(k).edges - frozenset(removed))


def example3_protocol(k: int, n: int) -> ProtocolSpec:
    """One-bit restricted equality: P_k tells P_2 whether x_1 = x_2, and P_2
    conjoins that with its own all-equal check."""
    if k % 2 == 0:
        raise DomainError("example3_protocol needs odd k")
    graph = example3_graph(k)

    def next_message(p, t, views, inbox, board):
        if t == 1 and p == k:
            return [Outgoing(2, str(int(views[1][1] == views[1][2])))]
        return []

    def output_rule(views, inbox, board):
        prev = int(inbox[-1].payload)
        mine = _all_equal(views[1][j] for j in range(1, k + 1) if j != 2)
        return {1: prev & mine}

    return ProtocolSpec(
        name=f"example3[k={k},n={n}]", model=Model.NOF_GRAPH, k=k, n=n,
        ell=1, rounds=1, next_message=next_message, output_party=2,
        output_rule=output_rule, graph=graph,
        pattern=CommPattern({(1, k, 2): 1}, 1))


def example3_filtering_triplets(k: int):
    """The filtering set published with example3: (k, 2, {4, 6, ..., k-1})."""
    from .combinatorics import FilteringTriplet
    return (FilteringTriplet(k, 2, tuple(range(4, k, 2))),)


# ---------------------------------------------------------------------------
# myopic chain
# ---------------------------------------------------------------------------

@cache
def _bit_to(j: int) -> tuple[tuple[Outgoing], tuple[Outgoing]]:
    """The messages "0" and "1" to party j, each as a one-message result."""
    return (Outgoing(j, "0"),), (Outgoing(j, "1"),)


def myopic_eq_chain(k: int, n: int, pi: Permutation) -> ProtocolSpec:
    """One-way equality along the chain pi; not taken from any publication.

    Position 2 starts with [x_{pi(1)} = x_{pi(3)}]; each later position
    conjoins the incoming bit with [x_{pi(t-1)} = x_{pi(t+1)}]; the last
    party checks the first k - 1 inputs itself.  Cost k - 2 bits.
    """
    if k < 4:
        raise DomainError("myopic_eq_chain needs k >= 4")
    if pi.k != k:
        raise DomainError("chain permutation arity mismatch")
    at = (0,) + pi.image  # at[t] = pi(t)
    # sends[t][bit]: position t's message, the bit to its successor
    sends = {t: _bit_to(at[t + 1]) for t in range(2, k)}
    firsts = itemgetter(*at[1:k])  # the first k - 1 inputs, in chain order

    def next_message(p, t, views, inbox, board):
        if 2 <= t <= k - 1 and p == at[t]:
            view = views[1]
            step = view[at[t - 1]] == view[at[t + 1]]
            if t == 2:
                return sends[2][step]
            return sends[t][int(inbox[-1].payload) & step]
        return ()

    def output_rule(views, inbox, board):
        prev = int(inbox[-1].payload)
        return {1: prev & (len(set(firsts(views[1]))) <= 1)}

    lengths = {(t, pi(t), pi(t + 1)): 1 for t in range(2, k)}
    return ProtocolSpec(
        name=f"myopic-eq[k={k},n={n},pi={pi.image}]", model=Model.MYOPIC,
        k=k, n=n, ell=1, rounds=k - 1, next_message=next_message,
        output_party=pi(k), output_rule=output_rule, chain=pi.image,
        pattern=CommPattern(lengths, k - 1))


#: Built-in families by their name in a plan file: each builds its protocol
#: from the plan's function f, its ell and the family's own plan entry.
FAMILIES: dict[str, Callable[[TruthTable, int, Mapping], ProtocolSpec]] = {
    "lemma1": lambda f, ell, entry: lemma1_protocol(f),
    "corollary1": lambda f, ell, entry: corollary1_protocol(f, ell),
    "eq2": lambda f, ell, entry: eq_two_bit_protocol(f.k, f.n),
    "eq-multi": lambda f, ell, entry: eq_multi_protocol(f.k, f.n),
    "example1": lambda f, ell, entry: example1_protocol(f),
    "example1-variant": lambda f, ell, entry: example1_variant(
        f, _json_int(entry["i"], "i")),
    "example3": lambda f, ell, entry: example3_protocol(f.k, f.n),
    "myopic-eq": lambda f, ell, entry: myopic_eq_chain(
        f.k, f.n, Permutation.from_json(entry["pi"])),
}
