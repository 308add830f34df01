"""Combinatorial certificates for multiplexing and their validators.

Validators return a CheckResult whose ``reason`` names the first violated
condition, for diagnosability.  The matrix builder realizes the constructive
conversion from a filtering set (graph-only certificate, symmetric functions)
to a multiplexing set.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import CertificateError, DomainError, RestrictionGraph, _json_int


@dataclass(frozen=True)
class Permutation:
    """A permutation of [k] given by its image array: image[i-1] = pi(i)."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.image) != list(range(1, len(self.image) + 1)):
            raise DomainError(f"{self.image} is not a permutation")

    @property
    def k(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        if not (1 <= i <= self.k):
            raise DomainError(f"point {i} out of range")
        return self.image[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.k
        for i, v in enumerate(self.image, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.image, start=1))

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(1, k + 1)))

    @classmethod
    def from_json(cls, image: Sequence) -> "Permutation":
        return cls(tuple(_json_int(v, "permutation entry") for v in image))


@dataclass(frozen=True)
class FilteringTriplet:
    """(a, b, B): sender a, recipient b, ordered alternative recipients B."""

    a: int
    b: int
    B: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "B", tuple(self.B))
        if self.a == self.b:
            raise DomainError("a and b must differ")
        if self.a in self.B or self.b in self.B:
            raise DomainError("a and b may not occur in B")
        if len(set(self.B)) != len(self.B):
            raise DomainError("B has repeated entries")


@dataclass(frozen=True)
class MultiplexTriplet:
    """(a, b, R): sender a, recipient b, protocol indices R to combine with."""

    a: int
    b: int
    R: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "R", frozenset(self.R))
        if self.a == self.b:
            raise DomainError("a and b must differ")
        if not self.R:
            raise DomainError("R must be nonempty; express zero savings by "
                              "omitting the triplet")


@dataclass(frozen=True)
class BindingTriplet:
    """(pos, s, U): chain position pos, sender s, protocol indices U."""

    pos: int
    s: int
    U: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "U", frozenset(self.U))
        if self.pos < 1:
            raise DomainError("position must be at least 1")
        if not self.U:
            raise DomainError("U must be nonempty")


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _fail(reason: str) -> CheckResult:
    return CheckResult(False, reason)


_OK = CheckResult(True)


_TRIPLETS = {"filtering": FilteringTriplet, "multiplexing": MultiplexTriplet,
             "repetitive": BindingTriplet}


def _triplet_class(kind: str) -> type:
    """The one table of certificate kinds: the triplet class each holds."""
    if kind not in _TRIPLETS:
        raise DomainError(f"unknown certificate kind {kind!r}")
    return _TRIPLETS[kind]


def _check_shape(kind: str, k: int, triplets: Sequence,
                 perms: Sequence[Permutation] | None = None,
                 ell: int | None = None) -> None:
    """Raise DomainError unless the triplets are of the kind's class and
    they and the permutations fit k parties and, where ``ell`` is given,
    ell protocols; every certificate read and write, every validator and
    every plan runs this before anything else."""
    cls = _triplet_class(kind)
    if perms is not None and any(p.k != k for p in perms):
        raise DomainError(f"need permutations of [1,{k}]")
    # range tops of each triplet's fields: parties, positions that have a
    # successor, protocol indices
    tops = {"filtering": (k, k, k), "multiplexing": (k, k, ell),
            "repetitive": (k - 1, k, ell)}[kind]
    for t in triplets:
        if type(t) is not cls:
            raise DomainError(f"a {kind} certificate holds {cls.__name__}s, "
                              f"not {type(t).__name__}")
        # vars() holds the fields in their order, and copies no group
        first, second, group = vars(t).values()
        for top, values in zip(tops, ((first,), (second,), group)):
            if top is not None and not all(1 <= v <= top for v in values):
                raise DomainError(f"triplet ({first}, {second}, "
                                  f"{sorted(group)}) has an entry outside "
                                  f"[1,{top}]")


def map_images(perms: Sequence[Permutation], b: int,
               indices: Iterable[int]) -> frozenset[int]:
    """MAP over the given permutation indices: the images of b."""
    return frozenset(perms[r - 1](b) for r in indices)


def permute_graph(graph: RestrictionGraph, pi: Permutation) -> RestrictionGraph:
    """G_pi: relabel every endpoint by pi."""
    if pi.k != graph.k:
        raise DomainError("permutation arity does not match graph")
    return RestrictionGraph(
        graph.k, frozenset((pi(i), pi(j)) for i, j in graph.edges))


def is_good_triplet(t: MultiplexTriplet, perms: Sequence[Permutation],
                    graph: RestrictionGraph) -> CheckResult:
    """The three goodness conditions for combining sender a's messages."""
    _check_shape("multiplexing", graph.k, (t,), perms, len(perms))
    if map_images(perms, t.a, t.R) != {t.a}:
        return _fail(f"condition 1: {t.a} is not fixed by all permutations "
                     f"in R={sorted(t.R)}")
    images = map_images(perms, t.b, t.R)
    if len(images) != len(t.R):
        return _fail(f"condition 2: images of {t.b} collide: {sorted(images)}")
    if t.a in images or t.b in images:
        return _fail(f"condition 2: images of {t.b} include a or b")
    if not images <= graph.non_neighbors(t.a):
        return _fail(f"condition 2: images {sorted(images)} are not all "
                     f"non-neighbors of {t.a}")
    for r in sorted(t.R):
        required = (images | {t.b}) - {perms[r - 1](t.b)}
        allowed = permute_graph(graph, perms[r - 1]).non_neighbors(t.a)
        if not required <= allowed:
            return _fail(f"condition 3: permutation {r} lets {t.a} see "
                         f"{sorted(required - allowed)}")
    return _OK


def _footprint(t: MultiplexTriplet, perms: Sequence[Permutation]) -> frozenset[int]:
    return map_images(perms, t.b, t.R) | {t.b}


def is_multiplexing_set(triplets: Sequence[MultiplexTriplet],
                        perms: Sequence[Permutation],
                        graph: RestrictionGraph) -> CheckResult:
    """Every triplet good, senders never among others' recipients, and
    recipient footprints pairwise disjoint."""
    _check_shape("multiplexing", graph.k, triplets, perms, len(perms))
    for t in triplets:
        res = is_good_triplet(t, perms, graph)
        if not res:
            return _fail(f"triplet ({t.a},{t.b},{sorted(t.R)}): {res.reason}")
    for i, t1 in enumerate(triplets):
        for j, t2 in enumerate(triplets):
            if i == j:
                continue
            if t1.a in _footprint(t2, perms):
                return _fail(f"pairwise: sender {t1.a} is a recipient of "
                             f"({t2.a},{t2.b},{sorted(t2.R)})")
            if j > i and _footprint(t1, perms) & _footprint(t2, perms):
                return _fail(f"pairwise: recipient sets of triplets {i + 1} "
                             f"and {j + 1} intersect")
    return _OK


@dataclass(frozen=True)
class FilteringCheck(CheckResult):
    # sender -> R(a), the sum of |B| over its triplets
    r_values: Mapping[int, int] = dataclasses.field(default_factory=dict)


def is_filtering_set(triplets: Sequence[FilteringTriplet],
                     graph: RestrictionGraph, ell: int) -> FilteringCheck:
    """Per-triplet containment, pairwise disjointness, and R(S) <= ell - 1."""
    _check_shape("filtering", graph.k, triplets)
    r_values = {t.a: sum(len(u.B) for u in triplets if u.a == t.a)
                for t in triplets}

    def fail(reason: str) -> FilteringCheck:
        return FilteringCheck(False, reason, r_values)

    for t in triplets:
        if not set(t.B) <= graph.non_neighbors(t.a):
            return fail(f"triplet ({t.a},{t.b},{list(t.B)}): B is not within "
                        f"the non-neighbors of {t.a}")
    for i, t1 in enumerate(triplets):
        for j, t2 in enumerate(triplets):
            if i == j:
                continue
            if t1.a in {t2.b, *t2.B}:
                return fail(f"pairwise: sender {t1.a} occurs in triplet "
                            f"({t2.a},{t2.b},{list(t2.B)})")
            if j > i and ({t1.b, *t1.B} & {t2.b, *t2.B}):
                return fail(f"pairwise: triplets {i + 1} and {j + 1} share "
                            f"recipients")
    r = max(r_values.values(), default=0)
    if r > ell - 1:
        return fail(f"R(S) = {r} exceeds ell - 1 = {ell - 1}")
    return FilteringCheck(True, None, r_values)


@dataclass(frozen=True)
class MatrixA:
    """The ell x k matrix of permutations built from an ordered filtering set.

    ``row_map[(i, j)]`` is the row assigned to alternative j of triplet i
    (both 1-based); ``fixed`` lists the (row, column) cells pinned by the
    construction, everything else came from the deterministic completion.
    """

    rows: tuple[Permutation, ...]
    row_map: Mapping[tuple[int, int], int]
    last: Mapping[int, int]
    fixed: frozenset[tuple[int, int]]

    @property
    def ell(self) -> int:
        return len(self.rows)

    def entry(self, row: int, col: int) -> int:
        return self.rows[row - 1](col)


def build_matrix_a(graph: RestrictionGraph, ell: int,
                   triplets: Sequence[FilteringTriplet]) -> MatrixA:
    """Rows become the permutation sequence for the symmetric-function path.

    Row 1 is the identity.  Row row(i,j) fixes column a_i to a_i and column
    b_i to (B_i)_j, and its columns B_i carry exactly B_i + {b_i} - {(B_i)_j}.
    Completion rule: constrained values go into columns B_i sorted-to-sorted,
    remaining values fill remaining columns, both ascending.
    """
    check = is_filtering_set(triplets, graph, ell)
    if not check:
        raise CertificateError(f"not a filtering set: {check.reason}")
    k = graph.k

    last: dict[int, int] = {}
    row_map: dict[tuple[int, int], int] = {}
    for i, t in enumerate(triplets, start=1):
        last[i] = 1 + sum(len(u.B) for idx, u in enumerate(triplets, start=1)
                          if idx < i and u.a == t.a)
        for j in range(1, len(t.B) + 1):
            row_map[(i, j)] = last[i] + j

    cells: dict[int, dict[int, int]] = {r: {} for r in range(1, ell + 1)}
    for col in range(1, k + 1):
        cells[1][col] = col  # row 1 is the identity
    fixed: set[tuple[int, int]] = set()

    def place(row: int, col: int, value: int) -> None:
        existing = cells[row].get(col)
        if existing is not None and existing != value:
            raise CertificateError(
                f"internal invariant: row {row} column {col} assigned both "
                f"{existing} and {value}")
        cells[row][col] = value

    for i, t in enumerate(triplets, start=1):
        for j in range(1, len(t.B) + 1):
            row = row_map[(i, j)]
            place(row, t.a, t.a)
            place(row, t.b, t.B[j - 1])
            fixed.update({(row, t.a), (row, t.b)})
            # restriction 2: columns B_i hold B_i + {b_i} - {(B_i)_j}
            values = sorted((set(t.B) | {t.b}) - {t.B[j - 1]})
            for col, value in zip(sorted(t.B), values):
                place(row, col, value)

    rows: list[Permutation] = []
    for r in range(1, ell + 1):
        used = set(cells[r].values())
        if len(used) != len(cells[r]):
            raise CertificateError(
                f"internal invariant: row {r} repeats a value")
        free_cols = [c for c in range(1, k + 1) if c not in cells[r]]
        free_vals = [v for v in range(1, k + 1) if v not in used]
        for col, value in zip(free_cols, free_vals):
            cells[r][col] = value
        rows.append(Permutation(tuple(cells[r][c] for c in range(1, k + 1))))

    matrix = MatrixA(tuple(rows), row_map, last, frozenset(fixed))
    _assert_matrix_restrictions(matrix, triplets)
    return matrix


def _assert_matrix_restrictions(matrix: MatrixA,
                                triplets: Sequence[FilteringTriplet]) -> None:
    if not matrix.rows[0].is_identity():
        raise CertificateError("internal invariant: row 1 is not the identity")
    for i, t in enumerate(triplets, start=1):
        for j in range(1, len(t.B) + 1):
            row = matrix.rows[matrix.row_map[(i, j)] - 1]
            if row(t.a) != t.a or row(t.b) != t.B[j - 1]:
                raise CertificateError(
                    f"internal invariant: fixed entries of triplet {i} "
                    f"alternative {j} are wrong")
            got = {row(c) for c in t.B}
            want = (set(t.B) | {t.b}) - {t.B[j - 1]}
            if got != want:
                raise CertificateError(
                    f"internal invariant: restriction 2 broken for triplet "
                    f"{i} alternative {j}: {sorted(got)} != {sorted(want)}")


def filtering_to_multiplexing(triplets: Sequence[FilteringTriplet],
                              matrix: MatrixA) -> tuple[MultiplexTriplet, ...]:
    """Read the multiplexing set off the row map: R_i = {row(i, j)}."""
    return tuple(
        MultiplexTriplet(t.a, t.b, frozenset(
            matrix.row_map[(i, j)] for j in range(1, len(t.B) + 1)))
        for i, t in enumerate(triplets, start=1) if t.B)


def is_binding_triplet(t: BindingTriplet,
                       perms: Sequence[Permutation]) -> CheckResult:
    """One sender at a fixed chain position, distinct successors, and no
    successor already seen earlier in any of the chains."""
    _check_shape("repetitive", perms[0].k if perms else 0, (t,), perms,
                 len(perms))
    if any(perms[u - 1](t.pos) != t.s for u in t.U):
        return _fail(f"condition 1: not every chain in U={sorted(t.U)} puts "
                     f"party {t.s} at position {t.pos}")
    successors = {perms[u - 1](t.pos + 1) for u in t.U}
    if len(successors) != len(t.U):
        return _fail(f"condition 2: successors collide: {sorted(successors)}")
    predecessors = {perms[u - 1](i) for u in t.U for i in range(1, t.pos)}
    if predecessors & successors:
        return _fail(f"condition 3: {sorted(predecessors & successors)} "
                     f"appear both before position {t.pos} and as successors")
    return _OK


def is_repetitive_set(triplets: Sequence[BindingTriplet],
                      perms: Sequence[Permutation]) -> CheckResult:
    _check_shape("repetitive", perms[0].k if perms else 0, triplets, perms,
                 len(perms))
    for t in triplets:
        res = is_binding_triplet(t, perms)
        if not res:
            return _fail(f"triplet ({t.pos},{t.s},{sorted(t.U)}): {res.reason}")
    for i, t1 in enumerate(triplets):
        for j, t2 in enumerate(triplets):
            if i == j:
                continue
            if t1.s in {perms[u - 1](t2.pos + 1) for u in t2.U}:
                return _fail(f"pairwise: sender {t1.s} receives a multiplexed "
                             f"message of ({t2.pos},{t2.s},{sorted(t2.U)})")
            if j > i and (t1.pos, t1.s) == (t2.pos, t2.s) and t1.U & t2.U:
                return _fail(f"pairwise: triplets {i + 1} and {j + 1} share "
                             f"position, sender and protocols")
    return _OK


# ---------------------------------------------------------------------------
# certificate files
# ---------------------------------------------------------------------------

def certificate_to_json(kind: str, k: int, ell: int, triplets: Sequence,
                        perms: Sequence[Permutation] | None = None) -> dict:
    """One [first, second, group] row per triplet, sets sorted and B in its
    order, of a certificate that ``certificate_from_json`` reads back."""
    _check_shape(kind, k, triplets, perms)
    data: dict = {"kind": kind, "k": k, "ell": ell, "triplets": [
        [a, b, sorted(g) if isinstance(g, frozenset) else list(g)]
        for a, b, g in (vars(t).values() for t in triplets)]}
    if perms is not None:
        data["permutations"] = [list(p.image) for p in perms]
    return data


def certificate_from_json(data: Mapping) -> tuple[str, int, int, tuple,
                                                  tuple[Permutation, ...] | None]:
    """Returns (kind, k, ell, triplets, permutations-or-None); permutations
    or triplet entries that do not fit ``k`` raise DomainError."""
    kind = data["kind"]
    cls = _triplet_class(kind)
    k, ell = _json_int(data["k"], "k"), _json_int(data["ell"], "ell")
    triplets = tuple(cls(_json_int(a, "triplet entry"),
                         _json_int(b, "triplet entry"),
                         [_json_int(v, "triplet entry") for v in group])
                     for a, b, group in data["triplets"])
    perms = None
    if "permutations" in data:
        perms = tuple(map(Permutation.from_json, data["permutations"]))
    _check_shape(kind, k, triplets, perms)
    return kind, k, ell, triplets, perms
