"""Certificate validators and the permutation-matrix construction."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from nofmux import (
    BindingTriplet, CertificateError, DomainError, FilteringTriplet,
    MultiplexTriplet, Permutation, RestrictionGraph, build_matrix_a,
    certificate_from_json, certificate_to_json, filtering_to_multiplexing,
    is_binding_triplet, is_filtering_set, is_good_triplet,
    is_multiplexing_set, is_repetitive_set, map_images, permute_graph,
)
from nofmux.acceptance import (
    nine_party_filtering_instance, random_filtering_instance,
)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

@st.composite
def permutations(draw, min_k=1, max_k=9):
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    image = list(range(1, k + 1))
    draw(st.randoms(use_true_random=False)).shuffle(image)
    return Permutation(tuple(image))


@given(permutations())
def test_permutation_inverse_composes_to_identity(pi):
    inv = pi.inverse()
    assert all(inv(pi(i)) == i and pi(inv(i)) == i
               for i in range(1, pi.k + 1))


def test_permutation_rejects_non_bijections():
    with pytest.raises(DomainError):
        Permutation((1, 1, 3))
    with pytest.raises(DomainError):
        Permutation((0, 1, 2))


def test_identity_permutation():
    assert Permutation.identity(4).is_identity()
    assert not Permutation((2, 1, 3)).is_identity()


@given(permutations(min_k=2, max_k=6))
def test_permute_graph_preserves_adjacency(pi):
    rng = random.Random(str(pi.image))
    edges = frozenset((i, j) for i in range(1, pi.k + 1)
                      for j in range(1, pi.k + 1)
                      if i != j and rng.random() < 0.4)
    g = RestrictionGraph(pi.k, edges)
    gp = permute_graph(g, pi)
    assert all((pi(i), pi(j)) in gp.edges for i, j in g.edges)
    assert len(gp.edges) == len(g.edges)


# ---------------------------------------------------------------------------
# triplet wellformedness
# ---------------------------------------------------------------------------

def test_filtering_triplet_shape_rules():
    with pytest.raises(DomainError):
        FilteringTriplet(1, 1, (2,))
    with pytest.raises(DomainError):
        FilteringTriplet(1, 2, (1,))
    with pytest.raises(DomainError):
        FilteringTriplet(1, 2, (3, 3))
    assert FilteringTriplet(1, 2, ()).B == ()


def test_multiplex_triplet_requires_nonempty_r():
    with pytest.raises(DomainError):
        MultiplexTriplet(1, 2, frozenset())


def test_binding_triplet_shape_rules():
    with pytest.raises(DomainError):
        BindingTriplet(0, 1, frozenset({1}))
    with pytest.raises(DomainError):
        BindingTriplet(1, 1, frozenset())


# ---------------------------------------------------------------------------
# goodness and multiplexing sets
# ---------------------------------------------------------------------------

def _star_instance():
    """k=4 instance: P_4 sees x_1, P_1 sees everyone else; three cyclic
    relabelings that fix party 4."""
    graph = RestrictionGraph(4, frozenset({(4, 1), (1, 2), (1, 3), (1, 4)}))
    perms = (Permutation((1, 2, 3, 4)), Permutation((2, 3, 1, 4)),
             Permutation((3, 1, 2, 4)))
    return graph, perms


def test_good_triplet_star_example():
    graph, perms = _star_instance()
    t = MultiplexTriplet(4, 1, frozenset({2, 3}))
    assert is_good_triplet(t, perms, graph)
    assert is_multiplexing_set((t,), perms, graph)


def test_good_triplet_condition1_failure():
    graph, perms = _star_instance()
    # permutation 2 moves party 1, so a=1 is not fixed
    res = is_good_triplet(MultiplexTriplet(1, 4, frozenset({2})), perms,
                          graph)
    assert not res and "condition 1" in res.reason


def test_good_triplet_condition2_failure():
    graph = RestrictionGraph(4, frozenset({(4, 2)}))
    perms = (Permutation((1, 2, 3, 4)), Permutation((2, 3, 1, 4)))
    # pi_2(1) = 2, a neighbor of the sender 4
    res = is_good_triplet(MultiplexTriplet(4, 1, frozenset({2})), perms,
                          graph)
    assert not res and "condition 2" in res.reason


def test_good_triplet_condition3_failure():
    # a=4, b=1, pi_2 = (3,1,2,4): the image of b is 3, a non-neighbor of 4
    # in G, so conditions 1-2 hold; but G's edge (4,2) becomes (4,1) in
    # G_{pi_2}, letting the sender see b where it must not.
    graph = RestrictionGraph(4, frozenset({(4, 2)}))
    perms = (Permutation((1, 2, 3, 4)), Permutation((3, 1, 2, 4)))
    res = is_good_triplet(MultiplexTriplet(4, 1, frozenset({2})), perms,
                          graph)
    assert not res and "condition 3" in res.reason


def test_multiplexing_set_pairwise_failures():
    graph = RestrictionGraph(6, frozenset())
    perms = (Permutation((1, 2, 3, 4, 5, 6)), Permutation((2, 1, 3, 4, 5, 6)),
             Permutation((1, 2, 4, 3, 5, 6)), Permutation((1, 2, 3, 5, 4, 6)))
    good1 = MultiplexTriplet(5, 1, frozenset({2}))
    good2 = MultiplexTriplet(6, 3, frozenset({3}))
    assert is_multiplexing_set((good1, good2), perms, graph)
    # overlapping footprints: both use recipient 1
    clash = MultiplexTriplet(6, 2, frozenset({2}))
    res = is_multiplexing_set((good1, clash), perms, graph)
    assert not res and "pairwise" in res.reason
    # a triplet whose footprint {4, 5} contains good1's sender
    sender_hit = MultiplexTriplet(6, 5, frozenset({4}))
    res = is_multiplexing_set((good1, sender_hit), perms, graph)
    assert not res and "pairwise" in res.reason


# ---------------------------------------------------------------------------
# filtering sets and the matrix construction
# ---------------------------------------------------------------------------

def test_filtering_set_nine_party_example():
    graph, ell, triplets = nine_party_filtering_instance()
    check = is_filtering_set(triplets, graph, ell)
    assert check, check.reason
    assert check.r_values == {1: 3, 7: 1}


def test_filtering_set_rejects_neighbor_alternatives():
    graph = RestrictionGraph(4, frozenset({(1, 3)}))
    check = is_filtering_set((FilteringTriplet(1, 2, (3,)),), graph, 2)
    assert not check and "non-neighbors" in check.reason


def test_filtering_set_rejects_shared_recipients():
    graph = RestrictionGraph(6, frozenset())
    check = is_filtering_set(
        (FilteringTriplet(1, 2, (3,)), FilteringTriplet(4, 5, (3,))),
        graph, 3)
    assert not check and "pairwise" in check.reason


def test_filtering_set_budget_r_of_s():
    graph = RestrictionGraph(9, frozenset())
    triplets = (FilteringTriplet(1, 2, (3, 4)), FilteringTriplet(1, 5, (6,)))
    assert is_filtering_set(triplets, graph, 4)
    check = is_filtering_set(triplets, graph, 3)
    assert not check and check.reason == "R(S) = 3 exceeds ell - 1 = 2"
    assert check.r_values == {1: 3}


def test_matrix_nine_party_example():
    graph, ell, triplets = nine_party_filtering_instance()
    matrix = build_matrix_a(graph, ell, triplets)
    assert matrix.row_map == {(1, 1): 2, (1, 2): 3, (2, 1): 4, (3, 1): 2}
    assert matrix.last == {1: 1, 2: 3, 3: 1}
    assert matrix.rows[0].is_identity()
    # pinned entries of the worked 9-party example
    assert matrix.entry(2, 2) == 3
    assert matrix.entry(3, 2) == 4
    assert matrix.entry(4, 5) == 6
    assert matrix.entry(2, 8) == 9
    assert all(matrix.entry(r, 1) == 1 for r in range(1, ell + 1))
    assert all((r, 1) in matrix.fixed for r in range(2, 5))


def test_matrix_restriction_two_holds():
    graph, ell, triplets = nine_party_filtering_instance()
    matrix = build_matrix_a(graph, ell, triplets)
    for i, t in enumerate(triplets, start=1):
        for j in range(1, len(t.B) + 1):
            row = matrix.rows[matrix.row_map[(i, j)] - 1]
            assert {row(c) for c in t.B} == (set(t.B) | {t.b}) - {t.B[j - 1]}


def test_matrix_empty_filtering_set_is_all_identity():
    matrix = build_matrix_a(RestrictionGraph(5, frozenset()), 3, ())
    assert all(row.is_identity() for row in matrix.rows)
    assert filtering_to_multiplexing((), matrix) == ()


def test_matrix_rejects_oversubscribed_set():
    graph = RestrictionGraph(9, frozenset())
    triplets = (FilteringTriplet(1, 2, (3, 4, 5)),)
    with pytest.raises(CertificateError):
        build_matrix_a(graph, 3, triplets)


def test_filtering_to_multiplexing_nine_party_example():
    graph, ell, triplets = nine_party_filtering_instance()
    matrix = build_matrix_a(graph, ell, triplets)
    cert = filtering_to_multiplexing(triplets, matrix)
    assert [(t.a, t.b, sorted(t.R)) for t in cert] == [
        (1, 2, [2, 3]), (1, 5, [4]), (7, 8, [2])]
    assert is_multiplexing_set(cert, matrix.rows, graph)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=200, deadline=None)
def test_matrix_pipeline_property(seed):
    """Any valid random filtering set converts to a valid multiplexing set."""
    rng = random.Random(seed)
    graph, ell, triplets = random_filtering_instance(rng)
    check = is_filtering_set(triplets, graph, ell)
    assert check, check.reason
    matrix = build_matrix_a(graph, ell, triplets)
    assert matrix.rows[0].is_identity()
    cert = filtering_to_multiplexing(triplets, matrix)
    res = is_multiplexing_set(cert, matrix.rows, graph)
    assert res, res.reason


def test_map_images():
    perms = (Permutation((1, 2, 3)), Permutation((2, 3, 1)))
    assert map_images(perms, 1, [1, 2]) == {1, 2}


# ---------------------------------------------------------------------------
# binding triplets and repetitive sets
# ---------------------------------------------------------------------------

def _chain_perms():
    return (Permutation((1, 2, 3, 4, 5)), Permutation((4, 2, 5, 1, 3)))


def test_binding_triplet_demo_instance():
    assert is_binding_triplet(BindingTriplet(2, 2, frozenset({1, 2})),
                              _chain_perms())


def test_binding_triplet_failures():
    perms = _chain_perms()
    res = is_binding_triplet(BindingTriplet(1, 1, frozenset({1, 2})), perms)
    assert not res and "condition 1" in res.reason
    perms2 = (Permutation((1, 2, 3, 4, 5)), Permutation((1, 2, 3, 5, 4)))
    res = is_binding_triplet(BindingTriplet(2, 2, frozenset({1, 2})), perms2)
    assert not res and "condition 2" in res.reason
    # successor of one chain appears before the position in the other
    perms3 = (Permutation((1, 2, 3, 4, 5)), Permutation((5, 2, 1, 3, 4)))
    res = is_binding_triplet(BindingTriplet(2, 2, frozenset({1, 2})), perms3)
    assert not res and "condition 3" in res.reason


def test_repetitive_set_demo_and_pairwise():
    perms = _chain_perms()
    assert is_repetitive_set((BindingTriplet(2, 2, frozenset({1, 2})),),
                             perms)
    # a second triplet whose multiplexed recipients include the first sender
    perms4 = (Permutation((1, 2, 3, 4, 5)), Permutation((4, 3, 2, 1, 5)))
    t1 = BindingTriplet(3, 3, frozenset({1}))
    t2 = BindingTriplet(1, 4, frozenset({2}))
    # t_clash's multiplexed recipient pi_1(3) = 3 is t1's sender
    t_clash = BindingTriplet(2, 2, frozenset({1}))
    res = is_repetitive_set((t1, t_clash), perms4)
    assert not res and "pairwise" in res.reason
    assert is_repetitive_set((t2,), perms4)


# ---------------------------------------------------------------------------
# certificate files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,triplets", [
    ("filtering", (FilteringTriplet(1, 2, (3, 4)),)),
    ("multiplexing", (MultiplexTriplet(1, 2, frozenset({2, 3})),)),
    ("repetitive", (BindingTriplet(2, 2, frozenset({1, 2})),)),
])
def test_certificate_json_roundtrip(kind, triplets):
    perms = (Permutation((1, 2, 3, 4)),)
    data = certificate_to_json(kind, 4, 2, triplets, perms)
    kind2, k, ell, triplets2, perms2 = certificate_from_json(data)
    assert (kind2, k, ell) == (kind, 4, 2)
    assert triplets2 == triplets
    assert perms2 == perms


def test_certificate_that_does_not_fit_its_k_is_rejected():
    """Permutations of [1,3] in a k=5 certificate are a shape error, not a
    failed condition 1; so is a graph whose k differs from theirs."""
    with pytest.raises(DomainError, match=r"permutations of \[1,5\]"):
        certificate_from_json({
            "kind": "repetitive", "k": 5, "ell": 2,
            "triplets": [[2, 2, [1, 2]]],
            "permutations": [[1, 2, 3], [2, 3, 1]]})
    perms = (Permutation((1, 2, 3)), Permutation((1, 3, 2)))
    with pytest.raises(DomainError, match=r"permutations of \[1,4\]"):
        is_multiplexing_set((MultiplexTriplet(1, 2, frozenset({2})),),
                            perms, RestrictionGraph(4, frozenset()))


def test_certificate_rejects_unknown_kind():
    with pytest.raises(DomainError):
        certificate_to_json("bogus", 3, 2, ())
    with pytest.raises(DomainError):
        certificate_from_json({"kind": "bogus", "k": 3, "ell": 2,
                               "triplets": []})


# one certificate of each kind and its file, pinned byte for byte
_FORWARDING_PERMS = (Permutation((1, 2, 3, 4)), Permutation((2, 3, 1, 4)),
                     Permutation((3, 1, 2, 4)))
PINNED_CERTIFICATES = {
    "filtering": (
        (9, 4, (FilteringTriplet(1, 2, (4, 3)), FilteringTriplet(1, 5, (6,)),
                FilteringTriplet(7, 8, (9,))), None),
        '{"kind": "filtering", "k": 9, "ell": 4, "triplets": '
        '[[1, 2, [4, 3]], [1, 5, [6]], [7, 8, [9]]]}'),
    "multiplexing": (
        (4, 3, (MultiplexTriplet(4, 1, frozenset({3, 2})),),
         _FORWARDING_PERMS),
        '{"kind": "multiplexing", "k": 4, "ell": 3, "triplets": '
        '[[4, 1, [2, 3]]], "permutations": [[1, 2, 3, 4], [2, 3, 1, 4], '
        '[3, 1, 2, 4]]}'),
    "repetitive": (
        (5, 2, (BindingTriplet(2, 2, frozenset({2, 1})),), _chain_perms()),
        '{"kind": "repetitive", "k": 5, "ell": 2, "triplets": '
        '[[2, 2, [1, 2]]], "permutations": [[1, 2, 3, 4, 5], '
        '[4, 2, 5, 1, 3]]}'),
}


@pytest.mark.parametrize("kind", list(PINNED_CERTIFICATES))
def test_certificate_json_is_pinned_and_round_trips(kind):
    """Sets are written sorted and B in its order; reading the file back
    gives the certificate."""
    (k, ell, triplets, perms), pinned = PINNED_CERTIFICATES[kind]
    data = certificate_to_json(kind, k, ell, triplets, perms)
    assert json.dumps(data) == pinned
    assert certificate_from_json(data) == (kind, k, ell, triplets, perms)


@pytest.mark.parametrize("kind", list(PINNED_CERTIFICATES))
def test_every_validator_rejects_another_kind(kind):
    """A triplet of another kind is a DomainError naming both classes, not
    an AttributeError from the first field it lacks."""
    perms = (Permutation.identity(5), Permutation((2, 1, 3, 4, 5)))
    graph = RestrictionGraph(5, frozenset())
    for other, ((_, _, (wrong, *_), _), _) in PINNED_CERTIFICATES.items():
        if other == kind:
            continue
        checks = {
            "filtering": [lambda: is_filtering_set((wrong,), graph, 2)],
            "multiplexing": [
                lambda: is_multiplexing_set((wrong,), perms, graph),
                lambda: is_good_triplet(wrong, perms, graph)],
            "repetitive": [lambda: is_repetitive_set((wrong,), perms),
                           lambda: is_binding_triplet(wrong, perms)],
        }[kind] + [lambda: certificate_to_json(kind, 5, 2, (wrong,), perms)]
        for check in checks:
            with pytest.raises(DomainError, match=(
                    rf"^a {kind} certificate holds \w+s, "
                    rf"not {type(wrong).__name__}$")):
                check()
