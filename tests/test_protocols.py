"""Built-in protocols: exhaustive correctness against the oracle, exact
costs, pattern conformance, and view legality."""

import pytest

from nofmux import (
    DomainError, Permutation, TruthTable, check_view_legality,
    enumerate_inputs, eq_multi_protocol, eq_two_bit_protocol,
    example1_graph, example1_permutation, example1_protocol,
    example1_variant, example3_filtering_triplets, example3_graph,
    example3_protocol, exhaustive_verify, is_filtering_set, lemma1_protocol,
    corollary1_protocol, measure_cost, myopic_eq_chain, random_truth_table,
)
from nofmux.protocols import FAMILIES


def _assert_exact(spec, f, cost):
    report = exhaustive_verify(spec, f, predicted_bound=cost)
    assert report.correct, report.counterexample
    assert report.measured_worst_case == cost
    return report


# ---------------------------------------------------------------------------
# board-model direct-sum protocols
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,n,seed", [(3, 1, 7), (3, 2, 8), (4, 1, 9)])
def test_broadcast_direct_sum_cost_and_correctness(k, n, seed):
    f = random_truth_table(k, n, seed)
    _assert_exact(lemma1_protocol(f), f, n + k - 1)


def test_broadcast_direct_sum_instance_count():
    spec = lemma1_protocol(TruthTable.eq(4, 1))
    assert spec.ell == 3


@pytest.mark.parametrize("k,n,ell,seed", [(3, 1, 2, 3), (3, 1, 4, 3),
                                          (3, 2, 2, 4)])
def test_blockwise_direct_sum(k, n, ell, seed):
    f = random_truth_table(k, n, seed)
    _assert_exact(corollary1_protocol(f, ell), f, ell * n // (k - 1) + ell)


def test_blockwise_requires_divisibility():
    with pytest.raises(DomainError):
        corollary1_protocol(random_truth_table(3, 1, 1), ell=3)


@pytest.mark.parametrize("k,n", [(3, 1), (4, 1), (5, 2)])
def test_two_bit_equality(k, n):
    _assert_exact(eq_two_bit_protocol(k, n), TruthTable.eq(k, n), 2)


@pytest.mark.parametrize("k,n", [(3, 1), (5, 1)])
def test_multi_instance_equality(k, n):
    spec = eq_multi_protocol(k, n)
    assert spec.ell == (k - 1) // 2
    _assert_exact(spec, TruthTable.eq(k, n), 1 + (k - 1) // 2)


def test_multi_instance_equality_needs_odd_k():
    with pytest.raises(DomainError):
        eq_multi_protocol(4, 1)


# ---------------------------------------------------------------------------
# restricted-model protocols
# ---------------------------------------------------------------------------

def test_forwarding_graph_shape():
    g = example1_graph(4)
    assert g.neighbors(4) == {1}
    assert g.neighbors(1) == {2, 3, 4}
    assert g.neighbors(2) == frozenset()


@pytest.mark.parametrize("n,seed", [(1, 11), (2, 12)])
def test_forwarding_protocol(n, seed):
    f = random_truth_table(4, n, seed)
    _assert_exact(example1_protocol(f), f, n)


def test_forwarding_permutations_fix_last_party():
    for i in range(1, 4):
        pi = example1_permutation(4, i)
        assert pi(4) == 4
        assert pi(1) == i
    assert example1_permutation(4, 1).is_identity()


@pytest.mark.parametrize("i", [1, 2, 3])
def test_forwarding_variants_handle_asymmetric_functions(i):
    f = random_truth_table(4, 1, 13)
    spec = example1_variant(f, i)
    assert spec.output_party == i
    _assert_exact(spec, f, 1)


def test_sparse_equality_graph():
    g = example3_graph(7)
    assert g.neighbors(7) == {1, 2, 3}  # no edges into [4, k-1]
    assert g.neighbors(3) == {1, 2, 4, 5, 6, 7}


@pytest.mark.parametrize("k,n", [(5, 1), (5, 2), (7, 1)])
def test_sparse_equality_protocol(k, n):
    _assert_exact(example3_protocol(k, n), TruthTable.eq(k, n), 1)


def test_sparse_equality_filtering_set():
    for k in (5, 7, 9):
        triplets = example3_filtering_triplets(k)
        assert triplets[0].B == tuple(range(4, k, 2))
        check = is_filtering_set(triplets, example3_graph(k), (k - 1) // 2)
        assert check


# ---------------------------------------------------------------------------
# myopic chains
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("image", [(1, 2, 3, 4, 5), (4, 2, 5, 1, 3),
                                   (1, 2, 3, 4)])
def test_myopic_equality_chain(image):
    k = len(image)
    spec = myopic_eq_chain(k, 1, Permutation(image))
    assert spec.chain == image
    _assert_exact(spec, TruthTable.eq(k, 1), k - 2)


def test_myopic_chain_needs_four_parties():
    with pytest.raises(DomainError):
        myopic_eq_chain(3, 1, Permutation((1, 2, 3)))


# ---------------------------------------------------------------------------
# cross-cutting: obliviousness and legality
# ---------------------------------------------------------------------------

def _small_builtins():
    return [
        lemma1_protocol(random_truth_table(3, 1, 21)),
        corollary1_protocol(random_truth_table(3, 1, 22), ell=2),
        eq_two_bit_protocol(4, 1),
        eq_multi_protocol(5, 1),
        example1_protocol(random_truth_table(4, 1, 23)),
        example1_variant(random_truth_table(4, 1, 23), 3),
        example3_protocol(5, 1),
        myopic_eq_chain(4, 1, Permutation((2, 1, 4, 3))),
    ]


def test_all_builtins_declare_patterns():
    for spec in _small_builtins():
        assert spec.pattern is not None
        measure_cost(spec)  # raises on any pattern violation


def test_all_builtins_pass_bit_flip_legality():
    for spec in _small_builtins():
        for x in enumerate_inputs(spec.k, spec.n, spec.ell):
            check_view_legality(spec, x)


def test_family_registry_names():
    assert set(FAMILIES) == {"lemma1", "corollary1", "eq2", "eq-multi",
                             "example1", "example1-variant", "example3",
                             "myopic-eq"}


def test_special_cases_keep_their_names():
    """lemma1 is one block of corollary1 and example1 the variant Q^1; each
    keeps its own name, which compiled names and reports carry."""
    f = random_truth_table(4, 1, seed=0)
    assert lemma1_protocol(f).name == "lemma1[k=4,n=1]"
    assert corollary1_protocol(f, 3).name == "corollary1[k=4,n=1,ell=3]"
    g = random_truth_table(4, 2, seed=11)
    assert example1_protocol(g).name == "example1[k=4,n=2]"
    assert example1_variant(g, 1).name == "example1-variant[k=4,n=2,i=1]"
