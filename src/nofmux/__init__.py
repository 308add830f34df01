"""Workbench for deterministic multiparty number-on-forehead protocols:
execution, cost accounting, XOR-multiplexing compilers, and exhaustive
verification against truth-table oracles.
"""

from .combinatorics import (
    BindingTriplet, CheckResult, FilteringCheck, FilteringTriplet, MatrixA,
    MultiplexTriplet, Permutation, build_matrix_a, certificate_from_json,
    certificate_to_json, filtering_to_multiplexing, is_binding_triplet,
    is_filtering_set, is_good_triplet, is_multiplexing_set,
    is_repetitive_set, map_images, permute_graph,
)
from .compiler import (
    Bound, CompilationPlan, check_pattern_robust, compile_symmetric,
    multiplex_combine, myopic_combine, permute_protocol, predicted_bound,
)
from .core import (
    BOARD, BudgetError, CertificateError, CommPattern,
    DEFAULT_BUDGET, DeterminismError, DomainError, InputMatrix,
    LegalityError, MessageRecord, Model, NofmuxError, ObliviousnessError,
    Outgoing, ProtocolSpec, RestrictionGraph, RobustnessError,
    SoundnessError, Transcript, TruthTable, View, bits_to_int,
    board_outputs, check_replay_determinism, check_symmetry, compute_view,
    domain_size, enumerate_inputs, int_to_bits, run_protocol,
    xor_bits,
)
from .protocols import (
    FAMILIES, corollary1_protocol, eq_multi_protocol, eq_two_bit_protocol,
    example1_graph, example1_permutation, example1_protocol,
    example1_variant, example3_filtering_triplets, example3_graph,
    example3_protocol, lemma1_protocol, myopic_eq_chain,
)
from .verifier import (
    CostReport, Counterexample, VerificationReport, check_prefix_free,
    check_view_legality, exhaustive_verify, is_prefix_free, measure_cost,
    messages_at_position, oracle_evaluate, random_truth_table,
    sampled_verify,
)

__version__ = "0.1.0"
