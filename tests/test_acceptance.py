"""Acceptance suite: one test per criterion of ``nofmux.acceptance``, each
printing a pass/fail line.

The large-domain variants (the n=2 forwarding-pipeline sweep over 2^24
inputs and the 7-party equality pipeline over 2^21 inputs) run under the
``slow`` marker; the default run uses the sanctioned n=1 configurations.
"""

import pytest

from nofmux import TruthTable, compile_symmetric, example3_filtering_triplets, \
    example3_graph, example3_protocol, exhaustive_verify, predicted_bound
from nofmux.acceptance import CRITERIA
from nofmux.core import DEFAULT_BUDGET

NUMBERED = [(f"criterion {i}", c) for i, c in enumerate(CRITERIA, start=1)]


@pytest.mark.parametrize("label,criterion", NUMBERED,
                         ids=[label for label, _ in NUMBERED])
def test_acceptance(label, criterion, capsys):
    ok, detail = criterion.check(DEFAULT_BUDGET)
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {criterion.name} -- "
              f"{detail}")
    assert ok, f"{label}: {detail}"


@pytest.mark.slow
def test_acceptance_forwarding_pipeline_full_domain(capsys):
    """Criterion 5 at n=2, the variant ``nofmux demo --full`` runs: cost
    n+ell = 5 over all 2^24 input matrices."""
    [(label, criterion)] = [(label, c) for label, c in NUMBERED if c.full]
    ok, detail = criterion.full(DEFAULT_BUDGET)
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label} (full domain) -- "
              f"{detail}")
    assert ok, detail


@pytest.mark.slow
def test_acceptance_seven_party_equality_pipeline(capsys):
    """The 7-party pipeline: cost 4 = 1+(k-1)/2 over all 2^21 inputs."""
    f = TruthTable.eq(7, 1)
    compiled, plan, _ = compile_symmetric(
        example3_protocol(7, 1), f, example3_graph(7),
        example3_filtering_triplets(7), ell=3)
    bound = predicted_bound(plan)
    report = exhaustive_verify(compiled, f, bound.total)
    ok = report.correct and report.measured_worst_case == bound.total == 4
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] 7-party equality pipeline -- "
              f"cost {report.measured_worst_case} (want 4), "
              f"correct={report.correct}")
    assert ok
