"""Tests of the benchmark itself: seeded plans are deterministic, the
correctness gate is not vacuous, and the tracer attributes time sanely.

    python3 -m pytest bench
"""

import dataclasses
import json

import pytest

import nofmux
import run
import tracing
import workloads
from workloads import DEFAULT_SEED, WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_plan_and_digest(name):
    wl = WORKLOADS[name]
    for seed in (DEFAULT_SEED, 7):
        assert wl.plan(seed) == wl.plan(seed)
        first, second = (
            workloads.transcript_digest(
                wl.digest_specs(wl.build(wl.plan(seed))), limit=64)
            for _ in range(2))
        assert first == second


def test_t3_plans_are_binding_chains_drawn_by_seed():
    wl = WORKLOADS["t3-myopic"]
    assert wl.plan(DEFAULT_SEED) == (4, 2, 5, 1, 3, 6, 7)
    chains = set(workloads.t3_chains())
    plans = {wl.plan(seed) for seed in range(1, 11)}
    assert plans <= chains and len(plans) > 1
    digests = {workloads.transcript_digest(
        wl.digest_specs(wl.build(plan)), limit=256) for plan in plans}
    assert len(digests) == len(plans)


def test_legality_plan_follows_seed():
    wl = WORKLOADS["legality"]
    assert wl.plan(1) != wl.plan(2)
    assert WORKLOADS["t2-equality"].plan(1) == WORKLOADS["t2-equality"].plan(2)


def flip_first_output(art):
    """The compiled protocol with instance 1's output bit inverted."""
    spec = art.spec

    def output_rule(views, inbox, board):
        outputs = dict(spec.output_rule(views, inbox, board))
        outputs[1] ^= 1
        return outputs

    return dataclasses.replace(
        art, spec=dataclasses.replace(spec, output_rule=output_rule))


@pytest.mark.parametrize("name", ["t2-equality", "t3-myopic"])
def test_wrong_output_fails_the_run(name):
    result = run.timed_run(WORKLOADS[name], DEFAULT_SEED, seconds=0,
                           fault=flip_first_output)
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_failed_gate_gives_nonzero_exit_status(monkeypatch, capsys):
    wl = WORKLOADS["t2-equality"]
    build = wl.build
    monkeypatch.setattr(wl, "build", lambda plan, probe=workloads.NO_PROBE:
                        flip_first_output(build(plan, probe)))
    assert run.main(["--workload", wl.name, "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_benchmark_json_names_the_reported_metrics():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in run.PER_LAYER.items()}


def test_tracer_splits_self_time_between_nested_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def body():
        return inner() + inner()

    outer = tracer.wrap("outer", body)
    start = tracing.time.perf_counter()
    outer()
    total = tracing.time.perf_counter() - start
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.edges == {(None, "outer"): 1, ("outer", "inner"): 2}
    assert tracer.self_s["inner"] > 0 and tracer.self_s["outer"] > 0
    assert tracer.self_s["inner"] + tracer.self_s["outer"] <= total


def test_missing_patch_point_is_reported_and_patches_are_undone(monkeypatch):
    monkeypatch.setattr(tracing, "PATCH_POINTS", tracing.PATCH_POINTS + (
        ("nofmux.core", "no_such_function", "core.gone"),))
    original = nofmux.core.run_protocol
    tracer = tracing.Tracer()
    with tracer.installed():
        assert nofmux.core.run_protocol is not original
    assert nofmux.core.run_protocol is original
    assert tracer.missing == ["nofmux.core.no_such_function"]
    assert tracer.missing_layers() == {"core.gone"}
