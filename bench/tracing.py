"""Per-layer tracing from outside the program.

Spans wrap the public functions of each ``nofmux`` module where its
callers look them up: modules import these names by value, so a function
is patched in every consuming module's namespace.  Protocol closures are
wrapped with ``dataclasses.replace`` on the frozen ``ProtocolSpec``.  A
layer's self time is its spans' time minus the time of spans nested in
them.  Spans are folded into per-layer totals as they close, because a
full-domain sweep opens millions of them.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

# (module, attribute path, layer).  The ``nofmux`` rows are the calls the
# benchmark itself makes; the others are calls between modules.
PATCH_POINTS = (
    ("nofmux", "compile_symmetric", "compiler.compile"),
    ("nofmux", "myopic_combine", "compiler.compile"),
    ("nofmux", "predicted_bound", "compiler.bound"),
    ("nofmux", "measure_cost", "core.measure"),
    ("nofmux", "exhaustive_verify", "verifier.sweep"),
    ("nofmux", "check_view_legality", "verifier.legality"),
    ("nofmux.core", "run_protocol", "core.runner"),
    ("nofmux.core", "compute_view", "core.views"),
    ("nofmux.core", "assert_pattern", "core.pattern"),
    ("nofmux.core", "InputMatrix.from_index", "core.decode"),
    ("nofmux.verifier", "run_protocol", "core.runner"),
    ("nofmux.verifier", "assert_pattern", "core.pattern"),
    ("nofmux.verifier", "oracle_evaluate", "verifier.oracle"),
    ("nofmux.compiler", "run_protocol", "core.runner"),
    ("nofmux.compiler", "multiplex_combine", "compiler.compile"),
    ("nofmux.compiler", "check_symmetry", "core.symmetry"),
    ("nofmux.compiler", "check_prefix_free", "verifier.prefix"),
    ("nofmux.compiler", "build_matrix_a", "combinatorics.certificate"),
    ("nofmux.compiler", "filtering_to_multiplexing",
     "combinatorics.certificate"),
    ("nofmux.compiler", "is_multiplexing_set", "combinatorics.certificate"),
    ("nofmux.compiler", "is_repetitive_set", "combinatorics.certificate"),
    ("nofmux.combinatorics", "is_filtering_set",
     "combinatorics.certificate"),
)

# Functions that return a ProtocolSpec whose closures form a layer.
SPEC_FACTORIES = (
    ("nofmux.compiler", "permute_protocol", "compiler.permute"),
)


class Snapshot(NamedTuple):
    self_s: dict
    calls: dict
    edges: dict

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        def diff(a, b):
            return {key: a[key] - b.get(key, 0) for key in a}
        return Snapshot(diff(self.self_s, other.self_s),
                        diff(self.calls, other.calls),
                        diff(self.edges, other.edges))


class Tracer:
    """Accumulates self time and call counts per layer, and call counts per
    (parent layer, layer) edge."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.edges = defaultdict(int)
        self.missing: list[str] = []
        self.marks: dict[str, Snapshot] = {}
        self._stack: list[list] = []  # [layer, time of nested spans]

    def wrap(self, layer: str, fn):
        stack, self_s = self._stack, self.self_s
        calls, edges, clock = self.calls, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                self_s[layer] += took - frame[1]
                calls[layer] += 1
                if parent is None:
                    edges[None, layer] += 1
                else:
                    edges[parent[0], layer] += 1
                    parent[1] += took
        return traced

    def spec(self, layer: str, spec):
        """The protocol with its closures traced as ``layer``."""
        return dataclasses.replace(
            spec, next_message=self.wrap(layer, spec.next_message),
            output_rule=self.wrap(layer, spec.output_rule))

    def snapshot(self) -> Snapshot:
        return Snapshot(dict(self.self_s), dict(self.calls), dict(self.edges))

    def mark(self, phase: str) -> None:
        self.marks[phase] = self.snapshot()

    def _factory(self, layer: str, fn):
        @functools.wraps(fn)
        def traced_factory(*args, **kwargs):
            return self.spec(layer, fn(*args, **kwargs))
        return traced_factory

    @contextmanager
    def installed(self):
        """Patch every span point; restore the originals on exit.  A point
        that no longer exists is recorded in ``missing``."""
        undo = []
        points = [(m, a, layer, self.wrap) for m, a, layer in PATCH_POINTS]
        points += [(m, a, layer, self._factory)
                   for m, a, layer in SPEC_FACTORIES]
        try:
            for module, path, layer, wrapper in points:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                try:
                    for name in parents:
                        owner = getattr(owner, name)
                    raw = vars(owner)[attr] if isinstance(owner, type) \
                        else getattr(owner, attr)
                except (AttributeError, KeyError):
                    self.missing.append(f"{module}.{path}")
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(wrapper(layer, raw.__func__))
                else:
                    patched = wrapper(layer, raw)
                setattr(owner, attr, patched)
                undo.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def missing_layers(self) -> set[str]:
        points = PATCH_POINTS + SPEC_FACTORIES
        return {layer for m, a, layer in points if f"{m}.{a}" in self.missing}
