"""Tests of the benchmark's span roll-up and tracer wiring.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import types
from pathlib import Path

from pytest import approx

from run import END_TO_END_UNITS, PER_LAYER_UNITS
from tracing import Span, Tracer, busy_seconds, by_run, calls, self_seconds, value_sum

SPANS = [
    Span("optim.run_bcgd", 0, 100, -1, 1),
    Span("losses.gradient_from_parts", 10, 30, 0, 1),
    Span("matcore.svd", 12, 20, 1, 1, 64),
    Span("matcore.svd", 40, 50, 0, 1, 16),
    Span("matcore.svd", 200, 210, -1, 1, 4),
    Span("data.gen_input_gaussian", 300, 320, -1, 2),
    Span("data.reshape_spectrum", 305, 315, 5, 2),
]


def test_rollup_counts_busy_and_self_time():
    runs = by_run(SPANS)
    assert runs == {1: [0, 1, 2, 3, 4], 2: [5, 6]}
    one = runs[1]
    assert calls(SPANS, one, "matcore.svd") == 3
    assert calls(SPANS, one, "matcore.svd", within=("optim.run_bcgd",)) == 2
    assert value_sum(SPANS, one, "matcore.svd") == 84
    assert busy_seconds(SPANS, one, "matcore.svd".__eq__) == approx(28e-9)
    # self time subtracts direct children only: 100 - (20 + 10) ns
    assert self_seconds(SPANS, one, "optim.run_bcgd") == approx(70e-9)
    assert self_seconds(SPANS, one, "losses.gradient_from_parts") == approx(12e-9)
    # a data function nested in another counts once toward the module's busy time
    assert busy_seconds(SPANS, runs[2], lambda n: n.startswith("data.")) == approx(20e-9)


def test_install_patches_every_binding_and_uninstall_restores():
    a = types.ModuleType("pkg.a")
    exec("def leaf(x):\n    return x + 1\n\ndef _private(x):\n    return x\n", a.__dict__)
    b = types.ModuleType("pkg.b")
    b.leaf = a.leaf
    exec("def outer(x):\n    return leaf(x) * 2\n", b.__dict__)
    original_leaf = a.leaf

    tracer = Tracer()
    tracer.run = 7
    tracer.install({"a": a, "b": b}, measures={"a.leaf": lambda args, kwargs: args[0] * 10})
    assert b.outer(1) == 4
    assert a._private(3) == 3
    tracer.uninstall()

    assert a.leaf is original_leaf and b.leaf is original_leaf
    assert [(s.name, s.parent, s.run, s.value) for s in tracer.spans] == [
        ("b.outer", -1, 7, 0),
        ("a.leaf", 0, 7, 10),
    ]
    assert b.outer(1) == 4 and len(tracer.spans) == 2


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
