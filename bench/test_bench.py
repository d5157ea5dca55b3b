"""The benchmark's own tests: python3 -m pytest bench"""

import json
import re
from pathlib import Path

import pytest

import run
import tracer
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(tmp_path, workload):
    a = workloads.generate(workload, 7, tmp_path / "a")
    b = workloads.generate(workload, 7, tmp_path / "b")
    c = workloads.generate(workload, 8, tmp_path / "c")
    assert len(a) == workloads.SLOTS
    assert [(o.slot, o.name, o.command) for o in a] == [(o.slot, o.name, o.command) for o in b]
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files_a == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert any(
        (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()
        for name in files_a
    )
    assert sum(o.shipped for o in a) == len(workloads.SHIPPED[workload])


def test_self_times_on_a_hand_built_tree():
    spans = [
        tracer.Span("cli.main", 0.0, 10.0, -1, 0),
        tracer.Span("config.load_config", 1.0, 2.0, 0, 0),
        tracer.Span("bounds.refine_over_layer_budgets", 3.0, 9.0, 0, 0, {"bounds.layer_step": 4.0}),
        tracer.Span("bounds.loss_certificate", 4.0, 5.0, 2, 0),
        tracer.Span("cli.main", 20.0, 21.5, -1, 1, {"code_net.solve_code": 1.25}),
    ]
    assert tracer.self_times(spans) == [3.0, 1.0, 1.0, 1.0, 0.25]
    named = tracer.self_by_name(spans)
    layers = tracer.by_layer(named[0])
    assert layers["cli"] == 3.0 and layers["config"] == 1.0 and layers["bounds"] == 6.0
    assert sum(layers.values()) == 10.0
    assert tracer.by_layer(named[1]) == {**dict.fromkeys(tracer.LAYERS, 0.0), "cli": 0.25, "code_net": 1.25}


def test_recorded_spans_add_up_to_the_op():
    t = tracer.Tracer()

    def leaf(x):
        return x + 1

    def inner(x):
        return sum(leaf_traced(i) for i in range(x))

    leaf_traced = t.wrap(leaf, "network.forward")  # a leaf name: no span of its own
    inner_traced = t.wrap(inner, "bounds.toy")
    assert t.run_op(3, inner_traced, 100) == 5050
    assert [s.name for s in t.spans] == ["cli.main", "bounds.toy"]
    assert t.counters[3]["network.forward.calls"] == 100
    root = t.spans[0]
    layers = tracer.by_layer(tracer.self_by_name(t.spans)[3])
    assert sum(layers.values()) == pytest.approx(root.end - root.start, abs=1e-12)
    assert min(layers.values()) >= 0.0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = [*run.END_TO_END, *run.PER_LAYER, *(w["name"] for w in spec["workloads"])]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_leaves_ten_ops_beyond_it():
    loop = run.Loop(times={s: [float(s), float(s) + 0.5] for s in range(workloads.SLOTS)})
    pct = run.tail_percentile(workloads.SLOTS)
    assert pct == 75.0
    value = loop.quantile(pct / 100)
    assert sum(min(ts) > value for ts in loop.times.values()) == 10
    assert loop.quantile(0.5) == 19.5
