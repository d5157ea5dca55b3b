"""The benchmark tracer (bench/tracer.py) patches lipcert functions by name.

A rename or removal in the package must fail here rather than crash a traced
benchmark run.  The tracer is loaded from its file; nothing under bench/ is
imported as a package.
"""

import importlib
import importlib.util
import json
import sys
import threading
from pathlib import Path

import pytest

import lipcert.cli
import lipcert.empirical
from lipcert.training import NetworkObjective

from conftest import COMMAND_RUNS

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("lipcert_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file executes
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"lipcert.{layer}"), name, None))
    ]
    assert missing == []


def test_traced_objective_methods_exist():
    assert lipcert.cli.NetworkObjective is NetworkObjective
    for name in ("value", "batch_gradient"):
        assert callable(getattr(NetworkObjective, name, None))


def test_install_patches_and_restores(monkeypatch):
    tracer = load_tracer(monkeypatch)
    run_gd = lipcert.cli.run_gd
    with tracer.Tracer().install():
        assert lipcert.cli.run_gd is not run_gd
        assert lipcert.cli.NetworkObjective is not NetworkObjective
    assert lipcert.cli.run_gd is run_gd
    assert lipcert.cli.NetworkObjective is NetworkObjective


@pytest.mark.parametrize("command", sorted(COMMAND_RUNS))
def test_every_report_byte_goes_through_the_config_writers(monkeypatch, tmp_path, command):
    # the benchmark's config.bytes_written counts write_json/write_csv output
    tracer = load_tracer(monkeypatch).Tracer()
    argv, doc = COMMAND_RUNS[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    with tracer.install():
        code = tracer.run_op(0, lipcert.cli.main, [*argv, "--config", str(cfg), "--out", str(out)])
    assert code == 0
    on_disk = sum(p.stat().st_size for p in out.iterdir())
    assert tracer.counters[0]["config.bytes_written"] == on_disk


def test_traced_verify_keeps_every_span_on_the_calling_thread(monkeypatch, tmp_path):
    # 2484 parameters: the output map is called on all 250 rows of a side
    # at once, the Jacobian map (79 KB rows) on chunks of 105, 105 and 40
    # rows whose upper halves run on a second thread, and L_grad_N's first
    # pass is drawn on a worker thread; those threads call no traced name,
    # so the tracer's one span stack stays consistent
    mod = load_tracer(monkeypatch)
    tracer = mod.Tracer()
    doc = {
        "name": "tanh-16-40-40-4",
        "seed": 3,
        "architecture": {"widths": [16, 40, 40, 4], "activations": ["tanh", "tanh"]},
        "bounds": {"b_omega": 1.0},
        "verify": {"n_pairs": 250},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    started = []

    class CountedWorker(lipcert.empirical._Worker):
        def __init__(self, *args):
            started.append(1)
            super().__init__(*args)

    monkeypatch.setattr(lipcert.empirical, "_Worker", CountedWorker)
    threads = threading.active_count()
    with tracer.install():
        code = tracer.run_op(
            0, lipcert.cli.main, ["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
    assert code == 0
    assert len(started) == 1 + 6
    assert threading.active_count() == threads
    layers = mod.by_layer(mod.self_by_name(tracer.spans)[0])
    assert min(layers.values()) >= 0.0
    (root,) = [s for s in tracer.spans if s.parent == -1]
    assert sum(layers.values()) == pytest.approx(root.end - root.start, rel=1e-9)
    counters = tracer.counters[0]
    assert counters["empirical.pairs"] == 2 * 250
    for name, calls in (("empirical.output_map", 2), ("empirical.jacobian_map", 6)):
        assert (counters[name + ".calls"], counters[name + ".rows"]) == (calls, 2 * 250)


def test_traced_certify_counts_only_the_recursions_outside_the_search(monkeypatch, tmp_path):
    # the budget search and every loss average run the float core, which is
    # not a traced name: layer_step counts the recursions of the output
    # bound and the reported tables only (output bound 2, recursive 2,
    # closed form 4 + 2 heads, refinement 2 at the reported split)
    mod = load_tracer(monkeypatch)
    tracer = mod.Tracer()
    config = Path(__file__).resolve().parent.parent / "configs" / "tanh_231.json"
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert lipcert.cli.main(["certify", "--config", str(config), "--out", str(plain)]) == 0
    with tracer.install():
        code = tracer.run_op(
            0, lipcert.cli.main, ["certify", "--config", str(config), "--out", str(traced)]
        )
    assert code == 0
    names = sorted(p.name for p in plain.iterdir())
    assert "certificate_refined.json" in names
    assert names == sorted(p.name for p in traced.iterdir())
    assert all((plain / n).read_bytes() == (traced / n).read_bytes() for n in names)
    layers = mod.by_layer(mod.self_by_name(tracer.spans)[0])
    assert min(layers.values()) >= 0.0
    (root,) = [s for s in tracer.spans if s.parent == -1]
    assert sum(layers.values()) == pytest.approx(root.end - root.start, rel=1e-9)
    counters = tracer.counters[0]
    assert counters["bounds.refine_over_layer_budgets.calls"] == 1
    assert counters["bounds.layer_step.calls"] == 12
