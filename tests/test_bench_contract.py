"""The benchmark tracer (bench/tracer.py) patches lipcert functions by name.

A rename or removal in the package must fail here rather than crash a traced
benchmark run.  The tracer is loaded from its file; nothing under bench/ is
imported as a package.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import lipcert.cli
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
