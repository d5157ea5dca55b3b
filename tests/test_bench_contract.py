"""The benchmark tracer (bench/tracer.py) patches lipcert functions by name.

A rename or removal in the package must fail here rather than crash a traced
benchmark run.  The tracer is loaded from its file; nothing under bench/ is
imported as a package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import lipcert.cli
from lipcert.training import NetworkObjective

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
