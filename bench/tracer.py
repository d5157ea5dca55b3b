"""Tracing from outside the program: wrap lipcert's public functions in spans.

`Tracer.install()` replaces each traced function at every name through which
a lipcert module looks it up (cli, config, training, bounds, network, ...),
so calls made inside the package are timed too; leaving the context restores
the originals.  A span records (name, start, end, parent, op).  Its name is
"<layer>.<function>", and the layer is the lipcert module that defines the
function.

Functions called tens of thousands of times per op (`LEAVES`) do not open a
span: their time is added to the innermost open span as leaf time under the
function's name.  Self time is then the span's duration minus its child
spans and its leaf time, and leaf time counts entirely as the leaf's layer,
which keeps memory flat while per-layer self times still add up to the op's
wall time.  A traced call made while a leaf runs is counted but not timed
into any span, because the leaf's own time already covers it.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("cli", "config", "bounds", "empirical", "network", "training", "code_net")

# module -> functions wrapped there; every other lipcert module that binds the
# same object by name gets the wrapper too
TARGETS = {
    "config": (
        "load_config", "build_architecture", "build_bound_inputs", "build_control",
        "build_field_envelopes", "build_loss", "build_refinement_search",
        "samples_from_config", "resolve_loss_envelope", "write_json", "write_csv",
        "certificate_to_dict", "code_certificate_to_dict", "config_digest",
        "ensure_writable",
    ),
    "bounds": (
        "layer_step", "network_certificate", "loss_certificate", "closed_form_bounds",
        "closed_form_certificate", "refine_over_layer_budgets", "derive_adagrad_params",
    ),
    "empirical": (
        "empirical_lipschitz", "empirical_grad_lipschitz", "network_output_map",
        "network_jacobian_map", "directed_affine_pair", "worst_case_construction",
        "chain_output",
    ),
    "network": (
        "forward", "grad_params", "init_params", "flatten_params", "dataset_norms",
        "loss_head_envelopes",
    ),
    "training": ("run_gd", "run_adagrad_norm"),
    "code_net": (
        "solve_code", "code_certificate", "code_loss_certificate", "verify_envelopes",
        "dnn_as_code", "embed_input", "linear_scalar_field", "total_variation",
    ),
}
LEAVES = {"bounds.layer_step", "network.forward", "network.grad_params", "code_net.solve_code"}

CONFIG_LOAD = {
    "config.load_config", "config.build_architecture", "config.build_bound_inputs",
    "config.build_control", "config.build_field_envelopes", "config.build_loss",
    "config.build_refinement_search", "config.samples_from_config",
    "config.resolve_loss_envelope",
}
CONFIG_WRITE = {"config.write_json", "config.write_csv"}
# the closures these factories return are timed as their own spans
MAP_FACTORIES = {
    "empirical.network_output_map": "empirical.output_map",
    "empirical.network_jacobian_map": "empirical.jacobian_map",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for an op's root
    op: int
    leaf: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Spans and counters of one traced run, kept in memory until `dump`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._in_leaf = False
        self._op = -1

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[self._op][key] += amount

    def run_op(self, op: int, fn, *args):
        """Call fn(*args) as the root span "cli.main" of op."""
        self._op = op
        return self.wrap(fn, "cli.main")(*args)

    def wrap(self, fn, name: str, post=None):
        """Traced version of fn; post(result, args) may replace the result."""
        leaf = name in LEAVES

        def traced(*args, **kwargs):
            if self._in_leaf:
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                self._tally(name, time.perf_counter() - t0)
            elif leaf:
                self._in_leaf = True
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self._in_leaf = False
                    agg = self.spans[self._stack[-1]].leaf
                    agg[name] = agg.get(name, 0.0) + dt
                    self._tally(name, dt)
            else:
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                span = Span(name, time.perf_counter(), 0.0, parent, self._op)
                self.spans.append(span)
                self._stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
                    self._tally(name, span.end - span.start)
            return result if post is None else post(result, args)

        traced.__wrapped__ = fn
        return traced

    def _tally(self, name: str, seconds: float) -> None:
        c = self.counters[self._op]
        c[name + ".calls"] += 1
        c[name + ".s"] += seconds

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def install(self):
        """Patch every traced function in the loaded lipcert modules."""
        mods = [m for n, m in list(sys.modules.items()) if n == "lipcert" or n.startswith("lipcert.")]
        undo: list[tuple[object, str, object]] = []

        def patch(orig, wrapper):
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        undo.append((m, attr, orig))
                        setattr(m, attr, wrapper)

        try:
            for layer, names in TARGETS.items():
                mod = sys.modules[f"lipcert.{layer}"]
                for fname in names:
                    qual = f"{layer}.{fname}"
                    patch(getattr(mod, fname), self.wrap(getattr(mod, fname), qual, self._post(qual)))
            cli = sys.modules["lipcert.cli"]
            undo.append((cli, "NetworkObjective", cli.NetworkObjective))
            cli.NetworkObjective = self._objective_class(cli.NetworkObjective)
            yield self
        finally:
            for m, attr, orig in reversed(undo):
                setattr(m, attr, orig)

    def _objective_class(self, base):
        """Subclass whose value and batch_gradient are spans (gradient delegates)."""
        return type(
            "TracedNetworkObjective",
            (base,),
            {
                "value": self.wrap(base.value, "training.objective"),
                "batch_gradient": self.wrap(base.batch_gradient, "training.objective"),
            },
        )

    def _post(self, qual: str):
        if qual == "empirical.empirical_lipschitz":
            def post(est, args):
                self.count("empirical.pairs", est.n_pairs)
                self.count("empirical.degenerate_pairs", est.n_degenerate)
                return est
        elif qual in MAP_FACTORIES:
            span_name = MAP_FACTORIES[qual]

            def post(f, args):
                traced = self.wrap(f, span_name)

                def rows_counted(thetas):
                    self.count(span_name + ".rows", len(thetas))
                    return traced(thetas)

                return rows_counted
        elif qual in CONFIG_WRITE:
            def post(result, args):
                self.count("config.bytes_written", os.path.getsize(args[0]))
                return result
        elif qual in ("training.run_gd", "training.run_adagrad_norm"):
            def post(trace, args):
                self.count("training.steps", len(trace.steps))
                self.count("training.projected_steps", trace.n_projected)
                return trace
        elif qual == "code_net.solve_code":
            def post(traj, args):
                self.count("code_net.substeps", len(traj.times) - 1)
                return traj
        else:
            post = None
        return post

    # -- output ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "leaf_s": s.leaf,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its child spans and its leaf time."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - child[i] - sum(s.leaf.values()) for i, s in enumerate(spans)]


def self_by_name(spans: list[Span]) -> dict[int, dict[str, float]]:
    """op -> span or leaf name -> self seconds; leaf time is its own self time."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        out[s.op][s.name] += own
        for name, sec in s.leaf.items():
            out[s.op][name] += sec
    return out


def by_layer(named: dict[str, float]) -> dict[str, float]:
    """Fold per-name self seconds into per-layer self seconds."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, sec in named.items():
        out[name.split(".", 1)[0]] += sec
    return out
