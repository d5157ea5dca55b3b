"""Seeded workload generator for the lipcert benchmark.

A workload is a fixed list of SLOTS command-line operations.  `generate`
writes one JSON config per generated operation and returns the list; the
program under test receives nothing but these configs (and the shipped
configs under configs/, one of which sits among every workload's ops).

Operation sizes are fixed per workload so that the cost of a slot depends on
the slot, not on luck: what drives the cost (parameter count, dataset size,
widths, hidden depth, optimiser, loss kind, activation kinds, Euler work) is
set by the slot index on a grid that spans the workload's range, and
everything else (activation parameters, radii, norms, loss parameters,
controls, seeds) is drawn from the seed.  Draws are never filtered by
outcome.

Only the standard library is used, so the same seed gives byte-identical
configs on any machine and without importing numpy or lipcert.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("falsify", "certify", "train", "ode")

# slots per workload; 40 gives the 75th percentile exactly ten samples
# beyond it, which is the tail the benchmark reports
SLOTS = 40

KINDS = ("tanh", "sigmoid", "smoothed_relu", "saturated_linear")

# fixed op sizes, quoted in BENCHMARK.json and bench/README.md
VERIFY_PAIRS = 250  # pairs per estimate; verify runs two estimates
VERIFY_PARAMS = (10, 4000)  # log grid of parameter counts of generated nets
VERIFY_LARGEST = (16, 64, 64, 4)  # one slot is always this 5.5k-parameter net
REFINE = {"restarts": 1, "iters": 4}
CERTIFY_NORMS = 2
# hidden depth per certify slot; refinement cost grows with depth, so the
# counts put the median and the 75th percentile inside a depth class
# rather than on the step between two
CERTIFY_DEPTHS = (1,) * 12 + (2,) * 12 + (3,) * 10 + (4,) * 5
TRAIN_STEPS = 10
TRAIN_SAMPLES = (16, 128)
ODE_EULER_WORK = 9000  # samples x substeps x active segments per code verify op
ODE_EQUIVALENCE_NETS = 20

SHIPPED = {
    "falsify": [("verify", "configs/tanh_231.json")],
    "certify": [("certify", "configs/tanh_231.json")],
    "train": [("train", "configs/tanh_231.json")],
    "ode": [
        ("code verify", "configs/code_linear.json"),
        ("code equivalence", "configs/code_equivalence.json"),
    ],
}


@dataclass(frozen=True)
class Op:
    """One CLI operation: `lipcert <command> --config <config>`."""

    slot: int
    name: str
    command: tuple[str, ...]
    config: str  # path relative to the checkout root
    shipped: bool

    def argv(self, out: str) -> list[str]:
        argv = [*self.command, "--config", self.config, "--out", out, "--force"]
        if self.command == ("certify",):
            # closed forms of an unbounded activation are +inf by construction;
            # without the flag such ops stop at exit 3 after all their work
            argv.append("--allow-inf")
        return argv


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _r(x: float) -> float:
    return round(x, 4)


def _grid(n: int) -> list[float]:
    """Midpoints of n equal strata of [0, 1): one size per slot, the same for every seed."""
    return [(i + 0.5) / n for i in range(n)]


def _activation(rng: random.Random, kind: str):
    if kind == "smoothed_relu":
        return {"kind": kind, "delta": _r(_log_uniform(rng, 0.1, 1.0))}
    if kind == "saturated_linear":
        return {"kind": kind, "c": _r(rng.uniform(0.5, 2.0)), "r_sat": _r(rng.uniform(1.0, 4.0))}
    return kind


def _widths_for(target: float, slot: int) -> tuple[int, ...]:
    """Dense widths whose parameter count is close to target."""
    m = 1 + slot % 3
    d_in = min(1 + slot * 7 % 16, max(1, int(target) // 8))
    d_out = min(1 + slot % 4, max(1, int(target) // 10))
    # (d_in+1) w + (m-1)(w+1) w + (w+1) d_out = target, solved for w
    a = m - 1
    b = d_in + 1 + (m - 1) + d_out
    c = d_out - target
    w = -c / b if a == 0 else (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a)
    return (d_in, *(max(1, round(w)) for _ in range(m)), d_out)


def _net(rng: random.Random, widths, slot: int) -> dict:
    """Hidden layer u of the net in a slot gets kind (slot + u) mod 4, so every
    run of consecutive slots holds each activation kind equally often."""
    return {
        "widths": list(widths),
        "activations": [
            _activation(rng, KINDS[(slot + u) % len(KINDS)]) for u in range(len(widths) - 2)
        ],
    }


def _falsify(rng: random.Random, u: float | None, slot: int) -> tuple[tuple[str, ...], dict]:
    if u is None:
        widths = VERIFY_LARGEST
    else:
        lo, hi = VERIFY_PARAMS
        widths = _widths_for(lo * (hi / lo) ** u, slot)
    return ("verify",), {
        "seed": rng.randrange(2**31),
        "architecture": _net(rng, widths, slot),
        "bounds": {"b_omega": _r(_log_uniform(rng, 0.1, 2.0))},
        "verify": {"n_pairs": VERIFY_PAIRS, "input_norm": _r(rng.uniform(0.0, 2.0))},
    }


def _loss(rng: random.Random, slot: int) -> dict:
    if slot // 2 % 2:
        return {"kind": "squared_error", "target_bound": _r(rng.uniform(0.5, 2.0))}
    return {"kind": "pseudo_huber", "delta": _r(_log_uniform(rng, 0.3, 3.0))}


def _certify(rng: random.Random, slot: int) -> tuple[tuple[str, ...], dict]:
    hidden = CERTIFY_DEPTHS[slot]
    widths = (rng.randint(1, 8), *(rng.randint(1, 16) for _ in range(hidden)), rng.randint(1, 4))
    return ("certify",), {
        "architecture": _net(rng, widths, slot),
        "bounds": {
            "b_omega": _r(_log_uniform(rng, 0.1, 2.0)),
            "sample_norms": [_r(rng.uniform(0.0, 2.0)) for _ in range(CERTIFY_NORMS)],
        },
        "loss": _loss(rng, slot),
        "refine": {**REFINE, "seed": rng.randrange(2**31)},
    }


def _train(rng: random.Random, u: float, slot: int) -> tuple[tuple[str, ...], dict]:
    lo, hi = TRAIN_SAMPLES
    n = round(lo * (hi / lo) ** u)
    hidden = 1 + slot % 3
    widths = (1 + slot * 3 % 8, *(4 + (slot + 5 * u) * 7 % 13 for u in range(hidden)), 1 + slot % 4)
    train = {
        "algorithm": ("gd", "adagrad_norm")[slot % 2],
        "steps": TRAIN_STEPS,
        "init_seed": rng.randrange(2**31),
        "synthetic": {
            "n_samples": n,
            "input_norm": _r(rng.uniform(0.5, 2.0)),
            "target_norm": _r(rng.uniform(0.5, 2.0)),
            "seed": rng.randrange(2**31),
        },
    }
    if train["algorithm"] == "adagrad_norm":
        train["batch_size"] = (n, n // 2)[slot // 2 % 2]
        train["seed"] = rng.randrange(2**31)
    return ("train",), {
        "architecture": _net(rng, widths, slot),
        "bounds": {"b_omega": _r(_log_uniform(rng, 0.1, 2.0))},
        "loss": _loss(rng, slot),
        "train": train,
    }


def _control(rng: random.Random) -> tuple[dict, int]:
    """Piecewise-constant density plus jumps; returns (control, active segments)."""
    t_final = _r(rng.uniform(0.5, 2.0))
    inner = sorted({_r(rng.uniform(0.05, 0.95) * t_final) for _ in range(rng.randint(0, 2))})
    breaks = [0.0, *inner, t_final]
    values = [_r(rng.uniform(-1.5, 1.5)) for _ in range(len(breaks) - 1)]
    jumps = sorted(
        (_r(rng.uniform(0.05, 1.0) * t_final), _r(rng.uniform(-1.0, 1.0)))
        for _ in range(rng.randint(0, 2))
    )
    grid = sorted({*breaks, *(t for t, _ in jumps)})
    control = {
        "t_final": t_final,
        "density_breaks": breaks,
        "density_values": values,
        "jumps": [list(j) for j in jumps],
    }
    return control, len(grid) - 1


def _code_verify(rng: random.Random, substeps: int) -> tuple[tuple[str, ...], dict]:
    control, segments = _control(rng)
    lo = _r(rng.uniform(-1.0, 0.0))
    hi = _r(rng.uniform(0.0, 1.0))
    code = {
        "field": "linear_scalar",
        "control": control,
        "x": [_r(rng.uniform(-1.5, 1.5))],
        "theta_box": [[lo], [hi]],
        "n_samples": max(2, round(ODE_EULER_WORK / (substeps * segments))),
        "n_substeps": substeps,
        "seed": rng.randrange(2**31),
    }
    if rng.random() < 0.25:
        code.update(
            check_envelopes=True, n_envelope_samples=50, x_box_low=[-1.5], x_box_high=[1.5]
        )
    return ("code", "verify"), {"code": code}


def _code_equivalence(rng: random.Random) -> tuple[tuple[str, ...], dict]:
    return ("code", "equivalence"), {
        "code": {
            "seed": rng.randrange(2**31),
            "n_nets": ODE_EQUIVALENCE_NETS,
            "max_width": rng.randint(2, 8),
            "max_hidden": rng.randint(1, 4),
            "b_omega": _r(_log_uniform(rng, 0.5, 2.0)),
        }
    }


_ENVELOPE_KEYS = ("b_v", "b_theta", "b_theta_theta", "b_x_theta", "b_theta_x", "b_x_x", "lip_x")
_POWER_KEYS = ("p_theta", "p_theta_theta", "p_x_theta", "p_theta_x", "p_x_x")


def _code_certify(rng: random.Random) -> tuple[tuple[str, ...], dict]:
    env = {k: _r(rng.uniform(0.0, 1.0)) for k in _ENVELOPE_KEYS}
    env.update({k: float(rng.randint(0, 2)) for k in _POWER_KEYS})
    code = {
        "envelopes": env,
        "b_upsilon": _r(rng.uniform(0.1, 2.0)),
        "x_norm": _r(rng.uniform(0.0, 2.0)),
    }
    cfg = {"code": code}
    if rng.random() < 0.5:
        code["sample_norms"] = [_r(rng.uniform(0.0, 2.0)) for _ in range(3)]
        cfg["loss"] = {"kind": "pseudo_huber", "delta": _r(_log_uniform(rng, 0.3, 3.0))}
    return ("code", "certify"), cfg


def _drafts(workload: str, rng: random.Random, n: int) -> list:
    if workload == "falsify":
        return [_falsify(rng, u, i) for i, u in enumerate(_grid(n - 1))] + [
            _falsify(rng, None, n - 1)
        ]
    if workload == "certify":
        return [_certify(rng, i) for i in range(n)]
    if workload == "train":
        return [_train(rng, u, i) for i, u in enumerate(_grid(n))]
    if workload == "ode":
        n_eq = n_cert = n // 10
        n_verify = n - n_eq - n_cert
        return (
            [_code_verify(rng, (8, 16, 32, 64)[i % 4]) for i in range(n_verify)]
            + [_code_equivalence(rng) for _ in range(n_eq)]
            + [_code_certify(rng) for _ in range(n_cert)]
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def generate(workload: str, seed: int, dest: Path) -> list[Op]:
    """Write the workload's configs into dest and return its ops in run order."""
    rng = random.Random(f"lipcert-bench:{workload}:{seed}")
    shipped = SHIPPED[workload]
    drafts = _drafts(workload, rng, SLOTS - len(shipped))
    dest.mkdir(parents=True, exist_ok=True)
    entries = [(tuple(c.split()), path, True) for c, path in shipped]
    for i, (command, cfg) in enumerate(drafts):
        name = f"{workload}-{i:02d}"
        path = dest / f"{name}.json"
        path.write_text(json.dumps({"name": name, **cfg}, indent=1, sort_keys=True) + "\n")
        entries.append((command, str(path), False))
    rng.shuffle(entries)
    return [
        Op(slot, ("shipped:" if shipped else "") + Path(cfg).stem, command, cfg, shipped)
        for slot, (command, cfg, shipped) in enumerate(entries)
    ]
