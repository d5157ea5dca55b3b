"""Gradient descent and AdaGrad-norm driven by certificate-derived steps.

The point of these trainers is not speed but verifiability: with the step
size 1 / l_grad_phi every unprojected full-batch step must satisfy the
descent inequality

    phi(theta_j) - phi(theta_{j+1}) >= ||grad phi(theta_j)||^2 / (2 l_grad_phi)

and the traces record enough to check it after the fact.  Objectives are
pluggable so the same loop runs on the network loss and on synthetic test
objectives with a known smoothness constant.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .bounds import ArchitectureSpec
from .network import Sample, batch_backward, batch_forward

__all__ = [
    "NetworkObjective",
    "QuadraticObjective",
    "TrainStep",
    "TrainTrace",
    "TrainerConfig",
    "run_adagrad_norm",
    "run_gd",
]

# allowance for float rounding in the descent comparison; the certified bound
# itself is orders of magnitude above this
_DESCENT_RTOL = 1e-12


class Objective(Protocol):
    dim: int
    n_samples: int

    def value(self, theta: np.ndarray) -> float: ...

    def gradient(self, theta: np.ndarray) -> np.ndarray: ...

    def batch_gradient(self, theta: np.ndarray, indices: np.ndarray) -> np.ndarray: ...


class NetworkObjective:
    """Mean loss of a dense network over a finite dataset.

    value and batch_gradient each run the batched engine once over the
    selected sample rows (repeated indices included).
    """

    def __init__(self, arch: ArchitectureSpec, samples: Sequence[Sample], loss_head) -> None:
        if len(samples) == 0:
            raise ValueError("need at least one sample")
        self.arch = arch
        self.xs = np.stack([s.x for s in samples]).astype(float)
        self.ys = np.stack([s.y for s in samples]).astype(float)
        self.loss_head = loss_head
        self.dim = arch.n_params
        self.n_samples = len(samples)

    def value(self, theta: np.ndarray) -> float:
        _, feats = batch_forward(self.arch, np.asarray(theta, dtype=float)[None], self.xs)
        return math.fsum(
            self.loss_head.value(out, y) for out, y in zip(feats[-1][0], self.ys)
        ) / self.n_samples

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self.batch_gradient(theta, np.arange(self.n_samples))

    def batch_gradient(self, theta: np.ndarray, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=int)
        thetas = np.asarray(theta, dtype=float)[None]
        pres, feats = batch_forward(self.arch, thetas, self.xs[idx])
        seed = self.loss_head.grad_x(feats[-1], self.ys[idx])
        return batch_backward(self.arch, thetas, pres, feats, seed)[0].sum(axis=0) / len(idx)


class QuadraticObjective:
    """phi(theta) = l/2 ||theta||^2, whose gradient has Lipschitz constant l."""

    def __init__(self, l: float, dim: int = 1) -> None:
        if not (l > 0 and math.isfinite(l)):
            raise ValueError("l must be a positive finite real")
        self.l = l
        self.dim = dim
        self.n_samples = 1

    def value(self, theta: np.ndarray) -> float:
        return 0.5 * self.l * float(np.dot(theta, theta))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self.l * np.asarray(theta, dtype=float)

    def batch_gradient(self, theta: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return self.gradient(theta)


@dataclass(frozen=True)
class TrainerConfig:
    """Validated hyperparameters for either trainer.

    For adagrad_norm the certified condition 2 alpha l_grad_phi <
    beta^(1/2 + eps_exponent) is checked in validate() when a constant is
    supplied.
    """

    method: str
    steps: int
    b_omega: float
    seed: int = 0
    batch_size: int | None = None
    alpha: float | None = None
    beta: float | None = None
    eps_exponent: float = 0.0
    projection_shrink: float = 0.999

    def __post_init__(self) -> None:
        if self.method not in ("gd", "adagrad_norm"):
            raise ValueError("method must be 'gd' or 'adagrad_norm'")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if not (self.b_omega > 0 and math.isfinite(self.b_omega)):
            raise ValueError("b_omega must be a positive finite real")
        if not (0.0 < self.projection_shrink <= 1.0):
            raise ValueError("projection_shrink must lie in (0, 1]")
        if self.eps_exponent < 0:
            raise ValueError("eps_exponent must be nonnegative")
        if self.method == "adagrad_norm":
            if self.alpha is None or self.beta is None:
                raise ValueError("adagrad_norm needs alpha and beta")
            if self.alpha <= 0 or self.beta <= 0:
                raise ValueError("alpha and beta must be positive")
            if self.batch_size is not None and self.batch_size < 1:
                raise ValueError("batch_size must be positive")

    def validate(self, l_grad_phi: float) -> None:
        if self.method == "adagrad_norm":
            lhs = 2.0 * (self.alpha or 0.0) * l_grad_phi
            rhs = (self.beta or 0.0) ** (0.5 + self.eps_exponent)
            if not lhs < rhs:
                raise ValueError(
                    f"step-size condition violated: 2*alpha*L = {lhs} >= beta^(1/2+eps) = {rhs}"
                )


@dataclass(frozen=True)
class TrainStep:
    step: int
    phi: float
    grad_norm: float
    step_size: float
    param_norm: float
    descent_ok: bool | None  # None when the step was projected or not checked
    projected: bool


@dataclass
class TrainTrace:
    method: str
    l_grad_phi: float | None
    steps: list[TrainStep] = field(default_factory=list)
    final_phi: float = math.nan
    final_theta: np.ndarray | None = None
    aborted: bool = False
    notes: tuple[str, ...] = ()

    @property
    def n_descent_violations(self) -> int:
        return sum(1 for s in self.steps if s.descent_ok is False)

    @property
    def n_projected(self) -> int:
        return sum(1 for s in self.steps if s.projected)

    def min_grad_curve(self) -> list[float]:
        out: list[float] = []
        cur = math.inf
        for s in self.steps:
            cur = min(cur, s.grad_norm)
            out.append(cur)
        return out

    def rate_curve(self) -> list[float]:
        """sqrt(2 L (phi_0 - phi_best)) / sqrt(j + 1), best-seen phi as proxy.

        Reported for plotting only; the proxy makes the curve conservative
        and it is never asserted against.
        """
        if self.l_grad_phi is None or not self.steps:
            return []
        phi0 = self.steps[0].phi
        best = min(min(s.phi for s in self.steps), self.final_phi)
        gap = max(0.0, phi0 - best)
        return [
            math.sqrt(2.0 * self.l_grad_phi * gap) / math.sqrt(j + 1.0)
            for j in range(len(self.steps))
        ]

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            wr = csv.writer(fh)
            wr.writerow(["step", "phi", "grad_norm", "step_size", "param_norm", "descent_ok"])
            for s in self.steps:
                flag = "na" if s.descent_ok is None else ("1" if s.descent_ok else "0")
                wr.writerow(
                    [
                        s.step,
                        f"{s.phi:.17g}",
                        f"{s.grad_norm:.17g}",
                        f"{s.step_size:.17g}",
                        f"{s.param_norm:.17g}",
                        flag,
                    ]
                )


def _project_flat(theta: np.ndarray, b_omega: float, shrink: float) -> tuple[np.ndarray, bool]:
    target = shrink * b_omega
    nrm = float(np.linalg.norm(theta))
    if nrm < target or nrm == 0.0:
        return theta, False
    return theta * (target / nrm), True


def run_gd(
    objective: Objective,
    theta0: np.ndarray,
    l_grad_phi: float,
    steps: int,
    b_omega: float,
    shrink: float = 0.999,
) -> TrainTrace:
    """Full-batch descent with the certified step 1 / l_grad_phi.

    Each unprojected step is checked against the descent inequality on the
    spot; a violation is recorded (descent_ok False) rather than raised, so
    callers decide how hard to fail.
    """
    if not (l_grad_phi > 0 and math.isfinite(l_grad_phi)):
        raise ValueError("l_grad_phi must be a positive finite real")
    h = 1.0 / l_grad_phi
    theta, _ = _project_flat(np.asarray(theta0, dtype=float), b_omega, shrink)
    trace = TrainTrace(method="gd", l_grad_phi=l_grad_phi)
    phi = objective.value(theta)
    for j in range(steps):
        if not math.isfinite(phi):
            trace.aborted = True
            trace.notes += ("non-finite objective",)
            break
        g = objective.gradient(theta)
        gn = float(np.linalg.norm(g))
        raw = theta - h * g
        new, projected = _project_flat(raw, b_omega, shrink)
        phi_new = objective.value(new)
        if projected or not math.isfinite(phi_new):
            ok: bool | None = None
        else:
            bound = gn * gn / (2.0 * l_grad_phi)
            slack = _DESCENT_RTOL * (abs(phi) + abs(phi_new) + 1.0)
            ok = (phi - phi_new) >= bound - slack
        trace.steps.append(
            TrainStep(j, phi, gn, h, float(np.linalg.norm(theta)), ok, projected)
        )
        theta, phi = new, phi_new
    trace.final_phi = phi
    trace.final_theta = theta
    return trace


def run_adagrad_norm(
    objective: Objective,
    theta0: np.ndarray,
    alpha: float,
    beta: float,
    eps_exponent: float,
    batch_size: int,
    steps: int,
    seed: int,
    b_omega: float,
    shrink: float = 0.999,
    l_grad_phi: float | None = None,
) -> TrainTrace:
    """Norm-accumulating adaptive schedule h_j = alpha / (beta + sum)^(1/2+eps).

    The accumulator holds the squared norms of the *previous* stochastic
    gradients, so the first step uses alpha / beta^(1/2+eps) and the
    schedule is nonincreasing by construction.  Batches draw indices with
    replacement, except that batch_size >= n_samples means the exact full
    batch (deterministic gradients for the step-size sanity tests).
    """
    cfg = TrainerConfig(
        method="adagrad_norm",
        steps=steps,
        b_omega=b_omega,
        seed=seed,
        batch_size=batch_size,
        alpha=alpha,
        beta=beta,
        eps_exponent=eps_exponent,
        projection_shrink=shrink,
    )
    if l_grad_phi is not None:
        cfg.validate(l_grad_phi)
    rng = np.random.default_rng(seed)
    theta, _ = _project_flat(np.asarray(theta0, dtype=float), b_omega, shrink)
    trace = TrainTrace(method="adagrad_norm", l_grad_phi=l_grad_phi)
    acc = 0.0
    phi = objective.value(theta)
    for j in range(steps):
        if not math.isfinite(phi):
            trace.aborted = True
            trace.notes += ("non-finite objective",)
            break
        if batch_size >= objective.n_samples:
            idx = np.arange(objective.n_samples)
        else:
            idx = rng.integers(0, objective.n_samples, size=batch_size)
        g = objective.batch_gradient(theta, idx)
        gn = float(np.linalg.norm(g))
        h = alpha / (beta + acc) ** (0.5 + eps_exponent)
        raw = theta - h * g
        new, projected = _project_flat(raw, b_omega, shrink)
        trace.steps.append(
            TrainStep(j, phi, gn, h, float(np.linalg.norm(theta)), None, projected)
        )
        acc += gn * gn
        theta = new
        phi = objective.value(theta)
    trace.final_phi = phi
    trace.final_theta = theta
    return trace
