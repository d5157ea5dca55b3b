"""Gradient descent and AdaGrad-norm driven by certificate-derived steps.

The point of these trainers is not speed but verifiability: with the step
size 1 / l_grad_phi every unprojected full-batch step must satisfy the
descent inequality

    phi(theta_j) - phi(theta_{j+1}) >= ||grad phi(theta_j)||^2 / (2 l_grad_phi)

and the traces record enough to check it after the fact.  Both trainers are
one descent loop that differs only in its step rule, its batch rule and
whether the descent inequality is checked.  Objectives are pluggable so the
same loop runs on the network loss and on synthetic test objectives with a
known smoothness constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from .bounds import ArchitectureSpec, check_adagrad_condition
from .network import Sample, batch_backward, batch_forward, project_to_ball, vector_norm

__all__ = [
    "NetworkObjective",
    "TrainStep",
    "TrainTrace",
    "run_adagrad_norm",
    "run_gd",
]

# allowance for float rounding in the descent comparison; the certified bound
# itself is orders of magnitude above this
_DESCENT_RTOL = 1e-12


class Objective(Protocol):
    n_samples: int

    def value_and_gradient(
        self, theta: np.ndarray, indices: np.ndarray
    ) -> tuple[float, np.ndarray]: ...


class NetworkObjective:
    """Mean loss of a dense network over a finite dataset.

    value_and_gradient runs the batched engine forward once over every
    sample and backward over the selected rows of that same pass (repeated
    indices count twice); value and batch_gradient are its two halves.  The
    full batch, indices equal to arange(n_samples), runs backward on the
    forward pass itself rather than on a row-by-row copy of it.
    """

    def __init__(self, arch: ArchitectureSpec, samples: Sequence[Sample], loss_head) -> None:
        if len(samples) == 0:
            raise ValueError("need at least one sample")
        self.arch = arch
        self.xs = np.stack([s.x for s in samples]).astype(float)
        self.ys = np.stack([s.y for s in samples]).astype(float)
        self.loss_head = loss_head
        self.n_samples = len(samples)
        self._all = np.arange(self.n_samples)

    def _loss(self, outs: np.ndarray) -> float:
        return math.fsum(self.loss_head.values(outs, self.ys).tolist()) / self.n_samples

    def value(self, theta: np.ndarray) -> float:
        _, feats = batch_forward(self.arch, np.asarray(theta, dtype=float)[None], self.xs)
        return self._loss(feats[-1][0])

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self.batch_gradient(theta, np.arange(self.n_samples))

    def batch_gradient(self, theta: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return self.value_and_gradient(theta, indices)[1]

    def value_and_gradient(
        self, theta: np.ndarray, indices: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Mean loss over all samples and mean loss gradient over the indexed rows."""
        idx = np.asarray(indices, dtype=int)
        thetas = np.asarray(theta, dtype=float)[None]
        pres, feats = batch_forward(self.arch, thetas, self.xs)
        phi = self._loss(feats[-1][0])
        ys = self.ys
        if idx.shape != self._all.shape or not (idx == self._all).all():
            pres, feats = [z[:, idx] for z in pres], [h[:, idx] for h in feats]
            ys = ys[idx]
        seed = self.loss_head.grad_x(feats[-1], ys)
        grad = batch_backward(self.arch, thetas, pres, feats, seed)[0].sum(axis=0) / len(idx)
        return phi, grad


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
    steps: list[TrainStep] = field(default_factory=list)
    final_phi: float = math.nan
    final_theta: np.ndarray | None = None
    aborted: bool = False

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


def _descend(
    objective: Objective,
    theta0: np.ndarray,
    steps: int,
    b_omega: float,
    shrink: float,
    step_size: Callable[[float], float],
    batch: Callable[[], np.ndarray],
    checked_l_grad_phi: float | None,
) -> TrainTrace:
    """The descent loop behind both trainers.

    step_size maps the current gradient norm to the step; batch returns the
    sample indices of the next gradient.  Every iterate costs one
    value_and_gradient call.  Given checked_l_grad_phi, each unprojected
    step is checked against the descent inequality for it; a violation, a
    step to a non-finite objective included, is recorded (descent_ok False)
    rather than raised.  A non-finite initial objective raises ValueError.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    theta, _ = project_to_ball(np.asarray(theta0, dtype=float), b_omega, shrink)
    trace = TrainTrace()
    phi, g = objective.value_and_gradient(theta, batch())
    if not math.isfinite(phi):
        raise ValueError(f"the objective at the initial iterate is {phi}, not finite")
    for j in range(steps):
        if not math.isfinite(phi):
            trace.aborted = True
            break
        gn = vector_norm(g)
        h = step_size(gn)
        new, projected = project_to_ball(theta - h * g, b_omega, shrink)
        phi_new, g_new = objective.value_and_gradient(new, batch())
        ok: bool | None = None
        if checked_l_grad_phi is not None and not projected:
            # with phi_new = inf the slack is inf too, so finiteness is tested first
            bound = gn * gn / (2.0 * checked_l_grad_phi)
            slack = _DESCENT_RTOL * (abs(phi) + abs(phi_new) + 1.0)
            ok = math.isfinite(phi_new) and (phi - phi_new) >= bound - slack
        trace.steps.append(
            TrainStep(j, phi, gn, h, vector_norm(theta), ok, projected)
        )
        theta, phi, g = new, phi_new, g_new
    trace.final_phi = phi
    trace.final_theta = theta
    return trace


def run_gd(
    objective: Objective,
    theta0: np.ndarray,
    l_grad_phi: float,
    steps: int,
    b_omega: float,
    shrink: float = 0.999,
) -> TrainTrace:
    """Full-batch descent with the certified step 1 / l_grad_phi, descent-checked."""
    if not (l_grad_phi > 0 and math.isfinite(l_grad_phi)):
        raise ValueError("l_grad_phi must be a positive finite real")
    h = 1.0 / l_grad_phi
    full = np.arange(objective.n_samples)
    return _descend(
        objective, theta0, steps, b_omega, shrink,
        lambda gn: h, lambda: full, checked_l_grad_phi=l_grad_phi,
    )


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
    batch (deterministic gradients for the step-size sanity tests).  When
    l_grad_phi is given, 2 alpha l_grad_phi < beta^(1/2 + eps) is enforced;
    steps are never descent-checked.
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    if eps_exponent < 0:
        raise ValueError("eps_exponent must be nonnegative")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if l_grad_phi is not None:
        check_adagrad_condition(alpha, beta, eps_exponent, l_grad_phi)
    acc = 0.0

    def step_size(gn: float) -> float:
        nonlocal acc
        h = alpha / (beta + acc) ** (0.5 + eps_exponent)
        acc += gn * gn
        return h

    n = objective.n_samples
    full = np.arange(n)
    rng = np.random.default_rng(seed)

    def batch() -> np.ndarray:
        return full if batch_size >= n else rng.integers(0, n, size=batch_size)

    return _descend(
        objective, theta0, steps, b_omega, shrink,
        step_size, batch, checked_l_grad_phi=None,
    )
