"""Empirical lower bounds used to stress-test the certificates.

A certificate is an upper bound on a parameter-space Lipschitz constant, so
any sampled difference quotient must stay below it; the routines here
generate those quotients at scale.  The parameter-space maps (network
output, parameter Jacobian, mean loss gradient) are thin closures over the
batched engine in network, evaluated for a whole chunk of parameter rows at
once; the test suite checks them against a plain per-sample loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .activations import Activation, saturated_linear
from .bounds import ArchitectureSpec
from .network import (
    Params,
    Sample,
    batch_backward,
    batch_forward,
    sample_in_ball,
    unflatten_params,
)

__all__ = [
    "LipschitzEstimate",
    "WorstCasePair",
    "chain_output",
    "directed_affine_pair",
    "empirical_grad_lipschitz",
    "empirical_lipschitz",
    "finite_diff_gradient",
    "loss_gradient_map",
    "network_jacobian_map",
    "network_output_map",
    "worst_case_construction",
]

MODES = ("global_pairs", "local_perturbation", "coordinate", "mixed")


@dataclass
class LipschitzEstimate:
    """Largest sampled difference quotient and where it occurred."""

    max_ratio: float
    argmax_pair: tuple[np.ndarray, np.ndarray] | None
    n_pairs: int
    seed: int
    n_degenerate: int = 0

    def argmax_params(self, arch: ArchitectureSpec) -> tuple[Params, Params]:
        if self.argmax_pair is None:
            raise ValueError("estimate holds no argmax pair")
        a, b = self.argmax_pair
        return unflatten_params(arch, a), unflatten_params(arch, b)


# ---------------------------------------------------------------------------
# batched parameter-space maps


def network_output_map(arch: ArchitectureSpec, x: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Map (K, n_params) parameter rows to (K, l_out) network outputs."""
    xs = np.asarray(x, dtype=float)[None]

    def f(thetas: np.ndarray) -> np.ndarray:
        _, feats = batch_forward(arch, np.asarray(thetas, dtype=float), xs)
        return feats[-1][:, 0]

    return f


def network_jacobian_map(arch: ArchitectureSpec, x: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Map (K, n_params) rows to flattened parameter Jacobians (K, l_out * n_params)."""
    xs = np.asarray(x, dtype=float)[None]
    eye = np.eye(arch.widths[-1])

    def f(thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        k = thetas.shape[0]
        pres, feats = batch_forward(arch, thetas, xs)
        seed = np.broadcast_to(eye, (k,) + eye.shape)
        return batch_backward(arch, thetas, pres, feats, seed).reshape(k, -1)

    return f


def loss_gradient_map(
    arch: ArchitectureSpec, samples: Sequence[Sample], loss_head
) -> Callable[[np.ndarray], np.ndarray]:
    """Map (K, n_params) rows to mean loss gradients (K, n_params)."""
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    xs = np.stack([s.x for s in samples]).astype(float)
    ys = np.stack([s.y for s in samples]).astype(float)

    def f(thetas: np.ndarray) -> np.ndarray:
        # one engine call per sample keeps memory at (K, n_params) however
        # large the dataset; a single call would hold (K, n_samples, n_params)
        thetas = np.asarray(thetas, dtype=float)
        total = np.zeros_like(thetas)
        for x, y in zip(xs, ys):
            pres, feats = batch_forward(arch, thetas, x[None])
            total += batch_backward(arch, thetas, pres, feats, loss_head.grad_x(feats[-1], y))[:, 0]
        return total / len(samples)

    return f


# ---------------------------------------------------------------------------
# pair sampling


def _pair_for_index(
    rng: np.random.Generator, mode: str, dim: int, b_omega: float, h: float
) -> tuple[np.ndarray, np.ndarray]:
    if mode == "global_pairs":
        return (
            sample_in_ball(rng, dim, b_omega),
            sample_in_ball(rng, dim, b_omega),
        )
    # perturbation modes keep the base strictly h away from the boundary so
    # the perturbed point stays inside the open ball
    margin = b_omega - h * (1.0 + 1e-9)
    base = sample_in_ball(rng, dim, margin)
    if mode == "local_perturbation":
        g = rng.standard_normal(dim)
        nrm = float(np.linalg.norm(g))
        step = (h / nrm) * g if nrm > 0 else np.zeros(dim)
    elif mode == "coordinate":
        step = np.zeros(dim)
        j = int(rng.integers(dim))
        step[j] = h if rng.random() < 0.5 else -h
    else:  # pragma: no cover - guarded by caller
        raise ValueError(f"unknown mode {mode!r}")
    return base, base + step


def _mixed_plan(k: int, b_omega: float) -> tuple[str, float]:
    which = k % 4
    if which == 0:
        return "global_pairs", 0.0
    if which == 1:
        return "local_perturbation", 1e-2
    if which == 2:
        return "local_perturbation", 1e-4
    return "coordinate", 1e-3 * b_omega


def empirical_lipschitz(
    f: Callable[[np.ndarray], np.ndarray],
    dim: int,
    b_omega: float,
    n_pairs: int,
    seed: int,
    mode: str = "mixed",
    h: float | None = None,
    chunk: int = 1024,
) -> LipschitzEstimate:
    """Max difference quotient of a batched map over sampled parameter pairs.

    f maps a (K, dim) array of parameter rows to a (K, p) array of outputs.
    Pair k draws all of its randomness from a generator seeded with
    (seed, k), so estimates are independent of chunking and any prefix of
    the pair sequence is reproducible on its own.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    if mode in ("local_perturbation", "coordinate"):
        if h is None:
            h = 1e-3 * b_omega
        if not (0.0 < h < b_omega):
            raise ValueError("h must lie in (0, b_omega)")

    best = -math.inf
    best_pair: tuple[np.ndarray, np.ndarray] | None = None
    n_degenerate = 0
    for start in range(0, n_pairs, chunk):
        stop = min(start + chunk, n_pairs)
        k = stop - start
        a = np.empty((k, dim))
        b = np.empty((k, dim))
        for i, idx in enumerate(range(start, stop)):
            rng = np.random.default_rng([seed, idx])
            if mode == "mixed":
                pair_mode, pair_h = _mixed_plan(idx, b_omega)
            else:
                pair_mode, pair_h = mode, h or 0.0
            a[i], b[i] = _pair_for_index(rng, pair_mode, dim, b_omega, pair_h)
        fa = np.asarray(f(a), dtype=float)
        fb = np.asarray(f(b), dtype=float)
        dn = np.linalg.norm(a - b, axis=1)
        # the arithmetic of np.linalg.norm without its extra (K, p)
        # temporaries; fa itself may alias the caller's array, so no in-place
        diff = fa - fb
        np.multiply(diff, diff, out=diff)
        fn = np.sqrt(np.add.reduce(diff, axis=1))
        ok = dn > 0.0
        n_degenerate += int(np.count_nonzero(~ok))
        if np.any(ok):
            ratios = np.where(ok, fn / np.where(ok, dn, 1.0), -math.inf)
            j = int(np.argmax(ratios))
            if ratios[j] > best:
                best = float(ratios[j])
                best_pair = (a[j].copy(), b[j].copy())
    if best_pair is None:
        raise ValueError("every sampled pair was degenerate")
    return LipschitzEstimate(best, best_pair, n_pairs, seed, n_degenerate)


def empirical_grad_lipschitz(
    grad_f: Callable[[np.ndarray], np.ndarray],
    dim: int,
    b_omega: float,
    n_pairs: int,
    seed: int,
    mode: str = "mixed",
    h: float | None = None,
    chunk: int = 1024,
) -> LipschitzEstimate:
    """Same engine as empirical_lipschitz, applied to a gradient/Jacobian map."""
    return empirical_lipschitz(grad_f, dim, b_omega, n_pairs, seed, mode, h, chunk)


# ---------------------------------------------------------------------------
# directed constructions


def directed_affine_pair(
    arch: ArchitectureSpec, x: np.ndarray, b_omega: float, eps: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Parameter pair realizing the affine map's exact constant sqrt(S^2 + 1).

    For a depth-zero network the tight direction perturbs the weight along
    the rank-one matrix w x^T and the bias along the same output direction
    w; the difference quotient then equals sqrt(||x||^2 + 1) exactly.
    """
    if arch.m != 0:
        raise ValueError("directed affine pair is defined for depth-zero networks")
    x = np.asarray(x, dtype=float)
    if eps is None:
        eps = 1e-3 * b_omega
    l_out, l_in = arch.widths[1], arch.widths[0]
    w_dir = np.zeros(l_out)
    w_dir[0] = 1.0
    d_w = eps * np.outer(w_dir, x)
    d_b = eps * w_dir
    delta = np.concatenate([d_w.ravel(), d_b])
    half = 0.5 * delta
    return -half, half


def finite_diff_gradient(
    f: Callable[[np.ndarray], float], point: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    point = np.asarray(point, dtype=float)
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("h must be a positive finite real")
    g = np.empty_like(point)
    for i in range(point.size):
        e = np.zeros_like(point)
        e[i] = h
        hi = f(point + e)
        lo = f(point - e)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise FloatingPointError("non-finite value in finite difference stencil")
        g[i] = (hi - lo) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# analytic worst case


@dataclass(frozen=True)
class WorstCasePair:
    """Width-one chain and the parameter pair attaining the known ratio."""

    theta: Params
    theta_tilde: Params
    exact_ratio: float
    activation: Activation
    m: int
    b_omega: float


def chain_output(params: Params, activation: Activation, x: float = 0.0) -> float:
    """Evaluate a width-one activated chain (no affine head) at a scalar input."""
    v = float(x)
    for w, b in params.layers:
        v = float(activation(np.array([w[0, 0] * v + b[0]]))[0])
    return v


def worst_case_construction(
    m: int, c: float, r_sat: float, b_omega: float
) -> WorstCasePair:
    """Parameter pair whose difference quotient hits c^m (b/sqrt(m-1))^(m-1).

    Width-one layers with the saturating ramp of slope c: the first layer
    carries opposite small biases +-beta_1 and every later layer multiplies
    by alpha = b_omega / sqrt(m-1), all pre-activations staying inside the
    ramp's exact linear core.  The weights are scaled by (1 - 1e-12) so both
    points are strictly inside the open ball and the bias split stays
    nonzero; the evaluated quotient then matches the closed form to a few
    parts in 1e12.
    """
    if m < 2:
        raise ValueError("the construction needs at least two layers")
    if not (c > 0 and r_sat > 0 and b_omega > 0):
        raise ValueError("c, r_sat and b_omega must be positive")
    if r_sat <= c**m * b_omega**m:
        raise ValueError("need r_sat > c^m * b_omega^m for a linear core")
    shrink = 1.0 - 1e-12
    alpha = shrink * b_omega / math.sqrt(m - 1)
    beta1 = 0.9 * math.sqrt(b_omega**2 - (m - 1) * alpha**2)
    act = saturated_linear(c, r_sat)

    def build(sign: float) -> Params:
        layers = [(np.zeros((1, 1)), np.array([sign * beta1]))]
        for _ in range(m - 1):
            layers.append((np.array([[alpha]]), np.zeros(1)))
        return Params(tuple(layers))

    theta = build(1.0)
    theta_tilde = build(-1.0)

    # confirm the linear core is never left, otherwise the ratio formula lies
    core = r_sat - r_sat / 10.0
    v, pre_max = 0.0, 0.0
    for w, b in theta.layers:
        pre = w[0, 0] * v + b[0]
        pre_max = max(pre_max, abs(pre))
        v = c * pre
    if pre_max >= core:
        raise ValueError("pre-activations leave the linear core; increase r_sat")

    exact = c**m * (b_omega / math.sqrt(m - 1)) ** (m - 1)
    return WorstCasePair(theta, theta_tilde, exact, act, m, b_omega)
