"""Certified parameter-space Lipschitz constants for dense feed-forward nets.

Everything here treats the *parameters* as the variable: for a fixed input of
norm S and parameter vectors confined to the open ball of radius b_omega (in
the concatenated Frobenius norm over all weight matrices and bias vectors),
we propagate upper bounds on

  * the Lipschitz constant of the layer map  theta -> N_u(theta, x),
  * the Lipschitz constant of its parameter Jacobian theta -> grad N_u,
  * the sup norm of the layer output, and
  * the sup norm of the Jacobian itself (which coincides with the first
    Lipschitz constant).

One composition step moves all four constants through "activation applied to
an affine map of the previous features".  Chaining the step over the hidden
layers, then once more with an identity head and once with a scalar loss
head, yields certificates for the network, its Jacobian, the per-sample loss
and the dataset loss gradient.  All arithmetic is plain Python floats;
overflow saturates to +inf and is reported via a certificate flag instead of
raising.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .activations import Activation, ActivationEnvelope

__all__ = [
    "ArchitectureSpec",
    "BoundInputs",
    "Certificate",
    "ClosedFormBounds",
    "LayerBounds",
    "LossEnvelope",
    "NetworkBounds",
    "RefinementSearch",
    "SampleMoments",
    "check_adagrad_condition",
    "closed_form_bounds",
    "closed_form_certificate",
    "closed_form_network_bounds",
    "derive_adagrad_params",
    "derive_gd_step",
    "input_base",
    "layer_step",
    "loss_certificate",
    "network_certificate",
    "refine_over_layer_budgets",
]


def _prod(*xs: float) -> float:
    """Product where an exact zero factor wins over inf (a dropped bound term)."""
    return math.prod(xs, start=1.0) if all(xs) else 0.0


def _sq(x: float) -> float:
    return x * x


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class ArchitectureSpec:
    """Layer widths [l_0, ..., l_{m+1}] plus the m hidden activations.

    The final layer is always affine with identity head; it has a width but
    no activation, hence len(activations) == len(widths) - 2.
    """

    widths: tuple[int, ...]
    activations: tuple[Activation, ...]

    def __post_init__(self) -> None:
        if len(self.widths) < 2:
            raise ValueError("need at least input and output widths")
        if any((not isinstance(w, int)) or w < 1 for w in self.widths):
            raise ValueError("widths must be positive integers")
        if len(self.activations) != len(self.widths) - 2:
            raise ValueError(
                f"expected {len(self.widths) - 2} activations for "
                f"{len(self.widths)} widths, got {len(self.activations)}"
            )

    @property
    def m(self) -> int:
        """Number of hidden (activated) layers."""
        return len(self.widths) - 2

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def n_params(self) -> int:
        return sum(
            o * i + o for i, o in zip(self.widths[:-1], self.widths[1:])
        )


@dataclass(frozen=True)
class SampleMoments:
    """Second and fourth raw moments of the input norm distribution."""

    e_s2: float
    e_s4: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.e_s2) and math.isfinite(self.e_s4)):
            raise ValueError("moments must be finite")
        if self.e_s2 < 0 or self.e_s4 < 0:
            raise ValueError("moments must be nonnegative")
        if self.e_s4 < self.e_s2 * self.e_s2:
            raise ValueError("E[S^4] >= E[S^2]^2 must hold")


@dataclass(frozen=True)
class BoundInputs:
    """Parameter-domain description shared by all certificate routines.

    layer_budgets, when given, assigns each layer its own radius D_u with
    sum(D_u^2) <= b_omega^2; certificates computed from such a split are
    valid on the whole b_omega ball because each layer's parameter block is
    separately inside its budget.
    """

    b_omega: float
    layer_budgets: tuple[float, ...] | None = None
    sample_norms: tuple[float, ...] | None = None
    moments: SampleMoments | None = None

    def __post_init__(self) -> None:
        if not (self.b_omega > 0 and math.isfinite(self.b_omega)):
            raise ValueError("b_omega must be a positive finite real")
        if self.layer_budgets is not None:
            if any(d < 0 or not math.isfinite(d) for d in self.layer_budgets):
                raise ValueError("layer budgets must be finite and nonnegative")
            total = math.fsum(d * d for d in self.layer_budgets)
            if total > self.b_omega**2 * (1.0 + 1e-12):
                raise ValueError("sum of squared layer budgets exceeds b_omega^2")
        if self.sample_norms is not None:
            if len(self.sample_norms) == 0:
                raise ValueError("sample_norms must be nonempty when given")
            if any(s < 0 or not math.isfinite(s) for s in self.sample_norms):
                raise ValueError("sample norms must be finite and nonnegative")

    def budgets_for(self, arch: ArchitectureSpec) -> tuple[float, ...]:
        n = arch.m + 1
        if self.layer_budgets is None:
            return (self.b_omega,) * n
        if len(self.layer_budgets) != n:
            raise ValueError(
                f"expected {n} layer budgets, got {len(self.layer_budgets)}"
            )
        return self.layer_budgets


@dataclass(frozen=True)
class LossEnvelope:
    """Derivative bounds for a scalar loss head g(., y).

    g_p_max / g_pp_max bound the gradient norm and the (flattened) Hessian
    norm in the network-output argument; lip_g / lip_dg are the Lipschitz
    constants of g and of its gradient used by the controlled-ODE route.
    """

    g_p_max: float
    g_pp_max: float
    lip_g: float | None = None
    lip_dg: float | None = None

    def __post_init__(self) -> None:
        for name in ("g_p_max", "g_pp_max"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative")
        for name in ("lip_g", "lip_dg"):
            v = getattr(self, name)
            if v is not None and (not math.isfinite(v) or v < 0):
                raise ValueError(f"{name} must be finite and nonnegative")

    @property
    def lip_g_value(self) -> float:
        return self.g_p_max if self.lip_g is None else self.lip_g

    @property
    def lip_dg_value(self) -> float:
        return self.g_pp_max if self.lip_dg is None else self.lip_dg


@dataclass(frozen=True)
class LayerBounds:
    """Certified constants after u composition steps.

    l_n       Lipschitz constant of theta -> N_u
    l_grad_n  Lipschitz constant of theta -> grad_theta N_u
    b_n       sup-norm bound on the layer output (may be +inf)
    alpha     block-perturbation part of l_grad_n^2 (new layer's parameters)
    beta      carried part of l_grad_n^2 (perturbations below this layer)
    """

    l_n: float
    l_grad_n: float
    b_n: float
    alpha: float
    beta: float

    @property
    def b_grad_n(self) -> float:
        """Sup-norm bound on the parameter Jacobian, which l_n also bounds."""
        return self.l_n


def input_base(s: float) -> LayerBounds:
    """Depth-zero bounds: the constant feature map x with norm S."""
    if s < 0 or not math.isfinite(s):
        raise ValueError("input norm must be finite and nonnegative")
    return LayerBounds(0.0, 0.0, s, 0.0, 0.0)


def _head_constants(env: ActivationEnvelope | LossEnvelope | None) -> tuple[float, float, float]:
    """Map the composition head to (c1, c2, b3) derivative/value bounds."""
    if env is None:
        return 1.0, 0.0, math.inf
    if isinstance(env, ActivationEnvelope):
        return env.sigma_p_max, env.sigma_pp_max, env.sigma_max
    if isinstance(env, LossEnvelope):
        return env.g_p_max, env.g_pp_max, math.inf
    raise TypeError(f"unsupported envelope type: {type(env)!r}")


def layer_step(
    prev: LayerBounds,
    env: ActivationEnvelope | LossEnvelope | None,
    width_out: int,
    budget: float,
) -> LayerBounds:
    """One composition step: head applied to an affine map of the previous features.

    prev carries the constants of the feature map being fed in (use
    input_base(S) for the raw input).  env supplies the head's derivative
    bounds: an activation, a loss envelope (then width_out must be 1), or
    None for an identity head.  budget is the radius allotted to the new
    affine layer's own parameters.
    """
    if width_out < 1:
        raise ValueError("width_out must be a positive integer")
    if budget < 0 or math.isnan(budget):
        raise ValueError("budget must be nonnegative")
    if prev.l_n < 0 or prev.l_grad_n < 0 or prev.b_n < 0:
        name = "l_n" if prev.l_n < 0 else "l_grad_n" if prev.l_grad_n < 0 else "b_n"
        raise ValueError(f"prev.{name} must be nonnegative")
    c1, c2, b3 = _head_constants(env)

    l1, l2 = prev.l_n, prev.l_grad_n
    b1, b2 = prev.b_n, prev.l_n
    d = float(budget)
    n3 = float(width_out)

    # overflow can push squared budgets to inf; every product with a zero
    # bound factor must still collapse to zero, so the outer factors go
    # through _prod as well
    l_chi = _prod(c1, math.sqrt(_prod(d, d, l1, l1) + b1 * b1 + 1.0))

    a_term = _prod(
        3.0 * _prod(l1, l1), _prod(c1, c1, n3) + _prod(c2, c2, d, d, b1, b1)
    ) + 2.0 * _prod(c2, c2, d, d, l1, l1)
    b_term = _prod(_prod(c2, c2), b1 * b1 + 1.0, 3.0 * b1 * b1 + 2.0)
    alpha = max(a_term, b_term)

    cross = _prod(n3, c1, d, l2) + _prod(b2, c2, d, d, l1)
    carry = _prod(
        _prod(b2, b2), _sq(_prod(n3, c1) + _prod(d, c2, math.sqrt(b1 * b1 + 1.0)))
    )
    beta = cross * cross + carry

    l_grad_chi = math.sqrt(alpha + beta)

    b_chi = math.sqrt(n3) * b3  # +inf for a head without a value bound

    return LayerBounds(l_chi, l_grad_chi, b_chi, alpha, beta)


@dataclass(frozen=True)
class NetworkBounds:
    """Full recursion output: one LayerBounds per hidden layer plus the head."""

    per_layer: tuple[LayerBounds, ...]
    final: LayerBounds
    s: float
    budgets: tuple[float, ...]

    @property
    def l_n(self) -> float:
        return self.final.l_n

    @property
    def l_grad_n(self) -> float:
        return self.final.l_grad_n

    @property
    def last_hidden(self) -> LayerBounds:
        return self.per_layer[-1] if self.per_layer else input_base(self.s)


def _network_bounds(
    arch: ArchitectureSpec, budgets: Sequence[float], s: float
) -> NetworkBounds:
    """Recursion engine over explicit per-layer radii (no sphere validation)."""
    m = arch.m
    if len(budgets) != m + 1:
        raise ValueError(f"expected {m + 1} budgets, got {len(budgets)}")
    state = input_base(s)
    per_layer: list[LayerBounds] = []
    for u in range(1, m + 1):
        env = arch.activations[u - 1].envelope
        lb = layer_step(state, env, arch.widths[u], budgets[u - 1])
        if env.kind == "smoothed_relu":
            # unbounded activation: track the output bound through the affine
            # growth instead, offset by the smoothing gap; the gap is per
            # coordinate, so in the Euclidean norm it grows by sqrt(width)
            gap = math.sqrt(arch.widths[u]) * env.relu_epsilon
            b_n = budgets[u - 1] * math.sqrt(state.b_n * state.b_n + 1.0) + gap
            lb = LayerBounds(lb.l_n, lb.l_grad_n, b_n, lb.alpha, lb.beta)
        per_layer.append(lb)
        state = lb
    final = layer_step(state, None, arch.widths[m + 1], budgets[m])
    return NetworkBounds(tuple(per_layer), final, s, tuple(float(b) for b in budgets))


def network_certificate(
    arch: ArchitectureSpec, inputs: BoundInputs, s: float
) -> NetworkBounds:
    """Layer-by-layer constants for a single input of norm s."""
    return _network_bounds(arch, inputs.budgets_for(arch), s)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """Bundle of certified constants for one architecture/loss/dataset triple.

    per_layer and the *_final constants are evaluated at the largest input
    norm in the dataset (so they hold for every sample simultaneously);
    l_phi / l_grad_phi are dataset averages of the per-sample loss constants,
    or None for a certificate of the network alone.  b_grad_phi equals l_phi:
    a bound on the loss Lipschitz constant is also a bound on the loss
    gradient's norm.  A refined certificate also holds lower_estimate (its
    l_grad_phi at layer_budgets) and the box splits its l_grad_phi search used.
    """

    per_layer: tuple[LayerBounds, ...]
    l_n_final: float
    l_grad_n_final: float
    l_phi: float | None
    l_grad_phi: float | None
    method: str
    inputs_digest: str
    flags: tuple[str, ...] = ()
    layer_budgets: tuple[float, ...] | None = None
    lower_estimate: float | None = None
    splits: int | None = None

    @property
    def b_grad_phi(self) -> float | None:
        return self.l_phi

    @property
    def gap(self) -> float | None:
        """Relative distance of l_grad_phi above lower_estimate (refined only)."""
        lower, upper = self.lower_estimate, self.l_grad_phi
        return None if lower is None else 0.0 if lower >= upper else 1.0 - lower / upper

    @property
    def overflowed(self) -> bool:
        return "overflow" in self.flags


def _digest(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _certificate_digest(
    arch: ArchitectureSpec,
    inputs: BoundInputs,
    loss: LossEnvelope | None,
    norms: Sequence[float] | None,
    moments: SampleMoments | None,
    method: str,
) -> str:
    payload = {
        "widths": list(arch.widths),
        "activations": [
            {
                "kind": a.envelope.kind,
                "sigma_max": a.envelope.sigma_max,
                "sigma_p_max": a.envelope.sigma_p_max,
                "sigma_pp_max": a.envelope.sigma_pp_max,
                "relu_epsilon": a.envelope.relu_epsilon,
            }
            for a in arch.activations
        ],
        "b_omega": inputs.b_omega,
        "layer_budgets": None if inputs.layer_budgets is None else list(inputs.layer_budgets),
        "loss": None if loss is None else [
            loss.g_p_max, loss.g_pp_max, loss.lip_g_value, loss.lip_dg_value
        ],
        "norms": None if norms is None else list(norms),
        "moments": None if moments is None else [moments.e_s2, moments.e_s4],
        "method": method,
    }
    return _digest(payload)


def _resolve_norms(
    inputs: BoundInputs, dataset_norms: Sequence[float] | None
) -> tuple[tuple[float, ...] | None, SampleMoments | None]:
    if dataset_norms is not None:
        # BoundInputs validates them
        inputs = replace(inputs, sample_norms=tuple(float(s) for s in dataset_norms))
    if inputs.sample_norms is not None:
        return inputs.sample_norms, None
    if inputs.moments is not None:
        return None, inputs.moments
    raise ValueError("no sample norms or moments supplied")


def _overflow_flags(*values: float | None) -> tuple[str, ...]:
    return ("overflow",) if any(v is not None and math.isinf(v) for v in values) else ()


def _head_averages(
    loss: LossEnvelope, d_head: float, hidden: Sequence[LayerBounds]
) -> tuple[float, float]:
    """Dataset means of the per-sample loss constants (L_phi, L_grad_phi)."""
    heads = [layer_step(h, loss, 1, d_head) for h in hidden]
    return (
        math.fsum(h.l_n for h in heads) / len(heads),
        math.fsum(h.l_grad_n for h in heads) / len(heads),
    )


def _sample_averages(
    loss: LossEnvelope | None,
    d_head: float,
    norms: Sequence[float],
    bounds_at: Callable[[float], NetworkBounds],
) -> tuple[NetworkBounds, tuple[float | None, float | None]]:
    """Bounds at the largest norm and the _head_averages over the sample norms.

    bounds_at(s) runs once per distinct norm; without a loss the means are None.
    """
    nbs = {s: bounds_at(s) for s in dict.fromkeys(norms)}
    if loss is None:
        return nbs[max(norms)], (None, None)
    return nbs[max(norms)], _head_averages(loss, d_head, [nbs[s].last_hidden for s in norms])


def _averaged_certificate(
    arch: ArchitectureSpec,
    inputs: BoundInputs,
    loss: LossEnvelope | None,
    norms: Sequence[float],
    nb_max: NetworkBounds,
    averages: tuple[float | None, float | None],
    method: str,
) -> Certificate:
    """Loss constants averaged over the norms; network constants at the largest.

    nb_max and averages are the two results of _sample_averages; without a
    loss the certificate is the network's alone (l_phi, l_grad_phi None).
    """
    l_phi, l_grad_phi = averages
    return Certificate(
        per_layer=nb_max.per_layer,
        l_n_final=nb_max.l_n,
        l_grad_n_final=nb_max.l_grad_n,
        l_phi=l_phi,
        l_grad_phi=l_grad_phi,
        method=method,
        inputs_digest=_certificate_digest(arch, inputs, loss, norms, None, method),
        flags=_overflow_flags(nb_max.l_n, nb_max.l_grad_n, l_phi, l_grad_phi),
        layer_budgets=inputs.layer_budgets,
    )


def loss_certificate(
    arch: ArchitectureSpec,
    inputs: BoundInputs,
    loss: LossEnvelope | None,
    dataset_norms: Sequence[float] | None = None,
) -> Certificate:
    """Recursive certificate for the mean loss over a finite dataset.

    With explicit sample norms the per-sample constants are averaged with
    equal weights in dataset order; with loss None the certificate is the
    network's alone, at the largest norm.  With SampleMoments instead, a
    closed-form polynomial envelope in S^2 is integrated exactly (see
    _moment_certificate).
    """
    norms, moments = _resolve_norms(inputs, dataset_norms)
    budgets = inputs.budgets_for(arch)
    if moments is not None:
        if loss is None:
            raise ValueError("moment mode needs a loss envelope")
        return _moment_certificate(arch, inputs, loss, moments)
    bounds_at = functools.partial(_network_bounds, arch, budgets)
    return _averaged_certificate(
        arch, inputs, loss, norms, *_sample_averages(loss, budgets[-1], norms, bounds_at), "recursive"
    )


# ---------------------------------------------------------------------------
# closed forms


@dataclass(frozen=True)
class ClosedFormBounds:
    """Squared per-layer constants from the depth-explicit formulas."""

    l_n_sq: tuple[float, ...]
    l_grad_n_sq: tuple[float, ...]


def closed_form_bounds(
    arch: ArchitectureSpec, inputs: BoundInputs, s: float
) -> ClosedFormBounds:
    """Depth-explicit geometric-sum bounds on L_{N_u}^2 and L_{grad N_u}^2.

    Uses the uniform maxima of the activation envelopes over the hidden
    layers, so each entry dominates the corresponding recursive constant.
    Unbounded activations push sigma_max to +inf and the bounds saturate.
    """
    b = inputs.b_omega
    return _closed_forms(arch, _network_bounds(arch, (b,) * (arch.m + 1), s))


def _closed_forms(arch: ArchitectureSpec, nb: NetworkBounds) -> ClosedFormBounds:
    """closed_form_bounds given the uniform recursion nb at radius b_omega."""
    m = arch.m
    if m == 0:
        return ClosedFormBounds((), ())
    b, s = nb.budgets[0], nb.s
    bsq = b * b
    ell = float(max(arch.widths[1 : m + 1]))
    sp = max(a.envelope.sigma_p_max for a in arch.activations)
    spp = max(a.envelope.sigma_pp_max for a in arch.activations)
    smax = max(a.envelope.sigma_max for a in arch.activations)

    # value route: ratio bsq*sp^2 per layer, inhomogeneity ell*smax^2 + 1
    r1 = _prod(bsq, sp, sp)
    k_in = _prod(ell, smax, smax) + 1.0
    spsq = sp * sp
    l_n_sq: list[float] = []
    pow_r1 = 1.0
    geo1 = 0.0  # sum_{k=1}^{u-1} r1^{k-1}
    for u in range(1, m + 1):
        first = _prod(pow_r1, spsq, s * s + 1.0)
        l_n_sq.append(first + _prod(geo1, spsq, k_in))
        geo1 += pow_r1
        pow_r1 *= r1

    # gradient route: ratio 2 ell^2 sp^2 bsq, inhomogeneity alpha_j + gamma_j
    r2 = _prod(2.0, ell, ell, spsq, bsq)

    def gamma(j: int) -> float:
        # j >= 2; previous layer's recursive constants
        prev = nb.per_layer[j - 2]
        l_prev, b_prev = prev.l_n, prev.b_n
        t1 = _prod(2.0, l_prev, l_prev, spp, spp, bsq, bsq, l_prev, l_prev)
        t2 = _prod(l_prev, l_prev) * _sq(
            _prod(ell, sp) + _prod(b, spp, math.sqrt(b_prev * b_prev + 1.0))
        )
        return t1 + t2

    # l_grad_n_sq[u] = r2^{u-1} g1 + sum_{k=1}^{u-1} r2^{k-1} (alpha_{u-k+1} + gamma_{u-k+1})
    g1 = _prod(spp, spp, s * s + 1.0, 3.0 * s * s + 2.0)
    l_grad_n_sq: list[float] = []
    for u in range(1, m + 1):
        lead = _prod(g1, *([r2] * (u - 1)))
        pow_r2 = 1.0
        tail = 0.0
        for k in range(1, u):
            j = u - k + 1
            tail += _prod(pow_r2, nb.per_layer[j - 1].alpha + gamma(j))
            pow_r2 *= r2
        l_grad_n_sq.append(lead + tail)

    return ClosedFormBounds(tuple(l_n_sq), tuple(l_grad_n_sq))


def closed_form_network_bounds(
    arch: ArchitectureSpec, inputs: BoundInputs, s: float
) -> NetworkBounds:
    """Network bounds whose hidden-layer constants come from the closed forms.

    b_n, alpha and beta stay the recursive ones; the identity head reuses the
    one-step composition formulas on the (larger) closed-form last layer.
    """
    if inputs.layer_budgets is not None:
        raise ValueError("closed forms are defined for the uniform budget only")
    nb = network_certificate(arch, inputs, s)
    if arch.m == 0:
        return nb
    cf = _closed_forms(arch, nb)
    per_layer = tuple(
        replace(lb, l_n=math.sqrt(cf.l_n_sq[u]), l_grad_n=math.sqrt(cf.l_grad_n_sq[u]))
        for u, lb in enumerate(nb.per_layer)
    )
    final = layer_step(per_layer[-1], None, arch.widths[-1], nb.budgets[-1])
    return NetworkBounds(per_layer, final, s, nb.budgets)


def closed_form_certificate(
    arch: ArchitectureSpec,
    inputs: BoundInputs,
    loss: LossEnvelope | None,
    dataset_norms: Sequence[float] | None = None,
) -> Certificate:
    """Certificate whose hidden-layer constants come from the closed forms.

    The head steps reuse the one-step composition formulas with the (larger)
    closed-form layer constants, so every field dominates the recursive
    certificate's counterpart; with loss None it is the network's alone.
    """
    norms, moments = _resolve_norms(inputs, dataset_norms)
    if moments is not None:
        raise ValueError("closed-form certificate needs explicit sample norms")
    bounds_at = functools.partial(closed_form_network_bounds, arch, inputs)
    return _averaged_certificate(
        arch, inputs, loss, norms, *_sample_averages(loss, inputs.b_omega, norms, bounds_at),
        "closed_form",
    )


# ---------------------------------------------------------------------------
# moment mode


def _poly_head_sq_constants(
    arch: ArchitectureSpec, inputs: BoundInputs, loss: LossEnvelope, s: float
) -> tuple[float, float]:
    """Weakened squared head constants that are polynomial in t = S^2.

    Runs the composition recursion with two monotone relaxations applied to
    the gradient-level constants: max(a, b) -> a + b and (a + b)^2 ->
    2 a^2 + 2 b^2.  Both only increase the result, and with every bounded
    activation the squared loss-level constant becomes affine in t while the
    squared gradient-level constant becomes quadratic in t, which is what
    lets the moment mode integrate them exactly.
    """
    budgets = inputs.budgets_for(arch)
    m = arch.m
    l1_sq, lg_sq = 0.0, 0.0  # squared L of the feature map and of its Jacobian
    b1 = s

    def step_sq(c1: float, c2: float, n3: float, d: float) -> tuple[float, float]:
        new_l_sq = _prod(c1, c1) * (_prod(d, d, l1_sq) + b1 * b1 + 1.0)
        alpha_w = (
            3.0 * _prod(l1_sq, _prod(c1, c1, n3) + _prod(c2, c2, d, d, b1, b1))
            + 2.0 * _prod(c2, c2, d, d, l1_sq)
            + _prod(c2, c2) * (b1 * b1 + 1.0) * (3.0 * b1 * b1 + 2.0)
        )
        carry_coef = _sq(_prod(n3, c1) + _prod(d, c2, math.sqrt(b1 * b1 + 1.0)))
        beta_w = (
            2.0 * _prod(n3, n3, c1, c1, d, d, lg_sq)
            + 2.0 * _prod(c2, c2, d, d, d, d, l1_sq, l1_sq)
            + _prod(l1_sq, carry_coef)
        )
        return new_l_sq, alpha_w + beta_w

    for u in range(1, m + 1):
        env = arch.activations[u - 1].envelope
        if not math.isfinite(env.sigma_max):
            raise ValueError("moment mode requires bounded activations")
        l1_sq, lg_sq = step_sq(
            env.sigma_p_max, env.sigma_pp_max, float(arch.widths[u]), budgets[u - 1]
        )
        b1 = math.sqrt(arch.widths[u]) * env.sigma_max
    return step_sq(loss.g_p_max, loss.g_pp_max, 1.0, budgets[-1])


def _moment_certificate(
    arch: ArchitectureSpec,
    inputs: BoundInputs,
    loss: LossEnvelope,
    moments: SampleMoments,
) -> Certificate:
    """Certificate from norm moments via polynomial envelopes in t = S^2.

    The weakened squared head constants are polynomials in t of degree <= 1
    (loss level) and <= 2 (gradient level) with nonnegative coefficients.
    Fitting them exactly at t in {0, 1, 2} and integrating termwise against
    (E[S^2], E[S^4]) bounds E[L_phi^2] and E[L_grad_phi^2]; Jensen then
    bounds the expectations themselves.

    The per-layer table is evaluated at the reference norm sqrt(E[S^2]) and
    is informational in this mode; only l_phi / l_grad_phi / b_grad_phi are
    certified expectations.
    """
    if inputs.layer_budgets is not None:
        raise ValueError("moment mode is defined for the uniform budget only")
    v0 = _poly_head_sq_constants(arch, inputs, loss, 0.0)
    v1 = _poly_head_sq_constants(arch, inputs, loss, 1.0)
    v2 = _poly_head_sq_constants(arch, inputs, loss, math.sqrt(2.0))
    # degree-1 fit for the loss level: p(t) = p0 + p1 t
    p0, p1 = v0[0], v1[0] - v0[0]
    fit_err = abs(v2[0] - (p0 + 2.0 * p1))
    if fit_err > 1e-9 * max(1.0, abs(v2[0])):
        raise ValueError("loss-level envelope is not affine in S^2; cannot use moments")
    # degree-2 fit for the gradient level: q(t) = q0 + q1 t + q2 t^2
    q0 = v0[1]
    q2 = (v2[1] - 2.0 * v1[1] + v0[1]) / 2.0
    q1 = v1[1] - q0 - q2
    e_phi_sq = p0 + p1 * moments.e_s2
    e_gphi_sq = q0 + q1 * moments.e_s2 + q2 * moments.e_s4
    if e_phi_sq < 0 or e_gphi_sq < 0:
        raise ValueError("moment envelope produced a negative bound")
    l_phi = math.sqrt(e_phi_sq)
    l_grad_phi = math.sqrt(e_gphi_sq)
    s_eff = math.sqrt(moments.e_s2)
    nb = _network_bounds(arch, inputs.budgets_for(arch), s_eff)
    return Certificate(
        per_layer=nb.per_layer,
        l_n_final=nb.l_n,
        l_grad_n_final=nb.l_grad_n,
        l_phi=l_phi,
        l_grad_phi=l_grad_phi,
        method="recursive",
        inputs_digest=_certificate_digest(arch, inputs, loss, None, moments, "recursive"),
        flags=_overflow_flags(nb.l_n, nb.l_grad_n, l_phi, l_grad_phi) + ("moment_mode",),
        layer_budgets=None,
    )


# ---------------------------------------------------------------------------
# per-layer budget refinement


@dataclass(frozen=True)
class RefinementSearch:
    """Effort of the budget search: (restarts + 1) * iters box splits per constant."""

    restarts: int = 4
    iters: int = 60

    def __post_init__(self) -> None:
        if self.restarts < 0 or self.iters < 0:
            raise ValueError("restarts and iters must be nonnegative")

    @property
    def max_splits(self) -> int:
        return (self.restarts + 1) * self.iters


_SPLIT_RTOL = 1e-9  # a box this close above the best value found is not split


def _sup_over_splits(
    f: Callable[[tuple[float, ...]], float], dim: int, b_omega: float, max_splits: int
) -> tuple[float, tuple[float, ...], int]:
    """Upper bound on sup f over nonnegative splits with sum(D_u^2) <= b_omega^2.

    Branch and bound over boxes [lo, hi] of budget vectors, starting from
    [0, b_omega]^dim.  f is nondecreasing in every budget, so on the part of
    a box inside the ball it is at most f(u), with u the box's upper corner
    clipped to the ball, u_i = min(hi_i, sqrt(b^2 - sum_{j != i} lo_j^2));
    the root's u is (b, ..., b), the uniform split.  A box's lower estimate
    is f where the segment lo -> u leaves the ball.  The box with the largest
    bound is halved along its longest edge, boxes outside the ball are
    dropped, and the search stops once that bound is within _SPLIT_RTOL of
    the best lower estimate or after max_splits splits.

    Returns (upper, split, splits): the largest bound still open, the split
    with the best lower estimate, and the splits used.
    """
    bsq = b_omega * b_omega
    heap: list[tuple[float, int, tuple[float, ...], tuple[float, ...]]] = []
    order = itertools.count()
    lower, split = -math.inf, ()

    def push(lo: tuple[float, ...], hi: tuple[float, ...]) -> None:
        nonlocal lower, split
        sq = [x * x for x in lo]
        if math.fsum(sq) > bsq:
            return
        u = tuple(min(h, math.sqrt(max(bsq - math.fsum(sq[:i] + sq[i + 1 :]), 0.0)))
                  for i, h in enumerate(hi))
        # lo + t v with v = u - lo leaves the ball at the root t of a quadratic
        v = [b - a for a, b in zip(lo, u)]
        vv, lv = math.fsum(x * x for x in v), math.fsum(x * y for x, y in zip(lo, v))
        disc = max(lv * lv - vv * (math.fsum(sq) - bsq), 0.0)
        t = min(1.0, (math.sqrt(disc) - lv) / vv) if vv else 0.0
        point = tuple(x + t * y for x, y in zip(lo, v))
        value = f(point)
        if value > lower:
            lower, split = value, point
        heapq.heappush(heap, (-f(u), next(order), lo, hi))

    push((0.0,) * dim, (b_omega,) * dim)
    splits = 0
    while splits < max_splits and -heap[0][0] > lower * (1.0 + _SPLIT_RTOL):
        _, _, lo, hi = heapq.heappop(heap)
        # longest edge; ties go to the later layer, whose budget counts for more
        i = max(range(dim), key=lambda k: (hi[k] - lo[k], k))
        mid = 0.5 * (lo[i] + hi[i])
        push(lo, hi[:i] + (mid,) + hi[i + 1 :])
        push(lo[:i] + (mid,) + lo[i + 1 :], hi)
        splits += 1
    return -heap[0][0], split, splits


def refine_over_layer_budgets(
    arch: ArchitectureSpec,
    inputs: BoundInputs,
    loss: LossEnvelope,
    dataset_norms: Sequence[float] | None = None,
    search: RefinementSearch = RefinementSearch(),
) -> Certificate:
    """Tighten the uniform certificate by splitting the radius across layers.

    Any split D with sum(D_u^2) <= b_omega^2 yields valid constants, so their
    supremum over all splits is a certificate on the whole ball.  Each of
    the four reported constants is an upper bound on that supremum from its
    own branch and bound (_sup_over_splits, at most search.max_splits box
    splits), capped by the uniform certificate: rigorous at any effort, and
    tighter with more.  The layer budgets and per-layer table come from the
    best split of the l_grad_phi search, scaled onto the sphere (never
    worse, by monotonicity); lower_estimate is l_grad_phi there.

    One recursion at a budget vector gives all four constants, so each
    (budgets, norm) recursion and each budget vector's loss averages are
    computed once per call, shared by the four searches, the uniform
    certificate and the lookups at the reported split.
    """
    norms, moments = _resolve_norms(inputs, dataset_norms)
    if moments is not None:
        raise ValueError("budget refinement needs explicit sample norms")
    if arch.m < 1:
        raise ValueError("budget refinement needs at least one hidden layer")
    b = inputs.b_omega
    s_max = max(norms)

    # only the bounds at s_max are read again, so the other norms' recursions
    # are dropped once their loss averages are taken
    @functools.cache
    def bounds_at(d: tuple[float, ...]) -> NetworkBounds:
        return _network_bounds(arch, d, s_max)

    @functools.cache
    def loss_averages(d: tuple[float, ...]) -> tuple[float, float]:
        return _sample_averages(
            loss, d[-1], norms,
            lambda s: bounds_at(d) if s == s_max else _network_bounds(arch, d, s),
        )[1]

    d_uniform = tuple(inputs.budgets_for(arch))
    uniform = _averaged_certificate(
        arch, inputs, loss, norms, bounds_at(d_uniform), loss_averages(d_uniform), "recursive"
    )
    searches = [
        (_sup_over_splits(f, arch.m + 1, b, search.max_splits), cap)
        for f, cap in (
            (lambda d: bounds_at(d).l_n, uniform.l_n_final),
            (lambda d: bounds_at(d).l_grad_n, uniform.l_grad_n_final),
            (lambda d: loss_averages(d)[0], uniform.l_phi),
            (lambda d: loss_averages(d)[1], uniform.l_grad_phi),
        )
    ]
    l_n, l_grad_n, l_phi, l_grad_phi = (min(r[0], cap) for r, cap in searches)
    _, split, splits = searches[-1][0]
    # hypot only where the squares overflow (b_omega above about 1e154): its
    # bits differ from the fsum on many splits
    norm = math.sqrt(math.fsum(d * d for d in split))
    scale = b / (norm if math.isfinite(norm) else math.hypot(*split))
    d_star = tuple(d * scale for d in split)

    flags = _overflow_flags(l_n, l_grad_n, l_phi, l_grad_phi)
    if not l_grad_phi < uniform.l_grad_phi * (1.0 - 1e-15):
        flags = flags + ("no_improvement",)
    return Certificate(
        per_layer=bounds_at(d_star).per_layer,
        l_n_final=l_n,
        l_grad_n_final=l_grad_n,
        l_phi=l_phi,
        l_grad_phi=l_grad_phi,
        method="refined_budgets",
        inputs_digest=_certificate_digest(arch, inputs, loss, norms, None, "refined_budgets"),
        flags=flags,
        layer_budgets=d_star,
        lower_estimate=loss_averages(d_star)[1],
        splits=splits,
    )


# ---------------------------------------------------------------------------
# step-size derivations


def derive_gd_step(cert: Certificate) -> float:
    """Certified constant step size 1 / l_grad_phi for full-batch descent."""
    l = cert.l_grad_phi
    if l == 0.0:
        raise ValueError("l_grad_phi is zero: objective gradient is constant")
    if not math.isfinite(l) or l < 0:
        raise ValueError("l_grad_phi must be a positive finite real")
    return 1.0 / l


def derive_adagrad_params(
    cert: Certificate, eps_margin: float = 1.0, eps_exponent: float = 0.0
) -> tuple[float, float]:
    """Pick (alpha, beta) with 2 * alpha * l_grad_phi < beta^(1/2 + eps).

    alpha is fixed at 1/2; beta = l_grad_phi^(2 / (1 + 2 eps)) + eps_margin
    then satisfies the strict inequality with room eps_margin.
    """
    if eps_margin <= 0:
        raise ValueError("eps_margin must be positive")
    if eps_exponent < 0:
        raise ValueError("eps_exponent must be nonnegative")
    l = cert.l_grad_phi
    if not math.isfinite(l):
        raise ValueError("certificate overflowed; no finite step schedule exists")
    alpha = 0.5
    expo = 2.0 / (1.0 + 2.0 * eps_exponent)
    beta = (l**expo if l > 0 else 0.0) + eps_margin
    check_adagrad_condition(alpha, beta, eps_exponent, l)
    return alpha, beta


def check_adagrad_condition(
    alpha: float, beta: float, eps_exponent: float, l_grad_phi: float
) -> None:
    """Raise ValueError unless 2 * alpha * l_grad_phi < beta^(1/2 + eps)."""
    lhs = 2.0 * alpha * l_grad_phi
    rhs = beta ** (0.5 + eps_exponent)
    if not lhs < rhs:
        raise ValueError(
            f"step-size condition violated: 2*alpha*L = {lhs} >= beta^(1/2+eps) = {rhs}"
        )
