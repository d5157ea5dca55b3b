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
and the dataset loss gradient.  The arithmetic is plain Python floats, or
elementwise numpy with the same bits when the recursion runs over an array
of sample norms; overflow saturates to +inf and is reported via a
certificate flag instead of raising.

The layer step
--------------
The step (_step_terms, run by _float_step and _layer_step_rows) takes a
feature map N = N_{u-1}(theta_<) of the earlier parameters theta_< to

    N_u = sigma(z),    z = W N + c,

whose own parameters omega = (W, c) have norm at most d, the layer's budget.
Every norm is Euclidean: on vectors, on parameter blocks (Frobenius on W),
and the operator norm it induces on Jacobians, so ||W|| <= d.  The step is
fed three constants of N, the carried side:

    l1 >= sup ||J||, J = dN/dtheta_<    (also N's Lipschitz constant; b2 in
                                          the code where it bounds ||J||)
    l2 >= the Lipschitz constant of theta_< -> J
    b1 >= sup ||N||

and the head's c1 >= |sigma'|, c2 >= |sigma''| and b3 >= |sigma|, per
coordinate, over n3 = width_out coordinates.  An identity head has
(c1, c2, b3) = (1, 0, inf); a loss head has its envelope's (g_p_max,
g_pp_max, inf) and n3 = 1.  The Jacobian of N_u has a carried column block
(theta_<) and an own one (omega):

    dN_u = [ S W J | S X ],    S = diag(sigma'(z)),    X: (dW, dc) -> dW N + dc,

with ||S|| <= c1, ||W J|| <= d l1 and ||X|| <= sqrt(b1^2 + 1); a change dz
moves S by at most c2 ||dz||.  Below, [own] marks a factor of the layer's
own parameters or of the features they multiply (d, sqrt(b1^2 + 1)), and
[carried] one of the carried Jacobian (l1, b2, l2).  Blocks side by side
obey ||[A | B]|| <= sqrt(||A||^2 + ||B||^2).

l_chi = c1 sqrt(d^2 l1^2 + b1^2 + 1) bounds ||dN_u||, so it is also N_u's
    Lipschitz constant: c1 d[own] l1[carried] on the carried block and
    c1 sqrt(b1^2 + 1)[own] on the own block.

l_grad_n bounds the Lipschitz constant of theta -> dN_u.  Over the product
of layer balls a move (dtheta_<, domega) can be made one block at a time,
so l_grad_n^2 = alpha + beta bounds the square once alpha >= L_own^2 and
beta >= L_carried^2, the constants of each leg alone (Cauchy-Schwarz over
the two legs).  Each leg moves both column blocks, which add in squares.

  Own leg: N and J stay, ||dz|| <= b1 ||dW|| + ||dc||.
    The carried block moves by dS W' J + S dW J, at most
    c2 d[own] l1[carried] (b1[own] ||dW|| + ||dc||) + c1 l1[carried] ||dW||;
    per unit move, squared (Cauchy-Schwarz over dW, dc), that is at most
    2 c1^2 l1^2 + 2 c2^2 d^2 b1^2 l1^2 + c2^2 d^2 l1^2, and
        a_term = 3 l1^2 (n3 c1^2 + c2^2 d^2 b1^2) + 2 c2^2 d^2 l1^2
    dominates it.  The own block moves by dS X, at most
    c2 (b1^2 + 1)[own] per unit move, whose square
        b_term = c2^2 (b1^2 + 1)(3 b1^2 + 2)
    dominates.  alpha = max(a_term, b_term) is the paper's combination of
    the two; the block bound above gives their sum, so the max is not
    derived here (ROADMAP item 13).

  Carried leg: omega stays, per unit move ||dN|| <= l1, ||dz|| <= d l1 and
  ||dJ|| <= l2.
    The carried block moves by dS W J' + S W dJ:
        cross = n3 c1 d[own] l2[carried] + b2[carried] c2 d^2[own] l1[carried].
    The own block moves by dS X' + S dX, with ||dX|| <= ||dN||:
        sqrt(carry) = b2[carried] (n3 c1 + d c2 sqrt(b1^2 + 1)[own]).
    beta = cross^2 + carry.

b_n = sqrt(n3) b3 bounds ||sigma(z)|| coordinate by coordinate; an unbounded
smoothed_relu bounds it by ||z|| + sqrt(n3) eps <= d sqrt(b1^2 + 1) + sqrt(n3) eps
instead, eps its per-coordinate smoothing gap.

Where n3 enters: S is bounded by c1 in the operator norm, but the paper's
terms carry the width, as n3 c1^2 in a_term (the square of S's Frobenius
bound sqrt(n3) c1) and as n3 c1 in cross and in carry.  n3 >= 1, so each
only enlarges its term; these are the width factors that ROADMAP item 13
targets.  sqrt(n3) in b_n is needed: every coordinate can reach b3.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .activations import Activation, ActivationEnvelope

__all__ = [
    "ArchitectureSpec",
    "BoundInputs",
    "Certificate",
    "ClosedFormBounds",
    "Covers",
    "LayerBounds",
    "LossEnvelope",
    "NetworkBounds",
    "RefinementSearch",
    "SampleMoments",
    "check_adagrad_condition",
    "check_moment_mode",
    "check_sample_norms",
    "closed_form_bounds",
    "closed_form_certificate",
    "derive_adagrad_params",
    "full_moments",
    "input_base",
    "layer_step",
    "loss_certificate",
    "moment_certificate",
    "network_certificate",
    "refine_over_layer_budgets",
]


def _prod(*xs: float) -> float:
    """Product where an exact zero factor wins over inf (a dropped bound term);
    nonzero factors whose partial product underflows to 0 and then meets inf
    give +inf, their exact product, not nan."""
    p = math.prod(xs, start=1.0) if all(xs) else 0.0
    return math.inf if p != p else p


def _sq(x: float) -> float:
    return x * x


def _fsum(xs) -> float:
    """math.fsum of nonnegative terms, but +inf where they sum past the float range."""
    try:
        return math.fsum(xs)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class ArchitectureSpec:
    """Layer widths [l_0, ..., l_{m+1}] plus the m hidden activations.

    The final layer is always affine with identity head; it has a width but
    no activation, hence len(activations) == len(widths) - 2.

    layer_slices is the one layout of the full parameter vector theta, built
    once from the widths: per layer, in layer order, the slice of its (out,
    in) weight flattened row-major, then the slice of its bias.
    """

    widths: tuple[int, ...]
    activations: tuple[Activation, ...]
    layer_slices: tuple[tuple[slice, slice], ...] = field(init=False, repr=False, compare=False)

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
        slices, pos = [], 0
        for i_in, i_out in zip(self.widths[:-1], self.widths[1:]):
            w_sl = slice(pos, pos + i_out * i_in)
            pos = w_sl.stop + i_out
            slices.append((w_sl, slice(w_sl.stop, pos)))
        object.__setattr__(self, "layer_slices", tuple(slices))

    @property
    def m(self) -> int:
        """Number of hidden (activated) layers."""
        return len(self.widths) - 2

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def n_params(self) -> int:
        return self.layer_slices[-1][1].stop


def full_moments(moments: dict[int, float]) -> dict[int, float]:
    """Raw moments {k: E[S^k]} with E[S^0] = 1 added, once some S >= 0 has them.

    Besides their signs: a zero moment means S = 0 almost surely, so every
    higher given moment is 0 too; and the moments of S >= 0 are log-convex
    in k, E[S^k]^(c-a) <= E[S^a]^(c-k) E[S^c]^(k-a) for consecutive given
    keys a < k < c, checked in logs to a relative 1e-12 so that moments
    averaged from data pass.
    """
    for k, v in moments.items():
        if not (isinstance(k, int) and k >= 1):
            raise ValueError(f"moment keys must be positive integers, got {k!r}")
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"E[S^{k}] must be finite and nonnegative, got {v!r}")
    m = {0: 1.0, **moments}
    keys = sorted(m)
    for k, c in itertools.pairwise(keys):
        if m[k] == 0 and m[c] != 0:
            raise ValueError(f"E[S^{k}] = 0 forces E[S^{c}] = 0")
    for a, k, c in zip(keys, keys[1:], keys[2:]):
        if m[k] == 0:  # then m[c] is 0 as well
            continue
        rhs = -math.inf if m[c] == 0 else (c - k) * math.log(m[a]) + (k - a) * math.log(m[c])
        if (c - a) * math.log(m[k]) > rhs + math.log1p(1e-12):
            g = math.gcd(c - a, c - k, k - a)
            raise ValueError(
                f"{_moment_power(k, (c - a) // g)} <= {_moment_power(a, (c - k) // g)} "
                f"{_moment_power(c, (k - a) // g)} must hold"
            )
    return m


def _moment_power(k: int, e: int) -> str:
    return f"E[S^{k}]" if e == 1 else f"E[S^{k}]^{e}"


@dataclass(frozen=True)
class SampleMoments:
    """Second and fourth raw moments of the input norm distribution."""

    e_s2: float
    e_s4: float

    def __post_init__(self) -> None:
        full_moments({2: self.e_s2, 4: self.e_s4})


def check_sample_norms(norms: Sequence[float]) -> tuple[float, ...]:
    """The norms as floats; ValueError unless they are nonempty, finite and nonnegative."""
    norms = tuple(float(s) for s in norms)
    if len(norms) == 0:
        raise ValueError("sample_norms must be nonempty when given")
    if any(s < 0 or not math.isfinite(s) for s in norms):
        raise ValueError("sample norms must be finite and nonnegative")
    return norms


@dataclass(frozen=True)
class BoundInputs:
    """The parameter ball shared by all certificate routines.

    Every certificate built from it holds on the whole ball of radius
    b_omega: each layer's parameter block gets the full radius.  A fixed
    split of the radius across layers would cover only the product of its
    layer balls; refine_over_layer_budgets bounds the supremum over splits.
    """

    b_omega: float

    def __post_init__(self) -> None:
        if not (self.b_omega > 0 and math.isfinite(self.b_omega)):
            raise ValueError("b_omega must be a positive finite real")

    def budgets_for(self, arch: ArchitectureSpec) -> tuple[float, ...]:
        return (self.b_omega,) * (arch.m + 1)


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
    """

    l_n: float
    l_grad_n: float
    b_n: float
    alpha: float

    @property
    def b_grad_n(self) -> float:
        """Sup-norm bound on the parameter Jacobian, which l_n also bounds."""
        return self.l_n


def input_base(s: float) -> LayerBounds:
    """Depth-zero bounds: the constant feature map x with norm S."""
    if s < 0 or not math.isfinite(s):
        raise ValueError("input norm must be finite and nonnegative")
    return LayerBounds(0.0, 0.0, s, 0.0)


def _head_constants(env: ActivationEnvelope | LossEnvelope | None) -> tuple[float, float, float]:
    """Map the composition head to (c1, c2, b3) derivative/value bounds."""
    if env is None:
        return 1.0, 0.0, math.inf
    if isinstance(env, ActivationEnvelope):
        return env.sigma_p_max, env.sigma_pp_max, env.sigma_max
    if isinstance(env, LossEnvelope):
        return env.g_p_max, env.g_pp_max, math.inf
    raise TypeError(f"unsupported envelope type: {type(env)!r}")


def _step_terms(c1: float, c2: float, d: float, n3: float, l1, l2, b1, sqrt):
    """layer_step's five terms (l_chi, a_term, b_term, cross, carry) in plain
    arithmetic: on floats with math.sqrt, or with np.sqrt on (n,) arrays of
    the previous constants, which gives every row the float bits.

    The operands are in _prod's order: math.prod folds left from 1.0, so
    while no term overflows these are _prod's bits.  Only the sign of a zero
    can differ, and it is squared away everywhere but in l_chi, where + 0.0
    turns a -0.0 slope's product into _prod's +0.0.
    """
    b2 = l1  # the Jacobian's sup norm is its Lipschitz constant
    b1_sq = b1 * b1
    b1_sq1 = b1_sq + 1.0
    l_chi = c1 * sqrt(d * d * l1 * l1 + b1_sq + 1.0) + 0.0
    a_term = 3.0 * (l1 * l1) * (c1 * c1 * n3 + c2 * c2 * d * d * b1 * b1) + 2.0 * (
        c2 * c2 * d * d * l1 * l1
    )
    b_term = c2 * c2 * b1_sq1 * (3.0 * b1 * b1 + 2.0)
    cross = n3 * c1 * d * l2 + b2 * c2 * d * d * l1
    g = n3 * c1 + d * c2 * sqrt(b1_sq1)
    carry = b2 * b2 * (g * g)
    return l_chi, a_term, b_term, cross, carry


def _float_step(
    c1: float, c2: float, b3: float, n3: float, d: float, l1: float, l2: float, b1: float
) -> tuple[float, float, float, float]:
    """layer_step on plain floats, unchecked: (l_n, l_grad_n, b_n, alpha) of a
    head with constants (c1, c2, b3) and width n3 at budget d, fed features
    with constants (l1, l2, b1)."""
    l_chi, a_term, b_term, cross, carry = _step_terms(c1, c2, d, n3, l1, l2, b1, math.sqrt)

    # every term is a sum of nonnegative products, so a finite total means
    # nothing overflowed and no 0 * inf turned to nan (max() below could
    # drop a nan, so both of its operands are in the total)
    if not math.isfinite(l_chi + a_term + b_term + cross + carry):
        # overflow can push squared budgets to inf; every product with a zero
        # bound factor must still collapse to zero, so the outer factors go
        # through _prod as well
        b2 = l1
        l_chi = _prod(c1, math.sqrt(_prod(d, d, l1, l1) + b1 * b1 + 1.0))

        a_term = _prod(
            3.0 * _prod(l1, l1), _prod(c1, c1, n3) + _prod(c2, c2, d, d, b1, b1)
        ) + 2.0 * _prod(c2, c2, d, d, l1, l1)
        b_term = _prod(_prod(c2, c2), b1 * b1 + 1.0, 3.0 * b1 * b1 + 2.0)

        cross = _prod(n3, c1, d, l2) + _prod(b2, c2, d, d, l1)
        carry = _prod(
            _prod(b2, b2), _sq(_prod(n3, c1) + _prod(d, c2, math.sqrt(b1 * b1 + 1.0)))
        )

    alpha = max(a_term, b_term)
    # b3 is +inf for a head without a value bound
    return l_chi, math.sqrt(alpha + (cross * cross + carry)), math.sqrt(n3) * b3, alpha


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
    return LayerBounds(*_float_step(
        c1, c2, b3, float(width_out), float(budget), prev.l_n, prev.l_grad_n, prev.b_n
    ))


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

    @property
    def output_bound(self) -> float:
        """Sup-norm bound on the network output, D * sqrt(B^2 + 1) with D the
        head's budget and B the last hidden layer's output bound."""
        b = self.last_hidden.b_n
        return self.budgets[-1] * math.sqrt(b * b + 1.0)


def _network_bounds(
    arch: ArchitectureSpec, budgets: Sequence[float], s: float
) -> NetworkBounds:
    """The float recursion at explicit per-layer radii (no sphere validation)
    with its per-layer table, then the identity head."""
    if len(budgets) != arch.m + 1:
        raise ValueError(f"expected {arch.m + 1} budgets, got {len(budgets)}")
    input_base(s)  # refuses a negative or non-finite norm
    budgets = tuple(float(b) for b in budgets)
    per_layer: list[LayerBounds] = []
    last = _hidden_floats(_hidden_layers(arch), budgets, s, per_layer)
    final = _float_step(1.0, 0.0, math.inf, float(arch.widths[-1]), budgets[-1], *last)
    return NetworkBounds(tuple(per_layer), LayerBounds(*final), s, budgets)


def network_certificate(
    arch: ArchitectureSpec, inputs: BoundInputs, s: float
) -> NetworkBounds:
    """Layer-by-layer constants for a single input of norm s."""
    return _network_bounds(arch, inputs.budgets_for(arch), s)


# ---------------------------------------------------------------------------
# the recursion over many sample norms: plain floats per norm, or one array


def _hidden_layers(arch: ArchitectureSpec) -> tuple[tuple, ...]:
    """Each hidden layer's (c1, c2, b3, width as a float, envelope if
    smoothed_relu else None), the table the float and array recursions step
    through."""
    return tuple(
        (*_head_constants(e), float(w), e if e.kind == "smoothed_relu" else None)
        for e, w in zip((a.envelope for a in arch.activations), arch.widths[1:])
    )


# Distinct sample norms from which one array recursion beats the float core
# run once per norm (_budget_constants).  Measured per budget vector at 1-4
# hidden tanh layers of width 8 (Python 3.11, numpy 2.4): the array
# recursion and head step cost a fixed 65-170 us in numpy calls, the float
# core 2.4-6 us per norm, and they break even at 24-28 norms.
_ARRAY_MIN_NORMS = 24


def _layer_step_rows(
    c1: float, c2: float, b3: float, n3: float, d: float,
    l1: np.ndarray, l2: np.ndarray, b1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """_float_step's (l_n, l_grad_n) over (n,) arrays of the previous l_n,
    l_grad_n and b_n, each row with _float_step's bits.

    A row whose terms do not sum to a finite value is redone by the float
    core, which takes it through _prod.  The arguments are not checked:
    callers pass a certificate's budgets or the budget search's, which are
    nonnegative.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        l_chi, a_term, b_term, cross, carry = _step_terms(c1, c2, d, n3, l1, l2, b1, np.sqrt)
        l_grad_chi = np.sqrt(np.maximum(a_term, b_term) + (cross * cross + carry))
        overflowed = np.flatnonzero(~np.isfinite(l_chi + a_term + b_term + cross + carry))
    for i in overflowed.tolist():
        l_chi[i], l_grad_chi[i], _, _ = _float_step(
            c1, c2, b3, n3, d, float(l1[i]), float(l2[i]), float(b1[i])
        )
    return l_chi, l_grad_chi


def _last_hidden_rows(
    layers, d: Sequence[float], s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(l_n, l_grad_n, b_n) of _hidden_floats(layers, d, s_i) for every row
    s_i of s, with the same bits."""
    l_n = l_grad_n = np.zeros_like(s)
    b_n = s
    for (c1, c2, b3, n3, smoothed), du in zip(layers, d):
        l_n, l_grad_n = _layer_step_rows(c1, c2, b3, n3, du, l_n, l_grad_n, b_n)
        if smoothed is None:
            b_n = np.full_like(s, math.sqrt(n3) * b3)
        else:
            with np.errstate(over="ignore"):
                # as in _prod, a zero budget wins over an overflowed norm
                grown = du * np.sqrt(b_n * b_n + 1.0) if du else np.zeros_like(s)
            b_n = grown + math.sqrt(n3) * smoothed.relu_epsilon
    return l_n, l_grad_n, b_n


def _hidden_floats(
    layers, d: Sequence[float], s: float, table: list[LayerBounds] | None = None
) -> tuple[float, float, float]:
    """The last hidden (l_n, l_grad_n, b_n) at budgets d and input norm s, in
    plain floats; layers is _hidden_layers(arch).  A given table gets every
    hidden layer's LayerBounds; the search passes none and builds nothing."""
    l_n = l_grad_n = 0.0
    b_n = s
    for (c1, c2, b3, n3, smoothed), du in zip(layers, d):
        l_n, l_grad_n, b_out, alpha = _float_step(c1, c2, b3, n3, du, l_n, l_grad_n, b_n)
        if smoothed is not None:
            # unbounded: the affine growth, plus sqrt(width) of the per-coordinate gap
            b_out = _prod(du, math.sqrt(b_n * b_n + 1.0)) + math.sqrt(n3) * smoothed.relu_epsilon
        b_n = b_out
        if table is not None:
            table.append(LayerBounds(l_n, l_grad_n, b_n, alpha))
    return l_n, l_grad_n, b_n


def _distinct_rows(norms: Sequence[float]) -> tuple[tuple[float, ...], list[int]]:
    """The distinct norms and each norm's index among them; a zero's sign
    enters only squared, so -0.0 shares 0.0's row."""
    distinct = tuple(dict.fromkeys(norms))
    index = {s: i for i, s in enumerate(distinct)}
    return distinct, [index[s] for s in norms]


def _loss_means(
    loss: LossEnvelope, d_head: float, hidden: Sequence[tuple[float, float, float]], rows: list[int]
) -> tuple[float, float]:
    """Dataset means (L_phi, L_grad_phi) of the per-sample loss constants.

    hidden holds the last hidden (l_n, l_grad_n, b_n) of each distinct norm
    and rows each sample's index into it, in dataset order.  math.fsum is
    correctly rounded, so a head step per distinct norm keeps the bits of
    one per sample.
    """
    heads = [_float_step(loss.g_p_max, loss.g_pp_max, math.inf, 1.0, d_head, *h) for h in hidden]
    n = len(rows)
    return _fsum(heads[r][0] for r in rows) / n, _fsum(heads[r][1] for r in rows) / n


def _budget_constants(
    arch: ArchitectureSpec, loss: LossEnvelope, norms: Sequence[float]
) -> Callable[[tuple[float, ...]], tuple[float, float, float, float]]:
    """The function d -> (l_n, l_grad_n, l_phi, l_grad_phi) of the recursion at
    budget vector d, each with the bits of _network_bounds(arch, d,
    max(norms)).l_n and .l_grad_n and of the loss head's layer_step averaged
    over the norms in dataset order.

    Below _ARRAY_MIN_NORMS distinct norms it runs _hidden_floats once per
    distinct norm and the float core for the heads; from there on it runs
    _hidden_floats at the largest norm only, and the loss averages come from
    one array recursion and head step over the distinct norms.
    """
    layers = _hidden_layers(arch)
    out_width = float(arch.widths[-1])
    distinct, rows = _distinct_rows(norms)
    top = distinct.index(max(norms))

    if len(distinct) >= _ARRAY_MIN_NORMS:
        s_rows, s_max, n = np.array(distinct), distinct[top], len(norms)

        def constants(d: tuple[float, ...]) -> tuple[float, float, float, float]:
            l_n, l_grad_n, _, _ = _float_step(
                1.0, 0.0, math.inf, out_width, d[-1], *_hidden_floats(layers, d, s_max)
            )
            heads = _layer_step_rows(
                loss.g_p_max, loss.g_pp_max, math.inf, 1.0, d[-1],
                *_last_hidden_rows(layers, d, s_rows),
            )
            l_phi, l_grad_phi = (_fsum(h[rows].tolist()) / n for h in heads)
            return l_n, l_grad_n, l_phi, l_grad_phi

        return constants

    def constants(d: tuple[float, ...]) -> tuple[float, float, float, float]:
        hidden = [_hidden_floats(layers, d, s) for s in distinct]
        l_n, l_grad_n, _, _ = _float_step(1.0, 0.0, math.inf, out_width, d[-1], *hidden[top])
        return (l_n, l_grad_n, *_loss_means(loss, d[-1], hidden, rows))

    return constants


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Covers:
    """The networks and inputs on which a certificate's network constants hold.

    They hold for every net with these widths and activation envelopes, on
    a parameter ball of radius at most b_omega, at every input of norm at
    most input_norm: a bound on a supremum over a set bounds it over any
    subset.
    """

    widths: tuple[int, ...]
    envelopes: tuple[ActivationEnvelope, ...]
    b_omega: float
    input_norm: float

    @classmethod
    def of(cls, arch: ArchitectureSpec, inputs: BoundInputs, s: float) -> Covers:
        """What constants of arch on the ball of inputs at input norm s cover."""
        return cls(arch.widths, tuple(a.envelope for a in arch.activations), inputs.b_omega, s)


@dataclass(frozen=True)
class Certificate:
    """Bundle of certified constants for one architecture/loss/dataset triple.

    per_layer and the *_final constants are evaluated at the largest input
    norm in the dataset (so they hold for every sample simultaneously), or
    at sqrt(E[S^2]) in moment mode; covers states that norm, the net and the
    ball.  l_phi / l_grad_phi are dataset averages of the per-sample loss
    constants, or None for a certificate of the network alone.  b_grad_phi
    equals l_phi: a bound on the loss Lipschitz constant is also a bound on
    the loss gradient's norm.  A refined certificate also holds
    lower_estimate (its l_grad_phi at layer_budgets) and the box splits its
    l_grad_phi search used.
    """

    per_layer: tuple[LayerBounds, ...]
    l_n_final: float
    l_grad_n_final: float
    l_phi: float | None
    l_grad_phi: float | None
    method: str
    covers: Covers
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


def _certificate(
    arch: ArchitectureSpec,
    inputs: BoundInputs,
    nb: NetworkBounds,
    loss: LossEnvelope | None,
    loss_constants: tuple[float | None, float | None],
    method: str,
    *,
    norms: Sequence[float] | None = None,
    moments: SampleMoments | None = None,
    network_constants: tuple[float, float] | None = None,
    flags: tuple[str, ...] = (),
    **search,
) -> Certificate:
    """The one assembler of a dense certificate.

    nb is the recursion whose per-layer table the certificate reports, at
    the input norm it covers; the network constants are nb's unless
    network_constants gives others.  loss_constants is (l_phi, l_grad_phi),
    both None for the network's alone.  The inputs digest hashes the covers,
    the loss, the norms or moments and the method.  "overflow" comes ahead
    of the extra flags when a constant is not finite; search holds a refined
    certificate's layer_budgets, lower_estimate and splits.
    """
    l_n, l_grad_n = (nb.l_n, nb.l_grad_n) if network_constants is None else network_constants
    l_phi, l_grad_phi = loss_constants
    if any(v is not None and not math.isfinite(v) for v in (l_n, l_grad_n, l_phi, l_grad_phi)):
        flags = ("overflow", *flags)
    covers = Covers.of(arch, inputs, nb.s)
    payload = {
        "widths": list(covers.widths),
        "activations": [vars(e) for e in covers.envelopes],
        "b_omega": covers.b_omega,
        # no certificate takes a split as input; the key keeps every inputs_digest
        "layer_budgets": None,
        "loss": None if loss is None else [
            loss.g_p_max, loss.g_pp_max, loss.lip_g_value, loss.lip_dg_value
        ],
        "norms": None if norms is None else list(norms),
        "moments": None if moments is None else [moments.e_s2, moments.e_s4],
        "method": method,
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return Certificate(
        per_layer=nb.per_layer,
        l_n_final=l_n,
        l_grad_n_final=l_grad_n,
        l_phi=l_phi,
        l_grad_phi=l_grad_phi,
        method=method,
        covers=covers,
        inputs_digest=hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16],
        flags=flags,
        **search,
    )


def loss_certificate(
    arch: ArchitectureSpec,
    inputs: BoundInputs,
    loss: LossEnvelope | None,
    dataset_norms: Sequence[float],
) -> Certificate:
    """Recursive certificate for the mean loss over a finite dataset.

    The per-sample constants are averaged with equal weights in dataset
    order; with loss None the certificate is the network's alone, at the
    largest norm.  moment_certificate takes norm moments instead.
    """
    norms = check_sample_norms(dataset_norms)
    budgets = inputs.budgets_for(arch)
    nb_max = _network_bounds(arch, budgets, max(norms))
    averages = (None, None) if loss is None else _budget_constants(arch, loss, norms)(budgets)[2:]
    return _certificate(arch, inputs, nb_max, loss, averages, "recursive", norms=norms)


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
    return _closed_forms(arch, network_certificate(arch, inputs, s))


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


def _closed_form_network_bounds(
    arch: ArchitectureSpec, inputs: BoundInputs, s: float
) -> NetworkBounds:
    """Network bounds whose hidden-layer constants come from the closed forms.

    b_n and alpha stay the recursive ones; the identity head reuses the
    one-step composition formulas on the (larger) closed-form last layer.
    """
    nb = network_certificate(arch, inputs, s)
    if arch.m == 0:
        return nb
    cf = _closed_forms(arch, nb)
    per_layer = tuple(
        replace(lb, l_n=math.sqrt(cf.l_n_sq[u]), l_grad_n=math.sqrt(cf.l_grad_n_sq[u]))
        for u, lb in enumerate(nb.per_layer)
    )
    h = per_layer[-1]
    final = _float_step(
        1.0, 0.0, math.inf, float(arch.widths[-1]), nb.budgets[-1], h.l_n, h.l_grad_n, h.b_n
    )
    return NetworkBounds(per_layer, LayerBounds(*final), s, nb.budgets)


def closed_form_certificate(
    arch: ArchitectureSpec,
    inputs: BoundInputs,
    loss: LossEnvelope | None,
    dataset_norms: Sequence[float],
) -> Certificate:
    """Certificate whose hidden-layer constants come from the closed forms.

    The head steps reuse the one-step composition formulas with the (larger)
    closed-form layer constants, so every field dominates the recursive
    certificate's counterpart; with loss None it is the network's alone.
    The closed forms read every hidden layer's recursive constants, so the
    loss averages take them once per distinct norm, the largest norm's
    shared with the per-layer table.
    """
    norms = check_sample_norms(dataset_norms)
    s_max = max(norms)
    nb_max = _closed_form_network_bounds(arch, inputs, s_max)
    averages = (None, None)
    if loss is not None:
        distinct, rows = _distinct_rows(norms)
        last = [
            (nb_max if s == s_max else _closed_form_network_bounds(arch, inputs, s)).last_hidden
            for s in distinct
        ]
        hidden = [(h.l_n, h.l_grad_n, h.b_n) for h in last]
        averages = _loss_means(loss, nb_max.budgets[-1], hidden, rows)
    return _certificate(arch, inputs, nb_max, loss, averages, "closed_form", norms=norms)


# ---------------------------------------------------------------------------
# moment mode


def _poly_head_sq_constants(
    arch: ArchitectureSpec, inputs: BoundInputs, loss: LossEnvelope
) -> tuple[tuple[float, float], tuple[float, ...]]:
    """Weakened squared head constants as polynomials in t = S^2.

    Runs the composition recursion with two monotone relaxations applied to
    the gradient-level constants: max(a, b) -> a + b and (a + b)^2 ->
    2 a^2 + 2 b^2.  Both only increase the result.  The input norm enters
    the first step only, as c1^2 (t + 1) and c2^2 (t + 1)(3t + 2); every
    later step sees a bounded activation's constant output bound B and maps
    the coefficients linearly, but for the square 2 c2^2 d^4 L^2 of the
    previous squared constant L.  Returns ((p0, p1), (q0, q1, q2)) of
    p0 + p1 t and q0 + q1 t + q2 t^2; every product goes through _prod, so
    no coefficient is negative or nan.
    """
    d = inputs.b_omega
    envs = [a.envelope for a in arch.activations]
    heads = [(e.sigma_p_max, e.sigma_pp_max, float(w)) for e, w in zip(envs, arch.widths[1:])]
    (c1, c2, _), *later = heads + [(loss.g_p_max, loss.g_pp_max, 1.0)]
    l0 = l1 = _prod(c1, c1)
    g0, g1, g2 = (k * _prod(c2, c2) for k in (2.0, 5.0, 3.0))
    for (c1, c2, n3), e, w in zip(later, envs, arch.widths[1:]):
        b = math.sqrt(w) * e.sigma_max
        b_sq1 = b * b + 1.0
        # the coefficients of L (alpha_w's and the carry's), of L^2 and of the previous G
        lin = (
            3.0 * (_prod(c1, c1, n3) + _prod(c2, c2, d, d, b, b)) + 2.0 * _prod(c2, c2, d, d)
            + _sq(_prod(n3, c1) + _prod(d, c2, math.sqrt(b_sq1)))
        )
        quad, carried = _prod(2.0, c2, c2, d, d, d, d), _prod(2.0, n3, n3, c1, c1, d, d)
        g0, g1, g2 = (
            _prod(lin, l0) + _prod(c2, c2, b_sq1, 3.0 * b * b + 2.0)
            + _prod(quad, l0, l0) + _prod(carried, g0),
            _prod(lin, l1) + _prod(quad, 2.0, l0, l1) + _prod(carried, g1),
            _prod(quad, l1, l1) + _prod(carried, g2),
        )
        l0, l1 = _prod(c1, c1, _prod(d, d, l0) + b_sq1), _prod(c1, c1, d, d, l1)
    return (l0, l1), (g0, g1, g2)


def check_moment_mode(arch: ArchitectureSpec) -> None:
    """Raise ValueError unless the moment mode covers arch.

    Its polynomial envelopes need bounded activations.
    """
    if not all(math.isfinite(a.envelope.sigma_max) for a in arch.activations):
        raise ValueError("moment mode requires bounded activations")


def moment_certificate(
    arch: ArchitectureSpec,
    inputs: BoundInputs,
    loss: LossEnvelope | None,
    moments: SampleMoments,
) -> Certificate:
    """Certificate from norm moments via polynomial envelopes in t = S^2.

    The weakened squared head constants are polynomials in t of degree <= 1
    (loss level) and <= 2 (gradient level) with nonnegative coefficients,
    built by _poly_head_sq_constants.  Integrated termwise against
    (E[S^2], E[S^4]) they bound E[L_phi^2] and E[L_grad_phi^2]; Jensen then
    bounds the expectations themselves.  A coefficient or moment product
    that overflows certifies +inf.

    The per-layer table is evaluated at the reference norm sqrt(E[S^2]) and
    is informational in this mode; only l_phi / l_grad_phi / b_grad_phi are
    certified expectations.
    """
    if loss is None:
        raise ValueError("moment mode needs a loss envelope")
    check_moment_mode(arch)
    nb = _network_bounds(arch, inputs.budgets_for(arch), math.sqrt(moments.e_s2))
    (p0, p1), (q0, q1, q2) = _poly_head_sq_constants(arch, inputs, loss)
    l_phi = math.sqrt(p0 + _prod(p1, moments.e_s2))
    l_grad_phi = math.sqrt(q0 + _prod(q1, moments.e_s2) + _prod(q2, moments.e_s4))
    return _certificate(
        arch, inputs, nb, loss, (l_phi, l_grad_phi), "recursive",
        moments=moments, flags=("moment_mode",),
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


def _box_geometry(
    lo: tuple[float, ...], hi: tuple[float, ...], b_omega: float
) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
    """The two budget vectors of box [lo, hi] in _sup_over_splits: where the
    segment lo -> corner leaves the unit ball (its lower estimate) and the
    clipped upper corner (its bound); None for a box outside the ball."""

    def budgets(x: Sequence[float], rest: float) -> tuple[float, ...]:
        # layer 1 gets what 1 - sum(x^2) = rest leaves of the radius
        return (b_omega * math.sqrt(max(rest, 0.0)), *[b_omega * v for v in x])

    sq = [v * v for v in lo]
    lo_sq = math.fsum(sq)
    if lo_sq > 1.0:
        return None
    # how far each coordinate can go with the others at their lower corner
    u = [min(h, math.sqrt(max(1.0 - math.fsum(sq[:i] + sq[i + 1 :]), 0.0)))
         for i, h in enumerate(hi)]
    # lo + t v with v = u - lo leaves the ball at the root t of a quadratic
    v = [b - a for a, b in zip(lo, u)]
    vv, lv = math.fsum([x * x for x in v]), math.fsum([x * y for x, y in zip(lo, v)])
    disc = max(lv * lv - vv * (lo_sq - 1.0), 0.0)
    t = min(1.0, (math.sqrt(disc) - lv) / vv) if vv else 0.0
    point = [x + t * y for x, y in zip(lo, v)]
    # where the segment leaves the ball, layer 1 gets nothing
    return (
        budgets(point, 0.0 if t < 1.0 else 1.0 - math.fsum([x * x for x in point])),
        budgets(u, 1.0 - lo_sq),
    )


def _sup_over_splits(
    f: Callable[[tuple[float, ...]], float],
    dim: int,
    b_omega: float,
    max_splits: int,
    boxes: dict[tuple, tuple | None],
) -> tuple[float, tuple[float, ...], int]:
    """Upper bound on sup f over nonnegative splits with sum(D_u^2) <= b_omega^2.

    f is nondecreasing in every budget, so the supremum lies on the sphere
    sum(D_u^2) = b_omega^2, and the search runs there.  Branch and bound over
    boxes [lo, hi] of normalized budgets x_u = D_u / b_omega of layers
    2..dim, starting from [0, 1]^(dim - 1); layer 1 takes the rest of the
    radius, D_1 = b_omega sqrt(1 - sum(x^2)).  On a box's part inside the
    unit ball f is at most its value at the corner x_u = min(hi_u,
    sqrt(1 - sum_{j != u} lo_j^2)), D_1 = b_omega sqrt(1 - sum(lo^2)); the
    root's corner is (b, ..., b), the uniform split.  A box's lower estimate
    is f where the segment lo -> x leaves the unit ball.  The box with the
    largest bound is halved along its longest edge, an upper half with
    sum(lo^2) > 1 is dropped, and the search stops once that bound is within
    _SPLIT_RTOL of the best lower estimate or after max_splits splits.

    boxes maps each (lo, hi) pushed so far to its _box_geometry; searches
    over one radius share it, so a box pushed by several of them is measured
    once.

    Returns (upper, split, splits): the largest bound still open, the split
    with the best lower estimate, and the splits used.
    """
    heap: list[tuple] = []
    order = itertools.count()
    lower, split = -math.inf, ()

    def push(lo: tuple[float, ...], hi: tuple[float, ...]) -> None:
        nonlocal lower, split
        key = (lo, hi)
        if key not in boxes:
            boxes[key] = _box_geometry(lo, hi, b_omega)
        geometry = boxes[key]
        if geometry is None:
            return
        d, corner = geometry
        value = f(d)
        if value > lower:
            lower, split = value, d
        heapq.heappush(heap, (-f(corner), next(order), lo, hi))

    push((0.0,) * (dim - 1), (1.0,) * (dim - 1))
    splits = 0
    while splits < max_splits and -heap[0][0] > lower * (1.0 + _SPLIT_RTOL):
        _, _, lo, hi = heapq.heappop(heap)
        # longest edge; ties go to the later layer, whose budget counts for more
        i = max(range(dim - 1), key=lambda k: (hi[k] - lo[k], k))
        mid = 0.5 * (lo[i] + hi[i])
        push(lo, hi[:i] + (mid,) + hi[i + 1 :])
        push(lo[:i] + (mid,) + lo[i + 1 :], hi)
        splits += 1
    return -heap[0][0], split, splits


def refine_over_layer_budgets(
    arch: ArchitectureSpec,
    inputs: BoundInputs,
    loss: LossEnvelope | None,
    dataset_norms: Sequence[float],
    search: RefinementSearch = RefinementSearch(),
) -> Certificate:
    """Tighten the uniform certificate by splitting the radius across layers.

    Any split D with sum(D_u^2) <= b_omega^2 yields valid constants, so their
    supremum over all splits is a certificate on the whole ball.  Each of
    the four reported constants is an upper bound on that supremum from its
    own branch and bound (_sup_over_splits, at most search.max_splits box
    splits), capped by the uniform certificate: rigorous at any effort, and
    tighter with more.  The layer budgets and per-layer table come from the
    best split of the l_grad_phi search, which lies on the sphere
    sum(D_u^2) = b_omega^2; lower_estimate is l_grad_phi there.

    One recursion at a budget vector gives all four constants, so one memo
    maps each budget vector to its four floats (_budget_constants), shared
    by the four searches, the uniform caps and the lower estimate.  Beside
    it, one box table maps each box the searches push to its two budget
    vectors (_box_geometry), so a box that several searches push is
    measured once.  The recursion with a per-layer table (_network_bounds)
    runs once, at the reported split, for its table.
    """
    norms = check_sample_norms(dataset_norms)
    if arch.m < 1:
        raise ValueError("budget refinement needs at least one hidden layer")
    if loss is None:
        raise ValueError("budget refinement needs a loss: it searches the loss constants")
    s_max = max(norms)
    d_uniform = inputs.budgets_for(arch)
    evaluate = _budget_constants(arch, loss, norms)
    memo: dict[tuple[float, ...], tuple[float, float, float, float]] = {}

    def constant(k: int) -> Callable[[tuple[float, ...]], float]:
        def f(d: tuple[float, ...]) -> float:
            c = memo.get(d)
            if c is None:
                c = memo[d] = evaluate(d)
            return c[k]
        return f

    uniform = memo[d_uniform] = evaluate(d_uniform)
    boxes: dict[tuple, tuple | None] = {}
    results = [
        _sup_over_splits(constant(k), arch.m + 1, inputs.b_omega, search.max_splits, boxes)
        for k in range(4)
    ]
    l_n, l_grad_n, l_phi, l_grad_phi = (min(r[0], cap) for r, cap in zip(results, uniform))
    _, d_star, splits = results[-1]

    improved = l_grad_phi < uniform[3] * (1.0 - 1e-15)
    return _certificate(
        arch, inputs, _network_bounds(arch, d_star, s_max), loss, (l_phi, l_grad_phi),
        "refined_budgets", norms=norms, network_constants=(l_n, l_grad_n),
        flags=() if improved else ("no_improvement",),
        layer_budgets=d_star, lower_estimate=constant(3)(d_star), splits=splits,
    )


# ---------------------------------------------------------------------------
# step-size derivations


def derive_adagrad_params(
    cert: Certificate, eps_margin: float = 1.0, eps_exponent: float = 0.0
) -> tuple[float, float]:
    """Pick (alpha, beta) with 2 * alpha * l_grad_phi < beta^(1/2 + eps).

    alpha is fixed at 1/2; beta = l_grad_phi^(2 / (1 + 2 eps)) + eps_margin
    then satisfies the strict inequality with room eps_margin.
    """
    if not (eps_margin > 0 and math.isfinite(eps_margin)):
        raise ValueError("eps_margin must be a positive finite real")
    if not (eps_exponent >= 0 and math.isfinite(eps_exponent)):
        raise ValueError("eps_exponent must be a nonnegative finite real")
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
    try:
        rhs = beta ** (0.5 + eps_exponent)
    except OverflowError:  # above every float, so above every finite lhs
        rhs = math.inf
    if not lhs < rhs:
        raise ValueError(
            f"step-size condition violated: 2*alpha*L = {lhs} >= beta^(1/2+eps) = {rhs}"
        )
