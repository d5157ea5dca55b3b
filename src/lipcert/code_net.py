"""Controlled-ODE networks: states driven by vector fields and BV controls.

The state follows dX_t = sum_i V_i(theta, t, X_{t-}) du_i(t) where each
scalar control u_i splits into jumps plus an absolutely continuous part with
piecewise-constant density.  The module integrates the state, its first
parameter sensitivity dX/dtheta and the second one, and turns growth
envelopes of the fields into certified bounds: on the state norm, on the
parameter-Lipschitz constant of theta -> X_T, and on the Lipschitz constant
of the sensitivity itself, which then feed loss-level constants exactly as
in the dense-network route.  A dense network is recovered as the special
case of a single pure-jump control with unit jumps at integer times.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .bounds import ArchitectureSpec, LossEnvelope, _fsum, check_sample_norms, full_moments

__all__ = [
    "CodeCertificate",
    "Control",
    "FieldEnvelopes",
    "Trajectory",
    "VectorFieldSpec",
    "code_certificate",
    "code_loss_certificate",
    "dnn_as_code",
    "linear_scalar_field",
    "random_smooth_field",
    "solve_code",
    "solve_code_batch",
    "solve_first_variation",
    "solve_second_variation",
    "total_variation",
    "verify_envelopes",
]


# ---------------------------------------------------------------------------
# controls


@dataclass(frozen=True)
class Control:
    """Scalar control of bounded variation on [0, T].

    jumps is a tuple of (time, size) with times in (0, T]; the absolutely
    continuous part has piecewise-constant density density_values[j] on
    [density_breaks[j], density_breaks[j+1]).
    """

    t_final: float
    jumps: tuple[tuple[float, float], ...] = ()
    density_breaks: tuple[float, ...] = ()
    density_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (self.t_final > 0 and math.isfinite(self.t_final)):
            raise ValueError("t_final must be a positive finite real")
        for t, s in self.jumps:
            if not (0.0 < t <= self.t_final):
                raise ValueError("jump times must lie in (0, t_final]")
            if not math.isfinite(s):
                raise ValueError("jump sizes must be finite")
        if self.density_breaks or self.density_values:
            br, dv = self.density_breaks, self.density_values
            if len(br) != len(dv) + 1:
                raise ValueError("need one more break than density value")
            if br[0] != 0.0 or br[-1] != self.t_final:
                raise ValueError("density breaks must span [0, t_final]")
            if any(b1 >= b2 for b1, b2 in zip(br, br[1:])):
                raise ValueError("density breaks must be strictly increasing")
            if any(not math.isfinite(v) for v in dv):
                raise ValueError("density values must be finite")

    @classmethod
    def steps(cls, jumps: Sequence[tuple[float, float]], t_final: float) -> "Control":
        ordered = tuple(sorted((float(t), float(s)) for t, s in jumps))
        return cls(t_final=float(t_final), jumps=ordered)

    @classmethod
    def constant_density(cls, value: float, t_final: float) -> "Control":
        return cls(
            t_final=float(t_final),
            density_breaks=(0.0, float(t_final)),
            density_values=(float(value),),
        )

    def density_at(self, t: float) -> float:
        if not self.density_values:
            return 0.0
        j = bisect.bisect_right(self.density_breaks, t) - 1
        j = min(max(j, 0), len(self.density_values) - 1)
        return self.density_values[j]

    def jump_sizes(self) -> dict[float, float]:
        out: dict[float, float] = {}
        for t, s in self.jumps:
            out[t] = out.get(t, 0.0) + s
        return out

    def variation(self) -> float:
        jump_part = math.fsum(abs(s) for _, s in self.jumps)
        ac_part = math.fsum(
            abs(v) * (b2 - b1)
            for v, b1, b2 in zip(
                self.density_values, self.density_breaks, self.density_breaks[1:]
            )
        )
        return jump_part + ac_part


def total_variation(controls: Sequence[Control]) -> float:
    """Total variation summed over all controls (the budget B_upsilon)."""
    return math.fsum(c.variation() for c in controls)


# ---------------------------------------------------------------------------
# vector fields


@dataclass(frozen=True)
class FieldEnvelopes:
    """Growth bounds holding for every field, theta in the domain, t and x.

    ||V||            <= b_v * (1 + ||x||)
    ||d_theta V||    <= b_theta * (1 + ||x||^p_theta)
    ||d2 V/dtheta2|| <= b_theta_theta * (1 + ||x||^p_theta_theta)
    ||d2 V/dx dtheta|| <= b_x_theta * (1 + ||x||^p_x_theta)
    ||d2 V/dtheta dx|| <= b_theta_x * (1 + ||x||^p_theta_x)
    ||d2 V/dx2||     <= b_x_x * (1 + ||x||^p_x_x)
    and x -> V(theta, t, x) is lip_x-Lipschitz.

    All norms are Euclidean/Frobenius over the flattened tensors.  The mixed
    second derivatives keep separate constants on purpose: the solver never
    assumes the two orders of differentiation were certified together.
    """

    b_v: float
    b_theta: float
    b_theta_theta: float
    b_x_theta: float
    b_theta_x: float
    b_x_x: float
    lip_x: float
    p_theta: float = 0.0
    p_theta_theta: float = 0.0
    p_x_theta: float = 0.0
    p_theta_x: float = 0.0
    p_x_x: float = 0.0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{f.name} must be finite and nonnegative")


@dataclass(frozen=True)
class VectorFieldSpec:
    """A parametric field V(theta, t, x) with exact derivative callables.

    Every callable takes row batches (thetas (K, n), t, xs (K, l)) and
    returns one tensor per row, row k evaluated at (thetas[k], t, xs[k]).
    Tensor layouts (l = dim_state, n = dim_theta):
      evaluate        -> (K, l)
      jacobian_x      -> (K, l, l)    [k, a, b]    = dV_a / dx_b
      jacobian_theta  -> (K, l, n)    [k, a, p]    = dV_a / dtheta_p
      d2_theta_theta  -> (K, l, n, n) [k, a, p, q] = d2 V_a / dtheta_p dtheta_q
      d2_x_theta      -> (K, l, l, n) [k, a, b, p] = d2 V_a / dx_b dtheta_p
      d2_theta_x      -> (K, l, n, l) [k, a, p, b] = d2 V_a / dtheta_p dx_b
      d2_x_x          -> (K, l, l, l) [k, a, b, c] = d2 V_a / dx_b dx_c

    Derivative callables may be None when the corresponding solve order is
    never requested.  envelopes is optional and only needed for
    certificates; they hold for every entry of theta in theta_domain
    (lo, hi), unbounded by default.
    """

    dim_state: int
    dim_theta: int
    evaluate: Callable[[np.ndarray, float, np.ndarray], np.ndarray]
    jacobian_x: Callable[[np.ndarray, float, np.ndarray], np.ndarray] | None = None
    jacobian_theta: Callable[[np.ndarray, float, np.ndarray], np.ndarray] | None = None
    d2_theta_theta: Callable[[np.ndarray, float, np.ndarray], np.ndarray] | None = None
    d2_x_theta: Callable[[np.ndarray, float, np.ndarray], np.ndarray] | None = None
    d2_theta_x: Callable[[np.ndarray, float, np.ndarray], np.ndarray] | None = None
    d2_x_x: Callable[[np.ndarray, float, np.ndarray], np.ndarray] | None = None
    envelopes: FieldEnvelopes | None = None
    theta_domain: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self) -> None:
        if self.dim_state < 1 or self.dim_theta < 0:
            raise ValueError("dim_state must be >= 1 and dim_theta >= 0")


# ---------------------------------------------------------------------------
# integration


@dataclass
class Trajectory:
    """Recorded path; jump times appear twice (left limit, then post-jump)."""

    times: np.ndarray
    states: np.ndarray
    first_variation: np.ndarray | None = None
    second_variation: np.ndarray | None = None
    aborted: bool = False

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_first_variation(self) -> np.ndarray:
        if self.first_variation is None:
            raise ValueError("trajectory holds no first variation")
        return self.first_variation[-1]

    @property
    def final_second_variation(self) -> np.ndarray:
        if self.second_variation is None:
            raise ValueError("trajectory holds no second variation")
        return self.second_variation[-1]

    def state_at(self, t: float) -> np.ndarray:
        """Right-continuous lookup of the recorded path."""
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        if idx < 0:
            raise ValueError("t precedes the trajectory start")
        return self.states[idx]


def _as_field_list(
    fields: VectorFieldSpec | Sequence[VectorFieldSpec],
    controls: Control | Sequence[Control],
) -> tuple[list[VectorFieldSpec], list[Control]]:
    fl = [fields] if isinstance(fields, VectorFieldSpec) else list(fields)
    cl = [controls] if isinstance(controls, Control) else list(controls)
    if len(fl) != len(cl):
        raise ValueError("need exactly one control per field")
    if not fl:
        raise ValueError("need at least one field")
    t = cl[0].t_final
    if any(c.t_final != t for c in cl):
        raise ValueError("all controls must share the same horizon")
    l = fl[0].dim_state
    n = fl[0].dim_theta
    if any(f.dim_state != l or f.dim_theta != n for f in fl):
        raise ValueError("all fields must share state and parameter dimensions")
    return fl, cl


def _event_grid(controls: Sequence[Control]) -> list[float]:
    t_final = controls[0].t_final
    pts = {0.0, t_final}
    for c in controls:
        pts.update(c.density_breaks)
        pts.update(t for t, _ in c.jumps)
    return sorted(pts)


def _increments(
    fields: Sequence[VectorFieldSpec],
    t: float,
    weights: Sequence[float],
    thetas: np.ndarray,
    ys: list[np.ndarray],
) -> list[np.ndarray]:
    """Weighted field contributions at the current left-limit rows, one per entry of ys.

    The first contributing field's terms are the increment and later fields
    add to it; with no contributing field (every weight zero, which a tiny
    density times dt can give) the increment is zero.
    """
    xs = ys[0]
    incs = None
    for f, w in zip(fields, weights):
        if w == 0.0:
            continue
        terms = [w * f.evaluate(thetas, t, xs)]
        if len(ys) > 1:
            dX = ys[1]
            jx = f.jacobian_x(thetas, t, xs)
            terms.append(w * (f.jacobian_theta(thetas, t, xs) + jx @ dX))
            if len(ys) > 2:
                term = (
                    f.d2_theta_theta(thetas, t, xs)
                    + np.einsum("kabp,kbq->kapq", f.d2_x_theta(thetas, t, xs), dX)
                    + np.einsum("kaqb,kbp->kapq", f.d2_theta_x(thetas, t, xs), dX)
                    + np.einsum("kabc,kbp,kcq->kapq", f.d2_x_x(thetas, t, xs), dX, dX)
                    + np.einsum("kab,kbpq->kapq", jx, ys[2])
                )
                terms.append(w * term)
        incs = terms if incs is None else [inc + term for inc, term in zip(incs, terms)]
    return [np.zeros(y.shape) for y in ys] if incs is None else incs


def _integrate(
    fields: Sequence[VectorFieldSpec],
    controls: Sequence[Control],
    thetas: np.ndarray,
    xs: np.ndarray,
    n_substeps: int,
    order: int,
    path: list | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """The one Euler engine: K parameter rows (K, n) from K states (K, l).

    The solution is the list [states (K, l), first variations (K, l, n),
    second variations (K, l, n, n)] cut to its first order + 1 entries.
    Returns that list at the final time and a (K,) mask of the rows that
    turned non-finite.  Such a row is frozen at its first non-finite state
    and leaves the batch; the other rows keep stepping.  When path is a
    list, each recorded point (the start, every substep, every flat segment
    end and every jump) is appended as (t, copies of the solution list) for
    the rows still stepping.

    With no path, a density segment first runs its substeps unchecked and
    checks the states once at its end.  A segment that left a row
    non-finite, or met a floating-point error that the caller's errstate
    does not ignore, is stepped again from its start with the check after
    every substep, so rows freeze and errors surface exactly where they
    would have.  Jumps are always checked at once.
    """
    if n_substeps < 1:
        raise ValueError("n_substeps must be >= 1")
    if order >= 1 and any(
        f.jacobian_x is None or f.jacobian_theta is None for f in fields
    ):
        raise ValueError("first variation needs jacobian_x and jacobian_theta")
    if order >= 2 and any(
        f.d2_theta_theta is None
        or f.d2_x_theta is None
        or f.d2_theta_x is None
        or f.d2_x_x is None
        for f in fields
    ):
        raise ValueError("second variation needs all second-derivative callables")

    k, l = xs.shape
    n = thetas.shape[1]
    ys = [np.array(xs, dtype=float)]
    ys += [np.zeros((k, l) + (n,) * j) for j in range(1, order + 1)]
    finals = [np.empty(y.shape) for y in ys]
    live = np.arange(k)
    frozen = np.zeros(k, dtype=bool)
    # an unchecked pass ignores what the caller ignores and stops at the rest
    held = {kind: "ignore" if mode == "ignore" else "raise" for kind, mode in np.geterr().items()}

    def record(t: float) -> None:
        path.append((t, [y.copy() for y in ys]))

    def settle(rows: np.ndarray) -> None:
        """Write the given (batch-local) rows to the finals."""
        for final, y in zip(finals, ys):
            final[live[rows]] = y[rows]

    def advance(t: float, weights: Sequence[float]) -> None:
        for y, inc in zip(ys, _increments(fields, t, weights, thetas, ys)):
            y += inc

    def step(t: float, weights: Sequence[float], t_after: float) -> bool:
        """One Euler or jump update; False once no row is left stepping."""
        nonlocal thetas, ys, live
        advance(t, weights)
        if path is not None:
            record(t_after)
        # one reduction in the common case; the row mask only after an overflow
        if not np.isfinite(ys[0]).all():
            ok = np.isfinite(ys[0]).all(axis=1)
            settle(~ok)
            frozen[live[~ok]] = True
            thetas, live = thetas[ok], live[ok]
            ys = [y[ok] for y in ys]
        return live.size > 0

    def segment(a: float, dt: float, weights: Sequence[float]) -> bool:
        """The n_substeps Euler steps from a; False once no row is left stepping."""
        nonlocal ys
        if path is None:
            start = [y.copy() for y in ys]
            try:
                with np.errstate(**held):
                    for j in range(n_substeps):
                        advance(a + j * dt, weights)
                # a non-finite entry stays non-finite, so the end shows every overflow
                if np.isfinite(ys[0]).all():
                    return True
            except FloatingPointError:
                pass
            ys = start
        return all(step(a + j * dt, weights, a + (j + 1) * dt) for j in range(n_substeps))

    if path is not None:
        record(0.0)
    grid = _event_grid(controls)
    for a, b_t in zip(grid, grid[1:]):
        densities = [c.density_at(a) for c in controls]
        if any(d != 0.0 for d in densities):
            dt = (b_t - a) / n_substeps
            if not segment(a, dt, [d * dt for d in densities]):
                break
        elif path is not None:
            record(b_t)
        jump_w = [c.jump_sizes().get(b_t, 0.0) for c in controls]
        if any(w != 0.0 for w in jump_w) and not step(b_t, jump_w, b_t):
            break
    settle(np.arange(live.size))
    return finals, frozen


def _solve_path(
    fields: VectorFieldSpec | Sequence[VectorFieldSpec],
    controls: Control | Sequence[Control],
    theta: np.ndarray,
    x: np.ndarray,
    n_substeps: int,
    order: int,
) -> Trajectory:
    """Single-point solve: the engine at K = 1 with its path recorded."""
    fl, cl = _as_field_list(fields, controls)
    n = fl[0].dim_theta
    l = fl[0].dim_state
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n,):
        raise ValueError(f"theta must have shape ({n},)")
    x = np.asarray(x, dtype=float)
    if x.shape != (l,):
        raise ValueError(f"x must have shape ({l},)")
    path: list = []
    _, frozen = _integrate(fl, cl, theta[None], x[None], n_substeps, order, path)
    # states, then the variations the order asks for; the rest stay None
    series = [np.asarray([ys[j][0] for _, ys in path]) for j in range(order + 1)]
    return Trajectory(
        np.asarray([t for t, _ in path]), *series, aborted=bool(frozen[0])
    )


def solve_code_batch(
    fields: VectorFieldSpec | Sequence[VectorFieldSpec],
    controls: Control | Sequence[Control],
    thetas: np.ndarray,
    xs: np.ndarray,
    n_substeps: int = 100,
) -> np.ndarray:
    """Final states (K, l) of K parameter rows (K, n) started from xs (K, l).

    Row i equals solve_code(fields, controls, thetas[i], xs[i],
    n_substeps).final_state bit for bit, a row that turns non-finite
    included; no path is recorded, so memory stays O(K l).
    """
    fl, cl = _as_field_list(fields, controls)
    n = fl[0].dim_theta
    l = fl[0].dim_state
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != n:
        raise ValueError(f"parameter rows must have shape (K, {n})")
    xs = np.asarray(xs, dtype=float)
    if xs.shape != (thetas.shape[0], l):
        raise ValueError(f"states must have shape ({thetas.shape[0]}, {l})")
    finals, _ = _integrate(fl, cl, thetas, xs, n_substeps, order=0)
    return finals[0]


def solve_code(
    fields: VectorFieldSpec | Sequence[VectorFieldSpec],
    controls: Control | Sequence[Control],
    theta: np.ndarray,
    x: np.ndarray,
    n_substeps: int = 100,
) -> Trajectory:
    """Left-point Euler through the event grid, jumps applied on left limits.

    The grid is the union of all density breakpoints and jump times; each
    absolutely continuous segment is cut into n_substeps Euler steps, and a
    jump at time tau fires after the segment ending at tau using the state
    just before it.  Simultaneous jumps of several controls share the same
    left limit.
    """
    return _solve_path(fields, controls, theta, x, n_substeps, order=0)


def solve_first_variation(
    fields: VectorFieldSpec | Sequence[VectorFieldSpec],
    controls: Control | Sequence[Control],
    theta: np.ndarray,
    x: np.ndarray,
    n_substeps: int = 100,
) -> Trajectory:
    """Co-integrate the state with its parameter sensitivity dX/dtheta.

    The sensitivity satisfies the linear equation driven by the same
    controls, d(dX) = (d_theta V + d_x V . dX) du, started at zero.
    """
    return _solve_path(fields, controls, theta, x, n_substeps, order=1)


def solve_second_variation(
    fields: VectorFieldSpec | Sequence[VectorFieldSpec],
    controls: Control | Sequence[Control],
    theta: np.ndarray,
    x: np.ndarray,
    n_substeps: int = 100,
) -> Trajectory:
    """Co-integrate state, first and second parameter sensitivities.

    Component equation for the (state a, theta_p, theta_q) entry:
    d(ddX)_apq = [d2V/dth_p dth_q + d2V/dx dth_p . dX_q
                  + d2V/dth_q dx . dX_p + dX_p . d2V/dx2 . dX_q
                  + dV/dx . ddX_pq] du.
    """
    return _solve_path(fields, controls, theta, x, n_substeps, order=2)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CodeCertificate:
    """Certified constants for theta -> X_T on a parameter ball.

    b_x bounds the state norm along the whole path, l_x the parameter
    Lipschitz constant of the final state (which also bounds the sensitivity
    norm, b_dx), c_theta_theta collects the second-derivative growth, and
    l_dx is the Lipschitz constant of the sensitivity.  l_phi / l_grad_phi
    are filled by code_loss_certificate.
    """

    b_upsilon: float
    x_norm: float
    b_x: float
    l_x: float
    c_theta_theta: float
    l_dx: float
    envelopes: FieldEnvelopes
    l_phi: float | None = None
    l_grad_phi: float | None = None

    @property
    def b_dx(self) -> float:
        return self.l_x

    @property
    def status(self) -> str:
        return "rigorous"


def code_certificate(
    envelopes: FieldEnvelopes, b_upsilon: float, x_norm: float
) -> CodeCertificate:
    """Grönwall-style constants from field envelopes and the control budget."""
    if not (b_upsilon >= 0 and math.isfinite(b_upsilon)):
        raise ValueError("b_upsilon must be finite and nonnegative")
    if not (x_norm >= 0 and math.isfinite(x_norm)):
        raise ValueError("x_norm must be finite and nonnegative")
    e = envelopes
    growth = e.b_v * b_upsilon
    b_x = (x_norm + growth) * math.exp(growth)
    amp = math.exp(e.lip_x * b_upsilon)
    l_x = e.b_theta * (1.0 + b_x**e.p_theta) * b_upsilon * amp
    c_tt = b_upsilon * (
        e.b_theta_theta * (1.0 + b_x**e.p_theta_theta)
        + e.b_x_theta * (1.0 + b_x**e.p_x_theta) * l_x
        + e.b_theta_x * (1.0 + b_x**e.p_theta_x) * l_x
        + e.b_x_x * (1.0 + b_x**e.p_x_x) * l_x * l_x
    )
    l_dx = c_tt * amp
    return CodeCertificate(
        b_upsilon=b_upsilon,
        x_norm=x_norm,
        b_x=b_x,
        l_x=l_x,
        c_theta_theta=c_tt,
        l_dx=l_dx,
        envelopes=e,
    )


def _expected_power(
    power: float, a: float, kappa: float, moments: dict[int, float]
) -> float:
    """E[B_X^power], B_X = kappa (S + a), binomially from moments {k >= 0: E[S^k]}."""
    if abs(power - round(power)) > 1e-12:
        raise ValueError(
            f"moment mode needs integer norm powers; got exponent {power}"
        )
    p = int(round(power))
    total = 0.0
    for k in range(p + 1):
        if k not in moments:
            raise ValueError(
                f"moment mode needs E[S^{k}] (powers up to {p} required)"
            )
        total += math.comb(p, k) * a ** (p - k) * moments[k]
    return kappa**p * total


def code_loss_certificate(
    cert: CodeCertificate,
    loss: LossEnvelope,
    sample_norms: Sequence[float] | None = None,
    moments: dict[int, float] | None = None,
) -> CodeCertificate:
    """Loss-level constants: L_phi = E[L_g L_X], L_grad_phi = E[L_dg L_X^2 + L_g L_dX].

    With explicit sample norms the per-sample certificates are recomputed at
    each norm and averaged.  With raw moments {k: E[S^k]} each constant is a
    product of factors (1 + B_X^p) with B_X = kappa (S + a), a = b_v b_upsilon
    and kappa = exp(a); its mean is a sum of E[B_X^q] over the subsets of
    those factors, each a binomial sum of raw moments.  That route needs
    integer exponent envelopes and moments some distribution of S >= 0 has.
    """
    lg = loss.lip_g_value
    ldg = loss.lip_dg_value
    if sample_norms is not None:
        phis, gphis = [], []
        for s in check_sample_norms(sample_norms):
            c = code_certificate(cert.envelopes, cert.b_upsilon, s)
            phis.append(lg * c.l_x)
            gphis.append(ldg * c.l_x * c.l_x + lg * c.l_dx)
        return replace(
            cert,
            l_phi=_fsum(phis) / len(phis),
            l_grad_phi=_fsum(gphis) / len(gphis),
        )
    if moments is None:
        raise ValueError("need sample_norms or moments")
    moments = full_moments(moments)
    e, bu = cert.envelopes, cert.b_upsilon
    a = e.b_v * bu
    kappa = math.exp(a)
    amp = math.exp(e.lip_x * bu)
    c = e.b_theta * bu * amp  # L_X = c (1 + B_X^p_theta)

    def mean(coef: float, *powers: float) -> float:
        """coef * E[prod_p (1 + B_X^p)], one moment term per subset of powers."""
        return coef * _fsum(
            _expected_power(sum(sub), a, kappa, moments)
            for r in range(len(powers) + 1)
            for sub in itertools.combinations(powers, r)
        )

    l_dx = bu * (
        mean(e.b_theta_theta, e.p_theta_theta)
        + mean(e.b_x_theta * c, e.p_x_theta, e.p_theta)
        + mean(e.b_theta_x * c, e.p_theta_x, e.p_theta)
        + mean(e.b_x_x * c * c, e.p_x_x, e.p_theta, e.p_theta)
    ) * amp
    return replace(
        cert,
        l_phi=lg * mean(c, e.p_theta),
        l_grad_phi=ldg * mean(c * c, e.p_theta, e.p_theta) + lg * l_dx,
    )


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of every flattened row a[k], bit for bit np.linalg.norm(a[k]).

    A stacked (1, n) @ (n, 1) product runs numpy's vector dot, the one
    np.linalg.norm runs on a single flattened tensor.
    """
    r = a.reshape(len(a), 1, math.prod(a.shape[1:]))
    return np.sqrt(np.matmul(r, r.swapaxes(1, 2))[:, 0, 0])


def verify_envelopes(
    fields: VectorFieldSpec | Sequence[VectorFieldSpec],
    envelopes: FieldEnvelopes,
    theta_box: tuple[np.ndarray, np.ndarray],
    x_box: tuple[np.ndarray, np.ndarray],
    t_points: Sequence[float],
    n_samples: int,
    seed: int,
) -> list[str]:
    """Grid/sample check of the envelope inequalities over a declared box.

    Returns human-readable violation records; an empty list means no sampled
    point broke any inequality (which is evidence, not proof).  Sample k
    draws theta, x, then its time point; each field callable then runs once
    per drawn time point, on all the samples drawn there.  Records come in
    sample order, then field order, then the order of the checks.
    """
    fl = [fields] if isinstance(fields, VectorFieldSpec) else list(fields)
    rng = np.random.default_rng(seed)
    t_lo, t_hi = (np.asarray(v, dtype=float) for v in theta_box)
    x_lo, x_hi = (np.asarray(v, dtype=float) for v in x_box)
    tp = np.asarray(t_points, dtype=float)
    e = envelopes

    u_theta = np.empty((n_samples, *t_lo.shape))
    u_x = np.empty((n_samples, *x_lo.shape))
    t_index = np.empty(n_samples, dtype=np.intp)
    for k in range(n_samples):
        u_theta[k] = rng.random(t_lo.shape)
        u_x[k] = rng.random(x_lo.shape)
        # the same draw as rng.choice(tp), without its per-call overhead
        t_index[k] = rng.integers(len(tp))
    thetas = t_lo + (t_hi - t_lo) * u_theta
    xs = x_lo + (x_hi - x_lo) * u_x
    ts = tp[t_index].tolist()
    nx = _row_norms(xs).tolist()
    # grouped by hand: np.unique would import numpy.ma, about 1 MB resident
    groups = []
    for j, t in enumerate(tp.tolist()):
        rows = np.flatnonzero(t_index == j)
        if rows.size:
            groups.append((t, rows))

    def norms(call, spectral: bool = False) -> list[float]:
        """The norm of call's tensor at every sample, one call per time point."""
        vals = np.empty(n_samples)
        for t, rows in groups:
            a = call(thetas[rows], t, xs[rows])
            vals[rows] = np.linalg.norm(a, 2, axis=(1, 2)) if spectral else _row_norms(a)
        return vals.tolist()

    def growth(bound: float, power: float) -> list[float]:
        # Python float powers, as in a one-sample check; a vectorised
        # np.power may round differently
        return [bound * (1 + v**power) for v in nx]

    # (tag, value, bound) per sample, in the order the records are emitted
    checks: list[tuple[str, list[float], list[float]]] = []
    for i, f in enumerate(fl):
        checks.append((f"field {i} b_v", norms(f.evaluate), [e.b_v * (1 + v) for v in nx]))
        if f.jacobian_theta is not None:
            checks.append(
                (f"field {i} b_theta", norms(f.jacobian_theta), growth(e.b_theta, e.p_theta))
            )
        if f.jacobian_x is not None:
            checks.append(
                (f"field {i} lip_x", norms(f.jacobian_x, spectral=True), [e.lip_x] * n_samples)
            )
        for name, call, bnd, pw in (
            ("b_theta_theta", f.d2_theta_theta, e.b_theta_theta, e.p_theta_theta),
            ("b_x_theta", f.d2_x_theta, e.b_x_theta, e.p_x_theta),
            ("b_theta_x", f.d2_theta_x, e.b_theta_x, e.p_theta_x),
            ("b_x_x", f.d2_x_x, e.b_x_x, e.p_x_x),
        ):
            if call is not None:
                checks.append((f"field {i} {name}", norms(call), growth(bnd, pw)))

    out: list[str] = []
    for k in range(n_samples):
        for tag, vals, bounds in checks:
            val, bound = vals[k], bounds[k]
            if val > bound * (1.0 + 1e-12):
                out.append(f"{tag}: {val:.6g} > {bound:.6g} at sample {k} (t={ts[k]:.3g})")
    return out


# ---------------------------------------------------------------------------
# concrete fields


def linear_scalar_field() -> VectorFieldSpec:
    """V(theta, t, x) = theta * x on scalar state and parameter.

    On the parameter domain [-1, 1] the envelopes below hold: the field
    grows at most linearly (b_v = 1), the parameter derivative is x itself
    (b_theta = 1 with power 1), the mixed second derivatives are the
    constant 1, and x -> theta x is 1-Lipschitz.
    """
    env = FieldEnvelopes(
        b_v=1.0,
        b_theta=1.0,
        b_theta_theta=0.0,
        b_x_theta=1.0,
        b_theta_x=1.0,
        b_x_x=0.0,
        lip_x=1.0,
        p_theta=1.0,
    )
    return VectorFieldSpec(
        dim_state=1,
        dim_theta=1,
        evaluate=lambda th, t, x: th * x,
        jacobian_x=lambda th, t, x: th[:, :, None],
        jacobian_theta=lambda th, t, x: x[:, :, None],
        d2_theta_theta=lambda th, t, x: np.zeros((len(th), 1, 1, 1)),
        d2_x_theta=lambda th, t, x: np.ones((len(th), 1, 1, 1)),
        d2_theta_x=lambda th, t, x: np.ones((len(th), 1, 1, 1)),
        d2_x_x=lambda th, t, x: np.zeros((len(th), 1, 1, 1)),
        envelopes=env,
        theta_domain=(-1.0, 1.0),
    )


def random_smooth_field(
    rng: np.random.Generator, dim_state: int, dim_theta: int, hidden: int = 3
) -> VectorFieldSpec:
    """Random bounded-derivative field V = A tanh(W x + U theta + c) + L x + M theta.

    All derivative callables are closed forms of the same tanh features, so
    one field exercises every tensor layout the sensitivity solvers consume.
    """
    a = rng.standard_normal((dim_state, hidden)) / hidden
    w = rng.standard_normal((hidden, dim_state)) / max(1, dim_state)
    u = rng.standard_normal((hidden, dim_theta)) / max(1, dim_theta)
    cc = rng.standard_normal(hidden)
    lin_x = rng.standard_normal((dim_state, dim_state)) * 0.1
    lin_t = rng.standard_normal((dim_state, dim_theta)) * 0.1

    def mv(mat, rows):
        """mat @ row for every row of (K, d) rows."""
        return np.matmul(mat, rows[:, :, None])[:, :, 0]

    def z(th, xv):
        return mv(w, xv) + mv(u, th) + cc

    def val(th, t, xv):
        return mv(a, np.tanh(z(th, xv))) + mv(lin_x, xv) + mv(lin_t, th)

    def jx(th, t, xv):
        d1 = 1.0 - np.tanh(z(th, xv)) ** 2
        return np.einsum("ah,kh,hb->kab", a, d1, w) + lin_x

    def jt(th, t, xv):
        d1 = 1.0 - np.tanh(z(th, xv)) ** 2
        return np.einsum("ah,kh,hp->kap", a, d1, u) + lin_t

    def d2(th, xv):
        tt = np.tanh(z(th, xv))
        return -2.0 * tt * (1.0 - tt * tt)

    def d2tt(th, t, xv):
        return np.einsum("ah,kh,hp,hq->kapq", a, d2(th, xv), u, u)

    def d2xt(th, t, xv):
        return np.einsum("ah,kh,hb,hp->kabp", a, d2(th, xv), w, u)

    def d2tx(th, t, xv):
        return np.einsum("ah,kh,hp,hb->kapb", a, d2(th, xv), u, w)

    def d2xx(th, t, xv):
        return np.einsum("ah,kh,hb,hc->kabc", a, d2(th, xv), w, w)

    return VectorFieldSpec(
        dim_state=dim_state,
        dim_theta=dim_theta,
        evaluate=val,
        jacobian_x=jx,
        jacobian_theta=jt,
        d2_theta_theta=d2tt,
        d2_x_theta=d2xt,
        d2_theta_x=d2tx,
        d2_x_x=d2xx,
    )


# ---------------------------------------------------------------------------
# dense networks as controlled ODEs


def dnn_as_code(arch: ArchitectureSpec) -> tuple[VectorFieldSpec, Control]:
    """Encode a dense network as one pure-jump control with unit jumps.

    The state lives in the maximal width, layers act at integer times
    1..m+1, and the field replaces the state by the next layer's output
    embedded with zero padding: V = embed(layer(x)) - x, so a unit jump
    performs exactly one layer (padding included, since X + V = embed(...)).
    Solving with theta = flatten_params(params) reproduces forward() at the
    final time.
    """
    m = arch.m
    lmax = max(arch.widths)
    n = arch.n_params
    t_final = float(m + 1)
    control = Control.steps([(float(i), 1.0) for i in range(1, m + 2)], t_final)

    def layer_index(t: float) -> int:
        return min(m + 1, max(1, int(math.ceil(t))))

    def pieces(thetas: np.ndarray, t: float, xs: np.ndarray):
        """Layer index, weights, layer input, pre-activation and activation (None at the output)."""
        i = layer_index(t)
        w_sl, b_sl = arch.layer_slices[i - 1]
        out_w, in_w = arch.widths[i], arch.widths[i - 1]
        w = thetas[:, w_sl].reshape(-1, out_w, in_w)
        xi = xs[:, :in_w]
        pre = np.matmul(w, xi[:, :, None])[:, :, 0] + thetas[:, b_sl]
        return i, w, xi, pre, arch.activations[i - 1] if i <= m else None

    def slopes(thetas: np.ndarray, t: float, xs: np.ndarray):
        """Layer index, weights, layer input and the activation's slope at the pre-activation."""
        i, w, xi, pre, act = pieces(thetas, t, xs)
        return i, w, xi, np.ones(pre.shape) if act is None else act.deriv(pre)

    def val(thetas, t, xs):
        _, _, _, pre, act = pieces(thetas, t, xs)
        post = pre if act is None else act(pre)
        v = -np.asarray(xs, dtype=float)
        v[:, : post.shape[1]] += post
        return v

    def jx(thetas, t, xs):
        i, w, _, d1 = slopes(thetas, t, xs)
        out_w, in_w = arch.widths[i], arch.widths[i - 1]
        j = np.tile(-np.eye(lmax), (len(thetas), 1, 1))
        j[:, :out_w, :in_w] += d1[:, :, None] * w
        return j

    def jt(thetas, t, xs):
        i, _, xi, d1 = slopes(thetas, t, xs)
        w_sl, b_sl = arch.layer_slices[i - 1]
        out_w, in_w = arch.widths[i], arch.widths[i - 1]
        cols = np.arange(n)
        rows = np.arange(out_w)
        j = np.zeros((len(thetas), lmax, n))
        # dV_a/dW_{a,c} = d1_a x_c sits in row a at the column of W_{a,c}
        j[:, rows[:, None], cols[w_sl].reshape(out_w, in_w)] = d1[:, :, None] * xi[:, None, :]
        j[:, rows, cols[b_sl]] = d1
        return j

    field = VectorFieldSpec(
        dim_state=lmax, dim_theta=n, evaluate=val, jacobian_x=jx, jacobian_theta=jt
    )
    return field, control


def embed_input(arch: ArchitectureSpec, x: np.ndarray) -> np.ndarray:
    """Zero-pad a network input up to the maximal width."""
    lmax = max(arch.widths)
    out = np.zeros(lmax)
    out[: arch.widths[0]] = np.asarray(x, dtype=float)
    return out
