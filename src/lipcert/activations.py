"""Scalar activations with exact analytic derivatives and certified envelopes.

Every activation used by the bound machinery carries three global constants:
an upper bound on |sigma|, on |sigma'| and on |sigma''|.  The derivative
callables are closed-form expressions, not numerical differentiation, so the
envelope constants can be checked against dense grids in the tests.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# exact suprema of the second derivatives, attained at tanh(x) = 1/sqrt(3)
# and sigmoid(x) = 1/2 - 1/(2*sqrt(3)) respectively
TANH_D2_MAX = 4.0 / (3.0 * math.sqrt(3.0))
SIGMOID_D2_MAX = 1.0 / (6.0 * math.sqrt(3.0))


@dataclass(frozen=True)
class ActivationEnvelope:
    """Global bounds on an activation and its first two derivatives.

    sigma_max may be +inf (unbounded activations such as the smoothed ramp);
    the other two constants must be finite.  relu_epsilon is the uniform gap
    between the smoothed ramp and the hard ramp it replaces; it is zero for
    every other kind and feeds the alternate output-bound recursion.
    """

    kind: str
    sigma_max: float
    sigma_p_max: float
    sigma_pp_max: float
    relu_epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma_max < 0 or math.isnan(self.sigma_max):
            raise ValueError("sigma_max must be nonnegative (inf allowed)")
        for name in ("sigma_p_max", "sigma_pp_max", "relu_epsilon"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative")


class Activation:
    """Componentwise scalar nonlinearity bundled with its envelope."""

    def __init__(
        self,
        envelope: ActivationEnvelope,
        value: Callable[[np.ndarray], np.ndarray],
        deriv: Callable[[np.ndarray], np.ndarray],
        deriv2: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        self.envelope = envelope
        self._value = value
        self._deriv = deriv
        self._deriv2 = deriv2

    @property
    def kind(self) -> str:
        return self.envelope.kind

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._value(np.asarray(x, dtype=float))

    def deriv(self, x: np.ndarray) -> np.ndarray:
        return self._deriv(np.asarray(x, dtype=float))

    def deriv2(self, x: np.ndarray) -> np.ndarray:
        return self._deriv2(np.asarray(x, dtype=float))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Activation({self.envelope!r})"


def tanh() -> Activation:
    env = ActivationEnvelope("tanh", 1.0, 1.0, TANH_D2_MAX)

    def d1(x):
        t = np.tanh(x)
        return 1.0 - t * t

    def d2(x):
        t = np.tanh(x)
        return -2.0 * t * (1.0 - t * t)

    return Activation(env, np.tanh, d1, d2)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # one exp of a nonpositive argument: 1/(1+e) for x >= 0, e/(1+e) below;
    # where() keeps a NaN's sign, which -abs(x) would flip
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0, e) / (1.0 + e)


def sigmoid() -> Activation:
    env = ActivationEnvelope("sigmoid", 1.0, 0.25, SIGMOID_D2_MAX)

    def d1(x):
        s = _stable_sigmoid(x)
        return s * (1.0 - s)

    def d2(x):
        s = _stable_sigmoid(x)
        return s * (1.0 - s) * (1.0 - 2.0 * s)

    return Activation(env, _stable_sigmoid, d1, d2)


def smoothed_relu(delta: float) -> Activation:
    """Ramp with the kink replaced by a parabola on [-delta, delta].

    Identically zero left of -delta and the identity right of +delta, with
    (x + delta)^2 / (4 delta) in between.  C^1 everywhere, second derivative
    1/(2 delta) on the blending band, and the uniform distance to the hard
    ramp equals delta/4 (attained at the origin).
    """
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError("delta must be a positive finite real")
    env = ActivationEnvelope(
        "smoothed_relu", math.inf, 1.0, 1.0 / (2.0 * delta), relu_epsilon=delta / 4.0
    )

    def val(x):
        mid = (x + delta) ** 2 / (4.0 * delta)
        return np.where(x <= -delta, 0.0, np.where(x >= delta, x, mid))

    def d1(x):
        # (x + delta) / (2 delta) rounds to <= 0 left of the band and >= 1 right of it
        return np.clip((x + delta) / (2.0 * delta), 0.0, 1.0)

    def d2(x):
        return np.where(np.abs(x) < delta, 1.0 / (2.0 * delta), 0.0)

    return Activation(env, val, d1, d2)


def saturated_linear(c: float, r_sat: float, delta: float | None = None) -> Activation:
    """Odd ramp of slope c that levels off near +-r_sat.

    Exactly c*x on |x| <= r_sat - delta, constant beyond |x| >= r_sat, and a
    quintic-smoothstep blend of the slope in between, so the map is C^2 with
    |sigma'| <= c and |sigma''| <= 15 c / (8 delta).  The exact linear core is
    what the analytic worst-case parameter pair relies on.
    """
    if not (c > 0 and math.isfinite(c)):
        raise ValueError("c must be a positive finite real")
    if not (r_sat > 0 and math.isfinite(r_sat)):
        raise ValueError("r_sat must be a positive finite real")
    if delta is None:
        delta = r_sat / 10.0
    if not (0 < delta < r_sat):
        raise ValueError("delta must lie in (0, r_sat)")
    env = ActivationEnvelope(
        "saturated_linear", c * (r_sat - delta / 2.0), c, 15.0 * c / (8.0 * delta)
    )
    lo = r_sat - delta
    top = env.sigma_max

    def blend_t(ax):
        return np.clip((ax - lo) / delta, 0.0, 1.0)

    # the polynomials run on the blending band only: elements with lo < |x| < r_sat,
    # and NaN, which fails both comparisons and so takes the band's formula
    def val(x):
        ax = np.abs(x)
        flat = ax >= r_sat
        y = np.where(flat, top, c * ax)
        band = ~((ax <= lo) | flat)
        t = blend_t(ax[band])
        # integral of the blended slope c*(1 - q(t)), q the quintic smoothstep
        q_int = t**6 - 3.0 * t**5 + 2.5 * t**4
        y[band] = c * lo + c * delta * (t - q_int)
        return np.sign(x) * y

    def d1(x):
        ax = np.abs(x)
        flat = ax >= r_sat
        y = np.where(flat, 0.0, c)
        band = ~((ax <= lo) | flat)
        t = blend_t(ax[band])
        q = 6.0 * t**5 - 15.0 * t**4 + 10.0 * t**3
        y[band] = c * (1.0 - q)
        return y

    def d2(x):
        ax = np.abs(x)
        y = np.zeros_like(ax)
        inside = (ax > lo) & (ax < r_sat)
        t = blend_t(ax[inside])
        qp = 30.0 * t**4 - 60.0 * t**3 + 30.0 * t**2
        y[inside] = -np.sign(x[inside]) * c * qp / delta
        return y

    return Activation(env, val, d1, d2)


_BUILTIN = {"tanh": tanh, "sigmoid": sigmoid}
_PARAMETRIZED = {"smoothed_relu": smoothed_relu, "saturated_linear": saturated_linear}


def make_activation(kind: str, **kwargs) -> Activation:
    """Build an activation from its config name and parameter keys.

    Raises KeyError on unknown kinds, and ValueError naming the key when one
    is unknown to the kind or one it needs is missing.
    """
    if kind in _BUILTIN:
        if kwargs:
            raise ValueError(f"{kind} takes no parameters")
        return _BUILTIN[kind]()
    if kind not in _PARAMETRIZED:
        raise KeyError(f"unknown activation kind: {kind!r}")
    build = _PARAMETRIZED[kind]
    params = inspect.signature(build).parameters
    for key in kwargs:
        if key not in params:
            raise ValueError(f"unknown key {key!r} for {kind}")
    for key, p in params.items():
        if p.default is p.empty and key not in kwargs:
            raise ValueError(f"missing key {key!r} for {kind}")
    return build(**kwargs)
