"""Dense feed-forward networks with exact analytic derivatives.

Ground truth for everything the certificates claim to bound.  One batched
engine evaluates the net for every row of a parameter matrix on every row of
an input matrix (batch_forward) and runs reverse mode from any output
cotangents (batch_backward); the per-sample loss gradient, the full parameter
Jacobian and the batched maps in empirical and training are all built on it.
Derivatives use the activations' closed-form first derivatives; nothing here
is numerically differentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import ArchitectureSpec, LossEnvelope

__all__ = [
    "ForwardTrace",
    "Params",
    "Sample",
    "SquaredError",
    "PseudoHuber",
    "batch_backward",
    "batch_forward",
    "flatten_params",
    "forward",
    "grad_params",
    "init_params",
    "load_dataset_csv",
    "loss_head_envelopes",
    "param_jacobian",
    "param_norm",
    "project_to_ball",
    "sample_in_ball",
    "unflatten_params",
]


@dataclass(frozen=True)
class Params:
    """Per-layer (weight, bias) arrays; treated as immutable."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        for w, b in self.layers:
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError("each layer needs a (out,in) weight and (out,) bias")


@dataclass(frozen=True)
class Sample:
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class ForwardTrace:
    """Pre-activations, post-activations and the affine head output.

    post[u-1] is the u-th feature map applied to the input; output is the
    final affine layer (no activation on top).
    """

    pre: tuple[np.ndarray, ...]
    post: tuple[np.ndarray, ...]
    output: np.ndarray


def param_norm(params: Params) -> float:
    """Euclidean norm of all weights and biases concatenated."""
    total = math.fsum(
        float(np.dot(w.ravel(), w.ravel())) + float(np.dot(b, b))
        for w, b in params.layers
    )
    return math.sqrt(total)


def flatten_params(params: Params) -> np.ndarray:
    """theta in the layout of ArchitectureSpec.layer_slices: each weight row-major, then its bias."""
    chunks: list[np.ndarray] = []
    for w, b in params.layers:
        chunks.append(w.ravel())
        chunks.append(b)
    return np.concatenate(chunks) if chunks else np.zeros(0)


def unflatten_params(arch: ArchitectureSpec, flat: np.ndarray) -> Params:
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (arch.n_params,):
        raise ValueError(f"expected flat vector of length {arch.n_params}")
    return Params(tuple(
        (flat[w_sl].reshape(i_out, i_in).copy(), flat[b_sl].copy())
        for (w_sl, b_sl), i_in, i_out in zip(arch.layer_slices, arch.widths[:-1], arch.widths[1:])
    ))


def batch_forward(
    arch: ArchitectureSpec, thetas: np.ndarray, xs: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward pass of every parameter row (K, n_params) on every input row (r, l_in).

    Returns (pres, feats): pres[u] is the (K, r, width) pre-activation of
    layer u+1, feats[0] the (1, r, l_in) inputs and feats[u+1] the output of
    layer u+1, so feats[-1] == pres[-1] is the affine head output.
    """
    if thetas.ndim != 2 or thetas.shape[1] != arch.n_params:
        raise ValueError(f"parameter rows must have shape (K, {arch.n_params})")
    if xs.ndim != 2 or xs.shape[1] != arch.widths[0]:
        raise ValueError(f"input rows must have shape (r, {arch.widths[0]})")
    k = thetas.shape[0]
    h = xs[None]
    pres: list[np.ndarray] = []
    feats: list[np.ndarray] = [h]
    for u, (w_sl, b_sl) in enumerate(arch.layer_slices):
        w = thetas[:, w_sl].reshape(k, arch.widths[u + 1], arch.widths[u])
        z = np.einsum("koi,kri->kro", w, h) + thetas[:, None, b_sl]
        pres.append(z)
        h = arch.activations[u](z) if u < arch.m else z
        feats.append(h)
    return pres, feats


def batch_backward(
    arch: ArchitectureSpec,
    thetas: np.ndarray,
    pres: Sequence[np.ndarray],
    feats: Sequence[np.ndarray],
    seed: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Reverse mode: output cotangents (K, r, l_out) to parameter gradients (K, r, n_params).

    pres and feats come from batch_forward; their input-row axis may be 1
    and then broadcasts against the r seeds (the identity seed of a Jacobian).
    The gradients are written into out when it is given, and returned.
    """
    k, r, _ = seed.shape
    if out is None:
        out = np.empty((k, r, arch.n_params))
    d = seed
    for u in range(arch.n_layers - 1, -1, -1):
        w_sl, b_sl = arch.layer_slices[u]
        shape = (arch.widths[u + 1], arch.widths[u])
        np.multiply(
            d[:, :, :, None], feats[u][:, :, None, :], out=out[:, :, w_sl].reshape(k, r, *shape)
        )
        out[:, :, b_sl] = d
        if u > 0:
            d = np.einsum("kro,koi->kri", d, thetas[:, w_sl].reshape(k, *shape))
            d *= arch.activations[u - 1].deriv(pres[u - 1])
    return out


def _single(params: Params, arch: ArchitectureSpec, x: np.ndarray):
    """Validated K=1, r=1 engine inputs and forward pass."""
    x = np.asarray(x, dtype=float)
    if x.shape != (arch.widths[0],):
        raise ValueError(f"input must have shape ({arch.widths[0]},)")
    shapes = [(w.shape, b.shape) for w, b in params.layers]
    needed = [((i_out, i_in), (i_out,)) for i_in, i_out in zip(arch.widths[:-1], arch.widths[1:])]
    if shapes != needed:
        raise ValueError(f"parameter shapes {shapes} do not fit the architecture's {needed}")
    theta = flatten_params(params)[None]
    return theta, *batch_forward(arch, theta, x[None])


def forward(params: Params, arch: ArchitectureSpec, x: np.ndarray) -> ForwardTrace:
    """Evaluate the network, recording every intermediate layer."""
    _, pres, feats = _single(params, arch, x)
    return ForwardTrace(
        tuple(z[0, 0] for z in pres[:-1]), tuple(h[0, 0] for h in feats[1:-1]), feats[-1][0, 0]
    )


def grad_params(
    params: Params,
    arch: ArchitectureSpec,
    sample: Sample,
    loss_head: "SquaredError | PseudoHuber",
) -> np.ndarray:
    """Flat gradient of the per-sample loss via reverse mode."""
    theta, pres, feats = _single(params, arch, sample.x)
    seed = loss_head.grad_x(feats[-1], sample.y)
    return batch_backward(arch, theta, pres, feats, seed)[0, 0]


def param_jacobian(params: Params, arch: ArchitectureSpec, x: np.ndarray) -> np.ndarray:
    """Jacobian of the network output in every parameter, shape (l_out, n_params).

    Column order matches flatten_params.  Reverse mode seeded with the
    identity on the output layer.
    """
    theta, pres, feats = _single(params, arch, x)
    return batch_backward(arch, theta, pres, feats, np.eye(arch.widths[-1])[None])[0]


# ---------------------------------------------------------------------------
# parameter sampling and projection


def vector_norm(x: np.ndarray) -> float:
    """Euclidean norm of a float64 array, bit for bit np.linalg.norm(x).

    The same sqrt of the same dot product, without np.linalg.norm's argument
    dispatch, which costs more than the arithmetic on short vectors.
    """
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def sample_in_ball(
    rng: np.random.Generator, dim: int, radius: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Uniform draw from the open ball: gaussian direction, radial CDF inverse.

    The draw is written into out (a contiguous (dim,) float array) when it is
    given, and returned.
    """
    g = rng.standard_normal(dim, out=out)
    nrm = vector_norm(g)
    while nrm == 0.0:  # pragma: no cover - probability zero
        g = rng.standard_normal(dim, out=out)
        nrm = vector_norm(g)
    r = radius * rng.random() ** (1.0 / dim)
    g *= r / nrm
    return g


def init_params(
    arch: ArchitectureSpec, b_omega: float, seed: int, radius_fraction: float = 0.5
) -> Params:
    """Seeded uniform draw from the ball of radius radius_fraction * b_omega."""
    if not (0.0 < radius_fraction <= 1.0):
        raise ValueError("radius_fraction must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    flat = sample_in_ball(rng, arch.n_params, radius_fraction * b_omega)
    return unflatten_params(arch, flat)


def project_to_ball(
    theta: np.ndarray, b_omega: float, shrink: float = 1.0
) -> tuple[np.ndarray, bool]:
    """Rescale flat parameters onto radius shrink * b_omega once their norm reaches it.

    Returns (theta, projected); an unprojected theta is returned as is.
    """
    if not (b_omega > 0 and math.isfinite(b_omega)):
        raise ValueError("b_omega must be a positive finite real")
    if not (0.0 < shrink <= 1.0):
        raise ValueError("shrink must lie in (0, 1]")
    target = shrink * b_omega
    nrm = vector_norm(theta)
    if nrm < target or nrm == 0.0:
        return theta, False
    return theta * (target / nrm), True


# ---------------------------------------------------------------------------
# loss heads


class SquaredError:
    """g(out, y) = ||out - y||^2."""

    kind = "squared_error"

    def value(self, out: np.ndarray, y: np.ndarray) -> float:
        return float(self.values(out, y))

    def values(self, outs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """g of every row of outs against the same row of ys."""
        r = (outs - ys)[..., None, :]
        # a (1, n) @ (n, 1) product runs numpy's vector dot, the one np.dot(r, r) runs
        return np.matmul(r, r.swapaxes(-1, -2))[..., 0, 0]

    def grad_x(self, out: np.ndarray, y: np.ndarray) -> np.ndarray:
        return 2.0 * (out - y)


class PseudoHuber:
    """g(out, y) = sum_i delta^2 (sqrt(1 + ((out_i - y_i)/delta)^2) - 1).

    Quadratic near zero, asymptotically linear, with globally bounded first
    and second derivatives (delta and 1 per component).
    """

    kind = "pseudo_huber"

    def __init__(self, delta: float = 1.0) -> None:
        if not (delta > 0 and math.isfinite(delta)):
            raise ValueError("delta must be a positive finite real")
        self.delta = delta

    def value(self, out: np.ndarray, y: np.ndarray) -> float:
        return float(self.values(out, y))

    def values(self, outs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """g of every row of outs against the same row of ys."""
        u = (outs - ys) / self.delta
        return self.delta**2 * np.sum(np.sqrt(1.0 + u * u) - 1.0, axis=-1)

    def grad_x(self, out: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = out - y
        u = r / self.delta
        return r / np.sqrt(1.0 + u * u)


def loss_head_envelopes(
    head: SquaredError | PseudoHuber,
    dim: int,
    output_bound: float,
    target_bound: float,
) -> LossEnvelope:
    """Certified derivative bounds for a loss head on bounded arguments.

    For squared error the gradient bound needs finite output and target
    bounds (2 * (output_bound + target_bound)); the pseudo-Huber bounds are
    global and ignore them.  dim is the network output width.
    """
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    root_dim = math.sqrt(dim)
    if isinstance(head, SquaredError):
        if not (math.isfinite(output_bound) and math.isfinite(target_bound)):
            raise ValueError("squared error needs finite output and target bounds")
        if output_bound < 0 or target_bound < 0:
            raise ValueError("bounds must be nonnegative")
        g_p = 2.0 * (output_bound + target_bound)
        return LossEnvelope(g_p, 2.0 * root_dim, lip_g=g_p, lip_dg=2.0)
    if isinstance(head, PseudoHuber):
        g_p = head.delta * root_dim
        return LossEnvelope(g_p, root_dim, lip_g=g_p, lip_dg=1.0)
    raise TypeError(f"unsupported loss head: {type(head)!r}")


# ---------------------------------------------------------------------------
# datasets


def load_dataset_csv(
    path: str | Path, input_dim: int, target_dim: int
) -> tuple[Sample, ...]:
    """Read samples from CSV rows laid out as x columns then y columns."""
    raw = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    if raw.shape[1] != input_dim + target_dim:
        raise ValueError(
            f"expected {input_dim + target_dim} columns, found {raw.shape[1]}"
        )
    bad = np.argwhere(~np.isfinite(raw))
    if bad.size:
        row, col = bad[0] + 1
        raise ValueError(f"row {row}, column {col} is not a finite number")
    return tuple(
        Sample(row[:input_dim].copy(), row[input_dim:].copy()) for row in raw
    )


def dataset_norms(samples: Sequence[Sample]) -> tuple[float, ...]:
    with np.errstate(over="ignore"):  # an overflowing norm is inf, for callers to reject
        return tuple(vector_norm(s.x) for s in samples)
