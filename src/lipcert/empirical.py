"""Empirical lower bounds used to stress-test the certificates.

A certificate is an upper bound on a parameter-space Lipschitz constant, so
any sampled difference quotient must stay below it; the routines here
generate those quotients at scale.  The parameter-space maps (network
output, parameter Jacobian, mean loss gradient) are thin closures over the
batched engine in network, evaluated for many parameter rows at once;
the test suite checks them against a plain per-sample loop.

Pairs follow one plan: pair k is global, a local step of 1e-2 or 1e-4, or
a coordinate step of 1e-3 * b_omega as k % 4 is 0, 1, 2 or 3.  Block k of
PAIR_BLOCK pairs reads one generator seeded with (seed, k) in a few
whole-array calls, so a pair depends only on (seed, its index): the first
n pairs of a longer run are the pairs of an n-pair run, and
(seed, argmax_index) regenerates an estimate's worst pair.  A PairSample
runs the one pass loop: a pass draws _PASS_BLOCKS blocks, 1024 pairs, and
measures their distances once, then calls each of its maps on chunks of
at most _CHUNK_BYTES of output rows, one side after the other, and takes
the output distances chunk by chunk, so no whole pass of outputs is held
at once; the pass is released before the next one is drawn.  The same
budget cuts the blocks of every distance, so each chunk of points, of
outputs and of their differences stays in cache.  No output row depends
on the chunk that computes it, so estimates of several maps on one sample
are those of each map alone.
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
)

__all__ = [
    "LipschitzEstimate",
    "PairSample",
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

@dataclass
class LipschitzEstimate:
    """Largest sampled difference quotient and where it occurred."""

    max_ratio: float
    argmax_pair: tuple[np.ndarray, np.ndarray]
    argmax_index: int  # (seed, argmax_index) regenerates argmax_pair
    n_pairs: int
    seed: int
    n_degenerate: int = 0


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
        pres, feats = batch_forward(arch, thetas, xs)
        seed = np.broadcast_to(eye, (len(thetas),) + eye.shape)
        return batch_backward(arch, thetas, pres, feats, seed).reshape(len(thetas), -1)

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

PAIR_BLOCK = 256
"""Pairs per generator: pair k is drawn from default_rng([seed, k // PAIR_BLOCK])."""

_PASS_BLOCKS = 4
"""Blocks per pass: 1024 pairs per map call."""


def _scale_rows(g: np.ndarray, length: np.ndarray) -> None:
    """Rescale each row of g in place to the given length; an all-zero row stays zero."""
    nrm = np.sqrt(np.einsum("ij,ij->i", g, g))
    g *= np.divide(length, nrm, out=np.zeros_like(nrm), where=nrm > 0)[:, None]


def _draw_blocks(
    seed: int, first: int, count: int, dim: int, b_omega: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of blocks first .. first + count - 1 as two (count * PAIR_BLOCK, dim) arrays.

    Each block reads default_rng([seed, block]) in one fixed order, whatever
    the pairs' kinds: the Gaussian directions of both points, two radial
    uniforms per pair, then a coordinate index and a sign per pair.  The
    pairs are then built in place from the directions.
    """
    rows = count * PAIR_BLOCK
    a = np.empty((rows, dim))
    b = np.empty_like(a)
    u = np.empty((2, rows))
    coord_j = np.empty(rows, dtype=np.int64)
    coord_up = np.empty(rows, dtype=bool)
    for i in range(count):
        rng = np.random.default_rng([seed, first + i])
        s = slice(i * PAIR_BLOCK, (i + 1) * PAIR_BLOCK)
        rng.standard_normal(out=a[s])
        rng.standard_normal(out=b[s])
        u[:, s] = rng.random((2, PAIR_BLOCK))
        coord_j[s] = rng.integers(dim, size=PAIR_BLOCK)
        coord_up[s] = rng.random(PAIR_BLOCK) < 0.5

    # pair k is global, local, local or coordinate as k % 4 is 0, 1, 2 or 3
    q = np.arange(first * PAIR_BLOCK, first * PAIR_BLOCK + rows) % 4
    cap = 0.5 * b_omega
    step = np.array([0.0, min(1e-2, cap), min(1e-4, cap), 1e-3 * b_omega])[q]
    is_global = q == 0
    # uniform in the ball: radius R u^(1/dim) along a Gaussian direction; a
    # step's base stays strictly its step away from the boundary so the
    # second point stays inside the open ball
    radius = np.where(is_global, b_omega, b_omega - step * (1.0 + 1e-9))
    _scale_rows(a, radius * u[0] ** (1.0 / dim))
    # second point: its own draw for global pairs, else base + step, where a
    # local step is the Gaussian direction at its length and a coordinate
    # step starts from zero and gets +-step on one entry
    local_step = np.where((q == 1) | (q == 2), step, 0.0)
    _scale_rows(b, np.where(is_global, b_omega * u[1] ** (1.0 / dim), local_step))
    np.add(b, a, out=b, where=~is_global[:, None])
    rows_c = np.flatnonzero(q == 3)
    b[rows_c, coord_j[rows_c]] += np.where(coord_up[rows_c], step[rows_c], -step[rows_c])
    return a, b


_CHUNK_BYTES = 1 << 20  # bytes of rows per map call and per distance block
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


def _row_blocks(k: int, row_bytes: int, budget: int) -> list[tuple[int, int]]:
    """Ranges of at most budget bytes of rows (but 2 rows) that cover k rows.

    einsum reduces a single row in another order than a block of rows, so
    no range has one row unless k is 1: a lone last row joins the range
    before it.
    """
    step = max(2, budget // max(row_bytes, 1))
    starts = list(range(0, k, step))
    if len(starts) > 1 and k - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, [*starts[1:], k]))


def _row_distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Euclidean distance between matching rows.

    The differences are taken in blocks of rows of about _CHUNK_BYTES,
    not as one (K, p) temporary; each row is still reduced over the same
    contiguous values, and no block has a lone row, so the distances keep
    their bits.  A row whose sum of squares underflows below the normal
    range or overflows is measured again scaled by its largest |d|, so that
    a distance the float range holds is neither 0 nor inf.  Only finite rows
    whose difference overflows keep inf; a row with an inf or nan value
    has no distance, nan.
    """
    out = np.empty(len(u))
    for i, j in _row_blocks(len(u), u.itemsize * u.shape[-1], _CHUNK_BYTES):
        d = u[i:j] - v[i:j]
        dist = np.einsum("ij,ij->i", d, d, out=out[i:j])
        redo = np.flatnonzero(~((dist >= _TINY) & (dist < math.inf))).tolist()
        np.sqrt(dist, out=dist)
        for r in redo:
            scale = float(np.max(np.abs(d[r])))
            if 0.0 < scale < math.inf:
                w = d[r] / scale
                dist[r] = scale * math.sqrt(float(w @ w))
            elif scale != 0.0 and not (np.isfinite(u[i + r]).all() and np.isfinite(v[i + r]).all()):
                dist[r] = math.nan  # a value that overflowed measures no distance
    return out


class PairSample:
    """The pairs of one (dim, b_omega, n_pairs, seed), mapped by several maps.

    PairSample(maps, dim, b_omega, n_pairs, seed), with maps a list of
    (map, out_width), holds the estimate of each map over the pairs of
    empirical_lipschitz(map, dim, b_omega, n_pairs, seed).  Its one loop
    draws each pass and measures its pair distances once, calls every map
    on that pass, and releases the pass before it draws the next, so a
    run holds one pass of pairs however many maps it has.  The loop runs
    on the first request for an estimate.
    """

    def __init__(
        self,
        maps: Sequence[tuple[Callable[[np.ndarray], np.ndarray], int]],
        dim: int,
        b_omega: float,
        n_pairs: int,
        seed: int,
    ) -> None:
        if n_pairs < 1:
            raise ValueError("n_pairs must be positive")
        self.key = (dim, b_omega, n_pairs, seed)
        self._maps = list(maps)
        self._estimates: list[LipschitzEstimate | None] | None = None

    def estimate(self, f: Callable[[np.ndarray], np.ndarray]) -> LipschitzEstimate:
        """The estimate of map f, which the sample must hold."""
        k = next((k for k, (g, _) in enumerate(self._maps) if g is f), None)
        if k is None:
            raise ValueError("the pair sample holds no such map")
        if self._estimates is None:
            self._estimates = self._run()
        est = self._estimates[k]
        if est is None:
            raise ValueError("every sampled pair was degenerate")
        return est

    def _run(self) -> list[LipschitzEstimate | None]:
        *_, n_pairs, seed = self.key
        best = [(-math.inf, -1, None)] * len(self._maps)  # (ratio, index, pair)
        n_degenerate = 0
        n_blocks = -(-n_pairs // PAIR_BLOCK)
        for first in range(0, n_blocks, _PASS_BLOCKS):
            n_degenerate += self._map_pass(first, min(_PASS_BLOCKS, n_blocks - first), best)
        return [
            None if index < 0 else LipschitzEstimate(ratio, pair, index, n_pairs, seed, n_degenerate)
            for ratio, index, pair in best
        ]

    def _map_pass(self, first: int, count: int, best: list) -> int:
        """Draw blocks first .. first + count - 1, update each map's best in
        place and give the pass's degenerate pairs; the pass is freed on
        return."""
        dim, b_omega, n_pairs, seed = self.key
        offset = first * PAIR_BLOCK
        a, b = _draw_blocks(seed, first, count, dim, b_omega)
        rows = min(len(a), n_pairs - offset)
        a, b = a[:rows], b[:rows]
        dn = _row_distances(a, b)
        ok = dn > 0.0
        dn[~ok] = 1.0
        for m, (f, out_width) in enumerate(self._maps):
            # chunked map calls: no whole pass of outputs (a Jacobian's is
            # l_out times the pairs' size) is ever held at once
            fn = np.empty(rows)
            for i, j in _row_blocks(rows, 8 * out_width, _CHUNK_BYTES):
                fa = np.asarray(f(a[i:j]), dtype=float)
                fn[i:j] = _row_distances(fa, np.asarray(f(b[i:j]), dtype=float))
            q = fn / dn
            # a NaN quotient (inf - inf outputs) is skipped, never the argmax
            ratios = np.where(ok & ~np.isnan(q), q, -math.inf)
            j = int(np.argmax(ratios))
            if ratios[j] > best[m][0]:
                best[m] = (float(ratios[j]), offset + j, (a[j].copy(), b[j].copy()))
        return int(np.count_nonzero(~ok))


def empirical_lipschitz(
    f: Callable[[np.ndarray], np.ndarray],
    dim: int,
    b_omega: float,
    n_pairs: int,
    seed: int,
    *,
    out_width: int | None = None,
    sample: PairSample | None = None,
) -> LipschitzEstimate:
    """Max difference quotient of a batched map over sampled parameter pairs.

    f maps a (K, dim) array of parameter rows to a (K, p) array of outputs.
    Pairs come in blocks of PAIR_BLOCK: block k draws all of its randomness
    from one generator seeded with (seed, k), whatever n_pairs is.  So the
    first n pairs of a longer run are exactly the pairs of an n-pair run,
    and (seed, argmax_index) replays the worst pair.  Pair k is a global
    pair, a local perturbation of length 1e-2 or 1e-4 (at most b_omega / 2,
    so both points stay in the ball), or a coordinate step of
    1e-3 * b_omega as k % 4 is 0, 1, 2 or 3.  Each pass draws _PASS_BLOCKS
    blocks and calls f on chunks of their first points and then of their
    second, in turn, each chunk at most _CHUNK_BYTES (1 MiB, but 2 rows) of
    output rows of out_width floats (dim if not given: a gradient's width),
    so that a chunk's points, outputs and differences stay in cache.  Given
    a sample made with the same dim, b_omega, n_pairs and seed that holds f
    (with its own out_width), the call returns the sample's estimate of f,
    running the sample's loop for all of its maps if no estimate was asked
    of it before; pairs of other arguments would break the replay from
    (seed, argmax_index), so they are refused.
    """
    if sample is None:
        sample = PairSample([(f, out_width or dim)], dim, b_omega, n_pairs, seed)
    elif sample.key != (dim, b_omega, n_pairs, seed):
        raise ValueError(
            f"the pair sample was made for (dim, b_omega, n_pairs, seed) = {sample.key},"
            f" not {(dim, b_omega, n_pairs, seed)}"
        )
    return sample.estimate(f)


def empirical_grad_lipschitz(
    grad_f: Callable[[np.ndarray], np.ndarray],
    dim: int,
    b_omega: float,
    n_pairs: int,
    seed: int,
    *,
    out_width: int | None = None,
    sample: PairSample | None = None,
) -> LipschitzEstimate:
    """Same engine as empirical_lipschitz, applied to a gradient/Jacobian map."""
    return empirical_lipschitz(
        grad_f, dim, b_omega, n_pairs, seed, out_width=out_width, sample=sample
    )


# ---------------------------------------------------------------------------
# directed constructions


def directed_affine_pair(
    arch: ArchitectureSpec, x: np.ndarray, b_omega: float
) -> tuple[np.ndarray, np.ndarray]:
    """Parameter pair realizing the affine map's exact constant sqrt(S^2 + 1).

    For a depth-zero network the tight direction perturbs the weight along
    the rank-one matrix w x^T and the bias along the same output direction
    w; the difference quotient then equals sqrt(||x||^2 + 1) exactly.
    """
    if arch.m != 0:
        raise ValueError("directed affine pair is defined for depth-zero networks")
    x = np.asarray(x, dtype=float)
    eps = 1e-3 * b_omega  # the step's scale, far inside the ball
    w_dir = np.zeros(arch.widths[1])
    w_dir[0] = 1.0
    w_sl, b_sl = arch.layer_slices[0]
    delta = np.empty(arch.n_params)
    delta[w_sl] = (eps * np.outer(w_dir, x)).ravel()
    delta[b_sl] = eps * w_dir
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
    return WorstCasePair(theta, theta_tilde, exact, act)
