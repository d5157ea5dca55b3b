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
(seed, argmax_index) regenerates an estimate's worst pair.  A pass draws
_PASS_BLOCKS blocks, 1024 pairs, then calls the map on chunks of at most
_MAP_ROW_BYTES of output rows, one side after the other, and takes the
output distances chunk by chunk, so no whole pass of outputs is held at
once.

Two kinds of work go to a second thread, each only where it pays for the
thread's start (about 0.2 ms on 2 cores): a map call with _SPLIT_BYTES or
more of output maps the upper half of its rows there, and FirstPass draws
an estimate's first pass there while another estimate runs, when those
pairs take _FIRST_PASS_BYTES or more.  Such a thread runs under the
caller's numpy errstate, calls none of this module's public functions,
and is joined before its work is used.  No output row or pair depends on
the thread or the chunk that computes it, so every estimate is that of a
one-thread run.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass
from functools import partial
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
    "FirstPass",
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
# a second thread


class _Worker(threading.Thread):
    """fn(*args) on a second thread, started at once.

    It runs under a copy of the starting thread's context variables, so
    numpy's errstate there holds for it too.  result() waits for it and
    returns its value or raises its exception on the waiting thread.
    """

    def __init__(self, fn: Callable, *args) -> None:
        super().__init__(name="lipcert-worker")
        self._call = partial(contextvars.copy_context().run, fn, *args)
        self._value = None
        self._error: BaseException | None = None
        self.start()

    def run(self) -> None:
        try:
            self._value = self._call()
        except BaseException as exc:  # raised again by result on the waiting thread
            self._error = exc

    def result(self):
        self.join()
        if self._error is not None:
            raise self._error
        return self._value


_SPLIT_BYTES = 2 << 20  # from here on a map call pays for a second thread


def _map_halves(
    fill: Callable[[np.ndarray, np.ndarray], None], thetas: np.ndarray, out: np.ndarray
) -> None:
    """fill(thetas, out), in two halves of rows on two threads when out is large.

    A call of at least 4 rows whose output takes _SPLIT_BYTES or more maps
    its upper half on a second thread while the lower half runs here.  No
    half is a lone row, which einsum reduces in another order than a block,
    so every output row keeps the bits of a one-thread call.
    """
    k = len(thetas)
    if k < 4 or out.nbytes < _SPLIT_BYTES:
        fill(thetas, out)
        return
    upper = _Worker(fill, thetas[k // 2 :], out[k // 2 :])
    try:
        fill(thetas[: k // 2], out[: k // 2])
    finally:
        upper.join()
    upper.result()


# ---------------------------------------------------------------------------
# batched parameter-space maps


def network_output_map(arch: ArchitectureSpec, x: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Map (K, n_params) parameter rows to (K, l_out) network outputs."""
    xs = np.asarray(x, dtype=float)[None]

    def fill(thetas: np.ndarray, out: np.ndarray) -> None:
        _, feats = batch_forward(arch, thetas, xs)
        out[...] = feats[-1][:, 0]

    def f(thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        out = np.empty((len(thetas), arch.widths[-1]))
        _map_halves(fill, thetas, out)
        return out

    return f


def network_jacobian_map(arch: ArchitectureSpec, x: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Map (K, n_params) rows to flattened parameter Jacobians (K, l_out * n_params)."""
    xs = np.asarray(x, dtype=float)[None]
    eye = np.eye(arch.widths[-1])

    def fill(thetas: np.ndarray, out: np.ndarray) -> None:
        pres, feats = batch_forward(arch, thetas, xs)
        seed = np.broadcast_to(eye, (len(thetas),) + eye.shape)
        batch_backward(arch, thetas, pres, feats, seed, out=out)

    def f(thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        out = np.empty((len(thetas), arch.widths[-1], arch.n_params))
        _map_halves(fill, thetas, out)
        return out.reshape(len(thetas), -1)

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
    """Pairs of blocks first .. first + count - 1 as two (count * PAIR_BLOCK, dim) arrays."""
    a = np.empty((count * PAIR_BLOCK, dim))
    b = np.empty_like(a)
    _draw_into(seed, first, a, b, b_omega)
    return a, b


def _draw_into(seed: int, first: int, a: np.ndarray, b: np.ndarray, b_omega: float) -> None:
    """Draw the pairs of blocks first, first + 1, ... into the rows of a and b.

    Each block reads default_rng([seed, block]) in one fixed order, whatever
    the pairs' kinds: the Gaussian directions of both points, two radial
    uniforms per pair, then a coordinate index and a sign per pair.  The
    pairs are then built in place from the directions.
    """
    rows, dim = a.shape
    count = rows // PAIR_BLOCK
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


_FIRST_PASS_BYTES = 384 << 10


class FirstPass:
    """The first pass of an estimate's pairs, drawn ahead on a worker thread.

    FirstPass(dim, b_omega, n_pairs, seed) allocates the pairs of the first
    pass of empirical_lipschitz(f, dim, b_omega, n_pairs, seed) on the
    calling thread: arrays allocated on a worker come from that thread's
    malloc arena, which keeps much of their memory after they are freed.
    If they take _FIRST_PASS_BYTES or more, entering the context starts one
    thread that draws them, under the entering thread's numpy errstate, and
    leaving it joins that thread; smaller pairs are drawn on the calling
    thread when they are taken, because a thread would cost more than it
    saves.  Given to that call as first_pass, it yields the pairs, and so
    the estimate, of an inline draw.  An exception of the draw is raised
    again on the calling thread.
    """

    def __init__(self, dim: int, b_omega: float, n_pairs: int, seed: int) -> None:
        if n_pairs < 1:
            raise ValueError("n_pairs must be positive")
        self.key = (dim, b_omega, n_pairs, seed)
        a = np.empty((min(_PASS_BLOCKS, -(-n_pairs // PAIR_BLOCK)) * PAIR_BLOCK, dim))
        self._pairs: tuple[np.ndarray, np.ndarray] | None = (a, np.empty_like(a))
        self._draw = partial(_draw_into, seed, 0, *self._pairs, b_omega)
        self._nbytes = 2 * a.nbytes
        self._worker: _Worker | None = None

    def __enter__(self) -> FirstPass:
        if self._nbytes >= _FIRST_PASS_BYTES:
            self._worker = _Worker(self._draw)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._worker is not None:
            self._worker.join()

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        """The pass's pairs, once; waits for the draw and raises its exception."""
        if self._pairs is None:
            raise ValueError("a first pass is taken only once")
        # keep no reference to the arrays, which the estimate frees after this pass
        pairs, self._pairs = self._pairs, None
        draw, self._draw = self._draw, None
        worker, self._worker = self._worker, None
        if worker is None:
            draw()
        else:
            worker.result()
        return pairs


_ROW_BLOCK_BYTES = 1 << 20
_MAP_ROW_BYTES = 8 << 20
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

    The differences are taken in blocks of rows of about _ROW_BLOCK_BYTES,
    not as one (K, p) temporary; each row is still reduced over the same
    contiguous values, and no block has a lone row, so the distances keep
    their bits.  A row whose sum of squares underflows below the normal
    range or overflows is measured again scaled by its largest |d|, so that
    a distance the float range holds is neither 0 nor inf.  Only finite rows
    whose difference overflows keep inf; a row with an inf or nan value
    has no distance, nan.
    """
    out = np.empty(len(u))
    for i, j in _row_blocks(len(u), u.itemsize * u.shape[-1], _ROW_BLOCK_BYTES):
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


def empirical_lipschitz(
    f: Callable[[np.ndarray], np.ndarray],
    dim: int,
    b_omega: float,
    n_pairs: int,
    seed: int,
    *,
    first_pass: FirstPass | None = None,
    out_width: int | None = None,
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
    second, in turn, each chunk at most _MAP_ROW_BYTES of output rows of
    out_width floats (dim if not given: a gradient's width).  A first_pass
    made with the same dim, b_omega, n_pairs and seed supplies the first
    pass's pairs.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    if first_pass is not None and first_pass.key != (dim, b_omega, n_pairs, seed):
        raise ValueError(
            f"first_pass was made for (dim, b_omega, n_pairs, seed) = {first_pass.key},"
            f" not {(dim, b_omega, n_pairs, seed)}"
        )

    best = -math.inf
    best_index = -1
    n_degenerate = 0
    n_blocks = -(-n_pairs // PAIR_BLOCK)
    for first in range(0, n_blocks, _PASS_BLOCKS):
        if first == 0 and first_pass is not None:
            a, b = first_pass.take()
        else:
            a, b = _draw_blocks(seed, first, min(_PASS_BLOCKS, n_blocks - first), dim, b_omega)
        offset = first * PAIR_BLOCK
        rows = min(len(a), n_pairs - offset)
        a, b = a[:rows], b[:rows]
        dn = _row_distances(a, b)
        ok = dn > 0.0
        n_degenerate += int(np.count_nonzero(~ok))
        # chunked map calls: no whole pass of outputs (a Jacobian's is
        # l_out times the pairs' size) is ever held at once
        fn = np.empty(rows)
        for i, j in _row_blocks(rows, 8 * (out_width or dim), _MAP_ROW_BYTES):
            fa = np.asarray(f(a[i:j]), dtype=float)
            fn[i:j] = _row_distances(fa, np.asarray(f(b[i:j]), dtype=float))
        q = fn / np.where(ok, dn, 1.0)
        # a NaN quotient (inf - inf outputs) is skipped, never the argmax
        ratios = np.where(ok & ~np.isnan(q), q, -math.inf)
        j = int(np.argmax(ratios))
        if ratios[j] > best:
            best = float(ratios[j])
            best_index = offset + j
            best_pair = (a[j].copy(), b[j].copy())
    if best_index < 0:
        raise ValueError("every sampled pair was degenerate")
    return LipschitzEstimate(best, best_pair, best_index, n_pairs, seed, n_degenerate)


def empirical_grad_lipschitz(
    grad_f: Callable[[np.ndarray], np.ndarray],
    dim: int,
    b_omega: float,
    n_pairs: int,
    seed: int,
    *,
    first_pass: FirstPass | None = None,
    out_width: int | None = None,
) -> LipschitzEstimate:
    """Same engine as empirical_lipschitz, applied to a gradient/Jacobian map."""
    return empirical_lipschitz(
        grad_f, dim, b_omega, n_pairs, seed, first_pass=first_pass, out_width=out_width
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
