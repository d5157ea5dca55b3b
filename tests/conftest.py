import numpy as np
import pytest

from lipcert import ArchitectureSpec, make_activation


def random_architecture(
    rng: np.random.Generator,
    max_width: int = 8,
    max_hidden: int = 4,
    kinds: tuple[str, ...] = ("tanh", "sigmoid"),
    min_hidden: int = 0,
) -> ArchitectureSpec:
    """Random dense architecture within the sweep ranges."""
    m = int(rng.integers(min_hidden, max_hidden + 1))
    widths = tuple(int(w) for w in rng.integers(1, max_width + 1, size=m + 2))
    acts = tuple(make_activation(str(rng.choice(kinds))) for _ in range(m))
    return ArchitectureSpec(widths=widths, activations=acts)


def loop_forward(params, arch, x):
    """Plain single-point forward pass with w @ h; returns (pres, feats)."""
    h = np.asarray(x, dtype=float)
    pres, feats = [], [h]
    for u, (w, b) in enumerate(params.layers):
        z = w @ h + b
        pres.append(z)
        h = arch.activations[u](z) if u < arch.m else z
        feats.append(h)
    return pres, feats


def loop_backward(params, arch, x, seed):
    """Plain reverse mode: cotangent rows (q, l_out) to parameter gradients (q, n)."""
    pres, feats = loop_forward(params, arch, x)
    d = np.atleast_2d(np.asarray(seed, dtype=float))
    blocks = []
    for u in range(arch.n_layers - 1, -1, -1):
        w, _ = params.layers[u]
        g_w = (d[:, :, None] * feats[u][None, None, :]).reshape(len(d), -1)
        blocks.insert(0, np.concatenate([g_w, d], axis=1))
        if u > 0:
            d = (d @ w) * arch.activations[u - 1].deriv(pres[u - 1])
    return np.concatenate(blocks, axis=1)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
