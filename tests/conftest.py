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


# one small run of every CLI command: name -> (argv before --config, config)
_TANH_231 = {
    "name": "tanh-231-small",
    "seed": 7,
    "architecture": {"widths": [2, 3, 1], "activations": ["tanh"]},
    "bounds": {"b_omega": 1.0, "sample_norms": [1.0, 0.5]},
    "loss": {"kind": "squared_error", "target_bound": 1.0},
    "refine": {"restarts": 1, "iters": 4},
    "verify": {"n_pairs": 200, "input_norm": 1.0},
    "train": {
        "algorithm": "gd",
        "steps": 5,
        "synthetic": {"n_samples": 8, "input_norm": 1.0, "target_norm": 1.0, "seed": 3},
    },
}
CODE_LINEAR = {
    "name": "linear-scalar",
    "seed": 5,
    "code": {
        "field": "linear_scalar",
        "control": {"density": 1.0, "t_final": 1.0},
        "x": [1.0],
        "theta_box": [[-1.0], [1.0]],
        "n_samples": 400,
        "n_substeps": 32,
        "check_envelopes": True,
        "x_box_low": [-1.5],
        "x_box_high": [1.5],
    },
}
COMMAND_RUNS = {
    "certify": (["certify"], _TANH_231),
    "verify": (["verify"], _TANH_231),
    "train": (["train"], _TANH_231),
    "code certify": (
        ["code", "certify"],
        {"name": "zero-field", "code": {"envelopes": {}, "b_upsilon": 2.0, "x_norm": 1.5}},
    ),
    "code verify": (
        ["code", "verify"],
        {**CODE_LINEAR, "code": {**CODE_LINEAR["code"], "n_samples": 50}},
    ),
    "code equivalence": (
        ["code", "equivalence"],
        {"name": "dnn-equivalence", "code": {"seed": 9, "n_nets": 3, "max_hidden": 2}},
    ),
}
