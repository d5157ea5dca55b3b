"""The activation kernels, pinned bit for bit against their plain formulas.

The library's kernels evaluate a polynomial or an exp only on the elements
that take that branch.  The references below evaluate every branch on every
element and pick per element, so equal bytes show that the selection changed
no arithmetic: same values, same signed zeros, same NaNs, on contiguous,
strided and batched (K, r, w) inputs.
"""

import math

import numpy as np
import pytest

from lipcert import make_activation


def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_tanh():
    def d1(x):
        t = np.tanh(x)
        return 1.0 - t * t

    def d2(x):
        t = np.tanh(x)
        return -2.0 * t * (1.0 - t * t)

    return np.tanh, d1, d2


def ref_sigmoid_kind():
    def d1(x):
        s = ref_sigmoid(x)
        return s * (1.0 - s)

    def d2(x):
        s = ref_sigmoid(x)
        return s * (1.0 - s) * (1.0 - 2.0 * s)

    return ref_sigmoid, d1, d2


def ref_smoothed_relu(delta):
    def val(x):
        mid = (x + delta) ** 2 / (4.0 * delta)
        return np.where(x <= -delta, 0.0, np.where(x >= delta, x, mid))

    def d1(x):
        mid = (x + delta) / (2.0 * delta)
        return np.where(x <= -delta, 0.0, np.where(x >= delta, 1.0, mid))

    def d2(x):
        return np.where((x > -delta) & (x < delta), 1.0 / (2.0 * delta), 0.0)

    return val, d1, d2


def ref_saturated_linear(c, r_sat, delta):
    lo = r_sat - delta

    def val(x):
        ax = np.abs(x)
        t = np.clip((ax - lo) / delta, 0.0, 1.0)
        q_int = t**6 - 3.0 * t**5 + 2.5 * t**4
        blend = c * lo + c * delta * (t - q_int)
        core = np.where(ax <= lo, c * ax, blend)
        return np.sign(x) * np.where(ax >= r_sat, c * (r_sat - delta / 2.0), core)

    def d1(x):
        ax = np.abs(x)
        t = np.clip((ax - lo) / delta, 0.0, 1.0)
        q = 6.0 * t**5 - 15.0 * t**4 + 10.0 * t**3
        return np.where(ax >= r_sat, 0.0, c * (1.0 - q))

    def d2(x):
        ax = np.abs(x)
        t = np.clip((ax - lo) / delta, 0.0, 1.0)
        qp = 30.0 * t**4 - 60.0 * t**3 + 30.0 * t**2
        inside = (ax > lo) & (ax < r_sat)
        return np.where(inside, -np.sign(x) * c * qp / delta, 0.0)

    return val, d1, d2


# (kind, parameters, reference formulas, the kind's branch points)
CASES = [
    ("tanh", {}, ref_tanh(), ()),
    ("sigmoid", {}, ref_sigmoid_kind(), ()),
    *(
        ("smoothed_relu", {"delta": d}, ref_smoothed_relu(d), (d,))
        for d in (0.3, 1.0, 1e-3)
    ),
    *(
        ("saturated_linear", {"c": c, "r_sat": r, "delta": d}, ref_saturated_linear(c, r, d), (r - d, r, d))
        for c, r, d in ((1.0, 2.0, 0.2), (0.7, 1.3, 0.5), (2.5, 0.3, 0.01), (1.0, 3.0, 0.1))
    ),
]


def grid(points):
    """Special values, each branch point and its neighbours, and seeded normals."""
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e-310, -1e-310, 710.0, -710.0, 745.0, -745.0]
    for p in points:
        for v in (p, -p):
            special += [v, np.nextafter(v, math.inf), np.nextafter(v, -math.inf)]
    rng = np.random.default_rng(20240917)
    scale = max(points, default=3.0)
    return np.concatenate([special, rng.standard_normal(100_000) * scale])


def layouts(x):
    n = len(x) - len(x) % 30
    return {
        "contiguous": x,
        "strided": x[::3],
        "batched": x[:n].reshape(3, -1, 10),
        "batched_strided": x[:n].reshape(3, -1, 10)[:, ::2, 1::2],
    }


@pytest.mark.parametrize(
    "kind, params, refs, points", CASES, ids=[f"{k}-{p}" for k, p, *_ in CASES]
)
def test_kernels_equal_plain_formulas_bitwise(kind, params, refs, points):
    act = make_activation(kind, **params)
    ref_val, ref_d1, ref_d2 = refs
    for name, x in layouts(grid(points)).items():
        for got, want in ((act(x), ref_val(x)), (act.deriv(x), ref_d1(x)), (act.deriv2(x), ref_d2(x))):
            assert got.shape == want.shape, (kind, name)
            assert got.tobytes() == want.tobytes(), (kind, name)


@pytest.mark.parametrize("kind, params", [(k, p) for k, p, *_ in CASES], ids=[k for k, *_ in CASES])
def test_zero_dim_input_matches_one_element_array(kind, params):
    act = make_activation(kind, **params)
    for v in (-2.95, -1.9, -0.3, 0.0, 0.25, 1.95, 7.0):
        for f in (act, act.deriv, act.deriv2):
            assert np.asarray(f(v)).tobytes() == f(np.array([v])).tobytes()


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("smoothed_relu", {"delta": 0.5, "foo": 1}, "unknown key 'foo' for smoothed_relu"),
        ("saturated_linear", {"c": 1.0}, "missing key 'r_sat' for saturated_linear"),
        ("saturated_linear", {"r_sat": 1.0, "delta": 0.1}, "missing key 'c' for saturated_linear"),
        ("tanh", {"delta": 1.0}, "tanh takes no parameters"),
    ],
)
def test_parameter_errors_name_the_key(kind, params, message):
    # the message a config refusal prints after its location
    with pytest.raises(ValueError) as exc:
        make_activation(kind, **params)
    assert str(exc.value) == message
