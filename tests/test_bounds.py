import dataclasses
import decimal
import itertools
import json
import math
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipcert import (
    ActivationEnvelope,
    ArchitectureSpec,
    BoundInputs,
    LayerBounds,
    LossEnvelope,
    PseudoHuber,
    SampleMoments,
    SquaredError,
    batch_forward,
    closed_form_bounds,
    closed_form_certificate,
    derive_adagrad_params,
    empirical_lipschitz,
    input_base,
    layer_step,
    loss_certificate,
    loss_head_envelopes,
    make_activation,
    moment_certificate,
    network_certificate,
    network_jacobian_map,
    network_output_map,
    refine_over_layer_budgets,
    sigmoid,
    smoothed_relu,
    tanh,
)
from lipcert import bounds, cli
from lipcert.bounds import RefinementSearch, _network_bounds, check_adagrad_condition
from lipcert.config import certificate_to_dict

from conftest import random_architecture


def env(c1, c2, smax=1.0, kind="custom"):
    return ActivationEnvelope(kind=kind, sigma_max=smax, sigma_p_max=c1, sigma_pp_max=c2)


def counted_calls(monkeypatch, name):
    """Arguments of every call of bounds.<name> from now on."""
    calls = []
    original = getattr(bounds, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bounds, name, counted)
    return calls


def walks(calls):
    """Counted _hidden_floats calls split into (table walks, search walks),
    each as its (layers, d, s): a table walk fills the list _network_bounds
    passes, a search walk builds no table."""
    return [c[:3] for c in calls if len(c) == 4], [c for c in calls if len(c) == 3]


def head_averages(loss, d_head, hidden):
    """Dataset means (L_phi, L_grad_phi) of the loss head's layer_step on the
    last hidden bounds of every sample, the per-sample reference."""
    heads = [layer_step(h, loss, 1, d_head) for h in hidden]
    n = len(heads)
    return bounds._fsum(h.l_n for h in heads) / n, bounds._fsum(h.l_grad_n for h in heads) / n


# ---------------------------------------------------------------------------
# one-step composition


class TestLayerStep:
    def test_base_identity_head(self):
        lb = layer_step(input_base(0.0), env(1.0, 0.0), 1, 1.0)
        assert lb.l_n == 1.0

    def test_base_quarter_slope(self):
        # 0.25 * sqrt(3 + 1) = 0.5
        lb = layer_step(input_base(math.sqrt(3.0)), env(0.25, 7.0), 3, 2.0)
        assert lb.l_n == pytest.approx(0.5, rel=1e-15)

    def test_zero_curvature_zero_lip_gives_zero_grad_constant(self):
        lb = layer_step(input_base(5.0), env(1.0, 0.0), 4, 2.0)
        # L1 = L2 = B2 = 0 and c2 = 0 leave no nonzero term
        assert lb.l_grad_n == 0.0

    def test_hand_evaluated_grad_constant(self):
        # S=1, c1=c2=D=1, out width 1:
        # alpha = max{0, c2^2 (S^2+1)(3 S^2+2)} = 10, beta = 0
        lb = layer_step(input_base(1.0), env(1.0, 1.0), 1, 1.0)
        assert lb.l_grad_n == pytest.approx(math.sqrt(10.0), rel=1e-15)

    def test_b_grad_equals_l(self):
        lb = layer_step(input_base(2.0), env(0.7, 0.3), 3, 1.5)
        assert lb.b_grad_n == lb.l_n

    def test_output_bound_scales_with_width(self):
        lb = layer_step(input_base(0.0), env(1.0, 1.0, smax=0.5), 9, 1.0)
        assert lb.b_n == pytest.approx(3.0 * 0.5)

    def test_dropped_carry_term_with_unbounded_features_is_not_nan(self):
        # a zero curvature bound (identity head) or a zero budget drops the
        # carry term's curvature part even when the feature bound is inf
        prev = LayerBounds(1.0, 2.0, math.inf, 0.0)
        finite = LayerBounds(1.0, 2.0, 5.0, 0.0)
        identity = layer_step(prev, None, 2, 1.0).l_grad_n
        assert identity == layer_step(finite, None, 2, 1.0).l_grad_n
        assert math.isinf(layer_step(prev, env(1.0, 1.0), 2, 0.0).l_grad_n)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            layer_step(input_base(0.0), env(1.0, 1.0), 1, -1.0)

    @pytest.mark.parametrize("field", ["l_n", "l_grad_n", "b_n"])
    def test_rejects_negative_prev_field(self, field):
        values = {"l_n": 1.0, "l_grad_n": 1.0, "b_n": 1.0, "alpha": 0.0}
        prev = LayerBounds(**{**values, field: -1.0})
        with pytest.raises(ValueError, match=f"prev.{field} must"):
            layer_step(prev, env(1.0, 1.0), 1, 1.0)

    @given(
        s=st.floats(0.0, 4.0),
        d1=st.floats(0.0, 3.0),
        d2=st.floats(0.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_budget(self, s, d1, d2):
        lo, hi = sorted([d1, d2])
        a = layer_step(input_base(s), env(1.0, 0.5), 2, lo)
        b = layer_step(input_base(s), env(1.0, 0.5), 2, hi)
        assert a.l_n <= b.l_n and a.l_grad_n <= b.l_grad_n


def _ref_prod(*xs: float) -> float:
    if not all(xs):
        return 0.0
    p = math.prod(xs, start=1.0)
    return math.inf if math.isnan(p) else p


def _ref_sq(x: float) -> float:
    return x * x


def reference_layer_step(prev, env_, width_out, budget):
    """layer_step as it was before its plain-float path: every product through _prod."""
    c1, c2, b3 = bounds._head_constants(env_)

    l1, l2 = prev.l_n, prev.l_grad_n
    b1, b2 = prev.b_n, prev.l_n
    d = float(budget)
    n3 = float(width_out)

    l_chi = _ref_prod(c1, math.sqrt(_ref_prod(d, d, l1, l1) + b1 * b1 + 1.0))

    a_term = _ref_prod(
        3.0 * _ref_prod(l1, l1), _ref_prod(c1, c1, n3) + _ref_prod(c2, c2, d, d, b1, b1)
    ) + 2.0 * _ref_prod(c2, c2, d, d, l1, l1)
    b_term = _ref_prod(_ref_prod(c2, c2), b1 * b1 + 1.0, 3.0 * b1 * b1 + 2.0)
    alpha = max(a_term, b_term)

    cross = _ref_prod(n3, c1, d, l2) + _ref_prod(b2, c2, d, d, l1)
    carry = _ref_prod(
        _ref_prod(b2, b2), _ref_sq(_ref_prod(n3, c1) + _ref_prod(d, c2, math.sqrt(b1 * b1 + 1.0)))
    )
    beta = cross * cross + carry

    l_grad_chi = math.sqrt(alpha + beta)

    b_chi = math.sqrt(n3) * b3

    return LayerBounds(l_chi, l_grad_chi, b_chi, alpha)


def same_float_bits(x: float, y: float) -> bool:
    """Equal, the sign of zero included; nan matches nothing, itself included."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def same_bits(a: LayerBounds, b: LayerBounds) -> bool:
    """Field by field same_float_bits."""
    return all(map(same_float_bits, dataclasses.astuple(a), dataclasses.astuple(b)))


GRID = (0.0, 5e-324, 1e-3, 1.0, 7.3, 1e154, 1.4e154, 1e300, math.inf)
# (slope, curvature) bounds of the activation and loss heads, cycled over the grid
HEAD_CONSTANTS = ((0.25, 0.1), (1.0, 7.3), (0.0, 1.0), (-0.0, 0.0), (1e154, 1e-3))


def head(kind: str, i: int):
    c1, c2 = HEAD_CONSTANTS[i % len(HEAD_CONSTANTS)]
    if kind == "identity":
        return None
    if kind == "activation":
        return env(c1, c2, smax=GRID[i % len(GRID)])
    return LossEnvelope(c1, c2)


class TestLayerStepBits:
    """The plain-float step against its _prod-only reference, bit for bit."""

    @pytest.mark.parametrize("kind", ["identity", "activation", "loss"])
    def test_grid(self, kind):
        for i, (l1, l2, b1, d, width) in enumerate(
            itertools.product(GRID, GRID, GRID, (*GRID, -0.0), (1, 3, 64))
        ):
            prev, h = LayerBounds(l1, l2, b1, 0.0), head(kind, i)
            assert same_bits(layer_step(prev, h, width, d), reference_layer_step(prev, h, width, d)), (
                l1, l2, b1, d, width, h
            )

    def test_log_uniform_draws(self):
        rng = np.random.default_rng(13)
        kinds = ("identity", "activation", "loss")
        for i in range(10_000):
            l1, l2, b1, d = 10.0 ** rng.uniform(-320.0, 308.0, 4)
            prev = LayerBounds(float(l1), float(l2), float(b1), 0.0)
            h = head(kinds[i % 3], int(rng.integers(len(HEAD_CONSTANTS))))
            if h is not None:
                c1, c2 = (float(c) for c in 10.0 ** rng.uniform(-320.0, 308.0, 2))
                h = env(c1, c2) if kinds[i % 3] == "activation" else LossEnvelope(c1, c2)
            width = int(rng.choice((1, 3, 64)))
            assert same_bits(
                layer_step(prev, h, width, float(d)), reference_layer_step(prev, h, width, float(d))
            ), (l1, l2, b1, d, width, h)

    def test_zero_budget_against_an_inf_bound(self):
        prev = LayerBounds(1.0, 2.0, math.inf, 0.0)
        for h in (None, env(1.0, 1.0), LossEnvelope(1.0, 1.0)):
            got = layer_step(prev, h, 2, 0.0)
            assert same_bits(got, reference_layer_step(prev, h, 2, 0.0))
            assert not math.isnan(got.l_grad_n)

    def test_overflow_to_inf(self):
        prev = LayerBounds(1e200, 1e200, 1e200, 0.0)
        got = layer_step(prev, env(1.0, 1.0), 3, 1e200)
        assert same_bits(got, reference_layer_step(prev, env(1.0, 1.0), 3, 1e200))
        assert math.isinf(got.l_n) and math.isinf(got.l_grad_n)

    @pytest.mark.parametrize("b_omega", [1.0, 1e40, 1e80])
    def test_smoothed_relu_recursion(self, b_omega):
        # relu_epsilon enters the output bound between the steps: a smoothed
        # ramp is unbounded, so its output bound follows the affine growth,
        # plus the smoothing gap of every coordinate
        arch = ArchitectureSpec(
            widths=(3, 6, 5, 4, 2), activations=(smoothed_relu(0.5), tanh(), smoothed_relu(2.0))
        )
        budgets = (b_omega, 0.0, 0.5 * b_omega, b_omega)
        got = _network_bounds(arch, budgets, 2.0)
        prev, want = input_base(2.0), []
        for a, width, d in zip(arch.activations, arch.widths[1:], budgets):
            lb = reference_layer_step(prev, a.envelope, width, d)
            if a.envelope.kind == "smoothed_relu":
                gap = math.sqrt(width) * a.envelope.relu_epsilon
                lb = dataclasses.replace(lb, b_n=d * math.sqrt(prev.b_n * prev.b_n + 1.0) + gap)
            want.append(lb)
            prev = lb
        want.append(reference_layer_step(prev, None, arch.widths[-1], budgets[-1]))
        assert len(got.per_layer) + 1 == len(want)
        for a, b in zip((*got.per_layer, got.final), want):
            assert same_bits(a, b)


def assert_rows_match_scalar(arch, budgets, norms, loss):
    """The array recursion and head step against _network_bounds plus the head
    layer_step, row by row: last hidden (l_n, l_grad_n, b_n), head (l_n, l_grad_n)."""
    hidden = bounds._last_hidden_rows(bounds._hidden_layers(arch), budgets, np.array(norms))
    heads = bounds._layer_step_rows(*bounds._head_constants(loss), 1.0, budgets[-1], *hidden)
    for i, s in enumerate(norms):
        h = _network_bounds(arch, budgets, s).last_hidden
        head_ = layer_step(h, loss, 1, budgets[-1])
        want = (h.l_n, h.l_grad_n, h.b_n, head_.l_n, head_.l_grad_n)
        got = tuple(float(r[i]) for r in (*hidden, *heads))
        assert all(map(same_float_bits, got, want)), (s, budgets, got, want)


ALL_KINDS = (
    tanh(), sigmoid(), smoothed_relu(0.3), make_activation("saturated_linear", c=1.5, r_sat=2.0)
)


class TestSampleNormArrays:
    """The recursion over an array of sample norms against the scalar one, bit for bit."""

    # zeros of both signs, repeats, and norms whose squares overflow next to
    # ordinary ones
    EDGE_NORMS = (0.0, -0.0, 0.0, 1.0, 1.0, 1e-300, 1e154, 1.4e154, 1e200, 1.7e308)

    @pytest.mark.parametrize("kind", range(len(ALL_KINDS)), ids=lambda k: ALL_KINDS[k].envelope.kind)
    def test_random_budget_vectors(self, kind):
        rng = np.random.default_rng(20 + kind)
        for trial in range(12):
            m = 1 + trial % 4
            # the kind under test in every layer on even trials, mixed on odd ones
            acts = tuple(
                ALL_KINDS[kind if trial % 2 == 0 else int(rng.integers(len(ALL_KINDS)))]
                for _ in range(m)
            )
            widths = tuple(int(w) for w in rng.integers(1, 9, size=m + 2))
            arch = ArchitectureSpec(widths=widths, activations=acts)
            scale = (1.0, 1e40, 1e80)[trial % 3]
            budgets = tuple(float(b) for b in scale * rng.uniform(0.0, 1.0, m + 1))
            if trial % 4 == 3:
                budgets = (0.0,) + budgets[1:]
            norms = (*self.EDGE_NORMS, *(float(s) for s in 10.0 ** rng.uniform(-3.0, 3.0, 20)))
            c1, c2 = (float(c) for c in 10.0 ** rng.uniform(-2.0, 2.0, 2))
            assert_rows_match_scalar(arch, budgets, norms, LossEnvelope(c1, c2))

    @pytest.mark.parametrize("kind", ["identity", "activation", "loss"])
    def test_grid_rows(self, kind):
        # TestLayerStepBits's grid, one array of every (l_n, l_grad_n, b_n) per step
        prev = [LayerBounds(*p, 0.0) for p in itertools.product(GRID, GRID, GRID)]
        l1, l2, b1 = (np.array(col) for col in zip(*(dataclasses.astuple(p)[:3] for p in prev)))
        for i, (d, width) in enumerate(itertools.product((*GRID, -0.0), (1, 3, 64))):
            h = head(kind, i)
            rows = bounds._layer_step_rows(*bounds._head_constants(h), float(width), d, l1, l2, b1)
            for j, p in enumerate(prev):
                want = layer_step(p, h, width, d)
                assert same_float_bits(rows[0][j], want.l_n), (p, d, width, h)
                assert same_float_bits(rows[1][j], want.l_grad_n), (p, d, width, h)

    def test_zero_budget_against_an_inf_bound(self):
        # a smoothed ramp carries the overflowed input norms' inf output
        # bound into a layer of budget 0, where _prod's zero must win
        arch = ArchitectureSpec(widths=(2, 3, 4, 1), activations=(smoothed_relu(0.5), tanh()))
        budgets, norms = (1.0, 0.0, 1.0), (1e200, 0.5, 1e160, 2.0, 0.0)
        assert_rows_match_scalar(arch, budgets, norms, LossEnvelope(1.0, 1.0))
        _, l_grad_n, _ = bounds._last_hidden_rows(bounds._hidden_layers(arch), budgets, np.array(norms))
        assert not np.isnan(l_grad_n).any()

    def test_overflowing_rows_next_to_finite_rows(self):
        arch = ArchitectureSpec(widths=(3, 6, 5, 4, 2), activations=ALL_KINDS[:3])
        norms = (0.5, 1e200, 1.0, 1e300, 2.0)
        for budgets in ((1.0,) * 4, (1e100, 1.0, 1e100, 1.0), (0.5, 1e160, 0.0, 2.0)):
            assert_rows_match_scalar(arch, budgets, norms, LossEnvelope(1.0, 7.3))
        hidden = bounds._last_hidden_rows(bounds._hidden_layers(arch), (1.0,) * 4, np.array(norms))
        assert np.isinf(hidden[0][[1, 3]]).all() and np.isfinite(hidden[0][[0, 2, 4]]).all()

    @pytest.mark.parametrize("kind", range(len(ALL_KINDS)), ids=lambda k: ALL_KINDS[k].envelope.kind)
    def test_budget_constants_match_the_per_layer_recursion(self, monkeypatch, kind):
        # the refinement's cached evaluation against _network_bounds at the largest
        # norm and head_averages over every norm, on the float path and on
        # the array path, with repeated norms and the overflows of
        # test_array_path_matches_the_per_norm_path (b_omega 1e40, a 1e200 norm)
        rng = np.random.default_rng(40 + kind)
        for trial in range(16):
            m = 1 + trial % 4
            acts = tuple(
                ALL_KINDS[kind if trial % 2 == 0 else int(rng.integers(len(ALL_KINDS)))]
                for _ in range(m)
            )
            arch = ArchitectureSpec(
                widths=tuple(int(w) for w in rng.integers(1, 9, size=m + 2)), activations=acts
            )
            norms = [float(s) for s in rng.uniform(0.0, 2.0, 6)] + [0.0, -0.0, 1.5, 1.5]
            if trial % 4 == 1:
                norms.append(1e200)
            scale = 1e40 if trial % 3 == 2 else 1.0
            loss = LossEnvelope(*(float(c) for c in 10.0 ** rng.uniform(-2.0, 2.0, 2)))
            vectors = [tuple(float(x) for x in scale * rng.uniform(0.0, 1.0, m + 1)) for _ in range(4)]
            vectors += [(scale,) * (m + 1), (0.0,) + (scale,) * m]
            for d in vectors:
                nb = _network_bounds(arch, d, max(norms))
                hidden = [_network_bounds(arch, d, s).last_hidden for s in norms]
                want = (nb.l_n, nb.l_grad_n, *head_averages(loss, d[-1], hidden))
                for threshold in (math.inf, 1):
                    monkeypatch.setattr(bounds, "_ARRAY_MIN_NORMS", threshold)
                    got = bounds._budget_constants(arch, loss, norms)(d)
                    assert all(map(same_float_bits, got, want)), (arch, d, norms, got, want)


# ---------------------------------------------------------------------------
# network recursion


class TestNetworkCertificate:
    @pytest.mark.parametrize("s", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("build", [network_certificate, closed_form_bounds])
    def test_rejects_a_bad_input_norm(self, build, s):
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
        with pytest.raises(ValueError, match="input norm must be finite and nonnegative"):
            build(arch, BoundInputs(b_omega=1.0), s)

    @pytest.mark.parametrize("budgets", [(1.0,), (1.0, 1.0, 1.0)])
    def test_rejects_a_wrong_budget_count(self, budgets):
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
        with pytest.raises(ValueError, match=f"expected 2 budgets, got {len(budgets)}"):
            _network_bounds(arch, budgets, 1.0)

    def test_affine_network(self):
        arch = ArchitectureSpec(widths=(3, 2), activations=())
        for s in (0.0, 1.0, 3.0):
            nb = network_certificate(arch, BoundInputs(b_omega=2.0), s)
            assert nb.l_n == pytest.approx(math.sqrt(s * s + 1.0), rel=1e-15)
            assert nb.l_grad_n == 0.0

    def test_scalar_tanh_chain(self):
        arch = ArchitectureSpec(widths=(1, 1, 1), activations=(tanh(),))
        nb = network_certificate(arch, BoundInputs(b_omega=1.0), 0.0)
        assert nb.per_layer[0].l_n == pytest.approx(1.0)
        assert nb.per_layer[0].b_n == pytest.approx(1.0)
        assert nb.l_n == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_constant_activation_kills_value_route(self):
        dead = ActivationEnvelope(kind="const", sigma_max=1.0, sigma_p_max=0.0, sigma_pp_max=0.0)

        class Dead:
            envelope = dead

        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(Dead(),))
        nb = network_certificate(arch, BoundInputs(b_omega=1.0), 2.0)
        assert nb.per_layer[0].l_n == 0.0
        b_m = nb.per_layer[0].b_n
        assert nb.l_n == pytest.approx(math.sqrt(b_m * b_m + 1.0))

    def test_all_budgets_equal_reproduces_uniform(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            arch = random_architecture(rng, min_hidden=1)
            b = float(rng.choice([0.5, 1.0, 2.0]))
            s = float(rng.choice([0.0, 1.0, 3.0]))
            uni = network_certificate(arch, BoundInputs(b_omega=b), s)
            raw = _network_bounds(arch, (b,) * (arch.m + 1), s)
            assert raw.final == uni.final
            assert raw.per_layer == uni.per_layer

    def test_monotone_on_parameter_grids(self):
        arch = ArchitectureSpec(widths=(2, 3, 2), activations=(tanh(),))
        last = -1.0
        for s in np.linspace(0.0, 4.0, 5):
            l = network_certificate(arch, BoundInputs(b_omega=1.0), float(s)).l_n
            assert l >= last
            last = l
        last = -1.0
        for b in np.linspace(0.25, 3.0, 5):
            l = network_certificate(arch, BoundInputs(b_omega=float(b)), 1.0).l_grad_n
            assert l >= last
            last = l
        last = -1.0
        for c2 in np.linspace(0.0, 2.0, 5):
            class A:
                envelope = env(1.0, float(c2))
            spec = ArchitectureSpec(widths=(2, 3, 2), activations=(A(),))
            l = network_certificate(spec, BoundInputs(b_omega=1.0), 1.0).l_grad_n
            assert l >= last
            last = l

    def test_fixed_split_is_beaten_inside_the_ball(self):
        # a split with sum(D_u^2) <= b_omega^2 bounds only the product of its
        # layer balls: the pair theta* +- h along the gradient of N, both
        # points of norm 0.9993, beats the recursion at the split, while the
        # whole-ball certificate and the supremum over splits cover it
        arch = ArchitectureSpec(widths=(1, 1, 1, 1), activations=(smoothed_relu(0.1),) * 2)
        x = np.ones(1)
        theta = np.array([0.32, 0.32, 0.46, 0.35, 0.678, 0.0])  # (w1, b1, w2, b2, w3, b3)
        grad = network_jacobian_map(arch, x)(theta[None])[0]
        h = 1e-6 * grad / np.linalg.norm(grad)
        lo, hi = theta - h, theta + h
        assert max(np.linalg.norm(lo), np.linalg.norm(hi)) < 1.0
        f = network_output_map(arch, x)
        quotient = float(abs(f(hi[None])[0, 0] - f(lo[None])[0, 0]) / np.linalg.norm(hi - lo))
        split = (0.68, 0.57, 0.46)
        assert math.fsum(d * d for d in split) <= 1.0
        assert quotient > _network_bounds(arch, split, 1.0).l_n  # 1.5026 > 1.4956
        assert quotient <= network_certificate(arch, BoundInputs(b_omega=1.0), 1.0).l_n  # 3.038
        refined = refine_over_layer_budgets(
            arch, BoundInputs(b_omega=1.0), LossEnvelope(1.0, 1.0), [1.0],
            search=RefinementSearch(1, 4),
        )
        assert quotient <= refined.l_n_final

    def test_smoothed_relu_output_bound(self):
        delta = 0.4
        arch = ArchitectureSpec(widths=(1, 2, 1), activations=(smoothed_relu(delta),))
        nb = network_certificate(arch, BoundInputs(b_omega=2.0), 1.0)
        # D sqrt(S^2 + 1) plus the per-coordinate gap delta/4 over both coordinates
        expected = 2.0 * math.sqrt(2.0) + math.sqrt(2.0) * delta / 4.0
        assert nb.per_layer[0].b_n == pytest.approx(expected, rel=1e-15)

    def test_wide_smoothed_relu_layer_stays_sound(self):
        # at theta = 0 every one of the 50 features sits at the gap delta/4 = 1,
        # so ||N_1|| = sqrt(50); a bound that adds the gap once claims 1.1 and
        # its L_N (1.49) is beaten by sampled quotients of 2.2
        arch = ArchitectureSpec(widths=(1, 50, 1), activations=(smoothed_relu(4.0),))
        nb = network_certificate(arch, BoundInputs(b_omega=0.1), 0.0)
        x = np.zeros(1)
        _, feats = batch_forward(arch, np.zeros((1, arch.n_params)), x[None])
        assert nb.per_layer[0].b_n >= float(np.linalg.norm(feats[1][0, 0]))
        est = empirical_lipschitz(network_output_map(arch, x), arch.n_params, 0.1, 20000, 0)
        assert est.max_ratio <= nb.l_n


# ---------------------------------------------------------------------------
# loss certificates


class TestLossCertificate:
    def test_linear_head_recovers_network_constant(self):
        arch = ArchitectureSpec(widths=(1, 1, 1), activations=(tanh(),))
        inputs = BoundInputs(b_omega=1.0)
        loss = LossEnvelope(g_p_max=1.0, g_pp_max=0.0)
        cert = loss_certificate(arch, inputs, loss, dataset_norms=[0.0])
        nb = network_certificate(arch, inputs, 0.0)
        assert cert.l_phi == pytest.approx(nb.l_n, rel=1e-15)

    def test_two_sample_average(self):
        # scalar tanh chain, linear loss head: per-sample constants are
        # sqrt(3) at S=0 and sqrt(2*2 + ... ) evaluated below at S=1
        arch = ArchitectureSpec(widths=(1, 1, 1), activations=(tanh(),))
        inputs = BoundInputs(b_omega=1.0)
        loss = LossEnvelope(g_p_max=1.0, g_pp_max=0.0)
        cert = loss_certificate(arch, inputs, loss, dataset_norms=[0.0, 1.0])
        # at S=1 the hidden layer has L = sqrt(2), B = 1, so the head gives
        # sqrt(D^2 * 2 + 1 + 1) = 2; the dataset average is (sqrt(3)+2)/2
        assert cert.l_phi == pytest.approx((math.sqrt(3.0) + 2.0) / 2.0, rel=1e-14)

    def test_identical_samples_equal_single(self):
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(sigmoid(),))
        inputs = BoundInputs(b_omega=1.0)
        loss = LossEnvelope(g_p_max=2.0, g_pp_max=1.0)
        one = loss_certificate(arch, inputs, loss, dataset_norms=[1.5])
        two = loss_certificate(arch, inputs, loss, dataset_norms=[1.5, 1.5])
        assert one.l_phi == two.l_phi
        assert one.l_grad_phi == two.l_grad_phi

    def test_b_grad_phi_equals_l_phi(self):
        arch = ArchitectureSpec(widths=(2, 2, 2), activations=(tanh(),))
        cert = loss_certificate(
            arch, BoundInputs(b_omega=0.5), LossEnvelope(2.0, 2.0), dataset_norms=[1.0]
        )
        assert cert.b_grad_phi == cert.l_phi

    def test_empty_dataset_rejected(self):
        arch = ArchitectureSpec(widths=(1, 1), activations=())
        with pytest.raises(ValueError):
            loss_certificate(arch, BoundInputs(b_omega=1.0), LossEnvelope(1.0, 1.0), dataset_norms=[])

    def test_certificates_are_deterministic(self):
        arch = ArchitectureSpec(widths=(2, 4, 3), activations=(tanh(),))
        inputs = BoundInputs(b_omega=2.0)
        loss = LossEnvelope(1.0, 1.0)
        a = loss_certificate(arch, inputs, loss, dataset_norms=[1.0, 3.0])
        b = loss_certificate(arch, inputs, loss, dataset_norms=[1.0, 3.0])
        assert a == b

    def test_without_loss_is_the_network_at_the_largest_norm(self):
        arch = ArchitectureSpec(widths=(2, 4, 3), activations=(smoothed_relu(0.5),))
        inputs = BoundInputs(b_omega=2.0)
        cert = loss_certificate(arch, inputs, None, dataset_norms=[1.0, 3.0])
        nb = network_certificate(arch, inputs, 3.0)
        assert cert.per_layer == nb.per_layer
        assert (cert.l_n_final, cert.l_grad_n_final) == (nb.l_n, nb.l_grad_n)
        assert (cert.l_phi, cert.l_grad_phi, cert.flags) == (None, None, ())
        assert cert.layer_budgets is None

    @pytest.mark.parametrize("loss", [LossEnvelope(1.0, 1.0), None])
    @pytest.mark.parametrize("build", [loss_certificate, closed_form_certificate])
    def test_one_recursion_per_sample_norm(self, monkeypatch, build, loss):
        # the closed form's average takes the per-layer table once per
        # distinct norm, the largest one's shared with its own table; the
        # recursive certificate builds the table at the largest norm only,
        # and its average walks the layers once more per distinct norm,
        # with no table.  Without a loss no average is taken.  Every table
        # is one walk of the float recursion.
        tables = counted_calls(monkeypatch, "_network_bounds")
        floats = counted_calls(monkeypatch, "_hidden_floats")
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
        build(arch, BoundInputs(b_omega=1.0), loss, dataset_norms=(1.0, 0.5, 1.0))
        averaged = [] if loss is None else [0.5, 1.0]
        table_walks, search_walks = walks(floats)
        assert [s for _, _, s in table_walks] == [s for _, _, s in tables]
        if build is closed_form_certificate:
            assert sorted(s for _, _, s in tables) == (averaged or [1.0])
            assert search_walks == []
        else:
            assert [s for _, _, s in tables] == [1.0]
            assert sorted(s for _, _, s in search_walks) == averaged

    def test_many_norms_take_one_scalar_recursion(self, monkeypatch):
        # from _ARRAY_MIN_NORMS distinct norms on, the scalar recursion runs
        # at the largest norm only, for the per-layer table
        calls = []

        def counted(arch, budgets, s):
            calls.append(s)
            return network_bounds(arch, budgets, s)

        network_bounds = bounds._network_bounds
        monkeypatch.setattr(bounds, "_network_bounds", counted)
        arch = ArchitectureSpec(widths=(2, 3, 4, 1), activations=(tanh(), smoothed_relu(0.5)))
        norms = [0.1 * (k + 1) for k in range(bounds._ARRAY_MIN_NORMS)] + [0.3, 0.2]
        for loss in (LossEnvelope(1.0, 1.0), None):
            calls.clear()
            loss_certificate(arch, BoundInputs(b_omega=1.0), loss, dataset_norms=norms)
            assert calls == [max(norms)]

    @pytest.mark.parametrize("b_omega, huge", [(1.0, ()), (1.0, (1e200,)), (1e40, ())])
    def test_array_path_matches_the_per_norm_path(self, monkeypatch, b_omega, huge):
        rng = np.random.default_rng(8)
        arch = ArchitectureSpec(
            widths=(3, 5, 4, 6, 2), activations=(tanh(), smoothed_relu(0.5), sigmoid())
        )
        norms = [*(float(s) for s in rng.uniform(0.0, 2.0, 12)), 0.0, -0.0, 1.5, 1.5, *huge]
        inputs = BoundInputs(b_omega=b_omega)
        builds = (
            lambda loss: loss_certificate(arch, inputs, loss, norms),
            lambda loss: refine_over_layer_budgets(
                arch, inputs, loss, norms, RefinementSearch(restarts=1, iters=6)
            ),
        )
        # squared error resolved at the whole ball's output bound, as certify does
        out_bound = network_certificate(arch, inputs, max(norms)).output_bound
        losses = (LossEnvelope(1.0, 1.0), loss_head_envelopes(SquaredError(), 2, out_bound, 1.0))
        got = [build(loss) for build in builds for loss in losses]
        monkeypatch.setattr(bounds, "_ARRAY_MIN_NORMS", math.inf)
        want = [build(loss) for build in builds for loss in losses]
        assert got == want
        assert [math.isfinite(c.l_phi) for c in got] == [not huge] * 4

    @pytest.mark.parametrize(
        "build, norms, report",
        [
            (loss_certificate, (1.0, 0.5), "recursive"),
            (closed_form_certificate, (1.0, 0.5), "closed_form"),
            (partial(refine_over_layer_budgets, search=RefinementSearch(1, 4)), (1.0, 0.5), "refined"),
            (moment_certificate, SampleMoments(0.8, 1.0), "recursive"),
        ],
        ids=["recursive", "closed_form", "refined", "moments"],
    )
    def test_output_bound_function_is_evaluated_at_the_recursion(self, tmp_path, build, norms, report):
        # NetworkBounds.output_bound is the gate's by-hand D * sqrt(B^2 + 1),
        # B the last hidden b_n, of the recursion at the reference norm (the
        # largest, sqrt(E[S^2]) in moment mode).  certify resolves squared
        # error there, so each of its reports is its routine's certificate
        # of the envelope at that bound
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
        inputs = BoundInputs(b_omega=1.0)
        moments = isinstance(norms, SampleMoments)
        nb = network_certificate(arch, inputs, math.sqrt(norms.e_s2) if moments else max(norms))
        assert nb.output_bound == inputs.b_omega * math.sqrt(nb.last_hidden.b_n**2 + 1.0)
        env = loss_head_envelopes(SquaredError(), 1, nb.output_bound, 1.0)

        data = {"moments": {"e_s2": norms.e_s2, "e_s4": norms.e_s4}} if moments else {
            "sample_norms": list(norms)
        }
        doc = {
            "architecture": {"widths": [2, 3, 1], "activations": ["tanh"]},
            "bounds": {"b_omega": 1.0, **data},
            "loss": {"kind": "squared_error", "target_bound": 1.0},
            **({} if moments else {"refine": {"restarts": 1, "iters": 4}}),
        }
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
        written = json.loads((out / f"certificate_{report}.json").read_text())
        assert written == certificate_to_dict(build(arch, inputs, env, norms))


class TestMomentMode:
    def test_degenerate_distribution_dominates_exact_norms(self):
        # all samples share one norm: the moment bound must cover (and in
        # general exceed, because of the interpolating relaxation) the exact
        # per-sample average
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
        inputs = BoundInputs(b_omega=1.0)
        loss = LossEnvelope(1.0, 1.0)
        s = 1.3
        exact = loss_certificate(arch, inputs, loss, dataset_norms=[s])
        mom = moment_certificate(arch, inputs, loss, SampleMoments(e_s2=s * s, e_s4=s**4))
        assert mom.l_phi >= exact.l_phi * (1.0 - 1e-12)
        assert mom.l_grad_phi >= exact.l_grad_phi * (1.0 - 1e-12)

    def test_two_point_distribution_dominates(self):
        arch = ArchitectureSpec(widths=(1, 2, 1), activations=(sigmoid(),))
        loss = LossEnvelope(1.0, 2.0)
        norms = [0.5, 2.0]
        exact = loss_certificate(arch, BoundInputs(b_omega=1.0), loss, dataset_norms=norms)
        e2 = sum(s * s for s in norms) / 2.0
        e4 = sum(s**4 for s in norms) / 2.0
        mom = moment_certificate(arch, BoundInputs(b_omega=1.0), loss, SampleMoments(e_s2=e2, e_s4=e4))
        assert mom.l_phi >= exact.l_phi
        assert mom.l_grad_phi >= exact.l_grad_phi

    def test_unbounded_activation_rejected(self):
        arch = ArchitectureSpec(widths=(1, 1, 1), activations=(smoothed_relu(0.1),))
        with pytest.raises(ValueError):
            moment_certificate(
                arch, BoundInputs(b_omega=1.0), LossEnvelope(1.0, 1.0), SampleMoments(1.0, 1.0)
            )

    def test_missing_loss_rejected(self):
        # the moments bound only the loss constants
        arch = ArchitectureSpec(widths=(1, 1, 1), activations=(tanh(),))
        with pytest.raises(ValueError, match="needs a loss"):
            moment_certificate(arch, BoundInputs(b_omega=1.0), None, SampleMoments(1.0, 1.0))

    def test_fit_of_infinite_values_is_inf(self):
        # at b_omega 1e100 the gradient-level values at S^2 = 0, 1, 2 are all
        # inf, and a fit through them would take inf - inf
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
        loss = loss_head_envelopes(PseudoHuber(1.0), 1, math.inf, math.inf)
        cert = moment_certificate(arch, BoundInputs(b_omega=1e100), loss, SampleMoments(1.0, 1.0))
        assert cert.l_grad_phi == math.inf
        assert math.isfinite(cert.l_phi)
        assert cert.flags == ("overflow", "moment_mode")

    @staticmethod
    def _relaxed_squared_recursion(arch, b_omega, loss, t):
        """The weakened squared head constants at S^2 = t, step by step in
        60-digit decimals: the recursion the coefficients are built from."""
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            D = decimal.Decimal
            d, one = D(b_omega), D(1)
            l_sq, g_sq, b1 = D(0), D(0), D(t).sqrt()

            def step(c1, c2, n3):
                c1, c2, n3 = D(c1), D(c2), D(n3)
                new_l_sq = c1 * c1 * (d * d * l_sq + b1 * b1 + one)
                alpha_w = (
                    3 * l_sq * (c1 * c1 * n3 + c2 * c2 * d * d * b1 * b1)
                    + 2 * c2 * c2 * d * d * l_sq
                    + c2 * c2 * (b1 * b1 + one) * (3 * b1 * b1 + 2)
                )
                carry_coef = (n3 * c1 + d * c2 * (b1 * b1 + one).sqrt()) ** 2
                beta_w = (
                    2 * n3 * n3 * c1 * c1 * d * d * g_sq
                    + 2 * c2 * c2 * d**4 * l_sq * l_sq
                    + l_sq * carry_coef
                )
                return new_l_sq, alpha_w + beta_w

            for a, w in zip(arch.activations, arch.widths[1:]):
                e = a.envelope
                l_sq, g_sq = step(e.sigma_p_max, e.sigma_pp_max, w)
                b1 = D(w).sqrt() * D(e.sigma_max)
            return step(loss.g_p_max, loss.g_pp_max, 1)

    def test_coefficients_match_the_decimal_recursion(self):
        rng = np.random.default_rng(18)
        kinds = (
            tanh, sigmoid,
            lambda: make_activation("saturated_linear", c=float(rng.uniform(0.5, 2.0)), r_sat=1.5),
        )
        for trial in range(60):
            m = trial % 5
            acts = tuple(kinds[int(rng.integers(3))]() for _ in range(m))
            arch = ArchitectureSpec(tuple(int(w) for w in rng.integers(1, 9, m + 2)), acts)
            b_omega = float(10.0 ** rng.uniform(-2.0, 1.0))
            loss = LossEnvelope(*(float(c) for c in 10.0 ** rng.uniform(-2.0, 2.0, 2)))
            coefs = bounds._poly_head_sq_constants(arch, BoundInputs(b_omega), loss)
            for t in (0.0, 1.0, 2.0, 1e4):
                want = self._relaxed_squared_recursion(arch, b_omega, loss, t)
                with decimal.localcontext() as ctx:
                    ctx.prec = 60
                    for poly, w in zip(coefs, want):
                        got = sum(decimal.Decimal(c) * decimal.Decimal(x) for c, x in zip(poly, (1.0, t, t * t)))
                        assert abs(got - w) <= decimal.Decimal("1e-12") * w, (arch, b_omega, loss, t)

    def test_one_norm_moments_dominate_the_recursion(self):
        # moments of a single norm S: the moment bound covers loss_certificate at S
        rng = np.random.default_rng(2004)
        for _ in range(3000):
            m = int(rng.integers(0, 4))
            acts = tuple((tanh, sigmoid)[int(rng.integers(2))]() for _ in range(m))
            arch = ArchitectureSpec(tuple(int(w) for w in rng.integers(1, 9, m + 2)), acts)
            inputs = BoundInputs(float(10.0 ** rng.uniform(-3.0, 1.0)))
            s = float(10.0 ** rng.uniform(-2.0, 4.0))
            loss = LossEnvelope(*(float(c) for c in 10.0 ** rng.uniform(-2.0, 2.0, 2)))
            exact = loss_certificate(arch, inputs, loss, [s])
            mom = moment_certificate(arch, inputs, loss, SampleMoments(s * s, s**4))
            assert mom.l_phi >= exact.l_phi * (1.0 - 1e-14), (arch, inputs, s, loss)
            assert mom.l_grad_phi >= exact.l_grad_phi * (1.0 - 1e-14), (arch, inputs, s, loss)

    def test_inconsistent_moments_rejected(self):
        with pytest.raises(ValueError):
            SampleMoments(e_s2=2.0, e_s4=1.0)

    @pytest.mark.parametrize(
        "e_s2, e_s4, message",
        [
            (0.0, 5.0, r"E\[S\^2\] = 0 forces E\[S\^4\] = 0"),
            (2.0, 1.0, r"E\[S\^2\]\^2 <= E\[S\^0\] E\[S\^4\] must hold"),
            (-1.0, 1.0, r"E\[S\^2\] must be finite and nonnegative, got -1.0"),
        ],
        ids=["zero_then_positive", "not_log_convex", "negative"],
    )
    def test_moments_no_norm_distribution_has_are_rejected(self, e_s2, e_s4, message):
        # E[S^2] = 0 makes S = 0 almost surely, so E[S^4] = 0 as well
        with pytest.raises(ValueError, match=message):
            SampleMoments(e_s2=e_s2, e_s4=e_s4)

    def test_moments_of_data_pass(self):
        norms = [0.3, 1.7, 2.2, 0.0]
        SampleMoments(math.fsum(s**2 for s in norms) / 4, math.fsum(s**4 for s in norms) / 4)
        SampleMoments(0.0, 0.0)
        SampleMoments(2.25, 2.25**2)


# ---------------------------------------------------------------------------
# closed forms


class TestClosedForms:
    def test_first_layer_matches_recursive(self):
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
        inputs = BoundInputs(b_omega=1.7)
        s = 0.8
        cf = closed_form_bounds(arch, inputs, s)
        nb = network_certificate(arch, inputs, s)
        assert math.sqrt(cf.l_n_sq[0]) == pytest.approx(nb.per_layer[0].l_n, rel=1e-15)

    def test_unit_ratio_geometric_sum(self):
        # slope * budget = 1 and width * sigma_max^2 + 1 = 2 turn the value
        # bound at depth three into S^2 + 5
        arch = ArchitectureSpec(
            widths=(1, 1, 1, 1, 1), activations=(tanh(), tanh(), tanh())
        )
        s = 0.9
        cf = closed_form_bounds(arch, BoundInputs(b_omega=1.0), s)
        assert cf.l_n_sq[2] == pytest.approx(s * s + 5.0, rel=1e-15)

    def test_depth_zero_has_no_hidden_layer_bounds(self):
        arch = ArchitectureSpec(widths=(3, 2), activations=())
        cf = closed_form_bounds(arch, BoundInputs(b_omega=1.0), 0.5)
        assert cf == bounds.ClosedFormBounds((), ())

    def test_dominates_recursive_on_random_configs(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            arch = random_architecture(rng, min_hidden=1)
            b = float(rng.choice([0.5, 1.0, 2.0]))
            s = float(rng.choice([0.0, 1.0, 3.0]))
            inputs = BoundInputs(b_omega=b)
            cf = closed_form_bounds(arch, inputs, s)
            nb = network_certificate(arch, inputs, s)
            for u in range(arch.m):
                rec = nb.per_layer[u]
                assert cf.l_n_sq[u] >= rec.l_n**2 * (1.0 - 1e-12)
                assert cf.l_grad_n_sq[u] >= rec.l_grad_n**2 * (1.0 - 1e-12)

    def test_certificate_dominates_recursive(self):
        arch = ArchitectureSpec(widths=(2, 4, 3, 1), activations=(tanh(), sigmoid()))
        inputs = BoundInputs(b_omega=1.0)
        loss = LossEnvelope(1.0, 1.0)
        rec = loss_certificate(arch, inputs, loss, dataset_norms=[1.0, 2.0])
        cf = closed_form_certificate(arch, inputs, loss, dataset_norms=[1.0, 2.0])
        assert cf.l_n_final >= rec.l_n_final
        assert cf.l_grad_n_final >= rec.l_grad_n_final
        assert cf.l_phi >= rec.l_phi
        assert cf.l_grad_phi >= rec.l_grad_phi


# ---------------------------------------------------------------------------
# budget refinement


class TestRefinement:
    def _setup(self, rng, min_hidden=1):
        arch = random_architecture(rng, max_width=5, max_hidden=3, min_hidden=min_hidden)
        inputs = BoundInputs(b_omega=float(rng.choice([0.5, 1.0, 2.0])))
        loss = LossEnvelope(1.0, 1.0)
        norms = [float(rng.choice([0.5, 1.0, 2.0]))]
        return arch, inputs, loss, norms

    def test_never_exceeds_uniform(self):
        rng = np.random.default_rng(31)
        search = RefinementSearch(restarts=1, iters=20)
        for _ in range(8):
            arch, inputs, loss, norms = self._setup(rng)
            ref = refine_over_layer_budgets(arch, inputs, loss, norms, search)
            uni = loss_certificate(arch, inputs, loss, norms)
            assert ref.l_n_final <= uni.l_n_final * (1.0 + 1e-12)
            assert ref.l_grad_n_final <= uni.l_grad_n_final * (1.0 + 1e-12)
            assert ref.l_phi <= uni.l_phi * (1.0 + 1e-12)
            assert ref.l_grad_phi <= uni.l_grad_phi * (1.0 + 1e-12)

    def test_single_hidden_layer_matches_grid_search(self):
        # with one hidden layer the split has one degree of freedom, the head
        # budget d_head, with sqrt(b^2 - d_head^2) left to the first layer
        # (which a smoothed ramp's output bound reads), so a dense 1-d grid
        # over the sphere is an independent oracle for the maximizer, and
        # the refined bound covers every point of it
        b = 1.0
        inputs = BoundInputs(b_omega=b)
        loss = LossEnvelope(1.0, 1.0)
        norms = [1.0]
        for act in (tanh(), smoothed_relu(0.5)):
            arch = ArchitectureSpec(widths=(1, 2, 1), activations=(act,))
            ref = refine_over_layer_budgets(
                arch, inputs, loss, norms, RefinementSearch(restarts=2, iters=1000)
            )

            def phi_grad_at(d_head):
                d1 = math.sqrt(max(b * b - d_head * d_head, 0.0))
                nb = _network_bounds(arch, (d1, d_head), 1.0)
                return layer_step(nb.per_layer[-1], loss, 1, d_head).l_grad_n

            grid = max(phi_grad_at(t) for t in np.linspace(0.0, b, 20001))
            assert ref.l_grad_phi >= grid
            assert ref.l_grad_phi == pytest.approx(grid, rel=1e-6)

    def test_flags_when_no_strict_improvement(self):
        arch = ArchitectureSpec(widths=(1, 2, 1), activations=(tanh(),))
        ref = refine_over_layer_budgets(
            arch, BoundInputs(b_omega=1.0), LossEnvelope(1.0, 1.0), [1.0],
            RefinementSearch(restarts=1, iters=30),
        )
        assert "no_improvement" in ref.flags

    def test_budgets_on_sphere_where_their_squares_overflow(self):
        arch = ArchitectureSpec(widths=(1, 2, 1), activations=(smoothed_relu(0.5),))
        loss = loss_head_envelopes(PseudoHuber(1.0), 1, math.inf, math.inf)
        ref = refine_over_layer_budgets(
            arch, BoundInputs(b_omega=1e160), loss, [1.0], RefinementSearch(restarts=1, iters=4)
        )
        assert math.hypot(*ref.layer_budgets) == pytest.approx(1e160, rel=1e-12)
        assert ref.lower_estimate <= ref.l_grad_phi

    def test_budget_vector_on_sphere(self):
        rng = np.random.default_rng(8)
        arch, inputs, loss, norms = self._setup(rng, min_hidden=2)
        ref = refine_over_layer_budgets(
            arch, inputs, loss, norms, RefinementSearch(restarts=1, iters=15)
        )
        total = math.fsum(d * d for d in ref.layer_budgets)
        assert total == pytest.approx(inputs.b_omega**2, rel=1e-9)

    def test_affine_network_rejected(self):
        arch = ArchitectureSpec(widths=(2, 1), activations=())
        with pytest.raises(ValueError):
            refine_over_layer_budgets(
                arch, BoundInputs(b_omega=1.0), LossEnvelope(1.0, 1.0), [1.0]
            )

    def test_missing_loss_rejected_before_any_recursion(self, monkeypatch):
        calls = []

        def counted(arch, budgets, s):
            calls.append(s)
            return network_bounds(arch, budgets, s)

        network_bounds = bounds._network_bounds
        monkeypatch.setattr(bounds, "_network_bounds", counted)
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
        with pytest.raises(ValueError, match="needs a loss"):
            refine_over_layer_budgets(arch, BoundInputs(b_omega=1.0), None, [1.0, 0.5])
        assert calls == []

    def test_constants_are_nondecreasing_in_every_budget(self):
        # the premise of the branch and bound: raising one layer's budget
        # never lowers l_n, l_grad_n or either loss average
        rng = np.random.default_rng(12)
        kinds = (
            tanh(), sigmoid(), smoothed_relu(0.1), make_activation("saturated_linear", c=2.0, r_sat=1.0)
        )
        loss = LossEnvelope(1.5, 0.7)
        checks = 0
        for _ in range(30):
            m = int(rng.integers(1, 4))
            arch = ArchitectureSpec(
                widths=tuple(int(w) for w in rng.integers(1, 7, size=m + 2)),
                activations=tuple(kinds[k] for k in rng.integers(0, 4, size=m)),
            )
            norms = [float(s) for s in rng.uniform(0.0, 2.0, size=2)]

            def constants(d):
                hidden = [_network_bounds(arch, d, s).last_hidden for s in norms]
                nb = _network_bounds(arch, d, max(norms))
                return (nb.l_n, nb.l_grad_n) + head_averages(loss, d[-1], hidden)

            for _ in range(10):
                d = rng.uniform(0.0, 2.0, size=arch.m + 1)
                base = constants(d)
                for i in range(arch.m + 1):
                    up = d.copy()
                    up[i] += float(rng.uniform(0.0, 1.0))
                    assert all(a >= b for a, b in zip(constants(up), base))
                    checks += 1
        assert checks > 500

    def test_refined_bound_dominates_every_sampled_split(self):
        # an independent oracle: the recursion at random splits on the
        # sphere, pushed towards its corners, and at the axis splits may
        # never beat any of the four refined constants, at the smallest
        # search effort and at one whose boxes come close to the sphere;
        # every activation kind at 1-4 hidden layers
        rng = np.random.default_rng(4)
        kinds = (
            tanh(), sigmoid(), smoothed_relu(0.5), make_activation("saturated_linear", c=1.5, r_sat=2.0)
        )
        loss = LossEnvelope(1.0, 1.0)
        searches = (RefinementSearch(restarts=1, iters=4), RefinementSearch(restarts=1, iters=200))
        for k in range(16):
            m = k % 4 + 1
            arch = ArchitectureSpec(
                widths=tuple(int(w) for w in rng.integers(1, 6, size=m + 2)),
                activations=tuple(kinds[(k + u) % 4] for u in range(m)),
            )
            b = float(rng.choice([0.5, 1.0, 2.0]))
            norms = [float(s) for s in rng.choice([0.5, 1.0, 2.0], size=2)]
            refs = [refine_over_layer_budgets(arch, BoundInputs(b_omega=b), loss, norms, s) for s in searches]
            g = rng.random((4000, m + 1)) ** rng.choice([1.0, 4.0, 16.0], size=(4000, 1))
            splits = np.vstack([b * g / np.linalg.norm(g, axis=1, keepdims=True), b * np.eye(m + 1)])
            sampled = np.array([
                (nb.l_n, nb.l_grad_n, *head_averages(
                    loss, d[-1], [_network_bounds(arch, d, s).last_hidden for s in norms]
                ))
                for d in splits
                for nb in [_network_bounds(arch, d, max(norms))]
            ]).max(axis=0)
            for ref, search in zip(refs, searches):
                refined = (ref.l_n_final, ref.l_grad_n_final, ref.l_phi, ref.l_grad_phi)
                assert all(r >= v for r, v in zip(refined, sampled)), (arch, b, norms, search)
                assert ref.lower_estimate <= ref.l_grad_phi
                assert 0.0 <= ref.gap < 1.0
                assert ref.splits <= search.max_splits

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid", "saturated_linear"])
    def test_one_hidden_layer_closes_at_the_root(self, kind):
        # with a bounded activation the first budget drops out of every
        # constant, so the root's lower estimate at (0, b) meets its bound
        # at the uniform split (b, b)
        params = {"c": 1.5, "r_sat": 2.0} if kind == "saturated_linear" else {}
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(make_activation(kind, **params),))
        inputs, loss, norms = BoundInputs(b_omega=1.5), LossEnvelope(1.0, 1.0), [1.0, 0.5]
        ref = refine_over_layer_budgets(arch, inputs, loss, norms)
        assert ref.splits == 0 and ref.gap == 0.0
        assert ref.layer_budgets == (0.0, 1.5)
        assert ref.l_grad_phi == loss_certificate(arch, inputs, loss, norms).l_grad_phi

    def test_lower_estimate_is_l_grad_phi_at_the_reported_split(self):
        rng = np.random.default_rng(21)
        arch, inputs, loss, norms = self._setup(rng, min_hidden=2)
        ref = refine_over_layer_budgets(
            arch, inputs, loss, norms, RefinementSearch(restarts=0, iters=10)
        )
        hidden = [_network_bounds(arch, ref.layer_budgets, s).last_hidden for s in norms]
        assert ref.lower_estimate == head_averages(loss, ref.layer_budgets[-1], hidden)[1]
        assert ref.gap == pytest.approx(1.0 - ref.lower_estimate / ref.l_grad_phi, abs=1e-15)

    def test_one_recursion_per_budget_vector_and_norm(self, monkeypatch):
        # the four searches, the uniform caps and the lower estimate share
        # one walk of the float recursion per (budgets, distinct norm); the
        # per-layer table is one more walk, at the reported split
        tables = counted_calls(monkeypatch, "_network_bounds")
        floats = counted_calls(monkeypatch, "_hidden_floats")
        arch = ArchitectureSpec(
            widths=(3, 5, 4, 6, 2), activations=(tanh(), smoothed_relu(0.5), sigmoid())
        )
        for iters in (0, 4, 30):
            tables.clear()
            floats.clear()
            ref = refine_over_layer_budgets(
                arch, BoundInputs(b_omega=1.5), LossEnvelope(1.0, 1.0), [0.5, 1.25, 0.5],
                RefinementSearch(restarts=1, iters=iters),
            )
            table_walks, search_walks = walks(floats)
            calls = Counter((tuple(d), s) for _, d, s in search_walks)
            assert calls and max(calls.values()) == 1
            by_vector = Counter(d for d, _ in calls)
            assert set(by_vector.values()) == {2}
            assert [(d, s) for _, d, s in tables] == [(ref.layer_budgets, 1.25)]
            assert [(d, s) for _, d, s in table_walks] == [(ref.layer_budgets, 1.25)]

    def test_many_norms_take_one_array_recursion_per_budget_vector(self, monkeypatch):
        # each budget vector walks every distinct norm once, the largest
        # one's included, in one array recursion; the only float walk is
        # the per-layer table's, at the reported split
        floats = counted_calls(monkeypatch, "_hidden_floats")
        arrays = counted_calls(monkeypatch, "_last_hidden_rows")
        arch = ArchitectureSpec(
            widths=(3, 5, 4, 6, 2), activations=(tanh(), smoothed_relu(0.5), sigmoid())
        )
        norms = [0.25 * (k + 1) for k in range(bounds._ARRAY_MIN_NORMS)] + [0.5]
        ref = refine_over_layer_budgets(
            arch, BoundInputs(b_omega=1.5), LossEnvelope(1.0, 1.0), norms,
            RefinementSearch(restarts=1, iters=30),
        )
        table_walks, search_walks = walks(floats)
        assert [(d, s) for _, d, s in table_walks] == [(ref.layer_budgets, max(norms))]
        assert search_walks == []
        vectors = Counter(tuple(d) for _, d, _ in arrays)
        assert len(vectors) > 30 and set(vectors.values()) == {1}
        assert all(s.tolist() == sorted(set(norms)) for _, _, s in arrays)

    def test_memo_drops_the_smaller_norms(self, monkeypatch):
        # one cache, shared by the four searches, the uniform caps and the
        # lower estimate, keeps four floats per budget vector, whatever the
        # number of sample norms: each vector is evaluated once, nothing per
        # norm outlives its vector's averages, and search k reads constant k
        evaluated, searched = [], []
        search, constants = bounds._sup_over_splits, bounds._budget_constants

        def spied_search(f, *args):
            reads = []
            searched.append(reads)

            def spied(d):
                reads.append((d, f(d)))
                return reads[-1][1]

            return search(spied, *args)

        def counted_constants(*args):
            evaluate = constants(*args)

            def counted(d):
                evaluated.append((d, evaluate(d)))
                return evaluated[-1][1]

            return counted

        monkeypatch.setattr(bounds, "_sup_over_splits", spied_search)
        monkeypatch.setattr(bounds, "_budget_constants", counted_constants)
        arch = ArchitectureSpec(widths=(3, 5, 4, 2), activations=(tanh(), sigmoid()))
        inputs = BoundInputs(b_omega=1.5)
        # one norm, a few, and enough for the array recursion
        for n_norms in (1, 4, bounds._ARRAY_MIN_NORMS + 2):
            evaluated.clear()
            searched.clear()
            ref = refine_over_layer_budgets(
                arch, inputs, LossEnvelope(1.0, 1.0),
                [0.25 * (k + 1) for k in range(n_norms)], RefinementSearch(restarts=1, iters=10),
            )
            values = dict(evaluated)
            assert len(values) == len(evaluated) > 3 * arch.m
            for d, value in evaluated:
                assert len(d) == arch.m + 1 and all(type(x) is float for x in d)
                assert type(value) is tuple and len(value) == 4
                assert all(type(x) is float for x in value)
            assert len(searched) == 4
            for k, reads in enumerate(searched):
                assert reads and all(value == values[d][k] for d, value in reads)
            assert inputs.budgets_for(arch) in values
            assert ref.lower_estimate == values[ref.layer_budgets][3]

    def test_four_searches_measure_each_box_once(self, monkeypatch):
        # the four searches share one cached box geometry: a box is measured
        # the first time any of them pushes it and read from the cache after
        # that, and each search returns what it returns on uncached geometry
        measured, searches = [], []
        geometry, search = bounds._box_geometry, bounds._sup_over_splits

        def spied_geometry(lo, hi, b_omega):
            measured.append((lo, hi))
            return geometry(lo, hi, b_omega)

        def spied_search(f, dim, max_splits, shared):
            pushed = []

            def spied(lo, hi):
                pushed.append((lo, hi))
                return shared(lo, hi)

            result = search(f, dim, max_splits, spied)
            searches.append((f, dim, max_splits, shared, pushed, result))
            return result

        monkeypatch.setattr(bounds, "_box_geometry", spied_geometry)
        monkeypatch.setattr(bounds, "_sup_over_splits", spied_search)
        arch = ArchitectureSpec(
            widths=(3, 5, 4, 6, 2), activations=(tanh(), smoothed_relu(0.5), sigmoid())
        )
        for iters in (0, 4, 60):
            measured.clear()
            searches.clear()
            refine_over_layer_budgets(
                arch, BoundInputs(b_omega=1.5), LossEnvelope(1.0, 1.0), [0.5, 1.25],
                RefinementSearch(restarts=1, iters=iters),
            )
            boxes = list(measured)
            assert len(searches) == 4
            shared = searches[0][3]
            assert all(s[3] is shared for s in searches)
            pushed = set()
            for f, dim, max_splits, _, own, result in searches:
                assert len(own) == len(set(own))
                pushed.update(own)
                assert search(f, dim, max_splits, partial(geometry, b_omega=1.5)) == result
            assert len(boxes) == len(set(boxes)) == len(pushed)
            assert set(boxes) == pushed
            assert sum(len(s[4]) for s in searches) > len(pushed)

    def test_more_effort_never_loosens_the_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            arch, inputs, loss, norms = self._setup(rng, min_hidden=2)
            values = [
                refine_over_layer_budgets(
                    arch, inputs, loss, norms, RefinementSearch(restarts=0, iters=n)
                ).l_grad_phi
                for n in (0, 4, 40)
            ]
            assert values[0] == loss_certificate(arch, inputs, loss, norms).l_grad_phi
            assert values[0] >= values[1] >= values[2]

    @pytest.mark.parametrize("b_omega", [1e-100, 1e-170, 1.2e154])
    def test_radii_whose_powers_leave_the_float_range(self, b_omega):
        # radii whose squares or fourth powers underflow or sum past the
        # float range: the search runs on fractions of the radius, so the
        # supremum still covers every split on the sphere, here the axis
        # splits, and the reported split lies on it.
        arch = ArchitectureSpec(widths=(2, 3, 4, 1), activations=(tanh(), sigmoid()))
        loss = LossEnvelope(1.0, 1.0)
        ref = refine_over_layer_budgets(
            arch, BoundInputs(b_omega=b_omega), loss, [1.0], RefinementSearch(1, 8)
        )
        assert math.hypot(*ref.layer_budgets) == pytest.approx(b_omega, rel=1e-12)
        for axis in range(arch.m + 1):
            split = tuple(b_omega if u == axis else 0.0 for u in range(arch.m + 1))
            nb = _network_bounds(arch, split, 1.0)
            assert ref.l_n_final >= nb.l_n * (1.0 - 1e-12)
            assert ref.l_grad_n_final >= nb.l_grad_n * (1.0 - 1e-12)
            head_ = layer_step(nb.last_hidden, loss, 1, split[-1])
            assert ref.l_grad_phi >= head_.l_grad_n * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# no certificate is nan


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(lo, hi))


def _extreme_problem(rng, bounded=False):
    """A random net with b_omega, sample norms and envelope constants drawn
    log-uniformly over most of the float range."""
    kinds = [
        tanh,
        sigmoid,
        lambda: make_activation(
            "saturated_linear", c=_log_uniform(rng, -200, 200), r_sat=_log_uniform(rng, -3, 3)
        ),
    ]
    if not bounded:
        kinds.append(lambda: smoothed_relu(_log_uniform(rng, -3, 3)))
    m = int(rng.integers(1, 4))
    acts = tuple(kinds[int(rng.integers(len(kinds)))]() for _ in range(m))
    arch = ArchitectureSpec(widths=tuple(int(w) for w in rng.integers(1, 7, size=m + 2)), activations=acts)
    inputs = BoundInputs(b_omega=_log_uniform(rng, -200, 250))
    norms = [_log_uniform(rng, -200, 200) for _ in range(int(rng.integers(1, 4)))]
    loss = LossEnvelope(_log_uniform(rng, -200, 200), _log_uniform(rng, -200, 200))
    return arch, inputs, norms, loss


def _certified_numbers(cert) -> list[float]:
    """Every float a certificate, or a NetworkBounds, reports."""
    rows = cert.per_layer + ((cert.final,) if isinstance(cert, bounds.NetworkBounds) else ())
    numbers = [v for row in rows for v in dataclasses.astuple(row)]
    if isinstance(cert, bounds.Certificate):
        numbers += [cert.l_n_final, cert.l_grad_n_final, cert.l_phi, cert.l_grad_phi]
        numbers += [] if cert.lower_estimate is None else [cert.lower_estimate, cert.gap]
    return numbers


class TestNoNan:
    """A certified number must be an upper bound, and nan is none: where the
    arithmetic underflows and overflows, every routine reports +inf instead."""

    ROUTINES = {
        "network": lambda arch, inputs, loss, norms: network_certificate(arch, inputs, max(norms)),
        "recursive": loss_certificate,
        "closed_form": closed_form_certificate,
        "refined": partial(refine_over_layer_budgets, search=RefinementSearch(0, 4)),
        "moments": lambda arch, inputs, loss, norms: moment_certificate(
            arch, inputs, loss, SampleMoments(norms[0] ** 2, norms[0] ** 4)
        ),
    }

    @pytest.mark.parametrize("name", list(ROUTINES))
    def test_log_uniform_extremes(self, name):
        rng = np.random.default_rng(list(self.ROUTINES).index(name))
        for _ in range(400):
            arch, inputs, norms, loss = _extreme_problem(rng, bounded=name == "moments")
            if name == "moments":
                # moments of one norm whose fourth power neither underflows nor overflows
                norms = [_log_uniform(rng, -70, 70)]
            cert = self.ROUTINES[name](arch, inputs, loss, norms)
            numbers = _certified_numbers(cert)
            assert not any(math.isnan(v) for v in numbers), (arch, inputs, norms, loss, cert)
            if isinstance(cert, bounds.Certificate):
                assert cert.overflowed == any(math.isinf(v) for v in (
                    cert.l_n_final, cert.l_grad_n_final, cert.l_phi, cert.l_grad_phi
                ) if v is not None)

    def test_zero_budget_on_an_overflowing_norm(self):
        # the search can give a layer an exact zero budget; a smoothed ramp's
        # output bound multiplies it by the previous bound, here past the
        # float range, and 0 * inf is a dropped term, not nan
        arch = ArchitectureSpec(widths=(1, 2, 1), activations=(smoothed_relu(0.5),))
        nb = _network_bounds(arch, (0.0, 1.0), 1e160)
        assert not any(math.isnan(v) for v in _certified_numbers(nb))
        assert nb.last_hidden.b_n == math.sqrt(2.0) * 0.125
        rows = bounds._last_hidden_rows(bounds._hidden_layers(arch), (0.0, 1.0), np.array([1e160, 1.0]))
        assert not np.isnan(rows).any()
        assert rows[2].tolist() == [nb.last_hidden.b_n] * 2

    def test_underflow_then_overflow_is_inf(self):
        # a product of nonzero bound factors whose partial product underflows
        # to 0 before it meets inf: the exact product is +inf
        assert bounds._prod(1e-3, 5e-324, math.inf) == math.inf
        arch = ArchitectureSpec(widths=(5, 4, 2, 6), activations=(
            make_activation("saturated_linear", c=1.7056, r_sat=1.0),
            make_activation("saturated_linear", c=1.958e-187, r_sat=4.0),
        ))
        cert = loss_certificate(arch, BoundInputs(b_omega=2.0688e-138), None, [1.2533e148])
        assert cert.l_grad_n_final == math.inf
        assert cert.overflowed

    def test_mean_past_the_float_range_is_inf(self):
        # two finite per-sample constants whose sum overflows
        arch = ArchitectureSpec(widths=(1, 1), activations=())
        cert = loss_certificate(arch, BoundInputs(b_omega=1.0), LossEnvelope(1e308, 0.0), [1.0, 1.0])
        assert cert.l_phi == math.inf
        assert cert.overflowed


# ---------------------------------------------------------------------------
# step-size derivations


class TestStepDerivations:
    def _cert(self, l):
        arch = ArchitectureSpec(widths=(1, 1), activations=())
        cert = loss_certificate(
            arch, BoundInputs(b_omega=1.0), LossEnvelope(1.0, 0.0), dataset_norms=[0.0]
        )
        from dataclasses import replace

        return replace(cert, l_grad_phi=l)

    def test_adagrad_examples(self):
        alpha, beta = derive_adagrad_params(self._cert(1.0), eps_margin=0.1)
        assert (alpha, beta) == (0.5, pytest.approx(1.1))
        assert 2 * alpha * 1.0 < math.sqrt(beta)

        alpha, beta = derive_adagrad_params(self._cert(3.0), eps_margin=1.0)
        assert (alpha, beta) == (0.5, pytest.approx(10.0))
        assert 2 * alpha * 3.0 < math.sqrt(beta)

        alpha, beta = derive_adagrad_params(self._cert(0.0), eps_margin=0.25)
        assert beta == pytest.approx(0.25)

    def test_adagrad_inequality_with_exponent(self):
        for eps in (0.0, 0.1, 0.25):
            alpha, beta = derive_adagrad_params(self._cert(7.0), 1.0, eps)
            assert 2.0 * alpha * 7.0 < beta ** (0.5 + eps)

    def test_overflowed_certificate_rejected(self):
        with pytest.raises(ValueError):
            derive_adagrad_params(self._cert(math.inf))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"eps_margin": math.inf}, "eps_margin must be a positive finite real"),
            ({"eps_margin": math.nan}, "eps_margin must be a positive finite real"),
            ({"eps_exponent": math.inf}, "eps_exponent must be a nonnegative finite real"),
            ({"eps_exponent": math.nan}, "eps_exponent must be a nonnegative finite real"),
        ],
    )
    def test_non_finite_settings_rejected(self, kwargs, message):
        # an infinite margin or exponent would make every step 0
        with pytest.raises(ValueError, match=message):
            derive_adagrad_params(self._cert(7.0), **kwargs)

    def test_power_past_the_float_range_satisfies_the_condition(self):
        # beta^(1/2 + eps) is above every float, so above 2 alpha L
        alpha, beta = derive_adagrad_params(self._cert(7.0), 1.0, 2000.0)
        with pytest.raises(OverflowError):
            beta ** 2000.5
        check_adagrad_condition(alpha, beta, 2000.0, 7.0)


# ---------------------------------------------------------------------------
# activation envelopes feeding the bounds


class TestActivationEnvelopes:
    def test_tanh_envelope_is_sharp(self):
        a = tanh()
        assert a.envelope.sigma_max == 1.0
        assert a.envelope.sigma_p_max == 1.0
        assert a.envelope.sigma_pp_max == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)))
        x = np.linspace(-6.0, 6.0, 20001)
        assert float(np.max(np.abs(a.deriv2(x)))) <= a.envelope.sigma_pp_max * (1 + 1e-12)
        # the bound is attained (up to grid resolution)
        assert float(np.max(np.abs(a.deriv2(x)))) >= a.envelope.sigma_pp_max * 0.999

    def test_sigmoid_envelope_is_sharp(self):
        a = sigmoid()
        assert a.envelope.sigma_p_max == 0.25
        assert a.envelope.sigma_pp_max == pytest.approx(1.0 / (6.0 * math.sqrt(3.0)))
        x = np.linspace(-8.0, 8.0, 20001)
        assert float(np.max(np.abs(a.deriv2(x)))) <= a.envelope.sigma_pp_max * (1 + 1e-12)
        assert float(np.max(np.abs(a.deriv2(x)))) >= a.envelope.sigma_pp_max * 0.999

    def test_smoothed_relu_stays_within_gap(self):
        delta = 0.3
        a = smoothed_relu(delta)
        x = np.linspace(-2.0, 2.0, 4001)
        gap = np.abs(a(x) - np.maximum(x, 0.0))
        assert float(np.max(gap)) <= delta / 4.0 + 1e-15
        assert a.envelope.relu_epsilon == delta / 4.0
        d = a.deriv(x)
        assert float(np.max(np.abs(d))) <= 1.0 + 1e-15
        assert float(np.max(np.abs(a.deriv2(x)))) <= 1.0 / (2.0 * delta) * (1 + 1e-12)

    def test_registry_round_trip(self):
        assert make_activation("tanh").kind == "tanh"
        assert make_activation("smoothed_relu", delta=0.2).envelope.relu_epsilon == 0.05
        with pytest.raises(KeyError):
            make_activation("swish")
