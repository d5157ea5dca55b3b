import math
import weakref
from collections import Counter

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
    batch_forward,
    closed_form_bounds,
    closed_form_certificate,
    derive_adagrad_params,
    derive_gd_step,
    empirical_lipschitz,
    input_base,
    layer_step,
    loss_certificate,
    loss_head_envelopes,
    make_activation,
    network_certificate,
    network_output_map,
    refine_over_layer_budgets,
    sigmoid,
    smoothed_relu,
    tanh,
)
from lipcert import bounds
from lipcert.bounds import RefinementSearch, _head_averages, _network_bounds

from conftest import random_architecture


def env(c1, c2, smax=1.0, kind="custom"):
    return ActivationEnvelope(kind=kind, sigma_max=smax, sigma_p_max=c1, sigma_pp_max=c2)


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
        prev = LayerBounds(1.0, 2.0, math.inf, 0.0, 0.0)
        finite = LayerBounds(1.0, 2.0, 5.0, 0.0, 0.0)
        identity = layer_step(prev, None, 2, 1.0).l_grad_n
        assert identity == layer_step(finite, None, 2, 1.0).l_grad_n
        assert math.isinf(layer_step(prev, env(1.0, 1.0), 2, 0.0).l_grad_n)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            layer_step(input_base(0.0), env(1.0, 1.0), 1, -1.0)

    @pytest.mark.parametrize("field", ["l_n", "l_grad_n", "b_n"])
    def test_rejects_negative_prev_field(self, field):
        values = {"l_n": 1.0, "l_grad_n": 1.0, "b_n": 1.0, "alpha": 0.0, "beta": 0.0}
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


# ---------------------------------------------------------------------------
# network recursion


class TestNetworkCertificate:
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
        inputs = BoundInputs(b_omega=2.0, layer_budgets=(1.0, 1.5))
        cert = loss_certificate(arch, inputs, None, dataset_norms=[1.0, 3.0])
        nb = network_certificate(arch, inputs, 3.0)
        assert cert.per_layer == nb.per_layer
        assert (cert.l_n_final, cert.l_grad_n_final) == (nb.l_n, nb.l_grad_n)
        assert (cert.l_phi, cert.l_grad_phi, cert.flags) == (None, None, ())
        assert cert.layer_budgets == (1.0, 1.5)

    @pytest.mark.parametrize("loss", [LossEnvelope(1.0, 1.0), None])
    @pytest.mark.parametrize("build", [loss_certificate, closed_form_certificate])
    def test_one_recursion_per_sample_norm(self, monkeypatch, build, loss):
        # the largest norm's recursion is the one its average already took
        calls = []

        def counted(arch, budgets, s):
            calls.append(s)
            return network_bounds(arch, budgets, s)

        network_bounds = bounds._network_bounds
        monkeypatch.setattr(bounds, "_network_bounds", counted)
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
        build(arch, BoundInputs(b_omega=1.0), loss, dataset_norms=(1.0, 0.5, 1.0))
        assert sorted(calls) == [0.5, 1.0]


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
        mom = loss_certificate(
            arch,
            BoundInputs(b_omega=1.0, moments=SampleMoments(e_s2=s * s, e_s4=s**4)),
            loss,
        )
        assert mom.l_phi >= exact.l_phi * (1.0 - 1e-12)
        assert mom.l_grad_phi >= exact.l_grad_phi * (1.0 - 1e-12)

    def test_two_point_distribution_dominates(self):
        arch = ArchitectureSpec(widths=(1, 2, 1), activations=(sigmoid(),))
        loss = LossEnvelope(1.0, 2.0)
        norms = [0.5, 2.0]
        exact = loss_certificate(arch, BoundInputs(b_omega=1.0), loss, dataset_norms=norms)
        e2 = sum(s * s for s in norms) / 2.0
        e4 = sum(s**4 for s in norms) / 2.0
        mom = loss_certificate(
            arch, BoundInputs(b_omega=1.0, moments=SampleMoments(e_s2=e2, e_s4=e4)), loss
        )
        assert mom.l_phi >= exact.l_phi
        assert mom.l_grad_phi >= exact.l_grad_phi

    def test_unbounded_activation_rejected(self):
        arch = ArchitectureSpec(widths=(1, 1, 1), activations=(smoothed_relu(0.1),))
        with pytest.raises(ValueError):
            loss_certificate(
                arch,
                BoundInputs(b_omega=1.0, moments=SampleMoments(1.0, 1.0)),
                LossEnvelope(1.0, 1.0),
            )

    def test_missing_loss_rejected(self):
        # the moments bound only the loss constants
        arch = ArchitectureSpec(widths=(1, 1, 1), activations=(tanh(),))
        with pytest.raises(ValueError, match="needs a loss"):
            loss_certificate(arch, BoundInputs(b_omega=1.0, moments=SampleMoments(1.0, 1.0)), None)

    def test_inconsistent_moments_rejected(self):
        with pytest.raises(ValueError):
            SampleMoments(e_s2=2.0, e_s4=1.0)


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

    def test_moment_inputs_rejected(self):
        arch = ArchitectureSpec(widths=(1, 1, 1), activations=(tanh(),))
        with pytest.raises(ValueError):
            closed_form_certificate(
                arch,
                BoundInputs(b_omega=1.0, moments=SampleMoments(1.0, 1.0)),
                LossEnvelope(1.0, 1.0),
            )


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
        # with one hidden layer every constant depends on the budget split
        # only through the head budget, so a dense 1-d grid over the sphere
        # is an independent oracle for the maximizer
        arch = ArchitectureSpec(widths=(1, 2, 1), activations=(tanh(),))
        b = 1.0
        inputs = BoundInputs(b_omega=b)
        loss = LossEnvelope(1.0, 1.0)
        norms = [1.0]
        ref = refine_over_layer_budgets(
            arch, inputs, loss, norms, RefinementSearch(restarts=2, iters=40)
        )

        def phi_grad_at(d_head):
            d1 = math.sqrt(max(b * b - d_head * d_head, 0.0))
            from lipcert.bounds import _network_bounds, layer_step

            nb = _network_bounds(arch, (d1, d_head), 1.0)
            return layer_step(nb.per_layer[-1], loss, 1, d_head).l_grad_n

        grid = max(phi_grad_at(t) for t in np.linspace(0.0, b, 20001))
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
        assert all(d > 0.0 for d in ref.layer_budgets)
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
                return (nb.l_n, nb.l_grad_n) + _head_averages(loss, d[-1], hidden)

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
        # an independent oracle: the recursion at random feasible splits,
        # pushed towards the corners of the sphere, may never beat the
        # refined l_grad_phi, even at the smallest search effort
        rng = np.random.default_rng(4)
        loss = LossEnvelope(1.0, 1.0)
        search = RefinementSearch(restarts=1, iters=4)
        for _ in range(12):
            arch = random_architecture(rng, max_width=5, max_hidden=3, min_hidden=2)
            b = float(rng.choice([0.5, 1.0, 2.0]))
            norms = [1.0]
            ref = refine_over_layer_budgets(arch, BoundInputs(b_omega=b), loss, norms, search)
            g = rng.random((4000, arch.m + 1)) ** rng.choice([1.0, 4.0, 16.0], size=(4000, 1))
            splits = b * g / np.linalg.norm(g, axis=1, keepdims=True)
            sampled = max(
                _head_averages(loss, d[-1], [_network_bounds(arch, d, 1.0).last_hidden])[1]
                for d in splits
            )
            assert ref.l_grad_phi >= sampled
            assert ref.lower_estimate <= ref.l_grad_phi
            assert 0.0 <= ref.gap < 1.0
            assert ref.splits <= search.max_splits

    def test_lower_estimate_is_l_grad_phi_at_the_reported_split(self):
        rng = np.random.default_rng(21)
        arch, inputs, loss, norms = self._setup(rng, min_hidden=2)
        ref = refine_over_layer_budgets(
            arch, inputs, loss, norms, RefinementSearch(restarts=0, iters=10)
        )
        hidden = [_network_bounds(arch, ref.layer_budgets, s).last_hidden for s in norms]
        assert ref.lower_estimate == _head_averages(loss, ref.layer_budgets[-1], hidden)[1]
        assert ref.gap == pytest.approx(1.0 - ref.lower_estimate / ref.l_grad_phi, abs=1e-15)

    def test_one_recursion_per_budget_vector_and_norm(self, monkeypatch):
        # the four searches, the uniform certificate and the lookups at the
        # reported split share one evaluation per (budgets, norm), a repeated
        # sample norm included
        calls = Counter()

        def counted(arch, budgets, s):
            calls[tuple(budgets), s] += 1
            return network_bounds(arch, budgets, s)

        network_bounds = bounds._network_bounds
        monkeypatch.setattr(bounds, "_network_bounds", counted)
        arch = ArchitectureSpec(
            widths=(3, 5, 4, 6, 2), activations=(tanh(), smoothed_relu(0.5), sigmoid())
        )
        for iters in (0, 4, 30):
            calls.clear()
            refine_over_layer_budgets(
                arch, BoundInputs(b_omega=1.5), LossEnvelope(1.0, 1.0), [0.5, 1.25, 0.5],
                RefinementSearch(restarts=1, iters=iters),
            )
            assert calls and max(calls.values()) == 1

    def test_memo_drops_the_smaller_norms(self, monkeypatch):
        # recursions at the smaller sample norms are dropped once their loss
        # averages are taken, so the rows of a dataset do not multiply the memo
        norms = [0.25, 0.5, 0.75, 1.0]
        kept, alive = [], []

        def tracked(arch, budgets, s):
            alive.append(sum(ref() is not None for ref in kept))
            nb = network_bounds(arch, budgets, s)
            if s < max(norms):
                kept.append(weakref.ref(nb))
            return nb

        network_bounds = bounds._network_bounds
        monkeypatch.setattr(bounds, "_network_bounds", tracked)
        arch = ArchitectureSpec(widths=(3, 5, 4, 2), activations=(tanh(), sigmoid()))
        refine_over_layer_budgets(
            arch, BoundInputs(b_omega=1.5), LossEnvelope(1.0, 1.0), norms,
            RefinementSearch(restarts=1, iters=10),
        )
        assert len(kept) > 3 * len(norms)
        assert max(alive) < len(norms)

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

    def test_gd_step_is_reciprocal(self):
        assert derive_gd_step(self._cert(2.0)) == 0.5
        assert derive_gd_step(self._cert(1.0)) == 1.0

    def test_gd_step_rejects_zero(self):
        with pytest.raises(ValueError):
            derive_gd_step(self._cert(0.0))

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
