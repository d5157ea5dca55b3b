import math

import numpy as np
import pytest

from lipcert import (
    ArchitectureSpec,
    BoundInputs,
    NetworkObjective,
    PseudoHuber,
    Sample,
    SquaredError,
    batch_backward,
    batch_forward,
    chain_output,
    directed_affine_pair,
    empirical_grad_lipschitz,
    empirical_lipschitz,
    finite_diff_gradient,
    flatten_params,
    forward,
    grad_params,
    loss_gradient_map,
    network_certificate,
    network_jacobian_map,
    network_output_map,
    param_jacobian,
    saturated_linear,
    tanh,
    unflatten_params,
    worst_case_construction,
)

from conftest import loop_backward, loop_forward, random_architecture


class TestBatchedMaps:
    """The batched engine and everything on it against a plain per-sample loop."""

    def test_output_map_matches_forward(self, rng):
        arch = random_architecture(rng, max_width=4, max_hidden=2, min_hidden=1)
        x = rng.normal(size=arch.widths[0])
        f = network_output_map(arch, x)
        thetas = rng.normal(size=(7, arch.n_params))
        batched = f(thetas)
        assert batched.shape == (7, arch.widths[-1])
        for k in range(7):
            _, feats = loop_forward(unflatten_params(arch, thetas[k]), arch, x)
            np.testing.assert_allclose(batched[k], feats[-1], rtol=1e-12, atol=1e-14)

    def test_jacobian_map_matches_param_jacobian(self, rng):
        arch = random_architecture(rng, max_width=3, max_hidden=2, min_hidden=1)
        x = rng.normal(size=arch.widths[0])
        jmap = network_jacobian_map(arch, x)
        thetas = rng.normal(size=(4, arch.n_params))
        batched = jmap(thetas)
        assert batched.shape == (4, arch.widths[-1] * arch.n_params)
        for k in range(4):
            p = unflatten_params(arch, thetas[k])
            ref = loop_backward(p, arch, x, np.eye(arch.widths[-1]))
            np.testing.assert_allclose(
                batched[k].reshape(ref.shape), ref, rtol=1e-12, atol=1e-14
            )
            np.testing.assert_allclose(
                param_jacobian(p, arch, x), ref, rtol=1e-12, atol=1e-14
            )

    def test_loss_gradient_map_matches_grad_params(self, rng):
        arch = random_architecture(rng, max_width=3, max_hidden=2, min_hidden=1)
        samples = [
            Sample(rng.normal(size=arch.widths[0]), rng.normal(size=arch.widths[-1]))
            for _ in range(3)
        ]
        head = SquaredError()
        gmap = loss_gradient_map(arch, samples, head)
        thetas = rng.normal(size=(5, arch.n_params))
        batched = gmap(thetas)
        for k in range(5):
            p = unflatten_params(arch, thetas[k])
            ref = np.mean([_loop_loss_grad(p, arch, s, head) for s in samples], axis=0)
            np.testing.assert_allclose(batched[k], ref, rtol=1e-12, atol=1e-14)
            for s in samples:
                np.testing.assert_allclose(
                    grad_params(p, arch, s, head), _loop_loss_grad(p, arch, s, head),
                    rtol=1e-12, atol=1e-14,
                )

    def test_network_objective_matches_loop(self, rng):
        arch = random_architecture(rng, max_width=4, max_hidden=3, min_hidden=1)
        samples = [
            Sample(rng.normal(size=arch.widths[0]), rng.normal(size=arch.widths[-1]))
            for _ in range(6)
        ]
        for head in (SquaredError(), PseudoHuber(0.7)):
            obj = NetworkObjective(arch, samples, head)
            theta = rng.normal(size=arch.n_params)
            p = unflatten_params(arch, theta)
            losses = [head.value(loop_forward(p, arch, s.x)[1][-1], s.y) for s in samples]
            assert obj.value(theta) == pytest.approx(math.fsum(losses) / 6, rel=1e-12)
            grads = [_loop_loss_grad(p, arch, s, head) for s in samples]
            np.testing.assert_allclose(
                obj.gradient(theta), np.mean(grads, axis=0), rtol=1e-12, atol=1e-14
            )
            # minibatches draw with replacement, so repeated rows must count twice
            idx = np.array([4, 1, 4, 4, 0])
            np.testing.assert_allclose(
                obj.batch_gradient(theta, idx),
                np.mean([grads[i] for i in idx], axis=0),
                rtol=1e-12, atol=1e-14,
            )
            # one pass: the value over every sample, the gradient over the rows
            phi, grad = obj.value_and_gradient(theta, idx)
            assert phi == pytest.approx(math.fsum(losses) / 6, rel=1e-12)
            np.testing.assert_allclose(
                grad, np.mean([grads[i] for i in idx], axis=0), rtol=1e-12, atol=1e-14
            )

    def test_one_theta_on_many_inputs(self, rng):
        arch = random_architecture(rng, max_width=5, max_hidden=3, min_hidden=1)
        theta = rng.normal(size=(1, arch.n_params))
        p = unflatten_params(arch, theta[0])
        xs = rng.normal(size=(9, arch.widths[0]))
        seed = rng.normal(size=(1, 9, arch.widths[-1]))
        pres, feats = batch_forward(arch, theta, xs)
        grads = batch_backward(arch, theta, pres, feats, seed)
        assert feats[-1].shape == (1, 9, arch.widths[-1])
        assert grads.shape == (1, 9, arch.n_params)
        for j, x in enumerate(xs):
            _, ref = loop_forward(p, arch, x)
            np.testing.assert_allclose(feats[-1][0, j], ref[-1], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(
                grads[0, j], loop_backward(p, arch, x, seed[0, j])[0], rtol=1e-12, atol=1e-14
            )


def _loop_loss_grad(params, arch, sample, head):
    out = loop_forward(params, arch, sample.x)[1][-1]
    return loop_backward(params, arch, sample.x, head.grad_x(out, sample.y))[0]


class TestEmpiricalLipschitz:
    def test_linear_map_is_exact(self):
        # f(theta) = A theta has difference quotients exactly ||A v|| / ||v||,
        # so the sampled maximum can never exceed the operator norm and must
        # approach it with mixed sampling
        A = np.array([[3.0, 0.0], [0.0, 1.0]])
        f = lambda t: t @ A.T
        est = empirical_lipschitz(f, dim=2, b_omega=1.0, n_pairs=4000, seed=0)
        assert est.max_ratio <= 3.0 * (1 + 1e-12)
        assert est.max_ratio >= 2.97

    def test_chunking_does_not_change_result(self):
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
        f = network_output_map(arch, np.array([0.5, -0.5]))
        a = empirical_lipschitz(f, arch.n_params, 1.0, 500, seed=7, chunk=64)
        b = empirical_lipschitz(f, arch.n_params, 1.0, 500, seed=7, chunk=499)
        assert a.max_ratio == b.max_ratio
        for u, v in zip(a.argmax_pair, b.argmax_pair):
            np.testing.assert_array_equal(u, v)

    def test_prefix_reproducibility(self):
        # the first n pairs of a longer run are the same pairs, so the max
        # over a prefix is dominated by the max over the full run
        arch = ArchitectureSpec(widths=(1, 2, 1), activations=(tanh(),))
        f = network_output_map(arch, np.array([1.0]))
        short = empirical_lipschitz(f, arch.n_params, 1.0, 200, seed=3)
        long = empirical_lipschitz(f, arch.n_params, 1.0, 400, seed=3)
        assert long.max_ratio >= short.max_ratio

    def test_never_exceeds_certificate(self, rng):
        for _ in range(5):
            arch = random_architecture(rng, max_width=4, max_hidden=2)
            s = float(rng.choice([0.0, 1.0]))
            x = s * (lambda v: v / max(np.linalg.norm(v), 1e-30))(
                rng.normal(size=arch.widths[0])
            ) if s > 0 else np.zeros(arch.widths[0])
            cert = network_certificate(arch, BoundInputs(b_omega=1.0), s)
            f = network_output_map(arch, x)
            est = empirical_lipschitz(f, arch.n_params, 1.0, 2000, seed=11)
            assert est.max_ratio <= cert.l_n

    def test_mode_validation(self):
        f = lambda t: t
        with pytest.raises(ValueError):
            empirical_lipschitz(f, 2, 1.0, 10, seed=0, mode="global")

    def test_grad_variant_on_quadratic(self):
        # grad of 0.5||theta||^2 is the identity: every quotient is exactly 1
        g = lambda t: t
        est = empirical_grad_lipschitz(g, dim=3, b_omega=2.0, n_pairs=300, seed=5)
        assert est.max_ratio == pytest.approx(1.0, rel=1e-9)


class TestDirectedAffine:
    def test_affine_pair_attains_the_certificate(self):
        # m = 0 networks are affine in theta; the slope along the aligned
        # direction equals sqrt(S^2 + 1) with no sampling slack
        for s in (0.0, 1.0, 3.0):
            arch = ArchitectureSpec(widths=(2, 1), activations=())
            x = np.array([s, 0.0])
            lo, hi = directed_affine_pair(arch, x, b_omega=1.0)
            f = network_output_map(arch, x)
            num = float(np.linalg.norm(f(hi[None])[0] - f(lo[None])[0]))
            den = float(np.linalg.norm(hi - lo))
            assert num / den == pytest.approx(math.sqrt(s * s + 1.0), rel=1e-12)

    def test_pair_stays_inside_ball(self):
        arch = ArchitectureSpec(widths=(3, 2), activations=())
        lo, hi = directed_affine_pair(arch, np.array([1.0, 2.0, 0.0]), b_omega=0.5)
        assert np.linalg.norm(lo) <= 0.5 + 1e-15
        assert np.linalg.norm(hi) <= 0.5 + 1e-15

    def test_rejects_hidden_layers(self):
        arch = ArchitectureSpec(widths=(1, 1, 1), activations=(tanh(),))
        with pytest.raises(ValueError):
            directed_affine_pair(arch, np.array([1.0]), b_omega=1.0)


class TestWorstCaseChain:
    def test_exact_ratio_formula(self):
        # depth-m chains of saturating activations drive the quotient to
        # c^m (B / sqrt(m-1))^{m-1}
        for m in (2, 3, 4):
            b = 1.0
            pair = worst_case_construction(m, c=1.0, r_sat=10.0, b_omega=b)
            expected = (b / math.sqrt(m - 1.0)) ** (m - 1)
            assert pair.exact_ratio == pytest.approx(expected, rel=1e-12)

    def test_realized_quotient_matches_exact_ratio(self):
        m, c, b = 3, 1.0, 1.0
        pair = worst_case_construction(m, c=c, r_sat=8.0, b_omega=b)
        num = abs(
            chain_output(pair.theta, pair.activation)
            - chain_output(pair.theta_tilde, pair.activation)
        )
        den = float(
            np.linalg.norm(flatten_params(pair.theta) - flatten_params(pair.theta_tilde))
        )
        assert num / den == pytest.approx(pair.exact_ratio, rel=1e-9)

    def test_stays_below_certificate(self):
        for m in (2, 3, 4):
            pair = worst_case_construction(m, c=1.0, r_sat=10.0, b_omega=1.0)
            arch = ArchitectureSpec(
                widths=(1,) * (m + 2), activations=(pair.activation,) * m
            )
            cert = network_certificate(arch, BoundInputs(b_omega=1.0), 0.0)
            assert pair.exact_ratio <= cert.l_n

    def test_saturation_radius_must_clear_the_chain(self):
        with pytest.raises(ValueError):
            worst_case_construction(3, c=1.0, r_sat=0.5, b_omega=1.0)


class TestFiniteDifferences:
    def test_gradient_of_quadratic(self):
        Q = np.diag([1.0, 4.0])
        f = lambda t: 0.5 * float(t @ Q @ t)
        p = np.array([1.0, -2.0])
        fd = finite_diff_gradient(f, p, h=1e-5)
        np.testing.assert_allclose(fd, Q @ p, rtol=1e-8)

    def test_matches_backprop_everywhere(self, rng):
        arch = random_architecture(rng, max_width=3, max_hidden=2)
        p = unflatten_params(arch, rng.normal(size=arch.n_params) * 0.5)
        s = Sample(rng.normal(size=arch.widths[0]), rng.normal(size=arch.widths[-1]))
        head = SquaredError()
        g = grad_params(p, arch, s, head)

        def phi(t):
            return head.value(forward(unflatten_params(arch, t), arch, s.x).output, s.y)

        fd = finite_diff_gradient(phi, flatten_params(p), h=1e-5)
        denom = max(float(np.linalg.norm(g)), 1e-12)
        assert float(np.linalg.norm(fd - g)) / denom <= 1e-6
