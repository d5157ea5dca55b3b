import math

import numpy as np
import pytest

from lipcert import (
    ArchitectureSpec,
    PseudoHuber,
    Sample,
    SquaredError,
    batch_backward,
    batch_forward,
    dataset_norms,
    flatten_params,
    forward,
    grad_params,
    init_params,
    layer_slices,
    load_dataset_csv,
    loss_head_envelopes,
    make_activation,
    param_jacobian,
    param_norm,
    project_to_ball,
    sample_in_ball,
    sigmoid,
    tanh,
    unflatten_params,
)
from lipcert.empirical import finite_diff_gradient
from lipcert.network import vector_norm

from conftest import random_architecture


def small_net(seed=0):
    arch = ArchitectureSpec(widths=(2, 3, 2), activations=(tanh(),))
    return arch, init_params(arch, b_omega=2.0, seed=seed)


class TestForward:
    def test_matches_manual_composition(self):
        arch, params = small_net()
        x = np.array([0.3, -0.7])
        (w0, b0), (w1, b1) = params.layers
        h = np.tanh(w0 @ x + b0)
        out = w1 @ h + b1
        tr = forward(params, arch, x)
        np.testing.assert_allclose(tr.output, out, rtol=1e-15)
        np.testing.assert_allclose(tr.post[0], h, rtol=1e-15)

    def test_affine_network_is_linear_map(self):
        arch = ArchitectureSpec(widths=(3, 2), activations=())
        params = init_params(arch, b_omega=1.0, seed=4)
        x = np.array([1.0, -2.0, 0.5])
        tr = forward(params, arch, x)
        w0, b0 = params.layers[0]
        np.testing.assert_allclose(tr.output, w0 @ x + b0, rtol=1e-15)

    def test_rejects_wrong_input_dim(self):
        arch, params = small_net()
        with pytest.raises(ValueError):
            forward(params, arch, np.zeros(3))


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            arch = random_architecture(rng, max_width=4, max_hidden=2)
            params = init_params(arch, b_omega=1.0, seed=int(rng.integers(1000)))
            x = rng.normal(size=arch.widths[0])
            y = rng.normal(size=arch.widths[-1])
            sample = Sample(x=x, y=y)
            head = SquaredError()
            g = grad_params(params, arch, sample, head)
            theta = flatten_params(params)

            def phi(t):
                p = unflatten_params(arch, t)
                return head.value(forward(p, arch, x).output, y)

            fd = finite_diff_gradient(phi, theta, h=1e-6)
            np.testing.assert_allclose(g, fd, rtol=2e-7, atol=1e-9)

    def test_pseudo_huber_gradient(self):
        arch, params = small_net(seed=3)
        sample = Sample(x=np.array([0.5, 0.5]), y=np.array([0.1, -0.2]))
        head = PseudoHuber(delta=0.7)
        g = grad_params(params, arch, sample, head)
        theta = flatten_params(params)

        def phi(t):
            p = unflatten_params(arch, t)
            return head.value(forward(p, arch, x=sample.x).output, sample.y)

        fd = finite_diff_gradient(phi, theta, h=1e-6)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-10)

    def test_param_jacobian_matches_finite_differences(self):
        arch = ArchitectureSpec(widths=(2, 3, 2), activations=(sigmoid(),))
        params = init_params(arch, b_omega=1.5, seed=9)
        x = np.array([0.4, -1.1])
        jac = param_jacobian(params, arch, x)
        theta = flatten_params(params)
        h = 1e-6
        for j in range(theta.size):
            e = np.zeros_like(theta)
            e[j] = h
            plus = forward(unflatten_params(arch, theta + e), arch, x).output
            minus = forward(unflatten_params(arch, theta - e), arch, x).output
            np.testing.assert_allclose(jac[:, j], (plus - minus) / (2 * h), atol=1e-7)

    def test_jacobian_shape(self):
        arch, params = small_net()
        jac = param_jacobian(params, arch, np.zeros(2))
        assert jac.shape == (2, arch.n_params)


class TestParamVectorization:
    def test_flatten_roundtrip(self):
        arch, params = small_net(seed=7)
        theta = flatten_params(params)
        assert theta.shape == (arch.n_params,)
        back = unflatten_params(arch, theta)
        for (w, b), (w2, b2) in zip(params.layers, back.layers):
            np.testing.assert_array_equal(w, w2)
            np.testing.assert_array_equal(b, b2)

    def test_layer_slices_partition_the_vector(self):
        arch, params = small_net()
        slices = layer_slices(arch)
        theta = flatten_params(params)
        covered = np.zeros(theta.size, dtype=bool)
        for w_sl, b_sl in slices:
            assert not covered[w_sl].any() and not covered[b_sl].any()
            covered[w_sl] = True
            covered[b_sl] = True
        assert covered.all()

    def test_param_norm_is_euclidean(self):
        arch, params = small_net(seed=2)
        assert param_norm(params) == pytest.approx(
            float(np.linalg.norm(flatten_params(params))), rel=1e-15
        )

    def test_wrong_length_rejected(self):
        arch, _ = small_net()
        with pytest.raises(ValueError):
            unflatten_params(arch, np.zeros(arch.n_params + 1))


class TestBallGeometry:
    def test_sample_in_ball_stays_inside(self):
        rng = np.random.default_rng(0)
        r = 2.5
        pts = np.stack([sample_in_ball(rng, 6, r) for _ in range(500)])
        norms = np.linalg.norm(pts, axis=1)
        assert float(norms.max()) <= r * (1 + 1e-12)
        # the sampler should actually fill the ball, not hug the centre
        assert float(norms.max()) > 0.9 * r
        assert float(norms.min()) < 0.5 * r

    def test_init_params_respects_radius_fraction(self):
        arch = ArchitectureSpec(widths=(3, 4, 1), activations=(tanh(),))
        p = init_params(arch, b_omega=2.0, seed=1, radius_fraction=0.25)
        assert param_norm(p) <= 0.5 + 1e-12

    def test_projection_is_identity_inside(self):
        arch, params = small_net(seed=5)
        theta = flatten_params(params)
        q, projected = project_to_ball(theta, param_norm(params) * 10.0)
        assert q is theta and not projected

    def test_projection_lands_on_shrunk_sphere(self):
        arch, params = small_net(seed=5)
        target = param_norm(params) / 3.0
        q, projected = project_to_ball(flatten_params(params), target, shrink=0.9)
        assert projected
        assert float(np.linalg.norm(q)) == pytest.approx(0.9 * target, rel=1e-12)


def reference_backward(arch, thetas, pres, feats, seed):
    """batch_backward with its outer products as np.multiply of the broadcast operands."""
    k, r, _ = seed.shape
    out = np.empty((k, r, arch.n_params))
    d = seed
    slices = layer_slices(arch)
    for u in range(arch.n_layers - 1, -1, -1):
        w_sl, b_sl = slices[u]
        shape = (arch.widths[u + 1], arch.widths[u])
        np.multiply(d[:, :, :, None], feats[u][:, :, None, :], out=out[:, :, w_sl].reshape(k, r, *shape))
        out[:, :, b_sl] = d
        if u > 0:
            d = np.einsum("kro,koi->kri", d, thetas[:, w_sl].reshape(k, *shape))
            d = d * arch.activations[u - 1].deriv(pres[u - 1])
    return out


def reference_sample_in_ball(rng, dim, radius):
    """The ball draw as plain numpy: a fresh array, np.linalg.norm, (r / nrm) * g."""
    g = rng.standard_normal(dim)
    nrm = float(np.linalg.norm(g))
    r = radius * rng.random() ** (1.0 / dim)
    return (r / nrm) * g


def every_kind_net(rng, min_hidden=0):
    """Random dense net of width <= 16 whose hidden layers cycle through every activation kind."""
    kinds = [("tanh", {}), ("sigmoid", {}), ("smoothed_relu", {"delta": 0.4}),
             ("saturated_linear", {"c": 1.2, "r_sat": 0.9})]
    m = int(rng.integers(min_hidden, 4))
    widths = tuple(int(w) for w in rng.integers(1, 17, size=m + 2))
    start = int(rng.integers(4))
    acts = tuple(make_activation(kind, **params) for kind, params in (kinds[(start + u) % 4] for u in range(m)))
    return ArchitectureSpec(widths=widths, activations=acts)


class TestEngineBits:
    """The engine's outer products and the norm and ball draws, pinned bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_backward_matches_multiply_at_a_train_shape(self, seed):
        rng = np.random.default_rng(seed)
        arch = every_kind_net(rng)
        thetas = rng.standard_normal((1, arch.n_params))
        xs = rng.standard_normal((37, arch.widths[0]))
        pres, feats = batch_forward(arch, thetas, xs)
        seed_rows = rng.standard_normal((1, 37, arch.widths[-1]))
        got = batch_backward(arch, thetas, pres, feats, seed_rows)
        assert got.tobytes() == reference_backward(arch, thetas, pres, feats, seed_rows).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_backward_matches_multiply_at_a_jacobian_shape(self, seed):
        # identity seed over the output rows; pres and feats have one input row
        rng = np.random.default_rng(100 + seed)
        arch = every_kind_net(rng, min_hidden=1)
        thetas = rng.standard_normal((9, arch.n_params))
        pres, feats = batch_forward(arch, thetas, rng.standard_normal((1, arch.widths[0])))
        eye = np.eye(arch.widths[-1])
        seed_rows = np.broadcast_to(eye, (9,) + eye.shape)
        got = batch_backward(arch, thetas, pres, feats, seed_rows)
        assert got.tobytes() == reference_backward(arch, thetas, pres, feats, seed_rows).tobytes()

    def test_vector_norm_is_linalg_norm_bitwise(self):
        rng = np.random.default_rng(7)
        vectors = [np.zeros(0), np.array([-0.0]), np.array([5e-324, -5e-324]), np.array([np.nan, 1.0])]
        for n in (1, 2, 3, 7, 8, 16, 33, 128, 1001):
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-200, 200)
            vectors += [x, x[::3], x[::-1]]
        vectors += [rng.standard_normal((4, 6)), rng.standard_normal((6, 4)).T]
        vectors += [np.array([1e200, 1e200]), np.array([1e-200, 3e-200])]
        with np.errstate(over="ignore", under="ignore"):
            for x in vectors:
                assert np.float64(vector_norm(x)).tobytes() == np.linalg.norm(x).tobytes()

    def test_dataset_norms_are_linalg_norms(self):
        rng = np.random.default_rng(8)
        samples = [Sample(rng.standard_normal(w), np.zeros(1)) for w in (1, 3, 8, 64)]
        assert dataset_norms(samples) == tuple(float(np.linalg.norm(s.x)) for s in samples)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 65])
    def test_sample_in_ball_draws_the_reference_bytes(self, dim):
        want_rng, rng, out_rng = (np.random.default_rng(dim) for _ in range(3))
        for _ in range(20):
            want = reference_sample_in_ball(want_rng, dim, 1.7)
            assert sample_in_ball(rng, dim, 1.7).tobytes() == want.tobytes()
            out = np.empty(dim)
            assert sample_in_ball(out_rng, dim, 1.7, out=out) is out
            assert out.tobytes() == want.tobytes()


class TestLossHeads:
    def test_squared_error_value_and_grad(self):
        head = SquaredError()
        out = np.array([1.0, 2.0])
        y = np.array([0.0, 0.0])
        assert head.value(out, y) == pytest.approx(5.0)
        np.testing.assert_allclose(head.grad_x(out, y), 2.0 * out)

    def test_pseudo_huber_small_residual_is_quadratic(self):
        head = PseudoHuber(delta=1.0)
        r = np.array([1e-4])
        assert head.value(r, np.zeros(1)) == pytest.approx(0.5 * 1e-8, rel=1e-6)

    def test_squared_error_envelope(self):
        envp = loss_head_envelopes(SquaredError(), dim=3, output_bound=2.0, target_bound=1.0)
        assert envp.g_p_max == pytest.approx(2.0 * (2.0 + 1.0))
        assert envp.g_pp_max == pytest.approx(2.0 * math.sqrt(3.0))
        assert envp.lip_g == envp.g_p_max
        assert envp.lip_dg == pytest.approx(2.0)

    def test_squared_error_envelope_needs_finite_bounds(self):
        with pytest.raises(ValueError):
            loss_head_envelopes(SquaredError(), dim=1, output_bound=math.inf, target_bound=1.0)

    def test_pseudo_huber_envelope_is_global(self):
        envp = loss_head_envelopes(
            PseudoHuber(delta=0.5), dim=4, output_bound=math.inf, target_bound=math.inf
        )
        assert envp.g_p_max == pytest.approx(0.5 * math.sqrt(4.0))
        assert envp.g_pp_max == pytest.approx(math.sqrt(4.0))
        assert envp.lip_dg == pytest.approx(1.0)

    def test_envelope_covers_sampled_derivatives(self):
        # the declared slope bound must dominate actual gradients of the
        # scalarized loss over the advertised region
        rng = np.random.default_rng(21)
        head = SquaredError()
        ob, tb, dim = 1.5, 1.0, 3
        envp = loss_head_envelopes(head, dim=dim, output_bound=ob, target_bound=tb)
        for _ in range(200):
            out = sample_in_ball(rng, dim, ob)
            y = sample_in_ball(rng, dim, tb)
            g = np.linalg.norm(head.grad_x(out, y))
            assert g <= envp.g_p_max * (1 + 1e-12)


class TestDatasetCsv:
    def test_dataset_csv_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = [
            "# x0,x1,y0",
            "1.0,2.0,0.5",
            "-0.25,0.75,1.0",
        ]
        path.write_text("\n".join(rows) + "\n")
        samples = load_dataset_csv(path, input_dim=2, target_dim=1)
        assert len(samples) == 2
        np.testing.assert_allclose(samples[0].x, [1.0, 2.0])
        np.testing.assert_allclose(samples[1].y, [1.0])
        norms = dataset_norms(samples)
        assert norms[0] == pytest.approx(math.sqrt(5.0))

    def test_dataset_csv_width_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path, input_dim=2, target_dim=1)

    def test_make_activation_from_config_dict(self):
        a = make_activation("sigmoid")
        assert a.envelope.sigma_p_max == 0.25
