"""Controlled-ODE solver, variation equations, and growth certificates."""

import math

import numpy as np
import pytest

from lipcert import (
    ArchitectureSpec,
    Control,
    FieldEnvelopes,
    VectorFieldSpec,
    code_certificate,
    code_loss_certificate,
    dnn_as_code,
    embed_input,
    flatten_params,
    forward,
    init_params,
    linear_scalar_field,
    param_jacobian,
    random_smooth_field,
    sigmoid,
    solve_code,
    solve_code_batch,
    solve_first_variation,
    solve_second_variation,
    tanh,
    total_variation,
    verify_envelopes,
)
from lipcert.bounds import LossEnvelope
from lipcert.code_net import _integrate

from conftest import random_architecture


UNIT_DENSITY = Control.constant_density(1.0, t_final=1.0)


class TestControl:
    def test_constant_density_has_expected_variation(self):
        c = Control.constant_density(2.5, t_final=2.0)
        assert c.variation() == pytest.approx(5.0)

    def test_steps_variation_sums_jump_sizes(self):
        c = Control.steps([(0.5, 1.0), (1.5, -2.0)], t_final=2.0)
        assert c.variation() == pytest.approx(3.0)

    def test_total_variation_adds_controls(self):
        a = Control.constant_density(1.0, t_final=1.0)
        b = Control.steps([(1.0, 0.5)], t_final=1.0)
        assert total_variation([a, b]) == pytest.approx(1.5)

    def test_density_at_piecewise(self):
        c = Control(
            t_final=2.0,
            jumps={},
            density_breaks=(0.0, 1.0, 2.0),
            density_values=(3.0, 7.0),
        )
        assert c.density_at(0.5) == 3.0
        assert c.density_at(1.5) == 7.0
        assert c.variation() == pytest.approx(10.0)

    def test_jump_at_zero_rejected(self):
        with pytest.raises(ValueError):
            Control.steps([(0.0, 1.0)], t_final=1.0)

    def test_jump_after_final_time_rejected(self):
        with pytest.raises(ValueError):
            Control.steps([(1.5, 1.0)], t_final=1.0)

    def test_breaks_must_span_horizon(self):
        with pytest.raises(ValueError):
            Control(
                t_final=2.0,
                jumps={},
                density_breaks=(0.0, 1.0),
                density_values=(1.0,),
            )


class TestEulerAccuracy:
    def test_exponential_error_bound(self):
        # dX = theta X du with theta = 1 on [0, 1]: X_T = e and the left
        # point scheme gives (1 + 1/n)^n, so the gap is below 3 e / n
        field = linear_scalar_field()
        for n in (8, 16, 32, 64, 128, 256, 512):
            traj = solve_code(field, UNIT_DENSITY, np.array([1.0]), np.array([1.0]), n)
            err = abs(traj.final_state[0] - math.e)
            assert err <= 3.0 * math.e / n

    def test_halving_ratio_near_two(self):
        field = linear_scalar_field()

        def err(n):
            traj = solve_code(field, UNIT_DENSITY, np.array([1.0]), np.array([1.0]), n)
            return abs(traj.final_state[0] - math.e)

        for n in (32, 64, 128, 256):
            ratio = err(n) / err(2 * n)
            assert 1.6 <= ratio <= 2.4

    def test_zero_density_segment_is_skipped(self):
        c = Control(
            t_final=2.0,
            jumps={},
            density_breaks=(0.0, 1.0, 2.0),
            density_values=(1.0, 0.0),
        )
        field = linear_scalar_field()
        traj = solve_code(field, c, np.array([1.0]), np.array([1.0]), 64)
        # the state is frozen while the control is flat
        assert traj.final_state[0] == pytest.approx(traj.state_at(1.0)[0])

    def test_nonfinite_state_sets_aborted(self):
        blow_up = VectorFieldSpec(
            dim_state=1,
            dim_theta=1,
            evaluate=lambda th, t, x: np.exp(np.minimum(x, 700.0)) * 1e300,
        )
        with np.errstate(over="ignore"):
            traj = solve_code(blow_up, UNIT_DENSITY, np.array([1.0]), np.array([1.0]), 16)
        assert traj.aborted
        # the path is cut at the first non-finite state
        assert not np.isfinite(traj.final_state).all()
        assert np.isfinite(traj.states[:-1]).all()
        assert len(traj.times) < 17

    def test_state_at_is_right_continuous_across_jumps(self):
        arch = ArchitectureSpec(widths=(1, 1), activations=())
        field, control = dnn_as_code(arch)
        params = init_params(arch, b_omega=1.0, seed=0)
        theta = flatten_params(params)
        x0 = embed_input(arch, np.array([0.7]))
        traj = solve_code(field, control, theta, x0, n_substeps=8)
        t_jump = 1.0
        post = traj.state_at(t_jump)
        w, b = params.layers[0]
        assert post[0] == pytest.approx(float(w[0, 0] * 0.7 + b[0]), rel=1e-12)


# a jump, several density pieces, a zero-density segment, and a second
# control whose jump coincides with one of the first
MIXED = Control(
    t_final=2.0,
    jumps=((0.5, 0.7), (1.25, -0.4), (2.0, 0.3)),
    density_breaks=(0.0, 0.5, 1.0, 1.5, 2.0),
    density_values=(1.0, -0.5, 0.0, 2.0),
)
SECOND = Control(
    t_final=2.0,
    jumps=((1.25, 0.5),),
    density_breaks=(0.0, 0.8, 2.0),
    density_values=(0.3, 0.0),
)


class TestBatchedEngine:
    """Each row of a batched solve equals its own single-point solve, bit for bit."""

    def test_batch_equals_single_point_loop(self, rng):
        fields = [random_smooth_field(rng, 2, 3), random_smooth_field(rng, 2, 3)]
        thetas = rng.normal(size=(7, 3))
        xs = rng.normal(size=(7, 2))
        finals = solve_code_batch(fields, [MIXED, SECOND], thetas, xs, 5)
        assert finals.shape == (7, 2)
        for theta, x, final in zip(thetas, xs, finals):
            traj = solve_code(fields, [MIXED, SECOND], theta, x, 5)
            np.testing.assert_array_equal(final, traj.final_state)
            assert not traj.aborted

    def test_overflowing_row_freezes_and_spares_the_others(self):
        field = linear_scalar_field()
        thetas = np.array([[0.5], [1e200], [-0.3], [-1e200], [0.9]])
        xs = np.ones((5, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            finals = solve_code_batch(field, MIXED, thetas, xs, 16)
            trajs = [solve_code(field, MIXED, th, x, 16) for th, x in zip(thetas, xs)]
        assert [t.aborted for t in trajs] == [False, True, False, True, False]
        for final, traj in zip(finals, trajs):
            # an overflowing row stops at its first non-finite state
            np.testing.assert_array_equal(final, traj.final_state)
            assert np.isfinite(traj.states[:-1]).all()
        assert not np.isfinite(finals[[1, 3]]).any()
        calm = [0, 2, 4]
        np.testing.assert_array_equal(
            finals[calm], solve_code_batch(field, MIXED, thetas[calm], xs[calm], 16)
        )

    @pytest.mark.parametrize("order", [1, 2])
    def test_smooth_field_variations(self, rng, order):
        fields = [random_smooth_field(rng, 3, 2), random_smooth_field(rng, 3, 2)]
        solve = solve_first_variation if order == 1 else solve_second_variation
        thetas = rng.normal(size=(6, 2)) * 0.5
        xs = rng.normal(size=(6, 3))
        finals, _ = _integrate(fields, [MIXED, SECOND], thetas, xs, 4, order)
        for k in range(6):
            traj = solve(fields, [MIXED, SECOND], thetas[k], xs[k], 4)
            np.testing.assert_array_equal(finals[0][k], traj.final_state)
            np.testing.assert_array_equal(finals[1][k], traj.final_first_variation)
            if order == 2:
                np.testing.assert_array_equal(finals[2][k], traj.final_second_variation)

    def test_dnn_first_variation(self, rng):
        arch = ArchitectureSpec(widths=(3, 4, 2, 2), activations=(tanh(), sigmoid()))
        field, control = dnn_as_code(arch)
        thetas = np.stack([
            flatten_params(init_params(arch, b_omega=1.0, seed=s)) for s in range(5)
        ])
        xs = np.stack([embed_input(arch, rng.normal(size=3)) for _ in range(5)])
        (final_x, final_d), frozen = _integrate([field], [control], thetas, xs, 2, 1)
        assert not frozen.any()
        for k in range(5):
            traj = solve_first_variation(field, control, thetas[k], xs[k], 2)
            np.testing.assert_array_equal(final_x[k], traj.final_state)
            np.testing.assert_array_equal(final_d[k], traj.final_first_variation)


class TestVariationEquations:
    def test_first_variation_matches_exponential(self):
        # X_T(theta) = e^theta, so the theta derivative is also e^theta
        field = linear_scalar_field()
        for th in (0.0, 0.5):
            traj = solve_first_variation(
                field, UNIT_DENSITY, np.array([th]), np.array([1.0]), 10_000
            )
            assert traj.final_first_variation[0, 0] == pytest.approx(
                math.exp(th), rel=1e-3
            )

    def test_second_variation_matches_exponential(self):
        field = linear_scalar_field()
        traj = solve_second_variation(
            field, UNIT_DENSITY, np.array([0.0]), np.array([1.0]), 10_000
        )
        assert traj.final_second_variation[0, 0, 0] == pytest.approx(1.0, rel=1e-3)

    def test_first_variation_against_same_grid_differences(self, rng):
        field = random_smooth_field(rng, dim_state=2, dim_theta=3)
        theta = rng.normal(size=3) * 0.5
        x0 = rng.normal(size=2)
        n = 200
        traj = solve_first_variation(field, UNIT_DENSITY, theta, x0, n)
        h = 1e-6
        fd = np.zeros((2, 3))
        for p in range(3):
            e = np.zeros(3)
            e[p] = h
            plus = solve_code(field, UNIT_DENSITY, theta + e, x0, n).final_state
            minus = solve_code(field, UNIT_DENSITY, theta - e, x0, n).final_state
            fd[:, p] = (plus - minus) / (2 * h)
        np.testing.assert_allclose(traj.final_first_variation, fd, rtol=1e-4, atol=1e-8)

    def test_second_variation_against_same_grid_differences(self, rng):
        field = random_smooth_field(rng, dim_state=2, dim_theta=2)
        theta = rng.normal(size=2) * 0.3
        x0 = rng.normal(size=2) * 0.5
        n = 100
        traj = solve_second_variation(field, UNIT_DENSITY, theta, x0, n)
        h = 1e-4
        fd = np.zeros((2, 2, 2))
        for p in range(2):
            for q in range(2):
                ep, eq = np.zeros(2), np.zeros(2)
                ep[p], eq[q] = h, h
                pp = solve_code(field, UNIT_DENSITY, theta + ep + eq, x0, n).final_state
                pm = solve_code(field, UNIT_DENSITY, theta + ep - eq, x0, n).final_state
                mp = solve_code(field, UNIT_DENSITY, theta - ep + eq, x0, n).final_state
                mm = solve_code(field, UNIT_DENSITY, theta - ep - eq, x0, n).final_state
                fd[:, p, q] = (pp - pm - mp + mm) / (4 * h * h)
        np.testing.assert_allclose(
            traj.final_second_variation, fd, rtol=1e-3, atol=1e-6
        )

    def test_second_variation_is_symmetric(self, rng):
        field = random_smooth_field(rng, dim_state=2, dim_theta=3)
        traj = solve_second_variation(
            field, UNIT_DENSITY, rng.normal(size=3) * 0.4, rng.normal(size=2), 100
        )
        dd = traj.final_second_variation
        np.testing.assert_allclose(dd, np.swapaxes(dd, 1, 2), atol=1e-12)


class TestDnnEmbedding:
    def test_jump_chain_reproduces_forward_pass(self, rng):
        for _ in range(5):
            arch = random_architecture(rng, max_width=4, max_hidden=3)
            params = init_params(arch, b_omega=1.0, seed=int(rng.integers(10_000)))
            x = rng.normal(size=arch.widths[0])
            field, control = dnn_as_code(arch)
            traj = solve_code(
                field, control, flatten_params(params), embed_input(arch, x), 4
            )
            out = forward(params, arch, x).output
            np.testing.assert_allclose(
                traj.final_state[: arch.widths[-1]], out, rtol=1e-12, atol=1e-14
            )
            # padding lanes stay identically zero
            np.testing.assert_array_equal(traj.final_state[arch.widths[-1]:], 0.0)

    def test_first_variation_reproduces_parameter_jacobian(self, rng):
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(sigmoid(),))
        params = init_params(arch, b_omega=1.0, seed=2)
        x = np.array([0.6, -0.4])
        field, control = dnn_as_code(arch)
        traj = solve_first_variation(
            field, control, flatten_params(params), embed_input(arch, x), 2
        )
        jac = param_jacobian(params, arch, x)
        np.testing.assert_allclose(
            traj.final_first_variation[: arch.widths[-1]], jac, atol=1e-13
        )


class TestGrowthCertificates:
    def test_linear_field_constants(self):
        # theta x with unit variation from ||x|| = 1: growth e, state bound
        # 2e, parameter sensitivity (1 + 2e) e
        env = FieldEnvelopes(
            b_v=1.0, b_theta=1.0, b_theta_theta=0.0, b_x_theta=1.0,
            b_theta_x=1.0, b_x_x=0.0, lip_x=1.0, p_theta=1.0,
        )
        cert = code_certificate(env, b_upsilon=1.0, x_norm=1.0)
        assert cert.b_x == pytest.approx(2.0 * math.e, rel=1e-13)
        assert cert.l_x == pytest.approx((1.0 + 2.0 * math.e) * math.e, rel=1e-12)
        assert cert.b_dx == cert.l_x

    def test_zero_field_keeps_initial_norm(self):
        env = FieldEnvelopes(
            b_v=0.0, b_theta=0.0, b_theta_theta=0.0, b_x_theta=0.0,
            b_theta_x=0.0, b_x_x=0.0, lip_x=0.0,
        )
        cert = code_certificate(env, b_upsilon=2.0, x_norm=1.5)
        assert cert.b_x == pytest.approx(1.5)
        assert cert.l_x == 0.0
        assert cert.l_dx == 0.0

    def test_sampled_sensitivities_stay_below_certificate(self):
        field = linear_scalar_field()
        env = FieldEnvelopes(
            b_v=1.0, b_theta=1.0, b_theta_theta=0.0, b_x_theta=1.0,
            b_theta_x=1.0, b_x_x=0.0, lip_x=1.0, p_theta=1.0,
        )
        cert = code_certificate(env, b_upsilon=1.0, x_norm=1.0)
        rng = np.random.default_rng(17)
        thetas = rng.uniform(-1.0, 1.0, size=200)
        finals = np.array([
            solve_code(field, UNIT_DENSITY, np.array([t]), np.array([1.0]), 64).final_state[0]
            for t in thetas
        ])
        assert float(np.max(np.abs(finals))) <= cert.b_x
        order = np.argsort(thetas)
        quotients = np.abs(np.diff(finals[order])) / np.diff(thetas[order])
        assert float(np.max(quotients)) <= cert.l_x

    def test_loss_chain_with_explicit_norms(self):
        env = FieldEnvelopes(
            b_v=1.0, b_theta=1.0, b_theta_theta=0.0, b_x_theta=1.0,
            b_theta_x=1.0, b_x_x=0.0, lip_x=1.0, p_theta=1.0,
        )
        cert = code_certificate(env, b_upsilon=1.0, x_norm=1.0)
        loss = LossEnvelope(g_p_max=1.0, g_pp_max=0.0, lip_g=1.0, lip_dg=0.0)
        full = code_loss_certificate(cert, loss, sample_norms=[1.0])
        assert full.l_phi == pytest.approx(cert.l_x, rel=1e-12)

    def test_moment_route_agrees_on_degenerate_moments(self):
        env = FieldEnvelopes(
            b_v=0.5, b_theta=1.0, b_theta_theta=0.5, b_x_theta=1.0,
            b_theta_x=1.0, b_x_x=0.25, lip_x=1.0,
            p_theta=1, p_theta_theta=1, p_x_theta=1, p_theta_x=1, p_x_x=1,
        )
        cert = code_certificate(env, b_upsilon=1.0, x_norm=1.0)
        loss = LossEnvelope(1.0, 1.0, lip_g=1.0, lip_dg=1.0)
        s = 1.2
        order = 3  # p_x_x + 2 p_theta: the highest norm power the constants integrate
        moments = {k: s**k for k in range(1, order + 1)}
        by_samples = code_loss_certificate(cert, loss, sample_norms=[s])
        by_moments = code_loss_certificate(cert, loss, moments=moments)
        assert by_moments.l_phi == pytest.approx(by_samples.l_phi, rel=1e-9)
        assert by_moments.l_grad_phi == pytest.approx(by_samples.l_grad_phi, rel=1e-9)

    def test_moment_route_equals_sample_norms_on_empirical_moments(self):
        # the moment route sums one moment term per subset of the (1 + B_X^p)
        # factors of each constant; a subset dropped or counted twice moves
        # the mean far beyond rounding
        rng = np.random.default_rng(11)
        for _ in range(200):
            env = FieldEnvelopes(
                *rng.uniform(0.0, 2.0, size=6).tolist(),
                rng.uniform(0.0, 1.0),
                *rng.integers(0, 3, size=5).astype(float).tolist(),
            )
            cert = code_certificate(env, b_upsilon=rng.uniform(0.0, 1.5), x_norm=1.0)
            loss = LossEnvelope(1.0, 1.0, lip_g=rng.uniform(0.1, 2.0), lip_dg=rng.uniform(0.1, 2.0))
            norms = rng.uniform(0.0, 2.0, size=rng.integers(1, 4)).tolist()
            # the highest norm power the constants integrate
            order = int(max(
                1, env.p_theta_theta, env.p_x_theta + env.p_theta, env.p_theta_x + env.p_theta,
                env.p_x_x + 2 * env.p_theta,
            ))
            moments = {k: math.fsum(s**k for s in norms) / len(norms) for k in range(1, order + 1)}
            by_samples = code_loss_certificate(cert, loss, sample_norms=norms)
            by_moments = code_loss_certificate(cert, loss, moments=moments)
            assert by_moments.l_phi == pytest.approx(by_samples.l_phi, rel=1e-12, abs=0.0)
            assert by_moments.l_grad_phi == pytest.approx(by_samples.l_grad_phi, rel=1e-12, abs=0.0)

    def test_moment_route_rejects_fractional_powers(self):
        env = FieldEnvelopes(
            b_v=1.0, b_theta=1.0, b_theta_theta=0.0, b_x_theta=0.0,
            b_theta_x=0.0, b_x_x=0.0, lip_x=0.0, p_theta=0.5,
        )
        cert = code_certificate(env, b_upsilon=1.0, x_norm=1.0)
        with pytest.raises(ValueError):
            code_loss_certificate(cert, LossEnvelope(1.0, 1.0), moments={1: 1.0, 2: 1.0})


class TestEnvelopeVerifier:
    def _boxes(self, dim_theta, dim_state, r):
        return (
            (-r * np.ones(dim_theta), r * np.ones(dim_theta)),
            (-r * np.ones(dim_state), r * np.ones(dim_state)),
        )

    def test_correct_envelopes_pass(self):
        field = linear_scalar_field()
        env = FieldEnvelopes(
            b_v=1.0, b_theta=1.0, b_theta_theta=0.0, b_x_theta=1.0,
            b_theta_x=1.0, b_x_x=0.0, lip_x=1.0, p_theta=1.0,
        )
        tb, xb = self._boxes(1, 1, 1.0)
        out = verify_envelopes(field, env, tb, xb, [0.0, 0.5, 1.0], 200, seed=0)
        assert out == []

    def test_understated_bound_is_caught(self):
        field = linear_scalar_field()
        env = FieldEnvelopes(
            b_v=0.1, b_theta=1.0, b_theta_theta=0.0, b_x_theta=1.0,
            b_theta_x=1.0, b_x_x=0.0, lip_x=1.0, p_theta=1.0,
        )
        tb, xb = self._boxes(1, 1, 1.0)
        out = verify_envelopes(field, env, tb, xb, [0.0, 1.0], 200, seed=0)
        assert out and any("b_v" in msg for msg in out)


def _reference_verify_envelopes(fields, envelopes, theta_box, x_box, t_points, n_samples, seed):
    """The one-sample-at-a-time envelope check, kept as the oracle of the batched one."""
    fl = [fields] if isinstance(fields, VectorFieldSpec) else list(fields)
    rng = np.random.default_rng(seed)
    t_lo, t_hi = (np.asarray(v, dtype=float) for v in theta_box)
    x_lo, x_hi = (np.asarray(v, dtype=float) for v in x_box)
    e = envelopes
    out = []

    def check(tag, val, bound, where):
        if val > bound * (1.0 + 1e-12):
            out.append(f"{tag}: {val:.6g} > {bound:.6g} at {where}")

    for k in range(n_samples):
        theta = t_lo + (t_hi - t_lo) * rng.random(t_lo.shape)
        xv = x_lo + (x_hi - x_lo) * rng.random(x_lo.shape)
        t = float(rng.choice(np.asarray(t_points, dtype=float)))
        nx = float(np.linalg.norm(xv))
        where = f"sample {k} (t={t:.3g})"
        th1, x1 = theta[None], xv[None]
        for i, f in enumerate(fl):
            v = f.evaluate(th1, t, x1)[0]
            check(f"field {i} b_v", float(np.linalg.norm(v)), e.b_v * (1 + nx), where)
            if f.jacobian_theta is not None:
                jt = f.jacobian_theta(th1, t, x1)[0]
                check(
                    f"field {i} b_theta",
                    float(np.linalg.norm(jt)),
                    e.b_theta * (1 + nx**e.p_theta),
                    where,
                )
            if f.jacobian_x is not None:
                jx = f.jacobian_x(th1, t, x1)[0]
                check(f"field {i} lip_x", float(np.linalg.norm(jx, 2)), e.lip_x, where)
            for name, call, bnd, pw in (
                ("b_theta_theta", f.d2_theta_theta, e.b_theta_theta, e.p_theta_theta),
                ("b_x_theta", f.d2_x_theta, e.b_x_theta, e.p_x_theta),
                ("b_theta_x", f.d2_theta_x, e.b_theta_x, e.p_theta_x),
                ("b_x_x", f.d2_x_x, e.b_x_x, e.p_x_x),
            ):
                if call is not None:
                    tens = call(th1, t, x1)[0]
                    check(
                        f"field {i} {name}",
                        float(np.linalg.norm(tens.ravel())),
                        bnd * (1 + nx**pw),
                        where,
                    )
    return out


def _random_envelopes(rng, scale):
    bounds = ("b_v", "b_theta", "b_theta_theta", "b_x_theta", "b_theta_x", "b_x_x", "lip_x")
    powers = ("p_theta", "p_theta_theta", "p_x_theta", "p_theta_x", "p_x_x")
    return FieldEnvelopes(
        **{k: float(rng.uniform(0.0, scale)) for k in bounds},
        **{k: float(rng.choice([0.0, 0.5, 1.0, 2.0])) for k in powers},
    )


class TestBatchedEnvelopeCheck:
    """verify_envelopes returns the oracle's records, string for string, in its order."""

    @pytest.mark.parametrize("case", range(12))
    def test_random_smooth_fields_match_the_oracle(self, case):
        rng = np.random.default_rng(case)
        dim_state, dim_theta = case % 3 + 1, case % 4 + 1
        fields = [random_smooth_field(rng, dim_state, dim_theta) for _ in range(case % 2 + 1)]
        # small envelopes understate the fields, so most samples break several
        env = _random_envelopes(rng, 0.5 if case % 2 else 3.0)
        r = float(rng.uniform(0.5, 3.0))
        boxes = (
            (-r * np.ones(dim_theta), r * np.ones(dim_theta)),
            (-2.0 * np.ones(dim_state), 2.0 * np.ones(dim_state)),
        )
        t_points = [0.0, 0.5, 1.0, 0.5][: case % 4 + 1]
        args = (fields if len(fields) > 1 else fields[0], env, *boxes, t_points, 150, case)
        expected = _reference_verify_envelopes(*args)
        assert verify_envelopes(*args) == expected
        if case % 2:
            assert len(expected) > 150

    @pytest.mark.parametrize("box", [(-1e12, 1e12), (1e12, 2e12), (-1e13, 1e13), (1e13, 2e13)])
    def test_large_linear_scalar_boxes_match_the_oracle(self, box):
        field = linear_scalar_field()
        lo, hi = box
        boxes = ((np.array([lo]), np.array([hi])), (np.array([-1.5]), np.array([1.5])))
        args = (field, field.envelopes, *boxes, [0.0, 0.5, 1.0], 200, 5)
        expected = _reference_verify_envelopes(*args)
        assert len(expected) >= 200
        assert verify_envelopes(*args) == expected

    def test_time_point_draw_matches_choice(self):
        # the check draws a time point's index with rng.integers; that is the
        # same stream as rng.choice over the points
        for seed in range(50):
            for n_points in (1, 2, 3, 5):
                tp = np.linspace(0.0, 1.0, n_points)
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(50):
                    assert tp[a.integers(len(tp))] == b.choice(tp)
                assert a.random() == b.random()
