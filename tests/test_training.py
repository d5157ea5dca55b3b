import math

import numpy as np
import pytest

from lipcert import training
from lipcert import (
    ArchitectureSpec,
    BoundInputs,
    NetworkObjective,
    Sample,
    SquaredError,
    derive_adagrad_params,
    flatten_params,
    init_params,
    loss_certificate,
    loss_head_envelopes,
    network_certificate,
    run_adagrad_norm,
    run_gd,
    sample_in_ball,
    tanh,
)


def tanh_problem(n_samples=8, seed=0, b_omega=1.0):
    arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
    rng = np.random.default_rng(seed)
    samples = [
        Sample(sample_in_ball(rng, 2, 1.0), sample_in_ball(rng, 1, 1.0))
        for _ in range(n_samples)
    ]
    head = SquaredError()
    hidden_b = network_certificate(arch, BoundInputs(b_omega=b_omega), 1.0).last_hidden.b_n
    out_bound = b_omega * math.sqrt(hidden_b**2 + 1.0)
    env = loss_head_envelopes(head, dim=1, output_bound=out_bound, target_bound=1.0)
    norms = [float(np.linalg.norm(s.x)) for s in samples]
    cert = loss_certificate(arch, BoundInputs(b_omega=b_omega), env, dataset_norms=norms)
    objective = NetworkObjective(arch, samples, head)
    theta0 = flatten_params(init_params(arch, b_omega, seed=seed + 1))
    return objective, theta0, cert


class QuadraticObjective:
    """phi(theta) = l/2 ||theta||^2, whose gradient has Lipschitz constant l."""

    n_samples = 1

    def __init__(self, l):
        self.l = l

    def value_and_gradient(self, theta, indices):
        theta = np.asarray(theta, dtype=float)
        return 0.5 * self.l * float(np.dot(theta, theta)), self.l * theta


class StubObjective:
    """Returns the given objective values in turn, with gradient 0.1 theta."""

    n_samples = 1

    def __init__(self, values):
        self.values = iter(values)

    def value_and_gradient(self, theta, indices):
        return next(self.values), 0.1 * np.asarray(theta)


class TestGradientDescent:
    def test_quadratic_converges_in_one_step(self):
        # phi(t) = L/2 t^2 with h = 1/L jumps straight to the minimizer
        obj = QuadraticObjective(l=4.0)
        theta0 = np.array([1.0, -2.0, 0.5])
        trace = run_gd(obj, theta0, l_grad_phi=4.0, steps=3, b_omega=10.0)
        assert trace.steps[1].phi == pytest.approx(0.0, abs=1e-28)
        assert trace.n_descent_violations == 0

    def test_certified_step_never_violates_descent(self):
        objective, theta0, cert = tanh_problem()
        trace = run_gd(objective, theta0, cert.l_grad_phi, steps=200, b_omega=1.0)
        assert trace.n_descent_violations == 0
        assert len(trace.steps) == 200
        assert not trace.aborted

    def test_loss_is_monotone_outside_projections(self):
        objective, theta0, cert = tanh_problem(seed=4)
        trace = run_gd(objective, theta0, cert.l_grad_phi, steps=100, b_omega=1.0)
        phis = [s.phi for s in trace.steps] + [trace.final_phi]
        for a, b, rec in zip(phis, phis[1:], trace.steps):
            if not rec.projected:
                assert b <= a + 1e-15

    def test_projection_bookkeeping(self):
        # a tiny ball forces projection on every step; projected steps are
        # exempt from the descent check rather than counted as violations
        objective, theta0, cert = tanh_problem()
        theta0 = theta0 / np.linalg.norm(theta0) * 0.0999
        trace = run_gd(objective, theta0, cert.l_grad_phi, steps=20, b_omega=0.1)
        assert trace.n_projected > 0
        assert trace.n_descent_violations == 0
        for rec in trace.steps:
            if rec.projected:
                assert rec.descent_ok is None
                assert rec.param_norm <= 0.1 + 1e-12

    def test_unsound_step_is_flagged(self):
        # descending with a constant far below the true smoothness breaks
        # the per-step decrease inequality and must be counted
        objective, theta0, cert = tanh_problem(b_omega=50.0)
        theta0 = theta0 * 0.02 / 0.5
        trace = run_gd(objective, theta0, l_grad_phi=0.3, steps=5, b_omega=50.0)
        assert trace.n_descent_violations > 0

    def test_step_to_a_non_finite_objective_fails_the_descent_check(self):
        # the slack grows with |phi_new|, so phi - inf >= bound - inf would pass
        # a check that did not test finiteness first
        trace = run_gd(StubObjective([1.0, math.inf]), np.ones(2), 1.0, steps=3, b_omega=10.0)
        assert [st.descent_ok for st in trace.steps] == [False]
        assert trace.n_descent_violations == 1
        assert trace.aborted

    @pytest.mark.parametrize("phi0", [math.inf, math.nan])
    def test_non_finite_initial_objective_raises(self, phi0):
        with pytest.raises(ValueError, match="initial iterate"):
            run_gd(StubObjective([phi0]), np.ones(2), 1.0, steps=3, b_omega=10.0)

    def test_rejects_nonpositive_constant(self):
        obj = QuadraticObjective(l=1.0)
        with pytest.raises(ValueError):
            run_gd(obj, np.zeros(1), l_grad_phi=0.0, steps=1, b_omega=1.0)

    def test_one_forward_pass_per_iterate(self, monkeypatch):
        # the value and the gradient at an iterate share one engine pass
        calls = []
        engine = training.batch_forward

        def counted(*args):
            calls.append(1)
            return engine(*args)

        monkeypatch.setattr(training, "batch_forward", counted)
        objective, theta0, cert = tanh_problem()
        run_gd(objective, theta0, cert.l_grad_phi, steps=20, b_omega=1.0)
        assert len(calls) == 21


_SHARED_BAD = [
    {"steps": 0}, {"b_omega": 0.0}, {"b_omega": -1.0}, {"b_omega": math.inf},
    {"shrink": 0.0}, {"shrink": 1.5},
]
_ADAGRAD_BAD = [
    {"alpha": 0.0}, {"alpha": -1.0}, {"beta": 0.0}, {"beta": -1.0},
    {"batch_size": 0}, {"eps_exponent": -0.1},
]


@pytest.mark.parametrize(
    "trainer, bad",
    [("gd", b) for b in _SHARED_BAD] + [("adagrad_norm", b) for b in _SHARED_BAD + _ADAGRAD_BAD],
    ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x}" for k, x in v.items()),
)
def test_trainers_reject_invalid_arguments(trainer, bad):
    obj = QuadraticObjective(l=1.0)
    theta0 = np.array([0.3, -0.2])
    if trainer == "gd":
        run, kw = run_gd, dict(l_grad_phi=1.0, steps=3, b_omega=1.0, shrink=0.999)
    else:
        run, kw = run_adagrad_norm, dict(
            alpha=0.5, beta=2.0, eps_exponent=0.0, batch_size=1, steps=3, seed=0,
            b_omega=1.0, shrink=0.999,
        )
    assert len(run(obj, theta0, **kw).steps) == 3
    with pytest.raises(ValueError):
        run(obj, theta0, **{**kw, **bad})


class TestAdaGradNorm:
    def test_full_batch_steps_nonincreasing(self):
        # with batch size equal to the dataset the sampled gradient is the
        # full gradient for every seed, and the step sizes are nonincreasing
        # because the accumulator only grows
        objective, theta0, cert = tanh_problem(n_samples=6)
        alpha, beta = derive_adagrad_params(cert, eps_margin=1.0)
        trace = run_adagrad_norm(
            objective, theta0, alpha, beta, eps_exponent=0.0,
            batch_size=6, steps=150, seed=2, b_omega=1.0, l_grad_phi=cert.l_grad_phi,
        )
        sizes = [s.step_size for s in trace.steps]
        assert all(b <= a + 1e-18 for a, b in zip(sizes, sizes[1:]))
        assert all(s.step_size > 0.0 for s in trace.steps)

    def test_full_batch_matches_any_seed(self):
        objective, theta0, cert = tanh_problem(n_samples=4)
        alpha, beta = derive_adagrad_params(cert, eps_margin=1.0)
        kw = dict(alpha=alpha, beta=beta, eps_exponent=0.0, batch_size=4,
                  steps=30, b_omega=1.0)
        a = run_adagrad_norm(objective, theta0, seed=1, **kw)
        b = run_adagrad_norm(objective, theta0, seed=99, **kw)
        np.testing.assert_array_equal(a.final_theta, b.final_theta)

    def test_minibatch_runs_are_seed_reproducible(self):
        objective, theta0, cert = tanh_problem(n_samples=8)
        alpha, beta = derive_adagrad_params(cert, eps_margin=1.0)
        kw = dict(alpha=alpha, beta=beta, eps_exponent=0.0, batch_size=2,
                  steps=40, b_omega=1.0)
        a = run_adagrad_norm(objective, theta0, seed=5, **kw)
        b = run_adagrad_norm(objective, theta0, seed=5, **kw)
        np.testing.assert_array_equal(a.final_theta, b.final_theta)
        c = run_adagrad_norm(objective, theta0, seed=6, **kw)
        assert not np.array_equal(a.final_theta, c.final_theta)

    def test_running_min_gradient_decreases(self):
        objective, theta0, cert = tanh_problem(n_samples=8, seed=3)
        alpha, beta = derive_adagrad_params(cert, eps_margin=1.0)
        trace = run_adagrad_norm(
            objective, theta0, alpha, beta, eps_exponent=0.0, batch_size=8,
            steps=2000, seed=0, b_omega=1.0,
        )
        curve = trace.min_grad_curve()
        assert curve[-1] < curve[0]

    def test_hyperparameter_inequality_enforced(self):
        objective, theta0, cert = tanh_problem()
        bad_beta = (2.0 * 0.5 * cert.l_grad_phi) ** 2 * 0.5
        with pytest.raises(ValueError):
            run_adagrad_norm(
                objective, theta0, alpha=0.5, beta=bad_beta, eps_exponent=0.0,
                batch_size=8, steps=5, seed=0, b_omega=1.0,
                l_grad_phi=cert.l_grad_phi,
            )
