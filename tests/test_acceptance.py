"""Acceptance gate: the properties this package promises, at fixed tolerances.

Each test covers one promised behavior end to end and prints a single
PASS/FAIL line (visible with -s or on failure) naming the property.
"""

import json
import math

import numpy as np

from lipcert import (
    ArchitectureSpec,
    BoundInputs,
    NetworkObjective,
    Sample,
    SquaredError,
    chain_output,
    cli,
    closed_form_bounds,
    derive_adagrad_params,
    directed_affine_pair,
    dnn_as_code,
    embed_input,
    empirical_grad_lipschitz,
    empirical_lipschitz,
    finite_diff_gradient,
    flatten_params,
    forward,
    grad_params,
    init_params,
    linear_scalar_field,
    loss_certificate,
    loss_head_envelopes,
    network_certificate,
    network_jacobian_map,
    network_output_map,
    random_smooth_field,
    refine_over_layer_budgets,
    run_adagrad_norm,
    run_gd,
    sample_in_ball,
    solve_code,
    solve_first_variation,
    solve_second_variation,
    tanh,
    unflatten_params,
    worst_case_construction,
)
from lipcert.bounds import RefinementSearch
from lipcert.code_net import Control
from lipcert.network import dataset_norms

from conftest import random_architecture


def report(label, ok):
    print(("PASS" if ok else "FAIL") + f": {label}")
    assert ok, label


def unit_input(rng, dim, s):
    if s == 0.0:
        return np.zeros(dim)
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v) * s


def test_soundness_sweep_network_and_jacobian():
    """50 random configs, 1e4 parameter pairs each: sampled difference
    quotients of the network and of its parameter Jacobian never exceed
    the certified constants."""
    rng = np.random.default_rng(20240)
    b_grid = [0.5, 1.0, 2.0]
    s_grid = [0.0, 1.0, 3.0]
    violations = []
    for i in range(50):
        arch = random_architecture(rng, max_width=8, max_hidden=4)
        b = b_grid[i % 3]
        s = s_grid[(i // 3) % 3]
        x = unit_input(rng, arch.widths[0], s)
        cert = network_certificate(arch, BoundInputs(b_omega=b), s)
        est_n = empirical_lipschitz(
            network_output_map(arch, x), arch.n_params, b, 10_000, seed=1000 + i
        )
        est_j = empirical_grad_lipschitz(
            network_jacobian_map(arch, x), arch.n_params, b, 10_000, seed=2000 + i
        )
        if est_n.max_ratio > cert.l_n:
            violations.append((i, "l_n", est_n.max_ratio, cert.l_n))
        if est_j.max_ratio > cert.l_grad_n:
            violations.append((i, "l_grad_n", est_j.max_ratio, cert.l_grad_n))
    report(
        f"soundness sweep, 50 configs x 2 constants x 1e4 pairs, "
        f"{len(violations)} violations",
        not violations,
    )


def test_backprop_matches_central_differences():
    """100 random (architecture, parameters, sample) triples: hand-rolled
    reverse mode vs central differences at h = 1e-5, rel error <= 1e-6."""
    rng = np.random.default_rng(7)
    worst = 0.0
    head = SquaredError()
    for _ in range(100):
        arch = random_architecture(rng, max_width=5, max_hidden=3)
        theta = rng.normal(size=arch.n_params) * 0.5
        params = unflatten_params(arch, theta)
        sample = Sample(
            rng.normal(size=arch.widths[0]), rng.normal(size=arch.widths[-1])
        )
        g = grad_params(params, arch, sample, head)

        def phi(t):
            p = unflatten_params(arch, t)
            return head.value(forward(p, arch, sample.x).output, sample.y)

        fd = finite_diff_gradient(phi, theta, h=1e-5)
        denom = max(float(np.linalg.norm(g)), 1e-12)
        worst = max(worst, float(np.linalg.norm(fd - g)) / denom)
    report(f"backprop vs central FD, worst rel error {worst:.3e} <= 1e-6", worst <= 1e-6)


def test_affine_certificate_is_tight():
    """Depth-zero networks are affine in the parameters; the aligned pair
    realizes at least 0.99 of the certified constant for S in {0, 1, 3}."""
    ok = True
    detail = []
    for s in (0.0, 1.0, 3.0):
        arch = ArchitectureSpec(widths=(2, 1), activations=())
        x = np.array([s, 0.0])
        cert = network_certificate(arch, BoundInputs(b_omega=1.0), s)
        lo, hi = directed_affine_pair(arch, x, 1.0)
        f = network_output_map(arch, x)
        quot = float(np.linalg.norm(f(hi[None])[0] - f(lo[None])[0])) / float(
            np.linalg.norm(hi - lo)
        )
        detail.append(quot / cert.l_n)
        ok = ok and quot >= 0.99 * cert.l_n
    report(f"affine directed estimate / certificate = {min(detail):.12f} >= 0.99", ok)


def test_deep_chain_lower_bound():
    """Saturating chains of depth m realize the quotient
    c^m (B / sqrt(m-1))^(m-1) exactly, and it stays below the certificate."""
    worst_rel = 0.0
    ok = True
    for m in (2, 3, 4):
        pair = worst_case_construction(m, c=1.0, r_sat=10.0, b_omega=1.0)
        num = abs(
            chain_output(pair.theta, pair.activation)
            - chain_output(pair.theta_tilde, pair.activation)
        )
        den = float(
            np.linalg.norm(
                flatten_params(pair.theta) - flatten_params(pair.theta_tilde)
            )
        )
        realized = num / den
        rel = abs(realized - pair.exact_ratio) / pair.exact_ratio
        worst_rel = max(worst_rel, rel)
        arch = ArchitectureSpec(
            widths=(1,) * (m + 2), activations=(pair.activation,) * m
        )
        cert = network_certificate(arch, BoundInputs(b_omega=1.0), 0.0)
        ok = ok and rel <= 1e-9 and pair.exact_ratio <= cert.l_n
    report(f"worst-case chain ratio reproduced, worst rel {worst_rel:.3e} <= 1e-9", ok)


def test_closed_form_dominates_and_refinement_helps():
    """Closed-form constants dominate the recursion per layer on 100 configs;
    a budget-refined certificate never exceeds the uniform one on 20."""
    rng = np.random.default_rng(55)
    dom_ok = True
    for _ in range(100):
        arch = random_architecture(rng, min_hidden=1)
        b = float(rng.choice([0.5, 1.0, 2.0]))
        s = float(rng.choice([0.0, 1.0, 3.0]))
        inputs = BoundInputs(b_omega=b)
        cf = closed_form_bounds(arch, inputs, s)
        nb = network_certificate(arch, inputs, s)
        for u in range(arch.m):
            rec = nb.per_layer[u]
            if cf.l_n_sq[u] < rec.l_n**2 * (1 - 1e-12):
                dom_ok = False
            if cf.l_grad_n_sq[u] < rec.l_grad_n**2 * (1 - 1e-12):
                dom_ok = False
    ref_ok = True
    from lipcert.bounds import LossEnvelope

    search = RefinementSearch(restarts=1, iters=25)
    for _ in range(20):
        arch = random_architecture(rng, max_width=5, max_hidden=3, min_hidden=1)
        inputs = BoundInputs(b_omega=float(rng.choice([0.5, 1.0, 2.0])))
        loss = LossEnvelope(1.0, 1.0)
        norms = [float(rng.choice([0.5, 1.0, 2.0]))]
        ref = refine_over_layer_budgets(arch, inputs, loss, norms, search)
        uni = loss_certificate(arch, inputs, loss, norms)
        if ref.l_grad_phi > uni.l_grad_phi * (1 + 1e-12):
            ref_ok = False
        if ref.l_phi > uni.l_phi * (1 + 1e-12):
            ref_ok = False
    report("closed form >= recursion on 100 configs", dom_ok)
    report("refined <= uniform certificate on 20 configs", ref_ok)


def _tanh_231_problem(seed=0):
    arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
    rng = np.random.default_rng(seed)
    samples = [
        Sample(sample_in_ball(rng, 2, 1.0), sample_in_ball(rng, 1, 1.0))
        for _ in range(8)
    ]
    head = SquaredError()
    b_omega = 1.0
    hidden_b = network_certificate(arch, BoundInputs(b_omega=b_omega), 1.0).last_hidden.b_n
    out_bound = b_omega * math.sqrt(hidden_b**2 + 1.0)
    env = loss_head_envelopes(head, dim=1, output_bound=out_bound, target_bound=1.0)
    cert = loss_certificate(
        arch, BoundInputs(b_omega=b_omega), env, dataset_norms=list(dataset_norms(samples))
    )
    objective = NetworkObjective(arch, samples, head)
    theta0 = flatten_params(init_params(arch, b_omega, seed=seed + 1))
    return objective, theta0, cert


def test_certified_step_descent():
    """Gradient descent at h = 1 / l_grad_phi on the tanh (2,3,1) problem,
    8 samples, 200 steps: the sufficient-decrease inequality holds at every
    unprojected step."""
    objective, theta0, cert = _tanh_231_problem()
    trace = run_gd(objective, theta0, cert.l_grad_phi, steps=200, b_omega=1.0)
    report(
        f"descent inequality, 200 certified steps, "
        f"{trace.n_descent_violations} violations",
        trace.n_descent_violations == 0 and not trace.aborted,
    )


def test_adagrad_schedule_from_certificate():
    """Derived (alpha, beta) satisfy the stability inequality; step sizes are
    positive nonincreasing; the running min gradient norm strictly drops
    over 2000 steps on 5 seeds."""
    objective, theta0, cert = _tanh_231_problem(seed=3)
    alpha, beta = derive_adagrad_params(cert, eps_margin=1.0)
    ineq = 2.0 * alpha * cert.l_grad_phi < math.sqrt(beta)
    ok = ineq
    for seed in range(5):
        trace = run_adagrad_norm(
            objective, theta0, alpha, beta, eps_exponent=0.0,
            batch_size=4, steps=2000, seed=seed, b_omega=1.0,
            l_grad_phi=cert.l_grad_phi,
        )
        sizes = [s.step_size for s in trace.steps]
        ok = ok and all(h > 0 for h in sizes)
        ok = ok and all(b <= a + 1e-18 for a, b in zip(sizes, sizes[1:]))
        curve = trace.min_grad_curve()
        ok = ok and curve[-1] < curve[0]
    report("adagrad-norm schedule certified and contracting on 5 seeds", ok)


def test_jump_chain_equals_forward_pass():
    """Embedding a dense net as a pure-jump controlled system reproduces the
    forward pass to rel error <= 1e-12 on 20 random nets."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        arch = random_architecture(rng, max_width=6, max_hidden=4)
        params = init_params(arch, b_omega=2.0, seed=int(rng.integers(100_000)))
        x = rng.normal(size=arch.widths[0])
        field, control = dnn_as_code(arch)
        traj = solve_code(
            field, control, flatten_params(params), embed_input(arch, x), 4
        )
        out = forward(params, arch, x).output
        got = traj.final_state[: arch.widths[-1]]
        denom = max(float(np.linalg.norm(out)), 1e-300)
        rel = float(np.linalg.norm(got - out)) / denom
        worst = max(worst, rel)
    report(f"jump-chain equivalence, worst rel {worst:.3e} <= 1e-12", worst <= 1e-12)


def test_euler_first_order():
    """Left-point Euler on dX = X du, u(t) = t: |X_1 - e| <= 3e/n and the
    error halves (within 20%) as n doubles."""
    field = linear_scalar_field()
    control = Control.constant_density(1.0, t_final=1.0)

    def err(n):
        traj = solve_code(field, control, np.array([1.0]), np.array([1.0]), n)
        return abs(traj.final_state[0] - math.e)

    bound_ok = all(err(n) <= 3.0 * math.e / n for n in (8, 16, 32, 64, 128, 256, 512))
    ratios = [err(n) / err(2 * n) for n in (32, 64, 128, 256)]
    halve_ok = all(1.6 <= r <= 2.4 for r in ratios)
    report(
        f"euler error bound and halving ratios {['%.3f' % r for r in ratios]}",
        bound_ok and halve_ok,
    )


def test_variation_solves_match_lower_level():
    """First variation vs differences of the state solve (rel <= 1e-4) and
    second variation vs differences of the first (rel <= 1e-3), on the
    analytic linear field and 10 random smooth fields, same grid."""
    control = Control.constant_density(1.0, t_final=1.0)
    worst1 = 0.0
    worst2 = 0.0

    def check(field, theta, x0, n):
        nonlocal worst1, worst2
        dth = theta.size
        dx = x0.size
        tr1 = solve_first_variation(field, control, theta, x0, n)
        h = 1e-6
        fd1 = np.zeros((dx, dth))
        for p in range(dth):
            e = np.zeros(dth)
            e[p] = h
            plus = solve_code(field, control, theta + e, x0, n).final_state
            minus = solve_code(field, control, theta - e, x0, n).final_state
            fd1[:, p] = (plus - minus) / (2 * h)
        got1 = tr1.final_first_variation
        rel1 = np.linalg.norm(got1 - fd1) / max(np.linalg.norm(fd1), 1e-12)
        worst1 = max(worst1, float(rel1))

        tr2 = solve_second_variation(field, control, theta, x0, n)
        h2 = 1e-5
        fd2 = np.zeros((dx, dth, dth))
        for q in range(dth):
            e = np.zeros(dth)
            e[q] = h2
            plus = solve_first_variation(
                field, control, theta + e, x0, n
            ).final_first_variation
            minus = solve_first_variation(
                field, control, theta - e, x0, n
            ).final_first_variation
            fd2[:, :, q] = (plus - minus) / (2 * h2)
        got2 = tr2.final_second_variation
        rel2 = np.linalg.norm(got2 - fd2) / max(np.linalg.norm(fd2), 1e-12)
        worst2 = max(worst2, float(rel2))

    check(linear_scalar_field(), np.array([0.5]), np.array([1.0]), 400)
    rng = np.random.default_rng(123)
    for _ in range(10):
        ds = int(rng.integers(1, 4))
        dt = int(rng.integers(1, 4))
        field = random_smooth_field(rng, dim_state=ds, dim_theta=dt)
        check(field, rng.normal(size=dt) * 0.5, rng.normal(size=ds) * 0.5, 200)
    report(
        f"variation solves vs lower level, worst rel {worst1:.3e} / {worst2:.3e}",
        worst1 <= 1e-4 and worst2 <= 1e-3,
    )


def test_growth_certificate_soundness():
    """Linear scalar field, parameters in (-1, 1): 1e4 sampled states stay
    below B_X = 2e and all consecutive parameter ratios below
    L_X = (1 + 2e)e. Zero violations."""
    field = linear_scalar_field()
    control = Control.constant_density(1.0, t_final=1.0)
    b_x = 2.0 * math.e
    l_x = (1.0 + 2.0 * math.e) * math.e
    rng = np.random.default_rng(31)
    thetas = np.sort(rng.uniform(-1.0, 1.0, size=10_000))
    finals = np.array(
        [
            solve_code(field, control, np.array([t]), np.array([1.0]), 32).final_state[0]
            for t in thetas
        ]
    )
    state_viol = int(np.sum(np.abs(finals) > b_x))
    gaps = np.diff(thetas)
    keep = gaps > 1e-12
    quot = np.abs(np.diff(finals))[keep] / gaps[keep]
    ratio_viol = int(np.sum(quot > l_x))
    report(
        f"growth certificate over 1e4 samples, {state_viol + ratio_viol} violations "
        f"(max |X_T| {np.max(np.abs(finals)):.4f} <= {b_x:.4f})",
        state_viol == 0 and ratio_viol == 0,
    )


def test_reruns_are_byte_identical(tmp_path):
    """Every command re-run with the same config, seed, and --threads 1
    writes byte-identical files."""
    full = {
        "name": "determinism-check",
        "seed": 11,
        "architecture": {"widths": [2, 3, 1], "activations": ["tanh"]},
        "bounds": {"b_omega": 1.0, "sample_norms": [1.0, 0.5]},
        "loss": {"kind": "squared_error", "target_bound": 1.0},
        "refine": {"restarts": 1, "iters": 20},
        "verify": {"n_pairs": 500, "input_norm": 1.0},
        "train": {
            "algorithm": "gd",
            "steps": 20,
            "synthetic": {"n_samples": 4, "input_norm": 1.0, "target_norm": 1.0, "seed": 3},
        },
    }
    code_cfg = {
        "name": "determinism-code",
        "code": {"envelopes": {}, "b_upsilon": 2.0, "x_norm": 1.5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(full))
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(code_cfg))
    runs = [
        (["certify", "--config", str(cfg_path)], "certify"),
        (["verify", "--config", str(cfg_path)], "verify"),
        (["train", "--config", str(cfg_path)], "train"),
        (["code", "certify", "--config", str(code_path)], "code-certify"),
    ]
    ok = True
    for argv, label in runs:
        a = tmp_path / f"{label}-a"
        b = tmp_path / f"{label}-b"
        assert cli.main(argv + ["--out", str(a), "--threads", "1"]) == 0
        assert cli.main(argv + ["--out", str(b), "--threads", "1"]) == 0
        for fa in sorted(a.iterdir()):
            fb = b / fa.name
            if not fb.exists() or fa.read_bytes() != fb.read_bytes():
                ok = False
    report("byte-identical reruns for certify/verify/train/code certify", ok)
