import hashlib
import math

import numpy as np
import pytest

from lipcert import (
    ArchitectureSpec,
    BoundInputs,
    NetworkObjective,
    PairSample,
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
    smoothed_relu,
    tanh,
    unflatten_params,
    worst_case_construction,
)

from lipcert import empirical
from lipcert.empirical import PAIR_BLOCK, _draw_blocks, _row_distances, _scale_rows

from conftest import loop_backward, loop_forward, random_architecture


def recorded_run(f, dim, n_pairs, seed, b_omega=1.0, calls=None, **kwargs):
    """empirical_lipschitz with a map that keeps its rows: (estimate, first points, second points).

    The map is called on a chunk of first points, then on the same chunk of
    second points; a given calls list receives every chunk.
    """
    calls = [] if calls is None else calls

    def recording(thetas):
        calls.append(np.array(thetas))
        return f(thetas)

    est = empirical_lipschitz(recording, dim, b_omega, n_pairs, seed, **kwargs)
    return est, np.concatenate(calls[0::2]), np.concatenate(calls[1::2])


def assert_same_estimate(est, ref):
    """Every field equal, the worst pair's bits included."""
    assert (est.max_ratio, est.argmax_index, est.n_pairs, est.seed, est.n_degenerate) == (
        ref.max_ratio, ref.argmax_index, ref.n_pairs, ref.seed, ref.n_degenerate
    )
    for u, v in zip(est.argmax_pair, ref.argmax_pair):
        assert u.tobytes() == v.tobytes()


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

    def test_chunking_does_not_change_result(self, monkeypatch):
        # 600 pairs is not a whole number of blocks; passes of 1, 2 and 3
        # blocks end at other block boundaries than the 4-block default.
        # Map chunks of 2 and 3 rows of 13 parameters cut the passes of 256,
        # 512, 600 and 88 rows, and a pass of 256 or 88 rows in 3-row chunks
        # ends in a lone row, which joins the chunk before it
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
        x = np.array([0.5, -0.5])
        row = 8 * arch.n_params
        for f in (network_output_map(arch, x), network_jacobian_map(arch, x)):
            ref, ref_a, ref_b = recorded_run(f, arch.n_params, 600, seed=7)
            for blocks in (1, 2, 3, 4):
                for rows in (None, 2, 3):
                    monkeypatch.setattr(empirical, "_PASS_BLOCKS", blocks)
                    monkeypatch.setattr(empirical, "_CHUNK_BYTES", (rows or 1024) * row)
                    calls = []
                    est, a, b = recorded_run(f, arch.n_params, 600, seed=7, calls=calls)
                    sizes = {len(c) for c in calls}
                    assert min(sizes) >= 2 and max(sizes) <= (rows or 1024) + 1
                    np.testing.assert_array_equal(a, ref_a)
                    np.testing.assert_array_equal(b, ref_b)
                    assert_same_estimate(est, ref)

    def test_prefix_reproducibility(self):
        # the first n pairs of a longer run are exactly the pairs of an
        # n-pair run, so the long run's max dominates the short run's
        arch = ArchitectureSpec(widths=(1, 2, 1), activations=(tanh(),))
        f = network_output_map(arch, np.array([1.0]))
        short, short_a, short_b = recorded_run(f, arch.n_params, 200, seed=3)
        long, long_a, long_b = recorded_run(f, arch.n_params, 400, seed=3)
        assert len(short_a) == 200 and len(long_a) == 400
        np.testing.assert_array_equal(long_a[:200], short_a)
        np.testing.assert_array_equal(long_b[:200], short_b)
        assert long.max_ratio >= short.max_ratio

    def test_worst_pair_replays_from_its_index(self):
        arch = ArchitectureSpec(widths=(2, 3, 1), activations=(tanh(),))
        f = network_output_map(arch, np.array([0.5, -0.5]))
        est = empirical_lipschitz(f, arch.n_params, 0.8, 700, seed=4)
        block, row = divmod(est.argmax_index, PAIR_BLOCK)
        a, b = _draw_blocks(4, block, 1, arch.n_params, 0.8)
        np.testing.assert_array_equal(a[row], est.argmax_pair[0])
        np.testing.assert_array_equal(b[row], est.argmax_pair[1])
        quot = np.linalg.norm(f(b[row : row + 1]) - f(a[row : row + 1])) / np.linalg.norm(
            b[row] - a[row]
        )
        assert quot == pytest.approx(est.max_ratio, rel=1e-12)

    @pytest.mark.parametrize("n_pairs", [1, 250, 1100, 2100])
    def test_shared_sample_gives_the_standalone_estimates(self, n_pairs):
        # 1 and 250 pairs are one pass, 1100 and 2100 pairs are two and
        # three; asked twice, a sample gives its estimate again
        arch = ArchitectureSpec(widths=(3, 4, 2), activations=(tanh(),))
        x = np.array([0.5, -0.5, 1.0])
        maps = [(network_output_map(arch, x), 2), (network_jacobian_map(arch, x), 2 * arch.n_params)]
        args = (arch.n_params, 0.7, n_pairs, 11)
        sample = PairSample(maps, *args)
        for _ in range(2):
            for f, width in maps:
                ref = empirical_lipschitz(f, *args, out_width=width)
                assert_same_estimate(empirical_lipschitz(f, *args, sample=sample), ref)

    def test_shared_sample_of_an_overflowing_net(self):
        # in a ball of radius 1e104 most outputs overflow to inf or nan, whose
        # quotients are skipped, and local steps vanish beside their bases
        arch = ArchitectureSpec(widths=(2, 8, 8, 2), activations=(smoothed_relu(0.5),) * 2)
        x = np.array([1.0, -1.0])
        maps = [(network_output_map(arch, x), 2), (network_jacobian_map(arch, x), 2 * arch.n_params)]
        args = (arch.n_params, 1e104, 1100, 5)
        sample = PairSample(maps, *args)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(maps[0][0](_draw_blocks(5, 0, 1, *args[:2])[0])).all()
            for f, width in maps:
                ref = empirical_lipschitz(f, *args, out_width=width)
                assert_same_estimate(empirical_grad_lipschitz(f, *args, sample=sample), ref)
                assert ref.n_degenerate > 0

    def test_shared_sample_refuses_only_the_map_with_no_quotient(self):
        # a map whose every quotient is NaN has no estimate, alone or shared;
        # the other map of its sample keeps its own
        nowhere = lambda t: np.full((len(t), 1), math.nan)
        double = lambda t: 2.0 * t
        args = (4, 0.7, 300, 2)
        sample = PairSample([(nowhere, 1), (double, 4)], *args)
        for request in (lambda: empirical_lipschitz(nowhere, *args), lambda: sample.estimate(nowhere)):
            with pytest.raises(ValueError, match="every sampled pair was degenerate"):
                request()
        assert_same_estimate(sample.estimate(double), empirical_lipschitz(double, *args))

    @pytest.mark.parametrize("n_pairs", [1, 3, 250, 2000])
    def test_pass_distances_are_measured_once(self, monkeypatch, n_pairs):
        # one distance call per pass on the n_pairs rows that the maps read,
        # so a lone first row is measured as a lone row, whatever the maps
        measured = []
        real = empirical._row_distances

        def spy(u, v):
            if u.shape[1] == 40:  # the pairs, not the 1-wide outputs
                measured.append(len(u))
            return real(u, v)

        monkeypatch.setattr(empirical, "_row_distances", spy)
        maps = [(lambda t: t[:, :1], 1), (lambda t: t[:, 1:2], 1), (lambda t: t[:, :1] + t[:, 1:2], 1)]
        sample = PairSample(maps, 40, 0.7, n_pairs, 11)
        for f, _ in maps:
            sample.estimate(f)
        assert measured == [min(1024, n_pairs - first) for first in range(0, n_pairs, 1024)]

    @pytest.mark.parametrize(
        "made_for", [(6, 0.7, 250, 11), (5, 0.8, 250, 11), (5, 0.7, 251, 11), (5, 0.7, 250, 12)],
        ids=["dim", "b_omega", "n_pairs", "seed"],
    )
    def test_sample_of_other_arguments_is_refused(self, made_for):
        f = lambda t: t
        with pytest.raises(ValueError, match="the pair sample was made for"):
            empirical_grad_lipschitz(f, 5, 0.7, 250, 11, sample=PairSample([(f, 5)], *made_for))

    def test_sample_refuses_a_map_it_does_not_hold(self):
        sample = PairSample([(lambda t: t, 5)], 5, 0.7, 250, 11)
        with pytest.raises(ValueError, match="holds no such map"):
            empirical_lipschitz(lambda t: t, 5, 0.7, 250, 11, sample=sample)

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

    def test_grad_variant_on_quadratic(self):
        # grad of 0.5||theta||^2 is the identity: every quotient is exactly 1
        g = lambda t: t
        est = empirical_grad_lipschitz(g, dim=3, b_omega=2.0, n_pairs=300, seed=5)
        assert est.max_ratio == pytest.approx(1.0, rel=1e-9)


    @pytest.mark.parametrize("block_bytes", [1, 8 * 7 * 3, 8 * 7 * 4, 1 << 20])
    def test_row_blocks_keep_the_distances_bits(self, monkeypatch, block_bytes):
        # blocks of 1, 3 and 4 rows of 7 values leave one-row remainders at
        # 10 and 13 rows; einsum reduces a lone row in another order
        monkeypatch.setattr(empirical, "_CHUNK_BYTES", block_bytes)
        rng = np.random.default_rng(5)
        for k, p in ((1, 7), (10, 7), (13, 7), (40, 7), (9, 2050)):
            u = rng.standard_normal((k, p)) * 10.0 ** rng.uniform(-5, 5, (k, 1))
            v = rng.standard_normal((k, p))
            d = u - v
            whole = np.sqrt(np.einsum("ij,ij->i", d, d))
            assert _row_distances(u, v).tobytes() == whole.tobytes()

    def test_distances_past_the_squares_range(self):
        # squares that underflow or overflow: the distance itself is still a float
        u = np.array([[3e-200, 4e-200], [3e200, 4e200], [0.0, 0.0], [3.0, 4.0],
                      [math.inf, 0.0], [1e308, 0.0], [5e-324, 0.0]])
        v = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                      [0.0, 0.0], [-1e308, 0.0], [0.0, 0.0]])
        with np.errstate(over="ignore"):  # 1e308 - (-1e308)
            got = _row_distances(u, v)
        assert got[:4].tolist() == [pytest.approx(5e-200, rel=1e-15), pytest.approx(5e200, rel=1e-15), 0.0, 5.0]
        # an inf value measures nothing; finite values past the float range apart are inf
        assert math.isnan(got[4]) and got[5] == math.inf and got[6] == 5e-324


class TestPairSampler:
    """The pairs empirical_lipschitz feeds its map, read back by a recording map."""

    @pytest.mark.parametrize("dim, b_omega", [(1, 0.5), (5, 2.0), (40, 1.0), (4, 0.005)])
    def test_points_lie_strictly_inside_the_ball(self, dim, b_omega):
        _, a, b = recorded_run(lambda t: t, dim, 600, seed=1, b_omega=b_omega)
        assert np.linalg.norm(a, axis=1).max() < b_omega
        assert np.linalg.norm(b, axis=1).max() < b_omega

    def test_mixed_plan_cycles_by_index(self):
        # pair k is global, local 1e-2, local 1e-4 or coordinate 1e-3 * b_omega
        # as k % 4 is 0, 1, 2 or 3
        b_omega = 2.0
        _, a, b = recorded_run(lambda t: t, 6, 600, seed=9, b_omega=b_omega)
        d = b - a
        dn = np.linalg.norm(d, axis=1)
        nonzero = np.count_nonzero(d, axis=1)
        for length in (1e-2, 1e-4, 1e-3 * b_omega):
            assert np.all(np.abs(dn[0::4] / length - 1.0) > 1e-6)
        # b - a carries the rounding of base + step, a few ulps of b_omega
        atol = 4 * np.finfo(float).eps * b_omega
        np.testing.assert_allclose(dn[1::4], 1e-2, rtol=1e-12, atol=atol)
        np.testing.assert_allclose(dn[2::4], 1e-4, rtol=1e-12, atol=atol)
        assert np.all(nonzero[1::4] > 1) and np.all(nonzero[2::4] > 1)
        assert np.all(nonzero[3::4] == 1)
        np.testing.assert_allclose(dn[3::4], 1e-3 * b_omega, rtol=1e-12, atol=atol)
        # coordinate steps go both ways and reach every coordinate
        assert set(np.sign(d[3::4].sum(axis=1))) == {-1.0, 1.0}
        assert set(np.flatnonzero(d[3::4]) % 6) == set(range(6))

    @pytest.mark.parametrize(
        "args, digest",
        [
            ((3, 0, 2, 7, 0.3), "13f3aba4f3bb23b9f5b0cc3525aa8e09724ee26dbc55561c44d2b2e1b8306e45"),
            ((3, 5, 1, 40, 1e-3), "566ff6ea6cfbc25ebb1899da9adc512fdcef771985bfb5f20abe0dea2d653a7d"),
        ],
        ids=["two_blocks", "small_ball"],
    )
    def test_pair_bytes_are_pinned(self, args, digest):
        # (seed, first block, block count, dim, b_omega): any change to the
        # generator order or the plan changes every sampled pair
        a, b = _draw_blocks(*args)
        assert hashlib.sha256(a.tobytes() + b.tobytes()).hexdigest() == digest

    def test_zero_direction_is_left_at_zero(self):
        # a Gaussian row of zeros has probability zero; if it came it would
        # give the origin or a zero step, never a division by zero
        g = np.array([[0.0, 0.0], [3.0, 4.0]])
        with np.errstate(all="raise"):
            _scale_rows(g, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(g[0], [0.0, 0.0])
        np.testing.assert_allclose(g[1], [1.2, 1.6], rtol=1e-15)


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
            # the chain ends at its last activation, so its own certificate is
            # the last hidden layer's, not the one with the identity head
            assert pair.exact_ratio <= cert.per_layer[-1].l_n

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
