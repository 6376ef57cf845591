"""Additive network: forward, loss, gradient, training, shapes, serialization."""
import math

import numpy as np
import pytest

from hullexplain import example_based, nam
from hullexplain.errors import (
    ConfigError,
    DataFormatError,
    InvalidInputError,
    TrainingError,
)
from hullexplain.rng import Prng
from hullexplain.sampling import SimplexSampler


def identity_like_net(d=2, coord=0):
    # h_coord(t) = relu(relu(t)) = t on [0, 1]; every other subnet zero
    net = nam.AdditiveNet(d, seed=0)
    net.params[:] = 0.0
    s = net.subnets[coord]
    s.W1[0] = 1.0
    s.W2[0, 0] = 1.0
    s.W3[0] = 1.0
    return net


class TestForward:
    def test_parameter_count(self):
        for d in (1, 3, 6):
            assert nam.AdditiveNet(d).params.size == d * 4353

    def test_additivity_exact(self):
        net = nam.AdditiveNet(4, seed=2)
        lam = SimplexSampler(4, seed=7).draw(60)
        total, contrib = net.forward(lam)
        assert np.array_equal(total, contrib.sum(axis=1))

    def test_single_vector_input(self):
        net = nam.AdditiveNet(3, seed=1)
        total, contrib = net.forward(np.array([0.2, 0.3, 0.5]))
        assert isinstance(total, float)
        assert contrib.shape == (3,)
        batch_total, _ = net.forward(np.array([[0.2, 0.3, 0.5]]))
        assert total == batch_total[0]

    def test_coordinate_independence(self):
        # architectural: h_k reads only column k
        net = nam.AdditiveNet(4, seed=3)
        lam = SimplexSampler(4, seed=11).draw(20)
        _, base = net.forward(lam)
        bumped = lam.copy()
        bumped[:, 1] += 0.17
        _, moved = net.forward(bumped)
        for k in (0, 2, 3):
            assert np.array_equal(moved[:, k], base[:, k])
        assert not np.array_equal(moved[:, 1], base[:, 1])

    def test_zero_output_layer_outputs_zero(self):
        net = nam.AdditiveNet(3, seed=4)
        for s in net.subnets:
            s.W3[:] = 0.0
            s.b3[:] = 0.0
        total, contrib = net.forward(SimplexSampler(3, seed=1).draw(15))
        assert np.array_equal(total, np.zeros(15))
        assert np.array_equal(contrib, np.zeros((15, 3)))

    def test_identity_like_subnet_is_linear(self):
        net = identity_like_net()
        t = np.linspace(0.0, 1.0, 41)
        pts = np.column_stack([t, 1.0 - t])
        total, contrib = net.forward(pts)
        assert np.allclose(contrib[:, 0], t, atol=1e-12)
        assert np.array_equal(contrib[:, 1], np.zeros(41))
        assert np.allclose(total, t, atol=1e-12)

    def test_seeded_init(self):
        a = nam.AdditiveNet(3, seed=9)
        b = nam.AdditiveNet(3, seed=9)
        c = nam.AdditiveNet(3, seed=10)
        assert np.array_equal(a.params, b.params)
        assert not np.array_equal(a.params, c.params)
        # biases start at zero, weights do not
        assert np.all(a.params[~a.weight_mask] == 0.0)
        assert np.any(a.params[a.weight_mask] != 0.0)

    def test_dimension_mismatch(self):
        net = nam.AdditiveNet(3)
        with pytest.raises(InvalidInputError):
            net.forward(np.zeros((5, 4)))
        with pytest.raises(InvalidInputError):
            net.forward(np.zeros(2))


class TestLoss:
    def test_exact_fit_is_zero(self):
        net = nam.AdditiveNet(3, seed=5)
        lam = SimplexSampler(3, seed=2).draw(9)
        z = net.predict(lam)
        assert nam.loss(net, lam, z, 0.0) == 0.0

    def test_zero_net_unit_targets(self):
        net = nam.AdditiveNet(2, seed=0)
        net.params[:] = 0.0
        batch = np.array([[0.4, 0.6], [0.1, 0.9]])
        assert nam.loss(net, batch, np.array([1.0, 1.0]), 0.0) == 2.0

    def test_matches_naive_recomputation(self):
        # independent forward: per-sample, per-unit python loops
        net = nam.AdditiveNet(3, seed=6)
        lam = SimplexSampler(3, seed=8).draw(5)
        z = Prng(3, 0).normal(5)
        alpha = 0.037
        naive = 0.0
        for i in range(5):
            pred = 0.0
            for k, s in enumerate(net.subnets):
                a1 = [max(0.0, s.W1[j] * lam[i, k] + s.b1[j]) for j in range(64)]
                a2 = [
                    max(0.0, sum(a1[j] * s.W2[j, u] for j in range(64)) + s.b2[u])
                    for u in range(64)
                ]
                pred += sum(a2[u] * s.W3[u] for u in range(64)) + s.b3[0]
            naive += (z[i] - pred) ** 2
        naive += alpha * float(np.sum(net.params[net.weight_mask] ** 2))
        assert math.isclose(nam.loss(net, lam, z, alpha), naive, rel_tol=1e-12)

    def test_penalty_skips_biases(self):
        net = nam.AdditiveNet(2, seed=1)
        lam = SimplexSampler(2, seed=3).draw(4)
        z = np.zeros(4)
        before = nam.loss(net, lam, z, 1.0) - nam.loss(net, lam, z, 0.0)
        assert math.isclose(before, float(np.sum(net.params[net.weight_mask] ** 2)),
                            rel_tol=1e-12)

    def test_batch_validation(self):
        net = nam.AdditiveNet(2)
        with pytest.raises(InvalidInputError):
            nam.loss(net, np.zeros((0, 2)), np.zeros(0), 0.0)
        with pytest.raises(InvalidInputError):
            nam.loss(net, np.zeros((3, 2)), np.zeros(2), 0.0)


# rectifier kinks: the check only makes sense where no pre-activation sits
# within the finite-difference step of zero, so params get jittered into
# general position and a clearance guard protects the frozen seeds
GRAD_SEEDS = {2: (0, 1, 2, 3, 4), 4: (0, 1, 2, 3, 8), 6: (8, 11, 14, 18, 24)}


def kink_clearance(net, lam):
    worst = np.inf
    for k, s in enumerate(net.subnets):
        z1 = np.outer(lam[:, k], s.W1) + s.b1
        z2 = np.maximum(z1, 0.0) @ s.W2 + s.b2
        worst = min(worst, np.abs(z1).min(), np.abs(z2).min())
    return worst


class TestGradient:
    @pytest.mark.parametrize("d", sorted(GRAD_SEEDS))
    def test_matches_central_finite_differences(self, d):
        step = 1e-5
        for seed in GRAD_SEEDS[d]:
            net = nam.AdditiveNet(d, seed=seed)
            net.params += Prng(seed + 300, 0).normal(net.params.size, 0.0, 0.05)
            lam = SimplexSampler(d, seed=seed + 100).draw(7)
            z = Prng(seed + 200, 0).normal(7, 0.0, 2.0)
            assert kink_clearance(net, lam) > 2e-5
            alpha = (0.0, 1e-4, 1e-2)[seed % 3]
            analytic = nam.gradient(net, lam, z, alpha)
            idx = np.unique(np.r_[np.arange(nam.SUBNET_PARAMS),
                                  np.arange(0, net.params.size, 97)])
            fd = np.zeros_like(analytic)
            for i in idx:
                orig = net.params[i]
                net.params[i] = orig + step
                hi = nam.loss(net, lam, z, alpha)
                net.params[i] = orig - step
                lo = nam.loss(net, lam, z, alpha)
                net.params[i] = orig
                fd[i] = (hi - lo) / (2.0 * step)
            scale = np.max(np.abs(fd[idx]))
            assert np.max(np.abs(analytic[idx] - fd[idx])) <= 1e-4 * scale

    def test_zero_output_layer_by_hand(self):
        net = nam.AdditiveNet(2, seed=7)
        for s in net.subnets:
            s.W3[:] = 0.0
            s.b3[:] = 0.0
        lam = SimplexSampler(2, seed=5).draw(6)
        z = Prng(9, 0).normal(6)
        grad = nam.gradient(net, lam, z, 0.0)
        gview = [nam._SubnetView(grad, k * nam.SUBNET_PARAMS) for k in range(2)]
        for k, s in enumerate(net.subnets):
            a1 = np.maximum(np.outer(lam[:, k], s.W1) + s.b1, 0.0)
            a2 = np.maximum(a1 @ s.W2 + s.b2, 0.0)
            # prediction is 0, residual z - 0: dL/dW3 = -2 sum z_i a2_i
            assert np.allclose(gview[k].W3, -2.0 * a2.T @ z, atol=1e-12)
            assert math.isclose(gview[k].b3[0], -2.0 * z.sum(), rel_tol=1e-12)
            # no signal flows below a zero output layer
            assert np.all(gview[k].W2 == 0.0)
            assert np.all(gview[k].W1 == 0.0)
            assert np.all(gview[k].b2 == 0.0)
            assert np.all(gview[k].b1 == 0.0)

    def test_two_parameter_toy_by_hand(self):
        # only unit 0 of the single subnet is wired: h(t) = W3[0]*(t+0.3) + b3
        net = nam.AdditiveNet(1, seed=0)
        net.params[:] = 0.0
        s = net.subnets[0]
        s.W1[0] = 1.0
        s.b1[0] = 0.2
        s.W2[0, 0] = 1.0
        s.b2[0] = 0.1
        s.W3[0] = 1.5
        s.b3[0] = -0.4
        t = np.array([[0.1], [0.6], [0.9]])
        z = np.array([0.5, 1.0, 0.0])
        pred = 1.5 * (t[:, 0] + 0.3) - 0.4
        r = pred - z
        grad = nam.gradient(net, t, z, 0.0)
        g = nam._SubnetView(grad, 0)
        assert math.isclose(g.W3[0], float(2.0 * r @ (t[:, 0] + 0.3)), rel_tol=1e-12)
        assert math.isclose(g.b3[0], float(2.0 * r.sum()), rel_tol=1e-12)

    def test_penalty_gradient_exact(self):
        net = nam.AdditiveNet(2, seed=8)
        lam = SimplexSampler(2, seed=6).draw(5)
        z = np.zeros(5)
        alpha = 0.31
        diff = nam.gradient(net, lam, z, alpha) - nam.gradient(net, lam, z, 0.0)
        expected = np.where(net.weight_mask, 2.0 * alpha * net.params, 0.0)
        assert np.allclose(diff, expected, atol=1e-12)


class TestFusedStep:
    @pytest.mark.parametrize("d", [1, 3, 9])
    @pytest.mark.parametrize("alpha", [0.0, 1e-4])
    def test_equals_separate_loss_and_gradient(self, d, alpha):
        # d = 9 sums the loss's rows pairwise, unlike the gradient's running
        # total; targets near the prediction keep that last-bit difference
        # visible in the loss
        for seed in range(3):
            net = nam.AdditiveNet(d, seed=seed)
            net.params += Prng(seed + 40, 0).normal(net.params.size, 0.0, 0.1)
            lam = SimplexSampler(d, seed=seed + 50).draw(17 + 20 * seed)
            noise = Prng(seed + 60, 0).normal(lam.shape[0])
            for z in (noise, net.predict(lam) + 1e-9 * noise):
                value, grad = nam._loss_and_gradient(net, lam, z, alpha)
                assert value == nam.loss(net, lam, z, alpha)
                assert np.array_equal(grad, nam.gradient(net, lam, z, alpha))

    def test_gradient_adds_subnets_in_order(self):
        # the gradient's residual is a running total over the subnets, which
        # for d >= 8 differs in the last bit from forward()'s row sum
        net = nam.AdditiveNet(9, seed=2)
        lam = SimplexSampler(9, seed=70).draw(40)
        _, contrib = net.forward(lam)
        z = contrib.sum(axis=1) + 1e-9 * Prng(71, 0).normal(40)
        total = np.zeros(40)
        for k in range(9):
            total += contrib[:, k]
        grad = nam.gradient(net, lam, z, 0.0)
        for k in range(9):
            b3 = nam._SubnetView(grad, k * nam.SUBNET_PARAMS).b3[0]
            assert b3 == (2.0 * (total - z)).sum()


def reference_train(net, lam, z, cfg):
    # separate loss() and gradient() calls, shuffled by the scalar recipe
    shuffler = Prng(cfg.seed, 1)
    m = np.zeros_like(net.params)
    v = np.zeros_like(net.params)
    history = []
    step = 0
    n = lam.shape[0]
    for _ in range(cfg.epochs):
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = int(shuffler.below(i + 1)[0])
            perm[i], perm[j] = perm[j], perm[i]
        for start in range(0, n, cfg.batch):
            idx = perm[start:start + cfg.batch]
            step += 1
            history.append(nam.loss(net, lam[idx], z[idx], cfg.alpha))
            g = nam.gradient(net, lam[idx], z[idx], cfg.alpha)
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1**step)
            v_hat = v / (1.0 - cfg.beta2**step)
            net.params -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return net, history


class TestTrain:
    def test_trajectory_matches_reference_loop(self):
        lam = SimplexSampler(2, seed=13).draw(300)
        z = np.sin(3.0 * lam[:, 0])
        cfg = nam.TrainConfig(batch=64, epochs=3, seed=5)
        net, history = nam.train(nam.AdditiveNet(2, seed=4), lam, z, cfg)
        ref, ref_history = reference_train(nam.AdditiveNet(2, seed=4), lam, z, cfg)
        assert len(history) == 3 * 5
        assert history == ref_history
        assert np.array_equal(net.params, ref.params)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            nam.TrainConfig(lr=0.0).validate()
        with pytest.raises(ConfigError):
            nam.TrainConfig(alpha=-1e-6).validate()
        with pytest.raises(ConfigError):
            nam.TrainConfig(epochs=0).validate()
        with pytest.raises(ConfigError):
            nam.TrainConfig(batch=0).validate()
        nam.TrainConfig(alpha=0.0).validate()  # unregularized is allowed

    def test_constant_fit(self):
        c = 2.0
        lam = SimplexSampler(3, seed=5).draw(400)
        net = nam.AdditiveNet(3, seed=0)
        cfg = nam.TrainConfig(epochs=150, seed=0)
        net, history = nam.train(net, lam, np.full(400, c), cfg)
        assert len(history) == 150 * math.ceil(400 / 128)
        assert np.max(np.abs(net.predict(lam) - c)) <= 0.05 * abs(c) + 0.01
        assert history[-1] <= 0.1 * history[0]
        smoothed = np.convolve(history, np.ones(20) / 20, mode="valid")
        # batch noise keeps the average from decreasing strictly; bound upticks
        assert np.all(smoothed[1:] <= smoothed[:-1] * 1.05)

    def test_identity_1d(self):
        t = Prng(7, 0).unit(800)[:, None]
        net = nam.AdditiveNet(1, seed=0)
        net, _ = nam.train(net, t, t[:, 0], nam.TrainConfig(epochs=200, seed=0))
        grid = np.linspace(0.05, 0.95, 91)[:, None]
        assert np.max(np.abs(net.predict(grid) - grid[:, 0])) <= 0.05

    def test_determinism(self):
        lam = SimplexSampler(2, seed=4).draw(90)
        z = 2.0 * lam[:, 0]
        runs = []
        for _ in range(2):
            net = nam.AdditiveNet(2, seed=3)
            net, hist = nam.train(net, lam, z, nam.TrainConfig(epochs=5, seed=11))
            runs.append((net.params.copy(), hist))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]
        other = nam.AdditiveNet(2, seed=3)
        other, _ = nam.train(other, lam, z, nam.TrainConfig(epochs=5, seed=12))
        assert not np.array_equal(other.params, runs[0][0])

    def test_divergence_names_step(self):
        lam = SimplexSampler(2, seed=1).draw(64)
        z = 100.0 * lam[:, 0]
        net = nam.AdditiveNet(2, seed=0)
        # moment normalization bounds each step by lr, so only an absurd rate
        # drives the squared error past the float range
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match=r"step \d+"):
                nam.train(net, lam, z, nam.TrainConfig(lr=1e80, epochs=50, seed=0))

    def test_small_dataset_clips_batch(self):
        lam = SimplexSampler(2, seed=2).draw(10)
        net = nam.AdditiveNet(2, seed=1)
        net, history = nam.train(net, lam, lam[:, 0], nam.TrainConfig(epochs=3, seed=0))
        assert len(history) == 3

    def test_data_validation(self):
        net = nam.AdditiveNet(2)
        cfg = nam.TrainConfig(epochs=1)
        with pytest.raises(InvalidInputError):
            nam.train(net, np.zeros((4, 3)), np.zeros(4), cfg)
        with pytest.raises(InvalidInputError):
            nam.train(net, np.zeros((4, 2)), np.zeros(3), cfg)


class TestShapes:
    def test_zero_net_zero_tables(self):
        net = nam.AdditiveNet(3, seed=0)
        net.params[:] = 0.0
        table = nam.extract_shapes(net)
        assert np.array_equal(table.values, np.zeros((101, 3)))

    def test_default_grid_endpoints(self):
        table = nam.extract_shapes(nam.AdditiveNet(2, seed=1))
        assert table.grid[0] == 0.0
        assert table.grid[-1] == 1.0

    def test_mean_shifted(self):
        table = nam.extract_shapes(nam.AdditiveNet(4, seed=6))
        assert np.allclose(table.values.mean(axis=0), 0.0, atol=1e-12)

    def test_table_pairs(self):
        net = identity_like_net()
        table = nam.extract_shapes(net, grid=np.array([0.0, 0.5, 1.0]))
        pairs = table.table(0)
        assert [p[0] for p in pairs] == [0.0, 0.5, 1.0]
        # identity shifted by its grid mean
        assert np.allclose([p[1] for p in pairs], [-0.5, 0.0, 0.5], atol=1e-12)

    def test_recovers_slope_on_independent_inputs(self):
        xy = Prng(11, 0).unit(1600).reshape(800, 2)
        net = nam.AdditiveNet(2, seed=0)
        net, _ = nam.train(net, xy, 3.0 * xy[:, 0],
                           nam.TrainConfig(epochs=200, seed=0))
        table = nam.extract_shapes(net)
        slope1 = np.polyfit(table.grid, table.values[:, 0], 1)[0]
        slope2 = np.polyfit(table.grid, table.values[:, 1], 1)[0]
        assert abs(slope1 - 3.0) <= 0.3
        assert abs(slope2) <= 0.3

    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            nam.extract_shapes(nam.AdditiveNet(2), grid=np.zeros((2, 2)))


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        net = nam.AdditiveNet(3, seed=14)
        net.params += Prng(1, 0).normal(net.params.size, 0.0, 0.1)
        path = tmp_path / "net.txt"
        nam.save_net(net, path)
        back = nam.load_net(path)
        assert back.d == 3
        assert back.seed == 14
        assert np.array_equal(back.params, net.params)

    def test_load_errors(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read"):
            nam.load_net(tmp_path / "missing.txt")
        bad = tmp_path / "bad.txt"
        bad.write_text("something else\n")
        with pytest.raises(DataFormatError, match="not an additive-net"):
            nam.load_net(bad)
        net = nam.AdditiveNet(2, seed=0)
        trunc = tmp_path / "trunc.txt"
        nam.save_net(net, trunc)
        lines = trunc.read_text().splitlines()
        trunc.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(DataFormatError, match=str(2 * 4353)):
            nam.load_net(trunc)
        mangled = tmp_path / "mangled.txt"
        lines = [nam.FORMAT_HEADER, "d=1 hidden=64 seed=0"] + ["0.0"] * 4352 + ["oops"]
        mangled.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="non-numeric"):
            nam.load_net(mangled)
        wrong = tmp_path / "wrong.txt"
        wrong.write_text(f"{nam.FORMAT_HEADER}\nd=1 hidden=32 seed=0\n")
        with pytest.raises(DataFormatError, match="hidden width"):
            nam.load_net(wrong)


class TestImportanceIntegration:
    def test_identity_subnet_dominates(self):
        net = identity_like_net(d=3, coord=1)
        lam = SimplexSampler(3, seed=21).draw(300)
        imp = example_based.importances(lam, None, "nam", nam_model=net)
        assert imp.normalized[1] == 1.0
        assert imp.normalized[0] == 0.0
        assert np.isclose(imp.raw[1], lam[:, 1].std(ddof=1))
