import numpy as np
import pytest

from ebmkit import autodiff as ad
from ebmkit.errors import (ConfigError, ContractError, TapeDepthError,
                           TrainingDivergedError)
from ebmkit.model import EnergyNet, ModelConfig
from ebmkit.sampler import LangevinConfig, ReplayBuffer
from ebmkit.trainer import (AdamState, TrainConfig, adam_step,
                            contrastive_loss, kl_finetune_loss,
                            kl_finetune_step, train_step)

from helpers import TapedQuadratic, ks_oracle, relative_error


def leaf_pair(tape, pos, neg):
    return tape.leaf(np.asarray(pos, dtype=np.float64)), \
        tape.leaf(np.asarray(neg, dtype=np.float64))


class TestContrastiveLoss:
    def test_zero_energies_zero_loss(self):
        with ad.Tape() as tape:
            p, n = leaf_pair(tape, np.zeros(4), np.zeros(4))
            assert contrastive_loss(p, n, 1.0).item() == 0.0

    def test_hand_arithmetic(self):
        # 1*(1 + 4) + 1 - 2 = 4
        with ad.Tape() as tape:
            p, n = leaf_pair(tape, [1.0], [2.0])
            assert contrastive_loss(p, n, 1.0).item() == pytest.approx(4.0)

    def test_alpha_zero_is_plain_gap(self):
        rng = np.random.default_rng(0)
        e_pos = rng.normal(size=8)
        e_neg = rng.normal(size=8)
        with ad.Tape() as tape:
            p, n = leaf_pair(tape, e_pos, e_neg)
            loss = contrastive_loss(p, n, 0.0)
        assert loss.item() == pytest.approx((e_pos - e_neg).mean())

    def test_batch_mismatch_rejected(self):
        from ebmkit.errors import DimensionError
        with ad.Tape() as tape:
            p, n = leaf_pair(tape, np.zeros(4), np.zeros(3))
            with pytest.raises(DimensionError):
                contrastive_loss(p, n, 1.0)


class TestAdamStep:
    def setup_method(self):
        self.cfg = TrainConfig(lr=1e-2)

    def test_zero_gradient_is_a_noop(self):
        p = np.array([1.0, -2.0])
        params = [("p", p)]
        state = AdamState.for_parameters(params)
        adam_step(params, {"p": np.zeros(2)}, state, self.cfg)
        np.testing.assert_array_equal(p, [1.0, -2.0])
        np.testing.assert_array_equal(state.v["p"], np.zeros(2))
        assert state.t == 1

    def test_first_step_moves_by_lr_sign(self):
        p = np.array([1.0, 1.0])
        params = [("p", p)]
        state = AdamState.for_parameters(params)
        g = np.array([0.37, -0.002])
        adam_step(params, {"p": g.copy()}, state, self.cfg)
        delta = p - 1.0
        np.testing.assert_allclose(delta, -self.cfg.lr * np.sign(g), rtol=1e-4)

    def test_huge_gradient_clipped_to_sigma_band(self):
        """Prime v with unit gradients, then inject a 1e6x outlier.

        With constant unit gradients v_hat is exactly 1, so the outlier is
        clipped to clip_sigmas. The resulting parameter change is the
        closed-form value below — order lr, not order 1e6*lr.
        """
        cfg = self.cfg
        p = np.array([0.0])
        params = [("p", p)]
        state = AdamState.for_parameters(params)
        t_warm = 200
        for _ in range(t_warm):
            adam_step(params, {"p": np.ones(1)}, state, cfg)
        assert state.v["p"][0] / (1 - cfg.beta2 ** t_warm) == pytest.approx(1.0)

        before = p.copy()
        huge = 1e6 * np.sqrt(state.v["p"] / (1 - cfg.beta2 ** t_warm))
        adam_step(params, {"p": huge}, state, cfg)
        delta = float(p[0] - before[0])

        # hand algebra: clipped g = s, v' = b2*(1-b2^t) + (1-b2)*s^2,
        # step = lr * s / sqrt(v' / (1-b2^(t+1)))
        s = cfg.clip_sigmas + cfg.adam_eps
        v_new = cfg.beta2 * (1 - cfg.beta2 ** t_warm) + (1 - cfg.beta2) * s ** 2
        v_hat = v_new / (1 - cfg.beta2 ** (t_warm + 1))
        expected = -cfg.lr * s / (np.sqrt(v_hat) + cfg.adam_eps)
        assert delta == pytest.approx(expected, rel=1e-10)
        assert abs(delta) <= cfg.clip_sigmas * cfg.lr * 1.01

    def test_nan_gradient_raises(self):
        p = np.array([1.0])
        params = [("p", p)]
        state = AdamState.for_parameters(params)
        with pytest.raises(TrainingDivergedError):
            adam_step(params, {"p": np.array([np.nan])}, state, self.cfg)

    def test_bad_later_gradient_leaves_state_untouched(self):
        a, b = np.array([0.0, 0.0]), np.array([1.0])
        params = [("a", a), ("b", b)]
        state = AdamState.for_parameters(params)
        for grads in ({"a": np.ones(2), "b": np.array([np.nan])},
                      {"a": np.ones(2), "b": np.zeros(2)}):
            with pytest.raises((TrainingDivergedError, ContractError)):
                adam_step(params, grads, state, self.cfg)
            assert state.t == 0
            assert np.array_equal(a, [0.0, 0.0]) and np.array_equal(b, [1.0])
            for name in ("a", "b"):
                assert not state.m[name].any() and not state.v[name].any()

    def test_shape_mismatch_rejected(self):
        p = np.array([1.0])
        params = [("p", p)]
        state = AdamState.for_parameters(params)
        with pytest.raises(ContractError):
            adam_step(params, {"p": np.zeros(2)}, state, self.cfg)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": -1.0},
        {"beta1": 1.0},
        {"batch_size": 0},
        {"clip_sigmas": 0.0},
        {"total_steps": -1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.alpha == 1.0 and cfg.lr == 1e-4
        assert cfg.beta1 == 0.0 and cfg.beta2 == 0.999
        assert cfg.batch_size == 128 and cfg.langevin.steps == 60


def tiny_net(seed=0, widths=(2, 16, 1)):
    return EnergyNet.init(ModelConfig(widths=widths), np.random.default_rng(seed))


class TestTrainStep:
    def test_zero_lr_touches_buffer_not_parameters(self):
        net = tiny_net()
        before = [p.copy() for _, p in net.parameters()]
        buffer = ReplayBuffer(capacity=100)
        cfg = TrainConfig(lr=0.0, batch_size=8,
                          langevin=LangevinConfig(steps=5))
        state = AdamState.for_parameters(net.parameters())
        rng = np.random.default_rng(1)
        report = train_step(net, rng.uniform(size=(8, 2)), buffer, cfg,
                            state, rng)
        assert len(buffer) == 8
        assert report.step == 1
        for (name, p), b in zip(net.parameters(), before):
            np.testing.assert_array_equal(p, b)

    def test_seeded_runs_produce_identical_reports(self):
        def run():
            net = tiny_net(seed=3)
            buffer = ReplayBuffer(capacity=100)
            cfg = TrainConfig(batch_size=8, langevin=LangevinConfig(steps=5))
            state = AdamState.for_parameters(net.parameters())
            rng = np.random.default_rng(7)
            data_rng = np.random.default_rng(8)
            reports = [train_step(net, data_rng.uniform(size=(8, 2)), buffer,
                                  cfg, state, rng) for _ in range(5)]
            return [(r.step, r.e_pos, r.e_neg, r.loss) for r in reports]

        assert run() == run()

    def test_gradient_estimator_matches_analytic_ml_gradient(self):
        """With exact negatives from p_theta, the alpha=0 loss gradient
        w.r.t. mu should equal mu - mean(data) up to Monte-Carlo error
        (for E = 0.5||x-mu||^2 the analytic gradient is mu - mu_data)."""
        rng = np.random.default_rng(11)
        mu = np.array([0.5, -0.3])
        model = TapedQuadratic(mu=mu.copy())
        n = 4000
        data = rng.normal(size=(n, 2))               # mu* = 0
        exact_neg = mu + rng.normal(size=(n, 2))     # exact sampler for p_theta
        with ad.Tape() as tape:
            params = model.lift_parameters(tape)
            e_pos = model.taped_energy(ad.constant(data), params=params)
            e_neg = model.taped_energy(ad.constant(exact_neg), params=params)
            loss = contrastive_loss(e_pos, e_neg, 0.0)
            (g_mu,) = ad.gradient(loss, [params[0]["mu"]])
        se = np.sqrt(1.0 / n + 1.0 / n)
        np.testing.assert_allclose(g_mu.data, mu, atol=3 * se + 0.01)

    def test_four_mode_mixture_training_closes_the_gap(self):
        """End-to-end training sanity on an easy 2D target: the mean
        energies of data and sampled negatives converge; energies stay
        bounded; train and held-out energies agree in distribution."""
        rng = np.random.default_rng(21)
        centers = np.array([[0.25, 0.25], [0.25, 0.75],
                            [0.75, 0.25], [0.75, 0.75]])
        def draw(n):
            c = centers[rng.integers(0, 4, size=n)]
            return np.clip(c + 0.05 * rng.normal(size=(n, 2)), 0.0, 1.0)

        train, held = draw(512), draw(512)
        net = tiny_net(seed=5, widths=(2, 16, 1))
        buffer = ReplayBuffer(capacity=10_000)
        cfg = TrainConfig()
        state = AdamState.for_parameters(net.parameters())
        reports = []
        for step in range(2000):
            batch = train[rng.integers(0, len(train), size=cfg.batch_size)]
            reports.append(train_step(net, batch, buffer, cfg, state, rng))

        for r in reports:
            assert abs(r.e_pos) < 100.0 and abs(r.e_neg) < 100.0
        tail = reports[-100:]
        gap = np.mean([r.e_neg - r.e_pos for r in tail])
        assert abs(gap) <= 0.5

        ks = ks_oracle(net.energy(train), net.energy(held))
        assert ks < 0.1


class TestKlFinetune:
    def quad_pair(self):
        # trainable model centered at 0.5, frozen target centered at 0
        return TapedQuadratic(mu=[0.5]), TapedQuadratic(mu=[0.0])

    def test_zero_steps_loss_is_snapshot_energy_of_init(self):
        net, snap = self.quad_pair()
        lang = LangevinConfig(steps=0, step_size=0.1, noise=0.0, grad_clip=10)
        init = np.array([[0.2], [0.8]])
        loss, grads = kl_finetune_loss(net, snap, lang, np.random.default_rng(0),
                                       init)
        assert loss == pytest.approx(snap.energy(init).mean())
        assert np.all(grads["mu"] == 0.0) and np.all(grads["w"] == 0.0)

    def test_one_step_gradient_sign_pulls_center_home(self):
        # x1 = x0 - lam*(x0 - mu); at x0 = 0 the loss is 0.5 lam^2 mu^2,
        # so d loss / d mu = lam^2 mu > 0 for mu > 0.
        net, snap = self.quad_pair()
        lam = 0.1
        lang = LangevinConfig(steps=1, step_size=lam, noise=0.0, grad_clip=10)
        init = np.zeros((1, 1))
        loss, grads = kl_finetune_loss(net, snap, lang, np.random.default_rng(0),
                                       init)
        assert grads["mu"][0] == pytest.approx(lam ** 2 * 0.5)
        assert grads["mu"][0] > 0

        state = AdamState.for_parameters(net.parameters())
        mu_before = float(net.mu[0])
        kl_finetune_step(net, snap, TrainConfig(lr=1e-2, batch_size=1), state,
                         np.random.default_rng(0), langevin=lang, init=init)
        assert float(net.mu[0]) < mu_before

    def test_taped_chain_gradient_matches_finite_differences(self):
        net = TapedQuadratic(mu=[0.3], w=1.2)
        snap = TapedQuadratic(mu=[-0.2], w=0.8)
        lang = LangevinConfig(steps=3, step_size=0.05, noise=0.0, grad_clip=10)
        rng0 = np.random.default_rng(9)
        init = rng0.uniform(size=(4, 1))
        _, grads = kl_finetune_loss(net, snap, lang, np.random.default_rng(0),
                                    init)

        h = 1e-6
        for name, arr in net.parameters():
            fd = np.zeros_like(arr)
            flat_fd = fd.reshape(-1)
            flat = arr.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                hi, _ = kl_finetune_loss(net, snap, lang,
                                         np.random.default_rng(0), init)
                flat[i] = orig - h
                lo, _ = kl_finetune_loss(net, snap, lang,
                                         np.random.default_rng(0), init)
                flat[i] = orig
                flat_fd[i] = (hi - lo) / (2 * h)
            assert relative_error(grads[name], fd) < 1e-3, name

    def test_chain_cap_enforced(self):
        net, snap = self.quad_pair()
        lang = LangevinConfig(steps=11, noise=0.0, grad_clip=10)
        with pytest.raises(TapeDepthError):
            kl_finetune_loss(net, snap, lang, np.random.default_rng(0),
                             np.zeros((1, 1)))

    def test_eps_box_unsupported_on_tape(self):
        net, snap = self.quad_pair()
        lang = LangevinConfig(steps=2, noise=0.0, grad_clip=10, eps_box=0.1)
        with pytest.raises(ContractError):
            kl_finetune_loss(net, snap, lang, np.random.default_rng(0),
                             np.zeros((1, 1)))

    def test_real_net_finetune_runs_and_reduces_snapshot_energy(self):
        # smoke: a spectral-normalized MLP goes through the taped chain
        net = tiny_net(seed=12, widths=(2, 8, 1))
        snap = net.clone()
        cfg = TrainConfig(lr=1e-3, batch_size=16,
                          langevin=LangevinConfig(steps=5, step_size=0.5,
                                                  noise=0.001, grad_clip=1.0))
        state = AdamState.for_parameters(net.parameters())
        rng = np.random.default_rng(13)
        losses = [kl_finetune_step(net, snap, cfg, state, rng)
                  for _ in range(30)]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])
