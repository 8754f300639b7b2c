import numpy as np
import pytest
import hypothesis
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebmkit.compose import SummedEnergy
from ebmkit.errors import (ChainDivergedError, ConfigError, ContractError,
                           TrainingDivergedError)
from ebmkit.model import ACTIVATIONS, EnergyNet, ModelConfig
from ebmkit.sampler import LangevinConfig, ReplayBuffer
from ebmkit.trainer import (AdamState, TrainConfig, adam_step,
                            contrastive_gradient, contrastive_loss,
                            kl_finetune_loss, kl_finetune_step, train_step)

from helpers import (TapedQuadratic, central_diff, full_walk_kl_finetune_loss,
                     ks_oracle, relative_error, taped_contrastive_gradient,
                     taped_kl_finetune_loss)


class TestContrastiveLoss:
    def test_zero_energies_zero_loss(self):
        assert contrastive_loss(np.zeros(4), np.zeros(4), 1.0)[0] == 0.0

    def test_hand_arithmetic(self):
        # 1*(1 + 4) + 1 - 2 = 4; d/d e_pos = 2*1 + 1, d/d e_neg = 2*2 - 1
        loss, d_pos, d_neg = contrastive_loss([1.0], [2.0], 1.0)
        assert loss == pytest.approx(4.0)
        assert d_pos[0] == pytest.approx(3.0) and d_neg[0] == pytest.approx(3.0)

    def test_alpha_zero_is_plain_gap(self):
        rng = np.random.default_rng(0)
        e_pos = rng.normal(size=8)
        e_neg = rng.normal(size=8)
        loss = contrastive_loss(e_pos, e_neg, 0.0)[0]
        assert loss == pytest.approx((e_pos - e_neg).mean())

    def test_batch_mismatch_rejected(self):
        from ebmkit.errors import DimensionError
        with pytest.raises(DimensionError):
            contrastive_loss(np.zeros(4), np.zeros(3), 1.0)


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
        {"alpha": np.nan},
        {"adam_eps": 0.0},
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

    def test_no_view_outlives_a_weight_update(self, monkeypatch):
        """Two steps with frozen views in the chains equal, byte for byte,
        two steps where every view is the live net: no view taken before
        an Adam or spectral update is read after it."""
        def run():
            rng = np.random.default_rng(17)
            net = EnergyNet.init(ModelConfig(widths=(2, 16, 16, 1),
                                             num_classes=3), rng)
            buffer = ReplayBuffer(capacity=100)
            cfg = TrainConfig(lr=1e-2, batch_size=8,
                              langevin=LangevinConfig(steps=5))
            state = AdamState.for_parameters(net.parameters())
            for _ in range(2):
                train_step(net, rng.uniform(size=(8, 2)), buffer, cfg, state,
                           rng, labels=rng.integers(0, 3, size=8))
            arrays = [p for _, p in net.parameters()]
            arrays += [l.u for l in net.layers]
            arrays += [state.m[k] for k in state.m] + [state.v[k] for k in state.v]
            return [a.tobytes() for a in arrays + [buffer.snapshot()]]

        shipped = run()
        monkeypatch.setattr(EnergyNet, "frozen", lambda self: self)
        assert run() == shipped

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
        _, _, _, grads = contrastive_gradient(model, data, exact_neg, 0.0)
        g_mu = grads["mu"]
        se = np.sqrt(1.0 / n + 1.0 / n)
        np.testing.assert_allclose(g_mu, mu, atol=3 * se + 0.01)

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
        # so d loss / d mu = lam^2 mu > 0 for mu > 0. From any x0 in
        # [0, 1), x1 = (1 - lam) x0 + lam mu > 0, and d loss / d mu =
        # lam x1 > 0 still, so the uniform start of the step moves mu down.
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
        kl_finetune_step(net, snap,
                         TrainConfig(lr=1e-2, batch_size=1, langevin=lang),
                         state, np.random.default_rng(0))
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

    def test_sixteen_step_chain_matches_tape_oracle(self):
        net = tiny_net(seed=4, widths=(2, 6, 6, 1))
        snap = tiny_net(seed=5, widths=(2, 6, 6, 1))
        lang = LangevinConfig(steps=16, step_size=0.5, noise=0.01,
                              grad_clip=0.5, clamp=(0.0, 1.0))
        init = np.random.default_rng(6).uniform(size=(5, 2))
        loss, grads = kl_finetune_loss(net, snap, lang,
                                       np.random.default_rng(7), init)
        ref_loss, ref = taped_kl_finetune_loss(net, snap, lang,
                                               np.random.default_rng(7), init)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for name, _ in net.parameters():
            assert relative_error(grads[name], ref[name]) < 1e-10, name

    def test_non_finite_chain_gradient_raises(self):
        net = tiny_net(seed=8, widths=(2, 4, 1))
        net.layers[0].w[0, 0] = np.nan
        lang = LangevinConfig(steps=3, noise=0.0, grad_clip=10)
        with pytest.raises(ChainDivergedError):
            kl_finetune_loss(net, tiny_net(seed=9, widths=(2, 4, 1)), lang,
                             np.random.default_rng(0), np.zeros((2, 2)))

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


# -- closed-form parameter gradients against the tape and finite differences --

GRADIENT_SETTINGS = settings(max_examples=12, deadline=None, database=None)

model_shapes = dict(
    widths=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    activation=st.sampled_from(ACTIVATIONS),
    num_classes=st.sampled_from((0, 3)),
    spectral=st.booleans(),
    parts=st.sampled_from((0, 1, 2)),
    seed=st.integers(0, 2 ** 16))


def random_model(widths, activation, num_classes, spectral, parts, rng, rows):
    """A small EnergyNet with random FiLM gains and biases when parts is
    0 (with one label per row when conditional), else a SummedEnergy of
    that many such nets, each under a fixed label. Returns (model,
    labels)."""
    cfg = ModelConfig(widths=(*widths, 1), activation=activation,
                      num_classes=num_classes, spectral_norm=spectral)
    nets = []
    for _ in range(max(parts, 1)):
        net = EnergyNet.init(cfg, rng)
        for layer in net.layers:
            if layer.gamma is not None:
                layer.gamma = rng.normal(size=layer.gamma.shape)
                layer.beta = rng.normal(size=layer.beta.shape)
        nets.append(net)
    if parts == 0:
        labels = (None if num_classes == 0
                  else rng.integers(0, num_classes, size=rows))
        return nets[0], labels
    fixed = [None if num_classes == 0 else int(rng.integers(num_classes))
             for _ in nets]
    return SummedEnergy(list(zip(nets, fixed))), None


def copy_of(model):
    """A copy of an EnergyNet, or of each part of a SummedEnergy."""
    if isinstance(model, SummedEnergy):
        return SummedEnergy([(n.clone(), l) for n, l in model.parts])
    return model.clone()


@GRADIENT_SETTINGS
@given(alpha=st.floats(0.0, 2.0), **model_shapes)
def test_contrastive_gradient_matches_tape_and_finite_differences(
        widths, activation, num_classes, spectral, parts, seed, alpha):
    rng = np.random.default_rng(seed)
    rows = 3
    model, labels = random_model(widths, activation, num_classes, spectral,
                                 parts, rng, rows)
    batch = rng.uniform(-1.0, 2.0, size=(rows, widths[0]))
    x_neg = rng.uniform(-1.0, 2.0, size=(rows, widths[0]))
    _, _, loss, grads = contrastive_gradient(model, batch, x_neg, alpha, labels)
    ref_loss, ref = taped_contrastive_gradient(model, batch, x_neg, alpha,
                                               labels)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-14)

    for name, _ in model.parameters():
        assert relative_error(grads[name], ref[name]) < 1e-10, name

    def f(_):
        return contrastive_loss(model.energy(batch, labels),
                                model.energy(x_neg, labels), alpha)[0]

    # finite differences of the smooth activation only: a leaky ReLU
    # pre-activation can sit within one difference step of its kink
    if activation == "swish":
        for name, p in model.parameters():
            assert relative_error(grads[name], central_diff(f, p)) < 1e-5, name

    gx, _ = model.backward(batch, labels, r=np.ones(rows))
    np.testing.assert_array_equal(gx, model.grad_x(batch, labels))


def chain_margin(model, lang, init, seed, labels):
    """Smallest distance, along the chain, of a gradient component to the
    clip bound and of a pre-clamp state to the clamp bounds: a finite
    difference step smaller than this crosses no kink."""
    rng = np.random.default_rng(seed)
    x, margin = init.copy(), np.inf
    for _ in range(lang.steps):
        g = model.grad_x(x, labels)
        margin = min(margin, np.min(np.abs(np.abs(g) - lang.grad_clip)))
        new = x - lang.step_size * np.clip(g, -lang.grad_clip, lang.grad_clip)
        if lang.noise > 0:
            new = new + lang.noise * rng.normal(size=x.shape)
        if lang.clamp is not None:
            margin = min(margin, np.min(np.abs(new - lang.clamp[0])),
                         np.min(np.abs(new - lang.clamp[1])))
            new = np.clip(new, *lang.clamp)
        if lang.mask is not None:
            new = np.where(lang.mask, new, x)
        x = new
    return margin


@GRADIENT_SETTINGS
@given(steps=st.integers(0, 4), step_size=st.floats(0.05, 1.0),
       noise=st.booleans(), binding_clip=st.booleans(), clamp=st.booleans(),
       masked=st.booleans(), **model_shapes)
def test_kl_finetune_gradient_matches_tape_and_finite_differences(
        widths, activation, num_classes, spectral, parts, seed, steps,
        step_size, noise, binding_clip, clamp, masked):
    rng = np.random.default_rng(seed)
    rows, d = 3, widths[0]
    model, labels = random_model(widths, activation, num_classes, spectral,
                                 parts, rng, rows)
    snapshot = copy_of(model)
    for _, p in snapshot.parameters():
        p += 0.3 * rng.normal(size=p.shape)
    init = rng.uniform(size=(rows, d))
    # a binding clip sits just below the median gradient magnitude, so
    # about half the components are clipped at the first step; not at the
    # median itself, which is a component's magnitude and on the kink
    clip = (0.9 * float(np.median(np.abs(model.grad_x(init, labels))))
            if binding_clip else 1e3)
    lang = LangevinConfig(steps=steps, step_size=step_size,
                          noise=0.01 if noise else 0.0,
                          grad_clip=max(clip, 1e-6),
                          clamp=(0.0, 1.0) if clamp else None,
                          mask=rng.random(d) < 0.5 if masked else None)
    loss, grads = kl_finetune_loss(model, snapshot, lang,
                                   np.random.default_rng(seed), init, labels)
    ref_loss, ref = taped_kl_finetune_loss(model, snapshot, lang,
                                           np.random.default_rng(seed), init,
                                           labels)
    assert loss == pytest.approx(ref_loss, rel=1e-10, abs=1e-12)
    for name, _ in model.parameters():
        assert relative_error(grads[name], ref[name]) < 1e-10, name

    # finite differences only where no parameter step can cross a kink of
    # the activation, the clip or the clamp; the tape covers the rest
    if (activation != "swish"
            or chain_margin(model, lang, init, seed, labels) < 1e-3):
        return

    def f(_):
        return kl_finetune_loss(model, snapshot, lang,
                                np.random.default_rng(seed), init, labels)[0]

    for name, p in model.parameters():
        assert relative_error(grads[name], central_diff(f, p)) < 1e-4, name


# -- skipping the reverse passes of zero-tangent steps ------------------------

def assert_same_bits(loss, grads, ref_loss, ref):
    assert np.array_equal(loss, ref_loss)
    assert np.signbit(loss) == np.signbit(ref_loss)
    assert grads.keys() == ref.keys()
    for name, g in grads.items():
        assert np.array_equal(g, ref[name]), name
        assert np.array_equal(np.signbit(g), np.signbit(ref[name])), name


@hypothesis.seed(1903)
@settings(max_examples=100, deadline=None, database=None)
@given(rows=st.integers(1, 4), steps=st.integers(0, 6),
       log_step=st.floats(-6.0, 0.7),
       clip=st.sampled_from(("all", "binding", "loose")),
       clamp=st.sampled_from(("off", "on", "cornered")), masked=st.booleans(),
       **model_shapes)
@example(rows=4, steps=0, log_step=0.0, clip="loose", clamp="off",
         masked=False, widths=[2, 3], activation="swish", num_classes=0,
         spectral=False, parts=0, seed=1)
@example(rows=4, steps=5, log_step=0.7, clip="binding", clamp="cornered",
         masked=True, widths=[2, 4], activation="leaky_relu", num_classes=3,
         spectral=True, parts=0, seed=2)
@example(rows=4, steps=3, log_step=-6.0, clip="loose", clamp="on",
         masked=False, widths=[2, 4], activation="swish", num_classes=3,
         spectral=False, parts=2, seed=3)
# walks that skip a step and then take a reverse pass at an earlier one
@example(rows=2, steps=6, log_step=0.5, clip="binding", clamp="off",
         masked=False, widths=[1, 3], activation="leaky_relu", num_classes=3,
         spectral=False, parts=2, seed=43651)
@example(rows=3, steps=6, log_step=-0.3, clip="binding", clamp="on",
         masked=True, widths=[1, 1, 3], activation="swish", num_classes=0,
         spectral=True, parts=0, seed=62033)
@example(rows=3, steps=6, log_step=0.0, clip="binding", clamp="cornered",
         masked=True, widths=[3, 2], activation="leaky_relu", num_classes=3,
         spectral=True, parts=2, seed=33415)
@example(rows=1, steps=6, log_step=-1.0, clip="binding", clamp="on",
         masked=False, widths=[3, 4, 2], activation="swish", num_classes=3,
         spectral=False, parts=0, seed=44731)
def test_kl_finetune_loss_matches_the_full_walk_bit_for_bit(
        widths, activation, num_classes, spectral, parts, seed, rows, steps,
        log_step, clip, clamp, masked):
    """Skipping a step whose tangent is all zeros changes no bit of the
    loss or of any gradient, sign bits of zeros included. The clip
    modes clip every component, about half of them at the start, or
    none; step sizes down to 1e-6 give tangents that are tiny but not
    zero, and "cornered" chains start on the corners of the clamp's
    box."""
    step_size = 10.0 ** log_step
    rng = np.random.default_rng(seed)
    d = widths[0]
    model, labels = random_model(widths, activation, num_classes, spectral,
                                 parts, rng, rows)
    snapshot = copy_of(model)
    for _, p in snapshot.parameters():
        p += 0.3 * rng.normal(size=p.shape)
    init = rng.uniform(size=(rows, d))
    if clamp == "cornered":
        init = np.round(init)
    magnitude = float(np.median(np.abs(model.grad_x(init, labels))))
    grad_clip = {"all": 1e-12, "binding": max(0.9 * magnitude, 1e-6),
                 "loose": 1e3}[clip]
    lang = LangevinConfig(steps=steps, step_size=step_size, noise=0.01,
                          grad_clip=grad_clip,
                          clamp=None if clamp == "off" else (0.0, 1.0),
                          mask=rng.random(d) < 0.5 if masked else None)
    loss, grads = kl_finetune_loss(model, snapshot, lang,
                                   np.random.default_rng(seed), init, labels)
    ref_loss, ref = full_walk_kl_finetune_loss(
        model, snapshot, lang, np.random.default_rng(seed), init, labels)
    assert_same_bits(loss, grads, ref_loss, ref)


class TestZeroTangentSkip:
    @pytest.fixture
    def backward_calls(self, monkeypatch):
        calls = []
        backward = EnergyNet.backward

        def counted(net, *args, **kwargs):
            calls.append(net)
            return backward(net, *args, **kwargs)

        monkeypatch.setattr(EnergyNet, "backward", counted)
        return calls

    def pair(self):
        parts = [(tiny_net(seed=21, widths=(2, 8, 1)), None),
                 (tiny_net(seed=22, widths=(2, 8, 1)), None)]
        model = SummedEnergy(parts)
        return model, copy_of(model)

    def test_fully_clipped_chain_takes_no_reverse_pass(self, backward_calls):
        model, snapshot = self.pair()
        lang = LangevinConfig(steps=6, step_size=0.5, noise=0.01,
                              grad_clip=1e-12, clamp=(0.0, 1.0))
        init = np.random.default_rng(23).uniform(size=(5, 2))
        loss, grads = kl_finetune_loss(model, snapshot, lang,
                                       np.random.default_rng(24), init)
        assert backward_calls == []
        for name, g in grads.items():
            assert np.all(g == 0.0) and not np.any(np.signbit(g)), name
        ref_loss, ref = full_walk_kl_finetune_loss(
            model, snapshot, lang, np.random.default_rng(24), init)
        assert len(backward_calls) == 6 * 2
        assert_same_bits(loss, grads, ref_loss, ref)

    def test_free_chain_takes_one_pass_per_step_and_component(
            self, backward_calls):
        model, snapshot = self.pair()
        for _, p in snapshot.parameters():
            p += 0.3
        lang = LangevinConfig(steps=6, step_size=0.05, noise=0.01,
                              grad_clip=1e3)
        init = np.random.default_rng(25).uniform(size=(5, 2))
        kl_finetune_loss(model, snapshot, lang, np.random.default_rng(26),
                         init)
        assert len(backward_calls) == 6 * 2
