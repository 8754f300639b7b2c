"""Tests for summed-energy composition, joint sampling, and fine-tuning."""

import numpy as np
import pytest

from ebmkit.compose import SummedEnergy, finetune_combination, joint_sample
from ebmkit.datagen import mini_sprites
from ebmkit.errors import ConfigError, DimensionError, LabelError
from ebmkit.model import EnergyNet, ModelConfig
from ebmkit.sampler import LangevinConfig, ReplayBuffer, run_chain
from ebmkit.trainer import AdamState, TrainConfig, train_step

from helpers import QuadraticEnergy, energy_config


class RidgeEnergy:
    """Quadratic trough: low along the line x[axis] == value."""

    def __init__(self, axis, value, curvature, dim=2):
        self.axis = axis
        self.value = value
        self.k = curvature
        self.config = energy_config(dim)

    def energy(self, x, labels=None):
        d = x[:, self.axis] - self.value
        return 0.5 * self.k * d * d

    def frozen(self):
        return self

    def grad_x(self, x, labels=None):
        g = np.zeros_like(x)
        g[:, self.axis] = self.k * (x[:, self.axis] - self.value)
        return g


def _random_net(seed, widths=(2, 16, 1)):
    cfg = ModelConfig(widths=widths, spectral_norm=False)
    return EnergyNet.init(cfg, np.random.default_rng(seed))


# ----------------------------------------------------------- SummedEnergy

def test_single_model_sum_is_identity():
    net = _random_net(0)
    summed = SummedEnergy([(net, None)])
    x = np.random.default_rng(1).uniform(size=(32, 2))
    assert np.array_equal(summed.energy(x), net.energy(x))
    assert np.array_equal(summed.grad_x(x), net.grad_x(x))


def test_summed_quadratics_minimized_at_midpoint():
    a = QuadraticEnergy(mu=[0.0], prec=[[4.0]])
    b = QuadraticEnergy(mu=[2.0], prec=[[4.0]])
    summed = SummedEnergy([(a, None), (b, None)])
    mid = np.array([[1.0]])
    assert abs(summed.grad_x(mid)[0, 0]) < 1e-12
    off = summed.energy(np.array([[0.9], [1.1]]))
    assert np.all(summed.energy(mid) < off)


def test_grad_of_sum_is_sum_of_grads():
    n1, n2 = _random_net(2), _random_net(3, widths=(2, 8, 8, 1))
    summed = SummedEnergy([(n1, None), (n2, None)])
    x = np.random.default_rng(4).uniform(size=(16, 2))
    expected = n1.grad_x(x) + n2.grad_x(x)
    assert np.allclose(summed.grad_x(x), expected, atol=1e-12)
    assert np.allclose(summed.energy(x), n1.energy(x) + n2.energy(x),
                       atol=1e-12)


def test_sum_rejects_dimension_mismatch():
    a = QuadraticEnergy(mu=[0.5], prec=[[1.0]])
    b = QuadraticEnergy(mu=[0.5, 0.5], prec=np.eye(2).tolist())
    with pytest.raises(DimensionError):
        SummedEnergy([(a, None), (b, None)])


def test_sum_rejects_empty_model_list():
    with pytest.raises(ConfigError):
        SummedEnergy([])


def test_sum_validates_labels():
    uncond = _random_net(5)
    cond = EnergyNet.init(ModelConfig(widths=(2, 8, 1), num_classes=3,
                                      spectral_norm=False),
                          np.random.default_rng(6))
    with pytest.raises(LabelError):
        SummedEnergy([(uncond, 1)])
    with pytest.raises(LabelError):
        SummedEnergy([(cond, None)])
    for label in (3, -1, 1.5, True, "1"):
        with pytest.raises(LabelError):
            SummedEnergy([(cond, label)])
    summed = SummedEnergy([(cond, 2)])
    x = np.random.default_rng(7).uniform(size=(4, 2))
    with pytest.raises(LabelError):
        summed.energy(x, labels=np.zeros(4, dtype=int))


# ----------------------------------------------------------- joint_sample

def _ridge_pair():
    return [(RidgeEnergy(0, 0.3, 800.0), None),
            (RidgeEnergy(1, 0.7, 800.0), None)]


def _analytic_chain_config(steps=400):
    # temperature-1 coupling: noise = sqrt(2 * step) targets exp(-E);
    # h * curvature stays small so the discretization bias is a few percent
    h = 1e-4
    return LangevinConfig(steps=steps, step_size=h, noise=np.sqrt(2 * h),
                          grad_clip=1e9, clamp=(0.0, 1.0))


def test_joint_samples_land_on_ridge_intersection():
    samples = joint_sample(_ridge_pair(), _analytic_chain_config(),
                           np.random.default_rng(8), n=400)
    close = np.all(np.abs(samples - [0.3, 0.7]) < 0.1, axis=1)
    assert close.mean() >= 0.9


def test_single_component_joint_sampling_matches_run_chain():
    net = _random_net(10)
    cfg = LangevinConfig(steps=30, clamp=(0.0, 1.0))
    a = joint_sample([(net, None)], cfg, np.random.default_rng(12), n=8)
    rng = np.random.default_rng(12)
    b = run_chain(rng.uniform(size=(8, 2)), net, cfg, rng)
    assert np.array_equal(a, b)


def test_product_of_gaussians_moments():
    # N(0, 0.25^2) * N(2, 0.25^2) = N(1, 0.25^2 / 2)
    prec = 1.0 / 0.25 ** 2
    a = QuadraticEnergy(mu=[0.0], prec=[[prec]])
    b = QuadraticEnergy(mu=[2.0], prec=[[prec]])
    h = 1e-3
    cfg = LangevinConfig(steps=400, step_size=h, noise=np.sqrt(2 * h),
                         grad_clip=1e9, clamp=None)
    rng = np.random.default_rng(13)
    init = rng.uniform(size=(4096, 1)) + 0.5
    samples = run_chain(init, SummedEnergy([(a, None), (b, None)]), cfg, rng)
    target_var = 0.25 ** 2 / 2
    n = samples.shape[0]
    se_mean = np.sqrt(target_var / n)
    se_var = target_var * np.sqrt(2.0 / (n - 1))
    assert abs(samples.mean() - 1.0) < 3 * se_mean
    assert abs(samples.var(ddof=1) - target_var) < 3 * se_var


def test_joint_samples_score_low_under_every_component():
    models = _ridge_pair()
    rng = np.random.default_rng(14)
    samples = joint_sample(models, _analytic_chain_config(), rng, n=400)
    for net, _ in models:
        own = np.full((2000, 2), 0.5)
        own[:, net.axis] = net.value + rng.normal(size=2000) / np.sqrt(net.k)
        threshold = np.percentile(net.energy(own), 95)
        below = net.energy(samples) < threshold
        assert below.mean() >= 0.9


# ---------------------------------------------------------- fine-tuning

def _finetune_config():
    chain = LangevinConfig(steps=5, step_size=0.05, noise=0.005,
                           grad_clip=0.05, clamp=(0.0, 1.0))
    return TrainConfig(lr=1e-3, batch_size=32, langevin=chain)


def test_zero_epoch_finetune_returns_unchanged_copies():
    nets = [_random_net(15), _random_net(16)]
    tuned = finetune_combination(nets, [(None, None)], _finetune_config(),
                                 np.random.default_rng(17), epochs=0)
    for orig, new in zip(nets, tuned):
        assert new is not orig
        for (_, p0), (_, p1) in zip(orig.parameters(), new.parameters()):
            assert np.array_equal(p0, p1)


def test_finetune_lowers_target_energy_of_chain_endpoints():
    rng = np.random.default_rng(18)
    nets = [_random_net(19, widths=(2, 16, 1)),
            _random_net(20, widths=(2, 16, 1))]
    cfg = _finetune_config()
    combos = [(None, None)]
    tuned = finetune_combination(nets, combos, cfg, rng, epochs=30)

    frozen = SummedEnergy([(n, None) for n in nets])

    def endpoint_energy(model_nets, seed):
        view = SummedEnergy([(n, None) for n in model_nets])
        r = np.random.default_rng(seed)
        x0 = r.uniform(size=(256, 2))
        x = run_chain(x0, view, cfg.langevin, r)
        return float(frozen.energy(x).mean())

    before = endpoint_energy(nets, 100)
    after = endpoint_energy(tuned, 100)
    assert after < before


def test_finetune_validates_combination_arity():
    nets = [_random_net(21), _random_net(22)]
    with pytest.raises(LabelError):
        finetune_combination(nets, [(None,)], _finetune_config(),
                             np.random.default_rng(23))
    with pytest.raises(ConfigError):
        finetune_combination(nets, [(None, None)], _finetune_config(),
                             np.random.default_rng(24), epochs=-1)
    # every combination is checked up front, even when no epoch runs
    with pytest.raises(LabelError):
        finetune_combination(nets, [(None, None), (1, None)],
                             _finetune_config(), np.random.default_rng(25),
                             epochs=0)


# --------------------------------------- size and position sprite experts

_SIZES = [0.25, 0.40, 0.55]
_POSITIONS = [0.35, 0.5, 0.65]
# The size expert sees every size only at the center; the position expert
# sees every position only at the smallest size.  That leaves (size 1,
# position 0) unobserved by either, so hitting it requires composition.
_OBSERVED = [(0, 1), (1, 1), (2, 1), (0, 0), (0, 2)]


def _sprite_sets(rng):
    img_a, lab_a, img_b, lab_b = [], [], [], []
    for i, s in enumerate(_SIZES):
        imgs, _ = mini_sprites(["square"], [0.5], [0.5], [s],
                               n_per_combo=40, noise=0.02, rng=rng)
        img_a.append(imgs.reshape(-1, 256))
        lab_a.append(np.full(40, i))
    for j, p in enumerate(_POSITIONS):
        imgs, _ = mini_sprites(["square"], [p], [0.5], [_SIZES[0]],
                               n_per_combo=40, noise=0.02, rng=rng)
        img_b.append(imgs.reshape(-1, 256))
        lab_b.append(np.full(40, j))
    return (np.concatenate(img_a), np.concatenate(lab_a),
            np.concatenate(img_b), np.concatenate(lab_b))


def _train_expert(x, y, seed, steps=400):
    net = EnergyNet.init(ModelConfig(widths=(256, 64, 64, 1), num_classes=3,
                                     spectral_norm=False),
                         np.random.default_rng(seed))
    buf = ReplayBuffer(capacity=5000)
    lcfg = LangevinConfig(steps=40, clamp=(0.0, 1.0))
    rng = np.random.default_rng(seed + 1)
    state = AdamState.for_parameters(net.parameters())
    for step in range(steps):
        lr = 1e-3 if step < steps * 2 // 3 else 1e-4
        cfg = TrainConfig(lr=lr, batch_size=32, langevin=lcfg)
        idx = rng.integers(0, x.shape[0], size=32)
        train_step(net, x[idx], buf, cfg, state, rng, labels=y[idx])
    return net


def _sprite_stats(img):
    """Measured side length and column centroid of a flat 16x16 sprite."""
    img = img.reshape(16, 16)
    total = img.sum()
    side = np.sqrt(total) / 16
    cell = (np.arange(16) + 0.5) / 16
    cx = (img.sum(axis=0) * cell).sum() / total
    return side, cx


@pytest.fixture(scope="module")
def sprite_experts():
    rng = np.random.default_rng(42)
    xa, ya, xb, yb = _sprite_sets(rng)
    raw = [_train_expert(xa, ya, seed=100), _train_expert(xb, yb, seed=200)]
    chain = LangevinConfig(steps=8, step_size=5.0, noise=0.005,
                           grad_clip=0.01, clamp=(0.0, 1.0))
    cfg = TrainConfig(lr=3e-4, batch_size=32, langevin=chain)
    tuned = finetune_combination(raw, _OBSERVED, cfg,
                                 np.random.default_rng(400), epochs=20)
    return {"raw": raw, "tuned": tuned, "size": (xa, ya), "pos": (xb, yb)}


def _unseen_pair_hits(experts, size_bin=1, pos_bin=0, n=20):
    samples = joint_sample([(experts[0], size_bin), (experts[1], pos_bin)],
                           LangevinConfig(steps=150, clamp=(0.0, 1.0)),
                           np.random.default_rng(300), n=n)
    wins = 0
    for row in samples:
        side, cx = _sprite_stats(row)
        wins += (abs(side - _SIZES[size_bin]) < 0.15
                 and abs(cx - _POSITIONS[pos_bin]) < 0.15)
    return wins


def test_finetuning_rescues_unseen_size_position_pair(sprite_experts):
    # A hit is both measured latents within one bin spacing (0.15) of the
    # conditioned values.  The raw sum misses the bar that the tuned sum
    # must clear.
    assert _unseen_pair_hits(sprite_experts["raw"]) < 14
    assert _unseen_pair_hits(sprite_experts["tuned"]) >= 14


def test_finetuned_experts_still_fit_training_data(sprite_experts):
    tuned = sprite_experts["tuned"]
    xa, ya = sprite_experts["size"]
    xb, yb = sprite_experts["pos"]
    noise_rng = np.random.default_rng(1234)
    for combo in _OBSERVED:
        view = SummedEnergy(list(zip(tuned, combo)))
        if combo[1] == 1:
            data = xa[ya == combo[0]]
        else:
            data = xb[yb == combo[1]]
        e_data = view.energy(data)
        e_noise = view.energy(noise_rng.uniform(size=(500, 256)))
        assert np.mean(e_data < np.percentile(e_noise, 90)) >= 0.9
