import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebmkit.errors import (ConfigError, DataError, DegenerateEstimateError,
                           DimensionError, LabelError, NonFiniteEnergyError)
from ebmkit.metrics import (QUADRATURE_CHUNK, QUADRATURE_MAX_CELLS, AISConfig,
                            ais_logZ, auroc, class_energies, energy_classify,
                            finite_energy, frechet_gaussian, ks_statistic,
                            log_partition_quadrature, metric_csv_row,
                            mode_coverage, pgd_attack, raise_logZ,
                            refined_classify, rng_after_ais)
from ebmkit.model import EnergyNet, ModelConfig
from ebmkit.sampler import LangevinConfig, ReplayBuffer, rng_after_chains
from ebmkit.trainer import AdamState, TrainConfig, train_step

from helpers import (CallCounter, QuadraticEnergy, energy_config, ks_oracle,
                     one_call_quadrature, pgd_attack_reference,
                     recomputing_logZ)


class FlatEnergy:
    """E identically constant; Z = exp(-c) * volume."""

    def __init__(self, c=0.0, dim=1):
        self.c = c
        self.config = energy_config(dim)

    def energy(self, x, labels=None):
        return np.full(np.asarray(x).shape[0], float(self.c))

    def frozen(self):
        return self

    def grad_x(self, x, labels=None, *, with_energy=False):
        g = np.zeros_like(np.asarray(x, dtype=np.float64))
        return (self.energy(x), g) if with_energy else g


class BottomlessEnergy:
    """E = +inf everywhere: every annealing weight vanishes."""

    config = energy_config(1)

    def energy(self, x, labels=None):
        return np.full(np.asarray(x).shape[0], np.inf)

    def frozen(self):
        return self

    def grad_x(self, x, labels=None, *, with_energy=False):
        g = np.zeros_like(np.asarray(x, dtype=np.float64))
        return (self.energy(x), g) if with_energy else g


class TwoCenterEnergy:
    """Conditional stub: E(x, y) = 0.5 * k * ||x - c_y||^2 + offset_y."""

    def __init__(self, centers, k=1.0, offsets=None):
        self.centers = np.asarray(centers, dtype=np.float64)
        self.k = k
        self.offsets = (np.zeros(len(self.centers)) if offsets is None
                        else np.asarray(offsets, dtype=np.float64))

        class _Cfg:
            pass

        self.config = _Cfg()
        self.config.num_classes = len(self.centers)
        self.config.input_dim = self.centers.shape[1]

    def energy(self, x, labels=None):
        x = np.asarray(x, dtype=np.float64)
        delta = x - self.centers[labels]
        return 0.5 * self.k * (delta ** 2).sum(axis=1) + self.offsets[labels]

    def frozen(self):
        return self

    def grad_x(self, x, labels=None, *, with_energy=False):
        x = np.asarray(x, dtype=np.float64)
        g = self.k * (x - self.centers[labels])
        return (self.energy(x, labels), g) if with_energy else g


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_standard_gaussian_1d():
    net = QuadraticEnergy(mu=[0.0], prec=[[1.0]])
    logz = log_partition_quadrature(net, (-10.0, 10.0), 1e-3)
    assert abs(logz - 0.5 * np.log(2.0 * np.pi)) < 1e-4


def test_quadrature_zero_energy_unit_interval():
    logz = log_partition_quadrature(FlatEnergy(0.0), (0.0, 1.0), 1e-3)
    assert abs(logz) < 1e-12


def test_quadrature_constant_shift():
    c, lo, hi = 2.5, -1.0, 3.0
    logz = log_partition_quadrature(FlatEnergy(c), (lo, hi), 1e-3)
    assert abs(logz - (-c + np.log(hi - lo))) < 1e-10


def test_quadrature_matches_closed_form_2d():
    net = QuadraticEnergy(mu=[0.2, -0.1], prec=np.diag([2.0, 0.5]))
    logz = log_partition_quadrature(net, (-8.0, 8.0), 0.01)
    assert abs(logz - net.log_partition()) < 1e-4


@pytest.mark.parametrize("widths,activation,resolution", [
    ((2, 64, 64, 1), "swish", 0.01),
    ((2, 64, 64, 1), "leaky_relu", 0.01),
    ((1, 64, 64, 1), "swish", 1e-4),
])
def test_chunked_quadrature_matches_one_call_bit_for_bit(widths, activation,
                                                         resolution):
    net = EnergyNet.init(ModelConfig(widths=widths, activation=activation),
                         np.random.default_rng(3))
    rows = round(1.0 / resolution) ** widths[0]
    assert rows > 2 * QUADRATURE_CHUNK and rows % QUADRATURE_CHUNK
    assert (log_partition_quadrature(net, (0.0, 1.0), resolution)
            == one_call_quadrature(net, 0.0, 1.0, resolution))


def test_quadrature_rejects_high_dimension():
    net = QuadraticEnergy(dim=3)
    with pytest.raises(DimensionError):
        log_partition_quadrature(net, (-1, 1), 0.1)


@pytest.mark.parametrize("dim,resolution", [
    (1, 1e-300), (2, 1e-300), (1, 1.0 / (QUADRATURE_MAX_CELLS + 1)),
    (2, 1.0 / 2049)])
def test_quadrature_rejects_a_grid_past_the_cell_cap(dim, resolution):
    """The cell count is checked before any grid array is built: a
    2049 x 2049 grid is just past 2**22 cells."""
    net = EnergyNet.init(ModelConfig(widths=(dim, 4, 1)),
                         np.random.default_rng(0))
    with pytest.raises(ConfigError, match="resolution"):
        log_partition_quadrature(net, (0.0, 1.0), resolution)


def test_quadrature_rejects_bad_bounds():
    with pytest.raises(ConfigError):
        log_partition_quadrature(FlatEnergy(), (1.0, 1.0), 0.1)
    with pytest.raises(ConfigError):
        log_partition_quadrature(FlatEnergy(), (0.0, 1.0), 0.0)


# ---------------------------------------------------------------------------
# AIS / RAISE


def test_ais_config_ladder_strictly_increasing():
    betas = AISConfig(temps=100).ladder()
    assert betas[0] == 0.0 and betas[-1] == 1.0
    assert np.all(np.diff(betas) > 0)


def test_ais_config_validation():
    with pytest.raises(ConfigError):
        AISConfig(chains=0)
    with pytest.raises(ConfigError):
        AISConfig(step_size=0.0)
    for value in (np.inf, np.nan):
        with pytest.raises(ConfigError):
            AISConfig(step_size=value)


def test_ais_target_equals_base_exact_zero():
    cfg = AISConfig(chains=32, temps=20, step_size=0.05)
    est, se = ais_logZ(FlatEnergy(0.0, dim=2), cfg, np.random.default_rng(0))
    assert est == 0.0
    assert se == 0.0  # all weights equal


def test_ais_single_temperature_is_base_partition():
    cfg = AISConfig(chains=16, temps=1, step_size=0.05)
    est, _ = ais_logZ(FlatEnergy(0.0, dim=1), cfg, np.random.default_rng(0))
    assert est == 0.0


def test_raise_target_equals_base_exact_zero():
    cfg = AISConfig(chains=32, temps=20, step_size=0.05)
    rng = np.random.default_rng(0)
    samples = rng.uniform(size=(64, 2))
    est = raise_logZ(FlatEnergy(0.0, dim=2), cfg, rng, samples)
    assert est == 0.0


def test_ais_degenerate_weights_error():
    cfg = AISConfig(chains=8, temps=5, step_size=0.05)
    with pytest.raises(DegenerateEstimateError):
        ais_logZ(BottomlessEnergy(), cfg, np.random.default_rng(0))


def test_raise_infinite_weight_error():
    """A sample at energy +inf has an infinite reverse weight; the upper
    bound used to come out NaN."""
    cfg = AISConfig(chains=8, temps=5, step_size=0.05)
    rng = np.random.default_rng(0)
    with pytest.raises(DegenerateEstimateError, match="infinite"):
        raise_logZ(BottomlessEnergy(), cfg, rng, rng.uniform(size=(4, 1)))


class SpoiltEnergy(FlatEnergy):
    """Flat, but row 0 of the energy or the gradient of the at-th grad_x
    pass is value."""

    def __init__(self, field, value, at):
        super().__init__(0.0, dim=2)
        self.field, self.value, self.at, self.calls = field, value, at, 0

    def grad_x(self, x, labels=None, *, with_energy=False):
        e, g = super().grad_x(x, with_energy=True)
        self.calls += 1
        if self.calls == self.at:
            (e if self.field == "energy" else g)[0] = self.value
        return e, g


@pytest.mark.parametrize("at", [1, 3])
@pytest.mark.parametrize("field,value", [
    ("energy", np.nan), ("energy", -np.inf), ("gradient", np.nan),
    ("gradient", np.inf)])
@pytest.mark.parametrize("estimator", ["ais", "raise"])
def test_estimators_refuse_values_that_are_not_finite(estimator, field,
                                                      value, at):
    """At the first pass or one inside a sweep, with no numpy warning on
    the way; an energy of +inf is a point of zero density instead."""
    cfg = AISConfig(chains=4, temps=3, step_size=0.05)
    net = SpoiltEnergy(field, value, at)
    rng = np.random.default_rng(0)
    with warnings.catch_warnings(record=True) as caught, \
            pytest.raises(NonFiniteEnergyError):
        warnings.simplefilter("always")
        if estimator == "ais":
            ais_logZ(net, cfg, rng)
        else:
            raise_logZ(net, cfg, rng, rng.uniform(size=(4, 2)))
    assert not caught, [str(w.message) for w in caught]


def test_quadrature_refuses_an_energy_that_is_not_finite():
    with pytest.raises(NonFiniteEnergyError):
        log_partition_quadrature(BottomlessEnergy(), (0.0, 1.0), 0.1)


def _narrow_quadratic_1d():
    # Boltzmann density on [0, 1] is close to N(0.5, 0.1^2)
    return QuadraticEnergy(mu=[0.5], prec=[[100.0]])


def _truncated_gaussian_samples(n, rng):
    out = np.empty((0, 1))
    while out.shape[0] < n:
        draw = 0.5 + 0.1 * rng.normal(size=(2 * n, 1))
        keep = draw[(draw[:, 0] >= 0.0) & (draw[:, 0] <= 1.0)]
        out = np.concatenate([out, keep])
    return out[:n]


def test_ais_matches_quadrature_1d():
    net = _narrow_quadratic_1d()
    truth = log_partition_quadrature(net, (0.0, 1.0), 1e-4)
    cfg = AISConfig(chains=256, temps=100, transitions=2, step_size=0.01)
    est, _ = ais_logZ(net, cfg, np.random.default_rng(7))
    assert abs(est - truth) < 0.1


def test_bracket_contains_quadrature_1d():
    # Per-run containment is only reliable when annealing bias dominates
    # Monte Carlo noise.  A well-mixed ladder on an easy target straddles
    # the truth like a coin flip, so this pins a sharp target with a short
    # ladder and single chains, where each side lags by design.
    net = QuadraticEnergy(mu=[0.5], prec=[[1e5]])
    truth = log_partition_quadrature(net, (0.0, 1.0), 1e-5)
    cfg = AISConfig(chains=1, temps=6, transitions=1, step_size=1e-3)
    hits = 0
    runs = 50
    for seed in range(runs):
        rng = np.random.default_rng(1000 + seed)
        out = np.empty((0, 1))
        while out.shape[0] < 8:
            draw = 0.5 + 1e5 ** -0.5 * rng.normal(size=(64, 1))
            out = np.concatenate(
                [out, draw[(draw[:, 0] >= 0.0) & (draw[:, 0] <= 1.0)]])
        lower, _ = ais_logZ(net, cfg, rng)
        upper = raise_logZ(net, cfg, rng, out[:8])
        if lower <= truth <= upper:
            hits += 1
    assert hits >= int(0.9 * runs)


def test_bracket_width_shrinks_with_temperatures():
    net = _narrow_quadratic_1d()
    widths = {}
    for temps in (10, 100, 1000):
        cfg = AISConfig(chains=64, temps=temps, transitions=1, step_size=0.01)
        per_seed = []
        for seed in range(3):
            rng = np.random.default_rng(50 + seed)
            samples = _truncated_gaussian_samples(128, rng)
            lower, _ = ais_logZ(net, cfg, rng)
            upper = raise_logZ(net, cfg, rng, samples)
            per_seed.append(upper - lower)
        widths[temps] = float(np.median(per_seed))
    assert widths[10] > widths[100] > widths[1000]


def test_ais_standard_error_scales_with_chains():
    net = _narrow_quadratic_1d()
    ses = {}
    for chains in (128, 256):
        cfg = AISConfig(chains=chains, temps=50, transitions=1, step_size=0.01)
        vals = [ais_logZ(net, cfg, np.random.default_rng(300 + s))[1]
                for s in range(6)]
        ses[chains] = float(np.mean(vals))
    ratio = ses[128] / ses[256]
    assert 1.15 < ratio < 1.75  # expect ~sqrt(2)


def _spectral_net():
    net = EnergyNet.init(ModelConfig(widths=(2, 16, 16, 1)),
                         np.random.default_rng(40))
    net.layers[-1].w *= 4.0   # a target worth annealing towards
    return net


def test_estimates_match_recomputing_sweep_bit_for_bit():
    """Carrying energies and gradients through the MALA sweep changes
    the call count, not a single bit of either estimate."""
    net = _spectral_net()
    cfg = AISConfig(chains=48, temps=12, transitions=2, step_size=0.02)
    samples = np.random.default_rng(41).uniform(size=(32, 2))
    lower, _ = ais_logZ(net, cfg, np.random.default_rng(42))
    assert lower == recomputing_logZ(net, cfg, np.random.default_rng(42))
    upper = raise_logZ(net, cfg, np.random.default_rng(43), samples)
    assert upper == recomputing_logZ(net, cfg, np.random.default_rng(43),
                                     samples)


@pytest.mark.parametrize("temps,transitions", [(12, 2), (5, 1), (4, 0), (1, 3)])
def test_estimators_call_energy_and_grad_once_per_transition(temps, transitions):
    """Energy and gradient come from one grad_x call per transition (and
    one for the initial state); energy is never called on its own."""
    cfg = AISConfig(chains=8, temps=temps, transitions=transitions,
                    step_size=0.05)
    expected = {"energy": 0, "grad_x": 1 + (temps - 1) * transitions}
    counted = CallCounter(_spectral_net())
    ais_logZ(counted, cfg, np.random.default_rng(0))
    assert counted.calls == expected
    counted = CallCounter(_spectral_net())
    raise_logZ(counted, cfg, np.random.default_rng(0),
               np.random.default_rng(1).uniform(size=(8, 2)))
    assert counted.calls == expected


@pytest.mark.parametrize("chains,temps,transitions,dim", [
    (8, 12, 2, 2), (1, 5, 1, 1), (16, 4, 0, 3), (4, 1, 3, 2), (3, 1, 0, 1)])
def test_rng_after_ais_matches_the_state_ais_leaves(chains, temps,
                                                    transitions, dim):
    """rng_after_ais(rng) is where ais_logZ leaves rng, and rng itself
    does not move."""
    cfg = AISConfig(chains=chains, temps=temps, transitions=transitions,
                    step_size=0.05)
    net = EnergyNet.init(ModelConfig(widths=(dim, 4, 1)),
                         np.random.default_rng(dim))
    rng = np.random.default_rng(chains * 100 + temps)
    before = copy.deepcopy(rng.bit_generator.state)
    skipped = rng_after_ais(rng, cfg, dim)
    assert rng.bit_generator.state == before
    ais_logZ(net, cfg, rng)
    assert skipped.bit_generator.state == rng.bit_generator.state


def test_raise_rejects_empty_samples():
    cfg = AISConfig(chains=8, temps=5, step_size=0.05)
    with pytest.raises(DataError):
        raise_logZ(FlatEnergy(0.0, dim=2), cfg, np.random.default_rng(0),
                   np.empty((0, 2)))


def test_raise_rejects_dimension_mismatch():
    cfg = AISConfig(chains=8, temps=5, step_size=0.05)
    with pytest.raises(DimensionError):
        raise_logZ(FlatEnergy(0.0, dim=2), cfg, np.random.default_rng(0),
                   np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# AUROC


def test_auroc_perfect_separation():
    assert auroc([4.0, 5.0, 6.0], [1.0, 2.0, 3.0]) == 1.0


def test_auroc_identical_distributions_near_half():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=1000), rng.normal(size=1000)
    assert abs(auroc(a, b) - 0.5) < 0.03


def test_auroc_tie_handling_hand_case():
    # pairs: (1,1) ties -> 0.5, (1,0) win, (2,1) win, (2,0) win
    assert auroc([1.0, 2.0], [1.0, 0.0]) == pytest.approx(3.5 / 4.0)


def test_auroc_monotone_transform_invariant():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=200), rng.normal(loc=0.5, size=300)
    base = auroc(a, b)
    assert auroc(3.0 * a + 2.0, 3.0 * b + 2.0) == base
    assert auroc(np.tanh(a), np.tanh(b)) == base


# Few distinct values, so that ties within and across the two lists are
# common, mixed with arbitrary floats.
_SCORES = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])
                   | st.floats(allow_nan=False), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None, database=None)
@given(a=_SCORES, b=_SCORES)
def test_auroc_matches_pairwise_count(a, b):
    """Wins plus half the ties over all n * m pairs, bit for bit."""
    a, b = np.array(a), np.array(b)
    wins = np.sum(a[:, None] > b[None, :])
    ties = np.sum(a[:, None] == b[None, :])
    assert auroc(a, b) == (wins + 0.5 * ties) / (a.size * b.size)


def test_auroc_empty_error():
    with pytest.raises(DataError):
        auroc([], [1.0])


# ---------------------------------------------------------------------------
# Frechet distance


def _standardized(n, rng):
    raw = rng.normal(size=n)
    raw = raw - raw.mean()
    return raw / raw.std(ddof=1)


def test_frechet_identical_sets_zero():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(64, 3))
    assert frechet_gaussian(a, a.copy()) < 1e-8


def test_frechet_1d_mean_shift():
    a = _standardized(500, np.random.default_rng(1))
    b = a + 3.0
    assert abs(frechet_gaussian(a[:, None], b[:, None]) - 9.0) < 1e-6


def test_frechet_1d_scale_gap():
    a = _standardized(500, np.random.default_rng(2))
    b = 2.0 * a
    assert abs(frechet_gaussian(a[:, None], b[:, None]) - 1.0) < 1e-6


def test_frechet_symmetric():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(40, 2)), rng.normal(loc=1.0, size=(50, 2))
    assert frechet_gaussian(a, b) == pytest.approx(frechet_gaussian(b, a), abs=1e-9)


def test_frechet_positive_when_moments_differ():
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(40, 2)), rng.normal(loc=0.3, size=(40, 2))
    assert frechet_gaussian(a, b) > 0.0


def test_frechet_needs_enough_samples():
    with pytest.raises(DataError):
        frechet_gaussian(np.zeros((2, 2)), np.zeros((10, 2)))


def test_frechet_handles_degenerate_covariance():
    # rank-deficient sample cloud: all points on a line
    t = np.linspace(0, 1, 30)[:, None]
    a = np.concatenate([t, 2 * t], axis=1)
    b = a + 0.5
    d = frechet_gaussian(a, b)
    assert abs(d - 0.5) < 1e-6  # pure mean shift of (0.5, 0.5)


# ---------------------------------------------------------------------------
# KS statistic


def test_ks_equal_samples_zero():
    a = np.array([0.3, 0.1, 0.7])
    assert ks_statistic(a, a) == 0.0


def test_ks_disjoint_supports_one():
    assert ks_statistic([0.0, 1.0], [5.0, 6.0]) == 1.0


def test_ks_same_gaussian_small():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=10_000), rng.normal(size=10_000)
    assert ks_statistic(a, b) < 0.03


def test_ks_matches_brute_force_oracle():
    rng = np.random.default_rng(9)
    a = rng.normal(size=57)
    b = rng.normal(loc=0.4, size=71)
    assert ks_statistic(a, b) == pytest.approx(ks_oracle(a, b), abs=1e-12)


def test_ks_empty_error():
    with pytest.raises(DataError):
        ks_statistic([], [0.0])


# ---------------------------------------------------------------------------
# energy classification


def test_classify_lower_class_always_wins():
    net = TwoCenterEnergy([[0.5, 0.5], [0.5, 0.5]], k=0.0, offsets=[0.0, 1.0])
    x = np.random.default_rng(0).uniform(size=(16, 2))
    assert np.all(energy_classify(net, x) == 0)


def test_classify_tie_goes_to_lowest_index():
    net = TwoCenterEnergy([[0.5, 0.5], [0.5, 0.5]], k=0.0)
    x = np.zeros((4, 2))
    assert np.all(energy_classify(net, x) == 0)


def test_classify_constant_shift_invariant():
    net = TwoCenterEnergy([[0.2, 0.2], [0.8, 0.8]], k=4.0)
    shifted = TwoCenterEnergy([[0.2, 0.2], [0.8, 0.8]], k=4.0,
                              offsets=[7.0, 7.0])
    x = np.random.default_rng(1).uniform(size=(32, 2))
    assert np.array_equal(energy_classify(net, x), energy_classify(shifted, x))


def test_classify_rejects_unconditional_model():
    net = EnergyNet.init(ModelConfig(widths=(2, 4, 1)), np.random.default_rng(0))
    with pytest.raises(LabelError):
        energy_classify(net, np.zeros((2, 2)))


@pytest.fixture(scope="module")
def two_cluster_model():
    """Conditional model trained on two well-separated labeled clusters."""
    centers = np.array([[0.25, 0.5], [0.75, 0.5]])
    rng = np.random.default_rng(11)

    def draw(n):
        y = rng.integers(0, 2, size=n)
        x = np.clip(centers[y] + 0.05 * rng.normal(size=(n, 2)), 0.0, 1.0)
        return x, y

    x_train, y_train = draw(512)
    net = EnergyNet.init(
        ModelConfig(widths=(2, 32, 32, 1), num_classes=2, spectral_norm=False),
        np.random.default_rng(12))
    buffer = ReplayBuffer(capacity=5000)
    lcfg = LangevinConfig(clamp=(0.0, 1.0))
    state = AdamState.for_parameters(net.parameters())
    for step in range(900):
        cfg = TrainConfig(lr=3e-3 if step < 600 else 3e-4, batch_size=64,
                          langevin=lcfg)
        rows = rng.integers(0, len(x_train), size=cfg.batch_size)
        train_step(net, x_train[rows], buffer, cfg, state, rng,
                   labels=y_train[rows])
    x_test, y_test = draw(256)
    return net, centers, x_test, y_test


def test_classify_trained_two_cluster_accuracy(two_cluster_model):
    net, _, x_test, y_test = two_cluster_model
    accuracy = float(np.mean(energy_classify(net, x_test) == y_test))
    assert accuracy >= 0.99


# ---------------------------------------------------------------------------
# PGD attack


def test_pgd_tiny_epsilon_keeps_input_and_label():
    net = TwoCenterEnergy([[0.2, 0.2], [0.8, 0.8]], k=4.0)
    rng = np.random.default_rng(2)
    x = np.clip(np.array([[0.2, 0.2], [0.8, 0.8]]) + 0.02 * rng.normal(size=(2, 2)), 0, 1)
    y = np.array([0, 1])
    adv = pgd_attack(net, x, y, eps=1e-9)
    assert np.max(np.abs(adv - x)) <= 1e-9 * (1 + 1e-9)
    assert np.array_equal(energy_classify(net, adv), y)


def test_pgd_linf_ball_and_cube_respected():
    net = TwoCenterEnergy([[0.2, 0.2], [0.8, 0.8]], k=4.0)
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(32, 2))
    y = rng.integers(0, 2, size=32)
    eps = 0.1
    adv = pgd_attack(net, x, y, eps=eps)
    assert np.max(np.abs(adv - x)) <= eps + 1e-12
    assert adv.min() >= 0.0 and adv.max() <= 1.0


def test_pgd_l2_ball_respected():
    net = TwoCenterEnergy([[0.2, 0.2], [0.8, 0.8]], k=4.0)
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(32, 2))
    y = rng.integers(0, 2, size=32)
    eps = 0.05
    adv = pgd_attack(net, x, y, eps=eps, norm="l2")
    assert np.max(np.linalg.norm(adv - x, axis=1)) <= eps + 1e-12


def test_pgd_deterministic():
    net = TwoCenterEnergy([[0.2, 0.2], [0.8, 0.8]], k=4.0)
    x = np.array([[0.3, 0.4], [0.6, 0.7]])
    y = np.array([0, 1])
    a = pgd_attack(net, x, y, eps=0.05)
    b = pgd_attack(net, x, y, eps=0.05)
    assert np.array_equal(a, b)


def test_pgd_raises_loss_on_analytic_model():
    # moving toward the other center raises the true-class energy
    net = TwoCenterEnergy([[0.2, 0.5], [0.8, 0.5]], k=8.0)
    x = np.array([[0.25, 0.5], [0.75, 0.5]])
    y = np.array([0, 1])
    adv = pgd_attack(net, x, y, eps=0.2, steps=20)
    assert np.all(net.energy(adv, y) > net.energy(x, y))


def test_pgd_degrades_trained_classifier(two_cluster_model):
    net, _, x_test, y_test = two_cluster_model
    clean = float(np.mean(energy_classify(net, x_test) == y_test))
    adv = pgd_attack(net, x_test, y_test, eps=0.3)
    attacked = float(np.mean(energy_classify(net, adv) == y_test))
    assert attacked <= clean


def test_pgd_validates_arguments():
    net = TwoCenterEnergy([[0.2, 0.2], [0.8, 0.8]])
    with pytest.raises(ConfigError):
        pgd_attack(net, np.zeros((1, 2)), np.array([0]), eps=0.0)
    with pytest.raises(ConfigError):
        pgd_attack(net, np.zeros((1, 2)), np.array([0]), eps=0.1, norm="l1")
    with pytest.raises(ConfigError):
        pgd_attack(net, np.zeros((1, 2)), np.array([0]), eps=0.1, steps=-1)
    plain = EnergyNet.init(ModelConfig(widths=(2, 4, 1)),
                           np.random.default_rng(0))
    with pytest.raises(LabelError):
        pgd_attack(plain, np.zeros((1, 2)), np.array([0]), eps=0.1, steps=0)


def _overflowing_net(num_classes, factor=1e160):
    """A net without spectral normalisation whose weights are finite but
    so large that its energies overflow."""
    net = EnergyNet.init(ModelConfig(widths=(2, 8, 8, 1),
                                     num_classes=num_classes,
                                     spectral_norm=False),
                         np.random.default_rng(90))
    for layer in net.layers:
        layer.w = layer.w * factor
    return net


def test_energies_that_are_not_finite_are_refused_without_warnings():
    """Scorers refuse an overflowing net's energies with one error and
    keep numpy's overflow warnings to themselves."""
    x = np.random.default_rng(91).uniform(size=(8, 2))
    y = np.arange(8) % 4
    cond = _overflowing_net(4)
    calls = [lambda: finite_energy(_overflowing_net(0), x),
             lambda: class_energies(cond, x),
             lambda: energy_classify(cond, x),
             lambda: pgd_attack(cond, x, y, eps=0.1, steps=2),
             lambda: pgd_attack(cond, x, y, eps=0.1, steps=2, norm="l2")]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEnergyError, match="not finite"):
                call()


def test_finite_energies_pass_unchanged():
    net = _overflowing_net(0, factor=1.0)
    x = np.random.default_rng(92).uniform(size=(8, 2))
    assert finite_energy(net, x).tobytes() == net.energy(x).tobytes()


def _film_net(num_classes, seed):
    """Spectral conditional net with random class gains and biases."""
    rng = np.random.default_rng(seed)
    net = EnergyNet.init(ModelConfig(widths=(2, 16, 16, 1),
                                     num_classes=num_classes), rng)
    for layer in net.layers[:-1]:
        layer.gamma = rng.normal(size=layer.gamma.shape)
        layer.beta = rng.normal(size=layer.beta.shape)
    return net


@pytest.mark.parametrize("norm", ["linf", "l2"])
@pytest.mark.parametrize("num_classes", [2, 4])
def test_pgd_matches_separate_energy_pass_bit_for_bit(norm, num_classes):
    """Taking the class energies from the gradient calls changes the
    call count, not a bit of the attacked points: K grad_x calls per
    step and no energy call."""
    steps = 5
    net = _film_net(num_classes, seed=50 + num_classes)
    rng = np.random.default_rng(51)
    x = rng.uniform(size=(37, 2))
    y = rng.integers(0, num_classes, size=37)
    counted = CallCounter(net)
    adv = pgd_attack(counted, x, y, eps=0.1, steps=steps, norm=norm)
    assert np.array_equal(adv, pgd_attack_reference(net, x, y, eps=0.1,
                                                    steps=steps, norm=norm))
    assert counted.calls == {"energy": 0, "grad_x": steps * num_classes}


@pytest.mark.parametrize("norm", ["linf", "l2"])
@pytest.mark.parametrize("rows", [37, 64])
def test_pgd_on_a_real_net_matches_reference_bytes(norm, rows):
    """pgd_attack on an EnergyNet, whose class calls each take their own
    network pass, gives the reference's bytes."""
    net = _film_net(4, seed=60 + rows)
    rng = np.random.default_rng(61)
    x = rng.uniform(size=(rows, 2))
    y = rng.integers(0, 4, size=rows)
    adv = pgd_attack(net, x, y, eps=0.1, steps=6, norm=norm)
    ref = pgd_attack_reference(net, x, y, eps=0.1, steps=6, norm=norm)
    assert adv.tobytes() == ref.tobytes()


@pytest.mark.parametrize("norm,eps", [("linf", 0.1), ("l2", 2.0)])
def test_pgd_stops_at_a_repeated_iterate(norm, eps):
    """A step that leaves the iterate unchanged ends the attack: the result
    keeps the reference's bytes, and the grad_x count is K per step up to
    and including the first step whose successor equals it."""
    steps, num_classes = 30, 3
    net = _film_net(num_classes, seed=70)
    rng = np.random.default_rng(71)
    x = rng.uniform(size=(16, 2))
    y = rng.integers(0, num_classes, size=16)
    iterates = [pgd_attack_reference(net, x, y, eps=eps, steps=k, norm=norm)
                for k in range(steps + 1)]
    j = next(k for k in range(steps)
             if iterates[k + 1].tobytes() == iterates[k].tobytes())
    counted = CallCounter(net)
    adv = pgd_attack(counted, x, y, eps=eps, steps=steps, norm=norm)
    assert adv.tobytes() == iterates[steps].tobytes()
    assert counted.calls == {"energy": 0, "grad_x": num_classes * (j + 1)}


# ---------------------------------------------------------------------------
# bounded-refinement classification


def test_refined_classify_keeps_easy_points():
    net = TwoCenterEnergy([[0.2, 0.2], [0.8, 0.8]], k=200.0)
    x = np.array([[0.22, 0.18], [0.78, 0.82], [0.25, 0.2]])
    cfg = LangevinConfig(steps=20, clamp=(0.0, 1.0))
    got = refined_classify(net, x, 0.05, cfg, np.random.default_rng(1))
    assert np.array_equal(got, [0, 1, 0])


@pytest.mark.parametrize("num_classes", [1, 2, 3, 4])
@pytest.mark.parametrize("steps,noise", [(3, 0.005), (3, 0.0), (0, 0.005)])
def test_rng_after_chains_matches_the_state_refinement_leaves(
        num_classes, steps, noise):
    """rng_after_chains(rng) for one chain per class is where
    refined_classify leaves rng, and rng itself does not move: a noisy
    chain draws once per step, stalled or not, and a noiseless one never
    draws."""
    cfg = LangevinConfig(steps=steps, noise=noise, clamp=(0.0, 1.0))
    net = _film_net(num_classes, seed=80 + num_classes)
    data = np.random.default_rng(81)
    x = data.uniform(size=(9, 2))
    rng = np.random.default_rng(82 + steps)
    before = copy.deepcopy(rng.bit_generator.state)
    skipped = rng_after_chains(rng, cfg, x.shape, num_classes)
    assert rng.bit_generator.state == before
    refined_classify(net, x, 0.05, cfg, rng)
    assert skipped.bit_generator.state == rng.bit_generator.state
    assert (rng.bit_generator.state == before) == (steps * noise == 0)


def test_refined_classify_requires_conditional_model():
    net = EnergyNet.init(ModelConfig(widths=(2, 8, 1), spectral_norm=False),
                         np.random.default_rng(3))
    with pytest.raises(LabelError):
        refined_classify(net, np.zeros((1, 2)), 0.1,
                         LangevinConfig(steps=5), np.random.default_rng(2))


def test_refinement_recovers_attacked_accuracy(two_cluster_model):
    net, _, x_test, y_test = two_cluster_model
    adv = pgd_attack(net, x_test, y_test, eps=0.2)
    attacked = float(np.mean(energy_classify(net, adv) == y_test))
    cfg = LangevinConfig(steps=30, clamp=(0.0, 1.0))
    rec = refined_classify(net, adv, 0.2, cfg, np.random.default_rng(77))
    recovered = float(np.mean(rec == y_test))
    assert attacked <= 0.1
    assert recovered >= 0.6
    assert recovered - attacked >= 0.3


# ---------------------------------------------------------------------------
# mode coverage


def test_mode_coverage_all_at_first_center():
    centers = np.array([[0.0, 0.0], [1.0, 1.0]])
    samples = np.zeros((10, 2))
    fracs, unassigned = mode_coverage(samples, centers, 0.1)
    assert np.array_equal(fracs, [1.0, 0.0])
    assert unassigned == 0.0


def test_mode_coverage_matches_direct_sampler():
    centers = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
    rng = np.random.default_rng(10)
    picks = rng.integers(0, 4, size=4096)
    samples = centers[picks] + 0.02 * rng.normal(size=(4096, 2))
    fracs, unassigned = mode_coverage(samples, centers, 0.1)
    se = np.sqrt(0.25 * 0.75 / 4096)
    assert np.all(np.abs(fracs - 0.25) < 4 * se)
    assert unassigned < 0.01


def test_mode_coverage_empty_samples():
    fracs, unassigned = mode_coverage(np.empty((0, 2)), np.zeros((3, 2)), 0.1)
    assert np.array_equal(fracs, np.zeros(3))
    assert unassigned == 0.0


def test_mode_coverage_counts_outside_radius_as_unassigned():
    centers = np.array([[0.0, 0.0]])
    samples = np.array([[0.05, 0.0], [5.0, 5.0]])
    fracs, unassigned = mode_coverage(samples, centers, 0.1)
    assert fracs[0] == 0.5
    assert unassigned == 0.5


def test_mode_coverage_rejects_dimension_mismatch():
    with pytest.raises(DimensionError):
        mode_coverage(np.zeros((8, 2)), np.full((3, 3), 0.5), 0.1)


def test_mode_coverage_rejects_bad_radius():
    with pytest.raises(ConfigError):
        mode_coverage(np.zeros((1, 2)), np.zeros((1, 2)), 0.0)


# ---------------------------------------------------------------------------
# CSV reporting


def test_metric_csv_row_stable_hash():
    a = metric_csv_row("auroc", 0.93, chains=256, temps=100)
    b = metric_csv_row("auroc", 0.93, temps=100, chains=256)
    assert a == b
    name, digest, value = a.split(",")
    assert name == "auroc" and len(digest) == 12
    assert float(value) == pytest.approx(0.93)


def test_metric_csv_row_distinguishes_configs():
    a = metric_csv_row("ks", 0.1, seed=0)
    b = metric_csv_row("ks", 0.1, seed=1)
    assert a.split(",")[1] != b.split(",")[1]
