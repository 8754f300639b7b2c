import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebmkit.errors import ChainDivergedError, ConfigError, DimensionError
from ebmkit.sampler import (LangevinConfig, ReplayBuffer, init_batch,
                            inpaint, langevin_step, run_chain)

from helpers import (CallCounter, GaussianMixtureEnergy, QuadraticEnergy,
                     stepwise_chain)


def two_mode_1d():
    return GaussianMixtureEnergy(means=[[0.25], [0.75]], sigmas=0.05)


def four_mode_2d():
    centers = [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]]
    return GaussianMixtureEnergy(means=centers, sigmas=0.05)


MIX_CFG = LangevinConfig(steps=200, step_size=2.5e-4, noise=0.01,
                         grad_clip=1e6)


class _NanGradient:
    def energy(self, x, labels=None):
        return np.zeros(len(x))

    def frozen(self):
        return self

    def grad_x(self, x, labels=None):
        g = np.zeros_like(x)
        g[0, 0] = np.nan
        return g


class TestLangevinConfig:
    def test_defaults_are_valid(self):
        cfg = LangevinConfig()
        assert cfg.steps == 60 and cfg.grad_clip == 0.01

    @pytest.mark.parametrize("kwargs", [
        {"steps": -1},
        {"step_size": 0.0},
        {"noise": -0.1},
        {"grad_clip": 0.0},
        {"eps_box": 0.0},
        {"step_size": np.inf},
        {"noise": np.nan},
        {"noise": np.inf},
        {"grad_clip": np.inf},
        {"steps": 2.5},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            LangevinConfig(**kwargs)


class TestLangevinStep:
    def test_zero_gradient_zero_noise_is_fixed_point(self):
        net = QuadraticEnergy(prec=np.zeros((3, 3)), dim=3)
        cfg = LangevinConfig(noise=0.0)
        x = np.random.default_rng(0).uniform(size=(4, 3))
        out, _ = langevin_step(x, net, cfg, np.random.default_rng(1))
        np.testing.assert_array_equal(out, x)

    def test_all_false_mask_freezes_state(self):
        net = QuadraticEnergy(dim=3)
        cfg = LangevinConfig(noise=0.1, mask=np.zeros(3, dtype=bool))
        x = np.random.default_rng(2).normal(size=(4, 3))
        out, _ = langevin_step(x, net, cfg, np.random.default_rng(3))
        np.testing.assert_array_equal(out, x)

    def test_partial_mask_freezes_exactly_the_unmasked(self):
        net = QuadraticEnergy(dim=3)
        mask = np.array([True, False, True])
        cfg = LangevinConfig(noise=0.05, mask=mask)
        x = np.random.default_rng(4).normal(size=(6, 3))
        out, _ = langevin_step(x, net, cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(out[:, ~mask], x[:, ~mask])
        assert np.all(out[:, mask] != x[:, mask])

    def test_mask_dimension_checked(self):
        net = QuadraticEnergy(dim=3)
        cfg = LangevinConfig(mask=np.ones(2, dtype=bool))
        with pytest.raises(DimensionError):
            langevin_step(np.zeros((1, 3)), net, cfg, np.random.default_rng(0))

    def test_nan_gradient_reports_step_index(self):
        cfg = LangevinConfig()
        with pytest.raises(ChainDivergedError) as info:
            langevin_step(np.zeros((2, 2)), _NanGradient(), cfg,
                          np.random.default_rng(0), step_index=7)
        assert info.value.step_index == 7
        assert "step 7" in str(info.value)
        # the CLI's second process sends its error back pickled
        back = pickle.loads(pickle.dumps(info.value))
        assert (str(back), back.step_index) == (str(info.value), 7)

    def test_fixed_seed_is_bit_deterministic(self):
        net = QuadraticEnergy(dim=2)
        cfg = LangevinConfig(steps=50)
        init = np.random.default_rng(6).uniform(size=(8, 2))
        a = run_chain(init, net, cfg, np.random.default_rng(99))
        b = run_chain(init, net, cfg, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_stationary_variance_matches_closed_form(self):
        """x' = (1-lam) x + sigma xi has stationary variance
        sigma^2 / (1 - (1-lam)^2); the chain on E = 0.5 x^2 realizes it."""
        lam, sig = 0.1, 0.05
        exact = sig ** 2 / (1.0 - (1.0 - lam) ** 2)
        net = QuadraticEnergy(dim=1)
        cfg = LangevinConfig(step_size=lam, noise=sig, grad_clip=1e6)
        rng = np.random.default_rng(7)
        x = np.zeros((1000, 1))
        burn, keep = 500, 1500
        collected = np.empty((keep, 1000))
        for k in range(burn + keep):
            x, _ = langevin_step(x, net, cfg, rng)
            if k >= burn:
                collected[k - burn] = x[:, 0]
        a = 1.0 - lam
        n = collected.size
        n_eff_var = n * (1 - a ** 2) / (1 + a ** 2)
        n_eff_mean = n * (1 - a) / (1 + a)
        emp_var = collected.var()
        emp_mean = collected.mean()
        assert abs(emp_var - exact) <= 3.0 * exact * np.sqrt(2.0 / n_eff_var)
        assert abs(emp_mean) <= 3.0 * np.sqrt(exact / n_eff_mean)


class TestRunChain:
    def test_zero_steps_returns_init(self):
        net = QuadraticEnergy(dim=2)
        init = np.random.default_rng(8).uniform(size=(3, 2))
        out = run_chain(init, net, LangevinConfig(steps=0),
                        np.random.default_rng(0))
        np.testing.assert_array_equal(out, init)
        assert out is not init

    def test_final_state_matches_stepwise_chain(self):
        net = QuadraticEnergy(dim=2)
        cfg = LangevinConfig(steps=3, eps_box=0.5)
        init = np.random.default_rng(17).uniform(size=(4, 2))
        x, rng = init.copy(), np.random.default_rng(0)
        for k in range(cfg.steps):
            x, _ = langevin_step(x, net, cfg, rng, center=init, step_index=k)
        out = run_chain(init, net, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    @pytest.mark.parametrize("clamp,mask,eps_box,noise", itertools.product(
        (None, (0.2, 0.8)), (None, [True, False]), (None, 0.05), (0.0, 0.01)))
    def test_record_leaves_sampling_unchanged(self, clamp, mask, eps_box,
                                              noise):
        """A recorded chain returns the same bytes and leaves the generator
        in the same state; it records every step's state, the exact
        unclipped mask, and a pass-through mask when clamp or mask is set."""
        net = four_mode_2d()
        cfg = LangevinConfig(steps=5, step_size=1e-3, grad_clip=40.0,
                             noise=noise, clamp=clamp, mask=mask,
                             eps_box=eps_box)
        init = np.random.default_rng(21).uniform(size=(16, 2))
        plain_rng, recorded_rng = (np.random.default_rng(4) for _ in "ab")
        plain = run_chain(init, net, cfg, plain_rng)
        record = []
        recorded = run_chain(init, net, cfg, recorded_rng, record=record)
        assert recorded.tobytes() == plain.tobytes()
        assert recorded_rng.random() == plain_rng.random()
        assert len(record) == cfg.steps
        np.testing.assert_array_equal(record[0][0], init)
        for x_k, unclipped, passed in record:
            np.testing.assert_array_equal(
                unclipped, np.abs(net.grad_x(x_k)) < cfg.grad_clip)
            assert (passed is None) == (clamp is None and mask is None)
        assert 0 < np.mean([u.mean() for _, u, _ in record]) < 1

    def test_descent_trace_nonincreasing_without_noise(self):
        net = QuadraticEnergy(dim=3)
        cfg = LangevinConfig(steps=1, step_size=0.1, noise=0.0)
        x = np.random.default_rng(9).normal(size=(5, 3))
        trace = [net.energy(x)]
        for _ in range(40):
            x = run_chain(x, net, cfg, np.random.default_rng(0))
            trace.append(net.energy(x))
        assert np.all(np.diff(trace, axis=0) <= 1e-12)

    def test_two_mode_target_populates_both_modes(self):
        net = two_mode_1d()
        # quadrature oracle: each mode's basin carries half the mass
        xs = np.linspace(-0.5, 1.5, 4001)
        p = np.exp(-net.energy(xs[:, None]))
        mass_left = p[xs < 0.5].sum() / p.sum()
        assert 0.2 <= mass_left <= 0.8

        rng = np.random.default_rng(10)
        init = rng.uniform(size=(64, 1))
        out = run_chain(init, net, MIX_CFG, rng)
        near_left = np.abs(out[:, 0] - 0.25) < 0.1
        near_right = np.abs(out[:, 0] - 0.75) < 0.1
        assert np.all(near_left | near_right)
        assert near_left.mean() >= 0.2 and near_right.mean() >= 0.2


class TestStallReuse:
    """run_chain hands a step's gradient to the next step when the state
    did not move, and otherwise calls grad_x; either way it returns the
    bytes of the walk that calls grad_x at every step."""

    def test_chain_pinned_at_the_clamp_takes_one_gradient(self):
        # the minimum lies outside the cube, so every step pushes each
        # component past the clamp and the state never leaves the corner
        net = CallCounter(QuadraticEnergy(mu=np.full(2, 3.0)))
        cfg = LangevinConfig(steps=25, clamp=(0.0, 1.0))
        init = np.ones((4, 2))
        out = run_chain(init, net, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(out, init)
        assert net.calls == {"energy": 0, "grad_x": 1}

    def test_free_chain_takes_one_gradient_per_step(self):
        net = CallCounter(QuadraticEnergy())
        cfg = LangevinConfig(steps=25)
        init = np.random.default_rng(1).uniform(size=(4, 2))
        run_chain(init, net, cfg, np.random.default_rng(2))
        assert net.calls == {"energy": 0, "grad_x": 25}

    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 16), rows=st.integers(1, 3),
           dim=st.integers(1, 3), steps=st.integers(0, 12),
           clamp=st.booleans(), eps_box=st.booleans(), mask=st.booleans(),
           noise=st.sampled_from([0.0, 0.005]),
           step=st.sampled_from([(10.0, 0.01), (0.05, 1e6)]))
    def test_chain_equals_the_stepwise_walk(self, seed, rows, dim, steps,
                                            clamp, eps_box, mask, noise, step):
        rng = np.random.default_rng(seed)
        # minima inside and outside the cube: some walks stall, some move;
        # the unclipped steps make the gradient depend on where they stop
        net = QuadraticEnergy(mu=rng.uniform(-1.0, 2.0, size=dim), dim=dim)
        cfg = LangevinConfig(
            steps=steps, noise=noise, step_size=step[0], grad_clip=step[1],
            clamp=(0.0, 1.0) if clamp else None,
            eps_box=0.15 if eps_box else None,
            mask=rng.random(dim) < 0.5 if mask else None)
        init = rng.choice([0.0, 0.5, 1.0], size=(rows, dim))
        got_rng, ref_rng = (np.random.default_rng(seed) for _ in "ab")
        got_record, ref_record = [], []
        got = run_chain(init, net, cfg, got_rng, record=got_record)
        ref = stepwise_chain(init, net, cfg, ref_rng, record=ref_record)
        assert got.tobytes() == ref.tobytes()
        assert got_rng.random() == ref_rng.random()
        assert len(got_record) == len(ref_record) == steps
        for got_entry, ref_entry in zip(got_record, ref_record):
            for a, b in zip(got_entry, ref_entry):
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.tobytes() == b.tobytes()


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=2)
        buf.insert(np.array([[1.0], [2.0], [3.0]]))
        assert len(buf) == 2
        np.testing.assert_array_equal(buf.snapshot(), [[2.0], [3.0]])

    def test_many_inserts_keep_exactly_the_newest(self):
        buf = ReplayBuffer(capacity=10)
        for i in range(100):
            buf.insert(np.array([[float(i)]]))
        samples = buf.snapshot()
        np.testing.assert_array_equal(samples[:, 0], np.arange(90.0, 100.0))

    def test_oversized_insert_keeps_tail(self):
        buf = ReplayBuffer(capacity=3)
        buf.insert(np.arange(10.0)[:, None])
        samples = buf.snapshot()
        np.testing.assert_array_equal(samples[:, 0], [7.0, 8.0, 9.0])

    def test_dimension_mismatch_rejected(self):
        buf = ReplayBuffer(capacity=4)
        buf.insert(np.zeros((1, 2)))
        with pytest.raises(DimensionError):
            buf.insert(np.zeros((1, 3)))

    def test_insert_restores_snapshot(self):
        buf = ReplayBuffer(capacity=5)
        buf.insert(np.random.default_rng(0).uniform(size=(7, 2)))
        samples = buf.snapshot()
        other = ReplayBuffer(capacity=5)
        other.insert(samples)
        np.testing.assert_array_equal(samples, other.snapshot())


@settings(max_examples=60, deadline=None, database=None)
@given(capacity=st.integers(1, 6), dim=st.integers(1, 3),
       batches=st.lists(st.integers(0, 8), min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 16))
def test_ring_invariants(capacity, dim, batches, seed):
    """After any sequence of inserts the buffer holds exactly the newest
    min(capacity, inserted) rows, oldest first, and draws only return
    held rows."""
    buf = ReplayBuffer(capacity=capacity)
    rng = np.random.default_rng(seed)
    rows = []
    for n in batches:
        start = len(rows)
        batch = np.arange(start, start + n, dtype=np.float64)[:, None] \
            + np.zeros((1, dim))
        buf.insert(batch)
        rows.extend(batch.tolist())
        held = min(capacity, len(rows))
        assert len(buf) == held
        assert buf.snapshot().tolist() == rows[len(rows) - held:]
        if held:
            drawn = buf.draw(7, rng)
            ids = drawn[:, 0].astype(int)
            assert all(len(rows) - held <= i < len(rows) for i in ids)
            assert (drawn == drawn[:, :1]).all()


class TestInitBatch:
    def test_empty_buffer_all_uniform(self):
        x, flags = init_batch(ReplayBuffer(), 16, 3, np.random.default_rng(0))
        assert x.shape == (16, 3) and flags.all()
        assert np.all((x >= 0) & (x <= 1))

    def test_zero_uniform_prob_draws_only_buffer(self):
        buf = ReplayBuffer(capacity=4, uniform_prob=0.0)
        stored = np.arange(8.0).reshape(4, 2)
        buf.insert(stored)
        x, flags = init_batch(buf, 32, 2, np.random.default_rng(1))
        assert not flags.any()
        for row in x:
            assert any(np.array_equal(row, s) for s in stored)

    def test_uniform_fraction_near_nominal(self):
        buf = ReplayBuffer(capacity=4, uniform_prob=0.05)
        buf.insert(np.zeros((4, 2)))
        _, flags = init_batch(buf, 100_000, 2, np.random.default_rng(2))
        assert abs(flags.mean() - 0.05) < 0.005

    def test_dimension_mismatch_rejected(self):
        buf = ReplayBuffer()
        buf.insert(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            init_batch(buf, 4, 2, np.random.default_rng(0))


class TestInpaint:
    def test_all_false_mask_returns_input(self):
        net = QuadraticEnergy(dim=3)
        x = np.random.default_rng(11).uniform(size=(4, 3))
        out = inpaint(x, np.zeros(3, dtype=bool), net, LangevinConfig(),
                      np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_wrong_mask_length_rejected_without_steps(self):
        net = QuadraticEnergy(dim=3)
        x = np.random.default_rng(11).uniform(size=(4, 3))
        with pytest.raises(DimensionError):
            inpaint(x, np.zeros(2, dtype=bool), net, LangevinConfig(steps=0),
                    np.random.default_rng(0))

    def test_restores_coordinate_to_conditional_mode(self):
        """Observed first coordinate pins the restored point to a mode row
        consistent with it; conditional modes located by 1D quadrature."""
        net = four_mode_2d()
        observed = 0.21
        grid = np.linspace(-0.5, 1.5, 2001)
        cond = np.exp(-net.energy(
            np.column_stack([np.full_like(grid, observed), grid])))
        cond /= cond.sum()
        local_max = (cond[1:-1] > cond[:-2]) & (cond[1:-1] > cond[2:])
        strong = local_max & (cond[1:-1] > 0.2 * cond.max())
        cond_modes = grid[1:-1][strong]
        np.testing.assert_allclose(sorted(cond_modes), [0.25, 0.75], atol=0.01)

        rng = np.random.default_rng(12)
        mask = np.array([False, True])
        hits = 0
        trials = 40
        for _ in range(trials):
            corrupt = np.array([[observed, rng.uniform()]])
            out = inpaint(corrupt, mask, net, MIX_CFG, rng)
            assert out[0, 0] == observed  # untouched, bit-exact
            if np.min(np.abs(out[0, 1] - cond_modes)) < 0.1:
                hits += 1
        assert hits / trials >= 0.9

    def test_ground_truth_barely_moves(self):
        # a state already at a mode should survive a full chain nearly intact
        net = four_mode_2d()
        cfg = LangevinConfig(steps=200, step_size=2.5e-4, noise=0.005,
                             grad_clip=1e6)
        x0 = np.array([[0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
        out = run_chain(x0, net, cfg, np.random.default_rng(13))
        assert np.max(np.abs(out - x0)) < 0.05


class TestRefineBounded:
    """run_chain with eps_box: the bounded refinement of refined_classify."""

    def test_tiny_ball_returns_nearly_input(self):
        net = QuadraticEnergy(dim=2)
        x0 = np.random.default_rng(14).uniform(size=(4, 2))
        out = run_chain(x0, net, LangevinConfig(steps=20, eps_box=1e-9),
                        np.random.default_rng(0))
        # one ulp of slack: the ball edge x0 + 1e-9 itself rounds
        assert np.max(np.abs(out - x0)) <= 1e-9 * (1.0 + 1e-6)

    def test_projection_invariant_every_step(self):
        net = QuadraticEnergy(dim=2)
        cfg = LangevinConfig(steps=0, noise=0.5, step_size=1.0,
                             grad_clip=10.0, eps_box=0.05)
        rng = np.random.default_rng(15)
        x0 = rng.uniform(size=(8, 2))
        x = x0.copy()
        for k in range(30):
            x, _ = langevin_step(x, net, cfg, rng, center=x0, step_index=k)
            assert np.max(np.abs(x - x0)) <= 0.05 + 1e-15

    def test_refinement_reduces_energy_near_mode(self):
        net = four_mode_2d()
        cfg = LangevinConfig(steps=60, step_size=2.5e-4, noise=0.001,
                             grad_clip=1e6, eps_box=0.03)
        rng = np.random.default_rng(16)
        wins = 0
        trials = 100
        for _ in range(trials):
            mode = net.means[rng.integers(0, 4)]
            x0 = (mode + rng.normal(scale=0.02, size=2))[None, :]
            refined = run_chain(x0, net, cfg, rng)
            assert np.max(np.abs(refined - x0)) <= 0.03 + 1e-15
            if net.energy(refined)[0] <= net.energy(x0)[0]:
                wins += 1
        assert wins / trials >= 0.95
