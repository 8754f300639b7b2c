"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from ebmkit.datagen import (
    ACTION_SCALE,
    MIN_SPRITE_SCALE,
    PENDULUM_GRAVITY,
    VELOCITY_SCALE,
    gaussian_mixture,
    mini_sprites,
    ring2d,
    split_tasks,
    trajectory_sim,
)
from ebmkit.errors import DataError, LabelError


# ---------------------------------------------------------------- mixtures

def test_single_component_zero_sigma_collapses_to_center():
    samples, labels = gaussian_mixture([[0.3, 0.7]], 0.0, 50,
                                       np.random.default_rng(0))
    assert np.allclose(samples, [0.3, 0.7])
    assert np.all(labels == 0)


def test_component_frequencies_are_uniform():
    centers = [[0.2, 0.2], [0.2, 0.8], [0.8, 0.2], [0.8, 0.8]]
    _, labels = gaussian_mixture(centers, 0.05, 10_000,
                                 np.random.default_rng(1))
    freqs = np.bincount(labels, minlength=4) / 10_000
    assert np.all(np.abs(freqs - 0.25) < 0.02)


def test_mixture_is_seed_deterministic():
    centers = [[0.5, 0.5]]
    a, la = gaussian_mixture(centers, 0.1, 100, np.random.default_rng(9))
    b, lb = gaussian_mixture(centers, 0.1, 100, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert np.array_equal(la, lb)


def test_mixture_rejects_margin_violation():
    with pytest.raises(DataError):
        gaussian_mixture([[0.1, 0.5]], 0.05, 10, np.random.default_rng(0))


def test_mixture_samples_stay_in_unit_cube():
    centers = [[0.2, 0.8]]
    samples, _ = gaussian_mixture(centers, 0.06, 5000,
                                  np.random.default_rng(2))
    assert samples.min() >= 0.0
    assert samples.max() <= 1.0


# ------------------------------------------------------------------- rings

def test_ring_mean_radius_matches_construction():
    pts = ring2d(0.3, 0.02, 4000, np.random.default_rng(3))
    dist = np.linalg.norm(pts - 0.5, axis=1)
    assert abs(dist.mean() - 0.3) < 2e-3


def test_zero_thickness_ring_is_a_circle():
    pts = ring2d(0.25, 0.0, 500, np.random.default_rng(4))
    dist = np.linalg.norm(pts - 0.5, axis=1)
    assert np.allclose(dist, 0.25, atol=1e-12)


def test_ring_is_seed_deterministic():
    a = ring2d(0.3, 0.05, 64, np.random.default_rng(5))
    b = ring2d(0.3, 0.05, 64, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_ring_rejects_fit_violation():
    with pytest.raises(DataError):
        ring2d(0.45, 0.05, 10, np.random.default_rng(0))


# ----------------------------------------------------------------- sprites

def test_min_scale_sprites_have_3x3_bounding_box():
    # pixel-center latents so box edges land on cell boundaries
    center = 8.5 / 16
    images, _ = mini_sprites(["square", "circle"], [center], [center],
                             [MIN_SPRITE_SCALE])
    for img in images:
        rows = np.nonzero(img.sum(axis=1))[0]
        cols = np.nonzero(img.sum(axis=0))[0]
        assert rows.size == 3
        assert cols.size == 3


def test_square_centroid_matches_latents():
    images, _ = mini_sprites(["square"], [0.4], [0.6], [0.4])
    img = images[0]
    cell = (np.arange(16) + 0.5) / 16
    cx = float((img.sum(axis=0) * cell).sum() / img.sum())
    cy = float((img.sum(axis=1) * cell).sum() / img.sum())
    half_pixel = 0.5 / 16
    assert abs(cx - 0.4) < half_pixel
    assert abs(cy - 0.6) < half_pixel


def test_shapes_differ_at_identical_latents():
    images, _ = mini_sprites(["square", "circle"], [0.5], [0.5], [0.5])
    differing = np.mean(np.abs(images[0] - images[1]) > 0.05)
    assert differing >= 0.05


def test_sprites_enumerate_latent_product():
    images, latents = mini_sprites(["square", "circle"], [0.4, 0.6], [0.5],
                                   [0.25, 0.5], n_per_combo=3)
    assert images.shape == (2 * 2 * 1 * 2 * 3, 16, 16)
    assert latents.shape[0] == images.shape[0]
    assert set(latents["shape"]) == {"square", "circle"}
    assert set(latents["scale"]) == {0.25, 0.5}


def test_sprite_noise_is_seeded_and_clipped():
    a, _ = mini_sprites(["circle"], [0.5], [0.5], [0.5], n_per_combo=2,
                        noise=0.2, rng=np.random.default_rng(6))
    b, _ = mini_sprites(["circle"], [0.5], [0.5], [0.5], n_per_combo=2,
                        noise=0.2, rng=np.random.default_rng(6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a[0], a[1])
    assert a.min() >= 0.0
    assert a.max() <= 1.0


def test_sprites_reject_out_of_canvas_latents():
    with pytest.raises(DataError):
        mini_sprites(["square"], [0.1], [0.5], [0.5])


def test_sprites_reject_scale_below_minimum():
    with pytest.raises(DataError):
        mini_sprites(["square"], [0.5], [0.5], [0.1])


def test_sprites_reject_unknown_shape():
    with pytest.raises(DataError):
        mini_sprites(["triangle"], [0.5], [0.5], [0.5])


def test_sprite_noise_requires_rng():
    with pytest.raises(DataError):
        mini_sprites(["square"], [0.5], [0.5], [0.5], noise=0.1)


NAN_PARAMETERS = {
    "mixture-sigma": lambda rng: gaussian_mixture([[0.5, 0.5]], np.nan, 10,
                                                  rng),
    "mixture-center": lambda rng: gaussian_mixture([[np.nan, 0.5]], 0.05,
                                                   10, rng),
    "ring-thickness": lambda rng: ring2d(0.3, np.nan, 10, rng),
    "sprite-noise": lambda rng: mini_sprites(["square"], [0.5], [0.5], [0.5],
                                             noise=np.nan, rng=rng),
    "sprite-scale": lambda rng: mini_sprites(["square"], [0.5], [0.5],
                                             [np.nan]),
}


@pytest.mark.parametrize("case", sorted(NAN_PARAMETERS))
def test_nan_parameter_rejected_at_generation(case):
    """A nan passes a plain `<` check; every generator rejects it before
    it draws."""
    with pytest.raises(DataError):
        NAN_PARAMETERS[case](np.random.default_rng(0))


# ------------------------------------------------------------- task splits

def _ten_class_dataset():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(200, 3))
    y = rng.integers(0, 10, size=200)
    return x, y


def test_ten_classes_make_five_tasks():
    x, y = _ten_class_dataset()
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    tasks = split_tasks(x, y, pairs)
    assert len(tasks) == 5
    assert [t[0] for t in tasks] == [0, 1, 2, 3, 4]


def test_task_union_recovers_dataset():
    x, y = _ten_class_dataset()
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    tasks = split_tasks(x, y, pairs)
    total = sum(t[1].shape[0] for t in tasks)
    assert total == x.shape[0]
    all_labels = np.concatenate([t[2] for t in tasks])
    assert np.array_equal(np.sort(all_labels), np.sort(y))


def test_tasks_are_disjoint_by_class():
    x, y = _ten_class_dataset()
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    tasks = split_tasks(x, y, pairs)
    seen = [set(np.unique(t[2]).tolist()) for t in tasks]
    for i, a in enumerate(seen):
        assert a <= set(pairs[i])
        for b in seen[i + 1:]:
            assert not (a & b)


def test_split_rejects_overlapping_pairs():
    x, y = _ten_class_dataset()
    with pytest.raises(LabelError):
        split_tasks(x, y, [(0, 1), (1, 2), (4, 5), (6, 7), (8, 9)])


def test_split_rejects_incomplete_cover():
    x, y = _ten_class_dataset()
    with pytest.raises(LabelError):
        split_tasks(x, y, [(0, 1), (2, 3)])


# ------------------------------------------------------------ trajectories

def _denormalize(states):
    theta = states[:, 0] * 2.0 * np.pi - np.pi
    omega = states[:, 1] * 2.0 * VELOCITY_SCALE - VELOCITY_SCALE
    return theta, omega


def _pendulum_energy(states):
    theta, omega = _denormalize(states)
    return 0.5 * omega ** 2 + PENDULUM_GRAVITY * (1.0 - np.cos(theta))


def test_no_kicks_from_rest_stays_stationary():
    train, test = trajectory_sim(4, length=50, kick_size=0.0)
    assert np.allclose(train.state, train.next_state)
    assert np.allclose(train.state[:, 0], 0.5)
    assert np.allclose(test.state, test.next_state)


def test_energy_never_increases_between_kicks():
    train, _ = trajectory_sim(30, length=120, kick_period=4,
                              rng=np.random.default_rng(8))
    calm = train.action[:, 0] == 0.5
    delta = _pendulum_energy(train.next_state) - _pendulum_energy(train.state)
    assert delta[calm].max() <= 1e-12


def test_first_kick_transition_is_bimodal():
    train, _ = trajectory_sim(200, length=8, kick_period=4,
                              rng=np.random.default_rng(9))
    kicked = train.action[:, 0] != 0.5
    from_rest = kicked & np.all(train.state == 0.5, axis=1)
    assert from_rest.sum() >= 150
    next_angle = np.round(train.next_state[from_rest, 0], 12)
    modes = np.unique(next_angle)
    assert modes.size == 2
    assert modes[0] < 0.5 < modes[1]
    # both kick signs appear in force
    counts = np.array([(next_angle == m).sum() for m in modes])
    assert counts.min() >= 0.3 * from_rest.sum()
    # the recorded action hides the kick sign: identical (state, action)
    # rows lead to both modes, so the transition stays genuinely bimodal
    assert np.unique(train.action[from_rest]).size == 1


def test_trajectory_split_is_90_10_by_trajectory():
    train, test = trajectory_sim(10, length=100, rng=np.random.default_rng(10))
    assert len(train) == 9 * 99
    assert len(test) == 1 * 99


def test_trajectory_outputs_stay_in_unit_interval():
    train, test = trajectory_sim(20, length=200, rng=np.random.default_rng(11),
                                 kick_size=ACTION_SCALE)
    for part in (train, test):
        for arr in (part.state, part.action, part.next_state):
            assert arr.min() >= 0.0
            assert arr.max() <= 1.0


def test_trajectory_sim_is_seed_deterministic():
    a, _ = trajectory_sim(5, length=30, rng=np.random.default_rng(12))
    b, _ = trajectory_sim(5, length=30, rng=np.random.default_rng(12))
    assert np.array_equal(a.state, b.state)
    assert np.array_equal(a.action, b.action)
    assert np.array_equal(a.next_state, b.next_state)


def test_trajectory_sim_validates_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(DataError):
        trajectory_sim(0, rng=rng)
    with pytest.raises(DataError):
        trajectory_sim(3, length=1, rng=rng)
    with pytest.raises(DataError):
        trajectory_sim(3, kick_period=0, rng=rng)
    with pytest.raises(DataError):
        trajectory_sim(3, kick_size=ACTION_SCALE + 1.0, rng=rng)
    with pytest.raises(DataError):
        trajectory_sim(3, kick_size=1.0, rng=None)
