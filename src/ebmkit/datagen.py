"""Seeded synthetic datasets: mixtures, rings, sprites, task splits, pendulum runs.

Every generator is a pure function of its arguments and RNG, and every emitted
coordinate lies in [0, 1]. Pendulum states are affinely normalized into that
range with fixed scale constants so the mapping is independent of the data.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DataError, LabelError, checked

CANVAS = 16
MIN_SPRITE_SCALE = 3 / CANVAS
_SPRITE_SUBSAMPLES = 8

PENDULUM_DT = 0.05
PENDULUM_GRAVITY = 9.8
PENDULUM_DAMPING = 0.5
VELOCITY_SCALE = 8.0
ACTION_SCALE = 4.0


def gaussian_mixture(centers, sigma, n, rng):
    """Draw n points from an equal-weight Gaussian mixture.

    Returns (samples, labels) where labels index the component each point
    was drawn from. Centers must keep a 3-sigma margin inside (0,1)^d.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise DataError("centers must be a nonempty (k, d) array")
    sigma = checked("sigma", sigma, float, DataError, ge=0)
    n = checked("n", n, int, DataError, ge=0)
    margin = 3.0 * sigma
    # written so that a nan center fails too
    if not (np.all(centers - margin > 0.0) and np.all(centers + margin < 1.0)):
        raise DataError("every center needs a 3-sigma margin inside (0,1)^d")
    labels = rng.integers(0, centers.shape[0], size=n)
    samples = centers[labels] + sigma * rng.normal(size=(n, centers.shape[1]))
    return np.clip(samples, 0.0, 1.0), labels


def ring2d(radius, thickness, n, rng):
    """Uniform-angle ring around (0.5, 0.5) with radial Gaussian spread."""
    radius = checked("radius", radius, float, DataError, gt=0)
    thickness = checked("thickness", thickness, float, DataError, ge=0)
    n = checked("n", n, int, DataError, ge=0)
    if radius + 3.0 * thickness > 0.5:
        raise DataError("ring does not fit inside the unit square")
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    r = radius + thickness * rng.normal(size=n)
    points = 0.5 + np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
    return np.clip(points, 0.0, 1.0)


def _interval_coverage(lo, hi):
    """Fraction of each pixel cell covered by the interval [lo, hi]."""
    edges = np.arange(CANVAS + 1) / CANVAS
    overlap = np.minimum(hi, edges[1:]) - np.maximum(lo, edges[:-1])
    return np.clip(overlap, 0.0, None) * CANVAS


def _render_square(x, y, scale):
    half = scale / 2.0
    cov_x = _interval_coverage(x - half, x + half)
    cov_y = _interval_coverage(y - half, y + half)
    return np.outer(cov_y, cov_x)


def _render_circle(x, y, scale):
    # Supersampled coverage; exact pixel/disc intersection is not needed
    # at 16x16.
    s = _SPRITE_SUBSAMPLES
    sub = (np.arange(CANVAS * s) + 0.5) / (CANVAS * s)
    dx2 = (sub - x) ** 2
    dy2 = (sub - y) ** 2
    inside = (dy2[:, None] + dx2[None, :]) <= (scale / 2.0) ** 2
    return inside.reshape(CANVAS, s, CANVAS, s).mean(axis=(1, 3))


_RENDERERS = {"square": _render_square, "circle": _render_circle}


def mini_sprites(shapes, xs, ys, scales, n_per_combo=1, noise=0.0, rng=None):
    """Render every latent combination on a 16x16 grayscale canvas.

    The latent grid is the cartesian product of shapes, x positions,
    y positions and scales (bounding-box side in data units, minimum
    3 pixels). Returns (images, latents) with one structured latent
    record per image; row index increases with y.
    """
    n_per_combo = checked("n_per_combo", n_per_combo, int, DataError, ge=1)
    noise = checked("noise", noise, float, DataError, ge=0)
    xs = [checked("each x", v, float, DataError) for v in xs]
    ys = [checked("each y", v, float, DataError) for v in ys]
    scales = [checked("each scale", v, float, DataError) for v in scales]
    if noise > 0.0 and rng is None:
        raise DataError("pixel noise needs an rng")
    for shape in shapes:
        if shape not in _RENDERERS:
            raise DataError(f"unknown shape {shape!r}")
    combos = list(itertools.product(shapes, xs, ys, scales))
    for shape, x, y, scale in combos:
        if not MIN_SPRITE_SCALE <= scale <= 1.0:
            raise DataError("scale must lie in [3/16, 1]")
        half = scale / 2.0
        if not (0.0 <= x - half and x + half <= 1.0
                and 0.0 <= y - half and y + half <= 1.0):
            raise DataError("sprite extends outside the canvas")

    count = len(combos) * n_per_combo
    images = np.empty((count, CANVAS, CANVAS))
    latents = np.empty(count, dtype=[("shape", "U6"), ("x", "f8"),
                                     ("y", "f8"), ("scale", "f8")])
    i = 0
    for shape, x, y, scale in combos:
        clean = _RENDERERS[shape](x, y, scale)
        for _ in range(n_per_combo):
            images[i] = clean
            latents[i] = (shape, x, y, scale)
            i += 1
    if noise > 0.0:
        images = images + noise * rng.normal(size=images.shape)
    return np.clip(images, 0.0, 1.0), latents


def split_tasks(x, y, pairs):
    """Partition a labeled dataset into ordered two-class tasks.

    Pairs must be disjoint and cover every class present in y. Returns a
    list of (task_id, x_task, y_task).
    """
    x = np.asarray(x)
    y = np.asarray(y)
    flat = [checked("each task class", c, int, LabelError, ge=0)
            for pair in pairs for c in pair]
    if any(len(pair) != 2 for pair in pairs):
        raise LabelError("every task needs exactly two classes")
    if len(set(flat)) != len(flat):
        raise LabelError("task pairs overlap")
    if set(flat) != set(np.unique(y).tolist()):
        raise LabelError("pairs must cover every class exactly once")
    tasks = []
    for task_id, pair in enumerate(pairs):
        mask = np.isin(y, list(pair))
        tasks.append((task_id, x[mask], y[mask]))
    return tasks


@dataclass
class TransitionSet:
    """Flattened (state, action, next_state) triples, all in [0, 1]."""

    state: np.ndarray
    action: np.ndarray
    next_state: np.ndarray

    def __len__(self):
        return self.state.shape[0]


def _normalize_states(theta, omega):
    wrapped = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    ang = (wrapped + np.pi) / (2.0 * np.pi)
    vel = (np.clip(omega, -VELOCITY_SCALE, VELOCITY_SCALE)
           + VELOCITY_SCALE) / (2.0 * VELOCITY_SCALE)
    return np.stack([ang, vel], axis=-1)


def trajectory_sim(n_trajectories, length=100, kick_period=4, rng=None,
                   kick_size=2.0):
    """Simulate damped pendulums driven by random velocity kicks.

    All trajectories start at rest at the stable equilibrium; every
    kick_period-th action resets the angular velocity to kick_size with a
    uniformly random sign (other actions are zero). Recorded actions keep
    only the kick magnitude, so a kick-step transition is bimodal given
    the observed (state, action) pair. The reset form keeps velocities
    bounded by kick_size, so the affine normalization never clips.
    Returns (train, test) TransitionSets from a 90-10 split at trajectory
    granularity.
    """
    n_trajectories = checked("n_trajectories", n_trajectories, int,
                             DataError, ge=1)
    length = checked("length", length, int, DataError, ge=2)
    kick_period = checked("kick_period", kick_period, int, DataError, ge=1)
    kick_size = checked("kick_size", kick_size, float, DataError, ge=0,
                        le=ACTION_SCALE)
    if kick_size > 0.0 and rng is None:
        raise DataError("random kicks need an rng")

    theta = np.zeros(n_trajectories)
    omega = np.zeros(n_trajectories)
    states = np.empty((length, n_trajectories, 2))
    actions = np.empty((length - 1, n_trajectories))
    states[0] = _normalize_states(theta, omega)
    for t in range(length - 1):
        if (t + 1) % kick_period == 0 and kick_size > 0.0:
            sign = np.where(rng.random(n_trajectories) < 0.5, -1.0, 1.0)
            act = kick_size * sign
            omega = act
        else:
            act = np.zeros(n_trajectories)
        omega = omega + PENDULUM_DT * (-PENDULUM_GRAVITY * np.sin(theta)
                                       - PENDULUM_DAMPING * omega)
        theta = theta + PENDULUM_DT * omega
        actions[t] = np.abs(act)
        states[t + 1] = _normalize_states(theta, omega)

    norm_actions = (actions / ACTION_SCALE + 1.0) / 2.0

    def build(traj_slice):
        s = states[:-1, traj_slice].reshape(-1, 2)
        a = norm_actions[:, traj_slice].reshape(-1, 1)
        s2 = states[1:, traj_slice].reshape(-1, 2)
        return TransitionSet(state=s, action=a, next_state=s2)

    n_train = max(1, int(round(0.9 * n_trajectories)))
    if n_train == n_trajectories and n_trajectories > 1:
        n_train = n_trajectories - 1
    return build(slice(0, n_train)), build(slice(n_train, n_trajectories))
