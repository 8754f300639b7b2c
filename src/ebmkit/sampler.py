"""Langevin-dynamics sampling with replay-buffer chain initialization.

One step moves a batch of states downhill on the energy surface with
additive Gaussian noise:

    x' = x - step_size * clip(grad_E(x), +-grad_clip) + noise * N(0, I)

Step size and noise scale are configured independently. The classical
coupling, noise = sqrt(2 * step_size), targets exp(-E). Decoupled, with
no gradient clipped, a step is the classical one for E / T with step
size noise**2 / 2, so the chain targets about exp(-E / T) at temperature
T = noise**2 / (2 * step_size): 1.25e-6 at the defaults (noise 0.005,
step_size 10), far colder than exp(-E). The logZ estimators in metrics
(AIS, RAISE and the quadrature of eval --metric logz-bracket) use T = 1,
so they bracket the normalizer of exp(-E), not of the density these
chains draw from.

Chains are plain numpy: sampling never records onto an autodiff tape, so
negatives produced here act as constants in any downstream loss.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ChainDivergedError, ConfigError, DimensionError, checked


@dataclass
class LangevinConfig:
    """Chain hyperparameters.

    mask, when present, marks the components that are free to move; the
    rest stay bit-identical to the input. eps_box, when present, projects
    every step back into the L-infinity ball of that radius around the
    chain's initial state. clamp, when present, is a (lo, hi) pair and
    every step is projected into that box componentwise — training on
    data normalized to [0,1] keeps its chains on the data cube this way,
    which is what stops negatives from wandering into untrained territory.
    """

    steps: int = 60
    step_size: float = 10.0
    noise: float = 0.005
    grad_clip: float = 0.01
    mask: np.ndarray | None = None
    eps_box: float | None = None
    clamp: tuple | None = None

    def __post_init__(self):
        self.steps = checked("steps", self.steps, int, ge=0)
        self.step_size = checked("step_size", self.step_size, float, gt=0)
        self.noise = checked("noise", self.noise, float, ge=0)
        self.grad_clip = checked("grad_clip", self.grad_clip, float, gt=0)
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)
        if self.eps_box is not None:
            self.eps_box = checked("eps_box", self.eps_box, float, gt=0)
        if self.clamp is not None:
            try:
                lo, hi = (checked("clamp", v, float) for v in self.clamp)
            except (TypeError, ValueError):
                raise ConfigError(f"clamp must be a (lo, hi) pair or null, "
                                  f"got {self.clamp!r}") from None
            if not lo < hi:
                raise ConfigError("clamp bounds must satisfy lo < hi")
            self.clamp = (lo, hi)


class ReplayBuffer:
    """Fixed-capacity FIFO pool of past chain states to start chains from.

    New chains start from a stored state most of the time and from uniform
    noise on [0,1]^d otherwise; uniform_prob is that exception rate.
    """

    def __init__(self, capacity=10_000, uniform_prob=0.05):
        self.capacity = checked("capacity", capacity, int, ge=1)
        self.uniform_prob = checked("uniform_prob", uniform_prob, float,
                                    ge=0, le=1)
        self._data = None
        self._size = 0
        self._next = 0

    def __len__(self):
        return self._size

    @property
    def dim(self):
        return None if self._data is None else self._data.shape[1]

    def insert(self, samples):
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 2:
            raise DimensionError("buffer entries must be a (n, d) batch")
        if self._data is None:
            self._data = np.empty((self.capacity, samples.shape[1]))
        elif samples.shape[1] != self._data.shape[1]:
            raise DimensionError(
                f"buffer holds dimension {self._data.shape[1]}, got {samples.shape[1]}")
        # only the newest `capacity` rows can survive
        samples = samples[-self.capacity:]
        n = samples.shape[0]
        pos = (self._next + np.arange(n)) % self.capacity
        self._data[pos] = samples
        self._next = int((self._next + n) % self.capacity)
        self._size = min(self.capacity, self._size + n)

    def draw(self, n, rng):
        """n stored states drawn uniformly with replacement, as a copy."""
        if self._size == 0:
            raise ConfigError("cannot draw from an empty buffer")
        idx = rng.integers(0, self._size, size=n)
        if self._size < self.capacity:
            rows = idx
        else:
            rows = (self._next + idx) % self.capacity
        return self._data[rows].copy()

    def snapshot(self):
        """Entries oldest-first, as a copy."""
        if self._size == 0:
            return np.empty((0, self.dim or 0))
        if self._size < self.capacity:
            order = np.arange(self._size)
        else:
            order = (self._next + np.arange(self.capacity)) % self.capacity
        return self._data[order].copy()


def init_batch(buffer, batch_size, d, rng):
    """Starting states for a batch of chains.

    Each row comes from the buffer with probability 1 - uniform_prob and
    from uniform noise on [0,1]^d otherwise; an empty (or absent) buffer
    falls back to all-uniform. Returns (states, from_uniform flags).
    """
    if d < 1:
        raise DimensionError("d must be positive")
    if buffer is None or len(buffer) == 0:
        return rng.uniform(size=(batch_size, d)), np.ones(batch_size, dtype=bool)
    if buffer.dim != d:
        raise DimensionError(f"buffer dimension {buffer.dim} does not match {d}")
    from_uniform = rng.random(batch_size) < buffer.uniform_prob
    x = np.empty((batch_size, d))
    n_uni = int(from_uniform.sum())
    if n_uni:
        x[from_uniform] = rng.uniform(size=(n_uni, d))
    if n_uni < batch_size:
        x[~from_uniform] = buffer.draw(batch_size - n_uni, rng)
    return x, from_uniform


def langevin_step(x, net, cfg, rng, labels=None, center=None, step_index=0,
                  record=None, grad=None):
    """One sampling step; see the module docstring for the update rule.
    Returns (new state, energy gradient at x); grad, when given, is that
    gradient already taken, in place of the net.grad_x(x, labels) call.

    center is the reference state for the eps_box projection (defaults to
    x itself, so a standalone call cannot drift out of the box either).
    record, when given, is a list that gets (x, unclipped, passed): the
    gradient components the clip left alone, and the components whose
    update passed the clamp and the mask (None when neither is set).
    """
    x = np.asarray(x, dtype=np.float64)
    g = net.grad_x(x, labels) if grad is None else grad
    if not np.all(np.isfinite(g)):
        raise ChainDivergedError("energy gradient is not finite", step_index)
    clipped = np.clip(g, -cfg.grad_clip, cfg.grad_clip)
    new = x - cfg.step_size * clipped
    if cfg.noise > 0:
        new = new + cfg.noise * rng.normal(size=x.shape)
    if cfg.eps_box is not None:
        ref = x if center is None else center
        new = np.clip(new, ref - cfg.eps_box, ref + cfg.eps_box)
    passed = None
    if cfg.clamp is not None:
        lo, hi = cfg.clamp
        if record is not None:
            passed = (new > lo) & (new < hi)
        new = np.clip(new, lo, hi)
    if cfg.mask is not None:
        if cfg.mask.shape != (x.shape[1],):
            raise DimensionError(
                f"mask shape {cfg.mask.shape} does not match dimension {x.shape[1]}")
        passed = cfg.mask if passed is None else passed & cfg.mask
        new = np.where(cfg.mask, new, x)
    if record is not None:
        # a clipped component equals +-grad_clip, so this is exact
        record.append((x, np.abs(clipped) < cfg.grad_clip, passed))
    return new, g


def run_chain(init, net, cfg, rng, labels=None, record=None):
    """Apply cfg.steps Langevin steps from init; returns the final state.
    The steps run on net.frozen(), as no weight changes within a chain,
    and a step that left the state unchanged hands its gradient to the
    next. record, when given, gets one langevin_step entry per step."""
    net = net.frozen()
    x = np.array(init, dtype=np.float64, copy=True)
    center = x.copy() if cfg.eps_box is not None else None
    g = None
    for k in range(cfg.steps):
        new, g = langevin_step(x, net, cfg, rng, labels=labels, center=center,
                               step_index=k, record=record, grad=g)
        x, g = new, (g if np.array_equal(new, x) else None)
    return x


def rng_copy(rng):
    """A new generator at rng's state. The state is copied through
    bit_generator.state, so rng itself does not move."""
    copy = np.random.Generator(type(rng.bit_generator)())
    copy.bit_generator.state = rng.bit_generator.state
    return copy


def rng_after_chains(rng, cfg, shape, chains):
    """A copy of rng advanced past the draws of `chains` run_chain calls
    with cfg on a batch of the given shape: one normal block per step
    when cfg.noise > 0, whether or not the chain stalls, and none when
    cfg.noise is 0. rng itself is left as it is.

    Chains run on the copy give the same bits as chains run on rng after
    those calls, so `ebmkit attack` can refine its later radii in a
    second process.
    """
    rng = rng_copy(rng)
    if cfg.noise > 0:
        for _ in range(chains * cfg.steps):
            rng.normal(size=shape)
    return rng


def inpaint(x_corrupt, mask, net, cfg, rng, labels=None):
    """Restore the masked (unknown) components of x_corrupt by sampling.

    mask marks the unknown components; everything else is preserved
    bit-exactly. Returns the restored batch.
    """
    x = np.asarray(x_corrupt, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if x.ndim != 2 or mask.shape != (x.shape[1],):
        raise DimensionError(
            f"mask shape {mask.shape} does not match inputs of shape {x.shape}")
    return run_chain(x, net, replace(cfg, mask=mask), rng, labels=labels)
