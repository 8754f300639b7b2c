"""Contrastive training of energy networks.

Each step pulls the energy of data batches down and the energy of
sampled negatives up, with an L2 penalty on both to keep the scalar
outputs anchored near zero:

    loss = mean( alpha * (E(x+)^2 + E(x-)^2) + E(x+) - E(x-) )

Negatives come from short Langevin chains initialized by the replay
buffer. The chains run outside the tape: their states enter the loss as
constants, so parameter gradients flow through the energy evaluations
only, not through the sampling procedure that produced them.

kl_finetune_step is the exception: there the whole chain is recorded and
differentiated, which exercises second-order derivatives of the energy.
Its loss is the frozen-snapshot energy of the chain's endpoint, pushing
the sampler's output distribution toward the snapshot's low-energy
regions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import (ConfigError, ContractError, DimensionError,
                     TapeDepthError, TrainingDivergedError)
from .sampler import LangevinConfig, init_batch, run_chain

# Recording K chain steps costs O(K) tape memory twice over (forward and
# the emitted adjoint ops); keep taped chains short.
MAX_TAPED_STEPS = 10


@dataclass
class TrainConfig:
    alpha: float = 1.0
    lr: float = 1e-4
    beta1: float = 0.0
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 128
    clip_sigmas: float = 3.0
    total_steps: int = 2000
    # training data is normalized to the unit cube, so training chains
    # stay on it by default
    langevin: LangevinConfig = field(
        default_factory=lambda: LangevinConfig(clamp=(0.0, 1.0)))

    def __post_init__(self):
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if not self.lr >= 0:
            raise ConfigError("lr must be >= 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("betas must lie in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not self.clip_sigmas > 0:
            raise ConfigError("clip_sigmas must be > 0")
        if self.total_steps < 0:
            raise ConfigError("total_steps must be >= 0")


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_parameters(cls, params):
        return cls(m={name: np.zeros_like(p) for name, p in params},
                   v={name: np.zeros_like(p) for name, p in params})


@dataclass
class StepReport:
    step: int
    e_pos: float
    e_neg: float
    loss: float
    wall_ms: float


def contrastive_loss(e_pos, e_neg, alpha):
    """Scalar training objective; see the module docstring.

    e_pos and e_neg are per-row energy tensors of equal length. The alpha
    term penalizes squared energies of both signs symmetrically.
    """
    if e_pos.data.shape != e_neg.data.shape:
        raise DimensionError(
            f"batch sizes differ: {e_pos.data.shape} vs {e_neg.data.shape}")
    l2 = ad.scale(ad.add(ad.mul(e_pos, e_pos), ad.mul(e_neg, e_neg)), alpha)
    return ad.mean_all(ad.add(l2, ad.sub(e_pos, e_neg)))


def adam_step(params, grads, state, cfg):
    """In-place Adam update with component clipping.

    Before entering the moment estimates, each gradient component is
    clipped to magnitude clip_sigmas * sqrt(v_hat) + adam_eps, where
    v_hat is the bias-corrected second moment from *previous* steps. The
    very first step has no history and is not clipped (its own v_hat
    would be the squared gradient, making the bound circular). Every
    gradient is checked before anything is updated, so a bad one leaves
    the parameters and the state untouched.
    """
    for name, p in params:
        if grads[name].shape != p.shape:
            raise ContractError(f"gradient shape mismatch for {name}")
        if not np.all(np.isfinite(grads[name])):
            raise TrainingDivergedError(f"non-finite gradient for {name}")
    t_prev = state.t
    state.t = t_prev + 1
    t = state.t
    for name, p in params:
        g = grads[name]
        if t_prev > 0:
            v_hat_prev = state.v[name] / (1.0 - cfg.beta2 ** t_prev)
            bound = cfg.clip_sigmas * np.sqrt(v_hat_prev) + cfg.adam_eps
            g = np.clip(g, -bound, bound)
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1 ** t)
        v_hat = v / (1.0 - cfg.beta2 ** t)
        p -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


def train_step(net, batch, buffer, cfg, state, rng, labels=None):
    """One full training step; returns a StepReport.

    Order of effects: sample negatives (buffer-initialized chain), build
    the taped loss, Adam-update the parameters, refresh the spectral
    estimates, then insert the negatives into the buffer.
    """
    t0 = time.perf_counter()
    batch = np.asarray(batch, dtype=np.float64)
    x_init, _ = init_batch(buffer, batch.shape[0], batch.shape[1], rng)
    x_neg = run_chain(x_init, net, cfg.langevin, rng, labels=labels)

    with ad.Tape() as tape:
        params = net.lift_parameters(tape)
        e_pos = net.taped_energy(ad.constant(batch), labels, params=params)
        e_neg = net.taped_energy(ad.constant(x_neg), labels, params=params)
        loss = contrastive_loss(e_pos, e_neg, cfg.alpha)
        if not np.isfinite(loss.data):
            raise TrainingDivergedError("loss is not finite")
        leaves = [t for entry in params for t in entry.values()]
        grad_tensors = ad.gradient(loss, leaves)

    names = [name for name, _ in net.parameters()]
    grads = {name: g.data for name, g in zip(names, grad_tensors)}
    adam_step(net.parameters(), grads, state, cfg)
    if net.config.spectral_norm:
        net.spectral_update()
    buffer.insert(x_neg, labels)

    wall_ms = (time.perf_counter() - t0) * 1e3
    return StepReport(step=state.t,
                      e_pos=float(e_pos.data.mean()),
                      e_neg=float(e_neg.data.mean()),
                      loss=float(loss.data),
                      wall_ms=wall_ms)


def taped_chain(net, params, x0, langevin, rng, labels=None):
    """Langevin chain recorded on the active tape.

    x0 enters as a constant; gradients flow into the chain through the
    drift term's dependence on the lifted parameters. Noise draws are
    fresh constants (not reparameterized). Returns the final state
    tensor. Chains longer than MAX_TAPED_STEPS are refused.
    """
    if langevin.steps > MAX_TAPED_STEPS:
        raise TapeDepthError(
            f"taped chain of {langevin.steps} steps exceeds the cap of "
            f"{MAX_TAPED_STEPS}")
    if langevin.eps_box is not None:
        raise ContractError("eps_box projection is not supported in taped chains")
    tape = ad.active_tape()
    if tape is None:
        raise ContractError("taped_chain requires an entered Tape")
    x0 = np.asarray(x0, dtype=np.float64)
    # a leaf, not a constant: the chain's inner energy gradients are taken
    # with respect to the current state, which must live on the tape
    x = tape.leaf(x0)
    mask_f = None
    if langevin.mask is not None:
        mask_f = langevin.mask.astype(np.float64)
    for _ in range(langevin.steps):
        e = net.taped_energy(x, labels, params=params)
        (g,) = ad.gradient(ad.sum_all(e), [x])
        g = ad.clip(g, -langevin.grad_clip, langevin.grad_clip)
        new = ad.sub(x, ad.scale(g, langevin.step_size))
        if langevin.noise > 0:
            new = ad.add(new, ad.constant(
                langevin.noise * rng.normal(size=x0.shape)))
        if langevin.clamp is not None:
            new = ad.clip(new, langevin.clamp[0], langevin.clamp[1])
        if mask_f is None:
            x = new
        else:
            frozen = ad.constant((1.0 - mask_f) * x0)
            x = ad.add(ad.mul(new, ad.constant(
                np.broadcast_to(mask_f, x0.shape).copy())), frozen)
    return x


def kl_finetune_loss(net, snapshot, langevin, rng, init, labels=None):
    """Loss and parameter gradients for one fine-tuning step.

    Runs a fully taped chain under net's current parameters, then scores
    the endpoint with the frozen snapshot energy. Returns (loss value,
    gradient dict keyed like net.parameters()).
    """
    with ad.Tape() as tape:
        params = net.lift_parameters(tape)
        x_final = taped_chain(net, params, init, langevin, rng, labels=labels)
        e_bar = snapshot.taped_energy(x_final, labels, params=None)
        loss = ad.mean_all(e_bar)
        if not np.isfinite(loss.data):
            raise TrainingDivergedError("fine-tuning loss is not finite")
        if loss.node is None:
            # zero-step chain: the endpoint is a constant, so the loss
            # carries no parameter dependence at all
            grads = {name: np.zeros_like(p) for name, p in net.parameters()}
            return float(loss.data), grads
        leaves = [t for entry in params for t in entry.values()]
        grad_tensors = ad.gradient(loss, leaves)
    names = [name for name, _ in net.parameters()]
    grads = {name: g.data for name, g in zip(names, grad_tensors)}
    return float(loss.data), grads


def kl_finetune_step(net, snapshot, cfg, state, rng, *, langevin=None,
                     init=None, labels=None, batch_size=None):
    """Differentiate through the sampler and Adam-update the parameters.

    snapshot provides the frozen target energy; langevin defaults to
    cfg.langevin and must stay within the taped-chain step cap. init
    defaults to uniform noise on [0,1]^d. Returns the scalar loss.
    """
    langevin = cfg.langevin if langevin is None else langevin
    if init is None:
        n = cfg.batch_size if batch_size is None else batch_size
        init = rng.uniform(size=(n, net.config.input_dim))
    loss, grads = kl_finetune_loss(net, snapshot, langevin, rng, init,
                                   labels=labels)
    adam_step(net.parameters(), grads, state, cfg)
    if net.config.spectral_norm:
        net.spectral_update()
    return loss
