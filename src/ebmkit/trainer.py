"""Contrastive training of energy networks.

Each step pulls the energy of data batches down and the energy of
sampled negatives up, with an L2 penalty on both to keep the scalar
outputs anchored near zero:

    loss = mean( alpha * (E(x+)^2 + E(x-)^2) + E(x+) - E(x-) )

Negatives come from short Langevin chains initialized by the replay
buffer. Their states enter the loss as constants, so parameter gradients
flow through the energy evaluations only: one reverse pass of the model
(backward) with the loss's derivative in each energy as cotangent.

kl_finetune_step differentiates through the sampler instead. Its loss is
the frozen-snapshot energy of the chain's endpoint, pushing the sampler's
output distribution toward the snapshot's low-energy regions (Du et al.
2021, Improved Contrastive Divergence Training of EBMs). The chain is
the sampler's run_chain, recording each step; the snapshot's energy and
gradient at the endpoint come from one grad_x call, and the reverse walk
then takes, per step, one second-order product of the model through that
step's grad_x, skipping the steps whose tangent is all zeros.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (ContractError, DimensionError, TrainingDivergedError,
                     checked)
from .sampler import LangevinConfig, init_batch, run_chain


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
        self.alpha = checked("alpha", self.alpha, float, ge=0)
        self.lr = checked("lr", self.lr, float, ge=0)
        self.beta1 = checked("beta1", self.beta1, float, ge=0, lt=1)
        self.beta2 = checked("beta2", self.beta2, float, ge=0, lt=1)
        self.adam_eps = checked("adam_eps", self.adam_eps, float, gt=0)
        self.batch_size = checked("batch_size", self.batch_size, int, ge=1)
        self.clip_sigmas = checked("clip_sigmas", self.clip_sigmas, float,
                                   gt=0)
        self.total_steps = checked("total_steps", self.total_steps, int, ge=0)


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
    """Scalar training objective (see the module docstring) and its
    derivatives in each energy: (loss, d loss / d e_pos, d loss / d e_neg).

    e_pos and e_neg are per-row energies of equal length. The alpha term
    penalizes squared energies of both signs symmetrically.
    """
    e_pos = np.asarray(e_pos, dtype=np.float64)
    e_neg = np.asarray(e_neg, dtype=np.float64)
    if e_pos.shape != e_neg.shape:
        raise DimensionError(
            f"batch sizes differ: {e_pos.shape} vs {e_neg.shape}")
    n = e_pos.size
    loss = np.mean(alpha * (e_pos * e_pos + e_neg * e_neg) + (e_pos - e_neg))
    return loss, (2.0 * alpha * e_pos + 1.0) / n, (2.0 * alpha * e_neg - 1.0) / n


def contrastive_gradient(net, batch, x_neg, alpha, labels=None):
    """Energies, loss and parameter gradients of one contrastive step.

    Data and negatives share the labels and go through one energy pass and
    one reverse pass. Returns (e_pos, e_neg, loss, gradient dict keyed like
    net.parameters()).
    """
    n = batch.shape[0]
    both = np.concatenate([batch, x_neg])
    both_labels = None if labels is None else np.concatenate([labels, labels])
    e = net.energy(both, both_labels)
    e_pos, e_neg = e[:n], e[n:]
    loss, r_pos, r_neg = contrastive_loss(e_pos, e_neg, alpha)
    if not np.isfinite(loss):
        raise TrainingDivergedError("loss is not finite")
    _, grads = net.backward(both, both_labels, r=np.concatenate([r_pos, r_neg]))
    return e_pos, e_neg, loss, grads


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

    Order of effects: sample negatives (buffer-initialized chain), take
    the loss gradient, Adam-update the parameters, refresh the spectral
    estimates, then insert the negatives into the buffer.
    """
    t0 = time.perf_counter()
    batch = np.asarray(batch, dtype=np.float64)
    x_init, _ = init_batch(buffer, batch.shape[0], batch.shape[1], rng)
    x_neg = run_chain(x_init, net, cfg.langevin, rng, labels=labels)
    e_pos, e_neg, loss, grads = contrastive_gradient(net, batch, x_neg,
                                                     cfg.alpha, labels)
    adam_step(net.parameters(), grads, state, cfg)
    if net.config.spectral_norm:
        net.spectral_update()
    buffer.insert(x_neg)

    wall_ms = (time.perf_counter() - t0) * 1e3
    return StepReport(step=state.t,
                      e_pos=float(e_pos.mean()),
                      e_neg=float(e_neg.mean()),
                      loss=float(loss),
                      wall_ms=wall_ms)


def kl_finetune_loss(net, snapshot, langevin, rng, init, labels=None):
    """Loss and parameter gradients for one fine-tuning step.

    Runs the chain with run_chain from init under net's current
    parameters, so the steps and noise are sampling's own, and scores the
    endpoint x_K with the frozen snapshot: loss = mean(E_snap(x_K)). The
    noise is not reparameterized and init is a constant, so the gradient
    flows through each step's drift alone. Going back from a =
    grad E_snap(x_K) / n over the recorded steps, each step zeroes a where
    its clamp bound or the mask held the state, takes the model's reverse pass
    with gradient cotangent c = -step_size * a on the unclipped components,
    adds the returned x-gradient to a and the parameter gradients to the
    total. Returns (loss value, gradient dict keyed like net.parameters()).
    A step with c all zeros (the clip, the clamp or the mask held every
    component) takes no pass. That is exact: a pass with c = 0 and no
    energy cotangent returns only zeros when its states are finite, and the
    chain checked that step's gradient; adding zeros changes no nonzero
    entry of a, nor any entry of the totals, which start at +0.
    """
    if langevin.eps_box is not None:
        raise ContractError(
            "eps_box projection is not supported in differentiated chains")
    record = []
    x = run_chain(init, net, langevin, rng, labels=labels, record=record)

    e_snap, g_snap = snapshot.grad_x(x, labels, with_energy=True)
    loss = float(np.mean(e_snap))
    if not np.isfinite(loss):
        raise TrainingDivergedError("fine-tuning loss is not finite")
    grads = {name: np.zeros_like(p) for name, p in net.parameters()}
    a = g_snap / x.shape[0]
    for x_k, unclipped, passed in reversed(record):
        if passed is not None:
            a = a * passed
        c = -langevin.step_size * (a * unclipped)
        if c.any():
            gx, step_grads = net.backward(x_k, labels, c=c)
            a = a + gx
            for name, g in step_grads.items():
                grads[name] += g
    return loss, grads


def kl_finetune_step(net, snapshot, cfg, state, rng):
    """Differentiate through the sampler and Adam-update the parameters.

    snapshot provides the frozen target energy. The chain is cfg.langevin,
    started from cfg.batch_size rows of uniform noise on [0,1]^d. Returns
    the scalar loss.
    """
    init = rng.uniform(size=(cfg.batch_size, net.config.input_dim))
    loss, grads = kl_finetune_loss(net, snapshot, cfg.langevin, rng, init)
    adam_step(net.parameters(), grads, state, cfg)
    if net.config.spectral_norm:
        net.spectral_update()
    return loss
