"""Supervised feedforward reference models.

Small dense networks trained with ordinary supervised losses: a softmax
classifier under cross-entropy and a regressor under mean squared error,
optionally with spectral-normalized weights. MLPHead is a thin subclass of
the energy networks' MLP core (model.MLP), so layers, initialization,
spectral normalization and the taped pass are shared; it runs on the same
tape engine and Adam update as the energy models and serves as a
comparison point for the energy-based workflows (sequential-task
classification, one-step dynamics prediction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError, LabelError, TrainingDivergedError
from .model import ACTIVATIONS, MLP
from .trainer import adam_step


@dataclass
class HeadConfig:
    """Architecture of a supervised head.

    widths runs input extent through hidden widths to an output extent of
    any size: class logits for a classifier, target dimensions for a
    regressor.
    """

    widths: tuple
    activation: str = "swish"
    spectral_norm: bool = False
    power_iters: int = 1

    # heads carry no per-class gain and bias
    num_classes = 0

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if len(self.widths) < 2:
            raise ConfigError("widths needs an input extent and an output extent")
        if any(w < 1 for w in self.widths):
            raise ConfigError("layer widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unsupported activation {self.activation!r}")
        if self.power_iters < 1:
            raise ConfigError("power_iters must be >= 1")

    @property
    def input_dim(self):
        return self.widths[0]

    @property
    def output_dim(self):
        return self.widths[-1]


class MLPHead(MLP):
    """Plain affine stack with activations between layers and a linear
    output layer."""

    def forward(self, x):
        """Network outputs, shape (batch, output_dim)."""
        x = np.asarray(x, dtype=np.float64)
        self._check_x(x)
        return self._forward(x)

    def taped_forward(self, x, params=None):
        """Taped outputs, shape (batch, output_dim); x and params as for
        MLP._taped_forward."""
        self._check_x(x.data if isinstance(x, ad.Tensor)
                      else np.asarray(x, dtype=np.float64))
        return self._taped_forward(x, params=params)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of softmax(logits) against integer labels."""
    n, k = logits.data.shape
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    picked = ad.sum1(ad.mul(logits, ad.constant(onehot)))
    return ad.mean_all(ad.sub(ad.logsumexp1(logits), picked))


def mse(pred, target):
    """Mean squared error over every output component."""
    d = ad.sub(pred, ad.constant(target))
    return ad.mean_all(ad.mul(d, d))


def _check_labels(labels, n, num_classes):
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (n,):
        raise LabelError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise LabelError("label out of range")
    return labels


def _supervised_step(net, x, build_loss, cfg, state):
    with ad.Tape() as tape:
        params = net.lift_parameters(tape)
        out = net.taped_forward(ad.constant(x), params)
        loss = build_loss(out)
        if not np.isfinite(loss.data):
            raise TrainingDivergedError("loss is not finite")
        leaves = [t for entry in params for t in entry.values()]
        grad_tensors = ad.gradient(loss, leaves)
    names = [name for name, _ in net.parameters()]
    grads = {name: g.data for name, g in zip(names, grad_tensors)}
    adam_step(net.parameters(), grads, state, cfg)
    if net.config.spectral_norm:
        net.spectral_update()
    return float(loss.data)


def classifier_step(net, x, labels, cfg, state):
    """One cross-entropy Adam step; returns the loss value."""
    x = np.asarray(x, dtype=np.float64)
    labels = _check_labels(labels, x.shape[0], net.config.output_dim)
    return _supervised_step(
        net, x, lambda out: softmax_cross_entropy(out, labels), cfg, state)


def regressor_step(net, x, targets, cfg, state):
    """One mean-squared-error Adam step; returns the loss value."""
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (x.shape[0], net.config.output_dim):
        raise DimensionError(
            f"expected targets of shape ({x.shape[0]}, "
            f"{net.config.output_dim}), got {targets.shape}")
    return _supervised_step(
        net, x, lambda out: mse(out, targets), cfg, state)


def predict_classes(net, x):
    """Most-likely class per row under the classifier head."""
    return np.argmax(net.forward(x), axis=1)
