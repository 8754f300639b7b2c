"""Product-of-experts composition of energy models.

A product of component densities is realized by summing their energies.
Components enter as (net, label) pairs: the label (None for unconditional
nets) is baked in, so the summed model is itself unconditional. Joint
sampling runs Langevin dynamics on the sum, each step following the
summed gradient.

Fine-tuning treats the frozen sum as the target landscape and adjusts
trainable copies so that short sampling chains land in its low-energy
regions, which is what makes unseen label combinations sampleable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, LabelError, checked
from .sampler import run_chain
from .trainer import AdamState, kl_finetune_step


@dataclass(frozen=True)
class _SummedConfig:
    input_dim: int
    spectral_norm: bool
    num_classes: int = 0


class SummedEnergy:
    """Virtual energy function E(x) = sum_i E_i(x, y_i)."""

    def __init__(self, parts):
        if not parts:
            raise ConfigError("need at least one component model")
        self.parts = [(net, label) for net, label in parts]
        dims = {net.config.input_dim for net, _ in self.parts}
        if len(dims) != 1:
            raise DimensionError(
                f"components disagree on input dimension: {sorted(dims)}")
        for net, label in self.parts:
            classes = net.config.num_classes
            if classes == 0 and label is not None:
                raise LabelError("unconditional component given a label")
            if classes > 0:
                if label is None:
                    raise LabelError("conditional component needs a label")
                if checked("label", label, int, LabelError, ge=0) >= classes:
                    raise LabelError(f"label {label} out of range 0..{classes - 1}")
        self.config = _SummedConfig(
            input_dim=dims.pop(),
            spectral_norm=any(net.config.spectral_norm for net, _ in self.parts))

    def _labels_for(self, label, n):
        if label is None:
            return None
        return np.full(n, int(label), dtype=np.intp)

    def energy(self, x, labels=None):
        if labels is not None:
            raise LabelError("component labels are fixed at composition time")
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros(x.shape[0])
        for net, label in self.parts:
            total = total + net.energy(x, self._labels_for(label, x.shape[0]))
        return total

    def grad_x(self, x, labels=None, *, with_energy=False):
        """Summed input gradient; with with_energy, (energy, gradient)
        with the parts' energies summed in part order, as energy() does."""
        if labels is not None:
            raise LabelError("component labels are fixed at composition time")
        x = np.asarray(x, dtype=np.float64)
        energy = np.zeros(x.shape[0])
        total = np.zeros_like(x)
        for net, label in self.parts:
            part_labels = self._labels_for(label, x.shape[0])
            if with_energy:
                e, g = net.grad_x(x, part_labels, with_energy=True)
                energy = energy + e
            else:
                g = net.grad_x(x, part_labels)
            total = total + g
        return (energy, total) if with_energy else total

    def frozen(self):
        """The sum of the parts' frozen views."""
        return SummedEnergy([(net.frozen(), label) for net, label in self.parts])

    # -- trainable-model plumbing (EnergyNet components only) ----------------

    def parameters(self):
        out = []
        for i, (net, _) in enumerate(self.parts):
            for name, arr in net.parameters():
                out.append((f"part{i}.{name}", arr))
        return out

    def spectral_update(self, iters=None):
        for net, _ in self.parts:
            if net.config.spectral_norm:
                net.spectral_update(iters=iters)

    def backward(self, x, labels=None, r=None, c=None):
        """EnergyNet.backward of the sum: the components' x-gradients
        add up, and their parameter gradients are keyed like
        parameters()."""
        if labels is not None:
            raise LabelError("component labels are fixed at composition time")
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros_like(x)
        grads = {}
        for i, (net, label) in enumerate(self.parts):
            gx, part = net.backward(x, self._labels_for(label, x.shape[0]),
                                    r=r, c=c)
            total = total + gx
            grads.update((f"part{i}.{name}", g) for name, g in part.items())
        return total, grads


def joint_sample(models, cfg, rng, n=64):
    """Sample the product distribution by Langevin dynamics on the sum.

    models is a list of (net, label) pairs; the n chains start from
    uniform noise on [0,1]^d.
    """
    summed = SummedEnergy(models)
    init = rng.uniform(size=(n, summed.config.input_dim))
    return run_chain(init, summed, cfg, rng)


def finetune_combination(models, observed_labels, cfg, rng, epochs=1):
    """Fine-tune component copies so summed-energy sampling reproduces
    the training combinations.

    models is a list of component nets; observed_labels is a list of
    per-component label tuples, one per training dataset slice. Each
    epoch visits every observed combination once, running one
    kl_finetune_step with the frozen original sum as the target
    landscape; the loss gradient runs back through every step of the
    cfg.langevin chain (see kl_finetune_loss). Returns the list of
    adjusted component nets (zero epochs returns unchanged copies).
    """
    epochs = checked("epochs", epochs, int, ge=0)
    tuned = [net.clone() for net in models]
    views = []
    for combo in observed_labels:
        if len(combo) != len(models):
            raise LabelError("each combination needs one label per component")
        views.append((SummedEnergy(list(zip(tuned, combo))),
                      SummedEnergy(list(zip(models, combo)))))
    state = None
    for _ in range(epochs):
        for tuned_view, target_view in views:
            if state is None:
                state = AdamState.for_parameters(tuned_view.parameters())
            kl_finetune_step(tuned_view, target_view, cfg, state, rng)
    return tuned
