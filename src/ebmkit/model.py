"""Fully-connected energy network.

EnergyNet maps each row of x to one real energy. Hidden layers are affine
+ activation, optionally followed by a per-class gain and bias (FiLM:
h <- gamma_y * h + beta_y) when the model is conditional; the final layer
is a plain affine map of width 1. All numpy evaluation runs through one
forward pass over the hidden layers and one reverse pass back over them.
energy is the forward pass and the head. grad_x also records each
layer's activation derivative (one sigmoid per layer) and FiLM gain and
walks them back from the head's weights; on request it returns the
energy too, bit-equal to energy(), since the last hidden state is
already there. backward differentiates
phi = sum_i r_i E(x_i) + sum_i c_i . grad_x E(x_i): the forward pass
carries the tangent c, and the reverse pass returns the x- and parameter
gradients (Pearlmutter 1994, Fast Exact Multiplication by the Hessian).
With c absent that is the gradient of a loss on energies, and no tangent
is carried; with r = 0 it is the second-order product a differentiated
Langevin chain needs. The taped energy (autodiff) computes the same
quantities and serves as their reference in the tests.

Spectral normalization divides each weight matrix by its estimated top
singular value. The estimate comes from a stored left-vector u updated by
power iteration; the right vector v and the scale sigma = u^T W v are
derived from (W, u) at use time rather than cached, so a checkpoint that
stores only (W, b, gamma, beta, u) reproduces forward passes bit-exactly.
Parameter gradients go through W / sigma with u and v held fixed.

Every energy model the toolkit consumes (EnergyNet, the summed
composition, test stand-ins) follows one protocol: energy(x, labels) and
grad_x(x, labels, *, with_energy=False) on batches, plus a config with
input_dim, num_classes and spectral_norm. grad_x with with_energy=True
returns (energy, gradient) at the same points; callers that need both
(the MALA sweeps, PGD, the fine-tuning loss) take them from that one
call. frozen() returns the model for evaluations under unchanged weights
(stand-ins return themselves; see EnergyNet.frozen); an evaluation
depends on the weights and its arguments alone. Trainable models add
parameters, backward and, when spectral_norm is set, spectral_update.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError, LabelError, checked

ACTIVATIONS = ("swish", "leaky_relu")

LEAKY_SLOPE = 0.2


def _affine(h, w, b):
    """h @ w + b, the bias added in place."""
    z = h @ w
    z += b
    return z


def _act(z, kind, order=0):
    """(activation, derivative, second derivative) of z, the derivatives
    None above the given order (0, 1 or 2). Swish takes one sigmoid s
    for all three: z s, s + z s (1 - s) and s (1 - s) (2 + z (1 - 2 s));
    leaky ReLU is piecewise linear, so its second derivative is 0."""
    d = curv = None
    if kind == "swish":
        s = ad.stable_sigmoid(z)
        zs = z * s
        if order >= 1:
            d = 1.0 - s
            d *= zs
            d += s
        if order == 2:
            curv = s * (1.0 - s) * (2.0 + z * (1.0 - 2.0 * s))
        return zs, d, curv
    if order >= 1:
        d = np.where(z > 0, 1.0, LEAKY_SLOPE)
    if order == 2:
        curv = 0.0
    return np.where(z > 0, z, LEAKY_SLOPE * z), d, curv


@dataclass
class ModelConfig:
    """Architecture description.

    widths runs input dimension first through hidden widths to a final
    width of 1 (the scalar energy head).
    """

    widths: tuple
    activation: str = "swish"
    num_classes: int = 0
    spectral_norm: bool = True
    power_iters: int = 1

    def __post_init__(self):
        if not isinstance(self.widths, (list, tuple)):
            raise ConfigError(f"widths must be a list, got {self.widths!r}")
        self.widths = tuple(checked("each width", w, int, ge=1)
                            for w in self.widths)
        if len(self.widths) < 2:
            raise ConfigError("widths needs an input extent and an output extent")
        if self.widths[-1] != 1:
            raise ConfigError("last layer width must be 1 (scalar energy)")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unsupported activation {self.activation!r}")
        self.num_classes = checked("num_classes", self.num_classes, int, ge=0)
        self.spectral_norm = checked("spectral_norm", self.spectral_norm, bool)
        self.power_iters = checked("power_iters", self.power_iters, int, ge=1)

    @property
    def input_dim(self):
        return self.widths[0]


@dataclass
class Layer:
    w: np.ndarray
    b: np.ndarray
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    u: np.ndarray | None = None


def layer_shapes(widths, num_classes, spectral_norm):
    """Per-layer array shapes, keyed like Layer fields, in storage order
    (w, b, then gamma and beta on conditional hidden layers, then u when
    spectral normalization is on)."""
    shapes = []
    n_layers = len(widths) - 1
    for i in range(n_layers):
        fan_in, fan_out = widths[i], widths[i + 1]
        entry = {"w": (fan_in, fan_out), "b": (fan_out,)}
        if num_classes > 0 and i < n_layers - 1:
            entry["gamma"] = (num_classes, fan_out)
            entry["beta"] = (num_classes, fan_out)
        if spectral_norm:
            entry["u"] = (fan_in,)
        shapes.append(entry)
    return shapes


def spectral_sigma(layer):
    """The spectral scale |W^T u| that divides layer.w; layer.u must be
    set. A checkpoint is refused unless it is finite and positive."""
    wu = layer.w.T @ layer.u
    return np.sqrt(wu.dot(wu))      # np.linalg.norm's own arithmetic


def _trainable(layer):
    """(field, array) pairs of a layer's trainable arrays: w, b, then
    gamma and beta when present (u is estimator state, not a parameter)."""
    return [(k, a) for k, a in vars(layer).items() if k != "u" and a is not None]


class EnergyNet:
    """Scalar energy per batch row, optionally conditioned on a class
    label per row; see the module docstring."""

    def __init__(self, config, layers):
        self.config = config
        self.layers = layers
        # frozen() views only: the effective weights
        self._w_effs = None

    @classmethod
    def init(cls, config, rng):
        """Random fresh model; spectral u estimates are warmed up with 50
        power iterations so the first forward pass is already normalized."""
        layers = []
        for shapes in layer_shapes(config.widths, config.num_classes,
                                   config.spectral_norm):
            fan_in = shapes["w"][0]
            layer = Layer(w=rng.normal(size=shapes["w"]) * np.sqrt(2.0 / fan_in),
                          b=np.zeros(shapes["b"]))
            if "gamma" in shapes:
                layer.gamma = np.ones(shapes["gamma"])
                layer.beta = np.zeros(shapes["beta"])
            if "u" in shapes:
                u = rng.normal(size=shapes["u"])
                layer.u = u / np.linalg.norm(u)
            layers.append(layer)
        net = cls(config, layers)
        if config.spectral_norm:
            net.spectral_update(iters=50)
        return net

    # -- parameter plumbing -------------------------------------------------

    def parameters(self):
        """(name, array) pairs in a fixed order; arrays are live references."""
        return [(f"layer{i}.{k}", a) for i, layer in enumerate(self.layers)
                for k, a in _trainable(layer)]

    def clone(self):
        layers = [
            Layer(**{name: None if arr is None else arr.copy()
                     for name, arr in vars(l).items()})
            for l in self.layers
        ]
        return type(self)(self.config, layers)

    def lift_parameters(self, tape):
        """Create tape leaves (marked as parameters) mirroring the layers.

        Returns a per-layer list of dicts keyed w/b/gamma/beta, in the same
        order as parameters()."""
        return [{k: tape.leaf(a, param=True) for k, a in _trainable(layer)}
                for layer in self.layers]

    # -- spectral normalization ---------------------------------------------

    def spectral_update(self, iters=None):
        """Refine each layer's left-vector estimate by power iteration on
        the Gram matrix W W^T. A zero weight matrix is skipped (its scale
        is undefined) with a warning."""
        if not self.config.spectral_norm:
            raise ConfigError("spectral normalization is disabled for this model")
        steps = self.config.power_iters if iters is None else int(iters)
        for i, layer in enumerate(self.layers):
            u = layer.u
            for _ in range(steps):
                wu = layer.w.T @ u
                n = np.linalg.norm(wu)
                if n == 0.0:
                    warnings.warn(f"layer {i}: zero weight matrix, spectral scale skipped")
                    break
                wv = layer.w @ (wu / n)
                n2 = np.linalg.norm(wv)
                if n2 == 0.0:
                    warnings.warn(f"layer {i}: zero weight matrix, spectral scale skipped")
                    break
                u = wv / n2
            layer.u = u

    def _effective_weight(self, layer):
        if not self.config.spectral_norm or layer.u is None:
            return layer.w
        sigma = spectral_sigma(layer)
        if sigma == 0.0:
            warnings.warn("zero weight matrix, spectral scale skipped")
            return layer.w
        return layer.w / sigma

    def _weights(self):
        if self._w_effs is not None:
            return self._w_effs
        return [self._effective_weight(l) for l in self.layers]

    def frozen(self):
        """A view of this net for evaluations under unchanged weights. It
        shares the layers and takes the effective weights once; it keeps
        nothing from one call to the next. A weight update makes earlier
        views stale."""
        view = type(self)(self.config, self.layers)
        view._w_effs = self._weights()
        return view

    def _taped_effective_weight(self, layer, w_t):
        """W / (u^T W v) with u, v fixed at their current estimates, so
        gradients flow through W only."""
        if not self.config.spectral_norm or layer.u is None:
            return w_t
        wu = layer.w.T @ layer.u
        n = np.linalg.norm(wu)
        if n == 0.0:
            warnings.warn("zero weight matrix, spectral scale skipped")
            return w_t
        v = wu / n
        sigma = ad.sum_all(ad.mul(w_t, ad.constant(np.outer(layer.u, v))))
        return ad.mul_scalar(w_t, ad.reciprocal(sigma))

    # -- forward passes -------------------------------------------------------

    def _inputs(self, x, labels):
        """x as float64 and labels as class indices, checked against the
        config (labels None for an unconditional model)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise DimensionError(
                f"expected inputs of shape (batch, {self.config.input_dim}), got {x.shape}")
        if self.config.num_classes == 0:
            if labels is not None:
                raise LabelError("model is unconditional but labels were given")
            return x, None
        if labels is None:
            raise LabelError("conditional model requires a label per row")
        labels = np.asarray(labels, dtype=np.intp)
        if labels.shape != (x.shape[0],):
            raise LabelError(f"labels shape {labels.shape} does not match batch {x.shape[0]}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.config.num_classes):
            raise LabelError("label out of range")
        return x, labels

    def _forward(self, x, labels, w_effs, record=None, c=None, keep=False):
        """numpy pass through the hidden layers; returns the last hidden
        state and its tangent along c (None without c). With record a
        list, appends per layer what _reverse reads, (h, a, d, gain, dh,
        dz, da, curv): the layer's input, activation, activation
        derivative and gathered FiLM gain (None without FiLM), then with c
        the tangents of the input, pre-activation and activation and the
        second derivative. h and a, which only parameter gradients read,
        are None without keep, and then the FiLM product runs in place."""
        if labels is not None and labels.size and (labels == labels[0]).all():
            # one class for every row: its FiLM row broadcasts, ungathered
            labels = labels[:1]
        order = 0 if record is None else 1 if c is None else 2
        kind, h, dh = self.config.activation, x, c
        for layer, w in zip(self.layers[:-1], w_effs):
            a, d, curv = _act(_affine(h, w, layer.b), kind, order)
            dz = da = None
            if dh is not None:
                dz = dh @ w
                da = d * dz
            gain = None if layer.gamma is None else layer.gamma[labels]
            if record is not None:
                record.append((h, a, d, gain, dh, dz, da, curv) if keep
                              else (None, None, d, gain, dh, dz, da, curv))
            h, dh = a, da
            if gain is not None:
                if keep:
                    h = h * gain
                else:
                    h *= gain
                h += layer.beta[labels]
                if dh is not None:
                    dh = dh * gain
        return h, dh

    def _reverse(self, record, w_effs, hb, dhb=None, grads=None, onehot=None):
        """Walks a _forward record back from hb, the adjoint of the last
        hidden state, and dhb, that of its tangent (None without one);
        returns the adjoint of the input. With grads a list, sets
        grads[i] to hidden layer i's parameter gradients, for which
        FiLM layers read onehot, the labels' one-hot rows."""
        for i in range(len(record) - 1, -1, -1):
            h, a, d, gain, dh, dz, da, curv = record[i]
            if grads is not None:
                g = grads[i] = {}
            if gain is not None:
                if grads is not None:
                    g["gamma"] = onehot.T @ (hb * a if dhb is None
                                             else hb * a + dhb * da)
                    g["beta"] = onehot.T @ hb
                hb = hb * gain
                if dhb is not None:
                    dhb = dhb * gain
            # from here hb is the pre-activation's adjoint; rebinding the
            # one name lets each spent adjoint go at once
            hb = hb * d
            if dhb is not None:
                dzb = dhb * d
                hb += dhb * dz * curv
                if grads is not None:
                    g["w"] = h.T @ hb + dh.T @ dzb
                dhb = dzb @ w_effs[i].T
            elif grads is not None:
                g["w"] = h.T @ hb
            if grads is not None:
                g["b"] = hb.sum(axis=0)
            hb = hb @ w_effs[i].T
        return hb

    def _head(self, h, w_effs):
        """Energy per row from the last hidden state."""
        return _affine(h, w_effs[-1], self.layers[-1].b)[:, 0]

    def energy(self, x, labels=None):
        """Energy per batch row, shape (batch,)."""
        x, labels = self._inputs(x, labels)
        w_effs = self._weights()
        h, _ = self._forward(x, labels, w_effs)
        return self._head(h, w_effs)

    def grad_x(self, x, labels=None, *, with_energy=False):
        """d energy[i] / d x[i], shape (batch, d). Rows are independent.

        With with_energy, returns (energy, gradient); the energy comes from
        the same hidden pass and is bit-equal to energy(x, labels).
        """
        x, labels = self._inputs(x, labels)
        w_effs = self._weights()
        record = []
        h, _ = self._forward(x, labels, w_effs, record)
        # the head's one row as the adjoint; the products broadcast it
        g = self._reverse(record, w_effs, w_effs[-1].T)
        if not record:
            g = np.repeat(g, x.shape[0], axis=0)
        if with_energy:
            return self._head(h, w_effs), g
        return g

    def backward(self, x, labels=None, r=None, c=None):
        """Gradients of phi = sum_i r[i] E(x[i]) + sum_i c[i] . grad_x E(x[i]).

        r has shape (batch,) and c the shape of x; r None stands for zero.
        Returns (d phi / d x, {name: d phi / d parameter}) keyed like
        parameters(). When c is given, the forward pass carries the tangent
        dh = c along the hidden states and one reverse pass runs through
        both; when c is None, no tangent (and no second derivative) is
        computed at all.
        """
        x, labels = self._inputs(x, labels)
        n = x.shape[0]
        r = np.zeros(n) if r is None else np.asarray(r, dtype=np.float64)
        c = None if c is None else np.asarray(c, dtype=np.float64)
        if r.shape != (n,) or (c is not None and c.shape != x.shape):
            raise DimensionError(
                f"cotangents of shape {r.shape} and {np.shape(c)} do not "
                f"match inputs of shape {x.shape}")
        w_effs = self._weights()
        record = []
        h, dh = self._forward(x, labels, w_effs, record, c, keep=True)

        # hb and dhb are the adjoints of the hidden state and its tangent
        w = w_effs[-1]
        grads = [None] * len(self.layers)
        grads[-1] = {"w": h.T @ r[:, None], "b": r.sum(keepdims=True)}
        hb, dhb, onehot = r[:, None] * w.T, None, None
        if dh is not None:
            grads[-1]["w"] = grads[-1]["w"] + dh.sum(axis=0)[:, None]
            dhb = np.broadcast_to(w.T, h.shape)
        if labels is not None:
            onehot = (labels[:, None] == np.arange(self.config.num_classes)
                      ).astype(np.float64)
        hb = self._reverse(record, w_effs, hb, dhb, grads, onehot)

        for layer, w, g in zip(self.layers, w_effs, grads):
            if w is not layer.w:
                # w = W / sigma with sigma = u^T W v, u and v held fixed
                wu = layer.w.T @ layer.u
                sigma = np.sqrt(wu.dot(wu))
                g["w"] = (g["w"] - np.sum(g["w"] * w)
                          * np.outer(layer.u, wu / sigma)) / sigma
        return hb, {f"layer{i}.{k}": g[k]
                    for i, (layer, g) in enumerate(zip(self.layers, grads))
                    for k, _ in _trainable(layer)}

    def taped_energy(self, x, labels=None, params=None):
        """Energy per row, shape (batch,), built from recorded operations.

        x is a Tensor (leaf or intermediate) or an array. When params is
        None the current weights enter as constants so only x is
        differentiated; pass the structure from lift_parameters() to
        differentiate the parameters as well. No command runs it: it is
        the tests' reference for grad_x and backward.
        """
        xv, labels = self._inputs(x.data if isinstance(x, ad.Tensor) else x,
                                  labels)
        h = x if isinstance(x, ad.Tensor) else ad.constant(xv)
        for i, layer in enumerate(self.layers):
            p = (params[i] if params is not None
                 else {k: ad.constant(a) for k, a in _trainable(layer)})
            w_eff = self._taped_effective_weight(layer, p["w"])
            h = ad.add_row(ad.matmul(h, w_eff), p["b"])
            if i < len(self.layers) - 1:
                h = ad.activation(h, self.config.activation)
                if layer.gamma is not None:
                    h = ad.add(ad.mul(h, ad.take_rows(p["gamma"], labels)),
                               ad.take_rows(p["beta"], labels))
        return ad.reshape(h, (xv.shape[0],))
