"""Shared numerical oracles for the test suite.

Everything here is deliberately independent of the package internals:
finite differences and brute-force evaluation only, so tests compare the
library against arithmetic a reviewer can redo by hand. Analytic energy
models and malformed-checkpoint builders are shared here too, and so are
the earlier forms of seven kernels (the masked sigmoid with a two-sigmoid
input gradient, the out-of-place network pass with its reverse passes,
the MALA sweep that recomputes energies and gradients, the quadrature
that scores its whole grid in one energy call, the Langevin chain that
takes a gradient at every step, the PGD attack that scores classes with
separate energy calls and runs every step, and the fine-tuning reverse
walk that takes a reverse pass at every step), kept as bit-exact oracles
for their replacements. The taped (autodiff) forms
of the contrastive gradient and of the differentiated fine-tuning chain
are the references for the closed-form reverse passes, and a composite
Simpson rule on a fine grid is the reference for the quadrature.
"""

import json
import struct
from types import SimpleNamespace

import numpy as np


def ks_oracle(a, b):
    """Two-sample Kolmogorov-Smirnov statistic by brute force.

    Evaluates both empirical CDFs at every observed point and takes the
    largest gap. O(n*m) on purpose — slow but unarguable.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    points = np.concatenate([a, b])
    best = 0.0
    for p in points:
        fa = np.searchsorted(a, p, side="right") / a.size
        fb = np.searchsorted(b, p, side="right") / b.size
        best = max(best, abs(fa - fb))
    return best


def central_diff(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at array x.

    Perturbs one component at a time. x is not modified.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        hi = f(x)
        xf[i] = orig - h
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * h)
    return grad


def energy_config(input_dim):
    """The config every energy model carries, for an unconditional model
    without spectral normalization."""
    return SimpleNamespace(input_dim=input_dim, num_classes=0,
                           spectral_norm=False)


def relative_error(approx, exact):
    """Max elementwise |approx - exact| / max(1, |exact|)."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(exact))
    return float(np.max(np.abs(approx - exact) / denom))


class QuadraticEnergy:
    """Hand-checkable energy 0.5 (x-mu)^T P (x-mu) with exact gradient.

    Follows the energy-model protocol the sampler and estimators expect
    (a config, energy / grad_x on batches). With mu=0, P=I this is
    0.5 ||x||^2 and the Boltzmann density exp(-E)/Z is standard normal.
    """

    def __init__(self, mu=None, prec=None, dim=2):
        self.mu = np.zeros(dim) if mu is None else np.asarray(mu, dtype=np.float64)
        d = self.mu.size
        self.prec = np.eye(d) if prec is None else np.asarray(prec, dtype=np.float64)
        self.config = energy_config(d)

    def energy(self, x, labels=None):
        delta = np.asarray(x, dtype=np.float64) - self.mu
        return 0.5 * np.einsum("bi,ij,bj->b", delta, self.prec, delta)

    def frozen(self):
        return self

    def grad_x(self, x, labels=None, *, with_energy=False):
        delta = np.asarray(x, dtype=np.float64) - self.mu
        g = delta @ self.prec.T
        return (self.energy(x), g) if with_energy else g

    def log_partition(self):
        d = self.mu.size
        sign, logdet = np.linalg.slogdet(self.prec)
        assert sign > 0
        return 0.5 * (d * np.log(2.0 * np.pi) - logdet)


class GaussianMixtureEnergy:
    """Energy -log p(x) for an isotropic Gaussian mixture.

    Because p is normalized, the Boltzmann density of this energy is p
    itself and the log partition function is exactly 0 — handy as ground
    truth for estimator tests.
    """

    def __init__(self, means, sigmas, weights=None):
        self.means = np.asarray(means, dtype=np.float64)
        k = self.means.shape[0]
        self.sigmas = np.broadcast_to(
            np.asarray(sigmas, dtype=np.float64), (k,)).copy()
        self.weights = (np.full(k, 1.0 / k) if weights is None
                        else np.asarray(weights, dtype=np.float64))
        self.config = energy_config(self.means.shape[1])

    def _component_logs(self, x):
        d = self.means.shape[1]
        sq = ((x[:, None, :] - self.means[None, :, :]) ** 2).sum(axis=2)
        return (np.log(self.weights)[None, :]
                - 0.5 * d * np.log(2.0 * np.pi * self.sigmas ** 2)[None, :]
                - sq / (2.0 * self.sigmas ** 2)[None, :])

    def energy(self, x, labels=None):
        logs = self._component_logs(np.asarray(x, dtype=np.float64))
        m = logs.max(axis=1)
        return -(m + np.log(np.exp(logs - m[:, None]).sum(axis=1)))

    def frozen(self):
        return self

    def grad_x(self, x, labels=None, *, with_energy=False):
        x = np.asarray(x, dtype=np.float64)
        logs = self._component_logs(x)
        logs -= logs.max(axis=1, keepdims=True)
        r = np.exp(logs)
        r /= r.sum(axis=1, keepdims=True)
        pull = (x[:, None, :] - self.means[None, :, :]) / (self.sigmas ** 2)[None, :, None]
        g = (r[:, :, None] * pull).sum(axis=1)
        return (self.energy(x), g) if with_energy else g

    def log_partition(self):
        return 0.0 if abs(self.weights.sum() - 1.0) < 1e-12 else np.log(self.weights.sum())

    def sample(self, n, rng):
        comp = rng.choice(len(self.weights), size=n, p=self.weights / self.weights.sum())
        return self.means[comp] + rng.normal(size=(n, self.means.shape[1])) * self.sigmas[comp][:, None]


class TapedQuadratic:
    """Trainable two-parameter energy E(x) = 0.5 * w * ||x - mu||^2.

    Implements the same protocol as the package's energy nets (config /
    parameters / backward / energy / grad_x, plus lift_parameters /
    taped_energy for the tape) so it can stand in wherever a tiny
    analytic model makes the math checkable.
    """

    def __init__(self, mu, w=1.0):
        self.mu = np.asarray(mu, dtype=np.float64)
        self.w = np.asarray(float(w))
        self.config = energy_config(self.mu.size)

    def parameters(self):
        return [("mu", self.mu), ("w", self.w)]

    def lift_parameters(self, tape):
        return [{"mu": tape.leaf(self.mu, param=True),
                 "w": tape.leaf(self.w, param=True)}]

    def taped_energy(self, x, labels=None, params=None):
        from ebmkit import autodiff as ad
        xv = x.data if isinstance(x, ad.Tensor) else np.asarray(x, dtype=np.float64)
        xt = x if isinstance(x, ad.Tensor) else ad.constant(xv)
        if params is not None:
            mu_t, w_t = params[0]["mu"], params[0]["w"]
        else:
            mu_t, w_t = ad.constant(self.mu), ad.constant(self.w)
        diff = ad.sub(xt, ad.bcast0(mu_t, xv.shape[0]))
        sq = ad.sum1(ad.mul(diff, diff))
        e = ad.scale(ad.mul_scalar(sq, w_t), 0.5)
        return ad.reshape(e, (xv.shape[0],))

    def energy(self, x, labels=None):
        delta = np.asarray(x, dtype=np.float64) - self.mu
        return 0.5 * float(self.w) * (delta ** 2).sum(axis=1)

    def frozen(self):
        return self

    def grad_x(self, x, labels=None, *, with_energy=False):
        g = float(self.w) * (np.asarray(x, dtype=np.float64) - self.mu)
        return (self.energy(x), g) if with_energy else g

    def backward(self, x, labels=None, r=None, c=None):
        """Gradients of phi = sum_i r_i E(x_i) + sum_i c_i . grad_x E(x_i)
        = sum_i r_i w ||x_i - mu||^2 / 2 + w sum_i c_i . (x_i - mu)."""
        delta = np.asarray(x, dtype=np.float64) - self.mu
        r = np.zeros(delta.shape[0]) if r is None else np.asarray(r)
        c = np.zeros_like(delta) if c is None else np.asarray(c)
        w = float(self.w)
        pull = r[:, None] * delta + c
        grads = {"mu": -w * pull.sum(axis=0),
                 "w": np.asarray(0.5 * np.sum(r * (delta ** 2).sum(axis=1))
                                 + np.sum(c * delta))}
        return w * pull, grads


def with_manifest(raw, edit):
    """Checkpoint bytes whose manifest is replaced by edit(manifest)."""
    mlen = struct.unpack("<I", raw[8:12])[0]
    manifest = edit(json.loads(raw[12:12 + mlen]))
    mbytes = json.dumps(manifest).encode("utf-8")
    return raw[:8] + struct.pack("<I", len(mbytes)) + mbytes + raw[12 + mlen:]


def _drop_model(m):
    del m["model"]
    return m


def _unknown_model_key(m):
    m["model"]["depth"] = 3
    return m


def _string_widths(m):
    m["model"]["widths"] = "ab"
    return m


def _set(section, key, value):
    def edit(m):
        m[section][key] = value
        return m
    return edit


MALFORMED_MANIFESTS = {
    "missing-model": _drop_model,
    "unknown-model-key": _unknown_model_key,
    "json-list": lambda m: [m],
    "string-widths": _string_widths,
    "float-width": _set("model", "widths", [2, 4.0, 1]),
    "bool-width": _set("model", "widths", [2, True, 1]),
    "float-num-classes": _set("model", "num_classes", 2.5),
    "bool-num-classes": _set("model", "num_classes", True),
    "float-power-iters": _set("model", "power_iters", 1.5),
    "string-spectral-norm": _set("model", "spectral_norm", "yes"),
    "float-buffer-count": _set("buffer", "count", 5.0),
    "huge-float-buffer-dim": _set("buffer", "dim", 1e300),
    "huge-float-buffer-capacity": _set("buffer", "capacity", 1e300),
    "buffer-dim-mismatch": _set("buffer", "dim", 3),
    "buffer-count-over-capacity": _set("buffer", "capacity", 4),
    "buffer-too-large-to-allocate": _set("buffer", "capacity", 10 ** 30),
}


def save_stateful_checkpoint(path):
    """A 2-4-1 spectral model with a replay buffer of capacity 8 holding
    5 rows: every manifest section is present."""
    from ebmkit.checkpoint import save_checkpoint
    from ebmkit.model import EnergyNet, ModelConfig
    from ebmkit.sampler import ReplayBuffer

    rng = np.random.default_rng(0)
    net = EnergyNet.init(ModelConfig(widths=(2, 4, 1)), rng)
    buffer = ReplayBuffer(capacity=8)
    buffer.insert(rng.uniform(size=(5, 2)))
    save_checkpoint(path, net, buffer=buffer)


# ---------------------------------------------------------------------------
# earlier kernel forms, kept as bit-exact oracles

def masked_sigmoid(x):
    """1 / (1 + exp(-x)) built with boolean masks, one branch per sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _two_sigmoid_act(z, kind, slope):
    if kind == "swish":
        return z * masked_sigmoid(z)
    return np.where(z > 0, z, slope * z)


def _two_sigmoid_act_deriv(z, kind, slope):
    if kind == "swish":
        s = masked_sigmoid(z)
        return s + z * s * (1.0 - s)
    return np.where(z > 0, 1.0, slope)


def two_sigmoid_grad_x(net, x, labels=None, slope=0.2):
    """d energy / d x of an EnergyNet by the pre-activation route: the
    forward pass keeps each pre-activation, and the backward pass takes
    the sigmoid a second time for the activation derivative."""
    w_effs = []
    for layer in net.layers:
        w = layer.w
        if net.config.spectral_norm and layer.u is not None:
            w = w / np.linalg.norm(layer.w.T @ layer.u)
        w_effs.append(w)
    kind = net.config.activation
    h, pre = x, []
    for layer, w in zip(net.layers[:-1], w_effs):
        z = h @ w + layer.b
        pre.append(z)
        h = _two_sigmoid_act(z, kind, slope)
        if layer.gamma is not None:
            h = h * layer.gamma[labels] + layer.beta[labels]
    g = np.repeat(w_effs[-1].T, x.shape[0], axis=0)
    for i in range(len(net.layers) - 2, -1, -1):
        layer = net.layers[i]
        if layer.gamma is not None:
            g = g * layer.gamma[labels]
        g = g * _two_sigmoid_act_deriv(pre[i], kind, slope)
        g = g @ w_effs[i].T
    return g


def _reference_act(z, kind, derivs, curvs):
    from ebmkit.model import LEAKY_SLOPE

    if kind == "swish":
        s = masked_sigmoid(z)
        zs = z * s
        derivs.append(s + zs * (1.0 - s))
        curvs.append(s * (1.0 - s) * (2.0 + z * (1.0 - 2.0 * s)))
        return zs
    derivs.append(np.where(z > 0, 1.0, LEAKY_SLOPE))
    curvs.append(0.0)
    return np.where(z > 0, z, LEAKY_SLOPE * z)


def _reference_weights(net):
    w_effs = []
    for layer in net.layers:
        w = layer.w
        if net.config.spectral_norm and layer.u is not None:
            sigma = np.linalg.norm(layer.w.T @ layer.u)
            if sigma != 0.0:
                w = w / sigma
        w_effs.append(w)
    return w_effs


def reference_energy_grad(net, x, labels=None):
    """(energy, grad_x) of an EnergyNet by the out-of-place pass: fresh
    temporaries for every bias, activation derivative and FiLM product,
    rows gathered per layer, and the reverse pass seeded by np.repeat."""
    w_effs = _reference_weights(net)
    derivs, h = [], x
    for layer, w in zip(net.layers[:-1], w_effs):
        h = _reference_act(h @ w + layer.b, net.config.activation, derivs, [])
        if layer.gamma is not None:
            h = h * layer.gamma[labels] + layer.beta[labels]
    energy = (h @ w_effs[-1] + net.layers[-1].b)[:, 0]
    g = np.repeat(w_effs[-1].T, x.shape[0], axis=0)
    for i in range(len(net.layers) - 2, -1, -1):
        layer = net.layers[i]
        if layer.gamma is not None:
            g = g * layer.gamma[labels]
        g = g * derivs[i]
        g = g @ w_effs[i].T
    return energy, g


def reference_backward(net, x, labels=None, r=None, c=None):
    """EnergyNet.backward by the out-of-place pass, as reference_energy_grad."""
    n = x.shape[0]
    r = np.zeros(n) if r is None else r
    dh, tangent = c, c is not None
    w_effs = _reference_weights(net)
    derivs, curvs, saved = [], [], []
    h = x
    for layer, w in zip(net.layers[:-1], w_effs):
        a = _reference_act(h @ w + layer.b, net.config.activation, derivs,
                           curvs)
        dz = da = None
        if tangent:
            dz = dh @ w
            da = derivs[-1] * dz
        saved.append((h, dh, a, dz, da))
        if layer.gamma is None:
            h, dh = a, da
        else:
            gain = layer.gamma[labels]
            h = a * gain + layer.beta[labels]
            dh = da * gain if tangent else None
    w = w_effs[-1]
    grads = [None] * len(net.layers)
    grads[-1] = {"w": h.T @ r[:, None], "b": r.sum(keepdims=True)}
    hb = r[:, None] * w.T
    if tangent:
        grads[-1]["w"] = grads[-1]["w"] + dh.sum(axis=0)[:, None]
        dhb = np.broadcast_to(w.T, h.shape)
    if labels is not None:
        onehot = (labels[:, None] == np.arange(net.config.num_classes)
                  ).astype(np.float64)
    for i in range(len(net.layers) - 2, -1, -1):
        layer, w = net.layers[i], w_effs[i]
        h, dh, a, dz, da = saved[i]
        g = {}
        if layer.gamma is not None:
            g["gamma"] = onehot.T @ (hb * a + dhb * da if tangent
                                     else hb * a)
            g["beta"] = onehot.T @ hb
            gain = layer.gamma[labels]
            hb = hb * gain
            if tangent:
                dhb = dhb * gain
        if tangent:
            dzb = dhb * derivs[i]
            zb = hb * derivs[i] + dhb * dz * curvs[i]
            g["w"] = h.T @ zb + dh.T @ dzb
            dhb = dzb @ w.T
        else:
            zb = hb * derivs[i]
            g["w"] = h.T @ zb
        g["b"] = zb.sum(axis=0)
        hb = zb @ w.T
        grads[i] = g
    for layer, w, g in zip(net.layers, w_effs, grads):
        if w is not layer.w:
            wu = layer.w.T @ layer.u
            sigma = np.linalg.norm(wu)
            g["w"] = (g["w"] - np.sum(g["w"] * w)
                      * np.outer(layer.u, wu / sigma)) / sigma
    return hb, {f"layer{i}.{k}": g[k] for i, g in enumerate(grads)
                for k in ("w", "b", "gamma", "beta") if k in g}


def _recomputing_mala_sweep(net, beta, x, u, cfg, rng):
    """Each transition evaluates the rung gradient at x afresh. The rung
    density is exp(-beta E) on the unit cube."""
    from ebmkit.metrics import _tamed_drift

    h = cfg.step_size
    for _ in range(cfg.transitions):
        mean_fwd = x + _tamed_drift(beta * net.grad_x(x), h)
        prop = mean_fwd + np.sqrt(h) * rng.normal(size=x.shape)
        ok = np.all((prop >= 0.0) & (prop <= 1.0), axis=1)
        u_prop = np.where(ok, beta * net.energy(prop), np.inf)
        g_prop = beta * net.grad_x(np.where(ok[:, None], prop, x))
        mean_bwd = prop + _tamed_drift(g_prop, h)
        log_q_fwd = -np.sum((prop - mean_fwd) ** 2, axis=1) / (2.0 * h)
        log_q_bwd = -np.sum((x - mean_bwd) ** 2, axis=1) / (2.0 * h)
        with np.errstate(invalid="ignore"):
            log_accept = (u - u_prop) + (log_q_bwd - log_q_fwd)
        accept = np.log(rng.uniform(size=x.shape[0])) < log_accept
        x = np.where(accept[:, None], prop, x)
        u = np.where(accept, u_prop, u)
    return x


def recomputing_logZ(net, cfg, rng, samples=None):
    """The AIS estimate (samples None) or the RAISE estimate (samples
    given) with a MALA sweep that recomputes the gradient at the current
    state on every transition and the net energy after every rung. The
    base is the uniform density on the unit cube (energy 0, logZ 0) and
    the drift cap comes from ebmkit.metrics; only the bookkeeping differs
    from the library's estimators."""
    betas = cfg.ladder()
    if samples is None:
        x = rng.uniform(size=(cfg.chains, net.config.input_dim))
        order = range(1, len(betas))
    else:
        x = samples[rng.integers(0, samples.shape[0], size=cfg.chains)]
        order = range(len(betas) - 2, -1, -1)
    logw = np.zeros(cfg.chains)
    for t in order:
        e_target = net.energy(x)
        if samples is None:
            logw -= (betas[t] - betas[t - 1]) * e_target
        else:
            logw += (betas[t + 1] - betas[t]) * e_target
        x = _recomputing_mala_sweep(net, betas[t], x, betas[t] * e_target,
                                    cfg, rng)
    m = np.max(logw)
    log_mean_w = float(m + np.log(np.mean(np.exp(logw - m))))
    return log_mean_w if samples is None else 0.0 - log_mean_w


def one_call_quadrature(net, lo, hi, resolution):
    """log of the midpoint-rule integral of exp(-E) over [lo, hi]^d, with
    every grid row scored by a single net.energy call."""
    d = net.config.input_dim
    n = max(1, int(round((hi - lo) / resolution)))
    axis = lo + (hi - lo) / n * (np.arange(n) + 0.5)
    log_cell = float(np.sum([np.log((hi - lo) / n)] * d))
    if d == 1:
        grid = axis[:, None]
    else:
        a, b = np.meshgrid(axis, axis, indexing="ij")
        grid = np.stack([a.ravel(), b.ravel()], axis=1)
    log_terms = -net.energy(grid)
    m = log_terms.max()
    return float(m + np.log(np.sum(np.exp(log_terms - m))) + log_cell)


class CallCounter:
    """Wraps an energy model and counts its energy and grad_x calls."""

    def __init__(self, net):
        self.net = net
        self.config = net.config
        self.calls = {"energy": 0, "grad_x": 0}

    def energy(self, x, labels=None):
        self.calls["energy"] += 1
        return self.net.energy(x, labels)

    def frozen(self):
        return self

    def grad_x(self, x, labels=None, *, with_energy=False):
        self.calls["grad_x"] += 1
        return self.net.grad_x(x, labels, with_energy=with_energy)


def stepwise_chain(init, net, cfg, rng, labels=None, record=None):
    """sampler.run_chain as it was before it handed a stalled step's
    gradient on: every step takes its own grad_x call."""
    from ebmkit.sampler import langevin_step

    net = net.frozen()
    x = np.array(init, dtype=np.float64, copy=True)
    center = x.copy() if cfg.eps_box is not None else None
    for k in range(cfg.steps):
        x, _ = langevin_step(x, net, cfg, rng, labels=labels, center=center,
                             step_index=k, record=record)
    return x


def pgd_attack_reference(net, x, y_true, eps, steps=20, norm="linf"):
    """metrics.pgd_attack as it was before it took the class energies
    from its gradient calls and stopped at a repeated iterate: every one
    of the steps scores all classes with metrics.class_energies (K energy
    calls), then takes K grad_x calls at the same point. Argument checks
    are left to the library."""
    from ebmkit.metrics import class_energies

    step_size = eps / 4.0
    x0 = np.asarray(x, dtype=np.float64)
    y = np.asarray(y_true, dtype=np.intp)
    adv = x0.copy()
    for _ in range(int(steps)):
        logits = -class_energies(net, adv)
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        grad = np.zeros_like(adv)
        for c in range(net.config.num_classes):
            coeff = (y == c).astype(np.float64) - probs[:, c]
            grad += coeff[:, None] * net.grad_x(
                adv, labels=np.full(adv.shape[0], c, dtype=np.intp))
        if norm == "linf":
            adv = adv + step_size * np.sign(grad)
            adv = x0 + np.clip(adv - x0, -eps, eps)
        else:
            norms = np.linalg.norm(grad, axis=1, keepdims=True)
            adv = adv + step_size * grad / np.maximum(norms, 1e-12)
            delta = adv - x0
            dn = np.linalg.norm(delta, axis=1, keepdims=True)
            adv = x0 + delta * np.minimum(1.0, eps / np.maximum(dn, 1e-12))
        adv = np.clip(adv, 0.0, 1.0)
    return adv


# ---------------------------------------------------------------------------
# the tape as the reference for the closed-form parameter gradients

def lift_parameters(model, tape):
    """Tape leaves for model's parameters, in parameters() order; a
    SummedEnergy lifts its components in turn."""
    from ebmkit.compose import SummedEnergy
    if isinstance(model, SummedEnergy):
        return [entry for net, _ in model.parts
                for entry in net.lift_parameters(tape)]
    return model.lift_parameters(tape)


def taped_energy(model, x, labels=None, params=None):
    """model.taped_energy; for a SummedEnergy, the taped sum of its
    components' energies, each under its fixed label."""
    from ebmkit import autodiff as ad
    from ebmkit.compose import SummedEnergy
    if not isinstance(model, SummedEnergy):
        return model.taped_energy(x, labels, params=params)
    assert labels is None
    rows = (x.data if isinstance(x, ad.Tensor) else np.asarray(x)).shape[0]
    total = None
    offset = 0
    for net, label in model.parts:
        width = len(net.layers)
        sub = None if params is None else params[offset:offset + width]
        offset += width
        part_labels = None if label is None else np.full(rows, label)
        e = net.taped_energy(x, part_labels, params=sub)
        total = e if total is None else ad.add(total, e)
    return total


def _leaf_gradients(model, loss, params):
    from ebmkit import autodiff as ad
    leaves = [t for entry in params for t in entry.values()]
    names = [name for name, _ in model.parameters()]
    return {name: g.data for name, g in zip(names, ad.gradient(loss, leaves))}


def taped_contrastive_gradient(model, batch, x_neg, alpha, labels=None):
    """(loss, gradient dict) of the contrastive loss, recorded on a tape."""
    from ebmkit import autodiff as ad
    with ad.Tape() as tape:
        params = lift_parameters(model, tape)
        e_pos = taped_energy(model, ad.constant(batch), labels, params)
        e_neg = taped_energy(model, ad.constant(x_neg), labels, params)
        l2 = ad.scale(ad.add(ad.mul(e_pos, e_pos), ad.mul(e_neg, e_neg)),
                      alpha)
        loss = ad.mean_all(ad.add(l2, ad.sub(e_pos, e_neg)))
        return float(loss.data), _leaf_gradients(model, loss, params)


def taped_chain(model, params, x0, langevin, rng, labels=None):
    """Langevin chain recorded on the active tape.

    x0 enters as a leaf; gradients flow into the chain through the drift
    term's dependence on the lifted parameters. Noise draws are fresh
    constants (not reparameterized). Returns the final state tensor.
    """
    from ebmkit import autodiff as ad
    tape = ad.active_tape()
    x0 = np.asarray(x0, dtype=np.float64)
    # a leaf, not a constant: the chain's inner energy gradients are taken
    # with respect to the current state, which must live on the tape
    x = tape.leaf(x0)
    mask_f = None
    if langevin.mask is not None:
        mask_f = langevin.mask.astype(np.float64)
    for _ in range(langevin.steps):
        e = taped_energy(model, x, labels, params)
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


def taped_kl_finetune_loss(model, snapshot, langevin, rng, init, labels=None):
    """(loss, gradient dict) of the fine-tuning loss mean(E_snap(x_K)),
    with the whole chain recorded on a tape and differentiated."""
    from ebmkit import autodiff as ad
    with ad.Tape() as tape:
        params = lift_parameters(model, tape)
        x_final = taped_chain(model, params, init, langevin, rng, labels)
        loss = ad.mean_all(taped_energy(snapshot, x_final, labels))
        if loss.node is None:
            # zero-step chain: the loss does not depend on the parameters
            return float(loss.data), {name: np.zeros_like(p)
                                      for name, p in model.parameters()}
        return float(loss.data), _leaf_gradients(model, loss, params)


def full_walk_kl_finetune_loss(model, snapshot, langevin, rng, init,
                               labels=None):
    """trainer.kl_finetune_loss as it was before it skipped the steps
    with an all-zero tangent: the reverse walk calls model.backward at
    every recorded step."""
    from ebmkit.sampler import run_chain
    record = []
    x = run_chain(init, model, langevin, rng, labels=labels, record=record)
    e_snap, g_snap = snapshot.grad_x(x, labels, with_energy=True)
    grads = {name: np.zeros_like(p) for name, p in model.parameters()}
    a = g_snap / x.shape[0]
    for x_k, unclipped, passed in reversed(record):
        if passed is not None:
            a = a * passed
        gx, step_grads = model.backward(
            x_k, labels, c=-langevin.step_size * (a * unclipped))
        a = a + gx
        for name, g in step_grads.items():
            grads[name] += g
    return float(np.mean(e_snap)), grads


def simpson_log_partition(net, lo, hi, intervals):
    """log of the integral of exp(-E) over [lo, hi] for a 1-D model, by
    the composite Simpson rule on an even number of intervals."""
    assert intervals % 2 == 0
    x = np.linspace(lo, hi, intervals + 1)
    log_f = -net.energy(x[:, None])
    weights = np.ones(intervals + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    m = log_f.max()
    h = (hi - lo) / intervals
    return float(m + np.log(np.sum(weights * np.exp(log_f - m)) * h / 3.0))
