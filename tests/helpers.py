"""Shared numerical oracles for the test suite.

Everything here is deliberately independent of the package internals:
finite differences and brute-force evaluation only, so tests compare the
library against arithmetic a reviewer can redo by hand. Analytic energy
models and malformed-checkpoint builders are shared here too.
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

    def grad_x(self, x, labels=None):
        delta = np.asarray(x, dtype=np.float64) - self.mu
        return delta @ self.prec.T

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

    def grad_x(self, x, labels=None):
        x = np.asarray(x, dtype=np.float64)
        logs = self._component_logs(x)
        logs -= logs.max(axis=1, keepdims=True)
        r = np.exp(logs)
        r /= r.sum(axis=1, keepdims=True)
        pull = (x[:, None, :] - self.means[None, :, :]) / (self.sigmas ** 2)[None, :, None]
        return (r[:, :, None] * pull).sum(axis=1)

    def log_partition(self):
        return 0.0 if abs(self.weights.sum() - 1.0) < 1e-12 else np.log(self.weights.sum())

    def sample(self, n, rng):
        comp = rng.choice(len(self.weights), size=n, p=self.weights / self.weights.sum())
        return self.means[comp] + rng.normal(size=(n, self.means.shape[1])) * self.sigmas[comp][:, None]


class TapedQuadratic:
    """Trainable two-parameter energy E(x) = 0.5 * w * ||x - mu||^2.

    Implements the same protocol as the package's energy nets (config /
    parameters / lift_parameters / taped_energy / energy / grad_x) so it
    can stand in wherever a tiny analytic model makes the math checkable.
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

    def grad_x(self, x, labels=None):
        return float(self.w) * (np.asarray(x, dtype=np.float64) - self.mu)


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


MALFORMED_MANIFESTS = {
    "missing-model": _drop_model,
    "unknown-model-key": _unknown_model_key,
    "json-list": lambda m: [m],
    "string-widths": _string_widths,
}
