"""Quantitative evaluation of trained energy models.

Partition-function estimates come in three flavors: a grid quadrature
oracle (exact up to discretization, dimensions 1-2 only), annealed
importance sampling (stochastic lower bound in expectation), and its
reverse-annealed counterpart (stochastic upper bound). [raise, ais]
therefore brackets the true logZ, and the quadrature value should fall
inside the bracket. The two annealed estimators share the temperature
ladder, the MALA sweep and the weight average. Both anneal between exp(-E)
and the uniform density on the unit cube [0, 1]^d, whose log-partition is
0. Their MALA sweeps carry each chain's net energy and gradient along with
its state, and take both at a proposal from one
grad_x(..., with_energy=True) pass, so one transition costs one grad_x
call and no energy call. RAISE needs the generator state AIS leaves
behind; rng_after_ais reaches it by making AIS's draws alone, so
`ebmkit eval --metric logz-bracket` runs RAISE in a forked second process
beside AIS when at least 2 CPUs are usable, with the same output bytes as
running it after AIS.

The remaining metrics are standard: Mann-Whitney AUROC, the Gaussian
Frechet distance in Dowson-Landau closed form, a two-sample KS statistic,
lowest-energy-label classification, PGD attacks on energy logits, and
sample/mode assignment fractions. refined_classify draws from its
generator only in its chains; sampler.rng_after_chains reaches the state
they leave without running them, so `ebmkit attack` refines its later
radii in a forked second process with the same output bytes. The scorers
refuse energies that are not finite (finite_energy) with one error, not
numpy's overflow warnings.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigError, DataError, DegenerateEstimateError,
                     DimensionError, LabelError, NonFiniteEnergyError,
                     checked)
from .sampler import rng_copy, run_chain

__all__ = [
    "AISConfig",
    "log_partition_quadrature",
    "ais_logZ",
    "rng_after_ais",
    "raise_logZ",
    "auroc",
    "finite_energy",
    "class_energies",
    "frechet_gaussian",
    "ks_statistic",
    "energy_classify",
    "refined_classify",
    "pgd_attack",
    "mode_coverage",
    "metric_csv_row",
]


# ---------------------------------------------------------------------------
# quadrature oracle

# Grid rows per energy call. Rows are independent, so the chunk size does
# not change the result. It sets the size of one call's temporaries: 1024
# rows through a 64-wide net make each 512 kB, while 4096-row chunks made
# the peak resident size of `eval --metric logz-bracket` 6 MB larger.
QUADRATURE_CHUNK = 1024

# Most grid cells a quadrature builds; the CLI's default resolutions make
# 10**4 (1-D) and 4 * 10**4 (2-D).
QUADRATURE_MAX_CELLS = 2 ** 22


def log_partition_quadrature(net, bounds, resolution):
    """log of the midpoint-rule integral of exp(-E) over the box
    [lo, hi]^d, where bounds is the one (lo, hi) pair of every coordinate
    and resolution is the grid spacing. Only 1- and 2-dimensional inputs
    are supported: the grid is dense.
    """
    lo, hi = (float(v) for v in bounds)
    d = net.config.input_dim
    if d > 2:
        raise DimensionError(f"quadrature supports 1 or 2 dimensions, got {d}")
    if not lo < hi:
        raise ConfigError("bounds need lo < hi")
    resolution = checked("resolution", resolution, float, gt=0)
    # Python floats: an overflow is inf, without a numpy warning
    cells = math.prod([max(1.0, round((hi - lo) / resolution, 0))] * d)
    if cells > QUADRATURE_MAX_CELLS:
        raise ConfigError(f"resolution {resolution:g} makes a grid of "
                          f"{cells:.3g} cells, more than "
                          f"{QUADRATURE_MAX_CELLS}")

    n = max(1, int(round((hi - lo) / resolution)))
    axis = lo + (hi - lo) / n * (np.arange(n) + 0.5)
    log_cell = float(np.sum([np.log((hi - lo) / n)] * d))

    if d == 1:
        grid = axis[:, None]
    else:
        a, b = np.meshgrid(axis, axis, indexing="ij")
        grid = np.stack([a.ravel(), b.ravel()], axis=1)

    log_terms = np.empty(grid.shape[0])
    for start in range(0, grid.shape[0], QUADRATURE_CHUNK):
        stop = start + QUADRATURE_CHUNK
        log_terms[start:stop] = -net.energy(grid[start:stop])
    m = log_terms.max()
    return float(m + np.log(np.sum(np.exp(log_terms - m))) + log_cell)


# ---------------------------------------------------------------------------
# annealed importance sampling

# Cap on the MALA drift's row norm, in units of the proposal's standard
# deviation sqrt(step_size); see _tamed_drift.
DRIFT_CLIP = 2.0


@dataclass
class AISConfig:
    """Annealing setup shared by the forward and reverse estimators:
    chains run in parallel, temps rungs on the ladder, transitions MALA
    moves per rung of step size step_size.

    The inverse-temperature ladder is geometric: beta_0 = 0, then
    geomspace(1e-3, 1) over the remaining rungs, so early rungs are
    densely spaced where the integrand changes fastest.
    """

    chains: int = 256
    temps: int = 100
    transitions: int = 2
    step_size: float = 0.05

    def __post_init__(self):
        self.chains = checked("chains", self.chains, int, ge=1)
        self.temps = checked("temps", self.temps, int, ge=1)
        self.transitions = checked("transitions", self.transitions, int, ge=0)
        self.step_size = checked("step_size", self.step_size, float, gt=0)

    def ladder(self):
        if self.temps == 1:
            return np.array([0.0])
        betas = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, self.temps - 1)])
        # geomspace is strictly increasing and starts above 0 by construction
        return betas


def _tamed_drift(g, h):
    """Langevin drift -h/2 g with its row norm capped at DRIFT_CLIP * sqrt(h).

    Far from a mode the raw drift can dwarf the proposal noise, pushing
    proposals so far uphill that every one is rejected and the chain
    freezes. Capping keeps acceptance alive; the proposal stays a
    Gaussian with a computable density, so the Metropolis correction is
    still exact and the rung distribution still invariant.
    """
    drift = -0.5 * h * g
    norms = np.linalg.norm(drift, axis=1, keepdims=True)
    limit = DRIFT_CLIP * np.sqrt(h)
    scale = np.where(norms > limit, limit / np.maximum(norms, 1e-300), 1.0)
    return drift * scale


def _mala_sweep(net, beta, x, e, g, cfg, rng):
    """Metropolis-adjusted Langevin transitions leaving the rung's
    distribution, exp(-beta E) on the unit cube, invariant. The state
    carried is x with net's energy e and gradient g there, so neither is
    recomputed: a proposal's net energy and gradient become the state's on
    acceptance. Returns the updated (x, e, g)."""
    h = cfg.step_size
    u = beta * e
    for _ in range(cfg.transitions):
        mean_fwd = x + _tamed_drift(beta * g, h)
        prop = mean_fwd + np.sqrt(h) * rng.normal(size=x.shape)
        ok = np.all((prop >= 0.0) & (prop <= 1.0), axis=1)
        # rows off the cube are evaluated at x; their u_prop is inf, so
        # they are never accepted
        at = np.where(ok[:, None], prop, x)
        e_prop, g_prop = net.grad_x(at, with_energy=True)
        u_prop = np.where(ok, beta * e_prop, np.inf)
        mean_bwd = prop + _tamed_drift(beta * g_prop, h)
        log_q_fwd = -np.sum((prop - mean_fwd) ** 2, axis=1) / (2.0 * h)
        log_q_bwd = -np.sum((x - mean_bwd) ** 2, axis=1) / (2.0 * h)
        with np.errstate(invalid="ignore"):
            log_accept = (u - u_prop) + (log_q_bwd - log_q_fwd)
        accept = np.log(rng.uniform(size=x.shape[0])) < log_accept
        x = np.where(accept[:, None], prop, x)
        u = np.where(accept, u_prop, u)
        e = np.where(accept, e_prop, e)
        g = np.where(accept[:, None], g_prop, g)
    return x, e, g


def _log_mean_exp(logw):
    if np.all(np.isneginf(logw)):
        raise DegenerateEstimateError("all annealing weights vanished")
    m = np.max(logw)
    return float(m + np.log(np.mean(np.exp(logw - m))))


def ais_logZ(net, cfg, rng):
    """Forward-annealed estimate of log Z = log integral exp(-E) over the
    unit cube, from chains started uniformly on it.

    Returns (estimate, standard_error). The estimate is a stochastic
    lower bound of logZ in expectation (Jensen applied to the log of the
    mean weight).
    """
    net = net.frozen()
    betas = cfg.ladder()
    x = rng.uniform(size=(cfg.chains, net.config.input_dim))
    logw = np.zeros(cfg.chains)
    e, g = net.grad_x(x, with_energy=True)
    for t in range(1, len(betas)):
        logw -= (betas[t] - betas[t - 1]) * e
        x, e, g = _mala_sweep(net, betas[t], x, e, g, cfg, rng)
    estimate = _log_mean_exp(logw)
    m = np.max(logw)
    w = np.exp(logw - m)
    if cfg.chains > 1:
        se = float(np.std(w, ddof=1) / (np.mean(w) * np.sqrt(cfg.chains)))
    else:
        se = 0.0
    return estimate, se


def rng_after_ais(rng, cfg, dim):
    """A copy of rng advanced past exactly the draws that ais_logZ makes
    for cfg on a dim-dimensional net: the uniform starts, then per rung
    and per transition one normal proposal block and one uniform
    acceptance vector. rng itself is left as it is.

    raise_logZ on the copy gives the same bits as raise_logZ run on rng
    after ais_logZ, so the two estimators can run at the same time.
    """
    rng = rng_copy(rng)
    rng.uniform(size=(cfg.chains, dim))
    for _ in range(cfg.temps - 1):
        for _ in range(cfg.transitions):
            rng.normal(size=(cfg.chains, dim))
            rng.uniform(size=cfg.chains)
    return rng


def raise_logZ(net, cfg, rng, samples):
    """Reverse-annealed counterpart of ais_logZ.

    samples approximate draws from the model (typically a replay-buffer
    snapshot); chains start there and anneal down to the uniform base,
    giving a stochastic upper bound of logZ in expectation, so that
    [raise_logZ, ais_logZ] brackets the truth.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise DataError(f"samples must be a nonempty (n, d) array, got {samples.shape}")
    d = net.config.input_dim
    if samples.shape[1] != d:
        raise DimensionError(f"samples have dimension {samples.shape[1]}, model wants {d}")
    betas = cfg.ladder()
    net = net.frozen()
    rows = rng.integers(0, samples.shape[0], size=cfg.chains)
    x = samples[rows]
    logw = np.zeros(cfg.chains)
    e, g = net.grad_x(x, with_energy=True)
    for t in range(len(betas) - 2, -1, -1):
        logw += (betas[t + 1] - betas[t]) * e
        x, e, g = _mala_sweep(net, betas[t], x, e, g, cfg, rng)
    # 0.0 - L, not -L: a flat energy gives 0, not -0
    return 0.0 - _log_mean_exp(logw)


# ---------------------------------------------------------------------------
# distribution comparison

def auroc(scores_in, scores_out):
    """Probability a random in-distribution score exceeds a random
    out-of-distribution score, ties counted one half (Mann-Whitney)."""
    a = np.asarray(scores_in, dtype=np.float64).ravel()
    b = np.asarray(scores_out, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise DataError("auroc needs nonempty score lists")
    # 1-based rank of each in-distribution score among all scores; a tied
    # run filling sorted positions left .. right - 1 shares their mean rank
    ranked = np.sort(np.concatenate([a, b]))
    left = np.searchsorted(ranked, a, side="left")
    right = np.searchsorted(ranked, a, side="right")
    rank_sum = (0.5 * (left + right - 1) + 1.0).sum()
    u = rank_sum - a.size * (a.size + 1) / 2.0
    return float(u / (a.size * b.size))


def _clamped_psd(cov, floor=1e-10):
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def frechet_gaussian(samples_a, samples_b):
    """Frechet distance between Gaussians fitted to two sample sets:
    ||mu_a - mu_b||^2 + tr(Sa + Sb - 2 (Sa Sb)^(1/2))."""
    a = np.atleast_2d(np.asarray(samples_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(samples_b, dtype=np.float64))
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError("sample sets must be (n, d) with matching d")
    d = a.shape[1]
    if a.shape[0] < d + 1 or b.shape[0] < d + 1:
        raise DataError(f"need at least d+1 = {d + 1} samples per set to fit a covariance")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = _clamped_psd(np.cov(a, rowvar=False).reshape(d, d))
    cov_b = _clamped_psd(np.cov(b, rowvar=False).reshape(d, d))
    # tr((Sa Sb)^1/2) via the symmetric product Sb^1/2 Sa Sb^1/2
    vals_b, vecs_b = np.linalg.eigh(cov_b)
    sqrt_b = (vecs_b * np.sqrt(np.maximum(vals_b, 0.0))) @ vecs_b.T
    inner = sqrt_b @ cov_a @ sqrt_b
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    trace_sqrt = np.sum(np.sqrt(np.maximum(vals, 0.0)))
    diff = mu_a - mu_b
    dist = float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * trace_sqrt)
    return max(dist, 0.0)


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise DataError("ks_statistic needs nonempty samples")
    grid = np.concatenate([a, b])
    f_a = np.searchsorted(a, grid, side="right") / a.size
    f_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(f_a - f_b).max())


# ---------------------------------------------------------------------------
# classification, attack, coverage

def _require_finite(what, *arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFiniteEnergyError(f"{what} is not finite: the weights "
                                   f"or the inputs are too large")


def finite_energy(net, x, labels=None):
    """net.energy(x, labels), refused with a NonFiniteEnergyError when a
    value is inf or NaN. numpy's overflow warnings stay off on the way,
    so the refusal is the one report."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = net.energy(x, labels=labels)
    _require_finite("an energy", e)
    return e


def class_energies(net, x):
    """Energy of each row under each class, shape (batch, num_classes);
    a value that is not finite is refused (finite_energy)."""
    n_classes = net.config.num_classes
    if n_classes <= 0:
        raise LabelError("per-class energies need a conditional model")
    x = np.asarray(x, dtype=np.float64)
    net = net.frozen()
    cols = [finite_energy(net, x, np.full(x.shape[0], c, dtype=np.intp))
            for c in range(n_classes)]
    return np.stack(cols, axis=1)


def energy_classify(net, x):
    """Lowest-energy label per row; ties go to the lowest class index."""
    return np.argmin(class_energies(net, x), axis=1)


def refined_classify(net, x, eps, cfg, rng):
    """Classify after bounded refinement.

    For each candidate class the inputs relax within an L-infinity ball
    of radius eps under that class's energy; the class whose refined
    point scores lowest wins. Off-manifold perturbations sit on thin
    high-energy ridges, and a short bounded chain falls off the ridge
    into the basin of the true class, so this recovers accuracy that
    plain lowest-energy classification loses to an attack.
    """
    n_classes = net.config.num_classes
    if n_classes <= 0:
        raise LabelError("refined_classify needs a conditional model")
    x = np.asarray(x, dtype=np.float64)
    scores = np.empty((x.shape[0], n_classes))
    for c in range(n_classes):
        labels = np.full(x.shape[0], c, dtype=np.intp)
        refined = run_chain(x, net, replace(cfg, eps_box=eps), rng,
                            labels=labels)
        scores[:, c] = finite_energy(net, refined, labels)
    return np.argmin(scores, axis=1)


def pgd_attack(net, x, y_true, eps, steps=20, norm="linf"):
    """Projected gradient ascent on the cross-entropy of energy logits.

    Logits are negative per-class energies. Deterministic: iterates start
    at x itself (no random restart). Each step moves eps / 4 along the
    gradient's sign (linf) or direction (l2) and is projected back to the
    eps-ball around the input and to the unit cube. A step that leaves
    the iterate unchanged ends the attack, as every later one would too.
    An energy or gradient that is not finite is refused, without numpy's
    overflow warnings.
    """
    eps = checked("eps", eps, float, gt=0)
    steps = checked("steps", steps, int, ge=0)
    if norm not in ("linf", "l2"):
        raise ConfigError(f"norm must be 'linf' or 'l2', got {norm!r}")
    step_size = eps / 4.0
    n_classes = net.config.num_classes
    if n_classes <= 0:
        raise LabelError("pgd_attack needs a conditional model")
    x0 = np.asarray(x, dtype=np.float64)
    y = np.asarray(y_true, dtype=np.intp)
    adv = x0.copy()
    net = net.frozen()
    for _ in range(steps):
        # one pass per class gives both E_c and dE_c/dx at adv
        with np.errstate(over="ignore", invalid="ignore"):
            passes = [net.grad_x(adv, np.full(adv.shape[0], c, dtype=np.intp),
                                 with_energy=True) for c in range(n_classes)]
        _require_finite("an energy or its gradient",
                        *(a for pair in passes for a in pair))
        logits = -np.stack([e for e, _ in passes], axis=1)
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        # d CE / d x = sum_c (1[c=y] - p_c) * dE_c/dx
        grad = np.zeros_like(adv)
        for c, (_, g) in enumerate(passes):
            coeff = (y == c).astype(np.float64) - probs[:, c]
            grad += coeff[:, None] * g
        if norm == "linf":
            new = adv + step_size * np.sign(grad)
            new = x0 + np.clip(new - x0, -eps, eps)
        else:
            norms = np.linalg.norm(grad, axis=1, keepdims=True)
            new = adv + step_size * grad / np.maximum(norms, 1e-12)
            delta = new - x0
            dn = np.linalg.norm(delta, axis=1, keepdims=True)
            new = x0 + delta * np.minimum(1.0, eps / np.maximum(dn, 1e-12))
        new = np.clip(new, 0.0, 1.0)
        if np.array_equal(new, adv):
            break
        adv = new
    return adv


def mode_coverage(samples, centers, radius):
    """Fraction of samples within radius of each center (nearest-center
    assignment), plus the unassigned remainder."""
    radius = checked("radius", radius, float, gt=0)
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    samples = np.asarray(samples, dtype=np.float64)
    k = centers.shape[0]
    if samples.size == 0:
        return np.zeros(k), 0.0
    samples = np.atleast_2d(samples)
    if samples.ndim != 2 or samples.shape[1] != centers.shape[1]:
        raise DimensionError(f"samples of shape {samples.shape} for centers "
                             f"of dimension {centers.shape[1]}")
    dists = np.linalg.norm(samples[:, None, :] - centers[None, :, :], axis=2)
    nearest = dists.argmin(axis=1)
    within = dists[np.arange(samples.shape[0]), nearest] <= radius
    fractions = np.bincount(nearest[within], minlength=k) / samples.shape[0]
    return fractions, float(1.0 - within.mean())


# ---------------------------------------------------------------------------
# reporting

def metric_csv_row(metric, value, **config):
    """One CSV row 'metric,config_hash,value'; the hash is over the
    sorted config items so identical setups collide on purpose."""
    payload = json.dumps(sorted(config.items()), default=str)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
    return f"{metric},{digest},{value:.10g}"
