"""Command-line front end binding the toolkit into runnable experiments.

One executable with subcommands: train, sample, inpaint, compose, eval,
continual, and attack. Configuration comes from a YAML file with nested
sections (model, train, langevin, dataset, continual, finetune). Every
key has a default, in model, train and langevin that of ModelConfig,
TrainConfig or ReplayBuffer, and unknown keys are rejected; any other
flag or key that feeds a library parameter takes its default from there.
A command that samples one checkpoint runs the chain stored in it, with
any chain flag given laid over it. All randomness derives from --seed,
so identical invocations produce identical output bytes. Outputs are CSV
reports, sample matrices (one row per sample, %.17g), or PGM image
grids, written atomically. Every error, a bad or missing flag included,
exits 1 with a single line "error <category>: <message>" on stderr.
Each numeric flag and config value is checked against the one domain
of the field it feeds, as it is parsed or when its config is built. Set
EBMKIT_LOG=INFO or DEBUG for progress logging.
"""

from __future__ import annotations

import argparse
import ctypes
import inspect
import io
import logging
import math
import os
import pickle
import sys
import warnings
from argparse import SUPPRESS
from dataclasses import asdict, fields, replace

import numpy as np
import yaml

from .checkpoint import (load_checkpoint, save_checkpoint, write_text_atomic)
from .compose import finetune_combination, joint_sample
from .datagen import (gaussian_mixture, mini_sprites, ring2d, split_tasks,
                      trajectory_sim)
from .errors import ConfigError, ContractError, DataError, EbmError, checked
from .metrics import (AISConfig, ais_logZ, auroc, class_energies,
                      energy_classify, finite_energy, frechet_gaussian,
                      ks_statistic, log_partition_quadrature, metric_csv_row,
                      mode_coverage, pgd_attack, raise_logZ,
                      refined_classify, rng_after_ais)
from .model import EnergyNet, ModelConfig
from .sampler import ReplayBuffer, inpaint, rng_after_chains, run_chain
from .trainer import AdamState, TrainConfig, train_step

log = logging.getLogger("ebmkit")


def _section(config, drop=()):
    """A config section: the fields of a config instance, less drop."""
    return {f.name: getattr(config, f.name) for f in fields(config)
            if f.name not in drop}


# Defaults for every config section. File values overlay these; a key
# absent here is rejected as unknown. ReplayBuffer shares train.
_BUFFER = ReplayBuffer()
DEFAULTS = {
    "model": _section(ModelConfig()),
    "train": {**_section(TrainConfig(), drop=("langevin",)),
              "buffer_capacity": _BUFFER.capacity,
              "uniform_prob": _BUFFER.uniform_prob},
    "langevin": _section(TrainConfig().langevin, drop=("mask", "eps_box")),
    "continual": {
        # ten well-separated clusters on a 5 x 2 grid
        "centers": [[x, y] for y in (0.3, 0.7)
                    for x in (0.1, 0.3, 0.5, 0.7, 0.9)],
        "sigma": 0.03,
        "n": 2000,
        "n_test": 500,
        "pairs": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]],
        "steps_per_task": 400,
    },
    "finetune": {
        "epochs": 10,
        "lr": 3e-4,
        "batch_size": 32,
        "combos": [],               # per-model label tuples; required
        # the training chain, shorter, with smaller steps, on the cube
        "chain": {**_section(TrainConfig().langevin,
                             drop=("mask", "eps_box", "clamp")),
                  "steps": 8, "step_size": 5.0},
    },
}

DATASET_DEFAULTS = {
    "mixture": {
        "centers": [[0.25, 0.25], [0.75, 0.75]],
        "sigma": 0.05,
        "n": 512,
        "n_test": 128,
    },
    "ring": {
        "radius": 0.3,
        "thickness": 0.02,
        "n": 512,
        "n_test": 128,
    },
    "sprites": {
        "shapes": ["square"],
        "xs": [0.5],
        "ys": [0.5],
        "scales": [0.25],
        "n_per_combo": 64,
        "noise": 0.02,
        "label_by": None,          # null, "shape", "x", "y", or "scale"
    },
    "trajectories": {
        "n_trajectories": 100,
        **{k: p.default for k, p in
           inspect.signature(trajectory_sim).parameters.items()
           if k in ("length", "kick_period", "kick_size")},
    },
}


# ---------------------------------------------------------------------------
# configuration

def _listed(key, value, what="a non-empty list", ok=lambda item: True):
    """value, which must be a non-empty list whose items all pass ok;
    what describes that in the error."""
    if not (isinstance(value, list) and value and all(map(ok, value))):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


def _points(key, value):
    """A non-empty list of numeric points of one dimension, as an array."""
    _listed(key, value, "a non-empty list of points of one dimension",
            lambda p: isinstance(p, list) and len(p) == len(value[0]))
    return np.array([[checked(f"each {key} coordinate", c, float)
                      for c in point] for point in value])


def _merge(defaults, given, path):
    if not isinstance(given, dict):
        raise ConfigError(f"{path} must be a mapping, got {given!r}")
    out = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path}.{key}")
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], value, f"{path}.{key}")
        else:
            out[key] = value
    return out


def _dataset_spec(given):
    if not isinstance(given, dict) or "kind" not in given:
        raise ConfigError("dataset section needs a 'kind' key")
    kind = given["kind"]
    if not isinstance(kind, str) or kind not in DATASET_DEFAULTS:
        raise ConfigError(
            f"unknown dataset kind {kind!r}; choose from "
            f"{sorted(DATASET_DEFAULTS)}")
    rest = {k: v for k, v in given.items() if k != "kind"}
    merged = _merge(DATASET_DEFAULTS[kind], rest, "dataset")
    merged["kind"] = kind
    return merged


def load_run_config(path, require=()):
    """Parse a YAML run config into fully-defaulted sections."""
    with open(path, "r", encoding="utf-8") as f:
        raw = yaml.safe_load(f)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("run config must be a mapping of sections")
    unknown = set(raw) - set(DEFAULTS) - {"dataset"}
    if unknown:
        raise ConfigError(f"unknown config section {sorted(unknown)[0]}")
    for section in require:
        if section not in raw:
            raise ConfigError(f"this command requires a '{section}' section")
    out = {name: _merge(DEFAULTS[name], raw.get(name, {}), name)
           for name in DEFAULTS}
    if "dataset" in raw:
        out["dataset"] = _dataset_spec(raw["dataset"])
    return out


def _training(cfg):
    """The TrainConfig of a run config, and the arguments of its replay
    buffers, whose two keys share the train section."""
    sec = dict(cfg["train"])
    buffer_args = (sec.pop("buffer_capacity"), sec.pop("uniform_prob"))
    chain = replace(TrainConfig().langevin, **cfg["langevin"])
    return TrainConfig(**sec, langevin=chain), buffer_args


def _rngs(seed):
    """Child generators for (data, model init, everything else)."""
    return np.random.default_rng(seed).spawn(3)


# ---------------------------------------------------------------------------
# datasets

def _sprite_labels(latents, field):
    if field not in latents.dtype.names:
        raise ConfigError(
            f"label_by must be one of {list(latents.dtype.names)}")
    values = latents[field]
    classes = np.unique(values)
    return np.searchsorted(classes, values)


def _build_dataset(spec, rng):
    """Materialize a dataset spec; returns a dict with train/test splits
    plus kind-specific extras."""
    kind = spec["kind"]
    if kind == "mixture":
        centers = _points("dataset.centers", spec["centers"])
        x, y = gaussian_mixture(centers, spec["sigma"], spec["n"], rng)
        x2, y2 = gaussian_mixture(centers, spec["sigma"], spec["n_test"], rng)
        return {"train": (x, y), "test": (x2, y2), "centers": centers}
    if kind == "ring":
        x = ring2d(spec["radius"], spec["thickness"], spec["n"], rng)
        x2 = ring2d(spec["radius"], spec["thickness"], spec["n_test"], rng)
        return {"train": (x, None), "test": (x2, None)}
    if kind == "sprites":
        _listed("dataset.shapes", spec["shapes"],
                "a non-empty list of shape names", lambda s: isinstance(s, str))
        for key in ("xs", "ys", "scales"):
            _listed(f"dataset.{key}", spec[key])
        kwargs = {k: spec[k] for k in ("shapes", "xs", "ys", "scales",
                                       "n_per_combo", "noise")}
        imgs, latents = mini_sprites(**kwargs, rng=rng)
        imgs2, latents2 = mini_sprites(**kwargs, rng=rng)
        label_by = spec["label_by"]
        y = y2 = None
        if label_by is not None:
            y = _sprite_labels(latents, str(label_by))
            y2 = _sprite_labels(latents2, str(label_by))
        flat = imgs.reshape(imgs.shape[0], -1)
        flat2 = imgs2.reshape(imgs2.shape[0], -1)
        return {"train": (flat, y), "test": (flat2, y2)}
    if kind == "trajectories":
        train, test = trajectory_sim(
            **{k: spec[k] for k in DATASET_DEFAULTS[kind]}, rng=rng)

        def flatten(t):
            return np.concatenate([t.state, t.action, t.next_state], axis=1)

        return {"train": (flatten(train), None),
                "test": (flatten(test), None),
                "train_set": train, "test_set": test}
    raise ConfigError(f"unknown dataset kind {kind!r}")


def _split(data, name):
    """(x, labels) of a built dataset's train or test split. A training
    split needs a row; a command that reads the test split rejects it empty."""
    x, y = data[name]
    if not len(x):
        raise DataError(f"the dataset's {name} split has no rows")
    return x, y


def _dataset_from_manifest(manifest):
    """Rebuild the training data from the seed and the fully-defaulted
    dataset spec that cmd_train recorded in the checkpoint manifest."""
    spec = manifest.get("dataset")
    seed = manifest.get("seed")
    if spec is None or seed is None:
        raise ConfigError(
            "checkpoint records no dataset provenance; re-train via cmd_train")
    try:
        if type(seed) is not int or seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
        if set(_dataset_spec(spec)) != set(spec):
            raise ConfigError("dataset spec lacks some keys of its kind")
        data_rng, _, _ = _rngs(seed)
        return _build_dataset(spec, data_rng), spec
    except EbmError as exc:
        raise ContractError(f"malformed checkpoint manifest: {exc}") from None


def _stored_chain(manifest):
    """The checkpoint's training chain: its manifest's train.langevin laid
    over TrainConfig's default chain. It has no mask and no eps_box."""
    train = manifest.get("train") or {}
    try:
        if not isinstance(train, dict):
            raise ConfigError(f"train must be a mapping, got {train!r}")
        chain = replace(TrainConfig().langevin,
                        **(train.get("langevin") or {}))
        if chain.mask is not None or chain.eps_box is not None:
            raise ConfigError("a training chain has no mask or eps_box")
        return chain
    except (EbmError, TypeError, ValueError) as exc:
        raise ContractError(
            f"malformed checkpoint manifest: train.langevin: {exc}") from None


# ---------------------------------------------------------------------------
# file formats

def _matrix_text(x):
    buf = io.StringIO()
    np.savetxt(buf, np.atleast_2d(np.asarray(x, dtype=np.float64)),
               fmt="%.17g", delimiter=",")
    return buf.getvalue()


def _read_matrix(path):
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a file without data; it is rejected below
            warnings.simplefilter("ignore", UserWarning)
            x = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ContractError(f"cannot parse matrix file {path}: {exc}") from exc
    if x.size == 0:
        raise ContractError(f"matrix file {path} holds no numbers")
    if not np.all(np.isfinite(x)):
        raise ContractError(f"matrix file {path} holds a non-finite value")
    return x


def _pgm_grid_text(samples):
    n, d = samples.shape
    side = int(round(math.sqrt(d)))
    if side * side != d:
        raise ContractError(
            f"PGM output needs square images, got dimension {d}")
    cols = int(math.ceil(math.sqrt(n)))
    rows = int(math.ceil(n / cols))
    canvas = np.zeros((rows * side, cols * side))
    for i in range(n):
        r, c = divmod(i, cols)
        canvas[r * side:(r + 1) * side, c * side:(c + 1) * side] = \
            samples[i].reshape(side, side)
    levels = np.round(np.clip(canvas, 0.0, 1.0) * 255).astype(int)
    body = "\n".join(" ".join(str(v) for v in row) for row in levels)
    return f"P2\n{levels.shape[1]} {levels.shape[0]}\n255\n{body}\n"


def _write_samples(path, samples, fmt):
    if fmt == "pgm":
        write_text_atomic(path, _pgm_grid_text(samples))
    else:
        write_text_atomic(path, _matrix_text(samples))


# ---------------------------------------------------------------------------
# commands

def cmd_train(args):
    cfg = load_run_config(args.config, require=("dataset",))
    model_cfg = ModelConfig(**cfg["model"])
    train_cfg, buffer_args = _training(cfg)
    data_rng, init_rng, work_rng = _rngs(args.seed)
    x, y = _split(_build_dataset(cfg["dataset"], data_rng), "train")
    if model_cfg.num_classes > 0 and y is None:
        raise ConfigError("conditional model needs a labeled dataset")
    use_labels = model_cfg.num_classes > 0

    net = EnergyNet.init(model_cfg, init_rng)
    buffer = ReplayBuffer(*buffer_args)
    state = AdamState.for_parameters(net.parameters())
    rows = []
    for step in range(train_cfg.total_steps):
        idx = work_rng.integers(0, x.shape[0], size=train_cfg.batch_size)
        report = train_step(net, x[idx], buffer, train_cfg, state, work_rng,
                            labels=y[idx] if use_labels else None)
        rows.append(f"{report.step},{report.e_pos:.10g},"
                    f"{report.e_neg:.10g},{report.loss:.10g}")
        if step % 100 == 0:
            log.info("step %d loss %.4g", step, report.loss)

    save_checkpoint(args.out, net, train=train_cfg, dataset=cfg["dataset"],
                    seed=args.seed, step_count=train_cfg.total_steps,
                    buffer=buffer)
    metrics_path = args.metrics_out or f"{args.out}.metrics.csv"
    body = "\n".join(rows)
    write_text_atomic(metrics_path,
                      "step,e_pos,e_neg,loss\n" + body + ("\n" if body else ""))
    log.info("wrote %s and %s", args.out, metrics_path)
    return 0


def _passed(args, *names):
    """The given flags among names, as keyword arguments: a flag left unset
    (default SUPPRESS) keeps the default of the library parameter it feeds."""
    return {name: getattr(args, name) for name in names if name in vars(args)}


def _given(args, config):
    """config with the given flags laid over it, each named after a field
    of config."""
    return replace(config, **_passed(args, *(f.name for f in fields(config))))


def cmd_sample(args):
    bundle = load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    if args.init_file:
        init = _read_matrix(args.init_file)
    else:
        init = rng.uniform(size=(args.n, bundle.net.config.input_dim))
    labels = (None if args.label is None
              else np.full(init.shape[0], args.label, dtype=np.intp))
    cfg = _given(args, _stored_chain(bundle.manifest))
    x = run_chain(init, bundle.net, cfg, rng, labels=labels)
    _write_samples(args.out, x, args.format)
    return 0


def cmd_inpaint(args):
    bundle = load_checkpoint(args.checkpoint)
    x = _read_matrix(args.input)
    mask_rows = np.atleast_2d(_read_matrix(args.mask))
    if mask_rows.shape[0] > 1 and np.ptp(mask_rows, axis=0).any():
        raise ContractError("per-row masks are not supported; "
                            "provide one mask row for the whole batch")
    mask = mask_rows[0] != 0.0
    labels = (None if args.label is None
              else np.full(x.shape[0], args.label, dtype=np.intp))
    cfg = _given(args, _stored_chain(bundle.manifest))
    rng = np.random.default_rng(args.seed)
    restored = inpaint(x, mask, bundle.net, cfg, rng, labels=labels)
    _write_samples(args.out, restored, args.format)
    return 0


def _parse_label(token):
    if token.lower() == "none":
        return None
    try:
        return int(token)
    except ValueError:
        raise ConfigError(
            f"--labels takes integers or 'none', got {token!r}") from None


def cmd_compose(args):
    if len(args.labels) != len(args.checkpoints):
        raise ConfigError("need exactly one label per checkpoint "
                          "(use 'none' for unconditional)")
    nets = [load_checkpoint(p).net for p in args.checkpoints]
    labels = [_parse_label(t) for t in args.labels]
    rng = np.random.default_rng(args.seed)
    if args.finetune_config:
        cfg = load_run_config(args.finetune_config)["finetune"]
        combos = [tuple(c) for c in _listed(
            "finetune.combos", cfg["combos"],
            "a non-empty list of label lists", lambda c: isinstance(c, list))]
        tcfg = TrainConfig(lr=cfg["lr"], batch_size=cfg["batch_size"],
                           langevin=replace(TrainConfig().langevin,
                                            **cfg["chain"]))
        nets = finetune_combination(nets, combos, tcfg, rng,
                                    epochs=cfg["epochs"])
    chain = _given(args, replace(TrainConfig().langevin, steps=COMPOSE_STEPS))
    samples = joint_sample(list(zip(nets, labels)), chain, rng,
                           **_passed(args, "n"))
    _write_samples(args.out, samples, args.format)
    return 0


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


class _Beside:
    """fn(*args) run beside a with-block, its value in .value afterwards.

    Where os.fork exists and at least 2 CPUs are usable, fn runs in a
    forked child process while the block runs here; otherwise, or if the
    fork fails, it runs inline once the block is done. Either way the
    caller sees what the inline call gives: fn's value, fn's error
    re-raised here, and fn's warnings issued here after the block, in
    their order and through this process's filters. The child writes
    nothing itself. It sends its outcome through a pipe, pickled (so
    fn's value and errors must pickle), and leaves by os._exit on every
    path, so it never returns into the caller. The child is always
    reaped; when the block raises, it is killed first and its outcome is
    dropped, as an inline fn would not have run. A child that dies
    without sending its outcome is a ChildProcessError.
    """

    def __init__(self, fn, *args):
        self._call = (fn, args)
        self._pid = self._pipe = None
        self.value = None

    def __enter__(self):
        if hasattr(os, "fork") and _usable_cpus() >= 2:
            read_end, write_end = os.pipe()
            # Python 3.12 warns that forking a threaded process may
            # deadlock the child. The threads here are OpenBLAS workers,
            # which OpenBLAS's own fork handler stops first.
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:         # no process to spare: run inline
                os.close(read_end)
                os.close(write_end)
                return self
            if pid == 0:
                code = 1
                try:
                    os.close(read_end)
                    with os.fdopen(write_end, "wb") as pipe:
                        pipe.write(self._outcome())
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            self._pid, self._pipe = pid, read_end
        return self

    def _outcome(self):
        """Pickled ((value, error), warnings) of the call, every warning
        recorded so that the parent's filters decide which are shown."""
        fn, args = self._call
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                outcome = (fn(*args), None)
            except Exception as exc:
                outcome = (None, exc)
        return pickle.dumps((outcome, [(w.message, w.category, w.filename,
                                        w.lineno) for w in caught]))

    def __exit__(self, exc_type, exc, tb):
        if self._pid is None:
            if exc_type is None:
                fn, args = self._call
                self.value = fn(*args)
            return False
        data = None
        try:
            if exc_type is None:
                with os.fdopen(self._pipe, "rb") as pipe:
                    data = pipe.read()
            else:
                os.close(self._pipe)
        finally:
            if data is None:
                # imported here: at the top, this module raised the peak
                # RSS of every command by up to 0.1 MB
                import signal
                os.kill(self._pid, signal.SIGKILL)
            _, status = os.waitpid(self._pid, 0)
        if exc_type is None:
            if status != 0:         # it exits 0 once its outcome is sent
                raise ChildProcessError(
                    f"the second process ended without a result "
                    f"(wait status {status})")
            (self.value, error), caught = pickle.loads(data)
            _replay(caught)
            if error is not None:
                raise error
        return False


def _replay(caught):
    """Issue recorded warnings as warnings.warn would have from their
    module: its name for the filters, its registry for "once per
    location"."""
    modules = {getattr(m, "__file__", None): m
               for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        module = modules.get(filename)
        if module is None:
            warnings.warn_explicit(message, category, filename, lineno)
            continue
        g = vars(module)
        warnings.warn_explicit(
            message, category, filename, lineno, module=g["__name__"],
            registry=g.setdefault("__warningregistry__", {}),
            module_globals=g)


def _eval_logz(args, bundle, rng):
    """The logZ bracket: quadrature (1-D and 2-D), AIS and RAISE rows.

    RAISE starts from the generator state AIS leaves behind
    (rng_after_ais), so the two estimators are independent. When at
    least 2 CPUs are usable, RAISE runs in a forked second process while
    AIS runs here (_Beside); otherwise it runs after AIS. The output
    bytes, the error and the warnings are the same either way.
    """
    net = bundle.net
    if net.config.num_classes > 0:
        raise ConfigError("logz-bracket needs an unconditional model")
    cfg = _given(args, AISConfig())
    # the quadrature goes first, so a grid past its cell cap fails before
    # the estimators run; it draws nothing from rng
    quadrature = []
    d = net.config.input_dim
    if d <= 2:
        resolution = args.quad_resolution
        if resolution is None:
            resolution = 1e-4 if d == 1 else 5e-3
        truth = log_partition_quadrature(net, (0.0, 1.0), resolution)
        quadrature.append(metric_csv_row("logz_quadrature", truth,
                                         resolution=resolution))
    if args.data_file:
        exact = _read_matrix(args.data_file)
    elif bundle.buffer is not None and len(bundle.buffer):
        samples = bundle.buffer.snapshot()
        exact = samples[-min(len(samples), 256):]
    else:
        raise ConfigError("the reverse estimator needs model samples: "
                          "pass --data-file or use a checkpoint with a "
                          "replay buffer")
    setup = {**asdict(cfg), "seed": args.seed}
    with _Beside(raise_logZ, net, cfg, rng_after_ais(rng, cfg, d),
                 exact) as upper:
        lower = ais_logZ(net, cfg, rng)[0]
    return [metric_csv_row("logz_lower", lower, **setup),
            metric_csv_row("logz_upper", upper.value, **setup)] + quadrature


def _marginal_energy(net, x):
    """Scalar score per row; conditional models are scored by the free
    energy -log sum_c exp(-E(x, c))."""
    if net.config.num_classes == 0:
        return finite_energy(net, x)
    e = class_energies(net, x)
    m = e.min(axis=1)
    return m - np.log(np.sum(np.exp(m[:, None] - e), axis=1))


def _eval_auroc(args, bundle, rng):
    if not (args.inliers and args.outliers):
        raise ConfigError("ood-auroc needs --inliers and --outliers files")
    net = bundle.net
    e_in = _marginal_energy(net, _read_matrix(args.inliers))
    e_out = _marginal_energy(net, _read_matrix(args.outliers))
    # in-distribution scores must rank higher, so score = -energy
    value = auroc(-e_in, -e_out)
    return [metric_csv_row("ood_auroc", value, inliers=args.inliers,
                           outliers=args.outliers)]


def _eval_ks(args, bundle, rng):
    net = bundle.net
    data, _ = _dataset_from_manifest(bundle.manifest)
    x_train, y_train = _split(data, "train")
    x_test, y_test = _split(data, "test")
    conditional = net.config.num_classes > 0
    e_train = finite_energy(net, x_train, y_train if conditional else None)
    e_test = finite_energy(net, x_test, y_test if conditional else None)
    value = ks_statistic(e_train, e_test)
    return [metric_csv_row("ks_overfit", value, n_train=len(e_train),
                           n_test=len(e_test))]


def _eval_coverage(args, bundle, rng):
    data, _ = _dataset_from_manifest(bundle.manifest)
    if "centers" not in data:
        raise ConfigError("mode-coverage needs a mixture-trained checkpoint")
    if bundle.buffer is None or not len(bundle.buffer):
        raise ConfigError("mode-coverage reads the checkpoint replay buffer")
    samples = bundle.buffer.snapshot()
    tail = samples[-min(len(samples), args.n):]
    fractions, unassigned = mode_coverage(tail, data["centers"], args.radius)
    setup = {"radius": args.radius, "n": len(tail)}
    rows = [metric_csv_row(f"coverage_{i}", frac, **setup)
            for i, frac in enumerate(fractions)]
    rows.append(metric_csv_row("unassigned", unassigned, **setup))
    return rows


def _ebm_rollout(net, test_set, length, horizon, cfg, rng):
    """Roll transitions forward by conditional sampling: at each step the
    (state, action) block is held fixed and the successor block relaxes
    from a warm start at the current state."""
    steps = length - 1
    n_t = test_set.state.shape[0] // steps
    states = test_set.state.reshape(steps, n_t, 2)
    actions = test_set.action.reshape(steps, n_t, 1)
    nexts = test_set.next_state.reshape(steps, n_t, 2)
    horizon = min(horizon, steps)
    mask = np.array([False, False, False, True, True])
    cur = states[0]
    dists = []
    for t in range(horizon):
        x0 = np.concatenate([cur, actions[t], cur], axis=1)
        out = inpaint(x0, mask, net, cfg, rng)
        cur = out[:, 3:5]
        dists.append(frechet_gaussian(cur, nexts[t]))
    return dists


def _eval_frechet(args, bundle, rng):
    net = bundle.net
    data, spec = _dataset_from_manifest(bundle.manifest)
    if "test_set" not in data:
        raise ConfigError(
            "frechet-rollout needs a trajectory-trained checkpoint")
    _split(data, "test")
    cfg = replace(_stored_chain(bundle.manifest), steps=args.steps)
    dists = _ebm_rollout(net, data["test_set"], int(spec["length"]),
                         args.horizon, cfg, rng)
    setup = {"horizon": len(dists), "steps": args.steps, "seed": args.seed}
    return [metric_csv_row("frechet_rollout_mean", float(np.mean(dists)),
                           **setup)]


_EVALUATORS = {
    "logz-bracket": _eval_logz,
    "ood-auroc": _eval_auroc,
    "ks-overfit": _eval_ks,
    "mode-coverage": _eval_coverage,
    "frechet-rollout": _eval_frechet,
}


def cmd_eval(args):
    bundle = load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    rows = _EVALUATORS[args.metric](args, bundle, rng)
    write_text_atomic(args.out, "metric,config,value\n" + "\n".join(rows) + "\n")
    return 0


def cmd_continual(args):
    cfg = load_run_config(args.config, require=("continual",))
    cont = cfg["continual"]
    centers = _points("continual.centers", cont["centers"])
    pairs = [tuple(p) for p in _listed(
        "continual.pairs", cont["pairs"], "a non-empty list of class lists",
        lambda p: isinstance(p, list))]
    steps_per_task = checked("continual.steps_per_task",
                             cont["steps_per_task"], int, ge=0)
    k = centers.shape[0]
    model_sec = dict(cfg["model"])
    if model_sec["num_classes"] == 0:
        model_sec["num_classes"] = k
    model_cfg = ModelConfig(**model_sec)
    if model_cfg.num_classes != k:
        raise ConfigError(
            f"model.num_classes ({model_cfg.num_classes}) does not match "
            f"the {k} continual classes")
    if model_cfg.input_dim != centers.shape[1]:
        raise ConfigError("model input width does not match center dimension")
    train_cfg, buffer_args = _training(cfg)
    data_rng, init_rng, work_rng = _rngs(args.seed)
    x, y = gaussian_mixture(centers, cont["sigma"], cont["n"], data_rng)
    x_test, y_test = gaussian_mixture(centers, cont["sigma"], cont["n_test"],
                                      data_rng)
    tasks = split_tasks(x, y, pairs)
    for task_id, _, y_task in tasks:
        if not np.isin(y_test, y_task).any():
            raise DataError(f"no test point of task {task_id}; "
                            "raise continual.n_test")

    net = EnergyNet.init(model_cfg, init_rng)
    rows = []
    seen = []
    for task_id, x_task, y_task in tasks:
        # fresh buffer and optimizer per task: the model alone carries
        # knowledge across tasks
        buffer = ReplayBuffer(*buffer_args)
        state = AdamState.for_parameters(net.parameters())
        for _ in range(steps_per_task):
            idx = work_rng.integers(0, x_task.shape[0],
                                    size=train_cfg.batch_size)
            train_step(net, x_task[idx], buffer, train_cfg, state, work_rng,
                       labels=y_task[idx])
        seen.extend(np.unique(y_task).tolist())
        current = np.isin(y_test, np.unique(y_task))
        seen_mask = np.isin(y_test, seen)
        pred = energy_classify(net, x_test)
        acc_task = float(np.mean(pred[current] == y_test[current]))
        acc_seen = float(np.mean(pred[seen_mask] == y_test[seen_mask]))
        rows.append(f"{task_id},{acc_task:.10g},{acc_seen:.10g}")
        log.info("task %d: current %.3f seen %.3f", task_id, acc_task,
                 acc_seen)
    write_text_atomic(args.out, "task,acc_task,acc_seen\n"
                      + "\n".join(rows) + "\n")
    return 0


def cmd_attack(args):
    """The accuracy curve under PGD, one row per radius.

    Each nonzero radius is one unit of work: its attack, its accuracy
    and, with --refine, its refined accuracy, whose chains are the only
    draws from the --seed generator. The first half of the nonzero radii
    (the larger half) runs here. When the later half is not empty and at
    least 2 CPUs are usable, it runs at the same time in a forked second
    process (_Beside), from the generator state the first half's chains
    leave (rng_after_chains); otherwise it runs after the first half. The
    output bytes, the error and the warnings are the same either way.
    """
    bundle = load_checkpoint(args.checkpoint)
    net = bundle.net
    if net.config.num_classes <= 0:
        raise ConfigError("attack needs a conditional (classifier) model")
    data, _ = _dataset_from_manifest(bundle.manifest)
    x_test, y_test = _split(data, "test")
    if y_test is None:
        raise ConfigError("attack needs a labeled dataset")
    n = min(args.n, x_test.shape[0])
    x_test, y_test = x_test[:n], y_test[:n]
    rng = np.random.default_rng(args.seed)
    refine_cfg = replace(_stored_chain(bundle.manifest), steps=args.refine_steps)
    header = "eps,accuracy" + (",accuracy_refined" if args.refine else "")
    clean = float(np.mean(energy_classify(net, x_test) == y_test))

    def accuracies(radii, skipped):
        """(accuracy, refined accuracy or None) at each radius in turn;
        the chains draw from rng past the draws of `skipped` chains."""
        part_rng = rng_after_chains(rng, refine_cfg, x_test.shape, skipped)
        out = []
        for eps in radii:
            adv = pgd_attack(net, x_test, y_test, eps,
                             **_passed(args, "steps", "norm"))
            acc = float(np.mean(energy_classify(net, adv) == y_test))
            acc_ref = None
            if args.refine:
                pred = refined_classify(net, adv, eps, refine_cfg, part_rng)
                acc_ref = float(np.mean(pred == y_test))
            out.append((acc, acc_ref))
        return out

    radii = [eps for eps in args.eps if eps != 0.0]
    half = (len(radii) + 1) // 2
    first, later = radii[:half], radii[half:]
    if later:
        skipped = net.config.num_classes * half if args.refine else 0
        with _Beside(accuracies, later, skipped) as beside:
            results = accuracies(first, 0)
        results += beside.value
    else:
        results = accuracies(first, 0)
    results = iter(results)
    rows = []
    for eps in args.eps:
        acc, acc_ref = (clean, clean) if eps == 0.0 else next(results)
        row = f"{eps:.10g},{acc:.10g}"
        if args.refine:
            row += f",{acc_ref:.10g}"
        rows.append(row)
    write_text_atomic(args.out, header + "\n" + "\n".join(rows) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """Reports a bad, missing or unknown flag as a ConfigError, so that it
    ends in the one-line error report like every other bad input."""

    def error(self, message):
        raise ConfigError(message)


def _flag(name, kind, **bounds):
    """argparse type of a numeric flag: its text as kind within bounds.
    name is the config field the flag feeds, or the flag's own name.
    Text that int() cannot read is argparse's "invalid int value"."""
    def parse(text):
        try:
            return checked(name, int(text) if kind is int else text, kind,
                           **bounds)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = kind.__name__
    return parse


_SEED = _flag("seed", int, ge=0)
_COUNT = _flag("n", int, ge=1)
_LABEL = _flag("label", int)
_STEPS = _flag("steps", int, ge=0)
_EPS = _flag("eps", float, ge=0)


def _radii(text):
    """--eps: comma-separated radii; a 0 row reports clean accuracy."""
    radii = [_EPS(tok) for tok in text.split(",") if tok]
    if not radii:
        raise argparse.ArgumentTypeError("needs at least one radius")
    return radii


def _add_sampling_flags(p):
    """The chain flags, each named after a LangevinConfig field (_given)."""
    p.add_argument("--steps", type=_STEPS)
    p.add_argument("--step-size", type=_flag("step_size", float, gt=0))
    p.add_argument("--noise", type=_flag("noise", float, ge=0))
    p.add_argument("--grad-clip", type=_flag("grad_clip", float, gt=0))
    p.add_argument("--no-clamp", dest="clamp", action="store_const",
                   const=None, help="disable the unit-cube projection")
    p.add_argument("--format", choices=("csv", "pgm"), default="csv")


COMPOSE_STEPS = 150
_STORED_CHAIN = ("Chain flags not given keep the values of the checkpoint's "
                 "training chain (train.langevin, else the default one).")


def build_parser():
    parser = _Parser(
        prog="ebmkit",
        description="Train, sample, compose, and evaluate energy models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="contrastively train an energy model")
    p.add_argument("--config", required=True)
    p.add_argument("--metrics-out", default=None,
                   help="per-step CSV (default: <out>.metrics.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="draw samples from a checkpoint",
                       description=_STORED_CHAIN, argument_default=SUPPRESS)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=_COUNT, default=64)
    p.add_argument("--label", type=_LABEL, default=None)
    p.add_argument("--init-file", default=None)
    _add_sampling_flags(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("inpaint", help="restore masked components",
                       description=_STORED_CHAIN, argument_default=SUPPRESS)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--mask", required=True,
                   help="CSV row; nonzero marks components to resample")
    p.add_argument("--label", type=_LABEL, default=None)
    _add_sampling_flags(p)
    p.set_defaults(func=cmd_inpaint)

    p = sub.add_parser(
        "compose", help="sample a product of several checkpoints",
        argument_default=SUPPRESS, description=f"Chain flags not given keep "
        f"the default training chain's values, with {COMPOSE_STEPS} steps, as "
        f"the checkpoints' own chains can disagree.")
    p.add_argument("--checkpoints", nargs="+", required=True)
    p.add_argument("--labels", nargs="+", required=True,
                   help="one per checkpoint; 'none' for unconditional")
    p.add_argument("--finetune-config", default=None)
    p.add_argument("--n", type=_COUNT)
    _add_sampling_flags(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("eval", help="compute one evaluation metric",
                       argument_default=SUPPRESS, description=f"AIS and RAISE "
                       f"flags not given keep the values of {AISConfig()}.")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--metric", choices=sorted(_EVALUATORS), required=True,
                   help="logz-bracket runs RAISE in a forked second process "
                        "beside AIS when at least 2 CPUs are usable, else "
                        "after it; the output bytes are the same")
    p.add_argument("--chains", type=_flag("chains", int, ge=1))
    p.add_argument("--temps", type=_flag("temps", int, ge=1))
    p.add_argument("--transitions", type=_flag("transitions", int, ge=0))
    p.add_argument("--mala-step", dest="step_size", metavar="MALA_STEP",
                   type=_flag("step_size", float, gt=0))
    p.add_argument("--quad-resolution",
                   type=_flag("quad_resolution", float, gt=0), default=None)
    p.add_argument("--data-file", default=None,
                   help="exact samples for the reverse estimator")
    p.add_argument("--inliers", default=None)
    p.add_argument("--outliers", default=None)
    p.add_argument("--radius", type=_flag("radius", float, gt=0), default=0.1)
    p.add_argument("--horizon", type=_flag("horizon", int, ge=1), default=50)
    p.add_argument("--steps", type=_STEPS, default=40,
                   help="rollout chain length; the rest of the chain is the "
                        "one stored in the checkpoint")
    p.add_argument("--n", type=_COUNT, default=1024,
                   help="buffer tail size for mode-coverage")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("continual",
                       help="train sequentially over disjoint class pairs")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_continual)

    p = sub.add_parser("attack",
                       help="robust-accuracy curve under PGD, optionally "
                            "with bounded-refinement recovery")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--eps", type=_radii, default="0.05,0.1,0.2,0.3",
                   help="comma-separated radii; 0 rows report clean "
                        "accuracy. The later half of the nonzero radii runs "
                        "in a forked second process when at least 2 CPUs "
                        "are usable, else after the first half; the output "
                        "bytes are the same")
    p.add_argument("--norm", choices=("linf", "l2"), default=SUPPRESS)
    p.add_argument("--refine", action="store_true",
                   help="also report accuracy after bounded Langevin "
                        "refinement; the second process's chains start "
                        "where the first half's leave the --seed generator, "
                        "so the bytes match a one-process run")
    p.add_argument("--refine-steps", type=_STEPS, default=30,
                   help="refinement chain length; the rest of the chain is "
                        "the one stored in the checkpoint")
    p.add_argument("--steps", type=_STEPS, default=SUPPRESS,
                   help="PGD iterations")
    p.add_argument("--n", type=_COUNT, default=256)
    p.set_defaults(func=cmd_attack)

    # every command writes one output and draws from one seed
    for p in sub.choices.values():
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=_SEED, default=0)
    return parser


def _setup_logging():
    level = os.environ.get("EBMKIT_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(message)s")


# glibc serves every allocation of 128 KiB or more with a fresh mmap and
# unmaps it on free, so each temporary of a wide batch (512 rows x 64
# units is 256 KiB) pays a page fault per 4 KiB page: about 305k faults
# and 1.8 s instead of 1.2 s for one `attack --refine` on 512 rows (2-core
# x86-64 VM). Fixed thresholds keep such arrays on the heap. Whether a
# run was fast used to depend on what the process had freed before.
MALLOC_MMAP_THRESHOLD = 32 * 2 ** 20    # bytes; glibc's upper limit
MALLOC_TRIM_THRESHOLD = 64 * 2 ** 20    # bytes kept at the heap top
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3     # glibc mallopt codes


def _keep_large_arrays_on_heap():
    """Set the C allocator's thresholds where it has mallopt (glibc); a
    no-op elsewhere."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MALLOC_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, MALLOC_TRIM_THRESHOLD)


def main(argv=None):
    _keep_large_arrays_on_heap()
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except EbmError as exc:
        print(f"error {exc.category}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error io: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1
    except yaml.YAMLError as exc:
        print(f"error config: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
