"""The four benchmark workloads: seeded inputs, the ebmkit command each one
times, and the checks its outputs must pass.

Every input ebmkit sees is generated here from the workload seed: YAML
configs, and for the three evaluation-side workloads, checkpoints trained
by ``ebmkit train`` during set-up. Why each workload exists is in
README.md next to this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from ebmkit.checkpoint import load_checkpoint
from ebmkit.cli import main as ebmkit_main

# Four well-separated modes on the unit square; the seed jitters them.
MODE_GRID = ((0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75))
MODE_JITTER = 0.05
MODE_SIGMA = 0.05

# Output values recorded by the traced run; a workload that does not
# produce one reports 0.
QUALITY = ("metrics.logz_lower", "metrics.logz_upper",
           "metrics.logz_quadrature", "metrics.acc_attacked",
           "metrics.acc_refined")

# Quadrature is the exact logZ up to grid error; both annealed estimates
# must land this close to it.
LOGZ_TOLERANCE = 0.05


@dataclass(frozen=True)
class Size:
    """Work per command. FULL is what the benchmark measures; TINY keeps
    the benchmark's own tests to seconds."""

    train_steps: int = 15        # train-mixture command
    setup_steps: int = 10        # checkpoints trained during set-up
    n_train: int = 512
    n_test: int = 512
    chains: int = 512
    temps: int = 100
    attack_n: int = 512
    attack_eps: str = "0.05,0.1,0.2"
    pgd_steps: int = 20
    refine_steps: int = 30
    finetune_epochs: int = 10
    compose_n: int = 64
    compose_steps: int = 150


FULL = Size()
TINY = Size(train_steps=2, setup_steps=2, n_train=64, n_test=16, chains=16,
            temps=5, attack_n=16, pgd_steps=2, refine_steps=2,
            finetune_epochs=1, compose_n=8, compose_steps=5)


def _write_yaml(path, data):
    Path(path).write_text(yaml.safe_dump(data, sort_keys=True))


def _mixture_config(rng, size, steps, num_classes=0):
    centers = np.asarray(MODE_GRID) + rng.uniform(
        -MODE_JITTER, MODE_JITTER, size=(len(MODE_GRID), 2))
    return {
        "model": {"num_classes": num_classes},
        "train": {"total_steps": steps},
        "dataset": {"kind": "mixture", "centers": centers.tolist(),
                    "sigma": MODE_SIGMA, "n": size.n_train,
                    "n_test": size.n_test},
    }


def _train_checkpoint(inp, stem, config, seed):
    cfg_path = inp / f"{stem}.yaml"
    _write_yaml(cfg_path, config)
    rc = ebmkit_main(["train", "--config", str(cfg_path),
                      "--out", str(inp / f"{stem}.ckpt"), "--seed", str(seed)])
    if rc != 0:
        raise RuntimeError(f"training the {stem} checkpoint exited {rc}")


def _child_seeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _floats(cells):
    return [float(c) for c in cells]


# ---------------------------------------------------------------------------
# train-mixture

def _setup_train(inp, seed, size):
    rng = np.random.default_rng(seed)
    _write_yaml(inp / "train.yaml", _mixture_config(rng, size,
                                                    size.train_steps))


def _argv_train(inp, out, seed, size):
    return ["train", "--config", str(inp / "train.yaml"),
            "--out", str(out / "model.ckpt"), "--seed", str(seed)]


def _check_train(out, size):
    header, rows = _read_csv(out / "model.ckpt.metrics.csv")
    problems = []
    if header != ["step", "e_pos", "e_neg", "loss"]:
        problems.append(f"metrics header {header}")
    if len(rows) != size.train_steps:
        problems.append(f"{len(rows)} metrics rows, want {size.train_steps}")
    if not all(math.isfinite(v) for row in rows for v in _floats(row)):
        problems.append("non-finite metrics value")
    bundle = load_checkpoint(out / "model.ckpt")
    if bundle.manifest["step_count"] != size.train_steps:
        problems.append("checkpoint step count differs from the config")
    return problems, {}


# ---------------------------------------------------------------------------
# logz-bracket

def _setup_logz(inp, seed, size):
    rng = np.random.default_rng(seed)
    (ckpt_seed,) = _child_seeds(seed, 1)
    _train_checkpoint(inp, "uncond",
                      _mixture_config(rng, size, size.setup_steps), ckpt_seed)


def _argv_logz(inp, out, seed, size):
    return ["eval", "--checkpoint", str(inp / "uncond.ckpt"),
            "--metric", "logz-bracket", "--chains", str(size.chains),
            "--temps", str(size.temps), "--out", str(out / "logz.csv"),
            "--seed", str(seed)]


def _check_logz(out, size):
    header, rows = _read_csv(out / "logz.csv")
    values = {row[0]: float(row[2]) for row in rows}
    names = ["logz_lower", "logz_upper", "logz_quadrature"]
    if header != ["metric", "config", "value"]:
        return [f"logz header {header}"], {}
    if len(rows) != len(names) or set(values) != set(names):
        return [f"logz rows {[row[0] for row in rows]}"], {}
    if not all(math.isfinite(v) for v in values.values()):
        return ["non-finite logZ estimate"], {}
    problems = [
        f"{name} {values[name]:.6g} is further than {LOGZ_TOLERANCE} from "
        f"quadrature {values['logz_quadrature']:.6g}"
        for name in names[:2]
        if abs(values[name] - values["logz_quadrature"]) > LOGZ_TOLERANCE]
    return problems, {f"metrics.{n}": values[n] for n in names}


# ---------------------------------------------------------------------------
# attack-refine

def _setup_attack(inp, seed, size):
    rng = np.random.default_rng(seed)
    (ckpt_seed,) = _child_seeds(seed, 1)
    _train_checkpoint(inp, "cond", _mixture_config(rng, size, size.setup_steps,
                                                   num_classes=len(MODE_GRID)),
                      ckpt_seed)


def _argv_attack(inp, out, seed, size):
    return ["attack", "--checkpoint", str(inp / "cond.ckpt"), "--refine",
            "--eps", size.attack_eps, "--n", str(size.attack_n),
            "--steps", str(size.pgd_steps),
            "--refine-steps", str(size.refine_steps),
            "--out", str(out / "attack.csv"), "--seed", str(seed)]


def _check_attack(out, size):
    header, rows = _read_csv(out / "attack.csv")
    eps = _floats(size.attack_eps.split(","))
    if header != ["eps", "accuracy", "accuracy_refined"]:
        return [f"attack header {header}"], {}
    if [float(row[0]) for row in rows] != eps:
        return [f"attack rows {rows} do not match eps {eps}"], {}
    acc = np.array([_floats(row[1:]) for row in rows])
    problems = [] if np.all((acc >= 0.0) & (acc <= 1.0)) else [
        "accuracy outside [0, 1]"]
    return problems, {"metrics.acc_attacked": float(acc[:, 0].mean()),
                      "metrics.acc_refined": float(acc[:, 1].mean())}


# ---------------------------------------------------------------------------
# compose-finetune

def _compose_labels(seed):
    """Two component labels for the joint sample and three training
    combinations for fine-tuning, all drawn from the seed."""
    rng = np.random.default_rng(seed)
    k = len(MODE_GRID)
    labels = rng.choice(k, size=2, replace=False)
    combos = [[int(a), int(b)] for a, b in rng.integers(0, k, size=(3, 2))]
    return [str(int(v)) for v in labels], combos


def _setup_compose(inp, seed, size):
    rng = np.random.default_rng(seed)
    seeds = _child_seeds(seed, 2)
    for i, ckpt_seed in enumerate(seeds):
        _train_checkpoint(inp, f"cond{i}",
                          _mixture_config(rng, size, size.setup_steps,
                                          num_classes=len(MODE_GRID)),
                          ckpt_seed)
    _, combos = _compose_labels(seed)
    _write_yaml(inp / "finetune.yaml",
                {"finetune": {"epochs": size.finetune_epochs,
                              "combos": combos}})


def _argv_compose(inp, out, seed, size):
    labels, _ = _compose_labels(seed)
    return ["compose", "--checkpoints", str(inp / "cond0.ckpt"),
            str(inp / "cond1.ckpt"), "--labels", *labels,
            "--finetune-config", str(inp / "finetune.yaml"),
            "--n", str(size.compose_n), "--steps", str(size.compose_steps),
            "--out", str(out / "samples.csv"), "--seed", str(seed)]


def _check_compose(out, size):
    x = np.loadtxt(out / "samples.csv", delimiter=",", ndmin=2)
    if x.shape != (size.compose_n, 2):
        return [f"samples shape {x.shape}, want ({size.compose_n}, 2)"], {}
    if not np.all(np.isfinite(x)):
        return ["non-finite sample"], {}
    if not np.all((x >= 0.0) & (x <= 1.0)):
        return ["sample outside the unit cube"], {}
    return [], {}


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A command and its inputs. A run builds inputs for `variants`
    seeds derived from the run seed and times rounds of one command per
    variant, so that the cost of a single input does not decide the run."""

    name: str
    setup: object     # (input dir, seed, size) -> None
    argv: object      # (input dir, output dir, seed, size) -> list of str
    check: object     # (output dir, size) -> (problems, quality values)
    variants: int = 1

    def seeds(self, seed):
        return [seed * self.variants + i for i in range(self.variants)]


WORKLOADS = {w.name: w for w in [
    # The training command's cost differed by up to about 20% between
    # seeds (measured on the same machine, calls interleaved), so each run
    # averages four of them.
    Workload("train-mixture", _setup_train, _argv_train, _check_train,
             variants=4),
    Workload("logz-bracket", _setup_logz, _argv_logz, _check_logz),
    Workload("attack-refine", _setup_attack, _argv_attack, _check_attack),
    Workload("compose-finetune", _setup_compose, _argv_compose,
             _check_compose),
]}
