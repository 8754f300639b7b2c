"""End-to-end checks of the command-line interface.

Commands run in-process through cli.main so exit codes and stderr are
observable. One test runs the console script built from the
[project.scripts] declaration in pyproject.toml; another runs the
installed one when it is on PATH. Module fixtures train small
checkpoints once and share them.
"""

import argparse
import contextlib
import copy
import io
import os
import platform
import re
import resource
import shutil
import struct
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import ebmkit
from ebmkit import cli
from ebmkit.checkpoint import load_checkpoint, save_checkpoint
from ebmkit.cli import (DATASET_DEFAULTS, DEFAULTS,
                        _keep_large_arrays_on_heap, build_parser, main)
from ebmkit.errors import DegenerateEstimateError
from ebmkit.metrics import energy_classify, pgd_attack, refined_classify
from ebmkit.model import EnergyNet, ModelConfig
from ebmkit.sampler import LangevinConfig, ReplayBuffer

from helpers import (MALFORMED_MANIFESTS, save_stateful_checkpoint,
                     simpson_log_partition, with_manifest)

ONED_YAML = textwrap.dedent("""\
    model:
      widths: [1, 32, 32, 1]
      spectral_norm: false
    train:
      total_steps: 1200
      batch_size: 64
      lr: 3.0e-3
    langevin:
      steps: 40
    dataset:
      kind: mixture
      centers: [[0.5]]
      sigma: 0.05
      n: 512
      n_test: 128
    """)

COND_YAML = textwrap.dedent("""\
    model:
      widths: [2, 32, 32, 1]
      num_classes: 2
      spectral_norm: false
    train:
      total_steps: 300
      batch_size: 64
      lr: 3.0e-3
    langevin:
      steps: 30
    dataset:
      kind: mixture
      centers: [[0.25, 0.5], [0.75, 0.5]]
      sigma: 0.05
      n: 512
      n_test: 128
    """)

TRAJ_YAML = textwrap.dedent("""\
    model:
      widths: [5, 32, 32, 1]
      spectral_norm: false
    train:
      total_steps: 200
      batch_size: 64
      lr: 3.0e-3
    langevin:
      steps: 20
    dataset:
      kind: trajectories
      n_trajectories: 30
      length: 20
    """)

MIXTURE_YAML = textwrap.dedent("""\
    model:
      widths: [2, 8, 1]
    train:
      total_steps: 0
    dataset:
      kind: mixture
    """)

SPRITE_YAML = textwrap.dedent("""\
    model:
      widths: [256, 16, 1]
      spectral_norm: false
    train:
      total_steps: 0
    dataset:
      kind: sprites
      scales: [0.5]
      n_per_combo: 4
    """)


def _train(tmp, name, yaml_text, seed):
    cfg = tmp / f"{name}.yaml"
    cfg.write_text(yaml_text)
    out = tmp / f"{name}.bin"
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--seed", str(seed)]) == 0
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def oned_ckpt(workdir):
    return _train(workdir, "oned", ONED_YAML, seed=11)


@pytest.fixture(scope="module")
def cond_ckpt(workdir):
    return _train(workdir, "cond", COND_YAML, seed=5)


@pytest.fixture(scope="module")
def traj_ckpt(workdir):
    return _train(workdir, "traj", TRAJ_YAML, seed=4)


@pytest.fixture(scope="module")
def mixture_ckpt(workdir):
    return _train(workdir, "mixture", MIXTURE_YAML, seed=2)


@pytest.fixture(scope="module")
def sprite_ckpt(workdir):
    return _train(workdir, "sprite", SPRITE_YAML, seed=1)


def _rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], lines[1:]


# ---------------------------------------------------------------------------
# train

def test_train_writes_checkpoint_and_metrics(cond_ckpt):
    metrics = cond_ckpt.parent / (cond_ckpt.name + ".metrics.csv")
    header, rows = _rows(metrics)
    assert header == "step,e_pos,e_neg,loss"
    assert len(rows) == 300
    bundle = load_checkpoint(cond_ckpt)
    assert bundle.manifest["step_count"] == 300
    assert bundle.manifest["dataset"]["kind"] == "mixture"
    assert bundle.manifest["seed"] == 5


def test_zero_step_train_yields_loadable_checkpoint(sprite_ckpt):
    bundle = load_checkpoint(sprite_ckpt)
    assert tuple(bundle.manifest["model"]["widths"]) == (256, 16, 1)
    assert bundle.manifest["step_count"] == 0
    assert len(bundle.buffer) == 0


def test_train_is_byte_deterministic(workdir):
    cfg = workdir / "det.yaml"
    cfg.write_text(COND_YAML.replace("total_steps: 300", "total_steps: 40"))
    outs = []
    for run in ("a", "b"):
        out = workdir / f"det_{run}.bin"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--seed", "33"]) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    m0 = (workdir / "det_a.bin.metrics.csv").read_bytes()
    m1 = (workdir / "det_b.bin.metrics.csv").read_bytes()
    assert m0 == m1


# ---------------------------------------------------------------------------
# sample

def test_sample_steps_zero_with_init_file_round_trips_bytes(oned_ckpt,
                                                            workdir):
    init = workdir / "init.csv"
    out = workdir / "echo.csv"
    assert main(["sample", "--checkpoint", str(oned_ckpt), "--n", "4",
                 "--steps", "5", "--out", str(init), "--seed", "3"]) == 0
    assert main(["sample", "--checkpoint", str(oned_ckpt), "--steps", "0",
                 "--init-file", str(init), "--out", str(out),
                 "--seed", "99"]) == 0
    assert init.read_bytes() == out.read_bytes()


def test_sample_shape_bounds_and_determinism(cond_ckpt, workdir):
    outs = []
    for run in ("s1", "s2"):
        out = workdir / f"{run}.csv"
        assert main(["sample", "--checkpoint", str(cond_ckpt), "--n", "32",
                     "--label", "0", "--steps", "20", "--out", str(out),
                     "--seed", "9"]) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    x = np.loadtxt(outs[0], delimiter=",", ndmin=2)
    assert x.shape == (32, 2)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)


def test_sample_conditional_without_label_fails(cond_ckpt, workdir, capsys):
    out = workdir / "nolabel.csv"
    code = main(["sample", "--checkpoint", str(cond_ckpt), "--n", "4",
                 "--out", str(out), "--seed", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error label:")
    assert "\n" not in err.strip()


def test_pgm_grid_output(sprite_ckpt, workdir):
    out = workdir / "grid.pgm"
    assert main(["sample", "--checkpoint", str(sprite_ckpt), "--n", "4",
                 "--steps", "0", "--format", "pgm", "--out", str(out),
                 "--seed", "2"]) == 0
    tokens = out.read_text().split()
    assert tokens[0] == "P2"
    width, height, maxval = (int(t) for t in tokens[1:4])
    # four 16x16 tiles in a 2x2 grid
    assert (width, height, maxval) == (32, 32, 255)
    pixels = np.array(tokens[4:], dtype=int)
    assert pixels.size == width * height
    assert pixels.min() >= 0 and pixels.max() <= 255


# ---------------------------------------------------------------------------
# inpaint

def test_inpaint_holds_unmasked_components(cond_ckpt, workdir):
    rng = np.random.default_rng(0)
    inp = workdir / "inp_in.csv"
    mask = workdir / "inp_mask.csv"
    out = workdir / "inp_out.csv"
    np.savetxt(inp, rng.uniform(size=(6, 2)), fmt="%.17g", delimiter=",")
    mask.write_text("0,1\n")
    assert main(["inpaint", "--checkpoint", str(cond_ckpt),
                 "--input", str(inp), "--mask", str(mask), "--label", "1",
                 "--steps", "15", "--out", str(out), "--seed", "4"]) == 0
    before = np.loadtxt(inp, delimiter=",", ndmin=2)
    after = np.loadtxt(out, delimiter=",", ndmin=2)
    assert np.array_equal(before[:, 0], after[:, 0])
    assert not np.array_equal(before[:, 1], after[:, 1])


# ---------------------------------------------------------------------------
# compose

def test_compose_samples_within_bounds(cond_ckpt, workdir):
    out = workdir / "comp.csv"
    assert main(["compose", "--checkpoints", str(cond_ckpt), str(cond_ckpt),
                 "--labels", "0", "1", "--n", "16", "--steps", "40",
                 "--out", str(out), "--seed", "8"]) == 0
    x = np.loadtxt(out, delimiter=",", ndmin=2)
    assert x.shape == (16, 2)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)


def test_compose_with_finetune_config(cond_ckpt, workdir):
    cfg = workdir / "ft.yaml"
    cfg.write_text("finetune:\n  epochs: 2\n  combos: [[0, 1]]\n")
    out = workdir / "compft.csv"
    assert main(["compose", "--checkpoints", str(cond_ckpt), str(cond_ckpt),
                 "--labels", "0", "1", "--finetune-config", str(cfg),
                 "--n", "8", "--steps", "20", "--out", str(out),
                 "--seed", "8"]) == 0
    assert np.loadtxt(out, delimiter=",", ndmin=2).shape == (8, 2)


@pytest.mark.parametrize("combos,category", [
    ("[[0, 1.5]]", "label"), ("[[0, true]]", "label"), ('[[0, "1"]]', "label"),
    ("5", "config"), ("[1, 2]", "config")],
    ids=["fractional", "bool", "string", "scalar", "flat"])
def test_bad_finetune_combos_report_one_error(cond_ckpt, workdir, capsys,
                                              combos, category):
    """A combination label must be a class index, and combos a list of
    label lists; neither is truncated or converted."""
    cfg = workdir / "ft-bad.yaml"
    cfg.write_text(f"finetune:\n  epochs: 2\n  combos: {combos}\n")
    code = main(["compose", "--checkpoints", str(cond_ckpt), str(cond_ckpt),
                 "--labels", "0", "1", "--finetune-config", str(cfg),
                 "--n", "8", "--steps", "20",
                 "--out", str(workdir / "compft-bad.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error {category}:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# eval

def _metric_values(path):
    header, rows = _rows(path)
    assert header == "metric,config,value"
    out = {}
    for row in rows:
        name, digest, value = row.split(",")
        assert len(digest) == 12 and int(digest, 16) >= 0
        out[name] = float(value)
    return out


def test_logz_bracket_contains_quadrature_truth(oned_ckpt, workdir):
    # slow-mixing annealing settings keep the bracket wide relative to
    # estimator noise, so containment is stable for this seeded run
    out = workdir / "logz.csv"
    assert main(["eval", "--checkpoint", str(oned_ckpt),
                 "--metric", "logz-bracket", "--out", str(out),
                 "--seed", "5", "--chains", "32", "--temps", "10",
                 "--transitions", "1", "--mala-step", "0.002"]) == 0
    vals = _metric_values(out)
    assert vals["logz_lower"] <= vals["logz_quadrature"] <= vals["logz_upper"]
    # the 1e-4 midpoint rule against Simpson's rule on a 10x finer grid
    truth = simpson_log_partition(load_checkpoint(oned_ckpt).net, 0.0, 1.0,
                                  100_000)
    assert vals["logz_quadrature"] == pytest.approx(truth, abs=1e-6)


def test_eval_is_byte_deterministic(oned_ckpt, workdir):
    files = []
    for run in ("e1", "e2"):
        out = workdir / f"{run}.csv"
        assert main(["eval", "--checkpoint", str(oned_ckpt),
                     "--metric", "logz-bracket", "--out", str(out),
                     "--seed", "7", "--chains", "16", "--temps", "8",
                     "--transitions", "1"]) == 0
        files.append(out)
    assert files[0].read_bytes() == files[1].read_bytes()


def _logz_argv(ckpt, seed, out, *extra):
    return ["eval", "--checkpoint", str(ckpt), "--metric", "logz-bracket",
            "--chains", "32", "--temps", "12", "--seed", str(seed),
            "--out", str(out), *extra]


@pytest.fixture(scope="module")
def square_points(workdir):
    """Reverse-estimator samples for the 2-D mixture checkpoint, whose
    buffer is empty after 0 training steps."""
    path = workdir / "square-points.csv"
    path.write_text("0.25,0.5\n0.75,0.5\n0.5,0.25\n0.5,0.75\n")
    return path


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("dim", [1, 2])
def test_logz_bracket_bytes_do_not_depend_on_the_second_process(
        oned_ckpt, mixture_ckpt, square_points, workdir, monkeypatch, capfd,
        dim, seed):
    """With 2 usable CPUs RAISE runs in a forked child; with 1 it runs
    after AIS. The files are identical, the child prints nothing, and no
    child is left once main returns."""
    ckpt, extra = ((oned_ckpt, ()) if dim == 1 else
                   (mixture_ckpt, ("--data-file", str(square_points))))
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    outs = []
    for cpus in (1, 2):
        monkeypatch.setattr("ebmkit.cli._usable_cpus", lambda: cpus)
        outs.append(workdir / f"logz-cpus{cpus}-{dim}-{seed}.csv")
        assert main(_logz_argv(ckpt, seed, outs[-1], *extra)) == 0
        assert len(forks) == cpus - 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert capfd.readouterr() == ("", "")


def test_failed_fork_runs_raise_inline(oned_ckpt, workdir, monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    outs = [workdir / "logz-forked.csv", workdir / "logz-no-fork.csv"]
    monkeypatch.setattr("ebmkit.cli._usable_cpus", lambda: 2)
    assert main(_logz_argv(oned_ckpt, 4, outs[0])) == 0
    monkeypatch.setattr(os, "fork", no_fork)
    assert main(_logz_argv(oned_ckpt, 4, outs[1])) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_second_process_that_dies_is_one_error_line(oned_ckpt, workdir,
                                                    monkeypatch, capsys):
    monkeypatch.setattr("ebmkit.cli._usable_cpus", lambda: 2)
    monkeypatch.setattr("ebmkit.cli.raise_logZ", lambda *args: os._exit(3))
    out = workdir / "logz-child-dies.csv"
    assert main(_logz_argv(oned_ckpt, 3, out)) == 1
    assert capsys.readouterr().err == (
        "error io: the second process ended without a result "
        "(wait status 768)\n")
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2])
def test_raise_error_keeps_the_contract_in_either_process(
        oned_ckpt, workdir, monkeypatch, capsys, cpus):
    def degenerate(*args):
        raise DegenerateEstimateError("all annealing weights vanished")

    monkeypatch.setattr("ebmkit.cli._usable_cpus", lambda: cpus)
    monkeypatch.setattr("ebmkit.cli.raise_logZ", degenerate)
    out = workdir / f"logz-degenerate-{cpus}.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(_logz_argv(oned_ckpt, 3, out))
    assert code == 1 and not caught
    err = capsys.readouterr().err
    assert err.startswith("error degenerate-estimate:") and err.count("\n") == 1
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2])
def test_ais_error_reaps_the_second_process(oned_ckpt, workdir, monkeypatch,
                                            capsys, cpus):
    """An AIS error is the one reported, as RAISE would not have run."""
    def fails(*args):
        raise DegenerateEstimateError("AIS failed")

    monkeypatch.setattr("ebmkit.cli._usable_cpus", lambda: cpus)
    monkeypatch.setattr("ebmkit.cli.ais_logZ", fails)
    monkeypatch.setattr("ebmkit.cli.raise_logZ", lambda *args: time.sleep(30))
    out = workdir / f"logz-ais-fails-{cpus}.csv"
    start = time.perf_counter()
    assert main(_logz_argv(oned_ckpt, 3, out)) == 1
    assert time.perf_counter() - start < 20
    assert capsys.readouterr().err == "error degenerate-estimate: AIS failed\n"
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2])
def test_raise_warnings_reach_the_caller_after_ais_warnings(
        oned_ckpt, workdir, monkeypatch, cpus):
    """Warnings issued while RAISE runs in the child are issued again in
    the parent, after those of AIS, in the order a single process gives."""
    real_ais, real_raise = cli.ais_logZ, cli.raise_logZ

    def ais(*args):
        warnings.warn("from ais")
        return real_ais(*args)

    def raise_(*args):
        warnings.warn("from raise 1", RuntimeWarning)
        value = real_raise(*args)
        warnings.warn("from raise 2")
        return value

    monkeypatch.setattr("ebmkit.cli._usable_cpus", lambda: cpus)
    monkeypatch.setattr("ebmkit.cli.ais_logZ", ais)
    monkeypatch.setattr("ebmkit.cli.raise_logZ", raise_)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(_logz_argv(oned_ckpt, 3, workdir / "logz-warn.csv")) == 0
    assert [(str(w.message), w.category) for w in caught] == [
        ("from ais", UserWarning), ("from raise 1", RuntimeWarning),
        ("from raise 2", UserWarning)]
    assert {w.filename for w in caught} == {__file__}


def test_ks_overfit_reports_small_gap(cond_ckpt, workdir):
    out = workdir / "ks.csv"
    assert main(["eval", "--checkpoint", str(cond_ckpt),
                 "--metric", "ks-overfit", "--out", str(out)]) == 0
    vals = _metric_values(out)
    assert 0.0 <= vals["ks_overfit"] <= 1.0


def test_mode_coverage_rows(cond_ckpt, workdir):
    out = workdir / "cov.csv"
    assert main(["eval", "--checkpoint", str(cond_ckpt),
                 "--metric", "mode-coverage", "--radius", "0.12",
                 "--out", str(out)]) == 0
    vals = _metric_values(out)
    assert set(vals) == {"coverage_0", "coverage_1", "unassigned"}
    assert all(0.0 <= v <= 1.0 for v in vals.values())


def test_mode_coverage_center_dimension_mismatch_is_one_line(workdir, capsys):
    """Centers of the recorded dataset (3-D) that do not match the replay
    buffer's samples (2-D) are a dimension error, not a traceback."""
    rng = np.random.default_rng(0)
    net = EnergyNet.init(ModelConfig(widths=(2, 4, 1)), rng)
    buf = ReplayBuffer(capacity=8)
    buf.insert(rng.uniform(size=(8, 2)))
    spec = {"kind": "mixture", "centers": [[0.5, 0.5, 0.5]], "sigma": 0.05,
            "n": 8, "n_test": 4}
    ckpt = workdir / "coverage-3d-centers.ebm"
    save_checkpoint(ckpt, net, dataset=spec, seed=0, buffer=buf)
    out = workdir / "coverage-3d-centers.csv"
    code = main(["eval", "--checkpoint", str(ckpt), "--metric",
                 "mode-coverage", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error dimension:") and err.count("\n") == 1
    assert not out.exists()


def test_ood_auroc_ranks_data_above_uniform(cond_ckpt, workdir):
    rng = np.random.default_rng(12)
    half = rng.normal(scale=0.05, size=(64, 2))
    inliers = np.clip(np.concatenate([half + [0.25, 0.5],
                                      half + [0.75, 0.5]]), 0, 1)
    outliers = rng.uniform(size=(128, 2))
    fin = workdir / "in.csv"
    fout = workdir / "out.csv"
    np.savetxt(fin, inliers, fmt="%.17g", delimiter=",")
    np.savetxt(fout, outliers, fmt="%.17g", delimiter=",")
    report = workdir / "auroc.csv"
    assert main(["eval", "--checkpoint", str(cond_ckpt),
                 "--metric", "ood-auroc", "--inliers", str(fin),
                 "--outliers", str(fout), "--out", str(report)]) == 0
    assert _metric_values(report)["ood_auroc"] >= 0.6


def test_frechet_rollout_reports_finite_distance(traj_ckpt, workdir):
    out = workdir / "frechet.csv"
    assert main(["eval", "--checkpoint", str(traj_ckpt),
                 "--metric", "frechet-rollout", "--horizon", "10",
                 "--steps", "20", "--out", str(out), "--seed", "6"]) == 0
    value = _metric_values(out)["frechet_rollout_mean"]
    assert np.isfinite(value) and value >= 0.0


def test_logz_rejects_conditional_model(cond_ckpt, workdir, capsys):
    out = workdir / "badlogz.csv"
    code = main(["eval", "--checkpoint", str(cond_ckpt),
                 "--metric", "logz-bracket", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error config:")


# ---------------------------------------------------------------------------
# continual

def test_continual_reports_per_task_accuracy(workdir):
    cfg = workdir / "cont.yaml"
    cfg.write_text(textwrap.dedent("""\
        model:
          widths: [2, 32, 32, 1]
          spectral_norm: false
        train:
          total_steps: 100
          batch_size: 32
          lr: 3.0e-3
        langevin:
          steps: 20
        continual:
          centers: [[0.2, 0.3], [0.8, 0.3], [0.2, 0.7], [0.8, 0.7]]
          sigma: 0.03
          n: 400
          n_test: 160
          pairs: [[0, 1], [2, 3]]
          steps_per_task: 100
        """))
    out = workdir / "cont.csv"
    assert main(["continual", "--config", str(cfg), "--out", str(out),
                 "--seed", "2"]) == 0
    header, rows = _rows(out)
    assert header == "task,acc_task,acc_seen"
    assert len(rows) == 2
    for row in rows:
        _, acc_task, acc_seen = row.split(",")
        assert 0.0 <= float(acc_task) <= 1.0
        assert 0.0 <= float(acc_seen) <= 1.0


# ---------------------------------------------------------------------------
# attack

def test_attack_curve_with_refinement(cond_ckpt, workdir):
    out = workdir / "attack.csv"
    assert main(["attack", "--checkpoint", str(cond_ckpt),
                 "--eps", "0,0.1", "--refine", "--refine-steps", "10",
                 "--n", "64", "--out", str(out), "--seed", "3"]) == 0
    header, rows = _rows(out)
    assert header == "eps,accuracy,accuracy_refined"
    assert len(rows) == 2
    clean = rows[0].split(",")
    assert float(clean[0]) == 0.0
    assert float(clean[1]) == float(clean[2]) >= 0.9
    attacked = [float(v) for v in rows[1].split(",")]
    assert attacked[0] == 0.1
    assert all(0.0 <= v <= 1.0 for v in attacked[1:])


def _attack_argv(ckpt, eps, out, *extra):
    return ["attack", "--checkpoint", str(ckpt), "--eps", eps, "--n", "128",
            "--steps", "5", "--refine-steps", "10", "--seed", "3",
            "--out", str(out), *extra]


def _attack_in_one_pass(ckpt, eps, norm, refine):
    """The CSV _attack_argv asks for, from one loop over the radii on one
    generator."""
    bundle = load_checkpoint(ckpt)
    net = bundle.net
    x, y = cli._split(cli._dataset_from_manifest(bundle.manifest)[0], "test")
    x, y = x[:128], y[:128]
    rng = np.random.default_rng(3)
    cfg = LangevinConfig(steps=10, clamp=(0.0, 1.0))
    clean = float(np.mean(energy_classify(net, x) == y))
    lines = ["eps,accuracy" + ",accuracy_refined" * refine]
    for radius in map(float, eps.split(",")):
        acc = acc_ref = clean
        if radius:
            adv = pgd_attack(net, x, y, radius, steps=5, norm=norm)
            acc = float(np.mean(energy_classify(net, adv) == y))
            if refine:
                pred = refined_classify(net, adv, radius, cfg, rng)
                acc_ref = float(np.mean(pred == y))
        lines.append(f"{radius:.10g},{acc:.10g}"
                     + f",{acc_ref:.10g}" * refine)
    return "\n".join(lines) + "\n"


# 0 to 4 nonzero radii, a 0 row among them
ATTACK_RADII = ["0", "0.1", "0,0.1,0.2", "0.3,0,0.05,0.2",
                "0.05,0.1,0.2,0.3"]


@pytest.mark.parametrize("refine", [False, True], ids=["plain", "refine"])
@pytest.mark.parametrize("norm", ["linf", "l2"])
def test_attack_bytes_do_not_depend_on_the_second_process(
        cond_ckpt, workdir, monkeypatch, capfd, norm, refine):
    """With 2 usable CPUs the later half of the nonzero radii runs in a
    forked child, which needs 2 of them; with 1 CPU it runs after the
    first half. Both files are the one a single loop over the radii on
    one generator writes, the child prints nothing, and no child is left
    once main returns."""
    extra = ("--norm", norm) + (("--refine",) if refine else ())
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    for i, eps in enumerate(ATTACK_RADII):
        nonzero = sum(float(r) != 0.0 for r in eps.split(","))
        outs = []
        for cpus in (1, 2):
            monkeypatch.setattr("ebmkit.cli._usable_cpus", lambda: cpus)
            outs.append(workdir / f"attack-cpus{cpus}-{norm}-{refine}-{i}.csv")
            del forks[:]
            assert main(_attack_argv(cond_ckpt, eps, outs[-1], *extra)) == 0
            assert len(forks) == (cpus == 2 and nonzero >= 2)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert outs[0].read_bytes() == outs[1].read_bytes(), eps
        assert outs[0].read_text() == _attack_in_one_pass(cond_ckpt, eps,
                                                          norm, refine)
    assert capfd.readouterr() == ("", "")


def test_failed_fork_runs_the_later_radii_inline(cond_ckpt, workdir,
                                                 monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    outs = [workdir / "attack-forked.csv", workdir / "attack-no-fork.csv"]
    monkeypatch.setattr("ebmkit.cli._usable_cpus", lambda: 2)
    for out in outs:
        assert main(_attack_argv(cond_ckpt, "0.05,0.1,0.2,0.3", out,
                                 "--refine")) == 0
        monkeypatch.setattr(os, "fork", no_fork)
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _fails_at(eps, action):
    """cli.pgd_attack, with action in its place at radius eps."""
    real = cli.pgd_attack

    def attack(net, x, y, radius, **kwargs):
        if radius == eps:
            return action()
        return real(net, x, y, radius, **kwargs)

    return attack


def test_attack_second_process_that_dies_is_one_error_line(
        cond_ckpt, workdir, monkeypatch, capsys):
    monkeypatch.setattr("ebmkit.cli._usable_cpus", lambda: 2)
    monkeypatch.setattr("ebmkit.cli.pgd_attack",
                        _fails_at(0.2, lambda: os._exit(3)))
    out = workdir / "attack-child-dies.csv"
    assert main(_attack_argv(cond_ckpt, "0.1,0.2", out)) == 1
    assert capsys.readouterr().err == (
        "error io: the second process ended without a result "
        "(wait status 768)\n")
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("eps", [0.1, 0.2], ids=["first", "later"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_chain_divergence_keeps_the_contract_in_either_process(
        cond_ckpt, workdir, monkeypatch, capsys, cpus, eps):
    """A chain that diverges at the first radius (this process) or at the
    later one (the child, at 2 CPUs) ends in the same one line."""
    real = cli.refined_classify

    class NanGradient:
        """A net whose gradient is not finite, as an overflowing one's."""

        def __init__(self, net):
            self.config = net.config

        def frozen(self):
            return self

        def grad_x(self, x, labels=None):
            return np.full(np.shape(x), np.nan)

    def refine(net, x, radius, cfg, rng):
        if radius == eps:
            net = NanGradient(net)
        return real(net, x, radius, cfg, rng)

    monkeypatch.setattr("ebmkit.cli._usable_cpus", lambda: cpus)
    monkeypatch.setattr("ebmkit.cli.refined_classify", refine)
    out = workdir / f"attack-diverges-{cpus}-{eps}.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(_attack_argv(cond_ckpt, "0.1,0.2", out, "--refine"))
    assert code == 1 and not caught
    assert capsys.readouterr().err == (
        "error chain-diverged: energy gradient is not finite (step 0)\n")
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2])
def test_attack_error_reaps_the_second_process(cond_ckpt, workdir,
                                               monkeypatch, capsys, cpus):
    """An error at a first-half radius is the one reported, as the later
    radii would not have run."""
    def fails():
        raise DegenerateEstimateError("attack failed")

    monkeypatch.setattr("ebmkit.cli._usable_cpus", lambda: cpus)
    monkeypatch.setattr("ebmkit.cli.pgd_attack",
                        _fails_at(0.2, lambda: time.sleep(30)))
    monkeypatch.setattr("ebmkit.cli.pgd_attack", _fails_at(0.1, fails))
    out = workdir / f"attack-fails-{cpus}.csv"
    start = time.perf_counter()
    assert main(_attack_argv(cond_ckpt, "0.1,0.2", out)) == 1
    assert time.perf_counter() - start < 20
    assert capsys.readouterr().err == (
        "error degenerate-estimate: attack failed\n")
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# config and error reporting

def test_unknown_config_section_rejected(workdir, capsys):
    cfg = workdir / "bad_section.yaml"
    cfg.write_text("modelx: {}\n")
    code = main(["train", "--config", str(cfg), "--out",
                 str(workdir / "x.bin")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error config:")
    assert "modelx" in err


def test_unknown_config_key_rejected(workdir, capsys):
    cfg = workdir / "bad_key.yaml"
    cfg.write_text("train:\n  learning_rate: 0.1\ndataset:\n  kind: mixture\n")
    code = main(["train", "--config", str(cfg), "--out",
                 str(workdir / "x.bin")])
    assert code == 1
    assert "train.learning_rate" in capsys.readouterr().err


def test_missing_checkpoint_reports_io_error(workdir, capsys):
    code = main(["sample", "--checkpoint", str(workdir / "missing.bin"),
                 "--out", str(workdir / "x.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error io:")


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_reports_contract_error(workdir, capsys, case):
    good = workdir / "manifest-ok.ebm"
    save_stateful_checkpoint(good)
    bad = workdir / f"manifest-{case}.ebm"
    bad.write_bytes(with_manifest(good.read_bytes(), MALFORMED_MANIFESTS[case]))
    code = main(["sample", "--checkpoint", str(bad),
                 "--out", str(workdir / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error contract:") and err.count("\n") == 1


def test_version_1_checkpoint_reports_contract_error(workdir, capsys):
    """Version 1 stored a label per replay-buffer row; such files are
    refused with one line."""
    good = workdir / "version-ok.ebm"
    save_stateful_checkpoint(good)
    old = workdir / "version-1.ebm"
    raw = good.read_bytes()
    old.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    code = main(["eval", "--checkpoint", str(old), "--metric",
                 "logz-bracket", "--out", str(workdir / "v1.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error contract: unsupported checkpoint format version 1\n"


def _scaled_weights(src, dst, factor):
    """A copy of checkpoint src with every weight matrix times factor."""
    bundle = load_checkpoint(src)
    for layer in bundle.net.layers:
        layer.w = layer.w * factor
    m = bundle.manifest
    save_checkpoint(dst, bundle.net, train=m["train"], dataset=m["dataset"],
                    seed=m["seed"], step_count=m["step_count"],
                    adam=bundle.adam, buffer=bundle.buffer)
    return dst


@pytest.mark.parametrize("factor", [1e200, 1e160, 1e-310, 0.0])
@pytest.mark.parametrize("command", [
    ["eval", "--metric", "logz-bracket", "--chains", "2", "--temps", "3"],
    ["sample", "--n", "2", "--steps", "2"]], ids=["logz", "sample"])
def test_spectral_scale_that_is_not_finite_and_positive_is_refused(
        fuzz_inputs, workdir, capsys, factor, command):
    """Finite weights whose spectral scale overflows (1e200, 1e160) or
    vanishes (1e-310, 0) used to give a constant-energy net, warnings and
    exit 0. The checkpoint is now refused at load, in one line."""
    ckpt = _scaled_weights(fuzz_inputs["mix"], workdir / "scaled.ckpt",
                           factor)
    out = workdir / "scaled-out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command[0], "--checkpoint", str(ckpt), *command[1:],
                     "--out", str(out)])
    assert code == 1 and not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert re.fullmatch(r"error contract: layer 0 has spectral scale \S+; "
                        r"the scale must be finite and positive\n", err)
    assert not out.exists()


@pytest.fixture(scope="module")
def overflowing_ckpts(workdir):
    """2-8-8-1 checkpoints without spectral normalisation, 4-class and
    unconditional, with every weight times 1e160: finite, but each
    energy overflows."""
    text = ("model:\n  widths: [2, 8, 8, 1]\n  num_classes: {k}\n"
            "  spectral_norm: false\n"
            "train:\n  total_steps: 3\n  batch_size: 8\n"
            "langevin:\n  steps: 2\n"
            "dataset:\n  kind: mixture\n  n: 64\n  n_test: 32\n"
            "  centers: [[0.25, 0.25], [0.75, 0.75], [0.25, 0.75], "
            "[0.75, 0.25]]\n")
    points = workdir / "overflow-points.csv"
    points.write_text("0.2,0.3\n0.5,0.5\n")
    ckpts = {"points": points}
    for name, k in (("cond", 4), ("plain", 0)):
        ckpts[name] = _scaled_weights(
            _train(workdir, f"overflow-{name}", text.format(k=k), seed=1),
            workdir / f"overflow-{name}-1e160.ckpt", 1e160)
    return ckpts


_KS = ["eval", "--metric", "ks-overfit"]
_AUROC = ["eval", "--metric", "ood-auroc", "--inliers", "{points}",
          "--outliers", "{points}"]
_ATTACK = ["attack", "--eps", "0,0.1,0.2", "--n", "8", "--steps", "2"]
OVERFLOW_CASES = {
    "attack": ("cond", _ATTACK),
    "attack-refine": ("cond", _ATTACK + ["--refine", "--refine-steps", "2"]),
    "ks-cond": ("cond", _KS), "ks-plain": ("plain", _KS),
    "auroc-cond": ("cond", _AUROC), "auroc-plain": ("plain", _AUROC)}


@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_energies_that_overflow_are_one_error_line(
        overflowing_ckpts, workdir, capsys, case):
    """Finite weights whose energies overflow used to give warnings and
    exit 0 with outputs computed from NaN; they now end in one line."""
    ckpt, command = OVERFLOW_CASES[case]
    argv = [a.format(**overflowing_ckpts) for a in command]
    out = workdir / "overflow-out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([argv[0], "--checkpoint", str(overflowing_ckpts[ckpt]),
                     *argv[1:], "--out", str(out)])
    assert code == 1 and not caught, [str(w.message) for w in caught]
    assert capsys.readouterr().err == (
        "error non-finite-energy: an energy is not finite: the weights or "
        "the inputs are too large\n")
    assert not out.exists()


def _set_top(key, value):
    def edit(m):
        m[key] = value
        return m
    return edit


def _set_dataset(key, value):
    def edit(m):
        m["dataset"][key] = value
        return m
    return edit


# Dataset provenance that cmd_train never writes: the eval commands that
# rebuild the training data must reject it.
MALFORMED_PROVENANCE = {
    "string-seed": _set_top("seed", "abc"),
    "negative-seed": _set_top("seed", -3),
    "string-sigma": _set_dataset("sigma", "wide"),
    "list-dataset": _set_top("dataset", [1, 2]),
    "mixture-without-centers": _set_top("dataset", {"kind": "mixture"}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PROVENANCE))
def test_malformed_provenance_reports_contract_error(mixture_ckpt, workdir,
                                                     capsys, case):
    bad = workdir / f"provenance-{case}.ebm"
    bad.write_bytes(with_manifest(mixture_ckpt.read_bytes(),
                                  MALFORMED_PROVENANCE[case]))
    code = main(["eval", "--checkpoint", str(bad), "--metric", "ks-overfit",
                 "--out", str(workdir / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error contract:") and err.count("\n") == 1


MISTYPED_YAML = {
    "string-lr": "train:\n  lr: abc\n",
    "string-widths": "model:\n  widths: ab\n",
    "list-model-section": "model: [1, 2]\n",
    "scalar-clamp": "langevin:\n  clamp: 1\n",
    "string-centers": "dataset:\n  kind: mixture\n  centers: abc\n",
    "nan-noise": "langevin:\n  noise: .nan\n",
    "inf-step-size": "langevin:\n  step_size: .inf\n",
    "inf-grad-clip": "langevin:\n  grad_clip: .inf\n",
    "nan-alpha": "train:\n  alpha: .nan\n",
    "inf-lr": "train:\n  lr: .inf\n",
    "nan-adam-eps": "train:\n  adam_eps: .nan\n",
    "float-steps": "langevin:\n  steps: 2.5\n",
    "float-batch-size": "train:\n  batch_size: 32.7\n",
    "float-power-iters": "model:\n  power_iters: 1.9\n",
    "string-spectral-norm": "model:\n  spectral_norm: \"false\"\n",
    "bool-num-classes": "model:\n  num_classes: true\n",
}


@pytest.mark.parametrize("case", sorted(MISTYPED_YAML))
def test_mistyped_yaml_value_reports_config_error(workdir, capsys, case):
    text = MISTYPED_YAML[case]
    if "dataset:" not in text:
        text += "dataset:\n  kind: mixture\n"
    cfg = workdir / f"mistyped-{case}.yaml"
    cfg.write_text(text)
    code = main(["train", "--config", str(cfg), "--out",
                 str(workdir / "x.bin")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error config:") and err.count("\n") == 1


def test_mistyped_continual_classes_report_config_error(workdir, capsys):
    cfg = workdir / "mistyped-continual.yaml"
    cfg.write_text("model:\n  num_classes: abc\ncontinual: {}\n")
    code = main(["continual", "--config", str(cfg), "--out",
                 str(workdir / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error config:") and err.count("\n") == 1


# Config values that must be non-empty lists, each with the key its error
# names.
UNLISTED_VALUES = {
    "sprites-scalar-shapes": ("train", "dataset:\n  kind: sprites\n"
                              "  shapes: 5\n", "dataset.shapes"),
    "sprites-nested-shapes": ("train", "dataset:\n  kind: sprites\n"
                              "  shapes: [[square]]\n", "dataset.shapes"),
    "sprites-empty-shapes": ("train", "dataset:\n  kind: sprites\n"
                             "  shapes: []\n", "dataset.shapes"),
    "sprites-empty-xs": ("train", "dataset:\n  kind: sprites\n  xs: []\n",
                         "dataset.xs"),
    "sprites-scalar-xs": ("train", "dataset:\n  kind: sprites\n  xs: 0.5\n",
                          "dataset.xs"),
    "sprites-scalar-scales": ("train", "dataset:\n  kind: sprites\n"
                              "  scales: 0.3\n", "dataset.scales"),
    "mixture-string-coordinate": ("train", "dataset:\n  kind: mixture\n"
                                  "  centers: [[0.3, abc]]\n",
                                  "dataset.centers"),
    "mixture-ragged-centers": ("train", "dataset:\n  kind: mixture\n"
                               "  centers: [[0.3, 0.5], [0.7]]\n",
                               "dataset.centers"),
    "mixture-flat-centers": ("train", "dataset:\n  kind: mixture\n"
                             "  centers: [0.3, 0.7]\n", "dataset.centers"),
    "continual-scalar-centers": ("continual", "continual:\n  centers: 7\n",
                                 "continual.centers"),
    "continual-scalar-pairs": ("continual", "continual:\n  pairs: 7\n",
                               "continual.pairs"),
}


@pytest.mark.parametrize("case", sorted(UNLISTED_VALUES))
def test_unlisted_value_reports_config_error(workdir, capsys, case):
    command, text, key = UNLISTED_VALUES[case]
    cfg = workdir / f"unlisted-{case}.yaml"
    cfg.write_text(text)
    out = workdir / f"unlisted-{case}.out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error config: ") and err.count("\n") == 1
    assert key in err and "Traceback" not in err
    assert not out.exists()


# Counts that no data generator can serve, in each section that feeds
# one, with a phrase of their error: fractional counts, an empty training
# split, and an empty test split, which train accepts and attack, the
# command that reads it, rejects.
FRACTIONAL_COUNTS = {
    "mixture-n": ("train", "dataset:\n  kind: mixture\n  n: 2.5\n",
                  "must be an integer"),
    "mixture-n-test": ("train", "dataset:\n  kind: mixture\n  n_test: 3.9\n",
                       "must be an integer"),
    "ring-n": ("train", "dataset:\n  kind: ring\n  n: 2.5\n",
               "must be an integer"),
    "sprites-n-per-combo": ("train", "dataset:\n  kind: sprites\n"
                            "  n_per_combo: 1.5\n", "must be an integer"),
    "trajectories-count": ("train", "dataset:\n  kind: trajectories\n"
                           "  n_trajectories: 2.5\n", "must be an integer"),
    "trajectories-length": ("train", "dataset:\n  kind: trajectories\n"
                            "  length: 2.5\n", "must be an integer"),
    "trajectories-kick-period": ("train", "dataset:\n  kind: trajectories\n"
                                 "  kick_period: 1.5\n",
                                 "must be an integer"),
    "continual-n": ("continual", "continual:\n  n: 2.5\n",
                    "must be an integer"),
    "continual-n-test": ("continual", "continual:\n  n_test: 3.9\n",
                         "must be an integer"),
    "mixture-n-zero": ("train", "dataset:\n  kind: mixture\n  n: 0\n",
                       "train split has no rows"),
    "ring-n-zero": ("train", "dataset:\n  kind: ring\n  n: 0\n",
                    "train split has no rows"),
    "attack-n-test-zero": ("attack", "model:\n  widths: [2, 8, 1]\n"
                           "  num_classes: 2\ntrain:\n  total_steps: 0\n"
                           "dataset:\n  kind: mixture\n"
                           "  centers: [[0.25, 0.5], [0.75, 0.5]]\n"
                           "  n_test: 0\n", "test split has no rows"),
}


@pytest.mark.parametrize("case", sorted(FRACTIONAL_COUNTS))
def test_fractional_count_reports_data_error(workdir, capsys, case):
    command, text, phrase = FRACTIONAL_COUNTS[case]
    if command == "attack":
        source = ["--checkpoint", str(_train(workdir, case, text, seed=0))]
    else:
        cfg = workdir / f"fractional-{case}.yaml"
        cfg.write_text(text)
        source = ["--config", str(cfg)]
    out = workdir / f"fractional-{case}.out"
    assert main([command, *source, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error data:") and err.count("\n") == 1
    assert phrase in err
    assert not out.exists()


BAD_FLAGS = {
    "sample-negative-n": ("mixture", ["sample", "--n", "-1"], "--n"),
    "sample-negative-seed": ("mixture", ["sample", "--seed", "-1"], "--seed"),
    "compose-unparsable-label": ("mixture", ["compose", "--labels", "x"],
                                 "--labels"),
    "attack-negative-n": ("cond", ["attack", "--n", "-1"], "--n"),
    "attack-zero-n": ("cond", ["attack", "--n", "0"], "--n"),
    "attack-unparsable-eps": ("cond", ["attack", "--eps", "a,b"], "--eps"),
    "attack-empty-eps": ("cond", ["attack", "--eps", ""], "--eps"),
    "attack-comma-eps": ("cond", ["attack", "--eps", ","], "--eps"),
    "coverage-negative-n": ("cond", ["eval", "--metric", "mode-coverage",
                                     "--n", "-5"], "--n"),
    "rollout-zero-horizon": ("cond", ["eval", "--metric", "frechet-rollout",
                                      "--horizon", "0"], "--horizon"),
    "attack-negative-steps": ("cond", ["attack", "--steps", "-1"], "--steps"),
    "attack-negative-refine-steps": ("cond", ["attack", "--refine",
                                              "--refine-steps", "-1"],
                                     "--refine-steps"),
    **{f"logz-quad-resolution-{value}": (
        "mixture", ["eval", "--metric", "logz-bracket",
                    "--quad-resolution", value], "--quad-resolution")
       for value in ("0", "-0.01", "nan", "inf")},
    # past the quadrature's cell cap; a 2049 x 2049 grid is just past it
    **{f"logz-quad-resolution-{value}": (
        "mixture", ["eval", "--metric", "logz-bracket",
                    "--quad-resolution", value], "resolution")
       for value in ("1e-300", str(1.0 / 2049))},
    # non-finite chain and MALA values are rejected by the configs, whose
    # messages name the field
    **{f"sample-noise-{value}": ("mixture", ["sample", "--noise", value],
                                 "noise")
       for value in ("nan", "inf")},
    "compose-noise-nan": ("mixture", ["compose", "--labels", "none",
                                      "--noise", "nan"], "noise"),
    "sample-step-size-inf": ("mixture", ["sample", "--step-size", "inf"],
                             "step_size"),
    "logz-mala-step-inf": ("mixture", ["eval", "--metric", "logz-bracket",
                                       "--mala-step", "inf"], "step_size"),
    "sample-grad-clip-inf": ("mixture", ["sample", "--grad-clip", "inf"],
                             "grad_clip"),
    "coverage-radius-inf": ("mixture", ["eval", "--metric", "mode-coverage",
                                        "--radius", "inf"], "--radius"),
    "attack-eps-inf": ("cond", ["attack", "--eps", "inf"], "--eps"),
}


@pytest.mark.parametrize("case", sorted(BAD_FLAGS))
def test_bad_flag_reports_config_error(mixture_ckpt, cond_ckpt, workdir,
                                       capsys, case):
    which, argv, flag = BAD_FLAGS[case]
    ckpt = mixture_ckpt if which == "mixture" else cond_ckpt
    key = "--checkpoints" if argv[0] == "compose" else "--checkpoint"
    out = workdir / f"flag-{case}.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv[:1] + [key, str(ckpt), "--out", str(out)] + argv[1:])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error config:") and err.count("\n") == 1
    assert flag in err
    assert not out.exists()
    assert not caught, [str(w.message) for w in caught]


# Command lines the parser cannot read, on a checkpoint that does not
# exist: the parser's report comes first, as one config error line.
UNREADABLE_ARGV = {
    "word-for-count": ["--n", "abc"],
    "unknown-flag": ["--bogus", "1"],
    "missing-out": None,
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_ARGV))
def test_unreadable_command_line_reports_config_error(workdir, capsys, case):
    out = workdir / f"argv-{case}.csv"
    tail = UNREADABLE_ARGV[case]
    argv = ["sample", "--checkpoint", str(workdir / "absent.bin")]
    if tail is not None:
        argv += tail + ["--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error config:") and err.count("\n") == 1
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["sample", "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ebmkit sample")


# Each command that reads a matrix file, given an empty one at the flag;
# the cases suffixed with a value give a file that holds that value.
EMPTY_MATRIX_ARGV = {
    "init-file": ["sample", "--init-file", "{empty}"],
    "data-file": ["eval", "--metric", "logz-bracket", "--chains", "2",
                  "--temps", "2", "--data-file", "{empty}"],
    "inliers": ["eval", "--metric", "ood-auroc", "--inliers", "{empty}",
                "--outliers", "{point}"],
    "outliers": ["eval", "--metric", "ood-auroc", "--inliers", "{point}",
                 "--outliers", "{empty}"],
    "mask": ["inpaint", "--input", "{point}", "--mask", "{empty}"],
}
NON_FINITE_MATRIX = {"nan": "0.5,nan\n", "inf": "inf,0.5\n",
                     "neginf": "0.5,0.5\n-inf,0.5\n"}
EMPTY_MATRIX_ARGV.update(
    {f"{case}-{value}": [a.replace("{empty}", "{%s}" % value) for a in argv]
     for case, argv in list(EMPTY_MATRIX_ARGV.items())
     for value in NON_FINITE_MATRIX})
EMPTY_MATRIX_ARGV.update(
    {f"input-{value}": ["inpaint", "--input", "{%s}" % value,
                        "--mask", "{mask}"]
     for value in ["empty", *NON_FINITE_MATRIX]})


@pytest.mark.parametrize("case", sorted(EMPTY_MATRIX_ARGV))
def test_empty_matrix_file_reports_contract_error(mixture_ckpt, workdir,
                                                  capsys, case):
    files = {name: workdir / f"{name}.csv"
             for name in ["empty", "point", "mask", *NON_FINITE_MATRIX]}
    files["empty"].write_text("")
    files["point"].write_text("0.5,0.5\n")
    files["mask"].write_text("1,0\n")
    for value, text in NON_FINITE_MATRIX.items():
        files[value].write_text(text)
    command, *rest = EMPTY_MATRIX_ARGV[case]
    out = workdir / f"empty-{case}.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--checkpoint", str(mixture_ckpt),
                     "--out", str(out)] + [a.format(**files) for a in rest])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error contract:") and err.count("\n") == 1
    assert not out.exists()
    assert not caught, [str(w.message) for w in caught]


# ---------------------------------------------------------------------------
# numeric flag fuzz: every numeric flag build_parser() declares, on tiny
# checkpoints, with small and non-finite values

FUZZ_VALUES = {"int": ("-1", "0", "1", "2"),
               "float": ("-1", "0", "1e-3", "nan", "inf", "-inf")}

# command lines without --out; {name} is a file of the fuzz_inputs fixture
FUZZ_COMMANDS = {
    "train": ["train", "--config", "{train}"],
    "sample": ["sample", "--checkpoint", "{cond}", "--label", "1",
               "--n", "2", "--steps", "2"],
    "inpaint": ["inpaint", "--checkpoint", "{mix}", "--input", "{points}",
                "--mask", "{mask}", "--steps", "2"],
    "compose": ["compose", "--checkpoints", "{mix}", "{cond}", "--labels",
                "none", "0", "--n", "2", "--steps", "2"],
    "logz": ["eval", "--checkpoint", "{mix}", "--metric", "logz-bracket",
             "--chains", "2", "--temps", "3"],
    "coverage": ["eval", "--checkpoint", "{mix}", "--metric",
                 "mode-coverage", "--n", "4"],
    "rollout": ["eval", "--checkpoint", "{traj}", "--metric",
                "frechet-rollout", "--horizon", "2", "--steps", "2"],
    "continual": ["continual", "--config", "{continual}"],
    "attack": ["attack", "--checkpoint", "{cond}", "--refine", "--eps",
               "0,0.1", "--n", "4", "--steps", "1", "--refine-steps", "1"],
}


def _numeric_flags(command):
    """(flag, kind name) of each numeric flag of a subcommand."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(a.option_strings[0], a.type.__name__)
            for a in sub.choices[command]._actions
            if getattr(a.type, "__name__", None) in FUZZ_VALUES]


FUZZ_CASES = [(name, flag, value)
              for name, argv in FUZZ_COMMANDS.items()
              for flag, kind in _numeric_flags(argv[0])
              for value in FUZZ_VALUES[kind]]


@pytest.fixture(scope="module")
def fuzz_inputs(workdir):
    tiny = ("model:\n  widths: [{d}, 4, 1]\n  num_classes: {k}\n"
            "train:\n  total_steps: 2\n  batch_size: 4\n"
            "langevin:\n  steps: 2\n")
    files = {"mix": _train(workdir, "fuzz-mix", tiny.format(d=1, k=0) +
                           "dataset:\n  kind: mixture\n  centers: [[0.5]]\n",
                           seed=1),
             "cond": _train(workdir, "fuzz-cond", tiny.format(d=1, k=2) +
                            "dataset:\n  kind: mixture\n"
                            "  centers: [[0.25], [0.75]]\n", seed=2),
             "traj": _train(workdir, "fuzz-traj", tiny.format(d=5, k=0) +
                            "dataset:\n  kind: trajectories\n"
                            "  n_trajectories: 30\n  length: 5\n", seed=3)}
    texts = {"train": tiny.format(d=1, k=0) + "dataset:\n  kind: mixture\n"
                      "  centers: [[0.5]]\n  n: 8\n  n_test: 4\n",
             "continual": tiny.format(d=2, k=0) + "continual:\n  n: 40\n"
                          "  n_test: 20\n  steps_per_task: 1\n",
             "points": "0.2\n0.7\n", "mask": "1\n"}
    for name, text in texts.items():
        files[name] = workdir / f"fuzz-{name}.in"
        files[name].write_text(text)
    return {name: str(path) for name, path in files.items()}


def _assert_finite_rows(text, command):
    rows = text.splitlines()
    if command not in ("sample", "inpaint", "compose"):
        rows = rows[1:]                     # a header row
    for row in rows:
        cells = row.split(",")
        if command == "eval":
            cells = cells[-1:]              # metric,config hash,value
        assert np.all(np.isfinite([float(c) for c in cells])), row


def _keeps_the_contract(argv, out):
    """Run argv with --out out. It must exit 0 with finite outputs, or
    print exactly one "error <category>:" line, exit 1 and write no
    output; no Python warning either way. Returns the exit code."""
    written = [out, out.parent / f"{out.name}.metrics.csv"]
    for path in written:
        path.unlink(missing_ok=True)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv + ["--out", str(out)])
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert err.getvalue() == ""
        _assert_finite_rows(written[argv[0] == "train"].read_text(), argv[0])
    else:
        assert code == 1
        assert re.fullmatch(r"error [a-z-]+: [^\n]*\n", err.getvalue())
        assert not any(path.exists() for path in written)
    return code


@settings(max_examples=60, deadline=None, database=None)
@given(case=st.sampled_from(FUZZ_CASES))
def test_numeric_flag_fuzz_keeps_the_cli_contract(fuzz_inputs, workdir, case):
    name, flag, value = case
    argv = [a.format(**fuzz_inputs) for a in FUZZ_COMMANDS[name]]
    _keeps_the_contract(argv + [f"{flag}={value}"], workdir / "fuzz-out")


# Each YAML fuzz case sets one key path of the defaults to one of these.
# Large counts (say n: 1000000000) are left out on purpose: the data
# generators would try to allocate that many rows, and the config does not
# bound counts. For the same reason {} is not given to a section: it puts
# back the default sizes (2000 training steps) of a full run.
YAML_FUZZ_VALUES = (None, "abc", [], {}, [1], -1, 0, 0.5, True, 3,
                    [[0.5, 0.5]], [0, 1])

# Tiny runs for each command the fuzz covers. train runs on every dataset
# kind, with the input width of its data.
_TINY_RUN = {"train": {"total_steps": 2, "batch_size": 4},
             "langevin": {"steps": 2}}
_TINY_DATA = {"mixture": (2, {"n": 8, "n_test": 4}),
              "ring": (2, {"n": 8, "n_test": 4}),
              "sprites": (256, {"n_per_combo": 2}),
              "trajectories": (5, {"n_trajectories": 30, "length": 5})}
_TINY_CONTINUAL = {"model": {"widths": [2, 4, 1]}, **_TINY_RUN,
                   "continual": {"n": 40, "n_test": 20, "steps_per_task": 1}}
_TINY_FINETUNE = {"finetune": {"epochs": 1, "batch_size": 4,
                               "combos": [[0, 1]], "chain": {"steps": 2}}}

# The commands that rebuild data from a trained checkpoint's provenance.
_CHECKPOINT_EVALS = (
    ["--metric", "ks-overfit"],
    ["--metric", "mode-coverage", "--n", "4"],
    ["--metric", "frechet-rollout", "--horizon", "2", "--steps", "2"])


def _fuzzed(tree, prefix=()):
    """(key path, value) of each fuzz case under a tree of defaults."""
    for key, default in tree.items():
        path = prefix + (key,)
        for value in YAML_FUZZ_VALUES:
            if not (isinstance(default, dict) and value == {}):
                yield path, value
        if isinstance(default, dict):
            yield from _fuzzed(default, path)


def _tiny_train(kind):
    d, data = _TINY_DATA[kind]
    return {"model": {"widths": [d, 4, 1]}, **_TINY_RUN,
            "dataset": {"kind": kind, **data}}


def _with_value(config, path, value):
    config = copy.deepcopy(config)
    node = config
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return config


_TRAIN_SECTIONS = {name: DEFAULTS[name]
                   for name in ("model", "train", "langevin")}
YAML_FUZZ_CASES = (
    [("train", _with_value(_tiny_train(kind), path, value))
     for kind in _TINY_DATA
     for path, value in _fuzzed({**_TRAIN_SECTIONS,
                                 "dataset": DATASET_DEFAULTS[kind]})]
    + [("continual", _with_value(_TINY_CONTINUAL, path, value))
       for path, value in _fuzzed({**_TRAIN_SECTIONS,
                                   "continual": DEFAULTS["continual"]})]
    + [("compose", _with_value(_TINY_FINETUNE, path, value))
       for path, value in _fuzzed({"finetune": DEFAULTS["finetune"]})])


@settings(max_examples=100, deadline=None, database=None)
@seed(14)
@given(case=st.sampled_from(YAML_FUZZ_CASES))
def test_yaml_key_path_fuzz_keeps_the_cli_contract(fuzz_inputs, workdir,
                                                   case):
    """train, continual and compose --finetune-config, then the
    evaluations that rebuild data from each checkpoint that trained."""
    command, config = case
    cfg = workdir / "yaml-fuzz.yaml"
    cfg.write_text(yaml.safe_dump(config))
    out = workdir / "yaml-fuzz.out"
    if command == "compose":
        argv = ["compose", "--checkpoints", fuzz_inputs["cond"],
                fuzz_inputs["cond"], "--labels", "0", "1",
                "--finetune-config", str(cfg), "--n", "2", "--steps", "2"]
    else:
        argv = [command, "--config", str(cfg)]
    if _keeps_the_contract(argv, out) == 0 and command == "train":
        ckpt = workdir / "yaml-fuzz.ckpt"
        out.replace(ckpt)
        for flags in _CHECKPOINT_EVALS:
            _keeps_the_contract(["eval", "--checkpoint", str(ckpt), *flags],
                                workdir / "yaml-fuzz-eval.csv")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are glibc's")
def test_wide_temporaries_reuse_heap_pages():
    """After the CLI's allocator set-up, bursts of 256 KiB temporaries
    reuse resident heap pages. Without it glibc hands the freed burst
    back to the kernel and faults it in again: about 24k faults over
    these 50 bursts."""
    def burst():
        return [np.ones((512, 64)) for _ in range(8)]

    _keep_large_arrays_on_heap()
    burst()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        burst()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


def test_cli_imports_every_module():
    """Each module of the package is reached from the command line, so a
    module that no command uses cannot linger unnoticed."""
    package = Path(ebmkit.__file__).parent
    expected = {f"ebmkit.{p.stem}" for p in package.glob("*.py")
                if p.stem != "__init__"}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ebmkit.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, check=True)
    assert expected - set(proc.stdout.split()) == set()


def test_malformed_yaml_reports_config_error(workdir, capsys):
    cfg = workdir / "mangled.yaml"
    cfg.write_text("train: [unclosed\n")
    code = main(["train", "--config", str(cfg), "--out",
                 str(workdir / "x.bin")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error config:")


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.skipif(not PYPROJECT.is_file(), reason="no pyproject.toml")
def test_console_script_is_installed(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["ebmkit"]
    module, _, attr = spec.partition(":")
    assert module and attr, spec
    # The wrapper an installer writes for a console_scripts entry point.
    bindir = tmp_path / "bin"
    bindir.mkdir()
    script = bindir / "ebmkit"
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      f"from {module} import {attr}\n"
                      f"sys.exit({attr}())\n")
    script.chmod(0o755)
    env = dict(os.environ)
    for var, first in (("PATH", bindir),
                       ("PYTHONPATH", Path(ebmkit.__file__).parents[1])):
        env[var] = os.pathsep.join(filter(None, [str(first), env.get(var)]))
    proc = subprocess.run(["ebmkit", "--help"], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ebmkit")
    assert "train" in proc.stdout


@pytest.mark.skipif(shutil.which("ebmkit") is None,
                    reason="ebmkit console script not installed on PATH")
def test_installed_console_script_on_path():
    proc = subprocess.run(["ebmkit", "--help"], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert "train" in proc.stdout
