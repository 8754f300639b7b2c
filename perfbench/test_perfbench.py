"""Tests of the benchmark itself, at a size that runs in seconds.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout()

import ebmkit.model  # noqa: E402
import ebmkit.sampler  # noqa: E402
from tracer import TARGETS  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads(run.SPEC_PATH.read_text())
NAMES = sorted(WORKLOADS)


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _tiny(name, trace, seed=5):
    result, _ = run.run(name, seed, 0, trace, size=TINY)
    assert result["correct"], result
    assert result["failed"] == 0
    return result


def _is_work_count(name):
    return (name.endswith((".calls", ".rows")) or name in (
        "autodiff.tape_nodes", "model.grad_x.mflop"))


def test_spec_names_the_workloads_in_the_benchmark():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES
    assert {"wall_s", "setup_s", "peak_rss_mb", "pass_frac"} == set(
        _units("end_to_end"))


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_every_end_to_end_metric(name):
    metrics = _tiny(name, trace=0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_emits_every_layer_metric(name):
    metrics = _tiny(name, trace=1)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    assert metrics["model.grad_x.calls"]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_spans_and_cli_self_time_account_for_traced_wall(name):
    metrics = _tiny(name, trace=1)["metrics"]
    self_ms = sum(v["value"] for k, v in metrics.items()
                  if k.endswith(".self_ms") and not k.startswith("setup."))
    assert self_ms == pytest.approx(metrics["trace.wall_ms"]["value"],
                                    rel=1e-9)


@pytest.mark.parametrize("name", NAMES)
def test_work_counts_repeat_exactly_for_the_same_seed(name):
    first, second = (_tiny(name, trace=1)["metrics"] for _ in range(2))
    counts = [k for k in first if _is_work_count(k)]
    assert "model.grad_x.mflop" in counts and "autodiff.tape_nodes" in counts
    assert {k: first[k]["value"] for k in counts} == {
        k: second[k]["value"] for k in counts}


def _bound_names():
    """Every (holder, attribute) a tracer could patch, with its object."""
    holders = [ebmkit.model.EnergyNet, ebmkit.sampler.ReplayBuffer] + [
        m for n, m in sorted(sys.modules.items()) if n.startswith("ebmkit")]
    attrs = {attr for _, _, attr in TARGETS}
    return {(holder, attr): getattr(holder, attr)
            for holder in holders for attr in attrs if hasattr(holder, attr)}


def test_traced_run_removes_its_wrappers():
    before = _bound_names()
    _tiny("train-mixture", trace=1)
    after = _bound_names()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_inputs_follow_the_seed(tmp_path):
    workload = WORKLOADS["compose-finetune"]
    for seed in (1, 1, 2):
        inp = tmp_path / f"inputs{len(list(tmp_path.iterdir()))}"
        inp.mkdir()
        workload.setup(inp, seed, TINY)
    d0, d1, d2 = (run._digest(tmp_path / f"inputs{i}") for i in range(3))
    assert d0 == d1 != d2


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark files must exit nonzero and
    print no result."""
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-mixture",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
