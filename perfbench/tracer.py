"""Outside-in tracing of the ebmkit layers.

A Tracer replaces public functions and methods of the ebmkit modules with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. Wrappers go wherever a caller looks the name
up: every ebmkit module that holds the function (so ``from ... import``
copies such as ``ebmkit.cli.train_step`` are covered), module attributes
such as ``ebmkit.autodiff.gradient``, and methods on ``EnergyNet`` and
``ReplayBuffer``. Work counts (rows, tape nodes, clipped gradient
components, bytes written) are taken at the same boundaries.

Spans stay in memory; ``summary`` derives per-layer calls and self time
(a span's duration minus the time covered by its child spans) once the
traced work is over. The program's own code is not modified.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

import numpy as np

import ebmkit.autodiff
import ebmkit.checkpoint
import ebmkit.cli
import ebmkit.compose
import ebmkit.datagen
import ebmkit.metrics
import ebmkit.model
import ebmkit.sampler
import ebmkit.trainer

EnergyNet = ebmkit.model.EnergyNet
ReplayBuffer = ebmkit.sampler.ReplayBuffer

# (span name, owner, attribute). Owners that are modules name the
# function's home module; every ebmkit module holding the same object is
# patched too. Owners that are classes get their method replaced.
TARGETS = [
    ("model.grad_x", EnergyNet, "grad_x"),
    ("model.energy", EnergyNet, "energy"),
    ("model.taped_energy", EnergyNet, "taped_energy"),
    ("model.spectral_update", EnergyNet, "spectral_update"),
    ("sampler.run_chain", ebmkit.sampler, "run_chain"),
    ("sampler.langevin_step", ebmkit.sampler, "langevin_step"),
    ("sampler.init_batch", ebmkit.sampler, "init_batch"),
    ("sampler.buffer_insert", ReplayBuffer, "insert"),
    ("autodiff.gradient", ebmkit.autodiff, "gradient"),
    ("trainer.train_step", ebmkit.trainer, "train_step"),
    ("trainer.adam_step", ebmkit.trainer, "adam_step"),
    ("trainer.kl_finetune_step", ebmkit.trainer, "kl_finetune_step"),
    ("metrics.ais_logZ", ebmkit.metrics, "ais_logZ"),
    ("metrics.raise_logZ", ebmkit.metrics, "raise_logZ"),
    ("metrics.quadrature", ebmkit.metrics, "log_partition_quadrature"),
    ("metrics.pgd_attack", ebmkit.metrics, "pgd_attack"),
    ("metrics.refined_classify", ebmkit.metrics, "refined_classify"),
    ("compose.finetune_combination", ebmkit.compose, "finetune_combination"),
    ("compose.joint_sample", ebmkit.compose, "joint_sample"),
    ("checkpoint.save", ebmkit.checkpoint, "save_checkpoint"),
    ("checkpoint.load", ebmkit.checkpoint, "load_checkpoint"),
    ("datagen", ebmkit.datagen, "gaussian_mixture"),
    ("datagen", ebmkit.datagen, "ring2d"),
    ("datagen", ebmkit.datagen, "mini_sprites"),
    ("datagen", ebmkit.datagen, "split_tasks"),
    ("datagen", ebmkit.datagen, "trajectory_sim"),
]


# Counts reported under their own names; the rest are derived in run.py.
COUNTED = ("model.grad_x.rows", "model.energy.rows", "autodiff.tape_nodes",
           "checkpoint.save.bytes")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _flop_per_row(net):
    """Multiply-adds of one grad_x row, forward and backward, as flops:
    4 * sum of fan_in * fan_out over the layers."""
    w = net.config.widths
    return 4 * sum(a * b for a, b in zip(w[:-1], w[1:]))


class _ClipProbe:
    """Stands in for the energy model passed to one Langevin step and
    counts the gradient components that the step will clip."""

    def __init__(self, net, clip, counts):
        self._net = net
        self._clip = clip
        self._counts = counts

    def grad_x(self, x, labels=None):
        g = self._net.grad_x(x, labels)
        self._counts["sampler.clip.hits"] += int(
            np.count_nonzero(np.abs(g) >= self._clip))
        self._counts["sampler.clip.components"] += int(g.size)
        return g

    def __getattr__(self, name):
        return getattr(self._net, name)


class Tracer:
    """Span and count recorder; ``install`` adds the wrappers and
    ``remove`` puts every original back."""

    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent index]
        self.counts = Counter()
        self._open = []
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _before(self, name, args, kwargs):
        """Counts taken as a call starts; may substitute arguments."""
        c = self.counts
        if name == "model.grad_x":
            rows = np.shape(_arg(args, kwargs, 1, "x"))[0]
            c["model.grad_x.rows"] += rows
            c["model.grad_x.flop"] += rows * _flop_per_row(args[0])
        elif name == "model.energy":
            c["model.energy.rows"] += np.shape(_arg(args, kwargs, 1, "x"))[0]
        elif name == "autodiff.gradient":
            tape = _arg(args, kwargs, 0, "output").tape
            c["autodiff.tape_nodes"] += len(tape)
        elif name == "sampler.langevin_step":
            clip = _arg(args, kwargs, 2, "cfg").grad_clip
            if len(args) > 1:
                args = (args[0], _ClipProbe(args[1], clip, c)) + args[2:]
            else:
                kwargs = dict(kwargs, net=_ClipProbe(kwargs["net"], clip, c))
        return args, kwargs

    def _after(self, name, args, kwargs):
        if name == "checkpoint.save":
            self.counts["checkpoint.save.bytes"] += os.path.getsize(
                _arg(args, kwargs, 0, "path"))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args, kwargs = self._before(name, args, kwargs)
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            self._after(name, args, kwargs)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ebmkit" or n.startswith("ebmkit.")]
        for name, owner, attr in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if vars(m).get(attr) is original]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def remove(self):
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.remove()
        return False

    # -- results ------------------------------------------------------------

    def summary(self):
        """({span name: {"calls": n, "self_ms": ms}}, total duration of
        the top-level spans in ms)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per = {}
        top_ns = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = per.setdefault(name, {"calls": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[i]
            if parent < 0:
                top_ns += end - start
        layers = {name: {"calls": e["calls"], "self_ms": e["self_ns"] / 1e6}
                  for name, e in per.items()}
        return layers, top_ns / 1e6
