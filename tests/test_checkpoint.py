"""Tests for binary checkpoint serialization."""

import dataclasses
import functools
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebmkit.checkpoint import (FORMAT_VERSION, MAGIC, CheckpointBundle,
                               load_checkpoint, save_checkpoint, write_atomic)
from ebmkit.errors import ContractError
from ebmkit.model import ACTIVATIONS, EnergyNet, ModelConfig
from ebmkit.sampler import ReplayBuffer
from ebmkit.trainer import TrainConfig

from helpers import MALFORMED_MANIFESTS, save_stateful_checkpoint, with_manifest


def _net(seed, widths=(3, 8, 8, 1), num_classes=0, spectral_norm=True):
    cfg = ModelConfig(widths=widths, num_classes=num_classes,
                      spectral_norm=spectral_norm)
    return EnergyNet.init(cfg, np.random.default_rng(seed))


def _assert_same_net(a, b):
    assert a.config == b.config
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.w, lb.w)
        assert np.array_equal(la.b, lb.b)
        for field in ("gamma", "beta", "u"):
            fa, fb = getattr(la, field), getattr(lb, field)
            assert (fa is None) == (fb is None)
            if fa is not None:
                assert np.array_equal(fa, fb)


@pytest.mark.parametrize("num_classes,spectral_norm", [
    (0, False), (0, True), (4, False), (4, True)])
def test_parameters_round_trip_bit_exact(tmp_path, num_classes, spectral_norm):
    net = _net(1, num_classes=num_classes, spectral_norm=spectral_norm)
    path = tmp_path / "model.ebm"
    save_checkpoint(path, net)
    bundle = load_checkpoint(path)
    _assert_same_net(net, bundle.net)
    x = np.random.default_rng(2).uniform(size=(16, 3))
    labels = (np.zeros(16, dtype=np.intp) if num_classes else None)
    assert np.array_equal(net.energy(x, labels=labels),
                          bundle.net.energy(x, labels=labels))


def test_save_load_save_is_byte_identical(tmp_path):
    net = _net(3, num_classes=2)
    rng = np.random.default_rng(4)
    buffer = ReplayBuffer(capacity=50, uniform_prob=0.1)
    buffer.insert(rng.uniform(size=(30, 3)))
    train = TrainConfig(lr=3e-4, batch_size=16)
    dataset = {"kind": "mixture", "centers": [[0.3, 0.3, 0.3]],
               "sigma": 0.05, "n": 64}

    first = tmp_path / "a.ebm"
    second = tmp_path / "b.ebm"
    save_checkpoint(first, net, train=train, dataset=dataset, seed=9,
                    step_count=17, buffer=buffer)
    bundle = load_checkpoint(first)
    save_checkpoint(second, bundle.net, train=bundle.manifest["train"],
                    dataset=bundle.manifest["dataset"],
                    seed=bundle.manifest["seed"],
                    step_count=bundle.manifest["step_count"],
                    buffer=bundle.buffer)
    assert first.read_bytes() == second.read_bytes()


def test_buffer_state_survives(tmp_path):
    net = _net(5, num_classes=3)
    rng = np.random.default_rng(6)
    buffer = ReplayBuffer(capacity=20, uniform_prob=0.25)
    # overfill so the FIFO wraps and order matters
    buffer.insert(rng.uniform(size=(15, 3)))
    buffer.insert(rng.uniform(size=(12, 3)))

    path = tmp_path / "full.ebm"
    save_checkpoint(path, net, buffer=buffer, step_count=5)
    bundle = load_checkpoint(path)

    assert np.array_equal(buffer.snapshot(), bundle.buffer.snapshot())
    assert bundle.buffer.capacity == 20
    assert bundle.buffer.uniform_prob == 0.25


def test_unlabeled_and_empty_buffers_round_trip(tmp_path):
    net = _net(7)
    unlabeled = ReplayBuffer(capacity=10)
    unlabeled.insert(np.random.default_rng(8).uniform(size=(4, 3)))
    empty = ReplayBuffer(capacity=10)
    for tag, buffer in [("u", unlabeled), ("e", empty)]:
        path = tmp_path / f"{tag}.ebm"
        save_checkpoint(path, net, buffer=buffer)
        got = load_checkpoint(path).buffer
        assert len(got) == len(buffer)
        assert got.dim == buffer.dim
        if len(buffer):
            assert np.array_equal(got.snapshot(), buffer.snapshot())


def test_manifest_carries_run_facts(tmp_path):
    net = _net(9)
    path = tmp_path / "m.ebm"
    dataset = {"kind": "ring", "radius": 0.3, "thickness": 0.02, "n": 100}
    save_checkpoint(path, net, dataset=dataset, seed=42, step_count=250)
    manifest = load_checkpoint(path).manifest
    assert manifest["dataset"] == dataset
    assert manifest["seed"] == 42
    assert manifest["step_count"] == 250
    assert manifest["model"]["widths"] == [3, 8, 8, 1]
    assert manifest["buffer"] is None


def test_rejects_malformed_files(tmp_path):
    net = _net(10)
    path = tmp_path / "ok.ebm"
    save_checkpoint(path, net)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.ebm"
    bad_magic.write_bytes(b"XBM1" + bytes(raw[4:]))
    with pytest.raises(ContractError):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "version.ebm"
    bad_version.write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION + 1)
                            + bytes(raw[8:]))
    with pytest.raises(ContractError):
        load_checkpoint(bad_version)

    # version 1 stored a label per replay-buffer row, version 2 the Adam
    # moments
    for old in (1, 2):
        older = tmp_path / f"version-{old}.ebm"
        older.write_bytes(MAGIC + struct.pack("<I", old) + bytes(raw[8:]))
        with pytest.raises(ContractError, match=f"format version {old}$"):
            load_checkpoint(older)

    truncated = tmp_path / "short.ebm"
    truncated.write_bytes(bytes(raw[:len(raw) - 5]))
    with pytest.raises(ContractError):
        load_checkpoint(truncated)

    trailing = tmp_path / "long.ebm"
    trailing.write_bytes(bytes(raw) + b"\x00")
    with pytest.raises(ContractError):
        load_checkpoint(trailing)

    header_only = tmp_path / "header.ebm"
    header_only.write_bytes(bytes(raw[:8]))
    with pytest.raises(ContractError):
        load_checkpoint(header_only)


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_is_a_contract_error(tmp_path, case):
    path = tmp_path / "ok.ebm"
    save_stateful_checkpoint(path)
    load_checkpoint(path)
    bad = tmp_path / "bad.ebm"
    bad.write_bytes(with_manifest(path.read_bytes(), MALFORMED_MANIFESTS[case]))
    with pytest.raises(ContractError, match="malformed checkpoint manifest"):
        load_checkpoint(bad)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.bin"
    write_atomic(target, b"payload")
    assert target.read_bytes() == b"payload"
    write_atomic(target, b"replaced")
    assert target.read_bytes() == b"replaced"
    assert os.listdir(tmp_path) == ["out.bin"]


# -- property tests ---------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
    | st.text(max_size=4) | st.lists(st.integers(-1, 6), max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=5)

MANIFEST_FIELDS = (
    [(section, None) for section in ("model", "buffer")]
    + [("model", f.name) for f in dataclasses.fields(ModelConfig)]
    + [("buffer", key) for key in ("count", "dim", "capacity",
                                   "uniform_prob")])


@functools.cache
def _stateful_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        save_stateful_checkpoint(Path(tmp) / "s.ebm")
        return (Path(tmp) / "s.ebm").read_bytes()


def _loads_or_contract_error(data):
    """load_checkpoint on data written to a file: a bundle, or None when
    it raises ContractError; any other exception propagates."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.ebm"
        path.write_bytes(data)
        try:
            bundle = load_checkpoint(path)
        except ContractError:
            return None
    assert isinstance(bundle, CheckpointBundle)
    return bundle


def test_manifest_fields_cover_the_saved_manifest():
    raw = _stateful_bytes()
    manifest = json.loads(raw[12:12 + struct.unpack("<I", raw[8:12])[0]])
    for section in ("model", "buffer"):
        assert ({key for sec, key in MANIFEST_FIELDS if sec == section}
                == {None, *manifest[section]})


@settings(max_examples=200, deadline=None, database=None)
@given(field=st.sampled_from(MANIFEST_FIELDS), delete=st.booleans(),
       value=JSON_VALUES)
def test_fuzzed_manifest_field_loads_or_is_a_contract_error(field, delete,
                                                            value):
    """Any one manifest field replaced by any JSON value, or deleted,
    gives a valid bundle or a ContractError, never another exception."""
    section, key = field

    def edit(m):
        target, name = (m, section) if key is None else (m[section], key)
        if delete:
            del target[name]
        else:
            target[name] = value
        return m

    _loads_or_contract_error(with_manifest(_stateful_bytes(), edit))


@settings(max_examples=200, deadline=None, database=None)
@given(edits=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                st.integers(0, 255)), min_size=1, max_size=4),
       keep=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_fuzzed_bytes_load_or_are_a_contract_error(edits, keep):
    """Overwritten bytes anywhere in the file (positions as fractions of
    its length), optionally followed by a truncation, give a valid bundle
    or a ContractError."""
    raw = bytearray(_stateful_bytes())
    for where, byte in edits:
        raw[int(where * len(raw))] = byte
    cut = None if keep is None else int(keep * len(raw))
    _loads_or_contract_error(bytes(raw[:cut]))


@settings(max_examples=40, deadline=None, database=None)
@given(hidden=st.lists(st.integers(1, 5), max_size=3),
       input_dim=st.integers(1, 4),
       activation=st.sampled_from(ACTIVATIONS),
       num_classes=st.sampled_from((0, 2)), spectral=st.booleans(),
       power_iters=st.integers(1, 3),
       capacity=st.one_of(st.none(), st.integers(1, 6)),
       rows=st.lists(st.integers(0, 5), max_size=3),
       uniform_prob=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 16))
# an empty buffer that has seen an empty batch keeps its dimension; one
# that has seen none records dimension 0
@example(hidden=[3], input_dim=2, activation="swish", num_classes=2,
         spectral=True, power_iters=1, capacity=1, rows=[0],
         uniform_prob=0.5, seed=0)
@example(hidden=[3], input_dim=2, activation="swish", num_classes=0,
         spectral=False, power_iters=1, capacity=3, rows=[0],
         uniform_prob=0.5, seed=0)
@example(hidden=[3], input_dim=2, activation="swish", num_classes=2,
         spectral=False, power_iters=1, capacity=3, rows=[],
         uniform_prob=0.5, seed=0)
def test_save_load_save_is_byte_identical_for_random_states(
        hidden, input_dim, activation, num_classes, spectral, power_iters,
        capacity, rows, uniform_prob, seed):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(widths=(input_dim, *hidden, 1), activation=activation,
                      num_classes=num_classes, spectral_norm=spectral,
                      power_iters=power_iters)
    net = EnergyNet.init(cfg, rng)
    buffer = None
    if capacity is not None:
        buffer = ReplayBuffer(capacity=capacity, uniform_prob=uniform_prob)
        for n in rows:
            buffer.insert(rng.uniform(size=(n, input_dim)))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.ebm", Path(tmp) / "b.ebm"
        save_checkpoint(first, net, seed=seed, step_count=seed % 7,
                        buffer=buffer)
        bundle = load_checkpoint(first)
        save_checkpoint(second, bundle.net, seed=bundle.manifest["seed"],
                        step_count=bundle.manifest["step_count"],
                        buffer=bundle.buffer)
        assert first.read_bytes() == second.read_bytes()
