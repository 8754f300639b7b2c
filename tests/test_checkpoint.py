"""Tests for binary checkpoint serialization."""

import os
import struct

import numpy as np
import pytest

from ebmkit.checkpoint import (FORMAT_VERSION, MAGIC, load_checkpoint,
                               save_checkpoint, write_atomic)
from ebmkit.errors import ContractError
from ebmkit.model import EnergyNet, ModelConfig
from ebmkit.sampler import ReplayBuffer
from ebmkit.trainer import AdamState, TrainConfig

from helpers import MALFORMED_MANIFESTS, with_manifest


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
    adam = AdamState.for_parameters(net.parameters())
    rng = np.random.default_rng(4)
    for name in adam.m:
        adam.m[name] = rng.normal(size=adam.m[name].shape)
        adam.v[name] = rng.uniform(size=adam.v[name].shape)
    adam.t = 17
    buffer = ReplayBuffer(capacity=50, uniform_prob=0.1)
    buffer.insert(rng.uniform(size=(30, 3)), rng.integers(0, 2, size=30))
    train = TrainConfig(lr=3e-4, batch_size=16)
    dataset = {"kind": "mixture", "centers": [[0.3, 0.3, 0.3]],
               "sigma": 0.05, "n": 64}

    first = tmp_path / "a.ebm"
    second = tmp_path / "b.ebm"
    save_checkpoint(first, net, train=train, dataset=dataset, seed=9,
                    step_count=17, adam=adam, buffer=buffer)
    bundle = load_checkpoint(first)
    save_checkpoint(second, bundle.net, train=bundle.manifest["train"],
                    dataset=bundle.manifest["dataset"],
                    seed=bundle.manifest["seed"],
                    step_count=bundle.manifest["step_count"],
                    adam=bundle.adam, buffer=bundle.buffer)
    assert first.read_bytes() == second.read_bytes()


def test_adam_and_buffer_state_survive(tmp_path):
    net = _net(5, num_classes=3)
    adam = AdamState.for_parameters(net.parameters())
    rng = np.random.default_rng(6)
    for name in adam.m:
        adam.m[name] += rng.normal(size=adam.m[name].shape)
        adam.v[name] += rng.uniform(size=adam.v[name].shape)
    adam.t = 5
    buffer = ReplayBuffer(capacity=20, uniform_prob=0.25)
    # overfill so the FIFO wraps and order matters
    buffer.insert(rng.uniform(size=(15, 3)), rng.integers(0, 3, size=15))
    buffer.insert(rng.uniform(size=(12, 3)), rng.integers(0, 3, size=12))

    path = tmp_path / "full.ebm"
    save_checkpoint(path, net, adam=adam, buffer=buffer, step_count=5)
    bundle = load_checkpoint(path)

    assert bundle.adam.t == 5
    for name, _ in net.parameters():
        assert np.array_equal(bundle.adam.m[name], adam.m[name])
        assert np.array_equal(bundle.adam.v[name], adam.v[name])
    want_s, want_l = buffer.snapshot()
    got_s, got_l = bundle.buffer.snapshot()
    assert np.array_equal(want_s, got_s)
    assert np.array_equal(want_l, got_l)
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
        assert got.labeled == buffer.labeled
        if len(buffer):
            assert np.array_equal(got.snapshot()[0], buffer.snapshot()[0])


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
    assert manifest["adam"] is None and manifest["buffer"] is None


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
    save_checkpoint(path, _net(11))
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
