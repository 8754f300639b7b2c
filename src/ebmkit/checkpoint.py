"""Binary persistence for energy models and their replay buffers.

File layout, all integers little-endian:

    magic     4 bytes   b"EBM1"
    version   u32       format version, currently 3. Versions 1 (a label
                        per buffer row) and 2 (the Adam moments after the
                        params, which no command read) are refused: there
                        is one reader, and such files are retrained
    mlen      u32       manifest byte length
    manifest  mlen bytes of UTF-8 JSON (canonical: sorted keys, compact
              separators), holding the model config, optional train
              config and dataset spec, seed, step count, and the
              replay buffer's facts when one is stored
    params    float64 values in declaration order: per layer W row-major,
              then b, then gamma and beta when the model is conditional,
              then the spectral u vector when normalization is on
    buffer    (optional) count as u64, then samples row-major

Every array length is derivable from the manifest alone, and
load(save(x)) reproduces x bit-exactly, including a byte-identical file
on re-save. Files are written to a temporary name in the target
directory and renamed into place.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, ContractError, checked
from .model import (EnergyNet, Layer, ModelConfig, layer_shapes,
                    spectral_sigma)
from .sampler import ReplayBuffer

MAGIC = b"EBM1"
FORMAT_VERSION = 3

_F8 = np.dtype("<f8")


@dataclass
class CheckpointBundle:
    """A loaded checkpoint: the model, its manifest and the replay buffer
    when one was stored."""

    net: EnergyNet
    manifest: dict
    buffer: ReplayBuffer | None = None


def write_atomic(path, data):
    """Write bytes to path via a temporary file in the same directory."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_text_atomic(path, text):
    write_atomic(path, text.encode("utf-8"))


def _blob(arr):
    return np.ascontiguousarray(arr).astype(_F8, copy=False).tobytes()


def save_checkpoint(path, net, *, train=None, dataset=None, seed=None,
                    step_count=0, buffer=None):
    """Serialize a model, and its replay buffer when given, to path. The
    optimizer state is not stored: no command resumes a run."""
    manifest = {
        "model": asdict(net.config),
        "train": (None if train is None
                  else train if isinstance(train, dict) else asdict(train)),
        "dataset": dataset,
        "seed": seed,
        "step_count": int(step_count),
        "buffer": None,
    }
    # Layer fields run w, b, gamma, beta, u: the storage order
    chunks = [_blob(arr) for layer in net.layers
              for arr in vars(layer).values() if arr is not None]
    if buffer is not None:
        samples = buffer.snapshot()
        manifest["buffer"] = {
            "count": int(samples.shape[0]),
            "dim": int(samples.shape[1]),
            "capacity": int(buffer.capacity),
            "uniform_prob": float(buffer.uniform_prob),
        }
        chunks.append(struct.pack("<Q", samples.shape[0]))
        chunks.append(_blob(samples))
    mbytes = json.dumps(manifest, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    head = MAGIC + struct.pack("<II", FORMAT_VERSION, len(mbytes))
    write_atomic(path, head + mbytes + b"".join(chunks))


class _Reader:
    def __init__(self, data, offset):
        self.data = data
        self.offset = offset

    def take(self, nbytes, what):
        end = self.offset + nbytes
        if end > len(self.data):
            raise ContractError(f"checkpoint truncated while reading {what}")
        out = self.data[self.offset:end]
        self.offset = end
        return out

    def array(self, shape, what):
        raw = self.take(math.prod(shape) * _F8.itemsize, what)
        return np.frombuffer(raw, dtype=_F8).reshape(shape).copy()


_BLOB_NAMES = {"w": "layer weights", "b": "layer biases", "gamma": "class gains",
               "beta": "class biases", "u": "spectral vector"}

def _malformed(what):
    return ContractError(f"malformed checkpoint manifest: {what}")


def _parse_manifest(manifest):
    """(ModelConfig, buffer facts or None) from a decoded manifest; a
    missing, mistyped or inconsistent entry is a ContractError. Counts and
    extents must be JSON integers."""
    try:
        config = ModelConfig(**manifest["model"])
        binfo = manifest.get("buffer")
        if binfo is not None:
            binfo = {k: checked(k, binfo[k], kind) for k, kind in (
                ("count", int), ("dim", int), ("capacity", int),
                ("uniform_prob", float))}
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise _malformed(f"{type(exc).__name__} {exc}") from exc
    if binfo is not None:
        if not 0 <= binfo["count"] <= binfo["capacity"]:
            raise _malformed(f"buffer count {binfo['count']} outside "
                             f"[0, capacity {binfo['capacity']}]")
        if binfo["dim"] != config.input_dim and (binfo["count"] or binfo["dim"]):
            raise _malformed(f"buffer dimension {binfo['dim']} does not match "
                             f"the model input dimension {config.input_dim}")
    return config, binfo


def load_checkpoint(path):
    """Parse a checkpoint file; inverse of save_checkpoint."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12:
        raise ContractError("checkpoint shorter than its fixed header")
    if data[:4] != MAGIC:
        raise ContractError(f"bad checkpoint magic {data[:4]!r}")
    version, mlen = struct.unpack("<II", data[4:12])
    if version != FORMAT_VERSION:
        raise ContractError(f"unsupported checkpoint format version {version}")
    reader = _Reader(data, 12)
    try:
        manifest = json.loads(reader.take(mlen, "manifest").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContractError(f"unreadable checkpoint manifest: {exc}") from exc
    config, binfo = _parse_manifest(manifest)

    layers = [Layer(**{k: reader.array(shape, _BLOB_NAMES[k])
                       for k, shape in entry.items()})
              for entry in layer_shapes(config.widths, config.num_classes,
                                        config.spectral_norm)]
    for i, layer in enumerate(layers):
        if layer.u is not None:
            with np.errstate(all="ignore"):
                sigma = spectral_sigma(layer)
            if not (math.isfinite(sigma) and sigma > 0.0):
                raise ContractError(
                    f"layer {i} has spectral scale {sigma:g}; the scale "
                    f"must be finite and positive")
    net = EnergyNet(config, layers)

    buffer = None
    if binfo is not None:
        (count,) = struct.unpack("<Q", reader.take(8, "buffer count"))
        if count != binfo["count"]:
            raise ContractError("buffer count disagrees with manifest")
        samples = reader.array((count, binfo["dim"]), "buffer samples")
        try:
            buffer = ReplayBuffer(capacity=binfo["capacity"],
                                  uniform_prob=binfo["uniform_prob"])
            if binfo["dim"]:
                # an empty buffer that has seen a batch keeps its shape
                buffer.insert(samples)
        except (ConfigError, MemoryError, ValueError) as exc:
            raise _malformed(f"replay buffer cannot be built: {exc}") from exc
    if reader.offset != len(data):
        raise ContractError(
            f"{len(data) - reader.offset} trailing bytes after checkpoint blobs")
    return CheckpointBundle(net=net, manifest=manifest, buffer=buffer)
