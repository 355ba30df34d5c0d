"""Versioned checkpoint container: JSON manifest + raw little-endian f64 arrays.

Layout: 4-byte magic, uint32 format version, uint64 manifest length, the
manifest as canonical JSON (sorted keys, no whitespace), then each array's
bytes at the offsets recorded in the manifest. Writers emit tensors in a
fixed name order and canonical JSON, so identical inputs produce identical
bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .autograd import Tensor

MAGIC = b"PLCK"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_checkpoint(path, header: dict, named_arrays) -> None:
    """Write `named_arrays` (iterable of (name, ndarray)) under `header`."""
    tensors = []
    blobs = []
    offset = 0
    for name, arr in named_arrays:
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        tensors.append({
            "name": name,
            "shape": list(arr.shape),
            "offset": offset,
            "size": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    manifest = dict(header)
    manifest["tensors"] = tensors
    payload = _canonical_json(manifest)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<Q", len(payload)))
        f.write(payload)
        for raw in blobs:
            f.write(raw)


def read_checkpoint(path):
    """Return (manifest, {name: ndarray}).

    The header, the manifest and every entry's offset and size are checked
    against the file before any slice, so a cut or damaged file raises
    CheckpointError instead of a struct, JSON or reshape error.
    """
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    if len(data) < 16:
        raise CheckpointError(f"{path}: truncated header ({len(data)} bytes)")
    version, mlen = struct.unpack("<IQ", data[4:16])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    base = 16 + mlen
    if base > len(data):
        raise CheckpointError(
            f"{path}: truncated manifest ({mlen} bytes declared, "
            f"{len(data) - 16} present)"
        )
    try:
        manifest = json.loads(data[16:base].decode("utf-8"))
        entries = [(str(e["name"]), list(e["shape"]), e["offset"], e["size"])
                   for e in manifest["tensors"]]
    except ValueError as e:  # bad UTF-8 or JSON
        raise CheckpointError(f"{path}: manifest is not JSON: {e}") from e
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: malformed manifest: {e!r}") from e
    arrays = {}
    for name, shape, offset, size in entries:
        if not all(isinstance(v, int) and v >= 0 for v in (offset, size, *shape)):
            raise CheckpointError(f"{path}: {name}: bad shape, offset or size")
        if size != 8 * math.prod(shape):
            raise CheckpointError(
                f"{path}: {name}: size {size} != 8 x prod(shape {shape})"
            )
        start = base + offset
        if start + size > len(data):
            raise CheckpointError(f"{path}: {name}: payload truncated")
        # one copy straight out of the file bytes: writable, C-contiguous
        # and shared with nothing (optimizers update loaded tensors in place)
        arr = np.frombuffer(data, "<f8", count=size // 8, offset=start)
        arrays[name] = arr.astype(np.float64).reshape(shape)
    return manifest, arrays


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# model checkpoints


def save_model(path, weights, merged_adapters: bool = False) -> None:
    header = {
        "kind": "model",
        "config": weights.config.to_dict(),
        "head_index_map": weights.head_index_map,
        "merged_adapters": merged_adapters,
    }
    write_checkpoint(path, header, ((n, t.data) for n, t in weights.named_tensors()))


def load_model(path):
    """Load a model checkpoint; returns (TransformerWeights, manifest)."""
    from .model import ModelConfig, TransformerWeights, tensor_shapes

    manifest, arrays = read_checkpoint(path)
    if manifest.get("kind") != "model":
        raise CheckpointError(f"{path}: expected a model checkpoint")
    try:
        config = ModelConfig.from_dict(manifest["config"], "config")
        head_index_map = [list(map(int, row))
                          for row in manifest["head_index_map"]]
    except KeyError as e:
        raise CheckpointError(f"{path}: manifest has no {e}") from e
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad model manifest: {e}") from e
    if len(head_index_map) != config.num_layers:
        raise CheckpointError(f"{path}: head_index_map has wrong number of blocks")
    for row in head_index_map:
        if row != sorted(set(row)) or not set(row) <= set(range(config.num_heads)):
            raise CheckpointError(f"{path}: bad head_index_map row {row}")

    shapes = tensor_shapes(config, head_index_map)
    if set(arrays) != set(shapes):
        missing = sorted(set(shapes) - set(arrays))
        extra = sorted(set(arrays) - set(shapes))
        raise CheckpointError(
            f"{path}: tensor set mismatch (missing {missing}, unexpected {extra})"
        )
    for name, shape in shapes.items():
        if tuple(arrays[name].shape) != shape:
            raise CheckpointError(
                f"{path}: {name} has shape {arrays[name].shape}, expected {shape}"
            )
    tensors = {name: Tensor(arr) for name, arr in arrays.items()}
    return TransformerWeights.from_named(config, tensors, head_index_map), manifest
