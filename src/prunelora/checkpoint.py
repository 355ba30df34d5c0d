"""Versioned checkpoint container: JSON manifest + raw little-endian f64 arrays.

Layout: 4-byte magic, uint32 format version, uint64 manifest length, the
manifest as canonical JSON (sorted keys, no whitespace), then each array's
bytes at the offsets recorded in the manifest. Writers emit tensors in a
fixed name order, back to back, and canonical JSON, so identical inputs
produce identical bytes.

Each tensor is copied once between its array and the file: the writer
writes every array from its own buffer, and the reader reads every tensor
straight into a fresh array of its own, or into the place a loader gives
it (a model's or adapters' arena). Asked for a digest, both hash the
bytes in the same pass, so the sha256 of a file costs no second read.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

from .autograd import NonFiniteError
from .schema import field_types, parse_section

MAGIC = b"PLCK"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQ")  # magic, format version, manifest length
_CHUNK = 1 << 20  # bytes per read in file_digest


class CheckpointError(ValueError):
    pass


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _raw(arr: np.ndarray) -> np.ndarray:
    """The bytes of a C-contiguous <f8 array, as a flat uint8 view."""
    return arr.reshape(-1).view(np.uint8)


def write_checkpoint(path, header: dict, named_arrays, digest: bool = False):
    """Write `named_arrays` (iterable of (name, ndarray)) under `header`.

    Returns the sha256 hex digest of the file's bytes when `digest` is set,
    else None. An array already C-contiguous <f8 is written from its own
    buffer; any other is converted first.
    """
    arrays = [(name, np.shape(arr), np.ascontiguousarray(arr, dtype="<f8"))
              for name, arr in named_arrays]
    tensors = []
    offset = 0
    for name, shape, arr in arrays:
        tensors.append({
            "name": name,
            "shape": list(shape),
            "offset": offset,
            "size": arr.nbytes,
        })
        offset += arr.nbytes
    manifest = dict(header)
    manifest["tensors"] = tensors
    payload = _canonical_json(manifest)
    head = _HEADER.pack(MAGIC, FORMAT_VERSION, len(payload)) + payload
    sha = hashlib.sha256(head) if digest else None
    with open(path, "wb") as f:
        f.write(head)
        for _, _, arr in arrays:
            raw = _raw(arr)
            f.write(raw)
            if sha is not None:
                sha.update(raw)
    return sha.hexdigest() if sha is not None else None


def _manifest_entries(path, manifest, base: int, file_size: int):
    """[(name, shape, offset, size)] after checking every entry against the
    payload area [base, file_size) of the file."""
    try:
        entries = [(str(e["name"]), list(e["shape"]), e["offset"], e["size"])
                   for e in manifest["tensors"]]
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: malformed manifest: {e!r}") from e
    for name, shape, offset, size in entries:
        # JSON integers only: a JSON true or false is a Python bool, an int
        if not all(type(v) is int and v >= 0 for v in (offset, size, *shape)):
            raise CheckpointError(f"{path}: {name}: bad shape, offset or size")
        if size != 8 * math.prod(shape):
            raise CheckpointError(
                f"{path}: {name}: size {size} != 8 x prod(shape {shape})"
            )
        if base + offset + size > file_size:
            raise CheckpointError(f"{path}: {name}: payload truncated")
    # together the entries claim no more than the payload area holds, so
    # the arrays never outgrow the file, however their ranges overlap
    if sum(size for *_, size in entries) > file_size - base:
        raise CheckpointError(f"{path}: tensors claim more bytes than the file holds")
    return entries


def _read_exact(f, buf) -> int:
    """Read into `buf` until it is full or the file ends; bytes read."""
    view = memoryview(buf)
    got = 0
    while got < len(view):
        n = f.readinto(view[got:])
        if not n:
            break
        got += n
    return got


def read_checkpoint(path, digest: bool = False, into=None):
    """Return (manifest, {name: ndarray}), plus the file's sha256 hex
    digest as a third item when `digest` is set.

    The header, the manifest and every entry's shape, offset and size are
    checked against the file's size before any array is allocated, so a
    cut or damaged file raises CheckpointError instead of a struct, JSON or
    reshape error, and never allocates more than the file holds. Each
    tensor is then read into its own array: writable, C-contiguous and
    shared with nothing (optimizers update loaded tensors in place).

    `into(manifest, shapes)`, if given, is called once the entries are
    checked, with every entry's shape by name; it may raise
    CheckpointError, and returns the C-contiguous float64 array to read
    each tensor into (a model's or adapters' places, see `load_model`).

    The digest hashes the bytes as they are read when the entries lie back
    to back in manifest order up to the end of the file, as the writer
    lays them out; any other layout is hashed by `file_digest`.
    """
    with open(path, "rb", buffering=0) as f:
        file_size = os.fstat(f.fileno()).st_size
        head = f.read(_HEADER.size)
        if head[:4] != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        if len(head) < _HEADER.size:
            raise CheckpointError(f"{path}: truncated header ({len(head)} bytes)")
        _, version, mlen = _HEADER.unpack(head)
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        base = _HEADER.size + mlen
        if base > file_size:
            raise CheckpointError(
                f"{path}: truncated manifest ({mlen} bytes declared, "
                f"{file_size - _HEADER.size} present)"
            )
        payload = f.read(mlen)
        if len(payload) != mlen:
            raise CheckpointError(f"{path}: truncated manifest")
        try:
            manifest = json.loads(payload.decode("utf-8"))
        except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON
            raise CheckpointError(f"{path}: manifest is not JSON: {e}") from e
        entries = _manifest_entries(path, manifest, base, file_size)

        end = base  # -1 once an entry does not start where the last ended
        for _, _, offset, size in entries:
            end = end + size if end == base + offset else -1
        sha = (hashlib.sha256(head + payload)
               if digest and end == file_size else None)
        arrays = {}
        places = (into(manifest, {name: tuple(shape) for name, shape, *_ in entries})
                  if into is not None else None)
        for name, shape, offset, size in entries:
            if places is None:
                try:
                    arr = np.empty(shape, dtype="<f8")
                except ValueError as e:  # more dimensions than numpy supports
                    raise CheckpointError(f"{path}: {name}: {e}") from e
            else:
                # `into` checked each name's last shape: a mismatch here
                # is an earlier entry of the same name
                arr = places[name]
                if arr.shape != tuple(shape) or name in arrays:
                    raise CheckpointError(f"{path}: {name}: listed twice")
            f.seek(base + offset)
            raw = _raw(arr)
            if _read_exact(f, raw) != size:
                raise CheckpointError(f"{path}: {name}: payload truncated")
            if sha is not None:
                sha.update(raw)
            arrays[name] = arr
    if not digest:
        return manifest, arrays
    return manifest, arrays, (file_digest(path) if sha is None
                              else sha.hexdigest())


def file_digest(path) -> str:
    """sha256 hex digest of the file, read in 1 MiB chunks."""
    sha = hashlib.sha256()
    buf = bytearray(_CHUNK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as f:
        while n := f.readinto(buf):
            sha.update(view[:n])
    return sha.hexdigest()


def check_tensors(path, found: dict, shapes: dict) -> None:
    """Raise CheckpointError unless `found` (name -> shape tuple) names
    exactly the tensors of `shapes`, each of its shape."""
    if found.keys() != shapes.keys():
        missing = sorted(shapes.keys() - found.keys())
        extra = sorted(found.keys() - shapes.keys())
        raise CheckpointError(
            f"{path}: tensor set mismatch (missing {missing}, unexpected {extra})"
        )
    for name, shape in shapes.items():
        if found[name] != shape:
            raise CheckpointError(
                f"{path}: {name} has shape {found[name]}, expected {shape}"
            )


def check_finite(tensors) -> None:
    """Raise NonFiniteError if a tensor read from a file holds NaN or Inf."""
    for t in tensors:
        if not np.all(np.isfinite(t.data)):
            raise NonFiniteError("tensor rejects non-finite values (NaN/Inf)")


# ---------------------------------------------------------------------------
# model checkpoints


def save_model(path, weights, merged_adapters: bool = False,
               digest: bool = False):
    """Write a model checkpoint; returns the file's sha256 hex digest when
    `digest` is set, else None."""
    header = {
        "kind": "model",
        "config": weights.config.to_dict(),
        "head_index_map": weights.head_index_map,
        "merged_adapters": merged_adapters,
    }
    return write_checkpoint(
        path, header, ((n, t.data) for n, t in weights.named_tensors()),
        digest=digest,
    )


def load_model(path, digest: bool = False):
    """Load a model checkpoint; returns (TransformerWeights, manifest), plus
    the file's sha256 hex digest as a third item when `digest` is set.

    The manifest is checked before any tensor is read, and each tensor is
    read straight into its place in `TransformerWeights.empty`."""
    from .model import ModelConfig, TransformerWeights, tensor_shapes

    weights = None

    def into(manifest, found):
        nonlocal weights
        if manifest.get("kind") != "model":
            raise CheckpointError(f"{path}: expected a model checkpoint")
        try:
            config = ModelConfig.from_dict(manifest["config"], "config")
            header = parse_section(
                {key: manifest[key] for key in ("head_index_map", "merged_adapters")},
                "model manifest",
                field_types(TransformerWeights) | {"merged_adapters": "bool"})
        except KeyError as e:
            raise CheckpointError(f"{path}: manifest has no {e}") from e
        except ValueError as e:
            raise CheckpointError(f"{path}: bad model manifest: {e}") from e
        head_index_map = header["head_index_map"]
        if len(head_index_map) != config.num_layers:
            raise CheckpointError(f"{path}: head_index_map has wrong number of blocks")
        for row in head_index_map:
            if row != sorted(set(row)) or not set(row) <= set(range(config.num_heads)):
                raise CheckpointError(f"{path}: bad head_index_map row {row}")
        check_tensors(path, found, tensor_shapes(config, head_index_map))
        weights = TransformerWeights.empty(config, head_index_map)
        return {name: t.data for name, t in weights.named_tensors()}

    manifest, _, *sha = read_checkpoint(path, digest=digest, into=into)
    check_finite(weights.all_tensors())
    return (weights, manifest, *sha)
