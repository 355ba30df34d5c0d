import hashlib
import json
import struct
import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunelora import (
    PrunePlan,
    apply_slice_prune,
    checkpoint,
    init_adapters,
    init_weights,
    make_rank_plan,
)
from prunelora.autograd import NonFiniteError
from prunelora.checkpoint import CheckpointError
from prunelora.lora import load_adapters, save_adapters
from prunelora.model import Block, tensor_group, tensor_shapes

from conftest import assert_arena_layout, repack_checkpoint


def test_clone_and_round_trips_keep_arenas_and_file_bytes(toy_weights,
                                                          tmp_path):
    keep = np.ones((4, 4), dtype=bool)
    keep[1, :] = False  # a block with empty tensors
    keep[2, 1:] = False
    sliced = apply_slice_prune(toy_weights,
                               PrunePlan(keep=keep, keep_count=int(keep.sum())))
    adapters = init_adapters(sliced, make_rank_plan([0.4, 0.3, 0.2, 0.1], 2, 8, 4),
                             seed=3)
    first, again = tmp_path / "first.ckpt", tmp_path / "again.ckpt"
    for weights in (toy_weights, sliced):
        checkpoint.save_model(first, weights)
        # a clone, and the weights read back, write the same bytes
        for copy in (weights.clone(), checkpoint.load_model(first)[0]):
            assert_arena_layout(list(copy.named_tensors()), tensor_group)
            checkpoint.save_model(again, copy)
            assert again.read_bytes() == first.read_bytes()
    assert_arena_layout(list(sliced.named_tensors()), tensor_group)
    assert_arena_layout(list(adapters.named_tensors()))
    save_adapters(first, adapters)
    loaded = load_adapters(first, sliced)
    assert_arena_layout(list(loaded.named_tensors()))
    save_adapters(again, loaded)
    assert again.read_bytes() == first.read_bytes()


def test_model_roundtrip_bit_exact(toy_config, toy_weights, tmp_path):
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, toy_weights)
    loaded, manifest = checkpoint.load_model(path)
    assert manifest["kind"] == "model"
    assert manifest["merged_adapters"] is False
    assert loaded.config == toy_config
    assert loaded.head_index_map == toy_weights.head_index_map
    for (name_a, a), (name_b, b) in zip(toy_weights.named_tensors(),
                                        loaded.named_tensors()):
        assert name_a == name_b
        assert np.array_equal(a.data, b.data)


def test_save_is_byte_deterministic(toy_weights, tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    checkpoint.save_model(p1, toy_weights)
    checkpoint.save_model(p2, toy_weights)
    assert p1.read_bytes() == p2.read_bytes()
    assert checkpoint.file_digest(p1) == checkpoint.file_digest(p2)


def test_digest_changes_with_content(toy_config, tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    checkpoint.save_model(p1, init_weights(toy_config, seed=0))
    checkpoint.save_model(p2, init_weights(toy_config, seed=1))
    assert checkpoint.file_digest(p1) != checkpoint.file_digest(p2)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"nope" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="bad magic"):
        checkpoint.read_checkpoint(path)


def test_shape_mismatch_rejected(toy_weights, tmp_path):
    path = tmp_path / "model.ckpt"
    arrays = dict(toy_weights.named_tensors())
    named = [(n, t.data) for n, t in arrays.items()]
    # corrupt one matrix's shape (flatten the token embedding)
    named[0] = (named[0][0], named[0][1].reshape(-1))
    checkpoint.write_checkpoint(path, {
        "kind": "model",
        "config": toy_weights.config.to_dict(),
        "head_index_map": toy_weights.head_index_map,
        "merged_adapters": False,
    }, named)
    with pytest.raises(CheckpointError, match="shape"):
        checkpoint.load_model(path)


def test_missing_tensor_rejected(toy_weights, tmp_path):
    path = tmp_path / "model.ckpt"
    named = [(n, t.data) for n, t in toy_weights.named_tensors()][:-1]
    checkpoint.write_checkpoint(path, {
        "kind": "model",
        "config": toy_weights.config.to_dict(),
        "head_index_map": toy_weights.head_index_map,
        "merged_adapters": False,
    }, named)
    with pytest.raises(CheckpointError, match="missing"):
        checkpoint.load_model(path)


def test_sliced_model_roundtrip(toy_weights, tmp_path):
    from prunelora import PrunePlan, apply_slice_prune

    keep = np.ones((4, 4), dtype=bool)
    keep[0, 1] = keep[2, :] = False
    plan = PrunePlan(keep=keep, keep_count=int(keep.sum()))
    sliced = apply_slice_prune(toy_weights, plan)
    path = tmp_path / "pruned.ckpt"
    checkpoint.save_model(path, sliced)
    loaded, _ = checkpoint.load_model(path)
    assert loaded.head_index_map == sliced.head_index_map
    assert loaded.blocks[2].wq.data.shape == (64, 0)
    assert np.array_equal(loaded.blocks[0].wq.data, sliced.blocks[0].wq.data)


def test_loaded_tensors_are_writable_contiguous_and_separate(toy_weights,
                                                              tmp_path):
    # the optimizer updates loaded tensors in place
    from prunelora import PrunePlan, apply_slice_prune

    keep = np.ones((4, 4), dtype=bool)
    keep[1, :] = False  # empty arrays too
    sliced = apply_slice_prune(toy_weights,
                               PrunePlan(keep=keep, keep_count=int(keep.sum())))
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, sliced)
    _, arrays = checkpoint.read_checkpoint(path)
    loaded = list(arrays.values())
    assert any(a.size == 0 for a in loaded)
    for i, a in enumerate(loaded):
        assert a.dtype == np.float64
        assert a.flags.writeable and a.flags.c_contiguous
        assert not any(np.shares_memory(a, b) for b in loaded[i + 1:])


def _shrink_first_size(manifest):
    manifest["tensors"][0]["size"] -= 8


DAMAGE = {
    "header cut": lambda p: p.read_bytes()[:10],
    "manifest cut": lambda p: p.read_bytes()[:40],
    "payload cut": lambda p: p.read_bytes()[:-8],
    "size disagrees with shape": lambda p: repack_checkpoint(
        p, _shrink_first_size),
    "unknown config key": lambda p: repack_checkpoint(
        p, lambda m: m["config"].update(hiden=64)),
    "no head_index_map": lambda p: repack_checkpoint(
        p, lambda m: m.pop("head_index_map")),
}


BAD_MODEL_MANIFESTS = {
    # one byte ("num_heads":4 -> 0) from a good file; checked before
    # `hidden % num_heads` divides by it
    "num_heads 0": (lambda m: m["config"].update(num_heads=0),
                    "num_heads must be positive"),
    "head index inf": (lambda m: m["head_index_map"][0].insert(0, 1e400),
                       "bad model manifest"),
    "head index float": (lambda m: m["head_index_map"][0].__setitem__(1, 1.0),
                         "bad model manifest"),
    "head index true": (lambda m: m["head_index_map"][0].__setitem__(1, True),
                        "bad model manifest"),
    "head index string": (lambda m: m["head_index_map"][0].__setitem__(1, "1"),
                          "bad model manifest"),
    "head_index_map row not a list": (
        lambda m: m["head_index_map"].__setitem__(0, 0), "bad model manifest"),
    "head_index_map an object": (lambda m: m.update(head_index_map={}),
                                 "bad model manifest"),
    # a merged checkpoint must never read as unmerged (merge would add
    # the delta twice): the flag is a JSON bool, and it must be there
    "no merged_adapters": (lambda m: m.pop("merged_adapters"),
                           "manifest has no 'merged_adapters'"),
    "merged_adapters 0": (lambda m: m.update(merged_adapters=0),
                          "bad model manifest"),
    "merged_adapters 1": (lambda m: m.update(merged_adapters=1),
                          "bad model manifest"),
    "merged_adapters 'no'": (lambda m: m.update(merged_adapters="no"),
                             "bad model manifest"),
    "merged_adapters null": (lambda m: m.update(merged_adapters=None),
                             "bad model manifest"),
}


@pytest.mark.parametrize("bad", sorted(BAD_MODEL_MANIFESTS))
def test_bad_model_manifest_value_raises_checkpoint_error(toy_weights,
                                                          tmp_path, bad):
    edit, message = BAD_MODEL_MANIFESTS[bad]
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, toy_weights)
    path.write_bytes(repack_checkpoint(path, edit))
    with pytest.raises(CheckpointError, match=message):
        checkpoint.load_model(path)


def test_head_index_map_entries_are_not_rounded(toy_weights, tmp_path):
    """Indices that would round to a valid map ([0, 1] in blocks 0 and 1)
    are still refused: a float, a bool or a string is not a head index."""
    keep = np.zeros((4, 4), dtype=bool)
    keep[:, :2] = True
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, apply_slice_prune(toy_weights, PrunePlan(keep, 8)))
    assert checkpoint.load_model(path)[0].head_index_map[:2] == [[0, 1], [0, 1]]

    def edit(m):
        m["head_index_map"][:2] = [[0.5, 1.9], [False, "1"]]

    path.write_bytes(repack_checkpoint(path, edit))
    with pytest.raises(CheckpointError, match="bad model manifest"):
        checkpoint.load_model(path)


def test_a_tensor_listed_twice_is_refused(toy_weights, tmp_path):
    # each tensor is read into its one place in the model, so a second
    # entry of the same name (here an empty one, which fits the payload)
    # would be read over the first
    keep = np.ones((4, 4), dtype=bool)
    keep[1, :] = False
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, apply_slice_prune(toy_weights, PrunePlan(keep, 12)))

    def edit(m):
        m["tensors"].append(next(dict(e) for e in m["tensors"] if e["size"] == 0))

    path.write_bytes(repack_checkpoint(path, edit))
    with pytest.raises(CheckpointError, match="block1.wq: listed twice"):
        checkpoint.load_model(path)


def _entry(manifest, name):
    return next(e for e in manifest["tensors"] if e["name"] == name)


# a JSON true or false where an integer is due: (tensor, field, value)
BOOL_ENTRIES = {
    "shape true": ("embeddings.type", "shape", [True, 64]),
    "offset false": ("embeddings.token", "offset", False),
    "size false": ("block1.wq", "size", False),
}


@pytest.mark.parametrize("read", ["load_model", "read_checkpoint"])
@pytest.mark.parametrize("edit", sorted(BOOL_ENTRIES))
def test_a_bool_in_a_manifest_entry_is_refused(toy_weights, tmp_path, edit,
                                               read):
    keep = np.ones((4, 4), dtype=bool)
    keep[1, :] = False  # block1.wq is empty: size 0
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, apply_slice_prune(toy_weights, PrunePlan(keep, 12)))
    name, field, value = BOOL_ENTRIES[edit]
    # the bool equals the integer it replaces: only its type gives it away
    assert _entry(checkpoint.read_checkpoint(path)[0], name)[field] == value
    path.write_bytes(repack_checkpoint(
        path, lambda m: _entry(m, name).update({field: value})))
    with pytest.raises(CheckpointError, match="bad shape, offset or size"):
        getattr(checkpoint, read)(path)


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_checkpoint_raises_checkpoint_error(toy_weights, tmp_path,
                                                    damage):
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, toy_weights)
    path.write_bytes(DAMAGE[damage](path))
    with pytest.raises(CheckpointError):
        checkpoint.load_model(path)


def test_every_block_field_survives_clone_and_checkpoint(toy_weights,
                                                         tmp_path):
    # distinct values per field, so a dropped or swapped field shows
    rng = np.random.default_rng(0)
    for blk in toy_weights.blocks:
        for f in fields(Block):
            t = getattr(blk, f.name)
            t.data[...] = rng.uniform(-1, 1, t.data.shape)
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, toy_weights)
    loaded, _ = checkpoint.load_model(path)
    for copy in (toy_weights.clone(), loaded):
        assert len(copy.blocks) == len(toy_weights.blocks)
        for orig, blk in zip(toy_weights.blocks, copy.blocks):
            for f in fields(Block):
                a, b = getattr(orig, f.name), getattr(blk, f.name)
                assert b is not a and b.data is not a.data, f.name
                assert np.array_equal(a.data, b.data), f.name


# ---------------------------------------------------------------------------
# one copy per tensor, digest in the same pass


def _sliced(weights):
    from prunelora import PrunePlan, apply_slice_prune

    keep = np.ones((4, 4), dtype=bool)
    keep[0, 1] = keep[2, :] = False  # block 2 keeps no head: empty tensors
    return apply_slice_prune(weights,
                             PrunePlan(keep=keep, keep_count=int(keep.sum())))


@pytest.mark.parametrize("sliced", [False, True], ids=["toy", "sliced"])
def test_model_digest_in_the_same_pass_equals_file_digest(toy_weights,
                                                          tmp_path, sliced):
    weights = _sliced(toy_weights) if sliced else toy_weights
    path = tmp_path / "model.ckpt"
    assert checkpoint.save_model(path, weights) is None
    written = checkpoint.save_model(path, weights, digest=True)
    loaded, manifest, read = checkpoint.load_model(path, digest=True)
    assert written == read == checkpoint.file_digest(path)
    assert written == hashlib.sha256(path.read_bytes()).hexdigest()
    assert any(t.data.size == 0 for _, t in loaded.named_tensors()) == sliced
    assert len(checkpoint.load_model(path)) == 2


def test_adapter_checkpoint_digest_in_the_same_pass(toy_weights, tmp_path):
    adapters = init_adapters(toy_weights, make_rank_plan([1, 4, 2, 3], 2, 4, 2),
                             seed=3)
    path, again = tmp_path / "adapters.ckpt", tmp_path / "again.ckpt"
    save_adapters(path, adapters)
    manifest, arrays, read = checkpoint.read_checkpoint(path, digest=True)
    assert read == checkpoint.file_digest(path)
    header = {k: v for k, v in manifest.items() if k != "tensors"}
    written = checkpoint.write_checkpoint(again, header, arrays.items(),
                                          digest=True)
    assert written == read
    assert again.read_bytes() == path.read_bytes()


def _reference_write(path, header, named_arrays):
    """The container written through one `tobytes()` blob per tensor."""
    tensors, blobs, offset = [], [], 0
    for name, arr in named_arrays:
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        tensors.append({"name": name, "shape": list(np.shape(arr)),
                        "offset": offset, "size": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    payload = json.dumps(dict(header, tensors=tensors), sort_keys=True,
                         separators=(",", ":")).encode()
    path.write_bytes(checkpoint.MAGIC + struct.pack("<IQ", 1, len(payload))
                     + payload + b"".join(blobs))


def test_written_bytes_equal_the_tobytes_reference(toy_weights, tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 7))
    named = [(n, t.data) for n, t in _sliced(toy_weights).named_tensors()]
    named += [
        ("transposed", m.T),
        ("fortran", np.asfortranarray(m)),
        ("strided", m[::2, 1::3]),
        ("float32", m.astype(np.float32)),
        ("big_endian", m.astype(">f8")),
        ("ints", np.arange(6).reshape(2, 3)),
        ("scalar", np.float64(2.5)),
        ("empty", np.zeros((3, 0))),
    ]
    header = {"kind": "test", "note": "ünïcode"}
    ours, ref = tmp_path / "ours.ckpt", tmp_path / "ref.ckpt"
    digest = checkpoint.write_checkpoint(ours, header, iter(named), digest=True)
    _reference_write(ref, header, named)
    assert ours.read_bytes() == ref.read_bytes()
    assert digest == checkpoint.file_digest(ref)
    _, arrays = checkpoint.read_checkpoint(ours)
    for name, arr in named:
        assert arrays[name].shape == np.shape(arr), name
        assert np.array_equal(arrays[name], np.asarray(arr, dtype=np.float64))


def _relaid(data, order, gap=b"", trailing=b""):
    """Checkpoint bytes with the payloads laid out in `order` (indices
    into the manifest's entries), `gap` after each payload and `trailing`
    after the last; offsets rewritten to match."""
    (mlen,) = struct.unpack("<Q", data[8:16])
    manifest = json.loads(data[16:16 + mlen])
    entries = manifest["tensors"]
    base = 16 + mlen
    blobs = [data[base + e["offset"]:base + e["offset"] + e["size"]]
             for e in entries]
    offset, body = 0, b""
    for i in order:
        entries[i]["offset"] = offset
        body += blobs[i] + gap
        offset += len(blobs[i]) + len(gap)
    payload = json.dumps(manifest).encode()
    return (data[:8] + struct.pack("<Q", len(payload)) + payload + body
            + trailing)


LAYOUTS = {
    "permuted offsets, trailing bytes": lambda n: dict(
        order=list(range(n))[::-1], trailing=b"\x00" * 24),
    "in order, trailing bytes": lambda n: dict(order=range(n),
                                               trailing=b"tail"),
    "in order, gaps": lambda n: dict(order=range(n), gap=b"\x07" * 8),
    "in order, re-packed manifest": lambda n: dict(order=range(n)),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_any_layout_loads_the_same_arrays_and_the_file_digest(
        toy_weights, tmp_path, layout):
    sliced = _sliced(toy_weights)
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, sliced)
    data = path.read_bytes()
    count = len(list(sliced.named_tensors()))
    path.write_bytes(_relaid(data, **LAYOUTS[layout](count)))
    loaded, _, digest = checkpoint.load_model(path, digest=True)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    for (name, a), (_, b) in zip(sliced.named_tensors(),
                                 loaded.named_tensors()):
        assert np.array_equal(a.data, b.data), name


def _claim(manifest, **entry):
    manifest["tensors"][0].update(entry)


def _largest_entry_twenty_times(manifest):
    tensors = manifest["tensors"]
    largest = max(tensors, key=lambda e: e["size"])
    tensors += [dict(largest, name=f"copy{i}") for i in range(20)]


OVERCLAIMS = {
    "shape [2**40]": lambda m: _claim(m, shape=[2 ** 40], size=8 * 2 ** 40),
    # checked before the entries ahead of it are read
    "last entry past the end": lambda m: m["tensors"][-1].update(
        offset=2 ** 40),
    # each entry fits in the file, together they claim more than it holds
    "largest entry twenty times": _largest_entry_twenty_times,
}


@pytest.mark.parametrize("claim", sorted(OVERCLAIMS))
def test_manifest_claiming_more_than_the_file_allocates_nothing(
        toy_weights, tmp_path, claim):
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, toy_weights)
    path.write_bytes(repack_checkpoint(path, OVERCLAIMS[claim]))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated|more bytes"):
            checkpoint.read_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 4, (peak, size)


def test_file_cut_while_it_is_read_raises_checkpoint_error(toy_weights,
                                                          tmp_path,
                                                          monkeypatch):
    path = tmp_path / "model.ckpt"
    checkpoint.save_model(path, toy_weights)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-100])
    # the size as fstat saw it before the file was cut
    monkeypatch.setattr(checkpoint.os, "fstat",
                        lambda fd: SimpleNamespace(st_size=size))
    with pytest.raises(CheckpointError, match="payload truncated"):
        checkpoint.read_checkpoint(path)


# ---------------------------------------------------------------------------
# fuzz: a cut or damaged file loads or raises a typed error


@pytest.fixture(scope="module")
def micro_file(tmp_path_factory):
    """A small checkpoint (its manifest is a large share of its bytes) and a
    path for damaged copies of it."""
    from prunelora import ModelConfig

    config = ModelConfig(num_layers=2, num_heads=2, hidden=8, ffn_dim=16,
                         vocab_size=13, max_positions=8, num_classes=2)
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    checkpoint.save_model(path, init_weights(config, seed=0))
    data = path.read_bytes()
    (mlen,) = struct.unpack("<Q", data[8:16])
    return data, 16 + mlen, path.with_name("damaged.ckpt")


# one damaged byte: (position, whether it lies in the header and manifest,
# a byte, whether that byte is written or XORed in). Written bytes come
# from JSON's alphabet, so the manifest still parses now and then.
FLIPS = st.lists(
    st.tuples(st.integers(0, 2 ** 24), st.booleans(),
              st.one_of(st.integers(1, 255),
                        st.sampled_from(b'0123456789-.eE"[]{},:')),
              st.booleans()),
    max_size=4,
)
CUTS = st.one_of(st.just(0), st.integers(0, 2 ** 24))


def _damaged(micro_file, cut, flips):
    data, base, path = micro_file
    buf = bytearray(data[:len(data) - cut % len(data)])
    for pos, in_manifest, byte, write in flips:
        span = min(base, len(buf)) if in_manifest else len(buf)
        if span:
            buf[pos % span] = byte if write else buf[pos % span] ^ byte
    path.write_bytes(bytes(buf))
    return path


FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                database=None)


@FUZZ
@given(cut=CUTS, flips=FLIPS)
def test_fuzz_read_checkpoint(micro_file, cut, flips):
    path = _damaged(micro_file, cut, flips)
    try:
        manifest, arrays, digest = checkpoint.read_checkpoint(path,
                                                              digest=True)
    except CheckpointError:
        return
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert isinstance(manifest, dict)
    for arr in arrays.values():
        assert arr.dtype == np.float64 and arr.flags.writeable


@FUZZ
@given(cut=CUTS, flips=FLIPS)
def test_fuzz_load_model(micro_file, cut, flips):
    path = _damaged(micro_file, cut, flips)
    try:
        weights, _ = checkpoint.load_model(path)
    except (CheckpointError, NonFiniteError):
        return
    shapes = tensor_shapes(weights.config, weights.head_index_map)
    assert {n: t.data.shape for n, t in weights.named_tensors()} == shapes
