from dataclasses import fields

import numpy as np
import pytest

from prunelora import checkpoint, init_weights
from prunelora.checkpoint import CheckpointError
from prunelora.model import Block

from conftest import repack_checkpoint


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
