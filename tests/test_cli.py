import json
import re
from pathlib import Path

import numpy as np
import pytest

from prunelora import checkpoint, count_params, estimate_flops, lora, training
from prunelora.cli import load_datasets, load_run_config, main
from prunelora.importance import (
    csv_to_matrix,
    import_importance_csv,
    matrix_digest,
    matrix_to_csv,
)
from prunelora.lora import RankPlan, load_adapters
from prunelora.pruning import PrunePlan

from conftest import repack_checkpoint, write_config


@pytest.fixture
def config_path(tmp_path):
    return write_config(tmp_path / "config.json")


def run(*argv):
    return main([str(a) for a in argv])


def test_importance_command_outputs(config_path, tmp_path):
    out = tmp_path / "imp"
    assert run("importance", "--config", config_path, "--out", out) == 0
    final = import_importance_csv(out / "importance.csv")
    assert final.shape == (4, 4)
    assert final.min() >= 0.0 and final.max() <= 1.0
    meta = json.loads((out / "importance_meta.json").read_text())
    assert meta["token_count"] > 0
    assert meta["sample_size"] == 64
    assert meta["epsilon"] == 1e-12
    assert len(meta["digest"]) == 64
    assert (out / "importance.ppm").read_bytes().startswith(b"P6\n4 4\n255\n")
    assert (out / "model.ckpt").exists()


def test_importance_sample_size_one_still_valid(config_path, tmp_path):
    cfg = write_config(tmp_path / "c1.json", importance={"sample_size": 1})
    out = tmp_path / "imp1"
    assert run("importance", "--config", cfg, "--out", out) == 0
    final = import_importance_csv(out / "importance.csv")
    assert final.shape == (4, 4)
    assert np.all((final >= 0) & (final <= 1))


def test_importance_rerun_is_byte_identical(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("importance", "--config", config_path, "--out", out1) == 0
    assert run("importance", "--config", config_path, "--out", out2) == 0
    for name in ("importance.csv", "importance.ppm", "importance_meta.json",
                 "model.ckpt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_prune_command_and_digest_guard(config_path, tmp_path):
    imp = tmp_path / "imp"
    assert run("importance", "--config", config_path, "--out", imp) == 0
    out = tmp_path / "pruned"
    assert run("prune", "--config", config_path,
               "--checkpoint", imp / "model.ckpt",
               "--importance", imp / "importance.csv", "--out", out) == 0
    plan = PrunePlan.load(out / "prune_plan.json")
    assert plan.keep_count == 12
    assert int(plan.keep.sum()) == 12
    pruned, _ = checkpoint.load_model(out / "pruned.ckpt")
    assert sum(len(k) for k in pruned.head_index_map) == 12

    # a different model must be refused (stale importance)
    other = tmp_path / "other"
    cfg2 = write_config(tmp_path / "c2.json", seed=5)
    assert run("importance", "--config", cfg2, "--out", other) == 0
    assert run("prune", "--config", config_path,
               "--checkpoint", other / "model.ckpt",
               "--importance", imp / "importance.csv",
               "--out", tmp_path / "x") == 2


def _rewrite_importance(imp, matrix, digest=None):
    """Overwrite importance.csv; record `digest` (default: its own) in the meta."""
    text = matrix_to_csv(matrix)
    (imp / "importance.csv").write_text(text)
    meta = json.loads((imp / "importance_meta.json").read_text())
    meta["digest"] = digest or matrix_digest(csv_to_matrix(text))
    (imp / "importance_meta.json").write_text(json.dumps(meta))


# text that is no CSV matrix -> what stderr says after the file name
MALFORMED_IMPORTANCE = {
    "ragged": ("0,1,0.5,0.25\n1,0\n", "line 2 holds 2 values, line 1 4"),
    "empty": ("", "holds no rows"),
    "not a number": ("0,1\n0.5,one\n", "line 2: could not convert string"),
}


@pytest.mark.parametrize("damage", ["non-finite", "out of range", "digest",
                                    *MALFORMED_IMPORTANCE])
def test_prune_refuses_damaged_importance_map(config_path, tmp_path, capsys,
                                              damage):
    imp = tmp_path / "imp"
    assert run("importance", "--config", config_path, "--out", imp) == 0
    final = import_importance_csv(imp / "importance.csv")
    message = ""
    if damage == "non-finite":
        _rewrite_importance(imp, np.full((4, 4), np.nan))
    elif damage == "out of range":
        _rewrite_importance(imp, np.tile([[5.0, -3.0], [1.0, 0.0]], (2, 2)))
    elif damage == "digest":  # a valid map, but not the one the metadata describes
        _rewrite_importance(imp, final[::-1], digest=matrix_digest(final))
    else:
        text, message = MALFORMED_IMPORTANCE[damage]
        (imp / "importance.csv").write_text(text)
    out = tmp_path / "pruned"
    assert run("prune", "--config", config_path,
               "--checkpoint", imp / "model.ckpt",
               "--importance", imp / "importance.csv", "--out", out) == 2
    assert f"{imp / 'importance.csv'}: {message}" in capsys.readouterr().err
    assert not (out / "prune_plan.json").exists()


def test_train_and_importance_estimate_in_training_batches(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", train={"batch_size": 8, "epochs": 0})
    cfg = json.loads(path.read_text())
    del cfg["importance"]["batch_size"]
    path.write_text(json.dumps(cfg))
    assert run("importance", "--config", path, "--out", tmp_path / "imp") == 0
    assert run("train", "--config", path, "--out", tmp_path / "train") == 0
    assert (tmp_path / "imp" / "importance.csv").read_bytes() == \
        (tmp_path / "train" / "importance.csv").read_bytes()
    # an importance.batch_size that disagrees is refused, not ignored
    other = write_config(tmp_path / "d.json", train={"batch_size": 8})
    for command in ("importance", "train"):
        assert run(command, "--config", other, "--out", tmp_path / "x") == 2
        assert "importance.batch_size" in capsys.readouterr().err


def test_prune_keep_all_is_numerically_identical(config_path, tmp_path):
    imp = tmp_path / "imp"
    assert run("importance", "--config", config_path, "--out", imp) == 0
    cfg = write_config(tmp_path / "keepall.json", prune={"keep_count": 16})
    out = tmp_path / "pruned"
    assert run("prune", "--config", cfg, "--checkpoint", imp / "model.ckpt",
               "--importance", imp / "importance.csv", "--out", out) == 0
    base, _ = checkpoint.load_model(imp / "model.ckpt")
    pruned, _ = checkpoint.load_model(out / "pruned.ckpt")
    for (_, a), (_, b) in zip(base.named_tensors(), pruned.named_tensors()):
        assert np.array_equal(a.data, b.data)


def test_train_writes_reports_and_checkpoints(config_path, tmp_path):
    out = tmp_path / "run"
    assert run("train", "--config", config_path, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["regime"] == "prune_lora"
    assert report["epochs"] == 2
    assert "epoch_seconds" not in report  # timing lives in the sidecar
    timing = json.loads((out / "report_timing.json").read_text())
    assert len(timing["epoch_seconds"]) == 2
    for name in ("model.ckpt", "adapters.ckpt", "importance.csv",
                 "prune_plan.json", "rank_plan.json"):
        assert (out / name).exists(), name

    # trainable count equals the accounting module's closed form
    plan = PrunePlan.load(out / "prune_plan.json")
    rank_plan = RankPlan.load(out / "rank_plan.json")
    weights, _ = checkpoint.load_model(out / "model.ckpt")
    rep = count_params(weights.config, prune_plan=plan, rank_plan=rank_plan)
    assert report["trainable_params"] == rep.trainable_params
    assert report["total_params"] == rep.total_params


def test_train_zero_epochs_is_eval_only(config_path, tmp_path):
    cfg = write_config(tmp_path / "z.json",
                       train={"regime": "full_finetune", "epochs": 0})
    out = tmp_path / "zero"
    assert run("train", "--config", cfg, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["eval_epochs"] == [0]
    assert report["train_loss"] == []


def test_train_rerun_is_byte_identical(config_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run("train", "--config", config_path, "--out", out1) == 0
    assert run("train", "--config", config_path, "--out", out2) == 0
    for name in ("report.json", "model.ckpt", "adapters.ckpt",
                 "importance.csv", "prune_plan.json", "rank_plan.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_three_regimes_give_comparable_reports(tmp_path):
    reports = {}
    for regime in ("full_finetune", "lora", "prune_lora"):
        cfg = write_config(tmp_path / f"{regime}.json",
                           train={"regime": regime, "epochs": 1})
        out = tmp_path / regime
        assert run("train", "--config", cfg, "--out", out) == 0
        reports[regime] = json.loads((out / "report.json").read_text())
    keys = {regime: set(r) for regime, r in reports.items()}
    assert keys["full_finetune"] == keys["lora"] == keys["prune_lora"]
    assert reports["lora"]["trainable_params"] < \
        reports["full_finetune"]["trainable_params"]


def test_merge_fresh_adapters_is_identity_and_double_merge_refused(
        config_path, tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "m.json",
                       train={"regime": "lora", "epochs": 0})
    assert run("train", "--config", cfg, "--out", out) == 0
    merged_path = tmp_path / "merged.ckpt"
    assert run("merge", "--base", out / "model.ckpt",
               "--adapters", out / "adapters.ckpt", "--out", merged_path) == 0
    base, _ = checkpoint.load_model(out / "model.ckpt")
    merged, manifest = checkpoint.load_model(merged_path)
    assert manifest["merged_adapters"] is True
    for (_, a), (_, b) in zip(base.named_tensors(), merged.named_tensors()):
        assert np.array_equal(a.data, b.data)  # B=0 after 0 epochs
    # merging into an already-merged checkpoint is refused
    assert run("merge", "--base", merged_path,
               "--adapters", out / "adapters.ckpt",
               "--out", tmp_path / "again.ckpt") == 2


def test_merge_eval_report_do_not_hash_checkpoints(config_path, tmp_path,
                                                   monkeypatch):
    run_dir = tmp_path / "run"
    assert run("train", "--config", config_path, "--out", run_dir) == 0

    def merge_eval_report(out):
        merged = out / "merged.ckpt"
        assert run("merge", "--base", run_dir / "model.ckpt",
                   "--adapters", run_dir / "adapters.ckpt", "--out", out) == 0
        assert run("eval", "--config", config_path, "--out", out,
                   "--checkpoint", merged,
                   "--dump-logits", out / "logits.csv") == 0
        assert run("report", "--config", config_path, "--out", out,
                   "--checkpoint", merged) == 0

    merge_eval_report(tmp_path / "plain")

    # every digest the CLI asks of the checkpoint reader or writer, and
    # no second pass over a file through file_digest
    digests = []

    def spy(module, name):
        original = getattr(module, name)

        def asks_for_digest(path, *args, digest=False, **kwargs):
            if digest:
                digests.append((name, Path(path).name))
            return original(path, *args, digest=digest, **kwargs)

        monkeypatch.setattr(module, name, asks_for_digest)

    def no_file_digest(path):
        raise AssertionError(f"{path} was hashed a second time")

    for module in (checkpoint, lora):
        spy(module, "read_checkpoint")
        spy(module, "write_checkpoint")
    monkeypatch.setattr(checkpoint, "file_digest", no_file_digest)

    merge_eval_report(tmp_path / "spied")
    assert digests == []
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "spied").iterdir())
    for name in names:
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "spied" / name).read_bytes()), name

    # prune hashes the model it slices as it reads it: it accepts a map
    # computed from that model and refuses one computed from another
    imp = tmp_path / "imp"
    assert run("importance", "--config", config_path, "--out", imp,
               "--checkpoint", run_dir / "model.ckpt") == 0
    assert digests == [("read_checkpoint", "model.ckpt")]
    assert run("prune", "--config", config_path,
               "--checkpoint", run_dir / "model.ckpt",
               "--importance", imp / "importance.csv",
               "--out", tmp_path / "x") == 0
    assert digests == [("read_checkpoint", "model.ckpt")] * 2
    fresh = tmp_path / "fresh"
    assert run("importance", "--config", config_path, "--out", fresh) == 0
    assert digests[2:] == [("write_checkpoint", "model.ckpt")]
    assert run("prune", "--config", config_path,
               "--checkpoint", run_dir / "model.ckpt",
               "--importance", fresh / "importance.csv",
               "--out", tmp_path / "y") == 2
    assert digests[3:] == [("read_checkpoint", "model.ckpt")]


ADAPTER_MANIFEST_DAMAGE = {
    "no rank_plan": lambda m: m.pop("rank_plan"),
    "no seed": lambda m: m.pop("seed"),
    "no scaling": lambda m: m.pop("scaling"),
    "rank_plan a list": lambda m: m.update(rank_plan=[1]),
    "seed null": lambda m: m.update(seed=None),
    "seed inf": lambda m: m.update(seed=1e400),
    "rank_plan n_high 1.5": lambda m: m["rank_plan"].update(n_high=1.5),
    "rank_plan block_rank [true]":
        lambda m: m["rank_plan"].update(block_rank=[True]),
    "rank_plan unknown key": lambda m: m["rank_plan"].update(extra=1),
    "seed 1.5": lambda m: m.update(seed=1.5),
    "seed true": lambda m: m.update(seed=True),
    "scaling a string": lambda m: m.update(scaling="2"),
    "scaling false": lambda m: m.update(scaling=False),
    "scaling inf": lambda m: m.update(scaling=1e400),
    "scaling nan": lambda m: m.update(scaling=float("nan")),
    "scaling 10 ** 400": lambda m: m.update(scaling=10 ** 400),
    "rank_plan for 3 of 4 blocks":
        lambda m: m["rank_plan"]["block_rank"].pop(),
}


@pytest.fixture(scope="module")
def fresh_lora_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("lora_run")
    cfg = write_config(root / "m.json", train={"regime": "lora", "epochs": 0})
    assert run("train", "--config", cfg, "--out", root / "run") == 0
    return root / "run"


@pytest.mark.parametrize("damage", list(ADAPTER_MANIFEST_DAMAGE))
def test_damaged_adapter_manifest_exits_2(fresh_lora_run, tmp_path, capsys,
                                          damage):
    src = fresh_lora_run / "adapters.ckpt"
    bad = tmp_path / "adapters.ckpt"
    bad.write_bytes(repack_checkpoint(src, ADAPTER_MANIFEST_DAMAGE[damage]))
    base, _ = checkpoint.load_model(fresh_lora_run / "model.ckpt")
    with pytest.raises(checkpoint.CheckpointError):
        load_adapters(bad, base)
    assert run("merge", "--base", fresh_lora_run / "model.ckpt",
               "--adapters", bad, "--out", tmp_path / "merged.ckpt") == 2
    assert "bad adapter manifest" in capsys.readouterr().err
    assert not (tmp_path / "merged.ckpt").exists()


def widen_q_a(arrays):
    rank = arrays["block0.q.a"].shape[1]
    arrays["block0.q.a"] = np.zeros((5, rank))


# edits of an adapter file's tensors -> the message they fail with
ADAPTER_TENSOR_DAMAGE = {
    "extra tensor": (lambda a: a.update({"block0.q.c": np.zeros((2, 2))}),
                     "unexpected ['block0.q.c']"),
    "missing tensor": (lambda a: a.pop("block3.o.b"), "missing ['block3.o.b']"),
    "A of the wrong width": (widen_q_a, "block0.q.a has shape (5, "),
    "B of the wrong rank": (
        lambda a: a.update({"block1.v.b": np.zeros((1, 64))}),
        "block1.v.b has shape (1, 64)"),
}


@pytest.mark.parametrize("damage", list(ADAPTER_TENSOR_DAMAGE))
def test_adapter_tensors_off_the_layout_exit_2(fresh_lora_run, tmp_path, capsys,
                                               damage):
    """An adapter file holds exactly the tensors `adapter_shapes` declares:
    nothing is dropped, and nothing loads at a shape the model can't use."""
    edit, message = ADAPTER_TENSOR_DAMAGE[damage]
    manifest, arrays = checkpoint.read_checkpoint(
        fresh_lora_run / "adapters.ckpt")
    del manifest["tensors"]
    edit(arrays)
    bad = tmp_path / "adapters.ckpt"
    checkpoint.write_checkpoint(bad, manifest, arrays.items())
    base, _ = checkpoint.load_model(fresh_lora_run / "model.ckpt")
    with pytest.raises(checkpoint.CheckpointError, match=re.escape(message)):
        load_adapters(bad, base)
    assert run("merge", "--base", fresh_lora_run / "model.ckpt",
               "--adapters", bad, "--out", tmp_path / "merged.ckpt") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "merged.ckpt").exists()


@pytest.mark.parametrize("flag", ["dropped", 0, "no", None], ids=repr)
def test_merged_checkpoint_with_a_damaged_flag_is_not_merged_again(
        fresh_lora_run, tmp_path, flag):
    merged = tmp_path / "merged.ckpt"
    assert run("merge", "--base", fresh_lora_run / "model.ckpt",
               "--adapters", fresh_lora_run / "adapters.ckpt",
               "--out", merged) == 0

    def edit(m):
        if flag == "dropped":
            del m["merged_adapters"]
        else:
            m["merged_adapters"] = flag

    merged.write_bytes(repack_checkpoint(merged, edit))
    assert run("merge", "--base", merged,
               "--adapters", fresh_lora_run / "adapters.ckpt",
               "--out", tmp_path / "again.ckpt") == 2
    assert not (tmp_path / "again.ckpt").exists()


def test_eval_applies_no_adapters_to_a_merged_checkpoint(fresh_lora_run,
                                                        tmp_path, capsys):
    merged = tmp_path / "merged.ckpt"
    adapters = fresh_lora_run / "adapters.ckpt"
    assert run("merge", "--base", fresh_lora_run / "model.ckpt",
               "--adapters", adapters, "--out", merged) == 0
    capsys.readouterr()
    assert run("eval", "--config", fresh_lora_run.parent / "m.json",
               "--checkpoint", merged, "--adapters", adapters,
               "--out", tmp_path / "ev") == 2
    assert "already has adapters merged in" in capsys.readouterr().err
    assert not (tmp_path / "ev" / "eval.json").exists()


@pytest.mark.parametrize("meta", [[1, 2], "x", {"model_digest": 5},
                                  {"digest": ["a"]}, {"epsilon": float("nan")}],
                         ids=repr)
def test_malformed_importance_meta_exits_2(config_path, tmp_path, capsys,
                                           meta):
    imp = tmp_path / "imp"
    assert run("importance", "--config", config_path, "--out", imp) == 0
    if isinstance(meta, dict):
        meta = {**json.loads((imp / "importance_meta.json").read_text()),
                **meta}
    (imp / "importance_meta.json").write_text(json.dumps(meta))
    assert run("prune", "--config", config_path,
               "--checkpoint", imp / "model.ckpt",
               "--importance", imp / "importance.csv",
               "--out", tmp_path / "pruned") == 2
    assert "importance_meta.json" in capsys.readouterr().err
    assert not (tmp_path / "pruned" / "pruned.ckpt").exists()


@pytest.mark.parametrize("meta", [None, "no digest"], ids=repr)
def test_importance_meta_without_digest_exits_2(config_path, tmp_path, capsys,
                                                meta):
    imp = tmp_path / "imp"
    assert run("importance", "--config", config_path, "--out", imp) == 0
    if meta is not None:
        meta = json.loads((imp / "importance_meta.json").read_text())
        del meta["digest"]
    (imp / "importance_meta.json").write_text(json.dumps(meta))
    assert run("prune", "--config", config_path,
               "--checkpoint", imp / "model.ckpt",
               "--importance", imp / "importance.csv",
               "--out", tmp_path / "pruned") == 2
    assert "importance_meta.json" in capsys.readouterr().err
    assert not (tmp_path / "pruned" / "pruned.ckpt").exists()


def test_merged_eval_matches_adapter_eval_exactly(config_path, tmp_path):
    out = tmp_path / "run"
    assert run("train", "--config", config_path, "--out", out) == 0
    merged_path = out / "merged.ckpt"
    assert run("merge", "--base", out / "model.ckpt",
               "--adapters", out / "adapters.ckpt", "--out", merged_path) == 0

    ev_a, ev_m = tmp_path / "ev_a", tmp_path / "ev_m"
    assert run("eval", "--config", config_path, "--checkpoint",
               out / "model.ckpt", "--adapters", out / "adapters.ckpt",
               "--out", ev_a, "--dump-logits", ev_a / "logits.csv") == 0
    assert run("eval", "--config", config_path, "--checkpoint", merged_path,
               "--out", ev_m, "--dump-logits", ev_m / "logits.csv") == 0

    la = import_importance_csv(ev_a / "logits.csv")
    lm = import_importance_csv(ev_m / "logits.csv")
    assert np.abs(la - lm).max() < 1e-10
    assert np.array_equal(la.argmax(axis=1), lm.argmax(axis=1))
    acc_a = json.loads((ev_a / "eval.json").read_text())["accuracy"]
    acc_m = json.loads((ev_m / "eval.json").read_text())["accuracy"]
    assert acc_a == acc_m


def test_masked_and_sliced_checkpoints_eval_identically(config_path, tmp_path):
    from prunelora import apply_mask_prune, select_heads

    imp = tmp_path / "imp"
    assert run("importance", "--config", config_path, "--out", imp) == 0
    pr = tmp_path / "pr"
    assert run("prune", "--config", config_path,
               "--checkpoint", imp / "model.ckpt",
               "--importance", imp / "importance.csv", "--out", pr) == 0

    # build the masked twin of the sliced checkpoint
    base, _ = checkpoint.load_model(imp / "model.ckpt")
    final = import_importance_csv(imp / "importance.csv")
    plan = select_heads(final, 12)
    masked, _ = apply_mask_prune(base, plan)
    masked_path = tmp_path / "masked.ckpt"
    checkpoint.save_model(masked_path, masked)

    ev_m, ev_s = tmp_path / "ev_m", tmp_path / "ev_s"
    assert run("eval", "--config", config_path, "--checkpoint", masked_path,
               "--out", ev_m, "--dump-logits", ev_m / "logits.csv") == 0
    assert run("eval", "--config", config_path,
               "--checkpoint", pr / "pruned.ckpt",
               "--out", ev_s, "--dump-logits", ev_s / "logits.csv") == 0
    lm = import_importance_csv(ev_m / "logits.csv")
    ls = import_importance_csv(ev_s / "logits.csv")
    assert np.abs(lm - ls).max() < 1e-9


def test_report_toy_breakdown_sums(config_path, tmp_path):
    out = tmp_path / "rep"
    assert run("report", "--config", config_path, "--out", out) == 0
    payload = json.loads((out / "params_report.json").read_text())
    full = payload["full_finetune"]
    assert sum(full["components"].values()) == full["total_params"]
    assert (out / "params_table.txt").exists()


def test_report_flops_per_token_at_max_positions(config_path, tmp_path):
    """Every row gives the forward FLOPs per token of a sequence of the
    model's max_positions (16 here), the longest one it runs."""
    imp = tmp_path / "imp"
    assert run("importance", "--config", config_path, "--out", imp) == 0
    out = tmp_path / "rep"
    assert run("report", "--config", config_path, "--out", out,
               "--checkpoint", imp / "model.ckpt") == 0
    payload = json.loads((out / "params_report.json").read_text())
    cfg = load_run_config(config_path).model
    assert cfg.max_positions == 16
    full = estimate_flops(cfg, None, 16).total_flops // 16
    assert payload["full_finetune"]["forward_flops_per_token"] == full == 337_704
    assert payload["lora"]["forward_flops_per_token"] == full
    assert payload["model.ckpt"]["forward_flops_per_token"] == full
    assert payload["pruned"]["forward_flops_per_token"] == \
        estimate_flops(cfg, 12, 16).total_flops // 16


def test_report_reference_dry_run_values(tmp_path, capsys):
    cfg_path = tmp_path / "ref.json"
    cfg_path.write_text(json.dumps({
        "seed": 0,
        "model": {"preset": "reference"},
        "prune": {"keep_count": 100},
        "rank": {"n_high": 4, "rank_high": 8, "rank_low": 4},
    }), encoding="utf-8")
    out = tmp_path / "rep"
    assert run("report", "--config", cfg_path, "--out", out, "--dry-run") == 0
    payload = json.loads((out / "params_report.json").read_text())
    assert payload["full_finetune"]["total_params"] == 109_482_240
    assert payload["pruned"]["total_params"] == 100_823_040
    assert payload["lora"]["trainable_params"] == 431_616
    stdout = capsys.readouterr().out
    assert "101.29" in stdout and "100,823,040" in stdout
    assert "308.7" in stdout


def test_report_checkpoint_walk(config_path, tmp_path):
    imp = tmp_path / "imp"
    assert run("importance", "--config", config_path, "--out", imp) == 0
    out = tmp_path / "rep"
    assert run("report", "--config", config_path, "--out", out,
               "--checkpoint", imp / "model.ckpt") == 0
    payload = json.loads((out / "params_report.json").read_text())
    assert payload["model.ckpt"]["total_params"] == 206_466


def test_tsv_pipeline_end_to_end(tmp_path):
    train_tsv = tmp_path / "train.tsv"
    eval_tsv = tmp_path / "eval.tsv"
    rng = np.random.default_rng(0)
    words = ["red", "green", "blue", "amber", "teal"]
    for path, n in ((train_tsv, 48), (eval_tsv, 16)):
        lines = []
        for i in range(n):
            text = " ".join(rng.choice(words, size=6))
            lines.append(f"{i % 2}\t{text}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    cfg = write_config(tmp_path / "tsv.json",
                       task=None,
                       tsv={"train": str(train_tsv), "eval": str(eval_tsv)},
                       train={"regime": "full_finetune", "epochs": 1},
                       model={"vocab_size": 32, "max_positions": 16})
    out = tmp_path / "run"
    assert run("train", "--config", cfg, "--out", out) == 0
    assert (out / "vocab.tsv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["epochs"] == 1
    vocab_lines = (out / "vocab.tsv").read_text().splitlines()
    assert vocab_lines[0] == "<pad>\t0"
    assert vocab_lines[2] == "<cls>\t2"


def test_tsv_missing_file_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "bad.json", task=None,
                       tsv={"train": "nope.tsv", "eval": "nope.tsv"})
    assert run("train", "--config", cfg, "--out", tmp_path / "x") == 2


def write_tsv(path, labels):
    path.write_text("".join(f"{y}\tred green blue\n" for y in labels),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["train", "importance", "eval"])
@pytest.mark.parametrize("source", ["task", "tsv-train", "tsv-eval"])
def test_labels_beyond_model_classes_are_config_errors(tmp_path, capsys,
                                                       command, source):
    """Labels the classifier cannot score are refused when the config or the
    data is read, not by the loss in the middle of a run."""
    if source == "task":
        cfg = write_config(tmp_path / "c.json",
                           task={"kind": "majority-token", "num_classes": 3})
        named = "task.num_classes 3"
    else:
        bad = [0, 1, 2, 1]
        train_tsv = write_tsv(tmp_path / "train.tsv",
                              bad if source == "tsv-train" else [0, 1])
        eval_tsv = write_tsv(tmp_path / "eval.tsv",
                             bad if source == "tsv-eval" else [0, 1])
        cfg = write_config(tmp_path / "c.json", task=None,
                           tsv={"train": str(train_tsv), "eval": str(eval_tsv)})
        named = f"{tmp_path / source.replace('tsv-', '')}.tsv: label 2"
    extra = []
    if command == "eval":
        good = write_config(tmp_path / "good.json")
        assert run("importance", "--config", good, "--out", tmp_path / "m") == 0
        extra = ["--checkpoint", tmp_path / "m" / "model.ckpt"]
    capsys.readouterr()
    assert run(command, "--config", cfg, "--out", tmp_path / "x", *extra) == 2
    err = capsys.readouterr().err
    assert named in err and "model.num_classes 2" in err


def test_eval_dump_logits_runs_the_eval_set_once(config_path, tmp_path,
                                                 monkeypatch):
    imp, ev = tmp_path / "imp", tmp_path / "ev"
    assert run("importance", "--config", config_path, "--out", imp) == 0
    calls = []
    forward = training.forward
    monkeypatch.setattr(training, "forward",
                        lambda *a, **k: calls.append(1) or forward(*a, **k))
    assert run("eval", "--config", config_path, "--checkpoint",
               imp / "model.ckpt", "--out", ev,
               "--dump-logits", ev / "logits.csv") == 0
    assert len(calls) == 2  # 64 eval rows in batches of 32
    monkeypatch.undo()
    # the one pass gives evaluate's accuracy and loss and predict's logits
    weights, _ = checkpoint.load_model(imp / "model.ckpt")
    _, eval_data = load_datasets(load_run_config(config_path))
    acc, loss = training.evaluate(weights, eval_data, None, 32)
    assert json.loads((ev / "eval.json").read_text()) == {
        "accuracy": acc, "loss": loss, "examples": 64}
    assert (ev / "logits.csv").read_text() == matrix_to_csv(
        training.predict(weights, eval_data, None, 32))


def test_eval_checkpoint_with_fewer_classes_is_config_error(tmp_path, capsys):
    """A 2-class checkpoint cannot score the labels of a 3-class config."""
    good = write_config(tmp_path / "good.json")
    assert run("importance", "--config", good, "--out", tmp_path / "m") == 0
    cfg = write_config(tmp_path / "c.json", model={"num_classes": 3},
                       task={"kind": "majority-token", "num_classes": 3})
    capsys.readouterr()
    assert run("eval", "--config", cfg, "--out", tmp_path / "x",
               "--checkpoint", tmp_path / "m" / "model.ckpt") == 2
    err = capsys.readouterr().err
    assert "scores 2 classes" in err and "model.num_classes 3" in err


def test_errors_exit_nonzero(config_path, tmp_path):
    assert run("report", "--config", tmp_path / "missing.json",
               "--out", tmp_path / "x") == 2
    assert run("eval", "--config", config_path,
               "--checkpoint", tmp_path / "missing.ckpt",
               "--out", tmp_path / "y") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    assert run("train", "--config", bad, "--out", tmp_path / "z") == 2


BAD_CONFIGS = {
    "train.epocs": {"train": {"epocs": 3}},
    "rank.n_hihg": {"rank": {"n_hihg": 2}},
    "model.hiden": {"model": {"hiden": 64}},
    "task.seqlen": {"task": {"seqlen": 8}},
    "tsak": {"tsak": {"kind": "parity"}},
    "train.keep_count": {"train": {"keep_count": 12}},  # belongs in prune
    "train": {"train": [1]},
    "rank.n_high": {"rank": {"n_high": "2"}},
    "importance.batch_size": {"importance": {"batch_size": 3.5}},
}


# case -> (config key, the JSON literal written for it); `json` reads each
NON_FINITE_FLOATS = {
    "importance.epsilon NaN": ("importance.epsilon", "NaN"),
    "train.learning_rate NaN": ("train.learning_rate", "NaN"),
    "train.weight_decay -Infinity": ("train.weight_decay", "-Infinity"),
    "model.init_std 1e400": ("model.init_std", "1e400"),
    "model.layernorm_eps 10 ** 400": ("model.layernorm_eps", "1" + "0" * 400),
}


@pytest.mark.parametrize("case", list(NON_FINITE_FLOATS))
def test_non_finite_config_float_exits_2_and_names_it(tmp_path, capsys, case):
    named, literal = NON_FINITE_FLOATS[case]
    section, key = named.split(".")
    cfg = write_config(tmp_path / "bad.json", **{section: {key: "VALUE"}})
    cfg.write_text(cfg.read_text().replace('"VALUE"', literal))
    assert run("train", "--config", cfg, "--out", tmp_path / "x") == 2
    assert f"'{named}'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# case -> (config key, value, the TrainConfig field the error names)
OUT_OF_RANGE = {
    "train.learning_rate -0.5": ("train.learning_rate", -0.5, "learning_rate"),
    "train.learning_rate 0": ("train.learning_rate", 0.0, "learning_rate"),
    "train.weight_decay -3": ("train.weight_decay", -3, "weight_decay"),
    "importance.sample_size -3": ("importance.sample_size", -3,
                                  "importance_sample_size"),
    "importance.sample_size 0": ("importance.sample_size", 0,
                                 "importance_sample_size"),
    "prune.keep_count -1": ("prune.keep_count", -1, "keep_count"),
    "rank.n_high -1": ("rank.n_high", -1, "n_high"),
    "rank.rank_low 0": ("rank.rank_low", 0, "rank_low"),
    "rank.rank_high 3": ("rank.rank_high", 3, "rank_high"),
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE))
@pytest.mark.parametrize("command", ["train", "importance", "report"])
def test_out_of_range_train_knob_exits_2_and_names_it(tmp_path, capsys, case,
                                                      command):
    named, value, field = OUT_OF_RANGE[case]
    section, key = named.split(".")
    cfg = write_config(tmp_path / "bad.json", **{section: {key: value}})
    assert run(command, "--config", cfg, "--out", tmp_path / "x") == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("named", list(BAD_CONFIGS))
def test_bad_config_key_exits_2_and_names_it(tmp_path, capsys, named):
    cfg = write_config(tmp_path / "bad.json", **BAD_CONFIGS[named])
    assert run("train", "--config", cfg, "--out", tmp_path / "x") == 2
    assert f"'{named}'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
