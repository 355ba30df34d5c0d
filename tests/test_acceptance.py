"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
The training criteria (9, 11) run real regimes and take a few minutes of
one CPU core; everything else is seconds.
"""

import json
import time
from dataclasses import replace
from functools import wraps

import numpy as np

from prunelora import autograd as ag
from prunelora import (
    HeadMask,
    ModelConfig,
    PrunePlan,
    SyntheticTaskSpec,
    TrainConfig,
    apply_mask_prune,
    apply_slice_prune,
    count_params,
    estimate_importance,
    forward,
    generate,
    init_weights,
    merge_adapters,
    run_regime,
    train,
)
from prunelora.accounting import (
    REPORTED_PRUNE_LORA_TRAINABLE,
    REPORTED_PRUNED_PARAMS,
)
from prunelora.autograd import Tensor
from prunelora.cli import main
from prunelora.data import batches
from prunelora.importance import estimate_raw_importance, minmax_normalize
from prunelora.training import predict

from conftest import write_config

TOY = dict(num_layers=4, num_heads=4, hidden=64, ffn_dim=256,
           vocab_size=16, max_positions=16, num_classes=2)


def criterion(number, title):
    def wrap(fn):
        @wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL: {title}", flush=True)
                raise
            extra = f" ({detail})" if detail else ""
            print(f"ACCEPTANCE {number:2d} PASS: {title}{extra}", flush=True)
        return run
    return wrap


@criterion(1, "unpruned reference accounting returns exactly 109,482,240 in < 1 s")
def test_criterion_1_reference_param_count(tmp_path):
    cfg_path = tmp_path / "ref.json"
    cfg_path.write_text(json.dumps({"seed": 0, "model": {"preset": "reference"}}),
                        encoding="utf-8")
    start = time.perf_counter()
    assert main(["report", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out"), "--dry-run"]) == 0
    elapsed = time.perf_counter() - start
    payload = json.loads((tmp_path / "out" / "params_report.json").read_text())
    assert payload["full_finetune"]["total_params"] == 109_482_240
    assert elapsed < 1.0
    return f"109,482,240 in {elapsed:.2f}s"


@criterion(2, "pruned reference accounting returns exactly 100,823,040 with "
             "the reported-101.29M note, in < 1 s")
def test_criterion_2_pruned_param_count(tmp_path, capsys):
    cfg_path = tmp_path / "ref.json"
    cfg_path.write_text(json.dumps({
        "seed": 0, "model": {"preset": "reference"},
        "prune": {"keep_count": 100},
    }), encoding="utf-8")
    start = time.perf_counter()
    assert main(["report", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out"), "--dry-run"]) == 0
    elapsed = time.perf_counter() - start
    stdout = capsys.readouterr().out
    payload = json.loads((tmp_path / "out" / "params_report.json").read_text())
    assert payload["pruned"]["total_params"] == 100_823_040
    assert "100,823,040" in stdout
    assert REPORTED_PRUNED_PARAMS in stdout  # the published figure, side by side
    assert "not reconciled" in stdout
    assert elapsed < 1.0
    return f"100,823,040 vs reported {REPORTED_PRUNED_PARAMS}, {elapsed:.2f}s"


@criterion(3, "4-bytes/param weight memory within 1% of the reported 418.7 MB")
def test_criterion_3_weight_memory():
    rep = count_params(ModelConfig.reference())
    mb = rep.weight_bytes_f32 / 2**20
    assert abs(mb - 418.7) / 418.7 < 0.01
    return f"{mb:.1f} MB vs 418.7 MB"


@criterion(4, "per-head importance matches mask finite differences "
             "(rel err < 1e-3, every head, toy config)")
def test_criterion_4_importance_gradient():
    start = time.perf_counter()
    cfg = ModelConfig(**TOY)
    weights = init_weights(cfg, seed=0)
    spec = SyntheticTaskSpec(kind="parity", seq_len=8, vocab_size=16, seed=0,
                             train_size=32, eval_size=8)
    train, _ = generate(spec)
    batch = train.slice(0, 32)
    raw, tokens = estimate_raw_importance(weights, batch, batch_size=32)

    def loss_at(xi):
        mask = HeadMask(Tensor(xi, requires_grad=False))
        with ag.no_grad():
            return float(ag.cross_entropy(
                forward(weights, batch, mask=mask), batch.labels).data)

    h = 1e-4
    worst = 0.0
    for l in range(cfg.num_layers):
        for i in range(cfg.num_heads):
            xi = np.ones((cfg.num_layers, cfg.num_heads))
            xi[l, i] = 1 + h
            up = loss_at(xi)
            xi[l, i] = 1 - h
            down = loss_at(xi)
            fd = abs((up - down) / (2 * h)) / tokens
            worst = max(worst, abs(fd - raw[l, i]) / max(fd, 1e-12))
    elapsed = time.perf_counter() - start
    assert worst < 1e-3
    assert elapsed < 120
    return f"worst rel err {worst:.2e} in {elapsed:.1f}s"


@criterion(5, "normalization: [0,1] range, 0 and 1 attained, invariant under "
             "positive scaling (100 random maps)")
def test_criterion_5_normalization_invariants():
    rng = np.random.default_rng(0)
    for trial in range(100):
        raw = rng.uniform(0, rng.uniform(0.1, 10), (4, 4))
        if trial % 7 == 0:
            raw = np.full((4, 4), raw[0, 0])  # degenerate: constant map
        final = minmax_normalize(raw)
        assert final.min() >= 0.0 and final.max() <= 1.0
        if raw.max() > raw.min():
            assert final.min() == 0.0 and final.max() == 1.0
        else:
            assert np.all(final == 0.0)
        scale = float(rng.uniform(1e-3, 1e3))
        rescaled = minmax_normalize(scale * raw)
        assert np.abs(final - rescaled).max() < 1e-12
    return "100 maps"


@criterion(6, "mask/slice equivalence within 1e-9 on 25 random plans "
             "(zero-head blocks included)")
def test_criterion_6_mask_slice_equivalence():
    spec = SyntheticTaskSpec(kind="first-last-match", seq_len=8, vocab_size=16,
                             seed=1, train_size=8, eval_size=8)
    train, _ = generate(spec)
    batch = train.slice(0, 8)
    rng = np.random.default_rng(2)
    cfg = ModelConfig(**TOY)
    worst = 0.0
    for trial in range(25):
        weights = init_weights(cfg, seed=trial)
        keep = rng.random((4, 4)) > 0.35
        if trial % 5 == 0:
            keep[int(rng.integers(0, 4)), :] = False  # a zero-head block
        plan = PrunePlan(keep=keep, keep_count=int(keep.sum()))
        masked, mask = apply_mask_prune(weights, plan)
        sliced = apply_slice_prune(weights, plan)
        lm = forward(masked, batch, mask=mask).data
        ls = forward(sliced, batch).data
        worst = max(worst, float(np.abs(lm - ls).max()))
    assert worst < 1e-9
    return f"worst |diff| {worst:.2e}"


@criterion(7, "fresh adapters change no logit; after 200 steps merged and "
             "adapter models agree within 1e-10 with identical labels")
def test_criterion_7_lora_zero_start_and_merge():
    cfg = ModelConfig(**TOY)
    spec = SyntheticTaskSpec(kind="majority-token", seq_len=9, vocab_size=16,
                             seed=0, train_size=256, eval_size=128)
    train, eval_ = generate(spec)

    # zero-start: untouched logits before any training
    tc = TrainConfig(regime="prune_lora", epochs=0, learning_rate=2e-3,
                     batch_size=32, seed=0, keep_count=12, n_high=2)
    _, art = run_regime(cfg, tc, train, eval_, log=None)
    base_logits = predict(art.weights, eval_)
    adapter_logits = predict(art.weights, eval_, adapters=art.adapters)
    assert np.array_equal(base_logits, adapter_logits)

    # 256 examples / batch 32 = 8 steps per epoch; 25 epochs = 200 steps
    tc = TrainConfig(regime="prune_lora", epochs=25, learning_rate=2e-3,
                     batch_size=32, seed=0, eval_every=25, keep_count=12,
                     n_high=2)
    report, art = run_regime(cfg, tc, train, eval_, log=None)
    assert report.step_count == 200
    merged = merge_adapters(art.weights, art.adapters)
    via_adapters = predict(art.weights, eval_, adapters=art.adapters)
    via_merged = predict(merged, eval_)
    diff = float(np.abs(via_adapters - via_merged).max())
    assert diff < 1e-10
    assert np.array_equal(via_adapters.argmax(axis=1), via_merged.argmax(axis=1))
    return f"200 steps, merge |diff| {diff:.2e}, labels identical"


@criterion(8, "freeze policy: frozen tensors bit-identical through training; "
             "reference trainable fraction < 1%")
def test_criterion_8_freeze_policy():
    cfg = ModelConfig(**TOY)
    spec = SyntheticTaskSpec(kind="majority-token", seq_len=9, vocab_size=16,
                             seed=0, train_size=128, eval_size=64)
    train, eval_ = generate(spec)
    for regime in ("lora", "prune_lora"):
        tc = TrainConfig(regime=regime, epochs=2, learning_rate=2e-3,
                         batch_size=32, seed=0, eval_every=2,
                         keep_count=12 if regime == "prune_lora" else None,
                         n_high=2)
        _, art = run_regime(cfg, tc, train, eval_, log=None)
        # rebuild the pre-training state and compare every frozen tensor
        fresh = init_weights(cfg, seed=0)
        if art.prune_plan is not None:
            fresh = apply_slice_prune(fresh, art.prune_plan)
        for (name, trained), (_, orig) in zip(art.weights.named_tensors(),
                                              fresh.named_tensors()):
            if not ("ln" in name or name.startswith("classifier")):
                assert np.array_equal(trained.data, orig.data), (regime, name)

    ref = ModelConfig.reference()
    rep = count_params(ref, rank_plan=[8] * 4 + [4] * 8)
    assert rep.trainable_fraction < 0.01
    print(f"    reference-geometry trainable: {rep.trainable_params:,} "
          f"({100 * rep.trainable_fraction:.2f}%), reported for this setup: "
          f"{REPORTED_PRUNE_LORA_TRAINABLE}", flush=True)
    return (f"trainable {rep.trainable_params:,} = "
            f"{100 * rep.trainable_fraction:.2f}% < 1%")


@criterion(9, "accuracy retention: full finetune >= 95% on parity and "
             "majority; prune_lora within 5 points (keep 75% of heads)")
def test_criterion_9_accuracy_retention():
    start = time.perf_counter()
    # init_std 0.1: these models train from scratch (no pretrained base),
    # and the 0.02 convention leaves them stuck at the uniform-loss plateau
    cfg = ModelConfig(**TOY, init_std=0.1)
    results = {}
    settings = {
        "parity": dict(seq_len=8, full_epochs=40, pl_epochs=40),
        "majority-token": dict(seq_len=9, full_epochs=15, pl_epochs=20),
    }
    for kind, s in settings.items():
        spec = SyntheticTaskSpec(kind=kind, seq_len=s["seq_len"], vocab_size=16,
                                 seed=0, train_size=1024, eval_size=256)
        train, eval_ = generate(spec)
        full_tc = TrainConfig(regime="full_finetune", epochs=s["full_epochs"],
                              learning_rate=5e-4, batch_size=32, seed=0,
                              eval_every=s["full_epochs"])
        full_rep, _ = run_regime(cfg, full_tc, train, eval_, log=None)
        pl_tc = TrainConfig(regime="prune_lora", epochs=s["pl_epochs"],
                            learning_rate=2e-3, batch_size=32, seed=0,
                            eval_every=s["pl_epochs"], keep_count=12,
                            n_high=2, rank_high=8, rank_low=4)
        pl_rep, art = run_regime(cfg, pl_tc, train, eval_, log=None)
        assert art.prune_plan.keep_count == 12  # 75% of 16 heads
        results[kind] = (full_rep.final_accuracy, pl_rep.final_accuracy)

    elapsed = time.perf_counter() - start
    for kind, (full_acc, pl_acc) in results.items():
        assert full_acc >= 0.95, (kind, full_acc)
        assert pl_acc >= full_acc - 0.05, (kind, full_acc, pl_acc)
    assert elapsed < 600
    detail = ", ".join(
        f"{kind}: full {fa:.3f} / prune_lora {pa:.3f}"
        for kind, (fa, pa) in results.items()
    )
    return f"{detail}, {elapsed:.0f}s"


@criterion(10, "importance maps are task-dependent: some task pair has "
              "Spearman correlation < 0.95")
def test_criterion_10_task_dependent_importance():
    from scipy.stats import spearmanr

    cfg = ModelConfig(**TOY)
    weights = init_weights(cfg, seed=0)
    kinds = ("parity", "majority-token", "first-last-match", "contains-pattern")
    maps = {}
    for kind in kinds:
        spec = SyntheticTaskSpec(kind=kind, seq_len=9, vocab_size=16, seed=0,
                                 train_size=128, eval_size=8)
        train, _ = generate(spec)
        maps[kind] = estimate_importance(weights, train).final.ravel()
    lowest = min(
        float(spearmanr(maps[a], maps[b]).statistic)
        for i, a in enumerate(kinds) for b in kinds[i + 1:]
    )
    assert lowest < 0.95
    return f"lowest pairwise Spearman {lowest:.3f}"


@criterion(11, "per-epoch wall clock: prune_lora <= lora <= full_finetune")
def test_criterion_11_training_time_ordering():
    cfg = ModelConfig(**TOY, init_std=0.1)
    spec = SyntheticTaskSpec(kind="majority-token", seq_len=9, vocab_size=16,
                             seed=0, train_size=512, eval_size=64)
    train_data, eval_ = generate(spec)
    regimes = ("full_finetune", "lora", "prune_lora")
    states = {}
    for regime in regimes:
        tc = TrainConfig(regime=regime, epochs=0, learning_rate=5e-4,
                         batch_size=32, seed=0,
                         keep_count=12 if regime == "prune_lora" else None,
                         n_high=2)
        _, art = run_regime(cfg, tc, train_data, eval_, log=None)
        states[regime] = (art, replace(tc, epochs=1))
    # one epoch per regime in turn, so host speed drift hits all three alike
    epoch_seconds = {regime: [] for regime in regimes}
    for _ in range(8):
        for regime in regimes:
            art, tc = states[regime]
            rep = train(art.weights, tc, train_data, eval_, art.adapters, log=None)
            epoch_seconds[regime] += rep.epoch_seconds
    seconds = {k: float(np.mean(v[1:])) for k, v in epoch_seconds.items()}  # drop warmup
    assert seconds["prune_lora"] <= seconds["lora"] <= seconds["full_finetune"]
    return ", ".join(f"{k} {v:.2f}s" for k, v in seconds.items())


@criterion(11, "forward MACs of one training batch: prune_lora < lora "
               "(the deterministic part of the wall-clock ordering)")
def test_criterion_11_forward_macs_ordering():
    cfg = ModelConfig(**TOY, init_std=0.1)
    spec = SyntheticTaskSpec(kind="majority-token", seq_len=9, vocab_size=16,
                             seed=0, train_size=512, eval_size=64)
    train_data, eval_ = generate(spec)
    first = next(batches(train_data, 32))
    macs = {}
    for regime in ("lora", "prune_lora"):
        tc = TrainConfig(regime=regime, epochs=0, learning_rate=5e-4,
                         batch_size=32, seed=0,
                         keep_count=12 if regime == "prune_lora" else None,
                         n_high=2)
        _, art = run_regime(cfg, tc, train_data, eval_, log=None)
        with ag.no_grad(), ag.count_macs() as counter:
            forward(art.weights, first, adapters=art.adapters)
        macs[regime] = counter.macs
    assert macs["prune_lora"] < macs["lora"]
    return (f"lora {macs['lora']:,}, prune_lora {macs['prune_lora']:,} "
            f"({macs['prune_lora'] / macs['lora']:.4f})")


@criterion(12, "pipeline commands are byte-deterministic given the config")
def test_criterion_12_determinism(tmp_path):
    cfg_path = write_config(tmp_path / "config.json")
    outputs = {}
    for run_dir in ("one", "two"):
        base = tmp_path / run_dir
        assert main(["importance", "--config", str(cfg_path),
                     "--out", str(base / "imp")]) == 0
        assert main(["prune", "--config", str(cfg_path),
                     "--checkpoint", str(base / "imp" / "model.ckpt"),
                     "--importance", str(base / "imp" / "importance.csv"),
                     "--out", str(base / "pruned")]) == 0
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(base / "train")]) == 0
        assert main(["report", "--config", str(cfg_path),
                     "--out", str(base / "report")]) == 0
        files = {}
        for path in sorted((tmp_path / run_dir).rglob("*")):
            if path.is_file() and path.name != "report_timing.json":
                files[str(path.relative_to(base))] = path.read_bytes()
        outputs[run_dir] = files
    assert outputs["one"].keys() == outputs["two"].keys()
    mismatched = [name for name in outputs["one"]
                  if outputs["one"][name] != outputs["two"][name]]
    assert mismatched == []
    return f"{len(outputs['one'])} files byte-identical"
