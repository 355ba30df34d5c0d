"""Self-tests of the benchmark: its checks fire on broken outputs, traced
self times are consistent, and it prints exactly the declared metrics.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (pins BLAS threads, finds src/)

run.import_package()

import calibrate  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
from tracing import Span, Tracer, self_times_ns  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from prunelora import (  # noqa: E402
    ModelConfig,
    SyntheticTaskSpec,
    autograd,
    cli,
    generate,
    init_weights,
    lora,
    pruning,
    training,
)
from prunelora.importance import block_importance, estimate_importance  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def small():
    cfg = ModelConfig(num_layers=2, num_heads=2, hidden=8, ffn_dim=16,
                      vocab_size=13, max_positions=8, num_classes=2,
                      init_std=0.1)
    train, _ = generate(SyntheticTaskSpec(kind="parity", seq_len=4,
                                          vocab_size=13, seed=3,
                                          train_size=16, eval_size=4))
    weights = init_weights(cfg, seed=1)
    imap = estimate_importance(weights, train, batch_size=8)
    plan = pruning.select_heads(imap, 3)
    rank_plan = lora.make_rank_plan(block_importance(imap), 1, 2, 1)
    return weights, train, imap, plan, rank_plan


def _trained_adapters(weights, rank_plan):
    adapters = lora.init_adapters(weights, rank_plan, seed=2)
    rng = np.random.default_rng(0)
    for t in adapters.all_tensors():
        t.data = t.data + rng.normal(0.0, 0.05, size=t.data.shape)
    return adapters


# ---------------------------------------------------------------------------
# each check passes on a correct output and fails on a broken one


def test_mask_slice_check(small):
    weights, batch, _, plan, _ = small
    assert checks.check_mask_slice(weights, plan, batch)[0]
    masked, mask = pruning.apply_mask_prune(weights, plan)
    sliced = pruning.apply_slice_prune(weights, plan)
    sliced.blocks[0].wv.data[0, 0] += 1e-4
    assert not checks.mask_slice_agree(
        checks.logits(masked, batch, mask=mask),
        checks.logits(sliced, batch))[0]


def test_zero_b_check_fires_on_flipped_entry(small):
    weights, batch, _, _, rank_plan = small
    adapters = lora.init_adapters(weights, rank_plan, seed=2)
    assert checks.check_zero_b(weights, adapters, batch)[0]
    b = adapters.for_block(0)["q"][1]
    b.data[0, 0] = 1e-3
    assert not checks.check_zero_b(weights, adapters, batch)[0]


def test_merge_check_fires_on_perturbed_merged_weight(small):
    weights, batch, _, _, rank_plan = small
    adapters = _trained_adapters(weights, rank_plan)
    assert checks.check_merge(weights, adapters, batch)[0]
    merged = lora.merge_adapters(weights, adapters)
    merged.blocks[1].wv.data[0, 0] += 1e-7
    assert not checks.merge_exact(
        checks.logits(merged, batch),
        checks.logits(weights, batch, adapters=adapters))[0]


def test_param_count_check_fires_on_extra_tensor_entries(small):
    weights, _, _, plan, rank_plan = small
    sliced = pruning.apply_slice_prune(weights, plan)
    adapters = lora.init_adapters(sliced, rank_plan, seed=2)
    assert checks.check_param_count(weights)[0]
    assert checks.check_param_count(sliced, adapters)[0]
    grown = weights.clone()
    grown.pooler_b.data = np.zeros(grown.pooler_b.data.size + 1)
    assert not checks.check_param_count(grown)[0]


def test_importance_range_check(small):
    assert checks.importance_in_unit_range(small[2].final)[0]
    assert not checks.importance_in_unit_range(np.array([[0.0, 0.9]]))[0]
    assert not checks.importance_in_unit_range(np.array([[0.1, 1.0]]))[0]
    assert not checks.importance_in_unit_range(np.array([[0.0, 1.0, 1.2]]))[0]
    assert not checks.importance_in_unit_range(np.array([[0.0, np.nan, 1.0]]))[0]


def test_losses_finite_check():
    assert checks.losses_finite([0.7, 0.6])[0]
    assert not checks.losses_finite([0.7, float("nan")])[0]
    assert not checks.losses_finite([float("inf")])[0]
    assert not checks.losses_finite([])[0]


def test_mac_check_fires_on_wrong_count(small):
    weights, batch, _, plan, _ = small
    ok, _, macs = checks.check_macs(weights, batch, None)
    assert ok
    sliced = pruning.apply_slice_prune(weights, plan)
    assert checks.check_macs(sliced, batch, plan.kept_per_block())[0]
    from prunelora import accounting

    flops = accounting.estimate_flops(weights.config, None,
                                      batch.token_ids.shape[1])
    assert checks.macs_reconcile(macs, batch.size, flops.matmul_flops)[0]
    assert not checks.macs_reconcile(macs + 1, batch.size,
                                     flops.matmul_flops)[0]
    # the unpruned count does not reconcile against the sliced estimate
    sliced_flops = accounting.estimate_flops(weights.config,
                                             plan.kept_per_block(),
                                             batch.token_ids.shape[1])
    assert not checks.macs_reconcile(macs, batch.size,
                                     sliced_flops.matmul_flops)[0]


def test_tsv_round_trip_check(small):
    batch = small[1]
    assert checks.tsv_round_trip(batch, batch)[0]
    flipped = batch.slice(0, batch.size)
    flipped.labels = 1 - flipped.labels
    assert not checks.tsv_round_trip(batch, flipped)[0]


def _relu_without_mask(x):
    """relu whose backward forgets the mask: a wrong gradient."""
    x = autograd._as_tensor(x)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g)

    return autograd._from_op(np.where(x.data > 0, x.data, 0.0), (x,), bwd)


def test_reference_loss_matches_and_catches_wrong_gradient(monkeypatch):
    w = WORKLOADS["toy-train"]
    ref = checks.load_reference()
    expected = ref["final_train_loss"][w.name]["full_finetune"]
    report, _, _ = reference.reference_run(w, "full_finetune")
    assert checks.loss_matches_reference(report.train_loss[-1], expected,
                                         ref["rtol"])[0]
    monkeypatch.setattr(autograd, "relu", _relu_without_mask)
    broken, _, _ = reference.reference_run(w, "full_finetune")
    assert not checks.loss_matches_reference(broken.train_loss[-1], expected,
                                             ref["rtol"])[0]


def test_reference_covers_every_workload_and_regime():
    ref = checks.load_reference()["final_train_loss"]
    assert set(ref) == set(WORKLOADS)
    for losses in ref.values():
        assert set(losses) == {"full_finetune", "lora", "prune_lora"}


# ---------------------------------------------------------------------------
# tracing


def test_self_time_never_exceeds_span_duration(small, tmp_path):
    weights, batch, _, _, _ = small
    tracer = Tracer()
    tracer.install()
    try:
        tracer.set_run("epoch.full_finetune")
        w = weights.clone()
        training.freeze_policy(w, None, "full_finetune")
        training.train(w, training.TrainConfig(epochs=2, batch_size=8),
                       batch, batch.slice(0, 1), log=None)
        tracer.set_run("pipeline")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": dict(num_layers=2, num_heads=2,
                                                 hidden=8, ffn_dim=16,
                                                 vocab_size=13,
                                                 max_positions=8)}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["report", "--config", str(cfg),
                             "--out", str(tmp_path / "r")]) == 0
    finally:
        tracer.uninstall()

    spans = tracer.spans
    assert any(s.name == "cli.cmd_report" for s in spans)
    assert any(s.name == "training.AdamW.step" for s in spans)
    selfs = self_times_ns(spans)
    for s in spans:
        assert 0 <= selfs[s.id] <= s.end_ns - s.start_ns, s
    roots = [s for s in spans if s.parent < 0]
    assert sum(selfs.values()) == sum(s.end_ns - s.start_ns for s in roots)
    steps = layers.training_steps_ms(
        spans, {p: [c for c in spans if c.parent == p]
                for p in {s.id for s in spans}}, "epoch.full_finetune")
    assert len(steps) == 4  # 2 epochs x 2 batches of 8


def test_self_times_on_nested_spans():
    spans = [Span(1, "c", "m", 10, 20, 0, "r", 0),
             Span(2, "c", "m", 25, 40, 0, "r", 0),
             Span(3, "g", "m", 30, 35, 2, "r", 0),
             Span(0, "p", "m", 0, 100, -1, "r", 0)]
    assert self_times_ns(spans) == {0: 75, 1: 10, 2: 10, 3: 5}


def test_uninstall_restores_every_binding():
    before = (training.forward, training.train, training.AdamW.step,
              autograd.backward, cli.cmd_train)
    tracer = Tracer()
    tracer.install()
    assert training.forward is not before[0]
    assert training.AdamW.step is not before[2]
    tracer.uninstall()
    after = (training.forward, training.train, training.AdamW.step,
             autograd.backward, cli.cmd_train)
    assert all(a is b for a, b in zip(before, after))


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1, 41))  # 40 samples: p75 leaves 10 beyond
    assert layers.tail_percentile(values)[1] == 75.0
    assert layers.tail_percentile(list(range(1000)))[1] == 99.0
    assert layers.tail_percentile([1.0, 2.0, 3.0]) == (3.0, 100.0)


# ---------------------------------------------------------------------------
# host-speed normalisation


def test_speed_factor_uses_the_probes_around_the_sample(monkeypatch):
    times = iter([0.04, 0.06])
    monkeypatch.setattr(calibrate, "probe_seconds", lambda d: next(times))
    speed = calibrate.Speed(None)
    speed.begin()
    assert speed.factor() == pytest.approx(
        calibrate.PROBE_REFERENCE_S / 0.05)
    assert speed.probes == [0.04, 0.06]


def test_fresh_probe_is_reused_and_stale_one_replaced(monkeypatch):
    times = iter([0.02, 0.03, 0.05])
    monkeypatch.setattr(calibrate, "probe_seconds", lambda d: next(times))
    speed = calibrate.Speed(None)
    speed.begin()
    speed.factor()
    speed.begin()  # the probe that just ended stands for this sample
    assert speed.probes == [0.02, 0.03]
    speed.before = (speed.before[0], speed.before[1]
                    - 2 * calibrate.PROBE_MAX_AGE_S)
    speed.begin()
    assert speed.probes == [0.02, 0.03, 0.05]


def test_probe_never_touches_the_package(tmp_path):
    source = (BENCH_DIR / "calibrate.py").read_text()
    assert "import prunelora" not in source
    assert "from prunelora" not in source
    assert calibrate.probe_seconds(tmp_path) > 0
    assert list(tmp_path.iterdir()) == []  # the probe file is removed


# ---------------------------------------------------------------------------
# the command prints exactly the declared metrics


def test_declared_workloads_match_definitions():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-train",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    declared = {m["name"]: m["unit"]
                for m in DECLARED["per_layer" if trace else "end_to_end"]}
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith("metric ")}
    assert printed == declared
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] != 0 for k, v in result["metrics"].items()
               if k in {m["name"] for m in DECLARED["end_to_end"]})
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    for key in ("nproc", "python", "numpy", "openblas", "blas_threads",
                "seed", "commit"):
        assert key in env
