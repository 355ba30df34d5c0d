"""Workload definitions and the seeded inputs each one builds.

Every workload runs the same operations (one epoch per training regime,
one importance estimate, one evaluation, one CLI pipeline pass) at its own
geometry, so every metric exists on every workload; the geometry decides
which layer carries the time. The rationale for each workload lives next
to its name in BENCHMARK.json.

The package only ever receives what is built here: model configs, the
generated datasets, the TSV files written from them and the CLI config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

REGIMES = ("full_finetune", "lora", "prune_lora")

# the same on every workload
N_HIGH, RANK_HIGH, RANK_LOW = 2, 8, 4   # rank plan: 2 blocks at rank 8, rest 4
LEARNING_RATE = 5e-4
PIPELINE_EPOCHS = 1                     # epochs of the CLI `train` command


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict              # ModelConfig keyword arguments
    task_kind: str
    seq_len: int             # content tokens per row (rows add CLS)
    task_vocab: int          # token ids the generator draws from
    train_size: int          # rows per training epoch
    eval_size: int           # rows per evaluation call
    sample_size: int         # rows per importance estimate
    batch_size: int
    keep_count: int
    setup_repeats: int       # set-up is repeated and its median reported


WORKLOADS = {
    w.name: w
    for w in (
        # acceptance geometry: graph overhead dominates, GEMMs are tiny
        Workload(
            name="toy-train",
            model=dict(num_layers=4, num_heads=4, hidden=64, ffn_dim=256,
                       vocab_size=16, max_positions=16, num_classes=2,
                       init_std=0.1),
            task_kind="majority-token", seq_len=9, task_vocab=16,
            train_size=128, eval_size=256, sample_size=128, batch_size=32,
            keep_count=12, setup_repeats=9,
        ),
        # GEMM-bound: hidden 256, 8 heads, variable-length rows (real padding)
        Workload(
            name="wide-train",
            model=dict(num_layers=4, num_heads=8, hidden=256, ffn_dim=1024,
                       vocab_size=64, max_positions=64, num_classes=2,
                       init_std=0.05),
            task_kind="contains-pattern", seq_len=32, task_vocab=64,
            train_size=16, eval_size=32, sample_size=16, batch_size=8,
            keep_count=20, setup_repeats=9,
        ),
        # checkpoint-bound: the 65,536-row embedding makes each model file
        # 36 MB while a pass trains on 32 rows
        Workload(
            name="artifact-io",
            model=dict(num_layers=4, num_heads=4, hidden=64, ffn_dim=256,
                       vocab_size=65536, max_positions=32, num_classes=2,
                       init_std=0.05),
            task_kind="parity", seq_len=16, task_vocab=4096,
            train_size=32, eval_size=96, sample_size=32, batch_size=32,
            keep_count=10, setup_repeats=5,
        ),
    )
}


def model_config(w: Workload):
    from prunelora import ModelConfig

    return ModelConfig(**w.model)


def task_spec(w: Workload, seed: int, train_size: int | None = None,
              eval_size: int | None = None):
    """Synthetic task for the workload; the train split doubles as the
    importance sample, so it holds max(train_size, sample_size) rows."""
    from prunelora import SyntheticTaskSpec

    return SyntheticTaskSpec(
        kind=w.task_kind, seq_len=w.seq_len, vocab_size=w.task_vocab,
        num_classes=w.model["num_classes"], seed=seed,
        train_size=train_size or max(w.train_size, w.sample_size),
        eval_size=eval_size or w.eval_size,
    )


def train_config(w: Workload, regime: str, epochs: int, seed: int):
    from prunelora import TrainConfig

    return TrainConfig(
        regime=regime, epochs=epochs, learning_rate=LEARNING_RATE,
        batch_size=w.batch_size, seed=seed, eval_every=max(epochs, 1),
        keep_count=w.keep_count if regime == "prune_lora" else None,
        n_high=N_HIGH, rank_high=RANK_HIGH, rank_low=RANK_LOW,
        importance_sample_size=w.sample_size,
    )


def to_tsv(batch) -> str:
    """One `label<TAB>text` line per row; token id t becomes word `w<t>`."""
    lines = []
    for ids, att, label in zip(batch.token_ids, batch.attention_mask,
                               batch.labels):
        words = " ".join(f"w{t}" for t in ids[1:int(att.sum())])
        lines.append(f"{int(label)}\t{words}")
    return "\n".join(lines) + "\n"


def write_cli_config(w: Workload, seed: int, workdir: Path,
                     train_tsv: Path, eval_tsv: Path) -> Path:
    """The run config the CLI pipeline reads (prune_lora over TSV files)."""
    cfg = {
        "seed": seed,
        "model": dict(w.model),
        "tsv": {"train": str(train_tsv), "eval": str(eval_tsv)},
        "importance": {"sample_size": w.sample_size,
                       "batch_size": w.batch_size},
        "prune": {"keep_count": w.keep_count},
        "rank": {"n_high": N_HIGH, "rank_high": RANK_HIGH,
                 "rank_low": RANK_LOW},
        "train": {"regime": "prune_lora", "epochs": PIPELINE_EPOCHS,
                  "learning_rate": LEARNING_RATE,
                  "batch_size": w.batch_size,
                  "eval_every": PIPELINE_EPOCHS},
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path
