"""Command-line surface: importance | prune | train | merge | eval | report.

Every command reads one JSON run config; --seed and --out override its
seed and output directory. The config is an object with these keys:

  seed        integer, default 0
  out_dir     output directory when --out is not given
  model       ModelConfig fields: num_layers, num_heads, hidden, ffn_dim,
              vocab_size, max_positions, type_vocab, num_classes,
              layernorm_eps, init_std; and "preset" ("toy", the default,
              or "reference"), whose values the other keys override. A
              bare string is a preset name.
  task        SyntheticTaskSpec fields: kind, seq_len, train_size,
              eval_size, vocab_size, num_classes, seed (the last three
              default to the model's and the run's)
  tsv         train, eval: paths of label<TAB>text files, used when there
              is no task section
  importance  sample_size, epsilon; the importance command and train's
              lora/prune_lora regimes estimate in batches of
              train.batch_size, so they compute the same map. A
              batch_size key, if given, must equal train.batch_size
  prune       keep_count
  rank        n_high, rank_high, rank_low
  train       regime, epochs, learning_rate, weight_decay, batch_size,
              eval_every, seed (default: the run seed)

Any other key, a key in the wrong section, a section that is not an
object or a value of the wrong type is a ConfigError, and the command
exits with status 2. So is, for prune, an importance.csv that is not
finite, lies outside [0, 1] or does not hash to the digest recorded in
importance_meta.json. All outputs are deterministic functions of the config
(timing sidecars excepted, and marked as such by filename).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import accounting, checkpoint, importance, lora, pruning, training
from .data import SyntheticTaskSpec, generate, ingest_tsv, save_vocab
from .model import ModelConfig, init_weights
from .schema import ConfigError, field_types, parse_section, write_json
from .training import TrainConfig

MODEL_PRESETS = {
    "toy": {},
    "reference": ModelConfig.reference().to_dict(),
}


@dataclass
class RunConfig:
    seed: int
    model: ModelConfig
    task: SyntheticTaskSpec | None
    train: TrainConfig  # also holds the importance, prune and rank knobs
    tsv_train: str | None = None
    tsv_eval: str | None = None
    out_dir: str | None = None


# The one owner of every key in the knob sections: section -> {key:
# (owner, field)}, where owner "train" is TrainConfig and "run" RunConfig.
# The train section takes every TrainConfig field no other section claims.
KNOB_SECTIONS = {
    "importance": {"sample_size": ("train", "importance_sample_size"),
                   "epsilon": ("train", "importance_epsilon")},
    "prune": {"keep_count": ("train", "keep_count")},
    "rank": {key: ("train", key) for key in ("n_high", "rank_high", "rank_low")},
    "tsv": {"train": ("run", "tsv_train"), "eval": ("run", "tsv_eval")},
}
_MOVED = {field for keys in KNOB_SECTIONS.values() for _, field in keys.values()}
KNOB_SECTIONS["train"] = {
    name: ("train", name) for name in field_types(TrainConfig) if name not in _MOVED
}

_OWNER_TYPES = {"run": field_types(RunConfig), "train": field_types(TrainConfig)}
# section -> {key: annotation}, the schema every section is checked against
SECTION_TYPES = {
    "model": {**field_types(ModelConfig), "preset": "str"},
    "task": field_types(SyntheticTaskSpec),
    **{section: {key: _OWNER_TYPES[owner][field]
                 for key, (owner, field) in keys.items()}
       for section, keys in KNOB_SECTIONS.items()},
}
# Configs written before importance always used train.batch_size may still
# state importance.batch_size; load_run_config checks that it agrees.
SECTION_TYPES["importance"]["batch_size"] = "int"
TOP_LEVEL_TYPES = {"seed": "int", "out_dir": "str",
                   **{section: "section" for section in SECTION_TYPES}}


def _model_from_config(raw) -> ModelConfig:
    if isinstance(raw, str):
        raw = {"preset": raw}
    raw = parse_section(raw, "model", SECTION_TYPES["model"])
    preset = raw.pop("preset", "toy")
    if preset not in MODEL_PRESETS:
        raise ConfigError(f"unknown model preset {preset!r}, "
                          f"want one of {sorted(MODEL_PRESETS)}")
    return ModelConfig.from_dict({**MODEL_PRESETS[preset], **raw}, "model")


def load_run_config(path, seed_override=None, out_override=None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    raw = parse_section(raw, "", TOP_LEVEL_TYPES)
    seed = raw.get("seed", 0) if seed_override is None else seed_override
    model = _model_from_config(raw.get("model"))

    owners = {"run": {"out_dir": out_override or raw.get("out_dir")},
              "train": {"seed": seed}}
    for section, keys in KNOB_SECTIONS.items():
        values = parse_section(raw.get(section), section, SECTION_TYPES[section])
        if section == "importance":
            importance_batch = values.pop("batch_size", None)
        for key, value in values.items():
            owner, field = keys[key]
            owners[owner][field] = value

    task = None
    if raw.get("task") is not None:
        tdict = parse_section(raw["task"], "task", SECTION_TYPES["task"])
        tdict.setdefault("seed", seed)
        tdict.setdefault("vocab_size", model.vocab_size)
        tdict.setdefault("num_classes", model.num_classes)
        task = SyntheticTaskSpec.from_dict(tdict, "task")
        if task.vocab_size > model.vocab_size:
            raise ConfigError("task vocab_size exceeds model vocab_size")

    rc = RunConfig(seed=seed, model=model, task=task,
                   train=TrainConfig.from_dict(owners["train"], "train"),
                   **owners["run"])
    if importance_batch not in (None, rc.train.batch_size):
        raise ConfigError(
            f"importance.batch_size {importance_batch} != train.batch_size "
            f"{rc.train.batch_size}: importance is estimated in training batches"
        )
    # data-less configs are fine for report/prune/merge
    if task is None and raw.get("tsv") is not None:
        if not rc.tsv_train or not rc.tsv_eval:
            raise ConfigError("tsv config needs both 'train' and 'eval' paths")
        for p in (rc.tsv_train, rc.tsv_eval):
            if not Path(p).exists():
                raise ConfigError(f"tsv file does not exist: {p}")
    return rc


def load_datasets(rc: RunConfig, out_dir: Path | None = None):
    """(train, eval) TokenBatches from the task spec or TSV files."""
    if rc.task is None and rc.tsv_train is None:
        raise ConfigError("config needs either a 'task' or a 'tsv' section")
    if rc.task is not None:
        return generate(rc.task)
    train, vocab = ingest_tsv(rc.tsv_train, max_len=rc.model.max_positions)
    eval_, _ = ingest_tsv(rc.tsv_eval, vocab=vocab, max_len=rc.model.max_positions)
    if train.token_ids.max() >= rc.model.vocab_size:
        raise ConfigError(
            f"TSV vocabulary ({int(train.token_ids.max()) + 1} ids) exceeds "
            f"model vocab_size {rc.model.vocab_size}"
        )
    if out_dir is not None:
        save_vocab(out_dir / "vocab.tsv", vocab)
    return train, eval_


def _outdir(args, rc: RunConfig | None = None) -> Path:
    out = args.out or (rc.out_dir if rc else None)
    if not out:
        raise ConfigError("no output directory: pass --out or set out_dir")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_importance_meta(out: Path, imap, **extra) -> None:
    write_json(out / "importance_meta.json", {
        "digest": imap.digest(),
        "token_count": imap.token_count,
        "sample_size": imap.sample_size,
        "epsilon": imap.epsilon,
        "shape": list(imap.shape),
        **extra,
    })


# ---------------------------------------------------------------------------
# commands


def cmd_importance(args) -> int:
    rc = load_run_config(args.config, args.seed, args.out)
    out = _outdir(args, rc)
    # `model_digest` (the file's sha256) is hashed in the pass that reads
    # or writes the checkpoint; merge, eval and report hash nothing
    if args.checkpoint:
        weights, _, model_digest = checkpoint.load_model(args.checkpoint,
                                                         digest=True)
    else:
        weights = init_weights(rc.model, seed=rc.seed)
        model_digest = checkpoint.save_model(out / "model.ckpt", weights,
                                             digest=True)
    train_data, _ = load_datasets(rc, out)
    imap = training.regime_importance(weights, rc.train, train_data)
    importance.export_importance(imap, out / "importance.csv", out / "importance.ppm")
    with open(out / "importance_raw.csv", "w", encoding="utf-8") as f:
        f.write(importance.matrix_to_csv(imap.raw))
    _write_importance_meta(out, imap, model_digest=model_digest)
    print(f"importance map written to {out / 'importance.csv'} "
          f"(sample {imap.sample_size}, tokens {imap.token_count})")
    return 0


def cmd_prune(args) -> int:
    rc = load_run_config(args.config, args.seed, args.out)
    out = _outdir(args, rc)
    if rc.train.keep_count is None:
        raise ConfigError("config has no prune.keep_count")
    weights, _, model_digest = checkpoint.load_model(args.checkpoint,
                                                     digest=True)

    imp_csv = Path(args.importance)
    meta_path = imp_csv.with_name("importance_meta.json")
    if not meta_path.exists():
        raise ConfigError(f"missing metadata next to importance map: {meta_path}")
    with open(meta_path, encoding="utf-8") as f:
        meta = json.load(f)
    if not isinstance(meta, dict):
        raise ConfigError(f"{meta_path}: expected a JSON object")
    for key in ("model_digest", "digest"):
        if not isinstance(meta.get(key, ""), str):
            raise ConfigError(f"{meta_path}: {key} must be a string")
    if meta.get("model_digest") != model_digest:
        print(
            f"error: stale importance map: computed from model "
            f"{meta.get('model_digest', '?')[:12]}..., got {model_digest[:12]}...",
            file=sys.stderr,
        )
        return 2
    final = importance.import_importance_csv(imp_csv)
    digest = meta.get("digest")
    if not np.all(np.isfinite(final)) or final.min() < 0 or final.max() > 1:
        raise ConfigError(f"{imp_csv}: importance values must be finite and in [0, 1]")
    if importance.matrix_digest(final) != digest:
        raise ConfigError(f"{imp_csv}: does not match the digest in {meta_path}")

    plan = pruning.select_heads(final, rc.train.keep_count, digest=digest)
    pruned = pruning.apply_slice_prune(weights, plan)
    checkpoint.save_model(out / "pruned.ckpt", pruned)
    plan.save(out / "prune_plan.json")
    print(f"kept {plan.keep_count} heads "
          f"({plan.pruned_count()} pruned) -> {out / 'pruned.ckpt'}")
    return 0


def cmd_train(args) -> int:
    rc = load_run_config(args.config, args.seed, args.out)
    out = _outdir(args, rc)
    train_data, eval_data = load_datasets(rc, out)

    report, art = training.run_regime(rc.model, rc.train, train_data, eval_data)

    checkpoint.save_model(out / "model.ckpt", art.weights)
    if art.adapters is not None:
        lora.save_adapters(out / "adapters.ckpt", art.adapters)
    if art.importance_map is not None:
        importance.export_importance(
            art.importance_map, out / "importance.csv", out / "importance.ppm"
        )
        _write_importance_meta(out, art.importance_map)
    if art.prune_plan is not None:
        art.prune_plan.save(out / "prune_plan.json")
    if art.rank_plan is not None:
        art.rank_plan.save(out / "rank_plan.json")
    write_json(out / "report.json", report.to_dict())
    write_json(out / "report_timing.json", report.timing_dict())
    print(f"final eval accuracy {report.final_accuracy:.4f} "
          f"({report.trainable_params} trainable of {report.total_params})")
    return 0


def cmd_merge(args) -> int:
    base, manifest = checkpoint.load_model(args.base)
    if manifest.get("merged_adapters"):
        print("error: base checkpoint already has adapters merged in; "
              "merging twice would double the delta", file=sys.stderr)
        return 2
    adapters = lora.load_adapters(args.adapters, weights=base)
    merged = lora.merge_adapters(base, adapters)
    out_path = Path(args.out)
    if out_path.suffix != ".ckpt":
        out_path.mkdir(parents=True, exist_ok=True)
        out_path = out_path / "merged.ckpt"
    checkpoint.save_model(out_path, merged, merged_adapters=True)
    print(f"merged checkpoint -> {out_path}")
    return 0


def cmd_eval(args) -> int:
    rc = load_run_config(args.config, args.seed, args.out)
    out = _outdir(args, rc)
    weights, _ = checkpoint.load_model(args.checkpoint)
    adapters = None
    if args.adapters:
        adapters = lora.load_adapters(args.adapters, weights=weights)
    _, eval_data = load_datasets(rc)

    acc, loss = training.evaluate(weights, eval_data, adapters,
                                  rc.train.batch_size)
    write_json(out / "eval.json", {
        "accuracy": acc, "loss": loss, "examples": eval_data.size,
    })
    if args.dump_logits:
        logits = training.predict(weights, eval_data, adapters,
                                  rc.train.batch_size)
        with open(args.dump_logits, "w", encoding="utf-8") as f:
            f.write(importance.matrix_to_csv(logits))
    print(f"eval accuracy {acc:.4f} loss {loss:.4f} on {eval_data.size} examples")
    return 0


def cmd_report(args) -> int:
    rc = load_run_config(args.config, args.seed, args.out)
    out = _outdir(args, rc)
    cfg = rc.model
    notes: list[str] = []
    payload: dict = {"model": cfg.to_dict()}
    rows = []
    # comparison figures only make sense on the geometry they were
    # reported for
    is_reference = cfg.to_dict() | {"num_classes": 0} == \
        ModelConfig.reference().to_dict()

    full = accounting.count_params(cfg)
    payload["full_finetune"] = full.to_dict()
    rows.append(("full_finetune", full))

    if rc.train.n_high <= cfg.num_layers:
        # which blocks carry the high rank doesn't change the count
        ranks = [rc.train.rank_high] * rc.train.n_high + \
            [rc.train.rank_low] * (cfg.num_layers - rc.train.n_high)
        adapter_rep = accounting.count_params(cfg, rank_plan=ranks)
        payload["lora"] = adapter_rep.to_dict()
        rows.append(("lora", adapter_rep))
        note = (
            f"lora trainable (ranks {rc.train.rank_high}x{rc.train.n_high}/{rc.train.rank_low}"
            f"x{cfg.num_layers - rc.train.n_high} on q,k,v,o + layernorms + head): "
            f"{adapter_rep.trainable_params:,}"
        )
        if is_reference:
            note += (
                f" (reported for this setup: "
                f"{accounting.REPORTED_LORA_TRAINABLE} lora, "
                f"{accounting.REPORTED_PRUNE_LORA_TRAINABLE} prune-lora; "
                f"the formula output is the exact count, the reported "
                f"figures are not derivable from it)"
            )
        notes.append(note)

    if rc.train.keep_count is not None:
        pruned = accounting.count_params(cfg, prune_plan=rc.train.keep_count)
        payload["pruned"] = pruned.to_dict()
        rows.append(("pruned", pruned))
        removed = cfg.num_layers * cfg.num_heads - rc.train.keep_count
        note = (
            f"pruned total {pruned.total_params:,} = {full.total_params:,} - "
            f"{removed} heads x {accounting.per_head_params(cfg):,} params"
        )
        if is_reference:
            note += (
                f"; reported for this setup: "
                f"{accounting.REPORTED_PRUNED_PARAMS} (~0.47M above the "
                f"slicing arithmetic; difference reported, not reconciled)"
            )
        notes.append(note)

    checkpoints = [] if args.dry_run else (args.checkpoint or [])
    for ckpt_path in checkpoints:
        weights, _ = checkpoint.load_model(ckpt_path)
        walked = weights.num_params()
        rep = accounting.count_params(
            weights.config,
            prune_plan=[len(k) for k in weights.head_index_map],
        )
        if rep.total_params != walked:
            raise RuntimeError(
                f"{ckpt_path}: closed-form {rep.total_params} != tensor walk {walked}"
            )
        rows.append((Path(ckpt_path).name, rep))
        payload[Path(ckpt_path).name] = rep.to_dict()

    payload["reported_reference"] = {
        "full_params": accounting.REPORTED_FULL_PARAMS,
        "pruned_params": accounting.REPORTED_PRUNED_PARAMS,
        "lora_trainable": accounting.REPORTED_LORA_TRAINABLE,
        "prune_lora_trainable": accounting.REPORTED_PRUNE_LORA_TRAINABLE,
        "full_memory_mb": accounting.REPORTED_FULL_MEMORY_MB,
    }
    payload["notes"] = notes

    table = accounting.format_report_table(rows)
    write_json(out / "params_report.json", payload)
    with open(out / "params_table.txt", "w", encoding="utf-8") as f:
        f.write(table)
        for note in notes:
            f.write(f"note: {note}\n")
    print(table, end="")
    headline = f"total parameters: {full.total_params:,}"
    if is_reference:
        headline += f" (reported: {accounting.REPORTED_FULL_PARAMS})"
    print(headline)
    for note in notes:
        print(f"note: {note}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunelora",
        description="Head-importance pruning + rank-varied adapters, end to end",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed override")

    p = sub.add_parser("importance", help="estimate the per-head importance map")
    common(p)
    p.add_argument("--checkpoint", help="model checkpoint (default: fresh init)")
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("prune", help="slice-prune a checkpoint from an importance map")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--importance", required=True, help="importance.csv path")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("train", help="run a training regime end to end")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("merge", help="fold adapters into a base checkpoint")
    p.add_argument("--base", required=True)
    p.add_argument("--adapters", required=True)
    p.add_argument("--out", required=True, help="output checkpoint path or dir")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the eval split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--adapters")
    p.add_argument("--dump-logits", help="also write eval logits as CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="parameter/FLOPs/memory accounting")
    common(p)
    p.add_argument("--checkpoint", action="append",
                   help="also report a materialized checkpoint (repeatable)")
    p.add_argument("--dry-run", action="store_true",
                   help="counts only; never materializes weights")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, checkpoint.CheckpointError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except training.TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
