"""Per-module metrics derived from the spans of a traced phase.

Names follow `<module>.<metric>[.<regime>]`. Durations are medians per
call; `<module>.self_s` is the module's self time (span durations minus
the time their child spans cover) per traced sample of each operation,
summed over the operations: the self time of one pass through every
operation. Run labels, set by the benchmark around each operation, tell
a training forward apart from an importance or an evaluation forward.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracing import self_times_ns
from workloads import REGIMES

MODULES = ("autograd", "model", "training", "importance", "pruning", "lora",
           "checkpoint", "data", "accounting", "cli")
CLI_COMMANDS = ("importance", "prune", "train", "merge", "eval", "report")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values) -> tuple[float, float]:
    """(value, percentile) of the highest listed percentile that has at
    least ten samples beyond it; the maximum when there are too few."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return float(np.percentile(values, p)), p
    return float(max(values)), 100.0


def training_steps_ms(spans, children, run: str) -> list[float]:
    """Forward start to zero_grad end, for each step of each train call."""
    steps = []
    for train in spans:
        if train.name != "training.train" or train.run != run:
            continue
        start = None
        for child in sorted(children[train.id], key=lambda s: s.start_ns):
            if child.name == "model.forward":
                start = child.start_ns
            elif child.name == "training.AdamW.zero_grad" and start is not None:
                steps.append((child.end_ns - start) / 1e6)
                start = None
    return steps


def layer_metrics(spans, traced_counts: dict, info: dict) -> dict:
    """{metric name: (value, unit)} for every per-module metric;
    `traced_counts` maps each operation's run label to its traced samples."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def durations(name, run=None, parent=None, scale=1e3):
        out = [s.seconds * scale for s in spans
               if s.name == name and (run is None or s.run == run)
               and (parent is None
                    or (s.parent in by_id and by_id[s.parent].name == parent))]
        if not out:
            raise ValueError(f"no spans named {name} (run {run})")
        return out

    def median(name, run=None, parent=None, scale=1e3):
        return statistics.median(durations(name, run, parent, scale))

    m = {}
    for r in REGIMES:
        run = f"epoch.{r}"
        m[f"autograd.backward_ms.{r}"] = (median("autograd.backward", run), "ms")
        nodes = [s.counts["graph_nodes"] for s in spans
                 if s.name == "autograd.backward" and s.run == run]
        m[f"autograd.graph_nodes.{r}"] = (max(nodes), "count")
    for r in REGIMES:
        m[f"model.forward_ms.{r}"] = (
            median("model.forward", f"epoch.{r}", parent="training.train"), "ms")
    m["model.forward_nograd_ms"] = (median("model.forward", "eval"), "ms")
    m["model.forward_macs"] = (info["forward_macs"], "count")
    m["model.forward_macs.sliced"] = (info["forward_macs.sliced"], "count")
    fwd_s = m["model.forward_ms.full_finetune"][0] / 1e3
    m["model.forward_gflops"] = (2 * info["forward_macs"] / fwd_s / 1e9,
                                 "GFLOP/s")

    for r in REGIMES:
        run = f"epoch.{r}"
        m[f"training.optimizer_step_ms.{r}"] = (
            median("training.AdamW.step", run), "ms")
        steps = training_steps_ms(spans, children, run)
        tail, _ = tail_percentile(steps)
        m[f"training.step_ms.p50.{r}"] = (statistics.median(steps), "ms")
        m[f"training.step_ms.tail.{r}"] = (tail, "ms")
        m[f"training.step_ms.samples.{r}"] = (len(steps), "count")
        m[f"training.trainable_params.{r}"] = (info[f"trainable_params.{r}"],
                                              "count")

    m["importance.forward_ms"] = (median("model.forward", "importance"), "ms")
    m["importance.backward_ms"] = (median("autograd.backward", "importance"),
                                   "ms")
    m["pruning.select_heads_ms"] = (median("pruning.select_heads"), "ms")
    m["pruning.apply_slice_prune_ms"] = (median("pruning.apply_slice_prune"),
                                         "ms")
    m["pruning.params_removed"] = (info["params_removed"], "count")
    m["lora.init_adapters_ms"] = (median("lora.init_adapters"), "ms")
    m["lora.merge_adapters_ms"] = (median("lora.merge_adapters"), "ms")
    m["lora.adapter_params"] = (info["adapter_params"], "count")

    m["checkpoint.save_s"] = (median("checkpoint.save_model", scale=1), "s")
    m["checkpoint.load_s"] = (median("checkpoint.load_model", scale=1), "s")
    passes = sum(1 for s in spans if s.name == "cli.cmd_importance")
    for key in ("bytes_written", "bytes_read"):
        total = sum(s.counts.get(key, 0) for s in spans if s.run == "pipeline")
        m[f"checkpoint.{key}"] = (total / passes, "bytes")

    m["data.generate_s"] = (median("data.generate", scale=1), "s")
    m["data.ingest_tsv_s"] = (median("data.ingest_tsv", scale=1), "s")
    m["accounting.count_params_ms"] = (
        median("accounting.count_params", "accounting"), "ms")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = (median(f"cli.cmd_{cmd}", scale=1), "s")

    self_ns = self_times_ns(spans)
    per_module = dict.fromkeys(MODULES, 0.0)
    for s in spans:
        if traced_counts.get(s.run):
            per_module[s.module] += self_ns[s.id] / traced_counts[s.run]
    for module in MODULES:
        m[f"{module}.self_s"] = (per_module[module] * 1e-9, "s")
    return m
