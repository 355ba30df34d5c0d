"""Span tracing from outside the package.

`Tracer.install` wraps prunelora's public functions at every name where a
caller looks them up: each module-level binding (in any `prunelora.*`
module) that refers to a target function is replaced by the wrapper, and
methods are replaced on their class. Nothing under `src/` changes.

Each call becomes a `Span` with its name, start and end (integer
nanoseconds), parent span, the run label the benchmark set, and a step id
(the count of `model.forward` calls so far in that run). Spans stay in
memory until `write` is called at the end of the benchmark.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

PACKAGE = "prunelora"

# (module, attribute) pairs; "Class.method" patches the class attribute
TARGETS = (
    ("autograd", "backward"),
    ("autograd", "cross_entropy"),
    ("model", "forward"),
    ("model", "init_weights"),
    ("model", "TransformerWeights.clone"),
    ("training", "train"),
    ("training", "evaluate"),
    ("training", "run_regime"),
    ("training", "freeze_policy"),
    ("training", "AdamW.step"),
    ("training", "AdamW.zero_grad"),
    ("importance", "estimate_importance"),
    ("importance", "export_importance"),
    ("pruning", "select_heads"),
    ("pruning", "apply_slice_prune"),
    ("pruning", "apply_mask_prune"),
    ("lora", "make_rank_plan"),
    ("lora", "init_adapters"),
    ("lora", "merge_adapters"),
    ("lora", "save_adapters"),
    ("lora", "load_adapters"),
    ("checkpoint", "write_checkpoint"),
    ("checkpoint", "read_checkpoint"),
    ("checkpoint", "save_model"),
    ("checkpoint", "load_model"),
    ("checkpoint", "file_digest"),
    ("data", "generate"),
    ("data", "ingest_tsv"),
    ("accounting", "count_params"),
    ("accounting", "estimate_flops"),
    ("cli", "main"),
    ("cli", "load_run_config"),
    ("cli", "load_datasets"),
    ("cli", "cmd_importance"),
    ("cli", "cmd_prune"),
    ("cli", "cmd_train"),
    ("cli", "cmd_merge"),
    ("cli", "cmd_eval"),
    ("cli", "cmd_report"),
)


@dataclass
class Span:
    id: int
    name: str          # "<module>.<qualname>", e.g. "training.AdamW.step"
    module: str        # prunelora module that defines the function
    start_ns: int
    end_ns: int
    parent: int        # -1 for a root span
    run: str
    step: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def graph_nodes(loss) -> int:
    """Op nodes (tensors holding a backward closure) reachable from `loss`."""
    seen, stack, count = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if getattr(node, "_backward", None) is not None:
            count += 1
            stack.extend(getattr(node, "_parents", ()))
    return count


# counters taken around a call, outside its timed interval (their cost
# lands in the parent span's self time)
def _pre_counts(name, args):
    if name == "autograd.backward":
        return {"graph_nodes": graph_nodes(args[0])}
    if name in ("checkpoint.read_checkpoint", "checkpoint.file_digest"):
        return {"bytes_read": _file_size(args[0])}
    return {}


def _post_counts(name, args):
    if name == "checkpoint.write_checkpoint":
        return {"bytes_written": _file_size(args[0])}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self.step = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def set_run(self, label: str) -> None:
        self.run = label
        self.step = 0

    def _wrap(self, fn, name: str, module: str):
        tracer = self

        def traced(*args, **kwargs):
            counts = _pre_counts(name, args)
            if name == "model.forward":
                tracer.step += 1
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                counts.update(_post_counts(name, args))
                tracer.spans.append(Span(span_id, name, module, start, end,
                                         parent, tracer.run, tracer.step,
                                         counts))

        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, _ in targets:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, attr in targets:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, fn_name)
            wrapper = self._wrap(original, f"{module_name}.{attr}", module_name)
            if cls_path:
                self._patch(owner, fn_name, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span), separators=(",", ":")) + "\n")


def self_times_ns(spans) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover.

    Spans nest (one thread, wrappers pop in `finally`), so the children of
    a span are disjoint intervals inside it.
    """
    covered: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end_ns - s.start_ns
    return {s.id: (s.end_ns - s.start_ns) - covered[s.id] for s in spans}
