"""Correctness checks the benchmark runs on the program's outputs.

Each check returns `(ok, detail)` and never raises on a wrong output, so
the benchmark can count it as one attempted operation that failed. The
tolerances are the paper's invariants: masked and sliced logits agree to
1e-9, zero-B adapters leave logits bit-identical, merging is exact to
1e-10, and the closed-form parameter count equals a walk over the tensors.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MASK_SLICE_TOL = 1e-9
MERGE_TOL = 1e-10
REFERENCE_PATH = Path(__file__).with_name("reference_losses.json")


def logits(weights, batch, mask=None, adapters=None) -> np.ndarray:
    from prunelora import autograd as ag
    from prunelora import model

    with ag.no_grad():
        return model.forward(weights, batch, mask=mask, adapters=adapters).data


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def mask_slice_agree(masked_logits, sliced_logits):
    err = max_abs_diff(masked_logits, sliced_logits)
    return err <= MASK_SLICE_TOL, f"max |masked - sliced| = {err:.3g}"


def zero_b_identical(base_logits, adapter_logits):
    same = (base_logits.shape == adapter_logits.shape
            and base_logits.tobytes() == adapter_logits.tobytes())
    return same, "bit-identical" if same else (
        f"max diff {max_abs_diff(base_logits, adapter_logits):.3g}")


def merge_exact(merged_logits, adapter_logits):
    err = max_abs_diff(merged_logits, adapter_logits)
    return err <= MERGE_TOL, f"max |merged - adapter| = {err:.3g}"


def count_matches_walk(closed_form: int, walked: int):
    return closed_form == walked, f"closed form {closed_form}, walk {walked}"


def importance_in_unit_range(final: np.ndarray):
    final = np.asarray(final)
    if final.size == 0 or not np.all(np.isfinite(final)):
        return False, "empty or non-finite importance map"
    lo, hi = final.min(), final.max()
    return lo == 0.0 and hi == 1.0, f"min {lo:.3g}, max {hi:.3g}"


def losses_finite(losses):
    ok = len(losses) > 0 and all(math.isfinite(v) for v in losses)
    return ok, f"{len(losses)} losses"


def macs_reconcile(counted: int, batch: int, matmul_flops: int):
    expected = batch * matmul_flops // 2
    ok = counted == expected and matmul_flops % 2 == 0
    return ok, f"counted {counted}, batch x estimate_flops/2 = {expected}"


def loss_matches_reference(loss: float, reference: float, rtol: float):
    ok = (math.isfinite(loss)
          and abs(loss - reference) <= rtol * max(1.0, abs(reference)))
    return ok, f"loss {loss!r}, reference {reference!r}, rtol {rtol}"


def tsv_round_trip(generated, ingested):
    ok = (np.array_equal(generated.labels, ingested.labels)
          and np.array_equal(generated.attention_mask.sum(axis=1),
                             ingested.attention_mask.sum(axis=1)))
    return ok, f"{generated.size} rows"


# ---------------------------------------------------------------------------
# checks that run the model


def counted_macs(weights, batch) -> int:
    from prunelora import autograd as ag

    with ag.count_macs() as counter:
        logits(weights, batch)
    return counter.macs


def check_macs(weights, batch, kept_per_block):
    """Engine MAC count of one forward vs the closed-form FLOPs estimate."""
    from prunelora import accounting

    flops = accounting.estimate_flops(weights.config, kept_per_block,
                                      batch.token_ids.shape[1])
    counted = counted_macs(weights, batch)
    ok, detail = macs_reconcile(counted, batch.size, flops.matmul_flops)
    return ok, detail, counted


def check_mask_slice(base, plan, batch):
    from prunelora import pruning

    masked, mask = pruning.apply_mask_prune(base, plan)
    sliced = pruning.apply_slice_prune(base, plan)
    return mask_slice_agree(logits(masked, batch, mask=mask),
                            logits(sliced, batch))


def check_zero_b(weights, adapters, batch):
    return zero_b_identical(logits(weights, batch),
                            logits(weights, batch, adapters=adapters))


def check_merge(weights, adapters, batch):
    from prunelora import lora

    merged = lora.merge_adapters(weights, adapters)
    return merge_exact(logits(merged, batch),
                       logits(weights, batch, adapters=adapters))


def check_param_count(weights, adapters=None):
    from prunelora import accounting

    kept = [len(k) for k in weights.head_index_map]
    ranks = adapters.plan.block_rank if adapters is not None else None
    report = accounting.count_params(weights.config, prune_plan=kept,
                                     rank_plan=ranks)
    walked = weights.num_params() + (adapters.num_params() if adapters else 0)
    return count_matches_walk(report.total_params, walked)


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)
