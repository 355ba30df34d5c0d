"""Fine-tuning harness: freeze policies, AdamW, and the regime pipelines.

Three regimes. `full_finetune` trains every weight. `lora` freezes the
base model and trains LayerNorms, adapters and the classifier head.
`prune_lora` first estimates head importance, slice-prunes to the keep
count, assigns rank-varied adapters from block importance, then trains
under the same freeze policy.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autograd as ag
from .data import TokenBatch, batches
from .importance import (
    DEFAULT_SAMPLE_SIZE,
    ImportanceMap,
    block_importance,
    estimate_importance,
)
from .lora import LoraAdapters, RankPlan, init_adapters, make_rank_plan
from .model import ModelConfig, TransformerWeights, forward, init_weights
from .pruning import PrunePlan, apply_slice_prune, select_heads
from .schema import Record

REGIMES = ("full_finetune", "lora", "prune_lora")


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig(Record):
    regime: str = "full_finetune"
    epochs: int = 30
    learning_rate: float = 2e-5
    weight_decay: float = 0.01
    batch_size: int = 32
    seed: int = 0
    eval_every: int = 1
    # prune_lora knobs
    keep_count: int | None = None
    n_high: int = 4
    rank_high: int = 8
    rank_low: int = 4
    importance_sample_size: int = DEFAULT_SAMPLE_SIZE

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}, want one of {REGIMES}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        # written so that NaN fails each test
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.importance_sample_size < 1:
            raise ValueError("importance_sample_size must be >= 1, "
                             f"got {self.importance_sample_size}")
        if self.keep_count is not None and self.keep_count < 0:
            raise ValueError(f"keep_count must be >= 0, got {self.keep_count}")
        if self.n_high < 0:
            raise ValueError(f"n_high must be >= 0, got {self.n_high}")
        if self.rank_low < 1:
            raise ValueError(f"rank_low must be >= 1, got {self.rank_low}")
        if self.rank_high < self.rank_low:
            raise ValueError(f"rank_high must be >= rank_low {self.rank_low}, "
                             f"got {self.rank_high}")


@dataclass
class TrainReport:
    regime: str
    epochs: int
    step_count: int
    train_loss: list[float]
    eval_epochs: list[int]
    eval_accuracy: list[float]
    final_accuracy: float
    trainable_params: int
    total_params: int
    epoch_seconds: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field but the wall-clock ones (see timing_dict)."""
        d = asdict(self)
        del d["epoch_seconds"]
        return d

    def timing_dict(self) -> dict:
        secs = self.epoch_seconds
        return {
            "epoch_seconds": secs,
            "mean_epoch_seconds": float(np.mean(secs)) if secs else 0.0,
        }


def freeze_policy(
    weights: TransformerWeights,
    adapters: LoraAdapters | None,
    regime: str,
) -> list:
    """Set requires_grad over all tensors; returns the trainable list.

    Adapter regimes train every LayerNorm (embedding one included), all
    adapter matrices, and the classifier head; everything else is frozen.
    A frozen random classifier could not learn any task, so the head stays
    trainable in every regime.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if (adapters is None) == (regime != "full_finetune"):
        raise ValueError(f"regime {regime!r} and adapters presence disagree")

    if regime == "full_finetune":
        weights.set_requires_grad(True)
        return weights.all_tensors()

    weights.set_requires_grad(False)
    trainable = list(weights.layernorm_tensors())
    if weights.classifier_w is not None:
        trainable += [weights.classifier_w, weights.classifier_b]
    trainable += adapters.all_tensors()
    for t in trainable:
        t.requires_grad = True
    return trainable


# Elements per row block of AdamW.step, unless one row is wider: its two
# float64 scratch arrays of this size (256 KiB each) stay in cache while a
# large tensor streams through. A tensor below it lives in an arena.
ADAMW_CHUNK = ag.ARENA_LIMIT
# AdamW's moment decay rates and denominator guard
ADAMW_BETA1 = 0.9
ADAMW_BETA2 = 0.999
ADAMW_EPS = 1e-8


class AdamW:
    """Adam with decoupled weight decay applied before the moment update.

    The parameters are grouped by storage into units: an arena
    (`autograd.Arena`) with whichever of its tensors are parameters, in
    arena order, or a parameter that owns its array. Each unit has one
    array per moment in its storage's shape (an arena's flat buffer, its
    zero padding included). A step turns every unit into spans and updates
    each span the same way:
    - an arena yields one flat span of its buffer, its gradient buffer and
      its moments per run of adjacent parameters that have a gradient. The
      engine leaves each arena tensor's `.grad` in its slot of the gradient
      buffer; a gradient assigned by hand is copied into the slot first;
    - a parameter that owns its array yields itself, its gradient and its
      moments, with its live-row mask (below).

    A span is updated in place, one block of whole first-axis rows at a
    time: as many rows as fit in `ADAMW_CHUNK` elements, at least one (a
    0-d span is one block). The blocks are views, so an array in any memory
    layout is updated in place. Two scratch arrays, sized to the largest
    block, are allocated once with the optimizer, as are the arenas'
    gradient buffers; a step allocates no array. Every operation is
    elementwise and runs in the same order on every block, so the result
    has the same bits however the parameters are split or joined. The
    moments start as `np.zeros`, so large ones are mapped lazily rather
    than filled. A gradient whose shape is not its parameter's is refused
    (ValueError).

    A parameter that owns its array and whose gradients come only from
    `embedding` lookups (`Tensor.grad_rows`) is tracked by row. A row that
    has never had a gradient has zero moments, so its full update is
    exactly the decay `p *= 1 - lr*wd`: a block that holds no row looked up
    so far (no live row) gets only the decay, every other block the full
    update. Bits, moments included, are those of the dense update, and the
    moment pages of blocks without a live row are never touched. A
    gradient without a row set makes the tensor dense from then on.
    """

    def __init__(self, params, lr, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        units = {}
        for p in self.params:
            units.setdefault(id(p.arena or p), []).append(p)
        # per unit, the parameters of one storage, an arena's in arena order;
        # an arena's gradient buffer is allocated here if no backward did yet
        self.units = list(units.values())
        arrays = []
        for ts in self.units:
            if ts[0].arena is not None:
                ts.sort(key=lambda t: t._arena_index)
                ts[0].arena.slots()
            arrays.append((ts[0].arena or ts[0]).data)
        self.m = [np.zeros(a.shape) for a in arrays]
        self.v = [np.zeros(a.shape) for a in arrays]
        # per unit, which rows have had a gradient; None once dense (an
        # arena is dense from the start)
        self.live = [None if ts[0].arena else np.zeros(a.shape[:1], dtype=bool)
                     for ts, a in zip(self.units, arrays)]
        size = max((math.prod(b) for a in arrays
                    for _, b in _row_blocks(a.shape, ADAMW_CHUNK)), default=0)
        self.scratch = np.empty(size), np.empty(size)

    def step(self):
        self.t += 1
        bc1 = 1.0 - ADAMW_BETA1 ** self.t
        bc2 = 1.0 - ADAMW_BETA2 ** self.t
        # _update's scalars: p -= lr*(m/bc1) / (sqrt(v/bc2) + eps) is
        # p -= m / ((sqrt(v) + eps*sqrt(bc2)) * bc1/(lr*sqrt(bc2)))
        eps = ADAMW_EPS * math.sqrt(bc2)
        scale = bc1 / (self.lr * math.sqrt(bc2))
        # a refused step updates nothing
        for j, param in enumerate(self.params):
            g = param.grad
            if g is not None and g.shape != param.data.shape:
                raise ValueError(
                    f"parameter {j}: gradient shape {g.shape} differs from "
                    f"the parameter's {param.data.shape}")
        for k in range(len(self.units)):
            for p, g, m, v, live in self._spans(k):
                for c, _ in _row_blocks(p.shape, ADAMW_CHUNK):
                    if live is None or live[c].any():
                        self._update(p[c], g[c], m[c], v[c], eps, scale)
                    elif self.weight_decay:
                        self._decay(p[c])

    def _spans(self, k):
        """Unit k's spans this step, each as (param, grad, m, v, live rows
        or None): the runs of an arena, or a parameter that owns its array
        and has a gradient."""
        tensors, m, v = self.units[k], self.m[k], self.v[k]
        arena = tensors[0].arena
        if arena is None:
            p = tensors[0]
            if p.grad is not None:
                if p.grad_rows is None:
                    self.live[k] = None
                elif self.live[k] is not None:
                    self.live[k] |= p.grad_rows
                yield p.data, p.grad, m, v, self.live[k]
            return
        # each run as [start, end) of the arena's buffer
        runs, slots, bounds = [], arena.slots(), arena.bounds
        for t in tensors:
            g, i = t.grad, t._arena_index
            if g is None:
                continue
            if g is not slots[i]:
                np.copyto(slots[i], g)
            if runs and runs[-1][1] == bounds[i]:
                runs[-1][1] = bounds[i + 1]
            else:
                runs.append([bounds[i], bounds[i + 1]])
        for a, b in runs:
            yield arena.data[a:b], arena.grad[a:b], m[a:b], v[a:b], None

    def _update(self, p, g, m, v, eps, scale):
        """The update below, in 13 passes, in place on p, m and v through
        views s1 and s2 of the scratch arrays:
            p *= 1 - lr*wd
            m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
            p -= m / ((sqrt(v) + eps) * scale)
        with `eps` and `scale` the step's folded scalars (see `step`).
        """
        s1, s2 = (s[:p.size].reshape(p.shape) for s in self.scratch)
        if self.weight_decay:
            self._decay(p)
        m *= ADAMW_BETA1
        np.multiply(1.0 - ADAMW_BETA1, g, out=s1)
        m += s1
        v *= ADAMW_BETA2
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - ADAMW_BETA2
        v += s1
        np.sqrt(v, out=s2)
        s2 += eps
        s2 *= scale
        np.divide(m, s2, out=s2)
        p -= s2

    def _decay(self, p):
        p *= 1.0 - self.lr * self.weight_decay

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


@functools.cache
def _row_blocks(shape, chunk) -> tuple:
    """AdamW's blocks of an array of `shape`, each as (index, its shape):
    slices of as many whole first-axis rows as fit in `chunk` elements, at
    least one row, or `...` for a 0-d array."""
    if not shape:
        return ((..., ()),)
    rows = max(1, chunk // max(1, math.prod(shape[1:])))
    return tuple((slice(i, i + rows), (min(rows, shape[0] - i), *shape[1:]))
                 for i in range(0, shape[0], rows))


def predict(
    weights: TransformerWeights,
    data: TokenBatch,
    adapters: LoraAdapters | None = None,
    batch_size: int = 32,
) -> np.ndarray:
    """Logits over the dataset in submission order, no gradient recording.

    Rows run longest first (a stable sort, so equal lengths keep their
    order) in batches of `batch_size` rows, each padded only to its longest
    row (`data.batches`), so a batch holds rows of similar length and
    little padding; the logits are written back to the rows' positions."""
    order = np.argsort(-data.attention_mask.sum(axis=1), kind="stable")
    logits = np.empty((data.size, weights.config.num_classes))
    with ag.no_grad():
        logits[order] = np.concatenate(
            [forward(weights, batch, adapters=adapters).data
             for batch in batches(data.take(order), batch_size)],
            axis=0,
        )
    return logits


def score(logits: np.ndarray, data: TokenBatch, batch_size: int = 32):
    """(accuracy, mean loss) of `predict`'s logits; the mean loss is summed
    per batch of `batch_size` rows, so it has the bits of a per-batch pass."""
    correct = int((logits.argmax(axis=-1) == data.labels).sum())
    loss_sum = 0.0
    for start in range(0, data.size, batch_size):
        rows = slice(start, start + batch_size)
        labels = data.labels[rows]
        loss = ag.cross_entropy(logits[rows], labels)
        loss_sum += float(loss.data) * labels.size
    return correct / data.size, loss_sum / data.size


def evaluate(
    weights: TransformerWeights,
    data: TokenBatch,
    adapters: LoraAdapters | None = None,
    batch_size: int = 32,
):
    """(accuracy, mean loss) over the dataset, no gradient recording."""
    return score(predict(weights, data, adapters, batch_size), data, batch_size)


def train(
    weights: TransformerWeights,
    config: TrainConfig,
    train_data: TokenBatch,
    eval_data: TokenBatch,
    adapters: LoraAdapters | None = None,
    log=print,
) -> TrainReport:
    """Run the training loop under the caller's freeze flags.

    Trainables are exactly the tensors whose requires_grad is set (see
    freeze_policy). Aborts with TrainingDiverged if the loss goes
    non-finite. An empty eval split, or an empty training split with
    `epochs >= 1`, is refused (ValueError).
    """
    if eval_data.size == 0:
        raise ValueError("training needs a non-empty eval split")
    if train_data.size == 0 and config.epochs >= 1:
        raise ValueError("training needs a non-empty training split")
    all_tensors = weights.all_tensors() + (adapters.all_tensors() if adapters else [])
    trainable = [t for t in all_tensors if t.requires_grad]
    opt = AdamW(trainable, lr=config.learning_rate,
                weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed)

    eval_epochs, eval_acc = [0], []
    train_loss: list[float] = []
    epoch_seconds: list[float] = []
    steps = 0
    epoch = 0
    try:
        acc, _ = evaluate(weights, eval_data, adapters, config.batch_size)
        eval_acc.append(acc)
        if log:
            log(f"[{config.regime}] initial eval acc {acc:.4f}")

        for epoch in range(1, config.epochs + 1):
            t0 = time.perf_counter()
            shuffled = train_data.take(rng.permutation(train_data.size))
            losses = []
            for batch in batches(shuffled, config.batch_size):
                loss = ag.cross_entropy(
                    forward(weights, batch, adapters=adapters), batch.labels
                )
                ag.backward(loss)
                opt.step()
                opt.zero_grad()
                losses.append(float(loss.data))
                steps += 1
            epoch_seconds.append(time.perf_counter() - t0)
            train_loss.append(float(np.mean(losses)))
            if epoch % config.eval_every == 0 or epoch == config.epochs:
                acc, _ = evaluate(weights, eval_data, adapters,
                                  config.batch_size)
                eval_epochs.append(epoch)
                eval_acc.append(acc)
                if log:
                    log(f"[{config.regime}] epoch {epoch} "
                        f"loss {train_loss[-1]:.4f} eval acc {acc:.4f}")
    except ag.NonFiniteError as e:
        raise TrainingDiverged(
            f"model state went non-finite at epoch {epoch} step {steps}"
        ) from e

    return TrainReport(
        regime=config.regime,
        epochs=config.epochs,
        step_count=steps,
        train_loss=train_loss,
        eval_epochs=eval_epochs,
        eval_accuracy=eval_acc,
        final_accuracy=eval_acc[-1],
        trainable_params=sum(t.data.size for t in trainable),
        total_params=(weights.num_params()
                      + (adapters.num_params() if adapters else 0)),
        epoch_seconds=epoch_seconds,
    )


def regime_importance(weights: TransformerWeights, config: TrainConfig,
                      data: TokenBatch) -> ImportanceMap:
    """Head importance over the first importance_sample_size rows of `data`,
    in batches of the training batch size."""
    return estimate_importance(
        weights, data,
        batch_size=config.batch_size,
        sample_size=config.importance_sample_size,
    )


@dataclass
class RegimeArtifacts:
    weights: TransformerWeights
    adapters: LoraAdapters | None
    importance_map: ImportanceMap | None
    prune_plan: PrunePlan | None
    rank_plan: RankPlan | None


def run_regime(
    model_config: ModelConfig,
    config: TrainConfig,
    train_data: TokenBatch,
    eval_data: TokenBatch,
    log=print,
):
    """Build the regime's model state, train it, return (report, artifacts).

    prune_lora: importance -> select heads -> slice prune -> rank plan ->
    inject adapters -> train. lora: same without the pruning step.
    """
    weights = init_weights(model_config, seed=config.seed)
    imap = prune_plan = rank_plan = adapters = None

    if config.regime in ("lora", "prune_lora"):
        imap = regime_importance(weights, config, train_data)
        if config.regime == "prune_lora":
            total = model_config.num_layers * model_config.num_heads
            keep = config.keep_count if config.keep_count is not None else total
            prune_plan = select_heads(imap, keep)
            weights = apply_slice_prune(weights, prune_plan)
        rank_plan = make_rank_plan(
            block_importance(imap), config.n_high,
            config.rank_high, config.rank_low,
        )
        adapters = init_adapters(weights, rank_plan, seed=config.seed)

    freeze_policy(weights, adapters, config.regime)
    report = train(weights, config, train_data, eval_data, adapters, log=log)
    return report, RegimeArtifacts(
        weights=weights,
        adapters=adapters,
        importance_map=imap,
        prune_plan=prune_plan,
        rank_plan=rank_plan,
    )
