"""Per-head importance from head-mask gradients.

One backward pass per batch delivers d(loss)/d(mask scalar) for every head
at the evaluation point mask=1. Absolute gradients are accumulated over a
data sample, divided by the total number of non-padding tokens, then
normalized: global L2 over all L*H entries, then global min-max onto [0,1].
Model weights stay gradient-disabled during estimation; only the mask
scalars carry gradients.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .data import TokenBatch, batches
from .model import HeadMask, TransformerWeights, forward
from .schema import ConfigError

DEFAULT_EPSILON = 1e-12
DEFAULT_SAMPLE_SIZE = 512


@dataclass
class ImportanceMap:
    raw: np.ndarray            # (L, H) mean |d loss / d mask| per token
    l2_normalized: np.ndarray  # raw / (global L2 norm + epsilon)
    final: np.ndarray          # min-max normalized onto [0, 1]
    token_count: int
    sample_size: int
    epsilon: float

    def __post_init__(self):
        if self.token_count <= 0:
            raise ValueError("token_count must be positive")
        # written so that NaN fails each test
        if not np.all(np.isfinite(self.raw) & (self.raw >= 0)):
            raise ValueError("raw importance must be finite and non-negative")
        if not np.all((self.final >= 0) & (self.final <= 1)):
            raise ValueError("final importance must lie in [0, 1]")

    @property
    def shape(self):
        return self.raw.shape

    def digest(self) -> str:
        """Checksum of the final map (stable across export/import)."""
        return matrix_digest(self.final)


def estimate_raw_importance(
    weights: TransformerWeights,
    sample: TokenBatch,
    batch_size: int = 32,
):
    """Accumulate |mask gradient| over the sample; returns (raw, token_count).

    Per batch: forward, backward, take the elementwise absolute value of
    the mask gradient, add it up, zero the mask gradient. After the last
    batch the sum is divided by the number of non-padding tokens seen.
    The weights are frozen meanwhile; their `requires_grad` flags are
    restored on return.
    """
    if sample.size == 0:
        raise ValueError("importance needs a non-empty sample")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    cfg = weights.config

    prev_flags = [t.requires_grad for t in weights.all_tensors()]
    weights.set_requires_grad(False)
    try:
        mask = HeadMask.ones(cfg, requires_grad=True)
        acc = np.zeros((cfg.num_layers, cfg.num_heads))
        token_count = 0
        for batch in batches(sample, batch_size):
            loss = ag.cross_entropy(forward(weights, batch, mask=mask), batch.labels)
            ag.backward(loss)
            acc += np.abs(mask.xi.grad)
            mask.xi.zero_grad()
            token_count += batch.token_count
    finally:
        for t, flag in zip(weights.all_tensors(), prev_flags):
            t.requires_grad = flag
    return acc / token_count, token_count


def l2_normalize(raw: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Divide by the L2 norm of the flattened matrix (plus epsilon)."""
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    return raw / (np.sqrt((raw * raw).sum()) + epsilon)


def minmax_normalize(x: np.ndarray) -> np.ndarray:
    """Global min-max onto [0, 1]; a constant matrix maps to all zeros."""
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def estimate_importance(
    weights: TransformerWeights,
    sample: TokenBatch,
    batch_size: int = 32,
    epsilon: float = DEFAULT_EPSILON,
    sample_size: int | None = None,
) -> ImportanceMap:
    """Full pipeline: raw accumulation, L2 normalization, min-max."""
    if sample_size is not None:
        if sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        sample = sample.slice(0, min(sample_size, sample.size))
    raw, token_count = estimate_raw_importance(weights, sample, batch_size)
    l2 = l2_normalize(raw, epsilon)
    return ImportanceMap(
        raw=raw,
        l2_normalized=l2,
        final=minmax_normalize(l2),
        token_count=token_count,
        sample_size=sample.size,
        epsilon=epsilon,
    )


def block_importance(imap: ImportanceMap) -> np.ndarray:
    """Per-block mean of final head importances."""
    return imap.final.mean(axis=1)


# ---------------------------------------------------------------------------
# file formats


def matrix_to_csv(matrix: np.ndarray) -> str:
    """17-significant-digit CSV: round-trips float64 exactly."""
    return "\n".join(
        ",".join("%.17g" % v for v in row) for row in np.atleast_2d(matrix)
    ) + "\n"


def matrix_digest(matrix: np.ndarray) -> str:
    """sha256 of the matrix's CSV text."""
    return hashlib.sha256(matrix_to_csv(matrix).encode()).hexdigest()


def csv_to_matrix(text: str, source: str = "CSV") -> np.ndarray:
    """The matrix a `matrix_to_csv` text holds, one row a non-blank line.

    A cell that is not a number, a row whose length differs from the
    first row's, or a text with no row raises `ConfigError` naming
    `source` and the 1-based line.
    """
    rows, first = [], None
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError as e:
            raise ConfigError(f"{source}: line {n}: {e}") from None
        if first is None:
            first = n
        elif len(row) != len(rows[0]):
            raise ConfigError(f"{source}: line {n} holds {len(row)} values, "
                              f"line {first} {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise ConfigError(f"{source}: holds no rows")
    return np.array(rows, dtype=np.float64)


def export_importance(imap: ImportanceMap, csv_path, ppm_path=None) -> None:
    """Write the final map as CSV, optionally a grayscale PPM heatmap."""
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write(matrix_to_csv(imap.final))
    if ppm_path is not None:
        write_ppm(imap.final, ppm_path)


def import_importance_csv(path) -> np.ndarray:
    """The matrix in a CSV file; malformed text raises `ConfigError`
    naming the file (see `csv_to_matrix`)."""
    with open(path, encoding="utf-8") as f:
        return csv_to_matrix(f.read(), str(path))


def write_ppm(matrix: np.ndarray, path) -> None:
    """One pixel per head: intensity = round(value * 255), gray (r=g=b)."""
    rows, cols = matrix.shape
    levels = np.rint(np.clip(matrix, 0.0, 1.0) * 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{cols} {rows}\n255\n".encode("ascii"))
        f.write(np.repeat(levels.reshape(-1, 1), 3, axis=1).tobytes())
