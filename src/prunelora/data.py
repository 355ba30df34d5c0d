"""Desk-scale task supply: synthetic sequence classification and tiny TSV files.

Token id convention (shared by every loader): 0 = PAD, 1 = UNK, 2 = CLS.
Content tokens start at id 3. Every sequence begins with CLS (the pooler
reads position 0) and is right-padded; attention masks are 1 on a prefix.

The four synthetic kinds stress different mechanisms (counting, relative
frequency, positional matching, local pattern detection) so that head
importance maps measured on them have a chance to diverge. Labels are a
deterministic function of the tokens, so Bayes accuracy is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import Record

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
FIRST_CONTENT_ID = 3

PARITY_TOKEN = 3        # parity counts occurrences of this token
PATTERN = (3, 4)        # contains-pattern looks for this bigram

TASK_KINDS = ("parity", "majority-token", "first-last-match", "contains-pattern")


@dataclass
class TokenBatch:
    token_ids: np.ndarray       # (b, s) int64
    attention_mask: np.ndarray  # (b, s) {0,1}, ones form a prefix per row
    labels: np.ndarray          # (b,) int64

    def __post_init__(self):
        self.token_ids = _as_int64(self.token_ids, "token_ids")
        self.labels = _as_int64(self.labels, "labels")
        # checked before the cast, which would truncate a fraction
        m = np.asarray(self.attention_mask)
        if np.any((m != 0) & (m != 1)):
            raise ValueError("attention_mask holds values other than 0 and 1")
        self.attention_mask = m = m.astype(np.int64, copy=False)
        if self.token_ids.shape != m.shape:
            raise ValueError("token_ids and attention_mask shapes disagree")
        if self.labels.shape != (self.token_ids.shape[0],):
            raise ValueError("labels length disagrees with batch size")
        # right padding: mask must be a prefix of ones
        if np.any((np.diff(m, axis=1) > 0)):
            raise ValueError("attention_mask ones must form a prefix (right padding)")
        # a row without tokens would attend over padding alone, and its
        # logits would depend on the batch width (see `batches`)
        if self.size and (m.shape[1] == 0 or not m[:, 0].all()):
            raise ValueError("every row must hold its first (CLS) token")

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]

    @property
    def token_count(self) -> int:
        """Non-padding tokens in the batch."""
        return int(self.attention_mask.sum())

    def slice(self, start: int, stop: int) -> "TokenBatch":
        return self.take(slice(start, stop))

    def take(self, rows) -> "TokenBatch":
        """The rows a slice or an index array selects, in its order."""
        return TokenBatch(self.token_ids[rows], self.attention_mask[rows],
                          self.labels[rows])


def _as_int64(values, name: str) -> np.ndarray:
    """`values` as an int64 array. An integer array is cast unchecked; any
    other must hold whole numbers only (a float NaN, infinity or fraction
    raises ValueError)."""
    a = np.asarray(values)
    if a.dtype.kind in "biu":
        return a.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        ints = a.astype(np.int64)
    if not np.array_equal(ints, a):
        raise ValueError(f"{name} holds values that are not whole numbers")
    return ints


def batches(data: TokenBatch, batch_size: int):
    """Yield submission-order slices of at most batch_size rows, each padded
    only to its longest row: columns that are all padding are dropped.

    The cut is exact: a padded key gets `model.PAD_SCORE`, whose `exp`
    underflows to 0, and nothing reads a padded query row, so a row's
    logits and every gradient are those of the full-width batch up to
    summation order."""
    lengths = data.attention_mask.sum(axis=1)
    for start in range(0, data.size, batch_size):
        rows = slice(start, start + batch_size)
        width = int(lengths[rows].max())
        yield TokenBatch(data.token_ids[rows, :width],
                         data.attention_mask[rows, :width], data.labels[rows])


@dataclass(frozen=True)
class SyntheticTaskSpec(Record):
    kind: str
    seq_len: int = 8            # content tokens; rows are seq_len + 1 wide (CLS)
    vocab_size: int = 32
    num_classes: int = 2
    seed: int = 0
    train_size: int = 512
    eval_size: int = 256

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}, want one of {TASK_KINDS}")
        if self.train_size < 1 or self.eval_size < 1:
            raise ValueError("train/eval sizes must be >= 1")
        if self.seq_len < 3:
            raise ValueError("seq_len must be >= 3")
        if self.vocab_size < FIRST_CONTENT_ID + self.num_classes + 2:
            raise ValueError("vocab_size too small for reserved + content tokens")
        if self.num_classes != 2 and self.kind != "majority-token":
            raise ValueError(f"{self.kind} is a binary task")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")


def _balanced_labels(n: int, num_classes: int, rng: np.random.Generator):
    labels = np.array([c for c in range(num_classes) for _ in range(n // num_classes)]
                      + list(range(n % num_classes)), dtype=np.int64)
    rng.shuffle(labels)
    return labels


def _parity_row(label, spec, rng):
    s = spec.seq_len
    # small counts keep the task learnable at desk scale
    counts = [c for c in range(0, min(s, 4) + 1) if c % 2 == label]
    c = int(rng.choice(counts))
    row = rng.integers(FIRST_CONTENT_ID + 1, spec.vocab_size, size=s)
    pos = rng.choice(s, size=c, replace=False)
    row[pos] = PARITY_TOKEN
    return row, s


def _majority_row(label, spec, rng):
    s = spec.seq_len
    candidates = [FIRST_CONTENT_ID + j for j in range(spec.num_classes)]
    # winner takes a strict majority; remainder split over the other classes
    win = int(rng.integers(s // spec.num_classes + 1, s + 1))
    rest = s - win
    others = [c for c in candidates if c != candidates[label]]
    row = [candidates[label]] * win
    for i in range(rest):
        row.append(others[i % len(others)])
    row = np.array(row[:s], dtype=np.int64)
    # guard: splitting the remainder may not leave a strict majority
    counts = [int((row == c).sum()) for c in candidates]
    if counts[label] <= max(c for j, c in enumerate(counts) if j != label):
        row[: s // 2 + 1] = candidates[label]
    rng.shuffle(row)
    return row, s


def _first_last_row(label, spec, rng):
    m = int(rng.integers(max(2, spec.seq_len // 2), spec.seq_len + 1))
    row = rng.integers(FIRST_CONTENT_ID, spec.vocab_size, size=m)
    if label == 1:
        row[m - 1] = row[0]
    else:
        while row[m - 1] == row[0]:
            row[m - 1] = rng.integers(FIRST_CONTENT_ID, spec.vocab_size)
    return row, m


def _contains_row(label, spec, rng):
    a, b = PATTERN
    m = int(rng.integers(max(3, spec.seq_len // 2), spec.seq_len + 1))
    row = rng.integers(FIRST_CONTENT_ID, spec.vocab_size, size=m)
    # scrub accidental occurrences, then implant for positives
    for i in range(m - 1):
        while row[i] == a and row[i + 1] == b:
            row[i + 1] = rng.integers(FIRST_CONTENT_ID, spec.vocab_size)
    if label == 1:
        at = int(rng.integers(0, m - 1))
        row[at], row[at + 1] = a, b
        for i in range(m - 1):  # implanting may have created a second bigram edge
            if i != at and row[i] == a and row[i + 1] == b:
                row[i + 1] = a
    return row, m


_ROW_MAKERS = {
    "parity": _parity_row,
    "majority-token": _majority_row,
    "first-last-match": _first_last_row,
    "contains-pattern": _contains_row,
}


def label_of(kind: str, content: np.ndarray) -> int:
    """Recompute the label from content tokens (the generating rule)."""
    if kind == "parity":
        return int((content == PARITY_TOKEN).sum() % 2)
    if kind == "majority-token":
        counts = np.bincount(content)
        return int(np.argmax(counts)) - FIRST_CONTENT_ID
    if kind == "first-last-match":
        return int(content[0] == content[-1])
    if kind == "contains-pattern":
        a, b = PATTERN
        return int(any(content[i] == a and content[i + 1] == b
                       for i in range(len(content) - 1)))
    raise ValueError(f"unknown task kind {kind!r}")


def _make_split(spec: SyntheticTaskSpec, n: int, rng) -> TokenBatch:
    width = spec.seq_len + 1
    ids = np.zeros((n, width), dtype=np.int64)
    att = np.zeros((n, width), dtype=np.int64)
    labels = _balanced_labels(n, spec.num_classes, rng)
    maker = _ROW_MAKERS[spec.kind]
    for i, y in enumerate(labels):
        content, m = maker(int(y), spec, rng)
        ids[i, 0] = CLS_ID
        ids[i, 1 : 1 + m] = content[:m]
        att[i, : 1 + m] = 1
        assert label_of(spec.kind, np.asarray(content[:m])) == y
    return TokenBatch(ids, att, labels)


def generate(spec: SyntheticTaskSpec):
    """Deterministically generate (train, eval) splits for a task spec."""
    rng = np.random.default_rng(spec.seed)
    train = _make_split(spec, spec.train_size, rng)
    eval_ = _make_split(spec, spec.eval_size, rng)
    return train, eval_


# ---------------------------------------------------------------------------
# tiny labeled text files


def ingest_tsv(path, vocab: dict | None = None, max_len: int | None = None):
    """Read "label<TAB>text" lines; returns (TokenBatch, vocab).

    Tokenization is lowercase whitespace splitting. When `vocab` is None a
    fresh vocabulary is built in first-appearance order (0=PAD, 1=UNK,
    2=CLS); otherwise unseen tokens map to UNK. CLS is prepended to every
    sequence; sequences are truncated to `max_len` ids when given.
    """
    build = vocab is None
    if build:
        vocab = {"<pad>": PAD_ID, "<unk>": UNK_ID, "<cls>": CLS_ID}
    rows, labels = [], []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'label<TAB>text'")
            try:
                label = int(parts[0])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: label {parts[0]!r} is not an integer")
            if label < 0:
                raise ValueError(f"{path}:{lineno}: label must be >= 0")
            tokens = parts[1].lower().split()
            ids = [CLS_ID]
            for tok in tokens:
                if build and tok not in vocab:
                    vocab[tok] = len(vocab)
                ids.append(vocab.get(tok, UNK_ID))
            if max_len is not None:
                ids = ids[:max_len]
            rows.append(ids)
            labels.append(label)
    if not rows:
        raise ValueError(f"{path}: no examples")
    width = max(len(r) for r in rows)
    ids = np.zeros((len(rows), width), dtype=np.int64)
    att = np.zeros((len(rows), width), dtype=np.int64)
    for i, r in enumerate(rows):
        ids[i, : len(r)] = r
        att[i, : len(r)] = 1
    return TokenBatch(ids, att, np.array(labels, dtype=np.int64)), vocab


def save_vocab(path, vocab: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for token, idx in sorted(vocab.items(), key=lambda kv: kv[1]):
            f.write(f"{token}\t{idx}\n")
