import numpy as np
import pytest

from prunelora.data import (
    CLS_ID,
    PAD_ID,
    PARITY_TOKEN,
    PATTERN,
    SyntheticTaskSpec,
    TokenBatch,
    UNK_ID,
    batches,
    generate,
    ingest_tsv,
    save_vocab,
)


def spec(kind, **kw):
    base = dict(kind=kind, seq_len=8, vocab_size=16, seed=0,
                train_size=64, eval_size=32)
    base.update(kw)
    return SyntheticTaskSpec(**base)


def content_tokens(batch, i):
    row = batch.token_ids[i]
    n = int(batch.attention_mask[i].sum())
    return row[1:n]  # skip CLS


def test_parity_labels_follow_counting_rule():
    train, _ = generate(spec("parity"))
    for i in range(5):
        count = int((content_tokens(train, i) == PARITY_TOKEN).sum())
        assert count % 2 == train.labels[i]


def test_majority_odd_length_has_strict_winner():
    train, _ = generate(spec("majority-token", seq_len=9))
    for i in range(train.size):
        content = content_tokens(train, i)
        counts = np.bincount(content, minlength=16)
        winner = counts.argmax()
        runners = np.delete(counts, winner)
        assert counts[winner] > runners.max()
        assert winner - 3 == train.labels[i]


def test_first_last_match_rule():
    train, _ = generate(spec("first-last-match"))
    for i in range(train.size):
        content = content_tokens(train, i)
        assert (content[0] == content[-1]) == bool(train.labels[i])


def test_contains_pattern_rule():
    a, b = PATTERN
    train, _ = generate(spec("contains-pattern"))
    for i in range(train.size):
        content = content_tokens(train, i)
        found = any(content[j] == a and content[j + 1] == b
                    for j in range(len(content) - 1))
        assert found == bool(train.labels[i])


def test_generation_is_seed_deterministic():
    t1, e1 = generate(spec("first-last-match"))
    t2, e2 = generate(spec("first-last-match"))
    assert np.array_equal(t1.token_ids, t2.token_ids)
    assert np.array_equal(e1.labels, e2.labels)
    t3, _ = generate(spec("first-last-match", seed=1))
    assert not np.array_equal(t1.token_ids, t3.token_ids)


@pytest.mark.parametrize("kind", ["parity", "majority-token",
                                  "first-last-match", "contains-pattern"])
def test_class_balance_within_one(kind):
    train, eval_ = generate(spec(kind, train_size=65, eval_size=33))
    for split in (train, eval_):
        counts = np.bincount(split.labels, minlength=2)
        assert abs(int(counts[0]) - int(counts[1])) <= 1


def test_rows_start_with_cls_and_right_pad():
    train, _ = generate(spec("contains-pattern"))
    assert np.all(train.token_ids[:, 0] == CLS_ID)
    for i in range(train.size):
        n = int(train.attention_mask[i].sum())
        assert np.all(train.attention_mask[i, :n] == 1)
        assert np.all(train.attention_mask[i, n:] == 0)
        assert np.all(train.token_ids[i, n:] == PAD_ID)
    assert train.token_ids.max() < 16


def test_invalid_specs_rejected():
    with pytest.raises(ValueError, match="unknown task kind"):
        spec("sorting")
    with pytest.raises(ValueError, match="sizes"):
        spec("parity", train_size=0)
    with pytest.raises(ValueError, match="vocab_size"):
        spec("parity", vocab_size=4)
    with pytest.raises(ValueError, match="binary"):
        spec("parity", num_classes=3)


def test_token_batch_rejects_non_prefix_mask():
    with pytest.raises(ValueError, match="prefix"):
        TokenBatch(np.zeros((1, 3)), np.array([[1, 0, 1]]), np.zeros(1))


def test_token_batch_rejects_mask_values_other_than_0_and_1():
    # 2, 1, 0 falls left to right, but 2 is not a token flag
    for mask in ([[2, 1, 0]], [[1, -1, 0]], [[1, 1, 3]], [[1, 0.5, 0]]):
        with pytest.raises(ValueError, match="other than 0 and 1"):
            TokenBatch([[2, 3, 4]], mask, [0])


def test_token_batch_rejects_ids_and_labels_that_are_not_whole_numbers():
    # a cast to int64 would load these as ids [[2, 3, 4]] and label 0
    for ids, labels in (([[2, 3.7, 4.2]], [0]), ([[2, 3, 4]], [0.9]),
                        ([[2, np.nan, 4]], [0]), ([[2, 3, 4]], [np.inf])):
        with pytest.raises(ValueError, match="not whole numbers"):
            TokenBatch(ids, [[1, 1, 0]], labels)
    # whole-valued floats load as int64
    b = TokenBatch(np.full((1, 3), 2.0), [[1.0, 1.0, 0.0]], [1.0])
    assert b.token_ids.dtype == b.attention_mask.dtype == b.labels.dtype == np.int64
    assert b.token_ids.tolist() == [[2, 2, 2]] and b.labels.tolist() == [1]
    assert b.token_count == 2


def test_token_batch_rejects_a_row_without_tokens():
    for mask in ([[1, 1], [0, 0]], np.zeros((1, 0))):
        with pytest.raises(ValueError, match="CLS"):
            TokenBatch(np.zeros_like(mask), mask, np.zeros(len(mask)))
    TokenBatch(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0))  # no rows


def test_batches_cover_in_order():
    # contains-pattern rows hold 9 to 17 tokens of 17 columns
    train, _ = generate(spec("contains-pattern", seq_len=16, train_size=10))
    lengths = train.attention_mask.sum(axis=1)
    got = list(batches(train, 4))
    assert [b.size for b in got] == [4, 4, 2]
    for start, b in zip(range(0, 10, 4), got):
        rows = slice(start, start + 4)
        width = lengths[rows].max()
        # each batch is padded only to its longest row
        assert b.token_ids.shape[1] == b.attention_mask.shape[1] == width
        assert np.array_equal(b.token_ids, train.token_ids[rows, :width])
        assert np.array_equal(b.attention_mask, train.attention_mask[rows, :width])
        assert np.array_equal(b.labels, train.labels[rows])
        assert not train.attention_mask[rows, width:].any()
    assert any(b.token_ids.shape[1] < train.token_ids.shape[1] for b in got)


# ---------------------------------------------------------------------------
# TSV ingestion


def test_ingest_builds_vocab_and_prepends_cls(tmp_path):
    path = tmp_path / "train.tsv"
    path.write_text("1\thello world\n0\tworld again\n", encoding="utf-8")
    data, vocab = ingest_tsv(path)
    assert vocab["hello"] == 3 and vocab["world"] == 4 and vocab["again"] == 5
    assert data.token_ids[0].tolist() == [CLS_ID, 3, 4]
    assert data.labels.tolist() == [1, 0]


def test_unseen_eval_token_maps_to_unk(tmp_path):
    train_path = tmp_path / "train.tsv"
    train_path.write_text("0\tred green\n", encoding="utf-8")
    _, vocab = ingest_tsv(train_path)
    eval_path = tmp_path / "eval.tsv"
    eval_path.write_text("1\tred blue\n", encoding="utf-8")
    data, _ = ingest_tsv(eval_path, vocab=vocab)
    assert data.token_ids[0].tolist() == [CLS_ID, vocab["red"], UNK_ID]


def test_retokenizing_with_saved_vocab_is_identical(tmp_path):
    path = tmp_path / "train.tsv"
    path.write_text("1\tThe Quick brown fox\n0\tthe quick RED fox\n",
                    encoding="utf-8")
    data, vocab = ingest_tsv(path)
    vpath = tmp_path / "vocab.tsv"
    save_vocab(vpath, vocab)
    # one "token<TAB>id" line per token, in id order, tokens lowercased
    text = vpath.read_text(encoding="utf-8")
    assert text == ("<pad>\t0\n<unk>\t1\n<cls>\t2\nthe\t3\nquick\t4\n"
                    "brown\t5\nfox\t6\nred\t7\n")
    reloaded = {token: int(idx) for token, idx in
                (line.split("\t") for line in text.splitlines())}
    again, _ = ingest_tsv(path, vocab=reloaded)
    assert np.array_equal(data.token_ids, again.token_ids)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1\tok line\nno tab here\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2:"):
        ingest_tsv(path)
    path.write_text("x\ttext\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not an integer"):
        ingest_tsv(path)


def test_truncation_to_max_len(tmp_path):
    path = tmp_path / "long.tsv"
    path.write_text("0\t" + " ".join(["tok"] * 50) + "\n", encoding="utf-8")
    data, _ = ingest_tsv(path, max_len=8)
    assert data.token_ids.shape[1] == 8
