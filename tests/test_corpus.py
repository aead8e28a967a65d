from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbench import corpus as C


def test_build_vocab_replace_singletons():
    vocab = C.build_vocab(["a b a", "a c"], policy="replace_singletons")
    assert vocab.tokens == [C.BOS, C.EOS, C.UNK, "a"]
    assert C.encode(vocab, "b") == [C.UNK_ID]
    assert C.encode(vocab, "c") == [C.UNK_ID]


def test_build_vocab_keep_all_single_token():
    vocab = C.build_vocab(["a"], policy="keep_all")
    assert vocab.tokens == [C.BOS, C.EOS, C.UNK, "a"]
    assert len(vocab) == 4


def test_build_vocab_empty_corpus():
    with pytest.raises(C.DataError, match="empty corpus"):
        C.build_vocab([], policy="keep_all")
    with pytest.raises(C.DataError, match="empty corpus"):
        C.build_vocab(["", "   "], policy="replace_singletons")


def test_build_vocab_min_count():
    vocab = C.build_vocab(["a a a b b c"], policy="min_count", min_count=2)
    assert "a" in vocab and "b" in vocab and "c" not in vocab


def test_build_vocab_first_occurrence_order_deterministic():
    lines = ["z q z", "m q"]
    v1 = C.build_vocab(lines)
    v2 = C.build_vocab(list(lines))
    assert v1.tokens == v2.tokens == [C.BOS, C.EOS, C.UNK, "z", "q", "m"]


def test_vocabulary_invariants_enforced():
    with pytest.raises(ValueError, match="reserved"):
        C.Vocabulary(tokens=["a", C.EOS, C.UNK])
    with pytest.raises(ValueError, match="v_all"):
        C.Vocabulary(tokens=[C.BOS, C.EOS, C.UNK, "a"], v_all=4)


def test_encode_oov_and_eos():
    vocab = C.build_vocab(["a b a", "a c"], policy="replace_singletons")
    a = vocab.id_of("a")
    assert C.encode(vocab, "a b", append_eos=True) == [a, C.UNK_ID, C.EOS_ID]
    assert C.encode(vocab, "", append_eos=True) == [C.EOS_ID]
    assert C.encode(vocab, "a a a") == [a, a, a]


def test_roundtrip_in_vocab():
    vocab = C.build_vocab(["the cat sat", "the dog ran"])
    ids = C.encode(vocab, "the dog sat")
    assert C.decode(vocab, ids) == ["the", "dog", "sat"]
    for tok_id in range(len(vocab)):
        assert vocab.id_of(vocab.token_of(tok_id)) == tok_id


def test_read_token_lines_bad_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"good line\n\xff\xfe broken\n")
    with pytest.raises(C.DataError, match="line 2"):
        C.read_token_lines(path)


def test_read_parallel_mismatch(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("a\nb\n")
    tgt.write_text("x\n")
    with pytest.raises(C.DataError, match="mismatch"):
        C.read_parallel(src, tgt)


def test_make_batches_two_sentences():
    s_short = [3, C.EOS_ID]                    # counted length 2
    s_long = [3, 4, 5, C.EOS_ID]               # counted length 4
    batches = C.make_batches([s_short, s_long], batch_size=2)
    assert len(batches) == 1
    batch = batches[0]
    assert batch.token_matrix.shape == (4, 2)
    assert batch.mask[:, 0].sum() == 2
    assert batch.mask[:, 1].sum() == 4
    # padding rows are EOS with zero mask
    assert batch.token_matrix[2, 0] == C.EOS_ID
    assert batch.mask[2, 0] == 0.0


def test_make_batches_batch_size_one_no_padding():
    sents = [[3, 4, C.EOS_ID], [5, C.EOS_ID]]
    for batch in C.make_batches(sents, batch_size=1):
        assert batch.mask.all()


def test_make_batches_remainder():
    sents = [[3, C.EOS_ID]] * 3
    batches = C.make_batches(sents, batch_size=2)
    assert [b.size for b in batches] == [2, 1]


def test_make_batches_zero_batch_size():
    with pytest.raises(ValueError):
        C.make_batches([[C.EOS_ID]], batch_size=0)


def test_mask_sum_conservation():
    rng = np.random.default_rng(7)
    sents = [[int(x) for x in rng.integers(3, 9, size=rng.integers(1, 12))] + [C.EOS_ID]
             for _ in range(37)]
    expected = sum(len(s) for s in sents)
    for batch_size in (1, 2, 5, 37, 100):
        for sort in (True, False):
            batches = C.make_batches(sents, batch_size, sort_by_length=sort)
            assert sum(b.mask.sum() for b in batches) == expected


def test_sorting_is_stable():
    sents = [[3, C.EOS_ID], [4, C.EOS_ID], [5, 6, C.EOS_ID]]
    batches = C.make_batches(sents, batch_size=3, sort_by_length=True)
    cols = batches[0].token_matrix
    assert cols[0, 0] == 3 and cols[0, 1] == 4


# ---- properties -----------------------------------------------------------------

_LINES = st.lists(st.lists(st.sampled_from("abcdef"), max_size=6).map(" ".join),
                  min_size=1, max_size=8).filter(lambda ls: any(l.split() for l in ls))


@settings(max_examples=150, deadline=None)
@given(_LINES, st.sampled_from(["keep_all", "replace_singletons", "min_count"]),
       st.integers(1, 4))
def test_vocab_keeps_reserved_ids_and_maps_unknown_words_to_unk(lines, policy, min_count):
    vocab = C.build_vocab(lines, policy=policy, min_count=min_count)
    assert vocab.tokens[:3] == [C.BOS, C.EOS, C.UNK]
    counts = Counter(tok for line in lines for tok in line.split())
    threshold = {"keep_all": 1, "replace_singletons": 2, "min_count": min_count}[policy]
    for line in lines + ["x a y"]:              # x and y are never in the corpus
        ids = C.encode(vocab, line, append_eos=True)
        assert ids[-1] == C.EOS_ID
        for tok, i in zip(line.split(), ids):
            if counts[tok] >= threshold:
                assert i >= 3 and vocab.token_of(i) == tok
            else:
                assert i == C.UNK_ID


_SENTENCES = st.lists(
    st.lists(st.integers(3, 9), max_size=7).map(lambda ids: ids + [C.EOS_ID]),
    min_size=1, max_size=20)


@settings(max_examples=150, deadline=None)
@given(_SENTENCES, st.integers(1, 8), st.booleans())
def test_make_batches_places_every_sentence_once(sentences, batch_size, sort):
    placed = []
    for batch in C.make_batches(sentences, batch_size, sort_by_length=sort):
        assert 1 <= batch.size <= batch_size
        for j in range(batch.size):
            column = batch.token_matrix[:, j].tolist()
            length = column.index(C.EOS_ID) + 1      # only the last real token is EOS
            assert batch.true_lengths[j] == length
            assert batch.mask[:, j].sum() == length
            assert batch.mask[:length, j].all()
            assert column[length:] == [C.EOS_ID] * (len(column) - length)
            placed.append(column[:length])
    assert sorted(placed) == sorted(sentences)
    assert placed == (sorted(sentences, key=len) if sort else sentences)
