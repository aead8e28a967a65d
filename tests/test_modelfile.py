import struct

import numpy as np
import pytest

from helpers import per_gate_model
from seqbench import corpus as C
from seqbench.evaluate import evaluate_ll
from seqbench.loglinear import LogLinearLM
from seqbench.modelfile import (ModelFile, load_model, read_modelfile,
                                save_model, write_modelfile)
from seqbench.ngram import NGramLM
from seqbench.nnet import CELL_KINDS, FFNNLM, RNNLM
from seqbench.search import LengthPrior, beam_search, greedy
from seqbench.seq2seq import EncDecModel

LINES = ["a b c", "b c a", "c a a", "a b"]


def test_raw_roundtrip(tmp_path):
    vocab = C.build_vocab(LINES)
    mf = ModelFile(kind="ngram", vocabs=[vocab], hparams={"n": 2},
                   tensors={"alpha": np.array([[0.1], [0.2]])},
                   counts={(3,): 4, (3, 4): 1})
    path = tmp_path / "m.bin"
    write_modelfile(mf, path)
    back = read_modelfile(path)
    assert back.kind == "ngram"
    assert back.vocabs[0].tokens == vocab.tokens
    assert back.vocabs[0].v_all == vocab.v_all
    assert back.hparams == {"n": "2"}
    assert np.array_equal(back.tensors["alpha"], mf.tensors["alpha"])
    assert back.counts == mf.counts


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(C.DataError, match="magic"):
        read_modelfile(path)


def test_version_refusal(tmp_path):
    path = tmp_path / "future.bin"
    path.write_bytes(b"S2SW" + struct.pack("<I", 99) + b"\x00" * 8)
    with pytest.raises(C.DataError, match="version 99"):
        read_modelfile(path)


def scoring_fingerprint(model, lines=LINES):
    return [evaluate_ll(model, [line.split()]) for line in lines]


def test_ngram_roundtrip_bit_identical(tmp_path):
    model = NGramLM.train(LINES, n=3, alphas=[0.1, 0.25, 0.4])
    path = tmp_path / "ngram.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert scoring_fingerprint(loaded) == scoring_fingerprint(model)
    assert loaded.table.counts == model.table.counts
    assert loaded.table.context_counts == model.table.context_counts


def test_loglinear_roundtrip(tmp_path):
    vocab = C.build_vocab(LINES)
    model = LogLinearLM(vocab, "prev2_words")
    model.train_sgd(LINES, lr=0.1, epochs=2, rng=np.random.default_rng(0))
    path = tmp_path / "ll.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.W, model.W)
    assert np.array_equal(loaded.b, model.b)
    assert scoring_fingerprint(loaded) == scoring_fingerprint(model)


@pytest.mark.parametrize("name", ["W", "b"])
def test_misshapen_loglinear_tensor_is_rejected_naming_the_file(tmp_path, name):
    vocab = C.build_vocab(LINES)
    path = tmp_path / "ll.bin"
    save_model(LogLinearLM(vocab, "prev_word"), path)
    mf = read_modelfile(path)
    expected = mf.tensors[name].shape
    mf.tensors[name] = mf.tensors[name][:-1]
    write_modelfile(mf, path)
    message = (rf"ll\.bin: tensor '{name}' has shape \({expected[0] - 1}, "
               rf"{expected[1]}\), expected \({expected[0]}, {expected[1]}\)")
    with pytest.raises(C.DataError, match=message):
        load_model(path)


def test_ffnnlm_roundtrip(tmp_path):
    vocab = C.build_vocab(LINES)
    model = FFNNLM(vocab, n=3, embed_size=4, hidden_size=5,
                   rng=np.random.default_rng(1))
    path = tmp_path / "ff.bin"
    save_model(model, path)
    loaded = load_model(path)
    for p, q in zip(model.parameters(), loaded.parameters()):
        assert p.name == q.name
        assert np.array_equal(p.value, q.value)
    assert scoring_fingerprint(loaded) == scoring_fingerprint(model)


def test_rnnlm_roundtrip(tmp_path):
    vocab = C.build_vocab(LINES)
    model = RNNLM(vocab, cell="gru", embed_size=3, hidden_size=4, layers=2,
                  residual=False, rng=np.random.default_rng(2))
    path = tmp_path / "rnn.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.rnn.kind == "gru"
    assert len(loaded.rnn.cells) == 2
    assert scoring_fingerprint(loaded) == scoring_fingerprint(model)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_is_rejected_naming_the_file(tmp_path, bad):
    vocab = C.build_vocab(LINES)
    loglinear = LogLinearLM(vocab, "prev_word")
    ff = FFNNLM(vocab, n=3, embed_size=2, hidden_size=3)
    rnn = RNNLM(vocab, cell="lstm", embed_size=2, hidden_size=3)
    for model, name, bias in ((loglinear, "b", loglinear.b), (ff, "b_s", ff.b_s.value),
                              (rnn, "b_s", rnn.b_s.value)):
        bias[-1, 0] = bad
        path = tmp_path / f"{type(model).__name__}.bin"
        save_model(model, path)
        message = rf"{path.name}: tensor '{name}' holds NaN or Inf"
        with pytest.raises(C.DataError, match=message):
            load_model(path)


def test_encdec_roundtrip_with_prior(tmp_path):
    src = C.build_vocab(["x y z"])
    tgt = C.build_vocab(LINES)
    model = EncDecModel(src, tgt, embed_size=3, hidden_size=4,
                        encoder="bidirectional", attention="mlp", attn_hidden=6,
                        rng=np.random.default_rng(3))
    model.length_prior = LengthPrior.from_pairs(
        [([1, 2], [3, 4, C.EOS_ID]), ([1], [3, C.EOS_ID])])
    path = tmp_path / "ed.bin"
    save_model(model, path)
    loaded = load_model(path)
    pair = (["x", "y"], ["a", "b"])
    assert evaluate_ll(loaded, [pair]) == evaluate_ll(model, [pair])
    assert loaded.length_prior.pair_counts == model.length_prior.pair_counts
    assert loaded.length_prior.source_counts == model.length_prior.source_counts
    assert loaded.attention == "mlp"
    assert loaded.W_a1_dec.value.shape[0] == 6


@pytest.mark.parametrize("direction,attention", [
    ("forward", "none"), ("reverse", "none"), ("bidirectional", "dot"),
    ("bidirectional", "bilinear")])
def test_encdec_variants_roundtrip(tmp_path, direction, attention):
    src = C.build_vocab(["x y z"])
    tgt = C.build_vocab(LINES)
    model = EncDecModel(src, tgt, embed_size=3, hidden_size=4,
                        dec_hidden=8 if attention == "dot" else None,
                        encoder=direction, attention=attention,
                        bridge="tanh" if direction == "bidirectional" else "copy",
                        rng=np.random.default_rng(4))
    path = tmp_path / "v.bin"
    save_model(model, path)
    loaded = load_model(path)
    pair = (["x", "z", "y"], ["c", "a"])
    assert evaluate_ll(loaded, [pair]) == evaluate_ll(model, [pair])


@pytest.mark.parametrize("cell", CELL_KINDS)
def test_per_gate_file_loads_bit_for_bit(tmp_path, cell):
    # a file holding one tensor per parameter of per-gate cells, the layout
    # files had before the gates were stacked, and the one save still writes
    src = C.build_vocab(["x y z"])
    tgt = C.build_vocab(LINES)
    model = EncDecModel(src, tgt, embed_size=4, hidden_size=8, cell=cell,
                        rng=np.random.default_rng(5))
    reference = per_gate_model(model, ("enc_fwd", "enc_bwd", "dec"))
    path = tmp_path / "stacked.bin"
    save_model(model, path)
    mf = read_modelfile(path)
    mf.tensors = {p.name: p.value for p in reference.parameters()}
    per_gate = tmp_path / "per_gate.bin"
    write_modelfile(mf, per_gate)
    assert per_gate.read_bytes() == path.read_bytes()

    loaded = load_model(per_gate)
    for p, q in zip(model.parameters(), loaded.parameters()):
        assert p.name == q.name and p.value.tobytes() == q.value.tobytes()

    def decodes(decoder):
        g = greedy(decoder, [3, 5, 4], max_len=6)
        b = beam_search(decoder, [3, 5, 4], beam_size=3, max_len=6)[0]
        return g.tokens, g.logprob, b.tokens, b.logprob

    assert decodes(loaded) == decodes(model) == decodes(reference)


def test_every_truncation_and_byte_flip_loads_or_raises_data_error(tmp_path):
    # small encoder-decoder files: vocabularies, string hparams, tensors
    # (per-gate ones split from stacked cells too) and a length prior; every
    # damaged copy must load or raise DataError
    src = C.build_vocab(["w x"])
    tgt = C.build_vocab(["p q"])
    for cell in ("rnn", "lstm_forget", "gru"):
        model = EncDecModel(src, tgt, embed_size=1, hidden_size=1, encoder="forward",
                            attention="mlp", cell=cell, rng=np.random.default_rng(0))
        model.length_prior = LengthPrior.from_pairs([([3], [4, C.EOS_ID])])
        path = tmp_path / f"small_{cell}.bin"
        save_model(model, path)
        blob = path.read_bytes()
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(C.DataError):
                load_model(path)
        for i in range(len(blob)):
            path.write_bytes(blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:])
            try:
                load_model(path)
            except C.DataError:
                pass
