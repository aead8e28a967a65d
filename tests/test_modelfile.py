import hashlib
import struct

import numpy as np
import pytest

from helpers import per_gate_model
from seqbench import corpus as C
from seqbench.cli import main
from seqbench.evaluate import evaluate_ll
from seqbench.loglinear import TEMPLATES, LogLinearLM
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


def test_every_cut_of_a_file_with_non_ascii_tokens_is_a_truncation(tmp_path):
    # a cut anywhere, inside a multi-byte token or a tensor payload too, is
    # found by a bounds check before anything is decoded or viewed
    lines = ["née ☃ a", "☃ né b", "日本 a 日本"]
    models = [NGramLM.train(lines, n=2, alphas=0.1),
              EncDecModel(C.build_vocab(["ça va", "déjà vu"]), C.build_vocab(lines),
                          embed_size=2, hidden_size=2, encoder="forward",
                          attention="dot", cell="gru", rng=np.random.default_rng(6))]
    for model in models:
        path = tmp_path / f"{model.kind}.bin"
        save_model(model, path)
        blob = path.read_bytes()
        assert "☃".encode() in blob
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(C.DataError, match=rf"{model.kind}\.bin: truncated model file$"):
                load_model(path)


def test_loading_draws_no_random_numbers_and_copies_each_tensor(tmp_path, monkeypatch):
    neural = [(name, model) for name, model in _pinned_models()
              if model.kind in ("ffnnlm", "rnnlm", "encdec")]
    assert len(neural) == 10
    for name, model in neural:
        save_model(model, tmp_path / f"{name}.bin")

    def no_generator(*args, **kwargs):
        raise AssertionError("loading a model file made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    for name, model in neural:
        path = tmp_path / f"{name}.bin"
        mf = read_modelfile(path)
        loaded = load_model(path)
        views = loaded.file_tensors()
        assert set(views) == set(mf.tensors), name
        for key, view in views.items():
            assert view.tobytes() == mf.tensors[key].tobytes(), (name, key)
        for p, q in zip(model.parameters(), loaded.parameters()):
            assert p.name == q.name and p.value.tobytes() == q.value.tobytes()
            assert q.value.flags.c_contiguous and q.value.flags.owndata


def test_read_tensors_are_writable_views_that_write_back_identically(tmp_path):
    for name, model in _pinned_models():
        path = tmp_path / f"{name}.bin"
        save_model(model, path)
        mf = read_modelfile(path)
        assert all(tensor.flags.writeable for tensor in mf.tensors.values())
        write_modelfile(mf, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes(), name
    # an edit in place is what the next write saves
    key = next(iter(mf.tensors))
    mf.tensors[key][...] = 0.5
    write_modelfile(mf, path)
    assert (read_modelfile(path).tensors[key] == 0.5).all()


def _pinned_models():
    vocab = C.build_vocab(LINES)
    src = C.build_vocab(["x y z"])
    prior = LengthPrior.from_pairs([([3, 4], [5, C.EOS_ID]), ([3], [4, 5, C.EOS_ID])])
    yield "ngram", NGramLM.train(LINES, n=3, alphas=[0.1, 0.25, 0.4])
    for template in TEMPLATES:
        yield f"loglinear-{template}", LogLinearLM(vocab, template)
    yield "ffnnlm", FFNNLM(vocab, n=3, embed_size=3, hidden_size=4,
                           rng=np.random.default_rng(1))
    for cell in CELL_KINDS:
        yield f"rnnlm-{cell}", RNNLM(vocab, cell=cell, embed_size=3, hidden_size=3,
                                     layers=2, residual=cell == "gru",
                                     rng=np.random.default_rng(2))
    for i, (encoder, bridge, attention, cell, with_prior) in enumerate([
            ("forward", "copy", "none", "lstm_forget", True),
            ("reverse", "copy", "dot", "rnn", False),
            ("bidirectional", "concat", "bilinear", "lstm", True),
            ("bidirectional", "tanh", "mlp", "gru", False),
            ("forward", "tanh", "mlp", "lstm_forget", True)]):
        model = EncDecModel(src, vocab, embed_size=3, hidden_size=4, layers=1 + i % 2,
                            encoder=encoder, bridge=bridge, attention=attention,
                            attn_hidden=5, cell=cell, rng=np.random.default_rng(3 + i))
        if with_prior:
            model.length_prior = prior
        yield f"encdec-{encoder}-{bridge}-{attention}-{cell}", model


# SHA-256 of each file above as the format's first writer saved it; any byte
# change to the format changes one of them
PINNED_DIGESTS = {
    "ngram": "3dbaa3f8a482dd3c4456fd99a7f6710ca1ffbd39cd84f25f8d35570e459a640d",
    "loglinear-prev_word": "63e8837fa35698be01ce8ad2e04846ed395ea5d0c284c195e67aef0b5d0eeb5e",
    "loglinear-prev2_words": "d4af9bf8059c047cdbc4a5661f0a4ccf0dc2fee0bff3945d701964103f866e62",
    "loglinear-suffix_k": "0c56dd37b043629e6ccc7e118de633dbcf7d7612e2c35c01eeef6ce006b4cf92",
    "loglinear-bag_of_words": "9922a4bae6ba9350fa69e1a11b0d989d567e62f397c9c75b15c23452ac846877",
    "ffnnlm": "4657ee6d258bf43c1e87c56c9440cadf88f3c9882db220a0d43ac54b85976d8b",
    "rnnlm-rnn": "54e03bf82228cbf5b24239c69d849bd8e68aeda2d2424a61fa8d846cd6f1f63e",
    "rnnlm-lstm": "57e1b2194db38d5cdae582aa1c92583e125ccef5399cc28e14898161edce5d87",
    "rnnlm-lstm_forget": "c95d77088a73427b8ee9f4fbbb2d46fcb4b7d54d5f3ee668a977756495392e1f",
    "rnnlm-gru": "29c68e0f5fbeeba606689f1fa567054e95abb8d01d96eebaf874e9a3a1df3b62",
    "encdec-forward-copy-none-lstm_forget":
        "32634e8c8634929bfd29196d3381e6c4bdfd1f4c2c1aa51422b2630eeee5f91f",
    "encdec-reverse-copy-dot-rnn":
        "eb5441de71ec7b400a3755d7546eef73ce05cbde93e7060aad57f273766142e7",
    "encdec-bidirectional-concat-bilinear-lstm":
        "fd01d9d2546e937a4ef83bf6827aaa05c24610c50e4e8701be6b1f50f5f0d12a",
    "encdec-bidirectional-tanh-mlp-gru":
        "4922ffb80cd2534d37f35f5cf3e0f71d000cb963ea0d7f12094e97d3c9a4149f",
    "encdec-forward-tanh-mlp-lstm_forget":
        "b7710fb81fe317d75ba683b65a8fb73580e5127def5577c2d19d0c090e50a930",
}


def test_model_file_format_is_pinned(tmp_path):
    digests = {}
    for name, model in _pinned_models():
        path = tmp_path / f"{name}.bin"
        save_model(model, path)
        blob = path.read_bytes()
        digests[name] = hashlib.sha256(blob).hexdigest()
        save_model(load_model(path), tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == blob, name
    assert digests == PINNED_DIGESTS


def _ngram_file(tmp_path):
    path = tmp_path / "ngram.bin"
    save_model(NGramLM.train(LINES, n=2, alphas=0.1), path)
    return path, read_modelfile(path)


def _encdec_file(tmp_path):
    path = tmp_path / "encdec.bin"
    model = EncDecModel(C.build_vocab(["x y"]), C.build_vocab(LINES), embed_size=2,
                        hidden_size=2, encoder="forward", attention="none")
    model.length_prior = LengthPrior.from_pairs([([3], [4, C.EOS_ID])])
    save_model(model, path)
    return path, read_modelfile(path)


def _no_vocabulary(mf):
    mf.vocabs = []


def _one_vocabulary(mf):
    mf.vocabs = mf.vocabs[:1]


def _rank_one(name):
    def damage(mf):
        mf.tensors[name] = mf.tensors[name][:, 0]
    return damage


def _weight_above_one(mf):
    mf.tensors["alpha"][0, 0] = 1.5


def _count_record(gram):
    def damage(mf):
        mf.counts[gram] = 1
    return damage


def _setting(key, value):
    def damage(mf):
        if value is None:
            del mf.hparams[key]
        else:
            mf.hparams[key] = value
    return damage


@pytest.mark.parametrize("make,damage", [
    (_ngram_file, _no_vocabulary),
    (_encdec_file, _one_vocabulary),
    (_ngram_file, _rank_one("alpha")),
    (_encdec_file, _rank_one("length_prior")),
    (_ngram_file, _weight_above_one),
    (_ngram_file, _count_record(())),                # gram length 0
    (_ngram_file, _count_record((3, 4, 5))),         # longer than the order, 2
    (_ngram_file, _count_record((3, 6))),            # the 6 words have ids 0..5
    (_ngram_file, _setting("n", None)),
    (_ngram_file, _setting("n", "02")),
    (_encdec_file, _setting("attn_hidden", "3")),    # only MLP attention has one
    (_encdec_file, _setting("encoder", "sideways")),
    (_encdec_file, _setting("extra", "1")),
    (_encdec_file, _setting("rng", "7")),           # a constructor argument
], ids=["ngram-no-vocabulary", "encdec-one-vocabulary", "alpha-rank-1",
        "length-prior-rank-1", "alpha-above-1", "empty-gram", "gram-past-order", "id-past-vocabulary",
        "missing-setting", "altered-setting", "setting-of-another-variant",
        "unknown-setting-value", "extra-setting", "constructor-argument"])
def test_malformed_model_file_is_a_data_error_naming_it(tmp_path, capsys, make, damage):
    path, mf = make(tmp_path)
    damage(mf)
    write_modelfile(mf, path)
    data = str(tmp_path / "data.txt")
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("a b\n")
    source = ["--source", data] if mf.kind == "encdec" else []
    assert main(["eval-ppl", "--model", str(path), "--data", data, *source]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and path.name in err
