import math
import struct

import numpy as np
import pytest

from seqbench import corpus as C
from seqbench.cli import main
from seqbench.modelfile import (load_model, read_modelfile, save_model,
                                write_modelfile)
from seqbench.nnet import RNNLM


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def toy_corpus(tmp_path):
    train = write(tmp_path / "train.txt", "a b\na a\n")
    return tmp_path, train


def read_report(capsys):
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line and not line.startswith("#")]
    return {key: value for key, value in (line.split("\t") for line in lines)}


def test_unknown_subcommand_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["translate", "--bogus-flag", "x"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_file_is_data_error(tmp_path, capsys):
    model = str(tmp_path / "m.bin")
    assert main(["train-ngram", "--train", str(tmp_path / "nope.txt"),
                 "--model", model]) == 2
    assert "data error" in capsys.readouterr().err


def test_train_ngram_eval_ppl_matches_hand_mle(toy_corpus, capsys):
    tmp_path, train = toy_corpus
    model = str(tmp_path / "ngram.bin")
    assert main(["train-ngram", "--train", train, "--model", model,
                 "--order", "2", "--alpha", "1e-9"]) == 0
    assert main(["eval-ppl", "--model", model, "--data", train]) == 0
    report = read_report(capsys)
    # hand MLE: P(a|<s>)=1, P(b|a)=1/3, P(EOS|b)=1, P(a|a)=1/3, P(EOS|a)=1/3
    # over 6 counted tokens: ppl -> 3^(1/2) as alpha -> 0
    assert float(report["perplexity"]) == pytest.approx(math.sqrt(3), abs=1e-6)
    assert int(report["unk_count"]) == 0


def test_eval_ppl_uniform_model_is_vocab_size(tmp_path, capsys):
    words = [f"w{i}" for i in range(7)]
    corpus = write(tmp_path / "c.txt", " ".join(words) + "\n" + words[0] + "\n")
    vocab = C.build_vocab([" ".join(words)])       # |V| = 10
    model = RNNLM(vocab, cell="rnn", embed_size=3, hidden_size=4)
    for p in model.parameters():
        p.value[...] = 0.0
    path = str(tmp_path / "uniform.bin")
    save_model(model, path)
    assert main(["eval-ppl", "--model", path, "--data", corpus]) == 0
    report = read_report(capsys)
    assert float(report["perplexity"]) == pytest.approx(10.0, abs=1e-9)


def test_train_loglinear_metrics_file(toy_corpus):
    tmp_path, train = toy_corpus
    model = str(tmp_path / "ll.bin")
    metrics = str(tmp_path / "ll.metrics")
    assert main(["train-loglinear", "--train", train, "--dev", train,
                 "--model", model, "--epochs", "3", "--lr", "0.2",
                 "--metrics", metrics, "--template", "prev_word"]) == 0
    rows = open(metrics).read().splitlines()
    assert len(rows) == 3
    for i, row in enumerate(rows, start=1):
        epoch, train_loss, dev_ll, dev_ppl = row.split("\t")
        assert int(epoch) == i
        assert float(dev_ppl) == pytest.approx(
            math.exp(-float(dev_ll) / 6), rel=1e-12)


def test_seed_determinism_produces_identical_model_files(tmp_path):
    train = write(tmp_path / "t.txt", "a b c\nc b a\nb b a\n")
    out1, out2, out3 = (str(tmp_path / f"m{i}.bin") for i in range(3))
    base = ["train-rnnlm", "--train", train, "--epochs", "2", "--embed", "4",
            "--hidden", "5", "--batch-size", "2"]
    assert main(base + ["--model", out1, "--seed", "7"]) == 0
    assert main(base + ["--model", out2, "--seed", "7"]) == 0
    assert main(base + ["--model", out3, "--seed", "8"]) == 0
    blob1, blob2, blob3 = (open(p, "rb").read() for p in (out1, out2, out3))
    assert blob1 == blob2
    assert blob1 != blob3


def test_save_load_eval_bit_identical_every_kind(tmp_path, capsys):
    train = write(tmp_path / "t.txt", "a b c\nc b a\nb b a\na c\n")
    reports = {}
    for kind, extra in [("train-ngram", ["--order", "2"]),
                        ("train-loglinear", ["--epochs", "2"]),
                        ("train-ffnnlm", ["--epochs", "2", "--embed", "3",
                                          "--hidden", "4"]),
                        ("train-rnnlm", ["--epochs", "2", "--embed", "3",
                                         "--hidden", "4"])]:
        model = str(tmp_path / f"{kind}.bin")
        assert main([kind, "--train", train, "--model", model] + extra) == 0
        assert main(["eval-ppl", "--model", model, "--data", train]) == 0
        first = read_report(capsys)
        resaved = str(tmp_path / f"{kind}2.bin")
        save_model(load_model(model), resaved)
        assert main(["eval-ppl", "--model", resaved, "--data", train]) == 0
        assert read_report(capsys) == first
        reports[kind] = first
    assert len(reports) == 4


@pytest.fixture(scope="module")
def translation_setup(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("mt")
    rng = np.random.default_rng(0)
    symbols = list("defgh")
    pairs = []
    for _ in range(60):
        words = rng.choice(symbols, size=rng.integers(1, 5))
        line = " ".join(words)
        pairs.append((line, line))
    src = write(tmp_path / "src.txt", "\n".join(f for f, _ in pairs) + "\n")
    tgt = write(tmp_path / "tgt.txt", "\n".join(e for _, e in pairs) + "\n")
    model = str(tmp_path / "copy.bin")
    code = main(["train-encdec", "--train-src", src, "--train-tgt", tgt,
                 "--model", model, "--epochs", "4", "--embed", "8",
                 "--hidden", "12", "--optimizer", "adam", "--lr", "0.02",
                 "--attention", "mlp", "--encoder", "bidir",
                 "--unk-policy", "keep_all", "--seed", "5"])
    assert code == 0
    inputs = write(tmp_path / "in.txt", "d e f\nh g\nf\n")
    return tmp_path, model, inputs


def test_translate_beam_one_equals_greedy(translation_setup):
    tmp_path, model, inputs = translation_setup
    out_greedy = str(tmp_path / "g.txt")
    out_beam = str(tmp_path / "b.txt")
    assert main(["translate", "--model", model, "--input", inputs,
                 "--output", out_greedy, "--search", "greedy"]) == 0
    assert main(["translate", "--model", model, "--input", inputs,
                 "--output", out_beam, "--search", "beam", "--beam-size", "1"]) == 0
    assert open(out_greedy, "rb").read() == open(out_beam, "rb").read()


def test_translate_corrupt_model_is_data_error(translation_setup, capsys):
    tmp_path, model, inputs = translation_setup
    blob = bytearray(open(model, "rb").read())
    blob[12] ^= 0xFF            # first byte of the kind string: no longer UTF-8
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(bytes(blob))
    assert main(["translate", "--model", str(corrupt), "--input", inputs]) == 2
    assert "corrupt.bin" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_translate_non_finite_model_is_data_error(translation_setup, capsys, bad):
    tmp_path, model, inputs = translation_setup
    blob = bytearray(open(model, "rb").read())
    # name, rank 2 and two dims precede the first W_hs payload entry
    at = blob.index(struct.pack("<I", 4) + b"W_hs") + 8 + 4 + 8
    blob[at:at + 8] = struct.pack("<d", bad)
    broken = tmp_path / "non_finite.bin"
    broken.write_bytes(bytes(blob))
    assert main(["translate", "--model", str(broken), "--input", inputs]) == 2
    err = capsys.readouterr().err
    assert "non_finite.bin" in err and "W_hs" in err
    assert main(["ensemble-translate", "--models", f"{model},{broken}",
                 "--input", inputs]) == 2
    assert "non_finite.bin" in capsys.readouterr().err


def test_ensemble_translate_names_the_bad_model(translation_setup, capsys):
    tmp_path, model, inputs = translation_setup
    for problem in ("missing tensor", "has shape"):
        mf = read_modelfile(model)
        if problem == "missing tensor":
            del mf.tensors["W_hs"]
        else:
            mf.tensors["b_s"] = mf.tensors["b_s"][:-1]
        bad = str(tmp_path / "bad.bin")
        write_modelfile(mf, bad)
        assert main(["ensemble-translate", "--models", f"{model},{bad}",
                     "--input", inputs]) == 2
        err = capsys.readouterr().err
        assert "bad.bin" in err and problem in err


def test_translate_nbest_format(translation_setup):
    tmp_path, model, inputs = translation_setup
    out = str(tmp_path / "nbest.txt")
    assert main(["translate", "--model", model, "--input", inputs,
                 "--output", out, "--search", "beam", "--beam-size", "3",
                 "--nbest", "3"]) == 0
    rows = open(out, encoding="utf-8").read().splitlines()
    assert rows
    for row in rows:
        index, tokens, score = row.split(" ||| ")
        assert index.isdigit()
        float(score)


def test_translate_length_norms(translation_setup):
    tmp_path, model, inputs = translation_setup
    for norm in ("none", "prior", "perword"):
        out = str(tmp_path / f"norm_{norm}.txt")
        assert main(["translate", "--model", model, "--input", inputs,
                     "--output", out, "--search", "beam", "--beam-size", "2",
                     "--length-norm", norm]) == 0
        assert len(open(out, encoding="utf-8").read().splitlines()) == 3


def test_translate_replace_unk(translation_setup, tmp_path):
    mt_tmp, model, _ = translation_setup
    loaded = load_model(model)
    # force the unknown token as the decoder's sure-thing first choice
    loaded.b_s.value[...] = -20.0
    loaded.b_s.value[C.UNK_ID, 0] = 20.0
    loaded.b_s.value[C.EOS_ID, 0] = 10.0
    rigged = str(tmp_path / "rigged.bin")
    save_model(loaded, rigged)
    inputs = write(tmp_path / "one.txt", "d e\n")
    plain = str(tmp_path / "plain.txt")
    replaced = str(tmp_path / "replaced.txt")
    assert main(["translate", "--model", rigged, "--input", inputs,
                 "--output", plain, "--max-len", "2"]) == 0
    assert main(["translate", "--model", rigged, "--input", inputs,
                 "--output", replaced, "--replace-unk", "--max-len", "2"]) == 0
    plain_words = open(plain, encoding="utf-8").read().split()
    replaced_words = open(replaced, encoding="utf-8").read().split()
    assert C.UNK in plain_words
    assert all(w in ("d", "e") for w in replaced_words)
    assert len(replaced_words) == len(plain_words)


def test_ensemble_translate_identical_members(translation_setup):
    tmp_path, model, inputs = translation_setup
    single = str(tmp_path / "single.txt")
    double = str(tmp_path / "double.txt")
    assert main(["translate", "--model", model, "--input", inputs,
                 "--output", single]) == 0
    assert main(["ensemble-translate", "--models", f"{model},{model}",
                 "--input", inputs, "--output", double]) == 0
    assert open(single, encoding="utf-8").read() == open(double, encoding="utf-8").read()


def test_eval_ppl_conditional_needs_source(translation_setup, capsys):
    tmp_path, model, inputs = translation_setup
    assert main(["eval-ppl", "--model", model, "--data", inputs]) == 1
    assert main(["eval-ppl", "--model", model, "--data", inputs,
                 "--source", inputs]) == 0
    report = read_report(capsys)
    assert float(report["perplexity"]) > 0


def test_decode_rejects_non_positive_sizes(translation_setup, toy_corpus, capsys):
    tmp_path, model, inputs = translation_setup
    out = str(tmp_path / "bad.txt")
    for flags, message in ((["--search", "beam", "--beam-size", "0"], ">= 1"),
                           (["--search", "beam", "--beam-size", "-3"], ">= 1"),
                           (["--search", "greedy", "--max-len", "0"], ">= 1"),
                           (["--search", "beam", "--max-len", "0"], ">= 1"),
                           (["--search", "sample", "--max-len", "-1"], ">= 1"),
                           (["--search", "beam", "--nbest", "-1"], ">= 0")):
        assert main(["translate", "--model", model, "--input", inputs,
                     "--output", out] + flags) == 1
        assert f"must be {message}" in capsys.readouterr().err
    lm_dir, train = toy_corpus
    lm = str(lm_dir / "lm.bin")
    assert main(["train-ngram", "--train", train, "--model", lm]) == 0
    for flags in (["--max-len", "0"], ["--count", "-2"], ["--count", "0"]):
        assert main(["sample", "--model", lm] + flags) == 1
        assert "must be >= 1" in capsys.readouterr().err


def test_training_rejects_bad_model_flags(toy_corpus, capsys):
    tmp_path, train = toy_corpus
    model = str(tmp_path / "bad.bin")
    # dot attention scores need the decoder as wide as the source encoding,
    # which the default bidirectional encoder and tanh bridge do not give
    assert main(["train-encdec", "--train-src", train, "--train-tgt", train,
                 "--model", model, "--attention", "dot", "--embed", "4",
                 "--hidden", "4", "--epochs", "1"]) == 1
    assert "dot attention" in capsys.readouterr().err
    # the copy bridge hands the decoder one direction's final state, which
    # cannot fill a decoder sized to the bidirectional encoding
    assert main(["train-encdec", "--train-src", train, "--train-tgt", train,
                 "--model", model, "--bridge", "copy", "--embed", "4",
                 "--hidden", "4", "--epochs", "1"]) == 1
    assert "copy bridge" in capsys.readouterr().err
    assert main(["train-rnnlm", "--train", train, "--model", model,
                 "--batch-size", "0", "--epochs", "1"]) == 1
    assert "must be >= 1" in capsys.readouterr().err
    assert main(["train-rnnlm", "--train", train, "--model", model,
                 "--layers", "0", "--epochs", "1"]) == 1
    assert "at least one layer" in capsys.readouterr().err


def test_translate_rejects_language_models(toy_corpus, capsys):
    tmp_path, train = toy_corpus
    model = str(tmp_path / "lm2.bin")
    assert main(["train-ngram", "--train", train, "--model", model]) == 0
    assert main(["translate", "--model", model, "--input", train]) == 1
    assert "conditional" in capsys.readouterr().err


def test_sample_reproducible(toy_corpus, capsys):
    tmp_path, train = toy_corpus
    model = str(tmp_path / "lm.bin")
    assert main(["train-ngram", "--train", train, "--model", model,
                 "--order", "2", "--alpha", "0.3"]) == 0
    outs = []
    for _ in range(2):
        assert main(["sample", "--model", model, "--count", "5",
                     "--seed", "11"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 5


def test_bleu_command(tmp_path, capsys):
    hyp = write(tmp_path / "h.txt", "the cat is on\n")
    ref = write(tmp_path / "r.txt", "the cat is on the mat\n")
    assert main(["bleu", "--hyp", hyp, "--ref", ref]) == 0
    report = {k: v for k, v in
              (line.split("\t") for line in capsys.readouterr().out.splitlines())}
    assert float(report["bleu"]) == pytest.approx(0.6065, abs=1e-4)


def test_config_file_defaults_and_override(tmp_path, capsys):
    train = write(tmp_path / "t.txt", "a b\nb a\n")
    config = write(tmp_path / "cfg.txt",
                   "# defaults\norder=3\nalpha=0.5\n")
    m1 = str(tmp_path / "m1.bin")
    m2 = str(tmp_path / "m2.bin")
    assert main(["train-ngram", "--config", config, "--train", train,
                 "--model", m1]) == 0
    assert load_model(m1).n == 3
    assert main(["train-ngram", "--config", config, "--train", train,
                 "--model", m2, "--order", "2"]) == 0
    assert load_model(m2).n == 2               # explicit flag wins


def test_divergence_exit_code(tmp_path, capsys):
    train = write(tmp_path / "t.txt", "a b c\nc b a\n")
    model = str(tmp_path / "d.bin")
    code = main(["train-ffnnlm", "--train", train, "--model", model,
                 "--epochs", "10", "--lr", "1e60", "--optimizer", "sgd",
                 "--clip-norm", "1e300", "--embed", "4", "--hidden", "4",
                 "--nonlinearity", "relu"])
    assert code == 3
    assert "diverged" in capsys.readouterr().err
