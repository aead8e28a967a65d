import argparse
import errno
import io
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqbench
from seqbench import cli
from seqbench import corpus as C
from seqbench.cli import build_parser, main
from seqbench.loglinear import LogLinearLM
from seqbench.modelfile import (load_model, read_modelfile, save_model,
                                write_modelfile)
from seqbench.ngram import NGramLM
from seqbench.nnet import RNNLM
from seqbench.seq2seq import EncDecModel


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
    rows = Path(metrics).read_text().splitlines()
    assert len(rows) == 3
    for i, row in enumerate(rows, start=1):
        epoch, train_loss, dev_ll, dev_ppl = row.split("\t")
        assert int(epoch) == i
        assert float(dev_ppl) == pytest.approx(
            math.exp(-float(dev_ll) / 6), rel=1e-12)


@pytest.mark.parametrize("command", ["train-loglinear", "train-rnnlm", "train-encdec"])
def test_kept_epoch_metrics_match_eval_ppl_with_unknown_words(tmp_path, capsys, command):
    train = write(tmp_path / "train.txt", "a b c\nc b a\nb b a\na c\n")
    dev = write(tmp_path / "dev.txt", "a zz b\nqq c yy\nc a\n")    # 3 unknown words
    model = str(tmp_path / "m.bin")
    metrics = str(tmp_path / "m.metrics")
    if command == "train-encdec":
        data = ["--train-src", train, "--train-tgt", train, "--dev-src", dev,
                "--dev-tgt", dev, "--embed", "3", "--hidden", "4", "--lr", "0.05"]
        source = ["--source", dev]
    else:
        data = ["--train", train, "--dev", dev]
        source = []
    if command == "train-rnnlm":
        data += ["--embed", "3", "--hidden", "4"]
    assert main([command, *data, "--model", model, "--metrics", metrics,
                 "--epochs", "3", "--unk-policy", "keep_all"]) == 0
    rows = [row.split("\t") for row in Path(metrics).read_text().splitlines()]
    kept = max(rows, key=lambda row: float(row[2]))    # the first best epoch
    assert main(["eval-ppl", "--model", model, "--data", dev, *source]) == 0
    report = read_report(capsys)
    assert float(report["unk_log_portion"]) == -3 * math.log(C.DEFAULT_V_ALL)
    assert kept[2:] == [report["total_log_likelihood"], report["perplexity"]]


def test_seed_determinism_produces_identical_model_files(tmp_path):
    train = write(tmp_path / "t.txt", "a b c\nc b a\nb b a\n")
    out1, out2, out3 = (str(tmp_path / f"m{i}.bin") for i in range(3))
    base = ["train-rnnlm", "--train", train, "--epochs", "2", "--embed", "4",
            "--hidden", "5", "--batch-size", "2"]
    assert main(base + ["--model", out1, "--seed", "7"]) == 0
    assert main(base + ["--model", out2, "--seed", "7"]) == 0
    assert main(base + ["--model", out3, "--seed", "8"]) == 0
    blob1, blob2, blob3 = (Path(p).read_bytes() for p in (out1, out2, out3))
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
    assert Path(out_greedy).read_bytes() == Path(out_beam).read_bytes()


def test_translate_corrupt_model_is_data_error(translation_setup, capsys):
    tmp_path, model, inputs = translation_setup
    blob = bytearray(Path(model).read_bytes())
    blob[12] ^= 0xFF            # first byte of the kind string: no longer UTF-8
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(bytes(blob))
    assert main(["translate", "--model", str(corrupt), "--input", inputs]) == 2
    assert "corrupt.bin" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_translate_non_finite_model_is_data_error(translation_setup, capsys, bad):
    tmp_path, model, inputs = translation_setup
    blob = bytearray(Path(model).read_bytes())
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


@pytest.mark.parametrize("side", ["source", "target"])
def test_ensemble_translate_rejects_other_vocabulary(translation_setup, capsys, side):
    tmp_path, model, inputs = translation_setup
    # the same sentences with other words on one side
    same, changed = ("tgt.txt", "src.txt") if side == "source" else ("src.txt", "tgt.txt")
    other_text = write(tmp_path / f"other_{side}.txt",
                       (tmp_path / changed).read_text(encoding="utf-8").upper())
    same_text = str(tmp_path / same)
    src, tgt = (other_text, same_text) if side == "source" else (same_text, other_text)
    other = str(tmp_path / f"other_{side}.bin")
    assert main(["train-encdec", "--train-src", src, "--train-tgt", tgt,
                 "--model", other, "--epochs", "1", "--embed", "4",
                 "--hidden", "4", "--unk-policy", "keep_all"]) == 0
    capsys.readouterr()
    assert main(["ensemble-translate", "--models", f"{model},{other}",
                 "--input", inputs]) == 2
    err = capsys.readouterr().err
    assert f"other_{side}.bin" in err and "copy.bin" in err
    assert f"{side} vocabulary" in err


def test_ensemble_translate_rejects_language_model_member(translation_setup, capsys):
    tmp_path, model, inputs = translation_setup
    lm = RNNLM(load_model(model).tgt_vocab, embed_size=2, hidden_size=4)
    lm_path = str(tmp_path / "member_lm.bin")
    save_model(lm, lm_path)
    assert main(["ensemble-translate", "--models", f"{model},{lm_path}",
                 "--input", inputs]) == 2
    err = capsys.readouterr().err
    assert "member_lm.bin" in err and "language model" in err


def test_translate_nbest_format(translation_setup):
    tmp_path, model, inputs = translation_setup
    out = str(tmp_path / "nbest.txt")
    assert main(["translate", "--model", model, "--input", inputs,
                 "--output", out, "--search", "beam", "--beam-size", "3",
                 "--nbest", "3"]) == 0
    rows = Path(out).read_text(encoding="utf-8").splitlines()
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
        assert len(Path(out).read_text(encoding="utf-8").splitlines()) == 3


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
    plain_words = Path(plain).read_text(encoding="utf-8").split()
    replaced_words = Path(replaced).read_text(encoding="utf-8").split()
    assert C.UNK in plain_words
    assert all(w in ("d", "e") for w in replaced_words)
    assert len(replaced_words) == len(plain_words)


@pytest.mark.parametrize("command", ["translate", "ensemble-translate"])
def test_replace_unk_rewrites_every_nbest_line(translation_setup, tmp_path, command):
    _, model, _ = translation_setup
    loaded = load_model(model)
    # the beam's hypotheses are unknown tokens, ended after none or more
    loaded.b_s.value[...] = -20.0
    loaded.b_s.value[C.UNK_ID, 0] = 20.0
    loaded.b_s.value[C.EOS_ID, 0] = 18.0
    rigged = str(tmp_path / "rigged.bin")
    save_model(loaded, rigged)
    inputs = write(tmp_path / "one.txt", "c d e\n")
    models = ["--model", rigged] if command == "translate" else ["--models", rigged]
    argv = [command, *models, "--input", inputs, "--search", "beam",
            "--beam-size", "3", "--max-len", "3", "--replace-unk"]
    best, nbest = str(tmp_path / "best.txt"), str(tmp_path / "nbest.txt")
    assert main(argv + ["--output", best]) == 0
    assert main(argv + ["--output", nbest, "--nbest", "3"]) == 0
    rows = [row.split(" ||| ") for row in Path(nbest).read_text(encoding="utf-8").splitlines()]
    outputs = [words.split() for _, words, _ in rows]
    assert len(rows) == 3 and sum(map(bool, outputs)) >= 2
    assert all(set(words) <= {"c", "d", "e"} for words in outputs)
    assert rows[0][1] == Path(best).read_text(encoding="utf-8").strip()


def test_ensemble_translate_identical_members(translation_setup):
    tmp_path, model, inputs = translation_setup
    single = str(tmp_path / "single.txt")
    double = str(tmp_path / "double.txt")
    assert main(["translate", "--model", model, "--input", inputs,
                 "--output", single]) == 0
    assert main(["ensemble-translate", "--models", f"{model},{model}",
                 "--input", inputs, "--output", double]) == 0
    assert (Path(single).read_text(encoding="utf-8")
            == Path(double).read_text(encoding="utf-8"))


def test_eval_ppl_conditional_needs_source(translation_setup, capsys):
    tmp_path, model, inputs = translation_setup
    assert main(["eval-ppl", "--model", model, "--data", inputs]) == 1
    assert main(["eval-ppl", "--model", model, "--data", inputs,
                 "--source", inputs]) == 0
    report = read_report(capsys)
    assert float(report["perplexity"]) > 0


def test_blank_lines_score_as_a_lone_eos_but_are_no_source(translation_setup, toy_corpus,
                                                           capsys):
    tmp_path, model, inputs = translation_setup
    blank = write(tmp_path / "blank.txt", "d e\n\n")
    # a blank target line scores its end-of-sentence token alone
    assert main(["eval-ppl", "--model", model, "--source", inputs,
                 "--data", write(tmp_path / "tgt3.txt", "d e f\n\nf\n")]) == 0
    assert read_report(capsys)["word_count"] == "7"
    lm_dir, train = toy_corpus
    lm = str(lm_dir / "lm.bin")
    assert main(["train-ngram", "--train", train, "--model", lm]) == 0
    assert main(["eval-ppl", "--model", lm, "--data", blank]) == 0
    assert read_report(capsys)["word_count"] == "4"
    # a blank source line is a data error naming its line
    for argv in (["translate", "--model", model, "--input", blank],
                 ["eval-ppl", "--model", model, "--source", blank, "--data", blank]):
        assert main(argv) == 2
        assert f"{blank}: line 2 is empty" in capsys.readouterr().err


def test_eval_ppl_refuses_a_reserved_end_of_sentence_naming_the_data_line(
        translation_setup, toy_corpus, capsys):
    tmp_path, model, inputs = translation_setup
    lm_dir, train = toy_corpus
    lm = str(lm_dir / "lm.bin")
    assert main(["train-ngram", "--train", train, "--model", lm]) == 0
    data = write(tmp_path / "eos.txt", "d e\nd \u27e8/s\u27e9 f\nf\n")
    for source in ([], ["--source", inputs]):
        assert main(["eval-ppl", "--model", model if source else lm, "--data", data,
                     *source]) == 2
        err = capsys.readouterr().err
        assert err == (f"data error: {data}: line 2 holds the reserved end-of-sentence "
                       f"token {C.EOS}\n")


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
    # sizes and rates are checked as flags are parsed, before any file is written
    for command, flags in (("train-rnnlm", ["--lr", "0"]),
                           ("train-rnnlm", ["--clip-norm", "0"]),
                           ("train-rnnlm", ["--hidden", "0"]),
                           ("train-ffnnlm", ["--embed", "0"]),
                           ("train-loglinear", ["--lr", "-1"]),
                           ("train-encdec", ["--dec-hidden", "0"]),
                           ("train-encdec", ["--lr", "nan"])):
        inputs = (["--train-src", train, "--train-tgt", train]
                  if command == "train-encdec" else ["--train", train])
        assert main([command, *inputs, "--model", model, "--epochs", "1", *flags]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and flags[0] in err
        assert not (tmp_path / "bad.bin.metrics").exists()
        assert not (tmp_path / "bad.bin").exists()


def test_train_encdec_rejects_a_blank_source_line_before_training(toy_corpus, capsys,
                                                                   monkeypatch):
    tmp_path, train = toy_corpus
    blank = write(tmp_path / "blank_src.txt", "a b\n \n")
    model = tmp_path / "blank.bin"
    monkeypatch.setattr(cli, "train_encdec", no_work)
    for flag in ("--train-src", "--dev-src"):
        files = {"--train-src": train, "--train-tgt": train,
                 "--dev-src": train, "--dev-tgt": train, flag: blank}
        argv = [item for pair in files.items() for item in pair]
        assert main(["train-encdec", *argv, "--model", str(model), "--epochs", "1",
                     "--embed", "4", "--hidden", "4"]) == 2
        assert f"data error: {blank}: line 2 is empty" in capsys.readouterr().err
        assert not model.exists()


def test_train_encdec_needs_both_dev_flags_or_neither(toy_corpus, capsys):
    tmp_path, train = toy_corpus
    model = tmp_path / "half_dev.bin"
    for flag in ("--dev-src", "--dev-tgt"):
        assert main(["train-encdec", "--train-src", train, "--train-tgt", train,
                     flag, train, "--model", str(model), "--epochs", "1",
                     "--embed", "4", "--hidden", "4"]) == 1
        assert "--dev-src and --dev-tgt" in capsys.readouterr().err
        assert not model.exists()


def test_replace_unk_without_attention_is_usage_error(translation_setup, tmp_path,
                                                      capsys, monkeypatch):
    _, model, inputs = translation_setup
    trained = load_model(model)
    plain = str(tmp_path / "no_attention.bin")
    save_model(EncDecModel(trained.src_vocab, trained.tgt_vocab, embed_size=4,
                           hidden_size=4, encoder="forward", attention="none"), plain)
    monkeypatch.setattr(cli, "greedy", no_work)
    for argv in (["translate", "--model", plain],
                 ["ensemble-translate", "--models", f"{plain},{model}"]):
        assert main(argv + ["--input", inputs, "--replace-unk"]) == 1
        assert "--attention none" in capsys.readouterr().err
    # only the first member's attention is followed
    monkeypatch.undo()
    assert main(["ensemble-translate", "--models", f"{model},{plain}",
                 "--input", inputs, "--replace-unk"]) == 0


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
    assert not os.path.exists(model)


def test_diverged_run_keeps_the_earlier_model(tmp_path, capsys):
    train = write(tmp_path / "t.txt", "a b c\nc b a\n")
    model = str(tmp_path / "d.bin")
    assert main(["train-ngram", "--train", train, "--model", model]) == 0
    earlier = Path(model).read_bytes()
    assert main(["train-ffnnlm", "--train", train, "--model", model,
                 "--epochs", "10", "--lr", "1e60", "--optimizer", "sgd",
                 "--clip-norm", "1e300", "--embed", "4", "--hidden", "4",
                 "--nonlinearity", "relu"]) == 3
    assert Path(model).read_bytes() == earlier
    # a run that succeeds replaces the whole file, however long it was
    assert main(["train-ngram", "--train", train, "--model", model,
                 "--order", "1"]) == 0
    assert load_model(model).n == 1


def test_loglinear_divergence_exit_code(tmp_path, capsys):
    # a rate this large drives a target's probability to 0, whose log
    # cannot be taken
    train = write(tmp_path / "t.txt", "a b c\nb c a\nc a b\na a b\n")
    code = main(["train-loglinear", "--train", train, "--model",
                 str(tmp_path / "d.bin"), "--lr", "1e308"])
    assert code == 3
    assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize("alpha,data", [("0.1", f"a {C.BOS} b\n"), ("0", "b a\n")])
def test_eval_ppl_of_an_ngram_target_of_probability_zero(toy_corpus, capsys, alpha, data):
    # the n-gram never emits the start symbol, which a literal one in the data
    # encodes to; with no held-out mass, "b" never follows the sentence start
    tmp_path, train = toy_corpus
    model = str(tmp_path / "ngram.bin")
    assert main(["train-ngram", "--train", train, "--model", model,
                 "--order", "2", "--alpha", alpha]) == 0
    capsys.readouterr()
    assert main(["eval-ppl", "--model", model,
                 "--data", write(tmp_path / "zero.txt", data)]) == 0
    report = read_report(capsys)
    assert float(report["total_log_likelihood"]) == -math.inf
    assert float(report["perplexity"]) == math.inf


def test_eval_ppl_of_a_loglinear_model_whose_probability_underflows(tmp_path, capsys):
    # with one word's W row at 1e4 every other word's probability underflows
    # to 0: the corpus scores -inf and the perplexity is infinite
    train = write(tmp_path / "t.txt", "a b c\nb c a\n")
    model = str(tmp_path / "ll.bin")
    assert main(["train-loglinear", "--train", train, "--model", model,
                 "--epochs", "1"]) == 0
    mf = read_modelfile(model)
    mf.tensors["W"][load_model(model).vocab.id_of("c"), :] = 1e4
    write_modelfile(mf, model)
    capsys.readouterr()
    assert main(["eval-ppl", "--model", model, "--data", train]) == 0
    report = read_report(capsys)
    assert float(report["total_log_likelihood"]) == -math.inf
    assert float(report["perplexity"]) == math.inf


def overflowing_copy(model_path, tmp_path, names):
    """A copy of the model file whose tensors ``names`` (prefixes) hold 1e308:
    finite values whose products overflow."""
    mf = read_modelfile(model_path)
    hit = [name for name in mf.tensors if name.startswith(names)]
    assert hit
    for name in hit:
        mf.tensors[name] = np.full(mf.tensors[name].shape, 1e308)
    path = str(tmp_path / "overflow.bin")
    write_modelfile(mf, path)
    return path


@pytest.mark.parametrize("command", ["translate", "ensemble-translate", "eval-ppl"])
def test_overflow_in_a_conditional_model_is_data_error(translation_setup, capsys,
                                                       command):
    tmp_path, model, inputs = translation_setup
    broken = overflowing_copy(model, tmp_path, ("M_f", "enc_fwd.l0.W_x"))
    args = {"translate": ["--model", broken, "--input", inputs],
            "ensemble-translate": ["--models", f"{model},{broken}", "--input", inputs],
            "eval-ppl": ["--model", broken, "--data", inputs, "--source", inputs]}
    assert main([command, *args[command]]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "overflow.bin" in err and "overflow" in err


def test_overflow_in_a_sampled_language_model_is_data_error(tmp_path, capsys):
    vocab = C.build_vocab(["a b c"])
    model = str(tmp_path / "lm.bin")
    save_model(RNNLM(vocab, cell="lstm", embed_size=3, hidden_size=4), model)
    broken = overflowing_copy(model, tmp_path, ("M", "rnn.l0.W_x"))
    assert main(["sample", "--model", broken, "--count", "2"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "overflow.bin" in err


@pytest.mark.parametrize("command", ["eval-ppl", "sample"])
@pytest.mark.parametrize("columns", [{"a": 1e308}, {"a": 1e308, "b": -1e308}],
                         ids=["inf", "nan"])
def test_overflow_in_a_loglinear_model_is_data_error(tmp_path, capsys, recwarn,
                                                     command, columns):
    # bag-of-words scores add a word's column once per occurrence: a second
    # "a" overflows to Inf, and with "b" = -1e308 Inf meets -Inf as NaN
    vocab = C.build_vocab(["a b c"])
    model = str(tmp_path / "overflow.bin")
    save_model(LogLinearLM(vocab, "bag_of_words"), model)
    mf = read_modelfile(model)
    for word, value in columns.items():
        mf.tensors["W"][:, vocab.id_of(word)] = value
    write_modelfile(mf, model)
    argv = {"eval-ppl": ["--data", write(tmp_path / "d.txt", "a a b b c\n")],
            # enough sentences that one draws "a" twice
            "sample": ["--count", "20", "--seed", "0"]}[command]
    assert main([command, "--model", model, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "overflow.bin" in err
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["eval-ppl", "translate", "sample"])
def test_a_failed_run_removes_the_line_output_it_created(translation_setup, tmp_path,
                                                        capsys, command):
    # a run that fails leaves no output file where there was none; an earlier
    # file at that path is emptied when the run opens it, as documented
    _, model, inputs = translation_setup
    lm = str(tmp_path / "lm.bin")
    save_model(RNNLM(C.build_vocab(["a b c"]), cell="lstm", embed_size=3,
                     hidden_size=4), lm)
    out = tmp_path / "out.txt"
    if command == "eval-ppl":       # a data line holding the reserved end of sentence
        argv = ["--model", lm, "--out", str(out), "--data",
                write(tmp_path / "eos.txt", "a b\na \u27e8/s\u27e9 c\n")]
    elif command == "translate":    # a model whose values overflow
        argv = ["--input", inputs, "--output", str(out), "--model",
                overflowing_copy(model, tmp_path, ("M_f", "enc_fwd.l0.W_x"))]
    else:
        argv = ["--count", "2", "--output", str(out), "--model",
                overflowing_copy(lm, tmp_path, ("M", "rnn.l0.W_x"))]
    argv = [command, *argv]
    assert main(argv) == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()
    out.write_text("earlier lines\n", encoding="utf-8")
    assert main(argv) == 2
    assert out.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("flags", [["--order", "0"], ["--alpha", "x"],
                                   ["--alpha", "2.0"], ["--alpha", "0.1,-0.5,0.2"]])
def test_train_ngram_rejects_bad_order_and_alpha(toy_corpus, capsys, flags):
    tmp_path, train = toy_corpus
    model = tmp_path / "bad.bin"
    assert main(["train-ngram", "--train", train, "--model", str(model), *flags]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and flags[0] in err
    assert not model.exists()


def training_inputs(command, train):
    return (["--train-src", train, "--train-tgt", train] if command == "train-encdec"
            else ["--train", train])


@pytest.mark.parametrize("command", ["train-ngram", "train-loglinear", "train-ffnnlm",
                                     "train-rnnlm", "train-encdec"])
@pytest.mark.parametrize("v_all", ["5", "4", "0"])
def test_v_all_not_above_the_vocabulary_size_is_usage_error(toy_corpus, capsys,
                                                            command, v_all):
    tmp_path, train = toy_corpus           # a, b and the three reserved symbols
    model = tmp_path / "bad.bin"
    policy = [] if command == "train-ngram" else ["--unk-policy", "keep_all"]
    assert main([command, *training_inputs(command, train), "--model", str(model),
                 "--v-all", v_all, *policy]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--v-all" in err
    assert not model.exists()


@pytest.mark.parametrize("command", ["train-loglinear", "train-ffnnlm", "train-rnnlm",
                                     "train-encdec"])
@pytest.mark.parametrize("epochs", ["0", "-1"])
def test_training_rejects_non_positive_epochs(toy_corpus, capsys, command, epochs):
    tmp_path, train = toy_corpus
    model = tmp_path / "bad.bin"
    assert main([command, *training_inputs(command, train), "--model", str(model),
                 "--epochs", epochs]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--epochs" in err and "must be >= 1" in err
    assert not model.exists()


@pytest.mark.parametrize("command", ["train-loglinear", "train-ffnnlm", "train-rnnlm",
                                     "train-encdec"])
@pytest.mark.parametrize("min_count", ["0", "-5"])
def test_training_rejects_non_positive_min_count(toy_corpus, capsys, command, min_count):
    tmp_path, train = toy_corpus
    model = tmp_path / "bad.bin"
    assert main([command, *training_inputs(command, train), "--model", str(model),
                 "--unk-policy", "min_count", "--min-count", min_count]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--min-count" in err and "must be >= 1" in err
    assert not model.exists()


# ---- file-valued flags: a path that cannot be opened ------------------------------

def file_flags():
    """(command, flag) for every flag the parser marks file-valued."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return [(name, flag) for name, p in sub.choices.items() for action in p._actions
            if (action.metavar or "").startswith("FILE") for flag in action.option_strings]


@pytest.fixture(scope="module")
def valid_invocations(tmp_path_factory):
    """Per command, flags that run it; only one of them is then made bad."""
    tmp = tmp_path_factory.mktemp("inputs")
    corpus = write(tmp / "corpus.txt", "a b\na a\n")
    lm = str(tmp / "lm.bin")
    save_model(NGramLM.train(["a b", "a a"], n=2, alphas=0.1,
                             vocab=C.build_vocab(["a b"])), lm)
    encdec = str(tmp / "encdec.bin")
    save_model(EncDecModel(C.build_vocab(["a b"]), C.build_vocab(["a b"]),
                           embed_size=4, hidden_size=4), encdec)
    train = ["--train", corpus, "--model", str(tmp / "model.bin")]
    return {
        "train-ngram": train,
        "train-loglinear": train,
        "train-ffnnlm": train,
        "train-rnnlm": train,               # the metrics file defaults to MODEL.metrics
        "train-encdec": ["--train-src", corpus, "--train-tgt", corpus,
                         "--dev-src", corpus, "--dev-tgt", corpus,
                         "--model", str(tmp / "encdec-out.bin")],
        "eval-ppl": ["--model", encdec, "--data", corpus, "--source", corpus],
        "translate": ["--model", encdec, "--input", corpus],
        "ensemble-translate": ["--models", encdec, "--input", corpus],
        "sample": ["--model", lm],
        "bleu": ["--hyp", corpus, "--ref", corpus],
    }


def no_work(*args, **kwargs):
    raise AssertionError("work started before every file was opened")


@pytest.mark.parametrize("bad", ["missing directory", "directory"])
@pytest.mark.parametrize("command, flag", file_flags())
def test_a_file_that_cannot_be_opened_is_a_data_error_naming_it(
        command, flag, bad, valid_invocations, tmp_path, monkeypatch, capsys):
    for name in ("train_lm", "train_encdec", "evaluate_ll", "greedy", "beam_search",
                 "sample", "corpus_bleu"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(NGramLM, "train", no_work)
    monkeypatch.setattr(LogLinearLM, "train_sgd", no_work)
    path = str(tmp_path / "missing" / "file" if bad == "missing directory" else tmp_path)
    argv = list(valid_invocations[command])
    if flag in argv:
        argv[argv.index(flag) + 1] = path
    else:
        argv += [flag, path]
    assert main([command] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and path in err
    assert "Traceback" not in err


def test_every_command_has_file_flags_walked():
    walked = set(file_flags())
    assert {("train-ngram", "--model"), ("train-rnnlm", "--model"),
            ("train-rnnlm", "--metrics"), ("translate", "--output"),
            ("eval-ppl", "--out"), ("sample", "--output")} <= walked
    assert {command for command, _ in walked} == set(cli.COMMANDS)


# ---- file-valued flags: inputs that are not UTF-8, empty or blank ------------------

def is_output(command, flag):
    return flag in ("--metrics", "--output", "--out") or (
        flag == "--model" and command.startswith("train-"))


@pytest.mark.parametrize("content", ["invalid UTF-8", "empty", "blank"])
@pytest.mark.parametrize("command, flag", [(command, flag) for command, flag in file_flags()
                                           if not is_output(command, flag)])
def test_an_input_file_that_is_not_utf8_empty_or_blank_ends_without_traceback(
        command, flag, content, valid_invocations, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_bytes({"invalid UTF-8": b"a b\n\xff\xfe a\n", "empty": b"",
                      "blank": b"\n \t\n"}[content])
    argv = list(valid_invocations[command])
    if command in ("train-ffnnlm", "train-rnnlm", "train-encdec"):
        argv += ["--epochs", "1", "--embed", "4", "--hidden", "4"]
    if flag in argv:
        argv[argv.index(flag) + 1] = str(path)
    else:
        argv += [flag, str(path)]
    code = main([command] + argv)          # a traceback would raise here
    err = capsys.readouterr().err
    if flag == "--config" and content != "invalid UTF-8":
        assert code == 0                    # an empty config file sets nothing
    elif content == "invalid UTF-8" or (content == "empty" and flag in DEV_FLAGS):
        assert code == 2
    # every data error names the file
    assert code == 0 or (code == 2 and err.startswith("data error: ") and str(path) in err)


DEV_FLAGS = ("--dev", "--dev-src", "--dev-tgt")


@pytest.mark.parametrize("command, flags", [
    ("train-loglinear", ["--dev"]), ("train-ffnnlm", ["--dev"]), ("train-rnnlm", ["--dev"]),
    ("train-encdec", ["--dev-src"]), ("train-encdec", ["--dev-tgt"]),
    ("train-encdec", ["--dev-src", "--dev-tgt"])])
def test_an_empty_dev_file_is_a_data_error_before_training(toy_corpus, capsys,
                                                           monkeypatch, command, flags):
    tmp_path, train = toy_corpus
    empty = write(tmp_path / "empty_dev.txt", "")
    model = tmp_path / "m.bin"
    for name in ("train_lm", "train_encdec"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(LogLinearLM, "train_sgd", no_work)
    dev = {"--dev-src": train, "--dev-tgt": train} if command == "train-encdec" else {}
    dev.update((flag, empty) for flag in flags)
    argv = [*training_inputs(command, train), *(x for pair in dev.items() for x in pair)]
    assert main([command, *argv, "--model", str(model), "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and empty in err
    assert not model.exists() and not os.path.exists(f"{model}.metrics")


@pytest.mark.parametrize("command", ["train-ngram", "train-loglinear", "train-ffnnlm",
                                     "train-rnnlm", "train-encdec"])
def test_a_training_corpus_without_words_is_a_data_error_naming_it(toy_corpus, capsys,
                                                                   command):
    tmp_path, train = toy_corpus
    blank = write(tmp_path / "blank.txt", "\n \n")   # as many lines as the corpus
    model = tmp_path / "m.bin"
    # an encoder-decoder's blank source line is refused first, so blank its targets
    inputs = (["--train-src", train, "--train-tgt", blank] if command == "train-encdec"
              else ["--train", blank])
    assert main([command, *inputs, "--model", str(model)]) == 2
    assert f"data error: {blank}: empty corpus" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("command", ["train-ffnnlm", "train-rnnlm"])
def test_a_latin1_training_corpus_is_named_once(tmp_path, capsys, command):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("caf\u00e9 au lait\n".encode("latin-1"))
    model = tmp_path / "m.bin"
    assert main([command, "--train", str(latin1), "--model", str(model)]) == 2
    assert capsys.readouterr().err == f"data error: {latin1}: invalid UTF-8 on line 1\n"
    assert not model.exists()


@pytest.mark.parametrize("command", ["train-ngram", "train-loglinear", "train-ffnnlm",
                                     "train-rnnlm", "train-encdec"])
def test_each_training_file_is_read_once(toy_corpus, monkeypatch, command):
    tmp_path, train = toy_corpus
    reads = []
    read = C.read_token_lines
    monkeypatch.setattr(C, "read_token_lines",
                        lambda path: reads.append(str(path)) or read(path))
    inputs = (["--train-src", train, "--train-tgt", write(tmp_path / "tgt.txt", "b\na\n")]
              if command == "train-encdec" else ["--train", train])
    settings = {"train-ngram": [], "train-loglinear": ["--epochs", "1"]}.get(
        command, ["--epochs", "1", "--embed", "2", "--hidden", "2"])
    assert main([command, *inputs, *settings, "--model", str(tmp_path / "m.bin")]) == 0
    assert sorted(reads) == sorted(inputs[1::2])


def test_eval_ppl_of_empty_data_is_a_data_error_naming_it(toy_corpus, capsys):
    tmp_path, train = toy_corpus
    model = str(tmp_path / "lm.bin")
    empty = write(tmp_path / "empty.txt", "")
    assert main(["train-ngram", "--train", train, "--model", model]) == 0
    assert main(["eval-ppl", "--model", model, "--data", empty]) == 2
    assert f"data error: {empty}: empty evaluation data" in capsys.readouterr().err


def test_eval_ppl_source_with_a_language_model_is_usage_error(toy_corpus, capsys):
    tmp_path, train = toy_corpus
    model = str(tmp_path / "lm.bin")
    assert main(["train-ngram", "--train", train, "--model", model]) == 0
    assert main(["eval-ppl", "--model", model, "--data", train, "--source", train]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "--source" in err


@pytest.mark.parametrize("hyp_text", ["", "\n \n"])
def test_bleu_without_hypothesis_words_is_a_data_error_naming_the_files(tmp_path, capsys,
                                                                        hyp_text):
    hyp = write(tmp_path / "hyp.txt", hyp_text)
    ref = write(tmp_path / "ref.txt", "a b\nc\n" if hyp_text else "a b\nc\nd\n")
    assert main(["bleu", "--hyp", hyp, "--ref", ref]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and hyp in err
    assert hyp_text or ref in err       # a line-count mismatch names both files


# ---- output files: a failed run leaves none it created -----------------------------

def diverging_run(command, tmp_path):
    """Flags that make ``command`` diverge in its first epoch."""
    corpus = write(tmp_path / "corpus.txt", "a b\nb a c\nc\n")
    if command == "train-loglinear":
        return ["--train", corpus, "--lr", "1e308"]
    flags = ["--lr", "1e300", "--optimizer", "sgd", "--clip-norm", "1e300",
             "--embed", "4", "--hidden", "4"]
    if command == "train-encdec":
        return ["--train-src", corpus, "--train-tgt", corpus, *flags]
    return ["--train", corpus, *flags, *(["--cell", "rnn"] if command == "train-rnnlm"
                                         else [])]


@pytest.mark.parametrize("command", ["train-loglinear", "train-ffnnlm", "train-rnnlm",
                                     "train-encdec"])
def test_a_diverged_run_leaves_no_file_it_created_and_keeps_an_earlier_model(
        tmp_path, capsys, command):
    model, metrics = tmp_path / "m.bin", tmp_path / "m.bin.metrics"
    argv = [command, *diverging_run(command, tmp_path), "--model", str(model)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("training diverged: ") and err.count("\n") == 1
    assert not model.exists() and not metrics.exists()
    model.write_bytes(b"an earlier model")
    assert main(argv) == 3
    assert model.read_bytes() == b"an earlier model"
    assert not metrics.exists()


def outputs_in(tmp_path, command, valid_invocations):
    """``command``'s valid flags with every output file of it in ``tmp_path``,
    and those output paths by flag."""
    argv = list(valid_invocations[command])
    if command in ("train-loglinear", "train-ffnnlm", "train-rnnlm", "train-encdec"):
        argv += ["--epochs", "1"]
        if command != "train-loglinear":
            argv += ["--embed", "4", "--hidden", "4"]
    outputs = {flag: tmp_path / f"out{flag}" for name, flag in file_flags()
               if name == command and is_output(name, flag)}
    for flag, path in outputs.items():
        if flag in argv:
            argv[argv.index(flag) + 1] = str(path)
        else:
            argv += [flag, str(path)]
    return argv, outputs


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command, flag", [(command, flag) for command, flag in file_flags()
                                           if is_output(command, flag)])
def test_an_output_that_cannot_be_written_is_a_data_error_naming_it(
        command, flag, valid_invocations, tmp_path, capsys):
    # /dev/full opens, and every write to it fails
    argv, outputs = outputs_in(tmp_path, command, valid_invocations)
    argv[argv.index(flag) + 1] = "/dev/full"
    assert main([command] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: /dev/full: cannot write: ")
    assert "Traceback" not in err
    assert not [path for path in outputs.values() if path.exists()]


@pytest.mark.parametrize("command", sorted({command for command, flag in file_flags()
                                            if is_output(command, flag)}))
def test_an_interrupted_run_leaves_no_file_it_created(
        command, valid_invocations, tmp_path, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    for name in ("train_lm", "train_encdec", "evaluate_ll", "greedy", "sample"):
        monkeypatch.setattr(cli, name, interrupt)
    monkeypatch.setattr(NGramLM, "train", interrupt)
    monkeypatch.setattr(LogLinearLM, "train_sgd", interrupt)
    argv, outputs = outputs_in(tmp_path, command, valid_invocations)
    with pytest.raises(KeyboardInterrupt):
        main([command] + argv)
    assert not [path for path in outputs.values() if path.exists()]


# commands that write their lines to stdout when given no output file
STDOUT_COMMANDS = ["bleu", "eval-ppl", "translate", "ensemble-translate", "sample"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", STDOUT_COMMANDS)
def test_a_stdout_that_cannot_be_written_is_a_data_error(command, buffered,
                                                         valid_invocations, tmp_path):
    # nothing else reaches stderr: not a traceback, nor, with a buffered
    # stdout, the interpreter's report of a last flush that failed again
    env = dict(os.environ)
    src = str(Path(seqbench.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "seqbench.cli", command,
                               *valid_invocations[command]], stdout=full,
                              stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=env,
                              timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("data error: stdout: cannot write: ")
    assert done.stderr.count("\n") == 1


class FailingStdout(io.StringIO):
    """A stdout whose ``write`` or ``flush`` runs out of space."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("command", STDOUT_COMMANDS)
def test_a_failed_write_to_stdout_is_a_data_error(command, failing, valid_invocations,
                                                  monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FailingStdout(failing))
    assert main([command, *valid_invocations[command]]) == 2
    assert capsys.readouterr().err == ("data error: stdout: cannot write: "
                                       "No space left on device\n")
