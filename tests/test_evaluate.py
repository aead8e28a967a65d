import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbench.corpus import DataError
from seqbench.evaluate import EvalReport, bleu, evaluate_ll


class UniformModel:
    """Assigns 1/size to every token of every sentence (EOS included)."""

    def __init__(self, size):
        self.size = size

    def score_sentence(self, tokens):
        n = len(tokens) + 1
        return -n * math.log(self.size), n, 0, 0.0


class CannedModel:
    def __init__(self, scores):
        self.scores = dict(scores)

    def score_sentence(self, tokens):
        return self.scores[tuple(tokens)]


def test_uniform_model_perplexity_is_vocab_size():
    report = evaluate_ll(UniformModel(10), [["a", "b", "c"], ["d", "e"]])
    assert report.word_count == 7
    assert report.per_word_ll == pytest.approx(-math.log(10), abs=1e-12)
    assert report.perplexity == pytest.approx(10.0, abs=1e-9)
    assert report.unk_count == 0 and report.unk_log_portion == 0.0


def test_additivity_over_sentences():
    scores = {("a",): (-1.25, 2, 0, 0.0), ("b", "c"): (-2.5, 3, 1, -16.1)}
    model = CannedModel(scores)
    joint = evaluate_ll(model, [["a"], ["b", "c"]])
    single = [evaluate_ll(model, [["a"]]), evaluate_ll(model, [["b", "c"]])]
    assert joint.total_log_likelihood == pytest.approx(
        sum(r.total_log_likelihood for r in single), abs=1e-12)
    assert joint.unk_count == 1
    assert joint.unk_log_portion == pytest.approx(-16.1)


def test_order_invariance():
    scores = {("a",): (-1.0, 2, 0, 0.0), ("b",): (-2.0, 2, 0, 0.0),
              ("c",): (-4.0, 2, 1, -3.0)}
    model = CannedModel(scores)
    fwd = evaluate_ll(model, [["a"], ["b"], ["c"]])
    rev = evaluate_ll(model, [["c"], ["b"], ["a"]])
    assert fwd == rev


def test_perplexity_consistency():
    report = evaluate_ll(UniformModel(7), [["x", "y"]])
    assert report.perplexity == pytest.approx(math.exp(-report.per_word_ll), rel=1e-12)
    assert report.per_word_ll == pytest.approx(
        report.total_log_likelihood / report.word_count, rel=1e-12)


def test_empty_data_rejected():
    with pytest.raises(DataError):
        evaluate_ll(UniformModel(4), [])


def test_report_lines_format():
    report = evaluate_ll(UniformModel(10), [["a"]])
    lines = report.lines()
    assert lines[0].startswith("#")
    keys = [line.split("\t")[0] for line in lines[1:]]
    assert keys == list(EvalReport.FIELDS)
    ppl = dict(line.split("\t") for line in lines[1:])["perplexity"]
    assert float(ppl) == pytest.approx(10.0, abs=1e-9)


def test_bleu_identity():
    report = bleu(["the cat sat"], ["the cat sat"])
    assert report.bleu == 1.0
    assert report.brevity_penalty == 1.0


def test_bleu_hand_counts_with_zero_fourgram():
    report = bleu(["the cat sat on the mat"], ["the cat is on the mat"])
    assert report.precisions == pytest.approx([5 / 6, 3 / 5, 1 / 4, 0.0])
    assert report.bleu == 0.0


def test_bleu_brevity_penalty():
    report = bleu(["the cat is on"], ["the cat is on the mat"])
    assert report.precisions == pytest.approx([1.0, 1.0, 1.0, 1.0])
    assert report.brevity_penalty == pytest.approx(math.exp(1 - 6 / 4), abs=1e-12)
    assert report.bleu == pytest.approx(0.6065, abs=1e-4)


def test_bleu_pools_counts_across_corpus():
    hyps = ["a b", "c d"]
    refs = ["a b", "c x"]
    report = bleu(hyps, refs, max_n=2)
    assert report.precisions[0] == pytest.approx(3 / 4)
    assert report.precisions[1] == pytest.approx(1 / 2)


def test_bleu_bounds_random_pairs():
    rng = np.random.default_rng(31)
    words = list("abcdefg")
    for _ in range(20):
        hyp = [" ".join(rng.choice(words, size=rng.integers(1, 10)))
               for _ in range(3)]
        ref = [" ".join(rng.choice(words, size=rng.integers(1, 10)))
               for _ in range(3)]
        report = bleu(hyp, ref)
        assert 0.0 <= report.bleu <= 1.0
        assert bleu(hyp, hyp).bleu == 1.0


_LINE = st.lists(st.sampled_from("abcde"), max_size=8).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_bleu_lies_in_unit_interval_and_is_one_on_identical_corpora(data, max_n):
    hyps = data.draw(st.lists(_LINE, min_size=1, max_size=6)
                     .filter(lambda lines: any(l.split() for l in lines)))
    refs = data.draw(st.lists(_LINE, min_size=len(hyps), max_size=len(hyps)))
    assert 0.0 <= bleu(hyps, refs, max_n=max_n).bleu <= 1.0
    assert bleu(hyps, hyps, max_n=max_n).bleu == 1.0


def test_bleu_errors():
    with pytest.raises(DataError, match="differ"):
        bleu(["a"], ["a", "b"])
    with pytest.raises(DataError, match="empty"):
        bleu([], [])
