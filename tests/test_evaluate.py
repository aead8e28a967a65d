import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbench import corpus as C
from seqbench.corpus import DataError, Vocabulary
from seqbench.evaluate import EvalReport, bleu, evaluate_ll
from seqbench.nnet import RNNLM
from seqbench.seq2seq import EncDecModel, Ensemble


V_ALL = 1000
VOCAB = Vocabulary(tokens=[C.BOS, C.EOS, C.UNK, *"abcdexy"], v_all=V_ALL)


class UniformModel:
    """Assigns 1/size to every token of every sentence (EOS included)."""

    vocab = VOCAB
    src_vocab = None

    def __init__(self, size):
        self.size = size

    def corpus_nll(self, sentences):
        return sum(len(ids) * math.log(self.size) for ids in sentences)


class CannedModel:
    """A fixed NLL per surface sentence, looked up by its encoded ids."""

    vocab = VOCAB
    src_vocab = None

    def __init__(self, scores):
        self.scores = {tuple(C.encode(VOCAB, tokens, append_eos=True)): nll
                       for tokens, nll in scores.items()}

    def corpus_nll(self, sentences):
        return sum(self.scores[tuple(ids)] for ids in sentences)


def test_uniform_model_perplexity_is_vocab_size():
    report = evaluate_ll(UniformModel(10), [["a", "b", "c"], ["d", "e"]])
    assert report.word_count == 7
    assert report.per_word_ll == pytest.approx(-math.log(10), abs=1e-12)
    assert report.perplexity == pytest.approx(10.0, abs=1e-9)
    assert report.unk_count == 0 and report.unk_log_portion == 0.0


def test_additivity_over_sentences():
    model = CannedModel({("a",): 1.25, ("b", "zzz"): 2.5})
    joint = evaluate_ll(model, [["a"], ["b", "zzz"]])
    single = [evaluate_ll(model, [["a"]]), evaluate_ll(model, [["b", "zzz"]])]
    assert joint.total_log_likelihood == pytest.approx(
        sum(r.total_log_likelihood for r in single), abs=1e-12)
    assert joint.unk_count == 1
    assert joint.unk_log_portion == pytest.approx(-math.log(V_ALL))


def test_order_invariance():
    model = CannedModel({("a",): 1.0, ("b",): 2.0, ("zzz",): 4.0})
    fwd = evaluate_ll(model, [["a"], ["b"], ["zzz"]])
    rev = evaluate_ll(model, [["zzz"], ["b"], ["a"]])
    assert fwd == rev


class PairModel:
    """A conditional stub that records the items it is asked to score."""

    vocab = VOCAB
    src_vocab = Vocabulary(tokens=[C.BOS, C.EOS, C.UNK, "s"], v_all=V_ALL)

    def __init__(self):
        self.calls = []

    def corpus_nll(self, pairs):
        self.calls.append(pairs)
        return 3.0 * len(pairs)


def test_pairs_are_encoded_with_both_vocabularies_and_scored_in_one_call():
    model = PairModel()
    report = evaluate_ll(model, [(["s", "q"], ["a", "zzz"]), (["q"], [])])
    assert model.calls == [[([3, C.UNK_ID], [VOCAB.id_of("a"), C.UNK_ID, C.EOS_ID]),
                            ([C.UNK_ID], [C.EOS_ID])]]
    # only target words are counted and charged the unknown-word factor
    assert report.word_count == 4 and report.unk_count == 1
    assert report.unk_log_portion == -math.log(V_ALL)
    assert report.total_log_likelihood == -6.0 - math.log(V_ALL)


def test_perplexity_consistency():
    report = evaluate_ll(UniformModel(7), [["x", "y"]])
    assert report.perplexity == pytest.approx(math.exp(-report.per_word_ll), rel=1e-12)
    assert report.per_word_ll == pytest.approx(
        report.total_log_likelihood / report.word_count, rel=1e-12)


def test_perplexity_beyond_float_range_is_infinite():
    # a per-word log-likelihood below about -709.78 overflows exp
    for nll in (2000.0, math.inf):
        report = evaluate_ll(CannedModel({("a",): nll}), [["a"]])
        assert report.perplexity == math.inf


def test_empty_data_rejected():
    with pytest.raises(DataError):
        evaluate_ll(UniformModel(4), [])


def rnnlm(seed):
    return RNNLM(VOCAB, embed_size=3, hidden_size=4, rng=np.random.default_rng(seed))


def encdec(seed):
    return EncDecModel(VOCAB, VOCAB, embed_size=3, hidden_size=4, attention="mlp",
                       rng=np.random.default_rng(seed))


RESERVED_EOS_MODELS = {
    "rnnlm": lambda: rnnlm(1),
    "encdec": lambda: encdec(2),
    "lm-ensemble": lambda: Ensemble([rnnlm(3), rnnlm(4)]),
    "encdec-ensemble": lambda: Ensemble([encdec(5), encdec(6)]),
}


@pytest.mark.parametrize("name", RESERVED_EOS_MODELS)
def test_a_target_holding_the_reserved_eos_is_refused_naming_its_line(name):
    # a model reads nothing past an end of sentence, so no model scores one
    # inside a target; the refusal is the same for every model
    model = RESERVED_EOS_MODELS[name]()
    pair = (lambda e: e) if model.src_vocab is None else (lambda e: (["x", "y"], e))
    for inner in (["a", C.EOS, "b"], ["a", "b", C.EOS], [C.EOS]):
        with pytest.raises(DataError, match=f"^line 2 holds the reserved end-of-sentence "
                                            f"token {C.EOS}$"):
            evaluate_ll(model, [pair(["a", "b"]), pair(inner), pair(["c"])])
    assert math.isfinite(evaluate_ll(model, [pair(["a", "b"])]).total_log_likelihood)


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
