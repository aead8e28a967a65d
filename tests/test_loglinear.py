import math

import numpy as np
import pytest

from helpers import rel_error
from seqbench import corpus as C
from seqbench.autograd import NonFiniteError, softmax
from seqbench.evaluate import evaluate_ll
from seqbench.loglinear import (FeatureTemplate, FeatureVector, LogLinearLM,
                                loss_and_grad, score)
from seqbench.optim import TrainingDivergence


def vocab_of_size(n_real):
    tokens = [f"w{i}" for i in range(n_real)]
    return C.build_vocab([" ".join(tokens)])


def test_prev_word_onehot():
    vocab = vocab_of_size(7)          # |V| = 10
    fv = FeatureTemplate("prev_word", vocab).featurize([3, 7])
    assert fv.active == [(7, 1.0)]
    assert fv.dim == 10


def test_prev2_words_concatenated_blocks():
    vocab = vocab_of_size(7)
    fv = FeatureTemplate("prev2_words", vocab).featurize([5, 3, 7])
    assert fv.active == [(7, 1.0), (13, 1.0)]
    assert fv.dim == 20


def test_prev2_words_bos_padding():
    vocab = vocab_of_size(7)
    fv = FeatureTemplate("prev2_words", vocab).featurize([])
    assert fv.active == [(C.BOS_ID, 1.0), (10 + C.BOS_ID, 1.0)]


def test_bag_of_words_sums_onehots():
    vocab = vocab_of_size(7)
    fv = FeatureTemplate("bag_of_words", vocab).featurize([3, 3, 4])
    assert fv.active == [(3, 2.0), (4, 1.0)]


def test_suffix_template_fires_on_shared_suffix():
    vocab = C.build_vocab(["walking talking jump"])
    tpl = FeatureTemplate("suffix_k", vocab, suffix_len=3)
    walking = tpl.featurize([vocab.id_of("walking")])
    talking = tpl.featurize([vocab.id_of("talking")])
    jump = tpl.featurize([vocab.id_of("jump")])
    assert walking.active == talking.active
    assert walking.active != jump.active


def test_unknown_template_rejected():
    with pytest.raises(ValueError):
        FeatureTemplate("prev3_words", vocab_of_size(2)).featurize([0])


def test_score_empty_feature_vector_is_bias():
    rng = np.random.default_rng(0)
    W, b = rng.normal(size=(4, 6)), rng.normal(size=(4, 1))
    s = score(W, b, FeatureVector([], 6))
    assert np.array_equal(s, b[:, 0])


def test_score_single_feature_is_column_plus_bias():
    rng = np.random.default_rng(1)
    W, b = rng.normal(size=(4, 6)), rng.normal(size=(4, 1))
    s = score(W, b, FeatureVector([(2, 1.0)], 6))
    assert np.allclose(s, W[:, 2] + b[:, 0], atol=0)


def test_sparse_dense_equivalence():
    rng = np.random.default_rng(2)
    for _ in range(25):
        v, n = rng.integers(2, 9), rng.integers(2, 13)
        W, b = rng.normal(size=(v, n)), rng.normal(size=(v, 1))
        x_dense = np.zeros(n)
        active = []
        for j in rng.choice(n, size=rng.integers(0, n), replace=False):
            val = float(rng.normal())
            x_dense[j] = val
            active.append((int(j), val))
        sparse = score(W, b, FeatureVector(sorted(active), int(n)))
        dense = W @ x_dense + b[:, 0]
        assert np.abs(sparse - dense).max() < 1e-12


def test_score_dimension_mismatch():
    with pytest.raises(ValueError):
        score(np.zeros((3, 4)), np.zeros((3, 1)), FeatureVector([], 5))


def test_overflowing_score_raises():
    x = FeatureVector([(0, 1.0), (1, 1.0)], 4)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        score(np.full((3, 4), 1e308), np.zeros((3, 1)), x)


def test_training_into_an_overflowing_score_diverges():
    model = LogLinearLM(C.build_vocab(TINY_CORPUS), "bag_of_words")
    model.W[...] = 1e308        # a two-word history scores Inf
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergence,
                                                   match="non-finite"):
        model.train_sgd(TINY_CORPUS, lr=0.0, epochs=1)


def test_softmax_closed_forms():
    assert np.allclose(softmax([0.0, 0.0])[:, 0], [0.5, 0.5], atol=1e-15)
    assert np.allclose(softmax([math.log(2), 0.0])[:, 0], [2 / 3, 1 / 3], atol=1e-12)


def test_loss_and_grad_uniform_case():
    W, b = np.zeros((2, 3)), np.zeros((2, 1))
    loss, grad_b, grad_cols = loss_and_grad(W, b, FeatureVector([], 3), 0)
    assert loss == pytest.approx(math.log(2), abs=1e-15)
    assert np.allclose(grad_b, [-0.5, 0.5])
    assert grad_cols == []


def test_loss_vanishes_at_perfect_prediction():
    W = np.zeros((3, 2))
    b = np.array([[50.0], [0.0], [0.0]])
    loss, grad_b, _ = loss_and_grad(W, b, FeatureVector([(0, 1.0)], 2), 0)
    assert loss < 1e-12
    assert np.abs(grad_b).max() < 1e-12


def test_loss_positive():
    rng = np.random.default_rng(3)
    for _ in range(20):
        W, b = rng.normal(size=(5, 4)), rng.normal(size=(5, 1))
        x = FeatureVector([(1, float(rng.normal()))], 4)
        loss, _, _ = loss_and_grad(W, b, x, int(rng.integers(0, 5)))
        assert loss >= 0.0


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        v = int(rng.integers(2, 9))
        n = int(rng.integers(2, 13))
        W, b = rng.normal(size=(v, n)), rng.normal(size=(v, 1))
        n_active = int(rng.integers(0, min(n, 4) + 1))
        cols = rng.choice(n, size=n_active, replace=False)
        x = FeatureVector(sorted((int(j), float(rng.normal())) for j in cols), n)
        target = int(rng.integers(0, v))
        _, grad_b, grad_cols = loss_and_grad(W, b, x, target)

        def nll(Wm, bm):
            p = softmax(score(Wm, bm, x))[:, 0]
            return -math.log(p[target])

        for i in range(v):
            b_hi, b_lo = b.copy(), b.copy()
            b_hi[i, 0] += h
            b_lo[i, 0] -= h
            fd = (nll(W, b_hi) - nll(W, b_lo)) / (2 * h)
            worst = max(worst, rel_error(grad_b[i], fd))
        for j, col in grad_cols:
            for i in range(v):
                W_hi, W_lo = W.copy(), W.copy()
                W_hi[i, j] += h
                W_lo[i, j] -= h
                fd = (nll(W_hi, b) - nll(W_lo, b)) / (2 * h)
                worst = max(worst, rel_error(col[i], fd))
    assert worst < 1e-6


TINY_CORPUS = [
    "the cat sat", "the dog sat", "a cat ran", "the dog ran",
    "a dog sat", "the cat ran", "the bird sang", "a bird flew",
    "the cat slept", "a dog slept", "the bird flew", "a cat sat",
    "the dog slept", "a bird sang", "the cat flew", "a dog ran",
    "the bird slept", "a cat slept", "the dog sang", "a bird ran",
]


def test_sgd_zero_learning_rate_is_identity():
    vocab = C.build_vocab(TINY_CORPUS)
    model = LogLinearLM(vocab, "prev2_words")
    model.W[...] = 0.25
    before_W, before_b = model.W.copy(), model.b.copy()
    model.train_sgd(TINY_CORPUS, lr=0.0, epochs=1)
    assert np.array_equal(model.W, before_W)
    assert np.array_equal(model.b, before_b)


def test_sgd_reduces_training_loss():
    vocab = C.build_vocab(TINY_CORPUS)
    model = LogLinearLM(vocab, "prev2_words")
    sentences = [C.encode(vocab, line, append_eos=True) for line in TINY_CORPUS]
    initial = model.corpus_nll(sentences)
    model.train_sgd(TINY_CORPUS, lr=0.1, epochs=10, rng=np.random.default_rng(42))
    trained = model.corpus_nll(sentences)
    assert trained < initial


def test_sgd_deterministic_without_shuffle():
    vocab = C.build_vocab(TINY_CORPUS)
    runs = []
    for _ in range(2):
        model = LogLinearLM(vocab, "prev_word")
        model.train_sgd(TINY_CORPUS, lr=0.05, epochs=3, shuffle=False)
        runs.append((model.W.copy(), model.b.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_evaluation_counts_unknowns():
    vocab = C.build_vocab(TINY_CORPUS)
    model = LogLinearLM(vocab, "prev_word")
    report = evaluate_ll(model, ["the zzz sat".split()])
    assert report.word_count == 4      # three words + EOS
    assert report.unk_count == 1
    assert report.unk_log_portion == pytest.approx(-math.log(vocab.v_all))
    report2 = evaluate_ll(model, ["the cat sat".split()])
    assert report2.unk_count == 0 and report2.unk_log_portion == 0.0
