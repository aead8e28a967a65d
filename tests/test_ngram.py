import math

import numpy as np
import pytest

from seqbench import corpus as C
from seqbench.evaluate import evaluate_ll
from seqbench.ngram import (InterpolationWeights, NGramLM, in_vocab_mass,
                            interp_prob, mle_prob, train_counts)

V_ALL = 10_000_000


def two_sentence_setup(n=2, alpha=0.5):
    lines = ["a b", "a a"]
    vocab = C.build_vocab(lines, policy="keep_all")
    sents = [C.encode(vocab, line, append_eos=True) for line in lines]
    table = train_counts(sents, n)
    weights = InterpolationWeights([alpha] * n)
    return vocab, sents, table, weights


def oracle_interp(table, alphas, v_all, context, token):
    """Literal recursion, written independently of the library implementation:
    walk orders from the unigram upward, mixing MLE ratios with the running
    estimate, skipping orders whose context never occurred."""
    prob = 1.0 / v_all
    if table.context_count(()) > 0:
        p1 = table.count((token,)) / table.context_count(())
        prob = (1 - alphas[0]) * p1 + alphas[0] * prob
    for m in range(2, table.n + 1):
        ctx = tuple(context)[-(m - 1):]
        if len(ctx) < m - 1:
            ctx = (C.BOS_ID,) * (m - 1 - len(ctx)) + ctx
        denom = table.context_count(ctx)
        if denom == 0:
            continue
        p_ml = table.count(ctx + (token,)) / denom
        prob = (1 - alphas[m - 1]) * p_ml + alphas[m - 1] * prob
    return prob


def oracle_sentence_log_prob(table, alphas, v_all, ids):
    total = 0.0
    for t, tok in enumerate(ids):
        total += math.log(oracle_interp(table, alphas, v_all, tuple(ids[:t]), tok))
    return total


def test_train_counts_hand_counts():
    vocab, sents, table, _ = two_sentence_setup()
    a, b = vocab.id_of("a"), vocab.id_of("b")
    assert table.count((a,)) == 3
    assert table.count((b,)) == 1
    assert table.count((C.EOS_ID,)) == 2
    assert table.count((C.BOS_ID, a)) == 2
    assert table.count((a, b)) == 1
    assert table.count((a, a)) == 1
    assert table.count((b, C.EOS_ID)) == 1
    assert table.count((a, C.EOS_ID)) == 1


def test_train_counts_empty_and_unigram():
    assert train_counts([], 2).counts == {}
    table = train_counts([[3, C.EOS_ID]], 1)
    assert table.count((3,)) == 1 and table.count((C.EOS_ID,)) == 1


def test_train_counts_rejects_order_zero():
    with pytest.raises(ValueError):
        train_counts([[C.EOS_ID]], 0)


def test_mle_prob_hand_values():
    vocab, _, table, _ = two_sentence_setup()
    a, b = vocab.id_of("a"), vocab.id_of("b")
    p, seen = mle_prob(table, (a,), b)
    assert seen and p == pytest.approx(1 / 3, abs=0)
    p, seen = mle_prob(table, (C.BOS_ID,), a)
    assert seen and p == 1.0
    p, seen = mle_prob(table, (b, ), b)   # b never precedes b
    assert seen and p == 0.0
    p, seen = mle_prob(table, (C.UNK_ID,), a)   # unseen context
    assert not seen and p == 0.0


def test_count_monotone_vs_context():
    rng = np.random.default_rng(3)
    sents = [[int(x) for x in rng.integers(3, 8, rng.integers(1, 9))] + [C.EOS_ID]
             for _ in range(25)]
    table = train_counts(sents, 3)
    for gram, cnt in table.counts.items():
        if len(gram) >= 2:
            assert cnt <= table.context_count(gram[:-1])


def test_interp_full_holdout_collapses_to_uniform_unknown():
    vocab, _, table, _ = two_sentence_setup()
    weights = InterpolationWeights([1.0] * 2)
    for tok in range(len(vocab)):
        assert interp_prob(table, weights, vocab, (vocab.id_of("a"),), tok) == \
            pytest.approx(1.0 / V_ALL, rel=1e-15)


def test_interp_hand_value_p_b_given_a():
    # Hand recursion: P_ML(b|a) = 1/3; unigram P_ML(b) = 1/6 over the six
    # counted tokens (a,b,</s>,a,a,</s>); base mixes with 1e-7 uniform mass.
    # 0.5*(1/3) + 0.5*(0.5*(1/6) + 0.5*1e-7) = 5/24 + 2.5e-8
    vocab, _, table, weights = two_sentence_setup(alpha=0.5)
    a, b = vocab.id_of("a"), vocab.id_of("b")
    got = interp_prob(table, weights, vocab, (a,), b)
    assert got == pytest.approx(5 / 24 + 2.5e-8, abs=1e-15)


def test_interp_unk_positive():
    vocab, _, table, weights = two_sentence_setup(alpha=0.25)
    p = interp_prob(table, weights, vocab, (vocab.id_of("a"),), C.UNK_ID)
    assert p >= 0.25 * 0.25 / V_ALL
    assert p > 0.0


def test_unseen_context_falls_back_to_lower_order():
    vocab, _, table, weights = two_sentence_setup(n=2, alpha=0.3)
    b = vocab.id_of("b")
    # (unk,) never occurs as a context, so only the unigram level contributes
    p_unseen = interp_prob(table, weights, vocab, (C.UNK_ID,), b)
    p_unigram = (1 - 0.3) * (1 / 6) + 0.3 * (1 / V_ALL)
    assert p_unseen == pytest.approx(p_unigram, rel=1e-15)


def test_normalization_with_unknown_mass():
    rng = np.random.default_rng(11)
    lines = [" ".join(rng.choice(list("defgh"), size=rng.integers(1, 7)))
             for _ in range(20)]
    vocab = C.build_vocab(lines)
    sents = [C.encode(vocab, line, append_eos=True) for line in lines]
    for n in (1, 2, 3):
        table = train_counts(sents, n)
        weights = InterpolationWeights([float(a) for a in rng.uniform(0.05, 0.95, n)])
        for _ in range(20):
            ctx = tuple(int(x) for x in rng.integers(0, len(vocab), max(n - 1, 0)))
            in_vocab = sum(interp_prob(table, weights, vocab, ctx, e)
                           for e in range(len(vocab)) if e != C.UNK_ID)
            unk_share = interp_prob(table, weights, vocab, ctx, C.UNK_ID)
            reserved = unk_share * (V_ALL - (len(vocab) - 1))
            assert in_vocab + reserved == pytest.approx(1.0, abs=1e-9)


def test_score_sentence_matches_oracle():
    lines = ["a b", "a a", "b a b", "a", "", "b b", "a b a a", "b", "a a a", "b a"]
    vocab = C.build_vocab(["a b", "a a"], policy="keep_all")
    model = NGramLM.train(["a b", "a a"], n=2, alphas=0.5, vocab=vocab)
    for line in lines:
        ids = C.encode(vocab, line, append_eos=True)
        got = model.score_sentence(ids)
        want = oracle_sentence_log_prob(model.table, model.weights.alphas, V_ALL, ids)
        assert got == pytest.approx(want, abs=1e-12)


def test_oracle_equivalence_random_corpus():
    rng = np.random.default_rng(5)
    lines = [" ".join(rng.choice(list("pqrst"), size=rng.integers(1, 8)))
             for _ in range(10)]
    model = NGramLM.train(lines, n=3, alphas=[0.2, 0.4, 0.15])
    for line in lines:
        ids = C.encode(model.vocab, line, append_eos=True)
        got = model.score_sentence(ids)
        want = oracle_sentence_log_prob(model.table, model.weights.alphas, V_ALL, ids)
        assert got == pytest.approx(want, abs=1e-12)


def test_unknown_partition_consistency():
    # total log-likelihood minus the unknown portion must equal the score
    # under the decoding distribution, recomputed by the independent
    # recursion: the unknown symbol there takes its own interpolated
    # probability, the start symbol's and the mass of every word outside
    # the vocabulary, found as one minus a sum over the vocabulary
    train = ["a b", "a a", "b b a"]
    model = NGramLM.train(train, n=2, alphas=[0.3, 0.6])
    test_lines = ["a zzz b", "qq", "a b"]

    def oracle_without_unk_factor(ids):
        total = 0.0
        for t, tok in enumerate(ids):
            prob = oracle_interp(model.table, model.weights.alphas, V_ALL, ids[:t], tok)
            if tok == C.UNK_ID:
                in_vocab = sum(oracle_interp(model.table, model.weights.alphas, V_ALL,
                                             ids[:t], e) for e in range(len(model.vocab)))
                prob += 1.0 - in_vocab + oracle_interp(
                    model.table, model.weights.alphas, V_ALL, ids[:t], C.BOS_ID)
            total += math.log(prob)
        return total

    report = evaluate_ll(model, [line.split() for line in test_lines])
    want = sum(oracle_without_unk_factor(C.encode(model.vocab, line, append_eos=True))
               for line in test_lines)
    assert report.unk_log_portion < 0
    assert report.total_log_likelihood - report.unk_log_portion == pytest.approx(
        want, abs=1e-10)


def test_generation_distribution_sums_to_one():
    model = NGramLM.train(["a b", "a a"], n=2, alphas=0.5)
    state = model.start()
    P, state, _ = model.step(state, [0], [C.BOS_ID])
    p = P[:, 0]
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p[C.BOS_ID] == 0.0
    P2, _, _ = model.step(state, [0], [model.vocab.id_of("a")])
    p2 = P2[:, 0]
    assert p2.sum() == pytest.approx(1.0, abs=1e-12)


def test_in_vocab_mass_equals_the_sum_over_the_vocabulary():
    # the O(n) recursion against a |V|-term sum of interpolated probabilities,
    # over every order, seen and unseen contexts, an unknown symbol with and
    # without counts, and an empty table
    rng = np.random.default_rng(17)
    lines = [" ".join(rng.choice(list("defghij"), size=rng.integers(1, 7)))
             for _ in range(15)]
    for policy in ("keep_all", "replace_singletons"):
        vocab = C.build_vocab(lines, policy=policy, v_all=1000)
        for n in (1, 2, 3):
            model = NGramLM.train(lines, n=n, alphas=list(rng.uniform(0.05, 0.95, n)),
                                  vocab=vocab)
            for _ in range(10):
                ctx = [int(x) for x in rng.integers(0, len(vocab), rng.integers(0, 4))]
                want = sum(interp_prob(model.table, model.weights, vocab, ctx, e)
                           for e in range(len(vocab)))
                assert in_vocab_mass(model.table, model.weights, vocab, ctx) == \
                    pytest.approx(want, rel=1e-12)
                p = model.next_distribution(ctx)
                assert p[C.BOS_ID] == 0.0 and p.sum() == pytest.approx(1.0, abs=1e-12)
    empty = NGramLM(C.build_vocab(["a b"], v_all=50), n=2)
    assert in_vocab_mass(empty.table, empty.weights, empty.vocab, []) == 5 / 50
    assert empty.next_distribution([]).sum() == pytest.approx(1.0, abs=1e-15)


def test_unknown_word_scores_below_zero_with_unknown_counts():
    # "c" and "d" occur once, so the training counts hold the unknown symbol;
    # "a zz" scored +14.82 when the unknown symbol was charged its
    # interpolated probability times v_all
    lines = ["a b c", "a d", "a b"]
    model = NGramLM.train(lines, n=2, alphas=0.1,
                          vocab=C.build_vocab(lines, policy="replace_singletons"))
    assert model.table.count((C.UNK_ID,)) == 2
    ids = C.encode(model.vocab, "a zz", append_eos=True)
    assert ids == [model.vocab.id_of("a"), C.UNK_ID, C.EOS_ID]
    state, prev, decoded = model.start(), C.BOS_ID, 0.0
    for tok in ids:
        P, state, _ = model.step(state, [0], [prev])
        decoded += math.log(P[tok, 0])
        prev = tok
    score = model.score_sentence(ids)
    assert score < 0
    assert score == decoded
