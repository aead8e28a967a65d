"""Count-based n-gram language model with recursive linear interpolation.

Probabilities are maximum-likelihood count ratios, mixed across orders:

    P_m(e | ctx) = (1 - alpha_m) * P_ML(e | ctx) + alpha_m * P_{m-1}(e | shorter ctx)

down to the unigram level, which mixes with a uniform distribution over an
assumed full language vocabulary of v_all words, so every token of every
sentence receives strictly positive probability. When a context was never
observed, the model falls back to the next-lower order outright (the MLE term
is identically zero for every token there, and renormalizing onto the lower
order keeps the distribution summing to one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import BOS_ID, UNK_ID, Vocabulary


@dataclass
class NGramCountTable:
    """Counts of id strings for orders 1..n, plus context-occurrence counts.

    ``counts`` maps m-grams (m = 1..n) ending at a predicted position to how
    often they occur; contexts shorter than the order are padded on the left
    with the sentence-start id. ``context_counts`` maps the (m-1)-token
    context preceding a predicted position to the number of prediction events
    it participated in; this is the MLE denominator, and by construction the
    numerators for a seen context sum exactly to it.
    """

    n: int
    counts: dict = field(default_factory=dict)
    context_counts: dict = field(default_factory=dict)

    def count(self, ids: tuple) -> int:
        return self.counts.get(tuple(ids), 0)

    def context_count(self, ids: tuple) -> int:
        return self.context_counts.get(tuple(ids), 0)


def train_counts(corpus, n: int) -> NGramCountTable:
    """Accumulate counts for all orders 1..n over EOS-terminated id sentences."""
    if n < 1:
        raise ValueError("n-gram order must be >= 1")
    table = NGramCountTable(n=n)
    counts, ctx_counts = table.counts, table.context_counts
    for sent in corpus:
        padded = (BOS_ID,) * (n - 1) + tuple(sent)
        for t in range(n - 1, len(padded)):
            for m in range(1, n + 1):
                gram = padded[t - m + 1:t + 1]
                counts[gram] = counts.get(gram, 0) + 1
                ctx = gram[:-1]
                ctx_counts[ctx] = ctx_counts.get(ctx, 0) + 1
    return table


def mle_prob(table: NGramCountTable, context, token: int) -> tuple[float, bool]:
    """Maximum-likelihood P(token | context).

    Returns (probability, context_seen). An unseen context yields (0.0, False)
    so interpolation can fall back to the shorter context cleanly.
    """
    context = tuple(context)
    if len(context) + 1 > table.n:
        raise ValueError(f"order {len(context) + 1} exceeds model order {table.n}")
    denom = table.context_count(context)
    if denom == 0:
        return 0.0, False
    return table.count(context + (token,)) / denom, True


@dataclass
class InterpolationWeights:
    """Held-out mass alpha_m per order, alphas[0] applying at the unigram."""

    alphas: list[float]

    def __post_init__(self):
        for a in self.alphas:
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"interpolation weight {a} outside [0, 1]")

    @classmethod
    def uniform(cls, n: int, alpha: float = 0.1) -> "InterpolationWeights":
        return cls([alpha] * n)


def interp_prob(table: NGramCountTable, weights: InterpolationWeights,
                vocab: Vocabulary, context, token: int) -> float:
    """Interpolated P(token | context), strictly positive whenever alphas are.

    The context is trimmed/left-padded with the start symbol to length n-1.
    """
    n = table.n
    context = tuple(context)[-(n - 1):] if n > 1 else ()
    if len(context) < n - 1:
        context = (BOS_ID,) * (n - 1 - len(context)) + context

    p_unk = 1.0 / vocab.v_all
    # Unigram base: mix the MLE unigram with the uniform unknown distribution.
    p_ml1, seen1 = mle_prob(table, (), token)
    if not seen1:
        prob = p_unk                      # empty table: nothing but the uniform base
    else:
        a1 = weights.alphas[0]
        prob = (1.0 - a1) * p_ml1 + a1 * p_unk
    for m in range(2, n + 1):
        ctx_m = context[-(m - 1):]
        p_ml, seen = mle_prob(table, ctx_m, token)
        if not seen:
            continue                      # unseen context: keep the lower-order estimate
        a_m = weights.alphas[m - 1]
        prob = (1.0 - a_m) * p_ml + a_m * prob
    return prob


class NGramLM:
    """Interpolated n-gram LM over a fixed vocabulary."""

    kind = "ngram"

    def __init__(self, vocab: Vocabulary, table: NGramCountTable,
                 weights: InterpolationWeights):
        if len(weights.alphas) != table.n:
            raise ValueError("one interpolation weight required per order")
        self.vocab = vocab
        self.table = table
        self.weights = weights
        self.n = table.n

    @classmethod
    def train(cls, lines, n: int, alphas, vocab: Vocabulary | None = None) -> "NGramLM":
        from . import corpus as C
        lines = list(lines)
        if vocab is None:
            vocab = C.build_vocab(lines, policy="keep_all")
        sentences = [C.encode(vocab, line, append_eos=True) for line in lines]
        table = train_counts(sentences, n)
        if isinstance(alphas, (int, float)):
            weights = InterpolationWeights.uniform(n, float(alphas))
        else:
            weights = InterpolationWeights(list(alphas))
        return cls(vocab, table, weights)

    def token_log_prob(self, context, token: int) -> float:
        return math.log(interp_prob(self.table, self.weights, self.vocab, context, token))

    def score_sentence(self, ids) -> float:
        """Natural-log probability of an EOS-terminated id sentence.

        The unknown symbol is scored as itself: its interpolated probability
        with the uniform 1/v_all factor replaced by one, since
        :func:`~.evaluate.evaluate_ll` charges that factor separately.
        """
        total = 0.0
        history: list[int] = []
        for tok in ids:
            total += self.token_log_prob(history, tok)
            history.append(tok)
        return total + ids.count(UNK_ID) * math.log(self.vocab.v_all)

    def corpus_nll(self, sentences) -> float:
        return -sum(self.score_sentence(ids) for ids in sentences)

    # Generation support: a distribution over the vocabulary for sampling and
    # search. Probability mass belonging to words outside the vocabulary (the
    # uniform unknown share) is folded onto the unknown symbol, and the start
    # symbol is never emitted, so the vector sums to one.
    def start(self, source_ids=None):
        if source_ids is not None:
            raise ValueError("n-gram LM is unconditional")
        return [()]

    def step(self, state, rows, prev_ids):
        contexts, columns = [], []
        for row, prev in zip(rows, prev_ids):
            context = state[row] + (prev,) if prev != BOS_ID else state[row]
            p = np.array([interp_prob(self.table, self.weights, self.vocab, context, e)
                          for e in range(len(self.vocab))])
            p[UNK_ID] += 1.0 - p.sum() + p[BOS_ID]
            p[BOS_ID] = 0.0
            contexts.append(context)
            columns.append(p)
        return np.array(columns).T, contexts, None
