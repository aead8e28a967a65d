"""Count-based n-gram language model with recursive linear interpolation.

Probabilities are maximum-likelihood count ratios, mixed across orders:

    P_m(e | ctx) = (1 - alpha_m) * P_ML(e | ctx) + alpha_m * P_{m-1}(e | shorter ctx)

down to the unigram level, which mixes with a uniform distribution over an
assumed full language vocabulary of v_all words, so every token of every
sentence receives strictly positive probability. When a context was never
observed, the model falls back to the next-lower order outright (the MLE term
is identically zero for every token there, and renormalizing onto the lower
order keeps the distribution summing to one).

The model decodes from and scores with one distribution, :func:`next_word_prob`,
which gives the unknown symbol the mass of the words outside the vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import BOS_ID, UNK_ID, Vocabulary, build_vocab, encode
from .search import LanguageModel


@dataclass
class NGramCountTable:
    """Counts of id strings for orders 1..n, plus context-occurrence counts.

    ``counts`` maps m-grams (m = 1..n) ending at a predicted position to how
    often they occur; contexts shorter than the order are padded on the left
    with the sentence-start id. ``context_counts``, derived from ``counts``,
    maps the (m-1)-token context preceding a predicted position to the number
    of prediction events it participated in; this is the MLE denominator, and
    by construction the numerators for a seen context sum exactly to it.
    """

    n: int
    counts: dict = field(default_factory=dict)
    context_counts: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        for gram, count in self.counts.items():
            ctx = gram[:-1]
            self.context_counts[ctx] = self.context_counts.get(ctx, 0) + count

    def count(self, ids: tuple) -> int:
        return self.counts.get(tuple(ids), 0)

    def context_count(self, ids: tuple) -> int:
        return self.context_counts.get(tuple(ids), 0)


def train_counts(corpus, n: int) -> NGramCountTable:
    """Accumulate counts for all orders 1..n over EOS-terminated id sentences."""
    if n < 1:
        raise ValueError("n-gram order must be >= 1")
    counts = {}
    for sent in corpus:
        padded = (BOS_ID,) * (n - 1) + tuple(sent)
        for t in range(n - 1, len(padded)):
            for m in range(1, n + 1):
                gram = padded[t - m + 1:t + 1]
                counts[gram] = counts.get(gram, 0) + 1
    return NGramCountTable(n, counts)


def mle_prob(table: NGramCountTable, context, token: int) -> tuple[float, bool]:
    """Maximum-likelihood P(token | context).

    Returns (probability, context_seen). An unseen context yields (0.0, False)
    so interpolation can fall back to the shorter context cleanly.
    """
    context = tuple(context)
    if len(context) + 1 > table.n:
        raise ValueError(f"order {len(context) + 1} exceeds model order {table.n}")
    denom = table.context_counts.get(context, 0)
    if denom == 0:
        return 0.0, False
    return table.counts.get(context + (token,), 0) / denom, True


@dataclass
class InterpolationWeights:
    """Held-out mass alpha_m per order, alphas[0] applying at the unigram."""

    alphas: list[float]

    def __post_init__(self):
        for a in self.alphas:
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"interpolation weight {a} outside [0, 1]")


def _padded_context(n: int, context) -> tuple:
    """The last n-1 ids of ``context``, left-padded with the start symbol."""
    context = tuple(context)[-(n - 1):] if n > 1 else ()
    return (BOS_ID,) * (n - 1 - len(context)) + context


def interp_prob(table: NGramCountTable, weights: InterpolationWeights,
                vocab: Vocabulary, context, token: int) -> float:
    """Interpolated P(token | context), strictly positive whenever alphas are.

    The context is trimmed/left-padded with the start symbol to length n-1.
    """
    n = table.n
    context = _padded_context(n, context)
    prob = 1.0 / vocab.v_all
    for m in range(1, n + 1):
        p_ml, seen = mle_prob(table, context[n - m:], token)
        if seen:                          # else keep the lower-order estimate
            a_m = weights.alphas[m - 1]
            prob = (1.0 - a_m) * p_ml + a_m * prob
    return prob


def in_vocab_mass(table: NGramCountTable, weights: InterpolationWeights,
                  vocab: Vocabulary, context) -> float:
    """The sum of :func:`interp_prob` over the vocabulary, by the same
    recursion: the uniform base gives |V|/v_all, and every seen order's MLE
    sums to one over the vocabulary."""
    n = table.n
    context = _padded_context(n, context)
    mass = len(vocab) / vocab.v_all
    for m in range(1, n + 1):
        if table.context_count(context[n - m:]) > 0:
            a_m = weights.alphas[m - 1]
            mass = (1.0 - a_m) + a_m * mass
    return mass


def next_word_prob(table: NGramCountTable, weights: InterpolationWeights,
                   vocab: Vocabulary, context, token: int) -> float:
    """P(token | context) in the distribution the model decodes from: 0 for
    the start symbol, which is never emitted, and for the unknown symbol its
    own interpolated probability plus the start symbol's and the mass of
    every word outside the vocabulary, so the distribution sums to one."""
    if token == BOS_ID:
        return 0.0
    prob = interp_prob(table, weights, vocab, context, token)
    if token == UNK_ID:
        prob += (1.0 - in_vocab_mass(table, weights, vocab, context)
                 + interp_prob(table, weights, vocab, context, BOS_ID))
    return prob


class NGramLM(LanguageModel):
    """Interpolated n-gram LM over a fixed vocabulary. ``alpha`` holds the
    interpolation weights as the (n, 1) column its model file stores."""

    kind = "ngram"

    def __init__(self, vocab: Vocabulary, n: int, alphas=0.1):
        """An order-``n`` model with an empty count table; ``alphas`` is one
        held-out mass for every order, or a list of one per order."""
        if n < 1:
            raise ValueError("n-gram order must be >= 1")
        alphas = [float(alphas)] * n if isinstance(alphas, (int, float)) else list(alphas)
        if len(alphas) != n:
            raise ValueError("one interpolation weight required per order")
        self.vocab, self.n = vocab, n
        self.alpha = np.array(InterpolationWeights(alphas).alphas, float).reshape(n, 1)
        self.table = NGramCountTable(n=n)

    @classmethod
    def train(cls, lines, n: int, alphas, vocab: Vocabulary | None = None) -> "NGramLM":
        lines = list(lines)
        if vocab is None:
            vocab = build_vocab(lines, policy="keep_all")
        model = cls(vocab, n, alphas)
        model.table = train_counts([encode(vocab, line, append_eos=True)
                                    for line in lines], n)
        return model

    @property
    def weights(self) -> InterpolationWeights:
        return InterpolationWeights(self.alpha[:, 0].tolist())

    @property
    def hparams(self) -> dict:
        return {"n": self.n}

    def file_tensors(self) -> dict[str, np.ndarray]:
        return {"alpha": self.alpha}

    @property
    def counts(self) -> dict:
        """The count table's m-gram counts, the model file's count records."""
        return self.table.counts

    @counts.setter
    def counts(self, counts):
        """Install a model file's count records once its ``alpha`` is read.
        A weight outside [0, 1] raises ValueError, and so does a record with
        a gram length outside 1..n or an id outside the vocabulary: it would
        inflate a context count, so probabilities would not sum to one."""
        self.weights        # raises ValueError for a weight outside [0, 1]
        for gram in counts:
            if not 1 <= len(gram) <= self.n or max(gram) >= len(self.vocab):
                raise ValueError(f"count record {gram} does not fit an order-{self.n} "
                                 f"model over {len(self.vocab)} words")
        self.table = NGramCountTable(self.n, dict(counts))

    def score_sentence(self, ids) -> float:
        """Natural-log probability of an EOS-terminated id sentence under
        :func:`next_word_prob`, the distribution :meth:`step` emits; -inf
        where that probability is 0."""
        weights = self.weights
        total = 0.0
        history: list[int] = []
        for tok in ids:
            p = next_word_prob(self.table, weights, self.vocab, history, tok)
            total += math.log(p) if p > 0.0 else -math.inf
            history.append(tok)
        return total

    def next_distribution(self, history) -> np.ndarray:
        weights = self.weights
        return np.array([next_word_prob(self.table, weights, self.vocab, history, e)
                         for e in range(len(self.vocab))])
