"""Log-linear n-gram language model with closed-form gradients.

Scores are a sparse affine map s = W x + b over context features, turned into
probabilities by a max-shifted softmax. Training is per-example stochastic
gradient descent over :func:`optim.fit`, which shuffles, halves the rate after
a worse epoch and keeps the best epoch's weights; the gradients are the
hand-derived

    dl/db     = p - onehot(target)
    dl/dW[:,j] = x_j * (p - onehot(target))

so only the bias and the active feature columns are touched per update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .autograd import NonFiniteError, softmax
from .corpus import BOS_ID, UNK_ID, Vocabulary, encode
from .optim import EpochTracker, TrainingDivergence, fit
from .search import LanguageModel

TEMPLATES = ("prev_word", "prev2_words", "suffix_k", "bag_of_words")


@dataclass
class FeatureVector:
    """Sparse feature activations: unique indices below ``dim`` with values."""

    active: list[tuple[int, float]]
    dim: int


class FeatureTemplate:
    """Deterministic feature-index registry for one template.

    Index blocks are allocated in template order so a rebuilt model assigns
    identical indices. ``suffix_k`` registers the distinct k-character
    suffixes of the vocabulary's tokens.
    """

    def __init__(self, name: str, vocab: Vocabulary, suffix_len: int = 3):
        if name not in TEMPLATES:
            raise ValueError(f"unknown feature template {name!r}")
        self.name = name
        self.suffix_len = suffix_len
        v = len(vocab)
        if name == "prev_word" or name == "bag_of_words":
            self.dim = v
        elif name == "prev2_words":
            self.dim = 2 * v
        else:
            self.suffixes = {}
            for tok in vocab.tokens:
                suf = tok[-suffix_len:]
                if suf not in self.suffixes:
                    self.suffixes[suf] = len(self.suffixes)
            self.dim = len(self.suffixes)
        self.vocab = vocab

    @property
    def arity(self) -> int:
        return 2 if self.name == "prev2_words" else 1

    def featurize(self, context) -> FeatureVector:
        """Feature vector for a context id sequence (most recent id last)."""
        context = list(context)
        while len(context) < self.arity:
            context = [BOS_ID] + context
        if self.name == "prev_word":
            return FeatureVector([(context[-1], 1.0)], self.dim)
        if self.name == "prev2_words":
            v = len(self.vocab)
            return FeatureVector([(context[-1], 1.0), (v + context[-2], 1.0)], self.dim)
        if self.name == "suffix_k":
            tok = self.vocab.token_of(context[-1])
            idx = self.suffixes.get(tok[-self.suffix_len:])
            return FeatureVector([] if idx is None else [(idx, 1.0)], self.dim)
        # bag_of_words: sum one-hots over all prior words in the sentence
        counts: dict[int, float] = {}
        for tok in context:
            if tok == BOS_ID:
                continue
            counts[tok] = counts.get(tok, 0.0) + 1.0
        return FeatureVector(sorted(counts.items()), self.dim)


def score(W: np.ndarray, b: np.ndarray, x: FeatureVector) -> np.ndarray:
    """s = sum over active features of W[:,j] * x_j, plus the bias; raises
    NonFiniteError when an entry is not finite, as the neural models do."""
    if x.dim != W.shape[1]:
        raise ValueError(f"feature dim {x.dim} != weight columns {W.shape[1]}")
    s = b[:, 0].copy()
    for j, value in x.active:
        s += W[:, j] * value
    if not np.isfinite(s).all():
        raise NonFiniteError("non-finite log-linear score")
    return s


def loss_and_grad(W, b, x: FeatureVector, target: int):
    """Negative log likelihood of the target plus its sparse gradient.

    Returns (loss, grad_b, [(j, grad_column_j), ...]); columns not active in
    ``x`` have zero gradient and are omitted.
    """
    p = softmax(score(W, b, x))[:, 0]
    if not p[target] > 0.0:     # NaN, or underflow to 0
        raise TrainingDivergence("log-linear loss is not finite")
    loss = -math.log(p[target])
    grad_b = p.copy()
    grad_b[target] -= 1.0
    grad_cols = [(j, value * grad_b) for j, value in x.active]
    return loss, grad_b, grad_cols


class LogLinearLM(LanguageModel):
    """Feature-based n-gram LM trained by stochastic gradient descent."""

    kind = "loglinear"

    def __init__(self, vocab: Vocabulary, template: str, suffix_len: int = 3):
        self.vocab = vocab
        self.template = FeatureTemplate(template, vocab, suffix_len)
        self.W = np.zeros((len(vocab), self.template.dim))
        self.b = np.zeros((len(vocab), 1))

    @property
    def hparams(self) -> dict:
        return {"template": self.template.name, "suffix_len": self.template.suffix_len}

    def file_tensors(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def _instances(self, lines):
        """(context_feature, target) pairs over every position of every line."""
        out = []
        for line in lines:
            ids = encode(self.vocab, line, append_eos=True)
            history: list[int] = []
            for tok in ids:
                out.append((self.template.featurize(history), tok))
                history.append(tok)
        return out

    def train_sgd(self, train_lines, dev_lines=None, lr: float = 0.1,
                  epochs: int = 5, shuffle: bool = True, decay: bool = True,
                  rng=None, log=None):
        """Per-example SGD over :func:`optim.fit`, which returns the per-epoch
        scores. The rate may be 0, and ``W`` and ``b`` are updated in place."""
        sgd = SimpleNamespace(lr=lr, params=[self.W, self.b])

        def train_epoch(instances):
            train_loss = 0.0
            for x, target in instances:
                loss, grad_b, grad_cols = loss_and_grad(self.W, self.b, x, target)
                train_loss += loss
                self.b[:, 0] -= sgd.lr * grad_b
                for j, col in grad_cols:
                    self.W[:, j] -= sgd.lr * col
            return train_loss

        dev = (None if dev_lines is None else
               [encode(self.vocab, line, append_eos=True) for line in dev_lines])
        dev_ll = None if dev is None else lambda: -self.corpus_nll(dev)
        # an overflow raises no warning: score and fit report its NaN or Inf
        with np.errstate(over="ignore", invalid="ignore"):
            return fit(self._instances(train_lines), train_epoch,
                       EpochTracker(sgd, decay), epochs, dev_ll, rng=rng,
                       shuffle=shuffle, log=log)

    # ---- evaluation / generation protocol ----------------------------------

    def next_distribution(self, history_ids) -> np.ndarray:
        """The softmax over the vocabulary after ``history_ids``, with the
        start symbol's probability folded onto the unknown symbol: the
        distribution the model decodes from and scores with."""
        x = self.template.featurize(list(history_ids))
        p = softmax(score(self.W, self.b, x))[:, 0]
        p[UNK_ID] += p[BOS_ID]
        p[BOS_ID] = 0.0
        return p

    def score_sentence(self, ids) -> float:
        """Natural-log probability of an EOS-terminated id sentence under
        :meth:`next_distribution`; -inf where a probability is 0."""
        logp = 0.0
        history: list[int] = []
        for tok in ids:
            p = self.next_distribution(history)[tok]
            logp += math.log(p) if p > 0.0 else -math.inf
            history.append(tok)
        return logp
