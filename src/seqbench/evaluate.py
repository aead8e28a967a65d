"""Model evaluation: log likelihood, perplexity, and corpus-level BLEU.

Word counts include the terminal end-of-sentence token of every sentence,
matching the probability decomposition the models implement (a sentence of T
words contributes T+1 scored positions). The unknown-word bookkeeping splits
the total log likelihood into the part charged by the models proper and the
part charged by the uniform unknown-word distribution.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import DataError


@dataclass
class EvalReport:
    total_log_likelihood: float
    word_count: int
    per_word_ll: float
    perplexity: float
    unk_count: int
    unk_log_portion: float

    FIELDS = ("total_log_likelihood", "word_count", "per_word_ll", "perplexity",
              "unk_count", "unk_log_portion")

    def lines(self) -> list[str]:
        header = "# word_count includes one end-of-sentence token per sentence"
        return [header] + [f"{name}\t{getattr(self, name)!r}" for name in self.FIELDS]


def _score_items(model, data):
    """The default corpus hook: (log-prob, word count, unk count, unk log
    portion) summed over one ``score_sentence`` (token list) or
    ``score_pair`` ((source, target) pair) call per item, in data order."""
    total = 0.0
    words = 0
    unk_count = 0
    unk_logp = 0.0
    for item in data:
        if isinstance(item, tuple):
            logp, n, unks, unk_ll = model.score_pair(item[0], item[1])
        else:
            logp, n, unks, unk_ll = model.score_sentence(item)
        total += logp
        words += n
        unk_count += unks
        unk_logp += unk_ll
    return total, words, unk_count, unk_logp


def evaluate_ll(model, data) -> EvalReport:
    """Score a corpus with any model exposing ``score_sentence`` (language
    models, over token lists) or ``score_pair`` (conditional models, over
    (source, target) token-list pairs).

    A model may score the whole corpus at once through a ``score_corpus``
    method returning the same four sums as :func:`_score_items`. The neural
    LMs do: they score length-sorted batches of up to
    :data:`~.nnet.SCORE_BATCH` sentences, so their total may differ from a
    per-sentence sum in the last bits, while the unknown-word count and log
    portion are summed per sentence as before.
    """
    data = list(data)
    if not data:
        raise DataError("empty evaluation data")
    score_corpus = getattr(model, "score_corpus", None)
    total, words, unk_count, unk_logp = (
        _score_items(model, data) if score_corpus is None else score_corpus(data))
    per_word = total / words
    try:
        perplexity = math.exp(-per_word)
    except OverflowError:       # a per-word NLL beyond about 709.78
        perplexity = math.inf
    return EvalReport(total_log_likelihood=total, word_count=words,
                      per_word_ll=per_word, perplexity=perplexity,
                      unk_count=unk_count, unk_log_portion=unk_logp)


@dataclass
class BleuReport:
    precisions: list[float]       # clipped n-gram precision, n = 1..max_n
    brevity_penalty: float
    bleu: float
    hyp_length: int
    ref_length: int

    def lines(self) -> list[str]:
        rows = [f"bleu\t{self.bleu!r}", f"brevity_penalty\t{self.brevity_penalty!r}",
                f"hyp_length\t{self.hyp_length}", f"ref_length\t{self.ref_length}"]
        rows += [f"p{n}\t{p!r}" for n, p in enumerate(self.precisions, start=1)]
        return rows


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses, references, max_n: int = 4) -> BleuReport:
    """Corpus BLEU over whitespace-tokenized lines, one reference per hypothesis.

    Precisions pool clipped n-gram matches over the whole corpus; the score is
    zero whenever any pooled precision is zero (no smoothing). An order with
    no possible n-grams at all (every hypothesis shorter than n) is counted as
    a neutral 1.0 so that identical corpora always score 1. The brevity
    penalty is min(1, exp(1 - ref_len/hyp_len)).
    """
    hypotheses = [h.split() if isinstance(h, str) else list(h) for h in hypotheses]
    references = [r.split() if isinstance(r, str) else list(r) for r in references]
    if len(hypotheses) != len(references):
        raise DataError(f"hypothesis/reference line counts differ: "
                        f"{len(hypotheses)} vs {len(references)}")
    if not hypotheses:
        raise DataError("empty hypothesis set")

    matched = [0] * max_n
    possible = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_grams = _ngrams(hyp, n)
            ref_grams = _ngrams(ref, n)
            possible[n - 1] += max(len(hyp) - n + 1, 0)
            matched[n - 1] += sum(min(count, ref_grams[gram])
                                  for gram, count in hyp_grams.items())

    if hyp_len == 0:
        raise DataError("empty hypotheses")
    precisions = [m / p if p > 0 else 1.0 for m, p in zip(matched, possible)]
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / max_n)
    return BleuReport(precisions=precisions, brevity_penalty=bp, bleu=score,
                      hyp_length=hyp_len, ref_length=ref_len)
