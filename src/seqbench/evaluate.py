"""Model evaluation: log likelihood, perplexity, and corpus-level BLEU.

Word counts include the terminal end-of-sentence token of every sentence,
matching the probability decomposition the models implement (a sentence of T
words contributes T+1 scored positions).

Every model scores through one method, ``corpus_nll(items) -> float``: the
negative log-likelihood it assigns to a list of EOS-terminated target id
lists, or to (source ids, target ids) pairs for models with a ``src_vocab``,
each token scored with the probability ``step`` gives it, the unknown symbol
included. :func:`evaluate_ll` owns the rest: it encodes the surface data,
calls ``corpus_nll`` once, and charges each unknown target token the uniform
1/v_all factor of :func:`~.corpus.unknown_factor`, whose log sum the report
gives as the unknown log portion. The n-gram and
log-linear LMs and ensembles add their per-item NLLs in data order; the
neural LMs and the encoder-decoder score length-sorted batches of up to
:data:`~.nnet.SCORE_BATCH` sentences or pairs, so their total may differ
from a per-item sum in the last bits.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import EOS, EOS_ID, DataError, encode, unknown_factor


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


def perplexity(log_likelihood: float, words: int) -> float:
    """``exp(-log_likelihood / words)``; inf where a per-word NLL beyond
    about 709.78 overflows it."""
    try:
        return math.exp(-log_likelihood / words)
    except OverflowError:
        return math.inf


def evaluate_ll(model, data) -> EvalReport:
    """Score a corpus of surface token lists (language models) or of
    (source, target) token-list pairs (models with a ``src_vocab``).

    Targets are encoded with ``model.vocab`` and EOS-terminated, sources
    with ``model.src_vocab``. The total is ``-corpus_nll`` plus the unknown
    log portion, which is summed sentence by sentence in data order.

    A target that holds the reserved end-of-sentence token is a
    :class:`~.corpus.DataError` naming its line (its 1-based position in
    ``data``): a model reads nothing past an end of sentence.
    """
    data = list(data)
    if not data:
        raise DataError("empty evaluation data")
    src_vocab = model.src_vocab
    if src_vocab is None:
        items = targets = [encode(model.vocab, tokens, append_eos=True) for tokens in data]
    else:
        items = [(encode(src_vocab, f), encode(model.vocab, e, append_eos=True))
                 for f, e in data]
        targets = [e for _, e in items]
    for number, ids in enumerate(targets, start=1):
        if ids.index(EOS_ID) < len(ids) - 1:
            raise DataError(f"line {number} holds the reserved end-of-sentence "
                            f"token {EOS}")
    unk_count, unk_logp = unknown_factor(model.vocab, targets)
    total = -model.corpus_nll(items) + unk_logp
    words = sum(len(ids) for ids in targets)
    return EvalReport(total_log_likelihood=total, word_count=words,
                      per_word_ll=total / words, perplexity=perplexity(total, words),
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
