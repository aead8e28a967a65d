"""Output generation: ancestral sampling, greedy search, and beam search.

All three run over any model exposing the decode protocol:

    state = model.start(source_ids_or_None)
    P, state, alphas = model.step(state, rows, prev_ids)

A state is the model's own object holding B hypotheses of one source, one
column each; ``start`` returns a one-column state. ``step`` makes B new
columns in one call: new column b extends column ``rows[b]`` of ``state``
by the token ``prev_ids[b]`` (the start symbol at first), and rows may
repeat. Column b of the V x B matrix ``P`` is that hypothesis' next-token
distribution over the target vocabulary, and column b of the |F| x B
``alphas`` its attention over the source words (``alphas`` is None when the
model has no attention). The returned state holds the B new columns; the
state passed in is left unchanged. One loop, :func:`_search`, steps the
surviving rows once per time step, so hypotheses keep no state of their
own; each search's chooser picks the survivors. The language models share
:class:`LanguageModel`, whose state is one history of ids per column and
whose ``step`` computes the distribution each model also scores with, the
unknown symbol included.

Hypothesis scores are accumulated natural-log probabilities. Ties anywhere
break toward the lexicographically smallest token sequence (hence the lowest
token id, then the shorter hypothesis), giving every search a total order and
reproducible output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import BOS_ID, EOS_ID, UNK_ID, Vocabulary

LENGTH_MODES = ("none", "multinomial_prior", "per_word_normalize")


class LanguageModel:
    """The predictor protocol of an unconditional model over ``vocab``.

    A state keeps one history per column, the ids read after the start
    symbol, and ``step`` is one :meth:`next_distributions` call over the
    histories its rows extend. ``score_sentence`` reads those same
    probabilities. The RNNLM keeps layer states instead, so it overrides
    ``step``, and its ``start`` calls this one for the source check.
    """

    src_vocab = None
    file_vocabs = ("vocab",)
    counts = None

    def start(self, source_ids=None):
        if source_ids is not None:
            raise ValueError("language model is unconditional")
        return [()]

    def step(self, state, rows, prev_ids):
        # a start symbol read into an empty history is not kept: the models
        # pad short histories with it, so keeping it would change nothing
        histories = [state[r] + (prev,) if state[r] or prev != BOS_ID else ()
                     for r, prev in zip(rows, prev_ids)]
        return self.next_distributions(histories), histories, None

    def next_distributions(self, histories) -> np.ndarray:
        """The V x B matrix of one :meth:`next_distribution` per history."""
        return np.array([self.next_distribution(h) for h in histories]).T

    def corpus_nll(self, sentences) -> float:
        """Total NLL of EOS-terminated id sentences, added in data order."""
        return -sum(self.score_sentence(ids) for ids in sentences)


@dataclass
class Hypothesis:
    """A (possibly partial) decoder output and everything needed to extend it."""

    tokens: list[int]
    logprob: float
    finished: bool = False
    truncated: bool = False
    attention_trace: list[int] | None = None
    score: float | None = None          # rescored value; logprob until then

    @property
    def final_score(self) -> float:
        return self.logprob if self.score is None else self.score

    def surface(self, vocab: Vocabulary) -> list[str]:
        """Token strings without the terminal end-of-sentence marker."""
        ids = self.tokens[:-1] if self.finished else self.tokens
        return [vocab.token_of(i) for i in ids]


@dataclass
class LengthPrior:
    """Multinomial P(|E| given |F|) estimated from training pair lengths.

    Lengths count the terminal EOS on the target side (matching hypothesis
    lengths) and the raw token count on the source side. Unseen length pairs
    are floored at ``eps`` instead of probability zero so rescoring never
    produces -inf.
    """

    pair_counts: dict = field(default_factory=dict)     # (|E|, |F|) -> count
    source_counts: dict = field(init=False, default_factory=dict)  # |F| -> count, derived
    eps: float = 1e-9

    def __post_init__(self):
        for (_, f_len), count in self.pair_counts.items():
            self.source_counts[f_len] = self.source_counts.get(f_len, 0) + count

    @classmethod
    def from_pairs(cls, pairs) -> "LengthPrior":
        counts = {}
        for f, e in pairs:
            counts[len(e), len(f)] = counts.get((len(e), len(f)), 0) + 1
        return cls(counts)

    @classmethod
    def from_rows(cls, rows) -> "LengthPrior":
        """The prior whose :meth:`rows` are ``rows``."""
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError(f"length prior has shape {rows.shape}, expected (k, 3)")
        return cls({(int(e_len), int(f_len)): int(count)
                    for e_len, f_len, count in rows.tolist()})

    def rows(self) -> np.ndarray:
        """One ``(|E|, |F|, count)`` float row per length pair, sorted."""
        return np.array([(e, f, c) for (e, f), c in sorted(self.pair_counts.items())],
                        dtype=np.float64).reshape(-1, 3)

    def log_prob(self, e_len: int, f_len: int) -> float:
        total = self.source_counts.get(f_len, 0)
        if total == 0:
            return math.log(self.eps)
        p = self.pair_counts.get((e_len, f_len), 0) / total
        return math.log(max(p, self.eps))


def default_max_len(source_ids) -> int:
    return 100 if source_ids is None else 2 * len(source_ids) + 10


def _trace_entries(alphas, count: int) -> list[int]:
    """Most-attended source position of each of ``count`` columns (-1 without
    attention)."""
    return [-1] * count if alphas is None else np.argmax(alphas, axis=0).tolist()


def _search(model, source_ids, max_len, width, choose) -> list[Hypothesis]:
    """Extend live rows until ``width`` hypotheses end in EOS, none is left
    to extend, or ``max_len`` tokens are read; one ``step`` call per time step.

    ``choose(P, logprobs, tokens)`` reads the K live rows' V x K ``P``,
    accumulated log probabilities and token lists, and returns the surviving
    ``(row, token, logprob)`` extensions, best first. Returns the finished
    hypotheses in the order they ended, else the best live row, truncated.
    """
    if max_len is None:
        max_len = default_max_len(source_ids)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    state = model.start(source_ids)
    rows, tokens, logprobs, traces = [0], [[]], [0.0], [[]]
    finished: list[Hypothesis] = []
    with np.errstate(divide="ignore"):      # log(0) = -inf: an impossible extension
        for _ in range(max_len):
            P, state, alphas = model.step(state, rows,
                                          [seq[-1] if seq else BOS_ID for seq in tokens])
            entries = _trace_entries(alphas, len(rows))
            chosen = choose(P, logprobs, tokens)
            parents, parent_traces = tokens, traces
            rows, tokens, logprobs, traces = [], [], [], []
            for row, tok, logprob in chosen:
                seq, trace = parents[row] + [tok], parent_traces[row] + [entries[row]]
                if tok == EOS_ID:
                    finished.append(Hypothesis(seq, logprob, finished=True,
                                               attention_trace=trace))
                else:
                    rows.append(row)
                    tokens.append(seq)
                    logprobs.append(logprob)
                    traces.append(trace)
            if len(finished) >= width or not rows:
                break
    if finished:
        return finished
    best = min(range(len(rows)), key=lambda i: (-logprobs[i], tokens[i]))
    return [Hypothesis(tokens[best], logprobs[best], truncated=True,
                       attention_trace=traces[best])]


def _one_column(pick):
    """The chooser of a one-row search: the token ``pick(p)`` of the row's
    distribution ``p``, adding the ``np.log`` of that entry only."""
    def choose(P, logprobs, tokens):
        p = P[:, 0]
        tok = pick(p)
        return [(0, tok, logprobs[0] + np.log(p[tok]))]
    return choose


def sample(model, source_ids=None, rng=0, max_len: int | None = None) -> Hypothesis:
    """Ancestral sampling: draw each token from the model distribution."""
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return _search(model, source_ids, max_len, 1, _one_column(
        lambda p: int(rng.choice(len(p), p=p / p.sum()))))[0]


def greedy(model, source_ids=None, max_len: int | None = None) -> Hypothesis:
    """Pick the most probable token at every step (ties: lowest id)."""
    # the argmax of the column's probabilities, not of accumulated scores,
    # which may round two of them alike; ties go to the first (lowest) id
    return _search(model, source_ids, max_len, 1,
                   _one_column(lambda p: int(p.argmax())))[0]


def _rescore(hyp: Hypothesis, mode: str, prior: LengthPrior | None,
             source_len: int | None) -> float:
    if mode == "none":
        return hyp.logprob
    if mode == "per_word_normalize":
        return hyp.logprob / max(len(hyp.tokens), 1)
    if prior is None:       # multinomial_prior; beam_search checked the mode
        raise ValueError("multinomial_prior rescoring needs a LengthPrior")
    if source_len is None:
        raise ValueError("multinomial_prior rescoring needs a source sentence")
    return hyp.logprob + prior.log_prob(len(hyp.tokens), source_len)


def _best_candidates(scores: np.ndarray, prefixes, k: int) -> list[tuple[int, int]]:
    """(row, token) of the ``k`` best finite entries of ``scores``, best first.

    ``scores`` is the (hypotheses x vocabulary) matrix of extension scores and
    ``prefixes[row]`` the token tuple of the hypothesis on that row. The order
    is that of the key ``(-score, prefixes[row] + (token,))``. Only the entries
    scoring at least the k-th best value are sorted; every entry tied at the
    cut is among them, so the tie rule picks the survivors as a full sort would.
    """
    flat = scores.ravel()
    k = min(k, flat.size)
    cut = -np.partition(-flat, k - 1)[k - 1]
    picked = np.flatnonzero((flat >= cut) & (flat > -math.inf)).tolist()
    width = scores.shape[1]
    picked.sort(key=lambda i: (-flat[i], prefixes[i // width] + (i % width,)))
    return [divmod(i, width) for i in picked[:k]]


def beam_search(model, source_ids=None, beam_size: int = 4,
                max_len: int | None = None, length_mode: str = "none",
                length_prior: LengthPrior | None = None) -> list[Hypothesis]:
    """Breadth-limited search keeping the best ``beam_size`` partial outputs.

    The decoding loop's chooser expands every active hypothesis over the
    whole vocabulary and prunes back to the top ``beam_size`` by accumulated
    log probability; the loop moves those ending in EOS to a completed pool.
    Zero-probability extensions are never kept. When several extensions tie
    at the cut, the ones whose token sequences sort lexicographically first
    survive, exactly as if every extension had been sorted. Search stops once
    the pool holds ``beam_size`` hypotheses (or nothing is left to extend, or
    ``max_len`` is hit); the pool is then rescored by ``length_mode`` and
    returned best-first. If nothing completed, the best unfinished hypothesis
    is returned with its truncated flag set.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if length_mode not in LENGTH_MODES:
        raise ValueError(f"unknown length mode {length_mode!r}")
    source_len = None if source_ids is None else len(source_ids)

    def choose(P, logprobs, tokens):
        scores = np.log(P).T + np.array(logprobs)[:, None]
        prefixes = [tuple(seq) for seq in tokens]
        return [(row, tok, scores[row, tok])
                for row, tok in _best_candidates(scores, prefixes, beam_size)]

    hyps = _search(model, source_ids, max_len, beam_size, choose)
    for hyp in hyps:
        hyp.score = _rescore(hyp, length_mode, length_prior, source_len)
    hyps.sort(key=lambda h: (-h.score, tuple(h.tokens)))
    return hyps[:beam_size]


def replace_unknowns(hyp: Hypothesis, source_tokens, vocab: Vocabulary) -> list[str]:
    """Swap each unknown output token for the source word it attended to most."""
    if hyp.attention_trace is None or any(t < 0 for t in hyp.attention_trace):
        raise ValueError("unknown-word replacement needs an attentional hypothesis")
    surface = []
    ids = hyp.tokens[:-1] if hyp.finished else hyp.tokens
    for pos, tok in enumerate(ids):
        if tok == UNK_ID:
            surface.append(source_tokens[hyp.attention_trace[pos]])
        else:
            surface.append(vocab.token_of(tok))
    return surface


def nbest_lines(hypotheses, index: int, vocab: Vocabulary) -> list[str]:
    """Moses-style n-best rows: ``index ||| tokens ||| score``."""
    return [f"{index} ||| {' '.join(h.surface(vocab))} ||| {h.final_score:.6f}"
            for h in hypotheses]
