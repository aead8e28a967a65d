"""Corpus handling: vocabularies, token-id encoding, and padded minibatches.

Text is assumed pre-tokenized: UTF-8, one sentence per line, tokens separated
by whitespace. Sentences used as prediction targets carry a terminal
end-of-sentence token; start-of-sentence is never stored, only implied by
models when they pad contexts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

BOS = "⟨s⟩"       # sentence start, id 0
EOS = "⟨/s⟩"      # sentence end, id 1
UNK = "⟨unk⟩"     # unknown word, id 2

BOS_ID = 0
EOS_ID = 1
UNK_ID = 2
RESERVED = (BOS, EOS, UNK)

DEFAULT_V_ALL = 10_000_000


class DataError(Exception):
    """Malformed or missing input data (maps to CLI exit code 2)."""


@dataclass
class Vocabulary:
    """Bidirectional token <-> integer-id map with reserved symbols.

    Ids 0, 1, 2 are always the start, end, and unknown symbols. ``v_all`` is
    the assumed size of the full language vocabulary used by the uniform
    unknown-word distribution; it must exceed the number of known tokens.
    """

    tokens: list[str] = field(default_factory=lambda: list(RESERVED))
    v_all: int = DEFAULT_V_ALL

    def __post_init__(self):
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if self.tokens[:3] != [BOS, EOS, UNK]:
            raise ValueError("reserved symbols must occupy ids 0, 1, 2")
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        if self.v_all <= len(self.tokens):
            raise ValueError("v_all must exceed the vocabulary size")

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.index.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        return self.tokens[token_id]

    def __contains__(self, token: str) -> bool:
        return token in self.index


def unknown_factor(vocab: Vocabulary, sentences) -> tuple[int, float]:
    """(count, log factor) of the unknown ids in the id lists ``sentences``.

    Each unknown token stands for some word outside the vocabulary and pays
    the uniform 1/v_all probability of that word; the log factor sums those
    logs sentence by sentence, in order.
    """
    unk_count, unk_logp = 0, 0.0
    for ids in sentences:
        count = ids.count(UNK_ID)
        unk_count += count
        unk_logp += -count * math.log(vocab.v_all)
    return unk_count, unk_logp


def build_vocab(lines, policy: str = "keep_all", min_count: int = 2,
                v_all: int = DEFAULT_V_ALL) -> Vocabulary:
    """Build a vocabulary from an iterable of token lines.

    policy:
      keep_all           every observed token enters the vocabulary
      replace_singletons tokens seen once map to the unknown symbol
      min_count          tokens seen fewer than ``min_count`` times map to unknown

    Token ids follow first occurrence in the corpus, so identical input bytes
    always produce the identical vocabulary.
    """
    counts = Counter()          # first occurrence first, as dicts keep order
    for line in lines:
        counts.update(line.split())
    if not counts:
        raise DataError("empty corpus")
    threshold = {"keep_all": 1, "replace_singletons": 2, "min_count": min_count}.get(policy)
    if threshold is None:
        raise ValueError(f"unknown vocabulary policy: {policy!r}")
    for tok in RESERVED:
        counts.pop(tok, None)
    tokens = [*RESERVED, *(tok for tok, count in counts.items() if count >= threshold)]
    if len(RESERVED) < v_all <= len(tokens):   # the constructor refuses a smaller v_all
        raise ValueError(f"v_all must exceed the vocabulary size ({len(tokens)})")
    return Vocabulary(tokens=tokens, v_all=v_all)


def encode(vocab: Vocabulary, line, append_eos: bool = False) -> list[int]:
    """Map a token line (string or token list) to ids; OOV tokens become UNK."""
    tokens = line.split() if isinstance(line, str) else list(line)
    ids = [vocab.id_of(t) for t in tokens]
    if append_eos:
        ids.append(EOS_ID)
    return ids


def decode(vocab: Vocabulary, ids) -> list[str]:
    return [vocab.token_of(i) for i in ids]


def read_token_lines(path) -> list[str]:
    """Read a corpus file, reporting the line number of any invalid UTF-8."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    lines = []
    for i, blob in enumerate(raw.split(b"\n"), start=1):
        try:
            lines.append(blob.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: invalid UTF-8 on line {i}") from exc
    if lines and lines[-1] == "":
        lines.pop()            # trailing newline
    return lines


def read_parallel(src_path, tgt_path) -> list[tuple[str, str]]:
    src = read_token_lines(src_path)
    tgt = read_token_lines(tgt_path)
    if len(src) != len(tgt):
        raise DataError(
            f"line count mismatch: {src_path} has {len(src)}, {tgt_path} has {len(tgt)}")
    return list(zip(src, tgt))


@dataclass
class MiniBatch:
    """Column-per-sentence id grid padded with EOS, plus a loss mask.

    mask[t, j] is 1 exactly when position t of sentence j is a real, counted
    token (the terminal EOS inclusive); padded duplicate EOS rows carry 0 so
    they contribute nothing to any loss.
    """

    token_matrix: np.ndarray    # (max_len, batch) int
    mask: np.ndarray            # (max_len, batch) float64
    true_lengths: list[int]     # counted length per column, EOS included

    @property
    def max_len(self) -> int:
        return self.token_matrix.shape[0]

    @property
    def size(self) -> int:
        return self.token_matrix.shape[1]


def make_batches(sentences, batch_size: int) -> list[MiniBatch]:
    """Group EOS-terminated id sequences into padded minibatches.

    The sentences are stably sorted by length first, which keeps padding
    waste low; grouping then takes consecutive runs.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    sentences = sorted(sentences, key=len)
    batches = []
    for start in range(0, len(sentences), batch_size):
        group = sentences[start:start + batch_size]
        lengths = [len(s) for s in group]
        max_len = max(lengths)
        tokens = np.full((max_len, len(group)), EOS_ID, dtype=np.int64)
        mask = np.zeros((max_len, len(group)))
        for j, sent in enumerate(group):
            tokens[:len(sent), j] = sent
            mask[:len(sent), j] = 1.0
        batches.append(MiniBatch(tokens, mask, lengths))
    return batches
