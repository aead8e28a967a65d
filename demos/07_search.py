"""Decoding strategies side by side on a hand-built probability table.

The toy model is the classic trap for greedy search: 'a' is the best first
token, but everything that starts with 'a' ends up less probable than the
sentence starting with 'b'. Beam search recovers the true best output, and
per-word length normalization counteracts the preference for short outputs.
"""

import math

import numpy as np

from seqbench.search import beam_search, greedy, sample


class TableModel:
    """vocabulary: ids 0='a', 1=end-of-sentence, 2='b'"""

    names = {0: "a", 1: "</s>", 2: "b"}

    def __init__(self, table):
        self.table = {k: np.array(v) for k, v in table.items()}

    def start(self, source_ids=None):
        return [None]

    def step(self, state, rows, prev_ids):
        """A state holds one prefix per column."""
        prefixes = [() if state[r] is None else state[r] + (prev,)
                    for r, prev in zip(rows, prev_ids)]
        P = np.array([self.table.get(prefix, [0.0, 1.0, 0.0]) for prefix in prefixes]).T
        return P, prefixes, None

    def words(self, tokens):
        return " ".join(self.names[t] for t in tokens)


model = TableModel({
    (): [0.50, 0.05, 0.45],      # P(a)=0.5  P(</s>)=0.05  P(b)=0.45
    (0,): [0.25, 0.50, 0.25],    # after 'a'
    (2,): [0.00, 1.00, 0.00],    # after 'b': always stop
})

g = greedy(model, max_len=5)
print(f"greedy   : {model.words(g.tokens):12s} prob {math.exp(g.logprob):.3f}")
for width in (2, 3):
    hyps = beam_search(model, beam_size=width, max_len=5)
    rows = ", ".join(f"{model.words(h.tokens)} ({math.exp(h.logprob):.3f})"
                     for h in hyps)
    print(f"beam b={width} : {rows}")
print()
print("greedy grabs 'a' (0.50) but can only finish at 0.25 overall;")
print("the beam keeps 'b' alive and finishes at 0.45.")
print()

counts = {}
rng = np.random.default_rng(0)
for _ in range(10000):
    first = sample(model, rng=rng, max_len=5).tokens[0]
    counts[first] = counts.get(first, 0) + 1
print("ancestral sampling reproduces the first-step distribution:")
for tok in sorted(counts):
    print(f"  {model.names[tok]:5s} {counts[tok] / 10000:.3f}")
print()

long_favoring = TableModel({
    (): [0.55, 0.45, 0.0],
    (0,): [0.80, 0.20, 0.0],
    (0, 0): [0.0, 1.0, 0.0],
})
plain = beam_search(long_favoring, beam_size=4, max_len=4)
norm = beam_search(long_favoring, beam_size=4, max_len=4,
                   length_mode="per_word_normalize")
print("length bias: raw scores prefer", repr(long_favoring.words(plain[0].tokens)),
      "| per-word normalization prefers", repr(long_favoring.words(norm[0].tokens)))
