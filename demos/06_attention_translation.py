"""An attentional encoder-decoder on a toy reversal task.

The model learns to emit the source sequence backwards. After training we
decode greedily, score with BLEU, and print the attention matrix of one
example -- it should light up along the anti-diagonal, one source word per
output step.
"""

import numpy as np

from seqbench import Adam, EncDecModel, bleu, build_vocab, train_encdec
from seqbench.corpus import BOS_ID, EOS_ID
from seqbench.search import greedy

rng = np.random.default_rng(8)
symbols = list("abcdefg")
vocab = build_vocab([" ".join(symbols)])


def make_pair():
    n = int(rng.integers(2, 6))
    words = [symbols[int(i)] for i in rng.integers(0, len(symbols), size=n)]
    f = [vocab.id_of(w) for w in words]
    return f, list(reversed(f)) + [EOS_ID]


train_pairs = [make_pair() for _ in range(1200)]
test_pairs = [make_pair() for _ in range(40)]

model = EncDecModel(vocab, vocab, embed_size=12, hidden_size=16,
                    encoder="bidirectional", bridge="tanh", attention="mlp",
                    rng=np.random.default_rng(9))
opt = Adam(model.parameters(), lr=0.003, clip_norm=5.0)
print("training 3 epochs on 1200 reversal pairs...")
train_encdec(model, train_pairs, opt, epochs=3, rng=np.random.default_rng(10),
             log=lambda e, tl, dl: print(f"  epoch {e}: train loss {tl:9.1f}"))

hyp_lines, ref_lines = [], []
correct = 0
for f, e in test_pairs:
    hyp = greedy(model, f, max_len=16)
    hyp_lines.append(" ".join(hyp.surface(vocab)))
    ref_lines.append(" ".join(vocab.token_of(i) for i in e[:-1]))
    correct += hyp.tokens == e
print(f"\nexact reversals on held-out data: {correct}/{len(test_pairs)}")
print(f"greedy BLEU: {bleu(hyp_lines, ref_lines).bleu:.4f}")

f, e = test_pairs[0]
src_words = [vocab.token_of(i) for i in f]
state = model.start(f)
prev = BOS_ID
attention = []
out_words = []
for _ in range(len(f) + 1):
    P, state, alphas = model.step(state, [0], [prev])
    prev = int(np.argmax(P[:, 0]))
    attention.append(alphas[:, 0])
    out_words.append(vocab.token_of(prev))
    if prev == EOS_ID:
        break

print(f"\nattention for '{' '.join(src_words)}' -> '{' '.join(out_words)}':")
print("          " + "  ".join(f"{w:>4s}" for w in src_words))
for word, alpha in zip(out_words, attention):
    cells = "  ".join(f"{a:4.2f}" for a in alpha)
    print(f"  {word:6s}  {cells}")
