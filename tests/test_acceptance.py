"""Acceptance suite: every shipping criterion, one test each, at its stated
tolerance. Run with ``pytest tests/test_acceptance.py -v -s`` to get one
pass/fail line per criterion (each test prints its own summary on success;
pytest reports the failures)."""

import math
import time
import zlib

import numpy as np
import pytest

from helpers import (OP_GRADCHECK_CASES, TableModel, brute_force_best,
                     max_gradient_error, random_table_model, rel_error,
                     run_op_gradcheck)
from seqbench import corpus as C
from seqbench.autograd import Graph, Parameter, softmax
from seqbench.evaluate import bleu, evaluate_ll
from seqbench.loglinear import FeatureVector, LogLinearLM, loss_and_grad, score
from seqbench.modelfile import load_model, save_model
from seqbench.ngram import InterpolationWeights, NGramLM, interp_prob, train_counts
from seqbench.nnet import (CELL_KINDS, FFNNLM, RNNLM, RecurrentCell,
                           RecurrentState, TOY_EQUALITY_DATA, train_toy_mlp)
from seqbench.optim import Adam
from seqbench.search import beam_search, greedy, sample
from seqbench.seq2seq import EncDecModel, Ensemble, train_encdec


def report(n, text, started=None):
    suffix = f" ({time.monotonic() - started:.1f}s)" if started else ""
    print(f"\ncriterion {n:2d}: PASS - {text}{suffix}")


def synthetic_corpus(rng, n_sentences=100, n_types=12):
    words = [f"w{i}" for i in range(n_types)]
    return [" ".join(rng.choice(words, size=rng.integers(1, 9)))
            for _ in range(n_sentences)]


def test_criterion_01_ngram_normalization():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    lines = synthetic_corpus(rng)
    vocab = C.build_vocab(lines, policy="keep_all")
    sents = [C.encode(vocab, line, append_eos=True) for line in lines]
    v = len(vocab)
    contexts_checked = 0
    worst = 0.0
    while contexts_checked < 1000:
        n = int(rng.integers(1, 5))
        table = train_counts(sents, n)
        weights = InterpolationWeights([float(a) for a in rng.uniform(0.02, 0.98, n)])
        for _ in range(50):
            ctx = tuple(int(x) for x in rng.integers(0, v, max(n - 1, 0)))
            in_vocab = sum(interp_prob(table, weights, vocab, ctx, e)
                           for e in range(v) if e != C.UNK_ID)
            unk_share = interp_prob(table, weights, vocab, ctx, C.UNK_ID)
            reserved = unk_share * (vocab.v_all - (v - 1))
            worst = max(worst, abs(in_vocab + reserved - 1.0))
            contexts_checked += 1
    elapsed = time.monotonic() - started
    assert worst < 1e-9
    assert elapsed < 5.0
    report(1, f"interpolated mass sums to 1 over {contexts_checked} random "
              f"contexts (worst deviation {worst:.2e})", started)


def oracle_interp(table, alphas, v_all, context, token):
    """Independent literal recursion over the interpolation orders."""
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
        prob = ((1 - alphas[m - 1]) * (table.count(ctx + (token,)) / denom)
                + alphas[m - 1] * prob)
    return prob


def test_criterion_02_ngram_oracle_equivalence():
    started = time.monotonic()
    model = NGramLM.train(["a b", "a a"], n=2, alphas=0.5)
    a, b = model.vocab.id_of("a"), model.vocab.id_of("b")

    # hand evaluation of the recursion on the two-sentence corpus:
    # P_ML(b|a) = c(a b)/c(a) = 1/3; the unigram level sees six counted
    # tokens (a b </s> a a </s>) so P_ML(b) = 1/6, giving
    # P(b|a) = 0.5/3 + 0.5*(0.5/6 + 0.5e-7) = 5/24 + 2.5e-8
    hand_value = 5 / 24 + 2.5e-8
    got = interp_prob(model.table, model.weights, model.vocab, (a,), b)
    assert got == pytest.approx(hand_value, abs=1e-15)

    sentences = ["a b", "a a", "b a", "a", "b", "", "a a a", "b b",
                 "a b a b", "b a a"]
    worst = 0.0
    for line in sentences:
        ids = C.encode(model.vocab, line, append_eos=True)
        lib = model.score_sentence(ids)
        want = sum(math.log(oracle_interp(model.table, model.weights.alphas,
                                          model.vocab.v_all, ids[:t], ids[t]))
                   for t in range(len(ids)))
        worst = max(worst, abs(lib - want))
    assert worst < 1e-12
    report(2, f"sentence log-probs equal the literal-recursion oracle on 10 "
              f"hand sentences (worst gap {worst:.1e}); P(b|a) = 5/24 + 2.5e-8",
           started)


def test_criterion_03_gradient_suites():
    started = time.monotonic()

    # closed-form log-linear gradients vs central differences
    rng = np.random.default_rng(303)
    h = 1e-5
    worst_ll = 0.0
    for _ in range(100):
        v, n = int(rng.integers(2, 9)), int(rng.integers(2, 13))
        W, b = rng.normal(size=(v, n)), rng.normal(size=(v, 1))
        cols = rng.choice(n, size=int(rng.integers(0, min(n, 4) + 1)), replace=False)
        x = FeatureVector(sorted((int(j), float(rng.normal())) for j in cols), n)
        target = int(rng.integers(0, v))
        _, grad_b, grad_cols = loss_and_grad(W, b, x, target)

        def nll(Wm, bm):
            return -math.log(softmax(score(Wm, bm, x))[target, 0])

        for i in range(v):
            bh, bl = b.copy(), b.copy()
            bh[i, 0] += h
            bl[i, 0] -= h
            worst_ll = max(worst_ll, rel_error(grad_b[i],
                                               (nll(W, bh) - nll(W, bl)) / (2 * h)))
        for j, col in grad_cols:
            for i in range(v):
                Wh, Wl = W.copy(), W.copy()
                Wh[i, j] += h
                Wl[i, j] -= h
                worst_ll = max(worst_ll, rel_error(col[i],
                                                   (nll(Wh, b) - nll(Wl, b)) / (2 * h)))
    assert worst_ll < 1e-6

    # every graph op
    worst_op = 0.0
    for name in sorted(OP_GRADCHECK_CASES):
        worst_op = max(worst_op, run_op_gradcheck(name, trials=50))
    # the two fused reductions
    for build_fused in ("pick", "sqdist"):
        rng2 = np.random.default_rng(17)
        for _ in range(50):
            if build_fused == "pick":
                v, cols = int(rng2.integers(3, 7)), int(rng2.integers(1, 4))
                p = Parameter("s", rng2.normal(size=(v, cols)))
                targets = [int(t) for t in rng2.integers(0, v, size=cols)]

                def build():
                    g = Graph()
                    g.sum(g.pick_neg_log_softmax(g.param(p), targets))
                    return g

                worst_op = max(worst_op, max_gradient_error(build, [p]))
            else:
                k = int(rng2.integers(1, 5))
                pa = Parameter("a", rng2.normal(size=(k, 1)))
                pb = Parameter("b", rng2.normal(size=(k, 1)))

                def build():
                    g = Graph()
                    g.squared_distance(g.param(pa), g.param(pb))
                    return g

                worst_op = max(worst_op, max_gradient_error(build, [pa, pb]))
    assert worst_op < 1e-6

    # every recurrent cell, unrolled three steps
    worst_cell = 0.0
    for kind in CELL_KINDS:
        rngc = np.random.default_rng(zlib.crc32(kind.encode()))
        for _ in range(3):
            isz, hsz = int(rngc.integers(1, 4)), int(rngc.integers(1, 6))
            cell = RecurrentCell(kind, isz, hsz, rngc)
            xs = [rngc.uniform(-0.8, 0.8, size=(isz, 1)) for _ in range(3)]
            proj = rngc.normal(size=(hsz, 1))

            def build():
                g = Graph()
                state = cell.initial_state(g)
                for xv in xs:
                    state = cell.step(g, g.input(xv), state)
                g.sum(g.cmult(state.h, g.input(proj)))
                return g

            worst_cell = max(worst_cell, max_gradient_error(build, cell.parameters()))
    assert worst_cell < 1e-6

    # end-to-end attentional encoder-decoder, all three score functions
    src = C.build_vocab(["w x y z"])
    tgt = C.build_vocab(["p q r s"])
    worst_e2e = 0.0
    for kind in ("dot", "bilinear", "mlp"):
        model = EncDecModel(src, tgt, embed_size=2, hidden_size=3,
                            dec_hidden=6 if kind == "dot" else 3,
                            encoder="bidirectional", bridge="tanh",
                            attention=kind, rng=np.random.default_rng(99))
        f, e = [3, 4], [5, C.EOS_ID]
        worst_e2e = max(worst_e2e,
                        max_gradient_error(lambda: model.loss_graph(f, e),
                                           model.parameters()))
    assert worst_e2e < 1e-5

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(3, f"gradient suites: log-linear {worst_ll:.1e}, ops {worst_op:.1e}, "
              f"cells {worst_cell:.1e}, end-to-end {worst_e2e:.1e}", started)


def test_criterion_04_lstm_memory_path():
    started = time.monotonic()
    rng = np.random.default_rng(11)
    hidden, T = 4, 20
    cell = RecurrentCell("lstm", hidden, hidden, rng)
    for gate in cell.gates:
        for view in cell.gate(gate).values():
            view[...] = rng.uniform(-0.5, 0.5, size=view.shape)
    cell.gate("i")["b_i"][...] = -100.0           # input gate driven shut
    c0 = Parameter("c0", rng.normal(size=(hidden, 1)))
    xs = [rng.uniform(-0.5, 0.5, size=(hidden, 1)) for _ in range(T)]
    g = Graph()
    state = RecurrentState(h=g.input(np.zeros((hidden, 1))), c=g.param(c0))
    for x in xs:
        state = cell.step(g, g.input(x), state)
    g.sum(g.rows(state.c, hidden, 2 * hidden))      # c_T, the cell half of [h; c]
    g.forward()
    g.backward()
    lstm_gap = np.abs(c0.grad - 1.0).max()
    assert lstm_gap < 1e-6

    rnn = RecurrentCell("rnn", hidden, hidden, rng)
    for p in rnn.parameters():
        p.value[...] = rng.uniform(-0.5, 0.5, size=p.value.shape)
    h0 = Parameter("h0", rng.normal(size=(hidden, 1)))
    g2 = Graph()
    state = RecurrentState(h=g2.param(h0))
    for x in xs:
        state = rnn.step(g2, g2.input(x), state)
    g2.sum(state.h)
    g2.forward()
    g2.backward()
    rnn_mag = np.abs(h0.grad).max()
    assert rnn_mag < 1e-3
    report(4, f"memory-cell gradient 1 +/- {lstm_gap:.1e} at T=20 while the "
              f"plain RNN's decayed to {rnn_mag:.1e}", started)


def test_criterion_05_toy_mlp():
    started = time.monotonic()
    model, losses = train_toy_mlp(TOY_EQUALITY_DATA, hidden_size=20, lr=0.1,
                                  max_epochs=1000, seed=7)
    correct = sum(math.copysign(1, model.predict(x)) == y
                  for x, y in TOY_EQUALITY_DATA)
    elapsed = time.monotonic() - started
    assert correct == 4
    assert len(losses) <= 1000
    assert elapsed < 5.0
    report(5, f"equal/unequal function fit 4/4 in {len(losses)} epochs", started)


TOY_A, TOY_EOS, TOY_B = 0, 1, 2
TOY_T = TableModel({
    (): [0.5, 0.05, 0.45],
    (TOY_A,): [0.25, 0.5, 0.25],
    (TOY_B,): [0.0, 1.0, 0.0],
})


def test_criterion_06_search_oracles():
    started = time.monotonic()
    rng = np.random.default_rng(606)
    for _ in range(200):
        model = random_table_model(rng, vocab_size=3, max_len=4)
        g = greedy(model, max_len=4)
        b = beam_search(model, beam_size=1, max_len=4)[0]
        assert g.tokens == b.tokens
        assert abs(g.logprob - b.logprob) < 1e-12

    for _ in range(50):
        model = random_table_model(rng, vocab_size=3, max_len=4)
        best_tokens, best_score = brute_force_best(model, max_len=4)
        hyp = beam_search(model, beam_size=3 ** 4, max_len=4)[0]
        assert hyp.tokens == best_tokens
        assert abs(hyp.logprob - best_score) < 1e-12

    g = greedy(TOY_T, max_len=5)
    assert g.tokens == [TOY_A, TOY_EOS]
    assert math.exp(g.logprob) == pytest.approx(0.25, abs=1e-12)
    b = beam_search(TOY_T, beam_size=2, max_len=5)[0]
    assert b.tokens == [TOY_B, TOY_EOS]
    assert math.exp(b.logprob) == pytest.approx(0.45, abs=1e-12)

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(6, "beam(1)=greedy on 200 models, exhaustive beam = brute force on "
              "50, and the hand model's 0.25 greedy vs 0.45 beam split", started)


def test_criterion_07_sampling_fidelity():
    started = time.monotonic()
    rng = np.random.default_rng(707)
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[sample(TOY_T, rng=rng, max_len=3).tokens[0]] += 1
    tv = 0.5 * np.abs(counts / n - np.array([0.5, 0.05, 0.45])).sum()
    assert tv < 0.01
    report(7, f"total-variation distance {tv:.4f} over {n} ancestral samples",
           started)


def test_criterion_08_masking_exactness():
    started = time.monotonic()
    vocab = C.build_vocab(["a b c d e f"])
    model = RNNLM(vocab, cell="lstm_forget", embed_size=4, hidden_size=6,
                  rng=np.random.default_rng(808))
    rng = np.random.default_rng(809)
    worst = 0.0
    for _ in range(100):
        n_sents = int(rng.integers(2, 6))
        sents = [[int(i) for i in rng.integers(3, len(vocab),
                                               size=rng.integers(1, 9))] + [C.EOS_ID]
                 for _ in range(n_sents)]
        if len({len(s) for s in sents}) == 1:
            sents[0].insert(0, 3)           # force unequal lengths
        batch = C.make_batches(sents, batch_size=n_sents)[0]
        g = Graph()
        model.batch_loss(g, batch)
        batched = float(g.forward()[0, 0])
        separate = sum(model.sentence_nll(s) for s in sents)
        worst = max(worst, abs(batched - separate))
    assert worst < 1e-8
    report(8, f"batched loss equals per-sentence sums over 100 random "
              f"unequal-length batches (worst gap {worst:.1e})", started)


COPY_SYMBOLS = [f"s{i}" for i in range(9)]


def _copy_pairs(vocab, rng, count):
    pairs = []
    for _ in range(count):
        n = int(rng.integers(1, 9))
        ids = [vocab.id_of(COPY_SYMBOLS[int(i)]) for i in rng.integers(0, 9, size=n)]
        pairs.append((ids, ids + [C.EOS_ID]))
    return pairs


@pytest.fixture(scope="module")
def copy_task():
    rng = np.random.default_rng(900)
    vocab = C.build_vocab([" ".join(COPY_SYMBOLS)])
    assert len(vocab) == 12
    train_pairs = _copy_pairs(vocab, rng, 2000)
    held_out = _copy_pairs(vocab, rng, 200)

    started = time.monotonic()
    strong = EncDecModel(vocab, vocab, embed_size=16, hidden_size=24,
                         encoder="bidirectional", bridge="tanh", attention="mlp",
                         rng=np.random.default_rng(901))
    opt = Adam(strong.parameters(), lr=0.003, clip_norm=5.0)
    for epoch in range(5):
        train_encdec(strong, train_pairs, opt, epochs=1,
                     rng=np.random.default_rng(902 + epoch))
        match = total = 0
        for f, e in held_out[:50]:
            out = greedy(strong, f, max_len=20).tokens
            total += max(len(out), len(e))
            match += sum(1 for x, y in zip(out, e) if x == y)
        if match / total > 0.995:
            break

    weak = EncDecModel(vocab, vocab, embed_size=16, hidden_size=24,
                       encoder="bidirectional", bridge="tanh", attention="mlp",
                       rng=np.random.default_rng(911))
    train_encdec(weak, train_pairs[:600], Adam(weak.parameters(), lr=0.003,
                                               clip_norm=5.0),
                 epochs=1, rng=np.random.default_rng(912))
    return {"vocab": vocab, "strong": strong, "weak": weak,
            "held_out": held_out, "train_time": time.monotonic() - started}


def test_criterion_09_copy_task(copy_task):
    started = time.monotonic()
    vocab = copy_task["vocab"]
    model = copy_task["strong"]
    held_out = copy_task["held_out"]

    match = total = 0
    greedy_lines, beam_lines, ref_lines = [], [], []
    for f, e in held_out:
        hyp = greedy(model, f, max_len=20)
        out = hyp.tokens
        total += max(len(out), len(e))
        match += sum(1 for x, y in zip(out, e) if x == y)
        greedy_lines.append(" ".join(hyp.surface(vocab)))
        beam4 = beam_search(model, f, beam_size=4, max_len=20)[0]
        beam_lines.append(" ".join(beam4.surface(vocab)))
        ref_lines.append(" ".join(vocab.token_of(i) for i in e[:-1]))
    accuracy = match / total
    greedy_bleu = bleu(greedy_lines, ref_lines).bleu
    beam_bleu = bleu(beam_lines, ref_lines).bleu
    total_time = copy_task["train_time"] + (time.monotonic() - started)
    assert accuracy > 0.99
    assert beam_bleu >= greedy_bleu
    assert total_time < 600.0
    report(9, f"held-out token accuracy {accuracy:.4f}, beam-4 BLEU "
              f"{beam_bleu:.4f} >= greedy BLEU {greedy_bleu:.4f}, "
              f"{total_time:.0f}s total", started)


def test_criterion_10_bleu_hand_cases():
    started = time.monotonic()
    assert bleu(["the cat sat on the mat"], ["the cat sat on the mat"]).bleu == 1.0
    zero = bleu(["the cat sat on the mat"], ["the cat is on the mat"])
    assert zero.precisions[:3] == pytest.approx([5 / 6, 3 / 5, 1 / 4])
    assert zero.precisions[3] == 0.0 and zero.bleu == 0.0
    brevity = bleu(["the cat is on"], ["the cat is on the mat"])
    assert brevity.bleu == pytest.approx(0.6065, abs=1e-4)
    report(10, "identical=1.0, zero four-gram=0.0, brevity case=0.6065", started)


def test_criterion_11_ensembling(copy_task):
    started = time.monotonic()
    model = copy_task["strong"]
    weak = copy_task["weak"]
    vocab = copy_task["vocab"]
    f = copy_task["held_out"][0][0]

    ens_same = Ensemble([model, model, model])
    p_single, _, _ = model.step(model.start(f), [0], [C.BOS_ID])
    p_ens, _, _ = ens_same.step(ens_same.start(f), [0], [C.BOS_ID])
    gap = np.abs(p_single[:, 0] - p_ens[:, 0]).max()
    assert gap < 1e-12

    held = [([vocab.token_of(i) for i in f], [vocab.token_of(i) for i in e[:-1]])
            for f, e in copy_task["held_out"][:40]]
    ll_strong = evaluate_ll(model, held).total_log_likelihood
    ll_weak = evaluate_ll(weak, held).total_log_likelihood
    ll_ens = evaluate_ll(Ensemble([model, weak]), held).total_log_likelihood
    assert ll_ens >= min(ll_strong, ll_weak)
    report(11, f"identical ensemble gap {gap:.1e}; two-model ensemble LL "
               f"{ll_ens:.1f} >= min({ll_strong:.1f}, {ll_weak:.1f})", started)


def test_criterion_12_persistence(tmp_path, copy_task):
    started = time.monotonic()
    lines = ["a b c", "c b a", "b b a", "a c"]
    data = [line.split() for line in lines]
    vocab = C.build_vocab(lines)

    models = {
        "ngram": NGramLM.train(lines, n=3, alphas=0.2),
        "loglinear": LogLinearLM(vocab, "prev2_words"),
        "ffnnlm": FFNNLM(vocab, n=3, embed_size=4, hidden_size=5,
                         rng=np.random.default_rng(3)),
        "rnnlm": RNNLM(vocab, cell="gru", embed_size=4, hidden_size=5,
                       rng=np.random.default_rng(4)),
    }
    models["loglinear"].train_sgd(lines, lr=0.2, epochs=2,
                                  rng=np.random.default_rng(5))
    for kind, model in models.items():
        path = tmp_path / f"{kind}.bin"
        save_model(model, path)
        loaded = load_model(path)
        before = evaluate_ll(model, data)
        after = evaluate_ll(loaded, data)
        assert before == after, kind

    encdec = copy_task["strong"]
    vocab_mt = copy_task["vocab"]
    pairs = [([vocab_mt.token_of(i) for i in f], [vocab_mt.token_of(i) for i in e[:-1]])
             for f, e in copy_task["held_out"][:10]]
    path = tmp_path / "encdec.bin"
    save_model(encdec, path)
    loaded = load_model(path)
    assert evaluate_ll(encdec, pairs) == evaluate_ll(loaded, pairs)
    report(12, "save->load->eval bit-identical for all five model kinds", started)
