"""The batched predictor protocol.

Column b of one B-column ``step`` must equal a one-column ``step`` on row
``rows[b]`` alone, for every model, and beam search built on the batched
call must agree with the reference that steps one hypothesis at a time.
A model's ``corpus_nll`` must score targets as its one-column steps do,
also where the encoder-decoder scores padded batches.
"""

import itertools

import numpy as np
import pytest

from helpers import decoding_nll, random_table_model, reference_beam_search, same_bits
from seqbench import corpus as C
from seqbench import nnet, seq2seq
from seqbench.autograd import Eager, Graph
from seqbench.evaluate import evaluate_ll
from seqbench.loglinear import LogLinearLM
from seqbench.ngram import NGramLM
from seqbench.nnet import CELL_KINDS, FFNNLM, RNNLM, SCORE_BATCH, RecurrentState
from seqbench.search import beam_search, greedy
from seqbench.seq2seq import (ATTENTION_KINDS, BRIDGE_KINDS, ENCODER_DIRECTIONS,
                              EncDecModel, EncDecState, Ensemble, SourceEncoding)

SRC = C.build_vocab(["w x y z"])
TGT = C.build_vocab(["p q r s t"])
LINES = ["a b c d", "b c a", "c a a d", "a b"]
LM_VOCAB = C.build_vocab(LINES)
SOURCE = [3, 5, 4, 6]

NEURAL_TOL = 1e-12      # a B-column matmul may round differently from a one-column one


def assert_close(batched, single, tol):
    assert batched.shape == single.shape
    if tol == 0:
        assert np.array_equal(batched, single)
    else:
        assert np.abs(batched - single).max() <= tol


def column(state, b):
    """Column b of a predictor state, as comparable parts."""
    if isinstance(state, EncDecState):
        return state.encoding, column(state.layers, b), column(state.context, b)
    if isinstance(state, tuple):            # an ensemble's member states
        return tuple(column(member, b) for member in state)
    if isinstance(state, RecurrentState):
        return column(state.h, b), column(state.c, b)
    if isinstance(state, np.ndarray):
        return state[:, b]
    if state and isinstance(state[0], RecurrentState):     # layer states
        return [column(st, b) for st in state]
    return None if state is None else state[b]      # one entry per column


def width(state):
    """The number of columns of a predictor state."""
    if isinstance(state, EncDecState):
        return width(state.layers)
    if isinstance(state, tuple):
        return width(state[0])
    if isinstance(state[0], RecurrentState):
        return state[0].h.shape[1]
    return len(state)


def assert_same_state(batched, single, tol):
    if isinstance(single, SourceEncoding):
        assert batched is single
    elif isinstance(single, np.ndarray):
        assert_close(batched, single, tol)
    elif isinstance(single, (list, tuple)):
        assert type(batched) is type(single) and len(batched) == len(single)
        for b, s in zip(batched, single):
            assert_same_state(b, s, tol)
    else:
        assert batched == single


def distinct_columns(model, start, count):
    """A ``count``-column state whose column b is reached from ``start`` by
    the prefix BOS, 3 + b, 3 + 2b + 1 (word ids wrapping round)."""
    words = len(model.vocab) - 3
    _, state, _ = model.step(start, [0] * count, [C.BOS_ID] * count)
    for prev_ids in ([3 + b % words for b in range(count)],
                     [3 + (2 * b + 1) % words for b in range(count)]):
        _, state, _ = model.step(state, list(range(count)), prev_ids)
    return state


def check_batched_step(model, source_ids, tol, max_batch=5):
    """For B = 1..max_batch: P, alphas and every new state column of one
    B-column step equal, column by column, those of B one-column steps on
    the same rows. The rows repeat and reorder the columns of the start
    state and of a state with distinct columns."""
    start = model.start(source_ids)
    words = len(model.vocab) - 3
    prev_ids = [3 + (3 * b) % words for b in range(max_batch)]
    prev_ids[0] = C.BOS_ID
    for state, all_rows in ((start, [0] * max_batch),
                            (distinct_columns(model, start, max_batch), [3, 0, 3, 4, 1])):
        for batch in range(1, max_batch + 1):
            rows = all_rows[:batch]
            P, new_state, alphas = model.step(state, rows, prev_ids[:batch])
            assert P.shape == (len(model.vocab), batch)
            assert width(new_state) == batch
            for b in range(batch):
                P1, new1, alphas1 = model.step(state, [rows[b]], [prev_ids[b]])
                assert_close(P[:, b], P1[:, 0], tol)
                assert (alphas is None) == (alphas1 is None)
                if alphas is not None:
                    assert alphas.shape[1] == batch
                    assert_close(alphas[:, b], alphas1[:, 0], tol)
                assert_same_state(column(new_state, b), column(new1, 0), tol)


def encdec(seed=7, **kwargs):
    settings = dict(embed_size=3, hidden_size=4, rng=np.random.default_rng(seed))
    settings.update(kwargs)
    return EncDecModel(SRC, TGT, **settings)


@pytest.mark.parametrize("encoder,bridge,attention,cell,layers", itertools.product(
    ENCODER_DIRECTIONS, BRIDGE_KINDS, ATTENTION_KINDS, CELL_KINDS, (1, 2)))
def test_every_encdec_configuration_is_rejected_or_trains_and_decodes(
        encoder, bridge, attention, cell, layers):
    kwargs = dict(encoder=encoder, bridge=bridge, attention=attention, cell=cell,
                  layers=layers)
    if bridge == "copy" and encoder == "bidirectional":
        with pytest.raises(ValueError, match="copy bridge"):
            encdec(**kwargs)
        return
    try:
        model = encdec(**kwargs)
    except ValueError:
        return
    target = [4, 6, 3, C.EOS_ID]
    g = model.loss_graph(SOURCE, target)
    loss = g.forward()[0, 0]
    g.backward()
    assert np.isfinite(loss) and loss > 0
    assert any(np.any(p.grad != 0) for p in model.parameters())

    # the decode path (hoisted attention projection, batched columns) scores
    # the target as the training graph does
    state, prev, total = model.start(SOURCE), C.BOS_ID, 0.0
    for tok in target:
        P, state, _ = model.step(state, [0], [prev])
        total -= np.log(P[tok, 0])
        prev = tok
    assert total == pytest.approx(loss, rel=1e-9)
    check_batched_step(model, SOURCE, NEURAL_TOL)


@pytest.mark.parametrize("cell,layers", itertools.product(CELL_KINDS, (1, 2)))
def test_rnnlm_batched_step(cell, layers):
    model = RNNLM(LM_VOCAB, cell=cell, embed_size=3, hidden_size=5, layers=layers,
                  rng=np.random.default_rng(8))
    check_batched_step(model, None, NEURAL_TOL)


def test_ffnnlm_batched_step():
    model = FFNNLM(LM_VOCAB, n=3, embed_size=3, hidden_size=5,
                   rng=np.random.default_rng(9))
    check_batched_step(model, None, NEURAL_TOL)


def test_ensemble_batched_step():
    members = [encdec(seed=10, attention="none", encoder="forward"),
               encdec(seed=11, attention="mlp"),
               encdec(seed=12, attention="bilinear", layers=2)]
    check_batched_step(Ensemble(members), SOURCE, NEURAL_TOL)


def test_count_and_feature_lms_batched_step_exact():
    loglinear = LogLinearLM(LM_VOCAB, "prev2_words")
    loglinear.train_sgd(LINES, lr=0.3, epochs=2, rng=np.random.default_rng(13))
    for model in (NGramLM.train(LINES, n=3, alphas=0.2, vocab=LM_VOCAB), loglinear):
        check_batched_step(model, None, 0)


def test_table_model_batched_step_exact():
    model = random_table_model(np.random.default_rng(14), vocab_size=len(LM_VOCAB),
                               max_len=4)
    model.vocab = LM_VOCAB
    check_batched_step(model, None, 0)


IDENTITY_MODELS = {
    "encdec": lambda: encdec(seed=30, layers=2),
    "encdec-gru": lambda: encdec(seed=31, cell="gru"),
    "encdec-bilinear": lambda: encdec(seed=32, attention="bilinear", encoder="forward"),
    "encdec-none": lambda: encdec(seed=33, attention="none", encoder="forward"),
    "rnnlm-residual": lambda: RNNLM(LM_VOCAB, embed_size=5, hidden_size=5, layers=2,
                                    residual=True, rng=np.random.default_rng(34)),
    "rnnlm-gru": lambda: RNNLM(LM_VOCAB, cell="gru", embed_size=3, hidden_size=5,
                               rng=np.random.default_rng(35)),
}


def state_arrays(state):
    """Every array a neural predictor state holds, in order."""
    if isinstance(state, EncDecState):
        return state_arrays(state.layers) + [a for a in (state.context,) if a is not None]
    return [a for st in state for a in (st.h, st.c) if a is not None]


@pytest.mark.parametrize("name", IDENTITY_MODELS)
def test_identity_rows_reuse_the_state_as_the_gathered_path_would_bitwise(
        name, monkeypatch):
    # rows that list a state's own columns in order gather nothing; P,
    # alphas and the new state are those of the gathered path, bit for bit,
    # and the state passed in is left unchanged
    model = IDENTITY_MODELS[name]()
    source = SOURCE if isinstance(model, EncDecModel) else None
    start = model.start(source)
    for state, rows in ((start, [0]), (distinct_columns(model, start, 3), [0, 1, 2])):
        prev_ids = [4, 5, 3][:len(rows)]
        before = [a.copy() for a in state_arrays(state)]
        reused = model.step(state, rows, prev_ids)
        with monkeypatch.context() as patch:
            for module in (nnet, seq2seq):
                patch.setattr(module, "same_columns", lambda rows, width: False)
            gathered = model.step(state, rows, prev_ids)
        assert all(map(same_bits, state_arrays(state), before))
        (P, new, alphas), (P_ref, new_ref, alphas_ref) = reused, gathered
        assert same_bits(P, P_ref)
        assert alphas is None if alphas_ref is None else same_bits(alphas, alphas_ref)
        assert len(state_arrays(new)) == len(state_arrays(new_ref))
        assert all(map(same_bits, state_arrays(new), state_arrays(new_ref)))


@pytest.mark.parametrize("kind", ["encdec", "rnnlm"])
def test_greedy_steps_gather_and_tile_nothing(kind, monkeypatch):
    if kind == "encdec":
        model, source = encdec(seed=36), SOURCE
    else:
        model, source = RNNLM(LM_VOCAB, rng=np.random.default_rng(37)), None
    calls = []
    for name in ("take", "hstack"):
        wrapped = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *args, _name=name, _fn=wrapped, **kwargs:
                            calls.append(_name) or _fn(*args, **kwargs))
    hyp = greedy(model, source, max_len=6)
    assert len(hyp.tokens) > 1 and calls == []
    beam_search(model, source, beam_size=3, max_len=6)
    assert "take" in calls      # the beam's later steps do gather


@pytest.mark.parametrize("kind", ["encdec", "rnnlm"])
def test_neural_beam_search_matches_one_column_reference(kind):
    if kind == "encdec":
        model, source = encdec(seed=15, embed_size=4, hidden_size=6), SOURCE
    else:
        model, source = RNNLM(LM_VOCAB, embed_size=4, hidden_size=6,
                              rng=np.random.default_rng(16)), None
    model.b_s.value[C.EOS_ID] += 1.5        # let some hypotheses finish
    for beam_size in range(1, 6):
        fast = beam_search(model, source, beam_size=beam_size, max_len=6)
        ref = reference_beam_search(model, source, beam_size=beam_size, max_len=6)
        assert [h.tokens for h in fast] == [h.tokens for h in ref]
        for f, r in zip(fast, ref):
            assert f.logprob == pytest.approx(r.logprob, rel=NEURAL_TOL, abs=0)
            assert (f.finished, f.truncated) == (r.finished, r.truncated)
            assert f.attention_trace == r.attention_trace


@pytest.mark.parametrize("kind", ["encdec", "rnnlm"])
def test_neural_beam_one_equals_greedy_bitwise(kind):
    for seed in range(4):
        if kind == "encdec":
            model, source = encdec(seed=20 + seed), SOURCE
        else:
            model, source = RNNLM(LM_VOCAB, rng=np.random.default_rng(20 + seed)), None
        model.b_s.value[C.EOS_ID] += 1.0
        g = greedy(model, source, max_len=8)
        b = beam_search(model, source, beam_size=1, max_len=8)[0]
        assert (g.tokens, g.logprob, g.attention_trace) == (b.tokens, b.logprob,
                                                             b.attention_trace)


def trained_loglinear():
    model = LogLinearLM(LM_VOCAB, "prev2_words")
    model.train_sgd(LINES, lr=0.3, epochs=2, rng=np.random.default_rng(13))
    return model


SCORED_MODELS = {
    "ngram": lambda: NGramLM.train(LINES, n=3, alphas=0.2, vocab=LM_VOCAB),
    # "e" and "f" occur once, so the training counts hold the unknown symbol
    "ngram_unk_counts": lambda: NGramLM.train(
        LINES + ["b e", "f a"], n=3, alphas=0.2,
        vocab=C.build_vocab(LINES + ["b e", "f a"], policy="replace_singletons")),
    "loglinear": trained_loglinear,
    "ffnnlm": lambda: FFNNLM(LM_VOCAB, n=3, embed_size=3, hidden_size=5,
                             rng=np.random.default_rng(9)),
    "rnnlm": lambda: RNNLM(LM_VOCAB, embed_size=3, hidden_size=5, layers=2,
                           rng=np.random.default_rng(8)),
    "encdec": lambda: encdec(seed=30, attention="dot", dec_hidden=8),
    "ensemble": lambda: Ensemble([encdec(seed=31, attention="mlp"),
                                  encdec(seed=32, attention="bilinear", layers=2)]),
    "lm_ensemble": lambda: Ensemble([
        RNNLM(LM_VOCAB, embed_size=3, hidden_size=5, rng=np.random.default_rng(33)),
        RNNLM(LM_VOCAB, cell="gru", embed_size=3, hidden_size=4, layers=2,
              rng=np.random.default_rng(34))]),
}


@pytest.mark.parametrize("name", SCORED_MODELS)
def test_corpus_nll_equals_the_decoding_path(name):
    model = SCORED_MODELS[name]()
    if model.src_vocab is not None:
        items = pairs = [(SOURCE, [4, 6, 3, C.EOS_ID]), ([5], [C.EOS_ID]),
                         ([6, 3], [7, 7, C.EOS_ID]), ([4, 4], [C.UNK_ID, 5, C.EOS_ID]),
                         ([3], [6, C.UNK_ID, C.UNK_ID, C.EOS_ID])]
    else:       # the training lines, an unseen order of their words, a blank
        # line and lines with unknown words
        items = [C.encode(model.vocab, line, append_eos=True)
                 for line in LINES + ["d c b a", "", "a zz b", "qq", "c yy xx"]]
        pairs = [(None, ids) for ids in items]
    assert sum(target.count(C.UNK_ID) for _, target in pairs) >= 3
    want = sum(decoding_nll(model, source, target) for source, target in pairs)
    assert model.corpus_nll(items) == pytest.approx(want, rel=1e-12, abs=0)


def test_evaluate_ll_scores_a_language_model_ensemble():
    model = SCORED_MODELS["lm_ensemble"]()
    data = [["a", "zz", "b"], ["c"]]
    report = evaluate_ll(model, data)
    want = -sum(decoding_nll(model, None, C.encode(LM_VOCAB, tokens, append_eos=True))
                for tokens in data)
    assert report.unk_count == 1 and report.word_count == 6
    assert report.total_log_likelihood == pytest.approx(want + report.unk_log_portion,
                                                        rel=1e-12, abs=0)


# ---- batched encoder-decoder scoring ------------------------------------------------

def accepted(encoder, bridge):
    try:
        EncDecModel(SRC, TGT, embed_size=2, hidden_size=2, encoder=encoder, bridge=bridge,
                    dec_hidden=4 if encoder == "bidirectional" else 2)
    except ValueError:
        return False
    return True


ENCODER_BRIDGES = [(encoder, bridge) for encoder, bridge
                   in itertools.product(ENCODER_DIRECTIONS, BRIDGE_KINDS)
                   if accepted(encoder, bridge)]


def scoring_encdec(encoder, bridge, attention, cell="lstm_forget", layers=1):
    """An encoder-decoder whose weights and biases are all moved off their
    initial values, so every source word and every attention weight shows
    in the scores."""
    model = encdec(seed=40, encoder=encoder, bridge=bridge, attention=attention,
                   cell=cell, layers=layers,
                   dec_hidden=8 if encoder == "bidirectional" else 4)
    rng = np.random.default_rng(41)
    for p in model.parameters():
        p.value += rng.uniform(-0.5, 0.5, size=p.value.shape)
        p.changed()
    return model


def scoring_pairs():
    """41 pairs, more than one scoring batch holds, of mixed source and
    target lengths: a one-word source, lone-EOS targets and unknown words
    on both sides among them."""
    rng = np.random.default_rng(42)
    pairs = [([4], [C.EOS_ID]), ([5], [6, 3, C.EOS_ID]),
             ([3, 4, 5, 6, 3, 4], [C.EOS_ID]), ([4, 6], [C.UNK_ID, 5, C.EOS_ID])]
    pairs += [(rng.integers(2, 7, size=rng.integers(1, 7)).tolist(),
               rng.integers(2, 8, size=rng.integers(0, 6)).tolist() + [C.EOS_ID])
              for _ in range(37)]
    return pairs


@pytest.mark.parametrize("layers", (1, 2))
@pytest.mark.parametrize("cell", ("lstm_forget", "gru"))
@pytest.mark.parametrize("attention", ATTENTION_KINDS)
@pytest.mark.parametrize("encoder, bridge", ENCODER_BRIDGES)
def test_batched_corpus_nll_equals_the_one_column_steps(encoder, bridge, attention,
                                                        cell, layers):
    model = scoring_encdec(encoder, bridge, attention, cell, layers)
    pairs = scoring_pairs()
    want = sum(decoding_nll(model, source, target) for source, target in pairs)
    assert model.corpus_nll(pairs) == pytest.approx(want, rel=1e-12, abs=0)
    for source, target in pairs[:4]:
        assert same_bits(model.corpus_nll([(source, target)]),
                         model.sentence_loss(source, target))


@pytest.mark.parametrize("attention", ATTENTION_KINDS)
@pytest.mark.parametrize("encoder, bridge", ENCODER_BRIDGES)
def test_padded_batch_gradients_equal_the_per_pair_sums(encoder, bridge, attention):
    # the batched loss graph is ready for minibatched training: padding
    # sends no gradient anywhere
    model = scoring_encdec(encoder, bridge, attention)
    pairs = scoring_pairs()[:6]
    g = Graph()
    model._loss(g, pairs)
    batched = g.forward()[0, 0]
    g.backward()
    grads = [p.grad.copy() for p in model.parameters()]
    for p in model.parameters():
        p.zero_grad()
    total = 0.0
    for source, target in pairs:
        g = model.loss_graph(source, target)
        total += g.forward()[0, 0]
        g.backward()
    assert batched == pytest.approx(total, rel=1e-12, abs=0)
    for p, grad in zip(model.parameters(), grads):
        assert np.abs(grad - p.grad).max() <= 1e-10 * np.abs(p.grad).max(), p.name


def test_a_batch_with_an_empty_source_or_target_is_rejected():
    model = scoring_encdec("bidirectional", "tanh", "mlp")
    with pytest.raises(ValueError, match="^empty source sentence$"):
        model.corpus_nll([([3, 4], [C.EOS_ID]), ([], [5, C.EOS_ID]), ([4], [C.EOS_ID])])
    # not EOS-terminated: alone or beside other pairs, it is no target
    for pairs in ([([3], [])], [([3], []), ([4], [C.EOS_ID])]):
        with pytest.raises(ValueError, match="^empty target sentence"):
            model.corpus_nll(pairs)


@pytest.mark.parametrize("attention", ["dot", "bilinear", "mlp"])
@pytest.mark.parametrize("encoder, bridge", ENCODER_BRIDGES)
def test_padded_source_words_get_exactly_zero_attention(encoder, bridge, attention):
    model = scoring_encdec(encoder, bridge, attention)
    sources = [[3, 4, 5, 6], [5], [6, 2, 4]]
    with Eager() as e:
        encoding = model._encode_nodes(e, sources)
        model._step_invariants(e, encoding)
        context = np.zeros((model.src_dim, len(sources)))
        _, _, _, alpha = model._step_nodes(e, encoding, [C.BOS_ID] * 3,
                                           encoding.init_layers, context,
                                           encoding.src_proj)
    for b, source in enumerate(sources):
        assert np.all(alpha[len(source):, b] == 0.0)
        _, _, alpha1 = model.step(model.start(source), [0], [C.BOS_ID])
        assert_close(alpha[:len(source), b], alpha1[:, 0], NEURAL_TOL)


def test_corpus_nll_scores_stably_length_sorted_batches(monkeypatch):
    model = scoring_encdec("bidirectional", "tanh", "mlp")
    pairs = scoring_pairs()
    assert sum(target.count(C.UNK_ID) for _, target in pairs) >= 3
    assert len({len(f) for f, _ in pairs}) == len({len(e) for _, e in pairs}) == 6
    batches = []
    loss = EncDecModel._loss
    monkeypatch.setattr(EncDecModel, "_loss",
                        lambda self, g, batch: batches.append(batch) or loss(self, g, batch))
    model.corpus_nll(pairs)
    assert [len(batch) for batch in batches] == [SCORE_BATCH, len(pairs) - SCORE_BATCH]
    assert [pair for batch in batches for pair in batch] == sorted(
        pairs, key=lambda pair: (len(pair[1]), len(pair[0])))
