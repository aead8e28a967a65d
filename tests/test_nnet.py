import math
import zlib

import numpy as np
import pytest

from helpers import (assert_matches_per_gate_reference,
                     assert_matches_per_position_reference, max_gradient_error,
                     parameter_digest, per_gate_model, per_position_batch_loss,
                     same_bits)
from seqbench import corpus as C
from seqbench.autograd import Eager, Graph, NonFiniteError, Parameter
from seqbench.evaluate import evaluate_ll
from seqbench.nnet import (CELL_KINDS, FFNNLM, RNNLM, SCORE_BATCH, RecurrentCell,
                           RecurrentState, StackedRNN, TOY_EQUALITY_DATA,
                           train_lm, train_toy_mlp)
from seqbench.optim import Adam, TrainingDivergence


def zeroed_cell(kind, input_size=1, hidden_size=1):
    cell = RecurrentCell(kind, input_size, hidden_size, np.random.default_rng(0))
    for p in cell.parameters():
        p.value[...] = 0.0
    return cell


def run_one_step(cell, x, h=None, c=None):
    g = Graph()
    state = cell.initial_state(g)
    if h is not None:
        state = RecurrentState(h=g.input(h), c=state.c, batch=1)
    if c is not None:
        state = RecurrentState(h=state.h, c=g.input(c), batch=1)
    new = cell.step(g, g.input(x), state)
    g.forward()
    return new


def test_lstm_zero_weights_hand_values():
    cell = zeroed_cell("lstm")
    new = run_one_step(cell, [0.0], c=[2.0])
    # u = tanh(0) = 0, i = o = sigmoid(0) = 0.5, c = 0.5*0 + 2 = 2
    assert new.c.value[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert new.h.value[0, 0] == pytest.approx(0.5 * math.tanh(2.0), abs=1e-12)


def test_gru_closed_update_gate_keeps_state():
    rng = np.random.default_rng(4)
    cell = RecurrentCell("gru", 2, 3, rng)
    cell.gate("z")["b_z"][...] = -100.0          # z ~ 0: keep previous state
    h_prev = rng.normal(size=(3, 1))
    new = run_one_step(cell, rng.normal(size=(2, 1)), h=h_prev)
    assert np.abs(new.h.value - h_prev).max() < 1e-9


def test_forget_gate_saturated_open():
    rng = np.random.default_rng(5)
    cell = RecurrentCell("lstm_forget", 2, 3, rng)
    cell.gate("f")["b_f"][...] = 100.0           # f ~ 1: cell passes through
    x = rng.normal(size=(2, 1))
    c_prev = rng.normal(size=(3, 1))

    g = Graph()
    state = RecurrentState(h=g.input(np.zeros((3, 1))), c=g.input(c_prev))
    new = cell.step(g, g.input(x), state)
    g.forward()
    gi, gu = cell.gate("i"), cell.gate("u")
    i = 1 / (1 + np.exp(-(gi["W_xi"] @ x + gi["b_i"])))
    u = np.tanh(gu["W_xu"] @ x + gu["b_u"])
    assert np.abs(new.c.value - (i * u + c_prev)).max() < 1e-9


def test_forget_bias_initialized_open():
    cell = RecurrentCell("lstm_forget", 2, 3, np.random.default_rng(0))
    assert (cell.gate("f")["b_f"] == 1.0).all()


def test_lstm_requires_cell_state():
    cell = RecurrentCell("lstm", 1, 1, np.random.default_rng(0))
    g = Graph()
    bad_state = RecurrentState(h=g.input([0.0]), c=None)
    with pytest.raises(ValueError, match="memory-cell"):
        cell.step(g, g.input([0.0]), bad_state)


def test_unknown_cell_kind():
    with pytest.raises(ValueError):
        RecurrentCell("lstm2", 1, 1, np.random.default_rng(0))


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_cell_gradients_three_step_unroll(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    for _ in range(3):
        input_size = int(rng.integers(1, 4))
        hidden = int(rng.integers(1, 6))
        cell = RecurrentCell(kind, input_size, hidden, rng)
        xs = [rng.uniform(-0.8, 0.8, size=(input_size, 1)) for _ in range(3)]
        projection = rng.normal(size=(hidden, 1))

        def build():
            g = Graph()
            state = cell.initial_state(g)
            for x in xs:
                state = cell.step(g, g.input(x), state)
            g.sum(g.cmult(state.h, g.input(projection)))
            return g

        assert max_gradient_error(build, cell.parameters()) < 1e-6


def lstm_no_forget_with_closed_input_gate(rng, hidden):
    cell = RecurrentCell("lstm", hidden, hidden, rng)
    for gate in cell.gates:
        for view in cell.gate(gate).values():
            view[...] = rng.uniform(-0.5, 0.5, size=view.shape)
    cell.gate("i")["b_i"][...] = -100.0
    return cell


def test_lstm_memory_path_gradient_is_one():
    # with the input gate driven shut, d(sum c_T)/d(c_0) stays exactly one
    # across 20 steps, while the vanilla RNN's state gradient dies out
    rng = np.random.default_rng(11)
    hidden, T = 4, 20
    cell = lstm_no_forget_with_closed_input_gate(rng, hidden)
    c0 = Parameter("c0", rng.normal(size=(hidden, 1)))
    xs = [rng.uniform(-0.5, 0.5, size=(hidden, 1)) for _ in range(T)]

    g = Graph()
    state = RecurrentState(h=g.input(np.zeros((hidden, 1))), c=g.param(c0))
    for x in xs:
        state = cell.step(g, g.input(x), state)
    g.sum(state.c)
    g.forward()
    g.backward()
    assert np.abs(c0.grad - 1.0).max() < 1e-6

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
    assert np.abs(h0.grad).max() < 1e-3


def test_stacked_residual_identity():
    stack = StackedRNN("rnn", 3, 3, layers=2, rng=np.random.default_rng(0),
                       residual=True)
    for p in stack.parameters():
        p.value[...] = 0.0
    rng = np.random.default_rng(1)
    g = Graph()
    states = stack.initial_states(g)
    for _ in range(4):
        x = rng.normal(size=(3, 1))
        out, states = stack.step(g, g.input(x), states)
        g.forward()
        assert np.array_equal(out.value, x)


def test_residual_requires_matching_sizes():
    with pytest.raises(ValueError, match="residual"):
        StackedRNN("rnn", 2, 3, layers=1, rng=np.random.default_rng(0),
                   residual=True)


def small_vocab(words="a b c d e"):
    return C.build_vocab([words])


def test_zero_parameter_lms_are_uniform():
    vocab = small_vocab()
    ff = FFNNLM(vocab, n=3, embed_size=4, hidden_size=5)
    rnn = RNNLM(vocab, cell="gru", embed_size=4, hidden_size=5)
    for model in (ff, rnn):
        for p in model.parameters():
            p.value[...] = 0.0
    v = len(vocab)
    P_ff, _, _ = ff.step([(3,)], [0], [4])
    assert np.abs(P_ff[:, 0] - 1 / v).max() < 1e-12
    P, _, _ = rnn.step(rnn.start(), [0], [C.BOS_ID])
    assert np.abs(P[:, 0] - 1 / v).max() < 1e-12


def test_ffnnlm_context_window():
    vocab = small_vocab()
    model = FFNNLM(vocab, n=3, embed_size=4, hidden_size=5,
                   rng=np.random.default_rng(3))
    def next_distribution(context):
        P, _, _ = model.step([tuple(context[:-1])], [0], [context[-1]])
        return P[:, 0]

    base = next_distribution([9 % len(vocab), 3, 4])
    outside = next_distribution([5, 3, 4])       # differs only 3 words back
    inside = next_distribution([5, 3, 5])        # differs at the previous word
    assert np.array_equal(base, outside)
    assert not np.array_equal(base, inside)


def test_batched_loss_equals_sum_of_sentences():
    vocab = small_vocab()
    model = RNNLM(vocab, cell="lstm_forget", embed_size=4, hidden_size=6,
                  rng=np.random.default_rng(9))
    rng = np.random.default_rng(10)
    sents = [[int(i) for i in rng.integers(3, len(vocab), size=rng.integers(1, 7))]
             + [C.EOS_ID] for _ in range(5)]
    separate = sum(model.sentence_nll(s) for s in sents)
    batch = C.make_batches(sents, batch_size=5)[0]
    g = Graph()
    model.batch_loss(g, batch)
    assert g.forward()[0, 0] == pytest.approx(separate, abs=1e-8)


def test_batched_loss_ffnnlm_matches_per_sentence():
    vocab = small_vocab()
    model = FFNNLM(vocab, n=3, embed_size=3, hidden_size=4,
                   rng=np.random.default_rng(2))
    sents = [[3, 4, C.EOS_ID], [5, C.EOS_ID], [6, 3, 4, 5, C.EOS_ID]]
    separate = sum(model.sentence_nll(s) for s in sents)
    batch = C.make_batches(sents, batch_size=3)[0]
    g = Graph()
    model.batch_loss(g, batch)
    assert g.forward()[0, 0] == pytest.approx(separate, abs=1e-8)


@pytest.mark.parametrize("vocab_size", [12, 2000])
def test_batch_loss_matches_per_position_output_layer(vocab_size):
    # B=16 with mixed lengths: padded positions are scored and masked out;
    # at V=2,000 one gemm and T smaller ones may round differently
    vocab = C.build_vocab([" ".join(f"w{i}" for i in range(vocab_size - 3))])
    rng = np.random.default_rng(vocab_size)
    model = RNNLM(vocab, cell="lstm_forget", embed_size=5, hidden_size=8, layers=2,
                  rng=rng)
    for p in model.parameters():
        p.value += rng.uniform(-0.3, 0.3, size=p.value.shape)
    sents = [[int(i) for i in rng.integers(3, len(vocab), size=rng.integers(1, 9))]
             + [C.EOS_ID] for _ in range(16)]
    batch = C.make_batches(sents, 16)[0]
    assert batch.mask.min() == 0.0 and len(set(batch.true_lengths)) > 2

    def loss_graph():
        g = Graph()
        model.batch_loss(g, batch)
        return g

    assert_matches_per_position_reference(
        model, loss_graph, lambda: per_position_batch_loss(model, batch))


def test_all_padding_column_contributes_zero():
    vocab = small_vocab()
    model = RNNLM(vocab, cell="rnn", embed_size=3, hidden_size=4,
                  rng=np.random.default_rng(5))
    batch = C.make_batches([[3, 4, C.EOS_ID]], 1)[0]
    padded = C.MiniBatch(
        token_matrix=np.column_stack([batch.token_matrix[:, 0],
                                      np.full(3, C.EOS_ID)]),
        mask=np.column_stack([batch.mask[:, 0], np.zeros(3)]),
        true_lengths=[3, 0])
    g = Graph()
    model.batch_loss(g, padded)
    assert g.forward()[0, 0] == pytest.approx(model.sentence_nll([3, 4, C.EOS_ID]),
                                              abs=1e-10)


def test_neural_unknown_partition():
    # neural path: the unknown factor is multiplied in per predicted UNK, so
    # stripping it recovers the raw model log-probability exactly
    vocab = small_vocab()
    model = RNNLM(vocab, cell="gru", embed_size=3, hidden_size=4,
                  rng=np.random.default_rng(21))
    tokens = "a zzz b qq".split()
    report = evaluate_ll(model, [tokens])
    assert report.unk_count == 2 and report.word_count == 5
    ids = C.encode(vocab, tokens, append_eos=True)
    assert report.total_log_likelihood - report.unk_log_portion == pytest.approx(
        -model.sentence_nll(ids), abs=1e-12)


def test_rnnlm_learns_alternation():
    vocab = C.build_vocab(["a b"])
    a, b = vocab.id_of("a"), vocab.id_of("b")
    line = [a, b] * 4 + [C.EOS_ID]
    model = RNNLM(vocab, cell="lstm_forget", embed_size=4, hidden_size=8,
                  rng=np.random.default_rng(1))
    opt = Adam(model.parameters(), lr=0.05, clip_norm=5.0)
    train_lm(model, [line] * 4, opt, epochs=40, batch_size=4,
             rng=np.random.default_rng(2))
    P, state, _ = model.step(model.start(), [0], [C.BOS_ID])
    P, state, _ = model.step(state, [0], [a])
    assert P[b, 0] > 0.9


def test_toy_mlp_trains_to_sign_accuracy():
    model, losses = train_toy_mlp(TOY_EQUALITY_DATA, hidden_size=20, lr=0.1,
                                  max_epochs=1000, seed=7)
    assert len(losses) <= 1000
    for x, y in TOY_EQUALITY_DATA:
        assert math.copysign(1, model.predict(x)) == y


def test_toy_mlp_zero_init_fails_random_init_succeeds():
    zero_model, _ = train_toy_mlp(TOY_EQUALITY_DATA, hidden_size=20, lr=0.1,
                                  max_epochs=200, seed=7, zero_init=True)
    zero_correct = sum(math.copysign(1, zero_model.predict(x)) == y
                       for x, y in TOY_EQUALITY_DATA)
    assert zero_correct < 4      # symmetric weights cannot separate

    model, _ = train_toy_mlp(TOY_EQUALITY_DATA, hidden_size=20, lr=0.1,
                             max_epochs=1000, seed=7)
    assert all(math.copysign(1, model.predict(x)) == y
               for x, y in TOY_EQUALITY_DATA)


def test_toy_mlp_overflowing_update_is_named_at_its_parameter_node():
    # lr=1e308 overflows a weight to infinity in the first updates; the next
    # example's graph must report it at that weight's node, not downstream
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergence) as info:
            train_toy_mlp(TOY_EQUALITY_DATA, hidden_size=3, lr=1e308, seed=0)
    assert "(parameter)" in str(info.value.__cause__)


def test_toy_mlp_zero_lr_constant_loss():
    _, losses = train_toy_mlp(TOY_EQUALITY_DATA, hidden_size=8, lr=0.0,
                              max_epochs=5, seed=3)
    assert len(set(losses)) == 1


@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("kind", CELL_KINDS)
def test_stacked_rnnlm_matches_per_gate_reference(kind, layers, residual, batch):
    # hidden sizes that are multiples of 4: see test_stacked_gates_round_alike_at_odd_sizes
    vocab = small_vocab()
    rng = np.random.default_rng(zlib.crc32(f"{kind}{layers}{residual}{batch}".encode()))
    model = RNNLM(vocab, cell=kind, embed_size=8, hidden_size=8, layers=layers,
                  residual=residual, rng=rng)
    for p in model.parameters():      # biases away from zero too
        p.value += rng.uniform(-0.3, 0.3, size=p.value.shape)
    sents = [[int(i) for i in rng.integers(3, len(vocab), size=rng.integers(1, 8))]
             + [C.EOS_ID] for _ in range(batch)]
    minibatch = C.make_batches(sents, batch)[0]

    def loss_graph(m):
        g = Graph()
        m.batch_loss(g, minibatch)
        return g

    assert_matches_per_gate_reference(model, ("rnn",), loss_graph)


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_stacked_gates_round_alike_at_odd_sizes(kind):
    # The BLAS may tile a stacked product's rows differently from one gate's
    # product when the hidden size is not a multiple of its row block (4 on
    # OpenBLAS's Haswell kernel); the gates' pre-activations, and so the
    # losses, may then differ in their last bits.
    vocab = small_vocab()
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    model = RNNLM(vocab, cell=kind, embed_size=17, hidden_size=5, rng=rng)
    ref = per_gate_model(model, ("rnn",))
    ids = [3, 4, 5, 6, 7, C.EOS_ID]
    assert model.sentence_nll(ids) == pytest.approx(ref.sentence_nll(ids), rel=1e-13)


def test_lstm_step_adds_four_computed_nodes():
    cell = RecurrentCell("lstm_forget", 3, 4, np.random.default_rng(0))
    g = Graph()
    state = cell.initial_state(g, batch=2)
    x = g.input(np.ones((3, 2)))
    before = len(g.nodes)
    state = cell.step(g, x, state)
    added = g.nodes[before:]
    assert sum(node.op == "parameter" for node in added) == 3
    assert [node.op for node in added if node.op != "parameter"] == [
        "affine", "lstm", "rows", "rows"]
    before = len(g.nodes)
    cell.step(g, x, state)              # parameters already in the graph
    assert len(g.nodes) - before == 4


def test_nan_in_stacked_bias_is_named_at_its_parameter_node():
    cell = RecurrentCell("lstm_forget", 2, 3, np.random.default_rng(0))
    cell.gate("f")["b_f"][1, 0] = np.nan
    g = Graph()
    x, state = g.input(np.ones((2, 1))), cell.initial_state(g)
    with pytest.raises(NonFiniteError) as raised:
        cell.step(g, x, state)
    # the bias, the one non-finite parameter, would have been the next node
    assert str(raised.value) == f"non-finite value at node {len(g.nodes)} (parameter)"
    assert cell.params["b"] not in [node.param for node in g.nodes]


# ---- corpus scoring in length-sorted batches ------------------------------------------

SCORING_VOCAB = C.build_vocab([" ".join(f"w{i}" for i in range(20))])


def scoring_lms():
    """Every cell kind with one layer and with two residual layers, and the
    feed-forward LM with each nonlinearity."""
    for kind in CELL_KINDS:
        for layers, residual in ((1, False), (2, True)):
            yield f"{kind}-{layers}", lambda kind=kind, layers=layers, residual=residual: RNNLM(
                SCORING_VOCAB, cell=kind, embed_size=6, hidden_size=6, layers=layers,
                residual=residual, rng=np.random.default_rng(layers))
    for nonlinearity in ("tanh", "relu"):
        yield f"ffnnlm-{nonlinearity}", lambda nonlinearity=nonlinearity: FFNNLM(
            SCORING_VOCAB, n=3, embed_size=4, hidden_size=6, nonlinearity=nonlinearity,
            rng=np.random.default_rng(3))


SCORING_LMS = dict(scoring_lms())


def scoring_corpus(count, seed=7):
    """``count`` token lines of 0 to 29 words (a blank line scores as a lone
    EOS) in shuffled length order, with out-of-vocabulary words mixed in."""
    rng = np.random.default_rng(seed)
    words = SCORING_VOCAB.tokens[3:] + ["zzz", "qq"]
    return [[words[i] for i in rng.integers(0, len(words), size=n)]
            for n in rng.permutation(np.arange(count) % 30)]


def per_sentence_sums(model, data):
    """evaluate_ll's four sums from one B=1 ``sentence_nll`` and one
    ``unknown_factor`` per sentence, in data order."""
    total, words, unk_count, unk_logp = 0.0, 0, 0, 0.0
    for tokens in data:
        ids = C.encode(model.vocab, tokens, append_eos=True)
        count, logp = C.unknown_factor(model.vocab, [ids])
        total += -model.sentence_nll(ids) + logp
        words += len(ids)
        unk_count += count
        unk_logp += logp
    return total, words, unk_count, unk_logp


@pytest.mark.parametrize("name", SCORING_LMS)
def test_batched_corpus_score_matches_the_per_sentence_sum(name, monkeypatch):
    model = SCORING_LMS[name]()
    data = scoring_corpus(2 * SCORE_BATCH + 6)
    assert [] in data and max(len(tokens) for tokens in data) == 29
    batches = []
    batch_loss = type(model).batch_loss
    monkeypatch.setattr(type(model), "batch_loss",
                        lambda self, g, batch: batches.append(batch) or
                        batch_loss(self, g, batch))
    report = evaluate_ll(model, data)
    monkeypatch.undo()
    # one eager call per batch, over the sentences stably sorted by length
    assert [batch.size for batch in batches] == [SCORE_BATCH, SCORE_BATCH, 6]
    assert [length for batch in batches for length in batch.true_lengths] == sorted(
        len(tokens) + 1 for tokens in data)
    total, words, unk_count, unk_logp = per_sentence_sums(model, data)
    assert report.total_log_likelihood == pytest.approx(total, rel=1e-12, abs=0)
    assert report.word_count == words
    assert report.unk_count == unk_count > 0
    assert same_bits(report.unk_log_portion, unk_logp)


@pytest.mark.parametrize("name", SCORING_LMS)
def test_one_sentence_corpus_scores_bitwise_as_one_b1_batch(name):
    model = SCORING_LMS[name]()
    for tokens in (["w1", "zzz", "w4"], []):
        ids = C.encode(model.vocab, tokens, append_eos=True)
        with Eager() as e:
            nll = float(model.batch_loss(e, C.make_batches([ids], 1)[0])[0, 0])
        _, unk_logp = C.unknown_factor(model.vocab, [ids])
        assert same_bits(model.sentence_nll(ids), nll)
        report = evaluate_ll(model, [tokens])
        assert same_bits(report.total_log_likelihood, 0.0 + (-nll + unk_logp))
        assert same_bits(report.unk_log_portion, 0.0 + unk_logp)


def test_dev_scores_are_the_batched_corpus_nll():
    model = SCORING_LMS["lstm_forget-1"]()
    dev = [C.encode(SCORING_VOCAB, tokens, append_eos=True)
           for tokens in scoring_corpus(SCORE_BATCH + 3)]
    expected = []
    history = train_lm(model, dev[:4], Adam(model.parameters(), lr=0.01), epochs=2,
                       dev_sentences=dev, rng=np.random.default_rng(0),
                       log=lambda epoch, loss, dev_ll: expected.append(
                           -model.corpus_nll(dev)))
    assert history == expected


def scoring_batch(lengths, seed=11):
    """One batch from ``make_batches`` of EOS-terminated sentences of
    ``lengths`` words each, out-of-vocabulary ids included."""
    rng = np.random.default_rng(seed)
    return C.make_batches([[int(i) for i in rng.integers(2, len(SCORING_VOCAB), size=n)]
                           + [C.EOS_ID] for n in lengths], len(lengths))[0]


def eager_and_graph_batch_loss(model, batch):
    """(eager scoring total, training graph total) of one batch."""
    with Eager() as e:
        eager = float(model.batch_loss(e, batch)[0, 0])
    g = Graph()
    model.batch_loss(g, batch)
    return eager, float(g.forward()[0, 0])


@pytest.mark.parametrize("name", SCORING_LMS)
def test_eager_batch_loss_of_a_padded_batch_is_the_masked_graph_loss(name):
    # the graph steps and scores every padded position and masks it; scoring
    # drops the padding, which may move only the last bits
    model = SCORING_LMS[name]()
    batch = scoring_batch([0, 3, 3, 7, 12, 1, 29])
    assert batch.mask.min() == 0.0
    eager, graph = eager_and_graph_batch_loss(model, batch)
    assert eager == pytest.approx(graph, rel=1e-12, abs=0)


@pytest.mark.parametrize("name", SCORING_LMS)
def test_eager_batch_loss_without_padding_is_the_graph_loss_bitwise(name):
    model = SCORING_LMS[name]()
    for lengths in ([5, 5, 5, 5], [0], [17]):
        eager, graph = eager_and_graph_batch_loss(model, scoring_batch(lengths))
        assert same_bits(eager, graph), lengths


@pytest.mark.parametrize("name", [n for n in SCORING_LMS if not n.startswith("ffnnlm")])
def test_rnnlm_scoring_steps_only_the_live_columns(name, monkeypatch):
    model = SCORING_LMS[name]()
    lengths = [0, 3, 3, 7, 12, 1, 29]
    batch = scoring_batch(lengths)
    widths, picked = [], []
    step, pick = RecurrentCell.step, Eager.pick_neg_log_softmax
    monkeypatch.setattr(RecurrentCell, "step", lambda self, g, x, state: widths.append(
        (x.shape[1], state.h.shape[1], state.batch)) or step(self, g, x, state))
    monkeypatch.setattr(Eager, "pick_neg_log_softmax", lambda self, s, target: picked.append(
        s.shape[1]) or pick(self, s, target))
    with Eager() as e:
        model.batch_loss(e, batch)
    layers = len(model.rnn.cells)
    live = [sum(n + 1 > t for n in lengths) for t in range(max(lengths) + 1)]
    assert widths == [(b, b, b) for b in live for _ in range(layers)]
    assert picked == [sum(batch.true_lengths)]


@pytest.mark.parametrize("name", SCORING_LMS)
def test_corpus_scoring_is_bitwise_for_equal_length_batches(name):
    # a corpus whose one batch is unpadded scores exactly as the masked
    # training graph does
    model = SCORING_LMS[name]()
    data = [["w1", "zzz", "w4", "w9"][i % 4:] + ["w2"] * (i % 4) for i in range(SCORE_BATCH)]
    assert len({len(tokens) for tokens in data}) == 1
    ids = [C.encode(model.vocab, tokens, append_eos=True) for tokens in data]
    (batch,) = C.make_batches(ids, SCORE_BATCH)
    _, graph = eager_and_graph_batch_loss(model, batch)
    assert same_bits(model.corpus_nll(ids), 0.0 + graph)
    report = evaluate_ll(model, data)
    unk_count, unk_logp = C.unknown_factor(model.vocab, ids)
    assert report.unk_count == unk_count > 0
    assert same_bits(report.unk_log_portion, unk_logp)
    assert same_bits(report.total_log_likelihood, -(0.0 + graph) + unk_logp)


# parameters after training on padded batches through the masked training
# graph; a change to training's graphs that moves any parameter bit changes these
TRAINED_DIGESTS = {
    "lstm_forget": "3a75398a04f374cb5bd3d0b8ba45112de9245c94982d8e4b71c4eeef2867154f",
    "gru": "d2849783840e6da6b50e1a48758ca0a99d632d6ed08403bf626771a07475d07c",
}


@pytest.mark.parametrize("cell", TRAINED_DIGESTS)
def test_training_on_padded_batches_is_pinned_bitwise(cell):
    rng = np.random.default_rng(7)
    words = SCORING_VOCAB.tokens[3:] + ["zzz"]
    data = [C.encode(SCORING_VOCAB, [words[i] for i in rng.integers(0, len(words), size=n)],
                     append_eos=True)
            for n in rng.permutation(np.arange(22) % 11)]
    assert any(batch.mask.min() == 0.0 for batch in C.make_batches(data, 4))
    model = RNNLM(SCORING_VOCAB, cell=cell, embed_size=6, hidden_size=6, layers=2,
                  residual=True, rng=np.random.default_rng(5))
    train_lm(model, data, Adam(model.parameters(), lr=0.01), epochs=2,
             dev_sentences=data[:5], batch_size=4, rng=np.random.default_rng(0))
    assert parameter_digest(model) == TRAINED_DIGESTS[cell]
