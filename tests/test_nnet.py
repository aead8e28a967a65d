import math
import zlib

import numpy as np
import pytest

from helpers import max_gradient_error
from seqbench import corpus as C
from seqbench.autograd import Graph, Parameter
from seqbench.nnet import (CELL_KINDS, FFNNLM, RNNLM, RecurrentCell,
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
    cell.params["b_z"].value[...] = -100.0       # z ~ 0: keep previous state
    h_prev = rng.normal(size=(3, 1))
    new = run_one_step(cell, rng.normal(size=(2, 1)), h=h_prev)
    assert np.abs(new.h.value - h_prev).max() < 1e-9


def test_forget_gate_saturated_open():
    rng = np.random.default_rng(5)
    cell = RecurrentCell("lstm_forget", 2, 3, rng)
    cell.params["b_f"].value[...] = 100.0        # f ~ 1: cell passes through
    x = rng.normal(size=(2, 1))
    c_prev = rng.normal(size=(3, 1))

    g = Graph()
    state = RecurrentState(h=g.input(np.zeros((3, 1))), c=g.input(c_prev))
    new = cell.step(g, g.input(x), state)
    g.forward()
    i = 1 / (1 + np.exp(-(cell.params["W_xi"].value @ x + cell.params["b_i"].value)))
    u = np.tanh(cell.params["W_xu"].value @ x + cell.params["b_u"].value)
    assert np.abs(new.c.value - (i * u + c_prev)).max() < 1e-9


def test_forget_bias_initialized_open():
    cell = RecurrentCell("lstm_forget", 2, 3, np.random.default_rng(0))
    assert (cell.params["b_f"].value == 1.0).all()


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
    for key, p in cell.params.items():
        p.value[...] = rng.uniform(-0.5, 0.5, size=p.value.shape)
    cell.params["b_i"].value[...] = -100.0
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
    P_ff, _, _ = ff.step([(C.BOS_ID, 3)], [4])
    assert np.abs(P_ff[:, 0] - 1 / v).max() < 1e-12
    P, _, _ = rnn.step([rnn.start()], [C.BOS_ID])
    assert np.abs(P[:, 0] - 1 / v).max() < 1e-12


def test_ffnnlm_context_window():
    vocab = small_vocab()
    model = FFNNLM(vocab, n=3, embed_size=4, hidden_size=5,
                   rng=np.random.default_rng(3))
    def next_distribution(context):
        P, _, _ = model.step([tuple(context[:-1])], [context[-1]])
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
    logp, n, unk, unk_logp = model.score_sentence(tokens)
    assert unk == 2 and n == 5
    ids = C.encode(vocab, tokens, append_eos=True)
    assert logp - unk_logp == pytest.approx(-model.sentence_nll(ids), abs=1e-12)


def test_rnnlm_learns_alternation():
    vocab = C.build_vocab(["a b"])
    a, b = vocab.id_of("a"), vocab.id_of("b")
    line = [a, b] * 4 + [C.EOS_ID]
    model = RNNLM(vocab, cell="lstm_forget", embed_size=4, hidden_size=8,
                  rng=np.random.default_rng(1))
    opt = Adam(model.parameters(), lr=0.05, clip_norm=5.0)
    train_lm(model, [line] * 4, opt, epochs=40, batch_size=4,
             rng=np.random.default_rng(2))
    P, states, _ = model.step([model.start()], [C.BOS_ID])
    P, states, _ = model.step(states, [a])
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
