"""Neural sequence models built on the computation graph.

Contains the recurrent cells (vanilla RNN, LSTM with and without a forget
gate, GRU), stacking with optional residual connections, a feed-forward
n-gram LM, a recurrent LM with masked minibatch training, and the two-input
toy MLP for the equal/unequal function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import Graph, Node, NonFiniteError, Parameter
from .corpus import (BOS_ID, MiniBatch, Vocabulary, encode, make_batches,
                     unknown_factor)
from .optim import EpochTracker, Optimizer, TrainingDivergence

CELL_KINDS = ("rnn", "lstm", "lstm_forget", "gru")


def glorot(rng, rows, cols) -> np.ndarray:
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def embedding_init(rng, rows, cols) -> np.ndarray:
    return rng.uniform(-0.1, 0.1, size=(rows, cols))


@dataclass
class RecurrentState:
    """Hidden state (and memory cell for LSTM kinds) as graph nodes."""

    h: Node
    c: Node | None = None
    batch: int = 1


class RecurrentCell:
    """One recurrent layer; ``step`` appends one time step to a graph."""

    def __init__(self, kind: str, input_size: int, hidden_size: int, rng,
                 name: str = "cell"):
        if kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {kind!r}")
        self.kind = kind
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.name = name
        self.params: dict[str, Parameter] = {}
        gates = {"rnn": ["h"], "lstm": ["u", "i", "o"],
                 "lstm_forget": ["u", "i", "f", "o"],
                 "gru": ["r", "z", "h"]}[kind]
        for gate in gates:
            self._new(f"W_x{gate}", glorot(rng, hidden_size, input_size))
            self._new(f"W_h{gate}", glorot(rng, hidden_size, hidden_size))
            bias = np.zeros((hidden_size, 1))
            if kind == "lstm_forget" and gate == "f":
                bias[...] = 1.0      # start with the forget gate open
            self._new(f"b_{gate}", bias)

    def _new(self, key, value):
        self.params[key] = Parameter(f"{self.name}.{key}", value)

    def parameters(self):
        return list(self.params.values())

    @property
    def has_cell(self) -> bool:
        return self.kind in ("lstm", "lstm_forget")

    def initial_state(self, g: Graph, batch: int = 1) -> RecurrentState:
        zeros = np.zeros((self.hidden_size, batch))
        c = g.input(zeros) if self.has_cell else None
        return RecurrentState(h=g.input(zeros), c=c, batch=batch)

    def _gate(self, g, gate, x, h, activation):
        p = self.params
        pre = g.affine(g.param(p[f"b_{gate}"]), g.param(p[f"W_x{gate}"]), x,
                       g.param(p[f"W_h{gate}"]), h)
        return activation(pre)

    def step(self, g: Graph, x: Node, state: RecurrentState) -> RecurrentState:
        if self.has_cell and state.c is None:
            raise ValueError(f"{self.kind} cell requires a memory-cell state")
        h_prev = state.h
        if self.kind == "rnn":
            h = self._gate(g, "h", x, h_prev, g.tanh)
            return RecurrentState(h=h, batch=state.batch)
        if self.kind in ("lstm", "lstm_forget"):
            u = self._gate(g, "u", x, h_prev, g.tanh)
            i = self._gate(g, "i", x, h_prev, g.sigmoid)
            o = self._gate(g, "o", x, h_prev, g.sigmoid)
            gated_update = g.cmult(i, u)
            if self.kind == "lstm_forget":
                f = self._gate(g, "f", x, h_prev, g.sigmoid)
                c = g.add(gated_update, g.cmult(f, state.c))
            else:
                c = g.add(gated_update, state.c)
            h = g.cmult(o, g.tanh(c))
            return RecurrentState(h=h, c=c, batch=state.batch)
        # gru: candidate state mixed in by the update gate,
        # h = h_prev + z * (h_tilde - h_prev)
        r = self._gate(g, "r", x, h_prev, g.sigmoid)
        z = self._gate(g, "z", x, h_prev, g.sigmoid)
        p = self.params
        h_tilde = g.tanh(g.affine(g.param(p["b_h"]), g.param(p["W_xh"]), x,
                                  g.param(p["W_hh"]), g.cmult(r, h_prev)))
        delta = g.add(h_tilde, g.scale(h_prev, -1.0))
        h = g.add(h_prev, g.cmult(z, delta))
        return RecurrentState(h=h, batch=state.batch)


class StackedRNN:
    """A pile of recurrent cells, optionally with residual connections.

    With residuals each layer's state becomes cell(x) + x, which requires the
    layer input and hidden sizes to match.
    """

    def __init__(self, kind: str, input_size: int, hidden_size: int,
                 layers: int, rng, residual: bool = False, name: str = "rnn"):
        if layers < 1:
            raise ValueError("need at least one layer")
        if residual and input_size != hidden_size:
            raise ValueError("residual connections require input size == hidden size")
        self.residual = residual
        self.hidden_size = hidden_size
        self.cells = []
        for i in range(layers):
            in_size = input_size if i == 0 else hidden_size
            self.cells.append(RecurrentCell(kind, in_size, hidden_size, rng,
                                            name=f"{name}.l{i}"))

    @property
    def kind(self):
        return self.cells[0].kind

    def parameters(self):
        return [p for cell in self.cells for p in cell.parameters()]

    def initial_states(self, g: Graph, batch: int = 1) -> list[RecurrentState]:
        return [cell.initial_state(g, batch) for cell in self.cells]

    def step(self, g: Graph, x: Node, states: list[RecurrentState]):
        """Returns (top-layer output node, new per-layer states)."""
        new_states = []
        inp = x
        for cell, state in zip(self.cells, states):
            new = cell.step(g, inp, state)
            if self.residual:
                new = RecurrentState(h=g.add(new.h, inp), c=new.c, batch=new.batch)
            new_states.append(new)
            inp = new.h
        return inp, new_states


def input_columns(g: Graph, arrays) -> Node:
    """One graph input holding the (n, 1) ``arrays`` side by side."""
    return g.input(arrays[0] if len(arrays) == 1 else np.hstack(arrays))


def stack_layer_states(g: Graph, states) -> list[RecurrentState]:
    """Graph inputs holding B states' per-layer (h, c) columns side by side."""
    return [RecurrentState(h=input_columns(g, [h for h, _ in layer]),
                           c=None if layer[0][1] is None else
                           input_columns(g, [c for _, c in layer]),
                           batch=len(states))
            for layer in zip(*states)]


def split_layer_states(layers: list[RecurrentState]) -> list[list]:
    """Evaluated B-column layer states as B per-column lists of (h, c) arrays."""
    return [[(st.h.value[:, b:b + 1].copy(),
              None if st.c is None else st.c.value[:, b:b + 1].copy())
             for st in layers]
            for b in range(layers[0].batch)]


def _prev_token_rows(batch: MiniBatch) -> np.ndarray:
    """Ids fed at each step: sentence-start first, then the shifted tokens."""
    prev = np.empty_like(batch.token_matrix)
    prev[0, :] = BOS_ID
    prev[1:, :] = batch.token_matrix[:-1, :]
    return prev


class FFNNLM:
    """Feed-forward n-gram LM: embed the n-1 previous words, concatenate,
    one nonlinear hidden layer, then a softmax over the vocabulary."""

    kind = "ffnnlm"

    def __init__(self, vocab: Vocabulary, n: int = 3, embed_size: int = 16,
                 hidden_size: int = 32, nonlinearity: str = "tanh", rng=None):
        if n < 2:
            raise ValueError("feed-forward LM needs order >= 2")
        if nonlinearity not in ("tanh", "relu"):
            raise ValueError(f"unsupported nonlinearity {nonlinearity!r}")
        rng = rng or np.random.default_rng(0)
        self.vocab = vocab
        self.n = n
        self.embed_size = embed_size
        self.hidden_size = hidden_size
        self.nonlinearity = nonlinearity
        v = len(vocab)
        self.M = Parameter("M", embedding_init(rng, embed_size, v))
        self.W_mh = Parameter("W_mh", glorot(rng, hidden_size, embed_size * (n - 1)))
        self.b_h = Parameter("b_h", np.zeros((hidden_size, 1)))
        self.W_hs = Parameter("W_hs", glorot(rng, v, hidden_size))
        self.b_s = Parameter("b_s", np.zeros((v, 1)))

    def parameters(self):
        return [self.M, self.W_mh, self.b_h, self.W_hs, self.b_s]

    def _scores(self, g: Graph, context_cols: list[list[int]]) -> Node:
        """Score columns for a batch of contexts, one list per slot
        (oldest word first), each list holding one id per batch column."""
        blocks = [g.lookup_column(g.param(self.M), ids) for ids in context_cols]
        m = g.concat_rows(*blocks) if len(blocks) > 1 else blocks[0]
        pre = g.affine(g.param(self.b_h), g.param(self.W_mh), m)
        h = g.tanh(pre) if self.nonlinearity == "tanh" else g.relu(pre)
        return g.affine(g.param(self.b_s), g.param(self.W_hs), h)

    def batch_loss(self, g: Graph, batch: MiniBatch) -> Node:
        """Masked total NLL over every position of every column."""
        T, B = batch.token_matrix.shape
        prev = _prev_token_rows(batch)
        # per-position context slots, flattened over (T*B) columns
        slots = []
        for back in range(self.n - 1, 0, -1):     # oldest slot first
            ids = np.full((T, B), BOS_ID, dtype=np.int64)
            if back - 1 < T:
                ids[back - 1:, :] = prev[:T - (back - 1), :]
            slots.append([int(i) for i in ids.reshape(-1)])
        targets = [int(t) for t in batch.token_matrix.reshape(-1)]
        s = self._scores(g, slots)
        losses = g.pick_neg_log_softmax(s, targets)
        masked = g.cmult(losses, g.input(batch.mask.reshape(1, -1)))
        return g.sum(masked)

    def sentence_nll(self, ids) -> float:
        g = Graph()
        loss = self.batch_loss(g, make_batches([list(ids)], 1)[0])
        return float(g.forward()[0, 0])

    # predictor protocol: a state is the rolling window of the n-1 previous ids
    def start(self, source_ids=None):
        if source_ids is not None:
            raise ValueError("language model is unconditional")
        return (BOS_ID,) * (self.n - 1)

    def step(self, states, prev_ids):
        windows = [tuple(state[1:]) + (prev,) for state, prev in zip(states, prev_ids)]
        g = Graph()
        P = g.softmax(self._scores(g, [list(slot) for slot in zip(*windows)]))
        g.forward()
        return P.value, windows, None

    def score_sentence(self, tokens):
        return _score_with_unknown_factor(self, tokens)


class RNNLM:
    """Recurrent LM: embed the previous word, run the stacked cells, softmax."""

    kind = "rnnlm"

    def __init__(self, vocab: Vocabulary, cell: str = "lstm_forget",
                 embed_size: int = 16, hidden_size: int = 32, layers: int = 1,
                 residual: bool = False, rng=None):
        rng = rng or np.random.default_rng(0)
        self.vocab = vocab
        self.embed_size = embed_size
        self.hidden_size = hidden_size
        v = len(vocab)
        self.M = Parameter("M", embedding_init(rng, embed_size, v))
        self.rnn = StackedRNN(cell, embed_size, hidden_size, layers, rng,
                              residual=residual, name="rnn")
        self.W_hs = Parameter("W_hs", glorot(rng, v, hidden_size))
        self.b_s = Parameter("b_s", np.zeros((v, 1)))

    def parameters(self):
        return [self.M] + self.rnn.parameters() + [self.W_hs, self.b_s]

    def batch_loss(self, g: Graph, batch: MiniBatch) -> Node:
        T, B = batch.token_matrix.shape
        prev = _prev_token_rows(batch)
        states = self.rnn.initial_states(g, batch=B)
        masked_rows = []
        for t in range(T):
            x = g.lookup_column(g.param(self.M), [int(i) for i in prev[t]])
            out, states = self.rnn.step(g, x, states)
            s = g.affine(g.param(self.b_s), g.param(self.W_hs), out)
            losses = g.pick_neg_log_softmax(s, [int(i) for i in batch.token_matrix[t]])
            masked_rows.append(g.cmult(losses, g.input(batch.mask[t].reshape(1, -1))))
        total = g.concat_cols(*masked_rows) if len(masked_rows) > 1 else masked_rows[0]
        return g.sum(total)

    def sentence_nll(self, ids) -> float:
        g = Graph()
        loss = self.batch_loss(g, make_batches([list(ids)], 1)[0])
        return float(g.forward()[0, 0])

    # predictor protocol: a state is a list of per-layer (h, c) columns
    def start(self, source_ids=None):
        if source_ids is not None:
            raise ValueError("language model is unconditional")
        return [(np.zeros((self.hidden_size, 1)),
                 np.zeros((self.hidden_size, 1)) if cell.has_cell else None)
                for cell in self.rnn.cells]

    def step(self, states, prev_ids):
        g = Graph()
        layers = stack_layer_states(g, states)
        x = g.lookup_column(g.param(self.M), prev_ids)
        out, layers = self.rnn.step(g, x, layers)
        P = g.softmax(g.affine(g.param(self.b_s), g.param(self.W_hs), out))
        g.forward()
        return P.value, split_layer_states(layers), None

    def score_sentence(self, tokens):
        return _score_with_unknown_factor(self, tokens)


def _score_with_unknown_factor(model, tokens):
    """Neural-path sentence scoring: out-of-vocabulary tokens are predicted as
    the unknown symbol and additionally pay the uniform 1/v_all factor."""
    ids = encode(model.vocab, tokens, append_eos=True)
    logp = -model.sentence_nll(ids)
    unk_count, unk_logp = unknown_factor(model.vocab, ids)
    return logp + unk_logp, len(ids), unk_count, unk_logp


def train_lm(model, train_sentences, optimizer: Optimizer, epochs: int,
             dev_sentences=None, batch_size: int = 8, rng=None, log=None,
             shuffle: bool = True) -> list[float]:
    """Minibatched LM training with dev-driven decay and early stopping.

    Returns the per-epoch dev log-likelihood history (training NLL is used
    when no dev set is given). Raises TrainingDivergence on non-finite loss.
    """
    rng = rng or np.random.default_rng(0)
    sentences = [list(s) for s in train_sentences]
    tracker = EpochTracker(optimizer)
    history = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(sentences)) if shuffle else range(len(sentences))
        shuffled = [sentences[i] for i in order]
        train_loss = 0.0
        for batch in make_batches(shuffled, batch_size):
            g = Graph()
            model.batch_loss(g, batch)
            try:
                value = float(g.forward()[0, 0])
            except NonFiniteError as exc:
                raise TrainingDivergence(str(exc)) from exc
            train_loss += value
            g.backward()
            optimizer.step()
            optimizer.zero_grad()
        if dev_sentences is not None:
            try:
                dev_ll = -sum(model.sentence_nll(s) for s in dev_sentences)
            except NonFiniteError as exc:
                raise TrainingDivergence(str(exc)) from exc
        else:
            dev_ll = -train_loss
        history.append(dev_ll)
        if log is not None:
            log(epoch, train_loss, dev_ll)
        tracker.report(dev_ll)
    tracker.restore_best()
    return history


class ToyMLP:
    """Two-layer perceptron (tanh hidden layer, linear scalar output)."""

    def __init__(self, hidden_size: int = 20, rng=None, zero_init: bool = False):
        rng = rng or np.random.default_rng(0)
        self.W_xh = Parameter("W_xh", np.zeros((hidden_size, 2)) if zero_init
                              else glorot(rng, hidden_size, 2))
        self.b_h = Parameter("b_h", np.zeros((hidden_size, 1)))
        self.w_hy = Parameter("w_hy", np.zeros((1, hidden_size)) if zero_init
                              else glorot(rng, 1, hidden_size))
        self.b_y = Parameter("b_y", np.zeros((1, 1)))

    def parameters(self):
        return [self.W_xh, self.b_h, self.w_hy, self.b_y]

    def _output(self, g: Graph, x) -> Node:
        h = g.tanh(g.affine(g.param(self.b_h), g.param(self.W_xh), g.input(x)))
        return g.affine(g.param(self.b_y), g.param(self.w_hy), h)

    def predict(self, x) -> float:
        g = Graph()
        y = self._output(g, x)
        return float(g.forward()[0, 0])


def train_toy_mlp(data, hidden_size: int = 20, lr: float = 0.1,
                  max_epochs: int = 1000, seed: int = 0, zero_init: bool = False):
    """Fit the two-input equal/unequal function with squared-error SGD.

    Stops as soon as the sign of the output matches every label; returns the
    trained model and the per-epoch total squared-error losses.
    """
    rng = np.random.default_rng(seed)
    model = ToyMLP(hidden_size, rng=rng, zero_init=zero_init)
    data = list(data)
    losses = []
    for _ in range(max_epochs):
        order = rng.permutation(len(data))
        epoch_loss = 0.0
        for i in order:
            x, ystar = data[i]
            g = Graph()
            y = model._output(g, x)
            g.squared_distance(y, g.input([float(ystar)]))
            try:
                value = float(g.forward()[0, 0])
            except NonFiniteError as exc:
                raise TrainingDivergence("toy MLP diverged") from exc
            epoch_loss += value
            if lr > 0:
                g.backward()
                for p in model.parameters():
                    p.value -= lr * p.grad
                    p.changed()
                    p.zero_grad()
        losses.append(epoch_loss)
        if all(math.copysign(1, model.predict(x)) == y for x, y in data):
            break
    return model, losses


TOY_EQUALITY_DATA = [([1, 1], 1), ([-1, 1], -1), ([1, -1], -1), ([-1, -1], 1)]
