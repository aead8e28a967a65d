"""Neural sequence models built on the computation graph.

Contains the recurrent cells (vanilla RNN, LSTM with and without a forget
gate, GRU), stacking with optional residual connections, a feed-forward
n-gram LM, a recurrent LM with masked minibatch training, and the two-input
toy MLP for the equal/unequal function.

Every builder method takes an evaluator ``g``: a :class:`~.autograd.Graph`
when training needs gradients, an :class:`~.autograd.Eager` for decoding,
scoring and prediction, which then hands back plain arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autograd import Eager, Evaluator, Graph, NonFiniteError, Parameter, Value
from .corpus import BOS_ID, MiniBatch, Vocabulary, make_batches
from .optim import EpochTracker, Optimizer, TrainingDivergence, fit
from .search import LanguageModel

CELL_KINDS = ("rnn", "lstm", "lstm_forget", "gru")
# each kind's gates in the order their weights are drawn and stacked
GATES = {"rnn": ("h",), "lstm": ("u", "i", "o"), "lstm_forget": ("u", "i", "f", "o"),
         "gru": ("r", "z", "h")}


def glorot(rng, rows, cols) -> np.ndarray:
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def embedding_init(rng, rows, cols) -> np.ndarray:
    return rng.uniform(-0.1, 0.1, size=(rows, cols))


@dataclass
class RecurrentState:
    """Hidden state (and memory cell for LSTM kinds) as graph nodes, or as
    arrays under :class:`~.autograd.Eager`.

    For the LSTM kinds ``c`` is the n x B memory cell or, with ``c_is_hc``
    (a state a step returned), that step's whole 2n x B ``[h; c]``, whose
    last n rows are the cell; ``lstm`` reads either. ``h`` is the hidden
    state on its own (plus the layer input with residual connections).
    """

    h: Value
    c: Value | None = None
    batch: int = 1
    c_is_hc: bool = False


class RecurrentCell:
    """One recurrent layer; ``step`` appends one time step to a graph.

    The LSTM kinds keep every gate's weights stacked in three parameters,
    ``W_x``, ``W_h`` and ``b``, whose n-row blocks are the gates in ``gates``
    order, so a step is one ``affine`` for all gates, one ``lstm`` node and
    one ``rows`` node for ``h``; the next step reads the cell from the
    ``lstm`` node's ``[h; c]``, which the state keeps as its ``c``.
    The GRU stacks its r and z gates the same way and keeps its candidate's
    ``W_xh``, ``W_hh`` and ``b_h`` apart, because the candidate reads
    r*h_prev; the vanilla RNN has only those three. :meth:`gate` views one
    gate's rows under the per-gate names model files use.
    """

    def __init__(self, kind: str, input_size: int, hidden_size: int, rng,
                 name: str = "cell"):
        if kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {kind!r}")
        self.kind = kind
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.name = name
        self.params: dict[str, Parameter] = {}
        self.gates = GATES[kind]
        # the RNN's and GRU's last gate, the candidate h, keeps tensors of its own
        self.stacked = self.gates[:-1] if kind in ("rnn", "gru") else self.gates
        # drawn gate by gate, W_x then W_h, whatever the layout
        drawn = {gate: (glorot(rng, hidden_size, input_size),
                        glorot(rng, hidden_size, hidden_size))
                 for gate in self.gates}
        if self.stacked:
            self._new("W_x", np.vstack([drawn[gate][0] for gate in self.stacked]))
            self._new("W_h", np.vstack([drawn[gate][1] for gate in self.stacked]))
            self._new("b", np.zeros((len(self.stacked) * hidden_size, 1)))
        for gate in self.gates[len(self.stacked):]:
            self._new(f"W_x{gate}", drawn[gate][0])
            self._new(f"W_h{gate}", drawn[gate][1])
            self._new(f"b_{gate}", np.zeros((hidden_size, 1)))
        if kind == "lstm_forget":
            self.gate("f")["b_f"][...] = 1.0      # start with the forget gate open

    def _new(self, key, value):
        self.params[key] = Parameter(f"{self.name}.{key}", value)

    def parameters(self):
        return list(self.params.values())

    def gate(self, gate: str) -> dict[str, np.ndarray]:
        """Views of one gate's rows of the weights and bias, keyed
        ``W_x<gate>``, ``W_h<gate>`` and ``b_<gate>``.

        Writes through the views write the parameters; after the parameters
        have been in a graph, follow such a write with their ``changed()``.
        """
        if gate not in self.gates:
            raise ValueError(f"{self.kind} cell has no gate {gate!r}")
        p = self.params
        if gate in self.stacked:
            start = self.stacked.index(gate) * self.hidden_size
            rows = slice(start, start + self.hidden_size)
            tensors = p["W_x"], p["W_h"], p["b"]
        else:
            rows = slice(None)
            tensors = p[f"W_x{gate}"], p[f"W_h{gate}"], p[f"b_{gate}"]
        return {key: t.value[rows] for key, t in
                zip((f"W_x{gate}", f"W_h{gate}", f"b_{gate}"), tensors)}

    @property
    def has_cell(self) -> bool:
        return self.kind in ("lstm", "lstm_forget")

    def initial_state(self, g: Evaluator, batch: int = 1) -> RecurrentState:
        zeros = np.zeros((self.hidden_size, batch))
        c = g.input(zeros) if self.has_cell else None
        return RecurrentState(h=g.input(zeros), c=c, batch=batch)

    def _affine(self, g, keys, x, h):
        w_x, w_h, b = (g.param(self.params[key]) for key in keys)
        return g.affine(b, w_x, x, w_h, h)

    def step(self, g: Evaluator, x: Value, state: RecurrentState) -> RecurrentState:
        if self.has_cell and state.c is None:
            raise ValueError(f"{self.kind} cell requires a memory-cell state")
        h_prev, n = state.h, self.hidden_size
        if self.kind == "rnn":
            h = g.tanh(self._affine(g, ("W_xh", "W_hh", "b_h"), x, h_prev))
            return RecurrentState(h=h, batch=state.batch)
        pre = self._affine(g, ("W_x", "W_h", "b"), x, h_prev)
        if self.has_cell:
            hc = g.lstm(pre, state.c, forget=self.kind == "lstm_forget",
                        c_is_hc=state.c_is_hc)
            return RecurrentState(h=g.rows(hc, 0, n), c=hc, batch=state.batch,
                                  c_is_hc=True)
        # gru: candidate state mixed in by the update gate,
        # h = h_prev + z * (h_tilde - h_prev)
        rz = g.sigmoid(pre)
        r, z = g.rows(rz, 0, n), g.rows(rz, n, 2 * n)
        h_tilde = g.tanh(self._affine(g, ("W_xh", "W_hh", "b_h"), x,
                                      g.cmult(r, h_prev)))
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

    def initial_states(self, g: Evaluator, batch: int = 1) -> list[RecurrentState]:
        return [cell.initial_state(g, batch) for cell in self.cells]

    def step(self, g: Evaluator, x: Value, states: list[RecurrentState]):
        """Returns (top-layer output node, new per-layer states)."""
        new_states = []
        inp = x
        for cell, state in zip(self.cells, states):
            new = cell.step(g, inp, state)
            if self.residual:
                new = replace(new, h=g.add(new.h, inp))
            new_states.append(new)
            inp = new.h
        return inp, new_states


def same_columns(rows, width: int) -> bool:
    """True when ``rows`` lists each of ``width`` columns once, in order, so
    that gathering them would copy a state unchanged."""
    return len(rows) == width and all(r == i for i, r in enumerate(rows))


def gather_layer_states(layers: list[RecurrentState], rows) -> list[RecurrentState]:
    """The columns ``rows`` of eagerly evaluated layer states, in that order;
    of an LSTM state's ``[h; c]`` only the cell rows are gathered.

    When ``rows`` are the states' own columns in order (:func:`same_columns`)
    the states are returned as they are, an LSTM layer's ``[h; c]`` still
    marked ``c_is_hc``. Otherwise ``np.take`` returns C-contiguous arrays,
    the layout the decoder's BLAS products had when hypotheses kept one
    column each and were stacked with ``np.hstack``; ``x[:, rows]`` would
    return F-ordered ones, whose products may round differently.
    """
    if same_columns(rows, layers[0].h.shape[1]):
        return layers
    return [RecurrentState(h=np.take(st.h, rows, axis=1),
                           c=None if st.c is None
                           else np.take(st.c[-len(st.h):], rows, axis=1),
                           batch=len(rows))
            for st in layers]


def file_tensor_views(params, stacks) -> dict[str, np.ndarray]:
    """Name -> array of every tensor a model file holds, in file order: each
    of ``params``, except that the cells of ``stacks`` (None entries are
    skipped) appear as the per-gate views of :meth:`RecurrentCell.gate`, gate
    by gate, where their first parameter stands."""
    cells = {id(p): cell for stack in stacks if stack is not None
             for cell in stack.cells for p in cell.parameters()}
    views = {}
    for p in params:
        cell = cells.get(id(p))
        if cell is None:
            views[p.name] = p.value
        elif p is cell.parameters()[0]:
            for gate in cell.gates:
                views.update((f"{cell.name}.{key}", view)
                             for key, view in cell.gate(gate).items())
    return views


def _prev_token_rows(batch: MiniBatch) -> np.ndarray:
    """Ids fed at each step: sentence-start first, then the shifted tokens."""
    prev = np.empty_like(batch.token_matrix)
    prev[0, :] = BOS_ID
    prev[1:, :] = batch.token_matrix[:-1, :]
    return prev


# sentences, or encoder-decoder pairs, per eager batch when a neural model
# scores a corpus
SCORE_BATCH = 32


class NeuralLM(LanguageModel):
    """Scoring shared by the neural LMs, through their ``batch_loss``."""

    def corpus_nll(self, sentences) -> float:
        """Total NLL of EOS-terminated id sequences: stably length-sorted
        batches of up to ``SCORE_BATCH``, one eager ``batch_loss`` each,
        which scores only the batch's real positions, not its padding.

        Batching changes how each column's products are blocked, so the
        total may differ from a per-sentence sum in the last bits.
        """
        with Eager() as e:
            return sum(float(self.batch_loss(e, batch)[0, 0])
                       for batch in make_batches(sentences, SCORE_BATCH))

    def sentence_nll(self, ids) -> float:
        return self.corpus_nll([list(ids)])


class FFNNLM(NeuralLM):
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

    @property
    def hparams(self) -> dict:
        return {"embed_size": self.embed_size, "hidden_size": self.hidden_size,
                "n": self.n, "nonlinearity": self.nonlinearity}

    def file_tensors(self) -> dict[str, np.ndarray]:
        return file_tensor_views(self.parameters(), [])

    def _scores(self, g: Evaluator, context_cols: list[list[int]]) -> Value:
        """Score columns for a batch of contexts, one list per slot
        (oldest word first), each list holding one id per batch column."""
        blocks = [g.lookup_column(g.param(self.M), ids) for ids in context_cols]
        m = g.concat_rows(*blocks) if len(blocks) > 1 else blocks[0]
        pre = g.affine(g.param(self.b_h), g.param(self.W_mh), m)
        h = g.tanh(pre) if self.nonlinearity == "tanh" else g.relu(pre)
        return g.affine(g.param(self.b_s), g.param(self.W_hs), h)

    def batch_loss(self, g: Evaluator, batch: MiniBatch) -> Value:
        """Total NLL over the real positions of every column.

        Positions are the columns of one score matrix, t-major (the order of
        ``token_matrix.reshape(-1)``). A :class:`~.autograd.Graph` scores
        every position and masks the padding with one ``cmult``; under
        :class:`~.autograd.Eager` the padded windows are dropped before the
        lookups, and no mask is applied.
        """
        T, B = batch.token_matrix.shape
        prev = _prev_token_rows(batch)
        scoring = isinstance(g, Eager)
        real = np.flatnonzero(batch.mask.reshape(-1)) if scoring else slice(None)
        # per-position context slots, flattened over the kept columns
        slots = []
        for back in range(self.n - 1, 0, -1):     # oldest slot first
            ids = np.full((T, B), BOS_ID, dtype=np.int64)
            if back - 1 < T:
                ids[back - 1:, :] = prev[:T - (back - 1), :]
            slots.append(ids.reshape(-1)[real])
        s = self._scores(g, slots)
        losses = g.pick_neg_log_softmax(s, batch.token_matrix.reshape(-1)[real])
        if not scoring:
            losses = g.cmult(losses, g.input(batch.mask.reshape(1, -1)))
        return g.sum(losses)

    def next_distributions(self, histories) -> np.ndarray:
        """One eager batch of each history's last n-1 ids, start-padded."""
        pad = (BOS_ID,) * (self.n - 1)
        windows = [(pad + history)[-(self.n - 1):] for history in histories]
        with Eager() as e:
            return e.softmax(self._scores(e, [list(slot) for slot in zip(*windows)]))


class RNNLM(NeuralLM):
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
                              residual=bool(residual), name="rnn")
        self.W_hs = Parameter("W_hs", glorot(rng, v, hidden_size))
        self.b_s = Parameter("b_s", np.zeros((v, 1)))

    def parameters(self):
        return [self.M] + self.rnn.parameters() + [self.W_hs, self.b_s]

    @property
    def hparams(self) -> dict:
        return {"embed_size": self.embed_size, "hidden_size": self.hidden_size,
                "cell": self.rnn.kind, "layers": len(self.rnn.cells),
                "residual": int(self.rnn.residual)}

    def file_tensors(self) -> dict[str, np.ndarray]:
        return file_tensor_views(self.parameters(), [self.rnn])

    def batch_loss(self, g: Evaluator, batch: MiniBatch) -> Value:
        """Total NLL over the real positions of every column.

        The step loop only collects each step's top hidden states; after it,
        one ``affine`` scores them as the columns of one matrix, t-major, and
        one ``pick_neg_log_softmax`` takes every target's loss.

        A :class:`~.autograd.Graph` steps all B columns to the end and masks
        the padded positions with one ``cmult``, which keeps training's
        gradients as they were. Under :class:`~.autograd.Eager` (scoring) a
        column is dropped from the layer states once its sentence has ended,
        so each step runs only the live columns (a suffix of a batch from
        :func:`~.corpus.make_batches`, sorted by length), the output layer
        sees only real positions and no mask is applied. A batch without
        padding is scored by the same ops either way, less the mask.
        """
        T, B = batch.token_matrix.shape
        prev = _prev_token_rows(batch)
        lengths = np.asarray(batch.true_lengths)
        scoring = isinstance(g, Eager)
        live = np.arange(B)
        states = self.rnn.initial_states(g, batch=B)
        outputs, targets = [], []
        for t in range(T):
            if scoring:
                keep = np.flatnonzero(lengths[live] > t)
                if len(keep) < len(live):
                    states = gather_layer_states(states, keep)
                    live = live[keep]
            x = g.lookup_column(g.param(self.M), prev[t, live])
            out, states = self.rnn.step(g, x, states)
            outputs.append(out)
            targets.append(batch.token_matrix[t, live])
        X = g.concat_cols(*outputs) if T > 1 else outputs[0]
        s = g.affine(g.param(self.b_s), g.param(self.W_hs), X)
        losses = g.pick_neg_log_softmax(s, np.concatenate(targets))
        if not scoring:
            losses = g.cmult(losses, g.input(batch.mask.reshape(1, -1)))
        return g.sum(losses)

    # predictor protocol: a state is the per-layer states, one column per
    # hypothesis; they came out of checked ops and enter the next step as they are
    def start(self, source_ids=None):
        super().start(source_ids)
        with Eager() as e:
            return self.rnn.initial_states(e)

    def step(self, state, rows, prev_ids):
        with Eager() as e:
            x = e.lookup_column(e.param(self.M), prev_ids)
            out, layers = self.rnn.step(e, x, gather_layer_states(state, rows))
            P = e.softmax(e.affine(e.param(self.b_s), e.param(self.W_hs), out))
        return P, layers, None


def train_lm(model, train_sentences, optimizer: Optimizer, epochs: int,
             dev_sentences=None, batch_size: int = 8, rng=None, log=None,
             shuffle: bool = True) -> list[float]:
    """Minibatched LM training over :func:`optim.fit`; returns its per-epoch
    dev log-likelihoods (negated training NLL when no dev set is given)."""

    def train_epoch(sentences):
        train_loss = 0.0
        for batch in make_batches(sentences, batch_size):
            with Graph() as g:
                model.batch_loss(g, batch)
            train_loss += float(g.forward()[0, 0])
            g.backward()
            optimizer.step()
            optimizer.zero_grad()
        return train_loss

    dev_ll = (None if dev_sentences is None else
              lambda: -model.corpus_nll(dev_sentences))
    return fit([list(s) for s in train_sentences], train_epoch,
               EpochTracker(optimizer), epochs, dev_ll, rng=rng, shuffle=shuffle,
               log=log)


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

    def _output(self, g: Evaluator, x) -> Value:
        h = g.tanh(g.affine(g.param(self.b_h), g.param(self.W_xh), g.input(x)))
        return g.affine(g.param(self.b_y), g.param(self.w_hy), h)

    def predict(self, x) -> float:
        with Eager() as e:
            return float(self._output(e, x)[0, 0])


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
            try:
                with Graph() as g:
                    g.squared_distance(model._output(g, x), g.input([float(ystar)]))
            except NonFiniteError as exc:
                raise TrainingDivergence("toy MLP diverged") from exc
            epoch_loss += float(g.forward()[0, 0])
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
