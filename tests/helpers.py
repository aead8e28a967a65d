"""Shared test oracles: central finite differences against analytic gradients,
the two-pass pick_neg_log_softmax formula, per-column attention scoring, the
per-gate recurrent cell, the per-position output layer, graph-built
references for the eager evaluator, forced decoding for scoring, and
brute-force and sort-everything references for search."""

import copy
import hashlib
import math
import zlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from seqbench.autograd import Graph, Parameter
from seqbench.corpus import BOS_ID, make_batches
from seqbench.nnet import RecurrentState, _prev_token_rows
from seqbench.search import Hypothesis, _rescore, _trace_entries, default_max_len
from seqbench.seq2seq import PAD_SCORE, SourceEncoding


def rel_error(a: float, b: float, floor: float = 1e-3) -> float:
    """Relative error with an absolute floor so near-zero gradients compare
    at absolute scale instead of amplifying rounding noise."""
    return abs(a - b) / max(abs(a), abs(b), floor)


def fd_gradients(build_loss, params, h: float = 1e-5):
    """Central finite differences of ``build_loss`` w.r.t. every param entry.

    ``build_loss`` must construct a fresh graph from the current parameter
    values and return its scalar loss value.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        flat_v = p.value.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_v.size):
            orig = flat_v[i]
            flat_v[i] = orig + h
            up = float(build_loss())
            flat_v[i] = orig - h
            down = float(build_loss())
            flat_v[i] = orig
            flat_g[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def analytic_gradients(build_graph, params):
    for p in params:
        p.zero_grad()
    graph = build_graph()
    graph.forward()
    graph.backward()
    return [p.grad.copy() for p in params]


def max_gradient_error(build_graph, params, h: float = 1e-5) -> float:
    """Worst relative error between analytic and finite-difference gradients."""
    analytic = analytic_gradients(build_graph, params)
    numeric = fd_gradients(lambda: build_graph().forward()[0, 0], params, h=h)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        for x, y in zip(a.reshape(-1), n.reshape(-1)):
            worst = max(worst, rel_error(x, y))
    return worst


def random_params(rng, shapes, scale=0.5, prefix="p"):
    return [Parameter(f"{prefix}{i}", rng.uniform(-scale, scale, size=shape))
            for i, shape in enumerate(shapes)]


# builders for per-op gradient checks: name -> fn(graph, params) -> output node
OP_GRADCHECK_CASES = {
    "matmul": lambda g, ps: g.matmul(g.param(ps[0]), g.param(ps[1])),
    "add": lambda g, ps: g.add(g.param(ps[0]), g.param(ps[1])),
    "add_broadcast": lambda g, ps: g.add(g.param(ps[0]), g.param(ps[1])),
    "cmult": lambda g, ps: g.cmult(g.param(ps[0]), g.param(ps[1])),
    "tanh": lambda g, ps: g.tanh(g.param(ps[0])),
    "sigmoid": lambda g, ps: g.sigmoid(g.param(ps[0])),
    "relu": lambda g, ps: g.relu(g.param(ps[0])),
    "softmax": lambda g, ps: g.softmax(g.param(ps[0])),
    "concat_rows": lambda g, ps: g.concat_rows(*[g.param(p) for p in ps]),
    "concat_cols": lambda g, ps: g.concat_cols(*[g.param(p) for p in ps]),
    "transpose": lambda g, ps: g.transpose(g.param(ps[0])),
    # (n, m) refilled column-major as (m, n)
    "reshape": lambda g, ps: g.reshape(g.param(ps[0]), *ps[0].value.shape[::-1]),
    "lookup_column": lambda g, ps: g.lookup_column(g.param(ps[0]), [1, 0, 1]),
    # repeated ids into a computed matrix rather than a parameter
    "lookup_column_computed": lambda g, ps: g.lookup_column(
        g.tanh(g.param(ps[0])), [1, 0, 1]),
    # one id at a time, counted from either end: both add into column 2
    "lookup_column_one_id": lambda g, ps: g.add(g.lookup_column(g.param(ps[0]), 2),
                                                g.lookup_column(g.param(ps[0]), -1)),
    "scale": lambda g, ps: g.scale(g.param(ps[0]), 1.7),
    "affine": lambda g, ps: g.affine(*[g.param(p) for p in ps]),
    "lstm": lambda g, ps: padding_masked(g, g.lstm(g.param(ps[0]), g.param(ps[1])),
                                         (2 * ps[1].value.shape[0], ps[1].value.shape[1])),
    "lstm_no_forget": lambda g, ps: padding_masked(
        g, g.lstm(g.param(ps[0]), g.param(ps[1]), forget=False),
        (2 * ps[1].value.shape[0], ps[1].value.shape[1])),
    # the second step reads its memory cell from the first step's [h; c]
    "lstm_chain": lambda g, ps: padding_masked(
        g, g.lstm(g.param(ps[2]), g.lstm(g.param(ps[0]), g.param(ps[1])), c_is_hc=True),
        (2 * ps[1].value.shape[0], ps[1].value.shape[1])),
    "rows": lambda g, ps: padding_masked(g, overlapping_rows(g, g.tanh(g.param(ps[0]))),
                                         (2, ps[0].value.shape[1])),
    "batch_dot": lambda g, ps: g.batch_dot(g.param(ps[0]), g.param(ps[1])),
    "attend": lambda g, ps: g.attend(g.param(ps[0]), g.param(ps[1])),
    "padded_attention": lambda g, ps: padded_attention(g, g.param(ps[0]),
                                                       g.param(ps[1])),
}


def overlapping_rows(g, node):
    """Rows 0:2 plus rows 1:3 of ``node``: two slices add into its gradient."""
    return g.add(g.rows(node, 0, 2), g.rows(node, 1, 3))


def padding_masked(g, node, shape):
    """``node``, of ``shape``, times a mask that zeroes its last column, as a
    padded position of a minibatch is masked."""
    mask = np.ones(shape)
    mask[:, -1] = 0.0
    return g.cmult(node, g.input(mask))


def padded_attention(g, keys, queries):
    """The contexts of masked attention over a padded batch: column 0's
    source fills all S key rows, column 1's only the first, and any further
    columns' all but the last."""
    batch = queries.shape[1]
    length = keys.shape[1] // batch
    lengths = [length, 1] + [length - 1] * (batch - 2)
    mask = [[0.0 if t < n else PAD_SCORE for n in lengths] for t in range(length)]
    alpha = g.softmax(g.add(g.batch_dot(keys, queries), g.input(mask)))
    return g.attend(keys, alpha)


def op_gradcheck_shapes(name, rng):
    n, m, k = rng.integers(2, 5, size=3)
    if name == "matmul":
        return [(n, m), (m, k)]
    if name in ("add", "cmult"):
        return [(n, m), (n, m)]
    if name == "add_broadcast":
        return [(n, 1), (n, m)]
    if name == "concat_rows":
        return [(n, m), (k, m)]
    if name == "concat_cols":
        return [(n, m), (n, k)]
    if name.startswith("lookup_column"):
        return [(n, 3)]
    if name == "affine":    # bias broadcast across m >= 2 columns, two terms
        return [(n, 1), (n, k), (k, m), (n, m), (m, m)]
    if name == "lstm_chain":        # two steps' gates and the first step's cell
        return [(4 * n, m), (n, m), (4 * n, m)]
    if name.startswith("lstm"):     # stacked gates and the memory cell, m columns
        return [((3 if name.endswith("no_forget") else 4) * n, m), (n, m)]
    if name == "rows":
        return [(n + 3, m)]
    if name in ("batch_dot", "padded_attention"):     # S = m keys per column
        return [(n, m * k), (n, k)]
    if name == "attend":
        return [(n, m * k), (m, k)]
    return [(n, m)]


def run_op_gradcheck(name, trials=50):
    """Worst analytic-vs-finite-difference error over random instances of one op."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    worst = 0.0
    for _ in range(trials):
        shapes = op_gradcheck_shapes(name, rng)
        params = random_params(rng, shapes, scale=0.6)
        g0 = Graph()
        OP_GRADCHECK_CASES[name](g0, params)
        projection = rng.normal(size=g0.forward().shape)

        def build():
            g = Graph()
            out = OP_GRADCHECK_CASES[name](g, params)
            g.sum(g.cmult(out, g.input(projection)))
            return g

        worst = max(worst, max_gradient_error(build, params))
    return worst


class PerGateCell:
    """Reference recurrent cell: every gate its own ``affine`` and
    activation, the cell state built from ``cmult`` and ``add`` nodes.

    Holds copies of a :class:`~seqbench.nnet.RecurrentCell`'s values as one
    parameter per gate tensor, named as in model files.
    """

    def __init__(self, cell):
        self.kind = cell.kind
        self.hidden_size = cell.hidden_size
        self.gates = cell.gates
        self.name = cell.name
        self.params = {key: Parameter(f"{cell.name}.{key}", view)
                       for gate in cell.gates for key, view in cell.gate(gate).items()}

    def parameters(self):
        return list(self.params.values())

    @property
    def has_cell(self) -> bool:
        return self.kind in ("lstm", "lstm_forget")

    def initial_state(self, g, batch=1):
        zeros = np.zeros((self.hidden_size, batch))
        c = g.input(zeros) if self.has_cell else None
        return RecurrentState(h=g.input(zeros), c=c, batch=batch)

    def _gate(self, g, gate, x, h, activation):
        p = self.params
        pre = g.affine(g.param(p[f"b_{gate}"]), g.param(p[f"W_x{gate}"]), x,
                       g.param(p[f"W_h{gate}"]), h)
        return activation(pre)

    def step(self, g, x, state):
        h_prev = state.h
        if self.kind == "rnn":
            h = self._gate(g, "h", x, h_prev, g.tanh)
            return RecurrentState(h=h, batch=state.batch)
        if self.has_cell:
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
        r = self._gate(g, "r", x, h_prev, g.sigmoid)
        z = self._gate(g, "z", x, h_prev, g.sigmoid)
        p = self.params
        h_tilde = g.tanh(g.affine(g.param(p["b_h"]), g.param(p["W_xh"]), x,
                                  g.param(p["W_hh"]), g.cmult(r, h_prev)))
        delta = g.add(h_tilde, g.scale(h_prev, -1.0))
        h = g.add(h_prev, g.cmult(z, delta))
        return RecurrentState(h=h, batch=state.batch)


def per_gate_model(model, stacks):
    """A deep copy of ``model`` whose recurrent cells, in the attributes
    named by ``stacks``, are :class:`PerGateCell` references."""
    ref = copy.deepcopy(model)
    for attr in stacks:
        stack = getattr(ref, attr)
        if stack is not None:
            stack.cells = [PerGateCell(cell) for cell in stack.cells]
    return ref


def per_gate_gradients(model, stacks) -> dict:
    """Name -> gradient of every tensor of ``model``, each recurrent cell's
    gradients split per gate and named as in model files."""
    cells = [cell for attr in stacks if getattr(model, attr) is not None
             for cell in getattr(model, attr).cells]
    in_cells = {id(p) for cell in cells for p in cell.parameters()}
    grads = {p.name: p.grad for p in model.parameters() if id(p) not in in_cells}
    for cell in cells:
        if isinstance(cell, PerGateCell):
            grads.update((f"{cell.name}.{key}", p.grad) for key, p in cell.params.items())
            continue
        twin = copy.copy(cell)      # whose gate() views the gradients
        twin.params = {key: SimpleNamespace(value=p.grad) for key, p in cell.params.items()}
        grads.update((f"{cell.name}.{key}", view)
                     for gate in cell.gates for key, view in twin.gate(gate).items())
    return grads


def assert_matches_per_gate_reference(model, stacks, loss_graph):
    """``loss_graph(model)``'s loss equals that of the per-gate reference
    model bit for bit, and every gradient tensor agrees to 1e-12 of its
    largest entry."""
    ref = per_gate_model(model, stacks)
    losses, grads = [], []
    for m in (model, ref):
        for p in m.parameters():
            p.zero_grad()
        g = loss_graph(m)
        losses.append(g.forward()[0, 0])
        g.backward()
        grads.append(per_gate_gradients(m, stacks))
    assert losses[0] == losses[1]
    assert grads[0].keys() == grads[1].keys()
    for name, expected in grads[1].items():
        gap = np.abs(grads[0][name] - expected).max()
        assert gap <= 1e-12 * np.abs(expected).max(), name


def per_position_loss_graph(model, source_ids, target_ids):
    """Reference encoder-decoder loss graph: every target position gets its
    own output-layer ``affine`` and ``pick_neg_log_softmax``, and MLP
    attention its own ``W_a1_src·H`` product and ``w_a2ᵀ``, inside the
    decoder loop."""
    g = Graph()
    encoding = model._encode_nodes(g, [source_ids])
    states = encoding.init_layers
    context = (g.input(np.zeros((model.src_dim, 1)))
               if model.attention != "none" else None)
    losses, prev = [], BOS_ID
    for target in target_ids:
        model._step_invariants(g, encoding)
        x, states, context, _ = model._step_nodes(g, encoding, [prev], states, context,
                                                  encoding.src_proj)
        losses.append(g.pick_neg_log_softmax(model._scores(g, x), target))
        prev = target
    g.sum(g.concat_cols(*losses) if len(losses) > 1 else losses[0])
    return g


def per_position_batch_loss(model, batch):
    """Reference RNNLM minibatch loss graph: every time step gets its own
    output-layer ``affine``, ``pick_neg_log_softmax`` and mask ``cmult``."""
    g = Graph()
    T, B = batch.token_matrix.shape
    prev = _prev_token_rows(batch)
    states = model.rnn.initial_states(g, batch=B)
    masked_rows = []
    for t in range(T):
        x = g.lookup_column(g.param(model.M), [int(i) for i in prev[t]])
        out, states = model.rnn.step(g, x, states)
        s = g.affine(g.param(model.b_s), g.param(model.W_hs), out)
        losses = g.pick_neg_log_softmax(s, [int(i) for i in batch.token_matrix[t]])
        masked_rows.append(g.cmult(losses, g.input(batch.mask[t].reshape(1, -1))))
    g.sum(g.concat_cols(*masked_rows) if len(masked_rows) > 1 else masked_rows[0])
    return g


def assert_matches_per_position_reference(model, loss_graph, reference_graph):
    """``loss_graph()`` has one output layer, and its loss equals that of
    ``reference_graph()`` to 1e-12 relative; every gradient tensor agrees to
    1e-10 of its largest entry."""
    results = []
    for build in (loss_graph, reference_graph):
        for p in model.parameters():
            p.zero_grad()
        g = build()
        loss = g.forward()[0, 0]
        g.backward()
        results.append((g, loss, [p.grad.copy() for p in model.parameters()]))
    (g, loss, grads), (_, ref_loss, ref_grads) = results
    assert output_layer_ops(g, model) == (1, 1)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for p, grad, expected in zip(model.parameters(), grads, ref_grads):
        assert np.abs(grad - expected).max() <= 1e-10 * np.abs(expected).max(), p.name


def output_layer_ops(g, model):
    """(``W_hs`` affines, ``pick_neg_log_softmax`` nodes) in graph ``g``."""
    return (sum(node.op == "affine" and any(q.param is model.W_hs for q in node.parents)
                for node in g.nodes),
            sum(node.op == "pick_neg_log_softmax" for node in g.nodes))


def two_pass_pick_neg_log_softmax(s, targets):
    """(losses, softmax) of ``pick_neg_log_softmax`` computed the long way:
    the softmax first, then the log partition function from a second max
    shift, exp and column sum."""
    shifted = s - s.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=0, keepdims=True)
    shifted = s - s.max(axis=0, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=0))
    return (logz - shifted[targets, np.arange(s.shape[1])]).reshape(1, -1), p


def attention_scores_per_column(model, g, H_cols, h_dec):
    """Reference one-column-at-a-time attention scoring for ``model``, against
    which its batched ``_attention_scores`` is checked; concatenates |F|
    scalar scores."""
    scores = []
    for col in H_cols:
        if model.attention == "dot":
            scores.append(g.sum(g.cmult(col, h_dec)))
        elif model.attention == "bilinear":
            scores.append(g.sum(g.cmult(col, g.matmul(g.param(model.W_a), h_dec))))
        else:
            pre = g.add(g.matmul(g.param(model.W_a1_dec), h_dec),
                        g.matmul(g.param(model.W_a1_src), col))
            scores.append(g.sum(g.cmult(g.param(model.w_a2), g.tanh(pre))))
    return g.concat_rows(*scores) if len(scores) > 1 else scores[0]


def one_source_encoding(model, g, H):
    """The encoding of one source whose per-word encodings are ``H``, with
    MLP attention's step invariants; no decoder state."""
    encoding = SourceEncoding(H=H, init_layers=[], lengths=[H.shape[1]])
    model._step_invariants(g, encoding)
    return encoding


def graph_encode(model, source_ids):
    """``EncDecModel.encode`` through a :class:`Graph`: (H, the decoder's
    initial (h, c) per layer, MLP attention's source projection or None)."""
    g = Graph()
    encoding = model._encode_nodes(g, [source_ids])
    model._step_invariants(g, encoding)
    H, init, proj = encoding.H, encoding.init_layers, encoding.src_proj
    g.forward()
    return (H.value, [(st.h.value, None if st.c is None else st.c.value) for st in init],
            None if proj is None else proj.value)


def graph_columns(g, array, rows):
    """A graph input holding the columns ``rows`` of ``array``, stacked from
    one-column copies."""
    return g.input(np.hstack([array[:, r:r + 1] for r in rows]))


def graph_layer_states(g, layers, rows):
    """Graph inputs holding the columns ``rows`` of eagerly evaluated layer
    states."""
    return [RecurrentState(h=graph_columns(g, st.h, rows),
                           c=None if st.c is None else graph_columns(g, st.c, rows),
                           batch=len(rows), c_is_hc=st.c_is_hc)
            for st in layers]


def layer_values(layers):
    """A graph's evaluated layer states as (h, c) arrays per layer."""
    return [(st.h.value, None if st.c is None else st.c.value) for st in layers]


def graph_encdec_step(model, state, rows, prev_ids):
    """``EncDecModel.step`` through a :class:`Graph`: (P, the new (h, c) per
    layer, the new context or None, alpha or None)."""
    encoding = state.encoding
    g = Graph()
    layers = graph_layer_states(g, state.layers, rows)
    H = context = src = w_a2_t = None
    if model.attention != "none":
        H = g.input(encoding.H)
        context = graph_columns(g, state.context, rows)
    if encoding.src_proj is not None:
        src = g.input(np.hstack([encoding.src_proj] * len(rows)))
        w_a2_t = g.input(encoding.w_a2_t)
    x, new_layers, new_context, alpha = model._step_nodes(
        g, replace(encoding, H=H, w_a2_t=w_a2_t), prev_ids, layers, context, src)
    P = g.softmax(model._scores(g, x))
    g.forward()
    return (P.value, layer_values(new_layers),
            None if new_context is None else new_context.value,
            None if alpha is None else alpha.value)


def graph_rnnlm_step(model, state, rows, prev_ids):
    """``RNNLM.step`` through a :class:`Graph`: (P, the new (h, c) per layer)."""
    g = Graph()
    layers = graph_layer_states(g, state, rows)
    x = g.lookup_column(g.param(model.M), prev_ids)
    out, layers = model.rnn.step(g, x, layers)
    P = g.softmax(g.affine(g.param(model.b_s), g.param(model.W_hs), out))
    g.forward()
    return P.value, layer_values(layers)


def graph_ffnnlm_step(model, state, rows, prev_ids):
    """``FFNNLM.step``'s distribution through a :class:`Graph`: each
    column's window is the last n-1 ids read, start-symbol padded."""
    pad = (BOS_ID,) * (model.n - 1)
    windows = [(pad + state[r] + (prev,))[-(model.n - 1):] for r, prev in zip(rows, prev_ids)]
    g = Graph()
    g.softmax(model._scores(g, [list(slot) for slot in zip(*windows)]))
    return g.forward()


def graph_sentence_nll(model, ids):
    """An LM's ``sentence_nll`` through a :class:`Graph`."""
    g = Graph()
    model.batch_loss(g, make_batches([list(ids)], 1)[0])
    return g.forward()[0, 0]


def decoding_nll(model, source, target):
    """The summed -log P[target] of one-column ``step`` calls, stepped here
    rather than through ``search``: the forced-decoding oracle for scoring."""
    state, prev, nll = model.start(source), BOS_ID, 0.0
    for tok in target:
        P, state, _ = model.step(state, [0], [prev])
        nll -= math.log(P[tok, 0])
        prev = tok
    return nll


def parameter_digest(model) -> str:
    """SHA-256 over every parameter's name, shape and value bits, in order."""
    digest = hashlib.sha256()
    for p in model.parameters():
        digest.update(f"{p.name}{p.value.shape}".encode())
        digest.update(np.ascontiguousarray(p.value).tobytes())
    return digest.hexdigest()


def same_bits(a, b) -> bool:
    """Equal shapes and bit-identical entries (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


EOS_ID = 1   # mirrors the package-wide reserved id


class TableModel:
    """Toy sequence model backed by an explicit prefix -> distribution table.

    Prefixes are tuples of generated token ids (no start symbol). Unlisted
    prefixes fall back to "always end the sentence".
    """

    def __init__(self, table, vocab=None):
        self.table = {tuple(k): np.asarray(v, dtype=float) for k, v in table.items()}
        self.vocab_size = len(next(iter(self.table.values())))
        self.vocab = vocab
        self._eos_only = np.zeros(self.vocab_size)
        self._eos_only[EOS_ID] = 1.0

    def start(self, source_ids=None):
        return [None]   # no tokens consumed yet; step() ignores the start symbol

    def step(self, state, rows, prev_ids):
        """A state holds one prefix per column."""
        prefixes = [() if state[r] is None else state[r] + (prev,)
                    for r, prev in zip(rows, prev_ids)]
        P = np.array([self.table.get(prefix, self._eos_only) for prefix in prefixes]).T
        return P, prefixes, None


class AttendingTableModel(TableModel):
    """A table model that also attends over three source positions: each
    column puts all its weight on the position its prefix's id sum picks,
    so the hypotheses of one step attend to different positions."""

    def step(self, state, rows, prev_ids):
        P, prefixes, _ = super().step(state, rows, prev_ids)
        alphas = np.zeros((3, len(prefixes)))
        alphas[[sum(prefix) % 3 for prefix in prefixes], range(len(prefixes))] = 1.0
        return P, prefixes, alphas


def random_table_model(rng, vocab_size=3, max_len=4, min_eos=0.0):
    """Random conditional distributions for every prefix up to max_len."""
    table = {}

    def fill(prefix):
        if len(prefix) >= max_len:
            return
        p = rng.dirichlet(np.ones(vocab_size))
        if min_eos > 0.0:
            p = (1.0 - min_eos) * p
            p[EOS_ID] += min_eos
        table[prefix] = p
        for tok in range(vocab_size):
            if tok != EOS_ID:
                fill(prefix + (tok,))

    fill(())
    return TableModel(table)


def enumerate_sequences(model, max_len):
    """All EOS-terminated token sequences of length <= max_len with their
    log probabilities, by brute-force tree walk."""
    results = []

    def walk(prefix, state, logprob):
        if len(prefix) >= max_len:
            return
        P, new_state, _ = model.step(state, [0], [prefix[-1] if prefix else 0])
        p = P[:, 0]
        for tok in range(len(p)):
            if p[tok] <= 0.0:
                continue
            score = logprob + np.log(p[tok])
            seq = prefix + (tok,)
            if tok == EOS_ID:
                results.append((list(seq), float(score)))
            else:
                walk(seq, new_state, score)

    walk((), model.start(), 0.0)
    return results


def brute_force_best(model, max_len):
    seqs = enumerate_sequences(model, max_len)
    return min(seqs, key=lambda item: (-item[1], tuple(item[0])))


def quantized_table_model(rng, vocab_size=3, max_len=4, levels=4):
    """Random table model whose probabilities are multiples of 1/total, many
    of them zero, so that extension scores tie often."""
    table = {}

    def fill(prefix):
        if len(prefix) >= max_len:
            return
        counts = rng.integers(0, levels, size=vocab_size).astype(float)
        if counts.sum() == 0:
            counts[EOS_ID] = 1.0
        table[prefix] = counts / counts.sum()
        for tok in range(vocab_size):
            if tok != EOS_ID:
                fill(prefix + (tok,))

    fill(())
    return TableModel(table)


def reference_beam_search(model, source_ids=None, beam_size=4, max_len=None,
                          length_mode="none", length_prior=None):
    """Beam search that builds and sorts every (hypothesis, token) candidate.

    The reference for ``search.beam_search``: the same search, with each
    hypothesis paired with a one-column state of its own, one single-column
    ``step`` per hypothesis and the whole candidate list sorted by the
    documented key.
    """
    if max_len is None:
        max_len = default_max_len(source_ids)
    source_len = None if source_ids is None else len(source_ids)
    start = Hypothesis(tokens=[], logprob=0.0, attention_trace=[])
    active = [(start, model.start(source_ids))]
    completed = []
    for _ in range(max_len):
        candidates = []
        for hyp, state in active:
            prev = hyp.tokens[-1] if hyp.tokens else BOS_ID
            P, new_state, alphas = model.step(state, [0], [prev])
            p = P[:, 0]
            with np.errstate(divide="ignore"):
                logp = np.log(p)
            trace_tail = _trace_entries(alphas, 1)[0]
            for tok in range(len(p)):
                if logp[tok] == -math.inf:
                    continue
                candidates.append((hyp.logprob + logp[tok], hyp, tok,
                                   new_state, trace_tail))
        candidates.sort(key=lambda c: (-c[0], tuple(c[1].tokens) + (c[2],)))
        active = []
        for score, parent, tok, state, trace_tail in candidates[:beam_size]:
            child = Hypothesis(tokens=parent.tokens + [tok], logprob=score,
                               finished=tok == EOS_ID,
                               attention_trace=parent.attention_trace + [trace_tail])
            if child.finished:
                completed.append(child)
            else:
                active.append((child, state))
        if len(completed) >= beam_size or not active:
            break

    if not completed:
        best = min((hyp for hyp, _ in active), key=lambda h: (-h.logprob, tuple(h.tokens)))
        best.truncated = True
        best.score = _rescore(best, length_mode, length_prior, source_len)
        return [best]
    for hyp in completed:
        hyp.score = _rescore(hyp, length_mode, length_prior, source_len)
    completed.sort(key=lambda h: (-h.score, tuple(h.tokens)))
    return completed[:beam_size]
