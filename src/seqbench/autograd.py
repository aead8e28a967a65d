"""Reverse-mode automatic differentiation over explicit computation graphs,
and an eager evaluator for work that needs no gradient.

Values are dense float64 numpy arrays of rank 2; column vectors have shape
(n, 1). A :class:`Graph` is built per training example or minibatch. Each op
is computed and checked when it is built, and its node is appended holding
the value, so the node list is already a topological order, and one dynamic
program runs over it: ``backward()`` seeds the final scalar node with
gradient one and sends each node's gradient to its parents in reverse
insertion order. ``forward()`` only returns the last node's value.

Decoding, scoring and prediction need no gradient, so they run through
:class:`Eager` instead, which returns each op's value as a plain array: no
node is created and nothing is kept.

Both evaluators share one op surface, :class:`Ops`. Each op constructor names
its kernel (a function from input values and settings to the value), its
parents and its settings, and hands them to the evaluator's ``_op``. Both run
them through one routine, :meth:`Ops._compute`, which is the eager
evaluator's ``_op`` itself; a graph calls it on its parents' values and
records a node. A value is thus bitwise the same either way, and model code
written against the constructors serves training and inference alike. Adding
an op means one kernel, one constructor on :class:`Ops` and one rule in
``_BACKWARD``. Build inside ``with Graph() as g:`` or ``with Eager() as e:``;
there, floating-point overflow and invalid operations raise no warning, and
the NaN or Inf they make is reported as :class:`NonFiniteError` instead.

Every matrix product of a kernel or a backward rule goes through one helper,
``_dot``. It calls ``np.dot`` when the inner dimension is 1 and ``@``
otherwise, with bitwise the same result either way: a graph over one
sentence is one column wide, so every weight gradient ``g @ x.T`` it forms
has inner dimension 1, and ``np.dot`` runs those rank-1 products several
times faster than ``@``, which stays the faster of the two for wide products.

Besides elementwise, matrix and loss ops, two ops serve the recurrent cells:
``lstm`` is a whole LSTM cell over stacked gate pre-activations, returning
``[h; c]``, and ``rows`` takes a block of rows (the ``h`` half of it, or one
GRU gate). The next step's ``lstm``, told so by ``c_is_hc``, reads its memory
cell from the last rows of the previous ``[h; c]``, so no node is recorded for
``c`` alone. Two serve attention over a batch whose columns each read a source
of their own: ``batch_dot`` scores every column's source words against its
query, and ``attend`` mixes them with its weights.

A :class:`Parameter` enters a graph once, as one ``parameter`` node however
often it is used, and that node's gradient slot is ``Parameter.grad`` itself,
so every use adds straight into the parameter's accumulator. Other nodes get a
gradient slot when their first contribution arrives: a new array laid out like
the node's value becomes the slot, and any other contribution (a view of the
consumer's gradient, say) is copied into an unfilled array laid out like the
value. Nodes that reach no parameter (inputs, masks, zero states and
everything computed only from them) never get one.

A NaN or Inf is reported as :class:`NonFiniteError` at the op where it first
appears, as the op is built; so is a kernel's :class:`GraphError`, and a graph
appends no node for the op that raised. ``_compute`` is the one check site:
it scans every computed value except those of the ops in
``FINITE_PRESERVING_OPS``. A parameter is checked by its :class:`Parameter`,
which scans its value once and remembers a finite result until
:meth:`Parameter.changed` is called, so evaluating an unchanged model scans
no parameter. The library's writers call ``changed()`` after they
write: ``EpochTracker.restore_best``, the model-file loader,
``nnet.train_toy_mlp`` and ``Optimizer.step``, which checks the values it
writes and passes its verdict, so after a finite update the next graph scans
no parameter either. Code outside the library that writes
``Parameter.value`` in place after the parameter has been evaluated must call
``changed()`` too, or a later NaN or Inf in it goes unreported.
"""

from __future__ import annotations

import math

import numpy as np


def as_col(values) -> np.ndarray:
    """Coerce a scalar / list / 1-d array to a float64 column vector."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ValueError(f"rank-{arr.ndim} arrays are not supported")
    return arr


class Parameter:
    """Named trainable tensor with a persistent gradient accumulator."""

    def __init__(self, name: str, value):
        self.name = name
        self.value = as_col(value).copy()
        # calloc-backed: large accumulators are not written until first used
        self.grad = np.zeros(self.value.shape)
        self._known_finite = False

    def zero_grad(self):
        self.grad[...] = 0.0

    def is_finite(self) -> bool:
        """True when every entry of ``value`` is finite.

        The value is scanned only until a scan finds it finite; that result is
        kept until :meth:`changed` is called.
        """
        if not self._known_finite:
            self._known_finite = bool(np.isfinite(self.value).all())
        return self._known_finite

    def changed(self, known_finite: bool = False):
        """Call after writing ``value`` in place: the next graph scans it again,
        unless the writer has found it finite itself and passes
        ``known_finite=True``."""
        self._known_finite = known_finite

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class GraphError(Exception):
    pass


class NonFiniteError(GraphError):
    """A node evaluated to NaN/Inf (numerical blowup, not a structural bug)."""


class Node:
    """One value of a graph: an input, a parameter, or an op's kernel applied
    to the parents' values followed by ``settings``."""

    __slots__ = ("op", "parents", "settings", "value", "grad", "param",
                 "needs_grad")

    def __init__(self, op, value, parents=(), settings=(), param=None):
        self.op = op
        self.parents = parents
        self.settings = settings
        self.value = value
        self.grad = None
        self.param = param
        # True when some parameter lies upstream, so a gradient is worth sending
        self.needs_grad = param is not None
        for p in parents:
            if p.needs_grad:
                self.needs_grad = True
                break

    @property
    def shape(self):
        return self.value.shape


class Ops:
    """The computed ops, defined once for :class:`Graph` and :class:`Eager`.

    Each constructor hands ``self._op(op name, kernel, parents, settings)``
    to its evaluator, which returns a node or a value. Inside
    ``with evaluator:`` floating-point overflow and invalid operations raise
    no warning; the NaN or Inf they make is reported as
    :class:`NonFiniteError` instead.
    """

    __slots__ = ("_errstate",)

    def __enter__(self):
        self._errstate = np.errstate(over="ignore", invalid="ignore")
        self._errstate.__enter__()
        return self

    def __exit__(self, *exc_info):
        self._errstate.__exit__(*exc_info)

    def _compute(self, op, kernel, values, settings=()) -> np.ndarray:
        """``kernel(*values, *settings)``, the one place where either evaluator
        runs a kernel; raises :class:`NonFiniteError` when the value is not
        finite, unless ``op`` is in ``FINITE_PRESERVING_OPS``."""
        # most ops have no settings, and then an empty star-merge costs time
        value = kernel(*values, *settings) if settings else kernel(*values)
        if op in FINITE_PRESERVING_OPS or _all_finite(value):
            return value
        raise NonFiniteError(f"non-finite value at an eager op ({op})")

    def lookup_column(self, matrix, index):
        """Select column(s) of a matrix; ``index`` is an int or sequence of ints."""
        return self._op("lookup_column", _lookup_column, (matrix,),
                        (_column_ids(index),))

    def matmul(self, a, b):
        return self._op("matmul", _matmul, (a, b))

    def add(self, a, b):
        """Elementwise sum; a (n,1) operand broadcasts across (n, m)."""
        return self._op("add", _add, (a, b))

    def affine(self, bias, *terms):
        """``((W1 @ x1 + W2 @ x2) + ...) + bias`` for ``terms = W1, x1, W2, x2, ...``.

        One op in place of the equivalent ``matmul``/``add`` chain, with the
        same floating-point results; ``bias`` and any (n,1) product broadcast
        across columns as in :meth:`add`.
        """
        if not terms or len(terms) % 2:
            raise GraphError("affine needs one or more (weight, input) pairs")
        return self._op("affine", _affine, (bias, *terms))

    def cmult(self, a, b):
        return self._op("cmult", _cmult, (a, b))

    def concat_rows(self, *parts):
        return self._op("concat_rows", _concat_rows, parts)

    def concat_cols(self, *parts):
        return self._op("concat_cols", _concat_cols, parts)

    def transpose(self, a):
        return self._op("transpose", _transpose, (a,))

    def rows(self, a, start: int, stop: int):
        """Rows ``start:stop`` of ``a``."""
        return self._op("rows", _rows, (a,), (int(start), int(stop)))

    def lstm(self, pre, c_prev, forget: bool = True, c_is_hc: bool = False):
        """One fused LSTM cell step; the value is ``[h; c]`` (2n x B).

        ``pre`` holds the gate pre-activations as n-row blocks, u, i, f, o
        (u, i, o when ``forget`` is false), for the n x B memory cell
        ``c_prev``, or, with ``c_is_hc``, for the cell in the last n rows of
        a previous step's 2n x B ``[h; c]``. With u = tanh, the other gates
        sigmoid: c = i*u + f*c_prev (i*u + c_prev without a forget gate) and
        h = o*tanh(c), rounded exactly as separate ``tanh``, ``sigmoid``,
        ``cmult`` and ``add`` ops would round them.
        """
        return self._op("lstm", _lstm, (pre, c_prev),
                        (bool(forget), bool(c_is_hc), self._saved()))

    def batch_dot(self, keys, queries):
        """Per-column scores of a batch of B columns, each with S keys.

        ``keys`` holds the S·B key columns t-major: column t·B + b is key t
        of batch column b. Entry [t, b] of the S x B result is that key
        dotted with column b of ``queries``.
        """
        return self._op("batch_dot", _batch_dot, (keys, queries))

    def attend(self, keys, weights):
        """Column b of the result is batch column b's keys (laid out as for
        :meth:`batch_dot`) mixed with the weights ``weights[:, b]``."""
        return self._op("attend", _attend, (keys, weights))

    def tanh(self, a):
        return self._op("tanh", np.tanh, (a,))

    def sigmoid(self, a):
        return self._op("sigmoid", _sigmoid, (a,))

    def relu(self, a):
        return self._op("relu", _relu, (a,))

    def step(self, a):
        return self._op("step", _step, (a,))

    def reshape(self, a, rows: int, cols: int):
        """The entries of ``a`` in column-major order, refilled into a
        ``rows`` x ``cols`` matrix column by column."""
        return self._op("reshape", _reshape, (a,), (int(rows), int(cols)))

    def softmax(self, a):
        """Column-wise softmax: every column of the result sums to one.

        Each column is reduced as one contiguous block, so a column rounds
        exactly as it would in a one-column softmax.
        """
        return self._op("softmax", _softmax, (a,))

    def pick_neg_log_softmax(self, scores, target):
        """Fused -log softmax(scores)[target]; one target id per column."""
        return self._op("pick_neg_log_softmax", _pick_neg_log_softmax, (scores,),
                        (_column_ids(target), self._saved()))

    def squared_distance(self, a, b):
        return self._op("squared_distance", _squared_distance, (a, b))

    def sum(self, a):
        return self._op("sum", _sum, (a,))

    def scale(self, a, k: float):
        return self._op("scale", _scale, (a,), (float(k),))


class Graph(Ops):
    """Append-only DAG of value nodes; create one per example or minibatch."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._params: dict[int, Node] = {}
        self._backward_done = False

    def _op(self, op, kernel, parents, settings=()) -> Node:
        """Compute and check the op's value, then append its node; an error
        names the index the node would have had, and nothing is appended."""
        try:
            value = self._compute(op, kernel, [p.value for p in parents], settings)
        except NonFiniteError:
            raise NonFiniteError(f"non-finite value at node {len(self.nodes)} ({op})") \
                from None
        except GraphError as exc:
            raise GraphError(f"node {len(self.nodes)} {exc}") from None
        node = Node(op, value, parents, settings)
        self.nodes.append(node)
        return node

    def _saved(self) -> dict:
        """Where a node's kernel keeps what backward needs."""
        return {}

    def input(self, values) -> Node:
        return self._op("input", as_col, (), (values,))

    def param(self, parameter: Parameter) -> Node:
        """The graph's one node for ``parameter``, added (and checked) on first use."""
        node = self._params.get(id(parameter))
        if node is None:
            if not parameter.is_finite():
                raise NonFiniteError(
                    f"non-finite value at node {len(self.nodes)} (parameter)")
            node = Node("parameter", parameter.value, param=parameter)
            self.nodes.append(node)
            self._params[id(parameter)] = node
        return node

    def forward(self) -> np.ndarray:
        """The last node's value (every value was computed as its node was built)."""
        if not self.nodes:
            raise GraphError("empty graph")
        return self.nodes[-1].value

    def backward(self):
        """Accumulate gradients of the final scalar node back through the graph.

        Gradients land in ``Parameter.grad``, added to whatever it already
        holds; a parameter used several times receives the sum over all
        paths. Branches that reach no parameter get no gradient.
        """
        nodes = self.nodes
        if not nodes:
            raise GraphError("empty graph")
        final = nodes[-1]
        if final.value.shape != (1, 1):
            raise GraphError(f"loss node must be scalar, got shape {final.value.shape}")
        if self._backward_done:
            for node in nodes:
                node.grad = None
        for node in self._params.values():
            node.grad = node.param.grad
        self._backward_done = True
        if final.param is not None:
            final.grad += 1.0
            return
        if not final.needs_grad:
            return
        final.grad = np.ones_like(final.value)
        for node in reversed(nodes):
            g = node.grad
            if g is not None and node.parents:
                _BACKWARD[node.op](node, g)


class Eager(Ops):
    """Forward-only evaluation through the :class:`Ops` constructors.

    Each constructor computes its op's value with :meth:`Ops._compute`, the
    routine a :class:`Graph` records its nodes with, and returns it as a
    plain array; no node is created and nothing is kept. Model code that
    builds training graphs thus decodes and scores without recording one,
    and gets the same values bit for bit, checked alike: a NaN or Inf raises
    :class:`NonFiniteError` at the same first op.
    """

    __slots__ = ()

    _op = Ops._compute

    def _saved(self) -> None:
        return None             # nothing is kept for a backward pass

    def input(self, values) -> np.ndarray:
        return self._op("input", as_col, (values,))

    def param(self, parameter: Parameter) -> np.ndarray:
        # the cached verdict first: a decoder step asks for every weight
        if parameter._known_finite or parameter.is_finite():
            return parameter.value
        raise NonFiniteError(f"non-finite value in {parameter.name!r} (parameter)")


# What model code builds with, and what its op constructors return.
Evaluator = Graph | Eager
Value = Node | np.ndarray


# Ops whose value is finite whenever their inputs are; neither evaluator checks
# them, so the first non-finite value is still caught at its source. ``lstm``
# is one of them: its gates are tanh and sigmoid values, so |h| <= 1 and
# |c| <= |c_prev| + 1, which rounds to |c_prev| where that bound nears the
# float range; its pre-activations come from a checked ``affine``.
FINITE_PRESERVING_OPS = frozenset({
    "lookup_column", "concat_rows", "concat_cols", "transpose", "reshape",
    "rows", "lstm", "tanh", "sigmoid", "relu", "step", "softmax"})


def _all_finite(value) -> bool:
    """True when every entry of ``value`` is finite.

    A finite sum of squares proves it in one BLAS call; only when that sum is
    not finite (a non-finite entry, or squares beyond the float range) are
    the entries tested one by one.
    """
    return math.isfinite(np.vdot(value, value)) or bool(np.isfinite(value).all())


def _column_ids(index) -> list[int]:
    """One id, or a sequence of ids, as a list of ints."""
    if isinstance(index, (int, np.integer)):
        return [int(index)]
    return list(map(int, index))


def _broadcastable(a, b):
    return (a.shape[0] == b.shape[0]) and (a.shape[1] == 1 or b.shape[1] == 1)


# ---- kernels: input values (and op settings) -> value ---------------------------
# The one numeric rule per op, run by Ops._compute. A kernel's GraphError
# names its op; Graph._op adds the node.

def _lookup_column(matrix, idx):
    return matrix[:, idx]


def _dot(a, b):
    """``a @ b``, bit for bit, shape and strides alike; the one product of
    every kernel and backward rule.

    A product whose inner dimension is 1 (the weight gradient ``g @ x.T`` of
    a one-column graph) goes through ``np.dot``, which runs those several
    times faster than ``@``; other products stay with ``@``, which is the
    faster of the two for wide ones and within a few percent of ``np.dot``
    for matrix-vector ones.
    """
    if a.shape[1] == 1:
        return np.dot(a, b)
    return a @ b


def _matmul(a, b):
    if a.shape[1] != b.shape[0]:
        raise GraphError(f"matmul: {a.shape} x {b.shape} mismatch")
    return _dot(a, b)


def _add(a, b):
    if a.shape != b.shape and not _broadcastable(a, b):
        raise GraphError(f"add: {a.shape} + {b.shape} mismatch")
    return a + b


def _affine(*values):
    """``values`` is ``bias, W1, x1, W2, x2, ...``."""
    out = None
    for k in range(1, len(values), 2):
        w, x = values[k], values[k + 1]
        if w.shape[1] != x.shape[0]:
            raise GraphError(f"affine: term {k // 2} {w.shape} x {x.shape} mismatch")
        out = _dot(w, x) if out is None else _sum_into(out, _dot(w, x))
    return _sum_into(out, values[0])


def _sum_into(total, term):
    """``total + term`` with ``add``'s broadcasting, in place unless ``total``
    is the one column that broadcasts."""
    if total.shape != term.shape and not _broadcastable(total, term):
        raise GraphError(f"affine: {total.shape} + {term.shape} mismatch")
    if total.shape[1] < term.shape[1]:
        return total + term
    total += term
    return total


def _cmult(a, b):
    if a.shape != b.shape:
        raise GraphError(f"cmult: {a.shape} * {b.shape} mismatch")
    return a * b


def _concat_rows(*parts):
    if len({v.shape[1] for v in parts}) != 1:
        raise GraphError("concat_rows: column counts differ")
    return np.concatenate(parts, axis=0)


def _concat_cols(*parts):
    if len({v.shape[0] for v in parts}) != 1:
        raise GraphError("concat_cols: row counts differ")
    return np.concatenate(parts, axis=1)


def _transpose(a):
    return a.T.copy()


def _reshape(v, rows, cols):
    if v.size != rows * cols:
        raise GraphError(f"reshape: {v.shape} into ({rows}, {cols})")
    return v.reshape((rows, cols), order="F")


def _rows(v, start, stop):
    if not 0 <= start < stop <= v.shape[0]:
        raise GraphError(f"rows: {start}:{stop} of {v.shape}")
    return v[start:stop]


def _sigmoid(x, out=None):
    """``1 / (1 + exp(-x))``, into ``out`` when given."""
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _lstm(pre, c_prev, forget, c_is_hc, saved=None):
    """``[h; c]`` of one cell step; keeps the gate activations and tanh(c)
    for backward in ``saved`` when given."""
    gates = 4 if forget else 3
    n = pre.shape[0] // gates
    if (pre.shape[0] != gates * n or c_prev.shape[1] != pre.shape[1]
            or c_prev.shape[0] != (2 * n if c_is_hc else n)):
        what = "[h; c]" if c_is_hc else "cell"
        raise GraphError(f"lstm: gates {pre.shape} for {what} {c_prev.shape}")
    if c_is_hc:
        c_prev = c_prev[n:]
    act = np.empty_like(pre)
    u, i, o = act[:n], act[n:2 * n], act[-n:]
    np.tanh(pre[:n], out=u)
    _sigmoid(pre[n:], out=act[n:])
    out = np.empty((2 * n, pre.shape[1]))
    c = np.multiply(i, u, out=out[n:])
    c += act[2 * n:3 * n] * c_prev if forget else c_prev
    tanh_c = np.tanh(c)
    np.multiply(o, tanh_c, out=out[:n])
    if saved is not None:
        saved["act"], saved["tanh_c"] = act, tanh_c
    return out


def _batch_keys(keys, batch, op):
    """``keys`` as a rows x S x B array: [:, t, b] is key t of column b."""
    if keys.shape[1] % batch:
        raise GraphError(f"{op}: {keys.shape[1]} keys for {batch} columns")
    return keys.reshape(keys.shape[0], -1, batch)


def _batch_dot(keys, queries):
    if keys.shape[0] != queries.shape[0]:
        raise GraphError(f"batch_dot: keys {keys.shape} for queries {queries.shape}")
    return np.einsum("isb,ib->sb", _batch_keys(keys, queries.shape[1], "batch_dot"),
                     queries)


def _attend(keys, weights):
    k = _batch_keys(keys, weights.shape[1], "attend")
    if k.shape[1] != weights.shape[0]:
        raise GraphError(f"attend: keys {keys.shape} for weights {weights.shape}")
    return np.einsum("isb,sb->ib", k, weights)


def _relu(a):
    return np.maximum(a, 0.0)


def _step(a):
    return np.where(a > 0.0, 1.0, -1.0)


def _softmax(a):
    return _softmax_cols(np.asfortranarray(a))


def _pick_neg_log_softmax(s, targets, saved=None):
    """The losses as one row; keeps the softmax for backward in ``saved``
    when given."""
    if len(targets) != s.shape[1]:
        raise GraphError(f"pick_neg_log_softmax: {len(targets)} targets "
                         f"for {s.shape[1]} columns")
    # one max shift, exp and column sum serve both the softmax kept for
    # backward and the log partition function; the shifted scores become the
    # softmax in place, so a wide score matrix is copied once. ``max``
    # propagates NaN, so the column maxima show a NaN score.
    top = s.max(axis=0, keepdims=True)
    if np.isnan(top).any():
        raise GraphError("pick_neg_log_softmax: NaN scores")
    shifted = s - top
    picked = shifted[targets, np.arange(s.shape[1])]
    e = np.exp(shifted, out=shifted)
    z = e.sum(axis=0, keepdims=True)
    if saved is not None:
        e /= z
        saved["softmax"] = e
    return (np.log(z[0]) - picked).reshape(1, -1)


def _squared_distance(a, b):
    if a.shape != b.shape:
        raise GraphError("squared_distance: shape mismatch")
    return np.array([[np.sum((a - b) ** 2)]])


def _sum(a):
    return np.array([[a.sum()]])


def _scale(a, k):
    return a * k


# ---- backward rules: (node, its gradient) -> contributions to its parents ---------

def _give(node, contribution, fresh=False):
    """Add one gradient contribution into ``node``'s slot, creating the slot
    on the first one.

    A ``fresh`` contribution is a new array that nothing else refers to; it
    becomes the slot when it has the shape and layout of ``node.value``.
    Otherwise it is copied into a new array shaped and laid out like the
    value, with no zero fill first. Either way every slot has the layout of
    the value, so the BLAS calls and reductions later applied to it round
    exactly alike. (Adopting or copying skips a ``0.0 + contribution`` that
    could only turn -0.0 into +0.0, a difference that vanishes once added
    into a ``Parameter.grad``, which starts at +0.0.) Views of ``g`` and ``g``
    itself must not be marked fresh: two slots would share memory.
    """
    if not node.needs_grad:
        return
    slot = node.grad
    if slot is not None:
        slot += contribution
    elif (fresh and contribution.shape == node.value.shape
          and contribution.strides == node.value.strides):
        node.grad = contribution
    else:
        node.grad = slot = np.empty_like(node.value)
        slot[...] = contribution


def _back_lookup_column(node, g):
    matrix = node.parents[0]
    if not matrix.needs_grad:
        return
    if matrix.grad is None:
        matrix.grad = np.zeros_like(matrix.value)
    idx = node.settings[0]
    if len(idx) == 1:       # a slice adds faster than an index list
        i = idx[0] % matrix.value.shape[1]
        matrix.grad[:, i:i + 1] += g
        return
    if len(set(idx)) == len(idx):
        matrix.grad[:, idx] += g
        return
    # The slot may already hold other uses' gradients: sum the repeated ids'
    # columns in a small block first and add the block once, so each column
    # rounds as it would with a node of its own per use.
    unique, inverse = np.unique(idx, return_inverse=True)
    block = np.zeros((g.shape[0], len(unique)))
    np.add.at(block, (slice(None), inverse), g)
    matrix.grad[:, unique] += block


def _back_matmul(node, g):
    a, b = node.parents
    if a.needs_grad:
        _give(a, _dot(g, b.value.T), fresh=True)
    if b.needs_grad:
        _give(b, _dot(a.value.T, g), fresh=True)


def _back_add(node, g):
    for p in node.parents:
        if p.value.shape == g.shape:
            _give(p, g)
        else:   # broadcast (n,1) across columns
            _give(p, g.sum(axis=1, keepdims=True), fresh=True)


def _back_affine(node, g):
    # the order the matmul/add chain sends them: bias, then the last term
    # back to the first
    parents = node.parents
    bias = parents[0]
    if bias.value.shape == g.shape:
        _give(bias, g)
    else:
        _give(bias, g.sum(axis=1, keepdims=True), fresh=True)
    g_col = None
    for k in range(len(parents) - 2, 0, -2):
        w, x = parents[k], parents[k + 1]
        g_term = g
        if (w.value.shape[0], x.value.shape[1]) != g.shape:
            if g_col is None:
                g_col = g.sum(axis=1, keepdims=True)
            g_term = g_col
        if w.needs_grad:
            _give(w, _dot(g_term, x.value.T), fresh=True)
        if x.needs_grad:
            _give(x, _dot(w.value.T, g_term), fresh=True)


def _back_cmult(node, g):
    a, b = node.parents
    if a.needs_grad:
        _give(a, g * b.value, fresh=True)
    if b.needs_grad:
        _give(b, g * a.value, fresh=True)


def _back_concat_rows(node, g):
    offset = 0
    for p in node.parents:
        rows = p.value.shape[0]
        _give(p, g[offset:offset + rows, :])
        offset += rows


def _back_concat_cols(node, g):
    offset = 0
    for p in node.parents:
        cols = p.value.shape[1]
        _give(p, g[:, offset:offset + cols])
        offset += cols


def _give_rows(node, start, contribution):
    """Add ``contribution`` into the rows of ``node``'s slot from ``start`` on."""
    if not node.needs_grad:
        return
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad[start:start + contribution.shape[0]] += contribution


def _back_rows(node, g):
    _give_rows(node.parents[0], node.settings[0], g)


def _back_lstm(node, g):
    pre, c_prev = node.parents
    forget, c_is_hc, saved = node.settings
    act, tanh_c = saved["act"], saved["tanh_c"]
    n = tanh_c.shape[0]
    u, i, o = act[:n], act[n:2 * n], act[-n:]
    g_h = g[:n]
    # the memory cell's gradient: its own (from the next step) plus h's
    d_c = g[n:] + (g_h * o) * (1.0 - tanh_c ** 2)
    d_pre = np.empty_like(act)
    np.multiply(d_c, i, out=d_pre[:n])
    d_pre[:n] *= 1.0 - u ** 2
    np.multiply(d_c, u, out=d_pre[n:2 * n])
    if forget:
        np.multiply(d_c, c_prev.value[-n:], out=d_pre[2 * n:3 * n])
    np.multiply(g_h, tanh_c, out=d_pre[-n:])
    sig = act[n:]
    d_pre[n:] *= sig
    d_pre[n:] *= 1.0 - sig
    _give(pre, d_pre, fresh=True)
    if not c_prev.needs_grad:
        return
    d_c_prev = d_c * act[2 * n:3 * n] if forget else d_c
    if c_is_hc:     # a previous step's [h; c], whose last n rows are the cell
        _give_rows(c_prev, n, d_c_prev)
    else:
        _give(c_prev, d_c_prev, fresh=True)


def _batch_outer(column_vectors, column_weights):
    """The keys-shaped gradient of ``batch_dot`` and ``attend``: key t of
    column b gets column b of ``column_vectors`` times [t, b] of
    ``column_weights``."""
    rows = column_vectors.shape[0]
    return (column_vectors[:, None, :] * column_weights).reshape(rows, -1)


def _back_batch_dot(node, g):
    keys, queries = node.parents
    if keys.needs_grad:
        _give(keys, _batch_outer(queries.value, g), fresh=True)
    if queries.needs_grad:
        _give(queries, _attend(keys.value, g), fresh=True)


def _back_attend(node, g):
    keys, weights = node.parents
    if keys.needs_grad:
        _give(keys, _batch_outer(g, weights.value), fresh=True)
    if weights.needs_grad:
        _give(weights, _batch_dot(keys.value, g), fresh=True)


def _back_step(node, g):
    raise GraphError("step has no usable derivative; use tanh or relu")


def _back_softmax(node, g):
    p = node.value
    inner = (g * p).sum(axis=0, keepdims=True)
    _give(node.parents[0], p * (g - inner), fresh=True)


def _back_pick_neg_log_softmax(node, g):
    targets, saved = node.settings
    p = saved["softmax"]
    ds = p * g            # g has shape (1, cols), broadcasts over rows
    ds[targets, np.arange(len(targets))] -= g[0]
    _give(node.parents[0], ds, fresh=True)


def _back_squared_distance(node, g):
    a, b = node.parents
    diff = 2.0 * g[0, 0] * (a.value - b.value)
    _give(a, diff, fresh=True)
    _give(b, -diff, fresh=True)


_BACKWARD = {
    "lookup_column": _back_lookup_column,
    "matmul": _back_matmul,
    "add": _back_add,
    "affine": _back_affine,
    "cmult": _back_cmult,
    "concat_rows": _back_concat_rows,
    "concat_cols": _back_concat_cols,
    "transpose": lambda node, g: _give(node.parents[0], g.T),
    "reshape": lambda node, g: _give(node.parents[0],
                                     g.reshape(node.parents[0].value.shape, order="F")),
    "rows": _back_rows,
    "lstm": _back_lstm,
    "batch_dot": _back_batch_dot,
    "attend": _back_attend,
    "tanh": lambda node, g: _give(node.parents[0], g * (1.0 - node.value ** 2),
                                  fresh=True),
    "sigmoid": lambda node, g: _give(node.parents[0],
                                     g * node.value * (1.0 - node.value), fresh=True),
    "relu": lambda node, g: _give(node.parents[0], g * (node.parents[0].value > 0.0),
                                  fresh=True),
    "step": _back_step,
    "softmax": _back_softmax,
    "pick_neg_log_softmax": _back_pick_neg_log_softmax,
    "squared_distance": _back_squared_distance,
    "sum": lambda node, g: _give(node.parents[0], g[0, 0]),
    "scale": lambda node, g: _give(node.parents[0], g * node.settings[0], fresh=True),
}


def _softmax_cols(s: np.ndarray) -> np.ndarray:
    top = s.max(axis=0, keepdims=True)      # NaN where a column holds one
    if np.isnan(top).any():
        raise GraphError("NaN input to softmax")
    e = s - top
    np.exp(e, out=e)
    e /= e.sum(axis=0, keepdims=True)
    return e


def softmax(values) -> np.ndarray:
    """Plain (non-graph) max-shifted softmax over a vector or matrix columns."""
    return _softmax_cols(as_col(values))
