"""Reverse-mode automatic differentiation over explicit computation graphs.

Values are dense float64 numpy arrays of rank 2; column vectors have shape
(n, 1). A :class:`Graph` is built per training example (or per decode step),
nodes are appended in construction order, which is already a topological
order, and two dynamic programs run over the node list:

* ``forward()`` evaluates unevaluated nodes in insertion order;
* ``backward()`` seeds the final scalar node with gradient one and sends each
  node's gradient to its parents in reverse insertion order.

A :class:`Parameter` enters a graph once, as one ``parameter`` node however
often it is used, and that node's gradient slot is ``Parameter.grad`` itself,
so every use adds straight into the parameter's accumulator. Other nodes get a
gradient slot when their first contribution arrives, and nodes that reach no
parameter (inputs, masks, zero states and everything computed only from them)
never get one.

A NaN or Inf is reported as :class:`NonFiniteError` at the node where it first
appears. Computed nodes are checked as they are evaluated, except the ops in
``FINITE_PRESERVING_OPS``. A ``parameter`` node asks its :class:`Parameter`,
which scans its value once and remembers a finite result until
:meth:`Parameter.changed` is called, so a graph over an unchanged model scans
no parameter. The library's writers call ``changed()`` after they write:
``Optimizer.step``, ``EpochTracker.restore_best``, the model-file loader and
``nnet.train_toy_mlp``. Code outside the library that writes
``Parameter.value`` in place after the parameter has been used in a graph must
call ``changed()`` too, or a later NaN or Inf in it goes unreported.
"""

from __future__ import annotations

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
        self.grad = np.zeros_like(self.value)
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

    def changed(self):
        """Forget the finiteness result; call after writing ``value`` in place."""
        self._known_finite = False

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class GraphError(Exception):
    pass


class NonFiniteError(GraphError):
    """A node evaluated to NaN/Inf (numerical blowup, not a structural bug)."""


class Node:
    __slots__ = ("idx", "op", "parents", "value", "grad", "aux", "param",
                 "needs_grad")

    def __init__(self, idx, op, parents, aux=None, param=None):
        self.idx = idx
        self.op = op
        self.parents = parents
        self.value = None
        self.grad = None
        self.aux = aux
        self.param = param
        # True when some parameter lies upstream, so a gradient is worth sending
        self.needs_grad = param is not None
        for p in parents:
            if p.needs_grad:
                self.needs_grad = True
                break

    @property
    def shape(self):
        return None if self.value is None else self.value.shape


class Graph:
    """Append-only DAG of value nodes; create one per example or minibatch."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._params: dict[int, Node] = {}
        self._next_unevaluated = 0
        self._backward_done = False

    def _add(self, op, parents, aux=None, param=None) -> Node:
        node = Node(len(self.nodes), op, parents, aux=aux, param=param)
        self.nodes.append(node)
        return node

    # ---- node constructors -------------------------------------------------

    def input(self, values) -> Node:
        node = self._add("input", [])
        node.value = as_col(values)
        return node

    def param(self, parameter: Parameter) -> Node:
        """The graph's one node for ``parameter``, added on first use."""
        node = self._params.get(id(parameter))
        if node is None:
            node = self._add("parameter", [], param=parameter)
            node.value = parameter.value
            self._params[id(parameter)] = node
        return node

    def lookup_column(self, matrix: Node, index) -> Node:
        """Select column(s) of a matrix; ``index`` is an int or sequence of ints."""
        idx = ([int(index)] if isinstance(index, (int, np.integer))
               else [int(i) for i in index])
        return self._add("lookup_column", [matrix], aux=idx)

    def matmul(self, a: Node, b: Node) -> Node:
        return self._add("matmul", [a, b])

    def add(self, a: Node, b: Node) -> Node:
        """Elementwise sum; a (n,1) operand broadcasts across (n, m)."""
        return self._add("add", [a, b])

    def affine(self, bias: Node, *terms: Node) -> Node:
        """``((W1 @ x1 + W2 @ x2) + ...) + bias`` for ``terms = W1, x1, W2, x2, ...``.

        One node in place of the equivalent ``matmul``/``add`` chain, with the
        same floating-point results; ``bias`` and any (n,1) product broadcast
        across columns as in :meth:`add`.
        """
        if not terms or len(terms) % 2:
            raise GraphError("affine needs one or more (weight, input) pairs")
        return self._add("affine", [bias, *terms])

    def cmult(self, a: Node, b: Node) -> Node:
        return self._add("cmult", [a, b])

    def concat_rows(self, *parts: Node) -> Node:
        return self._add("concat_rows", list(parts))

    def concat_cols(self, *parts: Node) -> Node:
        return self._add("concat_cols", list(parts))

    def transpose(self, a: Node) -> Node:
        return self._add("transpose", [a])

    def tanh(self, a: Node) -> Node:
        return self._add("tanh", [a])

    def sigmoid(self, a: Node) -> Node:
        return self._add("sigmoid", [a])

    def relu(self, a: Node) -> Node:
        return self._add("relu", [a])

    def step(self, a: Node) -> Node:
        return self._add("step", [a])

    def reshape(self, a: Node, rows: int, cols: int) -> Node:
        """The entries of ``a`` in column-major order, refilled into a
        ``rows`` x ``cols`` matrix column by column."""
        return self._add("reshape", [a], aux=(int(rows), int(cols)))

    def softmax(self, a: Node) -> Node:
        """Column-wise softmax: every column of the result sums to one.

        Each column is reduced as one contiguous block, so a column rounds
        exactly as it would in a one-column softmax.
        """
        return self._add("softmax", [a])

    def pick_neg_log_softmax(self, scores: Node, target) -> Node:
        """Fused -log softmax(scores)[target]; one target id per column."""
        tgt = [int(target)] if np.isscalar(target) else [int(t) for t in target]
        return self._add("pick_neg_log_softmax", [scores], aux={"targets": tgt})

    def squared_distance(self, a: Node, b: Node) -> Node:
        return self._add("squared_distance", [a, b])

    def sum(self, a: Node) -> Node:
        return self._add("sum", [a])

    def scale(self, a: Node, k: float) -> Node:
        return self._add("scale", [a], aux=float(k))

    # ---- execution ---------------------------------------------------------

    def forward(self) -> np.ndarray:
        """Evaluate all unevaluated nodes in insertion order; return the last value.

        Raises :class:`NonFiniteError` naming the first node whose value is
        not finite. Ops in ``FINITE_PRESERVING_OPS`` cannot turn finite inputs
        into a non-finite value, so they are not checked. A ``parameter`` node
        takes :meth:`Parameter.is_finite`, which scans the value only the first
        time after a :meth:`Parameter.changed`; whoever writes a parameter's
        value in place after it has been in a graph must call ``changed()``.
        """
        nodes = self.nodes
        if not nodes:
            raise GraphError("empty graph")
        with np.errstate(over="ignore"):      # overflow is reported as NonFiniteError
            for i in range(self._next_unevaluated, len(nodes)):
                node = nodes[i]
                op = node.op
                if node.value is None:
                    compute = _FORWARD.get(op)
                    if compute is None:
                        raise GraphError(f"unknown op {op!r}")
                    node.value = compute(node)
                if op == "parameter":
                    finite = node.param.is_finite()
                elif op in FINITE_PRESERVING_OPS:
                    continue
                else:
                    finite = np.isfinite(node.value).all()
                if not finite:
                    raise NonFiniteError(f"non-finite value at node {i} ({op})")
        self._next_unevaluated = len(nodes)
        return nodes[-1].value

    def backward(self):
        """Accumulate gradients of the final scalar node back through the graph.

        Gradients land in ``Parameter.grad``, added to whatever it already
        holds; a parameter used several times receives the sum over all
        paths. Branches that reach no parameter get no gradient.
        """
        if self._next_unevaluated != len(self.nodes):
            raise GraphError("backward called before forward")
        nodes = self.nodes
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


# Ops whose value is finite whenever their inputs are; forward() skips their
# finite check, so the first non-finite value is still caught at its source.
FINITE_PRESERVING_OPS = frozenset({
    "lookup_column", "concat_rows", "concat_cols", "transpose", "reshape",
    "tanh", "sigmoid", "relu", "step", "softmax"})


def _broadcastable(a, b):
    return (a.shape[0] == b.shape[0]) and (a.shape[1] == 1 or b.shape[1] == 1)


# ---- forward rules: node -> value ------------------------------------------------

def _fwd_lookup_column(node):
    return node.parents[0].value[:, node.aux]


def _fwd_matmul(node):
    a, b = node.parents[0].value, node.parents[1].value
    if a.shape[1] != b.shape[0]:
        raise GraphError(f"node {node.idx} matmul: {a.shape} x {b.shape} mismatch")
    return a @ b


def _fwd_add(node):
    a, b = node.parents[0].value, node.parents[1].value
    if a.shape != b.shape and not _broadcastable(a, b):
        raise GraphError(f"node {node.idx} add: {a.shape} + {b.shape} mismatch")
    return a + b


def _fwd_affine(node):
    parents = node.parents
    out = None
    for k in range(1, len(parents), 2):
        w, x = parents[k].value, parents[k + 1].value
        if w.shape[1] != x.shape[0]:
            raise GraphError(f"node {node.idx} affine: term {k // 2} "
                             f"{w.shape} x {x.shape} mismatch")
        out = _sum_into(node, out, w @ x)
    return _sum_into(node, out, parents[0].value)


def _sum_into(node, total, term):
    """``total + term`` with ``add``'s broadcasting, in place when shapes agree."""
    if total is None:
        return term
    if total.shape == term.shape:
        total += term
        return total
    if not _broadcastable(total, term):
        raise GraphError(f"node {node.idx} affine: {total.shape} + {term.shape} mismatch")
    return total + term


def _fwd_cmult(node):
    a, b = node.parents[0].value, node.parents[1].value
    if a.shape != b.shape:
        raise GraphError(f"node {node.idx} cmult: {a.shape} * {b.shape} mismatch")
    return a * b


def _fwd_concat_rows(node):
    vals = [p.value for p in node.parents]
    if len({v.shape[1] for v in vals}) != 1:
        raise GraphError(f"node {node.idx} concat_rows: column counts differ")
    node.aux = [v.shape[0] for v in vals]
    return np.concatenate(vals, axis=0)


def _fwd_concat_cols(node):
    vals = [p.value for p in node.parents]
    if len({v.shape[0] for v in vals}) != 1:
        raise GraphError(f"node {node.idx} concat_cols: row counts differ")
    node.aux = [v.shape[1] for v in vals]
    return np.concatenate(vals, axis=1)


def _fwd_reshape(node):
    v = node.parents[0].value
    rows, cols = node.aux
    if v.size != rows * cols:
        raise GraphError(f"node {node.idx} reshape: {v.shape} into ({rows}, {cols})")
    return v.reshape((rows, cols), order="F")


def _fwd_pick_neg_log_softmax(node):
    s = node.parents[0].value
    targets = node.aux["targets"]
    if len(targets) != s.shape[1]:
        raise GraphError(
            f"node {node.idx} pick_neg_log_softmax: {len(targets)} targets "
            f"for {s.shape[1]} columns")
    if np.any(np.isnan(s)):
        raise GraphError(f"node {node.idx}: NaN scores")
    # one max shift, exp and column sum serve both the softmax kept for
    # backward and the log partition function
    shifted = s - s.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=0, keepdims=True)
    node.aux["softmax"] = e / z
    losses = np.log(z[0]) - shifted[targets, np.arange(s.shape[1])]
    return losses.reshape(1, -1)


def _fwd_squared_distance(node):
    a, b = node.parents[0].value, node.parents[1].value
    if a.shape != b.shape:
        raise GraphError(f"node {node.idx} squared_distance: shape mismatch")
    return np.array([[np.sum((a - b) ** 2)]])


_FORWARD = {
    "lookup_column": _fwd_lookup_column,
    "matmul": _fwd_matmul,
    "add": _fwd_add,
    "affine": _fwd_affine,
    "cmult": _fwd_cmult,
    "concat_rows": _fwd_concat_rows,
    "concat_cols": _fwd_concat_cols,
    "transpose": lambda node: node.parents[0].value.T.copy(),
    "reshape": _fwd_reshape,
    "tanh": lambda node: np.tanh(node.parents[0].value),
    "sigmoid": lambda node: 1.0 / (1.0 + np.exp(-node.parents[0].value)),
    "relu": lambda node: np.maximum(node.parents[0].value, 0.0),
    "step": lambda node: np.where(node.parents[0].value > 0.0, 1.0, -1.0),
    "softmax": lambda node: _softmax_cols(np.asfortranarray(node.parents[0].value)),
    "pick_neg_log_softmax": _fwd_pick_neg_log_softmax,
    "squared_distance": _fwd_squared_distance,
    "sum": lambda node: np.array([[node.parents[0].value.sum()]]),
    "scale": lambda node: node.parents[0].value * node.aux,
}


# ---- backward rules: (node, its gradient) -> contributions to its parents ---------

def _give(node, contribution, fresh=False):
    """Add one gradient contribution into ``node``'s slot, creating the slot
    on the first one.

    A ``fresh`` contribution is a new array that nothing else refers to; it
    becomes the slot when it has the shape and layout of ``node.value``.
    Otherwise the slot starts as zeros shaped and laid out like the value.
    Either way every slot has the layout a zero-filled one would have, so the
    BLAS calls and reductions later applied to it round exactly alike.
    (Adopting skips a ``0.0 + contribution`` that could only turn -0.0 into
    +0.0, a difference that vanishes once added into a ``Parameter.grad``.)
    Views of ``g`` and ``g`` itself must not be marked fresh: two slots would
    share memory.
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
        node.grad = slot = np.zeros_like(node.value)
        slot += contribution


def _back_lookup_column(node, g):
    matrix = node.parents[0]
    if not matrix.needs_grad:
        return
    if matrix.grad is None:
        matrix.grad = np.zeros_like(matrix.value)
    idx = node.aux
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
        _give(a, g @ b.value.T, fresh=True)
    if b.needs_grad:
        _give(b, a.value.T @ g, fresh=True)


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
            _give(w, g_term @ x.value.T, fresh=True)
        if x.needs_grad:
            _give(x, w.value.T @ g_term, fresh=True)


def _back_cmult(node, g):
    a, b = node.parents
    if a.needs_grad:
        _give(a, g * b.value, fresh=True)
    if b.needs_grad:
        _give(b, g * a.value, fresh=True)


def _back_concat_rows(node, g):
    offset = 0
    for p, rows in zip(node.parents, node.aux):
        _give(p, g[offset:offset + rows, :])
        offset += rows


def _back_concat_cols(node, g):
    offset = 0
    for p, cols in zip(node.parents, node.aux):
        _give(p, g[:, offset:offset + cols])
        offset += cols


def _back_step(node, g):
    raise GraphError("step has no usable derivative; use tanh or relu")


def _back_softmax(node, g):
    p = node.value
    inner = (g * p).sum(axis=0, keepdims=True)
    _give(node.parents[0], p * (g - inner), fresh=True)


def _back_pick_neg_log_softmax(node, g):
    p = node.aux["softmax"]
    targets = node.aux["targets"]
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
    "scale": lambda node, g: _give(node.parents[0], g * node.aux, fresh=True),
}


def _softmax_cols(s: np.ndarray) -> np.ndarray:
    if np.any(np.isnan(s)):
        raise GraphError("NaN input to softmax")
    shifted = s - s.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def softmax(values) -> np.ndarray:
    """Plain (non-graph) max-shifted softmax over a vector or matrix columns."""
    return _softmax_cols(as_col(values))
