"""Reverse-mode automatic differentiation over explicit computation graphs.

Values are dense float64 numpy arrays of rank 2; column vectors have shape
(n, 1). A :class:`Graph` is built per training example (or per decode step),
nodes are appended in construction order, which is already a topological
order, and two dynamic programs run over the node list:

* ``forward()`` evaluates unevaluated nodes in insertion order;
* ``backward()`` seeds the final scalar node with gradient one and accumulates
  gradients into parents in reverse insertion order, pushing parameter-node
  gradients into their backing :class:`Parameter`.
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

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class GraphError(Exception):
    pass


class NonFiniteError(GraphError):
    """A node evaluated to NaN/Inf (numerical blowup, not a structural bug)."""


class Node:
    __slots__ = ("idx", "op", "parents", "value", "grad", "aux", "param")

    def __init__(self, idx, op, parents, aux=None, param=None):
        self.idx = idx
        self.op = op
        self.parents = parents
        self.value = None
        self.grad = None
        self.aux = aux
        self.param = param

    @property
    def shape(self):
        return None if self.value is None else self.value.shape


class Graph:
    """Append-only DAG of value nodes; create one per example or minibatch."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._next_unevaluated = 0
        self._backward_done = False

    def _add(self, op, parents, aux=None, param=None) -> Node:
        node = Node(len(self.nodes), op, [p.idx for p in parents],
                    aux=aux, param=param)
        self.nodes.append(node)
        return node

    # ---- node constructors -------------------------------------------------

    def input(self, values) -> Node:
        node = self._add("input", [])
        node.value = as_col(values)
        return node

    def param(self, parameter: Parameter) -> Node:
        node = self._add("parameter", [], param=parameter)
        node.value = parameter.value
        return node

    def lookup_column(self, matrix: Node, index) -> Node:
        """Select column(s) of a matrix; ``index`` is an int or sequence of ints."""
        idx = [int(index)] if np.isscalar(index) else [int(i) for i in index]
        return self._add("lookup_column", [matrix], aux=idx)

    def matmul(self, a: Node, b: Node) -> Node:
        return self._add("matmul", [a, b])

    def add(self, a: Node, b: Node) -> Node:
        """Elementwise sum; a (n,1) operand broadcasts across (n, m)."""
        return self._add("add", [a, b])

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

    def softmax(self, a: Node) -> Node:
        """Column-wise softmax: every column of the result sums to one."""
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
        """Evaluate all unevaluated nodes in insertion order; return the last value."""
        if not self.nodes:
            raise GraphError("empty graph")
        for i in range(self._next_unevaluated, len(self.nodes)):
            node = self.nodes[i]
            if node.value is None:
                node.value = self._compute(node)
            if not np.all(np.isfinite(node.value)):
                raise NonFiniteError(f"non-finite value at node {i} ({node.op})")
        self._next_unevaluated = len(self.nodes)
        return self.nodes[-1].value

    def _compute(self, node: Node) -> np.ndarray:
        vals = [self.nodes[p].value for p in node.parents]
        op = node.op
        if op == "lookup_column":
            return vals[0][:, node.aux]
        if op == "matmul":
            a, b = vals
            if a.shape[1] != b.shape[0]:
                raise GraphError(
                    f"node {node.idx} matmul: {a.shape} x {b.shape} mismatch")
            with np.errstate(over="ignore"):    # forward() flags non-finite results
                return a @ b
        if op == "add":
            a, b = vals
            if a.shape != b.shape and not self._broadcastable(a, b):
                raise GraphError(f"node {node.idx} add: {a.shape} + {b.shape} mismatch")
            return a + b
        if op == "cmult":
            a, b = vals
            if a.shape != b.shape:
                raise GraphError(f"node {node.idx} cmult: {a.shape} * {b.shape} mismatch")
            return a * b
        if op == "concat_rows":
            if len({v.shape[1] for v in vals}) != 1:
                raise GraphError(f"node {node.idx} concat_rows: column counts differ")
            node.aux = [v.shape[0] for v in vals]
            return np.concatenate(vals, axis=0)
        if op == "concat_cols":
            if len({v.shape[0] for v in vals}) != 1:
                raise GraphError(f"node {node.idx} concat_cols: row counts differ")
            node.aux = [v.shape[1] for v in vals]
            return np.concatenate(vals, axis=1)
        if op == "transpose":
            return vals[0].T.copy()
        if op == "tanh":
            return np.tanh(vals[0])
        if op == "sigmoid":
            with np.errstate(over="ignore"):        # exp overflow saturates to 0/1
                return 1.0 / (1.0 + np.exp(-vals[0]))
        if op == "relu":
            return np.maximum(vals[0], 0.0)
        if op == "step":
            return np.where(vals[0] > 0.0, 1.0, -1.0)
        if op == "softmax":
            return _softmax_cols(vals[0])
        if op == "pick_neg_log_softmax":
            s = vals[0]
            targets = node.aux["targets"]
            if len(targets) != s.shape[1]:
                raise GraphError(
                    f"node {node.idx} pick_neg_log_softmax: {len(targets)} targets "
                    f"for {s.shape[1]} columns")
            if np.any(np.isnan(s)):
                raise GraphError(f"node {node.idx}: NaN scores")
            p = _softmax_cols(s)
            node.aux["softmax"] = p
            cols = np.arange(s.shape[1])
            shifted = s - s.max(axis=0, keepdims=True)
            logz = np.log(np.exp(shifted).sum(axis=0))
            losses = logz - shifted[targets, cols]
            return losses.reshape(1, -1)
        if op == "squared_distance":
            a, b = vals
            if a.shape != b.shape:
                raise GraphError(f"node {node.idx} squared_distance: shape mismatch")
            return np.array([[np.sum((a - b) ** 2)]])
        if op == "sum":
            return np.array([[vals[0].sum()]])
        if op == "scale":
            return vals[0] * node.aux
        raise GraphError(f"unknown op {op!r}")

    @staticmethod
    def _broadcastable(a, b):
        return (a.shape[0] == b.shape[0]) and (a.shape[1] == 1 or b.shape[1] == 1)

    def backward(self):
        """Accumulate gradients of the final scalar node into every parent.

        Parameters referenced several times receive the sum over all paths;
        their gradients are also pushed into ``Parameter.grad``.
        """
        if self._next_unevaluated != len(self.nodes):
            raise GraphError("backward called before forward")
        final = self.nodes[-1]
        if final.value.shape != (1, 1):
            raise GraphError(f"loss node must be scalar, got shape {final.value.shape}")
        for node in self.nodes:
            node.grad = np.zeros_like(node.value)
        final.grad[...] = 1.0
        for node in reversed(self.nodes):
            if node.parents or node.op == "parameter":
                self._accumulate(node)
        self._backward_done = True

    def _accumulate(self, node: Node):
        g = node.grad
        op = node.op
        if op == "parameter":
            node.param.grad += g
            return
        parents = [self.nodes[p] for p in node.parents]
        vals = [p.value for p in parents]
        if op == "lookup_column":
            np.add.at(parents[0].grad, (slice(None), node.aux), g)
        elif op == "matmul":
            parents[0].grad += g @ vals[1].T
            parents[1].grad += vals[0].T @ g
        elif op == "add":
            for p in parents:
                if p.value.shape == g.shape:
                    p.grad += g
                else:   # broadcast (n,1) across columns
                    p.grad += g.sum(axis=1, keepdims=True)
        elif op == "cmult":
            parents[0].grad += g * vals[1]
            parents[1].grad += g * vals[0]
        elif op == "concat_rows":
            offset = 0
            for p, rows in zip(parents, node.aux):
                p.grad += g[offset:offset + rows, :]
                offset += rows
        elif op == "concat_cols":
            offset = 0
            for p, cols in zip(parents, node.aux):
                p.grad += g[:, offset:offset + cols]
                offset += cols
        elif op == "transpose":
            parents[0].grad += g.T
        elif op == "tanh":
            parents[0].grad += g * (1.0 - node.value ** 2)
        elif op == "sigmoid":
            parents[0].grad += g * node.value * (1.0 - node.value)
        elif op == "relu":
            parents[0].grad += g * (vals[0] > 0.0)
        elif op == "step":
            raise GraphError("step has no usable derivative; use tanh or relu")
        elif op == "softmax":
            p = node.value
            inner = (g * p).sum(axis=0, keepdims=True)
            parents[0].grad += p * (g - inner)
        elif op == "pick_neg_log_softmax":
            p = node.aux["softmax"]
            targets = node.aux["targets"]
            ds = p * g            # g has shape (1, cols), broadcasts over rows
            ds[targets, np.arange(len(targets))] -= g[0]
            parents[0].grad += ds
        elif op == "squared_distance":
            diff = 2.0 * g[0, 0] * (vals[0] - vals[1])
            parents[0].grad += diff
            parents[1].grad -= diff
        elif op == "sum":
            parents[0].grad += g[0, 0]
        elif op == "scale":
            parents[0].grad += g * node.aux
        elif op == "input":
            pass
        else:
            raise GraphError(f"unknown op {op!r}")


def _softmax_cols(s: np.ndarray) -> np.ndarray:
    if np.any(np.isnan(s)):
        raise GraphError("NaN input to softmax")
    shifted = s - s.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def softmax(values) -> np.ndarray:
    """Plain (non-graph) max-shifted softmax over a vector or matrix columns."""
    return _softmax_cols(as_col(values))
