import gc
import math
import weakref

import numpy as np
import pytest

from helpers import (OP_GRADCHECK_CASES, max_gradient_error, random_params,
                     run_op_gradcheck)
from seqbench.autograd import Graph, GraphError, Parameter, softmax


def test_forward_affine():
    g = Graph()
    w = g.input([[2.0]])
    x = g.input([3.0])
    b = g.input([1.0])
    y = g.add(g.matmul(w, x), b)
    assert g.forward()[0, 0] == 7.0


def test_forward_nonlinearities_at_zero():
    g = Graph()
    z = g.input([0.0])
    t = g.tanh(z)
    s = g.sigmoid(z)
    g.concat_rows(t, s)
    out = g.forward()
    assert out[0, 0] == 0.0
    assert out[1, 0] == 0.5


def test_pick_neg_log_softmax_value():
    g = Graph()
    s = g.input([0.0, 0.0])
    loss = g.pick_neg_log_softmax(s, 0)
    assert g.forward()[0, 0] == pytest.approx(math.log(2), abs=1e-15)


def test_tanh_gradient_endpoints():
    for x, expect in [(0.0, 1.0), (20.0, 0.0), (-20.0, 0.0)]:
        g = Graph()
        p = Parameter("x", [x])
        g.sum(g.tanh(g.param(p)))
        g.forward()
        g.backward()
        assert p.grad[0, 0] == pytest.approx(expect, abs=1e-12)


def test_relu_gradient_gate():
    p = Parameter("x", [-1.0, 2.0])
    g = Graph()
    g.sum(g.relu(g.param(p)))
    g.forward()
    g.backward()
    assert p.grad[:, 0].tolist() == [0.0, 1.0]


def test_step_forward_only():
    g = Graph()
    p = Parameter("x", [-0.5, 0.5])
    out = g.step(g.param(p))
    g.sum(out)
    vals = g.forward()
    assert out.value[:, 0].tolist() == [-1.0, 1.0]
    with pytest.raises(GraphError, match="step"):
        g.backward()


def test_softmax_shift_invariance_and_sum():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = rng.normal(size=(6, 1)) * 3
        c = rng.uniform(-10, 10)
        p1 = softmax(s)
        p2 = softmax(s + c)
        assert np.abs(p1 - p2).max() < 1e-12
        assert abs(p1.sum() - 1.0) < 1e-12


def test_softmax_extreme_scores_no_overflow():
    p = softmax([1000.0, 0.0])
    assert p[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_softmax_nan_rejected():
    g = Graph()
    g.softmax(g.input([np.nan, 0.0]))
    with pytest.raises(GraphError):
        g.forward()


def test_forward_determinism():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(4, 4))
    x = rng.normal(size=(4, 1))

    def run():
        g = Graph()
        g.tanh(g.matmul(g.input(w), g.input(x)))
        return g.forward().copy()

    assert np.array_equal(run(), run())


def test_gradient_accumulation_shared_parameter():
    # y = w*x + w*z : w used twice must receive both path gradients
    w = Parameter("w", [[1.5]])
    x, z = [[2.0]], [[3.0]]
    g = Graph()
    wn = g.param(w)
    y = g.add(g.matmul(wn, g.input(x)), g.matmul(wn, g.input(z)))
    g.sum(y)
    g.forward()
    g.backward()
    assert w.grad[0, 0] == pytest.approx(5.0)

    # same function with the parameter registered as two graph nodes
    w2 = Parameter("w", [[1.5]])
    g2 = Graph()
    y2 = g2.add(g2.matmul(g2.param(w2), g2.input(x)),
                g2.matmul(g2.param(w2), g2.input(z)))
    g2.sum(y2)
    g2.forward()
    g2.backward()
    assert w2.grad[0, 0] == pytest.approx(5.0)


def test_backward_requires_forward_and_scalar():
    g = Graph()
    p = Parameter("x", [1.0, 2.0])
    g.tanh(g.param(p))
    with pytest.raises(GraphError, match="before forward"):
        g.backward()
    g.forward()
    with pytest.raises(GraphError, match="scalar"):
        g.backward()


def test_shape_mismatch_names_node():
    g = Graph()
    a = g.input(np.ones((2, 2)))
    b = g.input(np.ones((3, 1)))
    g.matmul(a, b)
    with pytest.raises(GraphError, match="node 2"):
        g.forward()


@pytest.mark.parametrize("name", sorted(OP_GRADCHECK_CASES))
def test_op_gradients_match_finite_differences(name):
    # each op's output feeds a fixed random projection so that every entry
    # affects the scalar loss under comparison
    assert run_op_gradcheck(name, trials=50) < 1e-6


def test_pick_neg_log_softmax_gradient():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        v, cols = int(rng.integers(3, 7)), int(rng.integers(1, 4))
        params = random_params(rng, [(v, cols)], scale=1.0)
        targets = [int(t) for t in rng.integers(0, v, size=cols)]

        def build():
            g = Graph()
            losses = g.pick_neg_log_softmax(g.param(params[0]), targets)
            g.sum(losses)
            return g

        worst = max(worst, max_gradient_error(build, params))
    assert worst < 1e-6


def test_squared_distance_gradient():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        params = random_params(rng, [(n, 1), (n, 1)])

        def build():
            g = Graph()
            g.squared_distance(g.param(params[0]), g.param(params[1]))
            return g

        worst = max(worst, max_gradient_error(build, params))
    assert worst < 1e-6


def test_graph_freed_without_cycle_collector():
    # nodes must not point back at their graph: a finished graph, with all
    # its values and gradients, is freed by reference counting alone
    w = Parameter("w", [[0.5, -0.2], [0.1, 0.3]])
    gc.disable()
    try:
        g = Graph()
        x = g.input([1.0, 2.0])
        g.sum(g.tanh(g.matmul(g.param(w), x)))
        g.forward()
        g.backward()
        ref = weakref.ref(g)
        del g, x
        assert ref() is None
    finally:
        gc.enable()
