import numpy as np
import pytest

from seqbench.autograd import Graph, NonFiniteError, Parameter
from seqbench.optim import (SGD, Adam, AdaGrad, EpochTracker, Momentum,
                            TrainingDivergence, clip_gradients, global_norm,
                            make_optimizer)


def param_with_grad(value, grad):
    p = Parameter("p", value)
    p.grad[...] = np.asarray(grad, dtype=float).reshape(p.grad.shape)
    return p


def test_sgd_step():
    p = param_with_grad([1.0], [2.0])
    SGD([p], lr=0.1).step()
    assert p.value[0, 0] == pytest.approx(0.8)


def test_adam_first_step_magnitude():
    # bias correction makes the very first update approximately lr * sign(g)
    p = param_with_grad([0.0], [0.5])
    Adam([p], lr=0.001).step()
    assert p.value[0, 0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_bias_corrected_trajectory():
    # two steps with a constant gradient, checked against the closed form
    g = 0.5
    p = param_with_grad([0.0], [g])
    opt = Adam([p], lr=0.01)
    opt.step()
    m = 0.1 * g
    v = 0.001 * g * g
    expected = -0.01 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    assert p.value[0, 0] == pytest.approx(expected, rel=1e-12)
    p.grad[...] = g
    opt.step()
    m = 0.9 * m + 0.1 * g
    v = 0.999 * v + 0.001 * g * g
    expected += -0.01 * (m / (1 - 0.9 ** 2)) / (np.sqrt(v / (1 - 0.999 ** 2)) + 1e-8)
    assert p.value[0, 0] == pytest.approx(expected, rel=1e-12)


def test_zero_gradient_leaves_parameters_unchanged():
    for cls in (SGD, Momentum, AdaGrad):
        p = param_with_grad([3.0, -1.0], [0.0, 0.0])
        cls([p], lr=0.5).step()
        assert p.value[:, 0].tolist() == [3.0, -1.0]


def test_momentum_accumulates_velocity():
    p = param_with_grad([0.0], [1.0])
    opt = Momentum([p], lr=0.1, momentum=0.5)
    opt.step()           # v=1, theta=-0.1
    p.grad[...] = 1.0
    opt.step()           # v=1.5, theta=-0.25
    assert p.value[0, 0] == pytest.approx(-0.25)


def test_adagrad_shrinks_frequent_updates():
    p = param_with_grad([0.0, 0.0], [1.0, 1.0])
    opt = AdaGrad([p], lr=1.0)
    opt.step()
    first = -p.value[0, 0]
    p.grad[...] = np.array([[1.0], [0.0]])
    opt.step()
    second = -(p.value[0, 0] + first)
    assert second < first    # accumulated squared grads damp the step


def test_clip_gradients():
    a = np.array([[3.0], [4.0]])        # norm 5
    b = np.array([[np.sqrt(75.0)]])     # total norm 10
    clip_gradients([a, b], 5.0)
    assert global_norm([a, b]) == pytest.approx(5.0)
    assert a[0, 0] == pytest.approx(1.5)

    c = np.array([[3.0]])
    clip_gradients([c], 5.0)
    assert c[0, 0] == 3.0               # norm below threshold: unchanged

    z = np.zeros((2, 1))
    clip_gradients([z], 5.0)
    assert not z.any()


def test_clipped_step_matches_clip_then_update():
    rng = np.random.default_rng(3)
    values = [rng.normal(size=(3, 2)), rng.normal(size=(4, 1))]
    grads = [10.0 * rng.normal(size=v.shape) for v in values]
    clipped = [p.copy() for p in grads]
    clip_gradients(clipped, 1.5)
    expected = [v - 0.1 * g for v, g in zip(values, clipped)]
    params = [param_with_grad(v, g) for v, g in zip(values, grads)]
    SGD(params, lr=0.1, clip_norm=1.5).step()
    for p, want in zip(params, expected):
        assert np.array_equal(p.value, want)


def test_non_finite_gradient_norm_stops_before_scaling():
    params = [param_with_grad([1.0], [3.0]), param_with_grad([1.0], [np.inf])]
    with pytest.raises(TrainingDivergence):
        SGD(params, lr=0.1, clip_norm=1.0).step()
    assert params[0].grad[0, 0] == 3.0 and params[0].value[0, 0] == 1.0


def test_learning_rate_must_be_positive():
    with pytest.raises(ValueError):
        SGD([Parameter("p", [1.0])], lr=0.0)


def test_make_optimizer_rejects_unknown():
    with pytest.raises(ValueError):
        make_optimizer("sgdm", [], lr=0.1)


def test_epoch_tracker_decay_and_restore():
    p = Parameter("p", [1.0])
    opt = SGD([p], lr=0.4)
    tracker = EpochTracker(opt)
    assert tracker.report(-10.0)
    p.value[...] = 99.0
    assert not tracker.report(-12.0)    # worse epoch: lr halves
    assert opt.lr == pytest.approx(0.2)
    tracker.restore_best()
    assert p.value[0, 0] == 1.0


def assert_named_at_parameter_node(p):
    """The next graph over ``p`` reports its non-finite value at its node."""
    g = Graph()
    node = g.param(p)
    g.tanh(node)        # tanh(-inf) is finite: only the parameter check can fire
    with pytest.raises(NonFiniteError, match=rf"node {node.idx} \(parameter\)"):
        g.forward()


@pytest.mark.parametrize("make", [SGD, Momentum, AdaGrad, Adam])
def test_step_that_overflows_a_weight_is_caught_by_the_next_graph(make):
    p = Parameter("w", [-1e308, 1.0])
    g = Graph()
    g.tanh(g.param(p))
    g.forward()                              # p is now known to be finite
    p.grad[...] = [[1.0], [0.0]]
    with np.errstate(over="ignore"):
        make([p], lr=1e308).step()           # every rule's first update is ~ -1e308
    assert p.value[0, 0] == -np.inf and p.value[1, 0] == 1.0
    assert_named_at_parameter_node(p)


def test_restore_best_of_a_non_finite_snapshot_is_caught_by_the_next_graph():
    p = Parameter("p", [np.nan])
    tracker = EpochTracker(SGD([p], lr=0.1))
    tracker.report(-1.0)                     # the snapshot holds the NaN
    p.value[...] = 0.0
    p.changed()
    g = Graph()
    g.tanh(g.param(p))
    g.forward()
    tracker.restore_best()
    assert_named_at_parameter_node(p)
