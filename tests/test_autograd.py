import gc
import math
import re
import weakref

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (OP_GRADCHECK_CASES, max_gradient_error, random_params,
                     run_op_gradcheck, same_bits, two_pass_pick_neg_log_softmax)
from seqbench import corpus as C
from seqbench.autograd import (_BACKWARD, FINITE_PRESERVING_OPS, Eager, Graph,
                               GraphError, NonFiniteError, Ops, Parameter, _all_finite,
                               _dot, _pick_neg_log_softmax, softmax)
from seqbench.nnet import RNNLM, RecurrentCell


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


@pytest.mark.parametrize("cols", [1, 6])
def test_pick_neg_log_softmax_matches_two_pass_formula_bitwise(cols):
    rng = np.random.default_rng(cols)
    s = rng.normal(scale=4.0, size=(500, cols))       # C-ordered when cols > 1
    targets = rng.integers(0, 500, size=cols)
    g = Graph()
    loss = g.pick_neg_log_softmax(g.input(s), targets)
    g.forward()
    want_loss, want_softmax = two_pass_pick_neg_log_softmax(s, targets)
    assert np.array_equal(loss.value, want_loss)
    assert np.array_equal(loss.settings[1]["softmax"], want_softmax)


def test_softmax_columns_round_as_one_column_softmax():
    s = np.random.default_rng(4).normal(scale=5.0, size=(5000, 5))   # C-ordered
    g = Graph()
    batched = g.softmax(g.input(s))
    single = [g.softmax(g.input(s[:, b:b + 1].copy())) for b in range(5)]
    g.forward()
    for b, node in enumerate(single):
        assert np.array_equal(batched.value[:, b], node.value[:, 0])


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
    with pytest.raises(GraphError):
        g.softmax(g.input([np.nan, 0.0]))


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

    # same function with g.param called at each use
    w2 = Parameter("w", [[1.5]])
    g2 = Graph()
    y2 = g2.add(g2.matmul(g2.param(w2), g2.input(x)),
                g2.matmul(g2.param(w2), g2.input(z)))
    g2.sum(y2)
    g2.forward()
    g2.backward()
    assert w2.grad[0, 0] == pytest.approx(5.0)


def test_backward_requires_scalar():
    g = Graph()
    p = Parameter("x", [1.0, 2.0])
    g.tanh(g.param(p))
    with pytest.raises(GraphError, match="scalar"):
        g.backward()


@pytest.mark.parametrize("call", ["forward", "backward"])
def test_an_empty_graph_is_a_graph_error(call):
    with pytest.raises(GraphError, match="^empty graph$"):
        getattr(Graph(), call)()


def test_shape_mismatch_names_node():
    g = Graph()
    a = g.input(np.ones((2, 2)))
    b = g.input(np.ones((3, 1)))
    with pytest.raises(GraphError, match="node 2"):
        g.matmul(a, b)


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


def test_a_failed_op_appends_no_node():
    # the node an error names is the one that would have been appended next
    g = Graph()
    a, b = g.input(np.ones((2, 2))), g.input(np.ones((3, 1)))
    nan = Parameter("nan", [[np.nan]])
    for build in (lambda: g.matmul(a, b), lambda: g.concat_cols(a, b),
                  lambda: g.rows(a, 1, 3), lambda: g.param(nan),
                  lambda: g.input([np.inf]), lambda: g.scale(g.input([1e308]), 1e10)):
        with g, pytest.raises(GraphError) as raised:
            build()
        assert re.search(rf"\bnode {len(g.nodes)}\b", str(raised.value))
    assert [node.op for node in g.nodes] == ["input", "input", "input"]


def test_param_is_one_node_per_graph():
    w = Parameter("w", [[1.0, 2.0]])
    g = Graph()
    assert g.param(w) is g.param(w)
    assert sum(node.op == "parameter" for node in g.nodes) == 1
    assert Graph().param(w) is not g.param(w)


def test_loss_node_may_be_a_parameter():
    p = Parameter("p", [[0.5]])
    p.grad[...] = 2.0           # gradients add to what the parameter holds
    g = Graph()
    g.param(p)
    assert g.forward()[0, 0] == 0.5
    g.backward()
    assert p.grad[0, 0] == 3.0


def test_constant_branches_get_no_gradient():
    w = Parameter("w", [[0.5, -1.0]])
    g = Graph()
    x = g.input([1.0, 2.0])
    mask = g.tanh(g.input([0.3]))
    y = g.matmul(g.param(w), x)
    g.sum(g.cmult(y, mask))
    g.forward()
    g.backward()
    assert x.grad is None and mask.grad is None
    assert np.array_equal(w.grad, (np.tanh(0.3) * np.array([[1.0, 2.0]])))


def test_add_parents_get_separate_gradient_slots():
    # both parents of the inner add receive the same gradient array first; y
    # then receives more through t, which must not leak into z's gradient
    rng = np.random.default_rng(3)
    params = random_params(rng, [(3, 2), (3, 2)])
    weights = rng.normal(size=(3, 2))

    def build():
        g = Graph()
        y, z = g.tanh(g.param(params[0])), g.tanh(g.param(params[1]))
        t = g.tanh(y)
        g.sum(g.cmult(g.add(g.add(y, z), t), g.input(weights)))
        return g

    assert max_gradient_error(build, params) < 1e-6


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("consumer", ["concat_rows", "transpose"])
def test_a_slot_copied_from_a_view_of_a_gradient_has_the_values_layout(consumer, order):
    # concat_rows sends each part a view of its own gradient, transpose the
    # transposed view: the part's slot is a copy laid out like its value
    rng = np.random.default_rng(4)
    w = Parameter("w", rng.normal(size=(3, 3)))
    g = Graph()
    pre = g.param(w) if order == "C" else g.lookup_column(g.param(w), [2, 0, 1])
    v = g.tanh(pre)
    other = "F" if order == "C" else "C"
    assert v.value.flags[f"{order}_CONTIGUOUS"] and not v.value.flags[f"{other}_CONTIGUOUS"]
    out = (g.concat_rows(v, g.input(np.ones((2, 3)))) if consumer == "concat_rows"
           else g.transpose(v))
    g.sum(g.cmult(out, g.input(rng.normal(size=out.shape))))
    g.backward()
    assert out.op == consumer and v.grad.shape == v.value.shape
    assert v.grad.strides == v.value.strides
    assert not np.shares_memory(v.grad, out.grad)
    view = out.grad[:3] if consumer == "concat_rows" else out.grad.T
    assert same_bits(v.grad, view)


def _affine_pair(rng, bias_cols, terms, cols, shared_weight):
    n, k = (int(i) for i in rng.integers(1, 5, size=2))
    bias = Parameter("b", rng.normal(size=(n, bias_cols)))
    weight = Parameter("W", rng.normal(size=(n, k)))
    pairs = []
    for t in range(terms):
        if not shared_weight:
            k = int(rng.integers(1, 5))
            weight = Parameter(f"W{t}", rng.normal(size=(n, k)))
        pairs.append((weight, Parameter(f"x{t}", rng.normal(size=(k, cols)))))
    return bias, pairs


def test_affine_is_bitwise_the_matmul_add_chain():
    rng = np.random.default_rng(3)
    for trial in range(60):
        cols = int(rng.integers(1, 5))
        # a weight shared by every term receives its contributions in order
        bias, pairs = _affine_pair(rng, 1 if trial % 2 else cols,
                                   int(rng.integers(1, 4)), cols, trial % 3 == 0)
        projection = rng.normal(size=(bias.value.shape[0], cols))
        params = list({id(p): p for pair in [(bias,)] + pairs for p in pair}.values())

        def run(fused):
            for p in params:
                p.zero_grad()
            g = Graph()
            # the inputs pass through tanh so their gradients flow through nodes
            terms = [(g.param(w), g.tanh(g.param(x))) for w, x in pairs]
            if fused:
                out = g.affine(g.param(bias), *[n for term in terms for n in term])
            else:
                out = g.matmul(*terms[0])
                for term in terms[1:]:
                    out = g.add(out, g.matmul(*term))
                out = g.add(out, g.param(bias))
            g.sum(g.cmult(out, g.input(projection)))
            g.forward()
            g.backward()
            return out.value.copy(), [p.grad.copy() for p in params]

        fused_value, fused_grads = run(True)
        chain_value, chain_grads = run(False)
        assert np.array_equal(fused_value, chain_value)
        for a, b in zip(fused_grads, chain_grads):
            assert np.array_equal(a, b)


# (rows, inner, cols) of the products the benchmark models form: copy-task
# (E=16, H=24, V=12, bidirectional), wide-vocab (E=H=32, V=5,000) and lm-train
# (E=64, H=128, B=32, V~1,000), forward and as backward's weight and input
# gradients, one column and one-sentence target widths
MODEL_PRODUCT_SHAPES = [
    (96, 1, 64), (96, 1, 24), (96, 64, 1), (96, 24, 1), (64, 96, 1), (12, 1, 72),
    (12, 72, 6), (12, 6, 72), (72, 12, 6), (24, 48, 5), (1, 24, 5),
    (512, 1, 128), (952, 1, 128), (128, 1, 96), (5000, 96, 1), (5000, 8, 96),
    (96, 5000, 8), (5000, 1, 96), (96, 5000, 1),
    (512, 32, 128), (512, 32, 64), (512, 128, 32), (128, 512, 32), (952, 128, 32),
    (952, 32, 128)]


def _product_operands(rng, rows, inner, cols):
    """Every C- and F-ordered (transposed) layout of a rows x inner by
    inner x cols product."""
    a = rng.normal(size=(rows, inner))
    b = rng.normal(size=(inner, cols))
    for left in (a, np.ascontiguousarray(a.T).T):
        for right in (b, np.ascontiguousarray(b.T).T):
            yield left, right


@pytest.mark.parametrize("rows, inner, cols", [
    (rows, inner, cols) for rows in (1, 3, 17) for inner in (1, 2, 7, 64)
    for cols in (1, 2, 5)] + MODEL_PRODUCT_SHAPES)
def test_the_product_helper_is_matmul_bit_for_bit(rows, inner, cols):
    rng = np.random.default_rng(rows * 10_000 + inner * 100 + cols)
    for a, b in _product_operands(rng, rows, inner, cols):
        product, reference = _dot(a, b), a @ b
        assert product.strides == reference.strides
        assert same_bits(product, reference)


def test_lstm_reads_a_cell_of_n_rows_or_the_last_n_rows_of_h_and_c():
    rng = np.random.default_rng(8)
    pre, cell = rng.normal(size=(12, 2)), rng.normal(size=(3, 2))
    hc = np.vstack([rng.normal(size=(3, 2)), cell])
    with Eager() as e:
        assert same_bits(e.lstm(pre, hc, c_is_hc=True), e.lstm(pre, cell))
        assert same_bits(e.lstm(pre[:9], hc, forget=False, c_is_hc=True),
                         e.lstm(pre[:9], cell, forget=False))
        for bad_pre, bad_cell, c_is_hc in (
                (pre, cell[:2], False), (pre, np.vstack([hc, cell]), True),
                (pre, hc[:, :1], True), (pre[:10], cell, False),
                (pre, cell, True), (pre, hc[:5], True), (pre, hc, False)):
            with pytest.raises(GraphError, match="lstm: gates"):
                e.lstm(bad_pre, bad_cell, c_is_hc=c_is_hc)


def test_a_cell_of_2n_rows_not_marked_as_h_and_c_is_rejected():
    # two n-row cells stacked, as a bidirectional bridge might stack them,
    # are not a previous step's [h; c]: read as one, half of them would be lost
    rng = np.random.default_rng(9)
    g = Graph()
    pre = g.input(rng.normal(size=(12, 2)))
    cells = g.concat_rows(g.input(rng.normal(size=(3, 2))),
                          g.input(rng.normal(size=(3, 2))))
    with pytest.raises(GraphError, match=r"node 4 lstm: gates \(12, 2\) for cell \(6, 2\)"):
        g.lstm(pre, cells)


def test_affine_rejects_bad_arity_and_shapes():
    g = Graph()
    b = g.input(np.zeros((2, 1)))
    with pytest.raises(GraphError, match="pairs"):
        g.affine(b)
    with pytest.raises(GraphError, match="pairs"):
        g.affine(b, g.input(np.ones((2, 2))))
    w, x = g.input(np.ones((2, 3))), g.input(np.ones((2, 1)))
    with pytest.raises(GraphError, match="affine"):
        g.affine(b, w, x)


class PerUseGraph(Graph):
    """A graph in which every ``param(target)`` call adds a fresh copy of
    ``target``: the one-node-per-use layout that memoized parameters replace."""

    def __init__(self, target):
        super().__init__()
        self.target = target
        self.copies = []

    def param(self, parameter):
        if parameter is not self.target:
            return super().param(parameter)
        copy = Parameter(parameter.name, parameter.value)
        self.copies.append(copy)
        return super().param(copy)


def test_shared_embedding_gradient_matches_per_use_copies_bitwise():
    # a small vocabulary in a wide batch repeats ids within every time step
    words = "a b c d".split()
    rng = np.random.default_rng(7)
    vocab = C.build_vocab([" ".join(words)])
    sents = [C.encode(vocab, list(rng.choice(words, size=int(rng.integers(2, 7)))),
                      append_eos=True) for _ in range(24)]
    model = RNNLM(vocab, cell="lstm_forget", embed_size=5, hidden_size=6,
                  rng=np.random.default_rng(8))
    batch = C.make_batches(sents, 24)[0]

    g = Graph()
    model.batch_loss(g, batch)
    shared_loss = g.forward()[0, 0]
    g.backward()
    shared = [p.grad.copy() for p in model.parameters()]
    for p in model.parameters():
        p.zero_grad()

    per_use = PerUseGraph(model.M)
    model.batch_loss(per_use, batch)
    assert per_use.forward()[0, 0] == shared_loss
    per_use.backward()
    assert len(per_use.copies) == batch.token_matrix.shape[0]
    expected = np.zeros_like(model.M.value)
    for copy in reversed(per_use.copies):     # the order backward reaches them
        expected += copy.grad
    assert np.array_equal(shared[0], expected)
    for p, grad in zip(model.parameters()[1:], shared[1:]):
        assert np.array_equal(p.grad, grad)


# ---- NonFiniteError names the first non-finite node -----------------------------

def _unaligned(values):
    """``values`` as a float64 view at an odd offset into a byte buffer, as
    model files hold tensors."""
    values = np.asarray(values, dtype=np.float64)
    buf = bytearray(values.nbytes + 3)
    view = np.frombuffer(buf, dtype="<f8", count=values.size, offset=3).reshape(values.shape)
    view[...] = values
    return view


@pytest.mark.parametrize("value", [
    np.zeros((0, 3)), np.array(2.5), np.full((4, 3), 0.25),
    np.full((4, 3), 1e200), np.full((2, 2), -1e200),      # squares beyond the float range
    np.array([[1e308, -1e308]]), np.array([[1e200, np.nan]]), np.array([[np.nan, 1.0]]),
    np.array([[np.inf]]), np.array([[1.0], [-np.inf]]), np.array([[-np.inf, np.inf]]),
    _unaligned([[0.5, -0.25], [3.0, 1e200]]), _unaligned([[0.5, np.nan]])],
    ids=["empty", "scalar", "finite", "1e200", "-1e200", "1e308", "1e200-nan", "nan",
         "inf", "-inf", "both-infs", "unaligned-1e200", "unaligned-nan"])
def test_all_finite_agrees_with_an_entrywise_scan(value):
    expected = bool(np.isfinite(value).all())
    assert _all_finite(value) is expected


def test_nan_parameter_is_named_at_its_node():
    w = Parameter("w", [[1.0, np.nan]])
    g = Graph()
    g.input([1.0, 2.0])
    with pytest.raises(NonFiniteError, match=r"node 1 \(parameter\)"):
        g.param(w)


def test_matmul_overflow_is_named_at_the_matmul():
    g = Graph()
    a, b = g.input([[1e200]]), g.input([1e200])
    with g, pytest.raises(NonFiniteError, match=r"node 2 \(matmul\)"):
        g.matmul(a, b)


@pytest.mark.parametrize("kind", ["lstm", "lstm_forget"])
def test_an_overflowing_lstm_affine_is_reported_at_the_affine(kind):
    # lstm is not checked: the Inf is caught where it is made, in the gates'
    # affine, under both evaluators
    cell = RecurrentCell(kind, 2, 3, np.random.default_rng(0))
    cell.params["W_x"].value[1, 0] = 1e200
    cell.params["W_x"].changed()
    x = np.array([[1e200], [1.0]])
    g = Graph()
    with g, pytest.raises(NonFiniteError, match=r"\(affine\)$"):
        cell.step(g, g.input(x), cell.initial_state(g))
    with Eager() as e, pytest.raises(NonFiniteError, match=r"eager op \(affine\)$"):
        cell.step(e, e.input(x), cell.initial_state(e))


@pytest.mark.parametrize("where", [(0, 0), (3, 1), (4, 2)])
def test_a_nan_score_anywhere_in_a_column_is_reported(where):
    # the column maxima carry the NaN: no scan over every score is needed
    s = np.arange(15.0).reshape(5, 3)
    s[where] = np.nan
    s[0, 1], s[1, 2] = np.inf, -np.inf
    with pytest.raises(GraphError, match="^NaN input to softmax$"):
        softmax(s)
    with pytest.raises(GraphError, match="^pick_neg_log_softmax: NaN scores$"):
        _pick_neg_log_softmax(s, [0, 1, 2])


def test_infinite_loss_from_finite_scores_is_caught():
    g = Graph()
    scores = g.input([1e308, -1e308])
    with g, pytest.raises(NonFiniteError, match=r"node 1 \(pick_neg_log_softmax\)"):
        g.pick_neg_log_softmax(scores, 1)


FINITE_PRESERVING_BUILDERS = {
    "lookup_column": lambda g, a, b: g.lookup_column(a, [1, 0, 1]),
    "concat_rows": lambda g, a, b: g.concat_rows(a, b),
    "concat_cols": lambda g, a, b: g.concat_cols(a, b),
    "transpose": lambda g, a, b: g.transpose(a),
    "reshape": lambda g, a, b: g.reshape(a, 2, 3),
    "rows": lambda g, a, b: g.rows(a, 1, 3),
    # extreme gate pre-activations for a cell at the float range's edge
    "lstm": lambda g, a, b: g.lstm(g.concat_rows(b, a, b, a), a),
    "tanh": lambda g, a, b: g.tanh(a),
    "sigmoid": lambda g, a, b: g.sigmoid(a),
    "relu": lambda g, a, b: g.relu(a),
    "step": lambda g, a, b: g.step(a),
    "softmax": lambda g, a, b: g.softmax(a),
}

_EXTREME = st.sampled_from([1e308, -1e308, 800.0, -800.0, 0.0, -0.0])
_FINITE = st.one_of(_EXTREME, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, (3, 2), elements=_FINITE),
       hnp.arrays(np.float64, (3, 2), elements=_FINITE))
def test_unchecked_ops_keep_finite_inputs_finite(a, b):
    # neither evaluator checks the values of exactly these ops
    assert set(FINITE_PRESERVING_BUILDERS) == FINITE_PRESERVING_OPS
    for op, build in FINITE_PRESERVING_BUILDERS.items():
        with Graph() as g:
            out = build(g, g.input(a), g.input(b))
        assert out.op == op
        assert np.isfinite(out.value).all(), op
        with Eager() as e:
            assert same_bits(build(e, e.input(a), e.input(b)), out.value), op


CHECKED_BUILDERS = {
    "matmul": lambda g, a, b: g.matmul(a, g.transpose(b)),
    "add": lambda g, a, b: g.add(a, b),
    "affine": lambda g, a, b: g.affine(a, b, g.transpose(g.rows(b, 0, 2))),
    "cmult": lambda g, a, b: g.cmult(a, b),
    "batch_dot": lambda g, a, b: g.batch_dot(a, b),
    "attend": lambda g, a, b: g.attend(a, g.rows(b, 0, 1)),
    "pick_neg_log_softmax": lambda g, a, b: g.pick_neg_log_softmax(a, [0, 1]),
    "squared_distance": lambda g, a, b: g.squared_distance(a, b),
    "sum": lambda g, a, b: g.sum(a),
    "scale": lambda g, a, b: g.scale(a, 2.0),
}


def op_constructors() -> set[str]:
    return {name for name, attr in vars(Ops).items()
            if callable(attr) and not name.startswith("_")}


def test_every_op_is_checked_or_finite_preserving():
    assert FINITE_PRESERVING_OPS <= op_constructors()
    assert set(CHECKED_BUILDERS) == op_constructors() - FINITE_PRESERVING_OPS


def test_every_op_constructor_has_a_backward_rule():
    assert op_constructors() == set(_BACKWARD)


def non_finite_operands():
    """``a`` holding an Inf, ``b`` finite, and a graph whose two input nodes
    hold them, the Inf written after the inputs' own check."""
    a, b = np.ones((3, 2)), np.full((3, 2), 0.5)
    a[0, 0] = np.inf
    g = Graph()
    na, nb = g.input(np.ones((3, 2))), g.input(b)
    g.forward()
    na.value[...] = a
    return a, b, g, na, nb


@pytest.mark.parametrize("op", sorted(CHECKED_BUILDERS))
def test_checked_ops_name_a_non_finite_value_under_both_evaluators(op):
    # the node the error names is the one that would have been appended next
    a, b, g, na, nb = non_finite_operands()
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError, match=rf"\({op}\)") as raised:
            CHECKED_BUILDERS[op](g, na, nb)
        assert f"non-finite value at node {len(g.nodes)} ({op})" == str(raised.value)
        with Eager() as e, pytest.raises(NonFiniteError, match=rf"eager op \({op}\)"):
            CHECKED_BUILDERS[op](e, a, b)


@pytest.mark.parametrize("op", sorted(FINITE_PRESERVING_BUILDERS))
def test_unchecked_ops_pass_a_non_finite_value_under_both_evaluators(op):
    # the Inf came from a parent, which was checked where it was computed
    a, b, g, na, nb = non_finite_operands()
    with np.errstate(invalid="ignore"):
        FINITE_PRESERVING_BUILDERS[op](g, na, nb)
        with Eager() as e:
            FINITE_PRESERVING_BUILDERS[op](e, a, b)
