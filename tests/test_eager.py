"""The eager evaluator against the graph.

Every op's eager value, and every model's eager encode, decoder step and
sentence score, must equal the value a Graph computes from the same builder
code, bit for bit; non-finite values must be reported under both; and the
forward-only paths (search and evaluation) must build no graph at all.
"""

import zlib

import numpy as np
import pytest

from helpers import (OP_GRADCHECK_CASES, graph_encdec_step, graph_encode,
                     graph_ffnnlm_step, graph_rnnlm_step, graph_sentence_nll,
                     op_gradcheck_shapes, per_gate_model, random_params, same_bits)
from seqbench import corpus as C
from seqbench.autograd import Eager, Graph, GraphError, NonFiniteError, Parameter
from seqbench.evaluate import evaluate_ll
from seqbench.nnet import CELL_KINDS, FFNNLM, RNNLM, ToyMLP
from seqbench.search import beam_search, greedy, sample
from seqbench.seq2seq import ATTENTION_KINDS, EncDecModel, Ensemble

SRC = C.build_vocab(["w x y z"])
TGT = C.build_vocab(["p q r s t"])
LM_VOCAB = C.build_vocab(["a b c d e"])
SOURCE = [3, 5, 4, 6, 3]

# ops the gradient checks do not cover: (shapes, builder)
FORWARD_ONLY_CASES = {
    "step": ([(3, 4)], lambda g, ps: g.step(g.param(ps[0]))),
    "sum": ([(3, 4)], lambda g, ps: g.sum(g.param(ps[0]))),
    "squared_distance": ([(3, 2), (3, 2)],
                         lambda g, ps: g.squared_distance(g.param(ps[0]), g.param(ps[1]))),
    "pick_neg_log_softmax": ([(5, 3)], lambda g, ps: g.pick_neg_log_softmax(
        g.param(ps[0]), [4, 0, 2])),
    "input": ([(3, 2)], lambda g, ps: g.tanh(g.input(ps[0].value * 3.0))),
}


def graph_value(build, params):
    g = Graph()
    out = build(g, params)
    g.forward()
    return out.value


def eager_value(build, params):
    with Eager() as e:
        return build(e, params)


@pytest.mark.parametrize("name", sorted(OP_GRADCHECK_CASES))
def test_every_gradchecked_op_evaluates_bitwise_alike(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    build = OP_GRADCHECK_CASES[name]
    for _ in range(20):
        params = random_params(rng, op_gradcheck_shapes(name, rng), scale=3.0)
        value = eager_value(build, params)
        assert isinstance(value, np.ndarray)
        assert same_bits(value, graph_value(build, params))


@pytest.mark.parametrize("name", sorted(FORWARD_ONLY_CASES))
def test_forward_only_ops_evaluate_bitwise_alike(name):
    shapes, build = FORWARD_ONLY_CASES[name]
    params = random_params(np.random.default_rng(3), shapes, scale=2.0)
    assert same_bits(eager_value(build, params), graph_value(build, params))


@pytest.mark.parametrize("name", sorted(OP_GRADCHECK_CASES))
def test_graph_nodes_hold_their_values_as_they_are_built(name):
    # no forward(): each constructor computes its node's value before it returns
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    build = OP_GRADCHECK_CASES[name]
    params = random_params(rng, op_gradcheck_shapes(name, rng), scale=3.0)
    with Graph() as g:
        out = build(g, params)
    assert out is g.nodes[-1]
    assert all(type(node.value) is np.ndarray for node in g.nodes)
    assert same_bits(out.value, eager_value(build, params))


def test_eager_keeps_no_nodes():
    assert not hasattr(Eager(), "__dict__")         # nothing to append nodes to
    p = Parameter("p", np.ones((2, 2)))
    with Eager() as e:
        assert e.param(p) is p.value
        assert type(e.matmul(e.param(p), e.input([1.0, 2.0]))) is np.ndarray


def test_eager_shape_errors_name_the_op():
    a, b = Parameter("a", np.ones((2, 3))), Parameter("b", np.ones((2, 3)))
    with Eager() as e, pytest.raises(GraphError, match="matmul"):
        e.matmul(e.param(a), e.param(b))
    with Eager() as e, pytest.raises(GraphError, match="pairs"):
        e.affine(e.param(a), e.param(a))


# ---- non-finite values -------------------------------------------------------------

def test_nan_parameter_raises_under_both_evaluators():
    w = Parameter("w", [[1.0, np.nan]])
    x = np.ones((2, 1))
    g = Graph()
    with pytest.raises(NonFiniteError, match=r"\(parameter\)"):
        g.tanh(g.matmul(g.param(w), g.input(x)))
    with Eager() as e, pytest.raises(NonFiniteError, match=r"'w' \(parameter\)"):
        e.tanh(e.matmul(e.param(w), e.input(x)))


@pytest.mark.parametrize("inf_input", [False, True])
def test_overflowing_affine_raises_under_both_evaluators(inf_input, recwarn):
    w = Parameter("w", np.full((2, 2), 1e308))
    b = Parameter("b", np.zeros((2, 1)))
    x = np.array([[np.inf if inf_input else 1e308], [1.0]])
    first = "input" if inf_input else "affine"
    with Graph() as g, pytest.raises(NonFiniteError, match=rf"\({first}\)"):
        g.affine(g.param(b), g.param(w), g.input(x))
    with Eager() as e, pytest.raises(NonFiniteError, match=rf"\({first}\)"):
        e.affine(e.param(b), e.param(w), e.input(x))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_finite_entries_whose_squares_overflow_pass_the_check():
    big = np.array([[1e200, -1e200]])
    with Eager() as e:
        assert same_bits(e.scale(e.input(big), 0.5), big * 0.5)


def test_overflowing_model_raises_while_decoding_and_scoring():
    model = encdec()
    model.M_f.value[...] = 1e308
    for p in model.enc_fwd.parameters():
        p.value[...] = 1e308
        p.changed()
    model.M_f.changed()
    with pytest.raises(NonFiniteError, match=r"\(affine\)"):
        greedy(model, SOURCE)
    with pytest.raises(NonFiniteError, match=r"\(affine\)"):
        model.sentence_loss(SOURCE, [3, C.EOS_ID])
    with pytest.raises(NonFiniteError, match=r"\(affine\)"):
        model.loss_graph(SOURCE, [3, C.EOS_ID]).forward()


# ---- models --------------------------------------------------------------------------

def encdec(seed=7, **kwargs):
    settings = dict(embed_size=3, hidden_size=5, rng=np.random.default_rng(seed))
    settings.update(kwargs)
    model = EncDecModel(SRC, TGT, **settings)
    rng = np.random.default_rng(seed + 1)
    for p in model.parameters():        # biases away from zero too
        p.value += rng.uniform(-0.4, 0.4, size=p.value.shape)
        p.changed()
    return model


# (rows, prev_ids) of three decoder steps from the start state: one column,
# that column repeated, then the three columns reordered
STEPS = [([0], [C.BOS_ID]), ([0, 0, 0], [4, 5, 6]), ([2, 0, 1], [3, 3, 7])]


def assert_same_layers(layers, reference):
    """Eager layer states equal the graph's (h, c) arrays per layer, bit for bit."""
    for st, (h_ref, c_ref) in zip(layers, reference, strict=True):
        assert same_bits(st.h, h_ref)
        assert st.c is None if c_ref is None else same_bits(st.c, c_ref)


def assert_encdec_matches_graph(model, target=(4, 6, 3, C.EOS_ID)):
    encoding = model.encode(SOURCE)
    H, layers, proj = graph_encode(model, SOURCE)
    assert same_bits(encoding.H, H)
    assert encoding.src_proj is None if proj is None else same_bits(encoding.src_proj, proj)
    assert_same_layers(encoding.init_layers, layers)

    state = model.start(SOURCE)
    for rows, prev_ids in STEPS:
        P_ref, layers_ref, context_ref, alpha_ref = graph_encdec_step(model, state, rows,
                                                                      prev_ids)
        P, state, alpha = model.step(state, rows, prev_ids)
        assert same_bits(P, P_ref)
        assert alpha is None if alpha_ref is None else same_bits(alpha, alpha_ref)
        assert_same_layers(state.layers, layers_ref)
        assert (state.context is None if context_ref is None
                else same_bits(state.context, context_ref))

    loss = model.sentence_loss(SOURCE, list(target))
    assert same_bits(loss, model.loss_graph(SOURCE, list(target)).forward()[0, 0])


ENCODER_BRIDGES = [("forward", "copy"), ("forward", "tanh"), ("reverse", "copy"),
                   ("reverse", "tanh"), ("bidirectional", "concat"),
                   ("bidirectional", "tanh")]


@pytest.mark.parametrize("cell", CELL_KINDS)
@pytest.mark.parametrize("attention", ATTENTION_KINDS)
@pytest.mark.parametrize("encoder, bridge", ENCODER_BRIDGES)
def test_encdec_eager_encode_step_and_loss_equal_the_graph_bitwise(encoder, bridge,
                                                                   attention, cell):
    src_dim = 10 if encoder == "bidirectional" else 5
    model = encdec(encoder=encoder, bridge=bridge, attention=attention, cell=cell,
                   dec_hidden=src_dim)
    assert_encdec_matches_graph(model)


@pytest.mark.parametrize("attention", ATTENTION_KINDS)
def test_two_layer_encdec_equals_the_graph_bitwise(attention):
    assert_encdec_matches_graph(encdec(layers=2, attention=attention, dec_hidden=10))


def test_copy_task_sized_steps_equal_the_stacked_columns_bitwise():
    # at H=24, W_h·h over 2 to 4 columns rounds differently when the gathered
    # h is F-ordered, as x[:, rows] returns it, than when it is C-ordered, as
    # the stacked one-column copies of the graph reference and np.take give
    assert_encdec_matches_graph(encdec(embed_size=16, hidden_size=24))
    model = RNNLM(LM_VOCAB, cell="lstm_forget", embed_size=16, hidden_size=24,
                  rng=np.random.default_rng(2))
    state = model.start()
    for rows, prev_ids in STEPS:
        P_ref, layers_ref = graph_rnnlm_step(model, state, rows, prev_ids)
        P, state, _ = model.step(state, rows, prev_ids)
        assert same_bits(P, P_ref)
        assert_same_layers(state, layers_ref)


def test_one_word_source_equals_the_graph_bitwise():
    for encoder, bridge in ENCODER_BRIDGES:
        model = encdec(encoder=encoder, bridge=bridge, attention="mlp")
        H, _, proj = graph_encode(model, [4])
        encoding = model.encode([4])
        assert same_bits(encoding.H, H) and same_bits(encoding.src_proj, proj)


@pytest.mark.parametrize("cell", CELL_KINDS)
def test_per_gate_reference_decodes_alike_under_both_evaluators(cell):
    ref = per_gate_model(encdec(cell=cell, embed_size=4, hidden_size=4),
                         ("enc_fwd", "enc_bwd", "dec"))
    assert_encdec_matches_graph(ref)


@pytest.mark.parametrize("cell, layers, residual", [
    (cell, 1, False) for cell in CELL_KINDS] + [(cell, 2, True) for cell in CELL_KINDS])
def test_rnnlm_eager_step_and_nll_equal_the_graph_bitwise(cell, layers, residual):
    model = RNNLM(LM_VOCAB, cell=cell, embed_size=6, hidden_size=6, layers=layers,
                  residual=residual, rng=np.random.default_rng(2))
    state = model.start()
    for (rows, _), prev_ids in zip(STEPS, ([C.BOS_ID], [3, 4, 5], [6, 6, 7])):
        P_ref, layers_ref = graph_rnnlm_step(model, state, rows, prev_ids)
        P, state, alphas = model.step(state, rows, prev_ids)
        assert same_bits(P, P_ref) and alphas is None
        assert_same_layers(state, layers_ref)
    ids = [3, 5, 4, 7, C.EOS_ID]
    assert same_bits(model.sentence_nll(ids), graph_sentence_nll(model, ids))


@pytest.mark.parametrize("nonlinearity", ["tanh", "relu"])
def test_ffnnlm_eager_step_and_nll_equal_the_graph_bitwise(nonlinearity):
    model = FFNNLM(LM_VOCAB, n=3, embed_size=4, hidden_size=5,
                   nonlinearity=nonlinearity, rng=np.random.default_rng(3))
    state = model.start() + [(3, 4), (5, 6)]
    # the last column reads a start symbol after words, which it keeps
    rows, prev_ids = [0, 1, 2, 1, 2], [C.BOS_ID, 5, 7, 3, C.BOS_ID]
    P, histories, _ = model.step(state, rows, prev_ids)
    assert same_bits(P, graph_ffnnlm_step(model, state, rows, prev_ids))
    assert histories == [(), (3, 4, 5), (5, 6, 7), (3, 4, 3), (5, 6, C.BOS_ID)]
    ids = [3, 5, 4, 7, C.EOS_ID]
    assert same_bits(model.sentence_nll(ids), graph_sentence_nll(model, ids))


def test_ensemble_step_is_the_mean_of_graph_steps_bitwise():
    members = [encdec(seed=s) for s in (1, 2, 3)]
    ensemble = Ensemble(members)
    state = ensemble.start(SOURCE)
    P, _, alpha = ensemble.step(state, [0, 0], [C.BOS_ID, 4])
    refs = [graph_encdec_step(m, member_state, [0, 0], [C.BOS_ID, 4])
            for m, member_state in zip(members, state)]
    assert same_bits(P, (refs[0][0] + refs[1][0] + refs[2][0]) / 3)
    assert same_bits(alpha, refs[0][3])


def test_toy_mlp_prediction_equals_the_graph_bitwise():
    model = ToyMLP(hidden_size=6, rng=np.random.default_rng(4))
    for x in ([1, 1], [-1, 1], [0.5, -2.0]):
        g = Graph()
        y = model._output(g, x)
        assert same_bits(model.predict(x), float(g.forward()[0, 0]))


# ---- forward-only paths build no graph -----------------------------------------------

@pytest.fixture()
def graphs_built(monkeypatch):
    count = []
    init = Graph.__init__

    def counting_init(self):
        count.append(1)
        init(self)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    return count


def forward_only_models():
    yield "encdec", encdec(), SOURCE
    yield "ensemble", Ensemble([encdec(seed=1), encdec(seed=2)]), SOURCE
    yield "rnnlm", RNNLM(LM_VOCAB, cell="lstm", embed_size=4, hidden_size=4,
                         layers=2, rng=np.random.default_rng(5)), None
    yield "ffnnlm", FFNNLM(LM_VOCAB, n=3, embed_size=4, hidden_size=4,
                           rng=np.random.default_rng(6)), None


@pytest.mark.parametrize("kind", ["encdec", "ensemble", "rnnlm", "ffnnlm"])
def test_search_and_evaluation_build_no_graph(kind, graphs_built):
    model, source = next((m, s) for k, m, s in forward_only_models() if k == kind)
    greedy(model, source, max_len=5)
    beam_search(model, source, beam_size=3, max_len=5)
    sample(model, source, rng=np.random.default_rng(0), max_len=5)
    if source is None:
        evaluate_ll(model, [["a", "b"], ["c", "zz", "d"]])
    else:
        evaluate_ll(model, [(["w", "x"], ["p", "q", "zz"])])
    ToyMLP().predict([1, -1])
    assert graphs_built == []
    Graph()                             # the spy itself counts
    assert graphs_built == [1]
