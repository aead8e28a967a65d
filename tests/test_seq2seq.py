import math

import numpy as np
import pytest

from helpers import (assert_matches_per_gate_reference,
                     assert_matches_per_position_reference,
                     attention_scores_per_column, max_gradient_error,
                     parameter_digest, per_position_loss_graph)
from seqbench import corpus as C
from seqbench.autograd import Eager, Graph, NonFiniteError
from seqbench.ngram import NGramLM
from seqbench.nnet import CELL_KINDS, RNNLM
from seqbench.seq2seq import ATTENTION_KINDS, EncDecModel, Ensemble, train_encdec
from seqbench.optim import Adam
from seqbench.search import greedy


def vocabs():
    src = C.build_vocab(["w x y z"])
    tgt = C.build_vocab(["p q r s"])
    return src, tgt


def tiny_model(seed=0, **kwargs):
    src, tgt = vocabs()
    defaults = dict(embed_size=3, hidden_size=4, layers=1,
                    encoder="bidirectional", attention="mlp",
                    rng=np.random.default_rng(seed))
    defaults.update(kwargs)
    return EncDecModel(src, tgt, **defaults)


def test_single_word_source_direction_free():
    fwd = tiny_model(seed=3, encoder="forward", attention="none")
    rev = tiny_model(seed=3, encoder="reverse", attention="none")
    enc_f = fwd.encode([3])
    enc_r = rev.encode([3])
    assert np.array_equal(enc_f.H, enc_r.H)


def test_reverse_encoder_mirrors_forward():
    fwd = tiny_model(seed=4, encoder="forward", attention="none")
    rev = tiny_model(seed=4, encoder="reverse", attention="none")
    ids = [3, 4, 5, 6]
    H_fwd = fwd.encode(ids).H
    H_rev = rev.encode(ids[::-1]).H
    assert np.allclose(H_fwd, H_rev[:, ::-1], atol=0)


def test_bidirectional_columns_are_double_width():
    model = tiny_model(seed=5, hidden_size=4)
    enc = model.encode([3, 4, 5])
    assert enc.H.shape == (8, 3)


def test_empty_source_rejected():
    model = tiny_model()
    with pytest.raises(ValueError, match="empty source"):
        model.encode([])
    with pytest.raises(ValueError):
        model.start(None)


def test_dot_attention_requires_matching_sizes():
    src, tgt = vocabs()
    with pytest.raises(ValueError, match="dot attention"):
        EncDecModel(src, tgt, embed_size=3, hidden_size=4, dec_hidden=4,
                    encoder="bidirectional", attention="dot",
                    rng=np.random.default_rng(0))


def test_concat_bridge_requires_bidirectional():
    src, tgt = vocabs()
    with pytest.raises(ValueError, match="concat bridge"):
        EncDecModel(src, tgt, encoder="forward", bridge="concat",
                    rng=np.random.default_rng(0))


def test_attention_weights_normalized():
    model = tiny_model(seed=6)
    P, _, alphas = model.step(model.start([3, 4, 5, 6]), [0], [C.BOS_ID])
    p, alpha = P[:, 0], alphas[:, 0]
    assert alpha.shape == (4,)
    assert np.all(alpha >= 0) and np.all(alpha <= 1)
    assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_equal_scores_give_uniform_attention_and_mean_context():
    model = tiny_model(seed=7, attention="mlp")
    model.w_a2.value[...] = 0.0               # every score becomes zero
    state = model.start([3, 4, 5])
    _, new_state, alphas = model.step(state, [0], [C.BOS_ID])
    alpha = alphas[:, 0]
    assert np.allclose(alpha, 1 / 3, atol=1e-12)
    expected_context = state.encoding.H.mean(axis=1, keepdims=True)
    assert np.allclose(new_state.context, expected_context, atol=1e-12)


def test_saturated_attention_picks_one_column():
    model = tiny_model(seed=8, attention="dot", bridge="tanh",
                       dec_hidden=8, hidden_size=4)
    g = Graph()
    H_value = np.zeros((8, 3))
    H_value[:, 1] = 5.0
    h_dec = np.ones((8, 1))
    scores = model._attention_scores(g, g.input(H_value), g.input(h_dec))
    alpha = g.softmax(scores)
    context = g.matmul(g.input(H_value), alpha)
    g.forward()
    assert alpha.value[1, 0] == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(context.value[:, 0], H_value[:, 1], atol=1e-7)


def test_dot_score_closed_forms():
    model = tiny_model(seed=9, attention="dot", dec_hidden=8)
    unit = np.zeros((8, 1))
    unit[0, 0] = 1.0
    ortho = np.zeros((8, 1))
    ortho[1, 0] = 1.0
    g = Graph()
    s = model._attention_scores(g, g.concat_cols(g.input(unit), g.input(ortho)),
                                g.input(unit))
    g.forward()
    assert s.value[0, 0] == 1.0
    assert s.value[1, 0] == 0.0


@pytest.mark.parametrize("kind", ["dot", "bilinear", "mlp"])
def test_batched_attention_equals_per_column(kind):
    model = tiny_model(seed=10, attention=kind,
                       dec_hidden=8 if kind == "dot" else 5)
    rng = np.random.default_rng(1)
    H_value = rng.normal(size=(8, 4))
    h_value = rng.normal(size=(model.dec_hidden, 1))

    g = Graph()
    H = g.input(H_value)
    batched = model._attention_scores(g, H, g.input(h_value),
                                      model._source_projection(g, H))
    cols = [g.input(H_value[:, j:j + 1]) for j in range(4)]
    single = attention_scores_per_column(model, g, cols, g.input(h_value))
    g.forward()
    assert np.abs(batched.value - single.value).max() < 1e-12


def test_sentence_loss_single_eos_target():
    model = tiny_model(seed=11)
    f = [3, 4]
    P, _, _ = model.step(model.start(f), [0], [C.BOS_ID])
    want = -math.log(P[C.EOS_ID, 0])
    assert model.sentence_loss(f, [C.EOS_ID]) == pytest.approx(want, abs=1e-12)


def test_sentence_loss_matches_decode_trace():
    model = tiny_model(seed=12)
    f = [3, 5, 6]
    e = [4, 3, 6, C.EOS_ID]
    state = model.start(f)
    prev, total = C.BOS_ID, 0.0
    for target in e:
        P, state, _ = model.step(state, [0], [prev])
        total += -math.log(P[target, 0])
        prev = target
    assert model.sentence_loss(f, e) == pytest.approx(total, abs=1e-12)


@pytest.mark.parametrize("kind", ["dot", "bilinear", "mlp"])
def test_end_to_end_gradients(kind):
    src, tgt = vocabs()
    model = EncDecModel(src, tgt, embed_size=2, hidden_size=3,
                        dec_hidden=6 if kind == "dot" else 3,
                        encoder="bidirectional", bridge="tanh", attention=kind,
                        rng=np.random.default_rng(13))
    f, e = [3, 4], [5, C.EOS_ID]

    def build():
        return model.loss_graph(f, e)

    assert max_gradient_error(build, model.parameters()) < 1e-5


def test_non_attentional_gradients():
    src, tgt = vocabs()
    model = EncDecModel(src, tgt, embed_size=2, hidden_size=3,
                        encoder="forward", attention="none",
                        rng=np.random.default_rng(14))
    f, e = [3, 4], [5, C.EOS_ID]
    assert max_gradient_error(lambda: model.loss_graph(f, e),
                              model.parameters()) < 1e-5


def test_zeroed_encoder_reduces_to_rnnlm():
    src, tgt = vocabs()
    rng = np.random.default_rng(15)
    model = EncDecModel(src, tgt, embed_size=3, hidden_size=4,
                        encoder="forward", bridge="copy", attention="none",
                        cell="lstm_forget", rng=rng)
    for p in model.enc_fwd.parameters():
        p.value[...] = 0.0
    for p in [model.M_f]:
        p.value[...] = 0.0

    lm = RNNLM(tgt, cell="lstm_forget", embed_size=3, hidden_size=4,
               rng=np.random.default_rng(16))
    lm.M.value[...] = model.M_e.value
    for cell_lm, cell_dec in zip(lm.rnn.cells, model.dec.cells):
        for key in cell_lm.params:
            cell_lm.params[key].value[...] = cell_dec.params[key].value
    lm.W_hs.value[...] = model.W_hs.value
    lm.b_s.value[...] = model.b_s.value

    e = [4, 5, 3, C.EOS_ID]
    for f in ([3], [3, 4, 5]):
        assert model.sentence_loss(f, e) == pytest.approx(lm.sentence_nll(e),
                                                          abs=1e-10)


class FixedModel:
    """Predictor that always returns the same distribution."""

    src_vocab = None

    def __init__(self, p, vocab):
        self.p = np.asarray(p, dtype=float)
        self.vocab = vocab

    def start(self, source_ids=None):
        return [0]

    def step(self, state, rows, prev_ids):
        return np.tile(self.p[:, None], (1, len(rows))), [state[r] for r in rows], None


def test_ensemble_identical_members_match_single():
    model = tiny_model(seed=17)
    ens = Ensemble([model, model, model])
    f = [3, 4]
    p_single, _, _ = model.step(model.start(f), [0], [C.BOS_ID])
    p_ens, _, _ = ens.step(ens.start(f), [0], [C.BOS_ID])
    assert np.abs(p_single[:, 0] - p_ens[:, 0]).max() < 1e-12


def test_ensemble_averages_distributions():
    vocab = C.build_vocab(["u v"])
    m1 = FixedModel([1.0, 0.0, 0.0, 0.0, 0.0], vocab)
    m2 = FixedModel([0.0, 1.0, 0.0, 0.0, 0.0], vocab)
    ens = Ensemble([m1, m2])
    P, _, _ = ens.step(ens.start(), [0], [C.BOS_ID])
    p = P[:, 0]
    assert p[0] == 0.5 and p[1] == 0.5


def test_ensemble_of_uniform_is_uniform():
    vocab = C.build_vocab(["u v"])
    uniform = np.full(5, 0.2)
    ens = Ensemble([FixedModel(uniform, vocab) for _ in range(3)])
    P, _, _ = ens.step(ens.start(), [0], [C.BOS_ID])
    assert np.allclose(P[:, 0], 0.2, atol=1e-15)


def test_ensemble_vocabulary_mismatch():
    v1 = C.build_vocab(["u v"])
    v2 = C.build_vocab(["u w"])
    with pytest.raises(ValueError, match="vocabulary"):
        Ensemble([FixedModel(np.ones(5) / 5, v1), FixedModel(np.ones(5) / 5, v2)])


def test_ensemble_source_vocabulary_mismatch():
    src, tgt = vocabs()
    other_src = C.build_vocab(["s t"])
    members = [EncDecModel(v, tgt, embed_size=2, hidden_size=2, attention="none",
                           rng=np.random.default_rng(0)) for v in (src, other_src)]
    with pytest.raises(ValueError, match="source vocabulary"):
        Ensemble(members)
    Ensemble([members[0], members[0]])


@pytest.mark.filterwarnings("error")
def test_ensemble_scores_a_target_of_probability_zero_as_impossible():
    # with no held-out mass the bigram gives a literal start symbol, id 0,
    # probability 0 after "a"; the ensemble's average is 0 too
    lm = NGramLM.train(["a b c", "a d", "a b"], n=2, alphas=0.0)
    target = [lm.vocab.id_of("a"), C.BOS_ID, C.EOS_ID]
    assert lm.corpus_nll([target]) == math.inf
    assert Ensemble([lm, lm]).corpus_nll([target]) == math.inf


def test_ensemble_rejects_an_empty_target_as_the_model_does():
    model = tiny_model(seed=20)
    for scorer in (model, Ensemble([model, model])):
        with pytest.raises(ValueError):
            scorer.corpus_nll([([3, 4], [])])


def test_ensemble_rejects_an_end_of_sentence_inside_a_target():
    # decoding ends a hypothesis at EOS, so forced decoding cannot read past it
    model = tiny_model(seed=20)
    with pytest.raises(ValueError, match="end of sentence"):
        Ensemble([model, model]).corpus_nll([([3, 4], [4, C.EOS_ID, 5, C.EOS_ID])])


def test_training_reduces_loss():
    src, tgt = vocabs()
    rng = np.random.default_rng(18)
    model = EncDecModel(src, tgt, embed_size=4, hidden_size=6,
                        encoder="bidirectional", attention="mlp", rng=rng)
    pairs = [([3, 4], [3, 4, C.EOS_ID]), ([5, 6], [5, 6, C.EOS_ID]),
             ([4, 3], [4, 3, C.EOS_ID]), ([6, 5], [6, 5, C.EOS_ID])]
    before = sum(model.sentence_loss(f, e) for f, e in pairs)
    opt = Adam(model.parameters(), lr=0.01, clip_norm=5.0)
    train_encdec(model, pairs, opt, epochs=10, rng=np.random.default_rng(19))
    after = sum(model.sentence_loss(f, e) for f, e in pairs)
    assert after < before


def test_greedy_decode_scans_each_parameter_once(monkeypatch):
    # an unchanged model's parameters are checked for finiteness once in
    # total, not once per decode-step graph
    model = tiny_model()
    model.b_s.value[C.EOS_ID, 0] = -30.0       # never stop early
    names = {id(p.value): p.name for p in model.parameters()}
    scans = []
    isfinite = np.isfinite

    def spy(x, *args, **kwargs):
        if id(x) in names:
            scans.append(names[id(x)])
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", spy)
    assert len(greedy(model, [3, 4, 5], max_len=6).tokens) == 6
    assert sorted(scans) == sorted(names.values())
    scans.clear()
    greedy(model, [3, 4, 5], max_len=6)
    assert scans == []


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_stacked_encdec_matches_per_gate_reference(kind):
    model = tiny_model(seed=3, embed_size=8, hidden_size=8, cell=kind)
    rng = np.random.default_rng(4)
    for p in model.parameters():
        p.value += rng.uniform(-0.3, 0.3, size=p.value.shape)
    assert_matches_per_gate_reference(
        model, ("enc_fwd", "enc_bwd", "dec"),
        lambda m: m.loss_graph([3, 4, 5, 3], [4, 6, C.EOS_ID]))


@pytest.mark.parametrize("attention", ATTENTION_KINDS)
@pytest.mark.parametrize("encoder, bridge", [
    ("forward", "copy"), ("forward", "tanh"), ("reverse", "copy"), ("reverse", "tanh"),
    ("bidirectional", "concat"), ("bidirectional", "tanh")])
def test_loss_graph_matches_per_position_output_layer(encoder, bridge, attention):
    # one output layer over all target positions against one per position
    src_dim = 8 if encoder == "bidirectional" else 4
    model = tiny_model(seed=20, encoder=encoder, bridge=bridge, attention=attention,
                       dec_hidden=src_dim if attention == "dot" else None)
    rng = np.random.default_rng(21)
    for p in model.parameters():
        p.value += rng.uniform(-0.5, 0.5, size=p.value.shape)
    f, e = [3, 4, 5, 3], [4, 6, 5, 3, C.EOS_ID]
    assert_matches_per_position_reference(
        model, lambda: model.loss_graph(f, e),
        lambda: per_position_loss_graph(model, f, e))


# parameters after two epochs of per-sentence train_encdec with clipped Adam and
# a dev set, per encoder, bridge and attention; a change to training's graphs,
# products or update that moves any parameter bit changes these
ENCDEC_TRAINED_DIGESTS = {
    ("forward", "copy", "none"):
        "a02ba1f0eabd1ade0ad6fb5ab5b1f69f4066d7e4f76ea8aa4914f077629396a1",
    ("forward", "copy", "dot"):
        "7a6a18830520d9185bbc598847cffca49d17a9737be0fb425ddcfaefd94de018",
    ("forward", "copy", "bilinear"):
        "ebf06d2110416408edffc24f51b7d38eac927abe214374ae62d95f25abc1b8e1",
    ("forward", "copy", "mlp"):
        "03a2eedd87f8024605a708c53e1a3c796e6f694e89cb90453c6ff975382b64d7",
    ("forward", "tanh", "none"):
        "5ebe33bb5a51559f0f6187cfaf49487c4b7ed41b5224772cdfea0c03ea0de034",
    ("forward", "tanh", "dot"):
        "0657027af4d173605a58191af695a911d6be64d12dbd77c304c2035e7bb1d012",
    ("forward", "tanh", "bilinear"):
        "c92c2a8b6b1bfab8aff370f89e6426a7301a53d8b9d72a39486b016a37f1d8b1",
    ("forward", "tanh", "mlp"):
        "f5621d6c7ad16b82163e031d5c6225db5a786ba330eb6ab6cb5c1b1e8dafbe05",
    ("reverse", "copy", "none"):
        "65c9b5340889c9100275482308807a80557ecbbb6292d8caf552331e16864f99",
    ("reverse", "copy", "dot"):
        "5ae1f4b4049d6a9571944de4e565e7bd67781babebcb472fe4ed752d9dbf16c3",
    ("reverse", "copy", "bilinear"):
        "a0c5bb28e7c5be0c4d636192fe893bc34293f9047f21b2ad2a9a1611846ac1b7",
    ("reverse", "copy", "mlp"):
        "956f8be1705af4362b575a148b9d5cf1aea8e2e4260677bf4455f08b84ab2b76",
    ("reverse", "tanh", "none"):
        "54190a54ed3eaa2c10a555b1976a6a2319d8838695db4b4a145c0a609b7095eb",
    ("reverse", "tanh", "dot"):
        "edf17d212a090b3e28b038d796d4e05db4995feb1467bbc46c55bcd942858a61",
    ("reverse", "tanh", "bilinear"):
        "b37c61206299e2789b2e358e5fe2df5e124b14bd089dfe9e0a798450ea688a53",
    ("reverse", "tanh", "mlp"):
        "2cfb72c269e462009eb8cc92d1274db94b9be378ffab66392646626905c7cbae",
    ("bidirectional", "concat", "none"):
        "bdb69989ff4ea601b5ed7420049d3d2c48d75016c5bbf4dde3b22e22f414190e",
    ("bidirectional", "concat", "dot"):
        "d46a8a5e43b66295a32356254e27c2c5b014c9e16ceeeb8755a62489202aaf12",
    ("bidirectional", "concat", "bilinear"):
        "0dfb336739ebd062c13c2468698b47bb4c586343d946f9f6c6406c73d0783c08",
    ("bidirectional", "concat", "mlp"):
        "72f715dfebd0b70bd3e8237442a6dc3a319b6464778cffdeee9bd4143f31117c",
    ("bidirectional", "tanh", "none"):
        "79456c8bf4d0910baa49048ec5cd83f73b93555781b562acae797f3c9d162042",
    ("bidirectional", "tanh", "dot"):
        "cccab84d1a094a88323c187f1f1896548af3df95a61393f1fed110902550721b",
    ("bidirectional", "tanh", "bilinear"):
        "e2a9dc5bee3453a4548a83216938b7655e325b39f3252284d1480964b047e2c5",
    ("bidirectional", "tanh", "mlp"):
        "9eecc86103f336759eecd3402c6b9e9842ac16c824184a67687060368b699a6e",
}


@pytest.mark.parametrize("attention", ATTENTION_KINDS)
@pytest.mark.parametrize("encoder, bridge", [
    ("forward", "copy"), ("forward", "tanh"), ("reverse", "copy"), ("reverse", "tanh"),
    ("bidirectional", "concat"), ("bidirectional", "tanh")])
def test_per_sentence_training_is_pinned_bitwise(encoder, bridge, attention):
    src_dim = 8 if encoder == "bidirectional" else 4
    model = tiny_model(seed=23, encoder=encoder, bridge=bridge, attention=attention,
                       layers=2, dec_hidden=src_dim if attention == "dot" else None)
    rng = np.random.default_rng(24)
    pairs = [([int(w) for w in rng.integers(3, 7, size=n)],
              [int(w) for w in rng.integers(3, 7, size=m)] + [C.EOS_ID])
             for n, m in zip(rng.integers(1, 6, size=8), rng.integers(0, 5, size=8))]
    optimizer = Adam(model.parameters(), lr=0.2, clip_norm=1.0)
    train_encdec(model, pairs, optimizer, epochs=2, dev_pairs=pairs[:3],
                 rng=np.random.default_rng(25))
    assert parameter_digest(model) == ENCDEC_TRAINED_DIGESTS[encoder, bridge, attention]


def test_wide_vocabulary_loss_graph_matches_per_position_output_layer():
    # at V=2,000 one gemm and T gemv calls may round differently
    src = C.build_vocab(["w x y z"])
    tgt = C.build_vocab([" ".join(f"t{i}" for i in range(2000))])
    model = EncDecModel(src, tgt, embed_size=6, hidden_size=8, attention="mlp",
                        rng=np.random.default_rng(22))
    f, e = [3, 4, 5, 6, 3], [17, 1999, 4, 800, 256, 3, C.EOS_ID]
    assert_matches_per_position_reference(
        model, lambda: model.loss_graph(f, e),
        lambda: per_position_loss_graph(model, f, e))


def copy_task_model():
    # the copy-task configuration of the benchmark: V=12, H=24, MLP attention
    vocab = C.build_vocab([" ".join(f"s{i}" for i in range(9))])
    return EncDecModel(vocab, vocab, embed_size=16, hidden_size=24,
                       encoder="bidirectional", bridge="tanh", attention="mlp",
                       rng=np.random.default_rng(0))


def test_copy_task_graph_sizes(monkeypatch):
    # encoding and decoder steps are evaluated eagerly and build no graph
    model = copy_task_model()
    graphs = []
    init = Graph.__init__

    def spy(g):
        graphs.append(g)
        init(g)

    monkeypatch.setattr(Graph, "__init__", spy)
    state = model.start([3, 4, 5, 6, 7])
    model.step(state, [0], [C.BOS_ID])
    assert graphs == []
    assert len(model.loss_graph([3, 4, 5, 6, 7], [3, 4, 5, 6, 7, C.EOS_ID]).nodes) <= 162


def test_decoder_steps_take_the_source_encoding_unwrapped(monkeypatch):
    # encode made H and the MLP source projection, and the previous step the
    # layer states (h, c) and the fed-back context, through checked ops: a
    # step gathers its rows from them and wraps none in an input, where
    # wrapping the layer states and the context made 3 inputs per step
    ops = []
    op = Eager._op
    monkeypatch.setattr(Eager, "_op", lambda self, name, *rest: ops.append(name) or
                        op(self, name, *rest))
    vocab = C.build_vocab(["p q r s"])
    rnnlm = RNNLM(vocab, cell="lstm", layers=2, rng=np.random.default_rng(0))
    for model, source in ((copy_task_model(), [3, 4, 5, 6, 7]),
                          (copy_task_model(), [3, 4, 5]), (rnnlm, None)):
        state = model.start(source)
        for rows, prev_ids in (([0], [C.BOS_ID]), ([0] * 4, [3, 4, 5, 6]),
                               ([3, 1, 1], [4, 4, 5])):
            ops.clear()
            _, state, _ = model.step(state, rows, prev_ids)
            assert ops and ops.count("input") == 0


def test_non_finite_encoder_weight_still_stops_greedy_decoding():
    model = copy_task_model()
    weight = model.enc_bwd.cells[0].params["W_x"]
    weight.value[0, 0] = np.nan
    weight.changed()
    with pytest.raises(NonFiniteError):
        greedy(model, [3, 4, 5])
