"""The model methods the benchmark calls by name.

The benchmark's oracles check every decoded hypothesis against
``EncDecModel.sentence_loss(f, e)`` or ``NeuralLM.sentence_nll(ids)``, and
one ``RNNLM.batch_loss(g, batch)`` graph against per-sentence sums; its
tracer wraps ``EncDecModel.loss_graph``, ``encode`` and ``step``,
``RNNLM.batch_loss`` and ``RecurrentCell.step`` where the class body defines
them, and the module attributes ``search.greedy`` and
``search.beam_search``, counting one sentence per call. A refactor that
drops, renames or moves one of them would otherwise fail only a benchmark
run, so each is called here on a tiny model against the path it stands for.
The tracer also counts each training graph's nodes when ``Graph.forward`` is
called, so the trainers must call it once per graph, after its last node.
It times ``Optimizer.step`` and ``Optimizer.zero_grad`` on the base class and
reads ``opt.params``, ``opt.clip_norm`` and ``optim.global_norm`` to count
clipped steps, so no update rule may override either method.
"""

import numpy as np
import pytest

from helpers import decoding_nll
from seqbench import corpus as C
from seqbench import optim, search
from seqbench.autograd import Eager, Graph, Parameter
from seqbench.nnet import (CELL_KINDS, FFNNLM, RNNLM, SCORE_BATCH, TOY_EQUALITY_DATA,
                           NeuralLM, RecurrentCell, train_lm, train_toy_mlp)
from seqbench.optim import OPTIMIZERS, SGD, Optimizer
from seqbench.seq2seq import EncDecModel, train_encdec

SRC = C.build_vocab(["w x y z"])
TGT = C.build_vocab(["p q r s t"])
LM_VOCAB = C.build_vocab(["a b c d"])


def test_traced_encoder_decoder_methods_are_defined_in_its_class_body():
    for name in ("loss_graph", "encode", "step"):
        assert callable(vars(EncDecModel).get(name)), name


def test_sentence_loss_is_the_loss_graph_and_the_decoding_path():
    model = EncDecModel(SRC, TGT, embed_size=3, hidden_size=4,
                        rng=np.random.default_rng(3))
    source, target = [3, 5, 4], [4, 6, 3, C.EOS_ID]
    loss = model.sentence_loss(source, target)
    assert loss == model.loss_graph(source, target).forward()[0, 0]
    assert loss == pytest.approx(decoding_nll(model, source, target), rel=1e-12, abs=0)
    assert model.encode(source).H.shape == (model.src_dim, len(source))


def test_greedy_and_sampling_never_call_beam_search(monkeypatch):
    # through beam_search, the tracer would count a greedy sentence twice and
    # put its time into search.beam_s
    def refuse(*args, **kwargs):
        raise AssertionError("beam_search called")

    monkeypatch.setattr(search, "beam_search", refuse)
    model = EncDecModel(SRC, TGT, embed_size=3, hidden_size=4, attention="mlp",
                        rng=np.random.default_rng(7))
    source = [3, 5, 4]
    assert len(search.greedy(model, source, max_len=6).tokens) > 0
    assert len(search.sample(model, source, rng=8, max_len=6).tokens) > 0


@pytest.mark.parametrize("make", [
    lambda: RNNLM(LM_VOCAB, embed_size=3, hidden_size=4, rng=np.random.default_rng(4)),
    lambda: FFNNLM(LM_VOCAB, n=3, embed_size=3, hidden_size=4,
                   rng=np.random.default_rng(5))], ids=["rnnlm", "ffnnlm"])
def test_sentence_nll_is_the_decoding_path(make):
    model = make()
    assert isinstance(model, NeuralLM)
    ids = [3, 5, 4, 4, C.EOS_ID]
    assert model.sentence_nll(ids) == pytest.approx(decoding_nll(model, None, ids),
                                                    rel=1e-12, abs=0)


def test_batch_loss_graph_is_the_sum_of_sentence_nlls():
    model = RNNLM(LM_VOCAB, embed_size=3, hidden_size=4, rng=np.random.default_rng(6))
    sentences = [[3, 4, C.EOS_ID], [5, C.EOS_ID], [6, 3, 3, 4, C.EOS_ID]]
    g = Graph()
    model.batch_loss(g, C.make_batches(sentences, len(sentences))[0])
    assert g.forward()[0, 0] == pytest.approx(
        sum(model.sentence_nll(ids) for ids in sentences), rel=1e-12, abs=0)


def test_lm_scoring_runs_through_the_traced_batch_loss_and_cell_step(monkeypatch):
    # nnet.batch_loss_s and nnet.cell_step_s time these methods; scoring that
    # bypassed them would read as zero in a traced run
    assert callable(vars(RNNLM).get("batch_loss"))
    assert callable(vars(RecurrentCell).get("step"))
    model = RNNLM(LM_VOCAB, embed_size=3, hidden_size=4, rng=np.random.default_rng(8))
    sentences = [[3 + i % 4] * (1 + i % 7) + [C.EOS_ID] for i in range(SCORE_BATCH + 5)]
    calls = {"batch_loss": 0, "step": 0}
    for cls, name in ((RNNLM, "batch_loss"), (RecurrentCell, "step")):
        def counted(*args, original=vars(cls)[name], name=name, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    model.corpus_nll(sentences)
    batches = C.make_batches(sentences, SCORE_BATCH)
    assert calls == {"batch_loss": len(batches),
                     "step": sum(batch.max_len for batch in batches)}


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_padded_lm_scoring_forms_each_input_product_once(kind, monkeypatch):
    # eval_tok_s scores lm-train's dev set in padded batches of 10 sentences;
    # each of the first layer's input weights enters one product over every
    # real position, and no step forms a product with it of its own
    model = RNNLM(LM_VOCAB, cell=kind, embed_size=8, hidden_size=8,
                  rng=np.random.default_rng(12))
    rng = np.random.default_rng(13)
    lengths = rng.permutation(np.arange(5, 25, 2))
    batch = C.make_batches([[int(i) for i in rng.integers(2, len(LM_VOCAB), size=n)]
                            + [C.EOS_ID] for n in lengths], len(lengths))[0]
    assert len(set(batch.true_lengths)) == 10
    cell = model.rnn.cells[0]
    inputs = [p.value for key, p in cell.params.items() if key.startswith("W_x")]
    products = []
    affine = Eager.affine

    def counted(self, bias, *terms):
        products.extend((w, x.shape[1]) for w, x in zip(terms[::2], terms[1::2])
                        if any(w is weight for weight in inputs))
        return affine(self, bias, *terms)

    monkeypatch.setattr(Eager, "affine", counted)
    with Eager() as e:
        nll = float(model.batch_loss(e, batch)[0, 0])
    monkeypatch.undo()
    assert len(products) == len(inputs)
    assert all(any(w is weight for w, _ in products) for weight in inputs)
    assert {width for _, width in products} == {sum(batch.true_lengths)}
    sentences = [batch.token_matrix[:n, b] for b, n in enumerate(batch.true_lengths)]
    assert nll == pytest.approx(sum(model.sentence_nll(ids) for ids in sentences),
                                rel=1e-12, abs=0)


@pytest.mark.parametrize("trainer", ["train_lm", "train_encdec", "train_toy_mlp"])
def test_trainers_call_forward_once_per_finished_graph(monkeypatch, trainer):
    # the tracer counts forward.graphs and forward.nodes (and from them
    # autograd.nodes_per_tok) when Graph.forward is called, so each training
    # graph must reach forward exactly once, with all of its nodes
    built, forwarded, backwarded = [], [], []
    init, forward, backward = Graph.__init__, Graph.forward, Graph.backward

    def counted_init(self):
        built.append(self)
        init(self)

    def counted_forward(self):
        forwarded.append((self, len(self.nodes)))
        return forward(self)

    def counted_backward(self):
        backwarded.append((self, len(self.nodes)))
        return backward(self)

    monkeypatch.setattr(Graph, "__init__", counted_init)
    monkeypatch.setattr(Graph, "forward", counted_forward)
    monkeypatch.setattr(Graph, "backward", counted_backward)
    if trainer == "train_lm":
        model = RNNLM(LM_VOCAB, embed_size=3, hidden_size=4, rng=np.random.default_rng(9))
        train_lm(model, [[3, 4, C.EOS_ID], [5, C.EOS_ID], [6, 3, C.EOS_ID]],
                 SGD(model.parameters(), lr=0.1), epochs=2, batch_size=2)
    elif trainer == "train_encdec":
        model = EncDecModel(SRC, TGT, embed_size=3, hidden_size=4,
                            rng=np.random.default_rng(10))
        train_encdec(model, [([3, 5], [4, C.EOS_ID]), ([4], [6, 5, C.EOS_ID])],
                     SGD(model.parameters(), lr=0.1), epochs=2)
    else:
        train_toy_mlp(TOY_EQUALITY_DATA, hidden_size=4, max_epochs=2)
    assert built and [g for g, _ in forwarded] == built
    assert backwarded == forwarded
    assert all(n == len(g.nodes) for g, n in forwarded)


@pytest.mark.parametrize("kind", sorted(OPTIMIZERS))
def test_every_update_rule_runs_through_the_traced_optimizer_methods(kind):
    cls = OPTIMIZERS[kind]
    for klass in cls.__mro__[:cls.__mro__.index(Optimizer)]:
        assert "step" not in vars(klass) and "zero_grad" not in vars(klass), klass
    p = Parameter("p", [3.0, 4.0])
    opt = cls([p], lr=0.1, clip_norm=1.0)
    assert opt.params == [p] and opt.clip_norm == 1.0
    p.grad[...] = [[3.0], [4.0]]
    assert optim.global_norm([q.grad for q in opt.params]) == 5.0
