"""The model methods the benchmark calls by name.

The benchmark's oracles check every decoded hypothesis against
``EncDecModel.sentence_loss(f, e)`` or ``NeuralLM.sentence_nll(ids)``, and
one ``RNNLM.batch_loss(g, batch)`` graph against per-sentence sums; its
tracer wraps ``EncDecModel.loss_graph``, ``encode`` and ``step`` where the
class body defines them, and the module attributes ``search.greedy`` and
``search.beam_search``, counting one sentence per call. A refactor that
drops, renames or moves one of them would otherwise fail only a benchmark
run, so each is called here on a tiny model against the path it stands for.
"""

import numpy as np
import pytest

from helpers import decoding_nll
from seqbench import corpus as C
from seqbench import search
from seqbench.autograd import Graph
from seqbench.nnet import FFNNLM, RNNLM, NeuralLM
from seqbench.seq2seq import EncDecModel

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
