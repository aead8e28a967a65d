"""seqbench: a from-scratch sequence modeling and neural MT workbench.

Count-based and log-linear n-gram language models, a small reverse-mode
autodiff engine with SGD/momentum/AdaGrad/Adam, feed-forward and recurrent
neural LMs, attentional encoder-decoders, sampling/greedy/beam decoding, and
likelihood/perplexity/BLEU evaluation.
"""

from .autograd import Graph, Parameter, softmax
from .corpus import (BOS, BOS_ID, EOS, EOS_ID, UNK, UNK_ID, DataError,
                     MiniBatch, Vocabulary, build_vocab, decode, encode,
                     make_batches, read_parallel, read_token_lines)
from .evaluate import BleuReport, EvalReport, bleu, evaluate_ll
from .loglinear import FeatureVector, LogLinearLM
from .modelfile import load_model, save_model
from .ngram import InterpolationWeights, NGramCountTable, NGramLM, interp_prob, \
    mle_prob, train_counts
from .nnet import (FFNNLM, RNNLM, RecurrentCell, RecurrentState, StackedRNN,
                   ToyMLP, train_lm, train_toy_mlp)
from .optim import (SGD, Adam, AdaGrad, Momentum, TrainingDivergence,
                    make_optimizer)
from .search import (Hypothesis, LengthPrior, beam_search, greedy,
                     replace_unknowns, sample)
from .seq2seq import EncDecModel, Ensemble, SourceEncoding, train_encdec

__version__ = "0.1.0"
