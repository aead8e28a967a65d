"""Conditional sequence models: encoder-decoders with optional attention.

The source sentence is encoded by a recurrent stack running forward, in
reverse, or in both directions (with per-word states concatenated). The
decoder is initialized from the encoder by one of three bridges: copying the
final encoder state, concatenating the two final bidirectional states, or a
tanh layer mapping them into the decoder's size. With attention enabled the
decoder consumes the previous context vector alongside the word embedding,
scores every source column against its hidden state (dot, bilinear, or MLP
score), mixes the columns with the softmaxed weights into a context vector,
and feeds [hidden; context] to the output softmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import Eager, Evaluator, Graph, Parameter, Value
from .corpus import BOS_ID, Vocabulary
from .nnet import (RecurrentState, StackedRNN, embedding_init, file_tensor_views,
                   gather_layer_states, glorot)
from .optim import EpochTracker, Optimizer, fit

ENCODER_DIRECTIONS = ("forward", "reverse", "bidirectional")
BRIDGE_KINDS = ("copy", "concat", "tanh")
ATTENTION_KINDS = ("none", "dot", "bilinear", "mlp")


@dataclass
class SourceEncoding:
    """Frozen per-word source encodings plus the decoder's starting state."""

    H: np.ndarray                       # (encoding_dim, |F|)
    init_layers: list                   # one-column RecurrentState per decoder layer
    src_proj: np.ndarray | None = None  # W_a1_src·H for MLP attention, else None


@dataclass
class EncDecState:
    """The decoder state of B hypotheses of one source, one column each."""

    encoding: SourceEncoding
    layers: list                        # RecurrentState per decoder layer
    context: np.ndarray | None          # fed-back context; None without attention


class EncDecModel:
    kind = "encdec"
    file_vocabs = ("src_vocab", "tgt_vocab")
    counts = None
    length_prior = None     # a search.LengthPrior, set by training or loading

    def __init__(self, src_vocab: Vocabulary, tgt_vocab: Vocabulary,
                 embed_size: int = 32, hidden_size: int = 32,
                 dec_hidden: int | None = None, layers: int = 1,
                 encoder: str = "bidirectional", bridge: str | None = None,
                 attention: str = "mlp", attn_hidden: int | None = None,
                 cell: str = "lstm_forget", rng=None):
        if encoder not in ENCODER_DIRECTIONS:
            raise ValueError(f"unknown encoder direction {encoder!r}")
        if attention not in ATTENTION_KINDS:
            raise ValueError(f"unknown attention kind {attention!r}")
        if bridge is None:
            bridge = "tanh" if encoder == "bidirectional" else "copy"
        if bridge not in BRIDGE_KINDS:
            raise ValueError(f"unknown bridge kind {bridge!r}")
        if bridge == "concat" and encoder != "bidirectional":
            raise ValueError("concat bridge requires a bidirectional encoder")
        if bridge == "copy" and encoder == "bidirectional":
            raise ValueError("copy bridge requires a one-direction encoder; "
                             "use the concat or tanh bridge with a bidirectional one")

        rng = rng or np.random.default_rng(0)
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab
        self.embed_size = embed_size
        self.hidden_size = hidden_size
        self.layers = layers
        self.encoder_direction = encoder
        self.bridge = bridge
        self.attention = attention
        self.cell = cell

        self.src_dim = hidden_size * (2 if encoder == "bidirectional" else 1)
        if dec_hidden is None:
            dec_hidden = self.src_dim if bridge in ("copy", "concat") else hidden_size
        self.dec_hidden = dec_hidden
        if bridge == "copy" and dec_hidden != self.src_dim:
            raise ValueError("copy bridge requires decoder size == encoder output size")
        if bridge == "concat" and dec_hidden != self.src_dim:
            raise ValueError("concat bridge requires decoder size == 2x encoder size")
        if attention == "dot" and dec_hidden != self.src_dim:
            raise ValueError(
                f"dot attention requires matching sizes, got source encoding "
                f"{self.src_dim} and decoder {dec_hidden}")

        self.M_f = Parameter("M_f", embedding_init(rng, embed_size, len(src_vocab)))
        self.M_e = Parameter("M_e", embedding_init(rng, embed_size, len(tgt_vocab)))
        self.enc_fwd = StackedRNN(cell, embed_size, hidden_size, layers, rng,
                                  name="enc_fwd")
        self.enc_bwd = (StackedRNN(cell, embed_size, hidden_size, layers, rng,
                                   name="enc_bwd")
                        if encoder == "bidirectional" else None)
        dec_input = embed_size + (self.src_dim if attention != "none" else 0)
        self.dec = StackedRNN(cell, dec_input, dec_hidden, layers, rng, name="dec")

        out_input = dec_hidden + (self.src_dim if attention != "none" else 0)
        self.W_hs = Parameter("W_hs", glorot(rng, len(tgt_vocab), out_input))
        self.b_s = Parameter("b_s", np.zeros((len(tgt_vocab), 1)))

        self.bridge_params = []
        if bridge == "tanh":
            self.W_bridge_fwd = Parameter("W_bridge_fwd",
                                          glorot(rng, dec_hidden, hidden_size))
            self.bridge_params = [self.W_bridge_fwd]
            if encoder == "bidirectional":
                self.W_bridge_bwd = Parameter("W_bridge_bwd",
                                              glorot(rng, dec_hidden, hidden_size))
                self.bridge_params.append(self.W_bridge_bwd)
            self.b_bridge = Parameter("b_bridge", np.zeros((dec_hidden, 1)))
            self.bridge_params.append(self.b_bridge)

        self.attn_params = []
        if attention == "bilinear":
            self.W_a = Parameter("W_a", glorot(rng, self.src_dim, dec_hidden))
            self.attn_params = [self.W_a]
        elif attention == "mlp":
            k = attn_hidden or hidden_size
            # one weight matrix over [decoder hidden; source column], stored as
            # its two partitions, plus the output projection vector
            self.W_a1_dec = Parameter("W_a1_dec", glorot(rng, k, dec_hidden))
            self.W_a1_src = Parameter("W_a1_src", glorot(rng, k, self.src_dim))
            self.w_a2 = Parameter("w_a2", glorot(rng, k, 1))
            self.attn_params = [self.W_a1_dec, self.W_a1_src, self.w_a2]

    def parameters(self):
        params = [self.M_f, self.M_e] + self.enc_fwd.parameters()
        if self.enc_bwd is not None:
            params += self.enc_bwd.parameters()
        params += self.dec.parameters() + [self.W_hs, self.b_s]
        params += self.bridge_params + self.attn_params
        return params

    @property
    def hparams(self) -> dict:
        hparams = {"embed_size": self.embed_size, "hidden_size": self.hidden_size,
                   "dec_hidden": self.dec_hidden, "layers": self.layers,
                   "encoder": self.encoder_direction, "bridge": self.bridge,
                   "attention": self.attention, "cell": self.cell}
        if self.attention == "mlp":
            hparams["attn_hidden"] = self.W_a1_dec.value.shape[0]
        return hparams

    def file_tensors(self) -> dict[str, np.ndarray]:
        tensors = file_tensor_views(self.parameters(),
                                    [self.enc_fwd, self.enc_bwd, self.dec])
        if self.length_prior is not None:
            tensors["length_prior"] = self.length_prior.rows()
        return tensors

    # ---- encoding ----------------------------------------------------------

    def _run_direction(self, g: Evaluator, stack: StackedRNN, ids, reverse: bool):
        """Top-layer outputs per word position plus the stack's final states."""
        states = stack.initial_states(g)
        outputs: list[Value | None] = [None] * len(ids)
        order = range(len(ids) - 1, -1, -1) if reverse else range(len(ids))
        for t in order:
            x = g.lookup_column(g.param(self.M_f), ids[t])
            out, states = stack.step(g, x, states)
            outputs[t] = out
        return outputs, states

    def _encode_nodes(self, g: Evaluator, source_ids):
        """Build encoder nodes; returns (H node, decoder initial layer states)."""
        ids = list(source_ids)
        if not ids:
            raise ValueError("empty source sentence")
        direction = self.encoder_direction
        if direction == "forward":
            outputs, final_states = self._run_direction(g, self.enc_fwd, ids, False)
            final_fwd, final_bwd = final_states[-1].h, None
        elif direction == "reverse":
            outputs, final_states = self._run_direction(g, self.enc_fwd, ids, True)
            final_fwd, final_bwd = final_states[-1].h, None
        else:
            fwd_out, fwd_states = self._run_direction(g, self.enc_fwd, ids, False)
            bwd_out, bwd_states = self._run_direction(g, self.enc_bwd, ids, True)
            outputs = [g.concat_rows(b, f) for b, f in zip(bwd_out, fwd_out)]
            final_fwd, final_bwd = fwd_states[-1].h, bwd_states[-1].h

        H = g.concat_cols(*outputs) if len(outputs) > 1 else outputs[0]

        if self.bridge == "copy":
            h0 = final_fwd
        elif self.bridge == "concat":
            h0 = g.concat_rows(final_bwd, final_fwd)
        else:
            terms = [g.param(self.W_bridge_fwd), final_fwd]
            if final_bwd is not None:
                terms += [g.param(self.W_bridge_bwd), final_bwd]
            h0 = g.tanh(g.affine(g.param(self.b_bridge), *terms))

        zeros = np.zeros((self.dec_hidden, 1))
        init = []
        for i, cell in enumerate(self.dec.cells):
            h = h0 if i == 0 else g.input(zeros)
            c = g.input(zeros) if cell.has_cell else None
            init.append(RecurrentState(h=h, c=c))
        return H, init

    def encode(self, source_ids) -> SourceEncoding:
        """Run the encoder eagerly and keep the per-word encodings.

        MLP attention's source half ``W_a1_src·H`` is the same at every
        decode step, so it is computed here once.
        """
        with Eager() as e:
            H, init = self._encode_nodes(e, source_ids)
            proj = self._source_projection(e, H)
        return SourceEncoding(H=H, init_layers=init, src_proj=proj)

    # ---- attention ---------------------------------------------------------

    def _source_projection(self, g: Evaluator, H: Value) -> Value | None:
        """MLP attention's source half ``W_a1_src·H``, the same at every
        decoder step; None for the other kinds."""
        if self.attention != "mlp":
            return None
        return g.matmul(g.param(self.W_a1_src), H)

    def _attention_scores(self, g: Evaluator, H: Value, h_dec: Value,
                          src: Value | None = None, batch: int = 1) -> Value:
        """Score every source column against each of the ``batch`` decoder
        states in the columns of ``h_dec``; the result is |F| x ``batch``.

        MLP attention takes its source half ``W_a1_src·H`` from the caller as
        ``src``, built once per evaluation: :meth:`_source_projection` in
        training graphs, the encoding's projection repeated once per decoder
        column (|K| x |F|·``batch``) in decoder steps. The other kinds ignore
        it. With ``batch`` > 1, ``H`` must be an array, as it is in decoder
        steps.
        """
        if self.attention == "dot":
            return g.matmul(g.transpose(H), h_dec)
        if self.attention == "bilinear":
            return g.matmul(g.transpose(H),
                            g.matmul(g.param(self.W_a), h_dec))
        dec = g.matmul(g.param(self.W_a1_dec), h_dec)
        if batch > 1:   # column b * |F| + j pairs decoder state b with source word j
            n_src = H.shape[1]
            dec = g.lookup_column(dec, [b for b in range(batch) for _ in range(n_src)])
        # with one decoder column, it broadcasts over the source words
        scores = g.matmul(g.transpose(g.param(self.w_a2)), g.tanh(g.add(dec, src)))
        if batch == 1:
            return g.transpose(scores)
        return g.reshape(scores, n_src, batch)

    # ---- decoding ----------------------------------------------------------

    def _scores(self, g: Evaluator, x: Value) -> Value:
        """The output layer: next-word scores for every column of ``x``."""
        return g.affine(g.param(self.b_s), g.param(self.W_hs), x)

    def _step_nodes(self, g: Evaluator, H: Value | None, prev_ids, states,
                    context: Value | None, src: Value | None = None):
        """One decoder step for the B columns of ``states``, fed ``prev_ids``
        (an id, or a list of B ids); returns (output-layer input, new states,
        context, alpha). The output-layer input is ``[h; context]`` with
        attention and ``h`` without; :meth:`_scores` turns it into scores.
        ``src`` is MLP attention's source projection."""
        x = g.lookup_column(g.param(self.M_e), prev_ids)
        if self.attention != "none":
            x = g.concat_rows(x, context)
        out, states = self.dec.step(g, x, states)
        if self.attention == "none":
            return out, states, None, None
        alpha = g.softmax(self._attention_scores(g, H, out, src, states[0].batch))
        new_context = g.matmul(H, alpha)
        return g.concat_rows(out, new_context), states, new_context, alpha

    def start(self, source_ids) -> EncDecState:
        if source_ids is None:
            raise ValueError("encoder-decoder requires a source sentence")
        encoding = self.encode(source_ids)
        context = (np.zeros((self.src_dim, 1)) if self.attention != "none" else None)
        return EncDecState(encoding=encoding, layers=encoding.init_layers,
                           context=context)

    def step(self, state, rows, prev_ids):
        """Predictor protocol: one decoder call extending the columns ``rows``
        of ``state``; see :mod:`seqbench.search`."""
        encoding = state.encoding
        # H, src_proj and the state's arrays came out of checked ops: they
        # enter as they are
        H, src = encoding.H, encoding.src_proj
        if src is not None:
            src = np.hstack([src] * len(rows))
        context = None if state.context is None else np.take(state.context, rows, axis=1)
        with Eager() as e:
            x, layers, context, alpha = self._step_nodes(
                e, H, prev_ids, gather_layer_states(state.layers, rows), context, src)
            P = e.softmax(self._scores(e, x))
        return P, EncDecState(encoding=encoding, layers=layers, context=context), alpha

    # ---- training / scoring -------------------------------------------------

    def loss_graph(self, source_ids, target_ids) -> Graph:
        """Unrolled NLL graph of an EOS-terminated target given the source."""
        g = Graph()
        self._loss(g, source_ids, target_ids)
        return g

    def _loss(self, g: Evaluator, source_ids, target_ids) -> Value:
        """The NLL of an EOS-terminated target given the source.

        The decoder loop only collects each position's output-layer input;
        after it, one ``affine`` scores all T positions as the columns of one
        matrix and one ``pick_neg_log_softmax`` takes every target's loss, so
        backward forms ``W_hs``'s gradient in one product.
        """
        H, states = self._encode_nodes(g, source_ids)
        context = (g.input(np.zeros((self.src_dim, 1)))
                   if self.attention != "none" else None)
        src = self._source_projection(g, H)
        inputs = []
        prev = BOS_ID
        for target in target_ids:
            x, states, context, _ = self._step_nodes(g, H, prev, states, context, src)
            inputs.append(x)
            prev = target
        X = g.concat_cols(*inputs) if len(inputs) > 1 else inputs[0]
        return g.sum(g.pick_neg_log_softmax(self._scores(g, X), target_ids))

    def sentence_loss(self, source_ids, target_ids) -> float:
        with Eager() as e:
            return float(self._loss(e, source_ids, target_ids)[0, 0])

    def corpus_nll(self, pairs) -> float:
        """Total NLL of (source ids, EOS-terminated target ids) pairs, one
        eager :meth:`sentence_loss` per pair, added in data order."""
        return sum(self.sentence_loss(f, e) for f, e in pairs)

    @property
    def vocab(self):
        return self.tgt_vocab


class Ensemble:
    """Average the per-step distributions of several decoders.

    Every member threads its own state; all must share one target and one
    source vocabulary (None for language models): the source is encoded,
    and the averaged distribution read, with the first member's.
    """

    def __init__(self, models):
        if not models:
            raise ValueError("empty ensemble")
        first = models[0]
        # a language model's source vocabulary is None
        sources = [m.src_vocab and m.src_vocab.tokens for m in models]
        for m, source in zip(models[1:], sources[1:]):
            if m.vocab.tokens != first.vocab.tokens:
                raise ValueError("ensemble members must share the target vocabulary")
            if source != sources[0]:
                raise ValueError("ensemble members must share the source vocabulary")
        self.models = list(models)
        self.vocab, self.src_vocab = first.vocab, first.src_vocab

    def start(self, source_ids=None):
        return tuple(m.start(source_ids) for m in self.models)

    def step(self, state, rows, prev_ids):
        """One call per member with all B columns; ``state`` holds one state
        per member."""
        total = alphas = None
        member_states = []
        for model, member_state in zip(self.models, state):
            P, new, a = model.step(member_state, rows, prev_ids)
            total = P if total is None else total + P
            member_states.append(new)
            if alphas is None:
                alphas = a      # unknown replacement follows the first member
        return total / len(self.models), tuple(member_states), alphas

    def corpus_nll(self, items) -> float:
        """Total NLL under the averaged distribution, one B=1 :meth:`step`
        per target token, of EOS-terminated target ids (members that are
        language models) or of (source ids, target ids) pairs."""
        pairs = items if self.src_vocab is not None else [(None, e) for e in items]
        total = 0.0
        for f, e in pairs:
            state, prev, nll = self.start(f), BOS_ID, 0.0
            for target in e:
                P, state, _ = self.step(state, [0], [prev])
                nll -= math.log(P[target, 0])
                prev = target
            total += nll
        return total


def train_encdec(model: EncDecModel, pairs, optimizer: Optimizer, epochs: int,
                 dev_pairs=None, rng=None, log=None, shuffle: bool = True):
    """Per-sentence training over (source_ids, target_ids) pairs with
    :func:`optim.fit`; returns its per-epoch dev log-likelihoods."""

    def train_epoch(ordered):
        train_loss = 0.0
        for f, e in ordered:
            g = model.loss_graph(f, e)
            train_loss += float(g.forward()[0, 0])
            g.backward()
            optimizer.step()
            optimizer.zero_grad()
        return train_loss

    dev_ll = (None if dev_pairs is None else
              lambda: -model.corpus_nll(dev_pairs))
    return fit([(list(f), list(e)) for f, e in pairs], train_epoch,
               EpochTracker(optimizer), epochs, dev_ll, rng=rng, shuffle=shuffle,
               log=log)
