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

One loss builder serves training and scoring: it takes B (source, target)
pairs as the columns of one padded batch, and a pair alone is the
per-sentence loss. In a batch each column attends over its own source,
padded source words get exactly zero weight, and only real target positions
are scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Eager, Evaluator, Graph, Parameter, Value
from .corpus import BOS_ID, EOS_ID, Vocabulary
from .nnet import (SCORE_BATCH, RecurrentState, StackedRNN, embedding_init,
                   file_tensor_views, gather_layer_states, glorot, same_columns)
from .optim import EpochTracker, Optimizer, fit, train_graphs
from .search import _one_column, _search

ENCODER_DIRECTIONS = ("forward", "reverse", "bidirectional")
BRIDGE_KINDS = ("copy", "concat", "tanh")
ATTENTION_KINDS = ("none", "dot", "bilinear", "mlp")


# the attention score of a padded source word: exp rounds its weight to 0.0
PAD_SCORE = -1e30


@dataclass
class SourceEncoding:
    """The per-word encodings of B sources, one per batch column, plus the
    decoder's starting state; frozen arrays when :meth:`EncDecModel.encode`
    made them for one source.

    ``H`` holds S·B columns t-major, S the longest length: column t·B + b
    is word t of source b. With padding, ``mask`` is the S x B additive
    attention mask, 0 at a word and ``PAD_SCORE`` past a source's end.
    MLP attention's ``src_proj`` is laid out as ``H``; a decoder step over
    K columns of one source repeats each of its columns K times, so that
    column t·K + b lines up with decoder column b. An LSTM layer's initial
    ``c`` is an all-zero ``[h; c]``.

    ``columns`` keeps, per width K, what MLP attention over K columns
    builds alike at every eager step: the source projection laid out as the
    keys, the ids that lay ``W_a1_dec·h`` out alike, and ``w_a2`` once per
    column. A search steps at a few widths, so each is built once.
    """

    H: Value                            # (encoding_dim, S·B)
    init_layers: list                   # B-column RecurrentState per decoder layer
    lengths: list                       # the B source lengths
    mask: Value | None = None
    # MLP attention's step-invariant parts, else None: W_a1_src·H, and w_a2ᵀ
    # for one source
    src_proj: Value | None = None
    w_a2_t: Value | None = None
    columns: dict = field(default_factory=dict)     # K -> (src, ids, w_a2); eager only


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

    def _run_direction(self, g: Evaluator, stack: StackedRNN, sources, reverse: bool):
        """One direction over B sources: (its outputs as one t-major matrix
        in word order, its final top-layer states).

        Step t feeds column b word t of its source, or word n_b - 1 - t in
        reverse, so a column's padded steps, which feed EOS, all come after
        its last word and no state that is read has seen padding. Without
        padding the reverse direction's step outputs are joined in reverse
        (a ``lookup_column`` would return an F-ordered matrix, whose products
        round differently). With padding one ``lookup_column`` puts them back
        in word order, and each column's final state is gathered at its own
        last step.
        """
        lengths = [len(f) for f in sources]
        batch, steps = len(lengths), max(lengths)
        columns = [(f[::-1] if reverse else f) + [EOS_ID] * (steps - n)
                   for f, n in zip(sources, lengths)]
        states = stack.initial_states(g, batch=batch)
        outputs = []
        for ids in zip(*columns):
            out, states = stack.step(g, g.lookup_column(g.param(self.M_f), ids), states)
            outputs.append(out)
        if min(lengths) == steps:
            final = outputs[-1]
            if reverse:
                outputs.reverse()
            return g.concat_cols(*outputs) if steps > 1 else final, final
        outputs = g.concat_cols(*outputs)
        final = g.lookup_column(outputs, [(n - 1) * batch + b
                                          for b, n in enumerate(lengths)])
        if reverse:     # word t of column b was read at step n_b - 1 - t
            outputs = g.lookup_column(outputs, [(n - 1 - t if t < n else t) * batch + b
                                                for t in range(steps)
                                                for b, n in enumerate(lengths)])
        return outputs, final

    def _encode_nodes(self, g: Evaluator, sources) -> SourceEncoding:
        """Encode B sources as the columns of one batch; MLP attention's
        step-invariant parts are left to the caller. A batch without padding
        builds the one-sentence op sequence on B columns."""
        sources = [list(f) for f in sources]
        lengths = [len(f) for f in sources]
        if not all(lengths):
            raise ValueError("empty source sentence")
        direction = self.encoder_direction
        if direction == "bidirectional":
            fwd, final_fwd = self._run_direction(g, self.enc_fwd, sources, False)
            bwd, final_bwd = self._run_direction(g, self.enc_bwd, sources, True)
        else:
            fwd, final_fwd = self._run_direction(g, self.enc_fwd, sources,
                                                 direction == "reverse")
            bwd = final_bwd = None

        H = fwd if bwd is None else g.concat_rows(bwd, fwd)
        mask = None
        width = max(lengths)
        if min(lengths) < width:
            mask = g.input([[0.0 if t < n else PAD_SCORE for n in lengths]
                            for t in range(width)])

        if self.bridge == "copy":
            h0 = final_fwd
        elif self.bridge == "concat":
            h0 = g.concat_rows(final_bwd, final_fwd)
        else:
            terms = [g.param(self.W_bridge_fwd), final_fwd]
            if final_bwd is not None:
                terms += [g.param(self.W_bridge_bwd), final_bwd]
            h0 = g.tanh(g.affine(g.param(self.b_bridge), *terms))

        zeros = np.zeros((2 * self.dec_hidden, len(sources)))     # [h; c]
        init = []
        for i, cell in enumerate(self.dec.cells):
            h = h0 if i == 0 else g.input(zeros[:self.dec_hidden])
            init.append(RecurrentState(h=h, c=g.input(zeros) if cell.has_cell else None))
        return SourceEncoding(H=H, init_layers=init, lengths=lengths, mask=mask)

    def encode(self, source_ids) -> SourceEncoding:
        """Run the encoder eagerly and keep the per-word encodings, with MLP
        attention's step-invariant parts, computed here once per source."""
        with Eager() as e:
            encoding = self._encode_nodes(e, [source_ids])
            self._step_invariants(e, encoding)
        return encoding

    # ---- attention ---------------------------------------------------------

    def _step_invariants(self, g: Evaluator, encoding: SourceEncoding):
        """Set MLP attention's parts that are the same at every decoder step
        on ``encoding``: the source half ``W_a1_src·H`` and, for one source,
        ``w_a2ᵀ``, which its one-column steps score with (wider steps and a
        batch of sources score with ``batch_dot``); the other kinds have
        none."""
        if self.attention == "mlp":
            encoding.src_proj = g.matmul(g.param(self.W_a1_src), encoding.H)
            if len(encoding.lengths) == 1:
                encoding.w_a2_t = g.transpose(g.param(self.w_a2))

    def _attention(self, g: Evaluator, encoding: SourceEncoding, h_dec: Value,
                   src: Value | None) -> tuple[Value, Value]:
        """(alpha, context) of the decoder states in the columns of ``h_dec``:
        alpha is S x K, each column softmaxed over its source's words, and
        the context is ``H`` mixed with those weights.

        An encoding of one source is shared by all K columns, as in decoder
        steps; an encoding of B sources gives each of the K = B columns its
        own, with ``PAD_SCORE`` added at padded words. ``src`` is MLP
        attention's source projection ``W_a1_src·H``; a step over K columns
        of one source passes it repeated t-major, column t·K + b projecting
        word t, the layout of a batch's keys; under :class:`~.autograd.Eager`
        it is read only when ``encoding.columns`` holds nothing for K columns.
        The other kinds ignore it.
        """
        H, batch = encoding.H, h_dec.shape[1]
        one_source = len(encoding.lengths) == 1
        if self.attention != "mlp":
            keys = g.transpose(H) if one_source else H
            queries = (h_dec if self.attention == "dot"
                       else g.matmul(g.param(self.W_a), h_dec))
            scores = (g.matmul(keys, queries) if one_source
                      else g.batch_dot(keys, queries))
        elif one_source and batch == 1:     # broadcast over the source words
            pre = g.affine(src, g.param(self.W_a1_dec), h_dec)
            scores = g.transpose(g.matmul(encoding.w_a2_t, g.tanh(pre)))
        else:   # key t·K + b pairs decoder state b with word t of its source
            eager = isinstance(g, Eager)
            parts = encoding.columns.get(batch) if eager else None
            if parts is None:
                parts = (src, np.tile(np.arange(batch), max(encoding.lengths)),
                         g.lookup_column(g.param(self.w_a2), [0] * batch))
                if eager:
                    encoding.columns[batch] = parts
            src, ids, w_a2 = parts
            dec = g.lookup_column(g.matmul(g.param(self.W_a1_dec), h_dec), ids)
            scores = g.batch_dot(g.tanh(g.add(dec, src)), w_a2)
        if encoding.mask is not None:
            scores = g.add(scores, encoding.mask)
        alpha = g.softmax(scores)
        return alpha, g.matmul(H, alpha) if one_source else g.attend(H, alpha)

    # ---- decoding ----------------------------------------------------------

    def _scores(self, g: Evaluator, x: Value) -> Value:
        """The output layer: next-word scores for every column of ``x``."""
        return g.affine(g.param(self.b_s), g.param(self.W_hs), x)

    def _step_nodes(self, g: Evaluator, encoding: SourceEncoding, prev_ids, states,
                    context: Value | None, src: Value | None = None):
        """One decoder step for the B columns of ``states``, fed ``prev_ids``
        (a list of B ids); returns (output-layer input, new states, context,
        alpha). The output-layer input is ``[h; context]`` with attention
        and ``h`` without; :meth:`_scores` turns it into scores. ``src`` is
        MLP attention's source projection.

        :meth:`_attention` reads ``encoding`` for each column.
        """
        x = g.lookup_column(g.param(self.M_e), prev_ids)
        if self.attention != "none":
            x = g.concat_rows(x, context)
        out, states = self.dec.step(g, x, states)
        if self.attention == "none":
            return out, states, None, None
        alpha, new_context = self._attention(g, encoding, out, src)
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
        of ``state``; see :mod:`seqbench.search`. When ``rows`` are the
        state's own columns in order, the step reads the state's arrays as
        they are and gathers nothing."""
        encoding = state.encoding
        # H, the step invariants and the state's arrays came out of checked
        # ops: they enter as they are
        src = encoding.src_proj
        if src is not None and len(rows) > 1 and len(rows) not in encoding.columns:
            src = np.repeat(src, len(rows), axis=1)
        context = state.context
        if context is not None and not same_columns(rows, context.shape[1]):
            context = np.take(context, rows, axis=1)
        with Eager() as e:
            x, layers, context, alpha = self._step_nodes(
                e, encoding, prev_ids, gather_layer_states(state.layers, rows), context,
                src)
            P = e.softmax(self._scores(e, x))
        return P, EncDecState(encoding=encoding, layers=layers, context=context), alpha

    # ---- training / scoring -------------------------------------------------

    def loss_graph(self, source_ids, target_ids) -> Graph:
        """Unrolled NLL graph of an EOS-terminated target given the source."""
        with Graph() as g:
            self._loss(g, [(source_ids, target_ids)])
        return g

    def _loss(self, g: Evaluator, pairs) -> Value:
        """The total NLL of (source ids, EOS-terminated target ids) pairs,
        the B columns of one padded batch.

        The decoder loop only collects each position's output-layer input,
        t-major (column t·B + b); after it, the real target positions are
        gathered, one ``affine`` scores them as the columns of one matrix
        and one ``pick_neg_log_softmax`` takes every target's loss, so
        backward forms ``W_hs``'s gradient in one product. Padded positions
        are never scored, and a batch without padding gathers nothing: one
        pair builds the one-sentence graph.
        """
        targets = [list(e) for _, e in pairs]
        if not all(targets):
            raise ValueError("empty target sentence: targets end in EOS")
        batch = len(pairs)
        encoding = self._encode_nodes(g, [f for f, _ in pairs])
        context = (g.input(np.zeros((self.src_dim, batch)))
                   if self.attention != "none" else None)
        self._step_invariants(g, encoding)
        src = encoding.src_proj
        states = encoding.init_layers
        steps = max(len(e) for e in targets)
        inputs = []
        prev = [BOS_ID] * batch
        for t in range(steps):
            x, states, context, _ = self._step_nodes(g, encoding, prev, states, context,
                                                     src)
            inputs.append(x)
            prev = [e[t] if t < len(e) else EOS_ID for e in targets]
        X = g.concat_cols(*inputs) if steps > 1 else inputs[0]
        real = [(t * batch + b, e[t]) for t in range(steps)
                for b, e in enumerate(targets) if t < len(e)]
        if len(real) < steps * batch:
            X = g.lookup_column(X, [column for column, _ in real])
        return g.sum(g.pick_neg_log_softmax(self._scores(g, X), [e for _, e in real]))

    def sentence_loss(self, source_ids, target_ids) -> float:
        with Eager() as e:
            return float(self._loss(e, [(source_ids, target_ids)])[0, 0])

    def corpus_nll(self, pairs) -> float:
        """Total NLL of (source ids, EOS-terminated target ids) pairs: stably
        length-sorted batches of up to ``SCORE_BATCH`` pairs, one eager
        :meth:`_loss` each.

        Batching changes how each column's products are blocked, so the
        total may differ from a per-pair sum in the last bits.
        """
        pairs = sorted(pairs, key=lambda pair: (len(pair[1]), len(pair[0])))
        with Eager() as e:
            return sum(float(self._loss(e, pairs[i:i + SCORE_BATCH])[0, 0])
                       for i in range(0, len(pairs), SCORE_BATCH))

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
        """Total NLL under the averaged distribution of EOS-terminated target
        ids (members that are language models) or of (source ids, target
        ids) pairs: the decoding loop reads each target, forced token by
        token, so it is scored by the one-column :meth:`step` calls of
        greedy search."""
        pairs = items if self.src_vocab is not None else [(None, e) for e in items]
        total = 0.0
        for f, e in pairs:
            targets = iter(e)
            hyp = _search(self, f, len(e), 1, _one_column(lambda p: next(targets)))[0]
            if len(hyp.tokens) < len(e):
                raise ValueError("end of sentence before the end of a target")
            total -= hyp.logprob
        return total


def train_encdec(model: EncDecModel, pairs, optimizer: Optimizer, epochs: int,
                 dev_pairs=None, rng=None, log=None, shuffle: bool = True):
    """Per-sentence training over (source_ids, target_ids) pairs with
    :func:`optim.fit`; returns its per-epoch dev log-likelihoods."""
    dev_ll = (None if dev_pairs is None else
              lambda: -model.corpus_nll(dev_pairs))
    return fit([(list(f), list(e)) for f, e in pairs],
               lambda ordered: train_graphs(
                   optimizer, lambda pair: model.loss_graph(*pair), ordered),
               EpochTracker(optimizer), epochs, dev_ll, rng=rng, shuffle=shuffle,
               log=log)
