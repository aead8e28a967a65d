"""Command-line interface.

Subcommands: train-ngram, train-loglinear, train-ffnnlm, train-rnnlm,
train-encdec, eval-ppl, translate, ensemble-translate, sample, bleu.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical divergence.
An optional ``--config file`` supplies ``key=value`` defaults (keys are the
long option names without dashes); explicit command-line flags override it.
Every stochastic run is driven by a single seeded generator (``--seed``,
default 42). Training commands append one line per epoch to a metrics file:
``epoch<TAB>train_loss<TAB>dev_ll<TAB>dev_ppl``, where ``dev_ll`` charges
unknown words the 1/v_all factor ``eval-ppl`` charges. Every output file is opened
after the inputs are read and before any training, scoring or decoding
starts; one that cannot be opened or written is a data error naming its path,
and so is a failed write to stdout, named ``stdout``. A failed run removes
every output file it created and keeps an earlier model.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, suppress

import numpy as np

from . import corpus as C
from .autograd import NonFiniteError
from .corpus import DataError
from .evaluate import bleu as corpus_bleu
from .evaluate import evaluate_ll, perplexity
from .loglinear import LogLinearLM
from .modelfile import load_model, save_model
from .ngram import NGramLM
from .nnet import FFNNLM, RNNLM, train_lm
from .optim import TrainingDivergence, make_optimizer
from .search import LengthPrior, beam_search, greedy, nbest_lines, \
    replace_unknowns, sample
from .seq2seq import EncDecModel, Ensemble, train_encdec

LENGTH_NORM = {"none": "none", "prior": "multinomial_prior",
               "perword": "per_word_normalize"}


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def alpha_list(text: str) -> list[float]:
    """Comma-separated held-out masses, each in [0, 1]."""
    values = []
    for part in text.split(","):
        try:
            value = float(part)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {part!r}") from None
        if not 0.0 <= value <= 1.0:
            raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
        values.append(value)
    return values


def build_parser() -> Parser:
    parser = Parser(prog="seqbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def cmd(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", metavar="FILE", help="key=value defaults file")
        p.add_argument("--seed", type=int, default=42)
        return p

    def train_flags(p, dev=True):
        p.add_argument("--train", metavar="FILE", required=True, help="training corpus")
        if dev:
            p.add_argument("--dev", metavar="FILE", help="development corpus")
        p.add_argument("--model", metavar="FILE", required=True, help="output model path")
        p.add_argument("--metrics", metavar="FILE",
                       help="per-epoch metrics file (default: MODEL.metrics)")
        p.add_argument("--epochs", type=positive_int, default=5)
        p.add_argument("--lr", type=positive_float, default=0.1)

    def vocab_flags(p):
        p.add_argument("--unk-policy",
                       choices=["keep_all", "replace_singletons", "min_count"],
                       default="replace_singletons")
        p.add_argument("--min-count", type=positive_int, default=2)
        p.add_argument("--v-all", type=positive_int, default=C.DEFAULT_V_ALL)

    def neural_flags(p, batch_help="sentences per training minibatch"):
        p.add_argument("--embed", type=positive_int, default=64)
        p.add_argument("--hidden", type=positive_int, default=128)
        p.add_argument("--optimizer", choices=["sgd", "momentum", "adagrad", "adam"],
                       default="adam")
        p.add_argument("--batch-size", type=positive_int, default=8, help=batch_help)
        p.add_argument("--clip-norm", type=positive_float, default=5.0)
        vocab_flags(p)

    p = cmd("train-ngram", help="count-based interpolated n-gram LM")
    p.add_argument("--train", metavar="FILE", required=True)
    p.add_argument("--model", metavar="FILE", required=True)
    p.add_argument("--order", type=positive_int, default=3)
    p.add_argument("--alpha", type=alpha_list, default=[0.1],
                   help="held-out mass in [0, 1], one value or comma list per order")
    p.add_argument("--v-all", type=positive_int, default=C.DEFAULT_V_ALL)

    p = cmd("train-loglinear", help="feature-based LM with SGD")
    train_flags(p)
    p.add_argument("--template",
                   choices=["prev_word", "prev2_words", "suffix_k", "bag_of_words"],
                   default="prev2_words")
    p.add_argument("--no-shuffle", action="store_true")
    p.add_argument("--no-decay", action="store_true")
    vocab_flags(p)

    p = cmd("train-ffnnlm", help="feed-forward n-gram neural LM")
    train_flags(p)
    neural_flags(p)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--nonlinearity", choices=["tanh", "relu"], default="tanh")

    p = cmd("train-rnnlm", help="recurrent neural LM")
    train_flags(p)
    neural_flags(p)
    p.add_argument("--cell", choices=["rnn", "lstm", "lstm_forget", "gru"],
                   default="lstm_forget")
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--residual", action="store_true")

    p = cmd("train-encdec", help="encoder-decoder translation model")
    p.add_argument("--train-src", metavar="FILE", required=True)
    p.add_argument("--train-tgt", metavar="FILE", required=True)
    p.add_argument("--dev-src", metavar="FILE")
    p.add_argument("--dev-tgt", metavar="FILE")
    p.add_argument("--model", metavar="FILE", required=True)
    p.add_argument("--metrics", metavar="FILE")
    p.add_argument("--epochs", type=positive_int, default=5)
    p.add_argument("--lr", type=positive_float, default=0.001)
    neural_flags(p, batch_help="accepted and ignored: the encoder-decoder trains "
                               "one sentence at a time")
    p.add_argument("--attention", choices=["none", "dot", "bilinear", "mlp"],
                   default="mlp")
    p.add_argument("--encoder", choices=["forward", "reverse", "bidir"],
                   default="bidir")
    p.add_argument("--bridge", choices=["copy", "concat", "tanh"])
    p.add_argument("--dec-hidden", type=positive_int)
    p.add_argument("--layers", type=int, default=1)

    p = cmd("eval-ppl", help="likelihood / perplexity report")
    p.add_argument("--model", metavar="FILE", required=True)
    p.add_argument("--data", metavar="FILE", required=True, help="target corpus")
    p.add_argument("--source", metavar="FILE",
                   help="source corpus for conditional models")
    p.add_argument("--out", metavar="FILE",
                   help="write the report here instead of stdout")

    for name in ("translate", "ensemble-translate"):
        p = cmd(name, help="decode a source corpus")
        if name == "translate":
            p.add_argument("--model", metavar="FILE", required=True)
        else:
            p.add_argument("--models", metavar="FILE,...", required=True,
                           help="comma-separated model paths")
        p.add_argument("--input", metavar="FILE", required=True)
        p.add_argument("--output", metavar="FILE", help="default stdout")
        p.add_argument("--search", choices=["greedy", "beam", "sample"],
                       default="greedy")
        p.add_argument("--beam-size", type=positive_int, default=4)
        p.add_argument("--length-norm", choices=["none", "prior", "perword"],
                       default="none")
        p.add_argument("--nbest", type=non_negative_int, default=0,
                       help="emit an n-best list instead of one line per input")
        p.add_argument("--replace-unk", action="store_true")
        p.add_argument("--max-len", type=positive_int)

    p = cmd("sample", help="draw random sentences from a language model")
    p.add_argument("--model", metavar="FILE", required=True)
    p.add_argument("--count", type=positive_int, default=1)
    p.add_argument("--max-len", type=positive_int, default=100)
    p.add_argument("--output", metavar="FILE")

    p = cmd("bleu", help="corpus BLEU of hypotheses against references")
    p.add_argument("--hyp", metavar="FILE", required=True)
    p.add_argument("--ref", metavar="FILE", required=True)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Splice ``--config`` file entries in as defaults before explicit flags."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise UsageError("--config needs a file argument")
    path = argv[at + 1]
    injected = []
    for i, raw in enumerate(C.read_token_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {i} is not key=value")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                injected.append(f"--{key}")
        else:
            injected.extend([f"--{key}", value])
    head = argv[:1]              # subcommand first, then config defaults
    rest = argv[1:at] + argv[at + 2:]
    return head + injected + rest


def _new_model(cls, *args, **kwargs):
    """Construct a model, reporting a rejected flag combination as a usage error."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _build_vocab_from(lines, path, policy, min_count, v_all):
    """The vocabulary of ``lines``, read from ``path``, which errors name."""
    try:
        return C.build_vocab(lines, policy=policy, min_count=min_count, v_all=v_all)
    except DataError as exc:        # a corpus without a word
        raise DataError(f"{path}: {exc}") from exc
    except ValueError as exc:       # --v-all not above the vocabulary size
        raise UsageError(f"--v-all {v_all}: {exc} of {path}") from exc


def _nonempty(lines, what, *paths):
    """``lines`` read from ``paths``; none at all is a data error naming them."""
    if not lines:
        raise DataError(f"{', '.join(paths)}: empty {what}")
    return lines


class MetricsLog:
    """Writes the metrics rows; ``dev_ll`` and ``dev_ppl`` charge the dev
    sentences' unknown words the 1/v_all factor that ``eval-ppl`` charges."""

    def __init__(self, fh, vocab, dev_sentences):
        self.fh = fh
        self.dev_words = max(sum(len(ids) for ids in dev_sentences), 1)
        self.unk_logp = C.unknown_factor(vocab, dev_sentences)[1]

    def __call__(self, epoch, train_loss, dev_ll):
        dev_ll += self.unk_logp
        ppl = perplexity(dev_ll, self.dev_words)
        self.fh.write(f"{epoch}\t{train_loss!r}\t{dev_ll!r}\t{ppl!r}\n")
        self.fh.flush()


@contextmanager
def _reported_as_data_error(model_path):
    """Report a NaN or Inf that a loaded model's finite values produce (an
    overflow) as a data error naming the model file, with no warning."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except NonFiniteError as exc:
        raise DataError(f"{model_path}: the model's values overflow to a "
                        f"non-finite number ({exc})") from exc


@contextmanager
def _output(path, mode="w"):
    """An output file, opened before the work starts: ``"w"`` empties it,
    ``"ab"`` (a model's) creates it without emptying an earlier model. A
    ``path`` of None is stdout, flushed at the end.

    Failing to open, write or close it, or to write or flush stdout, is a
    data error naming ``path`` (or ``stdout``). A run that fails, for any
    reason, removes the file again if it created it, and so leaves an
    earlier model in place and no file where there was none.
    """
    if path is None:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:
            _discard_stdout()
            raise DataError(f"stdout: cannot write: {exc.strerror or exc}") from exc
        return
    created = not os.path.exists(path)
    try:
        try:
            with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
                yield fh
        except OSError as exc:
            raise DataError(f"{path}: cannot write: {exc.strerror or exc}") from exc
    except BaseException:
        if created:
            with suppress(OSError):
                os.unlink(path)
        raise


@contextmanager
def _training_outputs(args, model, dev_sentences):
    """A training command's metrics log over the encoded ``dev_sentences``;
    the model is saved once training ends. The model file is the inner one,
    so a failed save is named by its path and removes the metrics too."""
    with _output(args.metrics or f"{args.model}.metrics") as fh, \
            _output(args.model, "ab"):
        yield MetricsLog(fh, model.vocab, dev_sentences)
        save_model(model, args.model)


def _discard_stdout():
    """Point stdout's file descriptor at the null device, so that what a
    failed write left in its buffer goes nowhere and the interpreter's last
    flush cannot fail again; a stdout without a descriptor is left as is."""
    with suppress(OSError, ValueError):
        fd = sys.stdout.fileno()
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, fd)
        finally:
            os.close(null)


def _write_lines(lines, out):
    out.write("".join(line + "\n" for line in lines))


def run(argv) -> int:
    argv = list(argv)
    parser = build_parser()
    argv = _apply_config(argv)
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("no subcommand given (try --help)")
    rng = np.random.default_rng(args.seed)
    return COMMANDS[args.command](args, rng)


def cmd_train_ngram(args, rng) -> int:
    lines = C.read_token_lines(args.train)
    alphas = args.alpha
    if len(alphas) == 1:
        alphas = alphas * args.order
    if len(alphas) != args.order:
        raise UsageError("--alpha needs one value or one per order")
    vocab = _build_vocab_from(lines, args.train, "keep_all", 2, args.v_all)
    with _output(args.model, "ab"):
        save_model(NGramLM.train(lines, n=args.order, alphas=alphas, vocab=vocab),
                   args.model)
    return 0


def cmd_train_loglinear(args, rng) -> int:
    train_lines = C.read_token_lines(args.train)
    dev_lines = (_nonempty(C.read_token_lines(args.dev), "development set", args.dev)
                 if args.dev else None)
    vocab = _build_vocab_from(train_lines, args.train, args.unk_policy, args.min_count,
                              args.v_all)
    model = LogLinearLM(vocab, args.template)
    dev_sents = [C.encode(vocab, line, append_eos=True)
                 for line in (dev_lines or train_lines)]
    with _training_outputs(args, model, dev_sents) as log:
        model.train_sgd(train_lines, dev_lines=dev_lines, lr=args.lr,
                        epochs=args.epochs, shuffle=not args.no_shuffle,
                        decay=not args.no_decay, rng=rng, log=log)
    return 0


def _train_neural_lm(args, rng, cls, **settings):
    train_lines = C.read_token_lines(args.train)
    vocab = _build_vocab_from(train_lines, args.train, args.unk_policy, args.min_count,
                              args.v_all)
    model = _new_model(cls, vocab, embed_size=args.embed, hidden_size=args.hidden,
                       rng=rng, **settings)
    train_sents = [C.encode(vocab, line, append_eos=True) for line in train_lines]
    dev_sents = ([C.encode(vocab, line, append_eos=True) for line in
                  _nonempty(C.read_token_lines(args.dev), "development set", args.dev)]
                 if args.dev else None)
    opt = make_optimizer(args.optimizer, model.parameters(), lr=args.lr,
                         clip_norm=args.clip_norm)
    with _training_outputs(args, model, dev_sents or train_sents) as log:
        train_lm(model, train_sents, opt, epochs=args.epochs,
                 dev_sentences=dev_sents, batch_size=args.batch_size,
                 rng=rng, log=log)
    return 0


def cmd_train_ffnnlm(args, rng) -> int:
    return _train_neural_lm(args, rng, FFNNLM, n=args.order,
                            nonlinearity=args.nonlinearity)


def cmd_train_rnnlm(args, rng) -> int:
    return _train_neural_lm(args, rng, RNNLM, cell=args.cell, layers=args.layers,
                            residual=args.residual)


def cmd_train_encdec(args, rng) -> int:
    if bool(args.dev_src) != bool(args.dev_tgt):
        raise UsageError("--dev-src and --dev-tgt go together; give both or neither")
    pairs_text = C.read_parallel(args.train_src, args.train_tgt)
    src_lines, tgt_lines = [f for f, _ in pairs_text], [e for _, e in pairs_text]
    _reject_blank_sources(args.train_src, src_lines)
    src_vocab = _build_vocab_from(src_lines, args.train_src, args.unk_policy,
                                  args.min_count, args.v_all)
    tgt_vocab = _build_vocab_from(tgt_lines, args.train_tgt, args.unk_policy,
                                  args.min_count, args.v_all)
    direction = {"bidir": "bidirectional"}.get(args.encoder, args.encoder)
    model = _new_model(EncDecModel, src_vocab, tgt_vocab, embed_size=args.embed,
                       hidden_size=args.hidden, dec_hidden=args.dec_hidden,
                       layers=args.layers, encoder=direction,
                       bridge=args.bridge, attention=args.attention, rng=rng)
    pairs = [(C.encode(src_vocab, f), C.encode(tgt_vocab, e, append_eos=True))
             for f, e in pairs_text]
    model.length_prior = LengthPrior.from_pairs(pairs)
    dev_pairs = None
    if args.dev_src:
        dev_text = _nonempty(C.read_parallel(args.dev_src, args.dev_tgt),
                             "development set", args.dev_src, args.dev_tgt)
        _reject_blank_sources(args.dev_src, [f for f, _ in dev_text])
        dev_pairs = [(C.encode(src_vocab, f), C.encode(tgt_vocab, e, append_eos=True))
                     for f, e in dev_text]
    opt = make_optimizer(args.optimizer, model.parameters(), lr=args.lr,
                         clip_norm=args.clip_norm)
    with _training_outputs(args, model, [e for _, e in (dev_pairs or pairs)]) as log:
        train_encdec(model, pairs, opt, epochs=args.epochs,
                     dev_pairs=dev_pairs, rng=rng, log=log)
    return 0


def _reject_blank_sources(path, lines):
    """A blank source line leaves the encoder nothing to read: a data error."""
    for number, line in enumerate(lines, start=1):
        if not line.split():
            raise DataError(f"{path}: line {number} is empty")


def cmd_eval_ppl(args, rng) -> int:
    model = load_model(args.model)
    if model.src_vocab is not None:
        if not args.source:
            raise UsageError("conditional models need --source")
        pairs = C.read_parallel(args.source, args.data)
        _reject_blank_sources(args.source, [f for f, _ in pairs])
        data = [(f.split(), e.split()) for f, e in pairs]
    elif args.source:
        raise UsageError("--source is for conditional models; a language model "
                         "scores --data alone")
    else:
        data = [line.split() for line in C.read_token_lines(args.data)]
    _nonempty(data, "evaluation data", args.data)
    with _output(args.out) as out, _reported_as_data_error(args.model):
        try:
            report = evaluate_ll(model, data)
        except DataError as exc:        # a target line ending too early
            raise DataError(f"{args.data}: {exc}") from exc
        _write_lines(report.lines(), out)
    return 0


def _decode_corpus(model, args, rng) -> int:
    if model.src_vocab is None:
        raise UsageError("translate needs a conditional model; use sample for "
                         "language models")
    # the length prior and the attention that unknown-word replacement
    # follows are an ensemble's first member's
    lead = model.models[0] if isinstance(model, Ensemble) else model
    if args.replace_unk and lead.attention == "none":
        raise UsageError("--replace-unk follows the attention of the model (of "
                         "an ensemble's first member), which has --attention none")
    lines = C.read_token_lines(args.input)
    _reject_blank_sources(args.input, lines)
    mode = LENGTH_NORM[args.length_norm]
    prior = lead.length_prior
    if mode == "multinomial_prior" and prior is None:
        raise DataError("model file carries no length prior; retrain or use "
                        "--length-norm none/perword")
    with _output(args.output) as fh:
        out = []
        for index, line in enumerate(lines):
            tokens = line.split()
            source_ids = C.encode(model.src_vocab, tokens)
            if args.search == "greedy":
                hyps = [greedy(model, source_ids, max_len=args.max_len)]
            elif args.search == "sample":
                hyps = [sample(model, source_ids, rng=rng, max_len=args.max_len)]
            else:
                hyps = beam_search(model, source_ids, beam_size=args.beam_size,
                                   max_len=args.max_len, length_mode=mode,
                                   length_prior=prior)
            hyps = hyps[:args.nbest or 1]
            words = [replace_unknowns(h, tokens, model.vocab) if args.replace_unk
                     else h.surface(model.vocab) for h in hyps]
            if args.nbest:
                out.extend(nbest_lines(hyps, index, words))
            else:
                out.append(" ".join(words[0]))
        _write_lines(out, fh)
    return 0


def cmd_translate(args, rng) -> int:
    model = load_model(args.model)
    with _reported_as_data_error(args.model):
        return _decode_corpus(model, args, rng)


def cmd_ensemble_translate(args, rng) -> int:
    paths = args.models.split(",")
    models = [load_model(path) for path in paths]
    for path, model in zip(paths, models):
        if model.src_vocab is None:
            raise DataError(f"{path}: ensemble member is a language model "
                            f"({model.kind}); every member must be an encoder-decoder")
    first = models[0]
    for path, model in zip(paths[1:], models[1:]):
        for side, vocab, first_vocab in (("source", model.src_vocab, first.src_vocab),
                                         ("target", model.tgt_vocab, first.tgt_vocab)):
            if vocab.tokens != first_vocab.tokens:
                raise DataError(f"{path}: {side} vocabulary differs from {paths[0]}'s; "
                                f"ensemble members must share it")
    with _reported_as_data_error(args.models):
        return _decode_corpus(Ensemble(models), args, rng)


def cmd_sample(args, rng) -> int:
    model = load_model(args.model)
    if model.src_vocab is not None:
        raise UsageError("sample draws from unconditional language models; "
                         "use translate --search sample for conditional ones")
    out = []
    with _output(args.output) as fh, _reported_as_data_error(args.model):
        for _ in range(args.count):
            hyp = sample(model, rng=rng, max_len=args.max_len)
            out.append(" ".join(hyp.surface(model.vocab)))
        _write_lines(out, fh)
    return 0


def cmd_bleu(args, rng) -> int:
    pairs = C.read_parallel(args.hyp, args.ref)
    try:
        report = corpus_bleu([h for h, _ in pairs], [r for _, r in pairs])
    except DataError as exc:        # no hypothesis words
        raise DataError(f"{args.hyp}: {exc}") from exc
    with _output(None) as out:
        _write_lines(report.lines(), out)
    return 0


COMMANDS = {
    "train-ngram": cmd_train_ngram,
    "train-loglinear": cmd_train_loglinear,
    "train-ffnnlm": cmd_train_ffnnlm,
    "train-rnnlm": cmd_train_rnnlm,
    "train-encdec": cmd_train_encdec,
    "eval-ppl": cmd_eval_ppl,
    "translate": cmd_translate,
    "ensemble-translate": cmd_ensemble_translate,
    "sample": cmd_sample,
    "bleu": cmd_bleu,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergence as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
