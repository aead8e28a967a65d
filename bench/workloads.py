"""The seqbench benchmark workloads.

Each workload builds all of its inputs from one seed, then runs rounds of a
fixed pipeline through the library's public entry points only. Every round
starts from a fresh set-up, so the amount of work, the trained models and
every output are the same in every round of a run and in every run with the
same seed. Correctness oracles run outside the timed regions and count
toward the checked operations.

A phase is timed in chunks of equal work: sentence lengths follow a fixed
schedule in a seeded order, and every chunk of a phase holds the same
multiset of lengths. Two seeds therefore give different sentences but the
same work per chunk. Phases that do not depend on each other run their
chunks in turn (chunk 1 of each, then chunk 2, ...), so a slow spell of the
host is spread over all of them instead of falling on one.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

import seqbench as sb
from measure import reference_rate
from seqbench.corpus import EOS_ID

REL_TOL = 1e-9          # decoded logprob against the training graph's loss
ABS_FLOOR = 1e-12       # float64 rounding of a log probability near zero
BEAM1_TOL = 1e-12       # beam-1 against greedy: np.log and math.log may differ by an ulp
BATCH_TOL = 1e-8        # batched RNNLM loss against per-sentence sums (criterion 08)
EOS_BIAS = -30.0        # output bias of EOS in untrained decoders: p(EOS) < 1e-13


@dataclass
class Checks:
    """Checked operations: each is attempted once and either holds or fails."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Round:
    """What one round measured and produced."""

    samples: dict[str, list[tuple[float, float, float]]] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def time(self, phase: str, items: float, fn):
        start = time.perf_counter()
        fn()
        seconds = time.perf_counter() - start
        self.samples.setdefault(phase, []).append((items, seconds, reference_rate()))

    def digest(self) -> str:
        return digest(self.outputs)


@dataclass
class Phase:
    """The timed chunks of one phase, each ``(items, fn)``."""

    name: str
    chunks: list


@dataclass
class Score:
    """evaluate_ll reports summed over chunks."""

    log_likelihood: float = 0.0
    words: int = 0

    @property
    def perplexity(self) -> float:
        return math.exp(-self.log_likelihood / self.words)


def digest(obj) -> str:
    """Short SHA-256 of a JSON-serialisable object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def balanced_lengths(rng, count: int, chunk: int, lo: int, hi: int) -> list[int]:
    """Lengths for ``count`` sentences timed in chunks of ``chunk``.

    Every chunk holds the same lengths, spread evenly over lo..hi, in a
    seeded order; the multiset depends only on the arguments, never on ``rng``.
    """
    if count % chunk:
        raise ValueError(f"{count} sentences do not split into chunks of {chunk}")
    even = lo + ((2 * np.arange(chunk) + 1) * (hi - lo + 1)) // (2 * chunk)
    return [int(n) for _ in range(count // chunk) for n in rng.permutation(even)]


def chunks(items, size: int):
    return [items[i:i + size] for i in range(0, len(items), size)]


def close(value: float, reference: float, rel: float) -> bool:
    return abs(value - reference) <= rel * abs(reference) + ABS_FLOOR


def run_phases(rnd: Round, tracer, *phases: Phase):
    """Time the chunks of independent phases in turn, each under its phase span."""
    for k in range(max(len(phase.chunks) for phase in phases)):
        for phase in phases:
            if k < len(phase.chunks):
                items, fn = phase.chunks[k]
                with tracer.span(phase.name):
                    rnd.time(phase.name, items, fn)


def train_phase(name: str, checks: Checks, parts, train_fn, opt=None) -> Phase:
    """One chunk per part of ``(tokens, data)``; a divergence fails one operation."""
    def step(data):
        try:
            train_fn(data)
            checks.check(True, f"{name} chunk")
        except sb.TrainingDivergence as exc:
            checks.check(False, f"{name} diverged: {exc}")
            if opt is not None:
                opt.zero_grad()
    return Phase(name, [(tokens, partial(step, data)) for tokens, data in parts])


def eval_phase(name: str, checks: Checks, model, data, size: int, score: Score) -> Phase:
    """Score ``data`` with evaluate_ll in chunks of ``size``, summing into ``score``."""
    def step(part):
        report = sb.evaluate_ll(model, part)
        checks.check(math.isfinite(report.total_log_likelihood), f"{name}: finite score")
        score.log_likelihood += report.total_log_likelihood
        score.words += report.word_count
    return Phase(name, [(sum(len(item[1] if isinstance(item, tuple) else item) + 1
                             for item in part), partial(step, part))
                        for part in chunks(data, size)])


def decode_phase(name: str, sources, size: int, fn, out: list) -> Phase:
    """Decode ``sources`` in chunks of ``size``, appending the best hypotheses to ``out``."""
    def step(part):
        out.extend(fn(src) for src in part)
    return Phase(name, [(len(part), partial(step, part)) for part in chunks(sources, size)])


def pair_tokens(part) -> int:
    return sum(len(e) for _, e in part)


def check_decodes(checks: Checks, phase: str, sources, hyps, loss_fn):
    """Each hypothesis's logprob equals minus the training graph's loss of its tokens."""
    for src, hyp in zip(sources, hyps):
        reference = -loss_fn(src, hyp.tokens)
        checks.check(close(hyp.logprob, reference, REL_TOL),
                     f"{phase}: logprob {hyp.logprob!r} != graph {reference!r}")


def check_beam_one(checks: Checks, model, sources):
    """Beam search with beam 1 gives greedy's tokens and log probability."""
    for src in sources:
        g = sb.greedy(model, src)
        b = sb.beam_search(model, src, beam_size=1)[0]
        checks.check(g.tokens == b.tokens and close(b.logprob, g.logprob, BEAM1_TOL),
                     f"beam-1 {b.tokens}/{b.logprob!r} != greedy {g.tokens}/{g.logprob!r}")


def token_lists(hyps) -> list[list[int]]:
    return [list(map(int, h.tokens)) for h in hyps]


class Workload:
    """A seeded pipeline: ``setup`` builds fresh inputs and models, ``run_round``
    times the phases, ``oracles`` checks the first round's outputs."""

    name = ""

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def verify_setup(self, state, checks: Checks):
        pass

    def cleanup(self):
        pass


# ---- copy-task -----------------------------------------------------------------

COPY_SYMBOLS = [f"s{i}" for i in range(9)]


class CopyTask(Workload):
    """Acceptance criterion 09's copy model, trained one epoch one sentence at a time.

    1,600 training pairs: after one epoch the decoded lengths, and so the
    decoding work, vary by about 2% between seeds (about 7% at 800 pairs).
    """

    name = "copy-task"
    TRAIN, HELD_OUT = 1600, 200
    TRAIN_CHUNK, HELD_CHUNK = 40, 8
    BEAM = 4
    BEAM_ONE_CHECKS = 20

    def _lines(self, rng, count, chunk):
        return [" ".join(COPY_SYMBOLS[int(i)] for i in rng.integers(0, 9, size=n))
                for n in balanced_lengths(rng, count, chunk, 1, 8)]

    def setup(self) -> dict:
        data_rng, init_rng = np.random.default_rng(self.seed).spawn(2)
        train_lines = self._lines(data_rng, self.TRAIN, self.TRAIN_CHUNK)
        held_lines = self._lines(data_rng, self.HELD_OUT, self.HELD_CHUNK)
        vocab = sb.build_vocab(train_lines)
        train = [(ids, ids + [EOS_ID]) for ids in (sb.encode(vocab, l) for l in train_lines)]
        held = [sb.encode(vocab, l) for l in held_lines]
        model = sb.EncDecModel(vocab, vocab, embed_size=16, hidden_size=24,
                               encoder="bidirectional", bridge="tanh", attention="mlp",
                               rng=init_rng)
        return {"vocab": vocab, "model": model, "train": train, "held": held,
                "held_lines": held_lines,
                "opt": sb.Adam(model.parameters(), lr=0.003, clip_norm=5.0),
                "inputs": digest([train, held])}

    def verify_setup(self, state, checks: Checks):
        checks.check(len(state["vocab"]) == 12, f"copy vocabulary has {len(state['vocab'])} ids")

    def run_round(self, state, rnd: Round, checks: Checks, tracer):
        model, vocab, held, opt = state["model"], state["vocab"], state["held"], state["opt"]
        run_phases(rnd, tracer, train_phase(
            "train", checks, [(pair_tokens(part), part)
                              for part in chunks(state["train"], self.TRAIN_CHUNK)],
            lambda part: sb.train_encdec(model, part, opt, epochs=1, shuffle=False), opt))
        score, greedy, beam = Score(), [], []
        surface = [(line.split(), line.split()) for line in state["held_lines"]]
        run_phases(rnd, tracer,
                   eval_phase("eval", checks, model, surface, self.HELD_CHUNK, score),
                   decode_phase("greedy", held, self.HELD_CHUNK,
                                lambda f: sb.greedy(model, f), greedy),
                   decode_phase("beam", held, self.HELD_CHUNK,
                                lambda f: sb.beam_search(model, f, beam_size=self.BEAM)[0], beam))
        with tracer.span("bleu"):
            report = sb.bleu([" ".join(h.surface(vocab)) for h in beam], state["held_lines"])
        checks.check(0.0 <= report.bleu <= 1.0, f"bleu {report.bleu} outside [0, 1]")
        rnd.values = {"dev_ppl": score.perplexity, "bleu": report.bleu}
        rnd.outputs = {"greedy": token_lists(greedy), "beam": token_lists(beam)}
        state["decoded"] = (greedy, beam)

    def oracles(self, state, checks: Checks):
        model, held = state["model"], state["held"]
        greedy, beam = state["decoded"]
        check_decodes(checks, "greedy", held, greedy, model.sentence_loss)
        check_decodes(checks, "beam", held, beam, model.sentence_loss)
        check_beam_one(checks, model, held[:self.BEAM_ONE_CHECKS])


# ---- wide-vocab-decode ------------------------------------------------------------

class WideVocabDecode(Workload):
    """An untrained 5,000-word encoder-decoder, reloaded through a model file.

    The untrained model's EOS output bias is set to EOS_BIAS, so no decode
    emits EOS: every decode runs the default ``max_len`` at full beam width,
    a fixed number of steps for any seed. (Left random, the EOS row makes
    some seeds end early.) Beam
    sources all have 7 tokens so that each beam sentence is the same work.
    The reloaded model decodes and scores; its in-memory original, which the
    set-up checks to be bit-identical, is the one trained, so training can
    run in turn with the other phases.
    """

    name = "wide-vocab-decode"
    WORDS = 4997            # plus the 3 reserved ids: 5,000 per side
    EVAL, GREEDY, BEAM, TRAIN = 40, 40, 4, 20
    EVAL_CHUNK, GREEDY_CHUNK, BEAM_CHUNK, TRAIN_CHUNK = 4, 4, 1, 5
    BEAM_SIZE = 5
    BEAM_ONE_CHECKS = 2

    def __init__(self, seed: int, workdir):
        super().__init__(seed, workdir)
        self.path = workdir / f"wide-vocab-{seed}.s2sw"

    @staticmethod
    def _vocab(rng, prefix, count):
        words = [f"{prefix}{i:04d}" for i in rng.permutation(count)]
        return words, sb.build_vocab([" ".join(part) for part in chunks(words, 10)])

    def setup(self) -> dict:
        data_rng, init_rng = np.random.default_rng(self.seed).spawn(2)
        src_words, src_vocab = self._vocab(data_rng, "f", self.WORDS)
        tgt_words, tgt_vocab = self._vocab(data_rng, "e", self.WORDS)
        sets = {}
        for phase, count, chunk in (("eval", self.EVAL, self.EVAL_CHUNK),
                                    ("greedy", self.GREEDY, self.GREEDY_CHUNK),
                                    ("beam", self.BEAM, self.BEAM_CHUNK),
                                    ("train", self.TRAIN, self.TRAIN_CHUNK)):
            sets[phase] = [([src_words[int(i)] for i in data_rng.integers(0, self.WORDS, size=n)],
                            [tgt_words[int(i)] for i in data_rng.integers(0, self.WORDS, size=n)])
                           for n in balanced_lengths(data_rng, count, chunk, 3, 10)]
        created = sb.EncDecModel(src_vocab, tgt_vocab, embed_size=32, hidden_size=32,
                                 rng=init_rng)
        created.b_s.value[EOS_ID, 0] = EOS_BIAS
        sb.save_model(created, self.path)
        loaded = sb.load_model(self.path)
        return {"created": created, "model": loaded, "eval": sets["eval"],
                "greedy": [sb.encode(src_vocab, f) for f, _ in sets["greedy"]],
                "beam": [sb.encode(src_vocab, f) for f, _ in sets["beam"]],
                "train": [(sb.encode(src_vocab, f), sb.encode(tgt_vocab, e, append_eos=True))
                          for f, e in sets["train"]],
                "opt": sb.Adam(created.parameters(), lr=0.003, clip_norm=5.0),
                "inputs": digest(sets)}

    def verify_setup(self, state, checks: Checks):
        created, loaded = state["created"], state["model"]
        checks.check(len(loaded.tgt_vocab) == 5000 and len(loaded.src_vocab) == 5000,
                     "wide vocabularies do not have 5,000 ids")
        same = (created.src_vocab.tokens == loaded.src_vocab.tokens
                and created.tgt_vocab.tokens == loaded.tgt_vocab.tokens)
        for p, q in zip(created.parameters(), loaded.parameters()):
            same = same and (p.name == q.name and p.value.dtype == q.value.dtype
                             and p.value.shape == q.value.shape
                             and p.value.tobytes() == q.value.tobytes())
        checks.check(same, "model-file round trip changed the parameters")

    def run_round(self, state, rnd: Round, checks: Checks, tracer):
        model, trainee, opt = state["model"], state["created"], state["opt"]
        score, greedy, beam = Score(), [], []
        run_phases(rnd, tracer,
                   eval_phase("eval", checks, model, state["eval"], self.EVAL_CHUNK, score),
                   decode_phase("greedy", state["greedy"], self.GREEDY_CHUNK,
                                lambda f: sb.greedy(model, f), greedy),
                   decode_phase("beam", state["beam"], self.BEAM_CHUNK,
                                lambda f: sb.beam_search(model, f, beam_size=self.BEAM_SIZE)[0],
                                beam),
                   train_phase("train", checks,
                               [(pair_tokens(part), part)
                                for part in chunks(state["train"], self.TRAIN_CHUNK)],
                               lambda part: sb.train_encdec(trainee, part, opt, epochs=1,
                                                            shuffle=False), opt))
        rnd.values = {"dev_ppl": score.perplexity}
        rnd.outputs = {"greedy": token_lists(greedy), "beam": token_lists(beam)}
        state["decoded"] = (greedy, beam)

    def oracles(self, state, checks: Checks):
        model = state["model"]
        greedy, beam = state["decoded"]
        check_decodes(checks, "greedy", state["greedy"], greedy, model.sentence_loss)
        check_decodes(checks, "beam", state["beam"], beam, model.sentence_loss)
        check_beam_one(checks, model, state["greedy"][:self.BEAM_ONE_CHECKS])

    def cleanup(self):
        self.path.unlink(missing_ok=True)


# ---- lm-train ---------------------------------------------------------------------

class LMTrain(Workload):
    """Language models on a synthetic Zipfian first-order Markov corpus.

    Word w follows word v with probability proportional to 1/(r+1)^ZIPF,
    where r = (w - SHIFT[v]) mod TYPES and SHIFT is a seeded offset per
    word: a Zipfian unigram distribution whose successors depend on the
    previous word. Generation uses a second, untrained RNNLM whose EOS
    output bias is EOS_BIAS, so every generation runs to the default
    max_len: a fixed amount of work for any seed.
    """

    name = "lm-train"
    TYPES, ZIPF, SPREAD = 1100, 1.1, 40
    TRAIN, DEV = 1600, 200
    BATCH, TRAIN_CHUNK, EVAL_CHUNK = 32, 160, 10
    GREEDY_REPEAT, BEAM_REPEAT, BEAM = 10, 3, 4

    def _corpus(self, rng, sizes):
        """One seeded chain; a sample of it per ``(count, chunk)`` in ``sizes``."""
        ranks = np.arange(self.TYPES)
        cdf = np.cumsum(1.0 / (ranks + 1.0) ** self.ZIPF)
        cdf /= cdf[-1]
        shift = rng.integers(0, self.SPREAD, size=self.TYPES + 1)    # last row: sentence start
        surface = rng.permutation(self.TYPES)
        return [self._sample(rng, cdf, shift, surface, count, chunk) for count, chunk in sizes]

    def _sample(self, rng, cdf, shift, surface, count, chunk):
        lengths = balanced_lengths(rng, count, chunk, 4, 24)
        prev = np.full(count, self.TYPES)
        cols = []
        for _ in range(max(lengths)):
            r = np.minimum(np.searchsorted(cdf, rng.random(count)), self.TYPES - 1)
            prev = (r + shift[prev]) % self.TYPES
            cols.append(prev)
        grid = np.stack(cols, axis=1)
        return [" ".join(f"w{surface[w]}" for w in grid[i, :n]) for i, n in enumerate(lengths)]

    def setup(self) -> dict:
        data_rng, init_rng, gen_rng = np.random.default_rng(self.seed).spawn(3)
        train_lines, dev_lines = self._corpus(data_rng, ((self.TRAIN, self.TRAIN_CHUNK),
                                                         (self.DEV, self.EVAL_CHUNK)))
        vocab = sb.build_vocab(train_lines, policy="replace_singletons")
        rnnlm = partial(sb.RNNLM, vocab, cell="lstm_forget", embed_size=64, hidden_size=128)
        model, generator = rnnlm(rng=init_rng), rnnlm(rng=gen_rng)
        generator.b_s.value[EOS_ID, 0] = EOS_BIAS
        return {"vocab": vocab, "model": model, "generator": generator,
                "train_lines": train_lines, "dev": [line.split() for line in dev_lines],
                "train": [sb.encode(vocab, line, append_eos=True) for line in train_lines],
                "opt": sb.Adam(model.parameters(), lr=0.002, clip_norm=5.0),
                "loglinear": sb.LogLinearLM(vocab, "prev2_words"),
                "inputs": digest([train_lines, dev_lines])}

    def verify_setup(self, state, checks: Checks):
        v = len(state["vocab"])
        checks.check(700 <= v <= 1500, f"lm vocabulary has {v} ids, expected about 1,000")

    def run_round(self, state, rnd: Round, checks: Checks, tracer):
        model, gen, loglin, opt = (state["model"], state["generator"], state["loglinear"],
                                   state["opt"])
        dev, lines = state["dev"], state["train_lines"]
        greedy, beam = [], []
        run_phases(rnd, tracer,
                   decode_phase("greedy", [None] * self.GREEDY_REPEAT, 1,
                                lambda _: sb.greedy(gen, None), greedy),
                   decode_phase("beam", [None] * self.BEAM_REPEAT, 1,
                                lambda _: sb.beam_search(gen, None, beam_size=self.BEAM)[0], beam),
                   train_phase("train", checks,
                               [(sum(len(s) for s in part), part)
                                for part in chunks(state["train"], self.TRAIN_CHUNK)],
                               lambda part: sb.train_lm(model, part, opt, epochs=1,
                                                        batch_size=self.BATCH, shuffle=False),
                               opt),
                   train_phase("loglinear_train", checks,
                               [(sum(len(l.split()) + 1 for l in part), part)
                                for part in chunks(lines, self.TRAIN_CHUNK)],
                               lambda part: loglin.train_sgd(part, epochs=1, shuffle=False)))
        for phase, hyps in (("greedy", greedy), ("beam", beam)):
            checks.check(all(h.tokens == hyps[0].tokens for h in hyps),
                         f"{phase}: repeated generations differ")
        ngram = {}
        run_phases(rnd, tracer, Phase("ngram_train", [(
            sum(len(l.split()) + 1 for l in lines),
            lambda: ngram.update(lm=sb.NGramLM.train(lines, n=3, alphas=0.1,
                                                     vocab=state["vocab"])))]))
        scores = {name: Score() for name in ("eval", "ngram_eval", "loglinear_eval")}
        run_phases(rnd, tracer, *(eval_phase(name, checks, lm, dev, self.EVAL_CHUNK, scores[name])
                                  for name, lm in (("eval", model), ("ngram_eval", ngram["lm"]),
                                                   ("loglinear_eval", loglin))))
        rnd.values = {"dev_ppl": scores["eval"].perplexity,
                      "ngram_ppl": scores["ngram_eval"].perplexity,
                      "loglinear_ppl": scores["loglinear_eval"].perplexity}
        rnd.outputs = {"greedy": token_lists(greedy[:1]), "beam": token_lists(beam[:1])}
        state["decoded"] = (greedy[:1], beam[:1])

    def oracles(self, state, checks: Checks):
        gen, model = state["generator"], state["model"]
        greedy, beam = state["decoded"]
        nll = lambda _, tokens: gen.sentence_nll(tokens)
        check_decodes(checks, "greedy", [None], greedy, nll)
        check_decodes(checks, "beam", [None], beam, nll)
        check_beam_one(checks, gen, [None])
        sents = state["train"][:self.BATCH]
        batch = sb.make_batches(sents, self.BATCH)[0]
        g = sb.Graph()
        model.batch_loss(g, batch)
        batched = float(g.forward()[0, 0])
        separate = sum(model.sentence_nll(s) for s in sents)
        checks.check(abs(batched - separate) < BATCH_TOL,
                     f"batched loss {batched!r} != per-sentence sum {separate!r}")


WORKLOADS = {cls.name: cls for cls in (CopyTask, WideVocabDecode, LMTrain)}
