"""Span tracing for the benchmark's traced run.

The tracer wraps the public entry points of each seqbench layer from the
outside: it replaces the function or method on its class, and every
reference to a wrapped function in a seqbench module namespace, so calls
that cross module boundaries are seen too. Nothing under ``src/`` changes.
The ``cli`` layer is not wrapped: it only parses flags and does file I/O
around the same library calls.

Each call of a wrapped entry point records a span ``[name, start, end,
parent]`` in memory, and counter hooks run at the same boundaries, outside
the span's own clock. Counters are kept per phase, the name of the root span
the call ran under. Spans are written out only when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index or -1]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def phase(self) -> str:
        return self.spans[self._stack[0]][0] if self._stack else "-"

    def count(self, name: str, amount: float = 1.0):
        self.counts[(self.phase(), name)] += amount

    # ---- wrapping ----------------------------------------------------------

    def wrap(self, fn, name: str, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def install(self, targets):
        """Wrap each ``(module, class or None, attribute, span name, before, after)``."""
        for module_name, class_name, attr, span_name, before, after in targets:
            module = sys.modules[module_name]
            if class_name is None:
                original = getattr(module, attr)
                wrapped = self.wrap(original, span_name, before, after)
                for mod in _seqbench_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
            else:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(original.__func__, span_name,
                                                    before, after))
                else:
                    wrapped = self.wrap(original, span_name, before, after)
                self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _seqbench_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "seqbench" or name.startswith("seqbench."))]


# ---- self time ---------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` after clipping each to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_length(children[i], start, end)
            for i, (name, start, end, parent) in enumerate(spans)]


def roots(spans) -> list[int]:
    """Index of the root span of every span."""
    out = []
    for i, (_, _, _, parent) in enumerate(spans):
        out.append(i if parent < 0 else out[parent])
    return out


def self_time_table(spans) -> dict[str, dict[str, float]]:
    """Self seconds per phase (root span name) and span name."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    root_of = roots(spans)
    for i, secs in enumerate(self_times(spans)):
        table[spans[root_of[i]][0]][spans[i][0]] += secs
    return {phase: dict(names) for phase, names in table.items()}


# ---- counter hooks -----------------------------------------------------------

def _count_graph(kind):
    def hook(tracer, args):
        graph = args[0]
        tracer.count(f"{kind}.graphs")
        tracer.count(f"{kind}.nodes", len(graph.nodes))
        if kind == "forward":
            tracer.count("forward.param_nodes",
                         sum(1 for node in graph.nodes if node.op == "parameter"))
    return hook


def _count_optim_step(tracer, args):
    from seqbench.optim import global_norm
    opt = args[0]
    tracer.count("optim.steps")
    if opt.clip_norm is not None:
        tracer.count("optim.clip_checked")
        if global_norm([p.grad for p in opt.params]) > opt.clip_norm:
            tracer.count("optim.clipped")


def _count_decode(tracer, args, result):
    best = result[0] if isinstance(result, list) else result
    tracer.count("search.sentences")
    tracer.count("search.truncated", 1.0 if best.truncated else 0.0)


def _count_padding(tracer, args, batches):
    for batch in batches:
        tracer.count("corpus.cells", batch.mask.size)
        tracer.count("corpus.pad_cells", batch.mask.size - float(batch.mask.sum()))


def _count_file_bytes(tracer, args, result):
    tracer.count("modelfile.saves")
    tracer.count("modelfile.bytes", os.path.getsize(args[1]))


TARGETS = [
    ("seqbench.corpus", None, "build_vocab", "corpus.build_vocab", None, None),
    ("seqbench.corpus", None, "make_batches", "corpus.make_batches", None, _count_padding),
    ("seqbench.ngram", "NGramLM", "train", "ngram.train", None, None),
    ("seqbench.ngram", "NGramLM", "score_sentence", "ngram.score", None, None),
    ("seqbench.loglinear", "LogLinearLM", "train_sgd", "loglinear.train", None, None),
    ("seqbench.loglinear", "LogLinearLM", "score_sentence", "loglinear.score", None, None),
    ("seqbench.autograd", "Graph", "forward", "autograd.forward", _count_graph("forward"), None),
    ("seqbench.autograd", "Graph", "backward", "autograd.backward", _count_graph("backward"), None),
    ("seqbench.optim", "Optimizer", "step", "optim.step", _count_optim_step, None),
    ("seqbench.optim", "Optimizer", "zero_grad", "optim.zero_grad", None, None),
    ("seqbench.nnet", "RecurrentCell", "step", "nnet.cell_step", None, None),
    ("seqbench.nnet", "RNNLM", "batch_loss", "nnet.batch_loss", None, None),
    ("seqbench.nnet", "RNNLM", "step", "nnet.lm_step", None, None),
    ("seqbench.nnet", None, "train_lm", "nnet.train_lm", None, None),
    ("seqbench.seq2seq", "EncDecModel", "loss_graph", "seq2seq.loss_graph", None, None),
    ("seqbench.seq2seq", "EncDecModel", "encode", "seq2seq.encode", None, None),
    ("seqbench.seq2seq", "EncDecModel", "step", "seq2seq.step", None, None),
    ("seqbench.seq2seq", None, "train_encdec", "seq2seq.train", None, None),
    ("seqbench.search", None, "greedy", "search.greedy", None, _count_decode),
    ("seqbench.search", None, "beam_search", "search.beam", None, _count_decode),
    ("seqbench.evaluate", None, "evaluate_ll", "evaluate.score", None, None),
    ("seqbench.evaluate", None, "bleu", "evaluate.bleu", None, None),
    ("seqbench.modelfile", None, "save_model", "modelfile.save", None, _count_file_bytes),
    ("seqbench.modelfile", None, "load_model", "modelfile.load", None, None),
]

SEARCH_SPANS = ("search.greedy", "search.beam")
MODEL_STEP_SPANS = ("seq2seq.step", "nnet.lm_step")

# per-layer metric -> span whose self seconds per round it reports
SELF_TIME_METRICS = {
    "autograd.forward_s": "autograd.forward",
    "autograd.backward_s": "autograd.backward",
    "nnet.cell_step_s": "nnet.cell_step",
    "nnet.batch_loss_s": "nnet.batch_loss",
    "seq2seq.loss_graph_s": "seq2seq.loss_graph",
    "seq2seq.encode_s": "seq2seq.encode",
    "seq2seq.step_s": "seq2seq.step",
    "optim.step_s": "optim.step",
    "optim.zero_grad_s": "optim.zero_grad",
    "search.greedy_s": "search.greedy",
    "search.beam_s": "search.beam",
    "evaluate.score_s": "evaluate.score",
    "evaluate.bleu_s": "evaluate.bleu",
    "corpus.build_vocab_s": "corpus.build_vocab",
    "corpus.make_batches_s": "corpus.make_batches",
    "ngram.train_s": "ngram.train",
    "ngram.score_s": "ngram.score",
    "loglinear.train_s": "loglinear.train",
    "loglinear.score_s": "loglinear.score",
    "modelfile.save_s": "modelfile.save",
    "modelfile.load_s": "modelfile.load",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, train_phase: str, train_tokens: float) -> dict:
    """Per-layer metrics of a traced run, with times and counts per round.

    ``train_phase`` names the phase whose graphs ``autograd.nodes_per_tok``
    divides by the ``train_tokens`` counted in one round. A layer the
    workload never calls reports 0.
    """
    spans = tracer.spans
    self_s = defaultdict(float)
    for (name, *_), secs in zip(spans, self_times(spans)):
        self_s[name] += secs
    total = defaultdict(float)
    for (_, counter), value in tracer.counts.items():
        total[counter] += value
    expansions = sum(1 for name, _, _, parent in spans
                     if name in MODEL_STEP_SPANS and parent >= 0
                     and spans[parent][0] in SEARCH_SPANS)
    per_round = {metric: self_s[span] / rounds for metric, span in SELF_TIME_METRICS.items()}
    fwd_nodes, bwd_nodes = total["forward.nodes"], total["backward.nodes"]
    per_round.update({
        "autograd.graphs": total["forward.graphs"] / rounds,
        "autograd.nodes": fwd_nodes / rounds,
        "autograd.param_nodes": total["forward.param_nodes"] / rounds,
        "autograd.nodes_per_tok": _ratio(tracer.counts[(train_phase, "forward.nodes")] / rounds,
                                         train_tokens),
        "autograd.forward_us_per_node": 1e6 * _ratio(self_s["autograd.forward"], fwd_nodes),
        "autograd.backward_us_per_node": 1e6 * _ratio(self_s["autograd.backward"], bwd_nodes),
        "nnet.cell_steps": sum(1 for s in spans if s[0] == "nnet.cell_step") / rounds,
        "seq2seq.steps": sum(1 for s in spans if s[0] == "seq2seq.step") / rounds,
        "optim.steps": total["optim.steps"] / rounds,
        "optim.clip_share": _ratio(total["optim.clipped"], total["optim.clip_checked"]),
        "search.expansions": expansions / rounds,
        "search.steps_per_sent": _ratio(expansions, total["search.sentences"]),
        "search.truncated_share": _ratio(total["search.truncated"], total["search.sentences"]),
        "corpus.pad_share": _ratio(tracer.counts[(train_phase, "corpus.pad_cells")],
                                   tracer.counts[(train_phase, "corpus.cells")]),
        "modelfile.bytes": _ratio(total["modelfile.bytes"], total["modelfile.saves"]),
    })
    return per_round
