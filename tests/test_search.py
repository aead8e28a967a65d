import math

import numpy as np
import pytest

from helpers import (AttendingTableModel, TableModel, brute_force_best,
                     enumerate_sequences, quantized_table_model,
                     random_table_model, reference_beam_search, same_bits)
from seqbench import corpus as C
from seqbench.nnet import RNNLM
from seqbench.search import (LENGTH_MODES, Hypothesis, LengthPrior,
                             _best_candidates, _search, beam_search, greedy,
                             nbest_lines, replace_unknowns, sample)
from seqbench.seq2seq import EncDecModel

# the hand-built toy model: vocabulary {a(id 0), EOS(id 1), b(id 2)}
A, EOS, B = 0, 1, 2
TOY = TableModel({
    (): [0.5, 0.05, 0.45],
    (A,): [0.25, 0.5, 0.25],
    (B,): [0.0, 1.0, 0.0],
})


def test_greedy_on_toy_model():
    hyp = greedy(TOY, max_len=5)
    assert hyp.tokens == [A, EOS]
    assert hyp.finished and not hyp.truncated
    assert math.exp(hyp.logprob) == pytest.approx(0.25, abs=1e-12)


def test_greedy_misses_true_best():
    best_tokens, best_score = brute_force_best(TOY, max_len=2)
    assert best_tokens == [B, EOS]
    assert math.exp(best_score) == pytest.approx(0.45, abs=1e-12)
    assert greedy(TOY, max_len=2).tokens != best_tokens


def test_beam_two_finds_best():
    hyps = beam_search(TOY, beam_size=2, max_len=5)
    assert hyps[0].tokens == [B, EOS]
    assert math.exp(hyps[0].logprob) == pytest.approx(0.45, abs=1e-12)
    assert hyps[1].tokens == [A, EOS]
    assert math.exp(hyps[1].logprob) == pytest.approx(0.25, abs=1e-12)


def test_greedy_uniform_tie_breaks_to_lowest_id():
    uniform = TableModel({(): [1 / 3] * 3, (A,): [1 / 3] * 3, (A, A): [1 / 3] * 3})
    hyp = greedy(uniform, max_len=3)
    assert hyp.tokens[0] == 0
    assert hyp.tokens == greedy(uniform, max_len=3).tokens


def test_beam_one_equals_greedy_random_models():
    rng = np.random.default_rng(21)
    cases = [(random_table_model(rng, vocab_size=3, max_len=4), None, 4)
             for _ in range(30)]
    src, tgt = C.build_vocab(["w x y z"]), C.build_vocab(["p q r s t"])
    for seed in range(4):
        model = EncDecModel(src, tgt, embed_size=3, hidden_size=4, attention="mlp",
                            rng=np.random.default_rng(40 + seed))
        model.b_s.value[EOS] += seed    # some decodes end, some are cut at max_len
        cases.append((model, [3, 5, 4, 6][:seed + 1], 8))
        rnnlm = RNNLM(tgt, embed_size=3, hidden_size=4, rng=np.random.default_rng(50 + seed))
        rnnlm.b_s.value[EOS] += seed
        cases.append((rnnlm, None, 8))
    ends = set()
    for model, source, max_len in cases:
        g = greedy(model, source, max_len=max_len)
        b = beam_search(model, source, beam_size=1, max_len=max_len)[0]
        assert g.tokens == b.tokens
        assert same_bits(g.logprob, b.logprob)
        assert (g.finished, g.truncated) == (b.finished, b.truncated)
        assert g.attention_trace == b.attention_trace
        if source is not None:
            assert min(g.attention_trace) >= 0
        ends.add(g.finished)
    assert ends == {True, False}


def test_exhaustive_beam_matches_brute_force():
    rng = np.random.default_rng(22)
    for _ in range(20):
        model = random_table_model(rng, vocab_size=3, max_len=4)
        best_tokens, best_score = brute_force_best(model, max_len=4)
        hyp = beam_search(model, beam_size=3 ** 4, max_len=4)[0]
        assert hyp.tokens == best_tokens
        assert hyp.logprob == pytest.approx(best_score, abs=1e-12)


def test_beam_score_monotone_in_width():
    rng = np.random.default_rng(23)
    for _ in range(25):
        model = random_table_model(rng, vocab_size=4, max_len=5)
        scores = [beam_search(model, beam_size=b, max_len=5)[0].logprob
                  for b in (1, 2, 3)]
        assert scores[1] >= scores[0] - 1e-12
        assert scores[2] >= scores[1] - 1e-12


def test_best_candidates_breaks_ties_at_the_cut_lexicographically():
    scores = np.array([[-1.0, -1.0, -np.inf],
                       [-1.0, -2.0, -1.0]])
    prefixes = [(2,), (0,)]
    # four entries tie at -1; (0, 0) and (0, 2) sort before (2, 0) and (2, 1)
    assert _best_candidates(scores, prefixes, 2) == [(1, 0), (1, 2)]
    assert _best_candidates(scores, prefixes, 3) == [(1, 0), (1, 2), (0, 0)]
    # asking for more than the finite entries returns all of them, in order
    assert _best_candidates(scores, prefixes, 9) == [(1, 0), (1, 2), (0, 0),
                                                     (0, 1), (1, 1)]


def test_best_candidates_of_a_transposed_log_matrix_match_a_full_sort():
    # the beam chooser passes the (hypotheses x vocabulary) transposed view of
    # log(P), whose zero probabilities are -inf and whose equal entries tie at
    # the cut; either memory order of P keeps the survivors of a full sort
    P = np.array([[0.25, 0.0, 0.5],
                  [0.25, 0.5, 0.0],
                  [0.0, 0.25, 0.25],
                  [0.5, 0.25, 0.25]])
    prefixes = [(3,), (1,), (2,)]
    for layout in (np.ascontiguousarray, np.asfortranarray):
        with np.errstate(divide="ignore"):
            scores = np.log(layout(P)).T
        scores += np.array([-1.0, -1.0, -0.5])[:, None]
        full = sorted(((row, tok) for row in range(3) for tok in range(4)
                       if scores[row, tok] > -np.inf),
                      key=lambda c: (-scores[c], prefixes[c[0]] + (c[1],)))
        assert len(full) == 9
        for k in range(1, 13):
            assert _best_candidates(scores, prefixes, k) == full[:k]


def test_beam_equals_full_sort_reference_with_ties_and_zeros():
    rng = np.random.default_rng(26)
    source = [7, 8]
    prior = LengthPrior.from_pairs([(source, [A] * k + [EOS]) for k in (0, 1, 1, 2, 3)])
    for trial in range(12):
        vocab_size = 3 if trial % 2 else 4
        model = quantized_table_model(rng, vocab_size=vocab_size, max_len=4)
        if trial % 3 == 0:
            model = AttendingTableModel(model.table)
        for beam_size in range(1, vocab_size ** 2 + 1):
            for mode in LENGTH_MODES:
                kwargs = dict(beam_size=beam_size, max_len=4, length_mode=mode,
                              length_prior=prior)
                fast = beam_search(model, source, **kwargs)
                ref = reference_beam_search(model, source, **kwargs)
                assert fast == ref
                assert all(type(f.logprob) is type(r.logprob)
                           for f, r in zip(fast, ref))


class StepRecorder:
    """Passes every call on to ``model`` and records each ``step``'s rows,
    previous ids and distributions."""

    def __init__(self, model):
        self.model, self.calls = model, []

    def start(self, source_ids=None):
        return self.model.start(source_ids)

    def step(self, state, rows, prev_ids):
        P, new_state, alphas = self.model.step(state, rows, prev_ids)
        self.calls.append((list(rows), list(prev_ids), P))
        return P, new_state, alphas


def test_beam_search_steps_once_per_time_step_on_the_survivors_parent_rows():
    # replays the selection on the recorded distributions: call t must extend
    # exactly the unfinished survivors of call t - 1, each from its parent's row
    rng = np.random.default_rng(31)
    rnnlm = RNNLM(C.build_vocab(["a b c"]), embed_size=3, hidden_size=4,
                  rng=np.random.default_rng(32))
    rnnlm.b_s.value[EOS] += 1.0
    models = [make(rng, vocab_size=4, max_len=5)
              for make in (quantized_table_model, random_table_model) * 10] + [rnnlm]
    for trial, model in enumerate(models):
        beam_size, max_len = 1 + trial % 4, 5
        recorder = StepRecorder(model)
        beam_search(recorder, beam_size=beam_size, max_len=max_len)
        live, done = [((), 0.0)], 0          # (tokens, logprob) per state column
        rows, prev_ids = [0], [C.BOS_ID]
        for t, (call_rows, call_prev, P) in enumerate(recorder.calls):
            assert (call_rows, call_prev) == (rows, prev_ids)
            with np.errstate(divide="ignore"):
                logp = np.log(P)
            kept = sorted(((logprob + logp[tok, b], tokens + (tok,), b)
                           for b, (tokens, logprob) in enumerate(live)
                           for tok in range(P.shape[0]) if P[tok, b] > 0),
                          key=lambda c: (-c[0], c[1]))[:beam_size]
            done += sum(tokens[-1] == EOS for _, tokens, _ in kept)
            survivors = [c for c in kept if c[1][-1] != EOS]
            live = [(tokens, score) for score, tokens, _ in survivors]
            rows = [b for _, _, b in survivors]
            prev_ids = [tokens[-1] for tokens, _ in live]
            ended = done >= beam_size or not live or t + 1 == max_len
            assert ended == (t + 1 == len(recorder.calls))


def test_children_of_one_row_never_share_a_list():
    # every step keeps two children of row 0, then both end from row 1; the
    # last child of a row takes over the row's lists, so a shared list would
    # show the other child's token
    model = AttendingTableModel({(): [0.5, 0.0, 0.5]})
    seen = []

    def choose(P, logprobs, tokens):
        seen.append([list(seq) for seq in tokens])
        assert len({id(seq) for seq in tokens}) == len(tokens)
        if len(seen) == 4:
            return [(1, EOS, -1.0), (1, EOS, -2.0)]
        return [(0, A, -1.0), (0, B, -2.0)]

    hyps = _search(model, None, 6, 2, choose)
    assert seen == [[[]], [[A], [B]], [[A, A], [A, B]], [[A, A, A], [A, A, B]]]
    assert [h.tokens for h in hyps] == [[A, A, B, EOS]] * 2
    assert hyps[0].tokens is not hyps[1].tokens
    assert hyps[0].attention_trace == hyps[1].attention_trace == [0, 0, 0, B]
    assert hyps[0].attention_trace is not hyps[1].attention_trace

    # beam 2 on a table model whose two best children share their parent
    model = TableModel({(): [0.9, 0.0, 0.1], (A,): [0.5, 0.1, 0.4],
                        (A, A): [0.0, 1.0, 0.0], (A, B): [0.0, 1.0, 0.0]})
    hyps = beam_search(model, beam_size=2, max_len=5)
    reference = reference_beam_search(model, beam_size=2, max_len=5)
    assert [(h.tokens, h.logprob) for h in hyps] == [(h.tokens, h.logprob) for h in reference]
    assert [h.tokens for h in hyps] == [[A, A, EOS], [A, B, EOS]]
    assert hyps[0].tokens is not hyps[1].tokens


def test_best_completion_score_decays_with_length():
    # with EOS mass at least 0.5 everywhere, the best length-k completion
    # can only lose probability as k grows
    rng = np.random.default_rng(24)
    for _ in range(10):
        model = random_table_model(rng, vocab_size=3, max_len=5, min_eos=0.5)
        by_length = {}
        for tokens, score in enumerate_sequences(model, max_len=5):
            k = len(tokens)
            by_length[k] = max(by_length.get(k, -np.inf), score)
        lengths = sorted(by_length)
        for shorter, longer in zip(lengths, lengths[1:]):
            assert by_length[longer] <= by_length[shorter] + 1e-12


def test_extension_never_raises_score():
    hyps = beam_search(TOY, beam_size=3, max_len=4)
    for hyp in hyps:
        running = 0.0
        state = TOY.start()
        prev = C.BOS_ID
        for tok in hyp.tokens:
            P, state, _ = TOY.step(state, [0], [prev])
            p = P[:, 0]
            running += math.log(p[tok])
            assert running <= 1e-12
            prev = tok


def test_per_word_normalization_changes_ranking_not_candidates():
    # a long high-average-probability output vs a short low-average one
    model = TableModel({
        (): [0.55, 0.45, 0.0],
        (A,): [0.8, 0.2, 0.0],
        (A, A): [0.0, 1.0, 0.0],
    })
    plain = beam_search(model, beam_size=4, max_len=4, length_mode="none")
    normalized = beam_search(model, beam_size=4, max_len=4,
                             length_mode="per_word_normalize")
    assert {tuple(h.tokens) for h in plain} == {tuple(h.tokens) for h in normalized}
    assert plain[0].tokens == [EOS]                  # raw: 0.45 beats 0.55*0.8
    assert normalized[0].tokens == [A, A, EOS]       # per-word average wins


def test_multinomial_prior_rescoring():
    prior = LengthPrior.from_pairs([(["x"], [A, EOS]), (["x"], [A, EOS]),
                                    (["x"], [EOS]), (["y", "z"], [A, A, EOS])])
    assert prior.log_prob(2, 1) == pytest.approx(math.log(2 / 3))
    assert prior.log_prob(1, 1) == pytest.approx(math.log(1 / 3))
    assert prior.log_prob(5, 1) == math.log(1e-9)    # unseen pair is floored
    assert prior.log_prob(2, 7) == math.log(1e-9)    # unseen source length

    class Conditional(TableModel):
        def start(self, source_ids=None):
            self.source_len = len(source_ids)
            return [None]

    model = Conditional(TOY.table)
    hyps = beam_search(model, source_ids=[9], beam_size=2, max_len=4,
                       length_mode="multinomial_prior", length_prior=prior)
    for hyp in hyps:
        assert hyp.score == pytest.approx(hyp.logprob + prior.log_prob(len(hyp.tokens), 1))
    assert hyps[0].score >= hyps[1].score


def test_sample_deterministic_model_equals_greedy():
    deterministic = TableModel({(): [1.0, 0.0, 0.0], (A,): [0.0, 1.0, 0.0]})
    for seed in (0, 1, 99):
        assert sample(deterministic, rng=seed).tokens == greedy(deterministic).tokens


def test_sample_seed_reproducible():
    h1 = sample(TOY, rng=1234, max_len=10)
    h2 = sample(TOY, rng=1234, max_len=10)
    assert h1.tokens == h2.tokens
    assert h1.logprob == h2.logprob


def test_sample_matches_distribution():
    rng = np.random.default_rng(77)
    counts = np.zeros(3)
    n = 20_000
    for _ in range(n):
        counts[sample(TOY, rng=rng, max_len=3).tokens[0]] += 1
    tv = 0.5 * np.abs(counts / n - np.array([0.5, 0.05, 0.45])).sum()
    assert tv < 0.02


def test_sample_logprob_consistent():
    hyp = sample(TOY, rng=5, max_len=6)
    total = 0.0
    state = TOY.start()
    prev = C.BOS_ID
    for tok in hyp.tokens:
        P, state, _ = TOY.step(state, [0], [prev])
        p = P[:, 0]
        total += math.log(p[tok])
        prev = tok
    assert hyp.logprob == pytest.approx(total, abs=1e-12)


def test_truncation_when_eos_unreachable():
    endless = TableModel({(): [1.0, 0.0, 0.0]})
    endless.table[(A,)] = np.array([1.0, 0.0, 0.0])
    # every prefix of a's continues with a
    for k in range(2, 6):
        endless.table[(A,) * k] = np.array([1.0, 0.0, 0.0])
    g = greedy(endless, max_len=4)
    assert g.truncated and not g.finished and len(g.tokens) == 4
    s = sample(endless, rng=0, max_len=4)
    assert s.truncated
    b = beam_search(endless, beam_size=2, max_len=4)
    assert len(b) == 1 and b[0].truncated


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        beam_search(TOY, beam_size=0)
    with pytest.raises(ValueError):
        greedy(TOY, max_len=0)
    with pytest.raises(ValueError):
        sample(TOY, max_len=0)
    with pytest.raises(ValueError):
        beam_search(TOY, beam_size=2, max_len=0)
    with pytest.raises(ValueError):
        beam_search(TOY, beam_size=2, length_mode="shortest")


def test_replace_unknowns():
    vocab = C.build_vocab(["le chat noir"])
    chat = vocab.id_of("chat")
    source = ["the", "black", "cat"]
    hyp = Hypothesis(tokens=[C.UNK_ID, chat, C.UNK_ID, C.EOS_ID], logprob=-1.0,
                     finished=True, attention_trace=[2, 0, 1, 0])
    assert replace_unknowns(hyp, source, vocab) == ["cat", "chat", "black"]

    clean = Hypothesis(tokens=[chat, C.EOS_ID], logprob=-0.5, finished=True,
                       attention_trace=[1, 1])
    assert replace_unknowns(clean, source, vocab) == ["chat"]

    flat = Hypothesis(tokens=[C.UNK_ID, C.EOS_ID], logprob=-0.5, finished=True,
                      attention_trace=None)
    with pytest.raises(ValueError, match="attentional"):
        replace_unknowns(flat, source, vocab)
    no_attn = Hypothesis(tokens=[C.UNK_ID, C.EOS_ID], logprob=-0.5, finished=True,
                         attention_trace=[-1, -1])
    with pytest.raises(ValueError, match="attentional"):
        replace_unknowns(no_attn, source, vocab)


def test_nbest_line_format():
    vocab = C.build_vocab(["le chat"])
    hyp = Hypothesis(tokens=[vocab.id_of("le"), vocab.id_of("chat"), C.EOS_ID],
                     logprob=-1.5, finished=True)
    assert nbest_lines([hyp], 3, vocab) == ["3 ||| le chat ||| -1.500000"]
