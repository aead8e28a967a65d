"""Tests of the benchmark's own logic: statistics, self time, tracing and the
seeded workload generators.

    python3 -m pytest bench/test_bench.py
"""

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import measure  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
import seqbench as sb  # noqa: E402


# ---- statistics ----------------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert measure.percentile(values, 0) == 1.0
    assert measure.percentile(values, 100) == 4.0
    assert measure.percentile(values, 50) == statistics.median(values)
    assert measure.percentile(values, 25) == pytest.approx(1.75)
    assert measure.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile(values, 101)


def test_tail_level_keeps_ten_samples_beyond():
    assert measure.tail_level(19) is None
    assert measure.tail_level(40) == 75.0
    assert measure.tail_level(100) == 90.0
    assert measure.tail_level(200) == 95.0
    assert measure.tail_level(1000) == 99.0
    assert measure.tail_level(10_000) == 99.9


REF = measure.REFERENCE_RATE


def test_rates_are_items_per_second_with_fast_and_median_summaries():
    assert measure.rate(30, 2.0) == 15.0
    with pytest.raises(ValueError):
        measure.rate(1, 0.0)
    samples = [(10, 1.0, REF), (10, 2.0, REF), (10, 0.5, REF), (20, 4.0, REF)]  # 10, 5, 20, 5
    out = measure.summarize_rates(samples)
    assert out["median"] == out["raw_median"] == 7.5
    assert out["fast"] == pytest.approx(measure.percentile([10, 5, 20, 5], measure.FAST_LEVEL))
    assert out["n"] == 4 and out["items"] == 50 and out["seconds"] == 7.5
    assert sorted(out["rates"]) == [5.0, 5.0, 10.0, 20.0]
    assert not any(key.startswith("slow_p") for key in out)


def test_figures_are_reported_at_reference_speed():
    # a host half as fast runs the chunk and the reference loop at half speed
    fast_host = measure.summarize_rates([(10, 1.0, REF)])
    slow_host = measure.summarize_rates([(10, 2.0, REF / 2)])
    assert slow_host["fast"] == fast_host["fast"] == 10.0
    assert slow_host["raw_fast"] == 5.0
    assert measure.summarize_times([(0.2, REF / 2)])["median"] == pytest.approx(0.1)
    assert measure.reference_rate() > 0


def test_rate_summary_reports_the_slow_tail_when_there_are_enough_chunks():
    samples = [(1, 1.0 / r, REF) for r in range(1, 101)]        # rates 1..100
    out = measure.summarize_rates(samples)
    assert out["slow_p90"] == pytest.approx(measure.percentile(range(1, 101), 10))
    times = measure.summarize_times([(v, REF) for v in range(1, 41)])
    assert times["median"] == 20.5 and times["p75"] == pytest.approx(30.25)


# ---- self time -------------------------------------------------------------------

def test_covered_length_merges_and_clips_intervals():
    assert tr.covered_length([], 0.0, 10.0) == 0.0
    assert tr.covered_length([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == 3.0
    assert tr.covered_length([(1.0, 2.0), (5.0, 6.0)], 0.0, 10.0) == 2.0
    assert tr.covered_length([(-5.0, 1.0), (9.0, 15.0)], 0.0, 10.0) == 2.0
    assert tr.covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_children_but_not_grandchildren():
    spans = [
        ["phase", 0.0, 10.0, -1],
        ["outer", 1.0, 7.0, 0],
        ["inner", 2.0, 4.0, 1],
        ["inner", 4.5, 5.0, 1],
        ["leaf", 2.5, 3.0, 2],
        ["other", 8.0, 9.0, 0],
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 3.5, 1.5, 0.5, 0.5, 1.0])
    assert sum(tr.self_times(spans)) == pytest.approx(10.0)
    assert tr.roots(spans) == [0, 0, 0, 0, 0, 0]
    table = tr.self_time_table(spans)
    assert table["phase"]["inner"] == pytest.approx(2.0)
    assert table["phase"]["outer"] == pytest.approx(3.5)


def test_layer_metrics_divide_by_rounds_and_count_expansions():
    t = tr.Tracer()
    t.spans = [
        ["greedy", 0.0, 4.0, -1],
        ["search.greedy", 0.0, 4.0, 0],
        ["seq2seq.step", 0.5, 1.5, 1],
        ["autograd.forward", 1.0, 1.5, 2],
        ["seq2seq.step", 2.0, 3.0, 1],
        ["autograd.forward", 2.5, 3.0, 4],
    ]
    t.counts[("greedy", "forward.graphs")] = 2
    t.counts[("greedy", "forward.nodes")] = 100
    t.counts[("greedy", "search.sentences")] = 1
    m = tr.layer_metrics(t, rounds=2, train_phase="train", train_tokens=10)
    assert m["search.greedy_s"] == pytest.approx(1.0)         # (4 - 2) / 2 rounds
    assert m["seq2seq.step_s"] == pytest.approx(0.5)
    assert m["autograd.forward_s"] == pytest.approx(0.5)
    assert m["autograd.forward_us_per_node"] == pytest.approx(1e6 * 1.0 / 100)
    assert m["search.expansions"] == 1.0 and m["search.steps_per_sent"] == 2.0
    assert m["autograd.nodes_per_tok"] == 0.0 and m["optim.clip_share"] == 0.0


# ---- tracing ---------------------------------------------------------------------

def tiny_encdec():
    vocab = sb.build_vocab(["a b c"])
    return sb.EncDecModel(vocab, vocab, embed_size=4, hidden_size=5,
                          rng=np.random.default_rng(3))


def test_tracer_wraps_entry_points_and_restores_them():
    model = tiny_encdec()
    original = sb.greedy
    t = tr.Tracer()
    t.install(tr.TARGETS)
    try:
        assert sb.greedy is not original
        untraced = sb.greedy(model, [3, 4])          # disabled: no spans
        assert t.spans == []
        t.enabled = True
        with t.span("greedy"):
            traced = sb.greedy(model, [3, 4])
        t.enabled = False
    finally:
        t.uninstall()
    assert sb.greedy is original and sb.search.greedy is original
    assert traced.tokens == untraced.tokens and traced.logprob == untraced.logprob
    names = [s[0] for s in t.spans]
    assert names[:2] == ["greedy", "search.greedy"]
    assert names.count("seq2seq.step") == len(traced.tokens)
    assert "seq2seq.encode" in names and "nnet.cell_step" in names
    for name, start, end, parent in t.spans:
        assert end >= start
        if parent >= 0:
            assert t.spans[parent][1] <= start and end <= t.spans[parent][2]
    assert t.counts[("greedy", "search.sentences")] == 1


def test_tracer_counts_optimizer_clipping():
    model = tiny_encdec()
    opt = sb.Adam(model.parameters(), lr=0.01, clip_norm=1e-6)
    t = tr.Tracer()
    t.install(tr.TARGETS)
    try:
        t.enabled = True
        with t.span("train"):
            sb.train_encdec(model, [([3, 4], [4, 3, 1])], opt, epochs=1, shuffle=False)
        t.enabled = False
    finally:
        t.uninstall()
    m = tr.layer_metrics(t, rounds=1, train_phase="train", train_tokens=3)
    assert m["optim.steps"] == 1.0 and m["optim.clip_share"] == 1.0
    assert m["autograd.graphs"] == 1.0 and m["autograd.nodes_per_tok"] > 0
    assert 0 < m["autograd.param_nodes"] < m["autograd.nodes"]


# ---- seeded generators -------------------------------------------------------------

def test_balanced_lengths_give_every_chunk_the_same_lengths():
    a = wl.balanced_lengths(np.random.default_rng(1), 80, 40, 1, 8)
    b = wl.balanced_lengths(np.random.default_rng(2), 80, 40, 1, 8)
    assert sorted(a[:40]) == sorted(a[40:]) == sorted(b[:40]) == [n for n in range(1, 9)
                                                                  for _ in range(5)]
    assert a != b
    assert sorted(wl.balanced_lengths(np.random.default_rng(1), 2, 2, 3, 10)) == [5, 9]
    with pytest.raises(ValueError):
        wl.balanced_lengths(np.random.default_rng(1), 10, 4, 1, 8)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_inputs_are_a_function_of_the_seed(name, tmp_path):
    cls = wl.WORKLOADS[name]
    first = cls(7, tmp_path).setup()
    again = cls(7, tmp_path).setup()
    other = cls(8, tmp_path).setup()
    assert first["inputs"] == again["inputs"] != other["inputs"]
    for p, q in zip(first["model"].parameters(), again["model"].parameters()):
        assert p.name == q.name and np.array_equal(p.value, q.value)
    checks = wl.Checks()
    cls(7, tmp_path).verify_setup(first, checks)
    assert checks.attempted >= 1 and checks.failed == 0


def test_checks_count_failures_against_attempts():
    checks = wl.Checks()
    checks.check(True, "fine")
    checks.check(False, "broken")
    assert checks.attempted == 2 and checks.failed == 1 and checks.failures == ["broken"]
    assert wl.close(1.0, 1.0 + 1e-12, 1e-9) and not wl.close(1.0, 1.1, 1e-9)


# ---- BENCHMARK.json ----------------------------------------------------------------

def test_benchmark_json_names_the_metrics_the_runs_print():
    import json
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]][0]
    layers = tr.layer_metrics(tr.Tracer(), rounds=1, train_phase="train", train_tokens=1)
    names = list(layers) + ["trace.overhead_share"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(names)
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)
