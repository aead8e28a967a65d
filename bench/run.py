"""seqbench benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload copy-task --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
next to this directory. BLAS and OpenMP are pinned to one thread before
numpy is imported. The run sets up the workload several times, runs
whole rounds of its pipeline (each from a fresh set-up) while at least half
of another round fits in ``--seconds``, sets up several times more, and
checks the first round's outputs. ``setup_s`` summarizes every set-up.

It prints every metric by name and unit, the checked operations that
failed, the environment and the input and output digests, and, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones. With ``--trace 1`` the run first starts an untraced run of
the same seed in a fresh process, then traces its own rounds; the metrics
are then the per-layer ones plus the tracing overhead, and the spans are
written to ``bench/out/``.

Exit codes: 0 after a completed run (correct or not), 2 when the library or
the arguments are missing or unusable.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"          # before numpy is imported anywhere

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_EXTRA = 5         # untraced set-ups before and again after the rounds, for setup_s
CHILD_TIMEOUT_S = 170

END_TO_END = {          # metric -> (unit, phase or None)
    "setup_s": ("s", None),
    "train_tok_s": ("tok/s", "train"),
    "eval_tok_s": ("tok/s", "eval"),
    "greedy_sent_s": ("sent/s", "greedy"),
    "beam_sent_s": ("sent/s", "beam"),
    "peak_rss_mb": ("MB", None),
}
EXTRA_RATES = {         # printed where the workload has the phase; not gated
    "loglinear_train_tok_s": ("tok/s", "loglinear_train"),
    "ngram_train_tok_s": ("tok/s", "ngram_train"),
    "ngram_eval_tok_s": ("tok/s", "ngram_eval"),
    "loglinear_eval_tok_s": ("tok/s", "loglinear_eval"),
}
LAYER_UNITS = {"s": "s", "graphs": "count", "nodes": "count", "param_nodes": "count",
               "nodes_per_tok": "nodes/tok", "us_per_node": "us", "steps": "count",
               "share": "share", "expansions": "count", "steps_per_sent": "steps/sent",
               "bytes": "B"}


def fail(message: str):
    print(f"bench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not (SRC / "seqbench" / "__init__.py").is_file():
        fail(f"no seqbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import seqbench
    if Path(seqbench.__file__).resolve().parent != SRC / "seqbench":
        fail(f"imported seqbench from {seqbench.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "seqbench").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  capture_output=True, timeout=10)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": src_digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def execute(workload, seconds: float, tracer) -> dict:
    """Set up, run rounds until ``seconds`` would be exceeded, then check."""
    from measure import reference_rate
    from workloads import Checks, Round

    checks = Checks()
    setup_s = []

    def untraced_setups():
        for _ in range(SETUP_EXTRA):
            gc.collect()
            start = time.perf_counter()
            state = workload.setup()
            setup_s.append((time.perf_counter() - start, reference_rate()))
            workload.verify_setup(state, checks)

    untraced_setups()
    rounds, round_s, first = [], [], None
    began = time.perf_counter()
    while True:
        gc.collect()        # each round starts from the same heap, whatever ran before
        started = time.perf_counter()
        tracer.enabled = True
        with tracer.span("setup"):
            state = workload.setup()
        tracer.enabled = False
        setup_s.append((time.perf_counter() - started, reference_rate()))
        workload.verify_setup(state, checks)
        rnd = Round()
        tracer.enabled = True
        t0 = time.perf_counter()
        workload.run_round(state, rnd, checks, tracer)
        round_s.append(time.perf_counter() - t0)
        tracer.enabled = False
        if first is None:
            first = state
        else:
            checks.check(rnd.digest() == rounds[0].digest() and rnd.values == rounds[0].values,
                         f"round {len(rounds) + 1} differs from round 1")
        rounds.append(rnd)
        now = time.perf_counter()
        if now - began + (now - started) / 2 >= seconds:    # less than half a round fits
            break
    tracer.uninstall()
    untraced_setups()
    workload.oracles(first, checks)
    return {"checks": checks, "rounds": rounds, "round_s": round_s, "setup_s": setup_s,
            "inputs": first["inputs"]}


def summarize(workload, result) -> dict:
    import measure

    rounds = result["rounds"]
    phases = {}
    for phase in rounds[0].samples:
        phases[phase] = measure.summarize_rates(
            [s for rnd in rounds for s in rnd.samples[phase]])
    metrics = {}
    for name, (unit, phase) in END_TO_END.items():
        if phase is not None:
            metrics[name] = (phases[phase]["fast"], unit)
    setup = measure.summarize_times(result["setup_s"])
    metrics["setup_s"] = (setup["median"], "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    extras = {name: (phases[phase]["fast"], unit)
              for name, (unit, phase) in EXTRA_RATES.items() if phase in phases}
    for name, value in rounds[0].values.items():
        extras[name] = (value, "ppl" if name.endswith("_ppl") else "score")
    extras["round_s"] = (statistics.median(result["round_s"]), "s")
    checks = result["checks"]
    return {"workload": workload.name, "seed": workload.seed, "rounds": len(rounds),
            "metrics": {k: metrics[k] for k in END_TO_END}, "extras": extras,
            "phases": phases, "setup": setup,
            "round_s": result["round_s"], "values": rounds[0].values,
            "inputs_digest": result["inputs"], "outputs_digest": rounds[0].digest(),
            "attempted": checks.attempted, "failed": checks.failed,
            "failures": checks.failures[:20]}


def untraced_reference(args) -> dict:
    """Run the same workload and seed untraced in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"untraced reference run took over {CHILD_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"untraced reference run exited {done.returncode}: {done.stderr[-2000:]}")
    for line in done.stdout.splitlines():
        if line.startswith("# detail "):
            return json.loads(line[len("# detail "):])
    fail("untraced reference run printed no detail line")


def layer_unit(name: str) -> str:
    for suffix, unit in sorted(LAYER_UNITS.items(), key=lambda kv: -len(kv[0])):
        if name.endswith("_" + suffix) or name.endswith("." + suffix):
            return unit
    return "count"


def print_table(rows):
    for name, value, unit, note in rows:
        print(f"  {name:<30} {value:>16.6g} {unit:<10} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        fail("--seconds must be positive")

    import_library()
    sys.path.insert(0, str(BENCH))
    import measure
    import tracer as tr
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    reference = untraced_reference(args) if args.trace else None
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    tracer = tr.Tracer()
    if args.trace:
        tracer.install(tr.TARGETS)
    try:
        result = execute(workload, args.seconds, tracer)
    finally:
        tracer.uninstall()
        workload.cleanup()
    summary = summarize(workload, result)
    summary["env"] = environment()
    summary["traced"] = bool(args.trace)

    print(f"seqbench benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={summary['rounds']}")
    env = summary["env"]
    print(f"  env: commit={env['commit']} src={env['src_sha256']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} threads=1 nproc={env['nproc']}")
    print(f"end-to-end metrics at {measure.REFERENCE_RATE:g} reference steps/s (rates: "
          f"p{measure.FAST_LEVEL:g} over equal-work chunks, setup: median over set-ups"
          f"{'; traced, so slowed by tracing' if args.trace else ''})")
    rows = []
    for name, (value, unit) in summary["metrics"].items():
        phase = END_TO_END[name][1]
        stats = (summary["phases"][phase] if phase
                 else summary["setup"] if name == "setup_s" else None)
        note = (f"n={stats['n']} median={stats['median']:.6g} raw={stats['raw_median']:.6g}"
                if stats else "")
        rows.append((name, value, unit, note))
    for name, (value, unit) in summary["extras"].items():
        rows.append((name, value, unit, "(not gated)"))
    print_table(rows)
    share = summary["failed"] / summary["attempted"]
    print(f"  {'ops_failed':<30} {share:>16.6g} {'share':<10} "
          f"{summary['failed']}/{summary['attempted']} checked operations")
    for failure in summary["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  inputs_digest={summary['inputs_digest']} outputs_digest={summary['outputs_digest']}")

    if args.trace:
        train_tokens = sum(items for items, _, _ in result["rounds"][0].samples.get("train", []))
        layers = tr.layer_metrics(tracer, summary["rounds"], "train", train_tokens)
        base = statistics.median(reference["round_s"])
        layers["trace.overhead_share"] = statistics.median(result["round_s"]) / base - 1.0
        overhead = {name: value / reference["metrics"][name][0] - 1.0
                    for name, (value, _) in summary["metrics"].items()}
        summary["layers"] = layers
        summary["trace_overhead"] = overhead
        summary["self_time"] = tr.self_time_table(tracer.spans)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(OUT / f"spans-{stem}.jsonl")
        print("per-layer metrics (self time and counts per round)")
        print_table([(name, value, layer_unit(name), "") for name, value in layers.items()])
        print("tracing overhead against the untraced run (share of its value)")
        print_table([(name, value, "share", "") for name, value in overhead.items()])
        print("self time by phase, largest first (seconds over all rounds)")
        for phase, names in summary["self_time"].items():
            top = sorted(names.items(), key=lambda kv: -kv[1])[:5]
            print(f"  {phase}: " + ", ".join(f"{n}={s:.4g}" for n, s in top))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
        attempted = summary["attempted"] + reference["attempted"]
        failed = summary["failed"] + reference["failed"]
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in summary["metrics"].items()}
        attempted, failed = summary["attempted"], summary["failed"]
    attempted += 1                  # one more check: every reported metric is finite
    failed += not all(math.isfinite(m["value"]) for m in metrics.values())
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, default=str)
    print("# detail " + json.dumps(summary, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
