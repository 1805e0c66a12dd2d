"""Paper-operating-point benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload locking_thrash --seed 1 \\
        --seconds 25 --trace 0

The simulator is imported from ``src/`` of the checkout; nothing is
built. One invocation

1. times the workload's set-up (imports, parameters, model
   construction) in fresh child processes and keeps the median;
2. runs whole rounds of the workload, unobserved, for about
   ``--seconds`` and keeps the median round time;
3. checks every output (``checks.py``), outside the timed part;
4. with ``--trace 1``, runs one more round with spans around each
   layer (``tracing.py``), checks that its simulated totals equal the
   unobserved round's, and writes the spans to
   ``.bench_out/spans-<workload>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("locking_thrash", "optimistic_tiers", "replicated_sweep")

#: Child processes that each time one cold set-up.
SETUP_PROBES = 3
#: Rounds run even when one round alone outlasts ``--seconds``.
MIN_ROUNDS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup", action="store_true",
        help="internal: time one cold set-up and print it",
    )
    return parser.parse_args(argv)


def _probe_setup(args):
    """Child-process body: one cold import + parameter + model build."""
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import operating_points

    workload = operating_points.build(args.workload, args.seed)
    models = workload.build_models()
    elapsed = time.perf_counter() - started
    print(json.dumps({"setup_s": elapsed, "models": len(models)}))
    return 0


def _measure_setup(args):
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__), "--probe-setup",
                "--workload", args.workload, "--seed", str(args.seed),
            ],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _differing(reference, other):
    """Labels whose results differ between two rounds."""
    from operating_points import same_result

    return [
        label for label, result in reference.results.items()
        if not same_result(result, other.results.get(label))
    ]


def _timed_rounds(workload, seconds):
    """Run whole rounds for about ``seconds``; returns walls and round 1."""
    walls = []
    first = None
    problems = []
    started = time.perf_counter()
    while True:
        gc.collect()
        begin = time.perf_counter()
        round_ = workload.run_round(OUT)
        walls.append(time.perf_counter() - begin)
        if first is None:
            first = round_
        else:
            for label in _differing(first, round_):
                problems.append(f"{label}: a repeated round differs")
            workload.cleanup(round_)
        elapsed = time.perf_counter() - started
        if (len(walls) >= MIN_ROUNDS
                and elapsed + statistics.median(walls) > seconds):
            return walls, first, problems


def _failed_operations(round_):
    if round_.sweep is None:
        return 0
    return sum(
        1 for status in round_.sweep.replicate_statuses.values()
        if status.status != "ok"
    )


def _end_to_end(wall, commits, setup):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": _metric(wall, "s"),
        "sim_commits_per_s": _metric(commits / wall, "1/s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
        "setup_s": _metric(setup, "s"),
    }


def _traced_round(workload, untraced_wall, reference):
    """One instrumented round; returns (per-layer metrics, problems)."""
    from tracing import Tracer, events_scheduled, instrumented, span_costs

    before = span_costs()
    tracer = Tracer()
    reload_s = 0.0
    checkpoint_bytes = 0
    gc.collect()
    with instrumented(tracer):
        begin = time.perf_counter()
        traced = workload.run_round(OUT, tracer)
        traced_wall = time.perf_counter() - begin
        if traced.checkpoint is not None:
            checkpoint_bytes = os.path.getsize(traced.checkpoint)
            begin = time.perf_counter()
            with tracer.span("persistence"):
                workload.reload(traced)
            reload_s = time.perf_counter() - begin
    after = span_costs()
    costs = {
        kind: [(a + b) / 2 for a, b in zip(before[kind], after[kind])]
        for kind in before
    }
    problems = [
        f"{label}: traced totals differ from the untraced run"
        for label in _differing(reference, traced)
    ]
    workload.cleanup(traced)
    tracer.write(os.path.join(OUT, f"spans-{workload.name}.json"), costs)

    def self_s(layer):
        return _metric(tracer.self_seconds(layer, costs), "s")

    counts = tracer.counts
    useful = wasted = 0.0
    events = 0
    for model in tracer.models:
        for tracker in (model.physical.cpu_tracker, model.physical.disk_tracker):
            useful += tracker.useful_time
            wasted += tracker.wasted_time
        events += events_scheduled(model)
    sim_s = (
        sum(r.totals["simulated_time"] for r in traced.results.values())
        if traced.sweep is not None else 0.0
    )
    attempts = counts["cc.attempts"]
    metrics = {
        "cc.self_s": self_s("cc"),
        "cc.calls": _metric(tracer.call_count("cc"), "count"),
        "cc.waits": _metric(counts["cc.waits"], "count"),
        "cc.restarts": _metric(counts["cc.aborts"], "count"),
        "cc.deadlock_checks": _metric(counts["cc.deadlock_checks"], "count"),
        "cc.useful_ratio": _metric(
            counts["cc.commits"] / attempts if attempts else 0.0, "ratio"
        ),
        "core.self_s": self_s("core"),
        "des.events": _metric(events, "count"),
        "resources.self_s": self_s("resources"),
        "resources.calls": _metric(tracer.call_count("resources"), "count"),
        "resources.useful_ratio": _metric(
            useful / (useful + wasted) if useful + wasted else 0.0, "ratio"
        ),
        "stats.self_s": self_s("stats"),
        "obs.self_s": self_s("obs"),
        "obs.events": _metric(counts["obs.events"], "count"),
        "sweep.sim_s": _metric(sim_s, "s"),
        "experiments.self_s": self_s("experiments"),
        "persistence.self_s": self_s("persistence"),
        "persistence.reload_s": _metric(reload_s, "s"),
        "persistence.bytes": _metric(checkpoint_bytes, "bytes"),
        "workloads.self_s": self_s("workloads"),
        "workloads.transactions": _metric(
            counts["workloads.transactions"], "count"
        ),
        "trace.overhead_s": _metric(traced_wall - untraced_wall, "s"),
    }
    return metrics, problems


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no simulator sources under {SRC}; run from the "
            f"root of a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.probe_setup:
        return _probe_setup(args)
    if args.seconds is None or args.seconds <= 0:
        print("perfbench: --seconds must be given and > 0", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    setup = _measure_setup(args)

    sys.path.insert(0, SRC)
    import operating_points

    workload = operating_points.build(args.workload, args.seed)
    walls, first, problems = _timed_rounds(workload, args.seconds)
    wall = statistics.median(walls)
    commits = sum(
        operating_points.retained_commits(result)
        for result in first.results.values()
    )
    metrics = _end_to_end(wall, commits, setup)
    problems += workload.check(first)
    failed = _failed_operations(first) * len(walls)
    if args.trace:
        metrics, traced_problems = _traced_round(workload, wall, first)
        problems += traced_problems
    workload.cleanup(first)

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        f"{args.workload}: {len(walls)} rounds of "
        f"{' '.join(f'{w:.3f}' for w in walls)} s, "
        f"{commits:.0f} commits per round",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": workload.operations * len(walls),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
