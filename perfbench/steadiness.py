"""Steadiness check: do two sets of runs of the same code agree?

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10

For every workload of ``BENCHMARK.json``, each of two sets runs
``perfbench/run.py`` ``--runs`` times with ``--trace 0``, each run with
its own seed: set 1 takes seeds ``1 .. runs``, set 2 seeds
``runs + 1 .. 2 * runs``. Runs alternate between workloads so slow
drift on the host spreads over all of them.

For each end-to-end metric and each workload it prints both sets'
median and quartiles, the spread (interquartile distance over the
median), and two verdicts:

* ``spread``: each set's spread is within the metric's bound
  (``setup_s`` is exempt; its bound governs only the medians);
* ``agree``: the two sets' medians differ by at most the bound, in
  either direction. The signed gap is printed as how much worse set 2
  is than set 1 (negative: better).

It also requires every run to report ``correct`` and the same share of
failed operations in both sets. Raw results go to
``.bench_out/steadiness.json``. The exit code is 0 when every verdict
holds, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run_once(spec, workload, seed, seconds):
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stderr}"
        )
    for line in done.stderr.splitlines():
        if line.startswith("CHECK FAILED"):
            print(f"{workload} seed {seed}: {line}", flush=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def _worse_by(metric, first, second):
    """Relative change of set 2's median in the metric's bad direction."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main(argv=None):
    spec = _load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"]
    )
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3 for quartiles")

    outputs = {(s, w): [] for s in range(SETS) for w in workloads}
    for s in range(SETS):
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for workload in workloads:
                out = _run_once(spec, workload, seed, args.seconds)
                outputs[(s, workload)].append(out)
                values = " ".join(
                    f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()
                )
                print(f"set {s + 1} seed {seed} {workload}: {values}",
                      flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steadiness.json"), "w",
              encoding="utf-8") as f:
        json.dump(
            {f"set{s + 1}/{w}": runs for (s, w), runs in outputs.items()},
            f, indent=1,
        )

    ok = True
    print()
    print(f"{'workload':18s} {'metric':18s} {'set':>3s} {'median':>10s} "
          f"{'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s} verdict")
    for workload in workloads:
        shares = set()
        for s in range(SETS):
            for out in outputs[(s, workload)]:
                if not out["correct"]:
                    print(f"{workload}: a run of set {s + 1} is not correct")
                    ok = False
                shares.add((out["failed"], out["attempted"]))
        if len({f / a for f, a in shares}) > 1:
            print(f"{workload}: failed shares differ: {sorted(shares)}")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in range(SETS):
                values = [
                    out["metrics"][name]["value"]
                    for out in outputs[(s, workload)]
                ]
                median, q1, q3, spread = _spread(values)
                medians.append(median)
                verdict = (
                    "ok" if name == "setup_s" or spread <= bound
                    else "SPREAD"
                )
                if verdict != "ok":
                    ok = False
                if s == 1:
                    worse = _worse_by(metric, medians[0], medians[1])
                    agree = abs(worse) <= bound
                    ok = ok and agree
                    verdict += (
                        f", {'agree' if agree else 'DISAGREE'} "
                        f"({worse:+.1%} worse)"
                    )
                print(f"{workload:18s} {name:18s} {s + 1:3d} {median:10.4g} "
                      f"{q1:10.4g} {q3:10.4g} {spread:7.2%} {bound:6.2f} "
                      f"{verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
