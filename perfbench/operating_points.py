"""The benchmark's workloads, built from the paper's operating points.

Every workload runs in one process with no sweep workers. A *round* is
one pass over all of a workload's simulations; ``run.py`` repeats
rounds with the same seed and reports medians. Parameters are Table 2
(``SimulationParameters.table2``) unless stated. Run lengths are the
benchmark's own: each point simulates one warm-up batch and three
retained batches of ``batch_time`` simulated seconds.

* ``locking_thrash`` -- blocking and immediate_restart at mpl 50 and
  200, under infinite resources (Fig 5) and 5 CPUs/10 disks (Fig 12).
* ``optimistic_tiers`` -- optimistic at mpl 50 and 200 under infinite
  resources, 5/10, 25 CPUs/50 disks (Fig 14) and the ``exp11_sharded``
  4-node 2PC preset, plus one read-only point (``write_prob=0``,
  infinite resources, mpl 200).
* ``replicated_sweep`` -- ``run_sweep`` over the Figure 8-10 grid
  (1 CPU/2 disks, the three paper algorithms, mpl 10/25/50), 4
  replications, the default backend, ``workers=1``, strict invariants,
  time-series sampling and a checkpoint in a fresh directory.
"""

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

from repro import RunConfig, SystemModel, run_simulation
from repro.cc import PAPER_ALGORITHMS
from repro.experiments import SweepResult, run_sweep
from repro.experiments.configs import experiment_configs
from repro.experiments.persistence import SweepCheckpoint, verify_checkpoint

import checks


@dataclass(frozen=True)
class Point:
    """One simulation of a workload."""

    label: str
    params: object
    algorithm: str
    #: Re-run once with history recording for the serial replay.
    replay: bool = False


@dataclass
class Round:
    """The outputs of one pass over a workload."""

    #: label -> SimulationResult, in run order.
    results: dict
    sweep: Optional[SweepResult] = None
    checkpoint: Optional[str] = None


def retained_commits(result):
    """Commits in the retained (post-warm-up) batches of one result."""
    return sum(result.analyzer.series("commits").values)


def _run_config(seed, batch_time):
    return RunConfig(
        batches=3, batch_time=batch_time, warmup_batches=1, seed=seed
    )


def _result_problems(label, algorithm, params, result):
    commits = retained_commits(result)
    problems = checks.bound_violations(
        label, params, result.mean("throughput"),
        result.mean("response_time"), commits,
    )
    problems += checks.identity_violations(label, algorithm, result.totals)
    if commits <= 0:
        problems.append(f"{label}: no commits in the retained batches")
    return problems


def _replay_problems(label, params, algorithm, run, invariants):
    result = run_simulation(
        params, algorithm=algorithm, run=run, record_history=True,
        invariants=invariants,
    )
    model = result.model
    history = model.committed_history
    problems = checks.serial_replay(history, model.store.final_state())
    if not history:
        problems.append("empty committed history")
    return [f"{label} serial replay: {problem}" for problem in problems]


class PointsWorkload:
    """A fixed list of independent ``run_simulation`` calls."""

    invariants = "off"

    def __init__(self, name, points, run):
        self.name = name
        self.points = points
        self.run = run

    @property
    def operations(self):
        return len(self.points)

    def build_models(self):
        """Construct (without running) every point's model."""
        return [
            SystemModel(p.params, algorithm=p.algorithm, seed=self.run.seed)
            for p in self.points
        ]

    def run_round(self, workdir, tracer=None):
        results = {}
        for point in self.points:
            if tracer is None:
                results[point.label] = self._simulate(point)
            else:
                with tracer.span("core"):
                    results[point.label] = self._simulate(point)
        return Round(results)

    def _simulate(self, point):
        return run_simulation(
            point.params, algorithm=point.algorithm, run=self.run,
            invariants=self.invariants,
        )

    def check(self, round_):
        """Every output check; returns the list of violations."""
        problems = []
        for point in self.points:
            result = round_.results[point.label]
            problems += _result_problems(
                point.label, point.algorithm, point.params, result
            )
            if point.params.write_prob == 0.0:
                problems += checks.read_only_violations(
                    point.label, point.params, result.mean("throughput"),
                    retained_commits(result), result.totals["blocks"],
                    result.totals["restarts"],
                )
            if point.replay:
                problems += _replay_problems(
                    point.label, point.params, point.algorithm, self.run,
                    self.invariants,
                )
        return problems

    def cleanup(self, round_):
        """Nothing on disk to remove."""


class SweepWorkload:
    """``run_sweep`` over the Figure 8-10 grid with every layer engaged."""

    invariants = "strict"
    experiment = "exp3_finite"
    mpls = (10, 25, 50)
    replications = 4
    #: Time-series sampling interval, simulated seconds.
    timeseries = 0.5

    def __init__(self, name, run):
        self.name = name
        self.run = run
        self.config = experiment_configs()[self.experiment]

    @property
    def operations(self):
        return len(PAPER_ALGORITHMS) * len(self.mpls) * self.replications

    def build_models(self):
        return [
            SystemModel(
                self.config.params_for(mpl), algorithm=algorithm,
                seed=self.run.seed,
            )
            for algorithm in PAPER_ALGORITHMS
            for mpl in self.mpls
        ]

    def run_round(self, workdir, tracer=None):
        directory = tempfile.mkdtemp(prefix="sweep-", dir=workdir)
        path = os.path.join(directory, "checkpoint.jsonl")
        if tracer is None:
            sweep = self._sweep(path)
        else:
            with tracer.span("experiments"):
                sweep = self._sweep(path)
        results = {
            f"{algorithm}/mpl={mpl}/rep={rep}": result
            for (algorithm, mpl), reps in sorted(sweep.replicates.items())
            for rep, result in sorted(reps.items())
        }
        return Round(results, sweep=sweep, checkpoint=path)

    def _sweep(self, path):
        return run_sweep(
            self.config, run=self.run, mpls=self.mpls,
            algorithms=PAPER_ALGORITHMS, workers=1,
            replications=self.replications, checkpoint=path,
            invariants=self.invariants, timeseries=self.timeseries,
        )

    def reload(self, round_):
        """The sweep as its checkpoint restores it."""
        restored = SweepResult(
            config=self.config, run=self.run,
            replications=self.replications,
        )
        SweepCheckpoint(
            round_.checkpoint, self.config, self.run,
            replications=self.replications,
        ).load_into(restored, repair=False)
        return restored

    def check(self, round_):
        sweep = round_.sweep
        params = self.config.params
        problems = checks.status_violations(
            {
                key: status.status
                for key, status in sweep.replicate_statuses.items()
            },
            self.operations,
        )
        report = verify_checkpoint(round_.checkpoint)
        if not report["ok"] or report["valid_points"] != self.operations:
            problems.append(
                f"checkpoint failed verification: {report['detail']} "
                f"({report['valid_points']} valid points)"
            )
        restored = self.reload(round_)
        for (algorithm, mpl), reps in sorted(sweep.replicates.items()):
            reloaded = restored.replicates.get((algorithm, mpl), {})
            for rep, result in sorted(reps.items()):
                label = f"{algorithm}/mpl={mpl}/rep={rep}"
                problems += _result_problems(
                    label, algorithm, params.with_changes(mpl=mpl), result
                )
                if not same_result(result, reloaded.get(rep), json_form=True):
                    problems.append(
                        f"{label}: the checkpoint reloads to a different "
                        f"result"
                    )
        mpl = self.mpls[0]
        for algorithm in PAPER_ALGORITHMS:
            standalone = run_simulation(
                self.config.params_for(mpl), algorithm=algorithm,
                run=self.run, invariants=self.invariants,
            )
            if not same_result(standalone, sweep.replicate(algorithm, mpl)):
                problems.append(
                    f"{algorithm}/mpl={mpl}: replicate 0 differs from a "
                    f"standalone run_simulation of that point and seed"
                )
            problems += _replay_problems(
                f"{algorithm}/mpl={self.mpls[-1]}",
                self.config.params_for(self.mpls[-1]), algorithm,
                self.run, self.invariants,
            )
        return problems

    def cleanup(self, round_):
        directory = os.path.dirname(round_.checkpoint)
        os.remove(round_.checkpoint)
        os.rmdir(directory)


def _json_form(value):
    """``value`` as a JSON round trip gives it back (tuples -> lists)."""
    return json.loads(json.dumps(value))


def same_result(first, second, json_form=False):
    """Equal per-batch series and totals (``json_form``: as persisted)."""
    if first is None or second is None:
        return False
    names = first.analyzer.names()
    if names != second.analyzer.names():
        return False
    for name in names:
        if (first.analyzer.series(name).values
                != second.analyzer.series(name).values):
            return False
    if json_form:
        return _json_form(first.totals) == _json_form(second.totals)
    return first.totals == second.totals


def _points_locking():
    configs = experiment_configs()
    tiers = (
        ("inf", configs["exp2_infinite"]),
        ("5cpu10disk", configs["exp4_5cpu_10disk"]),
    )
    return [
        Point(
            f"{algorithm}/{tier}/mpl={mpl}", config.params_for(mpl),
            algorithm, replay=(tier != "inf" and mpl == 200),
        )
        for algorithm in ("blocking", "immediate_restart")
        for tier, config in tiers
        for mpl in (50, 200)
    ]


def _points_optimistic():
    configs = experiment_configs()
    tiers = (
        ("inf", configs["exp2_infinite"]),
        ("5cpu10disk", configs["exp4_5cpu_10disk"]),
        ("25cpu50disk", configs["exp4_25cpu_50disk"]),
        ("sharded4_2pc", configs["exp11_sharded"]),
    )
    points = [
        Point(
            f"optimistic/{tier}/mpl={mpl}", config.params_for(mpl),
            "optimistic",
            replay=(tier == "sharded4_2pc" and mpl == 200),
        )
        for tier, config in tiers
        for mpl in (50, 200)
    ]
    read_only = configs["exp2_infinite"].params_for(200).with_changes(
        write_prob=0.0
    )
    points.append(
        Point("optimistic/inf/read_only/mpl=200", read_only, "optimistic")
    )
    return points


#: Simulated seconds per batch; sized so one round takes a few host
#: seconds and a run fits several rounds.
BATCH_TIME = {
    "locking_thrash": 2.0,
    "optimistic_tiers": 3.0,
    "replicated_sweep": 1.5,
}


def build(name, seed):
    """The named workload (a key of BATCH_TIME), inputs drawn from ``seed``."""
    run = _run_config(seed, BATCH_TIME[name])
    if name == "locking_thrash":
        return PointsWorkload(name, _points_locking(), run)
    if name == "optimistic_tiers":
        return PointsWorkload(name, _points_optimistic(), run)
    return SweepWorkload(name, run)
