"""Output checks that do not rely on the simulator's own numbers.

Every function here takes plain inputs (parameters, measured values,
committed-history records, status strings) and returns a list of
human-readable violations; an empty list means the check passed. The
oracles are computed by the benchmark from the model parameters alone:

* an exact serial replay of a committed history;
* operational bounds (Denning & Buzen): throughput can exceed neither
  the bottleneck rate ``1/D_max`` nor the population bound
  ``N/(R0 + Z)``, and no mean response time can be shorter than the
  no-contention service time ``R0``;
* the closed-form throughput of a read-only workload under infinite
  resources, ``N / (Z + E[size] * (obj_io + obj_cpu))``, within a
  tolerance set by the renewal-count noise (:func:`read_only_tolerance`);
* accounting identities over a run's totals;
* sweep-level integrity (replicate statuses).

The simulator's transaction sizes and think times are random, so the
bounds carry a stated slack: :data:`FIXED_SLACK` for batch-edge effects
plus three standard errors of the sampled mean over the commits a
figure averages (see :func:`sampling_slack`).
"""

import math

#: Relative slack for effects no sample count captures: commits that
#: straddle a batch boundary and the start-up transient of a batch.
FIXED_SLACK = 0.02

#: Standard errors of the sampled mean allowed on top of FIXED_SLACK.
SAMPLING_SIGMAS = 3.0

_MAX_REPORTED = 5


# -- parameters --------------------------------------------------------------


def size_moments(params):
    """Mean and coefficient of variation of a Uniform[min, max] size."""
    low, high = params.min_size, params.max_size
    mean = (low + high) / 2.0
    span = high - low + 1
    variance = (span * span - 1) / 12.0
    return mean, math.sqrt(variance) / mean


def capacity(params):
    """``(cpus, disks)`` in the whole system; ``inf`` when unlimited.

    The ``distributed`` resource model gives every node
    ``num_cpus`` CPUs and ``num_disks`` disks.
    """
    nodes = params.nodes if params.resource_model == "distributed" else 1
    cpus = math.inf if params.num_cpus is None else nodes * params.num_cpus
    disks = (
        math.inf if params.num_disks is None else nodes * params.num_disks
    )
    if params.resource_model == "infinite":
        cpus = disks = math.inf
    return cpus, disks


def operational_bounds(params):
    """The oracle figures for one closed operating point.

    Each transaction reads ``size`` objects (``obj_io`` of disk then
    ``obj_cpu`` of CPU each) and writes a ``write_prob`` fraction of
    them (``obj_cpu`` at the request, ``obj_io`` as a deferred update).
    Restarted attempts only add demand, so the committed-work demands
    below are lower bounds on the real ones.
    """
    size, _ = size_moments(params)
    accesses = size * (1.0 + params.write_prob)
    cpu_demand = accesses * params.obj_cpu
    disk_demand = accesses * params.obj_io
    r0 = cpu_demand + disk_demand
    cpus, disks = capacity(params)
    d_max = max(cpu_demand / cpus, disk_demand / disks)
    population = params.num_terms / (r0 + params.ext_think_time)
    ceiling = min(population, 1.0 / d_max if d_max > 0.0 else math.inf)
    return {"r0": r0, "d_max": d_max, "throughput_ceiling": ceiling}


def sampling_slack(params, commits):
    """Relative slack for figures averaged over ``commits`` transactions.

    The throughput bound depends on the sampled sizes and the sampled
    exponential think times (coefficient of variation 1); the response
    bound on the sampled sizes only. Returns ``(throughput, response)``
    slacks.
    """
    _, cv_size = size_moments(params)
    root = math.sqrt(max(commits, 1))
    throughput = FIXED_SLACK + SAMPLING_SIGMAS * math.hypot(cv_size, 1.0) / root
    response = FIXED_SLACK + SAMPLING_SIGMAS * cv_size / root
    return throughput, response


# -- checks ------------------------------------------------------------------


def bound_violations(label, params, throughput, response_time, commits):
    """Throughput at most the ceiling; mean response at least ``R0``."""
    bounds = operational_bounds(params)
    slack_x, slack_r = sampling_slack(params, commits)
    problems = []
    ceiling = bounds["throughput_ceiling"] * (1.0 + slack_x)
    if not throughput <= ceiling:
        problems.append(
            f"{label}: throughput {throughput:.4f} above the operational "
            f"ceiling {bounds['throughput_ceiling']:.4f} "
            f"(+{slack_x:.1%} slack)"
        )
    floor = bounds["r0"] * (1.0 - slack_r)
    if commits and not response_time >= floor:
        problems.append(
            f"{label}: mean response {response_time:.4f} s below the "
            f"no-contention service time {bounds['r0']:.4f} s "
            f"(-{slack_r:.1%} slack)"
        )
    return problems


def read_only_throughput(params):
    """Closed-form throughput of a contention-free, queue-free system."""
    size, _ = size_moments(params)
    per_tx = size * (params.obj_io + params.obj_cpu)
    return params.num_terms / (params.ext_think_time + per_tx)


def read_only_tolerance(params, commits):
    """Relative tolerance of the read-only closed form over ``commits``.

    Each terminal is a renewal process whose cycle is an exponential
    think time plus a service time set by the sampled size, so the
    commit count over a window has a relative standard deviation of
    about ``cv_cycle / sqrt(commits)``. The tolerance is FIXED_SLACK
    plus three of those.
    """
    size, cv_size = size_moments(params)
    service = size * (params.obj_io + params.obj_cpu)
    think = params.ext_think_time
    cv_cycle = math.hypot(think, cv_size * service) / (think + service)
    return FIXED_SLACK + SAMPLING_SIGMAS * cv_cycle / math.sqrt(
        max(commits, 1)
    )


def read_only_violations(label, params, throughput, commits, blocks,
                         restarts):
    """The read-only point matches its closed form and never conflicts."""
    problems = []
    if params.write_prob != 0.0:
        problems.append(f"{label}: not a read-only point")
        return problems
    expected = read_only_throughput(params)
    error = abs(throughput - expected) / expected
    tolerance = read_only_tolerance(params, commits)
    if not error <= tolerance:
        problems.append(
            f"{label}: throughput {throughput:.4f} is {error:.2%} off the "
            f"closed form {expected:.4f} (tolerance {tolerance:.2%})"
        )
    if blocks or restarts:
        problems.append(
            f"{label}: read-only run had {blocks} blocks and "
            f"{restarts} restarts"
        )
    return problems


#: Algorithms that never make a transaction wait for a lock.
NON_BLOCKING = ("immediate_restart", "optimistic")


def identity_violations(label, algorithm, totals):
    """Accounting identities every run's totals must satisfy."""
    problems = []
    reasons = sum(totals["restart_reasons"].values())
    if totals["restarts"] != reasons:
        problems.append(
            f"{label}: {totals['restarts']} restarts but the restart "
            f"reasons sum to {reasons}"
        )
    if algorithm in NON_BLOCKING and totals["blocks"] != 0:
        problems.append(
            f"{label}: {algorithm} recorded {totals['blocks']} blocks"
        )
    if totals["transactions_generated"] < totals["commits"]:
        problems.append(
            f"{label}: {totals['commits']} commits from only "
            f"{totals['transactions_generated']} transactions generated"
        )
    return problems


def serial_replay(history, final_state=None):
    """Replay committed transactions serially and check every read.

    ``history`` holds records with ``tx_id``, ``read_set``,
    ``installed_writes``, ``reads_seen`` (object -> id of the writer
    whose version the read observed, None for the initial version) and
    ``serial_key``. Replaying them one at a time in serial-key order
    against a single-value store must reproduce every observed read;
    otherwise the committed history is not equivalent to that serial
    order. ``final_state`` (object -> last writer id), when given, must
    match the replay's final store.
    """
    records = sorted(history, key=lambda record: record.serial_key)
    problems = []
    for earlier, later in zip(records, records[1:]):
        if earlier.serial_key == later.serial_key:
            problems.append(
                f"transactions {earlier.tx_id} and {later.tx_id} share "
                f"serial key {earlier.serial_key!r}"
            )
    store = {}
    for record in records:
        for obj in record.read_set:
            observed = record.reads_seen.get(obj)
            expected = store.get(obj)
            if observed != expected:
                problems.append(
                    f"transaction {record.tx_id} read object {obj} from "
                    f"writer {observed}; the serial replay has writer "
                    f"{expected}"
                )
        for obj in record.installed_writes:
            store[obj] = record.tx_id
    if final_state is not None and final_state != store:
        differing = sorted(
            obj for obj in set(store) | set(final_state)
            if store.get(obj) != final_state.get(obj)
        )
        problems.append(
            f"final store differs from the replay on objects "
            f"{differing[:_MAX_REPORTED]}"
        )
    return problems[:_MAX_REPORTED] + (
        [f"... and {len(problems) - _MAX_REPORTED} more"]
        if len(problems) > _MAX_REPORTED else []
    )


def status_violations(statuses, expected_count):
    """Every replicate of a sweep finished ``ok`` on its first attempt.

    ``statuses`` maps a replicate key to its status string.
    """
    problems = [
        f"replicate {key} finished with status {status!r}"
        for key, status in sorted(statuses.items())
        if status != "ok"
    ]
    if len(statuses) != expected_count:
        problems.append(
            f"{len(statuses)} replicate statuses for "
            f"{expected_count} replicates"
        )
    return problems
