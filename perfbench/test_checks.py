"""Each output check accepts good input and rejects made-up bad input.

Run from the repository root::

    python3 -m pytest -q perfbench/test_checks.py
"""

import math
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from repro import SimulationParameters  # noqa: E402

FINITE = SimulationParameters.table2(mpl=25)
INFINITE = SimulationParameters.table2(mpl=200, num_cpus=None, num_disks=None)
READ_ONLY = INFINITE.with_changes(write_prob=0.0)


def _record(tx_id, key, reads, writes):
    return SimpleNamespace(
        tx_id=tx_id,
        serial_key=key,
        read_set=tuple(reads),
        reads_seen=dict(reads),
        installed_writes=frozenset(writes),
    )


def _history():
    # t1 writes object 1; t2 reads it from t1 and writes object 2;
    # t3 reads both from their latest writers.
    return [
        _record(1, (1.0, 0), {1: None}, {1}),
        _record(2, (2.0, 1), {1: 1, 2: None}, {2}),
        _record(3, (3.0, 2), {1: 1, 2: 2}, ()),
    ]


def test_serial_replay_accepts_a_serial_history():
    assert checks.serial_replay(_history(), {1: 1, 2: 2}) == []


def test_serial_replay_rejects_a_stale_read():
    history = _history()
    # t3 claims it saw the initial version of object 2, which t2 had
    # already overwritten earlier in the serial order.
    history[2] = _record(3, (3.0, 2), {1: 1, 2: None}, ())
    problems = checks.serial_replay(history)
    assert len(problems) == 1
    assert "transaction 3 read object 2" in problems[0]


def test_serial_replay_rejects_a_wrong_final_state():
    assert checks.serial_replay(_history(), {1: 1, 2: 3})


def test_serial_replay_rejects_shared_serial_keys():
    history = _history()
    history[1] = _record(2, (1.0, 0), {1: 1, 2: None}, {2})
    assert any("share serial key" in p for p in checks.serial_replay(history))


def test_operational_bounds_of_table2():
    bounds = checks.operational_bounds(FINITE)
    # E[size] = 8, 25% written: 10 accesses of 35 ms disk + 15 ms CPU.
    assert math.isclose(bounds["r0"], 0.5)
    # Two disks carry 0.35 s per transaction: 2 / 0.35 = 5.714 tps.
    assert math.isclose(bounds["throughput_ceiling"], 2 / 0.35)
    infinite = checks.operational_bounds(INFINITE)
    assert math.isclose(infinite["throughput_ceiling"], 200 / 1.5)


def test_bounds_accept_a_feasible_point():
    assert checks.bound_violations("ok", FINITE, 5.0, 2.0, 1000) == []


def test_bounds_reject_throughput_above_the_ceiling():
    problems = checks.bound_violations("fast", FINITE, 6.5, 2.0, 1000)
    assert len(problems) == 1 and "ceiling" in problems[0]


def test_bounds_reject_response_below_service_time():
    problems = checks.bound_violations("quick", FINITE, 5.0, 0.3, 1000)
    assert len(problems) == 1 and "service time" in problems[0]


def test_read_only_closed_form():
    assert math.isclose(checks.read_only_throughput(READ_ONLY), 200 / 1.4)
    # 1,300 commits: 2% + 3 * 0.72 / sqrt(1300) = 8.0% tolerance.
    assert math.isclose(
        checks.read_only_tolerance(READ_ONLY, 1300), 0.080, abs_tol=5e-4
    )
    assert checks.read_only_violations("ro", READ_ONLY, 149.4, 1300, 0, 0) == []
    assert checks.read_only_violations("ro", READ_ONLY, 130.0, 1300, 0, 0)
    assert checks.read_only_violations("ro", READ_ONLY, 142.0, 1300, 3, 0)
    assert checks.read_only_violations("ro", INFINITE, 142.0, 1300, 0, 0)


def _totals(**changes):
    totals = {
        "commits": 90,
        "restarts": 5,
        "blocks": 0,
        "restart_reasons": {"conflict": 5},
        "transactions_generated": 100,
    }
    totals.update(changes)
    return totals


def test_identities():
    assert checks.identity_violations("ok", "optimistic", _totals()) == []
    assert checks.identity_violations(
        "reasons", "optimistic", _totals(restarts=6)
    )
    assert checks.identity_violations(
        "blocks", "immediate_restart", _totals(blocks=1)
    )
    assert checks.identity_violations(
        "blocks", "blocking", _totals(blocks=1)
    ) == []
    assert checks.identity_violations(
        "generated", "blocking", _totals(transactions_generated=80)
    )


def test_status_check_accepts_all_ok():
    statuses = {("blocking", 10, rep): "ok" for rep in range(4)}
    assert checks.status_violations(statuses, 4) == []


def test_status_check_rejects_a_replicate_that_is_not_ok():
    statuses = {("blocking", 10, rep): "ok" for rep in range(4)}
    statuses[("blocking", 10, 2)] = "retried"
    problems = checks.status_violations(statuses, 4)
    assert len(problems) == 1 and "'retried'" in problems[0]


def test_status_check_rejects_missing_replicates():
    statuses = {("blocking", 10, rep): "ok" for rep in range(3)}
    assert checks.status_violations(statuses, 4)
