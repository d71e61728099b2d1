"""Hermetic tests of the benchmark's metric code.

No test here runs a benchmark workload: the arithmetic is pinned on
hand-built records, and the determinism check traces a four-rank copy of the
workload code that finishes in well under a second.
"""

from __future__ import annotations

import json

import pytest

from perfbench import metrics
from perfbench.run import (
    PASS_COUNT_KEYS,
    ROOT,
    WORKLOAD_NAMES,
    layer_metrics,
    run_collective,
    traced_collective,
)
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, BulkReplay, EngineRestart, EngineWrite
from repro.core.engine import Engine
from repro.fs.client import ClientFileHandle


def _span(name, task, start, end, parent=-1):
    return (name, task, float(start), float(end), parent)


class TestSelfTimes:
    def test_same_task_children_and_parks_are_subtracted(self):
        spans = [
            _span("strategy.execute", 0, 0, 10),
            _span("plan.schedule", 0, 1, 4, parent=0),
            _span("mpi.alltoallv", 0, 2, 3, parent=1),
        ]
        parks = [(0, 5, 6, 0, "wait"), (0, 2.25, 2.75, 2, "sequence")]
        assert metrics.self_times(spans, parks) == pytest.approx([6.0, 2.0, 0.5])

    def test_engine_run_self_time_is_the_handoff(self):
        # The run spawns two tasks.  Task 1 works 2 s of its 8 s; task 2
        # works 4 s itself and 1 s inside a child that was parked for 1 s.
        spans = [
            _span(metrics.ENGINE_RUN, 0, 0, 10),
            _span("strategy.task", 1, 1, 9, parent=0),
            _span("strategy.task", 2, 2, 8, parent=0),
            _span("fs.lock", 2, 3, 5, parent=2),
        ]
        parks = [(1, 2, 8, 1, "wait"), (2, 3.5, 4.5, 3, "wait")]
        selfs = metrics.self_times(spans, parks)
        assert selfs == pytest.approx([3.0, 2.0, 4.0, 1.0])
        out = metrics.rollup([_span(metrics.COLLECTIVE, 0, 0, 10)] + [
            (name, task, start, end, parent + 1 if parent >= 0 else 0)
            for name, task, start, end, parent in spans
        ], [(task, start, end, span + 1, kind) for task, start, end, span, kind in parks])
        assert out["engine.handoff_s"] == pytest.approx(3.0)
        assert out["strategy.busy_s"] == pytest.approx(6.0)
        assert out["fs.busy_s"] == pytest.approx(1.0)
        assert out["fs.lock_wait_s"] == pytest.approx(1.0)
        assert out["fs.lock_waits"] == 1
        assert out["host_s"] == pytest.approx(10.0)
        assert out["unaccounted_s"] == pytest.approx(0.0)

    def test_rollup_counts_outermost_mpi_calls_and_waited_locks(self):
        spans = [
            _span("mpi.sendrecv", 0, 0, 4),
            _span("mpi.send", 0, 1, 2, parent=0),
            _span("mpi.allgather", 0, 4, 6),
            _span("mpi.allgather_shared", 0, 4.5, 5.5, parent=2),
            _span("fs.lock", 0, 6, 7),
            _span("fs.lock", 0, 7, 8),
        ]
        parks = [(0, 6.1, 6.2, 4, "sequence"), (0, 7.1, 7.2, 5, "wait")]
        out = metrics.rollup(spans, parks)
        assert (out["mpi.p2p"], out["mpi.collectives"]) == (1, 1)
        assert out["fs.lock_waits"] == 1
        assert out["fs.lock_wait_s"] == pytest.approx(0.2)


class TestEndToEnd:
    def test_failed_share(self):
        assert metrics.failed_share(10, 0) == 0.0
        assert metrics.failed_share(8, 2) == 0.25
        with pytest.raises(ValueError):
            metrics.failed_share(0, 0)
        with pytest.raises(ValueError):
            metrics.failed_share(3, 4)

    def test_bandwidth_over_mixed_strategy_passes(self):
        a, b = ("locking", 300, 3.0), ("two-phase", 300, 1.0)
        # A pass and a half: the repeated kind must not weigh twice.
        value, drifting = metrics.virtual_bandwidth([a, b, a, b, a])
        assert value == pytest.approx(600 / 4.0)
        assert drifting == []
        _, drifting = metrics.virtual_bandwidth([a, b, ("locking", 300, 3.5)])
        assert drifting == ["locking"]

    def test_throughput_is_ranks_over_a_typical_pass(self):
        # Lower medians: a -> 2.0 of (1, 2, 9); b -> 3.0 of (3, 5).
        samples = [("a", 4, 1.0), ("b", 4, 3.0), ("a", 4, 2.0), ("a", 4, 9.0),
                   ("b", 4, 5.0)]
        assert metrics.throughput(samples) == pytest.approx(8 / (2.0 + 3.0))
        with pytest.raises(ValueError):
            metrics.throughput([("a", 4, 1.0), ("a", 8, 1.0)])


class TinyWrite(EngineWrite):
    P, M, N, R = 4, 8, 64, 1


class TinyRestart(EngineRestart):
    P, M, N, R = 4, 8, 64, 1


class TinyBulk(BulkReplay):
    P, N = 4, 8


def _traced_pass(workload_cls):
    workload = workload_cls(seed=3)
    workload.setup()
    tracer = Tracer()
    rollups = []
    for kind in workload.pass_order(0):
        rollup, _raw, (result, _cpu, _wall) = traced_collective(tracer, workload, kind, 0)
        assert result.ok, kind
        rollups.append((kind, result.makespan, result.bytes_requested,
                        {key: rollup[key] for key in PASS_COUNT_KEYS}))
    return sorted(rollups)


@pytest.mark.parametrize("workload_cls", [TinyWrite, TinyRestart, TinyBulk])
def test_traced_runs_repeat_counts_and_virtual_metrics(workload_cls):
    first, second = _traced_pass(workload_cls), _traced_pass(workload_cls)
    assert first == second
    switches = sum(counts["engine.switches"] for *_, counts in first)
    assert (switches == 0) == (workload_cls is TinyBulk)


def test_tracer_restores_every_wrapped_function():
    originals = (Engine.wait, Engine.sequence, ClientFileHandle.lock)
    tracer = Tracer()
    with tracer.installed():
        assert Engine.wait is not originals[0]
    assert (Engine.wait, Engine.sequence, ClientFileHandle.lock) == originals


def test_traced_run_reports_every_declared_per_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOAD_NAMES) == set(WORKLOADS)
    workload = TinyWrite(seed=3)
    workload.setup()
    tracer = Tracer()
    collectives, plain, traced = [], [], []
    for kind in workload.kinds:
        rollup, _raw, outcome = traced_collective(tracer, workload, kind, 0)
        collectives.append(rollup)
        traced.append(outcome)
        plain.append(run_collective(workload, kind))
    values, _checks = layer_metrics(
        workload, collectives, metrics.rollup([], []), plain, traced
    )
    assert {name: unit for name, (_, unit) in values.items()} == {
        m["name"]: m["unit"] for m in declared["per_layer"]
    }


def test_server_request_count_matches_the_pool():
    workload = TinyRestart(seed=3)
    workload.setup()
    rollup, _raw, (result, _cpu, _wall) = traced_collective(
        Tracer(), workload, "locking", 0
    )
    assert result.ok
    # The read reset the pool's accounting first, so the pool counted
    # exactly this collective's transfers.
    assert rollup["fs.server_requests"] == workload.fs.servers.total_requests() > 0
