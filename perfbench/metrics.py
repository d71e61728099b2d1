"""Pure metric arithmetic for the benchmark: no workload, no clock.

Everything here takes plain records and returns numbers, so the tests in
``perfbench/test_metrics.py`` can pin it without running the simulator.

Span records are ``(name, task, start, end, parent)``: ``name`` is
``"<layer>.<what>"``, ``task`` labels the engine task the span ran on (0 for
the main thread), ``parent`` is the index of the span that caused it (-1 for
none).  A parent always precedes its children, because spans are recorded when
they open.  Park records are ``(task, start, end, span, kind)``: an interval
in which ``task`` sat parked in ``Engine.wait`` (``kind == "wait"``) or
yielded at ``Engine.sequence`` (``"sequence"``), attached to the innermost
span open on that task.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

Span = Tuple[str, int, float, float, int]
Park = Tuple[int, float, float, int, str]

#: Span name of one workload collective (executor run plus its verification);
#: its self time is the benchmark's own glue, left unaccounted.
COLLECTIVE = "bench.collective"
#: Span name of an engine run (an executor ``run`` or ``run_spmd``); its self
#: time is the engine's handoff cost.
ENGINE_RUN = "engine.run"
#: Point-to-point ``Communicator`` methods; every other ``mpi.*`` span is a
#: collective.
P2P = frozenset({"mpi.send", "mpi.isend", "mpi.recv", "mpi.irecv", "mpi.sendrecv"})

#: Host-time keys of one collective's rollup, reported per median pass.  The
#: ``*.wait_s`` keys sum parked time over the tasks (task-seconds).
HOST_TIME_KEYS = (
    "engine.handoff_s",
    "mpi.busy_s",
    "mpi.wait_s",
    "plan.busy_s",
    "plan.analysis_s",
    "strategy.busy_s",
    "aggregation.busy_s",
    "bulk.write_s",
    "bulk.read_s",
    "fs.busy_s",
    "fs.wait_s",
    "fs.lock_wait_s",
    "verify.busy_s",
)
#: Counts derived from the span records, reported per pass.
SPAN_COUNT_KEYS = ("mpi.collectives", "mpi.p2p", "fs.lock_waits")


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".", 1)[0]


def self_times(spans: Sequence[Span], parks: Sequence[Park]) -> List[float]:
    """Each span's self time.

    A span's self time is its duration minus the part of it that other
    spans or parked intervals explain:

    * a child on the same task is subtracted with its whole duration;
    * parked intervals attached to the span are subtracted (the task was not
      running; other tasks were);
    * a child on another task (an engine task spawned by an engine run) is
      subtracted with its *work* — its self time plus its descendants' work —
      because the two overlap in wall time only while the child ran.

    So an engine run's self time is the run minus the work of every task it
    spawned: the engine's handoff cost.
    """
    n = len(spans)
    parked = [0.0] * n
    for _task, start, end, span, _kind in parks:
        if span >= 0:
            parked[span] += end - start
    subtract = [0.0] * n
    work_below = [0.0] * n
    selfs = [0.0] * n
    for i in range(n - 1, -1, -1):
        _name, task, start, end, parent = spans[i]
        duration = end - start
        selfs[i] = duration - parked[i] - subtract[i]
        work = selfs[i] + work_below[i]
        if parent >= 0:
            work_below[parent] += work
            subtract[parent] += duration if spans[parent][1] == task else work
    return selfs


def rollup(spans: Sequence[Span], parks: Sequence[Park]) -> Dict[str, float]:
    """Per-layer host time and span-derived counts of one traced collective.

    ``host_s`` is the summed duration of the ``bench.collective`` spans and
    ``unaccounted_s`` their self time.  Every other span's self time lands in
    exactly one of ``engine.handoff_s``, ``bulk.write_s``, ``bulk.read_s`` and
    ``<layer>.busy_s``, so those plus ``unaccounted_s`` add up to ``host_s``
    (``plan.analysis_s`` is the part of ``plan.busy_s`` spent in conflict
    analysis).  ``min_self_s`` is the smallest self time seen (negative only
    if the records are inconsistent).
    """
    selfs = self_times(spans, parks)
    out: Dict[str, float] = dict.fromkeys(HOST_TIME_KEYS, 0.0)
    out.update(dict.fromkeys(SPAN_COUNT_KEYS, 0))
    out.update({"patterns.busy_s": 0.0, "host_s": 0.0, "unaccounted_s": 0.0,
                "min_self_s": min(selfs, default=0.0)})
    for (name, _task, start, end, parent), own in zip(spans, selfs):
        layer = layer_of(name)
        if name == COLLECTIVE:
            out["host_s"] += end - start
            out["unaccounted_s"] += own
        elif name == ENGINE_RUN:
            out["engine.handoff_s"] += own
        elif name == "bulk.write":
            out["bulk.write_s"] += own
        elif name == "bulk.read":
            out["bulk.read_s"] += own
        else:
            out[f"{layer}.busy_s"] += own
        if name == "plan.analysis":
            out["plan.analysis_s"] += own
        if layer == "mpi" and (parent < 0 or layer_of(spans[parent][0]) != "mpi"):
            out["mpi.p2p" if name in P2P else "mpi.collectives"] += 1
    waited_locks = set()
    for _task, start, end, span, kind in parks:
        if span < 0:
            continue
        name = spans[span][0]
        if name == "fs.lock":
            out["fs.lock_wait_s"] += end - start
            if kind == "wait":
                waited_locks.add(span)
        elif layer_of(name) in ("mpi", "fs"):
            out[f"{layer_of(name)}.wait_s"] += end - start
    out["fs.lock_waits"] = len(waited_locks)
    return out


def per_pass(samples: Iterable[Tuple[str, float]]) -> float:
    """The value of one typical pass: each kind's median, summed over kinds.

    ``samples`` are ``(kind, value)`` per completed collective.  The median
    is the *lower* median, so with the two or three samples a run gets per
    kind, one collective stalled by the shared host cannot move the figure.
    Taking it per kind keeps a run stopped part-way through a pass from
    over-weighting the kinds it happened to repeat; summing over kinds keeps
    a value that only one kind has (lock waits under ``locking``) from being
    lost to a median over a mix.
    """
    by_kind: Dict[str, List[float]] = defaultdict(list)
    for kind, value in samples:
        by_kind[kind].append(value)
    if not by_kind:
        raise ValueError("no completed collectives")
    return sum(statistics.median_low(values) for values in by_kind.values())


def throughput(samples: Iterable[Tuple[str, int, float]]) -> float:
    """Rank-collectives per host second of one median pass.

    ``samples`` are ``(kind, ranks, host_seconds)`` per completed collective:
    ``sum(ranks of each kind) / per_pass(host seconds)``.
    """
    ranks: Dict[str, int] = {}
    hosts = []
    for kind, nranks, host in samples:
        if ranks.setdefault(kind, nranks) != nranks:
            raise ValueError(f"kind {kind!r} ran with {ranks[kind]} and {nranks} ranks")
        hosts.append((kind, host))
    return sum(ranks.values()) / per_pass(hosts)


def virtual_bandwidth(
    samples: Iterable[Tuple[str, int, float]]
) -> Tuple[float, List[str]]:
    """The paper's bandwidth over one pass: requested bytes / virtual time.

    ``samples`` are ``(kind, bytes_requested, makespan_seconds)``.  Virtual
    time is deterministic, so every repetition of a kind must agree exactly;
    returns ``(bytes per second, kinds whose repetitions disagree)``.
    """
    first: Dict[str, Tuple[int, float]] = {}
    drifting: List[str] = []
    for kind, nbytes, makespan in samples:
        seen = first.setdefault(kind, (nbytes, makespan))
        if seen != (nbytes, makespan) and kind not in drifting:
            drifting.append(kind)
    if not first:
        raise ValueError("no completed collectives")
    total_bytes = sum(b for b, _ in first.values())
    # fsum is exact, so the seeded order of the kinds cannot move the last
    # digit of a figure that must repeat bit for bit.
    total_time = math.fsum(t for _, t in first.values())
    return total_bytes / total_time, drifting


def failed_share(attempted: int, failed: int) -> float:
    """Collectives that raised, deadlocked or failed verification, over
    collectives attempted."""
    if attempted <= 0:
        raise ValueError("no collective was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0
