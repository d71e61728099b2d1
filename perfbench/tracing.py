"""Run-time tracing of the simulator's layers, from the benchmark's own files.

:class:`Tracer` wraps the public functions at each layer boundary while it is
installed and restores the originals when it is removed, so nothing under
``src/`` changes and an untraced run pays nothing.  It records, in memory:

* spans ``(name, task, start, end, parent)`` — one per wrapped call, on the
  engine task that made it (found with ``core.engine.current_task()``);
* parked intervals — the time a task sat in ``Engine.wait`` or yielded at
  ``Engine.sequence``, attached to its innermost open span;
* counts at the same boundaries: engine yields, I/O server requests, token
  revocations, bytes assembled, and client cache hits and misses.

Every engine task gets a root span (``strategy.task``) whose parent is the
engine run that spawned it, so :func:`perfbench.metrics.self_times` can charge
the run's remaining time to the engine's handoffs.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from functools import update_wrapper
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import aggregation, pipeline, strategies
from repro.core.bulk import BulkReadExecutor, BulkWriteExecutor
from repro.core.engine import Engine, current_task
from repro.core.executor import AtomicWriteExecutor, CollectiveReadExecutor
from repro.fs.client import ClientFileHandle
from repro.fs.server import IOServer
from repro.mpi import runtime
from repro.mpi.comm import Communicator
from repro.patterns import partition
from repro.verify import atomicity

from .metrics import ENGINE_RUN, P2P

_now = time.perf_counter

#: Communicator methods traced as ``mpi.<method>``.
MPI_METHODS = (
    "barrier", "bcast", "gather", "allgather", "allgather_shared", "scatter",
    "alltoall", "alltoallv", "alltoallv_sparse", "reduce", "allreduce", "scan",
    "exscan", "split", "dup",
) + tuple(name.split(".", 1)[1] for name in sorted(P2P))
#: ClientFileHandle methods traced as ``fs.<method>``.
FS_METHODS = (
    "read", "write", "read_batch", "write_batch", "sync", "invalidate",
    "lock", "unlock", "unlock_all", "close",
)
#: Module-level functions traced wherever a module of the program or of the
#: benchmark imported them by name.
FUNCTIONS = (
    (aggregation.merge_pieces, "aggregation.merge_pieces"),
    (aggregation.merge_origin_runs, "aggregation.merge_origin_runs"),
    (aggregation.scatter_pieces, "aggregation.scatter_pieces"),
    (aggregation.assemble_stream, "aggregation.assemble_stream"),
    (aggregation.gather_runs, "aggregation.gather_runs"),
    (atomicity.check_mpi_atomicity, "verify.check_mpi_atomicity"),
    (atomicity.check_read_atomicity, "verify.check_read_atomicity"),
    (partition.views_for_pattern, "patterns.views"),
    (runtime.run_spmd, ENGINE_RUN),
)
_PATCHED_PACKAGES = ("repro", "perfbench")


def _strategy_classes() -> List[type]:
    found, todo = [], [strategies.AtomicityStrategy]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class Tracer:
    """In-memory spans, parked intervals and counts of the traced layers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.parks: List[Tuple[int, float, float, int, str]] = []
        self.counts: Dict[str, int] = {}
        self.switches = 0
        self.server_requests = 0
        self._open: Dict[Any, List[int]] = {}
        self._labels: Dict[Any, int] = {None: 0}
        self._lock_managers: Dict[Any, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- records ----------------------------------------------------------------

    def _label(self, task) -> int:
        label = self._labels.get(task)
        if label is None:
            label = self._labels[task] = len(self._labels)
        return label

    def _enter(self, name: str, parent: Optional[int] = None) -> Tuple[List[int], int]:
        task = current_task()
        stack = self._open.get(task)
        if stack is None:
            stack = self._open[task] = []
        if parent is None:
            parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append([name, self._label(task), _now(), 0.0, parent])
        stack.append(index)
        return stack, index

    def _exit(self, stack: List[int], index: int) -> None:
        self.spans[index][3] = _now()
        stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around the ``with`` body (the benchmark's own
        boundaries, such as one whole collective)."""
        stack, index = self._enter(name)
        try:
            yield
        finally:
            self._exit(stack, index)

    def _park(self, start: float, kind: str) -> None:
        task = current_task()
        stack = self._open.get(task)
        self.parks.append(
            (self._label(task), start, _now(), stack[-1] if stack else -1, kind)
        )

    def count(self, key: str, value: int) -> None:
        """Add ``value`` to the named count."""
        self.counts[key] = self.counts.get(key, 0) + value

    def take(self) -> Tuple[List[tuple], List[tuple], Dict[str, int]]:
        """Hand over and clear the records gathered since the last call.

        Returns ``(spans, parks, counts)``; the counts include the engine
        yields, server requests and token revocations seen meanwhile.
        """
        counts = dict.fromkeys(
            ("aggregation.bytes_assembled", "fs.cache_hits", "fs.cache_misses"), 0
        )
        counts.update(self.counts)
        counts["engine.switches"] = self.switches
        counts["fs.server_requests"] = self.server_requests
        counts["fs.token_revocations"] = sum(
            manager.revocation_count - base
            for manager, base in self._lock_managers.items()
        )
        spans = [tuple(s) for s in self.spans]
        parks = list(self.parks)
        self.spans, self.parks, self.counts = [], [], {}
        self.switches = self.server_requests = 0
        self._open.clear()
        self._labels = {None: 0}
        self._lock_managers.clear()
        return spans, parks, counts

    # -- wrappers -----------------------------------------------------------------

    def _spanned(self, fn: Callable, name: str,
                 after: Optional[Callable[[Any, tuple], None]] = None,
                 before: Optional[Callable[[tuple], None]] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            stack, index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(stack, index)
            if after is not None:
                after(result, args)
            return result

        return update_wrapper(traced, fn)

    def _engine_patches(self) -> List[Tuple[type, str, Callable]]:
        tracer = self
        spawn, wait = Engine.spawn, Engine.wait
        sequence, yield_ = Engine.sequence, Engine._yield_to_scheduler

        def traced_spawn(engine, fn, *args, **kwargs):
            stack = tracer._open.get(current_task())
            parent = stack[-1] if stack else -1

            def rooted():
                stack, index = tracer._enter("strategy.task", parent)
                try:
                    return fn()
                finally:
                    tracer._exit(stack, index)

            return spawn(engine, rooted, *args, **kwargs)

        def traced_wait(engine, *args, **kwargs):
            start = _now()
            try:
                return wait(engine, *args, **kwargs)
            finally:
                tracer._park(start, "wait")

        def traced_sequence(engine, *args, **kwargs):
            before, start = tracer.switches, _now()
            try:
                return sequence(engine, *args, **kwargs)
            finally:
                if tracer.switches != before:
                    tracer._park(start, "sequence")

        def traced_yield(engine):
            tracer.switches += 1
            return yield_(engine)

        return [
            (Engine, "spawn", update_wrapper(traced_spawn, spawn)),
            (Engine, "wait", update_wrapper(traced_wait, wait)),
            (Engine, "sequence", update_wrapper(traced_sequence, sequence)),
            (Engine, "_yield_to_scheduler", update_wrapper(traced_yield, yield_)),
        ]

    def _before_lock(self, args) -> None:
        manager = args[0].file.lock_manager
        if manager not in self._lock_managers and hasattr(manager, "revocation_count"):
            self._lock_managers[manager] = manager.revocation_count

    def _count_cache(self, outcomes) -> None:
        for outcome in outcomes:
            self.count("fs.cache_hits", outcome.cache_hits)
            self.count("fs.cache_misses", outcome.cache_misses)

    def _after_read(self, result, _args) -> None:
        self._count_cache([result[1]])

    def _after_bulk_read(self, result, _args) -> None:
        self._count_cache(result.outcomes)

    def _after_assemble(self, result, _args) -> None:
        self.count("aggregation.bytes_assembled", result[1])

    def _method_patches(self) -> List[Tuple[type, str, Callable]]:
        patches = self._engine_patches()
        tracer = self
        transfer = IOServer.transfer

        def traced_transfer(server, *args, **kwargs):
            tracer.server_requests += 1
            return transfer(server, *args, **kwargs)

        patches.append((IOServer, "transfer", update_wrapper(traced_transfer, transfer)))
        for cls in (AtomicWriteExecutor, CollectiveReadExecutor):
            patches.append((cls, "run", self._spanned(cls.run, ENGINE_RUN)))
        patches.append((BulkWriteExecutor, "run",
                        self._spanned(BulkWriteExecutor.run, "bulk.write")))
        patches.append((BulkReadExecutor, "run", self._spanned(
            BulkReadExecutor.run, "bulk.read", self._after_bulk_read)))
        for method in MPI_METHODS:
            patches.append((Communicator, method,
                            self._spanned(getattr(Communicator, method), f"mpi.{method}")))
        for method in FS_METHODS:
            before = self._before_lock if method == "lock" else None
            patches.append((ClientFileHandle, method, self._spanned(
                getattr(ClientFileHandle, method), f"fs.{method}", before=before)))
        patches.append((pipeline.ViewExchange, "run",
                        self._spanned(pipeline.ViewExchange.run, "plan.exchange")))
        patches.append((pipeline.ConflictAnalysis, "run",
                        self._spanned(pipeline.ConflictAnalysis.run, "plan.analysis")))
        for cls in _strategy_classes():
            for method, name, after in (
                ("schedule", "plan.schedule", None),
                ("schedule_read", "plan.schedule", None),
                ("execute_write", "strategy.execute", None),
                ("execute_read", "strategy.execute", self._after_read),
            ):
                fn = cls.__dict__.get(method)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                patches.append((cls, method, self._spanned(fn, name, after)))
        return patches

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced boundary; :meth:`uninstall` restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, wrapper in self._method_patches():
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        functions = []
        for fn, name in FUNCTIONS:
            after = self._after_assemble if fn is aggregation.assemble_stream else None
            functions.append((fn, self._spanned(fn, name, after)))
        modules = [
            module for key, module in list(sys.modules.items())
            if module is not None and key.split(".", 1)[0] in _PATCHED_PACKAGES
        ]
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                for fn, wrapper in functions:
                    if value is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Trace the ``with`` body."""
        try:
            self.install()
            yield self
        finally:
            self.uninstall()
