"""The benchmark's workloads: fixed shapes, seeded payloads, verified outputs.

Each workload is a closed loop of collectives issued one after another from
this process's main thread.  Shapes are fixed so the virtual metrics
compare across commits; the seed drives the payload bytes and the order of
the collectives within a pass.  Every collective is checked twice: by the
program's own verifier (``check_mpi_atomicity`` / ``check_read_atomicity``)
and by a byte comparison against the seeded payloads, which the provenance
verifier alone would not catch.

Why these three (see ``perfbench/NOTES.md`` for the layer map):

* ``engine-write-p256`` — the paper's evaluation (column-wise writes on the
  IBM SP's token-locked GPFS) at a P where engine handoffs dominate;
* ``engine-restart-p256`` — the read side of the same engine, strategy and fs
  layers, plus a racing writer/reader collective: shared locks, read tokens,
  the client cache and scatter/assemble;
* ``bulk-replay-p16k`` — bulk-synchronous replay with no engine tasks at all,
  the bypass case for every engine change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.harness import run_mixed_experiment
from repro.bench.machines import IBM_SP
from repro.core.bulk import BulkReadExecutor, BulkWriteExecutor
from repro.core.executor import AtomicWriteExecutor, CollectiveReadExecutor
from repro.core.registry import default_registry
from repro.fs.filesystem import ParallelFileSystem
from repro.mpi.cost import CommCostModel
from repro.patterns.partition import views_for_pattern
from repro.verify.atomicity import (
    ReadObservation,
    check_mpi_atomicity,
    check_read_atomicity,
)

#: The communication cost model the harness uses for every experiment.
COMM_COST = CommCostModel(latency=30e-6, byte_cost=1e-8)
FILENAME = "bench.dat"

View = List[Tuple[int, int]]


@dataclass
class Result:
    """What one collective produced, and whether it verified."""

    kind: str
    ranks: int
    bytes_requested: int
    makespan: float
    ok: bool


class Layout:
    """The file positions every rank's stream covers, for byte checks.

    ``positions[i]`` is the file offset of byte ``i`` of the concatenation of
    all ranks' streams (rank order, each in data-stream order), and
    ``owners[i]`` the rank whose stream it belongs to.
    """

    def __init__(self, views: Sequence[View], payloads: Sequence[bytes]) -> None:
        offsets = np.array([off for view in views for off, _ in view], dtype=np.int64)
        lengths = np.array([n for view in views for _, n in view], dtype=np.int64)
        stream_starts = np.cumsum(lengths) - lengths
        self.positions = np.repeat(offsets - stream_starts, lengths) + np.arange(
            int(lengths.sum()), dtype=np.int64
        )
        per_rank = np.repeat(
            np.arange(len(views)), [len(view) for view in views]
        )
        self.owners = np.repeat(per_rank, lengths)
        self.stream = np.frombuffer(b"".join(payloads), dtype=np.uint8)
        self.covered = len(np.unique(self.positions))

    def written_ok(self, data: np.ndarray, writers: np.ndarray) -> bool:
        """Every covered byte of the file (``data``, with per-byte
        provenance ``writers``) holds the bytes of the rank recorded as its
        writer, and that rank covers it."""
        won = writers[self.positions] == self.owners
        return int(won.sum()) == self.covered and bool(
            np.array_equal(data[self.positions[won]], self.stream[won])
        )

    def read_ok(self, delivered: Sequence[bytes], file_bytes: np.ndarray) -> bool:
        """The delivered streams are exactly the committed file's bytes."""
        got = np.frombuffer(b"".join(delivered), dtype=np.uint8)
        return bool(np.array_equal(got, file_bytes[self.positions]))


def seeded_payloads(seed: int, views: Sequence[View]) -> List[bytes]:
    """One random stream per rank, sized to its view."""
    sizes = [sum(n for _, n in view) for view in views]
    blob = np.random.default_rng(seed).integers(
        0, 256, size=sum(sizes), dtype=np.uint8
    ).tobytes()
    out, at = [], 0
    for size in sizes:
        out.append(blob[at : at + size])
        at += size
    return out


def _fresh_fs() -> ParallelFileSystem:
    return ParallelFileSystem(IBM_SP.make_fs_config())


class Workload:
    """A named set of collective kinds, run in seeded order pass by pass,
    over the column-wise views of an ``M x N`` byte array on ``P`` ranks with
    ``R`` ghost columns."""

    name = ""
    kinds: Tuple[str, ...] = ()
    #: Whether the kinds must run in the listed order (a read needs the
    #: same pass's write); otherwise the seed shuffles each pass.
    ordered = False
    #: Whether the collectives run as engine tasks (the bulk replay runs
    #: none, so it must show no engine switches).
    uses_engine = True
    P, M, N, R = 256, 64, 4096, 4

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def pass_order(self, index: int) -> List[str]:
        """The kinds of pass ``index``, in the order they run."""
        if self.ordered:
            return list(self.kinds)
        return random.Random(f"{self.seed}:{index}").sample(self.kinds, len(self.kinds))

    def setup(self) -> None:
        """Generate views and payloads, seed files, warm up."""
        raise NotImplementedError

    def run(self, kind: str) -> Result:
        """Run and verify one collective of ``kind``."""
        raise NotImplementedError

    def _make_inputs(self) -> None:
        self.views = views_for_pattern("column-wise", self.M, self.N, self.P, self.R)
        self.payloads = seeded_payloads(self.seed, self.views)
        self.layout = Layout(self.views, self.payloads)

    def _view(self, rank: int, _nprocs: int) -> View:
        return self.views[rank]

    def _data(self, rank: int, _nbytes: int) -> bytes:
        return self.payloads[rank]

    def _write(self, kind: str, executor_cls, fs, strategy) -> Result:
        """One verified collective write; keeps what a later read checks."""
        result = executor_cls(fs, strategy, FILENAME, COMM_COST).run(
            self.P, self._view, self._data
        )
        store = result.file.store
        self.write_regions = result.regions
        self.file_bytes = np.frombuffer(store.snapshot(), dtype=np.uint8)
        ok = check_mpi_atomicity(store, result.regions).ok and self.layout.written_ok(
            self.file_bytes, store.writers(0, store.size)
        )
        return Result(kind, self.P, result.total_bytes_requested, result.makespan, ok)

    def _read(self, kind: str, executor_cls, strategy) -> Result:
        """One verified collective read of the last write on ``self.fs``."""
        # Servers and lock managers restart from virtual time 0, as on a
        # freshly written file system.
        self.fs.reset_accounting()
        result = executor_cls(self.fs, strategy, FILENAME, COMM_COST).run(
            self.P, self._view
        )
        observations = [
            ReadObservation(rank, result.regions[rank], result.data[rank])
            for rank in range(self.P)
        ]
        ok = check_read_atomicity(observations, self.write_regions, self.payloads).ok
        ok = ok and self.layout.read_ok(result.data, self.file_bytes)
        return Result(kind, self.P, result.total_bytes_requested, result.makespan, ok)

    def _warm_up(self, kind: str) -> None:
        if not self.run(kind).ok:
            raise RuntimeError(f"{self.name}: warm-up {kind} failed verification")


class EngineWrite(Workload):
    """One engine-path collective write per strategy per pass: IBM SP (GPFS
    tokens), column-wise 64 x 4096 bytes, R = 4, P = 256."""

    name = "engine-write-p256"
    kinds = ("locking", "graph-coloring", "rank-ordering", "two-phase", "auto")

    def setup(self) -> None:
        self._make_inputs()
        self._warm_up("two-phase")

    def run(self, kind: str) -> Result:
        return self._write(
            kind, AtomicWriteExecutor, _fresh_fs(), default_registry.create(kind)
        )


class EngineRestart(Workload):
    """Restart reads of one two-phase checkpoint, plus a racing collective,
    on the machine and shape of :class:`EngineWrite`."""

    name = "engine-restart-p256"
    kinds = ("two-phase", "auto", "locking", "graph-coloring", "mixed")

    def setup(self) -> None:
        self._make_inputs()
        self.fs = _fresh_fs()
        checkpoint = self._write(
            "two-phase", AtomicWriteExecutor, self.fs, default_registry.create("two-phase")
        )
        if not checkpoint.ok:
            raise RuntimeError(f"{self.name}: checkpoint failed verification")
        # The first ``auto`` read of a file fills its plan cache; warming up
        # with it makes every timed ``auto`` read the same (cached) read.
        self._warm_up("auto")

    def run(self, kind: str) -> Result:
        if kind == "mixed":
            # 128 writers race 128 readers under locking on a fresh file,
            # verified inside the harness by both verifiers.
            record = run_mixed_experiment(IBM_SP, self.M, self.N, self.P, self.R)
            return Result(kind, self.P, record.bytes_requested,
                          record.makespan_seconds, record.atomic_ok)
        return self._read(kind, CollectiveReadExecutor, default_registry.create(kind))


class BulkReplay(Workload):
    """Bulk-synchronous replay at P = 16384: a write, then its restart read.

    The extended-sweep shape (M = 2, N = 2P, R = 2) under ``two-phase-hier``
    with P/256 aggregators and 8 ranks per node.
    """

    name = "bulk-replay-p16k"
    kinds = ("write", "read")
    ordered = True
    uses_engine = False
    P, M, N, R = 16384, 2, 2 * 16384, 2

    def setup(self) -> None:
        self._make_inputs()
        self._warm_up("write")

    def _strategy(self):
        return default_registry.create(
            "two-phase-hier", num_aggregators=max(1, self.P // 256), ranks_per_node=8
        )

    def run(self, kind: str) -> Result:
        if kind == "write":
            self.fs = _fresh_fs()
            return self._write(kind, BulkWriteExecutor, self.fs, self._strategy())
        return self._read(kind, BulkReadExecutor, self._strategy())


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    cls.name: cls for cls in (EngineWrite, EngineRestart, BulkReplay)
}
