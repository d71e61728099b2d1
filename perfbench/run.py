"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload engine-write-p256 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics (``sim_rank_ops_per_s``,
``virtual_bandwidth_MBps``, ``setup_s``, ``peak_rss_MB``); ``--trace 1``
prints the per-layer metrics from a traced run and writes its spans to
``perfbench/out/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is non-zero when any collective fails or a self-check does not hold.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

# Only the stdlib-only metric code is imported here: importing the program
# (through perfbench.workloads) is part of the measured set-up.
from perfbench import metrics  # noqa: E402

#: The keys of ``perfbench.workloads.WORKLOADS``, repeated so that parsing the
#: arguments imports nothing of the program.
WORKLOAD_NAMES = ("engine-write-p256", "engine-restart-p256", "bulk-replay-p16k")
#: Set-ups measured per untraced run (this process plus fresh processes);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A self check: layer self times plus engine handoffs must explain at least
#: this share of the traced collectives' host time.
MIN_ACCOUNTED_SHARE = 0.9
#: Per-pass counts reported by the traced run (they must repeat exactly).
PASS_COUNT_KEYS = (
    "engine.switches", "mpi.collectives", "mpi.p2p", "aggregation.bytes_assembled",
    "fs.server_requests", "fs.lock_waits", "fs.token_revocations",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time as JSON and exit "
                             "(used to sample set-up in fresh processes)")
    return parser.parse_args(argv)


def set_up(name: str, seed: int):
    """Import the program, build the workload and set it up; returns it and
    the host CPU seconds that took."""
    start = time.process_time()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.setup()
    return workload, time.process_time() - start


def setup_in_fresh_process(args) -> float:
    """Set-up CPU seconds measured by a fresh interpreter (imports included)."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise RuntimeError(f"set-up in a fresh process failed ({child.returncode})")
    return json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]


def run_collective(workload, kind: str):
    """Run one collective; a raise counts as a failed collective.

    Returns ``(result, host CPU seconds, wall seconds)``.  Host time is the
    process's CPU time over all threads: on a shared virtual machine, wall
    time also counts the time the hypervisor gave the CPU to someone else.
    """
    from perfbench.workloads import Result

    cpu, wall = time.process_time(), time.perf_counter()
    try:
        result = workload.run(kind)
    except Exception:  # noqa: BLE001 - reported and counted as a failure
        traceback.print_exc()
        result = Result(kind, 0, 0, 0.0, False)
    return result, time.process_time() - cpu, time.perf_counter() - wall


def closed_loop(workload, seconds: float):
    """Yield ``(pass index, kind)`` for the next collective until time is up.

    The caller runs each collective before asking for the next.  The loop
    stops at the first collective boundary after ``seconds`` once a whole
    pass has completed, so every kind has a sample.
    """
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        for kind in workload.pass_order(index):
            if index > 0 and time.perf_counter() >= deadline:
                return
            yield index, kind
        index += 1


def summarise(name, seed, samples, setup_note=""):
    """Human-readable per-kind lines (everything before the JSON line)."""
    lines = [f"{name} seed {seed}: {len(samples)} collectives{setup_note}"]
    kinds = {}
    for sample in samples:
        kinds.setdefault(sample[0].kind, []).append(sample)
    for kind, items in kinds.items():
        lines.append(
            f"  {kind:15s} makespan {items[0][0].makespan:.6f} s"
            f"  ok={all(r.ok for r, _, _ in items)}  cpu/wall s: "
            + " ".join(f"{cpu:.3f}/{wall:.3f}" for _, cpu, wall in items)
        )
    return "\n".join(lines)


def end_to_end(samples):
    """(sim_rank_ops_per_s, virtual_bandwidth_MBps, drifting kinds)."""
    good = [(r, cpu) for r, cpu, _ in samples if r.ok]
    ops = metrics.throughput((r.kind, r.ranks, cpu) for r, cpu in good)
    bandwidth, drifting = metrics.virtual_bandwidth(
        (r.kind, r.bytes_requested, r.makespan) for r, _ in good
    )
    return ops, bandwidth / 1e6, drifting


def run_untraced(args) -> int:
    setups = [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
    workload, own_setup = set_up(args.workload, args.seed)
    setups.append(own_setup)
    samples = [run_collective(workload, kind) for _, kind in closed_loop(workload, args.seconds)]
    failed = sum(1 for r, _, _ in samples if not r.ok)
    print(summarise(args.workload, args.seed, samples,
                    f", set-up cpu {', '.join(f'{s:.3f}' for s in setups)} s"))
    print(f"failed_share {metrics.failed_share(len(samples), failed)}")
    correct = failed == 0
    values = {}
    if correct:
        ops, bandwidth, drifting = end_to_end(samples)
        if drifting:
            print(f"self-check: virtual time differs between repetitions of {drifting}")
            correct = False
        values = {
            "sim_rank_ops_per_s": (ops, "1/s"),
            "virtual_bandwidth_MBps": (bandwidth, "MB/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_MB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return emit(correct, len(samples), failed, values)


def traced_collective(tracer, workload, kind: str, index: int):
    """Run one collective traced; returns its rollup (counts included),
    its raw records and what :func:`run_collective` returned."""
    with tracer.installed(), tracer.span(metrics.COLLECTIVE):
        outcome = run_collective(workload, kind)
    spans, parks, counts = tracer.take()
    rollup = metrics.rollup(spans, parks)
    rollup.update(counts)
    rollup.update(kind=kind, pass_index=index)
    return rollup, {"kind": kind, "spans": spans, "parks": parks}, outcome


def run_traced(args) -> int:
    # Imported before the tracer installs, so it finds the names this
    # module imported from the program and wraps them too.
    from perfbench import workloads  # noqa: F401
    from perfbench.tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        workload, _ = set_up(args.workload, args.seed)
    setup_rollup = metrics.rollup(*tracer.take()[:2])

    plain, traced, collectives, raw = [], [], [], []
    for index, kind in closed_loop(workload, args.seconds):
        # Alternate which mode goes first so drift hits both alike.
        if index % 2 == 0:
            plain.append(run_collective(workload, kind))
        rollup, spans, outcome = traced_collective(tracer, workload, kind, index)
        collectives.append(rollup)
        traced.append(outcome)
        if index == 0:
            raw.append(spans)
        if index % 2:
            plain.append(run_collective(workload, kind))

    samples = plain + traced
    failed = sum(1 for r, _, _ in samples if not r.ok)
    print(summarise(args.workload, args.seed, traced, " traced"))
    print(f"failed_share {metrics.failed_share(len(samples), failed)}")
    checks = []
    if failed:
        checks.append(f"{failed} collectives failed")
    values = {}
    if not checks:
        values, more_checks = layer_metrics(workload, collectives, setup_rollup,
                                            plain, traced)
        checks += more_checks
    for check in checks:
        print(f"self-check failed: {check}")
    out = ROOT / "perfbench" / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "metrics": {k: v for k, (v, _) in values.items()},
        "collectives": collectives, "first_pass": raw,
    }))
    return emit(not checks, len(samples), failed, values)


def layer_metrics(workload, collectives, setup_rollup, plain, traced):
    """Per-layer metrics and the traced run's self-checks."""
    checks = []
    passes = {}
    for rollup in collectives:
        passes.setdefault(rollup["pass_index"], []).append(rollup)
    whole = [rs for rs in passes.values() if len(rs) == len(workload.kinds)]
    per_pass = [
        {key: sum(r.get(key, 0) for r in rs) for key in PASS_COUNT_KEYS} for rs in whole
    ]
    if any(counts != per_pass[0] for counts in per_pass):
        checks.append(f"per-pass counts differ between passes: {per_pass}")

    def total(key):
        return sum(r.get(key, 0) for r in collectives)

    host = total("host_s")
    accounted = 1.0 - metrics.ratio(total("unaccounted_s"), host)
    if accounted < MIN_ACCOUNTED_SHARE:
        checks.append(f"layers account for only {accounted:.1%} of host time")
    if min(r["min_self_s"] for r in collectives) < -1e-6:
        checks.append("a span's self time is negative")
    if not workload.uses_engine and per_pass[0]["engine.switches"]:
        checks.append("engine switches on the bulk replay")
    if workload.uses_engine and total("bulk.write_s") + total("bulk.read_s"):
        checks.append("bulk executor time on an engine workload")
    _, _, drifting = end_to_end(plain + traced)
    if drifting:
        checks.append(f"virtual time differs between repetitions of {drifting}")

    values = {
        key: (metrics.per_pass((r["kind"], r[key]) for r in collectives), "s")
        for key in metrics.HOST_TIME_KEYS
    }
    values.update({
        key: (per_pass[0][key], "B" if key.startswith("aggregation") else "count")
        for key in PASS_COUNT_KEYS
    })
    hits, misses = total("fs.cache_hits"), total("fs.cache_misses")
    plain_ops, traced_ops = (
        metrics.throughput((r.kind, r.ranks, cpu) for r, cpu, _ in samples)
        for samples in (plain, traced)
    )
    values.update({
        "engine.handoff_us_per_switch": (
            1e6 * metrics.ratio(total("engine.handoff_s"), total("engine.switches")), "us"),
        "fs.cache_hit_ratio": (metrics.ratio(hits, hits + misses), "ratio"),
        "verify.share": (metrics.ratio(total("verify.busy_s"), host), "ratio"),
        "patterns.views_s": (setup_rollup["patterns.busy_s"], "s"),
        "trace.overhead": (traced_ops / plain_ops, "ratio"),
        "trace.accounted_share": (accounted, "ratio"),
        "trace.collectives": (len(collectives), "count"),
    })
    return values, checks


def emit(correct: bool, attempted: int, failed: int, values) -> int:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        _, seconds = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    return run_traced(args) if args.trace else run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
