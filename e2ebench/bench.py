"""One benchmark run: set up, drive the closed loop, check every answer.

The loop runs a fixed operation sequence from one client.  With tracing
on, odd rounds run under :class:`layers.LayerTracer` and even rounds run
the shipped code, so the per-layer split and the tracing overhead come
from the same run.  End-to-end figures come from an untraced run.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import oracle
import workloads
from layers import LayerTracer
from repro.core.partition import cross_shard_bytes
from repro.obs.clock import wall_now
from repro.workloads.tpch.distributions import distribution
from workloads import DATA_SEED, Federation, Operation, Workload

#: end-to-end metrics and their units (untraced runs)
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_runtime_s": "s",
    "transfer_bytes": "bytes",
}

#: per-layer metrics and their units (traced runs), per traced
#: operation unless the name says otherwise
PER_LAYER = {
    "sql.parser.parse.calls": "count",
    "sql.parser.parse.middleware_calls": "count",
    "sql.parser.parse.self_ms": "ms",
    "core.catalog.refresh.ms": "ms",
    "core.catalog.verify.calls": "count",
    "relational.optimizer.optimize.calls": "count",
    "relational.optimizer.optimize.self_ms": "ms",
    "core.annotate.annotate.calls": "count",
    "core.annotate.annotate.self_ms": "ms",
    "core.annotate.consultations": "count",
    "core.finalize.finalize.self_ms": "ms",
    "core.finalize.tasks": "count",
    "core.delegate.delegate.self_ms": "ms",
    "core.delegate.ddl_statements": "count",
    "core.delegate.cleanup.self_ms": "ms",
    "core.delegate.refresh.self_ms": "ms",
    "connect.run_query.ms": "ms",
    "connect.execute_ddl.calls": "count",
    "connect.execute_ddl.ms": "ms",
    "connect.retries": "count",
    "connect.failures": "count",
    "engine.database.execute.self_ms": "ms",
    "engine.database.insert.ms": "ms",
    "engine.fdw.fetch.calls": "count",
    "engine.fdw.fetch.self_ms": "ms",
    "engine.fdw.fetch.rows": "count",
    "engine.rows_returned": "count",
    "engine.vector.batches_from_rows.rows": "count",
    "engine.vector.rows_materialized": "count",
    "engine.parallel.map.calls": "count",
    "engine.parallel.branches": "count",
    "engine.parallel.map.ms": "ms",
    "engine.parallel.busy_ms": "ms",
    "engine.parallel.utilization": "ratio",
    "core.partition.expand.self_ms": "ms",
    "core.partition.cross_shard_bytes": "bytes",
    "core.timing.simulate.self_ms": "ms",
    "feedback.harvest.self_ms": "ms",
    "net.transfers": "count",
    "net.bytes": "bytes",
    "qos.gate.acquire.wait_ms": "ms",
    "drift.reaper.sweep_pending.ms": "ms",
    "obs.spans": "count",
    "runtime.gc.ms": "ms",
    "runtime.gc.gen2_collections": "count",
    "core.pipeline.unattributed_ms": "ms",
    "middleware_share": "ratio",
    "write_p50_ms": "ms",
    "bench.trace_overhead_pct": "%",
}

#: per-layer metrics that count work (the rest are times or ratios)
COUNTS = tuple(
    name
    for name, unit in PER_LAYER.items()
    if unit in ("count", "bytes") and not name.startswith("runtime.")
)

#: iterations of the reference spin (about 1.5 ms of pure-Python
#: integer arithmetic on a 2-vCPU container)
SPIN_LOOPS = 20_000
#: the spin's duration at the nominal interpreter speed that every
#: end-to-end time is scaled to
NOMINAL_SPIN_S = 0.0015
#: an operation's time is scaled by the spins of the operations up to
#: this many places before and after it (a few seconds of the loop)
SCALE_WINDOW = 12


@dataclass
class Record:
    """What one operation did and how long it took."""

    op: Operation
    seconds: float = 0.0
    traced: bool = False
    error: str = ""
    rows: Optional[list] = None
    sim_seconds: float = 0.0
    transfer_bytes: int = 0
    #: the reference spin run right after this operation, and the factor
    #: that expresses ``seconds`` at the nominal speed
    spin: float = 0.0
    scale: float = 1.0
    layers: Dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """A finished run: the printed result plus what the tests inspect."""

    result: dict
    records: List[Record]
    problems: List[str]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spin() -> float:
    """Time a fixed slice of interpreter work that shares nothing with
    the program: the reference for how fast this machine runs right now."""
    start = wall_now()
    total = 0
    for value in range(SPIN_LOOPS):
        total += value * value
    return wall_now() - start


def speed_scales(spins: List[float], half: int = SCALE_WINDOW) -> List[float]:
    """Per-sample factors mapping wall times to the nominal speed: the
    nominal spin over the median of the spins within ``half`` samples."""
    return [
        NOMINAL_SPIN_S
        / statistics.median(spins[max(index - half, 0) : index + half + 1])
        for index in range(len(spins))
    ]


def tail_quantile(count: int) -> float:
    """The highest quantile ≤ 0.9 with at least ten samples beyond it."""
    if count <= 10:
        return 0.5
    return min(0.9, 1.0 - 10.0 / count)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def _count_spans(span) -> int:
    return 1 + sum(_count_spans(child) for child in span.children)


def _connector_totals(federation: Federation) -> Dict[str, float]:
    connectors = federation.deployment.connectors.values()
    return {
        "connect.retries": float(sum(c.retries for c in connectors)),
        "connect.failures": float(sum(c.failures for c in connectors)),
    }


def _perform(federation: Federation, op: Operation, placement) -> object:
    if op.kind == "submit":
        return federation.xdb.submit(op.sql)
    if op.kind == "execute":
        return federation.prepared[op.query].execute()
    for table, sql in op.writes:
        federation.deployment.database(placement[table]).execute(sql)
    return None


def _run_op(
    federation: Federation,
    op: Operation,
    placement,
    tracer: Optional[LayerTracer],
) -> Record:
    record = Record(op=op, traced=tracer is not None)
    if tracer is not None:
        before = _connector_totals(federation)
        tracer.install()
        tracer.reset()
    start = wall_now()
    try:
        report = _perform(federation, op, placement)
    except Exception as exc:  # every failure counts against the run
        report = None
        record.error = f"{type(exc).__name__}: {exc}"
    record.seconds = wall_now() - start
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.reset()
        after = _connector_totals(federation)
        for key, value in after.items():
            layers[key] = value - before[key]
        if report is not None:
            layers["obs.spans"] = float(_count_spans(report.context.tracer.root))
            layers["core.partition.cross_shard_bytes"] = float(
                cross_shard_bytes(report.plan)
            )
        layers["wall_ms"] = record.seconds * 1000.0
        record.layers = layers
    if report is not None:
        record.rows = list(report.result.rows)
        record.sim_seconds = report.phases["exec"]
        record.transfer_bytes = report.transfers.total_bytes
    return record


def _setups(workload: Workload, trace: bool):
    """Set up ``workload.setups`` times; keep only the last federation."""
    seconds: List[float] = []
    scales: List[float] = []
    refresh_ms = 0.0
    federation = plan = None
    for index in range(workload.setups):
        if federation is not None:
            federation.close()
        federation = plan = None
        gc.collect()
        spins = [spin() for _ in range(3)]
        tracer = None
        if trace and index == workload.setups - 1:
            tracer = LayerTracer()
            tracer.install()
        start = wall_now()
        federation, plan = workloads.setup(workload)
        seconds.append(wall_now() - start)
        if tracer is not None:
            tracer.uninstall()
            refresh_ms = tracer.reset().get("core.catalog.refresh.ms", 0.0)
        spins.extend(spin() for _ in range(3))
        scales.append(speed_scales(spins, half=len(spins))[0])
    return federation, plan, seconds, scales, refresh_ms


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    workload = workloads.WORKLOADS[name]
    placement = distribution(workload.td)
    federation, plan, setup_seconds, setup_scales, refresh_ms = _setups(
        workload, trace
    )
    ops = workloads.operations(
        workload, seed, workloads.rounds_for(workload, seconds), federation, plan
    )
    del plan
    for op in workloads.warmup_operations(workload, seed):
        _perform(federation, op, placement)
        spin()
    tracer = LayerTracer() if trace else None
    gc.collect()

    # Closed loop, one client.  A reference spin follows every operation,
    # outside its timing: this machine's speed drifts by 20-30 % within
    # seconds, so end-to-end times are scaled by the spins around them.
    records: List[Record] = []
    for op in ops:
        traced = tracer if (tracer is not None and op.round % 2 == 1) else None
        record = _run_op(federation, op, placement, traced)
        record.spin = spin()
        records.append(record)
    loop_seconds = sum(record.seconds for record in records)
    for record, factor in zip(
        records, speed_scales([record.spin for record in records])
    ):
        record.scale = factor
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    federation.close()
    del federation
    gc.collect()
    check_start = wall_now()
    problems = check_answers(workload, records)
    print(
        f"{name}: {workload.setups} set-ups {sum(setup_seconds):.1f} s, "
        f"{len(records)} ops {loop_seconds:.1f} s (median speed scale "
        f"{statistics.median(r.scale for r in records):.3f}), "
        f"oracle check {wall_now() - check_start:.1f} s",
        file=sys.stderr,
    )
    if trace:
        metrics = per_layer(records, refresh_ms)
        problems += validity(workload, records, metrics)
    else:
        raw = end_to_end(records, setup_seconds, peak_rss_mb, scaled=False)
        print(
            "unscaled: " + ", ".join(f"{k}={v:.4g}" for k, v in raw.items()),
            file=sys.stderr,
        )
        metrics = end_to_end(records, setup_seconds, peak_rss_mb, setup_scales)
    failed = sum(1 for record in records if record.error)
    failed += sum(1 for p in problems if p.startswith("wrong answer"))
    units = END_TO_END if not trace else PER_LAYER
    result = {
        "correct": not problems and failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": units[key]} for key in units
        },
    }
    return Outcome(result=result, records=records, problems=problems)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_answers(workload: Workload, records: List[Record]) -> List[str]:
    """Replay the run on the single-engine oracle, in run order.

    Runs after every measurement is taken, with the collector paused:
    the referee's own garbage would only lengthen the run.
    """
    gc.disable()
    try:
        return _check_answers(workload, records)
    finally:
        gc.enable()


def _check_answers(workload: Workload, records: List[Record]) -> List[str]:
    problems: List[str] = []
    referee = oracle.build(workload.scale_factor, DATA_SEED)
    #: answers since the last write, by query text
    answers: Dict[str, list] = {}
    for record in records:
        op = record.op
        if record.error:
            problems.append(f"failed: {op.kind} {op.query}: {record.error}")
        if not op.is_read:
            # a failed write is replayed too: the engines may hold part
            # of it, and the reads after it are checked either way
            for table, sql in op.writes:
                oracle.replay_write(referee, table, sql)
            answers.clear()
            continue
        if record.error:
            continue
        if op.sql not in answers:
            answers[op.sql] = referee.execute(op.sql).rows
        expected = answers[op.sql]
        if not oracle.matches(record.rows, expected):
            problems.append(
                f"wrong answer: {op.kind} {op.query} round {op.round}"
            )
    return problems


def validity(
    workload: Workload, records: List[Record], metrics: Dict[str, float]
) -> List[str]:
    """The traced run must show each workload doing what it is for."""
    problems: List[str] = []
    traced = [r for r in records if r.traced]
    totals: Dict[str, float] = {}
    for record in traced:
        for key, value in record.layers.items():
            totals[key] = totals.get(key, 0.0) + value
    for probe in workload.exercises:
        if totals.get(f"{probe}.calls", 0.0) <= 0:
            problems.append(f"validity: {probe} never called on {workload.name}")
    low, high = workload.middleware_share
    share = metrics["middleware_share"]
    if not low <= share <= high:
        problems.append(
            f"validity: middleware_share {share:.3f} outside [{low}, {high}]"
        )
    if workload.prepared:
        for record in traced:
            if not record.op.is_read:
                continue
            for key in (
                "relational.optimizer.optimize.calls",
                "core.annotate.annotate.calls",
                "sql.parser.parse.middleware_calls",
            ):
                if record.layers.get(key, 0.0):
                    problems.append(f"validity: prepared read made {key}")
    branches = totals.get("engine.parallel.branches", 0.0)
    if (branches > 0) != (workload.partitions > 0):
        problems.append(f"validity: engine.parallel.branches = {branches:g}")
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(
    records: List[Record],
    setup_seconds: List[float],
    peak_rss_mb: float,
    setup_scales: Optional[List[float]] = None,
    scaled: bool = True,
) -> Dict[str, float]:
    """End-to-end metrics, wall times expressed at the nominal speed
    (``scaled=False`` gives them as measured)."""

    def scale(record: Record) -> float:
        return record.scale if scaled else 1.0

    reads = [r for r in records if r.op.is_read and not r.error]
    walls = [r.seconds * 1000.0 * scale(r) for r in reads]
    busy = sum(r.seconds * scale(r) for r in records)
    setups = [
        seconds * (factor if scaled else 1.0)
        for seconds, factor in zip(setup_seconds, setup_scales or [1.0] * len(setup_seconds))
    ]
    return {
        "latency_p50_ms": statistics.median(walls),
        "latency_p90_ms": percentile(walls, tail_quantile(len(walls))),
        "ops_per_s": len(records) / busy,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "sim_runtime_s": statistics.fmean(r.sim_seconds for r in reads),
        "transfer_bytes": statistics.fmean(r.transfer_bytes for r in reads),
    }


def per_layer(records: List[Record], refresh_ms: float) -> Dict[str, float]:
    traced = [r for r in records if r.traced]
    totals: Dict[str, float] = {}
    for record in traced:
        for key, value in record.layers.items():
            totals[key] = totals.get(key, 0.0) + value
    count = max(len(traced), 1)
    metrics = {key: totals.get(key, 0.0) / count for key in PER_LAYER}
    metrics["qos.gate.acquire.wait_ms"] = totals.get("qos.gate.acquire.ms", 0.0) / count
    capacity = totals.get("engine.parallel.capacity_ms", 0.0)
    metrics["engine.parallel.utilization"] = (
        totals.get("engine.parallel.busy_ms", 0.0) / capacity if capacity else 0.0
    )
    wall = totals.get("wall_ms", 0.0)
    metrics["core.pipeline.unattributed_ms"] = (
        wall - totals.get("top_level_ms", 0.0)
    ) / count
    middleware = totals.get("middleware_ms", 0.0)
    metrics["middleware_share"] = middleware / wall if wall else 0.0
    metrics["core.catalog.refresh.ms"] = refresh_ms

    untraced_writes = [
        r.seconds * 1000.0
        for r in records
        if not r.traced and not r.op.is_read and not r.error
    ]
    metrics["write_p50_ms"] = (
        statistics.median(untraced_writes) if untraced_writes else 0.0
    )
    traced_reads = [
        r.seconds for r in records if r.traced and r.op.is_read and not r.error
    ]
    plain_reads = [
        r.seconds
        for r in records
        if not r.traced and r.op.is_read and not r.error
    ]
    if traced_reads and plain_reads:
        metrics["bench.trace_overhead_pct"] = 100.0 * (
            statistics.median(traced_reads) / statistics.median(plain_reads) - 1.0
        )
    else:
        metrics["bench.trace_overhead_pct"] = 0.0
    return metrics


def main_result(name: str, seed: int, seconds: float, trace: bool) -> dict:
    outcome = run(name, seed, seconds, trace)
    for problem in outcome.problems[:20]:
        print(problem, file=sys.stderr)
    return outcome.result
