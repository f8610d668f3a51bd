"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps calls into each layer's functions at runtime:
class attributes for methods, and *every* module binding of a module-level
function (a ``from … import`` creates a separate name, so patching only
the defining module would miss callers).  Nothing under ``src/`` changes;
:meth:`LayerTracer.uninstall` restores every original object, so untraced
operations run the shipped code.

A wrapped call's self time is its duration minus the durations of the
wrapped calls nested inside it on the same thread.  Worker threads of the
engine's pool keep their own call stacks, and their figures are added to
the same per-operation totals.
"""

from __future__ import annotations

import gc
import importlib
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.clock import thread_cpu_now, wall_now

Counts = Callable[..., Dict[str, float]]


@dataclass(frozen=True)
class Probe:
    """One wrapped function and how its calls are accounted."""

    #: defining module and qualified name (``Class.method`` or ``func``)
    module: str
    qualname: str
    #: metric prefix, ``<module>.<function>``
    name: str
    #: timed calls record ``.calls``, ``.ms`` and ``.self_ms`` and take
    #: part in self-time nesting; untimed ones record ``.calls`` only
    timed: bool = True
    #: one of the middleware stages summed into ``middleware_share``
    stage: bool = False
    #: an engine entry point (a parse beneath one is an engine re-parse)
    engine: bool = False
    #: ``counts(args, kwargs, result, before)`` → counter increments
    counts: Optional[Counts] = None
    #: ``before(args, kwargs)`` → value handed to ``counts``
    before: Optional[Callable] = None


def _rows_materialized(args, kwargs, result, before) -> Dict[str, float]:
    return {"engine.vector.rows_materialized": float(len(result)) if before else 0.0}


def _batch_rows(args, kwargs, result, before) -> Dict[str, float]:
    rows = args[0] if args else kwargs["rows"]
    limit = kwargs.get("limit", args[3] if len(args) > 3 else None)
    total = len(rows) if limit is None else min(limit, len(rows))
    return {"engine.vector.batches_from_rows.rows": float(total)}


def _transfer(args, kwargs, result, before) -> Dict[str, float]:
    payload = kwargs.get("payload_bytes", args[3] if len(args) > 3 else 0)
    return {"net.transfers": 1.0, "net.bytes": float(payload)}


def _consultation(args, kwargs, result, before) -> Dict[str, float]:
    return {"core.annotate.consultations": 1.0}


def _finalize_tasks(args, kwargs, result, before) -> Dict[str, float]:
    return {"core.finalize.tasks": float(len(result.tasks))}


def _ddl_statements(args, kwargs, result, before) -> Dict[str, float]:
    return {"core.delegate.ddl_statements": float(len(result.ddl_log))}


def _engine_rows(args, kwargs, result, before) -> Dict[str, float]:
    return {"engine.rows_returned": float(len(result.rows))}


def _fetch_rows(args, kwargs, result, before) -> Dict[str, float]:
    return {"engine.fdw.fetch.rows": float(len(result.rows))}


def _unrealized(args, kwargs) -> bool:
    return args[0]._rows is None


PROBES: Tuple[Probe, ...] = (
    # sql: every parse, middleware-side and engine-side re-parses
    Probe("repro.sql.parser", "parse_statement", "sql.parser.parse"),
    # core.catalog
    Probe("repro.core.catalog", "GlobalCatalog.refresh", "core.catalog.refresh"),
    Probe(
        "repro.core.catalog",
        "GlobalCatalog.verify_table",
        "core.catalog.verify",
        timed=False,
    ),
    # optimizer (LogicalOptimizer.optimize runs the relational passes)
    Probe(
        "repro.core.logical",
        "LogicalOptimizer.optimize",
        "relational.optimizer.optimize",
        stage=True,
    ),
    Probe("repro.core.partition", "expand_partitions", "core.partition.expand"),
    # core.annotate and its consultations
    Probe(
        "repro.core.annotate",
        "PlanAnnotator.annotate",
        "core.annotate.annotate",
        stage=True,
    ),
    Probe(
        "repro.connect.connector",
        "DBMSConnector.explain",
        "connect.explain",
        counts=_consultation,
    ),
    Probe(
        "repro.connect.connector",
        "DBMSConnector.estimate_join_cost",
        "connect.estimate_join_cost",
        counts=_consultation,
    ),
    # core.finalize
    Probe(
        "repro.core.finalize",
        "PlanFinalizer.finalize",
        "core.finalize.finalize",
        stage=True,
        counts=_finalize_tasks,
    ),
    # core.delegate
    Probe(
        "repro.core.delegate",
        "DelegationEngine.delegate",
        "core.delegate.delegate",
        stage=True,
        counts=_ddl_statements,
    ),
    Probe(
        "repro.core.delegate",
        "DeployedQuery.cleanup",
        "core.delegate.cleanup",
        stage=True,
    ),
    Probe(
        "repro.core.delegate",
        "DeployedQuery.refresh_materializations",
        "core.delegate.refresh",
    ),
    # connect
    Probe("repro.connect.connector", "DBMSConnector.run_query", "connect.run_query"),
    Probe(
        "repro.connect.connector", "DBMSConnector.execute_ddl", "connect.execute_ddl"
    ),
    # engine
    Probe(
        "repro.engine.database",
        "Database.execute",
        "engine.database.execute",
        engine=True,
    ),
    Probe(
        "repro.engine.database",
        "Database.execute_select",
        "engine.database.execute",
        engine=True,
        counts=_engine_rows,
    ),
    Probe("repro.engine.database", "Database._insert", "engine.database.insert"),
    Probe(
        "repro.engine.fdw",
        "RemoteServer.fetch",
        "engine.fdw.fetch",
        counts=_fetch_rows,
    ),
    Probe(
        "repro.engine.vector",
        "batches_from_rows",
        "engine.vector.batches_from_rows",
        timed=False,
        counts=_batch_rows,
    ),
    Probe(
        "repro.engine.vector",
        "ColumnBatch.rows",
        "engine.vector.rows",
        timed=False,
        counts=_rows_materialized,
        before=_unrealized,
    ),
    # engine.parallel is wrapped specially (busy time per branch)
    Probe("repro.engine.parallel", "WorkerPool.map", "engine.parallel.map"),
    # core.timing, feedback, net, qos, drift
    Probe("repro.core.timing", "simulate_schedule", "core.timing.simulate"),
    Probe("repro.feedback.harvest", "harvest_execution", "feedback.harvest"),
    Probe(
        "repro.net.network",
        "Network.record_transfer",
        "net.record_transfer",
        timed=False,
        counts=_transfer,
    ),
    Probe("repro.qos.gate", "WorkloadGate.acquire", "qos.gate.acquire"),
    Probe("repro.drift.reaper", "OrphanReaper.sweep_pending", "drift.reaper.sweep_pending"),
)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        #: child-time accumulators of the open timed calls
        self.stack: List[List[float]] = []
        self.stage_depth = 0
        self.engine_depth = 0


class LayerTracer:
    """Installs the probes and accumulates per-operation totals."""

    def __init__(self):
        self.totals: Dict[str, float] = defaultdict(float)
        # re-entrant: a collection can start inside ``_add`` and its
        # callback adds the GC time on the same thread
        self._lock = threading.RLock()
        self._state = _ThreadState()
        self._main = threading.get_ident()
        #: (owner, attribute, original, wrapper), found on first install
        self._targets: List[Tuple[object, str, object, object]] = []
        self._gc_start: Optional[float] = None
        self.installed = False

    # -- accounting ------------------------------------------------------------

    def _add(self, values: Dict[str, float]) -> None:
        with self._lock:
            totals = self.totals
            for key, value in values.items():
                totals[key] += value

    def reset(self) -> Dict[str, float]:
        """Return the totals since the last reset and start afresh."""
        with self._lock:
            totals, self.totals = self.totals, defaultdict(float)
        return dict(totals)

    def _gc_callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_start = wall_now()
            return
        if self._gc_start is None:
            return
        elapsed = wall_now() - self._gc_start
        self._gc_start = None
        values = {"runtime.gc.ms": elapsed * 1000.0}
        if info.get("generation") == 2:
            values["runtime.gc.gen2_collections"] = 1.0
        self._add(values)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        state = self._state
        add = self._add
        main = self._main
        name = probe.name
        counts = probe.counts
        before = probe.before

        calls_key = f"{name}.calls"

        if not probe.timed:

            def counted(*args, **kwargs):
                token = before(args, kwargs) if before is not None else None
                result = fn(*args, **kwargs)
                values = (
                    counts(args, kwargs, result, token) if counts else {}
                )
                values[calls_key] = 1.0
                add(values)
                return result

            return counted

        ms_key, self_key = f"{name}.ms", f"{name}.self_ms"
        stage = probe.stage
        engine = probe.engine
        is_parse = name == "sql.parser.parse"

        def timed(*args, **kwargs):
            stack = state.stack
            children = [0.0]
            top = not stack
            outer_stage = stage and state.stage_depth == 0
            middleware_parse = is_parse and state.engine_depth == 0
            if stage:
                state.stage_depth += 1
            if engine:
                state.engine_depth += 1
            stack.append(children)
            start = wall_now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = wall_now() - start
                stack.pop()
                if stage:
                    state.stage_depth -= 1
                if engine:
                    state.engine_depth -= 1
                if stack:
                    stack[-1][0] += elapsed
                ms = elapsed * 1000.0
                values = {
                    calls_key: 1.0,
                    ms_key: ms,
                    self_key: ms - children[0] * 1000.0,
                }
                if top and threading.get_ident() == main:
                    values["top_level_ms"] = ms
                if outer_stage:
                    values["middleware_ms"] = ms
                if middleware_parse:
                    values["sql.parser.parse.middleware_calls"] = 1.0
                add(values)
            if counts is not None:
                add(counts(args, kwargs, result, None))
            return result

        return timed

    def _wrap_map(self, fn: Callable, probe: Probe) -> Callable:
        """``WorkerPool.map``: time the call and each branch's busy CPU."""
        timed = self._wrap(fn, probe)
        add = self._add

        def busy(thunk):
            def run():
                start = thread_cpu_now()
                try:
                    return thunk()
                finally:
                    add({"engine.parallel.busy_ms": (thread_cpu_now() - start) * 1000.0})

            return run

        def mapped(pool, thunks, *args, **kwargs):
            thunks = [busy(thunk) for thunk in thunks]
            start = wall_now()
            try:
                return timed(pool, thunks, *args, **kwargs)
            finally:
                add(
                    {
                        "engine.parallel.branches": float(len(thunks)),
                        "engine.parallel.capacity_ms": (wall_now() - start)
                        * 1000.0
                        * pool.workers,
                    }
                )

        return mapped

    def _find_targets(self) -> None:
        for probe in PROBES:
            module = importlib.import_module(probe.module)
            if "." in probe.qualname:
                cls_name, attr = probe.qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                if probe.name == "engine.parallel.map":
                    wrapper = self._wrap_map(original, probe)
                else:
                    wrapper = self._wrap(original, probe)
                self._targets.append((owner, attr, original, wrapper))
                continue
            original = getattr(module, probe.qualname)
            wrapper = self._wrap(original, probe)
            for bound in list(sys.modules.values()):
                if not getattr(bound, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(bound).items()):
                    if value is original:
                        self._targets.append((bound, attr, original, wrapper))

    def install(self) -> None:
        if self.installed:
            return
        if not self._targets:
            self._find_targets()
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        gc.callbacks.append(self._gc_callback)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)
        gc.callbacks.remove(self._gc_callback)
        self._gc_start = None
        self.installed = False
