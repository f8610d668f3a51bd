"""The re-enterable planning pipeline (parse → … → execute).

One submission used to be a ~350-line monolith in ``XDB.submit``, with
the annotate/finalize repair loop copy-pasted into drift recovery and
the prepared-query replan.  This module folds all of it into a single
:class:`PlanPipeline` over an explicit, typed :class:`PlanState`:

    parse → catalog → optimize → annotate → finalize → delegate → execute

Every stage writes its output onto the state and advances
``state.stage``; re-running the pipeline skips completed stages.  Every
recovery flavour is *stage re-entry within a budget*.  Failures go
through one classifier that maps them to a :class:`RecoveryAction` row
(re-entry stage, budget, cleanup policy), and one loop interprets it:

* **outage repair** re-enters at ``annotate`` (the annotator sees the
  open breaker and routes replicated tables to a surviving holder);
* **branch repair** re-enters at ``annotate`` with the completed
  sibling snapshots pinned, drawing on the separate branch budget;
* **schema drift** re-enters at ``optimize`` (the catalog re-adopted
  the live schema, so the plan must be rebuilt from the source query);
* **blown estimates** (the Q-Error loop) re-enter at ``annotate`` with
  the already-materialized producer tasks pinned as scans of their
  ``xm_`` snapshots, so only the *unexecuted suffix* of the plan is
  re-annotated and re-delegated.

A prepared query is a *kept* state: its deployed cascade outlives one
execution, so each re-execution enters at ``execute`` — refresh the
materializations (or serve a staleness-bounded stale read) and re-run
the root query.  Only the drift rows apply to it; its replans swap the
new cascade in before the old one is torn down.

The pipeline also closes the cardinality-feedback loop: after every
execution it harvests (estimate, actual) pairs from the delegation
plan's edge statistics and the operator spans, and — when the client
carries a :class:`~repro.feedback.store.FeedbackStore` — persists them
so the next optimization of an equivalent subexpression runs on
observed row counts.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.annotate import Annotation, PlanAnnotator
from repro.core.catalog import GlobalCatalog
from repro.core.delegate import DelegationEngine, DeployedQuery
from repro.core.finalize import PlanFinalizer
from repro.core.logical import LogicalOptimizer
from repro.core.partition import (
    is_partition_table,
    partition_completeness,
    prune_missing_shards,
)
from repro.core.plan import DelegationPlan, Movement
from repro.core.timing import (
    ScheduleResult,
    attribute_edge_stats,
    simulate_schedule,
)
from repro.engine.cost import CardinalityEstimator
from repro.engine.result import Result
from repro.errors import (
    BindError,
    CatalogError,
    CircuitOpenError,
    DeadlineExceeded,
    DelegationError,
    EngineUnavailableError,
    OptimizerError,
    OverloadError,
    ReproError,
    SchemaDriftError,
    TypeCheckError,
)
from repro.federation.deployment import Deployment
from repro.feedback import qerror
from repro.feedback.harvest import harvest_execution
from repro.feedback.store import FeedbackOverlay, FeedbackStore, Observation
from repro.health import BreakerEvent
from repro.net.metrics import TransferSummary
from repro.obs.clock import wall_now
from repro.obs.context import QueryContext
from repro.qos import PRIORITY_NORMAL, QoSPolicy
from repro.qos.gate import AdmissionLease
from repro.relational import algebra
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.render import render

#: The pipeline's stages, in order.  ``PlanState.stage`` names the next
#: stage to run; re-entry means resetting it to an earlier stage and
#: running the pipeline again.
STAGES = (
    "parse",
    "catalog",
    "optimize",
    "annotate",
    "finalize",
    "delegate",
    "execute",
)


def _stage_index(stage: str) -> int:
    try:
        return STAGES.index(stage)
    except ValueError:
        raise OptimizerError(
            f"unknown pipeline stage {stage!r} (expected one of {STAGES})"
        )


@dataclass(frozen=True)
class RecoveryAction:
    """One row of the failure → recovery table the execute loop reads."""

    #: the failure this row recovers from
    failure: str
    #: the stage the state re-enters at
    stage: str
    #: the :class:`PlanState` counter the re-entry draws on (None: free)
    budget: Optional[str]
    #: what happens to the failed attempt's cascade: ``"discard"`` drops
    #: it best-effort, ``"pin"`` keeps its salvaged snapshots (pinned
    #: into the plan) and drops the rest, ``"keep"`` leaves it deployed
    cleanup: str


#: rows for a one-shot submission, which owns nothing past its run
DRIFT = RecoveryAction("drift", "optimize", "budget", "discard")
BRANCH = RecoveryAction("branch", "annotate", "branch_budget", "pin")
OUTAGE = RecoveryAction("outage", "annotate", "budget", "discard")
#: rows for a kept cascade: it stays deployed until a replan's fresh
#: cascade is swapped in, so a failed replan still has it to serve from
KEPT_DRIFT = RecoveryAction("drift", "optimize", "budget", "keep")
#: the stale read of a drifted kept cascade failed (the drifted table
#: feeds a view): replan instead — not a repair, so it draws no budget
STALE_MISS = RecoveryAction("stale-read", "optimize", None, "keep")

#: failures whose presence in a cause chain smells like schema drift
_SCHEMA_ERRORS = (BindError, TypeCheckError, CatalogError)


@dataclass
class RecoveryReport:
    """What the self-healing layer did for one submission.

    Present on every report; :attr:`repaired` distinguishes the common
    untouched case from submissions the plan-repair loop had to
    re-annotate around an engine outage.
    """

    #: how many times the repair loop re-planned (0 = no repair needed)
    repair_attempts: int = 0
    #: DBMSes reported to the health registry as down, in repair order
    repaired_dbs: List[str] = field(default_factory=list)
    #: simulated + CPU seconds spent from first failure to repaired run
    repair_seconds: float = 0.0
    #: circuit-breaker transitions recorded during this submission
    breaker_transitions: List[BreakerEvent] = field(default_factory=list)
    #: where each base table's scan ran in the first finalized plan
    #: (table → DBMS) — keyed by table, not task, because a repaired
    #: plan may group operators into different tasks entirely
    placement_before: Dict[str, str] = field(default_factory=dict)
    #: scan placement of the plan that actually produced the result
    placement: Dict[str, str] = field(default_factory=dict)
    #: schema drifts absorbed (re-introspect + replan) this submission
    drift_events: int = 0
    #: (db, table) pairs whose drift was absorbed, in detection order
    drifted_tables: List[Tuple[str, str]] = field(default_factory=list)
    #: (db, table) pairs quarantined as unreconcilable this submission
    quarantined: List[Tuple[str, str]] = field(default_factory=list)
    #: mid-query adaptations: suffix replans off a blown estimate
    adaptations: int = 0
    #: (task_id, q_error) pairs that tripped the adaptivity threshold
    blown_estimates: List[Tuple[int, float]] = field(default_factory=list)
    #: producer tasks whose materializations were pinned during
    #: adaptation (their snapshots were reused, not recomputed)
    pinned_tasks: List[int] = field(default_factory=list)
    #: branch-scoped recoveries: a failed delegated task / union branch
    #: was re-routed (or its shard quarantined) *in place*, with the
    #: completed sibling snapshots pinned — no whole-query re-entry, so
    #: these do NOT count toward :attr:`repair_attempts`
    branch_repairs: int = 0
    #: one ``(action, db, table)`` per branch repair, in order — action
    #: is ``"failover"`` (shard re-routed to a surviving holder),
    #: ``"reroute"`` (engine-level branch failure re-placed around the
    #: outage), or ``"partial"`` (shard dropped under ``allow_partial``)
    branch_events: List[Tuple[str, str, str]] = field(default_factory=list)
    #: True when the answer omits shards that lost every healthy holder
    partial: bool = False
    #: row-weighted fraction of the partitioned data the answer covers
    completeness: float = 1.0
    #: shard tables missing from a partial answer
    missing_partitions: List[str] = field(default_factory=list)

    @property
    def repaired(self) -> bool:
        return self.repair_attempts > 0

    @property
    def branch_repaired(self) -> bool:
        return self.branch_repairs > 0

    @property
    def drifted(self) -> bool:
        return self.drift_events > 0

    @property
    def adapted(self) -> bool:
        return self.adaptations > 0

    def placement_diff(self) -> Dict[str, Tuple[str, str]]:
        """Tables whose scan moved: table → (old DBMS, new DBMS)."""
        diff: Dict[str, Tuple[str, str]] = {}
        for table, db in self.placement.items():
            before = self.placement_before.get(table)
            if before is not None and before != db:
                diff[table] = (before, db)
        return diff

    def describe(self) -> str:
        if (
            not self.repaired
            and not self.drifted
            and not self.adapted
            and not self.branch_repaired
            and not self.partial
        ):
            return "no repair needed"
        parts = []
        if self.branch_repaired:
            events = ", ".join(
                f"{action} {db + '.' if db else ''}{table or '?'}"
                for action, db, table in self.branch_events
            )
            parts.append(
                f"{self.branch_repairs} branch repair(s) ({events})"
            )
        if self.partial:
            parts.append(
                f"partial answer: {self.completeness:.1%} complete, "
                f"missing {', '.join(self.missing_partitions)}"
            )
        if self.repaired:
            moved = ", ".join(
                f"{table}: {old}→{new}"
                for table, (old, new) in sorted(
                    self.placement_diff().items()
                )
            )
            parts.append(
                f"{self.repair_attempts} repair(s) around "
                f"{sorted(set(self.repaired_dbs))} in "
                f"{self.repair_seconds:.3f}s"
                + (f"; moved {moved}" if moved else "")
            )
        if self.drifted:
            drifted = ", ".join(
                f"{db}.{table}" for db, table in self.drifted_tables
            )
            line = f"{self.drift_events} drift(s) absorbed on {drifted}"
            if not self.repaired:
                line += f" in {self.repair_seconds:.3f}s"
            if self.quarantined:
                line += "; quarantined " + ", ".join(
                    f"{db}.{table}" for db, table in self.quarantined
                )
            parts.append(line)
        if self.adapted:
            if self.blown_estimates or self.pinned_tasks:
                worst = max(
                    (q for _, q in self.blown_estimates), default=0.0
                )
                worst_text = (
                    "inf" if worst == qerror.INFINITE else f"{worst:.1f}"
                )
                parts.append(
                    f"{self.adaptations} mid-query adaptation(s) "
                    f"(worst Q-Error {worst_text}; pinned tasks "
                    f"{sorted(self.pinned_tasks)})"
                )
            else:
                # A prepared handle replanned between executions off
                # the warmed feedback store — no mid-query pinning.
                parts.append(
                    f"{self.adaptations} feedback replan(s) "
                    f"(learned cardinalities)"
                )
        return "; ".join(parts)


@dataclass
class PlanState:
    """Everything one submission carries between pipeline stages."""

    query: Union[str, ast.Statement]
    #: human-readable label (the SQL text) for the query context
    label: str = ""
    #: the next stage to run — re-entry resets this to an earlier one
    stage: str = "parse"
    #: remaining repair budget (outage / drift / adaptation re-entries)
    budget: int = 0
    #: remaining *branch*-scoped recovery budget — spent on in-place
    #: branch failover / shard quarantine / partial degradation, kept
    #: separate so branch repairs never eat the whole-query budget
    branch_budget: int = 0
    select: Optional[ast.Statement] = None
    logical_plan: Optional[algebra.LogicalPlan] = None
    annotation: Optional[Annotation] = None
    dplan: Optional[DelegationPlan] = None
    deployed: Optional[DeployedQuery] = None
    result: Optional[Result] = None
    schedule: Optional[ScheduleResult] = None
    recovery: RecoveryReport = field(default_factory=RecoveryReport)
    #: one adaptation round per submission (guards the Q-Error loop)
    adapted: bool = False
    #: (db, kind, name) materializations kept across an adaptation,
    #: awaiting re-fencing under the adapted deployment's epoch
    pending_keeps: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Q-Error observations harvested from the execution
    observations: List[Observation] = field(default_factory=list)
    exec_seconds: float = 0.0
    transfers: Optional[TransferSummary] = None
    #: the admission lease held while the state executes
    lease: Optional[AdmissionLease] = None
    admitted_engines: List[str] = field(default_factory=list)
    #: why this execution read stale snapshots ("" = a fresh read):
    #: "drift", "overload", or "breaker-open"
    stale_reason: str = ""
    #: True for a prepared query: the deployed cascade outlives one
    #: execution, and each re-execution enters at ``execute``
    kept: bool = False
    #: successful executions of this state
    executions: int = 0
    #: executions counted when the current cascade was delegated — the
    #: first run after delegation reads the CTAS snapshots as built
    deploy_execution: int = 0
    #: simulated time the materialization snapshots were last built
    refreshed_at: float = 0.0
    #: the catalog learned that a table the cascade scans drifted
    stale_plan: bool = False
    #: an execution's Q-Error blew the threshold: the next execution of
    #: a kept cascade replans under the learned cardinalities
    estimates_blown: bool = False


class PlanPipeline:
    """Drives a :class:`PlanState` through the planning stages.

    Owns the one and only execution path: ``XDB.submit`` runs every
    stage, a prepared query enters at ``execute``, and drift recovery,
    outage and branch repair, mid-query adaptation, and prepared-query
    replans all re-enter the pipeline at a stage instead of
    duplicating it.
    """

    def __init__(
        self,
        deployment: Deployment,
        catalog: GlobalCatalog,
        optimizer: LogicalOptimizer,
        annotator: PlanAnnotator,
        finalizer: PlanFinalizer,
        delegator: DelegationEngine,
        repair_budget: int = 2,
        branch_repair_budget: int = 2,
        feedback: Optional[FeedbackStore] = None,
        adaptivity_threshold: Optional[float] = None,
        on_drift: Optional[Callable[[str, str], None]] = None,
    ):
        self.deployment = deployment
        self.connectors = deployment.connectors
        self.catalog = catalog
        self.optimizer = optimizer
        self.annotator = annotator
        self.finalizer = finalizer
        self.delegator = delegator
        self.repair_budget = repair_budget
        #: budget for branch-scoped recoveries (failover / partial),
        #: spent independently of the whole-query ``repair_budget``
        self.branch_repair_budget = branch_repair_budget
        #: the persistent Q-Error feedback store (None = loop disabled)
        self.feedback = feedback
        #: Q-Error above which a materialized task boundary triggers a
        #: mid-query suffix replan (None = adaptivity disabled)
        self.adaptivity_threshold = adaptivity_threshold
        #: callback(db, table) on drift re-introspection — the client
        #: invalidates prepared handles scanning the table
        self.on_drift = on_drift
        self.metadata_fresh = False

    # -- state construction ------------------------------------------------

    def new_state(
        self, query: Union[str, ast.Statement], budget: Optional[int] = None
    ) -> PlanState:
        return PlanState(
            query=query,
            label=self.label_of(query),
            budget=self.repair_budget if budget is None else budget,
            branch_budget=self.branch_repair_budget,
        )

    @staticmethod
    def label_of(query: Union[str, ast.Statement]) -> str:
        """The query's SQL text, for trace labels and jitter seeding.

        AST submissions used to label their spans ``"<ast>"``; now they
        render back to SQL so traces stay readable (the literal
        ``"<ast>"`` survives only as the fallback for unrenderable
        statements).
        """
        if isinstance(query, str):
            return query
        try:
            return render(query)
        except ReproError:
            return "<ast>"

    @staticmethod
    def parse(query: Union[str, ast.Statement]) -> ast.Statement:
        if isinstance(query, ast.QUERY_STATEMENTS):
            return query
        statement = parse_statement(query)
        if not isinstance(statement, ast.QUERY_STATEMENTS):
            raise OptimizerError(
                "XDB accepts analytical SELECT / UNION ALL queries only"
            )
        return statement

    # -- stage plumbing ----------------------------------------------------

    @staticmethod
    def _step(tracer, name: str, kind: str = "step"):
        """A span when tracing, a no-op otherwise — so the traced and
        offline paths share one stage body."""
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span(name, kind=kind)

    def _optimize(self, state: PlanState, tracer=None) -> None:
        with self._step(tracer, "optimize"):
            state.logical_plan = self.optimizer.optimize(state.select)
        state.stage = "annotate"

    def _annotate_finalize(self, state: PlanState, tracer=None) -> None:
        """THE annotate+finalize body — every caller re-enters here."""
        with self._step(tracer, "annotate"):
            state.annotation = self.annotator.annotate(state.logical_plan)
        with self._step(tracer, "finalize"):
            state.dplan = self.finalizer.finalize(
                state.logical_plan, state.annotation
            )
        state.stage = "delegate"

    # -- planning ----------------------------------------------------------

    def plan(self, state: PlanState, ctx: Optional[QueryContext] = None):
        """Run the planning stages, traced under ``ctx`` when given.

        Returns the (prep, lopt, ann) phase spans for the report's
        phase breakdown (all None without a context).  Stages the state
        already passed are skipped, so a re-entered state resumes where
        it was reset to.  Offline planning (``explain`` / ``plan_query``
        / ``prepare``) runs on a zero budget, so it propagates the first
        failure.
        """
        tracer = ctx.tracer if ctx is not None else None

        with self._step(tracer, "prep", kind="phase") as prep_span:
            if ctx is not None:
                ctx.enter_phase("prep")
            if _stage_index(state.stage) <= _stage_index("parse"):
                with self._step(tracer, "parse"):
                    state.select = self.parse(state.query)
                state.stage = "catalog"
            if _stage_index(state.stage) <= _stage_index("catalog"):
                if not self.metadata_fresh:
                    with self._step(tracer, "catalog-refresh"):
                        self.catalog.refresh()
                    self.metadata_fresh = True
                state.stage = "optimize"

        with self._step(tracer, "lopt", kind="phase") as lopt_span:
            if ctx is not None:
                ctx.enter_phase("lopt")
            if _stage_index(state.stage) <= _stage_index("optimize"):
                self._optimize(state, tracer)

        with self._step(tracer, "ann", kind="phase") as ann_span:
            if ctx is not None:
                ctx.enter_phase("ann")
            # An engine found down while consulting re-enters through
            # the outage row of the same recovery table execution uses.
            while _stage_index(state.stage) <= _stage_index("finalize"):
                try:
                    self._annotate_finalize(state, tracer)
                except EngineUnavailableError as exc:
                    if not self._recover(state, exc, None, tracer, "ann"):
                        raise
            state.recovery.placement_before = self.placement(state.dplan)

        return prep_span, lopt_span, ann_span

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        state: PlanState,
        ctx: QueryContext,
        cleanup: bool = True,
        qos: Optional[QoSPolicy] = None,
    ) -> PlanState:
        """Delegate and execute the planned state (the exec phase).

        A one-shot state runs the delegate and execute stages; a kept
        state (a prepared query) enters at ``execute`` and re-runs its
        deployed cascade.  A failed attempt is mapped by
        :meth:`classify` to a :class:`RecoveryAction` row, and the loop
        re-enters the row's stage within the row's budget: an outage
        re-annotates, drift re-optimizes, a branch fault re-annotates
        with the completed siblings pinned, and a blown estimate pins
        the materialized producers and re-annotates the suffix.
        """
        if state.kept:
            self._enter_kept(state, qos)
        tracer = ctx.tracer
        recovery = state.recovery

        try:
            with tracer.span("exec", kind="phase") as exec_span:
                repair_start: Optional[Tuple[float, float]] = None
                while True:
                    state.stale_reason = ""
                    try:
                        if state.stage == "optimize":
                            self._optimize(state, tracer)
                        if state.stage == "annotate":
                            # Re-enter at the annotate stage: the
                            # annotator now sees the open breaker (or
                            # the pinned plan), so replicated tables
                            # land on a healthy holder and Rule 4 drops
                            # the dead candidate.
                            self._annotate_finalize(state, tracer)
                        if state.stage == "delegate":
                            self._delegate_stage(state, ctx, qos, exec_span)
                            if state.stage != "execute":
                                # Blown estimate: the suffix re-enters
                                # at annotate with the producers pinned.
                                continue
                        self._execute_stage(state, ctx, qos)
                        break
                    except ReproError as exc:
                        if repair_start is None:
                            repair_start = (wall_now(), tracer.sim_now)
                        if not self._recover(state, exc, qos, tracer):
                            raise
                if repair_start is not None:
                    repair_wall, repair_sim = repair_start
                    recovery.repair_seconds = (
                        wall_now() - repair_wall
                    ) + (tracer.sim_now - repair_sim)
                deployed = state.deployed
                result = state.result
                recovery.placement = self.placement(state.dplan)
                attribute_edge_stats(
                    deployed, exec_span.subtree_records()
                )
                with tracer.span("schedule", kind="step"):
                    state.schedule = simulate_schedule(
                        deployed,
                        self.connectors,
                        self.deployment.network,
                        self.deployment.client_node,
                        result_bytes=result.byte_size(),
                        worker_slots=_slots(self.deployment),
                    )
                # Harvest the Q-Error observations while the span tree
                # still has the operator spans at hand.  Observations
                # ride on every report (explain_analyze's Q-Error
                # column); they persist only when a store is wired.
                state.observations = harvest_execution(
                    state.dplan,
                    exec_span,
                    self.catalog,
                    len(result.rows),
                )
                if self.feedback is not None and state.observations:
                    with tracer.span("harvest", kind="step"):
                        self.feedback.observe_many(state.observations)
                    # A kept cascade replans before its next execution
                    # once an estimate blew the threshold.
                    threshold = (
                        self.adaptivity_threshold
                        if self.adaptivity_threshold is not None
                        else 2.0
                    )
                    worst = max(obs.q_error for obs in state.observations)
                    state.estimates_blown |= worst > threshold

            # Middleware CPU during exec is not on the critical path
            # (the DBMSes run decentrally); control messages are, and
            # so are simulated retry backoff spent on the DDL cascade
            # and any repair-time re-consultations — all read off the
            # exec span's subtree.
            state.exec_seconds = (
                state.schedule.total_seconds
                + ctx.control_seconds(exec_span)
                + ctx.backoff_in(exec_span)
            )
            state.transfers = ctx.transfer_summary(exec_span)
            recovery.breaker_transitions = list(ctx.breaker_events)

            # Cleanup runs outside the exec span (its drops are not
            # part of the execution window's transfer summary) but
            # still under the admission lease, and — with a deadline —
            # under the grace budget, so a query that *met* its
            # deadline cannot fail while tearing itself down.  A kept
            # cascade stays deployed until its handle closes.
            ctx.current_phase = "cleanup"
            if cleanup and not state.kept:
                if ctx.deadline is not None:
                    with ctx.deadline.grace():
                        deployed.cleanup()
                else:
                    deployed.cleanup()
        except DeadlineExceeded as exc:
            if not state.kept:
                self.cancel_deployment(ctx, state.deployed, exc)
            raise
        finally:
            if state.lease is not None:
                state.admitted_engines = list(state.lease.engines)
                state.lease.release()
                state.lease = None
        return state

    def _enter_kept(
        self, state: PlanState, qos: Optional[QoSPolicy]
    ) -> None:
        """Re-arm a kept state for its next execution at ``execute``.

        A cascade that predates a known drift is served as a stale read
        when the caller's staleness bound admits its snapshots, and
        replanned otherwise; a cascade whose estimates blew up replans
        against the warmed feedback store.
        """
        state.stage = "execute"
        state.budget = self.repair_budget
        state.dplan = state.deployed.plan
        state.recovery = RecoveryReport()
        if state.stale_plan:
            if not (
                self._degradable(state, qos)
                and state.deployed.materializations
            ):
                state.stage = "optimize"
        elif state.estimates_blown:
            state.stage = "optimize"
            state.recovery.adaptations += 1

    def _admit(
        self,
        state: PlanState,
        ctx: QueryContext,
        engines: List[str],
        qos: Optional[QoSPolicy],
    ) -> None:
        priority = qos.priority if qos is not None else PRIORITY_NORMAL
        with ctx.tracer.span("admit", kind="step"):
            state.lease = self.deployment.workload_gate.acquire(
                engines, priority=priority, deadline=ctx.deadline
            )
            ctx.record_admission(state.lease)

    def _delegate_stage(
        self,
        state: PlanState,
        ctx: QueryContext,
        qos: Optional[QoSPolicy],
        exec_span,
    ) -> None:
        """Verify, admit, and deploy the finalized plan."""
        tracer = ctx.tracer
        dplan = state.dplan
        # Lazy drift verification: once per table per catalog epoch.  A
        # refresh pre-marks everything it read, so the common case is
        # an empty list — no span, no engine calls.
        pending = self.catalog.unverified(self.placement(dplan))
        if pending:
            with tracer.span("verify", kind="step"):
                for vdb, vtable in pending:
                    self.catalog.verify_table(vdb, vtable)
        engines = _engines(dplan)
        if state.lease is not None and set(state.lease.engines) != set(
            engines
        ):
            # The repaired plan routes around the outage onto a
            # different engine set: swap the admission tokens to match.
            state.lease.release()
            state.lease = None
        if state.lease is None:
            ctx.enter_phase("admission")
            self._admit(state, ctx, engines, qos)
        # Straggler hedging is pure overhead on a saturated federation:
        # the capacity probe here decides whether the execution layer
        # may launch speculative duplicates at all.
        ctx.hedge_multiplier = (
            qos.hedge_multiplier if qos is not None else None
        )
        ctx.hedging_allowed = self.deployment.workload_gate.allow_hedge(
            engines
        )
        ctx.enter_phase("delegate")
        with tracer.span("delegate", kind="step"):
            # With branch budget left, a mid-cascade failure salvages
            # the completed sibling snapshots instead of rolling them
            # back — branch recovery pins them in place.
            deployed = self.delegator.delegate(
                dplan, salvage=state.branch_budget > 0
            )
        self.swap_in(state, deployed, tracer)
        if state.pending_keeps:
            self._refence_keeps(state, deployed)
        state.stage = "execute"
        if self.adaptivity_threshold is not None and not state.adapted:
            self._maybe_adapt(state, deployed, exec_span, tracer)

    def swap_in(
        self, state: PlanState, deployed: DeployedQuery, tracer=None
    ) -> None:
        """Install a freshly delegated cascade, then drop the one it
        replaces — so a failed re-delegation leaves a kept cascade
        intact, still able to serve staleness-bounded reads."""
        old = state.deployed
        state.deployed = deployed
        state.stale_plan = False
        state.estimates_blown = False
        state.deploy_execution = state.executions
        state.refreshed_at = self.deployment.health.clock.now()
        self._discard(old, tracer)

    def _execute_stage(
        self,
        state: PlanState,
        ctx: QueryContext,
        qos: Optional[QoSPolicy],
    ) -> None:
        """Run the deployed cascade's root query.

        A kept cascade is admitted here and refreshes its
        materializations first (the run right after delegation reads
        the CTAS snapshots as built).  With a staleness bound the run
        may instead serve the existing snapshots, admitting the root
        engine only: because the cascade predates a drift, because the
        gate sheds the full engine set, or because a snapshot host's
        breaker is open.
        """
        tracer = ctx.tracer
        deployed = state.deployed
        if state.stale_plan:
            # _enter_kept found the snapshots inside the bound.
            state.stale_reason = "drift"
        if state.lease is None:
            ctx.enter_phase("admission")
            root_only = [deployed.root_db]
            engines = root_only if state.stale_reason else _engines(deployed.plan)
            try:
                self._admit(state, ctx, engines, qos)
            except OverloadError:
                if state.stale_reason or not self._degradable(state, qos):
                    raise
                state.stale_reason = "overload"
                self._admit(state, ctx, root_only, qos)
        refresh = (
            not state.stale_reason
            and state.executions > state.deploy_execution
        )
        health = self.deployment.health
        if (
            refresh
            and any(health.is_open(db) for db, _, _ in deployed.materializations)
            and self._degradable(state, qos)
        ):
            state.stale_reason = "breaker-open"
            refresh = False
        if refresh:
            ctx.enter_phase("refresh")
            try:
                with tracer.span("refresh", kind="step"):
                    deployed.refresh_materializations()
                state.refreshed_at = health.clock.now()
            except CircuitOpenError:
                if not self._degradable(state, qos):
                    raise
                state.stale_reason = "breaker-open"
        if state.stale_reason:
            tracer.add_event(
                "stale-read", staleness_seconds=self.staleness(state)
            )
        ctx.enter_phase("execute")
        with tracer.span("execute", kind="step"):
            state.result = self.connectors[deployed.root_db].run_query(
                deployed.xdb_query, self.deployment.client_node
            )
        if ctx.deadline is not None:
            # A result that lands after the deadline is a miss, not a
            # success: cancel it.
            ctx.deadline.check("execute", detail="post-execution")
        state.executions += 1

    def staleness(self, state: PlanState) -> float:
        """Age of the materialization snapshots (simulated seconds)."""
        now = self.deployment.health.clock.now()
        return max(now - state.refreshed_at, 0.0)

    def _degradable(
        self, state: PlanState, qos: Optional[QoSPolicy]
    ) -> bool:
        """Whether a stale answer is an acceptable fallback right now:
        the caller opted into a staleness bound and the existing
        snapshots are still within it."""
        return (
            qos is not None
            and qos.max_staleness_seconds is not None
            and self.staleness(state) <= qos.max_staleness_seconds
        )

    # -- the recovery table ------------------------------------------------

    def classify(
        self,
        state: PlanState,
        exc: ReproError,
        qos: Optional[QoSPolicy],
        tracer,
    ) -> Optional[Tuple[RecoveryAction, object]]:
        """Map a failed attempt to its recovery row, or None to raise.

        Returns ``(row, cause)``: the detected drift for a drift row,
        the ``(action, db, table)`` branch event for a branch row, the
        blamed DBMS for an outage row.  The only place drift is
        sniffed: a schema-shaped failure force-verifies the placed
        tables, and a drift found with the budget spent surfaces as
        the typed :class:`SchemaDriftError`, chained to the failure.
        """
        if (
            state.kept
            and state.stale_reason == "drift"
            and not isinstance(exc, (DeadlineExceeded, OverloadError))
        ):
            return STALE_MISS, None
        drift = self.sniff_drift(exc, state.dplan)
        if drift is not None:
            if state.budget <= 0:
                if drift is exc:
                    raise drift
                raise drift from exc
            return (KEPT_DRIFT if state.kept else DRIFT), drift
        if state.kept or not isinstance(
            exc, (EngineUnavailableError, DelegationError)
        ):
            return None
        # Branch-scoped recovery first: a shard-level fault (or an
        # engine fault that left completed sibling snapshots to pin) is
        # repaired *in place*; the whole-query repair is the fallback.
        branch = self._branch_failure(state, exc, qos, tracer)
        if branch is not None:
            return BRANCH, branch
        db = self.unavailable_db(exc)
        if db is None or state.budget <= 0:
            self._abandon_salvage(state, exc, tracer)
            return None
        return OUTAGE, db

    def _recover(
        self,
        state: PlanState,
        exc: ReproError,
        qos: Optional[QoSPolicy],
        tracer,
        phase: str = "exec",
    ) -> bool:
        """Apply the recovery row :meth:`classify` picks for ``exc``:
        draw its budget, clean up, and reset the stage.  False when no
        row applies — the caller re-raises."""
        row = self.classify(state, exc, qos, tracer)
        if row is None:
            return False
        action, cause = row
        if action.budget is not None:
            setattr(state, action.budget, getattr(state, action.budget) - 1)
        recovery = state.recovery
        if action is OUTAGE:
            recovery.repair_attempts += 1
            recovery.repaired_dbs.append(cause)
            tracer.add_event("repair", db=cause, phase=phase)
            # Trip the breaker FIRST so the best-effort cleanup of the
            # partial deployment fails fast on the dead engine instead
            # of burning its retry budget per object.
            self.deployment.health.report_outage(
                cause, f"engine failed during {phase}"
            )
        pinned: List[int] = []
        if action.cleanup == "pin":
            pinned = self._pin_salvage(state, self._salvage_of(exc))
        if action.cleanup != "keep":
            self._discard(state.deployed, tracer, keep=state.pending_keeps)
            state.deployed = None
        state.dplan = None
        state.stage = action.stage
        if action.failure == "drift":
            self.recover_drift(state, cause, tracer)
        elif action is BRANCH:
            kind, blamed, shard = cause
            recovery.branch_repairs += 1
            recovery.branch_events.append(cause)
            tracer.add_event(
                "branch-repair",
                action=kind,
                db=blamed,
                table=shard,
                pinned=len(pinned),
            )
        elif action is OUTAGE:
            # Whole-query repair cannot reuse salvaged snapshots or
            # earlier pins (they may live on the dead engine): drop
            # them and rebuild the plan from the source query.
            self._abandon_salvage(state, exc, tracer, skip_db=cause)
        return True

    @staticmethod
    def _discard(
        deployed: Optional[DeployedQuery],
        tracer,
        keep: List[Tuple[str, str, str]] = (),
    ) -> None:
        """Best-effort teardown of a failed or superseded cascade.

        Objects in ``keep`` are released from the cascade first (they
        live on as pinned snapshots).  A DROP that fails leaves its
        object marked leaked in the ledger, for the reaper to collect
        once the engine is reachable, and shows up as a
        ``cleanup-failed`` event.
        """
        if deployed is None:
            return
        if keep:
            keep_set = set(keep)
            deployed.created_objects[:] = [
                obj for obj in deployed.created_objects if obj not in keep_set
            ]
        try:
            deployed.cleanup()
        except DelegationError as exc:
            error = type(exc.__cause__ or exc).__name__
            for db, _kind, name in exc.leaked:
                tracer.add_event(
                    "cleanup-failed", db=db, object=name, error=error
                )

    # -- drift recovery ----------------------------------------------------

    def recover_drift(
        self, state: PlanState, drift: SchemaDriftError, tracer
    ) -> None:
        """Absorb one detected drift: re-introspect, invalidate, replan.

        Re-enters the pipeline at the ``optimize`` stage (the plan must
        be rebuilt from the source query against the adopted schema).
        When replanning still fails — e.g. a drifted replica now
        diverges from its siblings, or the table vanished and only this
        holder had it — the table is quarantined (placement avoids it
        like a dead holder) and the replan is retried once; a second
        failure propagates.
        """
        recovery = state.recovery
        recovery.drift_events += 1
        key = (drift.db, drift.table)
        if key not in recovery.drifted_tables:
            recovery.drifted_tables.append(key)
        tracer.add_event(
            "schema-drift",
            db=drift.db,
            table=drift.table,
            diff=drift.diff_summary(),
        )
        with tracer.span("reintrospect", kind="step"):
            adopted = self.catalog.reintrospect(drift.db, drift.table)
        if self.feedback is not None:
            # Learned cardinalities observed under the old schema are
            # as stale as the plans built on them.
            self.feedback.invalidate_table(drift.db, drift.table)
        if self.on_drift is not None:
            self.on_drift(drift.db, drift.table)
        state.stage = "optimize"
        try:
            self._optimize(state, tracer)
        except ReproError:
            if adopted is not None:
                self.catalog.quarantine(drift.db, drift.table)
            recovery.quarantined.append(key)
            tracer.add_event("quarantine", db=drift.db, table=drift.table)
            try:
                self._optimize(state, tracer)
            except ReproError as replan_exc:
                # Even with the drifted holder out of the way the query
                # cannot bind (the table vanished everywhere, or it
                # referenced a now-renamed column): surface the
                # structured drift error, not the planner's.
                drift.quarantined = True
                raise drift from replan_exc

    def sniff_drift(
        self, exc: BaseException, dplan: Optional[DelegationPlan]
    ) -> Optional[SchemaDriftError]:
        """Check whether a schema-shaped failure traces back to drift.

        A detected :class:`SchemaDriftError` is its own answer.  Only
        outage, delegation, and bind/type/catalog failures whose cause
        chain contains a bind/type/catalog error are sniffed —
        transient giveups and outages never touch the fingerprint path,
        so their fault schedules are unchanged.  The sniff force-verifies
        each placed table and returns the first drift found (None when
        the schemas all still match).
        """
        if isinstance(exc, SchemaDriftError):
            return exc
        sniffed = (EngineUnavailableError, DelegationError) + _SCHEMA_ERRORS
        if (
            dplan is None
            or not isinstance(exc, sniffed)
            or not self._schema_shaped(exc)
        ):
            return None
        for table, db in sorted(self.placement(dplan).items()):
            try:
                self.catalog.verify_table(db, table, force=True)
            except SchemaDriftError as drift:
                return drift
            except ReproError:
                continue
        return None

    @staticmethod
    def _schema_shaped(exc: BaseException) -> bool:
        """Whether a failure's cause chain smells like schema drift."""
        return any(
            isinstance(node, _SCHEMA_ERRORS) for node in _cause_chain(exc)
        )

    # -- mid-query adaptivity (the Q-Error loop's fast path) ---------------

    def _maybe_adapt(
        self,
        state: PlanState,
        deployed: DeployedQuery,
        exec_span,
        tracer,
    ) -> None:
        """Suffix replan at the materialization boundary, if warranted.

        Delegation already ran every explicit edge's CTAS, so the rows
        that actually crossed those task boundaries are known *before*
        the root XDB query runs — the paper-world analogue of a task
        boundary mid-query.  When a materialized producer's actual
        cardinality blows its estimate past the adaptivity threshold,
        the producers are **pinned**: their logical subtrees are
        replaced by scans of the existing ``xm_`` snapshots (executed
        work is never redone), and the unexecuted suffix re-enters the
        pipeline at the annotate stage with corrected cardinalities.

        Re-entry resets ``state.stage`` to ``annotate`` (the caller
        loops); otherwise the current deployment proceeds.
        """
        state.adapted = True  # one adaptation round per submission
        dplan = state.dplan
        threshold = self.adaptivity_threshold
        # The CTAS fetches were recorded inside the delegate step — the
        # exec span's subtree already carries the explicit-edge actuals.
        attribute_edge_stats(deployed, exec_span.subtree_records())

        blown: List[Tuple[int, float]] = []
        candidates = []
        for edge in dplan.edges:
            if edge.movement is not Movement.EXPLICIT:
                continue
            if not edge.moved_rows or edge.moved_rows <= 0:
                continue
            producer = dplan.tasks[edge.producer_id]
            if not _pinnable(producer):
                continue
            actual = float(edge.moved_rows)
            q = qerror.q_error(producer.estimated_rows, actual)
            consumer = dplan.tasks[edge.consumer_id]
            candidates.append(
                (
                    producer,
                    consumer.annotation,
                    "TABLE",
                    f"xm_{deployed.query_id}_{producer.task_id}",
                    actual,
                )
            )
            if q > threshold:
                blown.append((producer.task_id, q))
        if not blown:
            return
        keeps, _pinned, _unpinned = self._pin_snapshots(state, candidates)
        if not keeps:
            return

        with tracer.span("adapt", kind="step"):
            for task_id, q in blown:
                tracer.add_event(
                    "estimate-blown",
                    task=task_id,
                    qerror=(-1.0 if q == qerror.INFINITE else round(q, 3)),
                )
            recovery = state.recovery
            recovery.adaptations += 1
            recovery.blown_estimates.extend(blown)
            state.dplan = None
            state.stage = "annotate"
            # Release the kept snapshots from the old cascade, then
            # tear the rest of it down (the new suffix deployment gets
            # fresh names under a fresh epoch, so nothing collides).
            self._discard(deployed, tracer, keep=keeps)
            state.deployed = None

    def _pin_snapshots(
        self, state: PlanState, snapshots
    ) -> Tuple[
        List[Tuple[str, str, str]], List[int], List[Tuple[str, str, str]]
    ]:
        """Pin existing ``xm_`` snapshots into the logical plan.

        Each ``(producer, db, kind, name, actual rows)`` producer's
        subtree becomes a placeholder scan of its snapshot, so
        re-delegation never redoes that work.  The rebuilt ancestors
        lost their estimates and Rule 4 requires one on every node: a
        fresh estimator pass recomputes them — the pinned scans feed
        their actual row counts in, and the overlay folds in any
        store-learned corrections for untouched subtrees.  Snapshots
        that cannot stand in for their producer, or whose producer an
        ancestor's pin already covers, stay unpinned.  Returns
        ``(keeps, pinned task ids, unpinned objects)``.
        """
        plan = state.logical_plan
        overlay = FeedbackOverlay(self.feedback)
        keeps: List[Tuple[str, str, str]] = []
        pinned_ids: List[int] = []
        unpinned: List[Tuple[str, str, str]] = []
        for producer, db, kind, name, actual in snapshots:
            replaced = False
            if _pinnable(producer):
                src = producer.source_expr
                scan = algebra.Scan(
                    table=name,
                    binding=f"xpin_{producer.task_id}",
                    schema=src.schema,
                    source_db=db,
                    placeholder=True,
                    requalify=False,
                )
                scan.estimated_rows = (
                    actual
                    if actual is not None
                    else float(producer.estimated_rows or 1.0)
                )
                plan, replaced = _replace_subtree(plan, src, scan)
            if not replaced:
                unpinned.append((db, kind, name))
                continue
            keeps.append((db, "TABLE", name))
            pinned_ids.append(producer.task_id)
            if actual is not None:
                overlay.pin(overlay.fingerprint_of(src), actual)
        if keeps:
            _annotate_all(plan, self._estimator(overlay))
            state.logical_plan = plan
            state.pending_keeps.extend(keeps)
            state.recovery.pinned_tasks.extend(pinned_ids)
        return keeps, pinned_ids, unpinned

    def _refence_keeps(
        self, state: PlanState, deployed: DeployedQuery
    ) -> None:
        """Adopt kept snapshots into the adapted deployment.

        The old epoch closed when the superseded cascade tore down, so
        the kept ``xm_`` tables were momentarily reapable; re-recording
        them under the new deployment's (live) epoch fences them again,
        and prepending them to ``created_objects`` makes the final
        cleanup drop them last (consumers before producers).
        """
        for keep in state.pending_keeps:
            db, kind, name = keep
            deployed.created_objects.insert(0, keep)
            if deployed.ledger is not None:
                deployed.ledger.record(db, kind, name, deployed.epoch)
        state.pending_keeps = []

    # -- branch-scoped fault domains ---------------------------------------

    def _branch_failure(
        self,
        state: PlanState,
        exc: BaseException,
        qos: Optional[QoSPolicy],
        tracer,
    ) -> Optional[Tuple[str, str, str]]:
        """Whether a failed *branch* can be repaired in place instead of
        the whole query.

        Two failure domains below the query qualify:

        * a **shard-scoped** fault (the error chain carries the struck
          table): the one holder is quarantined — the engine's breaker
          stays closed — and the branch re-routes to a surviving
          replica holder on re-annotation; with no healthy holder left,
          the query degrades to a policy-bounded **partial** answer;
        * an **engine** fault that left completed sibling ``xm_``
          snapshots behind: the siblings are pinned (executed work is
          never redone) and only the failed branch re-plans around the
          outage.

        Salvaged snapshots ride in on the :class:`DelegationError`; the
        branch row pins them exactly like the adaptivity path's keeps.
        Returns the ``(action, db, table)`` branch event — action is
        ``"failover"``, ``"partial"`` or ``"reroute"`` — or None to hand
        the failure to the whole-query repair.
        """
        if state.branch_budget <= 0 or state.dplan is None:
            return None
        recovery = state.recovery
        health = self.deployment.health
        shard_db, shard = self._fault_shard(exc)
        if shard is not None:
            if shard_db is not None and not self.catalog.is_quarantined(
                shard_db, shard
            ):
                # The disk under one shard died, not the server: only
                # that holder leaves placement, via quarantine — never
                # the breaker.
                self.catalog.quarantine(shard_db, shard)
                recovery.quarantined.append((shard_db, shard))
                health.report_shard_outage(
                    shard_db, shard, "branch execution failed"
                )
                tracer.add_event(
                    "shard-quarantine", db=shard_db, table=shard
                )
            healthy = [
                db
                for db in self.catalog.holders(shard)
                if not self.catalog.is_quarantined(db, shard)
                and self._holder_available(db)
            ]
            if healthy:
                return "failover", shard_db or "", shard
            if self._try_partial(state, shard, qos, tracer):
                return "partial", shard_db or "", shard
            return None
        # Engine-level failure: branch-local recovery only pays off when
        # completed sibling snapshots exist to pin; otherwise the
        # whole-query repair path does the identical work.
        blamed = self.unavailable_db(exc)
        if not self._salvage_of(exc) or blamed is None:
            return None
        health.report_outage(blamed, "branch execution failed")
        return "reroute", blamed, ""

    def _try_partial(
        self,
        state: PlanState,
        shard: str,
        qos: Optional[QoSPolicy],
        tracer,
    ) -> bool:
        """Degrade to a partial answer by pruning a dead shard's branch.

        Opt-in via ``QoSPolicy.allow_partial``: when the shard has no
        healthy holder left, its gather branches are pruned and the
        row-weighted completeness (from catalog shard statistics) is
        checked against the policy's ``completeness_floor``.  Returns
        True when the plan was degraded in place.
        """
        if qos is None or not qos.allow_partial:
            return False
        if not is_partition_table(shard):
            return False
        plan, pruned = prune_missing_shards(state.logical_plan, [shard])
        if plan is None or not pruned:
            return False
        recovery = state.recovery
        missing = list(recovery.missing_partitions)
        for name in pruned:
            if name not in missing:
                missing.append(name)
        completeness = partition_completeness(
            missing, self.catalog.partition_spec, self._shard_rows
        )
        if completeness < qos.completeness_floor:
            tracer.add_event(
                "partial-refused",
                table=shard,
                completeness=round(completeness, 4),
                floor=qos.completeness_floor,
            )
            return False
        _annotate_all(plan, self._estimator())
        state.logical_plan = plan
        recovery.partial = True
        recovery.completeness = completeness
        recovery.missing_partitions = missing
        tracer.add_event(
            "partial-degrade",
            table=shard,
            completeness=round(completeness, 4),
            missing=len(missing),
        )
        return True

    def _pin_salvage(self, state: PlanState, salvaged) -> List[int]:
        """Pin salvaged ``xm_`` snapshots into the logical plan.

        The branch-recovery twin of :meth:`_maybe_adapt`'s pinning, so
        re-delegation recomputes only the failed branch.  Snapshots
        that cannot be pinned are dropped best-effort instead of
        leaking.
        """
        if not salvaged or state.dplan is None:
            return []
        dplan = state.dplan
        snapshots = []
        for task_id, db, kind, name in salvaged:
            actual = next(
                (
                    float(edge.moved_rows)
                    for edge in dplan.edges
                    if edge.producer_id == task_id and edge.moved_rows
                ),
                None,
            )
            snapshots.append((dplan.tasks.get(task_id), db, kind, name, actual))
        _keeps, pinned_ids, unpinned = self._pin_snapshots(state, snapshots)
        if unpinned:
            self.delegator.rollback(unpinned)
        return pinned_ids

    def _abandon_salvage(
        self,
        state: PlanState,
        exc: BaseException,
        tracer,
        skip_db: Optional[str] = None,
    ) -> None:
        """Drop salvage the recovery path cannot use (best effort).

        Whole-query repair (and final propagation) rebuilds the plan
        from scratch, so salvaged snapshots and earlier pins would
        otherwise leak under their closed epoch until the reaper finds
        them.  ``skip_db`` marks an engine known to be down — its
        objects are left for the reaper rather than burning the retry
        budget.  Abandoning pins also rebuilds the logical plan from
        the source query (re-applying any partial-answer pruning), so
        placeholder scans of dropped snapshots cannot survive into the
        next annotation round.
        """
        objects = [
            (db, kind, name)
            for _task_id, db, kind, name in self._salvage_of(exc)
        ]
        objects.extend(state.pending_keeps)
        had_pins = bool(state.pending_keeps)
        state.pending_keeps = []
        if objects:
            self.delegator.rollback(objects, skip_db=skip_db)
            tracer.add_event("salvage-abandoned", objects=len(objects))
        if had_pins and state.select is not None:
            try:
                state.logical_plan = self.optimizer.optimize(state.select)
                if state.recovery.missing_partitions:
                    plan, _ = prune_missing_shards(
                        state.logical_plan,
                        state.recovery.missing_partitions,
                    )
                    if plan is not None:
                        _annotate_all(plan, self._estimator())
                        state.logical_plan = plan
            except ReproError:
                pass

    def _estimator(
        self, overlay: Optional[FeedbackOverlay] = None
    ) -> CardinalityEstimator:
        if overlay is None:
            overlay = FeedbackOverlay(self.feedback)
        return CardinalityEstimator(self.catalog.scan_stats, feedback=overlay)

    def _holder_available(self, db: str) -> bool:
        connector = self.connectors.get(db)
        return connector is not None and connector.is_available()

    def _shard_rows(self, shard: str) -> Optional[int]:
        """Catalog row count of one shard (any holder; None = unknown)."""
        for db in self.catalog.holders(shard):
            stats = self.catalog.stats_of(db, shard)
            if stats is not None and stats.row_count is not None:
                return int(stats.row_count)
        return None

    @staticmethod
    def _fault_shard(
        exc: BaseException,
    ) -> Tuple[Optional[str], Optional[str]]:
        """The (db, table) a shard-scoped outage blames, if any.

        Walks the cause chain like :meth:`unavailable_db`; ``db`` may
        be None (annotation found no healthy holder at all) while
        ``table`` still names the shard.
        """
        for node in _cause_chain(exc):
            if (
                isinstance(node, EngineUnavailableError)
                and node.table is not None
            ):
                return node.db, node.table
        return None, None

    @staticmethod
    def _salvage_of(
        exc: BaseException,
    ) -> List[Tuple[int, str, str, str]]:
        """Salvaged snapshots riding on a delegation failure's chain."""
        for node in _cause_chain(exc):
            if isinstance(node, DelegationError) and node.salvaged:
                return list(node.salvaged)
        return []

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def placement(dplan: Optional[DelegationPlan]) -> Dict[str, str]:
        """Base table → DBMS map for the recovery placement diff.

        Keyed by scanned table rather than task: a repaired plan may
        merge or split tasks (co-location changes when a replica holder
        takes over), so task identities do not survive re-planning but
        table names do.
        """
        placement: Dict[str, str] = {}
        if dplan is None:
            return placement
        for task in dplan.tasks.values():
            for scan in task.expr.leaves():
                if not scan.placeholder:
                    placement[scan.table] = task.annotation
        return placement

    @staticmethod
    def unavailable_db(exc: BaseException) -> Optional[str]:
        """Which DBMS an outage exception blames, if repairable.

        Walks the ``__cause__``/``__context__`` chain for an
        :class:`EngineUnavailableError` carrying a DBMS name (a
        :class:`DelegationError` wraps the original connector error).
        Returns None for unrepairable failures: an
        ``EngineUnavailableError`` with ``db=None`` means every holder
        of some table is down, and a failure with *no* engine-outage in
        its chain (e.g. a transient fault that exhausted the retry
        budget) is not an outage — re-planning cannot help either way.
        """
        for node in _cause_chain(exc):
            if isinstance(node, EngineUnavailableError):
                return node.db
        return None

    @staticmethod
    def cancel_deployment(
        ctx: QueryContext,
        deployed: Optional[DeployedQuery],
        exc: DeadlineExceeded,
    ) -> None:
        """Cooperative cancellation: tear down a deployed cascade after
        deadline expiry, under the grace budget, and fold the rollback
        accounting into the structured error.

        ``deployed`` is None when the expiry struck *inside* the
        delegation engine — that path already rolled itself back and
        stamped the error; here we only handle expiry after delegation
        completed (during execution or post-execution checks).
        """
        if deployed is None:
            return
        before = list(deployed.created_objects)
        # The discard keeps undropped objects queued on the deployment;
        # the leak accounting below reads them off it.
        if ctx.deadline is not None:
            with ctx.deadline.grace():
                PlanPipeline._discard(deployed, ctx.tracer)
        else:
            PlanPipeline._discard(deployed, ctx.tracer)
        remaining = list(deployed.created_objects)
        exc.rolled_back = list(exc.rolled_back) + [
            obj for obj in before if obj not in remaining
        ]
        exc.leaked = list(exc.leaked) + remaining
        ctx.tracer.add_event(
            "deadline-cancelled",
            phase=exc.phase,
            rolled_back=len(exc.rolled_back),
            leaked=len(exc.leaked),
        )


def _cause_chain(exc: BaseException) -> Iterator[BaseException]:
    """``exc`` and its ``__cause__``/``__context__`` ancestors, once each."""
    seen = set()
    node: Optional[BaseException] = exc
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        yield node
        node = node.__cause__ or node.__context__


def _slots(deployment: Deployment) -> Optional[int]:
    """Per-engine task slots for the schedule simulator.

    A single-worker deployment keeps the legacy unbounded-overlap
    semantics (None); only explicit multi-worker engines cap how many
    delegated tasks one engine advances concurrently.
    """
    workers = deployment.parallel_workers
    return workers if workers > 1 else None


def _engines(dplan: DelegationPlan) -> List[str]:
    """The engines a delegation plan runs tasks on (admission set)."""
    return sorted({task.annotation for task in dplan.tasks.values()})


def _pinnable(producer) -> bool:
    """Whether a producer's ``xm_`` snapshot can stand in for it.

    A producer whose output needed the finalizer's dedup projection has
    snapshot columns that no longer match its logical schema — leave it
    to be recomputed.
    """
    src = producer.source_expr if producer is not None else None
    if src is None:
        return False
    names = [f.name.lower() for f in src.schema]
    return len(set(names)) == len(names)


def _annotate_all(
    plan: algebra.LogicalPlan, estimator: CardinalityEstimator
) -> None:
    estimator.estimate_rows(plan)
    for child in plan.children():
        _annotate_all(child, estimator)


def _replace_subtree(
    root: algebra.LogicalPlan,
    target: algebra.LogicalPlan,
    replacement: algebra.LogicalPlan,
) -> Tuple[algebra.LogicalPlan, bool]:
    """Replace ``target`` (by identity) inside ``root``.

    Returns ``(new_root, replaced)``; the tree is returned unchanged
    when ``target`` does not occur (e.g. it lived inside a subtree an
    earlier replacement already swapped out).
    """
    if root is target:
        return replacement, True
    children = root.children()
    if not children:
        return root, False
    new_children = []
    replaced = False
    for child in children:
        new_child, hit = _replace_subtree(child, target, replacement)
        new_children.append(new_child)
        replaced = replaced or hit
    if not replaced:
        return root, False
    return root.with_children(new_children), True
