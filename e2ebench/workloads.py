"""The benchmark's workloads: federation set-up and operation sequences.

Each workload runs a fixed, seeded sequence of operations from one
client in a closed loop.  The *mix* (which query runs at which position)
never depends on the seed; the seed draws only the qgen parameters and
the rows the writes insert.  The TPC-H database itself is the fixed
dbgen output for the scale factor.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import qgen
from repro.core.client import XDB, PreparedQuery
from repro.federation.deployment import Deployment
from repro.workloads.tpch.distributions import databases_for, distribution
from repro.workloads.tpch.generator import (
    ORDER_PRIORITIES,
    REGIONS,
    NATIONS,
    SHIP_INSTRUCTIONS,
    SHIP_MODES,
    generate,
)

#: dbgen seed of the TPC-H database (the repository's default)
DATA_SEED = 19921

#: rows per INSERT batch of ``prepared-fresh`` (orders, and one
#: lineitem per order)
WRITE_BATCH = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    td: str
    scale_factor: float
    #: query names, in the order one round submits them
    mix: Tuple[str, ...]
    #: rounds per requested second, measured on a 2-vCPU container;
    #: the round count is fixed by ``--seconds`` alone
    rounds_per_second: float
    #: set-ups per run; ``setup_s`` is their median
    setups: int
    partitions: int = 0
    workers: int = 1
    prepared: bool = False
    #: probes that must be hit on this workload (validity check)
    exercises: Tuple[str, ...] = ()
    #: the range ``middleware_share`` must fall in (validity check)
    middleware_share: Tuple[float, float] = (0.0, 1.0)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="adhoc-engine",
            why=(
                "ad-hoc TPC-H submits on TD1 at sf 0.01: engine execution "
                "and FDW hops dominate, so executor and exchange changes "
                "show and planner changes should not"
            ),
            td="TD1",
            scale_factor=0.01,
            mix=("Q3", "Q5", "Q7", "Q9", "Q10"),
            rounds_per_second=1.3,
            setups=3,
            middleware_share=(0.0, 0.2),
            exercises=(
                "sql.parser.parse",
                "relational.optimizer.optimize",
                "core.annotate.annotate",
                "core.finalize.finalize",
                "core.delegate.delegate",
                "core.delegate.cleanup",
                "connect.run_query",
                "connect.execute_ddl",
                "engine.database.execute",
                "engine.fdw.fetch",
                "engine.vector.batches_from_rows",
                "engine.vector.rows",
                "core.timing.simulate",
                "feedback.harvest",
                "net.record_transfer",
                "qos.gate.acquire",
                "drift.reaper.sweep_pending",
            ),
        ),
        Workload(
            name="adhoc-planning",
            why=(
                "ad-hoc submits on TD3 (7 engines) at sf 0.0002: the "
                "middleware stages take over half of each operation, so "
                "planner and delegation changes show"
            ),
            td="TD3",
            scale_factor=0.0002,
            mix=("Q3", "Q10", "Q3"),
            rounds_per_second=9.5,
            setups=25,
            # Q3 and Q10 have the highest measured share (about 0.45 and
            # 0.40, 0.41 for the mix): the root query's engine-side
            # planning of the delegated views takes most of the rest
            middleware_share=(0.3, 1.0),
            exercises=(
                "sql.parser.parse",
                "relational.optimizer.optimize",
                "core.annotate.annotate",
                "connect.estimate_join_cost",
                "core.finalize.finalize",
                "core.delegate.delegate",
                "core.delegate.cleanup",
                "connect.execute_ddl",
            ),
        ),
        Workload(
            name="prepared-fresh",
            why=(
                "prepared Q3/Q8/Q10 on TD1 at sf 0.005 re-executed between "
                "INSERT batches: no planning, so materialization refresh "
                "and the engine write path show"
            ),
            td="TD1",
            scale_factor=0.005,
            # Q3 is the first read after each INSERT batch and pays the
            # engines' statistics recomputation; Q8 twice puts the read
            # median in the middle of one cluster
            mix=("Q3", "Q8", "Q10", "Q8"),
            rounds_per_second=1.7,
            setups=3,
            prepared=True,
            exercises=(
                "connect.run_query",
                "engine.database.execute",
                "engine.database.insert",
                "core.timing.simulate",
                "feedback.harvest",
            ),
        ),
        Workload(
            name="partitioned-parallel",
            why=(
                "TD1 with orders/lineitem hash-partitioned 4 ways and 2 "
                "workers: the only workload running partition expansion "
                "and the engine worker pool"
            ),
            td="TD1",
            scale_factor=0.005,
            mix=("Q3", "Q9", "Q10"),
            rounds_per_second=2.2,
            setups=3,
            partitions=4,
            workers=2,
            exercises=(
                "core.partition.expand",
                "engine.parallel.map",
                "relational.optimizer.optimize",
                "core.delegate.delegate",
                "connect.run_query",
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Operation:
    """One closed-loop operation: a read (submit/execute) or a write."""

    kind: str  # "submit" | "execute" | "write"
    query: str  # query name for reads, "" for writes
    round: int
    #: SQL text: the submitted query, or the ``(db, INSERT …)`` pairs
    sql: str = ""
    writes: Tuple[Tuple[str, str], ...] = ()

    @property
    def is_read(self) -> bool:
        return self.kind != "write"


@dataclass
class Federation:
    """Everything one set-up builds; the loop drives it."""

    deployment: Deployment
    xdb: XDB
    prepared: Dict[str, PreparedQuery] = field(default_factory=dict)
    #: SQL each prepared handle runs, for the oracle
    prepared_sql: Dict[str, str] = field(default_factory=dict)
    #: the prepared queries' parameters (the inserts target them)
    write_params: Dict[str, dict] = field(default_factory=dict)

    def close(self) -> None:
        for handle in self.prepared.values():
            handle.close()
        self.prepared.clear()


def rounds_for(workload: Workload, seconds: float) -> int:
    return max(int(round(seconds * workload.rounds_per_second)), 1)


@dataclass
class WritePlan:
    """What the inserts of ``prepared-fresh`` need to hit the predicates."""

    next_orderkey: int
    segment_customers: List[int]
    region_customers: List[int]
    type_parts: List[int]
    parts: int
    suppliers: int
    customers: int


def setup(workload: Workload) -> Tuple[Federation, Optional[WritePlan]]:
    """Build the federation: generate and load TPC-H, partition, warm the
    catalog, and prepare the queries where the workload uses them."""
    data = generate(workload.scale_factor, DATA_SEED)
    deployment = Deployment(
        {name: "postgres" for name in databases_for(workload.td)},
        parallel_workers=workload.workers,
    )
    deployment.load_distribution(distribution(workload.td), data.tables)
    if workload.partitions:
        by_db = sorted(deployment.databases)
        by_db = [by_db[i % len(by_db)] for i in range(workload.partitions)]
        deployment.partition_table("orders", "o_orderkey", by_db)
        deployment.partition_table("lineitem", "l_orderkey", by_db)
    xdb = XDB(deployment)
    xdb.warm_metadata()
    federation = Federation(deployment, xdb)
    plan = None
    if workload.prepared:
        # The application prepares its statements once, with fixed
        # parameters; the seed draws the rows the writes insert.
        params = qgen.VALIDATION
        for name in dict.fromkeys(workload.mix):
            sql = qgen.render(name, params[name])
            federation.prepared[name] = xdb.prepare(sql)
            federation.prepared_sql[name] = sql
        plan = _write_plan(data, params)
        federation.write_params = params
    return federation, plan


def _write_plan(data, params) -> WritePlan:
    customers = data.rows_of("customer")
    region_of = {index: region for index, (_, region) in enumerate(NATIONS)}
    region = REGIONS.index(params["Q8"]["region"])
    return WritePlan(
        next_orderkey=max(row[0] for row in data.rows_of("orders")) + 1,
        segment_customers=[
            row[0] for row in customers if row[6] == params["Q3"]["segment"]
        ],
        region_customers=[
            row[0] for row in customers if region_of[row[3]] == region
        ],
        type_parts=[
            row[0]
            for row in data.rows_of("part")
            if row[4] == params["Q8"]["type"]
        ],
        parts=len(data.rows_of("part")),
        suppliers=len(data.rows_of("supplier")),
        customers=len(customers),
    )


def operations(
    workload: Workload,
    seed: int,
    rounds: int,
    federation: Federation,
    plan: Optional[WritePlan],
) -> List[Operation]:
    """The run's fixed operation sequence."""
    rng = random.Random(f"{seed}:ops")
    ops: List[Operation] = []
    for index in range(rounds):
        if workload.prepared:
            for name in workload.mix:
                ops.append(
                    Operation(
                        "execute",
                        name,
                        index,
                        sql=federation.prepared_sql[name],
                    )
                )
            ops.append(
                Operation(
                    "write",
                    "",
                    index,
                    writes=_insert_batch(rng, plan, federation.write_params),
                )
            )
            continue
        for name in workload.mix:
            ops.append(
                Operation(
                    "submit",
                    name,
                    index,
                    sql=qgen.render(name, qgen.draw(name, rng)),
                )
            )
    return ops


def warmup_operations(workload: Workload, seed: int) -> List[Operation]:
    """One untimed pass over the mix (ad-hoc workloads only)."""
    if workload.prepared:
        return []
    rng = random.Random(f"{seed}:warmup")
    return [
        Operation("submit", name, -1, sql=qgen.render(name, qgen.draw(name, rng)))
        for name in dict.fromkeys(workload.mix)
    ]


def _sql_value(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, datetime.date):
        return f"DATE '{value.isoformat()}'"
    return repr(value)


def _insert(table: str, rows: List[tuple]) -> str:
    values = ", ".join(
        "(" + ", ".join(_sql_value(v) for v in row) + ")" for row in rows
    )
    return f"INSERT INTO {table} VALUES {values}"


def _insert_batch(
    rng: random.Random, plan: WritePlan, params: Dict[str, dict]
) -> Tuple[Tuple[str, str], ...]:
    """``WRITE_BATCH`` new orders with one line each, cycling through
    the predicates of Q3, Q8 and Q10 so every insert changes an answer."""
    orders, lines = [], []
    q3_date = params["Q3"]["date"]
    q10_start, q10_end = qgen.q10_window(params["Q10"])
    day = datetime.timedelta(days=1)
    for index in range(WRITE_BATCH):
        key = plan.next_orderkey
        plan.next_orderkey += 1
        target = ("Q3", "Q8", "Q10")[index % 3]
        part = rng.randrange(1, plan.parts + 1)
        flag = "N"
        if target == "Q3":
            customer = rng.choice(plan.segment_customers)
            ordered = q3_date - rng.randrange(1, 60) * day
            shipped = q3_date + rng.randrange(1, 30) * day
        elif target == "Q8":
            customer = rng.choice(plan.region_customers)
            ordered = datetime.date(1995, 1, 1) + rng.randrange(700) * day
            shipped = ordered + rng.randrange(1, 30) * day
            part = rng.choice(plan.type_parts)
        else:
            customer = rng.randrange(1, plan.customers + 1)
            span = (q10_end - q10_start).days
            ordered = q10_start + rng.randrange(span) * day
            shipped = ordered + rng.randrange(1, 30) * day
            flag = "R"
        quantity = float(rng.randrange(1, 51))
        price = round(quantity * rng.uniform(900.0, 2000.0), 2)
        orders.append(
            (
                key,
                customer,
                "O",
                price,
                ordered,
                rng.choice(ORDER_PRIORITIES),
                f"Clerk#{rng.randrange(1, 1000):09d}",
                0,
                "fresh order",
            )
        )
        lines.append(
            (
                key,
                part,
                rng.randrange(1, plan.suppliers + 1),
                1,
                quantity,
                price,
                rng.randrange(0, 11) / 100.0,
                rng.randrange(0, 9) / 100.0,
                flag,
                "O",
                shipped,
                shipped + rng.randrange(1, 30) * day,
                shipped + rng.randrange(1, 30) * day,
                rng.choice(SHIP_INSTRUCTIONS),
                rng.choice(SHIP_MODES),
                "fresh line",
            )
        )
    return (("orders", _insert("orders", orders)), ("lineitem", _insert("lineitem", lines)))
