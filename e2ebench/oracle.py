"""The single-engine oracle every read is checked against.

One row-mode :class:`~repro.engine.database.Database` holds all eight
TPC-H tables, unpartitioned.  It is built only after the timed loop,
from a fresh generation of the same dbgen output, and replays the
run's writes in run order so each read is compared with the answer the
data had at that point.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

from repro.engine.database import Database
from repro.workloads.tpch.generator import generate


def build(scale_factor: float, data_seed: int) -> Database:
    data = generate(scale_factor, data_seed)
    oracle = Database("oracle", execution_mode="batch")
    for table, (schema, rows) in data.tables.items():
        oracle.create_table(table, schema, rows)
    return oracle


def replay_write(referee: Database, table: str, sql: str) -> None:
    """Apply one INSERT, keeping the table's statistics from before it.

    Statistics only steer the oracle's join order, never its answers;
    recomputing them after every batch would dominate the check.
    """
    stored = referee.catalog.get(table)
    stats = stored.stats
    referee.execute(sql)
    stored._stats = stats


def _same_value(left, right) -> bool:
    if isinstance(left, float) or isinstance(right, float):
        if left is None or right is None:
            return left is right
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-6)
    return left == right


def _same_rows(left: Sequence[tuple], right: Sequence[tuple]) -> bool:
    return len(left) == len(right) and all(
        len(a) == len(b) and all(_same_value(x, y) for x, y in zip(a, b))
        for a, b in zip(left, right)
    )


def _canonical(rows: Iterable[tuple]) -> List[tuple]:
    def key(row):
        return tuple(
            (0, round(v, 4)) if isinstance(v, float) else (1, repr(v))
            for v in row
        )

    return sorted(rows, key=key)


def matches(actual: Sequence[tuple], expected: Sequence[tuple]) -> bool:
    """Row-for-row equality (floats to 1e-9 relative); rows that tie on
    the ORDER BY keys may come back in either order."""
    if _same_rows(actual, expected):
        return True
    return _same_rows(_canonical(actual), _canonical(expected))
