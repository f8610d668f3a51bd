"""Prepared-query API and CSV import/export tests."""

import sys
import threading

import pytest

from repro.core.client import XDB
from repro.engine.database import Database
from repro.engine.io import (
    export_dataset,
    import_dataset,
    load_table_csv,
    save_table_csv,
)
from repro.errors import ExecutionError, OptimizerError
from repro.federation.deployment import Deployment
from repro.relational.schema import Field, Schema
from repro.sql.types import DATE, DOUBLE, INTEGER, varchar

import datetime

from conftest import assert_same_rows


# -- prepared queries ----------------------------------------------------------


def build_sales_deployment():
    dep = Deployment({"A": "postgres", "B": "postgres"})
    dep.load_table(
        "A",
        "items",
        Schema([Field("id", INTEGER), Field("grp", varchar(4))]),
        [(1, "x"), (2, "y"), (3, "x")],
    )
    dep.load_table(
        "B",
        "sales",
        Schema([Field("item_id", INTEGER), Field("amt", INTEGER)]),
        [(1, 10), (2, 20), (3, 30), (1, 5)],
    )
    return dep


SALES_SQL = (
    "SELECT i.grp, SUM(s.amt) AS total FROM items i, sales s "
    "WHERE i.id = s.item_id GROUP BY i.grp"
)


def test_prepared_query_executes_repeatedly():
    dep = build_sales_deployment()
    xdb = XDB(dep)
    with xdb.prepare(SALES_SQL) as prepared:
        first = prepared.execute()
        second = prepared.execute()
        assert_same_rows(first.result.rows, second.result.rows)
        assert prepared.executions == 2
        # Re-executions skip the optimizer phases entirely.
        assert second.phases["prep"] == 0.0
        assert second.phases["ann"] == 0.0
        assert second.phases["exec"] > 0.0


def test_prepared_query_sees_fresh_data():
    """The headline freshness property: views read current base data."""
    dep = build_sales_deployment()
    xdb = XDB(dep)
    with xdb.prepare(SALES_SQL) as prepared:
        before = {row[0]: row[1] for row in prepared.execute().result.rows}
        assert before == {"x": 45, "y": 20}
        # New sale arrives at DBMS B after preparation.
        dep.database("B").execute("INSERT INTO sales VALUES (2, 100)")
        after = {row[0]: row[1] for row in prepared.execute().result.rows}
        assert after == {"x": 45, "y": 120}


def test_prepared_query_refreshes_materializations():
    dep = build_sales_deployment()
    xdb = XDB(dep, movement_policy="explicit")  # force materialization
    with xdb.prepare(SALES_SQL) as prepared:
        assert prepared.deployed.materializations
        first = prepared.execute()
        dep.database("B").execute("INSERT INTO sales VALUES (3, 1000)")
        second = prepared.execute()
        totals_first = dict(first.result.rows)
        totals_second = dict(second.result.rows)
        assert totals_second["x"] == totals_first["x"] + 1000


def test_prepared_query_close_drops_objects_and_blocks_reuse():
    dep = build_sales_deployment()
    xdb = XDB(dep)
    prepared = xdb.prepare(SALES_SQL)
    names_before = {
        db: set(dep.database(db).catalog.names()) for db in ("A", "B")
    }
    assert any("xv_" in n for names in names_before.values() for n in names)
    prepared.close()
    for db in ("A", "B"):
        assert not any(
            name.startswith(("xv_", "xf_", "xm_"))
            for name in dep.database(db).catalog.names()
        )
    with pytest.raises(OptimizerError):
        prepared.execute()
    prepared.close()  # idempotent


def test_prepared_query_shared_across_threads():
    """Executions of one handle share its kept state: concurrent callers
    run one at a time, each call counts once, and every admission token
    comes back to the gate."""
    dep = build_sales_deployment()
    xdb = XDB(dep)
    workers, runs = 4, 3
    errors = []
    with xdb.prepare(SALES_SQL) as prepared:
        expected = sorted(prepared.execute().result.rows)

        def worker():
            try:
                for _ in range(runs):
                    rows = sorted(prepared.execute().result.rows)
                    if rows != expected:
                        errors.append(rows)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker) for _ in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert prepared.executions == 1 + workers * runs
        gate = dep.workload_gate.snapshot()
        assert all(engine["active"] == 0 for engine in gate.values())


# -- CSV I/O --------------------------------------------------------------------


def sample_db():
    db = Database("D")
    db.create_table(
        "t",
        Schema(
            [
                Field("id", INTEGER),
                Field("name", varchar(8)),
                Field("score", DOUBLE),
                Field("born", DATE),
            ]
        ),
        [
            (1, "ada", 9.5, datetime.date(1815, 12, 10)),
            (2, "", None, None),
            (3, None, 0.0, datetime.date(2000, 1, 1)),
        ],
    )
    return db


def test_csv_roundtrip_preserves_values(tmp_path):
    db = sample_db()
    path = tmp_path / "t.csv"
    written = save_table_csv(db, "t", path)
    assert written == 3

    target = Database("T2")
    loaded = load_table_csv(target, "t", path)
    assert loaded == 3
    original = db.catalog.get("t").rows
    restored = target.catalog.get("t").rows
    assert restored == original  # exact: nulls, empty string, dates


def test_csv_header_encodes_types(tmp_path):
    db = sample_db()
    path = tmp_path / "t.csv"
    save_table_csv(db, "t", path)
    header = path.read_text().splitlines()[0]
    assert "id:INTEGER" in header
    assert "born:DATE" in header


def test_csv_load_with_explicit_schema(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a:INTEGER,b:VARCHAR(4)\n1,one\n2,two\n")
    schema = Schema([Field("a", INTEGER), Field("b", varchar(4))])
    db = Database("D")
    load_table_csv(db, "x", path, schema=schema)
    assert db.execute("SELECT COUNT(*) AS n FROM x").rows == [(2,)]


def test_csv_schema_arity_mismatch(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a:INTEGER,b:VARCHAR(4)\n1,one\n")
    with pytest.raises(ExecutionError):
        load_table_csv(
            Database("D"), "x", path, schema=Schema([Field("a", INTEGER)])
        )


def test_csv_bad_value_reports_type(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a:INTEGER\nnot_a_number\n")
    with pytest.raises(ExecutionError, match="INTEGER"):
        load_table_csv(Database("D"), "x", path)


def test_csv_ragged_row_reports_line(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a:INTEGER,b:INTEGER\n1,2\n3\n")
    with pytest.raises(ExecutionError, match=":3"):
        load_table_csv(Database("D"), "x", path)


def test_csv_untyped_header_needs_schema(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ExecutionError, match="schema"):
        load_table_csv(Database("D"), "x", path)


def test_export_view_rejected(tmp_path):
    db = sample_db()
    db.execute("CREATE VIEW v AS SELECT id FROM t")
    with pytest.raises(ExecutionError):
        save_table_csv(db, "v", tmp_path / "v.csv")


def test_dataset_roundtrip(tmp_path):
    db = sample_db()
    db.create_table(
        "u", Schema([Field("k", INTEGER)]), [(i,) for i in range(5)]
    )
    files = export_dataset(db, tmp_path / "data")
    assert len(files) == 2

    fresh = Database("F")
    names = import_dataset(fresh, tmp_path / "data")
    assert names == ["t", "u"]
    assert fresh.execute("SELECT COUNT(*) AS n FROM u").rows == [(5,)]


def test_empty_csv_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ExecutionError, match="empty"):
        load_table_csv(Database("D"), "x", path)
