"""CSV import/export for engine tables and generated datasets.

Values are serialized losslessly for the supported type system:
integers, floats, booleans (``t``/``f``), ISO dates, and strings; SQL
NULL round-trips as an empty field (strings containing an empty value
are quoted on export, mirroring PostgreSQL's ``COPY ... CSV`` rule of
distinguishing ``,,`` from ``,"",``).
"""

from __future__ import annotations

import csv
import datetime
import pathlib
from typing import Iterable, List, Optional, Union

from repro.engine.catalog import BaseTable
from repro.engine.database import Database
from repro.errors import ExecutionError
from repro.relational.schema import Field, Schema
from repro.sql.types import SQLType, TypeKind, type_from_name

PathLike = Union[str, pathlib.Path]

#: Marker used to distinguish NULL (empty, unquoted) from '' on import.
_EMPTY_STRING_TOKEN = '""'


def _serialize(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "t" if value else "f"
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, str) and value == "":
        return _EMPTY_STRING_TOKEN
    return str(value)


def _parser_for(sql_type: SQLType):
    """Build the cell parser for one column.

    Resolving the TypeKind once per *column* (instead of once per cell)
    keeps the import loop a straight zip of precompiled closures.
    Every parser maps the empty field to NULL and wraps conversion
    failures in :class:`ExecutionError` with the offending text.
    """
    kind = sql_type.kind
    if kind in (TypeKind.INTEGER, TypeKind.BIGINT):
        convert = int
    elif kind in (TypeKind.DOUBLE, TypeKind.DECIMAL):
        convert = float
    elif kind is TypeKind.DATE:
        convert = datetime.date.fromisoformat
    elif kind is TypeKind.BOOLEAN:
        def convert(text):
            return text.strip().lower() in ("t", "true", "1", "yes")
    else:
        def parse_text(text: str) -> object:
            if text == "":
                return None
            if text == _EMPTY_STRING_TOKEN:
                return ""
            return text

        return parse_text

    def parse(text: str) -> object:
        if text == "":
            return None
        try:
            return convert(text)
        except ValueError as exc:
            raise ExecutionError(
                f"cannot parse {text!r} as {sql_type}: {exc}"
            )

    return parse


def save_table_csv(database: Database, table: str, path: PathLike) -> int:
    """Export a stored table to CSV (header row encodes name:type).

    Returns the number of data rows written.
    """
    obj = database.catalog.require(table)
    if not isinstance(obj, BaseTable):
        raise ExecutionError(
            f"can only export stored tables, {table!r} is a {obj.kind}"
        )
    path = pathlib.Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [f"{field.name}:{field.type}" for field in obj.schema]
        )
        for row in obj.rows:
            writer.writerow([_serialize(value) for value in row])
    return len(obj.rows)


def load_table_csv(
    database: Database,
    table: str,
    path: PathLike,
    schema: Optional[Schema] = None,
    replace: bool = False,
) -> int:
    """Import a CSV (written by :func:`save_table_csv`) as a table.

    When ``schema`` is omitted, it is recovered from the typed header.
    Returns the number of rows loaded.
    """
    path = pathlib.Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ExecutionError(f"empty CSV file: {path}")
        if schema is None:
            schema = _schema_from_header(header)
        elif len(header) != len(schema):
            raise ExecutionError(
                f"CSV has {len(header)} columns but the provided schema "
                f"has {len(schema)}"
            )
        parsers = [_parser_for(field.type) for field in schema]
        width = len(parsers)
        rows: List[tuple] = []
        for line_number, record in enumerate(reader, start=2):
            if len(record) != width:
                raise ExecutionError(
                    f"{path}:{line_number}: expected {width} fields, "
                    f"got {len(record)}"
                )
            rows.append(
                tuple(
                    parse(text)
                    for parse, text in zip(parsers, record)
                )
            )
    database.create_table(table, schema, rows, replace=replace)
    return len(rows)


def _schema_from_header(header: Iterable[str]) -> Schema:
    fields = []
    for column in header:
        name, separator, type_text = column.partition(":")
        if not separator:
            raise ExecutionError(
                f"CSV header column {column!r} lacks a ':type' suffix; "
                "provide a schema explicitly"
            )
        base, _, args_text = type_text.partition("(")
        args = []
        if args_text:
            args = [
                int(part)
                for part in args_text.rstrip(")").split(",")
                if part
            ]
        fields.append(Field(name, type_from_name(base, *args)))
    return Schema(fields)


def export_dataset(
    database: Database, directory: PathLike
) -> List[pathlib.Path]:
    """Export every stored table of ``database`` into ``directory``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for table in database.catalog.tables():
        target = directory / f"{table.name}.csv"
        save_table_csv(database, table.name, target)
        written.append(target)
    return written


def import_dataset(database: Database, directory: PathLike) -> List[str]:
    """Load every ``*.csv`` in ``directory`` as a table (by file name)."""
    directory = pathlib.Path(directory)
    loaded = []
    for path in sorted(directory.glob("*.csv")):
        name = path.stem
        load_table_csv(database, name, path, replace=True)
        loaded.append(name)
    return loaded
