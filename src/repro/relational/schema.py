"""Schemas: ordered, optionally qualified, typed field lists.

A :class:`Field` is a column of an intermediate or stored relation; the
``relation`` qualifier is the *binding name* (table alias) it is visible
under, which is what qualified column references resolve against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import BindError, CatalogError
from repro.sql.types import SQLType


@dataclass(frozen=True)
class Field:
    """One column of a relation: qualifier, name, and SQL type."""

    name: str
    type: SQLType
    relation: Optional[str] = None

    @property
    def qualified_name(self) -> str:
        return f"{self.relation}.{self.name}" if self.relation else self.name

    def renamed(self, name: str) -> "Field":
        return replace(self, name=name)

    def requalified(self, relation: Optional[str]) -> "Field":
        return replace(self, relation=relation)


class Schema:
    """An ordered collection of fields with name-resolution helpers."""

    def __init__(self, fields: Iterable[Field]):
        self.fields: Tuple[Field, ...] = tuple(fields)
        seen = set()
        for field in self.fields:
            key = (field.relation, field.name.lower())
            if key in seen:
                raise CatalogError(
                    f"duplicate column {field.qualified_name!r} in schema"
                )
            seen.add(key)

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __getitem__(self, index: int) -> Field:
        return self.fields[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def __repr__(self) -> str:
        cols = ", ".join(f"{f.qualified_name}:{f.type}" for f in self.fields)
        return f"Schema({cols})"

    @property
    def names(self) -> List[str]:
        return [field.name for field in self.fields]

    def resolve(self, name: str, relation: Optional[str] = None) -> int:
        """Index of the field matching ``[relation.]name``.

        Raises :class:`BindError` for unknown or ambiguous references.
        Matching is case-insensitive, like mainstream SQL engines.
        """
        name_lower = name.lower()
        relation_lower = relation.lower() if relation else None
        matches = [
            index
            for index, field in enumerate(self.fields)
            if field.name.lower() == name_lower
            and (
                relation_lower is None
                or (
                    field.relation is not None
                    and field.relation.lower() == relation_lower
                )
            )
        ]
        display = f"{relation}.{name}" if relation else name
        if not matches:
            raise BindError(f"unknown column {display!r}")
        if len(matches) > 1:
            raise BindError(f"ambiguous column reference {display!r}")
        return matches[0]

    def relations(self) -> List[str]:
        """Distinct relation qualifiers present, in order of appearance."""
        seen: List[str] = []
        for field in self.fields:
            if field.relation is not None and field.relation not in seen:
                seen.append(field.relation)
        return seen

    def fields_of_relation(self, relation: str) -> List[Field]:
        relation_lower = relation.lower()
        return [
            field
            for field in self.fields
            if field.relation is not None
            and field.relation.lower() == relation_lower
        ]

    def row_width(self) -> int:
        """Estimated bytes per row; drives transfer accounting."""
        return sum(field.type.byte_width() for field in self.fields)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join output: this schema followed by ``other``."""
        return Schema(self.fields + other.fields)

    def requalified(self, relation: Optional[str]) -> "Schema":
        """All fields re-qualified under a single binding name."""
        return Schema(field.requalified(relation) for field in self.fields)

    def unqualified(self) -> "Schema":
        """All fields with their qualifier stripped (result schemas)."""
        return Schema(field.requalified(None) for field in self.fields)
