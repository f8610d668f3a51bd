"""Phase 3 — plan finalization (§IV-B3).

Groups maximal runs of same-annotation operators into tasks: a modified
depth-first post-order traversal compares each node's annotation to its
parent's, and at every boundary cuts the subtree into its own task,
inserting a *placeholder scan* (the paper's dummy "?" operator) in the
consumer.  Minimizing the number of tasks keeps delegation round-trips
low and gives the underlying DBMSes maximal local-optimization freedom.

When a producing task's output would expose duplicate column names
(impossible for a view), the finalizer interposes a normalization
projection and rewrites the consumer's expressions accordingly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.annotate import Annotation
from repro.core.plan import DelegationPlan, Movement, Task
from repro.errors import OptimizerError
from repro.relational import algebra
from repro.relational.builder import rebuild_expression, unique_names
from repro.sql import ast

#: (relation_lower | None, old_name_lower) -> new name
RenameMap = Dict[Tuple[Optional[str], str], str]


class PlanFinalizer:
    """Builds the delegation plan from an annotated logical plan."""

    def finalize(
        self, plan: algebra.LogicalPlan, annotation: Annotation
    ) -> DelegationPlan:
        dplan = DelegationPlan()
        root_task, _ = self._make_task(plan, annotation, dplan)
        dplan.set_root(root_task)
        return dplan

    # -- task construction ----------------------------------------------------

    def _make_task(
        self,
        root: algebra.LogicalPlan,
        annotation: Annotation,
        dplan: DelegationPlan,
    ) -> Tuple[Task, RenameMap]:
        """Build the task rooted at ``root``; also return the renames its
        output still carries (a normalization below an operator that
        does not rename its outputs itself), which its consumer must
        apply to references into it."""
        db = annotation.db_of(root)
        deps: List[Tuple[Task, Movement, str]] = []
        expr, renames = self._rebuild(root, db, annotation, dplan, deps)
        task = dplan.new_task(
            db, expr, root.estimated_rows or 0.0, source_expr=root
        )
        for child_task, movement, placeholder in deps:
            dplan.add_edge(child_task, task, movement, placeholder)
        return task, renames

    def _rebuild(
        self,
        node: algebra.LogicalPlan,
        db: str,
        annotation: Annotation,
        dplan: DelegationPlan,
        deps: List[Tuple[Task, Movement, str]],
    ) -> Tuple[algebra.LogicalPlan, RenameMap]:
        if isinstance(node, algebra.Scan):
            return node, {}

        new_children: List[algebra.LogicalPlan] = []
        renames: RenameMap = {}
        for child in node.children():
            if annotation.db_of(child) == db:
                rebuilt, child_renames = self._rebuild(
                    child, db, annotation, dplan, deps
                )
                new_children.append(rebuilt)
                renames.update(child_renames)
            else:
                placeholder, child_renames = self._cut(
                    child, node, annotation, dplan, deps
                )
                new_children.append(placeholder)
                renames.update(child_renames)

        if renames:
            rebuilt = _rebuild_with_renames(node, new_children, renames)
        else:
            rebuilt = node.with_children(new_children)
        if isinstance(rebuilt, (algebra.Project, algebra.Aggregate)):
            # Outputs are (re)named by the node itself; renames below it
            # are fully absorbed here.
            renames = {}
        return rebuilt, renames

    def _cut(
        self,
        child: algebra.LogicalPlan,
        parent: algebra.LogicalPlan,
        annotation: Annotation,
        dplan: DelegationPlan,
        deps: List[Tuple[Task, Movement, str]],
    ) -> Tuple[algebra.Scan, RenameMap]:
        """Cut ``child`` into its own task and return its placeholder,
        with the renames the consumer must apply: those the child task's
        output carries, composed with this cut's own normalization."""
        child_task, inner = self._make_task(child, annotation, dplan)

        renames: RenameMap = {}
        schema = child_task.expr.schema
        names = schema.names
        lowered = [name.lower() for name in names]
        if len(set(lowered)) != len(lowered):
            fresh = unique_names(names)
            items = [
                algebra.ProjectItem(
                    ast.ColumnRef(field.name, field.relation), new_name
                )
                for field, new_name in zip(schema, fresh)
            ]
            child_task.expr = algebra.Project(child_task.expr, items)
            for field, new_name in zip(schema, fresh):
                if new_name != field.name:
                    relation = (
                        field.relation.lower() if field.relation else None
                    )
                    renames[(relation, field.name.lower())] = new_name
            schema = child_task.expr.schema
        for (relation, old), new in inner.items():
            renames.setdefault(
                (relation, old), renames.get((relation, new.lower()), new)
            )

        binding = f"xin_{child_task.task_id}"
        placeholder = algebra.Scan(
            table=f"__placeholder_{child_task.task_id}",
            binding=binding,
            schema=schema,
            source_db=None,
            placeholder=True,
            requalify=False,
        )
        placeholder.estimated_rows = child.estimated_rows

        movement = annotation.move_of(child, parent)
        deps.append((child_task, movement, binding))
        return placeholder, renames


# ---------------------------------------------------------------------------
# expression rename rewriting
# ---------------------------------------------------------------------------


def _rename_expr(
    expr: ast.Expression, renames: RenameMap
) -> ast.Expression:
    def replace(node: ast.Expression):
        if isinstance(node, ast.ColumnRef):
            relation = node.table.lower() if node.table else None
            new_name = renames.get((relation, node.name.lower()))
            if new_name is not None:
                return ast.ColumnRef(new_name, node.table)
        return None

    return rebuild_expression(expr, replace)


def _rebuild_with_renames(
    node: algebra.LogicalPlan,
    children: List[algebra.LogicalPlan],
    renames: RenameMap,
) -> algebra.LogicalPlan:
    """Reconstruct ``node`` over ``children`` with its expressions
    rewritten under ``renames`` (constructors type-check eagerly, so the
    rewrite must happen during reconstruction)."""
    if isinstance(node, algebra.Filter):
        (child,) = children
        return algebra.Filter(child, _rename_expr(node.predicate, renames))
    if isinstance(node, algebra.Project):
        (child,) = children
        items = [
            algebra.ProjectItem(_rename_expr(item.expr, renames), item.name)
            for item in node.items
        ]
        return algebra.Project(child, items)
    if isinstance(node, algebra.Join):
        left, right = children
        condition = (
            _rename_expr(node.condition, renames)
            if node.condition is not None
            else None
        )
        return algebra.Join(left, right, condition, node.kind)
    if isinstance(node, algebra.Aggregate):
        (child,) = children
        keys = [
            algebra.ProjectItem(_rename_expr(key.expr, renames), key.name)
            for key in node.keys
        ]
        aggregates = [
            algebra.AggregateSpec(
                spec.func,
                _rename_expr(spec.arg, renames)
                if spec.arg is not None
                else None,
                spec.name,
                spec.distinct,
            )
            for spec in node.aggregates
        ]
        return algebra.Aggregate(child, keys, aggregates)
    if isinstance(node, algebra.Sort):
        (child,) = children
        keys = [
            algebra.SortKey(_rename_expr(key.expr, renames), key.ascending)
            for key in node.keys
        ]
        return algebra.Sort(child, keys)
    if isinstance(node, algebra.Union):
        left, right = children
        return algebra.Union(
            left,
            right,
            schema=node.schema if node.explicit_schema else None,
        )
    if isinstance(node, (algebra.Limit, algebra.Distinct, algebra.Alias)):
        return node.with_children(children)
    raise OptimizerError(
        f"cannot rewrite expressions of {type(node).__name__}"
    )
