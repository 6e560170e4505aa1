"""Reference executor: the planner's correctness oracle.

Executes a parsed SELECT with *no* optimization at all — full unfiltered
scans of every table, engine-side filters, syntactic-order nested hash
joins, engine-side aggregation in canonical group order.  Slow on
purpose: any divergence between this and the planned pipeline is a
planner bug, never a reference bug.  The property suite asserts
``planned ≡ unplanned`` row-for-row over randomized queries and data.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import SqlPlanError
from repro.sql.parser import Select, SubqueryRef, parse
from repro.sql.planner.rowops import (
    aggregate_rows,
    compile_condition,
    order_rows,
    project_row,
    sort_keys_for,
)


class ReferenceExecutor:
    """Deliberately naive federated executor over the same catalog."""

    def __init__(self, catalog: dict[str, Any]) -> None:
        self.catalog = catalog

    def execute(self, sql: str) -> list[dict[str, Any]]:
        return self._execute_select(parse(sql))

    # -- internals ------------------------------------------------------------

    def _scan_all(self, table: str) -> list[dict[str, Any]]:
        from repro.sql.presto.connector import ScanRequest

        if table not in self.catalog:
            raise SqlPlanError(f"table {table!r} is not in the Presto catalog")
        return self.catalog[table].scan(ScanRequest(table=table)).as_rows()

    def _rows_for(self, table_source) -> tuple[str, list[dict[str, Any]]]:
        if isinstance(table_source, SubqueryRef):
            return table_source.alias, self._execute_select(table_source.select)
        alias = table_source.alias or table_source.name
        return alias, self._scan_all(table_source.name)

    def _execute_select(self, select: Select) -> list[dict[str, Any]]:
        if select.window() is not None:
            raise SqlPlanError(
                "TUMBLE/HOP windows are streaming SQL; use FlinkSqlCompiler"
            )
        qualified = bool(select.joins)
        if select.joins:
            base_alias, base_rows = self._rows_for(select.source)
            rows = [
                {f"{base_alias}.{k}": v for k, v in row.items()}
                for row in base_rows
            ]
            for clause in select.joins:
                right_alias, right_rows = self._rows_for(clause.table)
                left_key, right_key = clause.left_key, clause.right_key
                if right_key.table == base_alias or left_key.table == right_alias:
                    left_key, right_key = right_key, left_key
                build: dict[Any, list[dict]] = {}
                for row in right_rows:
                    build.setdefault(row.get(right_key.name), []).append(row)
                out = []
                for row in rows:
                    key = row.get(f"{left_key.table}.{left_key.name}")
                    for match in build.get(key, []):
                        merged = dict(row)
                        merged.update(
                            {f"{right_alias}.{k}": v for k, v in match.items()}
                        )
                        out.append(merged)
                rows = out
        else:
            __, rows = self._rows_for(select.source)
        if select.where is not None:
            keep = compile_condition(select.where, qualified)
            rows = [r for r in rows if keep(r)]
        aggs = select.aggregations()
        if aggs:
            rows = aggregate_rows(
                list(select.group_columns()), list(aggs), rows, qualified
            )
            if select.having is not None:
                keep = compile_condition(select.having)
                rows = [r for r in rows if keep(r)]
        else:
            rows = [project_row(list(select.items), row, qualified) for row in rows]
        return order_rows(sort_keys_for(select), rows, select.limit)
