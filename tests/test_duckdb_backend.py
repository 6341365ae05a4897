"""DuckDB adapter tests — skip-marked when the optional driver is absent.

CI runs these in a dedicated optional-deps leg that `pip install duckdb`;
without the driver the whole module skips (the import gate itself is covered
unconditionally in test_backend_registry.py).
"""

from __future__ import annotations

import pytest

duckdb = pytest.importorskip("duckdb")

from repro.backends import DuckDBBackend  # noqa: E402
from repro.core import (  # noqa: E402
    CampaignConfig,
    PipelineConfig,
    run_differential_campaign,
)
from repro.core.differential import DifferentialOracle  # noqa: E402
from repro.dsg import DSG, DSGConfig  # noqa: E402
from repro.engine import reference_engine  # noqa: E402


def deployed_backend(seed=21, rows=80):
    dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=rows, seed=seed))
    backend = DuckDBBackend()
    backend.deploy(dsg.database)
    return dsg, backend


class TestRoundTrip:
    def test_deploy_and_row_counts(self):
        dsg, backend = deployed_backend()
        try:
            for name in dsg.database.table_names:
                count = backend.execute_sql(
                    f'SELECT COUNT(*) AS n FROM "{name}"'
                )
                assert count.rows[0][0] == len(dsg.database.table(name).rows)
        finally:
            backend.close()

    def test_generated_queries_agree_with_reference(self):
        dsg, backend = deployed_backend()
        reference = reference_engine(dsg.database)
        oracle = DifferentialOracle(reference, backend)
        checked = 0
        try:
            while checked < 25:
                try:
                    query = dsg.generate_query()
                except Exception:
                    continue
                outcome = oracle.check(query)
                if not outcome.skipped:
                    checked += 1
                    assert outcome.matched, (
                        f"DuckDB disagreed with the reference:\n{outcome.sql}"
                    )
        finally:
            backend.close()

    def test_close_twice_is_safe(self):
        _, backend = deployed_backend()
        backend.close()
        backend.close()


class TestDifferentialCampaign:
    def test_campaign_runs_with_zero_false_positives(self):
        result = run_differential_campaign(
            DuckDBBackend(), CampaignConfig(hours=2, queries_per_hour=6, seed=9)
        )
        assert result.dbms == "DuckDB"
        assert result.final.queries_executed > 0
        assert result.final.bug_count == 0, (
            f"false positives against DuckDB: "
            f"{[i.query_sql for i in result.bug_log.incidents[:3]]}"
        )

    def test_pipelined_campaign_matches_serial(self):
        config = CampaignConfig(hours=2, queries_per_hour=6, seed=9)
        serial = run_differential_campaign(DuckDBBackend(), config)
        pipelined = run_differential_campaign(
            DuckDBBackend(), config, pipeline=PipelineConfig(batch_size=4)
        )
        assert serial.samples == pipelined.samples

    def test_widened_grammar_campaign_zero_false_positives(self):
        # The widened SQL surface — UNION / UNION ALL / INTERSECT / EXCEPT
        # compounds, WITH-wrapped statements and uncorrelated scalar
        # subqueries — differentially against real DuckDB.  DuckDB's default
        # NULL placement on ORDER BY (NULLS LAST ascending) differs from the
        # reference, so this also exercises the explicit NULLS clause path.
        result = run_differential_campaign(
            DuckDBBackend(),
            CampaignConfig(hours=2, queries_per_hour=60, seed=17,
                           dataset_rows=100,
                           setop_probability=0.4,
                           scalar_subquery_probability=0.3,
                           cte_probability=0.25),
        )
        assert result.final.queries_executed >= 100
        assert result.final.bug_count == 0, (
            f"false positives against DuckDB: "
            f"{[i.query_sql for i in result.bug_log.incidents[:3]]}"
        )


class TestNullOrdering:
    def test_order_by_nullable_column_matches_reference(self):
        from repro.backends.sqlrender import DUCKDB_DIALECT
        from repro.expr.ast import ColumnRef
        from repro.plan.logical import (
            OrderItem,
            QuerySpec,
            SelectItem,
            TableRef,
        )

        assert DUCKDB_DIALECT.supports_nulls_ordering
        dsg, backend = deployed_backend(seed=1, rows=120)
        reference = reference_engine(dsg.database)
        try:
            for descending in (False, True):
                query = QuerySpec(
                    base=TableRef("T1", "T1"),
                    select=[SelectItem(ColumnRef("T1", "goodsId"))],
                    order_by=[OrderItem(ColumnRef("T1", "goodsId"),
                                        descending=descending)],
                    distinct=False,
                )
                execution = backend.execute(query)
                assert "NULLS" in execution.sql
                expected = reference.execute(query)
                # Order-sensitive on purpose: DuckDB's *default* placement
                # disagrees with the reference; the explicit clause fixes it.
                assert list(expected.rows) == list(execution.result.rows)
        finally:
            backend.close()
