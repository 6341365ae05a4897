"""The columnar executor is the default reference on every differential path.

``"row"`` stays selectable; ``tests/test_columnar.py`` pins the two executors
to each other.  These tests pin the default itself, the preload that keeps it
out of a forked worker's setup, and the per-row subquery re-execution it
removes from a default run.
"""

import argparse
import os
import subprocess
import sys
import textwrap

import pytest

import repro

from repro.backends import SQLiteBackend
from repro.core.campaign import (
    CampaignConfig,
    CampaignSpec,
    build_differential_tester,
)
from repro.core.differential import DifferentialTester
from repro.core.parallel import main as parallel_main
from repro.distributed.cli import _add_campaign_arguments
from repro.engine.columnar import ColumnarExecutor
from repro.engine.engine import reference_engine
from repro.expr.ast import ColumnRef, Comparison, ScalarSubquery
from repro.optimizer.planner import Planner
from repro.plan.logical import AggregateFunction, QuerySpec, SelectItem, TableRef


def test_campaign_configs_default_to_columnar():
    assert CampaignConfig().reference_executor == "columnar"
    assert CampaignSpec().reference_executor == "columnar"
    assert CampaignSpec().campaign_config().reference_executor == "columnar"


def test_both_clis_default_to_columnar(capsys):
    parser = argparse.ArgumentParser()
    _add_campaign_arguments(parser)
    assert parser.parse_args([]).executor == "columnar"
    assert parser.parse_args(["--executor", "row"]).executor == "row"
    with pytest.raises(SystemExit):
        parallel_main(["--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "(default: columnar)" in help_text


def test_differential_testers_default_to_columnar(shopping_dsg):
    tester = DifferentialTester(shopping_dsg, SQLiteBackend())
    try:
        assert isinstance(tester.reference.executor, ColumnarExecutor)
    finally:
        tester.close()
    built = build_differential_tester(SQLiteBackend(),
                                      CampaignConfig(dataset_rows=20))
    try:
        assert isinstance(built.reference.executor, ColumnarExecutor)
    finally:
        built.close()


def test_forked_workers_inherit_the_columnar_module():
    # A fresh interpreter, as a campaign script starts: importing the pool
    # module must already load the executor, so a forked worker never pays
    # for the import inside its setup.
    script = textwrap.dedent("""
        import multiprocessing, sys
        import repro.core.parallel

        def probe(queue):
            queue.put("repro.engine.columnar" in sys.modules)

        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        worker = context.Process(target=probe, args=(queue,))
        worker.start()
        found = queue.get(timeout=60)
        worker.join(timeout=60)
        sys.exit(0 if found else 3)
    """)
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": source_root}
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr


# ------------------------------------- uncorrelated scalar subqueries, counted


def subquery_query():
    """Scalar subqueries in WHERE and SELECT over the shopping orders table.

    ``SELECT T1.orderId, (SELECT MAX(sq1.goodsId) FROM T1 AS sq1)
    FROM T1 WHERE T1.goodsId <= (SELECT MAX(sq0.goodsId) FROM T1 AS sq0)``
    """
    def maximum(alias):
        return QuerySpec(
            base=TableRef("T1", alias),
            select=[SelectItem(ColumnRef(alias, "goodsId"),
                               aggregate=AggregateFunction.MAX)],
            distinct=False,
        )

    in_where, in_select = maximum("sq0"), maximum("sq1")
    query = QuerySpec(
        base=TableRef("T1", "T1"),
        select=[SelectItem(ColumnRef("T1", "orderId")),
                SelectItem(ScalarSubquery(in_select), alias="sq_value")],
        where=Comparison("<=", ColumnRef("T1", "goodsId"),
                         ScalarSubquery(in_where)),
        distinct=False,
    )
    return query, (in_where, in_select)


def count_runs(monkeypatch, owner, method, subqueries):
    """Count calls of ``owner.method`` whose spec is one of *subqueries*."""
    runs = {id(spec): 0 for spec in subqueries}
    original = getattr(owner, method)

    def counting(self, *args, **kwargs):
        spec = next((arg for arg in args if isinstance(arg, QuerySpec)), None)
        if spec is not None and id(spec) in runs:
            runs[id(spec)] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, method, counting)
    return runs


def test_default_reference_runs_each_scalar_subquery_once(monkeypatch):
    tester = build_differential_tester(
        SQLiteBackend(), CampaignConfig(dataset_rows=40, seed=5)
    )
    try:
        query, subqueries = subquery_query()
        runs = count_runs(monkeypatch, ColumnarExecutor, "_execute_spec",
                          subqueries)
        outcome = tester.oracle.check(query, "scalar-subqueries")
        assert outcome.incident is None
        assert outcome.reference_rows > 1
        assert list(runs.values()) == [1, 1]
    finally:
        tester.close()


def test_row_reference_reruns_scalar_subqueries_per_outer_row(
        monkeypatch, shopping_dsg):
    # The counter's sensitivity check: the row interpreter re-plans an
    # uncorrelated scalar subquery for every outer row it evaluates.
    engine = reference_engine(shopping_dsg.database, executor="row")
    query, subqueries = subquery_query()
    runs = count_runs(monkeypatch, Planner, "plan", subqueries)
    result = engine.execute(query)
    scanned = len(shopping_dsg.database.table("T1"))
    assert runs[id(subqueries[0])] == scanned > 1
    assert runs[id(subqueries[1])] == len(result) > 1
