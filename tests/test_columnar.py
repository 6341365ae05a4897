"""Row executor == columnar executor, exactly, over generated queries.

The columnar executor is only admissible as a reference backend if it is
indistinguishable from the row interpreter: same columns, same rows in the
same order, same value *types* (int vs float vs Decimal vs NULL), for every
query the DSG random walk can produce — with and without numpy.  The
property test below draws (dataset, seed, query, numpy-mode) combinations
from cached pools so hypothesis explores the space without rebuilding
databases per example.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import CampaignSpec, DSG, DSGConfig, reference_engine, run_campaign
from repro.engine.columnar import ColumnarExecutor
from repro.engine.executor import executor_from_name, registered_executors
from repro.errors import ExecutionError

DATASETS = ("shopping", "kddcup")
SEEDS = (1, 2, 3)
POOL_SIZE = 30

_DSG_CACHE = {}
_QUERY_CACHE = {}


def dsg_for(dataset, seed):
    key = (dataset, seed)
    if key not in _DSG_CACHE:
        _DSG_CACHE[key] = DSG(
            DSGConfig(dataset=dataset, dataset_rows=90, seed=seed)
        )
    return _DSG_CACHE[key]


def query_pool(dataset, seed):
    key = (dataset, seed)
    if key not in _QUERY_CACHE:
        dsg = dsg_for(dataset, seed)
        _QUERY_CACHE[key] = dsg.query_generator.generate_many(POOL_SIZE)
    return _QUERY_CACHE[key]


def typed_rows(result):
    """Rows with every value tagged by its concrete type.

    ``1 == 1.0 == True`` in Python, so plain tuple equality would let a
    type drift (int result where the row engine produced float) slip by.
    """
    return [tuple((type(v).__name__, v) for v in row) for row in result.rows]


@settings(max_examples=60, deadline=None)
@given(
    dataset=st.sampled_from(DATASETS),
    seed=st.sampled_from(SEEDS),
    index=st.integers(0, POOL_SIZE - 1),
    use_numpy=st.booleans(),
)
def test_columnar_matches_row_executor_exactly(dataset, seed, index, use_numpy):
    dsg = dsg_for(dataset, seed)
    pool = query_pool(dataset, seed)
    query = pool[index % len(pool)]

    row_result = reference_engine(dsg.database).execute(query)
    columnar = ColumnarExecutor(use_numpy=use_numpy)
    col_result = reference_engine(dsg.database, executor=columnar).execute(query)

    assert col_result.columns == row_result.columns
    assert typed_rows(col_result) == typed_rows(row_result)
    assert col_result.normalized() == row_result.normalized()


def test_disable_numpy_env_forces_pure_python(monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
    assert ColumnarExecutor()._np is None
    monkeypatch.delenv("REPRO_DISABLE_NUMPY")
    assert ColumnarExecutor(use_numpy=False)._np is None


def test_executor_registry_round_trip():
    names = registered_executors()
    assert "columnar" in names and "row" in names
    assert executor_from_name("columnar").name == "columnar"
    with pytest.raises(KeyError):
        executor_from_name("vectorized-but-wrong")


def test_engine_accepts_executor_by_name():
    dsg = dsg_for("shopping", 1)
    engine = reference_engine(dsg.database, executor="columnar")
    query = query_pool("shopping", 1)[0]
    assert engine.execute(query).columns == (
        reference_engine(dsg.database).execute(query).columns
    )


def test_columnar_rejects_negative_limit():
    dsg = dsg_for("shopping", 1)
    query = query_pool("shopping", 1)[0]
    bad = dataclasses.replace(query, limit=-1)
    engine = reference_engine(dsg.database, executor="columnar")
    with pytest.raises(ExecutionError):
        engine.execute(bad)


# ------------------------------------------------- campaign-level contract

CAMPAIGN = dict(kind="differential", backend="sqlite", dataset="shopping",
                dataset_rows=70, hours=2, queries_per_hour=10, seed=3)


def verdicts(result):
    assert result.bug_log is not None
    return (
        tuple(result.samples),
        tuple(incident.query_sql for incident in result.bug_log.incidents),
    )


def test_row_equals_columnar_campaign_serial():
    row = run_campaign(CampaignSpec(**CAMPAIGN, reference_executor="row"))
    columnar = run_campaign(
        CampaignSpec(**CAMPAIGN, reference_executor="columnar")
    )
    assert verdicts(row) == verdicts(columnar)


def test_row_equals_columnar_campaign_pooled():
    row = run_campaign(CampaignSpec(**CAMPAIGN, workers=2,
                                    reference_executor="row"))
    columnar = run_campaign(
        CampaignSpec(**CAMPAIGN, workers=2, reference_executor="columnar")
    )
    assert verdicts(row.merged) == verdicts(columnar.merged)
