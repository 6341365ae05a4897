"""The KQE per-query savings: graph memos, shared labels and the lazy LSH.

Each saving must leave every result unchanged: a memoized embedding equals a
fresh one, a lazily built LSH holds the same buckets as an eager one, and a
campaign run in a warm process generates what it generates in a cold one.
"""

import dataclasses
import random

import numpy
import pytest

from repro.core.campaign import CampaignSpec, run_campaign
from repro.core.differential import DifferentialTester
from repro.core.tqs import TQS
from repro.expr import ColumnRef, column
from repro.kqe import KQE, GraphEmbedder, GraphIndex, QueryGraph
from repro.kqe.lsh import hyperplane_stream
from repro.kqe.memo import (
    EMBEDDINGS,
    GRAPH_MEMO_LIMIT,
    SKELETON_LABELS,
    clear_graph_memos,
)
from repro.plan import JoinStep, JoinType, QuerySpec, SelectItem, TableRef


def synthetic_vectors(count, dims, seed="lazy-lsh"):
    flat = hyperplane_stream(seed, count * dims)
    return [flat[i * dims : (i + 1) * dims] for i in range(count)]


def fk_join_query(dsg):
    """``child JOIN parent`` along the schema's first foreign key."""
    fk = dsg.ndb.schema.foreign_keys[0]
    child, parent, key = fk.table, fk.ref_table, fk.columns[0]
    return QuerySpec(
        base=TableRef(child, child),
        joins=[JoinStep(TableRef(parent, parent), JoinType.INNER,
                        left_key=ColumnRef(child, key),
                        right_key=ColumnRef(parent, key))],
        select=[SelectItem(column(child, dsg.ndb.data_columns(child)[0]))],
    )


def chain_graph(length):
    """A path of *length* table vertices: distinct values for every length."""
    vertices = tuple((f"t{i}", "table") for i in range(length))
    edges = tuple((f"t{i}", f"t{i + 1}", "inner join") for i in range(length - 1))
    return QueryGraph(vertices, edges)


# ------------------------------------------------------------------ lazy LSH


def mixed_vectors(dims):
    """Full-width rows plus a short and a wide one (padding and widening)."""
    vectors = synthetic_vectors(40, dims)
    vectors.insert(5, vectors[5][: dims // 2])
    vectors.insert(11, vectors[11] + [0.25] * 6)
    return vectors


def eager_index(lsh_min_size):
    """An index whose LSH exists from the first insert (the old behaviour)."""
    index = GraphIndex(lsh_min_size=lsh_min_size)
    index._lsh = index._build_lsh()
    return index


class TestLazyLSH:
    def test_no_tables_until_the_threshold_is_passed(self):
        index = GraphIndex(lsh_min_size=8)
        for vector in synthetic_vectors(8, index.embedder.dimensions):
            index.add_embedding(vector, "L")
        assert index._lsh is None
        index.add_embedding(synthetic_vectors(1, 64, seed="ninth")[0], "L")
        assert index._lsh is not None and len(index._lsh) == 9

    def test_lazy_tables_equal_eager_tables(self):
        lazy = GraphIndex(lsh_min_size=8)
        eager = eager_index(lsh_min_size=8)
        for position, vector in enumerate(mixed_vectors(64)):
            lazy.add_embedding(vector, f"L{position % 7}")
            eager.add_embedding(vector, f"L{position % 7}")
        assert lazy._lsh._buckets == eager._lsh._buckets
        for query in synthetic_vectors(12, 64, seed="queries"):
            assert (lazy.nearest_by_vector(query, k=5, approximate=True)
                    == eager.nearest_by_vector(query, k=5, approximate=True))

    def test_snapshot_round_trip_is_bit_identical(self, tmp_path):
        index = GraphIndex(lsh_min_size=8)
        for position, vector in enumerate(mixed_vectors(64)):
            index.add_embedding(vector, f"L{position % 5}")
        first = tmp_path / "first.snap"
        second = tmp_path / "second.snap"
        index.save_snapshot(str(first))
        restored = GraphIndex.load_snapshot(str(first), lsh_min_size=8)
        restored.save_snapshot(str(second))
        assert first.read_bytes() == second.read_bytes()
        assert restored._lsh._buckets == index._lsh._buckets
        for query in synthetic_vectors(6, 64, seed="restored"):
            assert (restored.nearest_by_vector(query, k=3)
                    == index.nearest_by_vector(query, k=3))


# --------------------------------------------------------------------- memos


class TestGraphMemos:
    def test_memoized_embedding_equals_a_fresh_one(self):
        embedder = GraphEmbedder()
        graph = chain_graph(4)
        clear_graph_memos()
        cold = embedder.embed(graph)
        warm = embedder.embed(chain_graph(4))
        assert warm is cold
        assert numpy.array_equal(warm, embedder._embed(graph))

    def test_memoized_embedding_is_read_only(self):
        vector = GraphEmbedder().embed(chain_graph(3))
        assert not vector.flags.writeable
        with pytest.raises(ValueError):
            vector[0] = 1.0

    def test_embedder_config_is_part_of_the_key(self):
        graph = chain_graph(3)
        assert GraphEmbedder(dimensions=32).embed(graph).shape == (32,)
        assert GraphEmbedder(dimensions=64).embed(graph).shape == (64,)
        deeper = GraphEmbedder(iterations=3)
        assert numpy.array_equal(deeper.embed(graph), deeper._embed(graph))

    def test_memos_stay_within_their_bound(self, monkeypatch):
        assert EMBEDDINGS.limit == SKELETON_LABELS.limit == GRAPH_MEMO_LIMIT
        monkeypatch.setattr(EMBEDDINGS, "limit", 8)
        monkeypatch.setattr(SKELETON_LABELS, "limit", 8)
        embedder = GraphEmbedder()
        index = GraphIndex(embedder)
        for length in range(1, 21):
            index.add(chain_graph(length))
            assert len(EMBEDDINGS) <= 8
            assert len(SKELETON_LABELS) <= 8
        # The oldest entries were evicted; an evicted graph is recomputed.
        assert numpy.array_equal(embedder.embed(chain_graph(1)),
                                 embedder._embed(chain_graph(1)))

    def test_register_takes_the_callers_graph_and_label(self, shopping_dsg):
        query = fk_join_query(shopping_dsg)
        computed = KQE(shopping_dsg.ndb.schema, rng=random.Random(7))
        handed = KQE(shopping_dsg.ndb.schema, rng=random.Random(7))
        graph = handed.builder.build(query)
        label = graph.canonical_label()
        for _ in range(2):
            assert (computed.register(query)
                    == handed.register(query, graph=graph, label=label))
        assert computed.counter.labels == handed.counter.labels
        assert computed.explored_graphs == handed.explored_graphs == 2


# ------------------------------------------- cache-warm == cache-cold campaigns


def record_campaign(spec, monkeypatch):
    """The SQL stream and hourly samples of one seeded campaign."""
    statements = []
    with monkeypatch.context() as patch:
        for tester in (DifferentialTester, TQS):
            original = tester.run_iteration

            def run_iteration(self, _original=original):
                outcome = _original(self)
                statements.append(outcome.query.render())
                return outcome

            patch.setattr(tester, "run_iteration", run_iteration)
        result = run_campaign(spec)
    return statements, result.samples


@pytest.mark.parametrize("spec", [
    CampaignSpec(kind="differential", backend="sqlite", dataset_rows=40,
                 hours=2, queries_per_hour=6, seed=31),
    CampaignSpec(kind="tqs", dialect="SimMySQL", dataset_rows=10, hours=2,
                 queries_per_hour=6, seed=32),
], ids=["differential", "tqs"])
def test_warm_memos_change_nothing(spec, monkeypatch):
    clear_graph_memos()
    cold = record_campaign(spec, monkeypatch)
    assert len(EMBEDDINGS) > 0
    # Warm the memos with other campaigns' graphs too, then replay.
    for seed in (41, 42):
        record_campaign(dataclasses.replace(spec, seed=seed), monkeypatch)
    warm = record_campaign(spec, monkeypatch)
    assert cold[0] and warm == cold

