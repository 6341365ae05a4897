"""The embedding-based graph index GI (paper §4).

The paper uses HD-Index for approximate KNN search over query-graph
embeddings.  This index plays that role deterministically and at scale:
embeddings live in one contiguous float64 matrix (:mod:`repro.kqe.store`),
so exact KNN is a single vectorized matrix-vector cosine, and a
sign-random-projection LSH (:mod:`repro.kqe.lsh`, seeded from the embedder
configuration) prefilters ``nearest(approximate=True)`` to a bounded
candidate set once the index outgrows brute force — the Hilbert-ordered
pruning of HD-Index, done with hash tables.  The LSH tables are built only
when the index first grows past ``lsh_min_size``, by replaying every stored
row in insertion order, so they are byte-identical to tables filled from the
first insert while a small index never pays for hyperplanes or hashing.

The whole index round-trips through the checksummed snapshot log of
:mod:`repro.kqe.snapshot` (``save_snapshot``/``load_snapshot``), which is
what lets the distributed server restart into a bit-identical state.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import SnapshotError
from repro.kqe.embedding import GraphEmbedder
from repro.kqe.lsh import SignRandomProjectionLSH
from repro.kqe.memo import SKELETON_LABELS
from repro.kqe.query_graph import QueryGraph
from repro.kqe.store import EntryBatch, VectorStore

#: Below this size an exact scan beats any prefilter; it is also the regime
#: every unit test and short campaign lives in, so approximate == exact there.
DEFAULT_LSH_MIN_SIZE = 4096


def lsh_seed_material(embedder: GraphEmbedder) -> str:
    """The LSH hyperplane seed: a pure function of the embedder config.

    Every worker holding the same embedder configuration derives the same
    tables, so LSH candidate sets (and therefore approximate-KNN results)
    agree across processes, restarts and snapshot replays.
    """
    return f"kqe-lsh:v1:{embedder.dimensions}:{embedder.iterations}"


class GraphIndex:
    """Approximate-KNN index over query-graph embeddings."""

    def __init__(
        self,
        embedder: Optional[GraphEmbedder] = None,
        lsh_tables: int = 8,
        lsh_bits: int = 12,
        lsh_min_size: int = DEFAULT_LSH_MIN_SIZE,
        use_numpy: Optional[bool] = None,
    ) -> None:
        self.embedder = embedder or GraphEmbedder()
        self.lsh_min_size = lsh_min_size
        self._store = VectorStore(dims=self.embedder.dimensions, use_numpy=use_numpy)
        self._canonical_labels: List[str] = []
        # Persistent multiset of canonical labels: membership checks and the
        # distinct-label count sit on the campaign hot path (once per generated
        # query), so they must not rebuild set(self._canonical_labels) — that
        # turns a campaign into O(n^2) over the index size.
        self._label_counts: Counter = Counter()
        # The LSH prefilter only pays off with vectorized scoring behind it;
        # the pure-Python fallback scans exactly (still deterministic).  It is
        # built the first time the store grows past lsh_min_size.
        self._lsh_tables = lsh_tables
        self._lsh_bits = lsh_bits
        self._lsh: Optional[SignRandomProjectionLSH] = None

    def __len__(self) -> int:
        return len(self._store)

    # --------------------------------------------------------------- insertion

    def add(self, graph: QueryGraph) -> Any:
        """Insert a query graph; returns its embedding."""
        vector = self.embedder.embed(graph)
        label = SKELETON_LABELS.get(graph, graph.canonical_label)
        self.add_embedding(vector, label)
        return vector

    def add_embedding(self, vector: Sequence[float], canonical_label: str = "") -> None:
        """Insert a pre-computed embedding (used by the parallel-search driver)."""
        index = self._store.append(vector)
        self._canonical_labels.append(canonical_label)
        self._label_counts[canonical_label] += 1
        if self._lsh is not None:
            self._lsh.insert(index, vector)
        elif self._store.uses_numpy and len(self._store) > self.lsh_min_size:
            self._lsh = self._build_lsh()

    def _build_lsh(self) -> SignRandomProjectionLSH:
        """LSH tables over every stored row, inserted in insertion order.

        A stored row is the inserted vector zero-padded to the store's width,
        and the LSH pads or truncates to the embedder's width before hashing,
        so each row lands in the buckets its original insert would have.
        """
        lsh = SignRandomProjectionLSH(
            dims=self.embedder.dimensions,
            tables=self._lsh_tables,
            bits=self._lsh_bits,
            seed_material=lsh_seed_material(self.embedder),
            use_numpy=True,
        )
        for position in range(len(self._store)):
            lsh.insert(position, self._store.row(position))
        return lsh

    def entries_since(self, start: int) -> EntryBatch:
        """The (embedding, canonical label) pairs inserted at position >= *start*.

        The parallel campaign runner uses this to ship each worker's newly
        explored query graphs to the coordinator between synchronization
        rounds.  Returned as an :class:`~repro.kqe.store.EntryBatch` view into
        the store's matrix — list-compatible, but nothing is copied until the
        batch is actually read (or shipped via ``to_wire()``).
        """
        return EntryBatch(self._store, self._canonical_labels[start:], start)

    # ------------------------------------------------------------------ search

    def nearest(
        self, graph: QueryGraph, k: int = 5, approximate: bool = True
    ) -> List[Tuple[int, float]]:
        """K nearest neighbours of *graph* as (index, cosine similarity) pairs."""
        vector = self.embedder.embed(graph)
        return self.nearest_by_vector(vector, k=k, approximate=approximate)

    def nearest_by_vector(
        self, vector: Sequence[float], k: int = 5, approximate: bool = True
    ) -> List[Tuple[int, float]]:
        """K nearest neighbours of an embedding vector."""
        if len(self._store) == 0:
            return []
        counters = obs.get_registry()
        candidates: Optional[Sequence[int]] = None
        if approximate and self._lsh is not None:
            candidates = self._lsh.candidates(vector)
            if (
                len(candidates) < max(k, 16)
                or len(candidates) * 4 >= len(self._store)
            ):
                # Too few collisions to trust the prefilter — or so many that
                # gathering the candidate rows costs more than scanning them
                # all; either way the exact scan is the better answer.
                candidates = None
            else:
                counters.counter("index.knn.lsh_queries").inc()
                counters.counter("index.knn.lsh_candidates").inc(len(candidates))
        if candidates is None:
            counters.counter("index.knn.exact_queries").inc()
        return self._store.top_k(vector, k, candidates)

    # -------------------------------------------------------------- statistics

    def distinct_canonical_labels(self) -> int:
        """Number of distinct isomorphism classes inserted so far."""
        return len(self._label_counts)

    def contains_isomorphic(self, graph: QueryGraph) -> bool:
        """True when an isomorphic graph (same canonical label) was already added."""
        return graph.canonical_label() in self._label_counts

    def contains_label(self, canonical_label: str) -> bool:
        """Membership check by pre-computed canonical label."""
        return canonical_label in self._label_counts

    # ------------------------------------------------------------- persistence

    def save_snapshot(self, path: str) -> None:
        """Write the whole index to *path* as one checksummed snapshot batch."""
        from repro.kqe import snapshot as snapshot_log

        with obs.span("index.snapshot.save"):
            writer = snapshot_log.SnapshotWriter.create(path, self.snapshot_header())
            try:
                count = len(self._store)
                vectors = [
                    [float(component) for component in self._store.row(position)]
                    for position in range(count)
                ]
                writer.append(
                    vectors, list(self._canonical_labels), {"count": count}
                )
            finally:
                writer.close()

    def snapshot_header(self) -> dict:
        return {
            "kind": "kqe-graph-index",
            "version": 1,
            "embedder": {
                "dimensions": self.embedder.dimensions,
                "iterations": self.embedder.iterations,
            },
        }

    @classmethod
    def load_snapshot(
        cls, path: str, embedder: Optional[GraphEmbedder] = None, **kwargs: Any
    ) -> "GraphIndex":
        """Rebuild an index from a snapshot written by :meth:`save_snapshot`.

        Replays insertions in their logged order, so the restored index is
        bit-identical to the one that was saved (including LSH tables, which
        are a pure function of embedder config + insertion order).
        """
        from repro.kqe import snapshot as snapshot_log

        with obs.span("index.snapshot.restore"):
            header, batches, _ = snapshot_log.read_snapshot(path)
            if header.get("kind") != "kqe-graph-index":
                raise SnapshotError(
                    f"{path!r} holds a {header.get('kind')!r} snapshot, "
                    "not a kqe-graph-index"
                )
            config = header.get("embedder") or {}
            if embedder is None:
                embedder = GraphEmbedder(
                    dimensions=int(config.get("dimensions", 64)),
                    iterations=int(config.get("iterations", 2)),
                )
            index = cls(embedder=embedder, **kwargs)
            for batch in batches:
                for vector, label in zip(batch.vectors, batch.labels):
                    index.add_embedding(vector, label)
            return index
