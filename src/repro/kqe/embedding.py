"""Structural graph embeddings (paper §4).

The paper uses a similarity-oriented GNN embedding so that isomorphic or
structurally similar query graphs land close together in the embedding space.
Training a neural network is neither possible offline nor necessary for that
property: a Weisfeiler–Lehman feature map — hash the multiset of refined vertex
colours into a fixed-size vector — gives the same guarantee deterministically:
isomorphic graphs produce identical vectors, and graphs differing in a few
labels/edges produce vectors at small cosine distance.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List

import numpy as np

from repro.kqe.memo import EMBEDDINGS
from repro.kqe.query_graph import QueryGraph

DEFAULT_DIMENSIONS = 64


def _stable_bucket(token: str, dimensions: int) -> int:
    """Deterministic hash bucket for a WL colour token."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dimensions


class GraphEmbedder:
    """Weisfeiler–Lehman feature hashing of query graphs."""

    def __init__(self, dimensions: int = DEFAULT_DIMENSIONS, iterations: int = 2) -> None:
        if dimensions <= 0:
            raise ValueError("embedding dimensionality must be positive")
        self.dimensions = dimensions
        self.iterations = iterations

    def _wl_colors(self, graph: QueryGraph) -> List[str]:
        nx_graph = graph.to_networkx()
        colors: Dict[str, str] = {
            node: nx_graph.nodes[node]["label"] for node in nx_graph.nodes
        }
        tokens: List[str] = list(colors.values())
        for _ in range(self.iterations):
            refreshed: Dict[str, str] = {}
            for node in nx_graph.nodes:
                neighbourhood = sorted(
                    f"{nx_graph.edges[node, other]['label']}~{colors[other]}"
                    for other in nx_graph.neighbors(node)
                )
                refreshed[node] = f"{colors[node]}::{'|'.join(neighbourhood)}"
            colors = refreshed
            tokens.extend(colors.values())
        return tokens

    def embed(self, graph: QueryGraph) -> np.ndarray:
        """Embed one query graph as an L2-normalized, read-only vector.

        Memoized process-wide by value: an equal graph under an equal
        embedder configuration gets the same array back.
        """
        return EMBEDDINGS.get((self.dimensions, self.iterations, graph),
                              lambda: self._embed(graph))

    def _embed(self, graph: QueryGraph) -> np.ndarray:
        vector = np.zeros(self.dimensions, dtype=np.float64)
        for token in self._wl_colors(graph):
            vector[_stable_bucket(token, self.dimensions)] += 1.0
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        vector.setflags(write=False)
        return vector

    def embed_many(self, graphs: Iterable[QueryGraph]) -> np.ndarray:
        """Embed several graphs into a (n, dimensions) matrix."""
        vectors = [self.embed(graph) for graph in graphs]
        if not vectors:
            return np.zeros((0, self.dimensions))
        return np.vstack(vectors)


def cosine_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """Cosine similarity of two embedding vectors (0 when either is zero)."""
    denominator = float(np.linalg.norm(left) * np.linalg.norm(right))
    if denominator == 0.0:
        return 0.0
    return float(np.dot(left, right) / denominator)
