"""Process-wide memos for the pure functions of query graphs.

The adaptive walk scores the same small partial-walk graphs over and over:
every campaign starts from an empty index, yet the skeletons it embeds and
labels recur across campaigns (a few hundred distinct ones over thousands of
campaigns).  :class:`QueryGraph` is frozen and hashable, so its embedding and
canonical label can be looked up by value instead of recomputed.

A memo only ever returns what the wrapped function returned for an equal
key, so a warm process and a cold one produce bit-identical walks.  Each
memo is bounded by a module constant and forgets its oldest entry when full.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable

#: Entries kept by each graph memo before the oldest is forgotten.
GRAPH_MEMO_LIMIT = 4096


class BoundedMemo:
    """A thread-safe, insertion-ordered dict memo holding at most *limit* keys."""

    def __init__(self, limit: int = GRAPH_MEMO_LIMIT) -> None:
        self.limit = limit
        self._lock = threading.Lock()
        self._entries: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The memoized value for *key*, computing and storing it on a miss."""
        with self._lock:
            if key in self._entries:
                return self._entries[key]
        value = compute()
        with self._lock:
            if key not in self._entries:
                if len(self._entries) >= self.limit:
                    del self._entries[next(iter(self._entries))]
                self._entries[key] = value
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: (dimensions, iterations, graph) -> read-only embedding, for every
#: :class:`~repro.kqe.embedding.GraphEmbedder` in the process.
EMBEDDINGS = BoundedMemo()

#: Skeleton graph -> canonical label, for :meth:`GraphIndex.add
#: <repro.kqe.graph_index.GraphIndex.add>` (a label depends on the graph
#: only).  Full query graphs are not memoized: they almost never recur, so
#: their labels would only cost memory.
SKELETON_LABELS = BoundedMemo()


def clear_graph_memos() -> None:
    """Forget every memoized embedding and label (a cold-process state)."""
    EMBEDDINGS.clear()
    SKELETON_LABELS.clear()
