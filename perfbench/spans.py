"""Spans and counters recorded around the public calls of each layer.

The benchmark never edits the program: it wraps public functions from here.
A small fixed set of timers is always on, because the end-to-end metrics need
them (DSG build and backend deploy for ``setup_s``, one ``run_iteration`` for
the per-query latency, ``run_campaign_loop`` for the loop seconds).  The layer
spans are installed only around the traced campaigns of a ``--trace 1`` run.

A span is recorded on the thread that runs it; its self time is its duration
minus the time its child spans cover.  A call that re-enters a layer already
open on the same thread (a compound query executing its arms, a generator
retrying) folds into the outer span.  Spans stay in memory; a pool worker
writes its share to a file when its shard ends, and the parent merges it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

# Layers whose spans only the parent of a pool records (the index server
# runs in the parent's threads); a worker's copies of them are not merged.
PARENT_ONLY = ("distributed.",)

# Slowest queries per campaign kept for the tail attribution; only these
# have their SQL rendered, when the campaign's records are exported.
TAIL_QUERIES = 5


class Recorder:
    """Per-process store of spans, per-query timings and layer counters."""

    def __init__(self) -> None:
        self.parent_pid = os.getpid()
        # Whether the layer spans are installed; also turns on the per-query
        # tail attribution.
        self.traced = False
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded (also run first thing in a forked worker)."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.iterations: List[Dict[str, Any]] = []
        # (seconds, queries) of every simulated hour of the campaign loop.
        self.hours: List[List[float]] = []

    # ----------------------------------------------------------------- spans

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> Optional[list]:
        """Open a span; None when the same layer is already open here."""
        stack = self._stack()
        if any(frame[0] == name for frame in stack):
            return None
        # [name, start, seconds covered by children, per-layer self seconds
        # when this frame is the root of a traced query, else None]
        frame = [name, time.perf_counter(), 0.0, None]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close *frame*; returns its duration."""
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        own = duration - frame[2]
        if stack:
            stack[-1][2] += duration
        root = next((f for f in stack if f[3] is not None), None)
        with self._lock:
            self.durations[frame[0]].append(duration)
            self.self_s[frame[0]] += own
        if root is not None:
            layers = root[3]
            layers[frame[0]] = layers.get(frame[0], 0.0) + own
        return duration

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # --------------------------------------------------------------- export

    def export(self) -> Dict[str, Any]:
        with self._lock:
            slowest = sorted(self.iterations, key=lambda item: item["seconds"],
                             reverse=True)[:TAIL_QUERIES]
            return {
                "durations": dict(self.durations),
                "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "iterations": [_rendered(item) for item in slowest],
                "hours": list(self.hours),
            }

    def absorb(self, data: Dict[str, Any], worker: bool = False) -> None:
        """Merge an export; a worker's loses the layers the parent records."""
        def keep(name: str) -> bool:
            return not (worker and name.startswith(PARENT_ONLY))

        with self._lock:
            for name, values in data["durations"].items():
                if keep(name):
                    self.durations[name].extend(values)
            for name, value in data["self_s"].items():
                if keep(name):
                    self.self_s[name] += value
            for name, value in data["counts"].items():
                if keep(name):
                    self.counts[name] += value
            self.iterations.extend(data["iterations"])
            self.hours.extend(data["hours"])

    def take(self) -> Dict[str, Any]:
        """Export and clear: one campaign's worth of records."""
        data = self.export()
        self.reset()
        return data


def _rendered(iteration: Dict[str, Any]) -> Dict[str, Any]:
    """An iteration record with its query replaced by the SQL and a digest."""
    query = iteration.get("query")
    if query is None:
        return iteration
    sql = " ".join(query.render().split())
    return {"seconds": iteration["seconds"], "layers": iteration["layers"],
            "sql_sha": hashlib.sha256(sql.encode("utf-8")).hexdigest()[:16],
            "sql": sql[:160]}


Observe = Callable[[Recorder, Any, Any], None]


class Patcher:
    """Installs wrappers on classes and modules and takes them off again."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._installed: List[tuple] = []

    def span(self, owner: Any, attr: str, name: str,
             when: Optional[Callable[[Any], bool]] = None,
             observe: Optional[Observe] = None) -> None:
        """Wrap ``owner.attr`` in a span named *name*.

        *when* (given the first argument) restricts the span to some
        instances; *observe* sees the call's result, or the exception it
        raised, after the span closes.
        """
        recorder = self.recorder
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args[0]):
                return original(*args, **kwargs)
            frame = recorder.enter(name)
            if frame is None:
                return original(*args, **kwargs)
            try:
                result = original(*args, **kwargs)
            except BaseException as error:
                recorder.exit(frame)
                if observe is not None:
                    observe(recorder, None, error)
                raise
            recorder.exit(frame)
            if observe is not None:
                observe(recorder, result, None)
            return result

        self._set(owner, attr, original, wrapper)

    def counter(self, owner: Any, attr: str, observe: Observe) -> None:
        """Wrap ``owner.attr`` to count its calls without timing them."""
        recorder = self.recorder
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if os.getpid() == recorder.parent_pid:
                observe(recorder, result, None)
            return result

        self._set(owner, attr, original, wrapper)

    def replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._set(owner, attr, getattr(owner, attr), wrapper)

    def _set(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        # An inherited method is shadowed on the subclass, then deleted again.
        own = attr in vars(owner)
        self._installed.append((owner, attr, original, own))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# ------------------------------------------------------------------ timers


def install_timers(patcher: Patcher, shard_dir: str) -> None:
    """The always-on timers the end-to-end metrics need."""
    from repro.backends.sqlite_backend import SQLiteBackend
    from repro.core import campaign, parallel
    from repro.core.differential import DifferentialTester
    from repro.core.tqs import TQS
    from repro.dsg.pipeline import DSG

    recorder = patcher.recorder
    patcher.span(DSG, "__init__", "dsg.build")
    patcher.span(SQLiteBackend, "deploy", "backends.deploy")
    # The pool's worker body calls the loop through its own module binding.
    for module in (campaign, parallel):
        _wrap_loop(patcher, module)
    for tester in (TQS, DifferentialTester):
        _wrap_iteration(patcher, tester)

    original_shard = parallel.run_shard_with_transport

    @functools.wraps(original_shard)
    def shard(*args, **kwargs):
        # Runs in a forked pool worker: start from an empty record and hand
        # it to the parent through a file before the shard reports back.
        recorder.reset()
        try:
            return original_shard(*args, **kwargs)
        finally:
            path = os.path.join(shard_dir, f"shard-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(recorder.export(), handle)

    patcher.replace(parallel, "run_shard_with_transport", shard)


def _wrap_loop(patcher: Patcher, module: Any) -> None:
    """Time the campaign loop and each of its simulated hours.

    An hour ends when its ``on_hour`` hook returns, so a pool worker's hour
    includes the sync barrier that closes it.
    """
    recorder = patcher.recorder
    original = module.run_campaign_loop

    @functools.wraps(original)
    def run_campaign_loop(tester, result, hours, queries_per_hour,
                          on_hour=None):
        last = [time.perf_counter(), tester.queries_generated]

        def hour_mark(record):
            if on_hour is not None:
                on_hour(record)
            now = time.perf_counter()
            generated = record.sample.queries_generated
            recorder.hours.append([now - last[0], generated - last[1]])
            last[:] = [now, generated]

        frame = recorder.enter("core.loop")
        try:
            return original(tester, result, hours, queries_per_hour,
                            on_hour=hour_mark)
        finally:
            if frame is not None:
                recorder.exit(frame)

    patcher.replace(module, "run_campaign_loop", run_campaign_loop)


def _wrap_iteration(patcher: Patcher, tester: type) -> None:
    """Time each ``run_iteration`` and classify its skips.

    Traced, the iteration is the root span of its query: it collects the
    self time of every layer below it for the tail attribution.
    """
    recorder = patcher.recorder
    original = tester.run_iteration

    @functools.wraps(original)
    def run_iteration(self):
        traced = recorder.traced
        frame = recorder.enter("iteration")
        if traced:
            frame[3] = {}
        try:
            outcome = original(self)
        finally:
            elapsed = recorder.exit(frame)
        if getattr(outcome, "skipped", False):
            recorder.count("core.limit_skips" if outcome.query.limit is not None
                           else "core.exec_errors")
        if traced and outcome is not None:
            recorder.iterations.append({"seconds": elapsed,
                                        "query": outcome.query,
                                        "layers": frame[3]})
        return outcome

    patcher.replace(tester, "run_iteration", run_iteration)


# ------------------------------------------------------------ layer spans


def install_layers(patcher: Patcher) -> None:
    """Spans around the public calls of every layer (the traced campaigns)."""
    from repro.backends.sqlite_backend import SQLiteBackend
    from repro.backends.sqlrender import SQLRenderer
    from repro.core.differential import DifferentialOracle
    from repro.distributed.client import RemoteSyncTransport
    from repro.distributed.coordinator import CentralCoordinator
    from repro.distributed.protocol import JsonFrameCodec
    from repro.dsg.ground_truth import GroundTruth
    from repro.dsg.pipeline import DSG
    from repro.engine.engine import Engine
    from repro.kqe.explorer import KQE
    from repro.kqe.query_graph import QueryGraph, QueryGraphBuilder

    def generated(recorder, result, error):
        recorder.count("dsg.generate.rejects" if error is not None
                       else "dsg.generate.ok")

    def registered(recorder, result, error):
        if error is None and result[1]:
            recorder.count("kqe.novel")

    def rows(layer):
        def observe(recorder, result, error):
            if error is None:
                rows_out = result.result if hasattr(result, "result") else result
                recorder.count(f"{layer}.rows_out", len(rows_out))
        return observe

    def executed(recorder, result, error):
        if error is not None or getattr(result, "error", None) is not None:
            recorder.count("backends.execute.errors")

    def frame_out(recorder, result, error):
        recorder.count("distributed.frames")
        recorder.count("distributed.bytes_out", len(result))

    def frame_in(recorder, result, error):
        if result is not None:
            recorder.count("distributed.frames")

    patcher.span(DSG, "generate_statement", "dsg.generate", observe=generated)
    patcher.span(DSG, "generate_query", "dsg.generate", observe=generated)
    patcher.span(DSG, "transform_query", "dsg.transform")
    patcher.span(DSG, "ground_truth", "dsg.ground_truth")
    patcher.span(KQE, "extension_chooser", "kqe.choose")
    patcher.span(KQE, "register", "kqe.register", observe=registered)
    patcher.span(QueryGraphBuilder, "build", "kqe.label")
    patcher.span(QueryGraph, "canonical_label", "kqe.label")
    # The reference engine is the dialect-less one; a dialect engine is the
    # target TQS (or a simulated backend) runs hinted queries on.
    patcher.span(Engine, "execute", "engine.reference",
                 when=lambda engine: engine.dialect is None,
                 observe=rows("engine.reference"))
    patcher.span(Engine, "execute_with_report", "engine.target",
                 when=lambda engine: engine.dialect is not None,
                 observe=rows("engine.target"))
    patcher.span(SQLiteBackend, "execute", "backends.execute", observe=executed)
    patcher.span(SQLRenderer, "query", "backends.render")
    patcher.span(DifferentialOracle, "judge", "core.judge")
    patcher.span(GroundTruth, "matches", "core.verify")
    patcher.span(RemoteSyncTransport, "sync", "parallel.sync")
    patcher.span(CentralCoordinator, "complete_round", "distributed.round")
    patcher.counter(JsonFrameCodec, "encode", frame_out)
    patcher.counter(JsonFrameCodec, "recv", frame_in)
