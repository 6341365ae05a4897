"""The staged, overlapped execution pipeline for differential testing.

Differential campaigns against real engines are I/O-bound: the serial path
renders one query, executes it on the target backend, executes it on the
reference executor, compares, and only then starts the next query — each side
idles while the other works.  :class:`ExecutionPipeline` restructures that
into a batched, overlapped schedule:

1. a batch of :class:`QueryJob`\\ s is collected (rendering happens inside the
   backend's ``execute``, so it rides the target thread);
2. the whole batch executes on the target backend *concurrently* with the
   whole batch on the reference executor — one dedicated thread per side, fed
   through a small :class:`~concurrent.futures.ThreadPoolExecutor` whose work
   queue is bounded by the batch itself (at most one batch is ever in
   flight);
3. outcomes are compared and yielded **in submission order**, on the caller's
   thread, through the same oracle code the serial path uses.

Determinism contract: because comparison order, generation order and every
verdict-relevant computation are unchanged — threads only overlap the *wall
clock* of independent executions — a pipelined campaign produces bit-identical
verdicts and :class:`~repro.core.bug_report.BugLog` contents to the serial
path for the same seed, at any batch size.  ``tests/test_execpipe.py`` pins
that down.

Thread affinity: adapters that do not declare
``supports_concurrent_cursors`` (stdlib sqlite3 shares one connection object)
have their entire batch executed on one dedicated target thread via
:meth:`~repro.backends.base.BackendAdapter.execute_many`; adapters that do may
spread the batch over ``target_threads`` workers.  The reference executor is
an in-process engine touched by exactly one thread at a time.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.backends.base import BackendExecution
from repro.engine.resultset import ResultSet
from repro.errors import CampaignError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.differential import DifferentialOracle, DifferentialOutcome
    from repro.plan.logical import QuerySpec

#: Lock discipline, enforced by `python -m repro.lint` (CONC001): the lazily
#: created executor handles may only be touched under ``_lock`` so that a
#: close() racing a first batch cannot leak a freshly built pool.
GUARDED_BY = {
    "ExecutionPipeline": ("_lock", ("_target_pool", "_reference_pool")),
}


@dataclass(frozen=True)
class QueryJob:
    """One unit of pipeline work: a generated query plus its diversity label."""

    query: "QuerySpec"
    label: str = ""


@dataclass
class PipelineConfig:
    """Knobs of the overlapped execution schedule.

    ``batch_size`` is how many generated queries are buffered before the
    pipeline executes them as one overlapped batch; 1 keeps serial semantics
    (and the serial code path) exactly.  ``target_threads`` caps the
    target-side fan-out and is clamped to 1 for adapters without concurrent
    cursor support; the reference side always runs on one thread.
    """

    batch_size: int = 1
    target_threads: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise CampaignError("pipeline batch_size must be >= 1")
        if self.target_threads < 1:
            raise CampaignError("pipeline target_threads must be >= 1")


class ExecutionPipeline:
    """Executes batches of query jobs on target and reference concurrently.

    One instance serves one :class:`~repro.core.differential.DifferentialOracle`
    (which owns the backend, the reference engine, the comparison rules and the
    bug log).  The pipeline is a pure scheduler: it never touches verdict
    logic, so outcomes are bit-identical to the serial path.
    """

    def __init__(self, oracle: "DifferentialOracle",
                 config: Optional[PipelineConfig] = None) -> None:
        self.oracle = oracle
        self.config = config or PipelineConfig()
        self.batches_executed = 0
        self.queries_pipelined = 0
        self._lock = threading.Lock()
        self._target_pool: Optional[ThreadPoolExecutor] = None
        self._reference_pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------- lifecycle

    @property
    def target_threads(self) -> int:
        """The effective target-side fan-out after capability clamping."""
        if not self.oracle.backend.supports_concurrent_cursors:
            return 1
        return self.config.target_threads

    def _pools(self) -> tuple:
        """Lazily create the two per-side executors (one thread per backend)."""
        with self._lock:
            if self._target_pool is None:
                self._target_pool = ThreadPoolExecutor(
                    max_workers=self.target_threads,
                    thread_name_prefix="execpipe-target",
                )
                self._reference_pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="execpipe-reference"
                )
            return self._target_pool, self._reference_pool

    def close(self) -> None:
        """Shut down the worker threads. Idempotent."""
        with self._lock:
            target_pool, self._target_pool = self._target_pool, None
            reference_pool, self._reference_pool = self._reference_pool, None
        if target_pool is not None:
            target_pool.shutdown(wait=True)
        if reference_pool is not None:
            reference_pool.shutdown(wait=True)

    def __enter__(self) -> "ExecutionPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------- execution

    def _execute_one(self, job: QueryJob) -> BackendExecution:
        """One target execution with per-query error capture (mirrors
        :meth:`~repro.backends.base.BackendAdapter.execute_many`, so
        batch-mates survive a bad query)."""
        from repro.errors import BackendError

        try:
            return self.oracle.backend.execute(job.query)
        except BackendError as error:
            return BackendExecution(error=error)

    def _submit_target(self, target_pool: ThreadPoolExecutor,
                       jobs: Sequence[QueryJob]):
        """Start the target side of one batch; returns a thunk for the results.

        Serial-cursor backends get the whole batch as one
        :meth:`execute_many` task on the single target thread.  Concurrent-
        cursor backends have each query submitted individually, so all
        ``target_threads`` workers execute (no wrapper task occupying a pool
        slot); collecting futures in submission order keeps results ordered.
        """
        backend = self.oracle.backend
        if self.target_threads <= 1 or len(jobs) <= 1:
            future = target_pool.submit(
                backend.execute_many, [job.query for job in jobs]
            )
            return future.result
        futures = [target_pool.submit(self._execute_one, job)
                   for job in jobs]
        return lambda: [future.result() for future in futures]

    def _execute_reference(self, jobs: Sequence[QueryJob]) -> List[ResultSet]:
        """The reference side of one batch, strictly in order.

        Goes through the oracle's :meth:`execute_reference`, which records
        the ``execute.reference`` span.
        """
        return [self.oracle.execute_reference(job.query) for job in jobs]

    def run_batch(self, jobs: Sequence[QueryJob]
                  ) -> List["DifferentialOutcome"]:
        """Execute one batch overlapped; compared outcomes in submission order.

        Pre-execution skips (e.g. LIMIT queries, which are engine-defined and
        incomparable) are decided up front in submission order, exactly as the
        serial oracle would; the remaining jobs execute target-vs-reference
        concurrently and are judged in submission order on the calling thread.
        """
        outcomes: List[Optional["DifferentialOutcome"]] = [None] * len(jobs)
        executable: List[tuple] = []
        for position, job in enumerate(jobs):
            skip = self.oracle.precheck(job.query, job.label)
            if skip is not None:
                outcomes[position] = skip
            else:
                executable.append((position, job))
        if executable:
            batch = [job for _, job in executable]
            target_pool, reference_pool = self._pools()
            collect_target = self._submit_target(target_pool, batch)
            reference_future = reference_pool.submit(
                self._execute_reference, batch
            )
            try:
                executions = collect_target()
            finally:
                # Never orphan the reference future: even if the target side
                # raised, the reference thread must drain before the caller
                # tears the tester down.
                references = reference_future.result()
            for (position, job), execution, reference_result in zip(
                    executable, executions, references):
                outcomes[position] = self.oracle.judge(
                    job.query, job.label, execution, reference_result
                )
        self.batches_executed += 1
        self.queries_pipelined += len(jobs)
        return [outcome for outcome in outcomes if outcome is not None]
