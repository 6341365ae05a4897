"""Differential campaign throughput against a real DBMS backend (SQLite).

Unlike the simulated campaigns (which execute every hinted variant of a query
in-process), the differential campaign pays for real SQL rendering, a real
engine round-trip and the cross-engine result comparison per query.  This
benchmark measures that end-to-end cost and reports the same per-hour series
the paper-style campaigns produce, plus the sanity property that makes the
numbers meaningful: a correct backend yields zero mismatches.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro import (
    DSG,
    Engine,
    CampaignConfig,
    CampaignResult,
    CampaignSpec,
    PipelineConfig,
    SIM_MYSQL,
    SimulatedBackend,
    SQLiteBackend,
    obs,
    run_campaign,
    run_differential_campaign,
)
from repro.analysis import render_differential_summary
from repro.core import build_differential_tester, run_campaign_loop
from repro.engine.executor import DEFAULT_REFERENCE_EXECUTOR


@pytest.mark.benchmark(group="backend-differential")
def test_backend_differential_sqlite(benchmark, campaign_config_factory):
    """24 simulated hours of TQS-generated queries against stdlib SQLite."""
    config = campaign_config_factory(hours=24, queries_per_hour=6,
                                     dataset="shopping", seed=5)

    def run():
        obs.reset_registry()
        start = time.perf_counter()
        campaign = run_differential_campaign(SQLiteBackend(), config)
        return campaign, time.perf_counter() - start

    result, wall = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(render_differential_summary(result))
    print()
    print(obs.render_phase_breakdown(obs.get_registry().snapshot(),
                                     wall_seconds=wall))
    assert result.final.queries_executed > 0
    assert result.final.bug_count == 0, "false positives against bug-free SQLite"


@pytest.mark.benchmark(group="backend-differential")
def test_backend_differential_simulated_mysql(benchmark, campaign_config_factory):
    """The same loop against the seeded-fault SimMySQL via the adapter layer.

    This is the sensitivity baseline for the SQLite run above: identical
    generator budget, but a backend that is *supposed* to disagree.
    """
    config = campaign_config_factory(hours=24, queries_per_hour=6,
                                     dataset="shopping", seed=5)

    def run():
        return run_differential_campaign(SimulatedBackend(SIM_MYSQL), config)

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(render_differential_summary(result))
    assert result.final.bug_count > 0, "seeded faults must be visible differentially"


# ------------------------------------------------- pipelined execution overlap


class _LatencySQLiteBackend(SQLiteBackend):
    """SQLite with a fixed per-query latency, modelling a networked engine.

    An in-memory SQLite round trip is microseconds, which under-represents a
    real client/server target (MySQL, Postgres) where each execute pays
    network and protocol latency.  The added sleep makes the workload
    I/O-bound the way a real differential campaign is — exactly the regime
    the overlapped pipeline exists for.
    """

    def __init__(self, delay_seconds: float) -> None:
        super().__init__()
        self.delay_seconds = delay_seconds

    def execute(self, query):
        time.sleep(self.delay_seconds)
        return super().execute(query)


class _LatencyReferenceEngine(Engine):
    """The reference executor with the same per-query latency model."""

    def __init__(self, database, delay_seconds: float, executor=None) -> None:
        super().__init__(database, executor=executor)
        self.delay_seconds = delay_seconds

    def execute(self, query, hints=None):
        time.sleep(self.delay_seconds)
        return super().execute(query, hints)


@pytest.mark.benchmark(group="backend-differential-pipeline")
def test_pipeline_overlap_speedup(benchmark):
    """Overlapped pipeline vs serial path on an I/O-bound target: >= 1.5x.

    Both sides carry a 20 ms per-query latency.  The serial path pays
    target + reference per query; the pipeline overlaps them, so the floor of
    the expected speedup is ~2x minus compare/generation time.  Verdict
    equality with the serial path is asserted alongside the throughput gain —
    speed must not buy different results.

    One campaign per side is a single noisy sample, so the gate takes the
    median ratio over interleaved serial/pipelined repeats: a slow spell of
    the machine lands on both sides of a pair instead of on one side only.
    """
    delay = 0.020
    repeats = 5
    # A fixed workload, deliberately not TQS_BENCH_SCALE-scaled: this is a
    # property measurement (overlap factor on an I/O-bound target).  Tester
    # construction (DSG build, deploy) happens *outside* the timed region —
    # the pipeline overlaps execution, and execution is what is measured.
    config = CampaignConfig(dataset="shopping", dataset_rows=90, hours=3,
                            queries_per_hour=24, seed=5)

    def build_tester(pipeline):
        # The default reference executor, as a default campaign runs it: the
        # row interpreter's compute would eat into the overlap being measured.
        reference = _LatencyReferenceEngine(DSG(config.dsg_config()).database,
                                            delay, DEFAULT_REFERENCE_EXECUTOR)
        return build_differential_tester(_LatencySQLiteBackend(delay), config,
                                         reference=reference,
                                         pipeline=pipeline)

    def timed_loop(tester):
        result = CampaignResult(tool="TQS-differential",
                                dbms=tester.backend.name,
                                dataset=config.dataset)
        start = time.perf_counter()
        try:
            result = run_campaign_loop(tester, result, config.hours,
                                       config.queries_per_hour)
        finally:
            tester.close()
        return result, time.perf_counter() - start

    def run_pairs():
        pairs = []
        for _ in range(repeats):
            serial_tester = build_tester(None)
            pipelined_tester = build_tester(PipelineConfig(batch_size=8))
            serial_result, serial_seconds = timed_loop(serial_tester)
            pipelined_result, pipelined_seconds = timed_loop(pipelined_tester)
            assert serial_result.samples == pipelined_result.samples, (
                "pipelined campaign must be bit-identical to the serial path"
            )
            pairs.append((serial_seconds, pipelined_seconds))
        return pairs

    pairs = benchmark.pedantic(run_pairs, rounds=1, iterations=1)
    ratios = [serial / pipelined for serial, pipelined in pairs]
    speedup = statistics.median(ratios)
    print()
    for serial_seconds, pipelined_seconds in pairs:
        print(f"serial {serial_seconds:.3f}s vs pipelined (batch=8) "
              f"{pipelined_seconds:.3f}s -> "
              f"{serial_seconds / pipelined_seconds:.2f}x")
    print(f"median overlap speedup over {repeats} interleaved pairs: "
          f"{speedup:.2f}x")
    assert speedup >= 1.5, (
        f"expected >= 1.5x median overlap speedup on an I/O-bound target, "
        f"got {speedup:.2f}x (pairs: {', '.join(f'{r:.2f}' for r in ratios)})"
    )


@pytest.mark.benchmark(group="backend-differential-pipeline")
def test_telemetry_overhead_under_five_percent(benchmark):
    """Phase spans and counters must not tax the pipelined campaign.

    Runs the same latency-padded pipelined workload with telemetry enabled
    and disabled and asserts the enabled path is within 5% of the disabled
    one: the zero-cost-enough contract the observability layer promises.

    One campaign per side is a single noisy sample, so the gate takes the
    median on/off ratio over interleaved pairs, as the overlap gate above
    does.  The order inside a pair alternates, and an untimed warm-up run
    fills the process-wide KQE memos first, so neither side always runs
    cold.
    """
    delay = 0.020
    repeats = 7
    config = CampaignConfig(dataset="shopping", dataset_rows=90, hours=2,
                            queries_per_hour=16, seed=5)

    def run_once():
        reference = _LatencyReferenceEngine(DSG(config.dsg_config()).database,
                                            delay)
        tester = build_differential_tester(_LatencySQLiteBackend(delay), config,
                                           reference=reference,
                                           pipeline=PipelineConfig(batch_size=8))
        result = CampaignResult(tool="TQS-differential",
                                dbms=tester.backend.name,
                                dataset=config.dataset)
        start = time.perf_counter()
        try:
            result = run_campaign_loop(tester, result, config.hours,
                                       config.queries_per_hour)
        finally:
            tester.close()
        return result, time.perf_counter() - start

    def timed(enabled):
        previous = obs.set_enabled(enabled)
        try:
            obs.reset_registry()
            return run_once()
        finally:
            obs.set_enabled(previous)

    def run_pairs():
        timed(False)
        pairs = []
        for index in range(repeats):
            if index % 2:
                on_result, on_seconds = timed(True)
                off_result, off_seconds = timed(False)
            else:
                off_result, off_seconds = timed(False)
                on_result, on_seconds = timed(True)
            pairs.append((off_result, off_seconds, on_result, on_seconds))
        return pairs

    pairs = benchmark.pedantic(run_pairs, rounds=1, iterations=1)
    ratios = [on_seconds / off_seconds
              for _, off_seconds, _, on_seconds in pairs]
    overhead = statistics.median(ratios) - 1.0
    print()
    for _, off_seconds, _, on_seconds in pairs:
        print(f"telemetry off {off_seconds:.3f}s vs on {on_seconds:.3f}s "
              f"-> {(on_seconds / off_seconds - 1.0) * 100.0:+.2f}%")
    print(f"median overhead over {repeats} interleaved pairs: "
          f"{overhead * 100.0:+.2f}%")
    for off_result, _, on_result, _ in pairs:
        assert on_result.samples == off_result.samples, (
            "telemetry must not change campaign verdicts"
        )
    assert overhead < 0.05, (
        f"telemetry overhead {overhead * 100.0:.2f}% exceeds the 5% budget "
        f"(ratios: {', '.join(f'{r:.3f}' for r in ratios)})"
    )


# ---------------------------------------------------- row vs columnar executor


def _campaign_fingerprint(result) -> tuple:
    """Everything a verdict-equality assertion should compare."""
    assert result.bug_log is not None
    return (
        tuple(result.samples),
        tuple(incident.query_sql for incident in result.bug_log.incidents),
    )


@pytest.mark.benchmark(group="backend-differential-executor")
def test_executor_verdicts_serial_and_pooled(benchmark):
    """Row == columnar, on the serial path AND the 2-worker pool.

    On the pool each shard builds its own reference executor from the
    wire-shipped :class:`CampaignConfig`.
    """
    base = dict(kind="differential", backend="sqlite", dataset_rows=80,
                hours=2, queries_per_hour=16, seed=7)
    row = dict(reference_executor="row")
    fast = dict(reference_executor="columnar")

    def run_all():
        serial_row = run_campaign(CampaignSpec(**base, **row))
        serial_fast = run_campaign(CampaignSpec(**base, **fast))
        pooled_row = run_campaign(CampaignSpec(**base, **row, workers=2))
        pooled_fast = run_campaign(CampaignSpec(**base, **fast, workers=2))
        return serial_row, serial_fast, pooled_row, pooled_fast

    serial_row, serial_fast, pooled_row, pooled_fast = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )

    assert _campaign_fingerprint(serial_row) == _campaign_fingerprint(serial_fast), (
        "serial verdicts must not depend on the executor"
    )
    assert _campaign_fingerprint(pooled_row.merged) == _campaign_fingerprint(
        pooled_fast.merged
    ), "pooled verdicts must not depend on the executor"
    print()
    print(f"serial: {serial_row.final.queries_executed} comparisons, "
          f"pooled: {pooled_row.merged.final.queries_executed} comparisons — "
          "verdicts identical across executors")
