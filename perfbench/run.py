"""Campaign benchmark of the TQS reproduction.

    python3 perfbench/run.py --workload diff-sqlite --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The program is imported from ``src/``; the
workloads, metric names and units come from ``perfbench/workloads.py`` and
``BENCHMARK.json``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line above
it is a JSON report with the environment, the per-campaign figures, the
correctness gate and, when traced, the slowest queries.  See
``perfbench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import glob
import json
import multiprocessing
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from spans import (TAIL_QUERIES, Patcher, Recorder, install_layers,
                   install_timers)
from workloads import WORKLOADS, run_workload_campaign, tiny, verdict_digest

ROOT = Path(__file__).resolve().parent.parent


def percentile_tail(values: Sequence[float]) -> Dict[str, float]:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return {"value": ordered[-1] if ordered else 0.0, "percentile": 100.0,
                "samples": n}
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "start_method": multiprocessing.get_start_method(),
        "REPRO_DISABLE_NUMPY": os.environ.get("REPRO_DISABLE_NUMPY", ""),
        "measures": "warm process: one unmeasured campaign runs first",
    }


class Bench:
    """One benchmark run of one workload: timers installed, campaigns run."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.recorder = Recorder()
        self.shard_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        self.timers = Patcher(self.recorder)
        self.layers = Patcher(self.recorder)
        install_timers(self.timers, self.shard_dir)

    def close(self) -> None:
        self.layers.uninstall()
        self.timers.uninstall()
        shutil.rmtree(self.shard_dir, ignore_errors=True)

    def campaign(self, index: int, traced: bool = False) -> Dict[str, Any]:
        """Run campaign *index* of this run; returns its figures."""
        from repro import obs

        spec = self.workload.spec(self.seed, index)
        obs.reset_registry()
        if traced:
            install_layers(self.layers)
            self.recorder.traced = True
        start = time.perf_counter()
        try:
            result, telemetry = run_workload_campaign(self.workload, spec)
        finally:
            campaign_s = time.perf_counter() - start
            self.layers.uninstall()
            self.recorder.traced = False
        for path in sorted(glob.glob(os.path.join(self.shard_dir, "*.json"))):
            with open(path, encoding="utf-8") as handle:
                self.recorder.absorb(json.load(handle), worker=True)
            os.remove(path)
        trace = self.recorder.take()
        if self.workload.pooled and not trace["durations"].get("iteration"):
            # Workers inherit the wrappers only when forked.
            raise RuntimeError("pool workers reported no spans; perfbench "
                               "needs the 'fork' multiprocessing start method")
        if telemetry is None:
            telemetry = obs.get_registry().snapshot().to_dict()
        snapshot = obs.MetricsSnapshot.from_dict(telemetry)
        phases = {name: seconds
                  for name, (seconds, _) in snapshot.phase_seconds().items()}
        durations = trace["durations"]
        workers = spec.workers
        if self.workload.pooled:
            setup_seconds, setup_count = snapshot.phase_seconds().get(
                "setup", (0.0, 1))
            setup_s = setup_seconds / max(setup_count, 1)
        else:
            setup_s = (sum(durations.get("dsg.build", []))
                       + sum(durations.get("backends.deploy", [])))
        worker_run = snapshot.histograms.get("worker.run.seconds")
        final = result.final
        incidents = result.bug_log.incidents
        counts = trace["counts"]
        differential = spec.kind == "differential"
        return {
            "index": index,
            "seed": spec.seed,
            "traced": traced,
            "workers": workers,
            "campaign_s": campaign_s,
            "setup_s": setup_s,
            "loop_s": sum(durations.get("core.loop", [])) / workers,
            "queries": final.queries_generated,
            "attempted": final.queries_generated + final.generations_rejected,
            "rejected": final.generations_rejected,
            "exec_errors": counts.get("core.exec_errors", 0),
            "limit_skips": counts.get("core.limit_skips", 0),
            # Against bug-free SQLite every mismatch is a false positive; a
            # TQS incident must name the seeded faults that fired.
            "mismatches": len(incidents) if differential else 0,
            "unattributed": 0 if differential else sum(
                1 for incident in incidents if not incident.fired_bug_ids),
            "bugs": result.bug_log.bug_count,
            "digest": verdict_digest(result),
            "phases": phases,
            "sync_s": phases.get("sync", 0.0),
            "worker_s": worker_run.sum if worker_run is not None else 0.0,
            "trace": trace,
        }


def run_campaigns(bench: Bench, seconds: float, traced: bool
                  ) -> Dict[str, Any]:
    """The run proper: warm-up, then campaigns until *seconds* are spent.

    Untraced, campaigns 0, 1, 2, ... run once each.  Traced, each campaign
    runs twice, untraced and traced in alternating order, so the difference
    is the tracing overhead and both verdicts can be compared.
    """
    warm = bench.campaign(0)
    records: List[Dict[str, Any]] = []
    start = time.perf_counter()
    index = 0
    while True:
        if traced:
            order = (False, True) if index % 2 == 0 else (True, False)
            records.extend(bench.campaign(index, traced=mode) for mode in order)
        else:
            records.append(bench.campaign(index))
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"warm": warm, "records": records,
            "measured_s": time.perf_counter() - start}


def gate(workload, warm: Dict[str, Any], records: List[Dict[str, Any]]
         ) -> Dict[str, Any]:
    """The correctness gate; every violation is one failed operation."""
    digests: Dict[int, set] = {0: {warm["digest"]}}
    for record in records:
        digests.setdefault(record["index"], set()).add(record["digest"])
    unrepeatable = sum(1 for seen in digests.values() if len(seen) > 1)
    mismatches = sum(record["mismatches"] for record in records)
    unattributed = sum(record["unattributed"] for record in records)
    no_bugs = int(workload.kind == "tqs"
                  and sum(record["bugs"] for record in records) == 0)
    violations = mismatches + unattributed + unrepeatable + no_bugs
    return {"correct": violations == 0, "violations": violations,
            "mismatches": mismatches, "unattributed_incidents": unattributed,
            "unrepeatable_digests": unrepeatable, "tqs_found_no_bugs": no_bugs}


def end_to_end(records: List[Dict[str, Any]], failed: int,
               attempted: int) -> Dict[str, float]:
    """End-to-end figures of the untraced campaigns of a run.

    Per-query costs are heavy-tailed (a CROSS JOIN query can cost a hundred
    median ones), so the bounded figures are medians over many small units:
    simulated hours, campaigns and queries.  The tail, the bug rate and the
    failure share are reported beside them, unbounded.
    """
    workers = records[0]["workers"] if records else 1
    loop_s = sum(record["loop_s"] for record in records)
    query_ms = [1000.0 * seconds for record in records
                for seconds in record["trace"]["durations"].get("iteration", [])]
    hour_rates = [queries / seconds for record in records
                  for seconds, queries in record["trace"]["hours"] if seconds]
    tail = percentile_tail(query_ms)
    return {
        "queries_per_s": workers * median(hour_rates),
        "campaign_s": median([record["campaign_s"] for record in records]),
        "setup_s": median([record["setup_s"] for record in records]),
        "query_p50_ms": median(query_ms),
        "peak_rss_mb": peak_rss_mb(),
        "query_tail_ms": tail["value"],
        "query_tail_percentile": tail["percentile"],
        "query_tail_samples": tail["samples"],
        "bugs_per_min": sum(record["bugs"] for record in records)
        / (loop_s / 60.0) if loop_s else 0.0,
        "failed_frac": failed / attempted if attempted else 0.0,
        "loop_queries_per_s": sum(record["queries"] for record in records)
        / loop_s if loop_s else 0.0,
    }


def per_layer(traced: List[Dict[str, Any]], plain: List[Dict[str, Any]]
              ) -> Dict[str, float]:
    """Per-layer figures of the traced campaigns, per campaign unless noted."""
    merged = Recorder()
    for record in traced:
        merged.absorb(record["trace"])
    durations, self_s, counts = merged.durations, merged.self_s, merged.counts
    n = max(len(traced), 1)

    def calls(name: str) -> float:
        return len(durations.get(name, [])) / n

    def own(name: str) -> float:
        return self_s.get(name, 0.0) / n

    def p50_ms(name: str) -> float:
        return 1000.0 * median(durations.get(name, []))

    def tail_ms(name: str) -> float:
        return 1000.0 * percentile_tail(durations.get(name, []))["value"]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: Dict[str, float] = {
        "dsg.build_s": median(durations.get("dsg.build", [])),
        "dsg.generate.calls": calls("dsg.generate"),
        "dsg.generate.self_s": own("dsg.generate"),
        "dsg.generate.p50_ms": p50_ms("dsg.generate"),
        "dsg.generate.reject_frac": ratio(
            counts.get("dsg.generate.rejects", 0),
            counts.get("dsg.generate.rejects", 0)
            + counts.get("dsg.generate.ok", 0)),
        "dsg.transform.self_s": own("dsg.transform"),
        "dsg.ground_truth.self_s": own("dsg.ground_truth"),
        "kqe.choose.self_s": own("kqe.choose"),
        "kqe.register.self_s": own("kqe.register"),
        "kqe.label.self_s": own("kqe.label"),
        "kqe.novel_frac": ratio(counts.get("kqe.novel", 0),
                                len(durations.get("kqe.register", []))),
    }
    for side in ("reference", "target"):
        name = f"engine.{side}"
        metrics.update({
            f"{name}.calls": calls(name),
            f"{name}.self_s": own(name),
            f"{name}.p50_ms": p50_ms(name),
            f"{name}.tail_ms": tail_ms(name),
            f"{name}.rows_out": counts.get(f"{name}.rows_out", 0) / n,
        })
    queries = sum(record["queries"] for record in traced)
    loop_s = sum(sum(record["trace"]["durations"].get("core.loop", []))
                 for record in traced)
    loop_other = self_s.get("core.loop", 0.0) + self_s.get("iteration", 0.0)
    worker_s = sum(record["worker_s"] for record in traced)
    sync_s = sum(record["sync_s"] for record in traced)
    metrics.update({
        "backends.deploy_s": median(durations.get("backends.deploy", [])),
        "backends.execute.calls": calls("backends.execute"),
        "backends.execute.self_s": own("backends.execute"),
        "backends.execute.error_frac": ratio(
            counts.get("backends.execute.errors", 0),
            len(durations.get("backends.execute", []))),
        "backends.render.self_s": own("backends.render"),
        "core.judge.self_s": own("core.judge"),
        "core.verify.self_s": own("core.verify"),
        "core.skip_frac": ratio(counts.get("core.limit_skips", 0), queries),
        "core.loop_other_s": loop_other / n,
        "parallel.sync.wait_s": sync_s / n,
        "parallel.busy_frac": ratio(worker_s - sync_s, worker_s),
        "distributed.round_s": median(durations.get("distributed.round", [])),
        "distributed.frames": counts.get("distributed.frames", 0) / n,
        "distributed.bytes_out": counts.get("distributed.bytes_out", 0) / n,
    })
    # Trace quality: overhead against the untraced twin of each campaign,
    # loop coverage, and traced self time against the program's own phases.
    traced_s = sum(record["campaign_s"] for record in traced)
    plain_s = sum(record["campaign_s"] for record in plain)
    layer_s = sum(self_s.get(name, 0.0) for name in (
        "engine.reference", "engine.target", "backends.execute",
        "backends.render"))
    phase_s = sum(record["phases"].get(name, 0.0) for record in traced
                  for name in ("execute.reference", "execute.target", "render"))
    metrics.update({
        "trace.overhead_ratio": ratio(traced_s, plain_s),
        "trace.coverage": 1.0 - ratio(loop_other, loop_s),
        "trace.xcheck_ratio": ratio(layer_s, phase_s),
    })
    return metrics


def xcheck_pairs(traced: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Traced self seconds beside the obs phase seconds of the same run."""
    pairs = {"engine.reference": "execute.reference",
             "engine.target": "execute.target",
             "backends.render": "render"}
    out = {}
    for layer, phase in pairs.items():
        spans = sum(record["trace"]["self_s"].get(layer, 0.0)
                    for record in traced)
        phases = sum(record["phases"].get(phase, 0.0) for record in traced)
        out[f"{layer} vs phase {phase}"] = [round(spans, 6), round(phases, 6)]
    return out


def slowest_queries(traced: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    iterations = [iteration for record in traced
                  for iteration in record["trace"]["iterations"]]
    iterations.sort(key=lambda item: item["seconds"], reverse=True)
    return [{"ms": round(1000.0 * item["seconds"], 3),
             "sql_sha": item["sql_sha"], "sql": item["sql"],
             "layers_ms": {name: round(1000.0 * seconds, 3)
                           for name, seconds in sorted(item["layers"].items())}}
            for item in iterations[:TAIL_QUERIES]]


def measure(workload, seed: int, seconds: float, traced: bool,
            metric_units: Dict[str, str]) -> Dict[str, Any]:
    """Run the benchmark once; returns the report and the result object."""
    bench = Bench(workload, seed)
    try:
        run = run_campaigns(bench, seconds, traced)
    finally:
        bench.close()
    records = run["records"]
    verdict = gate(workload, run["warm"], records)
    attempted = sum(record["attempted"] for record in records)
    failed = verdict["violations"] + sum(
        record["rejected"] + record["exec_errors"] for record in records)
    plain = [record for record in records if not record["traced"]]
    traced_records = [record for record in records if record["traced"]]
    values = end_to_end(plain, failed, attempted)
    if traced:
        values.update(per_layer(traced_records, plain))
    report: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "environment": environment(),
        "measured_s": run["measured_s"],
        "campaigns": len(records),
        "gate": verdict,
        "figures": dict(values),
        "per_campaign": [
            {key: record[key] for key in (
                "index", "seed", "traced", "campaign_s", "setup_s", "loop_s",
                "queries", "bugs")}
            for record in records],
    }
    if traced:
        report["slowest_queries"] = slowest_queries(traced_records)
        report["xcheck_seconds"] = xcheck_pairs(traced_records)
    result = {
        "correct": verdict["correct"],
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metric_units.items()},
    }
    return {"report": report, "result": result}


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(benchmark: Dict[str, Any], traced: bool) -> Dict[str, str]:
    key = "per_layer" if traced else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in benchmark[key]}


def self_test(benchmark: Dict[str, Any]) -> int:
    """Tiny-budget runs of every workload, then prove the gate is live."""
    problems: List[str] = []
    for name in [workload["name"] for workload in benchmark["workloads"]]:
        for traced in (False, True):
            units = metric_units(benchmark, traced)
            outcome = measure(tiny(WORKLOADS[name]), 1, 0.0, traced, units)
            metrics = outcome["result"]["metrics"]
            missing = [metric for metric in units if metric not in metrics]
            if missing or not outcome["result"]["correct"]:
                problems.append(f"{name} trace={int(traced)}: missing "
                                f"{missing}, gate {outcome['report']['gate']}")
            print(f"self-test {name} trace={int(traced)}: "
                  f"{len(metrics)} metrics, gate "
                  f"{'passed' if outcome['result']['correct'] else 'FAILED'}")
    # A seeded-bug engine in place of SQLite must trip the gate.
    buggy = tiny(WORKLOADS["diff-sqlite"], backend="sim:SimMySQL",
                 queries_per_hour=24)
    outcome = measure(buggy, 1, 0.0, False, metric_units(benchmark, False))
    tripped = not outcome["result"]["correct"] and outcome["result"]["failed"]
    print(f"self-test gate with SimulatedBackend(SIM_MYSQL): "
          f"{'tripped' if tripped else 'DID NOT TRIP'} "
          f"({outcome['report']['gate']['mismatches']} mismatches)")
    if not tripped:
        problems.append("gate did not trip on a seeded-bug target")
    for problem in problems:
        print(f"self-test problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    benchmark = load_benchmark()
    if args.self_test:
        return self_test(benchmark)
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    outcome = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), metric_units(benchmark, bool(args.trace)))
    print(json.dumps({"report": outcome["report"]}, sort_keys=True))
    print(json.dumps(outcome["result"], sort_keys=True))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
