"""The benchmark's workloads: seeded campaigns through the public API.

A workload fixes only what describes the traffic: campaign kind, target,
dataset, grammar mix, worker count, budget and seed.  It never sets an
implementation option (reference executor, query cache, pipeline batch
size), so a later change to a default is measured on the same traffic.

One run executes a deterministic sequence of campaigns.  Campaign ``i`` of
run seed ``s`` is ``CampaignSpec(seed=s * 1000 + i, ...)``; a run keeps
starting campaigns until its measuring time is spent.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict


@dataclass(frozen=True)
class Workload:
    name: str
    # CampaignSpec fields describing the traffic of one campaign.
    traffic: Dict[str, Any] = field(default_factory=dict)
    # "tcp" runs the campaign's shards over the localhost index server.
    transport: str = ""

    def spec(self, run_seed: int, index: int):
        from repro import CampaignSpec

        return CampaignSpec(**self.traffic,
                            seed=campaign_seed(run_seed, index))

    @property
    def pooled(self) -> bool:
        return self.traffic.get("workers", 1) > 1

    @property
    def kind(self) -> str:
        return self.traffic["kind"]


def campaign_seed(run_seed: int, index: int) -> int:
    return run_seed * 1000 + index


_DIFF = {"kind": "differential", "backend": "sqlite", "dataset": "shopping"}

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "diff-sqlite",
            {**_DIFF, "dataset_rows": 40, "hours": 2, "queries_per_hour": 6},
        ),
        Workload(
            "tqs-sim",
            {"kind": "tqs", "dialect": "SimMySQL", "dataset": "shopping",
             "dataset_rows": 10, "hours": 2, "queries_per_hour": 6},
        ),
        Workload(
            "pool2-tcp",
            {**_DIFF, "workers": 2, "dataset_rows": 40, "hours": 2,
             "queries_per_hour": 12},
            transport="tcp",
        ),
    )
}


def run_workload_campaign(workload: Workload, spec):
    """Run one campaign; returns ``(CampaignResult, telemetry dict or None)``.

    Serial workloads go through ``run_campaign``.  The pooled workload splits
    the same spec into shards and runs them with ``run_parallel_shards`` over
    the TCP transport, which ``run_campaign`` does not select.
    """
    from repro import ParallelCampaignConfig, run_campaign, run_parallel_shards
    from repro.core import build_shard_specs

    if not workload.pooled:
        return run_campaign(spec), None
    shards = build_shard_specs(spec.kind, spec.campaign_config(), spec.workers,
                               dialect=spec.dialect, backend=spec.backend,
                               batch_size=spec.pipeline_batch_size)
    result = run_parallel_shards(shards, ParallelCampaignConfig(
        workers=spec.workers, pipeline_batch_size=spec.pipeline_batch_size,
        transport=workload.transport or "local"))
    return result.merged, result.telemetry


def verdict_digest(result) -> str:
    """Hash of what a campaign decided: hourly samples plus incident SQL."""
    payload = {
        "samples": [asdict(sample) for sample in result.samples],
        "incidents": [incident.query_sql
                      for incident in result.bug_log.incidents],
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tiny(workload: Workload, **overrides: Any) -> Workload:
    """The same workload on a one-hour budget (the self-test)."""
    traffic = {**workload.traffic, "hours": 1, "queries_per_hour": 6,
               **overrides}
    return replace(workload, traffic=traffic)
