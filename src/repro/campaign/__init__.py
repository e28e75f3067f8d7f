"""Fleet-scale experiment campaigns.

The Section 5/6 evaluation is a grid of (policy x pair x geometry)
cells; this package scales that grid from dozens of cells to millions
while keeping every record reproducible:

- :mod:`repro.campaign.manifest` — a declarative manifest (JSON) whose
  axes expand into a deterministic, content-addressed cell list;
- :mod:`repro.campaign.planner` — groups cells into shards, one kind
  per control structure (its ``SHARD_KINDS`` table lists them);
- :mod:`repro.campaign.runner` — sharded, checkpointed, resumable
  execution with bounded retry, writing one atomic
  :class:`~repro.analysis.store.RunSet` shard file per shard;
- :mod:`repro.campaign.summary` — reduces a shard store back into the
  compare/render pipeline.
"""

from repro.campaign.manifest import (
    CampaignCell,
    CampaignManifest,
    UnknownManifestKey,
    expand_manifest,
    load_manifest,
    manifest_from_dict,
)
from repro.campaign.planner import ShardPlan, plan_shards
from repro.campaign.runner import (
    CampaignResult,
    run_campaign,
    run_campaign_cell,
    verify_campaign,
)
from repro.campaign.summary import load_campaign_store, summarize_campaign

__all__ = [
    "CampaignCell",
    "CampaignManifest",
    "CampaignResult",
    "ShardPlan",
    "UnknownManifestKey",
    "expand_manifest",
    "load_campaign_store",
    "load_manifest",
    "manifest_from_dict",
    "plan_shards",
    "run_campaign",
    "run_campaign_cell",
    "summarize_campaign",
    "verify_campaign",
]
