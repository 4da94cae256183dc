"""Execution layer for experiment cell plans.

``repro.experiments`` declares *what* to measure (cell plans);
this package decides *how*: :mod:`repro.runner.campaign` flattens any
set of experiments into one shared heaviest-first cell pool (the CLI
runs every request — one experiment or all twelve — as a campaign),
:mod:`repro.runner.executor` keeps the single-experiment API on top of
it, and :mod:`repro.runner.store` persists every cell record as a JSON
file under ``runs/`` so interrupted campaigns resume from what they
already measured and ``ring-repro report`` re-renders tables — and
refits growth laws (:func:`repro.analysis.growth.refit_from_store`) —
without re-simulating.  :mod:`repro.runner.sharding` partitions one
campaign across N machines (``--shard i/N``) and
:mod:`repro.runner.ingest` merges their stores back into one fleet
store with explicit conflict rules.
"""

from repro.runner.campaign import (
    CampaignExecution,
    PartialExecution,
    execute_campaign,
)
from repro.runner.executor import (
    CellOutcome,
    PlanExecution,
    execute_plan,
    report_from_store,
)
from repro.runner.ingest import IngestConflict, IngestReport, ingest_stores
from repro.runner.sharding import (
    SHARD_STRATEGIES,
    lpt_assignment,
    owns,
    parse_shard,
    shard_index,
)
from repro.runner.store import RunStore, StoredCell

__all__ = [
    "CampaignExecution",
    "CellOutcome",
    "IngestConflict",
    "IngestReport",
    "PartialExecution",
    "PlanExecution",
    "RunStore",
    "SHARD_STRATEGIES",
    "StoredCell",
    "execute_campaign",
    "execute_plan",
    "ingest_stores",
    "lpt_assignment",
    "owns",
    "parse_shard",
    "report_from_store",
    "shard_index",
]
