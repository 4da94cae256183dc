"""The benchmark's workloads: inputs, one iteration each, and its checks.

A workload is a campaign request plus what the benchmark does around it.
The seed permutes the experiment request order (and, for
``store-replay``, the order of the two shard stores); the program only
ever sees the resulting request, and every per-experiment output is
checked against a digest pinned per workload, which must not depend on
the seed.

Every iteration gets its own store and its own ``REPRO_TELEMETRY_DIR``
under the run's work directory, so the repository's ``runs/`` and
``benchmarks/LEDGER.jsonl`` are never touched, while the journal stays
on as users run it.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import re
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import repro.analysis.growth as growth
import repro.dashboard as dashboard
import repro.runner as runner
from repro.experiments import RunProfile, get_spec
from repro.experiments.registry import ALL_SPECS
from repro.runner.store import RunStore, read_record_payload

JOBS = 2  # the pool size users run on a 2-core machine
SHARDS = 2  # store-replay's fleet size


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: "tuple[str, ...]"
    preset: str
    # The untimed warm-up runs these experiments at ``warm_preset``: the
    # same code paths, linecache and page cache, at a fraction of the
    # cost when the workload's own preset takes many seconds.
    warm_preset: str
    replay: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("full-fresh", tuple(ALL_SPECS), "full", "full"),
        Workload("long-counters", ("E1", "E7", "E8", "E11"), "long", "quick"),
        Workload("store-replay", tuple(ALL_SPECS), "full", "full", replay=True),
    )
}

# Dashboard bytes that legitimately change with code identity rather
# than with results: 12-hex config hashes (in provenance tables and
# store file names).  Masked so a hashing change is not a mismatch;
# the store's own path, which the pages name, is masked too.
_CONFIG_HASH = re.compile(r"\b[0-9a-f]{12}\b")


def _cpu() -> "tuple[float, float]":
    """(this process, reaped children) CPU seconds so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime,
        children.ru_utime + children.ru_stime,
    )


def _strip_seconds(value):
    """The value without its wall-clock fields (the one varying part)."""
    if isinstance(value, dict):
        return {
            key: _strip_seconds(item)
            for key, item in value.items()
            if key != "seconds"
        }
    if isinstance(value, list):
        return [_strip_seconds(item) for item in value]
    return value


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Iteration:
    """What one workload iteration measured and produced."""

    seconds: float
    own_cpu_s: float
    child_cpu_s: float
    # op name -> digest of what the op produced
    digests: "dict[str, str]" = field(default_factory=dict)
    # op name -> why it failed, for failures a digest cannot show
    errors: "dict[str, str]" = field(default_factory=dict)
    campaign: "runner.CampaignExecution | None" = None
    planned_cells: int = 0
    journal_events: int = 0
    journal_bytes: int = 0
    ingest_records: int = 0
    dashboard_bytes: int = 0

    @property
    def cpu_s(self) -> float:
        return self.own_cpu_s + self.child_cpu_s

    def failures(self, pinned: "dict[str, str]") -> "dict[str, str]":
        """Failed ops of this iteration against the pinned digests."""
        failed = dict(self.errors)
        for op, value in self.digests.items():
            if op not in failed and value != pinned.get(op):
                failed[op] = f"digest {value} != pinned {pinned.get(op)}"
        return failed


class Bench:
    """One workload under one seed, inside one work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        rng = random.Random(seed)
        self.order = list(workload.experiments)
        rng.shuffle(self.order)
        self.shard_order = list(range(1, SHARDS + 1))
        rng.shuffle(self.shard_order)
        self.profile = RunProfile(preset=workload.preset)
        self.work = work
        self._count = itertools.count()

    def ops(self) -> "list[str]":
        """Every operation one iteration attempts, in order."""
        if not self.workload.replay:
            return list(self.order)
        return ["ingest", *self.order, "refit", "dashboard"]

    def specs(self, tracer=None) -> list:
        specs = [get_spec(exp_id) for exp_id in self.order]
        if tracer is not None:
            specs = [tracer.wrap_spec(spec) for spec in specs]
        return specs

    def _shard_dir(self, index: int) -> Path:
        return self.work / f"shard{index}"

    def prepare(self) -> None:
        """Untimed preparation: store-replay's two shard stores."""
        if not self.workload.replay:
            return
        os.environ["REPRO_TELEMETRY_DIR"] = str(self.work / "prep-telemetry")
        for index in self.shard_order:
            runner.execute_campaign(
                self.specs(),
                self.profile,
                jobs=JOBS,
                store=RunStore(self._shard_dir(index)),
                shard=(index, SHARDS),
            )

    def warm(self) -> None:
        """One untimed pass over the workload's code paths.

        Fills imports, ``linecache`` (config hashing reads source), the
        page cache, and the shard stores' pages.  Raises if an
        experiment's claim fails: nothing after it would be meaningful.
        """
        if self.workload.warm_preset == self.workload.preset:
            self.iterate()
            return
        root = self.work / "warm"
        os.environ["REPRO_TELEMETRY_DIR"] = str(root / "telemetry")
        campaign = runner.execute_campaign(
            self.specs(),
            RunProfile(preset=self.workload.warm_preset),
            jobs=JOBS,
            store=RunStore(root / "store"),
        )
        for execution in campaign.executions.values():
            execution.result.require_passed()
        shutil.rmtree(root)

    def iterate(self, tracer=None, jobs: int = JOBS) -> Iteration:
        """Run one timed iteration, then check its outputs (untimed).

        The timer spans from the first call into the program until the
        last result returns.  An exception fails every op of the
        iteration; it is reported, not raised, so one bad iteration
        cannot hide the others' figures.
        """
        root = self.work / f"it{next(self._count)}"
        store_dir = root / "store"
        telemetry = root / "telemetry"
        os.environ["REPRO_TELEMETRY_DIR"] = str(telemetry)
        specs = self.specs(tracer)
        profile = self.profile
        report = campaign = fits = written = None
        gc.collect()
        own0, child0 = _cpu()
        started = time.perf_counter()
        try:
            if self.workload.replay:
                report = runner.ingest_stores(
                    [self._shard_dir(index) for index in self.shard_order],
                    store_dir,
                    strip_seconds=True,
                )
                campaign = runner.execute_campaign(
                    specs, profile, jobs=jobs, store=RunStore(store_dir), resume=True
                )
                fits = {
                    spec.exp_id: growth.refit_from_store(
                        store_dir, spec.exp_id, profile
                    )
                    for spec in specs
                    if spec.curves is not None
                }
                written = dashboard.build_dashboard(
                    RunStore(store_dir),
                    profile,
                    out_dir=root / "dashboard",
                    timeline_jobs=jobs,
                    bench_dir=Path("benchmarks"),
                )
            else:
                campaign = runner.execute_campaign(
                    specs, profile, jobs=jobs, store=RunStore(store_dir)
                )
            error = None
        except Exception:  # the iteration is the failure boundary
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        seconds = time.perf_counter() - started
        own1, child1 = _cpu()

        it = Iteration(seconds, own1 - own0, child1 - child0, campaign=campaign)
        if error is not None:
            last = error.strip().splitlines()[-1]
            it.errors = {op: f"iteration raised: {last}" for op in self.ops()}
        else:
            self._check(it, report, fits, written, store_dir)
        for path in telemetry.glob("*.jsonl"):
            data = path.read_bytes()
            it.journal_events += data.count(b"\n")
            it.journal_bytes += len(data)
        shutil.rmtree(root)
        return it

    def _check(self, it, report, fits, written, store_dir) -> None:
        campaign = it.campaign
        it.planned_cells = sum(
            len(execution.outcomes) for execution in campaign.executions.values()
        )
        for exp_id in self.order:
            execution = campaign.executions[exp_id]
            if not execution.result.passed:
                it.errors[exp_id] = "claim check failed"
            missed = sum(1 for o in execution.outcomes if not o.cached)
            if self.workload.replay and missed:
                it.errors[exp_id] = f"{missed} cell(s) missed the store"
            it.digests[exp_id] = digest(
                {
                    "table": execution.result.render(),
                    "records": [
                        _strip_seconds(outcome.record)
                        for outcome in execution.outcomes
                    ],
                }
            )
        if not self.workload.replay:
            return
        it.ingest_records = len(report.ingested)
        merged = sorted(
            (
                payload["exp_id"],
                payload["preset"],
                payload["key"],
                _strip_seconds(payload["record"]),
            )
            for payload in map(
                read_record_payload, RunStore(store_dir).existing_files()
            )
        )
        it.digests["ingest"] = digest(merged)
        it.digests["refit"] = digest(
            {
                exp_id: {name: fit.as_dict() for name, fit in curves.items()}
                for exp_id, curves in fits.items()
            }
        )
        # telemetry.html replays the live journal (timing data), and
        # bench-trajectory.json folds the checkout's BENCH_*.json files,
        # not the store; neither is a product of the replayed records.
        pages = {}
        for path in written:
            text = path.read_text(encoding="utf-8")
            it.dashboard_bytes += len(text.encode())
            if path.name not in ("telemetry.html", "bench-trajectory.json"):
                text = text.replace(str(store_dir), "<store>")
                pages[path.name] = _CONFIG_HASH.sub("<hash>", text)
        it.digests["dashboard"] = digest(pages)
