#!/usr/bin/env python
"""One cheap bench run for the perf-regression ledger.

Runs the counter-style quick fleet (E1, E7, E8, E11 — a fast
end-to-end workload in the spirit of ``bench_campaign.py``'s timing
subset) through one shared 2-worker pool, once with no store and once
into a fresh temporary store, and emits one canonical
``{records: [...]}`` payload:

* ``quick_fleet.wall_s`` / ``quick_fleet.measured_cell_s`` — timing
  metrics the ledger's drift bands watch for step-change regressions;
* ``quick_fleet.cells`` / ``quick_fleet.subtasks`` — deterministic
  work-item counts (a plan that silently grows or shrinks drifts);
* ``quick_fleet.<exp>.rows`` — per-experiment result-table row counts
  (deterministic; a table that changes shape drifts);
* ``quick_fleet_store.wall_s`` / ``quick_fleet_store.cells`` — the same
  fleet with the store on, so config hashing and store writes, which
  the store-less leg never reaches, stay under the drift bands too.
* ``e3_compiled.cell_s`` / ``e3_compiled.follower_steps`` — the
  full-preset ``E3/k=2`` cell run in-process: its wall clock, and
  (on a second run) its deterministic count of inner ``follower_step``
  calls, so Theorem 3's compiled transducer, which the fleet never
  reaches, is watched too (losing its relay memo multiplies both).

Usage (CI's ledger-gate job, or locally to extend the history)::

    PYTHONPATH=src python benchmarks/quick_bench.py --out BENCH.json
    PYTHONPATH=src python -m repro.cli ledger append BENCH.json --run-id r1
    PYTHONPATH=src python -m repro.cli ledger check
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import tempfile
import time
from unittest import mock

from bench_harness import bench_record, write_bench_records
from repro.core.passes_tradeoff import TwoPassTradeoffRecognizer
from repro.experiments import RunProfile, get_spec
from repro.experiments.base import run_cell
from repro.languages.regular import tradeoff_language
from repro.runner import RunStore, execute_campaign

FLEET = ("E1", "E7", "E8", "E11")
QUICK = RunProfile(preset="quick")


def collect(jobs: int = 2) -> "list[dict]":
    """Run the quick fleet without and with a store; return the records."""
    specs = [get_spec(exp_id) for exp_id in FLEET]
    campaign = execute_campaign(specs, QUICK, jobs=jobs)
    context = f"{'+'.join(FLEET)} --quick --jobs {jobs}"
    records = [
        bench_record(
            "quick_fleet.wall_s",
            round(campaign.wall_seconds, 6),
            "s",
            context,
        ),
        bench_record(
            "quick_fleet.measured_cell_s",
            round(campaign.measured_seconds, 6),
            "s",
            context,
        ),
        bench_record(
            "quick_fleet.cells", campaign.cell_count, "cells", context
        ),
        bench_record(
            "quick_fleet.subtasks",
            campaign.subtasks_run,
            "subtasks",
            context,
        ),
    ]
    for exp_id in FLEET:
        execution = campaign.executions[exp_id]
        execution.result.require_passed()
        records.append(
            bench_record(
                f"quick_fleet.{exp_id}.rows",
                len(execution.result.rows),
                "rows",
                context,
            )
        )
    with tempfile.TemporaryDirectory() as root:
        stored = execute_campaign(
            specs, QUICK, jobs=jobs, store=RunStore(root)
        )
    for execution in stored.executions.values():
        execution.result.require_passed()
    store_context = f"{context} --store <fresh>"
    records += [
        bench_record(
            "quick_fleet_store.wall_s",
            round(stored.wall_seconds, 6),
            "s",
            store_context,
        ),
        bench_record(
            "quick_fleet_store.cells",
            stored.cell_count,
            "cells",
            store_context,
        ),
    ]
    return records + e3_compiled_records()


def e3_compiled_records() -> "list[dict]":
    """Time the full-preset E3/k=2 cell, then count its follower steps."""
    (cell,) = [
        cell
        for cell in get_spec("E3").cells(RunProfile(preset="full"))
        if cell.key == "k=2"
    ]
    start = time.perf_counter()
    run_cell(cell)
    seconds = time.perf_counter() - start
    inner = type(TwoPassTradeoffRecognizer(tradeoff_language(2)).multipass)
    original = inner.follower_step
    calls = 0

    def counting(self, letter, memory, incoming):
        nonlocal calls
        calls += 1
        return original(self, letter, memory, incoming)

    with mock.patch.object(inner, "follower_step", counting):
        run_cell(cell)
    context = "E3/k=2 --preset full, in-process"
    return [
        bench_record("e3_compiled.cell_s", round(seconds, 6), "s", context),
        bench_record("e3_compiled.follower_steps", calls, "calls", context),
    ]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="",
        help="write the canonical payload here (default: stdout)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2, help="pool size (default 2)"
    )
    args = parser.parse_args(argv)
    records = collect(jobs=args.jobs)
    date = datetime.date.today().isoformat()
    machine = platform.machine() or "unknown"
    if args.out:
        write_bench_records(args.out, records, date=date, machine=machine)
        print(f"wrote {len(records)} record(s) to {args.out}")
    else:
        payload = {"date": date, "machine": machine, "records": records}
        print(json.dumps(payload, sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
