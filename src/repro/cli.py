"""Command-line entry point: regenerate the EXPERIMENTS.md tables.

One subcommand per job, each with its own flags (``ring-repro COMMAND
--help`` lists them; a flag a command would not read is a usage error)::

    ring-repro [run] EXP... [--preset P] [--jobs N] [--resume] [--shard I/N]
    ring-repro report [EXP...] [--all] [--refit] [--prune-stale [--dry-run]]
    ring-repro dashboard [--out DIR] [--open] [--fleet N] [--jobs N]
    ring-repro ingest SRC... [--into DIR] [--strip-seconds]
    ring-repro trace [--campaign ID]
    ring-repro ledger {seed | append FILE | check} [--ledger PATH]

``run`` is implied when the first argument is not a command name.
Examples::

    ring-repro all                  # every experiment, full sweeps
    ring-repro E7 E8                # selected experiments
    ring-repro all --quick          # reduced sweeps (what the tests run)
    ring-repro all --preset quick   # same, spelled as a preset
    ring-repro E8 --preset long     # n >= 10^4 metrics-mode sweeps
    ring-repro all --preset long --jobs 4  # one shared 4-worker cell pool
    ring-repro E8 --preset long --resume   # skip cells already in runs/
    ring-repro report E8 --preset long     # re-render from runs/, no sims
    ring-repro report --all --refit        # campaign report + growth refits
    ring-repro report --all --prune-stale  # delete unloadable stored files
    ring-repro report --all --prune-stale --dry-run  # list only, keep files
    ring-repro dashboard                   # static HTML+JSON/CSV from runs/
    ring-repro dashboard --preset long --out site --open
    ring-repro E1 --sizes 64,256,1024   # explicit ring sizes
    ring-repro E9 E10 --preset long --mode model   # analytic path to n=2^20
    ring-repro E9 E10 --preset long --mode verify  # calibrate vs simulator
    ring-repro all --profile        # per-experiment cost + pool utilization
    ring-repro all --quick --shard 2/3 --store shard-2  # fleet leg 2 of 3
    ring-repro ingest shard-1 shard-2 shard-3 --into runs  # merge the fleet
    ring-repro ingest shard-* --into fleet --strip-seconds # byte-diffable
    ring-repro trace                # replay the latest campaign journal
    ring-repro trace --campaign ID  # ...or a specific one
    ring-repro ledger seed          # fold BENCH_*.json into the ledger
    ring-repro ledger append FILE --run-id ID  # record one bench run
    ring-repro ledger check         # gate: newest run vs drift bands
    python -m repro.cli E9          # equivalent module form

Presets select a sweep variant per experiment: ``quick`` (unit-test
sizes), ``full`` (the EXPERIMENTS.md tables, default), and ``long`` —
the counter-only experiments (E1, E7-E11) at ring sizes up to ~1.6*10^4,
which stay cheap because those sweeps stream ``trace="metrics"`` (see
PERFORMANCE.md); experiments without a dedicated long sweep fall back to
their full one.  ``--sizes N,N,...`` overrides the ring sizes outright,
for ad-hoc scaling runs.

``--mode`` adds the analytic-model axis (PERFORMANCE.md layer 7) for
experiments whose bit counts are position-determined (E9/E10): ``model``
evaluates the closed-form accounting of :mod:`repro.analysis.models`
instead of simulating — O(log n) per cell, and the long sweeps extend
past the simulable ceiling to n = 2^20 — while ``verify`` runs *both* at
simulable sizes and persists a bit-for-bit calibration verdict per cell
(the simulator stays the oracle; ``--profile`` and the report/dashboard
surface the PASS/FAIL tally).  Mode is part of each cell's identity:
model-backed and simulated records of the same (experiment, size) are
distinct store entries, so neither ever invalidates the other.

Execution is a *campaign*: every requested experiment's plan of
independent ``(experiment, size)`` cells is flattened into one global
list and scheduled heaviest-first on a single shared pool — ``--jobs N``
means N workers for the whole campaign, not per experiment, so heavy
Θ(n²) cells of one experiment interleave with everyone else's instead
of serializing behind a per-experiment barrier.  Each experiment's
table prints the moment its own last cell lands (output order is still
request order, and tables are byte-identical to serial runs: every
cell's RNG seed derives from its identity, and records fold in plan
order).  Every measured cell persists as a JSON record under ``runs/``
as it lands (``--store DIR`` to relocate, ``--no-store`` to disable).
``--resume`` reuses stored records whose config hash still matches, so
an interrupted campaign continues from what it already measured.

Cells that declare a ``split`` hook are *divisible*: the campaign
schedules their subtasks as first-class pool work items (so one heavy
cell no longer pins the makespan to its own wall clock) and folds the
part records back into the exact cell record the monolithic path
produces — tables and stores are byte-identical either way, because
every part derives its randomness from a subtask seed on both paths.
Landed parts persist as ``.json.part`` records, so ``--resume``
restarts mid-cell; ``REPRO_NO_SPLIT=1`` disables splitting entirely,
keeping the undivided path available as the oracle.

``report`` renders entirely from the store and runs no simulations:
``--all`` appends an aggregated campaign summary over every experiment,
``--refit`` regenerates each experiment's growth-law fits from the
stored records (:func:`repro.analysis.growth.refit_from_store`), and
stale store files — ones no current cell can load (edited sweeps,
changed measurement code) — are warned about and deleted by
``--prune-stale`` after listing (``--dry-run`` lists and sizes them but
deletes nothing; records belonging to other ``--sizes`` overrides are
never stale and never touched).

``--shard i/N`` turns one run into fleet leg ``i`` of ``N``: the
campaign's global cell list is partitioned deterministically
(:mod:`repro.runner.sharding`), so N machines running the same
command with ``--shard 1/N .. N/N`` measure disjoint, covering subsets
into their own stores — campaign throughput scales with machines, not
cores.  ``--shard-strategy`` picks the partition: ``hash`` (default)
assigns each cell by a stable identity hash, while ``weight`` runs a
deterministic LPT pass over the campaign's planned cell weights so
heavy-tailed fleets balance their makespans (PERFORMANCE.md layer 9)
— every leg must then request the same experiments, preset, and mode.
Experiments whose cells all land locally still print their tables;
the rest stay partial until ``ingest`` merges the fleet.

``ingest SRC... --into DIR`` merges shard stores into one fleet store
(:mod:`repro.runner.ingest`): identical records (same key and config
hash) are deduped keeping the older copy, same-key records with
*differing* hashes are stale-pruned with a listed report (the hash the
current code reproduces wins), and corrupt source records are skipped
with a warning.  ``--strip-seconds`` zeroes per-record wall clocks on
the way in, which is what lets CI byte-diff a merged fleet store — and
the ``report``/``dashboard`` output rendered from it — against an
unsharded baseline.

``dashboard`` renders the store as a static site (``repro.dashboard``):
``index.html`` plus one page per experiment with SVG growth curves,
fitted Θ-envelopes, per-cell wall-clock bars, an LPT campaign timeline,
config-hash provenance and stale warnings, and machine exports
(``campaign.json``, per-experiment ``cells.csv``,
``bench-trajectory.json``).  Like ``report`` it never simulates; unlike
``report`` an incomplete or empty store is not an error — pages say
what is missing and the build exits 0.  ``--out DIR`` picks the output
directory (default ``dashboard/``), ``--open`` opens the index in a
browser, ``--jobs N`` sets the timeline's replayed worker count.
Output is byte-deterministic for a fixed store (CI diffs two renders).

``--profile`` prints per-experiment cost as the *sum of per-cell wall
clocks* (meaningful under any ``--jobs``), sorted heaviest first, plus
(for ``run``) a campaign utilization line (busy worker-seconds / wall *
jobs).  Exit status is non-zero when any executed experiment's claim
check fails.

Every campaign also journals its spans — cells, subtasks, folds,
finalizes, store writes — to an append-only JSONL sidecar under
``runs/_telemetry`` (:mod:`repro.obs.journal`; ``REPRO_TELEMETRY_DIR``
relocates it, ``REPRO_NO_TELEMETRY=1`` disables it, and stores, tables,
and dashboards are byte-identical either way).  ``trace`` replays a
journal into a critical-path report with per-worker idle attribution
and declared-weight calibration; ``ledger`` maintains
``benchmarks/LEDGER.jsonl`` — the append-only perf-regression ledger —
and ``ledger check`` exits nonzero when the newest bench run drifts
out of its robust trailing bands (the CI gate).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.growth import classify_growth
from repro.analysis.tables import format_table
from repro.errors import ReproError
from repro.experiments import (
    ALL_EXPERIMENTS,
    FIXED_SWEEP_EXPERIMENTS,
    RunProfile,
    get_spec,
)
from repro.runner import (
    CampaignExecution,
    PlanExecution,
    RunStore,
    execute_campaign,
    ingest_stores,
    parse_shard,
    report_from_store,
)
from repro.runner.store import DEFAULT_STORE_ROOT

__all__ = ["main", "parse_args", "parse_sizes", "build_profile"]


def parse_sizes(spec: str) -> tuple[int, ...]:
    """Parse a ``--sizes`` value: comma-separated positive ring sizes."""
    items = [piece.strip() for piece in spec.split(",")]
    if not any(items):
        raise ReproError("--sizes got an empty list")
    sizes = []
    for item in items:
        if not item:
            continue
        try:
            value = int(item)
        except ValueError:
            raise ReproError(
                f"--sizes expects comma-separated integers, got {item!r}"
            ) from None
        if value < 1:
            raise ReproError(f"--sizes needs positive ring sizes, got {value}")
        sizes.append(value)
    return tuple(sizes)


def build_profile(
    preset: str | None, sizes: str | None, quick: bool, mode: str = "sim"
) -> RunProfile:
    """Combine the sweep flags into one :class:`RunProfile`.

    ``--quick`` is the historical alias for ``--preset quick``; combining
    it with a *different* preset is a contradiction and an error.
    ``mode`` is the ``--mode`` axis (sim | model | verify) — validated by
    :class:`RunProfile` itself.
    """
    if quick and preset not in (None, "quick"):
        raise ReproError(
            f"--quick conflicts with --preset {preset}; pick one"
        )
    resolved = "quick" if quick else (preset or "full")
    return RunProfile(
        preset=resolved,
        sizes=parse_sizes(sizes) if sizes else None,
        mode=mode,
    )


def _profile_line(exp_id: str, execution: PlanExecution) -> str:
    """One experiment's ``--profile`` report: per-cell cost, not wall."""
    cached = (
        f", {execution.cached_count} from store"
        if execution.cached_count
        else ""
    )
    return (
        f"[{exp_id} took {execution.cell_seconds:.2f}s of cell time across "
        f"{len(execution.outcomes)} cells (wall {execution.wall_seconds:.2f}s, "
        f"jobs={execution.jobs}{cached})]"
    )


def _campaign_line(campaign: CampaignExecution) -> str:
    """The campaign-level ``--profile`` line: shared-pool utilization.

    Busy worker-seconds include measurement, fold, and finalize time —
    a worker reassembling a divided cell is as busy as one simulating —
    so the utilization ratio stays honest when campaigns split cells.
    """
    divided = (
        f", {campaign.subtasks_run} subtask(s) folded into "
        f"{campaign.cells_folded} cell(s)"
        if campaign.subtasks_run or campaign.cells_folded
        else ""
    )
    return (
        f"[campaign: {len(campaign.executions)} experiment(s), "
        f"{campaign.cell_count} cells ({campaign.cached_count} from store"
        f"{divided}), "
        f"busy {campaign.busy_seconds:.2f} worker-seconds over "
        f"{campaign.wall_seconds:.2f}s wall x {campaign.jobs} jobs => "
        f"utilization {campaign.utilization:.0%}]"
    )


def _calibration_line(campaign: CampaignExecution) -> "str | None":
    """The ``--profile`` calibration line for mode-routed campaigns."""
    counts = campaign.calibration
    model_cells = campaign.model_cell_count
    if not model_cells and not (counts["PASS"] or counts["FAIL"]):
        return None
    return (
        f"[calibration: {model_cells} model-backed cell(s); "
        f"{counts['PASS']} verify PASS, {counts['FAIL']} verify FAIL]"
    )


def _idle_line(campaign: CampaignExecution) -> "str | None":
    """The ``--profile`` idle-attribution line, from the span journal.

    Shares :func:`repro.obs.report.idle_summary` with ``ring-repro
    trace``, so the two reports agree by construction.  None when
    telemetry is off (``REPRO_NO_TELEMETRY=1``) or nothing was measured.
    """
    if campaign.journal is None:
        return None
    from repro.obs.report import idle_summary, load_trace

    summary = idle_summary(load_trace(campaign.journal.events))
    if summary is None:
        return None
    shares = summary["shares"]
    return (
        f"[idle: {summary['idle_s']:.2f} worker-second(s) across "
        f"{summary['lanes']} lane(s): "
        f"{shares['straggler']:.0%} straggler, "
        f"{shares['queue-empty']:.0%} queue-empty, "
        f"{shares['fold-barrier']:.0%} fold-barrier"
        " — 'ring-repro trace' breaks this down per worker]"
    )


def _print_profile(campaign: CampaignExecution) -> None:
    """Per-experiment cell time, heaviest first, then pool utilization."""
    ordered = sorted(
        campaign.executions.items(), key=lambda item: -item[1].cell_seconds
    )
    for exp_id, execution in ordered:
        print(_profile_line(exp_id, execution))
    print(_campaign_line(campaign))
    calibration = _calibration_line(campaign)
    if calibration is not None:
        print(calibration)
    idle = _idle_line(campaign)
    if idle is not None:
        print(idle)


def _warn_weights(campaign: CampaignExecution) -> None:
    """Flag cells whose declared LPT weight belies their measured cost.

    Computed from the campaign's own outcomes (works with telemetry
    off), printed to stderr so byte-diffed stdout never sees it.  The
    class of bug this catches: a divisible witness cell declaring
    weight 24 for a ~15 s BFS, which LPT then scheduled last.
    """
    from repro.obs.report import WEIGHT_RATIO_CAP, weight_calibration

    entries = [
        (
            outcome.cell.exp_id,
            outcome.cell.key,
            outcome.cell.weight,
            outcome.seconds,
        )
        for outcome in campaign._outcomes()
        if not outcome.cached
    ]
    flagged = [
        row for row in weight_calibration(entries) if row["flagged"]
    ]
    if not flagged:
        return
    print(
        f"[weight-calibration: {len(flagged)} cell(s) whose declared "
        f"Cell.weight is >{WEIGHT_RATIO_CAP:g}x off their experiment's "
        "measured seconds-per-weight scale — LPT schedules them "
        "dishonestly:",
        file=sys.stderr,
    )
    for row in flagged:
        print(
            f"  {row['exp']}/{row['key']}: weight {row['weight']:g} "
            f"predicts {row['predicted_s']:.2f}s, measured "
            f"{row['seconds']:.2f}s "
            f"({max(row['ratio'], 1 / row['ratio']):.1f}x off)",
            file=sys.stderr,
        )
    print("  fix the weight hints in the experiment spec]", file=sys.stderr)


def _stale_bytes(paths) -> int:
    """Total on-disk size of the listed files (vanished ones count 0)."""
    total = 0
    for path in paths:
        try:
            total += path.stat().st_size
        except OSError:
            continue
    return total


def _warn_stale(
    store: RunStore, spec, profile: RunProfile, prune: bool, dry_run: bool
) -> None:
    """Report-mode hygiene: list (and optionally delete) stale files.

    Only files the current plan's cells supersede are ever considered —
    records belonging to a different ``--sizes`` override share the
    preset directory but are not stale and are never touched.
    """
    cells = spec.cells(profile)
    stale = store.stale_paths(cells, profile)
    if not stale:
        return
    print(
        f"[{spec.exp_id} has {len(stale)} stale store file(s) under "
        f"{store.root} (preset {profile.preset}) superseded by the "
        "current measurement code — nothing can load them again:",
        file=sys.stderr,
    )
    for path in stale:
        print(f"  {path}", file=sys.stderr)
    if prune and dry_run:
        print(
            f"  dry run: would reclaim {_stale_bytes(stale)} bytes; "
            "nothing deleted]",
            file=sys.stderr,
        )
    elif prune:
        reclaimed = _stale_bytes(stale)
        pruned = store.prune_stale(cells, profile)
        print(
            f"  pruned {len(pruned)} file(s), reclaimed {reclaimed} bytes]",
            file=sys.stderr,
        )
    else:
        print("  rerun with --prune-stale to delete them]", file=sys.stderr)


def _campaign_summary(
    rendered: "list[tuple[str, PlanExecution]]", profile: RunProfile
) -> str:
    """The ``report --all`` aggregate: one row per stored experiment."""
    rows = [
        {
            "experiment": exp_id,
            "cells": len(execution.outcomes),
            "cell seconds": round(execution.cell_seconds, 2),
            "passed": execution.result.passed,
        }
        for exp_id, execution in rendered
    ]
    passed = sum(1 for _, execution in rendered if execution.result.passed)
    total_cells = sum(len(execution.outcomes) for _, execution in rendered)
    total_seconds = sum(execution.cell_seconds for _, execution in rendered)
    parts = [
        f"== campaign report: preset {profile.preset}, from the run store ==",
        "",
        format_table(rows, ["experiment", "cells", "cell seconds", "passed"]),
        "",
        f"{passed}/{len(rendered)} experiment(s) passed; {total_cells} "
        f"stored cells, {total_seconds:.2f}s of stored cell time",
    ]
    return "\n".join(parts)


def _run_report(args, profile: RunProfile, store: RunStore, exp_ids) -> int:
    """The ``report`` subcommand: render everything from the store."""
    failures = 0
    rendered: list[tuple[str, PlanExecution]] = []
    for exp_id in exp_ids:
        spec = get_spec(exp_id)
        _warn_stale(store, spec, profile, args.prune_stale, args.dry_run)
        try:
            execution = report_from_store(spec, profile, store)
        except ReproError as error:
            print(str(error), file=sys.stderr)
            failures += 1
            continue
        print(execution.result.render())
        if args.refit:
            if spec.curves is None:
                print(
                    f"[{exp_id} fits no growth curves; --refit skipped]",
                    file=sys.stderr,
                )
            else:
                # The refit_from_store body over records report already
                # loaded — same store-only fits, no second disk pass.
                records = {
                    outcome.cell.key: outcome.record
                    for outcome in execution.outcomes
                }
                curve_map = spec.growth_curves(profile, records)
                for name, (ns, bits) in curve_map.items():
                    print(
                        f"[refit {exp_id}/{name}: {classify_growth(ns, bits)}]"
                    )
        print()
        rendered.append((exp_id, execution))
        if not execution.result.passed:
            failures += 1
    if args.all:
        print(_campaign_summary(rendered, profile))
        print()
    if args.profile:
        for exp_id, execution in sorted(
            rendered, key=lambda item: -item[1].cell_seconds
        ):
            print(_profile_line(exp_id, execution))
    if failures:
        print(f"{failures} experiment(s) FAILED", file=sys.stderr)
        return 1
    print(f"all {len(rendered)} experiment(s) passed")
    return 0


def _run_dashboard(args, profile: RunProfile, store: RunStore) -> int:
    """The ``dashboard`` subcommand: render the static site + exports.

    Always exits 0 on a successful build — an empty or partial store
    renders honest "no data" pages rather than failing, because the
    dashboard's job is to show what the store holds, not to gate on it.
    """
    # Imported here so plain experiment runs never pay the import.
    from repro.dashboard import build_dashboard

    out_dir = args.out
    written = build_dashboard(
        store,
        profile,
        out_dir=out_dir,
        timeline_jobs=args.jobs,
        bench_dir=args.bench_dir,
        fleet=args.fleet,
    )
    index = next(path for path in written if path.name == "index.html")
    print(
        f"dashboard: wrote {len(written)} file(s) to {out_dir} "
        f"(preset {profile.preset}, store {store.root}, no simulation)"
    )
    print(f"open {index}")
    if args.open:
        import webbrowser

        webbrowser.open(index.resolve().as_uri())
    return 0


def _run_ingest(args) -> int:
    """The ``ingest`` subcommand: merge shard stores into one fleet store.

    Conflict details go to stderr (they are diagnostics, like stale
    warnings); the one-line outcome summary goes to stdout.
    """
    report = ingest_stores(
        args.sources, args.into, strip_seconds=args.strip_seconds
    )
    for conflict in report.pruned:
        print(f"[ingest stale-prune: {conflict.describe()}]", file=sys.stderr)
    if report.skipped:
        print(
            f"[ingest skipped {len(report.skipped)} corrupt source "
            "record(s); see warnings above]",
            file=sys.stderr,
        )
    print(report.summary())
    return 0


def _run_trace(args) -> int:
    """The ``trace`` subcommand: replay a span journal into a report.

    Renders the newest campaign journal under the telemetry root (or
    the one ``--campaign ID`` names): critical path, per-worker
    utilization with idle attribution, weight calibration, rollups.
    Reads only the journal sidecar — never the run store.
    """
    from repro.obs.journal import (
        read_journal,
        resolve_journal,
        telemetry_root,
    )
    from repro.obs.report import load_trace, render_trace

    wanted = args.campaign
    path = resolve_journal(wanted)
    if path is None:
        where = (
            "no campaign journals"
            if wanted == "latest"
            else f"no journal {wanted!r}"
        )
        print(
            f"{where} under {telemetry_root()} — run a campaign first "
            "(journals are off under REPRO_NO_TELEMETRY=1)",
            file=sys.stderr,
        )
        return 1
    events, dropped = read_journal(path)
    trace = load_trace(events, dropped)
    print(render_trace(trace))
    return 0


def _run_ledger(args) -> int:
    """The ``ledger`` command: seed / append / check the perf ledger.

    ``seed`` folds every ``BENCH_*.json`` under ``--bench-dir`` into the
    ledger (idempotent); ``append FILE`` records one fresh bench run;
    ``check`` validates the newest run against its trailing drift bands
    and exits nonzero on violation (the CI gate).
    """
    import json as json_mod
    from pathlib import Path

    from repro.obs.ledger import (
        DEFAULT_LEDGER,
        append_run,
        check_ledger,
        normalize_bench_file,
        seed_ledger,
    )

    path = args.ledger if args.ledger is not None else str(DEFAULT_LEDGER)
    try:
        if args.action == "seed":
            added, skipped = seed_ledger(args.bench_dir, path)
            print(
                f"ledger seed: {added} entr{'y' if added == 1 else 'ies'} "
                f"added to {path} from {args.bench_dir} "
                f"({skipped} file(s) skipped: already seeded or empty)"
            )
            return 0
        if args.action == "append":
            bench_path = Path(args.file)
            records = normalize_bench_file(bench_path)
            if not records:
                raise ReproError(
                    f"{bench_path} holds no numeric measurements to append"
                )
            run = args.run_id if args.run_id is not None else bench_path.name
            recorded = ""
            try:
                data = json_mod.loads(bench_path.read_text(encoding="utf-8"))
                if isinstance(data, dict):
                    stamp = data.get("date") or data.get("snapshot")
                    recorded = stamp if isinstance(stamp, str) else ""
            except (OSError, ValueError):
                pass
            count = append_run(path, run, records, recorded=recorded)
            print(
                f"ledger append: run {run!r} recorded {count} metric(s) "
                f"into {path}"
            )
            return 0
        check = check_ledger(
            path,
            window=args.window,
            band_k=args.band_k,
            rel_floor=args.rel_floor,
            min_history=args.min_history,
        )
        print(check.render())
        return 0 if check.passed else 1
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 2


def _shard_summary(campaign: CampaignExecution, store: RunStore) -> str:
    """The sharded-run outcome: what this leg measured, what remains.

    ``sharded_out`` counts *work items* (whole cells, or a divided
    cell's subtasks under the weight strategy), so the denominator is
    the campaign's work-item total — a divided cell some other shard
    partially owns still shows up in it part by part.
    """
    index, total = campaign.shard
    measured = campaign.cell_count - campaign.cached_count
    campaign_cells = campaign.cell_count + campaign.sharded_out
    return (
        f"[shard {index}/{total}: measured {measured} of {campaign_cells} "
        f"campaign work item(s) into {store.root} ({campaign.cached_count} "
        f"from store, {campaign.sharded_out} owned by other shards); "
        f"{len(campaign.executions)} experiment(s) finalized, "
        f"{len(campaign.partial)} partial — merge the fleet with "
        f"'ring-repro ingest SHARD-STORE... --into {DEFAULT_STORE_ROOT}' "
        "and render with 'ring-repro report --all']"
    )


def _run_campaign(args, exp_ids: "list[str]") -> int:
    """The ``run`` command: measure the experiments as one campaign."""
    profile = args.run_profile
    store = None if args.no_store else RunStore(args.store)
    if profile.sizes is not None:
        for exp_id in exp_ids:
            if exp_id in FIXED_SWEEP_EXPERIMENTS:
                print(
                    f"[{exp_id} has no ring-size sweep; --sizes does not "
                    "apply, running its standard workload]",
                    file=sys.stderr,
                )

    # One campaign for the whole request: a single shared cell pool, each
    # experiment rendered the moment its last cell lands — in request
    # order, so the output is byte-identical to the sequential path.
    specs = [get_spec(exp_id) for exp_id in exp_ids]
    order = [spec.exp_id for spec in specs]
    ready: dict[str, PlanExecution] = {}
    next_to_print = 0

    def on_result(exp_id: str, execution: PlanExecution) -> None:
        nonlocal next_to_print
        ready[exp_id] = execution
        while next_to_print < len(order) and order[next_to_print] in ready:
            print(ready[order[next_to_print]].result.render())
            print()
            next_to_print += 1

    # A sharded leg renders at the end (finalized experiments only, in
    # request order): most experiments stay partial, so the streaming
    # request-order gate would never open past the first partial one.
    shard = args.shard
    campaign = execute_campaign(
        specs,
        profile,
        jobs=args.jobs,
        store=store,
        resume=args.resume,
        on_result=None if shard is not None else on_result,
        shard=shard,
        shard_strategy=args.shard_strategy,
    )
    if shard is None:
        assert next_to_print == len(order), (
            "campaign finalized every experiment"
        )
    else:
        for exp_id in order:
            if exp_id in campaign.executions:
                print(campaign.executions[exp_id].result.render())
                print()
    _warn_weights(campaign)
    if args.profile:
        _print_profile(campaign)
    failures = sum(
        1
        for execution in campaign.executions.values()
        if not execution.result.passed
    )
    if shard is not None:
        print(_shard_summary(campaign, store))
    if failures:
        print(f"{failures} experiment(s) FAILED", file=sys.stderr)
        return 1
    if shard is None:
        print(f"all {len(exp_ids)} experiment(s) passed")
    return 0


COMMANDS = ("run", "report", "dashboard", "ingest", "trace", "ledger")


def _positive(noun: str):
    """An argparse ``type`` accepting positive integers only."""

    def positive(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"needs a positive {noun}, got {value}"
            )
        return value

    return positive


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each declaring only the flags it reads."""
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument(
        "--quick", action="store_true",
        help="use reduced sweeps (alias for --preset quick)",
    )
    sweep.add_argument(
        "--preset", choices=["quick", "full", "long"],
        help="sweep preset: quick (test sizes), full (default), "
        "long (n >= 10^4 metrics-mode sweeps for E1, E7-E11)",
    )
    sweep.add_argument(
        "--mode", choices=["sim", "model", "verify"], default="sim",
        help="how cells with an analytic model (E9/E10) obtain records: "
        "sim (default), model (closed-form bit accounting only), or "
        "verify (both, recording a bit-for-bit calibration verdict)",
    )
    sweep.add_argument(
        "--sizes", metavar="N,N,...",
        help="override every size sweep's ring sizes (comma-separated; "
        "growth fits need >= 3 sizes)",
    )
    sweep.add_argument(
        "--store", metavar="DIR", default=DEFAULT_STORE_ROOT,
        help=f"run-store directory (default: {DEFAULT_STORE_ROOT}/)",
    )
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "--jobs", type=_positive("worker count"), default=1, metavar="N",
        help="worker count (default 1): run measures cells on N processes "
        "shared by the whole campaign; dashboard replays its timeline on "
        "N lanes",
    )
    profiled = argparse.ArgumentParser(add_help=False)
    profiled.add_argument(
        "--profile", action="store_true",
        help="print per-experiment cell time, heaviest first",
    )
    bench = argparse.ArgumentParser(add_help=False)
    bench.add_argument(
        "--bench-dir", metavar="DIR", default="benchmarks",
        help="directory scanned for BENCH_*.json records "
        "(default: benchmarks/)",
    )

    parser = argparse.ArgumentParser(
        prog="ring-repro",
        description="Reproduce Mansour & Zaks (PODC 1986): bit complexity "
        "of distributed computations in a ring with a leader.",
        epilog="'run' is implied when the first argument is not a "
        "command: ring-repro E1 E2 --quick.  'ring-repro COMMAND --help' "
        "lists a command's flags.",
    )
    commands = parser.add_subparsers(
        dest="command", metavar="COMMAND", required=True
    )

    run = commands.add_parser(
        "run", parents=[sweep, jobs, profiled],
        help="measure experiments as one campaign (the default command)",
    )
    run.add_argument(
        "experiments", nargs="+", metavar="EXP",
        help="experiment ids (E1..E12, case-insensitive) or 'all'",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="reuse stored cell records whose config hash still matches",
    )
    run.add_argument(
        "--no-store", action="store_true",
        help="do not persist cell records",
    )
    run.add_argument(
        "--shard", metavar="I/N",
        help="run fleet leg I of N (1-based): measure only this shard of "
        "the campaign's cells into its own store, for a later 'ingest'",
    )
    run.add_argument(
        "--shard-strategy", choices=["hash", "weight"], default="hash",
        help="with --shard: partition by a stable identity hash (default) "
        "or by LPT over planned cell weights (every leg must then request "
        "the same experiments, preset, and mode)",
    )

    report = commands.add_parser(
        "report", parents=[sweep, profiled],
        help="re-render tables from the run store, no simulation",
    )
    report.add_argument(
        "experiments", nargs="*", metavar="EXP",
        help="experiment ids (E1..E12) or 'all'; optional with --all",
    )
    report.add_argument(
        "--all", action="store_true",
        help="render every experiment plus a campaign summary table",
    )
    report.add_argument(
        "--refit", action="store_true",
        help="regenerate growth-law fits from the stored records",
    )
    report.add_argument(
        "--prune-stale", action="store_true",
        help="delete store files no current cell loads, after listing them",
    )
    report.add_argument(
        "--dry-run", action="store_true",
        help="with --prune-stale: list stale files, delete nothing",
    )

    dashboard = commands.add_parser(
        "dashboard", parents=[sweep, jobs, bench],
        help="render the static HTML+JSON/CSV site from the run store",
    )
    dashboard.add_argument(
        "--out", metavar="DIR", default="dashboard",
        help="output directory (default: dashboard/)",
    )
    dashboard.add_argument(
        "--open", action="store_true",
        help="open the rendered index.html in a browser",
    )
    dashboard.add_argument(
        "--fleet", type=_positive("fleet size"), default=1, metavar="N",
        help="annotate each cell with the shard (i/N) owning it in an "
        "N-machine fleet (default: 1)",
    )

    ingest = commands.add_parser(
        "ingest", help="merge shard stores into one fleet store"
    )
    ingest.add_argument(
        "sources", nargs="+", metavar="SRC", help="shard store directories"
    )
    ingest.add_argument(
        "--into", metavar="DIR", default=DEFAULT_STORE_ROOT,
        help=f"destination store (default: {DEFAULT_STORE_ROOT}/)",
    )
    ingest.add_argument(
        "--strip-seconds", action="store_true",
        help="zero merged records' wall clocks, so stores of the same "
        "campaign become byte-identical",
    )

    trace = commands.add_parser(
        "trace",
        help="replay a campaign's span journal into a critical-path report",
    )
    trace.add_argument(
        "--campaign", metavar="ID", default="latest",
        help="campaign id (or .jsonl filename) under the telemetry root, "
        "or 'latest' (default)",
    )

    ledger_file = argparse.ArgumentParser(add_help=False)
    ledger_file.add_argument(
        "--ledger", metavar="PATH",
        help="the ledger file (default: benchmarks/LEDGER.jsonl)",
    )
    actions = commands.add_parser(
        "ledger", help="maintain the perf-regression ledger"
    ).add_subparsers(dest="action", metavar="ACTION", required=True)
    actions.add_parser(
        "seed", parents=[ledger_file, bench],
        help="fold every BENCH_*.json into the ledger (idempotent)",
    )
    append = actions.add_parser(
        "append", parents=[ledger_file], help="record one bench run"
    )
    append.add_argument("file", metavar="FILE", help="a bench JSON file")
    append.add_argument(
        "--run-id", metavar="ID",
        help="run id to record under (default: the bench file's name)",
    )
    check = actions.add_parser(
        "check", parents=[ledger_file],
        help="gate: the newest run against its trailing drift bands",
    )
    check.add_argument(
        "--window", type=int, default=8, metavar="N",
        help="trailing history window per metric (default: 8 prior runs)",
    )
    check.add_argument(
        "--band-k", type=float, default=5.0, metavar="K",
        help="band halfwidth in MADs around the median (default: 5.0)",
    )
    check.add_argument(
        "--rel-floor", type=float, default=0.25, metavar="F",
        help="minimum band halfwidth as a fraction of the median "
        "(default: 0.25)",
    )
    check.add_argument(
        "--min-history", type=int, default=3, metavar="N",
        help="fewer prior points than this report as new and pass "
        "(default: 3)",
    )
    return parser


def _check(args: argparse.Namespace) -> None:
    """The cross-flag rules argparse cannot express; ReproError if broken.

    Also resolves the sweep flags into ``args.run_profile`` and the
    ``--shard`` spelling into an ``(index, total)`` pair.
    """
    if args.command in ("run", "report", "dashboard"):
        args.run_profile = build_profile(
            args.preset, args.sizes, args.quick, args.mode
        )
    if args.command == "run":
        if args.shard is not None:
            args.shard = parse_shard(args.shard)
            if args.no_store:
                raise ReproError(
                    "--shard fills a run store for a later ingest merge; "
                    "drop --no-store"
                )
        elif args.shard_strategy != "hash":
            raise ReproError(
                "--shard-strategy only applies with --shard i/N; an "
                "unsharded run measures every cell regardless of the "
                "partition"
            )
        if args.resume and args.no_store:
            raise ReproError(
                "--resume reads and refills the store; drop --no-store"
            )
    elif args.command == "report":
        if args.dry_run and not args.prune_stale:
            raise ReproError("--dry-run only applies to report --prune-stale")
        if not args.experiments and not args.all:
            raise ReproError(
                "report needs experiment ids (E1..E12), 'all', or --all"
            )


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Parse a command line; every usage error exits 2 via argparse."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].lower() in COMMANDS:
        argv[0] = argv[0].lower()
    elif argv and argv[0] not in ("-h", "--help"):
        argv.insert(0, "run")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check(args)
    except ReproError as error:
        parser.error(str(error))
    return args


def _experiment_ids(
    items: "list[str]", everything: bool = False
) -> "list[str]":
    """Resolve positional ids: 'all' expands, repeats collapse."""
    if everything or any(item.lower() == "all" for item in items):
        return list(ALL_EXPERIMENTS)
    # A campaign plans each experiment exactly once; repeating an id on
    # the command line would only repeat the identical table.
    return list(dict.fromkeys(item.upper() for item in items))


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line; return a process exit code."""
    args = parse_args(argv)
    if args.command == "ingest":
        return _run_ingest(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "ledger":
        return _run_ledger(args)
    if args.command == "dashboard":
        return _run_dashboard(args, args.run_profile, RunStore(args.store))
    if args.command == "report":
        return _run_report(
            args,
            args.run_profile,
            RunStore(args.store),
            _experiment_ids(args.experiments, args.all),
        )
    return _run_campaign(args, _experiment_ids(args.experiments))


if __name__ == "__main__":
    sys.exit(main())
