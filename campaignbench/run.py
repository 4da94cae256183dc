"""Campaign benchmark: end-to-end and per-layer cost of ring-repro campaigns.

Usage, from the root of a checkout::

    python3 campaignbench/run.py --workload full-fresh --seed 1 \\
        --seconds 30 --trace 0 [--records OUT.json]

Workloads (see ``workloads.py`` and ``README.md``): ``full-fresh``,
``long-counters``, ``store-replay``.  The load is a closed loop with one
client: iterations run back to back for ``--seconds``, each a full
campaign on a 2-worker pool.  Before timing, every workload is prepared
and warmed once, and ``setup_s`` is sampled in fresh interpreters.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` repeats the workload in rounds of an untraced iteration,
a traced one with the same pool (dispatcher layers), and, where the
workload runs pool work, a traced in-process ``jobs=1`` iteration (the
ring and segment-replay layers, which run inside workers); it prints
per-layer calls and self times with the tracing overhead, writes the
spans to ``.campaignbench/traces/``, and reports the per-layer metrics.

Every result is checked against the digests pinned in ``digests.json``;
``--pin`` re-derives them from the current code instead of measuring.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--records OUT.json`` also
writes every metric as canonical ``{name, value, unit, context}``
records, which ``ring-repro ledger append OUT.json`` ingests as is.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORK_ROOT = ".campaignbench"
SETUP_SAMPLES = 7


class Round(NamedTuple):
    """One trace round: an untraced iteration and its traced repeats."""

    untraced: "object"  # workloads.Iteration
    dispatcher: "object"  # traced, same pool: dispatcher layers
    dispatcher_spans: "object"  # tracing.Tracer
    worker: "object"  # traced in-process: ring and core layers
    worker_spans: "object"


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _tail_context(samples: "list[float]") -> str:
    """Sample count and the highest percentile with >= 10 samples beyond."""
    n = len(samples)
    if n <= 10:
        return f"n={n}; no percentile has 10 samples beyond it"
    ordered = sorted(samples)
    rank = n - 10  # the rank-th smallest has exactly 10 samples above it
    return f"n={n}; p{100 * rank // n}={ordered[rank - 1]:.6f}"


def _setup_samples(root: Path, preset: str, order: "list[str]") -> list:
    """``SETUP_SAMPLES`` fresh interpreters: wall time plus probe output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), preset, ",".join(order)],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        wall = time.perf_counter() - started
        samples.append((wall, json.loads(done.stdout.strip().splitlines()[-1])))
    return samples


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _layer_metrics(rnd: Round) -> "dict[str, float]":
    """One trace round's per-layer figures.

    Counters that need no wrapper (pool accounting, journal, outputs)
    come from the untraced iteration; call counts and self times from
    the traced ones — dispatcher layers from the same-pool pass, worker
    layers (ring, core) from the in-process pass.
    """
    untraced = rnd.untraced
    campaign = untraced.campaign
    d = rnd.dispatcher_spans.rollup()
    w = rnd.worker_spans.rollup()

    def self_s(table, name):
        return table.get(name, {}).get("self_s", 0.0)

    def calls(table, name):
        return table.get(name, {}).get("calls", 0)

    waits = [
        event["queue_wait"]
        for event in (campaign.journal.events if campaign.journal else ())
        if event["ev"] in ("cell_start", "subtask_start")
    ]
    ring_sim_s = self_s(w, "ring.uni") + self_s(w, "ring.bidi") + self_s(
        w, "ring.line_run"
    )
    messages = rnd.worker_spans.messages
    return {
        "experiments.hash_calls": calls(d, "experiments.hash"),
        "experiments.hash_s": self_s(d, "experiments.hash"),
        "experiments.getsource_calls": rnd.dispatcher_spans.getsource_calls,
        "experiments.fold_calls": calls(d, "experiments.fold"),
        "experiments.fold_s": self_s(d, "experiments.fold"),
        "experiments.finalize_s": self_s(d, "experiments.finalize"),
        "runner.items": campaign.cell_count
        - campaign.cached_count
        - campaign.cells_folded
        + campaign.subtasks_run,
        "runner.worker_s": campaign.measured_seconds,
        "runner.worker_cpu_s": untraced.child_cpu_s,
        "runner.worker_wait_s": campaign.measured_seconds - untraced.child_cpu_s,
        "runner.dispatcher_cpu_s": untraced.own_cpu_s,
        "runner.utilization": campaign.utilization,
        "runner.idle_s": campaign.wall_seconds * campaign.jobs
        - campaign.busy_seconds,
        "runner.queue_wait_s": _median(waits),
        "runner.store.save_calls": calls(d, "runner.store.save"),
        "runner.store.save_s": self_s(d, "runner.store.save"),
        "runner.store.part_calls": calls(d, "runner.store.part"),
        "runner.store.part_s": self_s(d, "runner.store.part"),
        "runner.store.bytes_written": rnd.dispatcher_spans.bytes_written,
        "runner.store.load_s": self_s(d, "runner.store.load"),
        "runner.store.hits": campaign.cached_count,
        "runner.store.hit_ratio": campaign.cached_count / untraced.planned_cells,
        "runner.ingest_s": self_s(d, "runner.ingest"),
        "runner.ingest_records": untraced.ingest_records,
        "ring.uni_calls": calls(w, "ring.uni"),
        "ring.uni_s": self_s(w, "ring.uni"),
        "ring.bidi_calls": calls(w, "ring.bidi"),
        "ring.bidi_s": self_s(w, "ring.bidi"),
        "ring.line_s": self_s(w, "ring.line") + self_s(w, "ring.line_run"),
        "ring.token_s": self_s(w, "ring.token"),
        "ring.messages": messages,
        "ring.bits": rnd.worker_spans.bits,
        "ring.us_per_msg": 1e6 * ring_sim_s / messages if messages else 0.0,
        "core.replay_calls": calls(w, "core.replay"),
        "core.replay_s": self_s(w, "core.replay"),
        "analysis.refit_s": self_s(d, "analysis.refit"),
        "dashboard.build_s": self_s(d, "dashboard.build"),
        "dashboard.bytes": untraced.dashboard_bytes,
        "obs.journal_events": untraced.journal_events,
        "obs.journal_bytes": untraced.journal_bytes,
        "trace.overhead_pct": 100.0
        * (rnd.dispatcher.seconds / untraced.seconds - 1.0),
    }


def _print_trace(name: str, rounds: "list[Round]", spans_path: Path) -> None:
    """Per-layer calls and self times (medians over rounds), both passes."""
    passes = [("same pool", "dispatcher")]
    if rounds[0].worker is not rounds[0].dispatcher:
        passes.append(("in-process jobs=1", "worker"))
    traced = [r.dispatcher.seconds for r in rounds]
    untraced = [r.untraced.seconds for r in rounds]
    overhead = _median([100.0 * (t / u - 1.0) for t, u in zip(traced, untraced)])
    print(
        f"trace {name}: {len(rounds)} round(s); overhead {overhead:+.1f}% "
        f"(traced {_median(traced):.3f} s vs untraced {_median(untraced):.3f} s, "
        "same pool)"
    )
    for label, slot in passes:
        tables = [getattr(r, f"{slot}_spans").rollup() for r in rounds]
        rows = []
        for layer in sorted({key for table in tables for key in table}):
            rows.append(
                [layer]
                + [
                    _median([t.get(layer, {}).get(col, 0) for t in tables])
                    for col in ("calls", "total_s", "self_s")
                ]
            )
        rows.sort(key=lambda row: -row[3])
        seconds = _median([getattr(r, slot).seconds for r in rounds])
        print(f"  {label} pass ({seconds:.3f} s)")
        print(f"    {'layer':<24}{'calls':>10}{'total_s':>12}{'self_s':>12}")
        for layer, n, total, own in rows:
            print(f"    {layer:<24}{n:>10.0f}{total:>12.4f}{own:>12.4f}")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w", encoding="utf-8") as out:
        for index, rnd in enumerate(rounds):
            for label, slot in passes:
                for span, start, end, parent in getattr(rnd, f"{slot}_spans").spans:
                    record = {
                        "round": index,
                        "pass": label,
                        "name": span,
                        "start": start,
                        "end": end,
                        "parent": parent,
                    }
                    out.write(json.dumps(record) + "\n")
    print(f"  spans written to {spans_path}")


def measure(args, root: Path, work: Path) -> int:
    # Imported only once the checkout is known to hold the program.
    from tracing import Tracer
    from workloads import WORKLOADS, Bench

    sys.path.insert(0, str(root / "benchmarks"))
    from bench_harness import bench_record, write_bench_records

    definition = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    bench = Bench(WORKLOADS[args.workload], args.seed, work)

    started = time.perf_counter()
    bench.prepare()
    bench.warm()
    warm_s = time.perf_counter() - started

    if args.pin:
        first, second = bench.iterate(), bench.iterate()
        if first.errors or second.errors or first.digests != second.digests:
            print(f"cannot pin: {first.errors or second.errors}", file=sys.stderr)
            return 1
        pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        pinned[args.workload] = first.digests
        DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        print(f"pinned {len(first.digests)} digest(s) for {args.workload}")
        return 0

    setup = _setup_samples(root, bench.profile.preset, bench.order)
    pinned = json.loads(DIGESTS.read_text())[args.workload]
    attempted = failed = 0

    def checked(it):
        nonlocal attempted, failed
        attempted += len(bench.ops())
        for op, why in it.failures(pinned).items():
            failed += 1
            print(f"FAIL {args.workload}/{op}: {why}", file=sys.stderr)
        return it

    iterations = []
    rounds = []
    loop_started = time.perf_counter()
    while not (rounds or iterations) or time.perf_counter() - loop_started < args.seconds:
        if not args.trace:
            # Keep only the figures: holding every campaign would grow the
            # process and so peak_rss_mb with the iteration count.
            it = checked(bench.iterate())
            iterations.append((it.seconds, it.cpu_s))
            del it
            continue
        untraced = checked(bench.iterate())
        dispatcher_spans = Tracer()
        with dispatcher_spans.installed(worker_layers=bench.workload.replay):
            dispatcher = checked(bench.iterate(dispatcher_spans))
        if bench.workload.replay:
            # Nothing runs in pool workers: the one pass traced every layer.
            worker, worker_spans = dispatcher, dispatcher_spans
        else:
            worker_spans = Tracer()
            with worker_spans.installed(worker_layers=True):
                worker = checked(bench.iterate(worker_spans, jobs=1))
        rounds.append(Round(untraced, dispatcher, dispatcher_spans, worker, worker_spans))

    context = (
        f"campaignbench --workload {args.workload} --seed {args.seed} "
        f"--seconds {args.seconds:g} --trace {args.trace}; jobs=2"
    )
    setup_walls = [wall for wall, _probe in setup]
    values: "dict[str, tuple[float, str]]" = {}
    if not args.trace:
        seconds = [wall for wall, _cpu in iterations]
        values = {
            "campaign_s": (_median(seconds), _tail_context(seconds)),
            "cpu_s": (_median([cpu for _wall, cpu in iterations]), ""),
            "setup_s": (
                _median(setup_walls),
                f"n={len(setup_walls)}; warm-up and preparation {warm_s:.3f} s",
            ),
            "peak_rss_mb": (_peak_rss_mb(), ""),
            "ok_frac": (1.0 - failed / attempted, f"{failed} of {attempted} failed"),
        }
        metric_defs = definition["end_to_end"]
    else:
        per_round = [_layer_metrics(rnd) for rnd in rounds]
        values = {
            key: (_median([m[key] for m in per_round]), f"n={len(rounds)} round(s)")
            for key in per_round[0]
        }
        values["experiments.plan_s"] = (_median([p["plan_s"] for _w, p in setup]), "")
        values["experiments.cells"] = (setup[0][1]["cells"], "")
        values["cli.import_s"] = (_median([p["import_s"] for _w, p in setup]), "")
        values["fail_frac"] = (failed / attempted, f"{failed} of {attempted} failed")
        metric_defs = definition["per_layer"]
        _print_trace(
            args.workload,
            rounds,
            root / WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.jsonl",
        )

    missing = [m["name"] for m in metric_defs if m["name"] not in values]
    if missing:
        raise SystemExit(f"BENCHMARK.json names unmeasured metrics: {missing}")
    print(
        f"campaignbench {args.workload} seed {args.seed}: "
        f"{len(iterations) or len(rounds)} iteration(s)/round(s), "
        f"{failed} of {attempted} op(s) failed, request order {' '.join(bench.order)}"
    )
    for m in metric_defs:
        value, note = values[m["name"]]
        print(f"  {m['name']:<30} {value:>14.6f} {m['unit']:<6} {note}")
    if args.records:
        write_bench_records(
            args.records,
            [
                bench_record(
                    f"{args.workload}.{m['name']}",
                    values[m["name"]][0],
                    m["unit"],
                    f"{context}; {values[m['name']][1]}".rstrip("; "),
                )
                for m in metric_defs
            ],
            date=time.strftime("%Y-%m-%d"),
            machine=platform.machine() or "unknown",
        )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                    for m in metric_defs
                },
            }
        )
    )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", help="also write canonical bench records here")
    parser.add_argument(
        "--pin", action="store_true", help="re-derive digests.json for the workload"
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "campaignbench: no src/repro here; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / WORK_ROOT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # Everything the run writes, temp files included, stays in the checkout.
    os.environ["TMPDIR"] = str(work)
    try:
        return measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
