"""Benchmark-side tracing: spans around calls into each layer's public API.

The program is never edited to be traced.  :class:`Tracer` replaces a
layer's public functions and methods with wrappers for the duration of
one pass, records a span per call (name, start, end, parent span) in
memory, and restores the originals afterwards.  Module-level functions
are swapped in every loaded ``repro`` module that holds them, because
callers bind them by name at import time (``from repro.ring.unidirectional
import run_unidirectional``).

Two wrapper sets exist.  The dispatcher set covers what runs in the
benchmark process under ``jobs=2``; the worker set (ring simulators and
segment replay) is installed only for in-process passes, because pool
workers are forked copies whose spans would never come back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace

import repro.analysis.growth as growth
import repro.core.hierarchy as hierarchy
import repro.core.known_n as known_n
import repro.dashboard.build as dashboard_build
import repro.ring.bidirectional as bidirectional
import repro.ring.line as line
import repro.ring.token as token
import repro.ring.unidirectional as unidirectional
import repro.runner.campaign as campaign
import repro.runner.ingest as ingest
from repro.experiments.base import Cell, ExperimentSpec, fold_cell
from repro.runner.store import RunStore

# (span name, original function) for module-level functions.
DISPATCHER_FUNCTIONS = (
    ("runner.campaign", campaign.execute_campaign),
    ("experiments.fold", fold_cell),
    ("runner.ingest", ingest.ingest_stores),
    ("analysis.refit", growth.refit_from_store),
    ("dashboard.build", dashboard_build.build_dashboard),
)
WORKER_FUNCTIONS = (
    ("ring.uni", unidirectional.run_unidirectional),
    ("ring.bidi", bidirectional.run_bidirectional),
    ("ring.line", line.ring_to_line),
    ("ring.token", token.serialize_to_token),
    ("core.replay", hierarchy.replay_segment),
    ("core.replay", known_n.replay_segment),
)
# (span name, class, method name) for methods.
DISPATCHER_METHODS = (
    ("experiments.hash", Cell, "config_hash"),
    ("experiments.plan", ExperimentSpec, "cells"),
    ("runner.store.save", RunStore, "save"),
    ("runner.store.part", RunStore, "save_subtask"),
    ("runner.store.load", RunStore, "load_campaign"),
)
WORKER_METHODS = (("ring.line_run", line.LineNetwork, "run"),)

# Spans whose result is a simulated execution; their message and bit
# totals are summed into ``ring.messages`` / ``ring.bits``.
SIMULATORS = ("ring.uni", "ring.bidi", "ring.line_run")
# Spans whose result is a path the store just wrote.
STORE_WRITES = ("runner.store.save", "runner.store.part")


class Tracer:
    """Spans and counters for one traced pass, kept in memory."""

    def __init__(self) -> None:
        # Each span is (name, start, end, parent index or -1).
        self.spans: "list[tuple[str, float, float, int]]" = []
        self._open: "list[int]" = []
        self.getsource_calls = 0
        self.messages = 0
        self.bits = 0
        self.bytes_written = 0

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        simulator = name in SIMULATORS
        store_write = name in STORE_WRITES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, open_[-1] if open_ else -1))
            open_.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[index] = (name, start, end, spans[index][3])
            if simulator:
                self.messages += result.message_count
                self.bits += result.total_bits
            elif store_write:
                self.bytes_written += result.stat().st_size
            return result

        return traced

    def wrap_spec(self, spec: ExperimentSpec) -> ExperimentSpec:
        """A copy of ``spec`` whose finalize is traced.

        ``finalize`` is a dataclass field bound per spec, so it is
        wrapped on the spec the benchmark hands to the campaign.
        """
        return replace(
            spec, finalize=self.wrap("experiments.finalize", spec.finalize)
        )

    @contextmanager
    def installed(self, worker_layers: bool):
        """Swap the wrappers in for the duration of the block."""
        functions = DISPATCHER_FUNCTIONS + (
            WORKER_FUNCTIONS if worker_layers else ()
        )
        methods = DISPATCHER_METHODS + (WORKER_METHODS if worker_layers else ())
        undo: "list[tuple[object, str, object]]" = []
        try:
            for name, original in functions:
                wrapper = self.wrap(name, original)
                for module in [
                    m
                    for key, m in sys.modules.items()
                    if key == "repro" or key.startswith("repro.")
                ]:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, value))
                            setattr(module, attr, wrapper)
            for name, owner, attr in methods:
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            getsource = inspect.getsource

            def counted_getsource(obj):
                self.getsource_calls += 1
                return getsource(obj)

            undo.append((inspect, "getsource", getsource))
            inspect.getsource = counted_getsource
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def rollup(self) -> "dict[str, dict[str, float]]":
        """Per span name: ``calls``, inclusive ``total_s``, ``self_s``.

        A span's self time is its duration minus the time its direct
        child spans cover (children never overlap: one thread).
        """
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: "dict[str, dict[str, float]]" = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _parent), covered in zip(self.spans, child_time):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return dict(table)
