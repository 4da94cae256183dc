"""The golden corpus: exact counts pinned in readable form.

``tests/golden/<exp>.jsonl`` holds one line per cell of the quick and
full presets, ``{"exp", "preset", "mode", "key", "record"}``, where
``record`` is the cell's :func:`~repro.experiments.base.run_cell` output
(the store's ``seconds`` wall clock is not part of it).  Each line is
re-measured here and must match byte for byte, so a drifted count names
its experiment, cell and field instead of an opaque digest.  A golden
line changes only when a count is meant to change, and the change says
why.

Regenerate an experiment's lines with
``PYTHONPATH=src python tests/test_golden.py E3 > tests/golden/E3.jsonl``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.bits import fixed_width_for
from repro.experiments import RunProfile, get_spec
from repro.experiments.base import run_cell

GOLDEN_DIR = Path(__file__).parent / "golden"
PRESETS = ("quick", "full")


def golden_lines(exp_id: str) -> list[dict]:
    """The committed golden lines of one experiment."""
    path = GOLDEN_DIR / f"{exp_id}.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


def planned_cells(exp_id: str):
    """Yield ``(line identity, cell)`` for every quick and full cell."""
    spec = get_spec(exp_id)
    for preset in PRESETS:
        profile = RunProfile(preset=preset)
        for cell in spec.cells(profile):
            yield (exp_id, preset, profile.mode, cell.key), cell


def _identity(line: dict) -> tuple:
    return line["exp"], line["preset"], line["mode"], line["key"]


E3_LINES = golden_lines("E3")
E3_PLAN = dict(planned_cells("E3"))


def _id(identity: tuple) -> str:
    return "/".join(identity[1:])


def test_e3_golden_covers_the_plan():
    assert [_identity(line) for line in E3_LINES] == list(E3_PLAN)


@pytest.mark.parametrize("line", E3_LINES, ids=lambda line: _id(_identity(line)))
def test_e3_cell_matches_golden(line):
    assert run_cell(E3_PLAN[_identity(line)]) == line["record"]


@pytest.mark.parametrize("line", E3_LINES, ids=lambda line: _id(_identity(line)))
def test_e3_compiled_message_size_is_the_papers_constant(line):
    """Theorem 3: each compiled message carries ``|M|^pi`` candidates of
    ``pi`` fixed-width message indices (the two-pass source: pi = 2)."""
    record = line["record"]
    passes = 2
    assert record["candidates"] == record["space"] ** passes
    assert record["compiled_bits_per_message"] == (
        record["candidates"] * passes * fixed_width_for(record["space"])
    )


if __name__ == "__main__":
    for exp_id in sys.argv[1:]:
        for (exp, preset, mode, key), cell in planned_cells(exp_id):
            line = {
                "exp": exp,
                "preset": preset,
                "mode": mode,
                "key": key,
                "record": run_cell(cell),
            }
            print(json.dumps(line, sort_keys=True))
