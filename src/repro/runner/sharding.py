"""Deterministic fleet sharding: split one campaign across N stores.

``--shard i/N`` lets N machines (or CI matrix legs) run the *same*
campaign command and measure disjoint, covering subsets of its global
cell list into their own ``runs/`` copies, to be merged later by
``ring-repro ingest``.  The partition is a pure function of cell
*identity* — a stable hash of ``(exp_id, key)`` — so it does not depend
on request order, ``--jobs``, the preset's plan order, or anything else
a worker could disagree about:

* **disjoint** — every cell hashes to exactly one shard index;
* **exhaustive** — the shard indexes ``1..N`` cover every cell;
* **stable** — the same cell lands on the same shard in every process,
  on every machine, for a fixed ``N`` (and its assignment is
  independent of which other cells the campaign happens to plan).

The hash is :mod:`hashlib` SHA-256, not :func:`hash` — Python salts
string hashing per process (``PYTHONHASHSEED``), which is exactly the
instability a fleet cannot tolerate.

Two strategies share that contract (``--shard-strategy``, default
``hash``): the identity hash above, whose per-cell assignment is
independent of everything else the campaign plans, and ``weight`` —
a deterministic LPT pass over the campaign's planned cell weights
(:func:`lpt_assignment`) that spreads heavy-tailed fleets the hash
provably cannot (PERFORMANCE.md layer 8: quick's 16 s witness cell
pins hash sharding to ~1.04×).

``parse_shard`` is the CLI's validator for the ``i/N`` spelling: shard
indexes are 1-based (``1/N .. N/N``), so ``0/N``, ``i > N``, and
non-integer forms are rejected with a message naming the rule.
"""

from __future__ import annotations

import hashlib
import re
from typing import Iterable, Sequence

from repro.errors import ReproError
from repro.experiments.base import Cell

__all__ = [
    "parse_shard",
    "shard_index",
    "owns",
    "SHARD_STRATEGIES",
    "campaign_assignment",
    "lpt_assignment",
]

_SHARD_RE = re.compile(r"(\d+)\s*/\s*(\d+)")


def parse_shard(text: str) -> "tuple[int, int]":
    """Parse a ``--shard`` value: ``i/N`` with ``1 <= i <= N``.

    Returns ``(index, total)`` with a 1-based ``index``.  Every
    malformed spelling gets a specific error: non-integer pieces,
    ``0/N`` (indexes are 1-based), ``i > N`` (no such shard), and a
    zero-size fleet.
    """
    match = _SHARD_RE.fullmatch(text.strip())
    if not match:
        raise ReproError(
            f"--shard expects i/N with two positive integers (e.g. 2/3), "
            f"got {text!r}"
        )
    index, total = int(match.group(1)), int(match.group(2))
    if total < 1:
        raise ReproError(
            f"--shard needs a fleet of at least one shard, got N={total}"
        )
    if index < 1:
        raise ReproError(
            f"--shard indexes are 1-based: the first shard is 1/{total}, "
            f"got {index}/{total}"
        )
    if index > total:
        raise ReproError(
            f"--shard index {index} exceeds the fleet size {total} "
            f"(valid shards: 1/{total} .. {total}/{total})"
        )
    return index, total


def shard_index(exp_id: str, key: str, total: int) -> int:
    """Which shard (0-based) owns the cell ``(exp_id, key)`` in a fleet
    of ``total``.

    A stable content hash of the cell's identity, reduced mod ``total``.
    Deliberately *not* a function of the cell's params, weight, mode
    routing, or plan position: two fleets launched with different
    request orders or job counts partition identically, and a cell keeps
    its shard even if its measurement code (and hence config hash)
    changes.
    """
    if total < 1:
        raise ReproError(f"shard fleets need at least one shard, got {total}")
    digest = hashlib.sha256(f"shard:{exp_id}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % total


def owns(shard: "tuple[int, int]", cell: Cell) -> bool:
    """Whether the 1-based ``(index, total)`` shard measures this cell."""
    index, total = shard
    return shard_index(cell.exp_id, cell.key, total) == index - 1


SHARD_STRATEGIES = ("hash", "weight")


def lpt_assignment(
    cells: "Iterable[tuple[str, Cell]]", total: int
) -> "dict[tuple[str, str], int]":
    """LPT the campaign's cells over ``total`` shards by planned weight.

    Longest-processing-time-first over ``Cell.weight``: cells are taken
    heaviest first and each goes to the currently lightest shard, so a
    heavy-tailed campaign spreads its dominant cells instead of letting
    the identity hash bunch them (PERFORMANCE.md layer 8's 1.04×
    ceiling).  Returns ``{(exp_id, key): shard}`` with 0-based shards.

    Deterministic and *order-invariant*: the LPT pass sorts by
    ``(-weight, exp_id, key)`` — a total order, since keys are unique
    per experiment — and weight ties inside a shard choice break toward
    the lowest shard index (``min`` is stable).  Unlike the hash
    strategy the result DOES depend on which cells the campaign plans
    (that is the point: load balance is a whole-campaign property), so
    every fleet leg must be launched with the same experiment set,
    preset, and mode; the partition is still independent of request
    order, ``--jobs``, and resume state.
    """
    if total < 1:
        raise ReproError(f"shard fleets need at least one shard, got {total}")
    loads = [0.0] * total
    assignment: "dict[tuple[str, str], int]" = {}
    ordered = sorted(
        cells, key=lambda item: (-item[1].weight, item[0], item[1].key)
    )
    for exp_id, cell in ordered:
        target = min(range(total), key=loads.__getitem__)
        assignment[(exp_id, cell.key)] = target
        loads[target] += cell.weight
    return assignment


def campaign_assignment(
    items: "Sequence[tuple[str, object]]",
    total: int,
    strategy: str = "hash",
) -> "dict[tuple[str, str], int]":
    """The fleet partition over a campaign's expanded *work items*.

    ``items`` pairs each experiment id with a work item — a whole
    :class:`Cell` or a divided cell's
    :class:`~repro.experiments.base.Subtask` (both expose ``key`` and
    ``weight``, which is all the LPT pass reads).  The two strategies
    treat subtasks differently, on purpose:

    * ``hash`` keys a subtask by its *owning cell* (``cell_key``), so a
      cell's parts always land on one shard together and the partition
      matches :func:`shard_index` cell for cell — hash fleets never
      need cross-shard part merging;
    * ``weight`` LPTs over the expanded items, splitting a divisible
      cell's weight across shards — that is the point of divisibility
      (the heaviest cell no longer pins a leg's makespan), and the
      part records merge back at ``ring-repro ingest``.
    """
    if strategy not in SHARD_STRATEGIES:
        raise ReproError(
            f"unknown shard strategy {strategy!r}; expected one of "
            f"{', '.join(SHARD_STRATEGIES)}"
        )
    if strategy == "weight":
        return lpt_assignment(items, total)  # type: ignore[arg-type]
    return {
        (exp_id, item.key): shard_index(
            exp_id, getattr(item, "cell_key", item.key), total
        )
        for exp_id, item in items
    }
