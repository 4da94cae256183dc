"""Self-check of the campaign benchmark (not part of the tier-1 suite).

Runs one iteration of every workload in both modes and checks the
output contract: every metric ``BENCHMARK.json`` names is reported with
its unit, nothing failed, and the store replay served every cell from
the store.  Run from the repository root::

    python -m pytest campaignbench/test_selfcheck.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COMMAND = DEFINITION["command"]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *COMMAND[1:]]
        + ["--workload", workload, "--seed", "7", "--seconds", "1"]
        + ["--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in DEFINITION["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_one_iteration_reports_every_metric(workload, trace, section):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in DEFINITION[section]
    }
    if trace:
        assert metrics["fail_frac"]["value"] == 0
        if workload == "store-replay":
            assert metrics["runner.store.hit_ratio"]["value"] == 1.0
    else:
        assert metrics["ok_frac"]["value"] == 1.0
        assert all(m["value"] > 0 for m in metrics.values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in DEFINITION["paths"]:
        shutil.copytree(
            ROOT / path,
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    done = _run(tmp_path, DEFINITION["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
