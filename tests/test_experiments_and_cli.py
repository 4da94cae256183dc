"""Integration tests: every experiment passes in quick mode; CLI works.

These are the paper's claims end-to-end: a failing experiment means a
theorem's measured shape broke somewhere in the stack.
"""

from __future__ import annotations

import pytest

from repro.cli import build_profile, main, parse_sizes
from repro.errors import ReproError
from repro.experiments import (
    ALL_EXPERIMENTS,
    LONG_PRESET_EXPERIMENTS,
    get_experiment,
)
from repro.experiments.base import (
    ExperimentResult,
    RunProfile,
    Sweep,
    default_rng,
)


class TestRegistry:
    def test_all_twelve_registered(self):
        assert list(ALL_EXPERIMENTS) == [f"E{i}" for i in range(1, 13)]

    def test_lookup_case_insensitive(self):
        assert get_experiment("e7") is ALL_EXPERIMENTS["E7"]

    def test_unknown_experiment(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            get_experiment("E99")


@pytest.mark.parametrize("exp_id", list(ALL_EXPERIMENTS))
def test_experiment_passes_quick(exp_id):
    """Each experiment's claim check holds on the reduced sweep."""
    result = get_experiment(exp_id)(True)
    assert isinstance(result, ExperimentResult)
    assert result.rows, f"{exp_id} produced no rows"
    assert result.conclusions, f"{exp_id} drew no conclusions"
    result.require_passed()


class TestExperimentResult:
    def test_render_contains_table_and_verdict(self):
        result = get_experiment("E11")(True)
        text = result.render()
        assert "E11" in text
        assert "claim:" in text
        assert "RESULT: PASS" in text

    def test_require_passed_raises_on_failure(self):
        result = ExperimentResult(
            exp_id="EX",
            title="t",
            claim="c",
            columns=["a"],
            rows=[{"a": 1}],
            passed=False,
        )
        with pytest.raises(ReproError, match="EX failed"):
            result.require_passed()

    def test_sweep_selection(self):
        sweep = Sweep(full=(1, 2, 3), quick=(1,))
        assert sweep.sizes(True) == (1,)
        assert sweep.sizes(False) == (1, 2, 3)

    def test_default_rng_deterministic(self):
        assert default_rng().random() == default_rng().random()


class TestRunProfile:
    def test_bool_coercion_matches_legacy_flags(self):
        assert RunProfile.coerce(True).preset == "quick"
        assert RunProfile.coerce(False).preset == "full"
        assert bool(RunProfile(preset="quick"))
        assert not bool(RunProfile(preset="full"))
        assert not bool(RunProfile(preset="long"))

    def test_unknown_preset_rejected(self):
        with pytest.raises(ReproError, match="unknown preset"):
            RunProfile(preset="huge")

    def test_bad_sizes_rejected(self):
        with pytest.raises(ReproError, match="positive ring sizes"):
            RunProfile(sizes=(8, 0))
        with pytest.raises(ReproError, match="positive ring sizes"):
            RunProfile(sizes=())

    def test_sweep_profile_selection(self):
        sweep = Sweep(full=(1, 2, 3), quick=(1,), long=(10, 20))
        assert sweep.sizes(RunProfile(preset="quick")) == (1,)
        assert sweep.sizes(RunProfile(preset="full")) == (1, 2, 3)
        assert sweep.sizes(RunProfile(preset="long")) == (10, 20)
        assert sweep.sizes(RunProfile(sizes=(7, 8))) == (7, 8)

    def test_long_preset_falls_back_to_full(self):
        sweep = Sweep(full=(1, 2, 3), quick=(1,))
        assert sweep.sizes(RunProfile(preset="long")) == (1, 2, 3)

    def test_long_capable_sweeps_reach_ten_thousand(self):
        """Every long-preset experiment defines a long sweep with n >= 10^4."""
        import importlib

        modules = {
            "E1": "e01_regular_linear",
            "E7": "e07_wcw_quadratic",
            "E8": "e08_counters_nlogn",
            "E9": "e09_hierarchy",
            "E10": "e10_known_n",
            "E11": "e11_passes_tradeoff",
        }
        assert set(modules) == set(LONG_PRESET_EXPERIMENTS)
        for exp_id, module_name in modules.items():
            module = importlib.import_module(f"repro.experiments.{module_name}")
            assert module.SWEEP.long is not None, exp_id
            assert max(module.SWEEP.long) >= 10_000, exp_id


class TestCLIParsing:
    def test_parse_sizes(self):
        assert parse_sizes("6,12,24") == (6, 12, 24)
        assert parse_sizes(" 6, 12 ,24 ") == (6, 12, 24)
        assert parse_sizes("1024") == (1024,)

    def test_parse_sizes_rejects_garbage(self):
        with pytest.raises(ReproError, match="comma-separated integers"):
            parse_sizes("6,twelve")
        with pytest.raises(ReproError, match="positive"):
            parse_sizes("6,-12")
        with pytest.raises(ReproError, match="empty"):
            parse_sizes(",")

    def test_build_profile_presets(self):
        assert build_profile(None, None, False) == RunProfile(preset="full")
        assert build_profile(None, None, True) == RunProfile(preset="quick")
        assert build_profile("long", None, False) == RunProfile(preset="long")
        assert build_profile("quick", None, True) == RunProfile(preset="quick")
        assert build_profile(None, "4,8", False) == RunProfile(
            preset="full", sizes=(4, 8)
        )

    def test_build_profile_conflict(self):
        with pytest.raises(ReproError, match="conflicts"):
            build_profile("long", None, True)

    def test_cli_sizes_override(self, capsys):
        import re

        assert main(["E8", "--sizes", "6,12,24"]) == 0
        output = capsys.readouterr().out
        assert "E8" in output and "PASS" in output
        # The override must actually take effect: exactly the requested
        # sizes appear as table rows, none of the default sweep's extras.
        rows = re.findall(r"^\s*(\d+)\s", output, flags=re.MULTILINE)
        assert rows == ["6", "12", "24"]

    def test_cli_bad_sizes_is_clean_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["E8", "--sizes", "6,twelve"])
        assert excinfo.value.code == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_cli_quick_preset_conflict_is_clean_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["E8", "--quick", "--preset", "long"])
        assert excinfo.value.code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_cli_sizes_notice_for_fixed_sweep_experiments(self, capsys):
        assert main(["E3", "--sizes", "6,12,24", "--quick"]) == 0
        captured = capsys.readouterr()
        assert "E3 has no ring-size sweep" in captured.err
        assert "PASS" in captured.out

    def test_cli_preset_quick_equals_quick_flag(self, capsys):
        assert main(["E11", "--preset", "quick"]) == 0
        preset_output = capsys.readouterr().out
        assert main(["E11", "--quick"]) == 0
        quick_output = capsys.readouterr().out
        assert preset_output == quick_output


# The CLI's acceptance matrix: which flags each command takes on their
# own.  Every other (command, flag) pair is a usage error (exit 2, with a
# message naming the flag).  --shard-strategy and --dry-run only work
# next to --shard and --prune-stale, so alone they are rejected everywhere.
MATRIX_COMMANDS = {
    "run": ["E1"],
    "report": ["report", "E1"],
    "dashboard": ["dashboard"],
    "ingest": ["ingest", "src"],
    "trace": ["trace"],
    "ledger seed": ["ledger", "seed"],
    "ledger append": ["ledger", "append", "bench.json"],
    "ledger check": ["ledger", "check"],
}
# One non-default spelling per flag, so "accepted" means "read".
MATRIX_FLAGS = {
    "--shard": ["--shard", "1/2"],
    "--shard-strategy": ["--shard-strategy", "weight"],
    "--into": ["--into", "merged"],
    "--strip-seconds": ["--strip-seconds"],
    "--fleet": ["--fleet", "2"],
    "--quick": ["--quick"],
    "--preset": ["--preset", "long"],
    "--mode": ["--mode", "model"],
    "--sizes": ["--sizes", "8,16,32"],
    "--jobs": ["--jobs", "2"],
    "--resume": ["--resume"],
    "--store": ["--store", "elsewhere"],
    "--no-store": ["--no-store"],
    "--profile": ["--profile"],
    "--all": ["--all"],
    "--refit": ["--refit"],
    "--prune-stale": ["--prune-stale"],
    "--dry-run": ["--dry-run"],
    "--out": ["--out", "site"],
    "--open": ["--open"],
    "--bench-dir": ["--bench-dir", "bench"],
    "--campaign": ["--campaign", "campaign-x"],
    "--ledger": ["--ledger", "ledger.jsonl"],
    "--window": ["--window", "4"],
    "--band-k": ["--band-k", "3"],
    "--rel-floor": ["--rel-floor", "0.5"],
    "--min-history": ["--min-history", "2"],
    "--run-id": ["--run-id", "r1"],
}
_SWEEP = {"--quick", "--preset", "--mode", "--sizes", "--store"}
MATRIX_ACCEPTS = {
    "run": _SWEEP
    | {"--shard", "--jobs", "--resume", "--no-store", "--profile"},
    "report": _SWEEP | {"--profile", "--all", "--refit", "--prune-stale"},
    "dashboard": _SWEEP
    | {"--jobs", "--fleet", "--out", "--open", "--bench-dir"},
    "ingest": {"--into", "--strip-seconds"},
    "trace": {"--campaign"},
    "ledger seed": {"--ledger", "--bench-dir"},
    "ledger append": {"--ledger", "--run-id"},
    "ledger check": {
        "--ledger", "--window", "--band-k", "--rel-floor", "--min-history"
    },
}


@pytest.fixture
def dispatch_log(monkeypatch, tmp_path):
    """Replace every command's handler with a logging no-op."""
    import types

    import repro.cli as cli

    monkeypatch.chdir(tmp_path)
    calls: "list[str]" = []

    def handler(name):
        def record(*args, **kwargs):
            calls.append(name)
            return 0

        return record

    def fake_campaign(specs, profile, *, on_result=None, **kwargs):
        calls.append("run")
        executions = {
            spec.exp_id: types.SimpleNamespace(
                result=types.SimpleNamespace(render=lambda: "", passed=True)
            )
            for spec in specs
        }
        if on_result is not None:
            for exp_id, execution in executions.items():
                on_result(exp_id, execution)
        return types.SimpleNamespace(executions=executions)

    for name in ("report", "dashboard", "ingest", "trace", "ledger"):
        monkeypatch.setattr(cli, f"_run_{name}", handler(name))
    monkeypatch.setattr(cli, "execute_campaign", fake_campaign)
    monkeypatch.setattr(cli, "_warn_weights", lambda campaign: None)
    monkeypatch.setattr(cli, "_print_profile", lambda campaign: None)
    monkeypatch.setattr(cli, "_shard_summary", lambda *args: "")
    return calls


class TestAcceptanceMatrix:
    @pytest.mark.parametrize("flag", list(MATRIX_FLAGS))
    @pytest.mark.parametrize("command", list(MATRIX_COMMANDS))
    def test_command_flag(self, command, flag, dispatch_log, capsys):
        argv = [*MATRIX_COMMANDS[command], *MATRIX_FLAGS[flag]]
        if flag in MATRIX_ACCEPTS[command]:
            assert main(argv) == 0
            assert dispatch_log == [command.split()[0]]
            return
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
        assert dispatch_log == []


class TestShardFlagValidation:
    """--shard/ingest argument hygiene: every bad spelling is a clean
    argparse usage error (exit 2 + a message naming the rule), never a
    traceback or a silent misfill of somebody else's shard."""

    @pytest.mark.parametrize(
        "spelling, message",
        [
            ("0/3", "1-based"),
            ("4/3", "exceeds the fleet size"),
            ("x/3", "two positive integers"),
            ("1/0", "at least one shard"),
            ("1.5/3", "two positive integers"),
        ],
    )
    def test_cli_bad_shard_is_clean_usage_error(
        self, capsys, spelling, message
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["E9", "--quick", "--shard", spelling])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_parse_shard_roundtrip(self):
        from repro.runner import parse_shard

        assert parse_shard("1/1") == (1, 1)
        assert parse_shard("3/3") == (3, 3)
        with pytest.raises(ReproError):
            parse_shard("2/")

    def test_cli_shard_conflicts_with_no_store(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["E9", "--quick", "--shard", "1/3", "--no-store"])
        assert excinfo.value.code == 2
        assert "--no-store" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "dashboard"])
    def test_cli_shard_rejected_in_read_only_modes(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--quick", "--shard", "1/3"])
        assert excinfo.value.code == 2
        assert "--shard" in capsys.readouterr().err

    def test_cli_ingest_needs_sources(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ingest"])
        assert excinfo.value.code == 2
        assert "required: SRC" in capsys.readouterr().err


class TestDocs:
    def test_readme_mentions_every_experiment(self):
        """The CI docs check, enforced locally: README.md is the front door
        and must name every registered experiment id."""
        import pathlib
        import re

        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        assert readme.is_file(), "README.md is missing"
        text = readme.read_text(encoding="utf-8")
        missing = [
            exp_id
            for exp_id in ALL_EXPERIMENTS
            if not re.search(rf"\b{exp_id}\b", text)
        ]
        assert not missing, f"README.md does not mention: {missing}"

    def test_documented_command_lines_parse(self):
        """Every `ring-repro ...` example in README.md and the repro.cli
        docstring parses under the current parser (nothing runs).  Usage
        synopses — lines with [optional] or {choice} groups — are skipped."""
        import pathlib
        import shlex

        import repro.cli

        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        examples = [
            shlex.split(line.strip(), comments=True)
            for text in (readme.read_text(encoding="utf-8"), repro.cli.__doc__)
            for line in text.splitlines()
            if line.strip().startswith("ring-repro ")
            and not any(mark in line for mark in "[{")
        ]
        commands = set()
        for argv in examples:
            args = repro.cli.parse_args(argv[1:])
            commands.add(args.command)
        assert commands == {
            "run", "report", "dashboard", "ingest", "trace", "ledger"
        }


class TestCLI:
    def test_single_experiment(self, capsys):
        assert main(["E11", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "E11" in output and "PASS" in output

    def test_multiple_experiments(self, capsys):
        assert main(["e8", "E10", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "E8" in output and "E10" in output
        assert "all 2 experiment(s) passed" in output

    def test_unknown_id_raises(self):
        with pytest.raises(ReproError):
            main(["E42", "--quick"])
