"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.automata.dfa import DFA


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; tests must not depend on global random state."""
    return random.Random(0xBEEF)


@pytest.fixture(scope="session", autouse=True)
def _isolated_telemetry_root(tmp_path_factory):
    """Point the span journal's sidecar at a session temp directory.

    Session-scoped so it is in place before any module- or class-scoped
    fixture runs a campaign; the per-test fixture below narrows it
    further for function-scoped work.
    """
    root = tmp_path_factory.mktemp("telemetry")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TELEMETRY_DIR", str(root))
        yield root


@pytest.fixture(autouse=True)
def _isolated_run_store(tmp_path, monkeypatch):
    """Point the CLI's default cell store at a per-test temp directory.

    Persisting cell records is on by default, so any test driving
    ``repro.cli.main`` without an explicit ``--store``/``--no-store``
    would otherwise grow a ``runs/`` tree in whatever directory pytest
    was launched from.
    """
    monkeypatch.setattr(
        "repro.cli.DEFAULT_STORE_ROOT", str(tmp_path / "runs")
    )
    # Same isolation for the span journal's sidecar directory: any test
    # running a campaign would otherwise append journals under the
    # launch directory's runs/_telemetry.
    monkeypatch.setenv(
        "REPRO_TELEMETRY_DIR", str(tmp_path / "telemetry")
    )


def random_dfa(rng: random.Random, size: int, alphabet: str = "ab") -> DFA:
    """A random total DFA (used by hypothesis-style sweeps in tests)."""
    states = list(range(size))
    transitions = {
        (state, symbol): rng.choice(states)
        for state in states
        for symbol in alphabet
    }
    accepting = frozenset(s for s in states if rng.random() < 0.5)
    return DFA(frozenset(states), tuple(alphabet), transitions, 0, accepting)


def all_words(alphabet: str, max_length: int):
    """Every word over ``alphabet`` of length ``<= max_length``."""
    frontier = [""]
    while frontier:
        word = frontier.pop(0)
        yield word
        if len(word) < max_length:
            frontier.extend(word + symbol for symbol in alphabet)
