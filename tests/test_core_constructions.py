"""Tests for the proof constructions: Theorems 2, 3, 4/5 machinery, 7.

These are the compilation/extraction halves of the paper — each test
executes a construction the proof describes and checks the property the
proof claims for it.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.equivalence import equivalent
from repro.bits import Bits
from repro.core.bidi_to_unidi import (
    BidiToUnidiCompiler,
    LineEmbeddedAlgorithm,
    _interleaving_feasible,
)
from repro.core.counting import CountingAlgorithm
from repro.core.information_state import (
    CutLemmaReport,
    cut_word,
    entropy_lower_bound_bits,
    equal_state_pairs,
    min_distinct_states,
    verify_cut_lemma,
)
from repro.core.message_graph import (
    build_message_graph,
    extract_dfa,
    infinite_witness,
)
from repro.core.multipass import (
    _CompiledOnePass,
    collect_message_space,
    compile_to_one_pass,
    history_forwarding,
    MultipassRingAlgorithm,
)
from repro.core.passes_tradeoff import TwoPassTradeoffRecognizer
from repro.core.regular_bidirectional import BidirectionalDFARecognizer
from repro.core.regular_onepass import DFARecognizer, TransducerRingAlgorithm
from repro.errors import AutomatonError, CompilationError, RingError
from repro.experiments import RunProfile, get_spec
from repro.experiments.base import run_cell
from repro.experiments.e02_message_graph import CountingTransducer
from repro.languages.regular import (
    mod_count_language,
    parity_language,
    substring_language,
    tradeoff_language,
)
from repro.ring import run_bidirectional, run_unidirectional
from repro.ring.messages import Direction

from conftest import all_words


class TestMessageGraph:
    @pytest.mark.parametrize(
        "language",
        [parity_language(), mod_count_language("b", 4, 3), substring_language("aba")],
        ids=lambda l: l.name,
    )
    def test_finite_for_dfa_recognizers(self, language):
        recognizer = DFARecognizer(language.dfa)
        graph = build_message_graph(recognizer.transducer, max_vertices=1000)
        assert graph.is_finite()
        # No more distinct messages than DFA states.
        assert graph.message_count <= len(recognizer.dfa.states)

    @pytest.mark.parametrize(
        "language",
        [parity_language(), mod_count_language("b", 4, 3), substring_language("aba")],
        ids=lambda l: l.name,
    )
    def test_extraction_round_trips(self, language):
        recognizer = DFARecognizer(language.dfa)
        graph = build_message_graph(recognizer.transducer)
        extracted = extract_dfa(
            graph, recognizer.transducer, accept_empty=language.dfa.accepts("")
        )
        assert equivalent(extracted, language.dfa)

    def test_counting_graph_truncates_at_every_budget(self):
        transducer = CountingTransducer()
        for budget in [10, 100, 500]:
            graph = build_message_graph(transducer, max_vertices=budget)
            assert graph.truncated
            assert graph.message_count >= budget

    def test_extract_from_truncated_rejected(self):
        graph = build_message_graph(CountingTransducer(), max_vertices=10)
        with pytest.raises(AutomatonError, match="truncated"):
            extract_dfa(graph, CountingTransducer())

    def test_infinite_witness_forces_distinct_messages(self):
        transducer = CountingTransducer()
        for length in [5, 20, 50]:
            word = infinite_witness(transducer, length)
            assert len(word) == length
            trace = run_unidirectional(TransducerRingAlgorithm(transducer), word)
            assert len({event.bits for event in trace.events}) == length

    def test_infinite_witness_on_finite_graph_fails(self):
        recognizer = DFARecognizer(parity_language().dfa)
        with pytest.raises(CompilationError, match="graph is finite"):
            infinite_witness(recognizer.transducer, 100)

    def test_path_word_reconstruction(self):
        graph = build_message_graph(CountingTransducer(), max_vertices=20)
        deepest = graph.deepest_vertex()
        word = graph.path_word_to(deepest)
        assert len(word) == graph.depth[deepest]


class TestMultipassCompilation:
    def _space_and_algorithm(self, k: int):
        language = tradeoff_language(k)
        two_pass = TwoPassTradeoffRecognizer(language)
        words = [
            "".join(letters)
            for length in range(1, 5)
            for letters in itertools.product(language.alphabet, repeat=length)
        ]
        space = collect_message_space(two_pass, words)
        return language, two_pass, space

    def test_collect_message_space_is_closed(self):
        language, two_pass, space = self._space_and_algorithm(1)
        compiled = compile_to_one_pass(two_pass.multipass, space)
        # Compilation succeeds and runs without CompilationError on longer
        # words than the space was collected from: the space was complete.
        word = language.sample_member(12, __import__("random").Random(0))
        algorithm = TransducerRingAlgorithm(compiled)
        assert run_unidirectional(algorithm, word).decision is not None

    @pytest.mark.parametrize("k", [1, 2])
    def test_compiled_equivalence(self, k):
        language, two_pass, space = self._space_and_algorithm(k)
        compiled = compile_to_one_pass(two_pass.multipass, space)
        algorithm = TransducerRingAlgorithm(compiled)
        for length in range(1, 5):
            for letters in itertools.product(language.alphabet, repeat=length):
                word = "".join(letters)
                assert (
                    run_unidirectional(algorithm, word).decision
                    == language.contains(word)
                ), word

    def test_compiled_message_size_is_constant(self):
        language, two_pass, space = self._space_and_algorithm(1)
        compiled = compile_to_one_pass(two_pass.multipass, space)
        algorithm = TransducerRingAlgorithm(compiled)
        sizes = set()
        for n in [3, 8, 15]:
            trace = run_unidirectional(algorithm, "0" * n)
            sizes |= {event.size for event in trace.events}
        assert len(sizes) == 1  # every message has the same constant size

    def test_candidate_budget(self):
        language, two_pass, space = self._space_and_algorithm(2)
        with pytest.raises(CompilationError, match="exceed"):
            compile_to_one_pass(two_pass.multipass, space, max_candidates=10)

    def test_incomplete_space_fails_loudly(self):
        language, two_pass, space = self._space_and_algorithm(1)
        with pytest.raises(CompilationError):
            compiled = compile_to_one_pass(two_pass.multipass, space[:1])
            algorithm = TransducerRingAlgorithm(compiled)
            run_unidirectional(algorithm, "01")

    @pytest.mark.parametrize("k", [1, 2])
    def test_memo_matches_uncached_oracle(self, k):
        """The memoized transducer sends exactly the uncached one's bits."""

        class Uncached(_CompiledOnePass):
            def initial_message(self, leader_letter):
                return self._encode_table(self._candidates)

            def relay(self, letter, incoming):
                return self._relay(letter, incoming)

            def decide(self, leader_letter, final):
                return self._decide(leader_letter, final)

        language, two_pass, space = self._space_and_algorithm(k)
        memoized = TransducerRingAlgorithm(
            compile_to_one_pass(two_pass.multipass, space)
        )
        oracle = TransducerRingAlgorithm(Uncached(two_pass.multipass, space))
        rng = random.Random(k)
        words = [
            "".join(letters)
            for length in range(1, 5)
            for letters in itertools.product(language.alphabet, repeat=length)
        ] + [
            "".join(
                rng.choice(language.alphabet) for _ in range(rng.randint(5, 40))
            )
            for _ in range(20)
        ]
        for word in words:
            got = run_unidirectional(memoized, word, trace="full")
            want = run_unidirectional(oracle, word, trace="full")
            assert [e.bits for e in got.events] == [
                e.bits for e in want.events
            ], word
            assert got.total_bits == want.total_bits, word
            assert got.decision == want.decision == language.contains(word)

    def test_compilation_error_is_not_memoized(self):
        language, two_pass, space = self._space_and_algorithm(1)
        algorithm = TransducerRingAlgorithm(
            compile_to_one_pass(two_pass.multipass, space[:1])
        )
        for _ in range(2):
            with pytest.raises(CompilationError, match="incomplete"):
                run_unidirectional(algorithm, "01")

    def test_compiled_cell_follower_step_budget(self, monkeypatch):
        """The full-preset E3/k=2 cell re-runs no repeated relay.

        Uncached, the cell makes 209,092 ``follower_step`` calls; the
        memo brings it under 20,000.  The bound fails deterministically
        when the memo is lost, without relying on timing.
        """
        inner = type(TwoPassTradeoffRecognizer(tradeoff_language(2)).multipass)
        original = inner.follower_step
        calls = 0

        def counting(self, letter, memory, incoming):
            nonlocal calls
            calls += 1
            return original(self, letter, memory, incoming)

        monkeypatch.setattr(inner, "follower_step", counting)
        (cell,) = [
            cell
            for cell in get_spec("E3").cells(RunProfile(preset="full"))
            if cell.key == "k=2"
        ]
        record = run_cell(cell)
        assert record["equivalent"] and record["graph_finite"]
        assert calls <= 25_000, calls

    def test_history_forwarding_equivalent(self):
        language, two_pass, space = self._space_and_algorithm(1)
        forwarded = MultipassRingAlgorithm(
            history_forwarding(two_pass.multipass, space)
        )
        for length in range(1, 5):
            for letters in itertools.product(language.alphabet, repeat=length):
                word = "".join(letters)
                assert (
                    run_unidirectional(forwarded, word).decision
                    == language.contains(word)
                ), word

    def test_history_forwarding_linear_bits(self):
        language, two_pass, space = self._space_and_algorithm(1)
        forwarded = MultipassRingAlgorithm(
            history_forwarding(two_pass.multipass, space)
        )
        bits = {}
        for n in [8, 16, 32]:
            bits[n] = run_unidirectional(forwarded, "0" * n).total_bits
        assert bits[16] == 2 * bits[8]
        assert bits[32] == 2 * bits[16]

    def test_compiled_graph_is_finite(self):
        """Theorem 3 output feeds Theorem 2: compiled => finite graph."""
        language, two_pass, space = self._space_and_algorithm(1)
        compiled = compile_to_one_pass(two_pass.multipass, space)
        graph = build_message_graph(compiled, max_vertices=2000)
        assert graph.is_finite()
        extracted = extract_dfa(graph, compiled, accept_empty=language.contains(""))
        for word in all_words(language.alphabet, 6):
            assert extracted.accepts(word) == language.contains(word), word


class TestInformationStateMachinery:
    def test_cut_word(self):
        assert cut_word("abcdef", 1, 3) == "adef"
        assert cut_word("abcdef", 2, 6) == "ab"

    def test_cut_word_validation(self):
        with pytest.raises(RingError):
            cut_word("abc", 0, 2)  # cannot cut the leader
        with pytest.raises(RingError):
            cut_word("abc", 2, 2)
        with pytest.raises(RingError):
            cut_word("abc", 1, 9)

    def test_equal_state_pairs_on_uniform_ring(self):
        recognizer = DFARecognizer(parity_language().dfa)
        trace = run_unidirectional(recognizer, "bbbb")
        pairs = equal_state_pairs(trace)
        # Followers p1..p3 all relay state "even" over letter b: all equal.
        assert set(pairs) == {(1, 2), (1, 3), (2, 3)}

    def test_cut_lemma_holds_on_regular_recognizer(self):
        recognizer = DFARecognizer(parity_language().dfa)
        report = verify_cut_lemma(recognizer, "aabbaabb")
        assert isinstance(report, CutLemmaReport)
        assert report.holds
        assert len(report.cut_word) < len(report.word)

    def test_cut_lemma_every_pair(self):
        recognizer = DFARecognizer(mod_count_language("a", 3, 0).dfa)
        word = "abaabbaba"
        trace = run_unidirectional(recognizer, word)
        for pair in equal_state_pairs(trace):
            report = verify_cut_lemma(recognizer, word, pair=pair)
            assert report is not None and report.holds, pair

    def test_cut_lemma_none_when_all_distinct(self):
        assert verify_cut_lemma(CountingAlgorithm(), "abababab") is None

    def test_cut_lemma_rejects_unequal_pair(self):
        recognizer = DFARecognizer(parity_language().dfa)
        with pytest.raises(RingError, match="do not share"):
            verify_cut_lemma(recognizer, "abab", pair=(1, 2))

    @given(st.text(alphabet="ab", min_size=4, max_size=24))
    @settings(max_examples=40, deadline=None)
    def test_cut_lemma_property(self, word):
        """Pumping in ring clothing: any equal-state cut preserves behavior."""
        recognizer = DFARecognizer(substring_language("ab").dfa)
        report = verify_cut_lemma(recognizer, word)
        if report is not None:
            assert report.holds, (word, report)

    def test_min_distinct_states(self):
        assert min_distinct_states(10) == 5
        assert min_distinct_states(11) == 6
        assert min_distinct_states(9, bidirectional=True) == 3
        assert min_distinct_states(10, bidirectional=True) == 4

    def test_entropy_bound(self):
        assert entropy_lower_bound_bits(1) == 0.0
        assert entropy_lower_bound_bits(2) == pytest.approx(1.0)
        # log2(d!) grows ~ d log2 d.
        assert entropy_lower_bound_bits(64) > 64 * 4

    def test_counting_meets_entropy_bound(self):
        algorithm = CountingAlgorithm()
        for n in [8, 32, 64]:
            trace = run_unidirectional(algorithm, "a" * n)
            distinct = trace.distinct_information_states()
            assert distinct == n
            assert trace.total_bits >= entropy_lower_bound_bits(distinct)


class TestInterleavingFeasibility:
    def send(self, bits: str):
        return ("sent", Bits(bits))

    def recv(self, bits: str):
        return ("received", Bits(bits))

    def test_simple_exchange(self):
        left = (self.send("1"), self.recv("0"))
        right = (self.recv("1"), self.send("0"))
        assert _interleaving_feasible(left, right)

    def test_sequence_mismatch(self):
        left = (self.send("1"),)
        right = (self.recv("0"),)
        assert not _interleaving_feasible(left, right)

    def test_deadlock_detected(self):
        # Both sides wait to receive before sending: no valid order.
        left = (self.recv("0"), self.send("1"))
        right = (self.recv("1"), self.send("0"))
        assert not _interleaving_feasible(left, right)

    def test_empty_logs(self):
        assert _interleaving_feasible((), ())

    def test_count_mismatch(self):
        left = (self.send("1"), self.send("1"))
        right = (self.recv("1"),)
        assert not _interleaving_feasible(left, right)


class TestTheorem7:
    def test_line_embedding_preserves_decisions(self):
        language = parity_language()
        source = BidirectionalDFARecognizer(language.dfa)
        embedding = LineEmbeddedAlgorithm(source)
        for length in range(2, 7):
            for letters in itertools.product("ab", repeat=length):
                word = "".join(letters)
                assert embedding.run_on_line(word).decision == language.contains(
                    word
                ), word

    def test_line_embedding_linear_overhead(self):
        language = parity_language()
        source = BidirectionalDFARecognizer(language.dfa)
        embedding = LineEmbeddedAlgorithm(source)
        for n in [4, 8, 16]:
            ring_bits = run_bidirectional(source, "a" * n).total_bits
            line_bits = embedding.run_on_line("a" * n).total_bits
            # +1 tag bit per message, plus one tunneled message of n-1 hops.
            assert line_bits <= 2 * ring_bits + 2 * n + 2

    def test_line_embedding_needs_two(self):
        source = BidirectionalDFARecognizer(parity_language().dfa)
        embedding = LineEmbeddedAlgorithm(source)
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            embedding.create_processor_positioned("a", True, 0, 1)

    @pytest.mark.parametrize(
        "language",
        [parity_language(), mod_count_language("a", 3, 0)],
        ids=lambda l: l.name,
    )
    def test_full_pipeline_equivalence(self, language):
        source = BidirectionalDFARecognizer(language.dfa, name=language.name)
        compiler = BidiToUnidiCompiler(source, horizon=6)
        for length in range(2, 8):
            for letters in itertools.product("ab", repeat=length):
                word = "".join(letters)
                assert (
                    run_unidirectional(compiler, word).decision
                    == language.contains(word)
                ), word

    def test_beyond_horizon(self, rng):
        language = parity_language()
        compiler = BidiToUnidiCompiler(
            BidirectionalDFARecognizer(language.dfa), horizon=5
        )
        for n in [13, 21, 34, 55]:
            word = "".join(rng.choice("ab") for _ in range(n))
            assert (
                run_unidirectional(compiler, word).decision
                == language.contains(word)
            ), word

    def test_compiled_messages_constant_size(self):
        language = parity_language()
        compiler = BidiToUnidiCompiler(
            BidirectionalDFARecognizer(language.dfa), horizon=5
        )
        for n in [6, 12, 24]:
            trace = run_unidirectional(compiler, "a" * n)
            for event in trace.events:
                assert event.size == compiler.bits_per_message()

    def test_pass_structure(self):
        language = parity_language()
        compiler = BidiToUnidiCompiler(
            BidirectionalDFARecognizer(language.dfa), horizon=5
        )
        trace = run_unidirectional(compiler, "aabb")
        # Each pass is n messages; the leader tries accepting states in turn.
        assert trace.message_count % 4 == 0

    def test_unidirectional_only(self):
        language = parity_language()
        compiler = BidiToUnidiCompiler(
            BidirectionalDFARecognizer(language.dfa), horizon=5
        )
        trace = run_unidirectional(compiler, "abab")
        assert all(event.direction is Direction.CW for event in trace.events)
