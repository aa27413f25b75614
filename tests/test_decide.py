"""Fuel-bounded prefix and infinite-recurrence deciders on infinite words."""

from __future__ import annotations

import random
import sys

import pytest

from helpers import ABC, BINARY, failure, random_dfa
import realizability.decide as decide_module
import realizability.definitive as definitive_module
from realizability import (
    AlphabetMismatchError,
    Dfa,
    Fuel,
    FuelExhausted,
    MorphismStallError,
    Verdict,
    apply_morphism,
    brute_force_prefix_check,
    champernowne,
    count_accepted_prefixes,
    dead_lock_states,
    deadlock_accepting_variant,
    decide_buchi,
    decide_prefix,
    find_definitive_word,
    indexed_periodic,
    literal_dfa,
    regex_dfa,
    ultimately_periodic,
    zero_one_runs,
)

W = champernowne(BINARY)


def default_fuel(a: Dfa) -> Fuel:
    return Fuel(max(1, W.occurrence_bound(find_definitive_word(a))))


def counter(n: int) -> Dfa:
    """Counts 1s mod n and accepts the count n - 1."""
    states = tuple(f"c{i}" for i in range(n))
    delta = {}
    for i, q in enumerate(states):
        delta[q, "0"] = q
        delta[q, "1"] = states[(i + 1) % n]
    return Dfa(BINARY, states, delta, states[0], frozenset({states[-1]}))


class TestFuel:
    def test_must_be_positive(self):
        with pytest.raises(ValueError):
            Fuel(0)

    def test_of_accepts_ints_and_fuel(self):
        assert Fuel.of(5) == Fuel(5)
        f = Fuel(5)
        assert Fuel.of(f) is f
        assert Fuel.of(None) is None  # derive the occurrence bound

    def test_refuses_a_budget_that_is_not_an_int(self, a_contains1):
        for bad, kind in ((2.5, "float"), ("3", "str"), (True, "bool")):
            assert failure(lambda: Fuel(bad)) == (TypeError, f"fuel must be an int, not {kind}")
        # refused before the alphabet mismatch, not late inside the run
        assert failure(lambda: decide_prefix(a_contains1, champernowne(ABC), 2.5)) == (
            TypeError,
            "fuel must be an int, not float",
        )


class TestDecidePrefix:
    def test_an_alphabet_mismatch_is_reported_before_any_work(self, monkeypatch, a_contains1):
        # decide_buchi too: before it builds the dead-lock-accepting variant
        calls = []
        monkeypatch.setattr(decide_module, "dead_lock_states", lambda a: calls.append(a) or dead_lock_states(a))
        abc = champernowne(ABC)
        mismatch = (AlphabetMismatchError, "automaton alphabet ('0', '1') differs from word alphabet ('a', 'b', 'c')")
        for decide in (decide_prefix, decide_buchi):
            for fuel in (None, 7):
                assert failure(lambda: decide(a_contains1, abc, fuel)) == mismatch
            assert failure(lambda: decide(a_contains1, abc, 0)) == (ValueError, "fuel must be positive")
        assert calls == []

    def test_fuel_is_derived_only_for_runs_past_the_window(self, monkeypatch, a_contains1):
        calls = []
        fold = decide_module._definitive_word
        monkeypatch.setattr(decide_module, "_definitive_word", lambda a, is_dead: calls.append(a) or fold(a, is_dead))
        zeros = regex_dfa(".*" + "0" * 18, BINARY)  # 0^18 first ends at 8,212, past the 4,096-symbol window
        for a, outcome, derived in ((a_contains1, Verdict("Yes", 2, 2), 0), (zeros, Verdict("Yes", 8212, 8212), 1)):
            calls.clear()
            assert decide_prefix(a, W) == outcome
            assert len(calls) == derived

    def test_yes_with_evidence(self, a_contains1):
        # W starts "01...": the first 1 appears at position 2
        assert decide_prefix(a_contains1, W, 100) == Verdict("Yes", 2, 2)

    def test_no_with_evidence(self, a_only0):
        # W[1] = "0" reaches the accepting state, so only0 answers Yes at 1
        assert decide_prefix(a_only0, W, 100) == Verdict("Yes", 1, 1)
        # against 1^omega the run dead-locks immediately
        ones = ultimately_periodic("", "1", alphabet=BINARY)
        assert decide_prefix(a_only0, ones, 100) == Verdict("No", 1, 1)

    def test_a_stall_past_the_resolution_leaves_the_verdict(self):
        # the image is "0" and then stalls: "0" answers Yes at 1, and a second
        # run that reads past position 1 meets the same stall
        img = apply_morphism(zero_one_runs(), indexed_periodic((2, 1, 1, 1)), stall_limit=2)
        assert decide_prefix(literal_dfa("0", BINARY), img, 10) == Verdict("Yes", 1, 1)
        for _ in range(2):
            with pytest.raises(MorphismStallError, match="^2 consecutive erasing images; image word stalled$"):
                decide_prefix(literal_dfa("00", BINARY), img, 10)

    def test_empty_prefix_accepted_at_position_zero(self):
        a = Dfa(BINARY, ("q",), {("q", "0"): "q", ("q", "1"): "q"}, "q", frozenset({"q"}))
        assert decide_prefix(a, W, 10) == Verdict("Yes", 0, 0)

    def test_initial_dead_lock_answers_no_at_zero(self):
        a = Dfa(BINARY, ("q",), {("q", "0"): "q", ("q", "1"): "q"}, "q", frozenset())
        assert decide_prefix(a, W, 10) == Verdict("No", 0, 0)

    def test_fuel_exhaustion_reports_steps(self, a_contains1):
        zeros = ultimately_periodic("", "0", alphabet=BINARY)
        outcome = decide_prefix(a_contains1, zeros, 7)
        assert outcome == FuelExhausted(7)
        assert not isinstance(outcome, Verdict)

    def test_alphabet_mismatch(self, a_contains1):
        w = champernowne(BINARY)
        b = Dfa(
            BINARY.of("ab"),
            ("q",),
            {("q", "a"): "q", ("q", "b"): "q"},
            "q",
            frozenset({"q"}),
        )
        with pytest.raises(AlphabetMismatchError):
            decide_prefix(b, w, 10)

    def test_fuel_is_checked_before_the_alphabet(self):
        abc = champernowne(BINARY.of("abc"))
        with pytest.raises(ValueError, match="fuel must be positive"):
            decide_prefix(counter(2), abc, 0)
        with pytest.raises(AlphabetMismatchError):
            decide_prefix(counter(2), abc)

    def test_on_step_trace(self, a_contains1):
        trace: list[tuple[int, object]] = []
        decide_prefix(a_contains1, W, 100, on_step=lambda n, q: trace.append((n, q)))
        assert trace == [(0, "s0"), (1, "s0"), (2, "s1")]

    def test_omitted_fuel_is_the_definitive_words_bound(self):
        rng = random.Random(431)
        for _ in range(60):
            a = random_dfa(rng, max_states=5)
            assert decide_prefix(a, W) == decide_prefix(a, W, default_fuel(a))
            assert decide_buchi(a, W) == decide_buchi(a, W, default_fuel(deadlock_accepting_variant(a)))

    def test_omitted_fuel_computes_dead_locks_once(self, monkeypatch):
        # the derived fuel and the kernel share one dead-lock set; Büchi adds the one its variant accepts
        calls: list[Dfa] = []

        def counted(a: Dfa) -> frozenset:
            calls.append(a)
            return dead_lock_states(a)

        for module in (decide_module, definitive_module):
            monkeypatch.setattr(module, "dead_lock_states", counted)
        for decide, expected in ((decide_prefix, 1), (decide_buchi, 2)):
            calls.clear()
            assert isinstance(decide(counter(3), W), Verdict)
            assert len(calls) == expected, decide.__name__

    def test_dead_locks_are_computed_on_first_need(self, monkeypatch, a_contains1):
        # an accepting start never asks for the set; any other run asks once, and a run past the
        # window derives its fuel from that same set
        calls: list[Dfa] = []

        def counted(a: Dfa) -> frozenset:
            calls.append(a)
            return dead_lock_states(a)

        for module in (decide_module, definitive_module):
            monkeypatch.setattr(module, "dead_lock_states", counted)
        accepts_all = Dfa(BINARY, ("p",), {("p", "0"): "p", ("p", "1"): "p"}, "p", frozenset({"p"}))
        zeros = regex_dfa(".*" + "0" * 18, BINARY)  # first accepts at 8,212, past the window
        cases = ((accepts_all, Verdict("Yes", 0, 0), 0), (a_contains1, Verdict("Yes", 2, 2), 1),
                 (regex_dfa("1", BINARY), Verdict("No", 1, 1), 1), (counter(3), Verdict("Yes", 6, 6), 1),
                 (zeros, Verdict("Yes", 8212, 8212), 1))
        for a, outcome, expected in cases:
            for fuel in (None, 9000):
                calls.clear()
                assert decide_prefix(a, W, fuel) == outcome
                assert calls == [a] * expected, (a, fuel)

    def test_omitted_fuel_needs_an_occurrence_bound(self, a_contains1):
        zeros = ultimately_periodic("", "0", alphabet=BINARY)
        for decide in (decide_prefix, decide_buchi):
            with pytest.raises(ValueError, match="no occurrence bound"):
                decide(a_contains1, zeros)

    def test_derived_fuel_always_resolves(self):
        rng = random.Random(401)
        for _ in range(100):
            a = random_dfa(rng, max_states=5)
            outcome = decide_prefix(a, W, default_fuel(a))
            assert isinstance(outcome, Verdict)

    def test_yes_matches_brute_force_minimum(self):
        rng = random.Random(403)
        for _ in range(60):
            a = random_dfa(rng, max_states=5)
            fuel = default_fuel(a)
            outcome = decide_prefix(a, W, fuel)
            assert isinstance(outcome, Verdict)
            brute = brute_force_prefix_check(a, W, fuel.max_steps)
            if outcome.answer == "Yes":
                assert brute == outcome.evidence
            else:
                # no accepted prefix, even far beyond the point of resolution
                assert brute_force_prefix_check(a, W, 10 * fuel.max_steps) is None


class TestBudgetPastMaxsize:
    def test_derived_fuel_past_maxsize_reads_unbounded(self):
        a = counter(70)
        fuel = default_fuel(a)
        assert fuel.max_steps > sys.maxsize
        assert decide_prefix(a, W, fuel) == Verdict("Yes", 158, 158)
        assert decide_prefix(a, W, sys.maxsize) == Verdict("Yes", 158, 158)
        assert decide_buchi(a, W, fuel) == Verdict("Yes", 0, 0)


class TestDecideBuchi:
    def test_eventually_no_more_hits(self, a_only0):
        # only "0" is accepted; after position 1 the run can never accept again
        assert decide_buchi(a_only0, W, 100) == Verdict("No", 2, 2)

    def test_infinitely_many_hits(self, a_contains1):
        # no dead-lock exists, so acceptance stays reachable from the start
        assert decide_buchi(a_contains1, W, 100) == Verdict("Yes", 0, 0)

    def test_yes_with_positive_evidence(self):
        a = Dfa(
            BINARY,
            ("s0", "ok", "trap"),
            {
                ("s0", "0"): "ok",
                ("s0", "1"): "trap",
                ("ok", "0"): "ok",
                ("ok", "1"): "ok",
                ("trap", "0"): "trap",
                ("trap", "1"): "trap",
            },
            "s0",
            frozenset({"ok"}),
        )
        # W starts with "0": one step commits the run to the accepting loop
        assert decide_buchi(a, W, 100) == Verdict("Yes", 1, 1)

    def test_variant_construction(self, a_only0):
        v = deadlock_accepting_variant(a_only0)
        assert v.accepting == frozenset({"s2"})
        assert v.delta == a_only0.delta

    def test_fuel_exhaustion_passes_through(self):
        # on 0^omega the run cycles s0 <-> p, forever able to reach both the
        # accepting state and the trap, so no budget can resolve the question
        a = Dfa(
            BINARY,
            ("s0", "p", "acc", "trap"),
            {
                ("s0", "0"): "p",
                ("s0", "1"): "acc",
                ("p", "0"): "s0",
                ("p", "1"): "trap",
                ("acc", "0"): "acc",
                ("acc", "1"): "acc",
                ("trap", "0"): "trap",
                ("trap", "1"): "trap",
            },
            "s0",
            frozenset({"acc"}),
        )
        zeros = ultimately_periodic("", "0", alphabet=BINARY)
        assert decide_buchi(a, zeros, 5) == FuelExhausted(5)
        assert decide_prefix(a, zeros, 5) == FuelExhausted(5)

    def test_yes_iff_prefix_counts_keep_growing(self):
        rng = random.Random(409)
        for _ in range(40):
            a = random_dfa(rng, max_states=5)
            fuel = default_fuel(deadlock_accepting_variant(a))
            outcome = decide_buchi(a, W, fuel)
            assert isinstance(outcome, Verdict)
            base = outcome.evidence + 50
            c1 = count_accepted_prefixes(a, W, base)
            c2 = count_accepted_prefixes(a, W, 2 * base)
            c3 = count_accepted_prefixes(a, W, 4 * base)
            if outcome.answer == "Yes":
                assert c1 < c2 < c3
            else:
                assert c1 == c2 == c3

    def test_prefix_yes_implies_buchi_yes_on_absorbing(self):
        from realizability import absorbing_accepting

        rng = random.Random(419)
        for _ in range(40):
            a = random_dfa(rng, max_states=5)
            b = absorbing_accepting(a)
            p = decide_prefix(a, W, default_fuel(a))
            q = decide_buchi(b, W, default_fuel(deadlock_accepting_variant(b)))
            assert isinstance(p, Verdict) and isinstance(q, Verdict)
            assert p.answer == q.answer


class TestOracleHelpers:
    def test_brute_force_prefix_check(self, a_contains1):
        assert brute_force_prefix_check(a_contains1, W, 10) == 2
        zeros = ultimately_periodic("", "0", alphabet=BINARY)
        assert brute_force_prefix_check(a_contains1, zeros, 10) is None

    def test_count_accepted_prefixes(self, a_contains1):
        # prefixes of "0100011011" containing a 1: lengths 2..10
        assert count_accepted_prefixes(a_contains1, W, 10) == 9
        assert count_accepted_prefixes(a_contains1, W, 1) == 0

    def test_count_includes_empty_prefix(self):
        a = Dfa(BINARY, ("q",), {("q", "0"): "q", ("q", "1"): "q"}, "q", frozenset({"q"}))
        assert count_accepted_prefixes(a, W, 0) == 1
        assert count_accepted_prefixes(a, W, 3) == 4
