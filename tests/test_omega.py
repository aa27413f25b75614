"""Acceptance of ultimately periodic words by Buchi and Muller automata."""

from __future__ import annotations

import random

import pytest

from helpers import BINARY, random_dfa, random_word
from realizability import (
    Alphabet,
    AlphabetMismatchError,
    Dfa,
    MullerAutomaton,
    Nfa,
    absorbing_accepting,
    buchi_accepts_ultper,
    concatenate,
    determinize,
    equivalent,
    limit_set_ultper,
    macrostate_automaton,
    muller_acceptance_via_buchi_queries,
    muller_accepts_ultper,
    prepend_sigma_star,
    sigma_star,
    words_upto,
)

AB = Alphabet(("a", "b"))


def random_muller(rng: random.Random, max_states: int = 3) -> MullerAutomaton:
    n = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(n))
    delta = {(q, s): rng.choice(states) for q in states for s in AB.symbols}
    subsets: list[frozenset[str]] = []
    for mask in range(1, 2**n):
        subsets.append(frozenset(states[i] for i in range(n) if mask >> i & 1))
    family = frozenset(rng.sample(subsets, k=rng.randint(0, min(2, len(subsets)))))
    return MullerAutomaton(AB, states, delta, states[0], family)


class TestLimitSet:
    def test_alternating_word_visits_both_states(self, m2_muller):
        assert limit_set_ultper(m2_muller, "", "ab") == frozenset({"q0", "q1"})

    def test_constant_words(self, m2_muller):
        assert limit_set_ultper(m2_muller, "", "a") == frozenset({"q0"})
        assert limit_set_ultper(m2_muller, "", "b") == frozenset({"q1"})

    def test_stem_is_discarded_from_limit(self, m2_muller):
        # after the stem "b" the run sits in q1, but the loop "a" pins it to q0
        assert limit_set_ultper(m2_muller, "b", "a") == frozenset({"q0"})

    def test_works_on_dfa_structures(self, a_contains1):
        assert limit_set_ultper(a_contains1, "", "0") == frozenset({"s0"})
        assert limit_set_ultper(a_contains1, "1", "0") == frozenset({"s1"})

    def test_unrolling_invariance(self):
        rng = random.Random(307)
        for _ in range(50):
            a = random_dfa(rng, max_states=6)
            u = random_word(rng, BINARY, 3)
            v = random_word(rng, BINARY, 3, min_len=1)
            base = limit_set_ultper(a, u, v)
            assert limit_set_ultper(a, u + v, v) == base
            assert limit_set_ultper(a, u, v + v) == base

    def test_empty_loop_rejected(self, a_contains1):
        with pytest.raises(ValueError):
            limit_set_ultper(a_contains1, "0", "")

    @pytest.mark.parametrize("stem, loop", [("2", "0"), ("", "2"), ("0", "02")])
    def test_foreign_symbols_rejected_for_dfa_and_muller(self, a_contains1, stem, loop):
        m = MullerAutomaton(
            BINARY, a_contains1.states, a_contains1.delta, a_contains1.initial, frozenset()
        )
        for call in (
            lambda: limit_set_ultper(a_contains1, stem, loop),
            lambda: limit_set_ultper(m, stem, loop),
            lambda: muller_accepts_ultper(m, stem, loop),
        ):
            with pytest.raises(AlphabetMismatchError, match="'2'"):
                call()


class TestMullerAcceptance:
    def test_alternation_family(self, m2_muller):
        assert muller_accepts_ultper(m2_muller, "", "ab")
        assert not muller_accepts_ultper(m2_muller, "", "a")
        assert not muller_accepts_ultper(m2_muller, "", "b")

    def test_structure_is_validated_once_as_a_dfa(self, m2_muller):
        assert m2_muller.dfa == Dfa(
            AB, m2_muller.states, m2_muller.delta, m2_muller.initial, frozenset()
        )
        assert m2_muller.as_dfa(frozenset({"q1"})).accepting == frozenset({"q1"})
        assert "dfa" not in repr(m2_muller)

    def test_as_dfa_equals_the_public_construction(self, m2_muller):
        for accepting in (frozenset(), frozenset({"q1"}), frozenset({"q0", "q1"})):
            assert m2_muller.as_dfa(accepting) == Dfa(
                AB, m2_muller.states, m2_muller.delta, m2_muller.initial, accepting
            )
        assert m2_muller.dfa.accepting == frozenset()
        with pytest.raises(ValueError, match="accepting set contains unknown states"):
            m2_muller.as_dfa(frozenset({"q1", "ghost"}))

    def test_family_is_checked_before_the_transition_structure(self):
        with pytest.raises(ValueError, match="acceptance family mentions unknown states"):
            MullerAutomaton(AB, ("q0",), {}, "q0", frozenset({frozenset({"ghost"})}))
        with pytest.raises(ValueError, match=r"undefined on \('q0', 'a'\)"):
            MullerAutomaton(AB, ("q0",), {}, "q0", frozenset())

    def test_family_must_use_known_states(self):
        with pytest.raises(ValueError):
            MullerAutomaton(
                AB,
                ("q0",),
                {("q0", "a"): "q0", ("q0", "b"): "q0"},
                "q0",
                frozenset({frozenset({"ghost"})}),
            )


class TestBuchiUltper:
    def test_contains1_on_zeros(self, a_contains1):
        assert not buchi_accepts_ultper(a_contains1, "", "0")

    def test_contains1_on_alternation(self, a_contains1):
        assert buchi_accepts_ultper(a_contains1, "", "10")

    def test_stem_can_decide(self, a_contains1):
        assert buchi_accepts_ultper(a_contains1, "1", "0")

    @pytest.mark.parametrize("stem, loop", [("2", "0"), ("", "2"), ("1", "12")])
    def test_foreign_symbols_rejected(self, a_contains1, stem, loop):
        with pytest.raises(AlphabetMismatchError, match="'2'"):
            buchi_accepts_ultper(a_contains1, stem, loop)

    def test_dead_lock_never_accepts(self, a_only0):
        # the only accepting state has no cycle back to itself
        assert not buchi_accepts_ultper(a_only0, "", "0")

    def test_nondeterministic_run_choice(self):
        one = Alphabet(("a",))
        reachable_cycle = Nfa(
            one,
            ("u", "w"),
            frozenset({("u", "a", "u"), ("u", "a", "w"), ("w", "a", "w")}),
            frozenset({"u"}),
            frozenset({"w"}),
        )
        assert buchi_accepts_ultper(reachable_cycle, "", "a")
        # the accepting state is reachable but lies on no cycle
        no_cycle = Nfa(
            one,
            ("u", "w"),
            frozenset({("u", "a", "u"), ("u", "a", "w")}),
            frozenset({"u"}),
            frozenset({"w"}),
        )
        assert not buchi_accepts_ultper(no_cycle, "", "a")

    def test_agreement_with_limit_set_on_dfas(self):
        rng = random.Random(311)
        for _ in range(60):
            a = random_dfa(rng, max_states=6)
            u = random_word(rng, BINARY, 3)
            v = random_word(rng, BINARY, 3, min_len=1)
            expected = bool(limit_set_ultper(a, u, v) & a.accepting)
            assert buchi_accepts_ultper(a, u, v) == expected


class TestDerivedAutomata:
    def test_absorbing_accepting_language(self):
        rng = random.Random(313)
        star = sigma_star(BINARY)
        for _ in range(30):
            a = random_dfa(rng, max_states=5)
            expected = determinize(concatenate(a, star))
            assert equivalent(absorbing_accepting(a), expected)

    def test_absorbing_accepting_fixture(self, a_only0):
        b = absorbing_accepting(a_only0)
        assert b.accepts("01")
        assert b.accepts("0111")
        assert not b.accepts("1")

    def test_prepend_sigma_star_language(self):
        rng = random.Random(317)
        for _ in range(30):
            a = random_dfa(rng, max_states=4)
            b = prepend_sigma_star(a)
            for w in words_upto(BINARY, 5):
                expected = any(a.accepts(w[i:]) for i in range(len(w) + 1))
                assert b.accepts(w) == expected

    def test_prepend_sigma_star_fixture(self, a_only0):
        b = prepend_sigma_star(a_only0)
        assert b.accepts("10")
        assert b.accepts("0")
        assert not b.accepts("011")
        assert not b.accepts("")


class TestMullerViaBuchiQueries:
    def _decide(self, m: MullerAutomaton, u: str, v: str) -> bool:
        return muller_acceptance_via_buchi_queries(
            m, lambda d: buchi_accepts_ultper(d, u, v)
        )

    def test_fixture_examples(self, m2_muller):
        assert self._decide(m2_muller, "", "ab")
        assert not self._decide(m2_muller, "", "a")
        assert not self._decide(m2_muller, "b", "a")

    def test_agreement_with_direct_decision(self):
        rng = random.Random(331)
        for _ in range(80):
            m = random_muller(rng)
            u = random_word(rng, AB, 3)
            v = random_word(rng, AB, 3, min_len=1)
            assert self._decide(m, "".join(u), "".join(v)) == muller_accepts_ultper(m, u, v)


class TestMacrostateAutomaton:
    def test_full_macrostate_is_unreachable(self, m2_muller):
        d = macrostate_automaton(m2_muller, frozenset({"q0", "q1"}))
        # the image-set dynamics only ever hold singletons here
        assert d.accepting == frozenset()
        # ... even though the Muller automaton accepts a word with that limit set
        assert muller_accepts_ultper(m2_muller, "", "ab")

    def test_image_sets_are_singletons(self, m2_muller):
        d = macrostate_automaton(m2_muller, frozenset({"q0", "q1"}))
        assert all(len(q) == 1 for q in d.states)

    def test_singleton_macrostate_tracks_state(self, m2_muller):
        d = macrostate_automaton(m2_muller, frozenset({"q1"}))
        assert d.accepts("b")
        assert d.accepts("bb")
        assert d.accepts("ab")
        assert not d.accepts("a")
        assert not d.accepts("")
