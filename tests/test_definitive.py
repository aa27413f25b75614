"""Definitive words and the definitive language.

The language oracle used here is built independently of the implementation
under test: one automaton per start state, accepting exactly when the run
has passed an accepting-or-dead state, intersected over all start states.
"""

from __future__ import annotations

import random

import pytest

from helpers import ABC, BINARY, random_dfa, random_word
from realizability import (
    DefinitiveCertificate,
    Dfa,
    EndedDeadLock,
    PassedAccepting,
    Refutation,
    absorbing_accepting,
    as_word,
    dead_lock_states,
    definitive_language,
    definitive_witness,
    determinize,
    equivalent,
    find_definitive_word,
    intersect,
    is_definitive,
    is_empty,
    shortlex_smallest,
    sigma_star,
    with_initial,
    words_upto,
)
from realizability.definitive import definitive_fold


def oracle_definitive_language(a: Dfa) -> Dfa:
    """Intersection over start states of 'run has passed accepting or dead'."""
    dead = dead_lock_states(a)
    product = sigma_star(a.alphabet)
    for q in a.states:
        arm = Dfa(a.alphabet, a.states, a.delta, q, a.accepting | dead)
        product = intersect(product, absorbing_accepting(arm))
    return product


class TestIsDefinitive:
    def test_accepting_start_certifies_epsilon(self):
        a = Dfa(BINARY, ("q",), {("q", "0"): "q", ("q", "1"): "q"}, "q", frozenset({"q"}))
        cert = is_definitive(a, ())
        assert isinstance(cert, DefinitiveCertificate)
        assert cert.outcomes["q"] == PassedAccepting(0)

    def test_contains1_word_1(self, a_contains1):
        cert = is_definitive(a_contains1, "1")
        assert isinstance(cert, DefinitiveCertificate)
        assert cert.outcomes["s0"] == PassedAccepting(1)
        assert cert.outcomes["s1"] == PassedAccepting(0)

    def test_contains1_word_0_refuted(self, a_contains1):
        result = is_definitive(a_contains1, "0")
        assert result == Refutation("s0")

    def test_dead_lock_outcome(self, a_only0):
        cert = is_definitive(a_only0, "1")
        assert isinstance(cert, DefinitiveCertificate)
        assert cert.outcomes["s0"] == EndedDeadLock("s2")
        assert cert.outcomes["s1"] == PassedAccepting(0)
        assert cert.outcomes["s2"] == EndedDeadLock("s2")

    def test_word_checked_against_alphabet(self, a_contains1):
        from realizability import AlphabetMismatchError

        with pytest.raises(AlphabetMismatchError):
            is_definitive(a_contains1, "x")


class TestFindDefinitiveWord:
    def test_all_accepting_gives_epsilon(self):
        a = Dfa(BINARY, ("q",), {("q", "0"): "q", ("q", "1"): "q"}, "q", frozenset({"q"}))
        assert find_definitive_word(a) == ()

    def test_contains1(self, a_contains1):
        assert find_definitive_word(a_contains1) == ("1",)

    def test_only0(self, a_only0):
        w = find_definitive_word(a_only0)
        assert w == ("0",)
        assert isinstance(is_definitive(a_only0, w), DefinitiveCertificate)

    def test_random_always_certified(self):
        rng = random.Random(101)
        for _ in range(150):
            a = random_dfa(rng, max_states=8, alphabet=rng.choice([BINARY, ABC]))
            w = find_definitive_word(a)
            assert isinstance(is_definitive(a, w), DefinitiveCertificate)


def eager_definitive_word(a: Dfa) -> tuple[str, ...]:
    """Reference fold: a shortlex witness for every live state, computed up front."""
    dead = dead_lock_states(a)
    witness = {q: () if q in dead else shortlex_smallest(with_initial(a, q)) for q in a.states}
    word: tuple[str, ...] = ()
    for q in a.states:
        word = word + witness[a.run(word, start=q)]
    return word


class TestDefinitiveFold:
    @pytest.mark.parametrize("alphabet", [BINARY, ABC], ids=["01", "abc"])
    def test_lazy_fold_matches_eager_fold(self, alphabet):
        rng = random.Random(107)
        for _ in range(200):
            a = random_dfa(rng, max_states=8, alphabet=alphabet)
            assert find_definitive_word(a) == eager_definitive_word(a)

    def test_witnesses_only_for_landing_states(self):
        # s0 -0-> s1 -0-> s2, and 1 leads everywhere to the accepting s2: the
        # witness 1 of s0 already carries s1 into s2, so s1 is never asked
        delta = {("s0", "0"): "s1", ("s1", "0"): "s2", ("s2", "0"): "s2"}
        delta.update({(q, "1"): "s2" for q in ("s0", "s1", "s2")})
        a = Dfa(BINARY, ("s0", "s1", "s2"), delta, "s0", frozenset({"s2"}))
        asked: list[str] = []

        def witness(q):
            asked.append(q)
            return shortlex_smallest(with_initial(a, q))

        word = definitive_fold(a.states, frozenset().__contains__, lambda w, q: a.run(w, start=q), witness)
        assert word == ("1",)
        assert asked == ["s0", "s2", "s2"]


class TestDefinitiveLanguage:
    def test_all_accepting_gives_sigma_star(self):
        a = Dfa(BINARY, ("q",), {("q", "0"): "q", ("q", "1"): "q"}, "q", frozenset({"q"}))
        assert equivalent(definitive_language(a), sigma_star(BINARY))

    def test_contains1_language_is_words_with_a_1(self, a_contains1):
        lang = definitive_language(a_contains1)
        for w in words_upto(BINARY, 4):
            assert lang.accepts(w) == ("1" in w)

    def test_matches_oracle_construction(self):
        rng = random.Random(103)
        for _ in range(40):
            a = random_dfa(rng, max_states=5)
            assert equivalent(definitive_language(a), oracle_definitive_language(a))

    def test_membership_iff_certificate(self):
        rng = random.Random(107)
        for _ in range(25):
            a = random_dfa(rng, max_states=5)
            lang = definitive_language(a)
            for w in words_upto(BINARY, 5):
                member = lang.accepts(w)
                certified = isinstance(is_definitive(a, w), DefinitiveCertificate)
                assert member == certified

    def test_never_empty(self):
        rng = random.Random(109)
        for _ in range(60):
            a = random_dfa(rng, max_states=6)
            assert not is_empty(definitive_language(a))

    def test_extension_property(self):
        rng = random.Random(113)
        for _ in range(40):
            a = random_dfa(rng, max_states=5)
            w = find_definitive_word(a)
            u = random_word(rng, BINARY, 4)
            v = random_word(rng, BINARY, 4)
            assert isinstance(is_definitive(a, u + w + v), DefinitiveCertificate)


class TestDefinitiveWitness:
    def test_witness_is_shortlex_least_member(self):
        rng = random.Random(127)
        for _ in range(30):
            a = random_dfa(rng, max_states=5)
            witness = definitive_witness(a)
            assert witness is not None
            assert witness == shortlex_smallest(definitive_language(a))
            assert isinstance(is_definitive(a, witness), DefinitiveCertificate)

    def test_witness_on_fixture(self, a_contains1):
        assert definitive_witness(a_contains1) == ("1",)
