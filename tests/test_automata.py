"""Core automata: construction, runs, Boolean algebra, shortlex search."""

from __future__ import annotations

import random
import re as _re

import pytest

from helpers import ABC, BINARY, failure, random_dfa, random_nfa, random_word
from realizability import (
    Alphabet,
    AlphabetMismatchError,
    Dfa,
    Nfa,
    as_word,
    complement,
    concatenate,
    dead_lock_states,
    determinize,
    difference,
    equivalent,
    intersect,
    is_empty,
    literal_dfa,
    reachable_states,
    regex_dfa,
    relabel_bfs,
    render_word,
    shortlex_smallest,
    sigma_star,
    sigma_star_prefix,
    star,
    union,
    with_initial,
    words_upto,
)
from realizability.automata import REGEX_NESTING_LIMIT, as_dfa, meets, nfa_of


def brute_language(a, max_len: int) -> set:
    return {w for w in words_upto(a.alphabet, max_len) if a.accepts(w)}


def pair_graph_meets(r: Nfa, d: Dfa) -> bool:
    """Is a pair of accepting states reachable in the product of r's moves and d's table?"""
    stack = [(p, d.initial) for p in r.initials]
    seen = set(stack)
    while stack:
        p, q = stack.pop()
        if p in r.accepting and q in d.accepting:
            return True
        for src, s, dst in r.transitions:
            pair = (dst, d.delta[(q, s)])
            if src == p and pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return False


class TestAlphabetAndWords:
    def test_of_and_membership(self):
        alph = Alphabet.of("ab")
        assert "a" in alph and "c" not in alph
        assert alph.index("b") == 1

    def test_index_rejects_foreign_symbol(self):
        with pytest.raises(AlphabetMismatchError):
            BINARY.index("x")

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_as_word_splits_strings(self):
        assert as_word("abc") == ("a", "b", "c")
        assert as_word(("ab", "c")) == ("ab", "c")

    def test_render_word_round_trip(self):
        assert render_word(("0", "1", "1")) == "011"
        assert render_word(("ab", "c")) == "ab c"
        assert render_word(()) == ""


class TestDfaBasics:
    def test_total_delta_required(self):
        with pytest.raises(ValueError):
            Dfa(BINARY, ("q",), {("q", "0"): "q"}, "q", frozenset())

    def test_initial_must_be_a_state(self):
        with pytest.raises(ValueError):
            Dfa(BINARY, ("q",), {("q", "0"): "q", ("q", "1"): "q"}, "r", frozenset())

    def test_accepting_subset_of_states(self):
        with pytest.raises(ValueError):
            Dfa(
                BINARY,
                ("q",),
                {("q", "0"): "q", ("q", "1"): "q"},
                "q",
                frozenset({"zz"}),
            )

    def test_run_and_visited_include_endpoints(self, a_contains1):
        assert a_contains1.run(as_word("01")) == "s1"
        assert a_contains1.visited(as_word("01")) == ["s0", "s0", "s1"]
        assert a_contains1.visited(()) == ["s0"]

    def test_accepts(self, a_contains1):
        assert a_contains1.accepts(as_word("001"))
        assert not a_contains1.accepts(as_word("000"))
        assert not a_contains1.accepts(())

    def test_run_rejects_foreign_symbol(self, a_contains1):
        with pytest.raises(AlphabetMismatchError):
            a_contains1.run(("x",))


class TestReachabilityAndDeadLocks:
    def test_reachable_states_bfs_order(self, a_only0):
        assert reachable_states(a_only0) == ["s0", "s1", "s2"]

    def test_dead_lock_states(self, a_only0):
        assert dead_lock_states(a_only0) == frozenset({"s2"})

    def test_no_dead_locks_when_accepting_absorbing(self, a_contains1):
        assert dead_lock_states(a_contains1) == frozenset()

    def test_all_dead_when_no_accepting(self):
        a = Dfa(BINARY, ("q",), {("q", "0"): "q", ("q", "1"): "q"}, "q", frozenset())
        assert dead_lock_states(a) == frozenset({"q"})

    def test_relabel_bfs_preserves_language_and_drops_unreachable(self):
        rng = random.Random(11)
        for _ in range(25):
            a = random_dfa(rng, max_states=6)
            b = relabel_bfs(a)
            assert set(b.states) <= {f"q{i}" for i in range(1, 7)}
            assert len(b.states) == len(reachable_states(a))
            assert equivalent(a, b)


class TestBooleanAlgebra:
    def test_product_ops_match_set_semantics(self):
        rng = random.Random(23)
        for _ in range(30):
            a = random_dfa(rng, max_states=5)
            b = random_dfa(rng, max_states=5)
            la, lb = brute_language(a, 5), brute_language(b, 5)
            assert brute_language(intersect(a, b), 5) == la & lb
            assert brute_language(union(a, b), 5) == la | lb
            assert brute_language(difference(a, b), 5) == la - lb

    def test_complement(self):
        rng = random.Random(5)
        a = random_dfa(rng, max_states=5)
        words = set(words_upto(BINARY, 5))
        assert brute_language(complement(a), 5) == words - brute_language(a, 5)

    def test_sigma_star_and_empty(self):
        assert brute_language(sigma_star(BINARY), 3) == set(words_upto(BINARY, 3))
        assert is_empty(Dfa(BINARY, ("q",), {("q", "0"): "q", ("q", "1"): "q"}, "q", frozenset()))

    def test_literal_dfa(self):
        d = literal_dfa("01", BINARY)
        assert brute_language(d, 4) == {("0", "1")}
        assert literal_dfa((), BINARY).accepts(())

    def test_alphabet_mismatch_raises(self, a_contains1):
        other = random_dfa(random.Random(0), alphabet=ABC)
        with pytest.raises(AlphabetMismatchError):
            intersect(a_contains1, other)

    def test_meets_matches_pair_graph_search(self):
        rng = random.Random(29)
        for alphabet in (BINARY, ABC):
            seen = set()
            for i in range(150):
                # accept_p 0 and 1 draw empty languages and ones accepting ε
                p = (0.0, 0.5, 1.0)[i % 3]
                d = random_dfa(rng, max_states=4, alphabet=alphabet, accept_p=rng.choice((0.0, 0.5, 1.0)))
                for r in (
                    random_dfa(rng, max_states=4, alphabet=alphabet, accept_p=p),
                    random_nfa(rng, max_states=4, alphabet=alphabet, accept_p=p),
                ):
                    expected = pair_graph_meets(nfa_of(r), d)
                    assert meets(r, d) == expected == (not is_empty(intersect(as_dfa(r), d))), (r, d)
                    seen.add(expected)
            assert seen == {False, True}, alphabet

    def test_meets_rejects_different_alphabets(self, a_contains1):
        other = random_dfa(random.Random(0), alphabet=ABC)
        for r in (other, nfa_of(other)):
            with pytest.raises(AlphabetMismatchError):
                meets(r, a_contains1)


class TestNfaAndDeterminize:
    def test_determinize_preserves_language(self):
        rng = random.Random(37)
        for _ in range(40):
            n = random_nfa(rng)
            d = determinize(n)
            for w in words_upto(BINARY, 5):
                assert d.accepts(w) == n.accepts(w)

    def test_concatenate_matches_set_concatenation(self):
        rng = random.Random(41)
        for _ in range(20):
            a = random_dfa(rng, max_states=4)
            b = random_dfa(rng, max_states=4)
            la, lb = brute_language(a, 4), brute_language(b, 4)
            expected = {u + v for u in la for v in lb if len(u + v) <= 4}
            got = {w for w in words_upto(BINARY, 4) if concatenate(a, b).accepts(w)}
            assert got == expected

    def test_star_matches_iterated_concatenation(self):
        rng = random.Random(43)
        for _ in range(20):
            a = random_dfa(rng, max_states=3)
            la = brute_language(a, 4)
            closure = {()}
            for _ in range(4):
                closure |= {u + v for u in closure for v in la if len(u + v) <= 4}
            got = {w for w in words_upto(BINARY, 4) if star(a).accepts(w)}
            assert got == closure

    def test_sigma_star_prefix_is_suffix_closure(self):
        rng = random.Random(47)
        for _ in range(20):
            a = random_dfa(rng, max_states=4)
            lifted = sigma_star_prefix(a)
            for w in words_upto(BINARY, 5):
                expected = any(a.accepts(w[i:]) for i in range(len(w) + 1))
                assert lifted.accepts(w) == expected


class TestShortlex:
    def test_shortlex_smallest_is_least(self):
        rng = random.Random(53)
        found_nonempty = 0
        for _ in range(40):
            a = random_dfa(rng, max_states=5)
            least = shortlex_smallest(a)
            lang = sorted(brute_language(a, 6), key=lambda w: (len(w), w))
            if least is None:
                assert not lang
            elif len(least) <= 6:
                found_nonempty += 1
                assert lang and lang[0] == least
        assert found_nonempty > 10

    def test_epsilon_when_initial_accepting(self):
        a = Dfa(BINARY, ("q",), {("q", "0"): "q", ("q", "1"): "q"}, "q", frozenset({"q"}))
        assert shortlex_smallest(a) == ()

    def test_on_nfa(self):
        rng = random.Random(59)
        for _ in range(20):
            n = random_nfa(rng)
            assert shortlex_smallest(n) == shortlex_smallest(determinize(n))

    def test_words_upto_is_shortlex_sorted(self):
        ws = list(words_upto(BINARY, 4))
        assert ws == sorted(ws, key=lambda w: (len(w), w))
        assert len(ws) == 2**5 - 1


class TestEquivalence:
    def test_equivalent_reflexive_and_discriminating(self, a_contains1, a_only0):
        assert equivalent(a_contains1, a_contains1)
        assert not equivalent(a_contains1, a_only0)

    def test_with_initial(self, a_only0):
        shifted = with_initial(a_only0, "s1")
        assert shifted.accepts(())
        assert not shifted.accepts(as_word("0"))


class TestRegex:
    @pytest.mark.parametrize(
        "pattern",
        ["0*", "(0|1)*1", "01|10", "1+0?", "((0|1)(0|1))*", ".*11.*", "", "0.1",
         "()", "|", "0|", "(0|)*1?", "(0*)*", "((01)?)+"],
    )
    def test_regex_matches_python_re(self, pattern):
        d = regex_dfa(pattern, BINARY)
        py = _re.compile(pattern.replace(".", "[01]") or "")
        for w in words_upto(BINARY, 6):
            assert d.accepts(w) == bool(py.fullmatch("".join(w))), (pattern, w)

    def test_regex_wildcard_over_three_symbols_matches_python_re(self):
        d = regex_dfa(".+", ABC)
        for w in words_upto(ABC, 6):
            assert d.accepts(w) == bool(_re.fullmatch("[abc]+", "".join(w))), w

    @pytest.mark.parametrize(("stacked", "grouped"), [("0?*", "(0?)*"), ("0**", "(0*)*")])
    def test_regex_stacked_quantifiers(self, stacked, grouped):
        assert equivalent(regex_dfa(stacked, BINARY), regex_dfa(grouped, BINARY))

    def test_regex_size_of_a_repeated_alternation(self):
        assert len(regex_dfa(".*(10|01)+.*", BINARY).states) <= 16

    def test_regex_size_of_a_long_chain(self):
        # one position per atom: a chain of n symbols needs n + 1 live states and a sink
        d = regex_dfa("0" * 200, BINARY)
        assert len(d.states) == 202
        assert d.accepts("0" * 200) and not d.accepts("0" * 199)

    def test_regex_nested_to_the_limit_matches_python_re(self):
        pattern = "(" * REGEX_NESTING_LIMIT + "0|1)*1" + ")" * (REGEX_NESTING_LIMIT - 1)
        d = regex_dfa(pattern, BINARY)
        for w in words_upto(BINARY, 6):
            assert d.accepts(w) == bool(_re.fullmatch(pattern, "".join(w))), w

    def test_regex_rejects_nesting_past_the_limit(self):
        deeper = "(" * (REGEX_NESTING_LIMIT + 1) + "0" + ")" * (REGEX_NESTING_LIMIT + 1)
        message = f"nested deeper than {REGEX_NESTING_LIMIT} at position {REGEX_NESTING_LIMIT}"
        with pytest.raises(ValueError, match=message):
            regex_dfa(deeper, BINARY)

    def test_regex_rejects_foreign_characters(self):
        with pytest.raises(ValueError):
            regex_dfa("0x", BINARY)

    def test_regex_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            regex_dfa("(01", BINARY)
        with pytest.raises(ValueError):
            regex_dfa("*", BINARY)


ONE_STATE = Dfa(BINARY, ("a",), {("a", "0"): "a", ("a", "1"): "a"}, "a", frozenset())
NO_STATES = frozenset()

# Raises that no other test reaches, each with its type and full message.
REACHABLE_RAISES = {
    "dfa duplicate states": (
        lambda: Dfa(BINARY, ("a", "a"), ONE_STATE.delta, "a", NO_STATES), ValueError, "duplicate states"
    ),
    "dfa unknown target": (
        lambda: Dfa(BINARY, ("a",), {("a", "0"): "a", ("a", "1"): "b"}, "a", NO_STATES),
        ValueError,
        "transition ('a', '1') leads to unknown state 'b'",
    ),
    "nfa duplicate states": (lambda: Nfa(BINARY, ("a", "a"), NO_STATES, NO_STATES, NO_STATES), ValueError, "duplicate states"),
    "nfa unknown initial": (
        lambda: Nfa(BINARY, ("a",), NO_STATES, frozenset({"b"}), NO_STATES), ValueError, "initial set contains unknown states"
    ),
    "nfa unknown accepting": (
        lambda: Nfa(BINARY, ("a",), NO_STATES, NO_STATES, frozenset({"b"})), ValueError, "accepting set contains unknown states"
    ),
    "nfa unknown state": (
        lambda: Nfa(BINARY, ("a",), frozenset({("a", "0", "b")}), NO_STATES, NO_STATES),
        ValueError,
        "transition ('a', '0', 'b') uses unknown states",
    ),
    "nfa unknown symbol": (
        lambda: Nfa(BINARY, ("a",), frozenset({("a", "2", "a")}), NO_STATES, NO_STATES),
        ValueError,
        "transition symbol '2' not in alphabet",
    ),
    "nfa step off the alphabet": (
        lambda: nfa_of(ONE_STATE).step_set(frozenset({"a"}), "2"),
        AlphabetMismatchError,
        "symbol '2' not in alphabet ('0', '1')",
    ),
    "unknown initial": (lambda: with_initial(ONE_STATE, "b"), ValueError, "state 'b' not among states"),
    "concatenation": (
        lambda: concatenate(ONE_STATE, sigma_star(ABC)),
        AlphabetMismatchError,
        "concatenation of automata over different alphabets",
    ),
}


@pytest.mark.parametrize("case", REACHABLE_RAISES.values(), ids=REACHABLE_RAISES)
def test_reachable_raise(case):
    build, *error = case
    assert failure(build) == tuple(error)
