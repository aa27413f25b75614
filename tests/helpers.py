"""Seeded random generators and the raise probe shared by the test modules."""

from __future__ import annotations

import random

import pytest

from realizability import Alphabet, Dfa, Nfa, Word

BINARY = Alphabet(("0", "1"))
ABC = Alphabet(("a", "b", "c"))


def random_dfa(
    rng: random.Random,
    max_states: int = 8,
    alphabet: Alphabet = BINARY,
    accept_p: float = 0.5,
    min_states: int = 1,
) -> Dfa:
    n = rng.randint(min_states, max_states)
    states = tuple(f"s{i}" for i in range(n))
    delta = {(q, a): states[rng.randrange(n)] for q in states for a in alphabet}
    accepting = frozenset(q for q in states if rng.random() < accept_p)
    return Dfa(alphabet, states, delta, states[0], accepting)


def random_nfa(
    rng: random.Random,
    max_states: int = 5,
    alphabet: Alphabet = BINARY,
    edge_p: float = 0.3,
    accept_p: float = 0.4,
) -> Nfa:
    n = rng.randint(1, max_states)
    states = tuple(f"n{i}" for i in range(n))
    transitions = frozenset(
        (p, a, q)
        for p in states
        for a in alphabet
        for q in states
        if rng.random() < edge_p
    )
    initials = frozenset({states[0]} | {q for q in states if rng.random() < 0.2})
    accepting = frozenset(q for q in states if rng.random() < accept_p)
    return Nfa(alphabet, states, transitions, initials, accepting)


def random_word(rng: random.Random, alphabet: Alphabet, max_len: int, min_len: int = 0) -> Word:
    n = rng.randint(min_len, max_len)
    return tuple(rng.choice(alphabet.symbols) for _ in range(n))


def failure(read) -> tuple[type, str]:
    """The type and message of the exception that ``read()`` raises."""
    with pytest.raises(Exception) as info:
        read()
    return info.type, str(info.value)
