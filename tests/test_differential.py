"""The library's fast paths against the benchmark's independent reference.

``bench/reference.py`` steps its own transition tables and computes its own
reverse-BFS dead-locks and limit sets without importing the library, so a
defect in a library construction cannot hide in its own check.  The bench
modules are imported in place; nothing here edits them.  Each case draws
seeded ``helpers.random_dfa`` automata over ``01`` and ``abc`` and hands the
reference the same automaton as an ``inputs.Table``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import inputs  # noqa: E402
import reference  # noqa: E402
from helpers import ABC, BINARY, random_dfa  # noqa: E402
from realizability import (  # noqa: E402
    Dfa,
    MullerAutomaton,
    buchi_accepts_ultper,
    dead_lock_states,
    limit_set_ultper,
    muller_accepts_ultper,
    reachable_states,
    relabel_bfs,
)
from realizability.automata import nfa_of  # noqa: E402

ALPHABETS = pytest.mark.parametrize("alphabet", [BINARY, ABC], ids=["01", "abc"])
DRAWS = 200


def as_table(a: Dfa) -> inputs.Table:
    """The reference's view of a ``random_dfa`` draw: state ``s<i>`` is ``i``."""
    symbols = "".join(a.alphabet.symbols)
    trans = tuple(tuple(int(a.delta[q, s][1:]) for s in symbols) for q in a.states)
    return inputs.Table(symbols, trans, frozenset(int(q[1:]) for q in a.accepting))


def draws(seed: int, alphabet):
    rng = random.Random(seed)
    for _ in range(DRAWS):
        a = random_dfa(rng, max_states=6, alphabet=alphabet)
        yield rng, a, as_table(a)


def names(states) -> frozenset[str]:
    return frozenset(f"s{q}" for q in states)


@ALPHABETS
def test_limit_sets_and_muller_acceptance(alphabet):
    for rng, a, t in draws(901, alphabet):
        m = MullerAutomaton(a.alphabet, a.states, a.delta, a.initial, frozenset())
        for _ in range(5):
            stem, loop = inputs.random_lasso(rng, t.symbols)
            expected = reference.limit_set(t, stem, loop)
            assert limit_set_ultper(a, stem, loop) == names(expected)
            assert limit_set_ultper(m, stem, loop) == names(expected)
            family = inputs.random_family(rng, t.n)
            muller = MullerAutomaton(
                a.alphabet, a.states, a.delta, a.initial, frozenset(map(names, family))
            )
            assert muller_accepts_ultper(muller, stem, loop) is (expected in family)


@ALPHABETS
def test_buchi_acceptance_of_a_dfa(alphabet):
    # the Dfa path reads the limit set; the Nfa view of the same automaton
    # still searches the lasso graph
    for rng, a, t in draws(904, alphabet):
        for _ in range(5):
            stem, loop = inputs.random_lasso(rng, t.symbols)
            expected = not reference.limit_set(t, stem, loop).isdisjoint(t.accepting)
            assert buchi_accepts_ultper(a, stem, loop) is expected
            assert buchi_accepts_ultper(nfa_of(a), stem, loop) is expected


@ALPHABETS
def test_dead_lock_states(alphabet):
    for _rng, a, t in draws(902, alphabet):
        assert dead_lock_states(a) == names(reference.table_dead(t))


@ALPHABETS
def test_reachable_states_and_relabelling(alphabet):
    for _rng, a, t in draws(903, alphabet):
        # in shortlex order, the first word reaching each state lists the
        # states in breadth-first order; n - 1 symbols reach every one of them
        first_reached: dict[int, None] = {}
        for w in reference.words_upto(t.symbols, t.n - 1):
            q = 0
            for s in w:
                q = t.step(q, s)
            first_reached.setdefault(q)
        assert reachable_states(a) == [f"s{q}" for q in first_reached]
        b = relabel_bfs(a)
        assert b.states == tuple(f"q{i}" for i in range(1, len(first_reached) + 1))
        for w in reference.words_upto(t.symbols, 6):
            assert b.accepts(w) is reference.accepts(t, w)
