"""Acceptance of ultimately periodic words by omega-automata.

A Buchi automaton is an Nfa read with omega-semantics (some run visits an
accepting state infinitely often).  A Muller automaton is a Dfa plus an
acceptance family of state sets: it accepts when the set of states its run
visits infinitely often is a member of the family; every run steps that
Dfa.  On an ultimately periodic word ``u v^omega`` both conditions reduce to
finite cycle analysis, so the deciders here are exact.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Mapping

from .automata import (
    Alphabet,
    Automaton,
    Dfa,
    State,
    Symbol,
    Word,
    _check_word,
    _reach,
    _subset_step,
    as_word,
    determinize,
    explore,
    sigma_star_prefix,
)


@dataclass(frozen=True, init=False)
class MullerAutomaton:
    """Deterministic transition structure plus a family of macrostates.

    A macrostate is a set of states; the automaton accepts an infinite word
    when the limit set of its unique run equals one of the family members.
    The transition structure is validated once, as the ``dfa`` field (a Dfa
    with no accepting states), and every run steps that Dfa.
    """

    alphabet: Alphabet
    states: tuple[State, ...]
    delta: Mapping[tuple[State, Symbol], State]
    initial: State
    acceptance_family: frozenset[frozenset[State]]
    dfa: Dfa = field(init=False, repr=False, compare=False)

    def __init__(self, alphabet, states, delta, initial, acceptance_family):
        vars(self).update(alphabet=alphabet, states=states, delta=delta, initial=initial,
                          acceptance_family=acceptance_family)
        self.__post_init__()

    def __post_init__(self) -> None:
        state_set = set(self.states)
        for member in self.acceptance_family:
            if not member <= state_set:
                raise ValueError("acceptance family mentions unknown states")
        dfa = Dfa(self.alphabet, self.states, self.delta, self.initial, frozenset())
        object.__setattr__(self, "dfa", dfa)

    def as_dfa(self, accepting: frozenset[State]) -> Dfa:
        """The same transition structure read as a Dfa with the given accepting set.

        Only the accepting set is new; the rest was validated as ``dfa``.
        """
        accepting = frozenset(accepting)
        if not accepting.issubset(self.states):
            raise ValueError("accepting set contains unknown states")
        dfa = copy(self.dfa)
        object.__setattr__(dfa, "accepting", accepting)
        return dfa


def _check_ultper(u: Word | str, v: Word | str) -> tuple[Word, Word]:
    stem, loop = as_word(u), as_word(v)
    if not loop:
        raise ValueError("periodic part must be non-empty")
    return stem, loop


def limit_set_ultper(m: MullerAutomaton | Dfa, u: Word | str, v: Word | str) -> frozenset[State]:
    """States visited infinitely often by the unique run on ``u v^omega``."""
    stem, loop = _check_ultper(u, v)
    d = m.dfa if isinstance(m, MullerAutomaton) else m
    # checked once, so the validated transition table is read directly
    _check_word(d.alphabet, stem + loop)
    delta = d.delta
    q = d.initial
    for s in stem:
        q = delta[q, s]
    # iterate whole-period steps until a state repeats at period boundaries
    boundary_order = [q]
    first_seen = {q: 0}
    while True:
        for s in loop:
            q = delta[q, s]
        if q in first_seen:
            cycle_start = first_seen[q]
            break
        first_seen[q] = len(boundary_order)
        boundary_order.append(q)
    limit: set[State] = set()
    for q in boundary_order[cycle_start:]:
        for s in loop:
            q = delta[q, s]
            limit.add(q)
    return frozenset(limit)


def muller_accepts_ultper(m: MullerAutomaton, u: Word | str, v: Word | str) -> bool:
    return limit_set_ultper(m, u, v) in m.acceptance_family


def buchi_accepts_ultper(b: Automaton, u: Word | str, v: Word | str) -> bool:
    """Does some run on ``u v^omega`` visit an accepting state infinitely often?

    A Dfa has one run, which accepts when its limit set meets the accepting
    set.  Otherwise this works on the lasso graph whose nodes are (state,
    position in v), entered from the state set the stem reaches: an accepting
    node in the breadth-first closure of those entries that also lies in the
    closure of its own successors (so on a cycle) witnesses acceptance.
    """
    if isinstance(b, Dfa):
        return not limit_set_ultper(b, u, v).isdisjoint(b.accepting)
    stem, loop = _check_ultper(u, v)
    _check_word(b.alphabet, stem + loop)
    step, period = _subset_step(b), len(loop)

    def successors(node: tuple[State, int]) -> list[tuple[State, int]]:
        q, i = node
        return [(r, (i + 1) % period) for r in step(frozenset({q}), loop[i])]

    reachable = _reach([(q, 0) for q in reduce(step, stem, b.initials)], successors)
    return any(t in _reach(successors(t), successors) for t in reachable if t[0] in b.accepting)


def absorbing_accepting(a: Dfa) -> Dfa:
    """Make every accepting state absorbing; the result accepts L(a) Sigma*."""
    delta = dict(a.delta)
    for q in a.accepting:
        for s in a.alphabet:
            delta[(q, s)] = q
    return Dfa(a.alphabet, a.states, delta, a.initial, a.accepting)


def prepend_sigma_star(a: Automaton) -> Dfa:
    """Deterministic automaton for Sigma* L(a) (factor queries as prefix queries)."""
    return determinize(sigma_star_prefix(a))


def muller_acceptance_via_buchi_queries(
    m: MullerAutomaton, infinitely_often: Callable[[Dfa], bool]
) -> bool:
    """Decide Muller acceptance from per-state infinite-occurrence queries.

    ``infinitely_often(d)`` must answer whether the fixed infinite word under
    consideration has infinitely many prefixes in L(d).  Querying the
    transition structure once per state with that state as the only accepting
    one recovers the limit set exactly, which is then compared against the
    acceptance family.
    """
    limit = frozenset(q for q in m.states if infinitely_often(m.as_dfa(frozenset({q}))))
    return limit in m.acceptance_family


def macrostate_automaton(m: MullerAutomaton, macro: frozenset[State]) -> Dfa:
    """Deterministic image-set automaton over subsets of m.states.

    The step takes a subset to its image under the symbol.  The only
    accepting state is the macrostate itself.  This construction narrows a
    subset only when states merge, so it generally cannot observe the limit
    set of the run; it is kept for study and for the counterexample tests.
    """
    initial = frozenset({m.initial})
    order, delta = explore(
        m.alphabet, initial, lambda current, s: frozenset(m.delta[(q, s)] for q in current)
    )
    accepting = frozenset({macro}) if macro in order else frozenset()
    return Dfa(m.alphabet, order, delta, initial, accepting)
