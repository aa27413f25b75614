"""Definitive words and the definitive language of a deterministic automaton.

A word w is definitive for an automaton when, reading w from *any* state,
the run either passes through an accepting state (endpoints included) or
ends in a dead-lock state, i.e. a state from which no accepting state is
reachable.  After such a word the automaton's answer on every continuation
is already determined per start state, which is what makes fuel-free
decisions against sufficiently rich infinite words possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .automata import (
    Dfa,
    State,
    Symbol,
    Word,
    as_word,
    dead_lock_states,
    explore,
    relabel_bfs,
    shortlex_search,
)


@dataclass(frozen=True, init=False)
class PassedAccepting:
    """Outcome of one start state: an accepting state was visited at this position.

    Position counts symbols read; 0 means the start state itself is accepting.
    """

    position: int

    def __init__(self, position):
        vars(self).update(position=position)


@dataclass(frozen=True, init=False)
class EndedDeadLock:
    """Outcome of one start state: the run finished inside this dead-lock state."""

    state: State

    def __init__(self, state):
        vars(self).update(state=state)


Outcome = PassedAccepting | EndedDeadLock


@dataclass(frozen=True, init=False)
class DefinitiveCertificate:
    """A definitive word together with the per-start-state evidence."""

    word: Word
    outcomes: dict[State, Outcome]

    def __init__(self, word, outcomes):
        vars(self).update(word=word, outcomes=outcomes)


@dataclass(frozen=True, init=False)
class Refutation:
    """A start state whose run neither passes accepting nor ends dead-locked."""

    state: State

    def __init__(self, state):
        vars(self).update(state=state)


def is_definitive(a: Dfa, w: Word | str) -> DefinitiveCertificate | Refutation:
    """Check the definitive-word condition from every start state.

    Returns a certificate on success and a ``Refutation`` naming a violating
    start state otherwise.
    """
    word = as_word(w)
    dead = dead_lock_states(a)
    outcomes: dict[State, Outcome] = {}
    for start in a.states:
        q = start
        hit = None
        if q in a.accepting:
            hit = 0
        else:
            for i, s in enumerate(word, start=1):
                q = a.step(q, s)
                if q in a.accepting:
                    hit = i
                    break
        if hit is not None:
            outcomes[start] = PassedAccepting(hit)
        elif q in dead:
            outcomes[start] = EndedDeadLock(q)
        else:
            return Refutation(start)
    return DefinitiveCertificate(word, outcomes)


def definitive_fold(
    states: Iterable[State],
    is_dead: Callable[[State], bool],
    run: Callable[[tuple, State], State],
    witness: Callable[[State], tuple],
) -> tuple:
    """Stitch per-state accepting witnesses into one definitive word.

    Iterates over the states in order.  At each step the word built so far
    is replayed from the next start state with ``run``; the ``witness`` of
    the state it lands in is appended, unless ``is_dead`` says that state is
    dead-locked.  The result handles every start state by construction, and
    witnesses and dead-lock status are asked for only the states the fold
    lands in.
    """
    word: tuple = ()
    for q in states:
        landing = run(word, q)
        if not is_dead(landing):
            word = word + witness(landing)
    return word


def find_definitive_word(a: Dfa) -> Word:
    """Construct a definitive word by folding shortlex-least accepting witnesses.

    The witness of a state that is not dead-locked is the shortlex-least word
    driving it into an accepting state, which exists by definition.
    """
    return _definitive_word(a, dead_lock_states(a).__contains__)


def _definitive_word(a: Dfa, is_dead: Callable[[State], bool]) -> Word:
    """``find_definitive_word(a)`` given the dead-lock test of ``a``."""
    return definitive_fold(
        a.states,
        is_dead,
        lambda word, q: a.run(word, start=q),
        lambda q: shortlex_search(a.alphabet, q, a.accepting.__contains__, lambda p, s: a.delta[p, s]),
    )


def _absorption(a: Dfa) -> tuple[tuple, Callable[[tuple, Symbol], tuple], Callable[[tuple], bool]]:
    """Start vector, step and fully-absorbed test of the product of absorbed
    copies of ``a`` that ``definitive_witness`` describes."""
    target = a.accepting | dead_lock_states(a)
    done = object()

    def absorb(q: State):
        return done if q in target else q

    def step(vec: tuple, s: Symbol) -> tuple:
        return tuple(c if c is done else absorb(a.delta[(c, s)]) for c in vec)

    return tuple(absorb(q) for q in a.states), step, lambda vec: all(c is done for c in vec)


def definitive_witness(a: Dfa) -> Word | None:
    """Shortlex-least definitive word, without materializing the language.

    Breadth-first search over the product of accept-or-dead absorbed copies:
    one copy runs from every state, and a component is absorbed (marked
    done) as soon as it touches an accepting or dead-lock state.  The first
    fully absorbed vector is reached by the shortlex-least definitive word.
    Returns None only if no definitive word exists, which cannot happen for
    total automata (every automaton admits one), but the search is honest
    anyway.
    """
    initial, step, absorbed = _absorption(a)
    return shortlex_search(a.alphabet, initial, absorbed, step)


def definitive_language(a: Dfa) -> Dfa:
    """Automaton accepting exactly the definitive words of ``a``.

    Built as the intersection over all start states q of the languages
    "the run from q passes accepting-or-dead-lock", each realized by a copy
    started at q whose component is absorbed once it touches those states.
    The product is explored on reachable absorption vectors only and
    relabeled breadth-first.
    """
    initial, step, absorbed = _absorption(a)
    order, delta = explore(a.alphabet, initial, step)
    accepting = frozenset(vec for vec in order if absorbed(vec))
    product = Dfa(a.alphabet, order, delta, initial, accepting)
    return relabel_bfs(product, prefix="d", start=0)
