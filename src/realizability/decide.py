"""Fuel-bounded deciders for prefix membership along an infinite word.

Every decider in the package runs one resolution kernel, ``_resolve``: an
automaton is stepped along a finite stretch of the word until it passes an
accepting state (Yes), enters a dead-lock state (No), or the stretch ends
(FuelExhausted).  ``decide_prefix`` feeds it a deterministic automaton's
successor function and the first ``fuel`` symbols; the effective and
diagonal-word deciders feed it their own.  The kernel walks rows: one dict
per state visited, keyed by symbol, holding the successor's row and built
on first use, so each step is one dict lookup.  The accepted-prefix count
and the brute-force scan step the same rows.  Against a
factor-universal word both resolutions arrive no later than the occurrence
bound of a definitive word of the automaton that is stepped.  With
``fuel=None`` every decider is total: it reads the first ``_WINDOW`` symbols
without a bound, and only a run that reads past them derives that bound and
runs on to it.  ``Fuel.of`` holds the one budget rule, and every decider
applies it first.

``decide_buchi`` answers whether infinitely many prefixes are in the
language: it runs the prefix decider on the variant automaton whose
accepting set is the dead-lock set of the original and negates the answer
with ``_negated``, and so derives the variant's fuel.  A Yes there means the
original run is trapped away from accepting states (finitely many hits); a
No means it never will be (infinitely many).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

from .automata import AlphabetMismatchError, Dfa, State, dead_lock_states
from .definitive import _definitive_word
from .words import IndexedInfiniteWord, InfiniteWord

YES = "Yes"
NO = "No"

_WINDOW = 4096  # symbols a fuel-free run reads before it derives its occurrence bound


@dataclass(frozen=True, init=False)
class Fuel:
    """Positive simulation budget, counted in symbols read."""

    max_steps: int

    def __init__(self, max_steps):
        vars(self).update(max_steps=max_steps)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.max_steps, int) or isinstance(self.max_steps, bool):
            raise TypeError(f"fuel must be an int, not {type(self.max_steps).__name__}")
        if self.max_steps <= 0:
            raise ValueError("fuel must be positive")

    @classmethod
    def of(cls, fuel: "Fuel | int | None") -> "Fuel | None":
        """The budget a decider runs with: ``None`` (derive the occurrence
        bound), a ``Fuel`` as it is, or an int checked by ``Fuel``.  Every
        decider calls this first, so a bad budget is reported before an
        alphabet mismatch and before any closure, reduction or variant."""
        return fuel if fuel is None or isinstance(fuel, Fuel) else cls(fuel)


@dataclass(frozen=True, init=False)
class Verdict:
    """Decision outcome with its evidence position.

    For Yes the evidence is the least prefix length at which the simulation
    visited an accepting state; for No it is the position at which it
    entered a dead-lock (0 means the initial state already decided it).
    """

    answer: str
    evidence: int
    steps_used: int

    def __init__(self, answer, evidence, steps_used):
        vars(self).update(answer=answer, evidence=evidence, steps_used=steps_used)


@dataclass(frozen=True, init=False)
class FuelExhausted:
    """The simulation consumed its budget without resolving."""

    steps_used: int

    def __init__(self, steps_used):
        vars(self).update(steps_used=steps_used)


Outcome = Verdict | FuelExhausted


def _check_same_alphabet(a: Dfa, w: InfiniteWord) -> None:
    if a.alphabet != w.alphabet:
        raise AlphabetMismatchError(
            f"automaton alphabet {a.alphabet.symbols} differs from word alphabet {w.alphabet.symbols}"
        )


def _occurrence_fuel(w: InfiniteWord | IndexedInfiniteWord, word: tuple) -> Fuel:
    """Fuel that resolves the run along ``w`` of any automaton that has ``word`` as a definitive word."""
    if w.occurrence_bound is None:
        raise ValueError("word carries no occurrence bound; pass fuel explicitly")
    return Fuel(max(1, w.occurrence_bound(word)))


class _Rows(dict):
    """One run's rows by state.  ``row(q)`` builds the row of a state on its
    first visit; its ``code`` is 1 if accepting, else 2 if ``is_dead(q)``, else 0."""

    __slots__ = ("successor", "accepting", "is_dead")

    def __init__(self, successor: Callable[[State, object], State], accepting: frozenset, is_dead: Callable):
        self.successor, self.accepting, self.is_dead = successor, accepting, is_dead

    def row(self, q: State) -> "_Row":
        row = self[q] = _Row()
        row.state, row.rows = q, self
        row.code = 1 if q in self.accepting else 2 if self.is_dead(q) else 0
        return row


class _Row(dict):
    """``row[s]`` is the row of the state reached from ``row.state`` on ``s``;
    a symbol first read asks the successor function once, so a run pays for
    the transitions it takes, not for a table."""

    __slots__ = ("state", "code", "rows")

    def __missing__(self, s: object) -> "_Row":
        rows = self.rows
        q = rows.successor(self.state, s)
        row = self[s] = rows[q] if q in rows else rows.row(q)
        return row


def _dead_on_demand(a: Dfa) -> Callable[[State], bool]:
    """``is_dead`` for ``a``; the dead-lock set is computed on the first call."""
    memo: dict[str, frozenset] = {}
    return lambda q: q in (memo["dead"] if memo else memo.setdefault("dead", dead_lock_states(a)))


def _resolve(
    successor: Callable[[State, object], State],
    q: State,
    symbols: Iterable,
    accepting: frozenset[State],
    is_dead: Callable[[State], bool],
    on_step: Callable[[int, State], None] | None = None,
) -> Outcome:
    """Run from ``q`` along ``symbols`` until accept, dead-lock, or their end.

    ``successor(state, symbol)`` is the next state; each transition taken
    is asked for once, and ``is_dead`` once per state, on its first visit.
    ``on_step(position, state)`` is called for position 0 (the start state)
    and after every symbol read, before the verdict checks.  Running out of
    symbols is reported as ``FuelExhausted`` with the number read.
    """
    row = _Rows(successor, accepting, is_dead).row(q)
    if on_step is not None:
        on_step(0, q)
    n = 0
    if not row.code:
        for n, s in enumerate(symbols, start=1):
            row = row[s]
            if on_step is not None:
                on_step(n, row.state)
            if row.code:
                break
        else:
            return FuelExhausted(n)
    return Verdict(YES if row.code == 1 else NO, n, n)


def _stretch(w: InfiniteWord | IndexedInfiniteWord, fuel: Fuel | None, definitive: Callable[[], tuple]) -> Iterator:
    """The first ``fuel`` symbols of ``w``.  With ``fuel=None``, the budget is
    the occurrence bound of the definitive word ``definitive()``, derived only
    past the first ``_WINDOW`` symbols; the bound is sound, so no run that
    resolves reads differently.  No run reaches ``sys.maxsize`` symbols, the
    most ``islice`` takes, so a larger budget is cut to it."""
    symbols = w.iter_from(1)
    if fuel is not None:
        return islice(symbols, min(fuel.max_steps, sys.maxsize))
    if w.occurrence_bound is None:
        raise ValueError("word carries no occurrence bound; pass fuel explicitly")

    def parts() -> Iterator[Iterator]:  # chain asks for the second part only once the first runs out
        yield islice(symbols, _WINDOW)
        budget = _occurrence_fuel(w, definitive()).max_steps
        yield islice(symbols, min(max(budget - _WINDOW, 0), sys.maxsize))

    return chain.from_iterable(parts())


def _negated(outcome: Outcome) -> Outcome:
    """Swap Yes and No, keeping the evidence; FuelExhausted passes through."""
    if isinstance(outcome, FuelExhausted):
        return outcome
    return Verdict(NO if outcome.answer == YES else YES, outcome.evidence, outcome.steps_used)


def decide_prefix(
    a: Dfa,
    w: InfiniteWord,
    fuel: Fuel | int | None = None,
    on_step: Callable[[int, object], None] | None = None,
) -> Outcome:
    """Does L(a) contain a prefix of w?  Resolution by accept or dead-lock.

    ``fuel=None`` is the occurrence bound of ``find_definitive_word(a)``,
    derived only for a run that outlives the first ``_WINDOW`` symbols.
    ``on_step(position, state)`` is called for position 0 (initial state)
    and after every symbol read, before the verdict checks.
    """
    fuel = Fuel.of(fuel)
    _check_same_alphabet(a, w)
    is_dead = _dead_on_demand(a)
    symbols = _stretch(w, fuel, lambda: _definitive_word(a, is_dead))
    return _resolve(a.step, a.initial, symbols, a.accepting, is_dead, on_step)


def deadlock_accepting_variant(a: Dfa) -> Dfa:
    """Same transition structure, accepting exactly the dead-lock states of a."""
    return Dfa(a.alphabet, a.states, a.delta, a.initial, dead_lock_states(a))


def decide_buchi(
    a: Dfa,
    w: InfiniteWord,
    fuel: Fuel | int | None = None,
    on_step: Callable[[int, object], None] | None = None,
) -> Outcome:
    """Does L(a) contain infinitely many prefixes of w?

    The run of ``a`` eventually commits: either it enters a dead-lock of
    ``a`` (finitely many accepted prefixes from then on) or it reaches a
    state from which dead-locks are unreachable (accepting states stay
    reachable forever, and a factor-universal word realizes them forever).
    Both events are exactly the resolutions of the prefix decider on the
    dead-lock-accepting variant, so its answer is negated; ``fuel=None`` is the variant's bound.
    """
    fuel = Fuel.of(fuel)
    _check_same_alphabet(a, w)
    return _negated(decide_prefix(deadlock_accepting_variant(a), w, fuel, on_step))


def brute_force_prefix_check(a: Dfa, w: InfiniteWord, upto: int) -> int | None:
    """Oracle: least n <= upto with W[1, n] accepted, by plain incremental scan."""
    _check_same_alphabet(a, w)
    row = _Rows(a.step, a.accepting, frozenset().__contains__).row(a.initial)
    if row.code:
        return 0
    symbols = w.iter_from(1)
    for n, s in enumerate(islice(symbols, max(upto, 0)), start=1):
        row = row[s]
        if row.code:
            return n
    next(symbols)  # the scan reads the symbol past its window before it gives up
    return None


def count_accepted_prefixes(a: Dfa, w: InfiniteWord, upto: int) -> int:
    """How many n in [0, upto] have W[1, n] accepted."""
    _check_same_alphabet(a, w)
    row = _Rows(a.step, a.accepting, frozenset().__contains__).row(a.initial)
    total = row.code  # 1 exactly when accepting, since no state is marked dead
    for s in islice(w.iter_from(1), max(upto, 0)):
        row = row[s]
        total += row.code
    return total
