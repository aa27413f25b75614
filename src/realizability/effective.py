"""Effective automata over the countable indexed alphabet a_1, a_2, ...

An effective automaton has finitely many states, a computable transition
function ``delta(index, state)``, and a decidable transition-existence
predicate ``exists_transition(p, q)`` ("is there some index moving p to
q?").  Existence decidability is what makes dead-lock analysis, and with it
prefix realizability along factor-universal indexed words, decidable even
though the alphabet is infinite.

The module also contains the reduction that turns a deterministic automaton
over a finite alphabet plus an effective morphism into an effective
automaton whose prefix decisions agree with prefix decisions of the
original automaton on the morphism image of the indexed word.  States are
augmented with one bit recording whether the last image crossed an
accepting state (endpoints included); the bit is not sticky, which is
enough because a Yes is declared at the first visit of a bit-1 state.
Transition existence asks the image-language oracle about one flag product
(state, passed-accepting bit) per source state, with the target as its accepting pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations
from math import gcd
from typing import Callable, NamedTuple

from .automata import (
    Alphabet,
    AlphabetMismatchError,
    Automaton,
    Dfa,
    State,
    Symbol,
    Word,
    _reach,
    as_dfa,
    explore,
    meets,
    regex_dfa,
    shortlex_search,
)
from .decide import Fuel, Outcome, _negated, _occurrence_fuel, _resolve, _stretch
from .definitive import definitive_fold
from .textio import FormatError, _sections, _tokenized
from .words import EffectiveMorphism, IndexedInfiniteWord


@dataclass(frozen=True, init=False)
class EffectiveAutomaton:
    states: tuple[State, ...]
    delta: Callable[[int, State], State]
    exists_transition: Callable[[State, State], bool]
    initial: State
    accepting: frozenset[State]

    def __init__(self, states, delta, exists_transition, initial, accepting):
        vars(self).update(states=states, delta=delta, exists_transition=exists_transition, initial=initial,
                          accepting=accepting)
        self.__post_init__()

    def __post_init__(self) -> None:
        state_set = set(self.states)
        if self.initial not in state_set:
            raise ValueError("initial state unknown")
        if not self.accepting <= state_set:
            raise ValueError("accepting set contains unknown states")

    def with_accepting(self, accepting: frozenset[State]) -> "EffectiveAutomaton":
        return EffectiveAutomaton(self.states, self.delta, self.exists_transition, self.initial, accepting)


def delta_relation(ea: EffectiveAutomaton, source: frozenset[State]) -> frozenset[State]:
    """One-step successor set under the transition-existence relation."""
    return frozenset(q for q in ea.states if any(ea.exists_transition(p, q) for p in source))


def reachable_closure(ea: EffectiveAutomaton, source: frozenset[State]) -> frozenset[State]:
    """Least superset of ``source`` closed under the successor relation."""
    return frozenset(_reach(source, lambda p: [q for q in ea.states if ea.exists_transition(p, q)]))


def effective_dead_locks(ea: EffectiveAutomaton) -> frozenset[State]:
    """States from which no accepting state is reachable (including themselves).

    One backward worklist from the accepting set: a state is alive once it has a
    transition into an alive state, so the predicate is asked once per ordered pair.
    """
    alive = set(ea.accepting)
    order = [q for q in ea.states if q in alive]
    for q in order:  # appending while iterating makes the list a FIFO queue
        for p in ea.states:
            if p not in alive and ea.exists_transition(p, q):
                alive.add(p)
                order.append(p)
    return frozenset(q for q in ea.states if q not in alive)


def _dead_lock_status(ea: EffectiveAutomaton) -> Callable[[State], bool]:
    """``q in effective_dead_locks(ea)``, decided on first ask and remembered.

    A forward search from q along the existence predicate tries accepting
    targets first and never asks about a known dead-lock.  It stops at the
    first accepting or known-alive state: q and its path there are alive.
    A search that stops nowhere makes q and every state it reached dead-locks.
    """
    known = dict.fromkeys(ea.accepting, False)  # state -> is it a dead-lock?
    targets = sorted(ea.states, key=ea.accepting.__contains__, reverse=True)  # stable: accepting first

    def is_dead(q: State) -> bool:
        if q in known:
            return known[q]
        reached, parent = [q], {q: q}
        for p in reached:  # appending while iterating makes the list a FIFO queue
            for r in targets:
                if r in parent or known.get(r) or not ea.exists_transition(p, r):
                    continue
                if r in known:  # alive
                    while p not in known:
                        known[p], p = False, parent[p]
                    return False
                parent[r] = p
                reached.append(r)
        known.update(dict.fromkeys(reached, True))
        return True

    return is_dead


def decide_prefix_infinite(
    ea: EffectiveAutomaton,
    w: IndexedInfiniteWord,
    fuel: Fuel | int | None = None,
    on_step: Callable[[int, State], None] | None = None,
) -> Outcome:
    """Prefix realizability of an effective automaton along an indexed word.

    Same resolution kernel as the finite-alphabet decider: accept visit
    means Yes, dead-lock entry means No.  The dead-lock status of a state is
    decided from the existence predicate on its first visit, by one memo
    that ``fuel=None`` shares: that budget is ``derived_fuel(ea, w)``, derived
    only for a run that outlives the first ``_WINDOW`` symbols.
    """
    fuel = Fuel.of(fuel)
    is_dead = _dead_lock_status(ea)
    symbols = _stretch(w, fuel, lambda: _index_sequence(ea, is_dead))
    return _resolve(lambda q, k: ea.delta(k, q), ea.initial, symbols, ea.accepting, is_dead, on_step)


def decide_buchi_infinite(
    ea: EffectiveAutomaton,
    w: IndexedInfiniteWord,
    fuel: Fuel | int | None = None,
    on_step: Callable[[int, State], None] | None = None,
) -> Outcome:
    """Infinitely many accepted prefixes?  Dead-lock-accepting variant (and its fuel), negated."""
    fuel = Fuel.of(fuel)
    variant = ea.with_accepting(effective_dead_locks(ea))
    return _negated(decide_prefix_infinite(variant, w, fuel, on_step))


def find_transition_witness(
    ea: EffectiveAutomaton, p: State, q: State, search_limit: int = 1_000_000
) -> int:
    """Smallest index realizing an existing transition p -> q.

    The existence predicate guarantees termination of the index scan; the
    limit is a safety net against inconsistent inputs.
    """
    if not ea.exists_transition(p, q):
        raise ValueError(f"no transition from {p!r} to {q!r}")
    for k in range(1, search_limit + 1):
        if ea.delta(k, p) == q:
            return k
    raise RuntimeError(f"no witness index below {search_limit} for {p!r} -> {q!r}")


def definitive_index_sequence(ea: EffectiveAutomaton) -> tuple[int, ...]:
    """A definitive word (index sequence) for an effective automaton.

    The witness of a state is the shortlex-least state path (states in
    declaration order) into the accepting set along the existence relation,
    one ``shortlex_search``; each edge of that path is then realized by its
    least witness index.  The same fold as in the finite-alphabet
    construction stitches the witnesses together.
    """
    return _index_sequence(ea, _dead_lock_status(ea))


def _index_sequence(ea: EffectiveAutomaton, is_dead: Callable[[State], bool]) -> tuple[int, ...]:
    """``definitive_index_sequence(ea)`` given the dead-lock test of ``ea``."""

    def witness(start: State) -> tuple[int, ...]:
        returned = {start}  # shortlex_search skips states it has reached: no predicate call for them

        def step(p: State | None, q: State) -> State | None:
            if p is None or q in returned or not ea.exists_transition(p, q):
                return None  # the sink
            returned.add(q)
            return q

        path = shortlex_search(ea.states, start, ea.accepting.__contains__, step)
        assert path is not None  # start was not dead-locked
        return tuple(find_transition_witness(ea, p, q) for p, q in zip((start,) + path, path))

    def run(word: tuple[int, ...], start: State) -> State:
        q = start
        for k in word:
            q = ea.delta(k, q)
        return q

    return definitive_fold(ea.states, is_dead, run, witness)


def derived_fuel(ea: EffectiveAutomaton, w: IndexedInfiniteWord) -> Fuel:
    """Fuel sufficient for resolution: occurrence bound of a definitive sequence."""
    return _occurrence_fuel(w, definitive_index_sequence(ea))


class AugmentedState(NamedTuple):
    """State of the reduced automaton: base state plus last-image accepting bit."""

    base: State
    bit: int


def reduce_morphism_automaton(a: Dfa, phi: EffectiveMorphism) -> EffectiveAutomaton:
    """Effective automaton tracking ``a`` across whole morphism images.

    One flag rule serves both halves: pairs (state, passed-accepting bit)
    start at ``(q_i, q_i in F)`` and step ``(q, b) -s-> (q', b or q' in F)``.
    ``delta(k, (q, _))`` folds that step over the image of index k from q, so
    the bit is set when the visited states (endpoints included) meet the
    accepting set.  ``exists_transition`` asks the morphism's image language
    oracle about the flag product of ``a`` from the source state, the pairs
    that step reaches.  A transition to ``(q_j, bit)``
    exists iff some image is accepted by that product with ``{(q_j, bit)}``
    as its accepting set; a pair the product never reaches needs no oracle
    call.  Each product is built once per source state, and the oracle is
    asked once per (source state, target) pair.
    """
    if phi.image_language_oracle is None:
        raise ValueError("morphism carries no image language oracle")
    if phi.alphabet != a.alphabet:
        raise AlphabetMismatchError("morphism target alphabet differs from automaton alphabet")
    oracle = phi.image_language_oracle
    accepting_states = a.accepting

    def flag_step(qb: tuple[State, int], s: Symbol) -> tuple[State, int]:
        q = a.step(qb[0], s)
        return q, 1 if qb[1] or q in accepting_states else 0

    @cache
    def flag_product(source: State) -> tuple[tuple, dict]:
        return explore(a.alphabet, (source, 1 if source in accepting_states else 0), flag_step)

    @cache
    def reaches(source: State, target: tuple[State, int]) -> bool:
        order, moves = flag_product(source)
        return target in order and oracle(Dfa(a.alphabet, order, moves, order[0], frozenset({target})))

    def exists(p: AugmentedState, q: AugmentedState) -> bool:
        return reaches(p.base, (q.base, q.bit))

    def delta(k: int, p: AugmentedState) -> AugmentedState:
        return AugmentedState(*reduce(flag_step, phi.image(k), (p.base, 1 if p.base in accepting_states else 0)))

    states = tuple(AugmentedState(q, b) for q in a.states for b in (0, 1))
    accepting = frozenset(s for s in states if s.bit == 1)
    return EffectiveAutomaton(states, delta, exists, AugmentedState(a.initial, 0), accepting)


def decide_prefix_morphism(
    a: Dfa, phi: EffectiveMorphism, w: IndexedInfiniteWord, fuel: Fuel | int | None = None
) -> Outcome:
    """Prefix realizability of L(a) along the morphism image of ``w``.

    Evidence positions count indexed symbols, not image symbols.
    """
    fuel = Fuel.of(fuel)
    return decide_prefix_infinite(reduce_morphism_automaton(a, phi), w, fuel)


def decide_buchi_morphism(
    a: Dfa, phi: EffectiveMorphism, w: IndexedInfiniteWord, fuel: Fuel | int | None = None
) -> Outcome:
    """Are infinitely many prefixes of the image realized?  Variant + negation."""
    fuel = Fuel.of(fuel)
    return decide_buchi_infinite(reduce_morphism_automaton(a, phi), w, fuel)


# ---------------------------------------------------------------------------
# index sets and the textual fixture format


@dataclass(frozen=True, init=False)
class IndexSet:
    """Eventually periodic set of positive indices.

    Membership: listed residue classes (``residue mod modulus``) minus
    excluded indices, plus included indices.  Non-emptiness is decidable by
    inspection: any residue class survives finitely many exclusions.
    """

    progressions: tuple[tuple[int, int], ...] = ()
    include: frozenset[int] = frozenset()
    exclude: frozenset[int] = frozenset()

    def __init__(self, progressions=(), include=frozenset(), exclude=frozenset()):
        vars(self).update(progressions=progressions, include=include, exclude=exclude)
        self.__post_init__()

    def __post_init__(self) -> None:
        for residue, modulus in self.progressions:
            if modulus < 1 or not (0 <= residue < modulus):
                raise ValueError(f"bad progression ({residue} mod {modulus})")
        if self.include & self.exclude:
            raise ValueError("include and exclude overlap")
        if min(self.include | self.exclude, default=1) < 1:
            raise ValueError("indices are 1-based")

    def __contains__(self, k: int) -> bool:
        if k < 1:
            return False
        if k in self.include:
            return True
        if k in self.exclude:
            return False
        return any(k % modulus == residue for residue, modulus in self.progressions)

    def is_empty(self) -> bool:
        return not self.progressions and not self.include

    def shared_index(self, other: "IndexSet") -> int | None:
        """Least index in both sets, or None when they are disjoint.

        Progressions ``r1 % m1`` and ``r2 % m2`` meet exactly when r1 = r2
        (mod g), g = gcd(m1, m2), in a class modulo lcm(m1, m2) that finitely
        many exclusions cannot empty.
        """
        found = [k for k in self.include | other.include if k in self and k in other]
        for r1, m1 in self.progressions:
            for r2, m2 in other.progressions:
                g = gcd(m1, m2)
                if (r2 - r1) % g == 0:
                    lcm = m1 // g * m2
                    k = (r1 + m1 * ((r2 - r1) // g * pow(m1 // g, -1, m2 // g))) % lcm or lcm
                    while k not in self or k not in other:
                        k += lcm
                    found.append(k)
        return min(found, default=None)

    @classmethod
    def parse(cls, tokens: list[str]) -> "IndexSet":
        """Tokens: ``all``, ``R%M`` (residue class), ``+K`` include, ``-K`` exclude."""
        progressions: list[tuple[int, int]] = []
        include: set[int] = set()
        exclude: set[int] = set()
        for tok in tokens:
            if tok == "all":
                progressions.append((0, 1))
            elif tok.startswith("+"):
                include.add(int(tok[1:]))
            elif tok.startswith("-"):
                exclude.add(int(tok[1:]))
            elif "%" in tok:
                r_text, _, m_text = tok.partition("%")
                progressions.append((int(r_text), int(m_text)))
            else:
                raise ValueError(f"bad index-set token {tok!r}")
        return cls(tuple(progressions), frozenset(include), frozenset(exclude))


def effective_from_index_sets(
    states: tuple[State, ...],
    rules: dict[State, list[tuple[IndexSet, State]]],
    initial: State,
    accepting: frozenset[State],
) -> EffectiveAutomaton:
    """Build an effective automaton from per-state (index set -> target) rules.

    The rule sets of one source must be disjoint, so that the rule
    containing an index is unique and transition existence is the plain
    non-emptiness of each rule's set; overlapping sets raise ValueError
    naming the source state and their least shared index.
    """
    for q, row in rules.items():
        for (first, _), (later, _) in combinations(row, 2):
            if (k := first.shared_index(later)) is not None:
                raise ValueError(f"index sets of state {q!r} overlap at index {k}")

    def delta(k: int, q: State) -> State:
        if k < 1:
            raise IndexError("indices are 1-based")
        for index_set, target in rules.get(q, ()):
            if k in index_set:
                return target
        raise ValueError(f"no transition rule for state {q!r} on index {k}")

    def exists(p: State, q: State) -> bool:
        return any(target == q and not index_set.is_empty() for index_set, target in rules.get(p, ()))

    return EffectiveAutomaton(states, delta, exists, initial, accepting)


class EffectiveFormatError(FormatError):
    """Parse error of the effective-automaton format, with its line number."""


def parse_effective(text: str) -> EffectiveAutomaton:
    """Textual fixture format for effective automata.

        states: q0 q1
        initial: q0
        accepting: q0
        etrans: q0 q0 0%2
        etrans: q0 q1 1%2
        etrans: q1 q1 all

    The third and later tokens of an ``etrans`` line form an index-set
    expression (see IndexSet.parse), and its states must be declared above
    it.  Each ``EffectiveFormatError`` names its line; a missing section says line 1.
    """
    sections = _sections(
        _tokenized(text, EffectiveFormatError), ("states", "initial", "accepting"), ("etrans",), EffectiveFormatError
    )
    if "states" not in sections:
        raise EffectiveFormatError(1, "missing states: line")
    states_line, states = sections["states"]
    state_set = set(states)
    if len(state_set) != len(states):
        raise EffectiveFormatError(states_line, "duplicate state names")
    line_no, initial = sections.get("initial", (1, None))
    if initial is not None and len(initial) != 1:
        raise EffectiveFormatError(line_no, "initial: expects one state")
    if initial is None or initial[0] not in state_set:
        raise EffectiveFormatError(line_no, "missing or unknown initial state")
    line_no, accepting = sections.get("accepting", (1, ()))
    if not state_set.issuperset(accepting):
        raise EffectiveFormatError(line_no, "accepting set contains unknown states")
    rules: dict[State, list[tuple[IndexSet, State]]] = {}
    for line_no, tokens in sections["etrans"]:
        if len(tokens) < 3:
            raise EffectiveFormatError(line_no, "etrans line needs: source target index-set...")
        src, dst = tokens[0], tokens[1]
        if line_no < states_line or src not in state_set or dst not in state_set:
            raise EffectiveFormatError(line_no, "unknown state in etrans line")
        try:
            index_set = IndexSet.parse(tokens[2:])
        except ValueError as exc:
            raise EffectiveFormatError(line_no, str(exc)) from None
        rules.setdefault(src, []).append((index_set, dst))
    return effective_from_index_sets(tuple(states), rules, initial[0], frozenset(accepting))


# ---------------------------------------------------------------------------
# built-in morphisms over {0, 1}

_BINARY = Alphabet(("0", "1"))


def zero_one_runs() -> EffectiveMorphism:
    """Even index 2k maps to 0^k, odd index 2k+1 maps to 1^k (so index 1 erases).

    The image set is 0 0* plus 1*, a regular language, so the oracle is a
    plain product emptiness check.
    """

    def image(k: int) -> Word:
        if k < 1:
            raise IndexError("indices are 1-based")
        half, odd = divmod(k, 2)
        return ("1",) * half if odd else ("0",) * half

    image_set = regex_dfa("00*|1*", _BINARY)
    return EffectiveMorphism(_BINARY, image, lambda r: meets(r, image_set))


def zero_one_blocks() -> EffectiveMorphism:
    """Even index 2k maps to 0^k 1^k, odd index 2k+1 maps to 1^k.

    The image set {0^k 1^k : k >= 1} union 1* is not regular.  The oracle
    walks the orbit, from k = 0, of the pair (state after 0^k, k-fold power
    of the 1-step map); the pair evolves by one deterministic function of
    itself, so the orbit is finite and covers every k.  A pair answers Yes
    when its power maps the state after 0^k into F (the word 0^k 1^k) or
    maps the initial state into F (the word 1^k).
    """

    def image(k: int) -> Word:
        if k < 1:
            raise IndexError("indices are 1-based")
        half, odd = divmod(k, 2)
        return ("1",) * half if odd else ("0",) * half + ("1",) * half

    def oracle(r: Automaton) -> bool:
        d = as_dfa(r)
        if d.alphabet != _BINARY:
            raise AlphabetMismatchError("product of automata over different alphabets")
        delta, accepting = d.delta, d.accepting
        position = {q: i for i, q in enumerate(d.states)}
        initial = position[d.initial]

        def successors(pair: tuple[State, tuple[State, ...]]) -> list:
            u, ones = pair  # ones[i] is the state 1^k leads d.states[i] to
            return [(delta[u, "0"], tuple(delta[q, "1"] for q in ones))]

        orbit = _reach([(d.initial, d.states)], successors)
        return any(ones[position[u]] in accepting or ones[initial] in accepting for u, ones in orbit)

    return EffectiveMorphism(_BINARY, image, oracle)
