"""Finite automata over ordered finite alphabets.

Deterministic automata keep a total transition function; nondeterministic
ones are epsilon-free triples.  Symbol order (declaration order of the
alphabet) is significant: it fixes shortlex order and the visit order of
every breadth-first construction, so results are reproducible.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import chain, product
from typing import Any, Callable, Iterable, Iterator, Mapping

State = Any
Symbol = str
Word = tuple[Symbol, ...]

EPSILON: Word = ()


class AlphabetMismatchError(ValueError):
    """Raised when an operation mixes automata or words over different alphabets."""


def as_word(w: str | Iterable[Symbol]) -> Word:
    """Coerce a string (one symbol per character) or symbol iterable to a Word."""
    return tuple(w)


def render_word(w: Word) -> str:
    """Human-readable form: plain join for single-char symbols, else space-separated."""
    if all(len(s) == 1 for s in set(w)):
        return "".join(w)
    return " ".join(w)


# The package's records write their __init__ out (init=False).  A generated one
# interns a ``_type_<field>`` name per field that dies with its code generator, so
# each import of the package used up slots of the interpreter's interned-string
# table and, every so often, grew that table by 0.4 MB inside the import.
@dataclass(frozen=True, init=False)
class Alphabet:
    """Ordered, duplicate-free tuple of symbol tokens."""

    symbols: tuple[Symbol, ...]

    def __init__(self, symbols):
        vars(self).update(symbols=symbols)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet contains duplicate symbols")

    @classmethod
    def of(cls, symbols: str | Iterable[Symbol]) -> "Alphabet":
        return cls(as_word(symbols))

    def index(self, symbol: Symbol) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise AlphabetMismatchError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None

    def __contains__(self, symbol: object) -> bool:
        return symbol in self.symbols

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)


def _check_word(alphabet: Alphabet, w: Word) -> Word:
    for s in w:
        if s not in alphabet:
            raise AlphabetMismatchError(f"symbol {s!r} not in alphabet {alphabet.symbols}")
    return w


@dataclass(frozen=True, init=False)
class Dfa:
    """Deterministic automaton with a total transition function.

    ``states`` is an ordered tuple; the first state need not be the initial
    one.  ``delta`` maps ``(state, symbol)`` to a state and must be defined
    for every pair.
    """

    alphabet: Alphabet
    states: tuple[State, ...]
    delta: Mapping[tuple[State, Symbol], State]
    initial: State
    accepting: frozenset[State]

    def __init__(self, alphabet, states, delta, initial, accepting):
        vars(self).update(alphabet=alphabet, states=states, delta=delta, initial=initial, accepting=accepting)
        self.__post_init__()

    def __post_init__(self) -> None:
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ValueError("duplicate states")
        if self.initial not in state_set:
            raise ValueError(f"initial state {self.initial!r} not among states")
        if not self.accepting <= state_set:
            raise ValueError("accepting set contains unknown states")
        for q in self.states:
            for s in self.alphabet:
                target = self.delta.get((q, s))
                if target is None:
                    raise ValueError(f"transition function undefined on ({q!r}, {s!r})")
                if target not in state_set:
                    raise ValueError(f"transition ({q!r}, {s!r}) leads to unknown state {target!r}")

    def step(self, state: State, symbol: Symbol) -> State:
        try:
            return self.delta[(state, symbol)]
        except KeyError:
            raise AlphabetMismatchError(f"symbol {symbol!r} not in alphabet {self.alphabet.symbols}") from None

    def run(self, w: str | Word, start: State | None = None) -> State:
        """State reached from ``start`` (default: initial) after reading ``w``."""
        q = self.initial if start is None else start
        for s in as_word(w):
            q = self.step(q, s)
        return q

    def visited(self, w: str | Word, start: State | None = None) -> list[State]:
        """Full state sequence along ``w``, both endpoints included."""
        q = self.initial if start is None else start
        out = [q]
        for s in as_word(w):
            q = self.step(q, s)
            out.append(q)
        return out

    def accepts(self, w: str | Word) -> bool:
        return self.run(w) in self.accepting


@dataclass(frozen=True, init=False)
class Nfa:
    """Epsilon-free nondeterministic automaton with a set of initial states."""

    alphabet: Alphabet
    states: tuple[State, ...]
    transitions: frozenset[tuple[State, Symbol, State]]
    initials: frozenset[State]
    accepting: frozenset[State]

    def __init__(self, alphabet, states, transitions, initials, accepting):
        vars(self).update(alphabet=alphabet, states=states, transitions=transitions, initials=initials,
                          accepting=accepting)
        self.__post_init__()

    def __post_init__(self) -> None:
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ValueError("duplicate states")
        if not self.initials <= state_set:
            raise ValueError("initial set contains unknown states")
        if not self.accepting <= state_set:
            raise ValueError("accepting set contains unknown states")
        for p, s, q in self.transitions:
            if p not in state_set or q not in state_set:
                raise ValueError(f"transition ({p!r}, {s!r}, {q!r}) uses unknown states")
            if s not in self.alphabet:
                raise ValueError(f"transition symbol {s!r} not in alphabet")

    def step_set(self, current: frozenset[State], symbol: Symbol) -> frozenset[State]:
        if symbol not in self.alphabet:
            raise AlphabetMismatchError(f"symbol {symbol!r} not in alphabet {self.alphabet.symbols}")
        return frozenset(q for (p, s, q) in self.transitions if s == symbol and p in current)

    def run_set(self, w: str | Word) -> frozenset[State]:
        current = self.initials
        for s in as_word(w):
            current = self.step_set(current, s)
        return current

    def accepts(self, w: str | Word) -> bool:
        return bool(self.run_set(w) & self.accepting)


Automaton = Dfa | Nfa


def nfa_of(a: Automaton) -> Nfa:
    """View a Dfa as an Nfa (identity on Nfa inputs)."""
    if isinstance(a, Nfa):
        return a
    triples = frozenset((p, s, q) for (p, s), q in a.delta.items())
    return Nfa(a.alphabet, a.states, triples, frozenset({a.initial}), a.accepting)


def with_initial(a: Dfa, q: State) -> Dfa:
    if q not in a.states:
        raise ValueError(f"state {q!r} not among states")
    return Dfa(a.alphabet, a.states, a.delta, q, a.accepting)


def reachable_states(a: Dfa, start: State | None = None) -> list[State]:
    """States reachable from ``start`` in breadth-first symbol order."""
    delta = a.delta
    order, _ = explore(a.alphabet, a.initial if start is None else start, lambda q, s: delta[q, s])
    return list(order)


def dead_lock_states(a: Dfa) -> frozenset[State]:
    """States from which no accepting state is reachable (including themselves)."""
    reverse: dict[State, set[State]] = {q: set() for q in a.states}
    for (p, _s), q in a.delta.items():
        reverse[q].add(p)
    return frozenset(set(a.states) - _reach(a.accepting, reverse.__getitem__))


def relabel_bfs(a: Dfa, prefix: str = "q", start: int = 1) -> Dfa:
    """Rename reachable states ``q1, q2, ...`` in breadth-first symbol order.

    Unreachable states are dropped; the language is unchanged.
    """
    delta = a.delta
    order, reached = explore(a.alphabet, a.initial, lambda q, s: delta[q, s])
    name = {q: f"{prefix}{start + i}" for i, q in enumerate(order)}
    return Dfa(
        a.alphabet,
        tuple(name.values()),
        {(name[q], s): name[r] for (q, s), r in reached.items()},
        name[a.initial],
        frozenset(name[q] for q in order if q in a.accepting),
    )


def explore(
    alphabet: Alphabet, initial: State, step: Callable[[State, Symbol], State]
) -> tuple[tuple[State, ...], dict[tuple[State, Symbol], State]]:
    """Reachable part of a deterministic automaton given by its step function.

    Breadth-first from ``initial``, expanding symbols in alphabet order;
    returns the states in discovery order and the transition table on them.
    """
    order = [initial]
    seen = {initial}
    delta: dict[tuple[State, Symbol], State] = {}
    for current in order:  # appending while iterating makes the list a FIFO queue
        for s in alphabet:
            target = delta[current, s] = step(current, s)
            if target not in seen:
                seen.add(target)
                order.append(target)
    return tuple(order), delta


def _reach(starts: Iterable[State], successors: Callable[[State], Iterable[State]]) -> set[State]:
    """States reachable from ``starts`` (themselves included) along ``successors``, breadth-first."""
    order = list(starts)
    seen = set(order)
    for current in order:  # appending while iterating makes the list a FIFO queue
        for target in successors(current):
            if target not in seen:
                seen.add(target)
                order.append(target)
    return seen


def _product(a: Dfa, b: Dfa, accept) -> Dfa:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("product of automata over different alphabets")
    da, db = a.delta, b.delta
    initial = (a.initial, b.initial)
    order, delta = explore(a.alphabet, initial, lambda pq, s: (da[pq[0], s], db[pq[1], s]))
    accepting = frozenset((p, q) for (p, q) in order if accept(p in a.accepting, q in b.accepting))
    return Dfa(a.alphabet, order, delta, initial, accepting)


def intersect(a: Dfa, b: Dfa) -> Dfa:
    return _product(a, b, lambda x, y: x and y)


def union(a: Dfa, b: Dfa) -> Dfa:
    return _product(a, b, lambda x, y: x or y)


def difference(a: Dfa, b: Dfa) -> Dfa:
    return _product(a, b, lambda x, y: x and not y)


def complement(a: Dfa) -> Dfa:
    return Dfa(a.alphabet, a.states, a.delta, a.initial, frozenset(a.states) - a.accepting)


def sigma_star(alphabet: Alphabet) -> Dfa:
    """One-state automaton accepting every word."""
    q = "all"
    return Dfa(alphabet, (q,), {(q, s): q for s in alphabet}, q, frozenset({q}))


def empty_language(alphabet: Alphabet) -> Dfa:
    q = "none"
    return Dfa(alphabet, (q,), {(q, s): q for s in alphabet}, q, frozenset())


def literal_dfa(w: str | Word, alphabet: Alphabet) -> Dfa:
    """Automaton accepting exactly the single word ``w``."""
    word = _check_word(alphabet, as_word(w))
    n = len(word)
    states = tuple(range(n + 1)) + ("sink",)
    delta: dict[tuple[State, Symbol], State] = {}
    for i in range(n + 1):
        for s in alphabet:
            if i < n and s == word[i]:
                delta[(i, s)] = i + 1
            else:
                delta[(i, s)] = "sink"
    for s in alphabet:
        delta[("sink", s)] = "sink"
    return Dfa(alphabet, states, delta, 0, frozenset({n}))


def _tagged(tag: str, nfa: Nfa) -> Nfa:
    states = tuple((tag, q) for q in nfa.states)
    triples = frozenset(((tag, p), s, (tag, q)) for (p, s, q) in nfa.transitions)
    return Nfa(
        nfa.alphabet,
        states,
        triples,
        frozenset((tag, q) for q in nfa.initials),
        frozenset((tag, q) for q in nfa.accepting),
    )


def concatenate(a: Automaton, b: Automaton) -> Nfa:
    """Epsilon-free automaton for L(a)L(b)."""
    left = _tagged("L", nfa_of(a))
    right = _tagged("R", nfa_of(b))
    if left.alphabet != right.alphabet:
        raise AlphabetMismatchError("concatenation of automata over different alphabets")
    transitions = set(left.transitions) | set(right.transitions)
    # glue: from a final state of the left part, mirror the right part's initial moves
    for f in left.accepting:
        for (p, s, q) in right.transitions:
            if p in right.initials:
                transitions.add((f, s, q))
    initials = set(left.initials)
    if left.initials & left.accepting:  # epsilon in L(a)
        initials |= right.initials
    accepting = set(right.accepting)
    if right.initials & right.accepting:  # epsilon in L(b)
        accepting |= left.accepting
    return Nfa(
        left.alphabet,
        left.states + right.states,
        frozenset(transitions),
        frozenset(initials),
        frozenset(accepting),
    )


def star(a: Automaton) -> Nfa:
    """Epsilon-free automaton for L(a)*."""
    inner = _tagged("S", nfa_of(a))
    fresh = ("star", 0)
    transitions = set(inner.transitions)
    entry_moves = [(s, q) for (p, s, q) in inner.transitions if p in inner.initials]
    for s, q in entry_moves:
        transitions.add((fresh, s, q))
    for f in inner.accepting:
        for s, q in entry_moves:
            transitions.add((f, s, q))
    return Nfa(
        inner.alphabet,
        (fresh,) + inner.states,
        frozenset(transitions),
        frozenset({fresh}),
        inner.accepting | {fresh},
    )


def sigma_star_prefix(a: Automaton) -> Nfa:
    """Automaton for the factor closure Sigma* L(a)."""
    alph = a.alphabet
    return concatenate(sigma_star(alph), a)


def _subset_step(n: Nfa) -> Callable[[frozenset[State], Symbol], frozenset[State]]:
    """Successor of a state set of ``n`` on one symbol."""
    by_symbol: dict[Symbol, dict[State, set[State]]] = {s: {} for s in n.alphabet}
    for (p, s, q) in n.transitions:
        by_symbol[s].setdefault(p, set()).add(q)

    def step(current: frozenset[State], s: Symbol) -> frozenset[State]:
        m = by_symbol[s]
        return frozenset(q for p in current for q in m.get(p, ()))

    return step


def determinize(n: Nfa) -> Dfa:
    """Subset construction restricted to reachable subsets; the empty subset is the sink."""
    order, delta = explore(n.alphabet, n.initials, _subset_step(n))
    accepting = frozenset(S for S in order if S & n.accepting)
    return Dfa(n.alphabet, order, delta, n.initials, accepting)


def as_dfa(a: Automaton) -> Dfa:
    """``a`` itself when deterministic, else its subset construction."""
    return a if isinstance(a, Dfa) else determinize(a)


def shortlex_smallest(a: Automaton) -> Word | None:
    """Shortlex-least accepted word, or None when the language is empty."""
    if isinstance(a, Nfa):
        return shortlex_search(a.alphabet, a.initials, lambda S: bool(S & a.accepting), _subset_step(a))
    return shortlex_search(a.alphabet, a.initial, a.accepting.__contains__, lambda q, s: a.delta[(q, s)])


def shortlex_search(
    alphabet: Iterable[Symbol], start: Any, is_target: Callable[[Any], bool], step: Callable[[Any, Symbol], Any]
) -> Word | None:
    """Shortlex-least word leading ``step`` from ``start`` to a target, or None.

    Breadth-first search expanding symbols in alphabet order visits words in
    shortlex order, so the first target hit is the answer.
    """
    if is_target(start):
        return EPSILON
    seen = {start}
    queue = deque([(start, EPSILON)])
    while queue:
        q, w = queue.popleft()
        for s in alphabet:
            r = step(q, s)
            if r in seen:
                continue
            seen.add(r)
            if is_target(r):
                return w + (s,)
            queue.append((r, w + (s,)))
    return None


def is_empty(a: Automaton) -> bool:
    return shortlex_smallest(a) is None


def meets(r: Automaton, d: Dfa) -> bool:
    """Does L(r) intersect L(d)?  Determinizes ``r`` if needed, then searches the reachable pairs
    of the product breadth-first, stopping at the first pair both accept; the product automaton
    itself is never built."""
    a = as_dfa(r)
    if a.alphabet != d.alphabet:
        raise AlphabetMismatchError("product of automata over different alphabets")
    da, db, fa, fd = a.delta, d.delta, a.accepting, d.accepting
    found = shortlex_search(
        a.alphabet,
        (a.initial, d.initial),
        lambda pq: pq[0] in fa and pq[1] in fd,
        lambda pq, s: (da[pq[0], s], db[pq[1], s]),
    )
    return found is not None


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality via emptiness of both set differences."""
    return is_empty(difference(a, b)) and is_empty(difference(b, a))


def words_upto(alphabet: Alphabet, max_len: int) -> Iterator[Word]:
    """All words of length 0..max_len in shortlex order."""
    return chain.from_iterable(product(alphabet.symbols, repeat=n) for n in range(max_len + 1))


# Deepest parenthesis nesting regex_dfa parses: each level recurses four
# frames, so this stays well under the interpreter's recursion limit.
REGEX_NESTING_LIMIT = 100


def regex_dfa(pattern: str, alphabet: Alphabet) -> Dfa:
    """Compile a small regular expression to an automaton over the alphabet.

    Supported syntax: single-character literals (which must be alphabet
    symbols), ``.`` for any symbol, concatenation, ``|``, ``*``, ``+``,
    ``?``, and parentheses nested at most ``REGEX_NESTING_LIMIT`` deep.  No
    escapes or character classes.  Parsing builds the position (Glushkov)
    automaton; one subset exploration determinizes it.
    """
    Node = tuple[bool, frozenset[int], frozenset[int]]  # nullable, first and last positions
    pos = depth = 0
    follow: defaultdict[int, set[int]] = defaultdict(set)  # position i reads pattern[i]; -1 is the start

    def peek() -> str | None:
        return pattern[pos] if pos < len(pattern) else None

    def take() -> str:
        nonlocal pos
        c = pattern[pos]
        pos += 1
        return c

    def parse_expr() -> Node:
        nullable, first, last = parse_term()
        while peek() == "|":
            take()
            n, f, l = parse_term()
            nullable, first, last = nullable or n, first | f, last | l
        return nullable, first, last

    def parse_term() -> Node:
        nullable, first, last = True, frozenset(), frozenset()  # the empty word
        while peek() not in (None, "|", ")"):
            n, f, l = parse_factor()
            for p in last:
                follow[p] |= f
            nullable, first, last = nullable and n, first | f if nullable else first, last | l if n else l
        return nullable, first, last

    def parse_factor() -> Node:
        nullable, first, last = parse_atom()
        while peek() in ("*", "+", "?"):
            op = take()
            if op != "?":
                for p in last:
                    follow[p] |= first
            nullable = nullable or op != "+"
        return nullable, first, last

    def parse_atom() -> Node:
        nonlocal depth
        c = peek()  # reached only from parse_term's loop, so c is not None, '|' or ')'
        if c == "(":
            if depth == REGEX_NESTING_LIMIT:
                raise ValueError(
                    f"regex {pattern!r}: parentheses nested deeper than {REGEX_NESTING_LIMIT} at position {pos}"
                )
            depth += 1
            take()
            inner = parse_expr()
            if peek() != ")":
                raise ValueError(f"regex {pattern!r}: unmatched '('")
            take()
            depth -= 1
            return inner
        if c in ("*", "+", "?"):
            raise ValueError(f"regex {pattern!r}: unexpected {c!r} at position {pos}")
        if c != "." and c not in alphabet:
            raise ValueError(f"regex {pattern!r}: {c!r} is not an alphabet symbol")
        p = frozenset({pos})
        take()
        return False, p, p

    def step(S: frozenset[int], s: Symbol) -> frozenset[int]:
        return frozenset(q for p in S for q in follow[p] if pattern[q] in (s, "."))

    nullable, first, last = parse_expr()
    if pos != len(pattern):
        raise ValueError(f"regex {pattern!r}: unexpected {pattern[pos]!r} at position {pos}")
    follow[-1] |= first
    order, delta = explore(alphabet, frozenset({-1}), step)
    accepting = frozenset(S for S in order if S & last or (nullable and -1 in S))
    return relabel_bfs(Dfa(alphabet, order, delta, order[0], accepting), prefix="r", start=0)
