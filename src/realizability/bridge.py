"""Bridges between language realizability and prefix realizability.

Three constructions live here:

* ``filter_to_word`` / ``rr_to_prefix`` / ``prefix_via_rr``: given a language
  L with a computable enumeration, the morphism sending the k-th indexed
  symbol to the k-th enumerated word followed by a separator turns the
  factor-universal indexed word into a word whose #-delimited chunks range
  over all of L.  Non-emptiness of L with a regular language R then
  coincides with prefix realizability of ``(Sigma* #)* R #`` along that
  word, and the converse direction is decided through the effective-automata
  reduction using an oracle for "does this regular language meet L".

* A total bijection between positive integers and canonical binary-alphabet
  deterministic automata, enumerated by state count and then by transition
  table and accepting mask.

* ``theorem1_word``: a diagonal word assembled in stages against that
  enumeration.  Stage n appends one block per machine of the supplied list
  that is still running after n steps, then a patch word chosen so that the
  n-th canonical automaton passes an accepting state if any block-disciplined
  continuation could ever make it do so.  Prefix realizability along this
  word is decided exactly by ``decide_prefix_theorem1`` without fuel.

Blocks are words ``1 0^m 1`` (m >= 1 is the rank); block concatenations are
self-delimiting, so a stage's discipline is checkable from the emitted
ranks alone.  Each stage also replays the word so far through its automaton,
an integer table, one block per step, and finds its patch with one shortlex search.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from itertools import chain, count, islice
from typing import Callable, Iterator

from .automata import (
    Alphabet,
    AlphabetMismatchError,
    Automaton,
    Dfa,
    State,
    Symbol,
    Word,
    as_dfa,
    as_word,
    explore,
    meets,
    relabel_bfs,
    shortlex_search,
    words_upto,
)
from .decide import Fuel, FuelExhausted, NO, Outcome, Verdict, _dead_on_demand, _resolve
from .effective import decide_prefix_morphism
from .textio import FormatError, _sections, _tokenized
from .words import (
    EffectiveMorphism,
    IndexedInfiniteWord,
    InfiniteWord,
    apply_morphism,
    universal_indexed_word,
)

BINARY = Alphabet(("0", "1"))


# ---------------------------------------------------------------------------
# filter languages and the realizability correspondence


@dataclass(init=False)
class FilterLanguage:
    """A language with decidable membership and a computable enumeration.

    ``enumeration(i)`` (1-based) must be injective and cover the language.
    ``rr`` decides, for a regular language given as an automaton over the
    same alphabet, whether it intersects this language.
    """

    alphabet: Alphabet
    membership: Callable[[Word], bool]
    enumeration: Callable[[int], Word]
    rr: Callable[[Automaton], bool] | None = None

    def __init__(self, alphabet, membership, enumeration, rr=None):
        vars(self).update(alphabet=alphabet, membership=membership, enumeration=enumeration, rr=rr)

    @classmethod
    def from_dfa(cls, d: Dfa) -> "FilterLanguage":
        """Regular filter: shortlex enumeration, product-emptiness rr decider."""
        # L is infinite iff it has a word of length >= |Q|, searched over pairs (state, length
        # capped at |Q|); a finite L is scanned only that far, so enumeration past its end fails loudly.
        pump, delta, accepting = len(d.states), d.delta, d.accepting
        long_word = shortlex_search(
            d.alphabet, (d.initial, 0), lambda qn: qn[1] == pump and qn[0] in accepting,
            lambda qn, s: (delta[qn[0], s], min(qn[1] + 1, pump)),
        )
        scan = filter(d.accepts, words_upto(d.alphabet, pump if long_word is None else sys.maxsize))
        cache: list[Word] = []

        def enumeration(i: int) -> Word:
            if i < 1:
                raise IndexError("enumeration is 1-based")
            cache.extend(islice(scan, max(i - len(cache), 0)))
            if i > len(cache):
                raise IndexError(f"language is finite with {len(cache)} words")
            return cache[i - 1]

        return cls(d.alphabet, lambda w: d.accepts(as_word(w)), enumeration, lambda r: meets(r, d))


def filter_to_word(
    lang: FilterLanguage, hash_symbol: Symbol = "#"
) -> tuple[EffectiveMorphism, InfiniteWord]:
    """Morphism ``k -> w_k #`` plus its image of the universal indexed word.

    The image word's #-delimited chunks enumerate the filter language, so a
    regular language R over the extended alphabet meets the image set iff
    stripping a trailing # and restricting to the base alphabet yields a
    language meeting the filter language; that is exactly what the oracle
    asks the filter's rr decider.
    """
    if hash_symbol in lang.alphabet:
        raise ValueError(f"separator {hash_symbol!r} already in the filter alphabet")
    sigma_hash = Alphabet(lang.alphabet.symbols + (hash_symbol,))

    def image(k: int) -> Word:
        return lang.enumeration(k) + (hash_symbol,)

    def oracle(r: Automaton) -> bool:
        if lang.rr is None:
            raise ValueError("filter language carries no rr decider")
        d = as_dfa(r)
        accepting = frozenset(q for q in d.states if d.delta[(q, hash_symbol)] in d.accepting)
        delta = {(q, s): d.delta[(q, s)] for q in d.states for s in lang.alphabet}
        stripped = Dfa(lang.alphabet, d.states, delta, d.initial, accepting)
        return lang.rr(stripped)

    phi = EffectiveMorphism(sigma_hash, image, oracle)
    return phi, apply_morphism(phi, universal_indexed_word())


def rr_to_prefix(r: Dfa, hash_symbol: Symbol = "#") -> Dfa:
    """Automaton for ``(Sigma* #)* L(r) #`` over the #-extended alphabet.

    A prefix of the enumerating word lies in this language iff one of its
    complete chunks is a word of L(r), which happens for some prefix iff the
    filter language meets L(r).

    One product over pairs (state of r on the current chunk, whether the
    chunk just closed by # was accepted): a symbol of Sigma steps r and
    clears the flag, # restarts r and sets the flag iff r accepted the chunk,
    and the flagged pairs accept.  Only ``(r.initial, True)`` is flagged, so
    the result has at most one state more than r has reachable states.
    """
    if hash_symbol in r.alphabet:
        raise ValueError(f"separator {hash_symbol!r} already in the automaton alphabet")
    sigma_hash = Alphabet(r.alphabet.symbols + (hash_symbol,))
    delta, accepting = r.delta, r.accepting

    def step(pair: tuple[State, bool], s: Symbol) -> tuple[State, bool]:
        q = pair[0]
        return (r.initial, q in accepting) if s == hash_symbol else (delta[q, s], False)

    initial = (r.initial, False)
    order, moves = explore(sigma_hash, initial, step)
    return relabel_bfs(Dfa(sigma_hash, order, moves, initial, frozenset(p for p in order if p[1])))


def prefix_via_rr(
    a: Dfa,
    lang: FilterLanguage,
    fuel: Fuel | int | None = None,
    w: IndexedInfiniteWord | None = None,
) -> Outcome:
    """Decide prefix realizability along the filter's enumerating word.

    Runs the effective-automata reduction with the filter-backed oracle.  The
    separator is the symbol of ``a``'s alphabet that the filter alphabet lacks
    (``#`` when there is none, which fails as an alphabet mismatch); the
    default fuel is derived from a definitive index sequence, so the call is
    total; on No instances the run's first question, whether the initial
    state is a dead-lock, already answers.
    """
    fuel = Fuel.of(fuel)
    separator = next((s for s in a.alphabet if s not in lang.alphabet), "#")
    phi, _image = filter_to_word(lang, separator)
    if w is None:
        w = universal_indexed_word()
    return decide_prefix_morphism(a, phi, w, fuel)


def rr_pipeline(r: Dfa, lang: FilterLanguage, hash_symbol: Symbol = "#") -> Outcome:
    """End-to-end: does the filter language meet L(r)?

    Builds the prefix-realizability instance with ``rr_to_prefix`` over the
    separator ``hash_symbol`` and decides it with ``prefix_via_rr``, which
    reads the same separator off that automaton's alphabet.
    """
    return prefix_via_rr(rr_to_prefix(r, hash_symbol), lang)


# ---------------------------------------------------------------------------
# canonical enumeration of binary deterministic automata


def canonical_state_count_block(s: int) -> int:
    """How many canonical automata have exactly s states."""
    return s ** (2 * s) * 2**s


def _is_canonical(a: Dfa) -> bool:
    return (
        a.alphabet == BINARY
        and a.states == tuple(f"q{i}" for i in range(1, len(a.states) + 1))
        and a.initial == "q1"
    )


def _decode_table(i: int) -> tuple[list[tuple[int, int]], frozenset[int]]:
    """``decode_dfa(i)`` on states 0..s-1, state 0 initial: each state's
    (successor on 0, successor on 1), and the accepting states."""
    if i < 1:
        raise IndexError("canonical indices are 1-based")
    s = 1
    offset = 0
    while i > offset + canonical_state_count_block(s):
        offset += canonical_state_count_block(s)
        s += 1
    rank = i - offset - 1
    mask = rank & ((1 << s) - 1)
    table_rank = rank >> s
    digits = []
    for _ in range(2 * s):
        digits.append(table_rank % s)
        table_rank //= s
    digits.reverse()
    return list(zip(digits[0::2], digits[1::2])), frozenset(j for j in range(s) if mask >> j & 1)


def decode_dfa(i: int) -> Dfa:
    """The i-th canonical automaton (1-based) over the binary alphabet.

    Within one state count the order is lexicographic on the transition
    table (row-major over states, symbol order 0 then 1) followed by the
    accepting bitmask (bit j set = state j+1 accepting).
    """
    table, accepting = _decode_table(i)
    states = tuple(f"q{j}" for j in range(1, len(table) + 1))
    delta = {(q, sym): states[t] for q, row in zip(states, table) for sym, t in zip(BINARY, row)}
    return Dfa(BINARY, states, delta, "q1", frozenset(states[j] for j in accepting))


def encode_dfa(a: Dfa) -> int:
    """Canonical index of a binary-alphabet automaton.

    Automata already in canonical shape (states q1..qs, initial q1) are read
    off directly, which makes decode/encode mutually inverse; anything else
    is read off one breadth-first exploration of its reachable part
    (language-preserving), symbols in 0/1 order: by symbol if the alphabet
    is {0, 1}, else by position.
    """
    if len(a.alphabet) != 2:
        raise ValueError("canonical enumeration covers binary alphabets only")
    reading = BINARY if set(a.alphabet) == set(BINARY) else a.alphabet
    states, table = (a.states, a.delta) if _is_canonical(a) else explore(reading, a.initial, lambda q, s: a.delta[q, s])
    s = len(states)
    position = {q: j for j, q in enumerate(states)}
    table_rank = 0
    for q in states:
        for sym in reading:
            table_rank = table_rank * s + position[table[q, sym]]
    mask = sum(1 << j for j, q in enumerate(states) if q in a.accepting)
    offset = sum(canonical_state_count_block(k) for k in range(1, s))
    return offset + (table_rank << s) + mask + 1


# ---------------------------------------------------------------------------
# step-simulable machines


_MOVE = {"L": -1, "R": 1, "S": 0}


def _run(start: str, rules: dict[tuple[str, str], tuple[str, str, str]]) -> Iterator[None]:
    """A machine's run on the empty tape, rules (state, read) -> (write, move, next): one yield per
    step applied; it ends where no rule applies, so halting is the generator's exhaustion."""
    state, head, tape = start, 0, {}
    while (rule := rules.get((state, tape.get(head, "_")))) is not None:
        tape[head], move, state = rule
        head += _MOVE[move]
        yield


class MachineList:
    """A finite list of deterministic step-simulable machines on empty input.

    Each machine is a ``_run`` generator with its step count so far, advanced
    only when a query asks about a step past that count, and then one step
    past the query: a halted run answers every query, a running one every
    query below its count, so queries may come in any order.  Indices are
    1-based; indices beyond the list are treated as machines that never
    halt, which keeps every stage of the diagonal word total.
    """

    def __init__(self, runs: list[Iterator[None]], names: list[str] | None = None):
        self._runs = runs
        self._steps = [0] * len(runs)
        self._halted: set[int] = set()  # the runs that ended, each at its step count
        self.names = names or [f"m{i}" for i in range(1, len(runs) + 1)]

    def __len__(self) -> int:
        return len(self._runs)

    def halts_within(self, k: int, n: int) -> bool:
        """Has machine k (1-based) halted after at most n step applications?"""
        if k < 1:
            raise IndexError("machine indices are 1-based")
        if k > len(self._runs):
            return False
        i, steps, halted = k - 1, self._steps, self._halted
        while i not in halted and steps[i] <= n:  # step n + 1, if any, shows the run did not halt at n
            if next(self._runs[i], False) is False:
                halted.add(i)
            else:
                steps[i] += 1
        return i in halted and steps[i] <= n

    def alive_at(self, n: int) -> tuple[int, ...]:
        """Machine indices k <= n still running after n steps, ascending."""
        return tuple(k for k in range(1, n + 1) if not self.halts_within(k, n))


def parse_machines(text: str) -> MachineList:
    """Machine file format: one ``machine:`` section per machine.

        machine: halts-after-three
        start: s0
        trans: s0 _ x R s1
        trans: s1 _ x R s2
        trans: s2 _ x R s3

        machine: loops
        start: a
        trans: a _ _ R a

    A missing transition halts the machine; the blank tape symbol is ``_``.
    A second ``start:`` line, or a second rule for one (state, read) pair, is an error.
    Each ``FormatError`` names its line; a machine without ``start:`` names its ``machine:`` line.
    """
    groups: list[tuple[int, str, list]] = []  # (line_no, name, lines) of each machine: section
    for line_no, key, tokens in _tokenized(text):
        if key == "machine":
            groups.append((line_no, tokens[0] if tokens else f"m{len(groups) + 1}", []))
        elif groups:
            groups[-1][2].append((line_no, key, tokens))
        else:
            raise FormatError(line_no, f"{key}: outside machine or malformed")
    runs: list[Iterator[None]] = []
    for header_line, name, lines in groups:
        sections = _sections(lines, ("start",), ("trans",))
        rules: dict[tuple[str, str], tuple[str, str, str]] = {}
        for line_no, tokens in sections["trans"]:
            if len(tokens) != 5:
                raise FormatError(line_no, "trans line needs: state read write move next")
            state, read, write, move, nxt = tokens
            if move not in _MOVE:
                raise FormatError(line_no, "move must be one of L R S")
            if (state, read) in rules:
                raise FormatError(line_no, f"duplicate transition for ({state!r}, {read!r})")
            rules[(state, read)] = (write, move, nxt)
        if "start" not in sections:
            raise FormatError(header_line, f"machine {name!r} has no start: line")
        line_no, start = sections["start"]
        if len(start) != 1:
            raise FormatError(line_no, "start: outside machine or malformed")
        runs.append(_run(start[0], rules))
    return MachineList(runs, [name for _line_no, name, _lines in groups])


# ---------------------------------------------------------------------------
# blocks and the staged diagonal word


@dataclass(frozen=True, init=False)
class Block:
    """The word 1 0^rank 1."""

    rank: int

    def __init__(self, rank):
        vars(self).update(rank=rank)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("block ranks are non-negative")

    @property
    def word(self) -> Word:
        return ("1",) + ("0",) * self.rank + ("1",)


def _block_counter(forbidden: frozenset[int]) -> tuple[int, Callable[[int], bool]]:
    """The block words' run-length counter: ``(cap, closes)``.  The count of
    0s in an open block saturates at cap, one past the largest forbidden rank
    (all longer runs are equivalent and allowed); a 1 after m 0s closes the
    block iff ``closes(m)``.  ``block_word_dfa`` and ``_patch_ranks`` share it."""
    return max(forbidden, default=0) + 1, lambda m: m >= 1 and m not in forbidden


def block_word_dfa(forbidden_ranks: frozenset[int]) -> Dfa:
    """Automaton for concatenations of blocks whose ranks avoid the given set,
    over the run-length counter of ``_block_counter``."""
    cap, closes = _block_counter(forbidden_ranks)
    states: tuple[State, ...] = ("b",) + tuple(f"r{i}" for i in range(cap + 1)) + ("x",)
    delta: dict[tuple[State, Symbol], State] = {
        ("b", "0"): "x",
        ("b", "1"): "r0",
        ("x", "0"): "x",
        ("x", "1"): "x",
    }
    for i in range(cap + 1):
        delta[(f"r{i}", "0")] = f"r{min(i + 1, cap)}"
        delta[(f"r{i}", "1")] = "b" if closes(i) else "x"
    return Dfa(BINARY, states, delta, "b", frozenset({"b"}))


def split_blocks(w: Word) -> list[int]:
    """Ranks of a block-concatenation word; raises on ill-formed input."""
    text = "".join(w)
    if not re.fullmatch(r"(10+1)*", text):
        raise ValueError(f"not a block concatenation: {text!r}")
    return [len(zeros) for zeros in re.findall(r"1(0+)1", text)]


def _block_rows(table: list[tuple[int, int]], top: int) -> list[list[int]]:
    """``rows[q][m]``: the state the table reaches from q on ``Block(m).word``, m <= top."""
    rows = []
    for _, p in table:  # p: the state past 1 0^m, m = len(row)
        row = []
        for _ in range(top + 1):
            row.append(table[p][1])
            p = table[p][0]
        rows.append(row)
    return rows


def _patch_ranks(table: list, accepting: frozenset, q: int, forbidden: frozenset[int]) -> tuple[int, ...]:
    """Ranks of the shortlex-least block word, ranks outside ``forbidden``, along which the table's
    automaton, started in q, passes an accepting state; () if none.  One breadth-first search over
    pairs of a table state (None once past an accepting one) and the count m of 0s in the open block
    (-1 between blocks), keyed saturated as in ``_block_counter``; each entry carries the ranks it closed."""
    if q in accepting:
        return ()
    cap, closes = _block_counter(forbidden)
    succ0, succ1 = ([None if row[j] in accepting else row[j] for row in table] for j in (0, 1))
    seen, order = {(q, -1)}, [(q, -1, ())]

    def visit(p: int | None, m: int, ranks: tuple) -> None:
        if (p, min(m, cap)) not in seen:
            seen.add((p, min(m, cap)))
            order.append((p, m, ranks))

    for p, m, ranks in order:  # appending while iterating makes the list a FIFO queue
        p0, p1 = (None, None) if p is None else (succ0[p], succ1[p])
        if m < 0:  # between blocks a 0 is no block word; a 1 opens a block
            visit(p1, 0, ranks)
            continue
        visit(p0, m + 1, ranks)  # 0 extends the open block
        if closes(m):  # 1 closes it
            if p1 is None:
                return (*ranks, m)
            visit(p1, -1, (*ranks, m))
    return ()


def _blocks_text(ranks: tuple[int, ...]) -> str:
    """The concatenation of the blocks of the given ranks, as text."""
    return "".join(["1" + "0" * k + "1" for k in ranks])


@dataclass(frozen=True, init=False)
class Stage:
    """Record of one generation stage of the diagonal word.

    A stage is stored as its block ranks only; its two words are rebuilt
    from them on demand, so the symbols are held once, in the word's buffer.
    """

    n: int
    alive: tuple[int, ...]  # machines still running after n steps
    patch_ranks: tuple[int, ...]  # blocks of the patch, in order
    end: int  # position of the stage's last symbol

    def __init__(self, n, alive, patch_ranks, end):
        vars(self).update(n=n, alive=alive, patch_ranks=patch_ranks, end=end)

    @property
    def machine_word(self) -> Word:
        """One block per alive machine, ranks ascending."""
        return tuple(_blocks_text(self.alive))

    @property
    def patch_word(self) -> Word:
        """Accepting-passage patch for the n-th automaton."""
        return tuple(_blocks_text(self.patch_ranks))


class Theorem1Word(InfiniteWord):
    """Diagonal word with per-stage records; fully determined by the machine list.

    The source yields one chunk per stage.  The word so far is kept as its
    block ranks too: stage n replays about n^2/2 blocks, not n^3/6 symbols.
    """

    def __init__(self, machines: MachineList):
        self.machines = machines
        self._stages: list[Stage] = []
        super().__init__(BINARY, source=lambda: chain.from_iterable(self._generate()))

    def _generate(self) -> Iterator[str]:
        ranks: list[int] = []
        top = emitted = 0  # the largest patch rank so far; machine ranks stay <= n
        for n in count(1):
            alive = self.machines.alive_at(n)
            forbidden = frozenset(range(1, n + 1)).difference(alive)
            table, accepting = _decode_table(n)
            ranks.extend(alive)
            rows, q = _block_rows(table, max(n, top)), 0
            for m in ranks:
                q = rows[q][m]
            patch_ranks = _patch_ranks(table, accepting, q, forbidden)
            assert not (set(patch_ranks) & forbidden), "patch uses a forbidden block"
            stage_word = _blocks_text(alive + patch_ranks)
            emitted += len(stage_word)
            self._stages.append(Stage(n, alive, patch_ranks, emitted))
            ranks.extend(patch_ranks)
            top = max((top, *patch_ranks))
            yield stage_word

    def ensure_stage(self, n: int) -> Stage:
        if n < 1:
            raise IndexError("stages are 1-based")
        stages = self._stages
        while len(stages) < n:  # one symbol past the last stage runs the next ones
            self._extend_to((stages[-1].end if stages else 0) + 1)
        stage = self._stages[n - 1]
        self._extend_to(stage.end)
        return stage

    stage = ensure_stage


def theorem1_word(machines: MachineList) -> Theorem1Word:
    """The staged diagonal word for a machine list (deterministic per list)."""
    return Theorem1Word(machines)


def decide_prefix_theorem1(
    a: Dfa,
    machines: MachineList,
    word: Theorem1Word | None = None,
    on_step: Callable[[int, object], None] | None = None,
) -> Verdict:
    """Fuel-free prefix realizability along the diagonal word.

    The word's stage for the automaton's own canonical index is the latest
    point of resolution: every later symbol extends the prefix by blocks the
    stage's patch already accounted for, so if the run has not passed an
    accepting state by the end of that stage it never will.  The run reads the
    word stage by stage, each a slice of the word's buffer, and builds no stage
    past the one it resolves in, so a word passed in may hold fewer stages than
    the index after the call.  The index is computed only past stage 1, and the
    dead-lock set on the first visit to a state that is not accepting.
    ``on_step`` is called as in ``decide_prefix``.
    """
    if a.alphabet != BINARY:
        raise AlphabetMismatchError("the diagonal word is over the binary alphabet 0/1")
    w = word if word is not None else theorem1_word(machines)

    def stages() -> Iterator[list[str]]:  # chain asks for stage 2 only once stage 1 is read
        start = w.ensure_stage(1).end
        yield w._buf[:start]
        for k in range(2, encode_dfa(a) + 1):
            end = w.ensure_stage(k).end
            yield w._buf[start:end]
            start = end

    symbols = chain.from_iterable(stages())
    outcome = _resolve(a.step, a.initial, symbols, a.accepting, _dead_on_demand(a), on_step)
    if isinstance(outcome, FuelExhausted):  # the run read the word through the index's stage
        return Verdict(NO, outcome.steps_used, outcome.steps_used)
    return outcome
