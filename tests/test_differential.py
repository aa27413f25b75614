"""The library's fast paths against the benchmark's independent reference.

``bench/reference.py`` steps its own transition tables and computes its own
reverse-BFS dead-locks and limit sets without importing the library, so a
defect in a library construction cannot hide in its own check.  The bench
modules are imported in place; nothing here edits them.  Each case draws
seeded ``helpers.random_dfa`` automata over ``01`` and ``abc`` and hands the
reference the same automaton as an ``inputs.Table``.

The breadth-first searches that the library folded onto one closure and one
shortlex search are checked against test-only copies of the loops they
replaced, on seeded ``helpers.random_nfa`` draws and on parsed
``inputs.random_effective`` automata.

``regex_dfa`` builds one position automaton; it is checked against a
test-only copy of the compiler it replaced, which determinized or took a
product at every operator, on seeded ``inputs.random_regex`` patterns.

The fuel-free diagonal decider reads the word stage by stage; it is checked
against a test-only copy of the body that built the word through the
automaton's own stage first, on verdicts and on every ``on_step`` call.

The stepping kernel walks successor rows built on first use; it, the
accepted-prefix count and the brute-force scan are checked against
test-only copies of the loops that stepped a tuple-keyed transition table,
and effective automata against a copy of the table view of their
``delta``, on verdicts, ``FuelExhausted`` counts and every ``on_step`` call.

The deciders run with their fuel omitted, so each derives its own budget
from the automaton it steps; the reference runs until its verdict, and the
two must agree on the answer and its evidence position.  The definitive-word
constructions and the rr pipeline are checked the same way.

An effective decider decides each state's dead-lock status on its first
visit; that memo is checked against ``effective_dead_locks`` with the
states asked in shuffled order, on parsed automata and on morphism
reductions.  A fuel-free decider derives its bound only past a window of
symbols; it is checked against the same decider given the derived bound,
on outcomes and every ``on_step`` call, with the window at 1, 2 and its
default, and every resolution must lie within that bound.

Machine runs are generators advanced only as far as a query asks; seeded
random machines are checked against a test-only simulation from scratch for
every query, asked in shuffled order.  ``encode_dfa`` reads the index off one
exploration; it is checked against a test-only copy of the path that renamed
the symbols and relabelled a copy.  The reduction's step folds the flag rule
over an image; it is checked against a copy of the rule that read the
image's visited states.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import inputs  # noqa: E402
import reference  # noqa: E402
import realizability.decide as decide_module  # noqa: E402
import realizability.effective as effective_module  # noqa: E402
from helpers import ABC, BINARY, random_dfa, random_nfa  # noqa: E402
from realizability import (  # noqa: E402
    Alphabet,
    AlphabetMismatchError,
    AugmentedState,
    DefinitiveCertificate,
    Dfa,
    EffectiveAutomaton,
    EffectiveMorphism,
    FilterLanguage,
    Fuel,
    InfiniteWord,
    MullerAutomaton,
    Nfa,
    PassedAccepting,
    Refutation,
    brute_force_prefix_check,
    buchi_accepts_ultper,
    champernowne,
    concatenate,
    count_accepted_prefixes,
    dead_lock_states,
    decide_buchi,
    decide_buchi_infinite,
    decide_buchi_morphism,
    decide_prefix,
    decide_prefix_infinite,
    decide_prefix_morphism,
    definitive_index_sequence,
    definitive_witness,
    deadlock_accepting_variant,
    derived_fuel,
    effective_dead_locks,
    equivalent,
    filter_to_word,
    find_definitive_word,
    is_definitive,
    limit_set_ultper,
    literal_dfa,
    muller_accepts_ultper,
    parse_effective,
    reachable_closure,
    reachable_states,
    reduce_morphism_automaton,
    regex_dfa,
    relabel_bfs,
    rr_pipeline,
    star,
    union,
    universal_indexed_word,
    zero_one_blocks,
    zero_one_runs,
)
from realizability import bridge  # noqa: E402
from realizability.automata import as_dfa, nfa_of  # noqa: E402
from realizability.decide import FuelExhausted, Verdict, _resolve  # noqa: E402
from conftest import MACHINES_TEXT  # noqa: E402
from test_bridge import HALTING_TEXT  # noqa: E402
from test_effective import eager_index_sequence  # noqa: E402

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


def lasso_bfs_accepts(n: Nfa, stem: str, loop: str) -> bool:
    """The earlier two-phase lasso search: one BFS for the (state, position in
    loop) nodes reachable after the stem, then one BFS per accepting node
    looking for a path back to it."""
    after_stem = n.run_set(stem)
    period = len(loop)
    by_symbol: dict = {s: {} for s in n.alphabet}
    for (p, s, q) in n.transitions:
        by_symbol[s].setdefault(p, []).append(q)

    def successors(node):
        q, i = node
        for r in by_symbol[loop[i]].get(q, ()):
            yield (r, (i + 1) % period)

    start_nodes = [(q, 0) for q in after_stem]
    reachable = set(start_nodes)
    queue = deque(start_nodes)
    while queue:
        node = queue.popleft()
        for nxt in successors(node):
            if nxt not in reachable:
                reachable.add(nxt)
                queue.append(nxt)
    for target in [node for node in reachable if node[0] in n.accepting]:
        seen = set()
        queue = deque(successors(target))
        while queue:
            node = queue.popleft()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            queue.extend(successors(node))
    return False


@ALPHABETS
def test_buchi_acceptance_of_an_nfa(alphabet):
    rng = random.Random(905)
    symbols = "".join(alphabet.symbols)
    several_initials = accepted = asked = 0
    for _ in range(DRAWS):
        n = random_nfa(rng, max_states=5, alphabet=alphabet)
        several_initials += len(n.initials) > 1
        for _ in range(5):
            stem, loop = inputs.random_lasso(rng, symbols)
            expected = lasso_bfs_accepts(n, stem, loop)
            assert buchi_accepts_ultper(n, stem, loop) is expected, (n, stem, loop)
            accepted += expected
            asked += 1
        with pytest.raises(AlphabetMismatchError):
            buchi_accepts_ultper(n, stem + "z", loop)
    assert several_initials > 0
    assert 0 < accepted < asked


def parsed_effective(seed: int):
    rng = random.Random(seed)
    for _ in range(DRAWS):
        yield rng, parse_effective(inputs.effective_text(inputs.random_effective(rng)))


def frontier_closure(ea: EffectiveAutomaton, source: frozenset) -> frozenset:
    """The earlier closure loop: grow by the successors of the last frontier."""
    closed = set(source)
    frontier = set(source)
    while frontier:
        step = {q for q in ea.states if q not in closed and any(ea.exists_transition(p, q) for p in frontier)}
        closed |= step
        frontier = step
    return frozenset(closed)


def test_reachable_closure_on_parsed_automata():
    for rng, ea in parsed_effective(906):
        sources = [frozenset(), frozenset(rng.sample(ea.states, rng.randint(1, len(ea.states))))]
        for source in sources + [frozenset({q}) for q in ea.states]:
            assert reachable_closure(ea, source) == frontier_closure(ea, source), (ea.states, source)


def test_definitive_index_sequence_on_parsed_automata():
    # the eager fold of test_effective.py, on the benchmark's effective automata
    for _rng, ea in parsed_effective(907):
        assert definitive_index_sequence(ea) == eager_index_sequence(ea)


def agree(outcome, expected: tuple, seen: set) -> bool:
    """Does a library outcome give the reference's answer and evidence?
    Records (answer, evidence > 0), so a test can check that its draws
    reach both answers and verdicts past the start state."""
    seen.add((expected[0], expected[1] > 0))
    return (outcome.answer, outcome.evidence) == expected


@ALPHABETS
def test_deciders_along_champernowne(alphabet):
    w = champernowne(alphabet)
    ref_word = reference.Champernowne("".join(alphabet.symbols))
    seen: set = set()
    for _rng, a, t in draws(908, alphabet):
        assert agree(decide_prefix(a, w), reference.prefix_verdict(t, ref_word), seen)
        assert agree(decide_buchi(a, w), reference.buchi_verdict(t, ref_word), seen)
    assert {("Yes", True), ("No", True), ("Yes", False), ("No", False)} <= seen


@pytest.mark.parametrize("kind", ["runs", "blocks", "periodic"])
def test_morphism_deciders(kind):
    w, universal = universal_indexed_word(), reference.Universal()
    fixed = {"runs": (inputs.RUNS, zero_one_runs()), "blocks": (inputs.BLOCKS, zero_one_blocks())}
    seen: set = set()
    for rng, a, t in draws(909, BINARY):
        if kind in fixed:
            spec, phi = fixed[kind]
        else:
            spec = inputs.random_periodic(rng)
            phi = EffectiveMorphism.index_periodic(spec[1], BINARY)
        for decide, buchi in ((decide_prefix_morphism, False), (decide_buchi_morphism, True)):
            assert agree(decide(a, phi, w), reference.morphism_verdict(t, spec, universal, buchi), seen)
    assert {("Yes", True), ("No", True), ("Yes", False), ("No", False)} <= seen


def test_effective_deciders_on_parsed_automata():
    rng = random.Random(910)
    w, universal = universal_indexed_word(), reference.Universal()
    seen: set = set()
    for _ in range(DRAWS):
        e = inputs.random_effective(rng)
        ea = parse_effective(inputs.effective_text(e))
        assert agree(decide_prefix_infinite(ea, w), reference.effective_verdict(e, universal, False), seen)
        assert agree(decide_buchi_infinite(ea, w), reference.effective_verdict(e, universal, True), seen)
    assert {("Yes", True), ("No", True), ("Yes", False), ("No", False)} <= seen


def reference_form(a: Dfa, certificate: DefinitiveCertificate) -> list:
    """A library certificate's per-start outcomes as ``reference.definitive_outcomes`` lists them."""
    return [
        ("pass", o.position) if isinstance(o, PassedAccepting) else ("dead", int(o.state[1:]))
        for o in map(certificate.outcomes.__getitem__, a.states)
    ]


@ALPHABETS
def test_definitive_words(alphabet):
    longest = 4 if alphabet == BINARY else 3
    definitive = refuted = 0
    for _rng, a, t in draws(911, alphabet):
        assert reference.is_definitive(t, "".join(find_definitive_word(a)))
        assert "".join(definitive_witness(a)) == reference.least_definitive(t)
        for w in reference.words_upto(t.symbols, longest):
            expected = reference.definitive_outcomes(t, w)
            outcome = is_definitive(a, w)
            if None in expected:  # the library names the first refuted start state
                assert outcome == Refutation(f"s{expected.index(None)}"), (a, w)
                refuted += 1
            else:
                assert reference_form(a, outcome) == expected, (a, w)
                definitive += 1
    assert definitive and refuted


def as_dfa_of(t: inputs.Table) -> Dfa:
    """The library's view of a reference table over ``01``: state ``i`` is ``s<i>``."""
    states = tuple(f"s{q}" for q in range(t.n))
    delta = {(f"s{q}", s): f"s{t.step(q, s)}" for q in range(t.n) for s in t.symbols}
    return Dfa(BINARY, states, delta, "s0", names(t.accepting))


@pytest.mark.parametrize("f", range(len(inputs.FILTERS)))
def test_rr_pipeline_on_the_benchmark_filters(f):
    table = inputs.FILTERS[f]
    lang = FilterLanguage.from_dfa(as_dfa_of(table))
    enum, universal = reference.Enumeration(table), reference.Universal()
    seen: set = set()
    for t in inputs.all_tables("01", 1) + inputs.all_tables("01", 2):
        assert agree(rr_pipeline(as_dfa_of(t), lang), reference.rr_verdict(t, table, enum, universal), seen), t
    assert {("Yes", True), ("No", False)} <= seen


def per_operator_regex_dfa(pattern: str, alphabet) -> Dfa:
    """The earlier compiler: one deterministic automaton per operator, by
    subset construction or product, never minimized."""
    pos = 0

    def peek():
        return pattern[pos] if pos < len(pattern) else None

    def take():
        nonlocal pos
        pos += 1
        return pattern[pos - 1]

    def parse_expr():
        out = parse_term()
        while peek() == "|":
            take()
            out = union(out, parse_term())
        return out

    def parse_term():
        out = literal_dfa((), alphabet)
        while peek() not in (None, "|", ")"):
            out = as_dfa(concatenate(out, parse_factor()))
        return out

    def parse_factor():
        atom = parse_atom()
        while peek() in ("*", "+", "?"):
            op = take()
            if op == "*":
                atom = as_dfa(star(atom))
            elif op == "+":
                atom = as_dfa(concatenate(atom, star(atom)))
            else:
                atom = union(atom, literal_dfa((), alphabet))
        return atom

    def parse_atom():
        c = take()
        if c == "(":
            inner = parse_expr()
            assert take() == ")"
            return inner
        if c == ".":
            out = literal_dfa(alphabet.symbols[:1], alphabet)
            for s in alphabet.symbols[1:]:
                out = union(out, literal_dfa((s,), alphabet))
            return out
        return literal_dfa((c,), alphabet)

    out = parse_expr()
    assert pos == len(pattern)
    return relabel_bfs(out, prefix="r", start=0)


@ALPHABETS
def test_regex_position_automaton_against_per_operator_chain(alphabet):
    rng = random.Random(907)
    symbols = "".join(alphabet.symbols)
    smaller = 0
    for _ in range(500):
        pattern = inputs.random_regex(rng, symbols)
        new, old = regex_dfa(pattern, alphabet), per_operator_regex_dfa(pattern, alphabet)
        assert equivalent(new, old), pattern
        assert len(new.states) <= len(old.states), pattern
        smaller += len(new.states) < len(old.states)
    assert smaller > 0


def eager_decide_prefix_theorem1(a: Dfa, machines, word=None, on_step=None):
    """The earlier fuel-free diagonal decider: build the word through the
    automaton's own stage, then run it along that prefix."""
    w = word if word is not None else bridge.theorem1_word(machines)
    stage = w.ensure_stage(bridge.encode_dfa(a))
    symbols = islice(w.iter_from(1), stage.end)
    outcome = _resolve(a.step, a.initial, symbols, a.accepting, dead_lock_states(a).__contains__, on_step)
    return Verdict("No", stage.end, stage.end) if isinstance(outcome, FuelExhausted) else outcome


def traced(decider, a: Dfa, machines, word=None):
    steps: list = []
    return decider(a, machines, word, lambda n, q: steps.append((n, q))), steps


MACHINE_TEXTS = pytest.mark.parametrize("text", [MACHINES_TEXT, HALTING_TEXT], ids=["gate", "halting"])


@MACHINE_TEXTS
def test_theorem1_decider_against_the_eager_body(text):
    machines = bridge.parse_machines(text)
    built = bridge.theorem1_word(machines)  # holds every stage the eager runs asked for
    indices = [*range(1, 67), *sorted(random.Random(1701).sample(range(67, 201), 12))]
    for i in indices:
        a = bridge.decode_dfa(i)
        expected = traced(eager_decide_prefix_theorem1, a, machines, built)
        assert traced(bridge.decide_prefix_theorem1, a, machines) == expected, i
        assert traced(bridge.decide_prefix_theorem1, a, machines, built) == expected, i


@MACHINE_TEXTS
def test_theorem1_decider_unresolved_through_its_stage(text, monkeypatch):
    # from q1, 0 accepts and 1 0^m 1 returns to q1, so no block word resolves
    # the run; its own stage (4,887) is far too long to build in a test, so
    # both deciders are told a small index and must answer No at its end
    a = bridge.decode_dfa(4887)
    machines = bridge.parse_machines(text)
    monkeypatch.setattr(bridge, "encode_dfa", lambda _: 12)
    end = bridge.theorem1_word(machines).ensure_stage(12).end
    verdict, steps = traced(bridge.decide_prefix_theorem1, a, machines)
    assert (verdict, len(steps)) == (Verdict("No", end, end), end + 1)
    assert (verdict, steps) == traced(eager_decide_prefix_theorem1, a, machines)


def tuple_keyed_resolve(table, q, symbols, accepting, dead, on_step=None):
    """The earlier kernel: ``table[state, symbol]`` looked up at every step."""
    if on_step is not None:
        on_step(0, q)
    if q in accepting:
        return Verdict("Yes", 0, 0)
    if q in dead:
        return Verdict("No", 0, 0)
    n = 0
    for n, s in enumerate(symbols, start=1):
        q = table[q, s]
        if on_step is not None:
            on_step(n, q)
        if q in accepting:
            return Verdict("Yes", n, n)
        if q in dead:
            return Verdict("No", n, n)
    return FuelExhausted(n)


def tuple_keyed_brute_force(a: Dfa, w, upto: int):
    q = a.initial
    if q in a.accepting:
        return 0
    n = 0
    for s in w.iter_from(1):
        if n >= upto:
            return None
        n += 1
        q = a.delta[q, s]
        if q in a.accepting:
            return n
    return None


def tuple_keyed_count(a: Dfa, w, upto: int) -> int:
    q = a.initial
    total = 1 if q in a.accepting else 0
    for s in islice(w.iter_from(1), max(upto, 0)):
        q = a.delta[q, s]
        if q in a.accepting:
            total += 1
    return total


class DeltaTable:
    """The earlier table view of an effective automaton: ``ea.delta(index, state)`` at every step."""

    def __init__(self, delta):
        self.delta = delta

    def __getitem__(self, key):
        return self.delta(key[1], key[0])


def traced_run(run) -> tuple:
    """``run(on_step)``'s outcome and every ``on_step`` call it made."""
    steps: list = []
    return run(lambda n, q: steps.append((n, q))), steps


def fuels_around(resolved_at: int, rng: random.Random) -> list[int]:
    """Fuels that end before, at and after a resolution (or exhaustion) position."""
    around = {max(1, resolved_at - 1), max(1, resolved_at), resolved_at + 1}
    return sorted({1, rng.randint(1, 3 * resolved_at + 3)} | around)


@ALPHABETS
def test_kernel_against_the_tuple_keyed_loop(alphabet):
    w = champernowne(alphabet)

    def stretch(fuel):
        return islice(w.iter_from(1), fuel)

    seen: set = set()
    for rng, a, _t in draws(911, alphabet):
        # the deciders' own dead-locks, and an arbitrary set that may overlap the accepting one
        dead_locks = dead_lock_states(a)
        arbitrary = frozenset(rng.sample(a.states, rng.randint(0, len(a.states))))
        for dead in (dead_locks, arbitrary):
            reach = tuple_keyed_resolve(a.delta, a.initial, stretch(2_000), a.accepting, dead)
            for fuel in fuels_around(reach.steps_used, rng):
                old = traced_run(lambda f: tuple_keyed_resolve(a.delta, a.initial, stretch(fuel), a.accepting, dead, f))
                new = traced_run(lambda f: _resolve(a.step, a.initial, stretch(fuel), a.accepting, dead.__contains__, f))
                assert new == old, (a, dead, fuel)
                if dead is dead_locks:
                    assert traced_run(lambda f: decide_prefix(a, w, fuel, f)) == old, (a, fuel)
                seen.add((type(old[0]).__name__, getattr(old[0], "answer", None), old[0].steps_used > 0))
    assert {("Verdict", "Yes", True), ("Verdict", "No", True), ("FuelExhausted", None, True)} <= seen
    assert {("Verdict", "Yes", False), ("Verdict", "No", False)} <= seen


@ALPHABETS
def test_count_and_brute_force_against_the_tuple_keyed_loops(alphabet):
    w = champernowne(alphabet)
    found = 0
    for rng, a, _t in draws(912, alphabet):
        first = tuple_keyed_brute_force(a, w, 3_000)
        found += first is not None and first > 0
        uptos = {-1, 0, 1, rng.randint(2, 3_000)} | ({first - 1, first, first + 1} if first else set())
        for upto in sorted(uptos):
            assert brute_force_prefix_check(a, w, upto) == tuple_keyed_brute_force(a, w, upto), (a, upto)
            assert count_accepted_prefixes(a, w, upto) == tuple_keyed_count(a, w, upto), (a, upto)
    assert found > 0


def test_brute_force_reads_past_its_window_like_the_tuple_keyed_loop():
    # a word whose source ends after the first 64-symbol slice shows how far each scan reads
    a = Dfa(BINARY, ("s0",), {("s0", "0"): "s0", ("s0", "1"): "s0"}, "s0", frozenset())
    for scan in (brute_force_prefix_check, tuple_keyed_brute_force):
        assert scan(a, InfiniteWord(BINARY, source=lambda: iter("01" * 32)), 63) is None
        with pytest.raises(RuntimeError, match="word source ended"):
            scan(a, InfiniteWord(BINARY, source=lambda: iter("01" * 32)), 64)


def test_effective_kernel_against_the_delta_table():
    w = universal_indexed_word()
    seen: set = set()
    for rng, ea in parsed_effective(913):
        asked: list = []

        def delta(k, q, ea=ea):
            asked.append((k, q))
            return ea.delta(k, q)

        counted = EffectiveAutomaton(ea.states, delta, ea.exists_transition, ea.initial, ea.accepting)
        dead = effective_dead_locks(ea)
        reach = tuple_keyed_resolve(
            DeltaTable(ea.delta), ea.initial, islice(w.iter_from(1), derived_fuel(ea, w).max_steps), ea.accepting, dead
        )
        for fuel in fuels_around(reach.steps_used, rng):
            asked.clear()
            old = traced_run(
                lambda f: tuple_keyed_resolve(
                    DeltaTable(ea.delta), ea.initial, islice(w.iter_from(1), fuel), ea.accepting, dead, f
                )
            )
            assert traced_run(lambda f: decide_prefix_infinite(counted, w, fuel, f)) == old, (ea.states, fuel)
            assert len(asked) == len(set(asked))  # each transition taken is asked for once
            seen.add((type(old[0]).__name__, getattr(old[0], "answer", None)))
    assert {("Verdict", "Yes"), ("Verdict", "No"), ("FuelExhausted", None)} <= seen


def reductions(seed: int, draws: int):
    """Reductions of seeded ``random_dfa`` draws by the two built-in morphisms,
    a random index-periodic one and the filter morphism of each benchmark filter."""
    rng = random.Random(seed)
    fixed = [(zero_one_runs(), BINARY), (zero_one_blocks(), BINARY)]
    for table in inputs.FILTERS:
        phi, _image = filter_to_word(FilterLanguage.from_dfa(as_dfa_of(table)))
        fixed.append((phi, phi.alphabet))
    for i in range(draws):
        if i % 4 == 2:
            phi, alphabet = EffectiveMorphism.index_periodic(inputs.random_periodic(rng)[1], BINARY), BINARY
        else:
            phi, alphabet = fixed[i % len(fixed)]
        yield rng, reduce_morphism_automaton(random_dfa(rng, max_states=3, alphabet=alphabet), phi)


def effective_draws(seed: int):
    """Parsed ``inputs.random_effective`` automata, then morphism reductions."""
    yield from parsed_effective(seed)
    yield from reductions(seed, DRAWS // 2)


def test_dead_lock_status_on_demand_against_the_closure():
    for rng, ea in effective_draws(914):
        asked = rng.sample(ea.states, len(ea.states))
        is_dead = effective_module._dead_lock_status(ea)
        assert frozenset(q for q in asked if is_dead(q)) == effective_dead_locks(ea), (ea.states, asked)
        assert [is_dead(q) for q in asked] == [q in effective_dead_locks(ea) for q in asked]  # remembered


DEFAULT_WINDOW = decide_module._WINDOW
WINDOWS = pytest.mark.parametrize("window", [1, 2, DEFAULT_WINDOW])


@WINDOWS
def test_fuel_free_effective_deciders_against_the_derived_bound(window, monkeypatch):
    monkeypatch.setattr(decide_module, "_WINDOW", window)
    w = universal_indexed_word()
    crossed = 0
    for _rng, ea in effective_draws(915):
        variant = ea.with_accepting(effective_dead_locks(ea))
        for decide, stepped in ((decide_prefix_infinite, ea), (decide_buchi_infinite, variant)):
            bound = derived_fuel(stepped, w)
            free = traced_run(lambda f: decide(ea, w, None, f))
            assert free == traced_run(lambda f: decide(ea, w, bound, f)), (ea.states, decide.__name__)
            assert isinstance(free[0], Verdict) and free[0].evidence <= bound.max_steps
            crossed += free[0].evidence > window
    assert crossed  # one draw resolves at 18,556, past every window


@WINDOWS
@ALPHABETS
def test_fuel_free_deciders_against_the_derived_bound(alphabet, window, monkeypatch):
    monkeypatch.setattr(decide_module, "_WINDOW", window)
    w = champernowne(alphabet)
    crossed = 0
    for _rng, a, _t in draws(916, alphabet):
        for decide, stepped in ((decide_prefix, a), (decide_buchi, deadlock_accepting_variant(a))):
            bound = Fuel(max(1, w.occurrence_bound(find_definitive_word(stepped))))
            free = traced_run(lambda f: decide(a, w, None, f))
            assert free == traced_run(lambda f: decide(a, w, bound, f)), (a, decide.__name__)
            assert isinstance(free[0], Verdict) and free[0].evidence <= bound.max_steps
            crossed += free[0].evidence > window
    assert crossed or window == DEFAULT_WINDOW


def random_machines_text(rng: random.Random) -> tuple[str, list]:
    """One to four machines on states s0..s3, tape symbols ``_ x`` and moves ``L R S``; each
    (state, read) rule is present with probability 0.8, so some machines halt and some loop.
    Returns the machine file and each machine's (start, rules) for the reference."""
    text, specs = "", []
    for m in range(rng.randint(1, 4)):
        states = [f"s{i}" for i in range(rng.randint(2, 4))]
        rules = {
            (q, read): (rng.choice("_x"), rng.choice("LRS"), rng.choice(states))
            for q in states
            for read in "_x"
            if rng.random() < 0.8
        }
        text += f"machine: m{m}\nstart: s0\n" + "".join(
            f"trans: {q} {read} {write} {move} {nxt}\n" for (q, read), (write, move, nxt) in rules.items()
        )
        specs.append(("s0", rules))
    return text, specs


def halts_from_scratch(spec, n: int) -> bool:
    """Does the machine reach a (state, read) pair without a rule within n steps, simulated afresh?"""
    state, rules = spec
    head, tape = 0, {}
    for _ in range(n):
        if (state, tape.get(head, "_")) not in rules:
            return True
        tape[head], move, state = rules[state, tape.get(head, "_")]
        head += {"L": -1, "R": 1, "S": 0}[move]
    return (state, tape.get(head, "_")) not in rules


def test_machine_runs_against_a_simulation_from_scratch():
    rng = random.Random(917)
    seen = set()
    for _ in range(60):
        text, specs = random_machines_text(rng)

        def halts(k: int, n: int) -> bool:  # machines past the list never halt
            return k <= len(specs) and halts_from_scratch(specs[k - 1], n)

        machines = bridge.parse_machines(text)
        queries = [(k, n) for k in range(1, len(specs) + 2) for n in range(81)]
        rng.shuffle(queries)
        for k, n in queries:
            assert machines.halts_within(k, n) == halts(k, n), (text, k, n)
            seen.add((halts(k, n), n > 0))
        fresh = bridge.parse_machines(text)
        for n in rng.sample(range(81), 81):
            assert fresh.alive_at(n) == tuple(k for k in range(1, n + 1) if not halts(k, n)), (text, n)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def encode_by_relabelled_copy(a: Dfa) -> int:
    """Canonical index as read off a renamed, then breadth-first relabelled copy of ``a``."""
    canon = a
    if not bridge._is_canonical(a):
        symbols = a.alphabet.symbols
        rename = dict(zip(symbols, symbols if set(symbols) == set(BINARY) else BINARY.symbols))
        delta = {(q, rename[s]): a.delta[q, s] for q in a.states for s in a.alphabet}
        canon = relabel_bfs(Dfa(BINARY, a.states, delta, a.initial, a.accepting))
    s = len(canon.states)
    position = {q: j for j, q in enumerate(canon.states)}
    table_rank = 0
    for q in canon.states:
        for sym in BINARY:
            table_rank = table_rank * s + position[canon.delta[q, sym]]
    mask = sum(1 << j for j, q in enumerate(canon.states) if q in canon.accepting)
    return sum(bridge.canonical_state_count_block(k) for k in range(1, s)) + (table_rank << s) + mask + 1


@pytest.mark.parametrize("symbols", ["01", "10", "ab", "ba"])
def test_encode_dfa_against_the_relabelled_copy(symbols):
    rng = random.Random(918)
    alphabet = Alphabet(tuple(symbols))
    pool = ["q1", "q2", "q3", "q4", "p", "zz", "7", "q0"]
    shapes = set()
    for _ in range(DRAWS):
        drawn = random_dfa(rng, max_states=4, alphabet=alphabet)
        # a name pool in order, seven times in ten shuffled: q1 q2 ... with s0 initial is canonical
        rename = dict(zip(drawn.states, rng.sample(pool, len(drawn.states)) if rng.random() < 0.7 else pool))
        a = Dfa(
            alphabet,
            tuple(rename[q] for q in drawn.states),
            {(rename[q], s): rename[r] for (q, s), r in drawn.delta.items()},
            rename[drawn.initial],
            frozenset(rename[q] for q in drawn.accepting),
        )
        assert bridge.encode_dfa(a) == encode_by_relabelled_copy(a), a
        shapes.add((bridge._is_canonical(a), len(reachable_states(a)) < len(a.states)))
    assert shapes >= {(False, True), (False, False)}
    assert symbols != "01" or (True, False) in shapes


def visited_rule(a: Dfa, phi: EffectiveMorphism, k: int, p: AugmentedState) -> AugmentedState:
    """The reduction's step as the visited states of the image's run, endpoints included."""
    visited = a.visited(phi.image(k), start=p.base)
    return AugmentedState(visited[-1], 1 if any(v in a.accepting for v in visited) else 0)


@pytest.mark.parametrize("kind", ["runs", "blocks", "periodic"])
def test_reduction_step_against_the_visited_rule(kind):
    rng = random.Random(919)
    fixed = {"runs": zero_one_runs(), "blocks": zero_one_blocks()}
    bits = set()
    for _ in range(DRAWS // 4):
        a = random_dfa(rng, max_states=4)
        phi = fixed.get(kind) or EffectiveMorphism.index_periodic(inputs.random_periodic(rng)[1], BINARY)
        ea = reduce_morphism_automaton(a, phi)
        for k in range(1, 41):
            for p in ea.states:
                got, expected = ea.delta(k, p), visited_rule(a, phi, k, p)
                assert repr(got) == repr(expected), (a, k, p)  # the bit is the int 0 or 1
                bits.add(got.bit)
    assert bits == {0, 1}


def test_reduction_step_rejects_an_image_outside_the_alphabet():
    a = random_dfa(random.Random(920), max_states=3)
    phi = EffectiveMorphism(BINARY, lambda k: ("0", "2"), lambda r: True)
    ea = reduce_morphism_automaton(a, phi)
    with pytest.raises(AlphabetMismatchError):
        ea.delta(1, ea.initial)
