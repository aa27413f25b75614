"""Effective automata over the countable indexed alphabet."""

from __future__ import annotations

import functools
import math
import random
import sys
from collections import deque

import pytest

import realizability.decide as decide_module
import realizability.effective as effective_module
from helpers import BINARY, failure, random_dfa, random_nfa
from realizability import (
    Alphabet,
    AlphabetMismatchError,
    AugmentedState,
    Dfa,
    EffectiveAutomaton,
    EffectiveMorphism,
    EffectiveFormatError,
    FilterLanguage,
    FuelExhausted,
    IndexSet,
    Verdict,
    decide_buchi_infinite,
    decide_buchi_morphism,
    decide_prefix_infinite,
    decide_prefix_morphism,
    definitive_index_sequence,
    concatenate,
    delta_relation,
    derived_fuel,
    determinize,
    difference,
    effective_dead_locks,
    effective_from_index_sets,
    empty_language,
    filter_to_word,
    find_transition_witness,
    indexed_periodic,
    parse_effective,
    reachable_closure,
    reduce_morphism_automaton,
    regex_dfa,
    rr_pipeline,
    union,
    universal_indexed_word,
    zero_one_blocks,
    zero_one_runs,
)

FIXTURE_TEXT = """
states: q0 q1
initial: q0
accepting: q1
etrans: q0 q0 0%2
etrans: q0 q1 1%2
etrans: q1 q1 all
"""


# q0 is accepting and index 4, first read at position 103 of the universal
# word, moves it into the dead-lock q1: infinitely many accepted prefixes is
# No at 103.  The automaton's own definitive sequence (empty: q0 accepts)
# gives fuel 1; the dead-lock-accepting variant's gives enough.
BUCHI_FUEL_CASE = """\
states: q0 q1
initial: q0
accepting: q0
etrans: q0 q0 0%1 -4
etrans: q0 q1 +4
etrans: q1 q1 0%2
etrans: q1 q1 1%2
"""


def parity_automaton(accepting: frozenset[str]) -> EffectiveAutomaton:
    """Odd indices move q0 to q1; q1 absorbs everything."""
    rules = {
        "q0": [(IndexSet(((0, 2),)), "q0"), (IndexSet(((1, 2),)), "q1")],
        "q1": [(IndexSet(((0, 1),)), "q1")],
    }
    return effective_from_index_sets(("q0", "q1"), rules, "q0", accepting)


class TestIndexSet:
    def test_progression_membership(self):
        evens = IndexSet(((0, 2),))
        assert 2 in evens and 4 in evens
        assert 1 not in evens and 3 not in evens
        assert 0 not in evens  # indices are positive

    def test_include_and_exclude(self):
        s = IndexSet(((0, 2),), include=frozenset({7}), exclude=frozenset({4}))
        assert 7 in s
        assert 4 not in s
        assert 2 in s

    def test_overlapping_include_exclude_rejected(self):
        with pytest.raises(ValueError):
            IndexSet((), frozenset({3}), frozenset({3}))

    def test_bad_progression_rejected(self):
        with pytest.raises(ValueError):
            IndexSet(((2, 2),))
        with pytest.raises(ValueError):
            IndexSet(((0, 0),))

    def test_is_empty(self):
        assert IndexSet().is_empty()
        assert not IndexSet(((0, 2),)).is_empty()
        assert not IndexSet((), include=frozenset({5})).is_empty()

    @pytest.mark.parametrize(
        "include, exclude", [({0}, set()), ({-3}, set()), (set(), {0}), ({2}, {-1})], ids=["+0", "+-3", "-0", "--1"]
    )
    def test_indices_below_one_rejected(self, include, exclude):
        # is_empty would count such an index while __contains__ never matches it
        with pytest.raises(ValueError, match="indices are 1-based"):
            IndexSet((), frozenset(include), frozenset(exclude))

    def test_parse_tokens(self):
        s = IndexSet.parse(["1%3", "+10", "-4"])
        assert s == IndexSet(((1, 3),), frozenset({10}), frozenset({4}))
        assert IndexSet.parse(["all"]) == IndexSet(((0, 1),))
        with pytest.raises(ValueError):
            IndexSet.parse(["garbage"])

    def test_shared_index_examples(self):
        assert IndexSet(((0, 1),)).shared_index(IndexSet(((0, 1),))) == 1
        assert IndexSet(((0, 2),)).shared_index(IndexSet(((1, 2),))) is None
        assert IndexSet(((1, 4),)).shared_index(IndexSet(((3, 6),))) == 9
        assert IndexSet(((1, 4),)).shared_index(IndexSet(((2, 6),))) is None
        assert IndexSet(((0, 1),), exclude=frozenset({4})).shared_index(IndexSet((), frozenset({4}))) is None
        assert IndexSet(((0, 3),), exclude=frozenset({3, 6})).shared_index(IndexSet(((0, 1),))) == 9

    def test_shared_index_against_membership(self):
        rng = random.Random(808)

        def draw() -> IndexSet:
            progressions = tuple(
                (rng.randrange(m), m) for m in (rng.randint(1, 6) for _ in range(rng.randint(0, 2)))
            )
            include = frozenset(rng.sample(range(1, 25), rng.randint(0, 2)))
            exclude = frozenset(rng.sample(range(1, 25), rng.randint(0, 4))) - include
            return IndexSet(progressions, include, exclude)

        overlapping = 0
        for _ in range(2000):
            a, b = draw(), draw()
            moduli = [m for _, m in a.progressions + b.progressions]
            upto = max(a.include | a.exclude | b.include | b.exclude, default=0) + math.lcm(*moduli)
            shared = [k for k in range(1, upto + 1) if k in a and k in b]
            assert a.shared_index(b) == (shared[0] if shared else None), (a, b)
            assert b.shared_index(a) == a.shared_index(b)
            overlapping += bool(shared)
        assert 200 < overlapping < 1800


class TestEffectiveStructure:
    def test_delta_relation(self):
        ea = parity_automaton(frozenset({"q1"}))
        assert delta_relation(ea, frozenset({"q0"})) == frozenset({"q0", "q1"})
        assert delta_relation(ea, frozenset({"q1"})) == frozenset({"q1"})

    def test_reachable_closure(self):
        ea = parity_automaton(frozenset({"q1"}))
        assert reachable_closure(ea, frozenset({"q0"})) == frozenset({"q0", "q1"})
        assert reachable_closure(ea, frozenset({"q1"})) == frozenset({"q1"})

    def test_dead_locks(self):
        assert effective_dead_locks(parity_automaton(frozenset({"q1"}))) == frozenset()
        assert effective_dead_locks(parity_automaton(frozenset())) == frozenset({"q0", "q1"})
        # q0 accepting, q1 not: q1 can never come back
        assert effective_dead_locks(parity_automaton(frozenset({"q0"}))) == frozenset({"q1"})

    def test_unknown_initial_rejected(self):
        with pytest.raises(ValueError):
            EffectiveAutomaton(("q0",), lambda k, q: q, lambda p, q: True, "ghost", frozenset())

    def test_transition_witness(self):
        ea = parity_automaton(frozenset({"q1"}))
        assert find_transition_witness(ea, "q0", "q1") == 1
        assert find_transition_witness(ea, "q0", "q0") == 2
        with pytest.raises(ValueError):
            ea2 = parity_automaton(frozenset({"q0"}))
            find_transition_witness(ea2, "q1", "q0")


class TestDecideInfinite:
    def test_yes_on_first_odd_index(self):
        ea = parity_automaton(frozenset({"q1"}))
        w = universal_indexed_word()  # starts 1, 2, 1, 1, ...
        assert decide_prefix_infinite(ea, w, 100) == Verdict("Yes", 1, 1)

    def test_no_at_zero_when_nothing_accepts(self):
        ea = parity_automaton(frozenset())
        w = universal_indexed_word()
        assert decide_prefix_infinite(ea, w, 100) == Verdict("No", 0, 0)

    def test_no_on_dead_lock_entry(self):
        ea = parity_automaton(frozenset({"q0"}))
        w = indexed_periodic((2, 1))  # even first: stays at accepting q0... so Yes at 0
        assert decide_prefix_infinite(ea, w, 100) == Verdict("Yes", 0, 0)
        # odd indices lead into an absorbing non-accepting state
        rules = {
            "q0": [(IndexSet(((1, 2),)), "q1"), (IndexSet(((0, 2),)), "q2")],
            "q1": [(IndexSet(((0, 1),)), "q1")],
            "q2": [(IndexSet(((0, 1),)), "q2")],
        }
        ea2 = effective_from_index_sets(("q0", "q1", "q2"), rules, "q0", frozenset({"q2"}))
        outcome = decide_prefix_infinite(ea2, indexed_periodic((1,)), 100)
        assert outcome == Verdict("No", 1, 1)

    def test_budget_past_maxsize_reads_unbounded(self):
        ea = parity_automaton(frozenset({"q1"}))
        w = indexed_periodic((2, 4, 1))
        assert decide_prefix_infinite(ea, w, sys.maxsize + 1) == Verdict("Yes", 3, 3)
        assert decide_buchi_infinite(ea, w, 10**30) == Verdict("Yes", 0, 0)

    def test_fuel_exhaustion(self):
        ea = parity_automaton(frozenset({"q1"}))
        evens = indexed_periodic((2, 4))
        assert decide_prefix_infinite(ea, evens, 6) == FuelExhausted(6)

    def test_derived_fuel_resolves_on_universal_word(self):
        w = universal_indexed_word()
        for accepting in (frozenset({"q1"}), frozenset({"q0"}), frozenset()):
            ea = parity_automaton(accepting)
            outcome = decide_prefix_infinite(ea, w, derived_fuel(ea, w))
            assert isinstance(outcome, Verdict)

    def test_derived_fuel_requires_bound(self):
        ea = parity_automaton(frozenset({"q1"}))
        with pytest.raises(ValueError):
            derived_fuel(ea, indexed_periodic((1,)))
        for decide in (decide_prefix_infinite, decide_buchi_infinite):
            with pytest.raises(ValueError, match="no occurrence bound"):
                decide(ea, indexed_periodic((1,)))

    def test_omitted_fuel_is_derived_from_the_stepped_automaton(self):
        rng = random.Random(441)
        w = universal_indexed_word()
        for phi in (zero_one_runs(), zero_one_blocks()):
            for _ in range(20):
                a = random_dfa(rng, max_states=3)
                ea = reduce_morphism_automaton(a, phi)
                variant = ea.with_accepting(effective_dead_locks(ea))
                prefix = decide_prefix_infinite(ea, w, derived_fuel(ea, w))
                buchi = decide_buchi_infinite(ea, w, derived_fuel(variant, w))
                assert decide_prefix_infinite(ea, w) == decide_prefix_morphism(a, phi, w) == prefix
                assert decide_buchi_infinite(ea, w) == decide_buchi_morphism(a, phi, w) == buchi

    def test_buchi_fuel_comes_from_the_variant(self):
        ea = parse_effective(BUCHI_FUEL_CASE)
        w = universal_indexed_word()
        assert derived_fuel(ea, w).max_steps == 1
        assert decide_buchi_infinite(ea, w, derived_fuel(ea, w)) == FuelExhausted(1)
        assert decide_buchi_infinite(ea, w) == Verdict("No", 103, 103)

    def test_omitted_fuel_reuses_the_dead_lock_set(self, monkeypatch):
        # one dead-lock memo per stepped automaton, which the fuel derived past
        # the window (one symbol here) reuses; for Büchi one closure more, the
        # original's, to build the variant
        closures: list[EffectiveAutomaton] = []
        memos: list = []
        folds: list = []
        status, fold = effective_module._dead_lock_status, effective_module._index_sequence

        def counted(ea: EffectiveAutomaton) -> frozenset:
            closures.append(ea)
            return effective_dead_locks(ea)

        def memo(ea: EffectiveAutomaton):
            memos.append(status(ea))
            return memos[-1]

        def folded(ea: EffectiveAutomaton, is_dead) -> tuple[int, ...]:
            folds.append(is_dead)
            return fold(ea, is_dead)

        monkeypatch.setattr(effective_module, "effective_dead_locks", counted)
        monkeypatch.setattr(effective_module, "_dead_lock_status", memo)
        monkeypatch.setattr(effective_module, "_index_sequence", folded)
        monkeypatch.setattr(decide_module, "_WINDOW", 1)
        w, phi = universal_indexed_word(), zero_one_runs()
        a = regex_dfa("0*1", BINARY)
        ea = parse_effective(BUCHI_FUEL_CASE)
        lang = FilterLanguage.from_dfa(regex_dfa("0+", BINARY))
        decisions = {  # decision: (closures, folds); the first resolves at 0, inside the window
            "prefix_infinite": (lambda: decide_prefix_infinite(ea, w), 0, 0),
            "buchi_infinite": (lambda: decide_buchi_infinite(ea, w), 1, 1),
            "prefix_morphism": (lambda: decide_prefix_morphism(a, phi, w), 0, 1),
            "buchi_morphism": (lambda: decide_buchi_morphism(a, phi, w), 1, 1),
            "rr_pipeline": (lambda: rr_pipeline(regex_dfa("00", BINARY), lang), 0, 1),
        }
        for name, (decide, expected_closures, expected_folds) in decisions.items():
            closures.clear(), memos.clear(), folds.clear()
            assert isinstance(decide(), Verdict), name
            assert (len(closures), len(memos), len(folds)) == (expected_closures, 1, expected_folds), name
            assert all(is_dead is memos[0] for is_dead in folds), name

    def test_fuel_is_derived_only_for_runs_past_the_window(self, monkeypatch):
        folds: list[EffectiveAutomaton] = []
        fold = effective_module._index_sequence
        monkeypatch.setattr(effective_module, "_index_sequence", lambda ea, is_dead: folds.append(ea) or fold(ea, is_dead))
        # index 6 first occurs at 18,556, past the 4,096-symbol window
        late = parse_effective(FIXTURE_TEXT.replace("0%2", "0%1 -6").replace("1%2", "+6"))
        w = universal_indexed_word()
        for ea, outcome, derived in ((parse_effective(FIXTURE_TEXT), Verdict("Yes", 1, 1), 0),
                                     (late, Verdict("Yes", 18556, 18556), 1)):
            folds.clear()
            assert decide_prefix_infinite(ea, w) == outcome
            assert len(folds) == derived

    def test_validation_comes_before_the_closure(self, monkeypatch):
        calls: list[EffectiveAutomaton] = []
        monkeypatch.setattr(effective_module, "effective_dead_locks", lambda ea: calls.append(ea) or frozenset())
        ea = parse_effective(FIXTURE_TEXT)
        for decide in (decide_prefix_infinite, decide_buchi_infinite):
            assert failure(lambda: decide(ea, universal_indexed_word(), 0)) == (ValueError, "fuel must be positive")
        assert calls == []

    def test_buchi_infinite(self):
        w = universal_indexed_word()
        # accepting q0: the run eventually falls into q1 and stays
        ea = parity_automaton(frozenset({"q0"}))
        outcome = decide_buchi_infinite(ea, w, derived_fuel(ea.with_accepting(frozenset({"q1"})), w))
        assert isinstance(outcome, Verdict)
        assert outcome.answer == "No"
        assert outcome.evidence == 1  # the first odd index commits the run
        # accepting q1: absorbing accepting state keeps hitting forever
        ea2 = parity_automaton(frozenset({"q1"}))
        assert decide_buchi_infinite(ea2, w, 100) == Verdict("Yes", 0, 0)

    def test_on_step_trace(self):
        ea = parity_automaton(frozenset({"q1"}))
        trace: list[tuple[int, str]] = []
        outcome = decide_prefix_infinite(
            ea, universal_indexed_word(), 100, on_step=lambda n, q: trace.append((n, q))
        )
        assert outcome == Verdict("Yes", 1, 1)
        assert trace == [(0, "q0"), (1, "q1")]
        trace.clear()
        evens = indexed_periodic((2, 4))
        outcome = decide_prefix_infinite(ea, evens, 3, on_step=lambda n, q: trace.append((n, q)))
        assert outcome == FuelExhausted(3)
        assert trace == [(0, "q0"), (1, "q0"), (2, "q0"), (3, "q0")]

    def test_buchi_on_step_trace(self):
        # the variant accepts q1 (the dead-lock of the original): the trace
        # is the variant's run, and its Yes at 1 comes back negated
        ea = parity_automaton(frozenset({"q0"}))
        trace: list[tuple[int, str]] = []
        outcome = decide_buchi_infinite(
            ea, universal_indexed_word(), 100, on_step=lambda n, q: trace.append((n, q))
        )
        assert outcome == Verdict("No", 1, 1)
        assert trace == [(0, "q0"), (1, "q1")]

    def test_witness_search_asks_nothing_about_states_it_has_had(self):
        # q0 -odd-> q1 -odd-> q2 (accepting, absorbing); even indices go back to q0
        rules = {
            "q0": [(IndexSet(((0, 2),)), "q0"), (IndexSet(((1, 2),)), "q1")],
            "q1": [(IndexSet(((0, 2),)), "q0"), (IndexSet(((1, 2),)), "q2")],
            "q2": [(IndexSet(((0, 1),)), "q2")],
        }
        base = effective_from_index_sets(("q0", "q1", "q2"), rules, "q0", frozenset({"q2"}))
        asked: list[tuple[str, str]] = []

        def exists(p: str, q: str) -> bool:
            asked.append((p, q))
            return base.exists_transition(p, q)

        ea = EffectiveAutomaton(base.states, base.delta, exists, base.initial, base.accepting)
        assert definitive_index_sequence(ea) == (1, 1)
        assert asked == [
            ("q0", "q2"), ("q0", "q1"), ("q1", "q2"),  # q0's dead-lock status, forward, accepting q2 first
            ("q0", "q1"), ("q0", "q2"), ("q1", "q2"),  # the witness search from q0
            ("q0", "q1"), ("q1", "q2"),  # the least index of each edge on its path
        ]

    def test_definitive_index_sequence_resolves_all_starts(self):
        for accepting in (frozenset({"q1"}), frozenset({"q0"}), frozenset({"q0", "q1"})):
            ea = parity_automaton(accepting)
            seq = definitive_index_sequence(ea)
            dead = effective_dead_locks(ea)
            for start in ea.states:
                q = start
                resolved = q in ea.accepting or q in dead
                for k in seq:
                    if resolved:
                        break
                    q = ea.delta(k, q)
                    resolved = q in ea.accepting or q in dead
                assert resolved, (accepting, start, seq)


def eager_index_sequence(ea: EffectiveAutomaton) -> tuple[int, ...]:
    """Reference fold: BFS witnesses over realized transitions, replayed per start."""
    dead = effective_dead_locks(ea)

    def witness(start):
        if start in ea.accepting:
            return ()
        parents = {}
        seen = {start}
        queue = deque([start])
        goal = None
        while queue and goal is None:
            p = queue.popleft()
            for q in ea.states:
                if q in seen or not ea.exists_transition(p, q):
                    continue
                parents[q] = (p, find_transition_witness(ea, p, q))
                if q in ea.accepting:
                    goal = q
                    break
                seen.add(q)
                queue.append(q)
        path = []
        q = goal
        while q != start:
            p, k = parents[q]
            path.append(k)
            q = p
        return tuple(reversed(path))

    word: tuple[int, ...] = ()
    for start in ea.states:
        q = start
        for k in word:
            q = ea.delta(k, q)
        if q not in dead:
            word = word + witness(q)
    return word


class TestDefinitiveIndexSequenceDifferential:
    @pytest.mark.parametrize(
        "morphism",
        [
            zero_one_runs,
            zero_one_blocks,
            lambda: EffectiveMorphism.index_periodic(["01", "1", ""], BINARY),
        ],
        ids=["runs", "blocks", "cyclic"],
    )
    def test_matches_reference_fold_on_reductions(self, morphism):
        rng = random.Random(437)
        phi = morphism()
        for _ in range(12):
            ea = reduce_morphism_automaton(random_dfa(rng, max_states=3), phi)
            assert definitive_index_sequence(ea) == eager_index_sequence(ea)


def reference_reduction(a: Dfa, phi: EffectiveMorphism) -> EffectiveAutomaton:
    """The reduction with its earlier existence test: a bit-1 transition from
    q_i to q_j exists iff some image lies in the union over accepting f of
    R(i,f)R(f,j), a bit-0 one iff some image lies in R(i,j) minus that
    union, both built by concatenation, determinization, union and
    difference (R(x,y) is the language of paths from x to y)."""
    fast = reduce_morphism_automaton(a, phi)
    oracle = phi.image_language_oracle

    def path_dfa(src, dst):
        return Dfa(a.alphabet, a.states, a.delta, src, frozenset({dst}))

    @functools.cache
    def passing_dfa(src, dst):
        parts = [concatenate(path_dfa(src, f), path_dfa(f, dst)) for f in a.accepting]
        if not parts:
            return empty_language(a.alphabet)
        combined = determinize(parts[0])
        for part in parts[1:]:
            combined = union(combined, determinize(part))
        return combined

    @functools.cache
    def exists(p, q):
        passing = passing_dfa(p.base, q.base)
        if q.bit == 1:
            return oracle(passing)
        return oracle(difference(path_dfa(p.base, q.base), passing))

    return EffectiveAutomaton(fast.states, fast.delta, exists, fast.initial, fast.accepting)


def reference_dead_locks(ea: EffectiveAutomaton) -> frozenset:
    """States whose forward closure, one per state, avoids the accepting set."""
    return frozenset(q for q in ea.states if not (reachable_closure(ea, frozenset({q})) & ea.accepting))


SIGMA_HASH = Alphabet(("0", "1", "#"))

REDUCTION_MORPHISMS = {
    "runs": (zero_one_runs, BINARY),
    "blocks": (zero_one_blocks, BINARY),
    "cyclic": (lambda: EffectiveMorphism.index_periodic(["01", "1", ""], BINARY), BINARY),
    "filter": (lambda: filter_to_word(FilterLanguage.from_dfa(regex_dfa(".*11.*", BINARY)))[0], SIGMA_HASH),
}


def via_reference(monkeypatch, decide):
    """``decide()`` with the library routed through the reference reduction and closures."""
    with monkeypatch.context() as patch:
        patch.setattr(effective_module, "reduce_morphism_automaton", reference_reduction)
        patch.setattr(effective_module, "effective_dead_locks", reference_dead_locks)
        return decide()


class TestFlagProductDifferential:
    @pytest.mark.parametrize("name", sorted(REDUCTION_MORPHISMS))
    def test_exists_matrix_and_dead_locks(self, name):
        morphism, alphabet = REDUCTION_MORPHISMS[name]
        phi = morphism()
        rng = random.Random(f"flag-product/{name}")
        for _ in range(10):
            a = random_dfa(rng, max_states=4, alphabet=alphabet)
            fast, ref = reduce_morphism_automaton(a, phi), reference_reduction(a, phi)
            matrix = {(p, q): fast.exists_transition(p, q) for p in fast.states for q in fast.states}
            assert matrix == {(p, q): ref.exists_transition(p, q) for p in ref.states for q in ref.states}, a
            assert effective_dead_locks(fast) == reference_dead_locks(ref), a

    @pytest.mark.parametrize("name", sorted(REDUCTION_MORPHISMS))
    def test_morphism_verdicts(self, name, monkeypatch):
        morphism, alphabet = REDUCTION_MORPHISMS[name]
        phi, w = morphism(), universal_indexed_word()
        rng = random.Random(f"flag-verdicts/{name}")
        for _ in range(8):
            a = random_dfa(rng, max_states=4, alphabet=alphabet)

            def decide():
                return decide_prefix_morphism(a, phi, w), decide_buchi_morphism(a, phi, w)

            assert decide() == via_reference(monkeypatch, decide), a

    @pytest.mark.parametrize("pattern", ["0+", "(01)*", ".*11.*"])
    def test_rr_pipeline_verdicts(self, pattern, monkeypatch):
        lang = FilterLanguage.from_dfa(regex_dfa(pattern, BINARY))
        rng = random.Random(f"flag-rr/{pattern}")
        for _ in range(6):
            r = random_dfa(rng, max_states=3)
            assert rr_pipeline(r, lang) == via_reference(monkeypatch, lambda: rr_pipeline(r, lang)), r

    def test_unreachable_target_skips_the_oracle(self, a_contains1):
        calls = []
        phi = zero_one_runs()
        counted = EffectiveMorphism(BINARY, phi.image, lambda r: calls.append(r) or phi.image_language_oracle(r))
        ea = reduce_morphism_automaton(a_contains1, counted)
        # from the absorbing accepting s1 the product never reaches s0 nor bit 0
        assert not ea.exists_transition(AugmentedState("s1", 0), AugmentedState("s0", 1))
        assert not ea.exists_transition(AugmentedState("s1", 1), AugmentedState("s1", 0))
        assert calls == []
        assert ea.exists_transition(AugmentedState("s1", 0), AugmentedState("s1", 1))
        assert len(calls) == 1


def random_effective_text(rng: random.Random) -> str:
    """A seeded effective automaton: per source, residues mod m split among targets."""
    states = [f"q{i}" for i in range(rng.randint(1, 5))]
    lines = [f"states: {' '.join(states)}", "initial: q0",
             f"accepting: {' '.join(q for q in states if rng.random() < 0.3)}"]
    for src in states:
        modulus = rng.randint(1, 3)
        for residue in range(modulus):
            if rng.random() < 0.8:
                lines.append(f"etrans: {src} {rng.choice(states)} {residue}%{modulus}")
    return "\n".join(lines) + "\n"


def test_dead_locks_match_forward_closures_on_parsed_automata():
    rng = random.Random(449)
    for _ in range(200):
        text = random_effective_text(rng)
        ea = parse_effective(text)
        assert effective_dead_locks(ea) == reference_dead_locks(ea), text


class TestParseEffective:
    def test_fixture_round_behavior(self):
        ea = parse_effective(FIXTURE_TEXT)
        assert ea.states == ("q0", "q1")
        assert ea.initial == "q0"
        assert ea.accepting == frozenset({"q1"})
        assert ea.delta(2, "q0") == "q0"
        assert ea.delta(1, "q0") == "q1"
        assert ea.delta(7, "q1") == "q1"
        assert ea.exists_transition("q0", "q1")
        assert not ea.exists_transition("q1", "q0")

    def test_comments_and_blanks_ignored(self):
        ea = parse_effective("# heading\n\n" + FIXTURE_TEXT + "\n# trailing\n")
        assert ea.accepting == frozenset({"q1"})

    def test_missing_states_line(self):
        with pytest.raises(EffectiveFormatError):
            parse_effective("initial: q0\n")

    def test_line_without_colon(self):
        with pytest.raises(EffectiveFormatError, match="expected 'key: values'") as exc_info:
            parse_effective("states: q0\ninitial q0\n")
        assert exc_info.value.line_no == 2

    def test_unknown_state_in_rule(self):
        bad = FIXTURE_TEXT.replace("etrans: q1 q1 all", "etrans: q1 zz all")
        with pytest.raises(EffectiveFormatError) as exc_info:
            parse_effective(bad)
        assert exc_info.value.line_no == 7

    def test_bad_index_token(self):
        bad = FIXTURE_TEXT.replace("all", "sometimes")
        with pytest.raises(EffectiveFormatError):
            parse_effective(bad)

    def test_overlapping_rules_rejected(self):
        text = "states: q0 q1\ninitial: q0\naccepting: q1\netrans: q0 q0 all\netrans: q0 q1 all\n"
        with pytest.raises(ValueError, match="state 'q0' overlap at index 1"):
            parse_effective(text)
        rules = {"q0": [(IndexSet(((1, 4),)), "q0"), (IndexSet(((3, 6),), exclude=frozenset({9})), "q0")]}
        with pytest.raises(ValueError, match="overlap at index 21"):
            effective_from_index_sets(("q0",), rules, "q0", frozenset())

    @pytest.mark.parametrize("token", ["+0", "+-3", "-0", "1%2 --4"])
    def test_index_below_one_reports_its_line(self, token):
        bad = FIXTURE_TEXT.replace("etrans: q0 q1 1%2", f"etrans: q0 q1 {token}")
        with pytest.raises(EffectiveFormatError, match="line 6: indices are 1-based") as exc_info:
            parse_effective(bad)
        assert exc_info.value.line_no == 6

    @pytest.mark.parametrize("line", ["states: q0 q1", "initial: q1", "accepting:"])
    def test_repeated_line_rejected(self, line):
        # a later "accepting:" line used to replace the first one, turning Yes into No 0
        key = line.partition(":")[0]
        with pytest.raises(EffectiveFormatError, match=f"line 8: duplicate '{key}' line") as exc_info:
            parse_effective(FIXTURE_TEXT + line + "\n")
        assert exc_info.value.line_no == 8

    @pytest.mark.parametrize(
        "text, message",
        [
            ("states: q0 q0\ninitial: q0\n", "line 1: duplicate state names"),
            ("states: q0\ninitial: q0 q1\n", "line 2: initial: expects one state"),
            ("states: q0\ninitial: q0\netrans: q0 q0\n", "line 3: etrans line needs: source target index-set..."),
            ("states: q0\ninitial: q0\ntrans: q0 q0 all\n", "line 3: unknown or misplaced section 'trans'"),
            ("states: q0\naccepting: q0\n", "line 1: missing or unknown initial state"),
            ("states: q0\ninitial: q1\n", "line 2: missing or unknown initial state"),
            ("states: q0\ninitial: q0\naccepting: q0 q1\n", "line 3: accepting set contains unknown states"),
        ],
    )
    def test_message_and_line(self, text, message):
        with pytest.raises(EffectiveFormatError) as exc_info:
            parse_effective(text)
        assert str(exc_info.value) == message
        assert exc_info.value.line_no == int(message.split(":")[0].removeprefix("line "))

    def test_no_accepting_line_accepts_nothing(self):
        ea = parse_effective("states: q0 q1\ninitial: q0\netrans: q0 q1 all\n")
        assert ea.accepting == frozenset()
        assert effective_dead_locks(ea) == frozenset({"q0", "q1"})

    def test_delta_without_rule_fails(self):
        text = "states: a b\ninitial: a\naccepting: b\netrans: a b all\n"
        ea = parse_effective(text)
        with pytest.raises(ValueError):
            ea.delta(1, "b")


class TestReduceMorphism:
    def test_image_steps(self, a_contains1):
        ea = reduce_morphism_automaton(a_contains1, zero_one_runs())
        # index 3 has image "1": lands in s1 and passes accepting
        assert ea.delta(3, AugmentedState("s0", 0)) == AugmentedState("s1", 1)
        # index 2 has image "0": stays in s0, nothing accepting passed
        assert ea.delta(2, AugmentedState("s0", 1)) == AugmentedState("s0", 0)
        # index 1 has the empty image: state kept, bit is the state's own status
        assert ea.delta(1, AugmentedState("s0", 1)) == AugmentedState("s0", 0)
        assert ea.delta(1, AugmentedState("s1", 0)) == AugmentedState("s1", 1)

    def test_initial_and_accepting(self, a_contains1):
        ea = reduce_morphism_automaton(a_contains1, zero_one_runs())
        assert ea.initial == AugmentedState("s0", 0)
        assert ea.accepting == frozenset(s for s in ea.states if s.bit == 1)

    def test_exists_matches_scan(self):
        rng = random.Random(431)
        phi = zero_one_runs()
        for _ in range(8):
            a = random_dfa(rng, max_states=3)
            ea = reduce_morphism_automaton(a, phi)
            for p in ea.states:
                realized = {ea.delta(k, p) for k in range(1, 1001)}
                for q in ea.states:
                    assert ea.exists_transition(p, q) == (q in realized), (a, p, q)

    def test_requires_oracle(self, a_contains1):
        from realizability import EffectiveMorphism

        bare = EffectiveMorphism(BINARY, lambda k: ("0",) * k)
        with pytest.raises(ValueError):
            reduce_morphism_automaton(a_contains1, bare)

    def test_morphism_deciders_report_a_bad_budget_before_the_reduction(self, a_contains1):
        bare = EffectiveMorphism(BINARY, zero_one_runs().image)  # no image language oracle
        foreign = EffectiveMorphism(Alphabet(("a", "b")), lambda k: ("a",) * k, lambda r: True)
        for phi in (bare, foreign):
            for decide in (decide_prefix_morphism, decide_buchi_morphism):
                outcome = failure(lambda: decide(a_contains1, phi, universal_indexed_word(), 0))
                assert outcome == (ValueError, "fuel must be positive"), (phi, decide.__name__)

    def test_decide_prefix_morphism_fixture(self, a_contains1):
        w = universal_indexed_word()
        # rounds one and two only produce runs of 0s; the first 1 in the
        # image arrives with index 3 opening round three at position 11
        assert decide_prefix_morphism(a_contains1, zero_one_runs(), w) == Verdict("Yes", 11, 11)

    def test_decide_prefix_morphism_no(self, a_only0):
        w = universal_indexed_word()
        # the image starts "0...", and "0" alone is the accepted word
        outcome = decide_prefix_morphism(a_only0, zero_one_runs(), w)
        assert isinstance(outcome, Verdict)
        assert outcome.answer == "Yes"

    def test_decide_buchi_morphism(self, a_contains1):
        w = universal_indexed_word()
        outcome = decide_buchi_morphism(a_contains1, zero_one_runs(), w)
        assert outcome == Verdict("Yes", 0, 0)

    def test_morphism_decision_consistent_with_image_scan(self):
        rng = random.Random(433)
        phi = zero_one_runs()
        w = universal_indexed_word()
        from realizability import apply_morphism, brute_force_prefix_check

        for _ in range(10):
            a = random_dfa(rng, max_states=3)
            outcome = decide_prefix_morphism(a, phi, w)
            assert isinstance(outcome, Verdict)
            image = apply_morphism(phi, w)
            hit = brute_force_prefix_check(a, image, 3000)
            if outcome.answer == "Yes":
                assert hit is not None
            else:
                assert hit is None


class TestZeroOneBlocks:
    def test_images(self):
        phi = zero_one_blocks()
        assert phi.image(1) == ()
        assert phi.image(2) == ("0", "1")
        assert phi.image(3) == ("1",)
        assert phi.image(4) == ("0", "0", "1", "1")
        assert phi.image(5) == ("1", "1")


BUILTIN_MORPHISMS = {
    "runs": zero_one_runs,
    "blocks": zero_one_blocks,
    "cyclic": lambda: EffectiveMorphism.index_periodic(["01", "1", "", "0110", "01"], BINARY),
}


def brute_meets(phi: EffectiveMorphism, a: Dfa, indices: int) -> bool:
    return any(a.accepts(phi.image(k)) for k in range(1, indices + 1))


class TestBuiltinOracles:
    # On an automaton of m states the blocks oracle's pair (state after 0^k, k-th power of
    # the 1-step map) repeats by k = (m - 1) + m * g(m), g(m) the longest period of a map on
    # m states: k = 41 for m = 6 and 127 for m = 8, so indices through 2k + 1 see every answer.
    @pytest.mark.parametrize("name", BUILTIN_MORPHISMS)
    def test_dfas_agree_with_a_brute_image_scan(self, name):
        rng = random.Random(461)
        phi = BUILTIN_MORPHISMS[name]()
        for _ in range(150):
            a = random_dfa(rng, max_states=6, accept_p=0.25)
            assert phi.image_language_oracle(a) == brute_meets(phi, a, 83), a

    @pytest.mark.parametrize("name", BUILTIN_MORPHISMS)
    def test_nfas_agree_with_a_brute_image_scan(self, name):
        # the scan reads the subset automaton, at most 8 states for 3 NFA states
        rng = random.Random(463)
        phi = BUILTIN_MORPHISMS[name]()
        for _ in range(40):
            n = random_nfa(rng, max_states=3)
            assert phi.image_language_oracle(n) == brute_meets(phi, determinize(n), 255), n

    @pytest.mark.parametrize("name", BUILTIN_MORPHISMS)
    @pytest.mark.parametrize("symbols", ["abc", "012"])
    def test_an_automaton_over_another_alphabet_raises(self, name, symbols):
        oracle = BUILTIN_MORPHISMS[name]().image_language_oracle
        rng = random.Random(467)
        other = Alphabet(tuple(symbols))
        for a in (random_dfa(rng, max_states=3, alphabet=other), random_nfa(rng, max_states=3, alphabet=other)):
            assert failure(lambda: oracle(a)) == (
                AlphabetMismatchError,
                "product of automata over different alphabets",
            )

    def test_periodic_images_are_checked_at_construction(self):
        assert failure(lambda: EffectiveMorphism.index_periodic(["2"], BINARY)) == (
            AlphabetMismatchError,
            "symbol '2' not in alphabet ('0', '1')",
        )


def _witness_past_the_limit():
    ea = EffectiveAutomaton(("p", "q"), lambda k, p: p, lambda p, q: True, "p", frozenset())
    return find_transition_witness(ea, "p", "q", search_limit=3)


# Raises that no other test reaches, each with its type and full message.
REACHABLE_RAISES = {
    "unknown accepting": (
        lambda: EffectiveAutomaton(("q",), lambda k, q: q, lambda p, q: True, "q", frozenset({"x"})),
        ValueError,
        "accepting set contains unknown states",
    ),
    "witness limit": (_witness_past_the_limit, RuntimeError, "no witness index below 3 for 'p' -> 'q'"),
    "rule index 0": (
        lambda: effective_from_index_sets(("q",), {"q": [(IndexSet(((0, 1),)), "q")]}, "q", frozenset()).delta(0, "q"),
        IndexError,
        "indices are 1-based",
    ),
    "runs image 0": (lambda: zero_one_runs().image(0), IndexError, "indices are 1-based"),
    "blocks image 0": (lambda: zero_one_blocks().image(0), IndexError, "indices are 1-based"),
}


@pytest.mark.parametrize("case", REACHABLE_RAISES.values(), ids=REACHABLE_RAISES)
def test_reachable_raise(case):
    read, *error = case
    assert failure(read) == tuple(error)
