"""Filter languages, the enumeration bridge, canonical automaton indices,
machine simulation, and the staged diagonal word with its tailored decider.
"""

from __future__ import annotations

import hashlib
import random
from itertools import islice

import pytest

from conftest import MACHINES_TEXT
from helpers import ABC, BINARY, failure, random_dfa
from realizability import (
    Alphabet,
    AlphabetMismatchError,
    Block,
    Dfa,
    FilterLanguage,
    Fuel,
    MachineList,
    Verdict,
    absorbing_accepting,
    block_word_dfa,
    brute_force_prefix_check,
    canonical_state_count_block,
    concatenate,
    decide_prefix,
    decide_prefix_theorem1,
    decode_dfa,
    determinize,
    difference,
    encode_dfa,
    equivalent,
    filter_to_word,
    intersect,
    is_empty,
    literal_dfa,
    parse_machines,
    prefix_via_rr,
    reachable_states,
    regex_dfa,
    relabel_bfs,
    rr_pipeline,
    rr_to_prefix,
    shortlex_smallest,
    split_blocks,
    theorem1_word,
    union,
    with_initial,
    words_upto,
)
import realizability.bridge as bridge_module
import realizability.decide as decide_module
from realizability.automata import dead_lock_states, meets
from realizability.bridge import Stage, _block_rows, _blocks_text, _decode_table, _patch_ranks


class CountingDfa(Dfa):
    """A ``Dfa`` that counts its ``accepts`` calls."""

    calls = 0

    def accepts(self, w):
        object.__setattr__(self, "calls", self.calls + 1)
        return super().accepts(w)


def table_of(a: Dfa) -> tuple[list[tuple[int, int]], frozenset[int]]:
    """A binary automaton on states 0..s-1, numbered in the order of ``a.states``:
    each state's (successor on 0, successor on 1), and the accepting states."""
    index = {q: j for j, q in enumerate(a.states)}
    table = [tuple(index[a.delta[q, sym]] for sym in BINARY) for q in a.states]
    return table, frozenset(index[q] for q in a.accepting)


def _min_length_dfa(alphabet: Alphabet, n: int) -> Dfa:
    """Automaton for 'length at least n'."""
    states = tuple(range(n + 1))
    delta = {(i, s): min(i + 1, n) for i in states for s in alphabet}
    return Dfa(alphabet, states, delta, 0, frozenset({n}))


class TestFilterLanguage:
    def test_shortlex_enumeration(self):
        lang = FilterLanguage.from_dfa(regex_dfa("0+", BINARY))
        assert lang.enumeration(1) == ("0",)
        assert lang.enumeration(2) == ("0", "0")
        assert lang.enumeration(3) == ("0", "0", "0")

    def test_membership(self):
        lang = FilterLanguage.from_dfa(regex_dfa("0+", BINARY))
        assert lang.membership(("0", "0"))
        assert not lang.membership(("0", "1"))
        assert not lang.membership(())

    def test_enumeration_is_injective_and_covers(self):
        lang = FilterLanguage.from_dfa(regex_dfa("(01)*", BINARY))
        first = [lang.enumeration(i) for i in range(1, 6)]
        assert len(set(first)) == len(first)
        short_members = [w for w in words_upto(BINARY, 6) if lang.membership(w)]
        assert first[: len(short_members)] == short_members[: len(first)]

    def test_finite_language_exhausts_loudly(self):
        lang = FilterLanguage.from_dfa(literal_dfa("01", BINARY))
        assert lang.enumeration(1) == ("0", "1")
        with pytest.raises(IndexError):
            lang.enumeration(2)

    @pytest.mark.parametrize("pattern, count", [("0+", 16), ("(01)*", 8), ("00", 1), (".*1", 200)])
    def test_enumeration_is_the_accepted_shortlex_scan(self, pattern, count):
        # 0+ and (01)* have one word per length or fewer, so their later words lie
        # past 2^length scanned words; .*1 reaches index 200 at length 8
        a = regex_dfa(pattern, BINARY)
        d = CountingDfa(a.alphabet, a.states, a.delta, a.initial, a.accepting)
        lang = FilterLanguage.from_dfa(d)
        expected = list(islice((w for w in words_upto(BINARY, 16) if d.accepts(w)), count))
        assert [lang.enumeration(i) for i in range(1, count + 1)] == expected
        scanned = d.calls
        assert [lang.enumeration(i) for i in range(count, 0, -1)] == expected[::-1]
        assert d.calls == scanned  # a cached index pulls nothing from the scan
        with pytest.raises(IndexError, match="^enumeration is 1-based$"):
            lang.enumeration(0)

    def test_finite_language_names_its_size(self):
        lang = FilterLanguage.from_dfa(regex_dfa("00", BINARY))
        for i in (2, 200, 3):
            with pytest.raises(IndexError, match="^language is finite with 1 words$"):
                lang.enumeration(i)
        assert lang.enumeration(1) == ("0", "0")
        lang = FilterLanguage.from_dfa(regex_dfa("0|11|(01)?", BINARY))
        assert [lang.enumeration(i) for i in (4, 1)] == [("1", "1"), ()]
        with pytest.raises(IndexError, match="^language is finite with 4 words$"):
            lang.enumeration(5)

    @pytest.mark.parametrize("alphabet, max_states", [(BINARY, 4), (ABC, 3)])
    def test_finiteness_matches_a_length_automaton(self, alphabet, max_states):
        # a finite language enumerates its words through length |Q| and then fails;
        # an infinite one goes on past them to a word longer than |Q|
        rng = random.Random(457)
        for _ in range(150):
            d = random_dfa(rng, max_states=max_states, alphabet=alphabet, accept_p=0.3)
            pump = len(d.states)
            count = sum(map(d.accepts, words_upto(alphabet, pump)))
            lang = FilterLanguage.from_dfa(d)
            if meets(_min_length_dfa(alphabet, pump), d):
                assert len(lang.enumeration(count + 1)) > pump, d
            else:
                assert failure(lambda: lang.enumeration(count + 1)) == (
                    IndexError,
                    f"language is finite with {count} words",
                ), d

    def test_rr_decider(self):
        lang = FilterLanguage.from_dfa(regex_dfa("0+", BINARY))
        assert lang.rr is not None
        assert lang.rr(literal_dfa("00", BINARY))
        assert not lang.rr(literal_dfa("1", BINARY))
        assert lang.rr(regex_dfa(".*", BINARY))


class TestFilterToWord:
    def test_images_append_separator(self):
        lang = FilterLanguage.from_dfa(regex_dfa("0+", BINARY))
        phi, _w = filter_to_word(lang)
        assert phi.image(1) == ("0", "#")
        assert phi.image(2) == ("0", "0", "#")
        assert phi.alphabet.symbols == ("0", "1", "#")

    def test_word_interleaves_enumeration(self):
        lang = FilterLanguage.from_dfa(regex_dfa("0+", BINARY))
        _phi, w = filter_to_word(lang)
        # indexed word starts 1, 2, 1, 1: images 0#, 00#, 0#, 0#
        assert "".join(w.prefix(9)) == "0#00#0#0#"

    def test_separator_collision_rejected(self):
        lang = FilterLanguage.from_dfa(regex_dfa("0+", BINARY))
        with pytest.raises(ValueError):
            filter_to_word(lang, hash_symbol="0")

    def test_oracle_strips_separator(self):
        lang = FilterLanguage.from_dfa(regex_dfa("0+", BINARY))
        phi, _w = filter_to_word(lang)
        oracle = phi.image_language_oracle
        assert oracle is not None
        ext = Alphabet(("0", "1", "#"))
        assert oracle(literal_dfa("0#", ext))
        assert oracle(literal_dfa("00#", ext))
        assert not oracle(literal_dfa("1#", ext))
        assert not oracle(literal_dfa("0", ext))  # no separator, no image


def chained_rr_to_prefix(r: Dfa, hash_symbol: str = "#") -> Dfa:
    """The earlier construction of ``rr_to_prefix``: ``(Sigma* #)*``, r lifted
    to the #-extended alphabet with a sink on #, and the closing ``#``, glued
    by two concatenations and determinized."""
    sigma_hash = Alphabet(r.alphabet.symbols + (hash_symbol,))
    chunks_delta = {("at_boundary", hash_symbol): "at_boundary", ("mid_chunk", hash_symbol): "at_boundary"}
    for s in r.alphabet:
        chunks_delta["at_boundary", s] = chunks_delta["mid_chunk", s] = "mid_chunk"
    chunks = Dfa(sigma_hash, ("at_boundary", "mid_chunk"), chunks_delta, "at_boundary", frozenset({"at_boundary"}))
    sink = ("lifted_sink",)
    lifted_delta = {(q, s): r.delta[q, s] for q in r.states for s in r.alphabet}
    lifted_delta.update({(q, hash_symbol): sink for q in r.states})
    lifted_delta.update({(sink, s): sink for s in sigma_hash})
    lifted = Dfa(sigma_hash, r.states + (sink,), lifted_delta, r.initial, r.accepting)
    closing = literal_dfa((hash_symbol,), sigma_hash)
    return relabel_bfs(determinize(concatenate(concatenate(chunks, lifted), closing)))


class TestRrToPrefix:
    @pytest.mark.parametrize("alphabet", [BINARY, ABC], ids=["01", "abc"])
    def test_pair_product_against_the_concatenation_chain(self, alphabet):
        rng = random.Random(f"rr-pairs/{''.join(alphabet.symbols)}")
        accepts_empty_word = empty_language = 0
        for _ in range(150):
            r = random_dfa(rng, max_states=6, alphabet=alphabet)
            b = rr_to_prefix(r)
            assert equivalent(b, chained_rr_to_prefix(r)), r
            assert len(b.states) <= len(reachable_states(r)) + 1, r
            accepts_empty_word += r.initial in r.accepting
            empty_language += is_empty(r)
        assert accepts_empty_word and empty_language

    def test_language_shape(self):
        r = literal_dfa("00", BINARY)
        b = rr_to_prefix(r)
        assert b.accepts("00#")
        assert b.accepts("0#00#")
        assert b.accepts("#00#")
        assert b.accepts("11#00#")
        assert not b.accepts("00")
        assert not b.accepts("0#0#")
        assert not b.accepts("00#0")

    def test_against_chunk_predicate(self):
        ext = Alphabet(("0", "1", "#"))
        rng = random.Random(503)
        for _ in range(12):
            r = random_dfa(rng, max_states=3)
            b = rr_to_prefix(r)
            for w in words_upto(ext, 5):
                text = "".join(w)
                if text.endswith("#"):
                    body = text[:-1]
                    chunk = body.rsplit("#", 1)[-1]
                    expected = "#" not in chunk and r.accepts(chunk)
                else:
                    expected = False
                assert b.accepts(w) == expected, (r, text)

    def test_separator_collision_rejected(self):
        ext = Alphabet(("0", "#"))
        r = Dfa(ext, ("q",), {("q", "0"): "q", ("q", "#"): "q"}, "q", frozenset({"q"}))
        with pytest.raises(ValueError):
            rr_to_prefix(r)


class TestRrPipeline:
    def test_yes_at_first_enumerated_hit(self):
        lang = FilterLanguage.from_dfa(regex_dfa("0+", BINARY))
        # "00" is the second enumerated word, met at indexed position 2
        assert rr_pipeline(literal_dfa("00", BINARY), lang) == Verdict("Yes", 2, 2)

    def test_no_resolves_at_position_zero(self):
        lang = FilterLanguage.from_dfa(regex_dfa("0+", BINARY))
        # no word of 1s is a run of 0s: the oracle rules out acceptance up front
        assert rr_pipeline(literal_dfa("1", BINARY), lang) == Verdict("No", 0, 0)

    def test_agreement_with_product_emptiness(self):
        rng = random.Random(509)
        filters = [regex_dfa("0+", BINARY), regex_dfa("(01)*", BINARY)]
        for filter_dfa in filters:
            lang = FilterLanguage.from_dfa(filter_dfa)
            for _ in range(6):
                r = random_dfa(rng, max_states=3)
                outcome = rr_pipeline(r, lang)
                assert isinstance(outcome, Verdict)
                expected = not is_empty(intersect(r, filter_dfa))
                assert (outcome.answer == "Yes") == expected, r

    @pytest.mark.parametrize("separator", ["$", "|"])
    def test_any_separator_gives_the_same_outcome(self, separator):
        rng = random.Random(f"rr-separator/{separator}")
        for pattern in ("0+", "(01)*", "00"):
            lang = FilterLanguage.from_dfa(regex_dfa(pattern, BINARY))
            for _ in range(8):
                r = random_dfa(rng, max_states=4)
                assert rr_pipeline(r, lang, hash_symbol=separator) == rr_pipeline(r, lang), (pattern, r)

    def test_prefix_via_rr_reads_the_separator_off_the_automaton(self):
        lang = FilterLanguage.from_dfa(regex_dfa("0+", BINARY))
        r = literal_dfa("00", BINARY)
        assert prefix_via_rr(rr_to_prefix(r, "$"), lang) == prefix_via_rr(rr_to_prefix(r), lang) == Verdict("Yes", 2, 2)
        with pytest.raises(AlphabetMismatchError, match="^morphism target alphabet differs from automaton alphabet$"):
            prefix_via_rr(r, lang)  # over the filter alphabet alone: no separator

    def test_prefix_via_rr_reports_a_bad_budget_before_the_reduction(self):
        lang = FilterLanguage.from_dfa(regex_dfa("0+", BINARY))
        r = literal_dfa("00", BINARY)  # no separator: the reduction would fail on the alphabets
        assert failure(lambda: prefix_via_rr(r, lang, 0)) == (ValueError, "fuel must be positive")

    def test_prefix_via_rr_epsilon_accepting(self):
        lang = FilterLanguage.from_dfa(regex_dfa("0+", BINARY))
        ext = Alphabet(("0", "1", "#"))
        everything = Dfa(
            ext, ("q",), {("q", s): "q" for s in ext}, "q", frozenset({"q"})
        )
        # evidence counts indexed symbols; the accepting initial state is
        # registered as a passage while the first image is consumed
        assert prefix_via_rr(everything, lang) == Verdict("Yes", 1, 1)


class TestCanonicalEnumeration:
    def test_block_sizes(self):
        assert canonical_state_count_block(1) == 2
        assert canonical_state_count_block(2) == 64
        assert canonical_state_count_block(3) == 5832

    def test_first_two_automata(self):
        a1 = decode_dfa(1)
        assert a1.states == ("q1",)
        assert a1.accepting == frozenset()
        a2 = decode_dfa(2)
        assert a2.states == ("q1",)
        assert a2.accepting == frozenset({"q1"})
        for a in (a1, a2):
            assert a.delta == {("q1", "0"): "q1", ("q1", "1"): "q1"}

    def test_state_count_boundaries(self):
        assert len(decode_dfa(2).states) == 1
        assert len(decode_dfa(3).states) == 2
        assert len(decode_dfa(66).states) == 2
        assert len(decode_dfa(67).states) == 3
        assert len(decode_dfa(5898).states) == 3
        assert len(decode_dfa(5899).states) == 4

    def test_table_decoder_matches_decode_dfa(self):
        for i in list(range(1, 301)) + [66, 67, 5898, 5899]:
            a = decode_dfa(i)
            assert a.initial == a.states[0] == "q1"
            assert _decode_table(i) == table_of(a), i

    def test_round_trip(self):
        for i in list(range(1, 300)) + [66, 67, 5898, 5899, 12345, 99999]:
            assert encode_dfa(decode_dfa(i)) == i

    def test_encode_normalizes_foreign_names(self, a_contains1):
        i = encode_dfa(a_contains1)
        back = decode_dfa(i)
        assert equivalent(relabel_bfs(a_contains1), back)

    def test_encode_renames_two_symbol_alphabets(self):
        ab = Alphabet(("a", "b"))
        a = Dfa(ab, ("p",), {("p", "a"): "p", ("p", "b"): "p"}, "p", frozenset({"p"}))
        assert encode_dfa(a) == 2

    def test_encode_keeps_the_symbols_of_a_reordered_binary_alphabet(self):
        one_zero = Alphabet(("1", "0"))
        contains1 = Dfa(
            one_zero,
            ("s0", "s1"),
            {("s0", "1"): "s1", ("s0", "0"): "s0", ("s1", "1"): "s1", ("s1", "0"): "s1"},
            "s0",
            frozenset({"s1"}),
        )
        back = decode_dfa(encode_dfa(contains1))
        assert back.accepts(("1",)) and not back.accepts(("0",))
        for w in words_upto(BINARY, 6):
            assert back.accepts(w) == contains1.accepts(w), w

    def test_encode_builds_no_automaton(self, a_contains1, monkeypatch):
        calls = []
        validate = Dfa.__post_init__
        monkeypatch.setattr(Dfa, "__post_init__", lambda a: calls.append(a) or validate(a))
        encode_dfa(a_contains1)  # states s0 s1: not in canonical shape
        assert calls == []  # neither a renamed nor a relabelled copy

    def test_encode_rejects_non_binary(self):
        abc = Alphabet(("a", "b", "c"))
        a = Dfa(abc, ("p",), {("p", s): "p" for s in abc}, "p", frozenset())
        with pytest.raises(ValueError):
            encode_dfa(a)

    def test_decode_rejects_bad_index(self):
        with pytest.raises(IndexError):
            decode_dfa(0)


class TestMachines:
    def test_halting_memoization(self, machine_list):
        assert not machine_list.halts_within(1, 2)
        assert machine_list.halts_within(1, 3)
        assert machine_list.halts_within(1, 99)
        assert not machine_list.halts_within(1, 2)  # earlier cutoffs still exact

    def test_looping_machine_never_halts(self, machine_list):
        assert not machine_list.halts_within(2, 2000)

    def test_indices_beyond_list_never_halt(self, machine_list):
        assert len(machine_list) == 2
        assert not machine_list.halts_within(3, 1000)

    def test_alive_at(self, machine_list):
        assert machine_list.alive_at(1) == (1,)
        assert machine_list.alive_at(2) == (1, 2)
        assert machine_list.alive_at(3) == (2, 3)
        assert machine_list.alive_at(5) == (2, 3, 4, 5)

    def test_machine_with_no_rules_halts_immediately(self):
        stuck = parse_machines("machine: stuck\nstart: s\n")
        assert stuck.halts_within(1, 0)

    def test_parse_names_and_comments(self, machine_list):
        assert machine_list.names == ["halts-after-three", "loops-forever"]
        with_comment = parse_machines("# intro\nmachine: m\nstart: s\ntrans: s _ x R t\n")
        assert len(with_comment) == 1

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_machines("machine: m\ntrans: s _ x R t\n")  # no start
        with pytest.raises(ValueError):
            parse_machines("machine: m\nstart: s\ntrans: s _ x J t\n")  # bad move
        with pytest.raises(ValueError):
            parse_machines("start: s\n")  # outside any machine
        with pytest.raises(ValueError):
            parse_machines("machine: m\nstart: s\ntrans: s _ x R\n")  # arity
        with pytest.raises(ValueError):
            parse_machines("machine: m\nstart: s\nbogus: 1\n")

    def test_line_without_colon_fails_like_other_formats(self):
        with pytest.raises(ValueError, match=r"^line 2: expected 'key: values', got 'machine m'$"):
            parse_machines("# intro\nmachine m\nstart: s\n")

    def test_repeated_start_line_rejected(self):
        with pytest.raises(ValueError, match=r"^line 3: duplicate 'start' line$"):
            parse_machines("machine: m\nstart: s0\nstart: s1\ntrans: s0 _ x R s1\n")

    def test_repeated_transition_rejected(self):
        # the second rule would silently replace the first and change the word
        with pytest.raises(ValueError, match=r"^line 4: duplicate transition for \('s0', '_'\)$"):
            parse_machines("machine: m\nstart: s0\ntrans: s0 _ x R s1\ntrans: s0 _ _ L s0\n")

    def test_each_machine_has_its_own_start_and_rules(self):
        machine = "start: s\ntrans: s _ x R s\n"
        assert len(parse_machines(f"machine: a\n{machine}machine: b\n{machine}")) == 2


class TestBlocks:
    def test_block_words(self):
        assert "".join(Block(0).word) == "11"
        assert "".join(Block(1).word) == "101"
        assert "".join(Block(3).word) == "10001"
        with pytest.raises(ValueError):
            Block(-1)

    def test_split_blocks(self):
        assert split_blocks(()) == []
        assert split_blocks(tuple("101")) == [1]
        assert split_blocks(tuple("1001101")) == [2, 1]
        assert split_blocks(tuple("101101")) == [1, 1]
        for bad in ("10", "0", "1101", "11", "10101"):
            with pytest.raises(ValueError):
                split_blocks(tuple(bad))

    def test_block_word_dfa_examples(self):
        none_forbidden = block_word_dfa(frozenset())
        assert none_forbidden.accepts("")
        assert none_forbidden.accepts("101")
        assert none_forbidden.accepts("1001101")
        assert not none_forbidden.accepts("11")  # rank-0 blocks are never allowed
        assert not none_forbidden.accepts("10")
        no_rank1 = block_word_dfa(frozenset({1}))
        assert not no_rank1.accepts("101")
        assert no_rank1.accepts("1001")
        assert no_rank1.accepts("100001")  # ranks past the cap stay allowed

    def test_block_word_dfa_against_split_semantics(self):
        for forbidden in (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 3})):
            d = block_word_dfa(forbidden)
            for w in words_upto(BINARY, 10):
                try:
                    ranks = split_blocks(w)
                except ValueError:
                    expected = False
                else:
                    expected = not (set(ranks) & forbidden) and 0 not in ranks
                assert d.accepts(w) == expected, (forbidden, w)

    def test_block_word_dfa_against_difference_construction(self):
        # independent form: all block concatenations minus those containing a
        # rank-0 or forbidden block at a block boundary
        base = regex_dfa("(100*1)*", BINARY)
        for forbidden in (frozenset({1}), frozenset({2, 4})):
            bad = None
            for k in forbidden:
                piece = concatenate(
                    concatenate(base, literal_dfa("1" + "0" * k + "1", BINARY)), base
                )
                piece = determinize(piece)
                bad = piece if bad is None else union(bad, piece)
            expected = difference(base, bad)
            assert equivalent(block_word_dfa(forbidden), expected), forbidden


class TestTheorem1Word:
    def test_stage_one(self, machine_list):
        w = theorem1_word(machine_list)
        s1 = w.stage(1)
        assert s1.alive == (1,)
        assert "".join(s1.machine_word) == "101"
        assert s1.patch_word == ()  # the first automaton accepts nothing
        assert s1.end == 3
        assert "".join(w.prefix(3)) == "101"

    def test_stage_two(self, machine_list):
        w = theorem1_word(machine_list)
        s2 = w.stage(2)
        assert s2.alive == (1, 2)
        assert "".join(s2.machine_word) == "1011001"
        # the second automaton accepts everything; no patch needed
        assert s2.patch_word == ()
        assert s2.end == 10

    def test_halted_machine_block_vanishes(self, machine_list):
        w = theorem1_word(machine_list)
        assert 1 in split_blocks(w.stage(1).machine_word)
        assert 1 in split_blocks(w.stage(2).machine_word)
        for n in range(3, 10):
            stage = w.stage(n)
            assert 1 not in stage.alive
            assert 1 not in split_blocks(stage.machine_word)
            assert 1 not in stage.patch_ranks

    def test_stages_are_one_based(self, machine_list):
        w = theorem1_word(machine_list)
        with pytest.raises(IndexError, match="stages are 1-based"):
            w.ensure_stage(0)
        w.ensure_stage(3)
        for n in (0, -1, -3):
            with pytest.raises(IndexError, match="stages are 1-based"):
                w.stage(n)
            with pytest.raises(IndexError, match="stages are 1-based"):
                w.ensure_stage(n)

    def test_word_is_deterministic(self):
        from conftest import MACHINES_TEXT

        first = theorem1_word(parse_machines(MACHINES_TEXT))
        second = theorem1_word(parse_machines(MACHINES_TEXT))
        assert first.prefix(2000) == second.prefix(2000)

    def test_prefix_is_stage_concatenation(self, machine_list):
        w = theorem1_word(machine_list)
        built: list[str] = []
        for n in range(1, 12):
            stage = w.stage(n)
            built.extend(stage.machine_word)
            built.extend(stage.patch_word)
            assert stage.end == len(built)
            assert w.prefix(stage.end) == tuple(built)

    def test_patch_properties(self, machine_list):
        w = theorem1_word(machine_list)
        for n in range(1, 40):
            stage = w.stage(n)
            a = decode_dfa(n)
            q = a.run(w.prefix(stage.end - len(stage.patch_word)))
            forbidden = frozenset(
                k
                for k in range(1, min(n, len(machine_list)) + 1)
                if machine_list.halts_within(k, n)
            )
            if stage.patch_word:
                assert not (set(stage.patch_ranks) & forbidden)
                assert 0 not in stage.patch_ranks
                assert absorbing_accepting(with_initial(a, q)).accepts(stage.patch_word)
            else:
                passes = absorbing_accepting(with_initial(a, q))
                allowed = block_word_dfa(forbidden)
                possible = intersect(passes, allowed)
                assert q in a.accepting or is_empty(possible) or passes.accepts(())


# Machines halting after 0, 1 and 5 steps: stages 1 and 2 are empty, and from
# stage 5 on every patch must avoid ranks 1, 2 and 3.
HALTING_TEXT = """\
machine: halts-at-once
start: h

machine: halts-after-one
start: s0
trans: s0 _ x R s1

machine: halts-after-five
start: s0
trans: s0 _ x R s1
trans: s1 _ x R s2
trans: s2 _ x R s3
trans: s3 _ x R s4
trans: s4 _ x R s5
"""


def reference_stages(machines: MachineList, upto: int) -> tuple[list[Stage], list[tuple], tuple]:
    """Stages 1..upto, their (machine word, patch word) pairs and their prefix
    the slow way: each stage's automaton replays the whole symbol prefix, and
    its patch is the shortlex-least word of a product of throwaway automata."""
    stages: list[Stage] = []
    words: list[tuple] = []
    prefix: list[str] = []
    for n in range(1, upto + 1):
        alive = machines.alive_at(n)
        machine_word = tuple(s for k in alive for s in Block(k).word)
        automaton = decode_dfa(n)
        delta = automaton.delta
        q = automaton.initial
        for s in prefix:
            q = delta[(q, s)]
        for s in machine_word:
            q = delta[(q, s)]
        forbidden = frozenset(
            k for k in range(1, min(n, len(machines)) + 1) if machines.halts_within(k, n)
        )
        passes = absorbing_accepting(with_initial(automaton, q))
        patch = shortlex_smallest(intersect(passes, block_word_dfa(forbidden)))
        patch_word = patch if patch is not None else ()
        prefix.extend(machine_word)
        prefix.extend(patch_word)
        ranks = tuple(split_blocks(patch_word))
        stages.append(Stage(n, alive, ranks, len(prefix)))
        words.append((machine_word, patch_word))
    return stages, words, tuple(prefix)


def timed_machines_text(rng: random.Random) -> str:
    """Zero to six machines, each halting after 0-40 steps (a chain of rules) or never (a rule that loops)."""
    text = ""
    for m in range(rng.randint(0, 6)):
        halt = None if rng.random() < 0.25 else rng.randrange(41)
        rules = ["s0 _ _ R s0"] if halt is None else [f"s{i} _ x R s{i + 1}" for i in range(halt)]
        text += f"machine: m{m}\nstart: s0\n" + "".join(f"trans: {rule}\n" for rule in rules)
    return text


TIMED_RNG = random.Random(1601)  # lists of 0, 2, 3 and 4 machines; halts at 0, 8-31 steps and never
TIMED_TEXTS = [timed_machines_text(TIMED_RNG) for _ in range(6)]


class TestBlockReplay:
    @pytest.mark.parametrize(
        ("text", "upto"),
        [(MACHINES_TEXT, 140), (HALTING_TEXT, 140), *((text, 60) for text in TIMED_TEXTS)],
        ids=["gate", "halting", *(f"timed{i}" for i in range(len(TIMED_TEXTS)))],
    )
    def test_stages_match_symbol_replay(self, text, upto):
        expected, words, prefix = reference_stages(parse_machines(text), upto)
        w = theorem1_word(parse_machines(text))
        stages = [w.stage(n) for n in range(1, upto + 1)]
        assert stages == expected
        assert [(stage.machine_word, stage.patch_word) for stage in stages] == words
        assert w.prefix(len(prefix)) == prefix

    # digests of the word through stage 150; every stage builds its block rows afresh, as when they were recorded
    @pytest.mark.parametrize(
        ("text", "end", "digest"),
        [
            (MACHINES_TEXT, 596042, "1edaf5e02d0261461f7576578673a460c0e6bacdc8627867e483229b194f7f0d"),
            (HALTING_TEXT, 594716, "2d16cbd4acda700fd184cc24394f1161f8a8950a42b54f19493e2aefe53d30f8"),
        ],
        ids=["gate", "halting"],
    )
    def test_word_through_stage_150_is_pinned(self, text, end, digest):
        w = theorem1_word(parse_machines(text))
        assert w.ensure_stage(150).end == end
        assert hashlib.sha256("".join(w.prefix(end)).encode()).hexdigest() == digest

    def test_halting_list_forbids_ranks(self):
        w = theorem1_word(parse_machines(HALTING_TEXT))
        assert w.stage(1).end == w.stage(2).end == 0
        assert any(w.stage(n).patch_ranks for n in range(5, 141))
        for n in range(5, 141):
            assert not {1, 2, 3} & set(w.stage(n).patch_ranks)

    def test_block_rows_match_dfa_run(self):
        rng = random.Random(801)
        for _ in range(200):
            a = random_dfa(rng, max_states=5)
            top = rng.randrange(16)
            rows = _block_rows(table_of(a)[0], top)
            for j, q in enumerate(a.states):
                assert [a.states[p] for p in rows[j]] == [a.run(Block(m).word, q) for m in range(top + 1)]

    def test_patch_matches_product_search(self):
        rng = random.Random(802)
        for _ in range(300):
            a = random_dfa(rng, max_states=4, accept_p=0.3)
            forbidden = frozenset(k for k in range(1, 6) if rng.random() < 0.4)
            allowed = block_word_dfa(forbidden)
            table, accepting = table_of(a)
            for j, q in enumerate(a.states):
                passes = absorbing_accepting(with_initial(a, q))
                expected = shortlex_smallest(intersect(passes, allowed))
                ranks = _patch_ranks(table, accepting, j, forbidden)
                assert tuple(_blocks_text(ranks)) == (expected or ()), (a, q, forbidden)


class TestDecideTheorem1:
    def test_yes_on_contains1(self, a_contains1, machine_list):
        # the word opens with "1": immediate accepting visit
        assert decide_prefix_theorem1(a_contains1, machine_list) == Verdict("Yes", 1, 1)

    def test_no_for_unreachable_acceptance(self, machine_list):
        # accepting state exists but cannot be reached: refuted at position 0
        a = Dfa(
            BINARY,
            ("p", "ghost"),
            {
                ("p", "0"): "p",
                ("p", "1"): "p",
                ("ghost", "0"): "ghost",
                ("ghost", "1"): "ghost",
            },
            "p",
            frozenset({"ghost"}),
        )
        assert decide_prefix_theorem1(a, machine_list) == Verdict("No", 0, 0)

    def test_immediate_verdicts(self, machine_list):
        assert decide_prefix_theorem1(decode_dfa(2), machine_list) == Verdict("Yes", 0, 0)
        assert decide_prefix_theorem1(decode_dfa(1), machine_list) == Verdict("No", 0, 0)

    def test_rejects_non_binary(self, machine_list):
        abc = Alphabet(("a", "b", "c"))
        a = Dfa(abc, ("p",), {("p", s): "p" for s in abc}, "p", frozenset())
        with pytest.raises(AlphabetMismatchError):
            decide_prefix_theorem1(a, machine_list)

    def test_agreement_with_plain_scan(self, machine_list):
        rng = random.Random(521)
        w = theorem1_word(machine_list)
        for _ in range(15):
            a = random_dfa(rng, max_states=2)
            verdict = decide_prefix_theorem1(a, machine_list, word=w)
            stage_end = w.stage(encode_dfa(a)).end
            hit = brute_force_prefix_check(a, w, 2 * stage_end)
            if verdict.answer == "Yes":
                assert hit == verdict.evidence
            else:
                assert hit is None
                assert verdict.evidence <= stage_end

    def test_builds_no_stage_past_its_resolution(self, a_contains1, machine_list):
        # "contains a 1" is canonical automaton 33 and accepts at symbol 1, in stage 1
        w = theorem1_word(machine_list)
        assert encode_dfa(a_contains1) == 33
        assert decide_prefix_theorem1(a_contains1, machine_list, word=w) == Verdict("Yes", 1, 1)
        assert len(w._stages) == 1

    def test_pays_only_for_what_its_run_reads(self, a_contains1, machine_list, monkeypatch):
        # a run resolved at position 0 builds no stage and one resolved in stage 1 builds only it,
        # neither computing the canonical index; the halting list's stages 1 and 2 are empty, so
        # there the run reads into stage 3 and computes it once; only a start that is not
        # accepting computes the dead-lock set
        index_calls, dead_calls = [], []
        encode = bridge_module.encode_dfa
        monkeypatch.setattr(bridge_module, "encode_dfa", lambda a: index_calls.append(a) or encode(a))
        monkeypatch.setattr(decide_module, "dead_lock_states", lambda a: dead_calls.append(a) or dead_lock_states(a))
        halting = parse_machines(HALTING_TEXT)
        cases = (
            (decode_dfa(2), machine_list, Verdict("Yes", 0, 0), 0, 0, 0),
            (decode_dfa(1), machine_list, Verdict("No", 0, 0), 0, 0, 1),
            (a_contains1, machine_list, Verdict("Yes", 1, 1), 1, 0, 1),
            (a_contains1, halting, Verdict("Yes", 1, 1), 3, 1, 1),
        )
        for a, machines, verdict, stages, index, dead in cases:
            index_calls.clear()
            dead_calls.clear()
            w = theorem1_word(machines)
            assert decide_prefix_theorem1(a, machines, word=w) == verdict
            assert (len(w._stages), len(index_calls), len(dead_calls)) == (stages, index, dead), a

    def test_generic_decider_agrees(self, a_contains1, machine_list):
        w = theorem1_word(machine_list)
        generic = decide_prefix(a_contains1, w, Fuel(100))
        tailored = decide_prefix_theorem1(a_contains1, machine_list, word=w)
        assert generic == Verdict(tailored.answer, tailored.evidence, tailored.steps_used)


def _oracle_without_rr():
    lang = FilterLanguage(BINARY, lambda w: True, lambda i: ("0",) * i)
    phi, _ = filter_to_word(lang)
    return phi.image_language_oracle(rr_to_prefix(literal_dfa("0", BINARY)))


# Raises that no other test reaches, each with its type and full message.
REACHABLE_RAISES = {
    "no rr decider": (_oracle_without_rr, ValueError, "filter language carries no rr decider"),
    "machine 0": (lambda: MachineList([]).halts_within(0, 1), IndexError, "machine indices are 1-based"),
}


@pytest.mark.parametrize("case", REACHABLE_RAISES.values(), ids=REACHABLE_RAISES)
def test_reachable_raise(case):
    read, *error = case
    assert failure(read) == tuple(error)
