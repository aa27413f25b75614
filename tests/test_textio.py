"""Textual automaton format: parse, serialize, error reporting."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import random_dfa, random_nfa
import realizability
from realizability import (
    Alphabet,
    Dfa,
    EffectiveFormatError,
    FormatError,
    MullerAutomaton,
    equivalent,
    literal_dfa,
    parse_dfa,
    parse_effective,
    parse_machines,
    parse_muller,
    parse_nfa,
    relabel_bfs,
    rr_to_prefix,
    serialize_dfa,
    serialize_muller,
    serialize_nfa,
    words_upto,
)

CONTAINS1 = """\
# accepts words containing a 1
alphabet: 0 1
states: s0 s1
initial: s0
accepting: s1

trans: s0 0 s0
trans: s0 1 s1
trans: s1 0 s1
trans: s1 1 s1
"""


class TestParseDfa:
    def test_basic(self):
        a = parse_dfa(CONTAINS1)
        assert a.states == ("s0", "s1")
        assert a.accepts(("0", "1"))
        assert not a.accepts(("0",))

    def test_comments_and_blank_lines_ignored(self):
        a = parse_dfa("# lead\n\n" + CONTAINS1 + "\n# trail\n")
        assert a.initial == "s0"

    def test_missing_transitions_completed_with_sink(self):
        text = """\
alphabet: 0 1
states: p
initial: p
accepting: p
trans: p 0 p
"""
        a = parse_dfa(text)
        assert a.accepts(("0", "0"))
        assert not a.accepts(("1",))
        assert any(str(q).startswith("_sink") for q in a.states)

    def test_unknown_state_in_transition(self):
        bad = CONTAINS1 + "trans: zz 0 s0\n"
        with pytest.raises(FormatError) as err:
            parse_dfa(bad)
        assert err.value.line_no == bad.count("\n")

    def test_duplicate_transition_rejected(self):
        bad = CONTAINS1 + "trans: s0 0 s1\n"
        with pytest.raises(FormatError):
            parse_dfa(bad)

    def test_malformed_line_reports_number(self):
        with pytest.raises(FormatError) as err:
            parse_dfa("alphabet: 0 1\nstates p\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "parse, text, missing",
        [
            (parse_dfa, "accepting: s0\n", "alphabet"),
            (parse_dfa, "alphabet: 0\ninitial: s0\n", "states"),
            (parse_dfa, "alphabet: 0\nstates: s0\n", "initial"),
            (parse_nfa, "states: s0\ninitials: s0\n", "alphabet"),
            (parse_nfa, "alphabet: 0\nstates: s0\n", "initials"),
            (parse_muller, "alphabet: 0\nmacro: s0\n", "states"),
        ],
    )
    def test_first_missing_section_in_line_order(self, parse, text, missing):
        with pytest.raises(FormatError, match=f"^line 1: missing '{missing}' line$"):
            parse(text)

    def test_missing_section_does_not_depend_on_the_hash_seed(self, tmp_path):
        path = tmp_path / "accepting-only.aut"
        path.write_text("accepting: s0\n", encoding="utf-8")
        src = str(Path(realizability.__file__).resolve().parents[1])
        for seed in range(8):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-m", "realizability.cli", "definitive", str(path)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert (done.returncode, done.stdout, done.stderr) == (
                3, "", "error: line 1: missing 'alphabet' line\n"
            ), seed

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_dfa(rng, max_states=6)
            b = parse_dfa(serialize_dfa(a))
            assert equivalent(a, b)
            assert b.states == a.states


class TestParseNfa:
    def test_multiple_initials_and_duplicate_edges(self):
        text = """\
alphabet: a b
states: p q
initials: p q
accepting: q
trans: p a q
trans: p a p
"""
        n = parse_nfa(text)
        assert n.initials == frozenset({"p", "q"})
        assert n.accepts(("a",))

    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(20):
            n = random_nfa(rng)
            m = parse_nfa(serialize_nfa(n))
            for w in words_upto(n.alphabet, 4):
                assert n.accepts(w) == m.accepts(w)


class TestParseMuller:
    MULLER = """\
alphabet: a b
states: q0 q1
initial: q0
trans: q0 a q0
trans: q0 b q1
trans: q1 a q0
trans: q1 b q1
macro: q0 q1
macro: q1
"""

    def test_basic(self):
        m = parse_muller(self.MULLER)
        assert isinstance(m, MullerAutomaton)
        assert m.acceptance_family == frozenset(
            {frozenset({"q0", "q1"}), frozenset({"q1"})}
        )

    def test_accepting_line_rejected(self):
        with pytest.raises(FormatError):
            parse_muller(self.MULLER + "accepting: q0\n")

    def test_round_trip(self):
        m = parse_muller(self.MULLER)
        again = parse_muller(serialize_muller(m))
        assert again.acceptance_family == m.acceptance_family
        assert again.delta == m.delta


HEAD = "alphabet: 0 1\nstates: s0 s1\ninitial: s0\n"  # lines 1-3


class TestInputErrors:
    """Every input error of the three automaton parsers, message and line number."""

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_dfa, HEAD + "macro: s0\n", "line 4: unknown or misplaced section 'macro'"),
            (parse_nfa, HEAD, "line 3: unknown or misplaced section 'initial'"),
            (parse_dfa, HEAD + "trans: s0 0\n", "line 4: trans line needs: source symbol target"),
            (parse_dfa, HEAD + "trans: s0 0 s1 s1\n", "line 4: trans line needs: source symbol target"),
            (parse_dfa, HEAD + "accepting: s1\naccepting: s0\n", "line 5: duplicate 'accepting' line"),
            (parse_dfa, "alphabet: 0 0\nstates: s0\ninitial: s0\n", "line 1: alphabet contains duplicate symbols"),
            (parse_dfa, "alphabet:\nstates: s0\ninitial: s0\n", "line 1: alphabet must contain at least one symbol"),
            (parse_dfa, "alphabet: 0\nstates: s0 s0\ninitial: s0\n", "line 2: duplicate state names"),
            (parse_dfa, HEAD + "accepting: s1 s2\n", "line 4: unknown accepting state 's2'"),
            (parse_dfa, HEAD + "trans: s0 2 s1\n", "line 4: unknown symbol '2'"),
            (parse_nfa, "alphabet: 0\nstates: s0\ninitials: s0 s1\n", "line 3: unknown initial state 's1'"),
            (parse_muller, HEAD + "macro: s0\nmacro: s1 s2\n", "line 5: unknown state 's2' in macro line"),
            (parse_dfa, "alphabet: 0\nstates: s0 s1\ninitial: s0 s1\n", "line 3: initial: expects exactly one state name"),
            (parse_muller, "alphabet: 0\nstates: s0\ninitial:\n", "line 3: initial: expects exactly one state name"),
            (parse_dfa, "alphabet: 0\nstates: s0\ninitial: s1\n", "line 3: unknown state 's1'"),
        ],
    )
    def test_message_and_line(self, parse, text, message):
        with pytest.raises(FormatError) as err:
            parse(text)
        assert str(err.value) == message
        assert err.value.line_no == int(message.split(":")[0].removeprefix("line "))

    def test_completion_sink_avoids_a_state_named_like_it(self):
        text = "alphabet: 0\nstates: _sink __sink\ninitial: _sink\naccepting: _sink\ntrans: _sink 0 __sink\n"
        a = parse_dfa(text)
        assert a.states == ("_sink", "__sink", "___sink")
        assert a.delta == {("_sink", "0"): "__sink", ("__sink", "0"): "___sink", ("___sink", "0"): "___sink"}


class TestErrorLines:
    """Each parse error of every text format names the line it is about; a missing section says line 1."""

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_dfa, "states: s0\ninitial: s0\n", "line 1: missing 'alphabet' line"),
            (parse_dfa, "accepting: s9\nalphabet: 0\nstates: s0\ninitial: s0\n", "line 1: unknown accepting state 's9'"),
            (parse_dfa, "alphabet: 0 1\naccepting: s1\nstates: s0 s1\ninitial: s2\n", "line 4: unknown state 's2'"),
            (parse_nfa, "initials: s0 s1\nalphabet: 0\nstates: s0\n", "line 1: unknown initial state 's1'"),
            (
                parse_muller,
                "alphabet: 0\nstates: s0\ninitial: s0\nmacro: s0\naccepting: s0\n",
                "line 5: muller automata use macro: lines, not accepting:",
            ),
            (parse_effective, "states: q0\naccepting: q0\ninitial: q1\n", "line 3: missing or unknown initial state"),
            (parse_effective, "# e\nstates: q0\ninitial: q0\naccepting: q1\n", "line 4: accepting set contains unknown states"),
            (parse_effective, "states: q0\naccepting: q0\n", "line 1: missing or unknown initial state"),
            (parse_effective, "initial: q0\n", "line 1: missing states: line"),
            (parse_effective, "initial: q0\netrans: q0 q0 all\nstates: q0\n", "line 2: unknown state in etrans line"),
            (parse_effective, "states: q0\ninitial: q0\netrans: q0 q1 all\n", "line 3: unknown state in etrans line"),
            (parse_machines, "machine: m\ntrans: s _ x R t\nmachine: n\nstart: s\n", "line 1: machine 'm' has no start: line"),
            (parse_machines, "machine: m\nstart: s\n\nmachine: n\ntrans: s _ x R t\n", "line 4: machine 'n' has no start: line"),
            (parse_machines, "# intro\nstart: s\nmachine: m\n", "line 2: start: outside machine or malformed"),
            (parse_machines, "trans: s _ x R t\nmachine: m\nstart: s\n", "line 1: trans: outside machine or malformed"),
            (parse_machines, "machine: m\nstart: s t\n", "line 2: start: outside machine or malformed"),
            (parse_machines, "machine: m\nstart: s\nbogus: 1\n", "line 3: unknown or misplaced section 'bogus'"),
            (parse_machines, "machine: m\nstart: s\nmachine: n\nstart: s\nstart: t\n", "line 5: duplicate 'start' line"),
            (parse_machines, "machine: m\nstart: s\ntrans: s _ x J t\n", "line 3: move must be one of L R S"),
        ],
    )
    def test_message_and_line(self, parse, text, message):
        with pytest.raises(FormatError) as err:
            parse(text)
        assert type(err.value) is (EffectiveFormatError if parse is parse_effective else FormatError)
        assert str(err.value) == message
        assert err.value.line_no == int(message.split(":")[0].removeprefix("line "))

    def test_muller_structure_is_validated_once(self, monkeypatch):
        calls = []
        validate = Dfa.__post_init__
        monkeypatch.setattr(Dfa, "__post_init__", lambda a: calls.append(a) or validate(a))
        m = parse_muller("alphabet: a b\nstates: q0 q1\ninitial: q0\nmacro: q0\ntrans: q0 a q1\n")
        assert len(calls) == 1
        assert m.states == ("q0", "q1", "_sink")
        assert m.delta[("q1", "b")] == "_sink"


class TestCommentEscape:
    """A ``#`` inside a token is written ``\\#``; an unescaped ``#`` starts a comment."""

    def test_escaped_hash_is_a_symbol(self):
        text = "alphabet: 0 \\# # the separator\nstates: s0\ninitial: s0\naccepting: s0\n"
        text += "trans: s0 0 s0\ntrans: s0 \\# s0 # loop\n"
        a = parse_dfa(text)
        assert a.alphabet.symbols == ("0", "#")
        assert a.delta == {("s0", "0"): "s0", ("s0", "#"): "s0"}

    def test_a_backslash_elsewhere_keeps_its_meaning(self):
        a = parse_dfa("alphabet: \\ a\\b\nstates: s\\0\ninitial: s\\0 #\\# comment\n")
        assert a.alphabet.symbols == ("\\", "a\\b")
        assert a.initial == "s\\0"

    def test_serializers_escape_the_comment_marker(self):
        a = Dfa(Alphabet(("0", "#")), ("q#1",), {("q#1", "0"): "q#1", ("q#1", "#"): "q#1"}, "q#1", frozenset({"q#1"}))
        assert serialize_dfa(a) == (
            "alphabet: 0 \\#\nstates: q\\#1\ninitial: q\\#1\naccepting: q\\#1\n"
            "trans: q\\#1 0 q\\#1\ntrans: q\\#1 \\# q\\#1\n"
        )

    @pytest.mark.parametrize("symbols", [("0", "1", "#"), ("#", "a#", "\\#", "\\", "#b")])
    def test_round_trip_random_with_hash(self, symbols):
        rng = random.Random(20)
        alphabet = Alphabet(symbols)
        for _ in range(25):
            a = relabel_bfs(random_dfa(rng, max_states=6, alphabet=alphabet), prefix="q#")
            assert parse_dfa(serialize_dfa(a)) == a
            n = random_nfa(rng, alphabet=alphabet)
            m = parse_nfa(serialize_nfa(n))
            assert (m.alphabet, m.states, m.transitions, m.initials, m.accepting) == (
                n.alphabet, n.states, n.transitions, n.initials, n.accepting
            )
            family = frozenset({a.accepting, frozenset(a.states)})
            muller = MullerAutomaton(a.alphabet, a.states, a.delta, a.initial, family)
            again = parse_muller(serialize_muller(muller))
            assert (again.dfa, again.acceptance_family) == (muller.dfa, muller.acceptance_family)

    def test_the_rr_reduction_reads_back(self):
        d = rr_to_prefix(literal_dfa("00", Alphabet(("0", "1"))))
        assert parse_dfa(serialize_dfa(d)) == d
