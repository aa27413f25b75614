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
    FormatError,
    MullerAutomaton,
    equivalent,
    parse_dfa,
    parse_muller,
    parse_nfa,
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
