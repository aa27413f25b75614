"""Command-line interface: output contract, exit codes, error handling."""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

from realizability import (
    Alphabet,
    Dfa,
    apply_morphism,
    equivalent,
    parse_dfa,
    regex_dfa,
    rr_to_prefix,
    universal_indexed_word,
    zero_one_blocks,
)
from realizability import cli
from realizability.cli import DUMP_LIMIT, THEOREM1_STAGE_LIMIT, main

CONTAINS1 = """\
alphabet: 0 1
states: s0 s1
initial: s0
accepting: s1
trans: s0 0 s0
trans: s0 1 s1
trans: s1 0 s1
trans: s1 1 s1
"""

ONLY0 = """\
alphabet: 0 1
states: s0 s1 s2
initial: s0
accepting: s1
trans: s0 0 s1
trans: s0 1 s2
trans: s1 0 s2
trans: s1 1 s2
trans: s2 0 s2
trans: s2 1 s2
"""

ZEROS_FILTER = """\
alphabet: 0 1
states: e z x
initial: e
accepting: z
trans: e 0 z
trans: e 1 x
trans: z 0 z
trans: z 1 x
trans: x 0 x
trans: x 1 x
"""

EFFECTIVE = """\
states: q0 q1
initial: q0
accepting: q1
etrans: q0 q0 0%2
etrans: q0 q1 1%2
etrans: q1 q1 all
"""

MACHINES = """\
machine: halts-after-three
start: s0
trans: s0 _ x R s1
trans: s1 _ x R s2
trans: s2 _ x R s3

machine: loops-forever
start: a
trans: a _ _ R a
"""

# decide-infinite --buchi without --fuel: the fuel of the dead-lock-accepting
# variant reaches the answer, No at 103; the fuel derived from the automaton
# itself is 1 symbol.
BUCHI_FUEL_CASE = """\
states: q0 q1
initial: q0
accepting: q0
etrans: q0 q0 0%1 -4
etrans: q0 q1 +4
etrans: q1 q1 0%2
etrans: q1 q1 1%2
"""

# Counts 1s mod 70 and accepts the count 69: the occurrence bound of its
# definitive word along the Champernowne word is far past sys.maxsize.
COUNTER70 = "alphabet: 0 1\nstates: {}\ninitial: c0\naccepting: c69\n{}".format(
    " ".join(f"c{i}" for i in range(70)),
    "".join(f"trans: c{i} 0 c{i}\ntrans: c{i} 1 c{(i + 1) % 70}\n" for i in range(70)),
)

# Counts 1s mod 3 and accepts the count 2: canonical stage 1,127.
COUNTER3 = "alphabet: 0 1\nstates: c0 c1 c2\ninitial: c0\naccepting: c2\n{}".format(
    "".join(f"trans: c{i} 0 c{i}\ntrans: c{i} 1 c{(i + 1) % 3}\n" for i in range(3)),
)


def assert_one_error_line(code: int, captured) -> None:
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("contains1.aut", CONTAINS1),
        ("only0.aut", ONLY0),
        ("zeros.aut", ZEROS_FILTER),
        ("eff.txt", EFFECTIVE),
        ("machines.txt", MACHINES),
        ("counter70.aut", COUNTER70),
        ("counter3.aut", COUNTER3),
        ("bad.ea", EFFECTIVE.replace("etrans: q1 q1 all", "etrans: q1 zz all")),
        ("overlap.ea", EFFECTIVE.replace("0%2", "all").replace("1%2", "all")),
        ("index0.ea", EFFECTIVE.replace("1%2", "+0")),
        ("buchi-fuel.ea", BUCHI_FUEL_CASE),
        ("bad.aut", CONTAINS1.replace("trans: s1 1 s1", "trans: s1 1 s9")),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


class TestDefinitive:
    def test_word_line(self, files, capsys):
        code = main(["definitive", files["contains1.aut"]])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "DEFINITIVE=1"

    def test_language_flag_appends_automaton(self, files, capsys):
        code = main(["definitive", files["contains1.aut"], "--language"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "DEFINITIVE=1"
        assert any(line.startswith("alphabet:") for line in lines[1:])
        assert any(line.startswith("trans:") for line in lines[1:])


class TestDecidePrefix:
    def test_yes(self, files, capsys):
        code = main(
            ["decide-prefix", "--automaton", files["contains1.aut"], "--gen", "champernowne"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == "ANSWER=Yes EVIDENCE=2\n"

    def test_no_via_ultper(self, files, capsys):
        code = main(
            [
                "decide-prefix",
                "--automaton",
                files["only0.aut"],
                "--gen",
                "ultper",
                "--loop",
                "1",
                "--alphabet",
                "01",
                "--fuel",
                "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out == "ANSWER=No EVIDENCE=1\n"

    def test_fuel_exhausted(self, files, capsys):
        code = main(
            [
                "decide-prefix",
                "--automaton",
                files["contains1.aut"],
                "--gen",
                "ultper",
                "--loop",
                "0",
                "--alphabet",
                "01",
                "--fuel",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert out == "ANSWER=FuelExhausted EVIDENCE=5\n"

    def test_trace_goes_to_stderr(self, files, capsys):
        code = main(
            [
                "decide-prefix",
                "--automaton",
                files["contains1.aut"],
                "--gen",
                "champernowne",
                "--trace",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "ANSWER=Yes EVIDENCE=2\n"
        assert captured.err.splitlines() == ["0 s0", "1 s0", "2 s1"]

    def test_morphism_generator_needs_fuel(self, files, capsys):
        args = [
            "decide-prefix",
            "--automaton",
            files["contains1.aut"],
            "--gen",
            "morphism",
            "--morphism",
            "zero-one-runs",
        ]
        code = main(args)
        captured = capsys.readouterr()
        assert code == 3
        assert "error:" in captured.err
        code = main(args + ["--fuel", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "ANSWER=Yes EVIDENCE=6\n"

    def test_theorem1_generator(self, files, capsys):
        code = main(
            [
                "decide-prefix",
                "--automaton",
                files["contains1.aut"],
                "--gen",
                "theorem1",
                "--machines",
                files["machines.txt"],
                "--fuel",
                "100",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == "ANSWER=Yes EVIDENCE=1\n"

    def test_theorem1_without_fuel_uses_the_fuel_free_decider(self, files, capsys):
        args = ["decide-prefix", "--automaton", files["contains1.aut"], "--gen", "theorem1"]
        code = main(args + ["--machines", files["machines.txt"]])
        assert code == 0
        assert capsys.readouterr().out == "ANSWER=Yes EVIDENCE=1\n"
        code = main(args + ["--machines", files["machines.txt"], "--trace"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "ANSWER=Yes EVIDENCE=1\n"
        assert captured.err == "0 s0\n1 s1\n"

    def test_theorem1_without_fuel_refuses_stages_past_two_states(self, files, capsys):
        args = ["decide-prefix", "--gen", "theorem1", "--machines", files["machines.txt"]]
        started = time.perf_counter()
        code = main(args + ["--automaton", files["counter3.aut"]])
        assert time.perf_counter() - started < 5
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert "stage 1127" in captured.err
        assert f"past stage {THEOREM1_STAGE_LIMIT}" in captured.err
        assert "--fuel" in captured.err
        assert THEOREM1_STAGE_LIMIT == 66
        code = main(args + ["--automaton", files["contains1.aut"]])
        assert code == 0
        assert capsys.readouterr().out == "ANSWER=Yes EVIDENCE=1\n"

    def test_theorem1_buchi_still_needs_fuel(self, files, capsys):
        code = main(
            ["decide-buchi", "--automaton", files["contains1.aut"], "--gen", "theorem1",
             "--machines", files["machines.txt"]]
        )
        assert code == 3
        assert "--fuel is required" in capsys.readouterr().err

    def test_derived_fuel_past_maxsize(self, files, capsys):
        code = main(
            ["decide-prefix", "--automaton", files["counter70.aut"], "--gen", "champernowne"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == "ANSWER=Yes EVIDENCE=158\n"

    def test_reruns_are_byte_identical(self, files, capsys):
        args = ["decide-prefix", "--automaton", files["contains1.aut"], "--gen", "champernowne"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


class TestDecideBuchi:
    def test_no_with_variant_fuel(self, files, capsys):
        # the default budget must come from the dead-lock-accepting variant
        code = main(
            ["decide-buchi", "--automaton", files["only0.aut"], "--gen", "champernowne"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out == "ANSWER=No EVIDENCE=2\n"

    def test_yes(self, files, capsys):
        code = main(
            ["decide-buchi", "--automaton", files["contains1.aut"], "--gen", "champernowne"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == "ANSWER=Yes EVIDENCE=0\n"


class TestDecideInfinite:
    def test_prefix_yes(self, files, capsys):
        code = main(["decide-infinite", "--effective", files["eff.txt"]])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "ANSWER=Yes EVIDENCE=1\n"

    def test_buchi(self, files, capsys):
        code = main(["decide-infinite", "--effective", files["eff.txt"], "--buchi"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "ANSWER=Yes EVIDENCE=0\n"

    def test_buchi_without_fuel_derives_it_from_the_variant(self, files, capsys):
        code = main(["decide-infinite", "--effective", files["buchi-fuel.ea"], "--buchi"])
        assert (code, capsys.readouterr().out) == (1, "ANSWER=No EVIDENCE=103\n")

    def test_fuel_past_maxsize(self, files, capsys):
        code = main(["decide-infinite", "--effective", files["eff.txt"], "--fuel", str(10**30)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "ANSWER=Yes EVIDENCE=1\n"

    def test_explicit_fuel_exhaustion(self, files, capsys):
        # accepting only on odd indices, but force a tiny budget with a word
        # composed of even indices via the built-in universal generator:
        # position 2 already carries index 2, so exhaustion needs fuel... the
        # universal word resolves at 1; exhaustion is covered by decide-prefix
        code = main(["decide-infinite", "--effective", files["eff.txt"], "--fuel", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "ANSWER=Yes EVIDENCE=1\n"

    def test_malformed_effective_file(self, files, capsys):
        code = main(["decide-infinite", "--effective", files["bad.ea"]])
        assert_one_error_line(code, capsys.readouterr())

    @pytest.mark.parametrize("fuel", [[], ["--fuel", "1000"]], ids=["derived", "explicit"])
    def test_overlapping_rules_are_an_error(self, files, capsys, fuel):
        # q0 -> q0 on every index shadows q0 -> q1, so the answer would be No at 0;
        # such a file is refused instead of scanned or read as FuelExhausted
        code = main(["decide-infinite", "--effective", files["overlap.ea"], *fuel])
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert "overlap at index 1" in captured.err

    def test_unknown_initial_state_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "initial.ea"
        path.write_text(EFFECTIVE.replace("initial: q0", "initial: q9"))
        code = main(["decide-infinite", "--effective", str(path)])
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert captured.err == "error: line 2: missing or unknown initial state\n"

    def test_index_below_one_is_a_parse_error(self, files, capsys):
        # no index moves q0 to q1, so the witness scan used to run a million
        # indices before failing; the file is refused at its etrans line
        code = main(["decide-infinite", "--effective", files["index0.ea"]])
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert "line 5: indices are 1-based" in captured.err


class TestRr:
    def test_yes(self, files, capsys):
        code = main(["rr", "--filter", files["zeros.aut"], "--regex", "00"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "ANSWER=Yes EVIDENCE=2\n"

    def test_no(self, files, capsys):
        code = main(["rr", "--filter", files["zeros.aut"], "--regex", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert out == "ANSWER=No EVIDENCE=0\n"

    def test_automaton_file_instead_of_regex(self, files, capsys):
        code = main(["rr", "--filter", files["zeros.aut"], "--automaton", files["only0.aut"]])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "ANSWER=Yes EVIDENCE=1\n"

    def test_show_reduction(self, files, capsys):
        code = main(
            ["rr", "--filter", files["zeros.aut"], "--regex", "00", "--show-reduction"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "ANSWER=Yes EVIDENCE=2\n"
        assert "trans:" in captured.err

    def test_printed_reduction_reads_back(self, files, tmp_path, capsys):
        # the reduction's # separator is printed as \#, so the file parses again
        code = main(["rr", "--filter", files["zeros.aut"], "--regex", "00", "--show-reduction"])
        printed = capsys.readouterr().err
        assert code == 0
        assert "alphabet: 0 1 \\#\n" in printed
        reduction = tmp_path / "reduction.aut"
        reduction.write_text(printed)
        assert parse_dfa(printed) == rr_to_prefix(regex_dfa("00", Alphabet(("0", "1"))))
        code = main(["definitive", str(reduction)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out.startswith("DEFINITIVE=")

    def test_malformed_filter_file(self, files, capsys):
        code = main(["rr", "--filter", files["bad.aut"], "--regex", "00"])
        assert_one_error_line(code, capsys.readouterr())

    def test_regex_and_automaton_are_exclusive(self, files, capsys):
        code = main(
            [
                "rr",
                "--filter",
                files["zeros.aut"],
                "--regex",
                "00",
                "--automaton",
                files["only0.aut"],
            ]
        )
        capsys.readouterr()
        assert code == 3


class TestWordDump:
    def test_champernowne(self, capsys):
        code = main(["word", "dump", "--gen", "champernowne", "--upto", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "0100011011\n"

    def test_indexed_word_prints_integers(self, capsys):
        code = main(["word", "dump", "--gen", "universal-indexed", "--upto", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "1 2 1 1 1 2 2 1 2 2\n"

    def test_ultper(self, capsys):
        code = main(
            ["word", "dump", "--gen", "ultper", "--stem", "01", "--loop", "10", "--upto", "8"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == "01101010\n"

    def test_morphism_image(self, capsys):
        code = main(
            [
                "word",
                "dump",
                "--gen",
                "morphism",
                "--morphism",
                "cyclic:01,1",
                "--upto",
                "6",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # indexed word starts 1, 2, 1, 1: images 01, 1, 01, 01
        assert out == "011010\n"

    def test_zero_one_blocks_image(self, files, capsys):
        code = main(["word", "dump", "--gen", "morphism", "--morphism", "zero-one-blocks", "--upto", "16"])
        out = capsys.readouterr().out
        expected = apply_morphism(zero_one_blocks(), universal_indexed_word()).prefix(16)
        assert (code, out) == (0, "0101010101110111\n") == (0, "".join(expected) + "\n")
        argv = ["decide-prefix", "--automaton", files["contains1.aut"], "--gen", "morphism"]
        code = main(argv + ["--morphism", "zero-one-blocks", "--fuel", "100"])
        assert (code, capsys.readouterr().out) == (0, "ANSWER=Yes EVIDENCE=2\n")

    def test_upto_past_the_limit_generates_nothing(self, capsys):
        started = time.perf_counter()
        code = main(["word", "dump", "--gen", "champernowne", "--upto", str(10**12)])
        assert time.perf_counter() - started < 1
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert str(DUMP_LIMIT) in captured.err

    def test_theorem1(self, files, capsys):
        code = main(
            [
                "word",
                "dump",
                "--gen",
                "theorem1",
                "--machines",
                files["machines.txt"],
                "--upto",
                "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == "1011011001\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("start: s9", "line 3: duplicate 'start' line"),
            ("trans: s0 _ _ L s0", "line 4: duplicate transition for ('s0', '_')"),
        ],
    )
    def test_theorem1_repeated_machine_line(self, tmp_path, capsys, line, message):
        lines = MACHINES.splitlines()
        lines.insert(3 if line.startswith("trans") else 2, line)
        path = tmp_path / "repeated.txt"
        path.write_text("\n".join(lines) + "\n")
        code = main(["word", "dump", "--gen", "theorem1", "--machines", str(path), "--upto", "10"])
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert captured.err == f"error: {message}\n"


class TestErrors:
    def test_unknown_subcommand(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 3

    def test_missing_required_flag(self, capsys):
        code = main(["decide-prefix", "--gen", "champernowne"])
        capsys.readouterr()
        assert code == 3

    def test_nonexistent_file(self, capsys):
        code = main(["definitive", "/nonexistent/path.aut"])
        captured = capsys.readouterr()
        assert code == 3
        assert "error:" in captured.err

    def test_bad_regex(self, files, capsys):
        code = main(["rr", "--filter", files["zeros.aut"], "--regex", "(00"])
        captured = capsys.readouterr()
        assert code == 3
        assert "error:" in captured.err

    def test_deeply_nested_regex(self, files, capsys):
        pattern = "(" * 300 + "0" + ")" * 300
        code = main(["rr", "--filter", files["zeros.aut"], "--regex", pattern])
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        message = f"regex {pattern!r}: parentheses nested deeper than 100 at position 100"
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--gen", "morphism", "--morphism", "cyclic:,"], "cyclic morphism needs at least one non-empty image"),
            (["--gen", "morphism", "--morphism", "frob"], "unknown morphism 'frob'"),
            (["--gen", "morphism"], "morphism generator needs --morphism"),
            (["--gen", "theorem1"], "theorem1 generator needs --machines <file>"),
        ],
    )
    def test_generator_flag_errors(self, files, flags, message, capsys):
        for argv in (["word", "dump", "--upto", "5"], ["decide-prefix", "--automaton", files["contains1.aut"]]):
            code = main(argv + flags)
            captured = capsys.readouterr()
            assert_one_error_line(code, captured)
            assert captured.err == f"error: {message}\n"

    def test_ultper_without_loop(self, files, capsys):
        code = main(
            ["decide-prefix", "--automaton", files["contains1.aut"], "--gen", "ultper"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "error:" in captured.err

    def test_indexed_generator_rejected_by_decide(self, files, capsys):
        code = main(
            ["decide-prefix", "--automaton", files["contains1.aut"], "--gen", "universal-indexed"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""

    def test_dump_upto_zero_prints_an_empty_line(self, capsys):
        code = main(["word", "dump", "--gen", "champernowne", "--upto", "0"])
        assert code == 0
        assert capsys.readouterr().out == "\n"

    def test_no_arguments(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == 3

    @pytest.mark.parametrize(
        "gen", [["champernowne"], ["ultper", "--loop", "01"]], ids=["champernowne", "ultper"]
    )
    def test_negative_upto_is_an_error_not_a_no(self, gen, capsys):
        # an escaping exception would exit with 1, which reads as "No"
        code = main(["word", "dump", "--gen", *gen, "--upto", "-3"])
        assert_one_error_line(code, capsys.readouterr())

    @pytest.mark.parametrize(
        "argv",
        [
            ["definitive", "{bad}"],
            ["definitive", "{bad}", "--language"],
            ["decide-prefix", "--automaton", "{bad}", "--gen", "champernowne", "--fuel", "10"],
            ["decide-buchi", "--automaton", "{bad}", "--gen", "champernowne", "--fuel", "10"],
        ],
        ids=["definitive", "definitive-language", "decide-prefix", "decide-buchi"],
    )
    def test_malformed_automaton_file(self, files, argv, capsys):
        code = main([arg.format(bad=files["bad.aut"]) for arg in argv])
        assert_one_error_line(code, capsys.readouterr())

    @pytest.mark.parametrize(
        "argv",
        [
            ["word", "dump", "--gen", "ultper", "--alphabet", "01", "--loop", "2", "--upto", "5"],
            ["decide-prefix", "--automaton", "{a}", "--gen", "ultper", "--alphabet", "01",
             "--loop", "2", "--fuel", "10"],
        ],
        ids=["word-dump", "decide-prefix"],
    )
    def test_ultper_symbol_outside_the_alphabet(self, files, argv, capsys):
        code = main([arg.format(a=files["contains1.aut"]) for arg in argv])
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert "symbol '2' not in alphabet" in captured.err


# stdout, stderr and exit code of each usage case, recorded with COLUMNS=80;
# help text, usage errors and exit codes must stay byte-identical
USAGE_CASES = json.loads((Path(__file__).parent / "fixtures" / "cli_usage.json").read_text("utf-8"))


class TestUsageOutput:
    @pytest.mark.parametrize("case", USAGE_CASES, ids=[" ".join(c["argv"]) or "no-args" for c in USAGE_CASES])
    def test_help_and_usage_errors_are_byte_identical(self, case, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        code = main(list(case["argv"]))
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == (case["stdout"], case["stderr"], case["code"])

    def test_main_without_argv_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["realizability", "word", "dump", "--gen", "champernowne", "--upto", "6"])
        assert main() == 0
        assert capsys.readouterr().out == "010001\n"


# decide-prefix and decide-buchi calls with their stdout, stderr and exit
# code, recorded while the CLI still chose the automaton whose definitive word
# sets the fuel; the deciders derive it now, and the output must not change.
# An argv token ``@name`` is the path of the fixture file ``name``.
DECIDE_FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "cli_decide.json").read_text("utf-8"))


def written(tmp_path_factory, fixture: dict) -> Path:
    """A fresh directory holding the fixture's files."""
    root = tmp_path_factory.mktemp("calls")
    for name, text in fixture["files"].items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def resolved(root: Path, argv: list[str]) -> list[str]:
    return [str(root / a[1:]) if a.startswith("@") else a for a in argv]


@pytest.fixture(scope="module")
def decide_files(tmp_path_factory):
    return written(tmp_path_factory, DECIDE_FIXTURE)


def test_decide_calls_are_byte_identical(decide_files, capsys):
    for case in DECIDE_FIXTURE["cases"]:
        argv = resolved(decide_files, case["argv"])
        code = main(argv)
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == (case["stdout"], case["stderr"], case["code"]), case["argv"]


# rr --show-reduction calls over the benchmark's three filters, with seeded
# automaton files of 1-4 states and seeded regular expressions, recorded while
# rr_to_prefix still determinized two concatenations.  Answers and exit codes
# must not change; the reduction on stderr may shrink but keeps its language.
RR_FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "cli_rr.json").read_text("utf-8"))


def read_reduction(text: str) -> Dfa:
    """The automaton ``serialize_dfa`` printed before it wrote the ``#``
    separator as ``\\#``, read without ``parse_dfa``, which takes an
    unescaped ``#`` for the start of a comment."""
    fields, delta = {}, {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        if key == "trans":
            src, sym, dst = rest.split()
            delta[src, sym] = dst
        else:
            fields[key] = rest.split()
    (initial,) = fields["initial"]
    alphabet, states = Alphabet(tuple(fields["alphabet"])), tuple(fields["states"])
    return Dfa(alphabet, states, delta, initial, frozenset(fields["accepting"]))


def test_rr_calls_keep_their_answers(tmp_path_factory, capsys):
    root = written(tmp_path_factory, RR_FIXTURE)
    assert {case["code"] for case in RR_FIXTURE["cases"]} == {0, 1}
    for case in RR_FIXTURE["cases"]:
        code = main(resolved(root, case["argv"]))
        captured = capsys.readouterr()
        assert (captured.out, code) == (case["stdout"], case["code"]), case["argv"]
        printed, recorded = parse_dfa(captured.err), read_reduction(case["stderr"])
        assert equivalent(printed, recorded), case["argv"]
        assert len(printed.states) <= len(recorded.states), case["argv"]


# decide-prefix calls on the diagonal word for canonical automata 1-66 without
# --fuel, a few with --trace, the refusal at 67 and --fuel calls past it, plus
# a word dump, over two machine lists; recorded while each stage still stepped
# a name-keyed automaton.  stdout, stderr and exit code must not change.
THEOREM1_FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "cli_theorem1.json").read_text("utf-8"))


def test_theorem1_calls_are_byte_identical(tmp_path_factory, capsys):
    root = written(tmp_path_factory, THEOREM1_FIXTURE)
    assert {case["code"] for case in THEOREM1_FIXTURE["cases"]} == {0, 1, 2, 3}
    for case in THEOREM1_FIXTURE["cases"]:
        code = main(resolved(root, case["argv"]))
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == (case["stdout"], case["stderr"], case["code"]), case["argv"]


# rr --regex calls on malformed patterns, recorded while regex_dfa still built
# one deterministic automaton per operator.  The parser's messages and the
# order in which it reports them (stdout, stderr and exit code) must not change.
REGEX_ERRORS_FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "cli_regex_errors.json").read_text("utf-8"))


def test_regex_errors_are_byte_identical(tmp_path_factory, capsys):
    root = written(tmp_path_factory, REGEX_ERRORS_FIXTURE)
    assert {case["code"] for case in REGEX_ERRORS_FIXTURE["cases"]} == {3}
    for case in REGEX_ERRORS_FIXTURE["cases"]:
        code = main(resolved(root, case["argv"]))
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == (case["stdout"], case["stderr"], case["code"]), case["argv"]


def outputs(argv: list[str], capsys) -> tuple[str, str, int]:
    code = main(argv)
    captured = capsys.readouterr()
    return captured.out, captured.err, code


class TestParserReuse:
    """One parser per subcommand serves every call in the process: the
    recorded calls must give the same output whatever ran before them."""

    def test_replay_in_order_then_shuffled_matches_the_record(self, tmp_path_factory, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        calls = [(case["argv"], case, False) for case in USAGE_CASES]
        for fixture in (DECIDE_FIXTURE, RR_FIXTURE, THEOREM1_FIXTURE, REGEX_ERRORS_FIXTURE):
            root = written(tmp_path_factory, fixture)
            calls += [(resolved(root, case["argv"]), case, fixture is RR_FIXTURE) for case in fixture["cases"]]
        cli._parser.cache_clear()
        first = []
        for argv, case, rr in calls:
            first.append(outputs(argv, capsys))
            out, err, code = first[-1]
            assert (out, code) == (case["stdout"], case["code"]), argv
            if rr:  # recorded before the reduction shrank; its language must hold
                assert equivalent(parse_dfa(err), read_reduction(case["stderr"])), argv
            else:
                assert err == case["stderr"], argv
        order = list(range(len(calls)))
        random.Random(2207).shuffle(order)
        for i in order:
            assert outputs(calls[i][0], capsys) == first[i], calls[i][0]

    def test_help_reads_the_width_when_it_formats(self, monkeypatch, capsys):
        argvs = [case["argv"] for case in USAGE_CASES]
        recorded = [(case["stdout"], case["stderr"], case["code"]) for case in USAGE_CASES]
        monkeypatch.setenv("COLUMNS", "80")
        cli._parser.cache_clear()
        for argv in argvs:
            outputs(argv, capsys)
        for width in ("40", "200", "80"):
            monkeypatch.setenv("COLUMNS", width)
            reused = [outputs(argv, capsys) for argv in argvs]  # parsers built under the last width
            cli._parser.cache_clear()
            assert reused == [outputs(argv, capsys) for argv in argvs], width
            assert (reused == recorded) == (width == "80"), width  # the width reaches the help text

    def test_flags_of_one_call_do_not_reach_the_next(self, files, capsys):
        path = files["buchi-fuel.ea"]
        cli._parser.cache_clear()
        assert outputs(["decide-infinite", "--effective", path, "--buchi", "--fuel", "5"], capsys) == (
            "ANSWER=FuelExhausted EVIDENCE=5\n",
            "",
            2,
        )
        assert outputs(["decide-infinite", "--effective", path], capsys) == ("ANSWER=Yes EVIDENCE=0\n", "", 0)

    def test_each_subcommand_parser_is_built_once(self, files, monkeypatch, capsys):
        help_line, add_arguments = cli._SUBCOMMANDS["definitive"]
        builds = []

        def counting(p):
            builds.append(p)
            add_arguments(p)

        monkeypatch.setitem(cli._SUBCOMMANDS, "definitive", (help_line, counting))
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["definitive", files["contains1.aut"]]) == 0
        finally:
            cli._parser.cache_clear()  # drop the parser built by the counting adder
        assert len(builds) == 1
        assert capsys.readouterr().out == "DEFINITIVE=1\n" * 3
