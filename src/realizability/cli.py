"""Command-line interface.

Subcommands:

* ``definitive <automaton-file> [--language]`` — print a definitive word
  (``DEFINITIVE=<word>``) and optionally the definitive-language automaton.
* ``decide-prefix`` / ``decide-buchi`` — run the fuel-bounded deciders for
  an automaton file against a generated infinite word.  The diagonal word's
  prefix decider needs no fuel, but it builds the word through the
  automaton's own canonical stage, so without ``--fuel`` it only takes
  automata whose stage lies in the one- and two-state blocks
  (``THEOREM1_STAGE_LIMIT``, 66); others exit 3 asking for ``--fuel``.
* ``decide-infinite`` — prefix/Büchi decisions for an effective automaton
  over the indexed alphabet along the universal indexed word.
* ``rr`` — does a regular language meet a filter language?  Runs the full
  reduction through prefix realizability along the filter's enumeration
  word.
* ``word dump`` — print a prefix of a generated word, at most
  ``DUMP_LIMIT`` (10**7) symbols; a longer ``--upto`` exits 3.

Decision subcommands print ``ANSWER=<Yes|No|FuelExhausted> EVIDENCE=<n>``
as their first stdout line and encode the verdict in the exit status:
0 Yes, 1 No, 2 FuelExhausted, 3 usage, input or any other errors.
``--trace`` streams ``position state`` pairs to stderr so stdout stays
machine-parseable.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from typing import Callable, Sequence

from .automata import Alphabet, regex_dfa, render_word
from .bridge import (
    BINARY,
    FilterLanguage,
    Theorem1Word,
    canonical_state_count_block,
    decide_prefix_theorem1,
    encode_dfa,
    parse_machines,
    rr_to_prefix,
    prefix_via_rr,
    theorem1_word,
)
from .decide import (
    FuelExhausted,
    Outcome,
    YES,
    decide_buchi,
    decide_prefix,
)
from .definitive import definitive_language, find_definitive_word
from .effective import (
    decide_buchi_infinite,
    decide_prefix_infinite,
    parse_effective,
    zero_one_blocks,
    zero_one_runs,
)
from .textio import parse_dfa, serialize_dfa
from .words import (
    EffectiveMorphism,
    FACTOR_UNIVERSAL,
    InfiniteWord,
    IndexedInfiniteWord,
    apply_morphism,
    champernowne,
    ultimately_periodic,
    universal_indexed_word,
)


# The fuel-free decider builds the diagonal word only until its run resolves;
# this limit bounds the worst case, a run unresolved through the automaton's
# own stage n.  The prefix through stage n holds about n^3/6 symbols, all
# buffered in memory once (a stage record keeps only block ranks), at about
# 8 bytes a symbol: stage 66 holds 54,382, while a three-state counter
# (stage 1,127) would need about 2.4e8, nearly 2 GB of buffer.
THEOREM1_STAGE_LIMIT = canonical_state_count_block(1) + canonical_state_count_block(2)

# Longest prefix ``word dump`` prints; the whole prefix is built in memory.
DUMP_LIMIT = 10**7


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 3.

    The default argparse exit status (2) is taken by the FuelExhausted
    verdict, and the contract reserves everything above 2 for errors.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _add_generator_flags(p: argparse.ArgumentParser, names: list[str]) -> None:
    p.add_argument("--gen", required=True, choices=names, help="word generator")
    p.add_argument(
        "--alphabet",
        default=None,
        help="alphabet characters (champernowne default 01; ultper default inferred)",
    )
    p.add_argument("--stem", default="", help="finite stem (ultper)")
    p.add_argument("--loop", default=None, help="repeated loop (ultper)")
    p.add_argument(
        "--morphism",
        default=None,
        help="morphism name: zero-one-runs, zero-one-blocks, or cyclic:<img>,<img>,…",
    )
    p.add_argument("--machines", default=None, help="machine list file (theorem1)")


def _build_morphism(spec: str) -> EffectiveMorphism:
    if spec == "zero-one-runs":
        return zero_one_runs()
    if spec == "zero-one-blocks":
        return zero_one_blocks()
    if spec.startswith("cyclic:"):
        images = spec[len("cyclic:") :].split(",")
        seen = dict.fromkeys("".join(images))  # symbols in order of first use
        if not seen:
            raise ValueError("cyclic morphism needs at least one non-empty image")
        return EffectiveMorphism.index_periodic(images, Alphabet(tuple(seen)))
    raise ValueError(f"unknown morphism {spec!r}")


def _build_generator(args: argparse.Namespace) -> InfiniteWord | IndexedInfiniteWord:
    name = args.gen
    explicit = Alphabet(tuple(args.alphabet)) if args.alphabet else None
    if name == "champernowne":
        return champernowne(explicit or Alphabet(("0", "1")))
    if name == "ultper":
        if args.loop is None:
            raise ValueError("ultper needs --loop (and optionally --stem)")
        return ultimately_periodic(args.stem, args.loop, explicit)
    if name == "universal-indexed":
        return universal_indexed_word()
    if name == "morphism":
        if args.morphism is None:
            raise ValueError("morphism generator needs --morphism")
        phi = _build_morphism(args.morphism)
        return apply_morphism(phi, universal_indexed_word())
    if name == "theorem1":
        if args.machines is None:
            raise ValueError("theorem1 generator needs --machines <file>")
        return theorem1_word(parse_machines(_read(args.machines)))
    raise ValueError(f"unknown generator {name!r}")


def _tracer(enabled: bool) -> Callable[[int, object], None] | None:
    return partial(print, file=sys.stderr) if enabled else None


def _report(outcome: Outcome) -> int:
    if isinstance(outcome, FuelExhausted):
        print(f"ANSWER=FuelExhausted EVIDENCE={outcome.steps_used}")
        return 2
    print(f"ANSWER={outcome.answer} EVIDENCE={outcome.evidence}")
    return 0 if outcome.answer == YES else 1


def _cmd_definitive(args: argparse.Namespace) -> int:
    a = parse_dfa(_read(args.automaton))
    word = find_definitive_word(a)
    print(f"DEFINITIVE={render_word(word)}")
    if args.language:
        print(serialize_dfa(definitive_language(a)), end="")
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    a = parse_dfa(_read(args.automaton))
    w = _build_generator(args)
    if args.fuel is None and not args.buchi and isinstance(w, Theorem1Word):
        # The diagonal word settles prefix questions at a known stage: no fuel needed.
        if a.alphabet == BINARY and (stage := encode_dfa(a)) > THEOREM1_STAGE_LIMIT:
            raise ValueError(
                f"the fuel-free theorem1 decider would build the word through stage {stage}, "
                f"past stage {THEOREM1_STAGE_LIMIT}; pass --fuel"
            )
        return _report(decide_prefix_theorem1(a, w.machines, w, _tracer(args.trace)))
    if args.fuel is None and (w.universality != FACTOR_UNIVERSAL or w.occurrence_bound is None):
        raise ValueError("--fuel is required: the generator does not advertise factor-universality")
    decider = decide_buchi if args.buchi else decide_prefix
    return _report(decider(a, w, args.fuel, _tracer(args.trace)))


def _cmd_decide_infinite(args: argparse.Namespace) -> int:
    ea = parse_effective(_read(args.effective))
    w = universal_indexed_word()
    decider = decide_buchi_infinite if args.buchi else decide_prefix_infinite
    return _report(decider(ea, w, args.fuel, _tracer(args.trace)))


def _cmd_rr(args: argparse.Namespace) -> int:
    lang = FilterLanguage.from_dfa(parse_dfa(_read(args.filter)))
    if args.automaton is not None:
        r = parse_dfa(_read(args.automaton))
    else:
        r = regex_dfa(args.regex, lang.alphabet)
    reduction = rr_to_prefix(r)
    if args.show_reduction:
        print(serialize_dfa(reduction), end="", file=sys.stderr)
    return _report(prefix_via_rr(reduction, lang))


def _cmd_word(args: argparse.Namespace) -> int:
    if args.upto > DUMP_LIMIT:
        raise ValueError(f"--upto {args.upto} exceeds the dump limit of {DUMP_LIMIT} symbols")
    w = _build_generator(args)
    prefix = w.prefix(args.upto)
    if isinstance(w, IndexedInfiniteWord):
        print(" ".join(map(str, prefix)))
    else:
        print(render_word(prefix))
    return 0


def _add_definitive(p: argparse.ArgumentParser) -> None:
    p.add_argument("automaton", help="automaton file")
    p.add_argument("--language", action="store_true", help="also print the definitive-language automaton")
    p.set_defaults(handler=_cmd_definitive)


def _add_decide(p: argparse.ArgumentParser, buchi: bool) -> None:
    p.add_argument("--automaton", required=True, help="automaton file")
    _add_generator_flags(p, ["champernowne", "ultper", "morphism", "theorem1"])
    p.add_argument("--fuel", type=int, default=None, help="simulation budget in symbols")
    p.add_argument("--trace", action="store_true", help="stream position/state pairs to stderr")
    p.set_defaults(handler=_cmd_decide, buchi=buchi)


def _add_decide_infinite(p: argparse.ArgumentParser) -> None:
    p.add_argument("--effective", required=True, help="effective-automaton file")
    p.add_argument("--buchi", action="store_true", help="decide Büchi instead of prefix realizability")
    p.add_argument("--fuel", type=int, default=None, help="simulation budget in symbols")
    p.add_argument("--trace", action="store_true", help="stream position/state pairs to stderr")
    p.set_defaults(handler=_cmd_decide_infinite)


def _add_rr(p: argparse.ArgumentParser) -> None:
    p.add_argument("--filter", required=True, help="filter-language automaton file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--automaton", help="automaton file for the regular language")
    group.add_argument("--regex", help="regular expression for the regular language")
    p.add_argument("--show-reduction", action="store_true", help="print the reduced automaton to stderr")
    p.set_defaults(handler=_cmd_rr)


def _add_word(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=["dump"], help="what to do")
    _add_generator_flags(p, ["champernowne", "ultper", "universal-indexed", "morphism", "theorem1"])
    p.add_argument("--upto", type=int, required=True, help="prefix length to print")
    p.set_defaults(handler=_cmd_word)


_SUBCOMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "definitive": ("definitive word (and language) of an automaton", _add_definitive),
    "decide-prefix": ("prefix realizability decision", partial(_add_decide, buchi=False)),
    "decide-buchi": ("Büchi realizability decision", partial(_add_decide, buchi=True)),
    "decide-infinite": ("decisions for an effective automaton (indexed alphabet)", _add_decide_infinite),
    "rr": ("does a regular language meet the filter language?", _add_rr),
    "word": ("word utilities", _add_word),
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """Parser for one call: only the subparser ``argv[0]`` names, under a metavar that keeps the
    top-level usage, or else all six (help, no or an unknown subcommand).

    The parser is built on first use and shared by every later call for the same subcommand in
    the process; callers may parse with it but must not modify it.
    """
    return _parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)


@cache
def _parser(subcommand: str | None) -> argparse.ArgumentParser:
    # Reuse is safe: parse_args fills a fresh Namespace from the defaults on each call, and help
    # and usage read the terminal width (COLUMNS) when they format, not when the parser is built.
    parser = _Parser(prog="realizability", description=__doc__.splitlines()[0])
    names = [subcommand] if subcommand else list(_SUBCOMMANDS)
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name in names:
        help_line, add_arguments = _SUBCOMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except Exception as exc:  # any failure is an error; exit 1 would read as "No"
        lines = str(exc).strip().splitlines()
        print(f"error: {lines[0] if lines else type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
