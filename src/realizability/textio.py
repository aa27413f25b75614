"""Line-oriented textual format for automata.

    alphabet: 0 1
    states: s0 s1
    initial: s0
    accepting: s1
    trans: s0 0 s0
    trans: s0 1 s1

Nondeterministic automata use ``initials:`` with one or more names and may
repeat ``trans:`` lines freely.  Muller automata extend the deterministic
format with one ``macro:`` line per acceptance-set member.  Blank lines and
``#`` comments are ignored.  Tokens are whitespace-separated, so state names
and symbols cannot contain spaces; a ``#`` inside a token is written ``\\#``,
which the serializers do, so that it does not start a comment.  Every text
format of the package is read by ``_tokenized`` and ``_sections``, and each
parse error names the line it is about (line 1 for a missing section).

Deterministic automata may be partial in the file; missing transitions are
completed with an explicit non-accepting sink state at parse time.
"""

from __future__ import annotations

import re
from typing import Callable

from .automata import Alphabet, Dfa, Nfa, State, Symbol
from .omega import MullerAutomaton

SINK = "_sink"
_COMMENT = re.compile(r"(?<!\\)#")  # a # that no backslash escapes


class FormatError(ValueError):
    """Parse error carrying the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _tokenized(text: str, error: Callable[[int, str], Exception] = FormatError):
    """Yield ``(line_no, key, tokens)`` for every ``key: values`` line.

    The one line tokenizer of every text format in the package: comments
    and blank lines are skipped, ``\\#`` reads as ``#``, and a line without
    ``:`` raises ``error(line_no, message)``.
    """
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = (_COMMENT.split(raw, 1)[0].replace("\\#", "#") if "#" in raw else raw).strip()
        if not line:
            continue
        if ":" not in line:
            raise error(line_no, f"expected 'key: values', got {raw.strip()!r}")
        key, _, rest = line.partition(":")
        yield line_no, key.strip(), rest.split()


def _sections(lines, once: tuple, repeated: tuple, error: Callable[[int, str], Exception] = FormatError) -> dict:
    """Read tokenized lines into sections: a key in ``once`` maps to its
    ``(line_no, tokens)``, a key in ``repeated`` to the list of them.

    The one section reader of every text format: a second line of a
    ``once`` key, or a key in neither, raises ``error(line_no, message)``.
    """
    sections: dict = {key: [] for key in repeated}
    for line_no, key, tokens in lines:
        if key in once:
            if key in sections:
                raise error(line_no, f"duplicate {key!r} line")
            sections[key] = (line_no, tokens)
        elif key in repeated:
            sections[key].append((line_no, tokens))
        else:
            raise error(line_no, f"unknown or misplaced section {key!r}")
    return sections


def _base(text: str, initial: str, repeated: tuple = ("trans",)):
    sections = _sections(_tokenized(text), ("alphabet", "states", initial, "accepting"), repeated)
    for required in ("alphabet", "states", initial):  # in line order
        if required not in sections:
            raise FormatError(1, f"missing {required!r} line")
    line_no, symbols = sections["alphabet"]
    try:
        alphabet = Alphabet(tuple(symbols))
    except ValueError as exc:
        raise FormatError(line_no, str(exc)) from None
    line_no, states = sections["states"]
    states = tuple(states)
    if len(set(states)) != len(states):
        raise FormatError(line_no, "duplicate state names")
    state_set = set(states)
    line_no, accepting = sections.get("accepting", (1, []))
    for name in accepting:
        if name not in state_set:
            raise FormatError(line_no, f"unknown accepting state {name!r}")
    triples = []
    for line_no, tokens in sections["trans"]:
        if len(tokens) != 3:
            raise FormatError(line_no, "trans line needs: source symbol target")
        src, sym, dst = tokens
        if src not in state_set:
            raise FormatError(line_no, f"unknown state {src!r}")
        if dst not in state_set:
            raise FormatError(line_no, f"unknown state {dst!r}")
        if sym not in alphabet:
            raise FormatError(line_no, f"unknown symbol {sym!r}")
        triples.append((line_no, src, sym, dst))
    return sections, alphabet, states, frozenset(accepting), triples


def parse_dfa(text: str) -> Dfa:
    sections, alphabet, states, accepting, triples = _base(text, "initial")
    initial = _single(sections, "initial", set(states))
    return Dfa(alphabet, *_completed(alphabet, states, _delta(triples)), initial, accepting)


def parse_nfa(text: str) -> Nfa:
    sections, alphabet, states, accepting, triples = _base(text, "initials")
    state_set = set(states)
    line_no, initials = sections["initials"]
    for name in initials:
        if name not in state_set:
            raise FormatError(line_no, f"unknown initial state {name!r}")
    transitions = frozenset((src, sym, dst) for _ln, src, sym, dst in triples)
    return Nfa(alphabet, states, transitions, frozenset(initials), accepting)


def parse_muller(text: str) -> MullerAutomaton:
    sections, alphabet, states, accepting, triples = _base(text, "initial", ("trans", "macro"))
    if accepting:
        raise FormatError(sections["accepting"][0], "muller automata use macro: lines, not accepting:")
    initial = _single(sections, "initial", set(states))
    state_set = set(states)
    family = set()
    for line_no, tokens in sections["macro"]:
        for name in tokens:
            if name not in state_set:
                raise FormatError(line_no, f"unknown state {name!r} in macro line")
        family.add(frozenset(tokens))
    return MullerAutomaton(alphabet, *_completed(alphabet, states, _delta(triples)), initial, frozenset(family))


def _delta(triples: list) -> dict[tuple[State, Symbol], State]:
    """Transition table of deterministic ``trans:`` lines; a repeated pair is an error."""
    delta: dict[tuple[State, Symbol], State] = {}
    for line_no, src, sym, dst in triples:
        if (src, sym) in delta:
            raise FormatError(line_no, f"duplicate transition for ({src!r}, {sym!r})")
        delta[(src, sym)] = dst
    return delta


def _single(sections: dict, key: str, state_set: set) -> str:
    line_no, tokens = sections[key]
    if len(tokens) != 1:
        raise FormatError(line_no, f"{key}: expects exactly one state name")
    if tokens[0] not in state_set:
        raise FormatError(line_no, f"unknown state {tokens[0]!r}")
    return tokens[0]


def _completed(alphabet: Alphabet, states: tuple, delta: dict) -> tuple[tuple, dict]:
    """States and transitions with every missing transition sent to a fresh sink."""
    missing = [(q, s) for q in states for s in alphabet if (q, s) not in delta]
    if missing:
        sink = SINK
        while sink in states:
            sink = "_" + sink
        states = states + (sink,)
        for q, s in missing:
            delta[(q, s)] = sink
        for s in alphabet:
            delta[(sink, s)] = sink
    return states, delta


def serialize_dfa(a: Dfa) -> str:
    return _dfa_text(a, "accepting: " + " ".join(str(q) for q in a.states if q in a.accepting))


def _dfa_text(a: Dfa, accepting_line: str, tail: tuple[str, ...] = ()) -> str:
    """The deterministic format of ``a`` with the given ``accepting:`` line, then ``tail``."""
    lines = [
        "alphabet: " + " ".join(a.alphabet.symbols),
        "states: " + " ".join(str(q) for q in a.states),
        "initial: " + str(a.initial),
        accepting_line,
    ]
    for q in a.states:
        for s in a.alphabet:
            lines.append(f"trans: {q} {s} {a.delta[(q, s)]}")
    lines.extend(tail)
    return "\n".join(lines).replace("#", "\\#") + "\n"  # a # only comes from a token


def serialize_nfa(n: Nfa) -> str:
    lines = [
        "alphabet: " + " ".join(n.alphabet.symbols),
        "states: " + " ".join(str(q) for q in n.states),
        "initials: " + " ".join(str(q) for q in n.states if q in n.initials),
        "accepting: " + " ".join(str(q) for q in n.states if q in n.accepting),
    ]
    for (p, s, q) in sorted(n.transitions, key=str):
        lines.append(f"trans: {p} {s} {q}")
    return "\n".join(lines).replace("#", "\\#") + "\n"  # a # only comes from a token


def serialize_muller(m: MullerAutomaton) -> str:
    family = sorted(m.acceptance_family, key=lambda f: sorted(map(str, f)))
    macros = tuple("macro: " + " ".join(str(q) for q in sorted(member, key=str)) for member in family)
    return _dfa_text(m.dfa, "accepting:", macros)
