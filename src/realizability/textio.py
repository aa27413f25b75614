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
which the serializers do, so that it does not start a comment.

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


def _collect(text: str, kind: str) -> dict:
    """Shared first pass: gather sections and check them against ``kind``."""
    allowed = {
        "dfa": {"alphabet", "states", "initial", "accepting", "trans"},
        "nfa": {"alphabet", "states", "initials", "accepting", "trans"},
        "muller": {"alphabet", "states", "initial", "accepting", "trans", "macro"},
    }[kind]
    seen: dict = {"trans": [], "macro": [], "line_of": {}}
    for line_no, key, tokens in _tokenized(text):
        if key not in allowed:
            raise FormatError(line_no, f"unknown or misplaced section {key!r}")
        if key == "trans":
            if len(tokens) != 3:
                raise FormatError(line_no, "trans line needs: source symbol target")
            seen["trans"].append((line_no, tokens))
        elif key == "macro":
            seen["macro"].append((line_no, tokens))
        else:
            if key in seen:
                raise FormatError(line_no, f"duplicate {key!r} line")
            seen[key] = tokens
            seen["line_of"][key] = line_no
    for required in ("alphabet", "states", "initials" if kind == "nfa" else "initial"):  # in line order
        if required not in seen:
            raise FormatError(1, f"missing {required!r} line")
    return seen


def _base(text: str, kind: str):
    seen = _collect(text, kind)
    try:
        alphabet = Alphabet(tuple(seen["alphabet"]))
    except ValueError as exc:
        raise FormatError(seen["line_of"]["alphabet"], str(exc)) from None
    states = tuple(seen["states"])
    if len(set(states)) != len(states):
        raise FormatError(seen["line_of"]["states"], "duplicate state names")
    state_set = set(states)
    accepting = seen.get("accepting", [])
    for name in accepting:
        if name not in state_set:
            raise FormatError(seen["line_of"].get("accepting", 1), f"unknown accepting state {name!r}")
    triples = []
    for line_no, (src, sym, dst) in seen["trans"]:
        if src not in state_set:
            raise FormatError(line_no, f"unknown state {src!r}")
        if dst not in state_set:
            raise FormatError(line_no, f"unknown state {dst!r}")
        if sym not in alphabet:
            raise FormatError(line_no, f"unknown symbol {sym!r}")
        triples.append((line_no, src, sym, dst))
    return seen, alphabet, states, frozenset(accepting), triples


def parse_dfa(text: str) -> Dfa:
    seen, alphabet, states, accepting, triples = _base(text, "dfa")
    initial = _single(seen, "initial", set(states))
    return _completed(alphabet, states, _delta(triples), initial, accepting)


def parse_nfa(text: str) -> Nfa:
    seen, alphabet, states, accepting, triples = _base(text, "nfa")
    state_set = set(states)
    initials = seen["initials"]
    for name in initials:
        if name not in state_set:
            raise FormatError(seen["line_of"]["initials"], f"unknown initial state {name!r}")
    transitions = frozenset((src, sym, dst) for _ln, src, sym, dst in triples)
    return Nfa(alphabet, states, transitions, frozenset(initials), accepting)


def parse_muller(text: str) -> MullerAutomaton:
    seen, alphabet, states, accepting, triples = _base(text, "muller")
    if accepting:
        raise FormatError(seen["line_of"]["accepting"], "muller automata use macro: lines, not accepting:")
    initial = _single(seen, "initial", set(states))
    state_set = set(states)
    family = set()
    for line_no, tokens in seen["macro"]:
        for name in tokens:
            if name not in state_set:
                raise FormatError(line_no, f"unknown state {name!r} in macro line")
        family.add(frozenset(tokens))
    completed = _completed(alphabet, states, _delta(triples), initial, frozenset())
    return MullerAutomaton(alphabet, completed.states, completed.delta, initial, frozenset(family))


def _delta(triples: list) -> dict[tuple[State, Symbol], State]:
    """Transition table of deterministic ``trans:`` lines; a repeated pair is an error."""
    delta: dict[tuple[State, Symbol], State] = {}
    for line_no, src, sym, dst in triples:
        if (src, sym) in delta:
            raise FormatError(line_no, f"duplicate transition for ({src!r}, {sym!r})")
        delta[(src, sym)] = dst
    return delta


def _single(seen: dict, key: str, state_set: set) -> str:
    tokens = seen[key]
    if len(tokens) != 1:
        raise FormatError(seen["line_of"][key], f"{key}: expects exactly one state name")
    if tokens[0] not in state_set:
        raise FormatError(seen["line_of"][key], f"unknown state {tokens[0]!r}")
    return tokens[0]


def _completed(alphabet: Alphabet, states: tuple, delta: dict, initial: State, accepting: frozenset) -> Dfa:
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
    return Dfa(alphabet, states, delta, initial, accepting)


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
