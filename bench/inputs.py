"""Seeded input generators owned by the benchmark.

Everything here is plain data (tuples, strings, ints) drawn from a
``random.Random``; nothing imports the library or the test helpers, so an
edit to either cannot shift the inputs a seed produces.  No draw is ever
redrawn based on how the program answers it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Table:
    """Deterministic automaton over ``symbols``: states 0..n-1, initial 0."""

    symbols: str
    trans: tuple[tuple[int, ...], ...]  # trans[state][symbol position]
    accepting: frozenset[int]

    @property
    def n(self) -> int:
        return len(self.trans)

    def step(self, q: int, symbol: str) -> int:
        return self.trans[q][self.symbols.index(symbol)]


def random_table(rng: random.Random, symbols: str, min_states: int, max_states: int,
                 accept_p: float = 0.5) -> Table:
    n = rng.randint(min_states, max_states)
    trans = tuple(tuple(rng.randrange(n) for _ in symbols) for _ in range(n))
    accepting = frozenset(q for q in range(n) if rng.random() < accept_p)
    return Table(symbols, trans, accepting)


def all_tables(symbols: str, n: int) -> list[Table]:
    """Every automaton over ``symbols`` with states 0..n-1: each transition
    function with each accepting set."""
    rows = list(itertools.product(range(n), repeat=len(symbols)))
    sets = [frozenset(q for q in range(n) if mask >> q & 1) for mask in range(2 ** n)]
    return [Table(symbols, trans, acc)
            for trans in itertools.product(rows, repeat=n) for acc in sets]


def table_text(t: Table) -> str:
    """The library's automaton file format for a table (states s0..s{n-1})."""
    lines = [
        "alphabet: " + " ".join(t.symbols),
        "states: " + " ".join(f"s{q}" for q in range(t.n)),
        "initial: s0",
        "accepting: " + " ".join(f"s{q}" for q in sorted(t.accepting)),
    ]
    for q, row in enumerate(t.trans):
        for s, r in zip(t.symbols, row):
            lines.append(f"trans: s{q} {s} s{r}")
    return "\n".join(lines) + "\n"


def random_word(rng: random.Random, symbols: str, min_len: int, max_len: int) -> str:
    return "".join(rng.choice(symbols) for _ in range(rng.randint(min_len, max_len)))


def random_lasso(rng: random.Random, symbols: str) -> tuple[str, str]:
    """Stem and non-empty loop of an ultimately periodic word."""
    return random_word(rng, symbols, 0, 6), random_word(rng, symbols, 1, 6)


def random_family(rng: random.Random, n: int) -> tuple[frozenset[int], ...]:
    """A Muller acceptance family: one to three non-empty state sets."""
    family = set()
    for _ in range(rng.randint(1, 3)):
        family.add(frozenset(rng.sample(range(n), rng.randint(1, n))))
    return tuple(sorted(family, key=sorted))


def random_regex(rng: random.Random, symbols: str) -> str:
    """A pattern in the syntax shared by ``regex_dfa`` and Python's ``re``.

    Patterns stay small and quantify single symbols only: ``regex_dfa``
    determinizes after every step without minimizing, so its state count
    multiplies along a pattern; ``.*(ba|ca)+`` alone takes it over a minute
    and 452,903 states.  At most one quantifier follows an atom, because
    ``re`` rejects ``a**``, and no branch is empty.
    """

    def symbol() -> str:
        return rng.choice(symbols + ".") if rng.random() < 0.2 else rng.choice(symbols)

    def atom() -> str:
        if rng.random() < 0.3:
            words = ("".join(symbol() for _ in range(rng.randint(1, 2))) for _ in range(rng.randint(1, 2)))
            return "(" + "|".join(words) + ")"
        return symbol() + (rng.choice("*+?") if rng.random() < 0.4 else "")

    def term() -> str:
        return "".join(atom() for _ in range(rng.randint(1, 3)))

    return "|".join(term() for _ in range(rng.randint(1, 2)))


# The three morphism families over {0, 1}.  ``("periodic", images)`` cycles
# through the images by index residue.
RUNS = ("runs", ())
BLOCKS = ("blocks", ())


def random_periodic(rng: random.Random) -> tuple[str, tuple[str, ...]]:
    images = tuple(random_word(rng, "01", 0, 3) for _ in range(rng.randint(1, 3)))
    if not any(images):
        images += ("0",)
    return ("periodic", images)


@dataclass(frozen=True)
class Rule:
    """Index-set rule ``residue % modulus`` plus ``include``, minus ``exclude``."""

    residue: int | None
    modulus: int | None
    include: frozenset[int]
    exclude: frozenset[int]
    target: int

    def contains(self, k: int) -> bool:
        if k in self.include:
            return True
        if k in self.exclude or self.modulus is None:
            return False
        return k % self.modulus == self.residue

    def tokens(self) -> str:
        parts = [f"{self.residue}%{self.modulus}"] if self.modulus is not None else []
        parts += [f"+{k}" for k in sorted(self.include)]
        parts += [f"-{k}" for k in sorted(self.exclude)]
        return " ".join(parts)


@dataclass(frozen=True)
class Effective:
    """Effective automaton over {1, 2, ...}: per-state disjoint, covering rules."""

    rules: tuple[tuple[Rule, ...], ...]
    accepting: frozenset[int]

    @property
    def n(self) -> int:
        return len(self.rules)

    def step(self, k: int, q: int) -> int:
        for rule in self.rules[q]:
            if rule.contains(k):
                return rule.target
        raise ValueError(f"no rule for index {k} in state {q}")


def random_effective(rng: random.Random, min_states: int = 2, max_states: int = 4) -> Effective:
    """Residue classes cover every index; an optional exception index moves
    from its class to a ``+K`` rule of its own, keeping the rules disjoint."""
    n = rng.randint(min_states, max_states)
    rules = []
    for _ in range(n):
        modulus = rng.randint(1, 3)
        row = [Rule(r, modulus, frozenset(), frozenset(), rng.randrange(n)) for r in range(modulus)]
        if rng.random() < 0.5:
            k = rng.randint(1, 6)
            i = k % modulus
            row[i] = Rule(row[i].residue, modulus, frozenset(), frozenset({k}), row[i].target)
            row.append(Rule(None, None, frozenset({k}), frozenset(), rng.randrange(n)))
        rules.append(tuple(row))
    accepting = frozenset(q for q in range(n) if rng.random() < 0.3)
    return Effective(tuple(rules), accepting)


def effective_text(e: Effective) -> str:
    lines = [
        "states: " + " ".join(f"q{q}" for q in range(e.n)),
        "initial: q0",
        "accepting: " + " ".join(f"q{q}" for q in sorted(e.accepting)),
    ]
    for p, row in enumerate(e.rules):
        for rule in row:
            lines.append(f"etrans: q{p} q{rule.target} {rule.tokens()}")
    return "\n".join(lines) + "\n"


# Regular filter languages over {0, 1} for the rr bridge, as tables.  Each
# has one word per length, so an automaton with at most three states meets
# it, if at all, within its first four words.  The enumerating word reaches
# the k-th filter word first near position k^k; with a dense filter such as
# "contains 11" the least common word can sit at index 100 or more, and the
# decision does not finish.
FILTERS = (
    Table("01", ((1, 2), (1, 2), (2, 2)), frozenset({1})),  # 0+
    Table("01", ((1, 2), (2, 0), (2, 2)), frozenset({0})),  # (01)*
    Table("01", ((1, 0), (2, 2), (2, 2)), frozenset({1})),  # 1*0
)

# The acceptance gate's two-machine list for the diagonal word.
MACHINES_TEXT = """\
machine: halts-after-three
start: s0
trans: s0 _ x R s1
trans: s1 _ x R s2
trans: s2 _ x R s3

machine: loops-forever
start: a
trans: a _ _ R a
"""


def canonical_table(i: int) -> Table:
    """The i-th canonical binary automaton (1-based), decoded independently:
    by state count s, then transition table (row-major, digits base s),
    then accepting mask (bit j = state j)."""
    s, offset = 1, 0
    while i > offset + s ** (2 * s) * 2**s:
        offset += s ** (2 * s) * 2**s
        s += 1
    rank = i - offset - 1
    mask, table_rank = rank & ((1 << s) - 1), rank >> s
    digits = []
    for _ in range(2 * s):
        digits.append(table_rank % s)
        table_rank //= s
    digits.reverse()
    trans = tuple((digits[2 * q], digits[2 * q + 1]) for q in range(s))
    return Table("01", trans, frozenset(j for j in range(s) if mask >> j & 1))
