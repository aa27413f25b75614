"""Independent reference answers, computed outside the timed region.

Every check here works on the benchmark's own data (``inputs.Table``,
``inputs.Effective``, plain strings and index lists) with its own stepping,
its own reverse-BFS dead-lock sets and its own word generators.  Nothing
calls into the library, so a defect there cannot hide in its own check.
"""

from __future__ import annotations

from collections import deque
from itertools import count, product
from math import lcm

from inputs import Effective, Table

YES, NO = "Yes", "No"


# ---------------------------------------------------------------------------
# words


class Champernowne:
    """All non-empty words over ``symbols`` in shortlex order, concatenated."""

    def __init__(self, symbols: str):
        self.symbols = symbols
        self.text = ""
        self._length = 0

    def upto(self, n: int) -> str:
        while len(self.text) < n:
            self._length += 1
            self.text += "".join("".join(t) for t in product(self.symbols, repeat=self._length))
        return self.text


class Universal:
    """Round r emits, in shortlex order, each index sequence of length <= r
    over indices <= r whose length or largest index equals r."""

    def __init__(self):
        self.seq = bytearray(1)  # 1-based: seq[i] is symbol i; indices stay below 256
        self._round = 0

    def upto(self, n: int) -> bytearray:
        while len(self.seq) <= n:
            self._round += 1
            r = self._round
            for length in range(1, r + 1):
                for t in product(range(1, r + 1), repeat=length):
                    if length == r or max(t) == r:
                        self.seq.extend(t)
        return self.seq


def image(spec: tuple[str, tuple[str, ...]], k: int) -> str:
    """Image of index k under one of the benchmark's morphism specs."""
    kind, images = spec
    half, odd = divmod(k, 2)
    if kind == "runs":
        return "1" * half if odd else "0" * half
    if kind == "blocks":
        return "1" * half if odd else "0" * half + "1" * half
    return images[(k - 1) % len(images)]


def morphism_text(spec, universal: Universal, n: int) -> str:
    """The first n symbols of the image of the universal word under spec."""
    out, length, i = [], 0, 0
    while length < n:
        i += 1
        piece = image(spec, universal.upto(i)[i])
        out.append(piece)
        length += len(piece)
    return "".join(out)[:n]


# ---------------------------------------------------------------------------
# finite automata


def dead_locks(n: int, succ, accepting) -> frozenset[int]:
    """States from which no accepting state is reachable, by reverse BFS."""
    pred: list[set[int]] = [set() for _ in range(n)]
    for p in range(n):
        for q in succ(p):
            pred[q].add(p)
    alive = set(accepting)
    queue = deque(alive)
    while queue:
        q = queue.popleft()
        for p in pred[q]:
            if p not in alive:
                alive.add(p)
                queue.append(p)
    return frozenset(range(n)) - alive


def table_dead(t: Table) -> frozenset[int]:
    return dead_locks(t.n, lambda p: t.trans[p], t.accepting)


def resolve(start, accepting, dead, steps):
    """First accepting visit (Yes) or dead-lock entry (No) along ``steps``.

    ``steps`` yields the state after each symbol; accepting is tested first.
    """
    if start in accepting:
        return (YES, 0)
    if start in dead:
        return (NO, 0)
    n = 0
    for q in steps:
        n += 1
        if q in accepting:
            return (YES, n)
        if q in dead:
            return (NO, n)
    raise RuntimeError("reference run did not resolve")


def _walk(t: Table, text_source):
    q = 0
    idx = {s: i for i, s in enumerate(t.symbols)}
    for s in text_source:
        q = t.trans[q][idx[s]]
        yield q


def _chunks(word: Champernowne):
    """Symbols of an ever-growing reference word, without copying it."""
    pos, size = 0, 4096
    while True:
        text = word.upto(pos + size)
        yield from text[pos: pos + size]
        pos += size


def prefix_verdict(t: Table, word: Champernowne):
    return resolve(0, t.accepting, table_dead(t), _walk(t, _chunks(word)))


def buchi_verdict(t: Table, word: Champernowne):
    """Infinitely many accepted prefixes: No once the run enters a dead-lock
    of ``t``, Yes once it enters a state that can no longer reach one."""
    dead = table_dead(t)
    safe = dead_locks(t.n, lambda p: t.trans[p], dead)
    answer, at = resolve(0, dead, safe, _walk(t, _chunks(word)))
    return (NO if answer == YES else YES, at)


def count_accepted(t: Table, text: str) -> int:
    return (0 in t.accepting) + sum(q in t.accepting for q in _walk(t, text))


def first_accepted(t: Table, text: str) -> int | None:
    if 0 in t.accepting:
        return 0
    for n, q in enumerate(_walk(t, text), start=1):
        if q in t.accepting:
            return n
    return None


def accepts(t: Table, w: str) -> bool:
    q = 0
    for s in w:
        q = t.step(q, s)
    return q in t.accepting


def delta_accepts(initial, accepting, delta, w: str) -> bool:
    """Membership by stepping a transition map {(state, symbol): state}."""
    q = initial
    for s in w:
        q = delta[(q, s)]
    return q in accepting


def read_dfa(text: str):
    """(initial, accepting, delta) from the automaton file format, or None."""
    fields, delta = {}, {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        if key == "trans":
            src, sym, dst = rest.split()
            delta[(src, sym)] = dst
        else:
            fields[key] = rest.split()
    if len(fields.get("initial", ())) != 1:
        return None
    return fields["initial"][0], set(fields.get("accepting", ())), delta


def definitive_outcomes(t: Table, w: str):
    """Per start state: ("pass", position), ("dead", state) or None (refuted)."""
    dead = table_dead(t)
    out = []
    for start in range(t.n):
        q, hit = start, 0 if start in t.accepting else None
        if hit is None:
            for i, s in enumerate(w, start=1):
                q = t.step(q, s)
                if q in t.accepting:
                    hit = i
                    break
        out.append(("pass", hit) if hit is not None else ("dead", q) if q in dead else None)
    return out


def is_definitive(t: Table, w: str) -> bool:
    return None not in definitive_outcomes(t, w)


def least_definitive(t: Table) -> str:
    """Shortlex-least definitive word: BFS over per-start runs, a run being
    finished once it touches an accepting or dead-lock state."""
    done = t.accepting | table_dead(t)
    start = tuple(None if q in done else q for q in range(t.n))
    seen, queue = {start}, deque([(start, "")])
    while queue:
        vec, w = queue.popleft()
        if all(c is None for c in vec):
            return w
        for s in t.symbols:
            nxt = tuple(None if c is None or t.step(c, s) in done else t.step(c, s) for c in vec)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w + s))
    raise RuntimeError("no definitive word")


def words_upto(symbols: str, max_len: int):
    for length in range(max_len + 1):
        for t in product(symbols, repeat=length):
            yield "".join(t)


def limit_set(t: Table, stem: str, loop: str) -> frozenset[int]:
    """States visited infinitely often on stem loop^omega.  After n periods
    the period-boundary state is on its cycle, whose length is at most n,
    so the states seen over the next n periods are exactly the limit set."""
    q = 0
    for s in stem + loop * t.n:
        q = t.step(q, s)
    seen = set()
    for s in loop * t.n:
        q = t.step(q, s)
        seen.add(q)
    return frozenset(seen)


def product_nonempty(a: Table, b: Table) -> bool:
    """Does L(a) meet L(b)?  Breadth-first search of the product."""
    start = (0, 0)
    seen, queue = {start}, deque([start])
    while queue:
        p, q = queue.popleft()
        if p in a.accepting and q in b.accepting:
            return True
        for i in range(len(a.symbols)):
            nxt = (a.trans[p][i], b.trans[q][i])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


class Enumeration:
    """Shortlex enumeration (1-based) of a filter table's language."""

    def __init__(self, t: Table):
        self.t, self.words, self._lengths = t, [], count(0)

    def __getitem__(self, i: int) -> str:
        while len(self.words) < i:
            length = next(self._lengths)
            self.words.extend(w for w in ("".join(p) for p in product(self.t.symbols, repeat=length))
                              if accepts(self.t, w))
        return self.words[i - 1]


def rr_verdict(r: Table, f: Table, enum: Enumeration, universal: Universal):
    """Yes at the first position of the enumerating word whose chunk lies in
    L(r), or No at 0 when L(r) misses the filter language."""
    if not product_nonempty(r, f):
        return (NO, 0)
    for n in count(1):
        if accepts(r, enum[universal.upto(n)[n]]):
            return (YES, n)


# ---------------------------------------------------------------------------
# effective automata and morphism reductions


def _resolve_indexed(start, step, accepting, dead, universal: Universal):
    def steps():
        q = start
        for n in count(1):
            q = step(universal.upto(n)[n], q)
            yield q

    return resolve(start, accepting, dead, steps())


def _decide_indexed(n, start, step, succ, accepting, universal, buchi):
    dead = dead_locks(n, succ, accepting)
    if not buchi:
        return _resolve_indexed(start, step, accepting, dead, universal)
    safe = dead_locks(n, succ, dead)
    answer, at = _resolve_indexed(start, step, dead, safe, universal)
    return (NO if answer == YES else YES, at)


def effective_verdict(e: Effective, universal: Universal, buchi: bool):
    """Exact verdict of a parsed index-set automaton along the universal word."""
    return _decide_indexed(e.n, 0, e.step, lambda p: {r.target for r in e.rules[p]},
                           e.accepting, universal, buchi)


def _effect(t: Table, q: int, img: str) -> tuple[int, int]:
    """End state and passed-accepting bit of reading img from q (both
    endpoints count)."""
    bit = q in t.accepting
    for s in img:
        q = t.step(q, s)
        bit = bit or q in t.accepting
    return q, int(bit)


def morphism_verdict(t: Table, spec, universal: Universal, buchi: bool):
    """Exact verdict of a morphism decision, on states (q, bit).

    The run follows the actual images of the universal word.  Transition
    existence uses representative images: for 0^h and 0^h 1^h every
    behaviour from an n-state automaton already shows for h <= n + lcm(1..n)
    (pre-period at most n, joint period dividing lcm(1..n)); a periodic
    morphism has only its listed images.
    """
    kind, images = spec
    if kind == "periodic":
        reps = list(images)
    else:
        bound = t.n + lcm(*range(1, t.n + 1))
        reps = [image(spec, k) for k in range(1, 2 * bound + 2)]
    states = [(q, b) for q in range(t.n) for b in (0, 1)]
    code = {s: i for i, s in enumerate(states)}
    succ = [{code[_effect(t, q, img)] for img in reps} for q, _b in states]

    def step(k: int, s: int) -> int:
        return code[_effect(t, states[s][0], image(spec, k))]

    accepting = {code[s] for s in states if s[1] == 1}
    return _decide_indexed(len(states), code[(0, 0)], step, lambda s: succ[s], accepting,
                           universal, buchi)
