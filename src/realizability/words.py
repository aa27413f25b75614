"""Computable infinite words and morphism images.

Positions are 1-based throughout: ``W[1, n]`` is the length-n prefix and the
empty prefix is position 0.  A word is a memoizing buffer fed from a symbol
stream, or a direct index formula, so a stream symbol is computed only once.
Streams are chained from chunks (a Champernowne length block, a universal
round filtered by ``compress``, the images of a slice of indices, a diagonal
stage of ``bridge``).  The buffer pulls from its source with one
``list.extend``, under a lock, and ``iter_from`` reads it in slices of 64
symbols doubling to 1024, so a reader runs at most 1024 symbols ahead.  The
buffer keeps every symbol its source produced and the exception that stopped
it (``RuntimeError`` if the source just ends); every read past them raises
that same exception, so all readers see one prefix, failure included.

``factor-universal`` tags a word that provably contains every finite word
over its alphabet as a factor, together with a computable occurrence bound.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain, compress, count, islice, product, repeat
from operator import contains
from typing import Callable, Iterable, Iterator

from .automata import Alphabet, AlphabetMismatchError, Automaton, Symbol, Word, _check_word, as_word

FACTOR_UNIVERSAL = "factor-universal"
UNKNOWN = "unknown"


class MorphismStallError(RuntimeError):
    """Raised when resolving a morphism image consumes only erasing images."""


class _Buffered:
    """Shared memoizing machinery for infinite sequences, with their universality tag and
    occurrence bound; the one owner of its source's failure."""

    def __init__(
        self,
        source: Callable[[], Iterator] | None = None,
        index_fn: Callable[[int], object] | None = None,
        universality: str = UNKNOWN,
        occurrence_bound: Callable[[tuple], int] | None = None,
    ):
        if (source is None) == (index_fn is None):
            raise ValueError("exactly one of source/index_fn is required")
        self.universality = universality
        self.occurrence_bound = occurrence_bound
        self._index_fn = index_fn
        self._buf: list = []
        self._iter = source() if source is not None else None
        self._failure = None  # (exception, its traceback at capture) once the source stops
        self._lock = threading.Lock()

    def _pull(self, n: int) -> int:
        with self._lock:
            if len(self._buf) < n and self._failure is None:
                try:
                    self._buf.extend(islice(self._iter, n - len(self._buf)))
                    if len(self._buf) < n:
                        raise RuntimeError(f"word source ended after position {len(self._buf)}")
                except Exception as exc:  # what the source produced stays buffered
                    self._failure = exc, exc.__traceback__
        return len(self._buf)

    def _extend_to(self, n: int) -> None:
        if self._index_fn is None and len(self._buf) < n and self._pull(n) < n:
            exc, tb = self._failure
            raise exc.with_traceback(tb)  # as captured, so raising again does not grow it

    def _at(self, i: int):
        if i < 1:
            raise IndexError("positions are 1-based")
        if self._index_fn is not None:
            return self._index_fn(i)
        self._extend_to(i)
        return self._buf[i - 1]

    def prefix(self, n: int) -> tuple:
        """The first ``n`` symbols, ``W[1, n]``."""
        if n < 0:
            raise IndexError("prefix length must be non-negative")
        if self._index_fn is not None:
            return tuple(map(self._index_fn, range(1, n + 1)))
        self._extend_to(n)
        return tuple(self._buf[:n])

    def iter_from(self, start: int = 1) -> Iterator:
        """The symbols from position ``start`` on, read lazily."""
        if start < 1:
            raise IndexError("positions are 1-based")
        if self._index_fn is not None:
            return map(self._index_fn, count(start))
        return chain.from_iterable(self._slices(start - 1))

    def _slices(self, i: int) -> Iterator[list]:
        """Slices from offset ``i``: 64 symbols, doubling up to 1024."""
        buf, index_fn = self._buf, self._index_fn
        size = 64
        while True:
            if i >= len(buf) and index_fn is None and self._pull(i + size) <= i:
                self._extend_to(i + 1)  # nothing buffered at i: raises the source's failure
            piece = buf[i : i + size] if index_fn is None else list(map(index_fn, range(i + 1, i + size + 1)))
            yield piece
            i += len(piece)
            size = min(2 * size, 1024)


class InfiniteWord(_Buffered):
    """A computable infinite word over a finite alphabet."""

    def __init__(
        self,
        alphabet: Alphabet,
        source: Callable[[], Iterator[Symbol]] | None = None,
        index_fn: Callable[[int], Symbol] | None = None,
        universality: str = UNKNOWN,
        occurrence_bound: Callable[[Word], int] | None = None,
    ):
        super().__init__(source, index_fn, universality, occurrence_bound)
        self.alphabet = alphabet

    def symbol_at(self, i: int) -> Symbol:
        return self._at(i)

    def segment(self, lo: int, hi: int) -> Word:
        """Symbols at positions lo..hi inclusive; no position outside them is read."""
        if lo < 1 or hi < lo - 1:
            raise IndexError("bad segment bounds")
        return tuple(islice(self.iter_from(lo), hi - lo + 1))


class IndexedInfiniteWord(_Buffered):
    """An infinite word over the countable indexed alphabet a_1, a_2, ...

    Symbols are positive integers (the indices).
    """

    def symbol_index_at(self, i: int) -> int:
        return self._at(i)


@dataclass(frozen=True, init=False)
class EffectiveMorphism:
    """A computable map from indexed symbols to words over a finite alphabet.

    ``image(k)`` is the image of the k-th indexed symbol.  The optional
    ``image_language_oracle`` decides, for a regular language given as an
    automaton, whether it intersects the set of all images; reductions to
    automata over the indexed alphabet need it to decide transition
    existence.
    """

    alphabet: Alphabet
    image: Callable[[int], Word]
    image_language_oracle: Callable[[Automaton], bool] | None = None

    def __init__(self, alphabet, image, image_language_oracle=None):
        vars(self).update(alphabet=alphabet, image=image, image_language_oracle=image_language_oracle)

    @classmethod
    def index_periodic(cls, images: Iterable[Word | str], alphabet: Alphabet) -> "EffectiveMorphism":
        """Images cycle through a finite list by index residue, each checked against the alphabet here;
        the image set is that list, so the oracle asks the automaton to accept one of them."""
        fixed = tuple(_check_word(alphabet, as_word(w)) for w in images)
        if not fixed:
            raise ValueError("need at least one image")

        def image(k: int) -> Word:
            if k < 1:
                raise IndexError("indices are 1-based")
            return fixed[(k - 1) % len(fixed)]

        def oracle(r: Automaton) -> bool:
            if r.alphabet != alphabet:
                raise AlphabetMismatchError("product of automata over different alphabets")
            return any(map(r.accepts, fixed))

        return cls(alphabet, image, oracle)


def champernowne(alphabet: Alphabet) -> InfiniteWord:
    """All non-empty words in shortlex order, concatenated.

    Factor-universal: every word w occurs no later than the end of its own
    enumeration block, which is what ``occurrence_bound`` computes.
    """
    k = len(alphabet)

    def source() -> Iterator[Symbol]:
        blocks = (product(alphabet.symbols, repeat=length) for length in count(1))
        return chain.from_iterable(chain.from_iterable(blocks))

    def occurrence_bound(w: Word | str) -> int:
        word = as_word(w)
        m = len(word)
        if m == 0:
            return 1
        before = sum(length * k**length for length in range(1, m))
        rank = 0
        for s in word:
            rank = rank * k + alphabet.index(s)
        return before + (rank + 1) * m

    return InfiniteWord(
        alphabet, source=source, universality=FACTOR_UNIVERSAL, occurrence_bound=occurrence_bound
    )


def ultimately_periodic(u: Word | str, v: Word | str, alphabet: Alphabet | None = None) -> InfiniteWord:
    """The word ``u v^omega`` via direct index arithmetic (no buffering)."""
    stem, loop = as_word(u), as_word(v)
    if not loop:
        raise ValueError("periodic part must be non-empty")
    if alphabet is None:
        alphabet = Alphabet(tuple(dict.fromkeys(stem + loop)))  # symbols in order of first use
    else:
        _check_word(alphabet, stem + loop)

    def index_fn(i: int) -> Symbol:
        if i <= len(stem):
            return stem[i - 1]
        return loop[(i - len(stem) - 1) % len(loop)]

    return InfiniteWord(alphabet, index_fn=index_fn)


def _universal_round_words(n: int) -> Iterator[tuple[int, ...]]:
    """Words newly emitted in round n, in shortlex order of index sequences:
    those that use index n below length n, then every sequence of length n."""
    r = range(1, n + 1)
    for k in range(1, n):
        yield from compress(product(r, repeat=k), map(contains, product(r, repeat=k), repeat(n)))
    yield from product(r, repeat=n)


def universal_round_length(n: int) -> int:
    """Number of symbols contributed by round n (closed form, no generation)."""
    return universal_round_end(n) - universal_round_end(n - 1)


def universal_round_end(r: int) -> int:
    """Position of the last symbol of round r.

    Rounds 1..r emit each index sequence of length <= r over indices <= r
    once, so the end is the sum of l * r**l over l = 1..r, in closed form.
    """
    if r < 2:
        return max(r, 0)
    return r * (1 - (r + 1) * r**r + r ** (r + 2)) // (r - 1) ** 2


def universal_indexed_word() -> IndexedInfiniteWord:
    """Factor-universal word over the indexed alphabet.

    Round n emits every index sequence of length <= n over indices <= n that
    no earlier round emitted, in shortlex order; a sequence s is therefore
    emitted in round max(len(s), max(s)), which gives the occurrence bound.
    """

    def source() -> Iterator[int]:
        return chain.from_iterable(chain.from_iterable(map(_universal_round_words, count(1))))

    def occurrence_bound(seq: tuple[int, ...]) -> int:
        seq = tuple(seq)
        if not seq:
            return 1
        if min(seq) < 1:
            raise IndexError("indices are 1-based")
        return universal_round_end(max(len(seq), max(seq)))

    return IndexedInfiniteWord(
        source=source, universality=FACTOR_UNIVERSAL, occurrence_bound=occurrence_bound
    )


def indexed_periodic(cycle: Iterable[int]) -> IndexedInfiniteWord:
    """The indexed word repeating the given finite index sequence forever."""
    seq = tuple(cycle)
    if not seq:
        raise ValueError("cycle must be non-empty")
    return IndexedInfiniteWord(index_fn=lambda i: seq[(i - 1) % len(seq)])


class _Images(dict):
    """``images[k]`` is ``image(k)``, asked for once, on the first read of k."""

    __slots__ = ("image",)

    def __missing__(self, k: int) -> Word:
        return self.setdefault(k, self.image(k))


def apply_morphism(
    phi: EffectiveMorphism, w: IndexedInfiniteWord, stall_limit: int = 100_000
) -> InfiniteWord:
    """Symbol-wise image of an indexed word under a morphism.

    Erasing images are fine as long as non-erasing ones keep coming; a run of
    ``stall_limit`` consecutive erasing images aborts with MorphismStallError
    since the image would not be an infinite word within the budget.  Indices
    are mapped a slice at a time, each image computed when the stream reaches
    it, so a stall or an image that raises stops the stream at its own
    position, and the word's buffer keeps it there for every reader.
    """

    def pieces() -> Iterator[Iterable[Symbol]]:
        images = _Images()  # indexed words repeat small indices
        images.image = phi.image
        erased = 0
        for piece in w._slices(0):
            if erased + len(piece) > stall_limit:  # a stall may fall in this slice: count each image
                for idx in piece:
                    img = images[idx]
                    erased = 0 if img else erased + 1
                    if erased > stall_limit:
                        raise MorphismStallError(f"{stall_limit} consecutive erasing images; image word stalled")
                    yield img
            else:
                yield chain.from_iterable(map(images.__getitem__, piece))
                erased = next((i for i, idx in enumerate(reversed(piece)) if images[idx]), erased + len(piece))

    return InfiniteWord(phi.alphabet, source=lambda: chain.from_iterable(pieces()))


def factor_search(w: InfiniteWord, needle: Word | str, limit: int) -> int | None:
    """Least start position of ``needle`` inside ``W[1, limit]``, or None.

    The empty word occurs at position 1.
    """
    pattern = as_word(needle)
    if not pattern:
        return 1
    hay = w.prefix(limit)
    if all(len(s) == 1 for s in chain(w.alphabet.symbols, pattern)):
        pos = "".join(hay).find("".join(pattern))
        return pos + 1 if pos >= 0 else None
    return _find(hay, pattern)


def indexed_factor_search(w: IndexedInfiniteWord, needle: Iterable[int], limit: int) -> int | None:
    """Least start position of an index sequence inside the indexed word's prefix."""
    pattern = tuple(needle)
    if not pattern:
        return 1
    hay = w.prefix(limit)
    if 0 <= min(pattern) <= max(pattern) < 256 and (not hay or max(hay) < 256):
        pos = bytes(hay).find(bytes(pattern))
        return pos + 1 if pos >= 0 else None
    return _find(hay, pattern)


def _find(hay: tuple, pattern: tuple) -> int | None:
    """Least 1-based start of ``pattern`` in ``hay`` by direct comparison."""
    m = len(pattern)
    for i in range(len(hay) - m + 1):
        if hay[i : i + m] == pattern:
            return i + 1
    return None
