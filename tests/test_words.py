"""Computable infinite words: generators, factor search, occurrence bounds."""

from __future__ import annotations

import random
import sys
import threading
import traceback
from itertools import chain, count, islice, product, repeat

import pytest

from conftest import MACHINES_TEXT
from helpers import ABC, BINARY, failure, random_word
from realizability import (
    FACTOR_UNIVERSAL,
    Alphabet,
    AlphabetMismatchError,
    EffectiveMorphism,
    IndexedInfiniteWord,
    InfiniteWord,
    MachineList,
    MorphismStallError,
    apply_morphism,
    as_word,
    champernowne,
    factor_search,
    indexed_factor_search,
    indexed_periodic,
    parse_machines,
    theorem1_word,
    ultimately_periodic,
    universal_indexed_word,
    universal_round_end,
    universal_round_length,
    zero_one_blocks,
    zero_one_runs,
)
from realizability.words import _universal_round_words


class TestChampernowne:
    def test_first_ten_symbols(self):
        w = champernowne(BINARY)
        assert "".join(w.prefix(10)) == "0100011011"

    def test_symbol_at_is_one_based(self):
        w = champernowne(BINARY)
        assert w.symbol_at(1) == "0"
        assert w.symbol_at(2) == "1"
        assert w.symbol_at(6) == "1"

    def test_three_symbol_prefix(self):
        w = champernowne(ABC)
        assert "".join(w.prefix(6)) == "abcaaa"

    def test_declared_factor_universal(self):
        assert champernowne(BINARY).universality == FACTOR_UNIVERSAL

    def test_factor_search_finds_least_position(self):
        w = champernowne(BINARY)
        # "11" first occurs across the blocks "01" and "10" (positions 6-7),
        # earlier than the enumeration block "11" itself at positions 9-10.
        assert factor_search(w, "11", 10) == 6

    def test_factor_search_respects_limit(self):
        w = champernowne(BINARY)
        assert factor_search(w, "11", 5) is None

    def test_factor_search_empty_needle(self):
        assert factor_search(champernowne(BINARY), "", 3) == 1

    def test_factor_search_needle_symbol_outside_the_alphabet(self):
        # the word has no symbol "01", though its text has the characters 0 1
        w = champernowne(BINARY)
        assert factor_search(w, ("01",), 20) is None
        assert factor_search(w, ("1", "01"), 20) is None
        assert factor_search(w, ("1", "0"), 20) == 2

    def test_occurrence_bound_examples(self):
        bound = champernowne(BINARY).occurrence_bound
        assert bound("") == 1
        assert bound("0") == 1
        assert bound("1") == 2
        # length-1 block occupies 2 symbols; "11" is the 4th length-2 word,
        # so its enumeration copy ends at 2 + 4*2 = 10.
        assert bound("11") == 10

    def test_occurrence_bound_is_sound(self):
        rng = random.Random(211)
        for alphabet in (BINARY, ABC):
            w = champernowne(alphabet)
            for _ in range(100):
                needle = random_word(rng, alphabet, 6, min_len=1)
                limit = w.occurrence_bound(needle)
                pos = factor_search(w, needle, limit)
                assert pos is not None
                assert pos + len(needle) - 1 <= limit

    def test_buffering_is_order_independent(self):
        w = champernowne(BINARY)
        late = w.symbol_at(50)
        early = w.prefix(10)
        fresh = champernowne(BINARY)
        assert fresh.prefix(10) == early
        assert fresh.symbol_at(50) == late

    def test_segment_endpoints_inclusive(self):
        w = champernowne(BINARY)
        assert "".join(w.segment(6, 7)) == "11"
        assert w.segment(3, 2) == ()


    def test_segment_reads_only_its_positions(self):
        read = []

        def index_fn(i):
            read.append(i)
            return "01"[i % 2]

        w = InfiniteWord(BINARY, index_fn=index_fn)
        assert w.segment(1000, 1002) == ("0", "1", "0")
        assert read == [1000, 1001, 1002]
        assert ultimately_periodic("", "01").segment(10**6, 10**6 + 2) == ("1", "0", "1")

    def test_segment_bounds(self):
        w = champernowne(BINARY)
        for lo, hi in ((0, 3), (5, 3)):
            with pytest.raises(IndexError, match="^bad segment bounds$"):
                w.segment(lo, hi)

    def test_slow_search_with_multi_character_symbols(self):
        w = champernowne(Alphabet(("ab", "c")))
        assert w.prefix(6) == ("ab", "c", "ab", "ab", "ab", "c")
        assert factor_search(w, ("c", "ab", "ab"), 20) == 2
        assert factor_search(w, ("c", "c", "ab", "ab"), 20) == 9
        assert factor_search(w, ("c", "c", "ab", "ab"), 11) is None

    def test_slow_search_with_an_index_past_255(self):
        w = indexed_periodic((1, 300, 2))
        assert indexed_factor_search(w, (300, 2), 10) == 2
        assert indexed_factor_search(w, (2, 1, 300), 10) == 3
        assert indexed_factor_search(w, (300, 300), 10) is None


class TestUltimatelyPeriodic:
    def test_index_arithmetic(self):
        w = ultimately_periodic("01", "10")
        assert "".join(w.prefix(8)) == "01101010"
        assert w.symbol_at(5) == "1"

    def test_pure_periodic(self):
        w = ultimately_periodic("", "ab")
        assert "".join(w.prefix(5)) == "ababa"

    def test_empty_loop_rejected(self):
        with pytest.raises(ValueError):
            ultimately_periodic("01", "")

    def test_alphabet_inference_and_override(self):
        assert ultimately_periodic("0", "1").alphabet.symbols == ("0", "1")
        w = ultimately_periodic("", "1", alphabet=BINARY)
        assert w.alphabet is BINARY

    @pytest.mark.parametrize("stem, loop", [("2", "0"), ("", "2"), ("0", "12")])
    def test_symbols_outside_a_given_alphabet_rejected(self, stem, loop):
        with pytest.raises(AlphabetMismatchError, match="'2'"):
            ultimately_periodic(stem, loop, alphabet=BINARY)


def filtered_round_words(n: int):
    """The earlier round generator: every sequence up to length n, filtered one at a time."""
    for length in range(1, n + 1):
        for tup in product(range(1, n + 1), repeat=length):
            if length == n or max(tup) == n:
                yield tup


def summed_round_length(n: int) -> int:
    """Symbols of round n summed by word length: n**n words of length n, and
    of each shorter length l the n**l - (n-1)**l words that use index n."""
    total = n * n**n
    for length in range(1, n):
        total += length * (n**length - (n - 1) ** length)
    return total


def symbolwise_image(phi: EffectiveMorphism, w, stall_limit: int = 100_000) -> InfiniteWord:
    """The earlier ``apply_morphism``: one image per index read, erasures counted as read."""

    def source():
        erased = 0
        images: dict = {}

        def image(idx):
            nonlocal erased
            img = images.get(idx)
            if img is None:
                img = images[idx] = phi.image(idx)
            erased = 0 if img else erased + 1
            if erased > stall_limit:
                raise MorphismStallError(f"{stall_limit} consecutive erasing images; image word stalled")
            return img

        return chain.from_iterable(map(image, w.iter_from(1)))

    return InfiniteWord(phi.alphabet, source=source)


def readable(word: InfiniteWord, error: type, limit: int = 20_000) -> tuple[int, str] | None:
    """How many symbols a reader gets, one at a time, before ``error``, and
    its message; None if the first ``limit`` symbols read without it."""
    for n in range(1, limit + 1):
        try:
            word.symbol_at(n)
        except error as exc:
            return n - 1, str(exc)
    return None


class TestUniversalIndexedWord:
    def test_round_one_and_two(self):
        w = universal_indexed_word()
        assert w.prefix(10) == (1, 2, 1, 1, 1, 2, 2, 1, 2, 2)

    def test_round_three_opens_with_index_three(self):
        w = universal_indexed_word()
        assert w.symbol_index_at(11) == 3

    def test_round_length_closed_form_matches_generation(self):
        for n in range(1, 6):
            generated = sum(len(t) for t in _universal_round_words(n))
            assert universal_round_length(n) == generated

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rounds_match_the_filtering_generator(self, n):
        rounds = list(_universal_round_words(n))
        assert rounds == list(filtered_round_words(n))
        assert sum(map(len, rounds)) == universal_round_length(n)

    def test_round_ends(self):
        assert universal_round_end(1) == 1
        assert universal_round_end(2) == 10
        assert universal_round_end(3) == 102

    def test_round_end_closed_form_matches_summed_round_lengths(self):
        total = 0
        assert universal_round_end(0) == 0
        for r in range(1, 41):
            total += summed_round_length(r)
            assert universal_round_end(r) == total, r

    def test_round_length_matches_the_sum_over_word_lengths(self):
        for n in range(41):
            assert universal_round_length(n) == summed_round_length(n), n

    @pytest.mark.parametrize("n", range(-3, 1))
    def test_round_length_is_the_int_zero_up_to_round_zero(self, n):
        length = universal_round_length(n)
        assert type(length) is int and length == 0

    def test_declared_factor_universal(self):
        assert universal_indexed_word().universality == FACTOR_UNIVERSAL

    def test_every_index_sequence_occurs_within_bound(self):
        rng = random.Random(223)
        w = universal_indexed_word()
        for _ in range(60):
            length = rng.randint(1, 3)
            seq = tuple(rng.randint(1, 4) for _ in range(length))
            limit = w.occurrence_bound(seq)
            pos = indexed_factor_search(w, seq, limit)
            assert pos is not None, seq
            assert pos + len(seq) - 1 <= limit

    def test_specific_pair_occurs_in_its_round(self):
        w = universal_indexed_word()
        assert indexed_factor_search(w, (3, 1), universal_round_end(3)) is not None

    def test_indexed_factor_search_limit(self):
        w = universal_indexed_word()
        assert indexed_factor_search(w, (3,), 10) is None
        assert indexed_factor_search(w, (), 1) == 1

    @pytest.mark.parametrize("needle", [(0,), (-1,), (2, -1), (-300, 1)])
    def test_indexed_factor_search_index_below_one(self, needle):
        assert indexed_factor_search(universal_indexed_word(), needle, 20) is None


class TestIndexedPeriodic:
    def test_cycle(self):
        w = indexed_periodic((2, 3))
        assert w.prefix(5) == (2, 3, 2, 3, 2)

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            indexed_periodic(())


class TestApplyMorphism:
    def test_simple_cycle_image(self):
        # images: 2 -> "0", 3 -> "1"
        image = apply_morphism(zero_one_runs(), indexed_periodic((2, 3)))
        assert "".join(image.prefix(6)) == "010101"

    def test_image_of_universal_word(self):
        image = apply_morphism(zero_one_runs(), universal_indexed_word())
        # round 1 erases; round 2 contributes "00000"; round 3 opens with "1"
        assert "".join(image.prefix(6)) == "000001"

    def test_prefix_is_concatenation_of_images(self):
        phi = zero_one_runs()
        w = universal_indexed_word()
        image = apply_morphism(phi, w)
        expected: list[str] = []
        for idx in w.prefix(40):
            expected.extend(phi.image(idx))
        got = image.prefix(len(expected))
        assert "".join(got) == "".join(expected)

    @pytest.mark.parametrize(
        "phi",
        [zero_one_runs(), zero_one_blocks(), EffectiveMorphism.index_periodic(["01", "", "1"], BINARY)],
        ids=["zero-one-runs", "zero-one-blocks", "cyclic-erasing"],
    )
    def test_each_image_is_computed_once_per_word(self, phi):
        indices = universal_indexed_word().prefix(3000)
        calls: list[int] = []
        counted = EffectiveMorphism(phi.alphabet, lambda idx: calls.append(idx) or phi.image(idx))
        expected = [s for idx in indices for s in phi.image(idx)]
        assert apply_morphism(counted, universal_indexed_word()).prefix(len(expected)) == tuple(expected)
        assert sorted(calls) == sorted(set(indices))

    def test_stalling_morphism_raises(self):
        image = apply_morphism(zero_one_runs(), indexed_periodic((1,)), stall_limit=50)
        with pytest.raises(MorphismStallError):
            image.prefix(1)

    # an erasing run one short of the limit, one image, then a run that
    # stalls; start 2000 with limit 600 puts the stalling run across the
    # slice boundary at index position 3008 (slices of 64 doubling to 1024)
    @pytest.mark.parametrize(
        "limit,start", [(0, 0), (0, 63), (1, 0), (1, 62), (5, 100), (5, 1980), (600, 0), (600, 2000)]
    )
    def test_stall_position_matches_the_symbolwise_source(self, limit, start):
        phi = EffectiveMorphism(BINARY, lambda k: ("0",) if k == 1 else ())

        def indices():
            return IndexedInfiniteWord(
                source=lambda: chain(repeat(1, start), repeat(2, limit), [1], repeat(2, limit + 1), repeat(1))
            )

        expected = readable(symbolwise_image(phi, indices(), limit), MorphismStallError)
        assert expected[0] == start + 1
        assert readable(apply_morphism(phi, indices(), limit), MorphismStallError) == expected
        sliced = apply_morphism(phi, indices(), limit)
        assert sliced.prefix(start + 1) == ("0",) * (start + 1)
        with pytest.raises(MorphismStallError):
            sliced.prefix(start + 2)

    @pytest.mark.parametrize("bad", [3, 5])
    def test_an_image_that_raises_surfaces_at_its_position(self, bad):
        # index 3 first occurs inside the first slice, index 5 at position
        # 1253, inside the slice of index positions 961-1984
        def image(k):
            if k == bad:
                raise ValueError(f"no image for {k}")
            return ("0", "1")[: k % 3]

        phi = EffectiveMorphism(BINARY, image)
        indices = universal_indexed_word().prefix(universal_round_end(bad - 1))
        before = tuple(s for k in indices for s in image(k))
        n, message = readable(apply_morphism(phi, universal_indexed_word()), ValueError)
        assert (n, message) == readable(symbolwise_image(phi, universal_indexed_word()), ValueError)
        assert (n, message) == (len(before), f"no image for {bad}")
        sliced = apply_morphism(phi, universal_indexed_word())
        assert sliced.prefix(len(before)) == before
        with pytest.raises(ValueError):
            sliced.prefix(len(before) + 1)

    def test_image_of_a_formula_word(self):
        # indexed_periodic computes its indices, it keeps no buffer to slice
        phi = EffectiveMorphism.index_periodic(["01", "", "1"], BINARY)
        image = apply_morphism(phi, indexed_periodic((1, 2, 3, 2)))
        assert "".join(image.prefix(3000)) == "011" * 1000
        assert "".join(islice(image.iter_from(2), 5)) == "11011"

    def test_stall_counts_every_read_of_a_repeated_erasing_index(self):
        # odd indices map to "01", even ones erase: three "01" images, then
        # eleven reads of the erasing index 2 before index 1 comes round again
        phi = EffectiveMorphism.index_periodic(["01", ""], BINARY)
        indices = indexed_periodic((1, 2) * 3 + (2,) * 10)
        stalled = apply_morphism(phi, indices, stall_limit=10)
        assert "".join(stalled.prefix(6)) == "010101"
        with pytest.raises(MorphismStallError):
            stalled.prefix(7)
        assert "".join(apply_morphism(phi, indices, stall_limit=11).prefix(8)) == "01010101"


class TestAsWord:
    def test_string_and_tuple_forms(self):
        assert as_word("011") == ("0", "1", "1")
        assert as_word(("0", "1")) == ("0", "1")
        assert as_word("") == ()


# ---------------------------------------------------------------------------
# The slice buffer against per-symbol reference sources


def _champernowne_symbols(symbols):
    for length in count(1):
        for tup in product(symbols, repeat=length):
            yield from tup


def _universal_symbols():
    for n in count(1):
        for length in range(1, n + 1):
            for tup in product(range(1, n + 1), repeat=length):
                if length == n or max(tup) == n:
                    yield from tup


def _morphism_symbols(phi):
    for idx in _universal_symbols():
        yield from phi.image(idx)


def _ultper_symbols(stem, loop):
    for i in count(1):
        yield stem[i - 1] if i <= len(stem) else loop[(i - len(stem) - 1) % len(loop)]


CYCLIC = EffectiveMorphism.index_periodic(["01", "", "1"], BINARY)
STARTS = (1, 63, 64, 65, 1023, 1024, 1025, 5000)
READ = 2100  # from each start, past slices of 64, 128, ..., 1024 symbols
SPAN = max(STARTS) - 1 + READ

WORDS = {
    "champernowne-01": (lambda: champernowne(BINARY), lambda: _champernowne_symbols("01")),
    "champernowne-abc": (lambda: champernowne(ABC), lambda: _champernowne_symbols("abc")),
    "universal": (universal_indexed_word, _universal_symbols),
    "zero-one-runs": (
        lambda: apply_morphism(zero_one_runs(), universal_indexed_word()),
        lambda: _morphism_symbols(zero_one_runs()),
    ),
    "zero-one-blocks": (
        lambda: apply_morphism(zero_one_blocks(), universal_indexed_word()),
        lambda: _morphism_symbols(zero_one_blocks()),
    ),
    "cyclic": (
        lambda: apply_morphism(CYCLIC, universal_indexed_word()),
        lambda: _morphism_symbols(CYCLIC),
    ),
    "ultper": (lambda: ultimately_periodic("011", "10"), lambda: _ultper_symbols("011", "10")),
    "theorem1": (
        lambda: theorem1_word(parse_machines(MACHINES_TEXT)),
        lambda: chain.from_iterable(theorem1_word(parse_machines(MACHINES_TEXT))._generate()),
    ),
}


class TestSliceBuffer:
    @pytest.mark.parametrize("name", sorted(WORDS))
    def test_reads_match_per_symbol_source(self, name):
        make, symbols = WORDS[name]
        expected = tuple(islice(symbols(), SPAN))
        shared = make()
        for start in STARTS:
            want = expected[start - 1 : start - 1 + READ]
            assert tuple(islice(make().iter_from(start), READ)) == want, start
            assert tuple(islice(shared.iter_from(start), READ)) == want, start
        w = make()
        at = w.symbol_index_at if name == "universal" else w.symbol_at
        assert [at(i) for i in (5000, 1, 64, 1025)] == [expected[i - 1] for i in (5000, 1, 64, 1025)]
        assert w.prefix(SPAN) == expected
        assert w.prefix(0) == ()
        if name != "universal":
            assert make().segment(1000, 3000) == expected[999:3000]
            assert w.segment(63, 1025) == expected[62:1025]

    @pytest.mark.parametrize("name", ["champernowne-abc", "zero-one-blocks", "theorem1"])
    def test_concurrent_readers_agree(self, name):
        make, _ = WORDS[name]
        expected = make().prefix(SPAN)
        w = make()
        barrier = threading.Barrier(4)
        got = [None] * 4

        def read(k):
            barrier.wait()
            got[k] = tuple(islice(w.iter_from(1), SPAN))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [expected] * 4

    @pytest.mark.parametrize("name", ["champernowne-01", "universal", "ultper"])
    def test_iter_from_zero_raises_at_the_call(self, name):
        w = WORDS[name][0]()
        with pytest.raises(IndexError):
            w.iter_from(0)

    def test_stall_raised_through_iter_from(self):
        image = apply_morphism(zero_one_runs(), indexed_periodic((2, 1, 1, 1)), stall_limit=2)
        with pytest.raises(MorphismStallError):
            next(image.iter_from(2))

    def test_short_source_raises_and_keeps_what_it_produced(self):
        w = InfiniteWord(BINARY, source=lambda: iter("0110"))
        assert w.prefix(2) == ("0", "1")
        with pytest.raises(RuntimeError):
            w.prefix(10)
        assert w.prefix(4) == ("0", "1", "1", "0")
        assert w.prefix(2) == ("0", "1")
        with pytest.raises(RuntimeError):
            list(islice(w.iter_from(1), 10))


# ---------------------------------------------------------------------------
# The buffer keeps what its source produced and the exception that stopped it


def stalling() -> InfiniteWord:
    """Index 2 maps to "0", index 1 erases: the third erasing 1 stalls at position 2."""
    return apply_morphism(zero_one_runs(), indexed_periodic((2, 1, 1, 1)), stall_limit=2)


STALL = (MorphismStallError, "2 consecutive erasing images; image word stalled")
ENDED = (RuntimeError, "word source ended after position 4")


class FailingMachines:
    """A machine list whose simulation fails from step 3 on."""

    def halts_within(self, k: int, n: int) -> bool:
        if n >= 3:
            raise ValueError("no simulation past step 2")
        return False

    alive_at = MachineList.alive_at


class TestSourceFailure:
    def test_iter_from_yields_the_symbols_before_a_stall(self):
        img = stalling()
        assert next(img.iter_from(1)) == "0"
        assert failure(lambda: next(img.iter_from(2))) == failure(lambda: list(img.iter_from(1))) == STALL

    def test_a_stall_is_raised_again_by_every_read_past_it(self):
        img = stalling()
        assert failure(lambda: img.prefix(2)) == failure(lambda: img.prefix(2)) == STALL
        assert failure(lambda: img.symbol_at(2)) == failure(lambda: img.segment(1, 5)) == STALL
        assert img.prefix(1) == ("0",)

    def test_the_kept_exception_is_raised_again_with_a_traceback_that_does_not_grow(self):
        img = stalling()
        raised, depths = set(), set()
        for _ in range(5):
            with pytest.raises(MorphismStallError) as info:
                img.prefix(2)
            raised.add(id(info.value))
            depths.add(len(traceback.extract_tb(info.tb)))
        assert len(raised) == len(depths) == 1

    def test_symbols_before_an_image_that_raises_read_through_iter_from(self):
        def image(k):
            if k == 3:
                raise ValueError("no image for 3")
            return ("0", "1")[: k % 3]

        phi = EffectiveMorphism(BINARY, image)
        indices = universal_indexed_word().prefix(universal_round_end(2))
        before = tuple(s for k in indices for s in image(k))
        for n in range(len(before) + 1):
            img = apply_morphism(phi, universal_indexed_word())
            assert tuple(islice(img.iter_from(1), n)) == before[:n]
        bad = (ValueError, "no image for 3")
        assert failure(lambda: list(img.iter_from(1))) == failure(lambda: img.prefix(len(before) + 1)) == bad
        assert img.prefix(len(before)) == before

    def test_a_source_that_ends_keeps_its_symbols(self):
        w = InfiniteWord(BINARY, source=lambda: iter("0110"))
        assert failure(lambda: w.prefix(10)) == ENDED
        assert w.prefix(4) == ("0", "1", "1", "0")
        assert failure(lambda: w.symbol_at(5)) == failure(lambda: w.prefix(5)) == ENDED

    def test_a_read_that_starts_past_the_end_raises(self):
        w = InfiniteWord(BINARY, source=lambda: iter("0110"))
        assert failure(lambda: next(w._slices(9))) == ENDED  # once an endless run of empty slices
        assert failure(lambda: next(w.iter_from(10))) == failure(lambda: w.segment(10, 12)) == ENDED
        assert failure(lambda: w.segment(3, 5)) == ENDED
        assert w.segment(2, 4) == ("1", "1", "0")

    def test_iter_from_reads_a_source_that_ends_up_to_its_end(self):
        w = InfiniteWord(BINARY, source=lambda: iter("0110"))
        assert list(islice(w.iter_from(1), 4)) == ["0", "1", "1", "0"]
        assert failure(lambda: list(w.iter_from(1))) == failure(lambda: list(w.iter_from(3))) == ENDED
        assert list(islice(w.iter_from(3), 2)) == ["1", "0"]

    def test_a_diagonal_stage_that_fails_fails_on_every_read(self):
        w = theorem1_word(FailingMachines())
        end = w.ensure_stage(2).end
        failed = (ValueError, "no simulation past step 2")
        assert failure(lambda: w.ensure_stage(3)) == failure(lambda: w.ensure_stage(3)) == failed
        assert failure(lambda: w.prefix(end + 1)) == failure(lambda: list(w.iter_from(1))) == failed
        assert tuple(islice(w.iter_from(1), end)) == w.prefix(end)


# Raises that no other test reaches, each with its type and full message.
REACHABLE_RAISES = {
    "no source": (lambda: InfiniteWord(BINARY), ValueError, "exactly one of source/index_fn is required"),
    "position 0": (lambda: champernowne(BINARY).symbol_at(0), IndexError, "positions are 1-based"),
    "no images": (lambda: EffectiveMorphism.index_periodic([], BINARY), ValueError, "need at least one image"),
    "image 0": (lambda: EffectiveMorphism.index_periodic(["0"], BINARY).image(0), IndexError, "indices are 1-based"),
    "bound of index 0": (lambda: universal_indexed_word().occurrence_bound((1, 0)), IndexError, "indices are 1-based"),
}


@pytest.mark.parametrize("case", REACHABLE_RAISES.values(), ids=REACHABLE_RAISES)
def test_reachable_raise(case):
    read, *error = case
    assert failure(read) == tuple(error)
