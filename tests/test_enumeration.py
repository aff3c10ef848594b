import math
import tracemalloc
from collections import deque
from itertools import groupby
from pathlib import Path

import pytest

from bisector_words import cli, enumeration, realization, words
from bisector_words.geometry import occupancy_word
from oracles import (
    brute_force_realizable_words,
    count_bracelets_by_canonical,
    enumerate_words_by_product,
    interlacing_signatures,
)

GOLDEN = Path(__file__).parent / "golden"


def stream_signatures(n):
    """The signatures of the word stream, one per run of equal signatures."""
    return [sig for sig, _ in groupby(map(words.signature, enumeration.enumerate_words(n)))]


class TestCountWords:
    def test_formula_values(self):
        assert enumeration.count_words(3) == 12
        assert enumeration.count_words(4) == 50
        assert enumeration.count_words(5) == 180
        assert enumeration.count_words(7) == 1932

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            enumeration.count_words(2)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_enumeration(self, n):
        assert sum(1 for _ in enumeration.enumerate_words(n)) == enumeration.count_words(n)

    def test_growth_rate(self):
        n = 14
        rate = math.log(enumeration.count_words(n), 3) / n
        assert abs(rate - 1) < 0.05


class TestEnumerateWords:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_set_equality_with_naive_filter(self, n):
        assert set(enumeration.enumerate_words(n)) == brute_force_realizable_words(n)

    def test_each_word_once_and_realizable(self):
        seen = set()
        for w in enumeration.enumerate_words(5):
            assert w not in seen
            seen.add(w)
            assert words.is_realizable(w)
            assert sum(w) == 5

    def test_range_bounds(self):
        with pytest.raises(ValueError):
            list(enumeration.enumerate_words(15))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_stream_matches_product_generator(self, n):
        assert list(enumeration.enumerate_words(n)) == list(enumerate_words_by_product(n))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_golden_stream_order(self, n):
        expected = (GOLDEN / f"words_n{n}.txt").read_text().splitlines()
        got = [words.word_to_string(w) for w in enumeration.enumerate_words(n)]
        assert got == expected


class TestTupleAssembly:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_words_are_tuples_of_exact_ints(self, n):
        ws = list(enumeration.enumerate_words(n))
        assert {type(w) for w in ws} == {tuple}
        assert {len(w) for w in ws} == {2 * n}
        assert {type(b) for w in ws for b in w} == {int}

    @pytest.mark.parametrize("n", [3, 7, 10])
    def test_half_tuples_are_read_only_and_built_once_per_n(self, n):
        halves = enumeration._half_tuples(n)
        assert [words.word_to_string(h) for h in halves] == [format(h, f"0{n}b") for h in range(1 << n)]
        assert not halves.flags.writeable
        with pytest.raises(ValueError):
            halves[0] = ()
        misses = enumeration._half_tuples.cache_info().misses
        list(enumeration.enumerate_words(n))
        list(enumeration.enumerate_words(n))
        assert enumeration._half_tuples(n) is halves
        assert enumeration._half_tuples.cache_info().misses == misses


class TestSignatures:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_matches_literal_filter(self, n):
        assert stream_signatures(n) == interlacing_signatures(n)


class TestCountBracelets:
    def test_small_table(self):
        assert [enumeration.count_bracelets(n) for n in (3, 4, 5, 6)] == [1, 5, 9, 30]

    @pytest.mark.parametrize("n", range(3, 11))
    def test_matches_canonical_oracle(self, n):
        assert enumeration.count_bracelets(n) == count_bracelets_by_canonical(n)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_report(self, n):
        assert enumeration.count_bracelets(n) == enumeration.enumeration_report(n).bracelet_count

    def test_range_bounds(self):
        top = words.MAX_BRACELET_N
        wc, bc = enumeration.count_words(top), enumeration.count_bracelets(top)
        assert wc // (4 * top) <= bc <= wc
        for n in (2, top + 1):
            with pytest.raises(ValueError, match=f"3 <= n <= {top}"):
                enumeration.count_bracelets(n)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_sandwich_inequality(self, n):
        wc = enumeration.count_words(n)
        bc = enumeration.count_bracelets(n)
        assert wc / (4 * n) <= bc <= wc


class TestReport:
    def test_report_consistency(self):
        rep = enumeration.enumeration_report(5)
        assert rep.word_count == rep.formula_count == 180
        assert rep.bracelet_count == 9
        assert sum(o * c for o, c in rep.orbit_size_histogram.items()) == 180
        assert all(4 * 5 % o == 0 for o in rep.orbit_size_histogram)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_few_words_in_small_orbits(self, n):
        rep = enumeration.enumeration_report(n)
        small = sum(o * c for o, c in rep.orbit_size_histogram.items() if o < 4 * n)
        assert small <= 2 * n * 3 ** (n / 2)


class TestChunkLayout:
    @staticmethod
    def outputs(n, capsys):
        assert cli.main(["enumerate", "--n", str(n), "--bracelets"]) == 0
        return (
            list(enumeration.enumerate_words(n)),
            stream_signatures(n),
            enumeration.enumeration_report(n),
            capsys.readouterr().out,
        )

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_outputs_do_not_depend_on_the_chunk_size(self, monkeypatch, capsys, chunk):
        default = {n: self.outputs(n, capsys) for n in range(3, 10)}
        monkeypatch.setattr(enumeration, "_CHUNK_WORDS", chunk)
        for n in range(3, 10):
            assert self.outputs(n, capsys) == default[n]

    @pytest.mark.parametrize("size", [1, 7])
    def test_word_stream_does_not_depend_on_the_tuple_slice(self, monkeypatch, size):
        default = {n: list(enumeration.enumerate_words(n)) for n in range(3, 10)}
        monkeypatch.setattr(enumeration, "_TUPLE_SLICE", size)
        for n in range(3, 10):
            assert list(enumeration.enumerate_words(n)) == default[n]

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_a_signature_is_never_split(self, monkeypatch, chunk):
        monkeypatch.setattr(enumeration, "_CHUNK_WORDS", chunk)
        sizes = [2 ** sig.count(1) for sig in stream_signatures(9)]
        chunks = [len(c) for c in enumeration._word_chunks(9)]
        i = 0
        for length in chunks:
            j = i + 1
            while j < len(sizes) and sum(sizes[i : j + 1]) <= chunk:
                j += 1
            assert length == sum(sizes[i:j])
            i = j
        assert i == len(sizes)


class TestMemory:
    BOUND = 4 << 20

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_report_and_word_stream_hold_no_set_of_words(self):
        # a set of all words of length 24 took 34.5 MB here
        assert self.peak(lambda: enumeration.enumeration_report(12)) < self.BOUND
        assert self.peak(lambda: deque(enumeration.enumerate_words(12), maxlen=0)) < self.BOUND

    def test_bracelets_hold_one_chunk(self):
        # a bitmap of the words of length 26 that were already reported took 8 MB
        assert self.peak(lambda: deque(enumeration._bracelet_chunks(13), maxlen=0)) < self.BOUND


class TestTiesToRealization:
    def test_every_class_has_a_roundtripping_word(self):
        classes = {}
        for w in enumeration.enumerate_words(5):
            classes.setdefault(words.canonical_bracelet(w).word, w)
        for canon, w in classes.items():
            got = words.canonical_bracelet(occupancy_word(realization.realize(w)))
            assert got.word == canon
