import dataclasses
import hashlib
import json
import math
import random
import warnings
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import stats as sstats

from bisector_words import enumeration, geometry, random_points, sampler, words
from bisector_words.random_points import batch_rng
from oracles import (
    EveryDraw,
    bracelet_class_tuples,
    clt_valid_draws,
    count_bracelets_by_canonical,
    enumerate_walks_plus,
    fixed_words,
    is_interlacing_literal,
    letter_count_law,
    realizable_profiles,
)


def chi_square_p(counts: dict, cells: int) -> float:
    observed = np.array(list(counts.values()) + [0] * (cells - len(counts)), dtype=float)
    return float(sstats.chisquare(observed).pvalue)


class CountingRng:
    """A generator that records the upper bound and the values of every ``integers`` call.

    The samplers draw from raw words (``sampler._uniform_below``); the
    ``draws_via_integers`` fixture routes those draws here to count them.
    """

    def __init__(self, rng):
        self.rng = rng
        self.bit_generator = rng.bit_generator
        self.highs = []
        self.values = []

    def integers(self, low, high, *args, **kwargs):
        self.highs.append(high)
        self.values.append(self.rng.integers(low, high, *args, **kwargs))
        return self.values[-1]


class ScriptedRng:
    """A generator whose ``integers`` calls return scripted values, recording each bound.

    With the ``draws_via_integers`` fixture every sampler draw is one such
    call.  It has no bit generator: no raw word is ever read from it.
    """

    bit_generator = None

    class Exhausted(Exception):
        pass

    def __init__(self, values):
        self.values = list(values)
        self.highs = []

    def integers(self, low, high):
        if len(self.highs) == len(self.values):
            raise ScriptedRng.Exhausted(high)
        value = self.values[len(self.highs)]
        assert low <= value < high
        self.highs.append(high)
        return value


@pytest.fixture
def draws_via_integers(monkeypatch):
    """Route every sampler draw ``_uniform_below(high, rng)`` to ``rng.integers(0, high)``.

    ScriptedRng then scripts the draws and CountingRng records their bounds.
    """
    monkeypatch.setattr(sampler, "_uniform_below", lambda high, rng: int(rng.integers(0, high)))


def attempt_outcomes(n: int, block: int) -> list:
    """Every draw sequence of one word-sampler attempt: (probability, word or None if rejected).

    An attempt draws the tail blocks of ``block`` letters, then the head.
    Needs the ``draws_via_integers`` fixture.
    """
    draws = 1 + math.ceil((n - min(n, block)) / block)
    outcomes = []
    stack = [()]
    while stack:
        prefix = stack.pop()
        rng = ScriptedRng(prefix)
        try:
            word = sampler.sample_uniform_word(n, rng)
        except ScriptedRng.Exhausted as exc:
            if len(prefix) == draws:  # a second attempt begins: the first was rejected
                outcomes.append((math.prod(Fraction(1, h) for h in rng.highs), None))
            else:
                stack.extend(prefix + (v,) for v in range(exc.args[0]))
            continue
        assert len(prefix) == draws
        outcomes.append((math.prod(Fraction(1, h) for h in rng.highs), word))
    return outcomes


def realizable_literal(word) -> bool:
    n = len(word) // 2
    return is_interlacing_literal(tuple(word[i] + word[i + n] for i in range(n)))


def pool_cells(observed, expected, minimum=5.0):
    """Merge neighbouring cells until every expected count is at least ``minimum``."""
    cells = []
    for o, e in zip(observed, expected):
        if cells and cells[-1][1] < minimum:
            cells[-1][0] += o
            cells[-1][1] += e
        else:
            cells.append([o, e])
    if len(cells) > 1 and cells[-1][1] < minimum:
        o, e = cells.pop()
        cells[-1][0] += o
        cells[-1][1] += e
    return cells


def special_count_pvalue(n: int, trials: int, rng) -> float:
    """Chi-square p-value of the number p of 0 letters in sampled signatures.

    The signature has 2p letters 0 or 2 with weight 2 C(n,2p) 2^(n-2p).
    """
    observed: dict = {}
    for _ in range(trials):
        sig = words.signature(sampler.sample_uniform_word(n, rng))
        p = sig.count(0)
        observed[p] = observed.get(p, 0) + 1
    total_words = enumeration.count_words(n)
    ps = range(1, n // 2 + 1)
    expected = [trials * 2 * math.comb(n, 2 * p) * 2 ** (n - 2 * p) / total_words for p in ps]
    cells = pool_cells([observed.get(p, 0) for p in ps], expected)
    stat = sum((o - e) ** 2 / e for o, e in cells)
    return float(sstats.chi2.sf(stat, df=len(cells) - 1))


class TestUniformWords:
    def test_always_realizable(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            assert words.is_realizable(sampler.sample_uniform_word(5, rng))

    def test_chi_square_uniformity_n3(self):
        rng = np.random.default_rng(1)
        counts: dict = {}
        for _ in range(60_000):
            w = sampler.sample_uniform_word(3, rng)
            counts[w] = counts.get(w, 0) + 1
        assert len(counts) == 12
        assert chi_square_p(counts, 12) > 1e-3

    def test_special_count_marginal_n6(self):
        assert special_count_pvalue(6, 100_000, np.random.default_rng(2)) > 1e-3

    def test_special_count_marginal_n41(self):
        # n=41 makes two draws per attempt, one of 39 letters and one of 2
        assert special_count_pvalue(41, 50_000, np.random.default_rng(41)) > 1e-3

    @pytest.mark.parametrize("n", [39, 40, 79])
    def test_draw_block_boundary(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            w = sampler.sample_uniform_word(n, rng)
            assert len(w) == 2 * n
            assert words.is_realizable(w)

    @pytest.mark.parametrize("n", [3, 4, 39, 40, 79])
    def test_one_draw_per_block_of_39_letters(self, draws_via_integers, n):
        # Up to n = 39 the whole word is one head draw.  Above, the tail
        # blocks come first, then one head draw of twice the largest head
        # count the tail can leave: (3^39 - 1)/2 after one tail letter (odd
        # S count), (3^39 + 1)/2 after two or more (even S count).
        rng = CountingRng(np.random.default_rng(n))
        sampler.sample_uniform_word(n, rng)
        if n <= 39:
            assert rng.highs == [enumeration.count_words(n)]
        else:
            tail = [3 ** min(39, n - start) for start in range(39, n, 39)]
            head = 3**39 - 1 if n == 40 else 3**39 + 1
            assert rng.highs == tail + [head]

    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_head_rank_decodes_a_distinct_word(self, draws_via_integers, n):
        # The decoder is called directly; the public sampler, which reads a
        # table up to n = 6, must give the decoder's word for every draw.
        total = enumeration.count_words(n)
        decoded = [
            words.letters_to_word(x & 1, sampler._head_letters(x >> 1, n, sampler._EVEN_WITH_S))
            for x in range(total)
        ]
        assert len(set(decoded)) == total
        assert set(decoded) == set(enumeration.enumerate_words(n))
        for x in range(total):
            rng = ScriptedRng([x])
            assert sampler.sample_uniform_word(n, rng) == decoded[x]
            assert rng.highs == [total]
        if n <= 6:
            assert sampler._WORD_TABLES[n] == tuple(decoded)

    @pytest.mark.parametrize("n", [2, sampler.MAX_WORD_N + 1])
    def test_n_bounded_before_any_draw(self, draws_via_integers, n):
        rng = CountingRng(np.random.default_rng(0))
        with pytest.raises(ValueError, match="3 <= n <="):
            sampler.sample_uniform_word(n, rng)
        assert rng.highs == []

    @pytest.mark.parametrize("block", [2, 3])
    @pytest.mark.parametrize("n", range(3, 8))
    def test_every_draw_sequence_with_small_blocks(self, monkeypatch, draws_via_integers, n, block):
        # With blocks of 2 or 3 letters, n <= 7 has tails, all three head
        # requirements and rejections; every valid word must come from
        # exactly one draw sequence, all equally likely.  With no table
        # built yet, every n reaches the decoding path.
        monkeypatch.setattr(sampler, "_BLOCK", block)
        monkeypatch.setattr(sampler, "_WORD_TABLES", {})
        outcomes = attempt_outcomes(n, block)
        assert sum(p for p, _ in outcomes) == 1
        accepted = [(p, w) for p, w in outcomes if w is not None]
        assert len({p for p, _ in accepted}) == 1
        sampled = [w for _, w in accepted]
        assert len(set(sampled)) == len(sampled)
        assert set(sampled) == set(enumeration.enumerate_words(n))
        if n > block:
            assert len(accepted) < len(outcomes)


class RawWords:
    """A generator whose bit generator's ``random_raw`` returns scripted words, counting them.

    ``random_raw(size)`` returns the next ``size`` words as a uint64 array
    and records ``size`` in ``rounds``.
    """

    def __init__(self, script):
        self.script = list(script)
        self.drawn = 0
        self.rounds = []
        self.bit_generator = self

    def random_raw(self, size=None):
        if size is None:
            self.drawn += 1
            return self.script[self.drawn - 1]
        assert self.drawn + size <= len(self.script), "read past the script"
        self.rounds.append(size)
        self.drawn += size
        return np.array(self.script[self.drawn - size : self.drawn], dtype=np.uint64)


def raw_word_count(high: int) -> int:
    """k, the number of 64-bit raw words that one draw on [0, high) reads."""
    return max(1, -(-(high - 1).bit_length() // 64))


# Bounds at the edges of the draw rule: 2^32 +- 1 around numpy's switch to
# 64-bit words, twice the largest head count 3^39, the largest one-word
# bounds, and two-word bounds.
EDGE_HIGHS = [2**32 - 1, 2**32 + 1, 2 * 3**39, 2**64 - 1, 2**64, 2**64 + 3, 3**50]
C_RULE = f"need the c-grid to be a flat sequence of at most {geometry.MAX_T_GRID} reals in (0, 1], got"


class TestUniformBelow:
    @staticmethod
    def bucket_sizes(high, values):
        """Accepted words per value v: the r < 2^K with r·high in [v·2^K + T, (v+1)·2^K)."""
        width = 64 * raw_word_count(high)
        threshold = (1 << width) % high
        return {
            v: -(-((v + 1) << width) // high) - -(-((v << width) + threshold) // high) for v in values
        }

    def test_every_value_of_small_bounds_gets_equally_many_words(self):
        for high in range(1, 2001):
            assert set(self.bucket_sizes(high, range(high)).values()) == {2**64 // high}

    @pytest.mark.parametrize("high", EDGE_HIGHS)
    def test_every_value_of_edge_bounds_gets_equally_many_words(self, high):
        # Too many values to list for the largest bounds: the first and last
        # 2000 and 2000 more at random.
        rnd = random.Random(high)
        values = {*range(min(high, 2000)), *range(max(0, high - 2000), high)}
        values |= {rnd.randrange(high) for _ in range(2000)}
        width = 64 * raw_word_count(high)
        assert set(self.bucket_sizes(high, values).values()) == {2**width // high}

    @pytest.mark.parametrize("high", [1, 3, 12, 1000, 1999, 2**32, *EDGE_HIGHS])
    def test_rejects_exactly_the_words_whose_low_part_is_below_the_threshold(self, high):
        # Candidate r: the first word of each of the first and last 20
        # buckets and its neighbours.  Each is scripted before an accepted
        # word, as its k raw words, high word first.
        k = raw_word_count(high)
        width = 64 * k
        threshold = (1 << width) % high
        mask = (1 << width) - 1

        def script(r):
            return [(r >> (64 * i)) & (2**64 - 1) for i in reversed(range(k))]

        accepted = next(r for r in range(mask, -1, -1) if (r * high) & mask >= threshold)
        firsts = [-(-(j << width) // high) for j in (*range(20), *range(max(0, high - 20), high))]
        candidates = {r + d for r in firsts for d in (-1, 0, 1) if 0 <= r + d <= mask}
        rejected = 0
        for r in sorted(candidates):
            rng = RawWords(script(r) + script(accepted))
            got = sampler._uniform_below(high, rng)
            if (r * high) & mask < threshold:
                rejected += 1
                assert (got, rng.drawn) == ((accepted * high) >> width, 2 * k)
            else:
                assert (got, rng.drawn) == ((r * high) >> width, k)
        assert (rejected > 0) == (threshold > 0)

    def test_high_word_first(self):
        # 2^64 + 3 needs two words: (1, 0) is r = 2^64, (0, 1) is r = 1.
        high = 2**64 + 3
        assert sampler._uniform_below(high, RawWords([1, 0])) == 1
        assert sampler._uniform_below(high, RawWords([0, 1])) == 0
        assert sampler._uniform_below(high, RawWords([2**64 - 1, 2**64 - 1])) == high - 1

    @pytest.mark.parametrize("high", [2**32 + 1, enumeration.count_words(32), 2 * 3**39, 2**63])
    @pytest.mark.parametrize("make", [np.random.PCG64, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM])
    def test_draws_equal_integers_above_2_to_the_32(self, high, make):
        # numpy's integers draws these bounds with the same rule from the
        # same 64-bit words, so streams of such draws did not change.
        ours, theirs = np.random.Generator(make(high)), np.random.Generator(make(high))
        assert [sampler._uniform_below(high, ours) for _ in range(200)] == [
            int(theirs.integers(0, high)) for _ in range(200)
        ]


class TestRawWords:
    @pytest.mark.parametrize(
        "sample, n",
        [
            (sampler.sample_uniform_word, 3),
            (sampler.sample_uniform_word, 41),
            (sampler.sample_uniform_bracelet, 4),
            (sampler.sample_uniform_bracelet, 41),
        ],
    )
    def test_mt19937_is_rejected_before_any_draw(self, sample, n):
        bits = np.random.MT19937(5)
        with pytest.raises(ValueError, match="MT19937"):
            sample(n, np.random.Generator(bits))
        assert bits.random_raw() == np.random.MT19937(5).random_raw()

    @pytest.mark.parametrize("make", [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64])
    def test_64_bit_generators_are_accepted(self, make):
        rng = np.random.Generator(make(1))
        assert words.is_realizable(sampler.sample_uniform_word(7, rng))
        assert words.is_realizable(sampler.sample_uniform_bracelet(7, rng).word)

    class NoIntegers(np.random.Generator):
        def integers(self, *args, **kwargs):
            raise AssertionError("a sampler called Generator.integers")

    @pytest.mark.parametrize("n", [3, 6, 7, 39, 40, 41])
    def test_words_never_call_integers(self, n):
        rng = self.NoIntegers(np.random.PCG64(n))
        for _ in range(5):
            assert words.is_realizable(sampler.sample_uniform_word(n, rng))

    @pytest.mark.parametrize("n", [4, 7, 40, 41])
    def test_bracelets_never_call_integers(self, n):
        rng = self.NoIntegers(np.random.PCG64(n))
        for _ in range(3):
            b = sampler.sample_uniform_bracelet(n, rng)
            assert b == words.canonical_bracelet(b.word)


class TestUniformBracelets:
    def test_n3_point_mass(self):
        rng = np.random.default_rng(3)
        only = words.canonical_bracelet(words.run_word(3))
        for _ in range(50):
            assert sampler.sample_uniform_bracelet(3, rng) == only

    def test_chi_square_uniformity_n5(self):
        rng = np.random.default_rng(4)
        counts: dict = {}
        for _ in range(20_000):
            b = sampler.sample_uniform_bracelet(5, rng)
            counts[b.word] = counts.get(b.word, 0) + 1
        assert len(counts) == 9
        assert chi_square_p(counts, 9) > 1e-3

    @pytest.mark.parametrize("n", range(3, 9))
    def test_acceptance_rate_bound(self, n):
        # classes/words, the fraction of words that are class
        # representatives, is at least 1/(4n): no orbit exceeds the group
        ratio = enumeration.count_bracelets(n) / enumeration.count_words(n)
        assert ratio >= 1 / (4 * n)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_fixed_point_counts_match_fixed_sets(self, n):
        terms = {kind: (mult, fixed) for kind, mult, fixed in enumeration._fixed_point_counts(n)}
        gcds = Counter(math.gcd(r, 2 * n) for r in range(2 * n))
        for r in range(2 * n):
            assert len(fixed_words(n, r, False)) == terms.get(math.gcd(r, 2 * n), (0, 0))[1]
        reflection = terms.get(None, (0, 0))
        for c in range(2 * n):
            assert len(fixed_words(n, c, True)) == (reflection[1] if c % 2 == 0 else 0)
        assert all(mult == (gcds[kind] if kind else n) for kind, (mult, _) in terms.items())

    @pytest.mark.parametrize("n", range(3, 9))
    def test_fixed_word_decoders_hit_their_fixed_sets(self, n):
        # The representative of rotation type d is the rotation by d; of
        # the reflection type, the reflection i -> -i.
        for kind, _, fixed in enumeration._fixed_point_counts(n):
            decoded = [tuple(sampler._fixed_word(n, kind, q, None)) for q in range(fixed)]
            assert all(realizable_literal(w) for w in decoded)
            assert len(set(decoded)) == fixed
            if kind is None:
                assert set(decoded) == fixed_words(n, 0, True)
            else:
                assert set(decoded) == fixed_words(n, kind, False)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_class_law_is_uniform(self, n):
        terms = enumeration._fixed_point_counts(n)
        total = sum(mult * fixed for _, mult, fixed in terms)
        law = Counter()
        for kind, mult, fixed in terms:
            for q in range(fixed):
                w = tuple(sampler._fixed_word(n, kind, q, None))
                law[min(bracelet_class_tuples(w))] += Fraction(mult, total)
        assert len(law) == count_bracelets_by_canonical(n)
        assert set(law.values()) == {Fraction(1, len(law))}

    @pytest.mark.parametrize("n", range(3, 9))
    def test_every_draw_gives_each_class_4n_times(self, draws_via_integers, n):
        # One draw per bracelet up to 2^64: every value of that draw, fed
        # through the public sampler, hits each class exactly 4n times.
        total = 4 * n * enumeration.count_bracelets(n)
        hits = Counter()
        for t in range(total):
            rng = ScriptedRng([t])
            b = sampler.sample_uniform_bracelet(n, rng)
            assert rng.highs == [total]
            assert b == words.canonical_bracelet(b.word)
            hits[b.word] += 1
        assert len(hits) == enumeration.count_bracelets(n)
        assert set(hits.values()) == {4 * n}

    @pytest.mark.parametrize("n", range(3, 7))
    def test_table_is_the_decoding_path(self, monkeypatch, draws_via_integers, n):
        # Up to n = 6 every draw t reads the table; with the table turned
        # off, the same t decodes and canonicalises the same bracelet.
        monkeypatch.setattr(sampler, "_BRACELET_TABLES", {})
        sampler.sample_uniform_bracelet(n, ScriptedRng([0]))
        table = sampler._BRACELET_TABLES[n]
        assert len(table) == 4 * n * enumeration.count_bracelets(n)
        monkeypatch.setattr(sampler, "_TABLE_SIZE", 0)
        monkeypatch.setattr(sampler, "_BRACELET_TABLES", {})
        for t, bracelet in enumerate(table):
            assert sampler.sample_uniform_bracelet(n, ScriptedRng([t])) == bracelet

    @pytest.mark.parametrize("n", [39, 40, 64, 97])
    def test_large_n(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            b = sampler.sample_uniform_bracelet(n, rng)
            assert words.is_realizable(b.word)
            assert b == words.canonical_bracelet(b.word)

    def test_rotation_type_above_39_letters_draws_its_word(self):
        # n = 120, d = 80: words of size 40 repeated 3 times, drawn afresh
        w = tuple(sampler._fixed_word(120, 80, 0, np.random.default_rng(80)))
        assert words.is_realizable(w)
        assert w[80:] + w[:80] == w

    @pytest.mark.parametrize("n", [2, words.MAX_BRACELET_N + 1])
    def test_n_bounded_before_any_draw(self, draws_via_integers, n):
        rng = CountingRng(np.random.default_rng(0))
        with pytest.raises(ValueError, match="3 <= n <="):
            sampler.sample_uniform_bracelet(n, rng)
        assert rng.highs == []

    def test_burnside_total_is_summed_once_per_n(self):
        # The count and the sampler read one cached total per n.
        enumeration._burnside_total.cache_clear()
        rng = np.random.default_rng(0)
        for n in (4, 8):
            for _ in range(3):
                enumeration.count_bracelets(n)
                sampler.sample_uniform_bracelet(n, rng)
            terms = enumeration._fixed_point_counts(n)
            assert enumeration._burnside_total(n) == sum(m * f for _, m, f in terms)
        assert enumeration._burnside_total.cache_info().misses == 2


@pytest.mark.parametrize("n", range(3, 10))
def test_tables_serve_n_up_to_6(n):
    words_total = enumeration.count_words(n)
    bracelets_total = 4 * n * enumeration.count_bracelets(n)
    assert (words_total <= sampler._TABLE_SIZE) == (bracelets_total <= sampler._TABLE_SIZE) == (n <= 6)


@pytest.mark.parametrize("n", range(3, 7))
def test_each_table_entry_is_one_decoder_call_without_a_generator(monkeypatch, n):
    # A table is its decoder applied to every value of the draw, with no
    # generator, so the call that builds it reads one raw word: the index.
    seen = {"_word_of_draw": [], "_bracelet_of_draw": []}
    for name, log in seen.items():

        def recording(*args, original=getattr(sampler, name), log=log):
            log.append(args)
            return original(*args)

        monkeypatch.setattr(sampler, name, recording)
    monkeypatch.setattr(sampler, "_WORD_TABLES", {})
    monkeypatch.setattr(sampler, "_BRACELET_TABLES", {})
    rng = RawWords([2**64 - 1] * 2)  # accepted on any range below 2^63: the last value
    word = sampler.sample_uniform_word(n, rng)
    assert rng.drawn == 1
    assert seen["_word_of_draw"] == [(n, x) for x in range(enumeration.count_words(n))]
    assert word == sampler._WORD_TABLES[n][-1]
    bracelet = sampler.sample_uniform_bracelet(n, rng)
    assert rng.drawn == 2
    total = 4 * n * enumeration.count_bracelets(n)
    assert seen["_bracelet_of_draw"] == [(n, t, None) for t in range(total)]
    assert bracelet == sampler._BRACELET_TABLES[n][-1]


SAMPLERS = [
    (sampler.sample_uniform_word, sampler.MAX_WORD_N),
    (sampler.sample_uniform_bracelet, words.MAX_BRACELET_N),
]


class TestTablePath:
    """A cached table is found by one lookup of an exact int n; every other input takes the checks."""

    @staticmethod
    def tables(monkeypatch, cached: bool) -> None:
        """Start with no table built, then build those of n = 3..6 if ``cached``."""
        monkeypatch.setattr(sampler, "_WORD_TABLES", {})
        monkeypatch.setattr(sampler, "_BRACELET_TABLES", {})
        if cached:
            for n in range(3, 7):
                sampler.sample_uniform_word(n, np.random.default_rng(n))
                sampler.sample_uniform_bracelet(n, np.random.default_rng(n))
            assert sorted(sampler._WORD_TABLES) == sorted(sampler._BRACELET_TABLES) == [3, 4, 5, 6]

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize(
        "n, message",
        [
            (3.0, "need n to be an integer, got 3.0"),
            (True, "need n to be an integer, got True"),
            (np.int64(3), "need n to be an integer, got"),
            (2, "need 3 <= n <= {most}, got 2"),
            ("most + 1", "need 3 <= n <= {most}, got {most_1}"),
        ],
        ids=["float", "bool", "int64", "below", "above"],
    )
    @pytest.mark.parametrize("sample, most", SAMPLERS)
    def test_n_rejected_before_any_draw(self, monkeypatch, sample, most, n, message, cached):
        self.tables(monkeypatch, cached)
        n = most + 1 if n == "most + 1" else n
        rng = RawWords([])
        with pytest.raises(ValueError, match=message.format(most=most, most_1=most + 1)):
            sample(n, rng)
        assert rng.drawn == 0

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("sample, most", SAMPLERS)
    def test_mt19937_is_rejected_on_a_cached_table(self, monkeypatch, sample, most, n):
        self.tables(monkeypatch, cached=True)
        bits = np.random.MT19937(5)
        with pytest.raises(ValueError, match="MT19937"):
            sample(n, np.random.Generator(bits))
        assert bits.random_raw() == np.random.MT19937(5).random_raw()

    @pytest.mark.parametrize("n", range(3, 7))
    @pytest.mark.parametrize("sample, most", SAMPLERS)
    def test_cached_table_reads_the_raw_words_of_the_first_call(self, monkeypatch, sample, most, n):
        # The call that builds the table and the calls that find it draw alike.
        self.tables(monkeypatch, cached=False)
        first, later = batch_rng(n, 2), batch_rng(n, 2)
        assert [sample(n, first) for _ in range(50)] == [sample(n, later) for _ in range(50)]
        assert first.bit_generator.random_raw() == later.bit_generator.random_raw()


BATCH_SAMPLERS = pytest.mark.parametrize(
    "batch, scalar",
    [
        (sampler.sample_uniform_words, sampler.sample_uniform_word),
        (sampler.sample_uniform_bracelets, sampler.sample_uniform_bracelet),
    ],
    ids=["words", "bracelets"],
)


def lemire_words(high: int) -> tuple[list[int], list[int]]:
    """Raw words that a draw on [0, high) accepts and rejects, one per m < high.

    r = ceil(m·2^64 / high) has r·high mod 2^64 = (-m·2^64) mod high, and it
    is rejected while that is below 2^64 mod high.
    """
    threshold = 2**64 % high
    accepted, rejected = [], []
    for m in range(high):
        r = -(-(m << 64) // high)
        (rejected if r * high - (m << 64) < threshold else accepted).append(r)
    return accepted, rejected


def generator_state(rng) -> dict:
    """The bit generator's state, with its arrays as lists so that states compare with ==."""

    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


def table_size(batch, n: int) -> int:
    """Values of the one draw of the samplers at n <= 6: the length of their table."""
    return enumeration.count_words(n) if batch is sampler.sample_uniform_words else 4 * n * enumeration.count_bracelets(n)


class TestBatchSamplers:
    """The batch samplers return the scalar calls' values and leave the generator as they do."""

    @pytest.mark.parametrize("size", [0, 1, 7, 3000])
    @pytest.mark.parametrize("n", range(3, 9))
    @BATCH_SAMPLERS
    def test_stream_of_the_scalar_calls(self, batch, scalar, n, size):
        ours, theirs = batch_rng(n, 40 + size), batch_rng(n, 40 + size)
        assert batch(n, size, ours) == [scalar(n, theirs) for _ in range(size)]
        assert generator_state(ours) == generator_state(theirs)
        assert ours.bit_generator.random_raw(4).tolist() == theirs.bit_generator.random_raw(4).tolist()

    @pytest.mark.parametrize("n", range(3, 7))
    @BATCH_SAMPLERS
    def test_rejections_within_and_across_rounds(self, monkeypatch, batch, scalar, n):
        # Rounds of at most 6 words: the first reads 6 and keeps 3, ending
        # on a rejection; the second reads the 3 still missing, starting
        # with one, and keeps 2; the third reads 1, the accepted word whose
        # low part is exactly 2^64 mod high (m = high - 1).
        accepted, rejected = lemire_words(table_size(batch, n))
        assert rejected, "no rejection on this range"
        monkeypatch.setattr(sampler, "_RAW_ROUND", 6)
        a = accepted[:: max(1, len(accepted) // 5)][:5] + accepted[-1:]
        script = [a[0], rejected[0], a[1], rejected[-1], a[2], rejected[0], rejected[-1], a[3], a[4], a[5]]
        ours, theirs = RawWords(script), RawWords(script)
        assert batch(n, 6, ours) == [scalar(n, theirs) for _ in range(6)]
        assert ours.rounds == [6, 3, 1] and ours.drawn == theirs.drawn == 10

    @BATCH_SAMPLERS
    def test_rounds_are_bounded(self, monkeypatch, batch, scalar):
        monkeypatch.setattr(sampler, "_RAW_ROUND", 4)
        rng = RawWords([2**64 - 1] * 10)
        assert len(batch(4, 10, rng)) == 10
        assert rng.rounds == [4, 4, 2]

    @BATCH_SAMPLERS
    def test_size_checked_before_any_draw(self, batch, scalar):
        most = sampler.MAX_SAMPLE_LETTERS // 4
        for size, message in [
            (-1, f"need 0 <= size <= {most}, got -1"),
            (most + 1, f"need 0 <= size <= {most}, got {most + 1}"),
            (2.0, "need size to be an integer, got 2.0"),
        ]:
            rng = RawWords([])
            with pytest.raises(ValueError) as raised:
                batch(4, size, rng)
            assert str(raised.value) == message and rng.drawn == 0

    @pytest.mark.parametrize(
        "batch, n", [(sampler.sample_uniform_words, sampler.MAX_WORD_N), (sampler.sample_uniform_bracelets, words.MAX_BRACELET_N)]
    )
    def test_letters_bound_the_calls_above_the_table_path(self, monkeypatch, batch, n):
        # size * n <= 2^22 bounds the scalar calls, whose cost grows with n
        def no_calls(*args):
            raise AssertionError("made a scalar call before checking size")

        monkeypatch.setattr(sampler, "sample_uniform_word", no_calls)
        monkeypatch.setattr(sampler, "sample_uniform_bracelet", no_calls)
        most = sampler.MAX_SAMPLE_LETTERS // n
        for size in (most + 1, 2**22):
            rng = RawWords([])
            with pytest.raises(ValueError) as raised:
                batch(n, size, rng)
            assert str(raised.value) == f"need 0 <= size <= {most}, got {size}" and rng.drawn == 0

    @pytest.mark.parametrize("n", [4, 8])
    @BATCH_SAMPLERS
    def test_mt19937_is_rejected_before_any_draw(self, batch, scalar, n):
        bits = np.random.MT19937(5)
        with pytest.raises(ValueError) as raised:
            batch(n, 3, np.random.Generator(bits))
        with pytest.raises(ValueError) as scalar_raised:
            scalar(n, np.random.Generator(np.random.MT19937(5)))
        assert str(raised.value) == str(scalar_raised.value)
        assert bits.random_raw() == np.random.MT19937(5).random_raw()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _float_hex(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _float_hex(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_float_hex(v) for v in value]
    return value


# sha256 of 2000 outputs from one generator per case.  Re-recorded when the
# samplers began to draw from raw 64-bit words (sampler._uniform_below): the
# draws on a range of at most 2^32, and the bracelet draw at n = 40 (above
# 2^63), changed, not their law.  Words at n = 32 (one draw above 2^32, the
# draw of Generator.integers) and bracelets at n = 3 (one class) kept theirs.
PINNED_WORDS = {
    3: "d3b2a725f39a5f4042c3c74df9268b6f61edda9accbe86b46934f473a82e1c49",
    4: "60332c9fd359606504c88f67e74bf6a007bb7c279fea6fc165d0ed6c28197831",
    5: "930eaa2ffe7454dc3bbcd7389c1c1367f323339b7e160dae763674de1e343972",
    6: "df28dc1f36958631811bde6cc7d5adbf3d549472223a28ee2a69ec7af35b0393",
    7: "0ac4b6c2c60cfde5b2e61252fd0c7bf33813367739db7adc1b6b0689e70163aa",
    8: "a6b84c3268669266e480812696790f161f235404b09fe848a7dc3b2595e72d36",
    32: "0eb0b0d71ab55be74f4333a2d697ae8e5f6ae14fbc2835b6b3575c4f699c646a",
    41: "d94ae7508e772f2a0e86c5980a790d854afcc8654e5402154dd09110270b1397",
}
PINNED_BRACELETS = {
    3: "fc50a0855a34fc746d09b9b86e8df7439f9a1b6c3c01aa6616b0354bffb529f4",
    4: "9c072d4e1beb8dd27accb3d0eddd02b2dc7bf87eadf471daa8d966b6e67a768c",
    5: "4562e6d89c99ceb604e5329f85595d7b2348554b3d3f3b0f00fb9397287c7899",
    6: "42a224b217beeefaad5123837d922505d8b7833c5dbca5decd5f663f1d913b96",
    7: "740c048af61f43846864c8bb813a285bf9a27633331ab80666ff4abd831407ea",
    8: "a78a6bb57dbdad209027af32eff5f111980fd2e4e6968f1e16a35625846dbb13",
    40: "2a386f4c2c313cf195455ea41b38294b4fc0e381351bd7376e6b3048dc0cbb58",
}
# (n, trials, grid, seed): a cut of 0 and a repeated cut at n = 7, an
# unsorted grid with a repeat, rounds of 419 rows at n = 10^4, and two
# batches at n = 7.  Re-recorded when the CLT moved onto the batch engine:
# later rounds of a batch draw from its one stream, and the moments come
# from exact integer sums; the law of the kept rows is unchanged.  The
# cases at n = 7 and n = 101 were re-recorded when rounds were sized from
# the keep rate: their rounds draw other numbers of rows (more at n = 7,
# whose keep rate is 0.44), so later draws moved, not their law.  All four
# were re-recorded when a row began to draw a head block last, under the
# parity its tail leaves, in place of a phase bit after an unconditioned
# string: each row draws other values and far fewer rows are rejected,
# while the law of the kept rows is the same (checked exactly against
# every draw at small n).
PINNED_CLT = {
    (7, 500, (0.1, 0.5, 0.5, 1.0), 3): "be8f10c44e726064e676cf4b16bde07df787deb90bd1fb189e370bea16f117e4",
    (101, 400, (0.77, 0.25, 1.0, 0.25, 0.5), 9): "754d53e13cc12b6b2acb0854d58c6cc3933c3a973714f42c7dace454cdd49aad",
    (10_000, 1000, (0.3, 0.6, 1.0), 2): "9577ecc1d28f50d8f26a9b04f51e5b18365cfc2299644a5910a1b54e86421e08",
    (7, random_points.BATCH_SIZE + 500, (0.1, 0.5, 0.5, 1.0), 3): "043e194b21c77c2cb53f796c7c3d2c0d908e72149ef3266557646cd339a7ea0a",
}

# sha256 of the tables of n = 3..6, recorded while the tables still had
# their own builders beside the decoding path; the tables that apply the
# decoder to every draw must equal them.  PINNED_WORDS and PINNED_BRACELETS
# pin the decoding path above n = 6.
PINNED_TABLES = {
    ("words", 3): "9d5c419a8181d0b8754456f81a64f9c7c8fae6b8324dee7612c29a1da88ec5e3",
    ("bracelets", 3): "db04359ee6c188373ec8601dc94d7526ad28b1aac9ebac119cfa9ec418da9837",
    ("words", 4): "cd572e38496d1dd88487482a4a8e25c4dd61cb48af68e685b2fd72ac1b72bcb7",
    ("bracelets", 4): "21f30b6e70bf76c5c302637ea52ab16e3f38cde53696f8903fbc0ec1d07473af",
    ("words", 5): "30a96a44c0db48e2cfc2007ed911118cc215af6a0ba564708f40965690da4b63",
    ("bracelets", 5): "82ec88ffcdece442aeadd42ba2cd74c919811143c4dd827200e1176cd168eaf1",
    ("words", 6): "ff8dd7a303903ddf1d6b7e6277e0ed83e704012652df84db4afde370b24f44ea",
    ("bracelets", 6): "07c5a142cb71c04619fe1385f9fec1a8036c4a3c79112b6d67e771adf18a46ce",
}


class TestPinnedStreams:
    @pytest.mark.parametrize("n", sorted(PINNED_WORDS))
    def test_words(self, n):
        rng = batch_rng(n, 0)
        out = (words.word_to_string(sampler.sample_uniform_word(n, rng)) for _ in range(2000))
        assert _sha256("\n".join(out)) == PINNED_WORDS[n]

    @pytest.mark.parametrize("n", sorted(PINNED_BRACELETS))
    def test_bracelets(self, n):
        rng = batch_rng(n, 1)
        out = (str(sampler.sample_uniform_bracelet(n, rng)) for _ in range(2000))
        assert _sha256("\n".join(out)) == PINNED_BRACELETS[n]

    @pytest.mark.parametrize("kind, n", sorted(PINNED_TABLES))
    def test_tables(self, monkeypatch, kind, n):
        monkeypatch.setattr(sampler, "_WORD_TABLES", {})
        monkeypatch.setattr(sampler, "_BRACELET_TABLES", {})
        if kind == "words":
            sampler.sample_uniform_word(n, batch_rng(n, 7))
            out = map(words.word_to_string, sampler._WORD_TABLES[n])
        else:
            sampler.sample_uniform_bracelet(n, batch_rng(n, 7))
            out = map(str, sampler._BRACELET_TABLES[n])
        assert _sha256("\n".join(out)) == PINNED_TABLES[kind, n]

    @pytest.mark.parametrize("case", sorted(PINNED_CLT))
    def test_clt_report(self, case):
        report = sampler.lln_clt_experiment(*case)
        payload = json.dumps(_float_hex(dataclasses.asdict(report)), sort_keys=True)
        assert _sha256(payload) == PINNED_CLT[case]


class TestWalkBijection:
    def test_worked_example(self):
        walk = sampler.word_to_walk(("11", "00", "10"))
        assert walk.steps == (0, 0, 1)
        assert walk.s == (0, 0, 0, 1)
        assert walk.k == (0, 1, 2, 2)
        assert sampler.walk_to_word(walk, True) == ("11", "00", "10")

    def test_rejects_bad_zero_counts(self):
        with pytest.raises(ValueError):
            sampler.walk_to_word(sampler.walk_from_steps((1, -1, 1)))
        with pytest.raises(ValueError):
            sampler.walk_to_word(sampler.walk_from_steps((0, 1, -1)))

    @pytest.mark.parametrize("steps", [(), (0,), (1,), (0, 0), (1, -1)])
    def test_rejects_walks_shorter_than_three_steps(self, steps):
        # (0, 0) has two zero steps, but a folded word needs n >= 3 letters,
        # as word_to_walk and unfold require.
        with pytest.raises(ValueError, match="need at least 3"):
            sampler.walk_to_word(sampler.walk_from_steps(steps))

    def test_zero_count_is_read_from_the_steps(self):
        # k claims two zero steps, but the steps have none: decoding them
        # would give the unrealizable ('10', '10', '10').
        walk = sampler.LatticeWalk(steps=(1, 1, 1), s=(0, 1, 2, 3), k=(0, 0, 0, 2))
        with pytest.raises(ValueError, match="0 zero steps"):
            sampler.walk_to_word(walk)

    def test_truthy_flag_is_normalised(self):
        walk = sampler.walk_from_steps((0, 1, 0, 0, -1, 0))
        assert sampler.walk_to_word(walk, 2) == sampler.walk_to_word(walk, True) == (
            "11", "10", "00", "11", "01", "00",
        )

    def test_step_validation(self):
        with pytest.raises(ValueError):
            sampler.walk_from_steps((0, 2, 1))

    @pytest.mark.parametrize("steps", [(0.5, 1.9, -1.2), (0, math.inf, 0), (0, math.nan, 1), (0, "1", -1)])
    def test_steps_must_be_integers(self, steps):
        # int() used to truncate (0.5, 1.9, -1.2) to the walk (0, 1, -1)
        # and raise OverflowError on inf.
        with pytest.raises(ValueError, match="walk steps must be integers"):
            sampler.walk_from_steps(steps)

    def test_float_walk_is_not_decoded(self):
        # decoded after truncation, these steps gave a folded word
        walk = sampler.LatticeWalk(steps=(0.4, 0.7, 1, -1), s=(0, 0, 0, 1, 0), k=(0, 1, 2, 2, 2))
        with pytest.raises(ValueError, match="walk steps must be integers, got 0.4"):
            sampler.walk_to_word(walk)

    def test_integral_steps_of_other_types_are_ints(self):
        walk = sampler.walk_from_steps((np.int64(1), True, 0.0, -1))
        assert walk.steps == (1, 1, 0, -1) and all(type(x) is int for x in walk.steps)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_bijection_with_walks_plus(self, n):
        folded_plus = set()
        for w in enumeration.enumerate_words(n):
            f = words.fold(w)
            balanced = [a for a in f if a in ("00", "11")]
            if balanced[0] == "11":
                folded_plus.add(f)
        walks = enumerate_walks_plus(n)
        assert len(folded_plus) == len(walks) == enumeration.count_words(n) // 2

        images = {sampler.word_to_walk(f).steps for f in folded_plus}
        assert images == walks
        for f in folded_plus:
            assert sampler.walk_to_word(sampler.word_to_walk(f), True) == f

    def test_walk_state_formulas(self):
        # After i letters of a folded word whose first balanced letter is 11,
        # the walk state (S_i, K_i) = (a, p) gives the letter counts
        # #11 = (p + 1) // 2, #00 = p // 2, #10 = (i - p + a) // 2, #01 = (i - p - a) // 2.
        for n in (4, 5):
            for w in enumeration.enumerate_words(n):
                f = words.fold(w)
                balanced = [a for a in f if a in ("00", "11")]
                if balanced[0] != "11":
                    continue
                walk = sampler.word_to_walk(f)
                for i in range(n + 1):
                    a, p = walk.s[i], walk.k[i]
                    predicted = ((p + 1) // 2, p // 2, (i - p + a) // 2, (i - p - a) // 2)
                    assert predicted == tuple(f[:i].count(x) for x in ("11", "00", "10", "01"))


class TestPrefixConsistency:
    def test_signature_and_folded_counts_agree(self):
        for w in enumeration.enumerate_words(5):
            f = words.fold(w)
            sig = words.signature(w)
            for x in (0, 2, 3.7, 5):
                f0, f1, f2 = words.prefix_counts(sig, x)
                s = {a: f[: math.floor(x)].count(a) for a in words.FOLDED_ALPHABET}
                assert f0 + f2 == s["00"] + s["11"]
                assert f0 == s["00"] and f2 == s["11"]
                assert f1 == s["10"] + s["01"]
                assert sum(s.values()) == math.floor(x)


class TestBinomialParity:
    def test_small_values(self):
        assert sampler.binomial_parity_check(1) == (Fraction(2, 3), Fraction(1, 3))
        assert sampler.binomial_parity_check(2) == (Fraction(5, 9), Fraction(4, 9))

    @pytest.mark.parametrize("n", [1, 5, 17, 40])
    def test_difference_identity(self, n):
        even, odd = sampler.binomial_parity_check(n)
        assert even - odd == Fraction(1, 3**n)
        assert even + odd == 1

    def test_n_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="need 1 <= n <= 2000, got 0"):
            sampler.binomial_parity_check(0)


class TestLetterCounts:
    B = sampler._COUNT_BLOCK

    def test_table_is_the_digit_counts(self):
        table = sampler._block_counts()
        assert len(table) == 3**self.B
        for x in range(3**self.B):
            digits = np.base_repr(x, 3)
            assert table[x] >> sampler._ONES_BITS == digits.count("2")
            assert table[x] & (1 << sampler._ONES_BITS) - 1 == digits.count("1")

    @pytest.mark.parametrize("length", [1, B - 1, B, B + 1, 3 * B + 7, 5 * B])
    def test_blocks_then_remainder(self, length):
        # One draw on [0, 3^B) per block, then one on [0, 3^r) for the r
        # letters left over; the counts are those of the drawn digits.
        rows = 40
        rng = CountingRng(np.random.default_rng(length))
        twos, ones = sampler._letter_counts(length, rows, rng)
        blocks, rest = divmod(length, self.B)
        assert rng.highs == [3**self.B] * (blocks > 0) + [3**rest] * (rest > 0)
        strings = [""] * rows
        for high, values in zip(rng.highs, rng.values):
            width = round(math.log(high, 3))
            for i, row in enumerate(np.reshape(values, (rows, -1))):
                strings[i] += "".join(np.base_repr(int(v), 3).zfill(width) for v in row)
        assert all(len(letters) == length for letters in strings)
        assert twos.tolist() == [letters.count("2") for letters in strings]
        assert ones.tolist() == [letters.count("1") for letters in strings]

    @pytest.mark.parametrize("length", [7, 23])
    def test_counts_follow_the_multinomial_law(self, length):
        # 7 letters are one remainder draw; 23 are two blocks and a remainder.
        rows = 200_000
        twos, ones = sampler._letter_counts(length, rows, np.random.default_rng(length))
        observed = Counter(zip(twos.tolist(), ones.tolist()))
        law = letter_count_law(length)
        assert sum(law.values()) == 1 and set(observed) <= set(law)
        cells = pool_cells([observed[k] for k in law], [rows * float(p) for p in law.values()])
        stat = sum((o - e) ** 2 / e for o, e in cells)
        assert sstats.chi2.sf(stat, df=len(cells) - 1) > 1e-3


def round_rows(n: int, missing: int, head: int = 10) -> int:
    """Rows of a CLT round with ``missing`` trials to keep, from the exact keep rate, rounded.

    A row draws its tail of n - ``head`` letters, then x uniform on [0, 2H)
    with rank x >> 1, and is kept when the rank is below the number of head
    strings that make the S count even and nonzero.  H is the largest of
    those numbers over the tails that can occur.
    """
    tail = n - head
    odd_tail = Fraction((3**tail - 1) // 2, 3**tail)
    no_s_tail = Fraction(2**tail, 3**tail)
    law = {"even with S": no_s_tail, "odd": odd_tail, "even": 1 - odd_tail - no_s_tail}
    strings = {"even with S": (3**head + 1) // 2 - 2**head, "odd": (3**head - 1) // 2, "even": (3**head + 1) // 2}
    high = max(strings[r] for r, q in law.items() if q)
    p = float(sum(q * Fraction(strings[r], high) for r, q in law.items()))
    return min((1 << 22) // n, math.ceil((missing + 2 * math.sqrt(missing * (1 - p))) / p) + 8)


def head_strings(size: int) -> dict[str, list[str]]:
    """The strings of ``size`` letters over {0, 1, 2} that meet each head requirement, in increasing base-3 value."""
    strings = [np.base_repr(x, 3).zfill(size) for x in range(3**size)]
    return {
        "even with S": [a for a in strings if a.count("2") % 2 == 0 and "2" in a],
        "even": [a for a in strings if a.count("2") % 2 == 0],
        "odd": [a for a in strings if a.count("2") % 2],
    }


def requirements(specials: np.ndarray) -> list[str]:
    """The requirement that each tail's S count leaves the head."""
    return ["odd" if s % 2 else "even" if s else "even with S" for s in specials.tolist()]


class TestCltExperiment:
    def test_moments_and_correlation(self):
        report = sampler.lln_clt_experiment(2000, 2000, (0.5, 1.0), seed=5)
        means = report.letter_means
        assert abs(means["s00"] - 1 / 6) < 0.01
        assert abs(means["s11"] - 1 / 6) < 0.01
        assert abs(means["s10"] - 1 / 3) < 0.015
        assert abs(means["s01"] - 1 / 3) < 0.015
        for c, v_f0, v_s10 in zip(report.c_grid, report.var_f0, report.var_s10):
            assert abs(v_f0 - 2 / 9 * c) < 0.25 * 2 / 9 * c
            assert abs(v_s10 - 8 / 9 * c) < 0.25 * 8 / 9 * c
        assert report.corr_f0_f1[-1] < -0.999  # exact anti-correlation at c=1

    def test_deterministic(self):
        a = sampler.lln_clt_experiment(500, 300, (1.0,), seed=6)
        b = sampler.lln_clt_experiment(500, 300, (1.0,), seed=6)
        assert a == b

    @staticmethod
    def counting_streams(monkeypatch) -> list:
        """Record the stream of every batch as a ``CountingRng``, in request order."""
        rngs = []

        def counting(seed, index):
            rngs.append(CountingRng(batch_rng(seed, index)))
            return rngs[-1]

        monkeypatch.setattr(random_points, "batch_rng", counting)
        return rngs

    def test_valid_draw_counts_by_brute_force(self):
        # the requirement each tail leaves, read letter by letter
        for head in range(1, 4):
            for tail in range(4):
                valid = 0
                for t in product(range(3), repeat=tail):
                    s = t.count(2)
                    for h in product(range(3), repeat=head):
                        hs = h.count(2)
                        valid += hs % 2 == 1 if s % 2 else hs % 2 == 0 and (hs > 0 or s > 0)
                assert clt_valid_draws(head, tail) == valid, (head, tail)

    def test_keep_rate_counts_half_the_realizable_words(self):
        # A valid (tail, head) is a string of head + tail letters with an
        # even nonzero S count, so the three-term sum is half the
        # realizable words of that length, which _clt_sums reads p from.
        for head in range(1, sampler._COUNT_BLOCK + 1):
            for tail in range(101):
                assert clt_valid_draws(head, tail) == enumeration._word_count(head + tail) // 2, (head, tail)

    def test_draw_layout(self, monkeypatch):
        # bounds 0, 12, 25: the head block is the first 10 letters of the
        # longer segment, so the tail is 12 and 3 letters.  Per tail segment
        # its blocks, then its remainder; then the head draw on [0, 2H), H
        # the count of 10-letter strings with an even number of S.  One
        # stream per batch of at most 2 trials, whose first round has
        # round_rows(25, size) rows for a batch of size trials.
        rngs = self.counting_streams(monkeypatch)
        monkeypatch.setattr(random_points, "BATCH_SIZE", 2)
        sampler.lln_clt_experiment(25, 3, (0.5, 1.0), seed=8)
        assert len(rngs) == 2
        for rng, size in zip(rngs, (2, 1)):
            rows = round_rows(25, size)
            assert rng.highs == [3**10, 3**2, 3**3, 3**10 + 1]
            assert [v.shape for v in rng.values] == [(rows, 1), (rows,), (rows,), (rows,)]

    @pytest.mark.parametrize(
        "n, grid",
        [(5, (1.0,)), (5, (0.1, 0.4, 1.0)), (6, (0.5, 0.5, 1.0)), (7, (0.3, 0.6, 1.0)), (9, (0.34, 0.67, 1.0))],
    )
    def test_every_draw_gives_each_realizable_profile_once(self, n, grid):
        # Every tail draw with every head draw, for every head block that
        # fits a segment (not only the one _clt_sums takes): the kept rows
        # are the realizable (string, phase) pairs, each exactly once, as
        # their prefix counts at the bounds show.
        bounds = sorted({0, n, *(math.floor(c * n) for c in grid)})
        law = realizable_profiles(n, bounds)
        for segment, length in enumerate(np.diff(bounds).tolist()):
            for head in range(1, min(length, sampler._COUNT_BLOCK) + 1):
                lengths = np.diff(bounds).tolist()
                lengths[segment] -= head
                probe = CountingRng(np.random.default_rng(0))
                sampler._clt_rows(probe, 1, lengths, segment, head)
                rng = EveryDraw(zip(probe.highs, (v.size for v in probe.values)))
                v = sampler._clt_rows(rng, rng.rows, lengths, segment, head)
                assert not rng.calls
                profiles = v.transpose(2, 1, 0).reshape(v.shape[2], -1).tolist()
                assert Counter(map(tuple, profiles)) == law

    @staticmethod
    def counting_rounds(monkeypatch) -> list:
        """Record the (length, rows) of every ``_letter_counts`` call."""
        calls = []
        original = sampler._letter_counts

        def counting(length, size, rng):
            calls.append((length, size))
            return original(length, size, rng)

        monkeypatch.setattr(sampler, "_letter_counts", counting)
        return calls

    def test_one_round_per_batch_at_small_n(self, monkeypatch):
        # 13 batches of n = 10 letters in 4 segments (bounds 0, 2, 5, 7, 10):
        # the head block is the 3 letters of the second segment, which leaves
        # it no tail, and rounds sized from the keep rate keep every batch's
        # trials at once.
        calls = self.counting_rounds(monkeypatch)
        sampler.lln_clt_experiment(10, 200_000)
        sizes = [random_points.BATCH_SIZE] * 12 + [200_000 % random_points.BATCH_SIZE]
        assert calls == [(length, round_rows(10, size, head=3)) for size in sizes for length in (2, 0, 2, 3)]

    def test_first_round_of_100_trials_at_n_10000(self, monkeypatch):
        # A row is rejected with probability 1.7e-5 here: 100 trials need
        # 101 + 8 rows, against 229 + 8 when every row with an odd or zero
        # S count was rejected.  Bounds 0, 2500, 5000, 7500, 10^4; the
        # head block is in the first segment.
        calls = self.counting_rounds(monkeypatch)
        sampler.lln_clt_experiment(10_000, 100)
        assert round_rows(10_000, 100) == 109
        assert calls == [(2490, 109), (2500, 109), (2500, 109), (2500, 109)]

    def test_rounds_draw_until_the_batch_has_kept_its_trials(self, monkeypatch):
        # rounds of at most 2^22 // n = 41 rows at n = 10^5, so 100 trials
        # take several; a round with few trials missing draws fewer rows
        rngs = self.counting_streams(monkeypatch)
        n, trials = 100_000, 100
        sampler.lln_clt_experiment(n, trials, (0.5, 1.0), seed=9)
        (rng,) = rngs
        # tail segments of 4999 and 5000 blocks (the head block takes the
        # first 10 letters), then the head draw
        per_round = [3**10, 3**10, 3**10 + 1]
        rounds = len(rng.highs) // len(per_round)
        assert rng.highs == per_round * rounds and rounds >= 3
        twos = sampler._block_counts() >> sampler._ONES_BITS
        strings = {r: len(a) for r, a in head_strings(10).items()}
        kept = []
        for r in range(rounds):
            first, second, x = rng.values[3 * r : 3 * r + 3]
            rows = round_rows(n, trials - sum(kept))
            assert (first.shape, second.shape, x.shape) == ((rows, 4999), (rows, 5000), (rows,))
            s = twos[first].sum(axis=1) + twos[second].sum(axis=1)
            kept.append(sum(rank < strings[need] for rank, need in zip((x >> 1).tolist(), requirements(s))))
        assert sum(kept[:-1]) < trials <= sum(kept)
        assert len(rng.values[-1]) < (1 << 22) // n  # the last round was sized from the keep rate

    def test_trial_j_is_the_jth_kept_row_of_its_batch(self, monkeypatch):
        # the moments from exact sums equal numpy's on per-trial arrays rebuilt
        # from the batch streams: batches of 300, 300 and 100 kept rows
        # The head block is the first 10 letters of the segment 10..40.
        monkeypatch.setattr(random_points, "BATCH_SIZE", 300)
        n, trials, grid, seed = 40, 700, (0.25, 1.0), 12
        report = sampler.lln_clt_experiment(n, trials, grid, seed)
        heads = head_strings(10)
        k, ones, phase = [], [], []
        for b, size in enumerate((300, 300, 100)):
            rng, kept = batch_rng(seed, b), 0
            while kept < size:
                rows = round_rows(n, size - kept)
                first, rest = sampler._letter_counts(10, rows, rng), sampler._letter_counts(20, rows, rng)
                x = rng.integers(0, 2 * len(heads["even"]), size=rows).tolist()
                for i, need in enumerate(requirements(first[0] + rest[0])):
                    if kept == size or x[i] >> 1 >= len(heads[need]):
                        continue
                    letters = heads[need][x[i] >> 1]
                    k.append([first[0][i], first[0][i] + rest[0][i] + letters.count("2")])
                    ones.append([first[1][i], first[1][i] + rest[1][i] + letters.count("1")])
                    phase.append(x[i] & 1)
                    kept += 1
        k, ones, phase = np.array(k), np.array(ones), np.array(phase)[:, None]
        f2 = (k + phase) // 2
        f0 = k - f2
        f1 = np.array([10, 40]) - k
        fluct = 2 / math.sqrt(n)
        approx = lambda values: pytest.approx(tuple(values), rel=1e-12)
        assert report.var_f0 == approx(np.var(fluct * f0, axis=0, ddof=1))
        assert report.var_f2 == approx(np.var(fluct * f2, axis=0, ddof=1))
        assert report.var_s10 == approx(np.var(fluct * ones, axis=0, ddof=1))
        assert report.var_s01 == approx(np.var(fluct * (f1 - ones), axis=0, ddof=1))
        corr = [np.corrcoef(f0[:, j], f1[:, j])[0, 1] for j in (0, 1)]
        assert report.corr_f0_f1 == approx(corr)
        assert report.letter_means == pytest.approx(
            {
                "s00": k[:, -1].mean() / (2 * n),
                "s11": k[:, -1].mean() / (2 * n),
                "s10": ones[:, -1].mean() / n,
                "s01": (f1[:, -1] - ones[:, -1]).mean() / n,
            },
            rel=1e-12,
        )

    def test_empty_prefix_correlation_is_nan_without_warning(self):
        # c = 0.1 at n = 7 is a cut of 0: F0 and F1 are 0 on every row.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = sampler.lln_clt_experiment(7, 200, (0.1, 1.0), seed=3)
        assert math.isnan(report.corr_f0_f1[0])
        assert report.var_f0[0] == report.var_s10[0] == 0
        assert report.corr_f0_f1[1] < -0.999

    @pytest.mark.parametrize(
        "grid, message",
        [
            ((1.0, 0.0), f"{C_RULE} 0.0 at position 1"),
            ((0.5, math.nan, Fraction(5, 4)), f"{C_RULE} nan at position 1"),
            ((10**400,), f"{C_RULE} a value of type int at position 0"),
            ((10**5000,), f"{C_RULE} a value of type int at position 0"),
            (("0.5",), f"{C_RULE} '0.5' at position 0"),
            ([[0.5]], f"{C_RULE} [0.5] at position 0"),
            (0.5, f"{C_RULE} 0.5"),
            ([0.5] * (geometry.MAX_T_GRID + 1), f"{C_RULE} {geometry.MAX_T_GRID + 1} values"),
        ],
        ids=["zero", "out-of-range", "huge-int", "beyond-text", "string-item", "nested", "scalar", "too-long"],
    )
    def test_grid_validation(self, monkeypatch, grid, message):
        # Checked before any draw, by the rule of a t-grid but on (0, 1]:
        # "0.5" was read as 0.5, [[0.5]] raised TypeError, and each grid
        # value costs a segment of draws per round.
        def no_draws(*args):
            raise AssertionError("drew before checking the grid")

        monkeypatch.setattr(random_points, "batch_rng", no_draws)
        with pytest.raises(ValueError) as err:
            sampler.lln_clt_experiment(100, 10, grid, seed=7)
        assert str(err.value) == message

    def test_grid_of_any_reals_is_read_as_floats(self):
        report = sampler.lln_clt_experiment(100, 10, (Fraction(1, 2), np.float64(1.0), True), seed=7)
        assert report.c_grid == (0.5, 1.0, 1.0) and all(type(c) is float for c in report.c_grid)

    @pytest.mark.parametrize("trials", [-1, 0, 1])
    def test_trials_bounded_before_any_draw(self, monkeypatch, trials):
        # A sample variance needs two trials; fewer gave NaN moments.
        def no_draws(*args):
            raise AssertionError("drew before checking trials")

        monkeypatch.setattr(random_points, "batch_rng", no_draws)
        with pytest.raises(ValueError, match=f"need 2 <= trials <= {random_points.MAX_TRIALS}, got {trials}"):
            sampler.lln_clt_experiment(100, trials)

    @pytest.mark.parametrize("trials", [10.5, 100.0, True, np.int64(100)])
    def test_non_integer_trials_rejected_before_any_draw(self, monkeypatch, trials):
        def no_draws(*args):
            raise AssertionError("drew before checking trials")

        monkeypatch.setattr(random_points, "batch_rng", no_draws)
        with pytest.raises(ValueError, match="need trials to be an integer"):
            sampler.lln_clt_experiment(100, trials)

    @pytest.mark.parametrize("n", [-1, 2, sampler.MAX_WORD_N + 1])
    def test_n_bounded_before_any_draw(self, monkeypatch, n):
        def no_draws(*args):
            raise AssertionError("drew before checking n")

        monkeypatch.setattr(random_points, "batch_rng", no_draws)
        with pytest.raises(ValueError, match="3 <= n <="):
            sampler.lln_clt_experiment(n, 10)
