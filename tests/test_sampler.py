import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sstats

from bisector_words import enumeration, sampler, words
from oracles import (
    bracelet_class_tuples,
    count_bracelets_by_canonical,
    enumerate_walks_plus,
    fixed_words,
    is_interlacing_literal,
)


def chi_square_p(counts: dict, cells: int) -> float:
    observed = np.array(list(counts.values()) + [0] * (cells - len(counts)), dtype=float)
    return float(sstats.chisquare(observed).pvalue)


class CountingRng:
    """A generator that records the upper bound of every ``integers`` call."""

    def __init__(self, rng):
        self.rng = rng
        self.highs = []

    def integers(self, low, high, *args, **kwargs):
        self.highs.append(high)
        return self.rng.integers(low, high, *args, **kwargs)


class ScriptedRng:
    """A generator whose ``integers`` calls return scripted values, recording each bound."""

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


def attempt_outcomes(n: int, block: int) -> list:
    """Every draw sequence of one word-sampler attempt: (probability, word or None if rejected).

    An attempt draws the tail blocks of ``block`` letters, then the head.
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
    def test_one_draw_per_block_of_39_letters(self, n):
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
    def test_every_head_rank_decodes_a_distinct_word(self, n):
        total = enumeration.count_words(n)
        sampled = []
        for x in range(total):
            rng = ScriptedRng([x])
            sampled.append(sampler.sample_uniform_word(n, rng))
            assert rng.highs == [total]
        assert len(set(sampled)) == total
        assert set(sampled) == set(enumeration.enumerate_words(n))

    @pytest.mark.parametrize("block", [2, 3])
    @pytest.mark.parametrize("n", range(3, 8))
    def test_every_draw_sequence_with_small_blocks(self, monkeypatch, n, block):
        # With blocks of 2 or 3 letters, n <= 7 has tails, all three head
        # requirements and rejections; every valid word must come from
        # exactly one draw sequence, all equally likely.
        monkeypatch.setattr(sampler, "_BLOCK", block)
        outcomes = attempt_outcomes(n, block)
        assert sum(p for p, _ in outcomes) == 1
        accepted = [(p, w) for p, w in outcomes if w is not None]
        assert len({p for p, _ in accepted}) == 1
        sampled = [w for _, w in accepted]
        assert len(set(sampled)) == len(sampled)
        assert set(sampled) == set(enumeration.enumerate_words(n))
        if n > block:
            assert len(accepted) < len(outcomes)


class TestUniformBelow:
    @pytest.mark.parametrize("high", [1, 12, 2**63])
    def test_one_draw_up_to_2_to_the_63(self, high):
        rng = CountingRng(np.random.default_rng(high))
        assert 0 <= sampler._uniform_below(high, rng) < high
        assert rng.highs == [high]

    def test_blocks_of_63_bits_above(self):
        high = 3**50  # 80 bits
        rng = CountingRng(np.random.default_rng(50))
        assert 0 <= sampler._uniform_below(high, rng) < high
        attempts = len(rng.highs) // 2
        assert rng.highs == [2**63, 2**17] * attempts

    def test_rejects_and_assembles_high_bits_first(self):
        high = 2**64 + 3
        # 65 bits: a 63-bit block, then a 2-bit block; 2^64 + 3 itself is
        # rejected, 2^64 + 2 accepted.
        rng = ScriptedRng([2**62, 3, 2**62, 2])
        assert sampler._uniform_below(high, rng) == 2**64 + 2
        assert rng.highs == [2**63, 4, 2**63, 4]


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
    def test_every_draw_gives_each_class_4n_times(self, n):
        # One draw per bracelet below 2^63: every value of that draw, fed
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

    @pytest.mark.parametrize("n", [2, enumeration.MAX_COUNT_N + 1])
    def test_n_bounded_before_any_draw(self, n):
        rng = CountingRng(np.random.default_rng(0))
        with pytest.raises(ValueError, match="3 <= n <="):
            sampler.sample_uniform_bracelet(n, rng)
        assert rng.highs == []


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

    def test_step_validation(self):
        with pytest.raises(ValueError):
            sampler.walk_from_steps((0, 2, 1))

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
        assert sampler.counts_from_walk_state(3, 1, 2) == (1, 1, 1, 0)
        for n in (4, 5):
            for w in enumeration.enumerate_words(n):
                f = words.fold(w)
                balanced = [a for a in f if a in ("00", "11")]
                if balanced[0] != "11":
                    continue
                walk = sampler.word_to_walk(f)
                for i in range(n + 1):
                    counts = sampler.folded_prefix_counts(f, i)
                    predicted = sampler.counts_from_walk_state(i, walk.s[i], walk.k[i])
                    assert predicted == (counts["11"], counts["00"], counts["10"], counts["01"])


class TestPrefixConsistency:
    def test_signature_and_folded_counts_agree(self):
        for w in enumeration.enumerate_words(5):
            f = words.fold(w)
            sig = words.signature(w)
            for x in (0, 2, 3.7, 5):
                f0, f1, f2 = words.prefix_counts(sig, x)
                s = sampler.folded_prefix_counts(f, x)
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

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sampler.lln_clt_experiment(100, 10, (0.0, 1.0), seed=7)
