import dataclasses
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from bisector_words import geometry, random_points as rp, sampler, words
from bisector_words.geometry import PointConfig, occupancy_word, region_stats

from oracles import (
    bisector_rows_by_ints,
    count_non_interlacing,
    count_non_interlacing_by_row_spread,
    exp_below_erlangs_prob,
    exp_draw_by_copies,
    exp_model_rows_by_where,
    exp_positions_by_where,
    occupancy_word_by_fractions,
    pack_words_by_uint64_matmul,
    path_rows_by_grid_loop,
    region_rows_by_floats,
    region_values_by_floats,
    region_values_by_masked_sums,
    words_by_stable_argsort,
)


RUN4 = words.canonical_bracelet(words.run_word(4))


@pytest.fixture
def inline_pool(monkeypatch):
    """``ProcessPoolExecutor`` replaced by an in-process map; the list of each pool's max_workers."""
    started = []

    class InlineExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(rp, "ProcessPoolExecutor", InlineExecutor)
    return started


def order_sensitive_payload(n, rng, size):
    """Floats of magnitudes 1e-12 to 1e12, whose float sum depends on the order of addition."""
    return rng.random(4) * 10.0 ** rng.integers(-12, 13, 4)


def exp_config(sample):
    """The positions of an exponential-model sample on the unit circle, as a configuration."""
    pos = rp._exp_positions(np.array([sample.dots]), np.array([sample.colors[:-1]]))
    return PointConfig(tuple(sorted(pos[0].tolist())))


class TestClosedForms:
    def test_frozen_values(self):
        assert rp.closed_form("h2", 3) == 2
        assert rp.closed_form("h2", 4) == Fraction(20, 9)
        assert rp.closed_form("l0", 3) == Fraction(1, 9)
        assert rp.closed_form("l1", 3) == Fraction(5, 18)
        assert rp.closed_form("l2", 3) == Fraction(11, 18)
        assert rp.closed_form("le", 3) == Fraction(1, 4)
        assert [rp.closed_form("pbn", n) for n in (3, 4, 5, 6)] == [
            1,
            Fraction(1, 3),
            Fraction(5, 48),
            Fraction(1, 32),
        ]

    @pytest.mark.parametrize("n", range(3, 51))
    def test_lengths_partition_the_circle(self, n):
        total = sum(rp.closed_form(k, n) for k in ("l0", "l1", "l2"))
        assert total == 1
        assert rp.closed_form("le", n) == rp.closed_form("l0", n) + rp.closed_form("l1", n) / 2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            rp.closed_form("h1", 4)

    @pytest.mark.parametrize("name", ["h2", "l0", "l1", "l2", "le"])
    def test_float_targets_are_the_rounded_exact_values(self, name):
        for n in [*range(3, 2001), 10**6]:
            assert rp._float_target(name, n) == float(rp.closed_form(name, n)), n

    def test_one_trial_is_rejected_with_its_reason(self):
        with pytest.raises(ValueError, match=f"need 2 <= trials <= {rp.MAX_TRIALS}, got 1"):
            rp.estimate_region_stats(4, 1, 0)


class TestPhi:
    def test_n3_is_quarter_x(self):
        for x in (Fraction(1, 5), Fraction(1, 3), Fraction(2, 5)):
            assert rp.phi(x, 3) == x / 4
            assert rp.phi_series(x, 3) == x / 4

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("x", [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)])
    def test_closed_form_equals_series(self, x, n):
        assert rp.phi(x, n) == rp.phi_series(x, n)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_value_at_one_third(self, n):
        assert rp.phi(Fraction(1, 3), n) == rp.closed_form("phi13", n)

    # inf and None raised OverflowError and TypeError, and text was parsed
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, None, "1/3", 0, 0.5, [0.25], 1j])
    def test_x_that_is_no_real_in_the_domain_is_a_value_error(self, x):
        for phi in (rp.phi, rp.phi_series):
            with pytest.raises(ValueError) as raised:
                phi(x, 5)
            assert str(raised.value) == f"need x to be a real with 0 < x < 1/2, got {words._shown(x)}"

    @pytest.mark.parametrize("x", [0.25, np.float64(0.25), np.float32(0.25), np.float16(0.25), Fraction(1, 4)])
    def test_every_real_reads_exactly(self, x):
        assert rp.phi(x, 6) == rp.phi_series(x, 6) == rp.phi(Fraction(1, 4), 6)

    # phi(1/3, 10**6) took 13 s and phi(1/10**20, 3 * 10**5) 36 s
    @pytest.mark.parametrize("x, bits", [(Fraction(1, 3), 3), (0.3, 53 + 55), (Fraction(1, 10**20), 1 + 67)])
    def test_n_is_bounded_by_the_size_of_the_exact_result(self, x, bits):
        most = rp._MAX_PHI_BITS // bits
        for n in (most + 1, 10**6):
            with pytest.raises(ValueError) as raised:
                rp.phi(x, n)
            assert str(raised.value) == f"need 3 <= n <= {most}, got {n}"

    def test_n_at_the_bound_is_computed(self):
        x = Fraction(1, 2**40 + 1)
        assert 0 < rp.phi(x, rp._MAX_PHI_BITS // 42) < x

    def test_x_too_large_for_any_n_says_so(self):
        # the bound on n fell below 3 and was printed as an empty range
        with pytest.raises(ValueError) as raised:
            rp.phi(Fraction(1, 2**400000), 5)
        message = str(raised.value)
        assert message == (
            "x is too large for phi: its numerator and denominator take 400002 bits,"
            f" and n >= 3 allows at most {rp._MAX_PHI_BITS // 3}"
        )
        assert len(message) < 200

    def test_x_of_the_most_bits_is_computed_at_n_3(self):
        bits = rp._MAX_PHI_BITS // 3
        x = Fraction(1, 2 ** (bits - 2))  # numerator 1 bit, denominator bits - 1
        assert rp.phi(x, 3) == x / 4
        with pytest.raises(ValueError, match="x is too large for phi"):
            rp.phi(x / 2, 3)

    def test_phi13_is_bounded_as_phi_at_one_third(self, monkeypatch):
        # closed_form("phi13", 10**6) took 3.7 s; the first n above the bound
        # fails before any term of the closed form or power of x is built
        most = rp._MAX_PHI_BITS // 3
        assert rp.closed_form("phi13", 10) == rp.phi(Fraction(1, 3), 10)
        built = []

        def recording(*args):
            built.append(args)
            return Fraction(*args)

        def no_power(*args):
            raise AssertionError("took a power of x before checking n")

        monkeypatch.setattr(rp, "Fraction", recording)
        monkeypatch.setattr(Fraction, "__pow__", no_power)
        for call in (lambda n: rp.closed_form("phi13", n), lambda n: rp.phi(Fraction(1, 3), n)):
            with pytest.raises(ValueError) as raised:
                call(most + 1)
            assert str(raised.value) == f"need 3 <= n <= {most}, got {most + 1}"
        assert built[0] == (1, 3) and (1, 4) not in built  # the closed form's first term

    @pytest.mark.parametrize(
        "x, n, bits",
        [(Fraction(1, 2**500), 12, 502), (Fraction(1, 2**2000), 12, 2002), (0.3, 19, 53 + 55), (Fraction(1, 3), 40, 3)],
    )
    def test_phi_series_is_bounded_by_the_size_of_x(self, monkeypatch, x, n, bits):
        # phi_series(2**-2000, 12) took 0.34 s, and each doubling of x's bits
        # about three times as long; an x too large fails before any term is built
        most = rp._MAX_SERIES_BITS
        built = []

        def recording(*args):
            built.append(args)
            return Fraction(*args)

        if n * bits <= most:
            assert rp.phi_series(x, 3) == rp.phi(x, 3)
            return
        if most // bits >= 3:
            assert 0 < rp.phi_series(x, most // bits) < x  # the largest n this x allows
        monkeypatch.setattr(rp, "Fraction", recording)
        monkeypatch.setattr(Fraction, "__pow__", lambda *args: pytest.fail("took a power of x before checking it"))
        with pytest.raises(ValueError) as raised:
            rp.phi_series(x, n)
        message = str(raised.value)
        assert message == (
            f"x is too large for phi_series at n = {n}: its numerator and denominator take {bits} bits,"
            f" and n times that may be at most {most}"
        )
        assert len(message) < 200 and (0,) not in built

    def test_domain(self):
        with pytest.raises(ValueError):
            rp.phi(Fraction(1, 2), 5)
        with pytest.raises(ValueError):
            rp.phi_series(Fraction(3, 5), 5)
        for phi in (rp.phi, rp.phi_series):
            with pytest.raises(ValueError, match=r"^need x to be a real with 0 < x < 1/2, got a value of type int$"):
                phi(10**5000, 5)
        for n in (2, -5):
            with pytest.raises(ValueError, match="need 3 <= n"):
                rp.phi(Fraction(1, 3), n)
            with pytest.raises(ValueError, match="need 3 <= n"):
                rp.phi_series(Fraction(1, 3), n)


class TestErlang:
    """phi at 1/3 as a weighted sum of exponential-below-Erlang probabilities."""

    def test_simplest_case(self):
        assert exp_below_erlangs_prob(1, 1) == Fraction(1, 3)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_symmetry_and_monte_carlo(self, k, l):
        exact = exp_below_erlangs_prob(k, l)
        assert exact == exp_below_erlangs_prob(l, k)
        rng = rp.batch_rng(100 + 10 * k + l, 0)
        trials = 200_000
        x = rng.standard_exponential(trials)
        u = rng.standard_exponential((trials, k)).sum(axis=1)
        v = rng.standard_exponential((trials, l)).sum(axis=1)
        hits = int(((x < u) & (x < v)).sum())
        p = float(exact)
        z = (hits / trials - p) / math.sqrt(p * (1 - p) / trials)
        assert abs(z) <= 4, (k, l, hits, z)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_phi_series_is_the_erlang_sum(self, n):
        erlang_sum = sum(
            Fraction(1, 2 ** min(1 + k + l, n - 1)) * exp_below_erlangs_prob(k, l)
            for k in range(1, n - 1)
            for l in range(1, n - k)
        )
        assert rp.phi_series(Fraction(1, 3), n) == erlang_sum


class TestUniformConfig:
    def test_deterministic_given_seed(self):
        a = rp.sample_uniform_config(5, np.random.default_rng(42))
        b = rp.sample_uniform_config(5, np.random.default_rng(42))
        assert a == b

    def test_signature_interlaces(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            w = occupancy_word(rp.sample_uniform_config(4, rng))
            assert words.is_interlacing(words.signature(w))

    def test_triangle_bracelet_point_mass(self):
        rng = np.random.default_rng(2)
        target = words.canonical_bracelet(words.run_word(3))
        for _ in range(100):
            w = occupancy_word(rp.sample_uniform_config(3, rng))
            assert words.canonical_bracelet(w) == target

    class _ScriptedDraws:
        """Generator stand-in whose ``random`` returns the given draws in turn."""

        def __init__(self, *draws):
            self.draws = list(draws)

        def random(self, n):
            return np.array(self.draws.pop(0))

    def test_redraws_on_duplicate_and_on_tie(self):
        # the third draw's margin is 9.99978e-13 with p_0 at 0, the frame
        # that every reader reads, so a reader would reject it (read
        # unrotated it would be 1.00009e-12, just above the tolerance)
        straddling = [0.14530105942205312, 0.4041498492826533, 0.7747254543533533]
        rng = self._ScriptedDraws([0.3, 0.1, 0.3], [0.0, 1 / 3, 2 / 3], straddling, [0.75, 0.1, 0.3])
        config = rp.sample_uniform_config(3, rng)
        assert config.positions == (0.1, 0.3, 0.75) and not rng.draws
        assert occupancy_word(config) == (1, 1, 0, 0, 1, 0)

    def test_n_bounded_before_any_draw(self):
        rng = self._ScriptedDraws()
        with pytest.raises(ValueError, match=f"n <= {rp.MAX_CONFIG_N}"):
            rp.sample_uniform_config(rp.MAX_CONFIG_N + 1, rng)

    def test_other_errors_propagate(self):
        rng = self._ScriptedDraws([0.2, 0.5, 1.5], [0.75, 0.1, 0.3])
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            rp.sample_uniform_config(3, rng)


class TestExpModel:
    def test_conventions(self):
        rng = np.random.default_rng(3)
        s = rp.sample_exp_model(6, rng)
        assert s.colors[0] == 1 and s.colors[6] == 0
        assert s.dots[0] == 0
        assert all(a < b for a, b in zip(s.dots, s.dots[1:]))

    def test_n_bounded_before_any_draw(self):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"rng.{name} was used")

        with pytest.raises(ValueError, match=f"n <= {rp.MAX_GEOMETRY_N}"):
            rp.sample_exp_model(rp.MAX_GEOMETRY_N + 1, NoDraws())

    def test_mean_total_is_n(self):
        spac, y, _ = rp._exp_draw(6, 200_000, rp.batch_rng(5, 0))
        assert np.allclose(y[:, 1:] - y[:, :-1], spac) and (y[:, 0] == 0).all()
        total = y[:, -1]
        z = (total.mean() - 6) / (total.std(ddof=1) / math.sqrt(len(total)))
        assert abs(z) <= 4

    def test_spacings_are_unit_exponentials(self):
        spac, _, _ = rp._exp_draw(5, 40_000, rp.batch_rng(45, 0))
        assert (spac >= 0).all()
        assert sstats.kstest(spac.ravel(), "expon").pvalue > 1e-3

    @pytest.mark.parametrize("shift", [0, 1])
    def test_colors_are_fair_and_independent_of_the_spacings(self, shift):
        # dot i against spacing i (from Y_i to Y_i+1), then against spacing i - 1
        n, rows = 6, 40_000
        spac, _, colors = rp._exp_draw(n, rows, rp.batch_rng(46, shift))
        assert (colors[:, 0] == 1).all()
        black = colors[:, 1:].ravel() == 1
        cells = black.size
        assert abs(black.sum() - cells / 2) <= 4 * math.sqrt(cells / 4)
        long = spac[:, 1 - shift : n - shift].ravel() > math.log(2)  # median of Exp(1)
        table = [[int((b & l).sum()) for l in (long, ~long)] for b in (black, ~black)]
        assert sstats.chi2_contingency(table).pvalue > 1e-3

    @pytest.mark.parametrize("n,a,b", [(3, 1, 4), (7, 50, 13)])
    def test_rows_drawn_in_two_calls_equal_rows_drawn_in_one(self, n, a, b):
        whole = rp._exp_draw(n, a + b, rp.batch_rng(47, n))
        rng = rp.batch_rng(47, n)
        parts = zip(rp._exp_draw(n, a, rng), rp._exp_draw(n, b, rng))
        for array, (first, second) in zip(whole, parts):
            assert np.array_equal(array, np.concatenate([first, second]))

    def test_config_has_interlacing_signature(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            cfg = exp_config(rp.sample_exp_model(5, rng))
            assert words.is_interlacing(words.signature(occupancy_word(cfg)))

    def test_bracelet_probabilities_match_circle_model(self):
        # the two models induce the same bracelet distribution
        trials = 1_000_000
        target = words.canonical_bracelet(words.run_word(4))
        circle = rp.estimate_bracelet_prob(4, target, trials, seed=7, model="circle")
        exp = rp.estimate_bracelet_prob(4, target, trials, seed=8, model="exp")
        assert abs(rp.z_between(circle, exp)) <= 4
        assert abs(circle.z) <= 4 and abs(exp.z) <= 4

    def test_empty_black_interior_probability(self):
        # all interior dots white has probability 2^-(n-1)
        rng = np.random.default_rng(9)
        n, trials = 5, 200_000
        hits = sum(
            all(c == 0 for c in rp.sample_exp_model(n, rng).colors[1:n]) for _ in range(trials)
        )
        p = hits / trials
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(p - 2 ** -(n - 1)) <= 4 * se


def floats(k: np.ndarray) -> np.ndarray:
    """Integer rows of the batched geometry (units of 2**-53) as positions in [0, 1)."""
    return k * 2.0**-53


def model_rows(model: str, n: int, rows: int, rng) -> np.ndarray:
    if model == "uniform":
        return rp._uniform_rows(n, rows, rng)
    return rp._exp_model_rows(n, rows, rng)[0]


# (n, rows) of the chunks the estimators draw: a full chunk of
# _CHUNK_ELEMENTS // (2n) rows, one row (as at n > _CHUNK_ELEMENTS / 2), and
# the one row of n = 10**5 that the equidistribution estimator draws.
CHUNK_NS = [*range(3, 13), 31, 32, 64, 128, 1000]
CHUNK_SHAPES = [*((n, "chunk") for n in CHUNK_NS), *((n, 1) for n in CHUNK_NS), (10**5, 1)]


def rng_state(rng) -> str:
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)


def chunk_rows(n: int, rows) -> int:
    return max(1, rp._CHUNK_ELEMENTS // (2 * n)) if rows == "chunk" else rows


class TestBatchEngine:
    def test_words_match_scalar_geometry(self):
        rng = rp.batch_rng(11, 0)
        k = rp._uniform_rows(5, 64, rng)
        wmat = rp._words_rows(k)
        for row, w in zip(floats(k), wmat):
            cfg = PointConfig(tuple(row.tolist()))
            assert tuple(int(b) for b in w) == occupancy_word(cfg)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 64),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**32),
        model=st.sampled_from(["uniform", "exp"]),
    )
    @example(n=5, rows=64, seed=11, model="uniform")
    @example(n=4, rows=32, seed=12, model="uniform")
    def test_region_data_matches_scalar_stats(self, n, rows, seed, model):
        k = model_rows(model, n, rows, rp.batch_rng(seed, 0))
        wmat, sig, h, half_lengths = rp._region_rows(k)
        assert (rp._words_rows(k) == wmat).all()
        values = rp._region_values(k)
        for r, (row, w, s, ln) in enumerate(zip(floats(k), wmat, sig, half_lengths)):
            cfg = PointConfig(tuple(row.tolist()))
            rs = region_stats(cfg)
            assert tuple(int(b) for b in w) == occupancy_word(cfg) == rs.occupied
            # regions j and j + n share the type sig_j and the length L_j
            assert tuple(int(x) for x in np.tile(s, 2)) == rs.types
            assert np.allclose(np.tile(ln, 2) * 2.0**-54, rs.lengths)
            assert values[0, r] == rs.region_counts[2]
            assert np.allclose(values[1:, r], [*rs.length_totals, rs.empty_length])
        # the sorted boundaries are h followed by h + 2**53
        mid = rp._mid_rows(k)
        bnd = np.sort(np.concatenate([mid, (mid + rp._HALF) % (2 * rp._HALF)], axis=1), axis=1)
        assert (np.concatenate([h, h + rp._HALF], axis=1) == bnd).all()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 128),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**32),
        model=st.sampled_from(["uniform", "exp"]),
    )
    def test_words_match_stable_argsort(self, n, rows, seed, model):
        k = model_rows(model, n, rows, rp.batch_rng(seed, 0))
        assert (rp._words_rows(k) == words_by_stable_argsort(k)).all()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.sets(st.integers(1, 63), min_size=2, max_size=40), min_size=1, max_size=8))
    def test_words_match_stable_argsort_on_dyadic_ties(self, rows):
        # points on the grid of 1/64 make many bisectors and their antipodes
        # tie with points
        n = min(len(r) for r in rows) + 1
        k = np.array([[0] + sorted(r)[: n - 1] for r in rows], dtype=np.int64) << 47
        assert (rp._words_rows(k) == words_by_stable_argsort(k)).all()

    @pytest.mark.parametrize(
        "row,tie,word",
        [
            # the last antipodal bisector equals p_1
            ((0, 1 / 4, 1 / 2), (2, 1 / 4), (1, 1, 0, 1, 0, 0)),
            # an antipodal bisector is exactly 0, the value of p_0
            ((0, 3 / 8, 5 / 8), (1, 0.0), (1, 0, 0, 1, 1, 0)),
        ],
    )
    def test_point_goes_before_an_equal_antipodal_bisector(self, row, tie, word):
        k = (np.array([row]) * 2**53).astype(np.int64)
        anti = (rp._mid_rows(k) + rp._HALF) % (2 * rp._HALF)
        assert anti[0, tie[0]] == tie[1] * 2**54
        assert tuple(rp._words_rows(k)[0].tolist()) == word
        assert (rp._words_rows(k) == words_by_stable_argsort(k)).all()

    @pytest.mark.parametrize("model", ["uniform", "exp"])
    def test_exact_kernel_matches_the_float_kernel(self, model):
        # 13 sizes of 8192 rows each; the exponential model's float positions
        # are drawn again from the same streams, as the float kernel read them
        worst = 0.0
        for n in [*range(3, 13), 32, 64, 128]:
            for chunk in range(4):
                k = model_rows(model, n, 2048, rp.batch_rng(58, 4 * n + chunk))
                if model == "uniform":
                    p = floats(k)
                else:
                    _, y, colors = rp._exp_draw(n, 2048, rp.batch_rng(58, 4 * n + chunk))
                    p = np.sort(rp._exp_positions(y, colors), axis=1)
                w, types, _, lengths = region_rows_by_floats(p)
                wk, sig, _, half_lengths = rp._region_rows(k)
                assert (wk == w).all() and (np.tile(sig, 2) == types).all()
                worst = max(worst, np.abs(np.tile(half_lengths, 2) * 2.0**-54 - lengths).max())
                values, expected = rp._region_values(k), region_values_by_floats(p)
                assert (values[0] == expected[0]).all()
                worst = max(worst, np.abs(values[1:] - expected[1:]).max())
        assert worst < 1e-14

    @pytest.mark.parametrize("model", ["uniform", "exp"])
    @pytest.mark.parametrize("n,rows", CHUNK_SHAPES)
    def test_region_values_equal_the_masked_sums(self, model, n, rows):
        # bit for bit, on a chunk of rows as the estimators draw it
        k = model_rows(model, n, chunk_rows(n, rows), rp.batch_rng(61, n))
        _, sig, _, half_lengths = rp._region_rows(k)
        values, expected = rp._region_values(k), region_values_by_masked_sums(sig, half_lengths)
        assert values.dtype == expected.dtype and values.shape == expected.shape
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("model", ["uniform", "exp"])
    @pytest.mark.parametrize("n,rows", CHUNK_SHAPES)
    def test_flat_steps_equal_their_row_by_row_oracles(self, model, n, rows):
        # Each step that runs over a whole chunk as one flat array, with one
        # column fixed up where a row ends (the last flat value of a 1-row
        # chunk included), against the same step row by row.
        size, rng = chunk_rows(n, rows), rp.batch_rng(61, n)
        if model == "exp":
            again = rp.batch_rng(61, n)
            k, circumference = rp._exp_model_rows(n, size, rng)
            k_ref, circumference_ref = exp_model_rows_by_where(n, size, again)
            assert k.tobytes() == k_ref.tobytes() and circumference.tobytes() == circumference_ref.tobytes()
            assert rng_state(rng) == rng_state(again)
        else:
            k = rp._uniform_rows(n, size, rng)
        mids, h_ref, lengths_ref = bisector_rows_by_ints(k)
        assert rp._mid_rows(k).tobytes() == mids.tobytes()
        w, sig, h, half_lengths = rp._region_rows(k)
        assert (w == words_by_stable_argsort(k)).all()
        assert h.tobytes() == h_ref.tobytes() and half_lengths.tobytes() == lengths_ref.tobytes()
        assert rp._count_non_interlacing(sig) == count_non_interlacing_by_row_spread(sig) == 0
        if n <= rp.MAX_PACKED_N:
            assert rp._pack_words(w).tobytes() == pack_words_by_uint64_matmul(w).tobytes()

    @pytest.mark.parametrize("n,size", [(3, 1), (4, 4096), (12, 1365), (31, 528), (1000, 16)])
    def test_exp_draw_equals_the_draw_by_copies(self, n, size):
        # spacings, dots, colors and positions bit for bit, and the generator left where it was
        rng, again = rp.batch_rng(62, n), rp.batch_rng(62, n)
        drawn, expected = rp._exp_draw(n, size, rng), exp_draw_by_copies(n, size, again)
        for a, b in zip(drawn, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert rng_state(rng) == rng_state(again)
        _, y, colors = drawn
        assert rp._exp_positions(y, colors).tobytes() == exp_positions_by_where(y, colors).tobytes()

    @pytest.mark.parametrize(
        "make", [lambda: rp.batch_rng(59, 3), lambda: np.random.default_rng(59)], ids=["philox", "pcg64"]
    )
    def test_raw_words_are_the_uniforms_of_the_stream(self, make):
        raw, uniform = make(), make()
        k = raw.bit_generator.random_raw((300, 7)) >> 11
        u = uniform.random((300, 7))
        assert (k * 2.0**-53).tobytes() == u.tobytes()
        assert rng_state(raw) == rng_state(uniform)
        # _uniform_rows reads the same words: the rows of rng.random, sorted and rotated
        rows, again = make(), make()
        p = np.sort(again.random((300, 7)), axis=1)
        assert floats(rp._uniform_rows(7, 300, rows)).tobytes() == (p - p[:, :1]).tobytes()
        assert rng_state(rows) == rng_state(again)

    @pytest.mark.parametrize("inner", [(), ((3 << 50) + 12345,), ((3 << 50) + 12345, (1 << 52) + 6789)])
    def test_near_ties_that_the_float_kernel_misorders(self, inner):
        # Consecutive points a, b with s = a + b >= 2**53 and s = 3 mod 4:
        # the float sum (a + b) * 2**-53 rounds up by 2**-53, and the
        # antipodal bisector with it by 2**-54, onto the point one 2**-54
        # step above it, which the float kernel then puts first.
        a, b = (5 << 50) + 1, (13 << 49) + 2
        close = (a + b - 2**53 + 1) // 2
        row = [0, close, *inner, a, b]
        k = np.array([row], dtype=np.int64)
        exact = occupancy_word_by_fractions([Fraction(x, 2**53) for x in row])
        assert exact is not None
        assert tuple(rp._words_rows(k)[0].tolist()) == exact
        assert tuple(region_rows_by_floats(floats(k))[0][0].tolist()) != exact

    @pytest.mark.parametrize(
        "run,bound",
        [
            (lambda: rp.estimate_region_stats(128, rp.BATCH_SIZE, seed=36), 8 << 20),
            # a 64 x 4096 batch of 201-point path grids would be 40 MB
            (lambda: rp.equidistribution_paths(64, np.linspace(0, 1, 201), 4096, seed=38), 16 << 20),
            # three batches of four 4 MB chunks; no batch result may keep a chunk alive
            (
                lambda: rp.equidistribution_paths(4, np.linspace(0, 1, 21), 3 * rp.BATCH_SIZE, 40),
                10 << 20,
            ),
            # chunks sized by the grid as well as by n: 152 MB when a chunk's
            # rows were set by 2n alone
            (lambda: rp.equidistribution_paths(3, np.linspace(0, 1, 400), 6000, 1), 16 << 20),
            # the exponential model draws chunk by chunk too: a whole batch was 770 MB
            (lambda: rp.transfer_check(1000, rp.BATCH_SIZE, seed=53), 8 << 20),
            # per-batch integer sums, not per-trial arrays: 20 MB when rounds grew with the trials
            (lambda: sampler.lln_clt_experiment(10, 3 * rp.BATCH_SIZE, seed=54), 12 << 20),
            # one column per distinct cut, not per grid value: 69 MB with a column for each
            (lambda: sampler.lln_clt_experiment(10, 2000, (0.5,) * 499 + (1.0,), 1), 5 << 20),
        ],
        ids=[
            "region-stats",
            "paths-64x4096",
            "paths-3-batches",
            "paths-400-grid",
            "transfer-1000",
            "clt-3-batches",
            "clt-500-grid",
        ],
    )
    def test_full_batch_allocates_little(self, run, bound):
        # a batch holds one cache-sized chunk (or one CLT round) at a time, not all its rows
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("seed", [-1, 2**64, 10**5000], ids=lambda v: "10**5000" if v == 10**5000 else None)
    def test_paths_and_spacings_check_the_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            rp.max_spacing_check(1000, 5, seed)
        with pytest.raises(ValueError, match="seed"):
            rp.equidistribution_paths(64, [0.5, 1.0], 5, seed)

    @pytest.mark.parametrize("n", [3, 5])
    def test_paths_and_spacings_read_rows_of_batch_streams(self, monkeypatch, n):
        # trial j is row j mod BATCH_SIZE of batch_rng(seed, j // BATCH_SIZE)
        seed, trials, grid = 39, rp.BATCH_SIZE + 3, np.array([0.25, 0.5, 1.0])
        sizes = (rp.BATCH_SIZE, 3)
        rows = [rp._uniform_rows(n, size, rp.batch_rng(seed, b)) for b, size in enumerate(sizes)]
        real_rng, requested = rp.batch_rng, []

        def recording_rng(seed, index):
            requested.append(index)
            return real_rng(seed, index)

        monkeypatch.setattr(rp, "batch_rng", recording_rng)
        paths = rp.equidistribution_paths(n, grid, trials, seed)
        assert requested == [0, 1]
        requested.clear()
        spacing = rp.max_spacing_check(n, trials, seed)
        assert requested == [0, 1]

        # each batch summed row by row, the batch sums added in batch order
        h, l = sum(sum(rp._path_rows(k, grid)) for k in rows) / trials
        assert paths.region_fraction == tuple(map(tuple, h.tolist()))
        assert paths.length_fraction == tuple(map(tuple, l.tolist()))
        stats = [n * (np.diff(floats(k), axis=1).max(axis=1) / 2) / math.log(n) for k in rows]
        total = sum(float(s.sum()) for s in stats)
        total_sq = sum(float((s * s).sum()) for s in stats)
        target = n * math.fsum(1 / k for k in range(1, n)) / (2 * (n + 1) * math.log(n))
        assert spacing == rp._make_result(total, total_sq, trials, seed, target)

    @pytest.mark.parametrize(
        "name,run,seeds",
        [
            ("bracelet_prob:circle", lambda t, s: rp.estimate_bracelet_prob(4, RUN4, t, s), (0,)),
            ("bracelet_prob:exp", lambda t, s: rp.estimate_bracelet_prob(4, RUN4, t, s, model="exp"), (0,)),
            ("region_stats", lambda t, s: rp.estimate_region_stats(5, t, s), (0,)),
            ("interlacing_failures", lambda t, s: rp.interlacing_failures(5, t, s), (0,)),
            ("transfer_check", lambda t, s: rp.transfer_check(4, t, s), (1, 2)),
            ("equidistribution_paths", lambda t, s: rp.equidistribution_paths(4, [0.5, 1.0], t, s), (0,)),
            ("max_spacing_check", lambda t, s: rp.max_spacing_check(3, t, s), (0,)),
            ("lln_clt_experiment", lambda t, s: sampler.lln_clt_experiment(7, t, (0.5, 1.0), s), (0,)),
        ],
    )
    def test_every_monte_carlo_path_reads_batch_streams(self, monkeypatch, name, run, seeds):
        # BATCH_SIZE + 3 trials are batches 0 and 1 of each stream seed, nothing else
        seed, requested, real_rng = 52, [], rp.batch_rng

        def recording_rng(seed, index):
            requested.append((seed, index))
            return real_rng(seed, index)

        monkeypatch.setattr(rp, "batch_rng", recording_rng)
        run(rp.BATCH_SIZE + 3, seed)
        assert requested == [(seed + d, i) for d in seeds for i in (0, 1)]

    @pytest.mark.parametrize("n", [3, 16, 17, 31, 32])
    def test_pack_words_matches_word_to_int(self, n):
        # n = 16 fills the low 32 bits alone; from n = 17 on the high half takes the rest
        rng = np.random.default_rng(200 + n)
        w = rng.integers(0, 2, (64, 2 * n)).astype(np.uint8)
        w[0] = 1  # every bit set, the top one included
        w[1] = 0
        packed = rp._pack_words(w)
        assert packed.dtype == np.uint64
        assert [int(x) for x in packed] == [words.word_to_int(row.tolist()) for row in w]
        assert packed.tobytes() == pack_words_by_uint64_matmul(w).tobytes()
        assert rp._pack_words(w[:1]).tobytes() == packed[:1].tobytes()

    def test_seed_is_a_64_bit_key(self):
        last = (1 << 64) - 1
        assert rp.batch_rng(last, 0).random() != rp.batch_rng(0, 0).random()
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match="seed"):
                rp.batch_rng(seed, 0)
        # beyond Python's limit for converting an int to text: shown by its type
        with pytest.raises(ValueError) as raised:
            rp.batch_rng(10**5000, 0)
        assert str(raised.value) == f"need 0 <= seed <= {last}, got a value of type int"

    def test_type_counts_balanced_per_trial(self):
        rng = rp.batch_rng(13, 0)
        _, sig, _, _ = rp._region_rows(rp._uniform_rows(6, 256, rng))
        assert ((sig == 0).sum(axis=1) == (sig == 2).sum(axis=1)).all()

    def test_interlacing_failure_counter(self):
        assert rp.interlacing_failures(5, 20_000, seed=14) == 0
        assert rp._count_non_interlacing(np.array([[1, 1, 1], [0, 1, 2]])) == 1

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    @pytest.mark.parametrize("n", [*range(3, 13), 300])
    def test_non_interlacing_count_matches_loop(self, n, dtype):
        rng = np.random.default_rng(100 + n)
        sig = rng.integers(0, 3, (2000, n))
        sig[::7] = 1  # all-1 rows
        sig[1::7] = rng.integers(0, 2, (len(sig[1::7]), n)) * 2  # only 0s and 2s
        # 2, 0, 2, ... at random places, an odd last one dropped: these interlace
        special = rng.random((len(sig[2::7]), n)) < 0.5
        rank = np.cumsum(special, axis=1)
        special &= (rank < rank[:, -1:]) | (rank % 2 == 0)
        sig[2::7] = np.where(special, rank % 2 * 2, 1)
        sig = sig.astype(dtype)
        expected = count_non_interlacing(sig)
        assert 0 < expected < len(sig)
        assert rp._count_non_interlacing(sig) == count_non_interlacing_by_row_spread(sig) == expected
        # one row at a time, where the flat balance has no row before it
        assert sum(rp._count_non_interlacing(sig[i : i + 1]) for i in range(70)) == count_non_interlacing(sig[:70])


# Estimator payloads for seed 2024, each over two batches (one full, one
# partial), recorded from the (rows, n, 2n) comparison kernel that the rank
# kernel replaced.  The batched geometry must reproduce them bit for bit.
# The exponential-model cases (bracelet_prob:exp, transfer_check:4 and
# sample_exp_model) were re-recorded when the model began to draw 2n - 1
# uniforms per row, spacings by inversion and colors by u < 1/2: the stream
# changed, not the law.  max_spacing_check was re-recorded when its target
# became the exact mean; only its target and z fields changed.  region_stats,
# transfer_check:4 and equidistribution_paths were re-recorded when the batched
# geometry became exact integers: every word, h2 and region fraction stayed
# bit-identical, and lengths moved in their last bits (estimates by at most
# 3e-16 relative, standard errors 4e-14 relative, z scores 2e-13).
PIN_SEED = 2024
PINNED_PAYLOADS = {
    "region_stats:3": "14b7d0bca8c137711709eb289c8300a28519a76cd6887ce2de648fe231f7aed7",
    "region_stats:8": "3cc733ecfb12ab4fa03e199ea2bda58a1a48fe67e3e4174961cce0a0d5c0cf53",
    "region_stats:32": "929af463250d2fc07c61ad981f438f90af6ca8faa762c612fea7c01fa925993d",
    "region_stats:128": "65066dd0bd897800de921fc2a2a57167429eedb3f1dc793e664c48a866205b21",
    "bracelet_prob:circle": "21598a97acb56a695ceb50195c8f6b4bb839dfe7f37a87bb7fe93f6778c0f58c",
    "interlacing_failures:12": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    # paths and spacings run 2 to 50 trials: the first rows of the one batch
    # stream batch_rng(2024, 0), recorded from the batch engine
    "equidistribution_paths:64": "0b4309a46094bfe8d4a0be304e4afb9e27247fee14958cf17512640ab6191a28",
    "equidistribution_paths:5000": "92ecefcead5f669e9319834ef60c66b7d7e743ca842a95d06465e8cce05fa595",
    "max_spacing_check:1000": "a3777af785dd24c0bed8c9c227e17a486c90609f2f27791b24417537f62a8290",
    "max_spacing_check:3": "14d573e197b7054b29ec6bcbcce644b0dae8304ab68c6cf44a8633b423e4c7a5",
}

# The exponential model's spacings are -log1p(-u).  numpy sends float64
# np.log1p to SVML where AVX-512 is available and to the C library's log1p
# otherwise; the two differ in the last bit for about 7% of the uniforms, so
# each payload of the exponential model has one digest per log1p (equal where
# no spacing or length reaches it).  math.log1p is the C library's, so a probe
# on fixed inputs tells which one runs.  The libm digests were recorded with
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" from the row-slice
# kernel that the flat one replaced, which reproduces them.
# sample_exp_model:n holds five samples from one generator.
_PROBE = -np.arange(1024) / 1024
LOG1P = "libm" if np.log1p(_PROBE).tolist() == [math.log1p(v) for v in _PROBE.tolist()] else "svml"
PINNED_BY_LOG1P = {
    "bracelet_prob:exp": {
        "svml": "0d2a6d216b87ca196438f871d17b75b13d0a412b24f6b4ac82e3567787cfbfac",
        "libm": "0d2a6d216b87ca196438f871d17b75b13d0a412b24f6b4ac82e3567787cfbfac",
    },
    "transfer_check:4": {
        "svml": "a6d7f34943142994cff91eaef0bc6be8aae92f34bf86988690eac7294fdf10d9",
        "libm": "d0dd97b0340569ef67b1a5bacde6d2a5645d6b238a7a9c8577d7961d8906e2a1",
    },
    "sample_exp_model:3": {
        "svml": "157707e629154854a263f8137efb66371da2c107fa6df457d6e9d37e4941b21a",
        "libm": "157707e629154854a263f8137efb66371da2c107fa6df457d6e9d37e4941b21a",
    },
    "sample_exp_model:4": {
        "svml": "cdab028db7a94ca2f5b233b824b1dcb84eddd4cc397184f744f12200b9c2f186",
        "libm": "62d1f2973e853f99503bd9e4515603c3b15bd3e5e23d76f12000fc218d886543",
    },
    "sample_exp_model:5": {
        "svml": "f044ffb5241a24d054e5e95d72adfd91ac6c7e5aa012534758b9e10040ddd1a4",
        "libm": "ebed2c7b00ff58db312c1a9e5c7433f3c8b85910fa80c16037a32a9d8184dd41",
    },
    "sample_exp_model:6": {
        "svml": "2e3db8365b98a7fd74439693f002c24363e0702a532239f51a6e18ddb046646f",
        "libm": "4a3e434141dac33cf4d198d8968b777b5500312a34c53912e5a451082de2732e",
    },
    "sample_exp_model:7": {
        "svml": "1c99e415a10841d50c532abc14b1b2f03c9a6f707eaa095d9f226615d0330bdb",
        "libm": "d7793ace004ab0b9c4ade1e88ed624dfeecf240af098a222bbf958b115ecd1d0",
    },
    "sample_exp_model:8": {
        "svml": "fef3892905ceda49427df880517431e55a52696011f24692bfd72ea3328445d2",
        "libm": "d4ed921b93307c69ba3cffe80c1e6fb827ede9c7828f322f94c961f4f20fb758",
    },
    "sample_exp_model:9": {
        "svml": "80d2f9b9c7e775d17b0f639155309f58bd28e062f1f2a4a6bf73e56a4e3708c0",
        "libm": "f71dc7d62260924263eebe04fee4487cc9705641eade5c6d474cc5c7c899f37c",
    },
    "sample_exp_model:10": {
        "svml": "6d023e3ad767f9c936a64a14fc52fff5dd866386c214e1bff7ec6d7cb82df14c",
        "libm": "fdd550dc04edbfbd961cb11764b016f84e3b13c9247ed701f85d79c8b21c2bb9",
    },
    "sample_exp_model:11": {
        "svml": "5aa41343dff2ad66579341973d79721628f488c2cad8e6cad62a9402cae89eed",
        "libm": "1d3aba6689564ca451b8db9cbac8f9581ec34d8daf5e8c55cae43f69fe8daa9e",
    },
    "sample_exp_model:12": {
        "svml": "e469590f73cad09fb677bbfcffaaf4eb6c824d005f3525b75581c0847af20bf5",
        "libm": "b95040258df72a5cd6c03913f4f45f532720a1736ee72f9c68cc919896395a17",
    },
}
PINNED_PAYLOADS.update((case, digests[LOG1P]) for case, digests in PINNED_BY_LOG1P.items())


def _pinned_payload(case: str):
    trials = rp.BATCH_SIZE + 4096
    kind, _, arg = case.partition(":")
    if kind == "region_stats":
        results = rp.estimate_region_stats(int(arg), trials, PIN_SEED)
        return {k: r.to_json_dict() for k, r in results.items()}
    if kind == "bracelet_prob":
        target = words.canonical_bracelet(words.run_word(4))
        return rp.estimate_bracelet_prob(4, target, trials, PIN_SEED, model=arg).to_json_dict()
    if kind == "interlacing_failures":
        return rp.interlacing_failures(int(arg), trials, PIN_SEED)
    if kind == "transfer_check":
        return dataclasses.asdict(rp.transfer_check(int(arg), trials, PIN_SEED))
    if kind == "equidistribution_paths":
        n = int(arg)
        grid = [j / 8 for j in range(9)]
        return dataclasses.asdict(rp.equidistribution_paths(n, grid, 50 if n < 100 else 2, PIN_SEED))
    if kind == "max_spacing_check":
        n = int(arg)
        return rp.max_spacing_check(n, 50 if n >= 100 else 5, PIN_SEED).to_json_dict()
    if kind == "sample_exp_model":
        rng = rp.batch_rng(PIN_SEED, int(arg))
        samples = [rp.sample_exp_model(int(arg), rng) for _ in range(5)]
        return [[dataclasses.asdict(s), exp_config(s).positions] for s in samples]
    raise AssertionError(case)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestPinnedPayloads:
    @pytest.mark.parametrize("case", sorted(PINNED_PAYLOADS))
    def test_payload_is_bit_identical(self, case):
        assert _digest(_pinned_payload(case)) == PINNED_PAYLOADS[case]

    @pytest.mark.parametrize("chunk", [2_000, 1 << 22])
    @pytest.mark.parametrize(
        "case",
        [
            "region_stats:8",
            "region_stats:32",
            "region_stats:128",
            "bracelet_prob:exp",
            "interlacing_failures:12",
            "transfer_check:4",
            "equidistribution_paths:64",
            "max_spacing_check:1000",
        ],
    )
    def test_chunk_boundaries_leave_payload_unchanged(self, monkeypatch, case, chunk):
        # 2_000 regions: chunks of 250 rows at n=4, 125 at n=8, 83 at n=12,
        # 31 at n=32, 15 trials at n=64, 7 rows at n=128 and 1 trial at
        # n=1000, so every batch, and the 50 trials of paths and of spacings,
        # span several chunks.  1 << 22 regions: a full batch at n <= 128 is
        # a single chunk.
        monkeypatch.setattr(rp, "_CHUNK_ELEMENTS", chunk)
        assert _digest(_pinned_payload(case)) == PINNED_PAYLOADS[case]


class TestEstimators:
    def test_bracelet_prob_exact_at_n3(self):
        target = words.canonical_bracelet(words.run_word(3))
        res = rp.estimate_bracelet_prob(3, target, 50_000, seed=15)
        assert res.estimate == 1.0 and res.std_error == 0.0 and res.z == 0.0

    def test_region_stats_within_bands(self):
        for n in (3, 4):
            results = rp.estimate_region_stats(n, 100_000, seed=16 + n)
            for key, res in results.items():
                assert abs(res.z) <= 4, (n, key, res)

    def test_worker_count_is_invisible(self):
        target = words.canonical_bracelet(words.run_word(4))
        lone = rp.estimate_bracelet_prob(4, target, 40_000, seed=17, workers=1)
        pooled = rp.estimate_bracelet_prob(4, target, 40_000, seed=17, workers=3)
        assert lone == pooled
        a = rp.estimate_region_stats(4, 40_000, seed=18, workers=1)
        b = rp.estimate_region_stats(4, 40_000, seed=18, workers=2)
        assert a == b
        lone = rp.estimate_bracelet_prob(4, target, 40_000, seed=17, workers=1, model="exp")
        pooled = rp.estimate_bracelet_prob(4, target, 40_000, seed=17, workers=2, model="exp")
        assert lone == pooled

    def test_disjoint_seeds_agree(self):
        target = words.canonical_bracelet(words.run_word(4))
        a = rp.estimate_bracelet_prob(4, target, 200_000, seed=19)
        b = rp.estimate_bracelet_prob(4, target, 200_000, seed=20)
        assert abs(rp.z_between(a, b)) <= 4

    def test_z_between_results_without_spread(self):
        # at n = 3 every configuration has the run word's bracelet, so the standard error is 0
        target = words.canonical_bracelet(words.run_word(3))
        a = rp.estimate_bracelet_prob(3, target, 100, seed=21)
        b = rp.estimate_bracelet_prob(3, target, 200, seed=22)
        assert a.std_error == b.std_error == 0.0
        assert rp.z_between(a, b) == 0.0
        assert rp.z_between(a, dataclasses.replace(b, estimate=0.5)) == math.inf
        assert rp.z_between(dataclasses.replace(b, estimate=0.5), a) == -math.inf

    def test_z_without_spread_keeps_its_sign(self):
        # two trials at n = 4 both hold 2 two-dot regions, below the target 20/9
        h2 = rp.estimate_region_stats(4, 2, 0)["h2"]
        assert (h2.estimate, h2.std_error) == (2.0, 0.0)
        assert h2.estimate < h2.target
        assert h2.z == -math.inf

    def test_nan_target_gives_nan_z(self):
        # a bracelet other than the run word's has no closed form: its target is NaN
        other = words.canonical_bracelet((1, 1, 0, 1, 0, 0, 1, 0))
        res = rp.estimate_bracelet_prob(4, other, 2000, seed=1)
        assert (res.estimate, res.std_error) == (0.0, 0.0)
        assert math.isnan(res.target)
        assert math.isnan(res.z)
        assert math.isnan(rp.z_between(res, dataclasses.replace(res, estimate=math.nan)))

    def test_region_stats_within_bands_at_large_n(self):
        results = rp.estimate_region_stats(1000, 4000, seed=29)
        for key, res in results.items():
            assert abs(res.z) <= 4, (key, res)

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            rp.estimate_region_stats(4, 1000, seed=30, workers=0)

    def test_workers_capped_at_cpu_count(self, monkeypatch, inline_pool):
        monkeypatch.setattr(rp.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(rp, "BATCH_SIZE", 100)
        rp.estimate_region_stats(4, 1000, seed=31, workers=64)
        assert inline_pool == [3]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_batch_results_add_left_to_right_in_batch_order(self, monkeypatch, inline_pool, workers):
        monkeypatch.setattr(rp.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(rp, "BATCH_SIZE", 100)
        seed, sizes = 40, [100] * 9 + [7]
        parts = [order_sensitive_payload(3, rp.batch_rng(seed, i), size) for i, size in enumerate(sizes)]
        left, right = parts[0], parts[-1]
        for a, b in zip(parts[1:], parts[-2::-1]):
            left, right = left + a, b + right
        assert left.tolist() != right.tolist()  # the payload does see the order
        got = rp._run_batches(order_sensitive_payload, 3, sum(sizes), seed, workers)
        assert got.tolist() == left.tolist()
        assert inline_pool == ([] if workers == 1 else [3])

    def test_pool_is_fed_rounds_of_four_tasks_per_worker(self, monkeypatch, inline_pool):
        # The pool holds at most 4 * workers batches, and so generators, at
        # a time; the rounds keep the batch order, so the sum is the serial one.
        monkeypatch.setattr(rp.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(rp, "BATCH_SIZE", 10)
        rounds = []

        class RecordingExecutor(rp.ProcessPoolExecutor):
            def map(self, fn, items, chunksize=1):
                items = list(items)
                rounds.append(len(items))
                return super().map(fn, items)

        monkeypatch.setattr(rp, "ProcessPoolExecutor", RecordingExecutor)
        serial = rp._run_batches(order_sensitive_payload, 3, 1003, 41, 1)
        pooled = rp._run_batches(order_sensitive_payload, 3, 1003, 41, 2)
        assert pooled.tolist() == serial.tolist()
        assert sum(rounds) == 101
        assert max(rounds) <= 4 * 2

    def test_workers_must_be_an_int(self, monkeypatch, inline_pool):
        monkeypatch.setattr(rp, "BATCH_SIZE", 100)
        for workers in (2.0, np.int64(2), True):
            with pytest.raises(ValueError, match="workers"):
                rp.estimate_region_stats(4, 1000, seed=38, workers=workers)
            with pytest.raises(ValueError, match="workers"):
                rp.estimate_bracelet_prob(4, RUN4, 1000, seed=38, workers=workers)
        assert inline_pool == []

    @pytest.mark.parametrize("seed", [1.5, True, "3", np.float64(1)])
    def test_seed_must_be_an_int(self, monkeypatch, seed):
        # rejected before a stream is built, so nothing is drawn
        real_rng, made = rp.batch_rng, []

        def recording_rng(seed, index):
            rng = real_rng(seed, index)
            made.append(index)
            return rng

        monkeypatch.setattr(rp, "batch_rng", recording_rng)
        runs = (
            lambda: rp.estimate_region_stats(3, 1000, seed),
            lambda: rp.transfer_check(4, 1000, seed),
            lambda: rp.batch_rng(seed, 0),
        )
        for run in runs:
            with pytest.raises(ValueError, match="need seed to be an integer"):
                run()
        assert made == []

    def test_unknown_model_names_the_choices(self):
        target = words.canonical_bracelet(words.run_word(4))
        with pytest.raises(ValueError, match="'circle', 'exp'"):
            rp.estimate_bracelet_prob(4, target, 100, seed=32, model="gauss")

    def test_bracelet_prob_at_packed_limit(self):
        # the target is the class of the first configuration drawn, so it is hit
        first = rp._words_rows(rp._uniform_rows(32, 1, rp.batch_rng(33, 0)))[0]
        target = words.canonical_bracelet(first.tolist())
        res = rp.estimate_bracelet_prob(32, target, 2000, seed=33)
        assert res.trials == 2000 and 1 <= res.estimate * 2000 < 2000

    def test_bracelet_prob_rejects_n_above_packed_limit(self, monkeypatch):
        def no_batches(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(rp, "_run_batches", no_batches)
        target = words.canonical_bracelet(words.run_word(33))
        with pytest.raises(ValueError, match="n <= 32"):
            rp.estimate_bracelet_prob(33, target, 2000, seed=34)

    def test_region_stats_rejects_n_above_geometry_limit(self, monkeypatch):
        def no_batches(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(rp, "_run_batches", no_batches)
        assert rp.MAX_GEOMETRY_N >= 10**5  # criterion 10 runs at n = 10**5
        with pytest.raises(ValueError, match=f"n <= {rp.MAX_GEOMETRY_N}"):
            rp.estimate_region_stats(rp.MAX_GEOMETRY_N + 1, 1000, seed=37)

    def test_bracelet_prob_rejects_target_of_other_n(self, monkeypatch):
        def no_batches(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(rp, "_run_batches", no_batches)
        target = words.canonical_bracelet(words.run_word(5))
        with pytest.raises(ValueError, match="10 letters.*n=4"):
            rp.estimate_bracelet_prob(4, target, 1000, seed=1)

    def test_bracelet_prob_checks_the_target_word_not_its_n(self, monkeypatch):
        # a word of n = 3 under the label n = 4 gave estimate 0, target and z NaN
        def no_draws(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(rp, "batch_rng", no_draws)
        target = words.Bracelet(n=4, word=(1, 0, 1, 1, 0, 0), orbit_size=1)
        with pytest.raises(ValueError, match="^target bracelet word has 6 letters, estimate is for n=4$"):
            rp.estimate_bracelet_prob(4, target, 1000, 1)

    @pytest.mark.parametrize(
        "name,args",
        [
            ("max_spacing_check", (1000, 0, 35)),
            ("max_spacing_check", (1, 5, 35)),
            ("estimate_region_stats", (2, 10**6, 35)),
            ("estimate_region_stats", (4, 0, 35)),
            ("interlacing_failures", (2, 1000, 35)),
            ("interlacing_failures", (0, 1000, 35)),
            ("interlacing_failures", (4, 0, 35)),
            ("equidistribution_paths", (1, [0.5, 1.0], 10, 35)),
            ("equidistribution_paths", (2, [0.5, 1.0], 10, 35)),
            ("equidistribution_paths", (64, [0.5, 1.0], 0, 35)),
            ("estimate_bracelet_prob", (4, words.canonical_bracelet(words.run_word(4)), 0, 35)),
            ("transfer_check", (2, 1000, 35)),
            ("transfer_check", (4, 0, 35)),
            ("equidistribution_paths", (64, [0.5, 2.0], 10, 35)),
            ("equidistribution_paths", (64, [-0.25, 1.0], 10, 35)),
            ("equidistribution_paths", (64, [float("nan")], 10, 35)),
            ("transfer_check", (4, 20000, 2**64 - 2)),
            ("transfer_check", (4, 20000, -1)),
            ("estimate_region_stats", (rp.MAX_GEOMETRY_N + 1, 1000, 35)),
            ("interlacing_failures", (rp.MAX_GEOMETRY_N + 1, 1000, 35)),
            ("transfer_check", (rp.MAX_GEOMETRY_N + 1, 1000, 35)),
            ("equidistribution_paths", (rp.MAX_GEOMETRY_N + 1, [0.5, 1.0], 1, 35)),
            ("max_spacing_check", (rp.MAX_GEOMETRY_N + 1, 1, 35)),
            # one trial has no standard error, so no z
            ("estimate_region_stats", (4, 1, 35)),
            ("estimate_bracelet_prob", (4, words.canonical_bracelet(words.run_word(4)), 1, 35)),
            ("transfer_check", (4, 1, 35)),
            ("max_spacing_check", (1000, 1, 35)),
            # trials must be exactly an int, as n must
            ("estimate_region_stats", (4, 100.0, 35)),
            ("estimate_bracelet_prob", (4, words.canonical_bracelet(words.run_word(4)), 10.5, 35)),
            ("transfer_check", (4, True, 35)),
            ("max_spacing_check", (1000, np.int64(100), 35)),
            ("interlacing_failures", (4, 100.0, 35)),
            ("equidistribution_paths", (64, [0.5, 1.0], 2.0, 35)),
            ("lln_clt_experiment", (100, 10.5)),
            # results multiply trials as a float, exact only up to 2**53
            ("estimate_region_stats", (4, rp.MAX_TRIALS + 1, 35)),
            ("estimate_bracelet_prob", (4, words.canonical_bracelet(words.run_word(4)), 10**24, 35)),
            ("transfer_check", (4, rp.MAX_TRIALS + 1, 35)),
            ("max_spacing_check", (1000, rp.MAX_TRIALS + 1, 35)),
            ("interlacing_failures", (4, rp.MAX_TRIALS + 1, 35)),
            ("equidistribution_paths", (64, [0.5, 1.0], 10**24, 35)),
            ("lln_clt_experiment", (100, rp.MAX_TRIALS + 1)),
            # beyond Python's limit for converting an int to text
            ("estimate_region_stats", (3, -(10**5000), 1)),
        ],
    )
    def test_inputs_bounded_before_any_draw(self, monkeypatch, name, args):
        # a draw fails the test at once, so an unbounded run cannot start
        def no_draws(seed, index):
            raise AssertionError("drew before checking the inputs")

        monkeypatch.setattr(rp, "batch_rng", no_draws)
        with pytest.raises(ValueError, match="need") as raised:
            getattr(sampler if name == "lln_clt_experiment" else rp, name)(*args)
        assert len(str(raised.value)) < 200

    def test_estimator_result_fields(self):
        res = rp.estimate_region_stats(3, 1000, seed=21)["h2"]
        assert res.trials == 1000 and res.seed == 21
        assert set(res.to_json_dict()) == {"estimate", "std_error", "trials", "seed", "target", "z"}


class TestTransfer:
    def test_n3_identities_and_n4_consistency(self):
        report = rp.transfer_check(3, 150_000, seed=22)
        for comp in report.comparisons:
            assert abs(comp.exp_model.z) <= 4
            assert abs(comp.circle_model.z) <= 4
            assert abs(comp.z_between) <= 4
        assert report.comparisons[1].exp_model.target == pytest.approx(5 / 18)
        se = report.total_length_se
        assert abs(report.total_length_mean - 6) <= 4 * se

    def test_exp_lengths_sum_to_circumference(self):
        rng = rp.batch_rng(23, 0)
        k, circumference = rp._exp_model_rows(4, 128, rng)
        assert (k[:, 0] == 0).all()  # dot 0 at 0 starts every sorted row
        _, sig, _, half_lengths = rp._region_rows(k)
        total = sum((half_lengths * (sig == t)).sum(axis=1) for t in (0, 1, 2))
        assert (total == 2**53).all()  # half the circle, exactly
        values = rp._region_values(k)
        assert np.allclose(values[1:4].sum(axis=0), 1.0)
        assert (circumference > 0).all()


PATH_GRIDS = ["unsorted-repeats", "region-ends", "zero-and-one", "empty"]


def _path_grid(case: str, k: np.ndarray) -> np.ndarray:
    """A t-grid of the named kind for the rows ``k``."""
    if case == "unsorted-repeats":
        return np.array([0.7, 0.2, 0.7, 0.45, 0.2, 0.9, 0.45])
    if case == "region-ends":
        # values at region ends of the first rows (the floats nearest to
        # them above 1/2), in no order and repeated
        h = rp._region_rows(k[:2])[2]
        bnd = np.concatenate([h, h + rp._HALF], axis=1) * 2.0**-54
        return np.concatenate([bnd[0, ::-1], bnd[1, ::2], bnd[0, 1:3]])
    if case == "zero-and-one":
        return np.array([1.0, 0.0, 0.5, 0.0, 1.0])
    return np.array([])


class TestPaths:
    @pytest.mark.parametrize("case", PATH_GRIDS)
    @pytest.mark.parametrize("n", [3, 8])
    def test_path_rows_match_the_grid_loop(self, n, case):
        k = rp._uniform_rows(n, 40, rp.batch_rng(56, n))
        grid = _path_grid(case, k)
        assert rp._path_rows(k, grid).tobytes() == path_rows_by_grid_loop(k, grid).tobytes()

    @pytest.mark.parametrize("case", PATH_GRIDS)
    def test_paths_match_the_grid_loop(self, case):
        n, trials, seed = 4, 300, 57
        k = rp._uniform_rows(n, trials, rp.batch_rng(seed, 0))
        grid = _path_grid(case, k)
        report = rp.equidistribution_paths(n, grid.tolist(), trials, seed)
        # rows summed in row order, as the running sum of each batch adds them
        h, l = sum(path_rows_by_grid_loop(k, grid)) / trials
        assert report.region_fraction == tuple(map(tuple, h.tolist()))
        assert report.length_fraction == tuple(map(tuple, l.tolist()))

    def test_endpoint_matches_length_expectations(self):
        report = rp.equidistribution_paths(50, [0.5, 1.0], trials=2000, seed=24)
        for k in (0, 1, 2):
            target = float(rp.closed_form(f"l{k}", 50))
            assert abs(report.length_fraction[k][-1] - target) < 0.01
        h2_fraction = float(rp.closed_form("h2", 50)) / 100
        assert abs(report.region_fraction[2][-1] - h2_fraction) < 0.01

    def test_fractions_track_the_linear_limits(self):
        report = rp.equidistribution_paths(30_000, [0.25, 0.5, 0.75, 1.0], trials=1, seed=25)
        slopes_h = (0.25, 0.5, 0.25)
        slopes_l = (0.125, 0.5, 0.375)
        for k in (0, 1, 2):
            for t, h, l in zip(report.t_grid, report.region_fraction[k], report.length_fraction[k]):
                assert abs(h - slopes_h[k] * t) < 0.03
                assert abs(l - slopes_l[k] * t) < 0.03


class TestMaxSpacing:
    @pytest.mark.parametrize("n,trials,seed", [(3, 200_000, 48), (10, 200_000, 49), (1000, 20_000, 50)])
    def test_z_against_the_exact_mean(self, n, trials, seed):
        res = rp.max_spacing_check(n, trials, seed)
        assert abs(res.z) <= 4, res

    @pytest.mark.parametrize("n", [2, 3, 10, 1000])
    def test_target_is_the_mean_largest_interior_spacing(self, n):
        # E[largest of the n - 1 interior spacings of n uniform points] = H_{n-1} / (n + 1)
        mean_gap = sum(Fraction(1, k) for k in range(1, n)) / (n + 1)
        target = rp.max_spacing_check(n, 2, 51).target
        assert target == pytest.approx(float(n * mean_gap / 2) / math.log(n), rel=1e-14)

    def test_band_at_large_n(self):
        res = rp.max_spacing_check(1_000_000, trials=20, seed=26)
        assert 0.4 <= res.estimate <= 0.6

    def test_never_exceeds_half(self):
        for i in range(10):
            rng = rp.batch_rng(27, i)
            u = np.sort(rng.random(1000)) / 2
            assert float(np.diff(u).max()) <= 0.5

    def test_mean_gap_decreases_with_n(self):
        means = []
        for n in (1000, 10_000, 100_000):
            gaps = []
            for i in range(10):
                rng = rp.batch_rng(28 + n, i)
                gaps.append(float(np.diff(np.sort(rng.random(n)) / 2).max()))
            means.append(sum(gaps) / len(gaps))
        assert means[0] > means[1] > means[2]
