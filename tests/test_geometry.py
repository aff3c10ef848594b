import bisect
import hashlib
import json
import logging
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bisector_words import enumeration, geometry, random_points, realization, words
from bisector_words.geometry import (
    NonGenericConfiguration,
    PointConfig,
    arrangement,
    occupancy_word,
    ocdc,
    region_stats,
    verify_direction_patterns,
)
from bisector_words.random_points import equidistribution_paths, sample_uniform_config

from oracles import (
    bisector_positions_by_fractions,
    direction_patterns_by_region_lists,
    genericity_margin_by_fractions,
    is_interlacing_literal,
    occupancy_word_by_fractions,
    pattern_logger,
    region_boundaries_by_fractions,
    region_stats_by_fractions,
)

EXAMPLE = PointConfig((0.0, 0.1, 0.3))
EXAMPLE_EXACT = PointConfig((Fraction(0), Fraction(1, 10), Fraction(3, 10)))
T_RULE = f"need the t-grid to be a flat sequence of at most {geometry.MAX_T_GRID} reals in [0, 1], got"


def random_exact_config(rng, n, denominator=997):
    while True:
        nums = sorted(int(x) for x in rng.choice(denominator, size=n, replace=False))
        cfg = PointConfig(tuple(Fraction(v, denominator) for v in nums))
        if geometry.genericity_margin(cfg) > 0:
            return cfg


class TestPointConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PointConfig((0.0, 0.5))
        with pytest.raises(ValueError):
            PointConfig((0.0, 0.5, 0.5))
        with pytest.raises(ValueError):
            PointConfig((0.0, 0.5, 1.2))

    @pytest.mark.parametrize(
        "xs, message",
        [
            ((0, 1), "need at least 3 points, got 2"),
            ((-1, 1, 2), "positions must lie in [0, 1)"),
            ((0, 1, 10), "positions must lie in [0, 1)"),
            ((0, 2, 2), "positions must be strictly increasing"),
            ((0, 3, 2), "positions must be strictly increasing"),
        ],
    )
    def test_from_units_rejects_like_the_public_constructor(self, xs, message):
        with pytest.raises(ValueError) as from_units:
            PointConfig._from_units(xs, 10)
        with pytest.raises(ValueError) as public:
            PointConfig(tuple(Fraction(x, 10) for x in xs))
        assert str(from_units.value) == str(public.value) == message

    def test_common_denominator_is_bounded_before_the_numerators(self, monkeypatch):
        # 3001 points 1/k, k = 10^6..10^6 + 3000: a 32128-bit common denominator
        points = [Fraction(1, k) for k in range(10**6, 10**6 + 3001)]
        message = f"need n * (bits of the common denominator) <= {geometry.MAX_EXACT_BITS}, got 3001 * 32128"
        assert len(message) < 200
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            PointConfig.from_points(points)
        # the same points fit under a bound just above their size
        monkeypatch.setattr(geometry, "MAX_EXACT_BITS", 3001 * 32128)
        assert PointConfig.from_points(points).n == 3001

    def test_common_denominator_bound_accepts_the_realizable_words_at_the_largest_n(self):
        # realize's units have about 3n bits: 1.2e7 bits in all at n = 2000, 2.4e7 for the plan's 2n positions
        w = words.run_word(realization.MAX_REALIZE_N)
        config = realization.realize(w)
        assert PointConfig(config.positions) == config
        assert realization.verify_bisector_layout(realization.plan_realization(w))

    def test_exactness_detection(self):
        assert EXAMPLE_EXACT.is_exact
        assert not EXAMPLE.is_exact

    def test_exactness_settled_at_construction(self):
        mixed = PointConfig((0, Fraction(1, 3), 0.5))
        assert not mixed.is_exact
        assert PointConfig((0, Fraction(1, 3), Fraction(1, 2))).is_exact
        # a stored field, yet invisible to repr, equality and hashing
        assert repr(EXAMPLE_EXACT) == f"PointConfig(positions={EXAMPLE_EXACT.positions!r})"
        same = PointConfig(EXAMPLE_EXACT.positions)
        assert same == EXAMPLE_EXACT and hash(same) == hash(EXAMPLE_EXACT)

    def test_float_configuration_computes_in_floats_only(self):
        mixed = PointConfig((0, Fraction(1, 10), 0.3))
        assert mixed.positions == (0, Fraction(1, 10), 0.3) and not mixed.is_exact
        floats = PointConfig((0.0, 0.1, 0.3))
        for read in (
            lambda cfg: geometry.arrangement(cfg).bisectors,
            lambda cfg: geometry.arrangement(cfg).boundaries,
            lambda cfg: geometry.arrangement(cfg).dots,
            lambda cfg: region_stats(cfg, (0.5, 1)).lengths,
            lambda cfg: (geometry.genericity_margin(cfg),),
        ):
            got = read(mixed)
            assert all(type(x) is float for x in got) and _hexes(got) == _hexes(read(floats))
        assert occupancy_word(mixed) == occupancy_word(floats) and ocdc(mixed) == ocdc(floats)

    def test_mixed_input_that_rounds_together_is_rejected_at_construction(self):
        tiny = Fraction(1, 10**30)
        with pytest.raises(ValueError, match="strictly increasing"):
            PointConfig((0.0, Fraction(1, 3), Fraction(1, 3) + tiny))
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            PointConfig((0.0, 0.5, 1 - tiny))
        # exact input keeps such values apart
        assert PointConfig((0, Fraction(1, 3), Fraction(1, 3) + tiny, 1 - tiny)).is_exact

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            PointConfig.from_strings(["0", "1/0", "1/2"])

    # ("0", "1/0", "1/2") raised ZeroDivisionError, and text was parsed with no bound on its exponent
    @pytest.mark.parametrize("positions", [("0", "1/0", "1/2"), (0, "1/3", Fraction(1, 2)), (0.0, "0.25", 0.5)])
    def test_text_positions_are_a_value_error_pointing_to_from_strings(self, positions):
        with pytest.raises(ValueError, match=r"^need numbers as positions, got text; read text with PointConfig\.from_strings$"):
            PointConfig(positions)


NUMBER_RULE = "need a decimal or p/q with |exponent| < 10**5 and at most 4300 digits per part, got"


class TestFractionOfString:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("1e99999", 10**99999),
            ("-1E-0099999", -Fraction(1, 10**99999)),
            ("2.5e1_0", 25 * 10**9),
            (" 1/3 ", Fraction(1, 3)),
            ("1/" + "9" * 4300, Fraction(1, 10**4300 - 1)),
        ],
        ids=["largest-exponent", "least-exponent", "underscores", "spaces", "most-digits"],
    )
    def test_reads_exactly(self, text, value):
        assert geometry._fraction_of_string(text) == value

    @pytest.mark.parametrize(
        "text",
        ["1e100000", "1e-100000", "1E+1_00000", "1e30000000", "1e" + "9" * 5000, "1e\u0669" + "0" * 6],
        ids=["least", "negative", "underscores", "12-characters", "beyond-text", "arabic-indic-digits"],
    )
    def test_exponent_of_10_to_the_5_is_rejected_before_the_power_is_built(self, monkeypatch, text):
        def no_power(*args):
            raise AssertionError("built the number before checking its exponent")

        monkeypatch.setattr(geometry, "Fraction", no_power)
        with pytest.raises(ValueError) as raised:
            geometry._fraction_of_string(text)
        assert str(raised.value) == f"{NUMBER_RULE} {words._shown(text)}"

    @pytest.mark.parametrize(
        "text",
        ["", "1/3x", "1e", "0x10", "x" * 100_000, "1/" + "9" * 4301, "1." + "9" * 4301, "1/0", "0/0"],
        ids=["empty", "trailing", "bare-e", "hex", "long", "denominator-digits", "decimal-digits", "1/0", "0/0"],
    )
    def test_every_failure_is_a_short_value_error(self, text):
        with pytest.raises(ValueError) as raised:
            geometry._fraction_of_string(text)
        rule = "zero denominator in" if text.endswith("/0") else NUMBER_RULE
        assert str(raised.value) == f"{rule} {words._shown(text)}" and len(str(raised.value)) < 200

    def test_string_roundtrip(self):
        cfg = PointConfig.from_strings(["0", "1/10", "0.3"])
        assert cfg.is_exact
        assert cfg.positions == (Fraction(0), Fraction(1, 10), Fraction(3, 10))
        assert PointConfig.from_strings(cfg.to_strings()) == cfg

    def test_from_points_wraps_and_sorts(self):
        cfg = PointConfig.from_points([1.2, 0.9, 0.5])
        assert cfg.positions == (pytest.approx(0.2), 0.5, 0.9)

    def test_from_points_takes_a_float_just_below_0_to_0(self):
        # -1e-17 % 1 is 1.0 in floats, outside [0, 1)
        assert PointConfig.from_points([-1e-17, 0.3, 0.6]).positions == (0.0, 0.3, 0.6)
        reflected = PointConfig.from_points(-p for p in (1e-17, 0.3, 0.6))
        assert reflected.positions == (0.0, pytest.approx(0.4), pytest.approx(0.7))

    def test_from_points_keeps_fractions_exact(self):
        cfg = PointConfig.from_points([Fraction(-1, 3), Fraction(1, 2), 2])
        assert cfg.positions == (Fraction(0), Fraction(1, 2), Fraction(2, 3))
        assert all(type(p) is Fraction for p in cfg.positions)


class TestOccupancyWord:
    def test_worked_example(self):
        assert occupancy_word(EXAMPLE) == (1, 1, 0, 1, 0, 0)
        assert occupancy_word(EXAMPLE_EXACT) == (1, 1, 0, 1, 0, 0)

    def test_sampled_signatures_interlace(self):
        rng = np.random.default_rng(7)
        for n in range(3, 9):
            for _ in range(200):
                w = occupancy_word(sample_uniform_config(n, rng))
                assert words.is_interlacing(words.signature(w))

    def test_rotation_equivariance_at_bracelet_level(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            cfg = sample_uniform_config(5, rng)
            base = words.canonical_bracelet(occupancy_word(cfg))
            delta = float(rng.random())
            rotated = PointConfig.from_points(p + delta for p in cfg.positions)
            assert words.canonical_bracelet(occupancy_word(rotated)) == base

    def test_reflection_equivariance_at_bracelet_level(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            cfg = sample_uniform_config(6, rng)
            base = words.canonical_bracelet(occupancy_word(cfg))
            reflected = PointConfig.from_points(-p for p in cfg.positions)
            assert words.canonical_bracelet(occupancy_word(reflected)) == base

    def test_exact_and_float_agree_when_margin_is_clear(self):
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(100):
            exact = random_exact_config(rng, 5)
            approx = PointConfig(tuple(float(p) for p in exact.positions))
            if float(geometry.genericity_margin(exact)) > 1e-9:
                assert occupancy_word(approx) == occupancy_word(exact)
                checked += 1
        assert checked > 50

    def test_nongeneric_rejected(self):
        # second point antipodal to the first
        cfg = PointConfig((Fraction(0), Fraction(1, 2), Fraction(3, 4)))
        with pytest.raises(NonGenericConfiguration):
            occupancy_word(cfg)
        close = PointConfig((0.0, 0.25 + 1e-14, 0.25 + 2e-14))
        with pytest.raises(NonGenericConfiguration):
            occupancy_word(close)


class TestArrangement:
    def test_worked_example(self):
        arr = arrangement(EXAMPLE)
        assert arr.bisectors == (pytest.approx(0.05), pytest.approx(0.2), pytest.approx(0.65))
        assert arr.antipodal_bisectors == (
            pytest.approx(0.55),
            pytest.approx(0.7),
            pytest.approx(0.15),
        )
        assert len(arr.boundaries) == 6 and len(arr.dots) == 6

    def test_antipodal_boundary_symmetry(self):
        arr = arrangement(EXAMPLE_EXACT)
        shifted = sorted((b + Fraction(1, 2)) % 1 for b in arr.boundaries)
        assert shifted == list(arr.boundaries)

    def test_one_point_between_consecutive_bisectors(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            cfg = sample_uniform_config(6, rng)
            # the arrangement reads the frame with p_0 at 0
            pos = [p - cfg.positions[0] for p in cfg.positions]
            ls = sorted(arrangement(cfg).bisectors)
            for a, b in zip(ls, ls[1:] + [ls[0] + 1]):
                inside = sum(1 for p in list(pos) + [p + 1 for p in pos] if a < p < b)
                assert inside == 1

    def test_signature_from_arrangement_matches_word(self):
        rng = np.random.default_rng(12)
        for n in (3, 5, 7):
            for _ in range(30):
                cfg = sample_uniform_config(n, rng)
                arr = arrangement(cfg)
                counts = [0] * (2 * n)
                for q in arr.dots:
                    counts[bisect.bisect_right(arr.boundaries, q) % (2 * n)] += 1
                assert counts[:n] == counts[n:]
                assert tuple(counts[:n]) == words.signature(occupancy_word(cfg))


class TestOcdc:
    def test_worked_example(self):
        entries = ocdc(EXAMPLE)
        assert entries == ("BL", "BL", "BR")
        assert entries[0][0] == "B"

    def test_first_entry_always_black(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            assert ocdc(sample_uniform_config(5, rng))[0][0] == "B"

    def test_length_is_n(self):
        rng = np.random.default_rng(14)
        for n in (3, 4, 6):
            assert len(ocdc(sample_uniform_config(n, rng))) == n

    def test_antipodal_pair_rejected(self):
        cfg = PointConfig((Fraction(0), Fraction(1, 5), Fraction(1, 2)))
        with pytest.raises(NonGenericConfiguration):
            ocdc(cfg)


class TestDirectionPatterns:
    def test_worked_example(self):
        assert verify_direction_patterns(EXAMPLE)
        assert verify_direction_patterns(EXAMPLE_EXACT)

    def test_random_configurations(self):
        rng = np.random.default_rng(15)
        for n in range(3, 9):
            for _ in range(50):
                assert verify_direction_patterns(sample_uniform_config(n, rng))

    def test_on_realized_nine_point_word(self):
        w = (0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1)
        cfg = realization.realize(w)
        assert verify_direction_patterns(cfg)
        got = words.signature(occupancy_word(cfg))
        sig = words.signature(w)
        assert got in {sig[k:] + sig[:k] for k in range(len(sig))}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.deferred(lambda: realizable_words()))
    def test_on_realized_words(self, w):
        assert verify_direction_patterns(realization.realize(w))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.deferred(lambda: exact_positions(max_n=24)))
    # the point at 1/50 has two white dots at distance 3/25, neither nearest
    @example([Fraction(1, 50), Fraction(2, 5), Fraction(47, 100), Fraction(16, 25)])
    # the dot at 0 and the white dot at 99/100 are each other's nearest, across 0
    @example([Fraction(0), Fraction(49, 100), Fraction(3, 5)])
    def test_nearest_opposite_dot_is_the_literal_minimum(self, pos):
        cfg = PointConfig(tuple(pos))
        assume(geometry.genericity_margin(cfg) > 0)
        f = geometry._generic_frame(cfg)
        dots = geometry._colored_dots(f)
        for (q, color), (_, nearest) in zip(dots, geometry._dot_directions(dots, f.circle)):
            opposite = [x for x, c in dots if c != color]
            assert nearest == min(opposite, key=lambda x: min((x - q) % f.circle, (q - x) % f.circle))
        assert len(ocdc(cfg)) == len(pos)
        assert verify_direction_patterns(cfg)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(0, 29), unique=True).map(sorted),
        st.integers(0, 29),
        st.integers(0, 29),
    )
    @example([3, 7, 20], 25, 5)  # wraps through 0
    @example([3, 7, 20], 7, 7)  # empty, from a boundary
    @example([0, 7, 29], 29, 0)  # wraps, ends on both extremes
    @example([], 4, 1)
    def test_arc_indices_match_literal_scan(self, bnd, a, b):
        circle = 30
        inside = [j for j, x in enumerate(bnd) if 0 < (x - a) % circle < (b - a) % circle]
        want = sorted(inside, key=lambda j: (bnd[j] - a) % circle)  # counterclockwise from a
        assert geometry._arc_indices(bnd, a, b) == want


def _check_gap_rule(cfg):
    """Each cyclically consecutive dot pair (a, b) has (region[b] - region[a])
    mod 2n boundaries strictly between its dots."""
    f = geometry._generic_frame(cfg)
    m = 2 * f.n
    bnd = f.boundaries()
    qs = [q for q, _ in geometry._colored_dots(f)]
    region = [geometry._region_index(bnd, q, m) for q in qs]
    for a in range(m):
        b = (a + 1) % m
        assert len(geometry._arc_indices(bnd, qs[a], qs[b])) == (region[b] - region[a]) % m


class TestGapRule:
    def test_random_float_configurations(self):
        rng = np.random.default_rng(25)
        for n in range(3, 13):
            for _ in range(30):
                _check_gap_rule(sample_uniform_config(n, rng))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.deferred(lambda: exact_positions(max_n=24)))
    def test_exact_configurations(self, pos):
        cfg = PointConfig(tuple(pos))
        assume(geometry.genericity_margin(cfg) > 0)
        _check_gap_rule(cfg)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.deferred(lambda: realizable_words()))
    def test_realized_words(self, w):
        _check_gap_rule(realization.realize(w))


class TestDirectionPatternsMatchOracle:
    def test_random_float_configurations(self):
        rng = np.random.default_rng(26)
        for n in range(3, 13):
            for _ in range(30):
                cfg = sample_uniform_config(n, rng)
                assert verify_direction_patterns(cfg) is direction_patterns_by_region_lists(cfg)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.deferred(lambda: realizable_words()))
    def test_realized_words(self, w):
        cfg = realization.realize(w)
        assert verify_direction_patterns(cfg) is direction_patterns_by_region_lists(cfg)


def _flip_side(k):
    def directions(dots, circle, original=geometry._dot_directions):
        out = original(dots, circle)
        side, nearest = out[k]
        out[k] = ("L" if side == "R" else "R", nearest)
        return out

    return "_dot_directions", directions


def _nearest_is_itself(k):
    def directions(dots, circle, original=geometry._dot_directions):
        out = original(dots, circle)
        out[k] = (out[k][0], dots[k][0])
        return out

    return "_dot_directions", directions


def _flip_color(k):
    def colored(f, original=geometry._colored_dots):
        out = original(f)
        q, color = out[k]
        out[k] = (q, 1 - color)
        return out

    return "_colored_dots", colored


def _move_dots(regions):
    """Move dot k to the start of region ``regions[k]``, keeping its place in the list and its color."""

    def colored(f, original=geometry._colored_dots):
        out = original(f)
        bnd = f.boundaries()  # region j starts at boundary j - 1
        for k, j in regions.items():
            out[k] = (bnd[j - 1] + 1, out[k][1])
        return out

    return "_colored_dots", colored


def _set_sides(sides):
    """Set the look side of every dot, keeping its nearest opposite-color dot."""

    def directions(dots, circle, original=geometry._dot_directions):
        return [(side, nearest) for side, (_, nearest) in zip(sides, original(dots, circle))]

    return "_dot_directions", directions


class TestDirectionPatternsDetectBrokenInput:
    """Each broken input makes the check fail with its own logged reason.

    On the realized nine-point word below, dots 0 and 17 share region 0,
    dot 1 is the L of an LR pair and dot 3 the R of an RL pair that holds no
    two-dot region.
    """

    WORD = (0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1)

    @pytest.mark.parametrize(
        "patch, reason",
        [
            (_flip_side(0), "two-dot region 0 is not an RL pair"),
            (_flip_side(1), "LR gap holds 1 boundaries"),
            (_flip_side(3), "RL pattern count != number of two-dot regions"),
            (_nearest_is_itself(0), "region 0 dots are not mutual nearest"),
            (_flip_color(0), "two-dot region 0 has equal colors"),
        ],
        ids=["side-of-paired-dot", "side-of-lone-dot", "extra-rl-pair", "nearest", "color"],
    )
    def test_broken_dots_fail(self, monkeypatch, caplog, patch, reason):
        cfg = realization.realize(self.WORD)
        assert verify_direction_patterns(cfg)
        monkeypatch.setattr(geometry, *patch)
        with caplog.at_level(logging.WARNING, logger=geometry.logger.name):
            assert verify_direction_patterns(cfg) is False
        assert reason in caplog.text

    @pytest.mark.parametrize(
        "patch",
        [
            _flip_side(0),
            _flip_side(1),
            _flip_side(3),
            _nearest_is_itself(0),
            _flip_color(0),
        ],
        ids=["side-of-paired-dot", "side-of-lone-dot", "extra-rl-pair", "nearest", "color"],
    )
    def test_broken_dots_log_the_oracle_reason(self, monkeypatch, caplog, patch):
        cfg = realization.realize(self.WORD)
        monkeypatch.setattr(geometry, *patch)
        with caplog.at_level(logging.WARNING):
            got = verify_direction_patterns(cfg)
            want = direction_patterns_by_region_lists(cfg)
        assert got is want is False
        reasons = {
            name: [r.getMessage() for r in caplog.records if r.name == name]
            for name in (geometry.logger.name, pattern_logger.name)
        }
        assert len(reasons[geometry.logger.name]) == 1
        assert reasons[geometry.logger.name] == reasons[pattern_logger.name]

    @pytest.mark.parametrize(
        "patches, reason",
        [
            ([_move_dots({1: 2})], "antipodal regions have different types"),
            (
                # dots 5 and 7 join dot 2 in region 3, and dots 14 and 16 join
                # dot 11 in region 12, each away from its neighbours in the
                # list: two three-dot regions, so six empty ones but two LR pairs
                [_move_dots({5: 3, 7: 3, 14: 12, 16: 12}), _set_sides("LLLLLLLLRLLLLLLLLR")],
                "LR pattern count != number of empty regions",
            ),
            (
                # dots 9 and 17 move into the empty regions 8 and 17; dot 9
                # keeps its place in the list, between the LR pair (7, 8)
                [_move_dots({9: 8, 17: 17}), _set_sides("LLRRRLLLRRRRRRLLLL")],
                "region 8 between LR pair is not empty",
            ),
            (
                # dot k alone in region k: no empty and no two-dot region
                [_move_dots({k: k for k in range(1, 18)}), _set_sides("L" * 18)],
                "no two-dot region",
            ),
        ],
        ids=["antipodal-types", "lr-count", "lr-gap-not-empty", "no-two-dot-region"],
    )
    def test_moved_dots_fail_with_the_oracle_reason(self, monkeypatch, caplog, patches, reason):
        cfg = realization.realize(self.WORD)
        for patch in patches:
            monkeypatch.setattr(geometry, *patch)
        with caplog.at_level(logging.WARNING):
            got = verify_direction_patterns(cfg)
            want = direction_patterns_by_region_lists(cfg)
        assert got is want is False
        reasons = {
            name: [r.getMessage() for r in caplog.records if r.name == name]
            for name in (geometry.logger.name, pattern_logger.name)
        }
        assert reasons[geometry.logger.name] == reasons[pattern_logger.name] == [f"pattern check: {reason}"]

    def test_non_interlacing_signature_fails(self, monkeypatch, caplog):
        cfg = realization.realize(self.WORD)
        monkeypatch.setattr(words, "is_interlacing", lambda sig: False)
        with caplog.at_level(logging.WARNING, logger=geometry.logger.name):
            assert verify_direction_patterns(cfg) is False
        assert "does not interlace" in caplog.text


class TestRegionStats:
    def test_worked_example(self):
        rs = region_stats(EXAMPLE_EXACT, t_grid=[Fraction(1, 2), 1])
        assert rs.types == (2, 1, 0, 2, 1, 0)
        assert rs.occupied == (1, 1, 0, 1, 0, 0)
        assert rs.region_counts == (2, 2, 2)
        assert rs.length_totals == (Fraction(1, 10), Fraction(1, 5), Fraction(7, 10))
        assert rs.empty_length == Fraction(1, 5)
        assert sum(rs.lengths) == 1

    def test_h2_is_two_for_triangles(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            assert region_stats(sample_uniform_config(3, rng)).region_counts[2] == 2

    def test_aggregate_identities(self):
        rng = np.random.default_rng(17)
        for n in (3, 5, 8):
            for _ in range(30):
                rs = region_stats(sample_uniform_config(n, rng))
                h0, h1, h2 = rs.region_counts
                assert h0 == h2
                assert h1 == 2 * n - 2 * h2
                assert math.isclose(sum(rs.length_totals), 1.0)
                l0, l1, _ = rs.length_totals
                assert math.isclose(rs.empty_length, l0 + l1 / 2)
                assert all(b <= 1 for b in rs.occupied)

    def test_partial_curves(self):
        rng = np.random.default_rng(18)
        cfg = sample_uniform_config(6, rng)
        rs = region_stats(cfg, t_grid=[0.0, 0.4, 1.0])
        for k in (0, 1, 2):
            assert rs.h_curves[k][0] == 0
            assert rs.l_curves[k][0] == 0
            assert rs.h_curves[k][-1] == rs.region_counts[k]
            assert math.isclose(rs.l_curves[k][-1], rs.length_totals[k])
            assert rs.h_curves[k] == tuple(sorted(rs.h_curves[k]))

    def test_json_shape(self):
        rs = region_stats(EXAMPLE_EXACT, t_grid=[1])
        d = rs.to_json_dict()
        assert set(d) == {"types", "lengths", "H", "L", "Le", "h_grid", "l_grid"}
        assert d["Le"] == 0.2

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_realized_configurations_match_the_arc_first_oracle(self, n):
        # every word up to n = 6, then every 11th; the grid holds 0, 1/2, 1 and a float
        grid = (0, Fraction(1, 2), 1, 0.3)
        ws = list(enumeration.enumerate_words(n))
        for w in ws if n <= 6 else ws[::11]:
            cfg = realization.realize(w)
            rs = region_stats(cfg, grid)
            assert rs == region_stats_by_fractions(cfg, grid), words.word_to_string(w)
            returned = (*rs.lengths, *rs.length_totals, rs.empty_length, *sum(rs.l_curves, ()))
            assert all(type(x) is Fraction for x in returned)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.deferred(lambda: exact_positions(max_n=24)), st.floats(0, 1))
    def test_exact_configurations_match_the_arc_first_oracle(self, pos, t):
        cfg = PointConfig(tuple(pos))
        assume(geometry.genericity_margin(cfg) > 0)
        # two grid values fall exactly on boundaries
        grid = (0, Fraction(1, 2), 1, t, *arrangement(cfg).boundaries[:2])
        assert region_stats(cfg, grid) == region_stats_by_fractions(cfg, grid)

    def test_a_type_without_regions_totals_zero_of_the_input_kind(self):
        # signature 2020: no type-1 region, so its total and its curve are zero
        exact = realization.realize((1, 0, 1, 0, 1, 0, 1, 0))
        floats = PointConfig(tuple(float(p) for p in exact.positions))
        grid = (0, 0.5, 1)
        for cfg, zero in ((exact, Fraction(0)), (floats, 0.0)):
            rs = region_stats(cfg, grid)
            assert rs.region_counts[1] == 0
            for x in (rs.length_totals[1], *rs.l_curves[1]):
                assert type(x) is type(zero) and x == zero
            assert type(rs.l_curves[0][0]) is type(zero)

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([[0.5, 0.6]], f"{T_RULE} [0.5, 0.6] at position 0"),
            (0.5, f"{T_RULE} 0.5"),
            ([0.5, [0.5]], f"{T_RULE} [0.5] at position 1"),
            (["0.5"], f"{T_RULE} '0.5' at position 0"),
            ("0.5", f"{T_RULE} '0' at position 0"),
            ((0.5, Fraction(5, 4), np.float64(-1)), f"{T_RULE} Fraction(5, 4) at position 1"),
            ((1, 10**400), f"{T_RULE} a value of type int at position 1"),
            ((0.5, 10**5000), f"{T_RULE} a value of type int at position 1"),
            ([0.5] * (geometry.MAX_T_GRID - 1) + [2], f"{T_RULE} 2 at position {geometry.MAX_T_GRID - 1}"),
            (["0.5"] * geometry.MAX_T_GRID, f"{T_RULE} '0.5' at position 0"),
            ([2.0] * (geometry.MAX_T_GRID + 1), f"{T_RULE} {geometry.MAX_T_GRID + 1} values"),
        ],
        ids=[
            "nested",
            "scalar",
            "nested-one",
            "string-item",
            "string",
            "out-of-range",
            "beyond-floats",
            "beyond-text",
            "long-out-of-range",
            "long-strings",
            "too-long",
        ],
    )
    @pytest.mark.parametrize(
        "read",
        [lambda grid: region_stats(EXAMPLE, grid), lambda grid: equidistribution_paths(4, grid, 10, 0)],
        ids=["region_stats", "equidistribution_paths"],
    )
    def test_t_grid_must_be_a_flat_list_of_numbers_in_range(self, monkeypatch, read, grid, message):
        def no_draws(*args):
            raise AssertionError("drew before checking the t-grid")

        monkeypatch.setattr(random_points, "batch_rng", no_draws)
        with pytest.raises(ValueError) as err:
            read(grid)
        # one offence named, so the message stays short however long the grid
        assert str(err.value) == message and len(message) < 200


def chord(a, b):
    d = abs(b - a)
    return 2 * math.sin(math.pi * min(d, 1 - d))


class TestTrianglePattern:
    def test_sorted_side_lengths_fix_the_gaps(self):
        # relabel A, B, C by increasing chord length; then A,B are adjacent,
        # B,C have one empty region between them and C,A two (on one side)
        rng = np.random.default_rng(19)
        done = 0
        while done < 40:
            cfg = sample_uniform_config(3, rng)
            p = cfg.positions
            pairs = sorted(
                [(chord(p[0], p[1]), (0, 1)), (chord(p[1], p[2]), (1, 2)), (chord(p[0], p[2]), (0, 2))]
            )
            lengths = [round(c, 12) for c, _ in pairs]
            if len(set(lengths)) < 3:
                continue
            (_, ab), (_, bc), (_, ca) = pairs
            b_idx = set(ab) & set(bc)
            a_idx = set(ab) - b_idx
            c_idx = set(bc) - b_idx
            a, b, c = a_idx.pop(), b_idx.pop(), c_idx.pop()
            assert set(ca) == {c, a}

            word = occupancy_word(cfg)
            region_of = {}
            m = 6
            bnd = arrangement(cfg).boundaries
            for i, q in enumerate(p - cfg.positions[0] for p in cfg.positions):
                region_of[i] = geometry._region_index(bnd, q, m)

            def gap(i, j):
                # empty regions from point i to point j counterclockwise
                return (region_of[j] - region_of[i]) % m - 1

            assert min(gap(a, b), gap(b, a)) == 0
            assert min(gap(b, c), gap(c, b)) == 1
            assert min(gap(c, a), gap(a, c)) == 2
            assert sorted(word) == [0, 0, 0, 1, 1, 1]
            done += 1


@st.composite
def exact_positions(draw, max_denominators=(16, 1000, 10**6, 2**70), max_n=64):
    """3..max_n distinct exact positions with random denominators; the bound
    on the denominators is drawn too, and small ones make ties common."""
    max_den = draw(st.sampled_from(max_denominators))
    n = draw(st.integers(3, min(max_n, 12 if max_den == 16 else 64)))
    fracs = st.tuples(st.integers(1, max_den), st.integers(0, max_den - 1)).map(
        lambda dk: Fraction(dk[1] % dk[0], dk[0])
    )
    return sorted(draw(st.lists(fracs, min_size=n, max_size=n, unique=True)))


@st.composite
def realizable_words(draw, max_n=64):
    """A word of length 2n whose signature interlaces: specials (both halves
    equal) alternate 0/2 from a drawn phase, other letters split 10 or 01."""
    n = draw(st.integers(3, max_n))
    letters = draw(st.lists(st.sampled_from("s10"), min_size=n, max_size=n))
    specials = [i for i, c in enumerate(letters) if c == "s"]
    if len(specials) % 2:
        letters[specials.pop()] = "1"
    if not specials:
        letters[0] = letters[1] = "s"
    two = draw(st.booleans())
    first, second = [], []
    for c in letters:
        if c == "s":
            first.append(int(two))
            second.append(int(two))
            two = not two
        else:
            first.append(int(c == "1"))
            second.append(int(c == "0"))
    return tuple(first + second)


class TestExactAgainstFractionOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(exact_positions())
    def test_words_margins_and_boundaries(self, pos):
        cfg = PointConfig(tuple(pos))
        # exact margins do not depend on the frame
        margin = geometry.genericity_margin(cfg)
        assert type(margin) is Fraction and margin == genericity_margin_by_fractions(pos)
        want = occupancy_word_by_fractions(pos)
        if want is None:
            with pytest.raises(NonGenericConfiguration):
                occupancy_word(cfg)
            with pytest.raises(NonGenericConfiguration):
                arrangement(cfg)
        else:
            assert occupancy_word(cfg) == want
            rotated = [p - pos[0] for p in pos]
            arr = arrangement(cfg)
            assert arr.bisectors == tuple(bisector_positions_by_fractions(rotated))
            assert arr.boundaries == tuple(region_boundaries_by_fractions(rotated))
            assert all(type(b) is Fraction for b in arr.bisectors + arr.boundaries)
        if margin == 0:
            with pytest.raises(NonGenericConfiguration):
                geometry.ensure_generic(cfg)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        exact_positions(max_n=62),
        st.sampled_from(["antipodal points", "point on antipodal bisector", "antipodal bisectors"]),
        st.integers(0, 63),
    )
    def test_ties_built_by_construction_raise(self, pos, kind, pick):
        i = pick % len(pos)
        a, b = pos[i], pos[(i + 1) % len(pos)]
        mid = ((a + b + (1 if b < a else 0)) / 2) % 1
        half = Fraction(1, 2)
        if kind == "antipodal points":
            extra = [(a + half) % 1]
        elif kind == "point on antipodal bisector":
            extra = [(mid + half) % 1]
        else:
            # a consecutive pair straddling the antipode of the bisector of (a, b)
            target = (mid + half) % 1
            gap = min(min((x - target) % 1, (target - x) % 1) for x in pos)
            assume(gap > 0)
            extra = [(target - gap / 2) % 1, (target + gap / 2) % 1]
        assume(not set(extra) & set(pos))
        tied = sorted(pos + extra)
        assert genericity_margin_by_fractions(tied) == 0
        cfg = PointConfig(tuple(tied))
        assert geometry.genericity_margin(cfg) == 0
        for fn in (geometry.ensure_generic, occupancy_word, arrangement, region_stats, ocdc):
            with pytest.raises(NonGenericConfiguration):
                fn(cfg)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        exact_positions(max_denominators=(1000, 10**6, 2**70)),
        st.tuples(st.integers(1, 10**9), st.integers(0, 10**9)).map(lambda dk: Fraction(dk[1] % dk[0], dk[0])),
    )
    def test_rotation_and_reflection_equivariance(self, pos, delta):
        cfg = PointConfig(tuple(pos))
        assume(geometry.genericity_margin(cfg) > 0)
        base = words.canonical_bracelet(occupancy_word(cfg))
        rotated = PointConfig.from_points(p + delta for p in cfg.positions)
        assert words.canonical_bracelet(occupancy_word(rotated)) == base
        reflected = PointConfig.from_points(-p for p in cfg.positions)
        assert words.canonical_bracelet(occupancy_word(reflected)) == base

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(realizable_words())
    def test_realize_round_trips(self, w):
        n = len(w) // 2
        assert is_interlacing_literal(tuple(w[i] + w[i + n] for i in range(n)))
        cfg = realization.realize(w)
        got = occupancy_word(cfg)
        assert got in {w[i:] + w[:i] for i in range(len(w))}
        assert got == occupancy_word_by_fractions(cfg.positions)


def _rejects(read, cfg) -> bool:
    try:
        read(cfg)
    except NonGenericConfiguration:
        return True
    return False


class TestOneGenericityDecision:
    """Float triples (a, b, c) with c within about 1e-12 of the antipodal
    bisector of a and b, so that rounding decides which side of
    ``FLOAT_TIE_TOLERANCE`` the margin falls on."""

    READERS = (occupancy_word, arrangement, ocdc, region_stats, verify_direction_patterns)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(0, 0.45), st.floats(0, 0.45), st.sampled_from((-1, 1)), st.floats(-3e-16, 3e-16))
    # the margin is 9.99978e-13 with p_0 at 0, and 1.00009e-12 read unrotated
    @example(0.14530105942205312, 0.4041498492826533, 1, 1e-16)
    def test_ensure_generic_rejects_exactly_what_the_readers_reject(self, a, b, sign, delta):
        a, b = sorted((a, b))
        c = (a + b + 1) / 2 + sign * (1e-12 + delta)
        assume(a < b < c < 1)
        cfg = PointConfig((a, b, c))
        rejected = _rejects(geometry.ensure_generic, cfg)
        assert [_rejects(read, cfg) for read in self.READERS] == [rejected] * len(self.READERS)
        assert (geometry.genericity_margin(cfg) < geometry.FLOAT_TIE_TOLERANCE) == rejected
        if not rejected:
            assert max(occupancy_word(cfg)) == 1
            assert len(ocdc(cfg)) == 3
            assert verify_direction_patterns(cfg)


def _hexes(xs):
    return [float(x).hex() for x in xs]


def _float_path_payload(n):
    rng = np.random.default_rng(3000 + n)
    rows = []
    for _ in range(200 if n < 64 else 20):
        cfg = sample_uniform_config(n, rng)
        rs = region_stats(cfg, t_grid=[0.0, 0.25, 0.5, 1.0])
        arr = arrangement(cfg)
        rows.append(
            {
                "margin": geometry.genericity_margin(cfg).hex(),
                "word": list(occupancy_word(cfg)),
                "arrangement": [
                    _hexes(arr.bisectors),
                    _hexes(arr.antipodal_bisectors),
                    _hexes(arr.boundaries),
                    _hexes(arr.dots),
                ],
                "lengths": _hexes(rs.lengths),
                "totals": _hexes(rs.length_totals) + [float(rs.empty_length).hex()],
                "curves": [list(h) for h in rs.h_curves] + [_hexes(l) for l in rs.l_curves],
                "ocdc": list(ocdc(cfg)),
            }
        )
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


# sha256 of every float result above, bit for bit (float.hex).  The fields
# other than the margin hash as recorded on the Fraction-based implementation
# that the circle-unit code replaced; the margin is read with p_0 at 0.
PINNED_FLOAT_PATH = {
    3: "2f8908467752e16f3ea99dbd7eb629c1f5b3717f25666bc3bbf85dcc905f22eb",
    8: "a66b6e1acee24a6cdb0bfa7d6167ce9d673a79551c22d1b30c9f4d97c903a82f",
    64: "7432f83a008c9621c0deafcb8b3eb06f5dd525a5455836b05dfcd4ec9da33ff6",
}


class TestPinnedFloatPath:
    @pytest.mark.parametrize("n", sorted(PINNED_FLOAT_PATH))
    def test_payload_is_bit_identical(self, n):
        assert _float_path_payload(n) == PINNED_FLOAT_PATH[n]
