import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bisector_words import geometry, realization, words
from bisector_words.geometry import (
    NonGenericConfiguration,
    PointConfig,
    arrangement,
    arrangement_signature,
    occupancy_word,
    ocdc,
    region_stats,
    verify_direction_patterns,
)

from oracles import (
    bisector_positions_by_fractions,
    genericity_margin_by_fractions,
    is_interlacing_literal,
    occupancy_word_by_fractions,
    region_boundaries_by_fractions,
)

EXAMPLE = PointConfig((0.0, 0.1, 0.3))
EXAMPLE_EXACT = PointConfig((Fraction(0), Fraction(1, 10), Fraction(3, 10)))


def random_config(rng, n):
    while True:
        try:
            cfg = PointConfig(tuple(sorted(float(x) for x in rng.random(n))))
            geometry.ensure_generic(cfg)
            return cfg
        except (ValueError, NonGenericConfiguration):
            continue


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

    def test_string_roundtrip(self):
        cfg = PointConfig.from_strings(["0", "1/10", "0.3"])
        assert cfg.is_exact
        assert cfg.positions == (Fraction(0), Fraction(1, 10), Fraction(3, 10))
        assert PointConfig.from_strings(cfg.to_strings()) == cfg

    def test_from_points_wraps_and_sorts(self):
        cfg = PointConfig.from_points([1.2, 0.9, 0.5])
        assert cfg.positions == (pytest.approx(0.2), 0.5, 0.9)


class TestOccupancyWord:
    def test_worked_example(self):
        assert occupancy_word(EXAMPLE) == (1, 1, 0, 1, 0, 0)
        assert occupancy_word(EXAMPLE_EXACT) == (1, 1, 0, 1, 0, 0)

    def test_sampled_signatures_interlace(self):
        rng = np.random.default_rng(7)
        for n in range(3, 9):
            for _ in range(200):
                w = occupancy_word(random_config(rng, n))
                assert words.is_interlacing(words.signature(w))

    def test_rotation_equivariance_at_bracelet_level(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            cfg = random_config(rng, 5)
            base = words.canonical_bracelet(occupancy_word(cfg))
            rotated = cfg.rotated(float(rng.random()))
            assert words.canonical_bracelet(occupancy_word(rotated)) == base

    def test_reflection_equivariance_at_bracelet_level(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            cfg = random_config(rng, 6)
            base = words.canonical_bracelet(occupancy_word(cfg))
            assert words.canonical_bracelet(occupancy_word(cfg.reflected())) == base

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
            cfg = random_config(rng, 6)
            ls = sorted(geometry.bisector_positions(cfg.rotated(-cfg.positions[0])))
            pos = cfg.rotated(-cfg.positions[0]).positions
            for a, b in zip(ls, ls[1:] + [ls[0] + 1]):
                inside = sum(1 for p in list(pos) + [p + 1 for p in pos] if a < p < b)
                assert inside == 1

    def test_signature_from_arrangement_matches_word(self):
        rng = np.random.default_rng(12)
        for n in (3, 5, 7):
            for _ in range(30):
                cfg = random_config(rng, n)
                assert arrangement_signature(arrangement(cfg)) == words.signature(
                    occupancy_word(cfg)
                )


class TestOcdc:
    def test_worked_example(self):
        entries = ocdc(EXAMPLE)
        assert entries == ("BL", "BL", "BR")
        assert entries[0][0] == "B"

    def test_first_entry_always_black(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            assert ocdc(random_config(rng, 5))[0][0] == "B"

    def test_length_is_n(self):
        rng = np.random.default_rng(14)
        for n in (3, 4, 6):
            assert len(ocdc(random_config(rng, n))) == n

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
                assert verify_direction_patterns(random_config(rng, n))

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
            assert region_stats(random_config(rng, 3)).region_counts[2] == 2

    def test_aggregate_identities(self):
        rng = np.random.default_rng(17)
        for n in (3, 5, 8):
            for _ in range(30):
                rs = region_stats(random_config(rng, n))
                h0, h1, h2 = rs.region_counts
                assert h0 == h2
                assert h1 == 2 * n - 2 * h2
                assert math.isclose(sum(rs.length_totals), 1.0)
                l0, l1, _ = rs.length_totals
                assert math.isclose(rs.empty_length, l0 + l1 / 2)
                assert all(b <= 1 for b in rs.occupied)

    def test_partial_curves(self):
        rng = np.random.default_rng(18)
        cfg = random_config(rng, 6)
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


def chord(a, b):
    return 2 * math.sin(math.pi * geometry.circle_distance(a, b))


class TestTrianglePattern:
    def test_sorted_side_lengths_fix_the_gaps(self):
        # relabel A, B, C by increasing chord length; then A,B are adjacent,
        # B,C have one empty region between them and C,A two (on one side)
        rng = np.random.default_rng(19)
        done = 0
        while done < 40:
            cfg = random_config(rng, 3)
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
            bnd = geometry.region_boundaries(cfg.rotated(-cfg.positions[0]))
            pos0 = cfg.rotated(-cfg.positions[0]).positions
            for i, q in enumerate(pos0):
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
        assert geometry.bisector_positions(cfg) == tuple(bisector_positions_by_fractions(pos))
        bnd = geometry.region_boundaries(cfg)
        assert bnd == tuple(region_boundaries_by_fractions(pos))
        assert all(type(b) is Fraction for b in bnd)
        margin = geometry.genericity_margin(cfg)
        assert type(margin) is Fraction and margin == genericity_margin_by_fractions(pos)
        want = occupancy_word_by_fractions(pos)
        if want is None:
            with pytest.raises(NonGenericConfiguration):
                occupancy_word(cfg)
        else:
            assert occupancy_word(cfg) == want
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
        assert words.canonical_bracelet(occupancy_word(cfg.rotated(delta))) == base
        assert words.canonical_bracelet(occupancy_word(cfg.reflected())) == base

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(realizable_words())
    def test_realize_round_trips(self, w):
        n = len(w) // 2
        assert is_interlacing_literal(tuple(w[i] + w[i + n] for i in range(n)))
        cfg = realization.realize(w)
        got = occupancy_word(cfg)
        assert got in set(words.cyclic_shifts(w))
        assert got == occupancy_word_by_fractions(cfg.positions)


def _hexes(xs):
    return [float(x).hex() for x in xs]


def _float_path_payload(n):
    rng = np.random.default_rng(3000 + n)
    rows = []
    for _ in range(200 if n < 64 else 20):
        cfg = random_config(rng, n)
        rs = region_stats(cfg, t_grid=[0.0, 0.25, 0.5, 1.0])
        arr = arrangement(cfg)
        rows.append(
            {
                "margin": geometry.genericity_margin(cfg).hex(),
                "boundaries": _hexes(geometry.region_boundaries(cfg)),
                "word": list(occupancy_word(cfg)),
                "critical": _hexes(geometry.critical_values(cfg)),
                "bisectors": _hexes(geometry.bisector_positions(cfg)),
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


# sha256 of every float result above, bit for bit (float.hex), recorded on
# the Fraction-based implementation that the circle-unit code replaced
PINNED_FLOAT_PATH = {
    3: "b549e0e378372b8532c3c43dbc4549344f2bd2dd7d780928c19cfeebe52452a7",
    8: "d46e48b8baee72331532dbec698282582240eb4a3514b03be544a8f7b859e369",
    64: "ed651d36c044aa08b0a4860bf5edcf159a6bb36d6570baa15a45f0c4f69414f1",
}


class TestPinnedFloatPath:
    @pytest.mark.parametrize("n", sorted(PINNED_FLOAT_PATH))
    def test_payload_is_bit_identical(self, n):
        assert _float_path_payload(n) == PINNED_FLOAT_PATH[n]
