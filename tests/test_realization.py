import dataclasses
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from bisector_words import enumeration, geometry, realization, sampler, words
from bisector_words.geometry import arrangement, genericity_margin, occupancy_word
from bisector_words.realization import (
    NotRealizable,
    plan_realization,
    realize,
    verify_bisector_layout,
)

from oracles import bisector_layout_by_fractions, region_boundaries_by_fractions
from test_geometry import realizable_words


class TestRealize:
    def test_not_realizable(self):
        with pytest.raises(NotRealizable):
            realize((0, 1, 0, 1, 0, 1))

    @pytest.mark.parametrize("fn", [realize, plan_realization])
    def test_n_above_limit_raises_before_construction(self, monkeypatch, fn):
        built = []
        monkeypatch.setattr(realization, "_construct", built.append)
        with pytest.raises(ValueError, match=f"n <= {realization.MAX_REALIZE_N}"):
            fn(words.run_word(realization.MAX_REALIZE_N + 1))
        assert built == []

    def test_single_word_roundtrip(self):
        w = (1, 0, 1, 1, 0, 0)
        cfg = realize(w)
        assert cfg.is_exact
        assert words.canonical_bracelet(occupancy_word(cfg)) == words.canonical_bracelet(w)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_all_words_roundtrip(self, n):
        for w in enumeration.enumerate_words(n):
            got = occupancy_word(realize(w))
            shifts = {w[i:] + w[:i] for i in range(len(w))}
            assert got in shifts, words.word_to_string(w)

    def test_output_is_generic_exactly(self):
        # realize checks nothing at run time, so this test carries its postcondition
        rng = np.random.default_rng(30)
        ws = [w for n in range(3, 7) for w in enumeration.enumerate_words(n)]
        ws += [sampler.sample_uniform_word(int(rng.integers(8, 65)), rng) for _ in range(50)]
        for w in ws:
            cfg = realize(w)
            assert genericity_margin(cfg) > 0, words.word_to_string(w)
            geometry.ensure_generic(cfg)

    def test_positions_strictly_increasing(self):
        for w in list(enumeration.enumerate_words(4))[:20]:
            pos = realize(w).positions
            assert all(a < b for a, b in zip(pos, pos[1:]))


# Every public reading of a configuration.
GEOMETRY_READINGS = (
    geometry.occupancy_word,
    geometry.arrangement,
    geometry.ocdc,
    lambda config: geometry.region_stats(config, (0, Fraction(1, 4), 0.5, 1)),
    geometry.verify_direction_patterns,
    geometry.genericity_margin,
)


class TestFromUnits:
    """``realize`` builds over the construction's denominator q, not the least one."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 300])
    def test_realize_equals_the_fraction_built_configuration(self, n):
        for w in [words.run_word(n)] if n == 300 else enumeration.enumerate_words(n):
            got = realize(w)
            ref = geometry.PointConfig(got.positions)
            assert got.positions == ref.positions and got.n == ref.n == n
            assert got.is_exact and ref.is_exact
            assert got.to_strings() == ref.to_strings()
            assert got == ref and hash(got) == hash(ref) and repr(got) == repr(ref)
            assert got._units[1] % ref._units[1] == 0
            for read in GEOMETRY_READINGS:
                assert read(got) == read(ref), words.word_to_string(w)


# Four realizable words at each n, packed as hex (:func:`words.word_to_int`):
# the inputs of the pinned plan digest below.
PLAN_WORDS = (
    (3, ("1a", "19", "25", "25")),
    (5, ("354", "d5", "b3", "323")),
    (8, ("95d8", "554d", "9ac5", "b90b")),
    (16, ("aea192d6", "d9bea604", "2bd3e88c", "b23a9ae1")),
    (32, ("d9d0ec712cab928e", "9914d7d96bd99806", "783f215d23e05f62", "34ac52a96371d6d3")),
    (
        64,
        (
            "4557855b40f1cd3db3627549b70e6352",
            "1a2e5471b75a170ce2e5a69c48d5a977",
            "b663c25e90aec03344b4b9a8de9277d5",
            "65a9c9f98d40d67ad8a7341556af2d14",
        ),
    ),
)


class TestPlan:
    def test_offsets_inside_stated_bounds(self):
        for w in list(enumeration.enumerate_words(5))[::7]:
            plan = plan_realization(w)
            n, s = plan.n, plan.s
            assert plan.eta < Fraction(1, s * 2 ** (n + 2))
            assert plan.epsilon < plan.eta / (2 * n)
            # every index moves right by a positive amount of at most epsilon
            for h in range(2 * n):
                shift = plan.perturbed[h] - plan.base[h]
                assert 0 < shift <= plan.epsilon
            # geometric offsets stay well clear of the neighboring anchors
            for kind, anchor, indices in plan.components:
                for h in indices:
                    assert abs(plan.base[h] - plan.base[anchor]) < Fraction(1, 4 * s)

    def test_anchor_positions(self):
        plan = plan_realization((1, 0, 1, 1, 0, 0))
        assert [plan.base[i] for i in plan.two_positions] == [Fraction(1, 2), Fraction(1, 1)]
        assert [plan.base[i] for i in plan.zero_positions] == [Fraction(1, 4), Fraction(3, 4)]

    def test_rotation_recorded(self):
        plan = plan_realization((1, 0, 1, 1, 0, 0))
        assert plan.rotation == 1  # signature (2,0,1): first 0 at index 1
        assert words.signature(plan.rotated_word)[0] == 0

    def test_plan_fields_unchanged(self):
        # sha256 of eta, epsilon, base, perturbed and the positions of 24
        # plans at n = 3..64, with the boundaries and margin read back,
        # recorded on the Fraction-arithmetic construction
        rows = []
        for n, packed in PLAN_WORDS:
            for x in packed:
                w = words.int_to_word(int(x, 16), n)
                plan = plan_realization(w)
                d = plan.to_json_dict()
                d["perturbed"] = [str(x) for x in plan.perturbed]
                cfg = realize(w)
                d["positions"] = cfg.to_strings()
                rows.append(
                    {
                        "plan": d,
                        "margin": str(genericity_margin(cfg)),
                        "boundaries": [str(b) for b in region_boundaries_by_fractions(cfg.positions)],
                        "word": list(occupancy_word(cfg)),
                    }
                )
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == "f46a3c7c183b6619d23b7c22eec9fe8a15880987a30c48be2841e650122b31ae"

    def test_json_dump_shape(self):
        d = plan_realization((1, 0, 1, 1, 0, 0)).to_json_dict()
        assert set(d) == {"s", "T", "Z", "eta", "epsilon", "r", "components"}
        assert len(d["r"]) == 6


class TestBisectorLayout:
    def test_single_plan(self):
        assert verify_bisector_layout(plan_realization((1, 0, 1, 1, 0, 0)))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_all_plans(self, n):
        for w in enumeration.enumerate_words(n):
            plan = plan_realization(w)
            assert verify_bisector_layout(plan), words.word_to_string(w)
            assert bisector_layout_by_fractions(plan), words.word_to_string(w)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(realizable_words())
    def test_matches_fraction_oracle(self, w):
        plan = plan_realization(w)
        assert verify_bisector_layout(plan) and bisector_layout_by_fractions(plan)

    @pytest.mark.parametrize(
        "w", [(1, 0, 1, 1, 0, 0), (0, 1, 0, 1, 1, 0, 0, 1, 1, 0), (1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0)]
    )
    @pytest.mark.parametrize("tamper", ["kinds swapped", "s + 1", "rotated"])
    def test_tampered_plans_fail(self, w, tamper):
        plan = plan_realization(w)
        assert plan.components
        if tamper == "kinds swapped":
            swap = {"ascending": "descending", "descending": "ascending"}
            components = tuple((swap[kind], a, idx) for kind, a, idx in plan.components)
            plan = dataclasses.replace(plan, components=components)
        elif tamper == "s + 1":
            plan = dataclasses.replace(plan, s=plan.s + 1)
        else:
            # every boundary moves by 3/(16s), so those of the zero-anchor
            # windows land between 1/(8s) and 1/(4s) past the anchor
            shift = Fraction(3, 16 * plan.s)
            plan = dataclasses.replace(plan, perturbed=tuple(x + shift for x in plan.perturbed))
        assert not verify_bisector_layout(plan)
        assert not bisector_layout_by_fractions(plan)

    @pytest.mark.parametrize(
        "w", [(1, 0, 1, 1, 0, 0), (0, 1, 0, 1, 1, 0, 0, 1, 1, 0), (1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0)]
    )
    @pytest.mark.parametrize("d", [32, 9])
    def test_plans_turned_within_the_windows_still_verify(self, w, d):
        # every boundary moves by 1/(ds), which keeps it inside its window;
        # the first point moves off 0, so the frame's turn is that far too
        plan = plan_realization(w)
        shift = Fraction(1, d * plan.s)
        plan = dataclasses.replace(plan, perturbed=tuple(x + shift for x in plan.perturbed))
        assert verify_bisector_layout(plan) and bisector_layout_by_fractions(plan)

    def test_empty_components_still_verify(self):
        # all signature letters special: every component is empty
        w = (0, 1, 0, 1, 0, 1, 0, 1)
        assert words.signature(w) == (0, 2, 0, 2)
        assert verify_bisector_layout(plan_realization(w))

    def test_boundary_count_is_2n(self):
        for w in enumeration.enumerate_words(4):
            assert len(set(arrangement(realize(w)).boundaries)) == 8
