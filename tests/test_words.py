import math
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisector_words import enumeration, sampler, words
from oracles import bracelet_class_tuples, is_interlacing_literal

EXAMPLE_18 = (0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1)


def random_words(max_n=8):
    return (
        st.integers(3, max_n)
        .flatmap(lambda n: st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n))
        .map(tuple)
    )


class TestSignature:
    def test_n9_example(self):
        assert words.signature(EXAMPLE_18) == (1, 0, 1, 1, 2, 1, 1, 0, 2)

    def test_n3_examples(self):
        assert words.signature((1, 0, 1, 1, 0, 0)) == (2, 0, 1)
        assert words.signature((0, 1, 0, 1, 0, 1)) == (1, 1, 1)

    @given(random_words())
    def test_sum_is_popcount(self, w):
        assert sum(words.signature(w)) == sum(w)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            words.signature((1, 0, 1, 1, 0))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            words.signature((1, 0, 1, 0))


class TestInterlacing:
    @pytest.mark.parametrize(
        "sig,expected",
        [
            ((1, 0, 1, 1, 2, 1, 1, 0, 2), True),
            ((1, 1, 1), False),
            ((2, 0, 1), True),
            ((0, 1, 2, 1, 2, 1, 0, 1), False),
            ((0, 2, 1), True),
            ((0, 2, 2), False),
            ((0, 1, 2, 2), False),  # lone 0 needs a unique 2 overall
        ],
    )
    def test_examples_and_oracle(self, sig, expected):
        assert words.is_interlacing(sig) is expected
        assert is_interlacing_literal(sig) is expected

    @pytest.mark.parametrize("n", range(3, 11))
    def test_matches_literal_definition_everywhere(self, n):
        for sig in product((0, 1, 2), repeat=n):
            assert words.is_interlacing(sig) == is_interlacing_literal(sig), sig

    @given(st.integers(3, 9).flatmap(lambda n: st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    def test_invariant_under_shift_and_reversal(self, sig):
        sig = tuple(sig)
        base = words.is_interlacing(sig)
        for k in range(len(sig)):
            assert words.is_interlacing(sig[k:] + sig[:k]) == base
        assert words.is_interlacing(sig[::-1]) == base

    def test_implies_equal_letter_counts(self):
        for n in (4, 5, 6):
            for sig in product((0, 1, 2), repeat=n):
                if words.is_interlacing(sig):
                    assert sig.count(0) == sig.count(2) >= 1


class TestRealizable:
    def test_examples(self):
        assert words.is_realizable((1, 0, 1, 1, 0, 0)) is True
        assert words.is_realizable((0, 1, 0, 1, 0, 1)) is False
        # signature of 111000 is (1,1,1): not realizable despite n ones
        assert words.is_realizable((1, 1, 1, 0, 0, 0)) is False

    @given(random_words())
    def test_constant_on_bracelet_classes(self, w):
        base = words.is_realizable(w)
        for variant in bracelet_class_tuples(w):
            assert words.is_realizable(variant) == base

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_signature_interlacing_on_every_word(self, n):
        for w in product((0, 1), repeat=2 * n):
            assert words.is_realizable(w) is words.is_interlacing(words.signature(w)), w

    @given(st.lists(st.integers(-1, 2), max_size=14))
    def test_same_results_and_errors_as_signature_interlacing(self, bits):
        try:
            expected = words.is_interlacing(words.signature(bits))
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                words.is_realizable(bits)
        else:
            assert words.is_realizable(bits) is expected


class TestValidation:
    @given(random_words())
    def test_ints_bools_and_numpy_scalars_give_the_same_int_tuple(self, w):
        forms = (
            w,
            list(w),
            tuple(map(bool, w)),
            tuple(map(np.int64, w)),
            tuple(map(np.uint8, w)),
            np.array(w),
            tuple(map(float, w)),
        )
        for form in forms:
            got = words.check_word(form)
            assert got == w
            assert type(got) is tuple and {type(b) for b in got} == {int}

    @given(st.lists(st.integers(0, 2), min_size=3, max_size=12).map(tuple))
    def test_signature_letters_as_numpy_scalars_give_the_same_int_tuple(self, s):
        for form in (s, tuple(map(np.int8, s)), np.array(s, dtype=np.uint8), tuple(map(float, s))):
            got = words.check_signature(form)
            assert got == s
            assert {type(x) for x in got} == {int}

    @pytest.mark.parametrize(
        "bits",
        [
            [1.7, 0, 0, 1, 1, 0],
            [0.9, 0, 1, 1, 1, 0.5],
            [0, 0, 1, 1, 1, np.float64(0.5)],
            ["1", 0, 0, 1, 1, 0],
        ],
    )
    def test_non_integral_bits_are_rejected_not_truncated(self, bits):
        with pytest.raises(ValueError, match="word bits must be integers"):
            words.check_word(bits)
        with pytest.raises(ValueError, match="word bits must be integers"):
            words.is_realizable(bits)
        with pytest.raises(ValueError, match="word bits must be integers"):
            words.signature(bits)

    def test_non_integral_signature_letters_are_rejected(self):
        with pytest.raises(ValueError, match="signature letters must be integers, got 2.5"):
            words.check_signature([2.5, 0, 1])
        with pytest.raises(ValueError, match="signature letters must be integers"):
            words.is_interlacing((0, 2, 1.5))

    @pytest.mark.parametrize(
        "bad", [math.inf, -math.inf, math.nan, np.float64(math.inf), None, object()], ids=repr
    )
    def test_values_int_rejects_raise_value_error(self, bad):
        # int() raises OverflowError for inf, ValueError for nan and
        # TypeError for None and object(); both validators raise ValueError.
        with pytest.raises(ValueError, match="word bits must be integers"):
            words.check_word([0, 0, bad, 1, 1, 0])
        with pytest.raises(ValueError, match="signature letters must be integers"):
            words.check_signature([2, bad, 1])

    def test_integral_values_of_mixed_types_are_accepted(self):
        assert words.check_word([True, np.int64(1), np.uint8(0), 1.0, 0, 0]) == (1, 1, 0, 1, 0, 0)

    @pytest.mark.parametrize(
        "fn, letters, message",
        [
            (words.check_signature, (0, 2), "signature length must be >= 3, got 2"),
            (words.check_signature, (0, 3, 2), "signature letters must be 0, 1 or 2"),
            (words.check_folded, ("01", "10"), "folded word length must be >= 3, got 2"),
            (words.check_folded, ("01", "12", "00"), "folded letters must be one of"),
        ],
    )
    def test_short_or_off_alphabet_letters_are_rejected(self, fn, letters, message):
        with pytest.raises(ValueError, match=message):
            fn(letters)

    # ints whose decimal strings are folded letters are not letters
    @pytest.mark.parametrize("letters", [(11, 10, 11, 10), (11, 10, 11), ("11", 10, "00"), (11, 1, 11)])
    @pytest.mark.parametrize("fn", [words.check_folded, words.unfold, sampler.word_to_walk])
    def test_folded_letters_must_be_strings(self, fn, letters):
        with pytest.raises(ValueError, match="folded letters must be one of the strings '00', '01', '10', '11'"):
            fn(letters)


class TestBracelet:
    def test_same_class_and_orbit(self):
        a = words.canonical_bracelet((1, 1, 0, 1, 0, 0))
        b = words.canonical_bracelet((1, 0, 1, 1, 0, 0))
        assert a == b
        assert a.orbit_size == 12

    def test_idempotent(self):
        b = words.canonical_bracelet(EXAMPLE_18)
        assert words.canonical_bracelet(b.word) == b

    @given(random_words(), st.integers(0, 100), st.booleans())
    def test_invariant_on_class(self, w, shift, reverse):
        variant = w[::-1] if reverse else w
        k = shift % len(variant)
        variant = variant[k:] + variant[:k]
        assert words.canonical_bracelet(variant) == words.canonical_bracelet(w)

    @given(random_words())
    def test_orbit_divides_4n(self, w):
        b = words.canonical_bracelet(w)
        assert 4 * b.n % b.orbit_size == 0

    def test_periodic_palindrome_has_small_orbit(self):
        w = (1, 0, 1, 0, 1, 0, 1, 0)  # period 2 and reversal-symmetric
        assert words.canonical_bracelet(w).orbit_size < 4 * 4

    def test_string_form(self):
        assert str(words.canonical_bracelet((1, 0, 1, 1, 0, 0))) == "001011"

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_tuple_oracle_on_realizable_words(self, n):
        for w in enumeration.enumerate_words(n):
            cls = bracelet_class_tuples(w)
            assert words.canonical_bracelet(w) == words.Bracelet(n, min(cls), len(cls))

    @pytest.mark.parametrize("n", [16, 31, 32, 33, 40])
    def test_matches_tuple_oracle_across_64_bits(self, n):
        # Packed words of 2n bits cross 64 bits between n=32 and n=33.
        rng = np.random.default_rng(100 + n)
        samples = [tuple(int(b) for b in row) for row in rng.integers(0, 2, (200, 2 * n))]
        samples += [
            (1,) * (2 * n),
            (0,) * (2 * n - 1) + (1,),
            (1, 0) * n,
            (1,) + (0,) * (n - 1) + (1,) + (0,) * (n - 1),
            words.run_word(n),
        ]
        for w in samples:
            cls = bracelet_class_tuples(w)
            assert words.canonical_bracelet(w) == words.Bracelet(n, min(cls), len(cls))
            assert {words.int_to_word(x, n) for x in words.bracelet_orbit(w)} == cls

    def test_orbit_size_matches_tuple_oracle_at_n200(self):
        # the orbit size is 4n over the images equal to the word; periodic
        # and mirror-symmetric words have the largest stabilisers
        n = 200
        rng = np.random.default_rng(200)
        samples = [tuple(int(b) for b in row) for row in rng.integers(0, 2, (20, 2 * n))]
        samples += [(0, 1) * n, (0, 0, 1, 1) * (n // 2), words.run_word(n), (1,) * (2 * n)]
        for w in samples:
            cls = bracelet_class_tuples(w)
            assert words.canonical_bracelet(w) == words.Bracelet(n, min(cls), len(cls))
        assert [words.canonical_bracelet(w).orbit_size for w in samples[-4:]] == [2, 4, 4 * n, 1]

    @pytest.mark.parametrize("fn", [words.canonical_bracelet, words.bracelet_orbit])
    def test_n_above_bracelet_limit_raises_before_any_image(self, monkeypatch, fn):
        def no_images(*args):
            raise AssertionError("built the images before checking n")

        monkeypatch.setattr(words, "_images", no_images)
        with pytest.raises(ValueError, match=f"n <= {words.MAX_BRACELET_N}"):
            fn((1, 0) * (words.MAX_BRACELET_N + 1))


class TestFolding:
    def test_fold_example(self):
        assert words.fold((1, 0, 1, 1, 0, 0)) == ("11", "00", "10")

    def test_unfold_example(self):
        assert words.unfold(("11", "00", "10"), True) == (1, 0, 1, 1, 0, 0)

    def test_alternating_word_has_no_balanced_letters(self):
        f = words.fold((1, 0, 1, 0, 1, 0))
        assert all(a in ("10", "01") for a in f)
        assert words.unfold(f, True) == words.unfold(f, False)

    def test_roundtrip_with_matching_flag(self):
        every_word = chain.from_iterable(enumeration.enumerate_words(n) for n in range(3, 9))
        for w in chain([(1, 0, 1, 1, 0, 0), EXAMPLE_18], every_word):
            f = words.fold(w)
            balanced = [a for a in f if a in ("00", "11")]
            flag = balanced[0] == "11"
            assert words.unfold(f, flag) == w

    def test_fold_of_unfold_restores_alternation(self):
        f = ("11", "00", "10", "11", "00")
        assert words.fold(words.unfold(f, True)) == f

    def test_truthy_flag_is_normalised(self):
        f = ("11", "10", "11", "00", "01", "00")
        assert words.unfold(f, 2) == words.unfold(f, True)
        assert words.fold(words.unfold(f, 2)) == ("11", "10", "00", "11", "01", "00")

    def test_letters_to_word(self):
        # 0 is 01, 1 is 10, and S alternates 11/00 from the phase.
        assert words.letters_to_word(1, (2, 2, 1)) == (1, 0, 1, 1, 0, 0)
        assert words.letters_to_word(0, (2, 0, 2)) == (0, 0, 1, 0, 1, 1)
        assert words.letters_to_word(1, (2, 2, 2, 2)) == (1, 0, 1, 0) * 2


class TestPrefixCounts:
    def test_examples(self):
        assert words.prefix_counts((1, 0, 1, 1, 2, 1, 1, 0, 2), 9) == (2, 5, 2)
        assert words.prefix_counts((1, 0, 1, 1, 2, 1, 1, 0, 2), 0) == (0, 0, 0)
        assert words.prefix_counts((2, 0, 1), 2) == (1, 0, 1)

    def test_counts_sum_to_floor_x(self):
        sig = (1, 0, 1, 1, 2, 1, 1, 0, 2)
        for x in (0, 2.5, 6.9, 9):
            assert sum(words.prefix_counts(sig, x)) == int(x)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            words.prefix_counts((2, 0, 1), 4)
        with pytest.raises(ValueError):
            words.prefix_counts((2, 0, 1), -1)
        # beyond Python's limit for converting an int to text: shown by its type
        with pytest.raises(ValueError, match=r"^prefix bound must lie in \[0, 3\], got a value of type int$"):
            words.prefix_counts((2, 0, 1), 10**5000)


class TestSerialization:
    def test_string_roundtrip(self):
        w = words.word_from_string("101100")
        assert w == (1, 0, 1, 1, 0, 0)
        assert words.word_to_string(w) == "101100"

    def test_bad_characters(self):
        with pytest.raises(ValueError):
            words.word_from_string("10210a")

    @given(random_words())
    def test_int_roundtrip(self, w):
        n = len(w) // 2
        assert words.int_to_word(words.word_to_int(w), n) == w


def test_run_word():
    assert words.run_word(3) == (1, 0, 1, 1, 0, 0)
    assert words.run_word(5) == (1, 0, 1, 1, 1, 1, 0, 0, 0, 0)
    assert sum(words.run_word(7)) == 7
    assert words.is_realizable(words.run_word(6))
    with pytest.raises(ValueError):
        words.run_word(2)
