"""Pure combinatorics on occupancy words, signatures and bracelets.

An occupancy word is a binary word of length 2n (n >= 3): bit i records
whether region i of a circle cut into 2n arcs by n concurrent lines through
the center contains a marked point.  Its signature compresses the word to
length n by adding bits that are n apart, and realizability of a word by an
actual point configuration is decided entirely on the signature.

Folding pairs bit i with bit i + n.  A realizable word is then a letter
string in {0, 1, S}^n with an even nonzero number of S, plus a phase bit:
0 is the folded letter 01, 1 is 10, and the S positions carry the balanced
letters 11/00, strictly alternating, the phase choosing which comes first.
:func:`letters_to_word` is the one decoder of this form; :func:`unfold`
and the sampler's walks are views of it.

Everything here is 0-indexed.  Formulas stated elsewhere in 1-based cyclic
indexing translate by adding 1 to each index; cyclic indices are reduced
mod n or mod 2n throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

Word = tuple[int, ...]
Signature = tuple[int, ...]
FoldedWord = tuple[str, ...]

FOLDED_ALPHABET = ("00", "01", "10", "11")
_INT = frozenset({int})
# Largest n of any bracelet computation: canonical forms, orbits, counts and
# the bracelet sampler; it also bounds count_words and run_word.  The 4n
# images of a word of length 2n hold about n^2 bytes (25 MB at n = 5000) and
# their time grows about 4x per doubling of n; the bracelet count has about
# 0.48 n decimal digits, which this keeps below Python's default limit of
# 4300 digits for converting an int to text.
MAX_BRACELET_N = 5000


def _shown(value) -> str:
    """``repr(value)`` when it is at most 40 characters, else only its type, so no message grows with its input.

    An int beyond Python's limit for converting ints to text has no repr
    (ValueError); it too is shown by its type.
    """
    try:
        text = repr(value)
    except ValueError:
        text = ""
    return text if 0 < len(text) <= 40 else f"a value of type {type(value).__name__}"


def _check_int(value: int, what: str, least: int, most: float = math.inf) -> None:
    """Reject, before anything is built or drawn, a value that is not exactly an ``int`` in [least, most].

    The one check of every integer a caller controls: n, trials, seeds and
    worker counts.  A numpy integer would carry fixed-width arithmetic into
    the exact counts and closed forms, which then overflow silently; it is
    rejected, and so is a bool.  Values are shown by :func:`_shown`.
    """
    if type(value) is not int:
        raise ValueError(f"need {what} to be an integer, got {_shown(value)}")
    if not least <= value <= most:
        bounds = f"{least} <= {what}" + (f" <= {most}" if most < math.inf else "")
        raise ValueError(f"need {bounds}, got {_shown(value)}")


def _as_ints(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The values as a tuple of Python ints, rejecting any that ``int`` would change.

    A tuple whose elements are all exactly ``int`` is returned uncast; bools
    and numpy integers are cast.  A value that ``int`` rejects (inf, nan,
    None) or would change (1.7, "1") raises ValueError, never the
    OverflowError or TypeError of the cast, and is not truncated.
    """
    t = tuple(values)
    if {*map(type, t)} <= _INT:
        return t
    ints = []
    for x in t:
        try:
            i = int(x)
        except (TypeError, ValueError, OverflowError):
            i = None
        if i is None or i != x:
            raise ValueError(f"{what} must be integers, got {_shown(x)}")
        ints.append(i)
    return tuple(ints)


def check_word(bits: Iterable[int]) -> Word:
    """Validate and normalize a word to a tuple of 0/1 ints of length 2n, n >= 3."""
    w = _as_ints(bits, "word bits")
    if len(w) < 6 or len(w) % 2 != 0:
        raise ValueError(f"word length must be an even number >= 6, got {len(w)}")
    if not set(w) <= {0, 1}:
        raise ValueError("word bits must be 0 or 1")
    return w


def check_signature(letters: Iterable[int]) -> Signature:
    s = _as_ints(letters, "signature letters")
    if len(s) < 3:
        raise ValueError(f"signature length must be >= 3, got {len(s)}")
    if any(x not in (0, 1, 2) for x in s):
        raise ValueError("signature letters must be 0, 1 or 2")
    return s


def check_folded(letters: Iterable[str]) -> FoldedWord:
    f = tuple(letters)
    if len(f) < 3:
        raise ValueError(f"folded word length must be >= 3, got {len(f)}")
    if any(a not in FOLDED_ALPHABET for a in f):
        raise ValueError("folded letters must be one of the strings '00', '01', '10', '11'")
    return f


def word_from_string(s: str) -> Word:
    if not set(s) <= {"0", "1"}:
        raise ValueError("word string must contain only '0' and '1'")
    return check_word(int(c) for c in s)


def word_to_string(w: Sequence[int]) -> str:
    return "".join(str(b) for b in w)


def word_to_int(w: Sequence[int]) -> int:
    """Pack a word into an integer, first bit most significant."""
    acc = 0
    for b in w:
        acc = (acc << 1) | b
    return acc


def int_to_word(x: int, n: int) -> Word:
    return tuple((x >> (2 * n - 1 - i)) & 1 for i in range(2 * n))


def signature(w: Iterable[int]) -> Signature:
    """Letter i is bits[i] + bits[i + n], the point count of an antipodal region pair."""
    word = check_word(w)
    n = len(word) // 2
    return tuple(word[i] + word[i + n] for i in range(n))


def _alternates(bits: list[int]) -> bool:
    """Whether the 0/1 list is nonempty and strictly alternates around its cycle.

    A cyclically alternating list has even length, so it is the two-letter
    pattern starting from its first element, repeated.
    """
    return bool(bits) and bits == [bits[0], 1 - bits[0]] * (len(bits) // 2)


def is_interlacing(letters: Iterable[int]) -> bool:
    """Test whether 0s and 2s strictly alternate around the cyclic signature.

    Equivalent to the defining property (exactly one 2 strictly between each
    cyclically consecutive pair of 0s, with both letters present); the
    equivalence is asserted against the literal definition in the test suite.
    """
    return _alternates([x // 2 for x in check_signature(letters) if x != 1])


def is_realizable(w: Iterable[int]) -> bool:
    """A word is achievable by points on the circle iff its signature interlaces.

    The signature's 0s and 2s are the pairs with w_i == w_{i+n}, letter 2
    where that bit is 1, so they are read off the word, which is validated
    once, and tested by the alternation test of :func:`is_interlacing`.
    """
    word = check_word(w)
    return _alternates([a for a, b in zip(word, word[len(word) // 2 :]) if a == b])


@dataclass(frozen=True)
class Bracelet:
    """Equivalence class of a word under cyclic shifts and reversal.

    ``word`` is the canonical representative: the lexicographically smallest
    member of the class.  ``orbit_size`` is the number of distinct words in
    the class; it divides 4n.
    """

    n: int
    word: Word
    orbit_size: int

    def __str__(self) -> str:
        return word_to_string(self.word)


def _images(x: int, n: int) -> list[int]:
    """The 4n images of the packed word x of length 2n under shifts and reversal, one per group element.

    Shifting a word left by k positions rotates its 2n-bit integer left by
    k bits, so the images are the 2n rotations of the word and of its
    reverse; each rotation is a 2n-bit window of the integer written twice.
    """
    size = 2 * n
    mask = (1 << size) - 1
    reverse = int(format(x, f"0{size}b")[::-1], 2)
    doubled = ((x << size) | x, (reverse << size) | reverse)
    return [(d >> k) & mask for d in doubled for k in range(1, size + 1)]


def _packed(w: Iterable[int]) -> tuple[int, int]:
    """The validated word w packed by :func:`word_to_int`, and its n, bounded by ``MAX_BRACELET_N``."""
    word = check_word(w)
    n = len(word) // 2
    _check_int(n, "n", 3, MAX_BRACELET_N)
    return word_to_int(word), n


def bracelet_orbit(w: Iterable[int]) -> set[int]:
    """The class of w under cyclic shifts and reversal, packed by :func:`word_to_int`."""
    return set(_images(*_packed(w)))


def canonical_bracelet(w: Iterable[int]) -> Bracelet:
    """The bracelet of w: its least image, and 4n over the number of images equal to w."""
    x, n = _packed(w)
    images = _images(x, n)
    return Bracelet(n=n, word=int_to_word(min(images), n), orbit_size=4 * n // images.count(x))


def fold(w: Iterable[int]) -> FoldedWord:
    """Length-n word over {00,01,10,11}; letter i concatenates bits i and i+n."""
    word = check_word(w)
    n = len(word) // 2
    return tuple(f"{word[i]}{word[i + n]}" for i in range(n))


def letters_to_word(phase: int, letters: Sequence[int]) -> Word:
    """The word of a letter string: S (2) alternates 11/00 from the phase, 1 is 10, 0 is 01."""
    n = len(letters)
    next_is_11 = phase
    word = [0] * (2 * n)
    for i, u in enumerate(letters):
        if u == 2:
            if next_is_11:
                word[i] = word[i + n] = 1
            next_is_11 ^= 1
        elif u == 1:
            word[i] = 1
        else:
            word[i + n] = 1
    return tuple(word)


_LETTER_OF_FOLDED = {"01": 0, "10": 1, "00": 2, "11": 2}


def unfold(folded: Iterable[str], first_zero_is_11: bool = True) -> Word:
    """Inverse of :func:`fold` up to the placement of the balanced letters.

    Letters 10 and 01 are taken literally.  Balanced letters (00/11) are
    reassigned by strict alternation, the first one being 11 when
    ``first_zero_is_11`` is true; on a folded word whose balanced letters
    already alternate starting from that value this recovers the exact
    preimage.  A folded word without balanced letters ignores the flag.
    """
    letters = [_LETTER_OF_FOLDED[a] for a in check_folded(folded)]
    return letters_to_word(1 if first_zero_is_11 else 0, letters)


def prefix_counts(s: Iterable[int], x: float) -> tuple[int, int, int]:
    """Occurrences of each letter among the first floor(x) signature letters, 0 <= x <= n."""
    sig = check_signature(s)
    if not 0 <= x <= len(sig):
        raise ValueError(f"prefix bound must lie in [0, {len(sig)}], got {_shown(x)}")
    head = sig[: math.floor(x)]
    return head.count(0), head.count(1), head.count(2)


def run_word(n: int) -> Word:
    """The word (1, 0, 1, ..., 1, 0, ..., 0) of length 2n.

    One occupied region, one empty one, then a run of n-1 occupied regions
    followed by a run of n-1 empty ones.  Its bracelet is the most likely
    one under uniform random points.
    """
    _check_int(n, "n", 3, MAX_BRACELET_N)
    return (1, 0) + (1,) * (n - 1) + (0,) * (n - 1)
