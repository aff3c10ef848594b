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

Words and signatures are read by one byte reader, :func:`_as_bytes`: a
tuple of exact ints, bools or numpy integers becomes bytes in one C-level
pass, and anything else (floats, Fractions, numpy bools, text, ints outside
a byte) falls back to the cast-and-compare reader :func:`_as_ints`, whose
messages are unchanged.  :func:`is_realizable` then sums the word's two
halves as big-endian ints into its signature bytes, deletes the 1s with
``bytes.translate`` and tests that what is left alternates.

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


def _as_bytes(values: Iterable[int], what: str) -> bytes:
    """The values as bytes, one per value, read in one C-level pass when they are byte-sized integers.

    ``bytes()`` takes exact ints, bools and numpy integers in 0..255 and
    refuses every other value: floats, Fractions, numpy bools, text, and
    ints outside a byte.  Refused input goes through :func:`_as_ints`, so
    every cast and every message stays that reader's; an int it returns
    outside 0..255 becomes the byte 255, which no alphabet here holds, so
    the caller's alphabet check rejects it.  ``bytes`` would read an int as
    a length and a buffer as raw memory, so it is only ever given a tuple.
    """
    t = tuple(values)
    try:
        return bytes(t)
    except (TypeError, ValueError):
        return bytes(x if 0 <= x <= 255 else 255 for x in _as_ints(t, what))


def _word_bytes(bits: Iterable[int]) -> bytes:
    """The one check of a word: its bits as bytes of 0 and 1, of even length 2n, n >= 3."""
    b = _as_bytes(bits, "word bits")
    if len(b) < 6 or len(b) % 2 != 0:
        raise ValueError(f"word length must be an even number >= 6, got {len(b)}")
    if b.translate(None, b"\x00\x01"):
        raise ValueError("word bits must be 0 or 1")
    return b


def _signature_bytes(letters: Iterable[int]) -> bytes:
    """The one check of a signature: its letters as bytes of 0, 1 and 2, at least 3 of them."""
    b = _as_bytes(letters, "signature letters")
    if len(b) < 3:
        raise ValueError(f"signature length must be >= 3, got {len(b)}")
    if b.translate(None, b"\x00\x01\x02"):
        raise ValueError("signature letters must be 0, 1 or 2")
    return b


def check_word(bits: Iterable[int]) -> Word:
    """Validate and normalize a word to a tuple of 0/1 ints of length 2n, n >= 3."""
    return tuple(_word_bytes(bits))


def check_signature(letters: Iterable[int]) -> Signature:
    return tuple(_signature_bytes(letters))


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
    return check_word(map(int, s))


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


def _signature_of(word: bytes) -> bytes:
    """The signature of a checked word: byte i is word[i] + word[i + n], summed as two big-endian ints, which never carry."""
    n = len(word) // 2
    return (int.from_bytes(word[:n], "big") + int.from_bytes(word[n:], "big")).to_bytes(n, "big")


def signature(w: Iterable[int]) -> Signature:
    """Letter i is bits[i] + bits[i + n], the point count of an antipodal region pair."""
    return tuple(_signature_of(_word_bytes(w)))


def _interlaces(sig: bytes) -> bool:
    """Whether the 0s and 2s of a checked signature strictly alternate around its cycle.

    With the 1s deleted, a cyclically alternating rest has even length and
    two distinct letters, so it is its first two letters repeated.
    """
    rest = sig.translate(None, b"\x01")
    return len(rest) > 1 and rest[0] != rest[1] and rest == rest[:2] * (len(rest) // 2)


def is_interlacing(letters: Iterable[int]) -> bool:
    """Test whether 0s and 2s strictly alternate around the cyclic signature.

    Equivalent to the defining property (exactly one 2 strictly between each
    cyclically consecutive pair of 0s, with both letters present); the
    equivalence is asserted against the literal definition in the test suite.
    """
    return _interlaces(_signature_bytes(letters))


def is_realizable(w: Iterable[int]) -> bool:
    """A word is achievable by points on the circle iff its signature interlaces.

    The word is checked once, and its signature is read from it as bytes
    and tested by the alternation test of :func:`is_interlacing`.
    """
    return _interlaces(_signature_of(_word_bytes(w)))


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
