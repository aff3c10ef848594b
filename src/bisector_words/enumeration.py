"""Exact generation and counting of realizable words and bracelets.

Words stream as packed integers (first bit most significant, as in
:func:`words.word_to_int`), built with numpy from the interlacing
signatures in chunks of a few thousand words; :func:`enumerate_words`
decodes them to tuples by joining two cached half-tuples per word in one
object-array add.  Per-class results come from the same chunks: the
least of a word's 4n shift/reversal images names its class and lists it,
and the number of images equal to the word gives its orbit size, so no set
of words is kept.  Bracelet counts come from Burnside's lemma and need no
enumeration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import gcd
from typing import Iterator

import numpy as np

from .words import MAX_BRACELET_N, Word, _check_int

MAX_ENUMERATION_N = 14  # desk scale: 4.8 million words at 14, held one chunk at a time
# Words per chunk of the stream; a signature with more words is a chunk of
# its own.  A chunk's uint64 arrays are then 64 KiB, below glibc's 128 KiB
# mmap threshold, so the heap reuses them: chunks of 2^15 words were no
# faster and raised the exact-words benchmark's peak RSS by about 1.2 MB.
_CHUNK_WORDS = 1 << 13
# Words per object-array add when chunks become tuples, so that the object
# arrays and tuples of one slice, not of a whole chunk, are alive at once.
_TUPLE_SLICE = 1 << 10
_LETTERS = np.arange(3)


def _word_count(m: int) -> int:
    """3^m - 2^(m+1) + 1, m >= 1: 2 phases times the length-m strings with even nonzero S count."""
    return 3**m - 2 ** (m + 1) + 1


def count_words(n: int) -> int:
    """Number of realizable words of length 2n: 3^n - 2^(n+1) + 1."""
    _check_int(n, "n", 3, MAX_BRACELET_N)
    return _word_count(n)


def _signature_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Interlacing signatures of length n in lexicographic order, as uint64 masks.

    Returns (base, ones): ``base`` holds the word bits of the 2s, and bit
    n-1-i of ``ones`` marks a 1 at position i.  Prefixes grow one letter at
    a time, trying 0, 1, 2 in turn, so each level stays in lexicographic
    order.  A prefix carries its first and last special letter (0 or 2; 1
    while there is none); a special letter must differ from the last one,
    and a complete signature needs a special letter whose first and last
    differ, which closes the alternation around the cycle.
    """
    _check_int(n, "n", 3, MAX_ENUMERATION_N)
    twos = ones = np.zeros(1, np.uint64)
    first = last = np.ones(1, np.intp)
    for i in range(n):
        bit = np.uint64(1 << (n - 1 - i))
        prefix, x = np.nonzero((_LETTERS != last[:, None]) | (_LETTERS == 1))
        special = x != 1
        twos = twos[prefix] | np.where(x == 2, bit, 0)
        ones = ones[prefix] | np.where(special, 0, bit)
        first = np.where(special & (first[prefix] == 1), x, first[prefix])
        last = np.where(special, x, last[prefix])
    keep = first != last
    return twos[keep] | (twos[keep] << np.uint64(n)), ones[keep]


def _word_chunks(n: int) -> Iterator[np.ndarray]:
    """All realizable words of length 2n as packed uint64, in stream order, chunk by chunk.

    A signature with k letters 1 has 2^k words.  Letter 2 at position i
    sets bits i and i + n; letter 1 sets one of them, first bit i (the pair
    (1,0)) and then bit i + n (the pair (0,1)), the first free position
    varying slowest.  So the word with expansion index e is
    ``base | dep | ((ones ^ dep) << n)``, where ``dep`` deposits the bits
    of e on the set bits of ``ones``, lowest bit first.  Signatures are
    taken in contiguous ranges of at most ``_CHUNK_WORDS`` words.
    """
    base, ones = _signature_masks(n)
    sizes = np.left_shift(1, np.bitwise_count(ones).astype(np.intp))
    ends = np.cumsum(sizes)
    starts = ends - sizes
    lo = 0
    while lo < len(base):
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + _CHUNK_WORDS, side="right")))
        block = sizes[lo:hi]
        word, mask = np.repeat(base[lo:hi], block), np.repeat(ones[lo:hi], block)
        e = np.arange(len(word), dtype=np.uint64)
        e -= np.repeat((starts[lo:hi] - starts[lo]).astype(np.uint64), block)
        dep, bit, digit = np.zeros_like(e), np.empty_like(e), np.empty_like(e)
        for p in range(n):
            np.right_shift(mask, p, out=bit)
            np.bitwise_and(bit, 1, out=bit)
            np.bitwise_and(e, bit, out=digit)
            np.left_shift(digit, p, out=digit)
            np.bitwise_or(dep, digit, out=dep)
            np.right_shift(e, bit, out=e)
        np.bitwise_or(word, dep, out=word)
        np.bitwise_xor(mask, dep, out=mask)
        np.left_shift(mask, n, out=mask)
        np.bitwise_or(word, mask, out=word)
        yield word
        lo = hi


def enumerate_words(n: int) -> Iterator[Word]:
    """All realizable words of length 2n, each exactly once.

    Signatures stream in lexicographic order; for each, the positions with
    letter 1 expand into the two bit choices in the fixed order (1,0) then
    (0,1), so the stream is reproducible.
    """
    _check_int(n, "n", 3, MAX_ENUMERATION_N)
    halves = _half_tuples(n)
    shift, low = np.uint64(n), np.uint64((1 << n) - 1)
    parts = (c[s : s + _TUPLE_SLICE] for c in _word_chunks(n) for s in range(0, len(c), _TUPLE_SLICE))
    return chain.from_iterable(np.add(halves[part >> shift], halves[part & low]).tolist() for part in parts)


@lru_cache(maxsize=None)  # one table per n <= MAX_ENUMERATION_N
def _half_tuples(n: int) -> np.ndarray:
    """Object array whose entry h is the n-bit integer h as a tuple of bits (read-only).

    The first bit is the most significant.  The table holds 2^n tuples of
    n ints, about 2.8 MB at n = 14.
    """
    bits = range(n - 1, -1, -1)
    halves = np.fromiter((tuple((h >> i) & 1 for i in bits) for h in range(1 << n)), object, 1 << n)
    halves.flags.writeable = False
    return halves


@lru_cache(maxsize=None)  # one table per n <= MAX_ENUMERATION_N
def _reversed_halves(n: int) -> np.ndarray:
    """Entry h is the n-bit integer h with its bits in reverse order (read-only)."""
    halves = np.arange(1 << n, dtype=np.uint64)
    reverse = np.zeros_like(halves)
    for b in range(n):
        reverse |= ((halves >> np.uint64(b)) & 1) << np.uint64(n - 1 - b)
    reverse.flags.writeable = False
    return reverse


def _images(x: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """The 4n images of each packed word in x under shifts and reversal, one array per group element.

    Shifting a word left by r positions rotates its 2n-bit integer left by
    r bits, so the images are the 2n-bit windows of the word and of its
    reverse, each written twice.  The reverse swaps the word's n-bit halves
    and reverses each.  Each image is a buffer that the next one overwrites.
    """
    size = 2 * n
    reverse = _reversed_halves(n)
    low = np.uint64((1 << n) - 1)
    mirrored = (reverse[x & low] << np.uint64(n)) | reverse[x >> np.uint64(n)]
    image = np.empty_like(x)
    window = np.uint64((1 << size) - 1)
    for y in (x, mirrored):
        doubled = (y << np.uint64(size)) | y
        for r in range(size):
            np.right_shift(doubled, r, out=image)
            np.bitwise_and(image, window, out=image)
            yield image


def _bracelet_chunks(n: int) -> Iterator[np.ndarray]:
    """The least word of each class, in stream order, chunk by chunk.

    A word is reported when it is its own least image.  Shifts and
    reversal keep a signature interlacing, so the least image of every
    realizable word is realizable and comes once in the stream: each class
    is reported exactly once, and only one chunk is held at a time.
    """
    for chunk in _word_chunks(n):
        least = chunk.copy()
        for image in _images(chunk, n):
            np.minimum(least, image, out=least)
        yield chunk[least == chunk]


@lru_cache(maxsize=128)
def _fixed_point_counts(n: int) -> tuple[tuple[int | None, int, int], ...]:
    """Burnside terms on the realizable words of length 2n: (type, multiplicity, |Fix|).

    The dihedral group of order 4n acts on the 2n positions.  With
    cw = :func:`_word_count` and d = gcd(r, 2n), the rotation by r fixes
    cw(d/2) words when d does not divide n, and 2·[d even] words when it
    does.  A fixed word has period d.  If d divides n, bits i and i+n
    agree, so the signature has no 1s and its 0s and 2s alternate with
    period d: d is even and the first bit picks one of the 2 words 1010...
    and 0101....  Otherwise n = d/2 mod d, so the signature is a length-d/2
    signature repeated an odd number of times; it interlaces iff that one
    does, so the fixed words are the realizable words of length d repeated
    2n/d times (cw holds for every m >= 1).  The fixed set depends on d
    only, so rotations are grouped by d: type d, multiplicity the number of
    r in [0, 2n) with gcd(r, 2n) = d.

    Reflections fix 2n·3^(n/2-1) words in total for even n and none for odd
    n.  The reflection w_i -> w_{c-i} (indices mod 2n) maps the signature by
    s_i -> s_{c-i mod n}, so a fixed word has a mirror-symmetric signature.
    Its specials (0s and 2s) alternate and are even in number, so the
    mirror, which reverses their cyclic order, must fix two of them (fixing
    none would swap two neighbouring specials, which differ).  Fixed
    positions satisfy 2i = c mod n, so n and c are even and the two are
    a = c/2 and a+n/2.  Then s_a is special in 2 ways, s_{a+n/2} is special
    with its value forced by alternation, and each of the n/2-1 mirror pairs
    of other positions holds two 1s (the bits of one choose the other's, 2
    ways) or two specials forced by alternation (1 way).  So each of the n
    reflections with even c fixes 2·3^(n/2-1) words and the other n none.
    The reflection with c = 2a is the one with c = 0 conjugated by the
    rotation by a, so its fixed words are those of c = 0 rotated, and they
    meet every class equally often: one type, None, stands for all n, with
    c = 0 as its representative.

    Types with no fixed word are left out.  Rotation types come first, the
    identity (d = 2n) leading.
    """
    m = 2 * n
    terms = []
    for d, mult in sorted(Counter(gcd(r, m) for r in range(m)).items(), reverse=True):
        if n % d:
            fixed = _word_count(d // 2)
        else:
            fixed = 2 if d % 2 == 0 else 0
        if fixed:
            terms.append((d, mult, fixed))
    if n % 2 == 0:
        terms.append((None, n, 2 * 3 ** (n // 2 - 1)))
    return tuple(terms)


@lru_cache(maxsize=128)
def _burnside_total(n: int) -> int:
    """Σ mult·|Fix| over :func:`_fixed_point_counts`: 4n times the number of classes."""
    total = sum(mult * fixed for _, mult, fixed in _fixed_point_counts(n))
    assert total % (4 * n) == 0, f"Burnside total {total} is not a multiple of {4 * n}"
    return total


def count_bracelets(n: int) -> int:
    """Number of shift/reversal classes among the realizable words.

    Burnside's lemma: the count is the mean number of realizable words fixed
    by an element of the dihedral group of order 4n, :func:`_burnside_total`
    over 4n; the same total weighs the bracelet sampler.
    """
    _check_int(n, "n", 3, MAX_BRACELET_N)
    return _burnside_total(n) // (4 * n)


@dataclass(frozen=True)
class EnumerationReport:
    n: int
    word_count: int
    bracelet_count: int
    formula_count: int
    orbit_size_histogram: dict[int, int]  # orbit size -> number of classes


def enumeration_report(n: int) -> EnumerationReport:
    """Word count and orbit-size histogram of the realizable words of length 2n.

    A word's orbit has 4n/s words, s the number of its 4n images equal to
    it, so the classes of orbit size o are the words of that orbit size
    divided by o.
    """
    _check_int(n, "n", 3, MAX_ENUMERATION_N)
    group = 4 * n
    by_stabiliser = np.zeros(group + 1, np.int64)
    for chunk in _word_chunks(n):
        stabiliser = np.zeros(len(chunk), np.uint8)
        for image in _images(chunk, n):
            stabiliser += image == chunk
        by_stabiliser += np.bincount(stabiliser, minlength=group + 1)
    histogram = {}
    for s, count in reversed(list(enumerate(by_stabiliser.tolist()))):
        if count:
            orbit = group // s
            assert count % orbit == 0, f"{count} words with orbit size {orbit}"
            histogram[orbit] = count // orbit
    return EnumerationReport(
        n=n,
        word_count=int(by_stabiliser.sum()),
        bracelet_count=sum(histogram.values()),
        formula_count=count_words(n),
        orbit_size_histogram=histogram,
    )
