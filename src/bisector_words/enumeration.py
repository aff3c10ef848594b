"""Exact generation and counting of realizable words and bracelets.

Words stream as packed integers (first bit most significant, as in
:func:`words.word_to_int`) and are decoded only where a caller wants tuples.
Bracelet counts come from Burnside's lemma and need no enumeration; the
per-class report marks whole orbits as seen, so each class is canonicalised
once rather than once per word.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count
from math import gcd
from typing import Iterable, Iterator

from . import words
from .words import Word

MAX_ENUMERATION_N = 14  # desk scale; the report holds every word of length 2n in one set
# The bracelet count has about 0.48 n decimal digits; this keeps it below
# Python's default limit of 4300 digits for converting an int to text.
MAX_COUNT_N = 5000


def _check_range(n: int) -> None:
    if not 3 <= n <= MAX_ENUMERATION_N:
        raise ValueError(f"enumeration supports 3 <= n <= {MAX_ENUMERATION_N}, got {n}")


def _check_count_range(n: int) -> None:
    if not 3 <= n <= MAX_COUNT_N:
        raise ValueError(f"bracelet counts support 3 <= n <= {MAX_COUNT_N}, got {n}")


def count_words(n: int) -> int:
    """Number of realizable words of length 2n: 3^n - 2^(n+1) + 1."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return 3**n - 2 ** (n + 1) + 1


def enumerate_signatures(n: int) -> Iterator[tuple[int, ...]]:
    """Interlacing signatures of length n in lexicographic order.

    Prefixes grow one letter at a time, trying 0, 1, 2 in turn, so each
    level stays in lexicographic order.  A prefix carries its first and last
    special letter (0 or 2); a special letter must differ from the last one,
    and a complete signature needs a special letter whose first and last
    differ, which closes the alternation around the cycle.
    """
    _check_range(n)
    level = [((), None, None)]  # (prefix, first special letter, last special letter)
    for _ in range(n):
        level = [
            (sig + (x,), x if first is None and x != 1 else first, last if x == 1 else x)
            for sig, first, last in level
            for x in (0, 1, 2)
            if x == 1 or x != last
        ]
    for sig, first, last in level:
        if first is not None and first != last:
            yield sig


def _packed_words(n: int) -> Iterator[int]:
    """All realizable words of length 2n as packed integers, in stream order.

    Letter 2 at position i sets bits i and i + n; letter 1 sets one of them,
    first bit i (the pair (1,0)) and then bit i + n (the pair (0,1)), the
    first free position varying slowest.
    """
    size = 2 * n
    for sig in enumerate_signatures(n):
        base = 0
        expansions = [0]
        for i in range(n - 1, -1, -1):
            high, low = 1 << (size - 1 - i), 1 << (n - 1 - i)
            if sig[i] == 2:
                base |= high | low
            elif sig[i] == 1:
                expansions = [b | e for b in (high, low) for e in expansions]
        for e in expansions:
            yield base | e


def enumerate_words(n: int) -> Iterator[Word]:
    """All realizable words of length 2n, each exactly once.

    Signatures stream in lexicographic order; for each, the positions with
    letter 1 expand into the two bit choices in the fixed order (1,0) then
    (0,1), so the stream is reproducible.
    """
    _check_range(n)
    halves = [tuple((h >> i) & 1 for i in range(n - 1, -1, -1)) for h in range(1 << n)]
    mask = (1 << n) - 1
    for x in _packed_words(n):
        yield halves[x >> n] + halves[x & mask]


def _bracelet_classes(stream: Iterable[int], n: int) -> Iterator[tuple[int, int]]:
    """(least packed word, orbit size) of each class, in order of first appearance.

    The stream must hold every realizable word of length 2n.  A word whose
    class has been seen is skipped; a new word has its orbit computed once,
    and the whole orbit is marked as seen.
    """
    seen: set[int] = set()
    for x in stream:
        if x not in seen:
            orbit = words._orbit(x, n)
            seen |= orbit
            yield min(orbit), len(orbit)


def count_bracelets(n: int) -> int:
    """Number of shift/reversal classes among the realizable words.

    Burnside's lemma over the dihedral group of order 4n acting on the 2n
    positions: the count is the mean number of realizable words fixed by a
    group element.  With cw(m) = 3^m - 2^(m+1) + 1 and d = gcd(r, 2n), the
    rotation by r fixes cw(d/2) words when d does not divide n, and
    2·[d even] words when it does.  A fixed word has period d.  If d divides
    n, bits i and i+n agree, so the signature has no 1s and its 0s and 2s
    alternate with period d: d is even and the first bit picks one of 2
    words.  Otherwise n = d/2 mod d, so the signature is a length-d/2
    signature repeated an odd number of times; it interlaces iff that one
    does, so the fixed words are the realizable words of length d (cw holds
    for every m >= 1).

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
    """
    _check_count_range(n)
    m = 2 * n
    total = 0
    for r in range(m):
        d = gcd(r, m)
        if n % d:
            total += 3 ** (d // 2) - 2 ** (d // 2 + 1) + 1
        elif d % 2 == 0:
            total += 2
    if n % 2 == 0:
        total += 2 * n * 3 ** (n // 2 - 1)
    assert total % (2 * m) == 0, f"Burnside total {total} is not a multiple of {2 * m}"
    return total // (2 * m)


@dataclass(frozen=True)
class EnumerationReport:
    n: int
    word_count: int
    bracelet_count: int
    formula_count: int
    orbit_size_histogram: dict[int, int]  # orbit size -> number of classes

    def words_in_orbits_smaller_than(self, bound: int) -> int:
        return sum(o * c for o, c in self.orbit_size_histogram.items() if o < bound)


def enumeration_report(n: int) -> EnumerationReport:
    _check_range(n)
    counter = count()
    # zip takes a word before it takes a number, so counter stops at the word count
    stream = (x for x, _ in zip(_packed_words(n), counter))
    histogram = Counter(size for _, size in _bracelet_classes(stream, n))
    return EnumerationReport(
        n=n,
        word_count=next(counter),
        bracelet_count=sum(histogram.values()),
        formula_count=count_words(n),
        orbit_size_histogram=dict(sorted(histogram.items())),
    )
