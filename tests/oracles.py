"""Independent oracles: literal definitions implemented from scratch.

Nothing here imports the library's decision logic; these exist to check it.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np


def cyclic_interval(N: int, i: int, j: int) -> set[int]:
    """Open cyclic interval of 1-based integers from i to j."""
    if i < j:
        return set(range(i + 1, j))
    return set(range(1, j)) | set(range(i + 1, N + 1))


def is_interlacing_literal(sig) -> bool:
    """Word over {0,1,2} with a 0 and a 2, and a unique 2 strictly between
    consecutive 0s, checked directly on every ordered pair of 0 positions."""
    n = len(sig)
    if 0 not in sig or 2 not in sig:
        return False
    zeros = [i + 1 for i, v in enumerate(sig) if v == 0]
    for i in zeros:
        for j in zeros:
            interval = cyclic_interval(n, i, j)
            if any(sig[k - 1] == 0 for k in interval):
                continue
            if sum(1 for k in interval if sig[k - 1] == 2) != 1:
                return False
    return True


def brute_force_realizable_words(n: int) -> set[tuple[int, ...]]:
    """All binary words of length 2n whose signature passes the literal test."""
    out = set()
    for bits in product((0, 1), repeat=2 * n):
        sig = tuple(bits[i] + bits[i + n] for i in range(n))
        if is_interlacing_literal(sig):
            out.add(bits)
    return out


def letter_count_law(length: int) -> dict[tuple[int, int], Fraction]:
    """Law of (number of 2s, number of 1s) in a uniform string over {0, 1, 2}: multinomial."""
    return {
        (twos, ones): Fraction(
            math.factorial(length)
            // (math.factorial(twos) * math.factorial(ones) * math.factorial(length - twos - ones)),
            3**length,
        )
        for twos in range(length + 1)
        for ones in range(length + 1 - twos)
    }


def enumerate_walks_plus(n: int) -> set[tuple[int, ...]]:
    """Step sequences over {-1,0,1} with an even nonzero number of zeros."""
    out = set()
    for steps in product((-1, 0, 1), repeat=n):
        zeros = steps.count(0)
        if zeros > 0 and zeros % 2 == 0:
            out.add(steps)
    return out


def exp_below_erlangs_prob(k: int, l: int) -> Fraction:
    """P(X < U and X < V) for X ~ Exp(1), U ~ Erlang(k, 1), V ~ Erlang(l, 1).

    Read as a race of three rate-1 Poisson processes: each arrival is X's, U's
    or V's with chance 1/3, and X wins if it arrives before U's k-th and V's
    l-th arrival.  Solved by recursion over the (U, V) arrival counts.
    """
    third = Fraction(1, 3)
    win = {}
    for i in reversed(range(k)):
        for j in reversed(range(l)):
            win[i, j] = third + third * (win.get((i + 1, j), 0) + win.get((i, j + 1), 0))
    return win[0, 0]


def count_non_interlacing(signatures) -> int:
    """Rows whose non-1 letters, read cyclically, repeat a value, or that have none."""
    bad = 0
    for row in signatures.tolist():
        specials = [v for v in row if v != 1]
        if not specials:
            bad += 1
            continue
        prev = specials[-1]
        for v in specials:
            if v == prev:
                bad += 1
                break
            prev = v
    return bad


def bracelet_class_tuples(word) -> set[tuple[int, ...]]:
    """Every cyclic shift of a word and of its reverse, as tuples."""
    w = tuple(word)
    return {v[i:] + v[:i] for v in (w, w[::-1]) for i in range(len(v))}


def interlacing_signatures(n: int) -> list[tuple[int, ...]]:
    """Signatures of length n that pass the literal test, in lexicographic order."""
    return [sig for sig in product((0, 1, 2), repeat=n) if is_interlacing_literal(sig)]


def enumerate_words_by_product(n: int):
    """Realizable words in stream order: each interlacing signature in turn, its
    1-letters expanded over (1,0) then (0,1), the first one varying slowest."""
    for sig in interlacing_signatures(n):
        free = [i for i, letter in enumerate(sig) if letter == 1]
        first = [1 if letter == 2 else 0 for letter in sig]
        second = list(first)
        for choice in product(((1, 0), (0, 1)), repeat=len(free)):
            for i, (a, b) in zip(free, choice):
                first[i] = a
                second[i] = b
            yield tuple(first) + tuple(second)


def count_bracelets_by_canonical(n: int) -> int:
    """Shift/reversal classes of the realizable words, one canonical form per word."""
    return len({min(bracelet_class_tuples(w)) for w in enumerate_words_by_product(n)})


def dihedral_image(word, shift: int, reflect: bool) -> tuple[int, ...]:
    """The word read as w_{shift+i}, or as w_{shift-i} when reflecting (indices mod length)."""
    m = len(word)
    sign = -1 if reflect else 1
    return tuple(word[(shift + sign * i) % m] for i in range(m))


def fixed_words(n: int, shift: int, reflect: bool) -> set[tuple[int, ...]]:
    """Realizable words of length 2n left unchanged by one rotation or reflection."""
    return {
        w for w in enumerate_words_by_product(n) if dihedral_image(w, shift, reflect) == w
    }


def bisector_positions_by_fractions(positions) -> list:
    """Midpoint of the short arc between each two cyclically consecutive points."""
    p = sorted(Fraction(x) for x in positions)
    return [((a + b) / 2) % 1 for a, b in zip(p, p[1:] + [p[0] + 1])]


def _bisector_lines(positions):
    """The bisector positions and their antipodes."""
    mids = bisector_positions_by_fractions(positions)
    return mids + [(x + Fraction(1, 2)) % 1 for x in mids]


def region_boundaries_by_fractions(positions) -> list:
    """The 2n bisector positions and their antipodes, sorted, on [0, 1)."""
    return sorted(_bisector_lines(positions))


def genericity_margin_by_fractions(positions):
    """Least cyclic gap among points, antipodes, bisectors and their antipodes."""
    p = [Fraction(x) for x in positions]
    vals = sorted(p + [(x + Fraction(1, 2)) % 1 for x in p] + _bisector_lines(p))
    return min(b - a for a, b in zip(vals, vals[1:] + [vals[0] + 1]))


def occupancy_word_by_fractions(positions):
    """Occupancy word read with the first point rotated to 0, or None on a tie.

    Region i (0 <= i < 2n) lies above exactly i boundaries, region 0 also
    takes what lies above all 2n; a tie is a zero genericity margin or two
    points in one region.
    """
    p = sorted(Fraction(x) for x in positions)
    if genericity_margin_by_fractions(p) == 0:
        return None
    rotated = [x - p[0] for x in p]
    bnd = region_boundaries_by_fractions(rotated)
    m = len(bnd)
    counts = [0] * m
    for x in rotated:
        counts[sum(1 for b in bnd if b <= x) % m] += 1
    if max(counts) > 1:
        return None
    return tuple(counts)


def bisector_layout_by_fractions(plan) -> bool:
    """The bisector layout check of a realization plan, scanned in Fractions.

    The points are the perturbed positions (mod 1) of the indices whose bit
    is set in the rotated word.  Each index of a descending run needs exactly
    one boundary in the open arc from its predecessor's position to its own,
    each index of an ascending run one in the arc from its own to its
    successor's, and each window (c - 1/(8s), c + 1/(8s)) around c =
    (2k - 1)/(2s) exactly two; the boundaries claimed must be 2n distinct ones.
    """
    pos = [Fraction(x) % 1 for x in plan.perturbed]
    points = sorted(x for x, bit in zip(pos, plan.rotated_word) if bit)
    boundaries = region_boundaries_by_fractions(points)
    m = len(pos)

    def inside(a, b):
        return [x for x in boundaries if 0 < (x - a) % 1 < (b - a) % 1]

    claimed = []
    for kind, _anchor, indices in plan.components:
        for h in indices:
            if kind == "descending":
                hits = inside(pos[h - 1], pos[h])
            else:
                hits = inside(pos[h], pos[(h + 1) % m])
            if len(hits) != 1:
                return False
            claimed += hits
    half = Fraction(1, 8 * plan.s)
    for k in range(1, plan.s + 1):
        center = Fraction(2 * k - 1, 2 * plan.s)
        hits = inside((center - half) % 1, (center + half) % 1)
        if len(hits) != 2:
            return False
        claimed += hits
    return len(claimed) == m and len(set(claimed)) == m


def words_by_stable_argsort(p):
    """Occupancy words of float rows, each sorted with first entry 0, by one stable
    argsort per row of [p, antipodal bisectors]: the word is the indicator of the
    points in that order, so a point goes before an antipodal bisector equal to it.
    """
    mid = np.empty_like(p)
    mid[:, :-1] = (p[:, :-1] + p[:, 1:]) / 2
    mid[:, -1] = (1 + p[:, -1]) / 2
    anti = mid + 0.5
    anti[anti >= 1] -= 1
    order = np.argsort(np.concatenate([p, anti], axis=1), axis=1, kind="stable")
    return (order < p.shape[1]).view(np.uint8)


def path_rows_by_grid_loop(p, grid):
    """Per row of ``p`` (sorted, first entry 0), type k and grid value t: the
    fraction of the 2n regions of type k that end by t, and their total length,
    as a (rows, 2, 3, grid size) array.  One pass over the regions per grid value.

    Region j > 0 runs from boundary j - 1 to boundary j; region 0 wraps through
    position 0, so it ends by t only at t = 1 and is taken last.  A region's type
    is the occupancy of its own slot plus that of the slot n further on.
    """
    n = p.shape[1]
    m = 2 * n
    mid = np.empty_like(p)
    mid[:, :-1] = (p[:, :-1] + p[:, 1:]) / 2
    mid[:, -1] = (1 + p[:, -1]) / 2
    anti = mid + 0.5
    anti[anti >= 1] -= 1
    occupied = words_by_stable_argsort(p)
    out = np.zeros((len(p), 2, 3, len(grid)))
    for r, row in enumerate(np.sort(np.concatenate([mid, anti], axis=1), axis=1).tolist()):
        ends = [1.0, *row[1:]]
        lengths = [1 - row[-1] + row[0], *(row[j] - row[j - 1] for j in range(1, m))]
        types = [int(occupied[r, j]) + int(occupied[r, (j + n) % m]) for j in range(m)]
        for g, t in enumerate(grid):
            for j in [*range(1, m), 0]:
                if ends[j] <= t:
                    out[r, 0, types[j], g] += 1
                    out[r, 1, types[j], g] += lengths[j]
    out[:, 0] /= m
    return out
