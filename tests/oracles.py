"""Independent oracles: literal definitions implemented from scratch.

Nothing here imports the library's decision logic, except the reference
direction-pattern check and the arc-first region statistics, which keep the
earlier versions of library functions on top of the same geometry helpers;
these exist to check them.
The float region kernel is likewise the earlier version of the batched
geometry, which the exact integer kernel replaced.
"""

import logging
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product

import numpy as np

from bisector_words import geometry, words


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


def clt_valid_draws(head: int, tail: int) -> int:
    """Valid (tail, head) letter strings of the CLT sampler, summed over the tail's S count.

    A tail of ``tail`` letters with no S leaves a head of ``head`` letters
    the requirement of an even nonzero S count (2^tail such tails), one
    with an odd count an odd one ((3^tail - 1) / 2 tails), and one with an
    even nonzero count an even one (the rest).
    """
    even, odd = (3**head + 1) // 2, (3**head - 1) // 2
    no_s, odd_s = 2**tail, (3**tail - 1) // 2
    return no_s * (even - 2**head) + odd_s * odd + (3**tail - no_s - odd_s) * even


def realizable_profiles(n: int, bounds) -> Counter:
    """How many realizable (letter string, phase) pairs of n letters have each prefix profile.

    The strings run over {0, 1, 2}^n (2 is S) with an even nonzero number
    of S, each with phase 0 and 1.  Folded, letter 1 is 10, letter 0 is 01,
    and the S alternate 11 and 00, the first being 11 when the phase is 1.
    The profile lists, for each bound b in turn, the numbers of S, of 11 and
    of 10 letters among the first b.
    """
    profiles = Counter()
    for letters in product(range(3), repeat=n):
        specials = letters.count(2)
        if specials == 0 or specials % 2:
            continue
        for phase in (0, 1):
            folded, next_is_11 = [], phase
            for u in letters:
                if u == 2:
                    folded.append("11" if next_is_11 else "00")
                    next_is_11 = not next_is_11
                else:
                    folded.append("10" if u == 1 else "01")
            profile = []
            for b in bounds:
                prefix = folded[:b]
                profile += [prefix.count("00") + prefix.count("11"), prefix.count("11"), prefix.count("10")]
            profiles[tuple(profile)] += 1
    return profiles


class EveryDraw:
    """A generator of ``rows`` rows whose ``integers`` calls run through every combination of values once.

    ``calls`` gives each call's (high, width) in order: the call draws
    ``width`` values on [0, high) per row, with ``size`` either ``rows`` or
    (rows, width).  Row r takes the mixed-radix digits of r, the first
    call's lowest, so the rows = Π high^width hold each combination once.
    """

    def __init__(self, calls):
        self.calls = list(calls)
        self.rows = math.prod(high**width for high, width in self.calls)
        self.place = 1

    def integers(self, low, high, size, dtype=np.int64):
        expected, width = self.calls.pop(0)
        assert (low, high) == (0, expected) and np.prod(size) == self.rows * width
        digits = np.arange(self.rows)[:, None] // (self.place * high ** np.arange(width)) % high
        self.place *= high**width
        return digits.astype(dtype).reshape(size)


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


def region_rows_by_floats(p):
    """Words, region types, sorted boundaries and region lengths of float rows.

    The float64 rank kernel that the exact integer kernel replaced, kept as a
    reference: rows sorted with first entry 0; bisectors (p_i + p_{i+1}) / 2
    and their antipodes mid + 1/2 (less 1 at or above 1) are rounded floats,
    so a row with a point within rounding of an antipodal bisector may get a
    wrong word.  Keys are the float64 bit patterns, ordered like the values
    below 2, shifted left with low bit 1 for an antipodal bisector, so one
    sort puts points first on ties.  Region j > 0 runs from boundary j - 1 to
    boundary j, and region 0 is the arc that wraps through position 0.
    """
    n = p.shape[1]
    mid = np.empty_like(p)
    np.add(p[:, :-1], p[:, 1:], out=mid[:, :-1])
    np.add(p[:, -1], 1, out=mid[:, -1])
    mid /= 2
    anti = mid + 0.5
    anti -= anti >= 1
    bnd = np.concatenate([mid, anti], axis=1)
    bnd.sort(axis=1)
    keys = np.empty((p.shape[0], 2 * n), dtype=np.uint64)
    np.left_shift(p.view(np.uint64), 1, out=keys[:, :n])
    np.bitwise_or(anti.view(np.uint64) << 1, 1, out=keys[:, n:])
    keys.sort(axis=1)
    w = ((keys & 1) == 0).view(np.uint8)
    types = w + np.roll(w, -n, axis=1)
    lengths = np.empty_like(bnd)
    lengths[:, 1:] = np.diff(bnd, axis=1)
    lengths[:, 0] = 1 - bnd[:, -1] + bnd[:, 0]
    return w, types, bnd, lengths


def region_values_by_floats(p):
    """Per-row h2, l0, l1, l2 and le of float rows as a (5, rows) array, by
    :func:`region_rows_by_floats`: 2n-wide masked sums of rounded lengths."""
    w, types, _, lengths = region_rows_by_floats(p)
    return np.stack(
        [
            (types == 2).sum(axis=1),
            *((lengths * (types == k)).sum(axis=1) for k in (0, 1, 2)),
            (lengths * (w == 0)).sum(axis=1),
        ]
    )


def region_values_by_masked_sums(sig, lengths):
    """Per-row h2, l0, l1, l2 and le as a (5, rows) array from the exact
    kernel's signatures and half-circle lengths, by the masked axis-1 sums
    that the batched region values used before their row sums moved to einsum."""
    l0, l1 = ((lengths * (sig == t)).sum(axis=1) * 2.0**-53 for t in (0, 1))
    return np.stack([2 * (sig == 2).sum(axis=1), l0, l1, 1 - l0 - l1, l0 + l1 / 2])


def _boundary_values(k):
    """Bisectors and their antipodes of integer rows (units of 2**-53, sorted,
    first entry 0) as Python ints in units of 2**-54: a point k is 2k there."""
    half = 1 << 53
    out = []
    for row in k.tolist():
        mids = [a + b for a, b in zip(row, row[1:])] + [row[-1] + half]
        out.append((mids, [(x + half) % (2 * half) for x in mids]))
    return out


def words_by_stable_argsort(k):
    """Occupancy words of integer rows (units of 2**-53, sorted, first entry 0),
    by one stable argsort per row of [points, antipodal bisectors] in exact
    units of 2**-54: the word is the indicator of the points in that order, so
    a point goes before an antipodal bisector equal to it.
    """
    anti = np.array([a for _, a in _boundary_values(k)], dtype=np.int64).reshape(k.shape)
    order = np.argsort(np.concatenate([2 * k, anti], axis=1), axis=1, kind="stable")
    return (order < k.shape[1]).view(np.uint8)


def path_rows_by_grid_loop(k, grid):
    """Per integer row of ``k`` (units of 2**-53, sorted, first entry 0), type t and
    grid value: the fraction of the 2n regions of type t that end by it, and their
    total length, as a (rows, 2, 3, grid size) array.  One pass over the regions per
    grid value, with all 2n boundaries sorted, each end compared as a Fraction and
    the lengths summed as integers in units of 2**-54, rounded once.

    Region j > 0 runs from boundary j - 1 to boundary j; region 0 wraps through
    position 0, so it ends by t only at t = 1 and is taken last.  A region's type
    is the occupancy of its own slot plus that of the slot n further on.
    """
    n = k.shape[1]
    m = 2 * n
    circle = 1 << 54
    occupied = words_by_stable_argsort(k)
    limits = [Fraction(float(t)) * circle for t in grid]
    out = np.zeros((len(k), 2, 3, len(grid)))
    for r, (mids, anti) in enumerate(_boundary_values(k)):
        bnd = sorted(mids + anti)
        ends = [circle, *bnd[1:]]
        lengths = [circle - bnd[-1] + bnd[0], *(bnd[j] - bnd[j - 1] for j in range(1, m))]
        types = [int(occupied[r, j]) + int(occupied[r, (j + n) % m]) for j in range(m)]
        for g, limit in enumerate(limits):
            total = [0, 0, 0]
            for j in [*range(1, m), 0]:
                if ends[j] <= limit:
                    out[r, 0, types[j], g] += 1
                    total[types[j]] += lengths[j]
            out[r, 1, :, g] = [float(x) * 2.0**-54 for x in total]
    out[:, 0] /= m
    return out


pattern_logger = logging.getLogger("oracles.patterns")


def direction_patterns_by_region_lists(config) -> bool:
    """The direction-pattern check as first written: a dot list per region, the
    wrap region reordered by hand, RL and LR pairs found by their own scans and
    each LR gap's boundaries listed one by one.

    The reference for ``geometry.verify_direction_patterns``: it returns the
    same result and logs the same reasons (to ``pattern_logger``).  It calls
    the library's frame, dot and direction helpers through their module, so a
    test that patches one of them patches both checks.
    """
    f = geometry._generic_frame(config)
    n, m, circle = f.n, 2 * f.n, f.circle
    bnd = f.boundaries()
    dots = geometry._colored_dots(f)
    dirs, nearest = zip(*geometry._dot_directions(dots, circle))

    regions: list[list[int]] = [[] for _ in range(m)]
    for idx, (q, _) in enumerate(dots):
        regions[geometry._region_index(bnd, q, m)].append(idx)
    # wrap region: dots above the last boundary precede those below the first
    if regions[0]:
        upper = [i for i in regions[0] if dots[i][0] >= bnd[-1]]
        lower = [i for i in regions[0] if dots[i][0] < bnd[0]]
        regions[0] = upper + lower

    types = [len(r) for r in regions]
    sig = tuple(types[:n])

    if types[:n] != types[n:]:
        pattern_logger.warning("pattern check: antipodal regions have different types")
        return False

    # two-dot regions <-> mutual nearest pairs looking R then L
    rl_pairs = {
        (i, (i + 1) % m)
        for i in range(m)
        if dirs[i] == "R" and dirs[(i + 1) % m] == "L"
    }
    for j in range(m):
        if types[j] != 2:
            continue
        a, b = regions[j]
        if dots[a][1] == dots[b][1]:
            pattern_logger.warning("pattern check: two-dot region %d has equal colors", j)
            return False
        if (a, b) not in rl_pairs:
            pattern_logger.warning("pattern check: two-dot region %d is not an RL pair", j)
            return False
        if nearest[a] != dots[b][0] or nearest[b] != dots[a][0]:
            pattern_logger.warning("pattern check: region %d dots are not mutual nearest", j)
            return False
    if len(rl_pairs) != sum(1 for t in types if t == 2):
        pattern_logger.warning("pattern check: RL pattern count != number of two-dot regions")
        return False

    # empty regions <-> L then R direction patterns
    lr_pairs = [
        (i, (i + 1) % m)
        for i in range(m)
        if dirs[i] == "L" and dirs[(i + 1) % m] == "R"
    ]
    empty = sum(1 for t in types if t == 0)
    if len(lr_pairs) != empty:
        pattern_logger.warning("pattern check: LR pattern count != number of empty regions")
        return False
    for i, k in lr_pairs:
        inside = geometry._arc_indices(bnd, dots[i][0], dots[k][0])
        if len(inside) != 2:
            pattern_logger.warning("pattern check: LR gap holds %d boundaries", len(inside))
            return False
        j = inside[1]  # region j lies between boundaries j - 1 and j
        if types[j] != 0:
            pattern_logger.warning("pattern check: region %d between LR pair is not empty", j)
            return False

    if not any(t == 2 for t in types):
        pattern_logger.warning("pattern check: no two-dot region")
        return False
    if not words.is_interlacing(sig):
        pattern_logger.warning("pattern check: signature %s does not interlace", sig)
        return False
    return True


def region_stats_by_fractions(config, t_grid=()):
    """``geometry.region_stats`` as first written: every boundary and length
    goes to arc length first, and the totals and curves are sums of arc
    lengths (Fractions for exact input).

    The reference for ``geometry.region_stats``, which sums in circle units
    and converts only the values it returns.
    """
    grid = tuple(t_grid)
    geometry._check_grid(grid, "t-grid", "[0, 1]")
    f = geometry._generic_frame(config)
    m = 2 * f.n
    bnd_units = f.boundaries()
    word = geometry._occupancy(f, bnd_units)
    sig = words.signature(word)
    types = tuple(sig[i % f.n] for i in range(m))

    bnd = [f.arc(b) for b in bnd_units]
    lengths_units = [bnd_units[0] + f.circle - bnd_units[-1]] + [
        bnd_units[j] - bnd_units[j - 1] for j in range(1, m)
    ]
    lengths = [f.arc(x) for x in lengths_units]
    region_counts = tuple(sum(1 for t in types if t == k) for k in (0, 1, 2))
    length_totals = tuple(
        sum(lengths[j] for j in range(m) if types[j] == k) for k in (0, 1, 2)
    )
    empty_length = sum(lengths[j] for j in range(m) if word[j] == 0)

    # Below t = 1 the regions in [0, t] are 1..i, i = bisect_right(bnd, t, 1) - 1,
    # summed in index order; at t >= 1 the wrap region 0 joins: index m.
    at = [bisect_right(bnd, t, 1) - 1 if t < 1 else m for t in grid]
    h_curves = []
    l_curves = []
    for k in (0, 1, 2):
        hits = [types[j] == k for j in range(1, m)]
        kept = (x if hit else 0 for x, hit in zip(lengths[1:], hits))
        counts = [*accumulate(hits, initial=0), region_counts[k]]
        totals = [*accumulate(kept, initial=0), length_totals[k]]
        h_curves.append(tuple(counts[i] for i in at))
        l_curves.append(tuple(totals[i] for i in at))

    return geometry.RegionStats(
        types=types,
        lengths=tuple(lengths),
        occupied=word,
        region_counts=region_counts,
        length_totals=length_totals,
        empty_length=empty_length,
        t_grid=grid,
        h_curves=tuple(h_curves),
        l_curves=tuple(l_curves),
    )
