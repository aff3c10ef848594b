"""Arc-coordinate geometry of bisector arrangements on the unit circle.

Points live on a circle of total length 1, identified with [0, 1) via
t -> exp(2*pi*i*t).  The n lines through the center (each the perpendicular
bisector of two cyclically consecutive points) reduce to n arc positions
plus their antipodes, so all computations happen on sorted positions mod 1.

Positions may be exact rationals (``fractions.Fraction``) or floats, and
both run through one code path in circle units.  A configuration keeps its
positions as x = p * U, with U = 1 for floats and U the least common
multiple of the denominators for exact input, so exact positions are ints.
A critical value v is handled as 2 * v * U on a circle of length 2U: a
point is 2x, its antipode 2x + U, the bisector of two consecutive points
a + b (the wrap pair U + a + b), an antipodal bisector that plus U, all mod
2U.  Nothing is ever halved, so exact values stay integral (sorting,
bisecting and gap minima run on ints), and each float value is exactly
twice what the unit-circle formulas give, so float results are
bit-identical to them.  Values go back to arc length, ``Fraction(v, 2U)``
or ``v / 2``, only where a public function returns them.  Only the
genericity tolerance differs between exact and float input.

Words are read with the first point rotated to 0: region 0 is the arc
containing positions just above 0, regions follow counterclockwise.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import words
from .words import Signature, Word

logger = logging.getLogger(__name__)

# Two of the 4n critical values (points, antipodes, bisectors, antipodal
# bisectors) closer than this mod 1 make a float configuration degenerate.
FLOAT_TIE_TOLERANCE = 1e-12


class NonGenericConfiguration(ValueError):
    """Configuration with coinciding critical values; words are ill-defined."""


@dataclass(frozen=True)
class PointConfig:
    """n >= 3 strictly increasing positions in [0, 1) on the unit-length circle.

    ``is_exact`` (no position is a float) is settled at construction, as are
    the positions in circle units (see the module docstring).
    """

    positions: tuple
    is_exact: bool = field(init=False, repr=False, compare=False)
    _units: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = tuple(self.positions)
        if len(pos) < 3:
            raise ValueError(f"need at least 3 points, got {len(pos)}")
        exact = not any(isinstance(p, float) for p in pos)
        if exact:
            pos = tuple(p if isinstance(p, Fraction) else Fraction(p) for p in pos)
            unit = math.lcm(*(p.denominator for p in pos))
            xs = tuple(p.numerator * (unit // p.denominator) for p in pos)
        else:
            unit, xs = 1, pos
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "is_exact", exact)
        object.__setattr__(self, "_units", (xs, unit))
        if any(not 0 <= x < unit for x in xs):
            raise ValueError("positions must lie in [0, 1)")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("positions must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.positions)

    @classmethod
    def from_points(cls, pts: Iterable) -> "PointConfig":
        """Build from arbitrary positions: reduced mod 1 and sorted."""
        return cls(tuple(sorted(p % 1 for p in pts)))

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "PointConfig":
        """Parse decimal or 'p/q' position strings; both parse exactly."""
        return cls.from_points(Fraction(s) for s in items)

    def to_strings(self) -> list[str]:
        return [str(p) for p in self.positions]

    def rotated(self, delta) -> "PointConfig":
        return PointConfig.from_points(p + delta for p in self.positions)

    def reflected(self) -> "PointConfig":
        return PointConfig.from_points(-p for p in self.positions)


class _Frame:
    """A configuration in circle units: positions x, circle length 2U.

    ``lines`` are the doubled bisectors in pair order (entry i separates
    points i and i+1), ``antilines`` their antipodes.
    """

    __slots__ = ("n", "xs", "unit", "circle", "exact", "lines", "antilines")

    def __init__(self, config: PointConfig, rotate: bool):
        xs, unit = config._units
        if rotate:
            x0 = xs[0]
            xs = [x - x0 for x in xs]
        self.n = len(xs)
        self.xs = xs
        self.unit = unit
        self.circle = 2 * unit
        self.exact = config.is_exact
        # the wrap pair takes the branch (U + a + b) mod 2U, the short arc
        self.lines = [a + b for a, b in zip(xs, xs[1:])]
        self.lines.append((unit + xs[-1] + xs[0]) % self.circle)
        self.antilines = self.antipodes(self.lines)

    def arc(self, v):
        """A value in circle units as arc length on the unit circle."""
        return Fraction(v, self.circle) if self.exact else v / self.circle

    def points(self) -> list:
        return [2 * x for x in self.xs]

    def antipodes(self, vals) -> list:
        return [(v + self.unit) % self.circle for v in vals]

    def boundaries(self) -> list:
        return sorted(self.lines + self.antilines)

    def critical_values(self) -> list:
        pts = self.points()
        return sorted(pts + self.antipodes(pts) + self.lines + self.antilines)

    def margin(self):
        vals = self.critical_values()
        gaps = [b - a for a, b in zip(vals, vals[1:])]
        gaps.append(vals[0] + self.circle - vals[-1])
        return min(gaps)

    def ensure_generic(self) -> None:
        margin = self.margin()
        if self.exact:
            if margin <= 0:
                raise NonGenericConfiguration("coinciding critical values")
        elif self.arc(margin) < FLOAT_TIE_TOLERANCE:
            raise NonGenericConfiguration(
                f"critical values within {FLOAT_TIE_TOLERANCE} of each other"
                f" (margin {self.arc(margin)!r})"
            )


def _generic_frame(config: PointConfig) -> _Frame:
    """The frame of ``config`` with p_0 rotated to 0, checked for genericity."""
    f = _Frame(config, rotate=True)
    f.ensure_generic()
    return f


def circle_distance(a, b):
    d = abs(b - a)
    return min(d, 1 - d)


def bisector_positions(config: PointConfig) -> tuple:
    """Midpoint of each pair of cyclically consecutive points, in pair order.

    The wrap-around pair uses the branch (1 + p_last + p_first)/2 mod 1 so the
    midpoint lands on the short arc between the two points.
    """
    f = _Frame(config, rotate=False)
    return tuple(f.arc(v) for v in f.lines)


def critical_values(config: PointConfig) -> list:
    """Points, antipodes, bisectors and antipodal bisectors: 4n values mod 1."""
    f = _Frame(config, rotate=False)
    return [f.arc(v) for v in f.critical_values()]


def genericity_margin(config: PointConfig):
    """Smallest cyclic gap between two critical values; 0 means degenerate."""
    f = _Frame(config, rotate=False)
    return f.arc(f.margin())


def ensure_generic(config: PointConfig) -> None:
    _Frame(config, rotate=False).ensure_generic()


def region_boundaries(config: PointConfig) -> tuple:
    """The 2n sorted region boundaries: bisectors and their antipodes."""
    f = _Frame(config, rotate=False)
    return tuple(f.arc(v) for v in f.boundaries())


def _region_index(boundaries: Sequence, x, m: int) -> int:
    # region 0 is the wrap arc [boundaries[-1] - 1, boundaries[0])
    return bisect_right(boundaries, x) % m


def _arc_indices(boundaries: Sequence, a, b) -> list[int]:
    """Indices of the sorted boundaries strictly inside the counterclockwise arc (a, b).

    a and b lie on the circle's range [0, length); the arc wraps through 0
    when a > b and is empty when a == b.  Indices come in counterclockwise order.
    """
    lo, hi = bisect_right(boundaries, a), bisect_left(boundaries, b)
    if a <= b:
        return list(range(lo, hi))
    return list(range(lo, len(boundaries))) + list(range(hi))


def _occupancy(f: _Frame, bnd: Sequence) -> Word:
    m = 2 * f.n
    v = [0] * m
    for p in f.points():
        v[_region_index(bnd, p, m)] += 1
    if any(b > 1 for b in v):
        raise NonGenericConfiguration("two points share a region")
    return tuple(v)


def occupancy_word(config: PointConfig) -> Word:
    """Binary word: bit i is 1 iff region i contains a point.

    The configuration is rotated so its first point sits at 0; region 0 is
    the arc containing that point, regions are numbered counterclockwise.
    """
    f = _generic_frame(config)
    return _occupancy(f, f.boundaries())


@dataclass(frozen=True)
class Arrangement:
    """Positions of the region boundaries and dots after rotating p_0 to 0.

    ``bisectors`` keeps construction order (entry i separates points i and
    i+1); ``boundaries`` and ``dots`` are the sorted merges with antipodes.
    """

    n: int
    bisectors: tuple
    antipodal_bisectors: tuple
    boundaries: tuple
    dots: tuple


def arrangement(config: PointConfig) -> Arrangement:
    f = _generic_frame(config)
    pts = f.points()
    return Arrangement(
        n=f.n,
        bisectors=tuple(f.arc(v) for v in f.lines),
        antipodal_bisectors=tuple(f.arc(v) for v in f.antilines),
        boundaries=tuple(f.arc(v) for v in f.boundaries()),
        dots=tuple(f.arc(v) for v in sorted(pts + f.antipodes(pts))),
    )


def arrangement_signature(arr: Arrangement) -> Signature:
    """Dot count per region for the first n regions, read from the arrangement."""
    m = 2 * arr.n
    counts = [0] * m
    for q in arr.dots:
        counts[_region_index(arr.boundaries, q, m)] += 1
    if counts[: arr.n] != counts[arr.n :]:
        raise NonGenericConfiguration("antipodal regions disagree on dot counts")
    return tuple(counts[: arr.n])


def _colored_dots(f: _Frame) -> list[tuple]:
    """All 2n (position, is_black) dots of a frame, in circle units, sorted."""
    pts = f.points()
    dots = [(p, 1) for p in pts] + [(q, 0) for q in f.antipodes(pts)]
    dots.sort()
    return dots


def _look_direction(q, opposite: Sequence, circle) -> tuple[str, object]:
    """Side (L/R) of the dot in ``opposite`` nearest to q on the circle, and that dot.

    The nearest dot is one of the two neighbours of q in the sorted ``opposite``.
    """
    i = bisect_left(opposite, q)
    near = (opposite[i - 1], opposite[i % len(opposite)])
    deltas = [(x - q) % circle for x in near]
    dists = [min(d, circle - d) for d in deltas]
    if dists[0] == dists[1]:
        raise NonGenericConfiguration("equidistant opposite-color dots")
    j = dists.index(min(dists))
    return ("R" if 2 * deltas[j] < circle else "L"), near[j]


def _dot_directions(dots: list[tuple], circle) -> list[tuple[str, object]]:
    """Per dot, its look direction and its nearest opposite-color dot."""
    blacks = [q for q, c in dots if c]
    whites = [q for q, c in dots if not c]
    return [_look_direction(q, whites if c else blacks, circle) for q, c in dots]


def ocdc(config: PointConfig) -> tuple[str, ...]:
    """Oriented colored dot configuration of the dots in [0, 1/2).

    After rotating the first point to 0, each of the n dots there is recorded
    as color (B for a point, W for an antipode) plus the side of its nearest
    opposite-color dot, e.g. "BR" or "WL".  Entry 0 is always black.
    """
    f = _generic_frame(config)
    dots = _colored_dots(f)
    entries = []
    for (q, color), (d, _) in zip(dots, _dot_directions(dots, f.circle)):
        if 2 * q < f.circle:
            entries.append(("B" if color else "W") + d)
    if len(entries) != f.n:
        raise NonGenericConfiguration("half circle does not hold exactly n dots")
    return tuple(entries)


def verify_direction_patterns(config: PointConfig) -> bool:
    """Check the dot-pattern characterization of region types on one configuration.

    Verifies that regions holding two dots are exactly the mutual
    nearest-pairs showing look directions R then L, that empty antipodal
    pairs correspond exactly to L-then-R direction patterns with two
    boundaries in between, that a two-dot region exists, and that the
    signature interlaces.  Returns False (with a logged diagnostic) on any
    violation.
    """
    f = _generic_frame(config)
    n, m, circle = f.n, 2 * f.n, f.circle
    bnd = f.boundaries()
    dots = _colored_dots(f)
    dirs, nearest = zip(*_dot_directions(dots, circle))

    regions: list[list[int]] = [[] for _ in range(m)]
    for idx, (q, _) in enumerate(dots):
        regions[_region_index(bnd, q, m)].append(idx)
    # wrap region: dots above the last boundary precede those below the first
    if regions[0]:
        upper = [i for i in regions[0] if dots[i][0] >= bnd[-1]]
        lower = [i for i in regions[0] if dots[i][0] < bnd[0]]
        regions[0] = upper + lower

    types = [len(r) for r in regions]
    sig = tuple(types[:n])

    if types[:n] != types[n:]:
        logger.warning("pattern check: antipodal regions have different types")
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
            logger.warning("pattern check: two-dot region %d has equal colors", j)
            return False
        if (a, b) not in rl_pairs:
            logger.warning("pattern check: two-dot region %d is not an RL pair", j)
            return False
        if nearest[a] != dots[b][0] or nearest[b] != dots[a][0]:
            logger.warning("pattern check: region %d dots are not mutual nearest", j)
            return False
    if len(rl_pairs) != sum(1 for t in types if t == 2):
        logger.warning("pattern check: RL pattern count != number of two-dot regions")
        return False

    # empty regions <-> L then R direction patterns
    lr_pairs = [
        (i, (i + 1) % m)
        for i in range(m)
        if dirs[i] == "L" and dirs[(i + 1) % m] == "R"
    ]
    empty = sum(1 for t in types if t == 0)
    if len(lr_pairs) != empty:
        logger.warning("pattern check: LR pattern count != number of empty regions")
        return False
    for i, k in lr_pairs:
        inside = _arc_indices(bnd, dots[i][0], dots[k][0])
        if len(inside) != 2:
            logger.warning("pattern check: LR gap holds %d boundaries", len(inside))
            return False
        j = inside[1]  # region j lies between boundaries j - 1 and j
        if types[j] != 0:
            logger.warning("pattern check: region %d between LR pair is not empty", j)
            return False

    if not any(t == 2 for t in types):
        logger.warning("pattern check: no two-dot region")
        return False
    if not words.is_interlacing(sig):
        logger.warning("pattern check: signature %s does not interlace", sig)
        return False
    return True


@dataclass(frozen=True)
class RegionStats:
    """Per-region types and lengths plus aggregate and partial statistics.

    Region 0 is the arc containing position 0 after rotation; ``types[i]``
    is the dot count of region i (equal to the signature letter i mod n) and
    ``occupied`` is the occupancy word.  The curves count or measure only
    regions entirely contained in [0, t] for each grid value t.
    """

    types: tuple[int, ...]
    lengths: tuple
    occupied: Word
    region_counts: tuple[int, int, int]
    length_totals: tuple
    empty_length: object
    t_grid: tuple
    h_curves: tuple[tuple, ...]
    l_curves: tuple[tuple, ...]

    def to_json_dict(self) -> dict:
        return {
            "types": list(self.types),
            "lengths": [float(x) for x in self.lengths],
            "H": list(self.region_counts),
            "L": [float(x) for x in self.length_totals],
            "Le": float(self.empty_length),
            "h_grid": [list(row) for row in self.h_curves],
            "l_grid": [[float(x) for x in row] for row in self.l_curves],
        }


def _check_t_grid(t_grid: Sequence) -> None:
    """Reject a grid value outside [0, 1], NaN included."""
    if not all(0 <= t <= 1 for t in t_grid):
        raise ValueError(f"need 0 <= t <= 1 for every grid value, got {[float(t) for t in t_grid]}")


def region_stats(config: PointConfig, t_grid: Sequence = ()) -> RegionStats:
    grid = tuple(t_grid)
    _check_t_grid(grid)
    f = _generic_frame(config)
    m = 2 * f.n
    bnd_units = f.boundaries()
    word = _occupancy(f, bnd_units)
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

    h_curves = []
    l_curves = []
    for k in (0, 1, 2):
        hk = []
        lk = []
        for t in grid:
            count = 0
            total = 0
            for j in range(m):
                if types[j] != k:
                    continue
                contained = t >= 1 if j == 0 else bnd[j] <= t
                if contained:
                    count += 1
                    total += lengths[j]
            hk.append(count)
            lk.append(total)
        h_curves.append(tuple(hk))
        l_curves.append(tuple(lk))

    return RegionStats(
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
