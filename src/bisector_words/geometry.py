"""Arc-coordinate geometry of bisector arrangements on the unit circle.

Points live on a circle of total length 1, identified with [0, 1) via
t -> exp(2*pi*i*t).  The n lines through the center (each the perpendicular
bisector of two cyclically consecutive points) reduce to n arc positions
plus their antipodes, so all computations happen on sorted positions mod 1.

Positions may be exact rationals (``fractions.Fraction``) or floats, and
both run through one code path in circle units.  A configuration keeps its
positions as x = p * U, with U = 1 for floats and U a common denominator
for exact input (the least one for Fraction input), so exact positions are
ints.
A critical value v is handled as 2 * v * U on a circle of length 2U: a
point is 2x, its antipode 2x + U, the bisector of two consecutive points
a + b (the wrap pair U + a + b), an antipodal bisector that plus U, all mod
2U.  Nothing is ever halved, so exact values stay integral (sorting,
bisecting, gap minima, region lengths and their sums run on ints), and each
float value is exactly twice what the unit-circle formulas give, so float
results are bit-identical to them: halving a float commutes with rounding,
so a sum halved once equals the sum of the halves.  Values go back to arc
length, ``Fraction(v, 2U)`` or ``v / 2``, only where a public function
returns them, and where a caller's grid value t in arc length is compared
with a boundary.  Only the genericity tolerance differs between exact and
float input.

Every value is read on one frame, the configuration with its first point
rotated to 0: region 0 is the arc containing positions just above 0,
regions follow counterclockwise, and returned positions, boundaries and
the genericity margin are those of the rotated frame.  Genericity is
decided in one place, ``_generic_frame``, on that frame, with
``FLOAT_TIE_TOLERANCE`` for float frames; every reader,
:func:`ensure_generic` and :func:`genericity_margin` agree with it.
"""

from __future__ import annotations

import logging
import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from . import words
from .words import Word

logger = logging.getLogger(__name__)

# Two of the 4n critical values (points, antipodes, bisectors, antipodal
# bisectors) closer than this mod 1 make a float configuration degenerate.
FLOAT_TIE_TOLERANCE = 1e-12
# Longest t-grid of region_stats and equidistribution_paths.  Their results
# hold about 6 floats per grid value: equidistribution_paths(3, G-point grid,
# 2 trials) peaked at 2.7 / 26.8 / 267.6 MiB for G = 10^4 / 10^5 / 10^6
# (tracemalloc), of which the returned PathReport was 2.1 / 21.4 / 213.6 MiB,
# so no chunking of the computation bounds a longer grid.
MAX_T_GRID = 10**5
# Most bits of exact positions over their common denominator: n times the
# bits of that denominator.  Points with distinct 7-digit prime denominators
# took 88 MB at n = 4000 and 201 MB at n = 8000 (peak RSS), with an 80k- and
# a 160k-bit denominator.  realize(w) at n = 2000 takes 1.2e7 bits (about 3n
# per point), its plan's 2n perturbed positions 2.4e7.
MAX_EXACT_BITS = 2**26


class NonGenericConfiguration(ValueError):
    """Configuration with coinciding critical values; words are ill-defined."""


def _fraction_of_string(text: str) -> Fraction:
    """A decimal or 'p/q' string as an exact Fraction: the one reader of number text.

    Every failure is a ValueError showing the text by ``words._shown``: a
    zero denominator, an invalid literal, a part beyond Python's limit for
    converting text to an int, and an exponent of 10**5 or more in
    magnitude.  The last is rejected before ``Fraction`` builds the power,
    whose time grows faster than its digits: 1e99999 parses in 9 ms,
    1e999999 in 0.34 s and 1e3000000 in 1.8 s (2-vCPU Xeon VM).
    """
    _, e, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    try:
        if e and len(digits) > 5 and digits.isdecimal():
            raise ValueError
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {words._shown(text)}") from None
    except ValueError:
        raise ValueError(
            f"need a decimal or p/q with |exponent| < 10**5 and at most 4300 digits per part, got {words._shown(text)}"
        ) from None


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The numerators of the Fractions over their least common denominator, and that denominator.

    Every numerator is as wide as the denominator, so the numerators take
    about n times its bits; that is bounded by ``MAX_EXACT_BITS`` before
    any of them is built.
    """
    unit = math.lcm(*(x.denominator for x in values))
    if len(values) * unit.bit_length() > MAX_EXACT_BITS:
        raise ValueError(
            f"need n * (bits of the common denominator) <= {MAX_EXACT_BITS}, got {len(values)} * {unit.bit_length()}"
        )
    return tuple(x.numerator * (unit // x.denominator) for x in values), unit


@dataclass(frozen=True)
class PointConfig:
    """n >= 3 strictly increasing positions in [0, 1) on the unit-length circle.

    ``is_exact`` (no position is a float) is settled at construction, as are
    the positions in circle units (see the module docstring).  A float
    configuration computes in floats only: every position, a Fraction or
    int among floats included, enters the circle units as its float, while
    ``positions`` keeps the values as given.  So mixed input whose exact
    values round to equal floats, or to 1.0, is rejected here.  A
    configuration built from units (:meth:`_from_units`) reduces its
    ``positions`` to Fractions on first read, so equality, the hash and
    repr, which read them, mean what they mean for the eager build.
    """

    positions: tuple
    is_exact: bool = field(init=False, repr=False, compare=False)
    _units: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = tuple(self.positions)
        if any(isinstance(p, str) for p in pos):
            raise ValueError("need numbers as positions, got text; read text with PointConfig.from_strings")
        exact = not any(isinstance(p, float) for p in pos)
        if exact:
            pos = tuple(p if isinstance(p, Fraction) else Fraction(p) for p in pos)
            xs, unit = _over_common_denominator(pos)
        else:
            unit, xs = 1, tuple(map(float, pos))
        self._settle(exact, xs, unit)
        object.__setattr__(self, "positions", pos)

    @classmethod
    def _from_units(cls, xs: Sequence[int], unit: int) -> "PointConfig":
        """The exact configuration of the ints xs over one common unit: positions ``Fraction(x, unit)``.

        The ints are kept as given, so no common denominator is taken back
        from the reduced positions, and no Fraction is built until
        ``positions`` is read.
        """
        config = object.__new__(cls)
        config._settle(True, tuple(xs), unit)
        return config

    def __getattr__(self, name: str):
        """``positions`` of a configuration from units, reduced once on first read; no other attribute is lazy."""
        if name != "positions":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        xs, unit = self._units
        pos = tuple(Fraction(x, unit) for x in xs)
        object.__setattr__(self, "positions", pos)
        return pos

    def _settle(self, exact: bool, xs: tuple, unit) -> None:
        """Check the positions in units (at least 3, each in [0, unit), strictly increasing), then set them."""
        if len(xs) < 3:
            raise ValueError(f"need at least 3 points, got {len(xs)}")
        if any(not 0 <= x < unit for x in xs):
            raise ValueError("positions must lie in [0, 1)")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("positions must be strictly increasing")
        object.__setattr__(self, "is_exact", exact)
        object.__setattr__(self, "_units", (xs, unit))

    @property
    def n(self) -> int:
        return len(self._units[0])

    @classmethod
    def from_points(cls, pts: Iterable) -> "PointConfig":
        """Build from arbitrary positions: reduced mod 1 and sorted."""
        # twice: a float just below 0 reduces to 1.0 once, and 1.0 to 0.0
        return cls(tuple(sorted(p % 1 % 1 for p in pts)))

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "PointConfig":
        """Parse decimal or 'p/q' position strings; both parse exactly."""
        return cls.from_points(map(_fraction_of_string, items))

    def to_strings(self) -> list[str]:
        return [str(p) for p in self.positions]


class _Frame:
    """A configuration in circle units with p_0 rotated to 0: positions x, x_0 = 0, circle length 2U.

    ``lines`` are the doubled bisectors in pair order (entry i separates
    points i and i+1), ``antilines`` their antipodes.
    """

    __slots__ = ("n", "xs", "unit", "circle", "exact", "lines", "antilines")

    def __init__(self, config: PointConfig):
        xs, unit = config._units
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

    def margin(self):
        """The least cyclic gap, in circle units, between the 4n critical values: points, antipodes, lines, antilines."""
        pts = self.points()
        vals = sorted(pts + self.antipodes(pts) + self.lines + self.antilines)
        return min(b - a for a, b in zip(vals, vals[1:] + [vals[0] + self.circle]))


def _generic_frame(config: PointConfig) -> _Frame:
    """The frame of ``config``, checked for genericity.

    This is the one genericity decision, made on the frame that every
    reader reads: its 4n critical values must be pairwise distinct, and in
    a float frame at least ``FLOAT_TIE_TOLERANCE`` apart in arc length;
    :func:`genericity_margin` is their least gap.  :func:`ensure_generic`
    makes it too, so a configuration it accepts is accepted by every
    reader.  The readers rely on what it proves and check none of it
    again: bisector j lies strictly between points j and j + 1, so no two
    points share a region; no dot is equidistant from its two
    opposite-colour neighbours, which come from consecutive points, since
    that would put it on their bisector or its antipode; and no point sits
    on p_0's antipode, so each point or its antipode, not both, lies in
    [0, 1/2).
    """
    f = _Frame(config)
    margin = f.margin()
    if f.exact:
        if margin <= 0:
            raise NonGenericConfiguration("coinciding critical values")
    elif f.arc(margin) < FLOAT_TIE_TOLERANCE:
        raise NonGenericConfiguration(
            f"critical values within {FLOAT_TIE_TOLERANCE} of each other"
            f" (margin {f.arc(margin)!r})"
        )
    return f


def genericity_margin(config: PointConfig):
    """Smallest cyclic gap between two critical values of the frame with p_0 at 0, in arc length.

    It is read on the frame of the genericity decision, so
    :func:`ensure_generic` rejects ``config`` exactly when it is 0 (exact
    input) or below ``FLOAT_TIE_TOLERANCE`` (float input).
    """
    f = _Frame(config)
    return f.arc(f.margin())


def ensure_generic(config: PointConfig) -> None:
    """Raise :class:`NonGenericConfiguration` exactly when the readers would (see :func:`_generic_frame`)."""
    _generic_frame(config)


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
    return Arrangement(
        n=f.n,
        bisectors=tuple(f.arc(v) for v in f.lines),
        antipodal_bisectors=tuple(f.arc(v) for v in f.antilines),
        boundaries=tuple(f.arc(v) for v in f.boundaries()),
        dots=tuple(f.arc(q) for q, _ in _colored_dots(f)),
    )


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
    return tuple(entries)


def verify_direction_patterns(config: PointConfig) -> bool:
    """Check the dot-pattern characterization of region types on one configuration.

    Every check reads one list, the region of each sorted dot.  The region
    types are its counts.  The two dots of a region are cyclically
    consecutive, so two-dot regions are the consecutive pairs in one region;
    each must be a mutual nearest pair of opposite colours looking R then L,
    and there are as many RL patterns as two-dot regions.  The gap between
    consecutive dots a and b holds (region[b] - region[a]) mod 2n
    boundaries, so each L-then-R pattern must span two boundaries with the
    empty region region[a] + 1 between them, and there are as many LR
    patterns as empty regions.  A two-dot region must exist and the
    signature must interlace.  Returns False (with a logged diagnostic) on
    any violation.
    """
    f = _generic_frame(config)
    n, m = f.n, 2 * f.n
    bnd = f.boundaries()
    dots = _colored_dots(f)
    dirs, nearest = zip(*_dot_directions(dots, f.circle))
    region = [_region_index(bnd, q, m) for q, _ in dots]
    types = [0] * m
    for j in region:
        types[j] += 1
    sig = tuple(types[:n])

    if types[:n] != types[n:]:
        logger.warning("pattern check: antipodal regions have different types")
        return False

    # cyclically consecutive dots (a, a + 1) from a = -1: the wrap pair first
    pairs = [(a, a + 1) for a in range(-1, m - 1)]
    looks = [dirs[a] + dirs[b] for a, b in pairs]

    # two-dot regions <-> mutual nearest pairs looking R then L
    for (a, b), look in zip(pairs, looks):
        j = region[b]
        if region[a] != j:
            continue
        if dots[a][1] == dots[b][1]:
            logger.warning("pattern check: two-dot region %d has equal colors", j)
            return False
        if look != "RL":
            logger.warning("pattern check: two-dot region %d is not an RL pair", j)
            return False
        if nearest[a] != dots[b][0] or nearest[b] != dots[a][0]:
            logger.warning("pattern check: region %d dots are not mutual nearest", j)
            return False
    if looks.count("RL") != types.count(2):
        logger.warning("pattern check: RL pattern count != number of two-dot regions")
        return False

    # empty regions <-> L then R direction patterns
    if looks.count("LR") != types.count(0):
        logger.warning("pattern check: LR pattern count != number of empty regions")
        return False
    for (a, b), look in zip(pairs, looks):
        if look != "LR":
            continue
        inside = (region[b] - region[a]) % m
        if inside != 2:
            logger.warning("pattern check: LR gap holds %d boundaries", inside)
            return False
        j = (region[a] + 1) % m  # region j lies between the gap's two boundaries
        if types[j] != 0:
            logger.warning("pattern check: region %d between LR pair is not empty", j)
            return False

    if 2 not in types:
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


def _check_grid(values: Iterable, what: str, interval: str) -> tuple:
    """The values as a tuple; rejected unless they are a flat sequence of at most ``MAX_T_GRID`` reals in ``interval``.

    ``interval`` is "[0, 1]" (the t-grid) or "(0, 1]" (the c-grid); NaN is
    in neither.  The message names the rule and one offence: the input that
    is no sequence, the length, or the first value out of rule and its
    position, each shown by :func:`words._shown`, never the whole grid.
    """
    rule = f"need the {what} to be a flat sequence of at most {MAX_T_GRID} reals in {interval}"
    try:
        grid = tuple(values)
    except TypeError:
        raise ValueError(f"{rule}, got {words._shown(values)}") from None
    if len(grid) > MAX_T_GRID:
        raise ValueError(f"{rule}, got {len(grid)} values")
    closed = interval[0] == "["
    for i, t in enumerate(grid):
        if not (isinstance(t, numbers.Real) and 0 <= t <= 1 and (closed or t != 0)):
            raise ValueError(f"{rule}, got {words._shown(t)} at position {i}")
    return grid


def region_stats(config: PointConfig, t_grid: Sequence = ()) -> RegionStats:
    grid = _check_grid(t_grid, "t-grid", "[0, 1]")
    f = _generic_frame(config)
    m = 2 * f.n
    bnd = f.boundaries()
    word = _occupancy(f, bnd)
    sig = words.signature(word)
    types = tuple(sig[i % f.n] for i in range(m))

    # Lengths and their sums stay in circle units (ints for exact input);
    # each returned value goes to arc length once, by f.arc.
    lengths = [bnd[0] + f.circle - bnd[-1]] + [bnd[j] - bnd[j - 1] for j in range(1, m)]
    region_counts = tuple(types.count(k) for k in (0, 1, 2))
    totals = [sum(x for x, t in zip(lengths, types) if t == k) for k in (0, 1, 2)]
    empty_length = sum(x for x, b in zip(lengths, word) if b == 0)

    # Below t = 1 the regions in [0, t] are 1..i, i = bisect_right(arcs, t, 1) - 1,
    # summed in index order; at t >= 1 the wrap region 0 joins: index m.  The
    # boundaries are compared as arc lengths, so a float t against an exact
    # configuration compares exactly.
    arcs = [f.arc(b) for b in bnd]
    at = [bisect_right(arcs, t, 1) - 1 if t < 1 else m for t in grid]
    h_curves = []
    l_curves = []
    for k in (0, 1, 2):
        hits = [types[j] == k for j in range(1, m)]
        kept = (x if hit else 0 for x, hit in zip(lengths[1:], hits))
        counts = [*accumulate(hits, initial=0), region_counts[k]]
        sums = [*accumulate(kept, initial=0), totals[k]]
        h_curves.append(tuple(counts[i] for i in at))
        l_curves.append(tuple(f.arc(sums[i]) for i in at))

    return RegionStats(
        types=types,
        lengths=tuple(map(f.arc, lengths)),
        occupied=word,
        region_counts=region_counts,
        length_totals=tuple(map(f.arc, totals)),
        empty_length=f.arc(empty_length),
        t_grid=grid,
        h_curves=tuple(h_curves),
        l_curves=tuple(l_curves),
    )
