"""Explicit point configurations realizing a word with interlacing signature.

The construction anchors the doubled signature's 2s at the s-th roots of
unity (arc positions k/s), its 0s at the midpoints between consecutive
anchors, and spreads the remaining indices geometrically (offsets
eta * (2^d - 1)) toward their anchor, so that every region boundary can be
located by hand.  A final perturbation of epsilon * 2^(k-2n) at index k
removes the remaining boundary coincidences: the offsets have pairwise
distinct sums, so no two chord midpoints can keep shifting in lockstep.
(An arithmetic k*epsilon perturbation fails here: for index-sum-symmetric
words such as the one with signature (0,2,0,2), two coinciding midpoints
shift by the same amount for every epsilon.)  All arithmetic is exact: the
positions are integer numerators over one common denominator q, and the
configuration is built from them over q; it turns them into ``Fraction``s
only when a caller reads its ``positions``, which reading the word back
does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import words
from .geometry import PointConfig, _arc_indices, _Frame, _over_common_denominator
from .words import Word


# n = 1000 took 0.05-0.2 s and 6 MB, n = 2000 0.35-0.65 s and 23 MB (2-vCPU VMs,
# tracemalloc peak); at that growth a 200 kB word from argv would run for half an hour.
MAX_REALIZE_N = 2000


class NotRealizable(ValueError):
    """Word whose signature does not interlace; no configuration exists."""


@dataclass(frozen=True)
class RealizationPlan:
    """Intermediate data of the construction, kept for diagnostics.

    Indices refer to the input word rotated left by ``rotation`` so that
    signature letter 0 is a 0.  ``base`` are the unperturbed candidate
    positions for all 2n indices (possibly >= 1 before reduction mod 1);
    ``perturbed`` adds epsilon * 2^(index+1) / 4^n, a positive offset of at
    most epsilon.  ``components`` lists the runs of signature-1 indices
    between anchors as (kind, anchor, indices) with kind "descending" (run
    follows its anchor) or "ascending" (run precedes it).
    """

    n: int
    word: Word
    rotation: int
    rotated_word: Word
    s: int
    two_positions: tuple[int, ...]
    zero_positions: tuple[int, ...]
    eta: Fraction
    epsilon: Fraction
    base: tuple[Fraction, ...]
    perturbed: tuple[Fraction, ...]
    components: tuple[tuple, ...]

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "T": list(self.two_positions),
            "Z": list(self.zero_positions),
            "eta": str(self.eta),
            "epsilon": str(self.epsilon),
            "r": [str(x) for x in self.base],
            "components": [
                {"kind": kind, "anchor": anchor, "indices": list(idx)}
                for kind, anchor, idx in self.components
            ],
        }


def _checked_word(w) -> bytes:
    """The word w checked once, as bytes, rejected above ``MAX_REALIZE_N`` before anything is built."""
    word = words._word_bytes(w)
    words._check_int(len(word) // 2, "n", 3, MAX_REALIZE_N)
    return word


def _construct(checked: bytes) -> tuple[dict, int, list[int], list[int]]:
    """The construction over one denominator q = 4^n / epsilon, for a word from :func:`_checked_word`.

    Returns the plan's integer fields, q, and the numerators over q of the
    base and perturbed positions: eta is e/q with e = 4n * 4^n, and the
    perturbation of index h is 2^(h+1)/q.  The signature and its
    interlacing are read from the checked word, which is not checked again.
    """
    sig = words._signature_of(checked)
    if not words._interlaces(sig):
        raise NotRealizable(f"signature {words.word_to_string(sig)} does not interlace")
    word = tuple(checked)
    n = len(sig)
    m = 2 * n

    rotation = sig.index(0)
    rotated = word[rotation:] + word[:rotation]
    # rotating the word by r rotates its signature by r
    doubled = (sig[rotation:] + sig[:rotation]) * 2

    two_pos = tuple(i for i in range(m) if doubled[i] == 2)
    zero_pos = tuple(i for i in range(m) if doubled[i] == 0)
    s = len(two_pos)
    assert s == len(zero_pos) and zero_pos[0] == 0
    # interlacing makes zeros and twos alternate, starting with the zero at 0
    assert all(z < t for z, t in zip(zero_pos, two_pos))
    assert all(t < z for t, z in zip(two_pos, zero_pos[1:]))

    e = 4 * n * 4**n
    q = e * s * 2 ** (n + 3)

    base: list = [None] * m
    for k in range(1, s + 1):
        base[two_pos[k - 1]] = k * (q // s)
        base[zero_pos[k - 1]] = (2 * k - 1) * (q // (2 * s))

    components = []
    for k in range(1, s + 1):
        anchor = two_pos[k - 1]
        stop = zero_pos[k] if k < s else m
        descending = tuple(range(anchor + 1, stop))
        for h in descending:
            base[h] = base[anchor] + e * (2 ** (h - anchor) - 1)
        ascending = tuple(range(zero_pos[k - 1] + 1, anchor))
        for h in ascending:
            base[h] = base[anchor] - e * (2 ** (anchor - h) - 1)
        if len(descending) > n or len(ascending) > n:
            raise AssertionError("component longer than n; construction bound violated")
        if descending:
            components.append(("descending", anchor, descending))
        if ascending:
            components.append(("ascending", anchor, ascending))

    perturbed = [b + 2 ** (h + 1) for h, b in enumerate(base)]
    fields = dict(
        n=n,
        word=word,
        rotation=rotation,
        rotated_word=rotated,
        s=s,
        two_positions=two_pos,
        zero_positions=zero_pos,
        components=tuple(components),
    )
    return fields, q, base, perturbed


def plan_realization(w) -> RealizationPlan:
    fields, q, base, perturbed = _construct(_checked_word(w))
    n, s = fields["n"], fields["s"]
    return RealizationPlan(
        **fields,
        eta=Fraction(1, s * 2 ** (n + 3)),
        epsilon=Fraction(1, 4 * n * s * 2 ** (n + 3)),
        base=tuple(Fraction(b, q) for b in base),
        perturbed=tuple(Fraction(x, q) for x in perturbed),
    )


def realize(w) -> PointConfig:
    """Exact-rational generic configuration whose occupancy word is w.

    The reading convention fixes a rotation, so the word computed from the
    returned configuration is a cyclic shift of w; bracelets agree exactly.
    The output is generic by construction (see the module docstring), so
    nothing is checked here; genericity is decided again whenever the
    configuration is read.  Raises :class:`NotRealizable` when the signature
    does not interlace, and ValueError when n exceeds ``MAX_REALIZE_N``.
    """
    fields, q, _, perturbed = _construct(_checked_word(w))
    xs = sorted(x % q for x, bit in zip(perturbed, fields["rotated_word"]) if bit)
    return PointConfig._from_units(xs, q)


def verify_bisector_layout(plan: RealizationPlan) -> bool:
    """Check that every region boundary sits where the construction wants it.

    Each index of a descending run must have exactly one boundary just below
    its position, each index of an ascending run exactly one just above, and
    each window of width 1/(4s) around a zero anchor exactly two; together
    these must account for all 2n boundaries, each exactly once.  It runs on
    ints: arc 1 is 8*s*q, q the least common denominator of the perturbed
    positions and the frame's unit, whose circle is 2q.  The frame puts the
    first point at 0, so the positions and windows turn by that point too.
    """
    nums, q = _over_common_denominator(plan.perturbed)
    s, m = plan.s, 2 * plan.n
    circle = 8 * s * q
    xs = sorted(x % q for x, bit in zip(nums, plan.rotated_word) if bit)
    frame = _Frame(PointConfig._from_units(xs, q))
    boundaries = [4 * s * b for b in frame.boundaries()]
    shift = 8 * s * xs[0]
    pos = [(8 * s * x - shift) % circle for x in nums]
    # (start, end, boundaries expected) of each open counterclockwise arc
    arcs = [
        (pos[h - 1], pos[h], 1) if kind == "descending" else (pos[h], pos[(h + 1) % m], 1)
        for kind, _anchor, indices in plan.components
        for h in indices
    ]
    # windows around the zero anchors (2k - 1)/(2s), k = 1..s
    arcs += [((c - shift - q) % circle, (c - shift + q) % circle, 2) for c in range(4 * q, circle, 8 * q)]
    claimed = []
    for a, b, expected in arcs:
        hits = _arc_indices(boundaries, a, b)
        if len(hits) != expected:
            return False
        claimed += hits
    return len(claimed) == m and len({boundaries[i] for i in claimed}) == m
