"""The extended ternary Golay code read off the cap's coordinate vectors.

Writing the 12 canonical cap vectors as the columns of a 6x12 matrix over
GF(3) yields a generator matrix of the [12,6,6] self-dual code, at any of
the 13 base points.  The columns follow the closed-form parametrization
x -> v(x) + P at the cap's base P, in lexicographic order of x.  Codewords
are evaluations of linear forms at the cap, so zero entries of a word mark
the cap points on the corresponding prime; the weight-6 words come in
negation pairs whose supports are exactly the 132 design blocks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat

from . import gf3
from .gf3 import Matrix, Vector
from .pg import Point
from .cap import CapSet, cap_domain, cap_map

_MOD3 = bytes(i % 3 for i in range(256))  # a byte-lane translation table


@dataclass(frozen=True)
class TernaryCode:
    generator: Matrix                      # 6x12, columns = cap point vectors
    column_points: tuple[Point, ...]       # cap points, one per column

    @cached_property
    def _words(self) -> tuple[Vector, ...]:
        """The row space, built once per code; see enumerate_codewords.

        The words so far are one buffer, a byte per coordinate; each row r,
        taken last-first, makes it words + (words + r) + (words + 2r).
        Lanes stay below 7, so buffers add as big ints without carries, then
        reduce mod 3 by a byte table.
        """
        n = len(self.generator[0])
        words = bytes(n)
        for row in reversed(self.generator):
            size = len(words)
            w = int.from_bytes(words, "big")
            r = int.from_bytes(bytes(x % 3 for x in row) * (size // n), "big")
            words += b"".join(
                (w + k * r).to_bytes(size, "big").translate(_MOD3) for k in (1, 2)
            )
        return tuple(zip(*[iter(words)] * n))


def generator_matrix(cap: CapSet) -> TernaryCode:
    """Columns are the cap points in parameter-domain lexicographic order.

    The closed form at the cap's base must give exactly the cap's points;
    otherwise the first point on one side only is named.
    """
    columns = tuple(cap_map(x, cap.base_point) for x in cap_domain(cap.base_point))
    stray = cap.points ^ set(columns)
    if stray:
        raise ValueError(
            f"the cap at {cap.base_point} and its closed form differ at {min(stray)}"
        )
    generator = tuple(tuple(col[r] for col in columns) for r in range(6))
    return TernaryCode(generator=generator, column_points=columns)


def code_rank(code: TernaryCode) -> int:
    return gf3.rank(code.generator)


def enumerate_codewords(code: TernaryCode) -> tuple[Vector, ...]:
    """All 3^6 = 729 row-space vectors, in lexicographic order of the
    coefficient tuples (the first row's coefficient varies slowest).  Every
    call on one code returns the same tuple."""
    return code._words


def weight_distribution(code: TernaryCode) -> dict[int, int]:
    """Hamming weight histogram over the full codeword enumeration."""
    n = len(code.generator[0])
    zeros = Counter(map(tuple.count, enumerate_codewords(code), repeat(0)))
    return dict(sorted((n - z, count) for z, count in zeros.items()))


def minimum_distance(code: TernaryCode) -> int:
    return min(w for w in weight_distribution(code) if w > 0)


def is_self_dual(code: TernaryCode) -> bool:
    """All generator rows pairwise (and self) orthogonal, and rank 6."""
    g = code.generator
    if code_rank(code) != 6:
        return False
    return all(
        gf3.dot(g[i], g[j]) == 0 for i in range(6) for j in range(i, 6)
    )


def weight6_supports(code: TernaryCode) -> set[frozenset[Point]]:
    """Supports of the weight-6 codewords, as sets of cap points.

    A word and its negative share a support, and of the two exactly one has
    a coefficient tuple whose first nonzero entry is 1: in the enumeration
    order, the words at indices 3**k to 2 * 3**k - 1 for each k.  Only those are
    read, so the Golay code gives one set per distinct support.
    """
    words = enumerate_codewords(code)
    halves = [words[3**k:2 * 3**k] for k in range(len(code.generator))]
    zeros = len(code.generator[0]) - 6
    return {
        frozenset(compress(code.column_points, w))
        for half in halves
        for w, z in zip(half, map(tuple.count, half, repeat(0)))
        if z == zeros
    }
