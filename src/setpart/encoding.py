"""Grid placement of a family system, and mixed-radix packing.

A family system places selected elements of the ground set into a p-by-q
grid: one row per family, the designated infant in column 0 and the rest
of the family ascending.  ``MatrixRepresentation`` records that placement;
the engine reads a candidate set's occupancy of the grid off it as four
invariants (first column weight, total weight, signed row sum, positional
code) that add up over disjoint sets.

``RadixVector`` packs small exponent tuples into a single integer index
so multivariate polynomials can ride a one-dimensional transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["MatrixRepresentation", "RadixVector"]


@dataclass(frozen=True)
class MatrixRepresentation:
    """Assignment of ground-set elements to grid cells.

    ``placement`` maps element -> (row, column).  Column 0 of row i holds
    the infant of family i; the remaining members fill the higher columns
    in ascending element order, padded from a disjoint reserve pool so
    every row has exactly q cells.
    """

    p: int
    q: int
    placement: dict[int, tuple[int, int]]

    def __post_init__(self):
        cells = set()
        for elem, (i, j) in self.placement.items():
            if not (0 <= i < self.p and 0 <= j < self.q):
                raise ValueError(f"element {elem} placed outside the {self.p}x{self.q} grid")
            if (i, j) in cells:
                raise ValueError(f"cell ({i}, {j}) assigned twice")
            cells.add((i, j))
        if len(cells) != self.p * self.q:
            raise ValueError("every grid cell needs exactly one element")

    def covered(self) -> frozenset[int]:
        return frozenset(self.placement)


@dataclass(frozen=True)
class RadixVector:
    """Mixed-radix packing of bounded exponent tuples into one integer.

    Component i ranges over 0..radices[i]-1; the packed index is the
    little-endian mixed-radix value, so component 0 varies fastest.
    """

    names: tuple[str, ...]
    radices: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.radices):
            raise ValueError("names and radices must align")
        if any(r < 1 for r in self.radices):
            raise ValueError("radices must be positive")

    @property
    def strides(self) -> tuple[int, ...]:
        out = []
        acc = 1
        for r in self.radices:
            out.append(acc)
            acc *= r
        return tuple(out)

    def domain_size(self) -> int:
        acc = 1
        for r in self.radices:
            acc *= r
        return acc

    def pack(self, exponents: Sequence[int]) -> int:
        if len(exponents) != len(self.radices):
            raise ValueError("wrong arity")
        total = 0
        for e, r, s in zip(exponents, self.radices, self.strides):
            if not (0 <= e < r):
                raise ValueError(f"exponent {e} outside radix {r}")
            total += e * s
        return total

    def unpack(self, index: int) -> tuple[int, ...]:
        if not (0 <= index < self.domain_size()):
            raise ValueError("index outside domain")
        out = []
        for r in self.radices:
            index, e = divmod(index, r)
            out.append(e)
        return tuple(out)
