"""Occupancy matrices of a family system's grid and their four invariants.

The reference the engine's ``_encode_set`` is tested against: each
candidate set induces a 0/1 occupancy matrix over the p-by-q grid of a
``MatrixRepresentation``, and its first column weight, total weight,
signed row sum and positional code add up over disjoint sets.
``reconstruct_matrix`` inverts the four invariants back to the unique
0/1 matrix when one exists.
"""

from __future__ import annotations

from typing import Iterable

from setpart.encoding import MatrixRepresentation

Matrix = tuple[tuple[int, ...], ...]


def hamming_weight(x: int) -> int:
    """Number of ones in the binary expansion of a nonnegative integer."""
    if x < 0:
        raise ValueError("negative argument")
    return x.bit_count()


def _check(m: Matrix) -> tuple[int, int]:
    p = len(m)
    q = len(m[0]) if p else 0
    for row in m:
        if len(row) != q:
            raise ValueError("ragged matrix")
        for x in row:
            if x < 0:
                raise ValueError("entries must be nonnegative")
    return p, q


def colweight(m: Matrix, j: int) -> int:
    _check(m)
    return sum(row[j] for row in m)


def weight(m: Matrix) -> int:
    _check(m)
    return sum(sum(row) for row in m)


def rowcode(m: Matrix, i: int) -> int:
    """Signed row invariant: high columns count positively, column 0 negatively."""
    _check(m)
    row = m[i]
    return -row[0] + sum(row[j] << j for j in range(1, len(row)))


def rowsum(m: Matrix) -> int:
    return sum(rowcode(m, i) for i in range(len(m)))


def is_row_normalized(m: Matrix) -> bool:
    """True when no row owes more to column 0 than its high columns carry."""
    return all(rowcode(m, i) >= 0 for i in range(len(m)))


def code(m: Matrix) -> int:
    """Row codes combined in base 2^q - 1; requires a row-normalized matrix.

    The base is one more than the largest row code of a 0/1 row, so the
    digits of a 0/1 matrix never collide and the matrix can be recovered.
    """
    p, q = _check(m)
    if q == 0:
        return 0
    base = (1 << q) - 1
    total = 0
    for i in range(p):
        rc = rowcode(m, i)
        if rc < 0:
            raise ValueError(f"row {i} is not normalized")
        total += rc * base**i
    return total


def matrix_add(a: Matrix, b: Matrix) -> Matrix:
    pa, qa = _check(a)
    pb, qb = _check(b)
    if (pa, qa) != (pb, qb):
        raise ValueError("shape mismatch")
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def zero_matrix(p: int, q: int) -> Matrix:
    return tuple((0,) * q for _ in range(p))


def characteristic_matrix(rep: MatrixRepresentation, subset: Iterable[int]) -> Matrix:
    """0/1 occupancy matrix of the placed members of ``subset``."""
    rows = [[0] * rep.q for _ in range(rep.p)]
    for elem in subset:
        pos = rep.placement.get(elem)
        if pos is not None:
            i, j = pos
            if rows[i][j]:
                raise ValueError(f"element {elem} repeated in subset")
            rows[i][j] = 1
    return tuple(tuple(r) for r in rows)


def reconstruct_matrix(
    p: int, q: int, col0: int, wt: int, rsum: int, code_value: int
) -> Matrix | None:
    """Unique 0/1 matrix with the given invariants, or None.

    Works by reading the row codes off the base-(2^q - 1) digits of the
    positional code, rebuilding each 0/1 row, then checking the three
    remaining invariants.  Any mismatch means no 0/1 matrix fits.
    """
    if p < 0 or q <= 0:
        raise ValueError("need p >= 0 and q >= 1")
    base = (1 << q) - 1
    rows = []
    rest = code_value
    for _ in range(p):
        rest, rc = divmod(rest, base)
        if rc < 0 or rc >= base:
            return None
        first = rc & 1  # only an odd row code can owe its parity to column 0
        high = rc + first
        if high >= (1 << q):
            return None
        row = [first] + [(high >> j) & 1 for j in range(1, q)]
        rows.append(tuple(row))
    if rest != 0:
        return None
    m = tuple(rows)
    if colweight(m, 0) != col0 or weight(m) != wt or rowsum(m) != rsum:
        return None
    return m
