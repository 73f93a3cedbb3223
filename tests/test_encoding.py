"""Occupancy-matrix invariants, reconstruction, and mixed-radix packing."""

import itertools
import random

import pytest

from setpart.encoding import MatrixRepresentation, RadixVector
from matrices import (
    characteristic_matrix,
    code,
    colweight,
    hamming_weight,
    is_row_normalized,
    matrix_add,
    reconstruct_matrix,
    rowcode,
    rowsum,
    weight,
    zero_matrix,
)


# ---------------------------------------------------------------------------
# hamming weight


def test_hamming_weight_values():
    assert hamming_weight(0) == 0
    assert hamming_weight(7) == 3
    assert hamming_weight(1 << 40) == 1
    with pytest.raises(ValueError):
        hamming_weight(-1)


def test_hamming_weight_subadditive_under_addition(rng):
    for _ in range(2000):
        a = rng.getrandbits(64)
        b = rng.getrandbits(64)
        lhs = hamming_weight(a) + hamming_weight(b)
        rhs = hamming_weight(a + b)
        assert lhs >= rhs
        assert (lhs == rhs) == (a & b == 0)


# ---------------------------------------------------------------------------
# the four matrix invariants


def test_colweight_examples():
    assert colweight(zero_matrix(3, 2), 0) == 0
    assert colweight(zero_matrix(3, 2), 1) == 0
    m = ((0, 1), (1, 1))
    assert colweight(m, 0) == 1
    assert colweight(m, 1) == 2
    with pytest.raises(IndexError):
        colweight(m, 2)


def test_rowcode_examples():
    assert rowcode(((1, 0, 0),), 0) == -1
    assert rowcode(((0, 1, 1),), 0) == 6
    assert rowcode(((1, 1, 0),), 0) == 1


def test_rowcode_range_over_binary_rows():
    # <= 2^q - 2 always; negative exactly for the lone-first-column row
    for q in range(1, 7):
        for bits in itertools.product((0, 1), repeat=q):
            rc = rowcode((bits,), 0)
            assert rc <= (1 << q) - 2
            assert (rc < 0) == (bits[0] == 1 and not any(bits[1:]))


def test_code_examples():
    assert code(((0, 1, 1),)) == rowcode(((0, 1, 1),), 0) == 6
    assert code(((0, 1), (1, 1))) == 5
    assert code(zero_matrix(4, 3)) == 0
    assert weight(((0, 1), (1, 1))) == 3
    assert rowsum(((0, 1), (1, 1))) == 3


def test_code_rejects_non_normalized_rows():
    assert not is_row_normalized(((1, 0),))
    with pytest.raises(ValueError, match="not normalized"):
        code(((0, 1), (1, 0)))


def test_code_bound_for_binary_matrices():
    for p, q in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        top = ((1 << q) - 1) ** p
        for cells in itertools.product((0, 1), repeat=p * q):
            m = tuple(cells[i * q:(i + 1) * q] for i in range(p))
            if is_row_normalized(m):
                assert 0 <= code(m) < top


def test_matrix_entries_must_be_nonnegative():
    with pytest.raises(ValueError, match="nonnegative"):
        weight(((0, -1),))
    with pytest.raises(ValueError, match="ragged"):
        weight(((0, 1), (0,)))
    with pytest.raises(ValueError, match="shape"):
        matrix_add(zero_matrix(1, 2), zero_matrix(2, 1))


def _random_normalized(rng, p: int, q: int, top: int):
    while True:
        m = tuple(
            tuple(rng.randint(0, top) for _ in range(q)) for _ in range(p)
        )
        if is_row_normalized(m):
            return m


def test_invariants_add_over_matrix_addition(rng):
    for _ in range(200):
        p, q = rng.randint(1, 3), rng.randint(2, 4)
        a = _random_normalized(rng, p, q, 3)
        b = _random_normalized(rng, p, q, 3)
        s = matrix_add(a, b)
        assert colweight(s, 0) == colweight(a, 0) + colweight(b, 0)
        assert weight(s) == weight(a) + weight(b)
        assert rowsum(s) == rowsum(a) + rowsum(b)
        assert code(s) == code(a) + code(b)


def test_base_digit_expansion_minimizes_digit_sum():
    # among all expansions X = sum x_i b^i with x_i >= 0, the plain base-b
    # digits spend the fewest units; this is what makes weight targets tight
    for b in (3, 7):
        for x in range(b**3):
            best = None
            for x2 in range(x // (b * b) + 1):
                for x1 in range((x - x2 * b * b) // b + 1):
                    x0 = x - x2 * b * b - x1 * b
                    total = x0 + x1 + x2
                    if best is None or total < best:
                        best = total
            digits = x % b + (x // b) % b + (x // (b * b)) % b
            assert best == digits


# ---------------------------------------------------------------------------
# placements and characteristic matrices


def _grid_rep(p: int, q: int, elements):
    elements = list(elements)
    placement = {
        elements[i * q + j]: (i, j) for i in range(p) for j in range(q)
    }
    return MatrixRepresentation(p, q, placement)


def test_placement_validation():
    with pytest.raises(ValueError, match="outside"):
        MatrixRepresentation(1, 2, {4: (0, 2), 5: (0, 0)})
    with pytest.raises(ValueError, match="twice"):
        MatrixRepresentation(1, 2, {4: (0, 0), 5: (0, 0)})
    with pytest.raises(ValueError, match="exactly one"):
        MatrixRepresentation(2, 2, {4: (0, 0), 5: (0, 1)})


def test_characteristic_matrix_examples():
    rep = _grid_rep(2, 2, [10, 11, 12, 13])
    assert characteristic_matrix(rep, []) == zero_matrix(2, 2)
    assert characteristic_matrix(rep, [10, 11, 12, 13]) == ((1, 1), (1, 1))
    assert characteristic_matrix(rep, [12]) == ((0, 0), (1, 0))
    # elements without a cell fall outside the tracked window
    assert characteristic_matrix(rep, [99]) == zero_matrix(2, 2)
    with pytest.raises(ValueError, match="repeated"):
        characteristic_matrix(rep, [12, 12])


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_known_tuples():
    assert reconstruct_matrix(2, 2, 1, 3, 3, 5) == ((0, 1), (1, 1))
    assert reconstruct_matrix(3, 4, 0, 0, 0, 0) == zero_matrix(3, 4)
    assert reconstruct_matrix(2, 2, 0, 3, 3, 5) is None
    assert reconstruct_matrix(1, 2, 0, 0, 0, 9) is None
    with pytest.raises(ValueError):
        reconstruct_matrix(1, 0, 0, 0, 0, 0)


def test_reconstruct_round_trips_every_binary_matrix():
    for p, q in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        for cells in itertools.product((0, 1), repeat=p * q):
            m = tuple(cells[i * q:(i + 1) * q] for i in range(p))
            if not is_row_normalized(m):
                continue
            got = reconstruct_matrix(
                p, q, colweight(m, 0), weight(m), rowsum(m), code(m)
            )
            assert got == m


# ---------------------------------------------------------------------------
# mixed-radix packing


def test_pack_examples():
    rv = RadixVector(("x", "y"), (3, 5))
    assert rv.pack((1, 2)) == 7
    assert rv.pack((0, 0)) == 0
    assert rv.unpack(7) == (1, 2)
    assert rv.domain_size() == 15
    assert rv.strides == (1, 3)


def test_pack_validation():
    rv = RadixVector(("x", "y"), (3, 5))
    with pytest.raises(ValueError, match="outside radix"):
        rv.pack((3, 0))
    with pytest.raises(ValueError, match="arity"):
        rv.pack((1,))
    with pytest.raises(ValueError, match="outside domain"):
        rv.unpack(15)
    with pytest.raises(ValueError, match="positive"):
        RadixVector(("x",), (0,))
    with pytest.raises(ValueError, match="align"):
        RadixVector(("x",), (2, 3))


def test_pack_round_trip_and_carry_free_addition(rng):
    for _ in range(1000):
        arity = rng.randint(1, 5)
        radices = tuple(rng.randint(1, 9) for _ in range(arity))
        rv = RadixVector(tuple(f"v{i}" for i in range(arity)), radices)
        t = tuple(rng.randrange(r) for r in radices)
        assert rv.unpack(rv.pack(t)) == t
        u = tuple(rng.randrange(r) for r in radices)
        if all(a + b < r for a, b, r in zip(t, u, radices)):
            total = tuple(a + b for a, b in zip(t, u))
            assert rv.pack(t) + rv.pack(u) == rv.pack(total)
