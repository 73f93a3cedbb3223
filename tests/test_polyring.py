"""Sparse products, packed transforms, and coefficient extraction."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import setpart.polyring
from setpart.encoding import RadixVector
from setpart.polyring import (
    _BLOCK,
    EvaluationOracle,
    ExactPolynomial,
    RadixOverflowError,
    _crt,
    _crt_vector,
    _geometric,
    _is_prime,
    _next_pow2,
    _ntt,
    _ntt_primes,
    _plan,
    _primitive_root,
    _product_eval_table,
    convolve_exact,
    extract_coefficient_polyspace,
    extract_coefficients_polyspace,
    multiply,
    multiply_packed_dense,
    pack_terms,
    product_coefficients,
)

import numpy as np

# derandomized so every run of the suite draws the same examples
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

X = ("x",)
XY = ("x", "y")


def poly(variables, terms):
    return ExactPolynomial(tuple(variables), dict(terms))


def random_poly(rng, variables, max_exp, max_coeff, max_terms):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[key] = rng.randint(1, max_coeff)
    return ExactPolynomial(tuple(variables), terms)


# ---------------------------------------------------------------------------
# polynomial container


def test_polynomial_validation():
    with pytest.raises(ValueError, match="arity"):
        poly(X, {(1, 2): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        poly(X, {(-1,): 1})
    with pytest.raises(ValueError, match="positive"):
        poly(X, {(1,): 0})


def test_polynomial_accessors():
    p = poly(XY, {(0, 0): 1, (2, 1): 5})
    assert p.coefficient((2, 1)) == 5
    assert p.coefficient((1, 1)) == 0
    assert p.mass() == 6
    assert p.max_exponents() == (2, 1)
    assert p.term_count() == 2
    z = ExactPolynomial.zero(XY)
    assert z.mass() == 0 and z.max_exponents() == (0, 0)
    assert ExactPolynomial.one(XY).coefficient((0, 0)) == 1


# ---------------------------------------------------------------------------
# sparse multiply


def test_multiply_square_of_binomial():
    one_plus_x = poly(X, {(0,): 1, (1,): 1})
    sq = multiply(one_plus_x, one_plus_x)
    assert sq.terms == {(0,): 1, (1,): 2, (2,): 1}


def test_multiply_identity_and_zero():
    p = poly(XY, {(1, 2): 3, (0, 1): 4})
    assert multiply(p, ExactPolynomial.one(XY)).terms == p.terms
    assert multiply(p, ExactPolynomial.zero(XY)).terms == {}


def test_multiply_variable_mismatch():
    with pytest.raises(ValueError, match="variable mismatch"):
        multiply(poly(X, {(1,): 1}), poly(("y",), {(1,): 1}))


def test_multiply_matches_double_loop(rng):
    for _ in range(25):
        p = random_poly(rng, XY, 6, 9, 50)
        q = random_poly(rng, XY, 6, 9, 50)
        expect = {}
        for ea, ca in p.terms.items():
            for eb, cb in q.terms.items():
                key = (ea[0] + eb[0], ea[1] + eb[1])
                expect[key] = expect.get(key, 0) + ca * cb
        assert multiply(p, q).terms == expect


# ---------------------------------------------------------------------------
# packed-dense multiply


def test_packed_dense_binomial_square():
    rv = RadixVector(("y",), (3,))
    one_plus_y = poly(("y",), {(0,): 1, (1,): 1})
    got = multiply_packed_dense(one_plus_y, one_plus_y, rv)
    assert got.terms == {(0,): 1, (1,): 2, (2,): 1}


def test_packed_dense_rejects_tight_radix():
    rv = RadixVector(("y",), (2,))
    one_plus_y = poly(("y",), {(0,): 1, (1,): 1})
    with pytest.raises(RadixOverflowError, match="needs radix > 2"):
        multiply_packed_dense(one_plus_y, one_plus_y, rv)


def test_packed_dense_requires_matching_names():
    rv = RadixVector(("z",), (5,))
    p = poly(X, {(1,): 1})
    with pytest.raises(ValueError, match="radix names"):
        multiply_packed_dense(p, p, rv)


def test_packed_dense_matches_sparse(rng):
    for _ in range(20):
        p = random_poly(rng, XY, 4, 7, 12)
        q = random_poly(rng, XY, 4, 7, 12)
        sums = tuple(a + b for a, b in zip(p.max_exponents(), q.max_exponents()))
        rv = RadixVector(XY, tuple(s + 1 for s in sums))
        assert multiply_packed_dense(p, q, rv).terms == multiply(p, q).terms


def test_packed_dense_triple_product(rng):
    rv_names = ("x", "y", "z")
    for _ in range(10):
        factors = [random_poly(rng, rv_names, 2, 1, 8) for _ in range(3)]
        sparse = factors[0]
        for f in factors[1:]:
            sparse = multiply(sparse, f)
        sums = [0, 0, 0]
        for f in factors:
            for i, e in enumerate(f.max_exponents()):
                sums[i] += e
        rv = RadixVector(rv_names, tuple(s + 1 for s in sums))
        dense = multiply_packed_dense(
            multiply_packed_dense(factors[0], factors[1], rv), factors[2], rv
        )
        assert dense.terms == sparse.terms


# ---------------------------------------------------------------------------
# exact convolution


def _naive_conv(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_convolve_edge_cases():
    assert convolve_exact([], [1, 2]) == []
    assert convolve_exact([1, 2], [3]) == [3, 6]
    assert convolve_exact([0, 0], [0]) == [0, 0]
    with pytest.raises(ValueError, match="nonnegative"):
        convolve_exact([-1], [1])


def test_convolve_single_prime_path(rng):
    # small entries keep the coefficient bound inside one prime field
    a = [rng.randint(0, 1000) for _ in range(20)]
    b = [rng.randint(0, 1000) for _ in range(25)]
    assert convolve_exact(a, b) == _naive_conv(a, b)


def test_convolve_multi_prime_path(rng):
    # 100-bit entries force several moduli and the vectorized rebuild
    a = [rng.getrandbits(100) for _ in range(20)]
    b = [rng.getrandbits(100) for _ in range(20)]
    assert convolve_exact(a, b) == _naive_conv(a, b)


def test_convolve_entries_past_word_size(rng):
    a = [rng.getrandbits(70) for _ in range(18)]
    b = [rng.getrandbits(70) for _ in range(18)]
    assert convolve_exact(a, b) == _naive_conv(a, b)


def test_convolve_random_sizes(rng):
    for _ in range(30):
        la, lb = rng.randint(1, 40), rng.randint(1, 40)
        bits = rng.choice([8, 40, 80])
        a = [rng.getrandbits(bits) for _ in range(la)]
        b = [rng.getrandbits(bits) for _ in range(lb)]
        assert convolve_exact(a, b) == _naive_conv(a, b)


# ---------------------------------------------------------------------------
# modular internals


def test_is_prime_knowns():
    assert _is_prime(2) and _is_prime(3) and _is_prime((1 << 61) - 1)
    assert not _is_prime(1)
    assert not _is_prime(561)  # Carmichael
    assert not _is_prime((1 << 16) + 5)  # 3 * 21847


def test_geometric_matches_pow(rng):
    for prime in (97, (1 << 31) + 11):  # one small lane, one object lane
        if not _is_prime(prime):
            prime += 2
        step = rng.randrange(1, prime)
        table = _geometric(step, 50, prime)
        assert [int(v) for v in table] == [pow(step, i, prime) for i in range(50)]


def _wide_ntt_prime(order: int) -> int:
    p = (1 << 31) + 1
    p += (-(p - 1)) % order
    while not (_is_prime(p) and (p - 1) % order == 0):
        p += order
    return p


def test_ntt_round_trip_both_lanes(rng):
    for prime in (12289, _wide_ntt_prime(64)):
        root = _primitive_root(prime)
        values = np.array(
            [rng.randrange(prime) for _ in range(64)],
            dtype=np.uint64 if prime < (1 << 31) else object,
        )
        spectrum = _ntt(values.copy(), prime, root)
        back = _ntt(spectrum, prime, root, inverse=True)
        assert [int(v) for v in back] == [int(v) for v in values]


def test_crt_agreement(rng):
    primes = [12289, 40961, 65537]
    for _ in range(50):
        x = rng.getrandbits(40)
        assert _crt([x % p for p in primes], primes) == x
    cols = [np.array([rng.randrange(p) for _ in range(30)], dtype=np.uint64) for p in primes]
    vec = _crt_vector(cols, primes)
    per_cell = [
        _crt([int(cols[j][i]) for j in range(3)], primes) for i in range(30)
    ]
    assert vec == per_cell


def test_next_pow2():
    assert _next_pow2(1) == 1
    assert _next_pow2(2) == 2
    assert _next_pow2(3) == 4
    assert _next_pow2(1025) == 2048


# ---------------------------------------------------------------------------
# evaluation oracles


def test_oracle_requires_one_representation():
    with pytest.raises(ValueError, match="exactly one"):
        EvaluationOracle(degree_bound=1, mass=1)
    with pytest.raises(ValueError, match="exactly one"):
        EvaluationOracle(
            degree_bound=1,
            mass=1,
            packed_terms=((0, 1),),
            packed_factors=((0, ()),),
        )


def test_oracle_term_evaluation(rng):
    terms = tuple((e, rng.randint(1, 9)) for e in range(6))
    oracle = EvaluationOracle(degree_bound=5, mass=sum(c for _, c in terms), packed_terms=terms)
    for prime in (97, 12289):
        for x in (0, 1, 5, 96):
            direct = sum(c * pow(x, e, prime) for e, c in terms) % prime
            assert oracle.eval_at(x, prime) == direct


def test_oracle_factor_evaluation(rng):
    # u^2 (1+u)(1+u^3) + u^0 (1+u^2), expanded by hand
    factors = ((2, (1, 3)), (0, (2,)))
    expanded = {2: 1, 3: 1, 5: 1, 6: 1, 0: 1}
    expanded[2] += 1
    oracle = EvaluationOracle(degree_bound=6, mass=6, packed_factors=factors)
    prime = 12289
    for x in (1, 2, 7, 100):
        direct = sum(c * pow(x, e, prime) for e, c in expanded.items()) % prime
        assert oracle.eval_at(x, prime) == direct


# ---------------------------------------------------------------------------
# coefficient extraction without materializing the product


def _term_oracle(p: ExactPolynomial, rv: RadixVector) -> EvaluationOracle:
    packed = tuple((rv.pack(es), c) for es, c in sorted(p.terms.items()))
    return EvaluationOracle(
        degree_bound=max((e for e, _ in packed), default=0),
        mass=p.mass(),
        packed_terms=packed,
    )


def test_extract_binomial_square():
    one_plus_x = EvaluationOracle(degree_bound=1, mass=2, packed_terms=((0, 1), (1, 1)))
    assert extract_coefficient_polyspace([one_plus_x, one_plus_x], 1, 4) == 2
    assert extract_coefficient_polyspace([one_plus_x, one_plus_x], 3, 4) == 0


def test_extract_validation():
    unit = EvaluationOracle(degree_bound=0, mass=1, packed_terms=((0, 1),))
    with pytest.raises(ValueError, match="empty product"):
        extract_coefficient_polyspace([], 0, 4)
    with pytest.raises(ValueError, match="positive"):
        extract_coefficient_polyspace([unit], 0, 0)
    with pytest.raises(ValueError, match="outside domain"):
        extract_coefficient_polyspace([unit], 4, 4)
    with pytest.raises(ValueError, match="outside domain"):
        extract_coefficient_polyspace([unit], -1, 4)
    big = EvaluationOracle(degree_bound=9, mass=2, packed_terms=((9, 1), (0, 1)))
    with pytest.raises(ValueError, match="wraps past"):
        extract_coefficient_polyspace([big, big], 0, 16)


def test_extract_zero_mass_short_circuit():
    unit = EvaluationOracle(degree_bound=0, mass=1, packed_terms=((0, 1),))
    empty = EvaluationOracle(degree_bound=0, mass=0, packed_terms=())
    assert extract_coefficients_polyspace([unit, empty], [0, 1], 4) == [0, 0]


def test_extract_matches_dense_product(rng):
    for _ in range(20):
        k = rng.randint(2, 4)
        factors = [random_poly(rng, XY, 2, 4, 6) for _ in range(k)]
        sums = [0, 0]
        for f in factors:
            for i, e in enumerate(f.max_exponents()):
                sums[i] += e
        rv = RadixVector(XY, tuple(s + 1 for s in sums))
        product = factors[0]
        for f in factors[1:]:
            product = multiply(product, f)
        oracles = [_term_oracle(f, rv) for f in factors]
        domain = rv.domain_size()
        probes = rng.sample(sorted(product.terms), min(3, len(product.terms)))
        targets = [rv.pack(es) for es in probes]
        got = extract_coefficients_polyspace(oracles, targets, domain)
        assert got == [product.terms[es] for es in probes]
        # a vacant exponent reads zero
        hole = next(
            i for i in range(domain) if rv.unpack(i) not in product.terms
        )
        assert extract_coefficient_polyspace(oracles, hole, domain) == 0


def test_three_engines_agree(rng):
    for _ in range(10):
        p = random_poly(rng, XY, 3, 3, 8)
        q = random_poly(rng, XY, 3, 3, 8)
        sums = tuple(a + b for a, b in zip(p.max_exponents(), q.max_exponents()))
        rv = RadixVector(XY, tuple(s + 1 for s in sums))
        sparse = multiply(p, q)
        dense = multiply_packed_dense(p, q, rv)
        assert dense.terms == sparse.terms
        oracles = [_term_oracle(p, rv), _term_oracle(q, rv)]
        for es, c in sparse.terms.items():
            got = extract_coefficient_polyspace(oracles, rv.pack(es), rv.domain_size())
            assert got == c


# ---------------------------------------------------------------------------
# the cached transform plan: transforms and blocked evaluation tables


def _lane_dtype(prime):
    return np.uint64 if prime < (1 << 31) else object


def _omega(prime, size):
    return pow(_primitive_root(prime), (prime - 1) // size, prime)


@pytest.mark.parametrize(
    "prime, n",
    [(12289, 1), (12289, 2), (12289, 64), (_wide_ntt_prime(64), 1),
     (_wide_ntt_prime(64), 2), (_wide_ntt_prime(64), 64)],
)
def test_ntt_equals_naive_dft(rng, prime, n):
    root = _primitive_root(prime)
    omega = _omega(prime, n)
    values = [rng.randrange(prime) for _ in range(n)]
    naive = [
        sum(v * pow(omega, j * k, prime) for j, v in enumerate(values)) % prime
        for k in range(n)
    ]
    spectrum = _ntt(np.array(values, dtype=_lane_dtype(prime)), prime, root)
    assert [int(x) for x in spectrum] == naive
    back = _ntt(spectrum, prime, root, inverse=True)
    assert [int(x) for x in back] == values


# 786433 = 3 * 2^18 + 1 carries uint64-lane transforms past one block
@pytest.mark.parametrize("prime", [786433, _wide_ntt_prime(2 * _BLOCK)])
def test_ntt_past_one_block_matches_sampled_dft(rng, prime):
    n = 2 * _BLOCK
    root = _primitive_root(prime)
    omega = _omega(prime, n)
    values = [rng.randrange(prime) for _ in range(n)]
    spectrum = _ntt(np.array(values, dtype=_lane_dtype(prime)), prime, root)
    for k in [0, 1, n // 2, n - 1] + rng.sample(range(n), 4):
        step = pow(omega, k, prime)
        acc, x = 0, 1
        for v in values:
            acc += v * x
            x = x * step % prime
        assert int(spectrum[k]) == acc % prime
    back = _ntt(spectrum, prime, root, inverse=True)
    assert [int(x) for x in back] == values


def test_ntt_rejects_a_foreign_root():
    prime = 12289
    other = next(
        g for g in range(_primitive_root(prime) + 1, prime)
        if all(pow(g, (prime - 1) // f, prime) != 1 for f in (2, 3))
    )
    with pytest.raises(ValueError, match="primitive root"):
        _ntt(np.zeros(8, dtype=np.uint64), prime, other)


def _random_oracles(rng, size):
    """One oracle of each form, degrees summing below size."""
    quarter = size // 4
    terms = {rng.randrange(quarter): rng.randint(1, 10**6) for _ in range(5)}
    terms[rng.randrange(quarter)] = 1  # the unit-coefficient gather
    by_terms = EvaluationOracle(
        degree_bound=max(terms),
        mass=sum(terms.values()),
        packed_terms=tuple(sorted(terms.items())),
    )
    sets = []
    for _ in range(3):
        exps = tuple(rng.randrange(1, quarter // 4) for _ in range(rng.randint(0, 3)))
        sets.append((rng.randrange(quarter // 4), exps))
    by_factors = EvaluationOracle(
        degree_bound=max(base + sum(exps) for base, exps in sets),
        mass=sum(1 << len(exps) for _base, exps in sets),
        packed_factors=tuple(sets),
    )
    return [by_terms, by_factors]


@pytest.mark.parametrize(
    "prime, size",
    [(12289, 64), (786433, 2 * _BLOCK),
     (_wide_ntt_prime(2 * _BLOCK), 64), (_wide_ntt_prime(2 * _BLOCK), 2 * _BLOCK)],
)
def test_eval_table_equals_eval_at_every_root(rng, prime, size):
    oracles = _random_oracles(rng, size)
    root = _primitive_root(prime)
    table = _product_eval_table(oracles, prime, root, size)
    omega = _omega(prime, size)
    x = 1
    for k in range(size):
        expect = oracles[0].eval_at(x, prime) * oracles[1].eval_at(x, prime) % prime
        assert int(table[k]) == expect, k
        x = x * omega % prime


def test_polyspace_peak_memory_stays_near_one_table():
    size = 1 << 18
    oracles = [
        EvaluationOracle(degree_bound=1000, mass=3, packed_terms=((0, 1), (7, 1), (1000, 1))),
        EvaluationOracle(
            degree_bound=size // 2, mass=2, packed_factors=((5, (size // 2 - 5,)),)
        ),
    ]
    targets = [5, 12, size // 2 + 1000, 3]
    _plan.cache_clear()
    tracemalloc.start()
    try:
        got = extract_coefficients_polyspace(oracles, targets, size)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == [1, 1, 1, 0]
    # the evaluation table and the plan's power table, one word a point
    # each, plus temporaries of one block
    assert peak < 3 * 8 * size


def _polyspace_peak(size):
    """tracemalloc peak of one polyspace readout at this size, plan warm."""
    oracles = [
        EvaluationOracle(degree_bound=1000, mass=3, packed_terms=((0, 1), (7, 1), (1000, 1))),
        EvaluationOracle(
            degree_bound=size // 2, mass=2, packed_factors=((5, (size // 2 - 5,)),)
        ),
    ]
    targets = [5, 12, size // 2 + 1000, 3]
    # builds and caches the plan, whose power table is not counted
    extract_coefficients_polyspace(oracles, targets, size)
    tracemalloc.start()
    try:
        got = extract_coefficients_polyspace(oracles, targets, size)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == [1, 1, 1, 0]
    return peak


def test_polyspace_peak_memory_flat_as_the_domain_grows():
    small = _polyspace_peak(1 << 14)
    assert _polyspace_peak(1 << 18) <= 1.25 * small


# ---------------------------------------------------------------------------
# transform-domain products against the sparse schoolbook product


def _poly_strategy(max_exp, max_coeff):
    term = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    return st.dictionaries(term, st.integers(1, max_coeff), min_size=1, max_size=8)


def _sparse_product(factors):
    product = factors[0]
    for f in factors[1:]:
        product = multiply(product, f)
    return product


@PROPERTY
@given(
    factor_terms=st.lists(
        st.one_of(_poly_strategy(4, 9), _poly_strategy(3, 1 << 40)), min_size=1, max_size=4
    ),
)
def test_product_coefficients_equal_sparse_product(factor_terms):
    factors = [ExactPolynomial(XY, terms) for terms in factor_terms]
    sums = [sum(f.max_exponents()[i] for f in factors) for i in range(2)]
    # one spare row on y, so the full product's zero tail is read too
    rv = RadixVector(XY, (sums[0] + 1, sums[1] + 2))
    sparse = _sparse_product(factors)
    packed = [pack_terms(f.terms, rv) for f in factors]
    full = product_coefficients(packed)
    assert {rv.unpack(i): c for i, c in enumerate(full) if c} == sparse.terms


# shape -> (max exponent, coefficient range); "object-lane" also pins the
# transform to one prime above 2^31
READOUT_SHAPES = {
    "one-block": (60, (1, 9)),
    "multi-block": (_BLOCK, (1, 9)),
    "multi-prime": (60, (1 << 30, 1 << 40)),
    "object-lane": (60, (1, 9)),
}


@pytest.mark.parametrize("shape", sorted(READOUT_SHAPES))
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_targeted_readout_equals_multiply(shape, data):
    """The polyspace readout pass over explicit terms reads the schoolbook product."""
    max_exp, (lo, hi) = READOUT_SHAPES[shape]
    term_map = st.dictionaries(
        st.integers(0, max_exp), st.integers(lo, hi), min_size=1, max_size=40
    )
    terms = data.draw(st.lists(term_map, min_size=2, max_size=3))
    if shape == "multi-block":
        terms[0][max_exp] = 1  # the product's degree passes one block
    factors = [ExactPolynomial(X, {(e,): c for e, c in t.items()}) for t in terms]
    oracles = [
        EvaluationOracle(
            degree_bound=max(t), mass=sum(t.values()), packed_terms=tuple(sorted(t.items()))
        )
        for t in terms
    ]
    degree = sum(max(t) for t in terms)
    size = _next_pow2(degree + 1)
    sparse = _sparse_product(factors)
    probes = data.draw(st.lists(st.integers(0, 2 * size), min_size=1, max_size=6))
    # the lowest and the highest term, and the first index past the degree
    targets = probes + [sum(min(t) for t in terms), degree, degree + 1]
    expect = [sparse.coefficient((t,)) for t in targets]
    assert expect[-3] and expect[-2] and not expect[-1]
    bound = math.prod(f.mass() for f in factors)
    if shape == "multi-block":
        assert size > _BLOCK
    if shape == "multi-prime":
        assert len(_ntt_primes(size, bound)) >= 2
    with pytest.MonkeyPatch.context() as mp:
        if shape == "object-lane":
            wide = _wide_ntt_prime(size)
            assert bound < wide
            mp.setattr(setpart.polyring, "_ntt_primes", lambda _size, _bound: (wide,))
        assert extract_coefficients_polyspace(oracles, targets, 2 * size + 1) == expect


def test_product_coefficients_run_the_crt_on_wide_coefficients(rng):
    rv = RadixVector(XY, (9, 9))
    factors = [
        ExactPolynomial(XY, {(rng.randint(0, 2), rng.randint(0, 2)): rng.getrandbits(60) + 1
                             for _ in range(4)})
        for _ in range(3)
    ]
    packed = [pack_terms(f.terms, rv) for f in factors]
    size = _next_pow2(sum(int(idx.max()) for idx, _c in packed) + 1)
    assert len(_ntt_primes(size, math.prod(f.mass() for f in factors))) >= 2
    sparse = _sparse_product(factors)
    got = product_coefficients(packed)
    assert {rv.unpack(i): c for i, c in enumerate(got) if c} == sparse.terms
