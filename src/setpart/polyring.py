"""Exact multivariate polynomials over the integers.

Two multiplication strategies coexist:

- sparse schoolbook (``multiply``) for polynomials with few terms,
- packed transforms: exponent tuples are packed into a mixed-radix index
  (``pack_terms``) and the product is formed at the power-of-two roots of
  unity modulo several primes, then read back exactly through CRT.  Every
  transform and evaluation of one (size, prime) pair runs on one cached
  plan: its primitive root, its table of root powers and its
  bit-reversal.

  - full products (``product_coefficients``, ``multiply_packed_dense``,
    ``convolve_exact``) transform each factor, multiply pointwise and
    invert;
  - polyspace (``extract_coefficients_polyspace``, from evaluation
    oracles) reads a set of target coefficients in one blocked
    evaluate-and-read pass: per block of roots every factor is evaluated
    by gathers from the power table, the values are multiplied, and each
    target's inverse-transform sum is accumulated, so no table of product
    size is stored and no factor is transformed or expanded
    (Lokshtanov-Nederlof, "Saving space by algebraization", STOC 2010).

All arithmetic is exact; floats never appear.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .encoding import RadixVector

__all__ = [
    "EvaluationOracle",
    "ExactPolynomial",
    "RadixOverflowError",
    "TransformUnavailableError",
    "convolve_exact",
    "extract_coefficient_polyspace",
    "extract_coefficients_polyspace",
    "multiply",
    "multiply_packed_dense",
    "pack_terms",
    "product_coefficients",
]

_SMALL_PRIME_LIMIT = 1 << 31  # products of two residues stay under 2^62
_WIDE_PRIME_LIMIT = 1 << 62

# The readout pass evaluates and reads this many points at a time, so its
# temporaries stay O(block) whatever the transform size (at most 2^17,
# which keeps a block's split readout sums below 2^64).
_BLOCK = 1 << 14
# Entries kept by each plan cache (plans, bit-reversals, prime lists); a
# plan holds O(size) words, so the caches are bounded rather than growing
# with the number of distinct sizes.
_PLAN_CACHE_SIZE = 8

# A packed factor: distinct packed indices (int64) and their nonnegative
# coefficients (uint64, or object when some coefficient needs more bits).
PackedFactor = tuple[np.ndarray, np.ndarray]


class RadixOverflowError(ValueError):
    """A product exponent would wrap past its radix if packed densely."""


class TransformUnavailableError(RuntimeError):
    """No transform-friendly primes exist below the supported word size."""


# ---------------------------------------------------------------------------
# polynomial values


@dataclass(frozen=True)
class ExactPolynomial:
    """Multivariate polynomial with nonnegative integer coefficients.

    ``terms`` maps exponent tuples to positive coefficients; the zero
    polynomial has no terms.  Exponents are nonnegative.
    """

    variables: tuple[str, ...]
    terms: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        arity = len(self.variables)
        for exps, coeff in self.terms.items():
            if len(exps) != arity:
                raise ValueError(f"term {exps} has wrong arity")
            if any(e < 0 for e in exps):
                raise ValueError(f"term {exps} has a negative exponent")
            if coeff <= 0:
                raise ValueError("coefficients must be positive integers")

    @staticmethod
    def zero(variables: Sequence[str]) -> "ExactPolynomial":
        return ExactPolynomial(tuple(variables), {})

    @staticmethod
    def one(variables: Sequence[str]) -> "ExactPolynomial":
        return ExactPolynomial(tuple(variables), {(0,) * len(variables): 1})

    def coefficient(self, exponents: Sequence[int]) -> int:
        return self.terms.get(tuple(exponents), 0)

    def mass(self) -> int:
        """Sum of all coefficients (the value at the all-ones point)."""
        return sum(self.terms.values())

    def max_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * len(self.variables)
        return tuple(max(es) for es in zip(*self.terms))

    def term_count(self) -> int:
        return len(self.terms)


def multiply(p: ExactPolynomial, q: ExactPolynomial) -> ExactPolynomial:
    """Sparse schoolbook product."""
    if p.variables != q.variables:
        raise ValueError("variable mismatch")
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return ExactPolynomial(p.variables, out)


def _coefficient_array(values: Sequence[int]) -> np.ndarray:
    """Nonnegative integers on uint64 lanes when they fit, else exact objects."""
    try:
        return np.fromiter(values, dtype=np.uint64, count=len(values))
    except OverflowError:
        arr = np.array(values, dtype=object)
        if (arr < 0).any():
            raise ValueError("coefficients must be nonnegative") from None
        return arr


def pack_terms(
    terms: Mapping[tuple[int, ...], int], radix: RadixVector
) -> PackedFactor:
    """Packed indices and coefficients of a term map, as numpy arrays.

    Every exponent must lie inside its radix, so packing is injective and
    the indices come out distinct.
    """
    exps = np.array(list(terms), dtype=np.int64).reshape(len(terms), len(radix.radices))
    indices = exps @ np.array(radix.strides, dtype=np.int64)
    return indices, _coefficient_array(list(terms.values()))


def multiply_packed_dense(
    p: ExactPolynomial, q: ExactPolynomial, radix: RadixVector
) -> ExactPolynomial:
    """Product via mixed-radix packing and exact 1-D convolution.

    The radices must strictly dominate the componentwise sum of maximum
    exponents, otherwise packed indices would alias across components.
    """
    if p.variables != q.variables:
        raise ValueError("variable mismatch")
    if radix.names != p.variables:
        raise ValueError("radix names must match polynomial variables")
    for name, r, mp, mq in zip(
        radix.names, radix.radices, p.max_exponents(), q.max_exponents()
    ):
        if mp + mq >= r:
            raise RadixOverflowError(
                f"variable {name}: degree {mp}+{mq} needs radix > {mp + mq}, have {r}"
            )
    if not p.terms or not q.terms:
        return ExactPolynomial.zero(p.variables)
    coeffs = product_coefficients([pack_terms(p.terms, radix), pack_terms(q.terms, radix)])
    out = {radix.unpack(i): c for i, c in enumerate(coeffs) if c}
    return ExactPolynomial(p.variables, out)


# ---------------------------------------------------------------------------
# number theory helpers


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far past 2^62."""
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % sp == 0:
            return n == sp
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _primitive_root(p: int) -> int:
    factors = _factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise RuntimeError(f"no primitive root modulo {p}")


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _ntt_primes(length: int, needed_product: int) -> tuple[int, ...]:
    """Primes p = c*length + 1 whose product exceeds the coefficient bound.

    Small primes (below 2^31) are preferred so transforms run on 64-bit
    numpy lanes; wider primes up to 2^62 fill in when the bound cannot be
    covered otherwise, at the cost of exact object arithmetic.
    """
    primes: list[int] = []
    product = 1
    for limit in (_SMALL_PRIME_LIMIT, _WIDE_PRIME_LIMIT):
        c = (limit - 1) // length
        while c >= 1 and product <= needed_product:
            cand = c * length + 1
            if cand % 2 == 1 and cand not in primes and _is_prime(cand):
                primes.append(cand)
                product *= cand
            c -= 1
        if product > needed_product:
            return tuple(primes)
    raise TransformUnavailableError(
        f"no transform-friendly primes below 2^62 cover a bound of {needed_product}"
    )


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _bit_reversal(n: int) -> np.ndarray:
    """Permutation sending index i to its bit-reversed image, length n = 2^k."""
    perm = np.zeros(1, dtype=np.int64)
    while len(perm) < n:
        perm = np.concatenate([2 * perm, 2 * perm + 1])
    perm.flags.writeable = False
    return perm


def _geometric(step: int, length: int, prime: int) -> np.ndarray:
    """[1, step, step^2, ...] of the given length, reduced modulo prime.

    Doubles an existing prefix each round: the block after position m is
    the prefix scaled by step^m, so the whole sequence costs O(log length)
    vector multiplies.
    """
    small = prime < _SMALL_PRIME_LIMIT
    g = np.ones(1, dtype=np.uint64 if small else object)
    while len(g) < length:
        jump = pow(step, len(g), prime)
        if small:
            g = np.concatenate([g, (g * np.uint64(jump)) % np.uint64(prime)])
        else:
            g = np.concatenate([g, (g * jump) % prime])
    return g[:length]


@dataclass(frozen=True, eq=False)
class _TransformPlan:
    """What every transform of one (size, prime) pair shares.

    ``powers[i]`` is omega^i for omega = root^((prime-1)/size), the
    size-th root of unity all transforms and evaluations of this size use.
    Residues ride uint64 lanes below 2^31 and exact Python integers above.
    """

    size: int
    prime: int
    root: int
    powers: np.ndarray

    @property
    def modulus(self):
        return np.uint64(self.prime) if self.prime < _SMALL_PRIME_LIMIT else self.prime

    @property
    def dtype(self):
        return np.uint64 if self.prime < _SMALL_PRIME_LIMIT else object

    @property
    def bit_reversal(self) -> np.ndarray:
        # built on first use, so evaluation-only callers never pay for it
        return _bit_reversal(self.size)

    def reduce(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients modulo the prime, on this plan's lane."""
        if self.prime >= _SMALL_PRIME_LIMIT:
            return coeffs.astype(object) % self.prime
        if coeffs.dtype == object:
            return (coeffs % self.prime).astype(np.uint64)
        return coeffs % self.modulus

    def power_gather(self, points: np.ndarray, exponent: int) -> np.ndarray:
        """omega^(k*exponent) for every k in ``points`` (an int64 array).

        int64 indices gather without the cast numpy makes of uint64 ones;
        their products wrap modulo 2^64, a multiple of size, so the mask
        still yields (k*exponent) mod size.
        """
        return self.powers[(points * (exponent % self.size)) & (self.size - 1)]


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(size: int, prime: int) -> _TransformPlan:
    if size & (size - 1) or (prime - 1) % size:
        raise ValueError(f"no size-{size} transform modulo {prime}")
    root = _primitive_root(prime)
    powers = _geometric(pow(root, (prime - 1) // size, prime), size, prime)
    powers.flags.writeable = False
    return _TransformPlan(size, prime, root, powers)


def _ntt(values: np.ndarray, prime: int, root: int, inverse: bool = False) -> np.ndarray:
    """Iterative radix-2 transform modulo ``prime``: out[k] = sum_j v[j] omega^(jk).

    ``root`` must be the primitive root the cached plan for (len(values),
    prime) is built on.  uint64 arrays stay on fast numpy lanes when the
    prime is below 2^31, with conditional subtraction in place of the
    add/sub reductions; object arrays carry exact Python integers
    otherwise.  The inverse is the forward transform read at -k, scaled
    by 1/n.
    """
    n = len(values)
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    plan = _plan(n, prime)
    if root != plan.root:
        raise ValueError(f"root {root} is not the plan's primitive root {plan.root}")
    pm = plan.modulus
    small = prime < _SMALL_PRIME_LIMIT
    data = values[plan.bit_reversal]
    span = 1
    while span < n:
        # the level with half-width span needs omega^(j*n/(2*span)), j < span
        tw = plan.powers[: n // 2 : n // (2 * span)]
        blocks = data.reshape(-1, 2 * span)
        even = blocks[:, :span]
        odd = blocks[:, span:]
        t = odd * tw
        t %= pm
        if small:
            upper = even + t  # below 2p
            t -= even
            np.subtract(pm, t, out=t)  # p + even - t, in [1, 2p); the wraps cancel
            np.minimum(upper, upper - pm, out=even)
            np.minimum(t, t - pm, out=odd)
        else:
            upper = (even + t) % prime
            blocks[:, span:] = (even - t) % prime
            blocks[:, :span] = upper
        span *= 2
    if inverse:
        data[1:] = data[:0:-1].copy()
        data *= pow(n, prime - 2, prime)
        data %= pm
    return data


def _crt(residues: Sequence[int], primes: Sequence[int]) -> int:
    """Combine residues into the unique value below the prime product."""
    result = 0
    modulus = 1
    for r, p in zip(residues, primes):
        # lift result so it also matches r modulo p
        diff = (r - result) % p
        step = diff * pow(modulus % p, p - 2, p) % p
        result += modulus * step
        modulus *= p
    return result


def _crt_vector(residues: list[np.ndarray], primes: Sequence[int]) -> list[int]:
    """Garner reconstruction of whole residue arrays at once.

    Mixed-radix digits are computed with vectorized modular arithmetic
    (every intermediate stays below 2^62, safe on uint64 lanes), then
    assembled into exact integers with one Horner pass per cell.
    """
    digits: list[np.ndarray] = []
    for i, pi in enumerate(primes):
        p = np.uint64(pi)
        t = residues[i] % p
        for j in range(i):
            inv = np.uint64(pow(primes[j] % pi, pi - 2, pi))
            t = (t + p - digits[j] % p) % p * inv % p
        digits.append(t)
    columns = [d.tolist() for d in digits]
    out = columns[-1]
    for i in range(len(primes) - 2, -1, -1):
        base, m = columns[i], primes[i]
        out = [x + m * y for x, y in zip(base, out)]
    return out


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


# ---------------------------------------------------------------------------
# the fused evaluate-and-read pass

# One factor's values at omega^k for every k in a block of points (an
# int64 arange of at most _BLOCK points), on the plan's lane.
_Evaluator = Callable[[np.ndarray], np.ndarray]


def _blocks(size: int):
    """The points 0..size-1, in int64 aranges of at most ``_BLOCK`` each."""
    for start in range(0, size, _BLOCK):
        yield np.arange(start, min(start + _BLOCK, size), dtype=np.int64)


def _terms_values(
    plan: _TransformPlan, points: np.ndarray, terms: Sequence[tuple[int, int]]
) -> np.ndarray:
    """sum c * omega^(k*e) over (e, c) in ``terms`` (c reduced) for every k in ``points``.

    Each summand is reduced below the prime; on the uint64 lane up to 2^33
    of them add up without wrapping, so the sum is reduced once.
    """
    pm = plan.modulus
    values = np.zeros(len(points), dtype=plan.dtype)
    for e, c in terms:
        g = plan.power_gather(points, e)
        values += g if c == 1 else g * c % pm
    return values % pm


def _product_block(
    evaluators: Sequence[_Evaluator], plan: _TransformPlan, points: np.ndarray
) -> np.ndarray:
    """The product of the factors' values at one block of points."""
    values = evaluators[0](points)
    for evaluate in evaluators[1:]:
        values = values * evaluate(points) % plan.modulus
    return values


def _add_readouts(
    plan: _TransformPlan,
    points: np.ndarray,
    values: np.ndarray,
    targets: Sequence[int],
    sums: list[int],
) -> None:
    """sums[i] += sum_k omega^(-k*targets[i]) * values[k] over one block, mod the prime."""
    prime = plan.prime
    if prime >= _SMALL_PRIME_LIMIT:
        for i, target in enumerate(targets):
            sums[i] = (sums[i] + int(plan.power_gather(points, -target) @ values)) % prime
        return
    # values below 2^31 split into 16-bit halves: every product then stays
    # below 2^47, so a block of up to 2^17 of them sums exactly on uint64
    low = values & np.uint64(0xFFFF)
    high = values >> np.uint64(16)
    for i, target in enumerate(targets):
        g = plan.power_gather(points, -target)
        sums[i] = (sums[i] + int(g @ low) + (int(g @ high) << 16)) % prime


def _read_coefficients(
    oracles: Sequence[EvaluationOracle],
    degree: int,
    bound: int,
    targets: Sequence[int],
) -> list[int]:
    """Exact coefficients at nonnegative ``targets`` of the oracles' product.

    ``degree`` is the product's degree and ``bound`` exceeds every
    coefficient.  The transform size is the smallest power of two above
    the degree.  For each prime and each block of points the factors are
    evaluated and multiplied pointwise, and omega^(-k*t) times each value
    is added into target t's running sum: t's output of the inverse
    transform, so the product's values are never stored.  Targets past
    the degree read 0.
    """
    inside = sorted({t for t in targets if t <= degree})
    if not bound or not inside:
        return [0] * len(targets)
    size = _next_pow2(degree + 1)
    primes = _ntt_primes(size, bound)
    columns = []
    for prime in primes:
        plan = _plan(size, prime)
        evaluators = [_oracle_evaluator(plan, o) for o in oracles]
        sums = [0] * len(inside)
        for points in _blocks(size):
            _add_readouts(plan, points, _product_block(evaluators, plan, points), inside, sums)
        inv_size = pow(size, prime - 2, prime)
        columns.append([s * inv_size % prime for s in sums])
    found = {t: _crt(residues, primes) for t, residues in zip(inside, zip(*columns))}
    return [found.get(t, 0) for t in targets]


# ---------------------------------------------------------------------------
# products of packed factors


def _transform(plan: _TransformPlan, factor: PackedFactor) -> np.ndarray:
    """The factor's values at every power of the plan's root, by one ``_ntt``."""
    indices, coeffs = factor
    values = np.zeros(plan.size, dtype=plan.dtype)
    values[indices] = plan.reduce(coeffs)
    return _ntt(values, plan.prime, plan.root)


def product_coefficients(factors: Sequence[PackedFactor]) -> list[int]:
    """Every coefficient of the product of packed factors, from index 0 to its degree.

    Each factor (see ``pack_terms``) needs at least one term; primes come
    from a bound on the product's coefficients, and the transform size is
    the smallest power of two above the product's degree.  Every factor
    is transformed, the transforms are multiplied pointwise and one
    inverse transform per prime returns all coefficients.
    """
    degree = sum(int(indices.max()) for indices, _coeffs in factors)
    bound = 1  # the product of masses exceeds every coefficient
    for _indices, coeffs in factors:
        bound *= sum(coeffs.tolist())
    length = degree + 1
    if bound == 0:
        return [0] * length
    size = _next_pow2(length)
    primes = _ntt_primes(size, bound)
    residue_arrays = []
    for prime in primes:
        plan = _plan(size, prime)
        spectrum = _transform(plan, factors[0])
        for factor in factors[1:]:
            spectrum = spectrum * _transform(plan, factor) % plan.modulus
        residue_arrays.append(_ntt(spectrum, prime, plan.root, inverse=True)[:length])
    if len(primes) == 1:
        return residue_arrays[0].tolist()
    if all(p < _SMALL_PRIME_LIMIT for p in primes):
        return _crt_vector(residue_arrays, primes)
    columns = [arr.tolist() for arr in residue_arrays]
    return [_crt([col[i] for col in columns], primes) for i in range(length)]


def convolve_exact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact integer convolution of two nonnegative coefficient sequences."""
    ca, cb = _coefficient_array(a), _coefficient_array(b)
    if len(a) == 0 or len(b) == 0:
        return []
    return product_coefficients(
        [(np.arange(len(a), dtype=np.int64), ca), (np.arange(len(b), dtype=np.int64), cb)]
    )


# ---------------------------------------------------------------------------
# evaluation oracles and coefficient extraction without materializing products


@dataclass(frozen=True)
class EvaluationOracle:
    """One factor of a long product, consumable only through evaluations.

    Exactly one of ``packed_terms`` and ``packed_factors`` is set:

    - ``packed_terms``: explicit (packed exponent, coefficient) pairs;
    - ``packed_factors``: a sum of binomial products, one (base, exps)
      pair per candidate set, each worth ``u^base * prod(1 + u^e)``;
      evaluation is linear in the factor count instead of the expanded
      term count.

    ``eval_at`` evaluates at one point; the polyspace path evaluates whole
    blocks of roots of unity at once and is tested against it.
    """

    degree_bound: int
    mass: int
    packed_terms: tuple[tuple[int, int], ...] | None = None
    packed_factors: tuple[tuple[int, tuple[int, ...]], ...] | None = None

    def __post_init__(self):
        if (self.packed_terms is None) == (self.packed_factors is None):
            raise ValueError("exactly one representation must be given")

    def eval_at(self, x: int, prime: int) -> int:
        if self.packed_terms is not None:
            return sum(c * pow(x, e, prime) for e, c in self.packed_terms) % prime
        total = 0
        for base, exps in self.packed_factors:
            acc = pow(x, base, prime)
            for e in exps:
                acc = acc * (1 + pow(x, e, prime)) % prime
            total += acc
        return total % prime


def _binomials_values(
    plan: _TransformPlan,
    points: np.ndarray,
    sets: Sequence[tuple[int, tuple[int, ...]]],
) -> np.ndarray:
    """sum omega^(k*base) * prod(1 + omega^(k*e)) over ``sets``, per k in ``points``."""
    pm = plan.modulus
    values = np.zeros(len(points), dtype=plan.dtype)
    for base, exps in sets:
        part = plan.power_gather(points, base)
        for e in exps:
            part = part * (plan.power_gather(points, e) + 1) % pm
        values += part
    return values % pm


def _oracle_evaluator(plan: _TransformPlan, oracle: EvaluationOracle) -> _Evaluator:
    """Gathers for either representation; polyspace never transforms."""
    if oracle.packed_terms is not None:
        terms = [(e, c % plan.prime) for e, c in oracle.packed_terms]
        return lambda points: _terms_values(plan, points, terms)
    return lambda points: _binomials_values(plan, points, oracle.packed_factors)


def _product_eval_table(
    oracles: Sequence[EvaluationOracle], prime: int, root: int, size: int
) -> np.ndarray:
    """Values of the oracle product at all size-th roots of unity.

    The blocks of the readout pass, concatenated; readouts never build
    this table.
    """
    plan = _plan(size, prime)
    if root != plan.root:
        raise ValueError(f"root {root} is not the plan's primitive root {plan.root}")
    evaluators = [_oracle_evaluator(plan, o) for o in oracles]
    return np.concatenate([_product_block(evaluators, plan, points) for points in _blocks(size)])


def extract_coefficients_polyspace(
    oracles: Sequence[EvaluationOracle], targets: Sequence[int], domain: int
) -> list[int]:
    """Exact coefficients of a product, one per packed target index.

    Every target must lie inside ``domain``, and so must the product's
    degree.  Each requested coefficient is the inverse-transform sum
    d^-1 * sum_k omega^(-k*target) * product(omega^k) at the d-th roots
    of unity (d = smallest power of two above the degree), modulo as many
    primes as the product of masses needs.  The sums run in one blocked
    pass of gathers, so beyond the plan's power table space stays
    O(block) per prime no matter how many terms the product would expand
    to.  Targets past the degree read 0.
    """
    if not oracles:
        raise ValueError("empty product")
    if domain <= 0:
        raise ValueError("domain must be positive")
    for target in targets:
        if not (0 <= target < domain):
            raise ValueError(f"target {target} outside domain {domain}")
    total_degree = sum(o.degree_bound for o in oracles)
    if total_degree >= domain:
        raise ValueError(f"product degree {total_degree} wraps past domain {domain}")
    bound = 1
    for oracle in oracles:
        bound *= oracle.mass
    return _read_coefficients(oracles, total_degree, bound, targets)


def extract_coefficient_polyspace(
    oracles: Sequence[EvaluationOracle], target: int, domain: int
) -> int:
    return extract_coefficients_polyspace(oracles, [target], domain)[0]
