"""Exact solver for partitioning and covering a ground set with k families.

An instance asks whether the ground set V = {1..n} splits into k parts,
one drawn from each family, and in what count or at what minimum weight.
Each candidate set is encoded as a monomial whose exponents add without
interference exactly when sets tile V, so the answer is a single
coefficient of the product of k family polynomials.

A family system ((R_1, r_1), ..., (R_p, r_p)) refines the encoding: the
designated elements r_i never appear alone in a candidate set without a
relative from R_i, which lets four grid invariants over the placement of
:mod:`setpart.encoding` replace the full subset axis over those elements.
What that saves differs by mode: the polyspace sweep shrinks from 2^n to
2^(n-pq) subsets, while the keys the dense fold reaches shrink far less
(domatic k=3 on a seed-5 random cubic 14: 82,315 to 70,181, summed over
the fold's levels).

Each solve makes one encoding pass: every distinct provider is
enumerated once and its sets go straight to a term map (exponent tuple
to multiplicity), with no polynomial objects.  A provider listed more
than once, as drivers do for k interchangeable parts, shares one map,
and the engines pack, expand and restrict each distinct map once.

Dense mode folds the sparse factors: each exponent vector is one int of
bit fields, a guard bit per field prunes every partial product past the
target, and only the target's value is read.  Min-weight folds in the
(min,+) semiring, with no cost axis in the key.  Polyspace mode sums by
inclusion-exclusion over the subsets X of the loose elements, folding
each factor restricted to the terms inside X on the remaining axes; a
system's grid leaves 2^(n-pq) subsets to sweep.  Min-weight there
substitutes a power of two for the cost variable and reads the least
cost off the signed total.  Every value is an exact Python integer.

Partition and cover solves share one core, ``_solve_encoded``.  A cover
is a partition over the subset closure of each family, so it differs
only in its factors: expanded sub-masks in dense mode, binomial counts
of the kept subsets inside X in polyspace mode.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .encoding import MatrixRepresentation
from .polyring import (
    ExactPolynomial,
    extract_coefficients_polyspace,  # noqa: F401  (bench/tracer.py wraps this binding)
    multiply_packed_dense,  # noqa: F401  (bench/tracer.py wraps this binding)
)

__all__ = [
    "EncodingError",
    "FamilyProvider",
    "InfantSystem",
    "InfantSystemError",
    "InfantValidation",
    "PartitionInstance",
    "RowNormalizationError",
    "SearchSpace",
    "SolveAnswer",
    "SolveStats",
    "build_infant_encoding",
    "instance_from_json",
    "search_space_size",
    "solve_cover",
    "solve_simple",
    "solve_with_infants",
    "system_from_json",
    "validate_infant_system",
]

OBJECTIVES = ("decision", "count", "min-weight")
STRUCTURES = ("partition", "cover")

COVER_EXPAND_LIMIT = 20

VARIABLES = ("card", "mask", "col0", "wt", "rsum", "code")


class EncodingError(ValueError):
    """An instance or provider entry cannot be encoded (bad element, oversized set)."""


class InfantSystemError(ValueError):
    """A family system violates its structural properties."""


class RowNormalizationError(RuntimeError):
    """Some candidate set holds a designated element with no row companion.

    Signals an invalid system or a wrong guess upstream; the solve aborts
    rather than silently dropping the set.
    """

    def __init__(self, provider: str, members: frozenset[int], row: int):
        super().__init__(
            f"provider {provider}: set {sorted(members)} occupies only the"
            f" designated cell of row {row}"
        )
        self.provider = provider
        self.members = members
        self.row = row


# ---------------------------------------------------------------------------
# instance model


@dataclass(frozen=True, eq=False)
class FamilyProvider:
    """Enumerable family of candidate sets with optional weights.

    ``enumerate_fn`` yields (frozenset, weight) pairs in a deterministic
    order.  Repeated yields of the same set are allowed and accumulate
    coefficient mass (drivers counting distinct structured objects over
    shared element sets rely on this).
    """

    label: str
    enumerate_fn: Callable[[], Iterable[tuple[frozenset[int], int]]]
    membership: Callable[[frozenset[int]], bool] | None = None

    def entries(self) -> list[tuple[frozenset[int], int]]:
        out = []
        for members, weight in self.enumerate_fn():
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 0:
                raise EncodingError(
                    f"provider {self.label}: weight {weight!r} must be a"
                    " nonnegative integer"
                )
            out.append((frozenset(members), weight))
        return out

    @staticmethod
    def explicit(label: str, sets, weights=None) -> "FamilyProvider":
        frozen = [frozenset(s) for s in sets]
        if weights is None:
            pairs = [(s, 0) for s in frozen]
        else:
            weights = list(weights)
            if len(weights) != len(frozen):
                raise ValueError("weights must align with sets")
            pairs = list(zip(frozen, weights))
        return FamilyProvider(label, lambda: list(pairs))


@dataclass(frozen=True, eq=False)
class PartitionInstance:
    n: int
    k: int
    providers: tuple[FamilyProvider, ...]
    objective: str = "decision"
    structure: str = "partition"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.k < 1:
            raise ValueError("k must be positive")
        if len(self.providers) != self.k:
            raise ValueError("provider count must equal k")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.structure not in STRUCTURES:
            raise ValueError(f"structure must be one of {STRUCTURES}")


@dataclass(frozen=True, eq=False)
class InfantSystem:
    """Disjoint families R_i with designated infants r_i, padded to width q.

    ``padded`` lists each row's cell contents by column: the infant at
    column 0, the remaining family members ascending, then reserve
    elements drawn ascending from outside every family.  ``loose`` is the
    rest of the ground set.
    """

    n: int
    q: int
    families: tuple[tuple[frozenset[int], int], ...]
    padded: tuple[tuple[int, ...], ...]
    loose: frozenset[int]
    rep: MatrixRepresentation

    @property
    def p(self) -> int:
        return len(self.families)

    @staticmethod
    def empty(n: int) -> "InfantSystem":
        return InfantSystem.build(n, (), 0)

    @staticmethod
    def build(n: int, families, q: int) -> "InfantSystem":
        fams = [(frozenset(r), int(infant)) for r, infant in families]
        if not fams:
            q = 0  # no families, no grid: every element is loose
        for problem in _structure_violations(n, q, fams):
            raise InfantSystemError(problem)
        seen = set().union(*(members for members, _infant in fams))
        pool = (e for e in range(1, n + 1) if e not in seen)
        padded = []
        placement: dict[int, tuple[int, int]] = {}
        for i, (members, infant) in enumerate(fams):
            row = [infant] + sorted(members - {infant})
            while len(row) < q:
                row.append(next(pool))
            for j, elem in enumerate(row):
                placement[elem] = (i, j)
            padded.append(tuple(row))
        loose = frozenset(range(1, n + 1)) - set(placement)
        return InfantSystem(
            n=n,
            q=q,
            families=tuple(fams),
            padded=tuple(padded),
            loose=loose,
            rep=MatrixRepresentation(len(fams), q, placement),
        )


def _structure_violations(n: int, q: int, families) -> list[str]:
    """Structural breaks of families over 1..n at width q, in check order."""
    out = []
    if families and q < 2:
        out.append("q must be at least 2 when families exist")
    if len(families) * q > n:
        out.append(f"p*q = {len(families) * q} exceeds n = {n}")
    seen: set[int] = set()
    for idx, (members, infant) in enumerate(families):
        if infant not in members:
            out.append(f"family {idx}: infant {infant} not a member")
        if len(members) > q:
            out.append(f"family {idx}: size {len(members)} exceeds q = {q}")
        if not all(1 <= e <= n for e in members):
            out.append(f"family {idx}: member outside 1..{n}")
        overlap = seen & members
        if overlap:
            out.append(f"family {idx} overlaps an earlier family on {sorted(overlap)}")
        seen |= members
    return out


@dataclass(frozen=True)
class InfantValidation:
    ok: bool
    violations: tuple[str, ...]


def validate_infant_system(inst: PartitionInstance, system: InfantSystem) -> InfantValidation:
    """Check all five system properties, the last by full enumeration.

    Violations are reported as data; nothing raises.  Property 5 demands
    that every enumerated set containing an infant r_i also contains a
    second element of R_i.
    """
    out: list[str] = []
    if system.n != inst.n:
        out.append(f"system ground set {system.n} differs from instance {inst.n}")
    out += _structure_violations(inst.n, system.q, system.families)
    for provider in inst.providers:
        for members, _w in provider.entries():
            for idx, (relatives, infant) in enumerate(system.families):
                if infant in members and len(members & relatives) < 2:
                    out.append(
                        f"provider {provider.label}: set {sorted(members)} holds"
                        f" infant {infant} of family {idx} without a relative"
                    )
    return InfantValidation(not out, tuple(out))


@dataclass(frozen=True)
class SearchSpace:
    code_axis: int
    counters: dict[str, int]
    domain_bound: int


def search_space_size(inst: PartitionInstance, system: InfantSystem) -> SearchSpace:
    """Structural size of the packed coefficient domain.

    The exponential part is 2^|L| for the loose subset axis times
    (2^q-1)^p * 2^q for the grid invariants; the remaining axes are
    polynomially bounded counters.
    """
    p, q = system.p, system.q
    loose = inst.n - p * q
    code_axis = (1 << loose) * ((1 << q) - 1) ** p * (1 << q)
    counters = {
        "card": inst.k * loose + 1,
        "col0": inst.k * p + 1,
        "wt": inst.k * p * q + 1,
        "rsum": inst.k * p * max((1 << q) - 2, 0) + 1,
    }
    bound = math.prod(counters.values(), start=code_axis)
    return SearchSpace(code_axis=code_axis, counters=counters, domain_bound=bound)


# ---------------------------------------------------------------------------
# encoding candidate sets against a system


def _encode_set(
    members: frozenset[int],
    loose_pos: dict[int, int],
    system: InfantSystem,
    base_powers: Sequence[int],
    provider_label: str,
) -> tuple[int, int, int, int, int, int]:
    """Six grid-invariant exponents of one candidate set.

    Row occupancy is tracked as a bitmask per row; a 0/1 row's signed code
    is its high bits minus its column-0 bit, so normalization failures
    surface as a negative value.
    """
    card = 0
    mask = 0
    row_bits = [0] * system.p
    placement = system.rep.placement
    for e in members:
        pos = loose_pos.get(e)
        if pos is not None:
            card += 1
            mask |= 1 << pos
            continue
        cell = placement.get(e)
        if cell is None:
            raise EncodingError(
                f"provider {provider_label}: element {e} outside 1..{system.n}"
            )
        i, j = cell
        row_bits[i] |= 1 << j
    col0 = wt = rsum = code_value = 0
    for i, bits in enumerate(row_bits):
        if bits:
            rc = (bits & ~1) - (bits & 1)
            if rc < 0:
                raise RowNormalizationError(provider_label, members, i)
            col0 += bits & 1
            wt += bits.bit_count()
            rsum += rc
            code_value += rc * base_powers[i]
    return (card, mask, col0, wt, rsum, code_value)


def _target_exponents(system: InfantSystem) -> tuple[int, ...]:
    """Exponents of the full-tiling monomial: every cell and loose element once."""
    p, q = system.p, system.q
    loose = len(system.loose)
    full_row = (1 << q) - 3 if p else 0  # signed code of an all-ones row
    code_value = sum(full_row * ((1 << q) - 1) ** i for i in range(p))
    return (loose, (1 << loose) - 1, p, p * q, p * full_row, code_value)


def _distinct(items: Sequence) -> tuple[list, list[int]]:
    """Distinct objects of ``items`` by identity, and each item's slot among them.

    A provider listed more than once is one object, and so is its term
    map, so either is encoded, packed or restricted once.
    """
    firsts = list({id(item): item for item in items}.values())
    slot = {id(item): i for i, item in enumerate(firsts)}
    return firsts, [slot[id(item)] for item in items]


def _encode_terms(
    inst: PartitionInstance, system: InfantSystem
) -> list[dict[tuple[int, ...], int]]:
    """One term map per provider: exponent tuple -> multiplicity.

    The exponents are those of ``_encode_set``, plus the weight as a
    seventh (cost) exponent in min-weight mode.  A provider listed more
    than once is enumerated and encoded once, and its map is shared.  On
    the plain system a set's exponents are its size and the OR of its
    elements' bits, zero on every grid axis.  A system over another
    ground set raises InfantSystemError.
    """
    if system.n != inst.n:
        raise InfantSystemError(
            f"system ground set {system.n} differs from instance {inst.n}"
        )
    cost_axis = inst.objective == "min-weight"
    plain = not system.p
    if plain:
        bits = {e: 1 << i for i, e in enumerate(sorted(system.loose))}
    else:
        loose_pos = {e: i for i, e in enumerate(sorted(system.loose))}
        base = (1 << system.q) - 1
        base_powers = [base**i for i in range(system.p)]
    providers, which = _distinct(inst.providers)
    maps = []
    for provider in providers:
        terms: dict[tuple[int, ...], int] = {}
        for members, weight in provider.entries():
            if plain:
                try:
                    mask = sum(map(bits.__getitem__, members))
                except KeyError:
                    e = next(e for e in members if e not in bits)
                    raise EncodingError(
                        f"provider {provider.label}: element {e} outside 1..{system.n}"
                    ) from None
                exps = (len(members), mask, 0, 0, 0, 0)
            else:
                exps = _encode_set(members, loose_pos, system, base_powers, provider.label)
            if cost_axis:
                exps += (weight,)
            terms[exps] = terms.get(exps, 0) + 1
        maps.append(terms)
    return [maps[i] for i in which]


def build_infant_encoding(
    inst: PartitionInstance, system: InfantSystem
) -> list[ExactPolynomial]:
    """One six-variable polynomial per provider under the given system.

    Terms accumulate over repeated sets; in min-weight mode a seventh
    cost variable carries each set's weight.  The solves read the same
    term maps from ``_encode_terms`` without building polynomials.
    """
    variables = VARIABLES + ("cost",) if inst.objective == "min-weight" else VARIABLES
    return [ExactPolynomial(variables, dict(t)) for t in _encode_terms(inst, system)]


# ---------------------------------------------------------------------------
# the shared solve core


@dataclass(frozen=True)
class SolveStats:
    space: str
    engine: str
    domain: int
    variables: tuple[str, ...]
    term_counts: tuple[int, ...]
    infant_p: int
    infant_q: int
    radices: tuple[int, ...]
    sweep: int = 0  # loose subsets a polyspace solve sweeps, 2^|L|


@dataclass(frozen=True)
class SolveAnswer:
    feasible: bool
    count: int | None
    min_weight: int | None
    stats: SolveStats


def _key_layout(target: Sequence[int]) -> tuple[list[int], int, int]:
    """Field offsets, bias and guard bits of packed keys within ``target``.

    Coordinate v packs into a field of w = bit_length(target[v]) + 1 bits.
    Partial products carry a bias of 2^(w-1) - 1 - target[v] per field, so
    adding an in-limit term sets a field's top (guard) bit exactly when
    that coordinate passes the target, and no field carries into the next.
    """
    offsets = []
    bias = guard = width = 0
    for limit in target:
        offsets.append(width)
        bits = limit.bit_length()
        bias |= ((1 << bits) - 1 - limit) << width
        guard |= 1 << (width + bits)
        width += bits + 1
    return offsets, bias, guard


def _fold_sparse(
    term_maps: Sequence[dict[tuple[int, ...], int]],
    target: tuple[int, ...],
    min_plus: bool,
) -> int | None:
    """Value at ``target`` of the product of sparse term maps.

    Counting semiring: the coefficient (0 when unreachable).  (min,+)
    semiring: a term's coordinate past the target's is its cost, each
    factor keeps its cheapest cost per exponent vector, and the result is
    the least cost summed over one term per factor (None when
    unreachable).

    Each exponent vector packs into one int laid out by ``_key_layout``;
    products that pass the target are pruned by their guard bits, which
    is sound because exponents only grow, and a term past the target on
    its own is dropped while packing.
    """
    offsets, bias, guard = _key_layout(target)
    maps, which = _distinct(term_maps)
    factors = []
    for terms in maps:
        packed: dict[int, int] = {}
        for exps, value in terms.items():
            if any(map(operator.gt, exps, target)):
                continue
            key = sum(map(operator.lshift, exps, offsets))
            if not min_plus:
                packed[key] = packed.get(key, 0) + value
            elif exps[-1] < packed.get(key, exps[-1] + 1):
                packed[key] = exps[-1]
        factors.append(packed)
    goal = bias + sum(t << o for t, o in zip(target, offsets))
    return _fold_keys([factors[i] for i in which], bias, guard, goal, min_plus)


def _fold_keys(
    factors: Sequence[dict[int, int]], bias: int, guard: int, goal: int, min_plus: bool
) -> int | None:
    """``_fold_sparse`` on factors already packed to keys.

    The last factor is joined by lookup, since only the target is read.
    """
    acc = {bias: 0 if min_plus else 1}
    for factor in factors[:-1]:
        items = list(factor.items())
        nxt: dict[int, int] = {}
        if min_plus:
            for ea, wa in acc.items():
                for eb, wb in items:
                    e = ea + eb
                    if not e & guard:
                        w = wa + wb
                        if w < nxt.get(e, w + 1):
                            nxt[e] = w
        else:
            for ea, ca in acc.items():
                for eb, cb in items:
                    e = ea + eb
                    if not e & guard:
                        nxt[e] = nxt.get(e, 0) + ca * cb
        acc = nxt
    last = factors[-1]
    # every accumulated key is within the target, so goal - e packs t - a
    if min_plus:
        costs = [w + last[goal - e] for e, w in acc.items() if goal - e in last]
        return min(costs, default=None)
    return sum(c * last.get(goal - e, 0) for e, c in acc.items())


def _sweep_loose(
    term_maps: Sequence[dict[tuple[int, ...], int]],
    target: tuple[int, ...],
    min_weight: bool,
    cover: bool,
) -> int | None:
    """Value at ``target`` by inclusion-exclusion over the loose mask.

    The count is the sum over X of the loose elements L of
    (-1)^|L - X| * fold(F_1(X), ..., F_k(X)), where F_i(X) keeps factor
    i's terms whose loose mask lies inside X and drops the mask.  A tuple
    of terms is counted at every X holding the union of its masks, so the
    alternating sum keeps the tuples whose masks cover L, and with cards
    summing to |L| those are the ones whose masks tile L.  The grid axes
    are folded as they are.  A cover's set S stands for its subset
    closure, so in F_i(X) it has coefficient C(|S & X|, j) at card j.

    Min-weight substitutes 2^(B*cost) for the cost variable, with B bits
    past the largest count any cost can have (the product of the factor
    masses); the signed total is then the cost polynomial at 2^B, and the
    least cost is its lowest nonzero B-bit digit (None when it is 0).
    Exact integers throughout: no primes, transforms or tables.
    """
    loose, full = target[0], target[1]
    folded = (loose,) + target[2:6]  # the target without its mask
    offsets, bias, guard = _key_layout(folded)
    goal = bias + sum(t << o for t, o in zip(folded, offsets))
    maps, which = _distinct(term_maps)
    digit = 0
    if min_weight:
        masses = [
            sum(m << (exps[0] if cover else 0) for exps, m in terms.items())
            for terms in maps
        ]
        digit = math.prod(masses[i] for i in which).bit_length() + 1
    # factor i as (mask, key, coefficient); card is the field at offset 0,
    # which a cover's key leaves at 0 for the binomial to fill
    limits, grid_offsets = folded[1:], offsets[1:]
    factors = []
    for terms in maps:
        merged: dict[tuple[int, int], int] = {}
        for exps, m in terms.items():
            grid = exps[2:6]
            if any(map(operator.gt, grid, limits)):
                continue
            key = sum(map(operator.lshift, grid, grid_offsets))
            if not cover:
                key += exps[0]
            if min_weight:
                m <<= digit * exps[6]
            merged[exps[1], key] = merged.get((exps[1], key), 0) + m
        factors.append([(mask, key, m) for (mask, key), m in merged.items()])
    binomials = [[math.comb(c, j) for j in range(c + 1)] for c in range(loose + 1)]

    total = 0
    for chosen in range(full + 1):
        outside = full ^ chosen
        restricted = []
        for entries in factors:
            keyed: dict[int, int] = {}
            if cover:
                for mask, key, m in entries:
                    for j, ways in enumerate(binomials[(mask & chosen).bit_count()]):
                        keyed[key + j] = keyed.get(key + j, 0) + m * ways
            else:
                for mask, key, m in entries:
                    if not mask & outside:
                        keyed[key] = keyed.get(key, 0) + m
            if not keyed:
                break
            restricted.append(keyed)
        else:
            value = _fold_keys([restricted[i] for i in which], bias, guard, goal, False)
            total += -value if outside.bit_count() & 1 else value
    if not min_weight:
        return total
    if not total:
        return None
    return ((total & -total).bit_length() - 1) // digit


def _answer(objective: str, value: int | None, stats: SolveStats) -> SolveAnswer:
    """Shape one readout (a count, or a least weight or None) as the answer."""
    if objective == "min-weight":
        return SolveAnswer(value is not None, None, value, stats)
    return SolveAnswer(value > 0, value if objective == "count" else None, None, stats)


def _solve_encoded(
    inst: PartitionInstance,
    system: InfantSystem,
    term_maps: list[dict[tuple[int, ...], int]],
    space: str,
) -> SolveAnswer:
    """The one solve core: radices and domain, stats, engine choice, readout.

    Dense mode folds the term maps as given (a cover's already expanded to
    its subset closure); polyspace sweeps the loose subsets X by
    inclusion-exclusion, folding each restriction in the counting
    semiring, and reads a cover's sets as their closures without
    expanding them.
    """
    if space not in ("dense", "polyspace"):
        raise ValueError("space must be 'dense' or 'polyspace'")
    min_weight = inst.objective == "min-weight"
    variables = VARIABLES + ("cost",) if min_weight else VARIABLES
    target = _target_exponents(system)

    maps, which = _distinct(term_maps)
    tops = [tuple(map(max, zip(*terms))) for terms in maps]
    maxima = [0] * len(variables)
    for i in which:
        for v, top in enumerate(tops[i]):
            maxima[v] += top
    radices = tuple(m + 1 for m in maxima)

    # a target past some radix has coefficient zero in every mode
    if not all(term_maps) or not all(t < r for t, r in zip(target, radices)):
        engine = "empty"
    elif space == "polyspace":
        engine = "polyspace"
    else:
        engine = "sparse-fold"
    stats = SolveStats(
        space=space,
        engine=engine,
        domain=math.prod(radices),
        variables=variables,
        term_counts=tuple(len(t) for t in term_maps),
        infant_p=system.p,
        infant_q=system.q,
        radices=radices,
        sweep=1 << target[0] if engine == "polyspace" else 0,
    )

    if engine == "empty":
        value = None if min_weight else 0
    elif engine == "sparse-fold":
        value = _fold_sparse(term_maps, target, min_weight)
    else:
        value = _sweep_loose(term_maps, target, min_weight, inst.structure == "cover")
    return _answer(inst.objective, value, stats)


# ---------------------------------------------------------------------------
# public solve entry points


def solve_with_infants(
    inst: PartitionInstance, system: InfantSystem, space: str = "dense"
) -> SolveAnswer:
    """Partition solve under a family system; equals solve_simple's answer.

    Raises RowNormalizationError when some enumerated set holds an infant
    with no companion in its row, which signals an invalid system or a
    wrong guess upstream, and InfantSystemError when the system's ground
    set is not the instance's.
    """
    if inst.structure != "partition":
        raise ValueError("instance structure must be 'partition'")
    return _solve_encoded(inst, system, _encode_terms(inst, system), space)


def solve_simple(inst: PartitionInstance, space: str = "dense") -> SolveAnswer:
    """Partition solve over the plain subset encoding (no family system)."""
    return solve_with_infants(inst, InfantSystem.empty(inst.n), space)


def solve_cover(inst: PartitionInstance, space: str = "dense") -> SolveAnswer:
    """Covering solve: parts may shed elements, so unions may overlap.

    A cover is a partition over the subset closure of each family, so it
    shares the partition solve core and only changes the factors: dense
    mode expands each set's loose mask into its sub-masks (capped at
    ``COVER_EXPAND_LIMIT`` members per set), polyspace mode counts the
    kept subsets inside each swept X by binomials, without expanding.
    The closure has the same exponent maxima as its sets, so radices and
    domain do not change.
    Counts weigh each (set, kept-subset) choice separately.  Each
    distinct provider is encoded, and in dense mode expanded, once.
    """
    if inst.structure != "cover":
        raise ValueError("instance structure must be 'cover'")
    system = InfantSystem.empty(inst.n)
    term_maps = _encode_terms(inst, system)
    if space == "polyspace":
        return _solve_encoded(inst, system, term_maps, space)
    closures: dict[int, dict[tuple[int, ...], int]] = {}  # a shared map expands once
    for provider, terms in zip(inst.providers, term_maps):
        if id(terms) in closures:
            continue
        closure = closures[id(terms)] = {}
        for (card, mask, *rest), multiplicity in terms.items():
            if card > COVER_EXPAND_LIMIT:
                raise EncodingError(
                    f"provider {provider.label}: set of {card} members"
                    f" exceeds the dense expansion limit {COVER_EXPAND_LIMIT}"
                )
            sub = mask
            while True:
                key = (sub.bit_count(), sub, *rest)
                closure[key] = closure.get(key, 0) + multiplicity
                if not sub:
                    break
                sub = (sub - 1) & mask
    return _solve_encoded(inst, system, [closures[id(t)] for t in term_maps], space)


# ---------------------------------------------------------------------------
# JSON interchange


def _json_int(value, what: str, error: type[ValueError]) -> int:
    """A JSON integer as is; floats, bools, strings and null are refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{what} must be an integer, not {json.dumps(value)}")
    return value


def _json_set(members, what: str, error: type[ValueError]) -> frozenset[int]:
    """A JSON array of distinct integers as a set; a repeated element is refused."""
    if not isinstance(members, list):
        raise error(f"{what}: each entry needs a set array")
    out: set[int] = set()
    for e in members:
        if _json_int(e, f"{what}: element", error) in out:
            raise error(f"{what}: element {e} appears more than once")
        out.add(e)
    return frozenset(out)


def instance_from_json(data) -> PartitionInstance:
    """Instance from the explicit JSON form.

    Expected fields: n, k, families (k arrays of {"set": [...], "weight"?:
    int}), optional structure and objective strings.  Numbers must be
    JSON integers.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise EncodingError("instance JSON must be an object")
    try:
        n = _json_int(data["n"], "n", EncodingError)
        k = _json_int(data["k"], "k", EncodingError)
        families = data["families"]
    except KeyError as exc:
        raise EncodingError(f"instance JSON missing field {exc}") from None
    structure = data.get("structure", "partition")
    objective = data.get("objective", "decision")
    if not isinstance(families, list) or len(families) != k:
        raise EncodingError("families must be a list of k arrays")
    providers = []
    for i, fam in enumerate(families):
        sets = []
        weights = []
        if not isinstance(fam, list):
            raise EncodingError(f"family {i + 1} must be an array")
        for item in fam:
            if isinstance(item, dict):
                members = item.get("set")
                weight = item.get("weight", 0)
            else:
                members, weight = item, 0
            sets.append(_json_set(members, f"family {i + 1}", EncodingError))
            weights.append(_json_int(weight, f"family {i + 1}: weight", EncodingError))
        providers.append(FamilyProvider.explicit(f"family-{i + 1}", sets, weights))
    try:
        return PartitionInstance(n, k, tuple(providers), objective, structure)
    except ValueError as exc:
        raise EncodingError(str(exc)) from None


def system_from_json(data, n: int) -> InfantSystem:
    """Family system from JSON: {"q": int, "families": [{"set", "infant"}]}."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    try:
        q = _json_int(data["q"], "q", InfantSystemError)
        fams = data["families"]
    except (KeyError, TypeError) as exc:
        raise InfantSystemError(f"system JSON missing field: {exc}") from None
    if not isinstance(fams, list):
        raise InfantSystemError("system families must be an array")
    pairs = []
    for i, fam in enumerate(fams):
        what = f"system family {i}"
        try:
            members, infant = fam["set"], fam["infant"]
        except (KeyError, TypeError) as exc:
            raise InfantSystemError(f"{what}: {exc}") from None
        infant = _json_int(infant, f"{what}: infant", InfantSystemError)
        pairs.append((_json_set(members, what, InfantSystemError), infant))
    return InfantSystem.build(n, pairs, q)
