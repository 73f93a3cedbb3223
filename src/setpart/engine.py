"""Exact solver for partitioning and covering a ground set with k families.

An instance asks whether the ground set V = {1..n} splits into k parts,
one drawn from each family, and in what count or at what minimum weight.
Each candidate set is encoded as a monomial whose exponents add without
interference exactly when sets tile V, so the answer is a single
coefficient of the product of k family polynomials.

A family system ((R_1, r_1), ..., (R_p, r_p)) refines the encoding: the
designated elements r_i never appear alone in a candidate set without a
relative from R_i, which lets the grid invariants of
:mod:`setpart.encoding` replace the full subset axis over those elements
and shrinks the packed domain from 2^n toward 2^(n-pq) * (2^q-1)^p * 2^q.

Dense mode either reads only the target coefficients of the product of
the packed factors in one blocked pass over the roots of unity (under a
cell budget; factors of a few terms are evaluated by gathers, heavier
ones transformed once), or folds the sparse factors above it: each
exponent vector is one int of bit fields, and a guard bit per field
prunes every partial product past the target.  Min-weight reads one
coefficient per weight in the transforms but folds in the (min,+)
semiring, with no cost axis in the key.  Polyspace mode reads the target
coefficients like dense mode from evaluation oracles of the factors,
never transforming or materializing anything of product size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .encoding import MatrixRepresentation, RadixVector
from .polyring import (
    DENSE_BUDGET_CELLS,
    EvaluationOracle,
    ExactPolynomial,
    extract_coefficients_polyspace,
    multiply_packed_dense,  # noqa: F401  (bench/tracer.py wraps this binding)
    pack_terms,
    product_coefficients,
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
    """An instance or provider entry cannot be encoded (bad element, budget)."""


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
        for item in self.enumerate_fn():
            members, weight = item
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
            pairs = list(zip(frozen, list(weights)))
            if len(pairs) != len(frozen):
                raise ValueError("weights must align with sets")
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
        return InfantSystem(
            n=n,
            q=0,
            families=(),
            padded=(),
            loose=frozenset(range(1, n + 1)),
            rep=MatrixRepresentation(0, 0, {}),
        )

    @staticmethod
    def build(n: int, families, q: int) -> "InfantSystem":
        fams = [(frozenset(r), int(infant)) for r, infant in families]
        if not fams:
            return InfantSystem.empty(n)
        p = len(fams)
        if q < 2:
            raise InfantSystemError("q must be at least 2 when families exist")
        if p * q > n:
            raise InfantSystemError(f"p*q = {p * q} exceeds n = {n}")
        seen: set[int] = set()
        for idx, (members, infant) in enumerate(fams):
            if infant not in members:
                raise InfantSystemError(f"family {idx}: infant {infant} not a member")
            if len(members) > q:
                raise InfantSystemError(f"family {idx}: size {len(members)} exceeds q")
            if not all(1 <= e <= n for e in members):
                raise InfantSystemError(f"family {idx}: member outside 1..{n}")
            if seen & members:
                raise InfantSystemError(
                    f"family {idx} overlaps an earlier family on {sorted(seen & members)}"
                )
            seen |= members
        pool = iter(sorted(set(range(1, n + 1)) - seen))
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
            rep=MatrixRepresentation(p, q, placement),
        )


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
    if system.p * system.q > inst.n:
        out.append(f"p*q = {system.p * system.q} exceeds n = {inst.n}")
    seen: set[int] = set()
    for idx, (members, infant) in enumerate(system.families):
        if infant not in members:
            out.append(f"family {idx}: infant {infant} not a member")
        if len(members) > system.q:
            out.append(f"family {idx}: size exceeds q = {system.q}")
        overlap = seen & members
        if overlap:
            out.append(f"family {idx} overlaps an earlier family on {sorted(overlap)}")
        seen |= members
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
    bound = code_axis
    for v in counters.values():
        bound *= v
    return SearchSpace(code_axis=code_axis, counters=counters, domain_bound=bound)


# ---------------------------------------------------------------------------
# encoding candidate sets against a system


def _loose_index(system: InfantSystem) -> dict[int, int]:
    return {e: i for i, e in enumerate(sorted(system.loose))}


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


def _target_exponents(system: InfantSystem, base_powers: Sequence[int]) -> tuple[int, ...]:
    """Exponents of the full-tiling monomial: every cell and loose element once."""
    p, q = system.p, system.q
    loose = len(system.loose)
    full_row = (1 << q) - 3 if p else 0  # signed code of an all-ones row
    code_value = sum(full_row * base_powers[i] for i in range(p))
    return (loose, (1 << loose) - 1, p, p * q, p * full_row, code_value)


def build_infant_encoding(
    inst: PartitionInstance, system: InfantSystem
) -> list[ExactPolynomial]:
    """One six-variable polynomial per provider under the given system.

    Terms accumulate over repeated sets; in min-weight mode a seventh
    cost variable carries each set's weight.
    """
    cost_axis = inst.objective == "min-weight"
    variables = VARIABLES + ("cost",) if cost_axis else VARIABLES
    loose_pos = _loose_index(system)
    base = (1 << system.q) - 1
    base_powers = [base**i for i in range(system.p)]
    polys = []
    for provider in inst.providers:
        terms: dict[tuple[int, ...], int] = {}
        for members, weight in provider.entries():
            exps = _encode_set(members, loose_pos, system, base_powers, provider.label)
            if cost_axis:
                exps = exps + (weight,)
            terms[exps] = terms.get(exps, 0) + 1
        polys.append(ExactPolynomial(variables, terms))
    return polys


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


@dataclass(frozen=True)
class SolveAnswer:
    feasible: bool
    count: int | None
    min_weight: int | None
    stats: SolveStats


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

    Each exponent vector packs into one int, coordinate v in a field of
    w = bit_length(target[v]) + 1 bits.  Partial products carry a bias of
    2^(w-1) - 1 - target[v] per field, so adding an in-limit term sets a
    field's top (guard) bit exactly when that coordinate passes the
    target, and no field carries into the next.  Such products are
    pruned, which is sound because exponents only grow; a term past the
    target on its own is dropped while packing.  The last factor is
    joined by lookup, since only the target is read.
    """
    offsets = []
    bias = guard = width = 0
    for limit in target:
        offsets.append(width)
        bits = limit.bit_length()
        bias |= ((1 << bits) - 1 - limit) << width
        guard |= 1 << (width + bits)
        width += bits + 1
    factors = []
    for terms in term_maps:
        packed: dict[int, int] = {}
        for exps, value in terms.items():
            if any(e > t for e, t in zip(exps, target)):
                continue
            key = sum(e << o for e, o in zip(exps, offsets))
            if not min_plus:
                packed[key] = packed.get(key, 0) + value
            elif exps[-1] < packed.get(key, exps[-1] + 1):
                packed[key] = exps[-1]
        factors.append(packed)

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
    goal = bias + sum(t << o for t, o in zip(target, offsets))
    last = factors[-1]
    # every accumulated key is within the target, so goal - e packs t - a
    if min_plus:
        costs = [w + last[goal - e] for e, w in acc.items() if goal - e in last]
        return min(costs, default=None)
    return sum(c * last.get(goal - e, 0) for e, c in acc.items())


def _interpret(
    objective: str,
    coefficient_by_weight: Sequence[tuple[int, int]],
    stats: SolveStats,
) -> SolveAnswer:
    """Fold (weight, coefficient) readouts into the requested answer shape."""
    if objective == "min-weight":
        for w, coeff in coefficient_by_weight:
            if coeff:
                return SolveAnswer(True, None, w, stats)
        return SolveAnswer(False, None, None, stats)
    total = sum(c for _w, c in coefficient_by_weight)
    if objective == "count":
        return SolveAnswer(total > 0, total, None, stats)
    return SolveAnswer(total > 0, None, None, stats)


def _solve_encoded(
    inst: PartitionInstance,
    system: InfantSystem,
    term_maps: list[dict[tuple[int, ...], int]],
    space: str,
    budget_cells: int,
) -> SolveAnswer:
    if space not in ("dense", "polyspace"):
        raise ValueError("space must be 'dense' or 'polyspace'")
    cost_axis = inst.objective == "min-weight"
    variables = VARIABLES + ("cost",) if cost_axis else VARIABLES
    arity = len(variables)
    base = (1 << system.q) - 1
    base_powers = [base**i for i in range(system.p)]
    target = _target_exponents(system, base_powers)

    maxima = [0] * arity
    for terms in term_maps:
        if terms:
            per = [max(es) for es in zip(*terms)]
        else:
            per = [0] * arity
        for v in range(arity):
            maxima[v] += per[v]
    radices = tuple(m + 1 for m in maxima)
    domain = 1
    for r in radices:
        domain *= r

    def stats_for(engine: str) -> SolveStats:
        return SolveStats(
            space=space,
            engine=engine,
            domain=domain,
            variables=variables,
            term_counts=tuple(len(t) for t in term_maps),
            infant_p=system.p,
            infant_q=system.q,
            radices=radices,
        )

    # a target past some radix has coefficient zero in every mode
    reachable = all(t < r for t, r in zip(target, radices[:6]))
    if not all(term_maps) or not reachable:
        return _interpret(inst.objective, [], stats_for("empty"))

    if space == "dense" and domain > budget_cells:
        found = _fold_sparse(term_maps, target, cost_axis)
        if not cost_axis:
            readouts = [(0, found)]
        else:
            readouts = [] if found is None else [(found, 1)]
        return _interpret(inst.objective, readouts, stats_for("sparse-fold"))

    # the transforms read one coefficient per weight the factors can sum to
    probes = list(range(maxima[6] + 1)) if cost_axis else [0]
    radix = RadixVector(variables, radices)
    full_targets = [target + (w,) for w in probes] if cost_axis else [target]

    if space == "polyspace":
        oracles = []
        for terms in term_maps:
            indices, coeffs = pack_terms(terms, radix)
            oracles.append(
                EvaluationOracle(
                    degree_bound=int(indices.max()),
                    mass=sum(coeffs.tolist()),
                    packed_terms=tuple(sorted(zip(indices.tolist(), coeffs.tolist()))),
                )
            )
        coeffs = extract_coefficients_polyspace(
            oracles, [radix.pack(t) for t in full_targets], domain
        )
        readouts = list(zip(probes, coeffs))
        return _interpret(inst.objective, readouts, stats_for("polyspace"))

    coeffs = product_coefficients(
        [pack_terms(terms, radix) for terms in term_maps],
        [radix.pack(t) for t in full_targets],
    )
    readouts = list(zip(probes, coeffs))
    return _interpret(inst.objective, readouts, stats_for("packed-dense"))


# ---------------------------------------------------------------------------
# public solve entry points


def solve_with_infants(
    inst: PartitionInstance,
    system: InfantSystem,
    space: str = "dense",
    budget_cells: int = DENSE_BUDGET_CELLS,
) -> SolveAnswer:
    """Partition solve under a family system; equals solve_simple's answer.

    Raises RowNormalizationError when some enumerated set holds an infant
    with no companion in its row, which signals an invalid system or a
    wrong guess upstream.
    """
    if inst.structure != "partition":
        raise ValueError("instance structure must be 'partition'")
    term_maps = [dict(poly.terms) for poly in build_infant_encoding(inst, system)]
    return _solve_encoded(inst, system, term_maps, space, budget_cells)


def solve_simple(
    inst: PartitionInstance,
    space: str = "dense",
    budget_cells: int = DENSE_BUDGET_CELLS,
) -> SolveAnswer:
    """Partition solve over the plain subset encoding (no family system)."""
    return solve_with_infants(inst, InfantSystem.empty(inst.n), space, budget_cells)


def solve_cover(
    inst: PartitionInstance,
    space: str = "dense",
    budget_cells: int = DENSE_BUDGET_CELLS,
    expand_limit: int = COVER_EXPAND_LIMIT,
) -> SolveAnswer:
    """Covering solve: parts may shed elements, so unions may overlap.

    Each candidate set stands in for all of its subsets; dense mode
    expands those subsets outright (capped at ``expand_limit`` members
    per set), polyspace mode evaluates the binomial product form without
    expanding.  Counts weigh each (set, kept-subset) choice separately.
    """
    if inst.structure != "cover":
        raise ValueError("instance structure must be 'cover'")
    system = InfantSystem.empty(inst.n)
    cost_axis = inst.objective == "min-weight"
    variables = VARIABLES + ("cost",) if cost_axis else VARIABLES
    arity = len(variables)
    loose_pos = _loose_index(system)

    entry_lists = []
    for provider in inst.providers:
        entries = provider.entries()
        for members, _w in entries:
            for e in members:
                if e not in loose_pos:
                    raise EncodingError(
                        f"provider {provider.label}: element {e} outside 1..{inst.n}"
                    )
        entry_lists.append(entries)

    if space == "polyspace":
        maxima = [0] * arity
        per_provider_factors = []
        for entries in entry_lists:
            per = [0] * arity
            factor_sets = []
            for members, weight in entries:
                exps = [0] * arity
                exps[0] = len(members)
                exps[1] = sum(1 << loose_pos[e] for e in members)
                if cost_axis:
                    exps[6] = weight
                factor_sets.append((members, weight))
                for v in range(arity):
                    per[v] = max(per[v], exps[v])
            per_provider_factors.append(factor_sets)
            for v in range(arity):
                maxima[v] += per[v]
        radices = tuple(m + 1 for m in maxima)
        domain = 1
        for r in radices:
            domain *= r
        target = _target_exponents(system, [])
        stats = SolveStats(
            space=space,
            engine="polyspace",
            domain=domain,
            variables=variables,
            term_counts=tuple(len(e) for e in entry_lists),
            infant_p=0,
            infant_q=0,
            radices=radices,
        )
        if not all(entry_lists) or not all(t < r for t, r in zip(target, radices[:6])):
            return _interpret(inst.objective, [], stats)
        radix = RadixVector(variables, radices)
        oracles = []
        for factor_sets in per_provider_factors:
            pairs = []
            degree = 0
            mass = 0
            for members, weight in factor_sets:
                base_exp = [0] * arity
                if cost_axis:
                    base_exp[6] = weight
                base_packed = radix.pack(tuple(base_exp))
                element_exps = tuple(
                    radix.pack(
                        tuple(
                            [1, 1 << loose_pos[e]] + [0] * (arity - 2)
                        )
                    )
                    for e in sorted(members)
                )
                pairs.append((base_packed, element_exps))
                degree = max(degree, base_packed + sum(element_exps))
                mass += 1 << len(element_exps)
            oracles.append(
                EvaluationOracle(
                    degree_bound=degree, mass=mass, packed_factors=tuple(pairs)
                )
            )
        probes = list(range(maxima[6] + 1)) if cost_axis else [0]
        full_targets = [target + (w,) for w in probes] if cost_axis else [target]
        coeffs = extract_coefficients_polyspace(
            oracles, [radix.pack(t) for t in full_targets], domain
        )
        return _interpret(inst.objective, list(zip(probes, coeffs)), stats)

    # dense: expand each set into its subset terms
    term_maps = []
    for provider, entries in zip(inst.providers, entry_lists):
        terms: dict[tuple[int, ...], int] = {}
        for members, weight in entries:
            if len(members) > expand_limit:
                raise EncodingError(
                    f"provider {provider.label}: set of {len(members)} members"
                    f" exceeds the dense expansion limit {expand_limit}"
                )
            ordered = sorted(members)
            for pick in range(1 << len(ordered)):
                kept = [ordered[i] for i in range(len(ordered)) if pick >> i & 1]
                exps = [0] * arity
                exps[0] = len(kept)
                exps[1] = sum(1 << loose_pos[e] for e in kept)
                if cost_axis:
                    exps[6] = weight
                key = tuple(exps)
                terms[key] = terms.get(key, 0) + 1
        term_maps.append(terms)
    return _solve_encoded(inst, system, term_maps, space, budget_cells)


# ---------------------------------------------------------------------------
# JSON interchange


def instance_from_json(data) -> PartitionInstance:
    """Instance from the explicit JSON form.

    Expected fields: n, k, families (k arrays of {"set": [...], "weight"?:
    int}), optional structure and objective strings.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise EncodingError("instance JSON must be an object")
    try:
        n = int(data["n"])
        k = int(data["k"])
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
            if not isinstance(members, list):
                raise EncodingError(f"family {i + 1}: each entry needs a set array")
            sets.append(frozenset(int(e) for e in members))
            weights.append(int(weight))
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
        q = int(data["q"])
        fams = data["families"]
    except (KeyError, TypeError) as exc:
        raise InfantSystemError(f"system JSON missing field: {exc}") from None
    pairs = []
    for i, fam in enumerate(fams):
        try:
            pairs.append((frozenset(int(e) for e in fam["set"]), int(fam["infant"])))
        except (KeyError, TypeError) as exc:
            raise InfantSystemError(f"system family {i}: {exc}") from None
    return InfantSystem.build(n, pairs, q)
