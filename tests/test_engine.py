"""Partition/cover solver core: encodings, family systems, engine parity."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import setpart.engine
from setpart.encoding import (
    MatrixRepresentation,
    characteristic_matrix,
    code,
    colweight,
    is_row_normalized,
    rowsum,
    weight,
)
from setpart.engine import (
    COVER_EXPAND_LIMIT,
    VARIABLES,
    EncodingError,
    FamilyProvider,
    InfantSystem,
    InfantSystemError,
    PartitionInstance,
    RowNormalizationError,
    build_infant_encoding,
    instance_from_json,
    search_space_size,
    solve_cover,
    solve_simple,
    solve_with_infants,
    system_from_json,
    validate_infant_system,
    _fold_sparse,
)
from setpart.oracle import brute_partition
from setpart.polyring import multiply


def explicit_instance(n, k, families, objective="decision", structure="partition"):
    providers = tuple(
        FamilyProvider.explicit(f"family-{i + 1}", sets, weights)
        for i, (sets, weights) in enumerate(families)
    )
    return PartitionInstance(n, k, providers, objective, structure)


def plain(n, k, *set_lists, objective="decision", structure="partition"):
    return explicit_instance(
        n, k, [(sets, None) for sets in set_lists],
        objective=objective, structure=structure,
    )


def random_instance(rng, objective="count", structure="partition", max_n=8):
    n = rng.randint(1, max_n)
    k = rng.randint(1, 3)
    families = []
    for _ in range(k):
        sets = []
        weights = []
        for _ in range(rng.randint(1, 10)):
            size = rng.randint(0, n)
            sets.append(frozenset(rng.sample(range(1, n + 1), size)))
            weights.append(rng.randint(0, 6))
        families.append((sets, weights))
    return explicit_instance(n, k, families, objective, structure)


# ---------------------------------------------------------------------------
# providers and instances


def test_provider_rejects_bad_weights():
    bad = FamilyProvider("w", lambda: [(frozenset({1}), -1)])
    with pytest.raises(EncodingError, match="nonnegative"):
        bad.entries()
    flag = FamilyProvider("w", lambda: [(frozenset({1}), True)])
    with pytest.raises(EncodingError, match="nonnegative"):
        flag.entries()


def test_provider_repeats_accumulate():
    prov = FamilyProvider.explicit("f", [{1}, {1}, {2}])
    inst = PartitionInstance(2, 2, (prov, FamilyProvider.explicit("g", [{2}, {1}])), "count", "partition")
    answer = solve_simple(inst)
    # {1}+{2} twice from the repeated yield, {2}+{1} once
    assert answer.count == 3


def test_explicit_provider_rejects_misaligned_weights():
    with pytest.raises(ValueError, match="align"):
        FamilyProvider.explicit("x", [{1}], [3, 4, 5])
    with pytest.raises(ValueError, match="align"):
        FamilyProvider.explicit("x", [{1}, {2}], [3])
    assert FamilyProvider.explicit("x", [{1}], [3]).entries() == [(frozenset({1}), 3)]


def test_instance_validation():
    prov = FamilyProvider.explicit("f", [{1}])
    with pytest.raises(ValueError, match="nonnegative"):
        PartitionInstance(-1, 1, (prov,), "decision", "partition")
    with pytest.raises(ValueError, match="positive"):
        PartitionInstance(2, 0, (), "decision", "partition")
    with pytest.raises(ValueError, match="provider count"):
        PartitionInstance(2, 2, (prov,), "decision", "partition")
    with pytest.raises(ValueError, match="objective"):
        PartitionInstance(1, 1, (prov,), "maximize", "partition")
    with pytest.raises(ValueError, match="structure"):
        PartitionInstance(1, 1, (prov,), "decision", "ring")


# ---------------------------------------------------------------------------
# family systems


def test_empty_system_layout():
    sys0 = InfantSystem.empty(5)
    assert sys0.p == 0 and sys0.q == 0
    assert sys0.loose == frozenset({1, 2, 3, 4, 5})


def test_build_pads_rows_from_reserve():
    system = InfantSystem.build(6, [({2, 4}, 4)], 3)
    assert system.padded == ((4, 2, 1),)
    assert system.loose == frozenset({3, 5, 6})
    assert system.rep.placement[4] == (0, 0)
    assert system.rep.placement[2] == (0, 1)
    assert system.rep.placement[1] == (0, 2)


def test_build_validation_errors():
    with pytest.raises(InfantSystemError, match="at least 2"):
        InfantSystem.build(4, [({1}, 1)], 1)
    with pytest.raises(InfantSystemError, match="exceeds n"):
        InfantSystem.build(3, [({1, 2}, 1), ({3}, 3)], 2)
    with pytest.raises(InfantSystemError, match="not a member"):
        InfantSystem.build(4, [({1, 2}, 3)], 2)
    with pytest.raises(InfantSystemError, match="exceeds q"):
        InfantSystem.build(8, [({1, 2, 3}, 1)], 2)
    with pytest.raises(InfantSystemError, match="outside"):
        InfantSystem.build(4, [({1, 9}, 1)], 2)
    with pytest.raises(InfantSystemError, match="overlaps"):
        InfantSystem.build(8, [({1, 2}, 1), ({2, 3}, 2)], 2)


def test_validator_accepts_matching_system():
    inst = plain(6, 3, [{1, 2}, {3, 4}, {5, 6}], [{1, 2}, {5, 6}], [{3, 4}])
    system = InfantSystem.build(6, [({1, 2}, 1), ({3, 4}, 3)], 2)
    report = validate_infant_system(inst, system)
    assert report.ok and report.violations == ()


def test_validator_reports_missing_relative():
    inst = plain(4, 2, [{1, 2}, {1, 4}], [{3, 4}])
    system = InfantSystem.build(4, [({1, 2}, 1)], 2)
    report = validate_infant_system(inst, system)
    assert not report.ok
    assert any("without a relative" in v for v in report.violations)


def test_validator_reports_structural_breaks():
    inst = plain(4, 1, [{1, 2, 3, 4}])
    overlapping = InfantSystem(
        n=4,
        q=2,
        families=((frozenset({1, 2}), 1), (frozenset({2, 3}), 2)),
        padded=(),
        loose=frozenset(),
        rep=MatrixRepresentation(0, 0, {}),
    )
    report = validate_infant_system(inst, overlapping)
    assert any("overlaps" in v for v in report.violations)
    oversized = InfantSystem(
        n=4,
        q=3,
        families=((frozenset({1, 2}), 1), (frozenset({3, 4}), 3)),
        padded=(),
        loose=frozenset(),
        rep=MatrixRepresentation(0, 0, {}),
    )
    report = validate_infant_system(plain(4, 1, [{1}]), oversized)
    assert any("p*q" in v for v in report.violations)


# ---------------------------------------------------------------------------
# search space arithmetic


def test_search_space_without_families():
    inst = plain(8, 1, [{1}])
    space = search_space_size(inst, InfantSystem.empty(8))
    assert space.code_axis == 1 << 8


def test_search_space_with_families_beats_plain_power():
    inst = plain(22, 1, [set()])
    families = [({2 * i + 1, 2 * i + 2}, 2 * i + 1) for i in range(11)]
    system = InfantSystem.build(22, families, 2)
    space = search_space_size(inst, system)
    assert space.code_axis == 3**11 * 4 == 708588
    assert space.code_axis < 1 << 22


def test_search_space_small_scale_shows_no_savings():
    inst = plain(10, 1, [set()])
    families = [({1, 2, 3, 4, 5}, 1), ({6, 7, 8, 9, 10}, 6)]
    system = InfantSystem.build(10, families, 5)
    space = search_space_size(inst, system)
    assert space.code_axis == 31 * 31 * 32 == 30752
    assert space.code_axis > 1 << 10


# ---------------------------------------------------------------------------
# encoding under a system


def test_encoding_outside_families_reduces_to_plain():
    system = InfantSystem.build(6, [({1, 2}, 1)], 2)
    inst = plain(6, 1, [{3, 4}, {5}, set()])
    poly = build_infant_encoding(inst, system)[0]
    for (card, mask, col0, wt, rsum, code_value), coeff in poly.terms.items():
        assert (col0, wt, rsum, code_value) == (0, 0, 0, 0)
        assert coeff == 1
    cards = sorted(card for (card, *_rest) in poly.terms)
    assert cards == [0, 1, 2]


def test_encoding_full_row_invariants():
    system = InfantSystem.build(2, [({1, 2}, 1)], 2)
    inst = plain(2, 1, [{1, 2}])
    poly = build_infant_encoding(inst, system)[0]
    assert poly.terms == {(0, 0, 1, 2, 1, 1): 1}


def test_encoding_mass_matches_enumeration(rng):
    for _ in range(20):
        inst = random_instance(rng)
        system = InfantSystem.empty(inst.n)
        polys = build_infant_encoding(inst, system)
        for provider, poly in zip(inst.providers, polys):
            assert poly.mass() == len(provider.entries())


def test_encoding_rejects_out_of_range_elements():
    inst = plain(3, 1, [{1, 7}])
    with pytest.raises(EncodingError, match="outside 1..3"):
        build_infant_encoding(inst, InfantSystem.empty(3))


def _random_system(rng, n):
    """A valid family system over 1..n, or the empty one when none fits."""
    q = rng.randint(2, 3)
    if n < q:
        return InfantSystem.empty(n)
    pool = list(range(1, n + 1))
    rng.shuffle(pool)
    families = []
    for _ in range(rng.randint(1, n // q)):
        members = [pool.pop() for _ in range(rng.randint(1, q))]
        families.append((set(members), rng.choice(members)))
    return InfantSystem.build(n, families, q)


def test_encoding_equals_the_matrix_invariants(rng):
    systems = 0
    for _ in range(60):
        n = rng.randint(1, 9)
        system = _random_system(rng, n)
        systems += system.p > 0
        loose = sorted(system.loose)
        families = []
        for _ in range(rng.randint(1, 3)):
            sets, size = [], rng.randint(1, 8)
            while len(sets) < size:
                s = frozenset(e for e in range(1, n + 1) if rng.random() < 0.5)
                if is_row_normalized(characteristic_matrix(system.rep, s)):
                    sets.append(s)
            families.append((sets, [rng.randint(0, 5) for _ in sets]))
        for objective in ("count", "min-weight"):
            inst = explicit_instance(n, len(families), families, objective)
            polys = build_infant_encoding(inst, system)
            for (sets, weights), poly in zip(families, polys):
                want = {}
                for s, w in zip(sets, weights):
                    m = characteristic_matrix(system.rep, s)
                    mask = sum(1 << loose.index(e) for e in s if e in system.loose)
                    exps = (len(s & system.loose), mask, colweight(m, 0), weight(m),
                            rowsum(m), code(m))
                    exps += (w,) if objective == "min-weight" else ()
                    want[exps] = want.get(exps, 0) + 1
                assert dict(poly.terms) == want
    assert systems >= 30


def test_lone_infant_aborts_the_solve():
    system = InfantSystem.build(4, [({1, 2}, 1)], 2)
    inst = plain(4, 2, [{1, 3}], [{2, 4}])
    with pytest.raises(RowNormalizationError) as err:
        solve_with_infants(inst, system)
    assert err.value.provider == "family-1"
    assert err.value.members == frozenset({1, 3})
    assert err.value.row == 0


# ---------------------------------------------------------------------------
# plain solves


def test_solve_two_singletons():
    inst = plain(2, 2, [{1}], [{2}], objective="count")
    for space in ("dense", "polyspace"):
        answer = solve_simple(inst, space=space)
        assert answer.feasible and answer.count == 1


def test_solve_cardinality_mismatch_is_infeasible():
    sets = [{1, 2}, {1, 3}, {2, 3}]
    inst = plain(3, 1, sets, objective="count")
    for space in ("dense", "polyspace"):
        answer = solve_simple(inst, space=space)
        assert not answer.feasible and answer.count == 0


def test_solve_counts_ordered_tuples():
    inst = plain(2, 2, [{1}, {2}], [{1}, {2}], objective="count")
    for space in ("dense", "polyspace"):
        assert solve_simple(inst, space=space).count == 2


def test_solve_empty_ground_set():
    inst = plain(0, 1, [set()], objective="count")
    answer = solve_simple(inst)
    assert answer.feasible and answer.count == 1


def test_min_weight_exact_value():
    inst = explicit_instance(
        4,
        2,
        [
            ([{1, 2}, {1, 2, 3}, {1}], [3, 1, 0]),
            ([{3, 4}, {4}, {2, 3, 4}], [2, 5, 9]),
        ],
        objective="min-weight",
    )
    for space in ("dense", "polyspace"):
        answer = solve_simple(inst, space=space)
        assert answer.feasible and answer.min_weight == 5
    feasible, count, best = brute_partition(inst)
    assert feasible and best == 5


def test_engine_selection_in_stats():
    inst = plain(3, 1, [{1, 2, 3}], objective="count")
    assert solve_simple(inst).stats.engine == "sparse-fold"
    assert solve_simple(inst, space="polyspace").stats.engine == "polyspace"
    hollow = plain(3, 2, [{1, 2, 3}], [], objective="count")
    answer = solve_simple(hollow)
    assert answer.stats.engine == "empty" and not answer.feasible
    # a target past every yielded cardinality is dead before any product
    thin = plain(2, 1, [{1}], objective="count")
    assert solve_simple(thin).stats.engine == "empty"


def test_space_argument_is_checked():
    inst = plain(1, 1, [{1}])
    with pytest.raises(ValueError, match="space"):
        solve_simple(inst, space="quick")


def test_structure_guards():
    part = plain(2, 1, [{1, 2}])
    cover = plain(2, 1, [{1, 2}], structure="cover")
    with pytest.raises(ValueError, match="'partition'"):
        solve_simple(cover)
    with pytest.raises(ValueError, match="'cover'"):
        solve_cover(part)


def test_budget_does_not_change_answers(rng):
    """No cell budget picks a dense engine: every dense solve folds, and
    its answers equal the polyspace readout's."""
    for _ in range(15):
        inst = random_instance(rng, objective="count")
        dense = solve_simple(inst)
        poly = solve_simple(inst, space="polyspace")
        assert dense.stats.engine in ("sparse-fold", "empty")
        assert (dense.feasible, dense.count) == (poly.feasible, poly.count)


# ---------------------------------------------------------------------------
# oracle equivalence and structural properties


def test_engines_match_brute_force(rng):
    for _ in range(40):
        inst = random_instance(rng, objective="count")
        feasible, count, _ = brute_partition(inst)
        dense = solve_simple(inst)
        poly = solve_simple(inst, space="polyspace")
        assert (dense.feasible, dense.count) == (feasible, count)
        assert (poly.feasible, poly.count) == (feasible, count)


def test_min_weight_matches_brute_force(rng):
    for _ in range(25):
        inst = random_instance(rng, objective="min-weight", max_n=6)
        _, _, best = brute_partition(inst)
        dense = solve_simple(inst)
        poly = solve_simple(inst, space="polyspace")
        assert dense.min_weight == best
        assert poly.min_weight == best


def test_adding_sets_never_kills_feasibility(rng):
    for _ in range(25):
        inst = random_instance(rng, objective="decision")
        before = solve_simple(inst).feasible
        extra = frozenset(rng.sample(range(1, inst.n + 1), rng.randint(0, inst.n)))
        grown_sets = [m for m, _ in inst.providers[0].entries()] + [extra]
        providers = (FamilyProvider.explicit("grown", grown_sets),) + inst.providers[1:]
        grown = PartitionInstance(inst.n, inst.k, providers, "decision", "partition")
        after = solve_simple(grown).feasible
        if before:
            assert after


@st.composite
def _small_instances(draw, objective):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    entry = st.tuples(st.frozensets(st.integers(1, n)), st.integers(0, 6))
    families = []
    for _ in range(k):
        entries = draw(st.lists(entry, min_size=1, max_size=6))
        families.append(([s for s, _w in entries], [w for _s, w in entries]))
    return explicit_instance(n, k, families, objective)


@st.composite
def _heavy_instances(draw, objective):
    """One family of 25 to 40 distinct weighted sets, one or two light ones."""
    n = draw(st.integers(5, 6))
    entry = st.tuples(st.frozensets(st.integers(1, n)), st.integers(0, 6))
    heavy = draw(st.lists(entry, min_size=25, max_size=40, unique=True))
    light = draw(st.lists(st.lists(entry, min_size=1, max_size=6), min_size=1, max_size=2))
    families = [([s for s, _w in es], [w for _s, w in es]) for es in [heavy, *light]]
    return explicit_instance(n, len(families), families, objective)


@pytest.mark.parametrize("objective", ["count", "min-weight"])
@settings(derandomize=True, deadline=None, max_examples=90)
@given(data=st.data())
def test_dense_readout_equals_sparse_product(objective, data):
    """The dense fold's answer equals the schoolbook product's coefficient."""
    inst = data.draw(st.one_of(_small_instances(objective), _heavy_instances(objective)))
    polys = build_infant_encoding(inst, InfantSystem.empty(inst.n))
    product = polys[0]
    for poly in polys[1:]:
        product = multiply(product, poly)
    target = (inst.n, (1 << inst.n) - 1, 0, 0, 0, 0)
    answer = solve_simple(inst, "dense")
    assert answer.stats.engine in ("sparse-fold", "empty")
    if inst.objective == "count":
        assert answer.count == product.coefficient(target)
        return
    weight_cap = sum(max(es[6] for es in poly.terms) for poly in polys)
    feasible = [w for w in range(weight_cap + 1) if product.coefficient(target + (w,))]
    assert answer.min_weight == (feasible[0] if feasible else None)


def _reference_fold(term_maps, limits):
    """Tuple-keyed product of sparse term maps, pruned past ``limits``."""
    acc = {(0,) * len(limits): 1}
    for terms in term_maps:
        nxt = {}
        for ea, ca in acc.items():
            for eb, cb in terms.items():
                combined = tuple(x + y for x, y in zip(ea, eb))
                if any(c > lim for c, lim in zip(combined, limits)):
                    continue
                nxt[combined] = nxt.get(combined, 0) + ca * cb
        acc = nxt
    return acc


@st.composite
def _fold_cases(draw, costed):
    """Targets with limits 0, 2^b - 1, 2^b and others; terms that hit
    them, halve them or pass them on their own; an optional cost last."""
    bits = st.integers(1, 6)
    limit = st.one_of(
        st.just(0),
        bits.map(lambda b: (1 << b) - 1),
        bits.map(lambda b: 1 << b),
        st.integers(0, 40),
    )
    target = tuple(draw(st.lists(limit, min_size=1, max_size=4)))
    coordinates = [
        st.one_of(st.sampled_from([0, t // 2, t - t // 2, t]), st.integers(0, t + 2))
        for t in target
    ]
    if costed:
        coordinates.append(st.integers(0, 1 << 40))
    term_map = st.dictionaries(
        st.tuples(*coordinates), st.integers(1, 1 << 40), max_size=6
    )
    return draw(st.lists(term_map, min_size=1, max_size=4)), target


def _fold_targets(term_maps, target):
    """The drawn target, plus one the product surely reaches: the sum of
    each factor's first term (when no factor is empty)."""
    if not all(term_maps):
        return [target]
    firsts = [next(iter(terms))[: len(target)] for terms in term_maps]
    return [target, tuple(map(sum, zip(*firsts)))]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=_fold_cases(costed=False))
def test_fold_counts_equal_the_tuple_keyed_fold(case):
    term_maps, drawn = case
    for target in _fold_targets(term_maps, drawn):
        reference = _reference_fold(term_maps, target)
        assert _fold_sparse(term_maps, target, False) == reference.get(target, 0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=_fold_cases(costed=True))
def test_fold_min_plus_equals_the_tuple_keyed_fold(case):
    """(min,+): the least cost among the reference's nonzero keys at the target."""
    term_maps, drawn = case
    cost_cap = sum(max((e[-1] for e in terms), default=0) for terms in term_maps)
    for target in _fold_targets(term_maps, drawn):
        reference = _reference_fold(term_maps, target + (cost_cap,))
        costs = [e[-1] for e, c in reference.items() if c and e[:-1] == target]
        assert _fold_sparse(term_maps, target, True) == min(costs, default=None)


def test_empty_system_equals_simple(rng):
    for _ in range(10):
        inst = random_instance(rng, objective="count")
        a = solve_simple(inst)
        b = solve_with_infants(inst, InfantSystem.empty(inst.n))
        assert (a.feasible, a.count) == (b.feasible, b.count)


def test_synthetic_system_equals_simple():
    sets = [{1, 2}, {3, 4}, {5, 6}, {2, 5}, {4, 6}, {1, 2, 3, 4}]
    inst = plain(6, 3, sets, sets, sets, objective="count")
    system = InfantSystem.build(6, [({1, 2}, 1), ({3, 4}, 3)], 2)
    assert validate_infant_system(inst, system).ok
    fast = solve_with_infants(inst, system)
    slow = solve_simple(inst)
    feasible, count, _ = brute_partition(inst)
    assert fast.count == slow.count == count == 6
    assert fast.stats.infant_p == 2 and fast.stats.infant_q == 2
    shrunk = search_space_size(inst, system).code_axis
    # 2^loose * 3^p * 2^q; the flat 2^q factor swamps tiny instances
    assert shrunk == 2**2 * 3**2 * 4


def test_system_solve_agrees_across_spaces_and_weights():
    sets = [{1, 2}, {3, 4}, {1, 2, 3, 4}]
    weights = [2, 3, 4]
    inst = explicit_instance(
        4, 2, [(sets, weights), (sets, weights)], objective="min-weight"
    )
    system = InfantSystem.build(4, [({1, 2}, 1)], 2)
    assert validate_infant_system(inst, system).ok
    for space in ("dense", "polyspace"):
        answer = solve_with_infants(inst, system, space=space)
        assert answer.min_weight == 5
    _, _, best = brute_partition(inst)
    assert best == 5


# ---------------------------------------------------------------------------
# polyspace: inclusion-exclusion over the loose mask


def _planted(n, pairs, families, objective):
    """Instance and pair system (q = 2) whose sets respect the system: a
    set holding an infant without its partner gains the partner."""
    patched = []
    for sets, weights in families:
        fixed = []
        for s in sets:
            grown = set(s)
            for pair, infant in pairs:
                if infant in grown and len(grown & pair) < 2:
                    grown |= pair
            fixed.append(frozenset(grown))
        patched.append((fixed, weights))
    inst = explicit_instance(n, len(families), patched, objective)
    return inst, InfantSystem.build(n, pairs, 2)


def _fields(objective, feasible, count, best):
    """(feasible, count, min_weight) as a solve of this objective reports them."""
    return (
        feasible,
        count if objective == "count" else None,
        best if objective == "min-weight" else None,
    )


@st.composite
def _planted_instances(draw, objective):
    """Up to 3 planted pairs over 1..7, weights up to 10^3.  Half the time
    every set of the first family holds one loose element, so that
    family's restriction F_1(X) is empty for each X without it."""
    n = draw(st.integers(1, 7))
    p = draw(st.integers(0, min(3, n // 2)))
    order = draw(st.permutations(range(1, n + 1)))
    pairs = [(frozenset(order[2 * i : 2 * i + 2]), order[2 * i]) for i in range(p)]
    entry = st.tuples(st.frozensets(st.integers(1, n)), st.integers(0, 1000))
    families = []
    for _ in range(draw(st.integers(1, 3))):
        entries = draw(st.lists(entry, min_size=1, max_size=6))
        families.append(([s for s, _w in entries], [w for _s, w in entries]))
    if n > 2 * p and draw(st.booleans()):
        pin = order[-1]
        families[0] = ([s | {pin} for s in families[0][0]], families[0][1])
    return _planted(n, pairs, families, objective)


@pytest.mark.parametrize("objective", ["decision", "count", "min-weight"])
@settings(derandomize=True, deadline=None, max_examples=80)
@given(case=st.data())
def test_polyspace_sweep_equals_dense_and_brute_force(objective, case):
    inst, system = case.draw(_planted_instances(objective))
    assert validate_infant_system(inst, system).ok
    want = _fields(objective, *brute_partition(inst))
    for encoding in (system, InfantSystem.empty(inst.n)):
        poly = solve_with_infants(inst, encoding, "polyspace")
        dense = solve_with_infants(inst, encoding)
        assert (poly.feasible, poly.count, poly.min_weight) == want
        assert (dense.feasible, dense.count, dense.min_weight) == want
        swept = poly.stats.engine == "polyspace"
        assert poly.stats.sweep == (1 << len(encoding.loose) if swept else 0)
        assert dense.stats.sweep == 0


@st.composite
def _cover_instances(draw, objective):
    """Covers over 1..5 with weights up to 10^3; a family may be empty."""
    n = draw(st.integers(1, 5))
    entry = st.tuples(st.frozensets(st.integers(1, n), max_size=4), st.integers(0, 1000))
    families = []
    for _ in range(draw(st.integers(1, 3))):
        entries = draw(st.lists(entry, max_size=3))
        families.append(([s for s, _w in entries], [w for _s, w in entries]))
    return explicit_instance(n, len(families), families, objective, "cover")


def _closure_partition(inst):
    """The cover as a partition over every kept subset of every set."""
    families = []
    for provider in inst.providers:
        subsets, weights = [], []
        for members, w in provider.entries():
            ordered = sorted(members)
            for pick in range(1 << len(ordered)):
                subsets.append(frozenset(e for j, e in enumerate(ordered) if pick >> j & 1))
                weights.append(w)
        families.append((subsets, weights))
    return explicit_instance(inst.n, inst.k, families, inst.objective, "partition")


@pytest.mark.parametrize("objective", ["decision", "count", "min-weight"])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=st.data())
def test_polyspace_cover_sweep_equals_the_subset_closure(objective, case):
    inst = case.draw(_cover_instances(objective))
    want = _fields(objective, *brute_partition(_closure_partition(inst)))
    for space in ("polyspace", "dense"):
        answer = solve_cover(inst, space)
        assert (answer.feasible, answer.count, answer.min_weight) == want


def test_polyspace_calls_no_transform_readout(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a polyspace solve reached polyring's readout")

    for name in ("extract_coefficients_polyspace", "multiply_packed_dense"):
        monkeypatch.setattr(setpart.engine, name, refuse)
    sets = [{1, 2}, {3, 4}, {1, 2, 3, 4}]
    inst, system = _planted(4, [({1, 2}, 1)], [(sets, [2, 3, 4])] * 2, "min-weight")
    assert solve_with_infants(inst, system, "polyspace").min_weight == 5
    cover = plain(3, 2, [{1, 2, 3}], [{2, 3}], objective="count", structure="cover")
    assert solve_cover(cover, "polyspace").count == solve_cover(cover).count == 4


def test_polyspace_peak_memory_is_small_under_a_system(rng):
    """Planted (n=6, k=3, p=3) solves hold a few term maps, no tables."""
    pairs = [({1, 4}, 1), ({2, 5}, 5), ({3, 6}, 3)]
    for _ in range(4):
        families = []
        for _ in range(3):
            sets = [frozenset(rng.sample(range(1, 7), rng.randint(0, 6))) for _ in range(6)]
            families.append((sets, None))
        inst, system = _planted(6, pairs, families, "count")
        tracemalloc.start()
        try:
            answer = solve_with_infants(inst, system, "polyspace")
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert answer.stats.engine == "polyspace"
        assert answer.count == solve_with_infants(inst, system).count
        assert peak < 1 << 20


# ---------------------------------------------------------------------------
# covers


def test_cover_relaxes_partition():
    inst_part = plain(2, 2, [{1, 2}], [{1, 2}], objective="count")
    assert not solve_simple(inst_part).feasible
    inst_cover = plain(2, 2, [{1, 2}], [{1, 2}], structure="cover", objective="count")
    for space in ("dense", "polyspace"):
        answer = solve_cover(inst_cover, space=space)
        assert answer.feasible
        # each part keeps any subset: (12|-), (1|2), (2|1), (-|12)
        assert answer.count == 4


def test_cover_with_empty_provider_is_infeasible():
    inst = plain(2, 2, [{1, 2}], [], structure="cover", objective="count")
    for space in ("dense", "polyspace"):
        answer = solve_cover(inst, space=space)
        assert not answer.feasible and answer.count == 0


def test_cover_equals_partition_over_subset_closure(rng):
    for _ in range(20):
        inst = random_instance(rng, structure="cover", max_n=6)
        closure_families = []
        for provider in inst.providers:
            subsets = []
            for members, _w in provider.entries():
                ordered = sorted(members)
                for pick in range(1 << len(ordered)):
                    subsets.append(
                        frozenset(ordered[i] for i in range(len(ordered)) if pick >> i & 1)
                    )
            closure_families.append((subsets, None))
        closed = explicit_instance(inst.n, inst.k, closure_families, "count", "partition")
        feasible, count, _ = brute_partition(closed)
        dense = solve_cover(inst)
        poly = solve_cover(inst, space="polyspace")
        assert (dense.feasible, dense.count) == (feasible, count)
        assert (poly.feasible, poly.count) == (feasible, count)


def test_cover_repeated_entries_equal_the_closure_in_both_spaces(rng):
    checked = 0
    for objective in ("count", "min-weight"):
        for _ in range(12):
            n = rng.randint(1, 5)
            families = []
            for _ in range(rng.randint(1, 3)):
                sets, weights = [], []
                for _ in range(rng.randint(1, 4)):
                    s = frozenset(e for e in range(1, n + 1) if rng.random() < 0.5)
                    w = rng.randint(0, 9)
                    # every entry is repeated, some twice over
                    for _ in range(rng.randint(2, 3)):
                        sets.append(s)
                        weights.append(w)
                families.append((sets, weights))
            inst = explicit_instance(n, len(families), families, objective, "cover")
            closed = []
            for sets, weights in families:
                subsets, subset_weights = [], []
                for s, w in zip(sets, weights):
                    ordered = sorted(s)
                    for pick in range(1 << len(ordered)):
                        subsets.append(
                            frozenset(e for j, e in enumerate(ordered) if pick >> j & 1)
                        )
                        subset_weights.append(w)
                closed.append((subsets, subset_weights))
            want = brute_partition(
                explicit_instance(n, len(families), closed, objective, "partition")
            )
            for space in ("dense", "polyspace"):
                answer = solve_cover(inst, space=space)
                assert answer.feasible == want[0]
                if objective == "count":
                    assert answer.count == want[1]
                else:
                    assert answer.min_weight == want[2]
                # repeats accumulate onto one term, as in partition solves
                if space == "polyspace" and answer.stats.engine == "polyspace":
                    keys = [zip(s, w) if objective == "min-weight" else s for s, w in families]
                    assert answer.stats.term_counts == tuple(len(set(x)) for x in keys)
            checked += want[0]
    assert checked >= 6


def test_cover_with_empty_provider_reports_the_empty_engine():
    inst = plain(2, 2, [{1, 2}], [], structure="cover", objective="count")
    for space in ("dense", "polyspace"):
        assert solve_cover(inst, space=space).stats.engine == "empty"
    # a target no set's cardinality can reach is dead in both spaces too
    thin = plain(3, 1, [{1}, {2}], structure="cover", objective="min-weight")
    for space in ("dense", "polyspace"):
        answer = solve_cover(thin, space=space)
        assert answer.stats.engine == "empty" and answer.min_weight is None


def test_partition_feasible_implies_cover_feasible(rng):
    for _ in range(20):
        inst = random_instance(rng, objective="decision")
        if not solve_simple(inst).feasible:
            continue
        as_cover = PartitionInstance(
            inst.n, inst.k, inst.providers, "decision", "cover"
        )
        assert solve_cover(as_cover).feasible


def test_cover_expansion_limit():
    assert COVER_EXPAND_LIMIT == 20
    members = set(range(1, COVER_EXPAND_LIMIT + 2))
    inst = plain(len(members), 1, [members], structure="cover")
    with pytest.raises(EncodingError, match="21 members exceeds the dense expansion limit 20"):
        solve_cover(inst)


def test_cover_min_weight():
    inst = explicit_instance(
        3,
        2,
        [([{1, 2, 3}, {1}], [5, 1]), ([{2, 3}, {3}], [2, 7])],
        objective="min-weight",
        structure="cover",
    )
    for space in ("dense", "polyspace"):
        # {1} + {2,3} is the cheapest exact tiling of kept subsets
        assert solve_cover(inst, space=space).min_weight == 3


def test_cover_rejects_out_of_range_elements():
    inst = plain(2, 1, [{1, 5}], structure="cover")
    with pytest.raises(EncodingError, match="outside"):
        solve_cover(inst)


# ---------------------------------------------------------------------------
# JSON interchange


def test_instance_json_round_trip():
    data = {
        "n": 2,
        "k": 2,
        "families": [[{"set": [1]}], [{"set": [2]}]],
        "objective": "count",
    }
    inst = instance_from_json(data)
    assert solve_simple(inst).count == 1
    again = instance_from_json(json.dumps(data))
    assert solve_simple(again).count == 1


def test_instance_json_accepts_bare_arrays_and_weights():
    data = {
        "n": 2,
        "k": 1,
        "families": [[[1, 2], {"set": [1], "weight": 4}]],
        "objective": "min-weight",
    }
    inst = instance_from_json(data)
    assert solve_simple(inst).min_weight == 0


def test_instance_json_errors():
    with pytest.raises(EncodingError, match="must be an object"):
        instance_from_json([1, 2])
    with pytest.raises(EncodingError, match="missing field"):
        instance_from_json({"n": 2, "k": 1})
    with pytest.raises(EncodingError, match="list of k arrays"):
        instance_from_json({"n": 2, "k": 2, "families": [[]]})
    with pytest.raises(EncodingError, match="must be an array"):
        instance_from_json({"n": 2, "k": 1, "families": ["no"]})
    with pytest.raises(EncodingError, match="needs a set array"):
        instance_from_json({"n": 2, "k": 1, "families": [[{"weight": 3}]]})
    with pytest.raises(EncodingError, match="structure"):
        instance_from_json({"n": 1, "k": 1, "families": [[]], "structure": "ring"})


def test_json_sets_refuse_repeated_elements():
    data = {"n": 2, "k": 1, "objective": "count", "families": [[[1, 1, 2], [2, 1]]]}
    with pytest.raises(EncodingError, match="family 1: element 1 appears more than once"):
        instance_from_json(data)
    data["families"] = [[[1, 2], [2, 1]]]
    assert solve_simple(instance_from_json(data)).count == 2
    system = {"q": 2, "families": [{"set": [1, 2, 2], "infant": 1}]}
    with pytest.raises(InfantSystemError, match="family 0: element 2 appears more than once"):
        system_from_json(system, 2)
    system["families"][0]["set"] = [1, 2]
    assert system_from_json(system, 2).p == 1


def test_system_json_round_trip():
    system = system_from_json(
        {"q": 2, "families": [{"set": [1, 2], "infant": 1}]}, 4
    )
    assert system.p == 1 and system.q == 2
    with pytest.raises(InfantSystemError, match="missing field"):
        system_from_json({"families": []}, 4)
    with pytest.raises(InfantSystemError, match="family 0"):
        system_from_json({"q": 2, "families": [{"set": [1, 2]}]}, 4)
    with pytest.raises(InfantSystemError, match="exceeds n"):
        system_from_json({"q": 3, "families": [{"set": [1, 2], "infant": 1}]}, 2)


@pytest.mark.parametrize(
    "change",
    [
        {"n": None},
        {"n": "x"},
        {"n": True},
        {"k": 1.0},
        {"families": [[{"set": [1], "weight": 1.9}]]},
        {"families": [[{"set": [1], "weight": False}]]},
        {"families": [[[1.7]]]},
        {"families": [[["1"]]]},
    ],
)
def test_instance_json_numbers_must_be_integers(change):
    data = {"n": 1, "k": 1, "families": [[[1]]], "objective": "min-weight"}
    assert solve_simple(instance_from_json(data)).min_weight == 0
    with pytest.raises(EncodingError, match="must be an integer"):
        instance_from_json({**data, **change})


def test_system_json_numbers_must_be_integers():
    good = {"q": 2, "families": [{"set": [1, 2], "infant": 1}]}
    assert system_from_json(good, 4).p == 1
    for bad in (
        {"q": 2.0, "families": good["families"]},
        {"q": 2, "families": [{"set": [1, 2], "infant": 1.5}]},
        {"q": 2, "families": [{"set": [1, True], "infant": 1}]},
        {"q": 2, "families": [{"set": ["1", 2], "infant": 1}]},
    ):
        with pytest.raises(InfantSystemError, match="must be an integer"):
            system_from_json(bad, 4)
    with pytest.raises(InfantSystemError, match="array"):
        system_from_json({"q": 2, "families": 3}, 4)
    with pytest.raises(InfantSystemError, match="array"):
        system_from_json({"q": 2, "families": [{"set": 1, "infant": 1}]}, 4)
