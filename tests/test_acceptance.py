"""End-to-end battery: one test per shipped guarantee, one verdict line each.

Run with -s to see the per-guarantee summary lines; pytest -v prints the
pass/fail status of every guarantee either way.
"""

import math
from fractions import Fraction
from itertools import product

from setpart.encoding import (
    RadixVector,
    code,
    colweight,
    hamming_weight,
    is_row_normalized,
    reconstruct_matrix,
    rowsum,
    weight,
)
from setpart.engine import (
    FamilyProvider,
    InfantSystem,
    PartitionInstance,
    search_space_size,
    solve_cover,
    solve_simple,
    solve_with_infants,
    validate_infant_system,
)
from setpart.graphcore import (
    Graph,
    average_degree,
    find_core_pair,
    find_degree_threshold,
    find_scattered_set,
)
from setpart.oracle import (
    brute_chromatic,
    brute_count_pm,
    brute_domatic,
    brute_hamcycle,
    brute_partition,
    brute_tsp,
)
from setpart.polyring import (
    EvaluationOracle,
    ExactPolynomial,
    extract_coefficient_polyspace,
    multiply,
    multiply_packed_dense,
)
from setpart.problems import (
    chromatic_number,
    count_perfect_matchings,
    domatic_decision,
    hamiltonian_cycle,
    tsp,
)

from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    er_graph,
    petersen_graph,
    random_regular,
)

ER_DENSITIES = (0.2, 0.4, 0.6)


def _random_graph(rng, i, lo, hi, max_weight=0):
    """Mix of Erdos-Renyi draws and 3-regular graphs in the size window."""
    n = rng.randint(lo, hi)
    if i % 4 == 3 and n >= 5:
        m = n if n % 2 == 0 else n - 1
        g = random_regular(m, 3, rng)
        if max_weight:
            g = Graph.build(
                g.n, g.edges, {e: rng.randint(1, max_weight) for e in g.edges}
            )
        return g
    return er_graph(n, ER_DENSITIES[i % 3], rng, max_weight=max_weight)


# ---------------------------------------------------------------------------
# guarantee 1: every graph driver equals its brute-force oracle


def test_drivers_match_oracles_on_random_graphs(rng):
    graphs = 0
    for i in range(60):
        g = _random_graph(rng, i, 4, 9)
        assert chromatic_number(g) == brute_chromatic(g), g.edges
        graphs += 1
    for i in range(45):
        g = _random_graph(rng, i, 3, 8)
        for k in (2, 3):
            assert domatic_decision(g, k) == brute_domatic(g, k), (g.edges, k)
        graphs += 1
    for i in range(50):
        g = _random_graph(rng, i, 5, 9)
        assert hamiltonian_cycle(g) == brute_hamcycle(g), g.edges
        graphs += 1
    for i in range(30):
        g = _random_graph(rng, i, 4, 8, max_weight=10)
        assert tsp(g) == brute_tsp(g), g.edges
        graphs += 1
    for i in range(30):
        n = 2 * rng.randint(2, 6)
        if i % 4 == 3:
            g = random_regular(n, 3, rng) if n >= 5 else er_graph(n, 0.6, rng)
        else:
            g = er_graph(n, ER_DENSITIES[i % 3], rng)
        assert count_perfect_matchings(g) == brute_count_pm(g), g.edges
        graphs += 1
    assert graphs >= 200
    print(f"\nPASS: all five drivers match their oracles on {graphs} random graphs")


# ---------------------------------------------------------------------------
# guarantee 2: engine modes agree with exhaustive search, with and without
# a planted family system


def _random_partition_instance(rng, n, k, objective, max_sets=10, max_w=6):
    families = []
    for _ in range(k):
        sets, weights = [], []
        for _ in range(rng.randint(1, max_sets)):
            size = rng.randint(0, n)
            sets.append(frozenset(rng.sample(range(1, n + 1), size)))
            weights.append(rng.randint(0, max_w))
        families.append((sets, weights))
    providers = tuple(
        FamilyProvider.explicit(f"family-{i + 1}", s, w)
        for i, (s, w) in enumerate(families)
    )
    return PartitionInstance(n, k, providers, objective, "partition")


def _plant_pair_system(rng, inst):
    """Equip the instance with a valid q=2 system, patching sets to comply."""
    p = rng.randint(1, inst.n // 2)
    pool = rng.sample(range(1, inst.n + 1), 2 * p)
    families = []
    for i in range(p):
        pair = frozenset(pool[2 * i : 2 * i + 2])
        families.append((pair, rng.choice(sorted(pair))))
    system = InfantSystem.build(inst.n, families, 2)
    providers = []
    for prov in inst.providers:
        sets, weights = [], []
        for members, w in prov.entries():
            patched = set(members)
            for fam, infant in families:
                if infant in patched and len(patched & fam) < 2:
                    patched |= fam
            sets.append(frozenset(patched))
            weights.append(w)
        providers.append(FamilyProvider.explicit(prov.label, sets, weights))
    patched_inst = PartitionInstance(
        inst.n, inst.k, tuple(providers), inst.objective, "partition"
    )
    return patched_inst, system


def _answer_fields(inst, answer):
    if inst.objective == "count":
        return answer.feasible, answer.count
    if inst.objective == "min-weight":
        return answer.feasible, answer.min_weight
    return (answer.feasible,)


def _expected_fields(inst):
    feasible, count, best = brute_partition(inst)
    if inst.objective == "count":
        return feasible, count
    if inst.objective == "min-weight":
        return feasible, best
    return (feasible,)


def test_engine_modes_agree_with_brute_force(rng):
    instances = 0
    for i in range(99):
        objective = ("decision", "count", "min-weight")[i % 3]
        if objective == "min-weight":
            inst = _random_partition_instance(
                rng, rng.randint(2, 5), rng.randint(1, 3), objective, max_w=4
            )
        else:
            inst = _random_partition_instance(
                rng, rng.randint(2, 8), rng.randint(1, 3), objective
            )
        want = _expected_fields(inst)
        assert _answer_fields(inst, solve_simple(inst)) == want
        assert _answer_fields(inst, solve_simple(inst, space="polyspace")) == want
        patched, system = _plant_pair_system(rng, inst)
        assert validate_infant_system(patched, system).ok
        want = _expected_fields(patched)
        assert _answer_fields(patched, solve_simple(patched)) == want
        assert _answer_fields(patched, solve_with_infants(patched, system)) == want
        instances += 1
    for i in range(12):
        objective = ("decision", "count")[i % 2]
        inst = _random_partition_instance(
            rng, rng.randint(9, 10), rng.randint(1, 2), objective, max_sets=6
        )
        want = _expected_fields(inst)
        assert _answer_fields(inst, solve_simple(inst)) == want
        assert _answer_fields(inst, solve_simple(inst, space="polyspace")) == want
        patched, system = _plant_pair_system(rng, inst)
        assert validate_infant_system(patched, system).ok
        want = _expected_fields(patched)
        assert _answer_fields(patched, solve_with_infants(patched, system)) == want
        instances += 1
    assert instances >= 100
    print(
        f"PASS: dense, polyspace, and planted-system solves match exhaustive"
        f" search on {instances} instances"
    )


def test_every_objective_under_a_tight_budget(rng):
    """budget_cells=1 forces the sparse fold, (min,+) for min-weight:
    answers still equal exhaustive search, plain and under a planted system."""
    feasible = dict.fromkeys(("decision", "count", "min-weight"), 0)
    for i in range(60):
        objective = ("decision", "count", "min-weight")[i % 3]
        max_w = 10**9 if objective == "min-weight" else 6
        inst = _random_partition_instance(
            rng, rng.randint(2, 7), rng.randint(1, 3), objective, max_w=max_w
        )
        want = _expected_fields(inst)
        answer = solve_simple(inst, budget_cells=1)
        assert answer.stats.engine in ("sparse-fold", "empty")
        assert _answer_fields(inst, answer) == want
        patched, system = _plant_pair_system(rng, inst)
        want = _expected_fields(patched)
        answer = solve_with_infants(patched, system, budget_cells=1)
        assert answer.stats.engine in ("sparse-fold", "empty")
        assert _answer_fields(patched, answer) == want
        feasible[objective] += want[0]
    assert min(feasible.values()) >= 3
    print(f"PASS: tight-budget solves match exhaustive search; feasible {feasible}")


# ---------------------------------------------------------------------------
# guarantee 3: the four grid invariants identify binary matrices uniquely


def _row_normalized(p, q, max_entry):
    out = []
    for flat in product(range(max_entry + 1), repeat=p * q):
        m = tuple(tuple(flat[i * q : (i + 1) * q]) for i in range(p))
        if is_row_normalized(m):
            out.append(m)
    return out


def test_matrix_invariants_identify_binary_matrices():
    checked = 0
    for p, q in ((1, 2), (1, 3), (2, 2), (2, 3)):
        by_invariants = {}
        for m in _row_normalized(p, q, 4):
            sig = (colweight(m, 0), weight(m), rowsum(m), code(m))
            by_invariants.setdefault(sig, []).append(m)
        for binary in _row_normalized(p, q, 1):
            sig = (colweight(binary, 0), weight(binary), rowsum(binary), code(binary))
            assert by_invariants[sig] == [binary], (binary, by_invariants[sig])
            assert reconstruct_matrix(p, q, *sig) == binary
            checked += 1
    print(
        f"PASS: invariant quadruple pins down each of {checked} binary matrices"
        f" among all entries-at-most-4 competitors"
    )


# ---------------------------------------------------------------------------
# guarantee 4: the packed search space has the stated exponential size and
# the pair-family shrinkage beats 2^n


def _dummy_instance(n, k):
    providers = tuple(
        FamilyProvider.explicit(f"family-{i + 1}", []) for i in range(k)
    )
    return PartitionInstance(n, k, providers, "decision", "partition")


def _random_system(rng, n, q):
    pool = rng.sample(range(1, n + 1), n)
    families = []
    idx = 0
    for _ in range(rng.randint(0, n // q)):
        size = rng.randint(1, q)
        members = pool[idx : idx + q][:size]
        idx += q
        families.append((frozenset(members), rng.choice(members)))
    return InfantSystem.build(n, families, q)


def test_search_space_formula_and_shrinkage(rng):
    systems = 0
    for _ in range(40):
        n = rng.randint(2, 18)
        q = rng.choice((2, 3))
        system = _random_system(rng, n, q)
        k = rng.randint(1, 3)
        inst = _dummy_instance(n, k)
        space = search_space_size(inst, system)
        p, q = system.p, system.q
        assert space.code_axis == 2 ** (n - p * q) * (2**q - 1) ** p * 2**q
        loose = n - p * q
        assert space.counters["card"] == k * loose + 1
        assert space.counters["col0"] == k * p + 1
        assert space.counters["wt"] == k * p * q + 1
        assert space.counters["rsum"] == k * p * max(2**q - 2, 0) + 1
        expect = space.code_axis
        for v in space.counters.values():
            expect *= v
        assert space.domain_bound == expect
        systems += 1
    shrunk = 0
    for n in range(22, 61, 2):
        families = [(frozenset({2 * i + 1, 2 * i + 2}), 2 * i + 1) for i in range(n // 2)]
        system = InfantSystem.build(n, families, 2)
        space = search_space_size(_dummy_instance(n, 1), system)
        assert space.code_axis == 3 ** (n // 2) * 4
        assert space.code_axis < 2**n
        shrunk += 1
    print(
        f"PASS: size formula exact on {systems} random systems; pair families"
        f" stay below 2^n for {shrunk} even sizes in 22..60"
    )


# ---------------------------------------------------------------------------
# guarantee 5: kernel/scattered split contracts on sparse graphs


def test_core_pair_contracts_on_sparse_graphs(rng):
    corpus = []
    for d in (2, 3, 4):
        corpus.append((random_regular(2000, d, rng), 2, 1, 0.5))
        for _ in range(24):
            n = rng.randint(12 * d * d, 1200)
            if n * d % 2:
                n += 1
            nu = rng.choice((1, 2))
            a = rng.choice((0, 1))
            mu = rng.choice((0.5, 0.7))
            corpus.append((random_regular(n, d, rng), nu, a, mu))
    for _ in range(25):
        n = rng.randint(400, 1000)
        corpus.append((er_graph(n, 1.5 / n, rng), 1, 0, 0.5))
    assert len(corpus) == 100
    for g, nu, a, mu in corpus:
        core = find_core_pair(g, nu=nu, mu=mu, a=a, c=Fraction(1, 4))
        assert core.verify(g) == []
        lhs = (
            core.a * math.log2(math.comb(len(core.A), len(core.Y)))
            + len(core.Y) * math.log2(core.nu)
            + len(core.A) * math.log2(core.mu)
        )
        assert lhs <= -core.beta * g.n + 1e-9, (g.n, core)

        d_bound = max(average_degree(g), Fraction(1))
        scattered = find_scattered_set(g, d_bound)
        delta = max(g.degree(v) for v in g.vertices())
        if delta:
            assert len(scattered) >= math.ceil(Fraction(g.n) / (6 * delta * d_bound))
        m = rng.randint(1, 3)
        threshold = find_degree_threshold(g, m, 24)
        assert m <= threshold <= math.floor(m * math.e**25) + 1
        high = sum(1 for v in g.vertices() if g.degree(v) > threshold)
        assert high * 24 * threshold <= 2 * len(g.edges)
    print(
        "PASS: kernel/scattered contracts and the shrinkage exponent hold on"
        " 100 sparse graphs up to n=2000"
    )


# ---------------------------------------------------------------------------
# guarantee 6: covering equals partitioning over the explicit subset closure


def test_cover_solver_matches_subset_closure(rng):
    for i in range(50):
        objective = ("decision", "count", "min-weight")[i % 3]
        n = rng.randint(1, 8)
        inst = _random_partition_instance(
            rng, n, rng.randint(1, 3), objective, max_sets=4, max_w=4
        )
        inst = PartitionInstance(n, inst.k, inst.providers, objective, "cover")
        closure = []
        for prov in inst.providers:
            sets, weights = [], []
            for members, w in prov.entries():
                ordered = sorted(members)
                for pick in range(1 << len(ordered)):
                    sets.append(
                        frozenset(
                            ordered[j] for j in range(len(ordered)) if pick >> j & 1
                        )
                    )
                    weights.append(w)
            closure.append(FamilyProvider.explicit(prov.label, sets, weights))
        closed = PartitionInstance(n, inst.k, tuple(closure), objective, "partition")
        want = _expected_fields(closed)
        assert _answer_fields(inst, solve_cover(inst)) == want
        if n <= 6:
            assert _answer_fields(inst, solve_cover(inst, space="polyspace")) == want
    print("PASS: cover solves equal exhaustive search over 50 subset closures")


def _subset_closure(inst):
    """Partition instance whose families hold every subset of each set."""
    closure = []
    for prov in inst.providers:
        sets, weights = [], []
        for members, w in prov.entries():
            ordered = sorted(members)
            for pick in range(1 << len(ordered)):
                sets.append(frozenset(e for j, e in enumerate(ordered) if pick >> j & 1))
                weights.append(w)
        closure.append(FamilyProvider.explicit(prov.label, sets, weights))
    return PartitionInstance(inst.n, inst.k, tuple(closure), inst.objective, "partition")


def test_cover_min_weight_under_a_tight_budget(rng):
    feasible = 0
    for _ in range(20):
        n = rng.randint(1, 6)
        inst = _random_partition_instance(
            rng, n, rng.randint(1, 3), "min-weight", max_sets=4, max_w=10**9
        )
        inst = PartitionInstance(n, inst.k, inst.providers, "min-weight", "cover")
        want = _expected_fields(_subset_closure(inst))
        answer = solve_cover(inst, budget_cells=1)
        assert answer.stats.engine in ("sparse-fold", "empty")
        assert _answer_fields(inst, answer) == want
        feasible += want[0]
    assert feasible >= 3
    print(f"PASS: tight-budget cover min-weight matches {feasible} feasible closures")


# ---------------------------------------------------------------------------
# guarantee 7: arithmetic substrate properties


def test_arithmetic_substrate_properties(rng):
    for _ in range(100_000):
        a = rng.getrandbits(64)
        b = rng.getrandbits(64)
        slack = hamming_weight(a) + hamming_weight(b) - hamming_weight(a + b)
        assert slack >= 0
        assert (slack == 0) == (a & b == 0)

    names = ("u", "v", "w")
    for _ in range(10_000):
        arity = rng.randint(1, 3)
        radices = tuple(rng.randint(1, 50) for _ in range(arity))
        rv = RadixVector(names[:arity], radices)
        exps = tuple(rng.randint(0, r - 1) for r in radices)
        assert rv.unpack(rv.pack(exps)) == exps

    for _ in range(50):
        p = ExactPolynomial(
            ("x", "y"),
            {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 5)
                for _ in range(rng.randint(1, 8))
            },
        )
        q = ExactPolynomial(
            ("x", "y"),
            {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 5)
                for _ in range(rng.randint(1, 8))
            },
        )
        sparse = multiply(p, q)
        sums = tuple(a + b for a, b in zip(p.max_exponents(), q.max_exponents()))
        rv = RadixVector(("x", "y"), tuple(s + 1 for s in sums))
        dense = multiply_packed_dense(p, q, rv)
        assert dense.terms == sparse.terms
        oracles = [
            EvaluationOracle(
                degree_bound=max((rv.pack(es) for es in f.terms), default=0),
                mass=f.mass(),
                packed_terms=tuple(
                    (rv.pack(es), c) for es, c in sorted(f.terms.items())
                ),
            )
            for f in (p, q)
        ]
        for es, c in sparse.terms.items():
            got = extract_coefficient_polyspace(
                oracles, rv.pack(es), rv.domain_size()
            )
            assert got == c
    print(
        "PASS: carry identity on 100000 pairs, 10000 pack round-trips, three"
        " multipliers agree on 50 products"
    )


# ---------------------------------------------------------------------------
# guarantee 8: known values


def test_known_values():
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(complete_graph(4)) == 4
    assert count_perfect_matchings(complete_graph(4)) == 3
    assert count_perfect_matchings(cycle_graph(6)) == 2
    assert count_perfect_matchings(complete_bipartite(3, 3)) == 6
    assert count_perfect_matchings(complete_graph(6)) == 15
    assert tsp(cycle_graph(4)) == 4
    assert hamiltonian_cycle(petersen_graph()) is False
    print("PASS: eight textbook values reproduced")
