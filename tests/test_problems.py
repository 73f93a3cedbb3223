"""End-to-end graph drivers against their brute-force references."""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

import setpart.problems
from setpart.engine import (
    FamilyProvider,
    InfantSystem,
    PartitionInstance,
    validate_infant_system,
)
from setpart.graphcore import CorePair, Graph, average_degree, find_scattered_set
from setpart.oracle import (
    brute_chromatic,
    brute_count_pm,
    brute_domatic,
    brute_hamcycle,
    brute_list_coloring,
    brute_tsp,
)
from setpart.problems import (
    ColoringInstance,
    StatsRecorder,
    _color_families,
    _domatic_system,
    _segment_sizes,
    _tour_system,
    build_coloring_infants,
    chromatic_number,
    count_perfect_matchings,
    decide_coloring_with_preferences,
    decide_list_coloring,
    domatic_decision,
    find_coloring,
    hamiltonian_cycle,
    k_colorable,
    tsp,
)
from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    er_graph,
    path_graph,
    petersen_graph,
    random_regular,
    relabel_graph,
    star_graph,
)


def unit_weighted(g: Graph) -> Graph:
    return Graph.build(g.n, sorted(g.edges), {e: 1 for e in g.edges})


def hand_core(g: Graph, scattered, degree_cap, kernel=()) -> CorePair:
    return CorePair(
        A=frozenset(scattered),
        Y=frozenset(kernel),
        D=1,
        nu=1.0,
        mu=0.5,
        a=0.0,
        c=Fraction(1),
        alpha=24,
        beta=0.0,
        degree_cap=Fraction(degree_cap),
    )


@dataclass
class AnswerLog(StatsRecorder):
    """A recorder that also keeps every answer it is given."""

    answers: list = field(default_factory=list)

    def record_answer(self, answer):
        super().record_answer(answer)
        self.answers.append(answer)


def hub_graph(rim: int, closed: bool) -> Graph:
    """Hub 1 joined to every vertex of a path 2..rim+1, closed into a
    cycle when asked, with weights 1..11 varying by edge."""
    edges = [(v, v + 1) for v in range(2, rim + 1)] + [(1, v) for v in range(2, rim + 2)]
    if closed:
        edges.append((2, rim + 1))
    return Graph.build(rim + 1, edges, {e: (3 * e[0] + 5 * e[1]) % 11 + 1 for e in edges})


# ---------------------------------------------------------------------------
# coloring instances and preference solving


def test_coloring_instance_validation():
    g = path_graph(2)
    full = {1: frozenset({1, 2}), 2: frozenset({1, 2})}
    with pytest.raises(ValueError, match="positive"):
        ColoringInstance(g, 0, full, {1: 1, 2: 1})
    with pytest.raises(ValueError, match="no allowed"):
        ColoringInstance(g, 2, {1: frozenset(), 2: frozenset({1})}, {2: 1})
    with pytest.raises(ValueError, match="outside"):
        ColoringInstance(g, 2, {1: frozenset({3}), 2: frozenset({1})}, {1: 3, 2: 1})
    with pytest.raises(ValueError, match="preferred"):
        ColoringInstance(g, 2, full, {1: 1, 2: 3})


def test_preferences_on_triangle():
    g = complete_graph(3)
    full = {v: frozenset({1, 2, 3}) for v in g.vertices()}
    inst = ColoringInstance(g, 3, full, {1: 1, 2: 2, 3: 3})
    assert decide_coloring_with_preferences(inst)
    narrow = {v: frozenset({1, 2}) for v in g.vertices()}
    inst2 = ColoringInstance(g, 2, narrow, {v: 1 for v in g.vertices()})
    assert not decide_coloring_with_preferences(inst2)


def test_preference_choice_never_changes_the_answer(rng):
    for _ in range(15):
        g = er_graph(rng.randint(2, 6), 0.5, rng)
        k = rng.randint(1, 3)
        lists = {
            v: frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
            for v in g.vertices()
        }
        reference = brute_list_coloring(g, lists)
        for _ in range(3):
            preferred = {v: rng.choice(sorted(lists[v])) for v in g.vertices()}
            inst = ColoringInstance(g, k, lists, preferred)
            assert decide_coloring_with_preferences(inst) == reference


def test_list_coloring_matches_brute(rng):
    for _ in range(50):
        g = er_graph(rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]), rng)
        k = rng.randint(1, 4)
        lists = {
            v: frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))
            for v in g.vertices()
        }
        assert decide_list_coloring(g, k, lists) == brute_list_coloring(g, lists)


def test_fanless_colors_with_equal_lists_share_one_provider():
    g = cycle_graph(5)
    lists = {v: frozenset({1, 2, 3, 5}) for v in g.vertices()}
    lists[1] = frozenset({1, 2, 3, 4, 5})
    preferred = {v: 1 for v in g.vertices()}
    preferred[2] = 5
    inst = ColoringInstance(g, 5, lists, preferred)
    providers = _color_families(inst)
    # colors 2 and 3: nobody prefers them and every vertex allows them;
    # color 4 only vertex 1 allows; colors 1 and 5 have fans
    assert providers[1] is providers[2]
    assert len({id(p) for p in providers}) == 4
    for color, provider in enumerate(providers, start=1):
        allowed = [v for v in g.vertices() if color in lists[v]]
        fans = [v for v in g.vertices() if preferred[v] == color]
        want = sorted(
            (
                frozenset(s)
                for r in range(len(allowed) + 1)
                for s in itertools.combinations(allowed, r)
                if not any(u in g.adjacency[v] for u in s for v in s)
                and all(set(s) & g.closed_neighborhood(v) for v in fans)
            ),
            key=sorted,
        )
        assert [s for s, _w in provider.entries()] == want


def test_plain_three_coloring_encodes_its_fanless_colors_once(monkeypatch):
    solve = setpart.problems.solve_with_infants
    calls = []

    def recording(inst, system, space):
        calls.append((inst, solve(inst, system, space)))
        return calls[-1][1]

    monkeypatch.setattr(setpart.problems, "solve_with_infants", recording)
    assert k_colorable(petersen_graph(), 3, core=None)
    [(inst, answer)] = calls
    assert inst.providers[1] is inst.providers[2]
    _fans, second, third = answer.stats.term_counts
    assert second == third > 0


# ---------------------------------------------------------------------------
# coloring family systems


def test_coloring_infants_pass_validation_and_solve():
    g = Graph.build(14, [(1, 2), (2, 3)])
    core = hand_core(g, {1} | set(range(4, 15)), 2)
    assert core.verify(g) == []
    setup = build_coloring_infants(g, 2, {}, core)
    assert setup is not None and setup.fallback_reason is None
    assert setup.system.p == 1 and setup.system.q == 9
    assert setup.system.families == ((frozenset({1, 2, 4, 5}), 5),)
    engine_inst = PartitionInstance(
        g.n, 2, tuple(_color_families(setup.instance)), "decision", "partition"
    )
    assert validate_infant_system(engine_inst, setup.system).ok
    assert decide_coloring_with_preferences(setup.instance, setup.system)
    assert k_colorable(g, 2, core=core)
    assert not k_colorable(g, 1)


def test_coloring_infants_width_formula_on_cubic_graph():
    # 3-regular: degree cap 6 gives rows of width 7 and q = 7*(l+1)
    n = 320
    edges = [(v, v + 1) for v in range(1, n)] + [(1, n)]
    edges += [(v, v + n // 2) for v in range(1, n // 2 + 1)]
    g = Graph.build(n, edges)
    assert average_degree(g) == 3
    core = hand_core(g, find_scattered_set(g, 3), 6)
    assert core.verify(g) == []
    setup = build_coloring_infants(g, 3, {}, core)
    assert setup.fallback_reason is None
    assert setup.system.q == 7 * (3 + 1)
    assert setup.system.p >= 1
    assert setup.system.p * setup.system.q <= n


def test_coloring_infants_fall_back_on_small_graphs():
    g = cycle_graph(5)
    core = hand_core(g, find_scattered_set(g, 2), 4)
    setup = build_coloring_infants(g, 3, {}, core)
    assert setup.system.p == 0
    assert setup.fallback_reason == "too-few-shared-lists"
    # fallback still solves correctly
    assert decide_coloring_with_preferences(setup.instance, setup.system)


def test_kernel_conflicts_are_dead_guesses():
    g = path_graph(3)
    core = CorePair(
        A=frozenset(),
        Y=frozenset({1, 2}),
        D=1,
        nu=1.0,
        mu=0.5,
        a=0.0,
        c=Fraction(1),
        alpha=24,
        beta=0.0,
        degree_cap=Fraction(2),
    )
    assert build_coloring_infants(g, 2, {1: 1, 2: 1}, core) is None
    setup = build_coloring_infants(g, 2, {1: 1, 2: 2}, core)
    assert setup is not None
    assert setup.instance.graph.n == 1
    # vertex 3 loses color 2 to its kernel neighbor
    assert setup.instance.lists == {1: frozenset({1})}


def test_coloring_drops_a_misfitting_system():
    """Color 2 may take {1} alone, holding infant 1 without its relative 3:
    the solve drops the system and runs plain."""
    for g in (path_graph(4), complete_graph(3)):
        lists = {v: frozenset({1, 2}) for v in g.vertices()}
        inst = ColoringInstance(g, 2, lists, {v: 1 for v in g.vertices()})
        system = InfantSystem.build(g.n, [({1, 3}, 1)], 2)
        engine_inst = PartitionInstance(
            g.n, 2, tuple(_color_families(inst)), "decision", "partition"
        )
        assert not validate_infant_system(engine_inst, system).ok
        log = AnswerLog()
        got = decide_coloring_with_preferences(inst, system, stats=log)
        assert got == brute_list_coloring(g, lists)
        assert [a.stats.infant_p for a in log.answers] == [0]
        assert log.systems_used == 0


# ---------------------------------------------------------------------------
# chromatic number


def test_chromatic_knowns():
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(edgeless_graph(7)) == 1
    assert chromatic_number(Graph.build(0, [])) == 0
    assert chromatic_number(complete_bipartite(3, 4)) == 2


def test_k_colorable_shortcuts():
    g = complete_graph(3)
    assert k_colorable(g, 5)  # k >= n
    assert not k_colorable(g, 0)
    assert k_colorable(edgeless_graph(4), 1)
    assert not k_colorable(path_graph(2), 1)


def test_k_colorable_past_the_float_range_solves_plain():
    # q = w(k+1) = 343 * 3 passes 1024, where 2.0**q overflows a float
    g = complete_graph(172)
    assert setpart.problems._core(g, "auto", 2) is None
    assert not k_colorable(g, 2)


def test_chromatic_matches_brute(rng):
    for _ in range(30):
        g = er_graph(rng.randint(1, 8), rng.choice([0.2, 0.4, 0.7]), rng)
        assert chromatic_number(g) == brute_chromatic(g)


def test_chromatic_monotone_under_edge_addition(rng):
    for _ in range(15):
        n = rng.randint(3, 7)
        g = er_graph(n, 0.4, rng)
        before = chromatic_number(g)
        missing = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if not g.has_edge(u, v)
        ]
        if not missing:
            continue
        extra = rng.choice(missing)
        grown = Graph.build(n, sorted(g.edges) + [extra])
        assert chromatic_number(grown) >= before


def proper(g: Graph, colors: dict[int, int], k: int) -> bool:
    if set(colors) != set(g.vertices()):
        return False
    if any(not (1 <= c <= k) for c in colors.values()):
        return False
    return all(colors[u] != colors[v] for u, v in g.edges)


def test_find_coloring_produces_proper_colorings(rng):
    for _ in range(15):
        g = er_graph(rng.randint(1, 7), 0.5, rng)
        chi = brute_chromatic(g)
        assert find_coloring(g, max(chi - 1, 0) or 1) is None or chi <= 1
        colors = find_coloring(g, chi)
        assert colors is not None and proper(g, colors, chi)


def test_find_coloring_greedy_extension_branch():
    # star: plenty of colors relative to average degree, so only the hub
    # is solved recursively and the leaves extend greedily
    g = star_graph(4)
    colors = find_coloring(g, 4)
    assert colors is not None and proper(g, colors, 4)
    assert find_coloring(edgeless_graph(3), 2) == {1: 1, 2: 1, 3: 1}


# ---------------------------------------------------------------------------
# domatic partitions


def test_domatic_knowns():
    assert domatic_decision(complete_graph(3), 3)
    assert domatic_decision(star_graph(3), 2)
    assert not domatic_decision(star_graph(3), 3)  # k > min degree + 1
    assert domatic_decision(cycle_graph(4), 2)
    assert not domatic_decision(cycle_graph(5), 3)


def test_domatic_edge_cases():
    with pytest.raises(ValueError, match="positive"):
        domatic_decision(path_graph(2), 0)
    assert domatic_decision(path_graph(2), 1)
    assert not domatic_decision(Graph.build(0, []), 2)
    with pytest.raises(ValueError, match="limited"):
        domatic_decision(cycle_graph(21), 2)


def _all_dominating(g: Graph):
    out = []
    verts = sorted(g.vertices())
    for pick in range(1 << g.n):
        chosen = {verts[i] for i in range(g.n) if pick >> i & 1}
        covered = set()
        for v in chosen:
            covered |= g.closed_neighborhood(v)
        if covered == set(verts):
            out.append(frozenset(chosen))
    return out


def test_domatic_system_shape_and_validity():
    g = cycle_graph(6)
    system = _domatic_system(g)
    assert system.families == ((frozenset({1, 2, 3, 6}), 3),)
    assert system.q == g.max_degree() + 2
    provider = FamilyProvider.explicit("dominating", _all_dominating(g))
    inst = PartitionInstance(g.n, 2, (provider, provider), "decision", "partition")
    assert validate_infant_system(inst, system).ok


def test_domatic_matches_brute(rng):
    for _ in range(20):
        g = er_graph(rng.randint(1, 8), rng.choice([0.3, 0.6]), rng)
        for k in (2, 3):
            expect = brute_domatic(g, k)
            assert domatic_decision(g, k) == expect
            assert domatic_decision(g, k, infants=False) == expect
            assert domatic_decision(g, k, space="polyspace") == expect


# ---------------------------------------------------------------------------
# hamiltonian cycles


def test_segment_sizes_partition_largest_first():
    assert _segment_sizes(9, 3) == [3, 3, 3]
    assert _segment_sizes(10, 3) == [4, 3, 3]
    assert _segment_sizes(11, 3) == [4, 4, 3]
    assert _segment_sizes(5, 2) == [3, 2]


def test_hamcycle_knowns():
    assert hamiltonian_cycle(cycle_graph(5))
    assert hamiltonian_cycle(complete_graph(4))
    assert not hamiltonian_cycle(path_graph(4))
    assert not hamiltonian_cycle(star_graph(3))
    assert not hamiltonian_cycle(petersen_graph())
    assert brute_hamcycle(petersen_graph()) is False


def test_hamcycle_requires_three_vertices():
    with pytest.raises(ValueError, match="at least 3"):
        hamiltonian_cycle(path_graph(2))


def test_hamcycle_matches_brute(rng):
    for _ in range(20):
        g = er_graph(rng.randint(3, 8), rng.choice([0.4, 0.6, 0.9]), rng)
        expect = brute_hamcycle(g)
        assert hamiltonian_cycle(g) == expect
        assert hamiltonian_cycle(g, infants=False) == expect


def test_hamcycle_stats_track_guesses():
    stats = StatsRecorder()
    assert not hamiltonian_cycle(petersen_graph(), stats=stats)
    # 9 choices for the second pivot times 8 for the third
    assert stats.guesses["pivot-triple"] == 72
    assert stats.solves > 0


def test_hamcycle_drops_a_misfitting_system(monkeypatch, rng):
    """Segment 1 starts at infant 1 and need not hold vertex 2, its only
    relative: those guesses solve plain and the answer stands."""
    monkeypatch.setattr(
        setpart.problems,
        "_hamcycle_system",
        lambda g, sizes: InfantSystem.build(g.n, [({1, 2}, 1)], 2),
    )
    graphs = [cycle_graph(6), complete_graph(5), petersen_graph()]
    graphs += [er_graph(rng.randint(5, 7), 0.6, rng) for _ in range(6)]
    for space in ("dense", "polyspace"):
        log = AnswerLog()
        for g in graphs:
            if all(g.degree(v) >= 2 for v in g.vertices()):
                assert hamiltonian_cycle(g, space, log) == brute_hamcycle(g)
        plain = [a for a in log.answers if a.stats.infant_p == 0]
        assert 0 < len(plain) < log.solves


# ---------------------------------------------------------------------------
# travelling salesman


def test_tsp_knowns():
    assert tsp(unit_weighted(cycle_graph(4))) == 4
    k4 = complete_graph(4, weights=lambda u, v: u + v)
    assert tsp(k4) == 20 == brute_tsp(k4)
    assert tsp(cycle_graph(5)) == 5  # unweighted counts edges
    two_triangles = Graph.build(
        6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    )
    assert tsp(unit_weighted(two_triangles)) is None
    with pytest.raises(ValueError, match="at least 3"):
        tsp(unit_weighted(path_graph(2)))


def test_tsp_matches_brute(rng):
    for _ in range(12):
        n = rng.randint(3, 6)
        g = er_graph(n, rng.choice([0.5, 0.8, 1.0]), rng, max_weight=9)
        expect = brute_tsp(g)
        assert tsp(g) == expect
        assert tsp(g, core_pair=None) == expect


def test_tsp_time_does_not_grow_with_weight_magnitude(rng):
    """Weights up to 10^6 on 9 vertices: the (min,+) fold has no cost axis
    to sweep, so this runs as fast as small weights do."""
    expect = None
    while expect is None:  # redraw until the graph has a tour
        g = er_graph(9, 0.5, rng, max_weight=10**6)
        expect = brute_tsp(g)
    stats = StatsRecorder()
    assert tsp(g, stats=stats) == expect > 10**6
    assert stats.engines.get("sparse-fold", 0) > 0


def test_tsp_agrees_with_hamcycle_on_unit_weights(rng):
    for _ in range(12):
        n = rng.randint(3, 7)
        g = er_graph(n, rng.choice([0.4, 0.7]), rng)
        tour = tsp(g)
        if hamiltonian_cycle(g):
            assert tour == g.n
        else:
            assert tour is None


def test_tsp_spaces_agree(rng):
    for _ in range(6):
        g = er_graph(rng.randint(4, 5), 0.9, rng, max_weight=3)
        assert tsp(g, space="polyspace") == tsp(g) == brute_tsp(g)


def test_tsp_polyspace_on_wide_weights(rng):
    """Weights up to 10^4 on a cubic graph of 6: polyspace reads the least
    cost as one digit of a single signed sum, with no per-weight probes."""
    cubic = random_regular(6, 3, rng)
    g = Graph.build(6, sorted(cubic.edges), {e: rng.randint(1, 10**4) for e in cubic.edges})
    stats = StatsRecorder()
    assert tsp(g, space="polyspace", stats=stats) == brute_tsp(g) is not None
    assert stats.engines.get("polyspace", 0) > 0


def test_tsp_under_a_hub_kernel_core():
    """Hub 1 is the kernel and rim vertices 2 and 5 the scattered set: every
    ordered pivot pair is guessed with no successor, with 2, and with 5,
    and guesses that keep an anchor off the pivots solve under its row."""
    g = hub_graph(8, closed=True)
    core = hand_core(g, {2, 5}, 2, kernel={1})
    assert core.verify(g) == []
    expect = brute_tsp(g)
    assert expect is not None and tsp(g, core_pair=None) == expect
    for space in ("dense", "polyspace"):
        stats = StatsRecorder()
        assert tsp(g, space, stats, core_pair=core) == expect
        assert stats.guesses == {"pivot-tuple": 8 * 7 * 3}
        assert stats.systems_used > 0


def test_tour_system_keeps_the_anchors_that_fit():
    """Three anchors with rows of 3 would need 9 cells of an 8-vertex
    graph; the system keeps the first two, and tsp answers."""
    g = hub_graph(7, closed=False)
    core = hand_core(g, {2, 5, 8}, 2, kernel={1})
    assert core.verify(g) == []
    sizes = _segment_sizes(g.n, 3)
    system = _tour_system(g, (1, 3, 6), sizes, core, frozenset())
    assert [infant for _r, infant in system.families] == [2, 5]
    assert system.p * system.q <= g.n
    for space in ("dense", "polyspace"):
        stats = StatsRecorder()
        assert tsp(g, space, stats, core_pair=core) == brute_tsp(g) is not None
        assert stats.systems_used > 0


# ---------------------------------------------------------------------------
# counting perfect matchings


def test_matchings_knowns():
    assert count_perfect_matchings(complete_graph(4)) == 3
    assert count_perfect_matchings(cycle_graph(6)) == 2
    assert count_perfect_matchings(complete_bipartite(3, 3)) == 6
    assert count_perfect_matchings(edgeless_graph(2)) == 0
    assert count_perfect_matchings(Graph.build(0, [])) == 1
    assert count_perfect_matchings(path_graph(4)) == 1
    with pytest.raises(ValueError, match="even"):
        count_perfect_matchings(path_graph(3))


def test_matchings_double_factorial():
    expect = 1
    for m in range(1, 6):
        expect *= 2 * m - 1
        assert count_perfect_matchings(complete_graph(2 * m)) == expect


def test_matchings_match_brute(rng):
    for _ in range(20):
        n = rng.choice([4, 6, 8])
        g = er_graph(n, rng.choice([0.3, 0.5, 0.8]), rng)
        expect = brute_count_pm(g)
        assert count_perfect_matchings(g) == expect
        assert count_perfect_matchings(g, space="polyspace") == expect


def test_matchings_relabel_invariant(rng):
    for _ in range(10):
        n = rng.choice([6, 8])
        g = er_graph(n, 0.5, rng)
        targets = list(range(1, n + 1))
        rng.shuffle(targets)
        perm = dict(zip(range(1, n + 1), targets))
        assert count_perfect_matchings(relabel_graph(g, perm)) == count_perfect_matchings(g)


def test_matchings_mix_self_loop_pairs_and_cycles(rng):
    mixed = 0
    for _ in range(12):
        n = rng.choice([10, 12])
        g = er_graph(n, rng.choice([0.9, 0.95, 1.0]), rng)
        lm = setpart.problems._pair_multigraph(g)
        loops = any(u == v for u, v, _label in lm.edges)
        mixed += loops and bool(setpart.problems._label_consistent_cycles(lm))
        expect = brute_count_pm(g)
        assert count_perfect_matchings(g) == expect
        if n <= 10:
            assert count_perfect_matchings(g, space="polyspace") == expect
    assert mixed >= 6


def test_matchings_make_one_solve_and_no_guess():
    for g in (cycle_graph(6), complete_graph(8), edgeless_graph(2)):
        stats = StatsRecorder()
        count_perfect_matchings(g, stats=stats)
        assert stats.solves == 1
        assert stats.guesses == {}


# ---------------------------------------------------------------------------
# stats plumbing


def test_stats_recorder_aggregates():
    stats = StatsRecorder()
    domatic_decision(cycle_graph(6), 2, stats=stats)
    snap = stats.to_dict()
    assert snap["solves"] == 1
    assert snap["systems_used"] == 1
    assert snap["max_domain"] > 0
    assert sum(snap["engines"].values()) == 1


def test_stats_recorder_keeps_the_largest_sweep():
    dense, poly = StatsRecorder(), StatsRecorder()
    hamiltonian_cycle(cycle_graph(6), stats=dense)
    hamiltonian_cycle(cycle_graph(6), space="polyspace", stats=poly)
    assert dense.to_dict()["max_sweep"] == 0
    # the hamcycle system leaves some elements loose; the sweep spans them
    assert 1 < poly.to_dict()["max_sweep"] < 1 << 6
