"""Graph type, file format, and the sparse-graph decomposition routines."""

import random
from fractions import Fraction

import pytest

from setpart.graphcore import (
    CorePair,
    Graph,
    GraphFormatError,
    average_degree,
    complement_matching,
    find_core_pair,
    find_degree_threshold,
    find_scattered_set,
    greedy_independent_set,
    induced_subgraph,
    parse_graph,
    square,
)
from conftest import (
    complete_graph,
    cycle_graph,
    edgeless_graph,
    er_graph,
    graph_file_text,
    path_graph,
    random_regular,
    star_graph,
)


# ---------------------------------------------------------------------------
# Graph basics


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.build(3, [(1, 1)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        Graph.build(3, [(1, 2), (2, 1)])


def test_build_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError, match="bad edge"):
        Graph.build(2, [(1, 3)])


def test_weights_must_cover_edge_set():
    with pytest.raises(ValueError, match="weights must cover"):
        Graph(2, frozenset({(1, 2)}), {})


def test_weights_must_be_nonnegative_ints():
    with pytest.raises(ValueError):
        Graph.build(2, [(1, 2)], {(1, 2): -1})
    with pytest.raises(ValueError):
        Graph.build(2, [(1, 2)], {(1, 2): True})


def test_adjacency_and_degrees():
    g = path_graph(3)
    assert g.neighbors(2) == frozenset({1, 3})
    assert g.closed_neighborhood(2) == frozenset({1, 2, 3})
    assert g.degree(1) == 1
    assert g.max_degree() == 2
    assert g.has_edge(2, 1) and not g.has_edge(1, 3)


def test_edge_weight_lookup_is_symmetric():
    g = Graph.build(2, [(1, 2)], {(2, 1): 7})
    assert g.edge_weight(1, 2) == 7
    assert g.edge_weight(2, 1) == 7
    with pytest.raises(ValueError, match="no weights"):
        path_graph(2).edge_weight(1, 2)


# ---------------------------------------------------------------------------
# elementary operations


def test_average_degree_values():
    assert average_degree(complete_graph(3)) == 2
    assert average_degree(edgeless_graph(5)) == 0
    assert average_degree(star_graph(4)) == Fraction(8, 5)
    assert average_degree(Graph.build(0, [])) == 0


def test_square_examples():
    assert square(path_graph(3)).edges == frozenset({(1, 2), (2, 3), (1, 3)})
    k3 = complete_graph(3)
    assert square(k3).edges == k3.edges
    assert square(cycle_graph(5)).edges == complete_graph(5).edges


def _bfs_within_two(g: Graph) -> frozenset:
    edges = set()
    for u in g.vertices():
        reach = set(g.adjacency[u])
        for w in g.adjacency[u]:
            reach |= g.adjacency[w]
        reach.discard(u)
        for v in reach:
            if u < v:
                edges.add((u, v))
    return frozenset(edges)


def test_square_matches_bfs_on_random_graphs(rng):
    for _ in range(30):
        n = rng.randint(1, 50)
        g = er_graph(n, rng.choice([0.05, 0.1, 0.3]), rng)
        assert square(g).edges == _bfs_within_two(g)


def test_greedy_independent_set_examples():
    assert greedy_independent_set(complete_graph(3)) == frozenset({1})
    assert greedy_independent_set(edgeless_graph(4)) == frozenset({1, 2, 3, 4})
    assert greedy_independent_set(cycle_graph(6)) == frozenset({1, 3, 5})


def test_greedy_independent_set_bound(rng):
    for _ in range(500):
        n = rng.randint(1, 25)
        g = er_graph(n, rng.choice([0.1, 0.3, 0.6]), rng)
        chosen = greedy_independent_set(g)
        for u in chosen:
            assert not (g.adjacency[u] & chosen)
        assert len(chosen) * (g.max_degree() + 1) >= g.n


def test_induced_subgraph_relabels_and_keeps_weights():
    g = Graph.build(4, [(1, 2), (2, 3), (3, 4)], {(1, 2): 5, (2, 3): 6, (3, 4): 7})
    sub, back = induced_subgraph(g, [2, 3, 4])
    assert sub.n == 3
    assert back == {1: 2, 2: 3, 3: 4}
    assert sub.edges == frozenset({(1, 2), (2, 3)})
    assert sub.edge_weight(1, 2) == 6


# ---------------------------------------------------------------------------
# degree threshold


def test_threshold_trivial_when_maxdeg_at_most_m():
    g = path_graph(5)
    assert find_degree_threshold(g, 3, 1) == 3
    assert all(g.degree(v) <= 3 for v in g.vertices())


def test_threshold_scan_returns_first_feasible():
    # K5: |V_{>D}| * alpha * D <= 2|E| = 20 already holds at D=1
    assert find_degree_threshold(complete_graph(5), 1, 1) == 1
    assert find_degree_threshold(star_graph(9), 1, 1) == 1


def test_threshold_rejects_bad_parameters():
    with pytest.raises(ValueError):
        find_degree_threshold(path_graph(3), 0, 1)
    with pytest.raises(ValueError):
        find_degree_threshold(path_graph(3), 1, Fraction(1, 2))


def test_threshold_range_and_density_bound(rng):
    import math

    for _ in range(60):
        n = rng.randint(2, 40)
        g = er_graph(n, rng.choice([0.1, 0.3, 0.5]), rng)
        m = rng.randint(1, 3)
        alpha = rng.choice([1, 2, 5])
        d_cut = find_degree_threshold(g, m, alpha)
        assert m <= d_cut <= math.floor(m * math.exp(alpha + 1) + 1)
        high = sum(1 for v in g.vertices() if g.degree(v) > d_cut)
        assert high * alpha * d_cut <= 2 * len(g.edges)


# ---------------------------------------------------------------------------
# scattered sets


def test_scattered_set_examples():
    assert find_scattered_set(cycle_graph(6), 2) == frozenset({1, 4})
    assert find_scattered_set(edgeless_graph(3), 1) == frozenset({1, 2, 3})
    assert find_scattered_set(complete_graph(4), 3) == frozenset({1})


def test_scattered_set_rejects_dense_input():
    with pytest.raises(ValueError, match="average degree"):
        find_scattered_set(complete_graph(5), 1)


def test_scattered_set_properties(rng):
    for _ in range(60):
        n = rng.randint(1, 30)
        g = er_graph(n, rng.choice([0.05, 0.1, 0.2]), rng)
        bound = max(average_degree(g), Fraction(1))
        chosen = sorted(find_scattered_set(g, bound))
        for v in chosen:
            assert g.degree(v) <= 2 * bound
        # closed neighborhoods pairwise disjoint
        for i, u in enumerate(chosen):
            for v in chosen[i + 1:]:
                assert not (g.closed_neighborhood(u) & g.closed_neighborhood(v))
        if g.max_degree() >= 1:
            need = Fraction(g.n, 6 * g.max_degree() * bound)
            assert len(chosen) >= need.__ceil__()


# ---------------------------------------------------------------------------
# core pairs


def test_core_pair_on_edgeless_graph():
    g = edgeless_graph(100)
    core = find_core_pair(g, nu=1, mu=0.5, a=0, c=Fraction(1, 2))
    assert core.Y == frozenset()
    assert core.verify(g) == []
    assert len(core.A) >= 1


def test_core_pair_on_c12():
    g = cycle_graph(12)
    core = find_core_pair(g, nu=1, mu=0.9, a=0, c=Fraction(1, 10))
    assert core.Y == frozenset()
    assert core.verify(g) == []


def test_core_pair_parameter_validation():
    g = cycle_graph(12)
    with pytest.raises(ValueError, match="mu"):
        find_core_pair(g, nu=1, mu=1.0, a=0, c=Fraction(1, 2))
    with pytest.raises(ValueError, match="nu"):
        find_core_pair(g, nu=0.5, mu=0.5, a=0, c=Fraction(1, 2))
    with pytest.raises(ValueError, match="a must"):
        find_core_pair(g, nu=1, mu=0.5, a=-1, c=Fraction(1, 2))
    with pytest.raises(ValueError, match="c must"):
        find_core_pair(g, nu=1, mu=0.5, a=0, c=Fraction(3, 2))


def test_core_pair_records_parameters(rng):
    g = random_regular(300, 3, rng)
    core = find_core_pair(g, nu=1, mu=0.5, a=0, c=Fraction(1, 4))
    assert core.verify(g) == []
    assert core.alpha >= 1
    assert core.beta >= 0.0
    assert core.D >= 1
    assert 2 * len(core.Y) <= len(core.A) <= core.c * g.n


def test_core_pair_verify_flags_planted_violations():
    g = cycle_graph(12)
    bad = CorePair(
        A=frozenset({1, 2}),
        Y=frozenset({2, 4, 6}),
        D=2,
        nu=1.0,
        mu=0.5,
        a=0.0,
        c=Fraction(1, 10),
        alpha=96,
        beta=0.0,
        degree_cap=Fraction(4),
    )
    problems = bad.verify(g)
    assert any("intersect" in msg for msg in problems)
    assert any("2|Y|" in msg for msg in problems)
    assert any("c*n" in msg for msg in problems)


# ---------------------------------------------------------------------------
# complement matching


def test_complement_matching_examples():
    assert complement_matching(cycle_graph(4)) == [(1, 3), (2, 4)]
    assert complement_matching(complete_graph(4)) == []
    assert len(complement_matching(cycle_graph(6))) == 3


def test_complement_matching_rejects_odd_or_large():
    with pytest.raises(ValueError, match="even"):
        complement_matching(path_graph(3))
    with pytest.raises(ValueError, match="limited"):
        complement_matching(edgeless_graph(32))


def _max_matching_size(edges: list, n: int) -> int:
    best = 0
    edges = list(edges)

    def walk(idx: int, used: set, size: int):
        nonlocal best
        best = max(best, size)
        for i in range(idx, len(edges)):
            u, v = edges[i]
            if u not in used and v not in used:
                walk(i + 1, used | {u, v}, size + 1)

    walk(0, set(), 0)
    return best


def test_complement_matching_is_maximum(rng):
    for _ in range(40):
        n = rng.choice([4, 6, 8, 10, 12])
        g = er_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
        pairs = complement_matching(g)
        comp = [
            (u, v)
            for u in g.vertices()
            for v in range(u + 1, n + 1)
            if v not in g.adjacency[u]
        ]
        comp_set = set(comp)
        seen = set()
        for u, v in pairs:
            assert (min(u, v), max(u, v)) in comp_set
            assert u not in seen and v not in seen
            seen |= {u, v}
        assert len(pairs) == _max_matching_size(comp, n)


# ---------------------------------------------------------------------------
# file format


def test_parse_round_trip(rng):
    for max_w in (0, 9):
        g = er_graph(7, 0.4, rng, max_weight=max_w)
        parsed = parse_graph(graph_file_text(g))
        assert parsed.n == g.n
        assert parsed.edges == g.edges
        assert parsed.weights == g.weights


def test_parse_errors_carry_line_numbers():
    cases = [
        ("p 2 1\ne 1 2\ne 1 2", 3, "duplicate edge"),
        ("e 1 2\np 2 1", 1, "before 'p'"),
        ("p 2 x", 1, "integers"),
        ("p 2 1\ne 1 1", 2, "self-loop"),
        ("p 2 1\ne 1 3", 2, "outside"),
        ("p 2 2\ne 1 2", 2, "declares 2 edges"),
        ("p 3 2\ne 1 2 4\ne 2 3", 3, "agree on carrying weights"),
        ("p 2 1\nq 1 2", 2, "unknown record"),
        ("", 1, "missing 'p' header"),
        ("p 2 1\ne 1 2 -3", 2, "nonnegative"),
    ]
    for text, lineno, fragment in cases:
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert err.value.lineno == lineno
        assert fragment in str(err.value)


def test_parse_allows_blank_lines_and_zero_edges():
    g = parse_graph("\np 3 0\n\n")
    assert g.n == 3 and not g.edges
