"""Seeded inputs, oracle references and entry-point calls for each workload.

A workload is a list of strata.  One *round* draws one case from every
stratum, and the run solves rounds in order, so every round has the same
mix of sizes and drivers; only the drawn content changes with the seed.
Everything here depends on ``random.Random(seed)`` alone: the same seed
yields the same cases, and the program only ever receives the generated
``PartitionInstance`` and ``Graph`` objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from setpart import engine, oracle, problems
from setpart.engine import (
    FamilyProvider,
    InfantSystem,
    PartitionInstance,
    SolveAnswer,
    search_space_size,
)
from setpart.graphcore import Graph


# ---------------------------------------------------------------------------
# generators


def er_graph(rng: random.Random, n: int, p: float, max_weight: int = 0) -> Graph:
    """Erdos-Renyi G(n, p); a positive max_weight draws weights in 1..max_weight."""
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    if max_weight:
        return Graph.build(n, edges, {e: rng.randint(1, max_weight) for e in edges})
    return Graph.build(n, edges)


def cubic_graph(rng: random.Random, n: int, max_weight: int = 0) -> Graph:
    """3-regular graph from the pairing model, redrawn until simple."""
    while True:
        points = [v for v in range(1, n + 1) for _ in range(3)]
        rng.shuffle(points)
        edges: set[tuple[int, int]] = set()
        for i in range(0, len(points), 2):
            u, v = sorted(points[i : i + 2])
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            ordered = sorted(edges)
            if max_weight:
                weights = {e: rng.randint(1, max_weight) for e in ordered}
                return Graph.build(n, ordered, weights)
            return Graph.build(n, ordered)


def tour_candidate(rng: random.Random, n: int, p: float, max_weight: int) -> Graph:
    """Erdos-Renyi draw, redrawn until every vertex has degree at least 2.

    A vertex of degree below 2 rules a tour out before any solve runs, so
    such draws would time nothing of the min-weight path.
    """
    while True:
        g = er_graph(rng, n, p, max_weight)
        if all(g.degree(v) >= 2 for v in g.vertices()):
            return g


def random_families(
    rng: random.Random, n: int, k: int, sets: int, max_weight: int
) -> list[tuple[list[frozenset[int]], list[int]]]:
    """k families of ``sets`` random subsets of 1..n, weights in 0..max_weight."""
    families = []
    for _ in range(k):
        members, weights = [], []
        for _ in range(sets):
            members.append(frozenset(rng.sample(range(1, n + 1), rng.randint(0, n))))
            weights.append(rng.randint(0, max_weight))
        families.append((members, weights))
    return families


def plant_pair_system(rng: random.Random, n: int, p: int, families):
    """A valid system of p pairs (q=2), with every set patched to respect it.

    A set holding a designated element without its partner gains the
    partner, which is what the system's fifth property demands.
    """
    pool = rng.sample(range(1, n + 1), 2 * p)
    pairs = []
    for i in range(p):
        pair = frozenset(pool[2 * i : 2 * i + 2])
        pairs.append((pair, rng.choice(sorted(pair))))
    patched = []
    for sets, weights in families:
        fixed = []
        for members in sets:
            grown = set(members)
            for pair, infant in pairs:
                if infant in grown and len(grown & pair) < 2:
                    grown |= pair
            fixed.append(frozenset(grown))
        patched.append((fixed, weights))
    return InfantSystem.build(n, pairs, 2), patched


# ---------------------------------------------------------------------------
# cases


@dataclass
class Case:
    """One call (or, for planted instances, one pair of calls) to time.

    ``data`` holds plain values; :meth:`prepare` turns them into fresh
    program objects before each timed call, so no cached graph property
    carries over from one call to the next.
    """

    stratum: str
    entry: str
    data: dict
    expected: object = None
    domain_bounds: tuple[int, ...] = ()

    def prepare(self):
        d = self.data
        if self.entry == "planted":
            providers = tuple(
                FamilyProvider.explicit(f"family-{i + 1}", sets, weights)
                for i, (sets, weights) in enumerate(d["families"])
            )
            inst = PartitionInstance(d["n"], len(providers), providers, d["objective"])
            return inst, InfantSystem.build(d["n"], d["pairs"], 2)
        return Graph.build(d["n"], d["edges"], d["weights"]), None

    def call(self, prepared, recorder: problems.StatsRecorder):
        """Run the public entry point; return (answer, SolveAnswers seen).

        Entry points are looked up on their module at call time, so the
        traced run's wrappers see these calls too.
        """
        obj, system = prepared
        if self.entry == "planted":
            space = self.data["space"]
            plain = engine.solve_simple(obj, space=space)
            infants = engine.solve_with_infants(obj, system, space=space)
            return (_fields(obj, plain), _fields(obj, infants)), (plain, infants)
        driver = getattr(problems, self.entry)
        return driver(obj, *self.data["args"], stats=recorder), ()

    def reference(self):
        """The oracle's answer, plus the paper's domain bounds for planted cases."""
        obj, system = self.prepare()
        if self.entry == "planted":
            feasible, count, best = oracle.brute_partition(obj)
            want = _select(obj.objective, feasible, count, best)
            bounds = (
                search_space_size(obj, InfantSystem.empty(obj.n)).domain_bound,
                search_space_size(obj, system).domain_bound,
            )
            return (want, want), bounds
        return ORACLES[self.entry](obj, *self.data["args"]), ()


ORACLES = {
    "chromatic_number": oracle.brute_chromatic,
    "domatic_decision": oracle.brute_domatic,
    "count_perfect_matchings": oracle.brute_count_pm,
    "hamiltonian_cycle": oracle.brute_hamcycle,
    "tsp": oracle.brute_tsp,
}


def _select(objective: str, feasible: bool, count: int, best):
    if objective == "count":
        return (feasible, count)
    if objective == "min-weight":
        return (feasible, best)
    return (feasible,)


def _fields(inst: PartitionInstance, answer: SolveAnswer):
    return _select(inst.objective, answer.feasible, answer.count, answer.min_weight)


def _graph_data(g: Graph) -> dict:
    return {
        "n": g.n,
        "edges": sorted(g.edges),
        "weights": dict(g.weights) if g.weights is not None else None,
    }


# ---------------------------------------------------------------------------
# workloads

# Strata are chosen so that no call costs more than about 0.4 s here and a
# run holds 300-500 calls: a run's median, tail and throughput then rest
# on many samples, not on how many rare 1-5 s instances a seed draws.
# Repeated strata put the median and the tail rank of a run inside one
# cluster of call times instead of on the gap between two.
SETS_PER_FAMILY = 6
MAX_PLANTED_WEIGHT = 4
TSP_WEIGHT = 10**4


def _planted(space: str, objective: str, n: int, k: int, p: int):
    def draw(rng: random.Random) -> Case:
        max_weight = MAX_PLANTED_WEIGHT if objective == "min-weight" else 0
        families = random_families(rng, n, k, SETS_PER_FAMILY, max_weight)
        system, families = plant_pair_system(rng, n, p, families)
        data = {
            "space": space,
            "objective": objective,
            "n": n,
            "families": families,
            "pairs": list(system.families),
        }
        return Case(f"{space}/{objective}/n{n}/k{k}/p{p}", "planted", data)

    return draw


def _planted_strata(space: str, shapes: dict) -> tuple:
    """One stratum per (n, k, p) listed under each objective."""
    return tuple(
        _planted(space, objective, n, k, p)
        for objective, triples in shapes.items()
        for n, k, p in triples
    )


def _driver(entry: str, label: str, make_graph, *args):
    """Stratum calling ``setpart.problems.<entry>(graph, *args)``."""

    def draw(rng: random.Random) -> Case:
        return Case(label, entry, {**_graph_data(make_graph(rng)), "args": args})

    return draw


def _cubic(n: int, max_weight: int = 0):
    return lambda rng: cubic_graph(rng, n, max_weight)


def _er(n: int, p: float):
    return lambda rng: er_graph(rng, n, p)


# planted instances solved by the dense path: NTT work in polyring
PLANTED_DENSE = _planted_strata(
    "dense",
    {
        "decision": [(4, 3, 1), (6, 2, 1), (6, 2, 2)],
        "count": [(4, 3, 1), (6, 2, 1), (6, 2, 2)],
        "min-weight": [(4, 2, 1), (4, 2, 1)],
    },
)
# the same generator solved in polyspace: _product_eval_table and _geometric
PLANTED_POLYSPACE = _planted_strata(
    "polyspace",
    {
        "decision": [(5, 3, 1), (6, 2, 2), (6, 3, 3), (7, 2, 1)],
        "count": [(5, 3, 1), (6, 3, 3), (7, 2, 1)],
        "min-weight": [(4, 2, 1), (5, 2, 1)],
    },
)
# decision and count drivers: engine._fold_sparse and the guess loops
SPARSE_DRIVERS = (
    *[
        _driver(
            "hamiltonian_cycle",
            "hamcycle/cubic-12..16",
            lambda rng: cubic_graph(rng, rng.choice((12, 14, 16))),
        )
    ]
    * 2,
    _driver("domatic_decision", "domatic-2/cubic-8", _cubic(8), 2),
    _driver("count_perfect_matchings", "matchings/er-14", _er(14, 0.4)),
    _driver("chromatic_number", "chromatic/er-9", _er(9, 0.3)),
    *[_driver("chromatic_number", "chromatic/cubic-10", _cubic(10))] * 2,
    _driver("domatic_decision", "domatic-3/cubic-8", _cubic(8), 3),
)
# tsp with weights up to 10^4: the per-weight probe readout in _solve_encoded.
# The five cubic graphs of 6 hold the median rank of the drivers workload, so
# its instance_p50_ms times tsp on those graphs, never a fold-bound call.
TSP_WIDE_WEIGHTS = (
    *[_driver("tsp", "tsp/cubic-6", _cubic(6, TSP_WEIGHT))] * 5,
    *[_driver("tsp", "tsp/cubic-8", _cubic(8, TSP_WEIGHT))] * 2,
    _driver("tsp", "tsp/er-7", lambda rng: tour_candidate(rng, 7, 0.45, TSP_WEIGHT)),
)

ROUNDS = 32  # rounds generated per seed; a timed run cycles them if it needs more
TRACE_ROUNDS = 2  # rounds in one traced pass

# Two workloads, not four: the pure-Python driver calls move with the
# machine's speed phases, and only a longer run narrows that; 48 runs of
# two workloads fit the time a full comparison may take at 45 s a run.
WORKLOADS = {
    "planted": PLANTED_DENSE + PLANTED_POLYSPACE,
    "drivers": SPARSE_DRIVERS + TSP_WIDE_WEIGHTS,
}


def build(name: str, seed: int) -> list[list[Case]]:
    """The workload's rounds for this seed: one case per stratum each."""
    rng = random.Random(f"{name}/{seed}")
    return [[draw(rng) for draw in WORKLOADS[name]] for _ in range(ROUNDS)]
