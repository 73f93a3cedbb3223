"""Graph problem drivers built on the partition engine.

Each driver reduces its problem to one or more (V,k,F)-partition solves:
coloring partitions vertices into independent sets satisfying list and
preference constraints, domatic partitions into dominating sets, tours
partition into pivot-anchored path segments, and matching counts
partition the pairs of a contracted multigraph into cycles and
self-loops.  Wherever the graph is sparse enough the drivers construct a
family system whose designated elements prune the encoded search space;
every guess loop is exhaustive, so wrong guesses only shrink the
feasible set and never the answer.
Every solve goes through ``_solve``: a system under which some set holds
an infant alone in its row is dropped, and that solve runs plain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import (
    FamilyProvider,
    InfantSystem,
    PartitionInstance,
    RowNormalizationError,
    SolveAnswer,
    solve_simple,
    solve_with_infants,
    validate_infant_system,  # noqa: F401  (bound here for bench/tracer.py)
)
from .graphcore import (
    CoreInfeasibleError,
    CorePair,
    CoreSearchError,
    Graph,
    LabeledMultigraph,
    average_degree,
    complement_matching,
    find_core_pair,
    greedy_independent_set,
    induced_subgraph,
    square,
)
__all__ = [
    "ColoringInstance",
    "PreferenceSetup",
    "StatsRecorder",
    "build_coloring_infants",
    "chromatic_number",
    "count_perfect_matchings",
    "decide_coloring_with_preferences",
    "decide_list_coloring",
    "domatic_decision",
    "find_coloring",
    "hamiltonian_cycle",
    "k_colorable",
    "tsp",
]

SUBSET_SCAN_LIMIT = 20


@dataclass
class StatsRecorder:
    """Aggregates per-solve and per-guess counters across a driver run."""

    guesses: dict[str, int] = field(default_factory=dict)
    solves: int = 0
    engines: dict[str, int] = field(default_factory=dict)
    max_domain: int = 0
    systems_used: int = 0
    max_sweep: int = 0

    def record_guess(self, kind: str):
        self.guesses[kind] = self.guesses.get(kind, 0) + 1

    def record_answer(self, answer: SolveAnswer):
        self.solves += 1
        engine = answer.stats.engine
        self.engines[engine] = self.engines.get(engine, 0) + 1
        self.max_domain = max(self.max_domain, answer.stats.domain)
        self.max_sweep = max(self.max_sweep, answer.stats.sweep)
        if answer.stats.infant_p:
            self.systems_used += 1

    def to_dict(self) -> dict:
        return {
            "guesses": dict(self.guesses),
            "solves": self.solves,
            "engines": dict(self.engines),
            "max_domain": self.max_domain,
            "systems_used": self.systems_used,
            "max_sweep": self.max_sweep,
        }


def _note_guess(stats: StatsRecorder | None, kind: str):
    if stats is not None:
        stats.record_guess(kind)


def _solve(
    inst: PartitionInstance,
    system: InfantSystem | None,
    space: str,
    stats: StatsRecorder | None,
) -> SolveAnswer:
    """One driver solve under the system (None: plain), recorded in ``stats``.

    The one misfit policy: on ``RowNormalizationError`` the system is
    dropped and the solve runs plain.  The engine's row check is all the
    grid encoding needs, so a system that passes it answers exactly.
    """
    if system is None:
        system = InfantSystem.empty(inst.n)
    try:
        answer = solve_with_infants(inst, system, space)
    except RowNormalizationError:
        answer = solve_simple(inst, space)
    if stats is not None:
        stats.record_answer(answer)
    return answer


# ---------------------------------------------------------------------------
# coloring


@dataclass(frozen=True, eq=False)
class ColoringInstance:
    """List-coloring instance with one preferred color per vertex."""

    graph: Graph
    k: int
    lists: dict[int, frozenset[int]]
    preferred: dict[int, int]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        for v in self.graph.vertices():
            colors = self.lists.get(v)
            if not colors:
                raise ValueError(f"vertex {v} has no allowed colors")
            if any(not (1 <= c <= self.k) for c in colors):
                raise ValueError(f"vertex {v} allows a color outside 1..{self.k}")
            if self.preferred.get(v) not in colors:
                raise ValueError(f"vertex {v}: preferred color not in its list")


def _independent_subsets(g: Graph, allowed: list[int]) -> list[frozenset[int]]:
    """All independent subsets of ``allowed`` (including the empty set)."""
    out: list[frozenset[int]] = []
    chosen: list[int] = []

    def walk(idx: int):
        if idx == len(allowed):
            out.append(frozenset(chosen))
            return
        v = allowed[idx]
        walk(idx + 1)
        if not any(u in g.adjacency[v] for u in chosen):
            chosen.append(v)
            walk(idx + 1)
            chosen.pop()

    walk(0)
    return out


def _color_families(inst: ColoringInstance) -> list[FamilyProvider]:
    """Family per color: independent, list-respecting, dominating its fans.

    A set enters family i only if every vertex whose preferred color is i
    has a closed-neighborhood witness inside the set; the empty set thus
    belongs exactly to the colors nobody prefers.  Colors nobody prefers
    that allow the same vertices share one provider (labeled by the first
    of them), which the engine encodes once.
    """
    g = inst.graph
    independent: dict[tuple[int, ...], list[frozenset[int]]] = {}
    fanless: dict[tuple[int, ...], FamilyProvider] = {}
    providers = []
    for color in range(1, inst.k + 1):
        allowed = tuple(v for v in g.vertices() if color in inst.lists[v])
        fans = [v for v in g.vertices() if inst.preferred[v] == color]
        if not fans and allowed in fanless:
            providers.append(fanless[allowed])
            continue
        if allowed not in independent:
            independent[allowed] = sorted(_independent_subsets(g, list(allowed)), key=sorted)
        sets = [
            cand
            for cand in independent[allowed]
            if all(cand & g.closed_neighborhood(v) for v in fans)
        ]
        provider = FamilyProvider.explicit(f"color-{color}", sets)
        if not fans:
            fanless[allowed] = provider
        providers.append(provider)
    return providers


def decide_coloring_with_preferences(
    inst: ColoringInstance,
    system: InfantSystem | None = None,
    space: str = "dense",
    stats: StatsRecorder | None = None,
) -> bool:
    """True iff a proper list coloring exists.

    Preference constraints never change the answer: any proper list
    coloring can be recolored, one vertex at a time, until every vertex
    sees its preferred color in its closed neighborhood.  A system that
    does not fit the families is dropped by ``_solve``.
    """
    engine_inst = PartitionInstance(
        inst.graph.n, inst.k, tuple(_color_families(inst)), "decision", "partition"
    )
    return _solve(engine_inst, system, space, stats).feasible


def decide_list_coloring(
    g: Graph,
    k: int,
    lists: dict[int, frozenset[int]],
    space: str = "dense",
    stats: StatsRecorder | None = None,
) -> bool:
    """List colorability with the default preference of each list's minimum."""
    inst = ColoringInstance(
        g, k, dict(lists), {v: min(lists[v]) for v in g.vertices()}
    )
    return decide_coloring_with_preferences(inst, None, space, stats)


@dataclass(frozen=True)
class PreferenceSetup:
    """Everything needed to solve one kernel-coloring guess.

    ``instance`` lives on the graph without the kernel Y, relabeled to
    1..n'; ``back`` maps its vertex ids to the original graph.  When the
    scattered set cannot fill even one block group, ``system`` is empty
    and ``fallback_reason`` says why.
    """

    instance: ColoringInstance
    system: InfantSystem
    back: dict[int, int]
    fallback_reason: str | None = None


def build_coloring_infants(
    g: Graph, k: int, y_coloring: dict[int, int], core: CorePair
) -> PreferenceSetup | None:
    """Lists, preferences, and a family system for one kernel coloring.

    Returns None when the kernel coloring is a dead guess (an internal
    conflict or an emptied list).  Vertices of the scattered set sharing
    the most common list are cut into l+1 equal blocks; block i prefers
    the list's i-th color, the last block supplies the infants, and
    family j spans the closed neighborhoods of every block's j-th vertex.
    Any set colored c that contains infant r_j must also dominate the
    vertex of block index(c) in column j, which lands a second family
    member in the set.
    """
    kernel = core.Y
    for u, v in g.edges:
        if u in kernel and v in kernel and y_coloring[u] == y_coloring[v]:
            return None
    sub, back = induced_subgraph(g, [v for v in g.vertices() if v not in kernel])
    fwd = {old: new for new, old in back.items()}
    all_colors = frozenset(range(1, k + 1))
    lists: dict[int, frozenset[int]] = {}
    for w in sub.vertices():
        banned = {
            y_coloring[u] for u in g.adjacency[back[w]] if u in kernel
        }
        colors = all_colors - banned
        if not colors:
            return None
        lists[w] = colors
    preferred = {w: min(lists[w]) for w in sub.vertices()}

    def fallback(reason: str) -> PreferenceSetup:
        inst = ColoringInstance(sub, k, lists, dict(preferred))
        return PreferenceSetup(inst, InfantSystem.empty(sub.n), back, reason)

    scattered = sorted(fwd[a] for a in core.A)
    if not scattered:
        return fallback("scattered-set-empty")
    groups: dict[tuple[int, ...], list[int]] = {}
    for w in scattered:
        groups.setdefault(tuple(sorted(lists[w])), []).append(w)
    shared_list = min(groups, key=lambda key: (-len(groups[key]), key))
    members = sorted(groups[shared_list])
    l = len(shared_list)
    usable = min(len(members), len(scattered) // (1 << k))
    usable -= usable % (l + 1)
    if usable < l + 1:
        return fallback("too-few-shared-lists")
    blocks = [
        members[i * (usable // (l + 1)) : (i + 1) * (usable // (l + 1))]
        for i in range(l + 1)
    ]
    for i in range(l):
        for w in blocks[i]:
            preferred[w] = shared_list[i]
    row_width = math.floor(core.degree_cap) + 1
    q = row_width * (l + 1)
    p = usable // (l + 1)
    if p * q > sub.n:
        return fallback("families-exceed-ground-set")
    families = []
    for j in range(p):
        union: set[int] = set()
        for i in range(l + 1):
            union |= sub.closed_neighborhood(blocks[i][j])
        families.append((frozenset(union), blocks[l][j]))
    if any(len(r) > q for r, _i in families):
        return fallback("family-width-exceeded")
    inst = ColoringInstance(sub, k, lists, preferred)
    system = InfantSystem.build(sub.n, families, q)
    return PreferenceSetup(inst, system, back, None)


def _core(g: Graph, core: CorePair | str | None, colors: int | None) -> CorePair | None:
    """``core`` if a CorePair, a searched pair for "auto", else None (solve plain).

    The search asks mu = (1 - 2^-q)^(1/root) with rows of w = floor(2d) + 1
    (d the average degree, at least 1): q = w(k+1) and root = 2^k (k+1)
    for k ``colors``, q = w and root = 3 for a tour (``colors`` None).
    A failed search gives None.
    """
    if isinstance(core, CorePair):
        return core
    if core != "auto":
        return None
    w = math.floor(2 * max(average_degree(g), Fraction(1))) + 1
    if colors is None:
        q, root, nu, a, c = w, 3, 1, 1, Fraction(1, 2 * w)
    else:
        q = w * (colors + 1)
        root = (1 << colors) * (colors + 1)
        nu, a, c = max(colors, 1), 0, Fraction(1, 2 * (w + 1))
    mu = (1.0 - 2.0**-q) ** (1.0 / root)
    if not (0.0 < mu < 1.0):
        return None
    try:
        return find_core_pair(g, nu=nu, mu=mu, a=a, c=c)
    except (CoreSearchError, CoreInfeasibleError):
        return None


def k_colorable(
    g: Graph,
    k: int,
    space: str = "dense",
    stats: StatsRecorder | None = None,
    core: CorePair | str | None = "auto",
) -> bool:
    """Decision: does a proper k-coloring exist.

    Dispatch: plenty of colors (k at least twice the average degree)
    recurses on the high-degree vertices alone, since the rest extend
    greedily; otherwise a kernel coloring is guessed and each guess is
    decided as a list coloring with preferences, with a family system
    when the scattered set supports one.
    """
    if g.n == 0 or k >= g.n:
        return True
    if k < 1:
        return False
    if not g.edges:
        return True
    if k == 1:
        return False
    d = average_degree(g)
    if Fraction(k) >= 2 * d:
        keep = [v for v in g.vertices() if g.degree(v) >= k]
        sub, _back = induced_subgraph(g, keep)
        # vertices below degree k always find a vacant color afterwards
        return k_colorable(sub, k, space, stats, core)
    core_pair = _core(g, core, k)
    if core_pair is None:
        full = frozenset(range(1, k + 1))
        return decide_list_coloring(g, k, {v: full for v in g.vertices()}, space, stats)
    kernel = sorted(core_pair.Y)
    for assignment in itertools.product(range(1, k + 1), repeat=len(kernel)):
        _note_guess(stats, "kernel-coloring")
        setup = build_coloring_infants(g, k, dict(zip(kernel, assignment)), core_pair)
        if setup is None:
            continue
        if decide_coloring_with_preferences(setup.instance, setup.system, space, stats):
            return True
    return False


def chromatic_number(
    g: Graph,
    space: str = "dense",
    stats: StatsRecorder | None = None,
    core: CorePair | str | None = "auto",
) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if k_colorable(g, k, space, stats, core):
            return k
    return g.n


def find_coloring(
    g: Graph,
    k: int,
    space: str = "dense",
) -> dict[int, int] | None:
    """A proper k-coloring, or None; certificate by list self-reduction."""
    if not k_colorable(g, k, space):
        return None
    if g.n == 0:
        return {}
    if not g.edges:
        return {v: 1 for v in g.vertices()}
    d = average_degree(g)
    if Fraction(k) >= 2 * d and k < g.n:
        keep = [v for v in g.vertices() if g.degree(v) >= k]
        sub, back = induced_subgraph(g, keep)
        inner = find_coloring(sub, k, space)
        colors = {back[w]: c for w, c in inner.items()}
        for v in g.vertices():
            if v not in colors:
                used = {colors[u] for u in g.adjacency[v] if u in colors}
                colors[v] = min(c for c in range(1, k + 1) if c not in used)
        return colors
    lists = {v: frozenset(range(1, k + 1)) for v in g.vertices()}
    for v in g.vertices():
        for c in sorted(lists[v]):
            trial = dict(lists)
            trial[v] = frozenset({c})
            if decide_list_coloring(g, k, trial, space):
                lists = trial
                break
        else:
            raise RuntimeError("internal invariant violation: no extendable color")
    return {v: min(lists[v]) for v in g.vertices()}


# ---------------------------------------------------------------------------
# domatic partition


def _dominating_sets(g: Graph) -> list[frozenset[int]]:
    if g.n > SUBSET_SCAN_LIMIT:
        raise ValueError(f"dominating-set scan limited to {SUBSET_SCAN_LIMIT} vertices")
    hoods = [0] * (g.n + 1)
    for v in g.vertices():
        bits = 1 << (v - 1)
        for u in g.adjacency[v]:
            bits |= 1 << (u - 1)
        hoods[v] = bits
    everything = (1 << g.n) - 1
    out = []
    for pick in range(1 << g.n):
        covered = 0
        for v in g.vertices():
            if pick >> (v - 1) & 1:
                covered |= hoods[v]
        if covered == everything:
            out.append(frozenset(v for v in g.vertices() if pick >> (v - 1) & 1))
    return out


def _domatic_system(g: Graph) -> InfantSystem:
    """Families around scattered centers, each adopting an outside infant.

    Every dominating set meets every closed neighborhood, so a set
    holding the infant always holds a second family member; no filtering
    of the provider is ever needed.
    """
    n = g.n
    delta = g.max_degree()
    centers_all = sorted(greedy_independent_set(square(g)))
    p = min(len(centers_all), n // (delta * delta + 2))
    if p < 1:
        return InfantSystem.empty(n)
    centers = centers_all[:p]
    taken: set[int] = set()
    for v in centers:
        taken |= g.closed_neighborhood(v)
    pool = iter(sorted(set(g.vertices()) - taken))
    families = []
    for v in centers:
        infant = next(pool)
        families.append((g.closed_neighborhood(v) | {infant}, infant))
    return InfantSystem.build(n, families, delta + 2)


def domatic_decision(
    g: Graph,
    k: int,
    space: str = "dense",
    stats: StatsRecorder | None = None,
    infants: bool = True,
) -> bool:
    """True iff the vertices split into k disjoint dominating sets."""
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return True
    if g.n == 0:
        return False
    min_degree = min(g.degree(v) for v in g.vertices())
    if k > min_degree + 1:
        # every class must hit the smallest closed neighborhood
        return False
    sets = _dominating_sets(g)
    provider = FamilyProvider.explicit("dominating", sets)
    inst = PartitionInstance(g.n, k, (provider,) * k, "decision", "partition")
    system = _domatic_system(g) if infants else InfantSystem.empty(g.n)
    return _solve(inst, system, space, stats).feasible


# ---------------------------------------------------------------------------
# tours


def _segment_sizes(n: int, parts: int) -> list[int]:
    base, extra = divmod(n, parts)
    return [base + 1] * extra + [base] * (parts - extra)


def _path_families(
    g: Graph,
    pivots: tuple[int, ...],
    sizes: list[int],
    weighted: bool,
    kernel: frozenset[int] = frozenset(),
    successors: frozenset[int] = frozenset(),
    scattered: frozenset[int] = frozenset(),
) -> list[list[tuple[frozenset[int], int]]] | None:
    """Per-segment path families; None as soon as one family is empty.

    Family i holds the vertex sets of simple paths that start at pivot i,
    avoid the other pivots, and end next to pivot i+1; weights are the
    cheapest such path plus its closing edge.  Steps from a kernel vertex
    into a scattered vertex are allowed only for designated successors,
    which is what lets the scattered remainder anchor a family system.
    """
    def step_allowed(a: int, b: int) -> bool:
        return not (a in kernel and b in scattered and b not in successors)

    families = []
    for i, start in enumerate(pivots):
        closer = pivots[(i + 1) % len(pivots)]
        banned = set(pivots) - {start}
        frontier: dict[tuple[frozenset[int], int], int] = {(frozenset({start}), start): 0}
        for _ in range(sizes[i] - 1):
            nxt: dict[tuple[frozenset[int], int], int] = {}
            for (members, end), dist in frontier.items():
                for w in sorted(g.adjacency[end]):
                    if w in members or w in banned or not step_allowed(end, w):
                        continue
                    cost = dist + (g.edge_weight(end, w) if weighted else 1)
                    key = (members | {w}, w)
                    if key not in nxt or cost < nxt[key]:
                        nxt[key] = cost
            frontier = nxt
            if not frontier:
                break
        best: dict[frozenset[int], int] = {}
        for (members, end), dist in frontier.items():
            if closer not in g.adjacency[end]:
                continue
            if not step_allowed(end, closer):
                continue
            cost = dist + (g.edge_weight(end, closer) if weighted else 1)
            if members not in best or cost < best[members]:
                best[members] = cost
        if not best:
            return None
        families.append(sorted(best.items(), key=lambda kv: sorted(kv[0])))
    return families


def _tour_system(
    g: Graph,
    pivots: tuple[int, ...],
    sizes: list[int],
    core: CorePair | None,
    successors: frozenset[int],
) -> InfantSystem:
    """Rows of width q = floor(degree_cap) + 1 around the first n // q
    scattered vertices that are neither pivots nor successors: the
    predecessor of such a vertex lies outside the kernel, so in its row.
    """
    if core is None or min(sizes) < 2 or core.degree_cap < 1:
        return InfantSystem.empty(g.n)
    q = math.floor(core.degree_cap) + 1
    anchors = [a for a in sorted(core.A) if a not in successors and a not in pivots]
    families = [((g.adjacency[a] - core.Y) | {a}, a) for a in anchors[: g.n // q]]
    if not families:
        return InfantSystem.empty(g.n)
    return InfantSystem.build(g.n, families, q)


def _hamcycle_system(g: Graph, sizes: list[int]) -> InfantSystem:
    delta = g.max_degree()
    if min(sizes) < 2 or delta < 1:
        return InfantSystem.empty(g.n)
    centers_all = sorted(greedy_independent_set(square(g)))
    p = min(len(centers_all), g.n // (delta * delta + 1))
    if p < 1:
        return InfantSystem.empty(g.n)
    families = [(g.closed_neighborhood(v), v) for v in centers_all[:p]]
    return InfantSystem.build(g.n, families, delta + 1)


def _tour_solves(
    g: Graph, sizes: list[int], objective: str, core: CorePair | None,
    system: InfantSystem | None, space: str, stats: StatsRecorder | None, kind: str,
):
    """One ``_solve`` answer per pivot and successor guess, lazily.

    The first pivot is vertex 1, which any tour visits; the other
    len(sizes) - 1 run over every ordered choice.  With a core pair, a
    further guess picks up to |Y| scattered vertices allowed to follow
    kernel vertices directly.  Every guess solves under ``system``, or
    under its own ``_tour_system`` when that is None.  A guess with an
    empty segment family is skipped.
    """
    scattered = core.A if core is not None else frozenset()
    kernel = core.Y if core is not None else frozenset()
    successor_sets = [
        frozenset(chosen)
        for picks in range(len(kernel) + 1)
        for chosen in itertools.combinations(sorted(scattered), picks)
    ]
    weighted = g.weights is not None
    rest = [v for v in g.vertices() if v != 1]
    for tail in itertools.permutations(rest, len(sizes) - 1):
        pivots = (1,) + tail
        for chosen in successor_sets:
            _note_guess(stats, kind)
            families = _path_families(
                g, pivots, sizes, weighted, kernel, chosen, scattered
            )
            if families is None:
                continue
            providers = tuple(
                FamilyProvider.explicit(f"segment-{i + 1}", *zip(*fam))
                for i, fam in enumerate(families)
            )
            inst = PartitionInstance(g.n, len(sizes), providers, objective, "partition")
            guess_system = system
            if guess_system is None:
                guess_system = _tour_system(g, pivots, sizes, core, chosen)
            yield _solve(inst, guess_system, space, stats)


def hamiltonian_cycle(
    g: Graph,
    space: str = "dense",
    stats: StatsRecorder | None = None,
    infants: bool = True,
) -> bool:
    """True iff the graph has a Hamiltonian cycle (n >= 3 required).

    Guesses three ordered pivots (the first fixed at vertex 1), splits
    the cycle into three consecutive segments of near-equal size, and
    partitions the vertices into per-segment path families; a segment set
    containing any vertex also contains a path neighbor of it, so the
    closed-neighborhood system around scattered centers is always sound.
    Stops at the first feasible guess.
    """
    if g.n < 3:
        raise ValueError("need at least 3 vertices")
    if any(g.degree(v) < 2 for v in g.vertices()):
        return False
    sizes = _segment_sizes(g.n, 3)
    system = _hamcycle_system(g, sizes) if infants else InfantSystem.empty(g.n)
    answers = _tour_solves(g, sizes, "decision", None, system, space, stats, "pivot-triple")
    return any(answer.feasible for answer in answers)


def tsp(
    g: Graph,
    space: str = "dense",
    stats: StatsRecorder | None = None,
    core_pair: CorePair | str | None = "auto",
) -> int | None:
    """Minimum Hamiltonian cycle weight, or None when no tour exists.

    Splits the tour at about sqrt(n) pivots into consecutive segments and
    takes the minimum over every ordered pivot guess.  When a kernel/
    scattered decomposition is active, an extra guess picks which scattered
    vertices directly follow kernel vertices; everyone else's predecessor
    then stays outside the kernel, keeping every family system row
    normalized.  An unweighted graph is treated as unit weights.
    """
    if g.n < 3:
        raise ValueError("need at least 3 vertices")
    sizes = _segment_sizes(g.n, max(1, round(math.sqrt(g.n))))
    core = _core(g, core_pair, None)
    answers = _tour_solves(g, sizes, "min-weight", core, None, space, stats, "pivot-tuple")
    weights = [a.min_weight for a in answers if a.min_weight is not None]
    return min(weights, default=None)


# ---------------------------------------------------------------------------
# counting perfect matchings


def _pair_multigraph(g: Graph) -> LabeledMultigraph:
    """Contract non-adjacent vertex pairs into a labeled multigraph.

    Pairs come from a maximum matching of the complement, topped up with
    leftover vertices paired consecutively (adjacent leftovers become
    self-loops).  Pair t keeps sides t and t+n'; every original edge
    turns into an edge between its endpoints' pairs labeled with the two
    side ids it consumes.
    """
    matched = complement_matching(g)
    used = {v for pair in matched for v in pair}
    leftovers = sorted(v for v in g.vertices() if v not in used)
    pairs = [tuple(sorted(pair)) for pair in matched]
    for i in range(0, len(leftovers), 2):
        pairs.append((leftovers[i], leftovers[i + 1]))
    pairs.sort()
    half = len(pairs)
    rename: dict[int, int] = {}
    for t, (a, b) in enumerate(pairs, start=1):
        rename[a] = t
        rename[b] = t + half
    records = []
    for u, v in sorted(g.edges):
        nu, nv = rename[u], rename[v]
        tu = nu if nu <= half else nu - half
        tv = nv if nv <= half else nv - half
        lo, hi = min(tu, tv), max(tu, tv)
        records.append((lo, hi, frozenset({nu, nv})))
    records.sort(key=lambda r: (r[0], r[1], sorted(r[2])))
    return LabeledMultigraph(half, tuple(records))


def _side(label: frozenset[int], t: int, half: int) -> int:
    """0 when the label uses pair t's low side, 1 for the high side."""
    if t in label:
        return 0
    if t + half in label:
        return 1
    raise ValueError(f"label {sorted(label)} misses pair {t}")


def _label_consistent_cycles(lm: LabeledMultigraph) -> list[frozenset[int]]:
    """Vertex sets of canonical cycles, one entry per distinct cycle.

    A cycle is consistent when the two edges at each pair use opposite
    sides.  2-cycles are unordered pairs of parallel edges disagreeing at
    both ends; longer cycles are walked from their smallest vertex, one
    orientation kept by comparing the first and last step keys.
    """
    half = lm.n
    edges = [
        (u, v, _side(label, u, half), _side(label, v, half))
        for u, v, label in lm.edges
        if u != v
    ]
    incident: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(1, half + 1)}
    for u, v, su, sv in edges:
        incident[u].append((v, su, sv))
        incident[v].append((u, sv, su))
    out: list[frozenset[int]] = []

    parallel: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v, su, sv in edges:
        parallel.setdefault((min(u, v), max(u, v)), []).append(
            (su, sv) if u < v else (sv, su)
        )
    for (u, v), kinds in sorted(parallel.items()):
        for (a1, b1), (a2, b2) in itertools.combinations(sorted(kinds), 2):
            if a1 != a2 and b1 != b2:
                out.append(frozenset({u, v}))

    def walk(start: int):
        for first_to, first_here, first_there in sorted(incident[start]):
            if first_to <= start:
                continue
            first_key = (first_to, first_here, first_there)
            stack = [(first_to, 1 - first_there, [start, first_to])]
            while stack:
                cur, need, path = stack.pop()
                for nxt, side_here, side_there in sorted(incident[cur], reverse=True):
                    if side_here != need:
                        continue
                    if nxt == start:
                        if len(path) < 3:
                            continue
                        # wrong-side closings and the mirror orientation drop out
                        if side_there != 1 - first_here:
                            continue
                        if first_key < (path[-1], side_there, side_here):
                            out.append(frozenset(path))
                        continue
                    if nxt < start or nxt in path:
                        continue
                    stack.append((nxt, 1 - side_there, path + [nxt]))

    for start in range(1, half + 1):
        walk(start)
    return out


def count_perfect_matchings(
    g: Graph,
    space: str = "dense",
    stats: StatsRecorder | None = None,
) -> int:
    """Exact number of perfect matchings.

    Matchings correspond to covers of the contracted pair graph whose
    edge labels tile all original vertices: each pair needs its two sides
    covered exactly once, by its self-loop or by two edges of one
    canonical label-consistent cycle.  So a matching is one partition of
    the pairs into blocks, each a cycle's pairs or a self-loop's single
    pair, and one count solve reads them all: part t holds the empty set
    and the blocks whose least pair is t, which orders the parts of each
    partition one way only.
    """
    if g.n % 2 != 0:
        raise ValueError("even vertex count required")
    if g.n == 0:
        return 1
    lm = _pair_multigraph(g)
    blocks = _label_consistent_cycles(lm)
    blocks += [frozenset({u}) for u, v, _l in lm.edges if u == v]
    parts: dict[int, list[frozenset[int]]] = {t: [frozenset()] for t in range(1, lm.n + 1)}
    for block in blocks:
        parts[min(block)].append(block)
    providers = tuple(FamilyProvider.explicit(f"least-{t}", parts[t]) for t in parts)
    inst = PartitionInstance(lm.n, lm.n, providers, "count")
    return _solve(inst, None, space, stats).count or 0
