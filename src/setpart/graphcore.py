"""Graph types and bounded-average-degree decompositions.

Vertices are 1..n throughout.  Graphs are immutable and every operation is
a pure function, so values can be shared freely between solves.

The decomposition routines split a sparse graph into a small high-degree
kernel ``Y`` and a scattered set ``A`` whose closed neighborhoods are
pairwise disjoint outside ``Y``.  Drivers use such a pair to seed families
with designated infants, which is what lets the partition engine walk a
search space smaller than ``2^n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

__all__ = [
    "ALPHA_SEARCH_CAP",
    "CoreInfeasibleError",
    "CorePair",
    "CoreSearchError",
    "Graph",
    "GraphFormatError",
    "average_degree",
    "complement_matching",
    "find_core_pair",
    "find_degree_threshold",
    "find_scattered_set",
    "greedy_independent_set",
    "induced_subgraph",
    "parse_graph",
    "read_graph_file",
    "square",
]

ALPHA_SEARCH_CAP = 1 << 20
MATCHING_DP_LIMIT = 30


class GraphFormatError(ValueError):
    """A graph file violates the ``p <n> <m>`` / ``e <u> <v> [w]`` format."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class CoreSearchError(RuntimeError):
    """No admissible alpha at or below the search cap for these constants."""


class CoreInfeasibleError(RuntimeError):
    """Graph too small: the truncated A cannot reach 2|Y| <= |A|."""


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph with optional nonnegative integer edge weights."""

    n: int
    edges: frozenset[tuple[int, int]]
    weights: dict[tuple[int, int], int] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
        if self.weights is not None:
            if set(self.weights) != set(self.edges):
                raise ValueError("weights must cover exactly the edge set")
            for e, w in self.weights.items():
                if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                    raise ValueError(f"weight of {e} must be a nonnegative integer")

    @staticmethod
    def build(n: int, edge_pairs, weights=None) -> "Graph":
        """Normalize edge pairs, rejecting self-loops and duplicates."""
        edges: set[tuple[int, int]] = set()
        for u, v in edge_pairs:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            e = _norm_edge(u, v)
            if e in edges:
                raise ValueError(f"duplicate edge {e}")
            edges.add(e)
        wnorm = None
        if weights is not None:
            wnorm = {_norm_edge(u, v): w for (u, v), w in weights.items()}
        return Graph(n, frozenset(edges), wnorm)

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        return self.adjacency[v] | {v}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max((len(s) for s in self.adjacency.values()), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def edge_weight(self, u: int, v: int) -> int:
        if self.weights is None:
            raise ValueError("graph carries no weights")
        return self.weights[_norm_edge(u, v)]


# ---------------------------------------------------------------------------
# elementary graph operations


def average_degree(g: Graph) -> Fraction:
    """Exact average degree 2|E|/n (0 for the empty graph)."""
    if g.n == 0:
        return Fraction(0)
    return Fraction(2 * len(g.edges), g.n)


def square(g: Graph) -> Graph:
    """Graph joining every pair at distance one or two."""
    edges = set(g.edges)
    adj = g.adjacency
    for u in g.vertices():
        for w in adj[u]:
            for x in adj[w]:
                if u < x:
                    edges.add((u, x))
    return Graph(g.n, frozenset(edges))


def greedy_independent_set(g: Graph) -> frozenset[int]:
    """Maximal independent set, smallest index first; size >= n/(maxdeg+1)."""
    chosen: set[int] = set()
    blocked: set[int] = set()
    for v in g.vertices():
        if v not in blocked:
            chosen.add(v)
            blocked.add(v)
            blocked |= g.adjacency[v]
    return frozenset(chosen)


def induced_subgraph(g: Graph, keep) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph relabeled to 1..|keep|; returns (graph, new->old map)."""
    kept = sorted(set(keep))
    fwd = {old: i + 1 for i, old in enumerate(kept)}
    edges = set()
    weights: dict[tuple[int, int], int] | None = {} if g.weights is not None else None
    for u, v in g.edges:
        if u in fwd and v in fwd:
            e = (fwd[u], fwd[v])  # fwd is monotone, so order is preserved
            edges.add(e)
            if weights is not None:
                weights[e] = g.weights[(u, v)]
    back = {new: old for old, new in fwd.items()}
    return Graph(len(kept), frozenset(edges), weights), back


# ---------------------------------------------------------------------------
# degree threshold, scattered sets, core pairs


def find_degree_threshold(g: Graph, m: int, alpha) -> int:
    """First D >= m with |{v : deg v > D}| * alpha * D <= 2|E|.

    A D in [m, floor(m*e^(alpha+1)+1)] always exists by an averaging
    argument; scanning upward returns the first one.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    degrees = sorted(g.degree(v) for v in g.vertices())
    doubled_edges = 2 * len(g.edges)
    import bisect

    limit = max(m, g.max_degree())
    for d_cut in range(m, limit + 1):
        high = len(degrees) - bisect.bisect_right(degrees, d_cut)
        if high * alpha * d_cut <= doubled_edges:
            return d_cut
    raise RuntimeError("internal invariant violation: no admissible threshold")


def find_scattered_set(g: Graph, d_bound) -> frozenset[int]:
    """Greedy low-degree set independent in the square of the graph.

    Every chosen vertex has degree at most 2*d_bound and closed
    neighborhoods of chosen vertices are pairwise disjoint.  When the
    maximum degree is positive the result has at least
    ceil(n / (6 * maxdeg * d_bound)) vertices.
    """
    bound = Fraction(d_bound)
    if average_degree(g) > bound:
        raise ValueError("average degree exceeds d_bound")
    sq = square(g)
    eligible = [v for v in g.vertices() if g.degree(v) <= 2 * bound]
    alive = set(eligible)
    chosen = []
    for v in eligible:
        if v in alive:
            chosen.append(v)
            alive.discard(v)
            alive -= sq.adjacency[v]
    return frozenset(chosen)


@dataclass(frozen=True)
class CorePair:
    """High-degree kernel Y plus a scattered set A independent in (G-Y)^2."""

    A: frozenset[int]
    Y: frozenset[int]
    D: int
    nu: float
    mu: float
    a: float
    c: Fraction
    alpha: int
    beta: float
    degree_cap: Fraction  # 2 * max(average degree, 1)

    def verify(self, g: Graph) -> list[str]:
        """Structural invariant violations; empty when all four hold."""
        out = []
        if self.A & self.Y:
            out.append("A and Y intersect")
        keep = [v for v in g.vertices() if v not in self.Y]
        sub, back = induced_subgraph(g, keep)
        fwd = {old: new for new, old in back.items()}
        sq = square(sub)
        inside = sorted(fwd[v] for v in self.A if v in fwd)
        for i, u in enumerate(inside):
            for w in inside[i + 1:]:
                if w in sq.adjacency[u]:
                    out.append(f"A not independent in (G-Y)^2: {back[u]}, {back[w]}")
        if 2 * len(self.Y) > len(self.A):
            out.append(f"2|Y|={2*len(self.Y)} exceeds |A|={len(self.A)}")
        if len(self.A) > self.c * g.n:
            out.append("|A| exceeds c*n")
        for v in sorted(self.A):
            if len(g.adjacency[v] - self.Y) > self.degree_cap:
                out.append(f"vertex {v} has more than 2d neighbors outside Y")
        return out


def _cond_value(alpha: int, d_eff: Fraction, nu, mu, a) -> float:
    """log2 of (gamma*alpha)^(d*a/alpha) * nu^(d/alpha) * mu^(1/(12d))."""
    de = float(d_eff)
    gamma = math.e / (12.0 * de * de)
    return (
        (de * float(a) / alpha) * math.log2(gamma * alpha)
        + (de / alpha) * math.log2(float(nu))
        + (1.0 / (12.0 * de)) * math.log2(float(mu))
    )


def _choose_alpha(d_eff: Fraction, nu, mu, a) -> int:
    """Smallest integer alpha >= max(2d, 24d^2) making the bound fall below 1."""
    lo = max(math.ceil(2 * d_eff), math.ceil(24 * d_eff * d_eff), 1)
    if _cond_value(lo, d_eff, nu, mu, a) < 0:
        return lo
    fail = lo
    hi = lo
    while hi < ALPHA_SEARCH_CAP:
        hi = min(hi * 2, ALPHA_SEARCH_CAP)
        if _cond_value(hi, d_eff, nu, mu, a) < 0:
            # bound is monotone beyond 12d^2, so bisect for the smallest
            while hi - fail > 1:
                mid = (hi + fail) // 2
                if _cond_value(mid, d_eff, nu, mu, a) < 0:
                    hi = mid
                else:
                    fail = mid
            return hi
        fail = hi
    raise CoreSearchError(
        f"no admissible alpha below {ALPHA_SEARCH_CAP} for nu={nu}, mu={mu}, a={a}"
    )


def find_core_pair(g: Graph, nu, mu, a, c) -> CorePair:
    """Split the graph into the kernel Y and a truncated scattered set A.

    Raises CoreSearchError when no alpha below the cap satisfies the
    three parameter conditions, and CoreInfeasibleError when the graph is
    too small for the truncated A to reach twice the kernel size.
    """
    if float(mu) >= 1.0 or float(mu) <= 0.0:
        raise ValueError("mu must lie in (0, 1)")
    if float(nu) < 1.0:
        raise ValueError("nu must be >= 1")
    if float(a) < 0.0:
        raise ValueError("a must be >= 0")
    c = Fraction(c)
    if not (0 < c < 1):
        raise ValueError("c must lie in (0, 1)")
    d = average_degree(g)
    d_eff = max(d, Fraction(1))
    alpha = _choose_alpha(d_eff, nu, mu, a)
    m = math.ceil(Fraction(1) / (12 * d_eff * c))
    threshold = find_degree_threshold(g, m, alpha)
    kernel = frozenset(v for v in g.vertices() if g.degree(v) > threshold)
    sub, back = induced_subgraph(g, [v for v in g.vertices() if v not in kernel])
    if average_degree(sub) > d_eff:
        # pathological degree spreads: dropping the kernel raised the average
        raise CoreInfeasibleError("kernel removal left average degree above d")
    scattered = sorted(back[v] for v in find_scattered_set(sub, d_eff))
    size = min(
        math.floor(Fraction(g.n) / (12 * d_eff * threshold)),
        math.floor(c * g.n),
    )
    if size > len(scattered):
        raise RuntimeError("internal invariant violation: scattered set too small")
    chosen = frozenset(scattered[:size])
    if len(chosen) < 2 * len(kernel):
        raise CoreInfeasibleError(
            f"|A|={len(chosen)} < 2|Y|={2 * len(kernel)} after truncation"
        )
    beta_prime = -_cond_value(alpha, d_eff, nu, mu, a)
    beta = beta_prime * math.exp(-alpha) if alpha < 700 else 0.0
    return CorePair(
        A=chosen,
        Y=kernel,
        D=threshold,
        nu=float(nu),
        mu=float(mu),
        a=float(a),
        c=c,
        alpha=alpha,
        beta=beta,
        degree_cap=2 * d_eff,
    )


# ---------------------------------------------------------------------------
# complement matching


def complement_matching(g: Graph) -> list[tuple[int, int]]:
    """Maximum matching of the complement graph by exact bitmask search."""
    if g.n % 2 != 0:
        raise ValueError("even vertex count required")
    if g.n > MATCHING_DP_LIMIT:
        raise ValueError(f"complement matching limited to {MATCHING_DP_LIMIT} vertices")
    n = g.n
    comp = []
    for v in range(1, n + 1):
        mask = 0
        nbrs = g.adjacency[v]
        for u in range(1, n + 1):
            if u != v and u not in nbrs:
                mask |= 1 << (u - 1)
        comp.append(mask)

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        res = best(rest)
        cands = comp[v] & rest
        while cands:
            u = (cands & -cands).bit_length() - 1
            cands &= cands - 1
            res = max(res, 1 + best(rest & ~(1 << u)))
        return res

    pairs = []
    mask = (1 << n) - 1
    while mask:
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        total = best(mask)
        cands = comp[v] & rest
        matched = False
        while cands:
            u = (cands & -cands).bit_length() - 1
            cands &= cands - 1
            if 1 + best(rest & ~(1 << u)) == total:
                pairs.append((v + 1, u + 1))
                mask = rest & ~(1 << u)
                matched = True
                break
        if not matched:
            mask = rest
    best.cache_clear()
    return pairs


# ---------------------------------------------------------------------------
# file format


def parse_graph(text: str) -> Graph:
    """Parse the ``p <n> <m>`` header plus ``e <u> <v> [w]`` line format."""
    n = m = None
    edges: dict[tuple[int, int], int | None] = {}
    weighted: bool | None = None
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "p":
            if n is not None:
                raise GraphFormatError(lineno, "duplicate 'p' header")
            if len(parts) != 3:
                raise GraphFormatError(lineno, "header must be 'p <n> <m>'")
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(lineno, "header fields must be integers") from None
            if n < 0 or m < 0:
                raise GraphFormatError(lineno, "header fields must be nonnegative")
        elif tag == "e":
            if n is None:
                raise GraphFormatError(lineno, "edge line before 'p' header")
            if len(parts) not in (3, 4):
                raise GraphFormatError(lineno, "edge line must be 'e <u> <v> [w]'")
            try:
                u, v = int(parts[1]), int(parts[2])
                w = int(parts[3]) if len(parts) == 4 else None
            except ValueError:
                raise GraphFormatError(lineno, "edge fields must be integers") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(lineno, f"endpoint outside 1..{n}")
            if u == v:
                raise GraphFormatError(lineno, "self-loops are not allowed")
            if w is not None and w < 0:
                raise GraphFormatError(lineno, "weights must be nonnegative")
            e = _norm_edge(u, v)
            if e in edges:
                raise GraphFormatError(lineno, f"duplicate edge {u} {v}")
            this_weighted = w is not None
            if weighted is None:
                weighted = this_weighted
            elif weighted != this_weighted:
                raise GraphFormatError(lineno, "all edges must agree on carrying weights")
            edges[e] = w
        else:
            raise GraphFormatError(lineno, f"unknown record '{tag}'")
    if n is None:
        raise GraphFormatError(lineno or 1, "missing 'p' header")
    if m != len(edges):
        raise GraphFormatError(
            lineno or 1, f"header declares {m} edges, file has {len(edges)}"
        )
    weights = {e: w for e, w in edges.items()} if weighted else None
    try:
        return Graph(n, frozenset(edges), weights)
    except ValueError as exc:
        raise GraphFormatError(lineno or 1, str(exc)) from None


def read_graph_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())
