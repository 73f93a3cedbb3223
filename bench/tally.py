"""Counters summed from the SolveStats that public calls return; no wrapping."""

from __future__ import annotations

from dataclasses import dataclass, field

from setpart.problems import StatsRecorder

ENGINES = ("packed-dense", "sparse-fold", "polyspace", "empty")


@dataclass
class SolveTally(StatsRecorder):
    """StatsRecorder that also sums what every returned SolveStats reports.

    Drivers feed it through their public ``stats`` argument; planted
    solves are fed by the benchmark from the answers it gets back.
    """

    engine_solves: dict[str, int] = field(default_factory=dict)
    domain_cells: int = 0
    terms: int = 0
    min_weight_probes: int = 0
    domain_over_bound: int = 0

    def record_answer(self, answer):
        super().record_answer(answer)
        self.record_stats(answer.stats)

    def record_stats(self, stats, domain_bound: int | None = None):
        self.engine_solves[stats.engine] = self.engine_solves.get(stats.engine, 0) + 1
        self.domain_cells += stats.domain
        self.terms += sum(stats.term_counts)
        # the paper's bound has no cost axis, so compare the domain without it
        domain = stats.domain
        if "cost" in stats.variables:
            cost_radix = stats.radices[stats.variables.index("cost")]
            self.min_weight_probes += cost_radix
            domain //= cost_radix
        if domain_bound is not None and domain > domain_bound:
            self.domain_over_bound += 1

    def counters(self) -> dict[str, float]:
        out = {
            "problems.guesses": sum(self.guesses.values()),
            "problems.solves": self.solves,
            "problems.system_solve_ratio": (
                self.systems_used / self.solves if self.solves else 0.0
            ),
        }
        for engine in ENGINES:
            out[f"engine.solves.{engine}"] = self.engine_solves.get(engine, 0)
        out["engine.domain_cells"] = self.domain_cells
        out["engine.domain_over_bound"] = self.domain_over_bound
        out["engine.min_weight_probes"] = self.min_weight_probes
        out["engine.terms"] = self.terms
        return out
