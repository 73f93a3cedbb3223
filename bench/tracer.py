"""Outside-in spans over setpart's layers, for the traced run only.

Each wrapped function is replaced at the binding its callers actually
look up (``setpart.problems.find_core_pair``, not only
``setpart.graphcore.find_core_pair``), records a span (name, start, end,
parent) in memory, and is restored on exit.  Nothing under ``src/``
changes, and untimed code paths never see a wrapper outside
:meth:`Tracer.installed`.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass

import setpart.engine
import setpart.polyring
import setpart.problems

DRIVERS = (
    "chromatic_number",
    "domatic_decision",
    "hamiltonian_cycle",
    "count_perfect_matchings",
    "tsp",
)
FAMILY_BUILDERS = (
    "_path_families",
    "_dominating_sets",
    "_color_families",
    "_label_consistent_cycles",
)
GRAPHCORE_IN_PROBLEMS = (
    "find_core_pair",
    "average_degree",
    "complement_matching",
    "greedy_independent_set",
    "induced_subgraph",
    "square",
)

# (module, attribute, span name); each attribute is the binding its
# callers look up at call time
WRAPPED = (
    [(setpart.problems, f, f"problems.{f}") for f in DRIVERS + FAMILY_BUILDERS]
    + [(setpart.problems, f, f"graphcore.{f}") for f in GRAPHCORE_IN_PROBLEMS]
    + [
        (setpart.problems, "solve_simple", "engine.solve_simple"),
        (setpart.problems, "solve_with_infants", "engine.solve_with_infants"),
        (setpart.problems, "validate_infant_system", "engine.validate_infant_system"),
        (setpart.engine, "solve_simple", "engine.solve_simple"),
        (setpart.engine, "solve_with_infants", "engine.solve_with_infants"),
        (setpart.engine, "build_infant_encoding", "engine.build_infant_encoding"),
        (setpart.engine, "_fold_sparse", "engine._fold_sparse"),
        (setpart.engine, "multiply_packed_dense", "polyring.multiply_packed_dense"),
        (
            setpart.engine,
            "extract_coefficients_polyspace",
            "polyring.extract_coefficients_polyspace",
        ),
        (setpart.polyring, "convolve_exact", "polyring.convolve_exact"),
        (setpart.polyring, "_ntt", "polyring._ntt"),
        (setpart.polyring, "_ntt_primes", "polyring._ntt_primes"),
        (setpart.polyring, "_crt", "polyring._crt"),
        (setpart.polyring, "_crt_vector", "polyring._crt_vector"),
        (setpart.polyring, "_product_eval_table", "polyring._product_eval_table"),
        (setpart.polyring, "_geometric", "polyring._geometric"),
    ]
)

ENGINE_SOLVES = ("engine.solve_simple", "engine.solve_with_infants")
WORD_BYTES = 8  # one uint64 lane (or one object pointer) per transform point


def ntt_bytes(points: int, inverse: bool) -> int:
    """Bytes an in-place radix-2 transform of this length touches, computed.

    Model, not a measurement: the bit-reversal gather reads the values and
    the permutation and writes the result (3 passes), every level reads
    and writes each point once (2 passes), and an inverse transform
    scales the result (2 more passes).
    """
    passes = 3 + 2 * int(math.log2(points)) + (2 if inverse else 0)
    return WORD_BYTES * points * passes


def _count_ntt(counts, result, values, prime, root, inverse=False):
    counts["ntt.points"] += len(values)
    counts["ntt.bytes"] += ntt_bytes(len(values), inverse)


def _count_primes(counts, result, *args):
    counts["ntt.primes"] += len(result)


def _count_table(counts, result, oracles, prime, root, size):
    counts["evaltable.cells"] += size


# work counted from the arguments and results of these calls
COUNTERS = {
    "polyring._ntt": _count_ntt,
    "polyring._ntt_primes": _count_primes,
    "polyring._product_eval_table": _count_table,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    """In-memory span recorder plus the counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _wrap(self, fn, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{name}.raised"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            counts[f"{name}.returned"] += 1
            if count is not None:
                count(counts, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
        try:
            for (mod, attr, fn), (_m, _a, name) in zip(originals, WRAPPED):
                setattr(mod, attr, self._wrap(fn, name))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self time per span name, in seconds.

        Calls run on one thread, so child spans nest strictly inside their
        parent and self time is the duration minus the direct children's.
        """
        inclusive: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        own: dict[str, float] = defaultdict(float)
        for span, children in zip(self.spans, child_time):
            inclusive[span.name] += span.end - span.start
            own[span.name] += span.end - span.start - children
        return inclusive, own

    def calls(self, name: str) -> int:
        return self.counts[f"{name}.returned"] + self.counts[f"{name}.raised"]

    def write_to(self, fh) -> None:
        """Spans as JSON lines: name, start and end in seconds, parent index."""
        for span in self.spans:
            fh.write(json.dumps([span.name, span.start, span.end, span.parent]) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts of one traced pass (times in seconds)."""
    inclusive, own = tracer.totals()
    problems_self = sum(v for k, v in own.items() if k.startswith("problems."))
    core_calls = tracer.calls("graphcore.find_core_pair")
    transforms = tracer.calls("polyring._ntt_primes")
    return {
        "problems.family_build_s": sum(own[f"problems.{f}"] for f in FAMILY_BUILDERS),
        "problems.self_s": problems_self,
        "graphcore.core_search_s": inclusive["graphcore.find_core_pair"],
        "graphcore.core_calls": core_calls,
        "graphcore.core_found_ratio": (
            tracer.counts["graphcore.find_core_pair.returned"] / core_calls
            if core_calls
            else 0.0
        ),
        "engine.encode_s": inclusive["engine.build_infant_encoding"],
        "engine.validate_s": inclusive["engine.validate_infant_system"],
        "engine.fold_s": inclusive["engine._fold_sparse"],
        "engine.solve_self_s": sum(own[name] for name in ENGINE_SOLVES),
        "polyring.dense_mul_s": inclusive["polyring.multiply_packed_dense"],
        "polyring.pack_unpack_s": own["polyring.multiply_packed_dense"],
        "polyring.convolve_self_s": own["polyring.convolve_exact"],
        "polyring.ntt_s": inclusive["polyring._ntt"],
        "polyring.ntt_calls": tracer.calls("polyring._ntt"),
        "polyring.ntt_points": tracer.counts["ntt.points"],
        "polyring.ntt_bytes_computed": tracer.counts["ntt.bytes"],
        "polyring.crt_s": (
            inclusive["polyring._crt"] + inclusive["polyring._crt_vector"]
        ),
        "polyring.primes_per_transform": (
            tracer.counts["ntt.primes"] / transforms if transforms else 0.0
        ),
        "polyring.polyspace_s": inclusive["polyring.extract_coefficients_polyspace"],
        "polyring.evaltable_s": inclusive["polyring._product_eval_table"],
        "polyring.geometric_s": inclusive["polyring._geometric"],
        "polyring.evaltable_cells": tracer.counts["evaltable.cells"],
    }
