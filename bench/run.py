"""Seeded, oracle-checked benchmark of setpart's public entry points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it times closed-loop calls (one caller, the next call
starts when the previous one returns) for at least S seconds of solve
time and prints the end-to-end metrics.  With ``--trace 1`` it runs a
fixed slice of the same inputs alternately bare and under the
outside-in tracer of ``tracer.py`` and prints per-layer metrics of one
pass.  Every answer is compared with ``setpart.oracle``; the last line of
standard output is one JSON object, and the exit status is nonzero when
any answer was wrong or any call raised.  Full results and spans go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
MIN_SAMPLES = 2 * TAIL_BEYOND + 2  # so that percentile sits above the median
SETUP_REPEATS = 15  # fresh interpreters per timed run, spread over its solves
WALL_CAP_S = 120.0  # no new call starts after this, so a run ends well within 180 s

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "instance_p50_ms": "ms",
    "instance_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def _import_setpart():
    """Import setpart from this checkout's src/, never from elsewhere."""
    if not (SRC / "setpart" / "__init__.py").is_file():
        sys.exit(f"bench: no setpart sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import setpart

    if Path(setpart.__file__).resolve().parent != SRC / "setpart":
        sys.exit(f"bench: imported setpart from {setpart.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# running cases


class Checker:
    """Oracle comparison and failure accounting for every call."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, case, tally) -> float:
        """Solve one case, check it, feed the tally; returns the call's seconds."""
        prepared = case.prepare()
        self.attempted += 1
        start = time.perf_counter()
        try:
            got, answers = case.call(prepared, tally)
        except Exception as exc:  # any raise is a counted failure, not a crash
            elapsed = time.perf_counter() - start
            if not self.failures:
                traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{case.stratum}: raised {exc!r}")
            return elapsed
        elapsed = time.perf_counter() - start
        for answer, bound in zip(answers, case.domain_bounds):
            tally.record_stats(answer.stats, bound)
        if got != case.expected:
            self.failures.append(
                f"{case.stratum}: got {got!r}, oracle says {case.expected!r}"
            )
        return elapsed


def run_pass(rounds, checker, tally) -> None:
    for rnd in rounds:
        for case in rnd:
            checker.run(case, tally)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest rank with TAIL_BEYOND samples beyond."""
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def setup_once(workload: str, seed: int) -> float:
    """Wall time of one fresh interpreter that imports setpart and builds inputs."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--setup-only",
    ]
    start = time.perf_counter()
    # no timeout: with one, the wait polls at up to 50 ms steps and the
    # measured time snaps to that grid
    subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def timed_run(rounds, seconds: float, checker, tally, started: float, setup) -> dict:
    """Closed loop over whole rounds until the solve time reaches ``seconds``.

    Rounds repeat, pooling their samples, when the generated ones run out
    first.  ``setup()`` times one fresh set-up; it runs SETUP_REPEATS
    times between calls, at even steps of solve time, so that set-up is
    sampled over the same stretch of the machine's time as the solves.
    """
    by_stratum: dict[str, list[float]] = {}
    samples: list[float] = []
    setups: list[float] = []
    solve_s = 0.0
    over_cap = False
    for rnd in itertools.cycle(rounds):
        for case in rnd:
            due = seconds * len(setups) / SETUP_REPEATS
            if len(setups) < SETUP_REPEATS and solve_s >= due:
                setups.append(setup())
            elapsed = checker.run(case, tally)
            by_stratum.setdefault(case.stratum, []).append(elapsed)
            samples.append(elapsed)
            solve_s += elapsed
            over_cap = time.perf_counter() - started > WALL_CAP_S
            if over_cap:
                break
        if over_cap or (solve_s >= seconds and len(samples) >= MIN_SAMPLES):
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup())
    percentile, tail_s = tail(samples)
    return {
        "instances_per_s": len(samples) / solve_s,
        "instance_p50_ms": 1e3 * statistics.median(samples),
        "instance_tail_ms": 1e3 * tail_s,
        "tail_percentile": percentile,
        "samples": len(samples),
        "solve_s": solve_s,
        "setup_s": statistics.median(setups),
        "strata_median_ms": {
            stratum: 1e3 * statistics.median(times)
            for stratum, times in by_stratum.items()
        },
    }


def traced_run(rounds, seconds: float, checker, started: float):
    """Alternate bare and traced passes over the same slice of rounds.

    Returns the layer metrics, medians over traced passes, and each
    traced pass's tracer.  Counts must come out identical in every pass,
    bare or traced.
    """
    from tally import SolveTally
    from tracer import Tracer, layer_metrics  # timed runs never load the tracer

    tracers: list[Tracer] = []
    per_pass: list[dict] = []
    overheads: list[float] = []
    bare_walls: list[float] = []
    reference = None
    mismatched = False
    while True:
        bare = SolveTally()
        start = time.perf_counter()
        run_pass(rounds, checker, bare)
        bare_wall = time.perf_counter() - start
        tracer = Tracer()
        traced = SolveTally()
        with tracer.installed():
            start = time.perf_counter()
            run_pass(rounds, checker, traced)
            traced_wall = time.perf_counter() - start
        tracers.append(tracer)
        metrics = {**traced.counters(), **layer_metrics(tracer)}
        counts = {k: v for k, v in metrics.items() if not k.endswith("_s")}
        if reference is None:
            reference = counts
        if bare.counters() != traced.counters() or counts != reference:
            mismatched = True
        per_pass.append(metrics)
        overheads.append(traced_wall - bare_wall)
        bare_walls.append(bare_wall)
        if time.perf_counter() - started >= seconds:
            break
        if time.perf_counter() - started + 2 * (bare_wall + traced_wall) > WALL_CAP_S:
            break
    if mismatched:
        checker.failures.append("counts differ between passes over the same inputs")
    merged = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    merged["trace.pass_s"] = statistics.median(bare_walls)
    merged["trace.overhead_s"] = statistics.median(overheads)
    return merged, tracers


# ---------------------------------------------------------------------------
# reporting


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("per_transform"):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import setpart, build the inputs and exit (used to time set-up)",
    )
    args = parser.parse_args(argv)

    _import_setpart()
    import workloads
    from tally import SolveTally

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
    rounds = workloads.build(args.workload, args.seed)
    if args.setup_only:
        return 0
    for case in itertools.chain.from_iterable(rounds):
        case.expected, case.domain_bounds = case.reference()

    checker = Checker()
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        trace_slice = rounds[: workloads.TRACE_ROUNDS]
        layer, tracers = traced_run(trace_slice, args.seconds, checker, started)
        report["trace_passes"] = len(tracers)
        metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
        traced_wall = layer["trace.pass_s"] + layer["trace.overhead_s"]
    else:
        report["before_timing_s"] = time.perf_counter() - started
        timed = timed_run(
            rounds,
            args.seconds,
            checker,
            SolveTally(),
            started,
            lambda: setup_once(args.workload, args.seed),
        )
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {**timed, "peak_rss_mib": peak}
        metrics = {name: (values[name], u) for name, u in END_TO_END_UNITS.items()}
        report["tail_percentile"] = timed["tail_percentile"]
        report["samples"] = timed["samples"]
        report["solve_s"] = timed["solve_s"]
        report["strata_median_ms"] = timed["strata_median_ms"]
        traced_wall = 0.0

    failed = len(checker.failures)
    as_json = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    report.update(
        attempted=checker.attempted,
        failed=failed,
        error_rate=failed / checker.attempted,
        failures=checker.failures[:20],
        metrics=as_json,
    )
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for index, tracer in enumerate(tracers):
                header = {"pass": index, "fields": ["name", "start", "end", "parent"]}
                fh.write(json.dumps(header) + "\n")
                tracer.write_to(fh)

    for failure in checker.failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        share = ""
        if unit == "s" and traced_wall:
            share = f"  {value / traced_wall:6.1%} of a traced pass"
        print(f"{name:34s} {value:14.6g} {unit}{share}")
    print(
        f"{'error_rate':34s} {failed / checker.attempted:14.6g} ratio"
        f" ({failed} of {checker.attempted} instances)"
    )
    if not args.trace:
        print(
            f"{'instance_tail_ms':34s} is p{report['tail_percentile']:.1f}"
            f" of {report['samples']} samples"
        )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": checker.attempted,
                "failed": failed,
                "metrics": as_json,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
