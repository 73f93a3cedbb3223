"""Run the benchmark over many seeds and report how steady each metric is.

    python3 bench/steady.py --seeds 1-10 [--workloads a,b] [--seconds S]
    python3 bench/steady.py --seeds 11-20 --against bench/out/steady-seeds1-10.json
    python3 bench/steady.py --repeat-counts --seeds 1 [--workloads a,b]

The first form runs ``bench/run.py --trace 0`` once per seed and
workload, one after another, and prints each end-to-end metric's median,
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median next to the bound in ``BENCHMARK.json``; it fails
when any spread exceeds its bound.  With
``--against bench/out/steady-seeds1-10.json`` it also fails when a median
is worse than that earlier set's by more than the bound.  The second
form runs ``--trace 1`` twice per seed and fails unless every count comes
out identical.  Raw results and the summary go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
OUT = ROOT / "bench" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

REPEATABLE = (
    "problems.guesses",
    "problems.solves",
    "engine.solves.packed-dense",
    "engine.solves.sparse-fold",
    "engine.solves.polyspace",
    "engine.solves.empty",
    "engine.domain_cells",
    "engine.domain_over_bound",
    "engine.min_weight_probes",
    "engine.terms",
    "polyring.ntt_calls",
    "polyring.ntt_points",
    "polyring.evaltable_cells",
)


def seeds_from(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{done.stderr}")
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def steadiness(
    workloads: list[str], seeds: list[int], seconds: int, against: dict | None
) -> bool:
    """Spread of every end-to-end metric; with ``against``, also compare medians.

    ``against`` is the summary a previous call wrote: each median may be
    worse than the one there by at most the metric's bound.
    """
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    higher = {m["name"] for m in SPEC["end_to_end"] if m["better"] == "higher"}
    ok = True
    summary = {}
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            metrics = run_once(workload, seed, seconds, 0)["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={metrics[n]['value']:.4g}" for n in bounds), flush=True)
        summary[workload] = {}
        for name, bound in bounds.items():
            median, q1, q3, share = spread(values[name])
            steady = share <= bound / 3
            ok = ok and share <= bound
            summary[workload][name] = {
                "values": values[name], "median": median, "q1": q1, "q3": q3,
                "spread": share, "bound": bound,
            }
            compared = ""
            if against is not None:
                before = against[workload][name]["median"]
                worse = before / median - 1 if name in higher else median / before - 1
                ok = ok and worse <= bound
                compared = f"  worse than before by {worse:+.3f}"
            print(
                f"  {name:18s} median {median:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}"
                f"  spread {share:6.3f}  bound {bound}{compared}"
                f"{'' if steady else '  ABOVE A THIRD OF BOUND'}",
                flush=True,
            )
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{seeds[0]}-{seeds[-1]}"
    (OUT / f"steady-seeds{tag}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return ok


def repeat_counts(workloads: list[str], seeds: list[int], seconds: int) -> bool:
    ok = True
    for workload in workloads:
        for seed in seeds:
            first, second = (
                run_once(workload, seed, seconds, 1)["metrics"] for _ in range(2)
            )
            differ = [
                name for name in REPEATABLE
                if first[name]["value"] != second[name]["value"]
            ]
            ok = ok and not differ
            print(f"{workload} seed {seed}: counts "
                  f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    every = ",".join(w["name"] for w in SPEC["workloads"])
    parser.add_argument("--workloads", default=every)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--repeat-counts", action="store_true")
    parser.add_argument(
        "--against", type=Path, help="summary JSON of an earlier set of runs"
    )
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seeds = seeds_from(args.seeds)
    if args.repeat_counts:
        return 0 if repeat_counts(workloads, seeds, args.seconds) else 1
    against = json.loads(args.against.read_text()) if args.against else None
    return 0 if steadiness(workloads, seeds, args.seconds, against) else 1


if __name__ == "__main__":
    sys.exit(main())
