"""Command-line front end: parse, solve, print one answer per run.

Answers go to standard output as ``<problem> <answer>``; run statistics
go to standard error as one JSON object, so pipelines can consume the
answer alone.  ``--json`` switches standard output to a single JSON
object holding the answer and the statistics together.

Exit status: 0 when the problem was solved (including "no tour exists"),
1 on parse or configuration errors (a family system that does not fit
the instance included), 2 when the input falls outside the problem's
definition (odd vertex count for matchings, fewer than three vertices
for tours).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .engine import (
    EncodingError,
    InfantSystem,
    InfantSystemError,
    RowNormalizationError,
    instance_from_json,
    solve_cover,
    solve_with_infants,
    system_from_json,
)
from .graphcore import (
    CoreInfeasibleError,
    CoreSearchError,
    Graph,
    GraphFormatError,
    find_core_pair,
    read_graph_file,
)
from .oracle import (
    brute_chromatic,
    brute_count_pm,
    brute_domatic,
    brute_hamcycle,
    brute_partition,
    brute_tsp,
)
from .problems import (
    StatsRecorder,
    chromatic_number,
    count_perfect_matchings,
    domatic_decision,
    hamiltonian_cycle,
    tsp,
)

GRAPH_PROBLEMS = ("chromatic", "domatic", "hamcycle", "tsp")
DEFAULT_SET_BUDGET = 100_000


class ConfigError(Exception):
    """Bad flags or flag combinations; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="setpart", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--mode",
        choices=("dense", "polyspace"),
        default="dense",
        help="dense folds the sparse factors; polyspace sweeps the loose subsets"
        " by inclusion-exclusion",
    )
    common.add_argument(
        "--infants",
        default="auto",
        metavar="auto|none|FILE",
        help="family-system strategy; FILE (a system JSON) applies to"
        " 'solve instance' only",
    )
    common.add_argument("--seed", type=int, default=None, help="recorded in stats")
    common.add_argument(
        "--budget-sets",
        type=int,
        default=DEFAULT_SET_BUDGET,
        metavar="N",
        help="maximum total candidate sets for explicit instances",
    )
    common.add_argument("--nu", type=float, default=None, help="tour core override")
    common.add_argument("--mu", type=float, default=None, help="tour core override")
    common.add_argument("--a", type=float, default=None, help="tour core override")
    common.add_argument(
        "--c", type=Fraction, default=None, help="tour core override (fraction)"
    )
    common.add_argument("--k", type=int, default=None, help="class count for domatic")
    common.add_argument(
        "--json", action="store_true", help="one JSON object on stdout instead"
    )

    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", parents=[common], help="run the exact solver")
    solve.add_argument("problem", choices=GRAPH_PROBLEMS + ("instance",))
    solve.add_argument("path", help="graph file, or instance JSON for 'instance'")
    count = sub.add_parser("count", parents=[common], help="count structures")
    count.add_argument("problem", choices=("matchings",))
    count.add_argument("path", help="graph file")
    oracle = sub.add_parser(
        "oracle", parents=[common], help="brute-force reference answer"
    )
    oracle.add_argument(
        "problem", choices=GRAPH_PROBLEMS + ("instance", "matchings")
    )
    oracle.add_argument("path", help="graph file, or instance JSON for 'instance'")
    return parser


def _require_positive(name: str, value: int | None):
    if value is not None and value <= 0:
        raise ConfigError(f"{name} must be positive")


def _load_instance(args):
    with open(args.path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    inst = instance_from_json(data)
    total = sum(len(p.entries()) for p in inst.providers)
    if total > args.budget_sets:
        raise ConfigError(
            f"instance enumerates {total} sets, over the budget {args.budget_sets}"
        )
    return inst


def _instance_answer(inst, answer):
    if inst.objective == "count":
        return answer.count
    if inst.objective == "min-weight":
        return answer.min_weight
    return answer.feasible


def _override_core(args, g: Graph):
    knobs = (args.nu, args.mu, args.a, args.c)
    if all(k is None for k in knobs):
        return "auto"
    if any(k is None for k in knobs):
        raise ConfigError("--nu, --mu, --a, --c must be given together")
    try:
        return find_core_pair(g, nu=args.nu, mu=args.mu, a=args.a, c=args.c)
    except (CoreSearchError, CoreInfeasibleError) as exc:
        print(f"core construction unavailable: {exc}", file=sys.stderr)
        return None


def _dispatch_solve(args, recorder: StatsRecorder):
    if args.problem == "instance":
        inst = _load_instance(args)
        if inst.structure == "cover":
            if args.infants not in ("auto", "none"):
                raise ConfigError("explicit systems do not apply to cover instances")
            answer = solve_cover(inst, args.mode)
        else:
            if args.infants in ("auto", "none"):
                system = InfantSystem.empty(inst.n)
            else:
                with open(args.infants, "r", encoding="utf-8") as fh:
                    system = system_from_json(json.load(fh), inst.n)
            answer = solve_with_infants(inst, system, args.mode)
        recorder.record_answer(answer)
        return _instance_answer(inst, answer)

    if args.infants not in ("auto", "none"):
        raise ConfigError("graph drivers accept only --infants auto|none")
    g = read_graph_file(args.path)
    use_infants = args.infants == "auto"
    if args.problem == "chromatic":
        return chromatic_number(
            g, args.mode, recorder, core="auto" if use_infants else None
        )
    if args.problem == "domatic":
        if args.k is None:
            raise ConfigError("domatic requires --k")
        _require_positive("--k", args.k)
        return domatic_decision(g, args.k, args.mode, recorder, use_infants)
    if args.problem == "hamcycle":
        return hamiltonian_cycle(g, args.mode, recorder, use_infants)
    core = _override_core(args, g) if use_infants else None
    return tsp(g, args.mode, recorder, core_pair=core)


def _dispatch_oracle(args):
    if args.problem == "instance":
        inst = _load_instance(args)
        feasible, count, min_weight = brute_partition(inst)
        if inst.objective == "count":
            return count
        if inst.objective == "min-weight":
            return min_weight
        return feasible
    g = read_graph_file(args.path)
    if args.problem == "chromatic":
        return brute_chromatic(g)
    if args.problem == "domatic":
        if args.k is None:
            raise ConfigError("domatic requires --k")
        _require_positive("--k", args.k)
        return brute_domatic(g, args.k)
    if args.problem == "hamcycle":
        return brute_hamcycle(g)
    if args.problem == "tsp":
        return brute_tsp(g)
    return brute_count_pm(g)


def _render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"setpart: {exc}", file=sys.stderr)
        return 1

    recorder = StatsRecorder()
    try:
        _require_positive("--budget-sets", args.budget_sets)
        if args.command == "oracle":
            answer = _dispatch_oracle(args)
        elif args.command == "count":
            g = read_graph_file(args.path)
            answer = count_perfect_matchings(g, args.mode, recorder)
        else:
            answer = _dispatch_solve(args, recorder)
    except ConfigError as exc:
        print(f"setpart: {exc}", file=sys.stderr)
        return 1
    except (
        GraphFormatError,
        EncodingError,
        InfantSystemError,
        RowNormalizationError,
    ) as exc:
        print(f"setpart: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, OSError) as exc:
        print(f"setpart: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # the input falls outside the problem's own definition
        print(f"setpart: {exc}", file=sys.stderr)
        return 2

    stats = {
        "problem": args.problem,
        "command": args.command,
        "mode": args.mode,
        "infants": args.infants,
        "seed": args.seed,
        "recorder": recorder.to_dict(),
    }
    if args.json:
        payload = {"problem": args.problem, "answer": answer, "stats": stats}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{args.problem} {_render(answer)}")
        print(json.dumps(stats, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
