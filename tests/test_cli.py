"""Command-line behavior: answers, stats, exit codes, determinism."""

import json
import re
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import setpart.cli
from setpart.cli import main
from conftest import (
    complete_graph,
    cycle_graph,
    er_graph,
    graph_file_text,
    path_graph,
)


@pytest.fixture
def write_graph(tmp_path):
    def _write(g, name="graph.txt"):
        path = tmp_path / name
        path.write_text(graph_file_text(g))
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_schema():
    text = (resources.files("setpart") / "schemas" / "result.schema.json").read_text()
    return json.loads(text)


# ---------------------------------------------------------------------------
# happy paths


def test_solve_chromatic_plain_output(capsys, write_graph):
    code, out, err = run_cli(capsys, "solve", "chromatic", write_graph(complete_graph(4)))
    assert code == 0
    assert out == "chromatic 4\n"
    stats = json.loads(err)
    assert stats["problem"] == "chromatic"
    assert stats["command"] == "solve"
    assert stats["mode"] == "dense"
    assert stats["recorder"]["solves"] >= 1


def test_count_matchings(capsys, write_graph):
    code, out, err = run_cli(capsys, "count", "matchings", write_graph(cycle_graph(6)))
    assert code == 0
    assert out == "matchings 2\n"
    assert json.loads(err)["command"] == "count"


def test_json_output_matches_schema(capsys, write_graph):
    path = write_graph(complete_graph(4))
    code, out, err = run_cli(capsys, "solve", "chromatic", "--json", path)
    assert code == 0 and err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, result_schema())
    assert payload["answer"] == 4
    code, out, err = run_cli(capsys, "solve", "tsp", "--json", write_graph(path_graph(4)))
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, result_schema())
    assert payload["answer"] is None


def test_boolean_and_none_rendering(capsys, write_graph):
    code, out, _ = run_cli(
        capsys, "solve", "hamcycle", write_graph(cycle_graph(5))
    )
    assert code == 0 and out == "hamcycle true\n"
    code, out, _ = run_cli(
        capsys, "solve", "hamcycle", write_graph(path_graph(4))
    )
    assert code == 0 and out == "hamcycle false\n"
    code, out, _ = run_cli(capsys, "solve", "tsp", write_graph(path_graph(4)))
    assert code == 0 and out == "tsp none\n"


def test_domatic_needs_k(capsys, write_graph):
    path = write_graph(cycle_graph(4))
    code, out, err = run_cli(capsys, "solve", "domatic", path)
    assert code == 1 and "requires --k" in err
    code, out, _ = run_cli(capsys, "solve", "domatic", "--k", "2", path)
    assert code == 0 and out == "domatic true\n"
    code, _, err = run_cli(capsys, "solve", "domatic", "--k", "0", path)
    assert code == 1 and "positive" in err


def test_oracle_subcommand(capsys, write_graph):
    path = write_graph(complete_graph(4))
    assert run_cli(capsys, "oracle", "chromatic", path)[1] == "chromatic 4\n"
    assert run_cli(capsys, "oracle", "hamcycle", path)[1] == "hamcycle true\n"
    assert run_cli(capsys, "oracle", "matchings", path)[1] == "matchings 3\n"
    assert run_cli(capsys, "oracle", "domatic", "--k", "2", path)[1] == "domatic true\n"
    weighted = complete_graph(4, weights=lambda u, v: u + v)
    assert run_cli(capsys, "oracle", "tsp", write_graph(weighted))[1] == "tsp 20\n"


def test_solver_agrees_with_oracle_across_modes(capsys, write_graph, rng):
    for i in range(10):
        g = er_graph(rng.randint(4, 5), 0.9, rng, max_weight=5)
        path = write_graph(g, f"t{i}.txt")
        reference = run_cli(capsys, "oracle", "tsp", path)
        dense = run_cli(capsys, "solve", "tsp", path)
        poly = run_cli(capsys, "solve", "tsp", "--mode", "polyspace", path)
        assert dense[0] == poly[0] == reference[0] == 0
        assert dense[1] == poly[1] == reference[1]


def test_infants_flag_never_changes_answers(capsys, write_graph, rng):
    for i in range(5):
        g = er_graph(rng.randint(4, 7), 0.5, rng)
        path = write_graph(g, f"g{i}.txt")
        for problem, extra in (("chromatic", ()), ("hamcycle", ()), ("domatic", ("--k", "2"))):
            with_sys = run_cli(capsys, "solve", problem, *extra, path)
            without = run_cli(capsys, "solve", problem, *extra, "--infants", "none", path)
            assert with_sys[0] == without[0] == 0
            assert with_sys[1] == without[1]


def test_seed_and_budget_are_echoed(capsys, write_graph):
    path = write_graph(cycle_graph(4))
    code, _, err = run_cli(capsys, "solve", "chromatic", "--seed", "7", path)
    assert code == 0
    stats = json.loads(err)
    assert stats["seed"] == 7 and "budget_cells" not in stats


def test_runs_are_deterministic(capsys, write_graph):
    path = write_graph(cycle_graph(6))
    first = run_cli(capsys, "solve", "chromatic", "--seed", "3", path)
    second = run_cli(capsys, "solve", "chromatic", "--seed", "3", path)
    assert first == second


# ---------------------------------------------------------------------------
# explicit instances


def instance_file(tmp_path, payload, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_solve_instance_partition(capsys, tmp_path):
    path = instance_file(
        tmp_path,
        {"n": 2, "k": 2, "families": [[{"set": [1]}], [{"set": [2]}]]},
    )
    code, out, _ = run_cli(capsys, "solve", "instance", path)
    assert code == 0 and out == "instance true\n"
    code, out, _ = run_cli(capsys, "oracle", "instance", path)
    assert code == 0 and out == "instance true\n"


def test_solve_instance_count_objective(capsys, tmp_path):
    path = instance_file(
        tmp_path,
        {
            "n": 2,
            "k": 2,
            "objective": "count",
            "families": [[{"set": [1]}, {"set": [2]}], [{"set": [1]}, {"set": [2]}]],
        },
    )
    for extra in ((), ("--mode", "polyspace")):
        code, out, _ = run_cli(capsys, "solve", "instance", *extra, path)
        assert code == 0 and out == "instance 2\n"
    assert run_cli(capsys, "oracle", "instance", path)[1] == "instance 2\n"


def test_solve_instance_cover(capsys, tmp_path):
    path = instance_file(
        tmp_path,
        {
            "n": 2,
            "k": 2,
            "structure": "cover",
            "families": [[{"set": [1, 2]}], [{"set": [1, 2]}]],
        },
    )
    code, out, _ = run_cli(capsys, "solve", "instance", path)
    assert code == 0 and out == "instance true\n"
    code, _, err = run_cli(capsys, "solve", "instance", "--infants", "sys.json", path)
    assert code == 1 and "cover instances" in err


def test_solve_instance_with_system_file(capsys, tmp_path):
    inst_path = instance_file(
        tmp_path,
        {
            "n": 4,
            "k": 2,
            "objective": "count",
            "families": [
                [{"set": [1, 2]}, {"set": [3, 4]}],
                [{"set": [1, 2]}, {"set": [3, 4]}],
            ],
        },
    )
    sys_path = instance_file(
        tmp_path,
        {"q": 2, "families": [{"set": [1, 2], "infant": 1}]},
        name="system.json",
    )
    plain = run_cli(capsys, "solve", "instance", inst_path)
    code, out, err = run_cli(capsys, "solve", "instance", "--infants", sys_path, inst_path)
    assert code == 0
    assert out == plain[1] == "instance 2\n"
    assert json.loads(err)["recorder"]["systems_used"] == 1


def test_misfitting_system_file_exits_one(capsys, tmp_path):
    """family-1's set {1, 3} holds infant 1 without its relative 2."""
    inst_path = instance_file(
        tmp_path,
        {"n": 4, "k": 2, "families": [[{"set": [1, 3]}], [{"set": [2, 4]}]]},
    )
    sys_path = instance_file(
        tmp_path,
        {"q": 2, "families": [{"set": [1, 2], "infant": 1}]},
        name="system.json",
    )
    code, out, err = run_cli(capsys, "solve", "instance", "--infants", sys_path, inst_path)
    assert code == 1 and out == ""
    assert err.startswith("setpart: provider family-1") and "Traceback" not in err


def test_system_over_another_ground_set_exits_one(capsys, tmp_path, monkeypatch):
    """A system file is read over the instance's n, so its elements past n
    fail to build; a system over another n that reaches the solve is
    refused there, with the same exit status."""
    inst_path = instance_file(
        tmp_path, {"n": 4, "k": 1, "families": [[{"set": [1, 2, 3, 4]}]]}
    )
    sys_path = instance_file(
        tmp_path,
        {"q": 2, "families": [{"set": [5, 6], "infant": 5}]},
        name="system.json",
    )
    code, out, err = run_cli(capsys, "solve", "instance", "--infants", sys_path, inst_path)
    assert code == 1 and out == ""
    assert err.startswith("setpart: family 0: member outside 1..4")
    real = setpart.cli.system_from_json
    monkeypatch.setattr(setpart.cli, "system_from_json", lambda data, n: real(data, n + 2))
    code, out, err = run_cli(capsys, "solve", "instance", "--infants", sys_path, inst_path)
    assert code == 1 and out == ""
    assert err == "setpart: system ground set 6 differs from instance 4\n"


@pytest.mark.parametrize(
    "payload",
    [
        {"n": None, "k": 1, "families": [[[1]]]},
        {"n": 1, "k": 1, "families": [[{"set": [1], "weight": 1.9}]]},
        {"n": 1, "k": 1, "families": [[[1.7]]]},
        {"n": "x", "k": 1, "families": [[[1]]]},
    ],
    ids=["null-n", "float-weight", "float-element", "string-n"],
)
def test_non_integer_instance_numbers_exit_one(capsys, tmp_path, payload):
    code, out, err = run_cli(capsys, "solve", "instance", instance_file(tmp_path, payload))
    assert code == 1 and out == ""
    assert err.startswith("setpart: ") and "must be an integer" in err


def test_repeated_set_elements_exit_one(capsys, tmp_path):
    inst = {"n": 2, "k": 1, "objective": "count", "families": [[[1, 1, 2], [2, 1]]]}
    code, out, err = run_cli(capsys, "solve", "instance", instance_file(tmp_path, inst))
    assert code == 1 and out == ""
    assert err.startswith("setpart: ") and "element 1 appears more than once" in err
    inst["families"] = [[[1, 2], [2, 1]]]
    path = instance_file(tmp_path, inst)
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"q": 2, "families": [{"set": [1, 2, 2], "infant": 1}]}))
    code, out, err = run_cli(capsys, "solve", "instance", "--infants", str(system), path)
    assert code == 1 and out == ""
    assert err.startswith("setpart: ") and "element 2 appears more than once" in err


def test_readme_instance_and_system_examples_solve(capsys, tmp_path):
    """The instance and system files documented in README.md parse and solve."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Instance files", 1)[1]
    instance = section.split("```json", 1)[1].split("```", 1)[0]
    system = re.search(r'`(\{"q":.*?\})`', section).group(1)
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(instance)
    sys_path = tmp_path / "system.json"
    sys_path.write_text(system)
    plain = run_cli(capsys, "solve", "instance", str(inst_path))
    assert plain[0] == 0 and plain[1] == "instance 2\n"
    code, out, _ = run_cli(
        capsys, "solve", "instance", "--infants", str(sys_path), str(inst_path)
    )
    assert code == 0 and out == plain[1]


def test_instance_set_budget(capsys, tmp_path):
    path = instance_file(
        tmp_path,
        {"n": 3, "k": 1, "families": [[{"set": [1, 2, 3]}, {"set": [1]}]]},
    )
    code, _, err = run_cli(capsys, "solve", "instance", "--budget-sets", "1", path)
    assert code == 1 and "over the budget" in err


# ---------------------------------------------------------------------------
# failure modes


def test_bad_flags_exit_one(capsys, write_graph):
    path = write_graph(cycle_graph(4))
    assert run_cli(capsys, "solve", "sudoku", path)[0] == 1
    assert run_cli(capsys, "solve", "chromatic", "--mode", "warp", path)[0] == 1
    code, _, err = run_cli(capsys, "solve", "chromatic", "--budget-cells", "4096", path)
    assert code == 1 and "unrecognized arguments: --budget-cells" in err
    assert run_cli(capsys, "solve", "tsp", "--nu", "1.0", path)[0] == 1
    assert run_cli(capsys, "solve", "chromatic", "--infants", "x.json", path)[0] == 1


def test_bad_inputs_exit_one(capsys, tmp_path, write_graph):
    missing = str(tmp_path / "absent.txt")
    assert run_cli(capsys, "solve", "chromatic", missing)[0] == 1
    broken = tmp_path / "broken.txt"
    broken.write_text("p 2 1\ne 1 5\n")
    code, _, err = run_cli(capsys, "solve", "chromatic", str(broken))
    assert code == 1 and "line 2" in err
    not_json = tmp_path / "inst.json"
    not_json.write_text("{nope")
    assert run_cli(capsys, "solve", "instance", str(not_json))[0] == 1
    wrong_shape = tmp_path / "shape.json"
    wrong_shape.write_text(json.dumps({"n": 2, "k": 2, "families": [[]]}))
    code, _, err = run_cli(capsys, "solve", "instance", str(wrong_shape))
    assert code == 1 and "k arrays" in err


def test_out_of_definition_inputs_exit_two(capsys, write_graph):
    odd = write_graph(path_graph(3), "odd.txt")
    assert run_cli(capsys, "count", "matchings", odd)[0] == 2
    tiny = write_graph(path_graph(2), "tiny.txt")
    assert run_cli(capsys, "solve", "hamcycle", tiny)[0] == 2
    assert run_cli(capsys, "solve", "tsp", tiny)[0] == 2
    big = write_graph(cycle_graph(21), "big.txt")
    assert run_cli(capsys, "solve", "domatic", "--k", "2", big)[0] == 2


def test_tsp_core_override_flags(capsys, write_graph):
    path = write_graph(cycle_graph(6, ), "c6.txt")
    code, out, _ = run_cli(
        capsys,
        "solve",
        "tsp",
        "--nu",
        "1.0",
        "--mu",
        "0.9",
        "--a",
        "0",
        "--c",
        "1/10",
        path,
    )
    assert code == 0 and out == "tsp 6\n"
