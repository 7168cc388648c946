"""Repository rules no other test checks: the README config reference lists
exactly the keys of the schema tables, its command line section names
exactly the tool's options and the validator's findings and gives every
artifact's header line, ``src/`` has no bare assert, every package name
the benchmark uses still resolves, and a committed bench file's summary is
the one ``tools/pairs.py`` computes from its runs."""

import ast
import importlib
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from switchsde import PathSample, cli, model
from switchsde.costs import ESTIMATE_HEADER
from switchsde.hjbgrid import GRID_HEADER, GRID_HEADER_T
from switchsde.robustness import EPS_HEADER, SWEEP_HEADER
from conftest import chain_model, lq_model, reference_lq

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = (
    model.DriftFamily,
    model.DiffusionFamily,
    model.GeneratorSpec,
    model.RunningCost,
    model.TerminalCost,
    model.BoundaryCost,
    model.ExitDiscount,
)


def _reference() -> dict:
    """README config reference: heading -> {first cell: backticked names of the second}."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Config reference\n", 1)[1].split("\n## ", 1)[0]
    tables = {}
    for chunk in re.split(r"^#### ", section, flags=re.M)[1:]:
        rows = [line.split("|")[1:3] for line in chunk.splitlines() if line.startswith("| `")]
        tables[re.match(r"`([^`]+)`", chunk).group(1)] = {
            re.fullmatch(r" `([^`]+)` ", first).group(1): re.findall(r"`([^`]+)`", second)
            for first, second in rows
        }
    return tables


def test_readme_config_reference_lists_exactly_the_table_keys():
    ref = _reference()
    blocks = {**cli.BLOCKS, "grid": cli.GRID, "schedule": cli.SCHEDULE}
    for name, table in blocks.items():
        assert list(ref[name]) == [key for key, _, _ in table], name
    assert ref["policy"] == {
        kind: ["kind", *(key for key, _, _ in table)] for kind, table in cli.POLICIES.items()
    }
    for cls in FAMILIES:
        assert ref[cls.PATH] == {
            kind: [f.key for f in fields] for kind, fields in cls.FIELDS.items()
        }, cls.PATH
    assert set(ref) == {*blocks, "policy", *(cls.PATH for cls in FAMILIES)}


def test_readme_schedule_modes_are_those_of_the_direction_table():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n#### `schedule`\n", 1)[1].split("\n#### ", 1)[0]
    modes = {
        re.fullmatch(r" `([^`]+)` ", cells[1]).group(1): re.findall(r"`([^`]+)`", cells[4])
        for cells in (line.split("|") for line in section.splitlines() if line.startswith("| `"))
    }
    assert modes == {
        key: list(model.DIRECTIONS[key].modes) if key in model.DIRECTIONS else []
        for key, _, _ in cli.SCHEDULE
    }


def test_readme_command_line_names_exactly_the_cli_options(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == 0
    options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert {"--config", "--help"} <= options
    assert set(re.findall(r"`(--[a-z][a-z-]*)`", section)) == options


def test_readme_artifact_table_gives_the_written_header_lines(tmp_path):
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    # path.csv's header pattern is written out for d = 2 state and l = 3 action components
    table = [
        (re.findall(r"`([^`]+)`", cells[1]),
         re.fullmatch(r" `([^`]+)` ", cells[3]).group(1)
         .replace("x_1,...,x_d", "x_1,x_2").replace("u_1,...,u_l", "u_1,u_2,u_3"))
        for cells in (line.split("|") for line in section.splitlines() if line.startswith("| `"))
    ]
    PathSample(np.zeros(1), np.zeros((1, 2)), np.ones(1, dtype=np.int64), np.zeros((0, 3)), (), "horizon",
               0).to_csv(tmp_path / "path.csv")
    assert table == [
        (["K.csv", "gains.csv"], cli.RICCATI_HEADER),
        (["path.csv"], (tmp_path / "path.csv").read_text().splitlines()[0]),
        (["estimates.csv"], ESTIMATE_HEADER),
        (["values.csv"], GRID_HEADER),
        (["values.csv"], GRID_HEADER_T),
        (["sweep.csv"], SWEEP_HEADER),
        (["epscheck.csv"], EPS_HEADER),
    ]


def test_readme_names_exactly_the_validator_findings():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = {a or b for a, b in re.findall(r"finding\s+`([a-z-]+)`|`([a-z-]+)`\s+finding", section)}
    # the chain's findings, and the one an all-lq model adds
    specs = (chain_model(), lq_model(reference_lq()))
    assert named == {f.name for spec in specs for f in model.validate_model(spec).findings}


def test_src_has_no_bare_assert():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _perfbench_names() -> set:
    """(module, name) of every switchsde name the benchmark uses, read from its source.

    These are the names perfbench/workloads.py imports from the package, the
    attributes it takes of the solver modules it imports, and the functions
    perfbench/tracing.py wraps by name (its ``TRACED`` table).
    """
    modules = ("costs", "hjbgrid", "riccati", "robustness", "simulate")
    names = set()
    for node in ast.walk(ast.parse((ROOT / "perfbench" / "workloads.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "switchsde":
            names |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add((f"switchsde.{node.value.id}", node.attr))
    traced = next(
        node.value for node in ast.parse((ROOT / "perfbench" / "tracing.py").read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    )
    for layer, functions in ast.literal_eval(traced).items():
        names |= {(f"switchsde.{layer}", name) for name in functions}
    return names


def test_every_package_name_the_benchmark_uses_resolves():
    names = _perfbench_names()
    assert ("switchsde.robustness", "sweep_lq_finite_horizon") in names
    assert ("switchsde.cli", "run_command") in names
    missing = [
        f"{module}.{name}" for module, name in sorted(names)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_bench_summary_is_recomputed_from_its_runs():
    # BENCH_33.json was written before tools/pairs.py; its summary, to the
    # last bit of every quartile, is the one the tool computes from its runs
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    bench = json.loads((ROOT / "BENCH_33.json").read_text())
    assert pairs.summarize(bench["runs"]) == bench["summary"]
    assert list(bench) == ["change", "command", "machine", "protocol", "claimed", "claim_note", "summary", "runs"]
