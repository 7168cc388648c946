"""Config parsing, exit codes and artifact layout of the command line tool."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import switchsde
from switchsde import CapFractionWarning, ConfigError, cli, model_to_dict
from switchsde.io import atomic_write_text, g17, write_csv
from conftest import bm_model, saturated_model

CHAIN = {
    "dim": 1,
    "regimes": {"count": 2},
    "actions": [[0.0]],
    "drift": {"kind": "constant", "b0": [[0.0], [0.0]]},
    "diffusion": {"kind": "constant", "c0": [[[0.2]], [[0.2]]]},
    "generator": {"kind": "constant", "rates": [[-1.0, 1.0], [2.0, -2.0]]},
    "costs": {
        "running": {"kind": "regime", "values": [1.0, 2.0]},
        "alpha": 1.0,
        "horizon": 1.0,
    },
}

LQ_SCALAR = {
    "dim": 1,
    "regimes": {"count": 1},
    "actions": [[0.0]],
    "drift": {"kind": "lq", "a": [[[0.0]]], "b": [[[1.0]]]},
    "diffusion": {"kind": "lq", "c": [[[0.0]]]},
    "generator": {"kind": "constant", "rates": [[0.0]]},
    "costs": {
        "running": {"kind": "lq", "q": [[[1.0]]], "r": [[[1.0]]]},
        "alpha": 1.0,
        "horizon": 1.0,
    },
}


def _write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=1) + "\n")
    return p


def _run(tmp_path, doc, sub="out"):
    cfg = _write(tmp_path, doc)
    out = tmp_path / sub
    code = cli.main(["--config", str(cfg), "--out", str(out)])
    return code, out


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_riccati_config():
    doc = {"command": "riccati", "model": LQ_SCALAR}
    cfg = cli.parse_config(json.dumps(doc))
    assert cfg.command == "riccati"
    assert cfg.out_dir is None
    assert len(cfg.digest) == 64 and set(cfg.digest) <= set("0123456789abcdef")


def test_digest_ignores_key_order():
    a = json.dumps({"command": "validate", "model": CHAIN})
    reordered = {"model": CHAIN, "command": "validate"}
    b = json.dumps(reordered)
    assert a != b
    assert cli.parse_config(a).digest == cli.parse_config(b).digest


def test_parse_rejects_unknown_top_level_key():
    doc = {"command": "validate", "model": CHAIN, "bogus": 1}
    with pytest.raises(ConfigError, match="bogus"):
        cli.parse_config(json.dumps(doc))


def test_parse_rejects_foreign_command_block():
    doc = {
        "command": "validate", "model": CHAIN,
        "riccati": {"steps": 100},
    }
    with pytest.raises(ConfigError, match="does not belong"):
        cli.parse_config(json.dumps(doc))


def test_parse_requires_seed_for_stochastic_commands():
    doc = {
        "command": "cost", "model": CHAIN,
        "cost": {"criterion": "discounted", "x0": [0.0], "i0": 1, "dt": 0.01,
                 "n_paths": 10},
    }
    with pytest.raises(ConfigError, match="seed"):
        cli.parse_config(json.dumps(doc))


def test_parse_names_unknown_drift_family():
    doc = {"command": "validate", "model": dict(CHAIN, drift={"kind": "cubic"})}
    with pytest.raises(ConfigError, match="cubic"):
        cli.parse_config(json.dumps(doc))


# ---------------------------------------------------------------------------
# exit codes and artifacts


def test_riccati_run_writes_K_and_gains(tmp_path):
    doc = {"command": "riccati", "model": LQ_SCALAR, "riccati": {"steps": 400}}
    with pytest.warns(UserWarning, match="nudged"):  # P = 0 in the model
        code, out = _run(tmp_path, doc)
    assert code == 0
    lines = (out / "K.csv").read_text().splitlines()
    assert lines[0] == "t,regime,row,col,value"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[4]) == pytest.approx(math.tanh(1.0), abs=1e-9)
    assert (out / "gains.csv").exists()
    report = (out / "report.txt").read_text()
    assert report.splitlines()[1] == "command: riccati"
    results = json.loads((out / "results.json").read_text())
    assert results["command"] == "riccati"


def test_validate_degenerate_model_exits_2(tmp_path):
    flat = json.loads(json.dumps(CHAIN))
    flat["diffusion"] = {"kind": "constant", "c0": [[[0.0]], [[0.0]]]}
    code, out = _run(tmp_path, {"command": "validate", "model": flat})
    assert code == 2
    results = json.loads((out / "results.json").read_text())
    assert results["validation_passed"] is False
    assert "nondegeneracy" in results["validation_failures"]
    assert "FAIL" in (out / "report.txt").read_text()


def test_hjb_gate_blocks_degenerate_model(tmp_path):
    flat = json.loads(json.dumps(CHAIN))
    flat["diffusion"] = {"kind": "constant", "c0": [[[0.0]], [[0.0]]]}
    doc = {
        "command": "hjb", "model": flat,
        "hjb": {"criterion": "discounted",
                "grid": {"x_min": -1.0, "x_max": 1.0, "n_x": 21}},
    }
    code, out = _run(tmp_path, doc)
    assert code == 2
    assert not (out / "values.csv").exists()


def test_solver_error_exits_3(tmp_path, capsys):
    # the schedule drives m12 negative at its largest magnitude
    doc = {
        "command": "robustness", "model": CHAIN,
        "robustness": {
            "criterion": "discounted",
            "grid": {"x_min": -1.0, "x_max": 1.0, "n_x": 21},
            "schedule": {"mode": "rates", "n_max": 2, "d_m": [[0.0, -3.0], [0.0, 0.0]]},
        },
    }
    code, out = _run(tmp_path, doc)
    assert code == 3
    assert "solver error" in capsys.readouterr().err
    assert "error:" in (out / "report.txt").read_text()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_coefficients_exit_3(tmp_path, capsys):
    model = model_to_dict(saturated_model())
    model["drift"]["a"] = [[[1e308]], [[1e308]]]
    model["drift"]["saturation"] = 1e308
    doc = {
        "command": "hjb", "model": model,
        "hjb": {"criterion": "discounted", "grid": {"x_min": -2.0, "x_max": 2.0, "n_x": 21}},
    }
    code, out = _run(tmp_path, doc)
    assert code == 3
    assert "E_SCHEME" in capsys.readouterr().err
    assert not (out / "values.csv").exists()
    assert json.loads((out / "results.json").read_text())["error"].startswith("E_SCHEME")


@pytest.mark.parametrize(
    "overrides,code_name",
    [
        ({"batch": -1}, "E_SHAPE"),
        ({"batch": 0}, "E_SHAPE"),
        ({"n_paths": 0}, "E_SHAPE"),
        ({"criterion": "exit", "t_cap": 0.0}, "E_STEP"),
        ({"criterion": "exit", "t_cap": -2.0}, "E_STEP"),
    ],
)
def test_cost_rejects_bad_counts_and_time_cap(tmp_path, capsys, overrides, code_name):
    block = {"criterion": "discounted", "x0": [0.0], "i0": 1, "dt": 0.05,
             "n_paths": 16, "seed": 7, "eps_tail": 0.01, **overrides}
    code, out = _run(tmp_path, {"command": "cost", "model": CHAIN, "cost": block})
    assert code == 3
    assert code_name in capsys.readouterr().err
    assert not (out / "estimates.csv").exists()
    results = json.loads((out / "results.json").read_text())
    assert results["error"].startswith(code_name)
    assert "value" not in results


@pytest.mark.parametrize("criterion", ["discounted", "finite-horizon", "ergodic", "exit"])
@pytest.mark.parametrize("dt", [1e-9, 0.0])
def test_cost_rejects_bad_dt_and_runs_beyond_the_step_budget(tmp_path, capsys, criterion, dt):
    # at dt = 1e-9 each criterion asks for 1e9 to 1e12 steps
    block = {"criterion": criterion, "x0": [0.0], "i0": 1, "dt": dt, "n_paths": 4, "seed": 7,
             "t": 1.0, "t_long": 2.0, "t_cap": 1000.0}
    code, out = _run(tmp_path, {"command": "cost", "model": CHAIN, "cost": block})
    assert code == 3
    assert "E_STEP" in capsys.readouterr().err
    assert not (out / "estimates.csv").exists()


def test_config_errors_exit_4(tmp_path, capsys):
    bad_key = _write(tmp_path, {"command": "validate", "model": CHAIN, "bogus": 1})
    assert cli.main(["--config", str(bad_key), "--out", str(tmp_path / "a")]) == 4
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert cli.main(["--config", str(not_json), "--out", str(tmp_path / "b")]) == 4
    missing = tmp_path / "absent.json"
    assert cli.main(["--config", str(missing), "--out", str(tmp_path / "c")]) == 4
    err = capsys.readouterr().err
    assert err.count("config error") == 3


GRID = {"x_min": -2.0, "x_max": 2.0, "n_x": 21}
SCHED = {"mode": "rates", "n_max": 1, "d_m": [[0.0, 0.5], [1.0, 0.0]]}
SIM = {"x0": [0.0], "i0": 1, "dt": 0.01, "seed": 1}
SAD = {"kind": "state-action-dependent", "base": [[0.0, 1.0], [2.0, 0.0]]}


@pytest.mark.parametrize(
    "command,block,model,path",
    [
        ("hjb", {"criterion": "discounted", "grid": GRID, "alpha": "x"}, {}, "hjb.alpha"),
        ("ergodic", {"grid": GRID, "ladder": 0.1}, {}, "ergodic.ladder"),
        ("robustness", {"criterion": "finite-horizon", "grid": GRID, "schedule": SCHED, "n_t": "a"},
         {}, "robustness.n_t"),
        ("robustness", {"criterion": "discounted", "grid": GRID,
                        "schedule": {"mode": "cost", "n_max": 1, "d_cost": "z"}},
         {}, "robustness.schedule.d_cost"),
        ("simulate", dict(SIM, x0=[0.0, 1.0]), {}, "simulate.x0"),
        ("validate", None, {"dim": 1.5}, "model.dim"),
        ("validate", None, {"regimes": {"count": 2.7}}, "model.regimes.count"),
        ("validate", None, {"generator": dict(SAD, gx=True)}, "model.generator.gx"),
        ("hjb", {"criterion": "finite-horizon", "grid": GRID, "n_t": 25.7}, {}, "hjb.n_t"),
        ("simulate", dict(SIM, exit="yes"), {}, "simulate.exit"),
    ],
)
def test_malformed_config_exits_4_naming_the_field(tmp_path, capsys, command, block, model, path):
    doc = {"command": command, "model": dict(CHAIN, **model)}
    if block is not None:
        doc[command] = block
    code, _ = _run(tmp_path, doc)
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("config error: E_CONFIG: ")
    assert err.rstrip().endswith(f" at '{path}'")


def test_simulate_exit_rounds_t_cap_up_like_mc_exit(tmp_path):
    # dt = 0.03 does not divide t_cap = 1.0; both commands cap at 34 steps
    model = model_to_dict(bm_model(cost_value=1.0))
    model["costs"]["exit_domain"] = [-100.0, 100.0]
    block = {"x0": [0.0], "i0": 1, "dt": 0.03, "seed": 3, "t_cap": 1.0}
    code, out = _run(tmp_path, {"command": "simulate", "model": model,
                                "simulate": dict(block, exit=True)})
    assert code == 0
    assert "simulate: steps=34 termination=cap" in (out / "report.txt").read_text()
    assert len((out / "path.csv").read_text().splitlines()) == 1 + 35
    cost = dict(block, criterion="exit", n_paths=4)
    with pytest.warns(CapFractionWarning):
        code, out = _run(tmp_path, {"command": "cost", "model": model, "cost": cost}, sub="cost")
    assert code == 0
    # unit running cost, no discount, no exit: each path accrues 34 steps of dt
    assert json.loads((out / "results.json").read_text())["value"] == pytest.approx(34 * 0.03)


@pytest.mark.parametrize("command", ["hjb", "ergodic"])
def test_policy_iteration_budget_exhausted_exits_3(tmp_path, capsys, command):
    # two actions whose optimal policy differs from the first improvement
    block = {"grid": {"x_min": -2.0, "x_max": 2.0, "n_x": 41}, "max_iter": 1}
    if command == "hjb":
        block["criterion"] = "discounted"
    doc = {"command": command, "model": model_to_dict(saturated_model()), command: block}
    code, out = _run(tmp_path, doc)
    assert code == 3
    assert "E_MAXITER" in capsys.readouterr().err
    assert not (out / "values.csv").exists()
    results = json.loads((out / "results.json").read_text())
    assert results["error"].startswith("E_MAXITER")
    del block["max_iter"]
    code, out = _run(tmp_path, doc, sub="converged")
    assert code == 0
    assert "status" not in json.loads((out / "results.json").read_text())


def test_hjb_values_layout(tmp_path):
    doc = {
        "command": "hjb", "model": CHAIN,
        "hjb": {"criterion": "discounted",
                "grid": {"x_min": -2.0, "x_max": 2.0, "n_x": 101}},
    }
    code, out = _run(tmp_path, doc)
    assert code == 0
    lines = (out / "values.csv").read_text().splitlines()
    assert lines[0] == "criterion,regime,x,value,action_index"
    assert len(lines) == 1 + 2 * 101
    # x-independent chain: the solve reproduces (alpha I - M)^{-1} c
    assert float(lines[1].split(",")[3]) == pytest.approx(1.25, abs=1e-6)


def test_stochastic_rerun_is_byte_identical(tmp_path):
    doc = {
        "command": "cost", "model": CHAIN,
        "cost": {"criterion": "discounted", "x0": [0.0], "i0": 1, "dt": 0.05,
                 "n_paths": 200, "seed": 7, "eps_tail": 0.01},
    }
    cfg = _write(tmp_path, doc)
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("estimates.csv", "results.json", "report.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_threads_flag_never_changes_results(tmp_path):
    doc = {"command": "validate", "model": CHAIN}
    cfg = _write(tmp_path, doc)
    a, b = tmp_path / "t0", tmp_path / "t8"
    assert cli.main(["--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["--config", str(cfg), "--out", str(b), "--threads", "8"]) == 0
    assert (a / "results.json").read_bytes() == (b / "results.json").read_bytes()


def test_out_key_in_config_is_used(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = {"command": "validate", "model": CHAIN, "out": "from_config"}
    cfg = _write(tmp_path, doc)
    assert cli.main(["--config", str(cfg)]) == 0
    assert (tmp_path / "from_config" / "report.txt").exists()


def test_import_leaves_scipy_out():
    src = str(Path(switchsde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, switchsde; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# CSV formatting


def test_g17_round_trips_floats():
    # fixed 17-significant-digit rendering, not shortest repr: reruns must
    # produce the same bytes on any platform
    assert g17(0.1) == "0.10000000000000001"
    for v in (0.1, 1.0 / 3.0, 2.0**-52, -1.2345678901234567e300):
        assert float(g17(v)) == v


def test_write_csv_and_atomic_write(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, "a,b", [(1, 0.1), (2, 1.0 / 3.0)], comments=("#note",))
    lines = p.read_text().splitlines()
    assert lines[0] == "a,b"
    assert "#note" in lines
    assert float(lines[-1].split(",")[1]) == 1.0 / 3.0
    q = tmp_path / "sub" / "x.txt"
    atomic_write_text(q, "payload")
    assert q.read_text() == "payload"
