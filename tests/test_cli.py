"""Config parsing, exit codes and artifact layout of the command line tool."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
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
    with warnings.catch_warnings():  # a zero terminal cost (P = 0) raises no warning
        warnings.simplefilter("error")
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


def test_hjb_runs_on_a_large_state_action_dependent_generator(tmp_path):
    # rates_batch rebuilds each diagonal as minus the row sum, which leaves
    # row sums of order 1e-12 at rates near 1e4; the model is valid
    base = [[0, 4000.1, 3000.1, 2000.1], [1000.1, 0, 3000.1, 1500.1],
            [2500.1, 1000.1, 0, 1000.1], [100.1, 200.1, 7000.1, 0]]
    doc = {
        "command": "hjb",
        "model": dict(
            CHAIN, regimes={"count": 4}, actions=[[-1.0], [0.0], [1.0]],
            drift={"kind": "constant", "b0": [[0.0]] * 4},
            diffusion={"kind": "constant", "c0": [[[0.2]]] * 4},
            generator={"kind": "state-action-dependent", "base": base, "gx": 0.3, "gu": 0.2},
            costs={"running": {"kind": "regime", "values": [1.0, 2.0, 3.0, 4.0]}, "alpha": 1.0, "horizon": 1.0},
        ),
        "hjb": {"criterion": "discounted", "grid": {"x_min": -1.0, "x_max": 1.0, "n_x": 21}},
    }
    code, out = _run(tmp_path, doc)
    assert code == 0
    assert json.loads((out / "results.json").read_text())["validation_passed"] is True
    assert (out / "values.csv").exists()


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


def test_cost_shift_of_the_wrong_shape_exits_3(tmp_path, capsys):
    doc = {
        "command": "robustness", "model": model_to_dict(bm_model(cost_value=1.0)),
        "robustness": {
            "criterion": "discounted",
            "grid": {"x_min": -1.0, "x_max": 1.0, "n_x": 21},
            "schedule": {"mode": "cost", "n_max": 1, "d_cost": [1.0, 2.0]},
        },
    }
    code, out = _run(tmp_path, doc)
    assert code == 3
    assert capsys.readouterr().err.rstrip().endswith("at 'schedule.d_cost'")
    assert json.loads((out / "results.json").read_text())["error"].startswith("E_SHAPE")


LQ_TWO_REGIMES = {
    "dim": 1,
    "regimes": {"count": 2},
    "actions": [[0.0]],
    "drift": {"kind": "lq", "a": [[[0.5]], [[-0.3]]], "b": [[[1.0]], [[0.5]]]},
    "diffusion": {"kind": "lq", "c": [[[0.2]], [[0.1]]]},
    "generator": {"kind": "constant", "rates": [[-1.0, 1.0], [2.0, -2.0]]},
    "costs": {
        "running": {"kind": "lq", "q": [[[1.0]], [[2.0]]], "r": [[[1.0]], [[0.5]]]},
        "alpha": 1.0,
        "horizon": 1.0,
        "terminal": {"kind": "quad", "p": [[[0.5]], [[1.0]]]},
    },
}


def test_lq_robustness_sweep_runs_and_matches_the_library(tmp_path):
    # sigma = C x vanishes at x = 0, so the nondegeneracy finding is advisory
    schedule = {"mode": "combined", "n_max": 3, "d_a": [[[0.2]], [[0.1]]], "d_b": [[[0.1]], [[0.2]]],
                "d_c": [[[0.05]], [[0.05]]], "d_m": [[0.0, 0.5], [1.0, 0.0]]}
    block = {"criterion": "lq-finite-horizon", "schedule": schedule, "x0": [1.0], "i0": 2, "steps": 100}
    code, out = _run(tmp_path, {"command": "robustness", "model": LQ_TWO_REGIMES, "robustness": block})
    assert code == 0
    assert "FAIL (advisory) nondegeneracy" in (out / "report.txt").read_text()
    sched = switchsde.PerturbationSchedule(**{k: np.array(v) if k.startswith("d_") else v
                                              for k, v in schedule.items()})
    lq = switchsde.lq_from_model(switchsde.model_from_dict(LQ_TWO_REGIMES))
    switchsde.sweep_lq_finite_horizon(lq, sched, [1.0], 2, steps=100).to_csv(tmp_path / "lib.csv")
    assert (out / "sweep.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()


def test_robustness_reports_the_smallest_delta_row_as_final(tmp_path):
    # the last row is the delta = 0 control row, whose gaps are 0 by construction
    schedule = {"mode": "rates", "n_max": 4, "d_m": [[0.0, 0.5], [1.0, 0.0]]}
    block = {"criterion": "discounted", "grid": {"x_min": -2.0, "x_max": 2.0, "n_x": 51}, "schedule": schedule}
    code, out = _run(tmp_path, {"command": "robustness", "model": CHAIN, "robustness": block})
    assert code == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4, 5] and float(rows[-1][1]) == 0.0
    n_max = rows[4]
    results = json.loads((out / "results.json").read_text())
    assert results["final_value_gap"] == float(n_max[2]) > 0.0
    assert results["final_policy_loss"] == float(n_max[3])
    assert f"last value_gap={n_max[2]}\n" in (out / "report.txt").read_text()


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


def test_constant_policy_cost_matches_the_library(tmp_path):
    spec = saturated_model()
    block = {"criterion": "finite-horizon", "x0": [0.5], "i0": 1, "dt": 0.02, "n_paths": 64, "seed": 11}
    doc = {"command": "cost", "model": model_to_dict(spec), "cost": block}
    code, zero = _run(tmp_path, doc, sub="zero")
    assert code == 0
    code, out = _run(tmp_path, dict(doc, cost=dict(block, policy={"kind": "constant", "u": [1.0]})))
    assert code == 0
    est = switchsde.mc_finite_horizon(
        spec, switchsde.ConstantPolicy(np.array([1.0])), np.array([0.5]), 1, spec.costs.horizon, 0.02, 64, 11
    )
    switchsde.write_estimates_csv(tmp_path / "lib.csv", [est])
    assert (out / "estimates.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
    assert (zero / "estimates.csv").read_bytes() != (tmp_path / "lib.csv").read_bytes()


def test_lq_policy_simulate_matches_the_library(tmp_path):
    # sigma = C x with C != 0 takes the stepper's state-dependent scalar noise;
    # the wide action box leaves the feedback unclamped
    model = dict(LQ_TWO_REGIMES, actions=[[-5.0], [5.0]])
    block = {"x0": [1.0], "i0": 2, "dt": 0.01, "seed": 3, "policy": {"kind": "lq", "steps": 100}}
    code, out = _run(tmp_path, {"command": "simulate", "model": model, "simulate": block})
    assert code == 0
    spec = switchsde.model_from_dict(model)
    lq = switchsde.lq_from_model(spec)
    gains = switchsde.lq_feedback(switchsde.solve_coupled_riccati(lq, n_steps=100), lq)

    class Feedback:  # u = -F(t, i) x, one path at a time
        def actions_at(self, t, x, s):
            return np.array([-gains.gain_at(t)[i] @ xi for xi, i in zip(x, s)])

    path = switchsde.simulate_path(spec, Feedback(), np.array([1.0]), 2, 1.0, 0.01, switchsde.RngStream(3, 0))
    path.to_csv(tmp_path / "lib.csv")
    assert (out / "path.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
    assert path.clamped_steps == 0 and np.abs(path.states).max() > 0.0


LQ_POLICY_COST = {"criterion": "finite-horizon", "x0": [1.0], "i0": 1, "dt": 0.01, "n_paths": 16, "seed": 5,
                  "policy": {"kind": "lq", "steps": 50}}


@pytest.mark.parametrize("command,block", [("riccati", {"steps": 50}), ("cost", LQ_POLICY_COST)])
def test_lq_drift_offset_must_be_zero(tmp_path, capsys, command, block):
    # the Riccati equations have no affine term: a nonzero offset b0 is a
    # config error, and a zero one changes no artifact
    model = dict(LQ_SCALAR, actions=[[-5.0], [5.0]])
    doc = {"command": command, "model": model, command: block}
    with_offset = lambda b0: dict(doc, model=dict(model, drift=dict(model["drift"], offset=[[b0]])))
    code, _ = _run(tmp_path, with_offset(5.0), sub="offset")
    assert code == 4
    assert capsys.readouterr().err.rstrip().endswith("at 'model.drift.offset'")
    with warnings.catch_warnings():  # a zero terminal cost (P = 0) raises no warning
        warnings.simplefilter("error")
        codes, outs = zip(*(_run(tmp_path, d, sub=sub) for d, sub in ((doc, "plain"), (with_offset(0.0), "zero"))))
    assert codes == (0, 0)
    names = json.loads((outs[0] / "results.json").read_text())["outputs"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# u = -F(t) x holds a = 0.5 down only on [0, horizon]: past it F stays F(T) ~ 0
LQ_PAST_HORIZON = dict(
    LQ_SCALAR, actions=[[-5.0], [5.0]], drift=dict(LQ_SCALAR["drift"], a=[[[0.5]]]),
    costs=dict(LQ_SCALAR["costs"], exit_domain=[-3.0, 3.0]),
)


@pytest.mark.filterwarnings("ignore:.*exit paths hit the time cap")
@pytest.mark.parametrize("command,block,end", [
    ("simulate", {}, "t"),
    ("simulate", {"exit": True}, "t_cap"),
    ("cost", {"criterion": "ergodic", "n_paths": 8}, "t_long"),
    ("cost", {"criterion": "exit", "n_paths": 8}, "t_cap"),
], ids=["simulate", "simulate-exit", "cost-ergodic", "cost-exit"])
def test_lq_policy_past_the_horizon_exits_4(tmp_path, capsys, command, block, end):
    block = {"x0": [1.0], "i0": 1, "dt": 0.01, "seed": 1, **block}
    lq = {"kind": "lq", "steps": 50}
    doc = lambda t, **policy: {"command": command, "model": LQ_PAST_HORIZON, command: {**block, end: t, **policy}}
    with warnings.catch_warnings():  # a zero terminal cost (P = 0) raises no warning
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", ".*exit paths hit the time cap")  # as the mark allows
        codes = [_run(tmp_path, doc(t, policy=lq), sub=f"lq-{t}")[0] for t in (3.0, 1.0)]
    assert codes == [4, 0]
    err = capsys.readouterr().err.rstrip()
    assert err.endswith(f"costs.horizon = 1], but the run can end at t = 3 at '{command}.policy'")
    assert json.loads((tmp_path / "lq-3.0" / "results.json").read_text())["error"].startswith("E_CONFIG")
    # the zero policy has no horizon
    assert _run(tmp_path, doc(3.0), sub="zero")[0] == 0


# the horizon keys each cost criterion takes, and the blocks' other keys
COST_HORIZONS = {"discounted": {}, "finite-horizon": {}, "ergodic": {"t_long": 2.0},
                 "exit": {"t_cap": 1000.0}}
COST_KEYS = {"discounted": {"eps_tail": 0.01}, "finite-horizon": {}, "ergodic": {}, "exit": {}}


@pytest.mark.parametrize(
    "overrides,code_name",
    [
        ({"batch": -1}, "E_SHAPE"),
        ({"batch": 0}, "E_SHAPE"),
        ({"n_paths": 0}, "E_SHAPE"),
        ({"criterion": "exit", "t_cap": 0.0}, "E_STEP"),
        ({"criterion": "exit", "t_cap": -2.0}, "E_STEP"),
        ({"criterion": "ergodic", "t_long": 1.0, "burn_in": 0.975}, "E_UNBOUNDED"),
    ],
)
def test_cost_rejects_bad_counts_and_time_cap(tmp_path, capsys, overrides, code_name):
    criterion = overrides.get("criterion", "discounted")
    block = {"criterion": criterion, "x0": [0.0], "i0": 1, "dt": 0.05, "n_paths": 16, "seed": 7,
             **COST_KEYS[criterion], **overrides}
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
             **COST_HORIZONS[criterion]}
    code, out = _run(tmp_path, {"command": "cost", "model": CHAIN, "cost": block})
    assert code == 3
    assert "E_STEP" in capsys.readouterr().err
    assert not (out / "estimates.csv").exists()


HUGE_GRID = {"x_min": -1.0, "x_max": 1.0, "n_x": 10**11}
HUGE_COUNTS = {
    "cost-n_paths": (CHAIN, "cost", {"criterion": "discounted", "x0": [0.0], "i0": 1, "dt": 0.05,
                                     "n_paths": 10**12, "seed": 7},
                     "E_SHAPE: n_paths = 1000000000000 is beyond the path bound 100000000"),
    "hjb-n_x": (CHAIN, "hjb", {"criterion": "discounted", "grid": HUGE_GRID},
                "E_SHAPE: grid of n_x = 100000000000 nodes is beyond the node bound 1000000"),
    "ergodic-n_x": (CHAIN, "ergodic", {"grid": HUGE_GRID},
                    "E_SHAPE: grid of n_x = 100000000000 nodes is beyond the node bound 1000000"),
    "riccati-steps": (LQ_SCALAR, "riccati", {"steps": 10**11},
                      "E_STEP: 100000000000 Riccati steps is beyond the step bound 10000000"),
    "lq-sweep-steps": (LQ_SCALAR, "robustness", {
        "criterion": "lq-finite-horizon", "x0": [1.0], "i0": 1, "steps": 10**11,
        "schedule": {"mode": "rates", "n_max": 1, "d_m": [[0.0]]},
    }, "E_STEP: 100000000000 Riccati steps is beyond the step bound 10000000"),
}


@pytest.mark.parametrize("case", sorted(HUGE_COUNTS))
def test_counts_beyond_their_bound_exit_3_before_allocating(tmp_path, capsys, case):
    # each count asks for terabytes; the bound refuses it before numpy is asked
    model, command, block, expected = HUGE_COUNTS[case]
    code, out = _run(tmp_path, {"command": command, "model": model, command: block})
    assert code == 3
    assert f"solver error: {expected}" in capsys.readouterr().err
    assert json.loads((out / "results.json").read_text())["error"] == expected


@pytest.mark.parametrize(
    "command,block",
    [
        ("cost", {"criterion": "exit", "t_cap": 1.0, "seed": -1}),
        ("cost", {"criterion": "discounted", "eps_tail": 0.01, "seed": 2**64}),
        ("simulate", {"t": 1.0, "seed": -5}),
        ("simulate", {"exit": True, "t_cap": 1.0, "seed": 2**64}),
    ],
    ids=["cost-exit-minus-1", "cost-discounted-2**64", "simulate-minus-5", "simulate-exit-2**64"],
)
def test_seeds_outside_uint64_exit_3(tmp_path, capsys, command, block):
    base = {"x0": [0.0], "i0": 1, "dt": 0.05}
    if command == "cost":
        base["n_paths"] = 4
    code, out = _run(tmp_path, {"command": command, "model": CHAIN, command: {**base, **block}})
    assert code == 3
    expected = f"E_SHAPE: seed = {block['seed']} and path indices"
    assert expected in capsys.readouterr().err
    assert json.loads((out / "results.json").read_text())["error"].startswith(expected)


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: --config"),
        (["--config", "cfg.json", "--threads", "8"], "unrecognized arguments: --threads 8"),
    ],
    ids=["missing-config", "unknown-option"],
)
def test_command_line_errors_exit_4(tmp_path, capsys, argv, message):
    # exit 2 is kept for validation findings, so argparse's own exit 2 is not used
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 4
    assert capsys.readouterr().err.endswith(f"\nconfig error: {message}\n")


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
    "costs,block,code,expected",
    [
        # the horizon is the model's, so a bad one is a config error before any run
        ({"horizon": -1.0}, {}, 4, "E_CONFIG: horizon must be > 0 at 'model.costs.horizon'"),
        ({"horizon": 0.0}, {}, 4, "E_CONFIG: horizon must be > 0 at 'model.costs.horizon'"),
        ({}, {"n_t": 0}, 3, "E_STEP"),
        ({}, {"n_t": -3}, 3, "E_STEP"),
    ],
    ids=["horizon=-1", "horizon=0", "n_t=0", "n_t=-3"],
)
def test_hjb_rejects_bad_finite_horizon_inputs(tmp_path, capsys, costs, block, code, expected):
    model = dict(CHAIN, costs=dict(CHAIN["costs"], **costs))
    block = {"criterion": "finite-horizon", "grid": GRID, **block}
    got, out = _run(tmp_path, {"command": "hjb", "model": model, "hjb": block})
    assert got == code
    assert expected in capsys.readouterr().err
    assert not (out / "values.csv").exists()
    if code == 3:  # a config error stops before results.json is written
        assert json.loads((out / "results.json").read_text())["error"].startswith(expected)


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
        ("ergodic", {"grid": GRID, "max_iter": 2.5}, {}, "ergodic.max_iter"),
        ("robustness", {"criterion": "discounted", "grid": GRID,
                        "schedule": {"mode": "rates", "n_max": 1, "d_cost": 5.0}},
         {}, "robustness.schedule.d_cost"),
        ("validate", None, {"costs": dict(CHAIN["costs"], running={"kind": "lq", "q": [[[-1.0]], [[1.0]]],
                                                                   "r": [[[1.0]], [[1.0]]]})},
         "model.costs.running.q"),
        ("robustness", {"criterion": "discounted", "grid": GRID,
                        "schedule": {"mode": "rates", "n_max": 1076, "d_m": [[0.0, 0.5], [1.0, 0.0]]}},
         {}, "robustness.schedule.n_max"),
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


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "command,block,model,path",
    [
        ("hjb", {"criterion": "finite-horizon", "grid": GRID},
         {"costs": dict(CHAIN["costs"], horizon=INF)}, "model.costs.horizon"),
        ("hjb", {"criterion": "discounted", "grid": dict(GRID, x_max=INF)}, {}, "hjb.grid.x_max"),
        ("cost", dict(SIM, criterion="finite-horizon", n_paths=4),
         {"costs": dict(CHAIN["costs"], running={"kind": "regime", "values": [INF, 1.0]})},
         "model.costs.running.values"),
        ("simulate", dict(SIM, x0=[NAN]), {}, "simulate.x0"),
    ],
    ids=["horizon", "grid-x_max", "regime-cost", "x0"],
)
def test_non_finite_numbers_exit_4_naming_the_field(tmp_path, capsys, command, block, model, path):
    # json writes and reads the Infinity and NaN literals, which are no numbers here
    doc = {"command": command, "model": dict(CHAIN, **model), command: block}
    code, out = _run(tmp_path, doc)
    assert code == 4
    assert capsys.readouterr().err == f"config error: E_CONFIG: numbers must be finite at '{path}'\n"
    assert not any(out.glob("*.csv"))


COST = dict(SIM, n_paths=4)


@pytest.mark.parametrize(
    "command,block,path",
    [
        ("hjb", {"criterion": "exit", "grid": GRID, "n_t": 5}, "hjb.n_t"),
        ("hjb", {"criterion": "discounted", "grid": GRID, "n_t": -3}, "hjb.n_t"),
        ("hjb", {"criterion": "finite-horizon", "grid": GRID, "tol": -1, "max_iter": 0}, "hjb.tol"),
        ("hjb", {"criterion": "finite-horizon", "grid": GRID, "max_iter": 5}, "hjb.max_iter"),
        ("robustness", {"criterion": "discounted", "grid": GRID, "schedule": SCHED, "n_t": 5},
         "robustness.n_t"),
        ("robustness", {"criterion": "finite-horizon", "grid": GRID, "schedule": SCHED,
                        "max_iter": 5}, "robustness.max_iter"),
        ("robustness", {"criterion": "exit", "grid": GRID, "schedule": SCHED, "steps": 50},
         "robustness.steps"),
        ("robustness", {"criterion": "lq-finite-horizon", "grid": GRID, "schedule": SCHED,
                        "x0": [0.0], "i0": 1}, "robustness.grid"),
        ("cost", dict(COST, criterion="discounted", t_long=2.0), "cost.t_long"),
        ("cost", dict(COST, criterion="finite-horizon", t_cap=1.0), "cost.t_cap"),
        ("cost", dict(COST, criterion="exit", t_cap=1.0, eps_tail=0.01), "cost.eps_tail"),
        ("cost", dict(COST, criterion="discounted", burn_in=0.1), "cost.burn_in"),
        ("cost", dict(COST, criterion="ergodic", t_long=2.0, t_cap=1.0), "cost.t_cap"),
        ("simulate", dict(SIM, exit=True, t_cap=1.0, t=1.0), "simulate.t"),
        ("simulate", dict(SIM, t_cap=1.0), "simulate.t_cap"),
    ],
)
def test_keys_that_do_not_apply_to_the_criterion_exit_4(tmp_path, capsys, command, block, path):
    code, out = _run(tmp_path, {"command": command, "model": CHAIN, command: block})
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("config error: E_CONFIG: ") and "does not apply" in err
    assert err.rstrip().endswith(f" at '{path}'")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("max_iter", [0, -3])
def test_an_hjb_max_iter_below_1_exits_4(tmp_path, capsys, max_iter):
    code, out = _run(tmp_path, {"command": "hjb", "model": CHAIN,
                                "hjb": {"criterion": "discounted", "grid": GRID, "max_iter": max_iter}})
    assert code == 4
    assert capsys.readouterr().err.startswith("config error: E_CONFIG: max_iter must be a whole number >= 1")
    assert not list(out.glob("*.csv"))


# the rate and cost bounds are derived from the families, and every command
# reads the discount and the horizon from the model's costs
ONE_SOURCE = [
    ("validate", None, {"generator": dict(CHAIN["generator"], bound=5.0)}, "model.generator.bound"),
    ("validate", None, {"costs": dict(CHAIN["costs"], m_c=5.0)}, "model.costs.m_c"),
    ("hjb", {"criterion": "discounted", "grid": GRID, "alpha": 0.5}, {}, "hjb.alpha"),
    ("hjb", {"criterion": "finite-horizon", "grid": GRID, "horizon": 2.0}, {}, "hjb.horizon"),
    ("cost", dict(COST, criterion="finite-horizon", t=2.0), {}, "cost.t"),
]


@pytest.mark.parametrize("command,block,model,path", ONE_SOURCE, ids=[case[-1] for case in ONE_SOURCE])
def test_settings_with_one_source_are_unknown_keys(tmp_path, capsys, command, block, model, path):
    doc = {"command": command, "model": dict(CHAIN, **model)}
    if block is not None:
        doc[command] = block
    code, out = _run(tmp_path, doc)
    assert code == 4
    key = path.rsplit(".", 1)[1]
    assert capsys.readouterr().err == f"config error: E_CONFIG: unknown key '{key}' at '{path}'\n"
    assert not out.exists()


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


def test_ergodic_reports_the_solver_state(tmp_path):
    doc = {"command": "ergodic", "model": CHAIN,
           "ergodic": {"grid": {"x_min": -1.0, "x_max": 1.0, "n_x": 101}}}
    code, out = _run(tmp_path, doc)
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert results["rho"] == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert results["iterations"] >= 1 and 0.0 < results["residual"] <= 1e-10
    assert results["outputs"] == ["values.csv"]
    assert not (out / "ladder.csv").exists()
    report = (out / "report.txt").read_text()
    assert f"iterations={results['iterations']} residual=" in report
    assert "PASS rho-bound: 0 <= rho <= M_c = 2\n" in report


def test_ergodic_multichain_model_exits_3(tmp_path, capsys):
    # no switching either way: two closed classes, no single average cost
    model = dict(CHAIN, generator={"kind": "constant", "rates": [[0.0, 0.0], [0.0, 0.0]]})
    doc = {"command": "ergodic", "model": model,
           "ergodic": {"grid": {"x_min": -1.0, "x_max": 1.0, "n_x": 101}}}
    code, out = _run(tmp_path, doc)
    assert code == 3
    assert "E_DEGENERATE" in capsys.readouterr().err
    assert not (out / "values.csv").exists()
    assert json.loads((out / "results.json").read_text())["error"].startswith("E_DEGENERATE")


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


def test_hjb_exit_values_match_the_library(tmp_path):
    spec = saturated_model()
    grid = {"x_min": -2.0, "x_max": 2.0, "n_x": 101}
    doc = {"command": "hjb", "model": model_to_dict(spec), "hjb": {"criterion": "exit", "grid": grid}}
    code, out = _run(tmp_path, doc)
    assert code == 0
    switchsde.solve_exit(spec, switchsde.Grid1D(**grid)).to_csv(tmp_path / "lib.csv")
    assert (out / "values.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()


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


def test_out_key_in_config_is_used(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = {"command": "validate", "model": CHAIN, "out": "from_config"}
    cfg = _write(tmp_path, doc)
    assert cli.main(["--config", str(cfg)]) == 0
    assert (tmp_path / "from_config" / "report.txt").exists()


def _fresh(tmp_path, code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on the tree under test."""
    src = str(Path(switchsde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


def test_import_leaves_scipy_out(tmp_path):
    # scipy and numpy.random load on first use, not with the package, and the
    # refill's worker threads need neither concurrent.futures nor a thread
    # of their own at import
    probe = ("import sys, threading, switchsde; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy' or m.startswith(('numpy.random', 'concurrent'))), "
             "threading.active_count())")
    assert _fresh(tmp_path, probe) == "[] 1"

    # a grid solve loads LAPACK's dgbsv from scipy's compiled extension alone:
    # neither the scipy.linalg package nor the numpy.f2py it pulls in
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.f2py'))"
    solve = (f"from switchsde import Grid1D, model_from_dict, solve_discounted; "
             f"v = solve_discounted(model_from_dict({CHAIN!r}), Grid1D(-2.0, 2.0, 21)).values")
    same = ("import scipy.linalg; from switchsde import hjbgrid; "
            "print(hjbgrid._dgbsv() is scipy.linalg.lapack.dgbsv, v.tobytes().hex())")
    solve_first = _fresh(tmp_path, f"import sys; {solve}; print({loaded}); {same}").splitlines()
    assert solve_first[0] == "['scipy.linalg._flapack']"
    linalg_first = _fresh(tmp_path, f"import scipy.linalg; {solve}; {same}")
    assert solve_first[1] == linalg_first
    assert linalg_first.startswith("True ")

    cfg = _write(tmp_path, {"command": "hjb", "model": CHAIN, "hjb": {"criterion": "discounted", "grid": GRID}})
    run = f"import sys; from switchsde import cli; print(cli.main(['--config', {str(cfg)!r}, '--out', 'out']), {loaded})"
    assert _fresh(tmp_path, run) == "0 ['scipy.linalg._flapack']"


def test_import_loads_no_module_until_a_name_is_used(tmp_path):
    # neither dir() nor an unknown name loads a module; a name loads its home module
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'switchsde'))"
    probe = (f"import sys, switchsde; print({loaded}); "
             f"print(hasattr(switchsde, 'no_such_name'), set(switchsde.__all__) <= set(dir(switchsde)), {loaded}); "
             f"switchsde.ConfigError; print({loaded})")
    assert _fresh(tmp_path, probe).splitlines() == [
        "['switchsde']", "False True ['switchsde']", "['switchsde', 'switchsde.errors']"
    ]
    with pytest.raises(AttributeError, match="no_such_name"):
        switchsde.no_such_name


# the package's public names by home module; each module name is public too
PUBLIC = {
    "costs": "DEFAULT_BATCH McEstimate discounted_horizon mc_discounted mc_ergodic mc_exit mc_finite_horizon "
             "pairwise_sum write_estimates_csv",
    "errors": "BlowupError CapFractionWarning ConfigError DegenerateError EigError IoError MaxIterError NanError "
              "RatesError SchemeError ShapeError StepError SwitchSdeError UnboundedError",
    "hjbgrid": "Grid1D GridSolution estimate_ergodic estimate_ergodic_policy evaluate_policy_exit "
               "evaluate_policy_finite_horizon evaluate_policy_value solve_discounted solve_exit solve_finite_horizon",
    "io": "",
    "model": "ActionGrid BoundaryCost CostSpec DiffusionFamily DriftFamily ExitDiscount Finding GeneratorSpec "
             "ModelSpec PerturbationSchedule RegimeSet RunningCost TerminalCost ValidationReport "
             "make_perturbation_sequence model_from_dict model_to_dict validate_model",
    "riccati": "FeedbackTrajectory LQSpec RiccatiTrajectory a_priori_bound fixed_feedback_cost lq_feedback "
               "lq_from_model lq_model riccati_defect solve_coupled_riccati",
    "robustness": "EpsOptimalityReport SweepReport SweepRow check_eps_optimality sweep_grid "
                  "sweep_lq_finite_horizon",
    "simulate": "BatchStepper CallablePolicy ConstantPolicy GridPolicy LQFeedbackPolicy PathSample RngStream "
                "TimeGridPolicy simulate_exit_path simulate_path",
}


def test_public_names_resolve_on_first_use_to_their_home_objects(tmp_path):
    assert set(switchsde.__all__) == {*PUBLIC, *" ".join(PUBLIC.values()).split()}
    # no public name is bound by the import; each resolves to its home module's object
    probe = (f"import importlib, switchsde; public = {PUBLIC!r}; "
             "print(sorted(set(switchsde.__all__) & set(vars(switchsde)))); "
             "home = lambda m: importlib.import_module('switchsde.' + m); "
             "print([n for m, names in public.items() for n in (m, *names.split()) "
             "if getattr(switchsde, n) is not (home(m) if n == m else getattr(home(m), n))])")
    assert _fresh(tmp_path, probe).splitlines() == ["[]", "[]"]


# what each command loads of the package, besides the package, cli and the
# parser's errors, io and model
COMMAND_MODULES = {
    "validate": ({}, ()),
    "riccati": ({"steps": 50}, ("riccati",)),
    "simulate": (SIM, ("simulate",)),
    "cost": (dict(COST, criterion="discounted"), ("costs", "simulate")),
    "hjb": ({"criterion": "discounted", "grid": GRID}, ("hjbgrid",)),
    "ergodic": ({"grid": GRID}, ("hjbgrid",)),
    "robustness": ({"criterion": "discounted", "grid": GRID, "schedule": SCHED}, ("hjbgrid", "robustness")),
    "eps-check": ({"criterion": "discounted", "eps": 0.05, "grid": GRID, "schedule": SCHED},
                  ("hjbgrid", "robustness")),
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    block, modules = COMMAND_MODULES[command]
    model = LQ_SCALAR if command == "riccati" else CHAIN
    cfg = _write(tmp_path, {"command": command, "model": model, command: block})
    run = (f"import sys; from switchsde import cli; code = cli.main(['--config', {str(cfg)!r}, '--out', 'out']); "
           "print(code, sorted(m.removeprefix('switchsde.') for m in sys.modules if m.startswith('switchsde.')))")
    assert _fresh(tmp_path, run) == f"0 {sorted(['cli', 'errors', 'io', 'model', *modules])}"


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
