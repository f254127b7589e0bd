from __future__ import annotations

import json

import numpy as np
import pytest

from pomdp_ope.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_oracle_toy_target(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--env", "toy", "--policy", "target")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.76, abs=5e-3)
    assert doc["provenance"]["kind"] == "exact"


def test_oracle_toy_behavior(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--env", "toy", "--policy", "behavior")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.37, abs=5e-3)


def test_estimate_byte_identical_runs(capsys):
    args = ("estimate", "--env", "toy", "--k", "2", "--T", "1400", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["k"] == 2
    assert doc["t_used"] == 1398
    assert doc["ci"][0] <= doc["value"] <= doc["ci"][1]


def test_simulate_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--env", "toy", "--T", "25", "--seed", "3", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "t,x,h,w,y"
    assert len(lines) == 26


def test_simulate_glucose_csv(tmp_path, capsys):
    out_path = tmp_path / "gl.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--env", "glucose", "--T", "30", "--seed", "4", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "t,gl,ex,di,in,y,behavior_prob,target_action"
    assert len(lines) == 31


def test_lepski_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "lepski", "--env", "toy", "--T", "900", "--seed", "11",
        "--k-set=-1,0,1,2,3,4,5,6,7",
    )
    assert code == 0
    doc = json.loads(out)
    assert "selected_k" in doc
    assert len(doc["reports"]) == 9
    assert any(rep["k"] == doc["selected_k"] for rep in doc["reports"])


def test_sweep_writes_csv_and_json(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--env", "toy", "--k-set=-1,0,1", "--T-set", "60,120",
        "--replications", "16", "--seed", "5", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0].startswith("env,k,T,replications,mse")
    assert len(lines) == 7
    companion = json.loads(out_path.with_suffix(".json").read_text())
    assert companion["spec"]["replications"] == 16


def test_instance_emits_model_round_trip(tmp_path, capsys):
    out_path = tmp_path / "toy.json"
    code, _, _ = run_cli(capsys, "instance", "--env", "toy", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    from pomdp_ope.serialization import model_from_dict
    from pomdp_ope.instances import toy_model

    loaded = model_from_dict(doc["model"])
    model, _, _ = toy_model()
    np.testing.assert_array_equal(loaded.transition, model.transition)
    assert loaded.reward == model.reward


def test_instance_hard_check_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "instance", "--hard", "Q=3,t0=1,zeta=0.69,M1=1,M2=2,Delta=0.5", "--check",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert all("PASS" in line for line in lines)
    assert lines[0].startswith("C1") and lines[3].startswith("C4")


def test_instance_hard_emits_pair(capsys):
    code, out, _ = run_cli(
        capsys, "instance", "--hard", "Q=2,t0=1,zeta=0.5,M1=1,M2=2,Delta=0.25"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"instance_hi", "instance_lo", "behavior", "target"}


def test_estimate_glucose_via_ratios(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--env", "glucose", "--k", "3", "--T", "500", "--seed", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 3 and doc["t_used"] == 497
    assert -3.0 <= doc["value"] <= 0.0


def test_lepski_glucose(capsys):
    code, out, _ = run_cli(
        capsys, "lepski", "--env", "glucose", "--T", "800", "--seed", "2",
        "--k-set=-1,0,1,2,3,4,5",
    )
    assert code == 0
    assert len(json.loads(out)["reports"]) == 7


def test_instance_glucose_emits_trajectory_csv(tmp_path, capsys):
    out_path = tmp_path / "gl.csv"
    code, _, _ = run_cli(
        capsys, "instance", "--env", "glucose", "--T", "20", "--seed", "8",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "t,gl,ex,di,in,y,behavior_prob,target_action"
    assert len(lines) == 21


def test_mixing_failure_exits_4(tmp_path, capsys):
    # Periodic kernel with a non-uniform stationary law: power iteration from
    # the uniform start oscillates forever.
    from pomdp_ope import PointMass, Policy, PomdpModel
    from pomdp_ope.serialization import save_model, save_policy

    kernel = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
    reward = tuple(tuple(PointMass(0.0) for _ in range(2)) for _ in range(3))
    model = PomdpModel(
        num_x=1, num_h=3, num_actions=2,
        transition=np.stack([kernel, kernel]), reward=reward,
    )
    policy = Policy(probs=np.array([[0.5, 0.5]]))
    save_model(model, tmp_path / "m.json")
    save_policy(policy, tmp_path / "p.json")
    code, _, err = run_cli(
        capsys,
        "oracle", "--model", str(tmp_path / "m.json"),
        "--behavior", str(tmp_path / "p.json"), "--target", str(tmp_path / "p.json"),
    )
    assert code == 4
    assert "did not converge" in err


@pytest.mark.parametrize(
    "target, behavior, key",
    [("stay", "mix", "mixing_time_target"), ("mix", "stay", "overlap_zeta")],
    ids=["dobrushin-1", "overlap-violated"],
)
def test_oracle_writes_infinite_diagnostics_as_null(tmp_path, capsys, target, behavior, key):
    from pomdp_ope import PointMass, Policy, PomdpModel
    from pomdp_ope.serialization import save_model, save_policy

    # Action 0 keeps the state and action 1 swaps it: "stay" gives a kernel
    # with Dobrushin coefficient 1, and "mix" puts mass on the action "stay"
    # never takes.
    kernel = np.eye(2)
    reward = tuple(tuple(PointMass(float(s)) for _ in range(2)) for s in range(2))
    model = PomdpModel(
        num_x=2, num_h=1, num_actions=2,
        transition=np.stack([kernel, kernel[::-1]]), reward=reward,
    )
    save_model(model, tmp_path / "m.json")
    save_policy(Policy(probs=np.array([[1.0, 0.0], [1.0, 0.0]])), tmp_path / "stay.json")
    save_policy(Policy(probs=np.full((2, 2), 0.5)), tmp_path / "mix.json")
    code, out, _ = run_cli(
        capsys,
        "oracle", "--model", str(tmp_path / "m.json"),
        "--behavior", str(tmp_path / f"{behavior}.json"),
        "--target", str(tmp_path / f"{target}.json"),
    )
    assert code == 0
    doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
    assert doc["diagnostics"][key] is None
    assert doc["value"] == 0.5


def test_unknown_environment_exits_2(capsys):
    code, _, err = run_cli(capsys, "oracle", "--env", "nosuch")
    assert code == 2
    assert "nosuch" in err


@pytest.mark.parametrize("runs, hours, name", [("0", "10", "runs"), ("5", "0", "hours")])
def test_glucose_oracle_without_runs_exits_2(capsys, runs, hours, name):
    code, out, err = run_cli(
        capsys, "oracle", "--env", "glucose", "--oracle-runs", runs, "--oracle-hours", hours
    )
    assert code == 2
    assert out == ""
    assert name in err


def test_malformed_json_exits_2_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"num_x": 1,,}')
    code, _, err = run_cli(
        capsys,
        "estimate", "--model", str(bad), "--behavior", str(bad), "--target", str(bad),
        "--k", "1", "--T", "50",
    )
    assert code == 2
    assert "line 1" in err and "column" in err


def test_bad_hard_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "instance", "--hard", "Q=3,bogus=1", "--check")
    assert code == 2
    assert "bogus" in err


def test_model_files_workflow(tmp_path, capsys):
    from pomdp_ope.instances import toy_model
    from pomdp_ope.serialization import save_model, save_policy

    model, behavior, target = toy_model()
    save_model(model, tmp_path / "m.json")
    save_policy(behavior, tmp_path / "b.json")
    save_policy(target, tmp_path / "t.json")
    code, out, _ = run_cli(
        capsys,
        "estimate", "--model", str(tmp_path / "m.json"),
        "--behavior", str(tmp_path / "b.json"), "--target", str(tmp_path / "t.json"),
        "--k", "1", "--T", "200", "--seed", "2",
    )
    assert code == 0
    assert json.loads(out)["k"] == 1


def test_estimate_requires_policies_with_model(tmp_path, capsys):
    from pomdp_ope.instances import toy_model
    from pomdp_ope.serialization import save_model

    model, _, _ = toy_model()
    save_model(model, tmp_path / "m.json")
    code, _, err = run_cli(
        capsys, "estimate", "--model", str(tmp_path / "m.json"), "--k", "1", "--T", "50"
    )
    assert code == 2
    assert "--behavior" in err
