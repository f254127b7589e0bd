from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from conftest import run_python

from pomdp_ope import SweepSpec, cli, run_sweep, sweep_result_to_json
from pomdp_ope.cli import build_parser, main
from pomdp_ope.serialization import json_text


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


def test_oracle_refuses_a_horizon_no_window_takes(capsys):
    # --T 1 once printed "calibrated_k": 0, a window that estimate refuses
    # at that horizon.
    code, out, err = run_cli(capsys, "oracle", "--env", "toy", "--T", "1")
    assert code == 2
    assert out == ""
    assert "T must be >= 2, got 1" in err
    code, out, _ = run_cli(capsys, "oracle", "--env", "toy", "--T", "2")
    assert code == 0
    assert json.loads(out)["calibrated_k"] == 0


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


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("simulate", "--env", "toy", "--T", "400", "--seed", "5"),
            "692330bd2b20370b17b7fbbd7b69f9fb9cdf4f5b0625634e10714552db5d6724",
        ),
        (
            ("simulate", "--env", "hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2", "--T", "400", "--seed", "5"),
            "16b31609ece2e892ec56145990a49c2fe132f68f00513ef54609a4baa3e219ff",
        ),
        (
            ("simulate", "--env", "glucose", "--T", "400", "--seed", "5"),
            "689e7d5d14113ba8765d0031bdf0221b6391238e3a164b5f063f0847a90dfc04",
        ),
        (
            ("simulate", "--env", "glucose", "--T", "1000", "--seed", "3"),
            "32db582c94b3b0e9fbe9cbdeb61e8c6443f0e902c10d70843c365a3aa084bb95",
        ),
    ],
    ids=["simulate-toy", "simulate-hard", "simulate-glucose", "simulate-glucose-1000"],
)
def test_trajectory_csv_bytes_are_pinned(capsys, argv, digest):
    # SHA-256 of each environment's trajectory CSV: any change to the
    # columns, the number format or the simulators' streams shows up here.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_lepski_bytes_are_pinned(capsys):
    # SHA-256 of one trajectory's window selection: the reports of nine
    # windows and the window the selection rule picks from them. A window of
    # 10,000 steps, the longest, still takes one dot per lag.
    for T, digest in [
        ("5000", "f3a1a24a521e238c2a8d92dda505b28bd6be448e2ed895998eed80201b1c849b"),
        ("10000", "e415bb925ae7481aa8b9acd1d9496ed0c0d897918fab8bbc3df44449ff68b949"),
    ]:
        code, out, _ = run_cli(
            capsys, "lepski", "--env", "toy", "--T", T, "--k-set=-1,0,1,2,3,4,5,6,7", "--seed", "5"
        )
        assert code == 0
        assert json.loads(out)["selected_k"] == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest, T


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


def test_sweep_refuses_an_out_its_json_companion_would_overwrite(tmp_path, capsys):
    # The JSON goes to --out with a .json suffix, so a .json --out once had
    # its CSV overwritten by the JSON, exit 0. On a case-insensitive
    # filesystem a .JSON --out names the same file as its companion.
    for name in ("sweep.json", "sweep.JSON"):
        out_path = tmp_path / name
        code, out, err = run_cli(
            capsys,
            "sweep", "--env", "toy", "--k-set=-1,0,1", "--T-set", "60",
            "--replications", "4", "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert "--out" in err
        assert not out_path.exists()
        assert list(tmp_path.iterdir()) == []


def test_sweep_refuses_a_directory_in_its_json_companion_place(tmp_path, capsys, monkeypatch):
    # The sweep once ran to the end, wrote the CSV and then raised
    # IsADirectoryError (exit 1) on the companion.
    (tmp_path / "c.json").mkdir()
    runs = []
    monkeypatch.setattr(cli, "run_sweep", lambda spec: runs.append(spec))
    code, out, err = run_cli(
        capsys, "sweep", "--env", "toy", "--k-set=0", "--T-set=20", "--replications", "2",
        "--out", str(tmp_path / "c.csv"),
    )
    assert (code, out) == (2, "")
    assert err == f"error: the sweep's JSON companion {tmp_path / 'c.json'} is a directory\n"
    assert runs == []
    assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--env", "toy", "--k-set=0", "--T-set=20", "--replications", "2"),
        ("lepski", "--env", "toy", "--T", "50"),
        ("simulate", "--env", "toy", "--T", "20"),
    ],
    ids=["sweep", "lepski", "simulate"],
)
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_out_that_cannot_be_written_exits_2_before_any_work(tmp_path, capsys, argv, where):
    # Each once ran to the end and then raised IsADirectoryError or
    # FileNotFoundError (exit 1).
    target = tmp_path / "run"
    target.mkdir()
    out = target if where == "directory" else target / "missing" / "x.csv"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert f"--out {out}" in err
    assert list(target.iterdir()) == []
    assert list(tmp_path.iterdir()) == [target]


def test_lepski_bytes_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product of more than 10,000 elements over its
    # threads, which can change a sum's last bits. A series of 10,000 steps
    # takes one dot per lag, within one thread's share; a longer one sums its
    # lags in blocks of 4,096 steps (one dot per lag took other bytes at
    # 20,000 steps under two threads than under one).
    for T in ("10000", "20000"):
        code = (
            f"from pomdp_ope.cli import main; main(['lepski', '--env', 'toy', '--T', '{T}', "
            "'--k-set=-1,0,1,2,3,4,5,6,7', '--seed', '5'])"
        )
        one, two = (run_python(code, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2"))
        assert json.loads(one)["reports"]
        assert one == two, T


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
        "instance", "--env", "hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2,Delta=0.5", "--check",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert all("PASS" in line for line in lines)
    assert lines[0].startswith("C1") and lines[3].startswith("C4")


def test_instance_hard_emits_pair(capsys):
    code, out, _ = run_cli(
        capsys, "instance", "--env", "hard:Q=2,t0=1,zeta=0.5,M1=1,M2=2,Delta=0.25"
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
    code, out, _ = run_cli(capsys, "oracle", *_stay_and_mix(tmp_path, target, behavior))
    assert code == 0
    doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
    assert doc["diagnostics"][key] is None
    assert doc["value"] == 0.5


@pytest.mark.parametrize(
    "target, behavior", [("stay", "mix"), ("mix", "stay")], ids=["dobrushin-1", "overlap-violated"]
)
def test_oracle_checks_C0_where_no_window_is_calibrated(tmp_path, capsys, target, behavior):
    # With an infinite mixing time or overlap constant no window is
    # calibrated, but a bad --C0 is refused all the same.
    argv = _stay_and_mix(tmp_path, target, behavior)
    code, out, _ = run_cli(capsys, "oracle", *argv, "--T", "100", "--C0", "2")
    assert code == 0 and "calibrated_k" not in json.loads(out)
    code, out, err = run_cli(capsys, "oracle", *argv, "--T", "100", "--C0", "-1")
    assert (code, out, err) == (2, "", "error: C0 must be finite and > 0, got -1.0\n")


@pytest.mark.parametrize("T", ["1", "0", "-5"])
@pytest.mark.parametrize(
    "target, behavior", [("stay", "mix"), ("mix", "stay")], ids=["dobrushin-1", "overlap-violated"]
)
def test_oracle_checks_T_where_no_window_is_calibrated(tmp_path, capsys, target, behavior, T):
    # These once exited 0 and ignored --T, which toy refuses: one rule
    # for every model.
    argv = _stay_and_mix(tmp_path, target, behavior)
    code, out, err = run_cli(capsys, "oracle", *argv, "--T", T)
    assert (code, out, err) == (2, "", f"error: T must be >= 2, got {T}\n")
    code, out, err = run_cli(capsys, "oracle", "--env", "toy", "--T", T)
    assert (code, out, err) == (2, "", f"error: T must be >= 2, got {T}\n")


def _stay_and_mix(tmp_path, target: str, behavior: str) -> tuple[str, ...]:
    """The model-file options of a two-state model with the policies named."""
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
    return (
        "--model", str(tmp_path / "m.json"),
        "--behavior", str(tmp_path / f"{behavior}.json"),
        "--target", str(tmp_path / f"{target}.json"),
    )


def test_lepski_runs_share_one_step_monoid_build(capsys, monkeypatch, step_tables):
    # Both runs get the toy id's one environment, so the simulator builds
    # its step tables and their monoid once, at the first run: one bucket
    # table of the policy, one of the transition tensor.
    from pomdp_ope import core

    builds, buckets = [], []
    build, bucket_counts = core._step_monoid, core._bucket_counts
    monkeypatch.setattr(core, "_step_monoid", lambda nxt_of: builds.append(nxt_of) or build(nxt_of))
    monkeypatch.setattr(core, "_bucket_counts", lambda cum, values: buckets.append(cum.shape) or bucket_counts(cum, values))
    for seed in ("1", "2"):
        assert main(["lepski", "--env", "toy", "--T", "2000", "--k-set=-1,0,1", "--seed", seed]) == 0
    capsys.readouterr()
    assert len(builds) == len(step_tables) == 1
    assert buckets == [(2, 2), (2, 4, 4)]


def test_unknown_environment_exits_2(capsys):
    code, _, err = run_cli(capsys, "oracle", "--env", "nosuch")
    assert code == 2
    assert "nosuch" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "--env", "toy", "--T", "100", "--k", "1"),
        ("simulate", "--env", "toy", "--T", "20"),
        ("simulate", "--env", "glucose", "--T", "20"),
        ("lepski", "--env", "glucose", "--T", "50", "--k-set=-1,0,1"),
    ],
    ids=["estimate-toy", "simulate-toy", "simulate-glucose", "lepski-glucose"],
)
def test_negative_seed_exits_2_naming_it(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "non-negative" in err and "-1" in err


@pytest.mark.parametrize("runs, hours, name", [("0", "10", "runs"), ("5", "0", "hours")])
def test_glucose_oracle_without_runs_exits_2(capsys, runs, hours, name):
    code, out, err = run_cli(
        capsys, "oracle", "--env", "glucose", "--oracle-runs", runs, "--oracle-hours", hours
    )
    assert code == 2
    assert out == ""
    assert name in err


def test_glucose_oracle_takes_seed_and_burn_in(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--env", "glucose", "--seed", "5", "--burn-in", "0",
        "--oracle-runs", "20", "--oracle-hours", "20",
    )
    assert code == 0
    provenance = json.loads(out)["provenance"]
    assert (provenance["seed"], provenance["burn_in"]) == (5, 0)


@pytest.mark.parametrize(
    "env, option",
    [
        ("glucose", ("--T", "100")),
        ("glucose", ("--C0", "2")),
        ("toy", ("--oracle-runs", "20")),
        ("toy", ("--oracle-hours", "20")),
        ("toy", ("--seed", "5")),
        ("toy", ("--burn-in", "0")),
        # A constant of the calibrated window applies only with --T.
        ("toy", ("--C0", "2")),
    ],
    ids=[
        "glucose-T", "glucose-C0", "toy-oracle-runs", "toy-oracle-hours", "toy-seed", "toy-burn-in",
        "toy-C0-without-T",
    ],
)
def test_oracle_refuses_options_that_do_not_apply(capsys, env, option):
    # The glucose cases keep the Monte Carlo run small, in case the option
    # were ignored and the oracle ran.
    size = ("--oracle-runs", "5", "--oracle-hours", "5") if env == "glucose" else ()
    code, out, err = run_cli(capsys, "oracle", "--env", env, *size, *option)
    assert code == 2
    assert out == ""
    assert option[0] in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("--env", "toy", "--seed", "5", "--burn-in", "2"), "--seed, --burn-in"),
        (("--env", "hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2", "--seed", "5"), "--seed"),
        (("--env", "toy", "--check"), "--check"),
    ],
    ids=["toy-trajectory-options", "hard-env-seed", "toy-check"],
)
def test_instance_refuses_options_that_do_not_apply(capsys, argv, named):
    code, out, err = run_cli(capsys, "instance", *argv)
    assert code == 2
    assert out == ""
    assert f"error: {named} not allowed with" in err


def test_instance_glucose_emits_trajectory_csv(tmp_path, capsys):
    # glucose has no model document: instance exits 2 and names
    # simulate --env glucose, which writes the trajectory CSV.
    code, out, err = run_cli(capsys, "instance", "--env", "glucose", "--seed", "8")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "simulate --env glucose" in err
    out_path = tmp_path / "gl.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--env", "glucose", "--T", "20", "--seed", "8",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "t,gl,ex,di,in,y,behavior_prob,target_action"
    assert len(lines) == 21


def test_instance_glucose_defaults_to_seed_0_and_1000_hours(capsys):
    # The trajectory instance --env glucose printed by default (seed 0,
    # 1000 hours) is simulate --env glucose --T 1000, whose seed defaults to 0.
    code, out, err = run_cli(capsys, "instance", "--env", "glucose")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "simulate --env glucose" in err
    code, out, _ = run_cli(capsys, "simulate", "--env", "glucose", "--T", "1000")
    assert code == 0
    code, want, _ = run_cli(capsys, "simulate", "--env", "glucose", "--T", "1000", "--seed", "0")
    assert code == 0
    assert out == want
    assert len(out.strip().split("\n")) == 1001


@pytest.mark.parametrize("option", [("--hard", "Q=3,t0=1,zeta=0.69,M1=1,M2=2"), ("--T", "3")])
def test_instance_has_no_hard_or_T_option(capsys, option):
    # A hard instance is --env hard:.., and a trajectory is simulate's.
    with pytest.raises(SystemExit) as exc:
        main(["instance", "--env", "toy", *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--T", "5"),
        ("estimate", "--T", "50", "--k", "1"),
        ("lepski", "--T", "50", "--k-set=-1,0,1"),
        ("sweep", "--k-set=-1,0", "--T-set", "20", "--replications", "2"),
        ("instance",),
        ("oracle",),
    ],
    ids=lambda argv: argv[0],
)
def test_env_and_model_files_are_exclusive(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--env", "toy", *_toy_files(tmp_path))
    assert code == 2
    assert out == ""
    assert "--env" in err and "--model" in err


@pytest.mark.parametrize("env", ["toy", "glucose", "hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2"])
def test_sweep_without_burn_in_matches_the_library(capsys, env):
    spec = SweepSpec(
        environment=env, k_values=(-1, 0, 1), T_values=(40,), replications=3, master_seed=5
    )
    library = json_text(sweep_result_to_json(run_sweep(spec)))
    code, out, _ = run_cli(
        capsys, "sweep", "--env", env, "--k-set=-1,0,1", "--T-set", "40",
        "--replications", "3", "--seed", "5",
    )
    assert code == 0
    assert out == library


def _toy_files(tmp_path) -> list[str]:
    """--model/--behavior/--target arguments naming toy's saved documents."""
    from pomdp_ope.instances import toy_model
    from pomdp_ope.serialization import save_model, save_policy

    model, behavior, target = toy_model()
    save_model(model, tmp_path / "toy_model.json")
    save_policy(behavior, tmp_path / "toy_behavior.json")
    save_policy(target, tmp_path / "toy_target.json")
    return [
        "--model", str(tmp_path / "toy_model.json"),
        "--behavior", str(tmp_path / "toy_behavior.json"),
        "--target", str(tmp_path / "toy_target.json"),
    ]


_SWEEP = ("sweep", "--k-set=-1,0,1", "--T-set", "40,80", "--replications", "6", "--seed", "3")


def test_sweep_from_model_files_matches_the_built_in_environment(tmp_path, capsys):
    import csv

    files = _toy_files(tmp_path)
    docs, tables = [], []
    for i, source in enumerate((["--env", "toy"], files)):
        code, out, err = run_cli(capsys, *_SWEEP, *source)
        assert code == 0, err
        docs.append(json.loads(out))
        csv_path = tmp_path / f"sweep_{i}.csv"
        assert run_cli(capsys, *_SWEEP, *source, "--out", str(csv_path))[0] == 0
        assert json.loads(csv_path.with_suffix(".json").read_text()) == docs[-1]
        with open(csv_path, newline="") as f:
            tables.append(list(csv.reader(f)))
    by_id, by_files = docs
    # The environment label is the model path; every other value is equal.
    assert by_id["spec"].pop("environment") == "toy"
    assert by_files["spec"].pop("environment") == files[1]
    assert by_files == by_id
    assert [row[0] for row in tables[1][1:]] == [files[1]] * 6
    assert [row[1:] for row in tables[1]] == [row[1:] for row in tables[0]]


@pytest.mark.parametrize(
    "source",
    [["--env", "toy"], ["--env", "hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2"], ["--env", "glucose"], "files"],
    ids=["toy", "hard", "glucose", "files"],
)
def test_cli_sweep_builds_its_environment_once(tmp_path, capsys, environment_builds, source):
    source = _toy_files(tmp_path) if source == "files" else source
    code, _, err = run_cli(capsys, *_SWEEP, *source)
    assert code == 0, err
    assert len(environment_builds) == 1


@pytest.mark.parametrize("env_id", ["toy", "hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2", "glucose"])
def test_an_env_id_builds_its_environment_once_per_process(capsys, environment_builds, env_id):
    # Runs of any subcommand on one id share the environment built at the
    # first; another id builds its own.
    for argv in (("estimate", "--T", "60", "--k", "0"), ("lepski", "--T", "60"), ("simulate", "--T", "5")):
        code, _, err = run_cli(capsys, *argv, "--env", env_id)
        assert code == 0, err
    assert len(environment_builds) == 1
    assert run_cli(capsys, "simulate", "--T", "5", "--env", "toy" if env_id != "toy" else "glucose")[0] == 0
    assert len(environment_builds) == 2


def test_model_files_are_read_on_every_run(tmp_path, capsys, environment_builds, monkeypatch):
    # A file may change between runs, so no environment is kept for files.
    read = []
    for name in ("load_model", "load_policy"):
        load = getattr(cli.serialization, name)
        monkeypatch.setattr(cli.serialization, name, lambda path, _load=load: read.append(path) or _load(path))
    files = _toy_files(tmp_path)
    for _ in range(2):
        code, _, err = run_cli(capsys, "lepski", "--T", "60", *files)
        assert code == 0, err
    assert read == files[1::2] * 2
    assert len(environment_builds) == 2


def test_instance_builds_the_hard_pair_once(capsys, monkeypatch, environments):
    from pomdp_ope import harness
    from pomdp_ope.serialization import model_to_dict

    pair, calls = harness.hard_instance_pair, []

    def counting(params):
        calls.append(params)
        return pair(params)

    # Wherever the command line could reach the pair builder.
    for module in (harness, cli):
        monkeypatch.setattr(module, "hard_instance_pair", counting, raising=False)
    code, out, _ = run_cli(capsys, "instance", "--env", "hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2")
    assert code == 0
    assert len(calls) == 1
    _, lo, _, _ = pair(calls[0])
    assert json.loads(out)["instance_lo"] == json.loads(json_text(model_to_dict(lo)))


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


def _toy_documents():
    from pomdp_ope.instances import toy_model
    from pomdp_ope.serialization import model_to_dict, policy_to_dict

    model, behavior, _ = toy_model()
    return model_to_dict(model), policy_to_dict(behavior)


def _edited(doc, path, value):
    """A copy of doc whose entry at path (a sequence of keys and indices)
    is value."""
    doc = json.loads(json.dumps(doc))
    *outer, last = path
    node = doc
    for key in outer:
        node = node[key]
    node[last] = value
    return doc


# (model document, policy document, text the error names): a document is
# a JSON value, raw bytes, a path that does not exist (None) or a
# directory ("dir").
_MODEL, _POLICY = _toy_documents()
_BAD_INPUT_FILES = {
    "missing-path": (None, _POLICY, "No such file"),
    "directory": ("dir", _POLICY, "Is a directory"),
    "not-text": (b"\xff\xfe", _POLICY, "m.json: not "),
    "fractional-count": ({**_MODEL, "num_x": 1.5}, _POLICY, "num_x must be an integer, got 1.5"),
    "text-count": ({**_MODEL, "num_x": "a"}, _POLICY, "num_x must be an integer, got 'a'"),
    "bool-count": ({**_MODEL, "num_x": True}, _POLICY, "num_x must be an integer, got True"),
    "ragged-transition": (
        {**_MODEL, "transition": [_MODEL["transition"][0], _MODEL["transition"][1][:-1]]},
        _POLICY,
        "transition must be a rectangular array",
    ),
    "reward-number": ({**_MODEL, "reward": 5}, _POLICY, "model reward must be a list"),
    "reward-entry-number": (_edited(_MODEL, ("reward", 0, 0), 1.0), _POLICY, "reward entry must be a JSON object"),
    "reward-sd-text": (
        _edited(_MODEL, ("reward", 0, 0), {"kind": "gaussian", "mean": 0.0, "sd": "x"}),
        _POLICY,
        "reward sd must be a number, got 'x'",
    ),
    "reward-sd-negative": (
        _edited(_MODEL, ("reward", 2, 1), {"kind": "gaussian", "mean": 0.0, "sd": -1.0}),
        _POLICY,
        "reward entry (2, 1): reward sd must be a finite real >= 0, got -1.0",
    ),
    # Row (1, 2) is [0.05, 0.1, 0.15, 0.7]; its first entry becomes 0.15.
    "transition-row-sum": (
        _edited(_MODEL, ("transition", 1, 2, 0), 0.15),
        _POLICY,
        "transition row sum must be 1 within 1e-12, got 1.1 at index (1, 2)",
    ),
    "model-list": ([_MODEL], _POLICY, "model document must be a JSON object, got list"),
    "policy-list": (_MODEL, [_POLICY], "policy document must be a JSON object, got list"),
    "probs-text": (_MODEL, {"probs": "ab"}, "policy probs must be a rectangular array"),
    "probs-ragged": (_MODEL, {"probs": [[0.5, 0.5], [1.0]]}, "policy probs must be a rectangular array"),
    "probs-bool": (_MODEL, {"probs": [[True, False], [False, True]]}, "policy probs must be a rectangular array"),
    "transition-bool": (
        _edited(_MODEL, ("transition", 0, 1, 2), True),
        _POLICY,
        "transition must be a rectangular array",
    ),
    "probs-negative": (
        _MODEL,
        {"probs": [[1.5, -0.5], [0.5, 0.5]]},
        "policy probs must be >= 0, got -0.5 at index (0, 1)",
    ),
}


@pytest.mark.parametrize(
    "model, policy, named", list(_BAD_INPUT_FILES.values()), ids=list(_BAD_INPUT_FILES)
)
def test_malformed_input_file_exits_2_naming_it(tmp_path, capsys, model, policy, named):
    paths = []
    for name, doc in (("m.json", model), ("p.json", policy)):
        path = tmp_path / name
        if doc == "dir":
            path.mkdir()
        elif isinstance(doc, bytes):
            path.write_bytes(doc)
        elif doc is not None:
            path.write_text(json.dumps(doc))
        paths.append(str(path))
    code, out, err = run_cli(
        capsys,
        "estimate", "--model", paths[0], "--behavior", paths[1], "--target", paths[1],
        "--T", "50", "--k", "0",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and named in err


def test_bad_hard_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "instance", "--env", "hard:Q=3,bogus=1", "--check")
    assert code == 2
    assert "bogus" in err


def test_model_files_workflow(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "estimate", *_toy_files(tmp_path), "--k", "1", "--T", "200", "--seed", "2"
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


# A representative command line of each subcommand, with some options left
# at their defaults.
COMMAND_LINES = {
    "simulate": ["simulate", "--env", "toy", "--T", "40", "--seed", "3"],
    "estimate": ["estimate", "--env", "toy", "--T", "100", "--k", "1", "--alpha", "0.1"],
    "lepski": ["lepski", "--env", "toy", "--T", "60", "--burn-in", "5"],
    "sweep": ["sweep", "--env", "toy", "--k-set=-1,0", "--T-set=60,120", "--replications", "3", "--out", "s.csv"],
    "instance": ["instance", "--env", "hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2", "--check"],
    "oracle": ["oracle", "--env", "toy", "--policy", "behavior", "--T", "500"],
}


@pytest.mark.parametrize("argv", COMMAND_LINES.values(), ids=COMMAND_LINES)
def test_parser_of_one_command_parses_as_the_whole_parser(argv):
    whole = build_parser().parse_args(argv)
    assert build_parser(argv[0]).parse_args(argv) == whole
    if argv[0] == "lepski":
        assert whole.k_set == list(range(-1, 8))
    if argv[0] in ("instance", "oracle"):
        assert whole.seed is None


def test_main_builds_only_the_arguments_of_the_command_it_runs(monkeypatch, capsys):
    built = []

    def spy(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    assert main(["oracle", "--env", "toy"]) == 0
    with pytest.raises(SystemExit):
        main(["--help"])
    assert built == ["oracle", None]


def _parse_output(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["-h"], ["nosuch"], *([command, "--help"] for command in COMMAND_LINES)],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_help_and_usage_errors_are_those_of_the_whole_parser(argv, capsys, parsers):
    # The first run builds and caches its parser and the second reuses it;
    # both print the bytes of a whole parser built afresh.
    want = _parse_output(build_parser.__wrapped__().parse_args, argv, capsys)
    assert _parse_output(main, argv, capsys) == want
    assert _parse_output(main, argv, capsys) == want
    assert want[0] == (0 if argv and argv[-1] in ("-h", "--help") else 2)


def test_each_command_builds_its_parser_once(monkeypatch, capsys, parsers):
    # Two runs of a command add its arguments once; --help and an unknown
    # command build the whole parser, every command's arguments, once.
    added = []
    for name, (help_text, add_arguments, run) in cli._COMMANDS.items():
        adder = lambda p, name=name, add=add_arguments: added.append(name) or add(p)
        monkeypatch.setitem(cli._COMMANDS, name, (help_text, adder, run))
    for _ in range(2):
        assert main(["oracle", "--env", "toy"]) == 0
        assert main(["lepski", "--env", "toy", "--T", "60", "--k-set=-1,0"]) == 0
    assert added == ["oracle", "lepski"]
    for argv in (["--help"], ["nosuch"]):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert added == ["oracle", "lepski", *cli._COMMANDS]


def test_a_run_that_changes_its_k_set_leaves_the_default(monkeypatch, parsers):
    # The cached parser serves every run: a run that grows its parsed
    # --k-set in place must not reach the next run's default.
    seen = []

    def run(args):
        seen.append(list(args.k_set))
        args.k_set += [99]
        return 0

    help_text, add_arguments, _ = cli._COMMANDS["lepski"]
    monkeypatch.setitem(cli._COMMANDS, "lepski", (help_text, add_arguments, run))
    for _ in range(2):
        assert main(["lepski", "--env", "toy", "--T", "60"]) == 0
    assert seen == [list(range(-1, 8))] * 2
