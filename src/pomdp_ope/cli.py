"""Command-line front end.

Thin adapters only: every subcommand parses flags, calls into the library,
and serializes the result. Exit codes: 0 success, 2 configuration error
(including malformed JSON, reported with line and column), 3 overlap
violation, 4 mixing failure.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import serialization
from .core import mixing_overlap_report, policy_value_exact, simulate
from .errors import ConfigurationError, MixingFailureError, OverlapViolationError
from .estimators import (
    BandwidthRule,
    EstimatorConfig,
    corollary_window,
    estimate_with_ci,
    lepski_select,
)
from .harness import (
    FiniteEnvironment,
    GlucoseEnvironment,
    SweepSpec,
    hard_params,
    make_environment,
    run_sweep,
    sweep_result_to_csv,
    sweep_result_to_json,
)
from .instances.glucose import (
    glucose_simulate,
    glucose_trajectory_to_csv,
    target_value_oracle,
)
from .instances.hard import check_conditions, hard_instance_pair

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OVERLAP = 3
EXIT_MIXING = 4


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"bad integer list {text!r}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_environment(args):
    """Environment from --env or from --model/--target/--behavior files."""
    if args.model:
        model = serialization.load_model(args.model)
        if not (args.behavior and args.target):
            raise ConfigurationError("--model requires --behavior and --target")
        behavior = serialization.load_policy(args.behavior)
        target = serialization.load_policy(args.target)
        return FiniteEnvironment(args.model, model, behavior, target)
    if not args.env:
        raise ConfigurationError("specify --env or --model/--behavior/--target")
    return make_environment(args.env)


def _load_finite_environment(args) -> FiniteEnvironment:
    env = _load_environment(args)
    if isinstance(env, GlucoseEnvironment):
        raise ConfigurationError(
            f"subcommand {args.command!r} needs a finite environment here; "
            "glucose has no finite model/policy tables"
        )
    return env


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--env", help="built-in environment: toy | glucose | hard:Q=..,t0=..,zeta=..,M1=..,M2=..[,Delta=..]")
    p.add_argument("--model", help="model JSON path (with --behavior/--target)")
    p.add_argument("--behavior", help="behavior policy JSON path")
    p.add_argument("--target", help="target policy JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=None, help="default 100 (glucose: 50)")
    p.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pomdp-ope",
        description="Off-policy evaluation in finite POMDPs: simulation, "
        "partial-history importance weighting, adaptive window selection, "
        "Monte Carlo sweeps, and exact chain oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one behavior-policy trajectory to CSV")
    _add_common(p)
    p.add_argument("--T", type=int, required=True)

    p = sub.add_parser("estimate", help="point estimate with confidence interval")
    _add_common(p)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--bandwidth-exp", type=float, default=1.0 / 3.0)

    p = sub.add_parser("lepski", help="adaptive window selection on one trajectory")
    _add_common(p)
    p.add_argument("--T", type=int, required=True)
    p.add_argument(
        "--k-set",
        type=_int_list,
        default=list(range(-1, 8)),
        help="comma list; values starting with '-' need the --k-set=-1,0,... form",
    )
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--bandwidth-exp", type=float, default=1.0 / 3.0)

    p = sub.add_parser("sweep", help="Monte Carlo MSE sweep over (k, T)")
    _add_common(p)
    p.add_argument("--k-set", type=_int_list, required=True)
    p.add_argument("--T-set", type=_int_list, required=True)
    p.add_argument("--replications", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--bandwidth-exp", type=float, default=1.0 / 3.0)

    p = sub.add_parser(
        "instance",
        help="emit an environment's model JSON (finite), a trajectory CSV "
        "(glucose), or check hard-instance conditions",
    )
    _add_common(p)
    p.add_argument("--hard", help="hard-instance parameters Q=..,t0=..,zeta=..,M1=..,M2=..[,Delta=..]")
    p.add_argument("--check", action="store_true", help="check instance-family conditions (hard instances)")
    p.add_argument("--T", type=int, default=1000, help="trajectory length for glucose output")

    p = sub.add_parser(
        "oracle",
        help="exact (or cached Monte Carlo) policy value, with chain diagnostics",
    )
    _add_common(p)
    p.add_argument("--policy", choices=["target", "behavior"], default="target")
    p.add_argument("--T", type=int, default=None, help="also report the calibrated window for this horizon")
    p.add_argument("--C0", type=float, default=1.0, help="constant in the calibrated window formula")
    p.add_argument("--oracle-runs", type=int, default=None, help="glucose Monte Carlo runs")
    p.add_argument("--oracle-hours", type=int, default=None, help="glucose Monte Carlo hours per run")

    return parser


def _burn_in(args) -> int:
    if args.burn_in is not None:
        return args.burn_in
    return 50 if args.env == "glucose" else 100


def _cmd_simulate(args) -> int:
    buf = io.StringIO()
    if args.env == "glucose":
        traj = glucose_simulate(
            T=args.T, burn_in=_burn_in(args), policy_kind="behavior", seed=args.seed
        )
        glucose_trajectory_to_csv(traj, buf)
    else:
        env = _load_finite_environment(args)
        traj = simulate(env.model, env.behavior, args.T, _burn_in(args), args.seed)
        serialization.trajectory_to_csv(traj, buf)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    env = _load_environment(args)
    rewards, ratios = env.rewards_and_ratios(args.T, _burn_in(args), [args.seed])
    config = EstimatorConfig(
        k=args.k, alpha=args.alpha, bandwidth=float(args.T) ** args.bandwidth_exp
    )
    report = estimate_with_ci(ratios, rewards, config)
    _emit(_json_text(report.to_dict()), args.out)
    return EXIT_OK


def _cmd_lepski(args) -> int:
    env = _load_environment(args)
    rewards, ratios = env.rewards_and_ratios(args.T, _burn_in(args), [args.seed])
    result = lepski_select(
        ratios,
        rewards,
        sorted(args.k_set),
        alpha=args.alpha,
        bandwidth_rule=BandwidthRule("power", args.bandwidth_exp),
    )
    _emit(_json_text(result.to_dict()), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if not args.env:
        raise ConfigurationError("sweep requires --env")
    spec = SweepSpec(
        environment=args.env,
        k_values=tuple(args.k_set),
        T_values=tuple(args.T_set),
        replications=args.replications,
        burn_in=_burn_in(args),
        master_seed=args.seed,
        bandwidth=BandwidthRule("power", args.bandwidth_exp),
        alpha=args.alpha,
    )
    result = run_sweep(spec)
    if args.out:
        sweep_result_to_csv(result, args.out)
        Path(args.out).with_suffix(".json").write_text(
            _json_text(sweep_result_to_json(result))
        )
    else:
        _emit(_json_text(sweep_result_to_json(result)), None)
    return EXIT_OK


def _cmd_instance(args) -> int:
    if args.env == "glucose":
        return _cmd_simulate(args)
    if args.hard or (args.env and args.env.startswith("hard:")):
        params = hard_params(args.hard if args.hard else args.env[len("hard:") :])
        if args.check:
            report = check_conditions(params)
            _emit("\n".join(report.lines()) + "\n", args.out)
            return EXIT_OK if report.all_ok else 1
        hi, lo, behavior, target = hard_instance_pair(params)
        doc = {
            "instance_hi": serialization.model_to_dict(hi),
            "instance_lo": serialization.model_to_dict(lo),
            "behavior": serialization.policy_to_dict(behavior),
            "target": serialization.policy_to_dict(target),
        }
        _emit(_json_text(doc), args.out)
        return EXIT_OK
    env = _load_finite_environment(args)
    doc = {
        "model": serialization.model_to_dict(env.model),
        "behavior": serialization.policy_to_dict(env.behavior),
        "target": serialization.policy_to_dict(env.target),
    }
    _emit(_json_text(doc), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.env == "glucose":
        if args.policy != "target":
            raise ConfigurationError("the glucose oracle is defined for --policy target")
        kwargs = {}
        if args.oracle_runs is not None:
            kwargs["runs"] = args.oracle_runs
        if args.oracle_hours is not None:
            kwargs["hours"] = args.oracle_hours
        value, provenance = target_value_oracle(**kwargs)
        _emit(_json_text({"value": value, "provenance": provenance}), args.out)
        return EXIT_OK
    env = _load_finite_environment(args)
    policy = env.target if args.policy == "target" else env.behavior
    value = policy_value_exact(env.model, policy)
    target_rep = mixing_overlap_report(env.model, env.target, env.behavior)
    behavior_rep = mixing_overlap_report(env.model, env.behavior, env.behavior)
    doc = {
        "value": value,
        "provenance": {"kind": "exact", "tol": 1e-12},
        "diagnostics": {
            "dobrushin_target": target_rep.dobrushin,
            "mixing_time_target": target_rep.mixing_time,
            "dobrushin_behavior": behavior_rep.dobrushin,
            "mixing_time_behavior": behavior_rep.mixing_time,
            "overlap_zeta": target_rep.overlap_zeta,
            "overlap_violated": target_rep.overlap_violated,
        },
    }
    t0 = max(target_rep.mixing_time, behavior_rep.mixing_time)
    if args.T is not None and np.isfinite(t0) and t0 > 0 and not target_rep.overlap_violated:
        doc["calibrated_k"] = corollary_window(
            n=1, T=args.T, t0=t0, zeta=target_rep.overlap_zeta, C0=args.C0
        )
    _emit(_json_text(doc), args.out)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "lepski": _cmd_lepski,
    "sweep": _cmd_sweep,
    "instance": _cmd_instance,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverlapViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERLAP
    except MixingFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MIXING


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
