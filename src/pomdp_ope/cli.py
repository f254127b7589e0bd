"""Command-line front end.

Thin adapters only: every subcommand parses flags, calls into the library,
and serializes the result. A run adds only its subcommand's arguments to a
parser built once per command and process; ``pomdp-ope`` alone, ``--help``
and an unknown command build every subcommand's, so their help and usage
errors are unchanged. ``_load_environment`` alone decides which kind of
environment ``--env`` or the ``--model/--behavior/--target`` files name (the
two sources are exclusive), and gives the run its one environment: the
harness's for an ``--env`` id (``make_environment`` builds each id once per
process), read from files on every run otherwise. Each subcommand then asks
it for its burn-in, trajectory CSV, rewards and ratios, model or hard-pair
parameters (``sweep`` hands it to its ``SweepSpec``, so model files sweep
too), and refuses, naming it, an option that does not apply to that kind. Exit codes: 0 success, 2 configuration error (including a model
or policy file that cannot be read or is malformed, named, and malformed
JSON, reported with line and column), 3 overlap violation, 4 mixing failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import serialization
from .core import _workspace, mixing_overlap_report, policy_value_exact
from .errors import ConfigurationError, MixingFailureError, OverlapViolationError, _integer, _positive
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
    HardEnvironment,
    SweepSpec,
    make_environment,
    run_sweep,
    sweep_result_to_csv,
    sweep_result_to_json,
)
from .instances.glucose import target_value_oracle
from .instances.hard import check_conditions

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
    serialization.write_text(text, out or sys.stdout)


def _load_environment(args):
    """Environment from --env or from --model/--target/--behavior files: the
    one place the command line decides which kind of environment it runs."""
    if args.env:
        _refuse(args, "--env", "--model", "--behavior", "--target")
        return make_environment(args.env)
    if args.model:
        model = serialization.load_model(args.model)
        if not (args.behavior and args.target):
            raise ConfigurationError("--model requires --behavior and --target")
        behavior = serialization.load_policy(args.behavior)
        target = serialization.load_policy(args.target)
        return FiniteEnvironment(args.model, model, behavior, target)
    raise ConfigurationError("specify --env or --model/--behavior/--target")


def _burn_in(args, env) -> int:
    return env.default_burn_in if args.burn_in is None else args.burn_in


def _refuse(args, where: str, *options: str) -> None:
    """ConfigurationError naming each of ``options`` that was given,
    when none of them applies to ``where``."""
    given = [opt for opt in options if getattr(args, opt[2:].replace("-", "_")) is not None]
    if given:
        raise ConfigurationError(f"{', '.join(given)} not allowed with {where}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--env", help="built-in environment: toy | glucose | hard:Q=..,t0=..,zeta=..,M1=..,M2=..[,Delta=..]")
    p.add_argument("--model", help="model JSON path (with --behavior/--target)")
    p.add_argument("--behavior", help="behavior policy JSON path")
    p.add_argument("--target", help="target policy JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, help=f"default {FiniteEnvironment.default_burn_in} (glucose: {GlucoseEnvironment.default_burn_in})")
    p.add_argument("--out", help="output path (default stdout)")


def _args_simulate(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--T", type=int, required=True)


def _args_estimate(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--bandwidth-exp", type=float, default=1.0 / 3.0)


def _args_lepski(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--T", type=int, required=True)
    p.add_argument(
        "--k-set",
        type=_int_list,
        default="-1,0,1,2,3,4,5,6,7",  # text, so every parse makes its own list
        help="comma list; values starting with '-' need the --k-set=-1,0,... form",
    )
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--bandwidth-exp", type=float, default=1.0 / 3.0)


def _args_sweep(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--k-set", type=_int_list, required=True)
    p.add_argument("--T-set", type=_int_list, required=True)
    p.add_argument("--replications", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--bandwidth-exp", type=float, default=1.0 / 3.0)


def _args_instance(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--check", action="store_true", default=None, help="check instance-family conditions (hard instances)")
    # A model document is not seeded; a seed given is refused.
    p.set_defaults(seed=None)


def _args_oracle(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--policy", choices=["target", "behavior"], default="target")
    p.add_argument("--T", type=int, default=None, help="also report the calibrated window for this horizon")
    p.add_argument("--C0", type=float, default=None, help="constant in the calibrated window formula (default 1)")
    p.add_argument("--oracle-runs", type=int, default=None, help="glucose Monte Carlo runs")
    p.add_argument("--oracle-hours", type=int, default=None, help="glucose Monte Carlo hours per run")
    # Only the glucose oracle is seeded; a seed given elsewhere is refused.
    p.set_defaults(seed=None)


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``pomdp-ope`` parser, built once per ``command`` and process.
    Every subcommand is registered with its name and help, but only
    ``command`` gets its arguments (every subcommand if None)."""
    parser = argparse.ArgumentParser(
        prog="pomdp-ope",
        description="Off-policy evaluation in finite POMDPs: simulation, "
        "partial-history importance weighting, adaptive window selection, "
        "Monte Carlo sweeps, and exact chain oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            add_arguments(p)
    return parser


def _cmd_simulate(args) -> int:
    env = _load_environment(args)
    env.write_trajectory(args.T, _burn_in(args, env), args.seed, args.out or sys.stdout)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    env = _load_environment(args)
    rewards, ratios = env.rewards_and_ratios(args.T, _burn_in(args, env), [args.seed])
    bandwidth = BandwidthRule("power", args.bandwidth_exp).bandwidth(args.T)
    config = EstimatorConfig(k=args.k, alpha=args.alpha, bandwidth=bandwidth)
    report = estimate_with_ci(ratios, rewards, config)
    _workspace().give(rewards, ratios)
    _emit(serialization.json_text(report.to_dict()), args.out)
    return EXIT_OK


def _cmd_lepski(args) -> int:
    env = _load_environment(args)
    rewards, ratios = env.rewards_and_ratios(args.T, _burn_in(args, env), [args.seed])
    result = lepski_select(
        ratios,
        rewards,
        sorted(args.k_set),
        alpha=args.alpha,
        bandwidth_rule=BandwidthRule("power", args.bandwidth_exp),
    )
    _workspace().give(rewards, ratios)
    _emit(serialization.json_text(result.to_dict()), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    companion = Path(args.out).with_suffix(".json") if args.out else None
    if companion and Path(args.out).suffix.lower() == ".json":
        raise ConfigurationError(
            f"--out {args.out} would be overwritten by the sweep's JSON companion, "
            "which takes its name with a .json suffix; give the CSV another suffix"
        )
    _check_out(companion, "the sweep's JSON companion")
    spec = SweepSpec(
        environment=_load_environment(args),
        k_values=tuple(args.k_set),
        T_values=tuple(args.T_set),
        replications=args.replications,
        burn_in=args.burn_in,
        master_seed=args.seed,
        bandwidth=BandwidthRule("power", args.bandwidth_exp),
        alpha=args.alpha,
    )
    result = run_sweep(spec)
    if args.out:
        sweep_result_to_csv(result, args.out)
        serialization.dump_json(sweep_result_to_json(result), companion)
    else:
        _emit(serialization.json_text(sweep_result_to_json(result)), None)
    return EXIT_OK


def _cmd_instance(args) -> int:
    source = f"--env {args.env}" if args.env else "--model"
    env = _load_environment(args)
    if isinstance(env, GlucoseEnvironment):
        raise ConfigurationError(
            "glucose has no model document; for a trajectory CSV run simulate --env glucose"
        )
    # A finite instance prints as model JSON, so no trajectory option applies.
    _refuse(args, source, "--seed", "--burn-in")
    if isinstance(env, HardEnvironment):
        if args.check:
            report = check_conditions(env.params)
            _emit("\n".join(report.lines()) + "\n", args.out)
            return EXIT_OK if report.all_ok else 1
        models = {"instance_hi": env.model, "instance_lo": env.lo}
    else:
        _refuse(args, source, "--check")
        models = {"model": env.model}
    doc = {key: serialization.model_to_dict(model) for key, model in models.items()}
    doc["behavior"] = serialization.policy_to_dict(env.behavior)
    doc["target"] = serialization.policy_to_dict(env.target)
    _emit(serialization.json_text(doc), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    env = _load_environment(args)
    if isinstance(env, GlucoseEnvironment):
        _refuse(args, "the glucose oracle", "--T", "--C0")
        if args.policy != "target":
            raise ConfigurationError("the glucose oracle is defined for --policy target")
        given = dict(runs=args.oracle_runs, hours=args.oracle_hours, burn_in=args.burn_in, seed=args.seed)
        value, provenance = target_value_oracle(**{k: v for k, v in given.items() if v is not None})
        _emit(serialization.json_text({"value": value, "provenance": provenance}), args.out)
        return EXIT_OK
    _refuse(args, "the exact oracle", "--oracle-runs", "--oracle-hours", "--seed", "--burn-in")
    if args.C0 is not None and args.T is None:
        raise ConfigurationError("--C0 not allowed without --T")
    C0 = 1.0 if args.C0 is None else _positive("C0", args.C0)
    T = None if args.T is None else _integer("T", args.T, 2)
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
    if T is not None and np.isfinite(t0) and t0 > 0 and not target_rep.overlap_violated:
        doc["calibrated_k"] = corollary_window(n=1, T=T, t0=t0, zeta=target_rep.overlap_zeta, C0=C0)
    _emit(serialization.json_text(doc), args.out)
    return EXIT_OK


# Each subcommand's help, the function that adds its arguments, and the
# function that runs it.
_COMMANDS = {
    "simulate": ("simulate one behavior-policy trajectory to CSV", _args_simulate, _cmd_simulate),
    "estimate": ("point estimate with confidence interval", _args_estimate, _cmd_estimate),
    "lepski": ("adaptive window selection on one trajectory", _args_lepski, _cmd_lepski),
    "sweep": ("Monte Carlo MSE sweep over (k, T)", _args_sweep, _cmd_sweep),
    "instance": (
        "emit a finite environment's model JSON, or check hard-instance conditions",
        _args_instance,
        _cmd_instance,
    ),
    "oracle": (
        "exact (or cached Monte Carlo) policy value, with chain diagnostics",
        _args_oracle,
        _cmd_oracle,
    ),
}


def _check_out(out: str | Path | None, name: str = "--out") -> None:
    """Refuse, before any work, an output path that cannot be written as a file."""
    if out is not None and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        problem = "is a directory" if Path(out).is_dir() else "is not in an existing directory"
        raise ConfigurationError(f"{name} {out} {problem}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A run of one subcommand builds only that subcommand's arguments; the
    # bare program, --help and an unknown command get the whole parser.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        _check_out(args.out)
        return _COMMANDS[args.command][2](args)
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
