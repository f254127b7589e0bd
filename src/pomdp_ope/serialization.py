"""JSON and CSV interchange for models, policies, trajectories, and reports.

Numbers are emitted with full round-trip precision (json uses repr floats;
CSV uses %.17g), so a document written by this module re-loads into an
identical in-memory object. JSON has no inf or NaN: a non-finite number is
written as null.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import IO, Any, Union

import numpy as np

from .core import Gaussian, PointMass, PomdpModel, Policy, RewardSpec, Trajectory
from .errors import ConfigurationError

PathLike = Union[str, Path]


def _reward_to_dict(spec: RewardSpec) -> dict:
    if isinstance(spec, Gaussian):
        return {"kind": "gaussian", "mean": float(spec.mean), "sd": float(spec.sd)}
    return {"kind": "pointmass", "mean": float(spec.value), "sd": 0.0}


def _reward_from_dict(d: dict) -> RewardSpec:
    kind = d.get("kind")
    if kind == "gaussian":
        return Gaussian(mean=float(d["mean"]), sd=float(d["sd"]))
    if kind == "pointmass":
        return PointMass(value=float(d["mean"]))
    raise ConfigurationError(f"unknown reward kind {kind!r}")


def model_to_dict(model: PomdpModel) -> dict:
    return {
        "num_x": model.num_x,
        "num_h": model.num_h,
        "num_actions": model.num_actions,
        "transition": model.transition.tolist(),
        "reward": [[_reward_to_dict(spec) for spec in row] for row in model.reward],
    }


def model_from_dict(d: dict) -> PomdpModel:
    try:
        return PomdpModel(
            num_x=int(d["num_x"]),
            num_h=int(d["num_h"]),
            num_actions=int(d["num_actions"]),
            transition=np.asarray(d["transition"], dtype=float),
            reward=tuple(
                tuple(_reward_from_dict(spec) for spec in row) for row in d["reward"]
            ),
        )
    except KeyError as exc:
        raise ConfigurationError(f"model document missing field {exc}") from exc


def policy_to_dict(policy: Policy) -> dict:
    return {"probs": policy.probs.tolist()}


def policy_from_dict(d: dict) -> Policy:
    try:
        return Policy(probs=np.asarray(d["probs"], dtype=float))
    except KeyError as exc:
        raise ConfigurationError(f"policy document missing field {exc}") from exc


def _null_non_finite(obj: Any) -> Any:
    """The document with every non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {key: _null_non_finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_non_finite(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def json_text(obj: Any) -> str:
    """The one JSON layout of every document: sorted keys, two-space indent,
    trailing newline. A non-finite number is written as null, so the text
    is strict JSON."""
    return json.dumps(_null_non_finite(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text(text: str, out: Union[PathLike, IO[str]]) -> None:
    """Write text to a path or to an open text stream."""
    if hasattr(out, "write"):
        out.write(text)
    else:
        Path(out).write_text(text)


def dump_json(obj: Any, path: PathLike) -> None:
    write_text(json_text(obj), path)


def load_json(path: PathLike) -> Any:
    # json.JSONDecodeError (with line/column) propagates to the caller.
    return json.loads(Path(path).read_text())


def save_model(model: PomdpModel, path: PathLike) -> None:
    dump_json(model_to_dict(model), path)


def load_model(path: PathLike) -> PomdpModel:
    return model_from_dict(load_json(path))


def save_policy(policy: Policy, path: PathLike) -> None:
    dump_json(policy_to_dict(policy), path)


def load_policy(path: PathLike) -> Policy:
    return policy_from_dict(load_json(path))


def trajectory_to_csv(traj: Trajectory, out: Union[PathLike, IO[str]]) -> None:
    """Write a trajectory as CSV with header t,x,h,w,y (t starts at 1)."""
    lines = ["t,x,h,w,y"]
    for t in range(traj.T):
        lines.append(f"{t + 1},{traj.x[t]},{traj.h[t]},{traj.w[t]},{traj.y[t]:.17g}")
    write_text("\n".join(lines) + "\n", out)
