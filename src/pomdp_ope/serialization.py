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

from .core import Gaussian, PointMass, PomdpModel, Policy, RewardSpec
from .errors import ConfigurationError, _real

PathLike = Union[str, Path]


def _reward_to_dict(spec: RewardSpec) -> dict:
    if isinstance(spec, Gaussian):
        return {"kind": "gaussian", "mean": float(spec.mean), "sd": float(spec.sd)}
    return {"kind": "pointmass", "mean": float(spec.value), "sd": 0.0}


def _object(kind: str, doc) -> dict:
    """``doc`` if it is a JSON object; else ConfigurationError naming ``kind``."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{kind} must be a JSON object, got {type(doc).__name__}")
    return doc


def _number(d: dict, key: str) -> float:
    """Field ``key`` of a reward entry as a float, if it is a JSON number."""
    value = d[key]
    if not _real(value):
        raise ConfigurationError(f"reward {key} must be a number, got {value!r}")
    return float(value)


def _reward_from_dict(d: dict, s: int, a: int) -> RewardSpec:
    """Reward entry (s, a) of a model document; a refusal names the entry."""
    try:
        kind = _object("reward entry", d).get("kind")
        if kind == "gaussian":
            return Gaussian(mean=_number(d, "mean"), sd=_number(d, "sd"))
        if kind == "pointmass":
            return PointMass(value=_number(d, "mean"))
        raise ConfigurationError(f"unknown reward kind {kind!r}")
    except ConfigurationError as exc:
        raise ConfigurationError(f"reward entry ({s}, {a}): {exc}") from None


def model_to_dict(model: PomdpModel) -> dict:
    return {
        "num_x": model.num_x,
        "num_h": model.num_h,
        "num_actions": model.num_actions,
        "transition": model.transition.tolist(),
        "reward": [[_reward_to_dict(spec) for spec in row] for row in model.reward],
    }


def model_from_dict(d: dict) -> PomdpModel:
    """The model of a document: counts, the transition array and the reward
    rows are checked by ``PomdpModel``, the document's shape here."""
    try:
        _object("model document", d)
        reward = d["reward"]
        if not (isinstance(reward, list) and all(isinstance(row, list) for row in reward)):
            raise ConfigurationError("model reward must be a list of rows of reward entries")
        return PomdpModel(
            num_x=d["num_x"],
            num_h=d["num_h"],
            num_actions=d["num_actions"],
            transition=d["transition"],
            reward=[
                [_reward_from_dict(spec, s, a) for a, spec in enumerate(row)]
                for s, row in enumerate(reward)
            ],
        )
    except KeyError as exc:
        raise ConfigurationError(f"model document missing field {exc}") from exc


def policy_to_dict(policy: Policy) -> dict:
    return {"probs": policy.probs.tolist()}


def policy_from_dict(d: dict) -> Policy:
    try:
        return Policy(probs=_object("policy document", d)["probs"])
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
    """The document at ``path``. A path that cannot be read as text raises
    ConfigurationError naming it; json.JSONDecodeError (with line and
    column) propagates to the caller."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"cannot read {path}: not {exc.encoding} text") from None
    return json.loads(text)


def save_model(model: PomdpModel, path: PathLike) -> None:
    dump_json(model_to_dict(model), path)


def load_model(path: PathLike) -> PomdpModel:
    return model_from_dict(load_json(path))


def save_policy(policy: Policy, path: PathLike) -> None:
    dump_json(policy_to_dict(policy), path)


def load_policy(path: PathLike) -> Policy:
    return policy_from_dict(load_json(path))


def _csv_cells(values: np.ndarray) -> list[str]:
    """A column's cells as text: floats %.17g, integers plain."""
    if values.dtype.kind == "f":
        return [f"{v:.17g}" for v in values.tolist()]
    return [str(v) for v in values.tolist()]


def trajectory_to_csv(traj, out: Union[PathLike, IO[str]]) -> None:
    """Write a trajectory record (a ``Trajectory`` or a
    ``GlucoseTrajectory``) as CSV: a column t counting steps from 1, then
    the record's ``csv_columns``, named by their (header, field) pairs.
    Every column must hold one entry per step, or ConfigurationError names
    it."""
    headers, fields = zip(*traj.csv_columns)
    columns = [_csv_cells(np.arange(1, traj.T + 1))]
    for name in fields:
        values = getattr(traj, name)
        if values.shape != (traj.T,):
            raise ConfigurationError(f"{name} must have shape ({traj.T},), got {values.shape}")
        columns.append(_csv_cells(values))
    lines = [",".join(("t", *headers)), *map(",".join, zip(*columns))]
    write_text("\n".join(lines) + "\n", out)
