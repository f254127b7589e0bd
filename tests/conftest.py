from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pomdp_ope import Gaussian, PointMass, Policy, PomdpModel, importance_ratios
from pomdp_ope.instances import toy_model


@pytest.fixture(scope="session")
def toy():
    """(model, behavior, target) of the benchmark environment."""
    return toy_model()


def streams(trajectories, target: Policy, behavior: Policy):
    """(ratios, rewards) of finite trajectories, one unit per trajectory."""
    ratios = [importance_ratios(traj, target, behavior) for traj in trajectories]
    return ratios, [traj.y for traj in trajectories]


def random_model(
    rng: np.random.Generator,
    num_x: int = 2,
    num_h: int = 2,
    num_actions: int = 2,
    point_mass: bool = False,
) -> PomdpModel:
    s = num_x * num_h
    transition = rng.dirichlet(np.ones(s), size=(num_actions, s))
    if point_mass:
        reward = tuple(
            tuple(PointMass(value=float(rng.normal())) for _ in range(num_actions))
            for _ in range(s)
        )
    else:
        reward = tuple(
            tuple(
                Gaussian(mean=float(rng.normal()), sd=float(rng.uniform(0.05, 0.5)))
                for _ in range(num_actions)
            )
            for _ in range(s)
        )
    return PomdpModel(
        num_x=num_x,
        num_h=num_h,
        num_actions=num_actions,
        transition=transition,
        reward=reward,
    )


@pytest.fixture
def environments():
    """The harness's cache of environments by id, empty as the test starts
    and after it, so that a spy on what builds an environment sees the run
    build it and no later test gets what the spy built."""
    from pomdp_ope import harness

    harness._build_environment.cache_clear()
    yield
    harness._build_environment.cache_clear()


@pytest.fixture
def environment_builds(monkeypatch, environments):
    """A list that gets the class name of every environment built while the
    test runs, the harness's cache of environments empty as it starts."""
    from pomdp_ope.harness import FiniteEnvironment, GlucoseEnvironment, HardEnvironment

    builds: list[str] = []
    for cls in (FiniteEnvironment, GlucoseEnvironment, HardEnvironment):

        def counting(self, *args, _init=cls.__init__, **kwargs):
            builds.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return builds


@pytest.fixture
def oracle_values():
    """The glucose oracle's cache of values, empty as the test starts and
    after it, so that a test computes its own values and no later test gets
    a value that the test's patches made."""
    from pomdp_ope.instances import glucose

    glucose._oracle_value.cache_clear()
    yield glucose._oracle_value
    glucose._oracle_value.cache_clear()


class _HeldTables:
    """The step tables that ``core`` holds, one per (model, behavior policy)
    pair whose objects both live."""

    def __init__(self, tables):
        self._tables = tables

    def values(self) -> list:
        return [tables for per_model in list(self._tables.values()) for tables in list(per_model.values())]

    def __len__(self) -> int:
        return len(self.values())


@pytest.fixture
def step_tables(monkeypatch) -> _HeldTables:
    """The simulator's step tables, none as the test starts, so that a spy
    on a build sees the first one; the test's tables are dropped after it."""
    import weakref

    from pomdp_ope import core

    monkeypatch.setattr(core, "_tables", weakref.WeakKeyDictionary())
    return _HeldTables(core._tables)


@pytest.fixture
def parsers():
    """``cli.build_parser``'s cache, empty as the test starts and after it."""
    from pomdp_ope import cli

    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def random_policy(rng: np.random.Generator, num_x: int = 2, num_actions: int = 2) -> Policy:
    return Policy(probs=rng.dirichlet(np.ones(num_actions), size=num_x))


def interior_policy(rng: np.random.Generator, num_x: int = 2, num_actions: int = 2) -> Policy:
    """Random policy with all probabilities bounded away from zero."""
    raw = rng.dirichlet(np.ones(num_actions), size=num_x)
    probs = 0.8 * raw + 0.2 / num_actions
    probs = probs / probs.sum(axis=1, keepdims=True)
    return Policy(probs=probs)


def run_python(code: str, **environ: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this package,
    with ``environ`` added to its environment."""
    import pomdp_ope

    src = str(Path(pomdp_ope.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, **environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout
