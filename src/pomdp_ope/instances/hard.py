"""Worst-case instance family for off-policy evaluation with hidden state.

The construction is a Q-state ladder over hidden states h_1..h_Q with no
observed covariate and binary treatment. Control resets the chain to h_1
with probability one; treatment advances one rung with probability 1 - delta
and resets with probability delta (the top rung absorbs further advances).
The top state is therefore reachable at time t only after Q - 1 consecutive
treatments. Two instances share this transition structure and differ only in
the mean reward at the top state (M1/2 + Delta vs. M1/2 - Delta, all rewards
having variance M2 - M1^2), which makes them statistically hard to tell
apart from behavior-policy data while their long-run target values differ by
2 * Delta * (1 - delta)^(Q - 1).

``theorem2_design`` picks (Q, Delta, delta) so that the KL divergence between
the observed-data laws of the two instances stays bounded, and
``check_conditions`` verifies the defining constraints (overlap ratio,
one-step contraction, moment bounds) numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import (
    Gaussian,
    PomdpModel,
    Policy,
    mixing_overlap_report,
)
from ..errors import ConfigurationError, _finite, _integer, _level, _positive

CONTROL, TREAT = 0, 1


@dataclass(frozen=True)
class HardInstanceParams:
    """Parameters of one instance pair.

    Q: hidden-state count (ladder height); delta: per-treatment reset
    probability; Delta: half the separation between the two top-state reward
    means; M1, M2: first/second moment bounds the instances must respect;
    zeta: log overlap between always-treat and the randomized behavior
    policy. q_clamped marks a design whose ladder height formula had a
    nonpositive log argument and was forced to 1. Every field is finite.
    """

    Q: int
    delta: float
    Delta: float
    M1: float
    M2: float
    zeta: float
    q_clamped: bool = False

    def __post_init__(self):
        _integer("Q", self.Q, 1)
        _level("delta", self.delta)
        _positive("zeta", self.zeta)
        for name in ("M1", "M2", "Delta"):
            _finite(name, getattr(self, name))
        if self.M2 <= self.M1**2:
            raise ConfigurationError("need M2 > M1^2 (positive reward variance)")
        if not 0.0 <= self.Delta <= self.M1 / 2.0 + 1e-12:
            raise ConfigurationError("Delta must lie in [0, M1/2]")

    @property
    def mixing_time(self) -> float:
        """t0 with delta = 1 - exp(-1/t0)."""
        return -1.0 / math.log(1.0 - self.delta)


def params_from_mixing_time(
    Q: int, t0: float, zeta: float, M1: float, M2: float, Delta: float
) -> HardInstanceParams:
    """Construct parameters from a mixing time via delta = 1 - exp(-1/t0)."""
    _positive("t0", t0)
    return HardInstanceParams(
        Q=Q, delta=1.0 - math.exp(-1.0 / t0), Delta=Delta, M1=M1, M2=M2, zeta=zeta
    )


def _ladder_model(params: HardInstanceParams, top_mean: float) -> PomdpModel:
    q = params.Q
    sd = math.sqrt(params.M2 - params.M1**2)
    trans = np.zeros((2, q, q))
    trans[CONTROL, :, 0] = 1.0
    for j in range(q):
        trans[TREAT, j, 0] += params.delta
        trans[TREAT, j, min(j + 1, q - 1)] += 1.0 - params.delta
    reward = tuple(
        tuple(
            Gaussian(mean=top_mean if h == q - 1 else 0.0, sd=sd) for _ in range(2)
        )
        for h in range(q)
    )
    return PomdpModel(num_x=1, num_h=q, num_actions=2, transition=trans, reward=reward)


def hard_instance_pair(
    params: HardInstanceParams,
) -> tuple[PomdpModel, PomdpModel, Policy, Policy]:
    """Build the instance pair; returns (instance_hi, instance_lo, behavior,
    target) where the two models differ only in the top-state reward mean."""
    hi = _ladder_model(params, params.M1 / 2.0 + params.Delta)
    lo = _ladder_model(params, params.M1 / 2.0 - params.Delta)
    treat_prob = math.exp(-params.zeta)
    behavior = Policy(probs=np.array([[1.0 - treat_prob, treat_prob]]))
    target = Policy(probs=np.array([[0.0, 1.0]]))
    return hi, lo, behavior, target


def kl_bound(params: HardInstanceParams, T: int, t0: float) -> float:
    """Upper bound on the KL divergence between length-T observed-data laws
    of the two instances: 2 T Delta^2 / (M2 - M1^2) * exp(-(Q-1)(1/t0 + zeta)).
    T is a count >= 1 and t0 a finite real > 0."""
    T = _integer("T", T, 1)
    _positive("t0", t0)
    return (
        2.0
        * T
        * params.Delta**2
        / (params.M2 - params.M1**2)
        * math.exp(-(params.Q - 1) * (1.0 / t0 + params.zeta))
    )


def theorem2_design(
    T: int, t0: float, zeta: float, M1: float, M2: float
) -> HardInstanceParams:
    """Calibrated (Q, Delta, delta) for horizon T.

    When t0 * zeta > 1 the ladder height grows logarithmically in T,
    Q = t0 / (t0 zeta + 1) * ln(M1^2 T / (2 M2 - M1^2)) + 1 rounded to the
    nearest integer >= 1; otherwise Q = 1. Delta is the smaller of M1/2 and
    sqrt((M2 - M1^2) / (2T)) * exp((Q-1)(t0 zeta + 1)/(2 t0)); with the
    second branch active the KL bound evaluates to exactly 1.
    """
    _integer("T", T, 1)
    for name, value in (("t0", t0), ("zeta", zeta), ("M1", M1)):
        _positive(name, value)
    _finite("M2", M2)
    if M2 <= M1**2:
        raise ConfigurationError("need M2 > M1^2")
    clamped = False
    if t0 * zeta > 1.0:
        log_arg = M1**2 * T / (2.0 * M2 - M1**2)
        if log_arg <= 1.0:
            # Log term nonpositive; the growth formula would give Q <= 1.
            q = 1
            clamped = True
        else:
            q = max(1, int(round(t0 / (t0 * zeta + 1.0) * math.log(log_arg) + 1.0)))
    else:
        q = 1
    delta_sep = min(
        math.sqrt((M2 - M1**2) / (2.0 * T))
        * math.exp((q - 1) * (t0 * zeta + 1.0) / (2.0 * t0)),
        M1 / 2.0,
    )
    return HardInstanceParams(
        Q=q,
        delta=1.0 - math.exp(-1.0 / t0),
        Delta=delta_sep,
        M1=M1,
        M2=M2,
        zeta=zeta,
        q_clamped=clamped,
    )


@dataclass(frozen=True)
class ConditionReport:
    """Numeric check of the constraints the instance family must satisfy:
    bounded overlap ratio, one-step contraction of the target kernel, and
    reward moment bounds."""

    overlap_ok: bool
    contraction_ok: bool
    first_moment_ok: bool
    second_moment_ok: bool
    overlap_zeta: float
    zeta_bound: float
    dobrushin: float
    contraction_bound: float
    max_abs_mean: float
    max_second_moment: float

    @property
    def all_ok(self) -> bool:
        return (
            self.overlap_ok
            and self.contraction_ok
            and self.first_moment_ok
            and self.second_moment_ok
        )

    def lines(self) -> list[str]:
        def fmt(label, ok, detail):
            return f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"

        return [
            fmt(
                "C1 overlap ratio",
                self.overlap_ok,
                f"max ln ratio {self.overlap_zeta:.6g} <= zeta {self.zeta_bound:.6g}",
            ),
            fmt(
                "C2 contraction",
                self.contraction_ok,
                f"dobrushin {self.dobrushin:.6g} <= exp(-1/t0) {self.contraction_bound:.6g}",
            ),
            fmt(
                "C3 mean bound",
                self.first_moment_ok,
                f"max |E Y| {self.max_abs_mean:.6g} <= M1",
            ),
            fmt(
                "C4 second moment",
                self.second_moment_ok,
                f"max E Y^2 {self.max_second_moment:.6g} <= M2",
            ),
        ]


def check_conditions(params: HardInstanceParams, tol: float = 1e-9) -> ConditionReport:
    """Evaluate the instance-family constraints on the built pair, each to
    within ``tol``, a finite real > 0."""
    _positive("tol", tol)
    hi, lo, behavior, target = hard_instance_pair(params)
    t0 = params.mixing_time
    report = mixing_overlap_report(hi, target, behavior)
    means = np.concatenate([hi.reward_mean.ravel(), lo.reward_mean.ravel()])
    sds = np.concatenate([hi.reward_sd.ravel(), lo.reward_sd.ravel()])
    second = sds**2 + means**2
    contraction_bound = math.exp(-1.0 / t0)
    return ConditionReport(
        overlap_ok=bool(report.overlap_zeta <= params.zeta + tol),
        contraction_ok=bool(report.dobrushin <= contraction_bound + tol),
        first_moment_ok=bool(np.abs(means).max() <= params.M1 + tol),
        second_moment_ok=bool(second.max() <= params.M2 + tol),
        overlap_zeta=report.overlap_zeta,
        zeta_bound=params.zeta,
        dobrushin=report.dobrushin,
        contraction_bound=contraction_bound,
        max_abs_mean=float(np.abs(means).max()),
        max_second_moment=float(second.max()),
    )


def top_state_occupancy(params: HardInstanceParams) -> float:
    """Stationary probability of the top ladder state under always-treat:
    (1 - delta)^(Q - 1)."""
    return (1.0 - params.delta) ** (params.Q - 1)
