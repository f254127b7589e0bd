"""Independent reference implementations used as test oracles.

Nothing here calls into the estimator, simulation or chain-analysis code
under test: stationary distributions come from a linear solve instead of
power iteration, estimator expectations come from exhaustive path
enumeration, and the naive estimator and the reference simulator are written
with plain Python loops.
"""

from __future__ import annotations

import itertools

import numpy as np

from pomdp_ope.rng import make_rng


def stationary_by_linear_solve(kernel: np.ndarray) -> np.ndarray:
    """Solve d (M - I) = 0 with sum(d) = 1 as an overdetermined system."""
    M = np.asarray(kernel, dtype=float)
    n = M.shape[0]
    A = np.vstack([(M.T - np.eye(n)), np.ones((1, n))])
    b = np.concatenate([np.zeros(n), [1.0]])
    d, *_ = np.linalg.lstsq(A, b, rcond=None)
    return d


def induced_kernel(transition: np.ndarray, policy_probs: np.ndarray, x_of_state: np.ndarray) -> np.ndarray:
    """M[s, s'] = sum_a policy[x(s), a] transition[a, s, s'] by explicit loops."""
    A, S, _ = transition.shape
    M = np.zeros((S, S))
    for s in range(S):
        for a in range(A):
            M[s] += policy_probs[x_of_state[s], a] * transition[a, s]
    return M


def pushforward_value(
    transition: np.ndarray,
    behavior_probs: np.ndarray,
    target_probs: np.ndarray,
    reward_mean: np.ndarray,
    x_of_state: np.ndarray,
    k: int,
) -> float:
    """sum_s E_target[Y | s] * (d_behavior P_target^k)(s).

    The distribution starts at the behavior policy's stationary law and is
    pushed k steps through the target policy's kernel.
    """
    M_b = induced_kernel(transition, behavior_probs, x_of_state)
    M_t = induced_kernel(transition, target_probs, x_of_state)
    d = stationary_by_linear_solve(M_b)
    for _ in range(k):
        d = d @ M_t
    S, A = reward_mean.shape
    ey = np.array(
        [
            sum(target_probs[x_of_state[s], a] * reward_mean[s, a] for a in range(A))
            for s in range(S)
        ]
    )
    return float(d @ ey)


def iter_paths_with_probability(
    transition: np.ndarray,
    behavior_probs: np.ndarray,
    x_of_state: np.ndarray,
    T: int,
):
    """All (states, actions, probability) triples of length-T behavior-policy
    trajectories started from the behavior stationary law. Zero-probability
    paths are skipped."""
    A, S, _ = transition.shape
    d0 = stationary_by_linear_solve(induced_kernel(transition, behavior_probs, x_of_state))
    for states in itertools.product(range(S), repeat=T):
        for actions in itertools.product(range(A), repeat=T):
            p = d0[states[0]]
            for t in range(T):
                p *= behavior_probs[x_of_state[states[t]], actions[t]]
                if p == 0.0:
                    break
                if t < T - 1:
                    p *= transition[actions[t], states[t], states[t + 1]]
                    if p == 0.0:
                        break
            if p > 0.0:
                yield np.array(states), np.array(actions), p


def naive_phiw(
    x: np.ndarray,
    w: np.ndarray,
    y: np.ndarray,
    target_probs: np.ndarray,
    behavior_probs: np.ndarray,
    k: int,
) -> float:
    """Loop-based partial-history importance weighting, for cross-checking."""
    T = len(y)
    if k == -1:
        return sum(y) / T
    total = 0.0
    for t in range(k, T):
        weight = 1.0
        for s in range(k + 1):
            weight *= target_probs[x[t - s], w[t - s]] / behavior_probs[x[t - s], w[t - s]]
        total += weight * y[t]
    return total / (T - k)


def naive_hac(terms: np.ndarray, bandwidth: float, kernel) -> float:
    """Double-sum form of the kernel-weighted variance, for cross-checking:
    (1/n) sum_{t,u} Psi((t - u)/B) (terms_t - c)(terms_u - c) with the pooled
    mean as centering."""
    yt = np.asarray(terms, dtype=float) - np.mean(terms)
    n = len(yt)
    acc = 0.0
    for t in range(n):
        for u in range(n):
            acc += kernel((t - u) / bandwidth) * yt[t] * yt[u]
    return acc / n


def simulate_reference(model, behavior, T: int, burn_in: int, seeds) -> list[tuple]:
    """(x, h, w, y) arrays per seed, one step at a time for one seed at a time.

    Each seed's stream is consumed in a fixed order: the initial state, then
    an (action, transition) uniform pair per step, then a reward normal per
    step. At each step the action is the number of cumulative behavior
    probabilities at or below the first uniform, the reward is mean + sd * z
    for the (state, action) pair, and the next state is the number of
    cumulative transition probabilities at or below the second uniform.
    """
    cum_pol = [np.cumsum(row).tolist() for row in behavior.probs]
    cum_trans = [[np.cumsum(row).tolist() for row in per_action] for per_action in model.transition]
    mean = model.reward_mean.tolist()
    sd = model.reward_sd.tolist()
    out = []
    for seed in seeds:
        rng = make_rng(seed)
        state = int(rng.integers(0, model.num_x * model.num_h))
        uu = rng.random((T + burn_in, 2)).tolist()
        zz = rng.standard_normal(T + burn_in).tolist()
        xs, hs, ws, ys = [], [], [], []
        for t, ((u_act, u_move), z) in enumerate(zip(uu, zz)):
            x, h = divmod(state, model.num_h)
            w = sum(1 for c in cum_pol[x] if c <= u_act)
            if t >= burn_in:
                xs.append(x)
                hs.append(h)
                ws.append(w)
                ys.append(mean[state][w] + sd[state][w] * z)
            state = sum(1 for c in cum_trans[w][state] if c <= u_move)
        out.append(
            (
                np.array(xs, dtype=np.int64),
                np.array(hs, dtype=np.int64),
                np.array(ws, dtype=np.int64),
                np.array(ys, dtype=np.float64),
            )
        )
    return out
