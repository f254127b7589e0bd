"""Independent reference implementations used as test oracles.

Nothing here calls into the estimator, simulation or chain-analysis code
under test: stationary distributions come from a linear solve instead of
power iteration, estimator expectations come from exhaustive path
enumeration, and the naive estimator and the reference simulators are
written with plain Python loops. Random streams come from NumPy's own
``SeedSequence`` and ``default_rng``, not from the package's batch seeding.
"""

from __future__ import annotations

import itertools

import numpy as np

from pomdp_ope.instances import glucose


def seed_reference(master_seed: int, *path: int) -> int:
    """The stream seed of (master_seed, path...), taken straight from
    NumPy's SeedSequence: the first uint64 of its state."""
    ss = np.random.SeedSequence(master_seed, spawn_key=path)
    return int(ss.generate_state(1, np.uint64)[0])


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


def window_weights_reference(rho: np.ndarray, k: int, threshold: float) -> np.ndarray:
    """Products of k+1 consecutive ratios of one series, entry j covering
    steps j..j+k, for cross-checking. The series multiplies directly while
    its worst-case window log magnitude (k+1) max|log rho| stays within
    ``threshold``; past it, the window's logs are summed left to right and
    exponentiated, and a window holding a zero ratio is zero."""
    rho = np.asarray(rho, dtype=float)
    n = rho.size - k
    positive = rho > 0.0
    max_log = float(np.abs(np.log(rho[positive])).max()) if positive.any() else 0.0
    if (k + 1) * max_log <= threshold:
        w = np.ones(n)
        for s in range(k + 1):
            w = w * rho[s : s + n]
        return w
    log_rho = np.where(positive, np.log(np.where(positive, rho, 1.0)), 0.0)
    log_w = np.zeros(n)
    zeros = np.zeros(n, dtype=np.int64)
    for s in range(k + 1):
        log_w += log_rho[s : s + n]
        zeros += ~positive[s : s + n]
    with np.errstate(over="ignore"):
        return np.where(zeros > 0, 0.0, np.exp(log_w))


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


def blocked_lag_sums_reference(y: np.ndarray, J: int, block: int) -> list[float]:
    """sum_t y_t y_{t+j} over the in-range products of a 1-D series, for
    j = 0..J: each lag's products are summed with one ``np.dot`` per block of
    ``block`` steps t, first the blocks of the L - J steps every lag reaches,
    then the blocks of the last J steps, and the block sums are added in
    that order, one lag at a time."""
    L = len(y)
    blocks = [(s, min(s + block, L - J)) for s in range(0, L - J, block)]
    blocks += [(s, min(s + block, L)) for s in range(L - J, L, block)]
    sums = []
    for j in range(J + 1):
        total = 0.0
        for s, e in blocks:
            stop = min(e, L - j)  # the products that stay within the series
            if stop > s:
                total += float(np.dot(y[s:stop], y[s + j : stop + j]))
        sums.append(total)
    return sums


def naive_estimate(ratios, rewards, k: int, bandwidth: float, kernel) -> tuple[float, float]:
    """(value, long-run variance) of one estimate over units of one length,
    for cross-checking. Each summand is the reward times the product of the
    k+1 ratios ending at its step (k = -1: the reward alone); the value is
    the mean of the unit means. The variance centers every summand at the
    pooled mean of all units and averages (1/L) yt' Psi yt over units, with
    the full kernel matrix Psi[t, u] = kernel((t - u) / B)."""
    terms = [
        np.asarray(y, dtype=float)
        if k == -1
        else np.array([np.prod(rho[t - k : t + 1]) * y[t] for t in range(k, len(y))])
        for rho, y in zip(ratios, rewards)
    ]
    center = np.mean(np.concatenate(terms))
    steps = np.arange(len(terms[0]))
    psi = kernel((steps[:, None] - steps[None, :]) / bandwidth)
    variance = np.mean([(t - center) @ psi @ (t - center) / t.size for t in terms])
    return float(np.mean([t.mean() for t in terms])), float(variance)


def lepski_scan_reference(candidates, intervals, skip) -> int:
    """The candidate Lepski's rule selects, by a scalar scan: over the
    candidates not flagged in ``skip``, intersect the closed intervals from
    the largest candidate down; when the running intersection first becomes
    empty at one, return the next kept candidate above it. If it never
    empties, return the smallest kept candidate, and the smallest candidate
    if every one is flagged."""
    kept = [(c, iv) for c, iv, bad in zip(candidates, intervals, skip) if not bad]
    if not kept:
        return candidates[0]
    lo, hi = -np.inf, np.inf
    for idx in range(len(kept) - 1, -1, -1):
        c_lo, c_hi = kept[idx][1]
        lo = max(lo, c_lo)
        hi = min(hi, c_hi)
        if lo > hi:
            return kept[idx + 1][0]
    return kept[0][0]


def simulate_reference(
    model, behavior, T: int, burn_in: int, seeds, make_rng=np.random.default_rng
) -> list[tuple]:
    """(x, h, w, y) arrays per seed, one step at a time for one seed at a time.

    Each seed's stream comes from ``make_rng(seed)`` and is consumed in a
    fixed order: the initial state, then an (action, transition) uniform
    pair per step, then a reward normal per step. At each step the action
    is the number of cumulative behavior probabilities at or below the
    first uniform, the reward is mean + sd * z for the (state, action) pair,
    and the next state is the number of cumulative transition probabilities
    at or below the second uniform.
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


def _glucose_draws(rng, total: int) -> dict:
    """One glucose trajectory's randomness, in the simulator's stream order:
    noise, u_activity, mild, moderate, moderate's mild part, u_diet, diet,
    u_insulin. Each truncated normal redraws its negative values right after
    its own draw. Laws are read from the glucose module at call time."""
    g = glucose

    def truncated(mean, sd):
        out = rng.normal(mean, sd, size=total)
        bad = out < 0.0
        while bad.any():
            out[bad] = rng.normal(mean, sd, size=int(bad.sum()))
            bad = out < 0.0
        return out

    noise = rng.normal(0.0, g.GLUCOSE_NOISE_SD, size=total)
    u_activity = rng.random(total)
    mild = truncated(g.MILD_ACTIVITY_MEAN, g.MILD_ACTIVITY_SD)
    moderate = truncated(g.MODERATE_ACTIVITY_MEAN, g.MODERATE_ACTIVITY_SD) + truncated(
        g.MILD_ACTIVITY_MEAN, g.MILD_ACTIVITY_SD
    )
    u_diet = rng.random(total)
    diet = truncated(g.DIET_MEAN, g.DIET_SD)
    u_insulin = rng.random(total)
    draws = {
        "noise": noise,
        "u_activity": u_activity,
        "mild": mild,
        "moderate": moderate,
        "u_diet": u_diet,
        "diet": diet,
        "u_insulin": u_insulin,
    }
    return {name: arr.tolist() for name, arr in draws.items()}


def glucose_reference(T: int, burn_in: int, policy_kind: str, seed: int) -> dict:
    """One glucose trajectory, one hour at a time in plain Python floats.

    Returns the recorded hours as arrays named like ``GlucoseTrajectory``'s
    fields: gl, ex, di, y, behavior_prob (float64) and insulin,
    target_action (int64). The glucose mean is summed left to right:
    intercept, carryover, the two diet lags, the two activity lags, the two
    insulin lags, then the noise.
    """
    g = glucose
    d = _glucose_draws(np.random.default_rng(seed), T + burn_in)
    gl_prev, di1, di2, ex1, ex2, in1, in2 = g.GLUCOSE_REST, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
    names = ("gl", "ex", "di", "insulin", "y", "behavior_prob", "target_action")
    rec = {name: [] for name in names}
    for t in range(T + burn_in):
        u = d["u_activity"][t]
        if u < g.MILD_ACTIVITY_PROB:
            ex = d["mild"][t]
        elif u < g.MILD_ACTIVITY_PROB + g.MODERATE_ACTIVITY_PROB:
            ex = d["moderate"][t]
        else:
            ex = 0.0
        di = d["diet"][t] if d["u_diet"][t] < g.DIET_PROB else 0.0
        gl = (
            g.GL_INTERCEPT
            + g.GL_CARRY * gl_prev
            + g.GL_DIET * di1
            + g.GL_DIET * di2
            + g.GL_ACTIVITY * ex1
            + g.GL_ACTIVITY * ex2
            + g.GL_INSULIN_LAG1 * in1
            + g.GL_INSULIN_LAG2 * in2
            + d["noise"][t]
        )
        wants = gl >= g.TARGET_GLUCOSE_MIN and ex + ex1 <= g.TARGET_ACTIVITY_MAX
        insulin = d["u_insulin"][t] < g.INSULIN_PROB if policy_kind == "behavior" else wants
        if gl <= 70.0:
            y = -3.0
        elif gl > 150.0:
            y = -2.0
        elif gl <= 80.0 or gl > 120.0:
            y = -1.0
        else:
            y = 0.0
        if t >= burn_in:
            for name, value in (
                ("gl", gl),
                ("ex", ex),
                ("di", di),
                ("insulin", int(insulin)),
                ("y", y),
                ("behavior_prob", g.INSULIN_PROB if insulin else 1.0 - g.INSULIN_PROB),
                ("target_action", int(wants)),
            ):
                rec[name].append(value)
        gl_prev, di1, di2, ex1, ex2, in1, in2 = gl, di, di1, ex, ex1, float(insulin), in1
    ints = ("insulin", "target_action")
    return {
        name: np.array(values, dtype=np.int64 if name in ints else np.float64)
        for name, values in rec.items()
    }
