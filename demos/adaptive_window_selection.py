# %% [markdown]
# # Choosing the window from data
#
# The right window length is unknown in practice. Each candidate k gets a
# Gaussian confidence interval built from a kernel-weighted long-run
# variance estimate; scanning from the largest candidate down, we keep
# intersecting intervals and stop at the smallest window still consistent
# with all larger ones. Small windows have narrow intervals centered at a
# biased value, so they fall out of the intersection once the horizon is
# long enough to resolve the bias.

# %%
import numpy as np

from pomdp_ope import (
    SweepSpec,
    importance_ratios,
    lepski_select,
    run_lepski_study,
    simulate,
)
from pomdp_ope.instances import toy_model

model, behavior, target = toy_model()

# %% [markdown]
# ## One trajectory, one selection
#
# The estimators read two streams per trajectory: the per-step ratios
# target(action | covariate) / behavior(action | covariate) of the realized
# actions, and the rewards.

# %%
traj = simulate(model, behavior, T=10_000, burn_in=100, seed=7)
ratios = importance_ratios(traj, target, behavior)
selection = lepski_select([ratios], [traj.y], candidates=list(range(-1, 8)))
print(f"selected k = {selection.selected_k}")
for rep in selection.reports:
    print(f"  k={rep.k:>2}: estimate {rep.value:+.4f}  CI [{rep.ci_lo:+.4f}, {rep.ci_hi:+.4f}]")

# %% [markdown]
# The k = -1 and k = 0 intervals sit well below the rest: they estimate the
# logged policy's value (about 0.37), not the target's (about 0.76), and the
# scan discards them.
#
# ## Selection frequencies across horizons
#
# Repeating the selection over seeded replications shows the short-window
# baselines fading out as T grows (trimmed replication count for demo speed).

# %%
spec = SweepSpec(
    environment="toy",
    k_values=(1,),
    T_values=(900, 2500, 10_000),
    replications=200,
    burn_in=100,
    master_seed=777001,
)
study = run_lepski_study(spec, candidates=list(range(-1, 8)))
print("T      " + "".join(f"{k:>7}" for k in study.candidates) + "   MSE(selected)")
for row in study.rows:
    freqs = "".join(f"{row.selection_freq[k]:>7.2f}" for k in study.candidates)
    print(f"{row.T:>6} {freqs}   {row.mse_selected:.5f}")

# %% [markdown]
# At T = 10000 nearly all mass sits on k in {1, 2} and the selected
# estimator's MSE beats both fixed baselines by an order of magnitude.
