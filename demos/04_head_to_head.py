"""Surrogate screening vs. full evaluation at the same budget.

Runs both optimizers on one function, quantifies the gap with the
standardized mean difference, and asks how much extra budget the
full-evaluation baseline needs to catch up. Writes results under
demo_results/ and, when matplotlib is available, a convergence plot.
"""

import dataclasses

from coopevo import ExperimentConfig, cohens_d, fes_to_match, mean_curve, run_experiment

config = ExperimentConfig(
    functions=("f01",),
    dim=40,
    algorithm="sacc",
    budget=8_000,
    runs=5,
    seed=1,
    s_sep=20,
    out="demo_results",
)

print("running the surrogate-assisted optimizer (5 seeds)...")
sacc = run_experiment(config)
print("running the full-evaluation baseline (5 seeds)...")
cc = run_experiment(dataclasses.replace(config, algorithm="shade-cc"))

a = sacc.summary_for("f01")
b = cc.summary_for("f01")
d, label = cohens_d(a.mean, a.std, b.mean, b.std)
print(f"\nsurrogate-assisted: mean {a.mean:.3e} (std {a.std:.1e})")
print(f"full evaluation:    mean {b.mean:.3e} (std {b.std:.1e})")
print(f"effect size d = {d:.2f} ({label})")

# how long would the baseline need to reach the surrogate result? Its own
# output directory keeps the equal-budget shade-cc results above
extended = run_experiment(
    dataclasses.replace(config, algorithm="shade-cc", budget=4 * config.budget,
                        out="demo_results/extended"),
)
hit = fes_to_match(a.mean, mean_curve(extended.records["f01"]))
if hit is None:
    print(f"baseline does not reach {a.mean:.3e} even with 4x the budget")
else:
    print(f"baseline reaches {a.mean:.3e} after {hit} evaluations "
          f"({hit / config.budget:.1f}x the budget)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4.5))
    for result, name in ((sacc, "surrogate-assisted"), (extended, "full evaluation")):
        curve = mean_curve(result.records["f01"])
        ax.plot(curve[:, 0], curve[:, 1], label=name)
    ax.set_xlabel("real evaluations")
    ax.set_ylabel("mean best value")
    ax.set_yscale("log")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo_results/head_to_head.png", dpi=150)
    print("wrote demo_results/head_to_head.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
