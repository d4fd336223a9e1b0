"""How the per-sub-problem surrogate works.

The model learns the fitness improvement a sub-solution offers over the
current best complete solution. We fit one here on real samples from a
benchmark sub-problem and compare its predictions against the truth.
"""

import numpy as np

from coopevo import TrainingArchive, embed, ideal_decompose, make_separable, train_surrogate

fn = make_separable("rastrigin", 20, seed=7)
decomp = ideal_decompose(fn, 5)
sub = decomp.subproblems[0]

# pretend this random solution is the current context vector
rng = np.random.default_rng(1)
context = rng.uniform(fn.lower, fn.upper)
f_context = fn(context)


def improvement(x_g):
    return f_context - fn(embed(context, sub, x_g))


# an archive holds the newest d = 5*s real-evaluated samples
d = 5 * sub.s
archive = TrainingArchive(d, sub.lower, sub.upper)
samples = rng.uniform(sub.lower, sub.upper, (d, sub.s))
archive.fill(samples, np.array([improvement(x) for x in samples]))

model = train_surrogate(archive)
print(f"trained on {d} samples of a {sub.s}-d sub-problem "
      f"(regularized: {model.regularized})")

# interpolation: the model reproduces its training labels
resid = np.max(np.abs(model.predict_batch(samples) - archive.values))
print(f"max residual at the training samples: {resid:.2e}")

# off-sample quality: rank correlation is what the optimizer actually needs
probes = rng.uniform(sub.lower, sub.upper, (200, sub.s))
truth = np.array([improvement(x) for x in probes])
pred = model.predict_batch(probes)
rank_truth = np.argsort(np.argsort(truth))
rank_pred = np.argsort(np.argsort(pred))
rho = np.corrcoef(rank_truth, rank_pred)[0, 1]
print(f"off-sample rank correlation over 200 probes: {rho:.3f}")

best_by_model = int(np.argmax(pred))
print(f"model's favorite probe: true improvement {truth[best_by_model]:+.2f} "
      f"(best possible {truth.max():+.2f})")
