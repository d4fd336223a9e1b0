"""One full optimization run, step by step.

Watches the surrogate-assisted optimizer work through a 60-dimensional
separable problem: the budget only allows ~10% of trial vectors to touch
the simulation model, everything else is filtered by the models.
"""

from coopevo import RunParams, SurrogateCC, ideal_decompose, make_separable

fn = make_separable("elliptic", 60, seed=3)
decomp = ideal_decompose(fn, 20)
print(f"problem: 60-d separable quadratic, split into {decomp.k} blocks of 20")

params = RunParams(max_fe=10_000, p=100, q=10, d_factor=5)
opt = SurrogateCC(fn, decomp, params, seed=42)
print(f"initialization consumed {opt.budget.used} evaluations "
      f"(1 context + {decomp.k} x max(5*20, 100) samples)")
print(f"starting value: {opt.context.f:.4e}\n")

print(f"{'generation':>10} {'evals used':>10} {'best value':>12}")
while not opt.budget.exhausted:
    opt.step()
    if opt.generation % 100 == 0:
        print(f"{opt.generation:>10} {opt.budget.used:>10} {opt.context.f:>12.4e}")

record = opt.finish()
trials = params.p * record.rows[-1].generation  # p trials per generation
print(f"\nfinal value: {record.final_f:.4e}")
print(f"real evaluations in the loop: {record.loop_real_evals} "
      f"out of {trials} trials ({record.loop_real_evals / trials:.0%})")
print(f"context vector improved {record.context_updates} times")
# each adoption book-keeps the context fitness from a stored improvement; on
# a separable problem that matches the sum of the context's group terms up
# to rounding, while interacting sub-problems would show here as drift
print(f"largest gap between book-kept and summed context fitness: "
      f"{record.max_context_gap:.1e} (relative)")
