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
    report = opt.step()
    if report.generation % 100 == 0:
        print(f"{report.generation:>10} {opt.budget.used:>10} {report.f_best:>12.4e}")

record = opt.finish()
print(f"\nfinal value: {record.final_f:.4e}")
print(f"real evaluations in the loop: {record.loop_real_evals} "
      f"out of {record.loop_trials} trials "
      f"({record.loop_real_evals / record.loop_trials:.0%})")
print(f"context vector improved {record.context_updates} times")
