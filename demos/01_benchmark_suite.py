"""Tour of the benchmark suite: structure, evaluation, and the manifest.

The suite contains 18 functions in four structural families. Every function
knows its own variable grouping, so optimizers can be tested against the
ground truth instead of having to learn it.
"""

import numpy as np

from coopevo import make_suite
from coopevo.benchmarks import suite_manifest

# a desk-scale suite: 100 dimensions, rotated blocks of 100/20 = 5 variables
suite = make_suite(dim=100, seed=1)

print(f"{'id':>4} {'bases':<24} {'separable':>9} {'rotated blocks':>14}")
for fn in suite:
    # each group holds its indices, base, weight and, if rotated, its rotation
    sizes = [len(g.indices) for g in fn.groups if g.rotation is not None]
    n_sep = fn.n - sum(sizes)
    blocks = f"{len(sizes)} x {sizes[0]}" if sizes else "-"
    bases = "/".join(sorted({g.base for g in fn.groups}))
    print(f"{fn.fid:>4} {bases:<24} {n_sep:>9} {blocks:>14}")

# every function is exactly zero at its shift vector, the hidden optimum
fn = suite[3]
print(f"\n{fn.fid}: f(shift) = {fn(fn.shift):.2e}")

# the value decomposes additively over the groups
rng = np.random.default_rng(0)
x = rng.uniform(fn.lower, fn.upper)
parts = fn.terms(x)  # one weighted term per group, in group order
print(f"{fn.fid}: f(x) = {fn(x):.6e}, sum of group terms = {sum(parts.tolist()):.6e}")

# the manifest records everything needed to audit a run's inputs
manifest = suite_manifest(suite[:1])
print("\nmanifest head:")
print("\n".join(manifest.splitlines()[:14]))
