"""The paper's claims beyond the acceptance gate, checked at small scale.

The gate's directional criteria (5 and 7) run only the separable f01, so a
change that broke the rotated path would still pass it. The paper claims
that SACC beats plain cooperative coevolution on problems with
nonseparable groups. Here ``sacc`` must beat ``shade-cc`` with a large
effect (Cohen's d <= -0.8) on f10, ten rotated rastrigin groups beside a
separable block, and on f14, twenty rotated elliptic groups: 100-d, 6000
evaluations, ``s_sep`` 20, five seeds.

Both algorithms run with ``visit_len`` 1, so ``shade-cc`` also visits the
sub-problems round-robin, one generation each. At its default of 100 and
this budget, ``shade-cc`` spends its whole budget on sub-problem 0 and
visits 1 of f14's 20 groups, so the comparison would measure the schedule
and not the evaluation policy. At ``visit_len`` 1 it spends about half its
budget on re-evaluating a population at the start of each visit.
"""

from coopevo.harness import ExperimentConfig, compare_algorithms


def test_sacc_beats_shade_cc_on_rotated_groups(tmp_path):
    config = ExperimentConfig(functions=("f10", "f14"), dim=100, algorithm="sacc",
                              budget=6000, runs=5, seed=1, s_sep=20, visit_len=1,
                              out=str(tmp_path))
    rows = compare_algorithms(config)["comparison"]
    ok = all(row["cohens_d"] <= -0.8 for row in rows)
    detail = "; ".join(
        f"{row['function']} sacc {row['sacc_mean']:.4g} vs shade-cc {row['shade_cc_mean']:.4g}, "
        f"d={row['cohens_d']:.2f}" for row in rows
    )
    print(f"[rotated groups] {'PASS' if ok else 'FAIL'} - 100-d, 6000 FE, 5 seeds, "
          f"visit_len 1: {detail} (d <= -0.8 required)")
    assert ok, detail
