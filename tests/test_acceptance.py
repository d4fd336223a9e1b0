"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. The directional comparisons (criteria 5 and 7) share one set of
head-to-head runs through a module-scoped fixture; everything else is
self-contained.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from coopevo.benchmarks import get_function, make_separable
from coopevo.decomposition import embed, ideal_decompose
from coopevo.harness import ExperimentConfig, cohens_d, fes_to_match, mean_curve, run_experiment
from coopevo.rbf import TrainingArchive, train_surrogate
from coopevo.runtime import RunParams
from coopevo.surrogate_cc import SurrogateCC, initialization_cost


def verdict(criterion: str, ok: bool, detail: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


# --- criterion 1: surrogate correctness ---------------------------------------

def test_criterion_1_rbf_interpolation_and_affine_exactness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()

    worst_interp = 0.0
    for s in (2, 5, 10, 20):
        for _ in range(50):
            d = 5 * s
            lower, upper = np.full(s, -10.0), np.full(s, 10.0)
            arch = TrainingArchive(d, lower, upper)
            pts = rng.uniform(-10, 10, (d, s))
            vals = rng.normal(size=d) * rng.uniform(0.5, 1e3)
            arch.fill(pts, vals)
            model = train_surrogate(arch)
            assert not model.regularized
            resid = np.max(np.abs(model.predict_batch(pts) - vals))
            rel = resid / max(1.0, np.max(np.abs(vals)))
            worst_interp = max(worst_interp, rel)

    worst_affine = 0.0
    for s in (2, 5, 10, 20):
        d = 5 * s
        lower, upper = np.full(s, -10.0), np.full(s, 10.0)
        arch = TrainingArchive(d, lower, upper)
        pts = rng.uniform(-10, 10, (d, s))
        beta = rng.normal(size=s)
        alpha = rng.normal()
        arch.fill(pts, pts @ beta + alpha)
        model = train_surrogate(arch)
        probes = rng.uniform(-10, 10, (100, s))
        err = np.max(np.abs(model.predict_batch(probes) - (probes @ beta + alpha)))
        worst_affine = max(worst_affine, err)

    elapsed = time.perf_counter() - start
    ok = worst_interp <= 1e-6 and worst_affine <= 1e-8 and elapsed < 10.0
    verdict(
        "criterion 1",
        ok,
        f"200 archives: interpolation rel err {worst_interp:.2e} (<=1e-6), "
        f"affine err {worst_affine:.2e} (<=1e-8), {elapsed:.1f}s (<10s)",
    )


# --- criterion 2: oracle equivalence ------------------------------------------

def test_criterion_2_success_set_matches_greedy_oracle():
    mismatches = 0
    for trial_seed in range(1, 51):
        fn = make_separable("sphere", 5, seed=trial_seed)
        decomp = ideal_decompose(fn, 5)
        sub = decomp.subproblems[0]
        params = RunParams(max_fe=60, p=20, q=20, d_factor=5)
        opt = SurrogateCC(fn, decomp, params, seed=trial_seed)

        x_pre = opt.context.x.copy()
        f_pre = opt.context.f
        captured = []

        def true_improvement(batch):
            captured.append(np.array(batch, copy=True))
            return np.array(
                [opt.context.f - fn(embed(opt.context.x, sub, row)) for row in batch]
            )

        report = opt.step(predictor=true_improvement)
        parents, trials = captured
        oracle = [
            i
            for i in range(20)
            if (f_pre - fn(embed(x_pre, sub, trials[i])))
            > (f_pre - fn(embed(x_pre, sub, parents[i])))
        ]
        if report.success_idx.tolist() != oracle:
            mismatches += 1

    verdict(
        "criterion 2",
        mismatches == 0,
        f"50 seeded single generations with the surrogate stubbed to the true "
        f"improvement and q=p: {50 - mismatches}/50 success sets equal greedy "
        f"selection exactly",
    )


# --- criterion 3: evaluation accounting ---------------------------------------

def test_criterion_3_fe_conservation():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(10):
        dim = int(rng.choice([8, 12, 20]))
        s_sep = int(rng.choice([2, 3, 4, 6]))
        p = int(rng.choice([8, 16, 24]))
        q = int(rng.integers(1, p + 1))
        fn = make_separable("sphere", dim, int(rng.integers(1, 1000)))
        decomp = ideal_decompose(fn, s_sep)
        probe = RunParams(max_fe=10**9, p=p, q=q, d_factor=5)
        init = initialization_cost(decomp, probe)
        assert init == 1 + sum(max(5 * sub.s, p) for sub in decomp.subproblems)
        generations = int(rng.integers(0, 15))
        params = RunParams(max_fe=init + q * generations, p=p, q=q, d_factor=5)
        opt = SurrogateCC(fn, decomp, params, seed=int(rng.integers(1000)))
        record = opt.run()
        expected = 1 + sum(max(5 * sub.s, p) for sub in decomp.subproblems) + q * generations
        assert opt.budget.used == expected == params.max_fe
        assert len(record.rows) - 1 == generations
        assert record.fallback_generations == 0
        checked += 1
    verdict(
        "criterion 3",
        checked == 10,
        "used FEs == 1 + sum_g max(5*s_g, p) + q*generations on "
        f"{checked} random configurations",
    )


# --- criterion 4: rebase consistency ------------------------------------------

def test_criterion_4_rebase_consistency_audited_run():
    fn = get_function("f10", 100, seed=1)  # ten rotated groups + separable part
    decomp = ideal_decompose(fn, 10)
    params = RunParams(max_fe=initialization_cost(decomp, RunParams(max_fe=10**9)) + 10 * 1000)
    opt = SurrogateCC(fn, decomp, params, seed=3, audit=True)
    record = opt.run()
    generations = len(record.rows) - 1

    # full sweep on top of the per-update audits: every stored improvement of
    # every sub-problem must still match a fresh evaluation
    sweep_err = 0.0
    for st in opt.subs:
        for j in range(0, params.p, 25):
            fresh = opt.context.f - fn(embed(opt.context.x, st.sub, st.pop[j]))
            err = abs(fresh - st.pop_vals[j]) / max(1.0, abs(fresh))
            sweep_err = max(sweep_err, err)

    ok = (
        generations == 1000
        and record.context_updates > 0
        and record.max_audit_rel_err <= 1e-9
        and record.max_crosscheck_err <= 1e-9
        and sweep_err <= 1e-9
    )
    verdict(
        "criterion 4",
        ok,
        f"{generations} generations, {record.context_updates} context updates: "
        f"fitness drift {record.max_audit_rel_err:.2e}, cross-sub-problem drift "
        f"{max(record.max_crosscheck_err, sweep_err):.2e} (both <=1e-9)",
    )


# --- criteria 5 + 7: head-to-head on the separable quadratic analog ------------

HEAD_TO_HEAD_BUDGET = 20_000


@pytest.fixture(scope="module")
def head_to_head(tmp_path_factory):
    out = tmp_path_factory.mktemp("head_to_head")
    config = ExperimentConfig(
        functions=("f01",),
        dim=100,
        algorithm="sacc",
        budget=HEAD_TO_HEAD_BUDGET,
        runs=10,
        seed=1,
        s_sep=20,
        out=str(out),
    )
    start = time.perf_counter()
    sacc = run_experiment(config, write=False)
    shade_cc = run_experiment(
        dataclasses.replace(config, algorithm="shade-cc"), write=False
    )
    elapsed = time.perf_counter() - start
    cc_double = run_experiment(
        dataclasses.replace(
            config, algorithm="shade-cc", budget=2 * HEAD_TO_HEAD_BUDGET
        ),
        write=False,
    )
    return {
        "sacc": sacc,
        "shade_cc": shade_cc,
        "cc_double": cc_double,
        "elapsed": elapsed,
    }


def test_criterion_5_directional_head_to_head(head_to_head):
    a = head_to_head["sacc"].summary_for("f01")
    b = head_to_head["shade_cc"].summary_for("f01")
    d, label = cohens_d(a.mean, a.std, b.mean, b.std)
    elapsed = head_to_head["elapsed"]
    ok = a.mean < b.mean and label == "large" and elapsed < 300.0
    verdict(
        "criterion 5",
        ok,
        f"100-d separable quadratic at {HEAD_TO_HEAD_BUDGET} FEs, 10 seeds: "
        f"surrogate mean {a.mean:.3e} vs baseline mean {b.mean:.3e}, "
        f"d={d:.2f} ({label}), {elapsed:.0f}s (<300s)",
    )


def test_criterion_7_baseline_needs_at_least_double_budget(head_to_head):
    target = head_to_head["sacc"].summary_for("f01").mean
    curve = mean_curve(head_to_head["cc_double"].records["f01"])
    hit = fes_to_match(target, curve)
    ok = hit is None or hit >= 2 * HEAD_TO_HEAD_BUDGET
    verdict(
        "criterion 7",
        ok,
        f"baseline needs {'more than ' + str(2 * HEAD_TO_HEAD_BUDGET) if hit is None else hit} "
        f"FEs to reach the surrogate mean {target:.3e} from a "
        f"{HEAD_TO_HEAD_BUDGET}-FE run (>=2x required)",
    )


# --- criterion 6: evaluation economy --------------------------------------------

def test_criterion_6_real_evaluation_share_is_q_over_p():
    fn = make_separable("rastrigin", 20, seed=2)
    decomp = ideal_decompose(fn, 5)
    probe = RunParams(max_fe=10**9, p=50, q=5)
    init = initialization_cost(decomp, probe)
    params = RunParams(max_fe=init + 5 * 200, p=50, q=5)
    opt = SurrogateCC(fn, decomp, params, seed=2)
    while not opt.budget.exhausted:
        report = opt.step()
        assert report.trials == 50
        if not report.truncated:
            assert report.real_evals == 5
    record = opt.record
    exact = record.loop_real_evals * params.p == record.loop_trials * params.q
    verdict(
        "criterion 6",
        exact and record.loop_trials == 200 * 50,
        f"{record.loop_real_evals} real evaluations for {record.loop_trials} "
        f"trials = q/p = {params.q / params.p:.0%}, exact",
    )


# --- criterion 8: determinism ----------------------------------------------------

def test_criterion_8_reruns_are_byte_identical(tmp_path):
    import json

    files = ("run_5.csv", "run_6.csv", "convergence.csv", "summary.csv")
    identical = True
    for algorithm in ("sacc", "shade-cc"):
        config = ExperimentConfig(
            functions=("f01",),
            dim=20,
            algorithm=algorithm,
            budget=800,
            runs=2,
            seed=5,
            s_sep=5,
            p=25,
            q=5,
            visit_len=3,
            out=str(tmp_path / "first"),
        )
        run_experiment(config)
        run_experiment(dataclasses.replace(config, out=str(tmp_path / "second")))
        for name in files:
            a = (tmp_path / "first" / "f01" / algorithm / name).read_bytes()
            b = (tmp_path / "second" / "f01" / algorithm / name).read_bytes()
            identical = identical and a == b
        # manifests agree on everything except the requested output location
        manifests = []
        for d in ("first", "second"):
            m = json.loads((tmp_path / d / "f01" / algorithm / "manifest.json").read_text())
            m["config"].pop("out")
            manifests.append(m)
        identical = identical and manifests[0] == manifests[1]
    verdict(
        "criterion 8",
        identical,
        f"both algorithms rerun to byte-identical {', '.join(files)} "
        "(manifests equal up to the output path)",
    )


# --- criterion 9: full-scale reproduction (optional) ------------------------------

@pytest.mark.extended
@pytest.mark.skipif(
    not os.environ.get("COOPEVO_EXTENDED"),
    reason="long full-scale run; set COOPEVO_EXTENDED=1 to enable",
)
def test_criterion_9_full_scale_magnitude():
    config = ExperimentConfig(
        functions=("f01",),
        dim=1000,
        algorithm="sacc",
        budget=300_000,
        runs=5,
        seed=1,
        s_sep=20,
        out="results/extended",
    )
    result = run_experiment(config, write=False)
    row = result.summary_for("f01")
    # reference mean for this setting is 4.33e+03 on the official data files;
    # with regenerated shifts/rotations we only ask for the same magnitude
    # band or better
    ok = row.mean <= 4.33e4
    verdict(
        "criterion 9",
        ok,
        f"1000-d analog at 3e5 FEs, 5 seeds: mean {row.mean:.3e} "
        f"(<= 4.33e+04, one order above the reference 4.33e+03)",
    )
