import csv
import json
import math
import re

import numpy as np
import pytest

from coopevo.harness import (
    ExperimentConfig,
    SummaryRow,
    cohens_d,
    compare_algorithms,
    effect_label,
    export_convergence,
    fes_to_match,
    mean_curve,
    read_convergence,
    run_experiment,
)
from coopevo.runtime import GenRow, RunRecord


def tiny_config(**kw):
    defaults = dict(
        functions=("f01",),
        dim=20,
        algorithm="sacc",
        budget=600,
        runs=2,
        seed=1,
        s_sep=5,
        p=25,
        q=5,
        out="results",
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def fake_record(seed, rows):
    rec = RunRecord(seed=seed)
    for gen, (fe, fv) in enumerate(rows):
        rec.rows.append(GenRow(gen, 0, fe, fv))
    rec.final_f = rows[-1][1]
    return rec


# --- effect size -------------------------------------------------------------

def test_cohens_d_hand_value():
    d, label = cohens_d(1.0, 1.0, 0.0, 1.0)
    assert d == pytest.approx(1.0)
    assert label == "large"


def test_cohens_d_identical_samples():
    d, label = cohens_d(3.0, 0.0, 3.0, 0.0)
    assert d == 0.0
    assert label == "similar"


def test_cohens_d_bands():
    assert effect_label(0.25) == "small"
    assert effect_label(-0.25) == "small"
    assert effect_label(0.5) == "medium"
    assert effect_label(0.79) == "medium"
    assert effect_label(0.8) == "large"
    assert effect_label(0.1) == "similar"


def test_cohens_d_zero_spread_unequal_means():
    d, label = cohens_d(1.0, 0.0, 0.0, 0.0)
    assert math.isinf(d) and d > 0
    assert label == "large"
    d, label = cohens_d(0.0, 0.0, 1.0, 0.0)
    assert math.isinf(d) and d < 0


@pytest.mark.parametrize("position", range(4))
def test_cohens_d_rejects_a_nan_input(position):
    # unchecked, a NaN mean or spread would be labelled "similar"
    args = [0.0, 1.0, 0.0, 1.0]
    args[position] = math.nan
    name = ("mean_a", "std_a", "mean_b", "std_b")[position]
    with pytest.raises(ValueError, match=f"{name} is NaN"):
        cohens_d(*args)


@pytest.mark.parametrize("position", [1, 3])
def test_cohens_d_rejects_a_negative_spread(position):
    # unchecked, cohens_d(1.0, -2.0, 0.0, 1.0) returned (0.632..., "medium")
    args = [1.0, 1.0, 0.0, 1.0]
    args[position] = -2.0
    name = ("mean_a", "std_a", "mean_b", "std_b")[position]
    message = re.escape(f"{name} must be a finite number >= 0, got -2.0")
    with pytest.raises(ValueError, match=f"^{message}$"):
        cohens_d(*args)
    args[position] = 0.0
    assert cohens_d(*args)[1] == "large"  # a zero spread stays valid


@pytest.mark.parametrize("position", [1, 3])
def test_cohens_d_rejects_an_infinite_spread(position):
    # unchecked, cohens_d(0.0, math.inf, 1.0, 1.0) returned (-0.0, "similar")
    args = [0.0, 1.0, 1.0, 1.0]
    args[position] = math.inf
    name = ("mean_a", "std_a", "mean_b", "std_b")[position]
    with pytest.raises(ValueError, match=f"^{name} must be a finite number >= 0, got inf$"):
        cohens_d(*args)


def test_effect_label_rejects_nan_and_infinite_means_keep_their_sign():
    with pytest.raises(ValueError, match="d is NaN"):
        effect_label(math.nan)
    # two infinite means of one sign give no difference to label
    with pytest.raises(ValueError, match="d is NaN"):
        cohens_d(math.inf, 1.0, math.inf, 1.0)
    assert cohens_d(math.inf, 1.0, 0.0, 1.0) == (math.inf, "large")
    assert cohens_d(0.0, 1.0, math.inf, 0.0) == (-math.inf, "large")
    assert cohens_d(-math.inf, 0.0, 0.0, 0.0) == (-math.inf, "large")


def test_cohens_d_antisymmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ma, mb = rng.normal(size=2)
        sa, sb = rng.uniform(0.1, 2.0, size=2)
        d_ab, _ = cohens_d(ma, sa, mb, sb)
        d_ba, _ = cohens_d(mb, sb, ma, sa)
        assert d_ab == -d_ba


# --- budget-to-match ----------------------------------------------------------

def test_fes_to_match_first_crossing():
    curve = np.array([[100.0, 10.0, 0.0], [200.0, 5.0, 0.0]])
    assert fes_to_match(6.0, curve) == 200


def test_fes_to_match_target_above_initial_mean():
    curve = np.array([[100.0, 10.0, 0.0], [200.0, 5.0, 0.0]])
    assert fes_to_match(50.0, curve) == 100


def test_fes_to_match_not_reached():
    curve = np.array([[100.0, 10.0, 0.0], [200.0, 5.0, 0.0]])
    assert fes_to_match(4.9, curve) is None


def test_fes_to_match_rejects_empty():
    with pytest.raises(ValueError):
        fes_to_match(1.0, np.empty((0, 3)))


def test_fes_to_match_rejects_nan_target():
    curve = np.array([[100.0, 10.0, 0.0], [200.0, 5.0, 0.0]])
    with pytest.raises(ValueError, match="NaN"):
        fes_to_match(float("nan"), curve)


# --- curve aggregation ----------------------------------------------------------

def test_mean_curve_single_run_equals_trace():
    rec = fake_record(1, [(10, 100.0), (20, 50.0), (30, 25.0)])
    curve = mean_curve([rec])
    assert curve[:, 0].tolist() == [10.0, 20.0, 30.0]
    assert curve[:, 1].tolist() == [100.0, 50.0, 25.0]
    assert curve[:, 2].tolist() == [0.0, 0.0, 0.0]


def test_mean_curve_hand_computed_average():
    a = fake_record(1, [(10, 4.0), (20, 2.0)])
    b = fake_record(2, [(10, 8.0), (20, 6.0)])
    curve = mean_curve([a, b])
    assert curve[:, 1].tolist() == [6.0, 4.0]
    assert curve[:, 2].tolist() == [2.0, 2.0]


def test_mean_curve_rejects_misaligned_runs():
    # averaging rows taken at different fe would label the mean with the
    # first run's fe
    a = fake_record(1, [(1, 4.0), (101, 2.0)])
    message = re.escape("fe_used columns differ; runs are not aligned")
    with pytest.raises(ValueError, match=message):
        mean_curve([a, fake_record(2, [(1, 8.0), (201, 6.0)])])
    with pytest.raises(ValueError, match=message):
        mean_curve([a, fake_record(2, [(1, 8.0)])])


def test_export_convergence_schema(tmp_path):
    a = fake_record(1, [(10, 4.0), (20, 2.0)])
    path = export_convergence([a], tmp_path / "curve.csv")
    with open(path) as handle:
        header = handle.readline().strip()
    assert header == "fe,mean_fv,std_fv"
    curve = read_convergence(path)
    assert curve.shape == (2, 3)


@pytest.mark.parametrize("row", ["100,1.0", "100,abc,1"], ids=["short", "not-a-number"])
def test_read_convergence_names_file_and_line_of_bad_row(tmp_path, row):
    path = tmp_path / "convergence.csv"
    path.write_text(f"fe,mean_fv,std_fv\n100,10.0,0.0\n{row}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}, line 3: "):
        read_convergence(path)


# --- summary -------------------------------------------------------------------

def test_summary_row_single_run():
    row = SummaryRow.from_finals("f01", "sacc", 100, [3.5])
    assert row.best == row.median == row.worst == row.mean == 3.5
    assert row.std == 0.0


def test_summary_matches_independent_recomputation():
    rng = np.random.default_rng(1)
    finals = rng.uniform(1.0, 100.0, 25)
    row = SummaryRow.from_finals("f01", "sacc", 100, finals)
    srt = np.sort(finals)
    assert abs(row.best - srt[0]) <= 1e-12
    assert abs(row.worst - srt[-1]) <= 1e-12
    assert abs(row.median - srt[12]) <= 1e-12
    assert abs(row.mean - sum(finals) / 25) <= 1e-12 * max(1.0, abs(row.mean))
    var = sum((x - row.mean) ** 2 for x in finals) / 25
    assert abs(row.std - math.sqrt(var)) <= 1e-12 * max(1.0, row.std)


def test_summary_median_is_numpy_median():
    # from_finals takes statistics.median, which does not import numpy.ma;
    # it matches np.median bit for bit, ties and infinities included
    rng = np.random.default_rng(2)
    for size in range(1, 41):
        for _ in range(5):
            finals = rng.choice(rng.lognormal(0.0, 5.0, 6), size)  # ties
            finals[rng.random(size) < 0.1] = math.inf
            finals[rng.random(size) < 0.1] = -math.inf
            with np.errstate(invalid="ignore"):  # inf - inf in mean and std
                row = SummaryRow.from_finals("f01", "sacc", 100, finals)
            assert row.median.hex() == float(np.median(finals)).hex()


@pytest.mark.parametrize("finals", [[1.0, math.nan, 2.0], [-math.inf, math.inf]],
                         ids=["nan-final", "nan-median"])
def test_summary_rejects_a_nan_final_or_median(finals):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="summary ordering violated"):
        SummaryRow.from_finals("f01", "sacc", 100, finals)


def test_summary_rejects_bad_ordering():
    with pytest.raises(ValueError):
        SummaryRow("f", "sacc", 1, 1, best=2.0, median=1.0, worst=3.0, mean=2.0, std=0.0)


# --- experiment runner ------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(algorithm="annealing")
    with pytest.raises(ValueError):
        tiny_config(runs=0)
    with pytest.raises(ValueError):
        tiny_config(functions=())
    with pytest.raises(ValueError):
        tiny_config(q=100, p=25)
    with pytest.raises(ValueError):
        tiny_config(functions="f01")        # a bare string, not a list of ids
    with pytest.raises(ValueError):
        tiny_config(functions=("f01", "f99"))
    with pytest.raises(ValueError, match=re.escape("seed must be an integer >= 0, got -1")):
        tiny_config(seed=-1)
    with pytest.raises(ValueError, match=re.escape("suite_seed must be an integer >= 0, got -3")):
        tiny_config(suite_seed=-3)
    with pytest.raises(ValueError, match="^algorithm must be a string"):
        tiny_config(algorithm=1)
    with pytest.raises(ValueError, match=re.escape("duplicate function ids ['f01']")):
        tiny_config(functions=("f01", "f05", "f01"))


@pytest.mark.parametrize(
    "setting, message",
    [({"runs": 0}, "runs must be an integer >= 1, got 0"),
     ({"s_sep": 0}, "s_sep must be an integer >= 1, got 0"),
     ({"budget": np.float64(600.0)}, "budget must be an integer, got np.float64(600.0)"),
     ({"dim": 30}, "dim must be a positive multiple of 20"),
     ({"dim": 0}, "dim must be a positive multiple of 20")],
    ids=["runs", "s_sep", "budget", "dim-30", "dim-0"],
)
def test_config_rejects_bad_settings_when_built(setting, message):
    # s_sep and dim would otherwise fail only when run_experiment builds
    # the problem
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tiny_config(**setting)


def test_config_stores_numpy_integers_as_ints(tmp_path):
    ints = dict(dim=np.int64(20), budget=np.int64(600), runs=np.int32(1), seed=np.int64(3),
                s_sep=np.int64(5), p=np.int64(25), q=np.int16(5), suite_seed=np.uint8(1))
    config = tiny_config(out=str(tmp_path), **ints)
    for name, value in ints.items():
        stored = getattr(config, name)
        assert type(stored) is int and stored == value
    run_experiment(config)
    manifest = json.loads((tmp_path / "f01" / "sacc" / "manifest.json").read_text())
    assert manifest["config"]["budget"] == 600 and manifest["seeds"] == [3]


def test_run_experiment_writes_complete_output(tmp_path):
    config = tiny_config(out=str(tmp_path))
    result = run_experiment(config)
    out = tmp_path / "f01" / "sacc"
    assert (out / "run_1.csv").exists()
    assert (out / "run_2.csv").exists()
    assert (out / "convergence.csv").exists()
    assert (out / "summary.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["budget"] == 600
    assert manifest["seeds"] == [1, 2]
    assert manifest["config"]["functions"] == ["f01"]
    assert "code_version" in manifest
    row = result.summary_for("f01")
    assert row.best <= row.median <= row.worst


# --- output file schemas ----------------------------------------------------------

@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("schemas")
    result = run_experiment(tiny_config(out=str(out)))
    return result, out / "f01" / "sacc"


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_summary_csv_schema_and_float_round_trip(written):
    result, out = written
    header, *rows = read_rows(out / "summary.csv")
    assert header == ["function", "algorithm", "budget", "runs",
                      "best", "median", "worst", "mean", "std"]
    assert len(rows) == 1
    summary = result.summary_for("f01")
    assert rows[0][:4] == ["f01", "sacc", "600", "2"]
    assert summary.std > 0.0
    for name, text in zip(header[4:], rows[0][4:]):
        assert float(text).hex() == getattr(summary, name).hex(), name


def test_run_csv_rows_equal_record_rows(written):
    result, out = written
    for rec in result.records["f01"]:
        header, *rows = read_rows(out / f"run_{rec.seed}.csv")
        assert header == ["generation", "sub_id", "fe_used", "f_best"]
        parsed = [GenRow(int(g), int(k), int(fe), float(fv)) for g, k, fe, fv in rows]
        assert parsed == rec.rows


def test_convergence_csv_header(written):
    _, out = written
    assert (out / "convergence.csv").read_text().splitlines()[0] == "fe,mean_fv,std_fv"


def test_run_experiment_deterministic_bytes(tmp_path):
    config_a = tiny_config(out=str(tmp_path / "a"))
    config_b = tiny_config(out=str(tmp_path / "b"))
    run_experiment(config_a)
    run_experiment(config_b)
    for name in ("run_1.csv", "run_2.csv", "convergence.csv", "summary.csv"):
        a = (tmp_path / "a" / "f01" / "sacc" / name).read_bytes()
        b = (tmp_path / "b" / "f01" / "sacc" / name).read_bytes()
        assert a == b, name


def test_outdir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("COOPEVO_OUTDIR", str(tmp_path / "forced"))
    config = tiny_config(out=str(tmp_path / "ignored"))
    run_experiment(config)
    forced = tmp_path / "forced" / "f01" / "sacc"
    assert (forced / "summary.csv").exists()
    assert not (tmp_path / "ignored").exists()
    # the manifest echoes the directory the files are in
    manifest = json.loads((forced / "manifest.json").read_text())
    assert manifest["config"]["out"] == str(tmp_path / "forced")


def test_compare_runs_both_algorithms(tmp_path):
    config = tiny_config(out=str(tmp_path), budget=900, runs=2, visit_len=2)
    out = compare_algorithms(config)
    rows = out["comparison"]
    assert len(rows) == 1
    assert rows[0]["label"] in ("similar", "small", "medium", "large")
    assert (tmp_path / "f01" / "sacc" / "summary.csv").exists()
    assert (tmp_path / "f01" / "shade-cc" / "summary.csv").exists()
