import dataclasses
import json
import re

import pytest

from coopevo.cli import main
from coopevo.harness import ExperimentConfig


def base_args(tmp_path, extra=()):
    return [
        "run",
        "--function", "f01",
        "--dim", "20",
        "--algorithm", "sacc",
        "--budget", "500",
        "--runs", "1",
        "--p", "25",
        "--q", "5",
        "--s-sep", "5",
        "--out", str(tmp_path),
        *extra,
    ]


def test_run_subcommand(tmp_path, capsys):
    assert main(base_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "f01 sacc" in out
    assert (tmp_path / "f01" / "sacc" / "manifest.json").exists()


def test_run_rejects_missing_required(capsys):
    assert main(["run", "--dim", "20"]) == 2
    assert "missing required settings" in capsys.readouterr().err


def test_run_rejects_invalid_budget(tmp_path, capsys):
    # budget below the initialization cost is a contract violation
    args = base_args(tmp_path)
    args[args.index("--budget") + 1] = "50"
    assert main(args) == 2


def test_budget_too_small_for_a_later_function_writes_nothing(tmp_path, capsys):
    # f01 at 20-d fits in 150 evaluations, f04's sacc set-up needs 201; the
    # check runs before f01 starts, so the output directory stays empty
    out = tmp_path / "out"
    args = ["run", "--function", "f01", "--function", "f04", "--dim", "20",
            "--algorithm", "sacc", "--budget", "150", "--runs", "1", "--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: f04: budget 150 below initialization cost 201")
    assert not out.exists() or not any(out.iterdir())


def help_entries(capsys, command):
    """Flag -> one-line help text of every config flag in ``<command> --help``."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    options = capsys.readouterr().out.split("options:\n", 1)[1]
    entries = re.findall(r"^  (--[^\n]*(?:\n {3,}[^\n]*)*)", options, flags=re.M)
    flags = (" ".join(entry.split()).split(" ", 1) for entry in entries)
    return {flag: text for flag, text in flags if flag != "--config"}


@pytest.mark.parametrize("command", ["run", "compare"])
def test_help_shows_one_flag_per_config_field_with_its_default(capsys, command):
    fields = [f for f in dataclasses.fields(ExperimentConfig)
              if command == "run" or f.name != "algorithm"]
    names = {"--function" if f.name == "functions" else "--" + f.name.replace("_", "-"): f
             for f in fields}
    entries = help_entries(capsys, command)
    assert sorted(entries) == sorted(names)
    for flag, f in names.items():
        if f.default is not dataclasses.MISSING:
            assert entries[flag].endswith(f"(default {f.default})"), flag


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = {
        "functions": ["f01"],
        "dim": 20,
        "algorithm": "sacc",
        "budget": 500,
        "runs": 1,
        "p": 25,
        "q": 5,
        "s_sep": 5,
        "out": str(tmp_path / "from_config"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "from_config" / "f01" / "sacc" / "summary.csv").exists()


def test_flags_override_config_file(tmp_path):
    cfg = {
        "functions": ["f01"],
        "dim": 20,
        "algorithm": "sacc",
        "budget": 500,
        "runs": 1,
        "p": 25,
        "q": 5,
        "s_sep": 5,
        "out": str(tmp_path / "a"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "f01" / "sacc" / "summary.csv").exists()
    assert not (tmp_path / "a").exists()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"budgets": 10}))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["42", "[1, 2]"], ids=["number", "list"])
def test_config_file_rejects_non_object_top_level(tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(content)
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.strip() == "error: config file must hold a JSON object"


@pytest.mark.parametrize(
    "key, value",
    [("dim", "20"), ("runs", 1.0), ("p", 25.0), ("budget", 500.5), ("budget", True), ("out", 5),
     ("functions", 5), ("functions", None)],
    ids=["dim-string", "runs-float", "p-float", "budget-fraction", "budget-bool", "out-number",
         "functions-number", "functions-null"],
)
def test_config_file_rejects_wrong_value_types(tmp_path, capsys, key, value):
    cfg = {"functions": ["f01"], "dim": 20, "algorithm": "sacc", "budget": 500, "runs": 1,
           "p": 25, "q": 5, "s_sep": 5, "out": str(tmp_path / "out")}
    cfg[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must be")
    assert not (tmp_path / "out").exists()


def test_fes_to_match_subcommand(tmp_path, capsys):
    trace = tmp_path / "convergence.csv"
    trace.write_text("fe,mean_fv,std_fv\n100,10.0,0.0\n200,5.0,0.0\n")
    assert main(["fes-to-match", "--target", "6.0", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.strip() == "200"
    assert main(["fes-to-match", "--target", "1.0", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.strip() == "not reached"


def test_fes_to_match_rejects_nan_target(tmp_path, capsys):
    trace = tmp_path / "convergence.csv"
    trace.write_text("fe,mean_fv,std_fv\n100,10.0,0.0\n200,5.0,0.0\n")
    assert main(["fes-to-match", "--target", "nan", "--trace", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("content", ["", "fe,mean_fv,std_fv\n"], ids=["empty", "header-only"])
def test_fes_to_match_rejects_curve_without_rows(tmp_path, capsys, content):
    trace = tmp_path / "convergence.csv"
    trace.write_text(content)
    assert main(["fes-to-match", "--target", "1.0", "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(trace) in err


@pytest.mark.parametrize(
    "args",
    [["fes-to-match", "--target", "1", "--trace", "{dir}"], ["run", "--config", "{dir}"]],
    ids=["fes-to-match-trace", "run-config"],
)
def test_directory_path_is_an_error_not_a_traceback(tmp_path, capsys, args):
    assert main([a.format(dir=tmp_path) for a in args]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_compare_subcommand(tmp_path, capsys):
    args = [
        "compare",
        "--function", "f01",
        "--dim", "20",
        "--budget", "700",
        "--runs", "2",
        "--p", "25",
        "--q", "5",
        "--s-sep", "5",
        "--visit-len", "2",
        "--out", str(tmp_path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "f01:" in out and "d=" in out


def test_plot_subcommand(tmp_path):
    pytest.importorskip("matplotlib")
    trace = tmp_path / "convergence.csv"
    trace.write_text("fe,mean_fv,std_fv\n100,10.0,0.0\n200,5.0,0.0\n")
    target = tmp_path / "fig.png"
    assert main(["plot", "--traces", str(trace), "--out", str(target)]) == 0
    assert target.exists()
