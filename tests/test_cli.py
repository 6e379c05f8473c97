import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import random_mixed

from dvbn.cli import main
from dvbn.graph import Dag


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(0)
    n = 40
    a = rng.integers(1, 3, n)
    x = np.round(a + rng.normal(0, 0.5, n), 2)
    y = np.round(rng.normal(0, 1, n), 2)
    lines = ["a,x,y"] + [f"{a[i]},{x[i]},{y[i]}" for i in range(n)]
    (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "schema.json").write_text(json.dumps({"columns": [
        {"name": "a", "kind": "discrete"},
        {"name": "x", "kind": "continuous"},
        {"name": "y", "kind": "continuous"}]}))
    g = Dag({"a": 2, "x": None, "y": None}).add_edge("a", "x").add_edge("x", "y")
    (tmp_path / "g.json").write_text(g.to_json())
    return tmp_path


def run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_discretize_writes_outputs(workdir):
    out = workdir / "out"
    r = run(["discretize", "--data", str(workdir / "d.csv"),
             "--schema", str(workdir / "schema.json"),
             "--structure", str(workdir / "g.json"),
             "--out", str(out)])
    assert r.exit_code == 0, r.output
    assert (out / "policies.csv").exists()
    summary = json.loads((out / "discretize_summary.json").read_text())
    assert "seed" not in summary
    doc = json.loads((out / "policy_x.json").read_text())
    assert doc["variable"] == "x" and "edges" in doc


def test_discretize_uniform(workdir):
    out = workdir / "out_u"
    r = run(["discretize", "--data", str(workdir / "d.csv"),
             "--schema", str(workdir / "schema.json"),
             "--structure", str(workdir / "g.json"),
             "--method", "uniform", "--k", "3",
             "--out", str(out)])
    assert r.exit_code == 0, r.output
    doc = json.loads((out / "policy_x.json").read_text())
    assert len(doc["edges"]) <= 2


def test_missing_data_file_is_config_error(workdir):
    r = run(["discretize", "--data", str(workdir / "missing.csv"),
             "--structure", str(workdir / "g.json"),
             "--out", str(workdir / "o")])
    assert r.exit_code == 2
    assert "config error" in r.output


def test_bad_data_is_data_error(workdir):
    bad = workdir / "bad.csv"
    bad.write_text("x\n1.0\nbogus\n")
    (workdir / "gx.json").write_text(Dag({"x": None}).to_json())
    r = run(["discretize", "--data", str(bad),
             "--schema", str(workdir / "schema_x.json"), "--structure",
             str(workdir / "gx.json"),
             "--out", str(workdir / "o")])
    # schema file missing -> config error; with schema present -> data error
    assert r.exit_code == 2
    (workdir / "schema_x.json").write_text(
        json.dumps({"columns": [{"name": "x", "kind": "continuous"}]}))
    r = run(["discretize", "--data", str(bad),
             "--schema", str(workdir / "schema_x.json"), "--structure",
             str(workdir / "gx.json"),
             "--out", str(workdir / "o")])
    assert r.exit_code == 3
    assert "data error" in r.output


def test_learn_command(workdir):
    out = workdir / "learn"
    r = run(["learn", "--data", str(workdir / "d.csv"),
             "--schema", str(workdir / "schema.json"),
             "--seed", "0", "--restarts", "2", "--out", str(out)])
    assert r.exit_code == 0, r.output
    doc = json.loads((out / "learn_result.json").read_text())
    assert "score" in doc and "graph" in doc


def test_evaluate_fixed_structure(workdir):
    out = workdir / "eval"
    r = run(["evaluate", "--data", str(workdir / "d.csv"),
             "--schema", str(workdir / "schema.json"),
             "--structure", str(workdir / "g.json"),
             "--method", "bayes", "--method", "mdl",
             "--seed", "0", "--folds", "4", "--out", str(out)])
    assert r.exit_code == 0, r.output
    assert (out / "cv_bayes.json").exists()
    assert (out / "cv_mdl.json").exists()
    assert (out / "cv_comparison.json").exists()
    lines = (out / "cv_folds.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 4  # header + 2 methods x 4 folds


def test_bench_command(tmp_path):
    # the synthetic scaling harness lives in the tests (criterion 7) and
    # perfbench/ is the benchmark: the package has no bench subcommand
    r = run(["bench", "--n", "60,120", "--seed", "0", "--out", str(tmp_path)])
    assert r.exit_code == 2
    assert "No such command" in r.output


def test_package_does_not_import_scipy():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    code = ("import sys, dvbn, dvbn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"


def test_library_warning_is_printed_once(tmp_path):
    # random_mixed(79) cycles, so discretize_all warns that it did not
    # converge; run in a subprocess, as pytest's own capture hides the
    # warning's default form
    d, g = random_mixed(79)
    lines = [",".join(d.names)] + [",".join(str(d.columns[v][i]) for v in d.names)
                                   for i in range(d.n_rows)]
    (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "schema.json").write_text(json.dumps({"columns": [
        {"name": v.name, "kind": v.kind} for v in d.variables]}))
    (tmp_path / "g.json").write_text(g.to_json())
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    r = subprocess.run(
        [sys.executable, "-m", "dvbn.cli", "discretize", "--data", str(tmp_path / "d.csv"),
         "--schema", str(tmp_path / "schema.json"), "--structure", str(tmp_path / "g.json"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert r.returncode == 0, r.stderr
    summary = json.loads((tmp_path / "out" / "discretize_summary.json").read_text())
    assert summary["converged"] is False
    assert r.stderr.splitlines() == ["warning: " + summary["warning"]]
    assert "UserWarning" not in r.stderr


@pytest.mark.parametrize("command", ["learn", "evaluate"])
def test_empty_schema_is_data_error(workdir, command):
    schema = workdir / "empty.schema.json"
    schema.write_text(json.dumps({"columns": []}))
    extra = {"learn": ["--restarts", "1"],
             "evaluate": ["--method", "bayes"]}
    r = run([command, "--data", str(workdir / "d.csv"), "--schema", str(schema),
             "--seed", "0", "--out", str(workdir / "o"), *extra[command]])
    assert r.exit_code == 3, r.output
    assert "data error" in r.output and f"schema {schema}: 'columns' is empty" in r.output


def test_evaluate_naive_bayes(workdir, data_dir):
    iris = os.path.join(data_dir, "iris.csv")
    schema = os.path.join(data_dir, "iris.schema.json")
    out = workdir / "nb"
    r = run(["evaluate", "--data", iris, "--schema", schema,
             "--method", "bayes", "--naive-bayes", "species",
             "--seed", "0", "--folds", "10", "--out", str(out)])
    assert r.exit_code == 0, r.output
    doc = json.loads((out / "naive_bayes_report.json").read_text())
    assert doc["bayes"]["accuracy"] > 0.85


def test_naive_bayes_missing_class_is_config_error(workdir, data_dir):
    r = run(["evaluate", "--data", os.path.join(data_dir, "iris.csv"),
             "--schema", os.path.join(data_dir, "iris.schema.json"),
             "--method", "bayes", "--naive-bayes", "nope",
             "--seed", "0", "--folds", "5", "--out", str(workdir / "nb_x")])
    assert r.exit_code == 2, r.output
    assert "config error" in r.output and "'nope'" in r.output


def _discretize_args(workdir, data, *extra):
    return ["discretize", "--data", str(data), "--schema", str(workdir / "schema.json"),
            "--structure", str(workdir / "g.json"),
            "--out", str(workdir / "o"), *extra]


def test_ragged_csv_row_is_data_error(workdir):
    bad = workdir / "ragged.csv"
    bad.write_text("a,x,y\n1,0.5,0.1\n2,0.7\n")
    r = run(_discretize_args(workdir, bad))
    assert r.exit_code == 3
    assert "data error" in r.output and "2 fields" in r.output


def test_overflowing_range_is_data_error(tmp_path):
    # every value is finite, but max - min exceeds the largest double
    x = np.clip(np.random.default_rng(0).normal(size=40), -1.7, 1.7) * 1e308
    data = tmp_path / "huge.csv"
    data.write_text("x\n" + "".join(f"{float(v)!r}\n" for v in x))
    r = run(["evaluate", "--data", str(data), "--method", "bayes", "--folds", "4",
             "--seed", "0", "--out", str(tmp_path / "o")])
    assert r.exit_code == 3, r.output
    assert "data error" in r.output and "column 'x'" in r.output
    assert "range overflows" in r.output
    assert not (tmp_path / "o" / "cv_bayes.json").exists()


@pytest.mark.parametrize("method, code", [("bayes", 3), ("mdl", 0)])
def test_underflowing_gap_is_data_error_for_bayes_only(tmp_path, method, code):
    # the gap from 0 to 5e-324 is 0 relative to a range near 1.7e300, so the
    # Bayesian prior has no penalty for an edge there; MDL reads only ranks
    x = np.concatenate((np.random.default_rng(0).uniform(1e299, 1.7e300, 38),
                        [0.0, 5e-324]))
    data = tmp_path / "tiny_gap.csv"
    data.write_text("a,x\n" + "".join(f"{1 if v > 1e300 else 2},{float(v)!r}\n"
                                      for v in x))
    (tmp_path / "g.json").write_text(json.dumps(
        {"nodes": [{"name": "a"}, {"name": "x"}], "edges": [["a", "x"]]}))
    r = run(["discretize", "--data", str(data), "--structure", str(tmp_path / "g.json"),
             "--method", method, "--out", str(tmp_path / "o")])
    assert r.exit_code == code, r.output
    if code:
        assert "data error: variable 'x'" in r.output
        assert "gap between its values underflows relative to its range" in r.output


@pytest.mark.parametrize("method, code", [("bayes", 3), ("mdl", 0)])
def test_subnormal_range_is_data_error_for_bayes_only(tmp_path, method, code):
    # the range 1e-323 is subnormal, so the prior's L / range overflows to
    # inf and would price every interval length at inf * 0 = NaN
    x = [0.0, 5e-324, 1e-323] * 4
    data = tmp_path / "tiny_range.csv"
    data.write_text("a,x\n" + "".join(f"{1 + i % 2},{v!r}\n" for i, v in enumerate(x)))
    (tmp_path / "g.json").write_text(json.dumps(
        {"nodes": [{"name": "a"}, {"name": "x"}], "edges": [["a", "x"]]}))
    r = run(["discretize", "--data", str(data), "--structure", str(tmp_path / "g.json"),
             "--method", method, "--out", str(tmp_path / "o")])
    assert r.exit_code == code, r.output
    if code:
        assert "data error: variable 'x'" in r.output
        assert "range of its values is too small" in r.output


def test_non_utf8_csv_is_data_error(workdir):
    bad = workdir / "latin1.csv"
    bad.write_bytes("a,x,y\n1,0.5,0.1\n2,0.7,caf\u00e9\n".encode("latin-1"))
    r = run(_discretize_args(workdir, bad))
    assert r.exit_code == 3
    assert "data error" in r.output and "UTF-8" in r.output


def test_unknown_schema_kind_is_data_error(workdir):
    (workdir / "schema.json").write_text(json.dumps({"columns": [
        {"name": "a", "kind": "discrete"},
        {"name": "x", "kind": "continous"},
        {"name": "y", "kind": "continuous"}]}))
    r = run(_discretize_args(workdir, workdir / "d.csv"))
    assert r.exit_code == 3
    assert "data error" in r.output and "'continous'" in r.output


def test_duplicate_schema_column_is_data_error(workdir):
    (workdir / "schema.json").write_text(json.dumps({"columns": [
        {"name": "a", "kind": "discrete"},
        {"name": "x", "kind": "continuous"},
        {"name": "x", "kind": "continuous"}]}))
    r = run(["learn", "--data", str(workdir / "d.csv"),
             "--schema", str(workdir / "schema.json"),
             "--seed", "0", "--restarts", "1", "--out", str(workdir / "o")])
    assert r.exit_code == 3
    assert "data error" in r.output and "column 'x' is listed twice" in r.output


def test_discretize_takes_no_seed(workdir):
    # discretize draws nothing at random, so a seed would be ignored
    r = run(_discretize_args(workdir, workdir / "d.csv", "--seed", "0"))
    assert r.exit_code == 2
    assert "No such option" in r.output and "--seed" in r.output
    assert not (workdir / "o").exists()


@pytest.mark.parametrize("flag,value", [("--k", "0")])
def test_discretize_bad_flag_is_config_error(workdir, flag, value):
    r = run(_discretize_args(workdir, workdir / "d.csv", flag, value))
    assert r.exit_code == 2
    assert flag in r.output


@pytest.mark.parametrize("flag,value", [("--folds", "1"), ("--restarts", "0"),
                                        ("--k", "0"), ("--max-parents", "-3")])
def test_evaluate_bad_flag_is_config_error(workdir, flag, value):
    r = run(["evaluate", "--data", str(workdir / "d.csv"),
             "--schema", str(workdir / "schema.json"),
             "--structure", str(workdir / "g.json"), "--method", "uniform",
             "--seed", "0", "--out", str(workdir / "o"), flag, value])
    assert r.exit_code == 2
    assert flag in r.output


@pytest.mark.parametrize("flag,value", [("--restarts", "0"), ("--max-parents", "-3")])
def test_learn_bad_flag_is_config_error(workdir, flag, value):
    r = run(["learn", "--data", str(workdir / "d.csv"),
             "--schema", str(workdir / "schema.json"),
             "--seed", "0", "--out", str(workdir / "o"), flag, value])
    assert r.exit_code == 2
    assert flag in r.output


def test_evaluate_joint_uniform_is_config_error(workdir):
    out = workdir / "eval_u"
    r = run(["evaluate", "--data", str(workdir / "missing.csv"),
             "--method", "bayes", "--method", "uniform",
             "--seed", "0", "--folds", "3", "--out", str(out)])
    # rejected before the data is read and before any output is written
    assert r.exit_code == 2
    assert "--structure" in r.output
    assert not out.exists()


@pytest.mark.parametrize("text,names", [
    ('{"nodes": [', []),
    ('{"edges": []}', []),
    (Dag({"a": 2, "x": None}).add_edge("a", "x").to_json(), ["y"]),
    (Dag({"a": 2, "x": None, "y": None, "ghost": None}).to_json(), ["ghost"]),
], ids=["malformed_json", "no_nodes_key", "missing_node", "extra_node"])
def test_bad_structure_is_config_error(workdir, text, names):
    bad = workdir / "bad_structure.json"
    bad.write_text(text)
    for cmd in (["discretize"],
                ["evaluate", "--method", "bayes", "--folds", "2", "--seed", "0"]):
        r = run([*cmd, "--data", str(workdir / "d.csv"),
                 "--schema", str(workdir / "schema.json"),
                 "--structure", str(bad),
                 "--out", str(workdir / "o")])
        assert r.exit_code == 2, r.output
        assert "config error" in r.output
        for name in names:
            assert repr(name) in r.output


def test_evaluate_naive_bayes_uniform(workdir, data_dir):
    out = workdir / "nb_u"
    r = run(["evaluate", "--data", os.path.join(data_dir, "iris.csv"),
             "--schema", os.path.join(data_dir, "iris.schema.json"),
             "--method", "uniform", "--k", "3", "--naive-bayes", "species",
             "--seed", "0", "--folds", "5", "--out", str(out)])
    assert r.exit_code == 0, r.output
    doc = json.loads((out / "naive_bayes_report.json").read_text())
    assert list(doc) == ["uniform"]
    assert len(doc["uniform"]["fold_accuracies"]) == 5
    assert all(len(e) <= 2 for e in doc["uniform"]["edges"].values())


@pytest.mark.parametrize("extra", [["--structure", "missing/g.json"],
                                   ["--restarts", "7"], ["--max-parents", "1"],
                                   ["--structure", "missing/g.json", "--restarts", "7"]],
                         ids=["structure", "restarts", "max_parents", "both"])
def test_naive_bayes_with_structure_flags_is_config_error(workdir, data_dir, extra):
    out = workdir / "nb_flags"
    r = run(["evaluate", "--data", os.path.join(data_dir, "iris.csv"),
             "--schema", os.path.join(data_dir, "iris.schema.json"),
             "--method", "bayes", "--naive-bayes", "species",
             "--seed", "0", "--folds", "5", "--out", str(out), *extra])
    assert r.exit_code == 2, r.output
    assert "config error" in r.output
    assert all(flag in r.output for flag in extra if flag.startswith("--"))
    assert not out.exists()


@pytest.mark.parametrize("command", ["discretize", "learn", "evaluate"])
def test_max_cycles_flag_is_gone(workdir, command):
    r = run([command, "--max-cycles", "10"])
    assert r.exit_code == 2
    assert "No such option" in r.output and "--max-cycles" in r.output


@pytest.mark.parametrize("extra", [["--restarts", "7"], ["--max-parents", "1"],
                                   ["--restarts", "7", "--max-parents", "1"]],
                         ids=["restarts", "max_parents", "both"])
def test_fixed_structure_with_joint_flags_is_config_error(workdir, extra):
    out = workdir / "eval_joint_flags"
    r = run(["evaluate", "--data", str(workdir / "missing.csv"),
             "--structure", str(workdir / "g.json"), "--method", "bayes",
             "--seed", "0", "--out", str(out), *extra])
    # rejected before the data is read: the data path does not exist
    assert r.exit_code == 2, r.output
    assert "config error" in r.output and "--structure" in r.output
    assert all(flag in r.output for flag in extra if flag.startswith("--"))
    assert not out.exists()


@pytest.mark.parametrize("method", ["bayes", "mdl"])
def test_discretize_k_without_uniform_is_config_error(workdir, method):
    args = _discretize_args(workdir, workdir / "missing.csv", "--method", method, "--k", "9")
    r = run(args)
    assert r.exit_code == 2, r.output
    assert "config error" in r.output and "--k" in r.output
    assert not (workdir / "o").exists()


@pytest.mark.parametrize("extra", [["--structure", "g.json"], ["--naive-bayes", "a"]],
                         ids=["fixed", "naive_bayes"])
def test_evaluate_k_without_uniform_is_config_error(workdir, extra):
    extra = [str(workdir / v) if v.endswith(".json") else v for v in extra]
    r = run(["evaluate", "--data", str(workdir / "missing.csv"),
             "--method", "bayes", "--method", "mdl", "--k", "3",
             "--seed", "0", "--out", str(workdir / "o"), *extra])
    assert r.exit_code == 2, r.output
    assert "config error" in r.output and "--k" in r.output
    assert not (workdir / "o").exists()


def test_evaluate_k_with_uniform_among_methods_is_accepted(workdir):
    out = workdir / "eval_k"
    r = run(["evaluate", "--data", str(workdir / "d.csv"),
             "--schema", str(workdir / "schema.json"),
             "--structure", str(workdir / "g.json"),
             "--method", "bayes", "--method", "uniform", "--k", "3",
             "--seed", "0", "--folds", "2", "--out", str(out)])
    assert r.exit_code == 0, r.output
    assert (out / "cv_uniform.json").exists()


@pytest.mark.parametrize("extra", [["--structure", "g.json"], ["--naive-bayes", "a"]],
                         ids=["fixed", "naive_bayes"])
def test_evaluate_repeated_method_is_config_error(workdir, extra):
    # a repeated method would rerun its CV and write each fold twice
    extra = [str(workdir / v) if v.endswith(".json") else v for v in extra]
    r = run(["evaluate", "--data", str(workdir / "missing.csv"),
             "--method", "bayes", "--method", "mdl", "--method", "bayes",
             "--seed", "0", "--out", str(workdir / "o"), *extra])
    # rejected before the data is read: the data path does not exist
    assert r.exit_code == 2, r.output
    assert "config error: --method given more than once: bayes" in r.output
    assert "mdl" not in r.output
    assert not (workdir / "o").exists()
