"""The summary, the dirty-tree hash and the output files of
``scripts/bench.py``, on hand-made run results and a temporary git
repository (no benchmark run)."""

import importlib.util
import json
import os
import subprocess

import pytest

from conftest import DATA_DIR


def _bench():
    """``scripts/bench.py``, imported as a module."""
    path = os.path.join(DATA_DIR, "..", "scripts", "bench.py")
    spec = importlib.util.spec_from_file_location("bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metrics(k2_s, nll):
    return {"k2_s": {"value": k2_s, "unit": "s"},
            "nll_bayes": {"value": nll, "unit": "nats/row"}}


def test_summary_gives_min_quartiles_and_median_in_run_order():
    runs = [_metrics(t, -3.5) for t in (0.5, 0.1, 0.4, 0.2, 0.3)]
    got = _bench().summarize(runs)
    assert set(got) == {"k2_s", "nll_bayes"}
    k2 = got["k2_s"]
    assert k2["unit"] == "s" and k2["values"] == [0.5, 0.1, 0.4, 0.2, 0.3]
    assert k2["min"] == 0.1 and k2["median"] == 0.3
    assert k2["q1"] == pytest.approx(0.2) and k2["q3"] == pytest.approx(0.4)
    assert got["nll_bayes"] == {"unit": "nats/row", "values": [-3.5] * 5, "min": -3.5,
                                "q1": -3.5, "median": -3.5, "q3": -3.5}


def test_summary_of_one_run_is_that_run():
    got = _bench().summarize([_metrics(0.25, -3.0)])
    assert got["k2_s"] == {"unit": "s", "values": [0.25], "min": 0.25,
                           "q1": 0.25, "median": 0.25, "q3": 0.25}
    # an even count takes the mean of the middle pair
    assert _bench().summarize([_metrics(t, 0.0) for t in (1.0, 2.0)])["k2_s"]["median"] == 1.5


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=repo, capture_output=True, check=True)


def test_dirty_tree_hash_names_the_edit_of_the_timed_paths(tmp_path):
    diff_sha256 = _bench().diff_sha256
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("x = 1\n")
    (repo / "README.md").write_text("notes\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "seed")
    assert diff_sha256(repo) is None
    # an edit outside the timed paths, or an untracked file, leaves it clean
    (repo / "README.md").write_text("other notes\n")
    (repo / "scratch.txt").write_text("untracked\n")
    assert diff_sha256(repo) is None
    (repo / "src" / "a.py").write_text("x = 2\n")
    first = diff_sha256(repo)
    assert len(first) == 64
    # the same edit made again hashes the same, a different one does not
    (repo / "src" / "a.py").write_text("x = 1\n")
    assert diff_sha256(repo) is None
    (repo / "src" / "a.py").write_text("x = 2\n")
    assert diff_sha256(repo) == first
    (repo / "src" / "a.py").write_text("x = 3\n")
    assert diff_sha256(repo) not in (None, first)
    # a staged edit counts as the same edit
    (repo / "src" / "a.py").write_text("x = 2\n")
    _git(repo, "add", "src/a.py")
    assert diff_sha256(repo) == first


def test_each_recording_keeps_its_own_baseline(tmp_path, monkeypatch):
    bench = _bench()
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("x = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "seed")
    checkouts = set()

    def timed(checkout, workload, seed, seconds, trace):
        checkouts.add(checkout)
        return _metrics(0.5, -3.0)
    monkeypatch.setattr(bench, "ROOT", str(repo))
    monkeypatch.setattr(bench, "run_once", timed)
    assert bench.main(["--slug", "one", "--against", "HEAD", "--seconds", "1"]) == 0
    # this checkout and the extracted baseline were both timed
    assert len(checkouts) == 2 and str(repo) in checkouts
    first = {name: (repo / name).read_text()
             for name in ("BENCH_one.json", "BENCH_one_baseline.json")}
    docs = {name: json.loads(text) for name, text in first.items()}
    assert docs["BENCH_one.json"]["paired_with"] == ["one_baseline"]
    assert docs["BENCH_one_baseline.json"]["paired_with"] == ["one"]
    assert not (repo / "BENCH_baseline.json").exists()
    # a second recording writes its own pair and leaves the first as it was
    assert bench.main(["--slug", "two", "--against", "HEAD", "--seconds", "1"]) == 0
    assert json.loads((repo / "BENCH_two.json").read_text())["paired_with"] == ["two_baseline"]
    assert (repo / "BENCH_two_baseline.json").exists()
    assert {name: (repo / name).read_text() for name in first} == first
