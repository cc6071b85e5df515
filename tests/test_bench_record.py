"""The pair summary of ``bench/record.py``, on canned benchmark results."""

import importlib.util
import json
import math
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("record", Path(__file__).parents[1] / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def canned(pairs):
    """Runs for ``[(parent cpu_s, change cpu_s), ...]``, with ops/s the inverse."""
    runs = []
    for pair, values in enumerate(pairs):
        for side, cpu in zip(record.SIDES, values):
            metrics = {"cpu_s": cpu, "ops_per_cpu_s": 1.0 / cpu}
            runs.append({"pair": pair, "side": side, "correct": True, "attempted": 54, "failed": 0,
                         "metrics": metrics})
    return runs


BETTER = {"cpu_s": "lower", "ops_per_cpu_s": "higher"}


def test_medians_quartiles_and_wins():
    # ten pairs, the change faster in nine and tied in one
    pairs = [(12.0 + 0.1 * i, 8.0 + 0.1 * i) for i in range(9)] + [(9.0, 9.0)]
    out = record.summarise(canned(pairs), BETTER)
    cpu = out["metrics"]["cpu_s"]
    assert out["pairs"] == 10 and out["all_correct"] and out["failed"] == {"parent": 0, "change": 0}
    assert cpu["parent"]["median"] == pytest.approx(12.35)
    assert cpu["parent"]["q1"] == pytest.approx(12.125)
    assert cpu["parent"]["q3"] == pytest.approx(12.575)
    assert cpu["change"]["median"] == pytest.approx(8.45)
    assert cpu["change_wins"] == 9
    assert cpu["gain_resolved"]
    # a higher-is-better metric counts wins the other way round
    assert out["metrics"]["ops_per_cpu_s"]["change_wins"] == 9
    assert out["metrics"]["ops_per_cpu_s"]["gain_resolved"]


def test_gain_within_parent_spread_is_not_resolved():
    pairs = [(10.0 + i, 9.9 + i) for i in range(10)]
    cpu = record.summarise(canned(pairs), BETTER)["metrics"]["cpu_s"]
    assert cpu["change_wins"] == 10
    assert not cpu["gain_resolved"]  # the 0.1 gain is inside the parent's 4.5 IQR


def test_eight_wins_in_ten_is_not_resolved():
    pairs = [(12.0, 8.0)] * 8 + [(8.0, 12.0)] * 2
    assert not record.summarise(canned(pairs), BETTER)["metrics"]["cpu_s"]["gain_resolved"]


def test_unfinished_pair_is_left_out():
    runs = canned([(12.0, 8.0), (12.0, 8.0)])[:-1]
    out = record.summarise(runs, BETTER)
    assert out["pairs"] == 1
    assert out["attempted"] == {"parent": [54], "change": [54]}


def test_plan_parsing():
    assert record.parse_plan("decay64=1,2,7919") == ("decay64", [1, 2, 7919])
    with pytest.raises(Exception):
        record.parse_plan("decay64")


FILES = {"dense32-seed1.csv": "a1", "dense32-seed1.nsac": "b2"}


@pytest.mark.parametrize(
    "parent, change, identical",
    [(FILES, dict(FILES), True), (FILES, {**FILES, "dense32-seed1.nsac": "c3"}, False), (None, None, None)],
    ids=["identical", "differing", "no_files"],
)
def test_outputs_identical(parent, change, identical):
    runs = canned([(12.0, 8.0), (12.0, 8.0)])
    for run in runs:
        run["outputs"] = parent if run["side"] == "parent" else change
    out = record.summarise(runs, BETTER)
    assert out["outputs_identical"] == [identical, identical]
    assert out["identical_pairs"] == (2 if identical else 0)


def test_fits_max_rel_diff_on_canned_fits_files(tmp_path):
    def write(name, fits):
        path = tmp_path / name
        path.write_text(json.dumps({"fits": [dict(component="phi", l=0, **f) for f in fits]}))
        return path

    fit = {"exponent": -2.0, "prefactor": 4.0, "r2": 0.999}
    parent = write("parent.json", [fit, fit])
    change = write("change.json", [fit, {**fit, "prefactor": 4.0 * (1 + 3e-15)}])
    shorter = write("shorter.json", [fit])
    csv = tmp_path / "sweep.csv"
    csv.write_text("component,kind,l,s,t,value\n")
    assert record.read_fits([csv, parent]) == [[-2.0, 4.0, 0.999]] * 2
    assert record.read_fits([csv]) is None and record.read_fits(None) is None

    runs = canned([(12.0, 8.0)] * 4)
    sides = [(parent, change), (parent, parent), (parent, shorter), (None, None)]
    for run in runs:
        files = sides[run["pair"]][record.SIDES.index(run["side"])]
        run["fits"] = None if files is None else record.read_fits([files])
    diffs = record.summarise(runs, BETTER)["fits_max_rel_diff"]
    assert diffs[0] == pytest.approx(3e-15, rel=1e-3)
    assert diffs[1:] == [0.0, math.inf, None]


def test_output_paths():
    names = [p.name for p in record.output_paths(Path("checkout"), "dense32", 3)]
    assert names == ["dense32-seed3.csv", "dense32-seed3.nsac"]  # not the path-bearing summary
    assert [p.name for p in record.output_paths(Path("c"), "oracle-sweep", 1)] == [
        "oracle-sweep-seed1.csv", "oracle-sweep-seed1.json"]
    assert record.output_paths(Path("checkout"), "decay64", 7919) is None


def test_printed_wall_clock_metrics_are_recorded():
    stdout = "\n".join([
        'machine {"nproc": 2}',
        "      decay64 cpu_s                                     5.6 s",
        "      decay64 wall_s                                    4.9 s",
        "      decay64 op_ms.p50                               180.5 ms",
        "      decay64 fail_ratio                                  0 ratio",
        '{"correct": true, "attempted": 54, "failed": 0, "metrics": {"cpu_s": {"value": 5.6, "unit": "s"}}}',
    ])
    out = record.parse_output(stdout, "decay64")
    assert out["metrics"] == {"cpu_s": 5.6}
    assert out["recorded"] == {"wall_s": 4.9, "op_ms.p50": 180.5}
    assert out["machine"] == {"nproc": 2}
    runs = canned([(12.0, 8.0), (11.0, 7.0)])
    for run in runs:
        run["recorded"] = {"wall_s": run["metrics"]["cpu_s"] / 2}
    wall = record.summarise(runs, BETTER)["recorded"]["wall_s"]
    assert wall["parent"]["median"] == pytest.approx(5.75) and wall["change"]["median"] == pytest.approx(3.75)


def test_revision_records_a_dirty_tree_and_a_hash_of_its_difference(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))  # no enclosing repository

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path,
                       check=True, capture_output=True)

    assert record.revision(tmp_path) == {"head": None, "dirty": None, "diff_sha256": None}
    git("init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    git("add", "a.py")
    git("commit", "-q", "-m", "one")
    clean = record.revision(tmp_path)
    assert len(clean["head"]) == 40 and clean["dirty"] is False and clean["diff_sha256"] is None

    (tmp_path / "a.py").write_text("x = 2\n")
    edited = record.revision(tmp_path)
    assert edited["head"] == clean["head"] and edited["dirty"] and len(edited["diff_sha256"]) == 64
    (tmp_path / "a.py").write_text("x = 3\n")
    assert record.revision(tmp_path)["diff_sha256"] != edited["diff_sha256"]

    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "new.py").write_text("y = 1\n")  # an untracked file counts
    untracked = record.revision(tmp_path)
    assert untracked["dirty"] and untracked["diff_sha256"] not in (None, edited["diff_sha256"])
    (tmp_path / ".gitignore").write_text("new.py\n.gitignore\n")
    assert record.revision(tmp_path) == clean  # ignored files do not


def test_decay64_outputs_are_the_unit_fingerprint(monkeypatch):
    result = '{"correct": true, "attempted": 82, "failed": 0, "metrics": {"cpu_s": {"value": 5.6, "unit": "s"}}}'
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append((cmd, cwd))
        stdout = "abc123\n" if cmd[1] == "-c" else result + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(record.subprocess, "run", fake_run)
    out = record.run_side(Path("checkout"), "decay64", 7919, 10.0)
    assert out["outputs"] == {"fingerprint": "abc123"} and out["fits"] is None
    (bench, bench_cwd), (probe, probe_cwd) = calls
    assert bench[1] == "perfbench/run.py" and bench_cwd == probe_cwd == Path("checkout")
    assert probe[2] == record.FINGERPRINT_SCRIPT and probe[3] == "7919"
    # the summary compares the fingerprints like any other outputs
    runs = canned([(12.0, 8.0), (12.0, 8.0)])
    for run, fingerprint in zip(runs, ["abc123", "abc123", "abc123", "def456"]):
        run["outputs"] = {"fingerprint": fingerprint}
    assert record.summarise(runs, BETTER)["outputs_identical"] == [True, False]
