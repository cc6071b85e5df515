#!/usr/bin/env python3
"""Record parent/change benchmark pairs into ``BENCH_<pr>.json``.

Run from the repository root, with the parent commit checked out elsewhere:

    python3 bench/record.py --parent ../nsac-parent --change . --pr 6 \\
        --plan decay64=1,2,3,4,5,6,7,8,9,7919 --plan dense32=1,2,3,4,5,6 \\
        --plan oracle-sweep=1,2,3,4,5,6,7,8,9,7919

Each seed of a plan is one pair: ``perfbench/run.py --trace 0`` runs once in
each checkout with the same seed, and the side that runs first alternates
from pair to pair. Every run's result line is kept. Per workload and
end-to-end metric the file holds each side's median and quartiles, the number
of pairs the change won (ties count for neither side) and whether a gain is
resolved: the change wins at least nine pairs in ten and its median beats the
parent's by more than the parent's interquartile range. After each run the
files the workload wrote for that seed under ``perfbench/_work/`` are hashed,
and each pair records whether both sides wrote the same bytes
(``outputs_identical``). decay64 writes no files, so after each of its runs
one more process in that checkout runs ``bench_workloads.Decay64`` through
``setup()`` and one ``unit()`` and prints the unit's fingerprint, a sha256 of
the final state; that side's outputs are ``{"fingerprint": ...}``. This
costs about one decay64 unit per side and pair. Once a
change moves a value by an ulp the bytes differ, so for a workload that writes
decay fits each pair also records the largest relative difference in any
fit's exponent, prefactor or r2 (``fits_max_rel_diff``). The
wall-clock metrics perfbench prints beside its result (``wall_s``,
``op_ms.p50``, ...) are kept per run under ``recorded`` and summarised by
side, with no gate. The run length, the metrics and their directions come from
``BENCHMARK.json`` in the change checkout. The file is written into the
change checkout after every pair, so an interrupted recording keeps the pairs
it finished. Each side's ``revisions`` entry names its ``HEAD``, whether the
tree differs from it, and a hash of the difference, since the change side
usually runs from an uncommitted tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
#: Files a workload writes per seed, by suffix. dense32's -summary.json embeds
#: checkout paths, so it is left out; decay64 writes no files (see `unit_fingerprint`).
OUTPUT_SUFFIXES = {"dense32": (".csv", ".nsac"), "oracle-sweep": (".csv", ".json")}
#: The fields of each fit in a fits JSON (``{"fits": [...]}``) that pairs compare.
FIT_KEYS = ("exponent", "prefactor", "r2")


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values) -> dict:
    return {"q1": percentile(values, 25), "median": percentile(values, 50), "q3": percentile(values, 75)}


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric comparison of the paired runs of one workload.

    ``runs`` holds one entry per side and pair, ``{"pair", "side", "correct",
    "attempted", "failed", "metrics": {name: value}, "outputs": {file: sha256}
    or None, "fits": [[exponent, prefactor, r2], ...] or None}``; ``better``
    maps each metric to ``"lower"`` or ``"higher"``. A pair missing either side
    is left out.
    """
    by_pair: dict[int, dict] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [p for _, p in sorted(by_pair.items()) if all(side in p for side in SIDES)]
    out = {
        "pairs": len(pairs),
        "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
        "attempted": {side: [p[side]["attempted"] for p in pairs] for side in SIDES},
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "outputs_identical": [outputs_identical(p) for p in pairs],
        "fits_max_rel_diff": [fits_max_rel_diff(p) for p in pairs],
        "metrics": {},
    }
    out["identical_pairs"] = out["outputs_identical"].count(True)
    if not pairs:
        return out
    recorded = set.intersection(*(set(p[side].get("recorded", ())) for p in pairs for side in SIDES))
    out["recorded"] = {
        name: {side: spread([p[side]["recorded"][name] for p in pairs]) for side in SIDES}
        for name in sorted(recorded)
    }
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        parent, change = (spread(values[side]) for side in SIDES)
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        gain = sign * (parent["median"] - change["median"])
        out["metrics"][name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "gain_resolved": 10 * wins >= 9 * len(pairs) and gain > parent["q3"] - parent["q1"],
        }
    return out


def outputs_identical(pair: dict) -> bool | None:
    """Whether both sides wrote the same files; None when either hashed none."""
    parent, change = (pair[side].get("outputs") for side in SIDES)
    return None if parent is None or change is None else parent == change


def fits_max_rel_diff(pair: dict) -> float | None:
    """Largest relative change of any fit's ``FIT_KEYS`` from parent to change.

    None when either side wrote no fits; infinite when the sides wrote
    different numbers of fits.
    """
    parent, change = (pair[side].get("fits") for side in SIDES)
    if parent is None or change is None:
        return None
    if len(parent) != len(change):
        return math.inf
    diffs = [
        abs(c - p) / abs(p) if p else (0.0 if c == 0 else math.inf)
        for p_fit, c_fit in zip(parent, change)
        for p, c in zip(p_fit, c_fit)
    ]
    return max(diffs, default=0.0)


def read_fits(paths) -> list[list[float]] | None:
    """``FIT_KEYS`` of each fit in the fits JSON among ``paths``; None when there is none."""
    for path in paths or ():
        if path.suffix == ".json" and path.exists():
            return [[fit[key] for key in FIT_KEYS] for fit in json.loads(path.read_text())["fits"]]
    return None


def output_paths(checkout: Path, workload: str, seed: int) -> list[Path] | None:
    """Files ``workload`` writes for ``seed``; None for a workload that writes none."""
    if workload not in OUTPUT_SUFFIXES:
        return None
    return [checkout / "perfbench" / "_work" / f"{workload}-seed{seed}{sfx}" for sfx in OUTPUT_SUFFIXES[workload]]


def parse_output(stdout: str, workload: str) -> dict:
    """One perfbench run's result line, machine line and printed wall-clock metrics."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    machine = next((json.loads(line[8:]) for line in lines if line.startswith("machine ")), None)
    # the printed table: "<workload> <metric> <value> <unit>" per line
    rows = [line.split() for line in lines]
    recorded = {
        row[1]: float(row[2])
        for row in rows
        if len(row) == 4 and row[0] == workload and row[1] not in metrics and row[1] != "fail_ratio"
    }
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "recorded": recorded,
        "machine": machine,
    }


#: Runs decay64's set-up and one unit in a checkout and prints the unit's fingerprint.
FINGERPRINT_SCRIPT = """
import sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import bench_workloads
workload = bench_workloads.Decay64(int(sys.argv[1]), Path("perfbench", "_work"))
workload.setup()
print(workload.unit().fingerprint)
"""


def unit_fingerprint(checkout: Path, seed: int) -> dict:
    """``{"fingerprint": ...}`` of one decay64 unit for ``seed``, run in ``checkout``."""
    cmd = [sys.executable, "-c", FINGERPRINT_SCRIPT, str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return {"fingerprint": proc.stdout.strip().splitlines()[-1]}


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    paths = output_paths(checkout, workload, seed)
    for path in paths or ():
        path.unlink(missing_ok=True)  # hash only what this run writes
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    if workload == "decay64":
        outputs = unit_fingerprint(checkout, seed)
    else:
        outputs = None if paths is None else {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None for p in paths
        }
    return {**parse_output(proc.stdout, workload), "outputs": outputs, "fits": read_fits(paths)}


def revision(checkout: Path) -> dict:
    """``HEAD`` of ``checkout``, whether its tree differs from it, and a hash of the difference.

    A change is usually recorded from an uncommitted tree, whose ``HEAD`` is
    the parent commit. ``diff_sha256`` hashes ``git diff HEAD`` and every
    untracked, unignored file with its name; it is null for a clean tree.
    """
    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True).stdout

    head = git("rev-parse", "HEAD").decode().strip() or None
    if head is None:
        return {"head": None, "dirty": None, "diff_sha256": None}
    diff = git("diff", "HEAD", "--binary")
    untracked = [name for name in git("ls-files", "--others", "--exclude-standard", "-z").split(b"\0") if name]
    digest = hashlib.sha256(diff)
    for name in untracked:
        digest.update(name + b"\0" + (checkout / name.decode()).read_bytes())
    dirty = bool(diff or untracked)
    return {"head": head, "dirty": dirty, "diff_sha256": digest.hexdigest() if dirty else None}


def parse_plan(text: str) -> tuple[str, list[int]]:
    workload, _, seeds = text.partition("=")
    if not workload or not seeds:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEED,SEED,..., got {text!r}")
    return workload, [int(s) for s in seeds.split(",") if s.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pr", required=True, help="label of the output file, BENCH_<pr>.json")
    parser.add_argument("--plan", type=parse_plan, action="append", required=True,
                        help="WORKLOAD=SEED,SEED,...: one pair per seed")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = float(spec["run_seconds"])
    out_path = args.change / f"BENCH_{args.pr}.json"
    checkouts = {"parent": args.parent, "change": args.change}
    record = {
        "pr": args.pr,
        "command": spec["command"] + ["--trace", "0", "--seconds", repr(seconds)],
        "revisions": {side: revision(path) for side, path in checkouts.items()},
        "workloads": {},
    }
    for workload, seeds in args.plan:
        runs: list[dict] = []
        machine = None
        for pair, seed in enumerate(seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                print(f"{workload} pair {pair} seed {seed}: {side}", file=sys.stderr, flush=True)
                result = run_side(checkouts[side], workload, seed, seconds)
                found = result.pop("machine")
                machine = machine or found
                runs.append({"pair": pair, "seed": seed, "side": side, "first": position == 0, **result})
            summary = summarise(runs, better)
            record["workloads"][workload] = {"summary": summary, "machine": machine, "runs": runs}
            out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
