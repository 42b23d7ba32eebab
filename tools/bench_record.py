"""Record parent/change benchmark pairs into ``BENCH_<pr>.json``.

    python3 tools/bench_record.py --pr N --parent REV --seconds 35 \
        locking:21-30,77 orbits:21-23 isi-density:21-23

Each argument names a workload and its seeds.  For every seed the script
runs ``perfbench/run.py`` once in a copy of the parent revision (made with
``git archive`` in a temporary directory) and once in this checkout,
alternating which side goes first from seed to seed; then, per workload,
one ``--trace 1`` run per side at the first seed.  Runs are sequential, in
one process each.  The output file at the repository root holds the
checkout's and the parent's git sha, the Python and numpy versions,
``nproc``, every run's last-line JSON, and per side and workload the
median, first and third quartile of every metric, plus for each end-to-end
metric of ``BENCHMARK.json`` the number of pairs the change won (ties count
for neither side).  When a run fails, the file is written all the same,
with the runs made before it and a ``failed`` entry naming its workload,
seed, side, trace flag and exit code; the script then exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def seeds_of(text: str) -> list[int]:
    """'21-23,77' -> [21, 22, 23, 77]."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


class RunFailed(Exception):
    """A run of ``perfbench/run.py`` exited with the non-zero exit ``code``."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        sys.stderr.write(f"{' '.join(cmd)} failed in {tree} with exit code {res.returncode}\n")
        raise RunFailed(res.returncode)
    return json.loads(res.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and side: quartiles of every metric over its untraced runs,
    the traced run's metrics, and the pairs the change won per end-to-end metric."""
    summary: dict = {}
    for r in runs:
        w = summary.setdefault(r["workload"], {"parent": {}, "change": {}, "change_won": {}})
        key = "trace" if r["trace"] else "runs"
        w[r["side"]].setdefault(key, []).append(r["result"]["metrics"])
    for w in summary.values():
        for side in ("parent", "change"):
            plain = w[side].pop("runs", [])
            traced = w[side].pop("trace", [])
            names = sorted({m for metrics in plain for m in metrics})
            w[side] = {
                "metrics": {m: quartiles([x[m]["value"] for x in plain if m in x]) for m in names},
                "per_layer": {m: v["value"] for m, v in (traced[0] if traced else {}).items()},
            }
    pairs: dict = {}
    for r in runs:
        if not r["trace"]:
            pairs.setdefault((r["workload"], r["seed"]), {})[r["side"]] = r["result"]["metrics"]
    for (workload, _), pair in pairs.items():
        if len(pair) < 2:  # cut short by a failed run
            continue
        won = summary[workload]["change_won"]
        for metric in end_to_end:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            won.setdefault(name, {"won": 0, "pairs": 0})
            won[name]["pairs"] += 1
            diff = sign * (pair["change"][name]["value"] - pair["parent"][name]["value"])
            won[name]["won"] += diff > 0.0
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the output file name")
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("plan", nargs="+", metavar="WORKLOAD:SEEDS")
    args = ap.parse_args(argv)
    plan = [(w, seeds_of(s)) for w, _, s in (p.partition(":") for p in args.plan)]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]

    record = {
        "sha": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "parent_sha": git("rev-parse", args.parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "runs": [],
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    at: dict = {}

    def record_run(tree, workload, seed, side, first, trace):
        at.update(workload=workload, seed=seed, side=side, trace=trace)
        result = run(tree, workload, seed, args.seconds, trace)
        record["runs"].append({"workload": workload, "seed": seed, "side": side,
                               "first": first, "trace": trace, "result": result})
        if not trace:
            print(workload, seed, side, json.dumps(result["metrics"]), flush=True)

    try:
        with tempfile.TemporaryDirectory() as parent_tree:
            archive = subprocess.run(["git", "archive", record["parent_sha"]], cwd=ROOT,
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", parent_tree], input=archive, check=True)
            trees = {"parent": parent_tree, "change": ROOT}
            i = 0
            for workload, seeds in plan:
                for seed in seeds:
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    i += 1
                    for side in order:
                        record_run(trees[side], workload, seed, side, order[0], 0)
                for side in ("parent", "change"):
                    record_run(trees[side], workload, seeds[0], side, "parent", 1)
    except RunFailed as err:
        # keep the runs already made: write them, and which run failed, first
        record["failed"] = {**at, "exit_code": err.code}
        write(record, path, end_to_end)
        raise SystemExit(f"run {at} failed with exit code {err.code}; "
                         f"wrote the {len(record['runs'])} runs before it to {path}")
    write(record, path, end_to_end)


def write(record: dict, path: str, end_to_end: list[dict]) -> None:
    record["summary"] = summarise(record["runs"], end_to_end)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
