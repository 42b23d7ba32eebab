"""The scripts of ``tools/``: the benchmark recorder, with its runs and git calls
stubbed, and the orbit digest at a small n."""

import importlib.util
import io
import json
import os
import shutil
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_keeps_the_runs_before_a_failed_one(monkeypatch, tmp_path):
    br = _load_bench_record()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    monkeypatch.setattr(br, "ROOT", str(tmp_path))
    monkeypatch.setattr(br, "git", lambda *args: "")
    monkeypatch.setattr(br.subprocess, "run", lambda *args, **kw: SimpleNamespace(stdout=b""))
    calls = []

    def fake_run(tree, workload, seed, seconds, trace):
        calls.append((workload, seed))
        if len(calls) == 3:
            raise br.RunFailed(3)
        return {"metrics": {name: {"value": float(len(calls))} for name in names}}

    monkeypatch.setattr(br, "run", fake_run)
    with pytest.raises(SystemExit) as exit_info:
        br.main(["--pr", "7", "--parent", "HEAD", "orbits:1-2"])
    assert exit_info.value.code  # a message: exit status 1
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    # seed 1 ran parent then change; seed 2 starts with the change side, which fails
    assert [(r["seed"], r["side"]) for r in record["runs"]] == [(1, "parent"), (1, "change")]
    assert record["failed"] == {"workload": "orbits", "seed": 2, "side": "change",
                                "trace": 0, "exit_code": 3}
    assert record["summary"]["orbits"]["change_won"]["wall_s"] == {"won": 0, "pairs": 1}


def _load_orbit_digest():
    spec = importlib.util.spec_from_file_location(
        "orbit_digest", os.path.join(ROOT, "tools", "orbit_digest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_orbit_digest_covers_every_benchmark_system():
    od = _load_orbit_digest()
    specs = od.load_specs()
    buf = io.StringIO()
    count, sha = od.digest(40, out=buf)
    lines = buf.getvalue().splitlines()
    names = [f"{w}/{name}" for w in specs.WORKLOADS for name in specs.workload_systems(w)]
    assert [line.split()[0] for line in lines] == names
    # three orbits of 40 spikes (1 for the sampled drive) and 2,049 lanes per system
    sampled = sum(name.startswith("orbits/sampled") for name in names)
    assert count == len(names) * (3 * 40 + 2049) - sampled * 3 * 39
    assert sum(int(line.split()[1]) for line in lines) == count
    assert len(sha) == 64 and all(len(line.split()[2]) == 16 for line in lines)
