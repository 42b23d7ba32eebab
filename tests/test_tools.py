"""The benchmark recorder of ``tools/``, with its runs and git calls stubbed."""

import importlib.util
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
