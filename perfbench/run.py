"""The firingmap benchmark.

    python3 perfbench/run.py --workload {orbits,locking,isi-density} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one thread.  The set-up time is the median of
``SETUP_PROBES`` fresh interpreters (``setup_probe.py``); then whole passes
over the workload's requests repeat while the next one should end within
``--seconds`` of the first one's start, and each end-to-end metric is the median over the passes.  The outputs of the
first pass are checked (``checks.py``), and every later pass must return
the same outputs.  With ``--trace 1``, after one untraced pass, traced
(``tracer.py``) and untraced passes alternate; the per-layer metrics and the
tracing overhead are reported instead, and the spans go to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import enum  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import fields, is_dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7
sys.path[:0] = [HERE, SRC]

import numpy as np  # noqa: E402

import specs  # noqa: E402


def setup_seconds(workload):
    """Median set-up time over fresh interpreters."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run([sys.executable, probe, workload], capture_output=True,
                             text=True, timeout=120, cwd=ROOT)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            raise SystemExit(f"set-up probe failed with exit code {res.returncode}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def digest(obj, h):
    """Feed every number and array of an output into a hash."""
    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode() + obj.tobytes())
    elif is_dataclass(obj):
        for f in fields(obj):
            digest(getattr(obj, f.name), h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for x in obj:
            digest(x, h)
        h.update(b"]")
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(repr(k).encode())
            digest(obj[k], h)
    elif hasattr(obj, "__dict__") and not isinstance(obj, enum.Enum):
        digest(vars(obj), h)
    else:
        h.update(repr(obj).encode())


def run_pass(workload, tracer=None, keep=False):
    """One pass over the requests: per-class seconds, digests, and kept outputs."""
    gc.collect()
    results, digests, failed = {}, {}, 0
    secs = {"wall": 0.0, "orbit": 0.0, "analysis": 0.0, "cli": 0.0}
    spikes = 0
    for rid, req in enumerate(workload.requests):
        rec = None
        if tracer is not None:
            tracer.request = rid
            rec = tracer.open("bench.request", req.label)
        start = time.perf_counter()
        try:
            result = req.call(results)
        except Exception:  # a failed request is counted, and the pass goes on
            result = None
            failed += 1
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        if rec is not None:
            tracer.close(rec)
        secs["wall"] += elapsed
        secs[req.klass] += elapsed
        if req.klass == "orbit":
            spikes += req.spikes
        if result is not None and req.collect is not None:
            result = req.collect(result)
        results[req.label] = result
        h = hashlib.sha256()
        digest(result, h)
        digests[req.label] = h.hexdigest()
    return {
        "wall_s": secs["wall"],
        "spikes_per_s": spikes / secs["orbit"],
        "analysis_s": secs["analysis"],
        "cli_s": secs["cli"],
        "failed": failed,
        "digests": digests,
        "outputs": results if keep else None,
    }


def more_passes(start, seconds, durations):
    """Whether one more pass, as long as the median one so far, ends within ``seconds``."""
    if not durations:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def measure(workload, seconds):
    """Whole passes while the next one should end within ``seconds`` of the first's start."""
    start = time.perf_counter()
    passes, durations = [], []
    while more_passes(start, seconds, durations):
        began = time.perf_counter()
        passes.append(run_pass(workload, keep=not passes))
        durations.append(time.perf_counter() - began)
    return passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_s = None if args.trace else setup_seconds(args.workload)
    import firingmap as fm
    import firingmap.cli  # noqa: F401

    if not os.path.abspath(fm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"firingmap imported from {fm.__file__}, not from {SRC}")
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=OUT)
    try:
        build = workloads.FACTORIES[args.workload]
        workload = build(fm, specs.build_systems(fm, args.workload), args.seed, tmpdir)
        if args.trace:
            from tracer import Tracer

            # untraced and traced passes alternate, so both see the same machine
            start = time.perf_counter()
            passes = [run_pass(workload, keep=True)]
            tracer = Tracer()
            with tracer.installed(fm):
                traced_workload = build(fm, specs.build_systems(fm, args.workload),
                                        args.seed, tmpdir)
            tracer.start_passes()
            traced, durations = [], []
            while more_passes(start, args.seconds, durations):
                began = time.perf_counter()
                with tracer.installed(fm):
                    traced.append(run_pass(traced_workload, tracer))
                passes.append(run_pass(workload))
                durations.append(time.perf_counter() - began)
            all_passes = passes + traced
        else:
            all_passes = passes = measure(workload, args.seconds)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        first = all_passes[0]
        fails = []
        try:
            fails += workload.check(first["outputs"])
        except Exception:
            if first["failed"] == 0:
                raise
            traceback.print_exc(file=sys.stderr)  # checks need the failed outputs
        for i, p in enumerate(all_passes[1:], start=2):
            changed = [k for k, v in p["digests"].items() if first["digests"][k] != v]
            if changed:
                fails.append(f"pass {i} returned other outputs than pass 1 for {changed}")
        for msg in fails:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)

        def median(key, ps=passes):
            return statistics.median(p[key] for p in ps)

        if args.trace:
            metrics = tracer.per_layer(len(traced))
            untraced_wall = median("wall_s")
            overhead = median("wall_s", traced) - untraced_wall
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_ratio"] = (overhead / untraced_wall, "ratio")
            spans_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.csv")
            tracer.write(spans_path)
            print(f"spans: {len(tracer.spans)} written to {spans_path}")
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (median("wall_s"), "s"),
                "spikes_per_s": (median("spikes_per_s"), "spikes/s"),
                "analysis_s": (median("analysis_s"), "s"),
                "cli_s": (median("cli_s"), "s"),
                "peak_rss_mib": (peak_rss_mib, "MiB"),
            }
        for kind, ps in (("pass", passes), ("traced pass", traced if args.trace else [])):
            for i, p in enumerate(ps, start=1):
                print(f"{kind} {i}: wall {p['wall_s']:.4f} s, analysis {p['analysis_s']:.4f} s, "
                      f"cli {p['cli_s']:.4f} s, {p['spikes_per_s']:.1f} spikes/s")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    per_pass = len(workload.requests)
    print(json.dumps({
        "correct": not fails,
        "attempted": per_pass * len(all_passes),
        "failed": sum(p["failed"] for p in all_passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
