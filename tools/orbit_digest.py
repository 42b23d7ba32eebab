"""Print a sha256 of the firing map's orbits on every benchmark system.

    python3 tools/orbit_digest.py

For every system of every workload in ``perfbench/specs.py`` (read, never
changed), the digest covers ``iterate`` from t0 = 0.1, 0.37 and 5e4 + 0.3
(20,000 spikes each; ``Sampled`` drives run 500) and one
``firing_times`` call on the 2,049-point grid j/2048 of [0, 1].  It prints
one line per system and a last line with the value count and the sha256
of every value's bytes, in order.  Two revisions whose last lines agree
return the same floats, bit for bit, on all of these inputs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STARTS = (0.1, 0.37, 5e4 + 0.3)
GRID = np.arange(2049) / 2048.0


def load_specs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_specs", os.path.join(ROOT, "perfbench", "specs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(n: int, out=None) -> tuple[int, str]:
    """Write the per-system lines to ``out`` (default stdout); return (value count, sha256 hex)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import firingmap as fm

    specs = load_specs()
    total, count = hashlib.sha256(), 0
    for workload in specs.WORKLOADS:
        for name, system in specs.build_systems(fm, workload).items():
            spikes = n // 40 if isinstance(system.signal, fm.signals.Sampled) else n
            arrays = [fm.firing.iterate(system, t0, spikes).times for t0 in STARTS]
            arrays.append(fm.firing.firing_times(system, GRID))
            own = hashlib.sha256()
            for a in arrays:
                data = np.ascontiguousarray(a, dtype=np.float64).tobytes()
                own.update(data)
                total.update(data)
            values = sum(a.size for a in arrays)
            count += values
            print(f"{workload}/{name} {values} {own.hexdigest()[:16]}", file=out)
    return count, total.hexdigest()


def main():
    count, sha = digest(20_000)
    print(f"values {count} sha256 {sha}")


if __name__ == "__main__":
    main()
