"""Print a sha256 of the firing map's orbits on every benchmark system.

    python3 tools/orbit_digest.py

For every system of every workload in ``perfbench/specs.py`` (read, never
changed), the digest covers ``iterate`` from t0 = 0.1, 0.37 and 5e4 + 0.3
(20,000 spikes each; ``Sampled`` drives run 500) and one
``firing_times`` call on the 2,049-point grid j/2048 of [0, 1].  It prints
one line per system: name, value count, the first 16 hex digits of the
sha256 of its three orbits and of its batched grid, the largest gap between
that grid and per-point ``firing_time`` on it, and the scalar kernel
evaluations per spike of its three orbits.  A last line holds the value
count and the sha256 of every value's bytes, in order (orbits, then grid,
per system).  Two revisions whose last lines agree return the same floats,
bit for bit, on all of these inputs; where only the grid hashes differ, the
scalar orbits are unchanged.  The evaluation counts stay out of every hash.

Before that last line, and outside its hash, come the grid analyses of the
``isi-density`` workload: for each ``isi_density_pi`` drive a line with the
first 16 hex digits of the sha256 of its y grid, density and singular flags
and the number of roots of its level-set search, and for each
``displacement_range`` system one with the hash of (lo, hi) and the values.
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


def count_kernel_calls(system) -> list[int]:
    """Wrap the scalar kernel of the system's drive with a call counter."""
    sig, sigma = system.signal, system.sigma
    kern, calls = sig.kernel(sigma), [0]

    def counted(x):
        calls[0] += 1
        return kern(x)

    sig._kernels[sigma] = counted
    return calls


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
            calls = count_kernel_calls(system)
            orbits = [fm.firing.iterate(system, t0, spikes).times for t0 in STARTS]
            per_spike = calls[0] / (len(STARTS) * spikes)
            grid = fm.firing.firing_times(system, GRID)
            gap = max(abs(p - fm.firing.firing_time(system, t))
                      for t, p in zip(GRID.tolist(), grid.tolist()))
            hashes = []
            for arrays in (orbits, [grid]):
                own = hashlib.sha256()
                for a in arrays:
                    data = np.ascontiguousarray(a, dtype=np.float64).tobytes()
                    own.update(data)
                    total.update(data)
                hashes.append(own.hexdigest()[:16])
            values = sum(a.size for a in orbits) + grid.size
            count += values
            print(f"{workload}/{name} {values} orbits {hashes[0]} grid {hashes[1]} "
                  f"gap {gap:.1e} {per_spike:.3f} evals/spike", file=out)
    return count, total.hexdigest()


def _hash(*arrays) -> str:
    own = hashlib.sha256()
    for a in arrays:
        own.update(np.ascontiguousarray(a).tobytes())
    return own.hexdigest()[:16]


def analyses(out=None) -> None:
    """Write the density and displacement-range lines to ``out`` (default stdout)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import firingmap as fm

    specs = load_specs()
    systems = specs.build_systems(fm, "isi-density")
    roots, search = [], fm.isi._psi_roots

    def counted(*args):
        j, t = search(*args)
        roots.append(t.size)
        return j, t

    fm.isi._psi_roots = counted
    try:
        for name in ("golden_pi", "two_harmonic_pi"):
            curve = fm.isi.isi_density_pi(systems[name].signal)
            print(f"density/{name} {_hash(curve.y, curve.density, curve.singular)} "
                  f"roots {roots[-1]}", file=out)
    finally:
        fm.isi._psi_roots = search
    for beta in specs.RANGE_BETAS:
        lo, hi = fm.isi.displacement_range(systems[f"beta={beta!r}"])
        print(f"range/beta={beta!r} {_hash(np.array([lo, hi]))} {lo!r} {hi!r}", file=out)


def main():
    count, sha = digest(20_000)
    analyses()
    print(f"values {count} sha256 {sha}")


if __name__ == "__main__":
    main()
