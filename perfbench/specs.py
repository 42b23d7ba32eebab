"""The drives and systems of the benchmark workloads, as plain data.

A drive is a tuple:

* ``("trig", a0, ((k, c, s), ...))`` -- a0 + sum c cos 2 pi k t + s sin 2 pi k t
* ``("pwc", ((b, v), ...))`` -- value v on [b, next b), period 1
* ``("sampled", path)`` -- one value per line, linear interpolation

The program receives each drive as a signal grammar string (:func:`spec`);
the independent checks in ``oracle.py`` read the tuples themselves.  This
module imports neither numpy nor firingmap, so the set-up probe can time
those imports.
"""

from __future__ import annotations

import math
import os

GOLDEN_A0 = (3.0 + math.sqrt(5.0)) / 2.0
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLED_CSV = os.path.join(ROOT, "perfbench", "data", "sampled_lif_48.csv")


def trig(a0, *harmonics):
    return ("trig", float(a0), tuple((int(k), float(c), float(s)) for k, c, s in harmonics))


def cosine_lif_drive(beta):
    """f = 2(1 + beta cos 2 pi t), the test suite's ``cosine_lif`` drive."""
    return trig(2.0, (1, 2.0 * beta, 0.0))


def spec(drive) -> str:
    """Signal grammar string of a drive; floats keep every digit."""
    kind = drive[0]
    if kind == "trig":
        parts = [f"trig:{drive[1]!r}"] + [f"{k},{c!r},{s!r}" for k, c, s in drive[2]]
        return ";".join(parts)
    if kind == "pwc":
        return "pwc:" + ";".join(f"{b!r},{v!r}" for b, v in drive[1])
    if kind == "sampled":
        return f"sampled:{drive[1]}"
    raise ValueError(f"unknown drive kind {kind!r}")


# -- orbits: one system per code path of the firing map ----------------------

ORBIT_FAMILIES = {
    # name: (sigma, drive, spikes per orbit); spike counts give each family
    # about one second of iterate on a 2-core x86 machine today
    "trig_lif": (1.0, trig(2.0, (1, 0.5, 0.0)), 100_000),
    "trig_pi": (0.0, trig(GOLDEN_A0, (1, 0.5, 0.0)), 130_000),
    "trig_nonneg_pi": (0.0, trig(GOLDEN_A0, (1, GOLDEN_A0, 0.0)), 10_000),
    "step_lif": (1.0, ("pwc", ((0.0, 3.0), (0.3, 1.5), (0.7, 2.2))), 120_000),
    "step_pi": (0.0, ("pwc", ((0.0, 2.6), (0.4, 0.5))), 18_000),
    "sampled_lif": (1.0, ("sampled", SAMPLED_CSV), 120),
}
# two `firingmap simulate` runs per pass, after the second and the fourth family
SIMULATE = (1.0, trig(2.0, (1, 0.5, 0.0)), 30_000)
SIMULATE_AFTER = (1, 3)

# -- locking -----------------------------------------------------------------

STAIRCASE_AMP = 0.86
# a0 grid across [1.9, 2.3], kept away from tongue edges (located with the
# oracle's Phi^q): three points inside the 3/4, 7/10 and 2/3 tongues, which
# span [1.9057, 1.9264], [1.99954, 2.00109] and [2.0516, 2.0825], and five
# points where |Phi^q - Id - p| > 1e-3 for every p/q, q <= 64, within 0.004
# of the rotation number
STAIRCASE_GRID = (1.916, 1.96, 2.0003, 2.03, 2.066, 2.12, 2.18, 2.25)
STAIRCASE_N = 10_000


def staircase_drive(a0):
    return trig(a0, (1, STAIRCASE_AMP, 0.0))


LOCKED_BETA = 0.43  # inside the 7/10 tongue of cosine_lif, beta in [0.412, 0.444]
QUASI_BETA = 0.25
LOCKING_RHO_TOL = 1e-5
ROTATION_N = 100_000

# -- isi-density -------------------------------------------------------------

GOLDEN_PI = (0.0, trig(GOLDEN_A0, (1, 0.5, 0.0)))
TWO_HARMONIC_PI = (0.0, trig(GOLDEN_A0, (1, 0.35, 0.0), (2, 0.0, 0.2)))
GOLDEN_ORBIT_N = 200_000
RANGE_BETAS = (0.1, 0.25, 0.45)
RANGE_ORBIT_N = 2_000
PERTURBATIONS = (
    trig(2.0, (1, 0.52, 0.0)),
    trig(2.0, (1, 0.5, 0.0), (2, 0.0, 0.03)),
)
HARNESS_GRID, HARNESS_ORBIT = 256, 20_000  # perturbation_harness defaults
QUASI_SEQ_N = 12_000
QUASI_EPS = 1e-3  # every value recurs at this eps: the O(n^2) recurrence scan runs
LOCKED_WARMUP, LOCKED_SEQ_N, LOCKED_EPS = 1_000, 3_000, 1e-8
REGULARITY_Q, REGULARITY_BURN_IN = 10, 1_000  # burn-in: classify_regularity's default
DENSITY_CLI = trig(2.61803398875, (1, 0.5, 0.0))  # the README's density example
COMPARE_CLI = (trig(2.0, (1, 0.5, 0.0)), trig(2.0, (1, 0.54, 0.0)), 20_000)


def workload_systems(workload: str) -> dict:
    """Every (sigma, drive) the workload's library requests use, by name.

    CLI requests parse and validate their own systems inside the request.
    """
    if workload == "orbits":
        return {name: (sigma, drive) for name, (sigma, drive, _) in ORBIT_FAMILIES.items()}
    if workload == "locking":
        out = {f"a0={a0!r}": (1.0, staircase_drive(a0)) for a0 in STAIRCASE_GRID}
        out["locked"] = (1.0, cosine_lif_drive(LOCKED_BETA))
        out["quasi"] = (1.0, cosine_lif_drive(QUASI_BETA))
        return out
    if workload == "isi-density":
        out = {"golden_pi": GOLDEN_PI, "two_harmonic_pi": TWO_HARMONIC_PI}
        for beta in RANGE_BETAS:
            out[f"beta={beta!r}"] = (1.0, cosine_lif_drive(beta))
        for i, drive in enumerate(PERTURBATIONS):
            out[f"perturbed{i}"] = (1.0, drive)
        out["locked"] = (1.0, cosine_lif_drive(LOCKED_BETA))
        return out
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("orbits", "locking", "isi-density")


def build_systems(fm, workload: str) -> dict:
    """Parse and validate every system of a workload with the program ``fm``."""
    systems = {}
    for name, (sigma, drive) in workload_systems(workload).items():
        system = fm.firing.IFSystem(sigma, fm.signals.parse_signal(spec(drive)))
        system.regime  # validates, and caches the bounds and regime on the system
        systems[name] = system
    return systems
