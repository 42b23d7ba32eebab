"""The three workloads: their requests, and the checks of their outputs.

A request is one call into the program's public API (``firingmap.signals``,
``.firing``, ``.rotation``, ``.isi``) or one ``firingmap.cli.main`` run.
Requests look the function up on its module when they run, so the traced run
sees the same calls through its wrappers.  Each request has a class:

* ``orbit`` -- direct orbit requests (``iterate``, ``rotation_number``); their
  spikes make ``spikes_per_s``;
* ``analysis`` -- every other library request;
* ``cli`` -- ``cli.main`` runs, which write into a temporary directory.

The seed picks only start times and which spikes and grid points are
checked; drive parameters and request sizes are fixed, so a pass costs the
same on every seed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import specs


@dataclass
class Request:
    label: str
    klass: str  # orbit | analysis | cli
    call: Callable[[dict], Any]  # gets the results of earlier requests of the pass
    spikes: int = 0
    collect: Callable[[Any], Any] | None = None  # untimed, turns the result into an output


@dataclass
class Workload:
    requests: list
    check: Callable[[dict], list]  # outputs of one pass -> failure messages


def _cli(fm, label, argv, path, read):
    def collect(code):
        with open(path) as fh:
            return code, read(fh)
    return Request(label, "cli", lambda r: fm.cli.main(argv + ["--out", path]), collect=collect)


def _read_csv(fh):
    rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _t0(rng):
    return float(rng.uniform(0.0, 1.0))


def _picks(rng, n, k=12):
    return np.sort(rng.choice(n, size=k, replace=False))


# -- orbits --------------------------------------------------------------------

def orbits(fm, systems, seed, tmpdir):
    rng = np.random.default_rng(seed)
    families = specs.ORBIT_FAMILIES
    reqs, plan = [], {}
    for name, (sigma, drive, n) in families.items():
        grid = rng.uniform(0.0, 1.0, 16)
        plan[name] = (_t0(rng), _picks(rng, n), np.array_split(grid, len(families)))
    sim_sigma, sim_drive, sim_n = specs.SIMULATE
    sims = {i: (_t0(rng), _picks(rng, sim_n, 8)) for i in specs.SIMULATE_AFTER}
    for i, (name, (sigma, drive, n)) in enumerate(families.items()):
        system, (t0, _, _) = systems[name], plan[name]
        reqs += [
            Request(f"iterate:{name}", "orbit",
                    lambda r, s=system, t0=t0, n=n: fm.firing.iterate(s, t0, n), spikes=n),
            Request(f"isi_sequence:{name}", "analysis",
                    lambda r, k=f"iterate:{name}": fm.isi.isi_sequence(r[k])),
            Request(f"empirical_isi_dist:{name}", "analysis",
                    lambda r, k=f"isi_sequence:{name}": fm.isi.empirical_isi_dist(r[k])),
            Request(f"cluster_values:{name}", "analysis",
                    lambda r, k=f"isi_sequence:{name}": fm.isi.cluster_values(r[k].values, 1e-4)),
        ]
        # part i of every family's check_lift grid follows the i-th orbit, so
        # the analysis time (mostly the sampled drive's) spreads over the pass
        reqs += [Request(f"check_lift:{other}:{i}", "analysis",
                         lambda r, s=systems[other], g=plan[other][2][i]:
                         fm.firing.check_lift(s, g))
                 for other in families]
        if i in sims:
            argv = ["simulate", "--sigma", repr(sim_sigma), "--signal", specs.spec(sim_drive),
                    "--n", str(sim_n), "--t0", repr(sims[i][0])]
            reqs.append(_cli(fm, f"cli:simulate:{i}", argv,
                             os.path.join(tmpdir, f"orbit{i}.csv"), _read_csv))

    def check(out):
        import checks
        fails = []
        for name, (sigma, drive, n) in families.items():
            t0, picks, _ = plan[name]
            times = out[f"iterate:{name}"].times
            fails += checks.orbit(name, drive, sigma, t0, times, picks,
                                  strict=name != "trig_nonneg_pi")
            fails += checks.isi_outputs(name, t0, times, out[f"isi_sequence:{name}"].values,
                                        out[f"empirical_isi_dist:{name}"].samples,
                                        out[f"cluster_values:{name}"], 1e-4)
            fails += checks.lift(name, max(out[f"check_lift:{name}:{i}"]
                                           for i in range(len(families))))
        for i, (sim_t0, sim_picks) in sims.items():
            label = f"cli simulate {i}"
            code, (header, rows) = out[f"cli:simulate:{i}"]
            if code != 0 or header != ["index", "time", "isi"] or len(rows) != sim_n:
                fails.append(f"{label}: exit {code}, header {header}, {len(rows)} rows")
                continue
            if not np.array_equal(rows[:, 0], np.arange(1, sim_n + 1)):
                fails.append(f"{label}: index column is not 1..n")
            ts = np.concatenate([[sim_t0], rows[:, 1]])
            # 12 significant digits move a printed time by up to 5e-12 |t|
            eps = checks.SPIKE_EPS + 2 * 2.5 * 5e-12 * float(ts[-1])
            fails += checks.orbit(label, sim_drive, sim_sigma, sim_t0, rows[:, 1], sim_picks,
                                  eps=eps)
            if np.max(np.abs(rows[:, 2] - np.diff(ts))) > 1e-11 * float(ts[-1]):
                fails.append(f"{label}: isi column is not the difference of the times")
        return fails

    return Workload(reqs, check)


# -- locking -------------------------------------------------------------------

def locking(fm, systems, seed, tmpdir):
    rng = np.random.default_rng(seed)
    scan_t0, rot_t0s, cli_t0 = _t0(rng), (_t0(rng), _t0(rng)), _t0(rng)
    grid = specs.STAIRCASE_GRID
    quasi, n = systems["quasi"], specs.ROTATION_N

    def family(a0):
        return systems[f"a0={a0!r}"]

    rotation = [Request(f"rotation_number:{i}", "orbit",
                        lambda r, t0=t0: fm.rotation.rotation_number(quasi, t0, n), spikes=n)
                for i, t0 in enumerate(rot_t0s)]
    quasi_drive = specs.cosine_lif_drive(specs.QUASI_BETA)
    argv = ["rotation", "--sigma", "1", "--signal", specs.spec(quasi_drive),
            "--tol", repr(specs.LOCKING_RHO_TOL), "--t0", repr(cli_t0)]
    # the classes alternate, so each one's time spreads over the pass
    reqs = [
        rotation[0],
        Request("staircase_scan", "analysis", lambda r: fm.rotation.staircase_scan(
            family, grid, specs.STAIRCASE_N, t0=scan_t0)),
        _cli(fm, "cli:rotation", argv, os.path.join(tmpdir, "rotation.json"), json.load),
        Request("detect_locking:locked", "analysis", lambda r: fm.rotation.detect_locking(
            systems["locked"], rho_tol=specs.LOCKING_RHO_TOL)),
        rotation[1],
        Request("detect_locking:quasi", "analysis", lambda r: fm.rotation.detect_locking(
            quasi, rho_tol=specs.LOCKING_RHO_TOL)),
    ]

    def check(out):
        import checks
        drives = {a0: specs.staircase_drive(a0) for a0 in grid}
        points = out["staircase_scan"]
        fails = [f"staircase a0={p.param}: {p.error}" for p in points if p.error]
        if fails or [p.param for p in points] != list(grid):
            return fails + ["staircase: points do not follow the grid"]
        fails += checks.staircase(points, drives, 1.0)
        lk = out["detect_locking:locked"]
        if (lk.p, lk.q) != (7, 10):
            fails.append(f"cosine_lif({specs.LOCKED_BETA}): {lk.p}/{lk.q}, expected 7/10")
        fails += checks.locked_claim("detect_locking locked", specs.cosine_lif_drive(
            specs.LOCKED_BETA), 1.0, lk.locked, lk.p, lk.q, True)
        lk = out["detect_locking:quasi"]
        fails += checks.locked_claim("detect_locking quasi", quasi_drive, 1.0,
                                     lk.locked, lk.p, lk.q, False)
        a, b = out["rotation_number:0"], out["rotation_number:1"]
        fails += checks.rotation_pair("rotation_number", a, b)
        code, js = out["cli:rotation"]
        if code != 0:
            return fails + [f"cli rotation: exit {code}"]
        # printed with 12 significant digits
        cli = SimpleNamespace(value=js["rho"], error_bound=js["error_bound"] + 1e-11)
        fails += checks.rotation_pair("cli rotation", cli, a)
        fails += checks.locked_claim("cli rotation", quasi_drive, 1.0, js["locked"],
                                     js["p"], js["q"], False)
        return fails

    return Workload(reqs, check)


# -- isi-density ---------------------------------------------------------------

def isi_density(fm, systems, seed, tmpdir):
    rng = np.random.default_rng(seed)
    golden_t0, golden_picks = _t0(rng), _picks(rng, specs.GOLDEN_ORBIT_N)
    range_t0s = {beta: _t0(rng) for beta in specs.RANGE_BETAS}
    quasi_t0, locked_t0 = _t0(rng), _t0(rng)
    q = specs.REGULARITY_Q
    base = systems["beta=0.25"]
    legs = 4  # the golden orbit runs in four legs, placed apart in the pass below
    leg_n = specs.GOLDEN_ORBIT_N // legs

    def golden_leg(i):
        """Leg i of the golden orbit, started where leg i - 1 ended."""
        def call(r):
            t0 = golden_t0 if i == 0 else float(r[f"iterate:golden:{i - 1}"].times[-1])
            return fm.firing.iterate(systems["golden_pi"], t0, leg_n)
        return Request(f"iterate:golden:{i}", "orbit", call, spikes=leg_n)

    def golden_orbit(r):
        times = [r[f"iterate:golden:{i}"].times for i in range(legs)]
        return fm.firing.Orbit(golden_t0, np.concatenate(times))

    def ranges(beta):
        s, t0 = systems[f"beta={beta!r}"], range_t0s[beta]
        return [
            Request(f"displacement_range:{beta}", "analysis",
                    lambda r: fm.isi.displacement_range(s)),
            Request(f"iterate:beta={beta}", "orbit",
                    lambda r: fm.firing.iterate(s, t0, specs.RANGE_ORBIT_N),
                    spikes=specs.RANGE_ORBIT_N),
        ]

    def harness(i):
        return Request(f"perturbation_harness:{i}", "analysis",
                       lambda r: fm.isi.perturbation_harness(base, systems[f"perturbed{i}"]))

    density_argv = ["density", "--sigma", "0", "--signal", specs.spec(specs.DENSITY_CLI)]
    cmp_base, cmp_pert, cmp_n = specs.COMPARE_CLI
    compare_argv = ["compare", "--sigma", "1", "--signal", specs.spec(cmp_base),
                    "--signal2", specs.spec(cmp_pert), "--n", str(cmp_n)]
    # the classes alternate, so each one's time spreads over the pass
    reqs = [
        golden_leg(0),
        Request("isi_density_pi:golden", "analysis",
                lambda r: fm.isi.isi_density_pi(systems["golden_pi"].signal)),
        *ranges(specs.RANGE_BETAS[0]),
        golden_leg(1),
        harness(0),
        *ranges(specs.RANGE_BETAS[1]),
        _cli(fm, "cli:density", density_argv, os.path.join(tmpdir, "density.csv"), _read_csv),
        golden_leg(2),
        Request("isi_density_pi:two_harmonic", "analysis",
                lambda r: fm.isi.isi_density_pi(systems["two_harmonic_pi"].signal)),
        *ranges(specs.RANGE_BETAS[2]),
        Request("iterate:quasi", "orbit", lambda r: fm.firing.iterate(
            base, quasi_t0, specs.QUASI_SEQ_N), spikes=specs.QUASI_SEQ_N),
        Request("isi_sequence:quasi", "analysis",
                lambda r: fm.isi.isi_sequence(r["iterate:quasi"])),
        Request("classify_regularity:quasi", "analysis", lambda r: fm.isi.classify_regularity(
            r["isi_sequence:quasi"], q, specs.QUASI_EPS)),
        golden_leg(3),
        Request("isi_sequence:golden", "analysis",
                lambda r: fm.isi.isi_sequence(golden_orbit(r))),
        Request("empirical_isi_dist:golden", "analysis",
                lambda r: fm.isi.empirical_isi_dist(r["isi_sequence:golden"])),
        harness(1),
        Request("iterate:warmup", "orbit", lambda r: fm.firing.iterate(
            systems["locked"], locked_t0, specs.LOCKED_WARMUP), spikes=specs.LOCKED_WARMUP),
        Request("iterate:locked", "orbit", lambda r: fm.firing.iterate(
            systems["locked"], float(r["iterate:warmup"].times[-1]), specs.LOCKED_SEQ_N),
            spikes=specs.LOCKED_SEQ_N),
        Request("isi_sequence:locked", "analysis",
                lambda r: fm.isi.isi_sequence(r["iterate:locked"])),
        Request("classify_regularity:locked", "analysis", lambda r: fm.isi.classify_regularity(
            r["isi_sequence:locked"], q, specs.LOCKED_EPS)),
        _cli(fm, "cli:compare", compare_argv, os.path.join(tmpdir, "compare.json"), json.load),
    ]

    def check(out):
        import checks
        import oracle
        fails = []
        golden = specs.GOLDEN_PI[1]
        orbit = out["isi_sequence:golden"].orbit.times
        fails += checks.orbit("golden_pi", golden, 0.0, golden_t0, orbit, golden_picks)
        fails += checks.isi_outputs("golden_pi", golden_t0, orbit,
                                    out["isi_sequence:golden"].values,
                                    out["empirical_isi_dist:golden"].samples, None, None)
        c = out["isi_density_pi:golden"]
        fails += checks.density("golden density", c.y, c.density,
                                oracle.pi_isi_pushforward(golden),
                                np.sort(np.diff(np.concatenate([[golden_t0], orbit]))))
        c = out["isi_density_pi:two_harmonic"]
        fails += checks.density("two-harmonic density", c.y, c.density,
                                oracle.pi_isi_pushforward(specs.TWO_HARMONIC_PI[1]))
        for beta, t0 in range_t0s.items():
            lo, hi = out[f"displacement_range:{beta}"]
            isis = np.diff(np.concatenate([[t0], out[f"iterate:beta={beta}"].times]))
            fails += checks.displacement_range(f"displacement_range beta={beta}",
                                               specs.cosine_lif_drive(beta), 1.0, lo, hi, isis)
        base_drive = specs.cosine_lif_drive(0.25)
        for i, pert in enumerate(specs.PERTURBATIONS):
            rep = out[f"perturbation_harness:{i}"]
            samples = [np.diff(fm.firing.iterate(s, 0.0, specs.HARNESS_ORBIT).times, prepend=0.0)
                       for s in (base, systems[f"perturbed{i}"])]
            fails += checks.perturbation(f"perturbation_harness {i}", base_drive, pert, 1.0,
                                         specs.HARNESS_GRID, rep.sup_phi_dev, rep.sup_dphi_dev,
                                         rep.d_f_isi, samples)
        fails += checks.regularity("classify quasi", out["classify_regularity:quasi"],
                                   out["isi_sequence:quasi"].values, q, specs.QUASI_EPS,
                                   specs.REGULARITY_BURN_IN, periodic=False)
        fails += checks.regularity("classify locked", out["classify_regularity:locked"],
                                   out["isi_sequence:locked"].values, q, specs.LOCKED_EPS,
                                   specs.REGULARITY_BURN_IN, periodic=True)
        code, (header, rows) = out["cli:density"]
        if code != 0 or header != ["y", "delta"]:
            fails.append(f"cli density: exit {code}, header {header}")
        else:
            fails += checks.density("cli density", rows[:, 0], rows[:, 1],
                                    oracle.pi_isi_pushforward(specs.DENSITY_CLI))
        code, js = out["cli:compare"]
        if code != 0:
            return fails + [f"cli compare: exit {code}"]
        cli_systems = [fm.firing.IFSystem(1.0, fm.signals.parse_signal(specs.spec(d)))
                       for d in (cmp_base, cmp_pert)]
        samples = [np.diff(fm.firing.iterate(s, 0.0, cmp_n).times, prepend=0.0)
                   for s in cli_systems]
        # 12 significant digits stay inside the checks' relative tolerances
        fails += checks.perturbation("cli compare", cmp_base, cmp_pert, 1.0, specs.HARNESS_GRID,
                                     js["sup_phi_dev"], js["sup_dphi_dev"], js["d_F_isi"],
                                     samples)
        return fails

    return Workload(reqs, check)


FACTORIES = {"orbits": orbits, "locking": locking, "isi-density": isi_density}
