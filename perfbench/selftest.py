"""Show that every output check can fail.

Each case runs one check of ``checks.py`` twice: on a correct output of the
program, which must pass, and on a deliberately wrong copy of it, which must
be rejected.  Run from the root of a source checkout:

    python3 perfbench/selftest.py

Exit code 0 when every check accepts the right answer and rejects the wrong
one; 1 otherwise.
"""

import os
import sys
from dataclasses import replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import firingmap as fm  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
import specs  # noqa: E402


def system(sigma, drive):
    return fm.IFSystem(sigma, fm.parse_signal(specs.spec(drive)))


def moved(times, k, dt):
    out = np.array(times, dtype=float)
    out[k] += dt
    return out


def orbit_cases():
    cases = []
    for name in ("trig_lif", "trig_nonneg_pi", "step_lif", "step_pi", "sampled_lif"):
        sigma, drive, _ = specs.ORBIT_FAMILIES[name]
        n = 20 if name == "sampled_lif" else 200
        t0 = 0.3
        times = fm.iterate(system(sigma, drive), t0, n).times
        strict = name != "trig_nonneg_pi"
        # a spike where f is not near zero, so a 1e-6 move shows in x
        f = oracle.trig_eval(drive, times) if drive[0] == "trig" else np.ones(n)
        k = int(np.argmax(f[:-1]))

        def run(ts, picks=[k], sigma=sigma, drive=drive, strict=strict, name=name):
            return checks.orbit(name, drive, sigma, t0, ts, picks, strict)
        cases += [
            (f"{name}: spike moved by +1e-6", run, times, moved(times, k, 1e-6)),
            (f"{name}: spike moved by -1e-6", run, times, moved(times, k, -1e-6)),
        ]
        if strict:
            cases.append((f"{name}: one spike skipped", run, times, np.delete(times, k)))
    sigma, drive, _ = specs.ORBIT_FAMILIES["trig_pi"]
    times = fm.iterate(system(sigma, drive), 0.0, 50).times
    swapped = times.copy()
    swapped[[10, 11]] = swapped[[11, 10]]
    cases.append(("trig_pi: two spikes out of order",
                  lambda ts: checks.orbit("trig_pi", drive, sigma, 0.0, ts, [], True),
                  times, swapped))
    return cases


def isi_cases():
    sigma, drive, _ = specs.ORBIT_FAMILIES["step_pi"]
    t0 = 0.1
    times = fm.iterate(system(sigma, drive), t0, 500).times
    seq = fm.isi_sequence(fm.Orbit(t0, times))
    emp = fm.empirical_isi_dist(seq)
    cl = fm.cluster_values(seq.values, 1e-4)

    def run(args):
        return checks.isi_outputs("step_pi", t0, times, *args, 1e-4)
    return [
        ("isi_sequence shifted by one", run, (seq.values, emp.samples, cl),
         (np.roll(seq.values, 1), emp.samples, cl)),
        ("empirical samples unsorted", run, (seq.values, emp.samples, cl),
         (seq.values, emp.samples[::-1], cl)),
        ("two clusters merged", run, (seq.values, emp.samples, cl),
         (seq.values, emp.samples, [(0.0, cl[0][1] + cl[1][1])] + cl[2:])),
        ("check_lift of 2e-9", lambda v: checks.lift("lift", v), 1e-12, 2e-9),
    ]


def locking_cases():
    drive = specs.cosine_lif_drive(specs.LOCKED_BETA)
    lk = fm.detect_locking(system(1.0, drive), rho_tol=1e-4)
    quasi = specs.cosine_lif_drive(specs.QUASI_BETA)
    qk = fm.detect_locking(system(1.0, quasi), rho_tol=1e-4)

    def claim(r, d=drive, expect=True):
        return checks.locked_claim("locking", d, 1.0, r.locked, r.p, r.q, expect)

    grid = specs.STAIRCASE_GRID[:3]

    def family(a0):
        return system(1.0, specs.staircase_drive(a0))
    points = fm.staircase_scan(family, grid, 2000)
    drives = {a0: specs.staircase_drive(a0) for a0 in grid}
    locked_i = next(i for i, p in enumerate(points) if p.locking.locked)
    lk_pt = points[locked_i].locking
    swapped_pts = list(points)
    swapped_pts[locked_i] = replace(points[locked_i], locking=replace(
        lk_pt, p=lk_pt.p + 1, q=lk_pt.q + 1))
    flat = list(points)
    flat[0], flat[-1] = (replace(points[0], estimate=points[-1].estimate),
                         replace(points[-1], estimate=points[0].estimate))
    a = fm.rotation_number(system(1.0, quasi), 0.1, 5000)
    b = fm.rotation_number(system(1.0, quasi), 0.6, 5000)
    return [
        ("locked 7/10 swapped for neighbour 5/7", claim, lk, replace(lk, p=5, q=7)),
        ("locked 7/10 reported unlocked", claim, lk, replace(lk, locked=False)),
        ("quasi-periodic reported locked",
         lambda r: claim(r, quasi, False), qk, replace(qk, locked=True)),
        ("staircase locked p/q swapped for a neighbour",
         lambda pts: checks.staircase(pts, drives, 1.0), points, swapped_pts),
        ("staircase rho increasing in a0",
         lambda pts: checks.staircase(pts, drives, 1.0), points, flat),
        ("rotation numbers 3/n apart",
         lambda r: checks.rotation_pair("rotation", a, r), b,
         replace(b, value=b.value + 3.0 / b.n_iterates)),
    ]


def density_cases():
    drive = specs.GOLDEN_PI[1]
    curve = fm.isi_density_pi(fm.parse_signal(specs.spec(drive)))
    push = oracle.pi_isi_pushforward(drive)
    width = curve.y[-1] - curve.y[0]

    def run(yd):
        return checks.density("density", yd[0], yd[1], push)
    return [
        ("density shifted right by one of 200 bins", run, (curve.y, curve.density),
         (curve.y + width / 200, curve.density)),
        ("density 5% too heavy", run, (curve.y, curve.density),
         (curve.y, 1.05 * curve.density)),
    ]


def range_cases():
    drive = specs.cosine_lif_drive(0.25)
    s = system(1.0, drive)
    lo, hi = fm.displacement_range(s)
    isis = fm.iterate(s, 0.2, 500).isi

    def run(r):
        return checks.displacement_range("range", drive, 1.0, r[0], r[1], isis)
    return [("displacement range narrowed by 1e-6", run, (lo, hi), (lo + 1e-6, hi - 1e-6))]


def harness_cases():
    base_d = specs.cosine_lif_drive(0.25)
    pert_d = specs.PERTURBATIONS[0]
    base, pert = system(1.0, base_d), system(1.0, pert_d)
    rep = fm.perturbation_harness(base, pert, orbit_len=2000)
    samples = [fm.iterate(x, 0.0, 2000).isi for x in (base, pert)]

    def run(r):
        return checks.perturbation("harness", base_d, pert_d, 1.0, 256, r.sup_phi_dev,
                                   r.sup_dphi_dev, r.d_f_isi, samples)
    return [
        ("sup_phi_dev off by 1e-6 relative", run, rep,
         replace(rep, sup_phi_dev=rep.sup_phi_dev * (1 + 1e-6))),
        ("d_F off by 1e-6 relative", run, rep, replace(rep, d_f_isi=rep.d_f_isi * (1 + 1e-6))),
    ]


def regularity_cases():
    locked = system(1.0, specs.cosine_lif_drive(specs.LOCKED_BETA))
    warm = fm.iterate(locked, 0.3, 1000).times[-1]
    seq = fm.iterate(locked, float(warm), 2000).isi
    res = fm.classify_regularity(seq, 10, 1e-8)
    quasi = fm.iterate(system(1.0, specs.cosine_lif_drive(0.25)), 0.3, 3000).isi
    qres = fm.classify_regularity(quasi, 10, 1e-3)
    return [
        ("locked sequence called asymptotically periodic",
         lambda r: checks.regularity("locked", r, seq, 10, 1e-8, 1000, True),
         res, replace(res, kind="asymptotically-periodic")),
        ("quasi-periodic sequence called periodic",
         lambda r: checks.regularity("quasi", r, quasi, 10, 1e-3, 1000, False),
         qres, replace(qres, kind="periodic", period=10)),
    ]


def main():
    bad = 0
    for group in (orbit_cases, isi_cases, locking_cases, density_cases, range_cases,
                  harness_cases, regularity_cases):
        for name, check, right, wrong in group():
            ok_right = check(right)
            ok_wrong = check(wrong)
            fine = not ok_right and bool(ok_wrong)
            bad += not fine
            print(f"{'ok  ' if fine else 'FAIL'} {name}: right answer "
                  f"{'passes' if not ok_right else 'REJECTED ' + str(ok_right)}; wrong answer "
                  f"{'rejected (' + ok_wrong[0] + ')' if ok_wrong else 'PASSES'}")
    print(f"{'all checks reject their wrong answers' if not bad else f'{bad} cases failed'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
