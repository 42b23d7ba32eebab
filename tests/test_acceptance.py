"""Acceptance gate: every criterion below prints one line when it passes.

Run with ``pytest tests/test_acceptance.py -v -s``.

Two worked-example parameters are adjusted to values verified against the
exact dynamics (the originals fail verification; see the test comments):

* the 7/10 locking test runs at beta = 0.43, inside the measured tongue
  [~0.412, ~0.444] of the cosine-driven leaky family -- at beta = 0.4 the
  rotation number is ~0.69945 and no period-10 orbit exists;
* the density-vs-Monte-Carlo test uses a mean level of (3+sqrt(5))/2 (the
  golden-mean choice, rotation number 2-phi) because a mean of exactly 2
  makes the rotation number 1/2: every orbit is 2-periodic and an
  absolutely continuous ISI density cannot exist there.
"""

import math
import time

import numpy as np
import pytest

from firingmap import (
    EmpiricalDist,
    IFSystem,
    PiecewiseConstant,
    RationalRotationError,
    Sampled,
    TrigPolynomial,
    check_lift,
    check_measure_invariance,
    classify_regularity,
    cluster_values,
    constant,
    derivative,
    detect_locking,
    displacement_range,
    empirical_isi_dist,
    firing_time,
    fortet_mourier,
    isi_density_pi,
    isi_sequence,
    iterate,
    perturbation_harness,
    pi_rotation,
    rotation_number,
)

from helpers import (
    BETA_LOCKED_7_10,
    cosine_lif,
    golden_pi,
    half_on_half_off,
    pi_half_on,
    translation_lif,
)


def _report(num: int, label: str) -> None:
    print(f"CRITERION {num:2d} [{label}]: PASS")


def test_c01_translation_golden():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for q in (1, 2, 3):
        system = translation_lif(q)
        for t in rng.uniform(0.0, 1.0, 100):
            t = float(t)
            assert abs(firing_time(system, t) - (t + q)) < 1e-9
        isi = iterate(system, 0.0, 50).isi
        assert np.max(np.abs(isi - q)) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "constant-drive translation by q")


def test_c02_half_on_half_off_golden():
    start = time.perf_counter()
    system = pi_half_on()
    assert firing_time(system, 0.0) == 0.5
    for t in (0.1, 0.25, 0.3, 0.49, 0.499999):
        assert firing_time(system, t) == 1.0 + t
    for t in (0.5, 0.6, 0.75, 0.999):
        assert firing_time(system, t) == 1.5
    assert pi_rotation(half_on_half_off()).value == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "discontinuous perfect integrator, exact map")


def test_c03_flat_drive_atom():
    start = time.perf_counter()
    system = cosine_lif(0.0)
    est = rotation_number(system, 0.0, 10**4)
    assert abs(est.value - 0.693147) < 1e-4
    dist = empirical_isi_dist(isi_sequence(iterate(system, 0.0, 10**4)))
    _, counts = dist.histogram(bins=200)
    assert int(np.sum(counts > 0)) == 1
    assert len(cluster_values(dist.samples, 1e-4)) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, "flat drive: rotation ln 2, Dirac ISI atom")


def test_c04_locking_seven_tenths():
    start = time.perf_counter()
    system = cosine_lif(BETA_LOCKED_7_10)
    res = detect_locking(system, rho_tol=1e-5)
    assert res.locked
    assert (res.p, res.q) == (7, 10)
    assert res.residual < 1e-8
    orbit = iterate(system, 0.0, 8000)
    clusters = cluster_values(orbit.isi[4000:], 1e-4)
    assert len(clusters) == 10
    cls = classify_regularity(isi_sequence(orbit), q=10, eps=1e-6, burn_in=1000)
    assert cls.kind in ("periodic", "asymptotically-periodic")
    assert cls.period == 10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, "7:10 phase locking, ten ISI clusters")


def test_c05_interval_filling_and_mean():
    start = time.perf_counter()
    for beta in (0.1, 0.15, 0.2, 0.25):
        system = cosine_lif(beta)
        orbit = iterate(system, 0.0, 10**5)
        lo, hi = displacement_range(system)
        counts, _ = np.histogram(orbit.isi, bins=200, range=(lo, hi))
        assert int(np.sum(counts[1:-1] == 0)) == 0
        est = rotation_number(system, 0.37, 10**5)
        assert abs(float(orbit.isi.mean()) - est.value) < 5e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, "quasi-periodic ISIs fill the displacement range")


def test_c06_measure_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    intervals = [
        (float(a), float(a) + float(w))
        for a, w in zip(rng.uniform(0, 1, 100), rng.uniform(0, 1.5, 100))
    ]
    for sig in (TrigPolynomial(2.0, [(1, 1.0, 0.0)]),
                TrigPolynomial(2.0, [(2, 0.4, 0.0)])):
        assert check_measure_invariance(sig, intervals) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _report(6, "input-density measure preserved by the firing map")


def test_c07_density_vs_monte_carlo():
    start = time.perf_counter()
    # the nominal mean level 2 gives rotation number exactly 1/2 (orbits all
    # 2-periodic, ISI distribution atomic), contradicting the irrationality
    # this comparison requires; assert that failure mode explicitly, then run
    # the comparison at the golden-mean level where the theory applies
    with pytest.raises(RationalRotationError):
        isi_density_pi(TrigPolynomial(2.0, [(1, 0.5, 0.0)]))
    system = golden_pi(amp=0.5)
    curve = isi_density_pi(system.signal)
    assert curve.integral() == pytest.approx(1.0, abs=0.02)
    emp = empirical_isi_dist(isi_sequence(iterate(system, 0.0, 10**6)))
    cdf = curve.cdf()
    ks = float(np.max(np.abs(cdf / cdf[-1] - emp.cdf(curve.y))))
    assert ks < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(7, "transport density matches a million-spike run")


def test_c08_derivative_identity():
    rng = np.random.default_rng(108)
    h = 1e-6
    for beta in (0.1, 0.25):
        system = cosine_lif(beta)
        for t in rng.uniform(0.0, 1.0, 100):
            t = float(t)
            fd = (firing_time(system, t + h) - firing_time(system, t - h)) / (2 * h)
            closed = derivative(system, t)
            assert abs(closed - fd) / abs(fd) < 1e-5
    _report(8, "closed-form slope matches finite differences")


def test_c09_lift_property():
    grid = np.linspace(0.0, 1.0, 128, endpoint=False)
    offset_grid = grid[(np.abs(grid - 0.5) > 1e-3) & (grid > 1e-3)]
    systems = [
        translation_lif(1),
        translation_lif(3),
        cosine_lif(0.1),
        cosine_lif(0.25),
        cosine_lif(BETA_LOCKED_7_10),
        cosine_lif(0.45),
        golden_pi(),
        IFSystem(0.0, TrigPolynomial(2.0, [(1, 1.0, 0.0)])),
        IFSystem(1.0, PiecewiseConstant([0.0, 0.5], [2.5, 1.5])),
        IFSystem(1.0, Sampled(2.0 + 0.5 * np.cos(2 * np.pi * np.arange(32) / 32))),
    ]
    for system in systems:
        assert check_lift(system, grid) < 1e-9
    assert check_lift(pi_half_on(), offset_grid) < 1e-9
    _report(9, "displacement is 1-periodic on every validated system")


def test_c10_continuity_harness():
    start = time.perf_counter()
    base = cosine_lif(0.25)
    reports = [
        perturbation_harness(base, cosine_lif(0.25 + d), orbit_len=20000)
        for d in (0.02, 0.01, 0.005)
    ]
    for bigger, smaller in zip(reports, reports[1:]):
        assert smaller.sup_phi_dev < bigger.sup_phi_dev
        assert smaller.sup_dphi_dev < bigger.sup_dphi_dev
        assert smaller.d_f_isi < bigger.d_f_isi
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(10, "firing map and ISI stats vary continuously")


def test_c11_fortet_mourier_exactness():
    rng = np.random.default_rng(111)
    for _ in range(20):
        a, b = (float(x) for x in rng.uniform(-5, 5, 2))
        assert fortet_mourier(EmpiricalDist([a]), EmpiricalDist([b])) == abs(b - a)
    for _ in range(50):
        dists = [
            EmpiricalDist(rng.normal(size=int(rng.integers(1, 15))))
            for _ in range(3)
        ]
        x, y, z = dists
        assert abs(fortet_mourier(x, y) - fortet_mourier(y, x)) < 1e-12
        assert fortet_mourier(x, x) < 1e-12
        assert fortet_mourier(x, z) <= fortet_mourier(x, y) + fortet_mourier(y, z) + 1e-12
    _report(11, "distribution distance is an exact metric")


def test_c12_rotation_estimate_bound():
    systems = [
        cosine_lif(0.0),
        cosine_lif(0.1),
        cosine_lif(0.2),
        cosine_lif(0.25),
        cosine_lif(0.3),
        cosine_lif(0.45),
        translation_lif(2),
        golden_pi(),
        IFSystem(0.0, constant(math.e)),
        pi_half_on(),
    ]
    for system in systems:
        for n in (10**2, 10**3, 10**4):
            a = rotation_number(system, 0.0, n).value
            b = rotation_number(system, 0.37, n).value
            assert abs(a - b) < 2.0 / n
    _report(12, "estimates from different starts agree within 2/n")
