import math

import numpy as np
import pytest

import firingmap.rotation as rotation
from firingmap import (
    IFSystem,
    IllPosedError,
    LockedError,
    TrigPolynomial,
    best_rational,
    constant,
    detect_locking,
    estimate_conjugacy,
    firing_time,
    firing_times,
    pi_conjugacy,
    pi_rotation,
    rotation_enclosure,
    rotation_number,
    staircase_scan,
)

from helpers import (
    BETA_LOCKED_7_10,
    GOLDEN_A0,
    cosine_lif,
    count_rotation_spikes,
    golden_pi,
    half_on_half_off,
    translation_lif,
)


def test_rotation_number_constant_lif():
    est = rotation_number(IFSystem(1.0, constant(2.0)), 0.0, 100)
    assert est.value == pytest.approx(math.log(2.0), abs=0.01)
    assert est.error_bound == 0.01
    assert est.n_iterates == 100


def test_rotation_number_translation_is_exact():
    est = rotation_number(translation_lif(3), 0.4, 50)
    assert est.value == pytest.approx(3.0, abs=1e-12)


def test_pi_rotation_examples():
    assert pi_rotation(TrigPolynomial(2.0, [(1, 1.0, 0.0)])).value == 0.5
    assert pi_rotation(half_on_half_off()).value == 1.0
    assert pi_rotation(constant(2.5)).value == pytest.approx(0.4, abs=1e-15)
    assert pi_rotation(constant(2.5)).n_iterates == 0


def test_pi_rotation_rejects_nonpositive_mean():
    with pytest.raises(IllPosedError):
        pi_rotation(constant(-1.0))


def test_pi_conjugacy_constant_is_identity():
    for t in (0.0, 0.3, 1.7, -0.4):
        assert pi_conjugacy(constant(3.0), t) == pytest.approx(t, abs=1e-14)


def test_pi_conjugacy_cosine_closed_form():
    sig = TrigPolynomial(2.0, [(1, 1.0, 0.0)])
    for t in (0.25, 0.8, 1.3):
        expected = t + math.sin(2 * math.pi * t) / (4 * math.pi)
        assert pi_conjugacy(sig, t) == pytest.approx(expected, abs=1e-14)
    assert pi_conjugacy(sig, 0.0) == 0.0
    assert pi_conjugacy(sig, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_pi_conjugacy_degree_one():
    sig = TrigPolynomial(1.5, [(1, 0.4, 0.3)])
    for t in (0.0, 0.21, 0.9):
        assert pi_conjugacy(sig, t + 1.0) == pytest.approx(
            pi_conjugacy(sig, t) + 1.0, abs=1e-12
        )


def test_pi_conjugacy_conjugates_to_rotation():
    sig = TrigPolynomial(GOLDEN_A0, [(1, 0.5, 0.0)])
    system = IFSystem(0.0, sig)
    rho = pi_rotation(sig).value
    rng = np.random.default_rng(9)
    for t in rng.uniform(0, 2, 50):
        t = float(t)
        lhs = pi_conjugacy(sig, firing_time(system, t))
        assert abs(lhs - pi_conjugacy(sig, t) - rho) < 1e-9


def test_best_rational_matches_brute_force():
    rng = np.random.default_rng(10)
    for _ in range(500):
        x = float(rng.uniform(0, 4))
        q_max = int(rng.integers(1, 80))
        p, q = best_rational(x, q_max)
        assert 1 <= q <= q_max
        assert math.gcd(abs(p), q) == 1
        brute = min(
            (abs(x - round(x * qq) / qq), qq) for qq in range(1, q_max + 1)
        )
        assert abs(x - p / q) <= brute[0] + 1e-15


def test_detect_locking_inside_tongue():
    res = detect_locking(cosine_lif(BETA_LOCKED_7_10), rho_tol=1e-5)
    assert res.locked
    assert (res.p, res.q) == (7, 10)
    assert res.residual < 1e-8


def test_not_locked_just_outside_tongue():
    # the 7/10 plateau of this family sits near [0.412, 0.444]; at 0.4 the
    # rotation number is about 0.69945 and no period-10 orbit exists
    res = detect_locking(cosine_lif(0.4), rho_tol=1e-5)
    assert not res.locked
    assert res.status == "unlocked" and res.margin > 0
    est = rotation_number(cosine_lif(0.4), 0.0, 20000)
    assert abs(est.value - 0.7) > 4e-4  # bounded away from 7/10


def test_detect_locking_translation():
    res = detect_locking(translation_lif(3))
    assert res.locked and (res.p, res.q) == (3, 1)
    assert res.residual < 1e-9


def test_detect_locking_pi_constant():
    res = detect_locking(IFSystem(0.0, constant(2.0)))
    assert res.locked and (res.p, res.q) == (1, 2)
    assert res.residual < 1e-12


def test_not_locked_log2():
    res = detect_locking(IFSystem(1.0, constant(2.0)), q_max=50, residual_tol=1e-6)
    assert not res.locked
    assert res.residual > 1e-3
    assert res.status == "unlocked" and 0 < res.margin <= res.residual


def _phi_q_minus_p(system, p, q, grid=1024):
    ts = np.arange(grid) / grid
    phi = ts
    for _ in range(q):
        phi = firing_times(system, phi)
    return phi - ts - p


@pytest.mark.parametrize("beta", [0.412, 0.444])
def test_tongue_edges_never_locked_on_residual_alone(beta):
    # at the edges of the 7/10 tongue Phi^10 - Id - 7 nearly touches zero
    res = detect_locking(cosine_lif(beta), rho_tol=1e-4)
    assert res.status in ("locked", "undecided")
    if res.status == "locked":
        g = _phi_q_minus_p(cosine_lif(beta), res.p, res.q)
        assert np.any(g * np.roll(g, -1) <= 0.0)


def _never_decide(monkeypatch):
    monkeypatch.setattr(rotation, "_grid_test", lambda *a: (None, 0.0, 1.0))


@pytest.mark.parametrize("rho_tol", [1e-2, 3e-4])
def test_detect_locking_spikes_capped_by_rho_tol(monkeypatch, rho_tol):
    # with neither the orbit nor the grid deciding, the first mediant stays
    # open; the quasi-periodic orbit never settles, so it doubles until the cap
    _never_decide(monkeypatch)
    monkeypatch.setattr(rotation, "_monotone_bounds", lambda s, v: (-1.0, -1.0))
    spikes = count_rotation_spikes(monkeypatch)
    res = detect_locking(cosine_lif(0.25), rho_tol=rho_tol)
    assert res.status == "undecided" and not res.locked
    assert res.q == 1
    assert sum(spikes) == math.ceil(1.0 / rho_tol)


def test_rho_tol_below_the_floor_is_refused_before_any_orbit(monkeypatch):
    # rho_tol = 1e-9 would cap the orbit at 10^9 spikes, 8 GB of times
    def no_orbit(*args):
        raise AssertionError("an orbit was computed")

    monkeypatch.setattr(rotation, "iterate", no_orbit)
    for run in (detect_locking, rotation_enclosure):
        with pytest.raises(ValueError, match="4,194,304 spikes"):
            run(cosine_lif(0.45), rho_tol=1e-9)
    assert rotation._orbit_cap(2.0 ** -22) == 4_194_304
    with pytest.raises(ValueError):
        rotation._orbit_cap(math.nextafter(2.0 ** -22, 0.0))


def test_detect_locking_settled_orbit_stops_early(monkeypatch):
    # a grid that never decides leaves the 7/10 mediant of a locked system
    # open; its orbit has settled on the 10-cycle, so doubling adds nothing
    _never_decide(monkeypatch)
    spikes = count_rotation_spikes(monkeypatch)
    res = detect_locking(cosine_lif(BETA_LOCKED_7_10), rho_tol=3e-4)
    assert res.status == "undecided" and not res.locked
    assert (res.p, res.q) == (7, 10)
    assert sum(spikes) == 1024


@pytest.mark.parametrize("system", [golden_pi(), IFSystem(0.0, constant(math.sqrt(3.0)))],
                         ids=["golden", "constant-sqrt3"])
def test_detect_locking_certifies_pi_unlocked(system):
    res = detect_locking(system)
    assert res.status == "unlocked" and not res.locked
    assert res.margin > 0
    rho = pi_rotation(system.signal).value
    assert res.q <= 64 and abs(rho - res.p / res.q) < 1.0 / res.q


def test_detect_locking_pi_rational_beyond_q_max_is_undecided(monkeypatch):
    # rho is about 50/67: no fraction with q <= 64 is it, but the orbit locks
    # onto a 67-cycle that neither the orbit nor the grid can place
    spikes = count_rotation_spikes(monkeypatch)
    res = detect_locking(IFSystem(0.0, TrigPolynomial(1.34, [(1, 0.5, 0.0)])))
    assert res.status == "undecided"
    assert sum(spikes) <= 2048


def test_detect_locking_certifies_from_a_short_orbit(monkeypatch):
    spikes = count_rotation_spikes(monkeypatch)
    res = detect_locking(cosine_lif(0.25))
    assert res.status == "unlocked"
    assert sum(spikes) <= 4096


@pytest.mark.parametrize("system", [cosine_lif(0.25), cosine_lif(BETA_LOCKED_7_10), golden_pi()],
                         ids=["quasi", "locked", "golden-pi"])
def test_rotation_enclosure_from_zero_gives_detect_locking(system):
    est, res = rotation_enclosure(system)
    assert res == detect_locking(system)
    assert est.error_bound <= 1e-6
    if res.locked:  # proved by a sign change of Phi^10 - Id - 7 on the grid
        assert (est.value, est.error_bound) == (0.7, 0.0)


def test_rotation_enclosure_gallops_near_a_rational(monkeypatch):
    # a rigid rotation by rho = 1.0003 (a constant drive, so rho is known in closed
    # form): past q_max the walk meets the mediants (k + 1)/k above rho for k up to
    # about 3,300; trying 2, 4, ... of them at once places them in about 100 tests,
    # where one at a time takes about 3,300
    f = 1.0 / (1.0 - math.exp(-1.0003))
    tests = []
    bounds = rotation._monotone_bounds
    monkeypatch.setattr(rotation, "_monotone_bounds", lambda s, v: tests.append(1) or bounds(s, v))
    est, res = rotation_enclosure(IFSystem(1.0, constant(f)), rho_tol=1e-5)
    assert res.status == "unlocked"
    assert abs(est.value - math.log(f / (f - 1.0))) <= est.error_bound <= 1e-5
    assert len(tests) <= 200


def test_staircase_runs_one_orbit_per_param(monkeypatch):
    spikes = count_rotation_spikes(monkeypatch)
    points = staircase_scan(cosine_lif, [0.25, BETA_LOCKED_7_10], n=3000)
    assert spikes == [3000, 3000]
    assert [pt.locking.status for pt in points] == ["unlocked", "locked"]
    assert points[0].estimate == rotation_number(cosine_lif(0.25), 0.0, 3000)


def test_estimates_consistent_across_n():
    system = cosine_lif(0.25)
    for n in (100, 1000):
        a = rotation_number(system, 0.0, n)
        b = rotation_number(system, 0.0, 2 * n)
        assert abs(a.value - b.value) <= 1.0 / n + 1.0 / (2 * n)


def test_estimate_independent_of_start():
    rng = np.random.default_rng(12)
    for system in (cosine_lif(0.25), cosine_lif(0.45), golden_pi()):
        n = 2000
        values = [
            rotation_number(system, float(t0), n).value
            for t0 in rng.uniform(0, 1, 10)
        ]
        assert max(values) - min(values) < 2.0 / n


def test_pi_estimate_matches_closed_form():
    system = golden_pi()
    est = rotation_number(system, 0.0, 10**4)
    assert abs(est.value - pi_rotation(system.signal).value) < 1e-4 + 1e-4


def test_staircase_constant_family():
    points = staircase_scan(
        lambda c: IFSystem(0.0, constant(c)), [1.5, 2.0, 2.5], n=100
    )
    values = [pt.estimate.value for pt in points]
    assert values == pytest.approx([2 / 3, 1 / 2, 2 / 5], abs=1e-4)
    for pt, expected in zip(points, [2 / 3, 1 / 2, 2 / 5]):
        closed = pi_rotation(IFSystem(0.0, constant(pt.param)).signal)
        assert closed.value == pytest.approx(expected, abs=1e-15)


def test_staircase_records_errors_and_continues():
    def family(beta):
        return cosine_lif(beta)

    points = staircase_scan(family, [0.25, 0.5, 0.3], n=200)
    assert points[0].error is None
    assert points[1].error is not None and "sigma" in points[1].error
    assert points[2].error is None
    assert [pt.param for pt in points] == [0.25, 0.5, 0.3]


def test_staircase_plateau_inside_tongue():
    # the locking plateau has positive width: rho stays at 7/10 across it
    betas = [0.42, 0.425, 0.43, 0.435, 0.44]
    points = staircase_scan(cosine_lif, betas, n=20000)
    for pt in points:
        assert abs(pt.estimate.value - 0.7) <= 1.0 / 20000


def test_estimate_conjugacy_rejects_locked():
    with pytest.raises(LockedError):
        estimate_conjugacy(
            IFSystem(0.0, TrigPolynomial(2.0, [(1, 1.0, 0.0)])), 0.0, 1000,
            np.linspace(0, 1, 11),
        )


def test_estimate_conjugacy_matches_closed_form():
    system = golden_pi()
    grid = np.linspace(0.0, 1.0, 201)
    gamma_hat = estimate_conjugacy(system, 0.0, 10**5, grid)
    gamma = np.array([pi_conjugacy(system.signal, float(t)) for t in grid])
    assert float(np.max(np.abs(gamma_hat - gamma))) < 0.01
    assert np.all(np.diff(gamma_hat) >= 0)
    assert gamma_hat[-1] == 1.0


def test_estimate_conjugacy_constant_is_identity():
    system = IFSystem(0.0, constant(math.e))
    grid = np.linspace(0.0, 1.0, 101)
    gamma_hat = estimate_conjugacy(system, 0.0, 10**5, grid)
    assert float(np.max(np.abs(gamma_hat - grid))) < 0.01


def test_estimate_conjugacy_lif_endpoints():
    system = cosine_lif(0.25)
    grid = np.linspace(0.0, 1.0, 51)
    gamma_hat = estimate_conjugacy(system, 0.0, 10**4, grid)
    assert np.all(np.diff(gamma_hat) >= 0)
    assert gamma_hat[-1] - gamma_hat[0] <= 1.0
    assert gamma_hat[-1] == 1.0


def test_same_rotation_family_nonconverging_drives():
    # f_n = A + B cos(2 pi n t) all share rotation number 1/A even though
    # the drives themselves do not converge as n grows; the conjugacies
    # flatten to the identity at rate B/(2 pi n A).  A classic caution that
    # weak convergence of the dynamics says nothing about the inputs.
    A, B = math.e, 0.5
    sups = []
    for n in (1, 2, 4):
        sig = TrigPolynomial(A, [(n, B, 0.0)])
        assert pi_rotation(sig).value == pytest.approx(1.0 / A, abs=1e-14)
        ts = np.linspace(0.0, 1.0, 1001)
        dev = max(abs(pi_conjugacy(sig, float(t)) - float(t)) for t in ts)
        assert dev == pytest.approx(B / (2 * math.pi * n * A), abs=1e-6)
        sups.append(dev)
    assert sups[0] > sups[1] > sups[2]
