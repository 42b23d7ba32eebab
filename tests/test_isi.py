import math

import numpy as np
import pytest
from scipy.integrate import quad

from firingmap import (
    EmpiricalDist,
    IFSystem,
    IllPosedError,
    InsufficientDataError,
    IsiSeq,
    RationalRotationError,
    TrigPolynomial,
    check_measure_invariance,
    classify_regularity,
    cluster_values,
    constant,
    displacement_range,
    empirical_isi_dist,
    fortet_mourier,
    isi_density_pi,
    isi_sequence,
    iterate,
    perturbation_harness,
    pi_invariant_density,
    rotation_number,
)

from helpers import (
    BETA_LOCKED_7_10,
    GOLDEN_A0,
    cosine_lif,
    golden_pi,
    half_on_half_off,
    pi_half_on,
    translation_lif,
)


def test_isi_sequence_translation():
    seq = isi_sequence(iterate(translation_lif(3), 0.0, 4))
    assert np.allclose(seq.values, 3.0, atol=1e-12)


def test_isi_sequence_constant_lif():
    seq = isi_sequence(iterate(IFSystem(1.0, constant(2.0)), 0.0, 6))
    assert np.allclose(seq.values, math.log(2.0), atol=1e-12)


def test_isi_sequence_half_on_half_off():
    seq = isi_sequence(iterate(pi_half_on(), 0.0, 5))
    assert list(seq.values) == [0.5, 1.0, 1.0, 1.0, 1.0]


def test_isi_sequence_needs_two_times():
    with pytest.raises(ValueError):
        isi_sequence(iterate(translation_lif(1), 0.0, 1))


def test_classify_constant_periodic():
    seq = IsiSeq(np.full(2000, 0.7))
    res = classify_regularity(seq, q=1, eps=1e-9, burn_in=100)
    assert res.kind == "periodic" and res.period == 1


def test_classify_locked_cosine():
    orbit = iterate(cosine_lif(BETA_LOCKED_7_10), 0.123, 6000)
    res = classify_regularity(isi_sequence(orbit), q=10, eps=1e-6, burn_in=1000)
    assert res.kind in ("periodic", "asymptotically-periodic")
    assert res.period == 10


def test_classify_recurrent_irrational():
    orbit = iterate(cosine_lif(0.25), 0.0, 6000)
    res = classify_regularity(isi_sequence(orbit), q=10, eps=0.01, burn_in=1000)
    assert res.kind == "almost-strongly-recurrent"
    assert res.window is not None and res.window < 1250


def test_classify_stops_once_window_exceeds_budget(monkeypatch):
    # the first value after burn-in recurs only at the very end, 398 steps on,
    # past the budget of (410 - 10) // 4 = 100: one window decides the answer
    v = np.tile([0.0, 1.0], 205)
    v[10] = v[-1] = 5.0
    windows = []
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: windows.append(1) or flatnonzero(a))
    res = classify_regularity(IsiSeq(v), q=1, eps=1e-9, burn_in=10)
    assert res.kind == "unclassified" and res.window is None
    assert len(windows) == 1


def test_classify_insufficient_data():
    with pytest.raises(InsufficientDataError):
        classify_regularity(IsiSeq(np.ones(100)), q=10, eps=1e-6, burn_in=1000)


def test_pi_invariant_density_values():
    assert pi_invariant_density(constant(3.0), 0.4) == pytest.approx(1.0, abs=1e-15)
    sig = TrigPolynomial(2.0, [(1, 1.0, 0.0)])
    assert pi_invariant_density(sig, 0.0) == pytest.approx(1.5, abs=1e-15)
    total, _ = quad(lambda t: pi_invariant_density(sig, t), 0.0, 1.0, epsabs=1e-12)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_pi_invariant_density_rejects_negative():
    with pytest.raises(IllPosedError):
        pi_invariant_density(TrigPolynomial(0.5, [(1, 2.0, 0.0)]), 0.0)


def test_measure_invariance_smooth():
    rng = np.random.default_rng(13)
    intervals = [(float(a), float(a) + float(w))
                 for a, w in zip(rng.uniform(0, 1, 50), rng.uniform(0, 1, 50))]
    for sig in (TrigPolynomial(2.0, [(1, 1.0, 0.0)]),
                TrigPolynomial(2.0, [(2, 0.4, 0.0)]),
                constant(1.7)):
        assert check_measure_invariance(sig, intervals) < 1e-8


def test_measure_invariance_pwc_exact():
    intervals = [(0.05, 0.3), (0.1, 0.45), (0.2, 0.41), (0.6, 0.8)]
    assert check_measure_invariance(half_on_half_off(), intervals) < 1e-12


def test_displacement_range_degenerate_for_constant():
    lo, hi = displacement_range(IFSystem(1.0, constant(2.0)))
    assert lo == pytest.approx(math.log(2.0), abs=1e-10)
    assert hi - lo < 1e-10


def test_displacement_range_contains_log2():
    lo, hi = displacement_range(cosine_lif(0.25))
    assert lo < math.log(2.0) < hi
    assert hi - lo > 0.1


def test_displacement_range_pi_straddles_half():
    lo, hi = displacement_range(IFSystem(0.0, TrigPolynomial(2.0, [(1, 1.0, 0.0)])))
    assert lo < 0.5 < hi


def test_displacement_range_requires_strict():
    with pytest.raises(ValueError):
        displacement_range(pi_half_on())


def test_empirical_dist_atom():
    dist = empirical_isi_dist(IsiSeq(np.array([3.0, 3.0, 3.0])))
    assert dist.cdf(2.999999) == 0.0
    assert dist.cdf(3.0) == 1.0


def test_empirical_dist_clusters_locked():
    orbit = iterate(cosine_lif(BETA_LOCKED_7_10), 0.0, 4000)
    clusters = cluster_values(orbit.isi[2000:], 1e-4)
    assert len(clusters) == 10


def test_empirical_mean_matches_rotation():
    system = cosine_lif(0.25)
    orbit = iterate(system, 0.0, 10**5)
    est = rotation_number(system, 0.37, 10**5)
    assert abs(float(orbit.isi.mean()) - est.value) < 2e-4


def test_support_inside_displacement_range():
    system = cosine_lif(0.25)
    lo, hi = displacement_range(system)
    orbit = iterate(system, 0.4, 20000)
    assert float(orbit.isi.min()) >= lo - 1e-6
    assert float(orbit.isi.max()) <= hi + 1e-6


def test_histograms_uniform_over_start_time():
    system = cosine_lif(0.25)
    lo, hi = displacement_range(system)
    rng = np.random.default_rng(14)
    hists = []
    for t0 in rng.uniform(0, 1, 5):
        orbit = iterate(system, float(t0), 10**5)
        counts, _ = np.histogram(orbit.isi, bins=200, range=(lo - 1e-3, hi + 1e-3))
        hists.append(counts / counts.sum())
    for i in range(len(hists)):
        for j in range(i + 1, len(hists)):
            tv = 0.5 * float(np.abs(hists[i] - hists[j]).sum())
            assert tv < 0.01


def test_fortet_mourier_basics():
    a = EmpiricalDist([0.3, 0.9, 1.4])
    assert fortet_mourier(a, a) == 0.0
    assert fortet_mourier(EmpiricalDist([1.0]), EmpiricalDist([3.5])) == 2.5
    assert fortet_mourier(EmpiricalDist([0.0, 1.0]), EmpiricalDist([0.5, 0.5])) == 0.5


def test_fortet_mourier_metric_axioms():
    rng = np.random.default_rng(15)
    for _ in range(50):
        xs = [EmpiricalDist(rng.normal(size=int(rng.integers(1, 12)))) for _ in range(3)]
        a, b, c = xs
        dab, dba = fortet_mourier(a, b), fortet_mourier(b, a)
        assert abs(dab - dba) < 1e-12
        assert fortet_mourier(a, a) < 1e-15
        dac, dbc = fortet_mourier(a, c), fortet_mourier(b, c)
        assert dac <= dab + dbc + 1e-12


def test_density_integrates_to_one():
    curve = isi_density_pi(golden_pi().signal)
    assert curve.integral() == pytest.approx(1.0, abs=0.02)
    assert np.all(curve.density >= 0.0)


def test_density_matches_monte_carlo():
    system = golden_pi()
    curve = isi_density_pi(system.signal)
    emp = empirical_isi_dist(isi_sequence(iterate(system, 0.0, 10**5)))
    cdf = curve.cdf()
    ks = float(np.max(np.abs(cdf / cdf[-1] - emp.cdf(curve.y))))
    assert ks < 0.02


def test_density_rejects_rational_rotation():
    with pytest.raises(RationalRotationError):
        isi_density_pi(constant(2.0))
    with pytest.raises(RationalRotationError):
        # mean 2 means rotation number exactly 1/2: locked, so no density
        isi_density_pi(TrigPolynomial(2.0, [(1, 0.5, 0.0)]))


def test_density_requires_trig():
    with pytest.raises(ValueError):
        isi_density_pi(half_on_half_off())


def test_density_root_count_even_off_critical():
    signal = golden_pi().signal
    system = IFSystem(0.0, signal)
    from firingmap.isi import _psi_roots
    from firingmap import firing_time

    ts = np.linspace(0.0, 1.0, 1025)
    psi = np.array([firing_time(system, float(t)) - float(t) for t in ts])
    lo, hi = float(psi.min()), float(psi.max())

    rng = np.random.default_rng(16)
    ys = rng.uniform(lo + 1e-3, hi - 1e-3, 20)
    j, roots = _psi_roots(system, ts, psi, ys)
    counts = np.bincount(j, minlength=ys.size)
    assert np.all(counts % 2 == 0)  # periodic continuous curve crosses evenly
    assert np.all(counts >= 2)
    # every root solves Psi(t) = y
    for jj, t in zip(j.tolist(), roots.tolist()):
        assert firing_time(system, t) - t == pytest.approx(ys[jj], abs=1e-9)


def test_perturbation_harness_identity():
    base = cosine_lif(0.25)
    rep = perturbation_harness(base, cosine_lif(0.25), grid_size=64, orbit_len=2000)
    assert rep.sup_phi_dev == 0.0
    assert rep.sup_dphi_dev == 0.0
    assert rep.d_f_isi == 0.0


def test_perturbation_harness_decreases_with_delta():
    base = cosine_lif(0.25)
    reports = [
        perturbation_harness(base, cosine_lif(0.25 + d), grid_size=128, orbit_len=5000)
        for d in (0.02, 0.01)
    ]
    assert reports[1].sup_phi_dev < reports[0].sup_phi_dev
    assert reports[1].sup_dphi_dev < reports[0].sup_dphi_dev
    assert reports[1].d_f_isi < reports[0].d_f_isi


def test_perturbation_from_atomic_base():
    # a Dirac-atom ISI distribution is still close to a nearby spread one
    base = cosine_lif(0.0)
    rep = perturbation_harness(base, cosine_lif(0.1), grid_size=64, orbit_len=5000)
    assert 0.0 < rep.d_f_isi < 0.05


def test_golden_mean_not_locked_sanity():
    # guard for the fixtures: the golden-mean system must stay unlocked
    from firingmap import detect_locking

    res = detect_locking(golden_pi(), q_max=64)
    assert not res.locked
    assert abs(1.0 / GOLDEN_A0 - (2.0 - (1 + math.sqrt(5)) / 2)) < 1e-15


def test_displacement_scalar_and_grid():
    from firingmap import displacement

    system = cosine_lif(0.25)
    assert displacement(system, 0.3) == pytest.approx(displacement(system, 1.3), abs=1e-12)
    ts = np.linspace(0, 1, 9)
    grid = displacement(system, ts)
    assert grid.shape == (9,)
    assert grid.tolist() == pytest.approx([displacement(system, t) for t in ts.tolist()], abs=1e-12)
    assert np.all(grid > 0)


def test_empirical_cdf_right_continuous():
    dist = EmpiricalDist([1.0, 2.0, 2.0, 3.0])
    assert dist.cdf(2.0) == 0.75          # jump included at the point
    assert dist.cdf(np.nextafter(2.0, 0.0)) == 0.25
    assert dist.cdf(0.0) == 0.0
    assert dist.cdf(99.0) == 1.0
