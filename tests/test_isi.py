import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import firingmap.firing as firing
import firingmap.isi as isi
from firingmap import (
    EmpiricalDist,
    IFSystem,
    IllPosedError,
    InsufficientDataError,
    IsiSeq,
    NoConvergenceError,
    NotDifferentiableError,
    PiecewiseConstant,
    RationalRotationError,
    Regime,
    Sampled,
    TrigPolynomial,
    check_measure_invariance,
    classify_regularity,
    cluster_values,
    constant,
    derivative,
    displacement,
    displacement_range,
    empirical_isi_dist,
    firing_time,
    firing_times,
    fortet_mourier,
    isi_density_pi,
    isi_sequence,
    iterate,
    parse_signal,
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
    psi_roots_oracle,
    recurrence_window_oracle,
    slope_oracle,
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


@pytest.mark.parametrize("kwargs, match", [
    ({"q": -2}, "q must"),
    ({"q": 0}, "q must"),
    ({"eps": 0.0}, "eps must"),
    ({"eps": -1.0}, "eps must"),
    ({"eps": math.nan}, "eps must"),
    ({"burn_in": -50}, "burn_in must"),
    ({"bad": math.inf}, "ISI 123 is not finite"),
    ({"bad": math.nan}, "ISI 123 is not finite"),
])
def test_classify_refuses_bad_arguments(kwargs, match):
    v = np.tile([0.25, 0.5, 0.75], 200)
    if "bad" in kwargs:
        v[123] = v[400] = kwargs.pop("bad")
    args = {"q": 3, "eps": 1e-3, "burn_in": 10, **kwargs}
    with pytest.raises(ValueError, match=match):
        classify_regularity(v, **args)


@st.composite
def regularity_cases(draw):
    """ISI arrays over a few values around a centre c: ties, values exactly
    eps from c, matches of c just inside eps and values that match only some
    of the others.  The array is cut into up to three pieces that each draw
    from their own few values, so some values stop recurring part way."""
    eps = draw(st.sampled_from([1e-300, 1e-9, 0.1, 1.0]) | st.floats(1e-12, 2.0))
    c = draw(st.integers(-20, 20).map(lambda k: k * eps) | st.sampled_from([0.3, 1e10]))
    pool = [c + k * eps for k in (0.0, 0.75, -0.99, 0.99, 1.0, -1.0, 1.5, -1.5)]
    pool += draw(st.lists(st.floats(-2.0, 2.0) | st.sampled_from([1e10, 2e10]), max_size=2))
    q = draw(st.integers(1, 4))
    n = draw(st.integers(4 * q, 200))
    burn_in = draw(st.integers(0, n - 4 * q))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=2)))
    v = []
    for a, b in zip([0, *cuts], [*cuts, n]):
        values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        v += draw(st.lists(st.sampled_from(values), min_size=b - a, max_size=b - a))
    return np.array(v), q, eps, burn_in


@settings(max_examples=400, deadline=None)
@given(regularity_cases())
# every value overflows to the same bucket: the sub-band must be checked
@example((np.tile([1e10, 2e10], 40), 1, 1e-300, 0))
# 0 matches -0.99 (outside its sub-band) but 0.75 does not: the recurrence
# of -0.99 after 0's last sub-band member decides the window
@example((np.array([0.0, 0.75, -0.99] + [1.5, -1.5] * 30 + [-0.99] + [1.5, -1.5] * 40), 1, 1.0, 0))
def test_classify_equals_exhaustive_scan(case):
    v, q, eps, burn_in = case
    assert classify_regularity(v, q, eps, burn_in) == recurrence_window_oracle(v, q, eps, burn_in)


def _budget_array():
    v = np.tile([0.0, 1.0], 205)
    v[10] = v[-1] = 5.0
    return v


# the benchmark's quasi-periodic sequence from three start times, then the
# sequences of the classification tests above; a tuple is (beta, t0, n) of
# a cosine_lif orbit
@pytest.mark.parametrize("seq, q, eps, burn_in", [
    *[((0.25, t0, 12_000), 10, eps, 1000) for t0 in (0.0, 0.3, 0.7) for eps in (3e-4, 1e-3, 1e-2)],
    (np.full(2000, 0.7), 1, 1e-9, 100),
    ((BETA_LOCKED_7_10, 0.123, 6000), 10, 1e-6, 1000),
    ((0.25, 0.0, 6000), 10, 0.01, 1000),
    (_budget_array(), 1, 1e-9, 10),
])
def test_classify_equals_exhaustive_scan_on_samples(seq, q, eps, burn_in):
    v = iterate(cosine_lif(seq[0]), seq[1], seq[2]).isi if isinstance(seq, tuple) else seq
    assert classify_regularity(v, q, eps, burn_in) == recurrence_window_oracle(v, q, eps, burn_in)


# of the 8,250 and 35,250 start positions after burn-in
@pytest.mark.parametrize("n, most", [(12_000, 600), (48_000, 3_000)])
def test_classify_scans_few_rows_in_little_memory(monkeypatch, n, most):
    v = iterate(cosine_lif(0.25), 0.3, n).isi
    scans = []
    row_matches = isi._row_matches
    monkeypatch.setattr(isi, "_row_matches",
                        lambda v, i, eps: scans.append(i) or row_matches(v, i, eps))
    tracemalloc.start()
    try:
        res = classify_regularity(v, q=10, eps=1e-3, burn_in=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.kind == "almost-strongly-recurrent" and res.window == 410
    assert len(scans) <= most
    assert peak <= 2**20


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


def _kinks(system):
    """Where Psi of a step drive has kinks in [0, 1): the breakpoints and
    their preimages under Phi, the latter by bisection on the monotone map."""
    bs = np.asarray(system.signal.breakpoints, dtype=float)
    target = bs + np.ceil(firing_time(system, 0.0) - bs)  # in [Phi(0), Phi(0) + 1)
    lo, hi = np.zeros_like(bs), np.ones_like(bs)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = firing_times(system, mid) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.concatenate([bs, lo, hi])


@pytest.mark.parametrize("system", [
    IFSystem(1.0, parse_signal("pwc:0,3;0.3,1.5;0.7,2.2")),
    IFSystem(1.0, Sampled(2.0 + 0.8 * np.sin(2 * np.pi * np.arange(48) / 48))),
], ids=["step", "sampled"])
def test_displacement_range_on_kinked_drives(system):
    # a uniform grid misses the value at a kink by up to |Psi'| h (2e-6 for
    # the step drive at h = 2**-15), so the brute-force grid holds the kinks
    ts = np.arange(2**15) / 2**15
    if isinstance(system.signal, PiecewiseConstant):
        ts = np.concatenate([ts, _kinks(system)])
    psi = displacement(system, ts)
    g_lo, g_hi = float(psi.min()), float(psi.max())
    lo, hi = displacement_range(system)
    assert g_lo - 1e-7 <= lo <= g_lo + 1e-12
    assert g_hi - 1e-12 <= hi <= g_hi + 1e-7


def test_displacement_range_takes_few_scalar_solves(monkeypatch):
    # one regula-falsi search per extremum, a handful of scalar solves each;
    # golden-section search took 98
    calls, crossings = [], firing._crossings

    def counted(system, t0, n):
        calls.append(n)
        return crossings(system, t0, n)

    monkeypatch.setattr(firing, "_crossings", counted)
    displacement_range(cosine_lif(0.25))
    assert 0 < len(calls) <= 40


def test_displacement_range_requires_strict():
    with pytest.raises(ValueError):
        displacement_range(pi_half_on())


def _count_batches(monkeypatch) -> list:
    """Record the lane count of every batched solve, through firing's binding
    of ``_firing_batch`` and isi's own."""
    lanes, batch = [], firing._firing_batch

    def counted(system, ts, d=None):
        lanes.append(ts.size)
        return batch(system, ts, d)

    monkeypatch.setattr(firing, "_firing_batch", counted)
    monkeypatch.setattr(isi, "_firing_batch", counted)
    return lanes


def test_displacement_range_reads_the_table(monkeypatch):
    # with the warm-start table built, Psi and Psi' at its nodes cost no
    # batched solve; a 512-point grid of its own took one
    system = cosine_lif(0.25)
    firing._psi_table(system)
    lanes = _count_batches(monkeypatch)
    displacement_range(system)
    assert lanes == []


def test_isi_density_reads_the_table(monkeypatch):
    # the level-set search runs its rounds, but Psi at the 2,049 nodes is
    # not solved again
    lanes = _count_batches(monkeypatch)
    isi_density_pi(golden_pi().signal)
    assert lanes and firing._PSI_GRID + 1 not in lanes


def test_displacement_analyses_raise_on_an_empty_table():
    system = cosine_lif(0.25)
    system._psi = ()  # as when the table's solve does not converge
    with pytest.raises(NoConvergenceError, match="nodes j/2048"):
        displacement_range(system)


def test_density_names_the_strict_regime_it_needs():
    # f = a (1 + cos 2 pi t) touches 0: a nonnegative perfect integrator
    sig = TrigPolynomial(2.41421356, [(1, 2.41421356, 0.0)])
    with pytest.raises(ValueError, match=r"strict regime, ess inf\(f - sigma\) > 0") as info:
        isi_density_pi(sig)
    assert "displacement_range" not in str(info.value)
    assert "certified bound is" in str(info.value)


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


TWO_HARMONIC = TrigPolynomial(GOLDEN_A0, [(1, 0.35, 0.0), (2, 0.0, 0.2)])


@pytest.mark.parametrize("signal", [golden_pi().signal, TWO_HARMONIC], ids=["golden", "two"])
def test_psi_roots_takes_few_batched_rounds(monkeypatch, signal):
    # isi_density_pi's only batched solves are the rounds of the root search
    # (isi's own binding of firing._firing_batch); bisection took 36 rounds
    # and some 33,000 lane-solves
    rounds, batch = [], isi._firing_batch

    def counted(system, ts, d=None):
        rounds.append(ts.size)
        return batch(system, ts, d)

    monkeypatch.setattr(isi, "_firing_batch", counted)
    isi_density_pi(signal)
    assert 0 < len(rounds) <= 6
    assert sum(rounds) <= 4000


@pytest.mark.parametrize("signal", [golden_pi().signal, TWO_HARMONIC], ids=["golden", "two"])
def test_density_weight_is_the_pi_closed_form(signal):
    # at sigma = 0, mu/|Psi'| = [f(t)/mean] f(t+y)/|f(t) - f(t+y)|: the closed
    # form summed over the bisection oracle's preimages on an own Psi grid
    curve = isi_density_pi(signal)
    system = IFSystem(0.0, signal)
    ts = np.arange(2049) / 2048
    j, t = psi_roots_oracle(system, ts, displacement(system, ts), curve.y)
    ft, fphi = signal.eval_array(t), signal.eval_array(t + curve.y[j])
    weights = ft / signal.mean() * fphi / np.abs(ft - fphi)
    want = np.bincount(j, weights=weights, minlength=curve.y.size)
    assert curve.density == pytest.approx(want, rel=1e-6, abs=0.0)


@st.composite
def level_set_cases(draw):
    """A strict system (sigma = 0 with a trig drive, or sigma > 0 with a
    trig, step or sampled drive), Psi on a uniform grid of [0, 1], and
    levels y: random ones, ones next to the range ends and grid values."""
    sigma = draw(st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.5]))
    kind = "trig" if sigma == 0.0 else draw(st.sampled_from(["trig", "step", "sampled"]))
    level = st.floats(0.2, 3.0)
    if kind == "trig":
        ks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
        hs = [(k, draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))) for k in ks]
        a0 = sigma + 0.2 + sum(abs(c) + abs(s) for _, c, s in hs) + draw(st.floats(0.0, 1.0))
        signal = TrigPolynomial(a0, hs)
    elif kind == "step":
        inner = draw(st.lists(st.floats(0.01, 0.99), max_size=4, unique=True))
        breaks = [0.0] + sorted(inner)
        signal = PiecewiseConstant(breaks, [sigma + draw(level) for _ in breaks])
    else:
        signal = Sampled([sigma + draw(level) for _ in range(draw(st.integers(2, 40)))])
    system = IFSystem(sigma, signal)
    ts = np.linspace(0.0, 1.0, draw(st.sampled_from([33, 257, 2049])))
    psi = displacement(system, ts)
    lo, hi = float(psi.min()), float(psi.max())
    fracs = draw(st.lists(st.floats(0.0, 1.0), max_size=12))
    ends = [1e-12, 1e-9, 1e-6, 1e-3]
    ys = [lo + (hi - lo) * u for u in fracs + ends] + [hi - (hi - lo) * u for u in ends]
    ys += draw(st.lists(st.sampled_from(psi.tolist()), max_size=3))
    return system, ts, psi, np.array(ys)


@settings(max_examples=60, deadline=None)
@given(level_set_cases())
def test_psi_roots_match_bisection(case):
    system, ts, psi, ys = case
    j, t = isi._psi_roots(system, ts, psi, ys)
    j_ref, t_ref = psi_roots_oracle(system, ts, psi, ys)
    assert j.tolist() == j_ref.tolist()  # so the same root count for every y
    cell = np.minimum(np.searchsorted(ts, t_ref, side="right") - 1, ts.size - 2)
    assert np.all((ts[cell] <= t) & (t <= ts[cell + 1]))
    # within twice the solver's acceptance radius: one for the search's Psi,
    # one for this recomputation
    width_tol = max(1e-15, 1e-15 * firing._max_displacement(system))
    radius = firing._RESIDUAL_TOL / firing._min_slope(system) + width_tol
    assert np.all(np.abs(firing_times(system, t) - t - ys[j]) <= 2.0 * radius)


@st.composite
def slope_cases(draw):
    """A strict base system at sigma > 0 with a trig, step or sampled drive,
    and a perturbed one: a drive of the same kind at sigma > 0, or a
    nonnegative perfect integrator whose drive touches or holds 0."""
    kind = draw(st.sampled_from(["trig", "step", "sampled"]))
    level = st.floats(0.2, 3.0)

    def drive(floor, values):
        if kind == "trig":
            ks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
            hs = [(k, draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))) for k in ks]
            return TrigPolynomial(floor + sum(abs(c) + abs(s) for _, c, s in hs)
                                  + draw(st.floats(0.0, 1.0)), hs)
        if kind == "step":
            inner = draw(st.lists(st.floats(0.01, 0.99), max_size=4, unique=True))
            breaks = [0.0] + sorted(inner)
            return PiecewiseConstant(breaks, [floor + draw(values) for _ in breaks])
        return Sampled([floor + draw(values) for _ in range(draw(st.integers(2, 40)))])

    sigma = draw(st.sampled_from([0.25, 1.0, 2.5]))
    base = IFSystem(sigma, drive(sigma + 0.2, level))
    if draw(st.booleans()):
        sigma2 = draw(st.sampled_from([0.25, 1.0, 2.5]))
        return base, IFSystem(sigma2, drive(sigma2 + 0.2, level))
    if kind == "trig":
        a, k = draw(st.floats(0.5, 3.0)), draw(st.integers(1, 3))
        perturbed = TrigPolynomial(a, [(k, a, 0.0)])  # a (1 + cos 2 pi k t)
    else:
        perturbed = drive(0.0, st.sampled_from([0.0, 0.0, 0.5, 1.5, 3.0]))
        assume(min(perturbed.values) == 0.0 < perturbed.mean())
    return base, IFSystem(0.0, perturbed)


@settings(max_examples=40, deadline=None)
@given(slope_cases())
def test_slopes_match_the_scalar_oracle(case):
    base, perturbed = case
    assert base.regime is Regime.STRICT_LIF
    ts = np.linspace(0.0, 1.0, 256)
    devs, scale = [], 0.0
    for t, a, b in zip(ts.tolist(), firing_times(base, ts).tolist(),
                       firing_times(perturbed, ts).tolist()):
        try:
            da, db = slope_oracle(base, t, a), slope_oracle(perturbed, t, b)
        except NotDifferentiableError:  # where either map has no slope
            continue
        devs.append(abs(da - db))
        scale = max(scale, abs(da), abs(db))
    got = perturbation_harness(base, perturbed, orbit_len=10).sup_dphi_dev
    want = max(devs, default=0.0)
    # relative, but where the slopes nearly cancel (two constant drives) only
    # their last bits are left, so a few ulps of the slopes themselves too
    assert abs(got - want) <= 1e-12 * want + 1e-15 * scale
    # derivative: the grid, and for a step drive its jumps and points 1e-13
    # from them on either side
    for system in (base, perturbed):
        pts = ts[::5].tolist()
        if isinstance(system.signal, PiecewiseConstant):
            pts += [b + e for b in system.signal.jump_points() for e in (-1e-13, 0.0, 1e-13)]
        for t in pts:
            try:
                want = slope_oracle(system, t, firing_time(system, t))
            except NotDifferentiableError:
                with pytest.raises(NotDifferentiableError):
                    derivative(system, t)
            else:
                assert derivative(system, t) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_perturbation_harness_makes_no_scalar_evaluations():
    # both maps' slopes come from one array call each; scalar slopes made
    # two evaluations of f per grid point and system
    base, perturbed = cosine_lif(0.25), cosine_lif(0.27)
    calls = []
    for sig in (base.signal, perturbed.signal):
        kern = sig.kernel(0.0)
        sig._kernels[0.0] = lambda x, kern=kern: calls.append(x) or kern(x)
    perturbation_harness(base, perturbed, orbit_len=2000)
    assert calls == []
    base.signal.eval(0.3)  # the wrapper sees scalar evaluations
    assert calls == [0.3]


def test_perturbation_harness_identity():
    base = cosine_lif(0.25)
    rep = perturbation_harness(base, cosine_lif(0.25), orbit_len=2000)
    assert rep.sup_phi_dev == 0.0
    assert rep.sup_dphi_dev == 0.0
    assert rep.d_f_isi == 0.0


def test_perturbation_harness_decreases_with_delta():
    base = cosine_lif(0.25)
    reports = [
        perturbation_harness(base, cosine_lif(0.25 + d), orbit_len=5000)
        for d in (0.02, 0.01)
    ]
    assert reports[1].sup_phi_dev < reports[0].sup_phi_dev
    assert reports[1].sup_dphi_dev < reports[0].sup_dphi_dev
    assert reports[1].d_f_isi < reports[0].d_f_isi


def test_perturbation_from_atomic_base():
    # a Dirac-atom ISI distribution is still close to a nearby spread one
    base = cosine_lif(0.0)
    rep = perturbation_harness(base, cosine_lif(0.1), orbit_len=5000)
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
