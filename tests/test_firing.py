import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from firingmap import (
    EssentialBounds,
    IFSystem,
    IllPosedError,
    NoConvergenceError,
    NotDifferentiableError,
    PiecewiseConstant,
    Regime,
    Sampled,
    TrigPolynomial,
    check_lift,
    constant,
    derivative,
    firing,
    firing_time,
    firing_times,
    iterate,
    validate,
)

from helpers import (
    cosine_lif,
    half_on_half_off,
    pi_half_on,
    pwc_crossing_oracle,
    pwc_cumulative_oracle,
    translation_lif,
)


def test_validate_strict():
    assert validate(IFSystem(1.0, constant(2.0))) is Regime.STRICT_LIF


def test_validate_nonneg_pi():
    assert validate(pi_half_on()) is Regime.NONNEG_PI


def test_validate_rejects_zero_margin():
    with pytest.raises(IllPosedError, match="f\\(t\\) - sigma"):
        validate(IFSystem(1.0, constant(1.0)))


def test_validate_rejects_zero_mean_pi():
    with pytest.raises(IllPosedError):
        validate(IFSystem(0.0, constant(0.0)))


def test_validate_rejects_negative_pi_input():
    with pytest.raises(IllPosedError):
        validate(IFSystem(0.0, TrigPolynomial(0.5, [(1, 2.0, 0.0)])))


def test_validate_rejects_high_harmonic_dip():
    # harmonic 4096 aliases to a constant on a 4096-point grid; the true
    # ess inf(f - sigma) is 2 - 1.5 - 1 = -0.5
    with pytest.raises(IllPosedError):
        validate(IFSystem(1.0, TrigPolynomial(2.0, [(4096, 1.5, 0.0)])))


def test_validate_rejects_dip_in_the_shallower_grid_well():
    # wells near t = 1/2 and t = 5/6 are level to 1e-6; t = 1/2 lies on the
    # grid and wins there, but the true ess inf(f - sigma) near 5/6 is -4.66e-7
    system = IFSystem(1.9999996, TrigPolynomial(3.0, [(1, 0.0, 1e-6), (3, 1.0, 0.0)]))
    with pytest.raises(IllPosedError, match="-4.66"):
        validate(system)


@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_validate_keeps_an_exact_zero_minimum_nonnegative(scale):
    # min f = 0 exactly, at t = 1/2: the certified bound lies about 3e-15
    # times the scale below 0, inside the nonnegative regime's -1e-12 allowance
    system = IFSystem(0.0, TrigPolynomial(scale, [(1, scale, 0.0)]))
    assert validate(system) is Regime.NONNEG_PI
    assert -1e-12 < system.bounds.lower <= 0.0


def test_translation_firing_time():
    system = translation_lif(3)
    assert firing_time(system, 0.2) == pytest.approx(3.2, abs=1e-12)


def test_half_on_half_off_firing_times_exact():
    system = pi_half_on()
    assert firing_time(system, 0.0) == 0.5
    assert firing_time(system, 0.25) == 1.25
    assert firing_time(system, 0.75) == 1.5
    assert firing_time(system, 0.5) == 1.5
    # generic interior points: exact rational walk, correctly rounded
    for t in (0.1, 0.3, 0.499):
        assert firing_time(system, t) == 1.0 + t


def test_constant_lif_log2():
    system = IFSystem(1.0, constant(2.0))
    assert firing_time(system, 0.0) == pytest.approx(math.log(2.0), abs=1e-14)


def test_iterate_translation():
    orbit = iterate(translation_lif(3), 0.0, 4)
    assert np.allclose(orbit.times, [3.0, 6.0, 9.0, 12.0], atol=1e-12)


def test_iterate_constant_log2():
    orbit = iterate(IFSystem(1.0, constant(2.0)), 0.0, 3)
    expected = math.log(2.0) * np.arange(1, 4)
    assert np.allclose(orbit.times, expected, atol=1e-13)


def test_iterate_half_on_half_off():
    orbit = iterate(pi_half_on(), 0.0, 2)
    assert list(orbit.times) == [0.5, 1.5]
    assert list(orbit.isi) == [0.5, 1.0]


def test_pi_cumulative_formulation_agrees():
    # for sigma = 0, Phi^m(t0) is where the input integrated from t0 reaches m
    m = np.arange(1, 201)
    # dyadic steps and starts: every crossing is a float, so the identity is exact
    dyadic = PiecewiseConstant([0.0, 0.25, 0.625], [4.0, 0.5, 1.0])
    for sig, t0 in [(half_on_half_off(), 0.0), (half_on_half_off(), 0.25), (dyadic, 0.125)]:
        times = iterate(IFSystem(0.0, sig), t0, m.size).times
        c0 = pwc_cumulative_oracle(sig, Fraction(t0))
        assert [pwc_cumulative_oracle(sig, Fraction(t)) - c0 for t in times.tolist()] == m.tolist()
    strict, nonneg = TrigPolynomial(2.0, [(1, 1.0, 0.0)]), TrigPolynomial(1.0, [(1, 1.0, 0.0)])
    for sig, t0 in [(strict, 0.0), (strict, 0.71), (nonneg, 0.0), (nonneg, 0.3)]:
        times = iterate(IFSystem(0.0, sig), t0, m.size).times
        assert np.max(np.abs([sig.integral(t0, t) for t in times.tolist()] - m)) < 1e-9


def test_pi_step_cumulative_thresholds_exact():
    # one table lookup per spike: each is the correctly rounded crossing from the float before
    sig = PiecewiseConstant([0.0, 0.4], [2.6, 0.5])
    want, x = [], 0.3
    for _ in range(2000):
        x = float(pwc_crossing_oracle(sig, Fraction(x), 1))
        want.append(x)
    assert iterate(IFSystem(0.0, sig), 0.3, 2000).times.tolist() == want


def test_pi_step_slightly_negative_value_stays_leftmost():
    # ess inf f = -1e-13 passes as a perfect integrator; each period peaks at
    # its middle, 5e-14 above its mass, so from t = k the threshold is first
    # reached at k + 1/2 in the same period, not just after k + 1
    sig = PiecewiseConstant([0.0, 0.5], [2.0, -1e-13])
    system = IFSystem(0.0, sig)
    for t in (0.0, 1.0, 3.0, 0.75, 0.999999):
        assert firing_time(system, t) == float(pwc_crossing_oracle(sig, t, 1))
    assert firing_time(system, 1.0) == 1.5


def test_derivative_constant_is_one():
    system = IFSystem(1.0, constant(2.0))
    for t in (0.0, 0.37, 1.8):
        assert derivative(system, t) == pytest.approx(1.0, abs=1e-12)


def test_derivative_pi_matches_finite_differences():
    system = IFSystem(0.0, TrigPolynomial(2.0, [(1, 1.0, 0.0)]))
    h = 1e-6
    fd = (firing_time(system, h) - firing_time(system, -h)) / (2 * h)
    assert derivative(system, 0.0) == pytest.approx(fd, rel=1e-6)
    sig = system.signal
    phi0 = firing_time(system, 0.0)
    assert derivative(system, 0.0) == pytest.approx(sig.eval(0.0) / sig.eval(phi0))


def test_derivative_lif_matches_finite_differences():
    rng = np.random.default_rng(5)
    system = cosine_lif(0.25)
    h = 1e-6
    for t in rng.uniform(0, 1, 100):
        t = float(t)
        fd = (firing_time(system, t + h) - firing_time(system, t - h)) / (2 * h)
        assert derivative(system, t) == pytest.approx(fd, rel=1e-5)


def test_derivative_rejects_discontinuity():
    system = IFSystem(1.0, PiecewiseConstantFixture())
    with pytest.raises(NotDifferentiableError):
        derivative(system, 0.5)


def PiecewiseConstantFixture():
    from firingmap import PiecewiseConstant

    return PiecewiseConstant([0.0, 0.5], [2.5, 1.5])


def test_check_lift_smooth():
    assert check_lift(cosine_lif(0.25), np.linspace(0, 1, 128)) < 1e-9


def test_check_lift_discontinuous_pi():
    grid = np.linspace(0.01, 0.99, 64)
    grid = grid[np.abs(grid - 0.5) > 1e-3]  # avoid the jump points
    assert check_lift(pi_half_on(), grid) < 1e-9


def test_check_lift_constant():
    assert check_lift(IFSystem(1.0, constant(2.0)), np.linspace(0, 1, 16)) < 1e-12


def test_strict_monotonicity():
    rng = np.random.default_rng(6)
    system = cosine_lif(0.4)
    ts = np.sort(rng.uniform(-1, 2, 200))
    phis = [firing_time(system, float(t)) for t in ts]
    assert all(a < b for a, b in zip(phis, phis[1:]))


def test_nonneg_pi_monotone_nondecreasing():
    system = pi_half_on()
    ts = np.linspace(-0.5, 1.5, 101)
    phis = [firing_time(system, float(t)) for t in ts]
    assert all(b - a >= -1e-12 for a, b in zip(phis, phis[1:]))


def test_displacement_bound():
    rng = np.random.default_rng(7)
    for system in (cosine_lif(0.25), cosine_lif(0.45), translation_lif(2)):
        bound = 1.0 / system.bounds.lower + 1e-6
        for t in rng.uniform(0, 1, 50):
            d = firing_time(system, float(t)) - float(t)
            assert 0.0 < d <= bound


def test_threshold_identity_residual():
    # scaled form of the defining equation at every computed firing time
    rng = np.random.default_rng(8)
    for system in (cosine_lif(0.25), cosine_lif(0.45)):
        sig, sigma = system.signal, system.sigma
        for t in rng.uniform(0, 3, 50):
            t = float(t)
            phi = firing_time(system, t)
            res = sig.weighted_integral_scaled(sigma, t, phi - t) - 1.0
            assert abs(res) < 1e-9


def test_residual_deep_into_orbit():
    system = cosine_lif(0.25)
    orbit = iterate(system, 0.0, 5000)
    sig, sigma = system.signal, system.sigma
    for i in (0, 499, 1500, 4998):
        t = 0.0 if i == 0 else float(orbit.times[i - 1])
        phi = float(orbit.times[i])
        res = sig.weighted_integral_scaled(sigma, t, phi - t) - 1.0
        assert abs(res) < 1e-9


def test_semigroup_property():
    for system in (cosine_lif(0.2), pi_half_on()):
        two_steps = firing_time(system, firing_time(system, 0.1))
        assert two_steps == pytest.approx(iterate(system, 0.1, 2).times[1], abs=1e-9)


def test_warm_orbit_matches_cold_firing_time():
    system = cosine_lif(0.3)
    orbit = iterate(system, 0.2, 2000)
    for i in (0, 500, 1999):
        t_prev = 0.2 if i == 0 else float(orbit.times[i - 1])
        assert firing_time(system, t_prev) == float(orbit.times[i])


def test_pi_left_continuity_at_jump():
    system = pi_half_on()
    # left limit equals the value; right limit jumps by 1/2
    for h in (1e-4, 1e-7, 1e-10):
        assert firing_time(system, -h) == pytest.approx(0.5, abs=2 * h + 1e-12)
        assert firing_time(system, h) == pytest.approx(1.0 + h, abs=1e-12)
    assert firing_time(system, 0.0) == 0.5


def test_optimistic_bounds_bracket_is_certified():
    # 1/lower = 0.1 is far below the true interspike intervals (~0.7); the
    # solver must widen the bracket instead of returning its edge
    system = cosine_lif(0.25)
    system._bounds = EssentialBounds(10.0, 3.0)
    orbit = iterate(system, 0.0, 20)
    starts = np.concatenate([[0.0], orbit.times[:-1]])
    sig, sigma = system.signal, system.sigma
    for t, phi in zip(starts.tolist(), orbit.times.tolist()):
        assert firing_time(system, t) == pytest.approx(phi, abs=1e-10)
        assert abs(sig.weighted_integral_scaled(sigma, t, phi - t) - 1.0) < 1e-9


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
def test_newton_two_cycle_is_broken(batched):
    # plain safeguarded Newton alternates between d = 0.236 and 0.467 after
    # t = 0.6661 (and after 40 of these 100 neighbours), each candidate
    # landing inside the bracket
    system = IFSystem(1.0, TrigPolynomial(3.23125, [(1, 0.0625, 0.0), (4, 1.0, 0.5)]))
    ts = (0.6661 + np.arange(-50, 51) * 2e-5).tolist()
    phi = firing_times(system, ts).tolist() if batched else [firing_time(system, t) for t in ts]
    for t, x in zip(ts, phi):
        assert abs(system.signal.weighted_integral_scaled(1.0, t, x - t) - 1.0) < 1e-9


@pytest.mark.parametrize("t, expected", [(0.1, 0.625), (0.8, 1.625), (0.9, 1.625)])
def test_sampled_pi_zero_run_leftmost_crossing(t, expected):
    # the input's whole mass arrives by 5/8 and then stays zero up to 1 + 1/4,
    # so every crossing on that plateau is its left end, a grid node
    system = IFSystem(0.0, Sampled([0, 0, 0, 4, 4, 0, 0, 0]))
    assert validate(system) is Regime.NONNEG_PI
    assert firing_time(system, t) == pytest.approx(expected, abs=1e-12)
    assert iterate(system, t, 3).times == pytest.approx(expected + np.arange(3), abs=1e-12)


def test_sampled_system_runs():
    values = 2.0 + 0.5 * np.cos(2 * np.pi * np.arange(64) / 64)
    system = IFSystem(1.0, Sampled(values))
    assert validate(system) is Regime.STRICT_LIF
    phi = firing_time(system, 0.0)
    # close to the trig system it samples
    ref = firing_time(cosine_lif(0.25), 0.0)
    assert phi == pytest.approx(ref, abs=1e-3)
    assert check_lift(system, np.linspace(0, 1, 16)) < 1e-9


def test_pwc_lif_walk():
    from firingmap import PiecewiseConstant

    sig = PiecewiseConstant([0.0, 0.5], [2.5, 1.5])
    system = IFSystem(1.0, sig)
    assert validate(system) is Regime.STRICT_LIF
    t = 0.2
    phi = firing_time(system, t)
    res = sig.weighted_integral_scaled(1.0, t, phi - t) - 1.0
    assert abs(res) < 1e-12
    orbit = iterate(system, 0.0, 50)
    assert np.all(np.diff(orbit.times) > 0)
    assert check_lift(system, np.linspace(0.01, 0.95, 13)) < 1e-9


def test_orbit_finite_in_bounded_interval():
    orbit = iterate(cosine_lif(0.45), 0.0, 300)
    inside = np.sum((orbit.times >= 0) & (orbit.times <= 30))
    assert inside < 300  # displacements are bounded below, times escape


def test_derivative_pwc_at_continuous_points():
    from firingmap import PiecewiseConstant

    sig = PiecewiseConstant([0.0, 0.5], [2.5, 1.5])
    system = IFSystem(1.0, sig)
    t = 0.2
    h = 1e-7
    fd = (firing_time(system, t + h) - firing_time(system, t - h)) / (2 * h)
    assert derivative(system, t) == pytest.approx(fd, rel=1e-4)


def test_iterate_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        iterate(translation_lif(1), 0.0, 0)


NONFINITE_SYSTEMS = {
    "trig-lif": lambda: cosine_lif(0.25),
    "step-pi": pi_half_on,  # the exact lookup, which used to raise OverflowError
}
ENTRY_POINTS = {
    "iterate": lambda system, t: iterate(system, t, 3),
    "firing_time": firing_time,
    "firing_times": lambda system, t: firing_times(system, [0.5, t]),
    "displacement": firing.displacement,
}


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e17, -1e17, 2.0**52])
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize("make", NONFINITE_SYSTEMS.values(), ids=NONFINITE_SYSTEMS.keys())
def test_nonfinite_start_times_are_refused(make, entry, t):
    # iterate from inf returned [inf inf inf], and firing_times a nan with a
    # warning; from 1e17 iterate returned [1e17]*3, and from 2**52 every ISI was 1
    need = "be finite" if not math.isfinite(t) else "lie within |t| <= 2**40"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"must {need}, got {t!r}")):
            entry(make(), t)


def test_start_times_up_to_the_bound_are_accepted():
    system = cosine_lif(0.25)
    for t in (2.0**40, -(2.0**40)):
        assert 0.5 < firing_time(system, t) - t < 1.0
        assert 0.5 < firing_times(system, [t])[0] - t < 1.0


def test_check_lift_nonneg_pi_trig():
    sig = TrigPolynomial(1.0, [(1, 1.0, 0.0)])
    assert check_lift(IFSystem(0.0, sig), np.linspace(0.05, 0.95, 16)) < 1e-9


def test_warm_orbit_with_sine_harmonics():
    # the fused orbit loop shares sines/cosines between the residual and its
    # derivative; a sign slip there would only show with sine coefficients
    sig = TrigPolynomial(2.0, [(1, 0.4, 0.35), (3, -0.1, 0.15)])
    for sigma in (1.0, 0.0):
        system = IFSystem(sigma, sig)
        orbit = iterate(system, 0.17, 400)
        for i in (0, 37, 200, 399):
            t_prev = 0.17 if i == 0 else float(orbit.times[i - 1])
            assert firing_time(system, t_prev) == float(orbit.times[i])
        res = sig.weighted_integral_scaled(
            sigma, float(orbit.times[-2]), float(orbit.times[-1] - orbit.times[-2])
        )
        assert res == pytest.approx(1.0, abs=1e-10)


def _never_fires():
    # the drive is negative throughout, so the threshold is never reached;
    # forced optimistic bounds let the system through validation
    system = IFSystem(0.0, TrigPolynomial(-1.0, [(1, 0.5, 0.0)]))
    system._bounds = EssentialBounds(10.0, 3.0)
    return system


@pytest.mark.parametrize("solve", [
    firing_time,
    lambda system, t: firing_times(system, [t, t + 0.5]),
], ids=["scalar", "batched"])
@pytest.mark.parametrize("max_iter, failure", [
    (200, "did not converge"),  # the iteration budget runs out first
    (20_000, "could not bracket"),  # the bracket doubles 80 times first
])
def test_no_convergence_names_t_bracket_and_residual(monkeypatch, solve, max_iter, failure):
    monkeypatch.setattr(firing, "_MAX_ITER", max_iter)
    with pytest.raises(NoConvergenceError, match=failure) as err:
        solve(_never_fires(), 0.25)
    number = r"[-+.e\d]+"
    assert re.search(rf"after t=0\.25: bracket \[{number}, {number}\], residual {number}",
                     str(err.value))


def test_pwc_walk_no_convergence_names_t_bracket_and_residual():
    sig = PiecewiseConstant([0.0], [0.1])
    bs, cs, tops = sig._table(2)  # the scale of t = 0.25
    # an overstated running maximum: the lookup lands one period early, on a
    # segment whose end falls 0.025 short of the target
    tops[-1] = 2 * cs[-1]
    with pytest.raises(NoConvergenceError) as err:
        firing_time(IFSystem(0.0, sig), 0.25)
    assert "after t=0.25: bracket [9.0, 10.0], residual -2.500e-02" in str(err.value)


ORBIT_SYSTEMS = {
    "trig-lif": lambda: IFSystem(1.0, TrigPolynomial(2.0, [(1, 0.5, 0.0)])),
    "trig-strict-pi": lambda: IFSystem(0.0, TrigPolynomial(2.6, [(1, 0.5, 0.3)])),
    "step-lif": lambda: IFSystem(1.0, PiecewiseConstant([0.0, 0.3, 0.7], [3.0, 1.5, 2.2])),
    "sampled-lif": lambda: IFSystem(
        1.0, Sampled(2.0 + 0.8 * np.sin(2 * np.pi * np.arange(48) / 48))),
}


def _count_kernel_calls(system):
    """Wrap the scalar kernel of the system's drive with a call counter."""
    sig, sigma = system.signal, system.sigma
    kern, calls = sig.kernel(sigma), [0]

    def counted(x):
        calls[0] += 1
        return kern(x)

    sig._kernels[sigma] = counted
    return calls


@pytest.mark.parametrize("make", ORBIT_SYSTEMS.values(), ids=ORBIT_SYSTEMS.keys())
def test_orbit_warm_start_table_saves_kernel_evaluations(make):
    # the orbit starts each solve from the cached table of Psi: few kernel
    # evaluations per spike, and the table is built once, by the first solve
    system = make()
    validate(system)
    assert system._psi is None
    calls = _count_kernel_calls(system)
    iterate(system, 0.1, 5000)
    table = system._psi
    assert [len(c) for c in table] == [firing._PSI_GRID] * 4
    assert calls[0] <= 2.5 * 5000
    iterate(system, 0.4, 10)
    assert system._psi is table


def _kink_cells(system, nodes, phi):
    """Cells [nodes_j, nodes_{j+1}] whose start or firing time crosses a kink of the drive."""
    sig, kinks = system.signal, np.empty(0)  # a trigonometric drive has none
    if isinstance(sig, PiecewiseConstant):
        kinks = np.asarray(sig.breakpoints, dtype=float)
    elif isinstance(sig, Sampled):
        kinks = np.arange(sig.values.size) / sig.values.size
    out = np.zeros(nodes.size - 1, dtype=bool)
    for ends in (nodes, phi):
        a, b = ends[:-1, None] - kinks, ends[1:, None] - kinks
        out |= (np.ceil(a) <= np.floor(b)).any(axis=1)  # some kink + k lies in [a, b]
    return out


@pytest.mark.parametrize("name", ORBIT_SYSTEMS)
def test_psi_table_interpolates_the_displacement(name):
    # c0 holds Psi at the nodes j/_PSI_GRID as the batched solve returns it.
    # At each cell's midpoint the cubic is within 1e-9 of a cold solve
    # wherever Psi is smooth on the cell (1e-7 for the sampled drive, whose
    # 48 linear pieces give Psi a large fourth derivative), and a warm start
    # within 1e-3 on the cells where the start or the firing time crosses a
    # kink of a piecewise drive
    system = ORBIT_SYSTEMS[name]()
    c0, c1, c2, c3 = (np.asarray(c) for c in firing._psi_table(system))
    nodes = np.arange(firing._PSI_GRID + 1) / firing._PSI_GRID
    psi = firing.displacement(system, nodes)
    assert c0.tolist() == psi[:-1].tolist()
    mids = (nodes[:-1] + nodes[1:]) / 2
    warm = c0 + 0.5 * (c1 + 0.5 * (c2 + 0.5 * c3))
    err = np.abs(warm - [firing_time(system, t) - t for t in mids.tolist()])
    kink = _kink_cells(system, nodes, nodes + psi)
    assert kink.mean() < 0.15
    assert err[~kink].max() < (1e-7 if name == "sampled-lif" else 1e-9)
    assert err.max() < 1e-3


@pytest.mark.parametrize("name", ["trig-lif", "trig-strict-pi", "step-lif"])
def test_far_orbit_certificate_saves_kernel_evaluations(name):
    # at t ~ 5e4 no residual test can pass; the slope certificate accepts the
    # first iterate within width_tol/4 of the crossing, where the bracket
    # test would narrow the bracket and evaluate once more at its midpoint
    system = ORBIT_SYSTEMS[name]()
    calls = _count_kernel_calls(system)
    iterate(system, 5e4 + 0.1, 3000)
    assert calls[0] <= 1.1 * 3000


@pytest.mark.parametrize("name, most", [("trig-lif", 1.3), ("trig-strict-pi", 1.05)])
def test_near_orbit_accepts_the_first_iterate(name, most):
    # near t = 0 the residual test needs a start within about 1e-13 of the
    # crossing; the 2,048-cell table gives one on nearly every spike
    system = ORBIT_SYSTEMS[name]()
    calls = _count_kernel_calls(system)
    iterate(system, 0.1, 5000)
    assert calls[0] <= most * 5000


@pytest.mark.parametrize("name", ORBIT_SYSTEMS)
def test_cold_orbit_opens_the_bracket_at_the_first_rejected_iterate(name):
    # without the table every spike starts at half the bound and rejects its
    # first iterate, so every step runs the bracketed iteration
    warm, cold = ORBIT_SYSTEMS[name](), ORBIT_SYSTEMS[name]()
    cold._psi = ()
    calls = _count_kernel_calls(cold)
    orbit = iterate(cold, 0.1, 200)
    assert calls[0] >= 2 * 200
    starts = np.concatenate([[0.1], orbit.times[:-1]])
    for t, phi in zip(starts.tolist(), orbit.times.tolist()):
        assert phi == pytest.approx(firing_time(warm, t), abs=1e-12)


def _near_marginal():
    # ess inf(f - sigma) = 9.8e-6: the cold start d = 1/(2 ess inf) ~ 5e4
    # overflows exp(sigma*d)
    return IFSystem(1.0, Sampled(2.0 + np.sin(np.arange(48))))


def test_cold_solve_counts_exp_overflow_as_above_threshold():
    warm, cold = _near_marginal(), _near_marginal()
    cold._psi = ()  # no warm-start table: every solve starts at d ~ 5e4
    for t in (0.1, 0.5, 3.7, 1e4 + 0.3):
        assert firing_time(cold, t) == pytest.approx(firing_time(warm, t), abs=1e-12)
    orbit = iterate(cold, 0.2, 50)
    starts = np.concatenate([[0.2], orbit.times[:-1]])
    for t, phi in zip(starts.tolist(), orbit.times.tolist()):
        assert phi == pytest.approx(firing_time(warm, t), abs=1e-12)


def test_batched_solve_counts_exp_overflow_as_above_threshold():
    system = _near_marginal()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = firing_times(system, [0.1, 0.5])
    assert phi.tolist() == pytest.approx([firing_time(system, 0.1), firing_time(system, 0.5)],
                                         abs=1e-12)


def test_cold_batched_solve_counts_exp_overflow_as_above_threshold():
    warm, cold = _near_marginal(), _near_marginal()
    cold._psi = ()  # no warm-start table: every lane starts at d ~ 5e4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = firing_times(cold, [0.1, 0.5])
    assert phi.tolist() == pytest.approx(firing_times(warm, [0.1, 0.5]).tolist(), abs=1e-12)


# off the table nodes: in one period, a period away and far out
OFF_NODE = np.concatenate([np.random.default_rng(0).random(1025),
                           57.0 + np.random.default_rng(1).random(512),
                           5e4 + np.random.default_rng(2).random(512)])


@pytest.mark.parametrize("name", ORBIT_SYSTEMS)
def test_batched_solve_does_not_depend_on_call_history(name):
    # a batched call builds the table it starts from, so it returns the same
    # floats whether or not an earlier orbit built the table
    fresh, used = ORBIT_SYSTEMS[name](), ORBIT_SYSTEMS[name]()
    iterate(used, 0.1, 10)
    assert fresh._psi is None and used._psi
    assert firing_times(fresh, OFF_NODE).tobytes() == firing_times(used, OFF_NODE).tobytes()


def test_perturbation_harness_does_not_depend_on_call_history():
    from firingmap import perturbation_harness

    def report(used):
        base, perturbed = cosine_lif(0.25), cosine_lif(0.27)
        if used:
            iterate(base, 0.1, 10), iterate(perturbed, 0.1, 10)
        rep = perturbation_harness(base, perturbed, grid_size=256, orbit_len=2000)
        return np.array([rep.sup_phi_dev, rep.sup_dphi_dev, rep.d_f_isi]).tobytes()

    assert report(used=False) == report(used=True)


@pytest.mark.parametrize("name", [*ORBIT_SYSTEMS, "trig-nonneg-pi"])
def test_warm_batched_solve_saves_kernel_evaluations(name):
    # from the table's cubic about two lane-evaluations per lane, counting
    # the one for Q(t); a cold start at half the bound takes 4.5 to 7.6
    make = ORBIT_SYSTEMS.get(name, lambda: IFSystem(0.0, TrigPolynomial(2.0, [(1, 2.0, 0.0)])))
    system = make()
    assert firing._psi_table(system)
    sig, sigma = system.signal, system.sigma
    kern, lanes = sig.kernel_array(sigma), [0]

    def counted(xs):
        lanes[0] += xs.size
        return kern(xs)

    sig._kernel_arrays[sigma] = counted
    phi = firing_times(system, OFF_NODE)
    assert lanes[0] <= 2.5 * OFF_NODE.size
    assert phi.tolist() == pytest.approx([firing_time(system, t) for t in OFF_NODE.tolist()],
                                         abs=1e-12)
