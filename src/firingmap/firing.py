"""The firing map of periodically driven linear integrate-and-fire systems.

A system ``dx/dt = -sigma*x + f(t)`` with threshold 1 and reset 0 fires at
the first time the solution started from (t, 0) reaches 1.  That firing time
solves

    exp(sigma*t) = integral_t^{Phi(t)} [f(u) - sigma] exp(sigma*u) du,

and the solver below works with the equivalent scaled form (divide both
sides by exp(sigma*t)), which stays well-conditioned for arbitrarily large
t.  Two regimes are supported:

* strict: ess inf(f - sigma) > 0, where the firing map is the lift of an
  orientation-preserving circle homeomorphism and displacements are bounded
  by 1/ess inf(f - sigma);
* nonnegative perfect integrator: sigma = 0 with f >= 0 a.e. and positive
  mean, where the map is non-decreasing and left continuous but may jump.

One solver loop, in :func:`_crossings`, finds every scalar crossing: a
warm-started safeguarded Newton iteration on the signal's periodic
antiderivative (:meth:`PeriodicSignal.kernel`), one pass of the loop per
spike, used by :func:`firing_time` and :func:`iterate`.  Its lane-wise copy
on numpy arrays, :func:`_newton_batch`, serves :func:`firing_times`, the map
on a whole grid of start times.  The one exception is a piecewise-constant
drive with sigma = 0, whose crossings are found exactly, one lookup each, in
the signal's scaled-integer prefix table (:func:`_pi_pwc_crossing`).

Both accept a displacement d by one of four tests, which the scalar loop
runs in this order: the slope certificate, a small residual, a Newton step
that rounds back to t + d, and a bracket narrowed to the resolution
``width_tol`` of t + d.  The first two need only g and g'; the scalar loop
computes the Newton step only when both fail, and opens the bracket only
when the first iterate is rejected.  In the strict regime
g' >= L = ess inf(f - sigma) on d >= 0, so |g(d)| < L*width_tol/4 proves
the crossing lies within width_tol/4 of d, half what the bracket test's
midpoint guarantees.  Far from t = 0, where no
residual test can pass, the certificate accepts the first Newton iterate
that lands that close.  L is 0 for the nonnegative perfect integrator,
where the certificate never fires.

Every Newton solve, scalar or batched, starts from the displacement Psi =
Phi - Id, which is 1-periodic: the cubic Hermite interpolant at t mod 1
through Psi and Psi' at the nodes j/2048, kept as four polynomial
coefficients per cell and built by the first solve as one cold batched
solve (:func:`_psi_table`).  The table only supplies the start; the
solver's own tests accept the answer.  An orbit step therefore equals the
cold solve :func:`firing_time` from the previous spike, bit for bit, and a
lane of :func:`firing_times` does too for sigma = 0; for sigma > 0 numpy's
exp, log1p and expm1 may round a last bit unlike math's.

Firing times are absolute; nothing here reduces orbits mod 1, so a start
time must be finite and within |t| <= 2**40, or :class:`ValueError` is
raised: at t = 2**48 the spacing of floats is 1/16 and the mean ISI of a
trig LIF orbit reads 0.667 instead of 0.696; at 2**52 every ISI is 1.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import IllPosedError, NoConvergenceError, NotDifferentiableError
from .signals import EssentialBounds, PeriodicSignal, PiecewiseConstant, Sampled

_STRICT_TOL = 1e-9  # ess inf(f - sigma) must clear this to count as strict
_RESIDUAL_TOL = 1e-13  # scaled threshold-equation residual at convergence
_MAX_ITER = 200
_PSI_GRID = 2048  # cells of the warm-start table of Psi over one period
_MAX_START = 2.0**40  # past it, t + d keeps too few bits of d for a faithful orbit


class Regime(Enum):
    STRICT_LIF = "strict-lif"
    NONNEG_PI = "nonneg-pi"


class IFSystem:
    """An integrate-and-fire system: leak rate sigma >= 0 plus a 1-periodic drive.

    Threshold and reset are fixed at 1 and 0.  Construction never fails;
    call :func:`validate` (or read :attr:`regime`) to check well-posedness.
    """

    def __init__(self, sigma: float, signal: PeriodicSignal):
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        self.sigma = float(sigma)
        self.signal = signal
        self._bounds: EssentialBounds | None = None
        self._regime: Regime | None = None
        self._psi: tuple | None = None  # see _psi_table

    def __repr__(self):
        return f"IFSystem(sigma={self.sigma!r}, signal={self.signal!r})"

    @property
    def bounds(self) -> EssentialBounds:
        if self._bounds is None:
            self._bounds = self.signal.essential_bounds(self.sigma)
        return self._bounds

    @property
    def regime(self) -> Regime:
        if self._regime is None:
            self._regime = validate(self)
        return self._regime

    @property
    def is_pi(self) -> bool:
        return self.sigma == 0.0


def validate(system: IFSystem) -> Regime:
    """Classify a system or reject it.

    Strict regime requires ess inf(f - sigma) > 0.  The perfect-integrator
    fallback requires sigma = 0, f >= 0 a.e. and a positive mean (the
    cumulative input then grows without bound, so every start time fires).
    Anything else raises :class:`IllPosedError`.
    """
    b = system.bounds
    if b.lower > _STRICT_TOL:
        return Regime.STRICT_LIF
    if system.sigma == 0.0:
        if b.lower >= -1e-12:
            mean = system.signal.mean()
            if mean > 0.0:
                return Regime.NONNEG_PI
            raise IllPosedError(
                f"ill-posed system: sigma=0 with mean input {mean:.6g} <= 0; "
                "the cumulative input never reaches the threshold"
            )
        raise IllPosedError(
            f"ill-posed system: sigma=0 but ess inf f = {b.lower:.6g} < 0; "
            "the input must be nonnegative almost everywhere"
        )
    raise IllPosedError(
        f"ill-posed system: ess inf(f - sigma) = {b.lower:.6g} is not positive; "
        "the input must satisfy f(t) - sigma > 0 almost everywhere"
    )


@dataclass(frozen=True)
class Orbit:
    """A start time and the following firing times t_1 < t_2 < ..."""

    t0: float
    times: np.ndarray = field(repr=False)

    def __len__(self):
        return len(self.times)

    @property
    def isi(self) -> np.ndarray:
        """Interspike intervals, including t_1 - t_0."""
        return np.diff(self.times, prepend=self.t0)

    @property
    def phases(self) -> np.ndarray:
        """Firing times reduced mod 1."""
        return self.times - np.floor(self.times)


def _max_displacement(system: IFSystem) -> float:
    lo = system.bounds.lower
    if lo > _STRICT_TOL:
        return 1.0 / lo + 1e-9
    # nonneg PI: the threshold's mass arrives within ceil(1/mean)+1 periods
    return 1.0 / system.signal.mean() + 2.0


def _min_slope(system: IFSystem) -> float:
    """L of the slope certificate: ess inf(f - sigma), or 0 outside the strict regime."""
    lower = system.bounds.lower
    return lower if lower > _STRICT_TOL else 0.0  # validate's test for the strict regime


def _newton_batch(system: IFSystem, kern, ts, q0, d=None):
    """Displacements d > 0 of the first crossings after resets at every ts.

    Solves g(d) = 0 lane by lane for g(d) = exp(sigma*d) Q(t+d) - Q(t) - 1
    (sigma > 0) or mean*d + Q(t+d) - Q(t) - 1 (sigma = 0), where
    ``(Q, f) = kern(x)`` is the signal's :meth:`PeriodicSignal.kernel_array`
    and ``q0 = Q(ts)``; g' is (f - sigma) exp(sigma*d) or f, all at the
    float x = t + d (d is taken as x - t).  Safeguarded Newton from the
    optional warm starts ``d`` inside a bracket [lo, hi]: a Newton step is
    taken only when it stays inside and is at most half the step before
    the previous one, otherwise the bracket is bisected (the ``rtsafe``
    rule, which breaks Newton 2-cycles).  A step within the resolution
    ``width_tol`` of t + d is always taken: it can only be rounding noise,
    and bisecting a one-sided bracket for it would cost some 40
    iterations.  The upper end starts at the bound from the essential
    bounds, which is trusted only until the iteration runs into it: then
    it doubles, at most 80 times.  An exp(sigma*d) that overflows counts as
    above the threshold.  So every lane ends on a residual within
    tolerance, a slope certificate, a Newton step that rounds back to x or
    a bracket whose ends were both evaluated, and drops out there.  The
    scalar loop of :func:`_crossings` takes the same steps, tests and
    budget, with math.exp and math.log1p for np.exp and np.log1p.
    """
    sigma, mean, hi = system.sigma, system.signal.mean(), _max_displacement(system)
    n = ts.size
    out, lane, t = np.empty(n), np.arange(n), ts
    d = np.full(n, 0.5 * hi) if d is None else np.where((0.0 < d) & (d < hi), d, 0.5 * hi)
    # t + d is representable only to ulp(t); don't demand finer than that
    width_tol = np.maximum(max(1e-15, 1e-15 * hi), 8e-16 * np.abs(t))
    cert = 0.25 * width_tol * _min_slope(system)
    lo, hi = np.zeros(n), np.full(n, hi)
    top, doublings = hi, np.zeros(n, dtype=int)  # g(top) >= 0 is unverified
    step = step_old = hi  # the previous step and the one before
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_ITER):
            d = (x := t + d) - t  # the float x's own displacement (exact for d <= |t|)
            q1, fx = kern(x)
            if sigma > 0.0:
                e = np.exp(sigma * d)
                g = np.where(e < np.inf, e * q1 - q0 - 1.0, np.inf)
                dg = (fx - sigma) * e
                r = np.where(dg > 0.0, sigma * g / dg, 1.0)
                cand = np.where(r < 1.0, d + np.log1p(-r) / sigma, -1.0)
            else:
                g = mean * d + q1 - q0 - 1.0
                dg = fx
                cand = np.where(dg > 0.0, d - g / dg, -1.0)
            ag = np.abs(g)
            done = ((ag < cert) | ((ag <= _RESIDUAL_TOL * dg) & (ag <= _RESIDUAL_TOL))
                    | (t + cand == x))
            above = g > 0.0
            hi = np.where(above, d, hi)
            lo = np.where(above, lo, d)
            narrow = hi - lo <= width_tol
            grow = (hi == top) & ((cand >= hi) | narrow) & ~done
            if grow.any():
                doublings = doublings + grow
                if doublings.max() > 80:
                    k = int(np.argmax(doublings > 80))
                    raise NoConvergenceError(
                        f"could not bracket the firing time after t={float(t[k])!r}: "
                        f"bracket [{float(lo[k])!r}, {float(hi[k])!r}], residual {g[k]:.3e}"
                    )
                top = np.where(grow, 2.0 * top, top)
                hi = np.where(grow, top, hi)
                narrow &= ~grow
            narrow &= ~done
            mid = 0.5 * (lo + hi)
            out[lane[done]] = d[done]
            out[lane[narrow]] = mid[narrow]
            dx = np.abs(cand - d)
            newton = (lo < cand) & (cand < hi) & ((dx + dx <= step_old) | (dx <= width_tol))
            step_old, step = step, np.where(newton, dx, 0.5 * (hi - lo))
            d = np.where(newton, cand, mid)
            keep = ~(done | narrow)
            if not keep.all():
                lane, t, q0, d, lo, hi, top, doublings, width_tol, cert, g, step, step_old = (
                    a[keep] for a in
                    (lane, t, q0, d, lo, hi, top, doublings, width_tol, cert, g, step, step_old))
            if not lane.size:
                return out
    raise NoConvergenceError(
        f"firing-time iteration did not converge after t={float(t[0])!r}: "
        f"bracket [{float(lo[0])!r}, {float(hi[0])!r}], residual {g[0]:.3e}"
    )


def _zero_run_start(sig: Sampled, x: float, g_at) -> float:
    """Left grid node of a zero run of ``sig`` that x lies on or next to.

    The cumulative input is flat on a zero run, so when the run's left node
    meets the threshold to tolerance (``|g_at(node)|``), it is the leftmost
    crossing.  Any other x is returned unchanged.
    """
    v, n = sig.values, sig.values.size

    def zero(i):  # whether the grid cell [i/n, (i+1)/n] is a zero run
        return v[i % n] == 0.0 and v[(i + 1) % n] == 0.0

    j = math.floor(x * n)  # x lies in the cell [j/n, (j+1)/n)
    if zero(j + 1):
        j += 1
    elif not (zero(j) or zero(j - 1)):
        return x
    while zero(j - 1):
        j -= 1
    node = j / n
    return node if abs(g_at(node)) <= _RESIDUAL_TOL else x


def _psi_table(system: IFSystem) -> tuple:
    """Per-cell coefficients (c0, c1, c2, c3) of the cubic Hermite interpolant of Psi.

    On the cell [j, j+1]/_PSI_GRID the warm start at s = t*_PSI_GRID - j is
    c0 + s*(c1 + s*(c2 + s*c3)), with c0 = Psi_j, c1 = m_j,
    c2 = 3*D - 2*m_j - m_{j+1} and c3 = m_j + m_{j+1} - 2*D, where
    m = Psi'/_PSI_GRID and D = Psi_{j+1} - Psi_j: four ``array('d')`` of
    _PSI_GRID entries, built for the first scalar or batched solve by one
    cold batched solve of Psi on the grid.  Psi' comes from
    :func:`_psi_slope` and is 0 where not finite (f(Phi) = 0, a jump).
    Empty when that solve fails: every solve then starts cold.
    """
    if system._psi is None:
        kern = system.signal.kernel_array(system.sigma)
        ts = np.arange(_PSI_GRID + 1) / _PSI_GRID
        try:
            psi = _newton_batch(system, kern, ts, kern(ts)[0])
        except NoConvergenceError:
            system._psi = ()
            return ()
        dpsi = _psi_slope(system, ts, psi)
        dpsi[~np.isfinite(dpsi)] = 0.0
        m, dy = dpsi / _PSI_GRID, np.diff(psi)
        m0, m1 = m[:-1], m[1:]
        coef = psi[:-1], m0, 3.0 * dy - 2.0 * m0 - m1, m0 + m1 - 2.0 * dy
        system._psi = tuple(array("d", c.tobytes()) for c in coef)
    return system._psi


def _psi_slope(system: IFSystem, ts: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Psi' = f(t)/(f(Phi) - sigma) e^{-sigma Psi} - 1 at ts, given psi = Psi(ts):
    :func:`_slope`'s formula, unchecked, so one-sided at a jump of the input
    (inf or nan where f(Phi) = sigma)."""
    f, sigma = system.signal.eval_array, system.sigma
    with np.errstate(divide="ignore", invalid="ignore"):
        return f(ts) / (f(ts + psi) - sigma) * np.exp(-sigma * psi) - 1.0


def _crossings(system: IFSystem, t0: float, n: int) -> np.ndarray:
    """The n firing times of the orbit from t0.

    One pass of the spike loop is one lane of :func:`_newton_batch`, and
    returns Q(t + d) beside d for the next spike.  A step starts from the
    cubic of the cell of :func:`_psi_table` that holds t mod 1, in Horner
    form, or at half the bound when the table is empty or the cubic leaves
    (0, bound).  Everything that does not change from spike to spike is
    bound to a local before the loop.  See :func:`_check_start` for t0.
    """
    _check_start(t0)
    system.regime  # validates
    sig, sigma = system.signal, system.sigma
    times = np.empty(n)
    if isinstance(sig, PiecewiseConstant) and sigma == 0.0:
        t = t0
        for i in range(n):
            t = times[i] = _pi_pwc_crossing(sig, t)
        return times
    kern, mean, slope = sig.kernel(sigma), sig.mean(), _min_slope(system)
    exp, log1p, inf, rtol, iters = math.exp, math.log1p, math.inf, _RESIDUAL_TOL, range(_MAX_ITER)
    snap = isinstance(sig, Sampled) and sigma == 0.0
    c0, c1, c2, c3 = _psi_table(system) or (None,) * 4
    dmax = _max_displacement(system)
    half, floor, grid = 0.5 * dmax, max(1e-15, 1e-15 * dmax), float(_PSI_GRID)
    t, q0 = t0, kern(t0)[0]
    for i in range(n):
        d = half
        if c0:
            x = t % 1.0 * grid
            # t % 1.0 is 1.0 for tiny negative t
            j = int(x) if x < grid else _PSI_GRID - 1
            s = x - j
            y = c0[j] + s * (c1[j] + s * (c2[j] + s * c3[j]))
            if 0.0 < y < dmax:  # not nan
                d = y
        # t + d is representable only to ulp(t); don't demand finer than that
        width_tol = 8e-16 * t if t > 0.0 else -8e-16 * t
        if width_tol < floor:
            width_tol = floor
        cert = 0.25 * width_tol * slope
        for k in iters:
            d = (x := t + d) - t  # the float x's own displacement (exact for d <= |t|)
            q1, fx = kern(x)
            if sigma > 0.0:
                try:
                    e = exp(sigma * d)
                except OverflowError:  # far past the crossing
                    g = dg = inf
                else:
                    g = e * q1 - q0 - 1.0
                    dg = (fx - sigma) * e
            else:
                g = mean * d + q1 - q0 - 1.0
                dg = fx
            ag = g if g > 0.0 else -g
            # the slope certificate, or |g| and |g/g'| within tolerance
            if ag < cert or ag <= rtol * dg and ag <= rtol:
                break
            if sigma > 0.0:
                # Newton in exp(sigma*d), in which g is affine on every step piece
                r = sigma * g / dg if dg > 0.0 else 1.0  # nan past an overflow
                cand = d + log1p(-r) / sigma if r < 1.0 else -1.0
            else:
                cand = d - g / dg if dg > 0.0 else -1.0
            if t + cand == x:  # Newton stays at x
                break
            if not k:  # the first rejected iterate opens the bracket
                lo, hi, top, doublings = 0.0, dmax, dmax, 0  # g(top) >= 0 is unverified
                step = step_old = dmax  # the previous step and the one before
            if g > 0.0:
                hi, dx = d, d - cand
            else:
                lo, dx = d, cand - d
            if hi == top and (cand >= hi or hi - lo <= width_tol):
                # the crossing may lie past the unverified end: the bound was optimistic
                doublings += 1
                if doublings > 80:
                    raise NoConvergenceError(
                        f"could not bracket the firing time after t={t!r}: "
                        f"bracket [{lo!r}, {hi!r}], residual {g:.3e}"
                    )
                hi = top = 2.0 * top
            elif hi - lo <= width_tol:
                d = (x := t + 0.5 * (lo + hi)) - t
                q1 = kern(x)[0]
                break
            if lo < cand < hi and (dx + dx <= step_old or dx <= width_tol):
                step_old, step, d = step, dx, cand
            else:
                step_old, step, d = step, 0.5 * (hi - lo), 0.5 * (lo + hi)
        else:
            raise NoConvergenceError(
                f"firing-time iteration did not converge after t={t!r}: "
                f"bracket [{lo!r}, {hi!r}], residual {g:.3e}"
            )
        if snap:
            y = _zero_run_start(sig, x, lambda u: mean * (u - t) + kern(u)[0] - q0 - 1.0)
            if y != x:
                x, q1, d = y, kern(y)[0], y - t
        times[i] = x
        t, q0 = x, q1
    return times


def _check_start(t: float) -> None:
    """Raise ValueError for a start time that is not finite or has |t| > 2**40."""
    if not abs(t) <= _MAX_START:  # also nan
        need = "lie within |t| <= 2**40" if math.isfinite(t) else "be finite"
        raise ValueError(f"start time must {need}, got {t!r}")


def _pi_pwc_crossing(sig: PiecewiseConstant, t: float) -> float:
    """Leftmost s with integral_t^s f >= 1 for sigma = 0, correctly rounded.

    One lookup in the signal's exact prefix table: the target C(t) + 1 is
    k whole periods plus a remainder r, and the leftmost table entry that
    reaches r, across zero steps too, names the segment of the crossing.
    Running maxima ``tops`` keep it leftmost if a value is slightly negative:
    a period then peaks ``excess`` above its mass and covers the levels
    k*mass + (excess, mass + excess].
    """
    e, c = sig._cumulative(t)
    bs, cs, tops = sig._table(e)
    excess = tops[-1] - cs[-1]
    k, r = divmod(c + (1 << (e + sig._vexp)) - 1 - excess, cs[-1])
    r += 1 + excess
    j = bisect_left(tops, r) - 1
    v = sig._ivalues[j]
    if not (v > 0 and cs[j] < r <= cs[j + 1]):
        raise NoConvergenceError(
            f"piecewise-constant crossing lookup failed after t={t!r}: "
            f"bracket [{((k << e) + bs[j]) / (1 << e)!r}, {((k << e) + bs[j + 1]) / (1 << e)!r}], "
            f"residual {(cs[j + 1] - r) / (1 << (e + sig._vexp)):.3e}"
        )
    return (((k << e) + bs[j]) * v + r - cs[j]) / (v << e)


def firing_time(system: IFSystem, t: float) -> float:
    """Next firing time Phi(t) after a reset at time t."""
    return float(_crossings(system, t, 1)[0])


def _firing_batch(system: IFSystem, ts: np.ndarray, d=None) -> np.ndarray:
    """Phi at every entry of the flat array ts, from warm starts d, by default
    :func:`_crossings`' cubic of :func:`_psi_table`, which it builds if absent."""
    system.regime  # validates
    sig, sigma = system.signal, system.sigma
    if isinstance(sig, PiecewiseConstant) and sigma == 0.0:
        return np.array([_pi_pwc_crossing(sig, t) for t in ts.tolist()])
    if d is None and (table := _psi_table(system)):
        x = ts % 1.0 * _PSI_GRID  # t % 1.0 is 1.0 for tiny negative t
        j = np.minimum(x.astype(np.intp), _PSI_GRID - 1)
        c0, c1, c2, c3 = (np.frombuffer(c)[j] for c in table)
        d = c0 + (s := x - j) * (c1 + s * (c2 + s * c3))
    kern, mean = sig.kernel_array(sigma), sig.mean()
    q0 = kern(ts)[0]
    x = ts + _newton_batch(system, kern, ts, q0, d)
    if isinstance(sig, Sampled) and sigma == 0.0:
        skern = sig.kernel(0.0)
        for i, (t, q, xi) in enumerate(zip(ts.tolist(), q0.tolist(), x.tolist())):
            x[i] = _zero_run_start(sig, xi, lambda u: mean * (u - t) + skern(u)[0] - q - 1.0)
    return x


def firing_times(system: IFSystem, ts) -> np.ndarray:
    """Phi at every start time of ts, as one batched solve.

    Lane by lane the same warm start, iteration and tolerances as
    :func:`firing_time`; the module docstring says where a last bit may differ.
    """
    ts = np.asarray(ts, dtype=float)
    bad = ts[~(np.abs(ts) <= _MAX_START)]
    if bad.size:
        _check_start(float(bad[0]))
    return _firing_batch(system, ts.ravel()).reshape(ts.shape)


def displacement(system: IFSystem, t):
    """Psi(t) = Phi(t) - t, 1-periodic, whose values are the interspike intervals:
    one scalar solve for a float t, one :func:`firing_times` call for an array."""
    if np.ndim(t):
        ts = np.asarray(t, dtype=float)
        return firing_times(system, ts) - ts
    return firing_time(system, t) - t


def iterate(system: IFSystem, t0: float, n: int) -> Orbit:
    """The orbit t_1 = Phi(t0), ..., t_n = Phi(t_{n-1})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Orbit(t0, _crossings(system, t0, n))


def derivative(system: IFSystem, t: float) -> float:
    """Slope of the firing map, Phi'(t) = f(t)/(f(Phi(t)) - sigma) * e^{-sigma(Phi(t)-t)};
    raises :class:`NotDifferentiableError` where :func:`_slope` finds none."""
    phi = firing_time(system, t)
    slope = float(_slope(system, np.array([t]), np.array([phi]))[0])
    if math.isnan(slope):
        raise NotDifferentiableError(
            f"the firing map has no slope at t={t!r}, Phi(t)={phi!r}: the input jumps at t or "
            "Phi(t), |f(Phi(t)) - sigma| < 1e-12, or sigma = 0 and f(t) or f(Phi(t)) <= 0")
    return slope


def _slope(system: IFSystem, ts: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Phi' at the array ts, given phi = Phi(ts); NaN where the map has no slope:
    where the input jumps at t or Phi(t), where |f(Phi) - sigma| < 1e-12, and,
    for the nonnegative perfect integrator, where f(t) <= 0 or f(Phi) <= 0."""
    sig, sigma = system.signal, system.sigma
    ft, fphi = sig.eval_array(ts), sig.eval_array(phi)
    denom = fphi - sigma
    ok = sig.is_continuous_at(ts) & sig.is_continuous_at(phi) & (np.abs(denom) >= 1e-12)
    if system.regime is Regime.NONNEG_PI:
        ok &= (ft > 0.0) & (fphi > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ok, ft / denom * np.exp(-sigma * (phi - ts)), np.nan)


def check_lift(system: IFSystem, grid) -> float:
    """Max over the grid of |Phi(t+1) - Phi(t) - 1|.

    For a 1-periodic drive the displacement is 1-periodic, so this should
    vanish to solver precision.
    """
    worst = 0.0
    for t in grid:
        t = float(t)
        dev = abs(firing_time(system, t + 1.0) - firing_time(system, t) - 1.0)
        worst = max(worst, dev)
    return worst
