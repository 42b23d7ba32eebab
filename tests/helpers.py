"""Shared system factories and the test suite's oracles: exact step-drive
integrals and crossings, the extrema of a trigonometric drive and its
40-digit values, the 40-digit threshold gap of a leaky system, the level
sets of the displacement by plain bisection and the exhaustive recurrence
scan."""

import math
from bisect import bisect_right
from fractions import Fraction

import mpmath
import numpy as np

import firingmap.rotation as rotation
from firingmap import IFSystem, PiecewiseConstant, TrigPolynomial, constant

# golden-mean-squared mean level: PI rotation number 2 - golden ratio,
# the "most irrational" choice, safely unlocked at any practical q_max
GOLDEN_A0 = (3.0 + math.sqrt(5.0)) / 2.0


def half_on_half_off():
    """Value 2 on [k, k+1/2], 0 on (k+1/2, k+1): the discontinuous PI fixture."""
    return PiecewiseConstant([0.0, 0.5], [2.0, 0.0])


def pi_half_on():
    return IFSystem(0.0, half_on_half_off())


def translation_lif(q: int) -> IFSystem:
    """sigma=1 with f = 1/(1 - e^-q): the firing map is the translation by q."""
    return IFSystem(1.0, constant(1.0 / (1.0 - math.exp(-q))))


def cosine_lif(beta: float) -> IFSystem:
    """sigma=1 with f = 2(1 + beta cos 2 pi t); homeomorphic lift for beta < 1/2."""
    return IFSystem(1.0, TrigPolynomial(2.0, [(1, 2.0 * beta, 0.0)]))


def golden_pi(amp: float = 0.5) -> IFSystem:
    """Perfect integrator with irrational rotation number 1/GOLDEN_A0."""
    return IFSystem(0.0, TrigPolynomial(GOLDEN_A0, [(1, amp, 0.0)]))


def count_rotation_spikes(monkeypatch):
    """Record the length of every orbit that ``firingmap.rotation`` iterates."""
    spikes = []
    iterate = rotation.iterate

    def counting(system, t0, n):
        spikes.append(n)
        return iterate(system, t0, n)

    monkeypatch.setattr(rotation, "iterate", counting)
    return spikes


# a parameter value verified (by rotation estimates and a periodic-orbit
# witness) to sit inside the 7/10 locking tongue of the cosine_lif family,
# which spans roughly beta in [0.412, 0.444]
BETA_LOCKED_7_10 = 0.43


def _pwc_fractions(sig):
    """Breakpoints (with 1 appended), values and prefix masses of a step drive, as Fractions."""
    fb = [Fraction(b) for b in sig.breakpoints] + [Fraction(1)]
    fv = [Fraction(v) for v in sig.values]
    fcum = [Fraction(0)]
    for i, v in enumerate(fv):
        fcum.append(fcum[-1] + v * (fb[i + 1] - fb[i]))
    return fb, fv, fcum


def pwc_cumulative_oracle(sig, x: Fraction) -> Fraction:
    """Exact integral of a step drive over [0, x], in rational arithmetic."""
    fb, fv, fcum = _pwc_fractions(sig)
    k = math.floor(x)
    i = bisect_right(fb, x - k) - 1
    return k * fcum[-1] + fcum[i] + fv[i] * (x - k - fb[i])


def pwc_integral_oracle(sig, a: float, b: float) -> Fraction:
    """Exact integral of a step drive over [a, b]."""
    return pwc_cumulative_oracle(sig, Fraction(b)) - pwc_cumulative_oracle(sig, Fraction(a))


def pwc_crossing_oracle(sig, t: float, threshold: int) -> Fraction:
    """Leftmost s with integral_t^s f >= threshold, exactly (sigma = 0).

    A rational walk over the segments from t, which may be a Fraction; the
    reference for the scaled-integer lookup of the library.
    """
    fb, fv, fcum = _pwc_fractions(sig)
    x, need = Fraction(t), Fraction(threshold)
    if min(fv) >= 0:  # monotone: whole periods short of the threshold are skipped
        skip = max(math.ceil(need / fcum[-1]) - 1, 0)
        x, need = x + skip, need - skip * fcum[-1]
    for _ in range((math.ceil(need / fcum[-1]) + 2) * len(fv) + 2):
        if need == 0:
            return x
        k = math.floor(x)
        i = bisect_right(fb, x - k) - 1  # segment containing x
        seg_end = k + fb[i + 1]
        cap = fv[i] * (seg_end - x)
        if fv[i] > 0 and cap >= need:
            return x + need / fv[i]
        need -= cap
        x = seg_end
    raise AssertionError(f"the walk from t={t!r} did not terminate")


def trig_extrema_oracle(sig, with_args: bool = False) -> tuple:
    """(min f, max f) of a trigonometric drive, independently of the library;
    with ``with_args`` also the arrays of local minimisers and maximisers.

    Closed-form f, f' and f'' on a grid of 64 points per period of the
    highest harmonic, then Newton on f' from *every* local extremum of the
    grid, each kept within one grid step of its start.  Refining only the
    grid's best point would miss the true extremum when two wells are
    nearly level.
    """
    n = 64 * sig.harmonics[-1][0]
    h = 1.0 / n

    def derivs(t):
        f, d1, d2 = np.full(t.shape, sig.a0), np.zeros(t.shape), np.zeros(t.shape)
        for k, c, s in sig.harmonics:
            w = 2.0 * math.pi * k
            ct, st = np.cos(w * t), np.sin(w * t)
            f += c * ct + s * st
            d1 += w * (s * ct - c * st)
            d2 -= w * w * (c * ct + s * st)
        return f, d1, d2

    ts = np.arange(n) * h
    out, args = [], []
    for sign in (1.0, -1.0):
        v = sign * derivs(ts)[0]
        start = ts[(v <= np.roll(v, 1)) & (v <= np.roll(v, -1))]
        x = start
        for _ in range(60):
            _, d1, d2 = derivs(x)
            step = np.divide(d1, d2, out=np.zeros_like(x), where=sign * d2 > 0.0)
            x = np.clip(x - step, start - h, start + h)
        out.append(sign * min(v.min(), (sign * derivs(x)[0]).min()))
        args.append(x)
    return (*out, *args) if with_args else tuple(out)


def trig_value_mp(sig, x: float, dps: int = 40):
    """f(x) of a trigonometric drive to ``dps`` digits, x taken exactly."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        return mpmath.mpf(sig.a0) + sum(c * mpmath.cos(2 * mpmath.pi * k * x)
                                        + s * mpmath.sin(2 * mpmath.pi * k * x)
                                        for k, c, s in sig.harmonics)


def mp_weighted_integral(sig, sigma: float, a, b, dps: int = 30):
    """Integral of (f(u) - sigma) exp(sigma u) over [a, b] to ``dps`` digits.

    ``mpmath.quad`` piece by piece, split where f is not smooth: at the
    breakpoints of a step drive and the grid nodes j/n of a sampled one.
    a and b are taken exactly; sigma = 0 gives the plain integral of f.
    f(u, mid) is f at u on the piece around mid.
    """
    with mpmath.workdps(dps):
        a, b, s = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(sigma)
        if isinstance(sig, TrigPolynomial):
            knots = []

            def f(u, mid):
                return trig_value_mp(sig, u, dps)
        elif isinstance(sig, PiecewiseConstant):
            knots = [mpmath.mpf(x) for x in sig.breakpoints]

            def f(u, mid):  # the step holding mid, away from the jumps at the piece's ends
                return float(sig.values[bisect_right(sig.breakpoints, float(mid % 1)) - 1])
        else:
            n = len(sig.values)
            knots = [mpmath.mpf(j) / n for j in range(n)]

            def f(u, mid):  # continuous and 1-periodic, so right even where u % 1 rounds to 1
                x = (u % 1) * n
                j = int(mpmath.floor(x))
                v0, v1 = float(sig.values[j % n]), float(sig.values[(j + 1) % n])
                return v0 + (v1 - v0) * (x - j)
        nodes = [a] + [k + x for k in range(math.floor(a), math.floor(b) + 1)
                       for x in knots if a < k + x < b] + [b]
        return mpmath.fsum(
            mpmath.quad(lambda u, m=(lo + hi) / 2: (f(u, m) - s) * mpmath.exp(s * u), [lo, hi])
            for lo, hi in zip(nodes, nodes[1:])
        )


def threshold_gap(sig, sigma: float, t: float, x: float, dps: int = 40):
    """v(x) - 1 to ``dps`` digits, for the potential reset to 0 at t of a
    leaky system (sigma > 0), v(x) = integral_t^x f(u) exp(-sigma (x - u)) du.

    Closed form for a trigonometric drive, piece by piece for a step drive;
    t and x are taken exactly.
    """
    with mpmath.workdps(dps):
        t, x, s = mpmath.mpf(t), mpmath.mpf(x), mpmath.mpf(sigma)

        def decay(u):  # exp(-sigma (x - u))
            return mpmath.exp(s * (u - x))

        if isinstance(sig, TrigPolynomial):
            def anti(u):  # an antiderivative of f(u) exp(-sigma (x - u))
                total = mpmath.mpf(sig.a0) / s
                for k, c, sn in sig.harmonics:
                    w = 2 * mpmath.pi * k
                    cw, sw = mpmath.cos(w * u), mpmath.sin(w * u)
                    total += (c * (s * cw + w * sw) + sn * (s * sw - w * cw)) / (s * s + w * w)
                return total * decay(u)

            v = anti(x) - anti(t)
        else:
            bs = sig.breakpoints
            nodes = [t] + [k + mpmath.mpf(b) for k in range(math.floor(t), math.floor(x) + 1)
                           for b in bs if t < k + b < x] + [x]
            v = mpmath.mpf(0)
            for a, b in zip(nodes, nodes[1:]):
                i = bisect_right(bs, float(a - mpmath.floor(a))) - 1
                v += sig.values[i] * (decay(b) - decay(a)) / s
        return v - 1


def recurrence_window_oracle(v, q: int, eps: float, burn_in: int = 1000):
    """``classify_regularity`` by the exhaustive O(n^2) scan of every start
    position after burn-in, in index order."""
    from firingmap import RegularityResult

    v = np.asarray(v, dtype=float)
    n = len(v)
    dq = np.abs(v[q:] - v[:-q])
    if bool(np.all(dq < eps)):
        return RegularityResult("periodic", period=q, eps=eps, burn_in=burn_in, length=n)
    if bool(np.all(dq[burn_in:] < eps)):
        return RegularityResult(
            "asymptotically-periodic", period=q, eps=eps, burn_in=burn_in, length=n
        )
    budget = (n - burn_in) // 4
    worst = 0
    ok = True
    for i in range(burn_in, n - budget):
        matches = np.flatnonzero(np.abs(v[i:] - v[i]) < eps)
        if len(matches) < 2:
            ok = False
            break
        gap = int(np.max(np.diff(matches))) - 1
        if gap > worst:
            worst = gap
            if worst > budget:
                break
    if ok and worst <= budget:
        return RegularityResult(
            "almost-strongly-recurrent", window=worst, eps=eps, burn_in=burn_in, length=n
        )
    return RegularityResult("unclassified", eps=eps, burn_in=burn_in, length=n)


def psi_roots_oracle(system, ts, psi_grid, ys):
    """``isi._psi_roots`` by plain bisection of every straddling grid cell,
    all cells together, to a bracket below 1e-14: same cells, same order."""
    from firingmap.firing import _firing_batch
    from firingmap.isi import _cell_pairs

    order = np.argsort(ys, kind="stable")
    ys_sorted = ys[order]
    left, right = psi_grid[:-1], psi_grid[1:]
    hit_cell, hit_j = _cell_pairs(np.searchsorted(ys_sorted, left, side="left"),
                                  np.searchsorted(ys_sorted, left, side="right"))
    cell, j = _cell_pairs(np.searchsorted(ys_sorted, np.minimum(left, right), side="right"),
                          np.searchsorted(ys_sorted, np.maximum(left, right), side="left"))
    y = ys_sorted[j]
    lo, hi, glo = ts[cell], ts[cell + 1], left[cell] - y
    roots = np.empty(cell.size)
    lane = np.arange(cell.size)
    for _ in range(80):
        if not lane.size:
            break
        mid = 0.5 * (lo + hi)
        gm = _firing_batch(system, mid, y) - mid - y
        same = (gm > 0.0) == (glo > 0.0)
        lo, glo, hi = np.where(same, mid, lo), np.where(same, gm, glo), np.where(same, hi, mid)
        zero = gm == 0.0
        lo, hi = np.where(zero, mid, lo), np.where(zero, mid, hi)
        stop = zero | (hi - lo < 1e-14)
        roots[lane[stop]] = 0.5 * (lo[stop] + hi[stop])
        keep = ~stop
        lane, lo, hi, glo, y = lane[keep], lo[keep], hi[keep], glo[keep], y[keep]
    roots[lane] = 0.5 * (lo + hi)
    cells = np.concatenate([hit_cell, cell])
    js = np.concatenate([hit_j, j])
    by = np.lexsort((cells, js))
    return order[js[by]], np.concatenate([ts[hit_cell], roots])[by]
