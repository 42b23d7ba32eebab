"""Computations made apart from the program, for checking its outputs.

Nothing here imports firingmap.  Drives are the tuples of ``specs.py``.

* :func:`spike_x` integrates ``dx/dt = -sigma x + f`` from the reset at
  the previous spike and reports ``x`` at the spike and its maximum before:
  exact per-segment exponentials in 40-digit ``mpmath`` arithmetic for step
  and sampled (piecewise-linear) drives, ``scipy.integrate.solve_ivp``
  (DOP853) with dense output for trigonometric drives.
* :func:`psi` is a vectorised bisection on the threshold equation of a
  trigonometric drive, written from the closed-form integral of
  ``f(u) e^{sigma u}``; it gives the displacement, the firing map, its
  powers and the pushforward of the perfect integrator's invariant measure.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

TWO_PI = 2.0 * math.pi


# -- trigonometric drives -----------------------------------------------------

def trig_eval(drive, t):
    _, a0, hs = drive
    t = np.asarray(t, dtype=float)
    tau = t - np.floor(t)
    out = np.full_like(tau, a0)
    for k, c, s in hs:
        th = TWO_PI * k * tau
        out = out + c * np.cos(th) + s * np.sin(th)
    return out


def trig_lower_bound(drive, sigma, grid=1 << 14):
    """A certified lower bound of ess inf(f - sigma): grid minimum minus L h / 2.

    ``L = sum 2 pi k sqrt(c^2 + s^2)`` bounds |f'|, and every point lies
    within h/2 of a grid point.
    """
    lip = sum(TWO_PI * k * math.hypot(c, s) for k, c, s in drive[2])
    vals = trig_eval(drive, np.arange(grid) / grid)
    return float(vals.min()) - lip * 0.5 / grid - sigma


def trig_x(drive, sigma, s, d):
    """x(s + d) from a reset at s: integral of f(u) e^{-sigma (s + d - u)} over [s, s + d]."""
    _, a0, hs = drive
    s = np.asarray(s, dtype=float)
    d = np.asarray(d, dtype=float)
    if sigma > 0.0:
        decay = np.exp(-sigma * d)
        out = a0 * (1.0 - decay) / sigma
    else:
        decay = 1.0
        out = a0 * d
    # integral of cos(w u + phi) e^{sigma u}: e^{sigma u}(sigma cos + w sin)/(sigma^2 + w^2)
    s_frac = s - np.floor(s)
    for k, c, sn in hs:
        w = TWO_PI * k
        den = sigma * sigma + w * w
        th0 = w * s_frac
        th1 = th0 + w * d
        c0, s0, c1, s1 = np.cos(th0), np.sin(th0), np.cos(th1), np.sin(th1)
        cos_part = (sigma * c1 + w * s1) - decay * (sigma * c0 + w * s0)
        sin_part = (sigma * s1 - w * c1) - decay * (sigma * s0 - w * c0)
        out = out + (c * cos_part + sn * sin_part) / den
    return out


def psi(drive, sigma, s, iters=80):
    """Displacement Phi(s) - s for every start time in ``s``, by bisection.

    Before the first crossing ``x < 1``; in the strict regime ``x`` cannot
    come back below 1 after it (dx/dt = f - sigma > 0 at x = 1), and for the
    perfect integrator with f >= 0 it never decreases.  So ``x(d) >= 1`` is a
    monotone predicate and bisection converges to the leftmost crossing.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    lower = trig_lower_bound(drive, sigma)
    hi = np.full_like(s, 1.0 / lower if lower > 0.0 else 2.0 / drive[1] + 2.0)
    for _ in range(60):
        short = trig_x(drive, sigma, s, hi) < 1.0
        if not short.any():
            break
        hi[short] *= 2.0
    else:
        raise RuntimeError("could not bracket the firing time")
    lo = np.zeros_like(s)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        up = trig_x(drive, sigma, s, mid) >= 1.0
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    return hi


def phi_power(drive, sigma, s, q):
    t = np.asarray(s, dtype=float)
    for _ in range(q):
        t = t + psi(drive, sigma, t)
    return t


def trig_derivative(drive, sigma, t):
    """Phi'(t) = f(t) / (f(Phi(t)) - sigma) e^{-sigma (Phi(t) - t)}."""
    t = np.asarray(t, dtype=float)
    d = psi(drive, sigma, t)
    return trig_eval(drive, t) / (trig_eval(drive, t + d) - sigma) * np.exp(-sigma * d)


def pi_invariant_quantiles(drive, m):
    """Phases t_j with Gamma(t_j) = (j + 1/2)/m, Gamma(t) = int_0^t f / int_0^1 f.

    Gamma is the conjugacy of the perfect integrator's phase map (sigma = 0,
    f >= 0); stratified quantiles of the invariant measure f/mean(f).
    """
    u = (np.arange(m) + 0.5) / m
    lo, hi = np.zeros(m), np.ones(m)
    a0 = drive[1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        up = trig_x(drive, 0.0, 0.0, mid) / a0 >= u
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    return 0.5 * (lo + hi)


def pi_isi_pushforward(drive, m=20_000):
    """Sorted ISI values at m stratified quantiles of the invariant measure."""
    ts = pi_invariant_quantiles(drive, m)
    return np.sort(psi(drive, 0.0, ts))


# -- spikes checked in the threshold's own units ------------------------------

@functools.lru_cache(maxsize=None)
def _sampled_values(path):
    return tuple(mpmath.mpf(float(v)) for v in np.loadtxt(path, ndmin=1))


def _segments(drive):
    """Breakpoints in [0, 1) and a function giving (alpha, beta) of f on a piece."""
    if drive[0] == "pwc":
        breaks = [mpmath.mpf(b) for b, _ in drive[1]]
        vals = [mpmath.mpf(v) for _, v in drive[1]]
        return breaks, lambda j, th: (vals[j], mpmath.mpf(0))
    values = _sampled_values(drive[1])
    n = len(values)
    breaks = [mpmath.mpf(j) / n for j in range(n)]

    def piece(j, th):
        # f = alpha + beta (u - u_start), u_start at fraction th into segment j
        v0, v1 = values[j], values[(j + 1) % n]
        return v0 + (v1 - v0) * th, (v1 - v0) * n
    return breaks, piece


def piecewise_x(drive, sigma, t_prev, t_next):
    """(x(t_next), max x at the piece ends before t_next), exact per piece.

    In the strict regime x < 1 only increases, so once above 1 it shows at
    every later piece end; for sigma = 0 and f >= 0, x never decreases.
    """
    with mpmath.workdps(40):
        breaks, piece = _segments(drive)
        breaks = breaks + [mpmath.mpf(1)]
        m = len(breaks) - 1
        sigma = mpmath.mpf(sigma)
        t, end = mpmath.mpf(t_prev), mpmath.mpf(t_next)
        k = mpmath.floor(t)
        j = max(i for i in range(m) if breaks[i] <= t - k)
        th = (t - k - breaks[j]) / (breaks[j + 1] - breaks[j])
        x, x_max = mpmath.mpf(0), mpmath.mpf(0)
        while True:
            stop = min(k + breaks[j + 1], end)
            h = stop - t
            alpha, beta = piece(j, th)
            if sigma == 0:
                x = x + alpha * h + beta * h * h / 2
            else:
                e = mpmath.exp(-sigma * h)
                x = x * e + (alpha / sigma - beta / sigma**2) * (1 - e) + beta * h / sigma
            if stop == end:
                return float(x), float(max(x_max, x))
            x_max = max(x_max, x)
            t, th, j = stop, 0, j + 1
            if j == m:
                j, k = 0, k + 1


def trig_x_ode(drive, sigma, t_prev, t_next, samples=257):
    """(x(t_next), max x on a dense grid) by DOP853 from the reset at t_prev."""
    tau0 = t_prev - math.floor(t_prev)
    d = t_next - t_prev
    _, a0, hs = drive
    ws = [(TWO_PI * k, c, s) for k, c, s in hs]

    def rhs(u, x):
        th = tau0 + u
        f = a0
        for w, c, s in ws:
            f += c * math.cos(w * th) + s * math.sin(w * th)
        return [-sigma * x[0] + f]

    sol = solve_ivp(rhs, (0.0, d), [0.0], method="DOP853", rtol=1e-13, atol=1e-15,
                    dense_output=True)
    if not sol.success:
        raise RuntimeError(f"ODE integration failed: {sol.message}")
    grid = sol.sol(np.linspace(0.0, d, samples))[0]
    return float(sol.y[0, -1]), float(max(grid.max(), sol.y[0].max()))


def spike_x(drive, sigma, t_prev, t_next):
    """(x at the spike, max of x on [t_prev, t_next]) after a reset at t_prev."""
    if drive[0] == "trig":
        return trig_x_ode(drive, sigma, t_prev, t_next)
    return piecewise_x(drive, sigma, t_prev, t_next)


def lower_bound(drive, sigma):
    """A certified lower bound of ess inf(f - sigma)."""
    if drive[0] == "trig":
        return trig_lower_bound(drive, sigma)
    if drive[0] == "pwc":
        return min(v for _, v in drive[1]) - sigma
    # the linear interpolant attains its minimum at a sample
    return float(np.loadtxt(drive[1], ndmin=1).min()) - sigma
