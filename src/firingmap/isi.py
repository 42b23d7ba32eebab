"""Interspike-interval sequences, distributions, and their analysis.

The displacement Psi(t) = Phi(t) - t is 1-periodic and its values along an
orbit are the interspike intervals.  When the rotation number is irrational
the long-run empirical ISI distribution converges (uniformly in the start
time) to the invariant measure pushed forward by Psi; for the perfect
integrator that distribution has an explicit density away from critical
values of Psi, implemented in :func:`isi_density_pi`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CriticalValueError, InsufficientDataError, NoConvergenceError,
                     RationalRotationError)
from .firing import (_PSI_GRID, _RESIDUAL_TOL, IFSystem, Orbit, Regime, _firing_batch,
                     _max_displacement, _min_slope, _psi_slope, _psi_table, _slope, firing_time,
                     firing_times, iterate)
from .rotation import detect_locking
from .signals import PeriodicSignal, TrigPolynomial


@dataclass(frozen=True)
class IsiSeq:
    """Interspike intervals of an orbit, including t_1 - t_0."""

    values: np.ndarray
    orbit: Orbit | None = None

    def __len__(self):
        return len(self.values)


def isi_sequence(orbit: Orbit) -> IsiSeq:
    """Successive differences of the firing times (first one against t0)."""
    if len(orbit) < 2:
        raise ValueError("need at least two firing times")
    return IsiSeq(orbit.isi, orbit)


@dataclass(frozen=True)
class RegularityResult:
    """Finite-sample regularity classification of an ISI sequence.

    ``kind`` is one of ``periodic``, ``asymptotically-periodic``,
    ``almost-strongly-recurrent`` or ``unclassified``; ``period`` carries q
    for the first two, ``window`` carries the recurrence bound N for the
    third.  This is a falsification test over the available window, not a
    proof: the quantifiers are checked exhaustively on the finite sample.
    """

    kind: str
    period: int | None = None
    window: int | None = None
    eps: float = 0.0
    burn_in: int = 0
    length: int = 0


# The recurrence search cuts the values into buckets of width eps / _SUBBAND.
# A row's sub-band is the buckets from 2 - _SUBBAND to _SUBBAND - 1 around its
# own, which lie inside its eps-window in exact arithmetic.  Membership lists
# are built for about _SLAB members at a time, or one sub-band where that
# alone holds more.
_SUBBAND = 8
_SLAB = 1 << 12


def _row_matches(v: np.ndarray, i: int, eps: float) -> np.ndarray:
    """Offsets j - i of every j >= i with |v_j - v_i| < eps: one full scan."""
    d = v[i:] - v[i]
    return np.flatnonzero(np.abs(d, out=d) < eps)


def _window_bounds(v: np.ndarray, eps: float, first: int, rows: int) -> np.ndarray:
    """An upper bound on the recurrence gap of each row first + r, r < rows,
    or len(v) where none is certified.

    The members j of a row's sub-band lie between its smallest and largest
    member in value, and rounded subtraction is monotone in v_j, so when
    both of those pass the scan's own test |v_j - v_i| < eps every member
    does.  The members j >= i are then matches of row i: its gap is at most
    their largest gap or the tail n - 2 - (last member), and it has two
    matches once a member follows it.
    """
    n = len(v)
    u = v[first:]
    itype = np.int32 if n < 2**31 else np.int64  # halves the per-interval memory
    order = np.argsort(u, kind="stable").astype(itype)
    keys = np.sort(u)
    with np.errstate(over="ignore"):  # an overflow to inf keeps the keys sorted
        keys /= eps
        keys *= _SUBBAND
    np.floor(keys, out=keys)
    bound = np.full(rows, n, dtype=itype)
    a = 0
    while a < len(u):
        chunk = keys[a:a + _SLAB // _SUBBAND]
        centres = chunk[np.r_[True, chunk[1:] != chunk[:-1]]]
        lo = np.searchsorted(keys, centres - (_SUBBAND - 2), "left")
        hi = np.searchsorted(keys, centres + (_SUBBAND - 1), "right")
        ends = np.cumsum(hi - lo)
        k = max(1, int(np.searchsorted(ends, _SLAB, "right")))
        centres, lo, hi, ends = centres[:k], lo[:k], hi[:k], ends[:k]
        size = hi - lo
        # each centre's members in index order, one segment per centre
        members = np.repeat(lo - ends + size, size)
        members += np.arange(ends[-1])
        members = order[members]
        seg = np.repeat(np.arange(k), size)
        members = seg * n + members
        members.sort()
        # the largest gap from each member on, within its segment
        suffix = np.empty_like(members)
        np.subtract(members[1:], members[:-1], out=suffix[:-1])
        suffix[ends - 1] = 0
        seg *= n + 1
        suffix -= seg
        np.maximum.accumulate(suffix[::-1], out=suffix[::-1])
        suffix += seg
        last = members[ends - 1] - np.arange(k) * n
        # the rows among the positions of this slab's centres
        b = int(np.searchsorted(keys, centres[-1], "right"))
        r = order[a:b]
        j = np.searchsorted(centres, keys[a:b])
        j, r = j[r < rows], r[r < rows]
        p = np.searchsorted(members, j * n + r)
        x = u[r]
        ok = ((p < ends[j] - 1) & (np.abs(u[order[lo[j]]] - x) < eps)
              & (np.abs(u[order[hi[j] - 1]] - x) < eps))
        bound[r[ok]] = np.maximum(suffix[p[ok]] - 1, n - 2 - first - last[j[ok]])
        a = b
    return bound


def classify_regularity(
    isi: IsiSeq | np.ndarray,
    q: int,
    eps: float,
    burn_in: int = 1000,
) -> RegularityResult:
    """Classify an ISI sequence as periodic, asymptotically periodic, or
    almost strongly recurrent at tolerance eps.

    Periodic(q): |ISI_{n+q} - ISI_n| < eps for every n in the sample.
    Asymptotically periodic(q): the same holds for n >= burn_in but fails
    earlier.  Almost strongly recurrent(N): every value recurs within N
    steps of every later position, N minimal for the sample; reported as
    unclassified when the required window exceeds a quarter of the
    post-burn-in sample (insufficient evidence).  The quantifiers are
    checked over the whole sample, but only the start positions whose
    sub-band bound (:func:`_window_bounds`) could exceed the largest window
    found so far are scanned in full, so the window is the exhaustive
    scan's, usually at a small fraction of its O(n^2) cost.
    """
    v = isi.values if isinstance(isi, IsiSeq) else np.asarray(isi, dtype=float)
    n = len(v)
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be nonnegative, got {burn_in}")
    if not np.isfinite(v).all():
        i = int(np.argmin(np.isfinite(v)))
        raise ValueError(f"ISI {i} is not finite: {v[i]}")
    if n < burn_in + 4 * q:
        raise InsufficientDataError(
            f"need at least burn_in + 4q = {burn_in + 4 * q} intervals, got {n}"
        )
    dq = np.abs(v[q:] - v[:-q]) < eps
    if bool(np.all(dq)):
        return RegularityResult("periodic", period=q, eps=eps, burn_in=burn_in, length=n)
    if bool(np.all(dq[burn_in:])):
        return RegularityResult(
            "asymptotically-periodic", period=q, eps=eps, burn_in=burn_in, length=n
        )
    # start positions whose remaining window is shorter than the acceptance
    # budget cannot witness a recurrence and are excluded (finite-sample
    # truncation); the rest are scanned in decreasing order of their bound
    # until no bound left can raise the largest window found
    budget = (n - burn_in) // 4
    bound = _window_bounds(v, eps, burn_in, n - budget - burn_in)
    worst = 0
    for r in np.argsort(bound)[::-1]:
        if bound[r] <= worst:
            break
        matches = _row_matches(v, burn_in + int(r), eps)
        if len(matches) < 2:
            return RegularityResult("unclassified", eps=eps, burn_in=burn_in, length=n)
        worst = max(worst, int(np.max(np.diff(matches))) - 1)
        if worst > budget:
            break
    if worst <= budget:
        return RegularityResult(
            "almost-strongly-recurrent", window=worst, eps=eps, burn_in=burn_in, length=n
        )
    return RegularityResult("unclassified", eps=eps, burn_in=burn_in, length=n)


class EmpiricalDist:
    """A sorted sample multiset with CDF evaluation."""

    def __init__(self, samples):
        self.samples = np.sort(np.asarray(samples, dtype=float))
        if self.samples.size == 0:
            raise ValueError("empirical distribution needs at least one sample")

    @property
    def n(self) -> int:
        return self.samples.size

    def cdf(self, x):
        """Right-continuous empirical CDF, vectorized."""
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.samples, x, side="right") / self.n
        return float(out) if out.ndim == 0 else out

    def mean(self) -> float:
        return float(self.samples.mean())

    def histogram(self, bins: int = 200, lo: float | None = None, hi: float | None = None):
        """Counts over uniform bins; defaults to the sample range padded 1%.

        Degenerate (atomic) sample ranges are widened so the atom lands in a
        single occupied bin instead of breaking the binning.
        """
        if lo is None or hi is None:
            s_lo, s_hi = float(self.samples[0]), float(self.samples[-1])
            if s_hi - s_lo < 1e-9:
                # atomic sample: place the atom inside a bin, not on an edge
                mid, half = 0.5 * (s_lo + s_hi), 5e-4
                lo = mid - half * (bins + 1) / bins if lo is None else lo
                hi = mid + half if hi is None else hi
            else:
                pad = 0.01 * (s_hi - s_lo)
                lo = s_lo - pad if lo is None else lo
                hi = s_hi + pad if hi is None else hi
        counts, edges = np.histogram(self.samples, bins=bins, range=(lo, hi))
        return edges, counts


def empirical_isi_dist(isi: IsiSeq | np.ndarray) -> EmpiricalDist:
    """Empirical distribution of the interspike intervals of a run."""
    v = isi.values if isinstance(isi, IsiSeq) else np.asarray(isi, dtype=float)
    return EmpiricalDist(v)


def cluster_values(values, tol: float) -> list[tuple[float, int]]:
    """Merge sorted values into clusters whose consecutive gaps are < tol.

    Returns (cluster mean, cluster size) pairs; the cluster count is how
    many distinct values the sequence takes at resolution tol.
    """
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        return []
    splits = np.flatnonzero(np.diff(v) >= tol) + 1
    return [(float(c.mean()), int(c.size)) for c in np.split(v, splits)]


def fortet_mourier(d1: EmpiricalDist, d2: EmpiricalDist) -> float:
    """Fortet-Mourier / Kantorovich distance between two empirical measures.

    On the line the supremum over 1-Lipschitz test functions equals the area
    between the CDFs, which is exact for empirical measures: the CDF
    difference is piecewise constant between merged sample points.
    """
    xs = np.unique(np.concatenate([d1.samples, d2.samples]))
    if xs.size == 1:
        return 0.0
    f1 = np.searchsorted(d1.samples, xs, side="right") / d1.n
    f2 = np.searchsorted(d2.samples, xs, side="right") / d2.n
    return float(np.sum(np.abs(f1[:-1] - f2[:-1]) * np.diff(xs)))


def pi_invariant_density(signal: PeriodicSignal, t: float) -> float:
    """Density f(t)/mean(f) of the invariant measure of the PI phase map."""
    IFSystem(0.0, signal).regime  # validates: f >= 0 a.e. with positive mean
    return signal.eval(t) / signal.mean()


def check_measure_invariance(signal: PeriodicSignal, intervals) -> float:
    """Max deviation of mu_f([a,b]) from mu_f([Phi(a), Phi(b)]) for PI.

    The firing map preserves the measure with density f, so the deviation
    should vanish to solver precision.
    """
    system = IFSystem(0.0, signal)
    system.regime  # validate
    worst = 0.0
    for a, b in intervals:
        pa, pb = firing_time(system, float(a)), firing_time(system, float(b))
        dev = abs(signal.integral(float(a), float(b)) - signal.integral(pa, pb))
        worst = max(worst, dev)
    return worst


def displacement_range(system: IFSystem) -> tuple[float, float]:
    """[min, max] of the displacement Psi over one period (strict regime): Psi at
    the system's table nodes, refined at the zeros of Psi' (:func:`_psi_critical`)."""
    return _psi_critical(system)[:2]


def _psi_critical(system: IFSystem):
    """``(lo, hi, crit, psi)``: psi is Psi at the nodes j/_PSI_GRID < 1 of
    :func:`_psi_table` (its c0, with Psi' = c1 * _PSI_GRID); crit is Psi at the
    nodes where Psi' is 0 and :func:`_critical_value` in every cell whose ends
    have Psi' of opposite signs (the last cell wraps to 1.0), a zero of Psi'
    or a kink; lo and hi are the extremes of crit and psi.  Needs the strict
    regime, ess inf(f - sigma) > 0, where Psi' is finite.
    """
    if system.regime is not Regime.STRICT_LIF:
        raise ValueError("the displacement analyses need the strict regime, ess inf(f - sigma)"
                         f" > 0; the certified bound is {system.bounds.lower:.6g}")
    table = _psi_table(system)
    if not table:
        raise NoConvergenceError(f"the solve of Psi at the nodes j/{_PSI_GRID} did not converge")
    psi, d0 = np.frombuffer(table[0]), np.frombuffer(table[1]) * _PSI_GRID
    d1 = np.roll(d0, -1)
    cells = np.flatnonzero(d0 * d1 < 0.0)
    crit = psi[d0 == 0.0].tolist() + [
        _critical_value(system, j / _PSI_GRID, (j + 1) / _PSI_GRID, a, b)
        for j, a, b in zip(cells.tolist(), d0[cells].tolist(), d1[cells].tolist())]
    return min([float(psi.min()), *crit]), max([float(psi.max()), *crit]), crit, psi


def _critical_value(system: IFSystem, a: float, b: float, da: float, db: float) -> float:
    """Psi at the zero of Psi' in [a, b], where Psi' goes from da to db across 0,
    by Illinois regula falsi on scalar solves: an end kept twice in a row has
    its Psi' halved, so both ends close in, on a kink of a step drive too.
    Stops at Psi' = 0 or ends within 1e-13, and returns Psi at its last point.
    """
    sig, sigma = system.signal, system.sigma
    kept = 0  # 1 when the last step kept a, -1 when it kept b
    for _ in range(100):
        t = b - db * (b - a) / (db - da)
        psi = firing_time(system, t) - t
        d = sig.eval(t) / (sig.eval(t + psi) - sigma) * math.exp(-sigma * psi) - 1.0
        if (d > 0.0) == (db > 0.0):  # t replaces b, and a is kept
            b, db, da, kept = t, d, da * 0.5 if kept > 0 else da, 1
        else:
            a, da, db, kept = t, d, db * 0.5 if kept < 0 else db, -1
        if d == 0.0 or b - a <= 1e-13:
            break
    return psi


@dataclass(frozen=True)
class DensityCurve:
    """A density sampled on a grid, with singular points flagged.

    ``singular`` marks grid values within 1e-6 of a critical value of the
    displacement, where the density may blow up (the values are reported
    as computed, without regularization).
    """

    y: np.ndarray
    density: np.ndarray
    singular: np.ndarray
    support: tuple[float, float]

    def integral(self) -> float:
        """Trapezoid integral over the grid; should be close to 1."""
        return float(np.trapezoid(self.density, self.y))

    def cdf(self) -> np.ndarray:
        """Cumulative trapezoid integral on the grid (starts at 0)."""
        steps = 0.5 * (self.density[1:] + self.density[:-1]) * np.diff(self.y)
        return np.concatenate([[0.0], np.cumsum(steps)])


def _cell_pairs(start: np.ndarray, end: np.ndarray):
    """(cell, j) for every j in [start[cell], end[cell]), ordered by cell."""
    counts = np.maximum(end - start, 0)
    cells = np.repeat(np.arange(counts.size), counts)
    return cells, np.repeat(start - np.cumsum(counts) + counts, counts) + np.arange(cells.size)


def _psi_roots(system: IFSystem, ts: np.ndarray, psi_grid: np.ndarray, ys: np.ndarray):
    """All solutions of Psi(t) = y on [0, 1), for every y of ys at once.

    ``psi_grid`` is Psi on the grid ``ts``, whose last point 1.0 wraps to
    0.  A grid cell holds a root where its left end equals y, or where its
    ends straddle y; a binary search over the sorted ys finds them per cell,
    so memory stays O(grid + roots).  Each straddling cell is a lane of
    Newton on Psi - y with the slope :func:`_psi_slope`, from the chord's
    zero, safeguarded by the ``rtsafe`` rule of :func:`_newton_batch`; a
    round is one batched solve, warm-started at Psi = y.  A lane stops once
    |Psi - y| is within the solver's acceptance radius _RESIDUAL_TOL / L +
    width_tol (L = ess inf(f - sigma)), or its step or bracket is below
    1e-14.  Returns ``(j, t)``, the index into ys of each root t, ordered by
    j and then by cell.
    """
    order = np.argsort(ys, kind="stable")
    ys_sorted = ys[order]
    left, right = psi_grid[:-1], psi_grid[1:]
    hit_cell, hit_j = _cell_pairs(np.searchsorted(ys_sorted, left, side="left"),
                                  np.searchsorted(ys_sorted, left, side="right"))
    cell, j = _cell_pairs(np.searchsorted(ys_sorted, np.minimum(left, right), side="right"),
                          np.searchsorted(ys_sorted, np.maximum(left, right), side="left"))
    y = ys_sorted[j]
    lo, hi, glo = ts[cell], ts[cell + 1], left[cell] - y
    x = lo - glo * (hi - lo) / (right[cell] - y - glo)
    slope = _min_slope(system)  # 0 where a perfect integrator's drive touches 0: no bound
    width_tol = max(1e-15, 1e-15 * _max_displacement(system), 8e-16 * float(np.abs(ts).max()))
    radius = width_tol + (_RESIDUAL_TOL / slope if slope else 0.0)
    roots, lane = np.empty(cell.size), np.arange(cell.size)
    step = step_old = hi - lo  # the previous step and the one before
    for _ in range(80):
        if not lane.size:
            break
        psi = _firing_batch(system, x, y) - x
        g = psi - y
        same = (g > 0.0) == (glo > 0.0)
        lo, glo, hi = np.where(same, x, lo), np.where(same, g, glo), np.where(same, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = x - g / _psi_slope(system, x, psi)
        dx = np.abs(cand - x)
        newton = (lo < cand) & (cand < hi) & (dx + dx <= step_old)
        step_old, step = step, np.where(newton, dx, 0.5 * (hi - lo))
        fit = np.abs(g) <= radius
        x = np.where(fit, x, np.where(newton, cand, 0.5 * (lo + hi)))
        stop = fit | (step < 1e-14) | (hi - lo < 1e-14)
        roots[lane[stop]] = x[stop]
        keep = ~stop
        lane, x, lo, hi, glo, y, step, step_old = (
            a[keep] for a in (lane, x, lo, hi, glo, y, step, step_old))
    roots[lane] = x
    cells, js = np.concatenate([hit_cell, cell]), np.concatenate([hit_j, j])
    by = np.lexsort((cells, js))
    return order[js[by]], np.concatenate([ts[hit_cell], roots])[by]


def isi_density_pi(
    signal: PeriodicSignal,
    q_max: int = 64,
    residual_tol: float = 1e-8,
) -> DensityCurve:
    """ISI-distribution density for a perfect integrator with smooth drive.

    At y inside the displacement range the density is

        sum over t in Psi^{-1}(y) of mu(t) / |Psi'(t)|,  mu(t) = f(t)/mean(f),

    the invariant density transported through the displacement (Psi' from
    :func:`_psi_slope`).  Requires a strictly positive trigonometric-polynomial
    input and an irrational rotation number at tolerance (locking raises
    :class:`RationalRotationError`).  The 512-point y grid is cosine-spaced
    inside the open range, so the integrable inverse-square-root singularities
    at the endpoints are resolved.  The range and critical values come from
    :func:`_psi_critical`, Psi^{-1}(y) from :func:`_psi_roots`, both on the
    nodes of the system's warm-start table.
    """
    if not isinstance(signal, TrigPolynomial):
        raise ValueError("closed-form density needs a trigonometric-polynomial input")
    system = IFSystem(0.0, signal)
    system.regime  # validate
    locking = detect_locking(system, q_max=q_max, residual_tol=residual_tol)
    if locking.locked:
        raise RationalRotationError(
            f"rotation number is rational at tolerance: {locking.p}/{locking.q} "
            f"(residual {locking.residual:.3e})"
        )
    lo, hi, crit, psi = _psi_critical(system)
    width = hi - lo
    if width <= 0.0:
        raise RationalRotationError("degenerate displacement range (rigid rotation)")
    # critical values: range endpoints plus interior zeros of Psi'
    crit_vals = np.array(sorted({lo, hi, *crit}))

    pad = 1e-9 * width  # far above the rounding of ys, which so stay inside [lo, hi]
    theta = np.linspace(0.0, math.pi, 512)
    ys = (lo + pad) + 0.5 * (width - 2 * pad) * (1.0 - np.cos(theta))

    k = np.clip(np.searchsorted(crit_vals, ys), 1, crit_vals.size - 1)
    singular = np.minimum(np.abs(crit_vals[k - 1] - ys), np.abs(crit_vals[k] - ys)) < 1e-6

    ts = np.arange(_PSI_GRID + 1) / _PSI_GRID  # the node 1.0 wraps to 0
    j, t = _psi_roots(system, ts, np.append(psi, psi[0]), ys)
    y = ys[j]
    slope = np.abs(_psi_slope(system, t, y))
    if not slope.all():
        raise CriticalValueError(
            f"y = {float(y[np.argmin(slope)])!r} is a critical value of the displacement"
        )
    mu = signal.eval_array(t) / signal.mean()
    # bincount adds each y's terms in cell order, as a running sum would
    density = np.bincount(j, weights=mu / slope, minlength=ys.size)
    return DensityCurve(ys, density, singular, (lo, hi))


@dataclass(frozen=True)
class PerturbationReport:
    """Uniform firing-map deviations and the ISI-distribution distance."""

    sup_phi_dev: float
    sup_dphi_dev: float
    d_f_isi: float


def perturbation_harness(
    base: IFSystem,
    perturbed: IFSystem,
    orbit_len: int = 20_000,
    t0: float = 0.0,
) -> PerturbationReport:
    """Measure how far a perturbed system's firing map and ISI statistics
    stray from a base system's.

    Sup norms are taken over a 256-point grid on [0, 1], which suffices
    because the displacement of both maps is 1-periodic.  ``sup_dphi_dev``
    takes both maps' slopes on the whole grid in one :func:`_slope` call
    each, and only the points where both have one, so a step drive, whose
    map has no slope where an input jumps at t or Phi(t), skips those
    points.  The distribution distance is the Fortet-Mourier distance
    between the runs' empirical ISI distributions.
    """
    if base.regime is not Regime.STRICT_LIF:
        raise ValueError("base system must be in the strict regime")
    perturbed.regime  # validate
    ts = np.linspace(0.0, 1.0, 256)
    phi, phi_p = firing_times(base, ts), firing_times(perturbed, ts)
    sup_phi = float(np.max(np.abs(phi - phi_p), initial=0.0))
    dphi = np.abs(_slope(base, ts, phi) - _slope(perturbed, ts, phi_p))
    sup_dphi = float(np.max(dphi[~np.isnan(dphi)], initial=0.0))
    d1 = empirical_isi_dist(isi_sequence(iterate(base, t0, orbit_len)))
    d2 = empirical_isi_dist(isi_sequence(iterate(perturbed, t0, orbit_len)))
    return PerturbationReport(sup_phi, sup_dphi, fortet_mourier(d1, d2))
