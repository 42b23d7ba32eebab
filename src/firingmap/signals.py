"""1-periodic input currents with exact evaluation and integration.

Three concrete families are supported:

* :class:`TrigPolynomial` -- a finite cosine/sine series;
* :class:`PiecewiseConstant` -- left-closed/right-open steps, plain integrals
  exact in scaled integers and rounded once;
* :class:`Sampled` -- values on a uniform grid with linear interpolation.

Every integral goes through one periodic antiderivative per signal and leak
rate, :meth:`PeriodicSignal.kernel`, in closed form for each kind (exact for
the interpolant of a sampled signal).  Its f is the only evaluation of f;
the extrema of a trigonometric polynomial are certified bounds from one
branch-and-bound search over cells of a grid, on the array kernel.

Every signal has period 1; callers with period-T inputs are expected to
rescale time themselves.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

TWO_PI = 2.0 * math.pi
_U = 2.0 ** -53  # unit roundoff of a float
_SPLIT = 8  # sub-cells per kept cell and round of the extremum search


def _dyadic(x: float) -> tuple[int, int]:
    """(n, e) with x = n / 2**e exactly and e >= 0 (floats are dyadic rationals)."""
    n, d = float(x).as_integer_ratio()
    return n, d.bit_length() - 1


@dataclass(frozen=True)
class EssentialBounds:
    """Essential bounds of a signal over one period.

    ``lower`` <= ess inf(f - sigma) and ``upper`` >= ess sup(f), certified
    (:meth:`TrigPolynomial._extrema`, up to rounding ``min f - sigma`` once)
    and exact for steps and samples; they control well-posedness (lower > 0
    gives a homeomorphic firing map) and the interspike-interval bound 1/lower.
    """

    lower: float
    upper: float


class PeriodicSignal(ABC):
    """A 1-periodic, locally integrable input current.

    Subclasses set ``_mean``, the average of f over one period.
    """

    _mean: float

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # bind the shared integrals on every kind, so each kind's own
        # attribute can be wrapped (e.g. by a profiler) without touching
        # the others
        for name in ("integral", "weighted_integral_scaled"):
            setattr(cls, name, getattr(cls, name))

    def eval(self, t: float) -> float:
        """Value f(t mod 1), from the kernel."""
        return self.kernel(0.0)(t)[1]

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`eval`, from the array kernel."""
        return self.kernel_array(0.0)(np.asarray(ts, dtype=float))[1]

    @abstractmethod
    def _make_kernel(self, sigma: float, array: bool):
        """Build the closure that :meth:`kernel` (or :meth:`kernel_array`) returns."""

    def _memo_kernel(self, slot: str, sigma: float, array: bool):
        kernels = self.__dict__.setdefault(slot, {})
        kern = kernels.get(sigma)
        if kern is None:
            kern = kernels[sigma] = self._make_kernel(sigma, array)
        return kern

    def kernel(self, sigma: float):
        """Fused closure x -> (Q(x mod 1), f(x)), built once per sigma.

        Q is the periodic part of an antiderivative: for sigma > 0,
        d/du [exp(sigma*u) Q(u mod 1)] = [f(u) - sigma] exp(sigma*u); for
        sigma = 0, d/du [mean*u + Q(u mod 1)] = f(u).
        """
        return self._memo_kernel("_kernels", sigma, False)

    def kernel_array(self, sigma: float):
        """:meth:`kernel` on float arrays, xs -> (Q(xs mod 1), f(xs)).

        Built once per sigma, on first use, from the same coefficients and
        prefix table as the scalar kernel, in the same order of operations.
        """
        return self._memo_kernel("_kernel_arrays", sigma, True)

    def integral(self, a: float, b: float) -> float:
        """Plain integral of f over [a, b] (a <= b)."""
        q = self.kernel(0.0)
        return self._mean * (b - a) + q(b)[0] - q(a)[0]

    def weighted_integral_scaled(self, sigma: float, t: float, delta: float) -> float:
        """Integral of [f(u) - sigma] * exp(sigma*(u - t)) over [t, t + delta].

        This is exp(-sigma*t) times the integral of [f(u) - sigma] *
        exp(sigma*u) and stays finite for arbitrarily large t, which is what
        the firing-time solver needs.
        """
        if sigma == 0.0:
            return self.integral(t, t + delta)
        q = self.kernel(sigma)
        return math.exp(sigma * delta) * q(t + delta)[0] - q(t)[0]

    @abstractmethod
    def essential_bounds(self, sigma: float) -> EssentialBounds:
        """Essential bounds (ess inf(f - sigma), ess sup f) over one period."""

    @abstractmethod
    def is_continuous_at(self, t):
        """Whether f is continuous at t, elementwise for an array (True broadcasts)."""

    def __call__(self, t: float) -> float:
        return self.eval(t)

    def mean(self) -> float:
        """Average of f over one period."""
        return self._mean


class TrigPolynomial(PeriodicSignal):
    """f(t) = a0 + sum_k [c_k cos(2 pi k t) + s_k sin(2 pi k t)].

    Harmonics are (k, c_k, s_k) triples with distinct k >= 1.  All integrals
    use closed-form antiderivatives; the periodic part of every antiderivative
    is evaluated at t mod 1 so precision does not degrade for large times.
    """

    def __init__(self, a0: float, harmonics=()):
        harmonics = tuple((int(k), float(c), float(s)) for k, c, s in harmonics)
        ks = [k for k, _, _ in harmonics]
        if any(k < 1 for k in ks):
            raise ValueError("harmonic indices must be >= 1")
        if len(set(ks)) != len(ks):
            raise ValueError("harmonic indices must be pairwise distinct")
        self.a0 = float(a0)
        self.harmonics = tuple(sorted(harmonics))
        self._mean = self.a0

    def __repr__(self):
        return f"TrigPolynomial(a0={self.a0!r}, harmonics={self.harmonics!r})"

    def _make_kernel(self, sigma: float, array: bool):
        # per harmonic: w, the cos/sin coefficients of Q, the cos/sin coefficients of f
        a0 = self.a0
        hs = []
        for k, c, s in self.harmonics:
            w = TWO_PI * k
            den = sigma * sigma + w * w
            hs.append((w, (c * sigma - s * w) / den, (c * w + s * sigma) / den, c, s))
        q_const = (a0 - sigma) / sigma if sigma > 0.0 else 0.0
        if array:
            def kern_array(xs):
                tau = xs % 1.0
                q, fx = np.full(tau.shape, q_const), np.full(tau.shape, a0)
                for w, qc, qs, c, s in hs:
                    th = w * tau
                    ct, st = np.cos(th), np.sin(th)
                    q += qc * ct + qs * st
                    fx += c * ct + s * st
                return q, fx

            return kern_array
        cos, sin = math.cos, math.sin

        def kern(x):
            tau = x % 1.0
            q, fx = q_const, a0
            for w, qc, qs, c, s in hs:
                th = w * tau
                ct, st = cos(th), sin(th)
                q += qc * ct + qs * st
                fx += c * ct + s * st
            return q, fx

        return kern

    def essential_bounds(self, sigma: float) -> EssentialBounds:
        if not self.harmonics:
            return EssentialBounds(self.a0 - sigma, self.a0)
        if "_extrema_memo" not in self.__dict__:  # the search runs once per signal
            self._extrema_memo = self._extrema()
        lo, hi = self._extrema_memo
        return EssentialBounds(lo - sigma, hi)

    def _extrema(self) -> tuple[float, float]:
        """Certified (lower bound on min f, upper bound on max f) over one period.

        Branch and bound on cells of f and -f: on [a, a + h], |f''| <= m2 gives
        f >= chord - (m2/2)(x - a)(a + h - x), least at the vertex clipped to the
        cell.  Cells start on a grid of 16 points per period of the top harmonic
        over a period 1/g of f (g the gcd of the indices) and one cell more; each
        round splits the cells that can still beat the best value seen in _SPLIT,
        with one array-kernel call, until m2*h**2/8 <= tol = (H + 12) u S, u the
        unit roundoff, S = |a0| + sum |c_k| + |s_k|: cos and sin within 4 ulp,
        H + 2 roundings along any path of the kernel's sum of H harmonics, 6 in
        the bound (underflow aside).  The kernel's phases th = w*tau are off by
        up to e = 4u*th, which moves harmonic k by about e*|f_k'| <= e*hypot(c_k,
        s_k): the pruning margin allows for the worst case, the result for the
        value at the ends of the kept cells (small at a harmonic's extremum).
        """
        ks, amps = zip(*((k, math.hypot(c, s)) for k, c, s in self.harmonics))
        m1, m2 = (sum((TWO_PI * k) ** j * r for k, r in zip(ks, amps)) for j in (1, 2))
        tol = (len(ks) + 12) * _U * (abs(self.a0) + np.abs(np.array(self.harmonics)[:, 1:]).sum())
        kern = self.kernel_array(0.0)
        x = np.arange(16 * ks[-1] // math.gcd(*ks) + 2) / (16 * ks[-1])
        margin = 2.0 * (tol + 5.0 * _U * x[-1] * m1)
        # rows of points, cells between neighbours: those of f, then from row npos on of -f
        xs, fs, npos = np.stack([x, x]), np.stack([f := kern(x)[1], -f]), 1
        while True:
            a, b, fa, fb = xs[:, :-1], xs[:, 1:], fs[:, :-1], fs[:, 1:]
            p = 0.5 * m2 * (b - a) ** 2
            low = np.minimum(fa, fb)
            d = np.minimum(np.maximum(fb - fa, -p), p)
            # d/4p in [-1/4, 1/4] cannot overflow; the smallest subnormal keeps p = 0 finite
            bound = np.minimum(low, 0.5 * (fa + fb) - 0.25 * p - d * (d / (4.0 * p + 5e-324)))
            keep = bound <= low[npos:].min() + margin
            keep[:npos] = bound[:npos] <= low[:npos].min() + margin
            npos = int(np.count_nonzero(keep[:npos]))
            a, b, fa, fb, bound = a[keep], b[keep], fa[keep], fb[keep], bound[keep]
            if 0.25 * p.max() <= tol:
                break
            xs = a[:, None] + (b - a)[:, None] * (np.arange(_SPLIT + 1) / _SPLIT)
            xs[:, -1] = b
            fs = np.column_stack([fa, kern(xs[:, 1:-1])[1], fb])
            fs[npos:, 1:-1] *= -1.0
        tau, slack = np.stack([a, b]) % 1.0, 0.0
        for (k, c, s), r in zip(self.harmonics, amps):
            th = TWO_PI * k * tau  # as the kernel rounds it
            e = 4.0 * _U * th
            slack = slack + e * (np.abs(s * np.cos(th) - c * np.sin(th)) + r * (e + 10.0 * _U))
        low = bound - tol - slack.max(axis=0)
        return float(low[:npos].min()), -float(low[npos:].min())

    def is_continuous_at(self, t):
        return True


def constant(value: float) -> TrigPolynomial:
    """Constant signal f(t) = value."""
    return TrigPolynomial(value)


class PiecewiseConstant(PeriodicSignal):
    """Step function on [0, 1): value[i] on [breakpoints[i], breakpoints[i+1]).

    Breakpoints must start at 0 and be strictly increasing within [0, 1).
    Plain integrals are exact: breakpoints and end points are ints at a fine
    enough scale 2**e, values at their own scale 2**_vexp, and only the final
    int/int division rounds (correctly, in CPython).
    """

    def __init__(self, breakpoints, values):
        breakpoints = tuple(float(b) for b in breakpoints)
        values = tuple(float(v) for v in values)
        if len(breakpoints) != len(values) or not breakpoints:
            raise ValueError("breakpoints and values must have equal nonzero length")
        if breakpoints[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if any(x >= y for x, y in zip(breakpoints, breakpoints[1:])) or breakpoints[-1] >= 1.0:
            raise ValueError("breakpoints must be strictly increasing within [0, 1)")
        self.breakpoints = breakpoints
        self.values = values
        self._bs = [_dyadic(b) for b in breakpoints] + [(1, 0)]
        self._bexp = max(e for _, e in self._bs)
        vs = [_dyadic(v) for v in values]
        self._vexp = max(e for _, e in vs)
        self._ivalues = [n << (self._vexp - e) for n, e in vs]
        self._tables = {}  # at most one per scale e <= 1074
        self._mean = self._table(self._bexp)[1][-1] / (1 << (self._bexp + self._vexp))

    def __repr__(self):
        return f"PiecewiseConstant({list(self.breakpoints)!r}, {list(self.values)!r})"

    def _table(self, e: int):
        """(bs, cs, tops) at the scale 2**e: the breakpoints and 1 times 2**e, the
        prefix masses cs[j] = integral_0^{b_j} f times 2**(e + _vexp), and their
        running maxima (cs itself unless a value is negative)."""
        tab = self._tables.get(e)
        if tab is None:
            bs = [n << (e - eb) for n, eb in self._bs]
            cs = [0, *accumulate(v * (b1 - b0) for v, b0, b1 in zip(self._ivalues, bs, bs[1:]))]
            tab = self._tables[e] = bs, cs, list(accumulate(cs, max))
        return tab

    def _cumulative(self, t: float, e: int = 0):
        """(e', integral_0^t f times 2**(e' + _vexp)) at the finest scale e' of
        e, t and the breakpoints."""
        n, et = _dyadic(t)
        e = max(e, et, self._bexp)
        bs, cs, _ = self._table(e)
        k, tau = divmod(n << (e - et), 1 << e)
        i = bisect_right(bs, tau) - 1
        return e, k * cs[-1] + cs[i] + self._ivalues[i] * (tau - bs[i])

    def integral(self, a: float, b: float) -> float:
        e, ca = self._cumulative(a, _dyadic(b)[1])
        return (self._cumulative(b, e)[1] - ca) / (1 << (e + self._vexp))

    def _make_kernel(self, sigma: float, array: bool):
        return _linear_pieces_kernel(sigma, self.breakpoints, self.values,
                                     [0.0] * len(self.values), self._mean, array)

    def essential_bounds(self, sigma: float) -> EssentialBounds:
        return EssentialBounds(min(self.values) - sigma, max(self.values))

    def jump_points(self):
        """Breakpoints (as fractions of the period) where f actually jumps."""
        pts = []
        m = len(self.values)
        for i, b in enumerate(self.breakpoints):
            if self.values[i] != self.values[(i - 1) % m]:
                pts.append(b)
        return pts

    def is_continuous_at(self, t):
        # the distance to each jump on the circle, so a jump at 0 shows from below too
        d = np.abs(np.subtract.outer(np.asarray(t, dtype=float) % 1.0, self.jump_points()))
        return np.all(np.minimum(d, 1.0 - d) > 1e-12, axis=-1)


class Sampled(PeriodicSignal):
    """Linear interpolation of >= 2 samples on the uniform grid j/n, j < n.

    The interpolant wraps around (the value at t = 1 is the value at t = 0).
    All integrals are exact for the interpolant.
    """

    def __init__(self, values, source_path: str | None = None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("Sampled requires at least two values")
        self.values = values
        self.source_path = source_path
        self._n = values.size
        self._mean = float(values.mean())  # the interpolant's mean on a periodic grid

    def __repr__(self):
        return f"Sampled(n={self._n}, source={self.source_path!r})"

    def _make_kernel(self, sigma: float, array: bool):
        n = self._n
        slopes = (np.roll(self.values, -1) - self.values) * n
        return _linear_pieces_kernel(sigma, [j / n for j in range(n)], self.values.tolist(),
                                     slopes.tolist(), self._mean, array)

    def essential_bounds(self, sigma: float) -> EssentialBounds:
        return EssentialBounds(float(self.values.min()) - sigma, float(self.values.max()))

    def is_continuous_at(self, t):
        return True


def _piece_advance(sigma, mean, values, slopes, expm1=math.expm1, table=list):
    """advance(q, i, th): Q carried th into piece i from the value q at its start.

    For sigma > 0, Q(start + th) = e Q(start) + (1 - e)(v - sigma)/sigma
    + m (th - (1 - e)/sigma)/sigma with e = exp(-sigma*th).  With numpy's
    ``expm1`` and ``table`` it takes index and offset arrays.
    """
    if sigma > 0.0:
        inv = 1.0 / sigma
        levels = table([(v - sigma) * inv for v in values])
        rates = table([m * inv for m in slopes])

        def advance(q, i, th):
            em = expm1(-sigma * th)  # e - 1, accurate for small sigma*th
            return q + em * (q - levels[i]) + rates[i] * (th + em * inv)
    else:
        values, slopes = table(values), table(slopes)

        def advance(q, i, th):
            return q + (values[i] - mean + 0.5 * slopes[i] * th) * th
    return advance


def _linear_pieces_kernel(sigma, starts, values, slopes, mean, array):
    """Kernel of f = values[i] + slopes[i]*(tau - starts[i]) on [starts[i], starts[i+1]).

    Q is tabulated at the piece starts and carried across a piece in closed
    form by :func:`_piece_advance`.
    """
    advance = _piece_advance(sigma, mean, values, slopes)
    widths = [b - a for a, b in zip(starts, list(starts[1:]) + [1.0])]

    def table(q0):
        qs = [q0]
        for i, h in enumerate(widths):
            qs.append(advance(qs[-1], i, h))
        return qs

    qs = table(0.0)
    if sigma > 0.0:
        # one period maps Q(0) to exp(-sigma) Q(0) + qs[-1]; Q is its fixed point
        qs = table(qs[-1] / -math.expm1(-sigma))
    if array:
        advance = _piece_advance(sigma, mean, values, slopes, np.expm1, np.array)
        starts, qs, values, slopes = (np.array(a, dtype=float)
                                      for a in (starts, qs, values, slopes))

        def kern_array(xs):
            tau = xs % 1.0
            i = np.searchsorted(starts, tau, side="right") - 1
            th = tau - starts[i]
            return advance(qs[i], i, th), values[i] + slopes[i] * th

        return kern_array

    def kern(x):
        tau = x % 1.0
        i = bisect_right(starts, tau) - 1
        th = tau - starts[i]
        return advance(qs[i], i, th), values[i] + slopes[i] * th

    return kern


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def parse_signal(spec: str) -> PeriodicSignal:
    """Parse a signal grammar string.

    Forms: ``const:<a0>``, ``trig:<a0>;<k>,<c>,<s>;...``,
    ``pwc:<b0>,<v0>;<b1>,<v1>;...``, ``sampled:<path-to-CSV>`` (one value
    per line).
    """
    kind, _, body = spec.partition(":")
    kind = kind.strip()
    if not body:
        raise ValueError(f"malformed signal spec: {spec!r}")
    if kind == "const":
        return TrigPolynomial(float(body))
    if kind == "trig":
        parts = [p for p in body.split(";") if p.strip()]
        a0 = float(parts[0])
        harmonics = []
        for p in parts[1:]:
            k, c, s = p.split(",")
            harmonics.append((int(k), float(c), float(s)))
        return TrigPolynomial(a0, harmonics)
    if kind == "pwc":
        breaks, vals = [], []
        for p in body.split(";"):
            if not p.strip():
                continue
            b, v = p.split(",")
            breaks.append(float(b))
            vals.append(float(v))
        return PiecewiseConstant(breaks, vals)
    if kind == "sampled":
        path = body.strip()
        values = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    values.append(float(line))
        return Sampled(values, source_path=path)
    raise ValueError(f"unknown signal kind {kind!r}")


def signal_spec(signal: PeriodicSignal) -> str:
    """Canonical grammar string for a signal (inverse of :func:`parse_signal`)."""
    if isinstance(signal, TrigPolynomial):
        if not signal.harmonics:
            return f"const:{_fmt(signal.a0)}"
        parts = [f"trig:{_fmt(signal.a0)}"]
        parts += [f"{k},{_fmt(c)},{_fmt(s)}" for k, c, s in signal.harmonics]
        return ";".join(parts)
    if isinstance(signal, PiecewiseConstant):
        pairs = ";".join(
            f"{_fmt(b)},{_fmt(v)}" for b, v in zip(signal.breakpoints, signal.values)
        )
        return f"pwc:{pairs}"
    if isinstance(signal, Sampled):
        if signal.source_path is None:
            raise ValueError("sampled signal without a source path has no spec form")
        return f"sampled:{signal.source_path}"
    raise TypeError(f"unknown signal type {type(signal)!r}")
