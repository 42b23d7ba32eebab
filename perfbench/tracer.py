"""Span tracing of firingmap's layers, installed from the benchmark's side.

:meth:`Tracer.install` replaces the program's public functions on every
module that binds them (``firingmap.firing.firing_time`` and the copies
``rotation``, ``isi`` and ``cli`` imported) with wrappers that record a span
(name, start, end, parent span, request id) in memory.  The signal kernels
``weighted_integral_scaled`` and ``integral`` of each signal class are too
hot for one span per call; their wrappers count calls and nanoseconds per
kind, and charge the outermost kernel call to the enclosing span.  No
source file changes, and :meth:`uninstall` restores every binding.

Spans are kept in memory and written out once, by :meth:`write`.
"""

from __future__ import annotations

import contextlib
import functools
import time

KINDS = {"TrigPolynomial": "trig", "PiecewiseConstant": "pwc", "Sampled": "sampled"}
FAMILY_KINDS = {"TrigPolynomial": "trig", "PiecewiseConstant": "step", "Sampled": "sampled"}
FAMILIES = ("trig_lif", "trig_pi", "trig_nonneg_pi", "step_lif", "step_pi", "sampled_lif")
CLI_COMMANDS = ("simulate", "rotation", "density", "compare")
LAYERS = ("signals", "firing", "rotation", "isi", "cli", "bench")
SPANNED = {
    "signals": ("parse_signal",),
    "firing": ("validate", "firing_time", "iterate", "check_lift", "derivative", "displacement"),
    "rotation": ("rotation_number", "detect_locking", "staircase_scan", "pi_rotation",
                 "best_rational"),
    "isi": ("isi_sequence", "empirical_isi_dist", "cluster_values", "classify_regularity",
            "displacement_range", "isi_density_pi", "perturbation_harness", "fortet_mourier"),
    "cli": ("main",),
}
SETUP = -1  # request id of the set-up phase

# span record fields
NAME, START, END, PARENT, REQUEST, KCALLS, KNS, ATTR = range(8)


def family(system) -> str:
    kind = FAMILY_KINDS[type(system.signal).__name__]
    if system.sigma > 0.0:
        return f"{kind}_lif"
    if kind == "trig" and system.regime.value == "nonneg-pi":
        return "trig_nonneg_pi"
    return f"{kind}_pi"


def _iterate_attr(args, kwargs, result):
    return family(args[0]), len(result)


def _rotation_attr(args, kwargs, result):
    return result.n_iterates


def _scan_attr(args, kwargs, result):
    return len(result)


def _main_attr(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0]


ATTRS = {
    "firing.iterate": _iterate_attr,
    "rotation.rotation_number": _rotation_attr,
    "rotation.staircase_scan": _scan_attr,
    "cli.main": _main_attr,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.request = SETUP
        self.kernel: dict = {}  # (kind, method) -> [calls, ns]
        self._kernel_depth = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name, attr=None):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, self.request, 0, 0, attr]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def close(self, rec):
        rec[END] = time.perf_counter_ns()
        self.stack.pop()

    def _span(self, name, fn):
        attr_of = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if attr_of is not None:
                rec[ATTR] = attr_of(args, kwargs, result)
            return result
        return wrapped

    def _kernel(self, key, fn):
        counter = self.kernel.setdefault(key, [0, 0])
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._kernel_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._kernel_depth -= 1
                counter[0] += 1
                counter[1] += dt
                if self._kernel_depth == 0 and stack:
                    rec = spans[stack[-1]]
                    rec[KCALLS] += 1
                    rec[KNS] += dt
        return wrapped

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, fm):
        wrappers = {}
        for layer, names in SPANNED.items():
            module = getattr(fm, layer)
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = self._span(f"{layer}.{name}", fn)
        for module in (fm, fm.signals, fm.firing, fm.rotation, fm.isi, fm.cli):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._set(module, attr, wrappers[id(value)])
        for cls_name, kind in KINDS.items():
            cls = getattr(fm.signals, cls_name)
            for meth in ("weighted_integral_scaled", "integral"):
                self._set(cls, meth, self._kernel((kind, meth), cls.__dict__[meth]))
            self._set(cls, "essential_bounds",
                      self._span(f"signals.{kind}.essential_bounds", cls.__dict__["essential_bounds"]))
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    @contextlib.contextmanager
    def installed(self, fm):
        self.install(fm)
        try:
            yield self
        finally:
            self.uninstall()

    def start_passes(self):
        """Zero the kernel counters, so they count the passes and not the set-up."""
        for counter in self.kernel.values():
            counter[0] = counter[1] = 0

    # -- reporting ---------------------------------------------------------

    def per_layer(self, passes: int) -> dict:
        """Per-layer metrics: totals over the traced passes divided by ``passes``."""
        spans = self.spans
        n = len(spans)
        dur = [s[END] - s[START] for s in spans]
        child = [0] * n
        sub_kcalls = [s[KCALLS] for s in spans]
        for i in range(n - 1, -1, -1):  # children follow their parents
            p = spans[i][PARENT]
            if p >= 0:
                child[p] += dur[i]
                sub_kcalls[p] += sub_kcalls[i]
        # which spans lie under a detect_locking / isi_density_pi / displacement_range
        tracked = ("rotation.detect_locking", "isi.isi_density_pi", "isi.displacement_range")
        under = [0] * n
        for i, s in enumerate(spans):
            bits = under[s[PARENT]] if s[PARENT] >= 0 else 0
            if s[NAME] in tracked:
                bits |= 1 << tracked.index(s[NAME])
            under[i] = bits

        m: dict = {}

        def add(name, value, unit):
            m[name] = (float(value), unit)

        def total(name, setup=False):
            return sum(dur[i] for i, s in enumerate(spans)
                       if s[NAME] == name and (s[REQUEST] == SETUP) == setup)

        for kind in ("trig", "pwc", "sampled"):
            calls, ns = self.kernel.get((kind, "weighted_integral_scaled"), (0, 0))
            add(f"signals.{kind}.weighted_integral_scaled.calls", calls / passes, "count")
            add(f"signals.{kind}.weighted_integral_scaled.ns_per_call", ns / calls if calls else 0, "ns")
            add(f"signals.{kind}.integral.calls", self.kernel.get((kind, "integral"), (0, 0))[0] / passes, "count")
            add(f"signals.{kind}.essential_bounds.ms",
                total(f"signals.{kind}.essential_bounds", setup=True) / 1e6, "ms")

        fam = {f: [0, 0, 0] for f in FAMILIES}  # ns, spikes, kernel calls
        for i, s in enumerate(spans):
            if s[NAME] == "firing.iterate" and s[REQUEST] != SETUP:
                acc = fam[s[ATTR][0]]
                acc[0] += dur[i]
                acc[1] += s[ATTR][1]
                acc[2] += sub_kcalls[i]
        for f, (ns, spikes, kcalls) in fam.items():
            add(f"firing.{f}.us_per_spike", ns / spikes / 1e3 if spikes else 0, "us")
            add(f"firing.{f}.integral_calls_per_spike", kcalls / spikes if spikes else 0, "count")

        ft = [i for i, s in enumerate(spans) if s[NAME] == "firing.firing_time" and s[REQUEST] != SETUP]
        add("firing.firing_time.calls", len(ft) / passes, "count")
        add("firing.firing_time.us_per_call", sum(dur[i] for i in ft) / len(ft) / 1e3 if ft else 0, "us")
        add("firing.validate.ms", total("firing.validate", setup=True) / 1e6, "ms")

        def under_count(bit, name, weight=lambda s: 1):
            return sum(weight(s) for i, s in enumerate(spans)
                       if s[NAME] == name and under[i] >> bit & 1 and s[REQUEST] != SETUP) / passes

        add("rotation.detect_locking.s", total("rotation.detect_locking") / 1e9 / passes, "s")
        add("rotation.detect_locking.firing_time_calls", under_count(0, "firing.firing_time"), "count")
        add("rotation.detect_locking.orbit_spikes",
            under_count(0, "firing.iterate", lambda s: s[ATTR][1]), "count")
        params = sum(s[ATTR] for s in spans if s[NAME] == "rotation.staircase_scan")
        add("rotation.staircase_scan.s_per_param",
            total("rotation.staircase_scan") / 1e9 / params if params else 0, "s")
        spikes = sum(s[ATTR] for s in spans if s[NAME] == "rotation.rotation_number")
        add("rotation.rotation_number.us_per_spike",
            total("rotation.rotation_number") / 1e3 / spikes if spikes else 0, "us")

        add("isi.isi_density_pi.s", total("isi.isi_density_pi") / 1e9 / passes, "s")
        add("isi.isi_density_pi.firing_time_calls", under_count(1, "firing.firing_time"), "count")
        add("isi.displacement_range.ms", total("isi.displacement_range") / 1e6 / passes, "ms")
        add("isi.displacement_range.firing_time_calls", under_count(2, "firing.firing_time"), "count")
        add("isi.classify_regularity.ms", total("isi.classify_regularity") / 1e6 / passes, "ms")
        add("isi.perturbation_harness.s", total("isi.perturbation_harness") / 1e9 / passes, "s")
        add("isi.fortet_mourier.ms", total("isi.fortet_mourier") / 1e6 / passes, "ms")

        for cmd in CLI_COMMANDS:
            idx = [i for i, s in enumerate(spans) if s[NAME] == "cli.main" and s[ATTR] == cmd]
            add(f"cli.{cmd}.s", sum(dur[i] for i in idx) / 1e9 / passes, "s")
            add(f"cli.{cmd}.self_s",
                sum(dur[i] - child[i] - spans[i][KNS] for i in idx) / 1e9 / passes, "s")

        self_ns = dict.fromkeys(LAYERS, 0)
        for i, s in enumerate(spans):
            if s[REQUEST] == SETUP:
                continue
            self_ns[s[NAME].split(".")[0]] += dur[i] - child[i] - s[KNS]
            self_ns["signals"] += s[KNS]
        for layer, ns in self_ns.items():
            add(f"self_s.{layer}", ns / 1e9 / passes, "s")
        return m

    def write(self, path):
        """Write every span as CSV: id,name,start_ns,end_ns,parent,request,kernel_calls,kernel_ns."""
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,request,kernel_calls,kernel_ns\n")
            fh.writelines(f"{i},{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[REQUEST]},"
                          f"{s[KCALLS]},{s[KNS]}\n" for i, s in enumerate(self.spans))
