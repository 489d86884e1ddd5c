"""Span tracing of pseudoharm from outside the package.

The tracer wraps the public functions of each pseudoharm module, and rebinds
every module-level name that refers to them (``matmech.sine_integral``,
``regspec.tricomi_u``, dict tables of functions, ...), so a call is traced
however its caller looks the function up.  No program code changes.

Each thread keeps its own span stack.  ``cli._parallel_map`` fans solves out
to a thread pool; the benchmark wraps the callable it is given so that the
worker's spans count as children of the span that called the pool.  A span's
self time is its duration minus the part of it that child spans cover; for
children in other threads that part is the union of their intervals.

Aggregates (calls, self and inclusive time, counters) are kept per thread and
merged at the end.  Raw spans are kept in memory up to ``span_cap`` and
written out when the benchmark ends.
"""

import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# Modules traced, with the layer prefix their spans are named under.
LAYERS = {
    "pseudoharm.cli": "cli",
    "pseudoharm.regspec": "regspec",
    "pseudoharm.rootfind": "rootfind",
    "pseudoharm.quadrature": "quadrature",
    "pseudoharm.asymptotics": "asymptotics",
    "pseudoharm.unreg": "unreg",
    "pseudoharm.matmech": "matmech",
    "pseudoharm.eigensolver": "eigensolver",
    "pseudoharm.specfun.hyper": "specfun",
    "pseudoharm.specfun.bessel": "specfun",
    "pseudoharm.specfun.sine_integral": "specfun",
    "pseudoharm.specfun.laguerre": "specfun",
    "pseudoharm.specfun.gammafn": "specfun",
}

# Functions whose first argument is a callable the layer evaluates; the
# evaluations are counted under the given counter.
_COUNTED_CALLABLE = {
    "rootfind.scan_sign_changes": "rootfind.residual_evals",
    "rootfind.bisect_then_secant": "rootfind.residual_evals",
    "rootfind.bisect": "rootfind.residual_evals",
    "quadrature.integrate": "quadrature.integrand_evals",
    "quadrature.integrate_to_infinity": "quadrature.integrand_evals",
    "quadrature.gauss_kronrod_15": "quadrature.integrand_evals",
}

_WAVEFUNCTION_EVAL = "regspec.wavefunction_eval"

# (span, parent span) -> extra name the span is also aggregated under
_BY_PARENT = {
    ("quadrature.integrate", "specfun.sine_integral"):
        "quadrature.integrate.under_si",
}


class _Frame:
    __slots__ = ("name", "span_id", "parent", "start", "child_s", "remote")

    def __init__(self, name, span_id, parent, start):
        self.name = name
        self.span_id = span_id
        self.parent = parent          # _Frame or None
        self.start = start
        self.child_s = 0.0            # same-thread children (disjoint)
        self.remote = None            # intervals of children in pool threads


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.link = None              # parent frame for pool-thread roots
        self.stats = None


def _union_length(intervals, lo, hi):
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _Stats:
    """One thread's aggregates."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counters = Counter()


class Tracer:
    """Installs span wrappers on the pseudoharm modules and aggregates them."""

    def __init__(self, span_cap=20000):
        self.span_cap = span_cap
        self.spans = []
        self.spans_dropped = 0
        self.request_id = 0
        self._state = _ThreadState()
        self._all_stats = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches = []
        self.names = []                # (module, span name) installed
        self.active = False            # spans are recorded only while set

    # -- per-thread state -------------------------------------------------

    def _stats(self):
        st = self._state
        if st.stats is None:
            st.stats = _Stats()
            with self._lock:
                self._all_stats.append(st.stats)
        return st.stats

    def count(self, name, n=1):
        self._stats().counters[name] += n

    # -- spans --------------------------------------------------------------

    def _close(self, frame, end):
        """Aggregate a finished span; returns its parent frame."""
        st = self._state
        st.stack.pop()
        start = frame.start
        dur = end - start
        covered = frame.child_s
        if frame.remote:
            with self._lock:
                remote = list(frame.remote)
            covered += _union_length(remote, start, end)
        name = frame.name
        parent = frame.parent
        stats = st.stats or self._stats()
        stats.calls[name] += 1
        stats.self_s[name] += dur - covered
        stats.incl_s[name] += dur
        if parent is not None:
            alias = _BY_PARENT.get((name, parent.name))
            if alias is not None:
                stats.calls[alias] += 1
                stats.self_s[alias] += dur - covered
                stats.incl_s[alias] += dur
            if st.stack and st.stack[-1] is parent:
                parent.child_s += dur
            else:
                with self._lock:
                    if parent.remote is None:
                        parent.remote = []
                    parent.remote.append((start, end))
        if len(self.spans) < self.span_cap:
            self.spans.append((frame.span_id,
                               parent.span_id if parent else 0, name,
                               threading.get_ident(), self.request_id,
                               start, end))
        else:
            self.spans_dropped += 1
        return parent

    # -- wrappers -----------------------------------------------------------

    def _counting(self, fn, counter):
        if getattr(fn, "_bench_counted", False) or not callable(fn):
            return fn
        count = self.count

        def counted(*args, **kwargs):
            count(counter)
            return fn(*args, **kwargs)

        counted._bench_counted = True
        return counted

    def _wrap(self, fn, name):
        tracer = self
        counter = _COUNTED_CALLABLE.get(name)
        hook = _HOOKS.get(name)

        state = self._state
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter is not None and args:
                args = (tracer._counting(args[0], counter),) + args[1:]
            stack = state.stack
            frame = _Frame(name, next(ids), stack[-1] if stack else state.link,
                           clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                parent = tracer._close(frame, clock())
            if hook is not None:
                hook(tracer, args, result, parent)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _wrap_pool(self, fn):
        tracer = self

        def parallel_map(task, items):
            if not tracer.active:
                return fn(task, items)
            st = tracer._state
            link = st.stack[-1] if st.stack else None

            def linked(item):
                ts = tracer._state
                ts.link = link
                try:
                    return task(item)
                finally:
                    ts.link = None

            return fn(linked, items)

        parallel_map.__wrapped__ = fn
        return parallel_map

    # -- install / remove ---------------------------------------------------

    def install(self):
        """Wrap every public function of the traced modules, at every name."""
        replace = {}
        for modname, layer in LAYERS.items():
            mod = sys.modules[modname]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != modname:
                    continue
                name = f"{layer}.{attr}"
                replace[obj] = self._wrap(obj, name)
                self.names.append((modname, name))
        cli = sys.modules["pseudoharm.cli"]
        pool = cli._parallel_map
        replace[pool] = self._wrap_pool(pool)
        regspec = sys.modules["pseudoharm.regspec"]
        wf_cls = regspec.PiecewiseWaveFunction
        orig_call = wf_cls.__call__
        wrapped_call = self._wrap(orig_call, _WAVEFUNCTION_EVAL)
        self._set(wf_cls, "__call__", wrapped_call)
        self.names.append(("pseudoharm.regspec", _WAVEFUNCTION_EVAL))

        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "pseudoharm"
                                   or modname.startswith("pseudoharm.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._set(mod, attr, replace[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in replace:
                            self._set_item(obj, key, replace[val])
        return self

    def _set(self, owner, attr, value):
        self._patches.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._patches.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def remove(self):
        """Restore every rebinding install() made."""
        for setter, owner, key, original in reversed(self._patches):
            setter(owner, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def merged(self):
        total = _Stats()
        with self._lock:
            parts = list(self._all_stats)
        for st in parts:
            total.calls.update(st.calls)
            total.counters.update(st.counters)
            for k, v in st.self_s.items():
                total.self_s[k] += v
            for k, v in st.incl_s.items():
                total.incl_s[k] += v
        return total


# -- per-call hooks: counts computed from arguments and results ------------

def _hook_householder(tracer, args, result, parent):
    n = np.shape(args[0])[0]
    tracer.count("eigensolver.householder.flops_computed",
                 int(round(4.0 / 3.0 * n ** 3)))


def _hook_assemble(tracer, args, result, parent):
    tracer.count("matmech.dense_bytes_computed",
                 sum(8 * blk.shape[0] * blk.shape[1]
                     for blk in result.blocks.values()))


def _hook_scan(tracer, args, result, parent):
    tracer.count("rootfind.scan_calls")
    if result:
        tracer.count("rootfind.scan_hits")


def _hook_bisect_then_secant(tracer, args, result, parent):
    if parent is not None and parent.name == "regspec.solve_ground_even":
        tracer.count("regspec.ground_windows")


def _hook_wavefunction_eval(tracer, args, result, parent):
    tracer.count("regspec.wavefunction_eval.points", int(np.size(args[1])))


_HOOKS = {
    "eigensolver.householder_tridiagonalize": _hook_householder,
    "matmech.assemble": _hook_assemble,
    "rootfind.scan_sign_changes": _hook_scan,
    "rootfind.bisect_then_secant": _hook_bisect_then_secant,
    _WAVEFUNCTION_EVAL: _hook_wavefunction_eval,
}
