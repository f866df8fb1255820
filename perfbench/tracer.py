"""Span and counter tracer for the g2cal layers, installed from outside.

`Tracer.install()` wraps the public functions of every g2cal module plus
a few named methods, and rebinds every module and class attribute that
refers to a wrapped function.  That matters because most cross-layer
calls go through names bound by ``from .exterior import to_frame_basis``
and the like, which patching only the defining module would miss.

Spans are kept in memory as ``[name, start, end, parent]`` lists
(``parent`` is the index of the enclosing span, -1 at the top) and are
written out by the caller when the run ends.  The hot arithmetic dunders
and ``Form.wedge`` get call counters only: timing them would cost more
than the work they do.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("scalars", "exterior", "quaternionic", "liealg", "structures", "numeric", "cli")

# Public helpers left unwrapped.  The numeric ones run ~10^5 times per
# sweep op, so their time stays in the residual_parts span that calls
# them; exterior.wedge is only a forwarder to the counted Form.wedge.
UNWRAPPED = {
    "numeric": {"wedge", "add", "scale", "c_k", "s_k", "d_form", "frame_z", "su3_data"},
    "exterior": {"wedge"},
}

# (module, class, attribute) -> counter name; counted, never timed.
COUNTED = {
    ("scalars", "AlgebraicScalar", "__mul__"): "scalars.alg_mul",
    ("scalars", "AlgebraicScalar", "inverse"): "scalars.alg_inverse",
    ("scalars", "TrigScalar", "__mul__"): "scalars.trig_mul",
    ("scalars", "ParamPoly", "__mul__"): "scalars.param_mul",
    ("exterior", "Form", "wedge"): "exterior.wedge",
}

# (module, class or None, attribute) -> span name, for names that the
# public-function rule does not reach.
EXTRA_SPANS = {
    ("scalars", "ParamPoly", "bind"): "scalars.param_bind",
    ("exterior", "CoframeSpec", "__init__"): "exterior.coframe_spec",
    ("numeric", None, "_refine"): "numeric.refine",
}

# Distinct zeros closer than this in (lam, a, b) count as one.
SAME_ZERO = 1e-4


class Tracer:
    """Collects spans, call counts and outcome tallies while installed."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.values = collections.Counter()
        self._zeros = []
        self._stack = []
        self._patches = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(out, args)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- outcome tallies -----------------------------------------------------

    def _constraints(self, out, args):
        self.values["structures.constraints.count"] += len(out)

    def _sweep(self, out, args):
        self.values["numeric.sweep.hits"] += len(out)

    def _refine(self, out, args):
        which, system, tolerance = args[0], args[1], args[4]
        point, _mu, res = out
        if res >= tolerance:
            return
        self.values["numeric.refine.converged"] += 1
        key = (which, system)
        if not any(
            k == key and max(abs(x - y) for x, y in zip(p, point)) < SAME_ZERO
            for k, p in self._zeros
        ):
            self._zeros.append((key, point))
            self.values["numeric.refine.distinct"] += 1

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {n: importlib.import_module("g2cal." + n) for n in LAYERS}
        observers = {
            "structures.extract_constraints": self._constraints,
            "numeric.numeric_sweep": self._sweep,
            "numeric.refine": self._refine,
        }
        wrapped = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or attr in UNWRAPPED.get(layer, ())
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                name = "%s.%s" % (layer, attr)
                wrapped[fn] = self._span(name, fn, observers.get(name))
        method_wraps = []
        for (layer, cls, attr), name in EXTRA_SPANS.items():
            owner = mods[layer] if cls is None else getattr(mods[layer], cls)
            fn = vars(owner)[attr]
            wrapper = self._span(name, fn, observers.get(name))
            if cls is None:
                wrapped[fn] = wrapper
            else:
                method_wraps.append((owner, fn, wrapper))
        for (layer, cls, attr), name in COUNTED.items():
            owner = getattr(mods[layer], cls)
            fn = vars(owner)[attr]
            method_wraps.append((owner, fn, self._counter(name, fn)))

        # rebind every module-level name bound to a wrapped function
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._set(mod, attr, wrapped[val])
        # methods, including aliases such as __rmul__ = __mul__
        for owner, fn, wrapper in method_wraps:
            for attr, val in list(vars(owner).items()):
                if val is fn:
                    self._set(owner, attr, wrapper)
        # the per-space runners that report-all looks up at call time
        runners = mods["cli"].SPACE_RUNNERS
        for space, fn in list(runners.items()):
            self._set(runners, space, self._span("cli.space." + space, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, val = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = val
            else:
                setattr(owner, attr, val)

    def take(self):
        """Return and clear what was recorded since the last take()."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = {
            "spans": self.spans[:],
            "counts": dict(self.counts),
            "values": dict(self.values),
        }
        self.spans.clear()
        self.counts.clear()
        self.values.clear()
        self._zeros.clear()
        return out


def aggregate(spans):
    """Per span name: (calls, inclusive seconds, self seconds).

    A span's self time is its duration minus the time its direct child
    spans cover.  Spans nest on one thread, so children never overlap
    and the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start), own + (end - start) - covered[i])
    return out
