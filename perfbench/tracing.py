"""Per-layer tracing from outside the program: wrap glpair's public
functions, count their calls and measure their self time (duration minus
the time spent in wrapped callees).

Wrapping replaces every binding of a function in the loaded glpair
modules (so `from .parabolics import dot` in cones and polyexp is patched
too) and, for methods, the class attribute.  Spans are aggregated in
memory; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


def _quadrature_name(args, kwargs):
    return "polyexp.p_quadrature.c%d" % args[0].corank


def _exhaustive(args, kwargs):
    sample = kwargs.get("sample", args[2] if len(args) > 2 else None)
    return "exhaustive" if sample is None else None


def _support_box(args, kwargs):
    return "support_box"


# The public functions wrapped, per module (methods as Class.method).
LAYERS = {
    "census": ["conjugate", "fingerprint", "is_rss", "stabilizer_order",
               "verify_separation", "class_orbit_count"],
    "parabolics": ["dot", "simple_roots", "coweights", "rho_Q_s",
                   "restriction_check"],
    "cones": ["tau", "tau_hat", "gamma_prime", "sigma", "support_box"],
    "exact": ["Matrix.rank", "Matrix.solve", "Matrix.det", "Matrix.inverse",
              "Matrix.charpoly", "Polynomial.gcd", "Polynomial.xgcd",
              "krylov_basis", "exterior_trace"],
    "polyexp": ["p_quadrature", "p_rank1", "measure_constant_term"],
    "invariants": ["invariants", "is_regular_semisimple", "act",
                   "build_rrss_class", "orbit_representative",
                   "class_invariants", "cyclic_module_iso"],
    "rrss": ["verify_signed_sum_identity", "lambda_bar_shell", "mu"],
    "cli": ["main"],
}

# Quadrature spans are split by corank, so each corank's cost shows apart.
NAMERS = {"polyexp.p_quadrature": _quadrature_name}
SPLIT = {"polyexp.p_quadrature": ["polyexp.p_quadrature.c%d" % d
                                  for d in (1, 2, 3)]}

# A tagged span counts the calls made while it is open (see Tracer.inside).
TAGS = {"census.verify_separation": _exhaustive,
        "cones.support_box": _support_box}


def _wrapped():
    return ["%s.%s" % (module, attr)
            for module, attrs in LAYERS.items() for attr in attrs]


def span_names():
    "Every span name a traced run reports, in table order."
    return [s for name in _wrapped() for s in SPLIT.get(name, [name])]


class Tracer:
    """Call counts and self time per span name, plus `inside`: calls made
    while a tagged span was open, keyed by (tag, span name)."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.inside = Counter()
        self.stack = []   # per open span: time spent in wrapped callees
        self.tags = []    # tags of the open spans, innermost last
        self._undo = []

    def wrap(self, fn, name, namer=None, tag=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            for t in tracer.tags:
                tracer.inside[(t, label)] += 1
            mark = tag(args, kwargs) if tag else None
            frame = [0.0]
            tracer.stack.append(frame)
            if mark:
                tracer.tags.append(mark)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if mark:
                    tracer.tags.pop()
                tracer.stack.pop()
                tracer.calls[label] += 1
                tracer.self_s[label] += elapsed - frame[0]
                if tracer.stack:
                    tracer.stack[-1][0] += elapsed
        return wrapper

    def install(self, g):
        "Wrap every function in LAYERS within the loaded modules `g`."
        loaded = [m for name, m in sys.modules.items()
                  if name == "glpair" or name.startswith("glpair.")]
        for name in _wrapped():
            module, attr = name.split(".", 1)
            mod = getattr(g, module)
            namer, tag = NAMERS.get(name), TAGS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(orig, name, namer, tag))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(orig, name, namer, tag)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def close_open_spans(self):
        """Drop spans left open by an op that was interrupted (a time
        limit raises inside whatever code is running)."""
        self.stack.clear()
        self.tags.clear()

    def metrics(self):
        out = {}
        for name in span_names():
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        return out
