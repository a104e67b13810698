"""Per-module spans for a traced run, recorded from outside the library.

:class:`Tracer` wraps every public function of the library modules below and
rebinds each ``canonforms.*`` module attribute that refers to one of them,
including the names bound by ``from .x import y`` (``canonforms.canonical.
smith_form`` is a binding of its own, apart from ``canonforms.smith.
smith_form``).  Spans (name, start, end, parent, request) stay in memory;
:meth:`Tracer.restore` puts every original attribute back.

Calls that do not go through a module attribute, such as the form builders
the CLI captured in closures at import time, are not seen.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("algebra", "matrix", "smith", "canonical", "pencil", "oscillations", "cli")

# Scalar helpers run once per arithmetic operation; a span around each would
# cost more than the work it measures and hide the layers above.
SKIP = frozenset({"algebra.scalar_is_zero", "algebra.scalar_key", "algebra.GF"})

# Functions whose repeated inputs within one request are counted.
REPEATS = ("algebra.factor", "smith.smith_form", "smith.divisor_data")

FORMS = ("canonical.jordan_form", "canonical.rational_canonical_form",
         "canonical.primary_form", "canonical.similar")

# (metric, unit) in the order a traced run prints them.
METRICS = (
    ("algebra.factor.calls", "count"),
    ("algebra.factor.self_s", "s"),
    ("algebra.factor.repeat_ratio", "ratio"),
    ("algebra.rational_roots.self_s", "s"),
    ("algebra.isolate_real_roots.self_s", "s"),
    ("matrix.det.calls", "count"),
    ("matrix.det.self_s", "s"),
    ("matrix.adjugate.self_s", "s"),
    ("matrix.unimodular_inverse.self_s", "s"),
    ("matrix.mat_inverse.self_s", "s"),
    ("matrix.nullspace.self_s", "s"),
    ("smith.smith_form.calls", "count"),
    ("smith.smith_form.self_s", "s"),
    ("smith.smith_form.repeat_ratio", "ratio"),
    ("smith.smith_form.peak_coeff_bits", "bits"),
    ("smith.smith_form.peak_degree", "degree"),
    ("smith.smith_diagonal.self_s", "s"),
    ("smith.divisor_data.calls", "count"),
    ("smith.divisor_data.repeat_ratio", "ratio"),
    ("canonical.similarity_transform.self_s", "s"),
    ("canonical.forms.self_s", "s"),
    ("canonical.transform.peak_coeff_bits", "bits"),
    ("pencil.pencil_divisors.self_s", "s"),
    ("pencil.pencil_equivalent.self_s", "s"),
    ("oscillations.adjugate_column_polynomials.calls", "count"),
    ("oscillations.adjugate_column_polynomials.self_s", "s"),
    ("oscillations.eigvec_adjugate.self_s", "s"),
    ("oscillations.mode_report.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.parse_matrix.self_s", "s"),
    ("trace.overhead_frac", "frac"),
)


def coeff_bits(x) -> int:
    """Bit size of a scalar or of the largest coefficient of a polynomial."""
    if hasattr(x, "coeffs"):
        return max((coeff_bits(c) for c in x.coeffs), default=0)
    if hasattr(x, "v"):
        return x.v.bit_length()
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _peak(mats):
    entries = [e for m in mats for row in m.entries for e in row]
    bits = max((coeff_bits(e) for e in entries), default=0)
    degree = max((getattr(e, "degree", 0) for e in entries), default=0)
    return bits, degree


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent index, request)
        self.request = -1
        self._stack = []
        self._seen = defaultdict(set)
        self._repeats = Counter()
        self._pending = []       # (name, result) whose sizes are read after the request
        self._peaks = Counter()
        self._patched = []       # (module, attribute, original)

    # -- installing and removing the wrappers

    def install(self):
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"canonforms.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "canonforms" and not modname.startswith("canonforms."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def restore(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counts_repeats = name in REPEATS
        keeps_result = name == "smith.smith_form" or name in FORMS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_repeats:
                self._note_input(name, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if keeps_result:
                self._pending.append((name, out))
            return out

        return wrapper

    def _note_input(self, name, args):
        try:
            hash(args)
        except TypeError:
            return
        seen = self._seen[name]
        if args in seen:
            self._repeats[name] += 1
        else:
            seen.add(args)

    # -- requests

    def begin(self, request: int):
        self.request = request
        self._stack.clear()

    def end(self):
        """Close the current request: read result sizes, forget its inputs."""
        for name, out in self._pending:
            if name == "smith.smith_form":
                bits, degree = _peak((out[0], out[2]))
                self._peaks["smith.smith_form.peak_coeff_bits"] = max(
                    self._peaks["smith.smith_form.peak_coeff_bits"], bits)
                self._peaks["smith.smith_form.peak_degree"] = max(
                    self._peaks["smith.smith_form.peak_degree"], degree)
            else:
                t = out[1] if name == "canonical.similar" else out.transform
                if t is not None:
                    bits, _ = _peak((t,))
                    self._peaks["canonical.transform.peak_coeff_bits"] = max(
                        self._peaks["canonical.transform.peak_coeff_bits"], bits)
        self._pending.clear()
        self._seen.clear()

    # -- results

    def totals(self):
        """Per function name: (calls, self nanoseconds)."""
        # a span is None only when a timeout struck before it could close
        spans = [s for s in self.spans if s is not None]
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_ns = Counter(), Counter()
        for k, span in enumerate(self.spans):
            if span is not None:
                name, start, end, _, _ = span
                calls[name] += 1
                self_ns[name] += end - start - child[k]
        return calls, self_ns

    def metrics(self, overhead_frac: float, periods: float):
        """Every metric of METRICS; counts and self times per period of the
        workload's call mix, so runs of different lengths compare."""
        calls, self_ns = self.totals()
        out = {}
        for metric, unit in METRICS:
            fn, _, stat = metric.rpartition(".")
            if stat == "calls":
                value = calls[fn] / periods
            elif stat == "self_s":
                names = FORMS if fn == "canonical.forms" else (fn,)
                value = sum(self_ns[n] for n in names) / 1e9 / periods
            elif stat == "repeat_ratio":
                value = self._repeats[fn] / calls[fn] if calls[fn] else 0.0
            elif metric == "trace.overhead_frac":
                value = overhead_frac
            else:
                value = self._peaks[metric]
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
