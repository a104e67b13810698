"""Run one workload of the canonforms benchmark and print its metrics.

    python3 perfbench/run.py --workload transform --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` of the checkout this file sits in.
One process, one thread, one caller: each call is issued after the previous
one returns (a closed loop).  Every answer is checked outside the timer.

Call time is the calling thread's CPU time, scaled to a steady processor
speed.  The library is single-threaded and computes without waiting, so on
an idle machine its CPU time is its wall time.  On a shared machine, other
tenants change how fast the processor runs from one second to the next, by
up to a factor of two.  So a fixed reference job runs right before and
right after each call and each step of set-up, and the CPU time measured
is scaled by ``REF_MS`` over the mean time of those two jobs.  Times are
then in milliseconds of a processor on which the reference job takes
``REF_MS``.

``--trace 0`` runs the timed phase untraced and reports the end-to-end
metrics.  ``--trace 1`` runs whole periods of the same requests for a
quarter of the time untraced, then the same calls traced, and reports the
per-layer metrics per period of the call mix; its spans go to
``perfbench/out/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPEATS = 7
MIN_CALLS = 100           # p90 then has at least ten samples beyond it
CALL_CAP_S = 20.0         # a call past this counts as failed
WALL_LIMIT_S = 140.0      # a run still measuring this long after set-up is cut
# the reference job's CPU time on the quiet 2-CPU machine where the benchmark
# was defined (the 10th percentile over 30 s; its median there was 1.36 ms)
REF_MS = 0.9


class CallTimeout(BaseException):
    """A call ran past its cap.  Not an Exception, so that no handler inside
    the library can swallow it."""


def _on_alarm(signum, frame):
    raise CallTimeout


def import_library():
    """A fresh import of canonforms from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "canonforms" or m.startswith("canonforms.")]:
        del sys.modules[name]
    cf = importlib.import_module("canonforms")
    importlib.import_module("canonforms.cli")
    if Path(cf.__file__).resolve().parent != SRC / "canonforms":
        raise SystemExit(f"error: imported canonforms from {cf.__file__}, not {SRC}")
    return cf


def reference_ns():
    """CPU time of a fixed job of the kinds of work the library does:
    rational and big-integer arithmetic and dict updates.  It uses no
    library code, so its time tracks only the speed of the processor."""
    t0 = time.thread_time_ns()
    acc = Fraction(0)
    for k in range(1, 100):
        acc += Fraction(k, 2 * k + 1) * Fraction(3, k + 2)
    x = 3 ** 3000
    for _ in range(20):
        x = (x * 7 + 1) % 5 ** 4000
    d = {}
    for k in range(500):
        d[k % 97] = d.get(k % 97, 0) + k * k
    return time.thread_time_ns() - t0


def steady(cpu_ns, ref0_ns, ref1_ns):
    """``cpu_ns`` scaled to a processor on which the reference job takes
    ``REF_MS``, from the reference's times right before and right after."""
    return cpu_ns * REF_MS * 2e6 / (ref0_ns + ref1_ns)


class SteadyClock:
    """Sums the steady time of a sequence of steps: each step's CPU time,
    scaled by the reference job's times right before and right after it.
    The job after one step is the job before the next."""

    def __init__(self):
        self.total_ns, self._ref = 0.0, reference_ns()

    def time(self, fn, *args):
        t0 = time.thread_time_ns()
        out = fn(*args)
        dt = time.thread_time_ns() - t0
        ref = reference_ns()
        self.total_ns += steady(dt, self._ref, ref)
        self._ref = ref
        return out


def set_up(wl, seed, files):
    """Import, generate the request pool, write its files, bind it, warm up;
    return those and the steady time they took.  Each step is timed on its
    own, so the scaling follows the processor's speed through the set-up."""
    shutil.rmtree(files, ignore_errors=True)
    files.mkdir(parents=True)
    clock = SteadyClock()
    cf = clock.time(import_library)
    specs = [clock.time(wl.spec, seed, i) for i in range(wl.period)]
    if wl.write:
        # untimed: creating the same 140 cli files took 20 ms in one process
        # and 80 ms in the next, with the shared disk, not with the program
        for i, spec in enumerate(specs):
            wl.write(spec, str(files / f"r{i}"))
    reqs = [clock.time(wl.bind, cf, spec, str(files / f"r{i}")) for i, spec in enumerate(specs)]
    clock.time(warm_up, cf)
    return cf, specs, reqs, clock.total_ns


def warm_up(cf):
    """One small call into each layer, so first-call costs fall in set-up."""
    q = cf.QQ
    a = cf.Mat(q, [[1, 1], [0, 1]])
    one = cf.Mat(q, [[1, 0], [0, 1]])
    cf.jordan_form(a)
    cf.rational_canonical_form(a)
    cf.primary_form(a)
    cf.similar(a, a)
    cf.divisor_data(cf.Mat(cf.GF(101), [[0, 1], [1, 0]]))
    cf.pencil_equivalent(cf.Pencil(one, a), cf.Pencil(one, a))
    cf.mode_report(cf.OscSystem(one, cf.Mat(q, [[2, -1], [-1, 2]])))
    cf.cli.run(["kron-form", "--kind", "I", "--size", "2", "--json"], out=io.StringIO())


def measure(wl, request, stop, deadline, tracer=None, first_text=None):
    """Issue requests until ``stop(calls, cpu_ns)``; return ((kind, latency
    ns) per call, failure reasons, busy ns, (CPU ns, wall ns) of the calls,
    and whether the monotonic ``deadline`` cut the loop before ``stop``
    ended it).  Only the call itself is timed, by the calling thread's CPU
    clock; latencies and busy time are that time scaled by ``steady``."""
    lat, reasons, busy, cpu, wall, i = [], Counter(), 0, 0, 0, 0
    while not stop(i, cpu):
        if time.monotonic() >= deadline:
            return lat, reasons, busy, (cpu, wall), True
        req = request(i)
        gc.collect()
        err, out = None, None
        ref0 = reference_ns()
        if tracer:
            tracer.begin(i)
        t0, w0 = time.thread_time_ns(), time.perf_counter_ns()
        try:
            signal.setitimer(signal.ITIMER_REAL, CALL_CAP_S)
            try:
                out = req.call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CallTimeout:
            err = "timeout"
        except Exception as exc:  # any raise is a failed call, counted below
            err = f"raised {type(exc).__name__}"
        dt = time.thread_time_ns() - t0
        wall += time.perf_counter_ns() - w0
        if tracer:
            tracer.end()
        cpu += dt
        dt = steady(dt, ref0, reference_ns())
        if err is None:
            try:
                err = req.check(out)
            except Exception as exc:  # a malformed answer the oracle cannot read
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is None and first_text is not None:
            # the same argv must print the same bytes on every pass
            if first_text.setdefault(i % wl.period, out[1]) != out[1]:
                err = "stdout differs from an earlier pass"
        if err is not None:
            reasons[f"{req.kind}: {err}"] += 1
        lat.append((req.kind, dt))
        busy += dt
        i += 1
    return lat, reasons, busy, (cpu, wall), False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "canonforms" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'canonforms'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench.stats import hd_quantile
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    files = OUT / f"{wl.name}-{args.seed}"

    setup = []
    for _ in range(SETUP_REPEATS):
        cf, specs, reqs, ns = set_up(wl, args.seed, files)
        setup.append(ns / 1e9)
    digest = hashlib.sha256(repr(specs).encode()).hexdigest()
    # set-up's objects live for the whole run: keep them out of the
    # collections between calls, so that those stay short
    gc.collect()
    gc.freeze()

    def request(i):
        if i < wl.period or wl.reuse:
            return reqs[i % wl.period]
        return wl.bind(cf, wl.spec(args.seed, i), str(files / f"r{i}"))

    first_text = {} if wl.reuse else None
    deadline = time.monotonic() + WALL_LIMIT_S
    if args.trace:
        # whole periods for a quarter of the time untraced, then the same
        # calls traced
        quarter_ns = args.seconds * 1e9 / 4
        stop = lambda calls, cpu: cpu >= quarter_ns and calls % wl.period == 0  # noqa: E731
        lat0, reasons, busy0, (cpu, wall), cut = measure(wl, request, stop, deadline,
                                                         first_text=first_text)
        tracer = Tracer()
        tracer.install()
        try:
            lat1, reasons1, busy1, (cpu1, wall1), cut1 = measure(
                wl, request, lambda calls, cpu: calls >= len(lat0), deadline, tracer, first_text)
        finally:
            tracer.restore()
        reasons.update(reasons1)
        lat, busy, cut = lat0 + lat1, busy0 + busy1, cut or cut1
        cpu, wall = cpu + cpu1, wall + wall1
        # the overhead compares the same calls: those both phases ran
        base = sum(t for _, t in lat0[:len(lat1)])
        metrics = tracer.metrics(busy1 / base - 1 if base else 0.0, len(lat1) / wl.period)
        spans = OUT / f"spans-{wl.name}-{args.seed}.jsonl"
        tracer.dump(spans)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    else:
        need_ns = args.seconds * 1e9
        # whole periods only, so every run measures the same call mix
        stop = lambda calls, cpu: (  # noqa: E731
            calls >= MIN_CALLS and cpu >= need_ns and calls % wl.period == 0)
        lat, reasons, busy, (cpu, wall), cut = measure(wl, request, stop, deadline,
                                                       first_text=first_text)
        ok = len(lat) - sum(reasons.values())
        ms = [t / 1e6 for _, t in lat]
        metrics = {
            "calls_per_s": {"value": ok / (busy / 1e9), "unit": "1/s"},
            "latency_p50_ms": {"value": hd_quantile(ms, 0.5), "unit": "ms"},
            "latency_p90_ms": {"value": hd_quantile(ms, 0.9), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    shutil.rmtree(files, ignore_errors=True)

    failed = sum(reasons.values())
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"inputs sha256:{digest} ({len(specs)} specs)")
    print(f"attempted {len(lat)}  failed {failed}  failed_frac {failed / len(lat):.4f} frac  "
          f"(latency samples: {len(lat)})")
    print(f"call time {busy / 1e9:.2f} s steady, {cpu / 1e9:.2f} s CPU, "
          f"{wall / 1e9:.2f} s wall (CPU / steady {cpu / busy:.3f}: how slowly the "
          f"processor ran; wall / CPU {wall / cpu:.3f}: time spent waiting for one)")
    if cut:
        print(f"truncated: the timed phase was still running {WALL_LIMIT_S:.0f} s after "
              f"set-up, so its metrics cover a partial period; the run is not correct")
    for reason, count in sorted(reasons.items()):
        print(f"  failed x{count}: {reason}")
    by_kind = {}
    for kind, t in lat:
        by_kind.setdefault(kind, []).append(t / 1e6)
    for kind, ts in sorted(by_kind.items()):
        print(f"  {kind:<32} calls {len(ts):>4}  median {statistics.median(ts):9.1f} ms"
              f"  max {max(ts):9.1f} ms")
    for name, m in metrics.items():
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not cut, "attempted": len(lat), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
