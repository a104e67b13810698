"""The benchmark's own tests: seeded generation, expected answers, the
oracle, and the traced-run wrapper.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import random
import sys
import time
from pathlib import Path

import pytest

import canonforms as cf
import canonforms.cli  # noqa: F401  (binds cf.cli)
from perfbench import arith as ar
from perfbench import oracle
from perfbench import run
from perfbench.stats import betainc, hd_quantile
from perfbench.trace import METRICS, Tracer
from perfbench.workloads import WORKLOADS, _Draws, _mixed_blocks, _pencil_blocks, cli_spec

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_deterministic_per_seed(name):
    spec = WORKLOADS[name].spec
    first = [repr(spec(7, i)) for i in range(30)]
    assert first == [repr(spec(7, i)) for i in range(30)]
    assert first != [repr(spec(8, i)) for i in range(30)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_period_has_the_same_mix(name):
    wl = WORKLOADS[name]
    # the kind, and the matrix size or the subcommand and its flags, repeat
    # with the period; values such as kron-form's --a and --b need not
    def mix(i):
        spec = wl.spec(7, i)
        if name == "cli":
            return spec[0], spec[2][0], "--no-transform" in spec[2]
        return spec[0], len(spec[2])
    assert [mix(i) for i in range(wl.period)] == [mix(i + wl.period) for i in range(wl.period)]


def test_replaying_elementary_operations_conjugates():
    f = ar.Field(0)
    rng = random.Random(1)
    a = ar.jordan(f, 2, 3)
    ops = ar.elementary_ops(rng, rng, 3, 6)
    u = ar.unimodular(f, 3, ops)
    assert ar.det(f, u) == 1
    # U A U^{-1} = B  <=>  U A = B U
    b = ar.conjugate(f, a, ops)
    assert ar.mmul(f, u, a) == ar.mmul(f, b, u)


@pytest.mark.parametrize("p", [0, 7, 101])
def test_no_root_test_finds_irreducibles(p):
    f = ar.Field(p)
    rng = random.Random(p)
    for degree in (2, 3):
        g = ar.irreducible(f, rng, degree, 3)
        res = cf.factor(cf.Poly(cf.GF(p) if p else cf.QQ, g))
        assert [(oracle.poly(t.base), t.exponent) for t in res] == [(g, 1)]


@pytest.mark.parametrize("p", [0, 101])
def test_expected_answers_agree_with_library_on_tiny_instances(p):
    f = ar.Field(p)
    dom = cf.GF(p) if p else cf.QQ
    for n in (2, 3, 4):
        dr = _Draws(3, "tiny", n, 5)
        eld = _mixed_blocks(f, dr, n, 0.5, 3, True)
        a = ar.conjugate(f, ar.block_diag(f, [ar.hypercompanion(f, b, e) for b, e in eld]),
                         dr.ops(n))
        m = cf.Mat(dom, a)
        assert oracle.check_divisor_data(f, sorted(eld), n, cf.divisor_data(m)) is None
        for kind, fn in (("rational", cf.rational_canonical_form), ("primary", cf.primary_form)):
            assert oracle.check_form(f, a, sorted(eld), kind, fn(m)) is None
        if all(len(b) == 2 for b, _ in eld):
            assert oracle.check_form(f, a, sorted(eld), "jordan", cf.jordan_form(m)) is None
        p0, q0, divs = _pencil_blocks(f, dr, n)
        inv = cf.pencil_divisors(cf.Pencil(cf.Mat(dom, p0), cf.Mat(dom, q0)))
        assert oracle.check_pencil_divisors(divs, inv) is None


@pytest.mark.parametrize("p", [0, 101])
def test_primary_form_of_a_power_of_an_irreducible(p):
    # g^2 for an irreducible quadratic g: the library chains the two
    # companion blocks as arith.hypercompanion does
    f = ar.Field(p)
    rng = random.Random(p)
    g = ar.irreducible(f, rng, 2, 3)
    eld = sorted([(g, 2), (ar.ptrim(f, [-1, 1]), 1)])
    a = ar.conjugate(f, ar.block_diag(f, [ar.hypercompanion(f, b, e) for b, e in eld]),
                     ar.elementary_ops(rng, rng, 5, 5))
    m = cf.Mat(cf.GF(p) if p else cf.QQ, a)
    assert oracle.check_form(f, a, eld, "primary", cf.primary_form(m)) is None
    assert oracle.check_divisor_data(f, eld, 5, cf.divisor_data(m)) is None


def test_transform_builds_powers_of_irreducibles():
    wl = WORKLOADS["transform"]
    specs = [wl.spec(7, i) for i in range(wl.period)]
    powers = [s for s in specs if s[0] in ("rational", "primary")
              and any(len(b) > 2 and e == 2 for b, e in s[3])]
    assert powers


def test_harrell_davis_quantiles():
    # I_{1/2}(2, 3) = P(Binomial(4, 1/2) >= 2) = 11/16
    assert betainc(2, 3, 0.5) == pytest.approx(11 / 16)
    assert betainc(2.5, 7.1, 0.3) == pytest.approx(1 - betainc(7.1, 2.5, 0.7))
    xs = [k / 100 for k in range(101)]
    assert hd_quantile(xs, 0.5) == pytest.approx(0.5)
    assert hd_quantile(list(reversed(xs)), 0.9) == pytest.approx(0.904, abs=1e-3)
    assert hd_quantile([3.0] * 50, 0.9) == pytest.approx(3.0)


def test_oracle_rejects_a_wrong_transform():
    f = ar.Field(0)
    rng = random.Random(4)
    a = ar.conjugate(f, ar.jordan(f, 1, 3), ar.elementary_ops(rng, rng, 3, 6))
    res = cf.jordan_form(cf.Mat(cf.QQ, a))
    eld = [((f.red(-1), f.red(1)), 3)]
    assert oracle.check_form(f, a, eld, "jordan", res) is None
    bad = type(res)(kind=res.kind, blocks=res.blocks, matrix=res.matrix,
                    transform=res.transform * res.transform, verified=True)
    assert oracle.check_form(f, a, eld, "jordan", bad) is not None
    assert oracle.check_form(f, a, [((f.red(-1), f.red(1)), 2), ((f.red(-1), f.red(1)), 1)],
                             "jordan", res) is not None


@pytest.mark.parametrize("i", [0, 3, 6, 9])
def test_small_oscillation_requests_pass_their_check(i):
    wl = WORKLOADS["oscillations"]
    req = wl.bind(cf, wl.spec(5, i))
    assert req.check(req.call()) is None


def test_measure_reports_a_run_cut_at_its_deadline():
    wl = WORKLOADS["oscillations"]
    req = wl.bind(cf, wl.spec(5, 0))
    lat, reasons, busy, (cpu, _), cut = run.measure(
        wl, lambda i: req, lambda calls, cpu: calls >= 3, time.monotonic() + 60)
    assert len(lat) == 3 and not reasons and not cut and busy > 0 and cpu > 0
    lat, _, _, _, cut = run.measure(wl, lambda i: req, lambda calls, cpu: False,
                                    time.monotonic())
    assert cut and not lat


def test_steady_time_scales_by_the_reference():
    ref = run.REF_MS * 1e6
    assert run.steady(5e6, ref, ref) == pytest.approx(5e6)
    # a processor running at half speed doubles both the call and the reference
    assert run.steady(10e6, 2 * ref, 2 * ref) == pytest.approx(5e6)
    assert run.reference_ns() > 0


def _cli_requests(tmp_path, count):
    wl = WORKLOADS["cli"]
    specs = [(cli_spec(2, i), str(tmp_path / f"r{i}")) for i in range(count)]
    for spec, ctx in specs:
        wl.write(spec, ctx)
    return [wl.bind(cf, spec, ctx) for spec, ctx in specs]


def test_cli_requests_pass_their_check(tmp_path):
    for req in _cli_requests(tmp_path, 16):
        assert req.check(req.call()) is None, req.kind


def _bindings():
    return {(name, attr): id(val) for name, mod in sys.modules.items()
            if name == "canonforms" or name.startswith("canonforms.")
            for attr, val in vars(mod).items()}


def test_wrapper_patches_every_binding_and_restores_them():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        # a name bound by "from .smith import smith_form" is patched too
        assert id(cf.canonical.smith_form) != before[("canonforms.canonical", "smith_form")]
        assert cf.canonical.smith_form is cf.smith.smith_form
        assert id(cf.smith.smith_form) != before[("canonforms.smith", "smith_form")]
        assert id(cf.divisor_data) != before[("canonforms", "divisor_data")]
        tracer.begin(0)
        cf.similar(cf.Mat(cf.QQ, [[1, 1], [0, 1]]), cf.Mat(cf.QQ, [[1, 0], [1, 1]]))
        tracer.end()
    finally:
        tracer.restore()
    assert _bindings() == before
    calls, _ = tracer.totals()
    assert calls["canonical.similar"] == 1 and calls["smith.smith_form"] >= 2
    metrics = tracer.metrics(0.0, 1)
    assert metrics["smith.divisor_data.repeat_ratio"]["value"] == 0.0
    assert metrics["canonical.transform.peak_coeff_bits"]["value"] >= 1


def test_traced_and_untraced_cli_stdout_are_identical(tmp_path):
    reqs = _cli_requests(tmp_path, 32)
    plain = [req.call() for req in reqs]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [req.call() for req in reqs]
    finally:
        tracer.restore()
    assert traced == plain
    assert tracer.totals()[0]["cli.run"] == len(reqs)


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
