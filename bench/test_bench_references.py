"""Quick checks that the benchmark's references and tracer are right.

    python3 -m pytest -q bench/test_bench_references.py
"""

import math
import sys
import textwrap

import numpy as np
import pytest
from scipy import integrate

import reference as ref
import spans


@pytest.mark.parametrize("dimension", [2, 3, 4, 5])
@pytest.mark.parametrize("t", [0.01, 1.0, 300.0])
def test_bessel_kernel_without_potential_is_the_heat_kernel_sup(dimension, t):
    assert ref.hardy_diagonal_sup(t, dimension, 0.0) == \
        pytest.approx((4.0 * math.pi * t) ** (-dimension / 2.0), rel=1e-9)


def test_bessel_kernel_without_potential_is_the_averaged_gaussian():
    # in 3-d the sphere average of the Gaussian is e^{-(r^2+s^2)/4t} sinh(z)/z
    t, s = 0.3, 0.7
    r = np.geomspace(1e-3, 10.0, 9)
    z = r * s / (2.0 * t)
    free = (4.0 * math.pi * t) ** -1.5 * np.exp(-(r * r + s * s) / (4.0 * t)) \
        * np.sinh(z) / z
    np.testing.assert_allclose(ref.hardy_kernel(r, s, t, 3, 0.0), free, rtol=1e-12)


def test_l1_to_l2_norm_is_the_diagonal_at_twice_the_time():
    # ||p_t(., s)||_2^2 = p_2t(s, s) by symmetry and the semigroup law
    t, s, dim, lam = 0.5, 0.8, 3, 2.0
    area = ref.sphere_area(dim)
    sq, _ = integrate.quad(
        lambda r: ref.hardy_kernel(r, s, t, dim, lam) ** 2 * area * r ** (dim - 1),
        0.0, 40.0, points=[s], epsabs=0.0, epsrel=1e-11, limit=200)
    assert sq == pytest.approx(float(ref.hardy_kernel(s, s, 2.0 * t, dim, lam)),
                               rel=1e-9)


def test_hardy_norms_scale_like_t_to_the_free_rate():
    a = ref.hardy_mode0_norm(1.0, math.inf, 0.1, 3, 2.0)
    b = ref.hardy_mode0_norm(1.0, math.inf, 10.0, 3, 2.0)
    assert a / b == pytest.approx(100.0 ** 1.5, rel=1e-9)


@pytest.mark.parametrize("t", [0.01, 0.3, 5.0])
def test_ncx2_ball_flow_in_three_dimensions_is_the_free_gaussian_flow(t):
    r = np.geomspace(1e-4, 30.0, 50)
    np.testing.assert_allclose(ref.ball_flow_ratio(r, t, 0.5, 3.0),
                               ref.gaussian_ball_flow_3d(r, t, 0.5),
                               rtol=1e-9, atol=1e-13)


def test_loglog_slope_recovers_a_power():
    ts = np.geomspace(30.0, 3000.0, 9)
    assert ref.loglog_slope(ts, 4.0 * ts ** -0.75) == pytest.approx(-0.75, abs=1e-12)


@pytest.fixture
def demo_package(tmp_path, monkeypatch):
    pkg = tmp_path / "tracedemo"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from . import a, b\n")
    (pkg / "a.py").write_text(textwrap.dedent("""\
        import time

        def inner(x):
            time.sleep(0.01)
            return x

        class Box:
            def work(self, x):
                return inner(x) + inner(x)
        """))
    (pkg / "b.py").write_text("from .a import inner\n\ndef outer():\n"
                              "    return inner(1)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import tracedemo
    yield tracedemo
    for name in [m for m in sys.modules if m.startswith("tracedemo")]:
        del sys.modules[name]


def test_tracer_wraps_every_binding_and_splits_self_time(demo_package, tmp_path):
    tracer = spans.Tracer()
    layers = {"a.inner": ("a", "inner", None), "a.work": ("a", "Box.work", None)}
    spans.install(tracer, demo_package, layers=layers)
    demo_package.b.outer()                  # inner through b's own binding
    demo_package.a.Box().work(2)
    tracer.dump(tmp_path / "spans.npz")
    found, counters, skipped = spans.aggregate(spans.load(tmp_path / "spans.npz"))
    assert skipped == []
    assert found["a.inner"][0] == 3 and found["a.work"][0] == 1
    work_calls, work_total, work_self = found["a.work"]
    assert work_total >= 0.02 and work_self < 0.01


def test_tracer_skips_and_lists_names_that_are_gone(demo_package, tmp_path):
    tracer = spans.Tracer()
    layers = {"gone.function": ("a", "no_such_function", None),
              "gone.method": ("a", "Box.no_such_method", None),
              "gone.class": ("a", "NoSuchClass.build", None),
              "gone.module": ("no_such_module", "f", None)}
    spans.install(tracer, demo_package, layers=layers)
    assert tracer.skipped == list(layers)
    tracer.dump(tmp_path / "spans.npz")
    values, skipped = spans.per_layer(spans.load(tmp_path / "spans.npz"))
    assert skipped == list(layers)
    assert all(v == 0 for v, _unit in values.values())
