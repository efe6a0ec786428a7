"""Tests of the benchmark's oracles and checks.

Each oracle is compared with a second computation in mpmath at 30
digits, and each check is shown to accept a correct output and to reject
a deliberately wrong one.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

import checks

mp.mp.dps = 30


def mp_zonal(n, k, t):
    """Z_k from closed forms other than SciPy's: cos(k acos t) for
    n = 2, the explicit power sum of C_k^lam otherwise."""
    t = mp.mpf(t)
    if n == 2:
        return mp.mpf(1) if k == 0 else 2 * mp.cos(k * mp.acos(t))
    lam = mp.mpf(n - 2) / 2
    c = mp.fsum((-1) ** m * mp.gamma(k - m + lam)
                / (mp.gamma(lam) * mp.factorial(m) * mp.factorial(k - 2 * m))
                * (2 * t) ** (k - 2 * m) for m in range(k // 2 + 1))
    return (2 * k + n - 2) / mp.mpf(n - 2) * c


def mp_sphere_mean(g, n):
    a = mp.mpf(n - 3) / 2
    w = lambda t: (1 - t * t) ** a  # noqa: E731
    return (mp.quad(lambda t: g(t) * w(t), [-1, 0, 1])
            / mp.quad(w, [-1, 0, 1]))


# ---------------------------------------------------------------------------
# Oracles against mpmath


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("k", [0, 1, 2, 4])
def test_zonal_oracle_matches_mpmath(n, k):
    t = np.array([-1.0, -0.3, 0.0, 0.45, 1.0])
    got = checks.zonal_oracle(n, k, t)
    ref = [float(mp_zonal(n, k, mp.mpf(x))) for x in t]
    assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_sphere_mean_matches_mpmath(n, k):
    got = checks.sphere_mean(lambda t: checks.zonal_oracle(n, k, t) ** 2, n)
    ref = mp_sphere_mean(lambda t: mp_zonal(n, k, t) ** 2, n)
    assert got == pytest.approx(float(ref), rel=1e-10)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["const_one", "coord_x1", "solid_k1",
                                  "solid_k2", "solid_k4"])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
def test_ball_norm_oracle_matches_mpmath(n, name, alpha):
    k, g = checks.gallery_degree(name)
    if g is None:
        mean = mp.mpf(1)
    elif name == "coord_x1":
        mean = mp_sphere_mean(lambda t: t * t, n)
    else:
        mean = mp_sphere_mean(lambda t: mp_zonal(n, k, t) ** 2, n)
    radial = mp.quad(lambda r: n * r ** (n - 1 + 2 * k)
                     * (1 - r * r) ** alpha, [0, 1])
    ref = mp.sqrt(mean * radial)
    assert checks.ball_norm_oracle(n, name, alpha) == pytest.approx(
        float(ref), rel=1e-11)


def test_ball_norm_oracle_known_value():
    # solid_k2 in n = 3, p = 2, alpha = 1: 5 * (3/2) B(7/2, 2) = 10/21
    assert checks.ball_norm_oracle(3, "solid_k2", 1.0) == pytest.approx(
        math.sqrt(10.0 / 21.0), rel=1e-13)


def test_gallery_value_is_homogeneous_profile():
    X = np.array([[0.3, -0.2, 0.1], [0.0, 0.0, 0.0], [-0.5, 0.1, 0.4]])
    r = np.linalg.norm(X, axis=1)
    t = X[:, 0] / np.where(r > 0, r, 1.0)
    exact = [float(mp.mpf(ri) ** 3 * mp_zonal(3, 3, mp.mpf(ti)))
             for ri, ti in zip(r, t)]
    assert np.allclose(checks.gallery_value("solid_k3", X), exact,
                       atol=1e-15)


def test_poisson_ball_oracle_matches_mpmath_series():
    x = np.array([[0.4, 0.3, -0.2]])
    r = mp.sqrt(sum(mp.mpf(v) ** 2 for v in x[0]))
    t = mp.mpf(x[0, 0]) / r
    series = mp.nsum(lambda k: r**k * mp_zonal(3, int(k), t), [0, mp.inf])
    assert checks.poisson_ball_oracle(3, x)[0] == pytest.approx(
        float(series), rel=1e-12)


def test_halfspace_oracles_match_mpmath():
    for y, s in [(0.0, 0.0), (0.7, 0.3), (-1.5, 2.0)]:
        tau = mp.mpf(s) + 1
        p = lambda tt: tt / (mp.pi * (mp.mpf(y) ** 2 + tt * tt))  # noqa: E731
        assert float(checks.hs_poisson_oracle(y, s)) == pytest.approx(
            float(p(tau)), rel=1e-14)
        assert float(checks.qm_w0_oracle(y, s)) == pytest.approx(
            float(4 * mp.diff(p, tau, 2)), rel=1e-12)


def test_qm_w0_norm_oracle_matches_mpmath():
    # y = tau v reduces the lateral integral to tau^-5 (64/pi^2) I, and
    # int_0^inf s (s + 1)^-5 ds = 1/12
    inner = mp.quad(lambda v: (1 - 3 * v * v) ** 2 / (1 + v * v) ** 6,
                    [-mp.inf, 0, mp.inf])
    ref = mp.sqrt(64 / mp.pi**2 * inner / 12)
    assert checks.qm_w0_norm_oracle() == pytest.approx(float(ref), rel=1e-10)
    assert float(ref) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-20)


def test_qm_w0_weighted_sup_oracle_matches_mpmath():
    # s^lam (s + 1)^-3 peaks where lam (s + 1) = 3 s
    lam = mp.mpf(3) / 2
    s = lam / (3 - lam)
    ref = 8 / mp.pi * s**lam / (s + 1) ** 3
    assert checks.qm_w0_weighted_sup_oracle(1.5) == pytest.approx(
        float(ref), rel=1e-10)


def test_sphere_max_abs_matches_dimension():
    # |Z_k| peaks at the poles, where it equals the space dimension
    assert checks.sphere_max_abs(3, "solid_k2") == pytest.approx(5.0,
                                                                 rel=1e-15)
    assert checks.sphere_max_abs(3, "solid_k2") == pytest.approx(
        float(mp_zonal(3, 2, mp.mpf(1))), rel=1e-15)


# ---------------------------------------------------------------------------
# Checks accept the right output and reject a wrong one


def test_representation_check():
    assert checks.check_representation("r", 3e-5, 1e-4) == []
    assert checks.check_representation("r", 2e-4, 1e-4)
    assert checks.check_representation("r", math.nan, 1e-4)


def test_ball_norm_check_rejects_one_percent():
    exact = checks.ball_norm_oracle(3, "solid_k3", 1.0)
    assert checks.check_ball_norm(3, "solid_k3", 1.0, exact) == []
    assert checks.check_ball_norm(3, "solid_k3", 1.0, 1.01 * exact)


def test_reconstruction_check_rejects_1e3_offset():
    X = np.array([[0.1, 0.2, -0.3], [0.3, 0.0, 0.1]])
    exact = checks.gallery_value("solid_k2", X)
    tol = checks.BALL_DECOMP_TOL
    assert checks.check_values("rec", exact + 0.5 * tol, exact, tol) == []
    assert checks.check_values("rec", exact + 1e-3, exact, tol)
    assert checks.check_values("rec", exact[:1], exact, tol)


def test_boundary_classes_check():
    eps = [0.25, 0.5, 1.0, 1.5, 2.2]
    good = ["DIVERGENT"] * 4 + ["FINITE"]
    assert checks.check_boundary_classes("b", eps, good, 2.0) == []
    low_finite = ["FINITE"] + good[1:]
    assert checks.check_boundary_classes("b", eps, low_finite, 2.0)
    high_divergent = good[:-1] + ["INCONCLUSIVE"]
    assert checks.check_boundary_classes("b", eps, high_divergent, 2.0)


def test_profile_monotone_check():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([0.5, 1.0, 2.0])
    assert checks.check_profile_monotone("m", [a, b]) == []
    assert checks.check_profile_monotone("m", [a[::-1], b])
    assert checks.check_profile_monotone("m", [b, a])


def test_poisson_sup_check():
    assert checks.check_poisson_sup(2.0 - 1e-7) == []
    assert checks.check_poisson_sup(1.99)
    assert checks.check_poisson_sup(2.01)


def test_member_check():
    assert checks.check_member("d", ["FINITE"] * 5, 0.0, 0.0) == []
    assert checks.check_member("d", ["INCONCLUSIVE"] + ["FINITE"] * 4,
                               0.0, 0.0)
    assert checks.check_member("d", ["FINITE"] * 5, 0.01, 0.02)


def test_c02_margin_check():
    assert checks.check_c02_margin("c", 1.0005, 0.0, 1.0) == []
    assert checks.check_c02_margin("c", 1.01, 0.0, 1.0)
    assert checks.check_c02_margin("c", 1.01, 0.05, 1.0) == []


def test_close_check_rejects_one_percent():
    ref = checks.qm_w0_norm_oracle()
    assert checks.check_close("n", ref * (1 + 1e-6), ref,
                              checks.HALF_NORM_RTOL) == []
    assert checks.check_close("n", ref * 1.01, ref, checks.HALF_NORM_RTOL)
    assert checks.check_close("n", math.nan, ref, checks.HALF_NORM_RTOL)


# ---------------------------------------------------------------------------
# Workload-level checks on hand-built outputs


workloads = pytest.importorskip("workloads")


def _profile(classification, values):
    return SimpleNamespace(classification=classification,
                           values=np.asarray(values, dtype=float))


def _boundary_report(first_class):
    eps = 2.0 * np.array([0.125, 0.25, 0.5, 0.75, 1.1])
    classes = [first_class] + ["DIVERGENT"] * 3 + ["FINITE"]
    values = [np.array([1.0, 3.0, 7.0, 15.0, 31.0]) / (i + 1)
              for i in range(4)] + [np.zeros(5)]
    entry = SimpleNamespace(
        eps_grid=eps,
        profiles=[_profile(c, v) for c, v in zip(classes, values)])
    return SimpleNamespace(weighted_sup=2.0 - 1e-7, lam=2.0,
                           entries=[entry, entry])


def test_ball_boundary_check_rejects_finite_at_low_eps():
    inp = {"values_at": np.array([[0.1, 0.2, 0.3]])}
    good = {("experiment",): _boundary_report("DIVERGENT"),
            ("values",): checks.poisson_ball_oracle(3, inp["values_at"])}
    assert workloads.check_ball_boundary(inp, good) == []
    bad = dict(good)
    bad[("experiment",)] = _boundary_report("FINITE")
    assert workloads.check_ball_boundary(inp, bad)


def test_ball_distance_check_rejects_reconstruction_offset():
    X = np.array([[0.1, 0.2, -0.3], [0.3, 0.0, 0.1]])
    fx = checks.gallery_value("solid_k2", X)
    sup = 5.0 / 16.0
    entry = SimpleNamespace(
        profiles=[_profile("FINITE", np.ones(10))] * 5,
        bracket=SimpleNamespace(lower=0.0), s2_estimate=0.0,
        s1_upper=(0.1, 0.2, 0.25, 0.3, sup))
    report = SimpleNamespace(weighted_sup=sup, entries=[entry])
    inp = {"points": X}
    good = {("experiment",): report, ("split",): (0.25 * fx, 0.75 * fx)}
    assert workloads.check_ball_distance(inp, good) == []
    bad = {("experiment",): report, ("split",): (0.25 * fx, 0.75 * fx + 1e-3)}
    assert workloads.check_ball_distance(inp, bad)


def test_ball_repro_check_rejects_norm_off_by_one_percent():
    exact = checks.ball_norm_oracle(2, "solid_k1", 1.0)
    inp = {}
    assert workloads.check_ball_repro(
        inp, {("norm", 2, "solid_k1", 1.0): exact}) == []
    assert workloads.check_ball_repro(
        inp, {("norm", 2, "solid_k1", 1.0): 0.99 * exact})


def test_halfspace_check_rejects_norm_off_by_one_percent():
    exact = checks.qm_w0_norm_oracle()
    ok = SimpleNamespace(value=exact * (1 + 1e-6), tail_bound=0.01)
    bad = SimpleNamespace(value=exact * 1.01, tail_bound=0.01)
    assert workloads.check_halfspace({}, {("norm",): ok}) == []
    assert workloads.check_halfspace({}, {("norm",): bad})
