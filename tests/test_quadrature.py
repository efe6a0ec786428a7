"""Quadrature rules: exactness degrees, normalization, tail handling."""

import math

import numpy as np
import pytest

from bergman_lab.errors import DomainError, EvaluationError
from bergman_lab.geometry import tangent_frame
from bergman_lab.quadrature import (
    composite_gauss,
    geometric_edges,
    halfspace_rule,
    integrate_halfspace,
    integrate_lateral,
    lateral_grid,
    radial_rule,
    sphere_area,
    sphere_rule,
    zonal_rule,
)
from bergman_lab.quadrature import TailDecay


@pytest.mark.parametrize("order", [2, 4, 8])
def test_composite_gauss_polynomial_exactness(order):
    # a Gauss-Legendre panel of ``order`` nodes is exact through
    # degree 2*order - 1
    edges = np.array([0.0, 0.3, 1.0])
    nodes, weights = composite_gauss(edges, order)
    for k in range(2 * order):
        exact = 1.0 / (k + 1)
        assert abs(weights @ nodes**k - exact) < 1e-13


def test_composite_gauss_interval_additivity():
    one = composite_gauss(np.array([0.0, 1.0]), 6)
    two = composite_gauss(np.array([0.0, 0.5, 1.0]), 6)
    f = lambda x: np.exp(-3.0 * x)
    exact = (1.0 - math.exp(-3.0)) / 3.0
    assert abs(one[1] @ f(one[0]) - exact) < 1e-9
    assert abs(two[1] @ f(two[0]) - exact) < 1e-12


def test_geometric_edges_refine_toward_right_endpoint():
    edges = geometric_edges(0.0, 1.0, 6, toward="b")
    assert edges[0] == 0.0 and edges[-1] == 1.0
    gaps = np.diff(edges)
    assert np.all(gaps[1:] <= gaps[:-1])
    # panel widths halve toward the refined endpoint
    assert gaps[-1] <= 2.0 ** -5


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_rule_weights_normalized(n):
    sr = sphere_rule(n, 17)
    assert abs(sr.weights.sum() - 1.0) < 1e-14
    assert np.allclose(np.linalg.norm(sr.nodes, axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_rule_kills_low_harmonics(n):
    # coordinate monomials of odd degree average to zero; x_1^2
    # averages to 1/n by symmetry
    sr = sphere_rule(n, 17)
    x1 = sr.nodes[:, 0]
    assert abs(sr.weights @ x1) < 1e-14
    assert abs(sr.weights @ x1**3) < 1e-14
    assert abs(sr.weights @ x1**2 - 1.0 / n) < 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_zonal_rule_matches_sphere_rule(n):
    # a zonal integrand reduces the sphere mean to the u-line
    zr = zonal_rule(n, order=12, refinement=24)
    sr = sphere_rule(n, 23)
    g = lambda u: np.exp(u) + 1.0 / (2.5 - u)
    via_sphere = sr.weights @ g(sr.nodes[:, 0])
    via_zonal = zr.weights @ g(zr.u_nodes)
    assert abs(via_sphere - via_zonal) < 1e-9
    assert abs(zr.weights.sum() - 1.0) < 1e-13


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_radial_rule_beta_moments(alpha):
    # int_0^1 r^2 (1-r)^alpha dr = B(3, alpha+1), singular weight at
    # the boundary end
    rr = radial_rule(10, 14)
    got = rr.weights @ (rr.nodes**2 * (1.0 - rr.nodes) ** alpha)
    exact = math.gamma(3.0) * math.gamma(alpha + 1.0) / math.gamma(alpha + 4.0)
    assert abs(got - exact) < 1e-12


def test_radial_rule_truncation_index_is_monotone():
    rr = radial_rule(8, 12)
    i1 = rr.truncation_index(0.9)
    i2 = rr.truncation_index(0.99)
    assert 0 < i1 <= i2 <= rr.nodes.size


def test_halfspace_rule_gaussian_mass():
    # exp(-y^2 - s) over |y| <= R, s_min <= s <= s_max factorizes;
    # the rule covers exactly that box, so compare the box integral
    s_min, s_max = 2.0**-12, 32.0
    rule = halfspace_rule(1, R_xy=8.0, s_min=s_min, s_max=s_max,
                          order=10, lateral_refinement=8)
    mesh, w_lat = rule.lateral_mesh()
    lat = w_lat @ np.exp(-mesh[:, 0] ** 2)
    heights = rule.s_weights @ np.exp(-rule.s_nodes)
    exact = math.sqrt(math.pi) * (math.exp(-s_min) - math.exp(-s_max))
    assert abs(lat * heights - exact) < 1e-8


def test_integrate_halfspace_reports_tail():
    decay = TailDecay(power_infinity=4.0)
    rule = halfspace_rule(1, R_xy=16.0, s_min=2.0**-10, s_max=16.0)

    def g(Y, s):
        u = Y[:, 0] ** 2
        return 1.0 / (1.0 + u + s * s) ** 2

    out = integrate_halfspace(g, rule, decay)
    assert out.value > 0.0
    assert 0.0 < out.tail_bound < 0.1 * out.value


def test_integrate_halfspace_refuses_slow_decay():
    decay = TailDecay(power_infinity=1.5)
    rule = halfspace_rule(1)
    with pytest.raises(DomainError):
        integrate_halfspace(lambda Y, s: np.ones(Y.shape[0]), rule, decay)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lateral_tail_uses_the_sphere_area_of_dimension_n(n):
    # |g| <= edge |y|^-d outside |y| <= R integrates to
    # edge * |S^{n-1}| R^n / (d - n); reported with a factor 2
    rule = halfspace_rule(n, R_xy=4.0, s_min=0.5, s_max=2.0, order=2,
                          lateral_refinement=1)
    out = integrate_lateral(lambda Y: np.ones(Y.shape[0]), rule, 1.0, n + 2.0)
    assert out.tail_bound == pytest.approx(2.0 * sphere_area(n) * 4.0**n / 2.0,
                                           rel=1e-14)


def test_halfspace_tail_in_three_lateral_dimensions():
    # constant integrand: every face sample is 1, so the bound is
    # 2 (top + lateral) + bottom with the n = 3 lateral area 4 pi R^3
    n, R, s_min, s_max, d = 3, 2.0, 0.5, 2.0, 6.0
    rule = halfspace_rule(n, R_xy=R, s_min=s_min, s_max=s_max, order=2,
                          lateral_refinement=1)
    out = integrate_halfspace(lambda Y, s: np.ones(Y.shape[0]), rule,
                              TailDecay(power_infinity=d))
    top = (2.0 * R) ** n * s_max / (d - 1.0)
    lat = (s_max - s_min) * 4.0 * math.pi * R**3 / (d - 3.0)
    bottom = 2.0 * (2.0 * R) ** n * s_min
    assert out.value == pytest.approx((2.0 * R) ** n * (s_max - s_min),
                                      rel=1e-12)
    assert out.tail_bound == pytest.approx(2.0 * (top + lat) + bottom,
                                           rel=1e-14)


def test_sphere_area_low_dimensions():
    assert sphere_area(1) == 2.0
    assert sphere_area(2) == 2.0 * math.pi
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)


# ---------------------------------------------------------------------------
# Shared grid builders, pinned bit for bit against the inline
# expressions they replaced


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tangent_frame_matches_projected_axes(n):
    rng = np.random.default_rng(n)
    g = rng.standard_normal(n)
    for d in (np.eye(n)[0], -np.eye(n)[-1], g / np.linalg.norm(g)):
        expected = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            e = e - np.dot(e, d) * d
            if np.linalg.norm(e) > 1e-8:
                expected.append(e / np.linalg.norm(e))
        frame = tangent_frame(d)
        assert len(frame) == n - 1
        assert all(_same(v, w) for v, w in zip(frame, expected))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_sphere_rule_product_is_radius_major(n):
    # n = 1 has no sphere rule
    sr, rr = sphere_rule(n, 7), radial_rule(3, 4)
    nd = sr.nodes.shape[0]
    rho = np.repeat(rr.nodes, nd)
    dirs = np.tile(sr.nodes, (rr.nodes.size, 1))
    calls = []

    def f(X):
        calls.append(X)
        return X[:, 0] * np.exp(X[:, -1])

    vals = sr.values(f, rr.nodes)
    assert len(calls) == 1 and _same(calls[0], rho[:, None] * dirs)
    assert _same(vals, f(rho[:, None] * dirs).reshape(rr.nodes.size, nd))
    assert _same(sr.product_weights(rr).ravel(),
                 np.repeat(rr.weights * rr.nodes ** (n - 1), nd)
                 * np.tile(sr.weights, rr.nodes.size))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_halfspace_product_is_height_major(n):
    rule = halfspace_rule(n, R_xy=4.0, s_min=0.25, s_max=4.0, order=2,
                          lateral_refinement=1)
    mesh, w_lat = rule.lateral_mesh()
    m_lat, m_s = mesh.shape[0], rule.s_nodes.size
    Y = np.tile(mesh, (m_s, 1))
    s = np.repeat(rule.s_nodes, m_lat)
    got_Y, got_s = rule.points()
    assert _same(got_Y, Y) and _same(got_s, s)

    def g(Y, s):
        return Y[:, 0] * np.exp(-s)

    vals = g(Y, s).reshape(m_s, m_lat)
    assert _same(rule.values(g), vals)
    w = np.repeat(rule.s_weights, m_lat) * np.tile(w_lat, m_s)
    assert _same(rule.product_weights().ravel(), w)
    assert rule.integrate(g) == float(rule.s_weights @ (vals @ w_lat))


def test_product_values_name_the_non_finite_node():
    sr, r = sphere_rule(3, 3), np.array([0.25, 0.5])
    with pytest.raises(EvaluationError, match="node index 9"):
        sr.values(lambda X: np.where(np.arange(X.shape[0]) == 9, np.nan, 1.0),
                  r)
    rule = halfspace_rule(1, R_xy=4.0, s_min=0.25, s_max=4.0, order=2,
                          lateral_refinement=1)
    with pytest.raises(EvaluationError, match="node index 3"):
        rule.values(lambda Y, s: np.where(np.arange(s.size) == 3, np.inf, s))
    with pytest.raises(EvaluationError, match="shape"):
        rule.integrate(lambda Y, s: s[:-1])


def test_level_sums_match_running_sum():
    rr = radial_rule(3, 6)
    contrib = np.random.default_rng(0).random(rr.nodes.size)
    cs = np.cumsum(contrib)
    levels = np.arange(1, rr.boundary_refinement + 1)
    expected = np.array([cs[rr.truncation_index(1.0 - 2.0 ** -j) - 1]
                         for j in levels])
    assert _same(rr.level_sums(contrib, levels), expected)
    full = rr.level_sums(contrib, [math.inf])
    assert _same(full, cs[-1:])
    # the s2 engines pass only the nodes up to their last truncation
    keep = rr.truncation_index(1.0 - 2.0**-4)
    part = contrib[:keep]
    j = np.array([2, 3, 4])
    idx = np.minimum(rr.order * j, keep)
    assert _same(rr.level_sums(part, j), np.cumsum(part)[idx - 1])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lateral_grid_matches_meshgrid(n):
    y = np.linspace(-2.0, 2.0, 5)
    if n == 1:
        expected = y[:, None]
    else:
        expected = np.stack(np.meshgrid(*([y] * n), indexing="ij"),
                            axis=-1).reshape(-1, n)
    assert _same(lateral_grid(y, n), expected)
