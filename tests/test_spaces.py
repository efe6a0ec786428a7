"""Norms, radial weights, and the function gallery.

The polynomial gallery members have exact beta-function norms: the
sphere rule integrates their shell means exactly, so every weighted
norm reduces to ``(n/2) B(n/2 + k, alpha + 1)`` up to the zonal
normalization.  Those closed forms are frozen here as oracles, along
with a half-space Poisson norm computed by hand from the residue
formula for ``int dy / (y^2 + h^2)^4``.
"""

import math

import numpy as np
import pytest

from bergman_lab.errors import (DivergenceDetected, DomainError,
                                EvaluationError, UnboundedNormError)
from bergman_lab.quadrature import halfspace_rule
from bergman_lab.spaces import (HarmonicFn, ainf_norm, ball_norm_profile,
                                bergman_norm, embedding_check, gallery,
                                gallery_fn, halfspace_norm_profile,
                                harmonicity_defect, mixed_norm, s_threshold,
                                s_weight, weighted_norm)


def beta_fn(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def harmonic_dim(n, k):
    """Dimension of the degree-k spherical harmonics, n = 2 or 3."""
    if k == 0:
        return 1.0
    return 2.0 if n == 2 else 2.0 * k + 1.0


# ---------------------------------------------------------------------------
# Closed-form ball norms


@pytest.mark.parametrize("n,alpha,p", [
    (2, 0.0, 2.0),
    (3, 0.0, 2.0),
    (3, 1.0, 2.0),
    (3, 1.0, 4.0),
    (2, 2.0, 2.0),
])
def test_const_norm_closed_form(n, alpha, p):
    f = gallery_fn("const_one", "ball", n)
    want = ((n / 2.0) * beta_fn(n / 2.0, alpha + 1.0)) ** (1.0 / p)
    assert bergman_norm(f, p, alpha) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n,alpha", [(2, 0.0), (3, 0.0), (3, 1.0)])
def test_coordinate_norm_closed_form(n, alpha):
    # mean of x_1^2 over the sphere is 1/n, so the n cancels:
    # ||x_1||_2^2 = (1/2) B(n/2 + 1, alpha + 1).
    f = gallery_fn("coord_x1", "ball", n)
    want = math.sqrt(0.5 * beta_fn(n / 2.0 + 1.0, alpha + 1.0))
    assert bergman_norm(f, 2.0, alpha) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n,k,alpha", [
    (3, 1, 0.0),
    (3, 2, 0.0),
    (3, 2, 1.0),
    (2, 3, 0.0),
    (3, 4, 2.0),
])
def test_solid_harmonic_norm_closed_form(n, k, alpha):
    # The zonal factor is normalized to d_k at the pole, and its squared
    # sphere mean is again d_k, so
    # ||solid_k||_2^2 = d_k (n/2) B(n/2 + k, alpha + 1).
    f = gallery_fn(f"solid_k{k}", "ball", n)
    want = math.sqrt(harmonic_dim(n, k) * (n / 2.0)
                     * beta_fn(n / 2.0 + k, alpha + 1.0))
    assert bergman_norm(f, 2.0, alpha) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Divergence detection on the ball


def radial_spike_fn():
    def spike(X):
        r = np.linalg.norm(X, axis=1)
        return (1.0 - r * r) ** -1.0

    return HarmonicFn("radial_spike", "ball", 3, spike, growth_exponent=2.0)


def test_radial_divergence_detected():
    # |f|^2 (1 - r^2)^0 grows like (1 - r)^(-2): not integrable.
    f = radial_spike_fn()
    prof = ball_norm_profile(f, 2.0, 0.0)
    assert prof.classification == "DIVERGENT"
    with pytest.raises(DivergenceDetected):
        bergman_norm(f, 2.0, 0.0)


def test_radial_spike_reweighted_is_finite():
    # alpha = 4 turns the integrand into the polynomial 3 r^2 (1-r^2)^2.
    f = radial_spike_fn()
    assert ball_norm_profile(f, 2.0, 4.0).classification == "FINITE"
    want = math.sqrt(1.0 - 6.0 / 5.0 + 3.0 / 7.0)
    assert bergman_norm(f, 2.0, 4.0) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Half-space norms


def test_halfspace_poisson_quartic_norm():
    # P(y, s+1) = (1/pi) h / (y^2 + h^2) with h = 1 + s, and
    # int dy / (y^2 + h^2)^4 = (5 pi / 16) h^(-7), so
    # ||P||_4^4 = (5 / (16 pi^3)) B(3/2, 3/2) = 5 / (128 pi^2).
    f = gallery_fn("hs_poisson", "halfspace", 1)
    res = bergman_norm(f, 4.0, 0.5)
    want = (5.0 / (128.0 * math.pi**2)) ** 0.25
    assert abs(res.value - want) < 1e-3
    assert abs(res.value - want) <= res.tail_bound + 1e-12


@pytest.mark.parametrize("name,p,alpha,expected", [
    ("hs_poisson", 4.0, 0.5, "FINITE"),
    ("hs_poisson", 2.0, 1.0, "DIVERGENT"),
    ("qm_w0", 2.0, 1.0, "FINITE"),
])
def test_halfspace_profile_classification(name, p, alpha, expected):
    # Lateral decay of |P|^p is (1+s)^(1-p): the s-integral against
    # s^alpha needs p > alpha + 2, so p = 2, alpha = 1 diverges.
    f = gallery_fn(name, "halfspace", 1)
    assert halfspace_norm_profile(f, p, alpha).classification == expected


def test_halfspace_profile_refuses_a_non_finite_node():
    # nan at one node of the first window (j = 2: |y| <= 4,
    # 1/4 <= s <= 4, order 8, lateral refinement 4) and nowhere else
    y0 = halfspace_rule(1, R_xy=4.0, s_min=0.25, s_max=4.0, order=8,
                        lateral_refinement=4).y_nodes[5]
    qm = gallery_fn("qm_w0", "halfspace", 1)

    def fn(Y, s):
        return np.where(Y[:, 0] == y0, np.nan, qm(Y, s))

    f = HarmonicFn("qm_nan", "halfspace", 1, fn, decay_power=3.0)
    with pytest.raises(EvaluationError, match="non-finite"):
        halfspace_norm_profile(f, 2.0, 1.0)


def test_halfspace_divergence_raises():
    f = gallery_fn("hs_poisson", "halfspace", 1)
    with pytest.raises(DivergenceDetected):
        bergman_norm(f, 2.0, 1.0)


def test_halfspace_qm_norm_has_small_tail():
    f = gallery_fn("qm_w0", "halfspace", 1)
    res = bergman_norm(f, 2.0, 1.0)
    assert res.value > 0.0
    assert res.tail_bound < 0.05 * res.value


# ---------------------------------------------------------------------------
# Mixed norms


@pytest.mark.parametrize("name", ["coord_x1", "solid_k2"])
@pytest.mark.parametrize("kind", ["B", "F"])
def test_mixed_norm_collapses_at_equal_exponents(name, kind):
    f = gallery_fn(name, "ball", 3)
    plain = bergman_norm(f, 2.0, 1.0)
    mixed = mixed_norm(f, 2.0, 2.0, 1.0, kind)
    assert mixed == pytest.approx(plain, rel=1e-14)


def test_mixed_norm_rejects_unknown_kind():
    f = gallery_fn("const_one", "ball", 2)
    with pytest.raises(DomainError, match="kind"):
        mixed_norm(f, 2.0, 2.0, 0.0, "X")


# ---------------------------------------------------------------------------
# General radial weights


def test_weighted_norm_plain_u_closed_form():
    # ||x_1||^2 with weight v(u) = u is int_0^1 r^4 (1 - r) dr = 1/30.
    f = gallery_fn("coord_x1", "ball", 3)
    got = weighted_norm(f, 2.0, lambda u: u)
    assert got == pytest.approx(math.sqrt(1.0 / 30.0), rel=1e-12)


def test_weighted_norm_brackets_power_weight():
    # 1 - r <= 1 - r^2 <= 2 (1 - r) on [0, 1], so the v(u) = u norm is
    # within a factor 2^(1/p) of the alpha = 1 norm, below it.
    f = gallery_fn("coord_x1", "ball", 3)
    w = weighted_norm(f, 2.0, lambda u: u)
    a = bergman_norm(f, 2.0, 1.0)
    assert 0.5 <= (w / a) ** 2 <= 1.0


def test_weighted_norm_rejects_bad_weight():
    f = gallery_fn("const_one", "ball", 2)
    with pytest.raises(DomainError, match="nonnegative"):
        weighted_norm(f, 2.0, lambda u: u - 0.5)


def test_weighted_norm_is_a_ball_operation():
    f = gallery_fn("hs_poisson", "halfspace", 1)
    with pytest.raises(DomainError, match="ball"):
        weighted_norm(f, 2.0, lambda u: u)


# ---------------------------------------------------------------------------
# S-class weights and admissibility thresholds


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_s_weight_power_law_index(t):
    # For v(u) = u^t the dilation ratio v(lam u)/v(u) = lam^t does not
    # depend on u, so the measured bounds sit at the first and last
    # interior nodes of the default dilation grid linspace(q_v, 1, 19).
    w = s_weight(lambda u: u**t, 0.5, label=f"u^{t}")
    lam = np.linspace(0.5, 1.0, 19)
    assert w.m_v == pytest.approx(lam[1] ** t, rel=1e-12)
    assert w.M_v == pytest.approx(lam[-2] ** t, rel=1e-12)
    assert w.alpha_v == pytest.approx(math.log(w.m_v) / math.log(0.5),
                                      rel=1e-12)
    # the grid never reaches q_v itself, so the index undershoots t
    assert 0.0 < w.alpha_v <= t + 1e-12
    assert s_threshold(w, 2.0) == pytest.approx((w.alpha_v + 1.0) / 2.0,
                                                rel=1e-15)


def test_s_weight_rejects_bad_inputs():
    with pytest.raises(DomainError, match="q_v"):
        s_weight(lambda u: u, 1.5)
    with pytest.raises(DomainError, match="positive"):
        s_weight(lambda u: 0.0 * u, 0.5)
    with pytest.raises(DomainError, match="p must be positive"):
        s_threshold(s_weight(lambda u: u, 0.5), 0.0)


# ---------------------------------------------------------------------------
# Weighted sup norms and the pointwise embedding


def test_ainf_poisson_axis_sup():
    # P(r e_1, e_1) (1 - r)^2 = (1 + r) / (1 + r + r^2 + ...) -> for
    # n = 3 the aligned value is (1 + r)/(1 - r)^2, so the weighted sup
    # is 2, attained in the limit r -> 1 along the kernel axis.
    f = gallery_fn("poisson_e1", "ball", 3)
    value, witness = ainf_norm(f, 2.0)
    assert 1.999 <= value <= 2.0 + 1e-9
    assert witness.r > 0.99
    assert witness.direction[0] == pytest.approx(1.0, abs=1e-9)


def test_ainf_detects_unbounded_weighting():
    # (1 - r)^(1/2) is too weak to tame a pole of order n - 1 = 2.
    f = gallery_fn("poisson_e1", "ball", 3)
    with pytest.raises(UnboundedNormError):
        ainf_norm(f, 0.5)


def test_embedding_check_constant():
    # |1| (1 - r)^(n/p) / ||1|| peaks at the center with value 1.
    f = gallery_fn("const_one", "ball", 3)
    value, witness = embedding_check(f, 2.0, 0.0)
    assert value == pytest.approx(1.0, rel=1e-9)
    assert witness.r == 0.0


# ---------------------------------------------------------------------------
# Gallery integrity


@pytest.mark.parametrize("n", [2, 3])
def test_ball_gallery_is_harmonic(n):
    pts = [np.zeros(n),
           0.3 * np.ones(n) / math.sqrt(n),
           np.array([0.5] + [0.2] * (n - 1)),
           np.array([-0.4] + [0.3] * (n - 1))]
    for f in gallery("ball", n):
        # h = 2.5e-4 keeps the O(h^2) stencil truncation below the
        # tolerance even for the kernel entries with large derivatives
        assert harmonicity_defect(f, pts, h=2.5e-4) < 5e-4, f.label


@pytest.mark.parametrize("n", [1, 2])
def test_halfspace_gallery_is_harmonic(n):
    pts = [(np.zeros(n), 0.5),
           (0.3 * np.ones(n), 0.7),
           (-1.2 * np.ones(n), 1.5)]
    for f in gallery("halfspace", n):
        assert harmonicity_defect(f, pts) < 5e-4, f.label


def test_gallery_refusals():
    with pytest.raises(DomainError, match="no gallery function"):
        gallery_fn("nope", "ball", 2)
    with pytest.raises(DomainError, match="n >= 2"):
        gallery("ball", 1)
    with pytest.raises(DomainError, match="domain"):
        gallery("annulus", 2)


def test_norm_guards():
    f = gallery_fn("const_one", "ball", 2)
    with pytest.raises(DomainError, match="p must be positive"):
        bergman_norm(f, 0.0, 0.0)
    with pytest.raises(DomainError, match="alpha"):
        bergman_norm(f, 2.0, -1.0)
