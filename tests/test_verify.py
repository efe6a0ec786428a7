"""Verification suites: analytic identities, refusals, and reports.

Each suite is checked at one analytic anchor (exact ratio, exact
dyadic scaling, exact spot value) and at its hypothesis boundary,
where it must refuse with the violated hypothesis named.
"""

import math

import numpy as np
import pytest

from bergman_lab.errors import DomainError
from bergman_lab.kernels import ball_kernel, halfspace_kernel
from bergman_lab.spaces import HarmonicFn, gallery_fn, s_weight
from bergman_lab.verify import (DRIFT_THRESHOLD, default_suite, run_suite,
                                verify_kernel_bounds, verify_qbeta,
                                verify_qm, verify_representation,
                                verify_rro)


# ---------------------------------------------------------------------------
# Radial comparison integral


def test_rro_analytic_identity():
    # at (alpha, lam) = (0, 2) the antiderivative is elementary and the
    # ratio is exactly 1 for every rho
    report = verify_rro(0.0, 2.0)
    assert report.passed
    assert report.max_ratio == pytest.approx(1.0, abs=1e-9)
    assert any("analytic case" in note for note in report.notes)


def test_rro_custom_grid_stays_at_one():
    grid = np.array([0.0, 0.25, 0.5, 0.9, 0.99])
    report = verify_rro(0.0, 2.0, rho_grid=grid)
    assert report.passed
    assert abs(report.max_ratio - 1.0) <= 1e-9


def test_rro_nontrivial_parameter_point():
    report = verify_rro(1.0, 3.0)
    assert report.passed
    assert math.isfinite(report.max_ratio) and report.max_ratio > 0
    assert report.grid_refinement_drift <= DRIFT_THRESHOLD
    assert report.parameter_point == {"alpha": 1.0, "lam": 3.0}


def test_rro_refusals():
    with pytest.raises(DomainError, match="alpha > -1"):
        verify_rro(-1.0, 2.0)
    with pytest.raises(DomainError, match="lam > alpha"):
        verify_rro(0.0, 0.5)
    with pytest.raises(DomainError, match="rho_grid"):
        verify_rro(0.0, 2.0, rho_grid=np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# Ball kernel moment bound


def test_qbeta_moment_stable():
    report = verify_qbeta(3, 0.0, 4.0, 2.0)
    assert report.passed
    assert math.isfinite(report.max_ratio)
    assert report.grid_refinement_drift <= DRIFT_THRESHOLD
    assert report.lemma_id == "qbeta_moment"


def test_qbeta_refusals():
    with pytest.raises(DomainError, match="delta > -1"):
        verify_qbeta(3, -1.0, 4.0, 2.0)
    with pytest.raises(DomainError, match="gamma > n"):
        verify_qbeta(3, 0.0, 3.0, 2.0)
    with pytest.raises(DomainError, match="beta > 0"):
        verify_qbeta(3, 0.0, 4.0, 0.0)
    with pytest.raises(DomainError, match="0.99"):
        verify_qbeta(3, 0.0, 4.0, 2.0, r_grid=np.array([0.999]))


# ---------------------------------------------------------------------------
# Half-space kernel moment bound


def test_qm_exact_dyadic_scaling():
    # homogeneity of degree -(n+m+1) forces I(2t)/I(t) = 2^(d-g+n+1)
    report = verify_qm(1, 0.0, 3.0, 0)
    assert report.passed
    assert any("dyadic scaling" in note for note in report.notes)
    assert report.parameter_point["m"] == 0


def test_qm_refusals():
    with pytest.raises(DomainError, match="delta > -1"):
        verify_qm(1, -1.5, 3.0, 0)
    with pytest.raises(DomainError, match="gamma > n"):
        verify_qm(1, 0.0, 2.0, 0)
    with pytest.raises(DomainError, match="nonnegative integer"):
        verify_qm(1, 0.0, 3.0, -1)
    with pytest.raises(DomainError, match="nonnegative integer"):
        verify_qm(1, 0.0, 3.0, 0.5)
    with pytest.raises(DomainError, match="positive"):
        verify_qm(1, 0.0, 3.0, 0, t_grid=np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# Kernel envelopes


def test_kernel_bounds_ball_all_parts():
    # beta = 2.5 > n - 1 activates the surface-integral part
    report = verify_kernel_bounds(ball_kernel(2, 2.5), sample_count=1024)
    assert report.passed
    labels = " ".join(report.notes)
    assert "part1" in labels and "part2" in labels and "part3" in labels


def test_kernel_bounds_ball_part3_skip():
    # beta = 1 <= n - 1 = 2: the surface integral is bounded, skipped
    report = verify_kernel_bounds(ball_kernel(3, 1.0), sample_count=1024)
    assert report.passed
    assert any("part3 skipped" in note for note in report.notes)


def test_kernel_bounds_half_spot_value():
    report = verify_kernel_bounds(halfspace_kernel(1, 0), sample_count=1024)
    assert report.passed
    spot = [n for n in report.notes if "2/pi" in n]
    assert spot, report.notes


def test_kernel_bounds_refusals():
    with pytest.raises(DomainError, match="beta > 0"):
        verify_kernel_bounds(ball_kernel(2, 0.0))
    with pytest.raises(DomainError, match="at least 64"):
        verify_kernel_bounds(ball_kernel(2, 1.0), sample_count=32)


# ---------------------------------------------------------------------------
# Integral representations


def test_representation_ball_polynomial():
    report = verify_representation(gallery_fn("solid_k2", "ball", 3),
                                   ball_kernel(3, 1.0))
    assert report.passed
    assert report.max_ratio <= 1e-4
    assert any("membership norm" in note for note in report.notes)


def test_representation_halfspace():
    report = verify_representation(gallery_fn("qm_w0", "halfspace", 1),
                                   halfspace_kernel(1, 1), p=2.0, alpha=1.0)
    assert report.passed
    assert report.max_ratio <= 1e-3


_HALF_REPRO_BITS = """
from bergman_lab.kernels import halfspace_kernel
from bergman_lab.spaces import gallery_fn
from bergman_lab.verify import verify_representation
report = verify_representation(gallery_fn("qm_w0", "halfspace", 1),
                               halfspace_kernel(1, 1), p=2.0, alpha=1.0)
print(report.max_ratio.hex(), report.grid_refinement_drift.hex())
"""


def test_representation_halfspace_bits_ignore_blas_threads(outputs_under_blas_threads):
    # the reproduction sums are long dot products; a BLAS dot splits them
    # across threads and changes their last bits with the thread count
    outputs = outputs_under_blas_threads(_HALF_REPRO_BITS)
    assert outputs[0].count(" ") == 1
    assert outputs[0] == outputs[1]


def test_representation_nonmember_refused():
    def spike(X):
        r = np.linalg.norm(X, axis=1)
        return (1.0 - r * r) ** -1.0

    f = HarmonicFn("radial_spike", "ball", 3, spike, growth_exponent=2.0)
    with pytest.raises(DomainError, match="not in the Bergman space"):
        verify_representation(f, ball_kernel(3, 1.0), p=4.0)


def test_representation_hypothesis_refusals():
    f = gallery_fn("solid_k2", "ball", 3)
    with pytest.raises(DomainError, match="p >= 1"):
        verify_representation(f, ball_kernel(3, 1.0), p=0.5)
    with pytest.raises(DomainError, match=r"capped at \|x\| = 0.75"):
        verify_representation(f, ball_kernel(3, 1.0),
                              x_grid=np.array([[0.8, 0.0, 0.0]]))
    g = gallery_fn("qm_w0", "halfspace", 1)
    with pytest.raises(DomainError, match=r"m > \(alpha \+ 1\)/p - 1"):
        verify_representation(g, halfspace_kernel(1, 0), p=2.0, alpha=3.0)
    with pytest.raises(DomainError, match=r"m >= \(alpha \+ n \+ 1\)/p"):
        verify_representation(g, halfspace_kernel(1, 0), p=0.5, alpha=0.0)


def test_representation_weighted_admissible():
    w = s_weight(np.sqrt, 0.5, label="u^1/2")
    report = verify_representation(gallery_fn("solid_k2", "ball", 3),
                                   ball_kernel(3, 2.0), p=2.0, weight=w)
    assert report.passed
    assert report.max_ratio <= 1e-3
    assert any("s(v, p)" in note for note in report.notes)


def test_representation_weighted_inadmissible_refused():
    # s(v, 2) = (alpha_v + 1)/2 is about 0.73 for v = u^(1/2): a kernel
    # exponent of 0.5 sits below the admissibility threshold
    w = s_weight(np.sqrt, 0.5, label="u^1/2")
    with pytest.raises(DomainError, match=r"s\(v, p\)"):
        verify_representation(gallery_fn("solid_k2", "ball", 3),
                              ball_kernel(3, 0.5), p=2.0, weight=w)


# ---------------------------------------------------------------------------
# Suite runner


def test_default_suite_shape():
    jobs = default_suite()
    ids = [job_id for job_id, _ in jobs]
    assert len(ids) == len(set(ids))
    assert any(job_id.startswith("rro") for job_id in ids)
    assert any(job_id.startswith("rep[half") for job_id in ids)


def test_run_suite_subset():
    jobs = [j for j in default_suite()
            if j[0] in ("rro[0,2]", "qm[d0,g4]", "bounds[half]")]
    reports, all_passed = run_suite(jobs=jobs, max_workers=2)
    assert all_passed
    # merged deterministically by job id: bounds < qm < rro
    assert [r.lemma_id for r in reports] == ["kernel_bounds", "qm_moment",
                                             "rro"]
    d = reports[-1].to_dict()
    assert d["pass"] is True and d["lemma_id"] == "rro"
