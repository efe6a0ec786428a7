"""Kernel series and closed forms: spot values, oracles, backends."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

import bergman_lab
from bergman_lab.errors import DivergentSeriesError, DomainError
from bergman_lab.kernels import (
    K_CAP,
    _dispatch,
    ball_kernel,
    halfspace_kernel,
    q_beta_grid,
    qbeta_pick_k,
)
from bergman_lab.kernels.ball import (
    poisson_ball_rt,
    poisson_partial_sums,
    q_beta_bound_qt,
    q_beta_values,
)
from bergman_lab.kernels.halfspace import (
    poisson_constant,
    q_m_bound_values,
    q_m_values,
)


# ---------------------------------------------------------------------------
# Poisson kernel on the ball


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 0.9])
def test_poisson_ball_closed_form_aligned(n, r):
    # at t = 1 the kernel collapses to (1 + r) / (1 - r)^(n-1)
    got = poisson_ball_rt(np.array([r]), np.array([1.0]), n)[0]
    assert abs(got - (1.0 + r) / (1.0 - r) ** (n - 1)) < 1e-12


def test_poisson_ball_mean_value():
    # the spherical mean of the Poisson kernel is 1 (harmonicity)
    from bergman_lab.quadrature import zonal_rule

    zr = zonal_rule(3, order=12, refinement=24)
    vals = poisson_ball_rt(np.full(zr.u_nodes.size, 0.7), zr.u_nodes, 3)
    assert abs(zr.weights @ vals - 1.0) < 1e-11


def test_poisson_partial_sums_converge_geometrically():
    # n = 3, r = 1/2, t = 1: value 6, increments ~ (2k+1) r^k
    sums = poisson_partial_sums(0.5, 1.0, 3, 30)
    errs = np.abs(np.asarray(sums) - 6.0)
    ratios = errs[11:21] / errs[10:20]
    assert abs(sums[-1] - 6.0) < 1e-6
    assert np.all(np.abs(ratios - 0.5) < 0.05)


# ---------------------------------------------------------------------------
# Weighted kernel on the ball


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.5])
def test_q_beta_at_origin(n, beta):
    # Q_beta(0, y) keeps only the constant term of the expansion,
    # 2 Gamma(n/2 + beta + 1) / (Gamma(n/2) Gamma(beta + 1))
    spec = ball_kernel(n, beta)
    got = q_beta_values(spec, np.array([0.0]), np.array([0.4]))[0][0]
    exact = (2.0 * math.gamma(n / 2 + beta + 1)
             / (math.gamma(n / 2) * math.gamma(beta + 1)))
    assert abs(got - exact) < 1e-12 * exact


@pytest.mark.parametrize("n,beta", [(2, 1.0), (3, 2.0)])
def test_q_beta_sphere_mean_is_constant(n, beta):
    # integrating y' over the sphere kills every harmonic except k = 0,
    # so the zonal mean must equal Q_beta(0, .) at every radius
    from bergman_lab.quadrature import zonal_rule

    spec = ball_kernel(n, beta)
    zr = zonal_rule(n, order=12, refinement=24)
    c0 = q_beta_values(spec, np.array([0.0]), np.array([0.0]))[0][0]
    for q in (0.2, 0.7, 0.95):
        vals, _ = q_beta_values(spec, np.full(zr.u_nodes.size, q),
                                zr.u_nodes, tol=1e-13)
        assert abs(zr.weights @ vals - c0) < 1e-9 * c0


def test_q_beta_symmetry_in_q():
    # the kernel depends on x, y through q = |x||y| and t = cos angle
    spec = ball_kernel(3, 1.5)
    v1, _ = q_beta_values(spec, np.array([0.3 * 0.8]), np.array([0.25]))
    v2, _ = q_beta_values(spec, np.array([0.8 * 0.3]), np.array([0.25]))
    assert v1[0] == v2[0]


def test_q_beta_tail_bound_is_honest():
    spec = ball_kernel(3, 2.0)
    q = np.array([0.9, 0.97, 0.99])
    t = np.array([0.9, -0.5, 1.0])
    loose, tail_loose = q_beta_values(spec, q, t, tol=1e-6)
    tight, _ = q_beta_values(spec, q, t, tol=1e-13)
    assert np.all(np.abs(loose - tight) <= tail_loose + 1e-12)


def test_q_beta_bound_envelope_positive():
    q = np.linspace(0.0, 0.99, 40)
    t = np.linspace(-1.0, 1.0, 40)
    B = q_beta_bound_qt(q[:, None], t[None, :], 3, 2.0)
    assert np.all(B > 0.0)
    assert np.all(np.isfinite(B))


# ---------------------------------------------------------------------------
# Weighted kernel on radius x cosine products


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 3.0, 4.0])
def test_q_beta_grid_matches_series(n, beta):
    # near t = -1 the terms cancel, so both summations carry rounding
    # error of the row's size, the value at t = 1; compare to that scale
    spec = ball_kernel(n, beta)
    q = np.linspace(0.0, 0.99, 12)
    t = np.linspace(-1.0, 1.0, 17)
    got, _ = q_beta_grid(spec, q, t, tol=1e-12)
    want, _ = q_beta_values(spec, np.repeat(q, t.size), np.tile(t, q.size),
                            tol=1e-12)
    want = want.reshape(q.size, t.size)
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def _q_beta_mpmath(n, beta, q, t):
    """2 sum_k c_k q^k Z_k(t) at 50 digits, to a 1e-40 relative tail."""
    with mpmath.workdps(50):
        q, t, beta = mpmath.mpf(q), mpmath.mpf(t), mpmath.mpf(beta)
        half = mpmath.mpf(n) / 2
        lam = half - 1
        c = mpmath.gamma(beta + 1 + half) / (mpmath.gamma(beta + 1)
                                             * mpmath.gamma(half))
        g_prev, g_cur = mpmath.mpf(0), mpmath.mpf(1)
        total = mpmath.mpf(0)
        k = 0
        while True:
            if n == 2:
                z = g_cur if k == 0 else 2 * g_cur
            else:
                z = (2 * k + n - 2) / mpmath.mpf(n - 2) * g_cur
            total += 2 * c * q**k * z
            # |term| <= 2 c_k q^k Z_k(1) <= c_k q^k (k + 2)^(n + 1); at
            # q <= 0.95 the rest sums to under 1e-40 of the total
            if k > 20 and c * q**k * (k + 2) ** (n + 1) < 1e-45 * abs(total):
                return float(total)
            k += 1
            if n == 2:
                g_next = (t if k == 1 else 2 * t * g_cur) - (
                    0 if k == 1 else g_prev)
            else:
                g_next = (2 * (k + lam - 1) * t * g_cur
                          - (k + 2 * lam - 2) * g_prev) / k
            g_prev, g_cur = g_cur, g_next
            c = c * (beta + k + half) / (k - 1 + half)


@pytest.mark.parametrize("n,beta,q,t", [
    (2, 0.0, 0.5, 0.3),
    (2, 3.0, 0.9, -0.4),
    (3, 2.0, 0.9, -0.7),
    (3, 1.0, 0.95, 1.0),
    (5, 4.0, 0.8, 0.6),
    (5, 0.0, 0.7, -1.0),
])
def test_q_beta_grid_against_mpmath(n, beta, q, t):
    got, tails = q_beta_grid(ball_kernel(n, beta), np.array([q]),
                             np.array([t]), tol=1e-13)
    want = _q_beta_mpmath(n, beta, q, t)
    scale = _q_beta_mpmath(n, beta, q, 1.0)
    assert abs(got[0, 0] - want) <= 1e-12 * scale
    assert tails[0] <= 1e-13


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
def test_q_beta_grid_tails_below_tol(tol):
    spec = ball_kernel(3, 2.0)
    q = np.linspace(0.0, 0.995, 40)
    assert qbeta_pick_k(3, 2.0, q.max(), tol) < K_CAP
    _, tails = q_beta_grid(spec, q, np.linspace(-1.0, 1.0, 5), tol=tol)
    assert np.all(tails <= tol)


def test_q_beta_grid_tail_is_honest():
    spec = ball_kernel(3, 2.0)
    q = np.array([0.9, 0.97, 0.99])
    t = np.array([0.9, -0.5, 1.0])
    loose, tails = q_beta_grid(spec, q, t, tol=1e-6)
    tight, _ = q_beta_grid(spec, q, t, tol=1e-13)
    assert np.all(np.abs(loose - tight) <= tails[:, None] + 1e-12)


def test_q_beta_grid_rows_are_independent():
    rng = np.random.default_rng(5)
    spec = ball_kernel(3, 1.0)
    q = rng.uniform(0.0, 0.98, 9)
    for t in (rng.uniform(-1.0, 1.0, 37), np.array([0.25])):
        vals, tails = q_beta_grid(spec, q, t, tol=1e-12)
        for i in range(q.size):
            row, tail = q_beta_grid(spec, q[i:i + 1], t, tol=1e-12)
            assert np.array_equal(row[0], vals[i])
            assert tail[0] == tails[i]


def test_q_beta_grid_empty_and_refusals():
    spec = ball_kernel(3, 2.0)
    vals, tails = q_beta_grid(spec, np.array([]), np.linspace(-1, 1, 4))
    assert vals.shape == (0, 4) and tails.shape == (0,)
    vals, tails = q_beta_grid(spec, np.array([0.2, 0.5]), np.array([]))
    assert vals.shape == (2, 0) and np.all(tails <= 1e-12)
    with pytest.raises(DivergentSeriesError):
        q_beta_grid(spec, np.array([0.5, 1.0]), np.array([0.0]))
    with pytest.raises(DomainError, match="ball kernel"):
        q_beta_grid(halfspace_kernel(1, 0), np.array([0.5]), np.array([0.0]))
    with pytest.raises(DomainError, match="tol"):
        q_beta_grid(spec, np.array([0.5]), np.array([0.0]), tol=0.0)


def test_q_beta_grid_memory_is_bounded_at_k_cap():
    # the full K_CAP x len(t) table would take 52 MB
    spec = ball_kernel(3, 2.0)
    q = np.array([0.9995, 0.5])
    t = np.linspace(-1.0, 1.0, 400)
    assert qbeta_pick_k(3, 2.0, q[0], 1e-12) == K_CAP
    tracemalloc.start()
    try:
        vals, tails = q_beta_grid(spec, q, t, tol=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert tails[0] > 1e-12 and tails[1] <= 1e-12
    assert np.all(np.isfinite(vals))


_GRID_DIGEST = """
import hashlib, numpy as np
from bergman_lab.kernels import ball_kernel, q_beta_grid
rng = np.random.default_rng(3)
vals, tails = q_beta_grid(ball_kernel(3, 2.0), rng.uniform(0.0, 0.99, 300),
                          rng.uniform(-1.0, 1.0, 500))
print(hashlib.sha256(vals.tobytes() + tails.tobytes()).hexdigest())
"""


def test_q_beta_grid_bits_ignore_blas_threads():
    src = str(Path(bergman_lab.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + os.environ.get("PYTHONPATH", "").split(
                           os.pathsep)))
        res = subprocess.run([sys.executable, "-c", _GRID_DIGEST], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True)
        digests.append(res.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_ball_kernel_validation():
    with pytest.raises(DomainError):
        ball_kernel(1, 1.0)
    with pytest.raises(DomainError):
        ball_kernel(3, -1.5)


# ---------------------------------------------------------------------------
# Half-space kernels


def test_poisson_constant_n1():
    assert abs(poisson_constant(1) - 1.0 / math.pi) < 1e-15


def _poisson_half(y2, h, n):
    # c_n h / (|y|^2 + h^2)^((n+1)/2), written out independently
    c = math.gamma((n + 1) / 2) / math.pi ** ((n + 1) / 2)
    return c * h / (y2 + h * h) ** ((n + 1) / 2)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_q_m_matches_finite_differences(n, m):
    # Q_m is a normalized (m+1)-st t-derivative of the Poisson kernel;
    # a central finite-difference stencil of the closed form is the
    # independent oracle
    u = np.array([0.0, 0.5, 2.0])
    tau = np.array([1.0, 1.7, 2.3])
    got = q_m_values(u, tau, n, m)

    h = 1e-2
    order = m + 1
    # two extra points per side buy superconvergent difference weights
    stencil = np.arange(-(order + 2), order + 3)
    A = np.vander(stencil * 1.0, increasing=True).T
    b = np.zeros(stencil.size)
    b[order] = math.factorial(order)
    coef = np.linalg.solve(A, b)
    fd = np.zeros_like(got)
    for c, k in zip(coef, stencil):
        fd += c * _poisson_half(u, tau + k * h, n)
    fd /= h**order
    fd *= (-2.0) ** (m + 1) / math.factorial(m)
    assert np.all(np.abs(got - fd) <= 1e-5 * np.abs(got) + 1e-8)


def test_q_0_aligned_spot_value():
    # n = 1, coincident lateral points: Q_0 (s+t)^2 = 2/pi exactly
    val = q_m_values(np.array([0.0]), np.array([1.3]), 1, 0)[0]
    assert abs(val * 1.3**2 - 2.0 / math.pi) < 1e-14


def test_q_m_bound_envelope_scaling():
    # the envelope is homogeneous of degree -(n + m + 1)
    n, m = 2, 1
    b1 = q_m_bound_values(np.array([1.0]), np.array([1.0]), n, m)[0]
    b2 = q_m_bound_values(np.array([4.0]), np.array([2.0]), n, m)[0]
    assert abs(b2 / b1 - 2.0 ** -(n + m + 1)) < 1e-14


def test_halfspace_kernel_validation():
    with pytest.raises(DomainError):
        halfspace_kernel(0, 1)
    with pytest.raises(DomainError):
        halfspace_kernel(1, -1)


# ---------------------------------------------------------------------------
# Backends


@pytest.mark.skipif(not _dispatch.HAVE_COMPILED,
                    reason="compiled backend not built")
def test_backends_bit_identical():
    spec = ball_kernel(3, 2.0)
    rng = np.random.default_rng(11)
    q = rng.uniform(0.0, 0.999, 2000)
    t = rng.uniform(-1.0, 1.0, 2000)
    previous = _dispatch.backend_name()
    try:
        _dispatch.set_backend("compiled")
        vc, tc = q_beta_values(spec, q, t, tol=1e-13)
        _dispatch.set_backend("python")
        vp, tp = q_beta_values(spec, q, t, tol=1e-13)
    finally:
        _dispatch.set_backend(previous)
    assert np.array_equal(vc, vp)
    assert tc == tp


def test_backend_name_is_known():
    assert _dispatch.backend_name() in ("python", "compiled")
