"""Poisson and weighted Bergman kernels of the unit ball.

Normalizations follow the normalized surface and volume measures of
:mod:`bergman_lab.quadrature`:

* the Poisson kernel ``P(x, y') = (1 - |x|^2) / |x - y'|^n`` reproduces
  bounded harmonic functions against the normalized surface measure and
  expands as ``sum_k r^k Z_k(<x', y'>)``.

* the weight-``beta`` Bergman kernel

      Q_beta(x, y) = 2 sum_k c_k (r rho)^k Z_k(<x', y'>),
      c_k = Gamma(beta + 1 + k + n/2) / (Gamma(beta + 1) Gamma(k + n/2)),

  reproduces via ``f(x) = int_0^1 int_S Q_beta(x, rho y') f(rho y')
  (1 - rho^2)^beta rho^{n-1} drho dsigma'``.

Series are summed with a certified geometric tail bound: coefficient
majorants ``2 c_k d_k`` have eventually decreasing consecutive ratios,
so the remainder after ``k`` terms is dominated by a geometric series
started at the next term.  The two summations, node by node
(:func:`q_beta_values`, one NumPy loop) and on radius x cosine products
(:func:`q_beta_grid`), stop on that one bound, :func:`_tail`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import DivergentSeriesError, DomainError
from .zonal import zonal_table

__all__ = [
    "KernelSpec",
    "ball_kernel",
    "halfspace_kernel",
    "poisson_ball_rt",
    "poisson_partial_sums",
    "q_beta_values",
    "q_beta_grid",
    "q_beta_bound_qt",
    "qbeta_pick_k",
]

#: series degrees are capped here even for near-boundary evaluations
K_CAP = 16384

#: element budget of each temporary in one block of ``q_beta_grid``
_GRID_BUDGET = 1 << 15

#: most degrees in one block of ``q_beta_grid``, and the degree stride at
#: which ``q_beta_values`` tests its nodes; a row that stops inside a
#: block still pays for the rest of it
_GRID_BLOCK = 64


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel family: ``('ball', n, beta)`` or ``('halfspace', n, m)``."""

    domain: str
    n: int
    beta: float | None = None
    m: int | None = None

    def __post_init__(self):
        if self.domain not in ("ball", "halfspace"):
            raise DomainError("domain must be 'ball' or 'halfspace'")
        if self.domain == "ball":
            if self.n < 2:
                raise DomainError("ball kernels need n >= 2")
            if self.beta is None or self.beta < 0:
                raise DomainError("ball kernel needs beta >= 0")
            if self.m is not None:
                raise DomainError("ball kernel takes no derivative order m")
        else:
            if self.n < 1:
                raise DomainError("half-space kernels need n >= 1")
            if self.m is None or int(self.m) != self.m or self.m < 0:
                raise DomainError("half-space kernel needs integer m >= 0")
            if self.beta is not None:
                raise DomainError("half-space kernel takes no weight beta")


def ball_kernel(n, beta):
    return KernelSpec("ball", int(n), float(beta), None)


def halfspace_kernel(n, m):
    return KernelSpec("halfspace", int(n), None, int(m))


# ---------------------------------------------------------------------------
# Poisson kernel


def poisson_ball_rt(r, t, n):
    """``(1 - r^2) / (1 - 2 r t + r^2)^{n/2}`` for arrays ``r``, ``t``."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(r < 0) or np.any(r >= 1):
        raise DomainError("poisson_ball_rt needs 0 <= r < 1")
    dist2 = 1.0 - 2.0 * r * t + r * r
    return (1.0 - r * r) / dist2 ** (0.5 * n)


def poisson_partial_sums(r, t, n, k_max):
    """Partial sums ``S_K = sum_{k<=K} r^k Z_k(t)`` for ``K = 0..k_max``.

    Scalar ``r, t``; used to examine the geometric convergence of the
    zonal expansion against the closed form.
    """
    table = zonal_table(n, k_max)
    from .zonal import zonal_sequence

    z = zonal_sequence(t, table, k_max)
    terms = z * (float(r) ** np.arange(k_max + 1))
    return np.cumsum(terms)


# ---------------------------------------------------------------------------
# Weighted Bergman kernel


@dataclass(frozen=True)
class _SeriesTables:
    a: np.ndarray      # term coefficients, Z-factor folded in
    bound: np.ndarray  # |a[k]| * G_k(1): majorant coefficients
    rs: np.ndarray     # suffix max of bound[k+1]/bound[k]
    brs: np.ndarray    # bound * rs
    g1_coef: float
    c1: np.ndarray
    c2: np.ndarray


@lru_cache(maxsize=64)
def _qbeta_tables(n, beta, k_max):
    table = zonal_table(n, k_max)
    c = np.empty(k_max + 1)
    c[0] = math.exp(
        math.lgamma(beta + 1.0 + 0.5 * n)
        - math.lgamma(beta + 1.0)
        - math.lgamma(0.5 * n)
    )
    half_n = 0.5 * n
    for k in range(k_max):
        c[k + 1] = c[k] * (beta + 1.0 + k + half_n) / (k + half_n)
    a = 2.0 * c * table.zfac
    bound = 2.0 * c * table.d
    ratio = bound[1:] / bound[:-1]
    rs = np.empty_like(bound)
    rs[:-1] = np.maximum.accumulate(ratio[::-1])[::-1]
    # beyond the table the ratios keep decreasing toward 1; the max of
    # the last computed decade is a valid cap (asserted in tests)
    rs[-1] = ratio[-min(10, ratio.size):].max()
    return _SeriesTables(a, bound, rs, bound * rs, table.g1_coef,
                         table.c1, table.c2)


def _tail(tabs, q, qk, k):
    """Certified bound on the remainder after degree ``k`` at ``q``.

    ``qk`` is ``q^k``; ``k`` indexes the tables (an int or a slice).
    The remainder is dominated by ``brs[k] q^(k+1) / (1 - q rs[k])``,
    infinite when ``q rs[k] >= 1``.
    """
    rho = q * tabs.rs[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rho < 1.0, (tabs.brs[k] * qk) * q / (1.0 - rho),
                        np.inf)


def qbeta_pick_k(n, beta, q_max, tol):
    """Smallest degree whose certified tail is below ``tol`` (capped)."""
    if tol <= 0.0:
        raise DomainError("qbeta_pick_k needs tol > 0")
    tabs = _qbeta_tables(n, float(beta), K_CAP)
    if q_max <= 0.0:
        return 1
    k = np.arange(tabs.bound.size)
    with np.errstate(divide="ignore"):
        logterm = np.log(tabs.bound) + k * math.log(q_max)
    rho = q_max * tabs.rs
    ok = (rho < 1.0) & (logterm + np.log(rho / np.maximum(1.0 - rho, 1e-300))
                        <= math.log(tol))
    hits = np.flatnonzero(ok)
    return int(hits[0]) if hits.size else K_CAP


def _series_values(tabs, q, t, tol):
    """The loop behind :func:`q_beta_values`, on validated arrays."""
    out = np.empty(q.size)
    idx = np.arange(q.size)
    qk, g_prev, g_cur = np.ones(q.size), np.zeros(q.size), np.ones(q.size)
    acc, tmp = np.full(q.size, tabs.a[0]), np.empty(q.size)
    max_tail = 0.0
    for k in range(K_CAP + 1):
        if k:
            # in place, G_k = (c1[k] t) G_{k-1} - c2[k] G_{k-2}, where
            # G_1 = g1_coef t is the recurrence with c2[1] = 0
            np.multiply(t, tabs.g1_coef if k == 1 else tabs.c1[k], out=tmp)
            tmp *= g_cur
            g_prev *= tabs.c2[k]
            np.subtract(tmp, g_prev, out=g_prev)
            g_prev, g_cur = g_cur, g_prev
            qk *= q
            np.multiply(qk, tabs.a[k], out=tmp)
            tmp *= g_cur
            acc += tmp
        if k % _GRID_BLOCK:
            continue
        tail = _tail(tabs, q, qk, k)
        done = (tail <= tol) | (k == K_CAP)
        if done.any():
            out[idx[done]] = acc[done]
            max_tail = max(max_tail, float(tail[done].max()))
            keep = ~done
            idx, q, t, qk, acc, tmp, g_prev, g_cur = (
                v[keep] for v in (idx, q, t, qk, acc, tmp, g_prev, g_cur))
        if not idx.size:
            break
    return out, max_tail


def q_beta_values(spec, q, t, tol=1e-12):
    """Batched ``Q_beta`` on arrays ``q = r * rho``, ``t = <x', y'>``.

    Returns ``(values, max_tail)``.  Every node is tested at degree 0
    and then every ``_GRID_BLOCK`` degrees with the tail bound of
    :func:`q_beta_grid` (:func:`_tail`): a node whose tail is at most
    ``tol`` is written out and dropped, the rest stop at ``K_CAP``.  The
    bound does not grow with the degree, so a node summed past its first
    passing degree stays certified, and its bits depend on no other
    node.  ``max_tail`` is the largest tail of the nodes where they
    stopped.  Nodes that form a radius x cosine product are cheaper
    through :func:`q_beta_grid`.
    """
    if spec.domain != "ball":
        raise DomainError("q_beta_values needs a ball kernel spec")
    if tol <= 0.0:
        raise DomainError("q_beta_values needs tol > 0")
    q = np.ascontiguousarray(q, dtype=float)
    t = np.clip(np.ascontiguousarray(t, dtype=float), -1.0, 1.0)
    if np.any(q < 0.0) or np.any(q >= 1.0):
        raise DivergentSeriesError("series needs 0 <= r * rho < 1")
    return _series_values(_qbeta_tables(spec.n, spec.beta, K_CAP), q, t, tol)


def q_beta_grid(spec, q, t, tol=1e-12):
    """``Q_beta`` on the product of radii ``q = r * rho`` and cosines ``t``.

    Returns ``(values, tails)`` with ``values[i, j] = Q_beta(q[i], t[j])``
    and ``tails[i]`` the certified tail bound of row ``i``.  Row ``i``
    stops at the first degree whose geometric tail bound (:func:`_tail`,
    as in :func:`q_beta_values`) is at most ``tol``, or at ``K_CAP``,
    where its tail may exceed ``tol``.

    The zonal recurrence runs once over ``t``.  Degrees are walked in
    blocks that carry the recurrence's last two rows, and each block of
    ``G_k(t)`` is contracted with the row coefficients ``a_k q_i^k``, so
    no temporary exceeds a fixed element budget (or one row of ``t``).
    The contraction is ``np.einsum`` rather than BLAS: a row's bits then
    depend neither on the other rows nor on the BLAS thread count.
    """
    if spec.domain != "ball":
        raise DomainError("q_beta_grid needs a ball kernel spec")
    if tol <= 0.0:
        raise DomainError("q_beta_grid needs tol > 0")
    q = np.asarray(q, dtype=float)
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    if q.ndim != 1 or t.ndim != 1:
        raise DomainError("q_beta_grid needs one-dimensional q and t")
    if np.any(q < 0.0) or np.any(q >= 1.0):
        raise DivergentSeriesError("series needs 0 <= r * rho < 1")
    tabs = _qbeta_tables(spec.n, spec.beta, K_CAP)
    values = np.zeros((q.size, t.size))
    tails = np.empty(q.size)
    step = max(1, min(_GRID_BLOCK, _GRID_BUDGET // max(t.size, 1)))
    rows_per = max(1, _GRID_BUDGET // max(step, t.size))
    live = np.arange(q.size)
    qk = np.ones(q.size)  # q^k0 at the start of a block
    g_prev = g_cur = None
    for k0 in range(0, K_CAP + 1, step):
        if live.size == 0:
            break
        k1 = min(k0 + step, K_CAP + 1)
        G = np.empty((k1 - k0, t.size))
        for k in range(k0, k1):
            if k == 0:
                g = np.ones_like(t)
            elif k == 1:
                g = tabs.g1_coef * t
            else:
                g = (tabs.c1[k] * t) * g_cur - tabs.c2[k] * g_prev
            g_prev, g_cur = g_cur, g
            G[k - k0] = g
        deg = np.arange(k1 - k0)
        running = []
        for c0 in range(0, live.size, rows_per):
            rows = live[c0:c0 + rows_per]
            qr = q[rows][:, None]
            # q^k as the running product the per-node series uses
            steps = np.repeat(qr, k1 - k0, axis=1)
            steps[:, 0] = qk[rows]
            pw = np.multiply.accumulate(steps, axis=1)
            tail = _tail(tabs, qr, pw, slice(k0, k1))
            stop = tail <= tol
            if k1 == K_CAP + 1:
                stop[:, -1] = True
            hit = stop.any(axis=1)
            last = np.where(hit, np.argmax(stop, axis=1), k1 - k0)
            coef = tabs.a[k0:k1] * pw
            coef[deg[None, :] > last[:, None]] = 0.0
            values[rows] += np.einsum("ik,kj->ij", coef, G)
            tails[rows[hit]] = tail[hit, last[hit]]
            qk[rows] = pw[:, -1] * qr[:, 0]
            running.append(rows[~hit])
        live = np.concatenate(running)
    return values, tails


def q_beta_bound_qt(q, t, n, beta):
    """Envelope ``|rho x - y'|^{-(n+beta)}`` as a function of ``(q, t)``.

    ``|rho x - y'|^2 = 1 - 2 q t + q^2`` depends on the two points only
    through ``q = r rho`` and ``t = <x', y'>``, hence the symmetry of
    the bound under swapping the radii.
    """
    q = np.asarray(q, dtype=float)
    t = np.asarray(t, dtype=float)
    dist2 = 1.0 - 2.0 * q * t + q * q
    return dist2 ** (-0.5 * (n + beta))
