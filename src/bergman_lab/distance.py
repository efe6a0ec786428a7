"""Level sets, the s2 finiteness functional, and distance experiments.

The distance of ``f`` from a weighted Bergman space inside the weighted
sup scale is probed two ways:

* ``s2``: the infimum of levels ``eps`` for which the double integral

      int_B ( int_{U_{eps,lam}} |Q_beta(x, y)| (1 - |y|)^{beta - lam}
      dmu(y) )^p (1 - |x|)^alpha dV(x)

  is finite, where ``U_{eps,lam} = {y : |f(y)| (1 - |y|)^lam >= eps}``
  is the level set (half-space: ``V_{eps,lam}`` with weight ``s^lam``
  and kernel ``Q_m`` against ``s^{m - lam}``).  Finiteness is decided
  by the truncation classifier of :mod:`bergman_lab.profiles`; the
  infimum is bracketed by bisection.

* ``s1`` upper bounds: split ``f = f1 + f2`` through the reproducing
  integral, with ``f2`` carrying the level set.  Whenever ``f2`` lands
  in the target space, the weighted sup of ``f - f2`` is a distance
  witness.

The kernel enters with absolute value (the inequalities behind the
functional need a nonnegative integrand).  The inner ball integral uses
the measure ``rho^{n-1} drho dsigma'`` of the reproducing formula and
the outer one the normalized volume; both are fixed constant multiples
of Lebesgue measure, so classifications and ratio bands are unaffected.

Weighted sups and level sets use the plain ``(1 - |x|)`` convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import betainc

from .errors import DivergenceDetected, DomainError
from .geometry import BallPoint, HalfPoint, tangent_frame
from .kernels import q_beta_grid, q_beta_values, q_m_values
from .profiles import (
    DIVERGENT,
    FINITE,
    INCONCLUSIVE,
    DivergenceProfile,
    S2Bracket,
    bisect_s2,
    classify_truncations,
)
from .quadrature import (
    ball_grid,
    halfspace_rule,
    lateral_grid,
    radial_rule,
    sphere_rule,
    zonal_rule,
)
from .spaces import HarmonicFn, ainf_norm, mixed_norm, BallQuad

__all__ = [
    "LevelSetSpec",
    "in_level_set",
    "level_mask",
    "s2_inner",
    "s2_inner_mc",
    "s2_profile",
    "decompose",
    "s1_upper",
    "SweepEntry",
    "DistanceReport",
    "equivalence_experiment",
    "DivergenceProfile",
    "S2Bracket",
]

#: element budget of the kernel values block behind one ``q_beta_grid``
#: or ``q_m_values`` call of a decomposition part or a half-space engine
_PART_BUDGET = 1 << 18

#: columns per block of the half-space s2 engine, and the element
#: budget of its memo of block sums
_HALF_BLOCK = 64
_HALF_MEMO_BUDGET = 1 << 21


@dataclass(frozen=True)
class LevelSetSpec:
    """Level and weight exponent of a boundary-weighted level set."""

    eps: float
    lam: float

    def __post_init__(self):
        if not (self.eps > 0):
            raise DomainError("level eps must be positive")
        if not (self.lam > 0):
            raise DomainError("weight exponent lam must be positive")


def level_mask(f, spec, X, s=None):
    """Vectorized membership of points in the level set of ``f``.

    Ball: ``X`` of shape ``(N, n)``; half-space: lateral ``X`` plus
    heights ``s``.  The inequality is ``|f| weight^lam >= eps`` with
    weight ``1 - |x|`` (ball) or ``s`` (half-space).
    """
    if f.domain == "ball":
        X = np.asarray(X, dtype=float)
        r = np.linalg.norm(X, axis=1)
        return np.abs(f(X)) * (1.0 - r) ** spec.lam >= spec.eps
    s = np.asarray(s, dtype=float)
    return np.abs(f(X, s)) * s**spec.lam >= spec.eps


def _half_point(point):
    """``(y, s)`` of a :class:`HalfPoint` or of a plain ``(y, s)`` pair."""
    if isinstance(point, HalfPoint):
        return point.y, point.s
    y, s = point
    return np.asarray(y, dtype=float), s


def in_level_set(f, spec, point):
    """Single-point level set membership (the verbatim inequality)."""
    if f.domain == "ball":
        x = point.x if isinstance(point, BallPoint) else np.asarray(point, float)
        return bool(level_mask(f, spec, x[None, :])[0])
    y, s = _half_point(point)
    return bool(level_mask(f, spec, y[None, :], np.array([float(s)]))[0])


# ---------------------------------------------------------------------------
# Spherical cap geometry for the reduced (zonal) inner integral


def _cap_fraction(v0, n):
    """Fraction of the azimuthal sphere with ``<omega, e> >= v0``.

    For ``y'`` at polar cosine ``u`` from ``x'``, the cosine to the
    symmetry axis is ``u c + sqrt(1-u^2) sqrt(1-c^2) v`` with ``v`` the
    cosine on the azimuthal ``S^{n-2}``; its distribution is the
    symmetric Beta((n-2)/2, (n-2)/2) law on ``[-1, 1]`` (two atoms at
    ``n = 2``).
    """
    v0 = np.asarray(v0, dtype=float)
    if n == 2:
        return 0.5 * ((v0 <= 1.0).astype(float) + (v0 <= -1.0).astype(float))
    a = 0.5 * (n - 2)
    x = np.clip(0.5 * (1.0 - v0), 0.0, 1.0)
    return betainc(a, a, x)


def _axis_points(rho, t, axis, perp):
    """Points ``rho (t a + sqrt(1-t^2) b)`` in the (axis, perp) plane."""
    sin = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    return rho[:, None] * (t[:, None] * axis[None, :]
                           + sin[:, None] * perp[None, :])


def _cap_thresholds(f, eps, lam, rho, iters=60):
    """Per-radius cap edges ``tau`` with ``U = {t >= tau}`` on each shell.

    Requires ``|f|`` axisymmetric and nondecreasing in the cosine to the
    axis.  Returns +inf on shells where the set is empty and exactly
    -1.0 where it is the full sphere.
    """
    axis = f.axis
    perp = tangent_frame(axis)[0]
    w = (1.0 - rho) ** lam

    def size_at(tt):
        return np.abs(f(_axis_points(rho, tt, axis, perp))) * w

    top = size_at(np.ones_like(rho)) >= eps
    full = size_at(-np.ones_like(rho)) >= eps
    lo = np.full(rho.size, -1.0)
    hi = np.ones(rho.size)
    act = top & ~full
    if np.any(act):
        ra = rho[act]
        wa = w[act]
        la = lo[act]
        ha = hi[act]
        for _ in range(iters):
            mid = 0.5 * (la + ha)
            ge = np.abs(f(_axis_points(ra, mid, axis, perp))) * wa >= eps
            ha = np.where(ge, mid, ha)
            la = np.where(ge, la, mid)
        hi[act] = ha
    tau = np.where(top, np.where(full, -1.0, hi), np.inf)
    return tau


# ---------------------------------------------------------------------------
# s2 engines


def _check_inner(f, kernel, lam):
    """Refuse kernels outside the representation hypothesis that the
    inner integral and the decomposition rest on."""
    if f.domain == "ball":
        bound = max(lam - 1.0, 0.0)
        if kernel.beta is None or kernel.beta <= bound:
            raise DomainError(
                f"representation needs beta > max(lam - 1, 0) = {bound}; "
                f"got beta = {kernel.beta}")
    elif kernel.m is None or kernel.m <= lam - 1.0:
        raise DomainError(
            f"representation needs m > lam - 1 = {lam - 1.0}; "
            f"got m = {kernel.m}")


class _S2Engine:
    """Skeleton of the s2 evaluators: exponents, truncation levels and
    a per-``eps`` cache of ``_truncated(eps)``, which a subclass supplies
    with one value per level in ``j_levels``."""

    def __init__(self, f, lam, kernel, p, alpha, j_levels, q_outer):
        _check_inner(f, kernel, lam)
        self.f, self.lam, self.kernel = f, float(lam), kernel
        self.p, self.alpha = float(p), float(alpha)
        self.q_outer = float(q_outer) if q_outer is not None else float(p)
        self.j_levels = np.asarray(sorted(j_levels), dtype=int)
        self._cache = {}

    def truncated_values(self, eps):
        key = float(eps)
        if key not in self._cache:
            self._cache[key] = self._truncated(eps)
        return self._cache[key]

    def profile(self, eps):
        return classify_truncations(self.j_levels * math.log(2.0),
                                    self.truncated_values(eps))

    def classification(self, eps):
        return self.profile(eps).classification


class _BallEngine(_S2Engine):
    """Ball skeleton: radial rules, outer radii ``R`` with volume weights
    ``ow``, and the sums up to each truncation.  A subclass supplies
    ``inner_matrix(eps)`` on (``R``, outer direction) and the direction
    weights ``w_out``, and raises ``kernel_tail`` to the largest certified
    tail of the kernel rows it has used; rows stop at ``K_CAP``, so that
    tail can exceed ``tol``."""

    def __init__(self, f, lam, kernel, p, alpha, j_levels, order, tol,
                 q_outer):
        super().__init__(f, lam, kernel, p, alpha, j_levels, q_outer)
        self.tol = tol
        self.kernel_tail = 0.0
        j_max = int(self.j_levels.max())
        n = f.n
        self.rr_in = radial_rule(order, j_max + 2)
        self.rr_out = radial_rule(order, j_max)
        keep = self.rr_out.truncation_index(1.0 - 2.0**-j_max)
        self.R = self.rr_out.nodes[:keep]
        self.ow = (self.rr_out.weights[:keep] * n * self.R ** (n - 1)
                   * (1.0 - self.R) ** alpha)

    def _truncated(self, eps):
        shell = (self.inner_matrix(eps) ** self.p) @ self.w_out
        contrib = self.ow * shell ** (self.q_outer / self.p)
        return self.rr_out.level_sums(contrib, self.j_levels)


class _BallZonalEngine(_BallEngine):
    """Reduced s2 evaluator for axisymmetric monotone ball functions.

    The inner sphere integral collapses to the polar cosine ``u``
    against the exact azimuthal cap fraction, the outer one to the
    cosine ``c`` to the symmetry axis; everything is assembled from a
    kernel magnitude table shared across levels and truncations.
    """

    def __init__(self, f, lam, kernel, p, alpha, j_levels, order=8,
                 u_refinement=16, c_extra=4, tol=1e-9, q_outer=None):
        if f.domain != "ball" or not f.zonal_monotone or f.axis is None:
            raise DomainError(
                "the reduced engine needs an axisymmetric function that is "
                "monotone in the cosine to its axis")
        super().__init__(f, lam, kernel, p, alpha, j_levels, order, tol,
                         q_outer)
        n = f.n
        self.rho = self.rr_in.nodes
        zr_u = zonal_rule(n, order, u_refinement)
        zr_c = zonal_rule(n, order, int(self.j_levels.max()) + c_extra)
        self.u, self.wu = zr_u.u_nodes, zr_u.weights
        self.c, self.w_out = zr_c.u_nodes, zr_c.weights

        # kernel magnitude table |Q|(R_k rho_j, u_i), combined with the
        # inner weights; one product-grid evaluation, reused for every
        # level and truncation
        vals, tails = q_beta_grid(
            kernel, (self.R[:, None] * self.rho[None, :]).ravel(), self.u,
            tol=tol)
        self.kernel_tail = float(tails.max())
        w_in = (self.rr_in.weights * self.rho ** (n - 1)
                * (1.0 - self.rho) ** (kernel.beta - lam))
        wt = (np.abs(vals).reshape(self.R.size, self.rho.size, self.u.size)
              * (w_in[None, :, None] * self.wu[None, None, :]))
        self._wt = wt.reshape(self.R.size, -1)

    def inner_matrix(self, eps):
        """Inner integral on the outer (radius, cosine) grid."""
        tau = _cap_thresholds(self.f, eps, self.lam, self.rho)
        su = np.sqrt(np.clip(1.0 - self.u * self.u, 1e-300, None))
        sc = np.sqrt(np.clip(1.0 - self.c * self.c, 1e-300, None))
        with np.errstate(invalid="ignore"):
            v0 = (tau[None, :, None] - self.u[None, None, :] * self.c[:, None, None]) / (
                su[None, None, :] * sc[:, None, None])
        v0 = np.where(np.isnan(v0), np.inf, v0)
        frac = _cap_fraction(v0, self.f.n)
        return self._wt @ frac.reshape(self.c.size, -1).T


class _BallGridEngine(_BallEngine):
    """Generic s2 evaluator with a pointwise level-set mask."""

    def __init__(self, f, lam, kernel, p, alpha, j_levels, order=6,
                 inner_degree=15, outer_degree=11, tol=1e-9, q_outer=None):
        if f.domain != "ball":
            raise DomainError("ball engine needs a ball function")
        super().__init__(f, lam, kernel, p, alpha, j_levels, order, tol,
                         q_outer)

        sr_in = sphere_rule(f.n, inner_degree)
        rho, dirs_in, w0 = ball_grid(sr_in, self.rr_in)
        shape = (self.rr_in.nodes.size, -1)  # (ring, inner direction)
        self.wsize = (np.abs(f(rho[:, None] * dirs_in))
                      * (1.0 - rho) ** lam).reshape(shape)
        self.w_beta = (w0 * (1.0 - rho) ** (kernel.beta - lam)).reshape(shape)

        sr_out = sphere_rule(f.n, outer_degree)
        self.w_out = sr_out.weights
        self._tmat = sr_out.nodes @ sr_in.nodes.T  # (dirs_out, dirs_in)

    def inner_matrix(self, eps):
        """Inner integral on the outer (radius, direction) grid: one
        product-grid kernel call per inner ring, over the ring's masked
        directions."""
        mask = self.wsize >= eps
        inner = np.zeros((self.R.size, self._tmat.shape[0]))
        for i in np.flatnonzero(mask.any(axis=1)):
            cols = np.flatnonzero(mask[i])
            t = self._tmat[:, cols]  # (dirs_out, masked dirs_in)
            vals, tails = q_beta_grid(self.kernel,
                                      self.R * self.rr_in.nodes[i],
                                      t.ravel(), tol=self.tol)
            self.kernel_tail = max(self.kernel_tail, float(tails.max()))
            inner += (np.abs(vals).reshape(self.R.size, *t.shape)
                      @ self.w_beta[i, cols])
        return inner


class _HalfGridEngine(_S2Engine):
    """s2 evaluator on the half-space with expanding windows.

    One master tensor grid serves as both inner and outer domain;
    window ``j`` keeps nodes with ``|y_i| <= 2^j`` and
    ``2^-j <= s <= 2^j``, so divergence at the boundary and at infinity
    are probed together.  The master grid extends one level beyond the
    largest window so outer points near the last window still see their
    local kernel mass.

    Inner nodes (columns) are stably sorted by descending ``wsize``, so
    every level set is a prefix of that order.  ``inner_values(eps)``
    adds blocks of ``_HALF_BLOCK`` columns in block order, each on the
    (height, lateral) product grid: full blocks from a memo of running
    sums, the partial last block afresh.  Each column is evaluated once
    per engine, and the bits depend neither on the levels queried
    before nor on the BLAS thread count.  The memo holds at most
    ``_HALF_MEMO_BUDGET`` elements; blocks past it are recomputed.
    """

    def __init__(self, f, lam, kernel, p, alpha, j_levels, order=6,
                 lateral_refinement=None, q_outer=None):
        if f.domain != "halfspace":
            raise DomainError("half-space engine needs a half-space function")
        super().__init__(f, lam, kernel, p, alpha, j_levels, q_outer)
        L = int(self.j_levels.max()) + 1
        if lateral_refinement is None:
            lateral_refinement = L + 2
        rule = halfspace_rule(f.n, R_xy=2.0**L, s_min=2.0**-L, s_max=2.0**L,
                              order=order, lateral_refinement=lateral_refinement)
        self.mesh, self.w_lat = rule.lateral_mesh()
        self.s_nodes, self.s_weights = rule.s_nodes, rule.s_weights
        Y, s, w = rule.flat()
        self.wsize = np.abs(f(Y, s)) * s**lam
        cols = np.argsort(-self.wsize, kind="stable")
        self._Y, self._s = Y[cols], s[cols]
        self._w = (w * s ** (kernel.m - lam))[cols]
        # _sums[b]: the sum of the first b full blocks, (height, lateral)
        self._sums = [np.zeros((self.s_nodes.size, self.mesh.shape[0]))]

    def _block(self, c0, c1):
        """Contribution of the sorted columns ``c0:c1`` on the (height,
        lateral) grid: ``u`` depends on (lateral, column) only and
        ``tau`` on (height, column) only."""
        diff = self.mesh[:, None, :] - self._Y[None, c0:c1, :]
        u = np.einsum("lck,lck->lc", diff, diff)
        tau = self.s_nodes[:, None] + self._s[None, c0:c1]
        w = self._w[c0:c1]
        out = np.empty(self._sums[0].shape)
        step = max(1, _PART_BUDGET // u.size)
        for h0 in range(0, tau.shape[0], step):
            vals = q_m_values(u[None, :, :], tau[h0:h0 + step, None, :],
                              self.f.n, self.kernel.m)
            out[h0:h0 + step] = np.einsum("hlc,c->hl", np.abs(vals), w)
        return out

    def inner_values(self, eps):
        count = int(np.count_nonzero(self.wsize >= eps))
        full = count // _HALF_BLOCK
        known = min(full, len(self._sums) - 1)
        acc = self._sums[known]
        for b in range(known, full):
            acc = acc + self._block(b * _HALF_BLOCK, (b + 1) * _HALF_BLOCK)
            if (b + 1 == len(self._sums)
                    and (b + 2) * acc.size <= _HALF_MEMO_BUDGET):
                self._sums.append(acc)
        if count > full * _HALF_BLOCK:
            acc = acc + self._block(full * _HALF_BLOCK, count)
        return acc.ravel().copy()

    def _truncated(self, eps):
        """Window values with the mixed outer structure.

        Lateral integral first, then the height integral of its
        ``q/p`` power against ``s^alpha``; at ``q = p`` this is the
        plain double integral on the identical grid.
        """
        inner = self.inner_values(eps).reshape(self.s_nodes.size, -1)
        vals = []
        for j in self.j_levels:
            side = 2.0**j
            lat_ok = np.all(np.abs(self.mesh) <= side, axis=1)
            s_ok = (self.s_nodes >= 2.0**-j) & (self.s_nodes <= side)
            slab = (inner[s_ok] ** self.p) @ (self.w_lat * lat_ok)
            contrib = (self.s_weights[s_ok] * self.s_nodes[s_ok] ** self.alpha
                       * slab ** (self.q_outer / self.p))
            vals.append(float(contrib.sum()))
        return np.array(vals)


def _default_levels(domain):
    return tuple(range(1, 11)) if domain == "ball" else (2, 3, 4, 5, 6, 7)


def _make_engine(f, lam, kernel, p, alpha, j_levels=None, method="auto",
                 q_outer=None, **opts):
    if j_levels is None:
        j_levels = _default_levels(f.domain)
    if f.domain == "halfspace":
        return _HalfGridEngine(f, lam, kernel, p, alpha, j_levels,
                               q_outer=q_outer, **opts)
    if method == "auto":
        method = "zonal" if (f.zonal_monotone and f.axis is not None) else "grid"
    if method == "zonal":
        return _BallZonalEngine(f, lam, kernel, p, alpha, j_levels,
                                q_outer=q_outer, **opts)
    return _BallGridEngine(f, lam, kernel, p, alpha, j_levels,
                           q_outer=q_outer, **opts)


# ---------------------------------------------------------------------------
# Public operations


def s2_inner(f, spec, kernel, point, order=8, degree=21, tol=1e-10):
    """Inner level-set integral at one evaluation point.

    Ball: ``int_{U} |Q_beta(x, y)| (1 - |y|)^{beta - lam} rho^{n-1}
    drho dsigma'``; half-space: ``int_{V} |Q_m(z, w)| s^{m - lam} dw``.
    The mask is evaluated pointwise on the quadrature grid.
    """
    _check_inner(f, kernel, spec.lam)
    if f.domain == "ball":
        x = point.x if isinstance(point, BallPoint) else np.asarray(point, float)
        rho, dirs, w = ball_grid(sphere_rule(f.n, degree), radial_rule(order, 12))
        mask = level_mask(f, spec, rho[:, None] * dirs)
        if not np.any(mask):
            return 0.0
        w = (w * (1.0 - rho) ** (kernel.beta - spec.lam))[mask]
        r = float(np.linalg.norm(x))
        xd = x / r if r > 0 else np.eye(f.n)[0]
        q = np.ascontiguousarray(r * rho[mask])
        t = np.ascontiguousarray(dirs[mask] @ xd)
        vals, _ = q_beta_values(kernel, q, t, tol=tol)
        return float(np.abs(vals) @ w)

    zy, zs = _half_point(point)
    m = kernel.m
    L = 8
    rule = halfspace_rule(f.n, R_xy=2.0**L, s_min=2.0**-L, s_max=2.0**L,
                          order=order, lateral_refinement=L + 2)
    Y, s, w = rule.flat()
    mask = level_mask(f, spec, Y, s)
    if not np.any(mask):
        return 0.0
    diff = Y[mask] - zy[None, :]
    u = np.einsum("ij,ij->i", diff, diff)
    tau = s[mask] + zs
    vals = q_m_values(u, tau, f.n, m)
    return float(np.abs(vals) @ (w[mask] * s[mask] ** (m - spec.lam)))


def s2_inner_mc(f, spec, kernel, point, n_samples=10**6, seed=0,
                box_radius=8.0, box_height=8.0):
    """Monte-Carlo estimate of :func:`s2_inner` with its standard error.

    Ball sampling matches the ``rho^{n-1} drho dsigma'`` measure of the
    quadrature path (total mass ``1/n``); the half-space samples a box
    that must contain the level set of the gallery functions used.
    """
    rng = np.random.default_rng(seed)
    n = f.n
    if f.domain == "ball":
        x = point.x if isinstance(point, BallPoint) else np.asarray(point, float)
        rho = rng.random(n_samples) ** (1.0 / n)
        g = rng.standard_normal((n_samples, n))
        dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
        Y = rho[:, None] * dirs
        mask = level_mask(f, spec, Y)
        vals = np.zeros(n_samples)
        if np.any(mask):
            r = float(np.linalg.norm(x))
            xd = x / r if r > 0 else np.eye(n)[0]
            q = np.ascontiguousarray(r * rho[mask])
            t = np.ascontiguousarray(dirs[mask] @ xd)
            kv, _ = q_beta_values(kernel, q, t, tol=1e-10)
            vals[mask] = np.abs(kv) * (1.0 - rho[mask]) ** (kernel.beta - spec.lam)
        est = vals.mean() / n
        err = vals.std(ddof=1) / math.sqrt(n_samples) / n
        return float(est), float(err)

    zy, zs = _half_point(point)
    Y = rng.uniform(-box_radius, box_radius, size=(n_samples, n))
    s = rng.uniform(0.0, box_height, size=n_samples)
    s = np.maximum(s, 1e-300)
    volume = (2.0 * box_radius) ** n * box_height
    mask = level_mask(f, spec, Y, s)
    vals = np.zeros(n_samples)
    if np.any(mask):
        diff = Y[mask] - zy[None, :]
        u = np.einsum("ij,ij->i", diff, diff)
        kv = q_m_values(u, s[mask] + zs, n, kernel.m)
        vals[mask] = np.abs(kv) * s[mask] ** (kernel.m - spec.lam)
    est = volume * vals.mean()
    err = volume * vals.std(ddof=1) / math.sqrt(n_samples)
    return float(est), float(err)


def s2_profile(f, spec, kernel, p, alpha, j_levels=None, method="auto",
               q_outer=None, **opts):
    """Truncation profile of the outer s2 integral at one level."""
    if p <= 0:
        raise DomainError("p must be positive")
    if alpha <= -1.0:
        raise DomainError("weight exponent alpha must exceed -1")
    engine = _make_engine(f, spec.lam, kernel, p, alpha, j_levels,
                          method=method, q_outer=q_outer, **opts)
    return engine.profile(spec.eps)


# ---------------------------------------------------------------------------
# Constructive decomposition


def _kernel_part_ball(kernel, rho, dirs, W, tol):
    """Quadrature-backed harmonic function
    ``sum_{i,j} Q_beta(x, rho_i d_j) W[i, j]`` on the product grid.

    A point at radius ``r`` meets the rows ``r * rho_i`` and the cosines
    ``<x', d_j>``, so points of one radius share one kernel grid; rows
    whose weights are all zero are dropped.
    """
    live = np.any(W != 0.0, axis=1)
    rho, W = rho[live], W[live]
    # points per kernel grid, so that the values block stays in budget
    per = max(1, _PART_BUDGET // max(rho.size * dirs.shape[0], 1))

    def fn(X):
        X = np.asarray(X, dtype=float)
        r = np.linalg.norm(X, axis=1)
        xd = np.where(r[:, None] > 0, X / np.maximum(r, 1e-300)[:, None], 0.0)
        xd[r == 0, 0] = 1.0
        out = np.zeros(X.shape[0])
        if rho.size == 0:
            return out
        radii, group = np.unique(r, return_inverse=True)
        for g, rg in enumerate(radii):
            pts = np.flatnonzero(group == g)
            for k0 in range(0, pts.size, per):
                idx = pts[k0:k0 + per]
                t = np.einsum("pk,jk->pj", xd[idx], dirs)
                vals, _ = q_beta_grid(kernel, rg * rho, t.ravel(), tol)
                out[idx] = np.einsum("ipj,ij->p",
                                     vals.reshape(rho.size, idx.size, -1), W)
        return out

    return fn


def _kernel_part_half(f, kernel, Yq, sq, w_signed):
    """Quadrature-backed harmonic function
    ``sum_i Q_m((y, s), (Yq_i, sq_i)) w_signed_i``, evaluated in chunks
    of points so that the values block stays within ``_PART_BUDGET``."""
    per = max(1, _PART_BUDGET // max(sq.size, 1))

    def fn(Y, s):
        Y = np.asarray(Y, dtype=float)
        s = np.asarray(s, dtype=float)
        out = np.empty(s.size)
        for k0 in range(0, s.size, per):
            diff = Y[k0:k0 + per, None, :] - Yq[None, :, :]
            u = np.einsum("ijk,ijk->ij", diff, diff)
            tau = s[k0:k0 + per, None] + sq[None, :]
            vals = q_m_values(u, tau, f.n, kernel.m)
            vals *= w_signed
            # pairwise row sums: thread-independent bits, and closer to
            # the exact sum than a sequential dot over ~1e4 signed terms
            out[k0:k0 + per] = vals.sum(axis=1)
        return out

    return fn


def decompose(f, spec, kernel, quad=None, tol=1e-11):
    """Split ``f = f1 + f2`` through the reproducing integral.

    ``f2`` carries the part of the integral over the level set, ``f1``
    the rest; both are quadrature-backed harmonic functions.  Requires
    the representation hypothesis ``beta > max(lam - 1, 0)`` (ball) or
    ``m > lam - 1`` (half-space); refuses otherwise.
    """
    if kernel.domain != f.domain or kernel.n != f.n:
        raise DomainError("kernel spec does not match the function")
    _check_inner(f, kernel, spec.lam)
    if f.domain == "ball":
        if quad is None:
            from .spaces import default_ball_quad

            quad = default_ball_quad(f.n, degree=21, order=8, refinement=11)
        rho, dirs, w = ball_grid(quad.srule, quad.rrule)
        Y = rho[:, None] * dirs
        fv = f(Y)
        w_signed = w * (1.0 - rho * rho) ** kernel.beta * fv
        mask = np.abs(fv) * (1.0 - rho) ** spec.lam >= spec.eps
        # ball_grid is radius-major: node (i, j) is rho_i * d_j
        shape = (quad.rrule.nodes.size, quad.srule.nodes.shape[0])
        W = w_signed.reshape(shape)
        mask = mask.reshape(shape)
        f1, f2 = (HarmonicFn(f.label + suffix, "ball", f.n,
                             _kernel_part_ball(kernel, quad.rrule.nodes,
                                               quad.srule.nodes,
                                               np.where(part, W, 0.0), tol),
                             axis=f.axis)
                  for suffix, part in (("_f1", ~mask), ("_f2", mask)))
        return f1, f2

    m = kernel.m
    L = 8
    rule = halfspace_rule(f.n, R_xy=2.0**L, s_min=2.0**-L, s_max=2.0**L,
                          order=8, lateral_refinement=L + 2)
    Yq, sq, w = rule.flat()
    fv = f(Yq, sq)
    w_signed = w * sq**m * fv
    mask = np.abs(fv) * sq**spec.lam >= spec.eps
    decay = f.decay_power if f.decay_power is not None else float(f.n + 1)
    f1 = HarmonicFn(f.label + "_f1", "halfspace", f.n,
                    _kernel_part_half(f, kernel, Yq[~mask], sq[~mask],
                                      w_signed[~mask]),
                    decay_power=min(decay, float(f.n + m + 1)))
    f2 = HarmonicFn(f.label + "_f2", "halfspace", f.n,
                    _kernel_part_half(f, kernel, Yq[mask], sq[mask],
                                      w_signed[mask]),
                    decay_power=float(f.n + m + 1))
    return f1, f2


def _probe_points(f, shells, samples, degree=None):
    """Ball: shells at the radii ``shells``, at the cosines ``samples`` in
    a plane through the axis of an axisymmetric ``f``, else on a sphere
    rule of ``degree``.  Half-space: the lateral grid ``samples^n`` at
    each height in ``shells``, height-major."""
    if f.domain == "ball":
        if f.axis is not None:
            perp = tangent_frame(f.axis)[0]
            return np.vstack([_axis_points(np.full(samples.size, rr), samples,
                                           f.axis, perp) for rr in shells])
        sr = sphere_rule(f.n, degree)
        return (shells[:, None, None] * sr.nodes[None, :, :]).reshape(-1, f.n)
    Y = lateral_grid(samples, f.n)
    return np.tile(Y, (shells.size, 1)), np.repeat(shells, Y.shape[0])


def _sup_points(f, levels=10, coarse=9):
    """Weighted-sup evaluation grid, reduced to a plane for axisymmetric f."""
    if f.domain == "ball":
        r = np.concatenate([[0.0, 0.2, 0.4, 0.6],
                            1.0 - 2.0 ** -np.arange(1, levels + 1.0)])
        u = np.concatenate([np.linspace(-1.0, 0.9, coarse),
                            1.0 - np.geomspace(1e-6, 0.1, 12)[::-1], [1.0]])
        return _probe_points(f, r, u, degree=15)
    y = np.concatenate([-np.geomspace(8.0, 2.0**-4, 12), [0.0],
                        np.geomspace(2.0**-4, 8.0, 12)])
    return _probe_points(f, 2.0 ** -np.arange(-4.0, levels + 1.0), y)


def _weighted_sup_on(f, g, lam, pts):
    """Grid sup of ``|f - g|`` under the plain boundary weight."""
    if f.domain == "ball":
        X = pts
        r = np.linalg.norm(X, axis=1)
        d = np.abs(f(X) - g(X)) if g is not None else np.abs(f(X))
        return float(np.max(d * (1.0 - r) ** lam))
    Y, s = pts
    d = np.abs(f(Y, s) - g(Y, s)) if g is not None else np.abs(f(Y, s))
    return float(np.max(d * s**lam))


def s1_upper(f, spec, kernel, p, alpha, profile=None, quad=None,
             sup_levels=10, method="auto", j_levels=None):
    """Distance witness: grid sup of ``|f - f2|`` under the level weight.

    Valid only when the s2 profile at this level is FINITE, the proxy
    for ``f2`` belonging to the target space; refuses otherwise with
    the profile attached.
    """
    if profile is None:
        profile = s2_profile(f, spec, kernel, p, alpha, j_levels=j_levels,
                             method=method)
    if not profile.is_finite():
        raise DivergenceDetected(
            f"s2 profile at eps = {spec.eps} classified "
            f"{profile.classification}; f2 is not certified to lie in the "
            "target space", profile)
    _, f2 = decompose(f, spec, kernel, quad=quad)
    return _weighted_sup_on(f, f2, spec.lam, _sup_points(f, sup_levels))


# ---------------------------------------------------------------------------
# Equivalence experiment


@dataclass(frozen=True)
class SweepEntry:
    """Results at one kernel parameter of the sweep."""

    kernel_param: float
    eps_grid: np.ndarray
    profiles: tuple
    bracket: S2Bracket
    s2_estimate: float
    s1_upper: tuple
    f1_weighted_sup: tuple
    c_over_eps: tuple
    f2_mixed_norm: tuple
    repro_error: float
    coherence_ok: bool
    notes: tuple

    def to_dict(self):
        return {
            "kernel_param": self.kernel_param,
            "eps_grid": [float(e) for e in self.eps_grid],
            "profiles": [
                {
                    "cut_param": [float(c) for c in pr.cut_param],
                    "values": [float(v) for v in pr.values],
                    "fitted_exponent": pr.fitted_exponent,
                    "classification": pr.classification,
                }
                for pr in self.profiles
            ],
            "bracket": {
                "lower": self.bracket.lower,
                "upper": self.bracket.upper,
                "resolved": self.bracket.resolved,
                "width": self.bracket.width,
                "evaluations": [[e, c] for e, c in self.bracket.evaluations],
            },
            "s2_estimate": self.s2_estimate,
            "s1_upper": [None if v is None else float(v) for v in self.s1_upper],
            "f1_weighted_sup": [float(v) for v in self.f1_weighted_sup],
            "c_over_eps": [float(v) for v in self.c_over_eps],
            "f2_mixed_norm": [None if v is None else float(v)
                              for v in self.f2_mixed_norm],
            "repro_error": self.repro_error,
            "coherence_ok": self.coherence_ok,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class DistanceReport:
    """Full record of a distance equivalence experiment."""

    f_label: str
    domain: str
    n: int
    p: float
    q: Optional[float]
    alpha: float
    lam: float
    weighted_sup: float
    entries: tuple
    notes: tuple

    def to_dict(self):
        return {
            "f": self.f_label,
            "domain": self.domain,
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "alpha": self.alpha,
            "lam": self.lam,
            "weighted_sup": self.weighted_sup,
            "sweep": [e.to_dict() for e in self.entries],
            "notes": list(self.notes),
        }


def _resolve_bracket(engine, eps_sorted, classes, sup, target_width):
    """Bracket the critical level from grid classifications plus bisection."""
    finite = [e for e, c in zip(eps_sorted, classes) if c == FINITE]
    non_finite = [e for e, c in zip(eps_sorted, classes) if c == DIVERGENT]
    if any(c == INCONCLUSIVE for c in classes):
        lo = max(non_finite) if non_finite else 0.0
        hi = min(finite) if finite else float("inf")
        return S2Bracket(lo, hi, False,
                         tuple((float(e), c) for e, c in zip(eps_sorted, classes)))
    if not finite:
        hi = 2.0 * max(eps_sorted)
        for _ in range(4):
            if engine.classification(hi) == FINITE:
                break
            hi *= 2.0
        else:
            return S2Bracket(max(eps_sorted), float("inf"), False,
                             tuple((float(e), c)
                                   for e, c in zip(eps_sorted, classes)))
        lo = max(non_finite) if non_finite else min(eps_sorted)
        return bisect_s2(engine.classification, lo, hi, target_width)
    if not non_finite:
        return bisect_s2(engine.classification, min(finite),
                         2.0 * max(eps_sorted), target_width)
    return bisect_s2(engine.classification, max(non_finite), min(finite),
                     target_width)


def equivalence_experiment(f, p, alpha, kernel_sweep, q=None, eps_grid=None,
                           j_levels=None, target_width_frac=0.05,
                           method="auto", decomp_quad=None,
                           skip_decomposition=False, engine_opts=None):
    """Sweep kernel parameters and report s2 brackets and s1 witnesses.

    ``kernel_sweep`` lists beta values (ball) or m values (half-space).
    For mixed targets (``q`` given, ``q <= p``) only the one-sided
    ``s2 <= C s1`` direction is meaningful; the report then carries an
    explicit note and the membership diagnostic switches to the mixed
    norm of ``f2``.
    """
    from .kernels import ball_kernel, halfspace_kernel

    if p <= 0:
        raise DomainError("p must be positive")
    if alpha <= -1.0:
        raise DomainError("weight exponent alpha must exceed -1")
    if q is not None and q > p:
        raise DomainError("mixed experiments need q <= p")
    n = f.n
    lam = (alpha + n) / p if f.domain == "ball" else (alpha + n + 1) / p
    sup, _ = ainf_norm(f, lam, convention="1-r")
    if eps_grid is None:
        eps_grid = sup * np.array([0.125, 0.25, 0.5, 0.75, 1.1])
    eps_sorted = np.sort(np.asarray(eps_grid, dtype=float))
    if j_levels is None:
        j_levels = _default_levels(f.domain)
    opts = dict(engine_opts or {})

    notes = []
    if q is not None:
        notes.append("mixed-norm target: only the s2 <= C s1 direction "
                     "is asserted")
    if p <= 1:
        notes.append("p <= 1 regime: decomposition machinery exercised; the "
                     "two-sided equivalence has the same reported form")

    entries = []
    for kparam in kernel_sweep:
        kernel = (ball_kernel(n, kparam) if f.domain == "ball"
                  else halfspace_kernel(n, int(kparam)))
        engine = _make_engine(f, lam, kernel, p, alpha, j_levels,
                              method=method, q_outer=q, **opts)
        entry_notes = []

        profiles = []
        for eps in eps_sorted:
            profiles.append(engine.profile(eps))
        classes = [pr.classification for pr in profiles]

        # level sets shrink as eps grows, so truncated values must be
        # elementwise nonincreasing along the sorted grid
        coherence_ok = True
        for a, b in zip(profiles[:-1], profiles[1:]):
            slack = 1e-9 * max(1.0, float(a.values.max()))
            if np.any(b.values > a.values + slack):
                coherence_ok = False
                entry_notes.append("monotonicity violation across levels")
                break
        seen_finite = False
        for c in classes:
            if c == FINITE:
                seen_finite = True
            elif c == DIVERGENT and seen_finite:
                coherence_ok = False
                entry_notes.append("classification not monotone in eps")

        bracket = _resolve_bracket(engine, eps_sorted, classes, sup,
                                   max(target_width_frac * sup, 1e-12))
        # rows stopped at K_CAP leave truncated values the classifier
        # reads without the certificate; flagged, not yet refused
        if f.domain == "ball" and engine.kernel_tail > engine.tol:
            entry_notes.append(
                f"uncertified kernel: largest row tail "
                f"{engine.kernel_tail:.3g} exceeds tol {engine.tol:g}")
        if bracket.lower == 0.0:
            s2_est = 0.0
        elif math.isinf(bracket.upper):
            s2_est = float("inf")
        else:
            s2_est = 0.5 * (bracket.lower + bracket.upper)

        s1_vals, f1_sups, c_ratios, f2_norms = [], [], [], []
        repro = float("nan")
        if not skip_decomposition:
            sup_pts = _sup_points(f)
            proj_checked = False
            for eps, pr in zip(eps_sorted, profiles):
                spec = LevelSetSpec(float(eps), lam)
                f1, f2 = decompose(f, spec, kernel, quad=decomp_quad)
                if not proj_checked:
                    # f1 + f2 is the full reproducing integral; its defect
                    # against f on an interior grid is level-independent
                    repro = _repro_defect(f, f1, f2)
                    proj_checked = True
                f1_sup = _weighted_sup_on(f, f2, lam, sup_pts)
                f1_sups.append(f1_sup)
                c_ratios.append(f1_sup / float(eps))
                s1_vals.append(f1_sup if pr.is_finite() else None)
                if q is not None and f.domain == "ball":
                    try:
                        f2_norms.append(mixed_norm(
                            f2, p, q, alpha, "B",
                            quad=BallQuad(sphere_rule(n, 11), radial_rule(6, 8))))
                    except DivergenceDetected:
                        f2_norms.append(None)
                else:
                    f2_norms.append(None)
        else:
            s1_vals = [None] * eps_sorted.size
            f1_sups = [float("nan")] * eps_sorted.size
            c_ratios = [float("nan")] * eps_sorted.size
            f2_norms = [None] * eps_sorted.size

        entries.append(SweepEntry(
            float(kparam), eps_sorted, tuple(profiles), bracket,
            float(s2_est), tuple(s1_vals), tuple(f1_sups), tuple(c_ratios),
            tuple(f2_norms), float(repro), coherence_ok, tuple(entry_notes)))

    return DistanceReport(f.label, f.domain, n, float(p),
                          None if q is None else float(q), float(alpha),
                          float(lam), float(sup), tuple(entries),
                          tuple(notes))


def _repro_defect(f, f1, f2):
    """Sup of ``|f - (f1 + f2)|`` on a small interior grid."""
    if f.domain == "ball":
        X = _probe_points(f, np.array([0.0, 0.2, 0.4, 0.6, 0.7]),
                          np.linspace(-1.0, 1.0, 9), degree=7)
        return float(np.max(np.abs(f(X) - f1(X) - f2(X))))
    Y, s = _probe_points(f, np.array([0.25, 0.5, 1.0, 2.0, 4.0]),
                         np.linspace(-2.0, 2.0, 7))
    return float(np.max(np.abs(f(Y, s) - f1(Y, s) - f2(Y, s))))
