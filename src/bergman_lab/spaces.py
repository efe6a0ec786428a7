"""Weighted Bergman spaces: test functions, norms, and embeddings.

Norm conventions
----------------
Ball norms use the normalized volume measure:

    ||f||_{p, alpha}^p = int_B |f(x)|^p (1 - |x|^2)^alpha dV(x).

Half-space norms use Lebesgue measure with weight ``s^alpha``.  Two sup
norm conventions coexist and every operation states which it uses: the
``"1-r"`` convention weights by ``(1 - |x|)^t`` (the one the level-set
and distance machinery uses), the ``"1-r^2"`` convention by
``(1 - |x|^2)^t``; on the half-space the weight is ``s^t``.

``growth_exponent`` on a test function is the infimum of ``t`` for
which the ``"1-r"`` weighted sup is finite (0 for bounded functions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DivergenceDetected,
    DomainError,
    UnboundedNormError,
)
from .geometry import BallPoint, HalfPoint, tangent_frame
from .kernels import (
    ball_kernel,
    poisson_ball_rt,
    poisson_halfspace_ut,
    q_beta_grid,
    q_beta_values,
    q_m_values,
    zonal,
    zonal_table,
)
from .profiles import classify_truncations
from .quadrature import (
    HalfSpaceValue,
    TailDecay,
    ball_points,
    halfspace_rule,
    integrate_halfspace,
    lateral_grid,
    radial_profile,
    radial_rule,
    sphere_rule,
    window_rule,
)

__all__ = [
    "HarmonicFn",
    "gallery",
    "gallery_fn",
    "BallQuad",
    "default_ball_quad",
    "default_half_quad",
    "ReproducingSum",
    "bergman_norm",
    "ball_norm_profile",
    "halfspace_norm_profile",
    "mixed_norm",
    "ainf_norm",
    "weighted_norm",
    "SWeight",
    "s_weight",
    "s_threshold",
    "embedding_check",
    "harmonicity_defect",
]


# ---------------------------------------------------------------------------
# Test functions


@dataclass(frozen=True)
class HarmonicFn:
    """A harmonic test function with evaluation metadata.

    Ball functions are called as ``f(X)`` with ``X`` of shape
    ``(N, n)``; half-space functions as ``f(Y, s)``.  ``axis`` marks
    rotational symmetry about a unit vector; ``zonal_monotone`` asserts
    additionally that ``|f|`` is nondecreasing in ``<y', axis>`` on
    every sphere ``|y| = rho`` (Poisson kernels qualify), which enables
    the reduced level-set quadrature in :mod:`bergman_lab.distance`.
    """

    label: str
    domain: str
    n: int
    fn: Callable = field(repr=False)
    growth_exponent: Optional[float] = None
    axis: Optional[np.ndarray] = field(default=None, repr=False)
    zonal_monotone: bool = False
    decay_power: Optional[float] = None  # half-space: |f| ~ |w|^-decay_power
    bottom_power: float = 0.0            # half-space: |f| ~ s^bottom_power

    def __call__(self, *args):
        return self.fn(*args)

    def at(self, point):
        """Evaluate at a single :class:`BallPoint` or :class:`HalfPoint`."""
        if self.domain == "ball":
            if not isinstance(point, BallPoint):
                raise DomainError("ball function takes a BallPoint")
            return float(self.fn(point.x[None, :])[0])
        if not isinstance(point, HalfPoint):
            raise DomainError("half-space function takes a HalfPoint")
        return float(self.fn(point.y[None, :], np.array([point.s]))[0])


def _e1(n):
    e = np.zeros(n)
    e[0] = 1.0
    return e


def _safe_rt(X):
    r = np.linalg.norm(X, axis=1)
    t = np.zeros_like(r)
    pos = r > 0
    t[pos] = X[pos, 0] / r[pos]
    return r, np.clip(t, -1.0, 1.0)


def gallery(domain, n):
    """Deterministic list of test functions for one domain."""
    if domain == "ball":
        if n < 2:
            raise DomainError("ball gallery needs n >= 2")
        table = zonal_table(n, 8)
        fns = [
            HarmonicFn("const_one", "ball", n, lambda X: np.ones(X.shape[0]),
                       growth_exponent=0.0, axis=_e1(n)),
            HarmonicFn("coord_x1", "ball", n, lambda X: X[:, 0].copy(),
                       growth_exponent=0.0, axis=_e1(n)),
        ]
        for k in range(1, 5):
            def solid(X, k=k):
                r, t = _safe_rt(X)
                return r**k * zonal(k, t, table)
            fns.append(HarmonicFn(f"solid_k{k}", "ball", n, solid,
                                  growth_exponent=0.0, axis=_e1(n)))

        def poisson(X):
            r, t = _safe_rt(X)
            return poisson_ball_rt(r, t, n)

        fns.append(HarmonicFn("poisson_e1", "ball", n, poisson,
                              growth_exponent=float(n - 1), axis=_e1(n),
                              zonal_monotone=True))

        spec = ball_kernel(n, 1.0)

        def qker(X):
            r, t = _safe_rt(X)
            vals, _ = q_beta_values(spec, 0.9 * r, t, tol=1e-13)
            return vals

        fns.append(HarmonicFn("qbeta_y09", "ball", n, qker,
                              growth_exponent=0.0, axis=_e1(n)))
        return fns

    if domain == "halfspace":
        if n < 1:
            raise DomainError("half-space gallery needs n >= 1")

        def hpoisson(Y, s):
            u = np.einsum("ij,ij->i", Y, Y)
            return poisson_halfspace_ut(u, s + 1.0, n)

        def hqm(Y, s):
            u = np.einsum("ij,ij->i", Y, Y)
            return q_m_values(u, s + 1.0, n, 1)

        return [
            HarmonicFn("hs_poisson", "halfspace", n, hpoisson,
                       growth_exponent=0.0, decay_power=float(n)),
            HarmonicFn("qm_w0", "halfspace", n, hqm,
                       growth_exponent=0.0, decay_power=float(n + 2)),
        ]
    raise DomainError("domain must be 'ball' or 'halfspace'")


def gallery_fn(name, domain, n):
    for f in gallery(domain, n):
        if f.label == name:
            return f
    raise DomainError(f"no gallery function named {name!r} on {domain}")


# ---------------------------------------------------------------------------
# Quadrature bundles


@dataclass(frozen=True)
class BallQuad:
    srule: object
    rrule: object


def default_ball_quad(n, degree=41, order=12, refinement=14):
    return BallQuad(sphere_rule(n, degree), radial_rule(order, refinement))


def default_half_quad(n, R_xy=64.0, s_min=2.0**-14, s_max=2.0**10, order=10,
                      lateral_refinement=10):
    return halfspace_rule(n, R_xy=R_xy, s_min=s_min, s_max=s_max, order=order,
                          lateral_refinement=lateral_refinement)


# ---------------------------------------------------------------------------
# The reproducing sum

#: element budget of the kernel values block behind one ``q_beta_grid``
#: or ``q_m_values`` call of a reproducing sum or a half-space s2 engine
_PART_BUDGET = 1 << 18


class ReproducingSum:
    """The reproducing integral ``f(x) = int Q(x, y) f(y) w(y) dy`` of
    ``f`` as the quadrature sum ``sum_i Q(x, y_i) w_i f(y_i)``.

    Ball: ``rule`` is a :class:`BallQuad`, the nodes are the products
    ``rho_i d_j`` of its radial and sphere nodes, and the weights are
    those of ``(1 - rho^2)^beta rho^{n-1} drho dsigma'``.  Half-space:
    ``rule`` is a :class:`~bergman_lab.quadrature.HalfSpaceRule`, its
    nodes the products of heights and lateral nodes, with the weights
    of ``s^m dy ds``.  ``f`` is evaluated once: ``values`` holds it on
    the (radius or height, direction or lateral node) matrix and
    ``dist`` each row's boundary distance (``1 - rho`` or ``s``) as a
    column.
    """

    def __init__(self, f, kernel, rule, tol=1e-12):
        self.kernel, self.tol = kernel, tol
        if kernel.domain == "ball":
            rho = rule.rrule.nodes
            self.values = rule.srule.values(f, rho)
            self.dist = (1.0 - rho)[:, None]
            self._nodes = rho, rule.srule.nodes
            w = (rule.srule.product_weights(rule.rrule)
                 * ((1.0 - rho * rho) ** kernel.beta)[:, None])
        else:
            self.values = rule.values(f)
            self.dist = rule.s_nodes[:, None]
            self._nodes = rule.points()
            w = rule.product_weights() * self.dist**kernel.m
        self._w = w * self.values

    def part(self, keep=None):
        """The sum over the nodes where ``keep`` holds (all of them when
        ``keep`` is None), as a function of ball points ``X`` or of
        half-space points ``(Y, s)``."""
        if self.kernel.domain == "ball":
            W = self._w if keep is None else np.where(keep, self._w, 0.0)
            return _ball_sum(self.kernel, *self._nodes, W, self.tol)
        (Y, s), w = self._nodes, self._w.ravel()
        if keep is not None:
            Y, s, w = (v[keep.ravel()] for v in (Y, s, w))
        return _half_sum(self.kernel, Y, s, w)


def _ball_sum(kernel, rho, dirs, W, tol):
    """``X -> sum_{i,j} Q_beta(x, rho_i d_j) W[i, j]``.

    A point at radius ``r`` meets the rows ``r * rho_i`` and the cosines
    ``<x', d_j>``, so points of one shell (radii a few ulps apart) share
    one ``q_beta_grid`` call at the shell's middle radius; rows whose
    weights are all zero are dropped.  The sums are ``np.einsum``
    contractions, whose bits do not depend on the BLAS thread count.
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
        rs = np.sort(r)
        cut = np.flatnonzero(np.diff(rs, prepend=-1.0) > 4.0 * np.spacing(rs))
        for a, b in zip(cut, [*cut[1:], rs.size]):
            pts = np.flatnonzero((r >= rs[a]) & (r <= rs[b - 1]))
            rg = rs[(a + b - 1) // 2]
            for k0 in range(0, pts.size, per):
                idx = pts[k0:k0 + per]
                t = np.einsum("pk,jk->pj", xd[idx], dirs)
                vals, _ = q_beta_grid(kernel, rg * rho, t.ravel(), tol)
                out[idx] = np.einsum("ipj,ij->p",
                                     vals.reshape(rho.size, idx.size, -1), W)
        return out

    return fn


def _half_sum(kernel, Yq, sq, w):
    """``(Y, s) -> sum_i Q_m((y, s), (Yq_i, sq_i)) w_i``, in chunks of
    points so that the values block stays within ``_PART_BUDGET``."""
    per = max(1, _PART_BUDGET // max(sq.size, 1))

    def fn(Y, s):
        Y = np.asarray(Y, dtype=float)
        s = np.asarray(s, dtype=float)
        out = np.empty(s.size)
        for k0 in range(0, s.size, per):
            diff = Y[k0:k0 + per, None, :] - Yq[None, :, :]
            u = np.einsum("ijk,ijk->ij", diff, diff)
            tau = s[k0:k0 + per, None] + sq[None, :]
            vals = q_m_values(u, tau, kernel.n, kernel.m)
            vals *= w
            # pairwise row sums: thread-independent bits, and closer to
            # the exact sum than a sequential dot over ~1e4 signed terms
            out[k0:k0 + per] = vals.sum(axis=1)
        return out

    return fn


# ---------------------------------------------------------------------------
# Norms


def _ball_partials(f, p, weight, quad):
    """Partial integrals of ``|f|^p`` against the radial ``weight`` (its
    values on the radial nodes) on dyadic radial truncations, plus the
    full integral."""
    n = quad.srule.n
    rr = quad.rrule
    r = rr.nodes
    means = radial_profile(f, p, r, quad.srule) ** p
    contrib = rr.weights * (n * r ** (n - 1) * weight * means)
    levels = np.arange(1, rr.boundary_refinement + 1)
    sums = rr.level_sums(contrib, [*levels, math.inf])
    return levels * math.log(2.0), sums[:-1], float(sums[-1])


def _ball_norm(f, p, weight, quad, message):
    """``(int |f|^p weight)^{1/p}``; raises :class:`DivergenceDetected`
    with ``message`` when the truncation profile classifies the integral
    as divergent."""
    cuts, partial, full = _ball_partials(f, p, weight, quad)
    prof = classify_truncations(cuts, partial)
    if prof.is_divergent():
        raise DivergenceDetected(message, prof)
    return full ** (1.0 / p)


def ball_norm_profile(f, p, alpha, quad=None, n=None):
    """Divergence profile of the ball norm integral on dyadic truncations."""
    if quad is None:
        quad = default_ball_quad(n if n is not None else f.n)
    if alpha <= -1.0:
        raise DomainError("weight exponent alpha must exceed -1")
    r = quad.rrule.nodes
    cuts, partial, _ = _ball_partials(f, p, (1.0 - r * r) ** alpha, quad)
    return classify_truncations(cuts, partial)


def bergman_norm(f, p, alpha, quad=None):
    """Weighted norm; raises :class:`DivergenceDetected` when the
    radial truncation profile classifies the integral as divergent.

    Ball: returns a float.  Half-space: returns
    :class:`~bergman_lab.quadrature.HalfSpaceValue` with a tail bound.
    """
    if p <= 0:
        raise DomainError("p must be positive")
    if alpha <= -1.0:
        raise DomainError("weight exponent alpha must exceed -1")
    if f.domain == "ball":
        if quad is None:
            quad = default_ball_quad(f.n)
        r = quad.rrule.nodes
        return _ball_norm(f, p, (1.0 - r * r) ** alpha, quad,
                          f"norm integral of {f.label} diverges "
                          f"(p={p}, alpha={alpha})")
    return _halfspace_norm(f, p, alpha, quad)


def _halfspace_decay(f, p, alpha, n):
    if f.decay_power is None:
        raise DomainError(
            "half-space norm needs the function's decay_power declared")
    power_inf = p * f.decay_power - max(alpha, 0.0)
    return TailDecay(power_inf, p * f.bottom_power + alpha)


def _halfspace_norm(f, p, alpha, quad):
    n = f.n
    if quad is None:
        quad = default_half_quad(n)
    prof = halfspace_norm_profile(f, p, alpha, n=n)
    if prof.is_divergent():
        raise DivergenceDetected(
            f"norm integral of {f.label} diverges (p={p}, alpha={alpha})",
            prof)
    decay = _halfspace_decay(f, p, alpha, n)
    res = integrate_halfspace(
        lambda Y, s: np.abs(f(Y, s)) ** p * s**alpha, quad, decay)
    return HalfSpaceValue(res.value ** (1.0 / p),
                          res.tail_bound ** (1.0 / p))


def halfspace_norm_profile(f, p, alpha, n=None, j_levels=(2, 3, 4, 5, 6, 7, 8)):
    """Profile of the half-space norm on expanding windows.

    Window ``j`` is ``quadrature.dyadic_window(j)``; expanding it probes
    divergence at the boundary and at infinity together.
    """
    if n is None:
        n = f.n

    def g(Y, S):
        return np.abs(f(Y, S)) ** p * S**alpha

    vals = [window_rule(n, j, 8, max(4, j)).integrate(g) for j in j_levels]
    cuts = np.array(j_levels, dtype=float) * math.log(2.0)
    return classify_truncations(cuts, np.array(vals))


def weighted_norm(f, p, v, quad=None):
    """Ball norm with a general radial weight ``v(1 - |x|)``.

    Uses the plain ``1 - |x|`` argument (the convention of the weighted
    space results); ``v`` must be positive on ``(0, 1)``.
    """
    if f.domain != "ball":
        raise DomainError("weighted_norm is a ball operation")
    if p <= 0:
        raise DomainError("p must be positive")
    if quad is None:
        quad = default_ball_quad(f.n)
    w = np.asarray(v(1.0 - quad.rrule.nodes), dtype=float)
    if np.any(~np.isfinite(w)) or np.any(w < 0):
        raise DomainError("weight v must be finite and nonnegative on (0,1)")
    return _ball_norm(f, p, w, quad, f"weighted norm of {f.label} diverges")


def mixed_norm(f, p, q, alpha, kind, quad=None):
    """Mixed-norm scales on the ball.

    ``kind='B'`` integrates shell means: ``( int_0^1 M_p(f, r)^q
    (1-r^2)^alpha n r^{n-1} dr )^{1/q}``; ``kind='F'`` swaps the order:
    ``( int_S ( int_0^1 |f(r y')|^q (1-r^2)^alpha n r^{n-1} dr )^{p/q}
    dsigma' )^{1/p}``.  Both collapse to the plain norm at ``p == q``
    on the same grid, up to the rounding of the reduction order.
    """
    if f.domain != "ball":
        raise DomainError("mixed_norm implements the ball scales")
    if p <= 0 or q <= 0:
        raise DomainError("p and q must be positive")
    if alpha <= -1.0:
        raise DomainError("weight exponent alpha must exceed -1")
    if quad is None:
        quad = default_ball_quad(f.n)
    n = f.n
    r = quad.rrule.nodes
    radial_w = quad.rrule.weights * (n * r ** (n - 1) * (1.0 - r * r) ** alpha)
    vals = np.abs(quad.srule.values(f, r))
    if kind == "B":
        mp_p = vals**p @ quad.srule.weights          # shell p-means ^ p
        total = float(radial_w @ mp_p ** (q / p))
        _mixed_guard(radial_w, mp_p ** (q / p), f, p, q, alpha, quad)
        return total ** (1.0 / q)
    if kind == "F":
        inner = (vals**q * radial_w[:, None]).sum(axis=0)  # per direction
        total = float(quad.srule.weights @ inner ** (p / q))
        return total ** (1.0 / p)
    raise DomainError("kind must be 'B' or 'F'")


def _mixed_guard(radial_w, shell_vals, f, p, q, alpha, quad):
    levels = np.arange(1, quad.rrule.boundary_refinement + 1)
    partial = quad.rrule.level_sums(radial_w * shell_vals, levels)
    prof = classify_truncations(levels * math.log(2.0), partial)
    if prof.is_divergent():
        raise DivergenceDetected(
            f"mixed norm of {f.label} diverges (p={p}, q={q}, alpha={alpha})",
            prof)


# ---------------------------------------------------------------------------
# Weighted sup norms


def _weight_ball(r, t, convention):
    if convention == "1-r":
        return (1.0 - r) ** t
    if convention == "1-r^2":
        return (1.0 - r * r) ** t
    raise DomainError("convention must be '1-r' or '1-r^2'")


def ainf_norm(f, t, convention="1-r", levels=12, degree=23, refine_rounds=3,
              growth_ratio=1.1):
    """Weighted sup norm with witness: ``sup |f(x)| w(x)^t``.

    Grid sup over dyadic boundary shells and a sphere rule, followed by
    local refinement around the best node.  Axisymmetric functions are
    scanned in the (axis, cosine) plane instead, with the poles on the
    grid; a generic sphere rule has no node at the axis and can badly
    undershoot a kernel peaked there.  Raises
    :class:`UnboundedNormError` when the shell maxima keep growing
    geometrically at the finest shells.  States its weight convention
    explicitly; the level-set machinery uses ``"1-r"``.
    """
    if f.domain != "ball":
        return _ainf_half(f, t, levels, refine_rounds, growth_ratio)
    r_grid = np.concatenate([[0.0, 0.25],
                             1.0 - 2.0 ** -np.arange(1, levels + 1.0)])
    if f.axis is not None:
        return _ainf_ball_axis(f, t, convention, r_grid, refine_rounds,
                               growth_ratio)
    sr = sphere_rule(f.n, degree)
    # scalar powers, as the refinement takes them: NumPy's array power
    # (SIMD) can round differently
    w = np.array([_weight_ball(r, t, convention) for r in r_grid])
    value, i, j = _grid_sup(np.abs(sr.values(f, r_grid)) * w[:, None],
                            growth_ratio)
    r_best, d_best = float(r_grid[i]), sr.nodes[j].copy()
    frame = tangent_frame(d_best)
    dr = 0.5 * (1.0 - r_best)
    ang = math.pi / (degree + 1)
    for _ in range(refine_rounds):
        cand_r = np.clip([r_best - dr, r_best, r_best + dr], 0.0, 1.0 - 1e-12)
        cand_d = [d_best]
        for v in frame:
            for sgn in (-1.0, 1.0):
                cand_d.append(math.cos(ang) * d_best + sgn * math.sin(ang) * v)
        for r in cand_r:
            for d in cand_d:
                d = d / np.linalg.norm(d)
                val = float(np.abs(f(r * d[None, :]))[0]
                            * _weight_ball(r, t, convention))
                if val > value:
                    value, r_best, d_best = val, float(r), d
        frame = tangent_frame(d_best)
        dr *= 0.5
        ang *= 0.5
    return value, BallPoint(r_best, d_best)


def _ainf_ball_axis(f, t, convention, r_grid, refine_rounds, growth_ratio):
    axis = f.axis
    perp = tangent_frame(axis)[0]
    u = np.concatenate([np.linspace(-1.0, 0.95, 24),
                        1.0 - np.geomspace(1e-8, 0.05, 16)[::-1], [1.0]])

    sin = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    dirs = u[:, None] * axis[None, :] + sin[:, None] * perp[None, :]
    vals = (np.abs(f(ball_points(r_grid, dirs))).reshape(r_grid.size, -1)
            * _weight_ball(r_grid, t, convention)[:, None])
    value, i, j = _grid_sup(vals, growth_ratio)
    r_best, u_best = float(r_grid[i]), float(u[j])
    dr = 0.5 * (1.0 - r_best)
    du = 0.05
    for _ in range(refine_rounds * 3):
        for rc in (r_best - dr, r_best, r_best + dr):
            rc = min(max(rc, 0.0), 1.0 - 1e-12)
            for uc in (u_best - du, u_best, u_best + du):
                uc = min(max(uc, -1.0), 1.0)
                sin = math.sqrt(max(0.0, 1.0 - uc * uc))
                x = rc * (uc * axis + sin * perp)
                w = float(_weight_ball(np.asarray(rc, dtype=float), t,
                                       convention))
                val = float(np.abs(f(x[None, :]))[0]) * w
                if val > value:
                    value, r_best, u_best = val, rc, uc
        dr *= 0.5
        du *= 0.5
    sin = math.sqrt(max(0.0, 1.0 - u_best * u_best))
    direction = u_best * axis + sin * perp
    direction = direction / np.linalg.norm(direction)
    return value, BallPoint(r_best, direction)


def _grid_sup(vals, growth_ratio):
    """The largest entry of the weighted (shell, node) matrix ``vals``
    and its first position; refuses when the shell maxima keep growing
    geometrically at the four finest shells."""
    tail_max = vals.max(axis=1)[-4:]
    grow = tail_max[1:] / np.maximum(tail_max[:-1], 1e-300)
    if np.all(grow >= growth_ratio):
        raise UnboundedNormError(
            "weighted sup keeps growing at the finest boundary shells "
            f"(ratios {np.round(grow, 3)})")
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    return float(vals[i, j]), i, j


def _ainf_half(f, t, levels, refine_rounds, growth_ratio):
    n = f.n
    y = np.concatenate([-np.geomspace(8.0, 2.0**-6, 24), [0.0],
                        np.geomspace(2.0**-6, 8.0, 24)])
    Y = lateral_grid(y, n)
    s_grid = 2.0 ** -np.arange(-3.0, levels + 1.0)
    # one height per call: the lateral grid alone is large at n >= 3
    vals = np.array([np.abs(f(Y, np.full(Y.shape[0], s))) * s**t
                     for s in s_grid])
    value, i, j = _grid_sup(vals, growth_ratio)
    y_best, s_best = Y[j].copy(), float(s_grid[i])
    step_y, step_s = 0.25, 0.5
    for _ in range(refine_rounds):
        for ds in (1.0 - step_s, 1.0, 1.0 + step_s):
            for axis in range(n):
                for dy in (-step_y, 0.0, step_y):
                    yc = y_best.copy()
                    yc[axis] += dy
                    s = s_best * ds
                    val = float(np.abs(f(yc[None, :], np.array([s])))[0] * s**t)
                    if val > value:
                        value, y_best, s_best = val, yc, s
        step_y *= 0.5
        step_s *= 0.5
    return value, HalfPoint(y_best, s_best)


# ---------------------------------------------------------------------------
# S-class weights


@dataclass(frozen=True)
class SWeight:
    """Radial weight with measured dilation bounds.

    ``m_v <= v(lam u) / v(u) <= M_v`` on the sampled grid for dilations
    ``lam`` in ``(q_v, 1)``; ``alpha_v = log(m_v) / log(q_v)`` is the
    growth index entering the admissibility threshold
    ``s(v, p) = (alpha_v + 1) / p``.
    """

    label: str
    v: Callable = field(repr=False)
    q_v: float
    m_v: float
    M_v: float
    alpha_v: float


def s_weight(v, q_v, label="weight", u_levels=20, lam_count=17):
    """Measure dilation bounds of ``v`` on a dyadic grid and wrap it."""
    if not (0.0 < q_v < 1.0):
        raise DomainError("q_v must lie in (0, 1)")
    u = 2.0 ** -np.arange(0.0, u_levels + 1.0)
    lam = np.linspace(q_v, 1.0, lam_count + 2)[1:-1]
    vu = np.asarray(v(u), dtype=float)
    if np.any(~np.isfinite(vu)) or np.any(vu <= 0):
        raise DomainError("v must be positive and finite on the sample grid")
    ratios = np.asarray(v(np.outer(lam, u)), dtype=float) / vu[None, :]
    m_v = float(ratios.min())
    M_v = float(ratios.max())
    if not (0.0 < m_v <= M_v < math.inf):
        raise DomainError("dilation ratios of v must be finite and positive")
    alpha_v = math.log(m_v) / math.log(q_v)
    return SWeight(label, v, float(q_v), m_v, M_v, alpha_v)


def s_threshold(weight, p):
    """Admissibility threshold ``s(v, p) = (alpha_v + 1) / p``."""
    if p <= 0:
        raise DomainError("p must be positive")
    return (weight.alpha_v + 1.0) / p


# ---------------------------------------------------------------------------
# Pointwise embedding


def embedding_check(f, p, alpha, quad=None, levels=10, degree=23):
    """Max of ``|f(x)| (1-|x|)^{(alpha+n)/p} / ||f||`` with its witness.

    A divergent norm propagates as :class:`DivergenceDetected`: the
    embedding statement does not apply to non-members.
    """
    norm = bergman_norm(f, p, alpha, quad)
    t = (alpha + f.n) / p

    def ratio(X):
        r = np.linalg.norm(X, axis=1)
        return np.abs(f(X)) * (1.0 - r) ** t / norm

    g = HarmonicFn(f.label + "_ratio", "ball", f.n, ratio)
    value, witness = ainf_norm(g, 0.0, convention="1-r",
                               levels=levels, degree=degree)
    return value, witness


# ---------------------------------------------------------------------------
# Harmonicity diagnostics


def harmonicity_defect(f, points, h=1e-3):
    """Max relative discrete-Laplacian defect of ``f`` at interior points.

    Uses the ``2d+1``-point stencil in the ambient dimension ``d``
    (``n`` for the ball, ``n+1`` for the half-space); the defect is
    normalized by the local magnitude scale ``max(|f|, 1) / h^0``.
    """
    worst = 0.0
    for pt in points:
        if f.domain == "ball":
            x = pt.x if isinstance(pt, BallPoint) else np.asarray(pt, float)
            d = x.size
            stencil = [x]
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                stencil += [x + e, x - e]
            vals = f(np.array(stencil))
            lap = (vals[1:].sum() - 2 * d * vals[0]) / h**2
            scale = max(float(np.abs(vals).max()), 1.0)
        else:
            y, s = (pt.y, pt.s) if isinstance(pt, HalfPoint) else pt
            d = y.size
            Y = [y]
            S = [s]
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                Y += [y + e, y - e]
                S += [s, s]
            Y += [y, y]
            S += [s + h, s - h]
            vals = f(np.array(Y), np.array(S))
            lap = (vals[1:].sum() - 2 * (d + 1) * vals[0]) / h**2
            scale = max(float(np.abs(vals).max()), 1.0)
        worst = max(worst, abs(lap) / scale)
    return worst
