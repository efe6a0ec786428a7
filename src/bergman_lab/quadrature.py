"""Deterministic quadrature rules for the ball and the half-space.

Conventions
-----------
Surface measure on the unit sphere is normalized: ``integrate_sphere``
of the constant 1 is exactly 1.  Volume measure on the unit ball is
normalized as well, via

    integral_B g dV = n * int_0^1 r^{n-1} (sphere mean of g at radius r) dr,

so the ball has measure 1.  Half-space integrals use plain Lebesgue
measure ``dy ds`` on a truncated box ``|y_i| <= R_xy``,
``s_min <= s <= s_max`` and report a tail bound for the omitted mass
computed from a caller-declared power decay.

All rules are plain frozen dataclasses of nodes and weights; nothing is
stateful, and identical parameters always reproduce identical nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import DomainError, EvaluationError

__all__ = [
    "SphereRule",
    "ZonalRule",
    "RadialRule",
    "HalfSpaceRule",
    "TailDecay",
    "HalfSpaceValue",
    "sphere_rule",
    "zonal_rule",
    "radial_rule",
    "halfspace_rule",
    "composite_gauss",
    "geometric_edges",
    "sphere_area",
    "ball_grid",
    "lateral_grid",
    "integrate_sphere",
    "integrate_ball",
    "ball_shell_means",
    "integrate_halfspace",
    "integrate_lateral",
    "radial_profile",
]


# ---------------------------------------------------------------------------
# 1-D composite Gauss building blocks


def composite_gauss(edges, order):
    """Composite Gauss-Legendre nodes and weights on a panel mesh.

    Parameters
    ----------
    edges : array_like
        Strictly increasing panel boundaries ``e_0 < e_1 < ... < e_P``.
    order : int
        Gauss-Legendre points per panel; the composite rule is exact on
        piecewise polynomials of degree ``2*order - 1`` on this mesh.

    Returns
    -------
    nodes, weights : ndarray
        Flat arrays, nodes strictly increasing, all interior to panels.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("panel edges must be strictly increasing")
    if order < 1:
        raise DomainError("panel order must be >= 1")
    x, w = roots_legendre(int(order))
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def geometric_edges(a, b, refinement, toward="b"):
    """Panel edges on ``[a, b]`` halving geometrically toward one end.

    With ``toward='b'`` the edges are ``a, m, m + (b-m)/2, ...`` where
    ``m`` is the midpoint, ending with a panel of width
    ``(b - a) * 2**-refinement`` touching ``b``.
    """
    if not b > a:
        raise DomainError("need a < b")
    if refinement < 1:
        raise DomainError("refinement must be >= 1")
    width = b - a
    fracs = [0.0] + [1.0 - 2.0 ** (-j) for j in range(1, refinement + 1)] + [1.0]
    edges = np.array(fracs) * width
    if toward == "b":
        return a + edges
    if toward == "a":
        return b - edges[::-1]
    raise DomainError("toward must be 'a' or 'b'")


# ---------------------------------------------------------------------------
# Sphere rules


@dataclass(frozen=True)
class SphereRule:
    """Nodes and weights for the normalized sphere average in ``R^n``.

    ``nodes`` has shape ``(M, n)`` with unit rows; ``weights`` sums to 1.
    ``degree`` is the largest polynomial degree integrated exactly.
    """

    n: int
    degree: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != (self.nodes.shape[0],):
            raise DomainError("weights shape mismatch")


def sphere_rule(n, degree):
    """Product rule on ``S^{n-1}`` exact for polynomials up to ``degree``.

    ``n = 2`` uses the equispaced trapezoid rule on the circle;
    ``n = 3`` is Gauss-Legendre in ``cos(theta)`` times equispaced
    longitudes; larger ``n`` recurses through Gauss-Jacobi rules in the
    polar cosine.
    """
    if n < 2:
        raise DomainError("sphere rules need n >= 2")
    if degree < 0:
        raise DomainError("degree must be >= 0")
    if n == 2:
        m = degree + 1
        phi = 2.0 * np.pi * np.arange(m) / m
        nodes = np.column_stack([np.cos(phi), np.sin(phi)])
        weights = np.full(m, 1.0 / m)
        return SphereRule(2, degree, nodes, weights)
    a = 0.5 * (n - 3)
    m_u = (degree + 2) // 2
    m_u = max(m_u, 1)
    if a == 0.0:
        u, wu = roots_legendre(m_u)
    else:
        u, wu = roots_jacobi(m_u, a, a)
    wu = wu / wu.sum()
    sub = sphere_rule(n - 1, degree)
    sin_u = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    # node (u_j, sin_u_j * xi_i) for every sub-rule node xi_i
    nodes = np.empty((m_u * sub.nodes.shape[0], n))
    nodes[:, 0] = np.repeat(u, sub.nodes.shape[0])
    nodes[:, 1:] = np.repeat(sin_u, sub.nodes.shape[0])[:, None] * np.tile(
        sub.nodes, (m_u, 1)
    )
    weights = (wu[:, None] * sub.weights[None, :]).ravel()
    return SphereRule(n, degree, nodes, weights)


@dataclass(frozen=True)
class ZonalRule:
    """1-D reduction of the sphere average for zonal integrands.

    For ``g`` depending only on the cosine ``u`` of the angle to a fixed
    axis, ``sum(weights * g(u_nodes))`` equals the sphere average.  The
    nodes refine geometrically toward ``u = 1`` so kernels that peak at
    the axis stay resolved.
    """

    n: int
    u_nodes: np.ndarray
    weights: np.ndarray


def zonal_rule(n, order=12, refinement=24):
    """Build a :class:`ZonalRule` on ``u = cos(theta)`` in ``[-1, 1]``.

    Works in the angle variable, where the surface measure density
    ``sin(theta)^{n-2}`` is smooth, with panels shrinking geometrically
    toward ``theta = 0``.
    """
    if n < 2:
        raise DomainError("zonal rules need n >= 2")
    lower = geometric_edges(0.0, 0.5 * np.pi, refinement, toward="a")
    upper = np.array([0.75 * np.pi, np.pi])
    edges = np.concatenate([lower, upper])
    theta, w_theta = composite_gauss(edges, order)
    u = np.cos(theta)
    w = w_theta * np.sin(theta) ** (n - 2)
    w = w / w.sum()
    return ZonalRule(n, u, w)


def sphere_area(n):
    """Surface area of the unit sphere ``S^{n-1}`` (2 points when n = 1)."""
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n) if n >= 2 else 2.0


def integrate_sphere(g, rule):
    """Normalized sphere average ``sum_i w_i g(node_i)``.

    ``g`` maps an ``(M, n)`` array of unit vectors to an ``(M,)`` array.
    Raises :class:`EvaluationError` if any value is non-finite.
    """
    vals = np.asarray(g(rule.nodes), dtype=float)
    if vals.shape != rule.weights.shape:
        raise EvaluationError(
            f"integrand returned shape {vals.shape}, expected {rule.weights.shape}"
        )
    _check_finite(vals, rule.nodes)
    return float(np.dot(rule.weights, vals))


def _check_finite(vals, nodes):
    if np.all(np.isfinite(vals)):
        return
    bad = int(np.flatnonzero(~np.isfinite(vals))[0])
    raise EvaluationError(
        f"integrand non-finite at node index {bad}: {np.asarray(nodes)[bad]!r}"
    )


# ---------------------------------------------------------------------------
# Radial rules and ball integration


@dataclass(frozen=True)
class RadialRule:
    """Composite Gauss rule on ``[0, 1]`` with dyadic boundary panels.

    Panel edges sit exactly at ``1 - 2^-j``; ``boundary_refinement`` is
    the number of geometric halvings, so the panel touching 1 has width
    ``2^-boundary_refinement``.  Nodes are strictly increasing and never
    touch the endpoints, so integrable endpoint singularities are safe.
    """

    order: int
    boundary_refinement: int
    edges: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    def truncation_index(self, r_cut):
        """Number of leading nodes with panel edge ``<= r_cut``."""
        k = int(np.searchsorted(self.edges, r_cut + 1e-15) - 1)
        return max(0, k) * self.order

    def level_sums(self, contrib, levels):
        """Running sums of the per-node ``contrib`` up to ``r = 1 - 2^-j``
        for each level ``j``; ``j = inf`` sums every node."""
        cs = np.cumsum(contrib)
        return np.array([cs[self.truncation_index(1.0 - 2.0 ** -j) - 1]
                         for j in levels])


def radial_rule(order=12, boundary_refinement=10):
    edges = geometric_edges(0.0, 1.0, boundary_refinement, toward="b")
    nodes, weights = composite_gauss(edges, order)
    return RadialRule(int(order), int(boundary_refinement), edges, nodes, weights)


def ball_grid(srule, rrule):
    """The radius x direction product as flat ``(rho, dirs, w)``,
    radius-major, with weights of ``rho^{n-1} drho dsigma'``."""
    nd = srule.nodes.shape[0]
    rho = np.repeat(rrule.nodes, nd)
    dirs = np.tile(srule.nodes, (rrule.nodes.size, 1))
    w = np.repeat(rrule.weights * rrule.nodes ** (srule.n - 1), nd) * np.tile(
        srule.weights, rrule.nodes.size)
    return rho, dirs, w


def ball_shell_means(g, srule, rrule):
    """Sphere means of ``g`` on every radial shell of ``rrule``.

    Returns ``(r_nodes, shell_means)`` where ``shell_means[j]`` is the
    normalized sphere average of ``g`` at radius ``r_nodes[j]``.  The
    integrand is called once with all ``len(r) * len(dirs)`` points.
    """
    r = rrule.nodes
    dirs = srule.nodes
    pts = (r[:, None, None] * dirs[None, :, :]).reshape(-1, srule.n)
    vals = np.asarray(g(pts), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise EvaluationError(
            f"integrand returned shape {vals.shape}, expected {(pts.shape[0],)}"
        )
    _check_finite(vals, pts)
    vals = vals.reshape(r.size, dirs.shape[0])
    return r, vals @ srule.weights


def integrate_ball(g, srule, rrule):
    """Normalized-volume integral of ``g`` over the unit ball."""
    r, means = ball_shell_means(g, srule, rrule)
    n = srule.n
    return float(n * np.dot(rrule.weights, r ** (n - 1) * means))


def radial_profile(f, p, r_grid, srule):
    """Shell means ``M_p(f, r)`` on a caller-supplied radius grid.

    ``M_p(f, r)`` is the ``p``-mean of ``|f|`` over the sphere of radius
    ``r`` under normalized surface measure; ``p = inf`` gives the shell
    sup over the rule nodes.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(r_grid < 0) or np.any(r_grid >= 1):
        raise DomainError("radial profile needs 0 <= r < 1")
    dirs = srule.nodes
    pts = (r_grid[:, None, None] * dirs[None, :, :]).reshape(-1, srule.n)
    vals = np.abs(np.asarray(f(pts), dtype=float)).reshape(r_grid.size, -1)
    _check_finite(vals.ravel(), pts)
    if np.isinf(p):
        return vals.max(axis=1)
    if p <= 0:
        raise DomainError("p must be positive or inf")
    return (vals**p @ srule.weights) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Half-space rules


@dataclass(frozen=True)
class TailDecay:
    """Declared decay of a half-space integrand.

    ``power_infinity = d`` asserts ``|g(w)| <= A |w|^{-d}`` beyond the
    truncation box (``A`` estimated from boundary samples), and
    ``power_zero = delta`` asserts ``|g(y, s)| <= B s^delta`` below the
    bottom face.  ``d`` must exceed ``n + 1`` for the outer tail to be
    integrable and ``delta`` must exceed ``-1`` for the bottom one.
    """

    power_infinity: float
    power_zero: float = 0.0


@dataclass(frozen=True)
class HalfSpaceValue:
    value: float
    tail_bound: float


@dataclass(frozen=True)
class HalfSpaceRule:
    """Tensor rule on the box ``|y_i| <= R_xy``, ``s_min <= s <= s_max``.

    Lateral axes use composite Gauss panels refined toward 0 (where the
    kernels of interest peak); heights use geometric panels from
    ``s_min`` so boundary blow-up like ``s^delta`` stays resolved.
    """

    n: int
    R_xy: float
    s_min: float
    s_max: float
    y_nodes: np.ndarray  # per-axis 1-D nodes
    y_weights: np.ndarray
    s_nodes: np.ndarray
    s_weights: np.ndarray

    def lateral_mesh(self):
        """Full lateral product mesh ``(M, n)`` and its weights."""
        mesh = lateral_grid(self.y_nodes, self.n)
        w = self.y_weights
        for _ in range(self.n - 1):
            w = np.multiply.outer(w, self.y_weights)
        return mesh, w.ravel()

    def flat(self):
        """The rule as flat ``(Y, s, w)``, height-major: node ``k`` is
        lateral node ``k % M`` at height ``k // M``."""
        mesh, w_lat = self.lateral_mesh()
        m_s = self.s_nodes.size
        Y = np.tile(mesh, (m_s, 1))
        s = np.repeat(self.s_nodes, mesh.shape[0])
        w = np.repeat(self.s_weights, mesh.shape[0]) * np.tile(w_lat, m_s)
        return Y, s, w


def lateral_grid(y, n):
    """Product grid ``y^n`` as an ``(len(y)^n, n)`` array, axis 0 slowest."""
    return np.stack(np.meshgrid(*([y] * n), indexing="ij"), axis=-1).reshape(-1, n)


def halfspace_rule(n, R_xy=16.0, s_min=2.0**-12, s_max=16.0, order=12,
                   lateral_refinement=8, height_panels=None):
    """Build a :class:`HalfSpaceRule`.

    ``lateral_refinement`` controls geometric panel growth from the
    center toward ``+-R_xy``; ``height_panels`` defaults to one panel
    per octave between ``s_min`` and ``s_max``.
    """
    if n < 1:
        raise DomainError("half-space rules need n >= 1")
    if not (0.0 < s_min < s_max):
        raise DomainError("need 0 < s_min < s_max")
    if R_xy <= 0:
        raise DomainError("need R_xy > 0")
    half = geometric_edges(0.0, R_xy, lateral_refinement, toward="a")
    y_edges = np.concatenate([-half[::-1], half[1:]])
    y_nodes, y_weights = composite_gauss(y_edges, order)
    if height_panels is None:
        height_panels = max(4, int(math.ceil(math.log2(s_max / s_min))))
    s_edges = np.geomspace(s_min, s_max, height_panels + 1)
    s_nodes, s_weights = composite_gauss(s_edges, order)
    return HalfSpaceRule(
        int(n), float(R_xy), float(s_min), float(s_max),
        y_nodes, y_weights, s_nodes, s_weights,
    )


def _tail_outer(rule, samples_max, decay):
    """Mass bound beyond the lateral faces and above the top face."""
    n, R = rule.n, rule.R_xy
    d = decay.power_infinity
    a_top, a_lat = samples_max
    top = a_top * (2.0 * R) ** n * rule.s_max / (d - 1.0)
    lat = a_lat * (rule.s_max - rule.s_min) * sphere_area(n) * R**n / (d - n)
    # factor 2 absorbs the corner region not covered by either face bound
    return 2.0 * (top + lat)


def integrate_halfspace(g, rule, decay):
    """Truncated integral of ``g(y, s)`` plus a declared-decay tail bound.

    ``g`` maps ``(Y, s)`` with ``Y`` of shape ``(M, n)`` and ``s`` of
    shape ``(M,)`` to values of shape ``(M,)``.  Returns
    :class:`HalfSpaceValue`.  Refuses decay declarations whose tails are
    not integrable.
    """
    if decay.power_infinity <= rule.n + 1:
        raise DomainError(
            "declared decay exponent must exceed n + 1 for an integrable tail"
        )
    if decay.power_zero <= -1.0:
        raise DomainError("declared bottom exponent must exceed -1")
    _, w_lat = rule.lateral_mesh()
    Y, S, _ = rule.flat()
    vals = np.asarray(g(Y, S), dtype=float)
    if vals.shape != (Y.shape[0],):
        raise EvaluationError(
            f"integrand returned shape {vals.shape}, expected {(Y.shape[0],)}"
        )
    _check_finite(vals, np.column_stack([Y, S]))
    vals = vals.reshape(rule.s_nodes.size, w_lat.size)
    value = float(rule.s_weights @ (vals @ w_lat))

    # boundary samples for the tail estimate
    a_top = _face_max(g, rule, "top")
    a_lat = _face_max(g, rule, "lateral")
    a_bot = _face_max(g, rule, "bottom")
    outer = _tail_outer(rule, (a_top, a_lat), decay)
    bottom = (
        2.0 * a_bot * (2.0 * rule.R_xy) ** rule.n
        * rule.s_min / (decay.power_zero + 1.0)
    )
    return HalfSpaceValue(value, outer + bottom)


def _face_lines(rule):
    """Lateral face samples: one coordinate at ``+-R_xy``, the others
    running through ``y_nodes`` together."""
    lines = []
    for sign in (-1.0, 1.0):
        for axis in range(rule.n):
            Y = np.repeat(rule.y_nodes[:, None], rule.n, axis=1)
            Y[:, axis] = sign * rule.R_xy
            lines.append(Y)
    return lines


def _face_max(g, rule, face):
    n = rule.n
    if face in ("top", "bottom"):
        mesh, _ = rule.lateral_mesh()
        s_val = rule.s_max if face == "top" else rule.s_min
        s = np.full(mesh.shape[0], s_val)
        return float(np.abs(np.asarray(g(mesh, s), dtype=float)).max())
    if n == 1:
        pts = [(np.full((rule.s_nodes.size, 1), sign * rule.R_xy),
                rule.s_nodes.copy()) for sign in (-1.0, 1.0)]
    else:
        pts = [(Y, np.full(Y.shape[0], float(s_val)))
               for Y in _face_lines(rule)
               for s_val in (rule.s_min, np.median(rule.s_nodes), rule.s_max)]
    best = 0.0
    for Y, s in pts:
        best = max(best, float(np.abs(np.asarray(g(Y, s), dtype=float)).max()))
    return best


def integrate_lateral(g, rule, s, decay_power):
    """Integral over the lateral box at fixed height ``s``.

    ``g`` maps an ``(M, n)`` array to ``(M,)``.  ``decay_power`` declares
    ``|g(y)| <= A |y|^{-decay_power}`` beyond the box; it must exceed
    ``n`` for the tail to be integrable.
    """
    if decay_power <= rule.n:
        raise DomainError("lateral decay exponent must exceed n")
    mesh, w_lat = rule.lateral_mesh()
    vals = np.asarray(g(mesh), dtype=float)
    _check_finite(vals, mesh)
    value = float(vals @ w_lat)
    edge = 0.0
    for Y in _face_lines(rule):
        edge = max(edge, float(np.abs(np.asarray(g(Y), dtype=float)).max()))
    n, R, d = rule.n, rule.R_xy, decay_power
    tail = edge * sphere_area(n) * R**n / (d - n)
    return HalfSpaceValue(value, 2.0 * tail)
