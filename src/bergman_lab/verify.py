"""Executable verification suites for the kernel estimates and the
integral representations.

Each suite evaluates one inequality or identity on deterministic grids
or low-discrepancy samples and returns a :class:`LemmaReport`.  The
empirical constants are reported, never compared against book values;
the pass criterion is finiteness plus refinement stability (one grid
refinement moves the reported ratio by at most ``DRIFT_THRESHOLD``),
with exact identities additionally held to stated tolerances.
Parameter-range violations refuse with the failed hypothesis named,
since the estimates are false outside their stated ranges.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceDetected, DomainError
from .kernels import (
    ball_kernel,
    halfspace_kernel,
    q_beta_bound_qt,
    q_beta_grid,
    q_beta_values,
    q_m_bound_values,
    q_m_values,
)
from .quadrature import (
    composite_gauss,
    geometric_edges,
    halfspace_rule,
    radial_rule,
    sphere_area,
    zonal_rule,
)
from .spaces import (
    ReproducingSum,
    bergman_norm,
    default_ball_quad,
    gallery_fn,
    halfspace_norm_profile,
    s_threshold,
    s_weight,
    weighted_norm,
)

__all__ = [
    "LemmaReport",
    "DRIFT_THRESHOLD",
    "REPRESENTATION_THRESHOLD",
    "verify_rro",
    "verify_qbeta",
    "verify_qm",
    "verify_kernel_bounds",
    "verify_representation",
    "default_suite",
    "run_suite",
    "thread_count",
]

#: relative change of max_ratio allowed under one grid refinement
DRIFT_THRESHOLD = 0.10

#: largest reproduction error a representation check passes, per domain
REPRESENTATION_THRESHOLD = {"ball": 1e-4, "halfspace": 1e-3}


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one verification suite.

    ``max_ratio`` is the empirical constant (sup of left side over the
    claimed right side); ``grid_refinement_drift`` its relative change
    under one refinement.  ``passed`` requires a finite ratio and drift
    at most the declared threshold; identity-style suites additionally
    fold their tolerance checks into ``passed`` and explain in notes.
    """

    lemma_id: str
    parameter_point: dict
    max_ratio: float
    grid_refinement_drift: float
    passed: bool
    notes: tuple = field(default=())

    def to_dict(self):
        return {
            "lemma_id": self.lemma_id,
            "parameter_point": dict(self.parameter_point),
            "max_ratio": self.max_ratio,
            "grid_refinement_drift": self.grid_refinement_drift,
            "pass": self.passed,
            "notes": list(self.notes),
        }


def _drift(coarse, fine):
    denom = max(abs(fine), 1e-300)
    return abs(fine - coarse) / denom


def _stability_notes(drift, threshold=None):
    """INCONCLUSIVE marker when refinement moved the ratio too much."""
    thr = DRIFT_THRESHOLD if threshold is None else threshold
    if drift > thr:
        return (f"INCONCLUSIVE: refinement drift {drift:.3g} exceeds "
                f"the declared threshold {thr:g}",)
    return ()


def thread_count():
    """Worker cap: BERGMAN_LAB_THREADS, else a small default."""
    raw = os.environ.get("BERGMAN_LAB_THREADS", "")
    try:
        k = int(raw)
    except ValueError:
        k = 0
    if k <= 0:
        k = min(4, os.cpu_count() or 1)
    return k


# ---------------------------------------------------------------------------
# Radial integral bound: int_0^1 (1-r)^a / (1-r rho)^lam dr


def _rro_max(alpha, lam, rho_grid, order, refinement):
    nodes, w = composite_gauss(
        geometric_edges(0.0, 1.0, refinement, toward="b"), order)
    vals = []
    for rho in rho_grid:
        integral = float(
            w @ ((1.0 - nodes) ** alpha / (1.0 - nodes * rho) ** lam))
        vals.append(integral * (1.0 - rho) ** (lam - alpha - 1.0))
    return np.array(vals)


def verify_rro(alpha, lam, rho_grid=None, order=12, refinement=16):
    """Bound ``int_0^1 (1-r)^alpha (1-r rho)^-lam dr <= C (1-rho)^{alpha+1-lam}``.

    Refuses outside ``alpha > -1``, ``lam > alpha + 1``, where the bound
    fails.  At ``(alpha, lam) = (0, 2)`` the ratio is exactly 1 for all
    ``rho`` (closed-form antiderivative), which the suite asserts.
    """
    if alpha <= -1.0:
        raise DomainError("the bound requires alpha > -1")
    if lam <= alpha + 1.0:
        raise DomainError("the bound requires lam > alpha + 1")
    if rho_grid is None:
        rho_grid = np.array([0.0, 0.25, 0.5, 0.75, 0.875, 0.9375, 0.99])
    rho_grid = np.asarray(rho_grid, dtype=float)
    if np.any(rho_grid < 0.0) or np.any(rho_grid >= 1.0):
        raise DomainError("rho_grid must lie in [0, 1)")

    coarse = _rro_max(alpha, lam, rho_grid, order, refinement)
    fine = _rro_max(alpha, lam, rho_grid, order + 4, refinement + 6)
    max_ratio = float(fine.max())
    drift = _drift(float(coarse.max()), max_ratio)
    passed = math.isfinite(max_ratio) and drift <= DRIFT_THRESHOLD
    notes = [f"ratio range [{fine.min():.6g}, {fine.max():.6g}] "
             f"over {rho_grid.size} rho points"]
    notes.extend(_stability_notes(drift))
    if alpha == 0.0 and lam == 2.0:
        exact = float(np.max(np.abs(fine - 1.0)))
        notes.append(f"analytic case (0, 2): max |ratio - 1| = {exact:.3g}")
        passed = passed and exact <= 1e-9
    return LemmaReport(
        "rro", {"alpha": alpha, "lam": lam}, max_ratio, drift, passed,
        tuple(notes))


# ---------------------------------------------------------------------------
# Ball kernel moment bound:
# int_B |Q_beta|^{gamma/(n+beta)} (1-|y|)^delta dy <= C (1-|x|)^{delta-gamma+n}


def _qbeta_moment(n, delta, gamma, beta, r_grid, order, refinement,
                  u_refinement, tol):
    spec = ball_kernel(n, beta)
    pw = gamma / (n + beta)
    rr = radial_rule(order, refinement)
    zr = zonal_rule(n, order, u_refinement)
    rho = rr.nodes
    w_rho = rr.weights * n * rho ** (n - 1) * (1.0 - rho) ** delta
    vals, _ = q_beta_grid(spec, (r_grid[:, None] * rho[None, :]).ravel(),
                          zr.u_nodes, tol=tol)
    mom = (np.abs(vals) ** pw @ zr.weights).reshape(r_grid.size, rho.size)
    return np.array([float(w_rho @ m) * (1.0 - r) ** (gamma - n - delta)
                     for r, m in zip(r_grid, mom)])


def verify_qbeta(n, delta, gamma, beta, r_grid=None, order=10,
                 refinement=14, u_refinement=18, tol=1e-11):
    """Moment bound for ``|Q_beta|^{gamma/(n+beta)}`` against
    ``(1-|x|)^{delta-gamma+n}``, on radial points approaching the boundary.

    Refuses outside ``delta > -1``, ``gamma > n + delta``, ``beta > 0``.
    """
    if delta <= -1.0:
        raise DomainError("the bound requires delta > -1")
    if gamma <= n + delta:
        raise DomainError("the bound requires gamma > n + delta")
    if beta <= 0.0:
        raise DomainError("the bound requires beta > 0")
    if r_grid is None:
        r_grid = np.array([0.0, 0.5, 0.75, 0.9, 0.99])
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(r_grid < 0.0) or np.any(r_grid > 0.99):
        raise DomainError("r_grid is capped at 0.99")

    coarse = _qbeta_moment(n, delta, gamma, beta, r_grid, order,
                           refinement, u_refinement, tol)
    fine = _qbeta_moment(n, delta, gamma, beta, r_grid, order + 2,
                         refinement + 2, u_refinement + 4, tol)
    max_ratio = float(fine.max())
    drift = _drift(float(coarse.max()), max_ratio)
    spread = float(fine.max() / fine.min())
    passed = (math.isfinite(max_ratio) and drift <= DRIFT_THRESHOLD)
    notes = (f"ratio range [{fine.min():.6g}, {fine.max():.6g}], "
             f"max/min = {spread:.3g} across r up to {r_grid.max():g}",
             ) + _stability_notes(drift)
    return LemmaReport(
        "qbeta_moment",
        {"n": n, "delta": delta, "gamma": gamma, "beta": beta},
        max_ratio, drift, passed, notes)


# ---------------------------------------------------------------------------
# Half-space kernel moment bound and its exact scaling law


def _qm_moment(n, delta, gamma, m, t, order, window):
    """``int |Q_m((0,t),(y,s))|^{gamma/(n+m+1)} s^delta dy ds`` with
    fixed dyadic windows, plus a geometric tail estimate."""
    pw = gamma / (n + m + 1)
    # the mass near joint (y, s) infinity decays with order as low as
    # gamma - n - 1 - delta, so both windows get extra top octaves; the
    # s-integrand tends to a constant multiple of s^delta at the bottom,
    # so the height mesh also runs to 0 with a closing panel
    octaves = 2.0 ** np.arange(-float(window), float(window) + 15.0)
    R_nodes, R_w = composite_gauss(np.concatenate([[0.0], octaves]), order)
    s_oct = 2.0 ** np.arange(-float(window) - 14.0, float(window) + 15.0)
    s_nodes, s_w = composite_gauss(np.concatenate([[0.0], s_oct]), order)
    dens = np.abs(
        q_m_values(R_nodes[:, None] ** 2, t + s_nodes[None, :], n, m)) ** pw
    lat = (R_w * R_nodes ** (n - 1)) @ dens * sphere_area(n)
    contrib = s_w * s_nodes ** delta * lat
    total = float(contrib.sum())

    # geometric tail estimate from the outermost octave contributions
    per_oct = np.add.reduceat(contrib, np.arange(0, contrib.size, order))
    tail = 0.0
    for a, b in ((per_oct[0], per_oct[1]), (per_oct[-1], per_oct[-2])):
        if b > 0 and a < b:
            tail += a * (a / b) / (1.0 - a / b)
    return total, tail


def verify_qm(n, delta, gamma, m, t_grid=None, order=10, window=12):
    """Moment bound ``int |Q_m(z, w)|^{gamma/(n+m+1)} s^delta dw <= C
    t^{delta-gamma+n+1}`` plus the exact dyadic scaling of the integral.

    The kernel is homogeneous of degree ``-(n+m+1)``, so substituting
    ``w -> 2w`` gives ``I(2t)/I(t) = 2^{delta-gamma+n+1}`` exactly; the
    suite computes both sides on fixed (unscaled) windows and requires
    agreement to 1e-4 relative.
    """
    if delta <= -1.0:
        raise DomainError("the bound requires delta > -1")
    if gamma <= n + 1 + delta:
        raise DomainError("the bound requires gamma > n + 1 + delta")
    if m < 0 or int(m) != m:
        raise DomainError("m must be a nonnegative integer")
    if t_grid is None:
        t_grid = np.array([0.5, 1.0, 2.0, 4.0])
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0.0):
        raise DomainError("t_grid must be positive")

    def ratios(order_, window_):
        vals, tails = [], []
        for t in t_grid:
            total, tail = _qm_moment(n, delta, gamma, m, t, order_, window_)
            vals.append(total)
            tails.append(tail)
        return np.array(vals), np.array(tails)

    coarse, _ = ratios(order, window)
    fine, tails = ratios(order + 2, window + 2)
    power = gamma - n - 1.0 - delta
    ratio_fine = fine * t_grid ** power
    max_ratio = float(ratio_fine.max())
    drift = _drift(float((coarse * t_grid ** power).max()), max_ratio)

    scale_exact = 2.0 ** (delta - gamma + n + 1.0)
    scale_errs = []
    for i, t in enumerate(t_grid):
        j = np.flatnonzero(np.isclose(t_grid, 2.0 * t))
        if j.size:
            scale_errs.append(abs(fine[j[0]] / fine[i] / scale_exact - 1.0))
    scale_err = max(scale_errs) if scale_errs else math.nan
    tail_rel = float(tails.max() / fine.min())

    passed = (math.isfinite(max_ratio) and drift <= DRIFT_THRESHOLD
              and (not scale_errs or scale_err <= 1e-4))
    notes = (
        f"ratio range [{ratio_fine.min():.6g}, {ratio_fine.max():.6g}]",
        f"dyadic scaling: max |I(2t)/I(t) / 2^{delta - gamma + n + 1:g}"
        f" - 1| = {scale_err:.3g}",
        f"window tail estimate <= {tail_rel:.3g} of I",
    ) + _stability_notes(drift)
    return LemmaReport(
        "qm_moment", {"n": n, "delta": delta, "gamma": gamma, "m": m},
        max_ratio, drift, passed, notes)


# ---------------------------------------------------------------------------
# Pointwise and sphere-averaged kernel envelopes


def _halton(d, count, seed=0):
    # scipy.stats is slow to import; only the envelope suites need it
    from scipy.stats import qmc

    return qmc.Halton(d, scramble=True, seed=seed).random(count)


def _ball_bound_sups(spec, sample_count, order, u_refinement, tol):
    n, beta = spec.n, spec.beta
    sups = {}

    # part 1: |Q_beta(x, y)| <= C |rho x - y'|^-(n+beta)
    pts = _halton(3, sample_count)
    r, rho = 0.99 * pts[:, 0], 0.99 * pts[:, 1]
    u = 2.0 * pts[:, 2] - 1.0
    vals, _ = q_beta_values(spec, r * rho, u, tol=tol)
    sups["part1"] = float(np.max(np.abs(vals)
                                 / q_beta_bound_qt(r * rho, u, n, beta)))

    # part 2: int_S |Q_beta(r x', rho y')| dx' <= C (1 - r rho)^-(1+beta)
    zr = zonal_rule(n, order, u_refinement)
    pts = _halton(2, sample_count // 8, seed=1)
    q = (0.99 * pts[:, 0]) * (0.99 * pts[:, 1])
    vals, _ = q_beta_grid(spec, q, zr.u_nodes, tol=tol)
    means = np.abs(vals) @ zr.weights
    sups["part2"] = float(np.max(means * (1.0 - q) ** (1.0 + beta)))

    # part 3: int_S |r x' - y'|^-beta dx' <= C (1-r)^-(beta-n+1), beta > n-1
    if beta > n - 1:
        r3 = np.linspace(0.5, 0.99, 25)[:, None]
        dist = np.sqrt(1.0 - 2.0 * r3 * zr.u_nodes[None, :] + r3 * r3)
        means = dist ** -beta @ zr.weights
        sups["part3"] = float(
            np.max(means.ravel() * (1.0 - r3.ravel()) ** (beta - n + 1.0)))
    return sups


def _half_bound_sups(spec, sample_count):
    n, m = spec.n, spec.m
    pts = _halton(3, sample_count, seed=2)
    # log-uniform radii and heights across twelve octaves
    R, s, t = (2.0 ** (12.0 * (pts[:, j] - 0.5)) for j in range(3))
    vals = q_m_values(R * R, s + t, n, m)
    return {"eq3": float(np.max(np.abs(vals)
                                / q_m_bound_values(R * R, s + t, n, m)))}


def verify_kernel_bounds(spec, sample_count=4096, order=10,
                         u_refinement=18, tol=1e-10):
    """Empirical sup of kernel size over its claimed envelope.

    Ball: pointwise envelope ``|rho x - y'|^-(n+beta)`` (needs
    ``beta > 0``), sphere average against ``(1 - r rho)^-(1+beta)``, and
    the surface integral ``int |r x' - y'|^-beta dx'`` against
    ``(1-r)^-(beta-n+1)`` when ``beta > n - 1`` (skipped otherwise: the
    integral is then bounded).  Half-space: the envelope
    ``(|x-y|^2 + (s+t)^2)^-(n+m+1)/2``, including the exact spot value
    ``2/pi`` at coincident points for ``n = 1``, ``m = 0``.
    """
    if sample_count < 64:
        raise DomainError("sample_count must be at least 64")
    if spec.domain == "ball":
        if spec.beta <= 0.0:
            raise DomainError("the pointwise envelope requires beta > 0")
        coarse = _ball_bound_sups(spec, sample_count, order,
                                  u_refinement, tol)
        fine = _ball_bound_sups(spec, 2 * sample_count, order + 2,
                                u_refinement + 4, tol)
        params = {"domain": "ball", "n": spec.n, "beta": spec.beta}
        extra_ok = True
        extra = []
        if "part3" not in fine:
            extra.append("part3 skipped: beta <= n - 1, integral bounded")
    else:
        coarse = _half_bound_sups(spec, sample_count)
        fine = _half_bound_sups(spec, 2 * sample_count)
        params = {"domain": "halfspace", "n": spec.n, "m": spec.m}
        extra_ok = True
        extra = []
        if spec.n == 1 and spec.m == 0:
            spot = float(q_m_values(np.array(0.0), np.array(1.0), 1, 0))
            err = abs(spot * 1.0 ** 2 - 2.0 / math.pi)
            extra.append(f"spot value at coincident points: |Q_0 (s+t)^2 "
                         f"- 2/pi| = {err:.3g}")
            extra_ok = err <= 1e-12

    drift = max(_drift(coarse[k], fine[k]) for k in fine)
    max_ratio = max(fine.values())
    passed = (all(math.isfinite(v) for v in fine.values())
              and drift <= DRIFT_THRESHOLD and extra_ok)
    notes = tuple(f"{k}: sup ratio {v:.6g}" for k, v in sorted(fine.items()))
    notes += _stability_notes(drift) + tuple(extra)
    return LemmaReport("kernel_bounds", params, float(max_ratio), drift,
                       passed, notes)


# ---------------------------------------------------------------------------
# Integral representations


def _repro_errors(f, spec, rule, points, tol):
    """``|sum - f| / (1 + |f|)`` of the reproducing sum on ``rule`` at
    ``points``: ``(X,)`` on the ball, ``(Y, t)`` on the half-space."""
    repro = ReproducingSum(f, spec, rule, tol).part()(*points)
    fx = f(*points)
    return np.abs(repro - fx) / (1.0 + np.abs(fx))


def _ball_x_grid(n):
    e1 = np.zeros(n)
    e1[0] = 1.0
    diag = np.ones(n) / math.sqrt(n)
    X = [0.0 * e1, 0.2 * e1, 0.4 * e1, 0.6 * e1, 0.7 * e1,
         0.5 * diag, -0.35 * e1]
    return np.array(X)


def _half_z_grid(n):
    e1 = np.zeros(n)
    e1[0] = 1.0
    return [(0.0 * e1, 0.5), (0.0 * e1, 1.0), (0.0 * e1, 2.0),
            (1.0 * e1, 1.0), (-0.5 * e1, 0.75)]


def verify_representation(f, spec, p=2.0, alpha=0.0, weight=None,
                          x_grid=None, quad=None, tol=1e-12):
    """Reproduction identity for the kernel against direct evaluation.

    Ball (power weight): requires ``p >= 1`` and ``f`` in the Bergman
    space with exponent ``beta`` (membership checked through the norm);
    pass threshold 1e-4 on ``max |repro - f| / (1 + |f|)``.  Ball with
    an S-class ``weight``: additionally requires ``beta > s(v, p)``.
    Half-space: requires the derivative order to clear the stated
    ``(alpha, p)`` threshold and ``f`` integrable against ``s^alpha``;
    pass threshold 1e-3 plus the quadrature tail.  Violated hypotheses
    refuse by name.
    """
    if spec.domain == "ball":
        if f.domain != "ball" or f.n != spec.n:
            raise DomainError("function/kernel domain mismatch")
        beta = spec.beta
        notes = []
        if weight is None:
            if p < 1.0:
                raise DomainError(
                    "hypothesis violated: representation needs p >= 1")
            try:
                norm = bergman_norm(f, p, beta)
            except DivergenceDetected as exc:
                raise DomainError(
                    "hypothesis violated: f is not in the Bergman space "
                    f"with exponent beta ({exc})") from exc
            notes.append(f"membership norm {norm:.6g} (p={p:g}, "
                         f"weight exponent {beta:g})")
            params = {"domain": "ball", "n": spec.n, "beta": beta,
                      "p": p, "f": f.label}
        else:
            thr = s_threshold(weight, p)
            if not (beta > thr > 0.0):
                raise DomainError(
                    "hypothesis violated: need kernel exponent > s(v, p) "
                    f"> 0, got {beta:g} vs s(v, p) = {thr:.6g}")
            try:
                norm = weighted_norm(f, p, weight.v)
            except DivergenceDetected as exc:
                raise DomainError(
                    "hypothesis violated: f is not in the weighted space "
                    f"({exc})") from exc
            notes.append(f"s(v, p) = {thr:.6g} < beta = {beta:g}; "
                         f"membership norm {norm:.6g}")
            params = {"domain": "ball", "n": spec.n, "beta": beta,
                      "p": p, "f": f.label, "weight": weight.label}
        X = _ball_x_grid(spec.n) if x_grid is None else np.asarray(x_grid)
        if np.any(np.linalg.norm(X, axis=1) > 0.75):
            raise DomainError("representation grid is capped at |x| = 0.75")
        if quad is None:
            quad = default_ball_quad(spec.n)
        fquad = default_ball_quad(
            spec.n, degree=quad.srule.degree + 10,
            order=quad.rrule.order + 2,
            refinement=quad.rrule.boundary_refinement + 2)
        points, rules = (X,), (quad, fquad)
    else:
        if f.domain != "halfspace" or f.n != spec.n:
            raise DomainError("function/kernel domain mismatch")
        m = spec.m
        if alpha <= -1.0:
            raise DomainError("hypothesis violated: alpha > -1 required")
        if p >= 1.0:
            if not (m > (alpha + 1.0) / p - 1.0):
                raise DomainError(
                    "hypothesis violated: need m > (alpha + 1)/p - 1 = "
                    f"{(alpha + 1.0) / p - 1.0:.6g}")
        elif not (m >= (alpha + f.n + 1.0) / p - (f.n + 1.0)):
            raise DomainError(
                "hypothesis violated: need m >= (alpha + n + 1)/p - (n + 1)"
                f" = {(alpha + f.n + 1.0) / p - (f.n + 1.0):.6g}")
        notes = []
        if weight is None:
            prof = halfspace_norm_profile(f, p, alpha)
            if prof.is_divergent():
                raise DomainError(
                    "hypothesis violated: the membership integral "
                    f"diverges (p={p:g}, alpha={alpha:g})")
            norm_est = prof.values[-1] ** (1.0 / p)
            notes.append(f"membership: windowed norm {norm_est:.6g} "
                         f"({prof.classification}, p={p:g}, "
                         f"alpha={alpha:g})")
        else:
            if p <= 1.0:
                raise DomainError(
                    "hypothesis violated: weighted representation needs "
                    "p > 1")
            if not (m > s_threshold(weight, p) - 1.0):
                raise DomainError(
                    "hypothesis violated: need m > s(v, p) - 1 = "
                    f"{s_threshold(weight, p) - 1.0:.6g}")
            rule0 = halfspace_rule(f.n, R_xy=64.0, s_min=2.0 ** -12,
                                   s_max=2.0 ** 8, order=8,
                                   lateral_refinement=10)
            dens = rule0.values(lambda Y, s: np.abs(f(Y, s)) ** p
                                * np.asarray(weight.v(s), float))
            w = rule0.product_weights()
            norm = float(w.ravel() @ dens.ravel()) ** (1.0 / p)
            notes.append(f"membership norm {norm:.6g} "
                         f"(p={p:g}, weight {weight.label})")
        params = {"domain": "halfspace", "n": spec.n, "m": m, "p": p,
                  "alpha": alpha, "f": f.label}
        if weight is not None:
            params["weight"] = weight.label
        Z = _half_z_grid(spec.n) if x_grid is None else x_grid
        rule = halfspace_rule(spec.n, R_xy=64.0, s_min=2.0 ** -12,
                              s_max=2.0 ** 8, order=10,
                              lateral_refinement=12)
        frule = halfspace_rule(spec.n, R_xy=128.0, s_min=2.0 ** -13,
                               s_max=2.0 ** 9, order=12,
                               lateral_refinement=13)
        points = (np.array([np.asarray(z[0], dtype=float) for z in Z]),
                  np.array([float(z[1]) for z in Z]))
        rules = (rule, frule)

    coarse, fine = (_repro_errors(f, spec, r, points, tol) for r in rules)
    threshold = REPRESENTATION_THRESHOLD[spec.domain]
    max_err = float(fine.max())
    drift = float(np.max(np.abs(fine - coarse)))
    passed = math.isfinite(max_err) and max_err <= threshold
    notes.append(f"max relative reproduction error {max_err:.3g} "
                 f"(threshold {threshold:g}); refinement moved errors by "
                 f"{drift:.3g}")
    if passed and drift > threshold:
        passed = False
        notes.append(f"INCONCLUSIVE: refinement drift {drift:.3g} exceeds "
                     f"the pass threshold {threshold:g}")
    return LemmaReport(f"representation[{spec.domain}]", params, max_err,
                       drift, passed, tuple(notes))


# ---------------------------------------------------------------------------
# Suite runner


def default_suite(n_ball=3, n_half=1):
    """Deterministic list of (job_id, callable) pairs covering every suite."""
    sqrt_w = s_weight(lambda u: np.sqrt(u), 0.5, label="u^1/2")
    jobs = [
        ("rro[0,2]", lambda: verify_rro(0.0, 2.0)),
        ("rro[1,3]", lambda: verify_rro(1.0, 3.0)),
        ("qbeta[d0,g4]", lambda: verify_qbeta(n_ball, 0.0, n_ball + 1.0,
                                              2.0)),
        ("qm[d0,g4]", lambda: verify_qm(n_half, 0.0, n_half + 2.0, 0)),
        ("bounds[ball]", lambda: verify_kernel_bounds(
            ball_kernel(n_ball, 2.0))),
        ("bounds[half]", lambda: verify_kernel_bounds(
            halfspace_kernel(n_half, 0))),
        ("rep[ball:const]", lambda: verify_representation(
            gallery_fn("const_one", "ball", n_ball), ball_kernel(n_ball, 1.0))),
        ("rep[ball:solid2]", lambda: verify_representation(
            gallery_fn("solid_k2", "ball", n_ball), ball_kernel(n_ball, 1.0))),
        ("rep[ball:weighted]", lambda: verify_representation(
            gallery_fn("solid_k1", "ball", n_ball), ball_kernel(n_ball, 2.0),
            p=2.0, weight=sqrt_w)),
        ("rep[half:poisson]", lambda: verify_representation(
            gallery_fn("hs_poisson", "halfspace", n_half),
            halfspace_kernel(n_half, 0), p=4.0, alpha=0.5)),
        ("rep[half:qm]", lambda: verify_representation(
            gallery_fn("qm_w0", "halfspace", n_half),
            halfspace_kernel(n_half, 1), p=2.0, alpha=1.0)),
    ]
    return jobs


def run_suite(jobs=None, max_workers=None):
    """Run suites concurrently, merge deterministically by job id.

    Returns ``(reports, all_passed)`` with reports ordered by job id.
    """
    if jobs is None:
        jobs = default_suite()
    if max_workers is None:
        max_workers = thread_count()
    results = {}
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = {job_id: pool.submit(fn) for job_id, fn in jobs}
        for job_id, fut in futures.items():
            results[job_id] = fut.result()
    ordered = tuple(results[k] for k in sorted(results))
    return ordered, all(r.passed for r in ordered)
