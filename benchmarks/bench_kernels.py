"""Benchmark the kernel layer.

1. The per-node series loop: times ``q_beta_values`` on a
   boundary-heavy point cloud (where the series is longest) and prints
   the time and the largest certified tail it returns.
2. A radius x cosine product of the shape one reproduction check of
   criterion 01 evaluates (n = 3, ``default_ball_quad(3)``, |x| = 0.73):
   times ``q_beta_grid`` against ``q_beta_values`` on the same nodes and
   prints both times and the largest difference relative to each row's
   largest value; exits non-zero above 1e-12.
3. The decomposition part f2 of ``solid_k2`` (n = 3, beta = 2,
   ``default_ball_quad(3)``) at the lowest level of the distance
   experiment, evaluated on the 308 points of the weighted-sup grid:
   times the part (radius groups on ``q_beta_grid``) against a per-node
   reference sum (one ``q_beta_values`` call per point over the level
   set's nodes, timed once) and prints both times and the largest
   difference relative to max(1, |reference|); exits non-zero above
   1e-12.
4. The half-space s2 engine of ``qm_w0`` (n = 1, p = 2, alpha = 1,
   m in {1, 2}, default levels) at the five levels of the distance
   experiment: times the engine (built afresh, each kernel column
   evaluated once on the height x lateral product grid) against a
   per-level masked reference sum over all (row, masked column) pairs,
   and prints both times and the largest relative difference of the
   inner integrals; exits non-zero above 1e-12.

Run:  python3 benchmarks/bench_kernels.py [--points N] [--repeats K]
"""

import argparse
import time

import numpy as np

from bergman_lab.distance import (LevelSetSpec, _make_engine, _sup_points,
                                  decompose)
from bergman_lab.kernels import (ball_kernel, halfspace_kernel, q_beta_grid,
                                 q_beta_values, q_m_values)
from bergman_lab.quadrature import ball_grid, halfspace_rule
from bergman_lab.spaces import ainf_norm, default_ball_quad, gallery_fn

PRODUCT_TOL = 1e-12


def make_cloud(count, seed=7):
    rng = np.random.default_rng(seed)
    q = 1.0 - 10.0 ** rng.uniform(-3.0, -0.3, count)  # pile up near 1
    t = rng.uniform(-1.0, 1.0, count)
    return np.ascontiguousarray(q), np.ascontiguousarray(t)


def best_of(repeats, fn):
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def bench_series(points, repeats):
    spec = ball_kernel(3, 2.0)
    q, t = make_cloud(points)
    best, (_, tail) = best_of(
        repeats, lambda: q_beta_values(spec, q, t, tol=1e-12))
    print(f"series    {1e3 * best:9.2f} ms   ({points} points, best of "
          f"{repeats}), max tail {tail:.3g}")


def bench_product(repeats, r=0.73):
    """Rows ``r * rho``, columns ``<y', x'>`` over the sphere rule."""
    spec = ball_kernel(3, 1.0)
    quad = default_ball_quad(3)
    q = r * quad.rrule.nodes
    t = quad.srule.nodes @ (np.ones(3) / np.sqrt(3.0))
    grid_s, (grid, _) = best_of(
        repeats, lambda: q_beta_grid(spec, q, t, tol=1e-12))
    series_s, (series, _) = best_of(
        repeats, lambda: q_beta_values(spec, np.repeat(q, t.size),
                                       np.tile(t, q.size), tol=1e-12))
    series = series.reshape(q.size, t.size)
    rel = float(np.max(np.abs(grid - series)
                       / np.abs(series).max(axis=1, keepdims=True)))
    print(f"product   {q.size} radii x {t.size} directions, "
          f"best of {repeats}")
    print(f"  q_beta_values {1e3 * series_s:9.2f} ms")
    print(f"  q_beta_grid   {1e3 * grid_s:9.2f} ms   "
          f"({series_s / grid_s:.1f} x)")
    print(f"  max |grid - series| / row max = {rel:.3g}")
    if rel > PRODUCT_TOL:
        raise SystemExit(f"grid and series differ by {rel:.3g} "
                         f"> {PRODUCT_TOL:g}")


def bench_decomposition(repeats, tol=1e-11):
    """f2 at the lowest level of the member experiment on the sup grid."""
    f = gallery_fn("solid_k2", "ball", 3)
    kernel = ball_kernel(3, 2.0)
    quad = default_ball_quad(3)
    lam = 2.0  # (alpha + n) / p at p = 2, alpha = 1
    sup, _ = ainf_norm(f, lam, convention="1-r")
    spec = LevelSetSpec(0.125 * sup, lam)
    X = _sup_points(f)
    _, f2 = decompose(f, spec, kernel, quad=quad, tol=tol)
    part_s, part = best_of(repeats, lambda: f2(X))

    rho, dirs, w = ball_grid(quad.srule, quad.rrule)
    fv = f(rho[:, None] * dirs)
    w_signed = w * (1.0 - rho * rho) ** kernel.beta * fv
    mask = np.abs(fv) * (1.0 - rho) ** spec.lam >= spec.eps
    rho, dirs, w_signed = rho[mask], dirs[mask], w_signed[mask]
    r = np.linalg.norm(X, axis=1)
    xd = np.where(r[:, None] > 0, X / np.maximum(r, 1e-300)[:, None], 0.0)
    xd[r == 0, 0] = 1.0

    def reference():
        out = np.empty(X.shape[0])
        for i in range(X.shape[0]):
            vals, _ = q_beta_values(kernel, r[i] * rho, dirs @ xd[i], tol=tol)
            out[i] = np.sum(vals * w_signed)
        return out

    ref_s, ref = best_of(1, reference)
    rel = float(np.max(np.abs(part - ref) / np.maximum(1.0, np.abs(ref))))
    print(f"decomposition f2 at {X.shape[0]} sup points, "
          f"{rho.size} level-set nodes")
    print(f"  per-node sum  {1e3 * ref_s:9.2f} ms   (once)")
    print(f"  grid part     {1e3 * part_s:9.2f} ms   "
          f"({ref_s / part_s:.1f} x, best of {repeats})")
    print(f"  max |part - reference| / max(1, |reference|) = {rel:.3g}")
    if rel > PRODUCT_TOL:
        raise SystemExit(f"part and reference differ by {rel:.3g} "
                         f"> {PRODUCT_TOL:g}")


def bench_half_engine(repeats, rows=512):
    """The qm_w0 engine at the experiment's levels against per-level
    masked sums."""
    f = gallery_fn("qm_w0", "halfspace", 1)
    lam = 1.5  # (alpha + n + 1) / p at p = 2, alpha = 1
    sup, _ = ainf_norm(f, lam, convention="1-r")
    levels = sup * np.array([0.125, 0.25, 0.5, 0.75, 1.1])
    ms = (1, 2)

    def engines():
        out = []
        for m in ms:
            engine = _make_engine(f, lam, halfspace_kernel(1, m), 2.0, 1.0)
            out.append([engine.inner_values(eps) for eps in levels])
        return out

    eng_s, got = best_of(repeats, engines)

    # the engine's default master grid: levels up to 7, one more level
    L = 8
    Y, s, w = halfspace_rule(1, R_xy=2.0**L, s_min=2.0**-L, s_max=2.0**L,
                             order=6, lateral_refinement=L + 2).flat()
    wsize = np.abs(f(Y, s)) * s**lam

    def reference():
        out = []
        for m in ms:
            per_m = []
            for eps in levels:
                mask = wsize >= eps
                yc, sc = Y[mask, 0], s[mask]
                wc = (w * s ** (m - lam))[mask]
                inner = np.zeros(s.size)
                for k0 in range(0, s.size, rows):
                    u = (Y[k0:k0 + rows, :1] - yc[None, :]) ** 2
                    tau = s[k0:k0 + rows, None] + sc[None, :]
                    inner[k0:k0 + rows] = np.sum(
                        np.abs(q_m_values(u, tau, 1, m)) * wc, axis=1)
                per_m.append(inner)
            out.append(per_m)
        return out

    ref_s, ref = best_of(1, reference)
    rel = max(float(np.max(np.abs(a - b)
                           / np.maximum(b, np.finfo(float).tiny)))
              for ga, ra in zip(got, ref) for a, b in zip(ga, ra))
    print(f"half-space engine, qm_w0 (n = 1, m in {ms}), "
          f"{levels.size} levels, {s.size} grid nodes")
    print(f"  masked sums   {1e3 * ref_s:9.2f} ms   (once)")
    print(f"  engine        {1e3 * eng_s:9.2f} ms   "
          f"({ref_s / eng_s:.1f} x, best of {repeats})")
    print(f"  max |engine - reference| / reference = {rel:.3g}")
    if rel > PRODUCT_TOL:
        raise SystemExit(f"engine and reference differ by {rel:.3g} "
                         f"> {PRODUCT_TOL:g}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=4000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    bench_series(args.points, args.repeats)
    bench_product(args.repeats)
    bench_decomposition(args.repeats)
    bench_half_engine(args.repeats)


if __name__ == "__main__":
    main()
