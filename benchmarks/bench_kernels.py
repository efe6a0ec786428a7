"""Benchmark the kernel layer.

1. The series inner loop, compiled extension vs NumPy fallback: times
   ``q_beta_values`` on a boundary-heavy point cloud (where the series
   is longest) for each available backend, checks the two agree
   bitwise, and prints one line per backend plus the speedup.
2. A radius x cosine product of the shape one reproduction check of
   criterion 01 evaluates (n = 3, ``default_ball_quad(3)``, |x| = 0.73):
   times ``q_beta_grid`` against ``q_beta_values`` on the same nodes and
   prints both times and the largest difference relative to each row's
   largest value; exits non-zero above 1e-12.

Run:  python3 benchmarks/bench_kernels.py [--points N] [--repeats K]
"""

import argparse
import time

import numpy as np

from bergman_lab.kernels import ball_kernel, q_beta_grid, q_beta_values
from bergman_lab.kernels._dispatch import (HAVE_COMPILED, backend_name,
                                           set_backend)
from bergman_lab.spaces import default_ball_quad

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


def bench(spec, q, t, repeats):
    best, (vals, tail) = best_of(
        repeats, lambda: q_beta_values(spec, q, t, tol=1e-12))
    return best, vals, tail


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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=4000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    spec = ball_kernel(3, 2.0)
    q, t = make_cloud(args.points)
    original = backend_name()
    results = {}
    try:
        for name in (["python", "compiled"] if HAVE_COMPILED
                     else ["python"]):
            set_backend(name)
            results[name] = bench(spec, q, t, args.repeats)
            secs = results[name][0]
            print(f"{name:9s} {1e3 * secs:9.2f} ms   "
                  f"({args.points} points, best of {args.repeats})")
    finally:
        set_backend(original)

    if "compiled" in results:
        py_t, py_v, py_tail = results["python"]
        cy_t, cy_v, cy_tail = results["compiled"]
        same = np.array_equal(py_v, cy_v) and py_tail == cy_tail
        print(f"speedup   {py_t / cy_t:9.1f} x   "
              f"bitwise identical: {same}")
        if not same:
            raise SystemExit("backend outputs differ")
    else:
        print("compiled extension not built; python fallback only")

    bench_product(args.repeats)


if __name__ == "__main__":
    main()
