"""The perfbench workloads: inputs, one round of operations, checks.

A workload is three functions.  ``setup(rng)`` builds every input the
round needs: gallery functions, kernel specs, quadrature bundles and the
seeded evaluation points.  The seed chooses where the points lie, never
how many there are, and no eps grid or level list depends on it, so the
amount of work is the same for every seed.  ``run_round(inp, rnd)``
calls the library's public functions through ``rnd.op``, which counts
each call as one operation.  ``check(inp, out)`` compares one round's
outputs with :mod:`checks` and returns failure messages.  The check
functions import :mod:`checks` themselves, so its SciPy imports happen
after the timing ends and are never part of ``setup_s``.

The sizes below (levels, sweeps, sphere degrees, point counts) keep one
round between about 2 and 6 seconds on a 2-vCPU machine, so a run holds
several rounds; see README.md for the reasoning behind each.
"""

from __future__ import annotations

import math

import numpy as np

from bergman_lab.distance import LevelSetSpec, decompose, equivalence_experiment
from bergman_lab.kernels import ball_kernel, halfspace_kernel, q_m_values
from bergman_lab.quadrature import TailDecay, integrate_halfspace
from bergman_lab.spaces import (
    bergman_norm,
    default_ball_quad,
    default_half_quad,
    gallery_fn,
    halfspace_norm_profile,
)
from bergman_lab.verify import verify_representation

POLYNOMIALS = ("const_one", "coord_x1", "solid_k1", "solid_k2", "solid_k3",
               "solid_k4")


def shell_radii(n, count, radius):
    """Fixed radii: the midpoints of ``count`` equal-volume shells of the
    ball of the given radius.  Kernel series lengths depend on the radius
    alone, so fixing it keeps the work the same for every seed."""
    return radius * ((np.arange(count) + 0.5) / count) ** (1.0 / n)


def ball_points(rng, n, radii):
    """Points at the given radii in seeded directions, uniform on the
    sphere."""
    g = rng.standard_normal((len(radii), n))
    return np.asarray(radii)[:, None] * g / np.linalg.norm(g, axis=1,
                                                          keepdims=True)


def _split_lowest(f, report, kernel, quad, *points):
    """f1 and f2 of the decomposition at the lowest level of the report's
    eps grid, evaluated at the given points."""
    spec = LevelSetSpec(float(report.entries[0].eps_grid[0]), report.lam)
    f1, f2 = decompose(f, spec, kernel, quad=quad)
    return f1(*points), f2(*points)


def _experiment_data(report):
    """Per sweep entry: eps grid, classes and truncated values."""
    return [(np.asarray(e.eps_grid, dtype=float),
             [p.classification for p in e.profiles],
             [np.asarray(p.values, dtype=float) for p in e.profiles])
            for e in report.entries]


# ---------------------------------------------------------------------------
# ball_repro: representation over the polynomial gallery, plus its norms

REPRO_BETAS = (0.0, 1.0, 2.0)
NORM_ALPHAS = (0.0, 1.0, 2.0)
REPRO_RADIUS = 0.75            # the cap of verify_representation's grid


def repro_calls(n):
    """(polynomial, beta) pairs of one round.  In n = 3, where one call
    costs about half a second, each polynomial meets one beta, cycling
    through all three; in n = 2 every pair is run."""
    if n == 3:
        return [(name, REPRO_BETAS[i % len(REPRO_BETAS)])
                for i, name in enumerate(POLYNOMIALS)]
    return [(name, b) for name in POLYNOMIALS for b in REPRO_BETAS]


def setup_ball_repro(rng):
    inp = {}
    for n in (3, 2):
        calls = repro_calls(n)
        radii = shell_radii(n, len(calls), REPRO_RADIUS)
        inp[n] = {
            "quad": default_ball_quad(n),
            "fns": {name: gallery_fn(name, "ball", n) for name in POLYNOMIALS},
            "kernels": {b: ball_kernel(n, b) for b in REPRO_BETAS},
            "points": {c: ball_points(rng, n, radii[i:i + 1])
                       for i, c in enumerate(calls)},
            "values_at": ball_points(rng, n, shell_radii(n, 16, 1.0)),
        }
    return inp


def run_ball_repro(inp, rnd):
    for n, d in inp.items():
        for (name, b), X in d["points"].items():
            rnd.op(("rep", n, name, b), verify_representation, d["fns"][name],
                   d["kernels"][b], x_grid=X, quad=d["quad"])
        for name, f in d["fns"].items():
            for a in NORM_ALPHAS:
                rnd.op(("norm", n, name, a), bergman_norm, f, 2.0, a,
                       quad=d["quad"])
            rnd.op(("values", n, name), f, d["values_at"])


def check_ball_repro(inp, out):
    import checks

    fails = []
    for key, val in out.items():
        kind, n, name = key[:3]
        if kind == "rep":
            fails += checks.check_representation(
                f"rep {name} n={n} beta={key[3]:g}", val.max_ratio,
                checks.BALL_REPRO_TOL)
        elif kind == "norm":
            fails += checks.check_ball_norm(n, name, key[3], val)
        elif kind == "values":
            exact = checks.gallery_value(name, inp[n]["values_at"])
            fails += checks.check_values(
                f"values {name} n={n}", val, exact,
                1e-12 * (1.0 + float(np.max(np.abs(exact)))))
    return fails


# ---------------------------------------------------------------------------
# ball_boundary: Poisson kernel on the zonal engine, tables up to q ~ 0.999

BOUNDARY_BETAS = (2.0, 3.0)
BOUNDARY_ENGINE = {"order": 3, "u_refinement": 10}


def setup_ball_boundary(rng):
    return {
        "f": gallery_fn("poisson_e1", "ball", 3),
        "values_at": ball_points(rng, 3, shell_radii(3, 64, 0.99)),
    }


def run_ball_boundary(inp, rnd):
    rnd.op(("experiment",), equivalence_experiment, inp["f"], 2.0, 1.0,
           BOUNDARY_BETAS, skip_decomposition=True,
           engine_opts=BOUNDARY_ENGINE)
    rnd.op(("values",), inp["f"], inp["values_at"])


def check_ball_boundary(inp, out):
    import checks

    fails = []
    if ("experiment",) in out:
        report = out[("experiment",)]
        fails += checks.check_poisson_sup(report.weighted_sup)
        for b, (eps, classes, values) in zip(
                BOUNDARY_BETAS, _experiment_data(report)):
            label = f"poisson_e1 beta={b:g}"
            fails += checks.check_boundary_classes(label, eps, classes,
                                                   report.weighted_sup)
            fails += checks.check_profile_monotone(label, values)
    if ("values",) in out:
        exact = checks.poisson_ball_oracle(3, inp["values_at"])
        fails += checks.check_values(
            "poisson_e1 values", out[("values",)] / exact, np.ones_like(exact),
            1e-10)
    return fails


# ---------------------------------------------------------------------------
# ball_distance: the member experiment on the grid engine, with decompose

DISTANCE_ENGINE = {"order": 3, "inner_degree": 7, "outer_degree": 5}
DISTANCE_QUAD = {"degree": 17, "order": 6, "refinement": 10}
DECOMP_RADIUS = 0.4     # where DISTANCE_QUAD resolves f = f1 + f2 to 1e-4
DECOMP_POINTS = 8


def setup_ball_distance(rng):
    return {
        "f": gallery_fn("solid_k2", "ball", 3),
        "kernel": ball_kernel(3, 2.0),
        "quad": default_ball_quad(3, **DISTANCE_QUAD),
        "points": ball_points(rng, 3, shell_radii(3, DECOMP_POINTS,
                                                  DECOMP_RADIUS)),
    }


def run_ball_distance(inp, rnd):
    report = rnd.op(("experiment",), equivalence_experiment, inp["f"], 2.0,
                    1.0, [2.0], decomp_quad=inp["quad"],
                    engine_opts=DISTANCE_ENGINE)
    rnd.op(("split",), _split_lowest, inp["f"], report, inp["kernel"],
           inp["quad"], inp["points"])


def check_ball_distance(inp, out):
    import checks

    fails = []
    if ("experiment",) in out:
        report = out[("experiment",)]
        entry = report.entries[0]
        fails += checks.check_member(
            "solid_k2", [p.classification for p in entry.profiles],
            entry.bracket.lower, entry.s2_estimate)
        fails += checks.check_close("witness above the sup",
                                    entry.s1_upper[-1], report.weighted_sup,
                                    1e-12)
        fails += checks.check_close(
            "weighted sup", report.weighted_sup,
            checks.sphere_max_abs(3, "solid_k2") / 16.0, 1e-9)
    if ("split",) in out:
        f1x, f2x = out[("split",)]
        exact = checks.gallery_value("solid_k2", inp["points"])
        fails += checks.check_values("f - f1 - f2", f1x + f2x, exact,
                                     checks.BALL_DECOMP_TOL)
    return fails


# ---------------------------------------------------------------------------
# halfspace: exact polynomial kernels on tensor quadrature, n = 1

C02_POINTS = 25
HALF_REP_POINTS = 5
HALF_SPLIT_POINTS = 8
HALF_MS = (1, 2)


def setup_halfspace(rng):
    def heights(count, lo, hi):
        return lo + (hi - lo) * rng.random(count)

    return {
        "f": gallery_fn("hs_poisson", "halfspace", 1),
        "g": gallery_fn("qm_w0", "halfspace", 1),
        "quad": default_half_quad(1),
        "kernels": {m: halfspace_kernel(1, m) for m in (0,) + HALF_MS},
        "c02": list(zip(rng.uniform(-1.0, 1.0, C02_POINTS),
                        heights(C02_POINTS, 0.5, 2.0))),
        "rep": [(np.array([y]), float(t)) for y, t in zip(
            rng.uniform(-1.0, 1.0, HALF_REP_POINTS),
            heights(HALF_REP_POINTS, 0.5, 2.0))],
        "split_y": rng.uniform(-2.0, 2.0, HALF_SPLIT_POINTS),
        "split_s": heights(HALF_SPLIT_POINTS, 0.25, 4.0),
    }


def _c02(f, quad, m, y, t):
    """Reproduce f at (y, t) through integrate_halfspace (criterion 02)."""
    return integrate_halfspace(
        lambda Y, s: f(Y, s) * q_m_values((Y[:, 0] - y) ** 2, s + t, 1, m)
        * s**m, quad, TailDecay(3.0, float(m)))


def run_halfspace(inp, rnd):
    f, g, k = inp["f"], inp["g"], inp["kernels"]
    for m in HALF_MS:
        for i, (y, t) in enumerate(inp["c02"]):
            rnd.op(("c02", m, i), _c02, f, inp["quad"], m, y, t)
    rnd.op(("spot",), q_m_values, 0.0, 1.0, 1, 0)
    rnd.op(("rep", "hs_poisson"), verify_representation, f, k[0], p=4.0,
           alpha=0.5, x_grid=inp["rep"])
    rnd.op(("rep", "qm_w0"), verify_representation, g, k[1], p=2.0,
           alpha=1.0, x_grid=inp["rep"])
    rnd.op(("profile",), halfspace_norm_profile, g, 2.0, 1.0)
    rnd.op(("norm",), bergman_norm, g, 2.0, 1.0)
    report = rnd.op(("experiment",), equivalence_experiment, g, 2.0, 1.0,
                    HALF_MS)
    Y = inp["split_y"][:, None]
    for m in HALF_MS:
        rnd.op(("split", m), _split_lowest, g, report, k[m], None, Y,
               inp["split_s"])


def check_halfspace(inp, out):
    import checks

    fails = []
    for key, val in out.items():
        kind = key[0]
        if kind == "c02":
            _, m, i = key
            y, t = inp["c02"][i]
            fails += checks.check_c02_margin(
                f"c02 m={m} (y, t)=({y:.3f}, {t:.3f})", val.value,
                val.tail_bound, float(checks.hs_poisson_oracle(y, t)))
        elif kind == "spot":
            fails += checks.check_values("Q_0(0, 1)", val, 2.0 / math.pi,
                                         1e-12)
        elif kind == "rep":
            fails += checks.check_representation(
                f"rep {key[1]}", val.max_ratio, checks.HALF_REPRO_TOL)
        elif kind == "profile":
            if val.classification != checks.FINITE:
                fails.append(f"qm_w0 norm profile {val.classification}")
            fails += checks.check_close(
                "qm_w0 windowed norm", math.sqrt(val.values[-1]),
                checks.qm_w0_norm_oracle(), 1e-3)
        elif kind == "norm":
            fails += checks.check_close("qm_w0 norm", val.value,
                                        checks.qm_w0_norm_oracle(),
                                        checks.HALF_NORM_RTOL)
        elif kind == "experiment":
            fails += checks.check_close(
                "qm_w0 weighted sup", val.weighted_sup,
                checks.qm_w0_weighted_sup_oracle(val.lam), 1e-9)
            for m, (eps, classes, values) in zip(HALF_MS,
                                                 _experiment_data(val)):
                label = f"qm_w0 m={m}"
                if classes[-1] != checks.FINITE:
                    fails.append(f"{label}: eps above the sup classified "
                                 f"{classes[-1]}")
                fails += checks.check_profile_monotone(label, values)
        elif kind == "split":
            f1x, f2x = val
            exact = checks.qm_w0_oracle(inp["split_y"], inp["split_s"])
            fails += checks.check_values(f"qm_w0 f - f1 - f2 m={key[1]}",
                                         f1x + f2x, exact,
                                         checks.HALF_DECOMP_TOL)
    return fails


WORKLOADS = {
    "ball_repro": (setup_ball_repro, run_ball_repro, check_ball_repro),
    "ball_boundary": (setup_ball_boundary, run_ball_boundary,
                      check_ball_boundary),
    "ball_distance": (setup_ball_distance, run_ball_distance,
                      check_ball_distance),
    "halfspace": (setup_halfspace, run_halfspace, check_halfspace),
}
