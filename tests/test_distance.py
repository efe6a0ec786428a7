"""Level sets, the two-piece decomposition, and the distance sweep.

The quadrature path of the inner level-set integral is cross-checked
against a Monte-Carlo estimate of the same integral; the decomposition
is checked by reconstruction (``f1 + f2`` reproduces ``f`` on an
interior grid) and by its behavior at extreme levels, where one of the
two pieces must vanish.
"""

import math
import tracemalloc

import numpy as np
import pytest

from bergman_lab import distance
from bergman_lab.distance import (LevelSetSpec, _make_engine, _sup_points,
                                  _weighted_sup_on, decompose,
                                  equivalence_experiment, in_level_set,
                                  level_mask, s1_upper, s2_inner,
                                  s2_inner_mc)
from bergman_lab.errors import DivergenceDetected, DomainError
from bergman_lab.kernels import (ball_kernel, halfspace_kernel, q_beta_values,
                                 q_m_values)
from bergman_lab.profiles import classify_truncations
from bergman_lab.quadrature import ball_grid, halfspace_rule
from bergman_lab.spaces import ainf_norm, default_ball_quad, gallery_fn

INTERIOR = np.array([
    [0.0, 0.0, 0.0],
    [0.3, 0.1, -0.2],
    [0.5, -0.4, 0.2],
    [0.6, 0.3, 0.1],
    [0.65, 0.0, 0.2],
])


# ---------------------------------------------------------------------------
# Level sets


def test_level_mask_matches_inequality():
    f = gallery_fn("coord_x1", "ball", 2)
    spec = LevelSetSpec(0.05, 1.0)
    X = np.array([[0.5, 0.0], [0.9, 0.0], [0.0, 0.9], [-0.8, 0.1]])
    r = np.linalg.norm(X, axis=1)
    want = np.abs(X[:, 0]) * (1.0 - r) ** spec.lam >= spec.eps
    assert np.array_equal(level_mask(f, spec, X), want)
    assert in_level_set(f, spec, X[0]) == bool(want[0])


def test_level_mask_halfspace():
    f = gallery_fn("hs_poisson", "halfspace", 1)
    spec = LevelSetSpec(0.1, 1.0)
    Y = np.array([[0.0], [0.0], [4.0]])
    s = np.array([1.0, 0.01, 1.0])
    vals = f(Y, s) * s ** spec.lam
    assert np.array_equal(level_mask(f, spec, Y, s), vals >= spec.eps)
    assert in_level_set(f, spec, (np.array([0.0]), 1.0)) == bool(
        vals[0] >= spec.eps)


@pytest.mark.parametrize("eps,lam", [(0.0, 1.0), (-1.0, 1.0), (0.5, 0.0)])
def test_level_spec_guards(eps, lam):
    with pytest.raises(DomainError):
        LevelSetSpec(eps, lam)


# ---------------------------------------------------------------------------
# Inner integral


def test_s2_inner_matches_monte_carlo():
    f = gallery_fn("poisson_e1", "ball", 3)
    kernel = ball_kernel(3, 2.0)
    spec = LevelSetSpec(1.0, 2.0)
    quad = s2_inner(f, spec, kernel, np.zeros(3))
    mc, err = s2_inner_mc(f, spec, kernel, np.zeros(3), n_samples=400000)
    assert abs(quad - mc) < max(0.02 * quad, 3.0 * err)


def test_s2_inner_empty_level_set_is_zero():
    # the weighted sup of the Poisson kernel at lam = 2 is 2, so the
    # level set at eps = 3 is empty
    f = gallery_fn("poisson_e1", "ball", 3)
    kernel = ball_kernel(3, 2.0)
    assert s2_inner(f, LevelSetSpec(3.0, 2.0), kernel, np.zeros(3)) == 0.0


def test_s2_inner_kernel_hypothesis():
    f = gallery_fn("poisson_e1", "ball", 3)
    with pytest.raises(DomainError, match="beta"):
        s2_inner(f, LevelSetSpec(0.5, 2.0), ball_kernel(3, 0.5), np.zeros(3))
    g = gallery_fn("hs_poisson", "halfspace", 1)
    with pytest.raises(DomainError, match="m"):
        s2_inner(g, LevelSetSpec(0.5, 2.0), halfspace_kernel(1, 0),
                 (np.zeros(1), 1.0))


# ---------------------------------------------------------------------------
# Decomposition


def test_decompose_reconstructs_on_interior_grid():
    f = gallery_fn("solid_k2", "ball", 3)
    kernel = ball_kernel(3, 2.0)
    sup, _ = ainf_norm(f, 2.0)
    quad = default_ball_quad(3)
    f1, f2 = decompose(f, LevelSetSpec(0.25 * sup, 2.0), kernel, quad=quad)
    defect = np.max(np.abs(f(INTERIOR) - f1(INTERIOR) - f2(INTERIOR)))
    assert defect < 1e-4


def test_decompose_extreme_levels():
    f = gallery_fn("solid_k2", "ball", 3)
    kernel = ball_kernel(3, 2.0)
    sup, _ = ainf_norm(f, 2.0)
    quad = default_ball_quad(3)
    # eps above the weighted sup: the level set is empty, f2 vanishes,
    # on the boundary shells of the sup grid too
    f1, f2 = decompose(f, LevelSetSpec(2.0 * sup, 2.0), kernel, quad=quad)
    X = np.vstack([INTERIOR, _sup_points(f)])
    assert np.array_equal(f2(X), np.zeros(X.shape[0]))
    assert np.max(np.abs(f(INTERIOR) - f1(INTERIOR))) < 1e-4
    # eps near zero: the level set fills the ball, f1 vanishes
    f1, f2 = decompose(f, LevelSetSpec(1e-9, 2.0), kernel, quad=quad)
    assert np.max(np.abs(f1(INTERIOR))) < 1e-9


def _parts_reference(f, spec, kernel, quad, X, tol=1e-11):
    """f1 and f2 at ``X`` as per-node kernel sums over the masked nodes,
    one ``q_beta_values`` call per evaluation radius."""
    rho, dirs, w = ball_grid(quad.srule, quad.rrule)
    fv = f(rho[:, None] * dirs)
    w_signed = w * (1.0 - rho * rho) ** kernel.beta * fv
    mask = np.abs(fv) * (1.0 - rho) ** spec.lam >= spec.eps
    r = np.linalg.norm(X, axis=1)
    out = np.zeros((2, X.shape[0]))
    for rr in np.unique(r):
        idx = np.flatnonzero(r == rr)
        xd = X[idx] / rr if rr > 0 else np.eye(f.n)[[0] * idx.size]
        for k, part in enumerate((~mask, mask)):
            if not part.any():
                continue
            q = np.broadcast_to(rr * rho[part], (idx.size, part.sum()))
            t = xd @ dirs[part].T
            vals, _ = q_beta_values(kernel, q.ravel(), t.ravel(), tol=tol)
            out[k, idx] = np.sum(vals.reshape(q.shape) * w_signed[part],
                                 axis=1)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_decompose_parts_match_per_node_sums(n):
    f = gallery_fn("solid_k2", "ball", n)
    kernel = ball_kernel(n, 2.0)
    sup_pts = _sup_points(f)
    spec = LevelSetSpec(0.25 * _weighted_sup_on(f, None, 2.0, sup_pts), 2.0)
    quad = default_ball_quad(n, degree=11, order=4, refinement=6)
    f1, f2 = decompose(f, spec, kernel, quad=quad)
    # sup-grid shells up to |x| = 0.97 share radii (ties), the origin
    # included; the seeded points all have distinct radii
    sup_pts = sup_pts[np.linalg.norm(sup_pts, axis=1) <= 0.97]
    assert not np.any(sup_pts[0])
    rng = np.random.default_rng(5)
    v = rng.standard_normal((12, n))
    seeded = v / np.linalg.norm(v, axis=1)[:, None] * rng.uniform(
        0.05, 0.9, 12)[:, None]
    for X in (sup_pts, seeded):
        want = _parts_reference(f, spec, kernel, quad, X)
        assert np.all(want[0] != 0.0) and np.all(want[1] != 0.0)
        for got, ref in zip((f1(X), f2(X)), want):
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0,
                                                                  np.abs(ref)))


_PARTS_DIGEST = """
import hashlib, numpy as np
from bergman_lab.distance import LevelSetSpec, _sup_points, decompose
from bergman_lab.kernels import ball_kernel
from bergman_lab.spaces import default_ball_quad, gallery_fn
f = gallery_fn("solid_k2", "ball", 3)
quad = default_ball_quad(3, degree=11, order=4, refinement=6)
f1, f2 = decompose(f, LevelSetSpec(0.05, 2.0), ball_kernel(3, 2.0), quad=quad)
X = _sup_points(f)[::3]
print(hashlib.sha256(f1(X).tobytes() + f2(X).tobytes()).hexdigest())
"""


def test_decompose_parts_bits_ignore_blas_threads(outputs_under_blas_threads):
    digests = outputs_under_blas_threads(_PARTS_DIGEST)
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_decompose_part_memory_is_bounded():
    # the full values block of f2 at the 308 sup points would be
    # 308 * 180 * 882 doubles (391 MB); the part evaluates it by radius
    # groups in chunks of a fixed element budget
    f = gallery_fn("solid_k2", "ball", 3)
    X = _sup_points(f)
    assert X.shape[0] == 308
    sup = _weighted_sup_on(f, None, 2.0, X)
    # the lowest level of the distance experiment: the largest level set
    _, f2 = decompose(f, LevelSetSpec(0.125 * sup, 2.0), ball_kernel(3, 2.0),
                      quad=default_ball_quad(3))
    f2(X[:1])  # builds the cached kernel coefficient tables
    tracemalloc.start()
    try:
        vals = f2(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(vals))
    assert peak < 8e6


def test_halfspace_part_memory_is_bounded():
    # f1 of a qm_w0 split at the lowest experiment level pairs the 375
    # sup points with 19,196 nodes; the part evaluates them in chunks
    # of points within the element budget
    f = gallery_fn("qm_w0", "halfspace", 1)
    sup, _ = ainf_norm(f, 1.5, convention="1-r")
    f1, _ = decompose(f, LevelSetSpec(0.125 * sup, 1.5),
                      halfspace_kernel(1, 1))
    Y, s = _sup_points(f)
    assert s.size == 375
    tracemalloc.start()
    try:
        vals = f1(Y, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(vals))
    assert peak < 20e6


def test_halfspace_decompose_reconstructs():
    f = gallery_fn("qm_w0", "halfspace", 1)
    kernel = halfspace_kernel(1, 2)
    f1, f2 = decompose(f, LevelSetSpec(0.08, 1.5), kernel)
    Y = np.linspace(-2.0, 2.0, 7)[:, None]
    s = np.full(7, 1.0)
    defect = np.max(np.abs(f(Y, s) - f1(Y, s) - f2(Y, s)))
    assert defect < 1e-5


def test_decompose_hypothesis_refusals():
    f = gallery_fn("solid_k2", "ball", 3)
    with pytest.raises(DomainError, match=r"beta > max\(lam - 1, 0\)"):
        decompose(f, LevelSetSpec(0.1, 2.0), ball_kernel(3, 0.5))
    with pytest.raises(DomainError, match="does not match"):
        decompose(f, LevelSetSpec(0.1, 2.0), halfspace_kernel(1, 2))
    g = gallery_fn("hs_poisson", "halfspace", 1)
    with pytest.raises(DomainError, match="m > lam - 1"):
        decompose(g, LevelSetSpec(0.1, 2.0), halfspace_kernel(1, 0))


# ---------------------------------------------------------------------------
# Distance witness


def test_s1_upper_monotone_with_endpoint():
    # the witness shrinks to 0 as eps -> 0 (membership) and saturates
    # at the weighted sup once the level set is empty
    f = gallery_fn("solid_k2", "ball", 3)
    kernel = ball_kernel(3, 2.0)
    sup, _ = ainf_norm(f, 2.0)
    quad = default_ball_quad(3)
    vals = [s1_upper(f, LevelSetSpec(e, 2.0), kernel, 2.0, 1.0, quad=quad)
            for e in (0.25 * sup, 0.5 * sup, 1.5 * sup)]
    assert vals[0] <= vals[1] <= vals[2]
    assert vals[0] <= 0.3 * sup
    assert vals[2] == pytest.approx(sup, rel=1e-12)


def test_s1_upper_refuses_uncertified_f2():
    f = gallery_fn("solid_k2", "ball", 3)
    kernel = ball_kernel(3, 2.0)
    cuts = np.arange(1.0, 9.0) * math.log(2.0)
    divergent = classify_truncations(cuts, np.exp(cuts))
    with pytest.raises(DivergenceDetected, match="not certified"):
        s1_upper(f, LevelSetSpec(0.1, 2.0), kernel, 2.0, 1.0,
                 profile=divergent)


# ---------------------------------------------------------------------------
# Equivalence sweep


def test_equivalence_experiment_member_signature():
    f = gallery_fn("solid_k2", "ball", 3)
    report = equivalence_experiment(f, 2.0, 1.0, [2.0],
                                    decomp_quad=default_ball_quad(3))
    assert report.lam == pytest.approx(2.0)
    entry = report.entries[0]
    assert all(p.classification == "FINITE" for p in entry.profiles)
    assert entry.coherence_ok
    assert entry.bracket.resolved
    assert entry.bracket.lower == 0.0
    assert entry.bracket.upper <= 0.05 * report.weighted_sup
    assert entry.s2_estimate == 0.0
    assert entry.repro_error < 1e-4
    # the witness constant c = s1_upper / eps is stable across levels
    assert all(0.5 <= c <= 2.0 for c in entry.c_over_eps)
    # at eps above the sup the witness equals the weighted sup itself
    assert entry.s1_upper[-1] == pytest.approx(report.weighted_sup,
                                               rel=1e-12)


def test_equivalence_experiment_halfspace_structure():
    f = gallery_fn("qm_w0", "halfspace", 1)
    report = equivalence_experiment(f, 2.0, 1.0, [2],
                                    skip_decomposition=True)
    assert report.lam == pytest.approx(1.5)
    entry = report.entries[0]
    assert all(p.classification in ("FINITE", "INCONCLUSIVE")
               for p in entry.profiles)
    # the top of the grid sits above the sup: empty level set, finite
    assert entry.profiles[-1].classification == "FINITE"
    assert entry.bracket.upper < math.inf
    assert math.isnan(entry.repro_error)


# ---------------------------------------------------------------------------
# Half-space s2 engine


def _half_engine_levels():
    """qm_w0 at n = 1, p = 2, alpha = 1 (lam = 1.5) and the five levels
    of the distance experiment."""
    f = gallery_fn("qm_w0", "halfspace", 1)
    sup, _ = ainf_norm(f, 1.5, convention="1-r")
    return f, sup * np.array([0.125, 0.25, 0.5, 0.75, 1.1])


def _half_engine(f, m):
    return _make_engine(f, 1.5, halfspace_kernel(1, m), 2.0, 1.0)


@pytest.mark.parametrize("m", [1, 2])
def test_half_engine_bits_ignore_query_order(m):
    f, levels = _half_engine_levels()
    runs = []
    for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
        engine = _half_engine(f, m)
        runs.append({k: engine.truncated_values(levels[k]) for k in order})
    for run in runs[1:]:
        assert all(np.array_equal(run[k], runs[0][k]) for k in range(5))


def _half_inner_reference(f, eps, m, rows=512):
    """Inner integral at every grid node as a per-level masked sum over
    all (row, masked column) pairs, built from the rule itself."""
    rule = halfspace_rule(1, R_xy=2.0**8, s_min=2.0**-8, s_max=2.0**8,
                          order=6, lateral_refinement=10)
    Y, s, w = rule.flat()
    mask = np.abs(f(Y, s)) * s**1.5 >= eps
    yc, sc = Y[mask, 0], s[mask]
    wc = (w * s ** (m - 1.5))[mask]
    out = np.zeros(s.size)
    for k0 in range(0, s.size, rows):
        u = (Y[k0:k0 + rows, :1] - yc[None, :]) ** 2
        tau = s[k0:k0 + rows, None] + sc[None, :]
        out[k0:k0 + rows] = np.sum(np.abs(q_m_values(u, tau, 1, m)) * wc,
                                   axis=1)
    return out


@pytest.mark.parametrize("m", [1, 2])
def test_half_engine_matches_masked_reference(m):
    f, levels = _half_engine_levels()
    engine = _half_engine(f, m)
    for eps in levels:
        got = engine.inner_values(eps)
        ref = _half_inner_reference(f, eps, m)
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)
    assert not np.any(got)  # the top level lies above the sup


@pytest.mark.parametrize("m", [1, 2])
def test_half_engine_values_nonincreasing_in_eps(m):
    f, levels = _half_engine_levels()
    engine = _half_engine(f, m)
    # between the experiment's levels too, so that the level sets end
    # inside blocks as well as on their edges
    grid = np.sort(np.concatenate([levels, np.geomspace(levels[0],
                                                        levels[-1], 9)]))
    vals = [engine.truncated_values(eps) for eps in grid]
    for a, b in zip(vals[:-1], vals[1:]):
        assert np.all(b <= a)


_HALF_ENGINE_DIGEST = """
import hashlib, numpy as np
from bergman_lab.distance import _make_engine
from bergman_lab.kernels import halfspace_kernel
from bergman_lab.spaces import ainf_norm, gallery_fn
f = gallery_fn("qm_w0", "halfspace", 1)
sup, _ = ainf_norm(f, 1.5, convention="1-r")
h = hashlib.sha256()
for m in (1, 2):
    engine = _make_engine(f, 1.5, halfspace_kernel(1, m), 2.0, 1.0)
    for eps in sup * np.array([0.125, 0.25, 0.5, 0.75, 1.1]):
        h.update(engine.truncated_values(eps).tobytes())
print(h.hexdigest())
"""


def test_half_engine_bits_ignore_blas_threads(outputs_under_blas_threads):
    digests = outputs_under_blas_threads(_HALF_ENGINE_DIGEST)
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_half_engine_memo_stays_in_budget(monkeypatch):
    f, levels = _half_engine_levels()
    engine = _half_engine(f, 1)
    want = [engine.inner_values(eps) for eps in levels]
    assert (sum(a.size for a in engine._sums)
            <= distance._HALF_MEMO_BUDGET)
    # a budget of five block sums: later blocks are recomputed on each
    # query, with the same bits
    budget = 5 * engine.wsize.size
    monkeypatch.setattr(distance, "_HALF_MEMO_BUDGET", budget)
    small = _half_engine(f, 1)
    for eps, ref in zip(levels, want):
        assert np.array_equal(small.inner_values(eps), ref)
        assert sum(a.size for a in small._sums) <= budget
    assert len(small._sums) == 5


def test_half_engine_takes_no_tol():
    # the half-space kernels are exact polynomials: there is no series
    # tail, so a kernel tol is refused rather than ignored
    f = gallery_fn("qm_w0", "halfspace", 1)
    with pytest.raises(TypeError, match="tol"):
        equivalence_experiment(f, 2.0, 1.0, [1], skip_decomposition=True,
                               engine_opts={"tol": 1e-9})


def test_equivalence_experiment_notes_uncertified_kernel_tail():
    # levels up to 10 put zonal table rows at q ~ 0.999, where the
    # degree stops at K_CAP with a tail far above tol; the note flags it
    # and leaves the classifications alone
    f = gallery_fn("poisson_e1", "ball", 3)
    report = equivalence_experiment(f, 2.0, 1.0, [2.0],
                                    skip_decomposition=True,
                                    engine_opts={"order": 3,
                                                 "u_refinement": 10})
    entry = report.to_dict()["sweep"][0]
    assert any(note.startswith("uncertified kernel: largest row tail")
               and note.endswith("exceeds tol 1e-09")
               for note in entry["notes"])
    assert [p["classification"] for p in entry["profiles"]] == [
        "DIVERGENT"] * 4 + ["FINITE"]


def test_grid_engine_kernel_tail_within_tol():
    f = gallery_fn("solid_k2", "ball", 3)
    report = equivalence_experiment(f, 2.0, 1.0, [2.0], method="grid",
                                    skip_decomposition=True,
                                    engine_opts={"order": 3,
                                                 "inner_degree": 7,
                                                 "outer_degree": 5})
    assert not any(note.startswith("uncertified kernel")
                   for note in report.entries[0].notes)
    engine = _make_engine(f, 2.0, ball_kernel(3, 2.0), 2.0, 1.0,
                          method="grid", order=3, inner_degree=7,
                          outer_degree=5)
    engine.profile(0.001)
    assert 0.0 < engine.kernel_tail <= engine.tol


def test_equivalence_experiment_guards():
    f = gallery_fn("solid_k2", "ball", 3)
    with pytest.raises(DomainError, match="p must be positive"):
        equivalence_experiment(f, 0.0, 1.0, [2.0])
    with pytest.raises(DomainError, match="alpha"):
        equivalence_experiment(f, 2.0, -1.5, [2.0])
    with pytest.raises(DomainError, match="q <= p"):
        equivalence_experiment(f, 2.0, 1.0, [2.0], q=3.0)
