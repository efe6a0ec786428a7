"""Level sets, the two-piece decomposition, and the distance sweep.

The quadrature path of the inner level-set integral is cross-checked
against a Monte-Carlo estimate of the same integral; the decomposition
is checked by reconstruction (``f1 + f2`` reproduces ``f`` on an
interior grid) and by its behavior at extreme levels, where one of the
two pieces must vanish.
"""

import math

import numpy as np
import pytest

from bergman_lab.distance import (LevelSetSpec, _make_engine, decompose,
                                  equivalence_experiment, in_level_set,
                                  level_mask, s1_upper, s2_inner,
                                  s2_inner_mc)
from bergman_lab.errors import DivergenceDetected, DomainError
from bergman_lab.kernels import ball_kernel, halfspace_kernel
from bergman_lab.profiles import classify_truncations
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
    # eps above the weighted sup: the level set is empty, f2 vanishes
    f1, f2 = decompose(f, LevelSetSpec(2.0 * sup, 2.0), kernel, quad=quad)
    assert np.max(np.abs(f2(INTERIOR))) == 0.0
    assert np.max(np.abs(f(INTERIOR) - f1(INTERIOR))) < 1e-4
    # eps near zero: the level set fills the ball, f1 vanishes
    f1, f2 = decompose(f, LevelSetSpec(1e-9, 2.0), kernel, quad=quad)
    assert np.max(np.abs(f1(INTERIOR))) < 1e-9


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
