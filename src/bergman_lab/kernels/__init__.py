"""Kernel evaluations for the ball and the half-space."""

from .ball import (
    K_CAP,
    KernelSpec,
    ball_kernel,
    halfspace_kernel,
    poisson_ball,
    poisson_ball_rt,
    poisson_partial_sums,
    q_beta_bound,
    q_beta_bound_qt,
    q_beta_grid,
    q_beta_values,
    qbeta_pick_k,
)
from .halfspace import (
    dt_poisson_ut,
    poisson_constant,
    poisson_halfspace,
    poisson_halfspace_ut,
    q_m,
    q_m_bound,
    q_m_bound_values,
    q_m_values,
)
from .zonal import ZonalTable, zonal, zonal_sequence, zonal_table

__all__ = [
    "K_CAP",
    "KernelSpec",
    "ball_kernel",
    "halfspace_kernel",
    "poisson_ball",
    "poisson_ball_rt",
    "poisson_partial_sums",
    "q_beta_bound",
    "q_beta_bound_qt",
    "q_beta_grid",
    "q_beta_values",
    "qbeta_pick_k",
    "dt_poisson_ut",
    "poisson_constant",
    "poisson_halfspace",
    "poisson_halfspace_ut",
    "q_m",
    "q_m_bound",
    "q_m_bound_values",
    "q_m_values",
    "ZonalTable",
    "zonal",
    "zonal_sequence",
    "zonal_table",
]
