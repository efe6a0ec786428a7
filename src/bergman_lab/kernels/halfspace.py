"""Poisson and derivative kernels of the upper half-space.

The Poisson kernel is normalized to unit lateral mass:

    P(x, t) = c_n t / (|x|^2 + t^2)^{(n+1)/2},
    c_n = Gamma((n+1)/2) / pi^{(n+1)/2},

so ``int_{R^n} P(x, t) dx = 1`` for every ``t > 0``.  The reproducing
kernels of the weighted spaces are scaled vertical derivatives

    Q_m(z, w) = ((-2)^{m+1} / m!) d^{m+1}/dtau^{m+1} P(x - y, tau),
    tau = t + s,

satisfying ``f(z) = int f(w) Q_m(z, w) s^m dy ds`` on the admissible
range.  Derivatives are exact: with ``u = |x|^2``,

    d^j/dt^j P = c_n p_j(u, t) / (u + t^2)^{(n+1)/2 + j}

where the integer-coefficient polynomials ``p_j`` obey

    p_0 = t,   p_{j+1} = (u + t^2) dp_j/dt - (n + 1 + 2 j) t p_j.

Evaluation form.  ``p_j`` is weighted-homogeneous (``u`` of weight 2,
``t`` of weight 1): ``p_j = t^par sum_k c_k u^{A-k} t^{2k}``, ``par =
(j + 1) mod 2``, ``A = (j + 1 - par) / 2``.  With ``r = 1 / (u + t^2)``
and ``x = t^2 r`` in ``[0, 1]``,

    d^j/dt^j P = c_n t^par r^{(n + j + par)/2} R_j(x),
    R_j(x) = sum_k c_k (1 - x)^{A - k} x^k,

with the integer ``c_k`` built exactly by the recurrence.  The code
evaluates ``r^A R_j(x) = sum_k c_k u^{A-k} t^{2k}`` by Horner's rule in
``(u, t^2)``, never forming ``1 - x``, times ``r^{(n+1)/2 + j}``: an
integer power (repeated squaring) for odd ``n``, one ``sqrt(r)`` more
for even ``n``, and no ``pow``.  Values stay in double range for ``u +
t^2`` between 1e-40 and 1e40 (``n <= 3``, ``m <= 4``).

Error bound.  ``|Q_m| / (u + tau^2)^{-(n+m+1)/2} = |C x^{par/2} R(x)|``,
``C = c_n 2^{m+1} / m!``, is at most ``B_{n,m}`` (0.61 to 340 for ``n
<= 3``, ``m <= 4``).  Against
50-digit values there, with ``u / tau^2`` from 1e-6 to 1e6 and the zeros
of ``R``, the error is within ``2e-15 B_{n,m}`` envelopes (1.02e-13 for
``n = 1``): the rounding of ``u + tau^2``, raised to the power ``(n+1)/2
+ j``, alone costs several units in the last place.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import DomainError
from ..geometry import HalfPoint

__all__ = [
    "poisson_constant",
    "poisson_halfspace",
    "poisson_halfspace_ut",
    "dt_poisson_ut",
    "q_m",
    "q_m_values",
    "q_m_bound",
    "q_m_bound_values",
]


def poisson_constant(n):
    """``c_n``; ``c_1 = 1/pi``."""
    return math.exp(math.lgamma(0.5 * (n + 1))) / math.pi ** (0.5 * (n + 1))


def poisson_halfspace_ut(u, t, n):
    """``P`` as a function of ``u = |x|^2`` and height ``t``."""
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("poisson_halfspace needs t > 0")
    return poisson_constant(n) * t / (u + t * t) ** (0.5 * (n + 1))


def poisson_halfspace(x, t, n=None):
    """Poisson kernel ``P(x, t)`` for lateral offset ``x`` in ``R^n``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if n is None:
        n = x.size
    return float(poisson_halfspace_ut(float(np.dot(x, x)), t, n))


@lru_cache(maxsize=128)
def _pj_terms(n, j):
    """``p_j`` as a tuple of ``(u_power, t_power, integer coefficient)``."""
    if j == 0:
        return ((0, 1, 1),)
    prev = _pj_terms(n, j - 1)
    acc = {}

    def add(a, b, c):
        key = (a, b)
        acc[key] = acc.get(key, 0) + c

    for a, b, c in prev:
        if b > 0:
            # (u + t^2) * d/dt term
            add(a + 1, b - 1, c * b)
            add(a, b + 1, c * b)
        # -(n + 1 + 2(j-1)) t * p_{j-1}
        add(a, b + 1, -(n + 1 + 2 * (j - 1)) * c)
    return tuple(
        (a, b, c) for (a, b), c in sorted(acc.items()) if c != 0
    )


@lru_cache(maxsize=128)
def _dt_form(n, j):
    """``(par, power, odd, coefs)`` of the evaluation form
    ``d^j/dt^j P = c_n t^par r^power [sqrt(r) if odd] sum_k coefs[k]
    u^{A-k} t^{2k}``, ``A = len(coefs) - 1``."""
    par = (j + 1) % 2
    coefs = [0] * ((j + 1 - par) // 2 + 1)
    for _, b, c in _pj_terms(n, j):
        coefs[(b - par) // 2] += c
    power, odd = divmod(n + 1 + 2 * j, 2)
    return par, power, bool(odd), tuple(coefs)


def _dt_values(j, u, t, n, scale):
    """``scale * d^j/dt^j P`` in the evaluation form; broadcasts ``u``
    against ``t`` like any ufunc, a scalar for 0-d inputs."""
    par, power, odd, coefs = _dt_form(n, j)
    shape = np.broadcast_shapes(np.shape(u), np.shape(t))
    # at least 1-d, so that every full-size temporary is an array the
    # in-place steps below may overwrite
    u = np.atleast_1d(np.asarray(u, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    c = scale * poisson_constant(n)
    t2 = t * t
    # Horner's rule in (u, t^2): r^A times this sum is R(x)
    out = np.full(np.broadcast_shapes(u.shape, t.shape), c * coefs[0])
    t2k = 1.0
    for ck in coefs[1:]:
        t2k = t2k * t2
        out *= u
        out += (c * ck) * t2k
    r = u + t2
    np.divide(1.0, r, out=r)
    if odd:
        out *= np.sqrt(r)
    while True:  # out * r^power by repeated squaring
        if power & 1:
            out *= r
        power >>= 1
        if not power:
            break
        r *= r
    if par:
        out *= t
    return out.reshape(shape)[()]


def dt_poisson_ut(j, u, t, n):
    """Exact ``d^j/dt^j P`` evaluated at ``u = |x|^2``, height ``t``."""
    return _dt_values(j, u, t, n, 1.0)


def q_m_values(u, tau, n, m):
    """Batched ``Q_m`` as a function of ``u = |x - y|^2``, ``tau = t + s``."""
    if m < 0 or int(m) != m:
        raise DomainError("m must be a nonnegative integer")
    return _dt_values(m + 1, u, tau, n, (-2.0) ** (m + 1) / math.factorial(m))


def q_m(z: HalfPoint, w: HalfPoint, spec):
    """``Q_m(z, w)`` for half-space points ``z = (x, t)``, ``w = (y, s)``."""
    if spec.domain != "halfspace":
        raise DomainError("q_m needs a half-space kernel spec")
    if z.n != spec.n or w.n != spec.n:
        raise DomainError("kernel spec / point dimension mismatch")
    diff = z.y - w.y
    u = float(np.dot(diff, diff))
    return float(q_m_values(u, z.s + w.s, spec.n, spec.m))


def q_m_bound_values(u, tau, n, m):
    """Envelope ``(u + tau^2)^{-(n+m+1)/2}``."""
    u = np.asarray(u, dtype=float)
    tau = np.asarray(tau, dtype=float)
    return (u + tau * tau) ** (-0.5 * (n + m + 1))


def q_m_bound(z: HalfPoint, w: HalfPoint, spec):
    """Size envelope ``[|x-y|^2 + (t+s)^2]^{-(n+m+1)/2}`` for ``Q_m``."""
    if spec.domain != "halfspace":
        raise DomainError("q_m_bound needs a half-space kernel spec")
    diff = z.y - w.y
    u = float(np.dot(diff, diff))
    return float(q_m_bound_values(u, z.s + w.s, spec.n, spec.m))
