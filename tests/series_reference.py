"""Series solution of a linear Caputo q-fractional Cauchy problem.

For rhs(t, u) = lam u + g(t), g = sum_j c_j t**mu_j, at a = 0 the fixed
point of u = zeta + J^alpha rhs(., u) is the Neumann series

    u = sum_n lam**n J^(n alpha) [zeta + J^alpha g],

and J^beta maps a power to a power (Q = q**p):

    J^beta t**mu = [p]_q**(-beta) Gamma_Q(mu/p + 1)
                   / Gamma_Q(mu/p + beta + 1) t**(mu + p beta).

`linear_series` sums the series' coefficients term by term, with the
q-Gamma of `kernel_reference`; the Picard solver's tables are compared
with it.
"""

from __future__ import annotations

import numpy as np

from kernel_reference import q_gamma
from qfrac.qcore import q_number


def _integral(coef: float, mu: float, beta: float, q: float,
              p: float) -> tuple[float, float]:
    """J^beta (coef t**mu) as (coefficient, exponent)."""
    Q = q**p
    return (coef * q_number(p, q) ** -beta * q_gamma(mu / p + 1.0, Q)
            / q_gamma(mu / p + beta + 1.0, Q), mu + p * beta)


def linear_series(lam: float, g: list[tuple[float, float]], zeta: float,
                  alpha: float, q: float, p: float):
    """u = sum_n lam**n J^(n alpha)[zeta + J^alpha g] on (0, 1] as a
    function of a node array, g given by its (c_j, mu_j). The sum stops
    after three successive n whose terms are at most 1e-18 of the partial
    sum at t = 1, where every power is largest."""
    seed = [(zeta, 0.0)] + [_integral(c, mu, alpha, q, p) for c, mu in g]
    terms, at_one, small = [], 0.0, 0
    for n in range(10_000):
        term = [_integral(lam**n * c, mu, n * alpha, q, p) for c, mu in seed]
        terms += term
        size = sum(abs(c) for c, _ in term)
        at_one += sum(c for c, _ in term)
        small = small + 1 if size <= 1e-18 * abs(at_one) else 0
        if small == 3:
            return lambda t: sum(c * np.asarray(t) ** e for c, e in terms)
    raise AssertionError("the series did not settle in 10,000 terms")
