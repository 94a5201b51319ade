"""Isobaric divided differences, straightening, and the truncation kernel.

The central objects:

  * pi_i:  f -> (x_i f - x_{i+1} f^{s_i}) / (x_i - x_{i+1}), exact on
    Laurent input; pi_omega is the longest composition, as a
    bialternant quotient (the reduced-word product is the test oracle
    `pi_omega_via_word` in tests/oracles.py).
  * straighten_schur: the Schur value of an arbitrary integer exponent
    vector, via the shifted-sort rule (the exchange rule is the test
    oracle `straighten_schur_by_exchange` in tests/oracles.py).
  * truncate + straighten: keep only monomials whose exponent vector
    has every trailing sum >= 0, then read each kept monomial as a
    straightened Schur value.  On dropped monomials the straightened
    value is always zero.  The map on explicit polynomials is the test
    oracle `to_schur` in tests/oracles.py.
  * kernel_schur: Schur expansion of x^u * prod_{i<j} 1/(1 - t x_i/x_j)
    after truncation, computed with creation operators,
    Q'_u = H_{u_1} ... H_{u_n} . 1, where H_m is the z^m coefficient
    of the alphabet shift F[X - (1-t)/z] Omega[zX].  Truncating against
    the kernel is the raising-operator formula
    prod_{i<j} (1 - t R_ij)^{-1} s_u, whose factors with i = 1 act as
    H_{u_1} (Garsia 1992), so the two agree on every integer vector;
    the column-by-column enumeration of the kernel is the test oracle
    `kernel_schur_by_columns` in tests/oracles.py.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product

from .laurent import ONE as L_ONE, _accumulate
from .xpoly import XPoly, _linear_combination, xvars


def _parity_sign(perm):
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        ln = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


def swap_si(f, i, n):
    """Exchange x_i and x_{i+1} (1-based) over the first n x-variables."""
    return f.swap_positions(i - 1, i, vars=xvars(n))


def pi_i(f, i, n):
    """Isobaric divided difference on Laurent input, exact division."""
    vars = xvars(n)
    xi = XPoly.var(vars[i - 1])
    xi1 = XPoly.var(vars[i])
    num = xi * f - xi1 * swap_si(f, i, n)
    return num.exact_div_diff(vars[i - 1], vars[i])


def pi_omega(f, n):
    """Longest isobaric divided difference, as a bialternant quotient.

    Antisymmetrize f * x^delta over S_n and divide by the Vandermonde
    product; agrees with the reduced-word composition (the test oracle
    `pi_omega_via_word` in tests/oracles.py) on all Laurent input and
    sends x^lam to the Schur polynomial S_lam.
    """
    vars = xvars(n)
    delta = tuple(n - 1 - i for i in range(n))
    g = f * XPoly.monomial(vars, delta)
    acc = _linear_combination(
        (g.permute_exponents(perm, vars=vars), _parity_sign(perm))
        for perm in permutations(range(n))
    )
    for i in range(n):
        for j in range(i + 1, n):
            acc = acc.exact_div_diff(vars[i], vars[j])
    return acc


def straighten_schur(v):
    """Schur value of an integer vector: None for zero, else (sign, lam).

    Shift by the staircase, kill repeats and negatives, sort back.
    """
    v = tuple(v)
    n = len(v)
    if n == 0:
        return (1, ())
    w = [v[i] + (n - 1 - i) for i in range(n)]
    if len(set(w)) != n or min(w) < 0:
        return None
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] < w[j])
    ws = sorted(w, reverse=True)
    lam = tuple(ws[i] - (n - 1 - i) for i in range(n))
    lam = tuple(p for p in lam if p)
    return (-1 if inv % 2 else 1, lam)


@cache
def _kernel_schur_cached(u):
    # terms holds H_{u_k} ... H_{u_n} . 1 in the Schur basis, k falling.
    terms = {(): L_ONE}
    for m in reversed(u):
        new = {}
        for lam, c in terms.items():
            size = sum(lam)
            for nu in product(*(range(b, p + 1) for p, b in zip(lam, lam[1:] + (0,)))):
                j = size - sum(nu)
                st = straighten_schur((m + j,) + nu)
                if st is not None:
                    sign, mu = st
                    _accumulate(new, mu, c.shift(j) if sign > 0 else -c.shift(j))
        terms = new
    return tuple(sorted(terms.items()))


def kernel_schur(u):
    """Schur coefficients of the truncated symmetrization of x^u against
    the geometric kernel prod_{i<j} (1 - t x_i/x_j)^{-1}; for a partition
    u this is the modified Hall-Littlewood polynomial Q'_u.

    Computed as H_{u_1} ... H_{u_n} . 1, applying H_{u_n} first, with
    the creation operator in Bernstein form

        H_m s_lam = sum_{j>=0} t^j sum_{lam/nu a horizontal j-strip} s_{(m+j, nu)},

    where nu runs over lam_{i+1} <= nu_i <= lam_i and s_{(m+j, nu)} is
    read by `straighten_schur`.  It is exact because H_m is the z^m
    coefficient of F[X - (1-t)/z] Omega[zX]: removing the strips is
    F[X + t/z], and prepending m+j with straightening is the Bernstein
    operator, the z^(m+j) part of F[X - 1/z] Omega[zX].
    """
    u = tuple(int(x) for x in u)
    return dict(_kernel_schur_cached(u))
