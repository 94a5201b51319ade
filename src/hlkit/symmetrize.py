"""Isobaric divided differences, straightening, and the truncation kernel.

The central objects:

  * pi_i:  f -> (x_i f - x_{i+1} f^{s_i}) / (x_i - x_{i+1}), exact on
    Laurent input; pi_omega is the longest composition, as a
    bialternant quotient (the reduced-word product is the test oracle
    `pi_omega_via_word` in tests/oracles.py).
  * straighten_schur: the Schur value of an arbitrary integer exponent
    vector, as the right fold of the one-step rule that prepends one
    entry to a partition (the rule `kernel_schur` reads; the exchange
    rule is the test oracle `straighten_schur_by_exchange` in
    tests/oracles.py).
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
    `kernel_schur_by_columns` in tests/oracles.py.  Each row H_m s_lam
    (its strips and straightening) is built once per memo lifetime, so
    the Q' of many vectors share their rows; see `kernel_schur`.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations, product
from operator import index

from .laurent import LaurentPoly
from .xpoly import XPoly, _linear_combination, xvars


def swap_si(f, i, n):
    """Exchange x_i and x_{i+1} (1-based) over the first n x-variables."""
    perm = list(range(n))
    perm[i - 1], perm[i] = i, i - 1
    return f.permute_exponents(perm, vars=xvars(n))


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
        (g.permute_exponents(p, vars), (-1) ** sum(a > b for a, b in combinations(p, 2)))
        for p in permutations(range(n))
    )
    for i in range(n):
        for j in range(i + 1, n):
            acc = acc.exact_div_diff(vars[i], vars[j])
    return acc


def _prepend(h, nu):
    """Schur value of (h, nu) for a partition nu, trailing zeros allowed:
    None for zero, else (sign, lam).  Only h moves; see `kernel_schur`."""
    p = 0
    for i, x in enumerate(nu, 1):
        if x - i < h:
            break
        if x - i == h:
            return None
        p += 1
    if h + p < 0:
        return None
    lam = (*[x - 1 for x in nu[:p]], h + p, *nu[p:])
    return (-1 if p & 1 else 1, lam[: len(lam) - lam.count(0)])  # zeros trail


def straighten_schur(v):
    """Schur value of an integer vector: None for zero, else (sign, lam).

    The right fold of the one-step rule `_prepend`: straighten v[1:],
    then prepend v[0].
    """
    sign, lam = 1, ()
    for h in reversed(tuple(v)):
        st = _prepend(h, lam)
        if st is None:
            return None
        sign, lam = sign * st[0], st[1]
    return (sign, lam)


@cache
def _creation_row(m, lam):
    """H_m s_lam for a partition lam, as its nonzero terms (mu, j, sign):
    s_{(m+j, nu)} straightened to sign * s_mu, one term per horizontal
    j-strip lam/nu (see `kernel_schur`).  Each (mu, j) occurs once."""
    size = sum(lam)
    row = []
    for nu in product(*(range(b, p + 1) for p, b in zip(lam, lam[1:] + (0,)))):
        j = size - sum(nu)
        st = _prepend(m + j, nu)
        if st is not None:
            row.append((st[1], j, st[0]))
    return tuple(row)


@cache
def _kernel_schur_cached(u):
    # terms holds H_{u_k} ... H_{u_n} . 1 in the Schur basis, k falling,
    # each coefficient a flat {power of t: int}.
    terms = {(): {0: 1}}
    for m in reversed(u):
        new = {}
        for lam, c in terms.items():
            for mu, j, sign in _creation_row(m, lam):
                acc = new.setdefault(mu, {})
                if sign > 0:
                    for s, v in c.items():
                        acc[s + j] = acc.get(s + j, 0) + v
                else:
                    for s, v in c.items():
                        acc[s + j] = acc.get(s + j, 0) - v
        terms = {mu: c for mu, acc in new.items() if (c := {s: v for s, v in acc.items() if v})}
    return tuple(sorted((lam, LaurentPoly._trusted(c)) for lam, c in terms.items()))


def kernel_schur(u):
    """Schur coefficients of the truncated symmetrization of x^u against
    the geometric kernel prod_{i<j} (1 - t x_i/x_j)^{-1}; for a partition
    u this is the modified Hall-Littlewood polynomial Q'_u.

    Computed as H_{u_1} ... H_{u_n} . 1, applying H_{u_n} first, with
    the creation operator in Bernstein form

        H_m s_lam = sum_{j>=0} t^j sum_{lam/nu a horizontal j-strip} s_{(m+j, nu)},

    where nu runs over lam_{i+1} <= nu_i <= lam_i.  It is exact because
    H_m is the z^m coefficient of F[X - (1-t)/z] Omega[zX]: removing the
    strips is F[X + t/z], and prepending m+j with straightening is the
    Bernstein operator, the z^(m+j) part of F[X - 1/z] Omega[zX].

    Since nu is a partition, s_{(h, nu)} straightens in one step, in
    which only h moves: with p = #{i : nu_i - i > h} it is zero if some
    nu_i - i = h or if h + p < 0, and otherwise
    (-1)^p s_{(nu_1 - 1, ..., nu_p - 1, h + p, nu_{p+1}, ...)}.  Each
    coefficient is a flat {power of t: int} during the steps, so t^j is
    a shift of the keys; zeros are dropped once per step.

    The strips and straightening of one H_m s_lam depend only on m and
    lam, not on the rest of u, so they are kept as a row of signed terms
    (mu, j, sign) in the memo `_creation_row`, keyed by (m, lam): the
    same lam meets other operators H_m in other vectors, and the row of
    one m is not the row of another.  A step then only reads rows and
    adds shifted coefficients.  The Q' of all partitions of 10 read 745
    rows but build only 211.
    """
    u = tuple(map(index, u))
    return dict(_kernel_schur_cached(u))
