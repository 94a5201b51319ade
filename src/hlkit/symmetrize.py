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
    value is always zero, which is what makes the truncated kernel
    enumeration below exact.  The map on explicit polynomials is the
    test oracle `to_schur` in tests/oracles.py.
  * kernel_schur: Schur expansion of x^u * prod_{i<j} 1/(1 - t x_i/x_j)
    after truncation, by a column-by-column bounded enumeration.  Once
    column j is done, positions j..n never change again, so that tail
    is straightened at once and terms with the same straightened tail
    merge before the next column; the column enumeration without this
    step is the test oracle `kernel_schur_by_columns` in
    tests/oracles.py.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

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
    n = len(u)
    if sum(u) < 0:
        return ()
    terms = {u: L_ONE}
    for j in range(n, 1, -1):
        for i in range(j - 1, 0, -1):
            new = {}
            for v, c in terms.items():
                s = sum(v[j - 1 :])
                if s < 0:
                    continue
                for k in range(s + 1):
                    w = list(v)
                    w[i - 1] += k
                    w[j - 1] -= k
                    _accumulate(new, tuple(w), c.shift(k))
            terms = new
        # Positions j..n are final: move position j into the already
        # straightened tail j+1..n by exchanges (a, b) -> -(b-1, a+1).
        new = {}
        for v, c in terms.items():
            head = v[j - 1] + n - j
            k = j
            while k < n and v[k] + n - 1 - k > head:
                k += 1
            if head < 0 or (k < n and v[k] + n - 1 - k == head):
                continue
            w = v[: j - 1] + tuple(x - 1 for x in v[j:k]) + (head - n + k,) + v[k:]
            _accumulate(new, w, -c if (k - j) % 2 else c)
        terms = new
    out = {}
    for v, c in terms.items():
        st = straighten_schur(v)
        if st is not None:
            sign, lam = st
            _accumulate(out, lam, c if sign > 0 else -c)
    return tuple(sorted(out.items()))


def kernel_schur(u):
    """Schur coefficients of the truncated symmetrization of x^u against
    the geometric kernel prod_{i<j} (1 - t x_i/x_j)^{-1}.

    Column j is finished before column j-1 starts, so the trailing sum
    at j is monotone within its column; a term whose trailing sum goes
    negative can never straighten to a nonzero value and is pruned, and
    the transfer at each factor is capped by the current trailing sum
    for the same reason.  For a partition argument this is the modified
    Hall-Littlewood polynomial in the Schur basis.

    After column j, positions j..n are final, so the tail is straightened
    right away: position j moves into the already sorted tail by
    exchanges (a, b) -> -(b-1, a+1), one sign per position passed, and
    the term is dropped where two shifted values meet or one is
    negative.  Straightening is a signed sort of the shifted values, so
    sorting a part of the vector first and the rest later gives the same
    Schur value and sign; and the tail keeps its sum, so the cap of
    every later column is unchanged.  Terms that reach the same tail
    merge, which keeps the term dict small.
    """
    u = tuple(int(x) for x in u)
    return dict(_kernel_schur_cached(u))
