"""Isobaric divided differences, straightening, and the truncation kernel.

The central objects:

  * pi_i:  f -> (x_i f - x_{i+1} f^{s_i}) / (x_i - x_{i+1}), exact on
    Laurent input; pi_omega is the longest composition, realized two
    independent ways (bialternant quotient, reduced-word product).
  * straighten_schur: the Schur value of an arbitrary integer exponent
    vector, via the shifted-sort rule, with an exchange-rule oracle.
  * truncate + straighten: keep only monomials whose exponent vector
    has every trailing sum >= 0, then read each kept monomial as a
    straightened Schur value.  On dropped monomials the straightened
    value is always zero, which is what makes the truncated kernel
    enumeration below exact.
  * kernel_schur: Schur expansion of x^u * prod_{i<j} 1/(1 - t x_i/x_j)
    after truncation, by a column-by-column bounded enumeration.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

from .laurent import ONE as L_ONE, _accumulate
from .partitions import suffix_nonneg
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


def longest_word(n):
    """Reduced word for the longest permutation: (1),(2,1),...,(n-1,...,1)."""
    word = []
    for k in range(1, n):
        word.extend(range(k, 0, -1))
    return tuple(word)


def pi_omega_via_word(f, n):
    for i in longest_word(n):
        f = pi_i(f, i, n)
    return f


def pi_omega(f, n):
    """Longest isobaric divided difference, as a bialternant quotient.

    Antisymmetrize f * x^delta over S_n and divide by the Vandermonde
    product; agrees with the reduced-word composition on all Laurent
    input and sends x^lam to the Schur polynomial S_lam.
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


def truncate_suffix_nonneg(f, n):
    """Keep only monomials whose x-exponent vector has all trailing sums >= 0."""
    vars = xvars(n)
    terms = f._expand_to(vars)
    kept = {e: c for e, c in terms.items() if suffix_nonneg(e)}
    return XPoly(vars, kept)


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


def straighten_schur_by_exchange(v, max_steps=100000):
    """Same value by the local exchange rule; an independent oracle.

    While some adjacent pair ascends: equal-plus-one kills the value,
    otherwise exchange the pair as (b-1, a+1) and flip the sign.  A
    trailing negative entry kills the value at any time.
    """
    v = list(v)
    sign = 1
    for _ in range(max_steps):
        if v and v[-1] < 0:
            return None
        i = next((k for k in range(len(v) - 1) if v[k] < v[k + 1]), None)
        if i is None:
            if any(p < 0 for p in v):
                return None
            return sign, tuple(p for p in v if p)
        a, b = v[i], v[i + 1]
        if b == a + 1:
            return None
        v[i], v[i + 1] = b - 1, a + 1
        sign = -sign
    raise RuntimeError("exchange straightening did not terminate")


def to_schur(f, n):
    """Truncate-and-straighten image of f in the Schur basis.

    Returns {partition: LaurentPoly}.  This is the polynomial part
    operator: monomials failing the trailing-sum test contribute zero
    (their straightened value vanishes identically), every kept
    monomial is read off as a straightened Schur value.
    """
    vars = xvars(n)
    terms = f._expand_to(vars)
    out = {}
    for e, c in terms.items():
        if not suffix_nonneg(e):
            continue
        st = straighten_schur(e)
        if st is None:
            continue
        sign, lam = st
        _accumulate(out, lam, c if sign > 0 else -c)
    return out


def schur_dict_to_xpoly(coeffs, n):
    """Rebuild sum coeffs[lam] * S_lam(x_1..x_n) as an explicit XPoly."""
    from .alphabets import schur_on_xvars

    return _linear_combination(
        (schur_on_xvars(lam, n), c) for lam, c in coeffs.items()
    )


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
    """
    u = tuple(int(x) for x in u)
    return dict(_kernel_schur_cached(u))
