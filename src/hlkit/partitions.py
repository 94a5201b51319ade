"""Integer partitions and the standard t-statistics attached to them.

Partitions are plain tuples of weakly decreasing positive ints; the
empty partition is ().  Functions accept any iterable of nonnegative
ints where a partition is expected and normalize first, but a vector
argument that is genuinely out of order is rejected by is_partition
checks at the call sites that need strictness.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .laurent import LaurentPoly, ZERO as L_ZERO, ONE as L_ONE


def normalize(parts):
    """Sort descending and strip zeros; does not reorder-check."""
    return tuple(sorted((int(p) for p in parts if int(p) != 0), reverse=True))


def is_partition(parts):
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        return False
    core = [p for p in parts if p]
    if any(p == 0 for p in parts[: len(core)]):
        return False
    return all(core[i] >= core[i + 1] for i in range(len(core) - 1))


def parse_partition(text):
    """Parse '4,4,3,2' / '4 4 3 2' / '[4,4,3,2]' / '4^2 3 2' / 'empty'."""
    text = text.strip().strip("[]()")
    if text in ("", "empty", "0", "-"):
        return ()
    parts = []
    for tok in text.replace(",", " ").split():
        if "^" in tok:
            base, _, mult = tok.partition("^")
            parts.extend([int(base)] * int(mult))
        else:
            parts.append(int(tok))
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in partition {text!r}")
    lam = tuple(sorted(parts, reverse=True))
    lam = tuple(p for p in lam if p)
    return lam


def format_partition(lam):
    return "[" + ",".join(str(p) for p in lam) + "]" if lam else "[]"


def conjugate(lam):
    lam = normalize(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def n_stat(lam):
    """Sum of (i-1) * lam_i, rows indexed from 1."""
    lam = normalize(lam)
    return sum(i * p for i, p in enumerate(lam))


def n_skew(lam, mu):
    """Column statistic of a skew shape: sum over columns of C(diff, 2).

    Defined for any pair with mu contained in lam; the column lengths of
    lam and mu are both measured with the conjugate.
    """
    lam, mu = normalize(lam), normalize(mu)
    if not contains(lam, mu):
        raise ValueError("inner shape is not contained in the outer one")
    lc, mc = conjugate(lam), conjugate(mu)
    mc = mc + (0,) * (len(lc) - len(mc))
    return sum(comb(a - b, 2) for a, b in zip(lc, mc))


def contains(lam, mu):
    """True when mu fits inside lam row by row."""
    lam, mu = normalize(lam), normalize(mu)
    if len(mu) > len(lam):
        return False
    return all(m <= l for l, m in zip(lam, mu))


def is_horizontal_strip(lam, mu):
    """lam/mu has at most one box per column: lam_i >= mu_i >= lam_{i+1}."""
    lam, mu = normalize(lam), normalize(mu)
    if not contains(lam, mu):
        return False
    mu = mu + (0,) * (len(lam) - len(mu))
    return all(mu[i] >= lam[i + 1] for i in range(len(lam) - 1))


def is_vertical_strip(lam, mu):
    return is_horizontal_strip(conjugate(lam), conjugate(mu))


def multiplicities(lam):
    """Dict part value -> multiplicity, zero part excluded."""
    out = {}
    for p in normalize(lam):
        out[p] = out.get(p, 0) + 1
    return out


@cache
def b_poly(lam):
    """prod over part values of (1-t)(1-t^2)...(1-t^{mult}).

    The norm making the two standard Hall-Littlewood normalizations
    proportional: Q = b * P.
    """
    lam = normalize(lam)
    res = L_ONE
    for mult in multiplicities(lam).values():
        for j in range(1, mult + 1):
            res = res * (L_ONE - LaurentPoly.t_power(j))
    return res


@cache
def t_factorial(m):
    res = L_ONE
    for j in range(1, m + 1):
        res = res * (L_ONE - LaurentPoly.t_power(j))
    return res


@cache
def t_binomial(m, a):
    """Gaussian binomial coefficient [m choose a] as a polynomial in t."""
    if a < 0 or a > m:
        return L_ZERO
    return t_factorial(m).exact_div(t_factorial(a) * t_factorial(m - a))


def suffix_nonneg(v):
    """True when every trailing sum of v is >= 0."""
    s = 0
    for x in reversed(v):
        s += x
        if s < 0:
            return False
    return True


def partitions_of(m, max_length=None, max_part=None):
    """All partitions of m, as tuples, length/part bounded when asked."""
    if m < 0:
        return []
    out = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if max_length is not None and len(prefix) >= max_length:
            return
        top = min(remaining, largest)
        for p in range(top, 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    first = m if max_part is None else min(m, max_part)
    rec(m, first if m else 0, [])
    return out


def partitions_up_to(m, max_length=None, max_part=None):
    out = []
    for d in range(m + 1):
        out.extend(partitions_of(d, max_length=max_length, max_part=max_part))
    return out


def subpartitions(lam):
    """All mu contained in lam, sorted by size then lex."""
    lam = normalize(lam)
    out = []

    def rec(i, prev, prefix):
        out.append(tuple(prefix))
        if i == len(lam):
            return
        for p in range(min(lam[i], prev), 0, -1):
            prefix.append(p)
            rec(i + 1, p, prefix)
            prefix.pop()

    rec(0, lam[0] if lam else 0, [])
    return sorted(out, key=lambda m: (sum(m), m))


def dominance_leq(mu, lam):
    """mu <= lam in dominance order (same size assumed)."""
    mu, lam = normalize(mu), normalize(lam)
    k = max(len(mu), len(lam))
    mu = mu + (0,) * (k - len(mu))
    lam = lam + (0,) * (k - len(lam))
    s1 = s2 = 0
    for a, b in zip(mu, lam):
        s1 += a
        s2 += b
        if s1 > s2:
            return False
    return True
