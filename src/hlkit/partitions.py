"""Integer partitions and the standard t-statistics attached to them.

Partitions are plain tuples of weakly decreasing positive ints; the
empty partition is ().  A partition is made once, where it enters the
library: `normalize` sorts a list of nonnegative ints, drops its zeros
and refuses a negative or non-int part, and the entry points
(`parse_partition` here, the public functions of `hall_littlewood`,
`identities` and `tableaux` that take a partition from a caller) call
it.  The four helpers that the package exports, `conjugate`, `n_stat`,
`n_skew` and `b_poly`, read the parts in any order, zeros included, give
the value of the sorted partition and refuse a negative or non-int
part as `normalize` does; every other helper here takes a partition as
it is and does not sort it again.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import zip_longest
from math import comb, prod
from operator import ge, index

from .laurent import LaurentPoly, ZERO as L_ZERO, ONE as L_ONE, _unpack


def normalize(parts):
    """The partition of a list of nonnegative ints: sorted descending,
    zeros dropped.  A negative part raises ValueError and a part that is
    not an int (a float) TypeError."""
    return tuple(p for p in _descending(parts) if p)


def _descending(parts):
    """The parts sorted descending, zeros kept; a negative part raises
    ValueError and a part that is not an int (a float) TypeError."""
    parts = sorted(map(index, parts), reverse=True)
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part {parts[-1]}: partitions have nonnegative parts")
    return parts


def is_partition(parts):
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        return False
    core = [p for p in parts if p]
    if any(p == 0 for p in parts[: len(core)]):
        return False
    return all(core[i] >= core[i + 1] for i in range(len(core) - 1))


_SEPARATOR = re.compile(r"\s*,\s*|\s+")
_ENTRY = re.compile(r"([+-]?\d+)(?:\^(\d+))?")
# The most entries one integer list may expand to.  The repeat counts
# are totalled before the list is built, so `1^1000000000` is refused
# at once instead of asking for gigabytes.
MAX_LIST_LENGTH = 10**6
# The most digits an entry or a repeat count may be written with.
# Longer text is refused before it is converted: Python converts at most
# 4300 digits to an int, and no route here can use a number near 10^100.
MAX_DIGITS = 100


def parse_ints(text):
    """The one grammar for integer lists: partitions, vectors, weights
    and words all read their text here.

    Commas and/or whitespace separate entries; `a^m` repeats `a` m >= 0
    times; one matching `[]` or `()` pair may enclose the list; '', '-'
    and 'empty' are the empty list.  So '[0 2^2, 1]' is (0, 2, 2, 1).
    An empty field, a bad repeat, a number written with more than
    MAX_DIGITS digits, a list of more than MAX_LIST_LENGTH entries, an
    unbalanced bracket or a non-integer raises ValueError quoting the
    text.
    """
    body = text.strip()
    if body[:1] in ("[", "(") or body[-1:] in ("]", ")"):
        if len(body) < 2 or body[0] + body[-1] not in ("[]", "()"):
            raise ValueError(f"unbalanced bracket in {text!r}")
        body = body[1:-1].strip()
    if body in ("", "-", "empty"):
        return ()
    runs = []
    for field in _SEPARATOR.split(body):
        if not field:
            raise ValueError(f"empty entry in {text!r}; write 0 for a zero entry")
        m = _ENTRY.fullmatch(field)
        if m is None:
            raise ValueError(f"bad entry {field!r} in {text!r}; write a or a^m, m >= 0")
        if any(len(g.lstrip("+-")) > MAX_DIGITS for g in m.groups("")):
            raise ValueError(f"{text!r} has a number of more than {MAX_DIGITS} digits")
        runs.append((int(m[1]), int(m[2]) if m[2] else 1))
    if sum(count for _, count in runs) > MAX_LIST_LENGTH:
        raise ValueError(f"{text!r} has more than {MAX_LIST_LENGTH} entries")
    out = []
    for a, count in runs:
        out += [a] * count
    return tuple(out)


def parse_parts(text):
    """`parse_ints(text)` with every entry nonnegative, in the order given."""
    parts = parse_ints(text)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {text!r}")
    return parts


def parse_partition(text):
    """The partition of `parse_parts(text)`: sorted, zero parts dropped."""
    return normalize(parse_parts(text))


def conjugate(lam):
    """The conjugate partition; the parts may come in any order, zeros
    included; a negative part raises ValueError and a float TypeError."""
    lam = _descending(lam)
    out, k = [], len(lam)
    for j in range(1, lam[0] + 1 if lam else 1):
        while lam[k - 1] < j:
            k -= 1
        out.append(k)
    return tuple(out)


def n_stat(lam):
    """Sum of (i-1) * lam_i, rows indexed from 1; the parts may come in
    any order, zeros included; a negative part raises ValueError and a
    float TypeError."""
    return sum(i * p for i, p in enumerate(_descending(lam)))


def n_skew(lam, mu):
    """Column statistic of a skew shape: sum over columns of C(diff, 2).

    Defined for any pair with mu contained in lam, the parts of each in
    any order, zeros included; the column lengths of lam and mu are
    both measured with the conjugate, which refuses a negative or float
    part.
    """
    cols = list(zip_longest(conjugate(lam), conjugate(mu), fillvalue=0))
    if any(a < b for a, b in cols):
        raise ValueError("inner shape is not contained in the outer one")
    return sum(comb(a - b, 2) for a, b in cols)


def contains(lam, mu):
    """True when the partition mu fits inside the partition lam row by row."""
    return len(mu) <= len(lam) and all(map(ge, lam, mu))


def is_horizontal_strip(lam, mu):
    """lam/mu has at most one box per column: lam_i >= mu_i >= lam_{i+1}."""
    if not contains(lam, mu):
        return False
    mu = mu + (0,) * (len(lam) - len(mu))
    return all(mu[i] >= lam[i + 1] for i in range(len(lam) - 1))


def multiplicities(lam):
    """Dict part value -> multiplicity, zero part excluded."""
    out = {}
    for p in lam:
        if p:
            out[p] = out.get(p, 0) + 1
    return out


@cache
def b_poly(lam):
    """prod over part values of (1-t)(1-t^2)...(1-t^{mult}).

    The norm making the two standard Hall-Littlewood normalizations
    proportional: Q = b * P.  The parts may come in any order, zeros
    included; a negative part raises ValueError and a float TypeError.
    """
    return prod(map(t_factorial, multiplicities(_descending(lam)).values()), start=L_ONE)


@cache
def t_factorial(m):
    res = L_ONE
    for j in range(1, m + 1):
        res = res * (L_ONE - LaurentPoly.t_power(j))
    return res


@cache
def t_binomial(m, a):
    """Gaussian binomial coefficient [m choose a] as a polynomial in t.

    Built by the q-Pascal rule [j, i] = [j-1, i-1] + t^i [j-1, i], with
    no division: one column of ints [j, 0..a] at t = 2^w, a = min(a, m - a),
    updated in place with i falling for j = 1..m, skipping the i below
    a - (m - j), which never reach [m, a].  Every coefficient of every
    [j, i] is nonnegative and at most C(j, i) <= C(m, a), so at the width
    w = C(m, a).bit_length() + 1 the packed [m, a] reads back exactly as
    balanced digits (`laurent._unpack`)."""
    if a < 0 or a > m:
        return L_ZERO
    a = min(a, m - a)
    if not a:
        return L_ONE
    w = comb(m, a).bit_length() + 1
    col = [1] + [0] * a
    for j in range(1, m + 1):
        for i in range(min(j, a), max(0, a - m + j - 1), -1):
            col[i] = col[i - 1] + (col[i] << w * i)
    return LaurentPoly._trusted(dict(_unpack(col[a], w)))


def suffix_nonneg(v):
    """True when every trailing sum of v is >= 0."""
    s = 0
    for x in reversed(v):
        s += x
        if s < 0:
            return False
    return True


def partitions_of(m, max_length=None):
    """All partitions of m, as tuples, of at most `max_length` parts if given."""
    if m < 0:
        return []
    if m == 0:
        return [()]
    out = []
    rows = m if max_length is None else max_length
    _partitions_into(out, m, m, (), rows)
    return out


def _partitions_into(out, remaining, largest, prefix, rows):
    """Append to `out` the partitions of `remaining` into parts <= largest
    after `prefix`, at most `rows` parts in all.  A module-level function,
    not a closure, so that no reference cycle keeps `out` alive."""
    room = rows - len(prefix)
    if room <= 0:
        return
    for p in range(min(remaining, largest), 1, -1):
        if p == remaining:
            out.append(prefix + (p,))
        else:
            _partitions_into(out, remaining - p, p, prefix + (p,), rows)
    if largest > 0 and remaining <= room:  # the tail of ones
        out.append(prefix + (1,) * remaining)


def partitions_up_to(m, max_length=None):
    out = []
    for d in range(m + 1):
        out.extend(partitions_of(d, max_length=max_length))
    return out


def subpartitions(lam):
    """All mu contained in lam, sorted by size then lex.

    Built one row at a time: the mu of length i + 1 are those of
    length i, each extended by a part 1..min(lam[i], its last part)."""
    out, layer = [()], [()]
    for part in lam:
        layer = [
            mu + (p,) for mu in layer for p in range(1, min(part, mu[-1] if mu else part) + 1)
        ]
        out += layer
    return sorted(out, key=lambda m: (sum(m), m))


def dominance_leq(mu, lam):
    """mu <= lam in dominance order (same size assumed)."""
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
