"""Semistandard tableaux, reading words, charge, and layered shapes.

Tableaux are stored in English convention as tuples of row tuples,
rows[0] being the longest row.  The reading word concatenates the rows
from the bottom row up, so the longest row comes last; charge is
computed on such words.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache

from .partitions import is_partition, normalize, subpartitions


class NonDominantWeightError(ValueError):
    """Charge asked for a word whose letter counts are not a partition."""


def word_weight(word, nletters=None):
    """Letter multiplicities of a word over {1, 2, ...}."""
    m = max(word, default=0) if nletters is None else nletters
    out = [0] * m
    for a in word:
        if a < 1 or a > m:
            raise ValueError(f"letter {a} out of range 1..{m}")
        out[a - 1] += 1
    return tuple(out)


def enumerate_ssyt(shape, weight=None, nletters=None):
    """All semistandard tableaux of the given shape, in lexicographic order.

    With `weight`, entries have exactly those multiplicities (letter i
    appears weight[i-1] times); otherwise any filling with entries in
    1..nletters.  Rows weakly increase, columns strictly increase.

    Letters are placed one at a time: letter i fills a horizontal strip
    at the ends of the rows (at most one box per column), of exactly
    weight[i-1] boxes or of any size that fits.  A strip never leaves a
    column taller than the letters still to come can fill.
    """
    shape = normalize(shape)
    if weight is not None:
        weight = tuple(int(w) for w in weight)
        if sum(shape) != sum(weight):
            return []
        nletters = len(weight)
    elif nletters is None:
        raise ValueError("need a weight or a letter bound")
    elif nletters < 0:
        raise ValueError(f"letter bound must be nonnegative, got {nletters}")
    if shape and len(shape) > nletters:
        return []
    if nletters <= 0:
        return [()]
    ell = len(shape)
    top = shape[0] if shape else 0
    rows = [[] for _ in shape]
    results = []

    def place(v, r, above, left):
        """Put letter v at the ends of rows r, r+1, ...: `above` is the
        length row r-1 had before letter v, `left` the boxes of v still
        to place (None when free)."""
        if r == ell or r == v:
            if left:
                return
            if v == nletters:
                results.append(tuple(map(tuple, rows)))
            else:
                place(v + 1, 0, top, None if weight is None else weight[v])
            return
        row = rows[r]
        have = len(row)
        later = r + nletters - v
        lo = max(have, shape[later] if later < ell else 0)
        hi = min(shape[r], above)
        if left is not None:
            hi = min(hi, have + left)
        for new in range(hi, lo - 1, -1):
            row.extend([v] * (new - have))
            place(v, r + 1, have, None if left is None else left - new + have)
            del row[have:]

    place(1, 0, top, None if weight is None else weight[0])
    del place  # break the closure's cycle: `results` is freed with its last user
    results.sort()
    return results


def reading_word(tab):
    """Bottom row first, longest row last."""
    out = []
    for row in reversed(tab):
        out.extend(row)
    return tuple(out)


def charge(word):
    """Charge statistic of a word whose weight is a partition.

    Repeatedly extracts a standard subword: take the rightmost 1, then
    scan circularly leftward for a 2, then a 3, and so on while a next
    letter remains; the subword contributes the sum of its letter
    indices, where the index steps up exactly when the next letter sits
    to the right of the previous one.  Each letter keeps the sorted list
    of its unused positions, so every step is one bisection.
    """
    word = tuple(word)
    wt = word_weight(word)
    if not is_partition(wt):
        raise NonDominantWeightError(f"weight {wt} is not a partition")
    return _charge(word, wt)


def _charge(word, wt):
    """Charge of a word whose weight is the partition wt, unchecked."""
    if not wt:
        return 0
    positions = [[] for _ in wt]
    for p, a in enumerate(word):
        positions[a - 1].append(p)
    total = 0
    for _ in range(wt[0]):
        cur = positions[0].pop()
        idx = 0
        for free in positions[1:]:
            if not free:
                break
            k = bisect_left(free, cur)
            if k:
                cur = free.pop(k - 1)
            else:
                cur = free.pop()
                idx += 1
            total += idx
    return total


def charge_tableau(tab):
    return charge(reading_word(tab))


@cache
def layer_chains(shape, n):
    """All weakly decreasing chains shape = s_0 >= s_1 >= ... >= s_n = ().

    Each step is containment of partitions; chains are returned as
    (n+1)-tuples of partitions including both endpoints.  Listing them
    checks the branching rule of `hall_littlewood.plane_partition_qprime`.
    """
    shape = normalize(shape)
    if n == 0:
        return ((shape,),) if not shape else ()
    out = []
    for mu in subpartitions(shape):
        for tail in layer_chains(mu, n - 1):
            out.append((shape,) + tail)
    return tuple(out)
