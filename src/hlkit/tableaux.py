"""Semistandard tableaux, reading words, charge, and layered shapes.

Tableaux are stored in English convention as tuples of row tuples,
rows[0] being the longest row.  The reading word concatenates the rows
from the bottom row up, so the longest row comes last; charge is
computed on such words.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from operator import index

from .partitions import is_partition, normalize, subpartitions


class NonDominantWeightError(ValueError):
    """Charge asked for a word whose letter counts are not a partition."""


def word_weight(word):
    """Letter multiplicities of a word over {1, 2, ...}, up to its largest."""
    out = [0] * max(word, default=0)
    for a in word:
        if a < 1:
            raise ValueError(f"letter {a}: letters are positive")
        out[a - 1] += 1
    return tuple(out)


def enumerate_ssyt(shape, weight=None, nletters=None):
    """All semistandard tableaux of the given shape, in lexicographic order.

    With `weight`, entries have exactly those multiplicities (letter i
    appears weight[i-1] times); with `nletters` instead, any filling
    with entries in 1..nletters.  Rows weakly increase, columns strictly
    increase.

    A tableau is a chain of shapes, one horizontal strip per letter
    (Macdonald I.1), so the partial tableaux grow in a loop over the
    letters v = 1..nletters.  Letter v grows each row r < v from its
    length h to some g >= h with g <= shape[r], g <= the length row r-1
    had before v, and g >= shape[r + letters after v] (the letters to
    come must fill the column); with `weight`, by weight[v-1] boxes.
    """
    shape = normalize(shape)
    if weight is not None:
        if nletters is not None:
            raise ValueError("give a weight or a letter bound, not both")
        weight = tuple(map(index, weight))
        if sum(shape) != sum(weight):
            return []
        nletters = len(weight)
    elif nletters is None:
        raise ValueError("need a weight or a letter bound")
    elif nletters < 0:
        raise ValueError(f"letter bound must be nonnegative, got {nletters}")
    ell = len(shape)
    if ell > nletters:
        return []
    padded = shape + (0,)
    tabs = [((),) * ell]
    for v in range(1, nletters + 1):
        # (r, most, least) for the rows r < v, from the bottom up, so
        # that row r-1 still has the length it had before v
        bounds = [
            (r, shape[r], padded[min(r + nletters - v, ell)]) for r in reversed(range(min(ell, v)))
        ]
        boxes = sum(shape) if weight is None else weight[v - 1]  # no strip holds more
        grown = []
        for start in tabs:
            strips = [(start, boxes)]  # (tableau, boxes of v still to place)
            for r, most, least in bounds:
                longer = []
                for tab, left in strips:
                    row = tab[r]
                    h = len(row)
                    hi = min(most, h + left, len(tab[r - 1]) if r else most)
                    for g in range(hi, max(h, least) - 1, -1):
                        new = tab if g == h else (*tab[:r], row + (v,) * (g - h), *tab[r + 1 :])
                        longer.append((new, left - g + h))
                strips = longer
            grown += [tab for tab, left in strips if weight is None or not left]
        tabs = grown
    return sorted(tabs)


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
    if n == 0:
        return ((shape,),) if not shape else ()
    out = []
    for mu in subpartitions(shape):
        for tail in layer_chains(mu, n - 1):
            out.append((shape,) + tail)
    return tuple(out)
