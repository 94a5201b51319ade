"""Reference implementations kept only to test the library against.

Each one is a direct, slow transcription of a definition that the
library computes a faster way:

  * `enumerate_ssyt_by_cells`: fill a shape cell by cell in row-major
    order, trying every letter allowed by the row and column conditions;
  * `charge_by_scanning`: extract standard subwords by scanning the
    remaining positions circularly for each next letter;
  * `chain_weight`: the weight of one layer chain of the plane-partition
    expansion, summed over `tableaux.layer_chains` to give Q' on n
    variables without the branching recursion.
"""

from hlkit.hall_littlewood import skew_qprime_one
from hlkit.laurent import ONE as L_ONE
from hlkit.partitions import is_partition, normalize
from hlkit.tableaux import NonDominantWeightError, word_weight
from hlkit.xpoly import X_ZERO, XPoly, xvars


def enumerate_ssyt_by_cells(shape, weight=None, nletters=None):
    """All semistandard tableaux of the shape, in lexicographic order."""
    shape = normalize(shape)
    if weight is not None:
        weight = tuple(int(w) for w in weight)
        if sum(shape) != sum(weight):
            return []
        nletters = len(weight)
    elif nletters is None:
        raise ValueError("need a weight or a letter bound")
    if shape and len(shape) > nletters:
        return []
    rows = [[0] * r for r in shape]
    counts = [0] * nletters
    cells = [(r, c) for r, ln in enumerate(shape) for c in range(ln)]
    results = []

    def rec(k):
        if k == len(cells):
            results.append(tuple(tuple(row) for row in rows))
            return
        r, c = cells[k]
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, nletters + 1):
            if weight is not None and counts[v - 1] >= weight[v - 1]:
                continue
            rows[r][c] = v
            counts[v - 1] += 1
            rec(k + 1)
            counts[v - 1] -= 1
            rows[r][c] = 0

    rec(0)
    return results


def charge_by_scanning(word):
    """Charge of a word of partition weight, by circular rescans."""
    word = tuple(word)
    if not word:
        return 0
    wt = word_weight(word)
    if not is_partition(wt):
        raise NonDominantWeightError(f"weight {wt} is not a partition")
    positions = list(range(len(word)))
    total = 0
    while positions:
        ones = [p for p in positions if word[p] == 1]
        cur = ones[-1]
        chosen = [cur]
        letter = 2
        while any(word[p] == letter for p in positions):
            k = positions.index(cur)
            left = positions[k - 1 :: -1] if k > 0 else []
            order = left + positions[: k : -1]
            cur = next(p for p in order if word[p] == letter)
            chosen.append(cur)
            letter += 1
        idx = 0
        for a, b in zip(chosen, chosen[1:]):
            if b > a:
                idx += 1
            total += idx
        chosen_set = set(chosen)
        positions = [p for p in positions if p not in chosen_set]
    return total


def chain_weight(chain):
    """Weight of one layer chain: product over steps of the one-letter
    skew value times x_i to the size of the step."""
    n = len(chain) - 1
    coeff = L_ONE
    exps = []
    for i in range(1, n + 1):
        outer, inner = chain[i - 1], chain[i]
        coeff = coeff * skew_qprime_one(outer, inner)
        exps.append(sum(outer) - sum(inner))
    if not coeff:
        return X_ZERO
    return XPoly.monomial(xvars(n), tuple(exps), coeff)
