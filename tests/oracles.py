"""Reference implementations kept only to test the library against.

Each one is a direct, slow transcription of a definition that the
library computes a faster way, or a construction that the library's
values must satisfy:

  * `enumerate_ssyt_by_cells`: fill a shape cell by cell in row-major
    order, trying every letter allowed by the row and column conditions;
  * `charge_by_scanning`: extract standard subwords by scanning the
    remaining positions circularly for each next letter;
  * `chain_weight`: the weight of one layer chain of the plane-partition
    expansion, summed over `tableaux.layer_chains` to give Q' on n
    variables without the branching recursion;
  * `knuth_neighbors`: the elementary Knuth moves, under which charge is
    invariant;
  * `longest_word`, `pi_omega_via_word`: the longest isobaric divided
    difference as a product along a reduced word, against the
    bialternant quotient of `symmetrize.pi_omega`;
  * `straighten_schur_by_exchange`: the Schur value of an integer vector
    by local exchanges, against the shifted-sort rule;
  * `truncate_suffix_nonneg`, `to_schur`, `schur_dict_to_xpoly`: the
    truncate-and-straighten map from explicit polynomials to the Schur
    basis and back, against `kernel_schur`;
  * `kernel_schur_by_columns`: the truncated kernel expanded column by
    column and straightened at the end, against `symmetrize.kernel_schur`,
    which applies the creation operators one entry at a time;
  * `ct_scalar_bruteforce`: the constant-term pairing by full kernel
    expansion to a fixed order, against the pruned path of `ct_scalar`;
  * `berele_regev_check`, `rectangle_vanishing_check`: the rectangle
    factorization and vanishing of Schur values on a difference of
    alphabets, which exercise `schur_eval` on minus letters;
  * `elementary_over_one_minus_t`: e_m(A/(1-t)) truncated in t, by
    repeating each letter with every t-shift;
  * `exact_div_linear`: exact division by a difference of two variables
    given as a polynomial; `exact_div_scalar`: exact division of every
    coefficient by one Laurent polynomial;
  * `complete_series`, `schur_eval_by_jacobi_trudi`,
    `skew_schur_eval_by_jacobi_trudi`: h_0..h_D of an alphabet from the
    product generating series, and (skew) Schur values as Jacobi-Trudi
    determinants of them, against `hall_littlewood.schur_eval` and
    `skew_schur_eval`, which add one letter at a time by horizontal
    strips (plus letters) and signed vertical strips (minus letters);
  * `skew_schur_eval`: s_{lam/mu}(A) by the library's letter walk
    (`hall_littlewood._branch`) with a skew end; only tests read it;
  * `qprime_schur_by_charge`: Q'_mu in the Schur basis by the charge
    statistic, sum over tableaux T of weight mu of t^charge(T) S_shape(T)
    (`hall_littlewood.kostka_foulkes`), against `qprime_schur`, which
    applies the creation operators;
  * `qprime_on_alphabet_by_schur`: the charge-route Schur expansion of
    Q' with each Schur function evaluated by its Jacobi-Trudi
    determinant, against `hall_littlewood.qprime_on_alphabet`, which
    adds one letter at a time by the shifts X + a and X - a (exact
    because Q'_{mu/nu} is homogeneous, so a letter only scales it);
  * `q_via_operator`: Q_lam on n variables from the symmetrizer
    definition, x^lam times prod_{i<j} (1 - t x_j/x_i) under the longest
    isobaric divided difference, normalized; against the strip route
    `hall_littlewood.q_on_alphabet` on x1..xn;
  * `q_on_alphabet_by_qprime`, `p_on_alphabet_by_qprime`: Q_lam(A) as
    Q'_lam(A(1-t)), the one-letter iteration over the 2n letters x and
    -t*x, and P_lam as its exact quotient by b_lam, against
    `hall_littlewood.p_on_alphabet`, which takes one horizontal-strip
    step per letter, and b_lam times it;
  * `skew_qprime_by_extraction`: Q'_{lam/mu}(A) by a unitriangular
    solve over skew Schur determinants, against the same one-letter
    iteration in `hall_littlewood.skew_qprime`;
  * `skew_qprime_one_by_quotient`: the paper's closed form of the
    one-letter skew value, t^n prod_i (1 - t^{a_i}) divided by b_mu,
    against `hall_littlewood.skew_qprime_one`, which multiplies one
    Gaussian binomial per part value of mu;
  * `t_binomial_by_division`, `t_binomial_by_quotient`: the Gaussian
    binomial as the polynomial quotient of t-factorials, and as one
    big-int quotient at t = 2^w read back byte by byte, against
    `partitions.t_binomial`, which runs the q-Pascal rule on packed ints;
  * `t_power_minus_x_product_by_chain`: the product of (t^i - x_v) as one
    `XPoly` product per factor, against
    `hall_littlewood._t_power_minus_x_product`, which builds the
    one-variable factor and tensors it over the variables;
  * `pack_by_shifts`: a t-polynomial at t = 2^w as one shifted int per
    coefficient, against `laurent._pack`, which splits a long
    polynomial in halves;
  * `removal_product_by_loop`: sigma_1(-X) times the sum of c(mu) P_mu,
    one capped product per mu on every call, against
    `identities.removal_product`, which reads each capped product from
    a memo;
  * `mul_by_loop`: the product of two polynomials by the general loop
    over their aligned terms, against `XPoly.__mul__`, which returns the
    other factor when one factor is the constant 1;
  * `theta_by_conjugates`: theta(lam, mu) with both conjugates and both
    n-statistics computed on every call, against
    `identities._theta_row`, which computes those of lam once per row;
  * `principal_s`: s_lam(1, t, ..., t^{n-1}) by the hook-content
    formula, against `schur_eval` at powers of t, and at t = 1 against
    the Schur expansion of `qprime_schur`;
  * `one_minus_t_powers`, `resultant`, `is_vertical_strip`,
    `format_partition`: small helpers that only the tests use.
"""

from functools import cache
from itertools import zip_longest
from math import comb

from hlkit.alphabets import Alphabet, Letter
from hlkit.hall_littlewood import (
    _S_STRIPS,
    _branch,
    kostka_foulkes,
    p_on_alphabet,
    qprime_on_alphabet,
    schur_eval,
    skew_qprime_one,
)
from hlkit.identities import sigma1_series
from hlkit.laurent import LaurentPoly, ONE as L_ONE, ZERO as L_ZERO, _accumulate
from hlkit.partitions import (
    b_poly,
    conjugate,
    contains,
    is_horizontal_strip,
    is_partition,
    n_stat,
    normalize,
    partitions_of,
    partitions_up_to,
    suffix_nonneg,
    t_factorial,
)
from hlkit.symmetrize import pi_i, pi_omega, straighten_schur
from hlkit.tableaux import NonDominantWeightError, word_weight
from hlkit.xpoly import X_ONE, XPoly, _linear_combination, xvars
from hlkit.xpoly import _grouped, _mul_into, merge_vars


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
        return XPoly()
    return XPoly.monomial(xvars(n), tuple(exps), coeff)


def skew_qprime_one_by_quotient(lam, mu):
    """Q'_{lam/mu} at the alphabet {1} by the paper's closed form: with
    nu_i the mu_i-th part of the conjugate of lam,
    t^{column statistic of lam/mu} * prod_i (1 - t^{nu_i - i + 1}) / b_mu.
    The product vanishes exactly when mu does not fit inside lam."""
    lam, mu = normalize(lam), normalize(mu)
    lc, mc = conjugate(lam), conjugate(mu)
    prod = L_ONE
    for i, m in enumerate(mu, 1):
        nu_i = lc[m - 1] if m <= len(lc) else 0
        a = nu_i - i + 1
        if a <= 0:
            return L_ZERO
        prod = prod - prod.shift(a)
    n = sum(comb(a - b, 2) for a, b in zip_longest(lc, mc, fillvalue=0))
    return prod.shift(n).exact_div(b_poly(mu))


def t_binomial_by_division(m, a):
    """[m choose a]_t as the polynomial quotient of t-factorials,
    (t; t)_m / ((t; t)_a (t; t)_(m-a)), by `LaurentPoly.exact_div`."""
    if a < 0 or a > m:
        return L_ZERO
    return t_factorial(m).exact_div(t_factorial(a) * t_factorial(m - a))


def t_binomial_by_quotient(m, a):
    """[m choose a]_t as one big-int quotient at t = 2^w: the product of
    (2^(w j) - 1) over j = m-a+1..m divided by that over j = 1..a, with a
    zero remainder.  Every coefficient lies in [0, C(m, a)], so with w a
    multiple of 8 above its bit length the quotient's little-endian bytes
    are the coefficients, w / 8 bytes each."""
    if a < 0 or a > m:
        return L_ZERO
    size = comb(m, a).bit_length() // 8 + 1  # bytes per coefficient
    w = 8 * size
    num = den = 1
    for j in range(1, a + 1):
        num *= (1 << w * (m - a + j)) - 1
        den *= (1 << w * j) - 1
    q, r = divmod(num, den)
    assert r == 0, (m, a)
    raw = q.to_bytes(q.bit_length() // 8 + 1, "little")
    digits = (raw[size * k : size * (k + 1)] for k in range(len(raw) // size + 1))
    return LaurentPoly({k: int.from_bytes(d, "little") for k, d in enumerate(digits)})


def knuth_neighbors(word):
    """Words one elementary Knuth move away.

    On a window (a, b, c): swap the last two when c < a <= b or
    b < a <= c; swap the first two when a <= c < b or b <= c < a.
    """
    word = tuple(word)
    out = []
    for i in range(len(word) - 2):
        a, b, c = word[i], word[i + 1], word[i + 2]
        if c < a <= b or b < a <= c:
            out.append(word[:i] + (a, c, b) + word[i + 3 :])
        if a <= c < b or b <= c < a:
            out.append(word[:i] + (b, a, c) + word[i + 3 :])
    return out


def longest_word(n):
    """Reduced word for the longest permutation: (1),(2,1),...,(n-1,...,1)."""
    word = []
    for k in range(1, n):
        word.extend(range(k, 0, -1))
    return tuple(word)


def pi_omega_via_word(f, n):
    """`symmetrize.pi_omega` as the product of pi_i along a reduced word."""
    for i in longest_word(n):
        f = pi_i(f, i, n)
    return f


def straighten_schur_by_exchange(v, max_steps=100000):
    """The value of `symmetrize.straighten_schur` by the local exchange rule.

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


def truncate_suffix_nonneg(f, n):
    """Keep only monomials whose x-exponent vector has all trailing sums >= 0."""
    vars = xvars(n)
    terms = _grouped(f._expand_to(vars))
    kept = {e: c for e, c in terms.items() if suffix_nonneg(e)}
    return XPoly(vars, kept)


def to_schur(f, n):
    """Truncate-and-straighten image of f in the Schur basis.

    Returns {partition: LaurentPoly}.  This is the polynomial part
    operator: monomials failing the trailing-sum test contribute zero
    (their straightened value vanishes identically), every kept
    monomial is read off as a straightened Schur value.
    """
    vars = xvars(n)
    terms = _grouped(f._expand_to(vars))
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


def kernel_schur_by_columns(u):
    """`symmetrize.kernel_schur` by expanding the kernel itself.

    Every transfer of every column is enumerated on the full exponent
    vector.  A term whose trailing sum goes negative can never
    straighten to a nonzero value, so it is pruned, and the same bound
    caps each transfer; each surviving vector is straightened only at
    the end.
    """
    u = tuple(u)
    n = len(u)
    if sum(u) < 0:
        return {}
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
    return out


def schur_dict_to_xpoly(coeffs, n):
    """Rebuild sum coeffs[lam] * S_lam(x_1..x_n) as an explicit XPoly."""
    X = Alphabet.of_vars(*xvars(n))
    return _linear_combination((schur_eval(lam, X), c) for lam, c in coeffs.items())


def ct_scalar_bruteforce(f, g, n, order=None):
    """The pairing of `identities.ct_scalar` by blunt kernel expansion to
    a fixed order, with a one-step stability margin."""
    vars = xvars(n)
    h = f * g.reverse_invert(vars)
    for i in range(n):
        for j in range(i + 1, n):
            h = h * (X_ONE - XPoly.monomial((vars[i], vars[j]), (1, -1)))
    if order is None:
        spread = max(
            (max(abs(k[i]) for k in h._expand_to(vars)) for i in range(1, n + 1)),
            default=0,
        ) if h else 0
        order = spread + 1

    def ct_at(k_order):
        kernel = X_ONE
        for i in range(n):
            for j in range(i + 1, n):
                geom = XPoly()
                for k in range(k_order + 1):
                    geom = geom + XPoly.monomial(
                        (vars[i], vars[j]), (k, -k), LaurentPoly.t_power(k)
                    )
                kernel = kernel * geom
        full = h * kernel
        return full.coeff_of((0,) * n, vars)

    a, b = ct_at(order), ct_at(order + 1)
    if a != b:
        raise AssertionError("kernel order not stable; raise the bound")
    return a


def berele_regev_check(nu, zeta, A, B):
    """Rectangle-split factorization of Schur values on a difference.

    With alpha = |A|, beta = |B| (both plus-only), nu of length <= alpha
    and zeta_1 <= beta, the Schur value of (beta^alpha + nu, zeta) on
    A - B factors as S_zeta(-B) * S_nu(A) * prod (a - b).
    """
    if A.minus or B.minus:
        raise ValueError("both alphabets must be plus-only")
    alpha, beta = len(A.plus), len(B.plus)
    nu = tuple(p for p in nu if p)
    zeta = tuple(p for p in zeta if p)
    if len(nu) > alpha or (zeta and zeta[0] > beta):
        raise ValueError("shape does not respect the rectangle split")
    nu_pad = nu + (0,) * (alpha - len(nu))
    lam = tuple(beta + p for p in nu_pad) + zeta
    lam = tuple(p for p in lam if p)
    lhs = schur_eval(lam, A - B)
    prod = X_ONE
    for a in A.plus:
        for b in B.plus:
            prod = prod * (a.value() - b.value())
    rhs = schur_eval(zeta, -B) * schur_eval(nu, A) * prod
    return lhs == rhs


def rectangle_vanishing_check(nu, A, B):
    """S_nu(A - B) = 0 whenever nu contains the (alpha+1) x (beta+1) box."""
    alpha, beta = len(A.plus), len(B.plus)
    box = ((beta + 1),) * (alpha + 1)
    if not contains(nu, box):
        raise ValueError("nu does not contain the forbidden rectangle")
    return schur_eval(tuple(nu), A - B) == XPoly()


def elementary_over_one_minus_t(A, m, t_cap):
    """e_m of A/(1-t), truncated above t^t_cap.

    A/(1-t) repeats each letter with every t-shift; shifts beyond the
    cap cannot touch the kept coefficients, so the product over shifts
    0..t_cap is exact modulo t^(t_cap+1).  Letters must have t_exp >= 0.
    """
    if any(l.t_exp < 0 for l in A.plus + A.minus):
        raise ValueError("letters must have nonnegative t-exponent")

    def capped(f):  # the terms of f up to t^t_cap; slot 0 is the power of t
        kept = {k: v for k, v in f.terms.items() if k[0] <= t_cap}
        return XPoly._trusted(f.vars, kept)

    # coefficients of z^0..z^m in E(z), as XPolys truncated in t
    e = [X_ONE] + [XPoly()] * m
    for a in A.plus:
        for j in range(0, t_cap + 1 - a.t_exp):
            av = Letter(a.t_exp + j, a.mono).value()
            for k in range(m, 0, -1):
                e[k] = capped(e[k] + av * e[k - 1])
    for b in A.minus:
        for j in range(0, t_cap + 1 - b.t_exp):
            bv = Letter(b.t_exp + j, b.mono).value()
            # divide by (1 + z * bv): e'_k = e_k - bv * e'_{k-1}
            for k in range(1, m + 1):
                e[k] = capped(e[k] - bv * e[k - 1])
    return e[m]


def exact_div_linear(f, divisor):
    """Divide f exactly by a polynomial of the form a - b (two monomials).

    Only the variable-difference case is needed; reject anything else.
    """
    if len(divisor.terms) != 2:
        raise ValueError("divisor must be a difference of two variables")
    items = sorted(divisor.terms.items(), reverse=True)
    ((ta, *ea), ca), ((tb, *eb), cb) = items
    if ta or tb or ca != 1 or cb != -1:
        raise ValueError("divisor must be a difference of two variables")
    names = []
    for e, want in ((ea, 1), (eb, 1)):
        hits = [(v, p) for v, p in zip(divisor.vars, e) if p]
        if len(hits) != 1 or hits[0][1] != 1:
            raise ValueError("divisor must be a difference of two variables")
        names.append(hits[0][0])
    return f.exact_div_diff(names[0], names[1])


def exact_div_scalar(f, c):
    """f with every coefficient divided by the Laurent polynomial c; each
    division must be exact."""
    return XPoly._trusted(
        f.vars,
        {
            (s, *e): v
            for e, q in _grouped(f.terms).items()
            for s, v in q.exact_div(c).coeffs.items()
        },
    )


@cache
def complete_series(A, D):
    """h_0(A), ..., h_D(A), exactly.

    Series product: multiply in each minus letter (one binomial factor)
    and each plus letter (geometric recurrence).  Finite at every fixed
    index, whatever the letters' degrees.  Each term is a product of
    letters t^s x^e, so the series is built on XPoly term dicts.
    """
    vars = A.var_names()
    h = [{(0,) * (len(vars) + 1): 1}] + [{} for _ in range(D)]
    for sign, letters, ks in (
        (-1, A.minus, range(D, 0, -1)),
        (1, A.plus, range(1, D + 1)),
    ):
        for l in letters:
            factor = (((l.t_exp, *(l.mono.count(v) for v in vars)), sign),)
            for k in ks:
                _mul_into(h[k], h[k - 1].items(), factor)
    return tuple(XPoly._trusted(vars, hk) for hk in h)


def _det(mat):
    """Determinant by expansion along the first remaining row."""
    vars = merge_vars(*(f.vars for row in mat for f in row))
    ent = [[list(f._expand_to(vars).items()) for f in row] for row in mat]
    memo = {0: {(0,) * (len(vars) + 1): 1}}
    return XPoly._trusted(vars, _minor(ent, memo, (1 << len(mat)) - 1))


def _minor(ent, memo, mask):
    """Terms of the minor of `ent` on its last popcount(mask) rows and
    the columns in `mask`, each summed once over XPoly term dicts.
    A module-level function, not a closure, so that no reference cycle
    keeps `memo` alive after the determinant is built."""
    got = memo.get(mask)
    if got is None:
        n = len(ent)
        r = n - mask.bit_count()
        acc = {}
        sign = 1
        for c in range(n):
            if mask & (1 << c):
                if ent[r][c]:
                    sub = _minor(ent, memo, mask ^ (1 << c))
                    entry = [(k, sign * v) for k, v in ent[r][c]]
                    _mul_into(acc, entry, sub.items())
                sign = -sign
        memo[mask] = got = {k: v for k, v in acc.items() if v}
    return got


def _jacobi_trudi(lam, mu, A):
    """det h_{lam_i - mu_j - i + j}(A) for partitions lam, mu without
    zero parts, mu inside lam."""
    l = len(lam)
    if not l:
        return X_ONE
    mu = mu + (0,) * (l - len(mu))
    D = lam[0] + l - 1
    h = complete_series(A, D)
    mat = [
        [
            h[lam[i] - mu[j] - i + j]
            if 0 <= lam[i] - mu[j] - i + j <= D
            else XPoly()
            for j in range(l)
        ]
        for i in range(l)
    ]
    return _det(mat)


@cache
def schur_eval_by_jacobi_trudi(lam, A):
    """S_lam(A) by the Jacobi-Trudi determinant det h_{lam_i - i + j}."""
    lam = tuple(p for p in lam if p)
    if not A.minus and len(lam) > len(A.plus):
        return XPoly()
    return _jacobi_trudi(lam, (), A)


@cache
def skew_schur_eval_by_jacobi_trudi(lam, mu, A):
    """S_{lam/mu}(A) = det h_{lam_i - mu_j - i + j}; 0 unless mu fits."""
    lam = tuple(p for p in lam if p)
    mu = tuple(p for p in mu if p)
    if len(mu) > len(lam) or any(m > p for m, p in zip(mu, lam)):
        return XPoly()
    return _jacobi_trudi(lam, mu, A)


def skew_schur_eval(lam, mu, A):
    """s_{lam/mu}(A): the coefficient of s_mu in s_lam[X + A], 0 unless
    mu fits in lam, one letter of A at a time (see
    `hall_littlewood._branch`)."""
    return _branch(_S_STRIPS, lam, A, mu)


def qprime_schur_by_charge(mu):
    """{rho: KF(rho, mu)} over the partitions rho of |mu| with a nonzero
    charge polynomial: Q'_mu = sum_T t^charge(T) S_shape(T)."""
    mu = normalize(mu)
    kfs = {rho: kostka_foulkes(rho, mu) for rho in partitions_of(sum(mu))}
    return {rho: kf for rho, kf in kfs.items() if kf}


def qprime_on_alphabet_by_schur(lam, A):
    """Q'_lam(A) as sum_rho KF(rho, lam) S_rho(A), each S_rho(A) a
    Jacobi-Trudi determinant."""
    return _linear_combination(
        (schur_eval_by_jacobi_trudi(rho, A), kf)
        for rho, kf in qprime_schur_by_charge(lam).items()
    )


def q_via_operator(lam, n):
    """Q_lam on n variables straight from the symmetrizer definition:
    normalize x^lam * prod_{i<j}(1 - t x_j/x_i) after the longest
    isobaric divided difference.  Only dominant weights extend this way."""
    if len(lam) > n:
        raise ValueError("partition longer than the variable count")
    vars = xvars(n)
    padded = lam + (0,) * (n - len(lam))
    f = XPoly.monomial(vars, padded)
    for i in range(n):
        for j in range(i + 1, n):
            ratio = XPoly.monomial(
                (vars[i], vars[j]), (-1, 1), LaurentPoly.t_power(1)
            )
            f = f * (X_ONE - ratio)
    img = pi_omega(f, n)
    one_minus_t = L_ONE - LaurentPoly.t_power(1)
    num = img.scale(one_minus_t ** n)
    return exact_div_scalar(num, t_factorial(n - len(lam)))


def q_on_alphabet_by_qprime(lam, A):
    """Q_lam(A) = Q'_lam(A(1-t)), cancelling letters and all."""
    return qprime_on_alphabet(normalize(lam), A.one_minus_t())


def p_on_alphabet_by_qprime(lam, A):
    """P_lam(A) = Q'_lam(A(1-t)) / b_lam; the division is exact."""
    return exact_div_scalar(q_on_alphabet_by_qprime(lam, A), b_poly(normalize(lam)))


def skew_qprime_by_extraction(lam, mu, A):
    """Q'_{lam/mu}(A) by unitriangular extraction.

    The coefficient of S_kappa in the second alphabet is
    C_kappa = sum_rho KF(rho,lam) S_{rho/kappa}(A) and also
    C_kappa = sum_{nu dominated by kappa} KF(kappa,nu) Q'_{lam/nu}(A);
    ascending lex refines dominance, so one sweep over the partitions
    kappa of |mu| solves the system.
    """
    lam, mu = normalize(lam), normalize(mu)
    charge_route = qprime_schur_by_charge(lam).items()
    solved = {}
    for kappa in sorted(partitions_of(sum(mu))):
        known = [
            (skew_schur_eval_by_jacobi_trudi(rho, kappa, A), kf)
            for rho, kf in charge_route
        ]
        lower = [(q, -kostka_foulkes(kappa, nu)) for nu, q in solved.items()]
        solved[kappa] = _linear_combination(known + lower)
    return solved[mu]


def t_power_minus_x_product_by_chain(r, k, n):
    """prod over r <= i < r + k and v = x1..xn of (t^i - v), one factor
    at a time."""
    prod = X_ONE
    for i in range(r, r + k):
        ti = XPoly.const(LaurentPoly.t_power(i))
        for v in xvars(n):
            prod = prod * (ti - XPoly.var(v))
    return prod


def pack_by_shifts(coeffs, w):
    """The t-polynomial {power: int} at t = 2^w, one shifted int added
    per coefficient."""
    m = 0
    for s, v in coeffs.items():
        m += v << w * s
    return m


def removal_product_by_loop(c, n, cap):
    """sigma_1(-X) times the sum of c(mu) P_mu(X), X = x1..xn, up to
    x-degree cap: each capped product sigma_1(-X) P_mu built anew, then
    multiplied by c(mu)."""
    X = Alphabet.of_vars(*xvars(n))
    sig = sigma1_series(-X, cap)
    return _linear_combination(
        (v * sig.mul_capped(p_on_alphabet(mu, X), cap), 1)
        for mu in partitions_up_to(cap, max_length=n)
        if (v := c(mu)) is not None
    )


def mul_by_loop(f, g):
    """f * g for XPoly, int or LaurentPoly factors, every pair of terms
    multiplied over the union of the variables."""
    f, g = XPoly._coerce(f), XPoly._coerce(g)
    vars = merge_vars(f.vars, g.vars)
    acc = {}
    _mul_into(acc, f._expand_to(vars).items(), g._expand_to(vars).items())
    return XPoly._trusted(vars, acc)


def theta_by_conjugates(lam, mu):
    """t to the n(lam) + n(mu) - (lam~, mu~), from both conjugates."""
    lc, mc = conjugate(lam), conjugate(mu)
    dot = sum(a * b for a, b in zip(lc, mc))
    return LaurentPoly.t_power(n_stat(lam) + n_stat(mu) - dot)


def one_minus_t_powers(exps):
    """The product of (1 - t^e) over exps."""
    out = L_ONE
    for e in exps:
        out = out * (L_ONE - LaurentPoly.t_power(e))
    return out


def principal_s(lam, n):
    """s_lam(1, t, ..., t^{n-1}) by the hook-content formula (Stanley,
    Enumerative Combinatorics 2, Theorem 7.21.2)."""
    cols = conjugate(lam)
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    contents = one_minus_t_powers(n + j - i for i, j in cells)
    hooks = one_minus_t_powers(lam[i] - j + cols[j] - i - 1 for i, j in cells)
    return contents.shift(n_stat(lam)).exact_div(hooks)


def resultant(y, A):
    """prod over letters a of A of (y - a); A must be purely positive."""
    if A.minus:
        raise ValueError("resultant needs a plus-only alphabet")
    yv = y.value() if isinstance(y, Letter) else y
    acc = X_ONE
    for a in A.plus:
        acc = acc * (yv - a.value())
    return acc


def is_vertical_strip(lam, mu):
    return is_horizontal_strip(conjugate(lam), conjugate(mu))


def format_partition(lam):
    return "[" + ",".join(str(p) for p in lam) + "]" if lam else "[]"
