"""Schur expansions of Q', argument shifts, and factorizations.

Cross-checks used here, none of which share code with the route under
test: the charge enumeration of the Schur expansion, the symmetrizer
definition of Q, Q and P through Q'(X(1-t)), the layer-chain expansion,
the four-term exchange relation for vector arguments, and classical
specializations (t=0 Schur, t=1 monomial, and at t=1 on four ones the
product of binomials that h_lam gives, with s_rho by hook content).
"""

import itertools
import random
from math import comb, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from hlkit.laurent import LaurentPoly, ONE as L_ONE, _pack, _unpack
from hlkit import hall_littlewood as hl
from hlkit.partitions import (
    b_poly,
    contains,
    n_stat,
    partitions_of,
    partitions_up_to,
    subpartitions,
    t_binomial,
)
from hlkit.alphabets import Alphabet, letter, parse_alphabet
from hlkit.xpoly import XPoly, _grouped, _linear_combination, xvars, yvars
from hlkit.hall_littlewood import (
    BasisExpansion,
    add_one,
    aleph,
    compose_shift,
    factorization_sides,
    kostka_foulkes,
    p_on_alphabet,
    plane_partition_qprime,
    principal_specialization,
    q_on_alphabet,
    qprime_of_vector,
    qprime_on_alphabet,
    qprime_schur,
    qprime_vector_schur,
    schur_eval,
    schur_to_qprime,
    skew_qprime,
    skew_qprime_one,
    skew_qprime_one_columns,
    split_for_width,
    sub_one,
    t_minus_x_alphabet,
    tableau_route_xpoly,
    two_letter_shape,
    two_letter_sides,
)
from hlkit.symmetrize import kernel_schur
from hlkit.tableaux import layer_chains
from oracles import (
    chain_weight,
    one_minus_t_powers,
    p_on_alphabet_by_qprime,
    pack_by_shifts,
    principal_s,
    q_on_alphabet_by_qprime,
    q_via_operator,
    qprime_on_alphabet_by_schur,
    qprime_schur_by_charge,
    schur_eval_by_jacobi_trudi,
    skew_qprime_by_extraction,
    skew_qprime_one_by_quotient,
    t_power_minus_x_product_by_chain,
)

T = LaurentPoly.t_power


def eval_t(f, value):
    """Exponent dict of f with the coefficient ring evaluated at t=value."""
    out = {}
    for e, c in _grouped(f.terms).items():
        v = sum(co * value**k for k, co in c.coeffs.items())
        if v:
            out[e] = v
    return out


class TestKostkaFoulkes:
    def test_frozen(self):
        assert kostka_foulkes((2, 1), (1, 1, 1)) == LaurentPoly({1: 1, 2: 1})
        assert kostka_foulkes((2, 2), (2, 1, 1)) == T(1)

    def test_diagonal_is_one(self):
        for lam in partitions_up_to(5) + [(1,) * 50]:
            assert kostka_foulkes(lam, lam) == L_ONE

    def test_one_row_closed_form(self):
        for mu in partitions_up_to(5):
            assert kostka_foulkes((sum(mu),), mu) == T(n_stat(mu))

    def test_dominance_vanishing(self):
        assert not kostka_foulkes((1, 1), (2,))
        assert not kostka_foulkes((2, 2), (3, 1))

    @pytest.mark.parametrize(
        "rho, mu", [((2, 1), (1, 2)), ((1, 2), (2, 1)), ((2, 0, 1), (3,))]
    )
    def test_refuses_non_partition(self, rho, mu):
        # Charge is undefined on the weight (1, 2); sorting it gave 1.
        with pytest.raises(ValueError, match="must be partitions"):
            kostka_foulkes(rho, mu)

    def test_trailing_zeros_allowed(self):
        assert kostka_foulkes((2, 1, 0), (1, 1, 1, 0)) == LaurentPoly({1: 1, 2: 1})


class TestQprimeSchur:
    def test_frozen_expansions(self):
        assert qprime_schur((2, 1)).coeffs == {(2, 1): L_ONE, (3,): T(1)}
        assert qprime_schur((1, 1)).coeffs == {(1, 1): L_ONE, (2,): T(1)}
        assert qprime_schur((1, 1, 1)).coeffs == {
            (1, 1, 1): L_ONE,
            (2, 1): LaurentPoly({1: 1, 2: 1}),
            (3,): T(3),
        }
        assert qprime_schur((2, 1)).basis == "S"

    def test_matches_charge_route(self):
        for lam in partitions_up_to(9):
            assert qprime_schur(lam).coeffs == qprime_schur_by_charge(lam), lam

    def test_specializations_up_to_twelve(self):
        # Checks that hold where the charge route is too slow: Q'_lam is
        # s_lam at t = 0 and h_lam at t = 1, so on n = 4 ones its Schur
        # values sum to prod_i C(n + lam_i - 1, lam_i); each K_{rho,lam}(t)
        # has positive coefficients and is monic of degree n(lam) - n(rho).
        n = 4
        s_at_ones = {}
        for lam in partitions_up_to(12):
            coeffs = qprime_schur(lam).coeffs
            assert {rho: kf.at_t_zero() for rho, kf in coeffs.items()} == {
                rho: int(rho == lam) for rho in coeffs
            }, lam
            total = 0
            for rho, kf in coeffs.items():
                if rho not in s_at_ones:
                    s_at_ones[rho] = sum(principal_s(rho, n).coeffs.values())
                total += sum(kf.coeffs.values()) * s_at_ones[rho]
                assert min(kf.coeffs.values()) > 0, (rho, lam)
                assert max(kf.coeffs) == n_stat(lam) - n_stat(rho), (rho, lam)
                assert kf.coeffs[max(kf.coeffs)] == 1, (rho, lam)
            assert total == prod(comb(n + part - 1, part) for part in lam), lam

    @pytest.mark.parametrize("index", [(1, 2), (2, 0, 1), (1, -1)])
    def test_refuses_unsorted_index(self, index):
        # (1, 2) used to be sorted to Q'_(2,1); Q'_(1,2) is t*S[2,1] + t^2*S[3].
        with pytest.raises(ValueError, match="qprime_vector_schur"):
            qprime_schur(index)

    def test_trailing_zeros_allowed(self):
        assert qprime_schur((2, 1, 0, 0)) == qprime_schur((2, 1))

    def test_t_zero_collapse(self):
        for lam in partitions_up_to(6):
            d = qprime_schur(lam).coeffs
            assert d[lam] == L_ONE
            for rho, c in d.items():
                if rho != lam:
                    assert c.min_exp() >= 1, (lam, rho)

    def test_schur_round_trip(self):
        for lam in partitions_up_to(5):
            back = schur_to_qprime(qprime_schur(lam).coeffs)
            assert back == {lam: L_ONE}, lam

    def test_schur_to_qprime_single(self):
        # the sweep back-substitutes: S_11 needs a -t correction at (2,)
        got = schur_to_qprime({(1, 1): L_ONE})
        assert got == {(1, 1): L_ONE, (2,): -T(1)}


class TestVectorArguments:
    def test_partition_is_identity(self):
        for lam in partitions_up_to(4):
            assert qprime_of_vector(lam).coeffs == {lam: L_ONE}

    @pytest.mark.parametrize("zeros", [0, 1, 2])
    def test_partition_shortcut_matches_back_substitution(self, zeros):
        for lam in partitions_up_to(7):
            u = lam + (0,) * zeros
            assert qprime_of_vector(u).coeffs == schur_to_qprime(kernel_schur(u)), u

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-2, 4), max_size=4).map(tuple))
    def test_cached_expansion_matches_back_substitution(self, u):
        assert qprime_of_vector(u).coeffs == schur_to_qprime(kernel_schur(u)), u

    def test_mutating_a_result_leaves_the_next_call(self):
        for u in ((0, 2), (2, 1, 0), (1, -1, 2)):
            want = schur_to_qprime(kernel_schur(u))
            got = qprime_of_vector(u)
            got.coeffs.clear()
            got.coeffs[(9,)] = L_ONE
            assert qprime_of_vector(u).coeffs == want, u

    def test_frozen(self):
        assert qprime_of_vector((1, -1)).coeffs == {}
        assert qprime_of_vector((0, 1)).coeffs == {(1,): T(1)}
        assert qprime_of_vector((0, 2)).coeffs == {
            (1, 1): LaurentPoly({0: -1, 1: 1}),
            (2,): T(1),
        }

    def test_four_term_exchange(self):
        def expand(v):
            return qprime_of_vector(v).coeffs

        def scaled(d, c):
            return {k: v * c for k, v in d.items()}

        for v in itertools.product(range(-1, 4), repeat=2):
            a, b = v
            acc = {}
            for d in (
                scaled(expand((b, a)), T(1)),
                scaled(expand((a + 1, b - 1)), T(1)),
                scaled(expand((b - 1, a + 1)), LaurentPoly({0: -1})),
            ):
                for k, c in d.items():
                    s = acc.get(k, LaurentPoly()) + c
                    if s:
                        acc[k] = s
                    else:
                        acc.pop(k, None)
            assert expand(v) == acc, v

    def test_schur_route_consistency(self):
        for v in [(0, 2), (1, 3), (0, 1, 2), (2, 0, 1)]:
            via_qp = {}
            for lam, c in qprime_of_vector(v).coeffs.items():
                for rho, k in qprime_schur(lam).coeffs.items():
                    s = via_qp.get(rho, LaurentPoly()) + c * k
                    if s:
                        via_qp[rho] = s
                    else:
                        via_qp.pop(rho, None)
            assert qprime_vector_schur(v).coeffs == via_qp, v


# one variable, x or y, or a constant, each times a power of t
PLUS_LETTERS = st.builds(
    lambda k, names: letter(k, *names),
    st.integers(0, 2),
    st.sampled_from([(), ("x1",), ("x2",), ("y1",), ("y2",)]),
)


class TestEvaluations:
    @pytest.mark.parametrize("n", [2, 3])
    def test_operator_route_agrees(self, n):
        X = Alphabet.of_vars(*xvars(n))
        for lam in partitions_up_to(4):
            if len(lam) > n:
                continue
            assert q_via_operator(lam, n) == q_on_alphabet(lam, X), (lam, n)

    def test_operator_needs_enough_variables(self):
        with pytest.raises(ValueError):
            q_via_operator((1, 1, 1), 2)

    def test_vanishing_beyond_width(self):
        X = Alphabet.of_vars("x1", "x2")
        assert not q_on_alphabet((1, 1, 1), X)
        assert not p_on_alphabet((2, 2, 1), X)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_strip_route_matches_two_letter_route(self, n):
        A = Alphabet.of_vars(*xvars(n))
        for lam in partitions_up_to(5):
            assert p_on_alphabet(lam, A) == p_on_alphabet_by_qprime(lam, A), lam
            assert q_on_alphabet(lam, A) == q_on_alphabet_by_qprime(lam, A), lam

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 8).flatmap(lambda m: st.sampled_from(partitions_of(m))),
        st.lists(PLUS_LETTERS, max_size=4),
    )
    def test_strip_route_on_random_alphabets(self, lam, plus):
        A = Alphabet(tuple(plus))
        assert p_on_alphabet(lam, A) == p_on_alphabet_by_qprime(lam, A)
        assert q_on_alphabet(lam, A) == q_on_alphabet_by_qprime(lam, A)

    def test_q_on_alphabet_reads_the_p_memo(self, monkeypatch):
        A = Alphabet.of_vars(*xvars(3))
        p_on_alphabet.cache_clear()
        q_on_alphabet.cache_clear()
        p = p_on_alphabet((3, 1), A)
        calls = []
        branch = hl._branch
        monkeypatch.setattr(
            hl, "_branch", lambda *args: calls.append(args) or branch(*args)
        )
        q = q_on_alphabet((3, 1), A)
        assert calls == []
        assert q == p.scale(b_poly((3, 1)))
        assert q == q_on_alphabet_by_qprime((3, 1), A)

    @pytest.mark.parametrize("route", [p_on_alphabet])
    def test_strip_route_refuses_minus_letters(self, route):
        A = Alphabet((letter(0, "x1"),), (letter(1, "x2"),))
        with pytest.raises(ValueError, match="plus letters"):
            route((2, 1), A)
        with pytest.raises(ValueError, match="plus letters"):
            route((), -Alphabet.of_vars("x1"))

    def test_t_zero_is_schur(self):
        X = Alphabet.of_vars("x1", "x2")
        for lam in partitions_up_to(4):
            if len(lam) > 2:
                continue
            q = q_on_alphabet(lam, X)
            s = schur_eval(lam, X)
            assert eval_t(q, 0) == eval_t(s, 0), lam

    def test_t_one_is_monomial(self):
        got = eval_t(p_on_alphabet((2, 1), Alphabet.of_vars(*xvars(3))), 1)
        want = {e: 1 for e in set(itertools.permutations((2, 1, 0)))}
        assert got == want


class TestOneLetterSkew:
    def test_two_rules_agree(self):
        for lam in partitions_up_to(6):
            for mu in subpartitions(lam):
                assert skew_qprime_one(lam, mu) == skew_qprime_one_columns(
                    lam, mu
                ), (lam, mu)

    def test_matches_quotient_oracle(self):
        """The Gaussian-binomial product against the paper's quotient on
        every pair, mu fitting inside lam or not."""
        for lam in partitions_up_to(9):
            for mu in partitions_up_to(sum(lam)):
                got = skew_qprime_one(lam, mu)
                assert got == skew_qprime_one_by_quotient(lam, mu), (lam, mu)
                assert bool(got) == contains(lam, mu), (lam, mu)

    def test_diagonal_and_vanishing(self):
        for lam in partitions_up_to(5):
            assert aleph(lam, lam) == L_ONE
        assert not aleph((1,), (2,))
        assert not aleph((1, 1), (2,))

    def test_aleph_frozen_values(self):
        # t * (1 - t^2) / (1 - t) for the column pair over one box
        assert aleph((2, 2), (1,)) == LaurentPoly({1: 1, 2: 1})
        assert aleph((2,), ()) == L_ONE


class TestShifts:
    def test_single_box(self):
        assert add_one((1,)) == BasisExpansion(
            "Qp", {(1,): L_ONE, (): L_ONE}
        )
        assert sub_one((1,)) == BasisExpansion(
            "Qp", {(1,): L_ONE, (): -L_ONE}
        )

    def test_sub_one_column_pair(self):
        got = sub_one((2, 2))
        assert got == BasisExpansion(
            "Qp",
            {
                (2, 2): L_ONE,
                (2, 1): -t_binomial(2, 1),
                (1, 1): t_binomial(2, 2),
            },
        )
        assert t_binomial(2, 1) == LaurentPoly({0: 1, 1: 1})

    @pytest.mark.parametrize("k", [5, 12, 50])
    def test_long_columns_specialize(self, k):
        # At t = 1, Q'_(1^k)[X +- 1] has the coefficient C(k, j) and
        # (-1)^(k-j) C(k, j) on Q'_(1^j); at t = 0, X + 1 leaves only
        # Q'_(1^k) + Q'_(1^(k-1)).
        def at(f, t):
            return {nu: sum(v * t**e for e, v in c.coeffs.items()) for nu, c in f.coeffs.items()}

        col = [(1,) * j for j in range(k + 1)]
        assert at(add_one(col[k]), 1) == {col[j]: comb(k, j) for j in range(k + 1)}
        signed = {col[j]: (-1) ** (k - j) * comb(k, j) for j in range(k + 1)}
        assert at(sub_one(col[k]), 1) == signed
        at_zero = {nu: c for nu, c in at(add_one(col[k]), 0).items() if c}
        assert at_zero == {col[k]: 1, col[k - 1]: 1}

    @pytest.mark.parametrize("lam", [p for p in partitions_up_to(5)])
    def test_shifts_invert(self, lam):
        ident = BasisExpansion("Qp", {lam: L_ONE})
        assert compose_shift(add_one(lam), sub_one) == ident
        assert compose_shift(sub_one(lam), add_one) == ident


class TestSkewAlphabet:
    def test_degenerate(self):
        A = Alphabet.of_vars("x1", "x2")
        for lam in partitions_up_to(3):
            assert skew_qprime(lam, (), A) == qprime_on_alphabet(lam, A)
            assert skew_qprime(lam, lam, A) == XPoly.monomial((), ())

    def test_unit_alphabet_is_scalar(self):
        for lam in partitions_up_to(4):
            for mu in subpartitions(lam):
                got = skew_qprime(lam, mu, Alphabet((letter(0),)))
                assert got == XPoly.const(aleph(lam, mu)), (lam, mu)
                assert got == skew_qprime_by_extraction(lam, mu, Alphabet((letter(0),)))

    def test_two_block_sum_rule(self):
        AX = Alphabet.of_vars(*xvars(2))
        AY = Alphabet.of_vars(*yvars(2))
        for lam in partitions_up_to(4):
            acc = XPoly()
            for mu in subpartitions(lam):
                acc = acc + qprime_on_alphabet(mu, AX) * skew_qprime(lam, mu, AY)
            assert acc == qprime_on_alphabet(lam, AX + AY), lam


LETTERS = st.builds(
    lambda k, names: letter(k, *names),
    st.integers(-2, 2),
    st.sampled_from([(), ("x1",), ("x2",), ("x1", "y1"), ("x1", "x1")]),
)
ALPHABETS = st.builds(
    lambda plus, minus: Alphabet(tuple(plus), tuple(minus)),
    st.lists(LETTERS, max_size=2),
    st.lists(LETTERS, max_size=2),
)
SMALL_PARTITIONS = st.integers(0, 4).flatmap(lambda m: st.sampled_from(partitions_of(m)))


class TestAlphabetOracles:
    """The one-letter iteration against the charge route read through
    Jacobi-Trudi determinants, on random signed alphabets."""

    @settings(max_examples=60, deadline=None)
    @given(SMALL_PARTITIONS, ALPHABETS)
    def test_qprime_on_alphabet(self, lam, A):
        assert qprime_on_alphabet(lam, A) == qprime_on_alphabet_by_schur(lam, A)

    @settings(max_examples=60, deadline=None)
    @given(
        SMALL_PARTITIONS.flatmap(
            lambda lam: st.tuples(
                st.just(lam),
                st.one_of(
                    # inside lam, written reversed with a zero part
                    st.sampled_from(subpartitions(lam)).map(lambda mu: (0,) + mu[::-1]),
                    # any list of parts, inside lam or not
                    st.lists(st.integers(0, 3), max_size=4).map(tuple),
                ),
            )
        ),
        ALPHABETS,
    )
    def test_skew_qprime(self, lam_mu, A):
        lam, mu = lam_mu
        assert skew_qprime(lam, mu, A) == skew_qprime_by_extraction(lam, mu, A)

    def test_skew_qprime_inside_and_outside(self):
        A = Alphabet((letter(-1), letter(0, "x1", "y1")), (letter(1, "x2"),))
        for lam in partitions_up_to(4):
            for mu in subpartitions(lam) + [(0, 1, 2), (5,), (1, 1, 1, 1, 1)]:
                assert skew_qprime(lam, mu, A) == skew_qprime_by_extraction(
                    lam, mu, A
                ), (lam, mu)

    def test_empty_alphabet(self):
        A = Alphabet()
        one = XPoly.monomial((), ())
        for lam in partitions_up_to(4):
            assert qprime_on_alphabet(lam, A) == (one if not lam else XPoly())
            for mu in subpartitions(lam):
                want = one if mu == lam else XPoly()
                assert skew_qprime(lam, mu, A) == want
                assert skew_qprime_by_extraction(lam, mu, A) == want


def symmetric_alphabet(kind, n, r):
    """x1+...+xn, t^r - X, X + Y (n split in two) or X + t^r."""
    X = Alphabet.of_vars(*xvars(n))
    if kind == "t^r-X":
        return Alphabet((letter(r),)) - X
    if kind == "X+Y":
        return Alphabet.of_vars(*xvars(n // 2)) + Alphabet.of_vars(*yvars(n - n // 2))
    if kind == "X+t^r":
        return X + Alphabet((letter(r),))
    return X


SYMMETRIC_ALPHABETS = st.builds(
    symmetric_alphabet,
    st.sampled_from(["X", "t^r-X", "X+Y", "X+t^r"]),
    st.integers(2, 4),
    st.integers(-1, 2),
)
PARTITIONS_TO_7 = st.integers(0, 7).flatmap(lambda m: st.sampled_from(partitions_of(m)))


def branch_all(A, lam):
    """Q', P (plus letters only) and s of lam on A, straight from `_branch`."""
    tables = [hl._SHIFTS, hl._S_STRIPS] + ([] if A.minus else [hl._P_STRIPS])
    return [hl._branch(table, lam, A) for table in tables]


def oracles_all(A, lam):
    """The same values by the routes of `tests/oracles.py`."""
    out = [qprime_on_alphabet_by_schur(lam, A), schur_eval_by_jacobi_trudi(lam, A)]
    return out + ([] if A.minus else [p_on_alphabet_by_qprime(lam, A)])


def refuse_orbits(m):
    """Make the orbit path of `_branch` fail the test if it is taken."""

    def refused(terms):
        raise AssertionError("took the orbit path")

    m.setattr(hl, "_orbits", refused)


class TestOrbitPath:
    """`_branch` on alphabets symmetric in their variables computes one
    coefficient per orbit; it must equal the walk over every exponent
    vector and the oracles, and other alphabets must not take it."""

    @settings(max_examples=60, deadline=None)
    @given(PARTITIONS_TO_7, SYMMETRIC_ALPHABETS)
    def test_matches_full_loop_and_oracles(self, lam, A):
        assert hl._symmetric(A)
        calls, orbits = [], hl._orbits
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hl, "_orbits", lambda terms: calls.append(1) or orbits(terms))
            got = branch_all(A, lam)
        assert len(calls) == len(got)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hl, "_symmetric", lambda A: False)
            refuse_orbits(m)
            assert got == branch_all(A, lam)
        assert got == oracles_all(A, lam)

    @settings(max_examples=40, deadline=None)
    @given(
        PARTITIONS_TO_7,
        st.sampled_from(
            ["x1+x1", "x1*x2", "x1+t*x2", "(x1+x2)*(1-t)", "1-x1+x2", "x1", "t-x1"]
        ),
    )
    def test_other_alphabets_walk_every_vector(self, lam, text):
        A = parse_alphabet(text)
        assert not hl._symmetric(A)
        with pytest.MonkeyPatch.context() as m:
            refuse_orbits(m)
            assert branch_all(A, lam) == oracles_all(A, lam)

    def test_skew_walks_every_vector(self):
        A = Alphabet.of_vars(*xvars(3))
        with pytest.MonkeyPatch.context() as m:
            refuse_orbits(m)
            for lam in partitions_up_to(5):
                for mu in subpartitions(lam)[1:]:
                    assert skew_qprime(lam, mu, A) == skew_qprime_by_extraction(
                        lam, mu, A
                    ), (lam, mu)

    @settings(max_examples=60, deadline=None)
    @given(PARTITIONS_TO_7, SYMMETRIC_ALPHABETS)
    def test_computes_only_kept_values(self, lam, A):
        """Every entry the Q' table hands `_branch` is multiplied into a
        state at once, by one packed product, and the one-letter skew
        values asked for are exactly the plus entries."""
        log, asked, mul_packed = [], [], hl._mul_packed

        def offered(read, side):
            def spy(mu, window):
                for nu, size, c, norm, packed in read(mu, window):
                    log.append((side, mu, nu))
                    yield nu, size, c, norm, packed

            return spy

        def skew(mu, nu):
            asked.append((mu, nu))
            return skew_qprime_one(mu, nu)

        table = hl._SHIFTS._replace(
            plus=offered(hl._SHIFTS.plus, "plus"),
            minus=offered(hl._SHIFTS.minus, "minus"),
        )
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hl, "skew_qprime_one", skew)
            m.setattr(hl, "_mul_packed", lambda *a: log.append(None) or mul_packed(*a))
            got = hl._branch(table, lam, A)
        assert got == qprime_on_alphabet(lam, A)
        offers, muls = log[::2], log[1::2]
        assert None not in offers and muls == [None] * len(offers)
        plus = [(mu, nu) for side, mu, nu in offers if side == "plus"]
        assert sorted(asked) == sorted(plus)

    def test_skew_values_computed_from_cold_memos(self):
        # all of add_one(mu) at every state would make it 339
        skew_qprime_one.cache_clear()
        plane_partition_qprime((4, 3, 2, 1), 4)
        assert skew_qprime_one.cache_info().misses == 170

    def test_rearrangements(self):
        assert sorted(hl._rearrangements((2, 1, 1))) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
        assert list(hl._rearrangements(())) == [()]
        assert len(list(hl._rearrangements((3, 2, 2, 0, 0, 0)))) == 60

    def test_rearrangements_are_the_distinct_permutations(self):
        for n in range(6):
            for e in itertools.product(range(4), repeat=n):
                got = list(hl._rearrangements(e))
                assert len(got) == len(set(got)), e
                assert set(got) == set(itertools.permutations(e)), e


class TestPackedWalk:
    """`_branch` packs each t-polynomial into one int at t = 2^w and
    reads it back as balanced digits, widening w as the coefficients'
    bound grows."""

    @settings(max_examples=60, deadline=None)
    @given(SMALL_PARTITIONS, ALPHABETS)
    def test_widening_from_two_bits(self, lam, A):
        # At w = 2 a digit holds -1, 0 or 1, so any bound of 2 or more
        # widens and repacks the states first.
        widened, widen = [], hl._widen
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hl, "_WIDTH", 2)
            m.setattr(hl, "_widen", lambda *a: widened.append(1) or widen(*a))
            got = branch_all(A, lam)
        assert got == oracles_all(A, lam)
        big = any(abs(v) > 1 for f in got for v in f.terms.values())
        assert widened or not big

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([2, 3, 64]), st.integers(0, 200))
    def test_unpack_reads_long_ints(self, data, w, n):
        # Past 32 digits the reader splits v into two balanced halves.
        top = (1 << (w - 1)) - 1
        coeffs = data.draw(st.lists(st.integers(-top, top), min_size=n, max_size=n))
        want = [(s, c) for s, c in enumerate(coeffs) if c]
        assert list(_unpack(_pack(dict(want), w), w)) == want

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from([2, 3, 64]), st.integers(1, 3000))
    def test_pack_and_widen_long_polynomials(self, seed, w, n):
        # Past 32 coefficients the packer splits at the middle power; a
        # dense signed polynomial of n coefficients (at w = 2, a third 0).
        rng, top = random.Random(seed), (1 << (w - 1)) - 1
        coeffs = {s: rng.randint(-top, top) for s in range(n)}
        packed = _pack(coeffs, w)
        assert packed == pack_by_shifts(coeffs, w)
        assert dict(_unpack(packed, w)) == {s: c for s, c in coeffs.items() if c}
        assert _pack(coeffs, w, 5) == pack_by_shifts(coeffs, w) << 5 * w
        state = {((1,), 1): ({(0,): packed, (1,): -packed}, top)}
        wide = hl._widen(w, 1 << w, state)
        assert wide == 2 * w
        assert state[(1,), 1][0] == {
            (0,): pack_by_shifts(coeffs, wide),
            (1,): -pack_by_shifts(coeffs, wide),
        }

    @settings(max_examples=40, deadline=None)
    @given(
        SMALL_PARTITIONS,
        st.integers(-20000, 20000),
        st.sampled_from(["t^E+X", "t^E-X", "X-t^E"]),
        st.booleans(),
    )
    @example(lam=(2, 1, 1), E=-20000, kind="t^E+X", two_bits=True)
    @example(lam=(3, 1), E=20000, kind="X-t^E", two_bits=False)
    def test_wide_power_of_t(self, lam, E, kind, two_bits):
        # The letter t^E sits far below or above the variables' t^0, so
        # each packed int spans up to |lam| |E| powers of t.
        tE, X = Alphabet((letter(E),)), Alphabet.of_vars("x1", "x2")
        A = {"t^E+X": tE + X, "t^E-X": tE - X, "X-t^E": X - tE}[kind]
        with pytest.MonkeyPatch.context() as m:
            if two_bits:
                m.setattr(hl, "_WIDTH", 2)
            got = branch_all(A, lam)
        assert got == oracles_all(A, lam)

    def test_wide_span_is_refused(self):
        """A span of powers of t over `_MAX_SPAN` is refused before the
        walk packs anything; the limit itself is read."""
        limit = hl._MAX_SPAN

        def on(lam, E, end=()):
            return skew_qprime(lam, end, Alphabet((letter(E), letter(0, "x1"))))

        for E in (limit, -limit):
            assert on((1,), E) == XPoly.var("x1") + XPoly.const(T(E))
        assert on((2, 1), limit, end=(2,))  # the span counts |lam| - |end| steps
        for lam, E in [((1,), limit + 1), ((1,), -limit - 1), ((2, 1), limit)]:
            with pytest.raises(ValueError, match=f"span {sum(lam) * abs(E)},"):
                on(lam, E)
        with pytest.raises(ValueError, match="span 3000000000,"):
            qprime_on_alphabet((2, 1), parse_alphabet("t^1000000000+x1+x2"))


class TestTableEntries:
    """Each walk-table entry carries the 1-norm of its coefficient and
    the coefficient packed at `_ENTRY_WIDTH`; the memoized rows are
    sorted by size and read in a window by bisection."""

    ROWS = [hl._sub_one_terms, hl._strip_terms]

    @pytest.mark.parametrize("m", range(9))
    def test_entries_carry_norm_and_packed_coefficient(self, m):
        for mu in partitions_of(m):
            whole = hl._add_one_terms(mu, range(m + 1))
            for row in [terms(mu) for terms in self.ROWS] + [whole]:
                assert row, mu
                sizes = [size for _, size, _, _, _ in row]
                assert sizes == sorted(sizes), mu
                for nu, size, c, norm, packed in row:
                    assert size == sum(nu)
                    assert norm == sum(abs(v) for v in c.coeffs.values()) > 0
                    assert dict(_unpack(packed, hl._ENTRY_WIDTH)) == c.coeffs

    @pytest.mark.parametrize("m", range(9))
    def test_bisected_window_is_the_filtered_row(self, m):
        for mu in partitions_of(m):
            for terms in self.ROWS:
                read = hl._in_window(terms)
                for lo, hi in itertools.product(range(-1, m + 2), repeat=2):
                    window = range(lo, hi + 1)
                    want = [e for e in terms(mu) if e[1] in window]
                    assert list(read(mu, window)) == want, (mu, lo, hi)

    CASES = [
        (lam, parse_alphabet(text))
        for lam in partitions_up_to(5)
        for text in ["t^2-x1-x2", "1-x1", "x1+x2-y1", "(x1+x2)*(1-t)", "x1+x2+y1"]
    ]

    def test_rows_outlive_a_change_of_starting_width(self):
        """Rows memoized by walks that start at one width serve walks
        that start at another, both ways, with no memo cleared between;
        each value equals the walk from cold rows at the default width."""

        def clear_rows():
            hl._sub_one_terms.cache_clear()
            hl._strip_terms.cache_clear()

        clear_rows()
        want = [branch_all(A, lam) for lam, A in self.CASES]
        for first, then in [(2, hl._WIDTH), (hl._WIDTH, 2)]:
            clear_rows()
            with pytest.MonkeyPatch.context() as m:
                m.setattr(hl, "_WIDTH", first)
                for lam, A in self.CASES:
                    branch_all(A, lam)
                m.setattr(hl, "_WIDTH", then)
                got = [branch_all(A, lam) for lam, A in self.CASES]
            assert got == want, (first, then)


class TestPlanePartitionRoute:
    def test_single_box(self):
        got = plane_partition_qprime((1,), 2)
        assert got == XPoly.monomial(xvars(2), (1, 0)) + XPoly.monomial(
            xvars(2), (0, 1)
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_routes_agree(self, n):
        for lam in partitions_up_to(4):
            assert plane_partition_qprime(lam, n) == tableau_route_xpoly(
                lam, n
            ), (lam, n)

    def test_routes_agree_on_any_spelling(self):
        # the tableau route read (1, 2) as the vector it spells, whose
        # Q' is not Q'_(2,1)
        want = plane_partition_qprime((2, 1), 2)
        for spelling in [(1, 2), (2, 1, 0), (0, 1, 2), (1, 0, 2, 0)]:
            assert plane_partition_qprime(spelling, 2) == want, spelling
            assert tableau_route_xpoly(spelling, 2) == want, spelling

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 7).flatmap(lambda m: st.sampled_from(partitions_of(m))),
        st.integers(0, 4),
    )
    def test_branching_matches_chains_and_tableaux(self, lam, n):
        got = plane_partition_qprime(lam, n)
        by_chains = XPoly()
        for chain in layer_chains(lam, n):
            by_chains = by_chains + chain_weight(chain)
        assert got == by_chains
        assert got == tableau_route_xpoly(lam, n)

    def test_chain_weight_example(self):
        w = chain_weight(((2, 1), (1,), ()))
        assert w == XPoly.monomial(
            xvars(2), (2, 1), skew_qprime_one((2, 1), (1,))
        )


class TestFactorizations:
    def test_width_split(self):
        assert split_for_width((4, 3, 1), 3) == (2, (1,), (1,))
        assert split_for_width((2, 1), 5) == (0, (), (2, 1))
        with pytest.raises(ValueError):
            split_for_width((1,), 0)

    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("n", [1, 2])
    def test_full_alphabet_factorization(self, r, n):
        for lam in partitions_up_to(5):
            lhs, rhs = factorization_sides(lam, r, n)
            assert lhs == rhs, (lam, r, n)

    @settings(max_examples=60, deadline=None)
    @given(PARTITIONS_TO_7, st.integers(0, 2), st.integers(1, 3))
    def test_width_split_on_random_cases(self, lam, r, n):
        lhs, rhs = factorization_sides(lam, r, n)
        assert lhs == rhs, (lam, r, n)

    def test_product_matches_chain(self):
        # k = 0 and n = 0 are the empty product, t^s alone
        for r, k, n, s in itertools.product(range(-3, 4), range(7), range(4), (-2, 0, 3)):
            want = t_power_minus_x_product_by_chain(r, k, n).scale(T(s))
            assert hl._t_power_minus_x_product(r, k, n, s) == want, (r, k, n, s)

    def test_principal_specialization(self):
        one_minus_x1 = t_minus_x_alphabet(0, 1)
        for lam in partitions_up_to(5):
            assert principal_specialization(lam) == qprime_on_alphabet(lam, one_minus_x1), lam

    def test_unsorted_and_padded_spellings_give_the_sorted_value(self):
        # each spelling was read as given: (1, 2, 0) gave a cubic in x1,
        # and the two sides at (1, 2) differed
        for lam in partitions_up_to(5)[1:]:
            for spelling in set(itertools.permutations(lam + (0,))):
                assert hl.principal_specialization(spelling) == hl.principal_specialization(lam)
                assert split_for_width(spelling, 2) == split_for_width(lam, 2)
                for r, n in ((0, 1), (0, 2), (1, 2)):
                    sides = hl.factorization_sides(spelling, r, n)
                    assert sides == hl.factorization_sides(lam, r, n), (spelling, r, n)
                    assert sides[0] == sides[1], (spelling, r, n)

    def test_two_letter_shape(self):
        assert two_letter_shape(2, (1,), 1) == (3, 2, 1)
        with pytest.raises(ValueError):
            two_letter_shape(1, (1, 1), 2)

    def test_two_letter_cases(self):
        # beta >= 3 reaches multinomials with three nonzero parts
        for k in range(4):
            for beta in range(5):
                for nu in partitions_up_to(2):
                    if len(nu) > k:
                        continue
                    lhs, rhs = two_letter_sides(k, nu, beta)
                    assert lhs == rhs, (k, nu, beta)


class TestBasisExpansion:
    def test_render(self):
        e = BasisExpansion(
            "Qp",
            {
                (2, 1): L_ONE,
                (3,): LaurentPoly({1: 1, 2: 1}),
                (1, 1, 1): -T(2),
            },
        )
        assert e.render() == "(-t^2)*Qp[1,1,1] + Qp[2,1] + (t + t^2)*Qp[3]"
        assert BasisExpansion("S", {}).render() == "0"
        assert BasisExpansion("S", {(): L_ONE}).render() == "S[]"

    def test_zero_coeffs_dropped(self):
        e = BasisExpansion("Qp", {(1,): LaurentPoly()})
        assert e.coeffs == {}

    def test_json_round_trip(self):
        e = add_one((2, 2, 1))
        back = BasisExpansion.from_json(e.to_json())
        assert back == e

    def test_json_shape(self):
        data = BasisExpansion("Qp", {(2, 1): T(1)}).to_json()
        assert data == {
            "basis": "Qp",
            "coeffs": [{"partition": [2, 1], "poly": {"1": 1}}],
        }

    def test_items_sorted_by_size_then_lex(self):
        e = BasisExpansion(
            "Qp", {(3,): L_ONE, (1,): L_ONE, (2, 1): L_ONE, (1, 1): L_ONE}
        )
        assert [k for k, _ in e.items_sorted()] == [
            (1,),
            (1, 1),
            (2, 1),
            (3,),
        ]


def principal_p(lam, n):
    """P_lam(1, t, ..., t^{n-1}) = t^{n(lam)} v_n(t) / prod_i v_{m_i}(t),
    m_0 = n - l(lam) (Macdonald, Symmetric Functions and Hall
    Polynomials, III.2, Example 1); the (1 - t) of each v cancel."""
    if len(lam) > n:
        return LaurentPoly()
    mults = [n - len(lam)] + [lam.count(p) for p in set(lam)]
    denominator = L_ONE
    for m in mults:
        denominator = denominator * one_minus_t_powers(range(1, m + 1))
    numerator = one_minus_t_powers(range(1, n + 1)).shift(n_stat(lam))
    return numerator.exact_div(denominator)


def powers_of_t(n):
    """The alphabet 1 + t + ... + t^{n-1}, as a literal."""
    return parse_alphabet("+".join(["1", "t"][:n] + [f"t^{i}" for i in range(2, n)]))


class TestPrincipalSpecialization:
    """Values at powers of t against their closed forms: each checks one
    table of `_branch` against a product formula."""

    @settings(max_examples=80, deadline=None)
    @given(PARTITIONS_TO_7, st.integers(1, 5))
    def test_p_strips(self, lam, n):
        assert p_on_alphabet(lam, powers_of_t(n)) == XPoly.const(principal_p(lam, n))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 9).flatmap(lambda m: st.sampled_from(partitions_of(m))),
           st.integers(1, 6))
    def test_qprime_shifts(self, lam, n):
        # Q'_lam[1 - t^n] = Q_lam(1, ..., t^{n-1}).  `_branch` takes the
        # letter -t^n first; the shift X + 1 first reads every value of
        # add_one(lam), not only those at the empty partition.
        want = XPoly.const(b_poly(lam) * principal_p(lam, n))
        assert qprime_on_alphabet(lam, parse_alphabet(f"1-t^{n}")) == want
        minus = parse_alphabet(f"-t^{n}")
        shifted = _linear_combination(
            (qprime_on_alphabet(mu, minus), c) for mu, c in add_one(lam).coeffs.items()
        )
        assert shifted == want

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda m: st.sampled_from(partitions_of(m))),
           st.integers(1, 5))
    def test_s_strips(self, lam, n):
        assert schur_eval(lam, powers_of_t(n)) == XPoly.const(principal_s(lam, n))
