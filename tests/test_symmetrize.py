"""Divided differences, straightening, and the truncated kernel.

The kernel oracle here expands the geometric factors directly with a
degree cap and checks cap-stability before comparing, so it shares no
logic with the creation operators in the module.  The kernel route is
also checked against the column enumeration of the kernel
(`oracles.kernel_schur_by_columns`), against the charge route
(`oracles.qprime_schur_by_charge`) and against the hook formula for 1^n,
also when the rows H_m s_lam that one vector built are read by others.
"""

import pytest
from hypothesis import given, settings, strategies as st

from hlkit.laurent import LaurentPoly, ONE as L_ONE
from hlkit.xpoly import XPoly, xvars
from hlkit import symmetrize
from hlkit.alphabets import Alphabet
from hlkit.hall_littlewood import _qprime_schur_cached, qprime_schur, schur_eval
from hlkit.partitions import conjugate, n_stat, partitions_of, t_factorial
from hlkit.symmetrize import _prepend, kernel_schur, pi_i, pi_omega, straighten_schur, swap_si
from oracles import (
    kernel_schur_by_columns,
    longest_word,
    pi_omega_via_word,
    qprime_schur_by_charge,
    schur_dict_to_xpoly,
    straighten_schur_by_exchange,
    to_schur,
    truncate_suffix_nonneg,
)


def mono(n, exps, coeff=1):
    c = coeff if isinstance(coeff, LaurentPoly) else LaurentPoly({0: coeff})
    return XPoly(xvars(n), {tuple(exps): c})


def laurent_polys(n, max_abs=3):
    exps = st.tuples(*[st.integers(-max_abs, max_abs)] * n)
    coeff = st.builds(
        LaurentPoly,
        st.dictionaries(st.integers(-1, 2), st.integers(-3, 3), max_size=2),
    )
    return st.dictionaries(exps, coeff, min_size=1, max_size=4).map(
        lambda d: XPoly(xvars(n), d)
    )


def kernel_bruteforce(u, cap):
    """x^u times every geometric factor truncated at transfer cap."""
    n = len(u)
    vars = xvars(n)
    f = XPoly(vars, {tuple(u): L_ONE})
    for j in range(2, n + 1):
        for i in range(1, j):
            terms = {}
            for k in range(cap + 1):
                e = [0] * n
                e[i - 1] = k
                e[j - 1] = -k
                terms[tuple(e)] = LaurentPoly.t_power(k)
            f = f * XPoly(vars, terms)
    return to_schur(f, n)


class TestPiI:
    def test_on_monomials(self):
        assert pi_i(mono(2, (1, 0)), 1, 2) == mono(2, (1, 0)) + mono(2, (0, 1))
        assert pi_i(mono(2, (0, 0)), 1, 2) == mono(2, (0, 0))
        assert pi_i(mono(2, (0, 1)), 1, 2) == XPoly()

    def test_output_symmetric(self):
        f = mono(3, (2, 0, 1)) + mono(3, (0, -1, 3), 2)
        g = pi_i(f, 2, 3)
        assert swap_si(g, 2, 3) == g

    @given(laurent_polys(2))
    @settings(max_examples=40)
    def test_idempotent(self, f):
        g = pi_i(f, 1, 2)
        assert pi_i(g, 1, 2) == g

    @given(laurent_polys(3, max_abs=2))
    @settings(max_examples=25, deadline=None)
    def test_braid(self, f):
        lhs = pi_i(pi_i(pi_i(f, 1, 3), 2, 3), 1, 3)
        rhs = pi_i(pi_i(pi_i(f, 2, 3), 1, 3), 2, 3)
        assert lhs == rhs

    def test_distant_commute(self):
        f = mono(4, (1, -1, 2, 0)) + mono(4, (0, 2, -1, 1), -3)
        assert pi_i(pi_i(f, 1, 4), 3, 4) == pi_i(pi_i(f, 3, 4), 1, 4)


class TestPiOmega:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_word(self, n):
        assert longest_word(n) == {1: (), 2: (1,), 3: (1, 2, 1)}[n]

    @given(laurent_polys(2))
    @settings(max_examples=30)
    def test_two_routes_agree_n2(self, f):
        assert pi_omega(f, 2) == pi_omega_via_word(f, 2)

    @given(laurent_polys(3, max_abs=2))
    @settings(max_examples=15, deadline=None)
    def test_two_routes_agree_n3(self, f):
        assert pi_omega(f, 3) == pi_omega_via_word(f, 3)

    @pytest.mark.parametrize("lam", [(1,), (2,), (2, 1), (3, 1), (2, 2)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_sends_dominant_monomials_to_schur(self, lam, n):
        v = lam + (0,) * (n - len(lam))
        assert pi_omega(mono(n, v), n) == schur_eval(lam, Alphabet.of_vars(*xvars(n)))

    def test_laurent_monomial_differs_from_straightening(self):
        # straightening kills (3, -1) but the raw operator does not
        assert straighten_schur((3, -1)) is None
        got = pi_omega(mono(2, (3, -1)), 2)
        want = (
            mono(2, (3, -1))
            + mono(2, (2, 0))
            + mono(2, (1, 1))
            + mono(2, (0, 2))
            + mono(2, (-1, 3))
        )
        assert got == want

    def test_matches_straightening_on_nonneg_box(self):
        X = Alphabet.of_vars("x1", "x2")
        for a in range(4):
            for b in range(4):
                got = pi_omega(mono(2, (a, b)), 2)
                st_ = straighten_schur((a, b))
                if st_ is None:
                    assert got == XPoly(), (a, b)
                else:
                    sign, lam = st_
                    assert got == schur_eval(lam, X).scale(sign), (a, b)


class TestStraighten:
    def test_frozen(self):
        assert straighten_schur((2, 1)) == (1, (2, 1))
        assert straighten_schur((0, 2)) == (-1, (1, 1))
        assert straighten_schur((0, 3)) == (-1, (2, 1))
        assert straighten_schur((1, 2)) is None
        assert straighten_schur((3, -1)) is None
        assert straighten_schur(()) == (1, ())
        assert straighten_schur((0, 0)) == (1, ())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rules_agree_on_box(self, n):
        from itertools import product

        for v in product(range(-3, 4), repeat=n):
            assert straighten_schur(v) == straighten_schur_by_exchange(v), v

    def test_empty_vector_both_rules(self):
        assert straighten_schur_by_exchange(()) == (1, ())

    def test_one_step_rule_against_exchange(self):
        # Every (h, nu) that the kernel step reads, and more: nu a
        # partition of at most 9, with up to two trailing zeros.
        checked = 0
        for size in range(10):
            for nu in partitions_of(size):
                for pad in range(3):
                    padded = nu + (0,) * pad
                    for h in range(-12, 12):
                        v = (h,) + padded
                        assert _prepend(h, padded) == straighten_schur_by_exchange(v), v
                        checked += 1
        assert checked == 6984


class TestToSchur:
    def test_drops_suffix_negative(self):
        assert to_schur(mono(2, (3, -1)), 2) == {}

    def test_truncation_filter(self):
        f = mono(2, (3, -1)) + mono(2, (1, 1), 5)
        kept = truncate_suffix_nonneg(f, 2)
        assert kept == mono(2, (1, 1), 5)

    def test_linear(self):
        f = mono(2, (2, 0)) + mono(2, (0, 2))
        a = to_schur(f, 2)
        assert a == {(2,): LaurentPoly({0: 1}), (1, 1): LaurentPoly({0: -1})}

    @pytest.mark.parametrize("lam", [(1,), (2, 1), (2, 2), (3, 1)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_schur_is_fixed(self, lam, n):
        f = schur_eval(lam, Alphabet.of_vars(*xvars(n)))
        assert to_schur(f, n) == {lam: L_ONE}

    def test_round_trip(self):
        coeffs = {(2, 1): LaurentPoly({1: 1}), (3,): LaurentPoly({0: 2})}
        f = schur_dict_to_xpoly(coeffs, 2)
        assert to_schur(f, 2) == coeffs


class TestKernel:
    def test_micro_values(self):
        t = LaurentPoly.t_power
        assert kernel_schur((2, 1)) == {(2, 1): t(0), (3,): t(1)}
        assert kernel_schur((0, 1)) == {(1,): t(1)}
        assert kernel_schur((1, -1)) == {}
        assert kernel_schur(()) == {(): L_ONE}
        assert kernel_schur((0, 2)) == {(1, 1): LaurentPoly({0: -1, 1: 1}), (2,): t(2)}

    def test_negative_total_is_zero(self):
        assert kernel_schur((1, -3)) == {}
        assert kernel_schur((-1,)) == {}

    @pytest.mark.parametrize(
        "u",
        [
            (2, 1),
            (0, 2),
            (1, -1, 2),
            (0, 0, 3),
            (2, 1, 0),
            (-1, 2, 1),
            (1, 1, 1),
            (0, 2, -1),
        ],
    )
    def test_against_capped_expansion(self, u):
        cap = sum(abs(x) for x in u) + 3
        lo = kernel_bruteforce(u, cap)
        hi = kernel_bruteforce(u, cap + 1)
        assert lo == hi, f"cap {cap} not stable for {u}"
        assert kernel_schur(u) == lo

    def test_coefficients_polynomial_in_t(self):
        for u in [(2, 1), (3, 1, 1), (2, 2, 1)]:
            for c in kernel_schur(u).values():
                assert c.min_exp() >= 0

    @given(
        st.lists(st.integers(-2, 4), max_size=6)
        .map(tuple)
        # The oracle's term dict grows fast with the positive total.
        .filter(lambda u: sum(x for x in u if x > 0) <= 10)
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_column_enumeration(self, u):
        assert kernel_schur(u) == kernel_schur_by_columns(u)

    @given(
        st.integers(0, 8).flatmap(lambda m: st.sampled_from(partitions_of(m))),
        st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_charge_route(self, lam, z):
        assert qprime_schur_by_charge(lam) == kernel_schur(lam + (0,) * z)

    def test_ones_ten_matches_charge_route(self):
        # The column enumeration of the kernel takes minutes here; the
        # creation operators keep only the Schur terms of each step.
        assert kernel_schur((1,) * 10) == qprime_schur_by_charge((1,) * 10)

    @pytest.mark.parametrize("n", range(13))
    def test_ones_match_hook_formula(self, n):
        # K_{lam,1^n}(t) = t^{n(lam')} (t;t)_n / prod_{c in lam} (1 - t^{h(c)}).
        expected = {}
        for lam in partitions_of(n):
            conj = conjugate(lam)
            hooks = L_ONE
            for i, row in enumerate(lam):
                for j in range(row):
                    hooks = hooks * (L_ONE - LaurentPoly.t_power(row - j + conj[j] - i - 1))
            expected[lam] = t_factorial(n).exact_div(hooks).shift(n_stat(conj))
        assert kernel_schur((1,) * n) == expected

    def test_long_vectors(self):
        # One step per entry, with no recursion on the suffix.
        assert kernel_schur((0,) * 1200 + (1,)) == {(1,): LaurentPoly.t_power(1200)}
        assert kernel_schur((1,) + (0,) * 1200) == {(1,): L_ONE}


class TestCreationRows:
    """Rows H_m s_lam built for one vector and read by others.

    The row memo outlives each Q': here only the memos of whole
    expansions are cleared between passes, so a later pass reads rows
    that an earlier one built, in another order."""

    @staticmethod
    def clear_expansions():
        _qprime_schur_cached.cache_clear()
        symmetrize._kernel_schur_cached.cache_clear()

    def test_partitions_forward_then_reverse(self):
        symmetrize._creation_row.cache_clear()
        lams = [lam for n in range(10) for lam in partitions_of(n)]
        for order in (lams, lams[::-1]):
            self.clear_expansions()
            for lam in order:
                assert qprime_schur(lam).coeffs == qprime_schur_by_charge(lam), lam
        assert symmetrize._creation_row.cache_info().hits

    def test_mixed_signs_sharing_first_entries(self):
        symmetrize._creation_row.cache_clear()
        self.clear_expansions()
        heads = [(2, -1), (0, 2), (-1, 3), (1, 1)]
        tails = [(a, b) for a in range(-1, 3) for b in range(-2, 3)]
        for head in heads:
            for tail in tails:
                u = head + tail
                assert kernel_schur(u) == kernel_schur_by_columns(u), u
        assert symmetrize._creation_row.cache_info().hits
