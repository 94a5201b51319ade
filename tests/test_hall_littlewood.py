"""Schur expansions of Q', argument shifts, and factorizations.

Cross-checks used here, none of which share code with the route under
test: the charge enumeration of the Schur expansion, the symmetrizer
definition of Q, Q and P through Q'(X(1-t)), the layer-chain expansion,
the four-term exchange relation for vector arguments, and classical
specializations (t=0 Schur, t=1 monomial).
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hlkit.laurent import LaurentPoly, ONE as L_ONE
from hlkit import hall_littlewood as hl
from hlkit.partitions import (
    b_poly,
    n_stat,
    normalize,
    partitions_of,
    partitions_up_to,
    subpartitions,
    t_binomial,
)
from hlkit.alphabets import Alphabet, letter
from hlkit.xpoly import XPoly, _grouped, xvars, yvars
from hlkit.hall_littlewood import (
    BasisExpansion,
    DecompositionError,
    add_one,
    aleph,
    compose_shift,
    kostka_foulkes,
    one_minus_x_factorization_check,
    p_on_alphabet,
    p_on_xvars,
    plane_partition_qprime,
    principal_specialization_check,
    q_on_alphabet,
    q_on_xvars,
    q_via_operator,
    qprime_of_vector,
    qprime_on_alphabet,
    qprime_schur,
    qprime_vector_schur,
    schur_on_xvars,
    schur_to_qprime,
    skew_qprime,
    skew_qprime_one,
    skew_qprime_one_columns,
    split_for_width,
    sub_one,
    tableau_route_xpoly,
    two_letter_factorization_check,
    two_letter_shape,
)
from hlkit.symmetrize import kernel_schur
from hlkit.tableaux import layer_chains
from oracles import (
    chain_weight,
    p_on_alphabet_by_qprime,
    q_on_alphabet_by_qprime,
    qprime_on_alphabet_by_schur,
    qprime_schur_by_charge,
    skew_qprime_by_extraction,
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
        for lam in partitions_up_to(5):
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
        for lam in partitions_up_to(4):
            if len(lam) > n:
                continue
            assert q_via_operator(lam, n) == q_on_xvars(lam, n), (lam, n)

    def test_operator_needs_enough_variables(self):
        with pytest.raises(ValueError):
            q_via_operator((1, 1, 1), 2)

    def test_vanishing_beyond_width(self):
        assert not q_on_xvars((1, 1, 1), 2)
        assert not p_on_xvars((2, 2, 1), 2)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_strip_route_matches_two_letter_route(self, n):
        A = Alphabet.of_vars(*xvars(n))
        for lam in partitions_up_to(5):
            assert p_on_xvars(lam, n) == p_on_alphabet_by_qprime(lam, A), lam
            assert q_on_xvars(lam, n) == q_on_alphabet_by_qprime(lam, A), lam

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 8).flatmap(lambda m: st.sampled_from(partitions_of(m))),
        st.lists(PLUS_LETTERS, max_size=4),
    )
    def test_strip_route_on_random_alphabets(self, lam, plus):
        A = Alphabet(tuple(plus))
        assert p_on_alphabet(lam, A) == p_on_alphabet_by_qprime(lam, A)
        assert q_on_alphabet(lam, A) == q_on_alphabet_by_qprime(lam, A)

    def test_q_on_xvars_reads_the_p_memo(self, monkeypatch):
        p_on_xvars.cache_clear()
        q_on_xvars.cache_clear()
        p = p_on_xvars((3, 1), 3)
        calls = []
        branch = hl._branch
        monkeypatch.setattr(
            hl, "_branch", lambda *args: calls.append(args) or branch(*args)
        )
        q = q_on_xvars((3, 1), 3)
        assert calls == []
        assert q == p.scale(b_poly((3, 1)))
        assert q == q_on_alphabet_by_qprime((3, 1), Alphabet.of_vars(*xvars(3)))

    @pytest.mark.parametrize("route", [p_on_alphabet, q_on_alphabet])
    def test_strip_route_refuses_minus_letters(self, route):
        A = Alphabet((letter(0, "x1"),), (letter(1, "x2"),))
        with pytest.raises(ValueError, match="plus letters"):
            route((2, 1), A)
        with pytest.raises(ValueError, match="plus letters"):
            route((), -Alphabet.of_vars("x1"))

    def test_t_zero_is_schur(self):
        for lam in partitions_up_to(4):
            if len(lam) > 2:
                continue
            q = q_on_xvars(lam, 2)
            s = schur_on_xvars(lam, 2)
            assert eval_t(q, 0) == eval_t(s, 0), lam

    def test_t_one_is_monomial(self):
        got = eval_t(p_on_xvars((2, 1), 3), 1)
        want = {e: 1 for e in set(itertools.permutations((2, 1, 0)))}
        assert got == want


class TestOneLetterSkew:
    def test_two_rules_agree(self):
        for lam in partitions_up_to(6):
            for mu in subpartitions(lam):
                assert skew_qprime_one(lam, mu) == skew_qprime_one_columns(
                    lam, mu
                ), (lam, mu)

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
                got = skew_qprime(lam, mu, Alphabet.unit())
                assert got == XPoly.const(aleph(lam, mu)), (lam, mu)
                assert got == skew_qprime_by_extraction(lam, mu, Alphabet.unit())

    def test_two_block_sum_rule(self):
        AX = Alphabet.of_vars(*xvars(2))
        AY = Alphabet.of_vars(*yvars(2))
        for lam in partitions_up_to(4):
            acc = XPoly.zero()
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
        A = Alphabet.empty()
        one = XPoly.monomial((), ())
        for lam in partitions_up_to(4):
            assert qprime_on_alphabet(lam, A) == (one if not lam else XPoly.zero())
            for mu in subpartitions(lam):
                want = one if mu == lam else XPoly.zero()
                assert skew_qprime(lam, mu, A) == want
                assert skew_qprime_by_extraction(lam, mu, A) == want


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

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 7).flatmap(lambda m: st.sampled_from(partitions_of(m))),
        st.integers(0, 4),
    )
    def test_branching_matches_chains_and_tableaux(self, lam, n):
        got = plane_partition_qprime(lam, n)
        by_chains = XPoly.zero()
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
        with pytest.raises(DecompositionError):
            split_for_width((1,), 0)

    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("n", [1, 2])
    def test_full_alphabet_factorization(self, r, n):
        for lam in partitions_up_to(5):
            assert one_minus_x_factorization_check(lam, r, n), (lam, r, n)

    def test_principal_specialization(self):
        for lam in partitions_up_to(5):
            assert principal_specialization_check(lam), lam

    def test_two_letter_shape(self):
        assert two_letter_shape(2, (1,), 1) == (3, 2, 1)
        with pytest.raises(ValueError):
            two_letter_shape(1, (1, 1), 2)

    def test_two_letter_cases(self):
        for k in (1, 2):
            for beta in (0, 1, 2):
                for nu in partitions_up_to(2):
                    if len(nu) > k:
                        continue
                    assert two_letter_factorization_check(k, nu, beta), (
                        k,
                        nu,
                        beta,
                    )


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
