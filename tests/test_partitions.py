import re
import sys
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import hlkit
from hlkit.alphabets import Alphabet, parse_alphabet
from hlkit.hall_littlewood import (
    add_one,
    aleph,
    kostka_foulkes,
    p_on_alphabet,
    plane_partition_qprime,
    qprime_of_vector,
    qprime_on_alphabet,
    qprime_schur,
    qprime_vector_schur,
    schur_eval,
    skew_qprime,
    sub_one,
)
from hlkit.identities import (
    sigmaxy_coefficient,
    theta,
    theta_product_form,
    theta_scalar_parts,
    theta_signed_sum,
    warnaar3_sides,
)
from hlkit.laurent import ONE, T
from hlkit.partitions import (
    MAX_DIGITS,
    MAX_LIST_LENGTH,
    b_poly,
    conjugate,
    contains,
    dominance_leq,
    is_horizontal_strip,
    is_partition,
    multiplicities,
    n_skew,
    n_stat,
    normalize,
    parse_ints,
    parse_partition,
    parse_parts,
    partitions_of,
    partitions_up_to,
    subpartitions,
    suffix_nonneg,
    t_binomial,
    t_factorial,
)
from hlkit.symmetrize import kernel_schur
from hlkit.tableaux import enumerate_ssyt
from oracles import format_partition, is_vertical_strip, skew_schur_eval

parts = st.lists(st.integers(1, 6), max_size=5).map(normalize)


class TestBasics:
    def test_normalize(self):
        assert normalize([0, 3, 1, 0, 2]) == (3, 2, 1)
        assert normalize(()) == ()
        with pytest.raises(ValueError, match="negative part -1"):
            normalize((2, -1))
        with pytest.raises(TypeError):
            normalize((2.5, 1))

    def test_is_partition(self):
        assert is_partition((3, 2, 2))
        assert not is_partition((2, 3))

    def test_parse(self):
        assert parse_partition("4,4,3,2") == (4, 4, 3, 2)
        assert parse_partition("[2, 1]") == (2, 1)
        assert parse_partition("4^2 3") == (4, 4, 3)
        assert parse_partition("empty") == ()
        assert parse_partition("-") == ()
        assert parse_partition("0") == ()

    def test_parse_normalizes_and_rejects_negatives(self):
        assert parse_partition("1,2") == (2, 1)
        with pytest.raises(ValueError):
            parse_partition("3,-1")

    def test_parse_parts_keeps_order_and_zeros(self):
        assert parse_parts("1,2") == (1, 2)
        assert parse_parts("[0 2^2, 1]") == (0, 2, 2, 1)
        assert parse_parts("empty") == ()
        with pytest.raises(ValueError):
            parse_parts("1,-2")

    def test_parse_ints_grammar(self):
        assert parse_ints("[0 2^2, 1]") == (0, 2, 2, 1)
        assert parse_ints("-1^2 3") == (-1, -1, 3)
        assert parse_ints(" ( 2 , 1 ) ") == (2, 1)
        assert parse_ints("1^0,2") == (2,)
        assert parse_ints("0") == (0,)
        for text in ("", " ", "-", "empty", "[]", "( )"):
            assert parse_ints(text) == ()

    @pytest.mark.parametrize(
        "text",
        ["2,,1", "2,1,", ",2", "2, ,1", "2^", "^2", "2^-1", "2^x", "[2,1", "2,1]",
         "[2,1)", "[", "x", "1.5", "[[1]]", "2 1^99999999999999999999",
         "1^1000000000"],
    )
    def test_parse_ints_refuses_and_quotes(self, text):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_ints(text)

    def test_parse_ints_length_bound(self):
        # The repeat counts are totalled before the list is built.
        assert len(parse_ints(f"1^{MAX_LIST_LENGTH}")) == MAX_LIST_LENGTH
        with pytest.raises(ValueError, match="more than"):
            parse_ints(f"1^{MAX_LIST_LENGTH}, 2")

    def test_parse_ints_digit_bound(self):
        # refused before int(), which stops at 4300 digits
        big = "9" * 5000
        for text in (big, f"1^{big}", f"-{big}", "0" * (MAX_DIGITS + 1)):
            with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
                parse_ints(text)
        assert parse_ints("9" * MAX_DIGITS) == (10**MAX_DIGITS - 1,)
        zeros = "0" * MAX_DIGITS
        assert parse_ints(f"+{zeros}^{zeros[1:]}1") == (0,)

    def test_format_round_trip(self):
        lam = (4, 4, 3)
        assert parse_partition(format_partition(lam)) == lam


class TestConjugate:
    def test_example(self):
        assert conjugate((4, 4, 3, 2, 2, 2, 1)) == (7, 6, 3, 2)

    @given(parts)
    def test_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam

    @given(parts)
    def test_n_stat_via_conjugate(self, lam):
        assert n_stat(lam) == sum((i) * p for i, p in enumerate(lam))
        assert n_stat(lam) == sum(comb(c, 2) for c in conjugate(lam))


class TestSkewStat:
    def test_worked_value(self):
        assert n_skew((4, 4, 3, 2, 2, 2, 1), (2, 2, 1, 1)) == 13

    def test_empty_inner(self):
        lam = (3, 2, 2)
        assert n_skew(lam, ()) == n_stat(lam)

    def test_requires_containment(self):
        with pytest.raises(ValueError):
            n_skew((2,), (3,))


class TestPolynomials:
    def test_b_poly(self):
        assert b_poly(()) == ONE
        assert b_poly((1,)) == ONE - T
        # two groups of multiplicity 2 each
        expect = ((ONE - T) * (ONE - T * T)) ** 2
        assert b_poly((2, 2, 1, 1)) == expect

    def test_t_factorial(self):
        assert t_factorial(0) == ONE
        assert t_factorial(2) == (ONE - T) * (ONE - T * T)

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_t_binomial_counts(self, m, a):
        if a > m:
            return
        g = t_binomial(m, a)
        # at t=1 the Gaussian binomial counts subsets
        assert sum(g.coeffs.values()) == comb(m, a)
        assert all(v >= 0 for v in g.coeffs.values())

    def test_t_binomial_symmetry(self):
        assert t_binomial(5, 2) == t_binomial(5, 3)


class TestEnumeration:
    def test_partition_counts(self):
        known = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
        for m, c in known.items():
            assert len(list(partitions_of(m))) == c

    def test_bounded(self):
        assert set(partitions_of(4, max_length=2)) == {
            (4,),
            (3, 1),
            (2, 2),
        }

    def test_partitions_up_to(self):
        got = list(partitions_up_to(3))
        assert len(got) == 1 + 1 + 2 + 3

    @given(parts)
    def test_subpartitions_match_filter(self, lam):
        got = set(subpartitions(lam))
        want = {
            mu
            for m in range(sum(lam) + 1)
            for mu in partitions_of(m)
            if contains(lam, mu)
        }
        assert got == want

    def test_subpartitions_sorted_and_unique(self):
        subs = list(subpartitions((3, 2)))
        assert len(subs) == len(set(subs))
        assert subs == sorted(subs, key=lambda mu: (sum(mu), mu))

    def test_subpartitions_of_a_long_column(self):
        # 1000 rows: deeper than the recursion limit as nested calls
        assert subpartitions((1,) * 1000) == [(1,) * k for k in range(1001)]


class TestOrders:
    def test_dominance(self):
        assert dominance_leq((1, 1, 1), (3,))
        assert not dominance_leq((3,), (2, 2))

    @given(parts)
    def test_dominance_reflexive(self, lam):
        assert dominance_leq(lam, lam)

    def test_strips(self):
        assert is_horizontal_strip((3, 1), (2,))
        assert not is_horizontal_strip((2, 2), (1,))
        assert is_vertical_strip((2, 2), (2, 1))
        assert not is_vertical_strip((3, 1), (1,))

    def test_suffix_nonneg(self):
        assert suffix_nonneg((2, -1, 1))
        assert not suffix_nonneg((2, -1, 0))
        assert suffix_nonneg(())


class TestMultiplicities:
    def test_example(self):
        assert multiplicities((4, 4, 3, 1, 1, 1)) == {4: 2, 3: 1, 1: 3}


# A partition is made once, where it enters the library.  Each entry
# point that reads a partition from a caller, as a function of that
# partition (the other arguments fixed): these read any spelling of it,
# in any order and with zeros anywhere.
_A2 = Alphabet.of_vars("x1", "x2")
_ONE_MINUS_X1 = parse_alphabet("1-x1")
SPELLED_ENTRY_POINTS = {
    "parse_partition": lambda lam: parse_partition(" ".join(map(str, lam))),
    "qprime_on_alphabet x1+x2": lambda lam: qprime_on_alphabet(lam, _A2),
    "qprime_on_alphabet 1-x1": lambda lam: qprime_on_alphabet(lam, _ONE_MINUS_X1),
    "skew_qprime outer": lambda lam: skew_qprime(lam, (1,), _A2),
    "skew_qprime inner": lambda lam: skew_qprime((3, 2, 1), lam, _A2),
    "plane_partition_qprime": lambda lam: plane_partition_qprime(lam, 2),
    "p_on_alphabet": lambda lam: p_on_alphabet(lam, _A2),
    "schur_eval": lambda lam: schur_eval(lam, _ONE_MINUS_X1),
    "skew_schur_eval": lambda lam: skew_schur_eval((3, 2, 1), lam, _A2),
    "aleph outer": lambda lam: aleph(lam, (1,)),
    "aleph inner": lambda lam: aleph((3, 2, 1), lam),
    "add_one": add_one,
    "sub_one": sub_one,
    "theta outer": lambda lam: theta(lam, (2, 1)),
    "theta inner": lambda lam: theta((2, 1), lam),
    "warnaar3_sides": lambda lam: warnaar3_sides(lam, 2, 3),
    "theta_scalar_parts outer": lambda lam: theta_scalar_parts(lam, (1,), 3),
    "theta_scalar_parts inner": lambda lam: theta_scalar_parts((2, 1), lam, 3),
    "sigmaxy_coefficient": sigmaxy_coefficient,
    "theta_product_form": lambda lam: theta_product_form((3, 2, 1), lam),
    "theta_signed_sum": lambda lam: theta_signed_sum((3, 2, 1), lam, 3),
    "enumerate_ssyt": lambda lam: enumerate_ssyt(lam, nletters=3),
}
# These read a partition with trailing zeros only: a reordered index is
# a vector to them, or is refused.
PADDED_ENTRY_POINTS = {
    "qprime_schur": qprime_schur,
    "qprime_of_vector": qprime_of_vector,
    "kostka_foulkes shape": lambda lam: {
        mu: kostka_foulkes(lam, mu) for mu in partitions_up_to(5)
    },
    "kostka_foulkes weight": lambda lam: {
        rho: kostka_foulkes(rho, lam) for rho in partitions_up_to(5)
    },
}
# At most three parts, so that theta_scalar_parts at rank 3 takes them.
_small = st.integers(0, 5).flatmap(lambda m: st.sampled_from(partitions_of(m, max_length=3)))
_zeros = st.integers(0, 2)


def _refusals():
    """(entry point, input, exception): a negative part is a ValueError
    and a float part a TypeError; parse_partition reads text, whose
    grammar refuses both.  qprime_of_vector reads any integer vector."""
    for name in [*SPELLED_ENTRY_POINTS, *PADDED_ENTRY_POINTS]:
        text = name == "parse_partition"
        if name != "qprime_of_vector":
            yield pytest.param(name, (2, -1), ValueError, id=f"{name} (2, -1)")
        yield pytest.param(name, (2.5, 1), ValueError if text else TypeError, id=f"{name} (2.5, 1)")


class TestEntryPoints:
    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(_small, _zeros).flatmap(
            lambda p: st.tuples(st.just(p[0]), st.permutations(p[0] + (0,) * p[1]))
        )
    )
    def test_any_spelling_gives_the_same_value(self, pair):
        lam, spelling = pair
        for name, entry in SPELLED_ENTRY_POINTS.items():
            assert entry(tuple(spelling)) == entry(lam), (name, spelling)

    @settings(max_examples=25, deadline=None)
    @given(_small, _zeros)
    def test_trailing_zeros_give_the_same_value(self, lam, zeros):
        for name, entry in PADDED_ENTRY_POINTS.items():
            assert entry(lam + (0,) * zeros) == entry(lam), (name, zeros)

    def test_exported_helpers_give_the_sorted_value(self):
        # each of these four calls gave another partition's value when
        # the helpers took their partition as it was
        assert hlkit.conjugate((1, 2)) == (2, 1)
        assert hlkit.b_poly((1, 0)) == ONE - T
        assert hlkit.n_stat((0, 2)) == 0
        assert hlkit.n_skew((1, 2, 2), (1,)) == 2
        for lam in partitions_up_to(5)[1:]:
            for spelling in set(permutations(lam + (0,))):
                assert hlkit.conjugate(spelling) == hlkit.conjugate(lam)
                assert hlkit.b_poly(spelling) == hlkit.b_poly(lam)
                assert hlkit.n_stat(spelling) == hlkit.n_stat(lam)
                assert hlkit.n_skew(spelling, (0, 1)) == hlkit.n_skew(lam, (1,))
        for bad, error in (((2, -1), ValueError), ((2.5, 1), TypeError)):
            for call in (
                lambda: hlkit.conjugate(bad),
                lambda: hlkit.b_poly(bad),
                lambda: hlkit.n_stat(bad),
                lambda: hlkit.n_skew((3, 1), bad),
                lambda: hlkit.n_skew(bad, ()),
            ):
                with pytest.raises(error):
                    call()

    def test_every_export_that_takes_a_partition_is_checked(self):
        # a new export lands in one of the entry-point tables, among the
        # four helpers above, or here with the reason it takes none
        covered = {name.split()[0] for name in [*SPELLED_ENTRY_POINTS, *PADDED_ENTRY_POINTS]}
        helpers = {"conjugate", "b_poly", "n_stat", "n_skew"}
        no_partition = {
            # classes and constructors
            "Alphabet", "BasisExpansion", "LaurentPoly", "NotDivisibleError", "XPoly",
            "letter", "parse_alphabet",
            # integers, words, vectors or polynomials
            "charge", "ct_scalar", "kernel_schur", "partitions_of", "pi_i", "pi_omega",
            "straighten_schur", "t_binomial",
        }
        exported = set(hlkit.__all__)
        assert no_partition <= exported and not no_partition & (covered | helpers)
        assert exported - no_partition <= covered | helpers

    @pytest.mark.parametrize("name, bad, error", list(_refusals()))
    def test_refuses_negative_and_float_parts(self, name, bad, error):
        entry = {**SPELLED_ENTRY_POINTS, **PADDED_ENTRY_POINTS}[name]
        with pytest.raises(error):
            entry(bad)

    @pytest.mark.parametrize(
        "reader",
        [
            qprime_vector_schur,
            kernel_schur,
            lambda weight: enumerate_ssyt((2,), weight=weight),
        ],
    )
    def test_vector_readers_refuse_floats(self, reader):
        with pytest.raises(TypeError):
            reader((1.9, 0))

    def test_plane_partitions_normalize_at_the_entry_only(self, monkeypatch):
        # _branch normalizes lam and the skew end; every helper it
        # reaches takes them as they are.
        calls = []

        def spy(parts):
            calls.append(parts)
            return normalize(parts)

        hlkit_modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "hlkit"]
        for module in hlkit_modules:
            if hasattr(module, "normalize"):
                monkeypatch.setattr(module, "normalize", spy)
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
        plane_partition_qprime((4, 3, 2, 1), 4)
        assert 1 <= len(calls) <= 2
