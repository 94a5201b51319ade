import re
from math import comb

import pytest
from hypothesis import given, strategies as st

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
from oracles import format_partition, is_vertical_strip

parts = st.lists(st.integers(1, 6), max_size=5).map(normalize)


class TestBasics:
    def test_normalize(self):
        assert normalize([0, 3, 1, 0, 2]) == (3, 2, 1)
        assert normalize(()) == ()

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
        assert set(partitions_of(4, max_part=2)) == {
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
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
