"""Charge, tableau enumeration, and layer chains.

Expected charges were computed by hand with the circular-scan rule and
cross-checked against the one-row closed form; tableau counts come from
the Weyl dimension product, which shares no code with the enumerator.
"""

import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hlkit.laurent import LaurentPoly
from hlkit.partitions import (
    contains,
    n_stat,
    normalize,
    partitions_of,
    subpartitions,
)
from hlkit.tableaux import (
    NonDominantWeightError,
    charge,
    charge_tableau,
    enumerate_ssyt,
    layer_chains,
    reading_word,
    word_weight,
)
from oracles import charge_by_scanning, enumerate_ssyt_by_cells, knuth_neighbors

FROZEN_CHARGES = {
    (1, 2): 1,
    (2, 1): 0,
    (1, 2, 3): 3,
    (3, 4, 1, 2): 4,
    (2, 4, 1, 3): 2,
    (2, 3, 1, 1): 1,
    (3, 1, 1, 2): 2,
    (2, 1, 1, 3): 1,
    (1, 1, 2, 3): 3,
}


small_partitions = st.integers(0, 7).flatmap(
    lambda m: st.sampled_from(partitions_of(m))
)


def compositions(m):
    """Weights of total m with up to five letters, zeros allowed."""
    return st.lists(st.integers(0, m), max_size=4).map(
        lambda cuts: tuple(
            b - a for a, b in zip([0] + sorted(cuts), sorted(cuts) + [m])
        )
    )


def weyl_count(shape, n):
    """#SSYT with entries <= n, by the dimension product formula."""
    lam = list(normalize(shape)) + [0] * n
    if len(lam) > n and lam[n] > 0:
        return 0
    num, den = 1, 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def words_of_weight(mu):
    letters = []
    for i, m in enumerate(mu, start=1):
        letters.extend([i] * m)
    return set(itertools.permutations(letters))


class TestWordWeight:
    def test_basic(self):
        assert word_weight((1, 3, 1)) == (2, 0, 1)
        assert word_weight((1,), nletters=3) == (1, 0, 0)
        assert word_weight(()) == ()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            word_weight((0, 1))
        with pytest.raises(ValueError):
            word_weight((2,), nletters=1)


class TestCharge:
    def test_frozen_values(self):
        for word, c in FROZEN_CHARGES.items():
            assert charge(word) == c, word

    def test_empty(self):
        assert charge(()) == 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_standard_increasing_word(self, n):
        assert charge(tuple(range(1, n + 1))) == comb(n, 2)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_standard_decreasing_word(self, n):
        assert charge(tuple(range(n, 0, -1))) == 0

    def test_non_partition_weight_raises(self):
        with pytest.raises(NonDominantWeightError):
            charge((2,))
        with pytest.raises(NonDominantWeightError):
            charge((1, 2, 2))

    @pytest.mark.parametrize("mu", [(2, 1), (2, 2), (2, 1, 1), (2, 2, 1), (3, 2)])
    def test_knuth_invariance(self, mu):
        for word in words_of_weight(mu):
            c = charge(word)
            for other in knuth_neighbors(word):
                assert charge(other) == c, (word, other)

    @pytest.mark.parametrize("mu", [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)])
    def test_one_row_shape_closed_form(self, mu):
        # unique tableau, and its charge is the weighted row statistic
        tabs = enumerate_ssyt((sum(mu),), mu)
        assert len(tabs) == 1
        assert charge_tableau(tabs[0]) == n_stat(mu)

    def test_single_column_has_charge_zero(self):
        for n in range(1, 6):
            tabs = enumerate_ssyt((1,) * n, (1,) * n)
            assert len(tabs) == 1
            assert charge_tableau(tabs[0]) == 0


    @given(
        small_partitions.filter(bool).flatmap(
            lambda mu: st.permutations(
                [i for i, m in enumerate(mu, start=1) for _ in range(m)]
            )
        )
    )
    def test_matches_scanning_oracle(self, word):
        assert charge(word) == charge_by_scanning(word)


class TestKnuthMoves:
    def test_window_example(self):
        # 2 1 2: c < a <= b fails, b < a <= c gives (2, 2, 1)
        assert knuth_neighbors((2, 1, 2)) == [(2, 2, 1)]

    @given(st.lists(st.integers(1, 3), min_size=3, max_size=6))
    def test_symmetric(self, word):
        word = tuple(word)
        for other in knuth_neighbors(word):
            assert word in knuth_neighbors(other)

    @given(st.lists(st.integers(1, 3), min_size=3, max_size=6))
    def test_preserves_weight(self, word):
        word = tuple(word)
        w = word_weight(word, nletters=3)
        for other in knuth_neighbors(word):
            assert word_weight(other, nletters=3) == w


class TestEnumeration:
    def test_standard_count(self):
        # hook lengths of (2,1) are 3,1,1
        assert len(enumerate_ssyt((2, 1), (1, 1, 1))) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)])
    def test_counts_match_product_formula(self, shape, n):
        assert len(enumerate_ssyt(shape, nletters=n)) == weyl_count(shape, n)

    def test_weight_splits_letter_bound(self):
        shape = (2, 1)
        by_weight = sum(
            len(enumerate_ssyt(shape, w))
            for mu in partitions_of(3)
            for w in set(itertools.permutations(mu + (0,) * (3 - len(mu))))
        )
        assert by_weight == len(enumerate_ssyt(shape, nletters=3))

    def test_rows_and_columns(self):
        for tab in enumerate_ssyt((3, 2), nletters=3):
            for row in tab:
                assert all(a <= b for a, b in zip(row, row[1:]))
            for c in range(2):
                assert tab[0][c] < tab[1][c]

    @settings(deadline=None)
    @given(small_partitions, st.integers(-1, 5))
    def test_letter_bound_matches_cell_oracle(self, shape, n):
        if n < 0:
            with pytest.raises(ValueError):
                enumerate_ssyt(shape, nletters=n)
            return
        got = enumerate_ssyt(shape, nletters=n)
        assert got == enumerate_ssyt_by_cells(shape, nletters=n)

    @settings(deadline=None)
    @given(
        small_partitions.flatmap(
            lambda shape: st.tuples(st.just(shape), compositions(sum(shape)))
        )
    )
    def test_weight_matches_cell_oracle(self, case):
        shape, weight = case
        got = enumerate_ssyt(shape, weight)
        assert got == enumerate_ssyt_by_cells(shape, weight)

    def test_weight_filter(self):
        for tab in enumerate_ssyt((2, 2), (2, 1, 1)):
            assert word_weight([a for row in tab for a in row], nletters=3) == (2, 1, 1)

    def test_too_many_rows(self):
        assert enumerate_ssyt((1, 1, 1), nletters=2) == []

    def test_weight_size_mismatch(self):
        assert enumerate_ssyt((2, 1), (1, 1)) == []

    def test_negative_letter_bound_raises(self):
        with pytest.raises(ValueError):
            enumerate_ssyt((2, 1), nletters=-1)


class TestReadingWord:
    def test_order(self):
        assert reading_word(((1, 1), (2,))) == (2, 1, 1)
        assert reading_word(((1, 2, 2), (2, 3), (4,))) == (4, 2, 3, 1, 2, 2)

    def test_charge_polynomial_example(self):
        acc = LaurentPoly()
        for tab in enumerate_ssyt((2, 1), (1, 1, 1)):
            acc = acc + LaurentPoly.t_power(charge_tableau(tab))
        assert acc == LaurentPoly({1: 1, 2: 1})


class TestLayerChains:
    def test_counts(self):
        assert len(layer_chains((1,), 2)) == 2
        assert len(layer_chains((2,), 2)) == 3
        assert len(layer_chains((2, 1), 2)) == 5
        assert len(layer_chains((1,), 3)) == 3

    def test_empty_shape(self):
        assert layer_chains((), 0) == (((),),)
        assert len(layer_chains((), 3)) == 1

    def test_nonempty_needs_steps(self):
        assert layer_chains((1,), 0) == ()

    def test_chain_structure(self):
        for chain in layer_chains((2, 1), 3):
            assert chain[0] == (2, 1)
            assert chain[-1] == ()
            assert len(chain) == 4
            for big, small in zip(chain, chain[1:]):
                assert contains(big, small)

    def test_one_step_counts_subpartitions(self):
        # s_1 ranges over subpartitions, s_2 is forced empty only when n=2
        shape = (2, 2)
        assert len(layer_chains(shape, 2)) == len(subpartitions(shape))
