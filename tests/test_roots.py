"""Weyl dimension formula, basis conversions, dominance, root counts."""

import random
from fractions import Fraction
from math import comb

import pytest

from sympalg.roots import (
    NotDominant,
    RootSystemSp,
    Weight,
    epsilon_to_omega,
    is_dominant,
    omega_to_epsilon,
    spinor_tails,
    weyl_dim,
)


class TestWeylDim:
    def test_trivial(self):
        for n in range(1, 6):
            assert weyl_dim(Weight.from_partition([], n)) == 1

    def test_counterexample_value(self):
        assert weyl_dim(Weight.parse("2,1", 4)) == 160

    def test_one_row_matches_binomial(self):
        # dim (k) = C(k + 2n - 1, 2n - 1): two independent formulas
        for n in range(1, 6):
            for k in range(0, 9):
                w = Weight.from_partition([k], n)
                assert weyl_dim(w) == comb(k + 2 * n - 1, 2 * n - 1)

    def test_fundamental(self):
        for n in range(1, 6):
            assert weyl_dim(Weight.from_partition([1], n)) == 2 * n

    def test_rejects_non_dominant(self):
        with pytest.raises(NotDominant):
            weyl_dim(Weight.parse("1,2", 4))
        with pytest.raises(NotDominant):
            weyl_dim(Weight.of(Fraction(1, 2), 0))


class TestBasisConversion:
    def test_even_spinor_tail(self):
        n = 4
        coeffs = [0] * (n - 1) + [Fraction(-1, 2)]
        assert omega_to_epsilon(coeffs) == Weight.of(*([Fraction(-1, 2)] * n))

    def test_odd_spinor_tail(self):
        n = 4
        coeffs = [0] * (n - 2) + [1, Fraction(-3, 2)]
        want = Weight.of(*([Fraction(-1, 2)] * (n - 1) + [Fraction(-3, 2)]))
        assert omega_to_epsilon(coeffs) == want

    def test_tails_helper_agrees(self):
        for n in (1, 2, 4):
            even, odd = spinor_tails(n)
            coeffs_even = [0] * (n - 1) + [Fraction(-1, 2)]
            assert omega_to_epsilon(coeffs_even) == even
            if n > 1:
                coeffs_odd = [0] * (n - 2) + [1, Fraction(-3, 2)]
                assert omega_to_epsilon(coeffs_odd) == odd

    def test_roundtrip_random(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 6)
            w = Weight.of(*[Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n)])
            assert omega_to_epsilon(epsilon_to_omega(w)) == w

    def test_fundamental_weights(self):
        assert omega_to_epsilon([0, 1, 0]) == Weight.of(1, 1, 0)


class TestDominance:
    def test_examples(self):
        assert is_dominant(Weight.parse("2,1", 4))
        assert not is_dominant(Weight.parse("1,2", 4))

    @pytest.mark.parametrize(
        "coords, dominant",
        [
            ((2, 1, 0), True),
            ((0,), True),
            ((3, 3, 3), True),
            ((1, 2), False),
            ((1, -1), False),
            ((Fraction(5, 2), Fraction(1, 2)), False),
            ((Fraction(5, 2), Fraction(-1, 2)), False),
            ((2, Fraction(1, 3)), False),
        ],
    )
    def test_weight_and_tuple_agree(self, coords, dominant):
        assert is_dominant(coords) is dominant
        assert is_dominant(Weight.of(*coords)) is dominant


class TestRootSystem:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts(self, n):
        rs = RootSystemSp(n)
        assert len(rs.long_roots()) == 2 * n
        assert len(rs.short_roots()) == 2 * (n * n - n)
        assert len(rs.all_roots()) == 2 * n * n
        assert len(rs.simple_roots()) == n

    def test_simple_roots_shape(self):
        rs = RootSystemSp(3)
        simples = rs.simple_roots()
        assert simples[0] == Weight.of(1, -1, 0)
        assert simples[-1] == Weight.of(0, 0, 2)

    def test_fundamental_weights_match_omega(self):
        rs = RootSystemSp(4)
        for j, w in enumerate(rs.fundamental_weights()):
            coeffs = [0] * 4
            coeffs[j] = 1
            assert w == omega_to_epsilon(coeffs)
