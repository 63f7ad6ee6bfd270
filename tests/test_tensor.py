"""Spinor tensor decompositions: the drop rule against the singular vectors,
parities, Cartan products."""

from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from helpers import SPINOR_TENSOR_GRID, spinor_singular_weights
from sympalg.roots import NotDominant, Weight, spinor_tails
from sympalg.tensor import (
    EVEN,
    ODD,
    cartan_product,
    drop_vectors,
    tensor_with_spinor,
)


class TestDropVectors:
    def test_trivial_weight(self):
        assert drop_vectors(Weight.from_partition([], 4)) == [(0, 0, 0, 0), (0, 0, 0, 1)]

    def test_bounds(self):
        # d_i <= lambda_i - lambda_{i+1} (i < n), d_n <= 2 lambda_n + 1
        drops = drop_vectors(Weight.parse("3,1,1", 3))
        assert [max(d[i] for d in drops) for i in range(3)] == [2, 0, 3]

    def test_lexicographic_order(self):
        lam = Weight.parse("2,1", 4)
        drops = drop_vectors(lam)
        assert drops == sorted(drops)
        assert len(set(drops)) == len(drops)

    def test_requires_dominant(self):
        with pytest.raises(NotDominant):
            drop_vectors(Weight.parse("1,2", 3))
        with pytest.raises(NotDominant):
            tensor_with_spinor(Weight.parse("1,2", 3))


class TestTensorWithSpinor:
    @pytest.mark.parametrize("parts", SPINOR_TENSOR_GRID, ids=str)
    def test_matches_singular_vectors(self, parts):
        lam = Weight(parts)
        got = Counter((s.weight, s.parity) for s in tensor_with_spinor(lam))
        assert got == spinor_singular_weights(lam)

    def test_smallest_rank_two_case(self):
        # the odd (-1/2,-1/2) is a summand and (-1/2,-5/2) is not
        half = Fraction(1, 2)
        summands = tensor_with_spinor(Weight.parse("1,0", 2))
        assert [(s.weight, s.parity) for s in summands] == [
            (Weight.of(half, -half), EVEN),
            (Weight.of(-half, Fraction(-3, 2)), EVEN),
            (Weight.of(half, Fraction(-3, 2)), ODD),
            (Weight.of(-half, -half), ODD),
        ]

    def test_count_and_family_order(self):
        for text, n in (("2,1", 4), ("6,6,6,6,6,6", 6), ("3,1,1", 3)):
            lam = Weight.parse(text, n)
            c = [int(x) for x in lam.coords]
            summands = tensor_with_spinor(lam)
            assert len(summands) == prod(a - b + 1 for a, b in zip(c, c[1:])) * (2 * c[-1] + 2)
            parities = [s.parity for s in summands]
            assert parities == sorted(parities, key=lambda p: p == ODD)

    def test_json_multiplicity_one(self):
        # the field is gone; the report still prints the multiplicity
        for s in tensor_with_spinor(Weight.parse("2,1", 3)):
            assert not hasattr(s, "multiplicity")
            assert s.to_json()["multiplicity"] == 1

    def test_top_summands_present(self):
        lam = Weight.parse("2,1", 4)
        summands = tensor_with_spinor(lam)
        half = Fraction(1, 2)
        even_top = Weight.of(Fraction(3, 2), half, -half, -half)
        odd_top = Weight.of(Fraction(3, 2), half, -half, Fraction(-3, 2))
        assert any(s.weight == even_top and s.parity == EVEN for s in summands)
        assert any(s.weight == odd_top and s.parity == ODD for s in summands)

    def test_trivial_gives_tails(self):
        lam = Weight.from_partition([], 3)
        summands = tensor_with_spinor(lam)
        even, odd = spinor_tails(3)
        assert [s.weight for s in summands] == [even, odd]
        assert [s.parity for s in summands] == [EVEN, ODD]


class TestCartanProduct:
    def test_one_row(self):
        for n in (2, 4):
            for k in (0, 1, 3):
                even, odd = cartan_product(Weight.from_partition([k], n))
                half = Fraction(1, 2)
                assert even == Weight.of(*([k - half] + [-half] * (n - 1)))
                assert odd == Weight.of(
                    *([k - half] + [-half] * (n - 2) + [Fraction(-3, 2)])
                )

    def test_two_rows_matches_lemma(self):
        n = 4
        even, odd = cartan_product(Weight.parse("2,1", n))
        half = Fraction(1, 2)
        assert even == Weight.of(Fraction(3, 2), half, -half, -half)
        assert odd == Weight.of(Fraction(3, 2), half, -half, Fraction(-3, 2))

    def test_trivial(self):
        even, odd = cartan_product(Weight.from_partition([], 5))
        assert (even, odd) == spinor_tails(5)

    def test_contained_in_tensor_once_per_parity(self):
        for text, n in (("2,1", 4), ("1,1", 2), ("4", 3)):
            lam = Weight.parse(text, n)
            even, odd = cartan_product(lam)
            summands = tensor_with_spinor(lam)
            assert sum(1 for s in summands if s.weight == even and s.parity == EVEN) == 1
            assert sum(1 for s in summands if s.weight == odd and s.parity == ODD) == 1
