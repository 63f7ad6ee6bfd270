"""Exact polynomial arithmetic: ring axioms, grading, bases, parsing."""

import random
from fractions import Fraction
from math import comb

import pytest

from sympalg.poly import (
    MultiDegree,
    Poly,
    PolyParseError,
    UniverseMismatch,
    VarId,
    graded_dimension,
    mono_from_dict,
    monomial_basis,
    parse_poly,
    poly_from_json,
)


from helpers import random_poly


def v(name, n=4, N=2):
    return Poly.var(n, N, name)


class TestArithmetic:
    def test_additive_inverse(self):
        x = v("x1.1")
        assert (x + (-x)).is_zero()

    def test_like_term_merge(self):
        x2 = v("x1.1") ** 2
        assert x2 + x2 == 2 * x2

    def test_disjoint_supports(self):
        p = v("x1.1") * v("x2.1") + v("z1")
        assert len(p.terms) == 2

    def test_product_of_vars(self):
        p = v("x1.1") * v("x1.2")
        assert len(p.terms) == 1
        assert str(p) == "x1.1*x1.2"

    def test_binomial_square(self):
        # (x1.1*u2 - x1.2*u1)^2 with u_i = x2.i: coefficients 1, -2, 1 by hand
        p = v("x1.1") * v("x2.2") - v("x1.2") * v("x2.1")
        sq = p**2
        assert len(sq.terms) == 3
        coeffs = sorted(sq.terms.values())
        assert coeffs == [Fraction(-2), Fraction(1), Fraction(1)]

    def test_mul_by_zero(self):
        p = v("x1.1") + 3 * v("y2.2")
        assert (p * Poly.zero(4, 2)).is_zero()

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            Poly.var(2, 1, "x1.1") + Poly.var(3, 1, "x1.1")

    def test_printed_term_order(self):
        p = parse_poly("z1 + y2.1 + x1.1*z1 + x1.1^2 - 3/2*x2.1", 1, 2)
        assert str(p) == "x1.1^2 + x1.1*z1 - 3/2*x2.1 + y2.1 + z1"

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Poly(1, 1, {(): 0.5})

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for _ in range(25):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r


class TestCalculus:
    def test_partial_power(self):
        p = v("x1.1") ** 3
        assert p.partial("x1.1") == 3 * v("x1.1") ** 2

    def test_partial_absent_var(self):
        p = v("x1.1") * v("z2")
        assert p.partial("z1").is_zero()

    def test_partial_of_pairing(self):
        p = v("x1.1") * v("x2.2") - v("x1.2") * v("x2.1")
        assert p.partial("x1.1") == v("x2.2")

    def test_derivation_property_random(self):
        from sympalg.poly import variables

        rng = random.Random(11)
        vs = variables(2, 2)
        for _ in range(25):
            p, q = random_poly(rng), random_poly(rng)
            var = rng.choice(vs)
            lhs = (p * q).partial(var)
            rhs = p.partial(var) * q + p * q.partial(var)
            assert lhs == rhs


class TestGrading:
    def test_component_picks_degree(self):
        p = v("x1.1") + v("x1.1") ** 2
        d1 = MultiDegree((1, 0), 0)
        assert p.homogeneous_component(d1) == v("x1.1")

    def test_projection_identity(self):
        p = v("x1.1") * v("y2.2")
        d = p.multidegree()
        assert p.homogeneous_component(d) == p

    def test_projection_idempotent(self):
        rng = random.Random(3)
        p = random_poly(rng)
        for d in p.occurring_multidegrees():
            c = p.homogeneous_component(d)
            assert c.homogeneous_component(d) == c

    def test_components_reassemble(self):
        rng = random.Random(5)
        p = random_poly(rng)
        total = Poly.zero(p.n, p.N)
        for d in p.occurring_multidegrees():
            total = total + p.homogeneous_component(d)
        assert total == p


class TestMonomialBasis:
    def test_counts_match_stars_and_bars(self):
        # n=4: dim P_2(R^8) = C(9,7) = 36; (2,1) over two copies: 36*8 = 288
        assert len(monomial_basis(4, 1, MultiDegree((2,), 0))) == comb(9, 7)
        assert len(monomial_basis(4, 2, MultiDegree((2, 1), 0))) == 288

    def test_constant_component(self):
        assert monomial_basis(3, 2, MultiDegree((0, 0), 0)) == [()]

    def test_count_formula_with_z(self):
        for n in (1, 2, 3):
            for la in ((1,), (2,), (3,)):
                for z in (0, 1, 2):
                    d = MultiDegree(la, z)
                    assert len(monomial_basis(n, 1, d)) == graded_dimension(n, 1, d)
        for n, la, z in ((2, (2, 1), 1), (3, (1, 1), 2)):
            d = MultiDegree(la, z)
            assert len(monomial_basis(n, 2, d)) == graded_dimension(n, 2, d)

    def test_deterministic_order(self):
        b1 = monomial_basis(2, 2, MultiDegree((1, 1), 1))
        b2 = monomial_basis(2, 2, MultiDegree((1, 1), 1))
        assert b1 == b2

    def test_restricted_vars(self):
        # P_2(R^3): 6 monomials
        assert len(monomial_basis(2, 1, MultiDegree((2,), 0), num_vars=3)) == 6


class TestParsing:
    def test_simple(self):
        p = parse_poly("3/2*x1.1^2*z1 - y1.2", 4, 2)

        def rank(*v):
            return VarId(*v).rank(4, 2)

        assert p.terms[mono_from_dict({rank("x", 1, 1): 2, rank("z", None, 1): 1})] == Fraction(3, 2)
        assert p.terms[mono_from_dict({rank("y", 1, 2): 1})] == Fraction(-1)

    def test_alias_for_single_copy(self):
        assert parse_poly("x2", 3, 1) == Poly.var(3, 1, "x1.2")
        with pytest.raises(PolyParseError):
            parse_poly("x2", 3, 2)

    def test_whitespace_insignificant(self):
        assert parse_poly(" 2*x1.1 +  z1 ", 2, 1) == parse_poly("2*x1.1+z1", 2, 1)

    def test_constant_term(self):
        assert parse_poly("5/3", 2, 1) == Poly.const(2, 1, Fraction(5, 3))

    def test_roundtrip_str(self):
        rng = random.Random(13)
        for _ in range(20):
            p = random_poly(rng)
            assert parse_poly(str(p), p.n, p.N) == p

    def test_roundtrip_json(self):
        rng = random.Random(17)
        for _ in range(20):
            p = random_poly(rng)
            assert poly_from_json(p.to_json(), p.n, p.N) == p

    @pytest.mark.parametrize("text", ["x1.1*", "*x1.1", "x1.1**x1.2", "2*", "x1.1* + y1.1"])
    def test_rejects_stray_star(self, text):
        with pytest.raises(PolyParseError):
            parse_poly(text, 2, 2)

    def test_json_rejects_negative_exponent(self):
        with pytest.raises(PolyParseError, match="negative exponent"):
            poly_from_json([{"coef": "1", "exps": {"x1.1": -1}}], 2, 1)

    @pytest.mark.parametrize(
        "entry",
        [
            {"coef": 0.1, "exps": {"x2.1": 1}},
            {"coef": 2.0},
            {"coef": True, "exps": {"x2.1": 1}},
            {"coef": "1", "exps": {"x2.1": 1.7}},
            {"coef": "1", "exps": {"x2.1": 2.0}},
            {"coef": "1", "exps": {"x2.1": True}},
        ],
    )
    def test_json_rejects_floats_and_booleans(self, entry):
        with pytest.raises(PolyParseError):
            poly_from_json([entry], 2, 2)

    def test_rejects_derivative_factor(self):
        with pytest.raises(PolyParseError):
            parse_poly("dx1.1", 2, 1)

    def test_rejects_out_of_universe(self):
        with pytest.raises(PolyParseError):
            parse_poly("x3.1", 2, 2)
        with pytest.raises(PolyParseError):
            parse_poly("z5", 2, 1)
