"""Property tests for the exact arithmetic of composition and commutators.

Operators and polynomials are drawn over the (n, N) = (1, 1) universe, whose
three variables x1.1, y1.1, z1 make multiplication and derivative monomials
overlap often, so normal ordering meets powers on both sides.  Coefficients
have denominators up to 6, which exercises the common-denominator scaling
inside ``compose``.
"""

from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sympalg.linalg import scale  # noqa: E402
from sympalg.poly import Poly, mono_from_dict, variables  # noqa: E402
from sympalg.weyl import WeylOp, apply_op, commutator, compose  # noqa: E402

n, N = 1, 1
coefs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
monos = st.dictionaries(
    st.integers(0, len(variables(n, N)) - 1), st.integers(1, 3), max_size=2
).map(mono_from_dict)
ops = st.dictionaries(st.tuples(monos, monos), coefs, max_size=4).map(
    lambda terms: WeylOp(n, N, terms)
)
polys = st.dictionaries(monos, coefs, max_size=4).map(lambda terms: Poly(n, N, terms))

# no deadline: a shared machine can stall any single example
exact = settings(deadline=None)


@exact
@given(ops, ops, polys)
def test_apply_respects_compose(A, B, p):
    assert apply_op(compose(A, B), p) == apply_op(A, apply_op(B, p))


@exact
@given(ops, ops)
def test_commutator_is_antisymmetric(A, B):
    assert commutator(A, B) == -commutator(B, A)


@exact
@given(ops, ops)
def test_values_stay_fractions(A, B):
    for op in (compose(A, B), commutator(A, B)):
        assert all(type(c) is Fraction and c != 0 for c in op.terms.values())


@exact
@given(st.dictionaries(st.integers(0, 20), coefs | st.just(Fraction(0))))
def test_scale(row):
    d, int_row = scale(row)
    assert d == lcm(1, *(c.denominator for c in row.values()))
    assert all(type(v) is int and v != 0 for v in int_row.values())
    assert set(int_row) <= set(row)
    for k, c in row.items():
        assert Fraction(int_row.get(k, 0), d) == c
