"""Property tests for exact arithmetic, scalar ratios, text and JSON round
trips, and elimination.

For composition and commutators, operators and polynomials are drawn over the
(n, N) = (1, 1) universe, whose three variables x1.1, y1.1, z1 make
multiplication and derivative monomials overlap often, so normal ordering
meets powers on both sides.  Coefficients have denominators up to 6, which
exercises the common-denominator scaling inside ``compose``.  The round trips
through the printers and parsers draw universes up to (n, N) = (3, 3), so
copy-free printing, z variables and every copy appear.  ``nullspace`` is
compared vector for vector with the dense oracle of ``helpers``.
"""

from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import dense_nullspace  # noqa: E402
from sympalg.linalg import nullspace, scale  # noqa: E402
from sympalg.poly import (  # noqa: E402
    Poly,
    mono_from_dict,
    parse_poly,
    poly_from_json,
    variables,
)
from sympalg.weyl import (  # noqa: E402
    WeylOp,
    apply_op,
    commutator,
    compose,
    parse_weyl_op,
    ratio,
)

coefs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def monos_in(n, N, max_size=2):
    return st.dictionaries(
        st.integers(0, len(variables(n, N)) - 1), st.integers(1, 3), max_size=max_size
    ).map(mono_from_dict)


def ops_in(n, N, max_size=2):
    keys = st.tuples(monos_in(n, N, max_size), monos_in(n, N, max_size))
    return st.dictionaries(keys, coefs, max_size=4).map(lambda terms: WeylOp(n, N, terms))


def polys_in(n, N, max_size=2):
    return st.dictionaries(monos_in(n, N, max_size), coefs, max_size=4).map(
        lambda terms: Poly(n, N, terms)
    )


n, N = 1, 1
ops = ops_in(n, N)
polys = polys_in(n, N)
universes = st.tuples(st.integers(1, 3), st.integers(1, 3))
any_polys = universes.flatmap(lambda u: polys_in(*u, max_size=3))
any_ops = universes.flatmap(lambda u: ops_in(*u, max_size=3))
# up to 9 x 9, with empty rows and explicit zero entries
matrices = st.integers(1, 9).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(
            st.dictionaries(st.integers(0, ncols - 1), coefs | st.just(Fraction(0))),
            max_size=9,
        ),
    )
)

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


@exact
@given(any_polys)
def test_poly_text_round_trip(p):
    assert parse_poly(str(p), p.n, p.N) == p


@exact
@given(any_polys)
def test_poly_json_round_trip(p):
    assert poly_from_json(p.to_json(), p.n, p.N) == p


@exact
@given(any_ops)
def test_operator_text_round_trip(A):
    assert parse_weyl_op(str(A), A.n, A.N) == A


@exact
@given(polys, coefs)
def test_ratio(p, c):
    zero = Poly.zero(n, N)
    assert ratio(zero, p) == 0
    if not p:
        return
    assert ratio(p, zero) is None
    assert ratio(p * c, p) == c
    # one coefficient off: the support may match, the scalar does not
    m, a = next(iter(p.terms.items()))
    if len(p.terms) > 1:
        assert ratio(p * c + Poly(n, N, {m: a}), p) is None


@exact
@given(matrices)
def test_nullspace_matches_dense_oracle(matrix):
    ncols, rows = matrix
    dense = [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]
    assert nullspace(rows, ncols) == dense_nullspace(dense, ncols)
